//! The workloads: what each submits, from a seed.

use crate::deploy::{site_of, Options, DB_PODS, DCS, FABRIC_PODS, SITE};
use occam::gateway::SubmitSpec;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    AuditBurst,
    WriteMix,
    HotRegion,
    PlannedRollout,
}

/// A workload's fixed definition.
#[derive(Clone, Copy)]
pub struct Def {
    pub kind: Kind,
    pub name: &'static str,
    /// Closed-loop in-flight window.
    pub window: usize,
    /// The tail percentile reported as `*_tail_ms`.
    pub tail_q: f64,
    /// Sleep between STATUS rounds that found nothing terminal.
    pub poll: Duration,
    /// Run `f_optic_test` faults every this many calls (0 = none).
    pub fault_every: u64,
    pub opts: Options,
}

pub const ALL: [Kind; 4] = [
    Kind::AuditBurst,
    Kind::WriteMix,
    Kind::HotRegion,
    Kind::PlannedRollout,
];

impl Kind {
    pub fn def(self) -> Def {
        match self {
            Kind::AuditBurst => Def {
                kind: self,
                name: "audit_burst",
                window: 16,
                tail_q: 0.99,
                poll: Duration::from_micros(50),
                fault_every: 0,
                opts: Options {
                    attempts: 1,
                    ..Options::default()
                },
            },
            Kind::WriteMix => Def {
                kind: self,
                name: "write_mix",
                window: 8,
                tail_q: 0.99,
                poll: Duration::from_micros(50),
                fault_every: 97,
                opts: Options {
                    follower: true,
                    attempts: 4,
                    ..Options::default()
                },
            },
            Kind::HotRegion => Def {
                kind: self,
                name: "hot_region",
                window: 16,
                tail_q: 0.99,
                poll: Duration::from_micros(100),
                fault_every: 97,
                opts: Options {
                    certifier: true,
                    attempts: 4,
                    ..Options::default()
                },
            },
            Kind::PlannedRollout => Def {
                kind: self,
                name: "planned_rollout",
                window: 2,
                tail_q: 0.95,
                poll: Duration::from_micros(500),
                fault_every: 0,
                opts: Options {
                    certifier: true,
                    attempts: 1,
                    ..Options::default()
                },
            },
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.def().name == name)
    }
}

/// Task class for the split latency metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Write,
    Audit,
}

/// One generated submission.
pub struct Job {
    pub spec: SubmitSpec,
    pub class: Class,
    /// A drain whose completion releases an undrain of the same scope.
    pub pair_drain: bool,
    /// The dc01 pod a planned update targets.
    pub pod: Option<u32>,
}

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// True with probability `pct` percent.
    pub fn pct(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

fn spec(workflow: &str, scope: String, urgent: bool, params: &[(&str, String)]) -> SubmitSpec {
    SubmitSpec {
        workflow: workflow.into(),
        scope,
        urgent,
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    }
}

fn audit(rng: &mut Rng, dc: u32, scope: String) -> Job {
    let spec = if rng.pct(50) {
        spec("status_audit", scope, false, &[])
    } else {
        spec(
            "compliance_audit",
            scope,
            false,
            &[("attr", SITE.into()), ("value", site_of(dc))],
        )
    };
    Job {
        spec,
        class: Class::Audit,
        pair_drain: false,
        pod: None,
    }
}

fn write(rng: &mut Rng, scope: String, urgent: bool, serial: u64, maint_pct: u64) -> Job {
    let roll = rng.below(100);
    let (spec, pair_drain) = if roll < maint_pct {
        (spec("device_maintenance", scope, urgent, &[]), false)
    } else {
        let rest = (roll - maint_pct) * 3 / (100 - maint_pct);
        match rest {
            0 => (
                spec(
                    "config_push",
                    scope,
                    urgent,
                    &[("generation", format!("g{serial}"))],
                ),
                false,
            ),
            1 => (
                spec(
                    "firmware_upgrade",
                    scope,
                    urgent,
                    &[("version", format!("fw-2.{serial}"))],
                ),
                false,
            ),
            _ => (spec("drain", scope, urgent, &[]), true),
        }
    };
    Job {
        spec,
        class: Class::Write,
        pair_drain,
        pod: None,
    }
}

/// The undrain that closes a drain pair.
pub fn undrain(scope: &str) -> Job {
    Job {
        spec: spec("undrain", scope.to_string(), false, &[]),
        class: Class::Write,
        pair_drain: false,
        pod: None,
    }
}

/// Write scopes of `hot_region`: four pods, with per-pod, per-role
/// and cross-pod regions that nest inside one another.
fn hot_scope(rng: &mut Rng) -> String {
    let pod = rng.below(4);
    match rng.below(8) {
        0..=2 => format!("dc01.pod{pod:02}.*"),
        3..=4 => format!("dc01.pod{pod:02}.tor*"),
        5..=6 => format!("dc01.pod{pod:02}.agg*"),
        _ => "dc01.pod0[0-3].*".to_string(),
    }
}

/// The next submission of workload `kind`. `busy_pods` lists dc01 pods
/// with a planned update in flight, which `planned_rollout` avoids.
pub fn next(kind: Kind, rng: &mut Rng, serial: u64, busy_pods: &[u32]) -> Job {
    match kind {
        Kind::AuditBurst => {
            let pod = rng.below(u64::from(FABRIC_PODS));
            audit(rng, 1, format!("dc01.pod{pod:02}.*"))
        }
        Kind::WriteMix => {
            if rng.pct(60) {
                let pod = rng.below(u64::from(FABRIC_PODS));
                let urgent = rng.pct(10);
                write(rng, format!("dc01.pod{pod:02}.*"), urgent, serial, 25)
            } else {
                // Audits over every pod of every DC: far more view keys
                // than the view cache holds.
                let pods = FABRIC_PODS + (DCS - 1) * DB_PODS;
                let i = rng.below(u64::from(pods)) as u32;
                let (dc, pod) = if i < FABRIC_PODS {
                    (1, i)
                } else {
                    (2 + (i - FABRIC_PODS) / DB_PODS, (i - FABRIC_PODS) % DB_PODS)
                };
                audit(rng, dc, format!("dc{dc:02}.pod{pod:02}.*"))
            }
        }
        Kind::HotRegion => {
            if rng.pct(70) {
                let urgent = rng.pct(10);
                let scope = hot_scope(rng);
                write(rng, scope, urgent, serial, 40)
            } else {
                let pod = rng.below(4);
                audit(rng, 1, format!("dc01.pod{pod:02}.*"))
            }
        }
        Kind::PlannedRollout => {
            let free: Vec<u32> = (0..FABRIC_PODS)
                .filter(|p| !busy_pods.contains(p))
                .collect();
            let pod = free[rng.below(free.len() as u64) as usize];
            Job {
                spec: spec(
                    "planned_update",
                    rollout_scope(pod),
                    false,
                    &[
                        ("generation", format!("r{serial}")),
                        ("firmware", format!("fw-3.{serial}")),
                    ],
                ),
                class: Class::Write,
                pair_drain: false,
                pod: Some(pod),
            }
        }
    }
}

/// Scope of a planned update: the aggregation layer of one dc01 pod,
/// which cross-pod flows traverse.
pub fn rollout_scope(pod: u32) -> String {
    format!("dc01.pod{pod:02}.agg*")
}
