//! The wave synthesizer: counterexample-guided search for a maximally
//! parallel, invariant-preserving update ordering.
//!
//! A [`Plan`] is a sequence of [`Wave`]s; each wave is a set of
//! device-disjoint operations that execute concurrently inside one
//! strict-2PL task. Waves whose operations push configuration carry a
//! **barrier**: the wave drains its devices, applies, and undrains, so
//! the mid-wave state routed around them is exactly what the
//! [`Checker`] verified.
//!
//! ## The search
//!
//! Operations are grouped by push signature (database-only first, then
//! one group per target firmware — a wave pushes one image, like a real
//! rollout ring), seeded-shuffled, and then batched greedily:
//!
//! 1. propose the whole remaining group as one wave;
//! 2. model-check the mid-wave state. Blackhole counterexamples mean the
//!    wave pushes while undrained → **insert a drain/undrain barrier**
//!    and re-check. Remaining counterexamples (no-path, waypoint)
//!    mean the wave drains too much at once → **split** the wave in two
//!    (even/odd positions of the shuffled order, so structurally
//!    adjacent devices — two aggs of one pod — separate quickly) and
//!    recurse on each half;
//! 3. model-check the post-wave boundary (the wave's admin-status
//!    targets applied), then commit it and advance the model.
//!
//! **Termination**: every recursion step strictly decreases wave size;
//! a single-operation wave either verifies or is reported
//! [`PlanError::Infeasible`] — the per-device fallback is the leaf of
//! the same recursion, so the search never loops (DESIGN.md §15.3).
//! Synthesis is deterministic per `(input, seed)`: the only randomness
//! is the seeded shuffle.

use crate::diff::UpdateOp;
use crate::invariant::{Checker, ModelState, TrafficClass, Violation, ViolationKind};
use crate::obs::UpdateObs;
use occam_netdb::attrs;
use occam_topology::{DeviceId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One parallel batch of device-disjoint operations.
#[derive(Clone, PartialEq, Debug)]
pub struct Wave {
    /// The operations, in deterministic (synthesis) order.
    pub ops: Vec<UpdateOp>,
    /// Whether the wave drains its devices for the duration of the
    /// apply (required by any configuration push).
    pub barrier: bool,
}

impl Wave {
    /// The devices this wave touches, in op order.
    pub fn devices(&self) -> Vec<&str> {
        self.ops.iter().map(|o| o.device.as_str()).collect()
    }

    /// The single firmware image this wave pushes, if any. Synthesis
    /// groups by target image, so a wave never pushes two.
    pub fn firmware(&self) -> Option<&str> {
        self.ops.iter().find_map(|o| o.firmware.as_deref())
    }

    /// Whether any operation in the wave needs a configuration push.
    pub fn needs_push(&self) -> bool {
        self.ops.iter().any(UpdateOp::needs_push)
    }
}

/// A synthesized update plan.
#[derive(Clone, PartialEq, Debug)]
pub struct Plan {
    /// The waves, in execution order.
    pub waves: Vec<Wave>,
    /// The seed the plan was synthesized under.
    pub seed: u64,
}

impl Plan {
    /// Total operations across all waves.
    pub fn num_ops(&self) -> usize {
        self.waves.iter().map(|w| w.ops.len()).sum()
    }

    /// Serial length — the number of waves (the quantity synthesis
    /// minimizes; naive per-device ordering has one wave per op).
    pub fn serial_len(&self) -> usize {
        self.waves.len()
    }
}

/// Counters describing one synthesis run. Deterministic per
/// `(input, seed)` — no wall-clock values (those go to the `update.*`
/// histograms instead).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SynthStats {
    /// Operations planned.
    pub ops: usize,
    /// Waves in the final plan.
    pub waves: usize,
    /// Model-check invocations.
    pub checks: u64,
    /// Wave splits forced by counterexamples.
    pub splits: u64,
    /// Drain/undrain barriers inserted.
    pub barriers: u64,
    /// Counterexample violations observed during the search.
    pub counterexamples: u64,
    /// Class path lookups the checker answered from its memo (the
    /// drained set was seen before in this run).
    pub path_hits: u64,
    /// Class path lookups that ran an ECMP BFS.
    pub path_misses: u64,
}

/// Synthesis failure: some single operation cannot be applied without
/// breaking an invariant, so no ordering exists.
#[derive(Clone, PartialEq, Debug)]
pub enum PlanError {
    /// The per-device fallback itself violates an invariant.
    Infeasible {
        /// The unplannable device.
        device: String,
        /// The violation a single-device wave still triggers.
        violation: Violation,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Infeasible { device, violation } => write!(
                f,
                "no consistent ordering exists: updating {device} alone still violates {violation}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// The planner: a checker plus search configuration.
pub struct Synthesizer<'a> {
    topo: &'a Topology,
    classes: &'a [TrafficClass],
    seed: u64,
    base: ModelState,
    obs: Option<UpdateObs>,
}

impl<'a> Synthesizer<'a> {
    /// A synthesizer over `topo` preserving `classes`, with seed 0 and
    /// an empty base state (nothing pre-drained).
    pub fn new(topo: &'a Topology, classes: &'a [TrafficClass]) -> Synthesizer<'a> {
        Synthesizer {
            topo,
            classes,
            seed: 0,
            base: ModelState::default(),
            obs: None,
        }
    }

    /// Sets the shuffle seed. Plans are deterministic per seed.
    pub fn with_seed(mut self, seed: u64) -> Synthesizer<'a> {
        self.seed = seed;
        self
    }

    /// Sets the starting model state (devices already drained in the
    /// current config).
    pub fn with_base(mut self, base: ModelState) -> Synthesizer<'a> {
        self.base = base;
        self
    }

    /// Records synthesis counters and timings into `obs`.
    pub fn with_obs(mut self, obs: &UpdateObs) -> Synthesizer<'a> {
        self.obs = Some(obs.clone());
        self
    }

    /// Synthesizes a plan for `ops`.
    pub fn synthesize(&self, ops: &[UpdateOp]) -> Result<Plan, PlanError> {
        self.synthesize_with_stats(ops).map(|(p, _)| p)
    }

    /// Synthesizes a plan and reports the search counters.
    pub fn synthesize_with_stats(&self, ops: &[UpdateOp]) -> Result<(Plan, SynthStats), PlanError> {
        let started = std::time::Instant::now();
        let checker = Checker::new(self.topo, self.classes);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut stats = SynthStats {
            ops: ops.len(),
            ..SynthStats::default()
        };
        let mut model = self.base.clone();
        let mut waves = Vec::new();

        for group in group_by_signature(ops) {
            let mut order = group;
            shuffle(&mut order, &mut rng);
            let mut pending = vec![order];
            while let Some(batch) = pending.pop() {
                match self.try_wave(&checker, &mut model, &batch, &mut stats)? {
                    Some(wave) => waves.push(wave),
                    None => {
                        stats.splits += 1;
                        let (even, odd) = split_interleaved(batch);
                        // Stack is LIFO: push the second half first so
                        // the first half executes first.
                        pending.push(odd);
                        pending.push(even);
                    }
                }
            }
        }

        stats.waves = waves.len();
        stats.path_hits = checker.path_hits();
        stats.path_misses = checker.path_misses();
        if let Some(obs) = &self.obs {
            obs.synth_plans.inc();
            obs.diff_ops.add(stats.ops as u64);
            obs.synth_waves.add(stats.waves as u64);
            obs.synth_checks.add(stats.checks);
            obs.synth_splits.add(stats.splits);
            obs.synth_barriers.add(stats.barriers);
            obs.synth_counterexamples.add(stats.counterexamples);
            obs.synth_ns.record_duration(started.elapsed());
        }
        Ok((
            Plan {
                waves,
                seed: self.seed,
            },
            stats,
        ))
    }

    /// Tries `batch` as one wave against the current model. On success
    /// advances the model past the wave's boundary and returns it; on a
    /// splittable counterexample returns `None`; on a single-op
    /// counterexample reports infeasibility.
    fn try_wave(
        &self,
        checker: &Checker<'_>,
        model: &mut ModelState,
        batch: &[UpdateOp],
        stats: &mut SynthStats,
    ) -> Result<Option<Wave>, PlanError> {
        let devices: Vec<Option<DeviceId>> = batch
            .iter()
            .map(|o| self.topo.device_by_name(&o.device))
            .collect();
        let pushes = batch.iter().any(UpdateOp::needs_push);

        // Mid-wave state, first without a barrier: pushed devices are
        // rewriting their config while still in the forwarding plane.
        let mut mid = model.clone();
        for (op, id) in batch.iter().zip(&devices) {
            if let (true, Some(id)) = (op.needs_push(), id) {
                mid.in_flux.insert(*id);
            }
        }
        stats.checks += 1;
        let mut violations = checker.check(&mid);
        stats.counterexamples += violations.len() as u64;
        let mut barrier = false;
        if pushes
            && violations
                .iter()
                .any(|v| matches!(v.kind, ViolationKind::Blackhole { .. }))
        {
            // The counterexample says the wave black-holes: insert the
            // drain/undrain barrier and re-check with the wave routed
            // around.
            barrier = true;
            stats.barriers += 1;
            for id in devices.iter().flatten() {
                mid.drained.insert(*id);
            }
            stats.checks += 1;
            violations = checker.check(&mid);
            stats.counterexamples += violations.len() as u64;
        }

        if violations.is_empty() {
            // The mid-wave state is safe; now the post-wave boundary.
            let mut boundary = model.clone();
            apply_boundary(&mut boundary, batch, &devices);
            stats.checks += 1;
            let boundary_violations = checker.check(&boundary);
            stats.counterexamples += boundary_violations.len() as u64;
            match boundary_violations.into_iter().next() {
                None => {
                    *model = boundary;
                    return Ok(Some(Wave {
                        ops: batch.to_vec(),
                        barrier: barrier || pushes,
                    }));
                }
                Some(v) if batch.len() == 1 => {
                    return Err(PlanError::Infeasible {
                        device: batch[0].device.clone(),
                        violation: v,
                    });
                }
                Some(_) => return Ok(None),
            }
        }
        if batch.len() == 1 {
            return Err(PlanError::Infeasible {
                device: batch[0].device.clone(),
                violation: violations.remove(0),
            });
        }
        Ok(None)
    }

    /// The naive per-device fallback ordering: one wave per operation,
    /// barriered when the op pushes. This is the sequential baseline the
    /// bench compares against (and the leaf shape the search degrades to
    /// under maximally hostile invariants).
    pub fn naive(ops: &[UpdateOp]) -> Plan {
        Plan {
            waves: ops
                .iter()
                .map(|o| Wave {
                    ops: vec![o.clone()],
                    barrier: o.needs_push(),
                })
                .collect(),
            seed: 0,
        }
    }

    /// Re-checks every intermediate state a plan publishes — each wave's
    /// mid-wave state and each post-wave boundary — and returns all
    /// violations. A plan this synthesizer produced verifies clean; the
    /// bench and the chaos phase use this as the independent judge.
    pub fn verify(&self, plan: &Plan) -> Vec<Violation> {
        let started = std::time::Instant::now();
        let checker = Checker::new(self.topo, self.classes);
        let mut model = self.base.clone();
        let mut all = Vec::new();
        for wave in &plan.waves {
            let devices: Vec<Option<DeviceId>> = wave
                .ops
                .iter()
                .map(|o| self.topo.device_by_name(&o.device))
                .collect();
            let mut mid = model.clone();
            for (op, id) in wave.ops.iter().zip(&devices) {
                if let Some(id) = id {
                    if wave.barrier {
                        mid.drained.insert(*id);
                    }
                    if op.needs_push() {
                        mid.in_flux.insert(*id);
                    }
                }
            }
            all.extend(checker.check(&mid));
            apply_boundary(&mut model, &wave.ops, &devices);
            all.extend(checker.check(&model));
        }
        if let Some(obs) = &self.obs {
            obs.verify_ns.record_duration(started.elapsed());
            obs.verify_violations.add(all.len() as u64);
        }
        all
    }
}

/// Advances the model past a committed wave: devices end at their
/// explicit admin-status target, or active when the op sets none (the
/// executor restores `STATUS_ACTIVE` after undraining).
fn apply_boundary(model: &mut ModelState, ops: &[UpdateOp], devices: &[Option<DeviceId>]) {
    for (op, id) in ops.iter().zip(devices) {
        let Some(id) = id else { continue };
        model.in_flux.remove(id);
        let parked = matches!(
            op.target_status().and_then(|v| v.as_str()),
            Some(attrs::STATUS_DRAINED) | Some(attrs::STATUS_UNDER_MAINTENANCE)
        );
        if parked {
            model.drained.insert(*id);
        } else {
            model.drained.remove(id);
        }
    }
}

/// Groups ops by push signature: database-only ops first, then one group
/// per target firmware (BTreeMap keeps group order deterministic).
fn group_by_signature(ops: &[UpdateOp]) -> Vec<Vec<UpdateOp>> {
    let mut db_only = Vec::new();
    let mut pushed: BTreeMap<String, Vec<UpdateOp>> = BTreeMap::new();
    for op in ops {
        if op.needs_push() {
            pushed
                .entry(op.firmware.clone().unwrap_or_default())
                .or_default()
                .push(op.clone());
        } else {
            db_only.push(op.clone());
        }
    }
    let mut groups = Vec::new();
    if !db_only.is_empty() {
        groups.push(db_only);
    }
    groups.extend(pushed.into_values());
    groups
}

/// Seeded Fisher–Yates (the rand shim has no `shuffle`).
fn shuffle(ops: &mut [UpdateOp], rng: &mut StdRng) {
    for i in (1..ops.len()).rev() {
        let j = rng.random_range(0usize..=i);
        ops.swap(i, j);
    }
}

/// Splits a batch into its even- and odd-indexed halves. On a shuffled
/// order this separates structurally adjacent devices (the two aggs of
/// one pod) with high probability per round.
fn split_interleaved(batch: Vec<UpdateOp>) -> (Vec<UpdateOp>, Vec<UpdateOp>) {
    let mut even = Vec::with_capacity(batch.len().div_ceil(2));
    let mut odd = Vec::with_capacity(batch.len() / 2);
    for (i, op) in batch.into_iter().enumerate() {
        if i % 2 == 0 {
            even.push(op);
        } else {
            odd.push(op);
        }
    }
    (even, odd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::TrafficClass;
    use occam_netdb::AttrValue;
    use occam_topology::FatTree;
    use std::collections::HashSet;

    fn push_op(device: &str, fw: &str) -> UpdateOp {
        UpdateOp {
            device: device.into(),
            sets: vec![(attrs::FIRMWARE_VERSION.into(), AttrValue::from(fw))],
            firmware: Some(fw.into()),
        }
    }

    fn db_op(device: &str) -> UpdateOp {
        UpdateOp {
            device: device.into(),
            sets: vec![("SNMP_COMMUNITY".into(), AttrValue::from("v2"))],
            firmware: None,
        }
    }

    fn host_classes(ft: &FatTree) -> Vec<TrafficClass> {
        let mut cls = Vec::new();
        for p in 0..ft.k as usize {
            for t in 0..2usize {
                cls.push(TrafficClass::pair(
                    format!("c{p}-{t}"),
                    ft.hosts[p][t][0],
                    ft.hosts[(p + 1) % ft.k as usize][t][1],
                    (p * 2 + t) as u64,
                ));
            }
        }
        cls
    }

    /// Fabric upgrade: pushes to every agg and core. The planner must
    /// keep at least one agg per pod and one usable core path up at all
    /// times, and still beat per-device ordering by ≥2×.
    #[test]
    fn fabric_upgrade_parallelizes_and_verifies() {
        let ft = FatTree::build(1, 4).expect("k=4");
        let cls = host_classes(&ft);
        let mut ops = Vec::new();
        for pod in &ft.aggs {
            for &a in pod {
                ops.push(push_op(&ft.topo.device(a).name, "fw-2"));
            }
        }
        for &c in &ft.cores {
            ops.push(push_op(&ft.topo.device(c).name, "fw-2"));
        }
        let synth = Synthesizer::new(&ft.topo, &cls).with_seed(42);
        let (plan, stats) = synth.synthesize_with_stats(&ops).expect("plannable");
        assert_eq!(plan.num_ops(), ops.len());
        assert!(synth.verify(&plan).is_empty(), "synthesized plan verifies");
        assert!(
            plan.serial_len() * 2 <= Synthesizer::naive(&ops).serial_len(),
            "{} waves for {} ops is not ≥2× parallel",
            plan.serial_len(),
            ops.len()
        );
        assert!(stats.checks > 0 && stats.barriers > 0);
        // Every wave pushes, so every wave is barriered.
        assert!(plan.waves.iter().all(|w| w.barrier));
    }

    #[test]
    fn db_only_ops_fit_one_unbarriered_wave() {
        let ft = FatTree::build(1, 4).expect("k=4");
        let cls = host_classes(&ft);
        let ops: Vec<UpdateOp> = ft
            .tors
            .iter()
            .flatten()
            .map(|&t| db_op(&ft.topo.device(t).name))
            .collect();
        let plan = Synthesizer::new(&ft.topo, &cls)
            .synthesize(&ops)
            .expect("plannable");
        assert_eq!(plan.serial_len(), 1);
        assert!(!plan.waves[0].barrier);
    }

    #[test]
    fn deterministic_per_seed_and_seed_sensitive() {
        let ft = FatTree::build(1, 4).expect("k=4");
        let cls = host_classes(&ft);
        let ops: Vec<UpdateOp> = ft
            .aggs
            .iter()
            .flatten()
            .chain(ft.cores.iter())
            .map(|&d| push_op(&ft.topo.device(d).name, "fw-2"))
            .collect();
        let a = Synthesizer::new(&ft.topo, &cls)
            .with_seed(7)
            .synthesize(&ops)
            .expect("plan");
        let b = Synthesizer::new(&ft.topo, &cls)
            .with_seed(7)
            .synthesize(&ops)
            .expect("plan");
        assert_eq!(a, b);
    }

    #[test]
    fn two_firmware_targets_never_share_a_wave() {
        let ft = FatTree::build(1, 4).expect("k=4");
        let mut ops = Vec::new();
        for (i, pod) in ft.aggs.iter().enumerate() {
            let fw = if i % 2 == 0 { "fw-a" } else { "fw-b" };
            for &a in pod {
                ops.push(push_op(&ft.topo.device(a).name, fw));
            }
        }
        let cls = host_classes(&ft);
        let plan = Synthesizer::new(&ft.topo, &cls)
            .synthesize(&ops)
            .expect("plan");
        for wave in &plan.waves {
            let images: HashSet<_> = wave.ops.iter().filter_map(|o| o.firmware.clone()).collect();
            assert!(images.len() <= 1, "wave mixes firmware images: {images:?}");
        }
    }

    /// A class whose only waypoints are being upgraded: the planner must
    /// split the waypoint devices across waves.
    #[test]
    fn waypoints_are_kept_alive_across_waves() {
        let ft = FatTree::build(1, 4).expect("k=4");
        let wp = occam_regex::Pattern::new("dc01\\.pod00\\.agg0[01]").expect("regex");
        let mut cls = host_classes(&ft);
        cls.push(TrafficClass {
            name: "inspected".into(),
            src: ft.hosts[1][0][0],
            dst: ft.hosts[2][0][0],
            hash: 99,
            waypoint: Some(wp),
        });
        let ops: Vec<UpdateOp> = ft.aggs[0]
            .iter()
            .map(|&a| push_op(&ft.topo.device(a).name, "fw-2"))
            .collect();
        let synth = Synthesizer::new(&ft.topo, &cls).with_seed(3);
        let plan = synth.synthesize(&ops).expect("plan");
        assert!(plan.serial_len() >= 2, "both inspection aggs in one wave");
        assert!(synth.verify(&plan).is_empty());
    }

    /// An isolated device (every path to a class endpoint through it):
    /// no ordering exists and the planner says so instead of looping.
    #[test]
    fn infeasible_update_is_reported_not_looped() {
        let ft = FatTree::build(1, 4).expect("k=4");
        // A class terminating at a ToR, then push to that very ToR: the
        // endpoint is drained by its own barrier in every ordering.
        let cls = vec![TrafficClass::pair(
            "to-tor",
            ft.hosts[0][0][0],
            ft.tors[1][0],
            5,
        )];
        let ops = vec![push_op(&ft.topo.device(ft.tors[1][0]).name, "fw-2")];
        let err = Synthesizer::new(&ft.topo, &cls)
            .synthesize(&ops)
            .expect_err("no consistent ordering exists");
        let PlanError::Infeasible { device, .. } = err;
        assert_eq!(device, ft.topo.device(ft.tors[1][0]).name);
    }

    #[test]
    fn ops_on_devices_outside_the_topology_are_unconstrained() {
        let ft = FatTree::build(1, 4).expect("k=4");
        let cls = host_classes(&ft);
        let ops = vec![
            push_op("dc09.pod00.tor00", "fw-2"),
            db_op("dc09.pod00.tor01"),
        ];
        let plan = Synthesizer::new(&ft.topo, &cls)
            .synthesize(&ops)
            .expect("plan");
        assert_eq!(plan.num_ops(), 2);
    }
}
