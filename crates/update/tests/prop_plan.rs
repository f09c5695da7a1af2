//! Property tests for the update planner (DESIGN.md §15).
//!
//! Four properties over randomly generated fabric-wide changes and
//! model states:
//!
//! - **Subset soundness** — the synthesizer model-checks each wave with
//!   *all* its devices drained / in flux, but physically a wave drains
//!   and rewrites devices one at a time. Every partially-drained and
//!   partially-rewritten intermediate state (any subset of the wave)
//!   must also satisfy the invariants, and every operation must appear
//!   in exactly one wave.
//! - **Abort-prefix grammar conformance** — a wave aborted after any
//!   step leaves an execution log that the rollback grammar (Table 1)
//!   parses, so a mechanical rollback plan always exists.
//! - **Determinism** — synthesis is a pure function of `(ops, seed)`,
//!   and plans under different seeds still verify clean.
//! - **Checker equivalence** — the memoized, bitmap-keyed [`Checker`]
//!   returns exactly the violations of a direct reference model that
//!   recomputes every path with `HashSet` lookups, on memo misses and
//!   memo hits alike.

use occam_netdb::{attrs, AttrValue, StoreSnapshot, WalRecord};
use occam_regex::Pattern;
use occam_rollback::{parse_log, LogEntry, OpStatus, OpType};
use occam_topology::{DeviceId, FatTree, LinkId, Role, Topology};
use occam_update::{
    diff, wave_steps, Checker, ModelState, StepKind, Synthesizer, TrafficClass, UpdateOp,
    Violation, ViolationKind, Wave,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn fabric() -> FatTree {
    FatTree::build(1, 4).expect("valid fat-tree arity")
}

/// Cross-pod classes covering every pod as an endpoint, so draining a
/// whole pod's aggregation layer is always a counterexample.
fn classes(ft: &FatTree) -> Vec<TrafficClass> {
    (0..3)
        .map(|p| {
            TrafficClass::pair(
                format!("pod{p}-pod{}", p + 1),
                ft.hosts[p][0][0],
                ft.hosts[p + 1][1][0],
                p as u64,
            )
        })
        .collect()
}

/// The switch inventory, all `ACTIVE` on the baseline firmware.
fn baseline(ft: &FatTree) -> Vec<WalRecord> {
    ft.topo
        .devices()
        .filter(|(_, d)| d.role != Role::Host)
        .map(|(_, d)| WalRecord::InsertDevice {
            name: d.name.clone(),
            attrs: vec![
                (attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into()),
                (attrs::FIRMWARE_VERSION.into(), "fw-1.0.0".into()),
            ],
        })
        .collect()
}

/// Builds the diff for a random change: a firmware push on the
/// mask-selected aggs and cores, a database-only generation bump on the
/// mask-selected ToRs.
fn ops_for_masks(ft: &FatTree, push_mask: u64, db_mask: u64) -> Vec<UpdateOp> {
    let base = baseline(ft);
    let old = StoreSnapshot::replay(&base);
    let mut records = base;
    let pushable: Vec<String> = ft
        .aggs
        .iter()
        .flatten()
        .chain(ft.cores.iter())
        .map(|id| ft.topo.device(*id).name.clone())
        .collect();
    for (i, name) in pushable.iter().enumerate() {
        if push_mask & (1 << (i % 64)) == 0 {
            continue;
        }
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_VERSION.into(),
            value: "fw-2.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: "CONFIG_VERSION".into(),
            value: "g2".into(),
        });
    }
    let tors: Vec<String> = ft
        .tors
        .iter()
        .flatten()
        .map(|id| ft.topo.device(*id).name.clone())
        .collect();
    for (i, name) in tors.iter().enumerate() {
        if db_mask & (1 << (i % 64)) == 0 {
            continue;
        }
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: "MGMT_GENERATION".into(),
            value: "g2".into(),
        });
    }
    diff(&old, &StoreSnapshot::replay(&records))
}

/// Expands one abstract wave step into the log entries the executor
/// writes for it (see `run_wave`: the drain barrier carries the
/// maintenance-status write, the undrain carries the restore).
fn entries_for(step: StepKind) -> Vec<LogEntry> {
    match step {
        StepKind::Drain => vec![
            LogEntry::ok(OpType::Drain, "apply(f_drain)"),
            LogEntry::ok(OpType::DbChange, "set(DEVICE_STATUS)"),
        ],
        StepKind::DbWrite => vec![LogEntry::ok(OpType::DbChange, "set(attr)")],
        StepKind::Push => vec![LogEntry::ok(OpType::PushCfg, "apply(f_push)")],
        StepKind::Undrain => vec![
            LogEntry::ok(OpType::Undrain, "apply(f_undrain)"),
            LogEntry::ok(OpType::DbChange, "set(DEVICE_STATUS)"),
        ],
    }
}

/// The full execution log of one wave.
fn wave_log(wave: &Wave) -> Vec<LogEntry> {
    wave_steps(wave).into_iter().flat_map(entries_for).collect()
}

/// The reference model: the checker's semantics computed directly, one
/// ECMP BFS per class per check with `HashSet` lookups per link and a
/// fresh regex scan for waypoint candidates. No memo, no bitmap.
fn reference_check(
    topo: &Topology,
    classes: &[TrafficClass],
    state: &ModelState,
) -> Vec<Violation> {
    classes
        .iter()
        .filter_map(|c| reference_check_class(topo, c, state))
        .collect()
}

fn reference_check_class(
    topo: &Topology,
    class: &TrafficClass,
    state: &ModelState,
) -> Option<Violation> {
    let fail = |kind| {
        Some(Violation {
            class: class.name.clone(),
            kind,
        })
    };
    let usable_device = |id: DeviceId| !state.drained.contains(&id);
    if !usable_device(class.src) || !usable_device(class.dst) {
        return fail(ViolationKind::NoPath);
    }
    let usable = |l: LinkId| {
        let link = topo.link(l);
        usable_device(link.a_end) && usable_device(link.z_end)
    };
    let path = match &class.waypoint {
        None => topo.ecmp_path(class.src, class.dst, class.hash, usable),
        Some(wp) => match reference_waypointed_path(topo, class, wp, &usable_device, usable) {
            Some(p) => Some(p),
            None => {
                return if topo
                    .ecmp_path(class.src, class.dst, class.hash, usable)
                    .is_some()
                {
                    fail(ViolationKind::WaypointMissed {
                        pattern: wp.source().to_string(),
                    })
                } else {
                    fail(ViolationKind::NoPath)
                };
            }
        },
    };
    let Some(path) = path else {
        return fail(ViolationKind::NoPath);
    };
    if let Some(d) = path
        .iter()
        .find(|d| state.in_flux.contains(d) && !state.drained.contains(d))
    {
        return fail(ViolationKind::Blackhole {
            device: topo.device(*d).name.clone(),
        });
    }
    let mut seen = HashSet::new();
    for pair in path.windows(2) {
        if !seen.insert((pair[0], pair[1])) {
            return fail(ViolationKind::Loop {
                device: topo.device(pair[0]).name.clone(),
            });
        }
    }
    None
}

fn reference_waypointed_path(
    topo: &Topology,
    class: &TrafficClass,
    wp: &Pattern,
    usable_device: &dyn Fn(DeviceId) -> bool,
    usable: impl Fn(LinkId) -> bool + Copy,
) -> Option<Vec<DeviceId>> {
    if let Some(direct) = topo.ecmp_path(class.src, class.dst, class.hash, usable) {
        if direct.iter().any(|d| wp.matches(&topo.device(*d).name)) {
            return Some(direct);
        }
    }
    let mut candidates: Vec<(String, DeviceId)> = topo
        .devices()
        .filter(|(id, d)| wp.matches(&d.name) && usable_device(*id))
        .map(|(id, d)| (d.name.clone(), id))
        .collect();
    candidates.sort();
    for (_, w) in candidates {
        let Some(head) = topo.ecmp_path(class.src, w, class.hash, usable) else {
            continue;
        };
        let Some(tail) = topo.ecmp_path(w, class.dst, class.hash, usable) else {
            continue;
        };
        let mut path = head;
        path.extend_from_slice(&tail[1..]);
        return Some(path);
    }
    None
}

/// Waypoint patterns for generated classes: a pod's aggs (a detour),
/// every core (usually on the natural path), and a name no device has.
const WAYPOINTS: [&str; 3] = [
    "dc01\\.pod00\\.agg0[01]",
    "dc01\\.core\\..*",
    "dc01\\.pod99\\.agg00",
];

/// Classes from generated `(src, dst, hash, waypoint)` picks: endpoints
/// are any devices (hosts and switches alike), a waypoint index past
/// the pattern list means a plain class.
fn generated_classes(topo: &Topology, picks: &[(u32, u32, u64, u8)]) -> Vec<TrafficClass> {
    let n = topo.num_devices() as u32;
    picks
        .iter()
        .enumerate()
        .map(|(i, &(src, dst, hash, wp))| TrafficClass {
            name: format!("g{i}"),
            src: DeviceId(src % n),
            dst: DeviceId(dst % n),
            hash,
            waypoint: WAYPOINTS
                .get(wp as usize % (WAYPOINTS.len() + 2))
                .map(|p| Pattern::new(p).expect("waypoint regex")),
        })
        .collect()
}

/// A model state from generated device ids. Ids run past the end of
/// both topologies (36 and 99 devices); those name no device and must
/// never change a verdict.
fn state_from(ids: &[u32], flux: &[u32]) -> ModelState {
    ModelState {
        drained: ids.iter().map(|&i| DeviceId(i)).collect(),
        in_flux: flux.iter().map(|&i| DeviceId(i)).collect(),
    }
}

proptest! {
    /// Every physical intermediate of every wave — any subset drained
    /// during the barrier, any subset rewritten during the push — holds
    /// the invariants, and the plan covers each op exactly once.
    #[test]
    fn plans_are_sound_under_partial_wave_states(
        push_mask in any::<u64>(),
        db_mask in any::<u64>(),
        seed in any::<u64>(),
        subset_mask in any::<u64>(),
    ) {
        let ft = fabric();
        let classes = classes(&ft);
        let ops = ops_for_masks(&ft, push_mask, db_mask);
        let synth = Synthesizer::new(&ft.topo, &classes).with_seed(seed);
        let plan = synth.synthesize(&ops).expect("feasible plan");
        prop_assert!(synth.verify(&plan).is_empty());

        // Coverage: every input op lands in exactly one wave.
        let mut planned: Vec<&str> = plan
            .waves
            .iter()
            .flat_map(|w| w.ops.iter().map(|o| o.device.as_str()))
            .collect();
        planned.sort_unstable();
        let mut wanted: Vec<&str> = ops.iter().map(|o| o.device.as_str()).collect();
        wanted.sort_unstable();
        prop_assert_eq!(planned, wanted);

        // Partial-state soundness, replayed on the verifier's model.
        let checker = Checker::new(&ft.topo, &classes);
        let mut model = ModelState::default();
        for wave in &plan.waves {
            let ids: Vec<_> = wave
                .ops
                .iter()
                .filter_map(|o| ft.topo.device_by_name(&o.device))
                .collect();
            let chosen: Vec<_> = ids
                .iter()
                .enumerate()
                .filter(|(i, _)| subset_mask & (1 << (i % 64)) != 0)
                .map(|(_, id)| *id)
                .collect();
            if wave.barrier {
                // Mid-drain: a subset is already routed around, nothing
                // is being rewritten yet.
                let mut mid = model.clone();
                mid.drained.extend(chosen.iter().copied());
                prop_assert!(checker.check(&mid).is_empty());
                // Mid-push: the whole wave is drained, a subset is being
                // rewritten.
                let mut mid = model.clone();
                mid.drained.extend(ids.iter().copied());
                mid.in_flux.extend(chosen.iter().copied());
                prop_assert!(checker.check(&mid).is_empty());
            }
            // Post-wave boundary: everything back in service.
            for (op, id) in wave.ops.iter().zip(&ids) {
                model.in_flux.remove(id);
                let parked = matches!(
                    op.target_status().and_then(AttrValue::as_str),
                    Some(attrs::STATUS_DRAINED) | Some(attrs::STATUS_UNDER_MAINTENANCE)
                );
                if parked {
                    model.drained.insert(*id);
                } else {
                    model.drained.remove(id);
                }
            }
            prop_assert!(checker.check(&model).is_empty());
        }
    }

    /// A wave aborted after any step leaves a log the rollback grammar
    /// parses — including with the final entry marked failed, which is
    /// the shape `into_report` hands to the rollback planner.
    #[test]
    fn every_abort_prefix_of_a_wave_log_parses(
        push_mask in any::<u64>(),
        db_mask in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let ft = fabric();
        let classes = classes(&ft);
        let ops = ops_for_masks(&ft, push_mask, db_mask);
        let plan = Synthesizer::new(&ft.topo, &classes)
            .with_seed(seed)
            .synthesize(&ops)
            .expect("feasible plan");
        for wave in &plan.waves {
            let log = wave_log(wave);
            prop_assert!(parse_log(&log).is_ok(), "complete log must parse");
            for cut in 1..=log.len() {
                let mut prefix: Vec<LogEntry> = log[..cut].to_vec();
                prop_assert!(
                    parse_log(&prefix).is_ok(),
                    "abort after entry {cut} of {:?} must parse",
                    wave_steps(wave)
                );
                prefix.last_mut().expect("non-empty").status = OpStatus::Failed;
                prop_assert!(
                    parse_log(&prefix).is_ok(),
                    "failure at entry {cut} of {:?} must parse",
                    wave_steps(wave)
                );
            }
        }
    }

    /// Synthesis is a pure function of `(ops, seed)`; any seed's plan
    /// verifies clean.
    #[test]
    fn plans_are_deterministic_per_seed(
        push_mask in any::<u64>(),
        db_mask in any::<u64>(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let ft = fabric();
        let classes = classes(&ft);
        let ops = ops_for_masks(&ft, push_mask, db_mask);
        let synth_a = Synthesizer::new(&ft.topo, &classes).with_seed(seed_a);
        let once = synth_a.synthesize(&ops).expect("feasible plan");
        let again = synth_a.synthesize(&ops).expect("feasible plan");
        prop_assert_eq!(&once, &again);
        let synth_b = Synthesizer::new(&ft.topo, &classes).with_seed(seed_b);
        let other = synth_b.synthesize(&ops).expect("feasible plan");
        prop_assert!(synth_b.verify(&other).is_empty());
        prop_assert_eq!(other.num_ops(), ops.len());
    }

    /// The memoized checker equals the reference model on random
    /// drained / in-flux subsets of k=4 and k=6 fat-trees, with plain
    /// and waypoint classes. Three states are checked in sequence (the
    /// second shares the first's drained set with a different in-flux
    /// set), then the whole sequence again: the repeat is answered from
    /// the memo and must not change a single violation.
    #[test]
    fn memoized_checker_equals_reference_model(
        k in prop::sample::select(vec![4u32, 6]),
        picks in prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), any::<u8>()),
            1..8,
        ),
        drained_a in prop::collection::vec(0u32..110, 0..10),
        drained_b in prop::collection::vec(0u32..110, 0..10),
        flux_a in prop::collection::vec(0u32..110, 0..10),
        flux_b in prop::collection::vec(0u32..110, 0..10),
    ) {
        let ft = FatTree::build(1, k).expect("valid fat-tree arity");
        let classes = generated_classes(&ft.topo, &picks);
        let states = [
            state_from(&drained_a, &flux_a),
            state_from(&drained_a, &flux_b),
            state_from(&drained_b, &flux_a),
        ];
        let checker = Checker::new(&ft.topo, &classes);
        for round in 0..2 {
            for (i, state) in states.iter().enumerate() {
                let expected = reference_check(&ft.topo, &classes, state);
                prop_assert_eq!(
                    checker.check(state),
                    expected,
                    "state {} on pass {}",
                    i,
                    round
                );
            }
        }
        // The second pass repeats every lookup of the first as a hit.
        prop_assert!(checker.path_hits() >= checker.path_misses());
    }
}
