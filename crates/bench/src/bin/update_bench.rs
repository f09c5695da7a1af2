//! Consistent-update synthesis bench (DESIGN.md §15).
//!
//! Plans one fabric-wide change over a single production-scale fat-tree:
//! a firmware push on every aggregation and core switch plus a
//! database-only generation bump on every ToR. Measures the three
//! planner phases — config diff, counterexample-guided wave synthesis,
//! independent plan verification — and compares the synthesized plan's
//! serial length against the naive one-device-per-wave ordering.
//!
//! Hard gates (both modes, process exits non-zero otherwise):
//!
//! - independent verification finds **zero** violations in the plan;
//! - the naive ordering needs at least **2×** as many serial waves as
//!   the synthesized plan;
//! - the checker's path memo answered at least one lookup
//!   (`path_hits > 0`), so it cannot be bypassed silently;
//! - the search counters (waves, checks, splits, barriers,
//!   counterexamples) equal the pinned values for this input and seed:
//!   the checker may get faster, but the search must not change.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p occam-bench --bin update_bench
//! # full scale: k=82 fat-tree, 146,247 devices (8,405 switches)
//!
//! cargo run --release -p occam-bench --bin update_bench -- --smoke
//! # CI smoke: k=8 fat-tree, same gates
//! ```

use occam::netdb::{attrs, StoreSnapshot, WalRecord};
use occam::regex::Pattern;
use occam::topology::{FatTree, Role};
use occam::update::{diff, Synthesizer, TrafficClass};
use std::fmt::Write as _;
use std::time::Instant;

/// Replays the fabric's switch inventory into a scratch store: every
/// non-host device `ACTIVE` on the baseline firmware.
fn baseline_records(ft: &FatTree) -> Vec<WalRecord> {
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let k: u32 = if smoke { 8 } else { 82 };
    let ft = FatTree::build(1, k).expect("valid fat-tree arity");
    let devices = ft.topo.devices().count();
    let switches = ft
        .topo
        .devices()
        .filter(|(_, d)| d.role != Role::Host)
        .count();
    eprintln!("fat-tree k={k}: {devices} devices, {switches} switches");

    // Current config, and the target: new firmware on every agg and
    // core, a database-only generation bump on every ToR.
    let base = baseline_records(&ft);
    let old = StoreSnapshot::replay(&base);
    let agg_scope = Pattern::from_glob("dc01.pod*.agg*").expect("glob");
    let core_scope = Pattern::from_glob("dc01.core.*").expect("glob");
    let mut records = base.clone();
    let fw_targets: Vec<String> = old
        .select_devices(&agg_scope)
        .into_iter()
        .chain(old.select_devices(&core_scope))
        .collect();
    for name in fw_targets {
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_VERSION.into(),
            value: "fw-2.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_BINARY.into(),
            value: "img-fw-2.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name,
            attr: "CONFIG_VERSION".into(),
            value: "g2".into(),
        });
    }
    let tor_scope = Pattern::from_glob("dc01.pod*.tor*").expect("glob");
    for name in old.select_devices(&tor_scope) {
        records.push(WalRecord::SetDeviceAttr {
            name,
            attr: "MGMT_GENERATION".into(),
            value: "g2".into(),
        });
    }
    let target = StoreSnapshot::replay(&records);

    // Search counters of the seed-42 plan for this input, pinned as
    // (waves, checks, splits, barriers, counterexamples).
    let expected_search: (usize, u64, u64, u64, u64) = if smoke {
        (4, 15, 2, 5, 46)
    } else {
        (3, 10, 1, 3, 28)
    };

    let started = Instant::now();
    let ops = diff(&old, &target);
    let diff_ms = started.elapsed().as_secs_f64() * 1e3;
    let naive_waves = ops.len();
    eprintln!("diff: {naive_waves} ops in {diff_ms:.1} ms");

    // Cross-pod traffic classes pin ECMP paths through the upgraded
    // aggs and cores, so the planner must stagger the drains.
    let pods = ft.aggs.len();
    let classes: Vec<TrafficClass> = (0..pods.min(8))
        .map(|p| {
            let q = (p + 1) % pods;
            TrafficClass::pair(
                format!("pod{p}-pod{q}"),
                ft.hosts[p][0][0],
                ft.hosts[q][1][0],
                p as u64,
            )
        })
        .collect();

    let synth = Synthesizer::new(&ft.topo, &classes).with_seed(42);
    let started = Instant::now();
    let (plan, stats) = synth.synthesize_with_stats(&ops).expect("feasible plan");
    let synth_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let violations = synth.verify(&plan);
    let verify_ms = started.elapsed().as_secs_f64() * 1e3;
    let reduction = naive_waves as f64 / plan.serial_len().max(1) as f64;
    eprintln!(
        "synthesized {} waves for {} ops in {synth_ms:.1} ms \
         ({} checks, {} splits, {} barriers, {}/{} path memo hits); \
         verified in {verify_ms:.1} ms, {} violations; \
         naive ordering {naive_waves} waves ({reduction:.0}x reduction)",
        plan.serial_len(),
        stats.ops,
        stats.checks,
        stats.splits,
        stats.barriers,
        stats.path_hits,
        stats.path_hits + stats.path_misses,
        violations.len(),
    );

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"bench\":\"update_bench\",\"smoke\":{smoke},\"k\":{k},\
         \"devices\":{devices},\"switches\":{switches},\
         \"classes\":{},\"ops\":{},\"synth_waves\":{},\"naive_waves\":{naive_waves},\
         \"wave_reduction\":{reduction:.2},\"checks\":{},\"splits\":{},\
         \"barriers\":{},\"counterexamples\":{},\"path_hits\":{},\
         \"path_misses\":{},\"diff_ms\":{diff_ms:.3},\
         \"synth_ms\":{synth_ms:.3},\"verify_ms\":{verify_ms:.3},\
         \"verify_violations\":{}}}",
        classes.len(),
        stats.ops,
        plan.serial_len(),
        stats.checks,
        stats.splits,
        stats.barriers,
        stats.counterexamples,
        stats.path_hits,
        stats.path_misses,
        violations.len(),
    );
    std::fs::write("BENCH_update.json", &json).expect("write BENCH_update.json");
    println!("wrote BENCH_update.json");

    if !violations.is_empty() {
        eprintln!("FAIL: synthesized plan failed verification: {violations:?}");
        std::process::exit(1);
    }
    if naive_waves < 2 * plan.serial_len() {
        eprintln!(
            "FAIL: expected >=2x fewer serial waves than naive ({} vs {naive_waves})",
            plan.serial_len()
        );
        std::process::exit(1);
    }
    if stats.path_hits == 0 {
        eprintln!("FAIL: the checker's path memo answered no lookup");
        std::process::exit(1);
    }
    let search = (
        plan.serial_len(),
        stats.checks,
        stats.splits,
        stats.barriers,
        stats.counterexamples,
    );
    if search != expected_search {
        eprintln!(
            "FAIL: search counters (waves, checks, splits, barriers, counterexamples) \
             {search:?}, expected {expected_search:?}"
        );
        std::process::exit(1);
    }
    println!(
        "gates hold: zero violations, {reduction:.0}x fewer serial waves than naive ordering, \
         {} path memo hits, search counters as pinned",
        stats.path_hits
    );
}
