//! Production-scale netdb benchmark: scoped-read throughput against the
//! sharded copy-on-write store with 0/1/4 concurrent writers, snapshot
//! latency vs. the deep-clone (materialize) baseline, and a
//! sharded-vs-naive replay equivalence gate. Writes `BENCH_netdb.json`.
//!
//! Full mode builds the paper's production simulation scale — 16 DCs ×
//! 96 pods × 92 switches ≈ 141k devices. `--smoke` runs a scaled-down
//! sweep and exits nonzero if the sharded replay diverges from the naive
//! replay, if a snapshot fails its self-check, or if snapshots are not
//! at least 10× faster than materializing — the CI regression gate for
//! the storage layer.
//!
//! Usage: `cargo run --release -p occam-bench --bin db_throughput [--smoke]`

use occam_netdb::{AttrValue, Database, Store, StoreSnapshot, WriteOp};
use occam_obs::Registry;
use occam_regex::Pattern;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct Scale {
    dcs: u32,
    pods: u32,
    switches: u32,
    read_millis: u64,
    snap_iters: u32,
}

const FULL: Scale = Scale {
    dcs: 16,
    pods: 96,
    switches: 92,
    read_millis: 1000,
    snap_iters: 2000,
};

const SMOKE: Scale = Scale {
    dcs: 2,
    pods: 8,
    switches: 12,
    read_millis: 120,
    snap_iters: 400,
};

/// Builds the deployment: one insert batch per pod.
fn seed(db: &Database, s: &Scale) -> usize {
    let mut n = 0;
    for dc in 0..s.dcs {
        for pod in 0..s.pods {
            let ops: Vec<WriteOp> = (0..s.switches)
                .map(|sw| WriteOp::InsertDevice {
                    name: format!("dc{:02}.pod{pod:02}.sw{sw:02}", dc + 1),
                    attrs: vec![
                        ("DEVICE_STATUS".into(), "ACTIVE".into()),
                        ("FIRMWARE_VERSION".into(), "fw-1.0.0".into()),
                    ],
                })
                .collect();
            n += ops.len();
            db.batch(&ops).expect("seed batch");
        }
    }
    n
}

/// Runs pod-scoped reads from one thread for `millis` while `writers`
/// threads commit scoped writes; returns (reads, read_secs, writes).
fn read_sweep(db: &Arc<Database>, s: &Scale, writers: usize) -> (u64, f64, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for w in 0..writers {
        let db = Arc::clone(db);
        let stop = Arc::clone(&stop);
        let writes = Arc::clone(&writes);
        // Each writer walks its own stride of pods in dc01; scope
        // patterns are compiled once so the loop measures commit cost.
        let scopes: Vec<Pattern> = (0..s.pods)
            .filter(|p| p % writers as u32 == w as u32)
            .map(|p| Pattern::from_glob(&format!("dc01.pod{p:02}.*")).unwrap())
            .collect();
        handles.push(std::thread::spawn(move || {
            let mut i = 0usize;
            let mut v = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let scope = &scopes[i % scopes.len()];
                db.set_attr(scope, "SWEEP", AttrValue::Int(v)).unwrap();
                writes.fetch_add(1, Ordering::Relaxed);
                i += 1;
                v += 1;
            }
        }));
    }
    // Reader: scoped select + attr fetch across pods in a different dc
    // (dc02 when it exists) so reads and writes hit disjoint shards the
    // way production scoping does, while *some* pods collide (dc01 when
    // dcs == 1 in degenerate configs).
    let read_dc = if s.dcs > 1 { 2 } else { 1 };
    let read_scopes: Vec<Pattern> = (0..s.pods)
        .map(|p| Pattern::from_glob(&format!("dc{read_dc:02}.pod{p:02}.*")).unwrap())
        .collect();
    let t0 = Instant::now();
    let mut reads = 0u64;
    let mut pod = 0usize;
    let deadline = std::time::Duration::from_millis(s.read_millis);
    while t0.elapsed() < deadline {
        let scope = &read_scopes[pod % read_scopes.len()];
        let names = db.select_devices(scope).unwrap();
        assert_eq!(names.len(), s.switches as usize, "scoped read lost rows");
        let attrs = db.get_attr(scope, "DEVICE_STATUS").unwrap();
        assert_eq!(attrs.len(), s.switches as usize);
        reads += 1;
        pod += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    (reads, secs, writes.load(Ordering::Relaxed))
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let s = if smoke { SMOKE } else { FULL };

    let reg = Registry::new();
    let db = Arc::new(Database::with_obs(&reg));
    // The equivalence gate replays the real history, so keep all of it.
    db.set_wal_floor(Some(0));
    let t0 = Instant::now();
    let devices = seed(&db, &s);
    let seed_secs = t0.elapsed().as_secs_f64();
    eprintln!("seeded {devices} devices in {seed_secs:.2}s");

    // Snapshot latency: O(1) Arc bump vs. the deep-clone baseline.
    let t0 = Instant::now();
    let mut last = db.snapshot();
    for _ in 1..s.snap_iters {
        last = db.snapshot();
    }
    let snap_ns = t0.elapsed().as_nanos() as f64 / f64::from(s.snap_iters);
    let clone_iters = if smoke { 5 } else { 3 };
    let t0 = Instant::now();
    let mut flat = last.materialize();
    for _ in 1..clone_iters {
        flat = last.materialize();
    }
    let clone_ns = t0.elapsed().as_nanos() as f64 / f64::from(clone_iters);
    let speedup = clone_ns / snap_ns;
    eprintln!(
        "snapshot {snap_ns:.0}ns vs deep-clone {clone_ns:.0}ns ({speedup:.0}x), {} devices",
        flat.devices.len()
    );

    // Read throughput with 0 / 1 / 4 concurrent writers.
    let mut sweeps = Vec::new();
    for writers in [0usize, 1, 4] {
        let (reads, secs, writes) = read_sweep(&db, &s, writers);
        let rps = reads as f64 / secs;
        eprintln!("writers={writers}: {rps:.0} scoped reads/s ({writes} commits alongside)");
        sweeps.push((writers, reads, secs, writes));
    }

    // Equivalence gate: sharded replay == naive replay == live state, and
    // the shard invariants hold. Any divergence is a hard failure.
    let records = db.wal_records();
    let sharded = StoreSnapshot::replay(&records);
    let naive = Store::replay(&records);
    let live = db.snapshot();
    let mut gate_failures = Vec::new();
    if sharded != naive {
        gate_failures.push("sharded replay diverged from naive replay");
    }
    if live != sharded {
        gate_failures.push("live state diverged from WAL replay");
    }
    if let Err(e) = live.self_check() {
        eprintln!("self-check: {e}");
        gate_failures.push("snapshot failed self-check");
    }
    if speedup < 10.0 {
        gate_failures.push("snapshot under 10x faster than deep-clone baseline");
    }

    let snap_hist = reg.histogram_snapshot("netdb.snapshot_ns");
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(out, "  \"devices\": {devices},");
    let _ = writeln!(out, "  \"seed_seconds\": {seed_secs:.3},");
    let _ = writeln!(out, "  \"snapshot\": {{");
    let _ = writeln!(out, "    \"mean_ns\": {snap_ns:.0},");
    if let Some(h) = &snap_hist {
        let _ = writeln!(out, "    \"obs_count\": {},", h.count);
        let _ = writeln!(out, "    \"obs_p50_ns\": {},", h.quantile(0.5));
        let _ = writeln!(out, "    \"obs_p99_ns\": {},", h.quantile(0.99));
    }
    let _ = writeln!(out, "    \"deep_clone_ns\": {clone_ns:.0},");
    let _ = writeln!(out, "    \"speedup\": {speedup:.1}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"read_sweeps\": [");
    for (i, (writers, reads, secs, writes)) in sweeps.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"writers\": {writers},");
        let _ = writeln!(out, "      \"scoped_reads\": {reads},");
        let _ = writeln!(out, "      \"seconds\": {secs:.3},");
        let _ = writeln!(out, "      \"reads_per_sec\": {:.0},", *reads as f64 / secs);
        let _ = writeln!(out, "      \"concurrent_commits\": {writes}");
        let _ = writeln!(out, "    }}{}", if i + 1 < sweeps.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"shard_commits\": {},",
        reg.counter_value("netdb.shard.commits")
    );
    let _ = writeln!(
        out,
        "  \"lock_free_reads\": {},",
        reg.counter_value("netdb.shard.read_lock_free")
    );
    let _ = writeln!(out, "  \"wal_records\": {},", records.len());
    let _ = writeln!(out, "  \"gate_failures\": {}", gate_failures.len());
    out.push_str("}\n");
    std::fs::write("BENCH_netdb.json", &out).expect("write BENCH_netdb.json");
    println!("wrote BENCH_netdb.json");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("GATE FAILURE: {f}");
        }
        std::process::exit(1);
    }
}
