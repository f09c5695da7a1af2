//! Per-layer metrics read from outside the program: deltas of its
//! existing `occam-obs` instruments between two registry snapshots,
//! plus the benchmark's own client and device-call timings.

use occam::obs::{HistogramSnapshot, Registry};
use std::collections::BTreeMap;

/// Every counter and histogram of a registry at one instant.
#[derive(Clone, Default)]
pub struct RegSnap {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegSnap {
    pub fn take(reg: &Registry) -> RegSnap {
        RegSnap {
            counters: reg.counters().into_iter().collect(),
            histograms: reg.histograms().into_iter().collect(),
        }
    }
}

/// Accumulated instrument deltas over one or more measured windows.
#[derive(Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Delta {
    /// Adds the change from `before` to `after`.
    pub fn add(&mut self, before: &RegSnap, after: &RegSnap) {
        for (name, &v) in &after.counters {
            let d = v - before.counters.get(name).copied().unwrap_or(0);
            *self.counters.entry(name.clone()).or_insert(0) += d;
        }
        for (name, h) in &after.histograms {
            let acc = self
                .histograms
                .entry(name.clone())
                .or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    buckets: vec![0; h.buckets.len()],
                });
            let b = before.histograms.get(name);
            acc.count += h.count - b.map_or(0, |b| b.count);
            acc.sum += h.sum - b.map_or(0, |b| b.sum);
            // Bucket deltas are exact; the window's true maximum is not
            // kept by the registry, so quantiles clamp to the lifetime
            // maximum.
            acc.max = acc.max.max(h.max);
            for (i, n) in h.buckets.iter().enumerate() {
                acc.buckets[i] += n - b.map_or(0, |b| b.buckets[i]);
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.count)
    }

    /// Exact sum of the samples recorded in the window.
    pub fn sum(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.sum)
    }

    /// Exact mean (`sum / count`), 0 when nothing was recorded.
    pub fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name) as f64, self.count(name) as f64)
    }

    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.quantile(q))
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// What the benchmark measured itself over the traced windows.
#[derive(Default)]
pub struct ClientSide {
    /// Gateway tasks that reached a terminal phase.
    pub tasks: u64,
    /// SUBMIT batches and their summed round-trip time.
    pub submit_batches: u64,
    pub submit_rtt_ns: u64,
    /// SUBMIT replies, and how many of them were `Busy`.
    pub submit_replies: u64,
    pub busy_replies: u64,
    /// STATUS rounds and their summed round-trip time.
    pub status_rounds: u64,
    pub status_rtt_ns: u64,
    /// Wall time of the traced windows.
    pub wall_ns: u64,
    /// Device calls, their summed time and their p99.
    pub device_calls: u64,
    pub device_ns: u64,
    pub device_p99_ns: u64,
    /// Planned-update tasks among `tasks`.
    pub update_tasks: u64,
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Computes every per-layer metric and the attribution table.
pub fn per_layer(d: &Delta, c: &ClientSide, leader_only: bool) -> Vec<Metric> {
    let us = |ns: f64| ns / 1e3;
    let tasks = c.tasks as f64;
    let per_task = |n: u64| ratio(n as f64, tasks);
    let completed_attempts = d.counter("core.tasks.completed") + d.counter("core.tasks.aborted");
    let occ_commits = d.counter("core.occ.commits");
    let occ_aborts = d.counter("core.occ.aborts");
    let occ_fallbacks = d.counter("core.occ.fallbacks");
    let relate_hits = d.counter("objtree.relate_cache.hits");
    let relate_misses = d.counter("objtree.relate_cache.misses");
    let view_hits = d.counter("netdb.view.hits");
    let view_dirty = d.counter("netdb.view.dirty_shards");
    let reads_leader = d.counter("netdb.repl.reads.leader");
    let reads_follower = d.counter("netdb.repl.reads.follower");
    let leader_read_frac = if leader_only {
        1.0
    } else {
        ratio(reads_leader as f64, (reads_leader + reads_follower) as f64)
    };

    // Planned-update decomposition, per planned-update task.
    let update_tasks = c.update_tasks as f64;
    let synth = d.sum("update.synth_ns") + d.sum("update.verify_ns");
    let waves = d.sum("update.exec.wave_ns");
    let update_unattributed = if c.update_tasks == 0 {
        0.0
    } else {
        // Outer planned-update tasks are the ones whose wall is not a
        // wave: the gateway's e2e minus its queue wait covers them.
        let wall = d.sum("gateway.e2e_ns") - d.sum("gateway.queue_wait_ns");
        ratio(
            wall as f64 - synth as f64 - waves as f64 - d.sum("spec.compile_ns") as f64,
            update_tasks,
        )
    };

    // Attribution of the mean server-side latency (gateway.e2e_ns).
    let e2e_sum = d.sum("gateway.e2e_ns") as f64;
    let frac = |ns: u64| ratio(ns as f64, e2e_sum);
    let parts = [
        ("attrib.queue_frac", frac(d.sum("gateway.queue_wait_ns"))),
        ("attrib.spec_frac", frac(d.sum("spec.compile_ns"))),
        ("attrib.lock_frac", frac(d.sum("core.lock_wait_ns"))),
        ("attrib.netdb_frac", frac(d.sum("netdb.query_ns"))),
        ("attrib.device_frac", frac(c.device_ns)),
        ("attrib.update_frac", frac(synth)),
    ];
    let residual = 1.0 - parts.iter().map(|(_, f)| f).sum::<f64>();

    let mut m: Vec<Metric> = vec![
        (
            "gateway.submit_rtt_us",
            us(ratio(c.submit_rtt_ns as f64, c.submit_batches as f64)),
            "us",
        ),
        (
            "gateway.status_rtt_us",
            us(ratio(c.status_rtt_ns as f64, c.status_rounds as f64)),
            "us",
        ),
        (
            "gateway.queue_wait_us",
            us(d.mean("gateway.queue_wait_ns")),
            "us",
        ),
        (
            "gateway.busy_frac",
            ratio(c.busy_replies as f64, c.submit_replies as f64),
            "fraction",
        ),
        ("gateway.e2e_us", us(d.mean("gateway.e2e_ns")), "us"),
        ("spec.compile_us", us(d.mean("spec.compile_ns")), "us"),
        ("core.task_wall_us", us(d.mean("core.task_wall_ns")), "us"),
        (
            "core.lock_wait_us",
            us(ratio(d.sum("core.lock_wait_ns") as f64, tasks)),
            "us",
        ),
        (
            "core.lock_wait_p99_us",
            us(d.quantile("core.lock_wait_ns", 0.99) as f64),
            "us",
        ),
        (
            "core.retries_per_task",
            per_task(d.counter("core.task.retries")),
            "count",
        ),
        (
            "core.attempts_per_task",
            per_task(completed_attempts),
            "count",
        ),
        (
            "core.occ.abort_frac",
            ratio(occ_aborts as f64, (occ_commits + occ_aborts) as f64),
            "fraction",
        ),
        (
            "core.occ.fallback_frac",
            ratio(occ_fallbacks as f64, (occ_commits + occ_fallbacks) as f64),
            "fraction",
        ),
        (
            "core.occ.validate_us",
            us(d.mean("core.occ.validate_ns")),
            "us",
        ),
        ("objtree.insert_us", us(d.mean("objtree.insert_ns")), "us"),
        (
            "objtree.relate_hit_ratio",
            ratio(relate_hits as f64, (relate_hits + relate_misses) as f64),
            "fraction",
        ),
        (
            "sched.invocation_us",
            us(d.mean("sched.invocation_ns")),
            "us",
        ),
        (
            "sched.grants_per_invocation",
            ratio(
                d.counter("sched.grants") as f64,
                d.counter("sched.invocations") as f64,
            ),
            "count",
        ),
        ("netdb.query_us", us(d.mean("netdb.query_ns")), "us"),
        (
            "netdb.queries_per_task",
            per_task(d.counter("netdb.queries")),
            "count",
        ),
        (
            "netdb.wal.append_us",
            us(d.mean("netdb.wal.append_ns")),
            "us",
        ),
        (
            "netdb.wal.records_per_task",
            per_task(d.counter("netdb.wal.records")),
            "count",
        ),
        (
            "netdb.shard.commits_per_task",
            per_task(d.counter("netdb.shard.commits")),
            "count",
        ),
        (
            "netdb.view.hit_ratio",
            ratio(view_hits as f64, (view_hits + view_dirty) as f64),
            "fraction",
        ),
        ("netdb.repl.lag_us", us(d.mean("netdb.repl.lag_ns")), "us"),
        ("netdb.repl.leader_read_frac", leader_read_frac, "fraction"),
        ("emunet.calls_per_task", per_task(c.device_calls), "count"),
        (
            "emunet.call_us",
            us(ratio(c.device_ns as f64, c.device_calls as f64)),
            "us",
        ),
        ("emunet.call_p99_us", us(c.device_p99_ns as f64), "us"),
        (
            "emunet.busy_frac",
            ratio(c.device_ns as f64, c.wall_ns as f64),
            "fraction",
        ),
        (
            "rollback.plans_per_task",
            per_task(d.counter("core.rollback.plans")),
            "count",
        ),
        (
            "rollback.retry_rollback_failed",
            d.counter("core.task.retry_rollback_failed") as f64,
            "count",
        ),
        (
            "update.synth_us",
            us(ratio(synth as f64, update_tasks)),
            "us",
        ),
        ("update.wave_us", us(d.mean("update.exec.wave_ns")), "us"),
        (
            "update.waves_per_task",
            ratio(d.count("update.exec.wave_ns") as f64, update_tasks),
            "count",
        ),
        ("update.unattributed_us", us(update_unattributed), "us"),
        ("cert.check_us", us(d.mean("cert.check_ns")), "us"),
        ("cert.window", d.mean("cert.window"), "nodes"),
    ];
    m.extend(parts.iter().map(|&(n, f)| (n, f, "fraction")));
    m.push(("attrib.residual_frac", residual, "fraction"));
    m
}
