//! End-to-end benchmark of the Occam gateway at production DB scale.
//!
//! Runs one workload against an in-process gateway over a 132.8k-device
//! deployment, checks the program's outputs, and prints every metric by
//! name with its unit. The last line of standard output is the result
//! object; the full result (every metric with its sample count, and the
//! environment stamp) is also written under `--out`.
//!
//! ```text
//! perfbench --workload <audit_burst|write_mix|hot_region|planned_rollout>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--rev <rev>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's
//! tracing off. `--trace 1` alternates untraced and traced windows and
//! reports the per-layer metrics of the traced ones, the attribution of
//! server-side latency, and the tracing overhead. Exits 1 when any
//! correctness check fails.

mod client;
mod deploy;
mod layers;
mod trace;
mod workload;

use client::Loader;
use deploy::Deployment;
use layers::{ClientSide, Delta, RegSnap};
use occam::gateway::{GatewayClient, SubmitReply, WirePhase};
use occam::netdb::attrs;
use occam::regex::Pattern;
use std::fmt::Write as _;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Class, Def, Kind};

/// Deployments built per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Warm-up before measuring: pool threads, caches, lazy set-up.
const WARMUP: Duration = Duration::from_millis(1500);
/// Traced runs alternate this many untraced/traced window pairs.
const TRACE_PAIRS: u32 = 2;
/// Untraced runs measure back-to-back windows of this length and report
/// medians over the calm ones (see `calm`), so a disturbance moves only
/// the windows it falls in.
const WINDOW: Duration = Duration::from_secs(2);
/// Fewest tasks per window for per-window statistics.
const WINDOW_MIN_TASKS: usize = 100;
/// Steal share above the calmest window's that a window may have and
/// still count as calm: 8 clock ticks of a 2 s window on 2 vCPUs, above
/// the tick rounding of `/proc/stat` (calm windows read 0–0.013).
const CALM_STEAL: f64 = 0.02;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: std::path::PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = std::path::PathBuf::from(".perfbench_out");
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--out" => out = value.into(),
            "--rev" => rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        rev,
    })
}

/// Builds a deployment and times it up to the first accepted SUBMIT.
fn set_up(def: &Def, tracer: &Arc<Tracer>) -> (Deployment, f64) {
    let started = Instant::now();
    let dep = deploy::build(def.opts, tracer);
    let mut client = GatewayClient::connect(&dep.addr()).expect("connect");
    let reply = client
        .submit("status_audit", "dc01.pod00.*", false, &[])
        .expect("first SUBMIT");
    let setup_s = started.elapsed().as_secs_f64();
    let SubmitReply::Accepted(ticket) = reply else {
        panic!("first SUBMIT not accepted: {reply:?}");
    };
    loop {
        let (phase, detail) = client.status(ticket).expect("STATUS");
        if phase.is_terminal() {
            assert_eq!(phase, WirePhase::Completed, "first audit failed: {detail}");
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    (dep, setup_s)
}

/// The VM's CPU time so far, from the `cpu` line of `/proc/stat`:
/// (stolen by the host, all states), in clock ticks.
fn host_cpu() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// One untraced measurement window.
struct Window {
    wall: Duration,
    /// The range of `loader.done` finished in it.
    done: Range<usize>,
    /// Ticks the host stole from the VM, and all ticks, during it.
    stolen: u64,
    ticks: u64,
}

impl Window {
    fn steal(&self) -> f64 {
        self.stolen as f64 / self.ticks.max(1) as f64
    }
}

/// The windows the end-to-end medians are taken over: those in which
/// the host stole at most `CALM_STEAL` more of the VM's CPU than in the
/// calmest window. Host steal comes in episodes that slow everything in
/// the VM; this keeps one from moving a run's figures as long as it
/// spares some window of the run.
fn calm(windows: &[Window]) -> Vec<&Window> {
    let least = windows
        .iter()
        .map(Window::steal)
        .fold(f64::INFINITY, f64::min);
    windows
        .iter()
        .filter(|w| w.steal() <= least + CALM_STEAL)
        .collect()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile of sorted samples, in milliseconds.
fn pct_ms(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e6
}

/// One reported metric with its unit and sample count.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    n: u64,
}

fn row(name: &str, value: f64, unit: &'static str, n: u64) -> Row {
    Row {
        name: name.to_string(),
        value,
        unit,
        n,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median and tail of one latency population, given sorted samples per
/// window. With `windowed`, each is the median of the per-window values,
/// a tail only when every window has at least ten samples beyond it;
/// otherwise it is taken over the pooled samples.
fn latency_rows(
    rows: &mut Vec<Row>,
    prefix: &str,
    windows: &[Vec<u64>],
    tail_q: f64,
    windowed: bool,
) {
    let n: usize = windows.iter().map(Vec::len).sum();
    if n == 0 {
        return;
    }
    let mut pooled: Vec<u64> = windows.concat();
    pooled.sort_unstable();
    let p50 = if windowed {
        median(windows.iter().map(|w| pct_ms(w, 0.5)).collect())
    } else {
        pct_ms(&pooled, 0.5)
    };
    let beyond = |len: usize| (len as f64 * (1.0 - tail_q)).floor() as usize;
    let tail = if windowed && windows.iter().all(|w| beyond(w.len()) >= 10) {
        median(windows.iter().map(|w| pct_ms(w, tail_q)).collect())
    } else {
        pct_ms(&pooled, tail_q)
    };
    rows.push(row(&format!("{prefix}_p50_ms"), p50, "ms", n as u64));
    rows.push(row(&format!("{prefix}_tail_ms"), tail, "ms", n as u64));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let def = args.workload.def();
    let tracer = Tracer::new();

    // The measured deployment is set up first; the extra set-ups that
    // `setup_s` takes its median over run after the measurement.
    let (dep, first_setup) = set_up(&def, &tracer);
    let mut setups = vec![first_setup];
    let db_devices = dep.runtime.db().snapshot().num_devices();
    let reg = dep.runtime.obs().clone();

    // Deterministic forward-path device faults, every Nth optic test.
    let lib = dep.emu().library();
    let optic_base = lib.invocations("f_optic_test");
    for i in 1..=200_000u64.checked_div(def.fault_every).unwrap_or(0) {
        lib.fail_at("f_optic_test", i * def.fault_every - 1);
    }

    let mut loader = Loader::connect(def, args.seed, &dep.addr(), Arc::clone(&tracer));
    loader.run(WARMUP, true);
    loader.run(Duration::ZERO, false);

    let total = Duration::from_secs_f64(args.seconds);
    let mut windows: Vec<Window> = Vec::new();
    let mut traced = (Duration::ZERO, 0u64);
    let mut delta = Delta::default();
    if args.trace {
        let window = total / (2 * TRACE_PAIRS);
        for _ in 0..TRACE_PAIRS {
            for on in [false, true] {
                tracer.set_enabled(on);
                let first = loader.done.len();
                let before = RegSnap::take(&reg);
                let (s0, t0) = host_cpu();
                let (w1, n1) = loader.run(window, true);
                let (w2, n2) = loader.run(Duration::ZERO, false);
                if on {
                    delta.add(&before, &RegSnap::take(&reg));
                    traced.0 += w1 + w2;
                    traced.1 += n1 + n2;
                } else {
                    let (s1, t1) = host_cpu();
                    windows.push(Window {
                        wall: w1 + w2,
                        done: first..loader.done.len(),
                        stolen: s1 - s0,
                        ticks: t1 - t0,
                    });
                }
            }
        }
        tracer.set_enabled(false);
    } else {
        // Back-to-back windows of one closed loop; the final drain counts
        // toward the last.
        let n = ((total.as_secs_f64() / WINDOW.as_secs_f64()).round() as u32).max(1);
        for i in 0..n {
            let first = loader.done.len();
            let (s0, t0) = host_cpu();
            let (mut wall, _) = loader.run(total / n, true);
            if i + 1 == n {
                wall += loader.run(Duration::ZERO, false).0;
            }
            let (s1, t1) = host_cpu();
            windows.push(Window {
                wall,
                done: first..loader.done.len(),
                stolen: s1 - s0,
                ticks: t1 - t0,
            });
        }
    }

    let peak_rss = peak_rss_mb();
    let tasks: usize = windows.iter().map(|w| w.done.len()).sum();
    let untraced_wall: f64 = windows.iter().map(|w| w.wall.as_secs_f64()).sum();

    // ---- correctness checks ----
    let mut faults: Vec<String> = Vec::new();
    let tally = loader.tally.clone();
    if tally.lost > 0 {
        faults.push(format!("{} tickets lost", tally.lost));
    }
    if tally.failed() > 0 {
        faults.push(format!(
            "{} of {} tasks failed (aborted {}, cancelled {}, rejected {}, lost {})",
            tally.failed(),
            tally.submitted,
            tally.aborted,
            tally.cancelled,
            tally.rejected,
            tally.lost
        ));
    }
    let proto_errors = reg.counter_value("gateway.proto.errors");
    if proto_errors > 0 {
        faults.push(format!("gateway.proto.errors = {proto_errors}"));
    }
    let audits_failed = loader
        .done
        .iter()
        .filter(|d| d.workflow == "compliance_audit" && d.phase != WirePhase::Completed)
        .count();
    if audits_failed > 0 {
        faults.push(format!(
            "{audits_failed} {} compliance audits failed",
            deploy::SITE
        ));
    }
    if let Err(e) = dep.check_follower() {
        faults.push(format!("follower: {e}"));
    }
    if def.opts.certifier {
        let v = reg.counter_value("cert.violations");
        if v > 0 {
            let first = dep.runtime.certifier().and_then(|c| c.first_violation());
            faults.push(format!("cert.violations = {v}; first: {first:?}"));
        }
        if reg.counter_value("cert.commits") == 0 {
            faults.push("certifier saw no commits".into());
        }
    }
    faults.extend(dep.check_fabric_agreement());
    if let Err(e) = dep.check_sites() {
        faults.push(e);
    }
    let verify_violations = reg.counter_value("update.verify.violations");
    if verify_violations > 0 {
        faults.push(format!("update.verify.violations = {verify_violations}"));
    }
    if def.kind == Kind::PlannedRollout {
        let snap = dep.runtime.db().snapshot();
        if loader.rollout.is_empty() {
            faults.push("no planned update completed".into());
        }
        for (pod, (generation, firmware)) in &loader.rollout {
            let scope = Pattern::from_glob(&workload::rollout_scope(*pod)).expect("pod glob");
            let gens = snap.get_attr(&scope, "CONFIG_VERSION");
            let fws = snap.get_attr(&scope, attrs::FIRMWARE_VERSION);
            let want = deploy::FABRIC_K as usize / 2;
            if gens.len() != want || gens.values().any(|v| v.as_str() != Some(generation)) {
                faults.push(format!("pod{pod:02}: CONFIG_VERSION is not {generation}"));
            }
            if fws.values().any(|v| v.as_str() != Some(firmware)) {
                faults.push(format!("pod{pod:02}: firmware is not {firmware}"));
            }
        }
    }
    let calls = lib.invocations("f_optic_test") - optic_base;
    let injected = if let Some(fired) = calls.checked_div(def.fault_every) {
        let retries = reg.counter_value("core.task.retries");
        if fired == 0 {
            faults.push("no device fault was injected".into());
        }
        if retries < fired {
            faults.push(format!(
                "{fired} faults injected but only {retries} retries"
            ));
        }
        let rf = reg.counter_value("core.task.retry_rollback_failed");
        if rf > 0 {
            faults.push(format!("{rf} inter-attempt rollbacks failed"));
        }
        fired
    } else {
        0
    };
    let correct = faults.is_empty();
    for f in &faults {
        eprintln!("CHECK FAILED: {f}");
    }

    // ---- per-layer metrics (traced windows) ----
    let mut layer_rows: Vec<Row> = Vec::new();
    if args.trace {
        let client = ClientSide {
            wall_ns: traced.0.as_nanos() as u64,
            device_calls: dep.service.calls.load(Ordering::Relaxed),
            device_ns: dep.service.call_ns.sum(),
            device_p99_ns: dep.service.call_ns.quantile(0.99),
            ..std::mem::take(&mut loader.client)
        };
        for (name, value, unit) in layers::per_layer(&delta, &client, !def.opts.follower) {
            layer_rows.push(row(name, value, unit, client.tasks));
        }
        let tps_untraced = tasks as f64 / untraced_wall;
        let tps_traced = traced.1 as f64 / traced.0.as_secs_f64();
        layer_rows.push(row(
            "bench.trace_overhead_frac",
            1.0 - tps_traced / tps_untraced,
            "fraction",
            traced.1,
        ));
    }

    dep.shutdown();
    for _ in 1..SETUPS {
        let (extra, secs) = set_up(&def, &tracer);
        extra.shutdown();
        setups.push(secs);
    }
    eprintln!("setups (s): {setups:.3?}");
    let setup_s = median(setups.clone());

    // ---- end-to-end metrics: medians over the calm untraced windows ----
    for w in &windows {
        eprintln!(
            "window {:>6.1} tasks/s, steal {:.3}",
            w.done.len() as f64 / w.wall.as_secs_f64(),
            w.steal()
        );
    }
    let kept = calm(&windows);
    // Few tasks per window quantize a window's figures: then they are
    // taken over the pooled run, every window included.
    let windowed = kept.iter().all(|w| w.done.len() >= WINDOW_MIN_TASKS);
    let basis: Vec<&Window> = if windowed {
        kept.clone()
    } else {
        windows.iter().collect()
    };
    let basis_tasks: usize = basis.iter().map(|w| w.done.len()).sum();
    let tasks_per_s = if windowed {
        median(
            kept.iter()
                .map(|w| w.done.len() as f64 / w.wall.as_secs_f64())
                .collect(),
        )
    } else {
        tasks as f64 / untraced_wall
    };
    let steal_of = |ws: &[&Window]| {
        ws.iter().map(|w| w.stolen).sum::<u64>() as f64
            / ws.iter().map(|w| w.ticks).sum::<u64>().max(1) as f64
    };
    let run_steal = steal_of(&windows.iter().collect::<Vec<_>>());
    let kept_steal = steal_of(&kept);
    let mut e2e: Vec<Row> = vec![
        row("setup_s", setup_s, "s", setups.len() as u64),
        row("tasks_per_s", tasks_per_s, "1/s", basis_tasks as u64),
    ];
    let populations: [(&str, Option<Class>); 3] = [
        ("latency", None),
        ("write", Some(Class::Write)),
        ("audit", Some(Class::Audit)),
    ];
    for (prefix, class) in populations {
        let per_window: Vec<Vec<u64>> = basis
            .iter()
            .map(|w| {
                let mut l: Vec<u64> = loader.done[w.done.clone()]
                    .iter()
                    .filter(|d| class.is_none_or(|c| d.class == c))
                    .map(|d| d.latency_ns)
                    .collect();
                l.sort_unstable();
                l
            })
            .collect();
        latency_rows(&mut e2e, prefix, &per_window, def.tail_q, windowed);
    }
    e2e.push(row(
        "failed_frac",
        tally.failed() as f64 / tally.submitted.max(1) as f64,
        "fraction",
        tally.submitted,
    ));
    e2e.push(row("peak_rss_mb", peak_rss, "MB", 1));

    // ---- report ----
    let env = format!(
        "{{\"rev\":\"{}\",\"nproc\":{},\"profile\":\"{}\",\"workload\":\"{}\",\"seed\":{},\
         \"seconds\":{},\"trace\":{},\"db_devices\":{},\"fabric_k\":{},\"window\":{},\
         \"tail_percentile\":{},\"poll_interval_us\":{},\"status_rounds\":{},\
         \"windows\":{},\"calm_windows\":{},\"steal_frac\":{:.4},\"calm_steal_frac\":{:.4},\
         \"setups\":{},\"injected_faults\":{},\"retries\":{},\"spans\":{}}}",
        args.rev,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        def.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        db_devices,
        deploy::FABRIC_K,
        def.window,
        (def.tail_q * 100.0).round(),
        def.poll.as_micros(),
        loader.polls,
        windows.len(),
        kept.len(),
        run_steal,
        kept_steal,
        setups.len(),
        injected,
        reg.counter_value("core.task.retries"),
        tracer.len(),
    );
    println!("env {env}");
    for r in e2e.iter().chain(&layer_rows) {
        println!("{:<34} {:>14.4} {:<8} n={}", r.name, r.value, r.unit, r.n);
    }

    let rows_json = |rows: &[Row]| {
        let mut s = String::from("{");
        for (i, r) in rows.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
                if i > 0 { "," } else { "" },
                r.name,
                json_num(r.value),
                r.unit,
                r.n
            );
        }
        s.push('}');
        s
    };
    let full = format!(
        "{{\"env\":{env},\"correct\":{correct},\"attempted\":{},\"failed\":{},\
         \"end_to_end\":{},\"per_layer\":{}}}\n",
        tally.submitted,
        tally.failed(),
        rows_json(&e2e),
        rows_json(&layer_rows)
    );
    let results = args.out.join("results");
    let tag = format!(
        "{}-seed{}-trace{}",
        def.name,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = std::fs::create_dir_all(&results)
        .and_then(|()| std::fs::write(results.join(format!("{tag}.json")), &full))
    {
        eprintln!("cannot write result file: {e}");
    }
    if args.trace {
        let spans = args.out.join("spans");
        if let Err(e) = std::fs::create_dir_all(&spans)
            .and_then(|()| tracer.write_tsv(&spans.join(format!("{tag}.tsv"))))
        {
            eprintln!("cannot write spans: {e}");
        }
    }

    // The last line: the metrics the benchmark's contract names.
    let reported: &[Row] = if args.trace { &layer_rows } else { &e2e };
    let mut metrics = String::from("{");
    for (i, r) in reported.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            r.name,
            json_num(r.value),
            r.unit
        );
    }
    metrics.push('}');
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        tally.submitted,
        tally.failed()
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A finite JSON number (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
