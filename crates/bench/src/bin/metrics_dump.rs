//! Exercises every instrument in the DESIGN.md §9 metrics contract and
//! writes `BENCH_obs.json` (hand-rolled JSON; no serde).
//!
//! Two registries are dumped:
//!
//! - `runtime`: an emulated deployment running read, write, concurrent,
//!   and deliberately-aborted tasks — covering the `core.*`, `netdb.*`,
//!   `objtree.*`, and `sched.*` families plus the structured event ring;
//! - `sim`: one Object-granularity simulation run — covering `sim.*` and
//!   the simulator's shared `objtree.*` / `sched.*` instruments;
//! - `gateway`: an in-process gateway server driven over real TCP —
//!   covering the `gateway.*` family (submissions, admission, frames,
//!   connections, latency histograms) plus the runtime's cancellation
//!   and panic-containment counters;
//! - `update`: a planned configuration update driven diff → synthesis →
//!   verification → wave execution — covering the `update.*` family;
//! - `occ`: optimistic tasks committing, conflicting, and falling back
//!   with the serializability certifier attached — covering the
//!   `core.occ.*` and `cert.*` families;
//! - `spec`: declarative workflows compiled from catalog templates, a
//!   fleet audit refreshed through the incremental view cache, and a
//!   rejected spec — covering the `spec.*` and `netdb.view.*` families.
//!
//! The binary fails loudly if any contract name is missing from the dump,
//! so drift between DESIGN.md §9 and the code is caught by running it.
//!
//! Usage: `cargo run --release -p occam-bench --bin metrics_dump`

use occam::netdb::attrs;
use occam::obs::Registry;
use occam_objtree::SplitMode;
use occam_sched::Policy;
use occam_sim::{run, Granularity, SimConfig};
use occam_workload::{synthesize, TraceConfig};

/// The §9 families the runtime registry must carry.
const RUNTIME_NAMES: &[&str] = &[
    "core.tasks.submitted",
    "core.tasks.completed",
    "core.tasks.aborted",
    "core.task_wall_ns",
    "core.lock.acquires",
    "core.lock_wait_ns",
    "core.deadlocks",
    "core.rollback.plans",
    "core.task.retries",
    "core.task.retry_rollback_failed",
    "core.ops.get",
    "core.ops.set",
    "core.ops.apply",
    "netdb.queries",
    "netdb.query_ns",
    "netdb.wal.appends",
    "netdb.wal.records",
    "netdb.wal.append_ns",
    "netdb.wal.retained_records",
    "netdb.snapshot_ns",
    "netdb.shard.commits",
    "netdb.shard.read_lock_free",
    "objtree.inserts",
    "objtree.splits",
    "objtree.deletes",
    "objtree.insert_ns",
    "objtree.delete_ns",
    "objtree.relate_cache.hits",
    "objtree.relate_cache.misses",
    "objtree.relate_cache.evictions",
    "sched.invocations",
    "sched.grants",
    "sched.invocation_ns",
];

/// The §9 families the gateway registry must carry (on top of the
/// runtime families, which share the same registry).
const GATEWAY_NAMES: &[&str] = &[
    "gateway.submit.accepted",
    "gateway.submit.rejected",
    "gateway.submit.unknown",
    "gateway.tasks.completed",
    "gateway.tasks.aborted",
    "gateway.tasks.cancelled",
    "gateway.cancel.requests",
    "gateway.conn.opened",
    "gateway.conn.closed",
    "gateway.frames.rx",
    "gateway.frames.tx",
    "gateway.proto.errors",
    "gateway.queue_wait_ns",
    "gateway.e2e_ns",
    "gateway.queue_depth",
    "gateway.reactor.events",
    "gateway.reactor.batch_len",
    "gateway.reactor.wouldblock",
    "core.tasks.cancelled",
    "core.task.panicked",
];

/// The §9 / §11 families a chaos-campaign registry must carry (on top
/// of the runtime families, which share the same registry).
const CHAOS_NAMES: &[&str] = &[
    "chaos.campaigns",
    "chaos.tasks",
    "chaos.tasks.completed",
    "chaos.tasks.rolled_back",
    "chaos.crashes",
    "chaos.invariant.violations",
    "chaos.faults.db",
    "chaos.faults.device",
    "core.task.retries",
    "core.task.retry_rollback_failed",
];

/// The §9 / §14 families a replication registry must carry (on top of
/// the `netdb.*` families, which share the same registry). All are bound
/// eagerly when a [`occam::netdb::ReplicaSet`] starts, so the contract
/// holds even before traffic flows.
const REPL_NAMES: &[&str] = &[
    "netdb.repl.ship.batches",
    "netdb.repl.ship.records",
    "netdb.repl.ship.snapshots",
    "netdb.repl.acks",
    "netdb.repl.follower.applied",
    "netdb.repl.reads.follower",
    "netdb.repl.reads.leader",
    "netdb.repl.reads.stale_fallback",
    "netdb.repl.failovers",
    "netdb.repl.lag_ns",
    "netdb.repl.read_lag_commits",
    "netdb.repl.failover_ns",
];

/// The §9 / §15 families an update-planner registry must carry (on top
/// of the runtime families, which share the same registry). All are
/// bound eagerly by [`occam::update::UpdateObs::bind`], so the contract
/// holds before any plan is synthesized.
const UPDATE_NAMES: &[&str] = &[
    "update.diff.ops",
    "update.synth.plans",
    "update.synth.waves",
    "update.synth.checks",
    "update.synth.splits",
    "update.synth.barriers",
    "update.synth.counterexamples",
    "update.synth_ns",
    "update.verify_ns",
    "update.verify.violations",
    "update.exec.waves",
    "update.exec.failures",
    "update.exec.rollbacks",
    "update.exec.publications",
    "update.exec.wave_ns",
];

/// The §9 / §16 families an isolation registry must carry (on top of
/// the runtime families, which share the same registry). The `core.occ.*`
/// instruments are bound eagerly at runtime construction and the `cert.*`
/// instruments when a [`occam::cert::Certifier`] binds to the registry,
/// so the contract holds before any optimistic task runs.
const OCC_NAMES: &[&str] = &[
    "core.occ.commits",
    "core.occ.aborts",
    "core.occ.fallbacks",
    "core.occ.validate_ns",
    "cert.tasks",
    "cert.commits",
    "cert.aborts",
    "cert.edges",
    "cert.retired",
    "cert.violations",
    "cert.window",
    "cert.check_ns",
];

/// The §9 / §17 families a spec-driven registry must carry (on top of
/// the runtime families, which share the same registry). The `spec.*`
/// instruments bind when the first templated program compiles; the
/// `netdb.view.*` instruments when the view cache serves its first
/// audit refresh.
const SPEC_NAMES: &[&str] = &[
    "spec.compiled",
    "spec.rejected",
    "spec.compile_ns",
    "spec.audit.runs",
    "spec.audit.devices",
    "spec.audit.non_compliant",
    "netdb.view.refreshes",
    "netdb.view.hits",
    "netdb.view.dirty_shards",
    "netdb.view.recompute_ns",
];

/// The §9 families the simulation registry must carry.
const SIM_NAMES: &[&str] = &[
    "sim.queue_depth",
    "sim.active_objects",
    "sim.tasks.completed",
    "sim.tasks.zero_wait",
    "sim.deadlocks_broken",
    "sim.task_completion_mh",
    "sim.task_waiting_mh",
    "objtree.inserts",
    "sched.invocations",
];

fn check_contract(section: &str, reg: &Registry, names: &[&str]) {
    let counters: Vec<String> = reg.counters().into_iter().map(|(n, _)| n).collect();
    let gauges: Vec<String> = reg.gauges().into_iter().map(|(n, _)| n).collect();
    let histograms: Vec<String> = reg.histograms().into_iter().map(|(n, _)| n).collect();
    for name in names {
        assert!(
            counters.iter().any(|n| n == name)
                || gauges.iter().any(|n| n == name)
                || histograms.iter().any(|n| n == name),
            "{section}: instrument `{name}` from DESIGN.md §9 is missing"
        );
    }
    println!(
        "{section}: {} counters, {} gauges, {} histograms, {} events recorded",
        counters.len(),
        gauges.len(),
        histograms.len(),
        reg.events().recorded()
    );
}

/// Drives the emulated runtime through every instrumented code path.
fn exercise_runtime() -> occam::Runtime {
    let (runtime, _ft) = occam::emulated_deployment(1, 6);

    // Read-only audit: shared locks, `get` operations, database queries.
    let report = runtime.task("audit").run(|ctx| {
        let net = ctx.network_read("dc01.pod00.*")?;
        let _ = net.devices()?;
        let _ = net.get(attrs::DEVICE_STATUS)?;
        net.close();
        Ok(())
    });
    assert_eq!(report.state, occam::TaskState::Completed);

    // Concurrent writers on one pod: exclusive locks, WAL appends, device
    // functions, and (for whichever task arrives second) real lock waits.
    std::thread::scope(|s| {
        for i in 0..2 {
            let rt = runtime.clone();
            s.spawn(move || {
                let name = format!("maintenance_{i}");
                let report = rt.task(&name).run(|ctx| {
                    let net = ctx.network("dc01.pod01.*")?;
                    net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
                    net.apply("f_drain")?;
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    net.apply("f_undrain")?;
                    net.set(attrs::DEVICE_STATUS, attrs::STATUS_ACTIVE.into())?;
                    net.close();
                    Ok(())
                });
                assert_eq!(report.state, occam::TaskState::Completed);
            });
        }
    });

    // A task that fails mid-flight: abort accounting plus a generated
    // rollback plan (`core.rollback.plans`, `rollback_planned` event).
    let report = runtime.task("doomed").run(|ctx| {
        let net = ctx.network("dc01.pod02.*")?;
        net.set(attrs::DEVICE_STATUS, attrs::STATUS_UNDER_MAINTENANCE.into())?;
        Err(occam::TaskError::Failed("induced failure".into()))
    });
    assert_eq!(report.state, occam::TaskState::Aborted);
    assert!(report.rollback.is_some());

    runtime
}

/// Drives a full gateway round over TCP: accepted work, a typed
/// rejection, a cancellation, a contained panic, and a garbage frame.
fn exercise_gateway() -> occam::obs::Registry {
    use occam_gateway::{Engine, EngineConfig, GatewayClient, GatewayServer, SubmitReply};

    let (runtime, _ft) = occam::emulated_deployment(1, 4);
    // A contained panic: the worker survives and `core.task.panicked`
    // lands in the shared registry. Hook silenced so the induced panic
    // does not spray a backtrace over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = runtime
        .task("panicky")
        .spawn_pooled(|_| panic!("induced panic"))
        .wait();
    std::panic::set_hook(hook);
    assert_eq!(report.state, occam::TaskState::Aborted);
    // A pre-cancelled task: `core.tasks.cancelled`.
    let token = occam::core::CancelToken::new();
    token.cancel();
    runtime
        .task("cancelled")
        .cancel_token(token)
        .spawn_pooled(|_| Ok(()))
        .wait();

    let engine = Engine::new(runtime, EngineConfig::default());
    let mut server = GatewayServer::start(engine, "127.0.0.1:0").expect("bind gateway");
    let addr = server.local_addr().to_string();

    let mut client = GatewayClient::connect(&addr).expect("connect");
    let SubmitReply::Accepted(ticket) = client
        .submit("device_maintenance", "dc01.pod00.*", false, &[])
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    loop {
        let (phase, _) = client.status(ticket).expect("status");
        if phase.is_terminal() {
            break;
        }
    }
    assert!(matches!(
        client.submit("no_such_workflow", "dc01.*", false, &[]),
        Ok(SubmitReply::Rejected(..))
    ));
    client.cancel(ticket).expect("cancel roundtrip");
    assert!(!client.list().expect("list").is_empty());

    // A garbage frame: the server answers with a typed error and counts
    // it under `gateway.proto.errors`.
    {
        use std::io::Write as _;
        let mut raw = std::net::TcpStream::connect(&addr).expect("connect raw");
        raw.write_all(&5u32.to_be_bytes()).expect("len");
        raw.write_all(&[0xEE, 1, 2, 3, 4]).expect("body");
        raw.flush().expect("flush");
        let mut resp = Vec::new();
        use std::io::Read as _;
        let _ = raw.read_to_end(&mut resp);
        assert!(!resp.is_empty(), "expected a typed error frame back");
    }

    let reg = server.engine().runtime().obs().clone();
    server.shutdown();
    assert!(reg.counter_value("gateway.proto.errors") >= 1);
    reg
}

/// Drives the consistent-update planner end-to-end: config diff, wave
/// synthesis, independent verification, and plan execution through the
/// transactional runtime.
fn exercise_update() -> occam::Runtime {
    use occam::netdb::{StoreSnapshot, WalRecord};
    use occam::regex::Pattern;
    use occam::update::{diff, execute_plan, ExecOptions, Synthesizer, TrafficClass, UpdateObs};

    let (runtime, ft) = occam::emulated_deployment(1, 4);
    let obs = UpdateObs::bind(runtime.obs());

    // Target config: new firmware on every pod-0/1 aggregation switch.
    let old = runtime.db().snapshot();
    let scope = Pattern::from_glob("dc01.pod0[01].agg*").expect("glob");
    let mut records: Vec<WalRecord> = old
        .select_devices(&Pattern::universe())
        .into_iter()
        .map(|name| {
            let device_attrs = old.device_attrs(&name).unwrap_or_default();
            WalRecord::InsertDevice {
                name,
                attrs: device_attrs.into_iter().collect(),
            }
        })
        .collect();
    for name in old.select_devices(&scope) {
        records.push(WalRecord::SetDeviceAttr {
            name: name.clone(),
            attr: attrs::FIRMWARE_VERSION.into(),
            value: "fw-9.0.0".into(),
        });
        records.push(WalRecord::SetDeviceAttr {
            name,
            attr: "CONFIG_VERSION".into(),
            value: "obs-demo".into(),
        });
    }
    let target = StoreSnapshot::replay(&records);
    let ops = diff(&old, &target);

    // Cross-pod flows pin ECMP paths through the upgraded aggs, so the
    // synthesizer must stagger the drains into multiple waves.
    let classes = vec![
        TrafficClass::pair("p0-p1", ft.hosts[0][0][0], ft.hosts[1][1][0], 0),
        TrafficClass::pair("p1-p0", ft.hosts[1][0][0], ft.hosts[0][1][0], 1),
    ];
    let synth = Synthesizer::new(&ft.topo, &classes).with_obs(&obs);
    let plan = synth.synthesize(&ops).expect("feasible update plan");
    assert!(
        synth.verify(&plan).is_empty(),
        "synthesized plan must verify clean"
    );
    let opts = ExecOptions {
        obs: Some(obs),
        ..ExecOptions::default()
    };
    let report = execute_plan(&runtime, &plan, &opts, None);
    assert!(report.ok(), "plan execution failed: {:?}", report.error);
    runtime
}

/// Drives the optimistic isolation path: a certified OCC commit, a
/// validation conflict with 2PL fallback, and the certifier's acyclicity
/// verdict over the mixed history.
fn exercise_occ() -> occam::Runtime {
    use occam::Isolation;
    use std::sync::Arc;

    let (runtime, _ft) = occam::emulated_deployment(1, 4);
    let cert = Arc::new(occam::cert::Certifier::with_obs(runtime.obs()));
    runtime.attach_certifier(Arc::clone(&cert));

    // One clean optimistic commit: `core.occ.commits` + a certified
    // footprint from the OCC path.
    let report = runtime
        .task("optimistic_audit")
        .isolation(Isolation::Occ { max_retries: 3 })
        .run(|ctx| {
            let net = ctx.network("dc01.pod00.*")?;
            let _ = net.get(attrs::DEVICE_STATUS)?;
            net.set("AUDIT_MARK", 1i64.into())?;
            Ok(())
        });
    assert_eq!(report.state, occam::TaskState::Completed);

    // A sabotaged attempt: a concurrent commit lands after the OCC
    // snapshot, so validation conflicts (`core.occ.aborts`) and the
    // driver exhausts its retries into a 2PL fallback
    // (`core.occ.fallbacks`).
    let db = Arc::clone(runtime.db());
    let contended = std::sync::atomic::AtomicU32::new(0);
    let report = runtime
        .task("contended_write")
        .isolation(Isolation::Occ { max_retries: 0 })
        .run(move |ctx| {
            let net = ctx.network("dc01.pod01.tor00")?;
            let _ = net.get(attrs::DEVICE_STATUS)?;
            if contended.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                let pat = occam::regex::Pattern::from_glob("dc01.pod01.tor00").expect("glob");
                db.set_attr(&pat, "INTERFERENCE", 1i64.into())
                    .expect("poke");
            }
            net.set("AUDIT_MARK", 2i64.into())?;
            Ok(())
        });
    assert_eq!(report.state, occam::TaskState::Completed);
    assert!(cert.is_acyclic(), "{:?}", cert.first_violation());
    runtime.detach_certifier();
    runtime
}

/// Drives the declarative-spec pipeline: catalog workflows compiled
/// from their templates, a drained pod surfacing a real non-compliant
/// set through the audit view, a warm re-audit reusing every shard
/// partial, and a spec the validator must reject.
fn exercise_spec() -> occam::Runtime {
    use occam_gateway::{Catalog, WorkflowSpec};

    let (runtime, _ft) = occam::emulated_deployment(1, 4);
    let cat = Catalog::standard();

    // A maintenance workflow compiled from its spec template:
    // `spec.compiled` + `spec.compile_ns`.
    let prog = cat
        .build("device_maintenance", WorkflowSpec::new("dc01.pod00.*", &[]))
        .expect("catalog entry");
    let report = runtime.task("device_maintenance").run(|ctx| prog(ctx));
    assert_eq!(
        report.state,
        occam::TaskState::Completed,
        "{:?}",
        report.error
    );

    // Drain one pod so the fleet audit reports a real non-compliant set
    // (`spec.audit.*`); the audit's first refresh is the cold scan that
    // seeds the view cache (`netdb.view.refreshes` / `dirty_shards`).
    let prog = cat
        .build("drain", WorkflowSpec::new("dc01.pod01.*", &[]))
        .expect("catalog entry");
    let report = runtime.task("drain").run(|ctx| prog(ctx));
    assert_eq!(
        report.state,
        occam::TaskState::Completed,
        "{:?}",
        report.error
    );
    for name in ["status_audit", "status_audit_warm"] {
        // The second audit lands at the same committed version, so every
        // shard partial is reused (`netdb.view.hits`).
        let prog = cat
            .build("status_audit", WorkflowSpec::new("dc01.*", &[]))
            .expect("catalog entry");
        let report = runtime.task(name).run(|ctx| prog(ctx));
        assert_eq!(
            report.state,
            occam::TaskState::Completed,
            "{:?}",
            report.error
        );
    }

    // A template whose lowering the static validator must reject — wave
    // plans cannot carry device tests — counted under `spec.rejected`.
    let report = runtime.task("rejected_spec").run(|ctx| {
        occam::spec::template_program(
            "spec bad {\n scope $scope\n strategy waves\n test optic\n}\n",
            "dc01.*".into(),
            Default::default(),
        )(ctx)
    });
    assert_eq!(report.state, occam::TaskState::Aborted);

    runtime
}

/// Drives a replica set through shipping, routed reads, a stale
/// fallback, and a failover, then returns its registry.
fn exercise_repl() -> occam::obs::Registry {
    use occam::netdb::{Database, ReplicaConfig, ReplicaSet};
    use std::sync::Arc;
    use std::time::Duration;

    let reg = occam::obs::Registry::new();
    let leader_db = Arc::new(Database::with_obs(&reg));
    for i in 0..16 {
        leader_db
            .insert_device(&format!("dc01.pod00.sw{i:02}"), vec![])
            .expect("seed device");
    }
    let set = ReplicaSet::start(
        Arc::clone(&leader_db),
        ReplicaConfig {
            followers: 2,
            quorum: 1,
            ..ReplicaConfig::default()
        },
    );
    assert_eq!(
        set.leader().wait_acked(16, Duration::from_secs(10)),
        16,
        "quorum ack"
    );
    assert!(set.wait_converged(Duration::from_secs(10)), "convergence");
    let router = set.router();
    for _ in 0..8 {
        router.snapshot().expect("routed read");
    }
    // Partition both followers and write through: the next routed read
    // exceeds the staleness bound and falls back to the leader.
    set.set_partitioned(0, true);
    set.set_partitioned(1, true);
    for i in 0..8 {
        leader_db
            .insert_device(&format!("dc01.pod01.sw{i:02}"), vec![])
            .expect("write");
    }
    router.snapshot().expect("stale fallback read");
    set.set_partitioned(0, false);
    set.set_partitioned(1, false);
    assert!(set.wait_converged(Duration::from_secs(10)), "heal");
    let (set, _promotion) = set.failover();
    set.shutdown();
    reg
}

fn main() {
    let runtime = exercise_runtime();
    check_contract("runtime", runtime.obs(), RUNTIME_NAMES);

    let repl_reg = exercise_repl();
    check_contract("repl", &repl_reg, REPL_NAMES);
    assert!(repl_reg.counter_value("netdb.repl.reads.follower") >= 1);
    assert!(repl_reg.counter_value("netdb.repl.reads.stale_fallback") >= 1);
    assert!(repl_reg.counter_value("netdb.repl.failovers") >= 1);

    let gateway_reg = exercise_gateway();
    check_contract("gateway", &gateway_reg, GATEWAY_NAMES);

    let occ_rt = exercise_occ();
    check_contract("occ", occ_rt.obs(), OCC_NAMES);
    assert!(occ_rt.obs().counter_value("core.occ.commits") >= 1);
    assert!(occ_rt.obs().counter_value("core.occ.aborts") >= 1);
    assert!(occ_rt.obs().counter_value("core.occ.fallbacks") >= 1);
    assert_eq!(occ_rt.obs().counter_value("cert.violations"), 0);

    let spec_rt = exercise_spec();
    check_contract("spec", spec_rt.obs(), SPEC_NAMES);
    assert!(spec_rt.obs().counter_value("spec.compiled") >= 4);
    assert!(spec_rt.obs().counter_value("spec.rejected") >= 1);
    assert!(spec_rt.obs().counter_value("spec.audit.runs") >= 2);
    assert!(spec_rt.obs().counter_value("spec.audit.non_compliant") >= 1);
    assert!(spec_rt.obs().counter_value("netdb.view.hits") >= 1);

    let update_rt = exercise_update();
    check_contract("update", update_rt.obs(), UPDATE_NAMES);
    assert!(update_rt.obs().counter_value("update.exec.waves") >= 2);
    assert_eq!(update_rt.obs().counter_value("update.verify.violations"), 0);
    assert_eq!(update_rt.obs().counter_value("update.exec.failures"), 0);

    let trace = synthesize(&TraceConfig {
        num_tasks: 300,
        ..TraceConfig::default()
    });
    let cfg = TraceConfig::default();
    let r = run(
        &SimConfig {
            granularity: Granularity::Object,
            policy: Policy::Ldsf,
            scheme: cfg.scheme,
            split_mode: SplitMode::Split,
        },
        &trace,
    );
    check_contract("sim", &r.obs, SIM_NAMES);

    // A short seeded fault campaign: covers the `chaos.*` family plus the
    // retry counters under real (injected) transient faults.
    let mut chaos_cfg = occam_chaos::CampaignConfig::at_rate(7, 0.05);
    chaos_cfg.tasks = 8;
    let chaos = occam_chaos::Campaign::new(chaos_cfg);
    let chaos_reg = chaos.registry().clone();
    let chaos_report = chaos.run();
    assert_eq!(
        chaos_report.invariant_violations, 0,
        "chaos campaign violated the recovery contract: {:?}",
        chaos_report.first_violation
    );
    check_contract("chaos", &chaos_reg, CHAOS_NAMES);

    let mut out = String::from("{\n  \"runtime\": ");
    out.push_str(&runtime.obs().to_json());
    out.push_str(",\n  \"runtime_events\": ");
    out.push_str(&runtime.obs().events().to_json());
    out.push_str(",\n  \"sim\": ");
    out.push_str(&r.obs.to_json());
    out.push_str(",\n  \"gateway\": ");
    out.push_str(&gateway_reg.to_json());
    out.push_str(",\n  \"chaos\": ");
    out.push_str(&chaos_reg.to_json());
    out.push_str(",\n  \"repl\": ");
    out.push_str(&repl_reg.to_json());
    out.push_str(",\n  \"occ\": ");
    out.push_str(&occ_rt.obs().to_json());
    out.push_str(",\n  \"spec\": ");
    out.push_str(&spec_rt.obs().to_json());
    out.push_str(",\n  \"update\": ");
    out.push_str(&update_rt.obs().to_json());
    out.push_str("\n}\n");
    std::fs::write("BENCH_obs.json", &out).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");
}
