//! Integration tests for the chaos/recovery contract (DESIGN.md §11):
//! campaign determinism, WAL torn-shutdown replay, and gateway job-record
//! hygiene under mid-frame connection resets.

use occam::chaos::{run_gateway_phase, Campaign, CampaignConfig, GatewayChaosConfig};
use occam::netdb::db::Store;
use occam::netdb::{attrs, Database};
use proptest::prelude::*;

/// Identical campaign configs must produce byte-identical reports: every
/// random stream is seeded, tasks run sequentially, and verification
/// pauses the injectors without advancing them.
#[test]
fn seeded_campaigns_are_deterministic() {
    let mut cfg = CampaignConfig::at_rate(9001, 0.12);
    cfg.tasks = 15;
    let a = Campaign::new(cfg.clone()).run();
    let b = Campaign::new(cfg).run();
    assert_eq!(a, b);
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.invariant_violations, 0, "{:?}", a.first_violation);
    assert_eq!(a.completed + a.rolled_back, 15);
}

/// A connection that dies mid-SUBMIT (length prefix plus half the body)
/// must never create an engine job record: admission happens only after
/// a full decode. Clients that vanish after a complete SUBMIT — or
/// after a pipelined batch of SUBMITs, on the reactor's batch-admission
/// path — still get their jobs driven to a terminal phase; nothing
/// stays queued or running after drain.
#[test]
fn gateway_mid_frame_reset_never_leaks_job_records() {
    let report = run_gateway_phase(&GatewayChaosConfig {
        submissions: 12,
        drop_every: 2,
    });
    assert!(report.partial_drops >= 2, "phase must reset mid-frame");
    assert!(report.vanish_drops >= 2, "phase must vanish after SUBMIT");
    assert!(
        report.batch_vanish_drops >= 1,
        "phase must vanish after a pipelined batch"
    );
    // Partial frames were never admitted; everything admitted finished.
    assert_eq!(report.accepted, report.completed);
    assert_eq!(report.leaked_records, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Torn-shutdown property: after real management work, replaying
    /// *every* prefix of the WAL is total, the full replay equals the
    /// live store, and a WAL file truncated at any record boundary still
    /// recovers into a database equal to the replayed prefix.
    #[test]
    fn wal_replay_is_total_at_every_prefix(writes in 1usize..6, seed in 0u64..1000) {
        let (rt, _ft) = occam::emulated_deployment(1, 4);
        // Keep the WAL from here on: the replayed records are then the
        // seed's checkpoint followed by the tasks' real batches.
        rt.db().set_wal_floor(Some(0));
        let pods = ["dc01.pod00.*", "dc01.pod01.*"];
        for w in 0..writes {
            let scope = pods[(seed as usize + w) % pods.len()];
            let fw = format!("fw-{seed}-{w}");
            let report = rt.task("wal_writer").run(|ctx| {
                let net = ctx.network(scope)?;
                net.apply("f_drain")?;
                net.set(attrs::FIRMWARE_VERSION, fw.as_str().into())?;
                net.apply("f_push")?;
                net.apply("f_undrain")?;
                net.close();
                Ok(())
            });
            prop_assert_eq!(report.state, occam::TaskState::Completed);
        }
        let records = rt.db().wal_records();
        prop_assert!(!records.is_empty());
        // Every prefix replays without panicking, and replay is
        // monotone: the full prefix reproduces the live store.
        for k in 0..=records.len() {
            let store = Store::replay(&records[..k]);
            if k == records.len() {
                prop_assert_eq!(&store, &rt.db().snapshot());
            }
            // Text-level torn shutdown: a WAL file cut after k records
            // must decode and recover to exactly that prefix's store.
            let text = rt.db().dump_wal();
            let truncated: String = text
                .lines()
                .take(k)
                .flat_map(|l| [l, "\n"])
                .collect();
            let recovered = Database::recover(&truncated)
                .map_err(|e| TestCaseError::fail(format!("prefix {k} failed: {e}")))?;
            prop_assert_eq!(&recovered.snapshot(), &store);
        }
    }
}
