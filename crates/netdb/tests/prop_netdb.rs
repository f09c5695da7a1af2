//! Property tests: WAL replay equivalence and snapshot-diff laws under
//! random operation sequences.

use occam_netdb::{decode_wal, diff, encode_wal, Database, Store, WriteOp};
use occam_regex::Pattern;
use proptest::prelude::*;

/// A small universe of device names so random ops collide meaningfully.
fn arb_device() -> impl Strategy<Value = String> {
    (0u32..3, 0u32..3, 0u32..3)
        .prop_map(|(dc, pod, sw)| format!("dc{:02}.pod{:02}.sw{:02}", dc + 1, pod, sw))
}

fn arb_op() -> impl Strategy<Value = WriteOp> {
    prop_oneof![
        arb_device().prop_map(|name| WriteOp::InsertDevice {
            name,
            attrs: vec![]
        }),
        arb_device().prop_map(|name| WriteOp::DeleteDevice { name }),
        (arb_device(), 0i64..5).prop_map(|(name, v)| WriteOp::SetDeviceAttr {
            name,
            attr: "X".into(),
            value: v.into(),
        }),
        (arb_device(), arb_device()).prop_map(|(a, z)| WriteOp::InsertLink {
            a_end: a,
            z_end: z,
            attrs: vec![],
        }),
        (arb_device(), arb_device()).prop_map(|(a, z)| WriteOp::DeleteLink { a_end: a, z_end: z }),
        (arb_device(), arb_device(), 0i64..5).prop_map(|(a, z, v)| WriteOp::SetLinkAttr {
            a_end: a,
            z_end: z,
            attr: "S".into(),
            value: v.into(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replaying the WAL from empty always reconstructs the live state,
    /// regardless of which batches succeeded or failed.
    #[test]
    fn wal_replay_equals_snapshot(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let db = Database::new();
        db.set_wal_floor(Some(0)); // replay real history, not a checkpoint
        // A database that keeps no WAL moves records into the store
        // instead of cloning them; it must reach the same state.
        let unlogged = Database::new();
        for op in ops {
            // Failures are fine; they must not commit partial state.
            let _ = db.batch(std::slice::from_ref(&op));
            let _ = unlogged.batch(std::slice::from_ref(&op));
        }
        prop_assert_eq!(Store::replay(&db.wal_records()), db.snapshot());
        prop_assert_eq!(unlogged.snapshot(), db.snapshot());
        prop_assert_eq!(unlogged.snapshot().shard_versions(), db.snapshot().shard_versions());
    }

    /// A failed batch leaves the store byte-identical.
    #[test]
    fn failed_batch_is_invisible(
        setup in proptest::collection::vec(arb_op(), 0..20),
        batch in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let db = Database::new();
        for op in setup {
            let _ = db.batch(std::slice::from_ref(&op));
        }
        let before = db.snapshot();
        let commits = db.commits();
        if db.batch(&batch).is_err() {
            prop_assert_eq!(db.snapshot(), before);
            prop_assert_eq!(db.commits(), commits);
        }
    }

    /// diff(a, a) is empty; diff(a, b) is empty iff a == b.
    #[test]
    fn diff_laws(ops_a in proptest::collection::vec(arb_op(), 0..30),
                 ops_b in proptest::collection::vec(arb_op(), 0..30)) {
        let mk = |ops: &[WriteOp]| {
            let db = Database::new();
            for op in ops {
                let _ = db.batch(std::slice::from_ref(op));
            }
            db.snapshot().materialize()
        };
        let a = mk(&ops_a);
        let b = mk(&ops_b);
        prop_assert!(diff(&a, &a).is_empty());
        prop_assert_eq!(diff(&a, &b).is_empty(), a == b);
    }

    /// WAL text serialization round-trips and recovery rebuilds the exact
    /// store and commit count, for any random workload — from the full
    /// history and from a checkpoint alike.
    #[test]
    fn wal_persistence_round_trip(ops in proptest::collection::vec(arb_op(), 0..50)) {
        let db = Database::new();
        db.set_wal_floor(Some(0)); // dump real history first
        for op in ops {
            let _ = db.batch(std::slice::from_ref(&op));
        }
        let records = db.wal_records();
        let text = encode_wal(&records);
        prop_assert_eq!(decode_wal(&text).unwrap(), records);
        let recovered = Database::recover(&text).unwrap();
        prop_assert_eq!(recovered.snapshot(), db.snapshot());
        prop_assert_eq!(recovered.commits(), db.commits());
        prop_assert_eq!(
            recovered.snapshot().shard_versions(),
            db.snapshot().shard_versions()
        );

        // Releasing the floor turns the dump into a checkpoint, which
        // recovers to the same store and commit count.
        db.set_wal_floor(None);
        let checkpoint = db.dump_wal();
        prop_assert_eq!(decode_wal(&checkpoint).unwrap(), db.checkpoint());
        let restored = Database::recover(&checkpoint).unwrap();
        prop_assert_eq!(restored.snapshot(), db.snapshot());
        prop_assert_eq!(restored.commits(), db.commits());
        // A second dump of either recovered database is byte-identical
        // to the checkpoint.
        prop_assert_eq!(recovered.dump_wal(), checkpoint.clone());
        prop_assert_eq!(restored.dump_wal(), checkpoint);
    }

    /// Scoped attribute writes touch exactly the matching devices.
    #[test]
    fn scoped_set_touches_only_scope(
        devices in proptest::collection::btree_set(arb_device(), 1..12),
        dc in 1u32..4,
    ) {
        let db = Database::new();
        for d in &devices {
            db.insert_device(d, vec![]).unwrap();
        }
        let scope = Pattern::from_glob(&format!("dc{dc:02}.*")).unwrap();
        let before = db.snapshot().materialize();
        let written = db.set_attr(&scope, "MARK", 1i64.into()).unwrap();
        let after = db.snapshot().materialize();
        for d in &devices {
            let changed = before.devices[d] != after.devices[d];
            prop_assert_eq!(changed, scope.matches(d));
            prop_assert_eq!(written.contains(d), scope.matches(d));
        }
    }
}
