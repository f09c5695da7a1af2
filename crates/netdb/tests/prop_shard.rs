//! Property tests for the sharded store: replay equivalence against the
//! naive `Store`, scoped-read equivalence, and snapshot immutability
//! under concurrent writers.
//!
//! These drive *raw WAL records* (not validated `WriteOp` batches), so
//! the sequences include the adversarial cases validation would reject:
//! records referencing missing rows, self-links, repeated inserts, and
//! names outside the `dcNN.podNN` scheme that land in the catch-all
//! shard.

use occam_netdb::wal::WalRecord;
use occam_netdb::{AttrValue, Database, Store, StoreSnapshot, WriteOp};
use occam_regex::Pattern;
use proptest::prelude::*;

/// Names across several shards, plus non-conforming ones (catch-all).
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => (0u32..3, 0u32..3, 0u32..3)
            .prop_map(|(dc, pod, sw)| format!("dc{:02}.pod{:02}.sw{:02}", dc + 1, pod, sw)),
        1 => (0u32..2, 0u32..2).prop_map(|(dc, c)| format!("dc{:02}.core.c{c:02}", dc + 1)),
        1 => (0u32..3).prop_map(|n| format!("oob-{n}")),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (arb_name(), 0i64..4).prop_map(|(name, v)| WalRecord::InsertDevice {
            name,
            attrs: vec![("A".into(), v.into())],
        }),
        arb_name().prop_map(|name| WalRecord::DeleteDevice { name }),
        (arb_name(), 0i64..4).prop_map(|(name, v)| WalRecord::SetDeviceAttr {
            name,
            attr: "X".into(),
            value: v.into(),
        }),
        arb_name().prop_map(|name| WalRecord::UnsetDeviceAttr {
            name,
            attr: "X".into(),
        }),
        (arb_name(), arb_name()).prop_map(|(a, z)| WalRecord::InsertLink {
            a_end: a,
            z_end: z,
            attrs: vec![],
        }),
        (arb_name(), arb_name()).prop_map(|(a, z)| WalRecord::DeleteLink { a_end: a, z_end: z }),
        (arb_name(), arb_name(), 0i64..4).prop_map(|(a, z, v)| WalRecord::SetLinkAttr {
            a_end: a,
            z_end: z,
            attr: "S".into(),
            value: v.into(),
        }),
        (arb_name(), arb_name()).prop_map(|(a, z)| WalRecord::UnsetLinkAttr {
            a_end: a,
            z_end: z,
            attr: "S".into(),
        }),
    ]
}

/// Scopes exercising every routing case: pinned (dc, pod) shard,
/// unroutable prefixes, the catch-all shard, and match-everything.
fn arb_scope() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (0u32..3, 0u32..3).prop_map(|(dc, pod)| format!("dc{:02}.pod{:02}.*", dc + 1, pod)),
        (0u32..3).prop_map(|dc| format!("dc{:02}.*", dc + 1)),
        Just("oob-*".to_string()),
        Just("*".to_string()),
    ]
    .prop_map(|glob| Pattern::from_glob(&glob).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded replay is extensionally equal to naive replay over any
    /// record sequence, and never breaks the shard invariants.
    #[test]
    fn sharded_replay_equals_naive(recs in proptest::collection::vec(arb_record(), 0..80)) {
        let sharded = StoreSnapshot::replay(&recs);
        let naive = Store::replay(&recs);
        prop_assert_eq!(&sharded, &naive);
        prop_assert_eq!(sharded.materialize(), naive);
        sharded.self_check().map_err(TestCaseError::fail)?;
    }

    /// Every scoped read on the snapshot agrees with a linear scan of the
    /// materialized flat store, for scopes across all routing cases.
    #[test]
    fn scoped_reads_match_flat_scan(
        recs in proptest::collection::vec(arb_record(), 0..60),
        scope in arb_scope(),
    ) {
        let snap = StoreSnapshot::replay(&recs);
        let flat = Store::replay(&recs);

        let expect_devices: Vec<String> =
            flat.devices.keys().filter(|n| scope.matches(n)).cloned().collect();
        prop_assert_eq!(snap.select_devices(&scope), expect_devices);

        let expect_attr: std::collections::BTreeMap<String, AttrValue> = flat
            .devices
            .iter()
            .filter(|(n, _)| scope.matches(n))
            .filter_map(|(n, d)| d.attrs.get("X").map(|v| (n.clone(), v.clone())))
            .collect();
        prop_assert_eq!(snap.get_attr(&scope, "X"), expect_attr);

        let expect_links: Vec<_> = flat
            .links
            .keys()
            .filter(|(a, z)| scope.matches(a) || scope.matches(z))
            .cloned()
            .collect();
        prop_assert_eq!(snap.links_touching(&scope), expect_links);

        let expect_link_attr: std::collections::BTreeMap<_, _> = flat
            .links
            .iter()
            .filter(|((a, z), _)| scope.matches(a) || scope.matches(z))
            .filter_map(|(k, l)| l.attrs.get("S").map(|v| (k.clone(), v.clone())))
            .collect();
        prop_assert_eq!(snap.get_link_attr(&scope, "S"), expect_link_attr);
    }

    /// A snapshot taken before more commits never changes, and replaying
    /// the WAL prefix it was taken at reproduces it exactly.
    #[test]
    fn snapshots_are_stable_versions(
        recs_a in proptest::collection::vec(arb_record(), 0..30),
        recs_b in proptest::collection::vec(arb_record(), 1..30),
    ) {
        let db = Database::new();
        db.set_wal_floor(Some(0)); // replay real history, not a checkpoint
        // Drive through raw-record batches via install_recovered-free path:
        // batch() validates, so route records through replay comparison
        // instead — commit each record that validates as a WriteOp-free
        // direct snapshot check is covered above. Here we use set-style
        // batches derived from the records' device names.
        for r in &recs_a {
            if let WalRecord::InsertDevice { name, attrs } = r {
                let _ = db.batch(&[WriteOp::InsertDevice {
                    name: name.clone(),
                    attrs: attrs.clone(),
                }]);
            }
        }
        let frozen = db.snapshot();
        let frozen_flat = frozen.materialize();
        let wal_at_freeze = db.wal_records();
        for r in &recs_b {
            match r {
                WalRecord::InsertDevice { name, attrs } => {
                    let _ = db.batch(&[WriteOp::InsertDevice {
                        name: name.clone(),
                        attrs: attrs.clone(),
                    }]);
                }
                WalRecord::DeleteDevice { name } => {
                    let _ = db.batch(&[WriteOp::DeleteDevice { name: name.clone() }]);
                }
                WalRecord::SetDeviceAttr { name, attr, value } => {
                    let _ = db.batch(&[WriteOp::SetDeviceAttr {
                        name: name.clone(),
                        attr: attr.clone(),
                        value: value.clone(),
                    }]);
                }
                _ => {}
            }
        }
        // The old handle still reads the frozen version.
        prop_assert_eq!(&frozen, &frozen_flat);
        prop_assert_eq!(StoreSnapshot::replay(&wal_at_freeze), frozen_flat);
        // And the live DB still replays to its own (newer) state.
        prop_assert_eq!(Store::replay(&db.wal_records()), db.snapshot());
    }
}

/// Threaded stress: readers hold snapshots while writers commit. Each
/// snapshot must be immutable (repeated reads identical) and internally
/// consistent (the paired marker attributes a writer commits atomically
/// are never observed torn).
#[test]
fn snapshot_immutable_and_consistent_under_writers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let db = Arc::new(Database::new());
    db.set_wal_floor(Some(0)); // replay real history, not a checkpoint
    let pods = 4usize;
    for pod in 0..pods {
        for sw in 0..4 {
            db.insert_device(&format!("dc01.pod{pod:02}.sw{sw:02}"), vec![])
                .unwrap();
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..2u32 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                // One atomic batch sets L and R to the same value across
                // two pods; no snapshot may ever see L != R.
                let v = AttrValue::Int(i);
                db.batch(&[
                    WriteOp::SetDeviceAttr {
                        name: format!("dc01.pod{:02}.sw00", t * 2),
                        attr: "L".into(),
                        value: v.clone(),
                    },
                    WriteOp::SetDeviceAttr {
                        name: format!("dc01.pod{:02}.sw00", t * 2 + 1),
                        attr: "R".into(),
                        value: v,
                    },
                ])
                .unwrap();
                i += 1;
            }
        }));
    }
    let all = Pattern::from_glob("dc01.*").unwrap();
    for _ in 0..200 {
        let snap = db.snapshot();
        let first = snap.get_all(&all);
        // Torn-batch check: paired markers agree within one version.
        for t in 0..2u32 {
            let l = first
                .get(&format!("dc01.pod{:02}.sw00", t * 2))
                .and_then(|m| m.get("L"));
            let r = first
                .get(&format!("dc01.pod{:02}.sw00", t * 2 + 1))
                .and_then(|m| m.get("R"));
            assert_eq!(l, r, "snapshot observed a torn batch");
        }
        // Immutability check: the handle re-reads identically while
        // writers keep committing.
        assert_eq!(snap.get_all(&all), first);
        snap.self_check().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    // The final state still replays exactly from the WAL.
    assert_eq!(Store::replay(&db.wal_records()), db.snapshot());
}
