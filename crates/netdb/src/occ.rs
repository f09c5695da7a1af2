//! Optimistic concurrency control: staged writes over a frozen snapshot.
//!
//! The 2PL runtime serializes every task through the lock tree even when
//! the task is read-mostly and a zero-cost consistent view already
//! exists (the sharded [`StoreSnapshot`]). The OCC fast path lets a task
//! run entirely against a frozen snapshot:
//!
//! 1. reads are served from the snapshot (lock-free, consistent);
//! 2. writes are *staged* into a [`StagedStore`] — a private
//!    copy-on-write fork of the snapshot that validates each batch with
//!    the same rules as [`Database::batch`] and supports
//!    read-your-writes via [`StagedStore::overlay`];
//! 3. at commit, [`Database::occ_publish`] compares the per-shard
//!    version counters of every shard the task read or wrote against
//!    the currently published state. If none moved, the staged shards
//!    are grafted on and published through the ordinary writer-mutex
//!    commit protocol; otherwise the task conflicted and the caller
//!    retries or falls back to 2PL.
//!
//! Validation at shard granularity is conservative (two tasks touching
//! different devices in one shard still conflict) but cheap — O(touched
//! shards) integer compares — and sound: a clean validation proves the
//! task's entire read set is unchanged at the commit point, so the
//! execution is equivalent to running serially at publication.

use crate::db::{Database, WriteOp};
use crate::error::DbResult;
use crate::shard::{ShardData, StoreSnapshot, StoreState};
use crate::wal::WalRecord;
use std::sync::Arc;

/// Result of an [`Database::occ_publish`] attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OccOutcome {
    /// Validation passed and the staged batch was published. `seq` is
    /// the WAL commit sequence of the batch (the writes become visible
    /// at commit count `seq + 1`); for an empty staged store it is the
    /// commit count the read-only task serialized at.
    Committed {
        /// WAL commit sequence (or serialization point when read-only).
        seq: u64,
    },
    /// Another commit touched a shard in the task's read or write set
    /// since its snapshot was taken; nothing was published.
    Conflict {
        /// Index of the first shard that failed validation.
        shard: usize,
    },
}

/// A task-private fork of the store: buffered, validated writes over a
/// frozen base snapshot.
///
/// Writes applied here are invisible to every other task until
/// [`Database::occ_publish`] grafts them onto the published state. The
/// fork shares every untouched shard with the base by `Arc`, so its
/// cost is proportional to the shards actually written.
#[derive(Debug)]
pub struct StagedStore {
    base: StoreSnapshot,
    work: StoreState,
    records: Vec<WalRecord>,
}

impl StagedStore {
    /// Forks a staging area off a frozen base snapshot.
    pub fn new(base: StoreSnapshot) -> StagedStore {
        let work = (*base.state).clone();
        StagedStore {
            base,
            work,
            records: Vec::new(),
        }
    }

    /// The frozen snapshot this staging area forked from.
    pub fn base(&self) -> &StoreSnapshot {
        &self.base
    }

    pub(crate) fn base_state(&self) -> &StoreState {
        &self.base.state
    }

    /// Validates and stages one atomic batch against the working state
    /// (base snapshot plus every previously staged batch). All ops
    /// validate before any applies, mirroring [`Database::batch`]; a
    /// failed batch stages nothing.
    pub fn apply(&mut self, ops: &[WriteOp]) -> DbResult<()> {
        Database::validate(&self.work, ops)?;
        let records: Vec<WalRecord> = ops.iter().map(Database::to_record).collect();
        for r in &records {
            self.work.apply(r);
        }
        self.records.extend(records);
        Ok(())
    }

    /// A read-your-writes view: the base snapshot with every staged
    /// batch applied. O(shards) to take, like any snapshot.
    pub fn overlay(&self) -> StoreSnapshot {
        StoreSnapshot {
            state: Arc::new(self.work.clone()),
        }
    }

    /// True if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of staged redo records.
    pub fn num_records(&self) -> usize {
        self.records.len()
    }

    /// The staged redo records, in application order.
    pub(crate) fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Indices of the shards the staged batches modified, detected by
    /// `Arc` pointer inequality against the base — which captures every
    /// side effect, including delete cascades into neighboring shards.
    pub(crate) fn dirty_shards(&self) -> Vec<usize> {
        self.work
            .shards
            .iter()
            .zip(self.base.state.shards.iter())
            .enumerate()
            .filter(|(_, (w, b))| !Arc::ptr_eq(w, b))
            .map(|(i, _)| i)
            .collect()
    }

    pub(crate) fn shard(&self, idx: usize) -> Arc<ShardData> {
        Arc::clone(&self.work.shards[idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_of;
    use crate::value::AttrValue;
    use occam_regex::Pattern;
    use std::collections::BTreeSet;

    fn set(name: &str, attr: &str, v: i64) -> WriteOp {
        WriteOp::SetDeviceAttr {
            name: name.into(),
            attr: attr.into(),
            value: AttrValue::Int(v),
        }
    }

    /// A seeded database that keeps its whole WAL, for replay checks.
    fn seeded() -> Database {
        let db = Database::new();
        db.set_wal_floor(Some(0));
        for sw in 0..4 {
            db.insert_device(&format!("dc01.pod00.sw{sw:02}"), vec![])
                .unwrap();
            db.insert_device(&format!("dc01.pod01.sw{sw:02}"), vec![])
                .unwrap();
        }
        db
    }

    #[test]
    fn staged_writes_are_invisible_until_published() {
        let db = seeded();
        let mut staged = StagedStore::new(db.snapshot());
        staged.apply(&[set("dc01.pod00.sw00", "X", 7)]).unwrap();
        // Read-your-writes through the overlay, invisible outside.
        let pat = Pattern::from_glob("dc01.pod00.sw00").unwrap();
        assert_eq!(staged.overlay().get_attr(&pat, "X").len(), 1);
        assert!(db.snapshot().get_attr(&pat, "X").is_empty());
        let out = db.occ_publish(&staged, &BTreeSet::new()).unwrap();
        assert!(matches!(out, OccOutcome::Committed { .. }));
        assert_eq!(db.snapshot().get_attr(&pat, "X").len(), 1);
        // WAL replay agrees with the published state, versions included.
        let replayed = StoreSnapshot::replay(&db.wal_records());
        assert_eq!(replayed, db.snapshot());
        assert_eq!(replayed.shard_versions(), db.snapshot().shard_versions());
    }

    #[test]
    fn conflicting_commit_fails_validation() {
        let db = seeded();
        let mut staged = StagedStore::new(db.snapshot());
        staged.apply(&[set("dc01.pod00.sw00", "X", 1)]).unwrap();
        // Interleaved commit to the same shard.
        db.set_attr(
            &Pattern::from_glob("dc01.pod00.sw01").unwrap(),
            "Y",
            AttrValue::Int(2),
        )
        .unwrap();
        let out = db.occ_publish(&staged, &BTreeSet::new()).unwrap();
        assert_eq!(
            out,
            OccOutcome::Conflict {
                shard: shard_of("dc01.pod00.sw00")
            }
        );
        // Nothing published.
        assert!(db
            .snapshot()
            .get_attr(&Pattern::from_glob("dc01.pod00.sw00").unwrap(), "X")
            .is_empty());
    }

    #[test]
    fn read_set_is_validated_even_without_writes_to_it() {
        let db = seeded();
        let snap = db.snapshot();
        let mut staged = StagedStore::new(snap);
        staged.apply(&[set("dc01.pod00.sw00", "X", 1)]).unwrap();
        // The task read pod01 (a different shard) — a commit there must
        // invalidate it even though the write set is untouched.
        let read_shard = shard_of("dc01.pod01.sw00");
        db.set_attr(
            &Pattern::from_glob("dc01.pod01.sw00").unwrap(),
            "Y",
            AttrValue::Int(2),
        )
        .unwrap();
        let reads: BTreeSet<usize> = [read_shard].into();
        let out = db.occ_publish(&staged, &reads).unwrap();
        assert_eq!(out, OccOutcome::Conflict { shard: read_shard });
    }

    #[test]
    fn empty_staged_store_serializes_at_base_count() {
        let db = seeded();
        let staged = StagedStore::new(db.snapshot());
        let base_commits = db.commits();
        // Later commits never conflict with a read-only task: its whole
        // execution is the base snapshot, so it serializes there.
        db.set_attr(
            &Pattern::from_glob("dc01.pod00.sw01").unwrap(),
            "Y",
            AttrValue::Int(2),
        )
        .unwrap();
        let out = db.occ_publish(&staged, &BTreeSet::new()).unwrap();
        assert_eq!(out, OccOutcome::Committed { seq: base_commits });
        assert_eq!(
            db.commits(),
            base_commits + 1,
            "read-only publish appends nothing"
        );
    }

    #[test]
    fn staged_batches_validate_like_database_batches() {
        let db = seeded();
        let mut staged = StagedStore::new(db.snapshot());
        // Batch referencing a missing device fails atomically.
        let err = staged
            .apply(&[set("dc01.pod00.sw00", "X", 1), set("missing", "X", 1)])
            .unwrap_err();
        assert!(matches!(err, crate::error::DbError::NoSuchDevice(_)));
        assert!(staged.is_empty());
        // Delete cascade dirties neighbor shards too.
        db.insert_link("dc01.pod00.sw00", "dc01.pod01.sw00", vec![])
            .unwrap();
        let mut staged = StagedStore::new(db.snapshot());
        staged
            .apply(&[WriteOp::DeleteDevice {
                name: "dc01.pod00.sw00".into(),
            }])
            .unwrap();
        let dirty = staged.dirty_shards();
        assert!(dirty.contains(&shard_of("dc01.pod00.sw00")));
        assert!(dirty.contains(&shard_of("dc01.pod01.sw00")));
    }
}
