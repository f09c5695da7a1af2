//! Write-ahead logging for the network database.
//!
//! Every committed mutation is appended to the WAL before it becomes
//! visible (ARIES-style, simplified to redo-only records since queries are
//! applied atomically). Replaying the WAL from an empty store reconstructs
//! the exact database state — a property the test suite checks after random
//! workloads.

use crate::shard::StoreSnapshot;
use crate::value::AttrValue;
use std::collections::VecDeque;

/// One redo record.
#[derive(Clone, PartialEq, Debug)]
pub enum WalRecord {
    /// A device row was inserted with the given attributes.
    InsertDevice {
        /// Device name.
        name: String,
        /// Initial attributes.
        attrs: Vec<(String, AttrValue)>,
    },
    /// A device row was deleted.
    DeleteDevice {
        /// Device name.
        name: String,
    },
    /// A device attribute was written.
    SetDeviceAttr {
        /// Device name.
        name: String,
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// A device attribute was removed.
    UnsetDeviceAttr {
        /// Device name.
        name: String,
        /// Attribute name.
        attr: String,
    },
    /// A link row was inserted.
    InsertLink {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
        /// Initial attributes.
        attrs: Vec<(String, AttrValue)>,
    },
    /// A link row was deleted.
    DeleteLink {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
    },
    /// A link attribute was written.
    SetLinkAttr {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
        /// Attribute name.
        attr: String,
        /// New value.
        value: AttrValue,
    },
    /// A link attribute was removed.
    UnsetLinkAttr {
        /// A-end device name.
        a_end: String,
        /// Z-end device name.
        z_end: String,
        /// Attribute name.
        attr: String,
    },
    /// Marks the atomic commit of the preceding records of one batch.
    Commit {
        /// Monotonic commit sequence number.
        seq: u64,
    },
}

/// An in-memory write-ahead log, bounded by a retention floor.
///
/// Commit sequence numbers are *global*: a log holds only the commits
/// from its base on — the snapshot base of a replica bootstrap, or the
/// retention floor its owner set — but keeps numbering where the history
/// left off, so a replica's "durable WAL prefix" is always comparable
/// across the replica set by [`Wal::num_commits`] alone.
///
/// Records of commits below the floor are dropped as the floor passes
/// them. With no floor (the default) the log keeps nothing past the
/// current commit: the published state is the only copy, and a reader
/// who needs history either pinned the floor in time or takes a
/// checkpoint instead (DESIGN.md §14).
#[derive(Clone, Default, Debug)]
pub struct Wal {
    /// Retained batches, oldest first: batch `i` holds the records of
    /// commit `base_seq + i` followed by its `Commit` marker, so shipping
    /// a suffix after N commits is an O(suffix) walk, not an O(log) scan.
    batches: VecDeque<Vec<WalRecord>>,
    next_seq: u64,
    /// First commit sequence this log physically holds records for.
    base_seq: u64,
    /// Commits below the floor are dropped; `None` keeps none at all.
    floor: Option<u64>,
    /// Records held, commit markers excluded.
    retained: usize,
    /// The state at `base_seq`, when a floor was pinned on an empty log
    /// (a log from commit 0 starts at the empty state). Dropped at the
    /// first trim.
    base_state: Option<StoreSnapshot>,
}

impl Wal {
    /// Creates an empty log.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// Appends the records of one atomic batch followed by a commit marker,
    /// returning the commit sequence number.
    pub fn append_batch(&mut self, records: impl IntoIterator<Item = WalRecord>) -> u64 {
        let seq = self.next_seq;
        self.push(records, seq);
        seq
    }

    /// Appends one replicated batch at a *forced* commit sequence — the
    /// follower-side half of WAL shipping. Fails (without mutating the
    /// log) unless `seq` is exactly the next expected sequence, so a
    /// shipped stream can neither skip nor double-apply a commit.
    pub(crate) fn append_batch_at(
        &mut self,
        records: impl IntoIterator<Item = WalRecord>,
        seq: u64,
    ) -> Result<(), String> {
        if seq != self.next_seq {
            return Err(format!(
                "replicated commit {seq} out of order: expected {}",
                self.next_seq
            ));
        }
        self.push(records, seq);
        Ok(())
    }

    fn push(&mut self, records: impl IntoIterator<Item = WalRecord>, seq: u64) {
        self.next_seq = seq + 1;
        if self.floor.is_none() {
            // Nothing would survive the trim below: skip the copy.
            self.base_seq = self.next_seq;
            self.base_state = None;
            return;
        }
        let mut batch: Vec<WalRecord> = records.into_iter().collect();
        self.retained += batch.len();
        batch.push(WalRecord::Commit { seq });
        self.batches.push_back(batch);
        self.trim();
    }

    /// Whether appended records are kept at all (a floor is set).
    pub fn keeps_records(&self) -> bool {
        self.floor.is_some()
    }

    /// Sets the retention floor: records of commits below `floor` are
    /// dropped now and as later commits pass it; `None` keeps nothing
    /// past the current commit. Trimmed history never comes back, so
    /// lowering the floor only stops further trimming.
    pub fn set_floor(&mut self, floor: Option<u64>) {
        self.floor = floor;
        self.trim();
    }

    /// Pins a floor at the current commit of an empty, unpinned log, so
    /// [`Wal::history`] stays available: the checkpoint of the state
    /// there, from `state()`, followed by every later commit. Returns
    /// false, changing nothing, if the log is not in that position or
    /// the state is not at its commit.
    pub(crate) fn pin_at(&mut self, state: impl FnOnce() -> StoreSnapshot) -> bool {
        if self.floor.is_some() || self.base_seq != self.next_seq {
            return false;
        }
        let state = state();
        if state.commits() != self.next_seq {
            return false;
        }
        self.floor = Some(self.next_seq);
        self.base_state = Some(state);
        true
    }

    /// A record sequence that replays to the state after the last commit,
    /// with real history from the base on: the checkpoint of the base
    /// state, then every retained batch. `None` when the base state is
    /// unknown (the log was trimmed or re-based since it was pinned).
    pub fn history(&self) -> Option<Vec<WalRecord>> {
        let mut out = match (&self.base_state, self.base_seq) {
            (Some(state), _) => state.checkpoint(),
            (None, 0) => Vec::new(),
            (None, _) => return None,
        };
        out.extend(self.batches.iter().flatten().cloned());
        Some(out)
    }

    /// Drops the batches below the floor (or all of them, with none).
    fn trim(&mut self) {
        let keep_from = self.floor.unwrap_or(self.next_seq).min(self.next_seq);
        if self.base_seq < keep_from {
            self.base_state = None;
        }
        while self.base_seq < keep_from {
            if let Some(batch) = self.batches.pop_front() {
                self.retained -= batch.len() - 1;
            }
            self.base_seq += 1;
        }
    }

    /// Re-bases an empty log so numbering continues from `base` — used
    /// when a replica bootstraps from a state snapshot or a checkpoint
    /// rather than the full history. The log then physically holds only
    /// commits `base..`, while [`Wal::num_commits`] stays globally
    /// comparable.
    pub(crate) fn rebase(&mut self, base: u64) {
        self.batches.clear();
        self.base_state = None;
        self.retained = 0;
        self.base_seq = base;
        self.next_seq = base;
    }

    /// First commit sequence this log physically holds records for.
    pub fn base_commits(&self) -> u64 {
        self.base_seq
    }

    /// Records held, commit markers excluded (the
    /// `netdb.wal.retained_records` gauge).
    pub fn retained_records(&self) -> usize {
        self.retained
    }

    /// The records committed *after* the first `commits` commits, along
    /// with the sequence the suffix starts at. Returns `None` when the
    /// log no longer holds commit `commits` (trimmed below the floor, or
    /// re-based past it) — the caller must fall back to a snapshot
    /// transfer.
    pub(crate) fn suffix_after_commits(&self, commits: u64) -> Option<(u64, Vec<WalRecord>)> {
        if commits < self.base_seq {
            return None;
        }
        if commits >= self.next_seq {
            return Some((self.next_seq, Vec::new()));
        }
        let skip = (commits - self.base_seq) as usize;
        let records = self.batches.iter().skip(skip).flatten().cloned().collect();
        Some((commits, records))
    }

    /// Number of committed batches (globally numbered: a re-based log
    /// counts the commits below its base too).
    pub fn num_commits(&self) -> u64 {
        self.next_seq
    }

    /// Serializes the held records to a line-oriented text form (for
    /// debugging; the format is stable within a build).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in self.batches.iter().flatten() {
            out.push_str(&format!("{r:?}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_sequence_is_monotonic() {
        let mut wal = Wal::new();
        let a = wal.append_batch([WalRecord::DeleteDevice { name: "x".into() }]);
        let b = wal.append_batch(Vec::<WalRecord>::new());
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(wal.num_commits(), 2);
    }

    #[test]
    fn records_preserved_in_order() {
        let mut wal = Wal::new();
        wal.set_floor(Some(0));
        wal.append_batch([
            WalRecord::InsertDevice {
                name: "d1".into(),
                attrs: vec![("A".into(), AttrValue::Int(1))],
            },
            WalRecord::SetDeviceAttr {
                name: "d1".into(),
                attr: "A".into(),
                value: AttrValue::Int(2),
            },
        ]);
        let records = wal.history().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(wal.retained_records(), 2);
        assert!(matches!(records[2], WalRecord::Commit { seq: 0 }));
    }

    #[test]
    fn dump_is_line_per_record() {
        let mut wal = Wal::new();
        wal.set_floor(Some(0));
        wal.append_batch([WalRecord::DeleteDevice { name: "x".into() }]);
        assert_eq!(wal.dump().lines().count(), 2);
    }

    #[test]
    fn floor_bounds_retention() {
        let rec = || WalRecord::DeleteDevice { name: "x".into() };
        // No floor: nothing is held, numbering continues.
        let mut wal = Wal::new();
        wal.append_batch([rec(), rec()]);
        assert_eq!((wal.base_commits(), wal.num_commits()), (1, 1));
        assert_eq!(wal.history(), None);
        assert_eq!(wal.suffix_after_commits(0), None);
        assert_eq!(wal.suffix_after_commits(1), Some((1, vec![])));

        // A floor keeps exactly the commits from it on.
        wal.set_floor(Some(1));
        for _ in 0..4 {
            wal.append_batch([rec()]);
        }
        assert_eq!(wal.retained_records(), 4);
        wal.set_floor(Some(3));
        assert_eq!((wal.base_commits(), wal.retained_records()), (3, 2));
        assert_eq!(wal.suffix_after_commits(2), None);
        let (first, suffix) = wal.suffix_after_commits(4).unwrap();
        assert_eq!(first, 4);
        assert_eq!(suffix, vec![rec(), WalRecord::Commit { seq: 4 }]);

        // Lowering the floor cannot bring trimmed history back.
        wal.set_floor(Some(0));
        assert_eq!(wal.base_commits(), 3);
        wal.set_floor(None);
        assert_eq!((wal.base_commits(), wal.retained_records()), (5, 0));
    }
}
