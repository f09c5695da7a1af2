//! Follower replicas: databases that apply shipped WAL batches through
//! the normal commit protocol so they stay byte-identical to the leader.

use super::ReplObs;
use crate::db::Database;
use crate::shard::StoreSnapshot;
use crate::wal::WalRecord;
use occam_obs::Registry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One unit of leader→follower traffic (the in-process form; [`super::msg`]
/// carries the same shapes over TCP).
#[derive(Clone, Debug)]
pub enum Shipment {
    /// Full-state bootstrap: install this snapshot, which contains the
    /// first `base_commits` commits, and continue from there.
    Snapshot {
        /// The consistent state to install (O(shards) `Arc` bumps).
        snap: StoreSnapshot,
        /// Commits the snapshot contains; the follower's WAL re-bases here.
        base_commits: u64,
        /// When the leader captured the shipment, for lag accounting.
        shipped_at: Instant,
    },
    /// A WAL suffix: zero or more complete batches, each terminated by
    /// its `Commit` marker, starting at commit sequence `first_seq`.
    Entries {
        /// Sequence of the first batch in `records`.
        first_seq: u64,
        /// The raw WAL records, commit markers included.
        records: Vec<WalRecord>,
        /// When the leader captured the shipment, for lag accounting.
        shipped_at: Instant,
    },
    /// No new commits; carries the leader's current commit count so the
    /// follower can track its own staleness.
    Heartbeat {
        /// The leader's commit count at send time.
        commits: u64,
    },
}

/// A follower replica: wraps a [`Database`] that is only ever written by
/// [`Follower::ingest`], plus crash/truncation helpers for the chaos and
/// regression suites.
#[derive(Debug)]
pub struct Follower {
    id: u32,
    /// Behind a mutex so [`Follower::crash_reset`] can swap in a fresh
    /// database (simulated total state loss) while readers hold the old
    /// `Arc` safely.
    db: Mutex<Arc<Database>>,
    /// Last leader commit count heard (entries or heartbeat).
    leader_commits: AtomicU64,
    obs: ReplObs,
}

impl Follower {
    /// Creates an empty follower whose instruments bind to `reg`.
    pub fn new(id: u32, reg: &Registry) -> Follower {
        Follower {
            id,
            db: Mutex::new(Arc::new(Database::with_obs(reg))),
            leader_commits: AtomicU64::new(0),
            obs: ReplObs::bound(reg),
        }
    }

    /// This follower's id (stable across partitions and rejoins).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The follower's database handle (serves routed reads; promoted to
    /// leader on failover).
    pub fn db(&self) -> Arc<Database> {
        Arc::clone(&self.db.lock())
    }

    /// Commits this follower has durably applied — its confirmed prefix.
    pub fn commits(&self) -> u64 {
        self.db().commits()
    }

    /// The leader commit count last heard from the stream.
    pub fn leader_commits(&self) -> u64 {
        self.leader_commits.load(Ordering::Acquire)
    }

    /// This follower's staleness in commits, relative to the last heard
    /// leader position.
    pub fn lag(&self) -> u64 {
        self.leader_commits().saturating_sub(self.commits())
    }

    /// A consistent snapshot of the follower's current state.
    pub fn snapshot(&self) -> StoreSnapshot {
        self.db().snapshot()
    }

    /// Applies one shipment. Entries are split at their commit markers
    /// and each batch runs the full commit protocol at the leader's
    /// sequence number; batches at or below the follower's confirmed
    /// prefix are deduplicated (re-shipping after a heal is idempotent),
    /// and a gap past the confirmed prefix is an error.
    pub fn ingest(&self, shipment: Shipment) -> Result<(), String> {
        match shipment {
            Shipment::Heartbeat { commits } => {
                self.leader_commits.fetch_max(commits, Ordering::AcqRel);
                Ok(())
            }
            Shipment::Snapshot {
                snap,
                base_commits,
                shipped_at,
            } => {
                self.leader_commits
                    .fetch_max(base_commits, Ordering::AcqRel);
                let db = self.db();
                if base_commits <= db.commits() {
                    return Ok(()); // stale re-ship; nothing to do
                }
                db.install_snapshot(&snap, base_commits);
                self.obs.applied.inc();
                self.obs
                    .lag_ns
                    .record(shipped_at.elapsed().as_nanos() as u64);
                Ok(())
            }
            Shipment::Entries {
                first_seq,
                records,
                shipped_at,
            } => {
                let db = self.db();
                let mut batch: Vec<WalRecord> = Vec::new();
                let mut seq = first_seq;
                for rec in records {
                    match rec {
                        WalRecord::Commit { seq: marked } => {
                            if marked != seq {
                                return Err(format!(
                                    "shipped stream corrupt: commit {marked} where {seq} expected"
                                ));
                            }
                            let confirmed = db.commits();
                            if seq >= confirmed {
                                if seq > confirmed {
                                    return Err(format!(
                                        "gap in shipped stream: batch {seq} past confirmed {confirmed}"
                                    ));
                                }
                                db.apply_replicated(&batch, seq)?;
                                self.obs.applied.inc();
                                self.obs
                                    .lag_ns
                                    .record(shipped_at.elapsed().as_nanos() as u64);
                            }
                            batch.clear();
                            seq += 1;
                        }
                        other => batch.push(other),
                    }
                }
                // Records after the last commit marker belong to an
                // uncommitted batch and are dropped — commit markers are
                // the unit of durability.
                self.leader_commits.fetch_max(seq, Ordering::AcqRel);
                Ok(())
            }
        }
    }

    /// Simulates a crash with total state loss: the database is replaced
    /// by an empty one, so the next shipping round bootstraps the
    /// follower from scratch (full WAL or snapshot).
    pub fn crash_reset(&self) {
        let reg = self.db().obs().clone();
        *self.db.lock() = Arc::new(Database::with_obs(&reg));
        self.leader_commits.store(0, Ordering::Release);
    }

    /// Simulates a crash that loses everything past a dump taken
    /// earlier (a torn write on the follower's disk): the database is
    /// rebuilt from `dump` — a [`Database::dump_wal`] text, full WAL or
    /// checkpoint — and resumes at the commit count it carries, so the
    /// next shipping round re-sends the lost suffix.
    pub fn recover_from(&self, dump: &str) -> Result<(), String> {
        let records = crate::persist::decode(dump).map_err(|e| e.to_string())?;
        let fresh = Database::with_obs(self.db().obs());
        fresh.install_recovered(&records);
        *self.db.lock() = Arc::new(fresh);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A leader that keeps its whole WAL, so tests can ship real history.
    fn pinned_leader() -> Database {
        let db = Database::new();
        db.set_wal_floor(Some(0));
        db
    }

    fn entries(db: &Database) -> Shipment {
        Shipment::Entries {
            first_seq: 0,
            records: db.wal_records(),
            shipped_at: Instant::now(),
        }
    }

    #[test]
    fn ingest_applies_and_dedups() {
        let leader = pinned_leader();
        leader.insert_device("dc01.pod00.sw00", vec![]).unwrap();
        leader.insert_device("dc01.pod00.sw01", vec![]).unwrap();
        let f = Follower::new(0, &Registry::new());
        f.ingest(entries(&leader)).unwrap();
        assert_eq!(f.commits(), 2);
        // Re-shipping the same suffix is idempotent.
        f.ingest(entries(&leader)).unwrap();
        assert_eq!(f.commits(), 2);
        assert_eq!(f.snapshot(), leader.snapshot());
    }

    #[test]
    fn ingest_rejects_gaps() {
        let leader = pinned_leader();
        leader.insert_device("a", vec![]).unwrap();
        leader.insert_device("b", vec![]).unwrap();
        let f = Follower::new(0, &Registry::new());
        let (_, suffix) = leader.wal_suffix_after_commits(1).unwrap();
        let err = f
            .ingest(Shipment::Entries {
                first_seq: 1,
                records: suffix,
                shipped_at: Instant::now(),
            })
            .unwrap_err();
        assert!(err.contains("gap"), "{err}");
        assert_eq!(f.commits(), 0);
    }

    #[test]
    fn snapshot_bootstrap_rebases() {
        let leader = pinned_leader();
        for i in 0..4 {
            leader.insert_device(&format!("d{i}"), vec![]).unwrap();
        }
        let (snap, commits) = leader.snapshot_with_commits();
        let f = Follower::new(0, &Registry::new());
        f.ingest(Shipment::Snapshot {
            snap,
            base_commits: commits,
            shipped_at: Instant::now(),
        })
        .unwrap();
        assert_eq!(f.commits(), 4);
        assert_eq!(f.db().wal_base_commits(), 4);
        assert_eq!(f.snapshot(), leader.snapshot());
        // The entry stream continues past the snapshot.
        leader.insert_device("d9", vec![]).unwrap();
        let (first_seq, records) = leader.wal_suffix_after_commits(f.commits()).unwrap();
        f.ingest(Shipment::Entries {
            first_seq,
            records,
            shipped_at: Instant::now(),
        })
        .unwrap();
        assert_eq!(f.snapshot(), leader.snapshot());
    }

    #[test]
    fn trailing_uncommitted_records_are_dropped() {
        let leader = pinned_leader();
        leader.insert_device("a", vec![]).unwrap();
        let mut records = leader.wal_records();
        records.push(WalRecord::InsertDevice {
            name: "torn".into(),
            attrs: vec![],
        });
        let f = Follower::new(0, &Registry::new());
        f.ingest(Shipment::Entries {
            first_seq: 0,
            records,
            shipped_at: Instant::now(),
        })
        .unwrap();
        assert_eq!(f.commits(), 1);
        assert!(!f.db().device_exists("torn").unwrap());
    }
}
