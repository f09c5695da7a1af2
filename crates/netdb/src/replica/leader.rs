//! The leader's acknowledgement surface: which commits are durable on a
//! quorum of followers, and how much WAL the reachable followers still
//! need.

use super::ReplObs;
use crate::db::Database;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The leader handle: the leader database plus the per-follower
/// acknowledgement table that defines which commits are *acknowledged*
/// (confirmed by at least `quorum` followers, hence guaranteed to survive
/// a [`super::ReplicaSet::failover`]).
///
/// The same table bounds the leader's WAL: every change to it sets the
/// leader database's retention floor to the minimum commit count the
/// *reachable* followers confirmed, so the WAL holds exactly the suffix
/// some reachable follower may still be shipped. An unreachable follower
/// holds nothing back; when it returns below the floor it rejoins by
/// snapshot.
#[derive(Debug)]
pub struct Leader {
    db: Arc<Database>,
    quorum: usize,
    acks: Mutex<AckTable>,
    acked_cv: Condvar,
    obs: ReplObs,
}

#[derive(Debug, Default)]
struct AckTable {
    /// follower id → highest commit count that follower has confirmed.
    confirmed: BTreeMap<u32, u64>,
    /// Followers the shipper cannot reach: their acks still count
    /// toward the quorum, but they no longer hold the WAL floor down.
    unreachable: BTreeSet<u32>,
}

impl AckTable {
    /// The minimum confirmed commit over the reachable followers; `None`
    /// when no follower is reachable.
    fn floor(&self) -> Option<u64> {
        self.confirmed
            .iter()
            .filter(|(id, _)| !self.unreachable.contains(id))
            .map(|(_, &c)| c)
            .min()
    }
}

impl Leader {
    /// Wraps a database as the replication leader. Crate-internal:
    /// leaders are built by [`super::ReplicaSet`].
    pub(crate) fn new(db: Arc<Database>, quorum: usize, obs: ReplObs) -> Leader {
        Leader {
            db,
            quorum,
            acks: Mutex::new(AckTable::default()),
            acked_cv: Condvar::new(),
            obs,
        }
    }

    /// The leader database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The configured durability quorum.
    pub fn quorum(&self) -> usize {
        self.quorum
    }

    /// Records that `follower`, which the shipper just reached, has
    /// confirmed its first `commits` commits. Monotonic per follower;
    /// moves the WAL floor and wakes any [`Leader::wait_acked`] callers.
    pub fn record_ack(&self, follower: u32, commits: u64) {
        let mut acks = self.acks.lock();
        acks.unreachable.remove(&follower);
        let slot = acks.confirmed.entry(follower).or_insert(0);
        let advanced = commits > *slot;
        *slot = (*slot).max(commits);
        self.db.set_wal_floor(acks.floor());
        drop(acks);
        if advanced {
            self.acked_cv.notify_all();
        }
    }

    /// Records that the shipper cannot reach `follower`: its confirmed
    /// commits stop holding the WAL floor down until it acks again.
    pub(crate) fn mark_unreachable(&self, follower: u32) {
        let mut acks = self.acks.lock();
        if acks.unreachable.insert(follower) {
            self.db.set_wal_floor(acks.floor());
        }
    }

    /// The minimum commit count the reachable followers confirmed — the
    /// leader WAL's retention floor — or `None` when none is reachable.
    pub fn reachable_min_ack(&self) -> Option<u64> {
        self.acks.lock().floor()
    }

    /// The acknowledged commit count: the largest `n` such that at least
    /// `quorum` followers have confirmed their first `n` commits. `0`
    /// until a quorum of followers has reported.
    pub fn acked(&self) -> u64 {
        Self::acked_of(&self.acks.lock(), self.quorum)
    }

    fn acked_of(acks: &AckTable, quorum: usize) -> u64 {
        if acks.confirmed.len() < quorum {
            return 0;
        }
        let mut confirmed: Vec<u64> = acks.confirmed.values().copied().collect();
        confirmed.sort_unstable_by(|a, b| b.cmp(a));
        confirmed[quorum - 1]
    }

    /// Blocks until at least `commits` commits are acknowledged or
    /// `timeout` elapses; returns the acknowledged count observed on
    /// wake-up. The `netdb.repl.acks` counter ticks on the shipping path,
    /// not here — waiting is free.
    pub fn wait_acked(&self, commits: u64, timeout: Duration) -> u64 {
        let _ = &self.obs; // obs is carried for future per-wait metrics
        let deadline = Instant::now() + timeout;
        let mut acks = self.acks.lock();
        loop {
            let now = Self::acked_of(&acks, self.quorum);
            if now >= commits {
                return now;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return now;
            };
            if left.is_zero() || self.acked_cv.wait_for(&mut acks, left).timed_out() {
                return Self::acked_of(&acks, self.quorum);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_obs::Registry;

    fn leader(quorum: usize) -> Leader {
        let reg = Registry::new();
        Leader::new(
            Arc::new(Database::with_obs(&reg)),
            quorum,
            ReplObs::bound(&reg),
        )
    }

    #[test]
    fn acked_is_quorum_th_largest() {
        let l = leader(2);
        assert_eq!(l.acked(), 0);
        l.record_ack(0, 10);
        assert_eq!(l.acked(), 0, "one follower is below quorum 2");
        l.record_ack(1, 7);
        assert_eq!(l.acked(), 7);
        l.record_ack(2, 9);
        assert_eq!(l.acked(), 9);
    }

    #[test]
    fn acks_are_monotonic() {
        let l = leader(1);
        l.record_ack(0, 5);
        l.record_ack(0, 3); // stale report ignored
        assert_eq!(l.acked(), 5);
    }

    #[test]
    fn wait_acked_times_out() {
        let l = leader(1);
        l.record_ack(0, 2);
        assert_eq!(l.wait_acked(5, Duration::from_millis(10)), 2);
        assert_eq!(l.wait_acked(2, Duration::from_millis(10)), 2);
    }
}
