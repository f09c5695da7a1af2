//! WAL-shipping replication: a leader database, N follower replicas,
//! scoped-read routing, and deterministic leader failover.
//!
//! # Model
//!
//! The leader is an ordinary [`Database`]: PR 5's commit protocol already
//! guarantees **WAL order equals publication order**, so the WAL *is* the
//! replication stream — no second log, no operation transformation. A
//! background shipper thread wakes on the leader's commit condvar and
//! ships, per follower, exactly the WAL suffix past that follower's
//! confirmed commit count ([`Database::wait_commits`] +
//! `Wal::suffix_after_commits`). Followers apply each shipped batch
//! through the same commit protocol (`apply_replicated`: writer lock →
//! copy-on-write apply → WAL append at the leader's sequence →
//! pointer-swap publish), so a caught-up follower is *byte-identical* to
//! the leader — same logical contents, same WAL, same shard layout —
//! which the chaos phases assert with snapshot equality plus shard
//! [`StoreSnapshot::self_check`].
//!
//! # Bootstrap, catch-up and WAL retention
//!
//! The leader's WAL is bounded by follower acks: every ack moves the
//! leader database's retention floor to the minimum commit count the
//! reachable followers confirmed ([`Leader::record_ack`]), so the log
//! holds exactly the suffix a reachable follower may still need, and a
//! partitioned follower holds nothing back. A follower behind the floor —
//! a fresh one joining a seeded leader, a healed one, a crash-reset one —
//! is sent an O(shards) [`StoreSnapshot`] transfer (`Arc` bumps
//! in-process, a checkpoint over TCP, see [`tcp`]) and then rejoins the
//! entry stream. Shipping is *ack-driven*: the shipper re-reads the
//! follower's confirmed commit count every round, so a partitioned
//! follower simply stops confirming and, once healed, receives whatever
//! it is missing with no shipper-side bookkeeping to corrupt.
//!
//! # Durability and failover
//!
//! A commit is **acknowledged** once a quorum of followers has confirmed
//! it ([`Leader::acked`]). On leader death, [`ReplicaSet::failover`]
//! promotes the follower with the longest durable WAL prefix (max commit
//! count, ties to the lowest id). Because every follower's prefix is a
//! prefix of the leader's WAL and the quorum follower had every
//! acknowledged commit, promotion never loses an acknowledged commit —
//! the invariant the chaos `kill-leader-mid-commit` phase checks.
//!
//! # Reads
//!
//! [`ReadRouter`] serves consistent snapshots from any follower within a
//! staleness bound (`max_lag` commits), falling back to the leader. The
//! observed lag of every routed read lands in `netdb.repl.read_lag_commits`.
//!
//! # Example
//!
//! ```
//! use occam_netdb::{Database, ReplicaConfig, ReplicaSet};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let leader = Arc::new(Database::new());
//! leader.insert_device("dc01.pod00.sw00", vec![]).unwrap();
//! let set = ReplicaSet::start(leader, ReplicaConfig::default());
//! set.leader().wait_acked(1, Duration::from_secs(5));
//! assert!(set.wait_converged(Duration::from_secs(5)));
//! for f in set.followers() {
//!     assert_eq!(f.snapshot(), set.leader_db().snapshot());
//! }
//! set.shutdown();
//! ```

pub mod follower;
pub mod leader;
pub mod msg;
pub mod router;
pub mod tcp;

pub use follower::{Follower, Shipment};
pub use leader::Leader;
pub use msg::{ReplCodecError, ReplMsg};
pub use router::ReadRouter;

use crate::db::Database;
use crate::shard::StoreSnapshot;
use occam_obs::{Counter, Histogram, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Observability handles for the replication subsystem, bound to a
/// [`Registry`] under the `netdb.repl.*` names (DESIGN.md §9). All
/// instruments are created eagerly so the metrics contract holds even on
/// paths a given deployment never exercises.
#[derive(Clone, Debug)]
pub(crate) struct ReplObs {
    pub(crate) ship_batches: Counter,
    pub(crate) ship_records: Counter,
    pub(crate) ship_snapshots: Counter,
    pub(crate) acks: Counter,
    pub(crate) applied: Counter,
    pub(crate) reads_follower: Counter,
    pub(crate) reads_leader: Counter,
    pub(crate) reads_stale: Counter,
    pub(crate) failovers: Counter,
    pub(crate) lag_ns: Histogram,
    pub(crate) read_lag_commits: Histogram,
    pub(crate) failover_ns: Histogram,
}

impl ReplObs {
    pub(crate) fn bound(reg: &Registry) -> ReplObs {
        ReplObs {
            ship_batches: reg.counter("netdb.repl.ship.batches"),
            ship_records: reg.counter("netdb.repl.ship.records"),
            ship_snapshots: reg.counter("netdb.repl.ship.snapshots"),
            acks: reg.counter("netdb.repl.acks"),
            applied: reg.counter("netdb.repl.follower.applied"),
            reads_follower: reg.counter("netdb.repl.reads.follower"),
            reads_leader: reg.counter("netdb.repl.reads.leader"),
            reads_stale: reg.counter("netdb.repl.reads.stale_fallback"),
            failovers: reg.counter("netdb.repl.failovers"),
            lag_ns: reg.histogram("netdb.repl.lag_ns"),
            read_lag_commits: reg.histogram("netdb.repl.read_lag_commits"),
            failover_ns: reg.histogram("netdb.repl.failover_ns"),
        }
    }
}

/// Configuration for an in-process replica set.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Number of follower replicas.
    pub followers: usize,
    /// Followers that must confirm a commit before it counts as
    /// acknowledged (durable). Clamped to the follower count.
    pub quorum: usize,
    /// Shipper idle tick: the longest a new commit waits before shipping
    /// when the condvar wake is missed, and the partition re-probe period.
    pub tick: Duration,
    /// Staleness bound for routed reads, in commits behind the leader.
    pub max_lag: u64,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            followers: 2,
            quorum: 1,
            tick: Duration::from_millis(2),
            max_lag: 4,
        }
    }
}

/// One leader→follower shipping link. Partitioning a link makes the
/// shipper skip the follower; healing it lets the ack-driven protocol
/// re-ship the whole missing suffix on the next tick.
#[derive(Debug, Default)]
struct Link {
    partitioned: AtomicBool,
}

/// Outcome of a [`ReplicaSet::failover`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Promotion {
    /// Id of the promoted follower (longest durable WAL prefix).
    pub promoted: u32,
    /// The promoted replica's commit count at promotion — the new
    /// leader's history length.
    pub promoted_commits: u64,
    /// Surviving followers caught up synchronously during the failover.
    pub caught_up: usize,
}

/// A leader plus N in-process follower replicas wired together by a
/// background WAL shipper. See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct ReplicaSet {
    leader: Arc<Leader>,
    followers: Vec<Arc<Follower>>,
    links: Vec<Arc<Link>>,
    stop: Arc<AtomicBool>,
    shipper: Option<std::thread::JoinHandle<()>>,
    tick: Duration,
    max_lag: u64,
    quorum: usize,
    registry: Registry,
    obs: ReplObs,
}

/// Ships the WAL suffix past `follower`'s confirmed commits (or a
/// snapshot when the leader no longer holds that history), then records
/// the follower's resulting confirmation in the leader's ack table.
fn ship_to(leader: &Leader, follower: &Follower, obs: &ReplObs) {
    let confirmed = follower.commits();
    let shipped_at = Instant::now();
    match leader.db().wal_suffix_after_commits(confirmed) {
        None => {
            let (snap, base_commits) = leader.db().snapshot_with_commits();
            obs.ship_snapshots.inc();
            let _ = follower.ingest(Shipment::Snapshot {
                snap,
                base_commits,
                shipped_at,
            });
        }
        Some((first_seq, records)) if !records.is_empty() => {
            obs.ship_batches.inc();
            obs.ship_records.add(records.len() as u64);
            let _ = follower.ingest(Shipment::Entries {
                first_seq,
                records,
                shipped_at,
            });
        }
        Some(_) => {
            let _ = follower.ingest(Shipment::Heartbeat {
                commits: leader.db().commits(),
            });
        }
    }
    leader.record_ack(follower.id(), follower.commits());
    obs.acks.inc();
}

impl ReplicaSet {
    /// Starts a replica set around an existing leader database, with the
    /// replication instruments bound to the leader's registry. Followers
    /// bootstrap from scratch: the first shipping round sends them the
    /// WAL if the leader still holds it from commit 0, a snapshot
    /// otherwise.
    pub fn start(leader_db: Arc<Database>, cfg: ReplicaConfig) -> ReplicaSet {
        let registry = leader_db.obs().clone();
        let obs = ReplObs::bound(&registry);
        let followers: Vec<Arc<Follower>> = (0..cfg.followers)
            .map(|i| Arc::new(Follower::new(i as u32, &registry)))
            .collect();
        let links: Vec<Arc<Link>> = (0..cfg.followers)
            .map(|_| Arc::new(Link::default()))
            .collect();
        let quorum = cfg.quorum.clamp(1, cfg.followers.max(1));
        let leader = Arc::new(Leader::new(leader_db, quorum, obs.clone()));
        ReplicaSet::spawn(
            leader,
            followers,
            links,
            cfg.tick,
            cfg.max_lag,
            quorum,
            registry,
            obs,
        )
    }

    /// Wires the pieces together and starts the shipper thread. Shared by
    /// [`ReplicaSet::start`] and [`ReplicaSet::failover`].
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        leader: Arc<Leader>,
        followers: Vec<Arc<Follower>>,
        links: Vec<Arc<Link>>,
        tick: Duration,
        max_lag: u64,
        quorum: usize,
        registry: Registry,
        obs: ReplObs,
    ) -> ReplicaSet {
        // Every follower holds the leader's WAL floor from the start, so
        // the first round ships entries to each one that can use them.
        for f in &followers {
            leader.record_ack(f.id(), f.commits());
        }
        let stop = Arc::new(AtomicBool::new(false));
        let shipper = {
            let leader = Arc::clone(&leader);
            let followers = followers.clone();
            let links = links.clone();
            let stop = Arc::clone(&stop);
            let obs = obs.clone();
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Acquire) {
                    for (f, link) in followers.iter().zip(&links) {
                        if link.partitioned.load(Ordering::Acquire) {
                            leader.mark_unreachable(f.id());
                            continue;
                        }
                        ship_to(&leader, f, &obs);
                    }
                    seen = leader.db().wait_commits(seen + 1, tick);
                }
            })
        };
        ReplicaSet {
            leader,
            followers,
            links,
            stop,
            shipper: Some(shipper),
            tick,
            max_lag,
            quorum,
            registry,
            obs,
        }
    }

    /// The leader handle (commit acknowledgement surface).
    pub fn leader(&self) -> &Arc<Leader> {
        &self.leader
    }

    /// The leader database.
    pub fn leader_db(&self) -> Arc<Database> {
        Arc::clone(self.leader.db())
    }

    /// The follower replicas, in id order.
    pub fn followers(&self) -> &[Arc<Follower>] {
        &self.followers
    }

    /// The registry the set's `netdb.repl.*` instruments are bound to.
    pub fn obs(&self) -> &Registry {
        &self.registry
    }

    /// Partitions (or heals) the shipping link to follower `idx`. While
    /// partitioned the follower receives nothing and confirms nothing;
    /// on heal the ack-driven shipper re-sends the whole missing suffix.
    pub fn set_partitioned(&self, idx: usize, partitioned: bool) {
        self.links[idx]
            .partitioned
            .store(partitioned, Ordering::Release);
    }

    /// A read router over this set's leader and followers, honoring the
    /// configured staleness bound.
    pub fn router(&self) -> Arc<ReadRouter> {
        Arc::new(ReadRouter::new(
            self.leader_db(),
            self.followers.clone(),
            self.max_lag,
            self.obs.clone(),
        ))
    }

    /// Blocks until every non-partitioned follower's *published* state
    /// holds every commit of the leader's published state, or `timeout`
    /// elapses. Returns whether convergence was reached. Published counts,
    /// not WAL counts: a follower appends a commit to its WAL before it
    /// publishes the state holding it, so a WAL count can run ahead of
    /// what [`Follower::snapshot`] returns. With the leader quiescent, a
    /// `true` return means every reachable follower's snapshot equals the
    /// leader's.
    pub fn wait_converged(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let target = self.leader.db().snapshot().commits();
            let behind = self.followers.iter().zip(&self.links).any(|(f, l)| {
                !l.partitioned.load(Ordering::Acquire) && f.snapshot().commits() < target
            });
            if !behind {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the shipper and releases the leader's WAL floor: with no
    /// followers to ship to, the leader keeps no history.
    fn stop_shipper(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.shipper.take() {
            let _ = h.join();
            self.leader.db().set_wal_floor(None);
        }
    }

    /// Simulates a leader crash: the shipper stops immediately, so
    /// nothing committed after this point reaches any follower. The
    /// leader database handle stays readable (it is the "dead disk" the
    /// chaos phases diff against); call [`ReplicaSet::failover`] next.
    pub fn kill_leader(&mut self) {
        self.stop_shipper();
    }

    /// Deterministic leader failover: promotes the follower with the
    /// longest durable WAL prefix (max confirmed commits, ties broken
    /// toward the lowest id), synchronously catches up the surviving
    /// non-partitioned followers from the new leader, and returns the
    /// restarted set plus a [`Promotion`] report.
    ///
    /// Acknowledged-commit durability: the promoted follower confirmed at
    /// least every quorum-acknowledged commit, so no acknowledged commit
    /// is lost — asserted by the chaos `kill-leader-mid-commit` phase.
    ///
    /// # Panics
    ///
    /// Panics if the set has no followers to promote.
    pub fn failover(mut self) -> (ReplicaSet, Promotion) {
        let started = Instant::now();
        self.stop_shipper();
        let (idx, _) = self
            .followers
            .iter()
            .enumerate()
            .max_by_key(|(i, f)| (f.commits(), std::cmp::Reverse(*i)))
            .expect("failover requires at least one follower");
        let promoted = self.followers.remove(idx);
        self.links.remove(idx);
        let new_leader_db = promoted.db();

        let mut caught_up = 0;
        for (f, link) in self.followers.iter().zip(&self.links) {
            if link.partitioned.load(Ordering::Acquire) {
                continue;
            }
            while f.commits() < new_leader_db.commits() {
                let confirmed = f.commits();
                let shipped_at = Instant::now();
                match new_leader_db.wal_suffix_after_commits(confirmed) {
                    None => {
                        let (snap, base_commits) = new_leader_db.snapshot_with_commits();
                        self.obs.ship_snapshots.inc();
                        let _ = f.ingest(Shipment::Snapshot {
                            snap,
                            base_commits,
                            shipped_at,
                        });
                    }
                    Some((first_seq, records)) => {
                        self.obs.ship_batches.inc();
                        self.obs.ship_records.add(records.len() as u64);
                        let _ = f.ingest(Shipment::Entries {
                            first_seq,
                            records,
                            shipped_at,
                        });
                    }
                }
            }
            caught_up += 1;
        }

        let promotion = Promotion {
            promoted: promoted.id(),
            promoted_commits: new_leader_db.commits(),
            caught_up,
        };
        self.obs.failovers.inc();
        self.obs
            .failover_ns
            .record(started.elapsed().as_nanos() as u64);

        let quorum = self.quorum.clamp(1, self.followers.len().max(1));
        let leader = Arc::new(Leader::new(new_leader_db, quorum, self.obs.clone()));
        let set = ReplicaSet::spawn(
            leader,
            self.followers.clone(),
            self.links.clone(),
            self.tick,
            self.max_lag,
            quorum,
            self.registry.clone(),
            self.obs.clone(),
        );
        // `self` still holds the old shipper state; it is already stopped.
        self.shipper = None;
        (set, promotion)
    }

    /// Stops the shipper thread and drops the set.
    pub fn shutdown(mut self) {
        self.stop_shipper();
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        self.stop_shipper();
    }
}

/// Asserts two replicas are byte-identical: same logical snapshot, and
/// both snapshots pass the shard self-check. Returns a description of
/// the first divergence instead of panicking, so chaos phases can fold
/// it into their violation accounting.
pub fn check_identical(a: &StoreSnapshot, b: &StoreSnapshot) -> Result<(), String> {
    a.self_check()?;
    b.self_check()?;
    if a != b {
        return Err("replica snapshots diverge".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::AttrValue;

    fn write_n(db: &Database, n: usize, tag: &str) {
        for i in 0..n {
            db.insert_device(&format!("dc01.pod00.{tag}{i:03}"), vec![])
                .unwrap();
        }
    }

    #[test]
    fn followers_converge_byte_identically() {
        let leader = Arc::new(Database::new());
        write_n(&leader, 10, "sw");
        let set = ReplicaSet::start(Arc::clone(&leader), ReplicaConfig::default());
        write_n(&leader, 10, "lf");
        assert!(set.wait_converged(Duration::from_secs(10)));
        for f in set.followers() {
            check_identical(&f.snapshot(), &leader.snapshot()).unwrap();
            assert_eq!(f.db().dump_wal(), leader.dump_wal());
        }
        set.shutdown();
    }

    #[test]
    fn partitioned_follower_catches_up_after_heal() {
        let leader = Arc::new(Database::new());
        let set = ReplicaSet::start(Arc::clone(&leader), ReplicaConfig::default());
        write_n(&leader, 5, "a");
        assert!(set.wait_converged(Duration::from_secs(10)));
        set.set_partitioned(0, true);
        write_n(&leader, 5, "b");
        // Follower 1 still converges; follower 0 is dark.
        assert!(set.wait_converged(Duration::from_secs(10)));
        assert!(set.followers()[0].commits() < leader.commits());
        set.set_partitioned(0, false);
        assert!(set.wait_converged(Duration::from_secs(10)));
        check_identical(&set.followers()[0].snapshot(), &leader.snapshot()).unwrap();
        set.shutdown();
    }

    #[test]
    fn failover_promotes_longest_prefix_and_preserves_acked() {
        let leader = Arc::new(Database::new());
        let mut set = ReplicaSet::start(
            Arc::clone(&leader),
            ReplicaConfig {
                followers: 3,
                ..ReplicaConfig::default()
            },
        );
        write_n(&leader, 8, "sw");
        let acked = set.leader().wait_acked(8, Duration::from_secs(10));
        assert!(acked >= 8);
        // Partition everyone, then write commits nobody will see.
        for i in 0..3 {
            set.set_partitioned(i, true);
        }
        write_n(&leader, 3, "lost");
        set.kill_leader();
        for i in 0..3 {
            set.set_partitioned(i, false);
        }
        let (set, promotion) = set.failover();
        assert!(promotion.promoted_commits >= acked, "acked commit lost");
        assert_eq!(promotion.caught_up, 2);
        let new_leader = set.leader_db();
        assert!(set.wait_converged(Duration::from_secs(10)));
        for f in set.followers() {
            check_identical(&f.snapshot(), &new_leader.snapshot()).unwrap();
        }
        // The promoted leader accepts new writes and replicates them.
        new_leader
            .insert_device("dc01.pod00.post0", vec![("X".into(), AttrValue::Int(1))])
            .unwrap();
        assert!(set.wait_converged(Duration::from_secs(10)));
        for f in set.followers() {
            assert!(f.db().device_exists("dc01.pod00.post0").unwrap());
        }
        set.shutdown();
    }

    #[test]
    fn wait_converged_implies_identical_published_snapshots() {
        let leader = Arc::new(Database::new());
        write_n(&leader, 4, "seed");
        let set = ReplicaSet::start(
            Arc::clone(&leader),
            ReplicaConfig {
                followers: 3,
                ..ReplicaConfig::default()
            },
        );
        for round in 0..150usize {
            // Bursts of varying size, some as one wide batch so a
            // follower's apply takes long enough to race the check.
            if round % 3 == 0 {
                let ops: Vec<crate::db::WriteOp> = (0..32)
                    .map(|i| crate::db::WriteOp::InsertDevice {
                        name: format!("dc01.pod{:02}.r{round:03}x{i:02}", i % 8),
                        attrs: vec![("R".into(), AttrValue::Int(round as i64))],
                    })
                    .collect();
                leader.batch(&ops).unwrap();
            } else {
                write_n(&leader, round % 4 + 1, &format!("r{round:03}x"));
            }
            assert!(set.wait_converged(Duration::from_secs(10)), "round {round}");
            let want = leader.snapshot();
            for f in set.followers() {
                let got = f.snapshot();
                assert_eq!(got.commits(), want.commits(), "round {round}");
                check_identical(&got, &want).unwrap();
            }
        }
        set.shutdown();
    }

    #[test]
    fn leader_wal_is_bounded_by_reachable_follower_acks() {
        let leader = Arc::new(Database::new());
        write_n(&leader, 6, "seed");
        assert_eq!(leader.wal_retained_records(), 0, "no replica set, no WAL");
        let set = ReplicaSet::start(Arc::clone(&leader), ReplicaConfig::default());
        let snapshots = || leader.obs().counter_value("netdb.repl.ship.snapshots");
        // Every commit below is one record, so "records committed since
        // the minimum ack" is a commit difference.
        let check_bound = |when: &str| {
            let min_ack = set.leader().reachable_min_ack();
            let retained = leader.wal_retained_records() as u64;
            let since = leader.commits() - min_ack.unwrap_or(leader.commits());
            assert!(
                retained <= since,
                "{when}: {retained} records retained, {since} committed since min ack {min_ack:?}"
            );
        };
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(Duration::from_micros(200));
            }
        };

        for i in 0..60 {
            write_n(&leader, 1, &format!("a{i:02}x"));
            check_bound("steady");
        }
        assert!(set.wait_converged(Duration::from_secs(10)));
        wait_for("steady trim", &|| leader.wal_retained_records() == 0);

        // A partitioned follower holds nothing back: once the healthy
        // follower acks, retention drains to zero although follower 0
        // is far behind.
        set.set_partitioned(0, true);
        for i in 0..60 {
            write_n(&leader, 1, &format!("b{i:02}x"));
            check_bound("partitioned");
        }
        assert!(set.wait_converged(Duration::from_secs(10)));
        wait_for("partitioned trim", &|| leader.wal_retained_records() == 0);
        assert!(set.followers()[0].commits() < leader.commits());
        assert!(leader.wal_base_commits() > set.followers()[0].commits());
        assert_eq!(
            leader
                .obs()
                .gauges()
                .iter()
                .find(|(n, _)| n == "netdb.wal.retained_records"),
            Some(&("netdb.wal.retained_records".to_string(), 0))
        );

        // On heal it is behind the floor, so it rejoins by snapshot and
        // ends byte-identical.
        let before = snapshots();
        set.set_partitioned(0, false);
        assert!(set.wait_converged(Duration::from_secs(10)));
        assert!(snapshots() > before, "rejoin must go through a snapshot");
        for f in set.followers() {
            check_identical(&f.snapshot(), &leader.snapshot()).unwrap();
            assert_eq!(f.db().checkpoint(), leader.checkpoint());
        }
        check_bound("healed");
        set.shutdown();
        assert_eq!(
            leader.wal_retained_records(),
            0,
            "shutdown releases the floor"
        );
    }
}
