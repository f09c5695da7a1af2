//! Sharded, versioned storage for the network database.
//!
//! The monolithic `RwLock<Store>` the database started with made every
//! query contend on one lock and made `snapshot()` deep-clone the whole
//! network — untenable at the paper's production simulation scale (16 DCs
//! × 96 pods × 92 switches ≈ 141k devices). This module replaces it with
//! a **sharded copy-on-write** layout:
//!
//! - Devices are partitioned into [`NUM_SHARDS`] shards by *name prefix*,
//!   aligned with the `occam-topology` naming scheme (`dc01.pod03.tor07`):
//!   the `(dc, pod)` prefix of a conforming name picks one of
//!   [`DEVICE_SHARDS`] data shards, and every non-conforming name lands in
//!   a single catch-all shard. Scoped queries whose literal prefix pins a
//!   `(dc, pod)` pair therefore touch exactly one shard.
//! - Links are stored once, in the shard of their lexically-smaller
//!   endpoint (the *owner* shard), and indexed per endpoint shard in a
//!   `by_endpoint` map, so `links_touching` is a scoped index scan and a
//!   device delete walks only the device's own links.
//! - Each shard is an immutable `ShardData` behind an `Arc`. Writers
//!   never mutate a published shard: a commit clones the shards it
//!   touches (`Arc::make_mut`), applies its records, and publishes a new
//!   shard vector. Readers and snapshots clone `Arc`s — they never block
//!   on a committing writer and never observe a partial batch.
//!
//! A [`StoreSnapshot`] is a handle on one published shard vector: taking
//! it is an O(1) `Arc` bump (the per-shard `Arc`s are shared, not
//! walked), reading it is lock-free, and [`StoreSnapshot::materialize`]
//! recovers the flat [`Store`] representation when a caller really needs
//! one (diff, legacy comparisons).

use crate::db::{link_key, DeviceRecord, LinkKey, LinkRecord, Store};
use crate::value::AttrValue;
use crate::wal::WalRecord;
use occam_regex::Pattern;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::Arc;

/// Number of data shards conforming `(dc, pod)` prefixes hash into.
pub const DEVICE_SHARDS: usize = 128;
/// Index of the catch-all shard for names outside the naming scheme.
pub const CATCH_ALL_SHARD: usize = DEVICE_SHARDS;
/// Total shard count (data shards plus the catch-all).
pub const NUM_SHARDS: usize = DEVICE_SHARDS + 1;

/// Parses a `dcNN` name label; `None` for anything else.
fn parse_dc(label: &str) -> Option<u64> {
    let digits = label.strip_prefix("dc")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    // Cap at 12 digits so absurd labels cannot overflow the arithmetic.
    if digits.len() > 12 {
        return None;
    }
    digits.parse::<u64>().ok()
}

/// Maps the second name label to a pod slot: `podNN` → `NN + 1`, anything
/// else (`core`, a host label, absent) → `0`.
fn pod_slot(label: &str) -> u64 {
    match label.strip_prefix("pod") {
        Some(digits)
            if !digits.is_empty()
                && digits.len() <= 12
                && digits.bytes().all(|b| b.is_ascii_digit()) =>
        {
            digits.parse::<u64>().map(|p| p + 1).unwrap_or(0)
        }
        _ => 0,
    }
}

fn dc_pod_shard(dc: u64, pod: u64) -> usize {
    ((dc.wrapping_mul(131).wrapping_add(pod)) % DEVICE_SHARDS as u64) as usize
}

/// The shard a device name routes to. Total: every name has exactly one
/// home shard, and the assignment depends only on the name's first two
/// labels, so a literal scope prefix that pins both labels pins the shard.
pub fn shard_of(name: &str) -> usize {
    let (l1, rest) = match name.split_once('.') {
        Some((l1, rest)) => (l1, Some(rest)),
        None => (name, None),
    };
    match parse_dc(l1) {
        None => CATCH_ALL_SHARD,
        Some(dc) => {
            let l2 = rest.map(|r| r.split_once('.').map_or(r, |(l2, _)| l2));
            dc_pod_shard(dc, l2.map_or(0, pod_slot))
        }
    }
}

/// Which shards a scoped query must visit, derived from the scope's
/// literal prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShardRoute {
    /// The prefix pins a single shard.
    One(usize),
    /// The prefix is too short to pin a shard; visit all of them.
    All,
}

/// Routes a literal scope prefix. Sound: every name starting with
/// `prefix` lives in the returned shard (or anywhere, for [`ShardRoute::All`]).
pub fn route_prefix(prefix: &str) -> ShardRoute {
    let Some((l1, rest)) = prefix.split_once('.') else {
        // First label incomplete: names continuing it may land anywhere.
        return ShardRoute::All;
    };
    let Some(dc) = parse_dc(l1) else {
        // Complete non-conforming first label: only catch-all names match.
        return ShardRoute::One(CATCH_ALL_SHARD);
    };
    match rest.split_once('.') {
        // Second label complete: the (dc, pod) pair is pinned.
        Some((l2, _)) => ShardRoute::One(dc_pod_shard(dc, pod_slot(l2))),
        // `dc01.po…`: matching names may carry any pod.
        None => ShardRoute::All,
    }
}

/// One shard's immutable contents. Cloned copy-on-write by commits.
#[derive(Clone, PartialEq, Default, Debug)]
pub(crate) struct ShardData {
    /// Device rows homed in this shard.
    pub devices: BTreeMap<String, Arc<DeviceRecord>>,
    /// Link rows owned by this shard (owner = shard of the lexically
    /// smaller endpoint).
    pub links: BTreeMap<LinkKey, Arc<LinkRecord>>,
    /// Endpoint index: device name homed here → keys of every link
    /// touching it (the link itself may be owned by another shard).
    pub by_endpoint: BTreeMap<String, BTreeSet<LinkKey>>,
}

/// One published version of the whole store: a fixed-length vector of
/// shard `Arc`s. The database keeps the current version behind a pointer
/// swap; snapshots hold old versions alive for as long as they need.
#[derive(Clone, Debug)]
pub(crate) struct StoreState {
    pub shards: Vec<Arc<ShardData>>,
    /// Per-shard monotonic version counters: `versions[i]` is bumped once
    /// per committed batch that replaced shard `i`'s `Arc`. Because
    /// [`StoreState::apply`] is existence-checked (a no-op record never
    /// clones a shard), dirtiness — and therefore the version vector — is
    /// a deterministic function of the WAL history, which is what lets
    /// recovery replay reproduce live versions exactly.
    pub versions: Vec<u64>,
    /// Number of committed batches folded into this state. Matches
    /// `Wal::num_commits()` for states published by the live commit
    /// protocol: a write assigned WAL seq `s` is first visible in the
    /// state with `commits == s + 1`.
    pub commits: u64,
}

impl StoreState {
    /// An empty store: every shard its own (distinct) empty allocation.
    pub fn new() -> StoreState {
        StoreState {
            shards: (0..NUM_SHARDS)
                .map(|_| Arc::new(ShardData::default()))
                .collect(),
            versions: vec![0; NUM_SHARDS],
            commits: 0,
        }
    }

    /// Seals one committed batch applied on top of `base`: bumps the
    /// version of every shard whose `Arc` was replaced since `base` and
    /// advances the commit counter. Returns how many shards were dirtied.
    pub fn finalize(&mut self, base: &StoreState) -> usize {
        let mut dirtied = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            if !Arc::ptr_eq(shard, &base.shards[i]) {
                self.versions[i] += 1;
                dirtied += 1;
            }
        }
        self.commits += 1;
        dirtied
    }

    fn shard_mut(&mut self, idx: usize) -> &mut ShardData {
        Arc::make_mut(&mut self.shards[idx])
    }

    /// True if a device row exists.
    pub fn device_exists(&self, name: &str) -> bool {
        self.shards[shard_of(name)].devices.contains_key(name)
    }

    /// True if a link row exists (key must be normalized).
    pub fn link_exists(&self, key: &LinkKey) -> bool {
        self.shards[shard_of(&key.0)].links.contains_key(key)
    }

    pub fn num_devices(&self) -> usize {
        self.shards.iter().map(|s| s.devices.len()).sum()
    }

    pub fn num_links(&self) -> usize {
        self.shards.iter().map(|s| s.links.len()).sum()
    }

    fn index_link(&mut self, endpoint: &str, key: &LinkKey) {
        self.shard_mut(shard_of(endpoint))
            .by_endpoint
            .entry(endpoint.to_string())
            .or_default()
            .insert(key.clone());
    }

    fn unindex_link(&mut self, endpoint: &str, key: &LinkKey) {
        let shard = self.shard_mut(shard_of(endpoint));
        if let Some(set) = shard.by_endpoint.get_mut(endpoint) {
            set.remove(key);
            if set.is_empty() {
                shard.by_endpoint.remove(endpoint);
            }
        }
    }

    /// Applies one redo record. Semantics are identical to
    /// [`Store::apply`] — total application, records referencing missing
    /// rows are no-ops — which the shard-equivalence property tests
    /// assert over arbitrary record sequences. Existence is checked
    /// before `shard_mut` so a no-op record never clones a shard.
    pub fn apply(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::InsertDevice { name, attrs } => {
                let shard = self.shard_mut(shard_of(name));
                let dev = shard.devices.entry(name.clone()).or_default();
                let dev = Arc::make_mut(dev);
                for (k, v) in attrs {
                    dev.attrs.insert(k.clone(), v.clone());
                }
            }
            WalRecord::DeleteDevice { name } => {
                let si = shard_of(name);
                if self.shards[si].devices.contains_key(name)
                    || self.shards[si].by_endpoint.contains_key(name)
                {
                    let shard = self.shard_mut(si);
                    shard.devices.remove(name);
                    let keys = shard.by_endpoint.remove(name).unwrap_or_default();
                    for key in keys {
                        self.shard_mut(shard_of(&key.0)).links.remove(&key);
                        let other = if key.0 == *name { &key.1 } else { &key.0 };
                        if other != name {
                            self.unindex_link(other, &key);
                        }
                    }
                }
            }
            WalRecord::SetDeviceAttr { name, attr, value } => {
                let si = shard_of(name);
                if self.shards[si].devices.contains_key(name) {
                    let dev = self.shard_mut(si).devices.get_mut(name).expect("checked");
                    Arc::make_mut(dev).attrs.insert(attr.clone(), value.clone());
                }
            }
            WalRecord::UnsetDeviceAttr { name, attr } => {
                let si = shard_of(name);
                if self.shards[si].devices.contains_key(name) {
                    let dev = self.shard_mut(si).devices.get_mut(name).expect("checked");
                    Arc::make_mut(dev).attrs.remove(attr);
                }
            }
            WalRecord::InsertLink {
                a_end,
                z_end,
                attrs,
            } => {
                let key = link_key(a_end, z_end);
                let owner = self.shard_mut(shard_of(&key.0));
                let link = owner.links.entry(key.clone()).or_default();
                let link = Arc::make_mut(link);
                for (k, v) in attrs {
                    link.attrs.insert(k.clone(), v.clone());
                }
                self.index_link(&key.0, &key);
                self.index_link(&key.1, &key);
            }
            WalRecord::DeleteLink { a_end, z_end } => {
                let key = link_key(a_end, z_end);
                let oi = shard_of(&key.0);
                if self.shards[oi].links.contains_key(&key) {
                    self.shard_mut(oi).links.remove(&key);
                    self.unindex_link(&key.0.clone(), &key);
                    self.unindex_link(&key.1.clone(), &key);
                }
            }
            WalRecord::SetLinkAttr {
                a_end,
                z_end,
                attr,
                value,
            } => {
                let key = link_key(a_end, z_end);
                let oi = shard_of(&key.0);
                if self.shards[oi].links.contains_key(&key) {
                    let link = self.shard_mut(oi).links.get_mut(&key).expect("checked");
                    Arc::make_mut(link)
                        .attrs
                        .insert(attr.clone(), value.clone());
                }
            }
            WalRecord::UnsetLinkAttr { a_end, z_end, attr } => {
                let key = link_key(a_end, z_end);
                let oi = shard_of(&key.0);
                if self.shards[oi].links.contains_key(&key) {
                    let link = self.shard_mut(oi).links.get_mut(&key).expect("checked");
                    Arc::make_mut(link).attrs.remove(attr);
                }
            }
            WalRecord::Commit { .. } => {}
        }
    }

    /// [`StoreState::apply`] for a record the caller gives up: row data
    /// moves into the store instead of being cloned.
    pub fn apply_owned(&mut self, rec: WalRecord) {
        match rec {
            WalRecord::InsertDevice { name, attrs } => {
                let shard = self.shard_mut(shard_of(&name));
                let dev = Arc::make_mut(shard.devices.entry(name).or_default());
                dev.attrs.extend(attrs);
            }
            WalRecord::SetDeviceAttr { name, attr, value } => {
                let si = shard_of(&name);
                if self.shards[si].devices.contains_key(&name) {
                    let dev = self.shard_mut(si).devices.get_mut(&name).expect("checked");
                    Arc::make_mut(dev).attrs.insert(attr, value);
                }
            }
            other => self.apply(&other),
        }
    }
}

impl Default for StoreState {
    fn default() -> Self {
        StoreState::new()
    }
}

/// Devices of one shard that a literal prefix can reach, in name order.
pub(crate) fn prefixed<'a>(
    shard: &'a ShardData,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, &'a Arc<DeviceRecord>)> + 'a {
    shard
        .devices
        .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(n, _)| n.starts_with(prefix))
}

/// An immutable, consistent point-in-time view of the whole store.
///
/// Cheap to take (`Database::snapshot` bumps one `Arc`) and cheap to
/// clone; all reads are lock-free and observe exactly one committed
/// version. The read API mirrors the `Database` query surface;
/// [`StoreSnapshot::materialize`] is the escape hatch to a flat
/// [`Store`] for `diff` and legacy equality.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    pub(crate) state: Arc<StoreState>,
}

impl StoreSnapshot {
    /// An empty snapshot.
    pub fn empty() -> StoreSnapshot {
        StoreSnapshot {
            state: Arc::new(StoreState::new()),
        }
    }

    /// Builds a snapshot by replaying a record sequence from empty — the
    /// sharded counterpart of [`Store::replay`], asserted equivalent to
    /// it by property tests and the chaos crash points.
    ///
    /// Version accounting mirrors the live commit protocol: each
    /// `Commit` marker seals one batch, bumping the versions of the
    /// shards that batch dirtied and advancing the commit counter, so a
    /// replay of a database's WAL reproduces its published shard-version
    /// vector exactly. A marker's sequence is honoured, so a
    /// [checkpoint](StoreSnapshot::checkpoint) — one batch sealed by the
    /// marker of its last commit — replays to its full commit count.
    /// Trailing records after the last `Commit` (a torn tail, or a plain
    /// record list with no markers) still bump the versions of the shards
    /// they touch, but not the commit counter.
    pub fn replay(records: &[WalRecord]) -> StoreSnapshot {
        let mut state = StoreState::new();
        let mut base = state.clone();
        for r in records {
            state.apply(r);
            if let WalRecord::Commit { seq } = r {
                state.finalize(&base);
                state.commits = state.commits.max(seq + 1);
                base = state.clone();
            }
        }
        let tail_dirty = state
            .shards
            .iter()
            .zip(base.shards.iter())
            .any(|(a, b)| !Arc::ptr_eq(a, b));
        if tail_dirty {
            let commits = state.commits;
            state.finalize(&base);
            state.commits = commits;
        }
        StoreSnapshot {
            state: Arc::new(state),
        }
    }

    /// Returns a new snapshot with `records` applied copy-on-write on top
    /// of `self`, as one committed batch. Shards and device records the
    /// batch does not touch stay `Arc`-shared with `self`, so
    /// [`snapshot_delta`](crate::ivm::snapshot_delta) between `self` and
    /// the overlay — and everything built on it, like `occam-update`'s
    /// config diff — costs O(records), not O(devices). This is how
    /// "target state" snapshots should be constructed for diffing against
    /// a live base.
    pub fn overlay(&self, records: &[WalRecord]) -> StoreSnapshot {
        let mut state = (*self.state).clone();
        for r in records {
            state.apply(r);
        }
        state.finalize(&self.state);
        StoreSnapshot {
            state: Arc::new(state),
        }
    }

    /// Number of committed batches folded into this snapshot — equal to
    /// the WAL commit count at the instant the snapshot was taken, so a
    /// read served from it can be placed exactly in the commit order.
    pub fn commits(&self) -> u64 {
        self.state.commits
    }

    /// The snapshot as a checkpoint: one insert per device (name order),
    /// then one per link (key order), sealed by the `Commit` marker of
    /// the last commit the snapshot holds. Replaying it from empty
    /// rebuilds this snapshot and its commit count; equal snapshots give
    /// equal checkpoints. An empty history gives no records at all.
    pub fn checkpoint(&self) -> Vec<WalRecord> {
        let mut devices: Vec<(&String, &Arc<DeviceRecord>)> = self
            .state
            .shards
            .iter()
            .flat_map(|s| s.devices.iter())
            .collect();
        devices.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut links: Vec<(&LinkKey, &Arc<LinkRecord>)> = self
            .state
            .shards
            .iter()
            .flat_map(|s| s.links.iter())
            .collect();
        links.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let attrs = |m: &BTreeMap<String, AttrValue>| {
            m.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut out = Vec::with_capacity(devices.len() + links.len() + 1);
        for (name, dev) in devices {
            out.push(WalRecord::InsertDevice {
                name: name.clone(),
                attrs: attrs(&dev.attrs),
            });
        }
        for ((a, z), link) in links {
            out.push(WalRecord::InsertLink {
                a_end: a.clone(),
                z_end: z.clone(),
                attrs: attrs(&link.attrs),
            });
        }
        if let Some(seq) = self.commits().checked_sub(1) {
            out.push(WalRecord::Commit { seq });
        }
        out
    }

    /// The per-shard monotonic version vector ([`NUM_SHARDS`] entries):
    /// entry `i` counts the committed batches that modified shard `i`.
    /// OCC validation compares these against the currently published
    /// vector to detect conflicting writes since the snapshot was taken.
    pub fn shard_versions(&self) -> &[u64] {
        &self.state.versions
    }

    /// The version counter of one shard. Panics if `shard >= NUM_SHARDS`.
    pub fn shard_version(&self, shard: usize) -> u64 {
        self.state.versions[shard]
    }

    /// The shards a scope can reach, as `(shard, prefix)` scan inputs.
    fn scoped_shards<'a>(&'a self, prefix: &str) -> impl Iterator<Item = &'a ShardData> + 'a {
        let route = route_prefix(prefix);
        self.state
            .shards
            .iter()
            .enumerate()
            .filter(move |(i, _)| match route {
                ShardRoute::One(idx) => *i == idx,
                ShardRoute::All => true,
            })
            .map(|(_, s)| s.as_ref())
    }

    /// Names of devices matching `scope`, sorted.
    pub fn select_devices(&self, scope: &Pattern) -> Vec<String> {
        let prefix = scope.literal_prefix();
        let mut out: Vec<String> = Vec::new();
        for shard in self.scoped_shards(&prefix) {
            out.extend(
                prefixed(shard, &prefix)
                    .filter(|(n, _)| scope.matches(n))
                    .map(|(n, _)| n.clone()),
            );
        }
        // Shards partition the namespace by hash, so cross-shard results
        // arrive unordered; single-shard results are already sorted.
        if matches!(route_prefix(&prefix), ShardRoute::All) {
            out.sort_unstable();
        }
        out
    }

    /// `device → value` for one attribute across a scope; devices without
    /// the attribute are omitted.
    pub fn get_attr(&self, scope: &Pattern, attr: &str) -> BTreeMap<String, AttrValue> {
        let prefix = scope.literal_prefix();
        let mut out = BTreeMap::new();
        for shard in self.scoped_shards(&prefix) {
            for (n, d) in prefixed(shard, &prefix).filter(|(n, _)| scope.matches(n)) {
                if let Some(v) = d.attrs.get(attr) {
                    out.insert(n.clone(), v.clone());
                }
            }
        }
        out
    }

    /// The full attribute map for every device in a scope.
    pub fn get_all(&self, scope: &Pattern) -> BTreeMap<String, BTreeMap<String, AttrValue>> {
        let prefix = scope.literal_prefix();
        let mut out = BTreeMap::new();
        for shard in self.scoped_shards(&prefix) {
            for (n, d) in prefixed(shard, &prefix).filter(|(n, _)| scope.matches(n)) {
                out.insert(n.clone(), d.attrs.clone());
            }
        }
        out
    }

    /// True if a device row exists.
    pub fn device_exists(&self, name: &str) -> bool {
        self.state.device_exists(name)
    }

    /// The attribute map of one device, if it exists.
    pub fn device_attrs(&self, name: &str) -> Option<BTreeMap<String, AttrValue>> {
        self.state.shards[shard_of(name)]
            .devices
            .get(name)
            .map(|d| d.attrs.clone())
    }

    /// One attribute of one device: a point lookup in the device's home
    /// shard, with no scope walk and no clone.
    pub fn device_attr(&self, name: &str, attr: &str) -> Option<&AttrValue> {
        self.state.shards[shard_of(name)]
            .devices
            .get(name)?
            .attrs
            .get(attr)
    }

    /// Keys of the links with at least one endpoint matching `scope`,
    /// sorted. Served from the per-endpoint index, so a pod-scoped query
    /// scans one shard's index slice rather than every link.
    pub fn links_touching(&self, scope: &Pattern) -> Vec<LinkKey> {
        let prefix = scope.literal_prefix();
        let mut out: BTreeSet<LinkKey> = BTreeSet::new();
        for shard in self.scoped_shards(&prefix) {
            for (endpoint, keys) in shard
                .by_endpoint
                .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
                .take_while(|(n, _)| n.starts_with(&prefix))
            {
                if scope.matches(endpoint) {
                    out.extend(keys.iter().cloned());
                }
            }
        }
        out.into_iter().collect()
    }

    /// `link → value` for one attribute across links touching a scope;
    /// links without the attribute are omitted.
    pub fn get_link_attr(&self, scope: &Pattern, attr: &str) -> BTreeMap<LinkKey, AttrValue> {
        let mut out = BTreeMap::new();
        for key in self.links_touching(scope) {
            if let Some(v) = self.link_attrs_ref(&key).and_then(|attrs| attrs.get(attr)) {
                out.insert(key, v.clone());
            }
        }
        out
    }

    fn link_attrs_ref(&self, key: &LinkKey) -> Option<&BTreeMap<String, AttrValue>> {
        self.state.shards[shard_of(&key.0)]
            .links
            .get(key)
            .map(|l| &l.attrs)
    }

    /// The attribute map of one link (key need not be normalized).
    pub fn link_attrs(&self, a_end: &str, z_end: &str) -> Option<BTreeMap<String, AttrValue>> {
        self.link_attrs_ref(&link_key(a_end, z_end)).cloned()
    }

    /// Number of device rows.
    pub fn num_devices(&self) -> usize {
        self.state.num_devices()
    }

    /// Number of link rows.
    pub fn num_links(&self) -> usize {
        self.state.num_links()
    }

    /// Flattens the snapshot into the legacy [`Store`] representation —
    /// the deep-clone escape hatch for [`crate::db::diff`] and other
    /// whole-store consumers. O(devices + links).
    pub fn materialize(&self) -> Store {
        let mut store = Store::default();
        for shard in &self.state.shards {
            for (n, d) in &shard.devices {
                store.devices.insert(n.clone(), (**d).clone());
            }
            for (k, l) in &shard.links {
                store.links.insert(k.clone(), (**l).clone());
            }
            for (e, keys) in &shard.by_endpoint {
                store
                    .by_endpoint
                    .entry(e.clone())
                    .or_default()
                    .extend(keys.iter().cloned());
            }
        }
        store
    }

    /// Verifies internal invariants: every device and endpoint is homed
    /// in the shard the router assigns it, every link is owned by its
    /// `key.0` shard, and the per-endpoint index is exactly the set of
    /// existing links. Used by the stress tests and the bench smoke gate.
    pub fn self_check(&self) -> Result<(), String> {
        let state = &self.state;
        if state.shards.len() != NUM_SHARDS {
            return Err(format!("expected {NUM_SHARDS} shards"));
        }
        let mut indexed: BTreeSet<LinkKey> = BTreeSet::new();
        for (i, shard) in state.shards.iter().enumerate() {
            for name in shard.devices.keys() {
                if shard_of(name) != i {
                    return Err(format!("device {name} homed in wrong shard {i}"));
                }
            }
            for key in shard.links.keys() {
                if shard_of(&key.0) != i {
                    return Err(format!("link {key:?} owned by wrong shard {i}"));
                }
                if key.0 > key.1 {
                    return Err(format!("link key {key:?} not normalized"));
                }
            }
            for (endpoint, keys) in &shard.by_endpoint {
                if shard_of(endpoint) != i {
                    return Err(format!("endpoint {endpoint} indexed in wrong shard {i}"));
                }
                if keys.is_empty() {
                    return Err(format!("empty index set left for {endpoint}"));
                }
                for key in keys {
                    if key.0 != *endpoint && key.1 != *endpoint {
                        return Err(format!("{endpoint} indexes foreign link {key:?}"));
                    }
                    if !state.link_exists(key) {
                        return Err(format!("index references missing link {key:?}"));
                    }
                    indexed.insert(key.clone());
                }
            }
        }
        let total_links = state.num_links();
        if indexed.len() != total_links {
            return Err(format!(
                "index covers {} links, store holds {total_links}",
                indexed.len()
            ));
        }
        Ok(())
    }
}

impl PartialEq for StoreSnapshot {
    fn eq(&self, other: &StoreSnapshot) -> bool {
        self.state
            .shards
            .iter()
            .zip(other.state.shards.iter())
            // Shard routing is deterministic, so shard-wise equality is
            // store equality; pointer equality short-circuits unchanged
            // shards (the common case between nearby snapshots).
            .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl PartialEq<Store> for StoreSnapshot {
    fn eq(&self, other: &Store) -> bool {
        if self.num_devices() != other.devices.len() || self.num_links() != other.links.len() {
            return false;
        }
        self.state.shards.iter().all(|shard| {
            shard
                .devices
                .iter()
                .all(|(n, d)| other.devices.get(n).is_some_and(|od| **d == *od))
                && shard
                    .links
                    .iter()
                    .all(|(k, l)| other.links.get(k).is_some_and(|ol| **l == *ol))
        })
    }
}

impl PartialEq<StoreSnapshot> for Store {
    fn eq(&self, other: &StoreSnapshot) -> bool {
        other == self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conforming_names_shard_by_dc_pod() {
        assert_eq!(
            shard_of("dc01.pod03.tor07"),
            shard_of("dc01.pod03.tor00.host02")
        );
        assert_eq!(shard_of("dc01.pod03.tor07"), shard_of("dc01.pod03.agg01"));
        assert_ne!(shard_of("dc01.pod03.tor07"), shard_of("dc01.pod04.tor07"));
        assert_eq!(shard_of("dc02.core.c00"), shard_of("dc02.core.c07"));
        assert!(shard_of("dc01.pod00.sw00") < DEVICE_SHARDS);
    }

    #[test]
    fn foreign_names_land_in_catch_all() {
        for name in ["rack5", "", "dcxx.pod01.tor01", "x.y.z", "dc.pod00.a"] {
            assert_eq!(shard_of(name), CATCH_ALL_SHARD, "{name:?}");
        }
        // A bare `dcNN` is conforming (pod slot 0).
        assert!(shard_of("dc07") < DEVICE_SHARDS);
    }

    #[test]
    fn prefix_routing_is_sound_and_precise() {
        // Complete (dc, pod) prefix pins the shard of every match.
        assert_eq!(
            route_prefix("dc01.pod03."),
            ShardRoute::One(shard_of("dc01.pod03.tor07"))
        );
        assert_eq!(
            route_prefix("dc01.core.c"),
            ShardRoute::One(shard_of("dc01.core.c00"))
        );
        // Complete foreign first label pins the catch-all.
        assert_eq!(route_prefix("rack."), ShardRoute::One(CATCH_ALL_SHARD));
        // Incomplete labels cannot be routed.
        assert_eq!(route_prefix(""), ShardRoute::All);
        assert_eq!(route_prefix("dc01"), ShardRoute::All);
        assert_eq!(route_prefix("dc01.pod0"), ShardRoute::All);
    }

    #[test]
    fn replay_matches_naive_store_on_a_small_script() {
        let records = vec![
            WalRecord::InsertDevice {
                name: "dc01.pod00.tor00".into(),
                attrs: vec![("A".into(), AttrValue::Int(1))],
            },
            WalRecord::InsertDevice {
                name: "weird-device".into(),
                attrs: vec![],
            },
            WalRecord::InsertLink {
                a_end: "dc01.pod00.tor00".into(),
                z_end: "weird-device".into(),
                attrs: vec![("S".into(), AttrValue::Int(9))],
            },
            WalRecord::SetDeviceAttr {
                name: "missing".into(),
                attr: "X".into(),
                value: AttrValue::Int(0),
            },
            WalRecord::DeleteDevice {
                name: "weird-device".into(),
            },
            WalRecord::Commit { seq: 0 },
        ];
        let sharded = StoreSnapshot::replay(&records);
        let naive = Store::replay(&records);
        assert_eq!(sharded, naive);
        sharded.self_check().unwrap();
        assert_eq!(sharded.materialize(), naive);
        assert_eq!(sharded.num_links(), 0);
    }

    #[test]
    fn snapshot_reads_mirror_scope_semantics() {
        let mut recs = Vec::new();
        for pod in 0..3u32 {
            for sw in 0..2u32 {
                recs.push(WalRecord::InsertDevice {
                    name: format!("dc01.pod{pod:02}.sw{sw:02}"),
                    attrs: vec![("N".into(), AttrValue::Int(i64::from(pod)))],
                });
            }
        }
        recs.push(WalRecord::InsertLink {
            a_end: "dc01.pod00.sw00".into(),
            z_end: "dc01.pod01.sw00".into(),
            attrs: vec![],
        });
        let snap = StoreSnapshot::replay(&recs);
        let pod1 = Pattern::from_glob("dc01.pod01.*").unwrap();
        assert_eq!(
            snap.select_devices(&pod1),
            vec!["dc01.pod01.sw00".to_string(), "dc01.pod01.sw01".to_string()]
        );
        assert_eq!(snap.get_attr(&pod1, "N").len(), 2);
        // The cross-pod link is visible from both endpoints' scopes.
        assert_eq!(snap.links_touching(&pod1).len(), 1);
        assert_eq!(
            snap.links_touching(&Pattern::from_glob("dc01.pod00.*").unwrap()),
            snap.links_touching(&pod1)
        );
        let all = Pattern::from_glob("*").unwrap();
        let everything = snap.select_devices(&all);
        assert_eq!(everything.len(), 6);
        let mut sorted = everything.clone();
        sorted.sort();
        assert_eq!(everything, sorted, "All-route results must stay sorted");
    }
}
