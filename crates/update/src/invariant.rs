//! The invariant engine: model checking intermediate network states
//! against the emunet forwarding model.
//!
//! The model is the same one `occam_emunet::EmuNet` forwards with: ECMP
//! shortest paths over the shared [`Topology`], where a link is usable
//! iff neither endpoint is drained, and a switch that is reconfiguring
//! while undrained black-holes everything through it
//! (`SwitchState::black_holes`). A [`ModelState`] abstracts one
//! intermediate moment of an update — which devices are drained, which
//! are mid-push — and [`Checker::check`] decides whether every declared
//! [`TrafficClass`] still satisfies:
//!
//! - **loop freedom** — the forwarding walk never traverses the same
//!   directed edge twice;
//! - **no-blackhole** — a path exists and no device on it is mid-push
//!   while undrained;
//! - **waypoint traversal** — classes scoped by a regex must traverse at
//!   least one device matching it (service-chaining through inspection
//!   middleboxes, paper case study #2).
//!
//! Endpoints are strict: a class whose source or destination device is
//! itself drained counts as a no-blackhole violation. Plan updates that
//! must take an access switch down should scope their classes (or move
//! the access change to a database-only operation) — see DESIGN.md §15.2.

use occam_regex::Pattern;
use occam_topology::{DeviceId, LinkId, Topology};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};

/// One unit of traffic the update must never break: a source/destination
/// pair with a stable ECMP hash, optionally constrained to traverse a
/// waypoint.
#[derive(Clone, Debug)]
pub struct TrafficClass {
    /// Human-readable class name, used in violation reports.
    pub name: String,
    /// Source device.
    pub src: DeviceId,
    /// Destination device.
    pub dst: DeviceId,
    /// ECMP flow hash: keeps the checked path stable per class while
    /// different classes spread across the fabric.
    pub hash: u64,
    /// When set, the class's path must traverse a device whose name
    /// matches this pattern (regex-scoped waypointing).
    pub waypoint: Option<Pattern>,
}

impl TrafficClass {
    /// A plain reachability class with no waypoint constraint.
    pub fn pair(name: impl Into<String>, src: DeviceId, dst: DeviceId, hash: u64) -> TrafficClass {
        TrafficClass {
            name: name.into(),
            src,
            dst,
            hash,
            waypoint: None,
        }
    }
}

/// One intermediate moment of an update, abstracted to the two facts the
/// forwarding model cares about.
#[derive(Clone, Default, Debug)]
pub struct ModelState {
    /// Devices the control plane routes around (admin-drained, or
    /// drained by the wave barrier currently executing).
    pub drained: HashSet<DeviceId>,
    /// Devices whose configuration is being rewritten right now. A
    /// device that is `in_flux` but not `drained` black-holes traffic —
    /// exactly `SwitchState::black_holes()`.
    pub in_flux: HashSet<DeviceId>,
}

/// Why a class fails in a given state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// No usable path exists (or an endpoint is drained).
    NoPath,
    /// The path crosses a device that is reconfiguring while undrained.
    Blackhole {
        /// The black-holing device's name.
        device: String,
    },
    /// The forwarding walk traverses a directed edge twice.
    Loop {
        /// The first device where the walk re-enters itself.
        device: String,
    },
    /// No usable path traverses the class's waypoint pattern.
    WaypointMissed {
        /// The waypoint pattern source.
        pattern: String,
    },
}

/// A failed class in a checked state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// The violated class's name.
    pub class: String,
    /// What went wrong.
    pub kind: ViolationKind,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ViolationKind::NoPath => write!(f, "{}: no usable path", self.class),
            ViolationKind::Blackhole { device } => {
                write!(f, "{}: black-holed at {device}", self.class)
            }
            ViolationKind::Loop { device } => {
                write!(f, "{}: forwarding loop through {device}", self.class)
            }
            ViolationKind::WaypointMissed { pattern } => {
                write!(f, "{}: no path through waypoint /{pattern}/", self.class)
            }
        }
    }
}

/// The model checker: a topology plus the traffic classes the update
/// must preserve.
///
/// A class's forwarding path depends only on which devices are drained
/// (`in_flux` matters only to the black-hole scan over that path), so
/// the checker memoizes each class's path keyed by the exact drained set
/// restricted to topology devices. A check therefore costs one ECMP BFS
/// per class per *distinct* drained set over the checker's lifetime;
/// repeated drained sets (the barrier-less mid-wave check, the post-wave
/// boundary, the base state) cost a bitmap and a table lookup. The memo
/// grows by at most one entry per check; the synthesizer and the
/// verifier each build a fresh checker per run, so it never outlives
/// one plan.
pub struct Checker<'a> {
    topo: &'a Topology,
    classes: &'a [TrafficClass],
    /// Per class, the topology devices matching its waypoint pattern,
    /// sorted by name (the detour preference order); empty for a plain
    /// class.
    waypoints: Vec<Vec<DeviceId>>,
    /// Drained-set bitmap → per-class route, filled on first use.
    memo: RefCell<HashMap<Vec<u64>, Vec<Option<Route>>>>,
    path_hits: Cell<u64>,
    path_misses: Cell<u64>,
}

/// A class's forwarding outcome under one drained set.
#[derive(Clone)]
enum Route {
    /// The forwarding walk, and the entry device of its first repeated
    /// directed edge, if any.
    Path {
        path: Vec<DeviceId>,
        loop_at: Option<DeviceId>,
    },
    /// No usable path exists.
    NoPath,
    /// The endpoints are connected, but no usable path traverses the
    /// class's waypoint.
    WaypointMissed,
}

/// The drained devices of one state as a dense bitmap over topology
/// device ids: the memo key and the BFS link filter in one.
struct DrainedMask(Vec<u64>);

impl DrainedMask {
    fn new(topo: &Topology, drained: &HashSet<DeviceId>) -> DrainedMask {
        let n = topo.num_devices();
        let mut words = vec![0u64; n.div_ceil(64)];
        for id in drained {
            let i = id.0 as usize;
            if i < n {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        DrainedMask(words)
    }

    fn contains(&self, id: DeviceId) -> bool {
        let i = id.0 as usize;
        self.0.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
    }
}

impl<'a> Checker<'a> {
    /// Builds a checker over `topo` for `classes`. Waypoint candidates
    /// do not depend on the model state, so each class's pattern is
    /// matched against the topology's device names once, here.
    pub fn new(topo: &'a Topology, classes: &'a [TrafficClass]) -> Checker<'a> {
        let waypoints = classes
            .iter()
            .map(|c| {
                let Some(wp) = &c.waypoint else {
                    return Vec::new();
                };
                let mut named: Vec<(&str, DeviceId)> = topo
                    .devices()
                    .filter(|(_, d)| wp.matches(&d.name))
                    .map(|(id, d)| (d.name.as_str(), id))
                    .collect();
                named.sort();
                named.into_iter().map(|(_, id)| id).collect()
            })
            .collect();
        Checker {
            topo,
            classes,
            waypoints,
            memo: RefCell::new(HashMap::new()),
            path_hits: Cell::new(0),
            path_misses: Cell::new(0),
        }
    }

    /// The classes this checker enforces.
    pub fn classes(&self) -> &[TrafficClass] {
        self.classes
    }

    /// Class path lookups answered from the memo so far.
    pub fn path_hits(&self) -> u64 {
        self.path_hits.get()
    }

    /// Class path lookups that ran a BFS so far.
    pub fn path_misses(&self) -> u64 {
        self.path_misses.get()
    }

    /// Checks every class against `state`; returns all violations (empty
    /// means the state is safe).
    pub fn check(&self, state: &ModelState) -> Vec<Violation> {
        let drained = DrainedMask::new(self.topo, &state.drained);
        let mut memo = self.memo.borrow_mut();
        let routes = memo
            .entry(drained.0.clone())
            .or_insert_with(|| vec![None; self.classes.len()]);
        let mut violations = Vec::new();
        for (i, class) in self.classes.iter().enumerate() {
            let mut fail = |kind| {
                violations.push(Violation {
                    class: class.name.clone(),
                    kind,
                })
            };
            if drained.contains(class.src) || drained.contains(class.dst) {
                fail(ViolationKind::NoPath);
                continue;
            }
            let route = match &mut routes[i] {
                Some(route) => {
                    self.path_hits.set(self.path_hits.get() + 1);
                    route
                }
                slot => {
                    self.path_misses.set(self.path_misses.get() + 1);
                    slot.insert(self.route(i, &drained))
                }
            };
            match route {
                Route::NoPath => fail(ViolationKind::NoPath),
                Route::WaypointMissed => fail(ViolationKind::WaypointMissed {
                    pattern: class
                        .waypoint
                        .as_ref()
                        .map(|wp| wp.source().to_string())
                        .unwrap_or_default(),
                }),
                Route::Path { path, loop_at } => {
                    let black_hole = path
                        .iter()
                        .find(|d| state.in_flux.contains(*d) && !drained.contains(**d));
                    if let Some(d) = black_hole {
                        fail(ViolationKind::Blackhole {
                            device: self.topo.device(*d).name.clone(),
                        });
                    } else if let Some(d) = loop_at {
                        fail(ViolationKind::Loop {
                            device: self.topo.device(*d).name.clone(),
                        });
                    }
                }
            }
        }
        violations
    }

    /// Computes class `i`'s route with `drained` routed around: its ECMP
    /// path, or for a waypoint class the natural path when it already
    /// traverses a waypoint, else the detour through the first (by name)
    /// usable waypoint, mirroring the emunet middlebox detour.
    fn route(&self, i: usize, drained: &DrainedMask) -> Route {
        let class = &self.classes[i];
        let usable = |l: LinkId| {
            let link = self.topo.link(l);
            !drained.contains(link.a_end) && !drained.contains(link.z_end)
        };
        let direct = self
            .topo
            .ecmp_path(class.src, class.dst, class.hash, usable);
        let path = match &class.waypoint {
            Some(wp) => {
                let through_waypoint = direct
                    .as_ref()
                    .is_some_and(|p| p.iter().any(|d| wp.matches(&self.topo.device(*d).name)));
                if through_waypoint {
                    direct
                } else {
                    let detour = self.waypoints[i]
                        .iter()
                        .filter(|w| !drained.contains(**w))
                        .find_map(|&w| {
                            let mut head = self.topo.ecmp_path(class.src, w, class.hash, usable)?;
                            let tail = self.topo.ecmp_path(w, class.dst, class.hash, usable)?;
                            head.extend_from_slice(&tail[1..]);
                            Some(head)
                        });
                    match detour {
                        Some(p) => Some(p),
                        // Distinguish "no waypoint survives" from plain
                        // unreachability: if a direct path exists the
                        // fabric is connected and only the waypoint
                        // constraint failed.
                        None if direct.is_some() => return Route::WaypointMissed,
                        None => None,
                    }
                }
            }
            None => direct,
        };
        match path {
            Some(path) => Route::Path {
                loop_at: first_repeated_edge(&path),
                path,
            },
            None => Route::NoPath,
        }
    }
}

/// The entry device of the first directed edge the walk traverses twice,
/// or `None` for a loop-free walk. Revisiting a *device* in the opposite
/// direction (a waypoint detour doubling back) is not a loop; re-sending
/// a packet over the same directed edge is.
fn first_repeated_edge(path: &[DeviceId]) -> Option<DeviceId> {
    let mut seen = HashSet::new();
    for pair in path.windows(2) {
        if !seen.insert((pair[0], pair[1])) {
            return Some(pair[0]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use occam_topology::FatTree;

    fn ft() -> FatTree {
        FatTree::build(1, 4).expect("k=4")
    }

    fn classes(ft: &FatTree) -> Vec<TrafficClass> {
        // Cross-pod host pairs, one per adjacent pod pair.
        (0..4u64)
            .map(|p| {
                TrafficClass::pair(
                    format!("c{p}"),
                    ft.hosts[p as usize][0][0],
                    ft.hosts[((p + 1) % 4) as usize][1][1],
                    p,
                )
            })
            .collect()
    }

    #[test]
    fn healthy_fabric_is_clean() {
        let ft = ft();
        let cls = classes(&ft);
        let checker = Checker::new(&ft.topo, &cls);
        assert!(checker.check(&ModelState::default()).is_empty());
    }

    #[test]
    fn draining_one_agg_per_pod_is_safe() {
        let ft = ft();
        let cls = classes(&ft);
        let checker = Checker::new(&ft.topo, &cls);
        let state = ModelState {
            drained: ft.aggs.iter().map(|pod| pod[0]).collect(),
            in_flux: ft.aggs.iter().map(|pod| pod[0]).collect(),
        };
        assert!(checker.check(&state).is_empty());
    }

    #[test]
    fn draining_a_whole_pods_aggs_cuts_it_off() {
        let ft = ft();
        let cls = classes(&ft);
        let checker = Checker::new(&ft.topo, &cls);
        let state = ModelState {
            drained: ft.aggs[0].iter().copied().collect(),
            in_flux: HashSet::new(),
        };
        let violations = checker.check(&state);
        assert!(!violations.is_empty());
        assert!(violations.iter().all(|v| v.kind == ViolationKind::NoPath));
    }

    #[test]
    fn pushing_undrained_black_holes() {
        let ft = ft();
        let cls = classes(&ft);
        let checker = Checker::new(&ft.topo, &cls);
        // Reconfigure every core without draining: every cross-pod path
        // black-holes at its core hop.
        let state = ModelState {
            drained: HashSet::new(),
            in_flux: ft.cores.iter().copied().collect(),
        };
        let violations = checker.check(&state);
        assert!(!violations.is_empty());
        assert!(violations
            .iter()
            .all(|v| matches!(v.kind, ViolationKind::Blackhole { .. })));
    }

    #[test]
    fn waypoint_scoping_is_enforced() {
        let ft = ft();
        let wp = Pattern::new("dc01\\.pod00\\.agg0[01]").expect("regex");
        let class = TrafficClass {
            name: "inspected".into(),
            src: ft.hosts[1][0][0],
            dst: ft.hosts[2][0][0],
            hash: 7,
            waypoint: Some(wp),
        };
        let cls = vec![class];
        let checker = Checker::new(&ft.topo, &cls);
        // Healthy: a detour through pod00's aggs exists.
        assert!(checker.check(&ModelState::default()).is_empty());
        // Drain both inspection aggs: the constraint is unsatisfiable
        // even though src and dst stay connected.
        let state = ModelState {
            drained: ft.aggs[0].iter().copied().collect(),
            in_flux: HashSet::new(),
        };
        let violations = checker.check(&state);
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0].kind,
            ViolationKind::WaypointMissed { .. }
        ));
    }

    #[test]
    fn drained_endpoint_is_a_violation() {
        let ft = ft();
        let cls = vec![TrafficClass::pair("c", ft.tors[0][0], ft.tors[1][0], 1)];
        let checker = Checker::new(&ft.topo, &cls);
        let state = ModelState {
            drained: [ft.tors[0][0]].into_iter().collect(),
            in_flux: HashSet::new(),
        };
        assert_eq!(checker.check(&state).len(), 1);
    }

    #[test]
    fn repeated_edge_detector() {
        let a = DeviceId(0);
        let b = DeviceId(1);
        let c = DeviceId(2);
        assert_eq!(first_repeated_edge(&[a, b, c]), None);
        // Doubling back over distinct directed edges is not a loop.
        assert_eq!(first_repeated_edge(&[a, b, a, c]), None);
        // Re-traversing a→b is.
        assert_eq!(first_repeated_edge(&[a, b, a, b]), Some(a));
    }
}
