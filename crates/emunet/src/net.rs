//! The emulated network: topology + switch states + flows + discrete-time
//! traffic stepping.

use crate::switch::{FlowClass, SwitchState};
use occam_topology::{DeviceId, FatTree, LinkId, Role, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// A unidirectional traffic flow between two hosts.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Flow identifier.
    pub id: u64,
    /// Source host.
    pub src: DeviceId,
    /// Destination host.
    pub dst: DeviceId,
    /// Offered rate (Mbps).
    pub rate: f64,
    /// Traffic class.
    pub class: FlowClass,
}

/// Delivery outcome of one flow at one tick.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Delivery {
    /// Delivered end to end at the offered rate.
    Delivered,
    /// Delivered, but below the offered rate: some link on the path is
    /// over capacity and flows share it proportionally.
    Throttled,
    /// No usable path existed (drain/link-down isolation).
    NoPath,
    /// The path traversed an upgrading, undrained switch.
    BlackHoled,
    /// A switch on the path denylisted the flow's class.
    Blocked,
}

/// One tick's traffic snapshot.
#[derive(Clone, Debug, Default)]
pub struct TrafficSample {
    /// Tick number.
    pub tick: u64,
    /// Delivered rate transiting each switch (Mbps).
    pub switch_rate: HashMap<DeviceId, f64>,
    /// Per-flow outcome and delivered rate.
    pub flow_rate: HashMap<u64, (Delivery, f64)>,
}

impl TrafficSample {
    /// Total delivered rate across a set of flows.
    pub fn delivered(&self, flows: &[u64]) -> f64 {
        flows
            .iter()
            .filter_map(|f| self.flow_rate.get(f))
            .map(|(_, r)| r)
            .sum()
    }
}

/// The emulated network.
#[derive(Clone, Debug)]
pub struct EmuNet {
    /// The underlying topology graph, shared: it never changes after
    /// construction, so planners take a reference-counted handle instead
    /// of a copy.
    pub topo: Arc<Topology>,
    state: HashMap<DeviceId, SwitchState>,
    link_up: Vec<bool>,
    /// Per-link capacity (Mbps); `f64::INFINITY` disables congestion.
    link_capacity: Vec<f64>,
    flows: Vec<Flow>,
    next_flow: u64,
    tick: u64,
    /// Designated middlebox for `middlebox_rerouting` (case study #2).
    pub middlebox: Option<DeviceId>,
    history: Vec<TrafficSample>,
}

impl EmuNet {
    /// Builds an emulated network over a Fat-tree; all links start up and
    /// all switches undrained.
    pub fn from_fattree(ft: &FatTree) -> EmuNet {
        let topo = Arc::new(ft.topo.clone());
        let mut state = HashMap::new();
        for (id, d) in topo.devices() {
            if d.role != Role::Host {
                state.insert(id, SwitchState::default());
            }
        }
        let link_up = vec![true; topo.num_links()];
        let link_capacity = vec![f64::INFINITY; topo.num_links()];
        EmuNet {
            topo,
            state,
            link_up,
            link_capacity,
            flows: Vec::new(),
            next_flow: 0,
            tick: 0,
            middlebox: None,
            history: Vec::new(),
        }
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Switch state accessor.
    pub fn switch(&self, id: DeviceId) -> Option<&SwitchState> {
        self.state.get(&id)
    }

    /// Mutable switch state accessor (device functions use this).
    pub fn switch_mut(&mut self, id: DeviceId) -> Option<&mut SwitchState> {
        self.state.get_mut(&id)
    }

    /// Resolves a device name to its id.
    pub fn device_by_name(&self, name: &str) -> Option<DeviceId> {
        self.topo.device_by_name(name)
    }

    /// Sets a link up or down.
    pub fn set_link(&mut self, link: LinkId, up: bool) {
        if let Some(slot) = self.link_up.get_mut(link.0 as usize) {
            *slot = up;
        }
    }

    /// Link state.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.link_up.get(link.0 as usize).copied().unwrap_or(false)
    }

    /// Sets one link's capacity in Mbps (`f64::INFINITY` = uncongested).
    pub fn set_link_capacity(&mut self, link: LinkId, mbps: f64) {
        if let Some(slot) = self.link_capacity.get_mut(link.0 as usize) {
            *slot = mbps.max(0.0);
        }
    }

    /// Sets every link's capacity in Mbps.
    pub fn set_all_link_capacities(&mut self, mbps: f64) {
        for slot in self.link_capacity.iter_mut() {
            *slot = mbps.max(0.0);
        }
    }

    /// A link's capacity in Mbps.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.link_capacity
            .get(link.0 as usize)
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    /// Finds the link between two devices, if any.
    pub fn link_between(&self, a: DeviceId, b: DeviceId) -> Option<LinkId> {
        self.topo
            .neighbors(a)
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, l)| l)
    }

    /// Adds a flow; returns its id.
    pub fn add_flow(&mut self, src: DeviceId, dst: DeviceId, rate: f64, class: FlowClass) -> u64 {
        let id = self.next_flow;
        self.next_flow += 1;
        self.flows.push(Flow {
            id,
            src,
            dst,
            rate,
            class,
        });
        id
    }

    /// Removes a flow.
    pub fn remove_flow(&mut self, id: u64) {
        self.flows.retain(|f| f.id != id);
    }

    /// True if a link is usable by the routing layer: up, and neither
    /// endpoint is a drained switch (hosts are never drained).
    fn usable(&self, link: LinkId) -> bool {
        if !self.link_is_up(link) {
            return false;
        }
        let l = self.topo.link(link);
        for end in [l.a_end, l.z_end] {
            if let Some(s) = self.state.get(&end) {
                if s.drained {
                    return false;
                }
            }
        }
        true
    }

    /// Computes the path a flow takes right now, including any middlebox
    /// detour for [`FlowClass::Inspected`] traffic.
    pub fn flow_path(&self, flow: &Flow) -> Option<Vec<DeviceId>> {
        let usable = |l: LinkId| self.usable(l);
        match (flow.class, self.middlebox) {
            (FlowClass::Inspected, Some(mb)) if mb != flow.src && mb != flow.dst => {
                let first = self.topo.ecmp_path(flow.src, mb, flow.id, usable)?;
                let second = self.topo.ecmp_path(mb, flow.dst, flow.id, usable)?;
                let mut path = first;
                path.extend_from_slice(&second[1..]);
                Some(path)
            }
            _ => self.topo.ecmp_path(flow.src, flow.dst, flow.id, usable),
        }
    }

    /// Advances one tick: routes every flow, classifies its delivery,
    /// applies link-capacity sharing, and records per-switch throughput.
    pub fn step(&mut self) -> TrafficSample {
        let mut sample = TrafficSample {
            tick: self.tick,
            ..TrafficSample::default()
        };
        let flows = self.flows.clone();
        // Pass 1: route every flow, classify switch-level outcomes.
        let mut routed: Vec<(u64, f64, Vec<DeviceId>)> = Vec::new();
        for flow in &flows {
            match self.flow_path(flow) {
                None => {
                    sample.flow_rate.insert(flow.id, (Delivery::NoPath, 0.0));
                }
                Some(path) => {
                    let mut outcome = Delivery::Delivered;
                    for dev in &path {
                        if let Some(s) = self.state.get(dev) {
                            if s.black_holes() {
                                outcome = Delivery::BlackHoled;
                                break;
                            }
                            if !s.forwards(flow.class) {
                                outcome = Delivery::Blocked;
                                break;
                            }
                        }
                    }
                    if outcome == Delivery::Delivered {
                        routed.push((flow.id, flow.rate, path));
                    } else {
                        sample.flow_rate.insert(flow.id, (outcome, 0.0));
                    }
                }
            }
        }
        // Pass 2: congestion — offered load per link; over-capacity links
        // scale their flows proportionally (a flow gets the minimum share
        // along its path).
        let mut offered: HashMap<LinkId, f64> = HashMap::new();
        let link_of = |topo: &Topology, a: DeviceId, b: DeviceId| -> Option<LinkId> {
            topo.neighbors(a)
                .iter()
                .find(|&&(n, _)| n == b)
                .map(|&(_, l)| l)
        };
        for (_, rate, path) in &routed {
            for hop in path.windows(2) {
                if let Some(l) = link_of(&self.topo, hop[0], hop[1]) {
                    *offered.entry(l).or_insert(0.0) += rate;
                }
            }
        }
        for (id, rate, path) in routed {
            let mut factor = 1.0f64;
            for hop in path.windows(2) {
                if let Some(l) = link_of(&self.topo, hop[0], hop[1]) {
                    let cap = self.link_capacity(l);
                    let load = offered.get(&l).copied().unwrap_or(0.0);
                    if load > cap {
                        factor = factor.min(cap / load);
                    }
                }
            }
            let delivered = rate * factor;
            let outcome = if factor < 1.0 {
                Delivery::Throttled
            } else {
                Delivery::Delivered
            };
            sample.flow_rate.insert(id, (outcome, delivered));
            if delivered > 0.0 {
                for dev in &path {
                    if self.state.contains_key(dev) {
                        *sample.switch_rate.entry(*dev).or_insert(0.0) += delivered;
                    }
                }
            }
        }
        self.tick += 1;
        self.history.push(sample.clone());
        sample
    }

    /// Runs `n` ticks, returning the last sample.
    pub fn run(&mut self, n: u64) -> TrafficSample {
        let mut last = TrafficSample::default();
        for _ in 0..n {
            last = self.step();
        }
        last
    }

    /// The recorded per-tick history.
    pub fn history(&self) -> &[TrafficSample] {
        &self.history
    }

    /// The currently installed flows (update planners read these to
    /// derive the traffic classes a change must preserve).
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> (EmuNet, FatTree) {
        let ft = FatTree::build(1, 4).unwrap();
        (EmuNet::from_fattree(&ft), ft)
    }

    #[test]
    fn background_flow_delivers() {
        let (mut n, ft) = net();
        let f = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[2][1][1],
            100.0,
            FlowClass::Background,
        );
        let s = n.step();
        assert_eq!(s.flow_rate[&f], (Delivery::Delivered, 100.0));
        // Some switch carried the traffic.
        assert!(s.switch_rate.values().any(|&r| r > 0.0));
    }

    #[test]
    fn drained_switch_is_routed_around() {
        let (mut n, ft) = net();
        let f = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[2][0][0],
            50.0,
            FlowClass::Background,
        );
        // Drain one pod agg; ECMP has a redundant agg.
        let agg = ft.aggs[0][0];
        n.switch_mut(agg).unwrap().drained = true;
        let s = n.step();
        assert_eq!(s.flow_rate[&f], (Delivery::Delivered, 50.0));
        assert_eq!(
            s.switch_rate.get(&agg),
            None,
            "drained switch carries nothing"
        );
    }

    #[test]
    fn draining_the_only_tor_kills_the_flow() {
        let (mut n, ft) = net();
        let f = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[2][0][0],
            50.0,
            FlowClass::Background,
        );
        n.switch_mut(ft.tors[0][0]).unwrap().drained = true;
        let s = n.step();
        assert_eq!(s.flow_rate[&f], (Delivery::NoPath, 0.0));
    }

    #[test]
    fn upgrading_undrained_switch_black_holes() {
        let (mut n, ft) = net();
        let f = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[0][1][0],
            10.0,
            FlowClass::Background,
        );
        // Both aggs upgrade while carrying traffic: every intra-pod
        // cross-ToR path black-holes.
        for &agg in &ft.aggs[0] {
            n.switch_mut(agg).unwrap().upgrading = true;
        }
        let s = n.step();
        assert_eq!(s.flow_rate[&f].0, Delivery::BlackHoled);
    }

    #[test]
    fn denylist_blocks_suspicious_only() {
        let (mut n, ft) = net();
        let sus = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[0][0][1],
            5.0,
            FlowClass::Suspicious,
        );
        let bg = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[0][0][1],
            5.0,
            FlowClass::Background,
        );
        n.switch_mut(ft.tors[0][0])
            .unwrap()
            .denylist
            .push(FlowClass::Suspicious);
        let s = n.step();
        assert_eq!(s.flow_rate[&sus].0, Delivery::Blocked);
        assert_eq!(s.flow_rate[&bg].0, Delivery::Delivered);
    }

    #[test]
    fn link_down_forces_detour_or_kills() {
        let (mut n, ft) = net();
        let host = ft.hosts[0][0][0];
        let tor = ft.tors[0][0];
        let f = n.add_flow(host, ft.hosts[1][0][0], 20.0, FlowClass::Background);
        let l = n.link_between(host, tor).unwrap();
        n.set_link(l, false);
        let s = n.step();
        assert_eq!(s.flow_rate[&f].0, Delivery::NoPath);
        n.set_link(l, true);
        let s = n.step();
        assert_eq!(s.flow_rate[&f].0, Delivery::Delivered);
    }

    #[test]
    fn middlebox_detour_for_inspected_class() {
        let (mut n, ft) = net();
        let mb = ft.aggs[3][1];
        n.middlebox = Some(mb);
        let f = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[1][0][0],
            30.0,
            FlowClass::Inspected,
        );
        let flow = n.flows.iter().find(|fl| fl.id == f).unwrap().clone();
        let path = n.flow_path(&flow).unwrap();
        assert!(
            path.contains(&mb),
            "inspected traffic detours via middlebox"
        );
        let s = n.step();
        assert_eq!(s.flow_rate[&f].0, Delivery::Delivered);
        assert!(s.switch_rate[&mb] >= 30.0);
    }

    #[test]
    fn congested_link_shares_capacity_proportionally() {
        let (mut n, ft) = net();
        // Two same-ToR flows share the single host access link of the
        // destination? Use two flows from different hosts to the same host:
        // its access link is the bottleneck.
        let dst = ft.hosts[0][0][0];
        let f1 = n.add_flow(ft.hosts[0][0][1], dst, 60.0, FlowClass::Background);
        let f2 = n.add_flow(ft.hosts[0][1][0], dst, 60.0, FlowClass::Background);
        let tor = ft.tors[0][0];
        let access = n.link_between(dst, tor).unwrap();
        n.set_link_capacity(access, 60.0);
        let s = n.step();
        let (d1, r1) = s.flow_rate[&f1];
        let (d2, r2) = s.flow_rate[&f2];
        assert_eq!(d1, Delivery::Throttled);
        assert_eq!(d2, Delivery::Throttled);
        assert!((r1 + r2 - 60.0).abs() < 1e-6, "{r1} + {r2}");
        assert!((r1 - 30.0).abs() < 1e-6, "equal shares: {r1}");
    }

    #[test]
    fn infinite_capacity_never_throttles() {
        let (mut n, ft) = net();
        let f = n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[1][0][0],
            1e9,
            FlowClass::Background,
        );
        let s = n.step();
        assert_eq!(s.flow_rate[&f].0, Delivery::Delivered);
    }

    #[test]
    fn history_accumulates() {
        let (mut n, ft) = net();
        n.add_flow(
            ft.hosts[0][0][0],
            ft.hosts[0][0][1],
            1.0,
            FlowClass::Background,
        );
        n.run(5);
        assert_eq!(n.history().len(), 5);
        assert_eq!(n.history()[4].tick, 4);
        assert_eq!(n.now(), 5);
    }
}
