//! Checks made apart from the simulator: the benchmark's own wiring
//! plan, its own fault replay and its own shortest paths, compared
//! against what discovery reported and what the switches hold.
//!
//! The simulator's `check_invariants` also runs on every op, but these
//! checks do not call into it: a fault that breaks both the program
//! and its invariant checker in the same way still shows here.

use routeflow_autoconf::openflow::{Action, Wildcards};
use routeflow_autoconf::prelude::*;
use routeflow_autoconf::switch::OpenFlowSwitch;
use std::collections::{BTreeMap, VecDeque};

const IPV4: u16 = 0x0800;

/// (node, port) ↔ (node, port) for every topology edge. The scenario
/// builder wires ports in edge order: at each node, ports are numbered
/// from 1 and the node's edges claim them first, in `edges()` order.
pub struct Wiring {
    /// Per edge: (port at `a`, port at `b`).
    pub ports: Vec<(u16, u16)>,
    peer: BTreeMap<(usize, u16), (usize, usize)>,
}

impl Wiring {
    pub fn new(topo: &Topology) -> Wiring {
        let mut next = vec![1u16; topo.node_count()];
        let mut ports = Vec::with_capacity(topo.edge_count());
        let mut peer = BTreeMap::new();
        for (e, edge) in topo.edges().iter().enumerate() {
            let (pa, pb) = (next[edge.a], next[edge.b]);
            next[edge.a] += 1;
            next[edge.b] += 1;
            ports.push((pa, pb));
            peer.insert((edge.a, pa), (edge.b, e));
            peer.insert((edge.b, pb), (edge.a, e));
        }
        Wiring { ports, peer }
    }

    /// The neighbour and edge behind `port` of `node`.
    fn behind(&self, node: usize, port: u16) -> Option<(usize, usize)> {
        self.peer.get(&(node, port)).copied()
    }
}

/// Which nodes and edges are still in service once a fault schedule
/// has played out, replayed here rather than asked of the program.
pub struct Surviving {
    pub alive: Vec<bool>,
    pub up: Vec<bool>,
}

impl Surviving {
    pub fn all(topo: &Topology) -> Surviving {
        Surviving {
            alive: vec![true; topo.node_count()],
            up: vec![true; topo.edge_count()],
        }
    }

    pub fn after(topo: &Topology, faults: &[Fault]) -> Surviving {
        let mut s = Surviving::all(topo);
        let mut loss = vec![0.0f64; topo.edge_count()];
        let mut timed: Vec<(std::time::Duration, usize)> = faults
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let at = match *f {
                    Fault::KillSwitch { at, .. }
                    | Fault::ReviveSwitch { at, .. }
                    | Fault::LinkDown { at, .. }
                    | Fault::LinkUp { at, .. }
                    | Fault::LinkLoss { at, .. } => at,
                    Fault::ChannelStall { until, .. } => until,
                };
                (at, i)
            })
            .collect();
        timed.sort();
        for (_, i) in timed {
            match faults[i] {
                Fault::KillSwitch { node, .. } => s.alive[node] = false,
                Fault::ReviveSwitch { node, .. } => s.alive[node] = true,
                Fault::LinkDown { edge, .. } => s.up[edge] = false,
                Fault::LinkUp { edge, .. } => s.up[edge] = true,
                Fault::LinkLoss { edge, loss_pct, .. } => loss[edge] = loss_pct,
                Fault::ChannelStall { .. } => {}
            }
        }
        for (e, l) in loss.into_iter().enumerate() {
            if l >= 100.0 {
                s.up[e] = false;
            }
        }
        s
    }

    fn edge_usable(&self, topo: &Topology, e: usize) -> bool {
        let edge = topo.edges()[e];
        self.up[e] && self.alive[edge.a] && self.alive[edge.b]
    }

    /// Hop distances to the nearest of `targets` over the surviving
    /// graph (`usize::MAX` = unreachable).
    pub fn distances_to(&self, topo: &Topology, targets: &[usize]) -> Vec<usize> {
        let mut dist = vec![usize::MAX; topo.node_count()];
        let mut queue = VecDeque::new();
        for &t in targets {
            if self.alive[t] && dist[t] == usize::MAX {
                dist[t] = 0;
                queue.push_back(t);
            }
        }
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); topo.node_count()];
        for (e, edge) in topo.edges().iter().enumerate() {
            if self.edge_usable(topo, e) {
                incident[edge.a].push(edge.b);
                incident[edge.b].push(edge.a);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &incident[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

/// Discovery must report exactly the surviving topology's links, each
/// on the ports the wiring plan put it on.
pub fn discovery_matches(
    sc: &Scenario,
    topo: &Topology,
    wiring: &Wiring,
    live: &Surviving,
) -> Result<(), String> {
    let norm = |x: (u64, u16), y: (u64, u16)| if x <= y { (x, y) } else { (y, x) };
    let mut found: Vec<_> = sc
        .controller()
        .state()
        .links
        .iter()
        .map(|l| norm(l.a, l.b))
        .collect();
    found.sort_unstable();
    let mut want: Vec<_> = (0..topo.edge_count())
        .filter(|&e| live.edge_usable(topo, e))
        .map(|e| {
            let edge = topo.edges()[e];
            let (pa, pb) = wiring.ports[e];
            norm((edge.a as u64 + 1, pa), (edge.b as u64 + 1, pb))
        })
        .collect();
    want.sort_unstable();
    if found == want {
        return Ok(());
    }
    let extra = found.iter().filter(|l| !want.contains(l)).count();
    let missing = want.iter().filter(|l| !found.contains(l)).count();
    Err(format!(
        "discovery reports {} links, topology has {}: {missing} missing, {extra} unexpected",
        found.len(),
        want.len()
    ))
}

/// A switch flow that forwards an IPv4 destination prefix: matches on
/// `dl_type` and `nw_dst` only, and outputs on one port.
struct Route {
    net: u32,
    len: u8,
    port: u16,
}

fn routes_of(sw: &OpenFlowSwitch) -> Vec<Route> {
    let pure_prefix = Wildcards::ALL & !Wildcards::DL_TYPE & !(0x3F << Wildcards::NW_DST_SHIFT);
    sw.flow_table()
        .entries()
        .iter()
        .filter(|f| {
            f.of_match.dl_type == IPV4
                && f.of_match.wildcards.0 & !(0x3F << Wildcards::NW_DST_SHIFT) == pure_prefix
        })
        .filter_map(|f| {
            let len = 32 - f.of_match.wildcards.nw_dst_bits() as u8;
            let port = f.actions.iter().rev().find_map(|a| match *a {
                Action::Output { port, .. } => Some(port),
                _ => None,
            })?;
            Some(Route {
                net: u32::from(f.of_match.nw_dst),
                len,
                port,
            })
        })
        .collect()
}

/// Every routed prefix a switch holds must leave on a port whose
/// neighbour lies on a shortest path (over the surviving graph) to a
/// node that owns the prefix; and every switch must hold a route to
/// every prefix it can reach but does not own. Owners are the two ends
/// of a link subnet (as discovery allocated it) or the node a host
/// subnet hangs off. Host /32 delivery flows are not routes and are
/// left out.
pub fn fib_on_shortest_paths(
    sc: &Scenario,
    topo: &Topology,
    wiring: &Wiring,
    live: &Surviving,
) -> Result<usize, String> {
    let mut owners: BTreeMap<(u32, u8), Vec<usize>> = BTreeMap::new();
    for l in &sc.controller().state().links {
        let key = (u32::from(l.subnet.network()), l.subnet.prefix_len);
        owners
            .entry(key)
            .or_default()
            .extend([l.a.0 as usize - 1, l.b.0 as usize - 1]);
    }
    for slot in &sc.host_slots {
        let key = (u32::from(slot.subnet.network()), slot.subnet.prefix_len);
        owners.entry(key).or_default().push(slot.node);
    }
    let dist: BTreeMap<(u32, u8), Vec<usize>> = owners
        .iter()
        .map(|(&k, o)| (k, live.distances_to(topo, o)))
        .collect();

    let mut checked = 0;
    for node in (0..topo.node_count()).filter(|&n| live.alive[n]) {
        let sw = sc
            .sim
            .agent_as::<OpenFlowSwitch>(sc.switches[node])
            .ok_or_else(|| format!("switch {node} is alive but has no agent"))?;
        let mut seen = Vec::new();
        for r in routes_of(sw) {
            if r.len == 32 {
                continue;
            }
            let key = (r.net, r.len);
            let d = dist
                .get(&key)
                .ok_or_else(|| format!("node {node} routes {key:?}, which nobody owns"))?;
            if d[node] == 0 || d[node] == usize::MAX {
                return Err(format!(
                    "node {node} holds a transit route to {key:?} at distance {}",
                    d[node]
                ));
            }
            let (nbr, e) = wiring
                .behind(node, r.port)
                .ok_or_else(|| format!("node {node} routes {key:?} to port {}, no link", r.port))?;
            if !live.edge_usable(topo, e) || d[nbr].saturating_add(1) != d[node] {
                return Err(format!(
                    "node {node} routes {key:?} via node {nbr} ({} hops), shortest is {}",
                    d[nbr].saturating_add(1),
                    d[node]
                ));
            }
            seen.push(key);
            checked += 1;
        }
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("node {node} holds two routes to {:?}", w[0]));
        }
        for (key, d) in &dist {
            if d[node] != 0 && d[node] != usize::MAX && seen.binary_search(key).is_err() {
                return Err(format!("node {node} has no route to reachable {key:?}"));
            }
        }
    }
    Ok(checked)
}

/// The last reply of a ping probe that was sent after `after`.
pub fn ping_resumed(report: &WorkloadReport, after: std::time::Duration) -> bool {
    let WorkloadReport::Ping(p) = report else {
        return false;
    };
    let cut = Time::ZERO + after;
    p.replies
        .iter()
        .any(|(seq, _)| p.sent.iter().any(|(s, t)| s == seq && *t > cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn wiring_numbers_ports_in_edge_order() {
        let w = Wiring::new(&ring(4));
        // ring(4): edges (0,1) (1,2) (2,3) (3,0)
        assert_eq!(w.ports, vec![(1, 1), (2, 1), (2, 1), (2, 2)]);
        assert_eq!(w.behind(0, 2), Some((3, 3)));
        assert_eq!(w.behind(0, 9), None);
    }

    #[test]
    fn replay_heals_and_distances_route_around_the_dead() {
        let topo = ring(6);
        let faults = [
            Fault::KillSwitch {
                node: 1,
                at: Duration::from_secs(5),
            },
            Fault::LinkDown {
                edge: 3,
                at: Duration::from_secs(6),
            },
            Fault::LinkUp {
                edge: 3,
                at: Duration::from_secs(9),
            },
        ];
        let s = Surviving::after(&topo, &faults);
        assert_eq!(s.alive, vec![true, false, true, true, true, true]);
        assert!(s.up.iter().all(|&u| u));
        // With node 1 dead, node 0 reaches node 2 the long way round.
        let d = s.distances_to(&topo, &[2]);
        assert_eq!(d[0], 4);
        assert_eq!(d[1], usize::MAX);
    }
}
