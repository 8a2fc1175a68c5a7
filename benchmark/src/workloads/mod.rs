//! The four workloads and what they share: reading the simulator's
//! counters into per-layer samples.

mod cold_start;
mod sweep;
mod traffic;
mod what_if;

use crate::checks::{discovery_matches, fib_on_shortest_paths, Surviving, Wiring};
use crate::trace::Recorder;
use crate::{Bench, Ctx};
use routeflow_autoconf::core::apps::OverflowPolicy;
use routeflow_autoconf::prelude::*;
use std::time::Duration;

pub const NAMES: [&str; 4] = [
    "cold-start-fabric",
    "what-if-wan",
    "traffic-fabric",
    "sweep-grid",
];

pub fn make(name: &str, ctx: Ctx) -> Box<dyn Bench> {
    match name {
        "cold-start-fabric" => Box::new(cold_start::ColdStart::new(ctx)),
        "what-if-wan" => Box::new(what_if::WhatIf::new(ctx)),
        "traffic-fabric" => Box::new(traffic::TrafficFabric::new(ctx)),
        "sweep-grid" => Box::new(sweep::SweepGrid::new(ctx)),
        other => panic!("unknown workload {other}"),
    }
}

/// The control-plane timers every workload runs with: 1 s OSPF hello,
/// 4 s dead interval, 500 ms LLDP probes, 1 s VM boot.
pub const OSPF_HELLO: u16 = 1;
pub const OSPF_DEAD: u16 = 4;
pub const PROBE_INTERVAL: Duration = Duration::from_millis(500);
pub const VM_BOOT: Duration = Duration::from_secs(1);

/// Simulator counters named by the per-layer table, read off the
/// tracer (they count only when the trace level is above `Off`).
const TRACER_COUNTERS: [&str; 9] = [
    "link.tx_frames",
    "conn.tx_bytes",
    "topo.lldp_out",
    "rpc.sent",
    "fv.packet_in",
    "of.flow_mod",
    "of.packet_in",
    "rf.flow_add",
    "rf.flow_del",
];

/// A reading of every counter a per-layer metric is made from.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    tracer: [u64; TRACER_COUNTERS.len()],
    of_msgs_sent: u64,
    of_pushes: u64,
    events: u64,
}

impl Counters {
    pub fn read(sc: &Scenario) -> Counters {
        let tr = sc.sim.tracer();
        let ctrl = sc.controller();
        Counters {
            tracer: TRACER_COUNTERS.map(|n| tr.counter(n)),
            of_msgs_sent: ctrl.of_msgs_sent(),
            of_pushes: ctrl.of_pushes(),
            events: sc.sim.events_dispatched(),
        }
    }

    pub fn events(&self) -> u64 {
        self.events
    }

    /// Sample what happened between `before` and `self` as one op's
    /// per-layer volumes; `links` scales the RPC request count, and
    /// `wall` (the host time the simulation took) the event count.
    pub fn sample_since(
        &self,
        before: &Counters,
        links: usize,
        wall: Duration,
        rec: &mut Recorder,
    ) {
        if !rec.on() {
            return;
        }
        for (i, name) in TRACER_COUNTERS.iter().enumerate() {
            rec.sample(name, (self.tracer[i] - before.tracer[i]) as f64);
        }
        let rpc = (self.tracer[3] - before.tracer[3]) as f64;
        rec.sample("rpc.sent_per_link", rpc / links.max(1) as f64);
        rec.sample(
            "apps.of_msgs_sent",
            (self.of_msgs_sent - before.of_msgs_sent) as f64,
        );
        rec.sample("apps.of_pushes", (self.of_pushes - before.of_pushes) as f64);
        let events = self.events - before.events;
        rec.sample("sim.events", events as f64);
        rec.sample(
            "sim.ns_per_event",
            wall.as_nanos() as f64 / events.max(1) as f64,
        );
    }
}

/// Collects the names of failed checks for one op.
#[derive(Default)]
pub struct Verdict(pub Vec<String>);

impl Verdict {
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.0.push(name.to_string());
        }
    }

    pub fn result<T>(&mut self, name: &str, r: Result<T, String>) {
        if let Err(e) = r {
            self.0.push(format!("{name}: {e}"));
        }
    }
}

/// The simulator's own post-run invariants, timed as the chaos layer.
pub fn program_invariants(
    sc: &Scenario,
    topo: &Topology,
    faults: &[Fault],
    rec: &mut Recorder,
    v: &mut Verdict,
) {
    let span = rec.enter("chaos.invariants");
    let violations = check_invariants(
        sc,
        &InvariantContext {
            topo,
            faults,
            overflow: OverflowPolicy::Defer,
        },
    );
    rec.exit(span);
    if let Some(first) = violations.first() {
        v.0.push(format!(
            "program invariants: {} violation(s), first: {first}",
            violations.len()
        ));
    }
}

/// The benchmark's own routing checks: discovery against the wiring
/// plan, and every switch's routes against shortest paths.
pub fn routing_checks(
    sc: &Scenario,
    topo: &Topology,
    wiring: &Wiring,
    live: &Surviving,
    v: &mut Verdict,
) {
    v.result(
        "discovery reports the surviving topology",
        discovery_matches(sc, topo, wiring, live),
    );
    v.result(
        "FIB on shortest paths",
        fib_on_shortest_paths(sc, topo, wiring, live),
    );
}
