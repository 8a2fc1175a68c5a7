//! `cold-start-fabric`: the paper's Fig. 3 quantity on fat-tree-k8.
//!
//! Each op builds the 80-switch, 256-link fabric cold, with FlowVisor in
//! the path and the paper's serial VM provisioning, runs it to
//! all-green and harvests it. Discovery, the RPC relay, VM OSPF and the
//! FIB mirror do nearly all the work; no data-plane load is offered.

use super::{
    program_invariants, routing_checks, Counters, Verdict, OSPF_DEAD, OSPF_HELLO, PROBE_INTERVAL,
    VM_BOOT,
};
use crate::checks::{Surviving, Wiring};
use crate::trace::Recorder;
use crate::{since_zero, Bench, Ctx, OpResult};
use routeflow_autoconf::core::apps::OverflowPolicy;
use routeflow_autoconf::prelude::*;
use std::time::{Duration, Instant};

/// Fat-tree radix of the measured fabric (k=8: 80 switches, 256 links).
const K: usize = 8;
/// Radix of the warm-up fabric converged during set-up.
const WARM_K: usize = 6;
/// Simulated-time limit for reaching all-green.
const DEADLINE: Time = Time::from_secs(600);
/// Simulated time run past all-green before the harvest, so that OSPF
/// in the last VMs to boot has converged when the FIBs are checked.
const SETTLE: Duration = Duration::from_secs(10);

pub struct ColdStart {
    ctx: Ctx,
    fabric: Option<(Topology, Wiring)>,
}

impl ColdStart {
    pub fn new(ctx: Ctx) -> ColdStart {
        ColdStart { ctx, fabric: None }
    }
}

/// Build, converge, harvest and check one cold fabric.
fn cold_cycle(ctx: Ctx, topo: &Topology, wiring: &Wiring, rec: &mut Recorder) -> OpResult {
    let mut v = Verdict::default();
    let t0 = Instant::now();
    let span = rec.enter("scenario.start");
    let mut sc = Scenario::on(topo.clone())
        .seed(ctx.seed)
        .ospf_timers(OSPF_HELLO, OSPF_DEAD)
        .probe_interval(PROBE_INTERVAL)
        .vm_boot_delay(VM_BOOT)
        .provision_width(1)
        .fib_batch(1)
        .overflow_policy(OverflowPolicy::Defer)
        .trace_level(ctx.level)
        .start();
    rec.exit(span);
    let before = Counters::read(&sc);

    let span = rec.enter("scenario.converge");
    let green = sc.run_until_configured(DEADLINE);
    rec.exit(span);
    let at_green = Counters::read(&sc);
    rec.sample(
        "scenario.converge_events",
        (at_green.events() - before.events()) as f64,
    );
    rec.sample("sim.pending_at_green", sc.sim.pending_events() as f64);

    let span = rec.enter("scenario.run");
    let settle_at = sc.sim.now() + SETTLE;
    sc.run_until(settle_at);
    rec.exit(span);
    let span = rec.enter("scenario.finish");
    let m = sc.finish();
    rec.exit(span);
    Counters::read(&sc).sample_since(&before, topo.edge_count(), t0.elapsed(), rec);

    let n = topo.node_count();
    v.check(
        "all switches green",
        green.is_some() && m.configured_switches == n,
    );
    if let Some(g) = green {
        rec.sample("sim_green_s", since_zero(g).as_secs_f64());
        // Serial provisioning boots one VM at a time.
        v.check(
            "green no sooner than n x VM boot",
            since_zero(g) >= VM_BOOT * n as u32,
        );
    }

    program_invariants(&sc, topo, &[], rec, &mut v);
    let host = t0.elapsed();

    let span = rec.enter("bench.check");
    routing_checks(&sc, topo, wiring, &Surviving::all(topo), &mut v);
    rec.exit(span);
    OpResult::new(1, host, v.0)
}

impl Bench for ColdStart {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let span = rec.enter("topo.build");
        let topo = fat_tree(K);
        let warm = fat_tree(WARM_K);
        rec.exit(span);
        if topo.node_count() != 80 || topo.edge_count() != 256 {
            return Err(format!(
                "fat-tree-k{K} has {} switches and {} links, expected 80 and 256",
                topo.node_count(),
                topo.edge_count()
            ));
        }
        // Warm-up: the whole op path on a smaller fabric, kept out of
        // the per-layer samples.
        let warm_wiring = Wiring::new(&warm);
        let failed =
            cold_cycle(self.ctx, &warm, &warm_wiring, &mut Recorder::new(false)).failed_checks;
        if !failed.is_empty() {
            return Err(format!("warm-up fabric failed: {}", failed.join("; ")));
        }
        let wiring = Wiring::new(&topo);
        self.fabric = Some((topo, wiring));
        Ok(())
    }

    fn op(&mut self, _index: u64, rec: &mut Recorder) -> OpResult {
        let (topo, wiring) = self.fabric.as_ref().expect("set up");
        cold_cycle(self.ctx, topo, wiring, rec)
    }
}
