//! `what-if-wan`: forked what-if continuations under seeded chaos.
//!
//! Set-up converges and snapshots the four largest corpus WANs. Each op
//! forks one of them, injects a fault schedule, runs until every
//! disturbance has healed and the network has settled, and verifies the
//! result. Cold discovery and the bootstrap RPC storm are not on this
//! path: they ran once, in set-up.
//!
//! A round is five ops. The first four fork each WAN in turn under a
//! seeded sequence of disturbance slots: each slot draws one fault and
//! its repair from link flaps, link-loss windows and channel stalls
//! (graph kept connected, ping endpoints untouched), and the network
//! recovers before the next slot opens. The fifth forks geant, converged
//! on a fixed seed, under one fixed schedule drawn from all four fault
//! classes at once: switch kills and revives and overlapping outages.
//! That schedule makes discovery hand a recycled link subnet to a
//! different link, and the FIB mirror then keeps a stale transit flow
//! for it (README.md, "Known fault"), so the op fails its FIB check in
//! every round. Seeded draws of those classes fail on some seeds only,
//! so they cannot be part of a run whose failed share must not move.

use super::{
    program_invariants, routing_checks, Counters, Verdict, OSPF_DEAD, OSPF_HELLO, PROBE_INTERVAL,
    VM_BOOT,
};
use crate::checks::{ping_resumed, Surviving, Wiring};
use crate::trace::Recorder;
use crate::{mix, since_zero, Bench, Ctx, OpResult};
use routeflow_autoconf::core::apps::OverflowPolicy;
use routeflow_autoconf::core::FaultSchedule;
use routeflow_autoconf::prelude::*;
use std::time::{Duration, Instant};

/// The corpus WANs, largest first.
const WANS: [&str; 4] = ["geant", "att-na", "os3e", "cogent-us"];
/// Disturbance slots per op. A slot's fault starts and is repaired
/// inside its window; the gap lets OSPF and the FIB mirror settle
/// before the next one.
const SLOTS: u64 = 4;
const SLOT_WINDOW: Duration = Duration::from_secs(10);
const SLOT_GAP: Duration = Duration::from_secs(6);
/// The first slot opens this long after the snapshot.
const FIRST_SLOT: Duration = Duration::from_secs(1);
/// Settling time after the last disturbance: two dead intervals plus
/// SPF and flow propagation.
const SETTLE: Duration = Duration::from_secs(2 * OSPF_DEAD as u64 + 20);
/// The fixed all-classes what-if: the WAN, the seed it converges on,
/// and the schedule's draw (budget, onset window and seed).
const FIXED_WAN: &str = "geant";
const FIXED_SNAPSHOT_SEED: u64 = 1;
const FIXED_BUDGET: usize = 8;
const FIXED_HORIZON: Duration = Duration::from_secs(45);
/// One of the draws that hits the known fault (README.md).
const FIXED_CHAOS_SEED: u64 = 3;
/// The check the fixed what-if fails because of the known fault; any
/// other failed check on it is a new fault.
const FIXED_KNOWN_CHECK: &str = "FIB on shortest paths";
const DEADLINE: Time = Time::from_secs(600);
/// How far a quiesce probe steps before retrying the snapshot.
const QUIESCE_STEP: Duration = Duration::from_millis(100);

struct Wan {
    topo: Topology,
    wiring: Wiring,
    ping: (usize, usize),
    snap: Snapshot,
    at_snap: Counters,
}

pub struct WhatIf {
    ctx: Ctx,
    wans: Vec<Wan>,
    fixed: Option<Wan>,
}

impl WhatIf {
    pub fn new(ctx: Ctx) -> WhatIf {
        WhatIf {
            ctx,
            wans: Vec::new(),
            fixed: None,
        }
    }
}

/// How an op's fault schedule is drawn.
#[derive(Clone, Copy)]
enum Draw {
    /// Sequential slots of one flap, loss window or stall each.
    Slots(u64),
    /// The fixed draw from all four classes at once.
    AllClasses,
}

/// The op's fault schedule, and the instant by which every disturbance
/// has healed and the network has settled.
fn schedule(wan: &Wan, draw: Draw) -> (FaultSchedule, Duration) {
    let first = since_zero(wan.snap.taken_at()) + FIRST_SLOT;
    let protect = vec![wan.ping.0, wan.ping.1];
    match draw {
        Draw::Slots(seed) => {
            let mut faults = Vec::new();
            for slot in 0..SLOTS {
                let open = first + (SLOT_WINDOW + SLOT_GAP) * slot as u32;
                let spec = ChaosSpec {
                    seed: mix(seed, slot),
                    budget: 1,
                    classes: vec![
                        FaultClass::LinkFlap,
                        FaultClass::LinkLoss,
                        FaultClass::ChannelStall,
                    ],
                    horizon: open..open + SLOT_WINDOW,
                    protect: protect.clone(),
                    keep_connected: true,
                };
                faults.extend(spec.generate(&wan.topo).faults);
            }
            let end = first + (SLOT_WINDOW + SLOT_GAP) * SLOTS as u32 + SETTLE;
            (FaultSchedule::new("slots", faults), end)
        }
        Draw::AllClasses => {
            let spec = ChaosSpec {
                seed: FIXED_CHAOS_SEED,
                budget: FIXED_BUDGET,
                classes: vec![
                    FaultClass::KillRevive,
                    FaultClass::LinkFlap,
                    FaultClass::LinkLoss,
                    FaultClass::ChannelStall,
                ],
                horizon: first..first + FIXED_HORIZON,
                protect,
                keep_connected: true,
            };
            let faults = spec.generate(&wan.topo).faults;
            (
                FaultSchedule::new("all-classes", faults),
                first + FIXED_HORIZON + SETTLE,
            )
        }
    }
}

fn converge_and_snapshot(ctx: Ctx, name: &str, rec: &mut Recorder) -> Result<Wan, String> {
    let span = rec.enter("topo.build");
    let topo = routeflow_autoconf::topo::corpus::load(name);
    rec.exit(span);
    let topo = topo.ok_or_else(|| format!("corpus has no {name}"))?;
    let ping = topo
        .farthest_pair()
        .ok_or_else(|| format!("{name} has no node pair"))?;

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
        .with_workload(Workload::ping(ping.0, ping.1))
        .start();
    rec.exit(span);

    let span = rec.enter("scenario.converge");
    let green = sc.run_until_configured(DEADLINE);
    rec.exit(span);
    let green = green.ok_or_else(|| format!("{name} not green by {DEADLINE}"))?;
    rec.sample(
        "scenario.converge_events",
        sc.sim.events_dispatched() as f64,
    );
    rec.sample("sim.pending_at_green", sc.sim.pending_events() as f64);
    rec.sample("sim_green_s", since_zero(green).as_secs_f64());

    let span = rec.enter("scenario.snapshot");
    let snap = loop {
        match sc.snapshot() {
            Ok(s) => break Ok(s),
            Err(SnapshotError::UndrainedChannels { .. }) if sc.sim.now() < DEADLINE => {
                let t = sc.sim.now() + QUIESCE_STEP;
                sc.run_until(t);
            }
            Err(e) => break Err(format!("{name}: {e}")),
        }
    };
    rec.exit(span);
    let at_snap = Counters::read(&sc);
    Ok(Wan {
        wiring: Wiring::new(&topo),
        topo,
        ping,
        snap: snap?,
        at_snap,
    })
}

/// The most disturbances in force at one instant: kills until their
/// revive, link outages until link-up, loss windows until healed, and
/// channel stalls.
fn most_at_once(faults: &[Fault]) -> i32 {
    let mut steps: Vec<(Duration, i32)> = faults
        .iter()
        .flat_map(|f| match *f {
            Fault::KillSwitch { at, .. } | Fault::LinkDown { at, .. } => vec![(at, 1)],
            Fault::ReviveSwitch { at, .. } | Fault::LinkUp { at, .. } => vec![(at, -1)],
            Fault::LinkLoss { at, loss_pct, .. } => vec![(at, if loss_pct > 0.0 { 1 } else { -1 })],
            Fault::ChannelStall { from, until, .. } => vec![(from, 1), (until, -1)],
        })
        .collect();
    // At one instant, repairs count before new faults.
    steps.sort_unstable();
    steps
        .iter()
        .scan(0, |n, &(_, d)| {
            *n += d;
            Some(*n)
        })
        .max()
        .unwrap_or(0)
}

/// Fork, disturb, heal and check one WAN.
fn what_if(wan: &Wan, draw: Draw, rec: &mut Recorder) -> OpResult {
    let mut v = Verdict::default();
    let t0 = Instant::now();
    let span = rec.enter("chaos.generate");
    let (schedule, end) = schedule(wan, draw);
    rec.exit(span);
    rec.sample("chaos.faults", schedule.faults.len() as f64);

    let t_sim = Instant::now();
    let span = rec.enter("scenario.fork");
    let mut sc = Scenario::fork(&wan.snap);
    rec.exit(span);
    let span = rec.enter("scenario.inject");
    let injected = sc.inject_faults(&schedule.faults);
    rec.exit(span);
    if let Err(e) = injected {
        v.result("faults injected", Err::<(), _>(e.to_string()));
        return OpResult::new(1, t0.elapsed(), v.0);
    }
    let span = rec.enter("scenario.run");
    sc.run_until(Time::ZERO + end);
    rec.exit(span);
    let span = rec.enter("scenario.finish");
    sc.finish();
    rec.exit(span);
    Counters::read(&sc).sample_since(&wan.at_snap, wan.topo.edge_count(), t_sim.elapsed(), rec);

    program_invariants(&sc, &wan.topo, &schedule.faults, rec, &mut v);
    let host = t0.elapsed();

    let span = rec.enter("bench.check");
    if let Draw::AllClasses = draw {
        let has = |p: fn(&Fault) -> bool| schedule.faults.iter().any(p);
        v.check(
            "all-classes schedule kills, revives and overlaps outages",
            has(|f| matches!(f, Fault::KillSwitch { .. }))
                && has(|f| matches!(f, Fault::ReviveSwitch { .. }))
                && most_at_once(&schedule.faults) >= 2,
        );
    }
    let live = Surviving::after(&wan.topo, &schedule.faults);
    v.check(
        "every surviving switch green",
        (0..wan.topo.node_count())
            .filter(|&n| live.alive[n])
            .all(|n| {
                sc.controller()
                    .state()
                    .switches
                    .get(&(n as u64 + 1))
                    .is_some_and(|r| r.configured_at.is_some() && r.vm.is_some())
            }),
    );
    routing_checks(&sc, &wan.topo, &wan.wiring, &live, &mut v);
    let last = schedule
        .last_fault_at()
        .unwrap_or(since_zero(wan.snap.taken_at()));
    v.check(
        "pings resume after the last fault",
        sc.workload_reports()
            .first()
            .is_some_and(|r| ping_resumed(r, last)),
    );
    rec.exit(span);
    OpResult::new(1, host, v.0)
}

impl Bench for WhatIf {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.wans.clear();
        for name in WANS {
            self.wans.push(converge_and_snapshot(self.ctx, name, rec)?);
        }
        let fixed_ctx = Ctx {
            seed: FIXED_SNAPSHOT_SEED,
            ..self.ctx
        };
        self.fixed = Some(converge_and_snapshot(fixed_ctx, FIXED_WAN, rec)?);
        // Warm-up: one what-if per WAN, on seeds no op uses, kept out
        // of the per-layer samples.
        for (i, wan) in self.wans.iter().enumerate() {
            let failed = what_if(
                wan,
                Draw::Slots(mix(self.ctx.seed, u64::MAX - i as u64)),
                &mut Recorder::new(false),
            )
            .failed_checks;
            if !failed.is_empty() {
                return Err(format!("warm-up on {}: {}", WANS[i], failed.join("; ")));
            }
        }
        Ok(())
    }

    fn round_len(&self) -> usize {
        WANS.len() + 1
    }

    fn op(&mut self, index: u64, rec: &mut Recorder) -> OpResult {
        match self.wans.get(index as usize % self.round_len()) {
            Some(wan) => what_if(wan, Draw::Slots(mix(self.ctx.seed, index)), rec),
            None => {
                let fixed = self.fixed.as_ref().expect("set up");
                let mut r = what_if(fixed, Draw::AllClasses, rec);
                let (known, other) = r
                    .failed_checks
                    .into_iter()
                    .partition(|c| c.starts_with(FIXED_KNOWN_CHECK));
                r.failed_checks = other;
                r.known_fault = known;
                r
            }
        }
    }
}
