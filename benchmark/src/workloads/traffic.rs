//! `traffic-fabric`: a minute of packet-level load on fat-tree-k4.
//!
//! Each op converges the 20-switch fabric on the k-wide batched
//! pipeline with a fresh seed, then offers 60 s of load kept under
//! capacity: heavy-tailed request/response, a synchronized incast and a
//! paced multicast fan-out, all at packet level. The control plane sits
//! idle after convergence, so the switch datapath, the OpenFlow and
//! wire codecs, the host stacks, link serialization and the event queue
//! do most of the work.

use super::{
    program_invariants, routing_checks, Counters, Verdict, OSPF_DEAD, OSPF_HELLO, PROBE_INTERVAL,
    VM_BOOT,
};
use crate::checks::{Surviving, Wiring};
use crate::trace::Recorder;
use crate::{mix, since_zero, Bench, Ctx, OpResult};
use routeflow_autoconf::core::apps::OverflowPolicy;
use routeflow_autoconf::prelude::*;
use routeflow_autoconf::sim::FaultProfile;
use std::time::{Duration, Instant};

const K: usize = 4;
/// VM provisioning width and FIB batch of the k-wide batched pipeline.
const PROVISION_WIDTH: usize = 8;
const FIB_BATCH: usize = 16;
/// Offered-load window: starts after convergence, lasts a minute.
const LOAD_START: Duration = Duration::from_secs(5);
const LOAD_LEN: Duration = Duration::from_secs(60);
/// Drain tail after the last offer, so every flow can complete.
const DRAIN: Duration = Duration::from_secs(2);
const DEADLINE: Time = Time::from_secs(120);
/// Every link of the fabric, host links included: 1 ms one way,
/// 1 Gbit/s, lossless.
const LINK_LATENCY: Duration = Duration::from_millis(1);
const LINK_BPS: u64 = 1_000_000_000;

/// Request/response: Poisson arrivals per client, bounded-Pareto
/// response sizes (shape 1.2).
const RR_RATE_PER_SEC: f64 = 20.0;
const RR_MIN_BYTES: u64 = 2_000;
const RR_MAX_BYTES: u64 = 1_000_000;
/// Incast: every period, each sender blasts one fixed-size flow.
const INCAST_BYTES: u64 = 100_000;
const INCAST_PERIOD: Duration = Duration::from_secs(2);
const INCAST_WAVES: u32 = 30;
/// Multicast: one paced stream per receiver.
const MCAST_BPS: u64 = 2_000_000;

pub struct TrafficFabric {
    ctx: Ctx,
    fabric: Option<Fabric>,
}

struct Fabric {
    topo: Topology,
    wiring: Wiring,
    patterns: [TrafficConfig; 3],
    floors: Floors,
}

/// Propagation floors: the least time a byte needs from one pattern
/// endpoint's host to the other's (host link, switch hops, host link),
/// over the benchmark's own shortest paths.
struct Floors {
    rr_ns: u64,
    incast_ns: u64,
    mcast_ns: u64,
}

impl Floors {
    fn new(topo: &Topology, patterns: &[TrafficConfig; 3]) -> Floors {
        let path_ns = |from: &[usize], to: usize| {
            let d = Surviving::all(topo).distances_to(topo, &[to]);
            let hops = from.iter().map(|&f| d[f]).min().expect("endpoints") as u64;
            (hops + 2) * LINK_LATENCY.as_nanos() as u64
        };
        let mut f = Floors {
            rr_ns: 0,
            incast_ns: 0,
            mcast_ns: 0,
        };
        for p in patterns {
            match &p.pattern {
                TrafficPattern::RequestResponse {
                    clients, server, ..
                } => f.rr_ns = path_ns(clients, *server),
                TrafficPattern::Incast {
                    senders, receiver, ..
                } => f.incast_ns = path_ns(senders, *receiver),
                TrafficPattern::Multicast {
                    source, receivers, ..
                } => f.mcast_ns = path_ns(receivers, *source),
                TrafficPattern::CbrMix { .. } => {}
            }
        }
        f
    }
}

impl TrafficFabric {
    pub fn new(ctx: Ctx) -> TrafficFabric {
        TrafficFabric { ctx, fabric: None }
    }
}

/// The three load patterns, placed on the fabric's edge switches
/// (`e` lists them in node order).
fn patterns(e: &[usize]) -> [TrafficConfig; 3] {
    let window = |pattern| TrafficConfig {
        pattern,
        mode: TrafficMode::Packet,
        start_at: LOAD_START,
        stop_at: LOAD_START + LOAD_LEN,
    };
    [
        window(TrafficPattern::RequestResponse {
            clients: vec![e[0], e[2], e[4]],
            server: e[6],
            arrivals: ArrivalProcess::Poisson {
                rate_per_sec: RR_RATE_PER_SEC,
            },
            response: FlowSize::Pareto {
                min_bytes: RR_MIN_BYTES,
                max_bytes: RR_MAX_BYTES,
                alpha_milli: 1200,
            },
        }),
        window(TrafficPattern::Incast {
            senders: vec![e[1], e[3], e[5], e[7]],
            receiver: e[2],
            flow: FlowSize::Fixed {
                bytes: INCAST_BYTES,
            },
            period: INCAST_PERIOD,
            waves: INCAST_WAVES,
        }),
        window(TrafficPattern::Multicast {
            source: e[0],
            receivers: vec![e[3], e[5], e[7]],
            rate_bps: MCAST_BPS,
        }),
    ]
}

/// Time for `bytes` of payload to serialize at the link rate.
fn serialize_ns(bytes: u64) -> u64 {
    bytes * 8 * 1_000_000_000 / LINK_BPS
}

/// Checks every traffic report must pass once the drain tail is over.
fn check_reports(reports: &[WorkloadReport], floors: &Floors, v: &mut Verdict, rec: &mut Recorder) {
    let traffic: Vec<&TrafficReport> = reports
        .iter()
        .filter_map(|r| match r {
            WorkloadReport::Traffic(t) => Some(t),
            _ => None,
        })
        .collect();
    if traffic.len() != 3 {
        v.check("three traffic reports", false);
        return;
    }
    for (name, t) in ["request/response", "incast", "multicast"]
        .iter()
        .zip(&traffic)
    {
        v.check(&format!("{name}: offered load"), t.offered_bytes > 0);
        v.check(
            &format!("{name}: delivered bytes == offered"),
            t.delivered_bytes == t.offered_bytes,
        );
        v.check(
            &format!("{name}: completed flows == started"),
            t.flows_completed == t.flows_started,
        );
        v.check(
            &format!("{name}: every frame delivered"),
            t.frames_delivered == t.frames_sent,
        );
    }
    let delivered: u64 = traffic.iter().map(|t| t.frames_delivered).sum();
    rec.sample("traffic.frames_delivered", delivered as f64);

    let (rr, incast, mcast) = (traffic[0], traffic[1], traffic[2]);
    // No flow beats its smallest possible size serialized at link rate
    // plus the propagation floor.
    v.check("request/response: flows started", rr.flows_started > 0);
    v.check(
        "request/response: no flow beats serialization + propagation",
        rr.fct_ns
            .iter()
            .all(|&f| f >= floors.rr_ns + serialize_ns(RR_MIN_BYTES)),
    );
    // Incast: the receiver's host link carries each wave's N flows one
    // byte at a time, so within a wave the i-th flow to finish needs at
    // least i·S·8/C on top of the propagation floor, and the whole wave
    // N·S·8/C. Across W waves, at most W·(i-1) flows finish sooner than
    // i·S·8/C: the j-th fastest of all (0-based) takes at least
    // (j/W + 1)·S·8/C.
    let senders = 4u64;
    let waves = u64::from(INCAST_WAVES);
    v.check(
        "incast: every flow started",
        incast.flows_started == senders * waves,
    );
    let mut fct = incast.fct_ns.clone();
    fct.sort_unstable();
    v.check(
        "incast: waves no faster than N·S·8/C",
        fct.len() as u64 == senders * waves
            && fct.iter().enumerate().all(|(j, &f)| {
                f >= floors.incast_ns + (j as u64 / waves + 1) * serialize_ns(INCAST_BYTES)
            }),
    );
    v.check(
        "multicast: no frame beats propagation",
        !mcast.frame_latency_ns.is_empty()
            && mcast.frame_latency_ns.iter().all(|&l| l >= floors.mcast_ns),
    );
}

fn traffic_op(ctx: Ctx, fabric: &Fabric, seed: u64, rec: &mut Recorder) -> OpResult {
    let mut v = Verdict::default();
    let t0 = Instant::now();
    let span = rec.enter("scenario.start");
    let mut b = Scenario::on(fabric.topo.clone())
        .seed(seed)
        .ospf_timers(OSPF_HELLO, OSPF_DEAD)
        .probe_interval(PROBE_INTERVAL)
        .vm_boot_delay(VM_BOOT)
        .provision_width(PROVISION_WIDTH)
        .fib_batch(FIB_BATCH)
        .overflow_policy(OverflowPolicy::Defer)
        .link_profile(LinkProfile {
            latency: LINK_LATENCY,
            bandwidth_bps: LINK_BPS,
            faults: FaultProfile::reliable(),
        })
        .trace_level(ctx.level);
    for p in &fabric.patterns {
        b = b.with_workload(Workload::Traffic(p.clone()));
    }
    let mut sc = b.start();
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
    v.check("all switches green", green.is_some());
    if let Some(g) = green {
        rec.sample("sim_green_s", since_zero(g).as_secs_f64());
        v.check("green before the load starts", since_zero(g) < LOAD_START);
    }

    let span = rec.enter("scenario.run");
    let run_start = Instant::now();
    sc.run_until(Time::ZERO + LOAD_START + LOAD_LEN + DRAIN);
    let run_ns = run_start.elapsed().as_nanos() as f64;
    rec.exit(span);
    let span = rec.enter("scenario.finish");
    let m = sc.finish();
    let reports = sc.workload_reports();
    rec.exit(span);
    let after = Counters::read(&sc);
    after.sample_since(&before, fabric.topo.edge_count(), t0.elapsed(), rec);
    v.check(
        "every switch still green",
        m.configured_switches == fabric.topo.node_count(),
    );

    program_invariants(&sc, &fabric.topo, &[], rec, &mut v);
    let host = t0.elapsed();

    let span = rec.enter("bench.check");
    check_reports(&reports, &fabric.floors, &mut v, rec);
    let live = Surviving::all(&fabric.topo);
    routing_checks(&sc, &fabric.topo, &fabric.wiring, &live, &mut v);
    rec.exit(span);
    if rec.on() {
        let frames = rec
            .samples("traffic.frames_delivered")
            .last()
            .copied()
            .unwrap_or(0.0);
        rec.sample("traffic.ns_per_frame", run_ns / frames.max(1.0));
    }
    OpResult::new(1, host, v.0)
}

impl Bench for TrafficFabric {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let span = rec.enter("topo.build");
        let topo = fat_tree(K);
        rec.exit(span);
        let edges: Vec<usize> = topo
            .nodes()
            .filter(|(_, info)| info.name.starts_with("edge"))
            .map(|(id, _)| id)
            .collect();
        if edges.len() != 8 {
            return Err(format!(
                "fat-tree-k{K} has {} edge switches, expected 8",
                edges.len()
            ));
        }
        let patterns = patterns(&edges);
        for p in &patterns {
            p.validate()
                .map_err(|e| format!("traffic pattern rejected: {e}"))?;
        }
        let fabric = Fabric {
            wiring: Wiring::new(&topo),
            floors: Floors::new(&topo, &patterns),
            topo,
            patterns,
        };
        // Warm-up: one op on a seed no timed op uses, kept out of the
        // per-layer samples.
        let failed = traffic_op(
            self.ctx,
            &fabric,
            mix(self.ctx.seed, u64::MAX),
            &mut Recorder::new(false),
        )
        .failed_checks;
        if !failed.is_empty() {
            return Err(format!("warm-up: {}", failed.join("; ")));
        }
        self.fabric = Some(fabric);
        Ok(())
    }

    fn op(&mut self, index: u64, rec: &mut Recorder) -> OpResult {
        let fabric = self.fabric.as_ref().expect("set up");
        traffic_op(self.ctx, fabric, mix(self.ctx.seed, index), rec)
    }
}
