//! `sweep-grid`: one sweep through `ScenarioMatrix`'s forked executor
//! per op, at `nproc` threads.
//!
//! The grid is spelled out here, not taken from the simulator's
//! presets: three small topologies × four fault schedules × five knobs
//! × two seeds = 120 cells. This is the only workload where the
//! executor carries the cost (thread fan-out, cost ordering, fork
//! grouping, cold fallback for the early stall) and the only one using
//! the flow-level traffic engine.

use super::{Verdict, OSPF_DEAD, OSPF_HELLO, PROBE_INTERVAL, VM_BOOT};
use crate::trace::{median, Recorder};
use crate::{mix, Bench, Ctx, OpResult};
use routeflow_autoconf::core::apps::OverflowPolicy;
use routeflow_autoconf::core::scenario::MatrixWorkload;
use routeflow_autoconf::core::traffic::TrafficShape;
use routeflow_autoconf::core::{
    FaultSchedule, MatrixKnob, MatrixReport, MatrixSpec, ScenarioMatrix,
};
use routeflow_autoconf::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const TOPOLOGIES: [&str; 3] = ["ring-4", "ring-6", "abilene"];
/// The switch the kill schedule takes down: transit on every topology
/// (checked in set-up), never a ping endpoint.
const KILL_NODE: usize = 1;
const FAULT_AT: Duration = Duration::from_secs(30);

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

fn schedules() -> Vec<FaultSchedule> {
    vec![
        FaultSchedule::new("none", vec![]),
        FaultSchedule::new(
            "kill1@30s",
            vec![Fault::KillSwitch {
                node: KILL_NODE,
                at: FAULT_AT,
            }],
        ),
        FaultSchedule::new(
            "flap0x2@30s+8s",
            vec![
                Fault::LinkDown {
                    edge: 0,
                    at: secs(30),
                },
                Fault::LinkUp {
                    edge: 0,
                    at: secs(38),
                },
                Fault::LinkDown {
                    edge: 0,
                    at: secs(46),
                },
                Fault::LinkUp {
                    edge: 0,
                    at: secs(54),
                },
            ],
        ),
        // Early enough to land inside the convergence prefix, so these
        // cells take the executor's cold fallback.
        FaultSchedule::new(
            "stall2@2s-20s",
            vec![Fault::ChannelStall {
                dpid: 2,
                from: secs(2),
                until: secs(20),
            }],
        ),
    ]
}

/// A knob with every field spelled out: fast timers, FlowVisor in the
/// path, unbounded lossless channels, paper-serial provisioning and a
/// ping across the farthest switch pair — then `tweak`.
fn knob(name: &str, tweak: impl FnOnce(MatrixKnob) -> MatrixKnob) -> MatrixKnob {
    let mut k = MatrixKnob::fast(name)
        .with_probe_interval(PROBE_INTERVAL)
        .with_vm_boot_delay(VM_BOOT)
        .with_ospf_timers(OSPF_HELLO, OSPF_DEAD)
        .with_provision_width(1)
        .with_fib_batch(1)
        .with_overflow(OverflowPolicy::Defer);
    k.use_flowvisor = true;
    k.channel_capacity = None;
    k.workload = MatrixWorkload::FarthestPing;
    tweak(k)
}

fn knobs() -> Vec<MatrixKnob> {
    let window = |shape| TrafficSpec {
        shape,
        mode: TrafficMode::Packet,
        start_at: secs(25),
        duration: secs(15),
    };
    vec![
        knob("serial", |k| k),
        knob("kwide4-b8", |k| k.with_provision_width(4).with_fib_batch(8)),
        knob("cap2", |k| k.with_channel_capacity(2)),
        knob("poisson-pkt", |k| {
            k.with_traffic(window(TrafficShape::RequestResponse {
                clients: 2,
                arrivals: ArrivalProcess::Poisson { rate_per_sec: 4.0 },
                response: FlowSize::Fixed { bytes: 40_000 },
            }))
        }),
        knob("incast3-flow", |k| {
            k.with_traffic(TrafficSpec {
                mode: TrafficMode::Flow,
                ..window(TrafficShape::Incast {
                    senders: 3,
                    flow: FlowSize::Fixed { bytes: 60_000 },
                    period: secs(2),
                    waves: 5,
                })
            })
        }),
    ]
}

fn grid(seed: u64, topologies: &[&str]) -> MatrixSpec {
    MatrixSpec {
        // Small, readable cell seeds drawn from the run's seed.
        seeds: vec![mix(seed, 1) % 1000, mix(seed, 2) % 1000 + 1000],
        topologies: topologies.iter().map(|t| t.to_string()).collect(),
        schedules: schedules(),
        knobs: knobs(),
        configure_deadline: secs(120),
        post_fault_window: secs(45),
        settle: secs(10),
    }
}

pub struct SweepGrid {
    ctx: Ctx,
    threads: usize,
    matrix: Option<ScenarioMatrix>,
    /// Switches per topology name, from the benchmark's own builds.
    switches: BTreeMap<String, i64>,
    /// The warm-up sweep's report, which every timed sweep must repeat.
    first_report: Option<String>,
}

impl SweepGrid {
    pub fn new(ctx: Ctx) -> SweepGrid {
        SweepGrid {
            ctx,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            matrix: None,
            switches: BTreeMap::new(),
            first_report: None,
        }
    }

    /// Properties every cell of a finished sweep must have, read off
    /// the grid's own cell definitions.
    fn check_cells(&self, spec: &MatrixSpec, report: &MatrixReport, v: &mut Verdict) {
        let records: BTreeMap<&str, &BTreeMap<String, i64>> = report
            .cells
            .iter()
            .map(|c| (c.key.as_str(), &c.metrics))
            .collect();
        let cells = spec.cells();
        v.check("one record per grid cell", records.len() == cells.len());
        for cell in &cells {
            let key = cell.key();
            let Some(m) = records.get(key.as_str()) else {
                v.check(&format!("{key}: reported"), false);
                continue;
            };
            let get = |name: &str| m.get(name).copied();
            let mut check = |what: &str, ok: bool| v.check(&format!("{key}: {what}"), ok);
            check("built", get("build_error").is_none());
            let n = self.switches.get(&cell.topology).copied().unwrap_or(-1);
            check(
                "all switches green",
                get("switches") == Some(n) && get("all_configured_ns").is_some(),
            );
            let killed = cell
                .schedule
                .faults
                .iter()
                .filter(|f| matches!(f, Fault::KillSwitch { .. }))
                .count() as i64;
            check(
                "survivors stay green",
                get("configured_switches_final") == Some(n - killed),
            );
            let fault_free = cell.schedule.faults.is_empty();
            if let MatrixWorkload::Traffic(_) = cell.knob.workload {
                let (off, del) = (get("traffic_offered_bytes"), get("traffic_delivered_bytes"));
                let (st, done) = (get("traffic_flows_started"), get("traffic_flows_completed"));
                check("traffic offered", off.is_some_and(|o| o > 0));
                check("delivered <= offered", del <= off);
                check("completed <= started", done <= st);
                if fault_free {
                    check("fault-free: delivered == offered", del == off);
                    check("fault-free: completed == started", done == st);
                }
            } else {
                check("pings answered", get("ping_replies").is_some_and(|r| r > 0));
                if !fault_free {
                    check(
                        "pings resume after the last fault",
                        get("recovery_ns").is_some(),
                    );
                }
            }
        }
    }
}

impl Bench for SweepGrid {
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String> {
        self.switches.clear();
        for name in TOPOLOGIES {
            let span = rec.enter("topo.build");
            let topo = name.parse::<TopoSpec>().map(|s| s.build());
            rec.exit(span);
            let topo = topo.map_err(|e| format!("{name}: {e}"))?;
            let (a, b) = topo.farthest_pair().ok_or(format!("{name}: too small"))?;
            if KILL_NODE == a || KILL_NODE == b {
                return Err(format!("{name}: kill node {KILL_NODE} is a ping endpoint"));
            }
            self.switches
                .insert(name.to_string(), topo.node_count() as i64);
        }
        // Warm-up: one sweep of the whole grid through the same
        // executor, so that set-up is long enough to time steadily.
        let matrix = ScenarioMatrix::new(grid(self.ctx.seed, &TOPOLOGIES));
        let (report, _) =
            matrix.run_instrumented_forked(self.threads, ScenarioMatrix::standard_builder);
        let mut v = Verdict::default();
        self.check_cells(matrix.spec(), &report, &mut v);
        if !v.0.is_empty() {
            return Err(format!("warm-up sweep: {}", v.0.join("; ")));
        }
        self.first_report = Some(report.to_json());
        self.matrix = Some(matrix);
        Ok(())
    }

    fn op(&mut self, _index: u64, rec: &mut Recorder) -> OpResult {
        let matrix = self.matrix.as_ref().expect("set up");
        let span = rec.enter("matrix.sweep");
        let t0 = Instant::now();
        let (report, stats) =
            matrix.run_instrumented_forked(self.threads, ScenarioMatrix::standard_builder);
        let host = t0.elapsed();
        rec.exit(span);
        let mut v = Verdict::default();
        if rec.on() {
            let events = stats.total_events();
            let busy: Duration = stats.cells.iter().map(|c| c.wall).sum();
            rec.sample("sim.events", events as f64);
            rec.sample(
                "sim.ns_per_event",
                busy.as_nanos() as f64 / events.max(1) as f64,
            );
            let greens: Vec<f64> = report
                .cells
                .iter()
                .filter_map(|c| c.metrics.get("all_configured_ns"))
                .map(|&ns| ns as f64 * 1e-9)
                .collect();
            if !greens.is_empty() {
                rec.sample("sim_green_s", median(&greens));
            }
        }
        self.check_cells(matrix.spec(), &report, &mut v);
        v.check(
            "repeat sweep gives a byte-identical report",
            self.first_report.as_deref() == Some(report.to_json().as_str()),
        );
        OpResult::new(report.cells.len() as u64, host, v.0)
    }

    /// Once per run: a cold single-thread sweep of the same grid must
    /// give the same bytes as the forked multi-thread one.
    fn after(&mut self, rec: &mut Recorder) -> Vec<String> {
        let matrix = self.matrix.as_ref().expect("set up");
        let span = rec.enter("matrix.cold_sweep");
        let t0 = Instant::now();
        let (cold, _) = matrix.run_instrumented(1, ScenarioMatrix::standard_builder);
        let cold_s = t0.elapsed().as_secs_f64();
        rec.exit(span);
        if rec.on() {
            let forked = rec.samples("matrix.sweep_s");
            if !forked.is_empty() {
                rec.sample("matrix.speedup", cold_s / median(forked));
            }
        }
        let mut v = Verdict::default();
        v.check(
            "cold 1-thread sweep matches the forked sweep byte for byte",
            self.first_report.as_deref() == Some(cold.to_json().as_str()),
        );
        v.0
    }
}
