//! Benchmark of record for the routeflow-autoconf simulator.
//!
//! ```text
//! rf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rf-benchmark --workload <name> --seed <n> --seconds <s> --steady <k>
//! ```
//!
//! One run sets the workload up (several times, reporting the median),
//! runs whole rounds of ops for about `--seconds`, checks every op's
//! outputs, and prints one JSON result line last on stdout; it exits
//! non-zero when a check fails. With
//! `--trace 0` it reports the end-to-end metrics, times corrected for
//! host-speed drift (see `calib.rs`); with `--trace 1` it
//! raises the simulator's trace level so that its counters count,
//! records spans around every call into the simulator, reports the
//! per-layer metrics and writes the spans under `benchmark/out/`.
//! `--steady k` runs the workload k times in child processes (seeds
//! `n..n+k`) and prints each end-to-end metric's median and quartile
//! spread beside its bound in `BENCHMARK.json`. See README.md.

mod calib;
mod checks;
mod json;
mod trace;
mod workloads;

use calib::RefClock;
use json::{num, quote, Json};
use routeflow_autoconf::prelude::*;
use routeflow_autoconf::sim::TraceLevel;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{mean, median, percentile, quartiles, Recorder};

/// How many times a run sets its workload up; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;

/// What one run needs to know about its inputs.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Simulator trace level: `Off` in timed runs, `Info` in the traced
    /// run (its counters count at every level but `Off`).
    pub level: TraceLevel,
}

/// One op's outcome: the cells (scenarios) it finished, the host time
/// its calls into the simulator took (the benchmark's own checks left
/// out), and the name of every check it failed.
pub struct OpResult {
    pub cells: u64,
    pub host: Duration,
    pub failed_checks: Vec<String>,
    /// Failed checks that show a known program fault on an op whose
    /// inputs do not depend on `--seed`: the op counts as failed, the
    /// run stays correct.
    pub known_fault: Vec<String>,
}

impl OpResult {
    pub fn new(cells: u64, host: Duration, failed_checks: Vec<String>) -> OpResult {
        OpResult {
            cells,
            host,
            failed_checks,
            known_fault: Vec::new(),
        }
    }
}

pub trait Bench {
    /// Everything before the first timed op, warm-up included. Called
    /// [`SETUP_REPEATS`] times; each call replaces the previous state.
    fn setup(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Ops in one round; a run attempts whole rounds only.
    fn round_len(&self) -> usize {
        1
    }
    fn op(&mut self, index: u64, rec: &mut Recorder) -> OpResult;
    /// Checks made once per run, after the timed ops.
    fn after(&mut self, _rec: &mut Recorder) -> Vec<String> {
        Vec::new()
    }
}

/// splitmix64: derives independent input seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulated time as a `Duration` since t = 0.
pub fn since_zero(t: Time) -> Duration {
    Duration::from_nanos(t.as_nanos())
}

/// Process peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's directory (this package's root).
fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[derive(Clone, Copy, PartialEq)]
pub enum Agg {
    /// Median over occurrences (host times).
    Median,
    /// Mean per occurrence (counts, volumes, ratios).
    Mean,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("op_s_p90", "s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
/// A metric whose layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str, Agg); 36] = [
    ("topo.build_s", "s", Agg::Median),
    ("scenario.start_s", "s", Agg::Median),
    ("scenario.converge_s", "s", Agg::Median),
    ("scenario.converge_events", "count", Agg::Mean),
    ("scenario.snapshot_s", "s", Agg::Median),
    ("scenario.fork_s", "s", Agg::Median),
    ("scenario.inject_s", "s", Agg::Median),
    ("scenario.run_s", "s", Agg::Median),
    ("scenario.finish_s", "s", Agg::Median),
    ("sim_green_s", "s", Agg::Median),
    ("sim.events", "count", Agg::Mean),
    ("sim.ns_per_event", "ns", Agg::Median),
    ("sim.pending_at_green", "count", Agg::Mean),
    ("link.tx_frames", "count", Agg::Mean),
    ("conn.tx_bytes", "bytes", Agg::Mean),
    ("topo.lldp_out", "count", Agg::Mean),
    ("rpc.sent", "count", Agg::Mean),
    ("rpc.sent_per_link", "count", Agg::Mean),
    ("fv.packet_in", "count", Agg::Mean),
    ("of.flow_mod", "count", Agg::Mean),
    ("of.packet_in", "count", Agg::Mean),
    ("apps.of_msgs_sent", "count", Agg::Mean),
    ("apps.of_pushes", "count", Agg::Mean),
    ("rf.flow_add", "count", Agg::Mean),
    ("rf.flow_del", "count", Agg::Mean),
    ("chaos.generate_s", "s", Agg::Median),
    ("chaos.invariants_s", "s", Agg::Median),
    ("chaos.faults", "count", Agg::Mean),
    ("traffic.frames_delivered", "count", Agg::Mean),
    ("traffic.ns_per_frame", "ns", Agg::Median),
    ("matrix.sweep_s", "s", Agg::Median),
    ("matrix.speedup", "x", Agg::Median),
    ("bench.check_s", "s", Agg::Median),
    ("rss_setup_mb", "MB", Agg::Median),
    ("op_s_traced", "s", Agg::Median),
    ("ref_kernel_s", "s", Agg::Median),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                })
            }
            "--steady" => steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        steady,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rf-benchmark: {e}");
            eprintln!(
                "usage: rf-benchmark --workload <{}> --seed <n> --seconds <s> [--trace 0|1] [--steady k]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        eprintln!("rf-benchmark: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    match args.steady {
        Some(k) => steady(&args, k),
        None => run(&args),
    }
}

/// One measured run; prints the result line.
fn run(args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        level: if args.trace {
            TraceLevel::Info
        } else {
            TraceLevel::Off
        },
    };
    let mut rec = Recorder::new(args.trace);
    let mut w = workloads::make(&args.workload, ctx);

    // The reference computation is timed before the first set-up and
    // after every set-up and every round; each stretch is corrected by
    // the samples on both sides of it (see `calib.rs`).
    let mut clock = RefClock::default();
    clock.warm_up();
    let (mut setup_host, mut setup_times) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let span = rec.enter("setup");
        let res = w.setup(&mut rec);
        rec.exit(span);
        let took = t0.elapsed();
        if let Err(e) = res {
            eprintln!("rf-benchmark: {} set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
        setup_host.push(took.as_secs_f64());
        setup_times.push(took.as_secs_f64() * clock.scale_after(took));
    }
    rec.sample("rss_setup_mb", peak_rss_mb());

    let budget = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed, mut unexpected, mut cells, mut index, mut rounds) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u32);
    let mut known = 0u64;
    let (mut op_host, mut op_times) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let round_start = Instant::now();
        let mut round = Vec::with_capacity(w.round_len());
        for _ in 0..w.round_len() {
            rec.set_op(Some(index));
            let span = rec.enter("op");
            let r = w.op(index, &mut rec);
            rec.exit(span);
            round.push(r.host.as_secs_f64());
            rec.set_op(None);
            attempted += 1;
            cells += r.cells;
            if !r.failed_checks.is_empty() || !r.known_fault.is_empty() {
                failed += 1;
            }
            if !r.failed_checks.is_empty() {
                unexpected += 1;
            }
            for c in &r.failed_checks {
                eprintln!("rf-benchmark: op {index} failed check: {c}");
            }
            if !r.known_fault.is_empty() {
                // The same op fails the same way every round: say so once.
                if known == 0 {
                    for c in &r.known_fault {
                        eprintln!("rf-benchmark: op {index} failed check (known fault): {c}");
                    }
                }
                known += 1;
            }
            index += 1;
        }
        rounds += 1;
        let scale = clock.scale_after(round_start.elapsed());
        op_times.extend(round.iter().map(|t| t * scale));
        op_host.extend(round);
        let elapsed = start.elapsed();
        // Stop before a round that would end past the budget.
        if elapsed + elapsed / rounds > budget {
            break;
        }
    }
    if known > 0 {
        eprintln!("rf-benchmark: {known} op(s) failed on the known fault");
    }
    let run_failures = w.after(&mut rec);
    for c in &run_failures {
        eprintln!("rf-benchmark: run check failed: {c}");
    }
    let correct = unexpected == 0 && run_failures.is_empty();

    eprintln!(
        "rf-benchmark: host seconds: setup {} op {} p90 {}; \
         reference computation {} s (median of {})",
        median(&setup_host),
        median(&op_host),
        percentile(&op_host, 90),
        clock.median_s(),
        clock.count()
    );

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        rec.sample("op_s_traced", median(&op_times));
        rec.sample("ref_kernel_s", clock.median_s());
        let path = bench_dir()
            .join("out")
            .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(bench_dir().join("out")).and_then(|()| rec.write_spans(&path))
        {
            eprintln!("rf-benchmark: could not write {}: {e}", path.display());
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, agg)| {
                let v = rec.samples(name);
                let value = match (v.is_empty(), agg) {
                    (true, _) => 0.0,
                    (false, Agg::Median) => median(v),
                    (false, Agg::Mean) => mean(v),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        let busy: f64 = op_times.iter().sum();
        let values = [
            median(&setup_times),
            median(&op_times),
            percentile(&op_times, 90),
            cells as f64 / busy,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(v),
                quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Steadiness self-check: k runs in child processes, then each
/// end-to-end metric's median and quartile spread beside its bound.
fn steady(args: &Args, k: usize) -> ExitCode {
    if k < 2 {
        eprintln!("rf-benchmark: --steady needs at least 2 runs");
        return ExitCode::from(2);
    }
    let spec_path = bench_dir().join("..").join("BENCHMARK.json");
    let spec = match std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("rf-benchmark: cannot read {}: {e}", spec_path.display());
            return ExitCode::FAILURE;
        }
    };
    let exe = std::env::current_exe().expect("own executable path");
    let mut results = Vec::with_capacity(k);
    for i in 0..k as u64 {
        let seed = args.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("child run starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        // A run whose checks fail still prints its result, then exits
        // non-zero; `correct` says so below.
        match Json::parse(last) {
            Ok(j) => {
                eprintln!("seed {seed}: {last}");
                results.push(j);
            }
            _ => {
                eprintln!(
                    "rf-benchmark: run with seed {seed} gave no result ({})",
                    out.status
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let share = |j: &Json| {
        let a = j.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        let f = j.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        (f, a)
    };
    let all_correct = results
        .iter()
        .all(|j| j.get("correct").and_then(Json::as_bool) == Some(true));
    let shares: Vec<(f64, f64)> = results.iter().map(share).collect();
    // Failures must be the same share of the ops in every run.
    let same_share = shares
        .iter()
        .all(|&(f, a)| f * shares[0].1 == shares[0].0 * a);
    println!(
        "{} x{k} at {} s: correct in every run: {all_correct}; same failed share in every run: \
         {same_share}; failed/attempted per run: {}",
        args.workload,
        args.seconds,
        shares
            .iter()
            .map(|(f, a)| format!("{f}/{a}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut steady = all_correct && same_share;
    for m in spec.get("end_to_end").map(Json::as_arr).unwrap_or(&[]) {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
        let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        let values: Vec<f64> = results
            .iter()
            .filter_map(|j| j.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        if values.len() != k {
            println!("{name:<14} missing from {} run(s)", k - values.len());
            steady = false;
            continue;
        }
        let (q1, med, q3) = quartiles(&values);
        let spread = (q3 - q1) / med;
        // Steady means a spread under a third of the bound, so that two
        // sets of runs of the same code stay well inside it.
        let ok = spread < bound / 3.0;
        steady &= ok;
        println!(
            "{name:<14} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4} {bound:>7.3}  {}",
            if ok {
                "steady (< bound/3)"
            } else if spread < bound {
                "NOT STEADY (inside bound, over bound/3)"
            } else {
                "NOT STEADY (over bound)"
            }
        );
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed here must be exactly those
    /// `BENCHMARK.json` declares.
    #[test]
    fn metrics_match_benchmark_json() {
        let text = std::fs::read_to_string(bench_dir().join("..").join("BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
        let spec = Json::parse(&text).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .map(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
        let names: Vec<String> = spec
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, workloads::NAMES);
    }

    #[test]
    fn mix_is_a_pure_function_of_its_inputs() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
