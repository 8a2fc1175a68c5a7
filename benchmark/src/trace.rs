//! The benchmark's own tracing: spans around the calls it makes into
//! each layer's public functions, plus per-occurrence samples of the
//! counters the simulator already exposes.
//!
//! With tracing off every method returns at its first branch, so the
//! timed runs pay nothing for the instrumentation. The traced run
//! keeps every span in memory and writes them out at the end.

use crate::json::{num, quote};
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: a call into a layer, or a whole op.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The op the span belongs to (`None` during set-up).
    op: Option<u64>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: Option<u64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
            samples: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Mark the op that subsequent spans belong to.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span; its duration becomes a `<name>_s` sample.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must nest");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let secs = (end - span.start_ns) as f64 * 1e-9;
        let name = format!("{}_s", span.name);
        self.samples.entry(name).or_default().push(secs);
    }

    /// Record one occurrence of a per-layer quantity.
    pub fn sample(&mut self, name: &str, value: f64) {
        if self.on {
            self.samples
                .entry(name.to_string())
                .or_default()
                .push(value);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Write every span as one JSON object per line.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"op\": {}}}",
                quote(s.name),
                num(s.start_ns as f64 * 1e-9),
                num(s.end_ns as f64 * 1e-9),
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
            )?;
        }
        out.flush()
    }
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of nothing");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it.
pub fn percentile(v: &[f64], p: usize) -> f64 {
    assert!(!v.is_empty(), "percentile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (p * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// Quartiles exactly as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&[5.0, 7.0], 90), 7.0);
    }

    #[test]
    fn spans_nest_and_feed_samples() {
        let mut r = Recorder::new(true);
        r.set_op(Some(3));
        let op = r.enter("op");
        let inner = r.enter("scenario.run");
        r.exit(inner);
        r.exit(op);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[1].op, Some(3));
        assert_eq!(r.samples("op_s").len(), 1);
        assert_eq!(r.samples("scenario.run_s").len(), 1);

        let mut off = Recorder::new(false);
        let s = off.enter("op");
        off.exit(s);
        off.sample("sim.events", 1.0);
        assert!(off.spans.is_empty() && off.samples("op_s").is_empty());
    }
}
