//! Host-speed correction.
//!
//! The reference host is a shared 2-vCPU virtual machine whose speed
//! drifts: the same op runs up to 1.5x slower for minutes at a time, and
//! a pure arithmetic loop drifts with it. A run therefore also times a
//! fixed computation owned by the benchmark (an event-queue loop over an
//! ordered map, the same kind of work the simulator does) right after
//! every set-up and every round, for [`REF_SHARE`] of the time just
//! measured, and scales that stretch's host times to the speed at which
//! the computation takes [`REF_NOMINAL_S`]. Each stretch is corrected by
//! the samples right before and right after it, so drift within a run
//! is followed too. The simulator never runs inside it, so a change to
//! the simulator cannot move it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host seconds of one reference computation at the nominal speed
/// (close to its median on the reference host).
pub const REF_NOMINAL_S: f64 = 0.015;

/// Share of the measured host time spent re-timing the reference.
pub const REF_SHARE: f64 = 0.05;
/// Fewest reference samples taken after one measured stretch.
pub const MIN_SAMPLES: usize = 3;

/// Events the reference computation dispatches.
const REF_EVENTS: u64 = 60_000;

/// The reference computation: a seeded event loop rescheduling timers
/// and folding per-key state, fully deterministic.
fn reference_work() -> u64 {
    let mut queue = BinaryHeap::new();
    let mut state: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for id in 0..2_000u64 {
        queue.push(Reverse((id * 7_919 % 10_007, id)));
    }
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for _ in 0..REF_EVENTS {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = state.entry(id % 4_096).or_default();
        slot.push(x);
        if slot.len() > 8 {
            acc = acc.wrapping_add(slot.iter().fold(0, |a, &v| a ^ v));
            slot.clear();
        }
        queue.push(Reverse((t + 1 + x % 97, id ^ (x & 0xFF))));
    }
    acc
}

/// Samples of the reference computation's host time in one run.
#[derive(Default)]
pub struct RefClock {
    samples: Vec<f64>,
    /// Samples of the latest batch: the ones taken right before the
    /// next stretch.
    last: Vec<f64>,
}

impl RefClock {
    /// Run the reference computation once untimed, so that no sample
    /// pays for cold caches and fresh pages, then take the batch that
    /// comes before the first stretch.
    pub fn warm_up(&mut self) {
        black_box(reference_work());
        self.last = (0..MIN_SAMPLES).map(|_| self.sample()).collect();
    }

    /// Time one reference computation.
    fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(reference_work());
        let took = t0.elapsed().as_secs_f64();
        self.samples.push(took);
        took
    }

    /// Time the reference computation for about [`REF_SHARE`] of
    /// `measured`, and at least [`MIN_SAMPLES`] times, right after the
    /// stretch that took `measured`; return the factor that turns that
    /// stretch's host seconds into nominal-speed seconds, from the
    /// samples on both sides of it.
    pub fn scale_after(&mut self, measured: Duration) -> f64 {
        let n = (measured.as_secs_f64() * REF_SHARE / REF_NOMINAL_S).ceil() as usize;
        let batch: Vec<f64> = (0..n.max(MIN_SAMPLES)).map(|_| self.sample()).collect();
        let around: Vec<f64> = self.last.iter().chain(&batch).copied().collect();
        self.last = batch;
        REF_NOMINAL_S / crate::trace::median(&around)
    }

    /// Median host time of the reference computation in this run.
    pub fn median_s(&self) -> f64 {
        crate::trace::median(&self.samples)
    }

    /// Samples taken so far.
    pub fn count(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
        let mut c = RefClock::default();
        c.warm_up();
        assert!(c.scale_after(Duration::ZERO) > 0.0);
        assert_eq!(c.count(), 2 * MIN_SAMPLES);
        c.scale_after(Duration::from_secs_f64(
            2.0 * MIN_SAMPLES as f64 * REF_NOMINAL_S / REF_SHARE,
        ));
        assert!(c.count() >= 4 * MIN_SAMPLES);
        assert!(c.median_s() > 0.0);
    }
}
