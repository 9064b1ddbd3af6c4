//! Host-speed calibration.
//!
//! Shared hosts change speed by up to 2× over minutes, mostly through
//! other tenants' contention rather than CPU steal, so a raw time says as
//! much about the host as about the program. Every timed loop therefore
//! also times a fixed kernel between its ops, at least every [`EVERY_S`]
//! seconds: float math, float formatting, and allocation, map and sort
//! churn, none of it code of the program under test. Each time metric is
//! scaled to the reference speed, the speed at which one kernel sample
//! takes [`REFERENCE_S`], using the mean of the [`NEAREST`] samples closest
//! in time to the measurement. The mean rather than the median, because
//! CPU steal comes in bursts that hit ops and samples alike, and a median
//! would drop the samples that show it. A change to the program moves a
//! scaled time; a change in the host's speed mostly does not.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::report::mean;

/// Seconds one kernel sample takes at the reference speed.
pub const REFERENCE_S: f64 = 0.002;
/// Most loop seconds between two kernel samples.
const EVERY_S: f64 = 0.05;
/// Kernel samples whose mean gives the speed at one moment.
const NEAREST: usize = 5;

/// One unit of calibration work, about 2 ms at the reference speed.
fn kernel(buf: &mut String) -> u64 {
    // Float math of the kind the cost and yield models do.
    let mut x = 0.512_f64;
    let mut acc = 0.0;
    for _ in 0..10_000 {
        x = 3.91 * x * (1.0 - x);
        acc += (1.0 + x * 0.07 / 3.0).powf(-3.0) + (-x * 0.5).exp() + (1.0 + x).ln();
    }
    // Float formatting of the kind CSV rendering does.
    buf.clear();
    for i in 0..2_000 {
        x = x * 1.000_123 + 0.37;
        let _ = writeln!(buf, "{i},{x},{:.4}", x / 7.0);
    }
    // Allocation, ordered-map and sort churn.
    let mut r = 0x9E37_79B9_7F4A_7C15_u64 ^ buf.len() as u64 ^ acc.to_bits();
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut v = Vec::with_capacity(10_000);
    for _ in 0..10_000 {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        map.entry(r % 2048).or_default().push(r);
        v.push(r);
    }
    v.sort_unstable();
    map.values().map(|e| e.len() as u64).sum::<u64>() ^ v[v.len() / 2]
}

/// The host's speed over one run, sampled between ops.
#[derive(Debug)]
pub struct HostSpeed {
    epoch: Instant,
    /// (seconds since `epoch` at the sample's middle, kernel seconds), in
    /// time order.
    samples: Vec<(f64, f64)>,
    buf: String,
}

impl HostSpeed {
    /// Starts the clock and takes a first sample.
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            epoch: Instant::now(),
            samples: Vec::new(),
            buf: String::new(),
        };
        speed.sample();
        speed
    }

    /// Seconds since the clock started: the time axis of [`HostSpeed::factor`].
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Times the kernel once; returns the seconds it took, which the
    /// caller keeps out of its own timings.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(kernel(black_box(&mut self.buf)));
        let seconds = t0.elapsed().as_secs_f64();
        self.samples.push((self.now() - seconds / 2.0, seconds));
        seconds
    }

    /// Samples if [`EVERY_S`] seconds have passed since the last sample;
    /// returns the seconds spent.
    pub fn tick(&mut self) -> f64 {
        let last = self.samples.last().map_or(f64::NEG_INFINITY, |s| s.0);
        if self.now() - last >= EVERY_S {
            self.sample()
        } else {
            0.0
        }
    }

    /// The factor that scales a time measured around `at` to the reference
    /// speed.
    pub fn factor(&self, at: f64) -> f64 {
        let n = self.samples.len();
        let k = NEAREST.min(n);
        let next = self.samples.partition_point(|s| s.0 < at);
        let lo = next.saturating_sub(k / 2).min(n - k);
        let nearest: Vec<f64> = self.samples[lo..lo + k].iter().map(|s| s.1).collect();
        REFERENCE_S / mean(&nearest)
    }

    /// The diagnostic line beside the scaled metrics: the raw median op
    /// time and how the host's speed compared with the reference speed.
    pub fn note(&self, raw_p50_ms: f64, loop_factor: f64) -> String {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        format!(
            "raw_p50_ms={raw_p50_ms:.3} loop_factor={loop_factor:.4} calibration_samples={} \
             run_factor={:.4}",
            all.len(),
            REFERENCE_S / mean(&all)
        )
    }
}
