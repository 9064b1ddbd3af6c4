//! Statistics, `/proc` readers, the output digest and the result line.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::calib::HostSpeed;

/// Nearest-rank percentile `q` (0–1) of `samples`, and how many samples lie
/// strictly beyond its rank.
pub fn percentile(samples: &[f64], q: f64) -> (f64, usize) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).0
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Set-ups per run: one before the timed loop and the rest spread evenly
/// across it (their time is paused out of the loop), so the median samples
/// several moments of a host whose speed drifts over seconds.
pub const SETUP_REPS: usize = 9;

/// The schedule and times of a run's set-ups.
#[derive(Debug)]
pub struct Setups {
    every: f64,
    next_at: f64,
    /// (middle on the [`HostSpeed`] clock, seconds) per set-up.
    times: Vec<(f64, f64)>,
}

impl Setups {
    /// Starts from the set-up that preceded a loop of `seconds`; with
    /// `spread` false, no more are scheduled.
    pub fn new(first: (f64, f64), seconds: f64, spread: bool) -> Setups {
        let every = seconds / SETUP_REPS as f64;
        Setups {
            every,
            next_at: if spread { every } else { f64::INFINITY },
            times: vec![first],
        }
    }

    /// Whether another set-up is due after `elapsed` seconds of loop time.
    pub fn due(&mut self, elapsed: f64) -> bool {
        if self.times.len() < SETUP_REPS && elapsed >= self.next_at {
            self.next_at += self.every;
            true
        } else {
            false
        }
    }

    pub fn push(&mut self, set_up: (f64, f64)) {
        self.times.push(set_up);
    }

    /// `setup_s`: the median set-up time at the reference speed.
    pub fn median(&self, speed: &HostSpeed) -> f64 {
        let scaled: Vec<f64> = (self.times.iter())
            .map(|&(at, seconds)| seconds * speed.factor(at))
            .collect();
        median(&scaled)
    }
}

/// A `/proc/<pid>/status` field in kB, as MiB (`VmHWM` is the peak RSS).
pub fn proc_status_mib(pid: &str, field: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Aggregate CPU time counters from `/proc/stat`: (steal, total) jiffies.
pub fn cpu_steal() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor stole between two [`cpu_steal`] reads.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// A 64-bit streaming digest over bytes, independent of how the stream is
/// split into writes. Not cryptographic: it detects changed output, not
/// forged output. Also counts bytes and newlines (CSV and JSON-lines rows).
#[derive(Debug, Clone)]
pub struct Digest {
    state: u64,
    tail: [u8; 8],
    tail_len: usize,
    pub bytes: u64,
    pub lines: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: 0xCBF2_9CE4_8422_2325,
            tail: [0; 8],
            tail_len: 0,
            bytes: 0,
            lines: 0,
        }
    }
}

impl Digest {
    fn mix(&mut self, word: u64) {
        self.state = (self.state ^ word)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(29);
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.bytes += data.len() as u64;
        self.lines += data.iter().filter(|&&b| b == b'\n').count() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of everything written so far, with the length folded in.
    pub fn value(&self) -> u64 {
        let mut copy = self.clone();
        let mut last = [0u8; 8];
        last[..copy.tail_len].copy_from_slice(&copy.tail[..copy.tail_len]);
        copy.mix(u64::from_le_bytes(last));
        copy.mix(copy.bytes);
        copy.state
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the failed ops failed (the first few).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, Metric>,
    /// Work counters that must repeat exactly for a given seed.
    pub counters: BTreeMap<&'static str, u64>,
    /// Free-form diagnostic lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }

    /// The end-to-end metrics of a timed loop that completed one op of
    /// `latencies[i]` seconds around `at[i]` each, answering `cells` grid
    /// cells in `wall` seconds, every time scaled to the reference speed.
    /// Returns how many ops lie beyond p90, and the raw p50 and the mean
    /// scale factor for the notes line.
    pub fn end_to_end(
        &mut self,
        (latencies, at): (&[f64], &[f64]),
        cells: u64,
        wall: f64,
        setups: &Setups,
        speed: &HostSpeed,
    ) -> (usize, f64, f64) {
        let scaled: Vec<f64> = (latencies.iter().zip(at))
            .map(|(&seconds, &at)| seconds * speed.factor(at))
            .collect();
        // The factor over the loop, weighted by op time.
        let factor = scaled.iter().sum::<f64>() / latencies.iter().sum::<f64>();
        let wall = wall * factor;
        let (p90, beyond) = percentile(&scaled, 0.9);
        self.metric("setup_s", setups.median(speed), "s");
        self.metric("p50_ms", median(&scaled) * 1e3, "ms");
        self.metric("p90_ms", p90 * 1e3, "ms");
        self.metric("cells_per_s", cells as f64 / wall, "cells/s");
        self.metric("rps", latencies.len() as f64 / wall, "req/s");
        (beyond, median(latencies) * 1e3, factor)
    }

    /// The counters as one line, in name order.
    pub fn counters_line(&self) -> String {
        let items: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("counters: {}", items.join(" "))
    }

    /// The result object the benchmark prints as its last line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
