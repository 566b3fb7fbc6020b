//! What every workload shares: run settings, the result it hands back,
//! and the statistics and process figures behind the metrics.

use std::time::{Duration, Instant};

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time across the workload's timed phases.
    pub seconds: f64,
    /// Set-ups to time (their median is `setup_s`).
    pub setups: usize,
}

impl RunCfg {
    /// A share of the measured time.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Named metric values with their units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Adds every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.0 {
            self.put(n, v, u);
        }
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phases.
    pub attempted: u64,
    /// Operations that failed or whose outputs disagreed with the reference.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (filled in the traced pass).
    pub layer: Metrics,
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Runs `setup` `n` times and returns the last result with every set-up's
/// wall time in seconds. Earlier results are dropped before the next
/// set-up starts, so at most one lives at a time.
pub fn timed_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Splits `phase` into `segments` equal parts; runs `between` before
/// each and `step` until the part's end. Work done in `between` (the
/// recompiles behind `compile_ms`) is spread over the whole phase, so it
/// sees the same mix of host states as the steps, not one moment's.
pub fn segmented(
    phase: Duration,
    segments: usize,
    mut between: impl FnMut(),
    mut step: impl FnMut(),
) {
    let start = Instant::now();
    for seg in 1..=segments {
        between();
        let end = start + phase.mul_f64(seg as f64 / segments as f64);
        while Instant::now() < end {
            step();
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t` as f64.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
