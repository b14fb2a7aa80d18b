//! Exact percentiles over raw samples, and the metric list the benchmark
//! prints.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;

/// Nearest-rank percentile (`q` in [0, 1]) of ascending `sorted` samples:
/// the smallest sample with at least `q` of all samples at or below it.
/// Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sort `v` in place and return its median.
pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    percentile(v, 0.5)
}

pub fn sort(v: &mut [f64]) {
    v.sort_by(f64::total_cmp);
}

/// Exact percentiles of each window's raw samples (a burst, a matrix
/// pass), taken as the window ends so no sample outlives its window, and
/// their medians over the windows. A shared host stalls now and then for
/// a second or so; a pooled tail percentile reads those stalls as much as
/// the program, a typical window's does not.
#[derive(Default)]
pub struct WindowPercentiles {
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    /// Samples per window, smallest seen.
    min_samples: Option<usize>,
    samples: usize,
}

impl WindowPercentiles {
    pub fn add(&mut self, mut window: Vec<f64>) {
        sort(&mut window);
        self.p50.push(percentile(&window, 0.5));
        self.p90.push(percentile(&window, 0.9));
        self.p99.push(percentile(&window, 0.99));
        self.samples += window.len();
        self.min_samples = Some(
            self.min_samples
                .map_or(window.len(), |n| n.min(window.len())),
        );
    }

    pub fn median_p50(&self) -> f64 {
        median(&mut self.p50.clone())
    }

    pub fn median_p90(&self) -> f64 {
        median(&mut self.p90.clone())
    }

    pub fn median_p99(&self) -> f64 {
        median(&mut self.p99.clone())
    }

    /// One line stating the figures, the sample counts and the highest
    /// percentile a window can state.
    pub fn note(&self, what: &str, window: &str, windows: &str) -> String {
        let n = self.min_samples.unwrap_or(0);
        format!(
            "{what}, exact percentiles per {window}, median over {} {windows} ({} samples, >= {n} per {window}): p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms; highest percentile with >= 10 samples beyond it in a {window}: p{}",
            self.p50.len(),
            self.samples,
            self.median_p50(),
            self.median_p90(),
            self.median_p99(),
            top_percentile(n),
        )
    }
}

/// Each distinct job's fastest run over the whole run, and exact
/// percentiles over all runs with each run read as its job's fastest.
///
/// Other tenants of a shared host only ever slow a job down. A median
/// over windows still reads a slow spell that covers most of the windows;
/// a job's fastest run reads the quietest moment the run had. The state
/// is one entry per distinct job, so it does not grow with the number of
/// windows.
pub struct BestTimes<K> {
    /// Per job: fastest run in ms, and how many runs it had.
    best: HashMap<K, (f64, u64)>,
}

impl<K> Default for BestTimes<K> {
    fn default() -> Self {
        BestTimes {
            best: HashMap::new(),
        }
    }
}

impl<K: Hash + Eq> BestTimes<K> {
    pub fn add(&mut self, job: K, ms: f64) {
        let e = self.best.entry(job).or_insert((f64::INFINITY, 0));
        e.0 = e.0.min(ms);
        e.1 += 1;
    }

    /// Nearest-rank percentile (`q` in [0, 1]) over every run, each run
    /// counted at its job's fastest time. No runs read 0.
    pub fn percentile(&self, q: f64) -> f64 {
        let mut jobs: Vec<(f64, u64)> = self.best.values().copied().collect();
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let runs = self.runs();
        let rank = ((q * runs as f64).ceil() as u64).clamp(1, runs.max(1));
        let mut seen = 0;
        for (ms, n) in jobs {
            seen += n;
            if seen >= rank {
                return ms;
            }
        }
        0.0
    }

    pub fn runs(&self) -> u64 {
        self.best.values().map(|b| b.1).sum()
    }

    /// One line stating the figures and what they rest on.
    pub fn note(&self, what: &str) -> String {
        let fewest = self.best.values().map(|b| b.1).min().unwrap_or(0);
        format!(
            "{what}, each run read as its job's fastest run ({} jobs, {} runs, >= {fewest} runs per job): p50 {:.3} ms, p90 {:.3} ms",
            self.best.len(),
            self.runs(),
            self.percentile(0.5),
            self.percentile(0.9),
        )
    }
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// of `n` samples beyond it: the tail a run of `n` jobs can state.
pub fn top_percentile(n: usize) -> f64 {
    // (percentile, 1 / share of samples beyond it), in integers so the
    // threshold is exact.
    [
        (99.99, 10_000),
        (99.9, 1_000),
        (99.0, 100),
        (90.0, 10),
        (50.0, 2),
    ]
    .into_iter()
    .find(|&(_, d)| n >= 10 * d)
    .map_or(0.0, |(p, _)| p)
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: one JSON object.
    pub fn result_json(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            // JSON has no NaN or infinity; a ratio over an empty set reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_times_weigh_each_run_at_its_jobs_fastest() {
        let mut b = BestTimes::default();
        // Job 'a': three runs, fastest 1.0; job 'b': one run at 5.0.
        for (k, ms) in [('a', 3.0), ('b', 5.0), ('a', 1.0), ('a', 2.0)] {
            b.add(k, ms);
        }
        assert_eq!(b.runs(), 4);
        assert_eq!(b.percentile(0.5), 1.0);
        assert_eq!(b.percentile(0.75), 1.0);
        assert_eq!(b.percentile(0.9), 5.0);
        assert_eq!(BestTimes::<u8>::default().percentile(0.5), 0.0);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(10_000), 99.9);
        assert_eq!(top_percentile(1_000), 99.0);
        assert_eq!(top_percentile(600), 90.0);
        assert_eq!(top_percentile(20), 50.0);
    }
}
