//! Counters and log2-bucket histograms.
//!
//! The histogram is the workhorse: job latencies and skip-span lengths both
//! span four-plus orders of magnitude, where fixed-width buckets are either
//! blind at the low end or unbounded at the high end. Power-of-two buckets
//! give ~±50 % resolution everywhere at a fixed 64-slot cost, which is all
//! a p50/p99 readout needs.

/// A monotonically increasing named counter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Increment by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.value)
    }
}

/// A monotonically increasing counter usable through a shared reference —
/// the concurrent sibling of [`Counter`] for long-lived services whose
/// reactor, scheduler and worker threads all bump the same figures
/// (jobs accepted, rejected, results streamed). Relaxed ordering: these
/// are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct SharedCounter {
    value: std::sync::atomic::AtomicU64,
}

impl SharedCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        SharedCounter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl std::fmt::Display for SharedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// A point-in-time level that can go both ways (jobs in flight, queue
/// depth, connected clients), usable through a shared reference from any
/// thread. Decrements below zero clamp at zero rather than wrapping —
/// a miscounted release shows up as a stuck-low gauge, not as 2^64.
#[derive(Debug, Default)]
pub struct Gauge {
    value: std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raise the level by one.
    pub fn inc(&self) {
        self.value
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Lower the level by one.
    pub fn dec(&self) {
        self.value
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Set the level outright.
    pub fn set(&self, v: i64) {
        self.value.store(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current level, clamped at zero.
    pub fn get(&self) -> u64 {
        self.value.load(std::sync::atomic::Ordering::Relaxed).max(0) as u64
    }
}

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Histogram with power-of-two buckets: bucket `i` holds values `v` with
/// `floor(log2(max(v,1))) == i`, i.e. `[2^i, 2^(i+1))`, with `0` counted in
/// bucket 0. Covers the full `u64` range in 64 buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// New empty histogram.
    pub fn new() -> Self {
        Log2Hist::default()
    }

    /// Bucket index for a value.
    fn bucket_of(v: u64) -> usize {
        63 - v.max(1).leading_zeros() as usize
    }

    /// Smallest value bucket `i` holds: `2^i`, except 0 for bucket 0
    /// (which holds both 0 and 1).
    fn lower_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Approximate quantile `q` in [0, 1]: the lower bound of the bucket
    /// containing the `ceil(q * count)`-th observation (so `percentile(1.0)`
    /// lands in the bucket of the maximum). Returns 0 for an empty
    /// histogram. Resolution is the bucket width, i.e. a factor of two.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(i);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::lower_bound(i), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn shared_counter_counts_through_shared_refs() {
        let c = SharedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        c.inc();
                    }
                });
            }
        });
        c.add(2);
        assert_eq!(c.get(), 402);
        assert_eq!(c.to_string(), "402");
    }

    #[test]
    fn gauge_tracks_levels_and_clamps_below_zero() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.dec();
        g.dec(); // one release too many
        assert_eq!(g.get(), 0, "underflow clamps at zero");
        g.inc();
        assert_eq!(g.get(), 0, "still recovering the spurious release");
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(g.to_string(), "7");
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Hist::bucket_of(0), 0);
        assert_eq!(Log2Hist::bucket_of(1), 0);
        assert_eq!(Log2Hist::bucket_of(2), 1);
        assert_eq!(Log2Hist::bucket_of(3), 1);
        assert_eq!(Log2Hist::bucket_of(4), 2);
        assert_eq!(Log2Hist::bucket_of(1023), 9);
        assert_eq!(Log2Hist::bucket_of(1024), 10);
        assert_eq!(Log2Hist::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn record_tracks_summary_stats() {
        let mut h = Log2Hist::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for v in [3, 9, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1112);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 278.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_is_bucket_lower_bound() {
        let mut h = Log2Hist::new();
        for _ in 0..99 {
            h.record(10); // bucket [8, 16)
        }
        h.record(5000); // bucket [4096, 8192)
        assert_eq!(h.percentile(0.5), 8);
        assert_eq!(h.percentile(0.99), 8);
        assert_eq!(h.percentile(1.0), 4096);
        assert_eq!(Log2Hist::new().percentile(0.5), 0);
    }

    #[test]
    fn bucket_zero_reports_zero_as_its_lower_bound() {
        // Bucket 0 holds 0 and 1: a histogram of zeros must not report 1.
        let mut h = Log2Hist::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.percentile(1.0), 0);
        assert_eq!(h.nonzero_buckets(), vec![(0, 10)]);
        h.record(1);
        h.record(2);
        assert_eq!(h.nonzero_buckets(), vec![(0, 11), (2, 1)]);
        assert_eq!(h.percentile(1.0), 2);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Log2Hist::new();
        let mut b = Log2Hist::new();
        let mut both = Log2Hist::new();
        for v in [1u64, 7, 300] {
            a.record(v);
            both.record(v);
        }
        for v in [2u64, 90000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn nonzero_buckets_are_sorted_lower_bounds() {
        let mut h = Log2Hist::new();
        h.record(1);
        h.record(1);
        h.record(600);
        // Bucket 0 holds 0 and 1, so its lower bound is 0.
        assert_eq!(h.nonzero_buckets(), vec![(0, 2), (512, 1)]);
    }
}
