//! Fixed-bucket histograms for latency distributions.
//!
//! The ssimd `stats` reply keeps its windowed p50/p99 summaries, but a
//! Prometheus scraper wants *histograms*: cumulative bucket counters it
//! can aggregate across daemons and turn into any quantile with
//! `histogram_quantile()`. [`Histogram`] is the recording half — fixed
//! log-scale bucket bounds chosen at construction, one atomic counter
//! per bucket, so `observe` is lock-free and never allocates —
//! and [`crate::PromWriter::histogram`] is the exposition half
//! (`*_bucket{le=...}` / `*_sum` / `*_count`).

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-bucket histogram with atomic counters. Buckets are defined
/// by their inclusive upper bounds; one extra overflow bucket catches
/// everything above the last bound (exposed as `le="+Inf"`).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// `bounds.len() + 1` counters; the last is the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit upper bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    #[must_use]
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum: AtomicU64::new(0),
        }
    }

    /// The standard latency histogram: 1-2-5 log-scale bounds in
    /// microseconds from 1µs to 50s (24 buckets), wide enough to span
    /// a cache hit and a cold 72-point sweep in one family.
    #[must_use]
    pub fn log_scale_us() -> Self {
        let mut bounds = Vec::with_capacity(24);
        let mut decade = 1u64;
        while decade <= 10_000_000 {
            for mantissa in [1, 2, 5] {
                bounds.push(decade * mantissa);
            }
            decade *= 10;
        }
        Histogram::with_bounds(bounds)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the
    /// overflow bucket.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        h.observe(5); // <= 10
        h.observe(10); // boundary value stays in its own bucket (le)
        h.observe(11); // <= 100
        h.observe(1000); // <= 1000
        h.observe(5000); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5 + 10 + 11 + 1000 + 5000);
    }

    #[test]
    fn log_scale_covers_micro_to_tens_of_seconds() {
        let h = Histogram::log_scale_us();
        assert_eq!(h.bounds().first(), Some(&1));
        assert_eq!(h.bounds().last(), Some(&50_000_000));
        assert_eq!(h.bounds().len(), 24);
        assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::with_bounds(vec![10, 10]);
    }

    #[test]
    fn concurrent_observes_never_lose_counts() {
        let h = std::sync::Arc::new(Histogram::log_scale_us());
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 8000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 8000);
    }
}
