//! Lock-free service counters and latency histograms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use co_core::DecisionPath;

/// Number of log₂ microsecond buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` µs (bucket 0 is `< 1 µs`), topping out above ~17 min.
const BUCKETS: usize = 31;

/// A log₂-bucketed latency histogram over microseconds.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating, not wrapping: a sum that pins at u64::MAX is obviously
        // exhausted, one that wraps small silently corrupts every mean.
        let mut current = self.sum_us.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(us);
            match self.sum_us.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples in microseconds (the Prometheus `_sum`
    /// series of the exposed summary).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed).checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket containing the q-quantile,
    /// `0 <= q <= 1`. A coarse estimate — within 2× of the true value —
    /// which is what a log₂ histogram buys.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Counters for the decision engine, all monotone except `in_flight`.
#[derive(Default)]
pub struct EngineStats {
    /// Containment decisions answered (cached or computed).
    pub decisions: AtomicU64,
    /// Full decision-pipeline executions (cache misses actually computed).
    pub computed: AtomicU64,
    /// Requests that waited on an identical in-flight computation instead
    /// of recomputing.
    pub coalesced: AtomicU64,
    /// Decisions currently being computed (gauge).
    pub in_flight: AtomicU64,
    /// Requests abandoned because their deadline or step budget expired
    /// (leaders and coalesced waiters alike). Never memoized.
    pub timeouts: AtomicU64,
    /// Decision computations that panicked and were contained by the
    /// engine's isolation boundary.
    pub panics: AtomicU64,
    /// Verdicts recovered from a snapshot at warm start.
    pub recovered_entries: AtomicU64,
    /// Snapshots successfully published (temp + fsync + rename).
    pub snapshots_written: AtomicU64,
    /// Snapshot writes that failed; the previous snapshot stays current.
    pub snapshot_failures: AtomicU64,
    /// Snapshot files rejected at load (corrupt, truncated, or written
    /// by an incompatible version) and moved aside.
    pub quarantined: AtomicU64,
    /// Cached certificates rejected by the `co-cert` re-check — at warm
    /// start / `HANDOFF` import (entry dropped) or on a cache hit under
    /// `CERT` (entry recomputed). Any nonzero value means a poisoned or
    /// stale certificate was caught before being served.
    pub cert_rejected: AtomicU64,
    /// Union (`UCHECK`/`UEQUIV`) decisions answered (each direction of a
    /// `UEQUIV` counts once toward `decisions`, the request once here).
    pub union_decisions: AtomicU64,
    /// Latency of computed decisions, by decision path
    /// (indexed [`path_index`]).
    pub path_latency: [LatencyHistogram; 3],
}

/// Counters for the TCP serving layer, all monotone.
#[derive(Default)]
pub struct ServerStats {
    /// Connections accepted (including ones immediately shed).
    pub accepted: AtomicU64,
    /// Connections shed with `ERR OVERLOADED` (connection cap reached).
    pub shed: AtomicU64,
    /// Requests rejected with `ERR TOOLARGE` (line length cap).
    pub oversized: AtomicU64,
    /// Connections closed for idling or dribbling past the read timeout
    /// (slow-loris defense).
    pub idle_closed: AtomicU64,
    /// Connection handlers that panicked and were contained.
    pub conn_panics: AtomicU64,
    /// Requests whose end-to-end handling exceeded the slow-log
    /// threshold ([`crate::ServerConfig::slow_log`]).
    pub slow_requests: AtomicU64,
}

/// Stable index of a [`DecisionPath`] into [`EngineStats::path_latency`].
pub fn path_index(path: DecisionPath) -> usize {
    match path {
        DecisionPath::FlatClassical => 0,
        DecisionPath::NoEmptySets => 1,
        DecisionPath::Full => 2,
    }
}

/// Short stable label for a histogram slot, used by `STATS`.
pub fn path_label(index: usize) -> &'static str {
    match index {
        0 => "flat",
        1 => "no-empty-sets",
        _ => "full",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 3, 8, 100, 1000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 6);
        assert!(h.mean_us() > 0);
        assert!(h.quantile_us(0.5) <= 16);
        assert!(h.quantile_us(1.0) >= 1000);
        let empty = LatencyHistogram::default();
        assert_eq!(empty.quantile_us(0.5), 0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_us(), 0);
        assert_eq!(h.mean_us(), 0);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_us(), 100);
        assert_eq!(h.mean_us(), 100);
        let p50 = h.quantile_us(0.5);
        // Log₂ buckets: the answer is the bucket's upper bound, within 2×.
        assert!((100..=256).contains(&p50), "{p50}");
        assert_eq!(h.quantile_us(0.0), h.quantile_us(1.0));
    }

    #[test]
    fn extreme_samples_saturate_without_wrapping() {
        let h = LatencyHistogram::default();
        // A Duration whose µs exceed u64::MAX must clamp, not wrap.
        h.record(Duration::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_us(), u64::MAX);
        assert_eq!(h.mean_us(), u64::MAX);
        // The sample lands in the top bucket and the quantile stays there.
        assert_eq!(h.quantile_us(1.0), 1u64 << (BUCKETS - 1));
        // A second extreme sample keeps count exact and pins the sum at
        // the boundary instead of wrapping.
        h.record(Duration::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_us(), u64::MAX, "sum must saturate, not wrap");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 4, 50, 900, 7_000, 120_000] {
            h.record(Duration::from_micros(us));
        }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
        let values: Vec<u64> = qs.iter().map(|&q| h.quantile_us(q)).collect();
        for pair in values.windows(2) {
            assert!(pair[0] <= pair[1], "quantiles not monotone: {values:?}");
        }
    }

    #[test]
    fn concurrent_records_sum_exactly() {
        let h = LatencyHistogram::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        h.record(Duration::from_micros(7));
                    }
                });
            }
        });
        assert_eq!(h.count(), 8_000);
        assert_eq!(h.sum_us(), 56_000);
    }
}
