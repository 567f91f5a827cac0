//! Std-only observability primitives for the decision stack (DESIGN.md §12).
//!
//! Three pieces live here:
//!
//! * [`kernel`] — a **fixed** set of per-kernel step counters
//!   ([`kernel::Metric`]) backed by a thread-local array of `Cell<u64>`.
//!   The decision kernels ([`co-cq`'s hom search, `co-object`'s
//!   simulation and Hoare order, `co-sim`'s §5 tree walk) call
//!   [`kernel::bump`] at their inner-loop sites; the cost is one
//!   thread-local access plus an array index — comparable to the
//!   cooperative-cancellation probe the same sites already pay, so the
//!   instrumentation stays within the perf budget of the hot paths.
//!   A serving layer brackets each kernel invocation with
//!   [`kernel::snapshot`]/[`kernel::Counters::delta`] to obtain the
//!   *per-request* step counts (the `EXPLAIN` breakdown) and
//!   [`kernel::publish`]es the delta into process-wide atomics
//!   ([`kernel::global_totals`], the `METRICS` fleet view) — one
//!   mechanism feeds both sinks.
//!
//! * [`Row`] — one line of a process's metrics table, and the renderers
//!   that turn the table into both of its views: `STATS` `key value`
//!   lines ([`render_stats`]) and Prometheus text exposition
//!   ([`render_families`], plus [`put_header`]/[`put_sample`]/
//!   [`put_summary`] for labeled families). Each process lists its
//!   metrics once and renders both views from that one list.
//!
//! * [`Histogram`] — a lock-free log₂-bucketed histogram, and [`Span`],
//!   a minimal monotonic timer for phase breakdowns.
//!
//! Everything is `std`-only: no registry dependencies, usable from every
//! crate in the workspace including the kernels themselves.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod kernel;

pub use kernel::{bump, bump_by, Metric};

/// A lightweight monotonic span timer for phase breakdowns.
///
/// Not tied to a registry: callers read [`Span::elapsed_us`] and decide
/// where the measurement goes (an `EXPLAIN` reply, a histogram, a log
/// line). Overhead is two `Instant::now()` calls per measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    started: Instant,
}

impl Span {
    /// Starts a span now.
    pub fn start() -> Span {
        Span { started: Instant::now() }
    }

    /// Microseconds elapsed since the span started, rounded to nearest.
    /// Rounding, not truncation: a phase breakdown sums many short spans,
    /// and truncating each one biases the sum low by ~0.5 µs per span —
    /// enough to visibly undercount a microsecond-scale request.
    pub fn elapsed_us(&self) -> u64 {
        let ns = self.started.elapsed().as_nanos();
        ((ns.saturating_add(500)) / 1_000).min(u64::MAX as u128) as u64
    }

    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` (bucket 0 is `< 1`), topping out at `2^30` ≈ 1.07e9.
const HIST_BUCKETS: usize = 31;

struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free log₂-bucketed histogram over non-negative samples
/// (conventionally microseconds).
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&self, sample: u64) {
        let bucket = (64 - sample.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.inner.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // Saturating accumulation: a scraped sum must never wrap backwards.
        let mut current = self.inner.sum.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(sample);
            match self.inner.sum.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Records a duration as microseconds.
    pub fn observe_duration(&self, elapsed: Duration) {
        self.observe(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Upper bound of the bucket containing the q-quantile, `0 <= q <= 1`
    /// (0 with no samples; within 2× of the true value by construction).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((n as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 1 } else { 1u64 << i };
            }
        }
        1u64 << (HIST_BUCKETS - 1)
    }
}

/// The value of a [`Row`], which also fixes its Prometheus type.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// A monotone count (`# TYPE … counter`).
    Counter(u64),
    /// An integer that can move both ways (`# TYPE … gauge`).
    Gauge(i64),
    /// A ratio gauge, printed with four decimals in both views.
    Ratio(f64),
}

impl Value {
    fn type_name(self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) | Value::Ratio(_) => "gauge",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Counter(v) => write!(f, "{v}"),
            Value::Gauge(v) => write!(f, "{v}"),
            Value::Ratio(v) => write!(f, "{v:.4}"),
        }
    }
}

/// One metric of a process's table: the `STATS` key, the Prometheus
/// family and its help text when the metric has one, and the value.
/// Both views read the same row, so they cannot disagree.
#[derive(Debug)]
pub struct Row {
    /// The `STATS` key.
    key: Cow<'static, str>,
    /// `(family name, help text)` in `METRICS`; `None` for `STATS`-only
    /// keys (settings, or values exposed through a labeled family).
    family: Option<(&'static str, &'static str)>,
    /// The current value.
    value: Value,
}

impl Row {
    /// A metric shown in both `STATS` and `METRICS`.
    pub fn new(key: &'static str, family: &'static str, help: &'static str, value: Value) -> Row {
        Row { key: Cow::Borrowed(key), family: Some((family, help)), value }
    }

    /// A `STATS`-only key.
    pub fn stat(key: impl Into<Cow<'static, str>>, value: Value) -> Row {
        Row { key: key.into(), family: None, value }
    }
}

/// The `STATS` view: one `key value` line per row, then `END`.
pub fn render_stats(rows: &[Row]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!("{} {}\n", row.key, row.value));
    }
    out.push_str("END");
    out
}

/// Appends the `METRICS` view of every row that has a family: `# HELP`,
/// `# TYPE`, and one unlabeled sample each, in table order.
pub fn render_families(out: &mut String, rows: &[Row]) {
    for row in rows {
        if let Some((name, help)) = row.family {
            put_header(out, name, help, row.value.type_name());
            put_sample(out, name, row.value);
        }
    }
}

/// Appends the `# HELP`/`# TYPE` lines of one family; its samples follow
/// through [`put_sample`] or [`put_summary`].
pub fn put_header(out: &mut String, name: &str, help: &str, type_name: &str) {
    debug_assert!(is_valid_metric_name(name), "{name}");
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {type_name}\n"));
}

/// Appends one sample line: `series` is the family name, with its
/// `{labels}` if any.
pub fn put_sample(out: &mut String, series: &str, value: impl fmt::Display) {
    out.push_str(&format!("{series} {value}\n"));
}

/// Appends one labeled series of a summary family: the p50/p90/p99
/// quantiles of `hist`, then `_sum` and `_count`. `label` is one
/// `key="value"` pair, e.g. `path="flat"`.
pub fn put_summary(out: &mut String, name: &str, label: &str, hist: &Histogram) {
    for q in [0.5, 0.9, 0.99] {
        put_sample(out, &format!("{name}{{{label},quantile=\"{q}\"}}"), hist.quantile(q));
    }
    put_sample(out, &format!("{name}_sum{{{label}}}"), hist.sum());
    put_sample(out, &format!("{name}_count{{{label}}}"), hist.count());
}

/// Whether `name` is a valid Prometheus metric name.
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 3, 8, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1112);
        assert!(h.quantile(0.5) <= 16);
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!((h.count(), h.sum()), (0, 0));
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let h = Histogram::new();
        h.observe_duration(Duration::from_micros(100));
        assert_eq!((h.count(), h.sum()), (1, 100));
        // Log₂ buckets: the answer is the bucket's upper bound, within 2×.
        assert!((100..=256).contains(&h.quantile(0.5)), "{}", h.quantile(0.5));
        assert_eq!(h.quantile(0.0), h.quantile(1.0));
    }

    #[test]
    fn extreme_samples_saturate_without_wrapping() {
        let h = Histogram::new();
        // A Duration whose µs exceed u64::MAX must clamp, not wrap.
        h.observe_duration(Duration::MAX);
        assert_eq!((h.count(), h.sum()), (1, u64::MAX));
        assert_eq!(h.quantile(1.0), 1u64 << (HIST_BUCKETS - 1));
        h.observe_duration(Duration::MAX);
        assert_eq!((h.count(), h.sum()), (2, u64::MAX), "sum must saturate, not wrap");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::new();
        for us in [1u64, 2, 4, 50, 900, 7_000, 120_000] {
            h.observe(us);
        }
        let values: Vec<u64> = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0].map(|q| h.quantile(q)).to_vec();
        assert!(values.windows(2).all(|p| p[0] <= p[1]), "quantiles not monotone: {values:?}");
    }

    #[test]
    fn concurrent_observations_sum_exactly() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        h.observe(3);
                    }
                });
            }
        });
        assert_eq!((h.count(), h.sum()), (8_000, 24_000));
    }

    #[test]
    fn metric_name_validity() {
        assert!(is_valid_metric_name("coqld_cache_hits_total"));
        assert!(is_valid_metric_name("ok_name:x0"));
        assert!(!is_valid_metric_name("bad.name"));
        assert!(!is_valid_metric_name("0bad"));
        assert!(!is_valid_metric_name(""));
    }

    fn table() -> Vec<Row> {
        vec![
            Row::new("hits", "x_hits_total", "Hits", Value::Counter(3)),
            Row::stat("setting", Value::Gauge(2)),
            Row::new("age_ms", "x_age_ms", "Age", Value::Gauge(-1)),
            Row::new("rate", "x_rate", "Rate", Value::Ratio(0.5)),
        ]
    }

    #[test]
    fn stats_view_lists_every_row_in_order() {
        assert_eq!(render_stats(&table()), "hits 3\nsetting 2\nage_ms -1\nrate 0.5000\nEND");
    }

    #[test]
    fn metrics_view_skips_stats_only_rows() {
        let mut out = String::new();
        render_families(&mut out, &table());
        assert_eq!(
            out,
            "# HELP x_hits_total Hits\n# TYPE x_hits_total counter\nx_hits_total 3\n\
             # HELP x_age_ms Age\n# TYPE x_age_ms gauge\nx_age_ms -1\n\
             # HELP x_rate Rate\n# TYPE x_rate gauge\nx_rate 0.5000\n"
        );
    }

    #[test]
    fn summary_series_carry_the_label_on_every_line() {
        let h = Histogram::new();
        h.observe(9);
        let mut out = String::new();
        put_header(&mut out, "x_us", "Latency", "summary");
        put_summary(&mut out, "x_us", "path=\"flat\"", &h);
        assert_eq!(
            out,
            "# HELP x_us Latency\n# TYPE x_us summary\n\
             x_us{path=\"flat\",quantile=\"0.5\"} 16\n\
             x_us{path=\"flat\",quantile=\"0.9\"} 16\n\
             x_us{path=\"flat\",quantile=\"0.99\"} 16\n\
             x_us_sum{path=\"flat\"} 9\nx_us_count{path=\"flat\"} 1\n"
        );
    }

    #[test]
    fn kernel_publish_is_thread_safe_and_monotone() {
        let before = kernel::global_totals();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let local_before = kernel::snapshot();
                    for _ in 0..5_000 {
                        kernel::bump(kernel::Metric::SimCounterUpdates);
                    }
                    kernel::publish(&kernel::snapshot().delta(&local_before));
                });
            }
        });
        let after = kernel::global_totals();
        let grew = after.delta(&before).get(kernel::Metric::SimCounterUpdates);
        assert_eq!(grew, 20_000, "every thread's delta must be folded in exactly");
    }
}
