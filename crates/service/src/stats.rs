//! Lock-free service counters, and the table that exposes them.

use std::sync::atomic::{AtomicU64, Ordering};

use co_core::DecisionPath;
use co_trace::{Histogram, Row, Value};

use crate::engine::Engine;
use crate::fingerprint::FINGERPRINT_VERSION;
use crate::snapshot::FORMAT_VERSION;

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
    /// Latency of computed decisions in microseconds, by decision path
    /// (indexed [`path_index`]).
    pub path_latency: [Histogram; 3],
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

/// `STATS` key of the process uptime. Shard and router both report it,
/// and the router's prober reads it from every shard to spot restarts.
pub const UPTIME_KEY: &str = "uptime_seconds";
/// `STATS` key of the snapshot format version (shard and router; the
/// prober refuses a shard whose version differs from its own).
pub const FORMAT_VERSION_KEY: &str = "build.format_version";
/// `STATS` key of the fingerprint version (as [`FORMAT_VERSION_KEY`]).
pub const FINGERPRINT_VERSION_KEY: &str = "build.fingerprint_version";

/// Every metric a `coqld` process exposes, in `STATS` order. `STATS`
/// and `METRICS` are both rendered from this one table; the families
/// with labels (build info, path latency, kernel steps) are added by the
/// `METRICS` renderer around it.
pub(crate) fn table(engine: &Engine, server: &ServerStats) -> Vec<Row> {
    let stats = engine.stats();
    let cache = engine.cache_stats();
    let unions = engine.union_cache_stats();
    let count = |a: &AtomicU64| Value::Counter(a.load(Ordering::Relaxed));
    let gauge = |v: usize| Value::Gauge(v as i64);
    // Coalesced waits happen on both lanes, and each one follows a miss
    // on its own lane, so the rate is over both memos' lookups.
    let lookups = cache.hits + cache.misses + unions.hits + unions.misses;
    let served = cache.hits + unions.hits + stats.coalesced.load(Ordering::Relaxed);
    let effective = if lookups == 0 { 0.0 } else { served as f64 / lookups as f64 };
    let age = engine.snapshot_age_ms().map_or(-1, |ms| ms as i64);
    let mut rows = vec![
        Row::new(
            UPTIME_KEY,
            "coqld_uptime_seconds",
            "Seconds since this engine started (a decrease between scrapes means a restart)",
            Value::Gauge(engine.uptime_seconds() as i64),
        ),
        Row::stat(FORMAT_VERSION_KEY, Value::Gauge(FORMAT_VERSION.into())),
        Row::stat(FINGERPRINT_VERSION_KEY, Value::Gauge(FINGERPRINT_VERSION.into())),
        Row::new(
            "decisions",
            "coqld_decisions_total",
            "Containment decisions answered",
            count(&stats.decisions),
        ),
        Row::new(
            "computed",
            "coqld_computed_total",
            "Decisions computed (cache misses)",
            count(&stats.computed),
        ),
        Row::new(
            "coalesced",
            "coqld_coalesced_total",
            "Requests coalesced onto an in-flight twin",
            count(&stats.coalesced),
        ),
        Row::new(
            "inflight",
            "coqld_inflight",
            "Decisions currently being computed",
            Value::Gauge(stats.in_flight.load(Ordering::Relaxed) as i64),
        ),
        Row::new(
            "timeouts",
            "coqld_timeouts_total",
            "Requests abandoned at their deadline or step budget",
            count(&stats.timeouts),
        ),
        Row::new(
            "panics",
            "coqld_panics_total",
            "Decision computations contained by panic isolation",
            count(&stats.panics),
        ),
        Row::new("schemas", "coqld_schemas", "Registered schemas", gauge(engine.schema_count())),
        Row::new(
            "prepared",
            "coqld_prepared_queries",
            "Distinct prepared queries shared",
            gauge(engine.prepared_count()),
        ),
        Row::new(
            "server.accepted",
            "coqld_server_accepted_total",
            "Connections accepted",
            count(&server.accepted),
        ),
        Row::new(
            "server.shed",
            "coqld_server_shed_total",
            "Connections shed at the connection cap",
            count(&server.shed),
        ),
        Row::new(
            "server.oversized",
            "coqld_server_oversized_total",
            "Requests rejected for exceeding the line cap",
            count(&server.oversized),
        ),
        Row::new(
            "server.idle_closed",
            "coqld_server_idle_closed_total",
            "Connections closed for idling past the read timeout",
            count(&server.idle_closed),
        ),
        Row::new(
            "server.conn_panics",
            "coqld_server_conn_panics_total",
            "Connection handlers contained by panic isolation",
            count(&server.conn_panics),
        ),
        Row::new(
            "server.slow_requests",
            "coqld_server_slow_requests_total",
            "Requests logged as slow",
            count(&server.slow_requests),
        ),
        Row::new(
            "cache.hits",
            "coqld_cache_hits_total",
            "Memo-cache hits",
            Value::Counter(cache.hits),
        ),
        Row::new(
            "cache.misses",
            "coqld_cache_misses_total",
            "Memo-cache misses",
            Value::Counter(cache.misses),
        ),
        Row::new(
            "cache.evictions",
            "coqld_cache_evictions_total",
            "Memo-cache LRU evictions",
            Value::Counter(cache.evictions),
        ),
        Row::new(
            "cache.entries",
            "coqld_cache_entries",
            "Live memo-cache entries",
            gauge(cache.entries),
        ),
        Row::new(
            "cache.capacity",
            "coqld_cache_capacity",
            "Memo-cache capacity",
            gauge(cache.capacity),
        ),
        Row::new("cache.shards", "coqld_cache_shards", "Memo-cache shards", gauge(cache.shards)),
        Row::new(
            "cache.hit_rate",
            "coqld_cache_hit_rate",
            "Memo-cache hit rate",
            Value::Ratio(cache.hit_rate()),
        ),
        Row::new(
            "cache.effective_hit_rate",
            "coqld_cache_effective_hit_rate",
            "Hit rate counting coalesced requests",
            Value::Ratio(effective),
        ),
        Row::new(
            "unions.decisions",
            "coqld_union_decisions_total",
            "Union (UCHECK/UEQUIV) decisions answered",
            count(&stats.union_decisions),
        ),
        Row::new(
            "unions.hits",
            "coqld_union_hits_total",
            "Union containment directions served from the union memo",
            Value::Counter(unions.hits),
        ),
        Row::new(
            "unions.entries",
            "coqld_union_memo_entries",
            "Live union-memo entries",
            gauge(unions.entries),
        ),
        Row::new(
            "persist.recovered_entries",
            "coqld_persist_recovered_entries_total",
            "Verdicts recovered at warm start",
            count(&stats.recovered_entries),
        ),
        Row::new(
            "persist.snapshots_written",
            "coqld_persist_snapshots_written_total",
            "Cache snapshots published",
            count(&stats.snapshots_written),
        ),
        Row::new(
            "persist.snapshot_failures",
            "coqld_persist_snapshot_failures_total",
            "Cache snapshot writes that failed",
            count(&stats.snapshot_failures),
        ),
        Row::new(
            "persist.quarantined",
            "coqld_persist_quarantined_total",
            "Snapshots rejected at load and moved aside",
            count(&stats.quarantined),
        ),
        Row::new(
            "persist.cert_rejected",
            "coqld_persist_cert_rejected_total",
            "Cached certificates rejected by the co-cert re-check",
            count(&stats.cert_rejected),
        ),
        Row::new(
            "persist.snapshot_age_ms",
            "coqld_persist_snapshot_age_ms",
            "Milliseconds since the last snapshot (-1 before the first)",
            Value::Gauge(age),
        ),
    ];
    // The path histograms are one labeled summary family in `METRICS`.
    for (i, hist) in stats.path_latency.iter().enumerate() {
        let label = path_label(i);
        let mean = hist.sum().checked_div(hist.count()).unwrap_or(0);
        rows.push(Row::stat(format!("path.{label}.count"), Value::Counter(hist.count())));
        rows.push(Row::stat(format!("path.{label}.mean_us"), Value::Counter(mean)));
        rows.push(Row::stat(format!("path.{label}.p50_us"), Value::Counter(hist.quantile(0.5))));
        rows.push(Row::stat(format!("path.{label}.p99_us"), Value::Counter(hist.quantile(0.99))));
    }
    rows
}
