//! Shard health: per-shard circuit breakers and the STATS probe.
//!
//! Every shard carries a [`Breaker`] — a Closed → Open → Half-Open state
//! machine replacing the old binary `up` flag — fed by *both* probe
//! outcomes and forward-path outcomes, and consulted by both: the
//! request path skips shards whose breaker rejects, and the prober
//! leaves an Open shard alone until its backoff expires, at which point
//! the probe itself becomes the half-open trial.
//!
//! * **Closed**: traffic flows. Hard failures (connect refusal, I/O
//!   errors, garbled replies, probe failures) are timestamped into a
//!   sliding window; crossing the threshold opens the breaker.
//! * **Open**: everything is rejected until the open interval elapses.
//!   Re-opening after a failed trial doubles the interval (capped), so a
//!   corpse is poked geometrically less often.
//! * **Half-Open**: exactly one trial request (or probe) is admitted.
//!   Success recloses the breaker and resets the backoff; failure
//!   re-opens it with a longer interval. A trial that never reports
//!   (its thread died) goes stale after one open interval and the next
//!   admission may try again.
//!
//! Clean protocol sheds (`ERR OVERLOADED`, an unknown-schema answer) are
//! *successes* to the breaker: the shard proved it is alive and parsing
//! requests, and opening on overload would amplify the overload.
//!
//! The probe also still watches `uptime_seconds` for restarts (uptime
//! going backwards ⇒ schemas must be re-pushed, warm cache possibly
//! lost) and the `build.*` lines for snapshot-format skew.

use std::collections::VecDeque;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use co_service::{
    FINGERPRINT_VERSION, FINGERPRINT_VERSION_KEY, FORMAT_VERSION, FORMAT_VERSION_KEY, UPTIME_KEY,
};
use co_trace::Histogram;

use crate::pool::{Pool, PoolConfig};

/// Circuit-breaker knobs, shared by every shard of one router.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Hard failures inside `window` that open the breaker.
    pub failure_threshold: usize,
    /// Sliding window over which failures are counted.
    pub window: Duration,
    /// Initial open interval before the first half-open trial.
    pub open_for: Duration,
    /// Cap on the open interval as failed trials double it.
    pub max_open_for: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            window: Duration::from_secs(10),
            open_for: Duration::from_secs(1),
            max_open_for: Duration::from_secs(30),
        }
    }
}

/// The breaker's externally visible state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Everything is rejected until the open interval elapses.
    Open,
    /// One trial is (or may be) in flight; everything else is rejected.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, used in `SHARDS` lines and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric encoding for the `router_shard_state` gauge
    /// (0 = closed, 1 = half-open, 2 = open).
    pub fn as_gauge(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// What [`Breaker::admit`] decided for one prospective request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Closed: send it.
    Yes,
    /// Half-open: send it, and it is THE trial — its outcome decides
    /// whether the breaker recloses or re-opens.
    Trial,
    /// Open (or a trial is already in flight): do not contact the shard.
    No,
}

/// Mutable breaker core, guarded by one short-held mutex.
struct BreakerCore {
    state: BreakerState,
    /// Timestamps of recent hard failures (pruned to `config.window`).
    failures: VecDeque<Instant>,
    /// When the breaker last opened.
    opened_at: Instant,
    /// Current open interval (doubles on failed trials, resets on close).
    open_for: Duration,
    /// When the in-flight half-open trial was admitted.
    trial_started: Option<Instant>,
}

/// A Closed → Open → Half-Open circuit breaker with a sliding failure
/// window and exponential open-interval backoff.
pub struct Breaker {
    config: BreakerConfig,
    core: Mutex<BreakerCore>,
    /// Transitions into Open (both threshold crossings and failed trials).
    pub opened: AtomicU64,
    /// Transitions into Half-Open (trial admissions after backoff expiry).
    pub half_opened: AtomicU64,
    /// Transitions back into Closed (successful trials).
    pub closed: AtomicU64,
}

impl Breaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Breaker {
        Breaker {
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                failures: VecDeque::new(),
                opened_at: Instant::now(),
                open_for: config.open_for,
                trial_started: None,
            }),
            config,
            opened: AtomicU64::new(0),
            half_opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BreakerCore> {
        self.core.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current state (display only; transitions happen in `admit` and the
    /// `record_*` calls).
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Hard failures currently inside the sliding window.
    pub fn window_failures(&self) -> usize {
        let mut core = self.lock();
        let cutoff = Instant::now().checked_sub(self.config.window);
        if let Some(cutoff) = cutoff {
            while core.failures.front().is_some_and(|&t| t < cutoff) {
                core.failures.pop_front();
            }
        }
        core.failures.len()
    }

    /// Decides whether one request (or probe) may contact the shard.
    /// May transition Open → Half-Open when the open interval has
    /// elapsed; the caller MUST report the attempt's outcome via
    /// [`Breaker::record_success`] / [`Breaker::record_failure`] when
    /// this returns [`Admission::Trial`].
    pub fn admit(&self) -> Admission {
        let mut core = self.lock();
        let now = Instant::now();
        match core.state {
            BreakerState::Closed => Admission::Yes,
            BreakerState::Open => {
                if now.duration_since(core.opened_at) < core.open_for {
                    return Admission::No;
                }
                core.state = BreakerState::HalfOpen;
                core.trial_started = Some(now);
                self.half_opened.fetch_add(1, Ordering::Relaxed);
                Admission::Trial
            }
            BreakerState::HalfOpen => {
                // A trial whose thread died without reporting must not
                // wedge the breaker half-open forever: after one open
                // interval the trial is considered stale.
                let stale = core.trial_started.is_none_or(|t| {
                    now.duration_since(t) >= core.open_for.max(self.config.open_for)
                });
                if stale {
                    core.trial_started = Some(now);
                    Admission::Trial
                } else {
                    Admission::No
                }
            }
        }
    }

    /// Reports a successful exchange (an answer, or a clean protocol
    /// shed — both prove the shard is alive). Recloses a half-open or
    /// open breaker. Returns `true` when this call reclosed it.
    pub fn record_success(&self) -> bool {
        let mut core = self.lock();
        match core.state {
            BreakerState::Closed => false,
            // A success while Open can only come from a request admitted
            // before the breaker opened; it is the same evidence of
            // health a trial success is.
            BreakerState::Open | BreakerState::HalfOpen => {
                core.state = BreakerState::Closed;
                core.failures.clear();
                core.open_for = self.config.open_for;
                core.trial_started = None;
                self.closed.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Reports a hard failure (connect refusal, I/O error, short read,
    /// garbled reply, probe failure). Returns `true` when this call
    /// opened the breaker (threshold crossed or trial failed).
    pub fn record_failure(&self) -> bool {
        let mut core = self.lock();
        let now = Instant::now();
        match core.state {
            BreakerState::Closed => {
                if let Some(cutoff) = now.checked_sub(self.config.window) {
                    while core.failures.front().is_some_and(|&t| t < cutoff) {
                        core.failures.pop_front();
                    }
                }
                core.failures.push_back(now);
                if core.failures.len() < self.config.failure_threshold.max(1) {
                    return false;
                }
                core.state = BreakerState::Open;
                core.opened_at = now;
                core.open_for = self.config.open_for;
                self.opened.fetch_add(1, Ordering::Relaxed);
                true
            }
            BreakerState::HalfOpen => {
                // The trial failed: re-open with a doubled interval so a
                // still-dead shard is poked geometrically less often.
                core.state = BreakerState::Open;
                core.opened_at = now;
                core.open_for = (core.open_for * 2).min(self.config.max_open_for);
                core.trial_started = None;
                self.opened.fetch_add(1, Ordering::Relaxed);
                true
            }
            // Already open: in-flight stragglers add no information.
            BreakerState::Open => false,
        }
    }
}

/// Live state of one shard, shared between the prober, the request path,
/// and the `SHARDS`/`METRICS` renderers.
pub struct ShardState {
    /// The shard's `host:port`.
    pub addr: String,
    /// Bounded request-path connections to it.
    pub pool: Arc<Pool>,
    /// The circuit breaker gating all contact with this shard. Shards
    /// start Closed (optimistically routable) — the first probe or
    /// forward corrects within one interval, and a cold fleet serves
    /// immediately instead of waiting a probe round.
    pub breaker: Breaker,
    /// Times the probe saw uptime go backwards (process replaced).
    pub restarts: AtomicU64,
    /// Last observed `uptime_seconds` (`u64::MAX` before the first
    /// successful probe).
    pub last_uptime: AtomicU64,
    /// The shard's snapshot format/fingerprint versions differ from this
    /// router's build.
    pub version_skew: AtomicBool,
    /// Forward attempts launched against this shard (answered or not).
    pub attempts: AtomicU64,
    /// Requests this shard answered through the router.
    pub forwarded: AtomicU64,
    /// Forward latency (µs) of answered requests.
    pub forward_latency: Histogram,
}

impl ShardState {
    /// Fresh state for `addr`, breaker closed.
    pub fn new(addr: &str, pool_config: PoolConfig, breaker: BreakerConfig) -> Arc<ShardState> {
        Arc::new(ShardState {
            addr: addr.to_string(),
            pool: Pool::new(addr, pool_config),
            breaker: Breaker::new(breaker),
            restarts: AtomicU64::new(0),
            last_uptime: AtomicU64::new(u64::MAX),
            version_skew: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            forward_latency: Histogram::new(),
        })
    }

    /// Routable right now (breaker not Open). Half-open counts as up: a
    /// trial may be admitted.
    pub fn is_up(&self) -> bool {
        self.breaker.state() != BreakerState::Open
    }
}

/// What one successful `STATS` probe reported.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeReport {
    /// The shard's `uptime_seconds`.
    pub uptime: u64,
    /// Its `build.format_version` (0 on pre-versioned builds).
    pub format_version: u32,
    /// Its `build.fingerprint_version`.
    pub fingerprint_version: u32,
    /// Its `cache.entries` (handoff donor selection).
    pub cache_entries: u64,
}

impl ProbeReport {
    /// Whether the shard's snapshot formats match this router's build.
    pub fn versions_match(&self) -> bool {
        self.format_version == FORMAT_VERSION && self.fingerprint_version == FINGERPRINT_VERSION
    }
}

/// One-shot `STATS` exchange over a dedicated connection (not a pool
/// slot: probes must not compete with request traffic, and must work
/// against a shard whose pool is exhausted).
pub fn probe(shard: &ShardState) -> io::Result<ProbeReport> {
    let mut conn = shard.pool.dial_oneshot()?;
    conn.send_line("STATS")?;
    let lines = conn.read_until("END")?;
    let _ = conn.send_line("QUIT");
    Ok(parse_stats(&lines))
}

/// Extracts the probe-relevant keys from a `STATS` payload; absent keys
/// stay zero so probing an older build degrades to "version skew".
pub fn parse_stats(lines: &[String]) -> ProbeReport {
    let mut report = ProbeReport::default();
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else { continue };
        match key {
            UPTIME_KEY => report.uptime = value.parse().unwrap_or(0),
            FORMAT_VERSION_KEY => report.format_version = value.parse().unwrap_or(0),
            FINGERPRINT_VERSION_KEY => report.fingerprint_version = value.parse().unwrap_or(0),
            "cache.entries" => report.cache_entries = value.parse().unwrap_or(0),
            _ => {}
        }
    }
    report
}

/// Outcome of folding one probe result into a shard's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// Nothing changed.
    Steady,
    /// The shard just came (back) up — its breaker reclosed on this
    /// probe — schemas must be (re-)pushed.
    CameUp,
    /// Same process kept running but its uptime went backwards: it was
    /// restarted between probes — schemas must be re-pushed.
    Restarted,
    /// The shard's breaker just opened and it was drained from routing.
    WentDown,
}

/// Folds one probe outcome into the shard state and reports what changed.
pub fn apply_probe(shard: &ShardState, outcome: &io::Result<ProbeReport>) -> Transition {
    match outcome {
        Ok(report) => {
            shard.version_skew.store(!report.versions_match(), Ordering::Relaxed);
            let reclosed = shard.breaker.record_success();
            let previous = shard.last_uptime.swap(report.uptime, Ordering::Relaxed);
            if reclosed {
                return Transition::CameUp;
            }
            if previous != u64::MAX && report.uptime < previous {
                shard.restarts.fetch_add(1, Ordering::Relaxed);
                return Transition::Restarted;
            }
            Transition::Steady
        }
        Err(_) => {
            if shard.breaker.record_failure() {
                // Warm sockets to a dead address are useless; drop them so
                // recovery starts clean.
                shard.pool.drain_idle();
                shard.last_uptime.store(u64::MAX, Ordering::Relaxed);
                return Transition::WentDown;
            }
            Transition::Steady
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn fast_breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            window: Duration::from_secs(5),
            open_for: Duration::from_millis(40),
            max_open_for: Duration::from_millis(160),
        }
    }

    fn shard_with(config: BreakerConfig) -> Arc<ShardState> {
        ShardState::new(
            "127.0.0.1:1",
            PoolConfig {
                max_live: 2,
                max_idle: 1,
                connect_timeout: Duration::from_millis(100),
                io_timeout: None,
            },
            config,
        )
    }

    fn ok(uptime: u64) -> io::Result<ProbeReport> {
        Ok(ProbeReport {
            uptime,
            format_version: FORMAT_VERSION,
            fingerprint_version: FINGERPRINT_VERSION,
            cache_entries: 0,
        })
    }

    fn fail() -> io::Result<ProbeReport> {
        Err(io::Error::new(io::ErrorKind::ConnectionRefused, "refused"))
    }

    #[test]
    fn closed_opens_exactly_on_the_threshold() {
        let b = Breaker::new(fast_breaker());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed, "below threshold stays closed");
        assert_eq!(b.admit(), Admission::Yes);
        assert!(b.record_failure(), "third failure in the window opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn open_rejects_immediately_without_io() {
        let b = Breaker::new(fast_breaker());
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.admit(), Admission::No, "open breaker admits nothing");
        assert_eq!(b.admit(), Admission::No);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn failures_outside_the_window_do_not_accumulate() {
        let b = Breaker::new(BreakerConfig { window: Duration::from_millis(60), ..fast_breaker() });
        b.record_failure();
        b.record_failure();
        thread::sleep(Duration::from_millis(80));
        assert_eq!(b.window_failures(), 0, "old failures expired");
        assert!(!b.record_failure(), "a fresh window starts counting from one");
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_admits_exactly_one_trial() {
        let b = Breaker::new(fast_breaker());
        for _ in 0..3 {
            b.record_failure();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::Trial, "backoff expired: one trial");
        assert_eq!(b.half_opened.load(Ordering::Relaxed), 1);
        assert_eq!(b.admit(), Admission::No, "second concurrent probe is rejected");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn trial_success_recloses_and_resets_backoff() {
        let b = Breaker::new(fast_breaker());
        for _ in 0..3 {
            b.record_failure();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::Trial);
        assert!(b.record_success());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closed.load(Ordering::Relaxed), 1);
        assert_eq!(b.window_failures(), 0, "reclosing clears the window");
        // The backoff reset: a fresh open waits only the base interval.
        for _ in 0..3 {
            b.record_failure();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::Trial, "base interval again after reclose");
    }

    #[test]
    fn trial_failure_reopens_with_doubled_backoff() {
        let b = Breaker::new(fast_breaker());
        for _ in 0..3 {
            b.record_failure();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::Trial);
        assert!(b.record_failure(), "failed trial re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opened.load(Ordering::Relaxed), 2);
        // The interval doubled to 80ms: 50ms is not enough now.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::No, "doubled backoff still running");
        thread::sleep(Duration::from_millis(40));
        assert_eq!(b.admit(), Admission::Trial, "doubled backoff expired");
    }

    #[test]
    fn a_stale_trial_does_not_wedge_the_breaker() {
        let b = Breaker::new(fast_breaker());
        for _ in 0..3 {
            b.record_failure();
        }
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::Trial);
        // The trial's thread dies without reporting. After one open
        // interval the next admission may try again.
        thread::sleep(Duration::from_millis(50));
        assert_eq!(b.admit(), Admission::Trial, "stale trial is replaced");
    }

    #[test]
    fn probe_failures_open_and_a_probe_success_recloses() {
        let s = shard_with(fast_breaker());
        assert_eq!(apply_probe(&s, &fail()), Transition::Steady);
        assert_eq!(apply_probe(&s, &fail()), Transition::Steady);
        assert!(s.is_up(), "below the threshold the shard still serves");
        assert_eq!(apply_probe(&s, &fail()), Transition::WentDown);
        assert!(!s.is_up());
        thread::sleep(Duration::from_millis(50));
        assert_eq!(s.breaker.admit(), Admission::Trial, "the probe is the trial");
        assert_eq!(apply_probe(&s, &ok(10)), Transition::CameUp);
        assert!(s.is_up());
        assert_eq!(s.breaker.window_failures(), 0);
    }

    #[test]
    fn uptime_regression_is_a_restart() {
        let s = shard_with(fast_breaker());
        assert_eq!(apply_probe(&s, &ok(100)), Transition::Steady);
        assert_eq!(apply_probe(&s, &ok(150)), Transition::Steady);
        assert_eq!(apply_probe(&s, &ok(3)), Transition::Restarted);
        assert_eq!(s.restarts.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn version_skew_is_flagged_not_fatal() {
        let s = shard_with(fast_breaker());
        let skewed = Ok(ProbeReport {
            uptime: 5,
            format_version: FORMAT_VERSION + 1,
            fingerprint_version: FINGERPRINT_VERSION,
            cache_entries: 0,
        });
        apply_probe(&s, &skewed);
        assert!(s.is_up(), "skew must not stop request serving");
        assert!(s.version_skew.load(Ordering::Relaxed));
    }

    #[test]
    fn stats_parsing_tolerates_unknown_keys() {
        let lines: Vec<String> = [
            "decisions 42".to_string(),
            "uptime_seconds 77".to_string(),
            format!("build.format_version {FORMAT_VERSION}"),
            format!("build.fingerprint_version {FINGERPRINT_VERSION}"),
            "cache.entries 9".to_string(),
            "some.future.key x".to_string(),
        ]
        .into_iter()
        .collect();
        let r = parse_stats(&lines);
        assert_eq!(r.uptime, 77);
        assert_eq!(r.cache_entries, 9);
        assert!(r.versions_match());
    }
}
