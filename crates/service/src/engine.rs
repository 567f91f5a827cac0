//! The decision engine: fingerprint → memo cache → decide.
//!
//! One [`Engine`] owns the registered schemas, a cache of [`Prepared`]
//! queries (one per *distinct canonical query*, shared across every pair
//! and union it appears in), and one memo per kind of question — scalar
//! containment and union containment — each a [`MemoCache`] with an
//! in-flight table that coalesces concurrent identical requests so a
//! verdict is computed at most once no matter how many clients ask
//! simultaneously. Both kinds run through the same direction pipeline
//! ([`Engine::decide`] documents its stages).
//!
//! The per-request cost is parse + normalize + fingerprint (linear in the
//! query text); the exponential decision procedures run only on cache
//! misses, which a duplicate-heavy workload makes rare.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use co_core::{
    CertifyError, ContainmentAnalysis, CoreError, Equivalence, Prepared, PreparedUnion,
    UnionAnalysis,
};
use co_cq::Schema;
use co_lang::{CoqlSchema, EmptySetStatus, Expr};
use co_object::{interrupt, par};
use co_trace::{kernel, Span};

use crate::cache::{CacheEntry, CacheKey, CacheStats, MemoCache};
use crate::deadline::{Deadline, RequestBudget};
use crate::faults;
use crate::fingerprint::{fingerprint_query, fingerprint_schema, fingerprint_union, Fingerprint};
use crate::snapshot::{self, LoadOutcome};
use crate::stats::{path_index, EngineStats};
use crate::sync;

/// Engine sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of memo-cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// LRU capacity per shard.
    pub cache_per_shard: usize,
    /// Nesting cap applied when parsing query text (untrusted socket/CLI
    /// input). Deeper input is rejected with a `TOODEEP`-prefixed error
    /// instead of risking a stack overflow in the parser.
    pub max_parse_depth: usize,
    /// Intra-request kernel threads (`0` = auto: half the machine, capped
    /// at 8, so kernel fan-out never starves the connection workers).
    /// Applied process-globally when the engine is built.
    pub kernel_threads: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_shards: 16,
            cache_per_shard: 4096,
            max_parse_depth: co_lang::parse::DEFAULT_MAX_DEPTH,
            kernel_threads: 0,
        }
    }
}

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Decide `q1 ⊑ q2`.
    Check,
    /// Decide equivalence (mutual containment plus the §4 collapse).
    Equiv,
    /// Decide union containment `∪q1ⱼ ⊑ ∪q2ᵢ` (the query texts are
    /// `or`-of-conjuncts union queries; a plain query is the degenerate
    /// one-disjunct union).
    UCheck,
    /// Decide union equivalence (mutual union containment).
    UEquiv,
}

/// One decision request, as received from a client.
#[derive(Clone, Debug)]
pub struct Request {
    /// Which question to answer.
    pub op: Op,
    /// Registered schema id.
    pub schema: String,
    /// COQL source of the left query.
    pub q1: String,
    /// COQL source of the right query.
    pub q2: String,
    /// Deadline/step limits for this request (none by default).
    pub budget: RequestBudget,
    /// Demand a proof-carrying verdict (the `CERT` protocol prefix): the
    /// decision must come with a certificate, and a cached certificate is
    /// re-checked by `co-cert` before being served.
    pub cert: bool,
}

impl Request {
    /// A request with no budget limits.
    pub fn new(op: Op, schema: &str, q1: &str, q2: &str) -> Request {
        Request {
            op,
            schema: schema.to_string(),
            q1: q1.to_string(),
            q2: q2.to_string(),
            budget: RequestBudget::default(),
            cert: false,
        }
    }

    /// Sets the request budget.
    pub fn with_budget(mut self, budget: RequestBudget) -> Request {
        self.budget = budget;
        self
    }

    /// Demands a certified verdict.
    pub fn with_cert(mut self, cert: bool) -> Request {
        self.cert = cert;
        self
    }
}

/// A successful decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Answer to an [`Op::Check`] request.
    Containment {
        /// The verdict with provenance, bit-identical to the uncached
        /// [`co_core::contained_in`] result.
        analysis: ContainmentAnalysis,
        /// Served from the memo cache (or coalesced onto an in-flight
        /// computation) rather than computed for this request.
        cached: bool,
        /// Canonical fingerprint of `q1`.
        fp1: Fingerprint,
        /// Canonical fingerprint of `q2`.
        fp2: Fingerprint,
        /// The verdict's certificate in `co-cert` wire form. Present
        /// exactly when the request asked for one ([`Request::cert`]);
        /// cached certificates have been re-checked before landing here.
        cert: Option<String>,
    },
    /// Answer to an [`Op::Equiv`] request.
    Equivalence {
        /// `q1 ⊑ q2`.
        forward: bool,
        /// `q2 ⊑ q1`.
        backward: bool,
        /// The combined verdict (definite when the §4 collapse applies).
        verdict: Equivalence,
        /// Both directions were served from cache.
        cached: bool,
        /// Canonical fingerprint of `q1`.
        fp1: Fingerprint,
        /// Canonical fingerprint of `q2`.
        fp2: Fingerprint,
        /// Certificate for the forward direction (`q1 ⊑ q2`), present
        /// exactly when the request asked for one.
        cert_forward: Option<String>,
        /// Certificate for the backward direction (`q2 ⊑ q1`).
        cert_backward: Option<String>,
    },
    /// Answer to an [`Op::UCheck`] request.
    Union {
        /// The union verdict with witness provenance.
        analysis: co_core::UnionAnalysis,
        /// Served from the union memo (or coalesced onto an in-flight
        /// computation) rather than computed for this request.
        cached: bool,
        /// Order-invariant union fingerprint of `q1`.
        fp1: Fingerprint,
        /// Order-invariant union fingerprint of `q2`.
        fp2: Fingerprint,
        /// Disjunct counts `(left, right)` after parsing.
        disjuncts: (usize, usize),
        /// The union certificate in `co-cert` wire form (`COUNION1`),
        /// present exactly when the request asked for one; cached
        /// certificates have been re-checked before landing here.
        cert: Option<String>,
    },
    /// Answer to an [`Op::UEquiv`] request.
    UnionEquivalence {
        /// `∪q1ⱼ ⊑ ∪q2ᵢ`.
        forward: bool,
        /// `∪q2ᵢ ⊑ ∪q1ⱼ`.
        backward: bool,
        /// Both directions were served without computing.
        cached: bool,
        /// Order-invariant union fingerprint of `q1`.
        fp1: Fingerprint,
        /// Order-invariant union fingerprint of `q2`.
        fp2: Fingerprint,
        /// Union certificate for the forward direction, when asked for.
        cert_forward: Option<String>,
        /// Union certificate for the backward direction.
        cert_backward: Option<String>,
    },
    /// The request's deadline or step budget expired before a verdict was
    /// reached. Nothing was memoized; retrying with a larger budget
    /// computes the true verdict.
    TimedOut {
        /// Canonical fingerprint of `q1`.
        fp1: Fingerprint,
        /// Canonical fingerprint of `q2`.
        fp2: Fingerprint,
        /// Time spent before giving up.
        elapsed: Duration,
    },
}

/// Per-request phase breakdown and kernel step counts, produced by
/// [`Engine::decide_explained`] (the `EXPLAIN` protocol prefix).
///
/// Phase timings are microseconds of wall clock spent in each stage of
/// the decision pipeline; for `EQUIV` requests both directions
/// accumulate into the same fields. `cache_us` includes time spent
/// waiting on another request's in-flight computation of the same key,
/// so the phases sum to approximately the end-to-end latency
/// ([`Explain::total_us`]) whatever path the request takes.
#[derive(Clone, Debug, Default)]
pub struct Explain {
    /// Parsing + type checking the query text.
    pub parse_us: u64,
    /// Canonicalizing (normalizing) the parsed queries.
    pub canonicalize_us: u64,
    /// Fingerprinting the canonical forms.
    pub fingerprint_us: u64,
    /// Building (or looking up) the shared [`Prepared`] forms.
    pub prepare_us: u64,
    /// Memo-cache lookups plus any time spent coalesced behind an
    /// identical in-flight computation.
    pub cache_us: u64,
    /// Time inside the decision kernels proper.
    pub kernel_us: u64,
    /// End-to-end time inside [`Engine::decide_explained`].
    pub total_us: u64,
    /// Kernel step counters attributable to this request (zero when the
    /// verdict came from cache or a coalesced computation).
    pub kernel_steps: kernel::Counters,
    /// High-water mark of kernel threads engaged while deciding this
    /// request (`1` for a purely sequential decision, `0` when no kernel
    /// ran because the verdict came from cache).
    pub threads_used: usize,
}

impl Explain {
    /// Sum of the per-phase timings (compare against [`Explain::total_us`]
    /// to see how much latency the breakdown attributes).
    pub fn phase_sum_us(&self) -> u64 {
        self.parse_us
            + self.canonicalize_us
            + self.fingerprint_us
            + self.prepare_us
            + self.cache_us
            + self.kernel_us
    }

    /// The phase timings as stable `(name, µs)` pairs, in pipeline order.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("parse", self.parse_us),
            ("canonicalize", self.canonicalize_us),
            ("fingerprint", self.fingerprint_us),
            ("prepare", self.prepare_us),
            ("cache", self.cache_us),
            ("kernel", self.kernel_us),
        ]
    }
}

struct SchemaEntry {
    flat: Schema,
    coql: CoqlSchema,
    fp: Fingerprint,
}

/// Capacity of the union memo. Union requests are rarer and heavier than
/// scalar ones, so one fixed-size LRU shard is enough.
const UNION_MEMO_ENTRIES: usize = 4096;

/// What one containment direction produced: a real cache entry (analysis
/// plus any certificate) or a timeout. (Timeouts propagate to coalesced
/// waiters but are never cached.)
#[derive(Clone)]
enum Computed<A> {
    Done(CacheEntry<A>),
    TimedOut,
}

type SlotResult<A> = Result<Computed<A>, String>;

/// What one direction answered this request, and whether it was served
/// without computing (from the memo or coalesced onto another request).
type Answer<A> = Result<(Computed<A>, bool), String>;

/// Slot a computing thread publishes its result into; concurrent
/// requesters of the same key block on the condvar instead of recomputing.
struct InFlightSlot<A> {
    result: Mutex<Option<SlotResult<A>>>,
    ready: Condvar,
}

/// One kind of verdict's memo plus the in-flight table that coalesces
/// concurrent identical computations of it.
struct Lane<A> {
    memo: MemoCache<CacheEntry<A>>,
    inflight: Mutex<HashMap<CacheKey, Arc<InFlightSlot<A>>>>,
}

impl<A: Clone> Lane<A> {
    fn new(shards: usize, per_shard: usize) -> Lane<A> {
        Lane { memo: MemoCache::new(shards, per_shard), inflight: Mutex::new(HashMap::new()) }
    }
}

/// RAII custody of an in-flight slot by its computing leader. If the
/// leader unwinds before publishing (a panic that escapes even
/// `catch_unwind`'s result handling), the drop publishes an error so
/// coalesced waiters are released instead of blocking forever, and removes
/// the slot from the in-flight map so later requests recompute.
struct SlotGuard<'a, A> {
    lane: &'a Lane<A>,
    key: CacheKey,
    slot: &'a Arc<InFlightSlot<A>>,
    published: bool,
}

impl<A> SlotGuard<'_, A> {
    fn publish(&mut self, result: SlotResult<A>) {
        *sync::lock(&self.slot.result) = Some(result);
        self.slot.ready.notify_all();
        sync::lock(&self.lane.inflight).remove(&self.key);
        self.published = true;
    }
}

impl<A> Drop for SlotGuard<'_, A> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Err("internal error: decision worker died before publishing".into()));
        }
    }
}

/// The scalar|union arm of the decision pipeline, implemented by
/// [`Prepared`] (one query) and [`PreparedUnion`] (an `or` of queries).
/// The arm supplies the kernel, the certifier, and the `co-cert`
/// re-check of a memoized certificate; everything else about deciding a
/// direction is shared.
trait Decidable {
    /// The verdict with provenance.
    type Analysis: Clone;
    /// Qualifier naming this kind in panic reports (`""` or `"union "`).
    const LABEL: &'static str;
    /// This kind's memo and in-flight table.
    fn lane(engine: &Engine) -> &Lane<Self::Analysis>;
    /// The decision kernel for `self ⊑ other`.
    fn decide(&self, other: &Self) -> Result<Self::Analysis, CoreError>;
    /// Certifies a verdict, returning the certificate in wire form.
    fn certify(&self, other: &Self, analysis: &Self::Analysis) -> Result<String, CertifyError>;
    /// Independently re-checks a memoized certificate against the live
    /// query trees.
    fn recheck(&self, other: &Self, analysis: &Self::Analysis, wire: &str) -> bool;
    /// Slot of [`EngineStats::path_latency`] a computed verdict is timed
    /// under, if this kind keeps one.
    fn latency_slot(analysis: &Self::Analysis) -> Option<usize>;
}

impl Decidable for Prepared {
    type Analysis = ContainmentAnalysis;
    const LABEL: &'static str = "";

    fn lane(engine: &Engine) -> &Lane<ContainmentAnalysis> {
        &engine.cache
    }

    fn decide(&self, other: &Prepared) -> Result<ContainmentAnalysis, CoreError> {
        co_core::contained_prepared(self, other)
    }

    fn certify(
        &self,
        other: &Prepared,
        analysis: &ContainmentAnalysis,
    ) -> Result<String, CertifyError> {
        co_core::certify_prepared(self, other, analysis).map(|cert| cert.to_wire())
    }

    fn recheck(&self, other: &Prepared, analysis: &ContainmentAnalysis, wire: &str) -> bool {
        let expected = co_core::cert_path(co_core::expected_path(self, other));
        co_cert::Cert::parse(wire)
            .and_then(|cert| cert.check_against(&self.tree, &other.tree, analysis.holds, expected))
            .is_ok()
    }

    fn latency_slot(analysis: &ContainmentAnalysis) -> Option<usize> {
        Some(path_index(analysis.path))
    }
}

impl Decidable for PreparedUnion {
    type Analysis = UnionAnalysis;
    const LABEL: &'static str = "union ";

    fn lane(engine: &Engine) -> &Lane<UnionAnalysis> {
        &engine.unions
    }

    /// The whole Sagiv–Yannakakis loop as one kernel call: cooperative
    /// budgets are sliced across disjuncts inside `co_core`, and the
    /// per-disjunct parallel fan-out happens there too.
    fn decide(&self, other: &PreparedUnion) -> Result<UnionAnalysis, CoreError> {
        co_core::union_contained_prepared(self, other)
    }

    fn certify(
        &self,
        other: &PreparedUnion,
        analysis: &UnionAnalysis,
    ) -> Result<String, CertifyError> {
        co_core::certify_union_prepared(self, other, analysis).map(|cert| cert.to_wire())
    }

    fn recheck(&self, other: &PreparedUnion, analysis: &UnionAnalysis, wire: &str) -> bool {
        let ltrees: Vec<_> = self.disjuncts.iter().map(|p| &p.tree).collect();
        let rtrees: Vec<_> = other.disjuncts.iter().map(|p| &p.tree).collect();
        let expect = |j: usize, i: usize| {
            co_core::cert_path(co_core::expected_union_path(self, other, j, i))
        };
        co_cert::UnionCert::parse(wire)
            .and_then(|cert| cert.check_against(&ltrees, &rtrees, analysis.holds, &expect))
            .is_ok()
    }

    fn latency_slot(_: &UnionAnalysis) -> Option<usize> {
        None
    }
}

/// The directions one request decided.
struct Directions<A> {
    /// `q1 ⊑ q2`.
    forward: CacheEntry<A>,
    /// `q2 ⊑ q1`, decided for the equivalence verbs only.
    backward: Option<CacheEntry<A>>,
    /// Every direction was served without computing.
    cached: bool,
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

/// Renders a parse failure for the wire. Depth-cap rejections get a
/// `TOODEEP` prefix so the protocol reply (`ERR TOODEEP …`) is machine
/// distinguishable from a syntax error.
fn parse_error_message(e: &co_lang::ParseError) -> String {
    if e.is_too_deep() {
        format!("TOODEEP {e}")
    } else {
        e.to_string()
    }
}

/// Runs `f` under the request's interrupt budget and inside the engine's
/// panic-isolation boundary — the one place the engine runs a decision
/// kernel or a certifier.
fn guarded<T>(
    budget: &RequestBudget,
    deadline: Option<Deadline>,
    f: impl FnOnce() -> T,
) -> std::thread::Result<T> {
    let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
    catch_unwind(AssertUnwindSafe(f))
}

/// The containment-decision engine. Cheap to share: wrap it in an [`Arc`]
/// and hand clones to every connection/worker.
pub struct Engine {
    schemas: RwLock<HashMap<String, Arc<SchemaEntry>>>,
    cache: Lane<ContainmentAnalysis>,
    unions: Lane<UnionAnalysis>,
    /// Prepared queries and unions by `(schema fp, query fp)`. Each memo
    /// entry names at most two of them, so twice the memo's capacity
    /// holds every query a resident verdict refers to.
    prepared: MemoCache<Arc<Prepared>, (Fingerprint, Fingerprint)>,
    prepared_unions: MemoCache<Arc<PreparedUnion>, (Fingerprint, Fingerprint)>,
    stats: EngineStats,
    max_parse_depth: usize,
    last_snapshot: Mutex<Option<Instant>>,
    started: Instant,
}

/// What [`Engine::warm_start`] found on disk.
#[derive(Debug, PartialEq, Eq)]
pub enum WarmStart {
    /// No snapshot file: a normal first boot.
    Cold,
    /// This many verdicts were verified and preloaded into the cache.
    Recovered(usize),
    /// The snapshot failed verification and was moved aside; the cache
    /// starts empty (and [`EngineStats::quarantined`] ticked).
    Quarantined {
        /// What failed verification.
        reason: String,
    },
}

impl Engine {
    /// An engine with the given sizing.
    pub fn new(config: EngineConfig) -> Engine {
        par::set_kernel_threads(config.kernel_threads);
        Engine {
            schemas: RwLock::new(HashMap::new()),
            cache: Lane::new(config.cache_shards, config.cache_per_shard),
            unions: Lane::new(1, UNION_MEMO_ENTRIES),
            prepared: MemoCache::new(config.cache_shards, 2 * config.cache_per_shard),
            prepared_unions: MemoCache::new(1, 2 * UNION_MEMO_ENTRIES),
            stats: EngineStats::default(),
            max_parse_depth: config.max_parse_depth.max(1),
            last_snapshot: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// Whole seconds this engine has been alive. Exposed through
    /// `STATS`/`METRICS` so a fleet prober can detect restarts: an uptime
    /// that goes *down* between scrapes means the process was replaced
    /// (and its warm cache possibly lost).
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Writes the cache's current verdicts to `path` (atomic
    /// publication: temp file + fsync + rename). Returns the number of
    /// entries written. On failure the previous snapshot at `path`
    /// survives untouched and [`EngineStats::snapshot_failures`] ticks.
    ///
    /// Timed-out decisions are never inserted into the cache, so no
    /// snapshot can ever contain one.
    pub fn snapshot_to(&self, path: &std::path::Path) -> Result<usize, String> {
        let entries = self.cache.memo.export();
        match snapshot::write_snapshot(path, &entries) {
            Ok(()) => {
                self.stats.snapshots_written.fetch_add(1, Ordering::Relaxed);
                *sync::lock(&self.last_snapshot) = Some(Instant::now());
                Ok(entries.len())
            }
            Err(e) => {
                self.stats.snapshot_failures.fetch_add(1, Ordering::Relaxed);
                Err(format!("snapshot to `{}` failed: {e}", path.display()))
            }
        }
    }

    /// Recovers the cache from the snapshot at `path`, if one exists and
    /// verifies. Never fails the boot: a missing file is a cold start, a
    /// corrupt/stale file is quarantined (renamed aside, counter ticked)
    /// and the engine starts cold — wrong verdicts can never be
    /// recovered because every record is checksummed and version-gated.
    pub fn warm_start(&self, path: &std::path::Path) -> WarmStart {
        match snapshot::load_snapshot(path) {
            LoadOutcome::Missing => WarmStart::Cold,
            LoadOutcome::Loaded(entries) => {
                let kept = self.cache.memo.preload(self.screen_recovered(entries));
                self.stats.recovered_entries.fetch_add(kept as u64, Ordering::Relaxed);
                WarmStart::Recovered(kept)
            }
            LoadOutcome::Quarantined { reason, .. } => {
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                WarmStart::Quarantined { reason }
            }
        }
    }

    /// Milliseconds since the last successful snapshot, `None` before
    /// the first one.
    pub fn snapshot_age_ms(&self) -> Option<u64> {
        sync::lock(&self.last_snapshot).map(|t| t.elapsed().as_millis() as u64)
    }

    /// Serializes the cache's current verdicts into the on-disk
    /// `COQLSNP1` format, in memory — the wire payload for warm shard
    /// handoff. Returns the bytes and how many entries they carry.
    pub fn export_snapshot_bytes(&self) -> (Vec<u8>, usize) {
        let entries = self.cache.memo.export();
        let count = entries.len();
        (snapshot::encode_snapshot(&entries), count)
    }

    /// Verifies and preloads a `COQLSNP1` payload pushed over the wire
    /// (warm shard handoff). All-or-nothing, exactly like
    /// [`Engine::warm_start`]: any header/version/CRC mismatch rejects
    /// the whole payload (ticking [`EngineStats::quarantined`]) and the
    /// cache is left untouched — a half-loaded cache can never exist.
    /// Returns `(kept, total)` on success: entries actually inserted
    /// (already-present keys keep the resident verdict) out of entries
    /// carried.
    pub fn import_snapshot_bytes(&self, bytes: &[u8]) -> Result<(usize, usize), String> {
        match snapshot::decode_snapshot(bytes) {
            Ok(entries) => {
                let total = entries.len();
                let kept = self.cache.memo.preload(self.screen_recovered(entries));
                self.stats.recovered_entries.fetch_add(kept as u64, Ordering::Relaxed);
                Ok((kept, total))
            }
            Err(reason) => {
                self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                Err(reason)
            }
        }
    }

    /// Structurally screens recovered entries before they enter the cache:
    /// every certificate must parse and agree with its own record's cached
    /// verdict and decision path. A disagreeing entry is dropped whole
    /// (and [`EngineStats::cert_rejected`] ticks) — a certificate that
    /// contradicts the record it travels with means the writer was buggy
    /// or hostile, so the bare verdict is not to be trusted either. The
    /// full semantic re-check against the live queries happens on the
    /// first `CERT` hit, when the prepared trees exist.
    fn screen_recovered(
        &self,
        entries: Vec<(CacheKey, CacheEntry)>,
    ) -> Vec<(CacheKey, CacheEntry)> {
        entries
            .into_iter()
            .filter(|(_, entry)| {
                let Some(wire) = &entry.cert else { return true };
                let consistent = co_cert::Cert::parse(wire).is_ok_and(|cert| {
                    cert.holds == entry.analysis.holds
                        && cert.path == co_core::cert_path(entry.analysis.path)
                });
                if !consistent {
                    self.stats.cert_rejected.fetch_add(1, Ordering::Relaxed);
                }
                consistent
            })
            .collect()
    }

    /// Registers (or replaces) a schema under `name`; returns its
    /// fingerprint, which becomes part of every cache key that uses it.
    pub fn register_schema(&self, name: &str, schema: Schema) -> Fingerprint {
        let fp = fingerprint_schema(&schema);
        let entry =
            Arc::new(SchemaEntry { coql: CoqlSchema::from_flat(&schema), flat: schema, fp });
        sync::write(&self.schemas).insert(name.to_string(), entry);
        fp
    }

    /// Number of registered schemas.
    pub fn schema_count(&self) -> usize {
        sync::read(&self.schemas).len()
    }

    /// The flat relational schema registered under `name` (the `NEST`
    /// verb decides sequence equivalence against it).
    pub fn flat_schema(&self, name: &str) -> Result<Schema, String> {
        Ok(self.resolve_schema(name)?.flat.clone())
    }

    fn resolve_schema(&self, name: &str) -> Result<Arc<SchemaEntry>, String> {
        sync::read(&self.schemas)
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown schema `{name}` (register it with SCHEMA first)"))
    }

    /// Parses (as an `or`-union of disjuncts when `union`), type-checks,
    /// normalizes, and fingerprints one query text. Returns the parsed
    /// disjuncts (exactly one for a scalar query), their fingerprints, and
    /// the memo-key fingerprint: the query's own, or the order-invariant
    /// union fingerprint. With an [`Explain`] attached, each stage's wall
    /// time is accumulated into the matching phase field.
    fn canonicalize(
        &self,
        entry: &SchemaEntry,
        text: &str,
        union: bool,
        ex: Option<&mut Explain>,
    ) -> Result<(Vec<Expr>, Vec<Fingerprint>, Fingerprint), String> {
        let span = Span::start();
        let exprs = if union {
            co_lang::parse_union_coql_with_depth(text, self.max_parse_depth)
        } else {
            co_lang::parse_coql_with_depth(text, self.max_parse_depth).map(|expr| vec![expr])
        }
        .map_err(|e| parse_error_message(&e))?;
        for expr in &exprs {
            co_lang::type_check(expr, &entry.coql).map_err(|e| e.to_string())?;
        }
        let parse_us = span.elapsed_us();

        let span = Span::start();
        let mut nfs = Vec::with_capacity(exprs.len());
        for expr in &exprs {
            nfs.push(co_lang::normalize(expr, &entry.coql).map_err(|e| e.to_string())?);
        }
        let canonicalize_us = span.elapsed_us();

        let span = Span::start();
        let fps: Vec<Fingerprint> = nfs.iter().map(fingerprint_query).collect();
        let key = if union { fingerprint_union(&fps) } else { fps[0] };
        if let Some(ex) = ex {
            ex.parse_us += parse_us;
            ex.canonicalize_us += canonicalize_us;
            ex.fingerprint_us += span.elapsed_us();
        }
        Ok((exprs, fps, key))
    }

    /// The shared [`Prepared`] form of one canonical query, built on first
    /// use and reused across every pair and union it appears in.
    fn prepared(
        &self,
        entry: &SchemaEntry,
        fp: Fingerprint,
        expr: &Expr,
    ) -> Result<Arc<Prepared>, String> {
        let pkey = (entry.fp, fp);
        if let Some(p) = self.prepared.get(&pkey) {
            return Ok(p);
        }
        let prepared = Arc::new(co_core::prepare(expr, &entry.flat).map_err(|e| e.to_string())?);
        self.prepared.insert(pkey, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Canonicalizes one query; returns its fingerprint and the shared
    /// [`Prepared`] form.
    fn analyze(
        &self,
        entry: &SchemaEntry,
        text: &str,
        mut ex: Option<&mut Explain>,
    ) -> Result<(Fingerprint, Arc<Prepared>), String> {
        let (exprs, _, fp) = self.canonicalize(entry, text, false, ex.as_deref_mut())?;
        let span = Span::start();
        let shared = self.prepared(entry, fp, &exprs[0])?;
        if let Some(ex) = ex {
            ex.prepare_us += span.elapsed_us();
        }
        Ok((fp, shared))
    }

    /// Canonicalizes one *union* query text; returns the order-invariant
    /// union fingerprint and the shared [`PreparedUnion`] (one per
    /// distinct canonical union, with each disjunct's [`Prepared`] drawn
    /// from the same shared map the scalar path uses).
    fn analyze_union(
        &self,
        entry: &SchemaEntry,
        text: &str,
        mut ex: Option<&mut Explain>,
    ) -> Result<(Fingerprint, Arc<PreparedUnion>), String> {
        let (exprs, fps, ufp) = self.canonicalize(entry, text, true, ex.as_deref_mut())?;
        let span = Span::start();
        let ukey = (entry.fp, ufp);
        let shared = match self.prepared_unions.get(&ukey) {
            Some(u) => u,
            None => {
                let disjuncts = exprs
                    .iter()
                    .zip(&fps)
                    .map(|(expr, &fp)| self.prepared(entry, fp, expr).map(|p| (*p).clone()))
                    .collect::<Result<Vec<_>, _>>()?;
                let union =
                    Arc::new(PreparedUnion::from_disjuncts(disjuncts).map_err(|e| e.to_string())?);
                self.prepared_unions.insert(ukey, Arc::clone(&union));
                union
            }
        };
        if let Some(ex) = ex {
            ex.prepare_us += span.elapsed_us();
        }
        Ok((ufp, shared))
    }

    /// Fingerprint of one query under a registered schema (the `coqlc
    /// fingerprint` / `FINGERPRINT` debugging path).
    pub fn fingerprint(&self, schema: &str, text: &str) -> Result<Fingerprint, String> {
        let entry = self.resolve_schema(schema)?;
        Ok(self.canonicalize(&entry, text, false, None)?.2)
    }

    /// Serves a verdict that arrived without running the kernel — a memo
    /// hit or a coalesced wait. A request that wants a certificate for an
    /// entry lacking one (it was computed without `CERT`) gets it built
    /// now, under its own budget, and written back to the memo.
    fn serve<P: Decidable>(
        &self,
        request: &Request,
        deadline: Option<Deadline>,
        key: CacheKey,
        (l, r): (&P, &P),
        entry: CacheEntry<P::Analysis>,
    ) -> Answer<P::Analysis> {
        if !request.cert || entry.cert.is_some() {
            return Ok((Computed::Done(entry), true));
        }
        let cert = guarded(&request.budget, deadline, || l.certify(r, &entry.analysis))
            .unwrap_or_else(|payload| {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                Err(CertifyError::Unavailable(format!(
                    "{}certificate construction panicked: {}",
                    P::LABEL,
                    panic_message(&*payload)
                )))
            });
        let made = cert.is_ok();
        let (entry, answer) = self.attach_cert(entry, Some(cert), true);
        if made {
            P::lane(self).memo.insert(key, entry);
        }
        answer
    }

    /// Attaches what the certifier produced (`None`: no certificate was
    /// asked for) to a valid verdict. Returns the entry to memoize and
    /// this request's answer: a certification failure is this request's
    /// alone, since the verdict stands for the memo and for any waiters.
    fn attach_cert<A: Clone>(
        &self,
        mut entry: CacheEntry<A>,
        cert: Option<Result<String, CertifyError>>,
        cached: bool,
    ) -> (CacheEntry<A>, Answer<A>) {
        let answer = match cert {
            Some(Err(CertifyError::Interrupted)) => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                Ok((Computed::TimedOut, cached))
            }
            Some(Err(CertifyError::Unavailable(m))) => Err(format!("CERTUNAVAILABLE {m}")),
            Some(Ok(wire)) => {
                entry.cert = Some(wire);
                Ok((Computed::Done(entry.clone()), cached))
            }
            None => Ok((Computed::Done(entry.clone()), cached)),
        };
        (entry, answer)
    }

    /// One direction `l ⊑ r`, scalar or union, through the decision
    /// pipeline: memo lookup → `CERT` re-check of a hit → in-flight
    /// coalescing → kernel and certifier → memoize → publish.
    ///
    /// The kernel runs under the request's interrupt budget and inside a
    /// panic-isolation boundary: an expired budget yields
    /// `Computed::TimedOut` (counted, never cached), a panic yields a
    /// structured error (counted, slot completed) — neither can strand
    /// coalesced waiters or poison shared state.
    ///
    /// With `want_cert`, the verdict must come back proof-carrying: a
    /// memoized certificate is independently re-checked against the live
    /// queries before being served — the trust boundary for entries that
    /// arrived via snapshot or handoff — and a failed re-check ticks
    /// `cert_rejected` and recomputes. A certificate-less hit gets one
    /// built under this request's budget, and a fresh computation
    /// certifies inside the same budget window as the decision itself.
    fn direction<P: Decidable>(
        &self,
        request: &Request,
        deadline: Option<Deadline>,
        key: CacheKey,
        (l, r): (&P, &P),
        mut ex: Option<&mut Explain>,
    ) -> Answer<P::Analysis> {
        let (budget, want_cert) = (&request.budget, request.cert);
        let lane = P::lane(self);
        let cache_span = Span::start();
        if let Some(hit) = lane.memo.get(&key) {
            let poisoned = want_cert
                && hit.cert.as_deref().is_some_and(|wire| !l.recheck(r, &hit.analysis, wire));
            if !poisoned {
                let answer = self.serve(request, deadline, key, (l, r), hit);
                if let Some(ex) = ex {
                    ex.cache_us += cache_span.elapsed_us();
                }
                return answer;
            }
            // A poisoned certificate: recompute as if the entry never
            // existed.
            self.stats.cert_rejected.fetch_add(1, Ordering::Relaxed);
        }
        let slot = {
            let mut inflight = sync::lock(&lane.inflight);
            if let Some(slot) = inflight.get(&key) {
                let slot = Arc::clone(slot);
                drop(inflight);
                let result = self.wait_for_leader(&slot, deadline);
                // Coalesced waits count as cache time: the verdict arrives
                // without this request running a kernel.
                if let Some(ex) = ex {
                    ex.cache_us += cache_span.elapsed_us();
                }
                // The leader may not have been asked for a certificate.
                return match result {
                    Ok((Computed::Done(entry), _)) => {
                        self.serve(request, deadline, key, (l, r), entry)
                    }
                    other => other,
                };
            }
            let slot = Arc::new(InFlightSlot { result: Mutex::new(None), ready: Condvar::new() });
            inflight.insert(key, Arc::clone(&slot));
            slot
        };
        if let Some(ex) = ex.as_deref_mut() {
            ex.cache_us += cache_span.elapsed_us();
        }
        let mut slot_guard = SlotGuard { lane, key, slot: &slot, published: false };

        self.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let steps_before = kernel::snapshot();
        let _ = par::take_engaged();
        let kernel_span = Span::start();
        // Decide and (when asked) certify inside one budget installation,
        // so the step/deadline budget covers the whole proof-carrying
        // answer, and inside one panic boundary.
        let outcome = guarded(budget, deadline, || {
            faults::kernel_entry();
            let analysis = l.decide(r)?;
            let cert = want_cert.then(|| l.certify(r, &analysis));
            Ok::<_, CoreError>((analysis, cert))
        });
        let elapsed = kernel_span.elapsed();
        let engaged = par::take_engaged().max(1);
        // Fold this request's kernel work into the process-wide totals
        // (METRICS) regardless of outcome — timeouts and panics did the
        // steps too — and attribute it to the request when explaining.
        let steps = kernel::snapshot().delta(&steps_before);
        kernel::publish(&steps);
        if let Some(ex) = ex.as_deref_mut() {
            // Round like `Span::elapsed_us` so the phases sum cleanly.
            ex.kernel_us +=
                (elapsed.as_nanos().saturating_add(500) / 1_000).min(u64::MAX as u128) as u64;
            ex.kernel_steps.merge(&steps);
            ex.threads_used = ex.threads_used.max(engaged);
        }
        self.stats.in_flight.fetch_sub(1, Ordering::Relaxed);

        // Memoization + waiter release are cache work too; without this
        // the leader path leaves the insert/publish tail unattributed.
        let memo_span = Span::start();
        let (published, answer) = match outcome {
            Ok(Ok((analysis, cert))) => {
                self.stats.computed.fetch_add(1, Ordering::Relaxed);
                if let Some(slot) = P::latency_slot(&analysis) {
                    self.stats.path_latency[slot].observe_duration(elapsed);
                }
                let (entry, answer) =
                    self.attach_cert(CacheEntry { analysis, cert: None }, cert, false);
                lane.memo.insert(key, entry.clone());
                (Ok(Computed::Done(entry)), answer)
            }
            Ok(Err(CoreError::Interrupted)) => {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                (Ok(Computed::TimedOut), Ok((Computed::TimedOut, false)))
            }
            Ok(Err(e)) => (Err(e.to_string()), Err(e.to_string())),
            Err(payload) => {
                self.stats.panics.fetch_add(1, Ordering::Relaxed);
                let msg = format!(
                    "internal error: {}decision panicked: {}",
                    P::LABEL,
                    panic_message(&*payload)
                );
                (Err(msg.clone()), Err(msg))
            }
        };
        slot_guard.publish(published);
        if let Some(ex) = ex {
            ex.cache_us += memo_span.elapsed_us();
        }
        answer
    }

    /// Blocks on another request's in-flight computation of the same key.
    /// A waiter with its own deadline stops waiting when it expires — a
    /// short-budget request is never held hostage by a long-running leader.
    fn wait_for_leader<A: Clone>(
        &self,
        slot: &InFlightSlot<A>,
        deadline: Option<Deadline>,
    ) -> Answer<A> {
        let mut result = sync::lock(&slot.result);
        loop {
            if let Some(published) = result.as_ref() {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                return published.clone().map(|computed| (computed, true));
            }
            match deadline {
                None => result = sync::wait(&slot.ready, result),
                Some(d) => {
                    let remaining = d.remaining();
                    if remaining.is_zero() {
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        return Ok((Computed::TimedOut, true));
                    }
                    result = sync::wait_timeout(&slot.ready, result, remaining);
                }
            }
        }
    }

    /// Answers one request. The request's budget clock starts here, so the
    /// deadline covers preparation and (for `EQUIV`/`UEQUIV`) both
    /// containment directions; the step budget applies per direction.
    ///
    /// Every direction, scalar or union, takes the same path: memo lookup,
    /// the `co-cert` re-check of a cached certificate under `CERT`,
    /// coalescing onto an identical in-flight computation, the kernel (and
    /// certifier) under the request budget inside a panic boundary, then
    /// memoization and release of any coalesced waiters. `CHECK`/`UCHECK`
    /// run it once, `EQUIV`/`UEQUIV` twice.
    pub fn decide(&self, request: &Request) -> Result<Decision, String> {
        self.decide_inner(request, None)
    }

    /// Answers one request and reports where the time went: the per-phase
    /// breakdown and kernel step counts of the `EXPLAIN` protocol prefix.
    /// The decision itself is identical to [`Engine::decide`] — explaining
    /// still hits the cache, coalesces, and memoizes like any request.
    pub fn decide_explained(&self, request: &Request) -> Result<(Decision, Explain), String> {
        let mut ex = Explain::default();
        let span = Span::start();
        let decision = self.decide_inner(request, Some(&mut ex))?;
        ex.total_us = span.elapsed_us();
        Ok((decision, ex))
    }

    /// Decides `q1 ⊑ q2` and, for the equivalence verbs, `q2 ⊑ q1`, each
    /// through [`Engine::direction`]. `None` means the budget expired.
    /// Certificates are kept only when the request asked for them.
    fn directions<P: Decidable>(
        &self,
        request: &Request,
        deadline: Option<Deadline>,
        schema: Fingerprint,
        (fp1, p1): (Fingerprint, &P),
        (fp2, p2): (Fingerprint, &P),
        mut ex: Option<&mut Explain>,
    ) -> Result<Option<Directions<P::Analysis>>, String> {
        let key = CacheKey { q1: fp1, q2: fp2, schema };
        let (Computed::Done(mut forward), mut cached) =
            self.direction(request, deadline, key, (p1, p2), ex.as_deref_mut())?
        else {
            return Ok(None);
        };
        let mut backward = None;
        if matches!(request.op, Op::Equiv | Op::UEquiv) {
            let key = CacheKey { q1: fp2, q2: fp1, schema };
            let (Computed::Done(entry), c2) =
                self.direction(request, deadline, key, (p2, p1), ex)?
            else {
                return Ok(None);
            };
            backward = Some(entry);
            cached &= c2;
        }
        if !request.cert {
            forward.cert = None;
            if let Some(entry) = &mut backward {
                entry.cert = None;
            }
        }
        Ok(Some(Directions { forward, backward, cached }))
    }

    fn decide_inner(
        &self,
        request: &Request,
        mut ex: Option<&mut Explain>,
    ) -> Result<Decision, String> {
        self.stats.decisions.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let deadline = request.budget.start();
        let timed_out = |fp1, fp2| Ok(Decision::TimedOut { fp1, fp2, elapsed: start.elapsed() });
        let schema_span = Span::start();
        let entry = self.resolve_schema(&request.schema)?;
        if let Some(ex) = ex.as_deref_mut() {
            ex.prepare_us += schema_span.elapsed_us();
        }
        if matches!(request.op, Op::UCheck | Op::UEquiv) {
            let (fp1, u1) = self.analyze_union(&entry, &request.q1, ex.as_deref_mut())?;
            let (fp2, u2) = self.analyze_union(&entry, &request.q2, ex.as_deref_mut())?;
            self.stats.union_decisions.fetch_add(1, Ordering::Relaxed);
            let Some(d) =
                self.directions(request, deadline, entry.fp, (fp1, &*u1), (fp2, &*u2), ex)?
            else {
                return timed_out(fp1, fp2);
            };
            return Ok(match d.backward {
                None => Decision::Union {
                    analysis: d.forward.analysis,
                    cached: d.cached,
                    fp1,
                    fp2,
                    disjuncts: (u1.disjuncts.len(), u2.disjuncts.len()),
                    cert: d.forward.cert,
                },
                Some(backward) => Decision::UnionEquivalence {
                    forward: d.forward.analysis.holds,
                    backward: backward.analysis.holds,
                    cached: d.cached,
                    fp1,
                    fp2,
                    cert_forward: d.forward.cert,
                    cert_backward: backward.cert,
                },
            });
        }
        let (fp1, p1) = self.analyze(&entry, &request.q1, ex.as_deref_mut())?;
        let (fp2, p2) = self.analyze(&entry, &request.q2, ex.as_deref_mut())?;
        let Some(d) = self.directions(request, deadline, entry.fp, (fp1, &*p1), (fp2, &*p2), ex)?
        else {
            return timed_out(fp1, fp2);
        };
        let Some(backward) = d.backward else {
            return Ok(Decision::Containment {
                analysis: d.forward.analysis,
                cached: d.cached,
                fp1,
                fp2,
                cert: d.forward.cert,
            });
        };
        let (fwd, bwd) = (d.forward.analysis, backward.analysis);
        let verdict = if !(fwd.holds && bwd.holds) {
            Equivalence::NotEquivalent
        } else {
            let no_empty =
                p1.empty_status == EmptySetStatus::Free && p2.empty_status == EmptySetStatus::Free;
            let flat = p1.ty.is_flat_relation() && p2.ty.is_flat_relation();
            if no_empty || flat {
                Equivalence::Equivalent
            } else {
                Equivalence::WeaklyEquivalentOnly
            }
        };
        Ok(Decision::Equivalence {
            forward: fwd.holds,
            backward: bwd.holds,
            verdict,
            cached: d.cached,
            fp1,
            fp2,
            cert_forward: d.forward.cert,
            cert_backward: backward.cert,
        })
    }

    /// Memo-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.memo.stats()
    }

    /// Union-memo counters (the `unions.hits` / `unions.entries` figures).
    pub fn union_cache_stats(&self) -> CacheStats {
        self.unions.memo.stats()
    }

    /// Engine counters (decisions, coalescing, in-flight, latency).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of distinct prepared queries currently shared.
    pub fn prepared_count(&self) -> usize {
        self.prepared.stats().entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let e = Engine::new(EngineConfig {
            cache_shards: 4,
            cache_per_shard: 64,
            ..EngineConfig::default()
        });
        e.register_schema("s", Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]));
        e
    }

    fn check(schema: &str, q1: &str, q2: &str) -> Request {
        Request::new(Op::Check, schema, q1, q2)
    }

    #[test]
    fn decisions_match_core_and_cache_by_canonical_form() {
        let e = engine();
        let r = check("s", "select x.B from x in R where x.A = 1", "select x.B from x in R");
        let Decision::Containment { analysis, cached, .. } = e.decide(&r).unwrap() else {
            panic!("expected containment decision");
        };
        assert!(analysis.holds);
        assert!(!cached);
        // α-renamed + reordered variant hits the same cache entry.
        let r2 = check("s", "select y.B from y in R where 1 = y.A", "select z.B from z in R");
        let Decision::Containment { analysis: a2, cached: c2, .. } = e.decide(&r2).unwrap() else {
            panic!("expected containment decision");
        };
        assert!(c2, "canonically-identical request must be a cache hit");
        assert_eq!(analysis, a2);
        assert_eq!(e.cache_stats().hits, 1);
    }

    #[test]
    fn equivalence_combines_directions() {
        let e = engine();
        let req = Request::new(
            Op::Equiv,
            "s",
            "select [a: x.A] from x in R",
            "select [a: y.A] from y in R",
        );
        let Decision::Equivalence { forward, backward, verdict, .. } = e.decide(&req).unwrap()
        else {
            panic!("expected equivalence decision");
        };
        assert!(forward && backward);
        assert_eq!(verdict, Equivalence::Equivalent);
    }

    #[test]
    fn unknown_schema_and_parse_errors_are_reported() {
        let e = engine();
        assert!(e.decide(&check("nope", "{1}", "{1}")).is_err());
        assert!(e.decide(&check("s", "select from", "{1}")).is_err());
        // Ill-typed: comparing a record to an atom.
        assert!(e
            .decide(&check("s", "select x from x in R where x = 1", "select x from x in R"))
            .is_err());
    }

    #[test]
    fn hostile_nesting_is_a_structured_toodeep_error() {
        let e = engine();
        let hostile = "{".repeat(100_000);
        let err = e.decide(&check("s", &hostile, "select x from x in R")).unwrap_err();
        assert!(err.starts_with("TOODEEP"), "{err}");
        let err = e.fingerprint("s", &hostile).unwrap_err();
        assert!(err.starts_with("TOODEEP"), "{err}");
        // A syntax error must not carry the TOODEEP marker.
        let err = e.decide(&check("s", "select from", "{1}")).unwrap_err();
        assert!(!err.starts_with("TOODEEP"), "{err}");
        // The engine still serves ordinary requests afterwards.
        assert!(e.decide(&check("s", "select x.B from x in R", "select x.B from x in R")).is_ok());
    }

    #[test]
    fn explain_reports_phases_and_kernel_steps() {
        let e = engine();
        let r = check("s", "select x.B from x in R where x.A = 1", "select x.B from x in R");
        let (decision, ex) = e.decide_explained(&r).unwrap();
        let Decision::Containment { cached, .. } = decision else {
            panic!("expected containment decision");
        };
        assert!(!cached);
        assert!(ex.total_us >= ex.kernel_us);
        assert!(ex.kernel_steps.total() > 0, "a computed decision runs kernels");
        assert!(ex.threads_used >= 1, "a computed decision engages at least one thread");
        let names: Vec<&str> = ex.phases().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["parse", "canonicalize", "fingerprint", "prepare", "cache", "kernel"]);
        // The same request again is a cache hit: no kernel work attributed.
        let (decision, ex2) = e.decide_explained(&r).unwrap();
        let Decision::Containment { cached, .. } = decision else {
            panic!("expected containment decision");
        };
        assert!(cached);
        assert_eq!(ex2.kernel_steps.total(), 0);
        assert_eq!(ex2.kernel_us, 0);
        // Explained decisions flow into the process-wide kernel totals.
        assert!(kernel::global_totals().total() > 0);
    }

    #[test]
    fn union_requests_memoize_under_the_order_invariant_fingerprint() {
        let e = engine();
        let u1 = "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2";
        let u2 = "select y.B from y in R";
        let r = Request::new(Op::UCheck, "s", u1, u2);
        let Decision::Union { analysis, cached, disjuncts, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(analysis.holds);
        assert_eq!(disjuncts, (2, 1));
        assert!(!cached);
        assert_eq!(analysis.witnesses, vec![0, 0]);
        // Permuted + α-renamed disjuncts share the union fingerprint and
        // hit the memo (the verdict is order-invariant; witness indices
        // refer to the order the entry was computed under).
        let flipped =
            "select z.B from z in R where z.A = 2 or select w.B from w in R where 1 = w.A";
        let r2 = Request::new(Op::UCheck, "s", flipped, u2);
        let Decision::Union { analysis: a2, cached: c2, .. } = e.decide(&r2).unwrap() else {
            panic!("expected union decision");
        };
        assert!(c2, "order-invariant fingerprints must share one memo entry");
        assert_eq!(analysis.holds, a2.holds);
        assert_eq!(e.union_cache_stats().entries, 1);
        assert_eq!(e.union_cache_stats().hits, 1);
        assert_eq!(e.stats().union_decisions.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn union_refutations_name_the_uncovered_disjunct() {
        let e = engine();
        let r = Request::new(
            Op::UCheck,
            "s",
            "select x.B from x in R where x.A = 1 or select x.B from x in R",
            "select y.B from y in R where y.A = 1 or select y.B from y in R where y.A = 2",
        );
        let Decision::Union { analysis, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(!analysis.holds);
        assert_eq!(analysis.refuted, Some(1), "the unrestricted disjunct is uncovered");
    }

    #[test]
    fn singleton_unions_never_collide_with_scalar_cache_keys() {
        let e = engine();
        let q = "select x.B from x in R where x.A = 1";
        let Decision::Containment { cached, .. } =
            e.decide(&check("s", q, "select y.B from y in R")).unwrap()
        else {
            panic!("expected containment decision");
        };
        assert!(!cached);
        // The same pair as a 1-disjunct union computes fresh: the UCQ1 tag
        // keeps union verdicts out of the scalar memo space and vice versa.
        let r = Request::new(Op::UCheck, "s", q, "select y.B from y in R");
        let Decision::Union { analysis, cached, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(analysis.holds);
        assert!(!cached, "union memo must not alias the scalar cache");
    }

    #[test]
    fn uequiv_combines_both_union_directions() {
        let e = engine();
        let u1 = "select x.B from x in R where x.A = 1 or select x.B from x in R";
        let u2 = "select y.B from y in R";
        let r = Request::new(Op::UEquiv, "s", u1, u2);
        let Decision::UnionEquivalence { forward, backward, cached, .. } = e.decide(&r).unwrap()
        else {
            panic!("expected union equivalence decision");
        };
        // `(σ R) ∪ R ≡ R`: each side's disjuncts are covered by the other.
        assert!(forward && backward);
        assert!(!cached);
        // Both directions are now memoized: a repeat is fully cached.
        let Decision::UnionEquivalence { cached, .. } = e.decide(&r).unwrap() else {
            panic!("expected union equivalence decision");
        };
        assert!(cached);
    }

    #[test]
    fn union_cert_requests_attach_checkable_union_certificates() {
        let e = engine();
        let u1 = "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2";
        let u2 = "select y.B from y in R";
        let r = Request::new(Op::UCheck, "s", u1, u2).with_cert(true);
        let Decision::Union { analysis, cert, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(analysis.holds);
        let wire = cert.expect("CERT UCHECK must attach a certificate");
        let parsed = co_cert::UnionCert::parse(&wire).unwrap();
        assert!(parsed.holds);
        assert_eq!(parsed.witnesses.len(), 2);
        // The cached certificate is re-checked server-side and served again.
        let Decision::Union { cached, cert, .. } = e.decide(&r).unwrap() else {
            panic!("expected union decision");
        };
        assert!(cached);
        assert!(cert.is_some());
        assert_eq!(e.stats().cert_rejected.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn union_memo_is_an_lru_bounded_at_its_capacity() {
        let e = engine();
        let hot = Request::new(
            Op::UCheck,
            "s",
            "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
            "select y.B from y in R",
        );
        let Decision::Union { cached, .. } = e.decide(&hot).unwrap() else {
            panic!("expected union decision");
        };
        assert!(!cached);
        let filler = CacheEntry {
            analysis: UnionAnalysis {
                holds: true,
                witnesses: vec![0],
                refuted: None,
                pairs_decided: 1,
            },
            cert: None,
        };
        // Twice the capacity in other unions, with the hot one re-read
        // between inserts: recency keeps it resident past capacity, and
        // the memo never grows beyond its bound.
        for i in 0..2 * UNION_MEMO_ENTRIES as u128 {
            let key = CacheKey { q1: Fingerprint(i), q2: Fingerprint(!i), schema: Fingerprint(7) };
            e.unions.memo.insert(key, filler.clone());
            if i % 512 == 0 {
                let Decision::Union { cached, .. } = e.decide(&hot).unwrap() else {
                    panic!("expected union decision");
                };
                assert!(cached, "a recently read union must survive eviction (insert {i})");
            }
            assert!(e.union_cache_stats().entries <= UNION_MEMO_ENTRIES);
        }
        let stats = e.union_cache_stats();
        assert_eq!(stats.entries, UNION_MEMO_ENTRIES);
        assert_eq!(stats.evictions, UNION_MEMO_ENTRIES as u64 + 1);
        assert_eq!(e.stats().computed.load(Ordering::Relaxed), 1);
    }
}
