//! `coqld`'s line protocol: the request handler behind the shared
//! [`crate::front`] end.
//!
//! One request per line, one reply per line (except `STATS`, which ends
//! with `END`), UTF-8, newline-terminated — usable from `nc`:
//!
//! ```text
//! SCHEMA <name> <decl>          register a schema, e.g. R(A,B); S(C)
//! CHECK <schema> <q1> ;; <q2>   decide q1 ⊑ q2
//! EQUIV <schema> <q1> ;; <q2>   decide equivalence
//! UCHECK <schema> <u1> ;; <u2>  decide union containment u1 ⊑ u2
//! UEQUIV <schema> <u1> ;; <u2>  decide union equivalence
//! AGG <q1> ;; <q2>              aggregate-query containment/equivalence
//! NEST <schema> <s1> ;; <s2>    nest/unnest sequence equivalence
//! FINGERPRINT <schema> <q>      canonical fingerprint of one query
//! STATS                         cache/engine counters + latency quantiles
//! METRICS                       Prometheus text exposition, ends `# EOF`
//! SNAPEXPORT                    hex-dump the cache as a COQLSNP1 snapshot
//! SNAPBEGIN <bytes>             start staging a pushed snapshot
//! SNAPDATA <hex>                append staged snapshot bytes
//! SNAPCOMMIT                    verify + preload the staged snapshot
//! SNAPABORT                     discard the staged snapshot
//! SHUTDOWN                      drain and stop (if --allow-shutdown)
//! QUIT                          close the connection
//! ```
//!
//! The `SNAP*` verbs implement warm shard handoff (a router ships one
//! shard's cache to a joining shard) and are gated behind
//! [`ServerConfig::allow_handoff`]. A pushed snapshot is verified with
//! the same all-or-nothing header/version/CRC gating as a warm start:
//! any mismatch answers `ERR SNAPREJECTED …` and leaves the resident
//! cache untouched — a half-loaded cache can never exist.
//!
//! A *union query* is `expr (or expr)*`: `UCHECK` decides `∪Pⱼ ⊑ ∪Qᵢ`
//! by the Sagiv–Yannakakis reduction (every left disjunct contained in
//! some right disjunct), `UEQUIV` decides both directions. Both compose
//! with `CERT`/`EXPLAIN`/`TIMEOUT`/`BUDGET`; a `CERT` reply carries one
//! `COUNION1 … COUNIONEND` block per direction, embedding one `COCERT1`
//! block per witness (or per-branch counterexample blocks when refuted).
//! `AGG` decides uninterpreted aggregate-query containment (§7): each
//! side is `<datalog body> | <fn>(<var>), …`, e.g.
//! `AGG q(X) :- R(X,Y). | count(Y) ;; q(X) :- R(X,Z). | count(Z)`.
//! `NEST` decides nest/unnest sequence equivalence over a registered
//! flat schema: each side is `<base> [; nest <A>,<B> as <G> | ; unnest <G>]*`.
//!
//! `CHECK`/`EQUIV` accept budget prefixes: `TIMEOUT <ms>` caps the
//! request's wall-clock time and `BUDGET <steps>` caps kernel steps
//! (`0` clears the server default). An expired budget answers
//! `ERR DEADLINE …` without memoizing anything. An `EXPLAIN` prefix
//! (combinable with the budget prefixes) answers the usual verdict line
//! followed by `explain.*` phase timings and kernel step counts,
//! terminated by `END`.
//!
//! A `CERT` prefix (combinable with `EXPLAIN` and the budget prefixes)
//! demands a proof-carrying verdict: the reply is the usual verdict
//! line, any `explain.*` lines, then one `COCERT1 … COCERTEND` block per
//! containment direction (one for `CHECK`, forward then backward for
//! `EQUIV`), terminated by `END`. The certificate is checkable by
//! `co-cert` (or `coqlc cert`) without trusting this server. A cached
//! certificate is re-checked server-side before being served; one that
//! fails re-check is discarded and the verdict recomputed (counted in
//! `persist.cert_rejected`). When a verdict stands but no certificate
//! can be constructed the reply is `ERR CERTUNAVAILABLE …`.
//!
//! Replies start `OK` or `ERR`. Degradation is graceful by design (the
//! connection-level half is [`crate::front`], shared with the router):
//!
//! * connections beyond [`ServerConfig::max_connections`] are shed
//!   immediately with `ERR OVERLOADED` instead of queueing unboundedly;
//! * request lines longer than [`ServerConfig::max_line_bytes`] answer
//!   `ERR TOOLARGE` (the oversized line is discarded, the connection
//!   survives);
//! * a connection that idles — or dribbles bytes without finishing a
//!   line — past [`ServerConfig::read_timeout`] is closed (slow-loris
//!   defense), as is one that won't accept writes within
//!   [`ServerConfig::write_timeout`];
//! * a panic anywhere in a handler is contained: the connection gets
//!   `ERR INTERNAL` (or is closed), counters tick, the server keeps
//!   serving;
//! * [`Shutdown::trigger`] stops the accept loop, lets in-flight
//!   connections finish up to [`ServerConfig::drain_timeout`], then
//!   returns cleanly.

use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use co_cq::{RelSchema, Schema};
use co_object::interrupt;

use co_trace::{kernel, put_header, put_sample, put_summary, Span};

use crate::deadline::RequestBudget;
use crate::engine::{Decision, Engine, Explain, Op, Request};
use crate::fingerprint::FINGERPRINT_VERSION;
use crate::front::{serve_lines, spawn_ticker, Limits, LineService, Reply, Shutdown};
use crate::proto::{parse_prelude, split_head, split_pair, Prelude};
use crate::snapshot::{from_hex, to_hex, FORMAT_VERSION};
use crate::stats::{self, ServerStats};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently-served connections; excess connections are
    /// shed with `ERR OVERLOADED` rather than queued.
    pub max_connections: usize,
    /// Absolute time a client gets to deliver one complete request line;
    /// dribbling bytes does not reset it. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Time a single reply write may block before the connection is
    /// declared dead. `None` waits forever.
    pub write_timeout: Option<Duration>,
    /// Longest accepted request line; longer lines answer `ERR TOOLARGE`.
    pub max_line_bytes: usize,
    /// Default wall-clock budget for `CHECK`/`EQUIV` when the request
    /// carries no `TIMEOUT` prefix. `None` means unlimited.
    pub default_timeout: Option<Duration>,
    /// How long a drain ([`Shutdown::trigger`]) waits for in-flight
    /// connections before returning anyway.
    pub drain_timeout: Duration,
    /// Whether the `SHUTDOWN` verb is honored (off by default: any client
    /// could stop the server).
    pub allow_shutdown: bool,
    /// Whether the `SNAPEXPORT`/`SNAPBEGIN`/`SNAPDATA`/`SNAPCOMMIT`/
    /// `SNAPABORT` warm-handoff verbs are honored (off by default: they
    /// let any client read the cache or push entries into it).
    pub allow_handoff: bool,
    /// Where to persist the memo cache. `None` disables persistence;
    /// with a path set, a background snapshotter publishes the cache
    /// every [`ServerConfig::snapshot_interval`] and once more after the
    /// drain completes, so a restart with the same path warm-starts.
    pub cache_path: Option<PathBuf>,
    /// How often the background snapshotter publishes the cache (only
    /// meaningful with [`ServerConfig::cache_path`] set).
    pub snapshot_interval: Duration,
    /// Requests whose end-to-end handling takes at least this long are
    /// written to stderr as one-line structured records (and counted in
    /// [`ServerStats::slow_requests`]). `None` disables the slow log.
    pub slow_log: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_line_bytes: 64 * 1024,
            default_timeout: None,
            drain_timeout: Duration::from_secs(5),
            allow_shutdown: false,
            allow_handoff: false,
            cache_path: None,
            snapshot_interval: Duration::from_secs(30),
            slow_log: None,
        }
    }
}

/// Everything a connection handler needs, shared across all of them.
struct ServerCtx {
    engine: Arc<Engine>,
    config: ServerConfig,
    stats: ServerStats,
}

/// Runs the accept loop until the listener errors. Equivalent to
/// [`serve_with_shutdown`] with a handle nobody triggers.
pub fn serve(
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
) -> std::io::Result<()> {
    serve_with_shutdown(listener, engine, config, Shutdown::new())
}

/// Runs the accept loop until `shutdown` is triggered (or the listener
/// errors). On shutdown it stops accepting, closes the listener, waits up
/// to [`ServerConfig::drain_timeout`] for in-flight connections, and
/// returns `Ok(())`.
pub fn serve_with_shutdown(
    listener: TcpListener,
    engine: Arc<Engine>,
    config: ServerConfig,
    shutdown: Shutdown,
) -> std::io::Result<()> {
    let limits = Limits {
        max_connections: config.max_connections,
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        max_line_bytes: config.max_line_bytes,
        drain_timeout: config.drain_timeout,
    };
    let ctx = Arc::new(ServerCtx { engine, config, stats: ServerStats::default() });
    // Periodically publish the memo cache. Write failures tick
    // `persist.snapshot_failures` (inside `Engine::snapshot_to`) and
    // leave the previous snapshot current.
    let snapshotter = ctx.config.cache_path.clone().map(|path| {
        let engine = Arc::clone(&ctx.engine);
        spawn_ticker(ctx.config.snapshot_interval, &shutdown, move || {
            let _ = engine.snapshot_to(&path);
        })
    });
    serve_lines(listener, &ctx, limits, &shutdown)?;
    if let Some(handle) = snapshotter {
        let _ = handle.join();
        // Final flush after the drain, so verdicts computed by the last
        // in-flight connections make it into the snapshot.
        if let Some(path) = &ctx.config.cache_path {
            let _ = ctx.engine.snapshot_to(path);
        }
    }
    Ok(())
}

impl LineService for ServerCtx {
    type Conn = ConnState;
    const REPLY_FAULTS: bool = true;

    fn counters(&self) -> &ServerStats {
        &self.stats
    }

    fn handle(self: &Arc<Self>, line: &str, conn: &mut ConnState) -> Reply {
        let request_span = Span::start();
        let reply = handle_line(line, self, conn);
        slow_log(self, line, &reply, request_span.elapsed());
        reply
    }
}

/// Per-connection protocol state: the snapshot-staging buffer used by the
/// `SNAPBEGIN`/`SNAPDATA`/`SNAPCOMMIT` handoff sequence. Dropped with the
/// connection, so an abandoned push can never leak into another client's
/// session.
#[derive(Default)]
struct ConnState {
    staging: Option<Staging>,
}

/// An in-progress snapshot push: `SNAPBEGIN` declared `expected` bytes,
/// `SNAPDATA` lines accumulate into `buf` until `SNAPCOMMIT` verifies.
struct Staging {
    expected: usize,
    buf: Vec<u8>,
}

/// Upper bound on a pushed snapshot (64 MiB ≈ 860k records): large enough
/// for any real cache, small enough that a hostile `SNAPBEGIN` cannot
/// reserve unbounded memory.
const MAX_STAGED_BYTES: usize = 64 * 1024 * 1024;

/// Writes a one-line structured record to stderr for requests that took at
/// least [`ServerConfig::slow_log`] end to end (and counts them). The
/// format is stable space-separated `key=value` pairs, grep-friendly.
fn slow_log(ctx: &ServerCtx, line: &str, reply: &Reply, elapsed: Duration) {
    let Some(threshold) = ctx.config.slow_log else { return };
    if elapsed < threshold {
        return;
    }
    ctx.stats.slow_requests.fetch_add(1, Ordering::Relaxed);
    let cmd = line.split_whitespace().next().unwrap_or("-");
    let status = match reply {
        Reply::Line(text) if text.starts_with("ERR") => "err",
        Reply::Line(_) => "ok",
        Reply::None => "none",
        Reply::Quit => "quit",
        Reply::Shutdown => "shutdown",
    };
    eprintln!(
        "coqld: slow-request elapsed_ms={} cmd={} status={} line_bytes={}",
        elapsed.as_millis(),
        cmd,
        status,
        line.len()
    );
}

fn handle_line(line: &str, ctx: &ServerCtx, conn: &mut ConnState) -> Reply {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Reply::None;
    }
    let Prelude { budget, explain, cert, verb: cmd, rest } =
        match parse_prelude(line, ctx.config.default_timeout) {
            Ok(prelude) => prelude,
            Err(message) => return Reply::Line(format!("ERR {message}")),
        };
    let engine = &ctx.engine;
    let decide = |op| {
        pair_request(op, rest)
            .map(|r| r.with_budget(budget).with_cert(cert))
            .and_then(|r| run(engine, &r, explain))
    };
    let result = match cmd.as_str() {
        "CHECK" => decide(Op::Check),
        "EQUIV" => decide(Op::Equiv),
        "UCHECK" => decide(Op::UCheck),
        "UEQUIV" => decide(Op::UEquiv),
        "AGG" => handle_agg(rest, &budget),
        "NEST" => handle_nest(rest, engine, &budget),
        "FINGERPRINT" => split_head(rest, "FINGERPRINT <schema> <query>")
            .and_then(|(schema, query)| engine.fingerprint(schema, query))
            .map(|fp| format!("OK fp={fp}")),
        "SCHEMA" => split_head(rest, "SCHEMA <name> <decl>").and_then(|(name, decl)| {
            parse_schema_decl(decl).map(|schema| {
                let relations = schema.len();
                let fp = engine.register_schema(name, schema);
                format!("OK schema={name} fp={fp} relations={relations}")
            })
        }),
        "STATS" => Ok(render_stats(ctx)),
        "METRICS" => Ok(render_metrics(ctx)),
        "SNAPEXPORT" | "SNAPBEGIN" | "SNAPDATA" | "SNAPCOMMIT" | "SNAPABORT" => {
            if ctx.config.allow_handoff {
                handle_snap(&cmd, rest, ctx, conn)
            } else {
                Err(format!("{cmd} is disabled (start coqld with --allow-handoff)"))
            }
        }
        "SHUTDOWN" => {
            if ctx.config.allow_shutdown {
                return Reply::Shutdown;
            }
            Err("SHUTDOWN is disabled (start coqld with --allow-shutdown)".to_string())
        }
        "QUIT" | "EXIT" => return Reply::Quit,
        other => Err(format!(
            "unknown command `{other}` \
             (try CHECK, EQUIV, UCHECK, UEQUIV, AGG, NEST, FINGERPRINT, SCHEMA, STATS, METRICS, \
             SNAPEXPORT, SHUTDOWN, QUIT)"
        )),
    };
    match result {
        Ok(text) => Reply::Line(text),
        // Keep the reply line-oriented whatever the error contains.
        Err(message) => Reply::Line(format!("ERR {}", message.replace('\n', " "))),
    }
}

/// The `SNAP*` warm-handoff verbs (already gated on
/// [`ServerConfig::allow_handoff`] by the caller).
///
/// * `SNAPEXPORT` — serialize the cache and answer
///   `OK bytes=<n> entries=<k> format=<v> fpver=<v>`, the payload as hex
///   lines, then `END`;
/// * `SNAPBEGIN <bytes>` — start staging a pushed snapshot of exactly
///   that many bytes (capped at [`MAX_STAGED_BYTES`]);
/// * `SNAPDATA <hex>` — append staged bytes;
/// * `SNAPCOMMIT` — verify the staged payload (length, header, versions,
///   CRCs — all-or-nothing) and preload it; any mismatch answers
///   `ERR SNAPREJECTED …`, ticks the quarantine counter, and leaves the
///   cache untouched;
/// * `SNAPABORT` — discard the staged payload.
fn handle_snap(
    cmd: &str,
    rest: &str,
    ctx: &ServerCtx,
    conn: &mut ConnState,
) -> Result<String, String> {
    match cmd {
        "SNAPEXPORT" => {
            let (bytes, entries) = ctx.engine.export_snapshot_bytes();
            let mut out = format!(
                "OK bytes={} entries={entries} format={FORMAT_VERSION} fpver={FINGERPRINT_VERSION}",
                bytes.len()
            );
            // 4096 hex chars (2 KiB of payload) per line keeps every line
            // far under any sane client line cap.
            let hex = to_hex(&bytes);
            for chunk in hex.as_bytes().chunks(4096) {
                out.push('\n');
                // Chunks of an ASCII string are valid UTF-8.
                out.push_str(std::str::from_utf8(chunk).expect("hex is ASCII"));
            }
            out.push_str("\nEND");
            Ok(out)
        }
        "SNAPBEGIN" => {
            let expected: usize =
                rest.parse().map_err(|_| format!("usage: SNAPBEGIN <bytes> (got `{rest}`)"))?;
            if expected > MAX_STAGED_BYTES {
                return Err(format!(
                    "SNAPREJECTED declared size {expected} exceeds the {MAX_STAGED_BYTES}-byte cap"
                ));
            }
            conn.staging = Some(Staging { expected, buf: Vec::new() });
            Ok(format!("OK staging={expected}"))
        }
        "SNAPDATA" => {
            if conn.staging.is_none() {
                return Err("SNAPDATA without SNAPBEGIN (nothing staged)".to_string());
            }
            let bytes = match from_hex(rest.trim()) {
                Ok(bytes) => bytes,
                Err(e) => {
                    conn.staging = None;
                    return Err(format!("SNAPREJECTED bad hex payload: {e}"));
                }
            };
            let staging = conn.staging.as_mut().expect("checked above");
            if staging.buf.len() + bytes.len() > staging.expected {
                conn.staging = None;
                return Err("SNAPREJECTED more data than SNAPBEGIN declared".to_string());
            }
            staging.buf.extend_from_slice(&bytes);
            Ok(format!("OK received={} expected={}", staging.buf.len(), staging.expected))
        }
        "SNAPCOMMIT" => {
            let staging =
                conn.staging.take().ok_or("SNAPCOMMIT without SNAPBEGIN (nothing staged)")?;
            if staging.buf.len() != staging.expected {
                return Err(format!(
                    "SNAPREJECTED staged {} bytes but SNAPBEGIN declared {}",
                    staging.buf.len(),
                    staging.expected
                ));
            }
            match ctx.engine.import_snapshot_bytes(&staging.buf) {
                Ok((kept, total)) => Ok(format!("OK imported={kept} entries={total}")),
                Err(reason) => Err(format!("SNAPREJECTED {reason}")),
            }
        }
        "SNAPABORT" => {
            conn.staging = None;
            Ok("OK aborted".to_string())
        }
        _ => unreachable!("caller dispatches only SNAP verbs"),
    }
}

fn pair_request(op: Op, rest: &str) -> Result<Request, String> {
    let usage = match op {
        Op::Check => "CHECK <schema> <q1> ;; <q2>",
        Op::Equiv => "EQUIV <schema> <q1> ;; <q2>",
        Op::UCheck => "UCHECK <schema> <q1> [or <q>]* ;; <q2> [or <q>]*",
        Op::UEquiv => "UEQUIV <schema> <q1> [or <q>]* ;; <q2> [or <q>]*",
    };
    let (schema, q1, q2) = split_pair(rest, usage)?;
    Ok(Request::new(op, schema, q1, q2))
}

fn run(engine: &Engine, request: &Request, explain: bool) -> Result<String, String> {
    if !explain && !request.cert {
        return render_decision(&engine.decide(request)?);
    }
    let (decision, ex) = if explain {
        engine.decide_explained(request)?
    } else {
        (engine.decide(request)?, Explain::default())
    };
    // A timed-out decision renders as a single ERR line even under
    // EXPLAIN/CERT; phase attribution of an abandoned request would
    // mislead, and there is no verdict to certify.
    let verdict = render_decision(&decision)?;
    let mut out = String::new();
    out.push_str(&verdict);
    out.push('\n');
    if explain {
        render_explain(&mut out, &ex);
    }
    if request.cert {
        for wire in decision_certs(&decision)? {
            // `to_wire` ends with "COCERTEND\n"; the block is
            // self-delimiting, so emit it verbatim minus the final newline
            // (the joiner below restores line structure).
            out.push_str(wire.trim_end());
            out.push('\n');
        }
    }
    out.push_str("END");
    Ok(out)
}

/// Appends the `EXPLAIN` body: `explain.*` phase timings and kernel step
/// counts (the caller emits the verdict line and the `END` terminator).
fn render_explain(out: &mut String, ex: &Explain) {
    for (name, us) in ex.phases() {
        out.push_str(&format!("explain.{name}_us {us}\n"));
    }
    out.push_str(&format!("explain.total_us {}\n", ex.total_us));
    for (name, value) in ex.kernel_steps.iter() {
        out.push_str(&format!("explain.kernel.{name} {value}\n"));
    }
    out.push_str(&format!("explain.kernel.threads_used {}\n", ex.threads_used));
}

/// The certificate blocks a `CERT` reply carries: one for `CHECK`,
/// forward then backward for `EQUIV`. The engine attaches certificates to
/// every non-timed-out decision of a `cert` request, so a missing one here
/// is a bug — surfaced as `CERTUNAVAILABLE` rather than a bare verdict the
/// client would mistake for a certified one.
fn decision_certs(decision: &Decision) -> Result<Vec<&str>, String> {
    let missing = || "CERTUNAVAILABLE verdict carried no certificate (server bug)".to_string();
    match decision {
        Decision::Containment { cert, .. } => Ok(vec![cert.as_deref().ok_or_else(missing)?]),
        Decision::Equivalence { cert_forward, cert_backward, .. } => Ok(vec![
            cert_forward.as_deref().ok_or_else(missing)?,
            cert_backward.as_deref().ok_or_else(missing)?,
        ]),
        Decision::Union { cert, .. } => Ok(vec![cert.as_deref().ok_or_else(missing)?]),
        Decision::UnionEquivalence { cert_forward, cert_backward, .. } => Ok(vec![
            cert_forward.as_deref().ok_or_else(missing)?,
            cert_backward.as_deref().ok_or_else(missing)?,
        ]),
        Decision::TimedOut { .. } => Err(missing()),
    }
}

fn render_decision(decision: &Decision) -> Result<String, String> {
    match decision {
        Decision::Containment { analysis, cached, fp1, fp2, .. } => Ok(format!(
            "OK holds={} path={} cached={} fp1={fp1} fp2={fp2}",
            analysis.holds, analysis.path, cached
        )),
        Decision::Equivalence { forward, backward, verdict, cached, fp1, fp2, .. } => {
            let verdict = match verdict {
                co_core::Equivalence::Equivalent => "equivalent",
                co_core::Equivalence::NotEquivalent => "not-equivalent",
                co_core::Equivalence::WeaklyEquivalentOnly => "weakly-equivalent",
            };
            Ok(format!(
                "OK verdict={verdict} forward={forward} backward={backward} \
                 cached={cached} fp1={fp1} fp2={fp2}"
            ))
        }
        Decision::Union { analysis, cached, fp1, fp2, disjuncts, .. } => {
            let (left, right) = disjuncts;
            let detail = if analysis.holds {
                let witnesses: Vec<String> =
                    analysis.witnesses.iter().map(|w| w.to_string()).collect();
                format!("witnesses={}", witnesses.join(","))
            } else {
                format!("refuted={}", analysis.refuted.map(i64::from).unwrap_or(-1))
            };
            Ok(format!(
                "OK holds={} {detail} left={left} right={right} pairs={} \
                 cached={cached} fp1={fp1} fp2={fp2}",
                analysis.holds, analysis.pairs_decided
            ))
        }
        Decision::UnionEquivalence { forward, backward, cached, fp1, fp2, .. } => Ok(format!(
            "OK equivalent={} forward={forward} backward={backward} \
             cached={cached} fp1={fp1} fp2={fp2}",
            *forward && *backward
        )),
        Decision::TimedOut { fp1, fp2, elapsed } => Err(format!(
            "DEADLINE exceeded after {}ms fp1={fp1} fp2={fp2} \
             (verdict not cached; retry with a larger TIMEOUT/BUDGET)",
            elapsed.as_millis()
        )),
    }
}

/// Cap on aggregate-query body atoms and nest/unnest sequence steps: a
/// request past it answers `ERR TOODEEP` instead of occupying a worker
/// (the same role the parse depth cap plays for `CHECK`).
const MAX_STRUCTURE_STEPS: usize = 64;

/// Parses one `AGG` side: `<datalog body> | <fn>(<var>)[, <fn>(<var>)]*`
/// (the `| aggs` part optional — a bare body is a pure group-by query).
fn parse_agg_side(text: &str) -> Result<co_agg::AggQuery, String> {
    let (body, aggs_text) = match text.split_once('|') {
        Some((body, aggs)) => (body.trim(), aggs.trim()),
        None => (text.trim(), ""),
    };
    let mut aggs: Vec<(&str, &str)> = Vec::new();
    for part in aggs_text.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let open = part.find('(').ok_or_else(|| format!("bad aggregate `{part}`"))?;
        let close = part.rfind(')').ok_or_else(|| format!("bad aggregate `{part}`"))?;
        if close <= open {
            return Err(format!("bad aggregate `{part}`"));
        }
        aggs.push((part[..open].trim(), part[open + 1..close].trim()));
    }
    let q = co_agg::AggQuery::parse(body, &aggs).map_err(|e| e.to_string())?;
    if q.body.len() > MAX_STRUCTURE_STEPS {
        return Err(format!(
            "TOODEEP aggregate body has {} atoms (cap {MAX_STRUCTURE_STEPS})",
            q.body.len()
        ));
    }
    Ok(q)
}

/// The `AGG` verb: uninterpreted aggregate-query containment, both
/// directions (§7's reduction through `co-agg`). Runs under the request
/// budget; an expired budget answers `ERR DEADLINE` instead of a verdict
/// the interrupted search could have corrupted.
fn handle_agg(rest: &str, budget: &RequestBudget) -> Result<String, String> {
    let usage = "AGG <body> [| <fn>(<var>), ...] ;; <body> [| <fn>(<var>), ...]";
    let deadline = budget.start();
    let (left, right) = rest.split_once(";;").ok_or_else(|| format!("usage: {usage}"))?;
    if left.trim().is_empty() || right.trim().is_empty() {
        return Err(format!("usage: {usage}"));
    }
    let q1 = parse_agg_side(left)?;
    let q2 = parse_agg_side(right)?;
    let outcome = {
        let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
        catch_unwind(AssertUnwindSafe(|| {
            let forward = co_agg::agg_contained_in(&q1, &q2);
            let backward = co_agg::agg_contained_in(&q2, &q1);
            // An expired budget is sticky: this probe fails iff the
            // searches above were cut short, making the verdict unsound.
            let expired = interrupt::probe().is_err();
            (forward, backward, expired)
        }))
    };
    match outcome {
        Ok((_, _, true)) => Err("DEADLINE exceeded inside the aggregate decision \
             (retry with a larger TIMEOUT/BUDGET)"
            .to_string()),
        Ok((forward, backward, false)) => Ok(format!(
            "OK forward={forward} backward={backward} equivalent={}",
            forward && backward
        )),
        Err(_) => Err("INTERNAL aggregate decision panicked".to_string()),
    }
}

/// Parses one `NEST` side: `<base> [; nest <A>[,<B>]* as <G> | ; unnest <G>]*`.
fn parse_nest_side(text: &str) -> Result<co_algebra::nestseq::NuSeq, String> {
    let mut parts = text.split(';').map(str::trim);
    let base = parts.next().unwrap_or("");
    if base.is_empty() || base.contains(char::is_whitespace) {
        return Err(format!("bad nest/unnest base `{base}` (one relation name)"));
    }
    let mut ops = Vec::new();
    for step in parts {
        if step.is_empty() {
            return Err("empty nest/unnest step".to_string());
        }
        let (kind, spec) = step.split_once(char::is_whitespace).unwrap_or((step, ""));
        match kind.to_ascii_lowercase().as_str() {
            "nest" => {
                let (attrs, field) = spec
                    .rsplit_once(" as ")
                    .map(|(a, f)| (a.trim(), f.trim()))
                    .ok_or_else(|| format!("bad step `{step}` (nest <A>[,<B>]* as <G>)"))?;
                let attrs: Vec<&str> =
                    attrs.split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
                if attrs.is_empty() || field.is_empty() {
                    return Err(format!("bad step `{step}` (nest <A>[,<B>]* as <G>)"));
                }
                ops.push(co_algebra::nestseq::NuOp::nest(&attrs, field));
            }
            "unnest" => {
                let field = spec.trim();
                if field.is_empty() || field.contains(char::is_whitespace) {
                    return Err(format!("bad step `{step}` (unnest <G>)"));
                }
                ops.push(co_algebra::nestseq::NuOp::unnest(field));
            }
            other => return Err(format!("bad step `{other}` (nest … | unnest …)")),
        }
    }
    if ops.len() > MAX_STRUCTURE_STEPS {
        return Err(format!(
            "TOODEEP sequence has {} steps (cap {MAX_STRUCTURE_STEPS})",
            ops.len()
        ));
    }
    Ok(co_algebra::nestseq::NuSeq::new(base, ops))
}

/// The `NEST` verb: equivalence of two nest/unnest sequences over a
/// registered flat schema, decided through `co-algebra::nestseq` (§6).
fn handle_nest(rest: &str, engine: &Engine, budget: &RequestBudget) -> Result<String, String> {
    let usage = "NEST <schema> <base> [; nest <A>,… as <G> | ; unnest <G>]* ;; <base> …";
    let deadline = budget.start();
    let (schema_name, seqs) = split_head(rest, usage)?;
    let schema = engine.flat_schema(schema_name)?;
    let (left, right) = seqs.split_once(";;").ok_or_else(|| format!("usage: {usage}"))?;
    let s1 = parse_nest_side(left.trim())?;
    let s2 = parse_nest_side(right.trim())?;
    let outcome = {
        let _budget_guard = interrupt::install(budget.kernel_budget(deadline));
        catch_unwind(AssertUnwindSafe(|| {
            let verdict = co_algebra::nestseq::equivalent_sequences(&s1, &s2, &schema);
            let expired = interrupt::probe().is_err();
            (verdict, expired)
        }))
    };
    match outcome {
        Ok((_, true)) => Err("DEADLINE exceeded inside the sequence decision \
             (retry with a larger TIMEOUT/BUDGET)"
            .to_string()),
        Ok((verdict, false)) => {
            let equivalent = verdict.map_err(|e| e.to_string())?;
            Ok(format!("OK equivalent={equivalent} ops1={} ops2={}", s1.ops.len(), s2.ops.len()))
        }
        Err(_) => Err("INTERNAL sequence decision panicked".to_string()),
    }
}

/// The `STATS` payload: `<key> <value>` lines terminated by `END`.
fn render_stats(ctx: &ServerCtx) -> String {
    co_trace::render_stats(&stats::table(&ctx.engine, &ctx.stats))
}

/// The `METRICS` payload: Prometheus text exposition of the same table
/// plus the labeled families — build info, per-path latency summaries,
/// and the process-wide kernel step totals — terminated by `# EOF`
/// (which doubles as the line-protocol end marker).
fn render_metrics(ctx: &ServerCtx) -> String {
    let out = &mut String::new();
    co_trace::render_families(out, &stats::table(&ctx.engine, &ctx.stats));
    let name = "coqld_build_info";
    put_header(out, name, "Snapshot/fingerprint format versions of this build", "gauge");
    let labels = format!(
        "format_version=\"{FORMAT_VERSION}\",fingerprint_version=\"{FINGERPRINT_VERSION}\""
    );
    put_sample(out, &format!("{name}{{{labels}}}"), 1);
    let name = "coqld_path_latency_us";
    put_header(out, name, "Latency of computed decisions by decision path", "summary");
    for (i, hist) in ctx.engine.stats().path_latency.iter().enumerate() {
        put_summary(out, name, &format!("path=\"{}\"", stats::path_label(i)), hist);
    }
    for (step, value) in kernel::global_totals().iter() {
        let name = format!("coqld_kernel_{step}_total");
        put_header(out, &name, "Kernel steps across all requests", "counter");
        put_sample(out, &name, value);
    }
    out.push_str("# EOF");
    std::mem::take(out)
}

/// Parses a one-line (or multi-line) schema declaration: relation schemas
/// `R(A, B)` separated by `;` or newlines, `#` comments allowed.
pub fn parse_schema_decl(text: &str) -> Result<Schema, String> {
    let mut schema = Schema::new();
    for part in text.split(['\n', ';']) {
        let part = part.split('#').next().unwrap_or("").trim();
        if part.is_empty() {
            continue;
        }
        let open = part.find('(').ok_or_else(|| format!("bad relation decl `{part}`"))?;
        let close = part.rfind(')').ok_or_else(|| format!("bad relation decl `{part}`"))?;
        if close < open {
            return Err(format!("bad relation decl `{part}`"));
        }
        let name = part[..open].trim();
        let attrs: Vec<&str> =
            part[open + 1..close].split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
        if name.is_empty() || attrs.is_empty() {
            return Err(format!("bad relation decl `{part}`"));
        }
        let mut seen = attrs.clone();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != attrs.len() {
            return Err(format!("duplicate attribute in relation `{name}`"));
        }
        schema.add(RelSchema::new(name, &attrs));
    }
    if schema.is_empty() {
        return Err("schema declares no relations".to_string());
    }
    Ok(schema)
}

/// Renders a schema as a one-line `R(A, B); S(C)` declaration, the
/// inverse of [`parse_schema_decl`] — the form a `SCHEMA` request line
/// carries however the schema was first written down.
pub fn render_schema_decl(schema: &Schema) -> String {
    let relations: Vec<String> = schema
        .iter()
        .map(|rel| {
            let attrs: Vec<String> = rel.attrs.iter().map(ToString::to_string).collect();
            format!("{}({})", rel.name, attrs.join(", "))
        })
        .collect();
    relations.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn ctx() -> ServerCtx {
        let engine = Engine::new(EngineConfig {
            cache_shards: 2,
            cache_per_shard: 32,
            ..EngineConfig::default()
        });
        ServerCtx {
            engine: Arc::new(engine),
            config: ServerConfig::default(),
            stats: ServerStats::default(),
        }
    }

    fn line(ctx: &ServerCtx, input: &str) -> String {
        match handle_line(input, ctx, &mut ConnState::default()) {
            Reply::Line(text) => text,
            Reply::Quit => "QUIT".to_string(),
            Reply::Shutdown => "SHUTDOWN".to_string(),
            Reply::None => String::new(),
        }
    }

    #[test]
    fn protocol_round_trip() {
        let c = ctx();
        let reply = line(&c, "SCHEMA s R(A,B); S(C)");
        assert!(reply.starts_with("OK schema=s fp="), "{reply}");
        let reply =
            line(&c, "CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R");
        assert!(reply.contains("holds=true"), "{reply}");
        assert!(reply.contains("path=flat/classical"), "{reply}");
        let reply = line(&c, "EQUIV s select [a: x.A] from x in R ;; select [a: y.A] from y in R");
        assert!(reply.contains("verdict=equivalent"), "{reply}");
        let reply = line(&c, "FINGERPRINT s select x.B from x in R");
        assert!(reply.starts_with("OK fp="), "{reply}");
        let stats = line(&c, "STATS");
        assert!(stats.contains("decisions 2"), "{stats}");
        // The EQUIV pair is α-equivalent, so its two directions share one
        // cache key: the backward check hits the forward check's entry.
        assert!(stats.contains("cache.hits 1"), "{stats}");
        assert!(stats.contains("timeouts 0"), "{stats}");
        assert!(stats.contains("server.accepted 0"), "{stats}");
        assert!(stats.ends_with("END"), "{stats}");
    }

    #[test]
    fn errors_are_single_lines() {
        let c = ctx();
        for bad in [
            "CHECK",
            "CHECK s onlyonequery",
            "CHECK missing select x from x in R ;; select x from x in R",
            "SCHEMA s",
            "SCHEMA s R(A, A)",
            "BOGUS things",
            "TIMEOUT notanumber CHECK s {1} ;; {1}",
            "TIMEOUT 50",
        ] {
            let reply = line(&c, bad);
            assert!(reply.starts_with("ERR "), "`{bad}` → {reply}");
            assert!(!reply.contains('\n'), "`{bad}` reply must be one line");
        }
        assert!(matches!(handle_line("QUIT", &c, &mut ConnState::default()), Reply::Quit));
        assert!(matches!(handle_line("  # comment", &c, &mut ConnState::default()), Reply::None));
    }

    #[test]
    fn step_budget_expiry_is_never_memoized() {
        // A 1-step budget trips before any verdict: ERR DEADLINE, and the
        // non-verdict is not memoized (the retry computes the real one).
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        let q = "BUDGET 1 CHECK s select x.B from x in R ;; select x.B from x in R";
        let reply = line(&c, q);
        assert!(reply.starts_with("ERR DEADLINE"), "{reply}");
        let reply = line(&c, "CHECK s select x.B from x in R ;; select x.B from x in R");
        assert!(reply.contains("holds=true"), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
    }

    #[test]
    fn explain_prefix_reports_phases() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        let reply = line(
            &c,
            "EXPLAIN CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R",
        );
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(reply.ends_with("END"), "{reply}");
        for phase in ["parse", "canonicalize", "fingerprint", "prepare", "cache", "kernel", "total"]
        {
            assert!(reply.contains(&format!("explain.{phase}_us ")), "missing {phase}: {reply}");
        }
        assert!(reply.contains("explain.kernel.hom_probes "), "{reply}");
        assert!(reply.contains("explain.kernel.threads_used "), "{reply}");
        // EXPLAIN is meaningless for non-decision verbs.
        let reply = line(&c, "EXPLAIN STATS");
        assert!(reply.starts_with("ERR EXPLAIN"), "{reply}");
    }

    #[test]
    fn cert_prefix_attaches_checkable_certificates() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B); S(C)");
        let q = "CERT CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R";
        let reply = line(&c, q);
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(reply.ends_with("\nEND"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        let cert = co_cert::Cert::parse(body).unwrap();
        assert!(cert.holds);
        // A refuted verdict carries a counterexample certificate.
        let reply = line(&c, "CERT CHECK s select x.B from x in R ;; select y.C from y in S");
        assert!(reply.starts_with("OK holds=false"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        let cert = co_cert::Cert::parse(body).unwrap();
        assert!(!cert.holds);
        // EQUIV emits the forward block, then the backward block.
        let reply =
            line(&c, "CERT EQUIV s select [a: x.A] from x in R ;; select [a: y.A] from y in R");
        assert!(reply.contains("verdict=equivalent"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        let (fwd, rest) = co_cert::Cert::parse_prefix(body).unwrap();
        let (bwd, rest) = co_cert::Cert::parse_prefix(rest).unwrap();
        assert!(rest.trim().is_empty(), "{rest}");
        assert!(fwd.holds && bwd.holds);
        // A repeat CHECK hits the cache; the cached certificate passes the
        // server-side re-check and is served again.
        let reply = line(&c, q);
        assert!(reply.contains("cached=true"), "{reply}");
        assert!(reply.contains("COCERT1"), "{reply}");
        let stats = line(&c, "STATS");
        assert!(stats.contains("persist.cert_rejected 0"), "{stats}");
        // CERT composes with EXPLAIN: explain.* lines, then the block.
        let reply = line(&c, format!("EXPLAIN {q}").as_str());
        assert!(reply.contains("explain.total_us "), "{reply}");
        assert!(reply.contains("COCERT1"), "{reply}");
        assert!(reply.ends_with("\nEND"), "{reply}");
        // CERT is meaningless for non-decision verbs.
        let reply = line(&c, "CERT STATS");
        assert!(reply.starts_with("ERR CERT applies only"), "{reply}");
    }

    #[test]
    fn poisoned_import_certificate_is_dropped_and_recomputed() {
        let mut open = ctx();
        open.config.allow_handoff = true;
        line(&open, "SCHEMA s R(A,B)");
        let q = "CERT CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R";
        assert!(line(&open, q).starts_with("OK holds=true"));
        // Forge a snapshot whose cached verdict contradicts the
        // certificate it carries (as a buggy or hostile writer would).
        let (bytes, entries) = open.engine.export_snapshot_bytes();
        assert_eq!(entries, 1);
        let mut entries = crate::snapshot::decode_snapshot(&bytes).unwrap();
        assert!(entries[0].1.cert.is_some(), "CERT CHECK must cache its certificate");
        entries[0].1.analysis.holds = !entries[0].1.analysis.holds;
        let forged = crate::snapshot::encode_snapshot(&entries);
        // Push it into a fresh shard: the CRC-valid payload is accepted,
        // but the screening drops the contradictory entry whole.
        let mut fresh = ctx();
        fresh.config.allow_handoff = true;
        line(&fresh, "SCHEMA s R(A,B)");
        let mut conn = ConnState::default();
        handle_line(&format!("SNAPBEGIN {}", forged.len()), &fresh, &mut conn);
        handle_line(&format!("SNAPDATA {}", to_hex(&forged)), &fresh, &mut conn);
        let Reply::Line(commit) = handle_line("SNAPCOMMIT", &fresh, &mut conn) else {
            panic!("expected line")
        };
        assert_eq!(commit, "OK imported=0 entries=1", "{commit}");
        let stats = line(&fresh, "STATS");
        assert!(stats.contains("persist.cert_rejected 1"), "{stats}");
        // The poisoned verdict was never cached: the next CERT request
        // recomputes and serves a certificate that checks out.
        let reply = line(&fresh, q);
        assert!(reply.starts_with("OK holds=true"), "{reply}");
        assert!(reply.contains("cached=false"), "{reply}");
        let body = reply.split_once('\n').unwrap().1.strip_suffix("END").unwrap();
        assert!(co_cert::Cert::parse(body).unwrap().holds);
    }

    #[test]
    fn metrics_exposition_covers_stats_and_parses() {
        let c = ctx();
        line(&c, "SCHEMA s R(A,B)");
        line(&c, "CHECK s select x.B from x in R where x.A = 1 ;; select x.B from x in R");
        let text = line(&c, "METRICS");
        assert!(text.ends_with("# EOF"), "{text}");
        for family in [
            "coqld_decisions_total",
            "coqld_computed_total",
            "coqld_inflight",
            "coqld_cache_hits_total",
            "coqld_persist_snapshots_written_total",
            "coqld_path_latency_us",
            "coqld_kernel_hom_probes_total",
            "coqld_server_slow_requests_total",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "missing {family}");
        }
        // Every sample line has a valid name and a numeric value.
        for l in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let (series, value) = l.rsplit_once(' ').expect("name value");
            let name = series.split('{').next().unwrap();
            assert!(co_trace::is_valid_metric_name(name), "{l}");
            assert!(value.parse::<f64>().is_ok(), "{l}");
        }
    }

    #[test]
    fn shutdown_verb_is_gated() {
        let c = ctx();
        let reply = line(&c, "SHUTDOWN");
        assert!(reply.starts_with("ERR "), "{reply}");
        let mut open = ctx();
        open.config.allow_shutdown = true;
        assert!(matches!(
            handle_line("SHUTDOWN", &open, &mut ConnState::default()),
            Reply::Shutdown
        ));
    }

    #[test]
    fn snap_verbs_are_gated_and_stage_per_connection() {
        let c = ctx();
        for verb in ["SNAPEXPORT", "SNAPBEGIN 10", "SNAPDATA 00", "SNAPCOMMIT", "SNAPABORT"] {
            let reply = line(&c, verb);
            assert!(reply.contains("--allow-handoff"), "`{verb}` → {reply}");
        }
        let mut open = ctx();
        open.config.allow_handoff = true;
        line(&open, "SCHEMA s R(A,B)");
        line(&open, "CHECK s select x.B from x in R ;; select x.B from x in R");
        // Export, then push the same payload back through one connection's
        // staged SNAPBEGIN/SNAPDATA/SNAPCOMMIT sequence.
        let export = line(&open, "SNAPEXPORT");
        assert!(export.starts_with("OK bytes="), "{export}");
        assert!(export.ends_with("END"), "{export}");
        let mut lines = export.lines();
        let head = lines.next().unwrap();
        let declared: usize = head
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("bytes="))
            .unwrap()
            .parse()
            .unwrap();
        let hex: String = lines.take_while(|l| *l != "END").collect();
        assert_eq!(hex.len(), declared * 2);
        let mut conn = ConnState::default();
        let begin = handle_line(&format!("SNAPBEGIN {declared}"), &open, &mut conn);
        assert!(matches!(begin, Reply::Line(ref t) if t.starts_with("OK staging=")));
        let data = handle_line(&format!("SNAPDATA {hex}"), &open, &mut conn);
        assert!(matches!(data, Reply::Line(ref t) if t.starts_with("OK received=")));
        let commit = handle_line("SNAPCOMMIT", &open, &mut conn);
        let Reply::Line(commit) = commit else { panic!("expected line") };
        assert!(commit.starts_with("OK imported="), "{commit}");
        // Committing without staging is an error; a fresh connection
        // shares nothing with the one that staged.
        let commit = line(&open, "SNAPCOMMIT");
        assert!(commit.starts_with("ERR "), "{commit}");
    }

    #[test]
    fn schema_decl_variants() {
        assert_eq!(parse_schema_decl("R(A,B); S(C)").unwrap().len(), 2);
        assert_eq!(parse_schema_decl("R(A, B)\nS(C)  # trailing\n").unwrap().len(), 2);
        assert!(parse_schema_decl("").is_err());
        assert!(parse_schema_decl("R").is_err());
        assert!(parse_schema_decl("R()").is_err());
    }

    #[test]
    fn rendered_schema_decls_are_one_line_and_round_trip() {
        let schema = parse_schema_decl("# app\nR(A, B)\nS(C)  # trailing\n").unwrap();
        let line = render_schema_decl(&schema);
        assert_eq!(line, "R(A, B); S(C)");
        assert_eq!(parse_schema_decl(&line).unwrap(), schema);
    }
}
