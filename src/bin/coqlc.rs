//! `coqlc` — the COQL containment checker, as a command-line tool.
//!
//! ```text
//! coqlc check       <schema> <query1> <query2>   # containment + equivalence
//! coqlc cert        <schema> <query1> <query2>   # certified verdict (co-cert)
//! coqlc explain     <schema> <query1> <query2>   # containment + phase timings
//! coqlc eval        <schema> <query> <database>  # run a query
//! coqlc refute      <schema> <query1> <query2>   # search a counterexample DB
//! coqlc encode      <schema> <database>          # §5.1 index encoding, printed
//! coqlc fingerprint <schema> <query>             # canonical cache fingerprint
//! ```
//!
//! For long-lived, duplicate-heavy workloads use the `coqld` server
//! instead: it answers the same questions over TCP and memoizes verdicts
//! by canonical fingerprint.
//!
//! File formats (all plain text, `#` comments):
//! * **schema** — one relation per line: `R(A, B)`;
//! * **query** — one COQL expression (may span lines), e.g.
//!   `select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from x in R`;
//! * **database** — datalog facts: `R(1, 2).` / `S('paris').`

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use co_cq::{Database, RelName, Schema};
use co_lang::{parse_coql, CoDatabase, Expr};
use co_object::Atom;

fn main() -> ExitCode {
    match run() {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("coqlc: {message}");
            // Structured failures get their own exit codes so scripts can
            // react without parsing messages: depth-cap rejections (3),
            // unreachable servers (4), and shed load (5) are different
            // situations — only the last two are worth retrying, and only
            // 5 means the server is alive.
            if message.starts_with("TOODEEP") {
                ExitCode::from(3)
            } else if message.starts_with("connect:") {
                ExitCode::from(4)
            } else if message.starts_with("overloaded:") {
                ExitCode::from(5)
            } else if message.starts_with("certfail:") {
                // A verdict was returned but its certificate failed the
                // independent co-cert re-check — never trust that verdict.
                ExitCode::from(6)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: coqlc <check|cert|explain|eval|refute|encode|fingerprint> <files…>  (see --help)";
    match args.first().map(String::as_str) {
        Some("--help") | Some("-h") | None => Ok(HELP.to_string()),
        Some("check") => {
            let [schema, q1, q2] = three(&args, usage)?;
            cmd_check(&schema, &q1, &q2)
        }
        Some("cert") => cmd_cert(&args[1..]),
        Some("explain") => {
            let [schema, q1, q2] = three(&args, usage)?;
            cmd_explain(&schema, &q1, &q2)
        }
        Some("eval") => {
            let [schema, q, db] = three(&args, usage)?;
            cmd_eval(&schema, &q, &db)
        }
        Some("refute") => {
            let [schema, q1, q2] = three(&args, usage)?;
            cmd_refute(&schema, &q1, &q2)
        }
        Some("encode") => {
            let rest = &args[1..];
            if rest.len() != 2 {
                return Err(usage.to_string());
            }
            cmd_encode(&read(&rest[0])?, &read(&rest[1])?)
        }
        Some("fingerprint") => {
            let rest = &args[1..];
            if rest.len() != 2 {
                return Err(usage.to_string());
            }
            cmd_fingerprint(&read(&rest[0])?, &read(&rest[1])?)
        }
        Some("remote") => cmd_remote(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`; {usage}")),
    }
}

const HELP: &str = "\
coqlc — decide containment and equivalence of COQL queries
(Levy & Suciu, PODS 1997)

commands:
  check       <schema> <q1> <q2>   decide q1 ⊑ q2, q2 ⊑ q1, and equivalence
  cert [--equiv] [--addr <addr:port>] <schema> <q1> <q2>
                                   decide q1 ⊑ q2 (both directions with
                                   --equiv) and print a proof-carrying
                                   COCERT1 certificate for each verdict,
                                   re-checked by the independent co-cert
                                   checker before printing. With --addr the
                                   verdict comes from a running coqld or
                                   coqld-router via CERT CHECK/EQUIV, and
                                   the server's certificate is re-checked
                                   locally against locally-prepared queries
                                   — the server is never trusted. Union
                                   queries (`q1 or q2 or …` on either side)
                                   switch to the UCQ procedure and COUNION1
                                   union certificates (CERT UCHECK/UEQUIV
                                   remotely), re-checked the same way
  explain     <schema> <q1> <q2>   decide q1 ⊑ q2 and report where the time
                                   went: per-phase µs (parse, canonicalize,
                                   fingerprint, prepare, cache, kernel) and
                                   kernel step counts
  eval        <schema> <q> <db>    evaluate a query over a database of facts
  refute      <schema> <q1> <q2>   search for a database where q1 ⋢ q2
  encode      <schema> <db>        print the §5.1 index encoding of a database
  fingerprint <schema> <q>         print the query's canonical form and the
                                   128-bit fingerprint coqld uses as cache key
                                   (stable under α-renaming and clause order)
  remote [--retries <n>] [--backoff-seed <s>] <addr:port> <request ...>
                                   send one protocol line to a running coqld
                                   or coqld-router and print the full reply
                                   (multi-line replies — STATS, METRICS,
                                   SHARDS, EXPLAIN — are read to their
                                   terminator). --retries n retries up to n
                                   extra times on connect failure or
                                   ERR OVERLOADED, backing off a jittered
                                   50ms·2^i capped at 1s (default 0: fail
                                   fast); --backoff-seed fixes the jitter
                                   stream for reproducible delay sequences
                                   (default: derived from pid + address)

file formats:
  schema   one relation per line:     R(A, B)
  query    one COQL expression:       select [a: x.A] from x in R
  database datalog facts:             R(1, 2).  S('paris').

exit codes:
  0  the command ran to completion (a false containment verdict still
     exits 0 — read the report)
  1  error: bad usage, unreadable file, parse/type failure, or a remote
     ERR reply other than the classes below
  3  query nesting exceeds the parser depth cap (structured rejection of
     hostile or degenerate input; the message starts with TOODEEP —
     remote ERR TOODEEP replies map here too)
  4  remote: the server is unreachable even after --retries attempts
     (connection refused, unresolvable, timed out; message starts with
     connect:)
  5  remote: the server is alive but shed the request with ERR OVERLOADED
     on every attempt (message starts with overloaded: — back off and
     retry later)
  6  cert: a verdict was returned but its certificate failed the co-cert
     re-check (message starts with certfail: — the verdict must not be
     trusted; a local checker, a buggy server, or a poisoned cache is
     involved)

serving:
  coqld serves CHECK/EQUIV/UCHECK/UEQUIV/AGG/NEST/FINGERPRINT over TCP
  with a memo cache keyed by these fingerprints — use it for long-lived,
  duplicate-heavy workloads.";

fn three(args: &[String], usage: &str) -> Result<[String; 3], String> {
    let rest = &args[1..];
    if rest.len() != 3 {
        return Err(usage.to_string());
    }
    Ok([read(&rest[0])?, read(&rest[1])?, read(&rest[2])?])
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn strip_comments(text: &str) -> String {
    text.lines().map(|l| l.split('#').next().unwrap_or("")).collect::<Vec<_>>().join("\n")
}

fn parse_schema(text: &str) -> Result<Schema, String> {
    let mut schema = Schema::new();
    for line in strip_comments(text).lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let open = line.find('(').ok_or_else(|| format!("bad schema line `{line}`"))?;
        let close = line.rfind(')').ok_or_else(|| format!("bad schema line `{line}`"))?;
        let name = line[..open].trim();
        let attrs: Vec<&str> =
            line[open + 1..close].split(',').map(str::trim).filter(|a| !a.is_empty()).collect();
        if name.is_empty() || attrs.is_empty() {
            return Err(format!("bad schema line `{line}`"));
        }
        schema.add(co_cq::RelSchema::new(name, &attrs));
    }
    if schema.is_empty() {
        return Err("schema declares no relations".to_string());
    }
    Ok(schema)
}

fn parse_facts(text: &str, schema: &Schema) -> Result<Database, String> {
    let mut db = Database::new();
    for raw in strip_comments(text).split('.') {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let open = line.find('(').ok_or_else(|| format!("bad fact `{line}`"))?;
        let close = line.rfind(')').ok_or_else(|| format!("bad fact `{line}`"))?;
        let name = line[..open].trim();
        let rel = RelName::new(name);
        let args: Vec<Atom> = line[open + 1..close]
            .split(',')
            .map(|a| parse_atom(a.trim()))
            .collect::<Result<_, _>>()?;
        match schema.arity(rel) {
            Some(k) if k == args.len() => {}
            Some(k) => {
                return Err(format!("fact `{line}` has arity {}, schema declares {k}", args.len()))
            }
            None => return Err(format!("fact `{line}` uses undeclared relation `{name}`")),
        }
        db.insert(rel, args);
    }
    Ok(db)
}

fn parse_atom(text: &str) -> Result<Atom, String> {
    if text.is_empty() {
        return Err("empty atom".to_string());
    }
    if let Ok(n) = text.parse::<i64>() {
        return Ok(Atom::int(n));
    }
    let trimmed = text.trim_matches('\'');
    Ok(Atom::str(trimmed))
}

fn parse_query(text: &str) -> Result<Expr, String> {
    parse_coql(strip_comments(text).trim()).map_err(|e| {
        if e.is_too_deep() {
            format!("TOODEEP {e}")
        } else {
            e.to_string()
        }
    })
}

/// Parses a (possibly union) query text into its disjuncts — a scalar
/// query is the singleton union.
fn parse_union_query(text: &str) -> Result<Vec<Expr>, String> {
    co_lang::parse_union_coql(strip_comments(text).trim()).map_err(|e| {
        if e.is_too_deep() {
            format!("TOODEEP {e}")
        } else {
            e.to_string()
        }
    })
}

/// Collapses a query file to a single protocol-line rendering.
fn one_line(text: &str) -> String {
    strip_comments(text).split_whitespace().collect::<Vec<_>>().join(" ")
}

fn cmd_check(schema_text: &str, q1_text: &str, q2_text: &str) -> Result<String, String> {
    let schema = parse_schema(schema_text)?;
    let q1 = parse_query(q1_text)?;
    let q2 = parse_query(q2_text)?;
    let fwd = co_core::contained_in(&q1, &q2, &schema).map_err(|e| e.to_string())?;
    let bwd = co_core::contained_in(&q2, &q1, &schema).map_err(|e| e.to_string())?;
    let verdict = co_core::equivalent(&q1, &q2, &schema).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "q1: {q1}");
    let _ = writeln!(out, "q2: {q2}");
    let _ = writeln!(out, "q1 ⊑ q2 : {}   (path: {}, depth {})", fwd.holds, fwd.path, fwd.depth);
    let _ = writeln!(out, "q2 ⊑ q1 : {}   (path: {}, depth {})", bwd.holds, bwd.path, bwd.depth);
    let verdict_text = match verdict {
        co_core::Equivalence::Equivalent => "EQUIVALENT (definite, §4)",
        co_core::Equivalence::NotEquivalent => "NOT equivalent",
        co_core::Equivalence::WeaklyEquivalentOnly => {
            "weakly equivalent (answers may contain empty sets; true equivalence open)"
        }
    };
    let _ = write!(out, "verdict : {verdict_text}");
    Ok(out)
}

/// `coqlc cert [--equiv] [--addr <addr:port>] <schema> <q1> <q2>` — a
/// proof-carrying verdict. Local mode decides and certifies in-process;
/// remote mode asks a running coqld/coqld-router via `CERT CHECK`/`CERT
/// EQUIV` and re-checks the returned certificate against
/// locally-prepared queries, so a wrong or forged server certificate is
/// caught here (exit code 6) no matter what the verdict line claims.
fn cmd_cert(args: &[String]) -> Result<String, String> {
    let usage = "usage: coqlc cert [--equiv] [--addr <addr:port>] <schema> <q1> <q2>  (see --help)";
    let mut equiv = false;
    let mut addr: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--equiv" => equiv = true,
            "--addr" => {
                let v = it.next().ok_or_else(|| format!("--addr needs a value; {usage}"))?;
                addr = Some(v.clone());
            }
            _ => positional.push(arg),
        }
    }
    if positional.len() != 3 {
        return Err(usage.to_string());
    }
    let schema_text = read(positional[0])?;
    let q1_text = read(positional[1])?;
    let q2_text = read(positional[2])?;
    let schema = parse_schema(&schema_text)?;
    let d1 = parse_union_query(&q1_text)?;
    let d2 = parse_union_query(&q2_text)?;
    if d1.len() > 1 || d2.len() > 1 {
        // A union on either side upgrades the whole request to the UCQ
        // procedure and its COUNION1 certificates (UCHECK/UEQUIV remote).
        let u1 = co_core::prepare_union(&d1, &schema).map_err(|e| e.to_string())?;
        let u2 = co_core::prepare_union(&d2, &schema).map_err(|e| e.to_string())?;
        return match addr {
            None => cert_union_local(&u1, &u2, equiv),
            Some(addr) => {
                cert_union_remote(&addr, &schema_text, &q1_text, &q2_text, &u1, &u2, equiv)
            }
        };
    }
    let q1 = &d1[0];
    let q2 = &d2[0];
    let p1 = co_core::prepare(q1, &schema).map_err(|e| e.to_string())?;
    let p2 = co_core::prepare(q2, &schema).map_err(|e| e.to_string())?;
    match addr {
        None => cert_local(&p1, &p2, equiv),
        Some(addr) => cert_remote(&addr, &schema_text, &q1_text, &q2_text, &p1, &p2, equiv),
    }
}

/// One certified direction, decided and checked in-process.
fn certify_direction(
    a: &co_core::Prepared,
    b: &co_core::Prepared,
    label: &str,
    out: &mut String,
) -> Result<(), String> {
    let analysis = co_core::contained_prepared(a, b).map_err(|e| e.to_string())?;
    let cert = co_core::certify_prepared(a, b, &analysis).map_err(|e| e.to_string())?;
    cert.check_against(
        &a.tree,
        &b.tree,
        analysis.holds,
        co_core::cert_path(co_core::expected_path(a, b)),
    )
    .map_err(|e| format!("certfail: freshly built certificate failed the co-cert re-check: {e}"))?;
    let _ = writeln!(out, "{label} : {}   (path: {}, certified)", analysis.holds, analysis.path);
    out.push_str(cert.to_wire().trim_end());
    out.push('\n');
    Ok(())
}

fn cert_local(
    p1: &co_core::Prepared,
    p2: &co_core::Prepared,
    equiv: bool,
) -> Result<String, String> {
    let mut out = String::new();
    certify_direction(p1, p2, "q1 ⊑ q2", &mut out)?;
    if equiv {
        certify_direction(p2, p1, "q2 ⊑ q1", &mut out)?;
    }
    Ok(out.trim_end().to_string())
}

/// Re-checks a union certificate against locally prepared unions: every
/// witness/branch block must prove its claim on the local query trees
/// under the locally derived decision path.
fn check_union_cert(
    cert: &co_cert::UnionCert,
    a: &co_core::PreparedUnion,
    b: &co_core::PreparedUnion,
    holds: bool,
) -> Result<(), co_cert::CertError> {
    let ltrees: Vec<_> = a.disjuncts.iter().map(|p| &p.tree).collect();
    let rtrees: Vec<_> = b.disjuncts.iter().map(|p| &p.tree).collect();
    cert.check_against(&ltrees, &rtrees, holds, &|j, i| {
        co_core::cert_path(co_core::expected_union_path(a, b, j, i))
    })
}

/// One certified union direction, decided and checked in-process.
fn certify_union_direction(
    a: &co_core::PreparedUnion,
    b: &co_core::PreparedUnion,
    label: &str,
    out: &mut String,
) -> Result<(), String> {
    let analysis = co_core::union_contained_prepared(a, b).map_err(|e| e.to_string())?;
    let cert = co_core::certify_union_prepared(a, b, &analysis).map_err(|e| e.to_string())?;
    check_union_cert(&cert, a, b, analysis.holds).map_err(|e| {
        format!("certfail: freshly built union certificate failed the co-cert re-check: {e}")
    })?;
    let _ = writeln!(
        out,
        "{label} : {}   (left={} right={}, certified)",
        analysis.holds,
        a.disjuncts.len(),
        b.disjuncts.len()
    );
    out.push_str(cert.to_wire().trim_end());
    out.push('\n');
    Ok(())
}

fn cert_union_local(
    u1: &co_core::PreparedUnion,
    u2: &co_core::PreparedUnion,
    equiv: bool,
) -> Result<String, String> {
    let mut out = String::new();
    certify_union_direction(u1, u2, "q1 ⊑ q2", &mut out)?;
    if equiv {
        certify_union_direction(u2, u1, "q2 ⊑ q1", &mut out)?;
    }
    Ok(out.trim_end().to_string())
}

/// Remote union certification via `CERT UCHECK`/`CERT UEQUIV`: the
/// server's `COUNION1` blocks are re-checked against *locally* prepared
/// unions, so a wrong witness index, a counterexample that actually
/// satisfies the union, or a forged embedded block is caught here (exit
/// code 6) no matter what the verdict line claims.
fn cert_union_remote(
    addr: &str,
    schema_text: &str,
    q1_text: &str,
    q2_text: &str,
    u1: &co_core::PreparedUnion,
    u2: &co_core::PreparedUnion,
    equiv: bool,
) -> Result<String, String> {
    let decl: Vec<String> = strip_comments(schema_text)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    let reply = remote_exchange(addr, &format!("SCHEMA coqlc_cert {}", decl.join("; ")))
        .map_err(|e| format!("connect: {addr}: {e}"))?;
    if reply.starts_with("ERR") {
        return Err(reply);
    }
    let verb = if equiv { "UEQUIV" } else { "UCHECK" };
    let request = format!("CERT {verb} coqlc_cert {} ;; {}", one_line(q1_text), one_line(q2_text));
    let reply = remote_exchange(addr, &request).map_err(|e| format!("connect: {addr}: {e}"))?;
    let first = reply.lines().next().unwrap_or("").to_string();
    if let Some(tail) = first.strip_prefix("ERR TOODEEP") {
        return Err(format!("TOODEEP{tail}"));
    }
    if first.starts_with("ERR") {
        return Err(first);
    }
    let claimed = |name: &str| -> Result<bool, String> {
        first
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name))
            .map(|v| v == "true")
            .ok_or_else(|| format!("certfail: verdict line lacks {name}: {first}"))
    };
    let expectations: Vec<(&co_core::PreparedUnion, &co_core::PreparedUnion, bool, &str)> = if equiv
    {
        vec![(u1, u2, claimed("forward=")?, "q1 ⊑ q2"), (u2, u1, claimed("backward=")?, "q2 ⊑ q1")]
    } else {
        vec![(u1, u2, claimed("holds=")?, "q1 ⊑ q2")]
    };
    let body: Vec<&str> = reply.lines().skip(1).take_while(|l| *l != "END").collect();
    let body = body.join("\n");
    let mut rest = body.as_str();
    let mut out = String::new();
    let _ = writeln!(out, "{first}");
    for (a, b, holds, label) in expectations {
        let (cert, after) = co_cert::UnionCert::parse_prefix(rest)
            .map_err(|e| format!("certfail: server union certificate does not parse: {e}"))?;
        rest = after;
        check_union_cert(&cert, a, b, holds).map_err(|e| {
            format!(
                "certfail: server union certificate for {label} failed the co-cert \
                     re-check: {e}"
            )
        })?;
        let _ = writeln!(out, "{label} : {holds}   (certified by local co-cert re-check)");
    }
    Ok(out.trim_end().to_string())
}

fn cert_remote(
    addr: &str,
    schema_text: &str,
    q1_text: &str,
    q2_text: &str,
    p1: &co_core::Prepared,
    p2: &co_core::Prepared,
    equiv: bool,
) -> Result<String, String> {
    let decl: Vec<String> = strip_comments(schema_text)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    let reply = remote_exchange(addr, &format!("SCHEMA coqlc_cert {}", decl.join("; ")))
        .map_err(|e| format!("connect: {addr}: {e}"))?;
    if reply.starts_with("ERR") {
        return Err(reply);
    }
    let verb = if equiv { "EQUIV" } else { "CHECK" };
    let request = format!("CERT {verb} coqlc_cert {} ;; {}", one_line(q1_text), one_line(q2_text));
    let reply = remote_exchange(addr, &request).map_err(|e| format!("connect: {addr}: {e}"))?;
    let first = reply.lines().next().unwrap_or("").to_string();
    if let Some(tail) = first.strip_prefix("ERR TOODEEP") {
        return Err(format!("TOODEEP{tail}"));
    }
    if first.starts_with("ERR") {
        return Err(first);
    }
    // The verdict line is only a claim; each certificate block must prove
    // it against the *locally* prepared queries and the locally derived
    // decision path.
    let claimed = |name: &str| -> Result<bool, String> {
        first
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name))
            .map(|v| v == "true")
            .ok_or_else(|| format!("certfail: verdict line lacks {name}: {first}"))
    };
    let expectations: Vec<(&co_core::Prepared, &co_core::Prepared, bool, &str)> = if equiv {
        vec![(p1, p2, claimed("forward=")?, "q1 ⊑ q2"), (p2, p1, claimed("backward=")?, "q2 ⊑ q1")]
    } else {
        vec![(p1, p2, claimed("holds=")?, "q1 ⊑ q2")]
    };
    let body: Vec<&str> = reply.lines().skip(1).take_while(|l| *l != "END").collect();
    let body = body.join("\n");
    let mut rest = body.as_str();
    let mut out = String::new();
    let _ = writeln!(out, "{first}");
    for (a, b, holds, label) in expectations {
        let (cert, after) = co_cert::Cert::parse_prefix(rest)
            .map_err(|e| format!("certfail: server certificate does not parse: {e}"))?;
        rest = after;
        cert.check_against(
            &a.tree,
            &b.tree,
            holds,
            co_core::cert_path(co_core::expected_path(a, b)),
        )
        .map_err(|e| {
            format!("certfail: server certificate for {label} failed the co-cert re-check: {e}")
        })?;
        let _ = writeln!(out, "{label} : {holds}   (certified by local co-cert re-check)");
    }
    Ok(out.trim_end().to_string())
}

fn cmd_explain(schema_text: &str, q1_text: &str, q2_text: &str) -> Result<String, String> {
    let schema = parse_schema(schema_text)?;
    let engine = co_service::Engine::new(co_service::EngineConfig::default());
    engine.register_schema("cli", schema);
    let q1 = strip_comments(q1_text).trim().to_string();
    let q2 = strip_comments(q2_text).trim().to_string();
    let request = co_service::Request::new(co_service::Op::Check, "cli", &q1, &q2);
    let (decision, ex) = engine.decide_explained(&request)?;
    let co_service::Decision::Containment { analysis, fp1, fp2, .. } = decision else {
        return Err("internal error: CHECK produced no containment decision".to_string());
    };
    let mut out = String::new();
    let _ = writeln!(out, "q1 ⊑ q2 : {}   (path: {})", analysis.holds, analysis.path);
    let _ = writeln!(out, "fp1: {fp1}");
    let _ = writeln!(out, "fp2: {fp2}");
    for (name, us) in ex.phases() {
        let _ = writeln!(out, "  {name:<12} {us:>8} µs");
    }
    let covered = (ex.phase_sum_us() * 100).checked_div(ex.total_us).unwrap_or(100);
    let _ = writeln!(out, "  {:<12} {:>8} µs   (phases cover {covered}%)", "total", ex.total_us);
    let mut any = false;
    for (name, steps) in ex.kernel_steps.iter().filter(|&(_, v)| v > 0) {
        let _ = writeln!(out, "  kernel.{name} {steps}");
        any = true;
    }
    if !any {
        let _ = writeln!(out, "  (no kernel steps — answered without search)");
    }
    Ok(out.trim_end().to_string())
}

fn cmd_eval(schema_text: &str, q_text: &str, db_text: &str) -> Result<String, String> {
    let schema = parse_schema(schema_text)?;
    let q = parse_query(q_text)?;
    let db = parse_facts(db_text, &schema)?;
    let value = co_core::evaluate_flat(&q, &schema, &db).map_err(|e| e.to_string())?;
    Ok(value.to_string())
}

fn cmd_refute(schema_text: &str, q1_text: &str, q2_text: &str) -> Result<String, String> {
    let schema = parse_schema(schema_text)?;
    let q1 = parse_query(q1_text)?;
    let q2 = parse_query(q2_text)?;
    let analysis = co_core::contained_in(&q1, &q2, &schema).map_err(|e| e.to_string())?;
    if analysis.holds {
        return Ok("containment holds: no counterexample exists".to_string());
    }
    match co_core::search_counterexample(&q1, &q2, &schema, 0..2000).map_err(|e| e.to_string())? {
        Some(db) => {
            let p1 = co_core::prepare(&q1, &schema).map_err(|e| e.to_string())?;
            let p2 = co_core::prepare(&q2, &schema).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(out, "counterexample database:");
            let _ = writeln!(out, "{db}");
            let _ = writeln!(out, "q1(db) = {}", p1.tree.evaluate(&db));
            let _ = write!(out, "q2(db) = {}", p2.tree.evaluate(&db));
            Ok(out)
        }
        None => Ok("containment fails, but the random search found no small \
                    counterexample (try more seeds)"
            .to_string()),
    }
}

fn cmd_fingerprint(schema_text: &str, q_text: &str) -> Result<String, String> {
    let schema = parse_schema(schema_text)?;
    let q = parse_query(q_text)?;
    let coql_schema = co_lang::CoqlSchema::from_flat(&schema);
    co_lang::type_check(&q, &coql_schema).map_err(|e| e.to_string())?;
    let nf = co_lang::normalize(&q, &coql_schema).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "fp        {}", co_service::fingerprint_query(&nf));
    let _ = writeln!(out, "schema_fp {}", co_service::fingerprint_schema(&schema));
    let _ = write!(out, "canonical {}", co_lang::canonical_query(&nf));
    Ok(out)
}

/// `coqlc remote [--retries n] [--backoff-seed s] <addr> <request ...>` —
/// one protocol exchange with a coqld or coqld-router, with bounded
/// jittered retry-with-backoff on the two transient failure classes
/// (unreachable, shed). The jitter decorrelates synchronized clients
/// (no retry storms); a fixed `--backoff-seed` makes the delay sequence
/// reproducible for tests.
fn cmd_remote(args: &[String]) -> Result<String, String> {
    let usage = "usage: coqlc remote [--retries <n>] [--backoff-seed <s>] <addr:port> \
                 <request ...>  (see --help)";
    let mut retries = 0usize;
    let mut seed: Option<u64> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--retries" {
            let v = it.next().ok_or_else(|| format!("--retries needs a value; {usage}"))?;
            retries =
                v.parse().map_err(|_| format!("--retries expects a number, got `{v}`; {usage}"))?;
        } else if arg == "--backoff-seed" {
            let v = it.next().ok_or_else(|| format!("--backoff-seed needs a value; {usage}"))?;
            seed = Some(
                v.parse()
                    .map_err(|_| format!("--backoff-seed expects a number, got `{v}`; {usage}"))?,
            );
        } else {
            positional.push(arg);
        }
    }
    if positional.len() < 2 {
        return Err(usage.to_string());
    }
    let addr = positional[0];
    let request = positional[1..].join(" ");

    // Unseeded invocations decorrelate by process identity: two clients
    // that fail simultaneously still back off on different schedules.
    let seed = seed.unwrap_or_else(|| {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::process::id().hash(&mut h);
        addr.hash(&mut h);
        h.finish()
    });
    let mut backoff = co_router::JitteredBackoff::new(
        seed,
        Duration::from_millis(50),
        Duration::from_millis(1_000),
    );
    let mut last_failure = String::new();
    for attempt in 0..=retries {
        if attempt > 0 {
            // Jittered 50ms, 100ms, 200ms, ... capped at 1s.
            std::thread::sleep(backoff.next_delay());
        }
        match remote_exchange(addr, &request) {
            Err(e) => {
                last_failure =
                    format!("connect: {addr}: {e} (attempt {}/{})", attempt + 1, retries + 1);
            }
            Ok(reply) => {
                let first = reply.lines().next().unwrap_or("");
                if first.starts_with("ERR OVERLOADED") {
                    last_failure = format!(
                        "overloaded: {addr} answered `{first}` (attempt {}/{})",
                        attempt + 1,
                        retries + 1
                    );
                    continue;
                }
                if let Some(tail) = first.strip_prefix("ERR TOODEEP") {
                    return Err(format!("TOODEEP{tail}"));
                }
                if first.starts_with("ERR") {
                    return Err(first.to_string());
                }
                return Ok(reply);
            }
        }
    }
    Err(last_failure)
}

/// One request/reply exchange: dial, send the line, read the complete
/// reply (multi-line replies read to their terminator, which is kept).
fn remote_exchange(addr: &str, request: &str) -> std::io::Result<String> {
    use std::io::{BufRead, BufReader, ErrorKind, Write};
    use std::net::{TcpStream, ToSocketAddrs};
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(ErrorKind::InvalidInput, format!("unresolvable `{addr}`"))
    })?;
    let stream = TcpStream::connect_timeout(&sock, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(request.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    let mut read_line = || -> std::io::Result<String> {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "server closed connection"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    };
    let first = read_line()?;
    let mut reply = first.clone();
    if let Some(terminator) = reply_terminator(request, &first) {
        loop {
            let line = read_line()?;
            reply.push('\n');
            reply.push_str(&line);
            if line == terminator {
                break;
            }
        }
    }
    let _ = writer.write_all(b"QUIT\n");
    Ok(reply)
}

/// Which terminator line (if any) closes the reply to `request`, given
/// its first reply line. Single-line replies (plain CHECK verdicts, all
/// ERRs) return `None`.
fn reply_terminator(request: &str, first: &str) -> Option<&'static str> {
    if first.starts_with("ERR") {
        return None;
    }
    co_service::proto::parse_prelude(request.trim(), None).ok()?.terminator()
}

fn cmd_encode(schema_text: &str, db_text: &str) -> Result<String, String> {
    let schema = parse_schema(schema_text)?;
    let db = parse_facts(db_text, &schema)?;
    let codb = CoDatabase::from_flat(&db, &schema);
    let coql_schema = co_lang::CoqlSchema::from_flat(&schema);
    let enc = co_encode::encode_database(&codb, &coql_schema).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for rel in enc.schema.iter() {
        let _ = writeln!(
            out,
            "# {}({})",
            rel.name,
            rel.attrs.iter().map(|a| a.name()).collect::<Vec<_>>().join(", ")
        );
    }
    let _ = write!(out, "{}", enc.db);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_and_facts_parse() {
        let schema = parse_schema("R(A, B)\n# comment\nS(C)\n").unwrap();
        assert_eq!(schema.len(), 2);
        let db = parse_facts("R(1, 2). S('paris').\nR(3, 4).", &schema).unwrap();
        assert_eq!(db.fact_count(), 3);
        assert!(parse_facts("T(1).", &schema).is_err());
        assert!(parse_facts("R(1).", &schema).is_err());
    }

    #[test]
    fn check_reports_containment() {
        let schema = "R(A, B)";
        let q1 = "select x.B from x in R where x.A = 1";
        let q2 = "select x.B from x in R";
        let report = cmd_check(schema, q1, q2).unwrap();
        assert!(report.contains("q1 ⊑ q2 : true"), "{report}");
        assert!(report.contains("q2 ⊑ q1 : false"), "{report}");
        assert!(report.contains("NOT equivalent"), "{report}");
    }

    #[test]
    fn explain_reports_verdict_and_phases() {
        let report = cmd_explain(
            "R(A, B)",
            "select x.B from x in R where x.A = 1",
            "select x.B from x in R",
        )
        .unwrap();
        assert!(report.contains("q1 ⊑ q2 : true"), "{report}");
        for phase in ["parse", "canonicalize", "fingerprint", "prepare", "cache", "kernel"] {
            assert!(report.contains(phase), "missing {phase}: {report}");
        }
        assert!(report.contains("kernel.hom_probes"), "{report}");
    }

    #[test]
    fn eval_runs_queries() {
        let out =
            cmd_eval("R(A, B)", "select [b: x.B] from x in R where x.A = 1", "R(1, 10). R(2, 20).")
                .unwrap();
        assert_eq!(out, "{[b: 10]}");
    }

    #[test]
    fn refute_finds_databases() {
        let out =
            cmd_refute("R(A, B)", "select x.B from x in R", "select x.B from x in R where x.A = 1")
                .unwrap();
        assert!(out.contains("counterexample database"), "{out}");
    }

    #[test]
    fn fingerprint_is_presentation_invariant() {
        let schema = "R(A, B)";
        let a = cmd_fingerprint(schema, "select x.B from x in R where x.A = 1").unwrap();
        let b = cmd_fingerprint(schema, "select y.B from y in R where 1 = y.A").unwrap();
        assert_eq!(a, b, "α-renamed queries must report identical fingerprints");
        assert!(a.starts_with("fp        "), "{a}");
        assert!(a.contains("canonical "), "{a}");
        let c = cmd_fingerprint(schema, "select x.B from x in R where x.A = 2").unwrap();
        assert_ne!(a, c, "different constants must change the fingerprint");
        assert!(cmd_fingerprint(schema, "select x.Z from x in R").is_err());
    }

    #[test]
    fn deep_queries_are_rejected_with_the_toodeep_marker() {
        let hostile = "{".repeat(100_000);
        let err = cmd_check("R(A, B)", &hostile, "select x from x in R").unwrap_err();
        assert!(err.starts_with("TOODEEP"), "{err}");
        let err = cmd_fingerprint("R(A, B)", &hostile).unwrap_err();
        assert!(err.starts_with("TOODEEP"), "{err}");
        // Ordinary parse failures keep the plain message (exit code 1).
        let err = cmd_check("R(A, B)", "select from", "select x from x in R").unwrap_err();
        assert!(!err.starts_with("TOODEEP"), "{err}");
    }

    #[test]
    fn remote_retries_overload_then_succeeds() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection sheds, second answers.
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                assert!(line.starts_with("STATS"), "{line}");
                if i == 0 {
                    writer.write_all(b"ERR OVERLOADED shedding\n").unwrap();
                } else {
                    writer.write_all(b"decisions 7\nEND\n").unwrap();
                }
            }
        });
        // Zero retries: the shed reply is surfaced as the overloaded class.
        let err = cmd_remote(&[addr.clone(), "STATS".into()]).unwrap_err();
        assert!(err.starts_with("overloaded:"), "{err}");
        // One retry rides over the shed and reads the multi-line reply.
        let out = cmd_remote(&["--retries".into(), "1".into(), addr, "STATS".into()]).unwrap();
        assert_eq!(out, "decisions 7\nEND");
        server.join().unwrap();
    }

    #[test]
    fn remote_connect_failure_is_its_own_class() {
        // Bind then drop: nothing listens on the port.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        let err = cmd_remote(&[addr, "STATS".into()]).unwrap_err();
        assert!(err.starts_with("connect:"), "{err}");
    }

    #[test]
    fn remote_maps_toodeep_and_generic_errors() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let replies = [
                b"ERR TOODEEP nesting depth 200 exceeds cap\n".as_slice(),
                b"ERR unknown schema `app` (register it with SCHEMA first)\n".as_slice(),
            ];
            for (stream, reply) in listener.incoming().take(2).zip(replies) {
                let stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                writer.write_all(reply).unwrap();
            }
        });
        let err = cmd_remote(&[addr.clone(), "CHECK".into(), "app".into()]).unwrap_err();
        assert!(err.starts_with("TOODEEP"), "exit-3 class preserved end to end: {err}");
        let err = cmd_remote(&[addr, "CHECK".into(), "app".into()]).unwrap_err();
        assert!(err.starts_with("ERR unknown schema"), "{err}");
        server.join().unwrap();
    }

    #[test]
    fn reply_terminators_follow_the_protocol() {
        assert_eq!(reply_terminator("STATS", "uptime_seconds 1"), Some("END"));
        assert_eq!(reply_terminator("METRICS", "# HELP x y"), Some("# EOF"));
        assert_eq!(reply_terminator("SHARDS", "127.0.0.1:1 up=true"), Some("END"));
        assert_eq!(reply_terminator("CHECK app a ;; b", "OK true"), None);
        assert_eq!(reply_terminator("EXPLAIN CHECK app a ;; b", "OK true"), Some("END"));
        assert_eq!(reply_terminator("TIMEOUT 50 EXPLAIN EQUIV app a ;; b", "OK true"), Some("END"));
        assert_eq!(reply_terminator("CERT CHECK app a ;; b", "OK true"), Some("END"));
        assert_eq!(reply_terminator("CERT TIMEOUT 9 EQUIV app a ;; b", "OK true"), Some("END"));
        assert_eq!(reply_terminator("UCHECK app a or b ;; c", "OK holds=true"), None);
        assert_eq!(reply_terminator("CERT UCHECK app a or b ;; c", "OK holds=true"), Some("END"));
        assert_eq!(reply_terminator("EXPLAIN UEQUIV app a ;; b or c", "OK true"), Some("END"));
        assert_eq!(reply_terminator("AGG q(X) :- R(X). ;; q(X) :- R(X).", "OK forward=true"), None);
        assert_eq!(reply_terminator("NEST app R ;; R", "OK equivalent=true"), None);
        // ERR replies are single-line even under EXPLAIN/CERT.
        assert_eq!(reply_terminator("EXPLAIN CHECK app a ;; b", "ERR DEADLINE"), None);
        assert_eq!(reply_terminator("CERT CHECK app a ;; b", "ERR CERTUNAVAILABLE x"), None);
    }

    /// Prepared pair where q1 ⊑ q2 holds and the converse fails.
    fn prepared_pair() -> (co_core::Prepared, co_core::Prepared) {
        let schema = parse_schema("R(A, B)").unwrap();
        let q1 = parse_query("select x.B from x in R where x.A = 1").unwrap();
        let q2 = parse_query("select x.B from x in R").unwrap();
        (co_core::prepare(&q1, &schema).unwrap(), co_core::prepare(&q2, &schema).unwrap())
    }

    #[test]
    fn cert_local_certifies_both_directions() {
        let (p1, p2) = prepared_pair();
        let out = cert_local(&p1, &p2, true).unwrap();
        assert!(out.contains("q1 ⊑ q2 : true"), "{out}");
        assert!(out.contains("q2 ⊑ q1 : false"), "{out}");
        assert_eq!(out.matches("COCERT1 ").count(), 2, "{out}");
        assert_eq!(out.matches("COCERTEND").count(), 2, "{out}");
        // Each printed block round-trips through the independent checker.
        let (first, rest) = co_cert::Cert::parse_prefix(out.split_once('\n').unwrap().1).unwrap();
        assert!(first.holds);
        let second_block = rest.split_once('\n').unwrap().1;
        assert!(!co_cert::Cert::parse(second_block).unwrap().holds);
    }

    #[test]
    fn cert_remote_rejects_a_lying_server() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let (p1, p2) = prepared_pair();
        let analysis = co_core::contained_prepared(&p1, &p2).unwrap();
        assert!(analysis.holds);
        let wire = co_core::certify_prepared(&p1, &p2, &analysis).unwrap().to_wire();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if i == 0 {
                    assert!(line.starts_with("SCHEMA coqlc_cert"), "{line}");
                    writer.write_all(b"OK schema=coqlc_cert fp=0 relations=1\n").unwrap();
                } else {
                    assert!(line.starts_with("CERT CHECK coqlc_cert"), "{line}");
                    // Lie: claim containment fails while shipping the
                    // (structurally valid) holds-certificate.
                    let reply = format!(
                        "OK holds=false path=flat/classical cached=false fp1=0 fp2=0\n{wire}END\n"
                    );
                    writer.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        let err = cert_remote(
            &addr,
            "R(A, B)",
            "select x.B from x in R where x.A = 1",
            "select x.B from x in R",
            &p1,
            &p2,
            false,
        )
        .unwrap_err();
        assert!(err.starts_with("certfail:"), "exit-6 class: {err}");
        server.join().unwrap();
    }

    #[test]
    fn cert_remote_accepts_an_honest_server() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let (p1, p2) = prepared_pair();
        let fwd = co_core::contained_prepared(&p1, &p2).unwrap();
        let bwd = co_core::contained_prepared(&p2, &p1).unwrap();
        let wire_f = co_core::certify_prepared(&p1, &p2, &fwd).unwrap().to_wire();
        let wire_b = co_core::certify_prepared(&p2, &p1, &bwd).unwrap().to_wire();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if i == 0 {
                    writer.write_all(b"OK schema=coqlc_cert fp=0 relations=1\n").unwrap();
                } else {
                    assert!(line.starts_with("CERT EQUIV coqlc_cert"), "{line}");
                    let reply = format!(
                        "OK verdict=not-equivalent forward=true backward=false \
                         cached=false fp1=0 fp2=0\n{wire_f}{wire_b}END\n"
                    );
                    writer.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        let out = cert_remote(
            &addr,
            "R(A, B)",
            "select x.B from x in R where x.A = 1",
            "select x.B from x in R",
            &p1,
            &p2,
            true,
        )
        .unwrap();
        assert!(out.contains("q1 ⊑ q2 : true"), "{out}");
        assert!(out.contains("q2 ⊑ q1 : false"), "{out}");
        assert!(out.contains("certified by local co-cert re-check"), "{out}");
        server.join().unwrap();
    }

    /// Prepared unions where `σ₁R ∪ σ₂R ⊑ R` holds and the converse fails.
    fn prepared_unions() -> (co_core::PreparedUnion, co_core::PreparedUnion) {
        let schema = parse_schema("R(A, B)").unwrap();
        let d1 = parse_union_query(
            "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
        )
        .unwrap();
        let d2 = parse_union_query("select y.B from y in R").unwrap();
        (
            co_core::prepare_union(&d1, &schema).unwrap(),
            co_core::prepare_union(&d2, &schema).unwrap(),
        )
    }

    #[test]
    fn cert_union_local_certifies_both_directions() {
        let (u1, u2) = prepared_unions();
        let out = cert_union_local(&u1, &u2, true).unwrap();
        assert!(out.contains("q1 ⊑ q2 : true"), "{out}");
        assert!(out.contains("q2 ⊑ q1 : false"), "{out}");
        assert_eq!(out.matches("COUNION1 ").count(), 2, "{out}");
        assert_eq!(out.matches("COUNIONEND").count(), 2, "{out}");
        // Each printed block round-trips through the independent checker.
        let (first, rest) =
            co_cert::UnionCert::parse_prefix(out.split_once('\n').unwrap().1).unwrap();
        assert!(first.holds);
        assert_eq!(first.witnesses.len(), 2);
        assert!(
            !co_cert::UnionCert::parse_prefix(rest.split_once('\n').unwrap().1).unwrap().0.holds
        );
    }

    #[test]
    fn cert_union_remote_rejects_a_lying_server() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        let (u1, u2) = prepared_unions();
        let analysis = co_core::union_contained_prepared(&u1, &u2).unwrap();
        assert!(analysis.holds);
        let wire = co_core::certify_union_prepared(&u1, &u2, &analysis).unwrap().to_wire();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if i == 0 {
                    assert!(line.starts_with("SCHEMA coqlc_cert"), "{line}");
                    writer.write_all(b"OK schema=coqlc_cert fp=0 relations=1\n").unwrap();
                } else {
                    assert!(line.starts_with("CERT UCHECK coqlc_cert"), "{line}");
                    // Lie: claim the union containment fails while
                    // shipping the (structurally valid) holds-certificate.
                    let reply = format!(
                        "OK holds=false refuted=0 left=2 right=1 pairs=2 cached=false \
                         fp1=0 fp2=0\n{wire}END\n"
                    );
                    writer.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        let err = cert_union_remote(
            &addr,
            "R(A, B)",
            "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
            "select y.B from y in R",
            &u1,
            &u2,
            false,
        )
        .unwrap_err();
        assert!(err.starts_with("certfail:"), "exit-6 class: {err}");
        server.join().unwrap();
    }

    #[test]
    fn cert_union_remote_rejects_a_misdirected_witness() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;
        // `σ₁R ⊑ σ₁R ∪ σ₂R`, witnessed by right disjunct 0. A forged
        // certificate naming right disjunct 1 must fail the local
        // re-check: the embedded homomorphism does not map σ₂R's constant.
        let schema = parse_schema("R(A, B)").unwrap();
        let d1 = parse_union_query("select x.B from x in R where x.A = 1").unwrap();
        let d2 = parse_union_query(
            "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
        )
        .unwrap();
        let u1 = co_core::prepare_union(&d1, &schema).unwrap();
        let u2 = co_core::prepare_union(&d2, &schema).unwrap();
        let analysis = co_core::union_contained_prepared(&u1, &u2).unwrap();
        assert!(analysis.holds);
        let mut forged = co_core::certify_union_prepared(&u1, &u2, &analysis).unwrap();
        forged.witnesses[0].0 = 1 - forged.witnesses[0].0;
        let wire = forged.to_wire();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(2).enumerate() {
                let stream = stream.unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if i == 0 {
                    writer.write_all(b"OK schema=coqlc_cert fp=0 relations=1\n").unwrap();
                } else {
                    let reply = format!(
                        "OK holds=true witnesses=1 left=1 right=2 pairs=1 cached=false \
                         fp1=0 fp2=0\n{wire}END\n"
                    );
                    writer.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        let err = cert_union_remote(
            &addr,
            "R(A, B)",
            "select x.B from x in R where x.A = 1",
            "select x.B from x in R where x.A = 1 or select x.B from x in R where x.A = 2",
            &u1,
            &u2,
            false,
        )
        .unwrap_err();
        assert!(err.starts_with("certfail:"), "exit-6 class: {err}");
        server.join().unwrap();
    }

    #[test]
    fn encode_prints_relations() {
        let out = cmd_encode("R(A, B)", "R(1, 2).").unwrap();
        assert!(out.contains("# R(A, B)"), "{out}");
        assert!(out.contains("R(1, 2)"), "{out}");
    }
}
