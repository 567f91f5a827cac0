//! Differential certificate oracle: seeded random query pairs, decided
//! under every candidate-selection strategy and kernel thread count the
//! serving stack can pick, with every verdict's certificate re-checked by
//! the independent `co-cert` checker — including a round trip through the
//! wire form, the same bytes snapshots and `CERT` replies carry.
//!
//! The configuration sweep matters: a certificate is constructed from the
//! verdict's *evidence*, so a strategy- or thread-dependent kernel bug
//! shows up here as a certificate that fails re-check (or a verdict that
//! flips across configurations), not as a silent wrong answer.
//!
//! Since PR 10 the sweep also covers union pairs: every `UCHECK`-shaped
//! verdict is certified as a `COUNION1` union certificate, re-checked
//! fresh and after a wire round-trip. A separate test drives the real
//! `coqlc` binary against a lying server and demands exit code 6 for
//! forged union certificates (a witness naming the wrong disjunct, a
//! branch counterexample that actually satisfies the union).
//!
//! One sweeping `#[test]` on purpose: strategy and kernel-thread
//! selection are process-global, so concurrent sweeps would race on them
//! (the binary-drill test only exercises child processes and scripted
//! sockets, so it can run alongside).
//!
//! `CERT_ORACLE_PAIRS` (env) scales the pair count; the default keeps the
//! suite fast, `scripts/verify.sh` drives it at 200+.

use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::thread;

use co_cq::hom::{set_default_strategy, CandidateStrategy};
use co_cq::{Schema, Var};
use co_lang::Expr;
use co_object::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
}

/// Random COQL query over the fixed schema: an outer select over R (and
/// sometimes S), a record head with an atomic field and (usually) one
/// nested select with random correlation — the same shape family the
/// workspace differential suite uses, so flat, no-empty-set, and full
/// decision paths all occur.
fn random_query(seed: u64) -> Expr {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Var::new("x");
    let y = Var::new("y");
    let z = Var::new("z");

    let outer_attr = if rng.gen_bool(0.5) { "A" } else { "B" };
    let mut bindings = vec![(x, Expr::rel("R"))];
    let mut outer_conds = Vec::new();
    if rng.gen_bool(0.3) {
        bindings.push((z, Expr::rel("S")));
        if rng.gen_bool(0.7) {
            outer_conds.push((Expr::var("z").proj("C"), Expr::var("x").proj("B")));
        }
    }
    if rng.gen_bool(0.25) {
        outer_conds.push((Expr::var("x").proj(outer_attr), Expr::int(rng.gen_range(0..3))));
    }

    let head = if rng.gen_bool(0.7) {
        let (inner_rel, inner_attr) = if rng.gen_bool(0.6) { ("R", "B") } else { ("S", "C") };
        let mut inner_conds = Vec::new();
        match rng.gen_range(0..3) {
            0 if inner_rel == "R" => {
                inner_conds.push((Expr::var("y").proj("A"), Expr::var("x").proj("A")))
            }
            1 => inner_conds.push((Expr::var("y").proj(inner_attr), Expr::var("x").proj("B"))),
            _ => {}
        }
        if rng.gen_bool(0.2) {
            inner_conds.push((Expr::var("y").proj(inner_attr), Expr::int(rng.gen_range(0..3))));
        }
        let inner = Expr::Select {
            head: Box::new(Expr::var("y").proj(inner_attr)),
            bindings: vec![(y, Expr::rel(inner_rel))],
            conds: inner_conds,
        };
        Expr::record(vec![("a", Expr::var("x").proj(outer_attr)), ("g", inner)])
    } else {
        // Flat record head: keeps the FlatClassical path (and its Mapping
        // certificates) in the mix.
        Expr::record(vec![("a", Expr::var("x").proj(outer_attr)), ("b", Expr::var("x").proj("B"))])
    };

    Expr::Select { head: Box::new(head), bindings, conds: outer_conds }
}

/// One direction of one pair under the current global configuration:
/// decide, certify, wire round-trip, re-check. Returns the verdict, or
/// None when the pair's result types are incompatible (no verdict exists
/// to certify). Panics with full context on any certificate failure.
fn certified_verdict(
    p1: &co_core::Prepared,
    p2: &co_core::Prepared,
    context: &str,
) -> Option<bool> {
    let analysis = match co_core::contained_prepared(p1, p2) {
        Ok(analysis) => analysis,
        Err(co_core::CoreError::TypeMismatch(_)) => return None,
        Err(e) => panic!("{context}: decision failed: {e}"),
    };
    let cert = co_core::certify_prepared(p1, p2, &analysis)
        .unwrap_or_else(|e| panic!("{context}: verdict holds={} but {e}", analysis.holds));
    let expect_path = co_core::cert_path(co_core::expected_path(p1, p2));
    cert.check_against(&p1.tree, &p2.tree, analysis.holds, expect_path)
        .unwrap_or_else(|e| panic!("{context}: fresh certificate rejected: {e}"));
    // The serving stack never ships the in-memory certificate — it ships
    // the wire form; the oracle must validate what a client would see.
    let reparsed = co_cert::Cert::parse(&cert.to_wire())
        .unwrap_or_else(|e| panic!("{context}: wire round-trip does not parse: {e}"));
    reparsed
        .check_against(&p1.tree, &p2.tree, analysis.holds, expect_path)
        .unwrap_or_else(|e| panic!("{context}: wire round-trip rejected: {e}"));
    Some(analysis.holds)
}

const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

/// An abstract union disjunct over `R(A,B); S(C)` — the same three head
/// classes the UCQ differential wall uses, rendered with fresh variable
/// names so every pair also exercises α-renaming on the cert path.
#[derive(Clone, Copy)]
struct Disjunct {
    class: u8,
    outer: Option<u8>,
    inner: Option<u8>,
}

impl Disjunct {
    fn random(class: u8, rng: &mut StdRng) -> Disjunct {
        Disjunct {
            class,
            outer: rng.gen_bool(0.6).then(|| rng.gen_range(0..3)),
            inner: rng.gen_bool(0.4).then(|| rng.gen_range(0..3)),
        }
    }

    /// A disjunct that contains `self`: the same shape with filters
    /// (usually) dropped.
    fn generalized(self, rng: &mut StdRng) -> Disjunct {
        Disjunct {
            class: self.class,
            outer: if rng.gen_bool(0.7) { None } else { self.outer },
            inner: if rng.gen_bool(0.7) { None } else { self.inner },
        }
    }

    fn render(self, rng: &mut StdRng) -> String {
        let o = VARS[rng.gen_range(0..VARS.len())];
        let eq = |l: String, r: String, rng: &mut StdRng| {
            if rng.gen_bool(0.5) {
                format!("{l} = {r}")
            } else {
                format!("{r} = {l}")
            }
        };
        let outer_cond = self.outer.map(|k| eq(format!("{o}.A"), k.to_string(), rng));
        let with_where = |head: String, cond: Option<String>| match cond {
            Some(c) => format!("select {head} from {o} in R where {c}"),
            None => format!("select {head} from {o} in R"),
        };
        match self.class {
            0 => with_where(format!("{o}.B"), outer_cond),
            1 => with_where(format!("[a: {o}.A, b: {o}.B]"), outer_cond),
            _ => {
                let i = loop {
                    let c = VARS[rng.gen_range(0..VARS.len())];
                    if c != o {
                        break c;
                    }
                };
                let mut inner_conds = vec![eq(format!("{i}.C"), format!("{o}.A"), rng)];
                if let Some(k) = self.inner {
                    inner_conds.push(eq(format!("{i}.C"), k.to_string(), rng));
                }
                let head = format!(
                    "[a: {o}.A, g: (select {i}.C from {i} in S where {})]",
                    inner_conds.join(" and ")
                );
                with_where(head, outer_cond)
            }
        }
    }
}

/// One seeded union pair as COQL text. The right side mixes
/// generalizations/copies of left disjuncts with fresh random ones so
/// both verdict polarities occur at useful rates.
fn union_pair(seed: u64) -> (String, String) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15) ^ seed);
    let class = rng.gen_range(0..3u8);
    let left: Vec<Disjunct> =
        (0..rng.gen_range(1..=3)).map(|_| Disjunct::random(class, &mut rng)).collect();
    let right: Vec<Disjunct> = (0..rng.gen_range(1..=3))
        .map(|_| {
            if rng.gen_bool(0.55) {
                let picked = left[rng.gen_range(0..left.len())];
                if rng.gen_bool(0.5) {
                    picked.generalized(&mut rng)
                } else {
                    picked
                }
            } else {
                Disjunct::random(class, &mut rng)
            }
        })
        .collect();
    let side = |ds: &[Disjunct], rng: &mut StdRng| {
        ds.iter().map(|d| d.render(rng)).collect::<Vec<_>>().join(" or ")
    };
    (side(&left, &mut rng), side(&right, &mut rng))
}

/// One direction of one union pair under the current global
/// configuration: decide, certify as a `COUNION1` block, re-check fresh
/// and after a wire round-trip. Panics with full context on any failure.
fn certified_union_verdict(
    l: &co_core::PreparedUnion,
    r: &co_core::PreparedUnion,
    context: &str,
) -> bool {
    let analysis = co_core::union_contained_prepared(l, r)
        .unwrap_or_else(|e| panic!("{context}: union decision failed: {e}"));
    let cert = co_core::certify_union_prepared(l, r, &analysis)
        .unwrap_or_else(|e| panic!("{context}: verdict holds={} but {e}", analysis.holds));
    let ltrees: Vec<_> = l.disjuncts.iter().map(|p| &p.tree).collect();
    let rtrees: Vec<_> = r.disjuncts.iter().map(|p| &p.tree).collect();
    let expect = |j: usize, i: usize| co_core::cert_path(co_core::expected_union_path(l, r, j, i));
    cert.check_against(&ltrees, &rtrees, analysis.holds, &expect)
        .unwrap_or_else(|e| panic!("{context}: fresh union certificate rejected: {e}"));
    // As with scalar pairs, clients only ever see the wire form.
    let reparsed = co_cert::UnionCert::parse(&cert.to_wire())
        .unwrap_or_else(|e| panic!("{context}: union wire round-trip does not parse: {e}"));
    reparsed
        .check_against(&ltrees, &rtrees, analysis.holds, &expect)
        .unwrap_or_else(|e| panic!("{context}: union wire round-trip rejected: {e}"));
    analysis.holds
}

#[test]
fn every_verdict_carries_a_checkable_certificate() {
    let schema = schema();
    let pairs: u64 =
        std::env::var("CERT_ORACLE_PAIRS").ok().and_then(|v| v.parse().ok()).unwrap_or(60);
    let strategies = [
        ("indexed", CandidateStrategy::Indexed),
        ("linear-scan", CandidateStrategy::LinearScan),
        ("bitset", CandidateStrategy::Bitset),
        ("adaptive", CandidateStrategy::Adaptive),
    ];
    let mut positives = 0u64;
    let mut negatives = 0u64;
    let mut checked = 0u64;
    for seed in 0..pairs {
        let q1 = random_query(seed);
        let q2 = random_query(seed + 30_000);
        let (Ok(p1), Ok(p2)) = (co_core::prepare(&q1, &schema), co_core::prepare(&q2, &schema))
        else {
            continue;
        };
        // The verdict (and its certificate) must not depend on how the
        // kernel enumerates candidates or how many threads it uses.
        let mut baseline: Option<(Option<bool>, Option<bool>)> = None;
        for (sname, strategy) in strategies {
            set_default_strategy(strategy);
            for threads in [1usize, 2] {
                par::set_kernel_threads(threads);
                let context = format!("pair {seed} [{sname}, {threads} thread(s)]");
                let fwd = certified_verdict(&p1, &p2, &format!("{context} fwd"));
                let bwd = certified_verdict(&p2, &p1, &format!("{context} bwd"));
                match &baseline {
                    None => baseline = Some((fwd, bwd)),
                    Some(expected) => assert_eq!(
                        (fwd, bwd),
                        *expected,
                        "{context}: verdict differs from the first configuration"
                    ),
                }
                for v in [fwd, bwd].into_iter().flatten() {
                    checked += 1;
                    if v {
                        positives += 1;
                    } else {
                        negatives += 1;
                    }
                }
            }
        }
    }
    // Union phase: every UCHECK-shaped verdict must carry a checkable
    // COUNION1 certificate under the same configuration sweep, in both
    // directions.
    let union_pairs = (pairs / 2).max(12);
    let (mut u_positives, mut u_negatives) = (0u64, 0u64);
    for seed in 0..union_pairs {
        let (u1, u2) = union_pair(seed);
        let d1 = co_lang::parse_union_coql(&u1).expect("left union parses");
        let d2 = co_lang::parse_union_coql(&u2).expect("right union parses");
        let (Ok(l), Ok(r)) =
            (co_core::prepare_union(&d1, &schema), co_core::prepare_union(&d2, &schema))
        else {
            continue;
        };
        let mut baseline: Option<(bool, bool)> = None;
        for (sname, strategy) in strategies {
            set_default_strategy(strategy);
            for threads in [1usize, 2] {
                par::set_kernel_threads(threads);
                let context = format!("union pair {seed} [{sname}, {threads} thread(s)]");
                let fwd = certified_union_verdict(&l, &r, &format!("{context} fwd"));
                let bwd = certified_union_verdict(&r, &l, &format!("{context} bwd"));
                match &baseline {
                    None => baseline = Some((fwd, bwd)),
                    Some(expected) => assert_eq!(
                        (fwd, bwd),
                        *expected,
                        "{context}: union verdict differs from the first configuration \
                         on {u1} ;; {u2}"
                    ),
                }
            }
        }
        if let Some((fwd, bwd)) = baseline {
            for v in [fwd, bwd] {
                if v {
                    u_positives += 1;
                } else {
                    u_negatives += 1;
                }
            }
        }
    }

    set_default_strategy(CandidateStrategy::Adaptive);
    par::set_kernel_threads(0);
    // A sweep that generated only one verdict polarity (or nothing at
    // all) would vacuously pass — demand both kinds of evidence.
    assert!(
        positives > 0 && negatives > 0,
        "degenerate workload: {checked} verdicts, {positives} positive / {negatives} negative"
    );
    assert!(
        u_positives > 0 && u_negatives > 0,
        "degenerate union workload: {u_positives} positive / {u_negatives} negative unions"
    );
}

// ---------------------------------------------------------------------------
// Adversarial drill: the real `coqlc` binary against a lying server.
// ---------------------------------------------------------------------------

/// A scripted server that accepts exactly one connection per canned
/// reply (coqlc dials a fresh connection per exchange: first `SCHEMA`,
/// then `CERT UCHECK`), answers with the canned bytes regardless of the
/// request, and drains the trailing `QUIT`.
fn lying_server(replies: Vec<String>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        for reply in replies {
            let Ok((stream, _)) = listener.accept() else { return };
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut request = String::new();
            if reader.read_line(&mut request).is_err() {
                return;
            }
            let mut writer = stream;
            if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
                return;
            }
            let mut quit = String::new();
            let _ = reader.read_line(&mut quit);
        }
    });
    addr
}

/// An honest in-process `coqld` for the positive control.
fn honest_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(co_service::Engine::new(co_service::EngineConfig {
        cache_shards: 4,
        cache_per_shard: 64,
        ..co_service::EngineConfig::default()
    }));
    thread::spawn(move || {
        let _ = co_service::serve(
            listener,
            engine,
            co_service::ServerConfig { max_connections: 8, ..co_service::ServerConfig::default() },
        );
    });
    addr
}

fn run_coqlc_cert(addr: SocketAddr, files: &[PathBuf; 3]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_coqlc"))
        .args(["cert", "--addr", &addr.to_string()])
        .args(files)
        .output()
        .expect("spawn coqlc")
}

fn ucheck_reply(verdict: bool, cert_wire: &str) -> String {
    format!("OK holds={verdict} witnesses=1 left=1 right=2 pairs=1 cached=false\n{cert_wire}END\n")
}

/// `coqlc cert --addr` must re-check every `UnionWitness` locally: a
/// server reply whose witness names the wrong disjunct, or whose branch
/// counterexample actually satisfies the union, exits with code 6 no
/// matter how confident the verdict line sounds. An honest server first
/// establishes the positive control (exit 0, locally certified).
#[test]
fn forged_union_certificates_exit_six_from_coqlc_cert() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cert_oracle_coqlc");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let write = |name: &str, text: &str| -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, text).expect("write temp file");
        p
    };
    let q1 = "select x.B from x in R where x.A = 1";
    let q2 = "select x.B from x in R where x.A = 1 or select y.B from y in R where y.A = 2";
    let files = [
        write("schema.coql", "R(A, B)\nS(C)\n"),
        write("q1.coql", &format!("{q1}\n")),
        write("q2.coql", &format!("{q2}\n")),
    ];

    // Positive control: an honest coqld round trip certifies locally.
    let honest = run_coqlc_cert(honest_server(), &files);
    assert!(
        honest.status.success(),
        "honest server run failed: {}",
        String::from_utf8_lossy(&honest.stderr)
    );
    assert!(
        String::from_utf8_lossy(&honest.stdout).contains("certified by local co-cert re-check"),
        "honest run did not report a local re-check"
    );

    // Build a *genuine* certificate to tamper with: q1 ⊑ q2 via right
    // disjunct 0 (the only one sharing q1's constant).
    let schema = schema();
    let d1 = co_lang::parse_union_coql(q1).unwrap();
    let d2 = co_lang::parse_union_coql(q2).unwrap();
    let l = co_core::prepare_union(&d1, &schema).unwrap();
    let r = co_core::prepare_union(&d2, &schema).unwrap();
    let analysis = co_core::union_contained_prepared(&l, &r).unwrap();
    assert!(analysis.holds, "fixture must hold: q1 is q2's first disjunct");
    let genuine = co_core::certify_union_prepared(&l, &r, &analysis).unwrap();
    assert_eq!(genuine.witnesses[0].0, 0, "fixture witness must be the constant-1 disjunct");

    let ltrees: Vec<_> = l.disjuncts.iter().map(|p| &p.tree).collect();
    let rtrees: Vec<_> = r.disjuncts.iter().map(|p| &p.tree).collect();
    let expect =
        |j: usize, i: usize| co_core::cert_path(co_core::expected_union_path(&l, &r, j, i));

    // Forgery 1: the witness names the wrong disjunct. The embedded
    // scalar evidence maps constants of right disjunct 0, so redirecting
    // it at the constant-2 disjunct must fail the trusted checker.
    let mut wrong_index = genuine.clone();
    wrong_index.witnesses[0].0 = 1;
    assert!(
        wrong_index.check_against(&ltrees, &rtrees, true, &expect).is_err(),
        "misdirected witness must not re-check"
    );
    let out = run_coqlc_cert(
        lying_server(vec![
            "OK schema registered\n".to_string(),
            ucheck_reply(true, &wrong_index.to_wire()),
        ]),
        &files,
    );
    assert_eq!(out.status.code(), Some(6), "wrong-disjunct witness must exit 6");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("certfail"),
        "wrong-disjunct stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Forgery 2: a refutation whose branch counterexample actually
    // satisfies the union. The scalar counterexample proving
    // q1 ⋢ σ_{A=2} satisfies q1 — and therefore right disjunct 0 — so a
    // cert reusing it for every branch claims a counterexample that the
    // union in fact contains.
    let neg = co_core::contained_prepared(&l.disjuncts[0], &r.disjuncts[1]).unwrap();
    assert!(!neg.holds, "σ_{{A=1}} ⋢ σ_{{A=2}}");
    let neg_cert = co_core::certify_prepared(&l.disjuncts[0], &r.disjuncts[1], &neg).unwrap();
    let satisfied_union = co_cert::UnionCert {
        holds: false,
        left: 1,
        right: 2,
        witnesses: vec![],
        refuted: Some(0),
        branches: vec![(0, neg_cert.clone()), (1, neg_cert)],
    };
    assert!(
        satisfied_union.check_against(&ltrees, &rtrees, false, &expect).is_err(),
        "a counterexample the union satisfies must not re-check"
    );
    let out = run_coqlc_cert(
        lying_server(vec![
            "OK schema registered\n".to_string(),
            ucheck_reply(false, &satisfied_union.to_wire()),
        ]),
        &files,
    );
    assert_eq!(out.status.code(), Some(6), "satisfied-union counterexample must exit 6");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("certfail"),
        "satisfied-union stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
