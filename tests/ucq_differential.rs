//! The UCQ differential wall: seeded union-containment pairs decided
//! three independent ways —
//!
//! 1. the shipped per-disjunct engine (`co_core::union_contained_prepared`,
//!    indexed/bitset hom kernels, short-circuit on the first containing
//!    disjunct),
//! 2. a naive reference that expands the union and tests each CQ pair
//!    directly through the scalar `co_core::contained_in` pipeline
//!    (Sagiv–Yannakakis by hand: `∪Pⱼ ⊑ ∪Qᵢ` iff every `Pⱼ` is contained
//!    in some `Qᵢ`), and
//! 3. `UCHECK` against live in-process `coqld` servers,
//!
//! with 100% verdict agreement demanded across every
//! [`CandidateStrategy`] × {1, 2} kernel-thread configuration, and both
//! verdict polarities required in the workload.
//!
//! One `#[test]` on purpose: strategy and kernel-thread selection are
//! process-global, so concurrent test threads would race on them.
//!
//! `UCQ_DIFFERENTIAL_PAIRS` (env) scales the pair count; the default
//! meets the PR-10 floor of 200 decided pairs, `scripts/verify.sh` drives
//! it explicitly.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use co_cq::hom::{set_default_strategy, CandidateStrategy};
use co_cq::Schema;
use co_lang::Expr;
use co_object::par;
use co_service::{serve, Engine, EngineConfig, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
}

const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

/// An abstract disjunct: one of three head classes over `R(A,B); S(C)`,
/// with optional constant filters. Disjuncts in one union share a class,
/// so every generated union is well-typed by construction.
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

    /// A disjunct that contains `self`: the same shape with one or both
    /// filters dropped.
    fn generalized(self, rng: &mut StdRng) -> Disjunct {
        Disjunct {
            class: self.class,
            outer: if rng.gen_bool(0.7) { None } else { self.outer },
            inner: if rng.gen_bool(0.7) { None } else { self.inner },
        }
    }

    /// One concrete COQL rendering, with fresh variable names and
    /// coin-flipped equality orientations.
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
        match self.class {
            0 => match outer_cond {
                Some(c) => format!("select {o}.B from {o} in R where {c}"),
                None => format!("select {o}.B from {o} in R"),
            },
            1 => {
                let head = format!("[a: {o}.A, b: {o}.B]");
                match outer_cond {
                    Some(c) => format!("select {head} from {o} in R where {c}"),
                    None => format!("select {head} from {o} in R"),
                }
            }
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
                let inner =
                    format!("(select {i}.C from {i} in S where {})", inner_conds.join(" and "));
                let head = format!("[a: {o}.A, g: {inner}]");
                match outer_cond {
                    Some(c) => format!("select {head} from {o} in R where {c}"),
                    None => format!("select {head} from {o} in R"),
                }
            }
        }
    }
}

/// One seeded union pair as text (`<q> [or <q>]*` per side). The right
/// side mixes generalizations/copies of left disjuncts with fresh random
/// ones, so both verdict polarities occur at useful rates.
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
                    picked // α-renamed copy after rendering
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

/// The naive reference: expand both unions and test each CQ pair directly
/// through the full scalar pipeline (fresh parse → canonicalize →
/// decide), with no prepared-state reuse, no short-circuit ordering
/// tricks, and no memo.
fn naive_union_verdict(left: &[Expr], right: &[Expr], schema: &Schema) -> bool {
    left.iter().all(|p| {
        right.iter().any(|q| {
            co_core::contained_in(p, q, schema).map(|analysis| analysis.holds).unwrap_or(false)
        })
    })
}

fn start_server(kernel_threads: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 256,
        kernel_threads,
        ..EngineConfig::default()
    }));
    thread::spawn(move || {
        let _ =
            serve(listener, engine, ServerConfig { max_connections: 8, ..ServerConfig::default() });
    });
    addr
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to coqld");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn send(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_string()
    }

    fn ucheck(&mut self, u1: &str, u2: &str) -> bool {
        let reply = self.send(&format!("UCHECK app {u1} ;; {u2}"));
        if let Some(rest) = reply.strip_prefix("OK holds=") {
            return rest.starts_with("true");
        }
        panic!("UCHECK {u1} ;; {u2} → {reply}");
    }
}

#[test]
fn three_way_union_verdicts_agree_across_configurations() {
    let schema = schema();
    let target: usize =
        std::env::var("UCQ_DIFFERENTIAL_PAIRS").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let strategies = [
        ("indexed", CandidateStrategy::Indexed),
        ("linear-scan", CandidateStrategy::LinearScan),
        ("bitset", CandidateStrategy::Bitset),
        ("adaptive", CandidateStrategy::Adaptive),
    ];
    let mut clients: Vec<(usize, Client)> =
        [1usize, 2].iter().map(|&t| (t, Client::connect(start_server(t)))).collect();
    for (_, client) in &mut clients {
        assert!(client.send("SCHEMA app R(A, B); S(C)").starts_with("OK"));
    }

    let (mut decided, mut positives, mut negatives) = (0usize, 0usize, 0usize);
    let mut seed = 0u64;
    while decided < target {
        seed += 1;
        assert!(seed < 64 * target as u64, "generator starved: {decided}/{target} pairs");
        let (u1, u2) = union_pair(seed);
        let d1 = co_lang::parse_union_coql(&u1).expect("left union parses");
        let d2 = co_lang::parse_union_coql(&u2).expect("right union parses");
        let (Ok(l), Ok(r)) =
            (co_core::prepare_union(&d1, &schema), co_core::prepare_union(&d2, &schema))
        else {
            continue;
        };

        // Every kernel configuration must agree with itself, with the
        // naive expansion under the same configuration, and with the
        // first configuration's verdict.
        let mut verdict: Option<bool> = None;
        for (sname, strategy) in strategies {
            set_default_strategy(strategy);
            for threads in [1usize, 2] {
                par::set_kernel_threads(threads);
                let context = format!("pair {seed} [{sname}, {threads} thread(s)]");
                let engine_verdict = match co_core::union_contained_prepared(&l, &r) {
                    Ok(analysis) => analysis.holds,
                    Err(e) => panic!("{context}: {u1} ;; {u2}: {e}"),
                };
                let naive = naive_union_verdict(&d1, &d2, &schema);
                assert_eq!(
                    engine_verdict, naive,
                    "{context}: engine vs naive expansion disagree on {u1} ;; {u2}"
                );
                match verdict {
                    None => verdict = Some(engine_verdict),
                    Some(expected) => assert_eq!(
                        engine_verdict, expected,
                        "{context}: verdict differs from the first configuration on {u1} ;; {u2}"
                    ),
                }
            }
        }
        let expected = verdict.expect("at least one configuration decided");

        // The live servers (1 and 2 kernel threads) must answer the same
        // verdict through the wire path — first compute, then memo.
        for (threads, client) in &mut clients {
            let served = client.ucheck(&u1, &u2);
            assert_eq!(
                served, expected,
                "server[{threads} kernel thread(s)] disagrees on {u1} ;; {u2}"
            );
        }

        decided += 1;
        if expected {
            positives += 1;
        } else {
            negatives += 1;
        }
    }
    set_default_strategy(CandidateStrategy::Adaptive);
    par::set_kernel_threads(0);

    // A workload that only ever produced one polarity would vacuously
    // pass — demand real evidence of both.
    assert!(
        positives > 0 && negatives > 0,
        "degenerate workload: {decided} pairs, {positives} positive / {negatives} negative"
    );
}
