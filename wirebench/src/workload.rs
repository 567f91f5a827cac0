//! The three workloads: seeded request generators whose every expected
//! verdict is fixed by construction before any request is sent.

use std::collections::VecDeque;
use std::sync::Arc;

/// Schema every workload registers (through the `SCHEMA` verb) under
/// [`SCHEMA_NAME`]; the same relations as the E-series `coql_schema`.
pub const SCHEMA_DECL: &str = "R(A, B); S(C)";
pub const SCHEMA_NAME: &str = "app";

const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

/// SplitMix64: a tiny seeded generator, so the inputs depend on `--seed`
/// and on nothing else.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    fn var(&mut self) -> &'static str {
        VARS[self.below(VARS.len())]
    }

    fn var_except(&mut self, not: &str) -> &'static str {
        loop {
            let v = self.var();
            if v != not {
                return v;
            }
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `l = r` or `r = l`.
    fn eq(&mut self, l: &str, r: &str) -> String {
        if self.coin() {
            format!("{l} = {r}")
        } else {
            format!("{r} = {l}")
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Check,
    Equiv,
    UCheck,
    UEquiv,
}

impl Op {
    fn verb(self) -> &'static str {
        match self {
            Op::Check => "CHECK",
            Op::Equiv => "EQUIV",
            Op::UCheck => "UCHECK",
            Op::UEquiv => "UEQUIV",
        }
    }

    pub fn is_union(self) -> bool {
        matches!(self, Op::UCheck | Op::UEquiv)
    }

    pub fn both_directions(self) -> bool {
        matches!(self, Op::Equiv | Op::UEquiv)
    }
}

/// One request and the verdict it must get. `forward` is `q1 ⊑ q2`;
/// `backward` (`q2 ⊑ q1`) is checked for the equivalence verbs only.
#[derive(Clone, Debug)]
pub struct Req {
    /// Which generator family built it (`e13`, `e5`, `decoy`, …).
    pub family: &'static str,
    pub op: Op,
    pub cert: bool,
    pub q1: String,
    pub q2: String,
    pub forward: bool,
    pub backward: bool,
}

impl Req {
    /// The request without prefixes: the identity of a decision.
    pub fn key(&self) -> String {
        format!("{} {SCHEMA_NAME} {} ;; {}", self.op.verb(), self.q1, self.q2)
    }

    /// The wire line, with `CERT` and (when traced) `EXPLAIN` prefixes.
    pub fn line(&self, explain: bool) -> String {
        let mut line = String::new();
        if self.cert {
            line.push_str("CERT ");
        }
        if explain {
            line.push_str("EXPLAIN ");
        }
        line.push_str(&self.key());
        line
    }

    /// Whether an `OK` reply runs on to `END`.
    pub fn multiline(&self, explain: bool) -> bool {
        self.cert || explain
    }

    /// Containment directions this request decides.
    pub fn directions(&self) -> u64 {
        if self.op.both_directions() {
            2
        } else {
            1
        }
    }

    /// Whether the verdict line agrees with the expected verdict.
    pub fn verdict_ok(&self, line: &str) -> bool {
        use crate::wire::field;
        let is =
            |key: &str, want: bool| field(line, key) == Some(if want { "true" } else { "false" });
        if !line.starts_with("OK") {
            return false;
        }
        match self.op {
            Op::Check | Op::UCheck => is("holds", self.forward),
            Op::Equiv => {
                let both = self.forward && self.backward;
                is("forward", self.forward)
                    && is("backward", self.backward)
                    && (both || field(line, "verdict") == Some("not-equivalent"))
            }
            Op::UEquiv => {
                is("forward", self.forward)
                    && is("backward", self.backward)
                    && is("equivalent", self.forward && self.backward)
            }
        }
    }
}

/// An endless per-connection request stream.
pub trait Source: Send {
    fn next_req(&mut self) -> Arc<Req>;
    /// True between cycles of a repeating stream (always for streams that
    /// never repeat), so a window can end on a whole number of cycles.
    fn at_cycle_start(&self) -> bool {
        true
    }
}

/// Cycles through a fixed list.
pub struct Cycle {
    reqs: Arc<Vec<Arc<Req>>>,
    pos: usize,
}

impl Source for Cycle {
    fn next_req(&mut self) -> Arc<Req> {
        let r = Arc::clone(&self.reqs[self.pos % self.reqs.len()]);
        self.pos += 1;
        r
    }

    fn at_cycle_start(&self) -> bool {
        self.pos.is_multiple_of(self.reqs.len())
    }
}

const UNION_CERT_CONNECTIONS: usize = 2;

/// How a workload is served and driven.
pub struct Workload {
    pub name: &'static str,
    /// Front the shards with `coqld-router`.
    pub router: bool,
    pub shards: usize,
    /// Extra `coqld` flags (memo sizing).
    pub shard_args: Vec<String>,
    /// Requests per connection sent after registration and before timing.
    pub warmup: usize,
    /// End a traced window on a whole cycle of every connection's stream,
    /// so per-request kernel counts average over the same requests in
    /// every run.
    pub whole_cycles: bool,
    /// Per-connection fixed lists; empty for the generated `union_cert`
    /// streams.
    lists: Vec<Arc<Vec<Arc<Req>>>>,
    seed: u64,
}

impl Workload {
    /// Fresh streams, one per connection, identical for every call with
    /// the same seed.
    pub fn sources(&self) -> Vec<Box<dyn Source>> {
        if self.lists.is_empty() {
            return (0..UNION_CERT_CONNECTIONS)
                .map(|c| Box::new(UnionCertGen::new(self.seed, c)) as Box<dyn Source>)
                .collect();
        }
        self.lists
            .iter()
            .map(|l| Box::new(Cycle { reqs: Arc::clone(l), pos: 0 }) as Box<dyn Source>)
            .collect()
    }

    /// Requests whose constructed verdicts `co-cert` confirms before
    /// timing: every distinct fixed request, or — for the endless
    /// `union_cert` streams — the first request of each family and
    /// polarity. (Certifying one refuted decoy union takes seconds.)
    pub fn oracle_sample(&self) -> Vec<Arc<Req>> {
        if self.lists.is_empty() {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for mut src in self.sources() {
                for _ in 0..64 {
                    let r = src.next_req();
                    if seen.insert((r.family, r.forward, r.backward)) {
                        out.push(r);
                    }
                }
            }
            return out;
        }
        self.lists.iter().flat_map(|l| l.iter().cloned()).collect()
    }
}

pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
    match name {
        "dup_hits" => Ok(dup_hits(seed)),
        "cold_kernel" => Ok(cold_kernel(seed)),
        "union_cert" => Ok(Workload {
            name: "union_cert",
            router: true,
            shards: 2,
            shard_args: Vec::new(),
            warmup: 16,
            whole_cycles: false,
            lists: Vec::new(),
            seed,
        }),
        other => Err(format!("unknown workload `{other}` (dup_hits, cold_kernel, union_cert)")),
    }
}

/// E13 renderings (12 semantic pairs, α-renamed and reordered), each sent
/// as `CHECK` forward, `CHECK` backward and `EQUIV`. Every E13 pair is a
/// filtered query against its unfiltered superset, so forward holds and
/// backward fails by construction.
fn dup_hits(seed: u64) -> Workload {
    let pairs = co_bench::workloads::service_workload(240, 12, seed);
    let per_conn = pairs.len() / 2;
    let lists = pairs
        .chunks(per_conn)
        .map(|chunk| {
            let reqs = chunk
                .iter()
                .flat_map(|(q1, q2)| {
                    [
                        scalar("e13", Op::Check, q1, q2, true, false),
                        scalar("e13", Op::Check, q2, q1, false, true),
                        scalar("e13", Op::Equiv, q1, q2, true, false),
                    ]
                })
                .map(Arc::new)
                .collect();
            Arc::new(reqs)
        })
        .collect();
    Workload {
        name: "dup_hits",
        router: true,
        shards: 2,
        shard_args: Vec::new(),
        warmup: 24,
        whole_cycles: false,
        lists,
        seed,
    }
}

fn scalar(family: &'static str, op: Op, q1: &str, q2: &str, forward: bool, backward: bool) -> Req {
    Req { family, op, cert: false, q1: q1.to_string(), q2: q2.to_string(), forward, backward }
}

/// Distinct pairs cycled through a one-shard memo far smaller than the
/// cycle, so every request misses: E5-style emptiness splits and
/// E13-style grouping pairs, each with its own filter constant, in both
/// directions.
fn cold_kernel(seed: u64) -> Workload {
    const INSTANCES: u64 = 16;
    // Possibly-empty children per E5 instance: the contained direction
    // walks 256 emptiness patterns, a few ms of kernel time. Larger `m`
    // lets a noisy machine's compute jitter set `latency_p99_us`.
    const M: usize = 6;
    let base = 1000 * (1 + seed % 997);
    let mut reqs = Vec::new();
    for i in 0..INSTANCES {
        let c = base + i;
        let (f, u) = (many_children(M, Some(c)), many_children(M, None));
        reqs.push(scalar("e5", Op::Check, &f, &u, true, false));
        reqs.push(scalar("e5", Op::Check, &u, &f, false, true));
        let k = base + INSTANCES + i;
        let (f, u) = (grouped(k, "x", "y"), grouped_unfiltered("x", "y"));
        reqs.push(scalar("grouped", Op::Check, &f, &u, true, false));
        reqs.push(scalar("grouped", Op::Check, &u, &f, false, true));
    }
    Rng::new(seed).shuffle(&mut reqs);
    Workload {
        name: "cold_kernel",
        router: false,
        shards: 1,
        // 1 memo shard of 4 entries against a 64-request cycle: LRU
        // evicts every verdict long before it comes round again.
        shard_args: ["--shards", "1", "--capacity", "4"].map(String::from).to_vec(),
        warmup: 8,
        whole_cycles: true,
        lists: vec![Arc::new(reqs.into_iter().map(Arc::new).collect())],
        seed,
    }
}

/// `select [a: x.A, g0: (select y0.C from y0 in S where y0.C = x.A), …]
/// from x in R [where x.A = c]` — the E5 query with `m` possibly-empty
/// children, optionally filtered.
fn many_children(m: usize, filter: Option<u64>) -> String {
    let mut fields = vec!["a: x.A".to_string()];
    for i in 0..m {
        let col = if i % 2 == 0 { "A" } else { "B" };
        fields.push(format!("g{i}: (select y{i}.C from y{i} in S where y{i}.C = x.{col})"));
    }
    let filter = filter.map(|c| format!(" where x.A = {c}")).unwrap_or_default();
    format!("select [{}] from x in R{filter}", fields.join(", "))
}

/// The E13 nested family: a grouped inner select filtered by `k`.
fn grouped(k: u64, o: &str, i: &str) -> String {
    format!("select [a: {o}.A, g: (select {i}.C from {i} in S where {i}.C = {o}.A and {i}.C = {k})] from {o} in R")
}

fn grouped_unfiltered(o: &str, i: &str) -> String {
    format!("select [a: {o}.A, g: (select {i}.C from {i} in S where {i}.C = {o}.A)] from {o} in R")
}

/// One semantic `union_cert` item; a repeat re-renders it with fresh
/// variable names, equality orientation and disjunct order.
#[derive(Clone)]
enum Item {
    /// `UCHECK σ_{A=c}R ;; ∪ σ_{A=cⱼ}R`: holds iff `c` is among the `cⱼ`.
    Filter { left: u64, rights: Vec<u64> },
    /// `UEQUIV ∪ σ_{A=aᵢ}R ;; ∪ σ_{A=bⱼ}R` over distinct constants: each
    /// direction holds iff its left constants are a subset of the right's.
    FilterEquiv { left: Vec<u64>, right: Vec<u64> },
    /// A triangle (the 3-colouring palette) against a union of one
    /// Grötzsch-graph disjunct (chromatic number 4, so it has no
    /// homomorphism into a triangle) and, when `containing`, a disjunct
    /// that trivially holds.
    Decoy { c: u64, containing: bool },
    /// `CERT CHECK` of an E13 pair with constant `k`: the filtered side is
    /// contained in the unfiltered one, never the reverse.
    Cert { k: u64, nested: bool, forward: bool },
}

/// The fresh-item mix of `union_cert`, dealt as a shuffled deck so every
/// run (and every seed) sends the same shares of each family and
/// polarity: a decoy costs the shards ten times what a filter union does,
/// so a mix left to chance would move `server_cpu_us_per_req` by seed.
#[derive(Clone, Copy)]
enum Shape {
    Filter {
        holds: bool,
    },
    /// Left ⊆ right as constant sets: both ways, one way, or neither.
    FilterEquiv {
        forward: bool,
        backward: bool,
    },
    Decoy {
        containing: bool,
    },
    Cert {
        nested: bool,
        forward: bool,
    },
}

const DECK: [Shape; 18] = [
    Shape::Filter { holds: true },
    Shape::Filter { holds: true },
    Shape::Filter { holds: true },
    Shape::Filter { holds: false },
    Shape::Filter { holds: false },
    Shape::Filter { holds: false },
    Shape::FilterEquiv { forward: true, backward: true },
    Shape::FilterEquiv { forward: true, backward: false },
    Shape::FilterEquiv { forward: true, backward: false },
    Shape::FilterEquiv { forward: false, backward: false },
    Shape::Decoy { containing: true },
    Shape::Decoy { containing: true },
    Shape::Decoy { containing: false },
    Shape::Decoy { containing: false },
    Shape::Cert { nested: false, forward: true },
    Shape::Cert { nested: false, forward: false },
    Shape::Cert { nested: true, forward: true },
    Shape::Cert { nested: true, forward: false },
];

/// How many fresh items back a repeat reaches: far enough that the
/// repeat is a separate request, near enough that its verdict is still
/// memoized.
const REPEAT_DISTANCE: usize = 4;

/// The `union_cert` stream of one connection: even positions are fresh
/// items (constants no other item on any connection uses), odd positions
/// repeat the fresh item [`REPEAT_DISTANCE`] back.
struct UnionCertGen {
    rng: Rng,
    next_const: u64,
    deck: Vec<Shape>,
    recent: VecDeque<Item>,
    count: u64,
}

impl UnionCertGen {
    fn new(seed: u64, conn: usize) -> UnionCertGen {
        UnionCertGen {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(conn as u64 + 1)),
            next_const: 1_000_000 * (conn as u64 + 1),
            deck: Vec::new(),
            recent: VecDeque::new(),
            count: 0,
        }
    }

    fn fresh_const(&mut self) -> u64 {
        self.next_const += 1;
        self.next_const
    }

    fn fresh_item(&mut self) -> Item {
        if self.deck.is_empty() {
            self.deck = DECK.to_vec();
            self.rng.shuffle(&mut self.deck);
        }
        match self.deck.pop().expect("deck refilled above") {
            Shape::Filter { holds } => {
                let left = self.fresh_const();
                let mut rights: Vec<u64> = (0..4).map(|_| self.fresh_const()).collect();
                if holds {
                    rights[0] = left;
                }
                Item::Filter { left, rights }
            }
            Shape::FilterEquiv { forward, backward } => {
                let (a, b, d) = (self.fresh_const(), self.fresh_const(), self.fresh_const());
                match (forward, backward) {
                    (true, true) => Item::FilterEquiv { left: vec![a, b], right: vec![b, a] },
                    (true, false) => Item::FilterEquiv { left: vec![a], right: vec![a, b] },
                    _ => Item::FilterEquiv { left: vec![a, b], right: vec![a, d] },
                }
            }
            Shape::Decoy { containing } => Item::Decoy { c: self.fresh_const(), containing },
            Shape::Cert { nested, forward } => {
                Item::Cert { k: self.fresh_const(), nested, forward }
            }
        }
    }

    fn render(&mut self, item: &Item) -> Req {
        let rng = &mut self.rng;
        match item {
            Item::Filter { left, rights } => {
                let l = filter_select(*left, rng);
                let r = union_of(rights, rng);
                Req {
                    family: "filter",
                    op: Op::UCheck,
                    cert: false,
                    q1: l,
                    q2: r,
                    forward: rights.contains(left),
                    backward: false,
                }
            }
            Item::FilterEquiv { left, right } => {
                let subset = |a: &[u64], b: &[u64]| a.iter().all(|c| b.contains(c));
                Req {
                    family: "filter_equiv",
                    op: Op::UEquiv,
                    cert: false,
                    q1: union_of(left, rng),
                    q2: union_of(right, rng),
                    forward: subset(left, right),
                    backward: subset(right, left),
                }
            }
            Item::Decoy { c, containing } => {
                let mut disjuncts = vec![graph_select(&GROETZSCH, *c, rng)];
                if *containing {
                    let h = rng.var();
                    disjuncts.push(format!(
                        "select {h}.C from {h} in S where {}",
                        rng.eq(&format!("{h}.C"), &c.to_string())
                    ));
                }
                rng.shuffle(&mut disjuncts);
                Req {
                    family: "decoy",
                    op: Op::UCheck,
                    cert: false,
                    q1: graph_select(&TRIANGLE, *c, rng),
                    q2: disjuncts.join(" or "),
                    forward: *containing,
                    backward: false,
                }
            }
            Item::Cert { k, nested, forward } => {
                let (f, u) = if *nested {
                    let o = rng.var();
                    let i = rng.var_except(o);
                    (grouped(*k, o, i), grouped_unfiltered(o, i))
                } else {
                    let o = rng.var();
                    let cond = rng.eq(&format!("{o}.A"), &k.to_string());
                    (
                        format!("select {o}.B from {o} in R where {cond}"),
                        format!("select {o}.B from {o} in R"),
                    )
                };
                let (q1, q2) = if *forward { (f, u) } else { (u, f) };
                Req {
                    family: "cert",
                    op: Op::Check,
                    cert: true,
                    q1,
                    q2,
                    forward: *forward,
                    backward: false,
                }
            }
        }
    }
}

impl Source for UnionCertGen {
    fn next_req(&mut self) -> Arc<Req> {
        self.count += 1;
        let item = if self.count.is_multiple_of(2) && !self.recent.is_empty() {
            self.recent[0].clone()
        } else {
            let item = self.fresh_item();
            if self.recent.len() == REPEAT_DISTANCE {
                self.recent.pop_front();
            }
            self.recent.push_back(item.clone());
            item
        };
        Arc::new(self.render(&item))
    }
}

/// `select o.B from o in R where o.A = c`, with a random variable and
/// equality orientation.
fn filter_select(c: u64, rng: &mut Rng) -> String {
    let o = rng.var();
    format!("select {o}.B from {o} in R where {}", rng.eq(&format!("{o}.A"), &c.to_string()))
}

/// A union of [`filter_select`]s in shuffled order.
fn union_of(consts: &[u64], rng: &mut Rng) -> String {
    let mut parts: Vec<String> = consts.iter().map(|&c| filter_select(c, rng)).collect();
    rng.shuffle(&mut parts);
    parts.join(" or ")
}

/// A directed graph as `(vertices, edges)`.
struct Graph {
    vertices: usize,
    edges: &'static [(usize, usize)],
}

/// K3 with both directions of every edge: the 3-colouring palette.
const TRIANGLE: Graph =
    Graph { vertices: 3, edges: &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)] };

/// The Grötzsch graph (Mycielskian of C5): 11 vertices, 20 edges,
/// chromatic number 4.
const GROETZSCH: Graph = Graph {
    vertices: 11,
    edges: &[
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        (5, 1),
        (5, 4),
        (6, 0),
        (6, 2),
        (7, 1),
        (7, 3),
        (8, 2),
        (8, 4),
        (9, 3),
        (9, 0),
        (10, 5),
        (10, 6),
        (10, 7),
        (10, 8),
        (10, 9),
    ],
};

/// `select h.C from h in S, w0 in S, …, e0 in R, … where eᵢ.A = w_u.C and
/// eᵢ.B = w_v.C and … and h.C = c`: a graph as a COQL query whose head
/// is pinned to `c`, with randomly chosen generator names.
fn graph_select(g: &Graph, c: u64, rng: &mut Rng) -> String {
    let (h, w, e) = (["h", "k"][rng.below(2)], ["w", "n"][rng.below(2)], ["e", "f"][rng.below(2)]);
    let mut gens = vec![format!("{h} in S")];
    gens.extend((0..g.vertices).map(|v| format!("{w}{v} in S")));
    gens.extend((0..g.edges.len()).map(|i| format!("{e}{i} in R")));
    let mut conds: Vec<String> = g
        .edges
        .iter()
        .enumerate()
        .flat_map(|(i, &(u, v))| {
            [
                rng.eq(&format!("{e}{i}.A"), &format!("{w}{u}.C")),
                rng.eq(&format!("{e}{i}.B"), &format!("{w}{v}.C")),
            ]
        })
        .collect();
    conds.push(rng.eq(&format!("{h}.C"), &c.to_string()));
    format!("select {h}.C from {} where {}", gens.join(", "), conds.join(" and "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_exactly_for_a_seed() {
        for name in ["dup_hits", "cold_kernel", "union_cert"] {
            let w = build(name, 7).unwrap();
            let lines = |w: &Workload| -> Vec<String> {
                w.sources()
                    .iter_mut()
                    .flat_map(|s| (0..50).map(|_| s.next_req().line(false)).collect::<Vec<_>>())
                    .collect()
            };
            assert_eq!(lines(&w), lines(&build(name, 7).unwrap()), "{name}");
            assert_ne!(lines(&w), lines(&build(name, 8).unwrap()), "{name}");
        }
    }

    #[test]
    fn every_workload_has_both_polarities() {
        for name in ["dup_hits", "cold_kernel", "union_cert"] {
            let sample = build(name, 3).unwrap().oracle_sample();
            assert!(sample.iter().any(|r| r.forward), "{name}");
            assert!(sample.iter().any(|r| !r.forward), "{name}");
        }
    }

    #[test]
    fn verdict_lines_are_checked_per_verb() {
        let check = scalar("t", Op::Check, "a", "b", true, false);
        assert!(check.verdict_ok("OK holds=true path=full cached=true fp1=1 fp2=2"));
        assert!(!check.verdict_ok("OK holds=false path=full cached=true fp1=1 fp2=2"));
        assert!(!check.verdict_ok("ERR DEADLINE exceeded"));
        let equiv = scalar("t", Op::Equiv, "a", "b", true, false);
        assert!(
            equiv.verdict_ok("OK verdict=not-equivalent forward=true backward=false cached=true")
        );
        assert!(!equiv.verdict_ok("OK verdict=equivalent forward=true backward=false cached=true"));
        let uequiv = scalar("t", Op::UEquiv, "a", "b", true, true);
        assert!(uequiv.verdict_ok("OK equivalent=true forward=true backward=true cached=false"));
    }
}
