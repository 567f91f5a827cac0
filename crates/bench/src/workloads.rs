//! Workload constructors for experiments E1–E10.
//!
//! Every constructor is deterministic (seeded) so the Criterion benches and
//! the `experiments` runner measure identical inputs.

use co_cq::generate::{chain_query, CqGen, CqGenConfig};
use co_cq::hard::{coloring_instance, Graph};
use co_cq::{ConjunctiveQuery, Schema};
use co_lang::Expr;
use co_object::generate::{GenConfig, ValueGen};
use co_object::Value;
use co_sim::IndexedQuery;

/// E1: a pair of Hoare-comparable random values of roughly `size` nodes.
pub fn hoare_pair(size_hint: usize, seed: u64) -> (Value, Value) {
    let depth = 2 + (size_hint / 60).min(2);
    let config = GenConfig {
        max_depth: depth,
        max_set_len: 3 + size_hint / 25,
        max_record_fields: 3,
        atom_pool: 4,
        empty_set_pct: 10,
    };
    let mut g = ValueGen::new(seed, config);
    let ty = g.type_of_depth(depth);
    let v = g.value_of_type(&ty);
    let w = g.grow(&v);
    (v, w)
}

/// E2 (polynomial side): chain-query containment instances of length `n`.
pub fn chain_pair(n: usize) -> (ConjunctiveQuery, ConjunctiveQuery) {
    (chain_query(n), chain_query(n))
}

/// E2 (exponential side): 3-colorability of a random graph with `n`
/// vertices as a containment instance.
pub fn coloring_pair(n: usize, seed: u64) -> (ConjunctiveQuery, ConjunctiveQuery) {
    // Edge probability near the 3-coloring phase transition keeps the
    // instances genuinely hard for backtracking.
    let g = Graph::random(n, 55, seed);
    coloring_instance(&g, 3)
}

/// E3/E4: a pair of random indexed queries with `atoms` body atoms.
pub fn indexed_pair(atoms: usize, index_arity: usize, seed: u64) -> (IndexedQuery, IndexedQuery) {
    let config = CqGenConfig {
        atoms,
        head_width: index_arity + 1,
        var_pool: atoms + 1,
        ..CqGenConfig::default()
    };
    let mut g = CqGen::new(seed, config);
    (IndexedQuery::from_cq(&g.query(), index_arity), IndexedQuery::from_cq(&g.query(), index_arity))
}

/// E3 positive family: `q(X;Y) :- R(X,Y), chain…` vs a witness-requiring
/// target, scaled by chain length (simulation always holds).
pub fn simulation_positive(n: usize) -> (IndexedQuery, IndexedQuery) {
    use co_cq::parse_query;
    let mut body1 = String::from("R(X, Y)");
    let mut body2 = String::from("R(X, Y), R(X, Y0)");
    for i in 0..n {
        body1.push_str(&format!(", E(Y, W{i})"));
        body2.push_str(&format!(", E(Y, V{i})"));
    }
    let q1 = IndexedQuery::from_cq(&parse_query(&format!("q(X, Y) :- {body1}.")).unwrap(), 1);
    let q2 = IndexedQuery::from_cq(&parse_query(&format!("q(Y0, Y) :- {body2}.")).unwrap(), 1);
    (q1, q2)
}

/// The standard two-relation flat schema used by the COQL experiments.
pub fn coql_schema() -> Schema {
    Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
}

/// E5: a query whose elements carry `children` possibly-empty inner sets —
/// the emptiness case split costs `2^children` patterns per level.
pub fn many_children_query(children: usize) -> Expr {
    let mut fields = vec![("a".to_string(), "x.A".to_string())];
    for i in 0..children {
        let col = if i % 2 == 0 { "A" } else { "B" };
        fields.push((
            format!("g{i}"),
            format!("(select y{i}.C from y{i} in S where y{i}.C = x.{col})"),
        ));
    }
    let body: Vec<String> = fields.iter().map(|(n, e)| format!("{n}: {e}")).collect();
    let src = format!("select [{}] from x in R", body.join(", "));
    co_lang::parse_coql(&src).expect("constructed query parses")
}

/// E6/E9: a nest-style query of set-nesting depth `d` (no empty sets).
pub fn deep_nest_query(d: usize) -> Expr {
    /// An expression of set depth `d`, valid where `x{outer}` is bound.
    fn level(d: usize, outer: usize) -> String {
        if d == 0 {
            return format!("x{outer}.B");
        }
        let v = outer + 1;
        format!(
            "[a: x{outer}.A, g: (select {} from x{v} in R where x{v}.A = x{outer}.A)]",
            level(d - 1, v)
        )
    }
    let src = format!("select {} from x0 in R", level(d.saturating_sub(1), 0));
    co_lang::parse_coql(&src).expect("constructed query parses")
}

/// E11: a nested grouping query whose outer and inner selects each carry
/// `extra` redundant self-join generators.
pub fn redundant_query(extra: usize) -> Expr {
    let mut outer_gens = String::from("x in R");
    for i in 0..extra {
        outer_gens.push_str(&format!(", r{i} in R"));
    }
    let mut outer_conds: Vec<String> = (0..extra).map(|i| format!("r{i}.A = x.A")).collect();
    outer_conds.push("x.A = x.A".to_string());
    let src = format!(
        "select [a: x.A, g: (select y.B from y in R where y.A = x.A)] from {} where {}",
        outer_gens,
        outer_conds.join(" and ")
    );
    co_lang::parse_coql(&src).expect("constructed query parses")
}

/// E7: aggregate query pairs with `extra` redundant self-join atoms.
pub fn agg_pair(extra: usize) -> (co_agg::AggQuery, co_agg::AggQuery) {
    let mut body2 = String::from("R(X, Y)");
    for i in 0..extra {
        body2.push_str(&format!(", R(X, Z{i})"));
    }
    let q1 = co_agg::AggQuery::parse("q(X) :- R(X, Y).", &[("count", "Y")]).unwrap();
    let q2 = co_agg::AggQuery::parse(&format!("q(X) :- {body2}."), &[("count", "Y")]).unwrap();
    (q1, q2)
}

/// E12: a drill-down report of the given nesting depth over
/// `Emp(dept, role, name)`-style columns.
pub fn hierarchical_report(depth: usize) -> co_agg::HierarchicalAgg {
    fn level(d: usize) -> co_agg::HierarchicalAgg {
        let keys: Vec<String> = (0..d + 1).map(|i| format!("K{i}")).collect();
        let body = format!("q({}) :- Emp(K0, K1, K2, N).", keys.join(", "));
        co_agg::HierarchicalAgg::parse(&body, &[("count", "N")], vec![])
            .expect("constructed report parses")
    }
    // Build depth levels from the outside in.
    let mut report = level(depth.saturating_sub(1).min(2));
    for d in (0..depth.saturating_sub(1)).rev() {
        let keys: Vec<String> = (0..d + 1).map(|i| format!("K{i}")).collect();
        let body = format!("q({}) :- Emp(K0, K1, K2, N).", keys.join(", "));
        report = co_agg::HierarchicalAgg::parse(&body, &[("count", "N")], vec![report])
            .expect("constructed report parses");
    }
    report
}

/// E13: a duplicate-heavy serving workload for the `co-service` memo
/// cache: `total` containment pairs over [`coql_schema`], drawn from
/// `distinct` underlying semantic pairs. Every request is re-rendered with
/// freshly randomized variable names, conjunct order, and equality
/// orientation, so only canonical fingerprinting — not text equality —
/// can collapse the duplicates.
pub fn service_workload(total: usize, distinct: usize, seed: u64) -> Vec<(String, String)> {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

    /// `l = r` or `r = l`, chosen by coin flip.
    fn eq(l: &str, r: &str, rng: &mut StdRng) -> String {
        if rng.gen_bool(0.5) {
            format!("{l} = {r}")
        } else {
            format!("{r} = {l}")
        }
    }

    /// One rendering of semantic pair `pair`; the distinguishing constant
    /// `pair / 2` keeps distinct pairs canonically distinct.
    fn render(pair: usize, rng: &mut StdRng) -> (String, String) {
        let k = (pair / 2).to_string();
        let o = VARS[rng.gen_range(0..VARS.len())];
        if pair.is_multiple_of(2) {
            // Flat family: a filtered projection vs its unfiltered superset.
            let mut conds = [eq(&format!("{o}.A"), &k, rng), format!("{o}.B = {o}.B")];
            if rng.gen_bool(0.5) {
                conds.swap(0, 1);
            }
            (
                format!("select {o}.B from {o} in R where {}", conds.join(" and ")),
                format!("select {o}.B from {o} in R"),
            )
        } else {
            // Nested family: a grouped inner select, filtered vs not.
            let i = loop {
                let c = VARS[rng.gen_range(0..VARS.len())];
                if c != o {
                    break c;
                }
            };
            let join = eq(&format!("{i}.C"), &format!("{o}.A"), rng);
            let filter = eq(&format!("{i}.C"), &k, rng);
            let conds = if rng.gen_bool(0.5) {
                format!("{join} and {filter}")
            } else {
                format!("{filter} and {join}")
            };
            (
                format!(
                    "select [a: {o}.A, g: (select {i}.C from {i} in S where {conds})] from {o} in R"
                ),
                format!(
                    "select [a: {o}.A, g: (select {i}.C from {i} in S where {join})] from {o} in R"
                ),
            )
        }
    }

    let mut rng = StdRng::seed_from_u64(seed);
    (0..total)
        .map(|_| {
            let pair = rng.gen_range(0..distinct.max(1));
            render(pair, &mut rng)
        })
        .collect()
}

/// The edge list of the `rounds`-fold Mycielskian of K2 (`rounds = 1` is
/// C5, `2` the 11-vertex Grötzsch graph, `3` a 23-vertex 5-chromatic
/// graph). Every graph in the sequence has chromatic number `rounds + 2`
/// and is edge-critical, hence a core: none of them maps into a triangle,
/// and a backtracking homomorphism search can only learn that by
/// exhausting the 3-coloring space.
fn mycielski_edges(rounds: usize) -> (usize, Vec<(usize, usize)>) {
    let mut n = 2usize;
    let mut edges = vec![(0usize, 1usize)];
    for _ in 0..rounds {
        let z = 2 * n;
        let mut next = Vec::with_capacity(3 * edges.len() + n);
        for &(x, y) in &edges {
            next.push((x, y));
            next.push((n + x, y));
            next.push((x, n + y));
        }
        for i in 0..n {
            next.push((z, n + i));
        }
        edges = next;
        n = 2 * n + 1;
    }
    (n, edges)
}

/// `select h.C from h in S, w0 in S, …, e0 in R, … where e0.A = w_u.C and
/// e0.B = w_v.C and …` — a graph rendered as a COQL query over
/// [`coql_schema`]: one S generator per vertex, one R generator per
/// directed edge, and an unconstrained S head generator so every disjunct
/// shares the (atom) output type.
fn graph_select(vertices: usize, edges: &[(usize, usize)]) -> Expr {
    let mut gens = vec!["h in S".to_string()];
    gens.extend((0..vertices).map(|v| format!("w{v} in S")));
    gens.extend((0..edges.len()).map(|e| format!("e{e} in R")));
    let conds: Vec<String> = edges
        .iter()
        .enumerate()
        .flat_map(|(i, &(u, v))| [format!("e{i}.A = w{u}.C"), format!("e{i}.B = w{v}.C")])
        .collect();
    let src = format!("select h.C from {} where {}", gens.join(", "), conds.join(" and "));
    co_lang::parse_coql(&src).expect("constructed graph query parses")
}

/// PR10 perf: a union-containment instance exposing the per-disjunct
/// short-circuit. The left side is a single K3-palette query (a triangle
/// with both edge directions) over [`coql_schema`]; the right union
/// carries `k` disjuncts — `k - 1` decoys, each demanding a homomorphic
/// image of the `rounds`-fold Mycielski graph (chromatic number
/// `rounds + 2 ≥ 4`, so no such image exists in a triangle, and the
/// refutation must exhaust the 3-coloring search) — plus one trivially
/// containing disjunct placed first (`hit_first`) or last. Both
/// placements decide `holds = true`; only the number of per-disjunct
/// decisions the short-circuit allows differs.
pub fn union_heavy_instance(k: usize, rounds: usize, hit_first: bool) -> (Vec<Expr>, Vec<Expr>) {
    assert!(k >= 2, "a union of at least two disjuncts is needed to move the hit");
    // K3 with both directions of every edge: the 3-coloring palette.
    let palette: Vec<(usize, usize)> = vec![(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)];
    let left = vec![graph_select(3, &palette)];
    let (n, edges) = mycielski_edges(rounds.max(2));
    let mut right: Vec<Expr> = (0..k - 1).map(|_| graph_select(n, &edges)).collect();
    let containing = co_lang::parse_coql("select h.C from h in S").expect("containing parses");
    if hit_first {
        right.insert(0, containing);
    } else {
        right.push(containing);
    }
    (left, right)
}

/// E14: a duplicate-heavy `UCHECK` serving workload: `total` union pairs
/// over [`coql_schema`], drawn from `distinct` semantic pairs. Each side
/// is rendered as `<q> [or <q>]*`; every presentation re-randomizes
/// variable names, equality orientation, *and the disjunct order*, so
/// only the order-invariant union fingerprint — not text equality — can
/// collapse the duplicates. Even pairs hold (the right union carries the
/// left filter among its `k` disjuncts), odd pairs don't.
pub fn union_service_workload(
    total: usize,
    distinct: usize,
    k: usize,
    seed: u64,
) -> Vec<(String, String)> {
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

    /// `σ_{A=c}` over R, with a coin-flipped equality orientation.
    fn filtered(c: usize, rng: &mut StdRng) -> String {
        let o = VARS[rng.gen_range(0..VARS.len())];
        if rng.gen_bool(0.5) {
            format!("select {o}.B from {o} in R where {o}.A = {c}")
        } else {
            format!("select {o}.B from {o} in R where {c} = {o}.A")
        }
    }

    let k = k.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..total)
        .map(|_| {
            let pair = rng.gen_range(0..distinct.max(1));
            let left = filtered(pair, &mut rng);
            // Holding pairs include the left constant among the right
            // disjuncts; refuted pairs shift every disjunct past it.
            let base = if pair.is_multiple_of(2) { pair } else { pair + 1 };
            let mut disjuncts: Vec<String> =
                (0..k).map(|j| filtered(base + j * distinct.max(1), &mut rng)).collect();
            // Fisher–Yates disjunct permutation: presentation order must
            // not leak into the fingerprint.
            for i in (1..disjuncts.len()).rev() {
                disjuncts.swap(i, rng.gen_range(0..=i));
            }
            (left, disjuncts.join(" or "))
        })
        .collect()
}

/// PR2 perf: a `len`-atom chain-join boolean query over relations of `n`
/// facts each, wired so every `R0` fact extends to exactly one full chain.
/// A linear-scan engine probes Θ(n) tuples per bound atom (Θ(n·len·n)
/// total); the indexed engine probes exactly the matching tuple.
pub fn join_chain_instance(len: usize, n: usize) -> (ConjunctiveQuery, co_cq::Database) {
    use co_cq::parse_query;
    use co_object::Atom;
    let body: Vec<String> = (0..len).map(|i| format!("R{i}(X{i}, X{})", i + 1)).collect();
    let q = parse_query(&format!("q() :- {}.", body.join(", "))).expect("chain query parses");
    let mut db = co_cq::Database::new();
    for i in 0..len {
        let rel = db.relation_mut(co_cq::RelName::new(&format!("R{i}")));
        for j in 0..n {
            rel.insert(vec![Atom::int((i * n + j) as i64), Atom::int(((i + 1) * n + j) as i64)]);
        }
    }
    (q, db)
}

/// PR2 perf: a witness-copy simulation instance that *fails*. `q1` freezes
/// to a star of `fanout` E-leaves (inflated further by witness copies);
/// `q2` demands a two-step E-path, so the search must refute every leaf.
/// A linear-scan engine rescans the whole inflated E relation per leaf.
pub fn witness_fanout_pair(fanout: usize) -> (IndexedQuery, IndexedQuery) {
    use co_cq::parse_query;
    let mut body1 = String::from("R(X, Y)");
    for i in 0..fanout {
        body1.push_str(&format!(", E(Y, W{i})"));
    }
    let q1 = IndexedQuery::from_cq(&parse_query(&format!("q(X, Y) :- {body1}.")).unwrap(), 1);
    let q2 =
        IndexedQuery::from_cq(&parse_query("q(X, Y) :- R(X, Y), E(Y, V), E(V, Z).").unwrap(), 1);
    (q1, q2)
}

/// PR2 perf: the hom search at the heart of a *failing* witness-copy
/// simulation check, pre-built so the kernels can be timed on the search
/// itself (end to end, expansion construction is shared by both engines
/// and caps the visible gap).
///
/// The database is the frozen witness-copy expansion of a star query
/// `q(X, Y) :- R(X, Y), E(Y, W0), …` with `witnesses` extra copies: one
/// `R(x, y)` fact plus `E(y, w_ci)` for every copy `c` and leaf `i` —
/// `(witnesses + 1) · fanout` E-facts, all sharing the source `y`. The
/// searched body is the path `R(X, Y), E(Y, V), E(V, Z)` with `X, Y` fixed
/// to their frozen images (the distinguished-variable treatment of
/// `co_sim::simulated_by_with_witnesses`). No leaf has an outgoing E-edge,
/// so the search refutes every candidate `V`: a linear-scan engine rescans
/// the whole E relation per candidate (Θ((witnesses·fanout)²) probes)
/// while the indexed engine sees zero `E(V, Z)` candidates per leaf.
pub fn witness_search_instance(
    fanout: usize,
    witnesses: usize,
) -> (Vec<co_cq::QueryAtom>, co_cq::Database, co_cq::Assignment) {
    use co_cq::{QueryAtom, Term, Var};
    use co_object::Atom;
    let body = vec![
        QueryAtom::new("R", vec![Term::var("X"), Term::var("Y")]),
        QueryAtom::new("E", vec![Term::var("Y"), Term::var("V")]),
        QueryAtom::new("E", vec![Term::var("V"), Term::var("Z")]),
    ];
    let x = Atom::int(0);
    let y = Atom::int(1);
    let mut db = co_cq::Database::new();
    db.relation_mut(co_cq::RelName::new("R")).insert(vec![x, y]);
    let e = db.relation_mut(co_cq::RelName::new("E"));
    for c in 0..=witnesses {
        for i in 0..fanout {
            e.insert(vec![y, Atom::int((2 + c * fanout + i) as i64)]);
        }
    }
    let fixed: co_cq::Assignment = [(Var::new("X"), x), (Var::new("Y"), y)].into_iter().collect();
    (body, db, fixed)
}

/// PR2 perf: a pair of depth-`depth` singleton chains over width-`width`
/// leaf sets of consecutive ints, the second shifted by `offset`. Long
/// chains force many propagation rounds out of a sweep-style simulation
/// solver while the worklist solver touches each pair once.
pub fn sim_chain_pair(depth: usize, width: usize, offset: i64) -> (Value, Value) {
    let leaves =
        |base: i64| Value::set((0..width).map(|i| Value::int(base + i as i64)).collect::<Vec<_>>());
    let mut v = leaves(0);
    let mut w = leaves(offset);
    for _ in 0..depth {
        v = Value::singleton(v);
        w = Value::singleton(w);
    }
    (v, w)
}

/// E8: `(ν;μ)^k` — k rounds of nest-then-unnest, equivalent to identity.
pub fn nest_unnest_roundtrips(k: usize) -> (co_algebra::NuSeq, co_algebra::NuSeq) {
    let mut ops = Vec::new();
    for _ in 0..k {
        ops.push(co_algebra::NuOp::nest(&["B"], "g"));
        ops.push(co_algebra::NuOp::unnest("g"));
    }
    (co_algebra::NuSeq::new("T", ops), co_algebra::NuSeq::new("T", vec![]))
}

/// The schema for E8.
pub fn nest_unnest_schema() -> Schema {
    Schema::with_relations(&[("T", &["A", "B", "C"])])
}

/// E10: a nested people/phones/calls database with `n` people.
pub fn nested_db(n: usize, seed: u64) -> (co_lang::CoDatabase, co_lang::CoqlSchema) {
    use co_object::{Field, Type};
    let ty = Type::set(Type::record(vec![
        (Field::new("id"), Type::Atom),
        (Field::new("phones"), Type::set(Type::Atom)),
        (
            Field::new("calls"),
            Type::set(Type::record(vec![
                (Field::new("to"), Type::Atom),
                (Field::new("len"), Type::Atom),
            ])),
        ),
    ]));
    let schema = co_lang::CoqlSchema::new().with("P", ty);
    let mut g = ValueGen::new(seed, GenConfig::default());
    let mut people = Vec::with_capacity(n);
    for i in 0..n {
        let phones: Vec<Value> = (0..(i % 4)).map(|_| Value::Atom(g.atom())).collect();
        let calls: Vec<Value> = (0..(i % 3))
            .map(|_| {
                Value::record(vec![
                    (Field::new("to"), Value::Atom(g.atom())),
                    (Field::new("len"), Value::Atom(g.atom())),
                ])
                .unwrap()
            })
            .collect();
        people.push(
            Value::record(vec![
                (Field::new("id"), Value::int(i as i64)),
                (Field::new("phones"), Value::set(phones)),
                (Field::new("calls"), Value::set(calls)),
            ])
            .unwrap(),
        );
    }
    let db = co_lang::CoDatabase::new().with("P", Value::set(people));
    (db, schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_valid_workloads() {
        let (v, w) = hoare_pair(50, 3);
        assert!(co_object::hoare_leq(&v, &w));

        let (c1, c2) = chain_pair(5);
        assert!(co_cq::is_contained_in(&c1, &c2));

        let (q1, q2) = simulation_positive(2);
        assert!(co_sim::is_simulated_by(&q1, &q2));

        let q = many_children_query(3);
        co_core::prepare(&q, &coql_schema()).unwrap();

        for d in 1..4 {
            let q = deep_nest_query(d);
            let p = co_core::prepare(&q, &coql_schema()).unwrap();
            assert_eq!(p.ty.set_depth(), d, "depth {d}: {q}");
        }

        let (a1, a2) = agg_pair(2);
        assert!(co_agg::agg_equivalent(&a1, &a2));

        let (s1, s2) = nest_unnest_roundtrips(1);
        assert!(co_algebra::equivalent_sequences(&s1, &s2, &nest_unnest_schema()).unwrap());

        let (db, schema) = nested_db(10, 1);
        let enc = co_encode::encode_database(&db, &schema).unwrap();
        let back = co_encode::decode_database(&enc, &schema).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn service_workload_is_deterministic_and_well_formed() {
        let reqs = service_workload(64, 10, 5);
        assert_eq!(reqs.len(), 64);
        assert_eq!(reqs, service_workload(64, 10, 5));
        let schema = coql_schema();
        for (q1, q2) in &reqs {
            for q in [q1, q2] {
                let expr = co_lang::parse_coql(q).expect("workload query parses");
                co_core::prepare(&expr, &schema).expect("workload query prepares");
            }
        }
    }

    #[test]
    fn union_heavy_instances_hold_in_both_placements() {
        let schema = coql_schema();
        for hit_first in [true, false] {
            let (left, right) = union_heavy_instance(4, 2, hit_first);
            assert_eq!(left.len(), 1);
            assert_eq!(right.len(), 4);
            let l = co_core::prepare_union(&left, &schema).unwrap();
            let r = co_core::prepare_union(&right, &schema).unwrap();
            let analysis = co_core::union_contained_prepared(&l, &r).unwrap();
            assert!(analysis.holds, "hit_first={hit_first}");
            // The short-circuit is visible in the work counter: an early
            // hit decides one pair, a late hit decides all four.
            if hit_first {
                assert_eq!(analysis.pairs_decided, 1);
            } else {
                assert_eq!(analysis.pairs_decided, 4);
            }
        }
    }

    #[test]
    fn union_service_workload_is_deterministic_and_well_formed() {
        let reqs = union_service_workload(48, 10, 3, 9);
        assert_eq!(reqs.len(), 48);
        assert_eq!(reqs, union_service_workload(48, 10, 3, 9));
        let schema = coql_schema();
        let mut holding = 0usize;
        for (u1, u2) in &reqs {
            let d1 = co_lang::parse_union_coql(u1).expect("left union parses");
            let d2 = co_lang::parse_union_coql(u2).expect("right union parses");
            assert_eq!(d1.len(), 1);
            assert_eq!(d2.len(), 3);
            if co_core::union_contained_in(&d1, &d2, &schema).unwrap().holds {
                holding += 1;
            }
        }
        // Both polarities are represented.
        assert!(holding > 0 && holding < reqs.len(), "holding={holding}");
    }

    #[test]
    fn witness_search_instance_refutes_under_both_strategies() {
        use co_cq::hom::CandidateStrategy;
        let (body, db, fixed) = witness_search_instance(6, 2);
        for s in [CandidateStrategy::LinearScan, CandidateStrategy::Indexed] {
            let r = co_cq::HomProblem::new(&body, &db)
                .with_fixed(fixed.clone())
                .with_strategy(s)
                .first();
            assert!(matches!(r, Ok(None)), "strategy {s:?} must refute the instance");
        }
    }

    #[test]
    fn coloring_instances_are_well_formed() {
        let (q1, q2) = coloring_pair(6, 1);
        // Either colorable or not; just check the decision terminates and
        // queries validate against a schema with E.
        let schema = Schema::with_relations(&[("E", &["u", "v"])]);
        q1.validate(&schema).unwrap();
        q2.validate(&schema).unwrap();
        let _ = co_cq::is_contained_in(&q1, &q2);
    }
}
