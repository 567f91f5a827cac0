//! Property tests for union canonicalization (feature `slow-tests`).
//!
//! Seeded-random unions over `R(A,B); S(C)` drive four invariants of the
//! order-invariant union fingerprint and the UCQ decision procedure:
//!
//! * permuting the disjunct order never changes the union fingerprint;
//! * duplicating a disjunct never changes the union fingerprint;
//! * α-renaming (fresh variable names, flipped equality orientations)
//!   never changes the union fingerprint;
//! * adding a subsumed disjunct (one contained in a disjunct already
//!   present) to either side never changes the containment verdict.
//!
//! Run with `cargo test -p co-service --features slow-tests --test
//! union_properties`.

use co_cq::Schema;
use co_service::canonical_union_fingerprint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: u64 = 150;
const MAX_DEPTH: usize = 128;
const VARS: [&str; 8] = ["x", "y", "z", "u", "v", "w", "p", "q"];

fn flat_schema() -> Schema {
    Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])])
}

fn coql_schema() -> co_lang::CoqlSchema {
    co_lang::CoqlSchema::from_flat(&flat_schema())
}

/// An abstract disjunct: one of three head classes with optional constant
/// filters. Rendering picks fresh variable names and equality
/// orientations, so re-rendering the same abstract disjunct produces
/// α-variants of one semantic query.
#[derive(Clone, Copy, PartialEq)]
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

    /// A disjunct contained in `self`: the same shape with every missing
    /// filter added (or `self` unchanged when already fully filtered).
    fn specialized(self, rng: &mut StdRng) -> Disjunct {
        Disjunct {
            class: self.class,
            outer: self.outer.or_else(|| Some(rng.gen_range(0..3))),
            inner: if self.class == 2 {
                self.inner.or_else(|| Some(rng.gen_range(0..3)))
            } else {
                self.inner
            },
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

/// A random abstract union of 1–4 same-class disjuncts.
fn random_union(rng: &mut StdRng) -> Vec<Disjunct> {
    let class = rng.gen_range(0..3u8);
    (0..rng.gen_range(1..=4)).map(|_| Disjunct::random(class, rng)).collect()
}

fn render_union(ds: &[Disjunct], rng: &mut StdRng) -> String {
    ds.iter().map(|d| d.render(rng)).collect::<Vec<_>>().join(" or ")
}

fn fingerprint(text: &str) -> co_service::Fingerprint {
    canonical_union_fingerprint(&coql_schema(), text, MAX_DEPTH)
        .unwrap_or_else(|e| panic!("{text}: {e}"))
}

#[test]
fn disjunct_permutation_never_changes_the_union_fingerprint() {
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let union = random_union(&mut rng);
        let baseline = fingerprint(&render_union(&union, &mut rng));
        let mut permuted = union.clone();
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, rng.gen_range(0..=i));
        }
        // Rendering the permutation reuses the abstract disjuncts, so only
        // the order (and the α-variant surface) differs.
        assert_eq!(
            baseline,
            fingerprint(&render_union(&permuted, &mut rng)),
            "seed {seed}: permutation changed the union fingerprint"
        );
    }
}

#[test]
fn duplicate_disjuncts_never_change_the_union_fingerprint() {
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1e995);
        let union = random_union(&mut rng);
        let baseline = fingerprint(&render_union(&union, &mut rng));
        let mut doubled = union.clone();
        // Duplicate a random disjunct (possibly several times).
        for _ in 0..rng.gen_range(1..=3) {
            doubled.push(union[rng.gen_range(0..union.len())]);
        }
        assert_eq!(
            baseline,
            fingerprint(&render_union(&doubled, &mut rng)),
            "seed {seed}: duplicate disjunct changed the union fingerprint"
        );
    }
}

#[test]
fn alpha_renaming_never_changes_the_union_fingerprint() {
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x27d4eb2f);
        let union = random_union(&mut rng);
        // Two independent renderings of the same abstract union: fresh
        // variable names and equality orientations both times.
        let a = render_union(&union, &mut rng);
        let b = render_union(&union, &mut rng);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "seed {seed}: α-variants disagree:\n  {a}\n  {b}"
        );
    }
}

#[test]
fn subsumed_disjuncts_never_change_the_verdict() {
    let schema = flat_schema();
    let mut checked = 0u64;
    let (mut positives, mut negatives) = (0u64, 0u64);
    for seed in 0..ROUNDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x165667b1);
        let class = rng.gen_range(0..3u8);
        let left: Vec<Disjunct> =
            (0..rng.gen_range(1..=3)).map(|_| Disjunct::random(class, &mut rng)).collect();
        let right: Vec<Disjunct> =
            (0..rng.gen_range(1..=3)).map(|_| Disjunct::random(class, &mut rng)).collect();
        let parse = |ds: &[Disjunct], rng: &mut StdRng| {
            co_lang::parse_union_coql(&render_union(ds, rng)).expect("rendered union parses")
        };
        let l = parse(&left, &mut rng);
        let r = parse(&right, &mut rng);
        let baseline = co_core::union_contained_in(&l, &r, &schema)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            .holds;

        // Specialize an existing disjunct on each side in turn: a union
        // plus a disjunct it already subsumes is the same set.
        for grow_left in [false, true] {
            let (mut gl, mut gr) = (left.clone(), right.clone());
            let side = if grow_left { &mut gl } else { &mut gr };
            let donor = side[rng.gen_range(0..side.len())];
            let at = rng.gen_range(0..=side.len());
            side.insert(at, donor.specialized(&mut rng));
            let verdict =
                co_core::union_contained_in(&parse(&gl, &mut rng), &parse(&gr, &mut rng), &schema)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
                    .holds;
            assert_eq!(
                verdict, baseline,
                "seed {seed} (grow_left={grow_left}): subsumed disjunct flipped the verdict"
            );
            checked += 1;
        }
        if baseline {
            positives += 1;
        } else {
            negatives += 1;
        }
    }
    assert!(
        positives > 0 && negatives > 0,
        "degenerate workload: {checked} grown unions, {positives} positive / {negatives} negative"
    );
}
