//! In-process work on the same requests the servers answer: the verdict
//! oracle (checked by `co-cert`) and the layer-by-layer replay through
//! each crate's public functions.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use co_core::{Prepared, PreparedUnion};
use co_cq::Schema;
use co_lang::CoqlSchema;
use co_trace::kernel;

use crate::workload::{Req, SCHEMA_DECL};

/// The schema the workloads register, in-process.
pub struct Ctx {
    flat: Schema,
    coql: CoqlSchema,
}

impl Ctx {
    pub fn new() -> Result<Ctx, String> {
        let flat = co_service::parse_schema_decl(SCHEMA_DECL)?;
        let coql = CoqlSchema::from_flat(&flat);
        Ok(Ctx { flat, coql })
    }

    fn prepare(&self, text: &str) -> Result<Prepared, String> {
        let expr = co_lang::parse_coql(text).map_err(|e| e.to_string())?;
        co_core::prepare(&expr, &self.flat).map_err(|e| e.to_string())
    }

    fn prepare_union(&self, text: &str) -> Result<PreparedUnion, String> {
        let exprs = co_lang::parse_union_coql(text).map_err(|e| e.to_string())?;
        co_core::prepare_union(&exprs, &self.flat).map_err(|e| e.to_string())
    }
}

/// One side of a request, prepared the way the engine prepares it.
enum Side {
    Scalar(Prepared),
    Union(PreparedUnion),
}

impl Side {
    fn of(ctx: &Ctx, text: &str, union: bool) -> Result<Side, String> {
        Ok(if union {
            Side::Union(ctx.prepare_union(text)?)
        } else {
            Side::Scalar(ctx.prepare(text)?)
        })
    }
}

/// Decides `a ⊑ b` with the kernel, builds its certificate, and has
/// `co-cert` check the certificate against the *expected* verdict: the
/// certificate's evidence, not the kernel, is what vouches for it.
fn certified(a: &Side, b: &Side, expect: bool) -> Result<(), String> {
    match (a, b) {
        (Side::Scalar(p1), Side::Scalar(p2)) => {
            let analysis = co_core::contained_prepared(p1, p2).map_err(|e| e.to_string())?;
            let cert = co_core::certify_prepared(p1, p2, &analysis).map_err(|e| e.to_string())?;
            let path = co_core::cert_path(co_core::expected_path(p1, p2));
            cert.check_against(&p1.tree, &p2.tree, expect, path).map_err(|e| e.to_string())
        }
        (Side::Union(u1), Side::Union(u2)) => {
            let analysis = co_core::union_contained_prepared(u1, u2).map_err(|e| e.to_string())?;
            let cert =
                co_core::certify_union_prepared(u1, u2, &analysis).map_err(|e| e.to_string())?;
            check_union_cert(&cert, u1, u2, expect)
        }
        _ => Err("mixed scalar/union request".to_string()),
    }
}

fn check_union_cert(
    cert: &co_cert::UnionCert,
    u1: &PreparedUnion,
    u2: &PreparedUnion,
    expect: bool,
) -> Result<(), String> {
    let l: Vec<_> = u1.disjuncts.iter().map(|p| &p.tree).collect();
    let r: Vec<_> = u2.disjuncts.iter().map(|p| &p.tree).collect();
    let path = |j: usize, i: usize| co_core::cert_path(co_core::expected_union_path(u1, u2, j, i));
    cert.check_against(&l, &r, expect, &path).map_err(|e| e.to_string())
}

/// Confirms every constructed verdict of `reqs` with a `co-cert`-checked
/// certificate, in each direction the request decides.
pub fn verify_oracle(ctx: &Ctx, reqs: &[Arc<Req>]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    for req in reqs {
        if !seen.insert(req.key()) {
            continue;
        }
        let union = req.op.is_union();
        let (a, b) = (Side::of(ctx, &req.q1, union)?, Side::of(ctx, &req.q2, union)?);
        let fail = |dir: &str, e: String| format!("oracle: {dir} of `{}`: {e}", req.key());
        certified(&a, &b, req.forward).map_err(|e| fail("forward", e))?;
        if req.op.both_directions() {
            certified(&b, &a, req.backward).map_err(|e| fail("backward", e))?;
        }
    }
    Ok(())
}

/// Checks the certificate blocks a server returned for a `CERT CHECK`
/// against the expected verdict; returns the check's wall time in µs.
pub fn check_served_cert(ctx: &Ctx, req: &Req, blocks: &str) -> Result<f64, String> {
    let (p1, p2) = (ctx.prepare(&req.q1)?, ctx.prepare(&req.q2)?);
    let path = co_core::cert_path(co_core::expected_path(&p1, &p2));
    let start = Instant::now();
    let cert = co_cert::Cert::parse(blocks).map_err(|e| e.to_string())?;
    cert.check_against(&p1.tree, &p2.tree, req.forward, path).map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64() * 1e6)
}

/// Per-call wall times (µs) of each layer, and the kernel counters each
/// distinct request costs when decided cold.
#[derive(Default)]
pub struct Replay {
    pub parse_us: Vec<f64>,
    pub canonicalize_us: Vec<f64>,
    pub fingerprint_us: Vec<f64>,
    pub prepare_us: Vec<f64>,
    pub decide_us: Vec<f64>,
    pub union_decide_us: Vec<f64>,
    /// Kernel counter deltas by request key, for the calls the engine
    /// makes on a cache miss (decide, and certify under `CERT`).
    pub kernel: HashMap<String, kernel::Counters>,
    /// Requests whose two identical in-process decisions cost different
    /// kernel counts, with the counters that differed.
    pub divergent: Vec<String>,
}

/// `name: a vs b` for every counter that differs.
fn counter_diff(a: &kernel::Counters, b: &kernel::Counters) -> String {
    let diff: Vec<String> = a
        .iter()
        .zip(b.iter())
        .filter(|(x, y)| x.1 != y.1)
        .map(|((name, x), (_, y))| format!("{name}: {x} vs {y}"))
        .collect();
    diff.join(", ")
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Replays `reqs` (deduplicated by key) through `co-lang`,
/// `co-service::fingerprint` and `co-core` in the engine's order, timing
/// each call. Each decision runs twice; a request whose two runs cost
/// different kernel steps is recorded in [`Replay::divergent`].
pub fn replay(ctx: &Ctx, reqs: &[Arc<Req>]) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut sides: HashMap<String, Arc<Side>> = HashMap::new();
    for req in reqs {
        let key = req.key();
        if out.kernel.contains_key(&key) {
            continue;
        }
        let union = req.op.is_union();
        let mut prepared = Vec::with_capacity(2);
        for text in [&req.q1, &req.q2] {
            if let Some(side) = sides.get(text.as_str()) {
                prepared.push(Arc::clone(side));
                continue;
            }
            let side = Arc::new(replay_side(ctx, text, union, &mut out)?);
            sides.insert(text.clone(), Arc::clone(&side));
            prepared.push(side);
        }
        let (a, b) = (&*prepared[0], &*prepared[1]);
        let first = decide_counted(req, a, b, &mut out)?;
        let second = decide_counted(req, a, b, &mut out)?;
        if first != second {
            out.divergent.push(format!("`{key}`: {}", counter_diff(&first, &second)));
        }
        out.kernel.insert(key, first);
    }
    Ok(out)
}

/// Parse + type check, normalize, fingerprint and prepare one side,
/// recording each stage's time.
fn replay_side(ctx: &Ctx, text: &str, union: bool, out: &mut Replay) -> Result<Side, String> {
    let (exprs, parse_us) = timed(|| -> Result<_, String> {
        let exprs = if union {
            co_lang::parse_union_coql(text).map_err(|e| e.to_string())?
        } else {
            vec![co_lang::parse_coql(text).map_err(|e| e.to_string())?]
        };
        for e in &exprs {
            co_lang::type_check(e, &ctx.coql).map_err(|e| e.to_string())?;
        }
        Ok(exprs)
    });
    let exprs = exprs?;
    let (nfs, canonicalize_us) = timed(|| {
        exprs.iter().map(|e| co_lang::normalize(e, &ctx.coql)).collect::<Result<Vec<_>, _>>()
    });
    let nfs = nfs.map_err(|e| e.to_string())?;
    let (_, fingerprint_us) = timed(|| {
        let fps: Vec<_> = nfs.iter().map(co_service::fingerprint::fingerprint_query).collect();
        if union {
            co_service::fingerprint::fingerprint_union(&fps)
        } else {
            fps[0]
        }
    });
    let (side, prepare_us) = timed(|| -> Result<Side, String> {
        let mut ps = Vec::with_capacity(exprs.len());
        for e in &exprs {
            ps.push(co_core::prepare(e, &ctx.flat).map_err(|e| e.to_string())?);
        }
        Ok(if union {
            Side::Union(PreparedUnion::from_disjuncts(ps).map_err(|e| e.to_string())?)
        } else {
            Side::Scalar(ps.pop().expect("one expression"))
        })
    });
    out.parse_us.push(parse_us);
    out.canonicalize_us.push(canonicalize_us);
    out.fingerprint_us.push(fingerprint_us);
    out.prepare_us.push(prepare_us);
    side
}

/// The kernel calls of one cache-missing request — each direction's
/// decision, then its certificate when the request asks for one — with
/// the decision's time recorded and the kernel counters they cost.
fn decide_counted(
    req: &Req,
    a: &Side,
    b: &Side,
    out: &mut Replay,
) -> Result<kernel::Counters, String> {
    let before = kernel::snapshot();
    let mut dirs = vec![(a, b)];
    if req.op.both_directions() {
        dirs.push((b, a));
    }
    for (x, y) in dirs {
        match (x, y) {
            (Side::Scalar(p1), Side::Scalar(p2)) => {
                let (analysis, us) = timed(|| co_core::contained_prepared(p1, p2));
                let analysis = analysis.map_err(|e| e.to_string())?;
                out.decide_us.push(us);
                if req.cert {
                    co_core::certify_prepared(p1, p2, &analysis).map_err(|e| e.to_string())?;
                }
            }
            (Side::Union(u1), Side::Union(u2)) => {
                let (analysis, us) = timed(|| co_core::union_contained_prepared(u1, u2));
                let analysis = analysis.map_err(|e| e.to_string())?;
                out.union_decide_us.push(us);
                if req.cert {
                    co_core::certify_union_prepared(u1, u2, &analysis)
                        .map_err(|e| e.to_string())?;
                }
            }
            _ => return Err("mixed scalar/union request".to_string()),
        }
    }
    Ok(kernel::snapshot().delta(&before))
}
