//! The acceptance workload: ≥1000 requests drawn from ≤50 distinct
//! normalized pairs, decided concurrently by 8 client threads, must hit
//! the cache ≥90% of the time and return `holds` verdicts bit-identical
//! to the uncached [`co_core::contained_in`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use co_bench::workloads::{coql_schema, service_workload};
use co_service::{Decision, Engine, EngineConfig, Op, Request};

#[test]
fn thousand_requests_fifty_pairs_hit_rate_and_verdicts() {
    const TOTAL: usize = 1200;
    const DISTINCT: usize = 50;
    const THREADS: usize = 8;

    let schema = coql_schema();
    let pairs = service_workload(TOTAL, DISTINCT, 11);
    assert_eq!(pairs.len(), TOTAL);

    let engine = Engine::new(EngineConfig {
        cache_shards: 8,
        cache_per_shard: 512,
        ..EngineConfig::default()
    });
    engine.register_schema("s", schema.clone());
    let requests: Vec<Request> =
        pairs.iter().map(|(q1, q2)| Request::new(Op::Check, "s", q1, q2)).collect();

    // 8 threads claim requests off a shared counter, so identical keys
    // race each other into the memo and the in-flight table.
    let next = AtomicUsize::new(0);
    let mut decisions: Vec<(usize, Result<Decision, String>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else { return mine };
                        mine.push((i, engine.decide(request)));
                    }
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect()
    });
    decisions.sort_by_key(|(i, _)| *i);
    assert_eq!(decisions.len(), TOTAL);

    let mut canonical_pairs = HashSet::new();
    for (i, (_, decision)) in decisions.iter().enumerate() {
        let Ok(Decision::Containment { analysis, fp1, fp2, .. }) = decision else {
            panic!("request {i} ({:?}) failed: {decision:?}", pairs[i]);
        };
        canonical_pairs.insert((*fp1, *fp2));
        // Bit-identical to the uncached decision procedure.
        let (q1, q2) = &pairs[i];
        let reference = co_core::contained_in(
            &co_lang::parse_coql(q1).unwrap(),
            &co_lang::parse_coql(q2).unwrap(),
            &schema,
        )
        .unwrap();
        assert_eq!(analysis.holds, reference.holds, "request {i}: {q1} ;; {q2}");
        assert_eq!(*analysis, reference, "request {i}: {q1} ;; {q2}");
    }

    // The randomized renderings must all collapse to ≤ DISTINCT keys...
    assert!(
        canonical_pairs.len() <= DISTINCT,
        "expected ≤ {DISTINCT} canonical pairs, fingerprinting produced {}",
        canonical_pairs.len()
    );

    // ...so at most one miss per distinct pair actually computes, and the
    // effective hit rate (cache hits + coalesced waits) clears 90%.
    let stats = engine.cache_stats();
    let computed = engine.stats().computed.load(Ordering::Relaxed);
    // Coalescing is best-effort: a thread that misses the cache just before
    // the computing thread publishes can recompute. Allow that slack; the
    // hit-rate bound below is the real acceptance criterion.
    assert!(computed <= 2 * DISTINCT as u64, "computed {computed} > 2×{DISTINCT}");
    let coalesced = engine.stats().coalesced.load(Ordering::Relaxed);
    let effective = (stats.hits + coalesced) as f64 / (stats.hits + stats.misses) as f64;
    assert!(
        effective >= 0.90,
        "effective hit rate {effective:.3} < 0.90 ({stats:?}, coalesced {coalesced})"
    );
}
