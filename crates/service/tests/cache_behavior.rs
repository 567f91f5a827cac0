//! Memo-cache behavior under load: LRU ordering, shard balance, and
//! concurrent correctness (cached verdicts bit-identical to the uncached
//! decision procedure).

use std::sync::Arc;
use std::thread;

use co_core::{ContainmentAnalysis, DecisionPath};
use co_cq::Schema;
use co_service::{
    fingerprint_bytes, CacheEntry, CacheKey, Decision, Engine, EngineConfig, MemoCache, Op, Request,
};

fn verdict(holds: bool) -> CacheEntry {
    CacheEntry {
        analysis: ContainmentAnalysis {
            holds,
            path: DecisionPath::Full,
            depth: 1,
            set_nodes: (1, 1),
        },
        cert: None,
    }
}

fn key(i: u64) -> CacheKey {
    // Realistic keys: fingerprints as the engine would produce them.
    CacheKey {
        q1: fingerprint_bytes(format!("q1:{i}").as_bytes()),
        q2: fingerprint_bytes(format!("q2:{i}").as_bytes()),
        schema: fingerprint_bytes(b"schema"),
    }
}

#[test]
fn lru_evicts_in_recency_order() {
    let cache = MemoCache::new(1, 3);
    cache.insert(key(0), verdict(true));
    cache.insert(key(1), verdict(true));
    cache.insert(key(2), verdict(true));
    // Touch 0 and 1 so 2 becomes the least recently used...
    assert!(cache.get(&key(2)).is_some());
    assert!(cache.get(&key(0)).is_some());
    assert!(cache.get(&key(1)).is_some());
    cache.insert(key(3), verdict(false)); // ...and is evicted first.
    assert!(cache.get(&key(2)).is_none());
    cache.insert(key(4), verdict(false)); // next out is 0
    assert!(cache.get(&key(0)).is_none());
    assert!(cache.get(&key(1)).is_some());
    assert!(cache.get(&key(3)).is_some());
    assert!(cache.get(&key(4)).is_some());
    let stats = cache.stats();
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.entries, 3);
    assert_eq!(stats.capacity, 3);
}

#[test]
fn shards_spread_realistic_keys() {
    let cache = MemoCache::new(8, 1024);
    for i in 0..800 {
        cache.insert(key(i), verdict(i % 2 == 0));
    }
    let sizes = cache.shard_sizes();
    assert_eq!(sizes.len(), 8);
    assert_eq!(sizes.iter().sum::<usize>(), 800);
    // Fingerprints are well mixed, so no shard should be starved or hold
    // more than a small multiple of its fair share (100).
    for (shard, &n) in sizes.iter().enumerate() {
        assert!(n > 0, "shard {shard} is empty: {sizes:?}");
        assert!(n < 300, "shard {shard} is overloaded: {sizes:?}");
    }
}

#[test]
fn concurrent_hammering_matches_uncached_decisions() {
    let schema = Schema::with_relations(&[("R", &["A", "B"]), ("S", &["C"])]);
    let engine = Arc::new(Engine::new(EngineConfig {
        cache_shards: 4,
        cache_per_shard: 64,
        ..EngineConfig::default()
    }));
    engine.register_schema("s", schema.clone());

    // A small pool of pairs, half contained, half not, hammered from 8
    // threads so hits, misses, and coalesced waits all occur.
    let pool: Vec<(String, String)> = (0..6)
        .map(|i| {
            let filtered = format!("select x.B from x in R where x.A = {i}");
            let all = "select x.B from x in R".to_string();
            if i % 2 == 0 {
                (filtered, all)
            } else {
                (all, filtered)
            }
        })
        .collect();

    // Uncached reference verdicts straight from co-core.
    let reference: Vec<ContainmentAnalysis> = pool
        .iter()
        .map(|(q1, q2)| {
            co_core::contained_in(
                &co_lang::parse_coql(q1).unwrap(),
                &co_lang::parse_coql(q2).unwrap(),
                &schema,
            )
            .unwrap()
        })
        .collect();

    thread::scope(|scope| {
        for t in 0..8 {
            let engine = Arc::clone(&engine);
            let pool = &pool;
            let reference = &reference;
            scope.spawn(move || {
                for round in 0..40 {
                    let i = (t + round) % pool.len();
                    let request = Request::new(Op::Check, "s", &pool[i].0, &pool[i].1);
                    let Decision::Containment { analysis, .. } = engine.decide(&request).unwrap()
                    else {
                        panic!("expected containment decision");
                    };
                    assert_eq!(
                        analysis, reference[i],
                        "thread {t} round {round}: cached path diverged from co-core"
                    );
                }
            });
        }
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.entries, pool.len());
    assert_eq!(stats.hits + stats.misses, 8 * 40);
    assert!(stats.hits >= (8 * 40 - pool.len()) as u64 / 2, "{stats:?}");
}

#[test]
fn prepared_queries_are_bounded_by_the_memo() {
    // A 1×8 memo: its entries name at most 16 prepared queries, so the
    // prepared map keeps no more than that however many distinct queries
    // arrive.
    let engine = Engine::new(EngineConfig {
        cache_shards: 1,
        cache_per_shard: 8,
        ..EngineConfig::default()
    });
    engine.register_schema("s", Schema::with_relations(&[("R", &["A", "B"])]));
    for i in 0..200 {
        let request = Request::new(
            Op::Check,
            "s",
            &format!("select x.B from x in R where x.A = {i}"),
            "select y.B from y in R",
        );
        assert!(matches!(engine.decide(&request), Ok(Decision::Containment { .. })));
        assert!(engine.prepared_count() <= 16, "{} prepared after {i}", engine.prepared_count());
    }
}
