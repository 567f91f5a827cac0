//! A sharded, bounded memo cache for containment verdicts.
//!
//! Keys are `(fp(q1), fp(q2), fp(schema))` canonical-fingerprint triples;
//! values are [`CacheEntry`]s: a full analysis (a scalar
//! [`ContainmentAnalysis`] by default, a union analysis in the engine's
//! union memo) plus, optionally, the verdict's wire-serialized certificate
//! (kept when the entry was computed under `CERT`, so later certified
//! requests and snapshot exports can reuse it). The engine also keeps its
//! prepared queries in the same LRU, keyed by `(fp(schema), fp(query))`,
//! so they are bounded like the verdicts they serve. The map is split into
//! `N` shards, each an independent `RwLock`-protected LRU, so concurrent
//! readers/writers only contend when their keys land in the same shard.
//! Everything is `std`-only: the LRU list is an intrusive doubly-linked
//! list over a slab of nodes, O(1) for get/insert/evict.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use co_core::ContainmentAnalysis;

use crate::fingerprint::Fingerprint;

/// Cache key: the two queries' canonical fingerprints plus the schema's.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    /// Fingerprint of the candidate containee `q1`.
    pub q1: Fingerprint,
    /// Fingerprint of the candidate container `q2`.
    pub q2: Fingerprint,
    /// Fingerprint of the schema both queries are typed against.
    pub schema: Fingerprint,
}

/// A cached verdict plus, optionally, its wire-serialized certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheEntry<A = ContainmentAnalysis> {
    /// The memoized analysis.
    pub analysis: A,
    /// The verdict's certificate in `co-cert` wire form, when one was
    /// constructed. Certificates loaded from snapshots or handoffs are
    /// *untrusted* until re-checked (see the engine's reject-and-recompute
    /// path and the `persist.cert_rejected` counter).
    pub cert: Option<String>,
}

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: a hash index into a slab threaded as a recency list.
struct Shard<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Shard<K, V> {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let idx = *self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].value.clone())
    }

    /// Inserts (or refreshes) an entry; returns `true` if an old entry was
    /// evicted to make room.
    fn insert(&mut self, key: K, value: V) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            evicted = true;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = Node { key, value, prev: NIL, next: NIL };
                idx
            }
            None => {
                self.slab.push(Node { key, value, prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }
}

/// Counter snapshot of a [`MemoCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: usize,
    /// Total capacity across all shards.
    pub capacity: usize,
    /// Number of shards.
    pub shards: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded, bounded LRU, generic over the cached value and its key
/// (scalar [`CacheEntry`]s under [`CacheKey`]s unless told otherwise).
pub struct MemoCache<V = CacheEntry, K = CacheKey> {
    shards: Vec<RwLock<Shard<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone, K: Copy + Eq + Hash> MemoCache<V, K> {
    /// A cache with `shards` independent LRU shards of `per_shard` entries
    /// each. `shards` is rounded up to a power of two (minimum 1). Nothing
    /// is preallocated: shards grow with their contents.
    pub fn new(shards: usize, per_shard: usize) -> MemoCache<V, K> {
        let shards = shards.max(1).next_power_of_two();
        MemoCache {
            shards: (0..shards).map(|_| RwLock::new(Shard::new(per_shard.max(1)))).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<Shard<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (self.shards.len() - 1)]
    }

    /// Looks up a verdict, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        // The LRU list moves on every hit, so even lookups take the write
        // lock; sharding keeps the critical section per-key-group.
        let found = crate::sync::write(self.shard(key)).get(key);
        match found {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a verdict (refreshing recency if the key is already present).
    pub fn insert(&self, key: K, value: V) {
        let evicted = crate::sync::write(self.shard(&key)).insert(key, value);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut capacity = 0;
        for s in &self.shards {
            let s = crate::sync::read(s);
            entries += s.map.len();
            capacity += s.capacity;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity,
            shards: self.shards.len(),
        }
    }

    /// Live entry count per shard (distribution introspection for tests).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| crate::sync::read(s).map.len()).collect()
    }

    /// Copies every live entry out, shard by shard, least-recently-used
    /// first within each shard — so replaying the list through
    /// [`MemoCache::preload`] reconstructs approximately the same recency
    /// order. Each shard is locked only while it is being walked; the
    /// export is a consistent view per shard, not across shards (good
    /// enough for a cache, where an entry's absence is always safe).
    pub fn export(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = crate::sync::read(shard);
            let mut idx = shard.tail;
            while idx != NIL {
                out.push((shard.slab[idx].key, shard.slab[idx].value.clone()));
                idx = shard.slab[idx].prev;
            }
        }
        out
    }

    /// Inserts recovered entries without touching the hit/miss counters
    /// (a warm start is not a workload). Returns how many entries the
    /// cache retained — fewer than offered when they exceed capacity.
    pub fn preload(&self, entries: Vec<(K, V)>) -> usize {
        let offered = entries.len();
        let mut dropped = 0;
        for (key, value) in entries {
            if crate::sync::write(self.shard(&key)).insert(key, value) {
                dropped += 1;
            }
        }
        offered - dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_core::DecisionPath;

    fn key(i: u128) -> CacheKey {
        CacheKey { q1: Fingerprint(i), q2: Fingerprint(i.wrapping_mul(7)), schema: Fingerprint(42) }
    }

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

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = MemoCache::new(1, 2);
        cache.insert(key(1), verdict(true));
        cache.insert(key(2), verdict(false));
        assert!(cache.get(&key(1)).is_some()); // refresh 1; 2 is now LRU
        cache.insert(key(3), verdict(true)); // evicts 2
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let cache = MemoCache::new(1, 2);
        cache.insert(key(1), verdict(true));
        cache.insert(key(2), verdict(true));
        cache.insert(key(1), verdict(false)); // refresh, not a new entry
        assert_eq!(cache.stats().evictions, 0);
        assert!(!cache.get(&key(1)).unwrap().analysis.holds);
        cache.insert(key(3), verdict(true)); // now 2 is LRU
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(MemoCache::<CacheEntry>::new(5, 4).stats().shards, 8);
        assert_eq!(MemoCache::<CacheEntry>::new(0, 4).stats().shards, 1);
    }

    #[test]
    fn export_preload_roundtrip_preserves_entries_and_recency() {
        let cache = MemoCache::new(1, 8);
        for i in 0..4 {
            cache.insert(key(i), verdict(i % 2 == 0));
        }
        cache.get(&key(0)); // refresh: 0 becomes MRU
        let exported = cache.export();
        assert_eq!(exported.len(), 4);
        assert_eq!(exported.last().unwrap().0, key(0), "MRU entry exports last");

        let warm = MemoCache::new(1, 8);
        assert_eq!(warm.preload(exported), 4);
        for i in 0..4 {
            assert_eq!(warm.get(&key(i)).unwrap().analysis.holds, i % 2 == 0);
        }
        // Preload itself must not count as workload hits/misses.
        assert_eq!(warm.stats().hits, 4);
        assert_eq!(warm.stats().misses, 0);

        // Preloading into a smaller cache keeps the most recent entries.
        let small = MemoCache::new(1, 2);
        let again = cache.export();
        assert_eq!(small.preload(again), 2);
        assert!(small.stats().entries == 2);
    }
}
