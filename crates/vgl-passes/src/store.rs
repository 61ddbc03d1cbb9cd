//! Persistent cross-request content-addressed store with bounded LRU
//! eviction — the per-invocation pass cache ([`crate::cache`]) promoted to
//! daemon lifetime.
//!
//! [`crate::cache::dup_groups`] answers "which method in *this* compile is
//! the representative for this fingerprint"; its map lives and dies with
//! one `compile()` call. A compile server wants the complement: artifacts
//! that outlive the request that produced them, keyed by the same
//! content-addressed fingerprints, shared between concurrent sessions, and
//! bounded so a long-lived daemon cannot grow without limit.
//!
//! [`ShardedLru`] is that store: lock-striped (a shard per high byte of the
//! key hash, capped at [`MAX_SHARDS`]), each shard an LRU map holding
//! `Arc<V>` values. Publication is first-writer-wins — values are
//! content-addressed, so two racing publishers for one key are by
//! construction publishing interchangeable values, and keeping the
//! incumbent maximizes sharing (the loser's allocation is dropped).
//! Recency is tracked per shard: a `get` or re-`insert` refreshes the
//! entry, and inserting into a full shard evicts that shard's
//! least-recently-used entry. The size bound is therefore per-shard
//! (`capacity` total spread over the shards); pressure on one shard never
//! evicts another shard's hot entries.

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Upper bound on the number of lock stripes in a [`ShardedLru`]. More
/// stripes than this buys nothing: the daemon's session threads are far
/// fewer than the point where 16 mutexes see meaningful collision.
pub const MAX_SHARDS: usize = 16;

/// Aggregate counters across all shards of a [`ShardedLru`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// `get` calls.
    pub lookups: usize,
    /// `get` calls that found a live entry.
    pub hits: usize,
    /// `insert` calls that created a new entry (not counting refreshes).
    pub inserts: usize,
    /// Entries evicted by capacity pressure.
    pub evictions: usize,
}

impl StoreStats {
    /// Hits per lookup, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// One lock-striped shard: key → (value, recency tick), plus a recency
/// index (tick → key) so eviction is O(log n), not a scan.
struct LruShard<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
    stats: StoreStats,
}

impl<K: Eq + Hash + Clone, V> LruShard<K, V> {
    fn new() -> LruShard<K, V> {
        LruShard {
            map: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            stats: StoreStats::default(),
        }
    }

    fn touch(&mut self, key: &K) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, t)) = self.map.get_mut(key) {
            self.order.remove(t);
            *t = tick;
            self.order.insert(tick, key.clone());
        }
    }

    fn get(&mut self, key: &K) -> Option<Arc<V>> {
        self.stats.lookups += 1;
        if self.map.contains_key(key) {
            self.touch(key);
            self.stats.hits += 1;
            self.map.get(key).map(|(v, _)| Arc::clone(v))
        } else {
            None
        }
    }

    fn insert(&mut self, key: K, value: V, capacity: usize) -> Arc<V> {
        if self.map.contains_key(&key) {
            // First writer wins: the incumbent is content-equal (the store
            // is content-addressed), and keeping it maximizes Arc sharing.
            self.touch(&key);
            return Arc::clone(&self.map[&key].0);
        }
        while self.map.len() >= capacity.max(1) {
            let Some((_, victim)) = self.order.pop_first() else { break };
            self.map.remove(&victim);
            self.stats.evictions += 1;
        }
        self.tick += 1;
        let value = Arc::new(value);
        self.map.insert(key.clone(), (Arc::clone(&value), self.tick));
        self.order.insert(self.tick, key);
        self.stats.inserts += 1;
        value
    }
}

/// A bounded, sharded, content-addressed LRU store. See the module docs.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<LruShard<K, V>>>,
    per_shard: usize,
}

impl<K: Eq + Hash + Clone, V> ShardedLru<K, V> {
    /// A store holding at most `capacity` entries, striped over
    /// `min(shards, MAX_SHARDS)` locks. Each shard holds at most
    /// `ceil(capacity / shards)` entries, so the total bound is exact when
    /// `shards` divides `capacity` and within `shards - 1` otherwise.
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedLru<K, V> {
        let n = shards.clamp(1, MAX_SHARDS);
        let per_shard = capacity.div_ceil(n).max(1);
        ShardedLru {
            shards: (0..n).map(|_| Mutex::new(LruShard::new())).collect(),
            per_shard,
        }
    }

    /// A store holding at most `capacity` entries with the default stripe
    /// count ([`MAX_SHARDS`]).
    pub fn new(capacity: usize) -> ShardedLru<K, V> {
        ShardedLru::with_shards(capacity, MAX_SHARDS)
    }

    fn shard_of(&self, key: &K) -> &Mutex<LruShard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let i = (h.finish() >> 56) as usize % self.shards.len();
        &self.shards[i]
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.shard_of(key).lock().expect("lru shard poisoned").get(key)
    }

    /// Publishes `value` under `key`. If the key is already present the
    /// incumbent value wins (its recency refreshed) and `value` is
    /// dropped; otherwise the shard's least-recently-used entry is evicted
    /// first when the shard is full. Returns the stored `Arc`.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        self.shard_of(&key)
            .lock()
            .expect("lru shard poisoned")
            .insert(key, value, self.per_shard)
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("lru shard poisoned").map.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries the store can hold (per-shard cap × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard * self.shards.len()
    }

    /// Aggregated counters across shards.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        for s in &self.shards {
            let s = s.lock().expect("lru shard poisoned");
            out.lookups += s.stats.lookups;
            out.hits += s.stats.hits;
            out.inserts += s.stats.inserts;
            out.evictions += s.stats.evictions;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let lru: ShardedLru<u32, u32> = ShardedLru::with_shards(1, 1);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1).as_deref(), Some(&10));
        lru.insert(2, 20);
        assert_eq!(lru.len(), 1, "capacity-1 store holds one entry");
        assert_eq!(lru.get(&1), None, "old entry evicted");
        assert_eq!(lru.get(&2).as_deref(), Some(&20));
        assert_eq!(lru.stats().evictions, 1);
    }

    #[test]
    fn reinsertion_refreshes_recency() {
        let lru: ShardedLru<u32, u32> = ShardedLru::with_shards(2, 1);
        lru.insert(1, 10);
        lru.insert(2, 20);
        // Re-inserting 1 refreshes it; inserting 3 must now evict 2.
        lru.insert(1, 99);
        lru.insert(3, 30);
        assert_eq!(lru.get(&1).as_deref(), Some(&10), "incumbent value wins, entry survives");
        assert_eq!(lru.get(&2), None, "LRU entry 2 evicted");
        assert_eq!(lru.get(&3).as_deref(), Some(&30));
    }

    #[test]
    fn get_refreshes_recency() {
        let lru: ShardedLru<u32, u32> = ShardedLru::with_shards(2, 1);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.get(&1);
        lru.insert(3, 30);
        assert_eq!(lru.get(&1).as_deref(), Some(&10), "touched entry survives");
        assert_eq!(lru.get(&2), None, "untouched entry evicted");
    }

    #[test]
    fn first_writer_wins_shares_the_incumbent_arc() {
        let lru: ShardedLru<u32, String> = ShardedLru::with_shards(4, 1);
        let a = lru.insert(7, "seven".to_string());
        let b = lru.insert(7, "seven".to_string());
        assert!(Arc::ptr_eq(&a, &b), "second publish returns the incumbent");
        assert_eq!(lru.stats().inserts, 1);
    }

    /// Deterministic op mix: 8 threads × 10k ops of interleaved publishes
    /// and lookups under heavy eviction pressure (capacity far below the
    /// key range). The store is content-addressed (value is derived from
    /// the key), so every hit must return exactly the value its key maps
    /// to, the size bound must hold at every step a thread can observe,
    /// and the counters must reconcile.
    #[test]
    fn sharded_lru_stress_under_eviction_pressure() {
        const THREADS: usize = 8;
        const OPS: usize = 10_000;
        let lru: ShardedLru<u64, u64> = ShardedLru::with_shards(64, 8);
        let bound = lru.capacity();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let lru = &lru;
                s.spawn(move || {
                    // xorshift64*, seeded per thread — deterministic run.
                    let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (t as u64 + 1);
                    for _ in 0..OPS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 512; // 512 keys over capacity 64+
                        if x & 1 == 0 {
                            let v = lru.insert(key, key.wrapping_mul(0x5bd1_e995));
                            assert_eq!(*v, key.wrapping_mul(0x5bd1_e995));
                        } else if let Some(v) = lru.get(&key) {
                            assert_eq!(
                                *v,
                                key.wrapping_mul(0x5bd1_e995),
                                "content-addressed hit returned a foreign value"
                            );
                        }
                        assert!(lru.len() <= bound, "size bound violated");
                    }
                });
            }
        });
        let st = lru.stats();
        assert!(st.hits <= st.lookups);
        assert!(st.evictions > 0, "eviction pressure was real");
        assert!(lru.len() <= bound);
    }
}
