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
//! [`Lru`] is that store: one `Mutex` over an LRU map holding `Arc<V>`
//! values. Publication is first-writer-wins — values are
//! content-addressed, so two racing publishers for one key are by
//! construction publishing interchangeable values, and keeping the
//! incumbent maximizes sharing (the loser's allocation is dropped). A
//! `get` or re-`insert` refreshes the entry's recency. The capacity is
//! exact: `Lru::new(n)` holds at most `n` entries, and inserting into a
//! full store evicts its least-recently-used entry. A served compile takes
//! the lock a few dozen times for microseconds each, against tens of
//! milliseconds of compiling, so one lock does not contend.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

/// Counters of an [`Lru`].
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

/// The locked state: key → (value, recency tick), plus a recency index
/// (tick → key) so eviction is O(log n), not a scan.
struct LruMap<K, V> {
    map: HashMap<K, (Arc<V>, u64)>,
    order: BTreeMap<u64, K>,
    tick: u64,
    stats: StoreStats,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
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
        while self.map.len() >= capacity {
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

/// A bounded, content-addressed LRU store. See the module docs.
pub struct Lru<K, V> {
    inner: Mutex<LruMap<K, V>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A store holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            inner: Mutex::new(LruMap {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                stats: StoreStats::default(),
            }),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruMap<K, V>> {
        self.inner.lock().expect("lru poisoned")
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        self.lock().get(key)
    }

    /// Publishes `value` under `key`. If the key is already present the
    /// incumbent value wins (its recency refreshed) and `value` is
    /// dropped; otherwise the least-recently-used entry is evicted first
    /// when the store is full. Returns the stored `Arc`.
    pub fn insert(&self, key: K, value: V) -> Arc<V> {
        self.lock().insert(key, value, self.capacity)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True when the store holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entries the store can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The store's counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_keeps_only_the_latest() {
        let lru: Lru<u32, u32> = Lru::new(1);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1).as_deref(), Some(&10));
        lru.insert(2, 20);
        assert_eq!(lru.len(), 1, "capacity-1 store holds one entry");
        assert_eq!(lru.get(&1), None, "old entry evicted");
        assert_eq!(lru.get(&2).as_deref(), Some(&20));
        assert_eq!(lru.stats().evictions, 1);
    }

    /// The bound is exact: `n` distinct keys fit with no eviction, and the
    /// next insert evicts exactly the least recently used key.
    #[test]
    fn capacity_is_exact_and_evicts_the_least_recent() {
        for n in [1u32, 8, 64] {
            let lru: Lru<u32, u32> = Lru::new(n as usize);
            assert_eq!(lru.capacity(), n as usize);
            for k in 0..n {
                lru.insert(k, k);
            }
            assert_eq!(lru.len(), n as usize, "capacity {n} holds {n} keys");
            assert_eq!(lru.stats().evictions, 0, "no eviction within capacity {n}");
            assert!((0..n).all(|k| lru.get(&k).is_some()), "every key kept at capacity {n}");
            // Refresh the oldest key; the next-oldest is now the LRU entry.
            lru.get(&0);
            let victim = if n == 1 { 0 } else { 1 };
            lru.insert(n, n);
            assert_eq!(lru.stats().evictions, 1);
            assert_eq!(lru.len(), n as usize);
            for k in 0..=n {
                assert_eq!(lru.get(&k).is_none(), k == victim, "key {k} at capacity {n}");
            }
        }
    }

    #[test]
    fn reinsertion_refreshes_recency() {
        let lru: Lru<u32, u32> = Lru::new(2);
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
        let lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.get(&1);
        lru.insert(3, 30);
        assert_eq!(lru.get(&1).as_deref(), Some(&10), "touched entry survives");
        assert_eq!(lru.get(&2), None, "untouched entry evicted");
    }

    #[test]
    fn first_writer_wins_shares_the_incumbent_arc() {
        let lru: Lru<u32, String> = Lru::new(4);
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
    fn lru_stress_under_eviction_pressure() {
        const THREADS: usize = 8;
        const OPS: usize = 10_000;
        let lru: Lru<u64, u64> = Lru::new(64);
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
                        let key = x % 512; // 512 keys over capacity 64
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
