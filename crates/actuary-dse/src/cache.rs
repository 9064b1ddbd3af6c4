//! The one bounded LRU map behind both cache layers: the engine's
//! [`crate::portfolio::SharedCoreCache`] and the server's result cache.
//!
//! Recency is a logical tick, not a clock: one lookup or insert call is
//! one tick, so every key it touches ages together. Eviction scans for
//! the least recently used entry (the first in key order on a tie) —
//! O(n) per evicted entry, deterministic, and cheap at the capacities the
//! server configures.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// Lifetime counters and occupancy of one [`Lru`] (the server surfaces
/// them on `GET /statz` and `GET /metricsz`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries discarded to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A thread-safe map bounded at `capacity` entries, evicting the least
/// recently used. A capacity of `0` disables storage: every lookup misses
/// and nothing is retained.
pub struct Lru<K, V> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
}

struct Inner<K, V> {
    /// Per key: the tick of its last use, and the value.
    map: BTreeMap<K, (u64, V)>,
    tick: u64,
    /// Hits, misses and evictions; `entries` is read off `map`.
    stats: CacheStats,
}

impl<K, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    /// Lifetime hit/miss/eviction counters and current occupancy.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    /// The lock is never held across caller code, so a panicking caller
    /// cannot poison it; if a panic ever unwinds through an update anyway,
    /// the plain-data state is still coherent.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<K: Ord + Clone, V: Clone> Lru<K, V> {
    /// Looks up every key, refreshing recency on hits. One call is one
    /// recency tick.
    pub fn get_all(&self, keys: &[K]) -> Vec<Option<V>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let found: Vec<Option<V>> = keys
            .iter()
            .map(|key| {
                inner.map.get_mut(key).map(|(last_used, value)| {
                    *last_used = tick;
                    value.clone()
                })
            })
            .collect();
        let hits = found.iter().filter(|value| value.is_some()).count() as u64;
        inner.stats.hits += hits;
        inner.stats.misses += keys.len() as u64 - hits;
        found
    }

    /// [`Lru::get_all`] for one key.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_all(std::slice::from_ref(key)).pop().flatten()
    }

    /// Inserts `entries` under one recency tick, then evicts least
    /// recently used entries until the capacity bound holds again.
    pub fn insert_all(&self, entries: impl IntoIterator<Item = (K, V)>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        for (key, value) in entries {
            inner.map.insert(key, (tick, value));
        }
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(key, _)| key.clone());
            let Some(key) = oldest else { break };
            inner.map.remove(&key);
            inner.stats.evictions += 1;
        }
    }

    /// [`Lru::insert_all`] for one entry.
    pub fn insert(&self, key: K, value: V) {
        self.insert_all([(key, value)]);
    }
}

impl<K, V> fmt::Debug for Lru<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lru")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let lru: Lru<u32, &str> = Lru::new(2);
        lru.insert(1, "one");
        lru.insert(2, "two");
        assert_eq!(lru.get(&1), Some("one"));
        // 2 is now the oldest.
        lru.insert(3, "three");
        assert_eq!(
            lru.get_all(&[1, 2, 3]),
            vec![Some("one"), None, Some("three")]
        );
        assert_eq!(
            lru.stats(),
            CacheStats {
                hits: 3,
                misses: 1,
                evictions: 1,
                entries: 2,
            }
        );
    }

    #[test]
    fn one_call_is_one_tick_and_ties_evict_in_key_order() {
        let lru: Lru<u32, u32> = Lru::new(2);
        lru.insert_all([(5, 50), (4, 40)]);
        lru.insert(6, 60);
        // 4 and 5 share a tick: the first in key order goes.
        assert_eq!(lru.get_all(&[4, 5, 6]), vec![None, Some(50), Some(60)]);
    }
}
