//! A small hand-rolled LRU map for the engine's instance and simulator-slot caches.
//!
//! The container has no network access, so no `lru` crate: this is a plain
//! `HashMap` with a monotonically increasing access tick per entry and
//! evict-the-smallest-tick on overflow.  Lookup and insert are `O(1)` expected;
//! eviction is `O(len)`, which is irrelevant at the few-hundred-entry capacities an
//! instance cache uses.
//!
//! Entries can carry a **weight** (for the instance cache: approximate bytes of the
//! prepared objective).  Besides the entry-count capacity, an optional total-weight
//! budget bounds the cache: inserts evict least-recently-used entries until the new
//! total fits.  An entry count alone is the wrong bound for this workload — at the
//! service's `n ≤ 24` size cap a single prepared objective is ~170 MiB, so 64 of
//! them would pin ~11 GiB; the weight budget is what actually protects the box.

use std::collections::HashMap;
use std::hash::Hash;

/// A least-recently-used map with a fixed entry capacity and an optional total-weight
/// budget.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone, V> {
    capacity: usize,
    weight_budget: Option<u64>,
    total_weight: u64,
    tick: u64,
    map: HashMap<K, Entry<V>>,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    tick: u64,
    weight: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (no weight budget).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_weight_budget(capacity, None)
    }

    /// Creates a cache bounded by entry count *and* (when `Some`) total weight.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or the budget is `Some(0)`.
    pub fn with_weight_budget(capacity: usize, weight_budget: Option<u64>) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        assert!(
            weight_budget != Some(0),
            "LRU weight budget must be positive"
        );
        LruCache {
            capacity,
            weight_budget,
            total_weight: 0,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Looks up a key, marking it most-recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.tick = tick;
                Some(&entry.value)
            }
            None => None,
        }
    }

    /// Inserts a weightless value, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.insert_weighted(key, value, 0);
    }

    /// Inserts a value with a weight, evicting least-recently-used entries until both
    /// the entry capacity and the weight budget hold.
    ///
    /// An entry heavier than the whole budget is still cached — alone — so a single
    /// oversized instance degrades to "no sharing" rather than to an insert loop.
    pub fn insert_weighted(&mut self, key: K, value: V, weight: u64) {
        self.tick += 1;
        if let Some(old) = self.map.remove(&key) {
            self.total_weight -= old.weight;
        }
        while !self.map.is_empty()
            && (self.map.len() >= self.capacity
                || self
                    .weight_budget
                    .is_some_and(|budget| self.total_weight + weight > budget))
        {
            self.evict_lru();
        }
        self.total_weight += weight;
        self.map.insert(
            key,
            Entry {
                value,
                tick: self.tick,
                weight,
            },
        );
    }

    fn evict_lru(&mut self) {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| k.clone());
        if let Some(entry) = oldest.and_then(|k| self.map.remove(&k)) {
            self.total_weight -= entry.weight;
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sum of the weights of the cached entries.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_insert_round_trip() {
        let mut c = LruCache::new(2);
        assert!(c.is_empty());
        c.insert("a", 1);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        // Touch "a" so "b" is now the LRU entry.
        assert_eq!(c.get(&"a"), Some(&1));
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None, "LRU entry must be evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn weight_budget_evicts_before_entry_capacity() {
        let mut c = LruCache::with_weight_budget(100, Some(10));
        c.insert_weighted("a", 1, 4);
        c.insert_weighted("b", 2, 4);
        assert_eq!(c.total_weight(), 8);
        // 8 + 4 > 10: "a" (LRU) must go even though only 2 of 100 slots are used.
        c.insert_weighted("c", 3, 4);
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_weight(), 8);
    }

    #[test]
    fn an_entry_heavier_than_the_budget_is_cached_alone() {
        let mut c = LruCache::with_weight_budget(100, Some(10));
        c.insert_weighted("a", 1, 4);
        c.insert_weighted("huge", 2, 50);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&"huge"), Some(&2));
        assert_eq!(c.total_weight(), 50);
        // The next normal insert evicts the over-budget giant.
        c.insert_weighted("b", 3, 4);
        assert_eq!(c.get(&"huge"), None);
        assert_eq!(c.total_weight(), 4);
    }

    #[test]
    fn reinserting_a_key_updates_its_weight() {
        let mut c = LruCache::with_weight_budget(100, Some(10));
        c.insert_weighted("a", 1, 8);
        c.insert_weighted("a", 2, 3);
        assert_eq!(c.total_weight(), 3);
        assert_eq!(c.get(&"a"), Some(&2));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = LruCache::<u32, u32>::new(0);
    }

    #[test]
    #[should_panic]
    fn zero_weight_budget_panics() {
        let _ = LruCache::<u32, u32>::with_weight_budget(4, Some(0));
    }
}
