//! Per-node LRU model cache: weights fetched once stay resident.

/// A byte-budgeted LRU cache over opaque keys (model identifiers).
///
/// Backed by a small vector ordered least- to most-recently used — node
/// caches hold a handful of models, so linear scans beat pointer-chasing
/// and keep iteration order (and therefore eviction order) trivially
/// deterministic.
///
/// # Examples
///
/// ```
/// use dilu_net::ModelCache;
///
/// let mut cache = ModelCache::new(100);
/// cache.insert("a", 60);
/// cache.insert("b", 30);
/// assert!(cache.contains(&"a")); // touches "a": "b" is now the LRU
/// cache.insert("c", 40); // evicts "b" (30), then fits next to "a"
/// assert!(!cache.contains(&"b"));
/// assert!(cache.contains(&"a") && cache.contains(&"c"));
/// ```
#[derive(Debug, Clone)]
pub struct ModelCache<K> {
    capacity: u64,
    used: u64,
    /// `(key, bytes)`, least-recently-used first.
    entries: Vec<(K, u64)>,
}

impl<K: PartialEq> ModelCache<K> {
    /// Creates a cache holding up to `capacity` bytes. A zero capacity
    /// is a valid always-miss cache (caching disabled).
    pub fn new(capacity: u64) -> Self {
        ModelCache { capacity, used: 0, entries: Vec::new() }
    }

    /// `true` if `key` is resident; a hit marks it most recently used.
    pub fn contains(&mut self, key: &K) -> bool {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            true
        } else {
            false
        }
    }

    /// Inserts `key` at `bytes`, evicting least-recently-used entries
    /// until it fits. An item larger than the whole capacity is not
    /// cached at all (and evicts nothing). Re-inserting a resident key
    /// refreshes its recency (and size, if it changed).
    pub fn insert(&mut self, key: K, bytes: u64) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            let (k, old) = self.entries.remove(pos);
            self.used -= old;
            // Fall through to re-insert with the new size and recency.
            let _ = k;
        }
        if bytes > self.capacity {
            return;
        }
        while self.used + bytes > self.capacity {
            let (_, evicted) = self.entries.remove(0);
            self.used -= evicted;
        }
        self.used += bytes;
        self.entries.push((key, bytes));
    }

    /// Bytes currently resident.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_lru_order() {
        let mut cache = ModelCache::new(100);
        cache.insert("a", 40);
        cache.insert("b", 40);
        cache.insert("c", 40); // evicts "a" (oldest)
        assert!(!cache.contains(&"a"));
        assert!(cache.contains(&"b"));
        assert!(cache.contains(&"c"));
        assert_eq!(cache.used_bytes(), 80);
    }

    #[test]
    fn a_hit_refreshes_recency() {
        let mut cache = ModelCache::new(100);
        cache.insert("a", 40);
        cache.insert("b", 40);
        assert!(cache.contains(&"a")); // "b" becomes the LRU
        cache.insert("c", 40);
        assert!(!cache.contains(&"b"), "the untouched entry is evicted first");
        assert!(cache.contains(&"a"));
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut cache = ModelCache::new(0);
        cache.insert("a", 1);
        assert!(!cache.contains(&"a"));
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn oversized_items_are_not_cached_and_evict_nothing() {
        let mut cache = ModelCache::new(100);
        cache.insert("a", 60);
        cache.insert("huge", 101);
        assert!(!cache.contains(&"huge"));
        assert!(cache.contains(&"a"), "a rejected item must not evict residents");
    }

    #[test]
    fn exact_fit_works_and_evicts_all() {
        let mut cache = ModelCache::new(100);
        cache.insert("a", 30);
        cache.insert("b", 30);
        cache.insert("exact", 100); // needs the full budget
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&"exact"));
        assert_eq!(cache.used_bytes(), 100);
    }

    #[test]
    fn hit_after_evict_means_refetch() {
        // The cluster's contract: `contains` false ⇒ the caller fetches
        // and re-inserts. Model the round trip.
        let mut cache = ModelCache::new(50);
        cache.insert("a", 30);
        cache.insert("b", 30); // evicts "a"
        assert!(!cache.contains(&"a"), "evicted entries miss");
        cache.insert("a", 30); // the refetch re-caches it
        assert!(cache.contains(&"a"));
        assert!(!cache.contains(&"b"));
    }

    #[test]
    fn reinserting_a_resident_key_updates_size_without_double_counting() {
        let mut cache = ModelCache::new(100);
        cache.insert("a", 40);
        cache.insert("a", 60);
        assert_eq!(cache.used_bytes(), 60);
        assert_eq!(cache.len(), 1);
    }
}
