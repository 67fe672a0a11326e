//! The plan cache: normalized query fingerprint → compiled plan artifact.
//!
//! Plans are small (a few hundred bytes of node descriptors), so the cache
//! is budgeted by *entry count* rather than bytes: it reuses the LRU engine
//! with a unit cost per entry, which keeps one implementation — and one
//! single-flight/eviction/stats story — for both caches.

use crate::lru::ShardedLru;
use crate::stats::{CacheCells, CacheStats};
use std::sync::Arc;

/// An LRU cache of compiled plan artifacts keyed by a 64-bit fingerprint of
/// the normalized query (shape + filters + relation versions; see
/// `free-join`'s session module for what goes into the fingerprint).
/// Generic over the plan type so this crate stays independent of the plan
/// representation.
#[derive(Debug)]
pub struct PlanCache<P> {
    inner: ShardedLru<u64, P>,
}

impl<P> PlanCache<P> {
    /// A plan cache holding at most `capacity` plans (LRU-evicted beyond
    /// that). Planning is cheap relative to trie building, so a single shard
    /// suffices; contention on it is one uncontended mutex per prepare.
    pub fn new(capacity: usize) -> Self {
        PlanCache { inner: ShardedLru::new(capacity, 1) }
    }

    /// Fetch the plan for `fingerprint`, building it on a miss. Racing
    /// misses on the same fingerprint coalesce onto one build.
    pub fn try_get_or_build<E>(
        &self,
        fingerprint: u64,
        build: impl FnOnce() -> Result<Arc<P>, E>,
    ) -> Result<Arc<P>, E> {
        self.inner.try_get_or_build(&fingerprint, || build().map(|p| (p, 1)))
    }

    /// Infallible variant of [`PlanCache::try_get_or_build`].
    pub fn get_or_build(&self, fingerprint: u64, build: impl FnOnce() -> Arc<P>) -> Arc<P> {
        self.inner.get_or_build(&fingerprint, || (build(), 1))
    }

    /// Look up without counting stats or building.
    pub fn peek(&self, fingerprint: u64) -> Option<Arc<P>> {
        self.inner.peek(&fingerprint)
    }

    /// Remove every cached plan (e.g. after a catalog-wide reload).
    pub fn clear(&self) -> u64 {
        self.inner.clear()
    }

    /// Counter/gauge readout (refreshes the two gauges). `resident_bytes`
    /// counts entries (unit cost).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// The live cells behind [`PlanCache::stats`].
    pub fn cells(&self) -> &CacheCells {
        self.inner.cells()
    }

    /// Number of cached plans.
    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Maximum number of cached plans.
    pub fn capacity(&self) -> usize {
        self.inner.budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_by_fingerprint_with_capacity() {
        let cache: PlanCache<String> = PlanCache::new(2);
        cache.get_or_build(1, || Arc::new("p1".into()));
        cache.get_or_build(2, || Arc::new("p2".into()));
        let hit = cache.get_or_build(1, || unreachable!());
        assert_eq!(*hit, "p1");
        // Third distinct plan evicts the LRU one (fingerprint 2).
        cache.get_or_build(3, || Arc::new("p3".into()));
        assert!(cache.peek(2).is_none());
        assert!(cache.peek(1).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn failed_plan_builds_propagate() {
        let cache: PlanCache<String> = PlanCache::new(4);
        let err = cache.try_get_or_build(9, || Err::<Arc<String>, &str>("no plan"));
        assert_eq!(err.unwrap_err(), "no plan");
        assert!(cache.is_empty());
        let ok = cache.try_get_or_build::<&str>(9, || Ok(Arc::new("ok".into()))).unwrap();
        assert_eq!(*ok, "ok");
    }
}
