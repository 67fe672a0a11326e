//! Cache observability: one cache's live cells and their typed readout.
//!
//! [`CacheCells`] are the [`fj_obs`] counters and gauges a cache bumps —
//! one cell per number, shared by every shard, bound into a serving
//! process's `fj_obs::MetricsRegistry` once ([`CacheCells::bind`]) under the
//! names `fj_cache_<cache>_<field>`. [`CacheStats`] is their plain `Copy`
//! readout for in-process callers: held across passes, diffed with
//! [`CacheStats::delta`].

use fj_obs::{Counter, Gauge, MetricsRegistry};

/// A point-in-time readout of a cache's counters and gauges — the typed
/// stats API consulted by sessions, benchmarks and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a ready entry.
    pub hits: u64,
    /// Lookups that ran the builder (the entry was absent).
    pub misses: u64,
    /// Lookups that found another thread's build in flight and waited for it
    /// instead of building a second copy (single-flight coalescing).
    pub coalesced: u64,
    /// Entries inserted after a successful build.
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Total bytes (as charged at insert time) of evicted entries.
    pub bytes_evicted: u64,
    /// Built values too large for a shard's budget: returned to the caller
    /// but never retained, so the budget invariant holds.
    pub uncacheable: u64,
    /// Entries removed by explicit invalidation (`retain`/`purge`).
    pub invalidated: u64,
    /// Bytes currently charged against the budget (gauge).
    pub resident_bytes: u64,
    /// Entries currently resident (gauge).
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups (hits + coalesced + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.coalesced + self.misses
    }

    /// Fraction of lookups that did not build: `(hits + coalesced) /
    /// lookups`, or 0.0 with no lookups. A warm serving workload should sit
    /// near 1.0.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / lookups as f64
        }
    }

    /// Counter-wise difference against an earlier readout (gauges are taken
    /// from `self`), for per-pass attribution: `after.delta(&before)`.
    pub fn delta(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            coalesced: self.coalesced - earlier.coalesced,
            inserts: self.inserts - earlier.inserts,
            evictions: self.evictions - earlier.evictions,
            bytes_evicted: self.bytes_evicted - earlier.bytes_evicted,
            uncacheable: self.uncacheable - earlier.uncacheable,
            invalidated: self.invalidated - earlier.invalidated,
            resident_bytes: self.resident_bytes,
            entries: self.entries,
        }
    }
}

/// The live cells of one cache, updated lock-free from every shard. The
/// two gauges are sums over the shards, set whenever the cache's stats are
/// read (`ShardedLru::stats`); the counters are bumped where the event
/// happens. Fields mirror [`CacheStats`], which documents them.
#[derive(Debug, Default)]
pub struct CacheCells {
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) coalesced: Counter,
    pub(crate) inserts: Counter,
    pub(crate) evictions: Counter,
    pub(crate) bytes_evicted: Counter,
    pub(crate) uncacheable: Counter,
    pub(crate) invalidated: Counter,
    pub(crate) resident_bytes: Gauge,
    pub(crate) entries: Gauge,
}

impl CacheCells {
    /// Export every cell as `fj_cache_<cache>_<field>` — once, when the
    /// serving process sets its registry up.
    pub fn bind(&self, registry: &MetricsRegistry, cache: &str) {
        for (field, cell) in [
            ("hits", &self.hits),
            ("misses", &self.misses),
            ("coalesced", &self.coalesced),
            ("inserts", &self.inserts),
            ("evictions", &self.evictions),
            ("bytes_evicted", &self.bytes_evicted),
            ("uncacheable", &self.uncacheable),
            ("invalidated", &self.invalidated),
        ] {
            registry.bind_counter(&format!("fj_cache_{cache}_{field}"), cell);
        }
        registry.bind_gauge(&format!("fj_cache_{cache}_resident_bytes"), &self.resident_bytes);
        registry.bind_gauge(&format!("fj_cache_{cache}_entries"), &self.entries);
    }

    /// Read every cell.
    pub fn read(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            bytes_evicted: self.bytes_evicted.get(),
            uncacheable: self.uncacheable.get(),
            invalidated: self.invalidated.get(),
            resident_bytes: self.resident_bytes.get(),
            entries: self.entries.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_lookups() {
        let s = CacheStats { hits: 6, coalesced: 2, misses: 2, ..CacheStats::default() };
        assert_eq!(s.lookups(), 10);
        assert!((s.hit_rate() - 0.8).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let before = CacheStats { hits: 5, misses: 3, resident_bytes: 100, ..Default::default() };
        let after = CacheStats {
            hits: 9,
            misses: 4,
            resident_bytes: 250,
            entries: 2,
            ..Default::default()
        };
        let d = after.delta(&before);
        assert_eq!(d.hits, 4);
        assert_eq!(d.misses, 1);
        assert_eq!(d.resident_bytes, 250, "gauges come from the later snapshot");
        assert_eq!(d.entries, 2);
    }

    /// The readout and the registry's exposition read the same ten cells.
    #[test]
    fn cells_read_out_typed_and_by_series_name() {
        let cells = CacheCells::default();
        cells.hits.inc();
        cells.hits.inc();
        cells.bytes_evicted.add(64);
        cells.resident_bytes.set(10);
        cells.entries.set(1);
        let s = cells.read();
        assert_eq!((s.hits, s.bytes_evicted, s.resident_bytes, s.entries), (2, 64, 10, 1));

        let registry = MetricsRegistry::new();
        cells.bind(&registry, "trie");
        cells.misses.inc();
        let text = registry.render();
        assert_eq!(text.lines().count(), 10, "{text}");
        assert!(text.contains("fj_cache_trie_hits 2\n"), "{text}");
        assert!(text.contains("fj_cache_trie_misses 1\n"), "{text}");
        assert!(text.contains("fj_cache_trie_resident_bytes 10\n"), "{text}");
    }
}
