//! # fj-cache
//!
//! Cross-query caching subsystem for repeated-query serving.
//!
//! The paper's COLT trie amortizes build cost *within* a single query by
//! forcing sub-tries lazily at probe time; a serving workload re-runs the
//! same or similar queries constantly, so the next win is amortizing trie
//! construction and planning *across* queries (cf. Freitag et al.'s simple
//! lazy tries [VLDB 2020], whose eager/lazy trade-off is exactly what
//! cross-query reuse shifts). This crate is the layer between storage and
//! execution that keys, stores, evicts and invalidates those shared
//! structures:
//!
//! * [`ShardedLru`] — the generic engine: a sharded, memory-budgeted map
//!   with **single-flight** builds (racing misses block on the first
//!   builder instead of building twice), **budget-aware eviction** (each
//!   build is timed; among the least-recently-used candidates the victim
//!   with the lowest `build_cost × (1 + hits)` score is evicted, so cheap
//!   tries yield budget to expensive ones). Its counts are [`CacheCells`]:
//!   `fj_obs` counters and gauges the cache owns and a serving process
//!   binds into its metrics registry once, so the `Metrics` exposition
//!   reads the very cells the cache bumps; [`CacheStats`] is their typed
//!   readout for in-process callers.
//! * [`TrieCache`] — `ShardedLru` keyed by [`TrieKey`] `(source, trie
//!   strategy, column key-order)`, where the source is one relation
//!   snapshot `(name, version, rendered filter)` or a bushy plan's pipeline
//!   `(plan text, pipeline index, the snapshot of every atom under it)`,
//!   handing out `Arc` clones of built tries so concurrent queries share
//!   one build.
//! * [`PlanCache`] — maps a normalized query fingerprint to its compiled
//!   plan artifact.
//! * [`fingerprint`] — the stable FNV-1a hashing used for filter and query
//!   fingerprints.
//!
//! Invalidation is by construction: keys embed the relation's monotonic
//! version (bumped by `fj_storage::Catalog` on every mutation), so stale
//! entries become unreachable the moment the data changes and age out of
//! the LRU; [`TrieCache::purge_stale`] reclaims them eagerly.
//!
//! The crate is deliberately independent of the engine crates — it stores
//! any `Send + Sync` value behind an `Arc` — so the dependency points from
//! execution (`free-join`) down into caching, never back.

pub mod fingerprint;
pub mod lru;
pub mod plan_cache;
pub mod stats;
pub mod trie_cache;

pub use fingerprint::{fingerprint_debug, Fingerprinter};
pub use lru::ShardedLru;
pub use plan_cache::PlanCache;
pub use stats::{CacheCells, CacheStats};
pub use trie_cache::{SourceAtom, TrieCache, TrieKey, TrieSource};
