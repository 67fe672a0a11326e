//! The shared trie cache: cross-query reuse of built hash tries.

use crate::lru::ShardedLru;
use crate::stats::{CacheCells, CacheStats};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Maximum shard count for trie caches: enough to keep a handful of serving
/// threads off each other's locks without fragmenting the budget.
const MAX_SHARDS: usize = 8;

/// Minimum byte budget per shard. The LRU engine splits the budget evenly
/// across shards and refuses to retain any single value larger than one
/// shard's slice, so the shard count adapts to the budget: small budgets get
/// one shard (the whole budget is usable per entry), large budgets get up to
/// [`MAX_SHARDS`] while keeping each shard's slice — the largest cacheable
/// trie — at least this big.
const MIN_SHARD_BYTES: usize = 64 << 20;

/// One relation snapshot a trie's rows are read from.
///
/// * `relation` / `version` — which data snapshot. The version is the
///   catalog's monotonic counter, so any mutation of the relation makes
///   previously cached tries unreachable (invalidation by key, no broadcast
///   needed).
/// * `filter` — the canonical rendering of the selection pushed down onto
///   the relation (empty for none), since the trie indexes the *filtered*
///   rows. The rendering is exact (it is the key, not a hash of it), so two
///   distinct predicates can never alias one trie.
///
/// Both strings are shared, so a snapshot rendered once (a prepared query
/// keeps the ones no parameter changes) is copied into keys by reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SourceAtom {
    /// Base relation name in the catalog.
    pub relation: Arc<str>,
    /// The relation's catalog version at build time.
    pub version: u64,
    /// Canonical rendering of the pushed-down selection predicate (empty =
    /// unfiltered).
    pub filter: Arc<str>,
}

/// The rows a cached trie indexes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TrieSource {
    /// The (filtered) rows of one base relation.
    Atom(SourceAtom),
    /// The materialized result of one pipeline of a bushy plan — exact like
    /// everything else in the key: the canonical text of the plan (which
    /// fixes the pipeline's shape, its variables and so its columns), the
    /// pipeline's index in it, and the snapshot of every atom the pipeline
    /// reads, its own input pipelines included, in plan order.
    Pipeline {
        /// The canonical text the plan was compiled for.
        plan: Arc<str>,
        /// The pipeline's index in the compiled plan.
        pipeline: u32,
        /// Every atom under the pipeline, transitively, in plan order.
        atoms: Vec<SourceAtom>,
    },
}

/// The identity of a built trie. Two pipeline inputs may share a cached trie
/// exactly when every component matches:
///
/// * `source` — the rows the trie indexes ([`TrieSource`]).
/// * `strategy` — the trie build strategy name (`"colt"`, `"slt"`,
///   `"simple"`); a COLT and a fully-built simple trie are different
///   structures even over identical data.
/// * `key_order` — the *column indices* keyed at each trie level. Variable
///   names are deliberately absent: two queries binding different variables
///   to the same columns in the same order (e.g. the two sides of a
///   self-join) share one trie.
///
/// A key hashes its components once, when it is made, and carries the
/// 64-bit result: a lookup copies it into the shard choice and the shard's
/// map instead of hashing the key (a pipeline's plan text included) again.
/// The hash is keyed per process, so a peer cannot aim filter texts at one
/// bucket. Equality still compares every component, so keys whose hashes
/// collide never alias one trie.
#[derive(Debug, Clone)]
pub struct TrieKey {
    hash: u64,
    source: TrieSource,
    strategy: &'static str,
    key_order: Arc<[Vec<u32>]>,
}

/// The process's key hasher: randomly keyed once, the same for every key.
fn key_hasher() -> &'static RandomState {
    static HASHER: OnceLock<RandomState> = OnceLock::new();
    HASHER.get_or_init(RandomState::new)
}

impl TrieKey {
    /// The key of the trie over `source`'s rows built with `strategy`,
    /// keyed by `key_order`'s columns level by level.
    pub fn new(
        source: TrieSource,
        strategy: &'static str,
        key_order: impl Into<Arc<[Vec<u32>]>>,
    ) -> Self {
        let key_order = key_order.into();
        let hash = key_hasher().hash_one((&source, strategy, &*key_order));
        TrieKey { hash, source, strategy, key_order }
    }

    /// The rows the trie indexes.
    pub fn source(&self) -> &TrieSource {
        &self.source
    }

    /// Trie build strategy name.
    pub fn strategy(&self) -> &'static str {
        self.strategy
    }

    /// Column indices keyed at each trie level, shared with every key
    /// cloned from this one.
    pub fn key_order(&self) -> &Arc<[Vec<u32>]> {
        &self.key_order
    }

    /// Every relation snapshot the trie's rows were read from: the one atom
    /// of a base trie, every atom under an intermediate's pipeline.
    pub fn atoms(&self) -> &[SourceAtom] {
        match &self.source {
            TrieSource::Atom(atom) => std::slice::from_ref(atom),
            TrieSource::Pipeline { atoms, .. } => atoms,
        }
    }
}

impl PartialEq for TrieKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.strategy == other.strategy
            && self.key_order == other.key_order
            && self.source == other.source
    }
}

impl Eq for TrieKey {}

impl Hash for TrieKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Hashes a [`TrieKey`] by taking the hash it carries.
#[derive(Debug, Default, Clone, Copy)]
struct CarriedHash(u64);

impl Hasher for CarriedHash {
    fn write(&mut self, bytes: &[u8]) {
        // Only a `TrieKey` is hashed here, through `write_u64`; fold
        // anything else in rather than drop it.
        for &byte in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(byte);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A memory-budgeted, sharded LRU cache of built tries, generic over the
/// trie type so the engine crate above supplies its own (`fj-cache` stays
/// independent of execution). Values are handed out as `Arc` clones;
/// concurrent queries racing on a cold key share a single build.
///
/// Each entry is charged the byte size its builder reports at insert time —
/// for the engine's tries, a pessimistic bound *derived from the actual
/// layout* (`InputTrie::estimated_bytes` charges every row, at every level,
/// its `u32` in the level's grouped offset array, its 16/7 slots — a
/// `size_of::<(u64, u32)>()` entry and a control byte each — of a word-keyed
/// index sized from the row count, and one `size_of::<TrieNode>()` child),
/// so the budget invariant stays honest across representation changes
/// rather than relying on a hand-tuned constant.
#[derive(Debug)]
pub struct TrieCache<T> {
    inner: ShardedLru<TrieKey, T, BuildHasherDefault<CarriedHash>>,
}

impl<T> TrieCache<T> {
    /// A trie cache with the given total byte budget and adaptive sharding:
    /// enough shards for lock spreading, but never so many that a shard's
    /// slice of the budget (which bounds the largest cacheable trie) drops
    /// below `MIN_SHARD_BYTES` (64 MiB) — small budgets collapse to one shard so
    /// the whole budget is usable by a single entry.
    pub fn new(budget_bytes: usize) -> Self {
        let shards = (budget_bytes / MIN_SHARD_BYTES).clamp(1, MAX_SHARDS);
        Self::with_shards(budget_bytes, shards)
    }

    /// A trie cache with an explicit shard count (tests use 1 shard for a
    /// globally deterministic LRU order).
    pub fn with_shards(budget_bytes: usize, shards: usize) -> Self {
        TrieCache { inner: ShardedLru::new(budget_bytes, shards) }
    }

    /// Fetch the trie for `key`, building (and charging `bytes`) on a miss.
    /// See [`ShardedLru::try_get_or_build`] for the single-flight contract.
    pub fn try_get_or_build<E>(
        &self,
        key: &TrieKey,
        build: impl FnOnce() -> Result<(Arc<T>, usize), E>,
    ) -> Result<Arc<T>, E> {
        self.inner.try_get_or_build(key, build)
    }

    /// Infallible variant of [`TrieCache::try_get_or_build`].
    pub fn get_or_build(&self, key: &TrieKey, build: impl FnOnce() -> (Arc<T>, usize)) -> Arc<T> {
        self.inner.get_or_build(key, build)
    }

    /// Look up without counting stats or building.
    pub fn peek(&self, key: &TrieKey) -> Option<Arc<T>> {
        self.inner.peek(key)
    }

    /// Drop every cached trie that reads `relation` (all versions),
    /// intermediates of pipelines over it included. Returns the number of
    /// entries removed. Not needed for correctness — version-keyed entries
    /// are already unreachable after a mutation — but reclaims their budget
    /// immediately instead of waiting for LRU churn.
    pub fn invalidate_relation(&self, relation: &str) -> u64 {
        self.inner.retain(|k| k.atoms().iter().all(|a| &*a.relation != relation))
    }

    /// Drop cached tries that read `relation` at a version older than
    /// `current_version`.
    pub fn purge_stale(&self, relation: &str, current_version: u64) -> u64 {
        let stale = |a: &SourceAtom| &*a.relation == relation && a.version < current_version;
        self.inner.retain(|k| !k.atoms().iter().any(stale))
    }

    /// Remove everything.
    pub fn clear(&self) -> u64 {
        self.inner.clear()
    }

    /// Counter/gauge readout (refreshes the two gauges).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// The live cells behind [`TrieCache::stats`].
    pub fn cells(&self) -> &CacheCells {
        self.inner.cells()
    }

    /// Bytes currently charged against the budget.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.inner.budget()
    }

    /// Number of cached tries.
    pub fn len(&self) -> u64 {
        self.inner.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(relation: &str, version: u64) -> SourceAtom {
        SourceAtom { relation: relation.into(), version, filter: "".into() }
    }

    fn key_of(source: TrieSource) -> TrieKey {
        TrieKey::new(source, "colt", vec![vec![0], vec![1]])
    }

    fn key(relation: &str, version: u64) -> TrieKey {
        key_of(TrieSource::Atom(atom(relation, version)))
    }

    /// The result of pipeline 0 of `plan` over `R` at `r_version` and `S@1`.
    fn pipe_key(plan: &str, r_version: u64) -> TrieKey {
        key_of(TrieSource::Pipeline {
            plan: plan.into(),
            pipeline: 0,
            atoms: vec![atom("R", r_version), atom("S", 1)],
        })
    }

    #[test]
    fn version_distinguishes_keys() {
        let cache: TrieCache<&'static str> = TrieCache::new(1 << 16);
        cache.get_or_build(&key("R", 1), || (Arc::new("v1"), 8));
        // Same relation, newer version: a distinct entry.
        let v2 = cache.get_or_build(&key("R", 2), || (Arc::new("v2"), 8));
        assert_eq!(*v2, "v2");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn key_order_and_filter_distinguish_keys() {
        let cache: TrieCache<u32> = TrieCache::new(1 << 16);
        let base = key("R", 1);
        let flipped = TrieKey::new(base.source().clone(), "colt", vec![vec![1], vec![0]]);
        let filtered =
            key_of(TrieSource::Atom(SourceAtom { filter: "src > 99".into(), ..atom("R", 1) }));
        cache.get_or_build(&base, || (Arc::new(0), 8));
        cache.get_or_build(&flipped, || (Arc::new(1), 8));
        cache.get_or_build(&filtered, || (Arc::new(2), 8));
        assert_eq!(cache.len(), 3);
        assert_eq!(*cache.peek(&base).unwrap(), 0);
        assert_eq!(*cache.peek(&flipped).unwrap(), 1);
        assert_eq!(*cache.peek(&filtered).unwrap(), 2);
    }

    #[test]
    fn invalidate_and_purge_stale() {
        let cache: TrieCache<u32> = TrieCache::new(1 << 16);
        cache.get_or_build(&key("R", 1), || (Arc::new(1), 8));
        cache.get_or_build(&key("R", 2), || (Arc::new(2), 8));
        cache.get_or_build(&key("S", 1), || (Arc::new(3), 8));
        assert_eq!(cache.purge_stale("R", 2), 1, "only R@1 is stale");
        assert!(cache.peek(&key("R", 2)).is_some());
        assert_eq!(cache.invalidate_relation("R"), 1);
        assert!(cache.peek(&key("R", 2)).is_none());
        assert!(cache.peek(&key("S", 1)).is_some(), "other relations untouched");
        assert_eq!(cache.stats().invalidated, 2);
    }

    /// An intermediate is keyed by its plan, its pipeline and every atom
    /// under it, and goes when any relation it reads does.
    #[test]
    fn pipeline_keys_are_exact_and_follow_their_relations() {
        let cache: TrieCache<u32> = TrieCache::new(1 << 16);
        cache.get_or_build(&pipe_key("plan a", 1), || (Arc::new(1), 8));
        cache.get_or_build(&pipe_key("plan a", 2), || (Arc::new(2), 8));
        cache.get_or_build(&pipe_key("plan b", 2), || (Arc::new(3), 8));
        let other_pipeline = key_of(TrieSource::Pipeline {
            plan: "plan a".into(),
            pipeline: 1,
            atoms: vec![atom("R", 2), atom("S", 1)],
        });
        cache.get_or_build(&other_pipeline, || (Arc::new(4), 8));
        cache.get_or_build(&key("S", 1), || (Arc::new(5), 8));
        assert_eq!(cache.len(), 5, "plan, pipeline and atom versions all tell entries apart");
        assert_eq!(*cache.peek(&pipe_key("plan a", 2)).unwrap(), 2);

        assert_eq!(cache.purge_stale("R", 2), 1, "only the pipeline over R@1 is stale");
        assert_eq!(cache.purge_stale("S", 1), 0);
        assert_eq!(cache.invalidate_relation("R"), 3, "every pipeline that reads R");
        assert_eq!(cache.invalidate_relation("S"), 1, "and S's own trie");
        assert!(cache.is_empty());
    }
}
