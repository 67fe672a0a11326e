//! The generic cache engine: a sharded, memory-budgeted LRU map with
//! single-flight builds.
//!
//! # Sharding
//!
//! Keys hash to one of `N` shards, each guarded by its own mutex, so
//! concurrent sessions touching different keys never contend. The shard is
//! chosen from the same hash the shard's map uses (its high half; the map
//! indexes by the low bits), computed by the cache's `BuildHasher` — for a
//! key that carries a precomputed hash (`TrieKey`), that is a copy, not a
//! pass over the key. The byte budget is split evenly across shards
//! (`total / N` each), which keeps the global invariant — resident bytes
//! never exceed the configured budget — enforceable with per-shard locking
//! only.
//!
//! # Single-flight
//!
//! A lookup that misses while another thread is already building the same
//! key *waits for that build* instead of starting a second one: each shard
//! keeps an in-flight table of `Mutex`+`Condvar` cells. The designated
//! builder runs the (potentially expensive) build closure **outside** the
//! shard lock, publishes the value, and wakes the waiters. If the builder
//! fails or panics, a drop guard clears the cell and waiters retry — one of
//! them becomes the next builder — so an error never wedges the key.
//!
//! # Eviction
//!
//! Entries are evicted until the shard is back under budget *before* a new
//! entry is linked in; a value larger than a whole shard's budget is
//! returned to the caller but never retained. Both paths keep the budget
//! invariant unconditional: at no instant does the cache's charged size
//! exceed its budget.
//!
//! Victim selection is **budget-aware**, not pure LRU: the cache times each
//! build closure and charges the entry its build cost in microseconds, and
//! each hit bumps the entry's hit counter. When space is needed, the
//! [`EVICT_WINDOW`] least-recently-used entries are candidates and the one
//! with the lowest `build_cost × (1 + hits)` score is evicted — a trie that
//! is cheap to rebuild yields budget to an expensive one of similar
//! recency, while anything outside the LRU window is never touched, so hot
//! entries keep the protection plain LRU gave them. Ties (e.g. all-zero
//! scores from instant builders) fall back to least-recently-used.

use crate::stats::{CacheCells, CacheStats};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// How many least-recently-used entries compete for eviction. Within the
/// window the cheapest-to-rebuild (lowest `build_cost × (1 + hits)`) entry
/// loses; entries more recent than the window are never considered, which
/// bounds how far cost-awareness can deviate from LRU.
pub const EVICT_WINDOW: usize = 8;

/// A ready cache entry.
#[derive(Debug)]
struct Entry<V> {
    value: Arc<V>,
    /// Bytes charged against the budget for this entry (fixed at insert).
    bytes: usize,
    /// Recency tick; also this entry's key in the shard's LRU index.
    last_used: u64,
    /// Wall-clock microseconds the build closure took (fixed at insert) —
    /// the replacement cost this entry's survival saves.
    cost_micros: u64,
    /// Lookups served by this entry since insert.
    hits: u64,
}

/// One cell of the in-flight (single-flight) table.
#[derive(Debug)]
struct InFlight<V> {
    state: Mutex<FlightState<V>>,
    cv: Condvar,
}

#[derive(Debug)]
enum FlightState<V> {
    Pending,
    Done(Arc<V>),
    /// The builder failed or panicked; waiters retry from scratch.
    Failed,
}

impl<V> InFlight<V> {
    fn new() -> Arc<Self> {
        Arc::new(InFlight { state: Mutex::new(FlightState::Pending), cv: Condvar::new() })
    }

    /// Block until the build completes; `None` means it failed.
    fn wait(&self) -> Option<Arc<V>> {
        let mut state = self.state.lock().expect("in-flight cell not poisoned");
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self.cv.wait(state).expect("in-flight cell not poisoned");
                }
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Failed => return None,
            }
        }
    }

    fn resolve(&self, outcome: FlightState<V>) {
        *self.state.lock().expect("in-flight cell not poisoned") = outcome;
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct Shard<K, V, S> {
    ready: HashMap<K, Entry<V>, S>,
    /// Recency index: tick → key, lowest tick = least recently used.
    lru: BTreeMap<u64, K>,
    building: HashMap<K, Arc<InFlight<V>>, S>,
    /// Bytes currently charged in this shard.
    bytes: usize,
    /// Monotonic recency clock (per shard).
    tick: u64,
}

impl<K, V, S: Clone> Shard<K, V, S> {
    fn new(hasher: &S) -> Self {
        Shard {
            ready: HashMap::with_hasher(hasher.clone()),
            lru: BTreeMap::new(),
            building: HashMap::with_hasher(hasher.clone()),
            bytes: 0,
            tick: 0,
        }
    }
}

/// A sharded, memory-budgeted LRU cache with single-flight builds. See the
/// module docs for the design; [`crate::TrieCache`] and [`crate::PlanCache`]
/// are thin typed wrappers over this. `S` hashes keys, for the shard choice
/// and inside each shard alike.
#[derive(Debug)]
pub struct ShardedLru<K, V, S = RandomState> {
    shards: Vec<Mutex<Shard<K, V, S>>>,
    hasher: S,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    cells: CacheCells,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Clone + Default> ShardedLru<K, V, S> {
    /// A cache with the given total byte budget, sharded `num_shards` ways.
    /// The budget is split evenly; `num_shards` is clamped to at least 1.
    pub fn new(budget_bytes: usize, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let hasher = S::default();
        ShardedLru {
            shards: (0..num_shards).map(|_| Mutex::new(Shard::new(&hasher))).collect(),
            hasher,
            shard_budget: budget_bytes / num_shards,
            cells: CacheCells::default(),
        }
    }

    /// The total byte budget (sum of shard budgets).
    pub fn budget(&self) -> usize {
        self.shard_budget * self.shards.len()
    }

    fn shard_for(&self, key: &K) -> &Mutex<Shard<K, V, S>> {
        let hash = self.hasher.hash_one(key);
        &self.shards[((hash >> 32) as usize) % self.shards.len()]
    }

    fn lock(shard: &Mutex<Shard<K, V, S>>) -> MutexGuard<'_, Shard<K, V, S>> {
        shard.lock().expect("cache shard not poisoned")
    }

    /// Look up a ready entry, bumping its recency. Does not touch the
    /// hit/miss counters — use [`ShardedLru::try_get_or_build`] on the
    /// serving path.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        let mut shard = Self::lock(self.shard_for(key));
        Self::touch_entry(&mut shard, key)
    }

    /// Get the value for `key`, building it with `build` on a miss.
    ///
    /// The builder returns the value together with the bytes to charge
    /// against the budget. It runs outside all cache locks; concurrent
    /// lookups of the same key block until it finishes and then share the
    /// one built value (single-flight). A failed build is not cached: the
    /// error propagates to the builder's caller, and exactly one of the
    /// waiters becomes the next builder.
    pub fn try_get_or_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<(Arc<V>, usize), E>,
    ) -> Result<Arc<V>, E> {
        enum Action<V> {
            Ready(Arc<V>),
            Wait(Arc<InFlight<V>>),
            Build(Arc<InFlight<V>>),
        }
        loop {
            let shard_mutex = self.shard_for(key);
            let action = {
                let mut shard = Self::lock(shard_mutex);
                if let Some(v) = Self::touch_entry(&mut shard, key) {
                    self.cells.hits.inc();
                    Action::Ready(v)
                } else if let Some(flight) = shard.building.get(key) {
                    self.cells.coalesced.inc();
                    Action::Wait(flight.clone())
                } else {
                    let flight = InFlight::new();
                    shard.building.insert(key.clone(), flight.clone());
                    self.cells.misses.inc();
                    Action::Build(flight)
                }
            };
            match action {
                Action::Ready(v) => return Ok(v),
                Action::Wait(flight) => match flight.wait() {
                    Some(v) => return Ok(v),
                    // The build failed; loop to retry (possibly as builder).
                    None => continue,
                },
                Action::Build(flight) => {
                    // Clears the in-flight cell on failure *or unwind*, so a
                    // panicking builder never wedges waiters.
                    let mut guard = BuildGuard { cache: self, key, flight: &flight, armed: true };
                    let build_start = Instant::now();
                    let (value, bytes) = build()?;
                    let cost_micros =
                        build_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    let mut shard = Self::lock(shard_mutex);
                    shard.building.remove(key);
                    self.insert_ready(&mut shard, key.clone(), value.clone(), bytes, cost_micros);
                    drop(shard);
                    flight.resolve(FlightState::Done(value.clone()));
                    guard.armed = false;
                    return Ok(value);
                }
            }
        }
    }

    /// Infallible variant of [`ShardedLru::try_get_or_build`].
    pub fn get_or_build(&self, key: &K, build: impl FnOnce() -> (Arc<V>, usize)) -> Arc<V> {
        self.try_get_or_build::<std::convert::Infallible>(key, || Ok(build()))
            .unwrap_or_else(|e| match e {})
    }

    /// Drop every ready entry whose key fails the predicate, returning how
    /// many were removed. In-flight builds are left alone (their keys embed
    /// versions, so a stale in-flight entry is simply never looked up again).
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) -> u64 {
        let mut removed = 0;
        for shard_mutex in &self.shards {
            let mut shard = Self::lock(shard_mutex);
            let doomed: Vec<K> = shard.ready.keys().filter(|k| !keep(k)).cloned().collect();
            for key in doomed {
                if let Some(entry) = shard.ready.remove(&key) {
                    shard.lru.remove(&entry.last_used);
                    shard.bytes -= entry.bytes;
                    removed += 1;
                }
            }
        }
        self.cells.invalidated.add(removed);
        removed
    }

    /// Remove every ready entry.
    pub fn clear(&self) -> u64 {
        self.retain(|_| false)
    }

    /// Bytes currently charged against the budget across all shards.
    pub fn resident_bytes(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock(s).bytes as u64).sum()
    }

    /// Number of ready entries.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock(s).ready.len() as u64).sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache's live cells, for binding into a metrics registry.
    pub fn cells(&self) -> &CacheCells {
        &self.cells
    }

    /// Sum the shards into the two gauges, then read every cell.
    pub fn stats(&self) -> CacheStats {
        let (mut bytes, mut entries) = (0u64, 0u64);
        for shard_mutex in &self.shards {
            let shard = Self::lock(shard_mutex);
            bytes += shard.bytes as u64;
            entries += shard.ready.len() as u64;
        }
        self.cells.resident_bytes.set(bytes);
        self.cells.entries.set(entries);
        self.cells.read()
    }

    /// Look up `key` in a locked shard and bump its recency and hit count.
    fn touch_entry(shard: &mut Shard<K, V, S>, key: &K) -> Option<Arc<V>> {
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.ready.get_mut(key)?;
        let old = std::mem::replace(&mut entry.last_used, tick);
        entry.hits += 1;
        let value = entry.value.clone();
        let key = shard.lru.remove(&old).expect("ready entries are LRU-indexed");
        shard.lru.insert(tick, key);
        Some(value)
    }

    /// Link a freshly built entry into a locked shard, evicting entries
    /// first so the shard never exceeds its budget. Oversized values are not
    /// retained at all.
    fn insert_ready(
        &self,
        shard: &mut Shard<K, V, S>,
        key: K,
        value: Arc<V>,
        bytes: usize,
        cost_micros: u64,
    ) {
        if bytes > self.shard_budget {
            self.cells.uncacheable.inc();
            return;
        }
        // Re-inserting over an existing entry (e.g. after an invalidation
        // raced a rebuild of the same key): unlink the old one first.
        if let Some(old) = shard.ready.remove(&key) {
            shard.lru.remove(&old.last_used);
            shard.bytes -= old.bytes;
        }
        while shard.bytes + bytes > self.shard_budget {
            let victim_tick = Self::pick_victim(shard);
            let victim = shard.lru.remove(&victim_tick).expect("victim came from the LRU index");
            let evicted = shard.ready.remove(&victim).expect("LRU index matches ready map");
            shard.bytes -= evicted.bytes;
            self.cells.evictions.inc();
            self.cells.bytes_evicted.add(evicted.bytes as u64);
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.lru.insert(tick, key.clone());
        shard
            .ready
            .insert(key, Entry { value, bytes, last_used: tick, cost_micros, hits: 0 });
        shard.bytes += bytes;
        self.cells.inserts.inc();
    }

    /// The recency tick of the entry to evict: among the [`EVICT_WINDOW`]
    /// least-recently-used entries, the one with the lowest
    /// `build_cost × (1 + hits)` score — strict `<` keeps the least recent
    /// on ties, so instant builders degrade to exact LRU.
    fn pick_victim(shard: &Shard<K, V, S>) -> u64 {
        let mut best: Option<(u64, u128)> = None;
        for (&tick, key) in shard.lru.iter().take(EVICT_WINDOW) {
            let entry = shard.ready.get(key).expect("LRU index matches ready map");
            let score = (entry.cost_micros as u128) * (1 + entry.hits as u128);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((tick, score));
            }
        }
        best.expect("nonempty shard over budget").0
    }
}

/// Clears a key's in-flight cell when its build fails or unwinds.
struct BuildGuard<'a, K: Hash + Eq + Clone, V, S: BuildHasher + Clone + Default> {
    cache: &'a ShardedLru<K, V, S>,
    key: &'a K,
    flight: &'a Arc<InFlight<V>>,
    armed: bool,
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Clone + Default> Drop for BuildGuard<'_, K, V, S> {
    fn drop(&mut self) {
        if self.armed {
            let shard_mutex = self.cache.shard_for(self.key);
            ShardedLru::lock(shard_mutex).building.remove(self.key);
            self.flight.resolve(FlightState::Failed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn val(n: u64) -> (Arc<u64>, usize) {
        (Arc::new(n), 8)
    }

    #[test]
    fn hit_after_build() {
        let cache: ShardedLru<String, u64> = ShardedLru::new(1024, 4);
        let a = cache.get_or_build(&"k".to_string(), || val(7));
        let b = cache.get_or_build(&"k".to_string(), || panic!("must not rebuild"));
        assert_eq!(*a, 7);
        assert!(Arc::ptr_eq(&a, &b), "hits share the built Arc");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, 8);
    }

    #[test]
    fn peek_does_not_count() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(1024, 2);
        assert!(cache.peek(&1).is_none());
        cache.get_or_build(&1, || val(1));
        assert_eq!(*cache.peek(&1).unwrap(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 1));
    }

    /// Insert `key -> n` (8 bytes) as if its build had taken `cost_micros`,
    /// bypassing the clock `try_get_or_build` times the closure with.
    fn insert_costing(cache: &ShardedLru<u32, u64>, key: u32, n: u64, cost_micros: u64) {
        let mut shard = ShardedLru::lock(cache.shard_for(&key));
        cache.insert_ready(&mut shard, key, Arc::new(n), 8, cost_micros);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // One shard so recency is global; room for two 8-byte entries. Both
        // builds cost the same by construction: measured, an "instant"
        // closure that gets preempted reads >= 1 us against the other's 0,
        // and the score — not recency, which is what this test is about —
        // then picks the victim (it did, in about one full run in thirty).
        let cache: ShardedLru<u32, u64> = ShardedLru::new(16, 1);
        insert_costing(&cache, 1, 1, 0);
        insert_costing(&cache, 2, 2, 0);
        // Touch 1 so 2 is now least recently used.
        cache.get_or_build(&1, || unreachable!());
        cache.get_or_build(&3, || val(3));
        assert!(cache.peek(&1).is_some(), "recently used entry survives");
        assert!(cache.peek(&2).is_none(), "LRU entry was evicted");
        assert!(cache.peek(&3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes_evicted, 8);
        assert!(s.resident_bytes <= 16);
    }

    /// Budget-aware admission: a cheap-to-rebuild entry yields budget to an
    /// expensive one even when the expensive one is *less* recently used —
    /// exactly where pure LRU would get it wrong.
    #[test]
    fn cheap_to_rebuild_entry_yields_budget_to_expensive_one() {
        // One shard, room for two 8-byte entries.
        let cache: ShardedLru<u32, u64> = ShardedLru::new(16, 1);
        // The expensive entry is inserted FIRST, so it is the LRU victim a
        // cost-blind policy would pick.
        cache.get_or_build(&1, || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            val(1)
        });
        cache.get_or_build(&2, || val(2)); // instant build: cost ~0 us
        cache.get_or_build(&3, || val(3)); // forces one eviction
        assert!(
            cache.peek(&1).is_some(),
            "expensive-to-rebuild entry must survive despite being least recent"
        );
        assert!(cache.peek(&2).is_none(), "cheap entry yielded its budget");
        assert!(cache.peek(&3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    /// Hits weigh into the eviction score: of two equally expensive entries,
    /// the unused one loses to the frequently hit one regardless of recency.
    #[test]
    fn eviction_score_weighs_recent_hits() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(16, 1);
        let slow = || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            val(0)
        };
        cache.get_or_build(&1, slow);
        cache.get_or_build(&2, slow);
        // Hit 1 three times; 2 stays unused but becomes the most recent via
        // one final touchless insert order — then hit 2 once so it is MORE
        // recent than 1 yet has fewer hits.
        for _ in 0..3 {
            cache.get_or_build(&1, || unreachable!());
        }
        cache.get_or_build(&2, || unreachable!());
        cache.get_or_build(&3, slow); // forces one eviction
        assert!(cache.peek(&1).is_some(), "heavily hit entry survives");
        assert!(cache.peek(&2).is_none(), "similar cost, fewer hits: evicted");
    }

    #[test]
    fn budget_is_never_exceeded_under_churn() {
        let cache: ShardedLru<u32, Vec<u8>> = ShardedLru::new(1000, 4);
        for i in 0..200 {
            let bytes = 17 + (i as usize % 91);
            cache.get_or_build(&i, || (Arc::new(vec![0u8; bytes]), bytes));
            assert!(
                cache.resident_bytes() <= cache.budget() as u64,
                "budget exceeded at insert {i}"
            );
        }
        assert!(cache.stats().evictions > 0, "churn must have evicted something");
    }

    #[test]
    fn oversized_values_are_returned_but_not_retained() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(16, 1);
        let v = cache.get_or_build(&1, || (Arc::new(9), 64));
        assert_eq!(*v, 9);
        assert!(cache.peek(&1).is_none());
        let s = cache.stats();
        assert_eq!(s.uncacheable, 1);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn zero_budget_caches_nothing_but_still_serves() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(0, 2);
        assert_eq!(*cache.get_or_build(&1, || val(5)), 5);
        assert_eq!(*cache.get_or_build(&1, || val(6)), 6, "nothing was retained");
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn retain_invalidates_matching_keys() {
        let cache: ShardedLru<(String, u64), u64> = ShardedLru::new(1024, 4);
        cache.get_or_build(&("r".into(), 1), || val(1));
        cache.get_or_build(&("r".into(), 2), || val(2));
        cache.get_or_build(&("s".into(), 1), || val(3));
        let removed = cache.retain(|k| k.0 != "r");
        assert_eq!(removed, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().invalidated, 2);
        assert!(cache.peek(&("s".into(), 1)).is_some());
        // Resident bytes were released.
        assert_eq!(cache.resident_bytes(), 8);
        assert_eq!(cache.clear(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_builds_propagate_and_are_not_cached() {
        let cache: ShardedLru<u32, u64> = ShardedLru::new(1024, 1);
        let err = cache.try_get_or_build(&1, || Err::<(Arc<u64>, usize), &str>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        // The key is buildable again afterwards.
        let ok = cache.try_get_or_build::<&str>(&1, || Ok(val(4))).unwrap();
        assert_eq!(*ok, 4);
    }

    #[test]
    fn single_flight_builds_exactly_once_under_contention() {
        let cache: Arc<ShardedLru<u32, u64>> = Arc::new(ShardedLru::new(1024, 4));
        let builds = AtomicUsize::new(0);
        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    let v = cache.get_or_build(&42, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really coalesce.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        val(99)
                    });
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "racing misses must coalesce");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits + s.coalesced, threads as u64 - 1);
    }

    #[test]
    fn failed_build_hands_off_to_a_waiter() {
        let cache: Arc<ShardedLru<u32, u64>> = Arc::new(ShardedLru::new(1024, 1));
        let attempts = AtomicUsize::new(0);
        let threads = 4;
        let barrier = Barrier::new(threads);
        let successes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    barrier.wait();
                    let result = cache.try_get_or_build::<&str>(&7, || {
                        let n = attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        if n == 0 {
                            Err("first builder fails")
                        } else {
                            Ok(val(11))
                        }
                    });
                    if let Ok(v) = result {
                        assert_eq!(*v, 11);
                        successes.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        // Exactly one build failed; everyone else eventually saw the value.
        assert_eq!(successes.load(Ordering::SeqCst), threads - 1);
        assert!(attempts.load(Ordering::SeqCst) >= 2);
        assert_eq!(*cache.peek(&7).unwrap(), 11);
    }
}
