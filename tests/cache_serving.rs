//! Integration tests for the `fj-cache` serving subsystem: warm (cached)
//! executions must be byte-identical to cold ones across strategies and
//! thread counts, the trie cache must respect its byte budget, catalog
//! mutations must force rebuilds, and racing sessions must build each trie
//! exactly once (single-flight).

use freejoin::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn relation(name: &str, cols: &[&str], rows: &[Vec<i64>]) -> Relation {
    let mut b = RelationBuilder::new(name, Schema::all_int(cols));
    for row in rows {
        b.push_ints(row).unwrap();
    }
    b.finish()
}

fn triangle_query() -> ConjunctiveQuery {
    QueryBuilder::new("triangle")
        .atom("R", &["x", "y"])
        .atom("S", &["y", "z"])
        .atom("T", &["z", "x"])
        .build()
}

/// Strategy: a small binary relation over a tiny value domain (small domains
/// maximize the chance of joins actually matching).
fn rows(max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..6, 2), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    // Satellite requirement: warm (cached) execution is byte-identical to
    // cold execution across all strategies × thread counts, on randomly
    // generated databases. "Byte-identical" is checked on the canonical
    // (sorted) materialized rows, which pins every value of every tuple.
    #[test]
    fn warm_execution_is_byte_identical_to_cold(r in rows(14), s in rows(14), t in rows(14)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["a", "b"], &r)).unwrap();
        catalog.add(relation("S", &["a", "b"], &s)).unwrap();
        catalog.add(relation("T", &["a", "b"], &t)).unwrap();
        let query = triangle_query();

        for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            for threads in [1usize, 2, 4] {
                let options = FreeJoinOptions { trie, ..FreeJoinOptions::default() }
                    .with_num_threads(threads);
                let session = Session::new(Arc::new(EngineCaches::with_defaults()))
                    .with_options(options);
                let prepared = session.prepare(&catalog, &query).unwrap();
                let ExecReport { output: cold, .. } =
                    prepared.execute(&catalog, &ExecRequest::default()).unwrap();
                let cold_rows = cold.canonical_rows();
                let after_cold = session.cache_stats();
                // Every subsequent run is served from the caches. (A bushy
                // plan still materializes its intermediate per run, and a
                // warm run may lazily force trie levels the cold run never
                // probed — but cached base tries are never rebuilt.)
                for round in 0..2 {
                    let ExecReport { output: warm, .. } =
                        prepared.execute(&catalog, &ExecRequest::default()).unwrap();
                    assert_eq!(
                        warm.canonical_rows(),
                        cold_rows,
                        "warm round {round} diverged for {trie:?} × {threads} threads"
                    );
                }
                let stats = session.cache_stats();
                assert_eq!(
                    stats.tries.misses, after_cold.tries.misses,
                    "warm runs never miss in the trie cache"
                );
                assert_eq!(stats.tries.misses, 3, "one cold build per relation");
                assert_eq!(stats.tries.hits, 6, "two warm rounds × three atoms");
            }
        }
    }
}

/// Satellite requirement: the cache never exceeds its byte budget. Run many
/// differently-filtered variants of a query (each gets its own trie key)
/// through a deliberately tiny cache and check the budget invariant after
/// every execution.
#[test]
fn trie_cache_never_exceeds_its_byte_budget() {
    let mut catalog = Catalog::new();
    let mut edge = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
    for i in 0..400i64 {
        edge.push_ints(&[i % 40, (i + 7) % 40]).unwrap();
    }
    catalog.add(edge.finish()).unwrap();

    // Budget fits only a couple of tries of this size (each is up to ~45 KiB
    // by the cache's own estimate; small budgets collapse to a single shard).
    let budget = 128 << 10;
    let caches = Arc::new(EngineCaches::new(budget, 16));
    let session = Session::new(Arc::clone(&caches));
    let prepared = {
        let q = QueryBuilder::new("hop")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "c"])
            .count()
            .build();
        session.prepare(&catalog, &q).unwrap()
    };

    let mut reference = None;
    for i in 0..30i64 {
        // A rotating set of filters: re-executions of earlier variants mix
        // hits with evict-and-rebuild misses.
        let params = Params::new()
            .with_filter("e1", Predicate::cmp_const("src", freejoin::storage::CmpOp::Ge, i % 10));
        let request = ExecRequest { params, ..ExecRequest::default() };
        let out = prepared.execute(&catalog, &request).unwrap().output;
        if i % 10 == 0 {
            match &reference {
                None => reference = Some(out.cardinality()),
                Some(c) => assert_eq!(out.cardinality(), *c, "round-tripped variant changed"),
            }
        }
        let tries = caches.tries();
        assert!(
            tries.resident_bytes() <= tries.budget() as u64,
            "budget exceeded after execution {i}: {} > {}",
            tries.resident_bytes(),
            tries.budget()
        );
    }
    let stats = caches.tries().stats();
    assert!(stats.evictions > 0, "the tiny budget must have forced evictions");
    assert!(stats.bytes_evicted > 0);
}

/// Satellite requirement: mutating a relation via the catalog makes the next
/// execution rebuild — the version bump is observable in the cache stats
/// (new misses, no hit on the stale version) and in the result.
#[test]
fn catalog_mutation_forces_rebuild_with_observable_version_bump() {
    let mut catalog = Catalog::new();
    let mut edge = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
    for i in 0..50i64 {
        edge.push_ints(&[i % 10, (i + 1) % 10]).unwrap();
    }
    catalog.add(edge.finish()).unwrap();
    let v1 = catalog.version_of("edge");

    let session = Session::new(Arc::new(EngineCaches::with_defaults()));
    let q = QueryBuilder::new("hop")
        .atom_as("edge", "e1", &["a", "b"])
        .atom_as("edge", "e2", &["b", "c"])
        .count()
        .build();
    let prepared = session.prepare(&catalog, &q).unwrap();
    let ExecReport { output: before, .. } =
        prepared.execute(&catalog, &ExecRequest::default()).unwrap();
    let cold = session.cache_stats().tries;
    // Warm check: no further misses.
    prepared.execute(&catalog, &ExecRequest::default()).unwrap();
    assert_eq!(session.cache_stats().tries.misses, cold.misses);

    // Mutate: drop half the edges.
    let mut smaller = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
    for i in 0..25i64 {
        smaller.push_ints(&[i % 10, (i + 1) % 10]).unwrap();
    }
    catalog.add_or_replace(smaller.finish());
    let v2 = catalog.version_of("edge");
    assert!(v2 > v1, "mutation bumps the monotonic version");

    let ExecReport { output: after, stats, .. } =
        prepared.execute(&catalog, &ExecRequest::default()).unwrap();
    assert!(after.cardinality() < before.cardinality(), "results reflect the mutation");
    let warm = session.cache_stats().tries;
    assert!(warm.misses > cold.misses, "the version bump made the old key unreachable");
    assert!(stats.tries_built > 0 || stats.lazy_expansions > 0, "rebuild observable in ExecStats");

    // Eagerly reclaiming the stale version's bytes is possible too.
    let purged = session.caches().tries().purge_stale("edge", v2);
    assert!(purged > 0, "the v1 trie was still resident until purged");
}

/// Satellite requirement: N threads preparing (and executing) the same query
/// concurrently build each trie exactly once — racing misses coalesce onto
/// the single in-flight build instead of duplicating work.
#[test]
fn concurrent_sessions_build_each_trie_exactly_once() {
    let mut catalog = Catalog::new();
    for name in ["R", "S", "T"] {
        let mut b = RelationBuilder::new(name, Schema::all_int(&["u", "v"]));
        for i in 0..600i64 {
            b.push_ints(&[i % 30, (i + 11) % 30]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    let query = triangle_query();
    let caches = Arc::new(EngineCaches::with_defaults());
    let catalog = Arc::new(catalog);

    let threads = 8;
    let barrier = std::sync::Barrier::new(threads);
    // Simple strategy so the entire build happens inside the cached builder
    // (nothing is lazily forced later), making "built exactly once" sharp.
    let options = FreeJoinOptions::default().with_trie(TrieStrategy::Simple).with_num_threads(1);
    let counts: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let caches = Arc::clone(&caches);
                let catalog = Arc::clone(&catalog);
                let query = query.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let session = Session::new(caches).with_options(options);
                    barrier.wait();
                    let prepared = session.prepare(&catalog, &query).unwrap();
                    let ExecReport { output: out, .. } =
                        prepared.execute(&catalog, &ExecRequest::default()).unwrap();
                    out.cardinality()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "all sessions agree: {counts:?}");

    let stats = caches.stats();
    assert_eq!(stats.tries.misses, 3, "each of R, S, T built exactly once");
    assert_eq!(stats.tries.entries, 3);
    assert_eq!(
        stats.tries.hits + stats.tries.coalesced,
        (threads as u64) * 3 - 3,
        "all other lookups were served without building"
    );
    assert_eq!(stats.plans.misses, 1, "the plan was compiled exactly once");
    assert_eq!(stats.plans.hits + stats.plans.coalesced, threads as u64 - 1);
}
