//! Integration tests for the `fj-cache` serving subsystem: warm (cached)
//! executions must be byte-identical to cold ones across strategies and
//! thread counts, the trie cache must respect its byte budget, catalog
//! mutations must force rebuilds, and racing sessions must build each trie
//! exactly once (single-flight). A bushy plan's intermediates are tries in
//! the same cache: the second half pins what their key tells apart and what
//! a hit skips.

mod common;

use common::{catalog_of, chain_relations, chain_shape};
use freejoin::prelude::*;
use freejoin::storage::CmpOp;
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
                // Every subsequent run is served from the caches. (A warm
                // run may lazily force trie levels the cold run never
                // probed — but cached tries are never rebuilt, and a bushy
                // plan's intermediate is one of them.)
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
                // The optimizer may join one atom with the join of the other
                // two: then the cold run also built the intermediate's trie,
                // and a warm run fetches it in place of the two atoms under it.
                let intermediates = prepared.num_pipelines() as u64 - 1;
                assert!(intermediates <= 1);
                assert_eq!(
                    stats.tries.misses, 3 + intermediates,
                    "one cold build per relation and intermediate"
                );
                assert_eq!(
                    stats.tries.hits, 2 * (3 - intermediates),
                    "two warm rounds × the final pipeline's inputs"
                );
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

fn chain_query() -> ConjunctiveQuery {
    common::chain_query(&["a", "e"])
}

fn session_with(caches: &Arc<EngineCaches>, trie: TrieStrategy, threads: usize) -> Session {
    Session::new(Arc::clone(caches))
        .with_options(FreeJoinOptions::default().with_trie(trie).with_num_threads(threads))
}

fn serial_session(caches: &Arc<EngineCaches>) -> Session {
    session_with(caches, TrieStrategy::Colt, 1)
}

fn run(prepared: &Prepared, catalog: &Catalog, params: Params) -> ExecReport {
    let request = ExecRequest { params, profile: true, ..ExecRequest::default() };
    prepared.execute(catalog, &request).unwrap()
}

fn filter(alias: &str, column: &str, op: CmpOp, value: i64) -> Params {
    Params::new().with_filter(alias, Predicate::cmp_const(column, op, value))
}

/// (a) A bushy query through `Prepared`, with and without overrides, cold
/// and warm, answers like the uncached engine on the same plan under every
/// strategy and thread count.
#[test]
fn a_bushy_prepared_query_matches_the_uncached_engine() {
    let catalog = catalog_of(chain_relations(1));
    let query = chain_query();
    let (under, above) = chain_shape(&catalog);
    let plan = optimize(&query, &CatalogStats::collect(&catalog), OptimizerOptions::default());
    let overrides = [
        None,
        Some((above[0], Predicate::cmp_const("src", CmpOp::Lt, 6i64))),
        Some((under[1], Predicate::cmp_const("dst", CmpOp::Ge, 3i64))),
    ];
    for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
        for threads in [1usize, 2, 4] {
            let caches = Arc::new(EngineCaches::with_defaults());
            let session = session_with(&caches, trie, threads);
            let prepared = session.prepare(&catalog, &query).unwrap();
            for over in &overrides {
                let ctx = format!("{trie:?} x {threads} threads, override {over:?}");
                let mut written = query.clone();
                let mut params = Params::new();
                if let Some((alias, filter)) = over {
                    written.atoms.iter_mut().find(|a| a.alias == *alias).unwrap().filter =
                        filter.clone();
                    params = params.with_filter(*alias, filter.clone());
                }
                let (reference, uncached) = FreeJoinEngine::new(*session.options())
                    .execute(&catalog, &written, &plan)
                    .unwrap();
                assert!(uncached.intermediate_tuples > 0, "{ctx}");
                for warm in [false, true] {
                    let report = run(&prepared, &catalog, params.clone());
                    assert_eq!(
                        report.output.canonical_rows(),
                        reference.canonical_rows(),
                        "{ctx}, warm {warm}"
                    );
                    // The override above the intermediate finds the entry
                    // the request without overrides left.
                    let found = warm || over.as_ref().is_some_and(|(a, _)| above.contains(a));
                    assert_eq!(report.stats.intermediate_tuples == 0, found, "{ctx}");
                }
            }
        }
    }
}

/// (b) A warm run fetches its intermediate like any trie and runs nothing
/// under it: no intermediate tuple, no lookup of the atoms under it, the
/// final pipeline's probes alone — and a profile that says so instead of
/// showing zero actuals against the pipeline's estimates.
#[test]
fn a_cached_intermediate_runs_nothing_under_it() {
    let catalog = catalog_of(chain_relations(1));
    let caches = Arc::new(EngineCaches::with_defaults());
    let prepared = serial_session(&caches).prepare(&catalog, &chain_query()).unwrap();
    let cold = run(&prepared, &catalog, Params::new());
    let after_cold = caches.stats();
    let warm = run(&prepared, &catalog, Params::new());
    let after_warm = caches.stats();
    assert_eq!(warm.output, cold.output);

    assert!(cold.stats.intermediate_tuples > 0);
    assert_eq!((warm.stats.intermediate_tuples, warm.stats.tries_built), (0, 0), "{}", warm.stats);
    assert_eq!(warm.stats.build_time, std::time::Duration::ZERO);
    // Cold: four atoms and the intermediate. Warm: the final pipeline's two
    // atoms and the intermediate, all found.
    let lookups = after_warm.tries.delta(&after_cold.tries);
    assert_eq!((after_cold.tries.misses, after_cold.tries.hits), (5, 0));
    assert_eq!((lookups.misses, lookups.hits), (0, 3));
    assert_eq!((after_cold.pipe_misses, after_cold.pipe_hits), (1, 0));
    assert_eq!((after_warm.pipe_misses, after_warm.pipe_hits), (1, 1));

    let (cold_profile, warm_profile) = (cold.profile.unwrap(), warm.profile.unwrap());
    let counts = |p: &QueryProfile| -> Vec<(String, u64, u64)> {
        let nodes = p.pipelines[1].nodes.iter();
        nodes.map(|n| (n.label.clone(), n.output_rows, n.probes)).collect()
    };
    let final_probes: u64 = counts(&cold_profile).iter().map(|n| n.2).sum();
    assert!(final_probes < cold.stats.probes);
    assert_eq!((warm.stats.probes, warm_profile.total_probes()), (final_probes, final_probes));
    assert_eq!(counts(&warm_profile), counts(&cold_profile));
    assert_eq!(warm_profile.pipelines[0].label, "pipeline 0 (intermediate, cached)");
    assert!(warm_profile.pipelines[0].nodes.is_empty());
    let rendered = warm_profile.render();
    assert!(
        rendered.starts_with("pipeline 0 (intermediate, cached)\npipeline 1 (final)"),
        "{rendered}"
    );
}

/// (c) The key of an intermediate is exact. Requests that differ only in an
/// atom the pipeline does not read share its entry; a filter on an atom
/// under it, another strategy or another plan over the same atoms each get
/// their own — and each answers like the uncached engine.
#[test]
fn overrides_share_an_intermediate_exactly_when_they_do_not_reach_it() {
    let catalog = catalog_of(chain_relations(1));
    let (under, above) = chain_shape(&catalog);
    let caches = Arc::new(EngineCaches::with_defaults());
    let session = serial_session(&caches);
    let prepared = session.prepare(&catalog, &chain_query()).unwrap();
    let pipes = || (caches.stats().pipe_misses, caches.stats().pipe_hits);
    let expected = |alias: &str, column: &str, op: CmpOp, value: i64| {
        let mut written = chain_query();
        written.atoms.iter_mut().find(|a| a.alias == alias).unwrap().filter =
            Predicate::cmp_const(column, op, value);
        let engine = FreeJoinEngine::new(*session.options());
        engine
            .plan_and_execute(&catalog, &written, OptimizerOptions::default())
            .unwrap()
            .0
    };
    let check = |alias: &str, value: i64| {
        let out = run(&prepared, &catalog, filter(alias, "src", CmpOp::Lt, value)).output;
        assert!(out.result_eq(&expected(alias, "src", CmpOp::Lt, value)), "{alias} src < {value}");
    };

    // Two values on an atom of the final pipeline: one entry, built once.
    check(above[0], 4);
    assert_eq!(pipes(), (1, 0));
    check(above[0], 9);
    check(above[1], 9);
    assert_eq!(pipes(), (1, 2));
    // Two values on an atom under the intermediate: an entry each, found
    // again by the same request.
    check(under[0], 4);
    check(under[0], 9);
    assert_eq!(pipes(), (3, 2));
    check(under[0], 4);
    check(under[0], 9);
    assert_eq!(pipes(), (3, 4));
    // The same rows under another column's filter are another entry.
    let out = run(&prepared, &catalog, filter(under[0], "dst", CmpOp::Lt, 4)).output;
    assert!(out.result_eq(&expected(under[0], "dst", CmpOp::Lt, 4)));
    assert_eq!(pipes(), (4, 4));

    // Another strategy over the same cache pair builds its own tries.
    let simple = session_with(&caches, TrieStrategy::Simple, 1);
    let out = run(&simple.prepare(&catalog, &chain_query()).unwrap(), &catalog, Params::new());
    assert!(out.output.result_eq(&run(&prepared, &catalog, Params::new()).output));
    assert_eq!(pipes(), (5, 5), "a miss under the new strategy, a hit under the old");
    // Another plan over the same atoms does not read this plan's pipeline,
    // though its own may have the same number, atoms and key order: what
    // each head keeps of the pair joined first differs.
    let mut misses = 5;
    for head in [&["a", "b", "d", "e"][..], &["b", "d"], &["a", "b", "c", "d", "e"], &["c"]] {
        let other = common::chain_query(head);
        let prepared = session.prepare(&catalog, &other).unwrap();
        let engine = FreeJoinEngine::new(*session.options());
        let (reference, _) =
            engine.plan_and_execute(&catalog, &other, OptimizerOptions::default()).unwrap();
        let out = run(&prepared, &catalog, Params::new()).output;
        assert_eq!(out.canonical_rows(), reference.canonical_rows(), "head {head:?}");
        misses += prepared.num_pipelines() as u64 - 1;
        assert_eq!(pipes(), (misses, 5), "head {head:?}");
    }
    assert!(misses > 5, "some of these plans are bushy");
}

/// (d) A cached intermediate never outlives the rows it was computed from:
/// replacing or touching a relation under the pipeline forces a recompute,
/// and `invalidate_relation` drops every entry that reads the relation.
#[test]
fn a_mutation_under_a_cached_pipeline_forces_a_recompute() {
    let mut catalog = catalog_of(chain_relations(1));
    let (under, above) = chain_shape(&catalog);
    let caches = Arc::new(EngineCaches::with_defaults());
    let session = serial_session(&caches);
    let prepared = session.prepare(&catalog, &chain_query()).unwrap();
    let before = run(&prepared, &catalog, Params::new()).output;
    assert_eq!(caches.stats().pipe_misses, 1);

    // Twice the rows in one relation under the pipeline.
    let doubled = chain_relations(2).into_iter().find(|r| r.name() == under[0]).unwrap();
    catalog.add_or_replace(doubled);
    let after = run(&prepared, &catalog, Params::new());
    assert_eq!(caches.stats().pipe_misses, 2, "the old entry is unreachable");
    assert!(after.stats.intermediate_tuples > 0);
    let engine = FreeJoinEngine::new(*session.options());
    let (fresh, _) = engine
        .plan_and_execute(&catalog, &chain_query(), OptimizerOptions::default())
        .unwrap();
    assert!(after.output.result_eq(&fresh));
    assert_eq!(after.output.cardinality(), 2 * before.cardinality());

    // A version bump alone does the same; one above the pipeline does not.
    catalog.touch(under[1]);
    assert!(run(&prepared, &catalog, Params::new()).output.result_eq(&fresh));
    assert_eq!(caches.stats().pipe_misses, 3);
    catalog.touch(above[0]);
    assert!(run(&prepared, &catalog, Params::new()).output.result_eq(&fresh));
    assert_eq!((caches.stats().pipe_misses, caches.stats().pipe_hits), (3, 1));

    // Resident now: three versions of the intermediate, and per relation one
    // trie per version seen. Reclaiming by relation takes the intermediates
    // with the relation's own tries.
    let tries = caches.tries();
    assert_eq!(tries.len(), 3 + 4 + 3);
    assert_eq!(tries.purge_stale(under[1], catalog.version_of(under[1])), 1 + 2);
    assert_eq!(caches.invalidate_relation(above[0]), 2, "its own two tries, no intermediate");
    assert_eq!(caches.invalidate_relation(under[0]), 2 + 1, "two tries and the intermediate left");
    assert_eq!(tries.len(), 2);
    assert!(run(&prepared, &catalog, Params::new()).output.result_eq(&fresh));
}

/// (e) Eight threads issuing the same cold request run each pipeline once:
/// the lookups of the intermediate coalesce onto one build like any trie's,
/// and the threads that waited for it never fetch the atoms under it.
#[test]
fn concurrent_cold_requests_run_each_pipeline_once() {
    let catalog = catalog_of(chain_relations(1));
    let caches = Arc::new(EngineCaches::with_defaults());
    // Simple: the whole build happens inside the cached builder.
    let session = session_with(&caches, TrieStrategy::Simple, 1);
    let prepared = session.prepare(&catalog, &chain_query()).unwrap();
    let threads = 8u64;
    let barrier = std::sync::Barrier::new(threads as usize);
    let outputs: Vec<QueryOutput> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    run(&prepared, &catalog, Params::new()).output
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(outputs.windows(2).all(|w| w[0] == w[1]));

    let stats = caches.stats();
    assert_eq!(stats.tries.misses, 5, "four atoms and the intermediate, each built once");
    assert_eq!((stats.pipe_misses, stats.pipe_hits), (1, threads - 1));
    // Every thread looks up the final pipeline's three inputs; only the one
    // that ran the intermediate's pipeline looked up the two atoms under it.
    assert_eq!(stats.tries.lookups(), threads * 3 + 2);
    assert_eq!(stats.tries.hits + stats.tries.coalesced, threads * 3 + 2 - 5);
}

/// (f) A relation replaced after `prepare` rebuilds only what reads it. The
/// request with an override then renders its keys afresh, and every input
/// whose rows did not change finds the entry the same request left before:
/// replacing an atom of the final pipeline rebuilds that atom's trie, one
/// under the intermediate rebuilds its trie and the intermediate.
#[test]
fn a_replaced_relation_rebuilds_only_what_reads_it() {
    let catalog = catalog_of(chain_relations(1));
    let (under, above) = chain_shape(&catalog);
    let over = || filter(above[0], "src", CmpOp::Lt, 6);
    for (replaced, rebuilt) in [(above[1], 1), (under[0], 2)] {
        let mut catalog = catalog.clone();
        let caches = Arc::new(EngineCaches::with_defaults());
        let prepared = serial_session(&caches).prepare(&catalog, &chain_query()).unwrap();
        let before = run(&prepared, &catalog, over()).output;
        let same_rows = chain_relations(1).into_iter().find(|r| r.name() == replaced).unwrap();
        catalog.add_or_replace(same_rows);
        let start = caches.stats();
        let after = run(&prepared, &catalog, over());
        let lookups = caches.stats().tries.delta(&start.tries);
        assert!(after.output.result_eq(&before), "replaced {replaced}");
        assert_eq!(lookups.misses, rebuilt, "replaced {replaced}");
        // The final pipeline's three inputs, plus the atoms under the
        // intermediate when it ran again.
        let fetched = if rebuilt == 2 { 5 } else { 3 };
        assert_eq!(lookups.hits, fetched - rebuilt, "replaced {replaced}");
        let pipes = caches.stats().pipe_misses - start.pipe_misses;
        assert_eq!(pipes, rebuilt - 1, "replaced {replaced}");
    }
}

/// (g) A warm request repeats nothing: the second execution of an override
/// on a bushy shape — under the intermediate or above it — builds no trie
/// and materializes no intermediate, and answers like the first.
#[test]
fn a_repeated_override_on_a_bushy_shape_builds_nothing() {
    let catalog = catalog_of(chain_relations(1));
    let (under, above) = chain_shape(&catalog);
    let caches = Arc::new(EngineCaches::with_defaults());
    let prepared = serial_session(&caches).prepare(&catalog, &chain_query()).unwrap();
    for alias in [under[0], above[0], under[1]] {
        for value in [3, 7] {
            let first = run(&prepared, &catalog, filter(alias, "src", CmpOp::Eq, value));
            let misses = caches.stats().tries.misses;
            let second = run(&prepared, &catalog, filter(alias, "src", CmpOp::Eq, value));
            assert_eq!(caches.stats().tries.misses, misses, "{alias} src = {value}");
            assert_eq!(second.stats.tries_built, 0, "{alias} src = {value}");
            assert_eq!(second.stats.intermediate_tuples, 0, "{alias} src = {value}");
            assert!(second.output.result_eq(&first.output), "{alias} src = {value}");
        }
    }
}
