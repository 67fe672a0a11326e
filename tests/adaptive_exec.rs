//! Bound-ranked execution: behavioural guarantees beyond cross-engine
//! equivalence.
//!
//! * On the `skew_flip` adversary the executor must actually reorder probes
//!   (nonzero `reorders` counter), make at most half the probes the binary
//!   join makes in plan order, and still produce the binary join's output,
//!   for every trie strategy and thread count.
//! * `fj_exec_estimate_busts` must reconcile with EXPLAIN ANALYZE: the
//!   session counter advances by exactly the number of `!`-marked nodes in
//!   the rendered profile.

use freejoin::engine::{EngineCaches, Session};
use freejoin::plan::{optimize, CatalogStats, EstimatorMode, OptimizerOptions};
use freejoin::prelude::*;
use freejoin::workloads::micro;
use std::sync::Arc;

/// Plan a query the way the bench harness does (accurate stats, left-deep).
fn plan_like_bench(w: &freejoin::workloads::Workload) -> BinaryPlan {
    let stats = CatalogStats::collect(&w.catalog);
    let opts = OptimizerOptions {
        mode: EstimatorMode::Accurate,
        left_deep_only: true,
        ..OptimizerOptions::default()
    };
    optimize(&w.queries[0].query, &stats, opts)
}

#[test]
fn skew_flip_reorders_and_matches_static() {
    let w = micro::skew_flip(4096, 5);
    let named = &w.queries[0];
    let plan = plan_like_bench(&w);

    // The plan-order reference: the binary join probes `anchor`, `mid`,
    // `mid2`, `mid3`, `sel` as the optimizer ordered them.
    let (reference, binary) =
        BinaryJoinEngine::new().execute(&w.catalog, &named.query, &plan).unwrap();
    assert_eq!(
        reference.cardinality(),
        (micro::PLANTED * micro::PLANTED) as u64,
        "skew_flip plants a fixed number of matches"
    );

    for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
        for threads in [1usize, 4, 8] {
            let options =
                FreeJoinOptions { trie, ..FreeJoinOptions::default() }.with_num_threads(threads);
            let (out, stats) =
                FreeJoinEngine::new(options).execute(&w.catalog, &named.query, &plan).unwrap();
            assert!(
                out.result_eq(&reference),
                "{trie:?} x{threads} diverged: {} vs {}",
                out.cardinality(),
                reference.cardinality()
            );
            assert!(stats.reorders > 0, "{trie:?} x{threads} must reorder on skew_flip");
            // `sel` first: a rejected binding never reaches a `mid*` map.
            assert!(
                2 * stats.probes <= binary.probes,
                "{trie:?} x{threads}: {} probes against the binary join's {}",
                stats.probes,
                binary.probes
            );
        }
    }
}

#[test]
fn adaptive_reorder_count_is_schedule_independent() {
    // The reorder decision depends only on construction-fixed bounds, so the
    // counter itself must be identical at any thread count.
    let w = micro::skew_flip(4096, 11);
    let named = &w.queries[0];
    let plan = plan_like_bench(&w);
    let base = FreeJoinOptions::default();
    let (_, serial) = FreeJoinEngine::new(base.with_num_threads(1))
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    for threads in [2usize, 4, 8] {
        let options = base.with_num_threads(threads);
        let (_, stats) =
            FreeJoinEngine::new(options).execute(&w.catalog, &named.query, &plan).unwrap();
        assert_eq!(stats.reorders, serial.reorders, "reorder count diverged at {threads} threads");
    }
}

#[test]
fn adaptive_matches_static_on_existing_workloads() {
    // Zero behavioural drift against the plan-order engine on workloads
    // with no estimate/bound flip.
    for w in [
        micro::clover(50),
        micro::skewed_triangle(120, 4, 1.0, 9),
        micro::chain(4, 200, 40, 3),
        micro::star(3, 150, 25, 0.9, 5),
    ] {
        let named = &w.queries[0];
        let plan = plan_like_bench(&w);
        let (reference, _) =
            BinaryJoinEngine::new().execute(&w.catalog, &named.query, &plan).unwrap();
        let (ranked, _) = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1))
            .execute(&w.catalog, &named.query, &plan)
            .unwrap();
        assert!(
            ranked.result_eq(&reference),
            "Free Join diverged on {}: {} vs {}",
            named.name,
            ranked.cardinality(),
            reference.cardinality()
        );
    }
}

/// A join whose true cardinality the estimator cannot see: both relations
/// carry perfectly correlated (x, y) columns, so the estimated join size is
/// |R||S| / (d_x * d_y) = 1 row while the actual result is n rows.
fn correlated_bust_workload(n: i64) -> (Catalog, ConjunctiveQuery) {
    let mut catalog = Catalog::new();
    for name in ["cor_r", "cor_s"] {
        let mut b = RelationBuilder::new(name, Schema::all_int(&["x", "y"]));
        for i in 0..n {
            b.push_ints(&[i, i]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    }
    let query = QueryBuilder::new("correlated")
        .atom("cor_r", &["x", "y"])
        .atom("cor_s", &["x", "y"])
        .count()
        .build();
    (catalog, query)
}

#[test]
fn estimate_busts_reconcile_with_explain_analyze() {
    let (catalog, query) = correlated_bust_workload(64);
    let caches = Arc::new(EngineCaches::with_defaults());
    let session = Session::new(Arc::clone(&caches))
        .with_options(FreeJoinOptions::default().with_num_threads(1));
    let prepared = session.prepare(&catalog, &query).unwrap();

    let registry = MetricsRegistry::new();
    caches.bind_metrics(&registry);
    let before = registry.snapshot();
    let report =
        prepared.execute(&catalog, &ExecRequest { profile: true, ..ExecRequest::default() });
    let ExecReport { output, profile: Some(profile), .. } = report.unwrap() else {
        panic!("the request asked for a profile");
    };
    assert_eq!(output.cardinality(), 64);
    let window = registry.snapshot().delta(&before);

    assert!(profile.estimate_busts() > 0, "correlated join must bust its estimate");
    assert_eq!(
        window.get("fj_exec_estimate_busts"),
        profile.estimate_busts(),
        "the session counter must advance by the profile's bust count"
    );
    // The rendered EXPLAIN ANALYZE marks exactly those nodes with `!`.
    let rendered = profile.render();
    let markers = rendered.matches(" !").count() as u64;
    assert_eq!(markers, profile.estimate_busts(), "rendered markers: {rendered}");
}

#[test]
fn unprofiled_runs_do_not_count_busts() {
    let (catalog, query) = correlated_bust_workload(64);
    let caches = Arc::new(EngineCaches::with_defaults());
    let session = Session::new(Arc::clone(&caches))
        .with_options(FreeJoinOptions::default().with_num_threads(1));
    let prepared = session.prepare(&catalog, &query).unwrap();
    let output = prepared.execute(&catalog, &ExecRequest::default()).unwrap().output;
    assert_eq!(output.cardinality(), 64);
    let registry = MetricsRegistry::new();
    caches.bind_metrics(&registry);
    assert_eq!(
        registry.snapshot().get("fj_exec_estimate_busts"),
        0,
        "busts need per-node actuals; unprofiled runs must not guess"
    );
}

#[test]
fn skew_flip_does_not_bust_estimates() {
    // skew_flip is an over-estimate adversary: the optimizer expects more
    // rows than materialize, so the bust counter (an under-estimate signal)
    // must stay silent while the reorder counter fires.
    let w = micro::skew_flip(2048, 3);
    let caches = Arc::new(EngineCaches::with_defaults());
    let session = Session::new(Arc::clone(&caches))
        .with_options(FreeJoinOptions::default().with_num_threads(1))
        .with_optimizer(OptimizerOptions {
            mode: EstimatorMode::Accurate,
            left_deep_only: true,
            ..OptimizerOptions::default()
        });
    let prepared = session.prepare(&w.catalog, &w.queries[0].query).unwrap();
    let report =
        prepared.execute(&w.catalog, &ExecRequest { profile: true, ..ExecRequest::default() });
    let ExecReport { stats, profile: Some(profile), .. } = report.unwrap() else {
        panic!("the request asked for a profile");
    };
    assert!(stats.reorders > 0);
    assert_eq!(profile.estimate_busts(), 0, "{}", profile.render());
    let registry = MetricsRegistry::new();
    caches.bind_metrics(&registry);
    let totals = registry.snapshot();
    assert_eq!(totals.get("fj_exec_estimate_busts"), 0);
    assert!(totals.get("fj_exec_reorders") > 0);
}
