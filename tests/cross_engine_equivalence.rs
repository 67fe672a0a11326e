//! Cross-engine equivalence: the binary hash join baseline, the Generic Join
//! baseline and Free Join (under every option combination) must return the
//! same results on every workload in the repository.

use freejoin::baselines::{BinaryJoinEngine, GenericJoinEngine};
use freejoin::plan::{optimize, CatalogStats, EstimatorMode, OptimizerOptions};
use freejoin::prelude::*;
use freejoin::workloads::{job, lsqb, micro, Workload};

/// Run one query on every engine/option combination and assert the outputs
/// agree (counts for Count queries, full row sets otherwise).
fn assert_engines_agree(workload: &Workload, query_name: &str, mode: EstimatorMode) {
    let named = workload
        .query(query_name)
        .unwrap_or_else(|| panic!("query {query_name} missing"));
    let stats = CatalogStats::collect(&workload.catalog);
    let plan =
        optimize(&named.query, &stats, OptimizerOptions { mode, ..OptimizerOptions::default() });

    let (reference, _) = BinaryJoinEngine::new()
        .execute(&workload.catalog, &named.query, &plan)
        .unwrap_or_else(|e| panic!("binary join failed on {query_name}: {e}"));

    let (gj, _) = GenericJoinEngine::new()
        .execute(&workload.catalog, &named.query, &plan)
        .unwrap_or_else(|e| panic!("generic join failed on {query_name}: {e}"));
    assert!(
        gj.result_eq(&reference),
        "Generic Join disagrees with binary join on {query_name}: {} vs {}",
        gj.cardinality(),
        reference.cardinality()
    );

    let option_grid = vec![
        FreeJoinOptions::default(),
        FreeJoinOptions { trie: TrieStrategy::Simple, ..FreeJoinOptions::default() },
        FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() },
        // Dead-variable pruning off: the enumerating reference plans.
        FreeJoinOptions::default().with_factorized_output(false),
        FreeJoinOptions::binary_equivalent(),
        // Fully built tries, every variable enumerated, one thread.
        FreeJoinOptions { trie: TrieStrategy::Simple, ..FreeJoinOptions::default() }
            .with_factorized_output(false)
            .with_num_threads(1),
        // Explicit single-thread (exact legacy serial) runs per trie
        // strategy: with the inline-packed `LevelKey` levels, every strategy
        // must agree serially as well as in parallel.
        FreeJoinOptions::default().with_num_threads(1),
        FreeJoinOptions { trie: TrieStrategy::Simple, ..FreeJoinOptions::default() }
            .with_num_threads(1),
        FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() }
            .with_num_threads(1),
        // Work-stealing parallel execution, across every trie strategy.
        FreeJoinOptions::default().with_num_threads(4),
        FreeJoinOptions { trie: TrieStrategy::Simple, ..FreeJoinOptions::default() }
            .with_num_threads(4),
        FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() }
            .with_num_threads(4),
        FreeJoinOptions::default().with_num_threads(3),
        FreeJoinOptions::default().with_factorized_output(false).with_num_threads(4),
        FreeJoinOptions::default().with_num_threads(8),
    ];
    for options in option_grid {
        let (fj, _) = FreeJoinEngine::new(options)
            .execute(&workload.catalog, &named.query, &plan)
            .unwrap_or_else(|e| panic!("free join {options:?} failed on {query_name}: {e}"));
        assert!(
            fj.result_eq(&reference),
            "Free Join {options:?} disagrees on {query_name}: {} vs {}",
            fj.cardinality(),
            reference.cardinality()
        );
    }
}

#[test]
fn clover_all_engines_agree() {
    let w = micro::clover(40);
    assert_engines_agree(&w, "clover", EstimatorMode::Accurate);
    assert_engines_agree(&w, "clover", EstimatorMode::AlwaysOne);
}

#[test]
fn skewed_triangle_all_engines_agree() {
    let w = micro::skewed_triangle(200, 5, 1.0, 11);
    assert_engines_agree(&w, "triangle", EstimatorMode::Accurate);
    assert_engines_agree(&w, "triangle", EstimatorMode::AlwaysOne);
}

#[test]
fn chain_and_star_all_engines_agree() {
    let chain = micro::chain(5, 120, 30, 3);
    assert_engines_agree(&chain, "chain", EstimatorMode::Accurate);
    let star = micro::star(3, 150, 25, 0.9, 5);
    assert_engines_agree(&star, "star", EstimatorMode::Accurate);
    assert_engines_agree(&star, "star", EstimatorMode::AlwaysOne);
}

#[test]
fn skew_flip_all_engines_agree() {
    // The adversary of a fixed probe order: per-binding selectivities are
    // anti-correlated with the static statistics, so every Free Join row of
    // the option grid probes in another order than the baselines here.
    let w = micro::skew_flip(2048, 7);
    assert_engines_agree(&w, "skew_flip", EstimatorMode::Accurate);
    assert_engines_agree(&w, "skew_flip", EstimatorMode::AlwaysOne);
}

#[test]
fn job_like_suite_all_engines_agree() {
    let w = job::workload(&job::JobConfig::tiny());
    for named in &w.queries {
        assert_engines_agree(&w, &named.name, EstimatorMode::Accurate);
    }
}

#[test]
fn job_like_subset_agrees_under_bad_plans() {
    let w = job::workload(&job::JobConfig::tiny());
    for name in ["q1a_like", "q3b_like", "q6a_like", "q13a_like", "q20a_like"] {
        assert_engines_agree(&w, name, EstimatorMode::AlwaysOne);
    }
}

#[test]
fn lsqb_like_suite_all_engines_agree() {
    let w = lsqb::workload(&lsqb::LsqbConfig::tiny());
    for named in &w.queries {
        assert_engines_agree(&w, &named.name, EstimatorMode::Accurate);
    }
}

#[test]
fn materialized_results_match_across_engines() {
    // Beyond counts: compare full row sets on a materializing query.
    let w = micro::skewed_triangle(80, 4, 0.8, 21);
    let mut query = w.queries[0].query.clone();
    query.aggregate = Aggregate::Materialize;
    let stats = CatalogStats::collect(&w.catalog);
    let plan = optimize(&query, &stats, OptimizerOptions::default());

    let (bj, _) = BinaryJoinEngine::new().execute(&w.catalog, &query, &plan).unwrap();
    let (gj, _) = GenericJoinEngine::new().execute(&w.catalog, &query, &plan).unwrap();
    let (fj, _) = FreeJoinEngine::new(FreeJoinOptions::default())
        .execute(&w.catalog, &query, &plan)
        .unwrap();
    assert!(bj.result_eq(&gj));
    assert!(bj.result_eq(&fj));
    assert_eq!(bj.canonical_rows(), fj.canonical_rows());
}

#[test]
fn group_count_results_match_across_engines() {
    let w = lsqb::workload(&lsqb::LsqbConfig::tiny());
    let mut query = w.queries[4].query.clone(); // q5, the path query
    query.aggregate = Aggregate::group_count(&["co1", "co2"]);
    let stats = CatalogStats::collect(&w.catalog);
    let plan = optimize(&query, &stats, OptimizerOptions::default());
    let (bj, _) = BinaryJoinEngine::new().execute(&w.catalog, &query, &plan).unwrap();
    let (gj, _) = GenericJoinEngine::new().execute(&w.catalog, &query, &plan).unwrap();
    let (fj, _) = FreeJoinEngine::new(FreeJoinOptions::default())
        .execute(&w.catalog, &query, &plan)
        .unwrap();
    assert!(bj.result_eq(&gj));
    assert!(bj.result_eq(&fj));
}
