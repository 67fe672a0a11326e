//! # fj-bench
//!
//! The benchmark harness that regenerates the paper's evaluation
//! (Section 5). It provides:
//!
//! * a uniform [`Engine`] wrapper over the three join engines (binary hash
//!   join, Generic Join, Free Join) so that every experiment runs all of
//!   them over identical plans and inputs;
//! * [`run_query`] — plan, execute, and time one query, reporting the same
//!   quantity the paper plots (build + join time, excluding selections and
//!   aggregation);
//! * the `experiments` binary — prints the rows behind the paper's figures
//!   and is used to fill `EXPERIMENTS.md`.

use fj_baselines::{BinaryJoinEngine, GenericJoinEngine};
use fj_plan::{optimize, BinaryPlan, CatalogStats, EstimatorMode, OptimizerOptions};
use fj_query::{ConjunctiveQuery, ExecStats, QueryOutput};
use fj_storage::Catalog;
use fj_workloads::NamedQuery;
use free_join::{FreeJoinEngine, FreeJoinOptions};
use std::time::Duration;

/// The engine used for one measurement.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The pipelined binary hash join baseline (DuckDB's role in the paper).
    Binary,
    /// The Generic Join baseline over fully-built hash tries.
    Generic,
    /// Free Join with the given options.
    FreeJoin(FreeJoinOptions),
}

impl Engine {
    /// Free Join with the paper's default configuration (COLT, factorized
    /// output).
    pub fn free_join_default() -> Self {
        Engine::FreeJoin(FreeJoinOptions::default())
    }

    /// Display label used in benchmark output.
    pub fn label(&self) -> String {
        match self {
            Engine::Binary => "binary".to_string(),
            Engine::Generic => "generic".to_string(),
            Engine::FreeJoin(opts) => format!("freejoin[{}]", opts.trie.name()),
        }
    }

    /// The three engines of the paper's main comparison.
    pub fn paper_lineup() -> Vec<Engine> {
        vec![Engine::Binary, Engine::Generic, Engine::free_join_default()]
    }
}

/// The outcome of one measured query execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Engine label.
    pub engine: String,
    /// Query name.
    pub query: String,
    /// Build + join time — the quantity the paper reports.
    pub reported: Duration,
    /// Full execution statistics.
    pub stats: ExecStats,
    /// Number of result tuples.
    pub output_tuples: u64,
}

/// Collect statistics and optimize a binary plan for a query.
pub fn plan_query(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    mode: EstimatorMode,
) -> (BinaryPlan, CatalogStats) {
    let stats = CatalogStats::collect(catalog);
    // DuckDB feeds the paper's system (mostly) left-deep hash-join pipelines on
    // these benchmarks, so the harness restricts the stand-in optimizer to
    // left-deep plans; see DESIGN.md.
    let options = OptimizerOptions { mode, left_deep_only: true, ..OptimizerOptions::default() };
    (optimize(query, &stats, options), stats)
}

/// Execute one query on one engine over a given plan.
pub fn execute(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    plan: &BinaryPlan,
    engine: &Engine,
) -> (QueryOutput, ExecStats) {
    match engine {
        Engine::Binary => BinaryJoinEngine::new().execute(catalog, query, plan),
        Engine::Generic => GenericJoinEngine::new().execute(catalog, query, plan),
        Engine::FreeJoin(options) => FreeJoinEngine::new(*options).execute(catalog, query, plan),
    }
    .unwrap_or_else(|e| panic!("query {} failed on {}: {e}", query.name, engine.label()))
}

/// Plan (with the given estimator mode) and execute one named query,
/// returning the paper's reported time.
pub fn run_query(
    catalog: &Catalog,
    named: &NamedQuery,
    engine: &Engine,
    mode: EstimatorMode,
) -> RunResult {
    let (plan, _) = plan_query(catalog, &named.query, mode);
    run_query_with_plan(catalog, named, &plan, engine)
}

/// Execute one named query over an existing plan.
pub fn run_query_with_plan(
    catalog: &Catalog,
    named: &NamedQuery,
    plan: &BinaryPlan,
    engine: &Engine,
) -> RunResult {
    let (output, stats) = execute(catalog, &named.query, plan, engine);
    RunResult {
        engine: engine.label(),
        query: named.name.clone(),
        reported: stats.reported_time(),
        output_tuples: output.cardinality(),
        stats,
    }
}

/// Geometric mean of a slice of ratios (used for the paper's average
/// speedups). Returns 1.0 for an empty slice.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.max(1e-12).ln()).sum();
    (log_sum / ratios.len() as f64).exp()
}

/// Format a duration in seconds with three significant digits, as the paper's
/// plots do.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Speedup of `b` relative to `a` (how many times faster `a` is than `b`).
pub fn speedup(a: Duration, b: Duration) -> f64 {
    let a = a.as_secs_f64().max(1e-9);
    b.as_secs_f64() / a
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_workloads::micro;

    #[test]
    fn all_engines_agree_on_the_clover_query() {
        let w = micro::clover(30);
        let named = &w.queries[0];
        let mut counts = Vec::new();
        for engine in Engine::paper_lineup() {
            let result = run_query(&w.catalog, named, &engine, EstimatorMode::Accurate);
            counts.push(result.output_tuples);
            assert!(!result.engine.is_empty());
        }
        assert!(counts.iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn all_engines_agree_on_a_skewed_triangle() {
        let w = micro::skewed_triangle(150, 4, 1.0, 3);
        let named = &w.queries[0];
        let counts: Vec<u64> = Engine::paper_lineup()
            .iter()
            .map(|e| run_query(&w.catalog, named, e, EstimatorMode::Accurate).output_tuples)
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn bad_estimates_still_give_correct_answers() {
        let w = micro::star(3, 200, 20, 0.9, 5);
        let named = &w.queries[0];
        let good: Vec<u64> = Engine::paper_lineup()
            .iter()
            .map(|e| run_query(&w.catalog, named, e, EstimatorMode::Accurate).output_tuples)
            .collect();
        let bad: Vec<u64> = Engine::paper_lineup()
            .iter()
            .map(|e| run_query(&w.catalog, named, e, EstimatorMode::AlwaysOne).output_tuples)
            .collect();
        assert_eq!(good, bad);
    }

    #[test]
    fn geometric_mean_and_speedup_helpers() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
        let a = Duration::from_millis(100);
        let b = Duration::from_millis(250);
        assert!((speedup(a, b) - 2.5).abs() < 1e-9);
        assert!((secs(a) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn engine_labels_are_distinct() {
        let labels: Vec<String> = Engine::paper_lineup().iter().map(Engine::label).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.iter().collect::<std::collections::HashSet<_>>().len() == 3);
    }
}
