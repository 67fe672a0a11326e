//! # freejoin
//!
//! Umbrella crate for the Free Join reproduction
//! (*"Free Join: Unifying Worst-Case Optimal and Traditional Joins"*,
//! SIGMOD 2023). It re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`storage`] — column-oriented in-memory relations and catalogs.
//! * [`cache`] — the shared trie & plan cache subsystem for repeated-query
//!   serving (sharded memory-budgeted LRU, single-flight builds).
//! * [`obs`] — observability primitives: the process-wide metrics registry
//!   with Prometheus-style text exposition and the per-plan-node query
//!   profiler behind `EXPLAIN ANALYZE`.
//! * [`query`] — conjunctive queries, hypergraphs, the datalog-style parser.
//! * [`plan`] — binary plans, Generic Join plans, Free Join plans, the
//!   plan converter/factorizer and the cost-based optimizer.
//! * [`engine`] — the Free Join engine (COLT + vectorized execution), plus
//!   the `Session`/`Prepared` serving API over the caches.
//! * [`serve`] — the networked serving front-end: length-prefixed TCP
//!   protocol, thread-per-core workers, admission control, `/metrics`.
//! * [`baselines`] — the binary hash join and Generic Join baselines.
//! * [`workloads`] — synthetic JOB-like, LSQB-like and micro workloads.
//!
//! ```
//! use freejoin::prelude::*;
//!
//! let workload = freejoin::workloads::micro::clover(100);
//! let named = &workload.queries[0];
//! let stats = CatalogStats::collect(&workload.catalog);
//! let plan = optimize(&named.query, &stats, OptimizerOptions::default());
//! let engine = FreeJoinEngine::new(FreeJoinOptions::default());
//! let (out, _) = engine.execute(&workload.catalog, &named.query, &plan).unwrap();
//! assert_eq!(out.cardinality(), 1);
//! ```

pub use fj_baselines as baselines;
pub use fj_cache as cache;
pub use fj_obs as obs;
pub use fj_plan as plan;
pub use fj_query as query;
pub use fj_serve as serve;
pub use fj_storage as storage;
pub use fj_workloads as workloads;
pub use free_join as engine;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use fj_baselines::{BinaryJoinEngine, GenericJoinEngine};
    pub use fj_cache::CacheStats;
    pub use fj_obs::{MetricsRegistry, MetricsSnapshot, QueryProfile, QueryTrace};
    pub use fj_plan::{
        binary2fj, factor, optimize, BinaryPlan, CatalogStats, EstimatorMode, FreeJoinPlan,
        OptimizerOptions,
    };
    pub use fj_query::{
        parse_filter, parse_query, Aggregate, ConjunctiveQuery, QueryBuilder, QueryOutput,
    };
    pub use fj_serve::{Client, Server, ServerConfig};
    pub use fj_storage::{Catalog, Predicate, Relation, RelationBuilder, Schema, Value};
    pub use free_join::{
        CancelReason, CancelToken, EngineCaches, ExecReport, ExecRequest, FreeJoinEngine,
        FreeJoinOptions, Params, Prepared, Session, SessionCacheStats, TrieStrategy,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let workload = crate::workloads::micro::clover(10);
        let named = &workload.queries[0];
        let stats = CatalogStats::collect(&workload.catalog);
        let plan = optimize(&named.query, &stats, OptimizerOptions::default());
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (out, _) = engine.execute(&workload.catalog, &named.query, &plan).unwrap();
        assert_eq!(out.cardinality(), 1);
    }
}
