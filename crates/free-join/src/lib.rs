//! # free-join
//!
//! A Rust implementation of **Free Join**, the join framework from
//! *"Free Join: Unifying Worst-Case Optimal and Traditional Joins"*
//! (Wang, Willsey, Suciu — SIGMOD 2023). Free Join unifies traditional binary
//! hash joins and the worst-case optimal Generic Join in a single algorithm:
//!
//! * a **Free Join plan** (`fj_plan::FreeJoinPlan`, re-exported from
//!   `fj-plan`) generalizes both binary join plans and Generic Join variable
//!   orders;
//! * the **Generalized Hash Trie** ([`trie`]) generalizes the hash tables of
//!   binary join and the hash tries of Generic Join, with three build
//!   strategies — fully-eager simple tries, simple lazy tries (SLT, after
//!   Freitag et al.), and the paper's **COLT** (Column-Oriented Lazy Trie);
//! * the **Free Join algorithm** ([`exec`]) executes a plan over the tries,
//!   ranking each node's covers and probes by the tries' row counts,
//!   batching every node's probes (the paper's vectorized execution), with
//!   a columnar batched result pipeline
//!   (bindings accumulate in [`fj_query::ResultChunk`]s and reach the
//!   pipeline's [`fj_query::OutputBuilder`] one chunk — not one tuple — at
//!   a time, see [`sink`]).
//!
//! The main entry point is [`FreeJoinEngine`]: give it a catalog, a
//! conjunctive query and an optimized binary plan (e.g. from
//! `fj_plan::optimize`), and it converts the plan to a Free Join plan,
//! optimizes it by factorization, builds COLTs and runs the join.
//!
//! Execution is **work-stealing parallel** by default
//! ([`FreeJoinOptions::num_threads`] `= 0` uses the machine's available
//! parallelism; `1` runs the same plan walk on the calling thread, without a
//! scheduler): the trie layer is `Send + Sync` with race-free lazy forcing,
//! the root cover iteration seeds a shared task injector, oversized
//! expansions anywhere in the plan re-split into stealable sub-tasks, and
//! per-task builders merge deterministically in path-key order — see
//! [`exec::execute_pipeline`], the executor's one entry point, and the
//! module docs of [`trie`]. Repeated queries go through a [`Session`]:
//! [`Prepared::execute`] takes an [`ExecRequest`] (filter overrides, a
//! cancel token, and whether to collect a profile or a trace) and returns
//! an [`ExecReport`].
//!
//! ```
//! use fj_plan::{optimize, CatalogStats, OptimizerOptions};
//! use fj_query::QueryBuilder;
//! use fj_storage::{Catalog, RelationBuilder, Schema};
//! use free_join::{FreeJoinEngine, FreeJoinOptions};
//!
//! // A tiny triangle query.
//! let mut catalog = Catalog::new();
//! for name in ["R", "S", "T"] {
//!     let mut b = RelationBuilder::new(name, Schema::all_int(&["a", "b"]));
//!     for i in 0..10i64 {
//!         b.push_ints(&[i % 3, (i + 1) % 3]).unwrap();
//!     }
//!     catalog.add(b.finish()).unwrap();
//! }
//! let query = QueryBuilder::new("triangle")
//!     .atom("R", &["x", "y"])
//!     .atom("S", &["y", "z"])
//!     .atom("T", &["z", "x"])
//!     .count()
//!     .build();
//!
//! let stats = CatalogStats::collect(&catalog);
//! let plan = optimize(&query, &stats, OptimizerOptions::default());
//! let engine = FreeJoinEngine::new(FreeJoinOptions::default());
//! let (output, _exec_stats) = engine.execute(&catalog, &query, &plan).unwrap();
//! assert!(output.cardinality() > 0);
//! ```

pub mod cancel;
pub mod compile;
pub mod engine;
pub mod error;
pub mod exec;
pub mod options;
pub mod prep;
pub mod session;
pub mod sink;
pub mod trie;

pub use cancel::CancelToken;
pub use compile::{compile_query, CompiledQuery};
pub use engine::FreeJoinEngine;
pub use error::{EngineError, EngineResult};
pub use exec::{execute_pipeline, ExecCounters, Instruments};
pub use fj_obs::{
    NodeProfile, PipelineProfile, ProfileSheet, QueryProfile, QueryTrace, TraceBuf, TraceCat,
    TraceEvent, TraceKind,
};
pub use fj_query::CancelReason;
pub use options::{FreeJoinOptions, TrieStrategy};
pub use prep::{prepare_inputs, BoundInput};
pub use session::{
    EngineCaches, ExecReport, ExecRequest, Params, Prepared, Session, SessionCacheStats,
};
pub use sink::ChunkBuffer;
pub use trie::InputTrie;

// Re-export the plan types most users need alongside the engine, and the
// cache stats type sessions report.
pub use fj_cache::CacheStats;
pub use fj_plan::{binary2fj, factor, BinaryPlan, FreeJoinPlan};
