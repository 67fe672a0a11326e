//! # fj-plan
//!
//! Join plans and planning for the Free Join reproduction.
//!
//! This crate covers three kinds of plans and the machinery to move between
//! them, following Sections 2–4 of the paper:
//!
//! * [`BinaryPlan`] — traditional binary join plan trees (left-deep or
//!   bushy), plus the decomposition of bushy plans into left-deep pipelines
//!   ([`DecomposedPlan`]).
//! * [`GjPlan`] — Generic Join plans (total variable orders).
//! * [`FreeJoinPlan`] — Free Join plans: a list of nodes, each a list of
//!   [`Subatom`]s, with validity checking and cover computation
//!   (Definition 3.5/3.7).
//! * [`binary2fj()`] — the conversion from a left-deep binary plan to an
//!   equivalent Free Join plan (Figure 9).
//! * [`factor()`] — the factorization optimization that moves probes up the
//!   plan, bringing it closer to Generic Join (Figure 10).
//! * [`stats`] / [`optimizer`] — catalog statistics, cardinality estimation
//!   and a cost-based join-order optimizer standing in for DuckDB's
//!   optimizer, including the deliberately-broken `AlwaysOne` estimator used
//!   by the paper's robustness experiment (Section 5.4).
//!
//! The subatom order a plan fixes here is the executor's tie-break, not
//! necessarily the order it runs: `free-join` ranks a node's cover
//! candidates and its probes per binding from O(1) trie bounds, wherever
//! the node leaves a choice (≥ 2 cover candidates, ≥ 3 subatoms).

pub mod binary2fj;
pub mod binary_plan;
pub mod factor;
pub mod fj_plan;
pub mod gj_plan;
pub mod optimizer;
pub mod stats;

pub use binary2fj::binary2fj;
pub use binary_plan::{BinaryPlan, DecomposedPlan, PipeInput, Pipeline, PlanTree};
pub use factor::{factor, factor_until_fixpoint};
pub use fj_plan::{FjNode, FreeJoinPlan, PlanValidityError, Subatom};
pub use gj_plan::{fj_plan_from_var_order, variable_order, GjPlan};
pub use optimizer::{optimize, EstimatorMode, OptimizerOptions};
pub use stats::{CardinalityEstimator, CatalogStats, ColumnStats, SubPlanInfo, TableStats};
