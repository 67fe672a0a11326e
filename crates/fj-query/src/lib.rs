//! # fj-query
//!
//! Query representation substrate for the Free Join reproduction.
//!
//! The paper (Section 2.1) works with *full conjunctive queries*
//! `Q(x) :- R1(x1), ..., Rm(xm)` under bag semantics, with selections pushed
//! down to the base tables and projections/aggregation applied after the full
//! join. This crate provides:
//!
//! * [`Atom`] / [`ConjunctiveQuery`] — the query AST, including per-atom
//!   selection predicates and aliases for self-joins.
//! * [`Hypergraph`] — the query hypergraph with the GYO reduction used to
//!   decide α-acyclicity.
//! * [`parser`] — a datalog-style text syntax for writing queries in tests,
//!   examples and benchmarks.
//! * [`QueryBuilder`] — a fluent programmatic builder.
//! * [`propagate_constants`] — the one logical rewrite: an equality constant
//!   on a join column becomes a filter on every atom that binds the variable.
//! * [`QueryOutput`] / [`ExecStats`] — the output and measurement types every
//!   execution engine in this workspace produces, so that results can be
//!   compared across engines.

pub mod atom;
pub mod builder;
pub mod hypergraph;
pub mod output;
pub mod parser;
pub mod propagate;
pub mod query;

pub use atom::Atom;
pub use builder::QueryBuilder;
pub use hypergraph::Hypergraph;
pub use output::{
    Aggregate, ExecStats, OutputBuilder, OutputKind, QueryOutput, ResultChunk, CHUNK_CAPACITY,
};
pub use parser::{parse_filter, parse_query, ParseError};
pub use propagate::{propagate_constants, propagate_constants_in_place, Derivation, Propagated};
pub use query::{CancelReason, ConjunctiveQuery, QueryError};
