//! # fj-storage
//!
//! Column-oriented, in-memory storage substrate used by the Free Join
//! reproduction. The paper ("Free Join: Unifying Worst-Case Optimal and
//! Traditional Joins", SIGMOD 2023) assumes a main-memory column store where
//! "each column is stored as a vector" (Section 4.2); this crate provides
//! that substrate:
//!
//! * [`Value`] — the atomic data values stored in relations (64-bit integers,
//!   dictionary-encoded strings, and nulls).
//! * [`LevelKey`] / [`FastBuildHasher`] — inline-packed join keys (heap-free
//!   up to arity 2) and the FxHash-style hasher every hash level in the
//!   workspace shares (see [`key`]).
//! * [`Column`] — a typed vector of values.
//! * [`Relation`] — a named, schema'd collection of equal-length columns.
//! * [`Catalog`] — a mutable namespace of relations plus the shared string
//!   [`Dictionary`].
//! * [`Predicate`] — base-table selection predicates (the paper pushes
//!   selections down to the scans).
//!
//! Everything is single-threaded and in main memory, matching the paper's
//! experimental setup.

pub mod catalog;
pub mod column;
pub mod dict;
pub mod error;
pub mod key;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod value;

pub use catalog::Catalog;
pub use column::Column;
pub use dict::Dictionary;
pub use error::{StorageError, StorageResult};
pub use key::{FastBuildHasher, FxHasher, InlineKey, LevelKey, MAX_INLINE_KEY_ARITY};
pub use predicate::{CmpOp, Predicate};
pub use relation::{Relation, RelationBuilder};
pub use schema::{Field, Schema};
pub use value::{DataType, Value};

/// A row of values, used when materializing tuples across the engine crates.
pub type Row = Vec<Value>;
