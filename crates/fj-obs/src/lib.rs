//! Observability substrate for the Free Join workspace.
//!
//! Four independent pieces live here, all dependency-free so every other
//! crate (including the otherwise dependency-less `fj-cache`) can use them:
//!
//! * [`MetricsRegistry`] — a registry of named counters, gauges and
//!   histograms with Prometheus-style text exposition. Registration and
//!   rendering take a lock; every metric *update* is a single atomic
//!   operation on a shared cell, so the hot path is lock-free.
//! * [`ProfileSheet`] / [`QueryProfile`] — the per-plan-node query profiler's
//!   data model. A `ProfileSheet` is the flat accumulator array each executor
//!   worker bumps while running (one cache line per node, indexed by node
//!   id); a `QueryProfile` is the merged, per-pipeline result annotated with
//!   the optimizer's estimated cardinalities, rendered by
//!   `Session::explain_analyze` and carried by the serve layer's slow-query
//!   log.
//! * [`TraceBuf`] / [`QueryTrace`] — span tracing. Where metrics and
//!   profiles aggregate, a trace keeps the event timeline itself: bounded
//!   per-worker rings of POD span/instant events (scheduler tasks, steals,
//!   splits, trie fetches, probe reorders), assembled into a
//!   [`QueryTrace`] with a schedule-independent structural span tree and a
//!   Chrome trace-event JSON export for Perfetto.
//! * [`chaos`] — named fault-injection failpoints for robustness testing:
//!   armed by tests or `FJ_CHAOS`, one relaxed atomic load per site when
//!   disarmed (the same zero-cost-when-off discipline as the profiler).

pub mod chaos;
mod metrics;
mod profile;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use profile::{
    NodeAcc, NodeProfile, PipelineProfile, ProfileSheet, QueryProfile, ESTIMATE_BUST_FACTOR,
};
pub use trace::{
    trace_now_nanos, QueryTrace, TraceBuf, TraceCat, TraceEvent, TraceKind, DEFAULT_TRACE_CAPACITY,
    SESSION_WORKER, TRACE_PATH_CAP,
};
