//! Server observability: the handles of the `fj_serve_*` series.
//!
//! Every count the serving layer keeps is a cell of the server's
//! [`MetricsRegistry`], created under its series name when the server
//! starts ([`ServerMetrics::registered`]) and bumped lock-free by the
//! acceptor and the workers. The caches and the executor totals are bound
//! into the same registry (`EngineCaches::bind_metrics`), so the `Metrics`
//! frame — the one way a count crosses the wire — and in-process readers
//! (`fj_obs::MetricsSnapshot`) read one set of cells by one set of names,
//! the workspace-wide `fj_<subsystem>_<metric>` scheme.
//!
//! Service times land in the registry's log-linear [`Histogram`]
//! (`fj_serve_latency_us_bucket{le="..."}` cumulative counts plus `_sum`
//! and `_count`): any quantile is reproducible downstream with <= 25%
//! relative error, and the server reads its own p50 off it for the `Busy`
//! retry hint.

use fj_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// The server's live cells, each a handle into its [`MetricsRegistry`].
#[derive(Debug)]
pub struct ServerMetrics {
    /// Connections accepted and admitted to the pending queue
    /// (`fj_serve_accepted_connections`).
    pub accepted: Counter,
    /// Connections shed at the acceptor because the queue was full
    /// (`fj_serve_rejected_queue_full`).
    pub rejected_queue: Counter,
    /// Requests shed because the in-flight byte budget was exhausted
    /// (`fj_serve_rejected_byte_budget`).
    pub rejected_bytes: Counter,
    /// Requests served to completion, success or typed error response
    /// (`fj_serve_requests_served`).
    pub served: Counter,
    /// Requests answered with [`crate::protocol::Response::Error`]
    /// (`fj_serve_request_errors`).
    pub errors: Counter,
    /// Queries whose execution exceeded the slow-query threshold
    /// (`fj_serve_slow_queries_total`).
    pub slow_queries: Counter,
    /// Executions stopped by a per-request or server deadline
    /// (`fj_serve_deadline_exceeded_total`).
    pub deadline_exceeded: Counter,
    /// Executions stopped by an explicit `Cancel` frame or a memory budget
    /// (`fj_serve_cancellations_total`).
    pub cancellations: Counter,
    /// Request handlers that panicked and were isolated by the worker's
    /// `catch_unwind` (`fj_serve_panics_total`); the worker and its
    /// connection both survive.
    pub panics: Counter,
    /// Events the bounded trace rings dropped across all traced executions
    /// (`fj_obs_trace_events_dropped_total`).
    pub trace_events_dropped: Counter,
    /// Whole seconds since the server started, set at scrape time
    /// (`fj_serve_uptime_seconds`).
    pub uptime_seconds: Gauge,
    /// Service time (read-to-response) per served request, microseconds
    /// (the `fj_serve_latency_us` histogram series).
    pub latency: Histogram,
}

impl ServerMetrics {
    /// The cells, created in `registry` under their series names.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        ServerMetrics {
            accepted: registry.counter("fj_serve_accepted_connections"),
            rejected_queue: registry.counter("fj_serve_rejected_queue_full"),
            rejected_bytes: registry.counter("fj_serve_rejected_byte_budget"),
            served: registry.counter("fj_serve_requests_served"),
            errors: registry.counter("fj_serve_request_errors"),
            slow_queries: registry.counter("fj_serve_slow_queries_total"),
            deadline_exceeded: registry.counter("fj_serve_deadline_exceeded_total"),
            cancellations: registry.counter("fj_serve_cancellations_total"),
            panics: registry.counter("fj_serve_panics_total"),
            trace_events_dropped: registry.counter("fj_obs_trace_events_dropped_total"),
            uptime_seconds: registry.gauge("fj_serve_uptime_seconds"),
            latency: registry.histogram("fj_serve_latency_us"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_cells_feed_the_registry() {
        let registry = MetricsRegistry::new();
        let metrics = ServerMetrics::registered(&registry);
        metrics.accepted.inc();
        metrics.served.add(3);
        metrics.slow_queries.inc();
        metrics.latency.observe(40);
        let text = registry.render();
        assert!(text.contains("fj_serve_accepted_connections 1\n"), "{text}");
        assert!(text.contains("fj_serve_requests_served 3\n"), "{text}");
        assert!(text.contains("fj_serve_slow_queries_total 1\n"), "{text}");
        assert!(text.contains("fj_serve_latency_us_count 1\n"), "{text}");
        assert!(text.contains("fj_serve_uptime_seconds 0\n"), "{text}");
    }
}
