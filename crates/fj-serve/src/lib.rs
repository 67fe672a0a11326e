//! # fj-serve
//!
//! The networked serving front-end for the Free Join engine: a std-only,
//! thread-per-core TCP server wrapping `free-join`'s `Session`/`Prepared`
//! API, with admission control, `/metrics`-style observability, and a
//! blocking client.
//!
//! The paper's COLT amortizes trie building *within* a query; `fj-cache`
//! (PR 2) amortizes tries and plans *across* queries; this crate (PR 4)
//! puts that amortization behind a socket and makes it survive real
//! concurrent traffic: racing cold clients coalesce onto single builds,
//! warm traffic is served entirely from the shared caches, and load beyond
//! the configured queue depth or in-flight byte budget is shed with a
//! typed `Busy` response instead of queueing without bound.
//!
//! * [`protocol`] — length-prefixed frames, hand-rolled binary codec,
//!   queries and parameter filters as datalog-grammar text.
//! * [`server`] — accept loop, bounded pending queue, worker pool, the two
//!   admission axes, graceful shutdown (drain in-flight, refuse new).
//! * [`metrics`] — the handles of the server's `fj_serve_*` cells in its
//!   one `fj_obs::MetricsRegistry`: lock-free counters and the log-linear
//!   latency histogram, next to the cache, scheduler and executor
//!   cells the session's `EngineCaches` binds into the same registry.
//! * [`client`] — the blocking client used by tests, examples and the
//!   benchmark's serving workloads (`bench/src/serve.rs`).
//!
//! The `Metrics` request — the one way a count crosses the wire — returns
//! that registry as Prometheus text (server, cache, scheduler and
//! executor counters read off their live cells, the gauges a
//! scrape sets, the `fj_build_info` series, latency histogram buckets);
//! `fj_obs::MetricsSnapshot::parse` reads it back by series name, the same
//! map [`Server::metrics`] gives in process. It is followed by a bounded
//! slow-query log whose entries
//! carry per-node `EXPLAIN ANALYZE` profiles plus the query fingerprint
//! and — when the execution was traced — its trace id; see
//! [`server::ServerConfig::slow_query_us`].
//!
//! Span tracing rides the same wire: a `TraceExecute` frame runs one
//! request with tracing forced on and returns the rendered span tree and
//! Chrome trace JSON ([`client::TraceAnswer`]), while
//! [`server::ServerConfig::trace_sample_n`] traces every Nth plain
//! `Execute` transparently, retaining the result in a bounded ring
//! fetchable by id with a `TraceFetch` frame ([`Client::fetch_trace`]).
//!
//! ```no_run
//! use fj_serve::{Client, Server, ServerConfig};
//! use fj_query::Aggregate;
//! use fj_storage::Catalog;
//! use free_join::{EngineCaches, Session};
//! use std::sync::Arc;
//!
//! let catalog = Arc::new(Catalog::new()); // populate before serving
//! let session = Session::new(Arc::new(EngineCaches::with_defaults()));
//! let server =
//!     Server::start("127.0.0.1:0", catalog, session, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let handle = client.prepare("Q() :- edge(a, b), edge(b, c).", Aggregate::Count).unwrap();
//! let answer = client.execute(handle).unwrap();
//! println!("{} paths, served in {} us", answer.cardinality, answer.service_us);
//! client.shutdown_server().unwrap();
//! server.join();
//! ```

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use client::{Answer, Client, ClientError, ExecuteOpts, PreparedHandle, TraceAnswer};
pub use metrics::ServerMetrics;
pub use protocol::{BusyReason, Request, Response, WireError};
pub use server::{Server, ServerConfig};
