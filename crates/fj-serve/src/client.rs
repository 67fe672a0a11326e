//! A minimal blocking client for the fj-serve wire protocol, used by the
//! integration tests, `examples/serve_tcp.rs`, and the benchmark's serving
//! workloads (`bench/src/serve.rs`). One request in flight per connection
//! (the protocol is strict request/response); open more clients for
//! concurrency, exactly like the server's thread-per-connection workers
//! expect.

use crate::protocol::{
    read_frame, send_frame, BusyReason, Request, Response, WireError, MAX_FRAME_BYTES,
};
use fj_query::Aggregate;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A typed client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (includes the server closing mid-exchange).
    Io(io::Error),
    /// The server's bytes did not decode.
    Wire(WireError),
    /// The server shed this request ([`Response::Busy`]); it was NOT run.
    /// `retry_after_ms` is the server's backoff hint (queue depth × recent
    /// p50 service time; never zero) — wait at least that long before
    /// retrying.
    Busy {
        /// Which admission axis shed the request.
        reason: BusyReason,
        /// Suggested backoff before retrying, milliseconds.
        retry_after_ms: u64,
    },
    /// The server answered with a typed error message.
    Server(String),
    /// The server closed the connection instead of answering (e.g. it shut
    /// down, or this connection was shed at the acceptor after the Busy
    /// frame was lost).
    Disconnected,
    /// Decoded fine but was not the response this request expects.
    UnexpectedResponse(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Busy { reason, retry_after_ms } => {
                write!(f, "server busy: {reason} (retry after ~{retry_after_ms} ms)")
            }
            ClientError::Server(message) => write!(f, "server error: {message}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse(expected) => {
                write!(f, "unexpected response (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A prepared query's server-side identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedHandle {
    /// Registry key to pass to [`Client::execute`].
    pub handle: u64,
    /// The plan-cache fingerprint (equal across clients preparing the same
    /// normalized shape — observable proof of cross-connection plan reuse).
    pub fingerprint: u64,
}

/// One execution's result summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Output cardinality (rows, count value, or group count).
    pub cardinality: u64,
    /// Tries this execution built; 0 on a fully cache-served path.
    pub tries_built: u64,
    /// Server-side service time for this request, microseconds.
    pub service_us: u64,
}

/// One traced execution's (or fetched trace's) rendered views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAnswer {
    /// Server-minted trace id — quote it to [`Client::fetch_trace`], and
    /// correlate it with `# slow_query ... trace_id=` metrics lines.
    pub trace_id: u64,
    /// Output cardinality of the traced execution (0 for fetches).
    pub cardinality: u64,
    /// Server-side service time, microseconds (0 for fetches).
    pub service_us: u64,
    /// The canonical, schedule-independent span tree.
    pub span_tree: String,
    /// Chrome trace-event JSON; write it to a file and load it in Perfetto.
    pub chrome_json: String,
}

/// Per-request execution options: the request id `Cancel` frames target,
/// and the client-side deadline the server clamps by its `max_query_ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecuteOpts {
    /// Client-chosen id identifying this execution to [`Client::cancel`]
    /// (from another connection). `0` = not cancellable by id.
    pub request_id: u64,
    /// Wall-clock deadline for this execution, milliseconds; the server
    /// clamps it by its own cap and unwinds the query cooperatively past
    /// it. `0` = no client deadline (the server cap still applies).
    pub deadline_ms: u64,
}

/// A blocking connection to an fj-serve server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The resolved address, kept so [`Client::execute_retry`] can
    /// reconnect after an I/O failure.
    addr: SocketAddr,
}

impl Client {
    /// Connect. The server may still shed this connection at admission; the
    /// first request then fails with [`ClientError::Busy`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, addr })
    }

    /// Drop the current socket and dial the server again.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        Ok(())
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        send_frame(&mut self.stream, &request.encode_frame())?;
        let payload =
            read_frame(&mut self.stream, MAX_FRAME_BYTES)?.ok_or(ClientError::Disconnected)?;
        let response = Response::decode(&payload).map_err(ClientError::Wire)?;
        match response {
            Response::Busy { reason, retry_after_ms } => {
                Err(ClientError::Busy { reason, retry_after_ms })
            }
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Ok(other),
        }
    }

    /// Prepare a query (datalog text + aggregate) on the server.
    pub fn prepare(
        &mut self,
        query: impl Into<String>,
        aggregate: Aggregate,
    ) -> Result<PreparedHandle, ClientError> {
        match self.round_trip(&Request::Prepare { query: query.into(), aggregate })? {
            Response::Prepared { handle, fingerprint } => {
                Ok(PreparedHandle { handle, fingerprint })
            }
            _ => Err(ClientError::UnexpectedResponse("Prepared")),
        }
    }

    /// Execute a prepared handle with no parameter overrides.
    pub fn execute(&mut self, handle: PreparedHandle) -> Result<Answer, ClientError> {
        self.execute_with(handle, &[])
    }

    /// Execute with `(alias, filter text)` parameter overrides.
    pub fn execute_with(
        &mut self,
        handle: PreparedHandle,
        params: &[(&str, &str)],
    ) -> Result<Answer, ClientError> {
        self.execute_opts(handle, params, ExecuteOpts::default())
    }

    /// Execute with parameter overrides plus a request id and/or deadline.
    pub fn execute_opts(
        &mut self,
        handle: PreparedHandle,
        params: &[(&str, &str)],
        opts: ExecuteOpts,
    ) -> Result<Answer, ClientError> {
        let params = params.iter().map(|(a, f)| (a.to_string(), f.to_string())).collect::<Vec<_>>();
        let request = Request::Execute {
            handle: handle.handle,
            params,
            request_id: opts.request_id,
            deadline_ms: opts.deadline_ms,
        };
        match self.round_trip(&request)? {
            Response::Answer { cardinality, tries_built, service_us } => {
                Ok(Answer { cardinality, tries_built, service_us })
            }
            _ => Err(ClientError::UnexpectedResponse("Answer")),
        }
    }

    /// Cancel an in-flight execution by the request id its issuer chose
    /// (typically from a different connection — this one is blocked on its
    /// own response while the query runs). A typed server error means no
    /// such execution is in flight (never started, or already finished).
    pub fn cancel(&mut self, request_id: u64) -> Result<(), ClientError> {
        match self.round_trip(&Request::Cancel { request_id })? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }

    /// Execute with retries: jittered exponential backoff honoring the
    /// server's `retry_after_ms` hint on [`ClientError::Busy`], and a
    /// reconnect + retry on I/O failures (a shed or faulted connection).
    /// Typed server errors are NOT retried — the request ran and failed.
    pub fn execute_retry(
        &mut self,
        handle: PreparedHandle,
        params: &[(&str, &str)],
        max_retries: u32,
    ) -> Result<Answer, ClientError> {
        let mut attempt = 0u32;
        loop {
            let error = match self.execute_with(handle, params) {
                Ok(answer) => return Ok(answer),
                Err(e) => e,
            };
            attempt += 1;
            if attempt > max_retries {
                return Err(error);
            }
            let hint = match &error {
                ClientError::Busy { retry_after_ms, .. } => *retry_after_ms,
                ClientError::Io(_) | ClientError::Disconnected => {
                    // The socket is suspect; redial before retrying. A failed
                    // reconnect still burns this attempt's backoff below.
                    let _ = self.reconnect();
                    1
                }
                _ => return Err(error),
            };
            // Jittered exponential backoff: [base/2, base] where base is the
            // server hint doubled per attempt, capped at ~10 s. Jitter comes
            // from the subsecond clock — no RNG dependency, and perfectly
            // adequate for de-synchronizing retry herds.
            let base =
                hint.max(1).saturating_mul(1 << attempt.saturating_sub(1).min(6)).min(10_000);
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.subsec_nanos());
            let jittered = base / 2 + u64::from(nanos) % (base / 2 + 1);
            std::thread::sleep(Duration::from_millis(jittered));
        }
    }

    /// Execute a prepared handle with span tracing forced on for this
    /// request, returning the rendered trace alongside the result summary.
    pub fn trace(
        &mut self,
        handle: PreparedHandle,
        params: &[(&str, &str)],
    ) -> Result<TraceAnswer, ClientError> {
        let params = params.iter().map(|(a, f)| (a.to_string(), f.to_string())).collect::<Vec<_>>();
        let request =
            Request::TraceExecute { handle: handle.handle, params, request_id: 0, deadline_ms: 0 };
        match self.round_trip(&request)? {
            Response::Trace { trace_id, cardinality, service_us, span_tree, chrome_json } => {
                Ok(TraceAnswer { trace_id, cardinality, service_us, span_tree, chrome_json })
            }
            _ => Err(ClientError::UnexpectedResponse("Trace")),
        }
    }

    /// Fetch a stored trace by id (recorded by `trace_sample_n` sampling or
    /// an earlier [`Client::trace`] call, while it remains in the server's
    /// bounded trace ring).
    pub fn fetch_trace(&mut self, trace_id: u64) -> Result<TraceAnswer, ClientError> {
        match self.round_trip(&Request::TraceFetch { trace_id })? {
            Response::Trace { trace_id, cardinality, service_us, span_tree, chrome_json } => {
                Ok(TraceAnswer { trace_id, cardinality, service_us, span_tree, chrome_json })
            }
            _ => Err(ClientError::UnexpectedResponse("Trace")),
        }
    }

    /// Fetch the Prometheus-style metrics text: every registry series,
    /// the full latency histogram, and the slow-query log as comments.
    /// Read counts out of it by series name with
    /// `fj_obs::MetricsSnapshot::parse`.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            _ => Err(ClientError::UnexpectedResponse("Metrics")),
        }
    }

    /// Ask the server to shut down gracefully (acknowledged before the
    /// drain begins).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            _ => Err(ClientError::UnexpectedResponse("Ok")),
        }
    }
}
