//! The serving loop: accept thread, bounded pending queue, worker pool,
//! admission control, and graceful shutdown.
//!
//! # Threading model
//!
//! One **acceptor** thread owns the listener. Each accepted connection is
//! pushed onto a bounded [`std::sync::mpsc::sync_channel`]; when the queue
//! is full the acceptor writes a typed [`Response::Busy`] frame and closes
//! the socket immediately — load is shed at the door, before any worker
//! time is spent. **Workers** (thread-per-core by default) pop connections
//! and run each one's request/response loop to completion, so a connection
//! is always served by exactly one thread and the engine below needs no
//! per-request locking: all workers share one [`Session`] (and one handle
//! registry) behind an `Arc` — `prepare`/`execute` take `&self`, so
//! concurrent executions never serialize on the server.
//!
//! # Admission control
//!
//! Two axes, both returning typed `Busy` responses rather than stalling:
//!
//! * **Queue depth** — the bounded pending queue above; capacity
//!   [`ServerConfig::queue_capacity`].
//! * **In-flight bytes** — each admitted request reserves its frame size
//!   against [`ServerConfig::inflight_byte_budget`] until its response is
//!   written; a request that would exceed the budget is answered
//!   `Busy(ByteBudget)` and dropped *without* executing (the connection
//!   stays usable). Individual frames are additionally capped at
//!   [`ServerConfig::max_frame_bytes`] — an oversized announcement is a
//!   protocol violation that closes the connection, since the stream can't
//!   be resynchronized.
//!
//! # Read timeouts
//!
//! A worker waits for a connection's next frame with a `peek` under the
//! socket's read timeout, `IDLE_POLL` (50 ms), re-checking the shutdown
//! flag in between. Once a byte has arrived the whole frame must be in
//! within [`ServerConfig::read_deadline_ms`], and no single read may block
//! longer than the smaller of 250 ms and the time left before that
//! deadline. Setting a socket's read timeout is a syscall, so the timeout
//! is changed only when its value does: it rests at `IDLE_POLL`, which
//! already bounds every read well inside 250 ms, drops below it only for
//! a read closer to the frame deadline than that, and goes back once the
//! frame is in. A request whose frame arrives in time sets it no times. A
//! peer may still send a frame in pieces; a peer that trickles it is cut
//! off at the deadline, within one more read.
//!
//! Every frame leaves in one write ([`crate::protocol::send_frame`]),
//! header and payload together: the socket is `TCP_NODELAY`, so two writes
//! are two segments and the peer's read of the payload waits for the
//! second.
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] (or a client's `Shutdown` frame) flips a flag and
//! nudges the acceptor awake; the listener closes, queued connections are
//! drained by the workers, in-flight requests complete and get their
//! responses, and idle connections are closed at the next frame boundary
//! (workers poll the flag with a short `peek` timeout, so `join` never
//! hangs on a silent client). New connection attempts are refused by the
//! closed listener.
//!
//! # Observability
//!
//! Every count lives in one cell of a process-local
//! [`fj_obs::MetricsRegistry`], set up when the server starts: the server's
//! own `fj_serve_*` handles, and the session's cache, scheduler and
//! executor cells bound under their `fj_cache_*` / `fj_sched_*` /
//! `fj_exec_*` names. The `Metrics` frame (and [`Server::metrics_text`])
//! renders the registry as Prometheus-style text — a scrape sets only the
//! uptime and the caches' shard-summed gauges — plus a
//! bounded **slow-query log**: executions at or above
//! [`ServerConfig::slow_query_us`] land in a ring of the last 8 entries,
//! each carrying its per-node [`fj_obs::QueryProfile`], rendered as
//! `#`-prefixed comment lines. Every execution is profiled, so the profile
//! exists by the time the execution turns out to have been slow.

use crate::metrics::ServerMetrics;
use crate::protocol::{frame_len, send_frame, BusyReason, Request, Response};
use fj_obs::{
    chaos, MetricsRegistry, MetricsSnapshot, QueryProfile, TraceBuf, TraceCat, SESSION_WORKER,
};
use fj_query::{parse_filter, parse_query, Aggregate, ConjunctiveQuery, QueryError};
use fj_storage::Catalog;
use free_join::{CancelReason, CancelToken, EngineError, ExecRequest, Params, Prepared, Session};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`]. A field stays only while a workload
/// measures it or a test pins the bound it keeps.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections. `0` = available parallelism
    /// (thread-per-core).
    pub workers: usize,
    /// Bounded pending-connection queue depth; arrivals beyond it are shed
    /// with `Busy(QueueFull)`.
    pub queue_capacity: usize,
    /// Total bytes of admitted request frames allowed in flight at once;
    /// requests beyond it are shed with `Busy(ByteBudget)`.
    pub inflight_byte_budget: usize,
    /// Per-frame size cap; larger frames are a protocol violation. Never
    /// above [`crate::protocol::MAX_FRAME_BYTES`], whatever it is set to.
    pub max_frame_bytes: usize,
    /// Maximum prepared handles retained server-wide. Re-preparing an
    /// identical query reuses its existing handle; beyond the cap the
    /// oldest handle is dropped (executing it afterwards is a typed
    /// "unknown handle" error), so an untrusted client looping `Prepare`
    /// cannot grow server memory without bound.
    pub max_prepared: usize,
    /// Executions whose engine time reaches this many microseconds are
    /// recorded in the slow-query log with their per-node profile.
    pub slow_query_us: u64,
    /// Trace every Nth `Execute` request (the first, then every Nth after)
    /// with span tracing forced on; the rendered trace lands in the trace
    /// ring, fetchable by id via the `TraceFetch` frame, and its id is
    /// attached to any slow-query entry the execution produces. `0`
    /// disables sampling — explicit `TraceExecute` requests still trace.
    pub trace_sample_n: usize,
    /// Server-side cap on any single execution's wall time, milliseconds.
    /// Clamps the client-supplied per-request `deadline_ms` and applies
    /// when the client sends none; past it the execution unwinds
    /// cooperatively into a typed deadline-exceeded error. `0` = no cap
    /// (client deadlines still honored).
    pub max_query_ms: u64,
    /// Total per-request read deadline, milliseconds: once a frame header
    /// starts arriving, the whole frame (header + body) must complete
    /// within this budget, regardless of how many 1-byte trickles the peer
    /// splits it into — a slowloris peer is disconnected instead of pinning
    /// a worker. `0` falls back to a 30 s budget.
    pub read_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            inflight_byte_budget: 8 << 20,
            max_frame_bytes: 1 << 20,
            max_prepared: 1024,
            slow_query_us: 10_000,
            trace_sample_n: 0,
            max_query_ms: 0,
            read_deadline_ms: 30_000,
        }
    }
}

impl ServerConfig {
    /// The concrete worker count (`workers`, or available parallelism).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// State shared by the acceptor, the workers, and the [`Server`] handle.
struct Shared {
    session: Session,
    catalog: Arc<Catalog>,
    config: ServerConfig,
    metrics: ServerMetrics,
    /// The one registry behind the `Metrics` text exposition: the
    /// [`ServerMetrics`] cells and the session's cache and executor cells,
    /// all registered at startup.
    registry: MetricsRegistry,
    /// Ring of the most recent slow executions, newest at the back.
    slow_queries: Mutex<VecDeque<SlowQuery>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// Bytes of admitted request frames currently being processed.
    inflight_bytes: AtomicUsize,
    /// Connections currently sitting in the pending queue (admitted by the
    /// acceptor, not yet popped by a worker) — the depth behind the
    /// retry-after hint on `Busy` responses.
    queued: AtomicUsize,
    /// Prepared-handle registry, server-global so any connection may
    /// execute a handle prepared by another (read-mostly: one write per
    /// distinct prepare, reads on every execute).
    prepared: RwLock<PreparedRegistry>,
    next_handle: AtomicU64,
    /// Server start time, behind the `fj_serve_uptime_seconds` gauge (set
    /// at scrape time, like the caches' shard-summed gauges).
    started: Instant,
    /// Ring of the most recent rendered traces, newest at the back,
    /// fetchable by id via `TraceFetch` while they last.
    traces: Mutex<VecDeque<StoredTrace>>,
    /// Monotone `Execute` sequence behind `trace_sample_n` sampling.
    execute_seq: AtomicU64,
    /// Trace-id mint; ids are never reused while the server lives, so a
    /// stale id fetches nothing rather than someone else's trace.
    next_trace_id: AtomicU64,
    /// Cancel tokens of in-flight executions, keyed by the client-chosen
    /// request id — the `Cancel` frame (arriving on another connection)
    /// fires the token here. Entries are registered just before execution
    /// and removed on every exit path (a drop guard).
    inflight_cancels: Mutex<HashMap<u64, CancelToken>>,
}

/// Entries the slow-query ring keeps (the most recent win).
const SLOW_QUERY_LOG: usize = 8;

/// Rendered traces the trace ring keeps (the most recent win).
const TRACE_RING: usize = 8;

/// One retained trace, rendered at execution time (the ring stores the
/// rendered strings, not the event buffers — fetches are lock-and-clone).
#[derive(Clone)]
struct StoredTrace {
    trace_id: u64,
    cardinality: u64,
    service_us: u64,
    span_tree: String,
    chrome_json: String,
}

/// The bounded prepared-handle registry: identical re-prepares reuse the
/// existing handle, and beyond [`ServerConfig::max_prepared`] entries the
/// oldest handle is dropped FIFO — untrusted `Prepare` loops cannot grow
/// server memory without bound.
#[derive(Debug, Default)]
struct PreparedRegistry {
    by_handle: HashMap<u64, Arc<Prepared>>,
    /// Insertion order, oldest first (the eviction order).
    order: VecDeque<u64>,
}

impl PreparedRegistry {
    fn get(&self, handle: u64) -> Option<Arc<Prepared>> {
        self.by_handle.get(&handle).cloned()
    }

    /// The handle of an already-registered identical query, if any. The
    /// scan is O(registry) on fingerprint equality (a u64 compare) and
    /// only runs at prepare time, which is already a planner round-trip.
    fn find_identical(&self, prepared: &Prepared) -> Option<u64> {
        self.by_handle
            .iter()
            .find(|(_, existing)| {
                existing.fingerprint() == prepared.fingerprint()
                    && existing.query() == prepared.query()
            })
            .map(|(&handle, _)| handle)
    }

    /// Register under `handle`, evicting oldest entries beyond `cap`.
    fn insert(&mut self, handle: u64, prepared: Arc<Prepared>, cap: usize) {
        self.by_handle.insert(handle, prepared);
        self.order.push_back(handle);
        while self.by_handle.len() > cap.max(1) {
            let oldest = self.order.pop_front().expect("order tracks by_handle");
            self.by_handle.remove(&oldest);
        }
    }
}

/// One slow execution, as retained by the slow-query ring.
struct SlowQuery {
    /// Prepared handle that was executed.
    handle: u64,
    /// The plan-cache fingerprint of the prepared query — stable across
    /// handle churn, so slow entries group by query shape downstream.
    fingerprint: u64,
    /// Engine-side execution time, microseconds.
    service_us: u64,
    /// Output cardinality of the execution.
    cardinality: u64,
    /// The per-node profile captured alongside the execution.
    profile: QueryProfile,
    /// Trace id when the execution was traced (explicitly or by
    /// sampling) — quote it to `TraceFetch` while the ring retains it.
    trace_id: Option<u64>,
}

/// The labeled build-info series (constant 1, the version as a label — the
/// Prometheus "info metric" idiom). The registry rejects labeled names by
/// design, so it is appended to the rendering as it is.
const BUILD_INFO: &str = concat!("fj_build_info{version=\"", env!("CARGO_PKG_VERSION"), "\"} 1\n");

impl Shared {
    /// The state of a server at `addr`, its registry set up: the server's
    /// own cells created in it, the session's cache pair bound into it.
    fn new(
        session: Session,
        catalog: Arc<Catalog>,
        config: ServerConfig,
        addr: SocketAddr,
    ) -> Self {
        let registry = MetricsRegistry::new();
        session.caches().bind_metrics(&registry);
        Shared {
            session,
            catalog,
            config,
            metrics: ServerMetrics::registered(&registry),
            registry,
            slow_queries: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            addr,
            inflight_bytes: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            prepared: RwLock::new(PreparedRegistry::default()),
            next_handle: AtomicU64::new(1),
            started: Instant::now(),
            traces: Mutex::new(VecDeque::new()),
            execute_seq: AtomicU64::new(0),
            next_trace_id: AtomicU64::new(1),
            inflight_cancels: Mutex::new(HashMap::new()),
        }
    }

    /// Flip the shutdown flag and nudge the blocking `accept` awake with a
    /// throwaway loopback connection so the listener closes promptly.
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Try to reserve `bytes` against the in-flight budget.
    fn reserve_inflight(&self, bytes: usize) -> bool {
        let mut current = self.inflight_bytes.load(Ordering::Relaxed);
        loop {
            let Some(next) = current.checked_add(bytes) else { return false };
            if next > self.config.inflight_byte_budget {
                return false;
            }
            match self.inflight_bytes.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    fn release_inflight(&self, bytes: usize) {
        self.inflight_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// The backoff hint attached to every `Busy` response: current queue
    /// depth × recent p50 service time, in milliseconds. With an empty
    /// histogram (a cold server) the p50 is floored at 1 ms so the hint is
    /// never zero — a zero would read as "retry immediately", the one thing
    /// a shedding server doesn't want.
    fn retry_after_ms(&self) -> u64 {
        let depth = self.queued.load(Ordering::Relaxed) as u64;
        let p50_us = self.metrics.latency.quantile(0.5).max(1_000);
        (depth + 1).saturating_mul(p50_us).div_ceil(1_000)
    }

    /// The full Prometheus-style text exposition: the registry (every
    /// counter and the latency histogram read off their live cells; only
    /// the uptime and the caches' shard-summed gauges are set here), the
    /// build-info series, then the slow-query log as comments.
    fn metrics_text(&self) -> String {
        self.metrics.uptime_seconds.set(self.started.elapsed().as_secs());
        // Reading the caches' stats sums their shards into the two gauges.
        self.session.cache_stats();
        let mut text = self.registry.render();
        text.push_str(BUILD_INFO);
        let log = self.slow_queries.lock().expect("slow-query log lock not poisoned");
        for entry in log.iter() {
            let trace_id = entry.trace_id.map_or_else(|| "-".to_string(), |id| id.to_string());
            text.push_str(&format!(
                "# slow_query handle={} fingerprint={:016x} service_us={} cardinality={} trace_id={}\n",
                entry.handle, entry.fingerprint, entry.service_us, entry.cardinality, trace_id
            ));
            for line in entry.profile.render().lines() {
                text.push_str("# ");
                text.push_str(line);
                text.push('\n');
            }
        }
        text
    }

    /// Record one execution in the slow-query ring if it crossed the
    /// threshold.
    fn note_slow_query(
        &self,
        handle: u64,
        fingerprint: u64,
        service_us: u64,
        cardinality: u64,
        profile: QueryProfile,
        trace_id: Option<u64>,
    ) {
        if service_us < self.config.slow_query_us {
            return;
        }
        self.metrics.slow_queries.inc();
        let mut log = self.slow_queries.lock().expect("slow-query log lock not poisoned");
        log.push_back(SlowQuery {
            handle,
            fingerprint,
            service_us,
            cardinality,
            profile,
            trace_id,
        });
        while log.len() > SLOW_QUERY_LOG {
            log.pop_front();
        }
    }

    /// Retain a rendered trace in the bounded ring (newest wins).
    fn store_trace(&self, stored: StoredTrace) {
        let mut ring = self.traces.lock().expect("trace ring lock not poisoned");
        ring.push_back(stored);
        while ring.len() > TRACE_RING {
            ring.pop_front();
        }
    }

    /// Look a retained trace up by id (`None` once evicted or never stored).
    fn find_trace(&self, trace_id: u64) -> Option<StoredTrace> {
        let ring = self.traces.lock().expect("trace ring lock not poisoned");
        ring.iter().rev().find(|t| t.trace_id == trace_id).cloned()
    }

    /// Build the cancel token for one execution: the client's `deadline_ms`
    /// clamped by [`ServerConfig::max_query_ms`] (either zero means "the
    /// other wins"; both zero with no request id means no token at all, so
    /// the common un-deadlined path stays on the zero-overhead disabled
    /// token).
    fn arm_token(&self, request_id: u64, deadline_ms: u64) -> CancelToken {
        let capped = match (deadline_ms, self.config.max_query_ms) {
            (0, 0) => 0,
            (0, max) => max,
            (d, 0) => d,
            (d, max) => d.min(max),
        };
        if capped == 0 && request_id == 0 {
            return CancelToken::disabled();
        }
        CancelToken::with_limits(
            (capped > 0).then(|| Instant::now() + Duration::from_millis(capped)),
            0,
        )
    }
}

/// A running serving front-end. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] then [`Server::join`] (or let a client
/// send the `Shutdown` frame).
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the acceptor and worker threads. The server executes every query
    /// through `session` against `catalog`; hand it a session whose
    /// `EngineCaches` you keep a clone of if you want out-of-band stats.
    pub fn start(
        addr: impl ToSocketAddrs,
        catalog: Arc<Catalog>,
        session: Session,
        config: ServerConfig,
    ) -> io::Result<Server> {
        // Failpoints arm from the environment once per server start, so a
        // chaos run needs no code changes (`FJ_CHAOS=serve.socket_read=fail`).
        chaos::arm_from_env();
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let queue_capacity = config.queue_capacity.max(1);
        let worker_count = config.effective_workers().max(1);
        let shared = Arc::new(Shared::new(session, catalog, config, local_addr));

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("fj-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .expect("spawning a worker thread succeeds")
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fj-serve-acceptor".into())
                .spawn(move || accept_loop(&shared, listener, tx))
                .expect("spawning the acceptor thread succeeds")
        };

        Ok(Server { shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The Prometheus-style metrics text, same data as the `Metrics` frame.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Every series of [`Server::metrics_text`] by name: what a wire client
    /// gets from `MetricsSnapshot::parse` of a `Metrics` frame.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::parse(&self.metrics_text())
    }

    /// Begin graceful shutdown: refuse new connections, drain queued and
    /// in-flight work. Returns immediately; use [`Server::join`] to wait.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Wait for the acceptor and every worker to finish, and read the final
    /// metrics. Call after [`Server::shutdown`] (or after a client sent the
    /// shutdown frame).
    pub fn join(mut self) -> MetricsSnapshot {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.metrics()
    }
}

/// Accept connections until shutdown, shedding with a typed `Busy` frame
/// when the bounded queue is full. The `tx` end drops with this function,
/// which is what lets drained workers observe channel closure and exit.
fn accept_loop(shared: &Shared, listener: TcpListener, tx: SyncSender<TcpStream>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Count the connection as queued BEFORE it becomes visible to the
        // workers: a worker popping it immediately decrements, and the
        // counter must never race below zero (a transiently high depth only
        // inflates the retry hint; an underflow would wrap it to the moon).
        shared.queued.fetch_add(1, Ordering::Relaxed);
        match tx.try_send(stream) {
            Ok(()) => {
                shared.metrics.accepted.inc();
            }
            Err(TrySendError::Full(stream)) | Err(TrySendError::Disconnected(stream)) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                shared.metrics.rejected_queue.inc();
                let mut stream = stream;
                let busy = Response::Busy {
                    reason: BusyReason::QueueFull,
                    retry_after_ms: shared.retry_after_ms(),
                };
                let _ = send_frame(&mut stream, &busy.encode_frame());
                shed_gracefully(stream);
            }
        }
    }
}

/// Part with a shed connection without losing the `Busy` frame just
/// written to it. A bare close is not enough: if the peer's first request
/// is in flight (or lands just after the close), the kernel answers the
/// unread bytes with RST, and the RST discards the buffered `Busy` frame
/// on the peer before it is read — the client then reports a broken pipe
/// instead of the typed rejection. Half-close the write side so the frame
/// is followed by a clean FIN, then briefly read and discard whatever the
/// peer sent so the final close finds no unread data. Both the per-read
/// timeout and the total drain window are bounded: a peer trickling bytes
/// cannot pin the acceptor on a connection it already rejected.
fn shed_gracefully(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(50);
    let mut sink = [0u8; 512];
    while Instant::now() < deadline {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
        match stream.read(&mut sink) {
            // EOF: the peer saw the FIN (and with it the frame) and hung
            // up. Timeout or error: nothing more is coming that could
            // trigger an RST before the peer reads the frame.
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Pop connections and serve them until the channel closes (acceptor gone)
/// and the queue is drained.
fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let stream = {
            let rx = rx.lock().expect("connection queue lock not poisoned");
            rx.recv()
        };
        match stream {
            Ok(stream) => {
                shared.queued.fetch_sub(1, Ordering::Relaxed);
                serve_connection(shared, stream);
            }
            Err(_) => return, // channel closed and drained: shutdown complete
        }
    }
}

/// How long a worker waits for the *next frame header* before re-checking
/// the shutdown flag. Bounds `Server::join` latency on idle connections.
/// It is also the socket's read timeout at rest (see [`ReadTimeout`]).
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The longest one read inside a frame may block, however far off the
/// frame's deadline is.
const MAX_READ_BLOCK: Duration = Duration::from_millis(250);

/// A connection's socket read timeout, as last set: every change is a
/// syscall, so it is changed only when its value does (module docs, "Read
/// timeouts").
struct ReadTimeout {
    current: Option<Duration>,
}

impl ReadTimeout {
    /// Set the timeout to `timeout`, unless that is what it is.
    fn set(&mut self, stream: &TcpStream, timeout: Duration) {
        if self.current != Some(timeout) && stream.set_read_timeout(Some(timeout)).is_ok() {
            self.current = Some(timeout);
        }
    }

    /// Lower the timeout to `limit` if it is above it (or unknown), so the
    /// next read blocks no longer than that.
    fn at_most(&mut self, stream: &TcpStream, limit: Duration) {
        if self.current.is_none_or(|current| current > limit) {
            self.set(stream, limit);
        }
    }
}

/// Wait until at least one byte of the next frame is available (`peek`, so
/// nothing is consumed), polling the shutdown flag between timeouts.
/// Returns `false` when the connection should close (EOF, error, or
/// shutdown while idle).
fn await_frame(shared: &Shared, stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        match stream.peek(&mut probe) {
            Ok(0) => return false, // EOF
            Ok(_) => return true,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return false,
        }
    }
}

/// Read exactly `buf.len()` bytes before `deadline`, slicing the wait into
/// short read timeouts so a trickling peer is checked against the *total*
/// budget, not a fresh per-`read` one: no read blocks longer than the
/// smaller of [`MAX_READ_BLOCK`] and the time left. `Ok(false)` means clean
/// EOF before any byte arrived (only meaningful for the first read of a
/// frame).
fn read_exact_deadline(
    stream: &mut TcpStream,
    timeout: &mut ReadTimeout,
    buf: &mut [u8],
    deadline: Instant,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline exceeded mid-frame",
            ));
        }
        timeout.at_most(stream, (deadline - now).min(MAX_READ_BLOCK));
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one length-prefixed frame under a total per-request deadline: once
/// the header starts arriving, header + body must complete within `budget`
/// — a slowloris peer trickling one byte per 29 s is disconnected instead
/// of pinning this worker forever. `Ok(None)` is clean EOF at a frame
/// boundary.
fn read_frame_deadline(
    stream: &mut TcpStream,
    timeout: &mut ReadTimeout,
    max_bytes: usize,
    budget: Duration,
) -> io::Result<Option<Vec<u8>>> {
    if chaos::should_fail("serve.socket_read") {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionReset,
            "injected fault at chaos failpoint serve.socket_read",
        ));
    }
    let deadline = Instant::now() + budget;
    let mut header = [0u8; 4];
    if !read_exact_deadline(stream, timeout, &mut header, deadline)? {
        return Ok(None);
    }
    let mut payload = vec![0u8; frame_len(header, max_bytes)?];
    if !read_exact_deadline(stream, timeout, &mut payload, deadline)? {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed between header and body",
        ));
    }
    Ok(Some(payload))
}

/// Serve one connection's request/response loop to completion.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut timeout = ReadTimeout { current: None };
    timeout.set(&stream, IDLE_POLL);
    let read_budget = Duration::from_millis(match shared.config.read_deadline_ms {
        0 => 30_000,
        ms => ms,
    });
    loop {
        if !await_frame(shared, &stream) {
            return;
        }
        // A frame is arriving: read it under the total per-request deadline
        // (a peer that trickles bytes mid-frame is broken, not idle).
        let max_bytes = shared.config.max_frame_bytes;
        let payload = match read_frame_deadline(&mut stream, &mut timeout, max_bytes, read_budget) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(_) => return, // oversized, truncated, or too-slow frame: unrecoverable
        };
        timeout.set(&stream, IDLE_POLL);

        // Admission axis 2: the in-flight byte budget.
        if !shared.reserve_inflight(payload.len()) {
            shared.metrics.rejected_bytes.inc();
            let busy = Response::Busy {
                reason: BusyReason::ByteBudget,
                retry_after_ms: shared.retry_after_ms(),
            }
            .encode_frame();
            if send_frame(&mut stream, &busy).is_err() {
                return;
            }
            continue;
        }

        let start = Instant::now();
        // Panic isolation: a panicking handler (engine bug, injected fault)
        // must not take the worker thread — and with it every queued
        // connection — down. The shared state is all locks and atomics, and
        // poisoned mutexes surface as panics on later requests rather than
        // silent corruption, so crossing the unwind boundary is sound.
        let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_request(shared, &payload)
        }));
        // Release AFTER the unwind boundary: a panicking request must not
        // leak its reservation and slowly strangle the byte budget.
        shared.release_inflight(payload.len());
        let (mut response, shutdown_after) = handled.unwrap_or_else(|_| {
            shared.metrics.panics.inc();
            (
                Response::Error {
                    message:
                        "internal error: request handler panicked; connection still serviceable"
                            .to_string(),
                },
                false,
            )
        });

        let service_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        if let Response::Answer { service_us: slot, .. } = &mut response {
            *slot = service_us;
        }
        // Count BEFORE writing the response: a client must never observe
        // its answer while the counters still miss it.
        shared.metrics.latency.observe(service_us);
        shared.metrics.served.inc();
        if matches!(response, Response::Error { .. }) {
            shared.metrics.errors.inc();
        }
        let write_ok = !chaos::should_fail("serve.socket_write")
            && send_frame(&mut stream, &response.encode_frame()).is_ok();
        if shutdown_after {
            shared.begin_shutdown();
            return;
        }
        if !write_ok {
            return;
        }
    }
}

/// Decode and dispatch one request. Returns the response and whether the
/// server should begin shutdown after sending it. Engine and parse errors
/// become typed `Error` responses. Malformed peer input never panics; a
/// panic that does escape this path (an engine bug, an injected fault) is
/// caught at the connection loop's `catch_unwind` boundary — the peer gets
/// a typed `Error`, `fj_serve_panics_total` increments, and the worker
/// keeps serving.
fn handle_request(shared: &Shared, payload: &[u8]) -> (Response, bool) {
    let request = match Request::decode(payload) {
        Ok(request) => request,
        Err(e) => return (Response::Error { message: e.to_string() }, false),
    };
    match request {
        Request::Prepare { query, aggregate } => (prepare(shared, &query, aggregate), false),
        Request::Execute { handle, params, request_id, deadline_ms } => {
            (execute(shared, handle, &params, request_id, deadline_ms), false)
        }
        Request::TraceExecute { handle, params, request_id, deadline_ms } => {
            (trace_execute(shared, handle, &params, request_id, deadline_ms), false)
        }
        Request::Cancel { request_id } => (cancel_inflight(shared, request_id), false),
        Request::TraceFetch { trace_id } => (fetch_trace(shared, trace_id), false),
        Request::Shutdown => (Response::Ok, true),
        Request::Metrics => (Response::Metrics { text: shared.metrics_text() }, false),
    }
}

/// Fire the cancel token of an in-flight execution by request id. The
/// counters increment where the execution actually unwinds (so a cancel
/// that lands after completion counts nothing).
fn cancel_inflight(shared: &Shared, request_id: u64) -> Response {
    let cancels = shared.inflight_cancels.lock().expect("cancel registry lock not poisoned");
    match cancels.get(&request_id) {
        Some(token) => {
            token.cancel(CancelReason::Explicit);
            Response::Ok
        }
        None => Response::Error {
            message: format!("no in-flight execution with request id {request_id}"),
        },
    }
}

/// RAII registration of an execution's cancel token under its request id:
/// constructed just before the engine runs, dropped on every exit path
/// (success, error, panic unwinding to the connection loop's
/// `catch_unwind`), so the cancel registry never leaks entries.
struct CancelRegistration<'a> {
    shared: &'a Shared,
    request_id: u64,
}

impl<'a> CancelRegistration<'a> {
    fn register(shared: &'a Shared, request_id: u64, token: &CancelToken) -> Option<Self> {
        if request_id == 0 || token.is_disabled() {
            return None;
        }
        shared
            .inflight_cancels
            .lock()
            .expect("cancel registry lock not poisoned")
            .insert(request_id, token.clone());
        Some(CancelRegistration { shared, request_id })
    }
}

impl Drop for CancelRegistration<'_> {
    fn drop(&mut self) {
        self.shared
            .inflight_cancels
            .lock()
            .expect("cancel registry lock not poisoned")
            .remove(&self.request_id);
    }
}

/// Map an engine error to its typed response, bumping the deadline /
/// cancellation counters when the execution unwound cooperatively.
fn typed_error(shared: &Shared, e: &EngineError) -> Response {
    if let EngineError::Query(QueryError::Cancelled { reason, .. }) = e {
        match reason {
            CancelReason::Deadline => shared.metrics.deadline_exceeded.inc(),
            _ => shared.metrics.cancellations.inc(),
        }
    }
    Response::Error { message: e.to_string() }
}

fn prepare(shared: &Shared, query_text: &str, aggregate: Aggregate) -> Response {
    let query: ConjunctiveQuery = match parse_query(query_text) {
        Ok(query) => query.with_aggregate(aggregate),
        Err(e) => return Response::Error { message: e.to_string() },
    };
    let prepared = match shared.session.prepare(&shared.catalog, &query) {
        Ok(prepared) => prepared,
        Err(e) => return Response::Error { message: e.to_string() },
    };
    let fingerprint = prepared.fingerprint();
    let mut registry = shared.prepared.write().expect("prepared registry lock not poisoned");
    let handle = match registry.find_identical(&prepared) {
        Some(existing) => existing,
        None => {
            let handle = shared.next_handle.fetch_add(1, Ordering::Relaxed);
            registry.insert(handle, Arc::new(prepared), shared.config.max_prepared);
            handle
        }
    };
    Response::Prepared { handle, fingerprint }
}

/// Resolve a handle and parse its parameter overrides, or produce the
/// typed `Error` response an execution returns on failure.
fn resolve(
    shared: &Shared,
    handle: u64,
    params: &[(String, String)],
) -> Result<(Arc<Prepared>, Params), Response> {
    let prepared = {
        let registry = shared.prepared.read().expect("prepared registry lock not poisoned");
        match registry.get(handle) {
            Some(prepared) => prepared,
            None => {
                return Err(Response::Error {
                    message: format!("unknown prepared handle {handle}"),
                })
            }
        }
    };
    let mut overrides = Params::new();
    for (alias, filter_text) in params {
        match parse_filter(filter_text) {
            Ok(filter) => overrides = overrides.with_filter(alias.clone(), filter),
            Err(e) => {
                return Err(Response::Error {
                    message: format!("parameter filter for {alias}: {e}"),
                })
            }
        }
    }
    Ok((prepared, overrides))
}

/// One answered execution: what the `Answer` frame carries, and the trace
/// when the execution recorded one.
struct Executed {
    cardinality: u64,
    tries_built: u64,
    stored: Option<StoredTrace>,
}

/// Run one execution of a prepared handle — the one call into the engine.
/// What the request asks of it is decided independently: the token from the
/// request's deadline and id (registered for `Cancel` frames while it
/// runs), always a profile (it must already exist by the time the execution
/// turns out to have been slow; the accumulators are flat per-node arrays,
/// so the overhead is a few percent, gated in CI by
/// `examples/instrument_overhead.rs`), a trace when `traced`. A traced execution's engine trace is wrapped in a
/// serve-layer lifecycle ring (request/decode/execute/respond spans), both
/// views are rendered and the result is retained in the trace ring. Every
/// completed execution is offered to the slow-query log with whatever it
/// collected; a cancelled one yields the typed error and no entry.
fn run_execute(
    shared: &Shared,
    handle: u64,
    params: &[(String, String)],
    request_id: u64,
    deadline_ms: u64,
    traced: bool,
) -> Result<Executed, Response> {
    let (prepared, overrides) = resolve(shared, handle, params)?;
    let token = shared.arm_token(request_id, deadline_ms);
    let _registration = CancelRegistration::register(shared, request_id, &token);
    let request = ExecRequest { params: overrides, token, profile: true, trace: traced };
    // The serve-layer lifecycle ring is built around the execution so its
    // timestamps stay monotone and the execute span has real extent. It is
    // appended AFTER the engine's session ring, so the canonical span tree
    // still renders from the query span; these spans only appear in the
    // Chrome timeline.
    let lifecycle = traced.then(|| {
        let mut tb = TraceBuf::with_capacity(8, SESSION_WORKER);
        tb.begin(TraceCat::Request, 0, handle, &[]);
        tb.instant(TraceCat::Decode, 0, params.len() as u64, &[]);
        tb.begin(TraceCat::Execute, 0, 0, &[]);
        tb
    });
    let start = Instant::now();
    let report = prepared
        .execute(&shared.catalog, &request)
        .map_err(|e| typed_error(shared, &e))?;
    let service_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let cardinality = report.output.cardinality();

    let stored = report.trace.zip(lifecycle).map(|(mut trace, mut tb)| {
        trace.trace_id = shared.next_trace_id.fetch_add(1, Ordering::Relaxed);
        shared.metrics.trace_events_dropped.add(trace.dropped_events());
        tb.end(TraceCat::Execute, 0, cardinality);
        tb.instant(TraceCat::Respond, 0, service_us, &[]);
        tb.end(TraceCat::Request, 0, cardinality);
        trace.attach(tb);
        let stored = StoredTrace {
            trace_id: trace.trace_id,
            cardinality,
            service_us,
            span_tree: trace.span_tree(),
            chrome_json: trace.to_chrome_json(),
        };
        shared.store_trace(stored.clone());
        stored
    });
    shared.note_slow_query(
        handle,
        prepared.fingerprint(),
        service_us,
        cardinality,
        report.profile.unwrap_or_default(),
        stored.as_ref().map(|t| t.trace_id),
    );
    Ok(Executed { cardinality, tries_built: report.stats.tries_built, stored })
}

fn execute(
    shared: &Shared,
    handle: u64,
    params: &[(String, String)],
    request_id: u64,
    deadline_ms: u64,
) -> Response {
    // `trace_sample_n` sampling: every Nth execute runs traced; the client
    // still gets a plain `Answer`, the rendered trace lands in the ring.
    let seq = shared.execute_seq.fetch_add(1, Ordering::Relaxed);
    let n = shared.config.trace_sample_n as u64;
    let sampled = n > 0 && seq.is_multiple_of(n);
    match run_execute(shared, handle, params, request_id, deadline_ms, sampled) {
        Ok(done) => Response::Answer {
            cardinality: done.cardinality,
            tries_built: done.tries_built,
            service_us: 0, // stamped by the connection loop, which owns the clock
        },
        Err(response) => response,
    }
}

fn trace_execute(
    shared: &Shared,
    handle: u64,
    params: &[(String, String)],
    request_id: u64,
    deadline_ms: u64,
) -> Response {
    match run_execute(shared, handle, params, request_id, deadline_ms, true) {
        Ok(done) => trace_response(done.stored.expect("a traced execution stores its trace")),
        Err(response) => response,
    }
}

fn trace_response(stored: StoredTrace) -> Response {
    Response::Trace {
        trace_id: stored.trace_id,
        cardinality: stored.cardinality,
        service_us: stored.service_us,
        span_tree: stored.span_tree,
        chrome_json: stored.chrome_json,
    }
}

fn fetch_trace(shared: &Shared, trace_id: u64) -> Response {
    match shared.find_trace(trace_id) {
        Some(stored) => trace_response(stored),
        None => Response::Error { message: format!("unknown or evicted trace id {trace_id}") },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_shared(catalog: Catalog, config: ServerConfig) -> Shared {
        let session = Session::new(Arc::new(free_join::EngineCaches::with_defaults()));
        Shared::new(session, Arc::new(catalog), config, "127.0.0.1:0".parse().unwrap())
    }

    #[test]
    fn config_defaults_and_worker_resolution() {
        let config = ServerConfig::default();
        assert!(config.effective_workers() >= 1);
        assert_eq!(ServerConfig { workers: 3, ..config }.effective_workers(), 3);
        assert!(config.queue_capacity > 0);
        assert!(config.max_frame_bytes <= crate::protocol::MAX_FRAME_BYTES);
        assert!(config.slow_query_us > 0);
    }

    /// However high `max_frame_bytes` is set, a header announcing more than
    /// `MAX_FRAME_BYTES` is refused at once — nothing is allocated for it and
    /// the body is not waited for.
    #[test]
    fn a_raised_frame_limit_still_refuses_more_than_the_hard_cap() {
        use std::io::Write;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let just_over = u32::try_from(crate::protocol::MAX_FRAME_BYTES + 1).unwrap();
        peer.write_all(&just_over.to_be_bytes()).unwrap();
        let budget = Duration::from_secs(10);
        let started = Instant::now();
        let mut timeout = ReadTimeout { current: None };
        let err = read_frame_deadline(&mut stream, &mut timeout, usize::MAX, budget).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(started.elapsed() < budget, "refused without waiting for a body");
    }

    #[test]
    fn prepared_registry_dedupes_identical_and_evicts_fifo_beyond_cap() {
        use fj_query::QueryBuilder;
        use fj_storage::{CmpOp, Predicate, RelationBuilder, Schema};
        use free_join::EngineCaches;

        let mut catalog = Catalog::new();
        let mut r = RelationBuilder::new("r", Schema::all_int(&["a", "b"]));
        for i in 0..10i64 {
            r.push_ints(&[i, i + 1]).unwrap();
        }
        catalog.add(r.finish()).unwrap();
        let session = Session::new(Arc::new(EngineCaches::with_defaults()));
        let prepare = |cutoff: i64| {
            let q = QueryBuilder::new("q")
                .atom("r", &["x", "y"])
                .filter_last(Predicate::cmp_const("a", CmpOp::Lt, cutoff))
                .count()
                .build();
            Arc::new(session.prepare(&catalog, &q).unwrap())
        };

        let mut registry = PreparedRegistry::default();
        let first = prepare(1);
        registry.insert(1, Arc::clone(&first), 3);
        // An identical query is found; a different-filter one is not.
        assert_eq!(registry.find_identical(&first), Some(1));
        assert_eq!(registry.find_identical(&prepare(99)), None);

        // Cap 3: inserting handles 2..=4 evicts handle 1, oldest first.
        for (handle, cutoff) in [(2, 2), (3, 3), (4, 4)] {
            registry.insert(handle, prepare(cutoff), 3);
        }
        assert!(registry.get(1).is_none(), "oldest handle evicted at cap");
        assert!(registry.get(2).is_some() && registry.get(4).is_some());
        assert_eq!(registry.by_handle.len(), 3);
        assert_eq!(registry.find_identical(&first), None, "evicted entries are gone");
    }

    #[test]
    fn inflight_budget_reserve_and_release() {
        let shared = test_shared(
            Catalog::new(),
            ServerConfig { inflight_byte_budget: 100, ..ServerConfig::default() },
        );
        assert!(shared.reserve_inflight(60));
        assert!(!shared.reserve_inflight(50), "60 + 50 > 100");
        assert!(shared.reserve_inflight(40));
        shared.release_inflight(60);
        assert!(shared.reserve_inflight(50), "release frees budget");
        assert!(!shared.reserve_inflight(usize::MAX), "overflow is a rejection, not a wrap");

        // The retry-after hint: 1 ms floor on a cold server, and it scales
        // with queue depth × the recent p50 service time.
        assert_eq!(shared.retry_after_ms(), 1, "cold server floors the hint at 1 ms");
        for _ in 0..100 {
            shared.metrics.latency.observe(10_000); // p50 ≈ 10 ms
        }
        let idle = shared.retry_after_ms();
        assert!(idle >= 10, "idle hint covers one p50 service time, got {idle}");
        shared.queued.store(5, Ordering::Relaxed);
        let queued = shared.retry_after_ms();
        assert!(queued >= 6 * idle / 2, "depth multiplies the hint: {idle} -> {queued}");
    }

    #[test]
    fn slow_query_ring_is_bounded_and_feeds_the_metrics_text() {
        use fj_query::QueryBuilder;
        use fj_storage::{RelationBuilder, Schema};

        let mut catalog = Catalog::new();
        let mut r = RelationBuilder::new("r", Schema::all_int(&["a", "b"]));
        for i in 0..16i64 {
            r.push_ints(&[i % 4, (i + 1) % 4]).unwrap();
        }
        catalog.add(r.finish()).unwrap();
        // Threshold 0 µs: every execution is "slow".
        let config = ServerConfig { slow_query_us: 0, ..Default::default() };
        let shared = test_shared(catalog, config);
        let query = QueryBuilder::new("q")
            .atom_as("r", "r1", &["x", "y"])
            .atom_as("r", "r2", &["y", "z"])
            .count()
            .build();
        let prepared = shared.session.prepare(&shared.catalog, &query).unwrap();
        shared.prepared.write().unwrap().insert(7, Arc::new(prepared), 8);

        for _ in 0..SLOW_QUERY_LOG + 1 {
            let response = execute(&shared, 7, &[], 0, 0);
            assert!(matches!(response, Response::Answer { cardinality: 64, .. }), "{response:?}");
        }
        assert_eq!(shared.metrics.slow_queries.get(), SLOW_QUERY_LOG as u64 + 1);
        let log = shared.slow_queries.lock().unwrap();
        assert_eq!(log.len(), SLOW_QUERY_LOG, "ring keeps only the most recent entries");
        assert!(log.iter().all(|e| e.cardinality == 64 && e.profile.total_probes() > 0));
        drop(log);

        let text = shared.metrics_text();
        let slow_total = format!("fj_serve_slow_queries_total {}\n", SLOW_QUERY_LOG + 1);
        assert!(text.contains(&slow_total), "{text}");
        assert!(text.contains("fj_serve_uptime_seconds "), "{text}");
        assert!(text.contains("fj_obs_trace_events_dropped_total 0"), "{text}");
        assert!(
            text.contains(&format!("fj_build_info{{version=\"{}\"}} 1", env!("CARGO_PKG_VERSION"))),
            "{text}"
        );
        assert!(text.contains("fj_serve_requests_served 0"), "registry renders all counters");
        assert!(text.contains("fj_cache_plan_misses 1\n"), "the session's cells are bound: {text}");
        assert!(text.contains("fj_cache_plan_entries 1\n"), "gauges are summed at scrape: {text}");
        assert!(text.contains("fj_sched_tasks_spawned "), "{text}");
        assert!(text.contains("# slow_query handle=7"), "{text}");
        assert!(text.contains("# pipeline"), "profile rendered as comment lines");

        // The trace ring is bounded the same way: the oldest trace is
        // evicted, the newest ones stay fetchable.
        let ids: Vec<u64> = (0..TRACE_RING + 1)
            .map(|_| match trace_execute(&shared, 7, &[], 0, 0) {
                Response::Trace { trace_id, cardinality: 64, .. } => trace_id,
                other => panic!("expected a trace, got {other:?}"),
            })
            .collect();
        assert_eq!(shared.traces.lock().unwrap().len(), TRACE_RING);
        assert!(shared.find_trace(ids[0]).is_none(), "the oldest trace is evicted");
        assert!(ids[1..].iter().all(|&id| shared.find_trace(id).is_some()));
    }

    /// The two kinds of request an operator most wants in the slow-query
    /// log: one under a deadline (or a request id) that *completes* slowly
    /// is logged with its profile like any other, and a sampled traced one
    /// carries a real profile next to its trace id. A request its deadline
    /// cancels yields the typed error and no entry.
    #[test]
    fn deadlined_and_traced_requests_reach_the_slow_query_log_with_a_profile() {
        use fj_query::QueryBuilder;
        use fj_storage::{RelationBuilder, Schema};
        use free_join::{EngineCaches, FreeJoinOptions};

        // One hub key under 1200 rows: enumerated (pruning off), the
        // self-join emits 1.44M product rows, far more than a 1 ms deadline
        // leaves time for.
        let mut catalog = Catalog::new();
        let mut r = RelationBuilder::new("r", Schema::all_int(&["a", "b"]));
        for i in 0..1200i64 {
            r.push_ints(&[0, i]).unwrap();
        }
        catalog.add(r.finish()).unwrap();
        let config =
            ServerConfig { slow_query_us: 0, trace_sample_n: 2, ..ServerConfig::default() };
        let session = Session::new(Arc::new(EngineCaches::with_defaults())).with_options(
            FreeJoinOptions::default().with_num_threads(1).with_factorized_output(false),
        );
        let shared =
            Shared::new(session, Arc::new(catalog), config, "127.0.0.1:0".parse().unwrap());
        let query = QueryBuilder::new("q")
            .atom_as("r", "r1", &["x", "y"])
            .atom_as("r", "r2", &["x", "z"])
            .count()
            .build();
        let prepared = shared.session.prepare(&shared.catalog, &query).unwrap();
        shared.prepared.write().unwrap().insert(7, Arc::new(prepared), 8);

        // Sequence 0 is sampled: traced, deadlined, completes.
        let response = execute(&shared, 7, &[], 41, 600_000);
        assert!(
            matches!(response, Response::Answer { cardinality: 1_440_000, .. }),
            "{response:?}"
        );
        // Sequence 1: a deadline it cannot meet.
        match execute(&shared, 7, &[], 0, 1) {
            Response::Error { message } => assert!(message.contains("deadline"), "{message}"),
            other => panic!("expected the typed deadline error, got {other:?}"),
        }
        assert_eq!(shared.metrics.deadline_exceeded.get(), 1);
        // Sequence 2 is sampled again, without a token; sequence 3 is plain.
        for _ in 0..2 {
            let response = execute(&shared, 7, &[], 0, 0);
            assert!(matches!(response, Response::Answer { .. }), "{response:?}");
        }

        let log = shared.slow_queries.lock().unwrap();
        assert_eq!(log.len(), 3, "every completed execution, not the cancelled one");
        assert!(log.iter().all(|e| e.cardinality == 1_440_000 && e.profile.total_probes() > 0));
        let traced: Vec<bool> = log.iter().map(|e| e.trace_id.is_some()).collect();
        assert_eq!(traced, [true, true, false]);
        assert!(shared.inflight_cancels.lock().unwrap().is_empty(), "registrations are dropped");
    }
}
