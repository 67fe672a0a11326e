//! Fault-injection tests for the serving path: every degradation mode the
//! robustness layer promises is demonstrated end to end over loopback TCP —
//! deadlines firing mid-join with partial stats, explicit cancellation by
//! request id, injected panics that the worker survives, and injected
//! socket faults that surface as typed client errors with retries
//! succeeding afterwards. The last test is in process: a bushy plan's
//! pipeline that faults or is cancelled while concurrent requests wait for
//! its result.
//!
//! The chaos failpoint registry is process-global, so every test (including
//! the ones that arm nothing and must not become victims of another test's
//! armed panic) serializes on one mutex.

mod common;

use freejoin::engine::EngineError;
use freejoin::obs::chaos::{self, ChaosAction};
use freejoin::prelude::*;
use freejoin::query::QueryError;
use freejoin::serve::{Client, ClientError, ExecuteOpts, ServerConfig};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: the chaos registry and its armed
/// failpoints are process-global state.
fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A panicking test poisons the mutex without invalidating the registry
    // (tests disarm on their own exit paths); keep the suite running.
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A star query whose single hub key cross-products into `rows`³ counted
/// tuples — ~1 s of single-threaded work at `rows = 200` in debug builds,
/// long enough that a deadline or cancel frame reliably lands mid-join.
fn long_workload(rows: usize) -> freejoin::workloads::Workload {
    freejoin::workloads::micro::star(2, rows, 1, 0.0, 1)
}

fn start_server(catalog: Arc<Catalog>, config: ServerConfig) -> freejoin::serve::Server {
    // Dead-variable pruning off: with it the star's count is one probe per
    // hub key and finishes in microseconds; these tests need a join that is
    // still enumerating when the deadline or the cancel frame arrives.
    let session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1).with_factorized_output(false));
    freejoin::serve::Server::start("127.0.0.1:0", catalog, session, config)
        .expect("server binds an ephemeral loopback port")
}

/// A per-request deadline fires mid-join: the client gets a typed error
/// naming the deadline and carrying partial progress (probes already done),
/// the execution stops far short of its natural runtime, and
/// `fj_serve_deadline_exceeded_total` increments.
#[test]
fn deadline_fires_mid_join_with_partial_stats() {
    let _guard = chaos_lock();
    let workload = long_workload(200);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server = start_server(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();

    let start = Instant::now();
    let opts = ExecuteOpts { request_id: 0, deadline_ms: 50 };
    let message = match client.execute_opts(handle, &[], opts) {
        Err(ClientError::Server(message)) => message,
        other => panic!("expected a typed deadline error, got {other:?}"),
    };
    let elapsed = start.elapsed();
    assert!(message.contains("deadline exceeded"), "{message}");
    // Partial stats ride the error: the join had made real progress.
    let probes: u64 = message
        .split("after ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("the cancelled error reports partial probe counts");
    assert!(probes > 0, "deadline fired mid-join, after some probes: {message}");
    // The full query takes ~1 s; a 50 ms deadline must stop it way before.
    assert!(elapsed < Duration::from_millis(700), "cancelled promptly, not at completion");

    // The same connection and handle still work (with a roomy deadline).
    let answer = client
        .execute_opts(handle, &[], ExecuteOpts { request_id: 0, deadline_ms: 600_000 })
        .expect("execution with a roomy deadline completes");
    assert_eq!(answer.cardinality, 8_000_000);

    let text = client.metrics().unwrap();
    assert!(text.contains("fj_serve_deadline_exceeded_total 1"), "{text}");
    assert!(text.contains("fj_serve_cancellations_total 0"), "{text}");
    client.shutdown_server().unwrap();
    server.join();
}

/// An `OP_CANCEL` frame from a second connection stops a long in-flight
/// query by request id: the issuer gets a typed cancelled-by-caller error
/// promptly, and `fj_serve_cancellations_total` increments.
#[test]
fn cancel_frame_stops_a_long_query() {
    let _guard = chaos_lock();
    let workload = long_workload(250);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    // Two workers: one runs the long query, the other serves the canceller.
    let server =
        start_server(Arc::clone(&catalog), ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();

    const REQUEST_ID: u64 = 42;
    let start = Instant::now();
    let runner = std::thread::spawn(move || {
        let result = client.execute_opts(
            handle,
            &[],
            ExecuteOpts { request_id: REQUEST_ID, deadline_ms: 0 },
        );
        (client, result, start.elapsed())
    });

    // Cancel from a second connection, retrying until the execution has
    // actually registered (a cancel for an unknown id is a typed error).
    let mut canceller = Client::connect(addr).unwrap();
    let mut cancelled = false;
    for _ in 0..500 {
        match canceller.cancel(REQUEST_ID) {
            Ok(()) => {
                cancelled = true;
                break;
            }
            Err(ClientError::Server(m)) => {
                assert!(m.contains("no in-flight execution"), "{m}");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected cancel failure: {other}"),
        }
    }
    assert!(cancelled, "the cancel frame found the in-flight execution");

    let (mut client, result, elapsed) = runner.join().expect("runner thread completes");
    let message = match result {
        Err(ClientError::Server(message)) => message,
        other => panic!("expected a typed cancellation error, got {other:?}"),
    };
    assert!(message.contains("cancelled by caller"), "{message}");
    // rows = 250 runs ~2 s uncancelled; the cancel must cut that short.
    assert!(elapsed < Duration::from_millis(1_500), "cancel landed mid-join ({elapsed:?})");

    // The request id is gone from the registry: cancelling again misses.
    assert!(matches!(canceller.cancel(REQUEST_ID), Err(ClientError::Server(_))));
    let text = client.metrics().unwrap();
    assert!(text.contains("fj_serve_cancellations_total 1"), "{text}");
    client.shutdown_server().unwrap();
    server.join();
}

/// An injected panic inside the engine (a trie build blowing up) is caught
/// at the worker's unwind boundary: the peer gets a typed error, the worker
/// keeps serving on the same connection, `fj_serve_panics_total`
/// increments, and the panicked request's in-flight bytes are released —
/// proven by running under a budget with room for exactly one request.
#[test]
fn injected_panic_leaves_the_server_serving() {
    let _guard = chaos_lock();
    let workload = freejoin::workloads::micro::clover(50);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    // A budget a few requests wide: if panicked requests leaked their
    // reservations, the later executions below would shed with ByteBudget.
    let server = start_server(
        Arc::clone(&catalog),
        ServerConfig { workers: 1, inflight_byte_budget: 64, ..ServerConfig::default() },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();

    // Arm the failpoint for exactly one hit: the cold execution's trie
    // build panics, everything after runs clean.
    chaos::arm_times("session.trie_build", ChaosAction::Panic, 1);
    match client.execute(handle) {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("panicked"), "{message}");
            assert!(message.contains("still serviceable"), "{message}");
        }
        other => panic!("expected a typed panic error, got {other:?}"),
    }
    assert_eq!(chaos::hits("session.trie_build"), 1);

    // Same connection, same worker: the server is still serving, and the
    // budget has its bytes back (three more requests fit through it).
    for _ in 0..3 {
        let answer = client.execute(handle).expect("the worker survived the panic");
        assert_eq!(answer.cardinality, 1, "clover joins to its single hub tuple");
    }
    let text = client.metrics().unwrap();
    assert!(text.contains("fj_serve_panics_total 1"), "{text}");
    assert!(text.contains("fj_serve_rejected_byte_budget 0"), "{text}");
    client.shutdown_server().unwrap();
    server.join();
}

/// Every `(begin, end)` of the spans of category `cat` whose begin carries
/// `arg`, in microseconds, from a Chrome trace as `fetch_trace` returns it.
fn spans_us(chrome_json: &str, cat: &str, arg: u64) -> Vec<(f64, f64)> {
    let field = |event: &str, key: &str| -> String {
        let rest = &event[event.find(key).expect("every event has the field") + key.len()..];
        rest[..rest.find([',', '}']).expect("a field ends")]
            .trim_matches('"')
            .to_string()
    };
    let (mut open, mut spans) = (None, Vec::new());
    let events = chrome_json.split("{\"name\":").skip(1);
    for event in events.filter(|event| field(event, "\"cat\":") == cat) {
        let ts: f64 = field(event, "\"ts\":").parse().expect("a timestamp");
        match field(event, "\"ph\":").as_str() {
            "B" if field(event, "\"arg\":") == arg.to_string() => open = Some(ts),
            "E" => spans.extend(open.take().map(|begin| (begin, ts))),
            _ => {}
        }
    }
    spans
}

/// The scripted diagnosis, trie-build half: one request is slow because a
/// trie build stalled (a `delay:` failpoint), and the layer is named from
/// what the server itself reports — the `Metrics` text and the sampled
/// trace fetched by the id the slow-query log quotes — with no engine
/// handle and no added print. The metrics say a request was slow and how
/// slow; the slow-query entry's profile says the join was not it; the
/// trace says which trie fetch built, and for how long.
#[test]
fn a_stalled_trie_build_is_diagnosed_from_metrics_and_trace() {
    const STALL_MS: u64 = 40;
    let _guard = chaos_lock();
    let workload = freejoin::workloads::micro::clover(50);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server = start_server(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 1,
            slow_query_us: STALL_MS * 1_000 / 2,
            trace_sample_n: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let before = MetricsSnapshot::parse(&client.metrics().unwrap());

    chaos::arm_times("session.trie_build", ChaosAction::DelayMs(STALL_MS), 1);
    assert_eq!(client.execute(handle).unwrap().cardinality, 1);
    // Forget the hit too: other tests count theirs on the same failpoint.
    chaos::disarm_all();

    // 1. Metrics: exactly one slow query, and the latency histogram gained
    //    an observation of at least the stall.
    let text = client.metrics().unwrap();
    let window = MetricsSnapshot::parse(&text).delta(&before);
    assert_eq!(window.get("fj_serve_slow_queries_total"), 1, "{text}");
    assert!(window.quantile("fj_serve_latency_us", 1.0) >= STALL_MS * 1_000, "{text}");

    // 2. The slow-query log: the entry, its service time, its trace id, and
    //    the wall time of its first plan node — inclusive of the nodes below
    //    it, on a one-thread session: all of the join.
    let mut lines = text.lines().skip_while(|line| !line.starts_with("# slow_query "));
    let entry = lines.next().unwrap_or_else(|| panic!("no slow-query entry in {text}"));
    let value = |key: &str| -> u64 {
        let word = entry.split(' ').find_map(|word| word.strip_prefix(key));
        word.and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {entry}"))
    };
    let (service_us, trace_id) = (value("service_us="), value("trace_id="));
    let node0 = lines.find(|line| line.contains("node 0:")).expect("the entry has a profile");
    let join_ms: f64 = (node0.rsplit_once("time=").and_then(|(_, t)| t.strip_suffix("ms")))
        .and_then(|t| t.parse().ok())
        .unwrap_or_else(|| panic!("no node time in {node0}"));
    assert!(service_us >= STALL_MS * 1_000, "{entry}");
    assert!(
        join_ms * 1e3 < (service_us - STALL_MS * 1_000) as f64,
        "the join is not the culprit: {join_ms} ms of {service_us} us"
    );

    // 3. The trace: of the fetches this execution built, one took the stall.
    let trace = client.fetch_trace(trace_id).expect("the sampled trace is still in the ring");
    assert!(trace.span_tree.contains("trie_fetch input=0 built"), "{}", trace.span_tree);
    let built = spans_us(&trace.chrome_json, "trie_fetch", 1);
    let longest = built.iter().map(|(begin, end)| end - begin).fold(0.0, f64::max);
    assert!(longest >= (STALL_MS * 1_000) as f64, "built fetches: {built:?}");
    assert!(spans_us(&trace.chrome_json, "trie_fetch", 0).is_empty(), "a cold run hits nothing");

    client.shutdown_server().unwrap();
    server.join();
}

/// Injected socket faults (a failed read, a failed response write) surface
/// as typed I/O-level client errors — never hangs, never corrupt frames —
/// and [`Client::execute_retry`] reconnects and succeeds afterwards. A
/// chaos-injected engine fault (`Fail`, not `Panic`) likewise comes back as
/// a typed server error naming the failpoint.
#[test]
fn injected_socket_faults_are_typed_and_retries_succeed() {
    let _guard = chaos_lock();
    let workload = freejoin::workloads::micro::clover(50);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server =
        start_server(Arc::clone(&catalog), ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let expected = client.execute(handle).unwrap().cardinality;

    // A server-side read fault: the connection drops mid-request; the retry
    // helper reconnects and the re-issued request succeeds.
    chaos::arm_times("serve.socket_read", ChaosAction::Fail, 1);
    let answer = client.execute_retry(handle, &[], 3).expect("retry recovers from a read fault");
    assert_eq!(answer.cardinality, expected);
    assert_eq!(chaos::hits("serve.socket_read"), 1);

    // A server-side write fault: the request executes but its response is
    // lost and the connection closes; the retry reconnects and succeeds.
    chaos::arm_times("serve.socket_write", ChaosAction::Fail, 1);
    let answer = client.execute_retry(handle, &[], 3).expect("retry recovers from a write fault");
    assert_eq!(answer.cardinality, expected);
    assert_eq!(chaos::hits("serve.socket_write"), 1);

    // Without the retry helper the same faults are *typed* client errors.
    chaos::arm_times("serve.socket_read", ChaosAction::Fail, 1);
    match client.execute(handle) {
        Err(ClientError::Io(_) | ClientError::Disconnected) => {}
        other => panic!("expected a typed I/O failure, got {other:?}"),
    }
    client.reconnect().unwrap();

    // An engine-level injected fault (cache fetch) is a typed server error
    // naming the failpoint, and the connection survives it.
    chaos::arm_times("session.trie_fetch", ChaosAction::Fail, 1);
    match client.execute(handle) {
        Err(ClientError::Server(m)) => assert!(m.contains("session.trie_fetch"), "{m}"),
        other => panic!("expected a typed injected-fault error, got {other:?}"),
    }
    assert_eq!(client.execute(handle).unwrap().cardinality, expected);

    client.shutdown_server().unwrap();
    server.join();
}

/// A bushy plan's intermediate is built single-flight inside the trie cache.
/// A build that faults, or whose request is cancelled while its pipeline
/// runs, inserts nothing: the requests waiting for it recompute and answer
/// correctly, the next request finds their entry, and the cache stays
/// within its budget throughout.
#[test]
fn a_failed_pipeline_is_never_cached_and_its_waiters_recompute() {
    let _guard = chaos_lock();
    // `A(a,b), B(b,c), C(c,d), D(d,e)` over one graph: joined as two pairs.
    let catalog = common::catalog_of(common::chain_relations(1));
    let query = common::chain_query(&["a", "e"]).with_aggregate(Aggregate::Count);
    let options = FreeJoinOptions::default().with_num_threads(1);
    let (reference, _) = FreeJoinEngine::new(options)
        .plan_and_execute(&catalog, &query, OptimizerOptions::default())
        .unwrap();

    let budget = 1 << 20;
    let caches = Arc::new(EngineCaches::new(budget, 16));
    let session = Session::new(Arc::clone(&caches)).with_options(options);
    let prepared = session.prepare(&catalog, &query).unwrap();
    assert_eq!(prepared.num_pipelines(), 2, "a bushy plan");
    let execute = |token: CancelToken| {
        let result = prepared.execute(&catalog, &ExecRequest { token, ..ExecRequest::default() });
        let tries = caches.tries();
        assert!(tries.resident_bytes() <= budget as u64, "{} > {budget}", tries.resident_bytes());
        result.map(|report| (report.output, report.stats))
    };
    const SITE: &str = "session.pipe_build";
    let hits = chaos::hits(SITE);

    // A fault alone: a typed error naming the failpoint, and no entry.
    chaos::arm_times(SITE, ChaosAction::Fail, 1);
    match execute(CancelToken::disabled()) {
        Err(EngineError::Faulted(site)) => assert_eq!(site, SITE),
        other => panic!("expected the injected fault, got {other:?}"),
    }
    assert_eq!((chaos::hits(SITE), caches.stats().pipe_misses), (hits + 1, 0));

    // The builder stalls inside the single-flight build while its request
    // is cancelled and three identical requests arrive; once the stall ends
    // its pipeline sees the fired token at its first poll.
    chaos::arm_times(SITE, ChaosAction::DelayMs(300), 1);
    let token = CancelToken::new();
    std::thread::scope(|scope| {
        let cancelled = scope.spawn(|| execute(token.clone()));
        while chaos::hits(SITE) < hits + 2 {
            std::thread::yield_now();
        }
        token.cancel(CancelReason::Explicit);
        let waiters: Vec<_> =
            (0..3).map(|_| scope.spawn(|| execute(CancelToken::disabled()))).collect();
        match cancelled.join().unwrap() {
            Err(EngineError::Query(QueryError::Cancelled { reason, .. })) => {
                assert_eq!(reason, CancelReason::Explicit)
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        for waiter in waiters {
            let (output, _) = waiter.join().unwrap().expect("a waiter recomputes");
            assert!(output.result_eq(&reference));
        }
    });
    let stats = caches.stats();
    assert_eq!((stats.pipe_misses, stats.pipe_hits), (1, 2), "one waiter ran the pipeline");

    // What the waiters left is a complete entry.
    let (output, warm) = execute(CancelToken::disabled()).unwrap();
    assert!(output.result_eq(&reference));
    assert_eq!((warm.intermediate_tuples, warm.tries_built), (0, 0), "{warm}");
    assert_eq!(caches.stats().pipe_misses, 1);
}
