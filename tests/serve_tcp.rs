//! Integration tests for the fj-serve networked serving path: loopback
//! TCP, concurrent clients, admission control, and graceful shutdown.

use freejoin::prelude::*;
use freejoin::serve::protocol::{read_frame, write_frame};
use freejoin::serve::{BusyReason, Client, ClientError, Response, ServerConfig};
use freejoin::workloads::job::{self, JobConfig};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn serving_session() -> Session {
    // One worker thread per request execution; determinism and no
    // oversubscription against the server's own worker pool.
    Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1))
}

/// Scrape the `Metrics` frame into the name -> value reader.
fn scrape(client: &mut Client) -> Result<MetricsSnapshot, ClientError> {
    client.metrics().map(|text| MetricsSnapshot::parse(&text))
}

fn start_server(catalog: Arc<Catalog>, config: ServerConfig) -> freejoin::serve::Server {
    freejoin::serve::Server::start("127.0.0.1:0", catalog, serving_session(), config)
        .expect("server binds an ephemeral loopback port")
}

/// 8 concurrent clients over real loopback sockets must see exactly the
/// answers a single-threaded in-process `Session` computes, on every
/// iteration, for every query — and the warm traffic must build nothing.
#[test]
fn concurrent_loopback_clients_match_single_threaded_session() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let queries: Vec<_> = workload.queries.iter().take(4).collect();

    // Reference answers from a plain single-threaded session.
    let reference_session = serving_session();
    let reference: Vec<u64> = queries
        .iter()
        .map(|named| {
            let prepared = reference_session.prepare(&catalog, &named.query).unwrap();
            prepared
                .execute(&catalog, &ExecRequest::default())
                .unwrap()
                .output
                .cardinality()
        })
        .collect();

    let server = start_server(
        Arc::clone(&catalog),
        ServerConfig { workers: 8, queue_capacity: 16, ..ServerConfig::default() },
    );
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    const ITERATIONS: usize = 10;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let (queries, reference) = (&queries, &reference);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let handles: Vec<_> = queries
                    .iter()
                    .map(|named| {
                        client
                            .prepare(named.query.to_string(), named.query.aggregate.clone())
                            .expect("query text round-trips through the wire and parser")
                    })
                    .collect();
                for _ in 0..ITERATIONS {
                    for (handle, &expected) in handles.iter().zip(reference) {
                        let answer = client.execute(*handle).expect("execution succeeds");
                        assert_eq!(
                            answer.cardinality, expected,
                            "served answer diverged from the in-process session"
                        );
                    }
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let stats = scrape(&mut client).unwrap();
    let rejected =
        stats.get("fj_serve_rejected_queue_full") + stats.get("fj_serve_rejected_byte_budget");
    assert_eq!(rejected, 0, "nothing was shed below the admission limits");
    assert_eq!(stats.get("fj_serve_request_errors"), 0);
    let served = stats.get("fj_serve_requests_served");
    assert!(served >= (CLIENTS * ITERATIONS * queries.len()) as u64);
    assert!(stats.get("fj_cache_trie_hits") > 0, "warm traffic was cache-served");
    let latency = |q| stats.quantile("fj_serve_latency_us", q);
    assert!(latency(0.99) >= latency(0.50) && latency(0.50) > 0);
    // All 8 clients prepared the same 4 shapes: 4 compiles, the rest hits.
    assert_eq!(stats.get("fj_cache_plan_misses") as usize, queries.len());
    client.shutdown_server().unwrap();
    server.join();
}

/// A queue-capacity-1 server sheds the connection that overflows the
/// pending queue with a typed `Busy(QueueFull)` — and serves new arrivals
/// again once the queue drains.
#[test]
fn queue_capacity_one_sheds_bursts_and_recovers_after_drain() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server = start_server(
        Arc::clone(&catalog),
        ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() },
    );
    let addr = server.local_addr();

    // A occupies the single worker (a served round-trip proves the worker,
    // not the queue, owns this connection).
    let mut client_a = Client::connect(addr).unwrap();
    let handle = client_a
        .prepare(named.query.to_string(), named.query.aggregate.clone())
        .unwrap();
    let expected = client_a.execute(handle).unwrap().cardinality;

    // B fills the queue slot (the acceptor admits it in arrival order)...
    let client_b = TcpStream::connect(addr).unwrap();
    // ...so C overflows: the acceptor answers Busy(QueueFull) — with a
    // nonzero retry-after hint derived from the queue depth and recent p50
    // service time — and closes.
    let mut client_c = Client::connect(addr).unwrap();
    match scrape(&mut client_c) {
        Err(ClientError::Busy { reason: BusyReason::QueueFull, retry_after_ms }) => {
            assert!(retry_after_ms > 0, "the retry-after hint is never zero");
        }
        other => panic!("expected Busy(QueueFull), got {other:?}"),
    }

    // Drain: A and B hang up, freeing the worker and the queue slot.
    drop(client_a);
    drop(client_b);

    // Recovery: a fresh client gets served end to end. The worker needs a
    // moment to notice A's EOF and pop B; retry briefly rather than sleep.
    let mut recovered = None;
    for _ in 0..100 {
        let mut client = Client::connect(addr).unwrap();
        match client.prepare(named.query.to_string(), named.query.aggregate.clone()) {
            Ok(handle) => {
                recovered = Some((client, handle));
                break;
            }
            Err(ClientError::Busy { .. })
            | Err(ClientError::Disconnected)
            | Err(ClientError::Io(_)) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error while recovering: {other}"),
        }
    }
    let (mut client, handle) = recovered.expect("server recovered after the queue drained");
    assert_eq!(client.execute(handle).unwrap().cardinality, expected);
    let stats = scrape(&mut client).unwrap();
    assert!(
        stats.get("fj_serve_rejected_queue_full") >= 1,
        "the burst connection was counted as shed"
    );

    client.shutdown_server().unwrap();
    server.join();
}

/// The in-flight byte budget sheds oversized requests with
/// `Busy(ByteBudget)` while keeping the connection usable, and small
/// requests keep flowing.
#[test]
fn byte_budget_sheds_oversized_requests_without_killing_the_connection() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server = start_server(
        Arc::clone(&catalog),
        ServerConfig {
            workers: 2,
            inflight_byte_budget: 512,
            max_frame_bytes: 1 << 16,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let expected = client.execute(handle).unwrap().cardinality;

    // A parameter filter large enough to blow the 512-byte budget on its
    // own (the frame is rejected before the filter text is even parsed).
    let huge_filter = "company < 1 and ".repeat(200) + "company < 1";
    match client.execute_with(handle, &[("title", &huge_filter)]) {
        Err(ClientError::Busy { reason: BusyReason::ByteBudget, retry_after_ms }) => {
            assert!(retry_after_ms > 0, "byte-budget sheds carry the retry hint too");
        }
        other => panic!("expected Busy(ByteBudget), got {other:?}"),
    }

    // The same connection still serves normal requests afterwards.
    assert_eq!(client.execute(handle).unwrap().cardinality, expected);
    let stats = scrape(&mut client).unwrap();
    assert_eq!(stats.get("fj_serve_rejected_byte_budget"), 1);

    client.shutdown_server().unwrap();
    server.join();
}

/// Parameterized execution over the wire: filters override per execution,
/// match the in-process `Params` path, and bad input comes back as typed
/// server errors rather than hangs or closed sockets.
#[test]
fn wire_params_and_typed_errors() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let alias = named.query.atoms[0].alias.clone();
    let relation = catalog.get(&named.query.atoms[0].relation).unwrap();
    let column = relation.schema().names().first().map(|s| s.to_string()).unwrap();

    // In-process reference with the same override.
    let session = serving_session();
    let prepared = session.prepare(&catalog, &named.query).unwrap();
    let filter_text = format!("{column} >= 0");
    let params = Params::new()
        .with_filter(alias.clone(), freejoin::query::parse_filter(&filter_text).unwrap());
    let request = ExecRequest { params, ..ExecRequest::default() };
    let expected = prepared.execute(&catalog, &request).unwrap().output.cardinality();

    let server = start_server(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let plain = client.execute(handle).unwrap().cardinality;
    // The override *replaces* the atom's original filter, so the
    // parameterized answer legitimately differs from the plain one.
    let answer = client.execute_with(handle, &[(&alias, &filter_text)]).unwrap();
    assert_eq!(answer.cardinality, expected);

    // Typed errors: unknown alias, bad filter syntax, unknown handle,
    // malformed query text — each a Server error, connection intact.
    for (params, what) in [
        (vec![("no_such_alias", "a > 0")], "unknown alias"),
        (vec![(alias.as_str(), "><")], "unparseable filter"),
    ] {
        match client.execute_with(handle, &params) {
            Err(ClientError::Server(_)) => {}
            other => panic!("expected typed server error for {what}, got {other:?}"),
        }
    }
    let bogus = freejoin::serve::PreparedHandle { handle: 999_999, fingerprint: 0 };
    assert!(matches!(client.execute(bogus), Err(ClientError::Server(m)) if m.contains("handle")));
    assert!(matches!(
        client.prepare("this is not datalog", Aggregate::Count),
        Err(ClientError::Server(_))
    ));

    // The connection survived all of the above; no-params executions are
    // back on the original (filtered) query.
    assert_eq!(client.execute(handle).unwrap().cardinality, plain);

    // An old client's binary stats request (opcode 0x03, retired) is one
    // more malformed frame: a typed `Error`, and the same connection serves
    // the next request.
    let mut old_client = TcpStream::connect(server.local_addr()).unwrap();
    let mut exchange = |payload: &[u8]| {
        write_frame(&mut old_client, payload).unwrap();
        let reply = read_frame(&mut old_client, 1 << 20).unwrap().expect("a reply frame");
        Response::decode(&reply).unwrap()
    };
    match exchange(&[0x03]) {
        Response::Error { message } => assert!(message.contains("unknown request opcode 0x3")),
        other => panic!("expected a typed error for the retired opcode, got {other:?}"),
    }
    match exchange(&freejoin::serve::Request::Metrics.encode()) {
        Response::Metrics { text } => assert!(text.contains("fj_serve_request_errors"), "{text}"),
        other => panic!("the connection must keep serving, got {other:?}"),
    }

    client.shutdown_server().unwrap();
    server.join();
}

/// A raw peer announcing a `u32::MAX`-byte frame and sending no body is
/// disconnected at once: even with `max_frame_bytes` set above the
/// protocol's hard cap nothing is allocated for the announcement and the
/// read deadline is not waited out. The server keeps answering a second
/// client meanwhile.
#[test]
fn an_oversized_frame_header_closes_only_its_connection() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let session = serving_session();
    let prepared = session.prepare(&catalog, &named.query).unwrap();
    let expected = prepared
        .execute(&catalog, &ExecRequest::default())
        .unwrap()
        .output
        .cardinality();

    let read_deadline = Duration::from_secs(20);
    let config = ServerConfig {
        max_frame_bytes: usize::MAX,
        read_deadline_ms: read_deadline.as_millis() as u64,
        ..ServerConfig::default()
    };
    let server = start_server(Arc::clone(&catalog), config);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(read_deadline / 2)).unwrap();
    let started = Instant::now();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match raw.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted) => {
        }
        other => panic!("the server must close the connection, got {other:?}"),
    }
    assert!(started.elapsed() < read_deadline / 2, "closed without waiting for a body");

    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    assert_eq!(client.execute(handle).unwrap().cardinality, expected);
    client.shutdown_server().unwrap();
    server.join();
}

/// The `Execute` frame of a plain request for `handle`, whole.
fn execute_frame(handle: &freejoin::serve::PreparedHandle) -> Vec<u8> {
    let request = freejoin::serve::Request::Execute {
        handle: handle.handle,
        params: Vec::new(),
        request_id: 0,
        deadline_ms: 0,
    };
    request.encode_frame()
}

/// Other clients may still split a frame: a raw peer that sends one
/// `Execute` frame in three pieces — two header bytes, two more, then the
/// body — 20 ms apart, gets its answer.
#[test]
fn a_frame_split_into_pieces_is_answered() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let expected = serving_session().execute(&catalog, &named.query).unwrap().0.cardinality();

    let server = start_server(Arc::clone(&catalog), ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let frame = execute_frame(&handle);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    for piece in [&frame[..2], &frame[2..4], &frame[4..]] {
        raw.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    let reply = read_frame(&mut raw, 1 << 20).unwrap().expect("a reply frame");
    match Response::decode(&reply).unwrap() {
        Response::Answer { cardinality, .. } => assert_eq!(cardinality, expected),
        other => panic!("expected an answer, got {other:?}"),
    }
    client.shutdown_server().unwrap();
    server.join();
}

/// A peer trickling a frame at one byte per 100 ms is disconnected once
/// the 300 ms read deadline has passed — within one more 250 ms read
/// block, the longest the server lets a read wait — and a second client
/// is answered meanwhile and after.
#[test]
fn a_trickling_peer_is_cut_off_at_its_read_deadline() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let expected = serving_session().execute(&catalog, &named.query).unwrap().0.cardinality();

    let read_deadline = Duration::from_millis(300);
    let config = ServerConfig {
        workers: 2,
        read_deadline_ms: read_deadline.as_millis() as u64,
        ..ServerConfig::default()
    };
    let server = start_server(Arc::clone(&catalog), config);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let frame = execute_frame(&handle);

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut trickle = raw.try_clone().unwrap();
    let started = Instant::now();
    let writer = std::thread::spawn(move || {
        for byte in frame {
            if trickle.write_all(&[byte]).is_err() {
                return; // the server hung up
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    assert_eq!(client.execute(handle).unwrap().cardinality, expected, "answered meanwhile");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match raw.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted) => {
        }
        other => panic!("the server must close the connection, got {other:?}"),
    }
    let cut_off = started.elapsed();
    assert!(
        cut_off < read_deadline + Duration::from_millis(250),
        "disconnected after {cut_off:?}, deadline {read_deadline:?}"
    );
    assert!(cut_off >= read_deadline, "disconnected after {cut_off:?}, before the deadline");
    raw.shutdown(std::net::Shutdown::Both).unwrap_or(());
    writer.join().unwrap();
    assert_eq!(client.execute(handle).unwrap().cardinality, expected, "answered after");
    client.shutdown_server().unwrap();
    server.join();
}

/// The prepared-handle registry is bounded: identical re-prepares reuse
/// one handle (a `Prepare` loop cannot grow server memory), and beyond
/// `max_prepared` distinct shapes the oldest handle is dropped with a
/// typed error on later use.
#[test]
fn prepare_loops_reuse_handles_and_the_registry_is_capped() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server = start_server(
        Arc::clone(&catalog),
        ServerConfig { workers: 1, max_prepared: 4, ..ServerConfig::default() },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();

    // An untrusted Prepare loop: every round trip returns the SAME handle.
    let text = named.query.to_string();
    let first = client.prepare(text.clone(), named.query.aggregate.clone()).unwrap();
    for _ in 0..50 {
        let again = client.prepare(text.clone(), named.query.aggregate.clone()).unwrap();
        assert_eq!(again, first, "identical prepares must reuse one handle");
    }
    assert_eq!(
        client.execute(first).unwrap().cardinality,
        client.execute(first).unwrap().cardinality
    );

    // 4 more *distinct* shapes (cap is 4) push the first handle out FIFO.
    for i in 0..4i64 {
        let q = format!("q{i}(id) :- company_name(id, cc) where country_code < {i}.");
        client.prepare(q, Aggregate::Count).unwrap();
    }
    match client.execute(first) {
        Err(ClientError::Server(m)) => assert!(m.contains("unknown prepared handle")),
        other => panic!("expected the evicted handle to be a typed error, got {other:?}"),
    }

    client.shutdown_server().unwrap();
    server.join();
}

/// The work-stealing scheduler's counters flow end to end — executor →
/// `ExecStats` → the `EngineCaches` cells → the wire `Metrics` frame.
/// Against the skewed-star workload with a parallel session and a small
/// split threshold, served executions must report spawned tasks, and steals
/// must show up within a few runs (steal schedules are nondeterministic, so
/// the test loops executions rather than demanding a steal on the first).
#[test]
fn metrics_frame_reports_scheduler_counters() {
    let workload = freejoin::workloads::micro::skewed_star(2, 80, 0.9, 37);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    // Dead-variable pruning off: pruned, the star's count is one probe per
    // hub key and no expansion is left for the scheduler to split or steal.
    let session = Session::new(Arc::new(EngineCaches::with_defaults())).with_options(
        FreeJoinOptions::default()
            .with_num_threads(4)
            .with_split_threshold(8)
            .with_factorized_output(false),
    );
    let server = freejoin::serve::Server::start(
        "127.0.0.1:0",
        Arc::clone(&catalog),
        session,
        ServerConfig { workers: 2, ..ServerConfig::default() },
    )
    .expect("server binds an ephemeral loopback port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let expected = client.execute(handle).unwrap().cardinality;

    let mut stats = scrape(&mut client).unwrap();
    for _ in 0..50 {
        if stats.get("fj_sched_tasks_stolen") > 0 {
            break;
        }
        assert_eq!(client.execute(handle).unwrap().cardinality, expected);
        stats = scrape(&mut client).unwrap();
    }
    assert!(stats.get("fj_sched_tasks_spawned") > 0, "parallel executions spawned tasks");
    assert!(
        stats.get("fj_sched_tasks_stolen") > 0,
        "a skewed workload with a tiny split threshold steals within a few executions"
    );
    client.shutdown_server().unwrap();
    server.join();
}

/// The `Metrics` frame round-trips through the client: Prometheus-style
/// text carrying the registry's server counters, the cache and scheduler
/// cells bound at start, the full latency histogram dump, and the
/// slow-query log as comment lines with per-node profiles.
#[test]
fn metrics_frame_round_trips_with_histogram_and_slow_queries() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server = start_server(
        Arc::clone(&catalog),
        // Threshold 0 µs so every execution lands in the slow-query ring.
        ServerConfig { workers: 2, slow_query_us: 0, ..ServerConfig::default() },
    );
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    let expected = client.execute(handle).unwrap().cardinality;
    for _ in 0..3 {
        assert_eq!(client.execute(handle).unwrap().cardinality, expected);
    }

    let text = client.metrics().unwrap();
    // The in-process accessor serves the same exposition (it can't be
    // byte-equal: the metrics request itself moved the counters).
    let in_process = server.metrics_text();
    assert!(in_process.contains("fj_serve_slow_queries_total 4"), "{in_process}");
    assert!(in_process.contains("# slow_query handle="), "{in_process}");
    // Registry counters, refreshed gauges, and the histogram dump.
    assert!(text.contains("fj_serve_accepted_connections 1"), "{text}");
    assert!(text.contains("fj_serve_requests_served"), "{text}");
    assert!(text.contains("fj_serve_slow_queries_total 4"), "{text}");
    assert!(text.contains("fj_serve_uptime_seconds"), "{text}");
    assert!(text.contains("fj_build_info{version="), "{text}");
    assert!(text.contains("fj_obs_trace_events_dropped_total"), "{text}");
    assert!(text.lines().any(|l| l.starts_with("fj_cache_plan_")), "{text}");
    assert!(text.lines().any(|l| l.starts_with("fj_sched_")), "{text}");
    assert!(text.contains("fj_serve_latency_us_bucket{le=\"+Inf\"}"), "{text}");
    assert!(text.contains("fj_serve_latency_us_count"), "{text}");
    // The slow-query log rides along as comments with per-node profiles.
    assert!(text.contains("# slow_query handle="), "{text}");
    assert!(text.contains("est="), "profile lines carry optimizer estimates: {text}");

    // Every non-comment line is `series value` with a numeric value, an
    // fj_-prefixed name, and no series repeated.
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (series, value) = line.rsplit_once(' ').expect("metric lines are `series value`");
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
        assert!(series.starts_with("fj_"), "all series carry the fj_ prefix: {line:?}");
        assert!(seen.insert(series.to_string()), "duplicate series {series}");
    }

    client.shutdown_server().unwrap();
    server.join();
}

/// The exposition only grows: every series name the parent commit rendered
/// after one prepare and two executes (`tests/golden/metrics_series.txt`,
/// labels stripped) is still rendered. New names are allowed, none is lost;
/// a series leaves the golden only with the feature it counted.
#[test]
fn metrics_frame_keeps_every_golden_series() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server =
        start_server(Arc::clone(&catalog), ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    for _ in 0..2 {
        client.execute(handle).unwrap();
    }
    let rendered = scrape(&mut client).unwrap();
    let names: std::collections::HashSet<&str> = rendered
        .series()
        .map(|series| series.split('{').next().expect("a name"))
        .collect();
    let golden = include_str!("golden/metrics_series.txt");
    assert!(golden.lines().count() >= 40, "the golden list is the parent's");
    let lost: Vec<&str> = golden.lines().filter(|name| !names.contains(name)).collect();
    assert!(lost.is_empty(), "series lost from the exposition: {lost:?}");

    client.shutdown_server().unwrap();
    server.join();
}

/// The trace wire frames end to end over loopback: an explicit `TraceExecute`
/// returns the rendered span tree and Chrome JSON, the trace is retained in
/// the ring and fetchable by id, `trace_sample_n` traces every Nth plain
/// `Execute` transparently, and slow-query entries carry fingerprints and
/// the sampled trace ids.
#[test]
fn trace_frame_round_trips_and_sampling_fills_the_ring() {
    let workload = freejoin::workloads::micro::skewed_star(2, 60, 0.9, 23);
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(2).with_split_threshold(32));
    let server = freejoin::serve::Server::start(
        "127.0.0.1:0",
        Arc::clone(&catalog),
        session,
        ServerConfig { workers: 2, trace_sample_n: 2, slow_query_us: 0, ..ServerConfig::default() },
    )
    .expect("server binds an ephemeral loopback port");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    // Execute sequence 0 is sampled (0 % 2 == 0): a plain Answer for the
    // client, trace id 1 minted into the ring behind its back.
    let expected = client.execute(handle).unwrap().cardinality;

    // Explicit OP_TRACE round-trip: full rendered views come back.
    let traced = client.trace(handle, &[]).unwrap();
    assert_eq!(traced.cardinality, expected);
    assert_eq!(traced.trace_id, 2, "the sampled first execute minted id 1");
    assert!(traced.span_tree.starts_with("query\n"), "{}", traced.span_tree);
    assert!(traced.span_tree.contains("pipeline"), "{}", traced.span_tree);
    assert!(traced.span_tree.contains("trie_fetch"), "{}", traced.span_tree);
    assert!(traced.chrome_json.contains("\"traceEvents\""), "{}", traced.chrome_json);
    assert!(
        traced.chrome_json.contains("\"cat\":\"request\""),
        "serve-layer lifecycle spans ride the timeline: {}",
        traced.chrome_json
    );

    // The trace is retained: fetching by id returns the identical views.
    let fetched = client.fetch_trace(traced.trace_id).unwrap();
    assert_eq!(fetched.trace_id, traced.trace_id);
    assert_eq!(fetched.span_tree, traced.span_tree);
    assert_eq!(fetched.chrome_json, traced.chrome_json);
    assert_eq!(fetched.cardinality, traced.cardinality);

    // Sampling: every other plain Execute is traced transparently.
    for _ in 0..4 {
        assert_eq!(client.execute(handle).unwrap().cardinality, expected);
    }
    let sampled = client.fetch_trace(1).unwrap();
    assert_eq!(sampled.cardinality, expected);
    assert!(sampled.span_tree.starts_with("query\n"));
    // Sampled and explicit traces of the same warm query render the same
    // canonical tree except for the cold run's built-vs-hit fetch lines.
    assert_eq!(client.fetch_trace(3).unwrap().span_tree, traced.span_tree);

    // An unknown id is a typed error; the connection stays usable.
    match client.fetch_trace(999_999) {
        Err(ClientError::Server(m)) => assert!(m.contains("trace"), "{m}"),
        other => panic!("expected a typed error for an unknown trace id, got {other:?}"),
    }
    assert_eq!(client.execute(handle).unwrap().cardinality, expected);

    // Slow-query entries (threshold 0: all of them) carry the fingerprint,
    // and the sampled/traced ones carry their trace id.
    let text = server.metrics_text();
    assert!(text.contains("# slow_query handle="), "{text}");
    assert!(text.contains("fingerprint="), "{text}");
    assert!(text.contains("trace_id=-"), "untraced executions show no id: {text}");
    assert!(text.contains("trace_id=1"), "sampled executions carry their id: {text}");
    assert!(text.contains("fj_obs_trace_events_dropped_total 0"), "{text}");

    client.shutdown_server().unwrap();
    server.join();
}

/// Graceful shutdown: the shutdown frame is acknowledged, in-flight work
/// completes, `join` returns, and new connections are refused.
#[test]
fn shutdown_drains_and_refuses_new_connections() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named = &workload.queries[0];
    let server =
        start_server(Arc::clone(&catalog), ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let handle = client.prepare(named.query.to_string(), named.query.aggregate.clone()).unwrap();
    client.execute(handle).unwrap();
    client.shutdown_server().expect("shutdown is acknowledged before the drain");

    let stats = server.join();
    let served = stats.get("fj_serve_requests_served");
    assert!(served >= 3, "prepare + execute + shutdown were all served");

    // The listener is gone: connecting now fails outright, or the probe
    // request on a raced-in connection is never answered.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(late.metrics().is_err(), "a post-shutdown connection must not be served")
        }
    }
}
