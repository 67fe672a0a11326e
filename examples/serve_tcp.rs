//! The serving subsystem end to end: a real fj-serve TCP server on
//! loopback, hammered by concurrent wire-protocol clients.
//!
//! ```text
//! cargo run --release --example serve_tcp
//! ```
//!
//! Where `serve_repeated.rs` exercises the cache layer *in process*, this
//! example goes through the whole serving stack — length-prefixed frames,
//! the bounded admission queue, worker threads, the shared
//! `Session`/`Prepared` registry, and the `Metrics` frame every count is
//! read from, by series name. It runs
//! a **cold pass** (4 clients × 4 queries × 25 executions over fresh
//! caches) and a **warm pass**, then exits nonzero unless:
//!
//! * every answer equals the single-threaded in-process reference,
//! * the warm pass is 100% cache-served (zero trie builds, zero plan
//!   compiles),
//! * zero requests were shed below the admission limits, and
//! * the latency histogram actually observed the traffic.
//!
//! CI runs it and asserts on the exit status.

use freejoin::prelude::*;
use freejoin::workloads::job::{self, JobConfig};
use std::sync::Arc;
use std::time::Instant;

/// Concurrent wire clients (each its own TCP connection and thread).
const CLIENTS: usize = 4;
/// Executions per client per query per pass.
const ITERATIONS: usize = 25;

/// Run one pass: every client connects, prepares the query set, and
/// executes it `ITERATIONS` times. Returns per-query cardinalities (which
/// must agree across clients) and the pass's wall time in milliseconds.
fn run_pass(addr: std::net::SocketAddr, queries: &[(String, Aggregate)]) -> (Vec<u64>, f64) {
    let start = Instant::now();
    let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let prepared: Vec<_> = queries
                        .iter()
                        .map(|(text, aggregate)| {
                            client.prepare(text.clone(), aggregate.clone()).expect("prepare")
                        })
                        .collect();
                    let mut counts = vec![0u64; prepared.len()];
                    for _ in 0..ITERATIONS {
                        for (i, handle) in prepared.iter().enumerate() {
                            counts[i] = client.execute(*handle).expect("execute").cardinality;
                        }
                    }
                    counts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client does not panic")).collect()
    });
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for worker in &results[1..] {
        assert_eq!(worker, &results[0], "clients disagree on query results");
    }
    (results[0].clone(), wall)
}

/// Print one pass from the metrics window it spans (quantiles are the
/// window's own: a delta of cumulative buckets is a histogram again).
fn print_pass(label: &str, wall_ms: f64, delta: &MetricsSnapshot) {
    println!(
        "{label} pass: {wall_ms:.1} ms | trie cache: {} builds, {} hits | plans: {} compiles | \
         p50 {} us, p99 {} us",
        delta.get("fj_cache_trie_misses"),
        delta.get("fj_cache_trie_hits"),
        delta.get("fj_cache_plan_misses"),
        delta.quantile("fj_serve_latency_us", 0.50),
        delta.quantile("fj_serve_latency_us", 0.99),
    );
}

fn main() {
    let workload = job::workload(&JobConfig::tiny());
    let catalog = Arc::new(workload.catalog);
    let named: Vec<_> = workload.queries.iter().take(4).collect();

    // The reference a correct server must reproduce on every execution:
    // a plain single-threaded in-process session.
    let session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1));
    let reference: Vec<u64> = named
        .iter()
        .map(|n| {
            let prepared = session.prepare(&catalog, &n.query).expect("reference prepares");
            let reference = prepared.execute(&catalog, &ExecRequest::default());
            reference.expect("reference executes").output.cardinality()
        })
        .collect();

    // Queries cross the wire as text: Display renders the datalog grammar
    // (filters included), the server parses it back.
    let queries: Vec<(String, Aggregate)> =
        named.iter().map(|n| (n.query.to_string(), n.query.aggregate.clone())).collect();

    let serving_session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1));
    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&catalog),
        serving_session,
        ServerConfig { workers: CLIENTS, queue_capacity: 2 * CLIENTS, ..ServerConfig::default() },
    )
    .expect("server binds a loopback port");
    let addr = server.local_addr();
    println!(
        "serving {} queries to {CLIENTS} clients x {ITERATIONS} iterations at {addr} \
         over {} rows",
        queries.len(),
        catalog.total_rows(),
    );

    let before = server.metrics();
    let (cold_counts, cold_ms) = run_pass(addr, &queries);
    let after_cold = server.metrics();
    print_pass("cold", cold_ms, &after_cold.delta(&before));

    let (warm_counts, warm_ms) = run_pass(addr, &queries);
    let after_warm = server.metrics();
    let warm_delta = after_warm.delta(&after_cold);
    print_pass("warm", warm_ms, &warm_delta);

    // The assertions the CI exit status stands for.
    let mut failures = Vec::new();
    if cold_counts != reference {
        failures.push(format!("cold answers diverged: {cold_counts:?} vs {reference:?}"));
    }
    if warm_counts != reference {
        failures.push(format!("warm answers diverged: {warm_counts:?} vs {reference:?}"));
    }
    if warm_delta.get("fj_cache_trie_misses") != 0 {
        failures
            .push(format!("warm pass rebuilt {} tries", warm_delta.get("fj_cache_trie_misses")));
    }
    if warm_delta.get("fj_cache_plan_misses") != 0 {
        failures
            .push(format!("warm pass recompiled {} plans", warm_delta.get("fj_cache_plan_misses")));
    }
    if warm_delta.get("fj_cache_trie_hits") + warm_delta.get("fj_cache_trie_coalesced") == 0 {
        failures.push("warm pass reported a zero trie-cache hit rate".to_string());
    }
    let rejected = after_warm.get("fj_serve_rejected_queue_full")
        + after_warm.get("fj_serve_rejected_byte_budget");
    if rejected != 0 {
        failures.push(format!("{rejected} requests were shed below the admission limits"));
    }
    if after_warm.get("fj_serve_request_errors") != 0 {
        failures.push(format!("{} requests failed", after_warm.get("fj_serve_request_errors")));
    }
    let expected_served = (2 * CLIENTS * (queries.len() * (ITERATIONS + 1))) as u64;
    let served = after_warm.get("fj_serve_requests_served");
    if served < expected_served {
        failures.push(format!("served {served} requests, expected at least {expected_served}"));
    }
    if after_warm.get("fj_serve_latency_us_count") != served {
        failures.push("latency histogram missed requests".to_string());
    }

    // Shut down gracefully through the protocol itself — but first scrape
    // the Metrics frame over the wire (every counter, the gauges, the
    // latency histogram buckets, the slow-query log). The marker lines
    // delimit the block ci/check_metrics_format.py validates against the
    // Prometheus line grammar.
    let mut client = Client::connect(addr).expect("shutdown client connects");
    let metrics_text = client.metrics().expect("metrics frame");
    println!("=== METRICS BEGIN ===");
    print!("{metrics_text}");
    println!("=== METRICS END ===");
    client.shutdown_server().expect("shutdown acknowledged");
    server.join();

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "ok: warm pass served {} executions entirely from cache over TCP \
         ({:.2}x cold wall time)",
        CLIENTS * ITERATIONS * queries.len(),
        warm_ms / cold_ms,
    );
}
