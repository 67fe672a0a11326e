//! Repeated-query serving through the `fj-cache` subsystem, **in
//! process**: a pool of worker threads hammers a small set of prepared
//! queries against one shared `Session`, isolating the cache layer's
//! behavior from networking. (The end-to-end serving entry point — real
//! loopback TCP, admission control, metrics — is `examples/serve_tcp.rs`
//! and the `fj-serve` crate.)
//!
//! ```text
//! cargo run --release --example serve_repeated
//! ```
//!
//! All workers share ONE `Session` and ONE set of `Prepared` queries by
//! reference — `prepare`/`execute` take `&self`, exactly how `fj-serve`'s
//! worker threads drive the engine — so the example also pins that nothing
//! on the serving path needs a per-worker clone or an external lock. It
//! runs a **cold pass** (trie and plan builds race and coalesce) and a
//! **warm pass**, and exits nonzero unless the warm pass ran entirely out
//! of the caches (nonzero hit rate, zero trie builds, and — some of the
//! shapes are planned bushy — no intermediate materialized: the pipelines
//! under the final one did not run) with results identical to the cold
//! pass. CI runs it and asserts on the exit status.
//!
//! A last section times the **warm point request** the `serve_hot`
//! benchmark sends, in process: the five shapes it prepares, each executed
//! with 32 `title.id = K` overrides and the profile on (as `fj-serve` runs
//! every request). It prints the median microseconds of one
//! `Prepared::execute` per shape and their geomean, and exits nonzero when
//! any answer differs from a fresh `Session` executing the overridden
//! query. It has no timing gate: the numbers are for comparing trees on
//! one machine.

use freejoin::prelude::*;
use freejoin::workloads::job::{self, JobConfig};
use std::sync::Arc;
use std::time::Instant;

/// The shapes the `serve_hot` benchmark prepares.
const POINT_SHAPES: [&str; 5] = ["q1a_like", "q3a_like", "q4a_like", "q8a_like", "q17a_like"];
/// Distinct `title.id = K` overrides per shape, spread evenly over the movies.
const POINT_IDS: usize = 32;
/// Timed passes over every (shape, override) pair after the warm-up pass.
const POINT_ROUNDS: usize = 20;

/// Worker threads sharing the session.
const WORKERS: usize = 4;
/// Executions per worker per pass.
const ITERATIONS: usize = 25;

/// Run one pass: every worker executes the shared prepared queries
/// `ITERATIONS` times. Returns per-query result cardinalities (which must
/// be identical across workers), the intermediate tuples the pass
/// materialized, and its wall time.
fn run_pass(catalog: &Catalog, prepared: &[Prepared]) -> (Vec<u64>, u64, f64) {
    let start = Instant::now();
    let results: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut counts = vec![0u64; prepared.len()];
                    let mut intermediate_tuples = 0;
                    for _ in 0..ITERATIONS {
                        for (i, p) in prepared.iter().enumerate() {
                            let report = p
                                .execute(catalog, &ExecRequest::default())
                                .expect("execution succeeds");
                            counts[i] = report.output.cardinality();
                            intermediate_tuples += report.stats.intermediate_tuples;
                        }
                    }
                    (counts, intermediate_tuples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker does not panic")).collect()
    });
    let wall = start.elapsed().as_secs_f64() * 1e3;
    for (counts, _) in &results[1..] {
        assert_eq!(counts, &results[0].0, "workers disagree on query results");
    }
    let intermediate_tuples = results.iter().map(|(_, tuples)| tuples).sum();
    (results[0].0.clone(), intermediate_tuples, wall)
}

fn main() {
    // A JOB-like workload: filtered scans over a shared catalog, the shape
    // cross-query trie reuse pays off on.
    let workload = job::workload(&JobConfig::tiny());
    let catalog = workload.catalog;
    let queries: Vec<ConjunctiveQuery> =
        workload.queries.iter().take(4).map(|n| n.query.clone()).collect();
    println!(
        "serving {} queries x {WORKERS} workers x {ITERATIONS} iterations over {} rows",
        queries.len(),
        catalog.total_rows(),
    );

    let caches = Arc::new(EngineCaches::with_defaults());
    let session = Session::new(Arc::clone(&caches));
    // One prepare per query, shared by every worker (the plan cache would
    // dedupe re-prepares anyway; sharing the Prepared skips even the
    // fingerprint check).
    let prepared: Vec<Prepared> = queries
        .iter()
        .map(|q| session.prepare(&catalog, q).expect("query prepares"))
        .collect();

    let bushy = prepared.iter().filter(|p| p.num_pipelines() > 1).count();

    let (cold_counts, cold_intermediates, cold_ms) = run_pass(&catalog, &prepared);
    let after_cold = caches.stats();
    println!(
        "cold pass: {cold_ms:.1} ms | trie cache: {} builds ({} of them the intermediates of \
         {bushy} bushy plans, {cold_intermediates} tuples), {} hits, {} coalesced, {} bytes resident",
        after_cold.tries.misses,
        after_cold.pipe_misses,
        after_cold.tries.hits,
        after_cold.tries.coalesced,
        after_cold.tries.resident_bytes,
    );

    let (warm_counts, warm_intermediates, warm_ms) = run_pass(&catalog, &prepared);
    let after_warm = caches.stats();
    let warm_tries = after_warm.tries.delta(&after_cold.tries);
    let warm_plans = after_warm.plans.delta(&after_cold.plans);
    println!(
        "warm pass: {warm_ms:.1} ms | trie cache: {} builds, {} hits (hit rate {:.3}; {} of an \
         intermediate, {warm_intermediates} tuples materialized), plans: {} builds",
        warm_tries.misses,
        warm_tries.hits,
        warm_tries.hit_rate(),
        after_warm.pipe_hits - after_cold.pipe_hits,
        warm_plans.misses,
    );

    // The assertions the CI exit status stands for.
    let mut failures = Vec::new();
    if warm_counts != cold_counts {
        failures.push(format!("warm results diverged: {warm_counts:?} vs {cold_counts:?}"));
    }
    if bushy == 0 || cold_intermediates == 0 {
        failures.push("no shape was planned bushy: the intermediates went unexercised".to_string());
    }
    if warm_intermediates != 0 {
        failures.push(format!("warm pass materialized {warm_intermediates} intermediate tuples"));
    }
    if warm_tries.hit_rate() <= 0.0 {
        failures.push("warm pass reported a zero cache hit rate".to_string());
    }
    if warm_tries.misses != 0 {
        failures.push(format!("warm pass rebuilt {} tries", warm_tries.misses));
    }
    if warm_plans.misses != 0 {
        failures.push(format!("warm pass recompiled {} plans", warm_plans.misses));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "ok: warm pass served {} executions entirely from cache ({:.2}x cold wall time)",
        WORKERS * ITERATIONS * queries.len(),
        warm_ms / cold_ms,
    );
    warm_point_requests();
}

/// Time warm point requests in process (see the module docs) and check
/// every answer against an unmemoized reference. Exits nonzero on a
/// mismatch.
fn warm_point_requests() {
    // The `serve_hot` catalog: the benchmark's JOB-like sizes at its scale 1.
    let movies = 5_000;
    let workload = job::workload(&JobConfig { movies, people: 10_000, ..JobConfig::benchmark() });
    let catalog = workload.catalog;
    let shape = |name: &str| -> ConjunctiveQuery {
        let named = workload.queries.iter().find(|q| q.name == name);
        named
            .unwrap_or_else(|| panic!("the workload has no query {name}"))
            .query
            .clone()
    };
    let filters: Vec<Predicate> = (0..POINT_IDS)
        .map(|i| parse_filter(&format!("id = {}", i * movies / POINT_IDS)).expect("a filter"))
        .collect();
    let session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1));

    let mut mismatches = Vec::new();
    let mut medians = Vec::with_capacity(POINT_SHAPES.len());
    for name in POINT_SHAPES {
        let query = shape(name);
        let prepared = session.prepare(&catalog, &query).expect("the shape prepares");
        let requests: Vec<ExecRequest> = (filters.iter())
            .map(|f| ExecRequest {
                params: Params::new().with_filter("title", f.clone()),
                profile: true,
                ..ExecRequest::default()
            })
            .collect();
        // Warm-up, checked: every override once against a fresh session
        // executing the overridden query, nothing shared with `session`.
        let mut expected = Vec::with_capacity(filters.len());
        for (filter, request) in filters.iter().zip(&requests) {
            let mut overridden = query.clone();
            let atom = overridden.atoms.iter_mut().find(|a| a.alias == "title");
            atom.expect("every shape reads title").filter = filter.clone();
            let fresh = Session::new(Arc::new(EngineCaches::with_defaults()));
            let (reference, _) = fresh.execute(&catalog, &overridden).expect("reference runs");
            let served = prepared.execute(&catalog, request).expect("the request runs").output;
            if !served.result_eq(&reference) {
                mismatches.push(format!("{name} [{filter:?}]: differs from a fresh session"));
            }
            expected.push(reference);
        }
        let mut micros = Vec::with_capacity(POINT_ROUNDS * requests.len());
        for _ in 0..POINT_ROUNDS {
            for (request, reference) in requests.iter().zip(&expected) {
                let start = Instant::now();
                let report = prepared.execute(&catalog, request).expect("the request runs");
                micros.push(start.elapsed().as_secs_f64() * 1e6);
                if !report.output.result_eq(reference) {
                    mismatches.push(format!("{name}: a warm answer differs from the reference"));
                }
            }
        }
        micros.sort_by(f64::total_cmp);
        let median = micros[micros.len() / 2];
        println!("warm point request {name:>10}: median {median:6.1} us in process");
        medians.push(median);
    }
    let geomean = (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    println!("warm point request geomean: {geomean:.1} us over {} shapes", medians.len());
    if !mismatches.is_empty() {
        for m in &mismatches {
            eprintln!("FAIL: {m}");
        }
        std::process::exit(1);
    }
}
