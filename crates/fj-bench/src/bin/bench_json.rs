//! Machine-readable benchmark mode: runs the headline micro/skew workloads
//! over a (strategy × threads) grid, plus cold-vs-warm serving measurements
//! through the `fj-cache` subsystem, and writes a `BENCH_micro.json` file so
//! that successive PRs accumulate a perf trajectory that scripts can diff.
//!
//! ```text
//! cargo run --release -p fj-bench --bin bench_json [OUTPUT_DIR]
//! ```
//!
//! Each record carries the query name, trie strategy, worker thread count
//! and best-of-N wall milliseconds for engine execution over a
//! pre-optimized plan (planning sits outside the timed loop for grid rows;
//! only the serving `cold` row times it; `threads = 1` runs on the calling
//! thread, without a scheduler), plus — since
//! schema_version 3 — the `build_ms` / `probe_ms` split of that run's trie
//! build and join (probe) phases, so trie-representation wins are visible
//! separately from planning and aggregation overhead. Serving records add a
//! `cache` column: `"cold"` is the first execution through a fresh
//! `Session` (planning + selection + trie build + join), `"warm"` is the
//! best repeat over the now-populated caches, and `trie_hits`/`trie_misses`
//! are the trie-cache deltas attributed to that run — the amortization win
//! is `warm.wall_ms / cold.wall_ms`. Grid records carry `cache: "none"`.
//!
//! Since schema_version 4 every row also carries `serve_p50_us` /
//! `serve_p99_us`, populated (nonzero) only on the `cache: "serve"` row:
//! a real fj-serve TCP server on loopback, hammered warm by concurrent
//! wire clients, reporting its latency histogram's quantiles — the
//! end-to-end serving cost (framing + parse + cache hits + join) that the
//! in-process warm row excludes.
//!
//! Since schema_version 5 every row carries `tuples_per_sec` — output
//! tuples divided by the probe phase (`output_tuples / probe_ms`, scaled
//! to seconds) — the result-pipeline throughput the columnar/chunked sink
//! work targets; `0` whenever the row has no output or no measured probe
//! phase (e.g. the TCP serving row, whose engine phases are not split
//! out).
//!
//! Since schema_version 6 every row carries `skew` — the workload's skew
//! knob (Zipf theta for the skewed generators, hot-key share for
//! `skewed_star`, `0.0` for uniform workloads) — and the grid includes the
//! `star_hotkey` workload, where one key owns ~90% of the output: the
//! shape the recursive-split work-stealing scheduler exists for, so its
//! thread-scaling rows track that scheduler's win over root-only
//! parallelism.
//!
//! Since schema_version 7 every row carries `profile_overhead_pct` — the
//! warm wall-time cost of running with the per-node query profiler on
//! (`ExecRequest::profile`), measured batch-against-batch on the
//! clover COLT serial row and `0.0` everywhere else. CI's schema gate
//! fails if the measured overhead reaches 5%, pinning the profiler's
//! cheap-when-on contract (its off-cost is pinned separately, by the
//! counting-allocator test).
//!
//! Since schema_version 9 every row carries `trace_overhead_pct` — the
//! warm wall-time cost of running with span tracing on
//! (`ExecRequest::trace`), measured with the same burst-robust paired
//! estimator as `profile_overhead_pct` on the clover COLT serial row and
//! `0.0` everywhere else. CI's schema gate fails at ≥ 5%, pinning the tracer's cheap-when-on contract (its
//! off-cost is pinned separately, by the counting-allocator test in
//! `tests/trace_invariants.rs`).
//!
//! Since schema_version 10 every row carries `cancel_check_overhead_pct` —
//! the warm wall-time cost of executing under a live (armed, far-future
//! deadline) `CancelToken` versus the plain path whose disabled token
//! short-circuits every cooperative check, measured with the same paired
//! estimator on the clover COLT serial row and `0.0` everywhere else. CI's
//! schema gate fails at ≥ 2%: the serving path arms a token on every
//! deadline-carrying request, so the checks must stay effectively free.
//! The JSON is written by hand — the workspace's offline `serde` stand-in
//! does not serialize — and the schema is deliberately flat:
//!
//! ```json
//! {"schema_version":11,"cores":8,"note":"...","results":[
//!   {"query":"clover","strategy":"colt","threads":1,"cache":"none",
//!    "trie_hits":0,"trie_misses":0,"wall_ms":12.34,
//!    "build_ms":1.20,"probe_ms":10.80,"output_tuples":1,
//!    "tuples_per_sec":92,"serve_p50_us":0,"serve_p99_us":0,"skew":0.00,
//!    "profile_overhead_pct":1.40,"trace_overhead_pct":1.10,
//!    "cancel_check_overhead_pct":0.30}
//! ]}
//! ```

use fj_bench::{execute, plan_query, Engine};
use fj_plan::EstimatorMode;
use fj_query::ExecStats;
use fj_serve::{Client, Server, ServerConfig};
use fj_workloads::job::{self, JobConfig};
use fj_workloads::{micro, Workload};
use free_join::{
    CancelToken, EngineCaches, ExecReport, ExecRequest, FreeJoinOptions, Session, TrieStrategy,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timing repetitions per configuration; the minimum is reported.
const REPS: usize = 2;

struct Record {
    query: String,
    strategy: &'static str,
    threads: usize,
    /// `"none"` (uncached grid), `"cold"`, `"warm"`, or `"serve"` (TCP).
    cache: &'static str,
    /// Trie-cache hits attributed to this measurement.
    trie_hits: u64,
    /// Trie-cache misses (builds) attributed to this measurement.
    trie_misses: u64,
    wall_ms: f64,
    /// Trie build phase of the best run (the engine's `build_time`).
    build_ms: f64,
    /// Join/probe phase of the best run (the engine's `join_time`).
    probe_ms: f64,
    output_tuples: u64,
    /// Warm TCP serving latency quantiles from the server's histogram;
    /// nonzero only on `cache: "serve"` rows.
    serve_p50_us: u64,
    serve_p99_us: u64,
    /// The workload's skew knob: Zipf theta for the skewed generators,
    /// hot-key share for `skewed_star`, `0.0` for uniform workloads.
    skew: f64,
    /// Warm wall-time overhead of per-node profiling, percent; measured on
    /// the clover COLT serial row only, `0.0` everywhere else.
    profile_overhead_pct: f64,
    /// Warm wall-time overhead of span tracing, percent; measured on the
    /// clover COLT serial row only, `0.0` everywhere else.
    trace_overhead_pct: f64,
    /// Warm wall-time overhead of executing under a live (armed) cancel
    /// token versus the disabled-token plain path, percent; measured on the
    /// clover COLT serial row only, `0.0` everywhere else.
    cancel_check_overhead_pct: f64,
}

impl Record {
    /// Result-pipeline throughput: output tuples per second of probe
    /// phase. Zero when the row produced no output or carries no probe
    /// split (the TCP serving row). Computed from `probe_ms` **as emitted**
    /// (3 decimals), so the column is always consistent with the row it
    /// sits in — a probe phase that rounds to 0.000 reports 0 throughput.
    fn tuples_per_sec(&self) -> u64 {
        let probe_ms = (self.probe_ms * 1e3).round() / 1e3;
        if self.output_tuples == 0 || probe_ms <= 0.0 {
            0
        } else {
            (self.output_tuples as f64 / (probe_ms / 1e3)) as u64
        }
    }
}

/// Milliseconds of a `Duration`.
fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure(workload: &Workload, options: FreeJoinOptions) -> Record {
    let named = &workload.queries[0];
    let (plan, _) = plan_query(&workload.catalog, &named.query, EstimatorMode::Accurate);
    let engine = Engine::FreeJoin(options);
    let mut best_ms = f64::INFINITY;
    let mut best_stats = ExecStats::default();
    let mut output_tuples = 0;
    for _ in 0..REPS {
        let start = Instant::now();
        let (output, stats) = execute(&workload.catalog, &named.query, &plan, &engine);
        let elapsed = ms(start.elapsed());
        if elapsed < best_ms {
            best_ms = elapsed;
            best_stats = stats;
        }
        output_tuples = output.cardinality();
    }
    Record {
        query: named.name.clone(),
        strategy: options.trie.name(),
        threads: options.effective_threads(),
        cache: "none",
        trie_hits: 0,
        trie_misses: 0,
        wall_ms: best_ms,
        build_ms: ms(best_stats.build_time),
        probe_ms: ms(best_stats.join_time),
        output_tuples,
        serve_p50_us: 0,
        serve_p99_us: 0,
        skew: 0.0,
        profile_overhead_pct: 0.0,
        trace_overhead_pct: 0.0,
        cancel_check_overhead_pct: 0.0,
    }
}

/// Serve one query repeatedly through a fresh `Session`: the first execution
/// is the cold record (planning + selection + trie building all included),
/// the best of the following repeats is the warm record. The hit/miss
/// columns are per-record deltas of the shared trie cache.
fn measure_serving(
    label: &str,
    workload: &Workload,
    query_idx: usize,
    options: FreeJoinOptions,
) -> (Record, Record) {
    let named = &workload.queries[query_idx];
    let session = Session::new(Arc::new(EngineCaches::with_defaults())).with_options(options);

    let before_cold = session.cache_stats().tries;
    let cold_start = Instant::now();
    let prepared = session.prepare(&workload.catalog, &named.query).expect("query prepares");
    let ExecReport { output: cold_out, stats: cold_stats, .. } = prepared
        .execute(&workload.catalog, &ExecRequest::default())
        .expect("cold execution succeeds");
    let cold_ms = ms(cold_start.elapsed());
    let after_cold = session.cache_stats().tries;
    let cold_delta = after_cold.delta(&before_cold);

    let mut warm_ms = f64::INFINITY;
    let mut warm_stats = ExecStats::default();
    let mut warm_out = cold_out.cardinality();
    for _ in 0..REPS.max(3) {
        let start = Instant::now();
        let ExecReport { output, stats, .. } = prepared
            .execute(&workload.catalog, &ExecRequest::default())
            .expect("warm execution succeeds");
        let elapsed = ms(start.elapsed());
        if elapsed < warm_ms {
            warm_ms = elapsed;
            warm_stats = stats;
        }
        warm_out = output.cardinality();
    }
    let warm_delta = session.cache_stats().tries.delta(&after_cold);
    assert_eq!(cold_out.cardinality(), warm_out, "warm must equal cold for {label}");

    let make = |cache, wall_ms, stats: &ExecStats, hits, misses, tuples| Record {
        query: label.to_string(),
        strategy: options.trie.name(),
        threads: options.effective_threads(),
        cache,
        trie_hits: hits,
        trie_misses: misses,
        wall_ms,
        build_ms: ms(stats.build_time),
        probe_ms: ms(stats.join_time),
        output_tuples: tuples,
        serve_p50_us: 0,
        serve_p99_us: 0,
        skew: 0.0,
        profile_overhead_pct: 0.0,
        trace_overhead_pct: 0.0,
        cancel_check_overhead_pct: 0.0,
    };
    (
        make(
            "cold",
            cold_ms,
            &cold_stats,
            cold_delta.hits,
            cold_delta.misses,
            cold_out.cardinality(),
        ),
        make("warm", warm_ms, &warm_stats, warm_delta.hits, warm_delta.misses, warm_out),
    )
}

/// Warm overhead of what `measured` asks for over the plain request, in
/// percent: the same prepared query executed in batches over warm caches,
/// plain vs `measured`. Three columns come from it: a profile
/// (schema_version 7), a trace (schema_version 9 — every task/steal/split
/// and trie fetch pushing a POD event into a bounded per-worker ring; the
/// off-cost, exactly zero allocations, is pinned by the counting-allocator
/// test in `tests/trace_invariants.rs`) and a live far-future-deadline
/// token (schema_version 10 — the plain side's disabled token
/// short-circuits every cooperative check to one branch, the live side
/// polls the shared atomics, and the clock at deadline checks, at
/// task/morsel/flush boundaries; CI gates it < 2% because the serving path
/// arms a token on every deadline-carrying request).
///
/// The session is serial, with dead-variable pruning off: the gated
/// percentages price the instruments' per-node and per-probe sites against
/// a join loop that is busy; pruned, the clover's count is a few dozen
/// probes (tens of microseconds), and what would be measured is the fixed
/// per-execution cost of assembling a profile or a trace against almost
/// nothing. Batching amortizes timer resolution on a sub-millisecond query.
fn overhead_pct(workload: &Workload, measured: &ExecRequest) -> f64 {
    const BATCH: usize = 200;
    const ROUNDS: usize = 14;
    let session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1).with_factorized_output(false));
    let named = &workload.queries[0];
    let prepared = session.prepare(&workload.catalog, &named.query).expect("overhead prepares");
    let plain = ExecRequest::default();
    let batch_ms = |request: &ExecRequest, runs: usize| {
        let start = Instant::now();
        for _ in 0..runs {
            prepared
                .execute(&workload.catalog, request)
                .expect("overhead execution succeeds");
        }
        ms(start.elapsed())
    };
    batch_ms(&plain, 5);
    batch_ms(measured, 5);
    // Pair the two kinds within each round and report the *minimum
    // per-round overhead*: a background burst inflates some rounds' pairs
    // but a genuine regression lifts every round, so the minimum tracks the
    // true overhead while shrugging off bursts that independent
    // min-of-batches mistook for overhead whenever a burst landed on a
    // measured phase. Floored at 0 (noise can make the measured batch win).
    let mut overhead = f64::INFINITY;
    for _ in 0..ROUNDS {
        let (plain_ms, measured_ms) = (batch_ms(&plain, BATCH), batch_ms(measured, BATCH));
        overhead = overhead.min(100.0 * (measured_ms - plain_ms) / plain_ms);
    }
    overhead.max(0.0)
}

/// Concurrent clients hammering the TCP serving measurement (the server
/// runs exactly this many workers, so each client owns a worker).
const SERVE_CLIENTS: usize = 2;
/// Warm executions per client (the caches are pre-warmed in process).
const SERVE_REQUESTS: usize = 50;

/// The end-to-end serving measurement behind the `cache: "serve"` row: an
/// fj-serve server on loopback (engine pinned to 1 thread like every other
/// serving row) whose caches are pre-warmed **in process** — the warm-up
/// never touches the server's latency histogram and never occupies one of
/// its thread-per-connection workers — then hammered with `SERVE_CLIENTS`
/// truly concurrent wire clients × `SERVE_REQUESTS` executions. `wall_ms`
/// is the warm window's wall time; the p50/p99 columns are the
/// *server-side* service quantiles from its fixed-bucket histogram, whose
/// only observations are this window's warm requests (each client's
/// plan-cache-hit prepare plus its executes), so they include framing and
/// parsing but neither client scheduling nor any cold build.
fn measure_serving_tcp(label: &str, workload: &Workload, query_idx: usize) -> Record {
    let named = &workload.queries[query_idx];
    let options = FreeJoinOptions::default().with_num_threads(1);
    let session = Session::new(Arc::new(EngineCaches::with_defaults())).with_options(options);
    let catalog = Arc::new(workload.catalog.clone());

    // Warm the shared caches before the server sees any traffic: the
    // session handed to the server shares the same `EngineCaches`.
    let warm_prepared = session.prepare(&catalog, &named.query).expect("warm-up prepares");
    let cardinality = warm_prepared
        .execute(&catalog, &ExecRequest::default())
        .expect("warm-up executes")
        .output
        .cardinality();

    let server = Server::start(
        "127.0.0.1:0",
        Arc::clone(&catalog),
        session.clone(),
        ServerConfig { workers: SERVE_CLIENTS, ..ServerConfig::default() },
    )
    .expect("bench server binds a loopback port");
    let addr = server.local_addr();
    let query_text = named.query.to_string();
    let aggregate = named.query.aggregate.clone();

    let before = server.metrics();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..SERVE_CLIENTS {
            let (query_text, aggregate) = (&query_text, &aggregate);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("bench client connects");
                let handle =
                    client.prepare(query_text.clone(), aggregate.clone()).expect("prepares");
                for _ in 0..SERVE_REQUESTS {
                    let answer = client.execute(handle).expect("executes");
                    assert_eq!(answer.cardinality, cardinality, "serve answers must agree");
                }
            });
        }
    });
    let wall_ms = ms(start.elapsed());
    let after = server.metrics();
    let delta = after.delta(&before);
    server.shutdown();
    server.join();

    Record {
        query: label.to_string(),
        strategy: options.trie.name(),
        threads: options.effective_threads(),
        cache: "serve",
        trie_hits: delta.get("fj_cache_trie_hits"),
        trie_misses: delta.get("fj_cache_trie_misses"),
        wall_ms,
        build_ms: 0.0,
        probe_ms: 0.0,
        output_tuples: cardinality,
        serve_p50_us: after.quantile("fj_serve_latency_us", 0.50),
        serve_p99_us: after.quantile("fj_serve_latency_us", 0.99),
        skew: 0.0,
        profile_overhead_pct: 0.0,
        trace_overhead_pct: 0.0,
        cancel_check_overhead_pct: 0.0,
    }
}

fn main() {
    let out_dir = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with("--"))
        .unwrap_or_else(|| ".".to_string());
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // The `--large` flag selects the paper-scale instances; the default
    // sizes keep a full grid under a couple of minutes on one core so the
    // emitter can run in CI.
    // Each entry carries its skew knob for the `skew` column: Zipf theta
    // for the skewed generators, the hot-key share for `star_hotkey`, 0.0
    // for uniform shapes.
    let large = std::env::args().any(|a| a == "--large");
    let workloads = if large {
        vec![
            ("clover_n2000", micro::clover(2_000), 0.0),
            ("triangle_skew", micro::skewed_triangle(1_000, 10, 1.0, 17), 1.0),
            ("star_skew", micro::star(3, 1_500, 200, 1.0, 23), 1.0),
            ("star_hotkey", micro::skewed_star(2, 800, 0.9, 29), 0.9),
        ]
    } else {
        vec![
            ("clover_n600", micro::clover(600), 0.0),
            ("triangle_skew", micro::skewed_triangle(300, 6, 0.8, 17), 0.8),
            ("star_skew", micro::star(3, 400, 100, 0.6, 23), 0.6),
            ("star_hotkey", micro::skewed_star(2, 150, 0.9, 29), 0.9),
        ]
    };

    // Thread grid: serial, 2 and 4 workers — deliberately fixed rather than
    // derived from `available_parallelism()`, so the emitted measurement
    // grid is identical on every machine and CI's schema-drift gate
    // (ci/check_bench_schema.py) can compare it exactly across runners with
    // different core counts. On boxes with fewer cores the >1 rows measure
    // morsel overhead only (the header note says so); the `cores` field
    // records what the numbers mean.
    let thread_grid = [1usize, 2, 4];

    let mut records = Vec::new();
    for (label, workload, skew) in &workloads {
        eprintln!("running {label} ({} input rows)...", workload.total_rows());
        // Strategy ablation on the serial path. The clover COLT row also
        // carries the profiler's warm on-vs-off overhead (one row measures
        // it; the CI schema gate requires every other row to carry 0).
        for strategy in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            let options = FreeJoinOptions { trie: strategy, ..FreeJoinOptions::default() }
                .with_num_threads(1);
            let mut record = Record { skew: *skew, ..measure(workload, options) };
            if label.starts_with("clover") && matches!(strategy, TrieStrategy::Colt) {
                let plain = ExecRequest::default;
                let over_plain = |measured: ExecRequest| overhead_pct(workload, &measured);
                record.profile_overhead_pct = over_plain(ExecRequest { profile: true, ..plain() });
                eprintln!("  profiled execution overhead: {:.2}%", record.profile_overhead_pct);
                record.trace_overhead_pct = over_plain(ExecRequest { trace: true, ..plain() });
                eprintln!("  traced execution overhead: {:.2}%", record.trace_overhead_pct);
                let token = CancelToken::with_deadline(Duration::from_secs(3600));
                record.cancel_check_overhead_pct = over_plain(ExecRequest { token, ..plain() });
                eprintln!(
                    "  cancellation-check overhead: {:.2}%",
                    record.cancel_check_overhead_pct
                );
            }
            records.push(record);
        }
        // Thread scaling on the default (COLT) configuration — stealing on
        // by default, so the star_hotkey rows measure the recursive-split
        // scheduler on the shape it was built for.
        for &threads in &thread_grid[1..] {
            let options = FreeJoinOptions::default().with_num_threads(threads);
            records.push(Record { skew: *skew, ..measure(workload, options) });
        }
        // Cold vs warm through the fj-cache serving path. Threads pinned to
        // 1 for the same reason as the grid above: `default()` resolves to
        // the machine's core count, which would put a machine-dependent
        // `threads` value in the emitted rows and trip the CI drift gate.
        let (cold, warm) =
            measure_serving(label, workload, 0, FreeJoinOptions::default().with_num_threads(1));
        records.push(Record { skew: *skew, ..cold });
        records.push(Record { skew: *skew, ..warm });
    }

    // The headline repeated-query serving measurement: a JOB-like query with
    // pushed-down selections, where cross-query trie reuse pays the most.
    let job_workload =
        job::workload(&if large { JobConfig::benchmark() } else { JobConfig::tiny() });
    eprintln!("running job_like serving ({} input rows)...", job_workload.total_rows());
    let (cold, warm) = measure_serving(
        "job_q1a_like",
        &job_workload,
        0,
        FreeJoinOptions::default().with_num_threads(1),
    );
    eprintln!(
        "  job_q1a_like: cold {:.3} ms, warm {:.3} ms ({:.2}x)",
        cold.wall_ms,
        warm.wall_ms,
        warm.wall_ms / cold.wall_ms
    );
    records.push(cold);
    records.push(warm);

    // The same query through the full fj-serve TCP stack: warm loopback
    // serving latency quantiles (schema_version 4).
    eprintln!("running job_like TCP serving ({SERVE_CLIENTS} clients x {SERVE_REQUESTS} reqs)...");
    let serve = measure_serving_tcp("job_q1a_like", &job_workload, 0);
    eprintln!(
        "  job_q1a_like over TCP: p50 {} us, p99 {} us ({} warm executions)",
        serve.serve_p50_us,
        serve.serve_p99_us,
        SERVE_CLIENTS * SERVE_REQUESTS,
    );
    records.push(serve);

    let note = "threads=2 > threads=1 is expected where cores is 1 (morsel overhead \
                without real parallelism); cache=cold/warm rows measure \
                fj-cache serving: cold includes planning+selection+trie build, warm reuses \
                cached plans and tries (trie_hits/trie_misses are per-run cache deltas); \
                build_ms/probe_ms split the best run's trie-build and join phases (wall_ms \
                additionally includes selection and aggregation; planning is inside wall_ms \
                only for cache=cold rows — grid rows plan outside the timed loop); the \
                cache=serve row runs the same query warm through the fj-serve loopback TCP \
                stack and reports the server-side service-time histogram's p50/p99 in \
                serve_p50_us/serve_p99_us (zero on all other rows; quantiles are log-linear \
                bucket upper bounds, <=25% relative error); tuples_per_sec is the chunked \
                result pipeline's probe-phase throughput, output_tuples / probe_ms scaled \
                to seconds (0 on rows with no output or no probe split); skew is the \
                workload's skew knob (Zipf theta, or the hot-key share for star_hotkey, \
                whose >1-thread rows exercise the recursive-split work-stealing scheduler); \
                profile_overhead_pct is the warm wall-time cost of per-node profiling \
                (ExecRequest::profile), batch-measured on the clover colt serial row \
                and 0.0 elsewhere — CI fails the build at >= 5%; trace_overhead_pct is \
                the warm wall-time cost of span tracing (ExecRequest::trace), \
                measured with the same paired estimator on \
                the same clover colt serial row and 0.0 elsewhere — CI fails the build \
                at >= 5%, and the trace-off path is separately pinned to zero \
                allocations by tests/trace_invariants.rs; cancel_check_overhead_pct is \
                the warm wall-time cost of executing under a live far-future-deadline \
                CancelToken (ExecRequest::token) versus the plain path whose \
                disabled token short-circuits every cooperative check, measured with the \
                same paired estimator on the same clover colt serial row and 0.0 \
                elsewhere — CI fails the build at >= 2%";
    let mut json = String::new();
    let _ =
        write!(json, "{{\"schema_version\":11,\"cores\":{cores},\"note\":\"{note}\",\"results\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "\n  {{\"query\":\"{}\",\"strategy\":\"{}\",\"threads\":{},\"cache\":\"{}\",\"trie_hits\":{},\"trie_misses\":{},\"wall_ms\":{:.3},\"build_ms\":{:.3},\"probe_ms\":{:.3},\"output_tuples\":{},\"tuples_per_sec\":{},\"serve_p50_us\":{},\"serve_p99_us\":{},\"skew\":{:.2},\"profile_overhead_pct\":{:.2},\"trace_overhead_pct\":{:.2},\"cancel_check_overhead_pct\":{:.2}}}",
            r.query, r.strategy, r.threads, r.cache, r.trie_hits, r.trie_misses,
            r.wall_ms, r.build_ms, r.probe_ms, r.output_tuples, r.tuples_per_sec(),
            r.serve_p50_us, r.serve_p99_us, r.skew, r.profile_overhead_pct,
            r.trace_overhead_pct, r.cancel_check_overhead_pct
        );
    }
    json.push_str("\n]}\n");

    let path = std::path::Path::new(&out_dir).join("BENCH_micro.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("{json}");
    eprintln!("wrote {}", path.display());
}
