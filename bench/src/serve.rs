//! The two serving workloads: an in-process `fj-serve` on loopback over the
//! JOB-like catalog, two closed-loop clients (one connection each, the next
//! request goes out when the previous answer is in), five prepared query
//! shapes whose `title` atom every request overrides with a filter.

use crate::metrics::Outcome;
use crate::stats::{geomean, median, percentile, Rng, Zipf};
use crate::suite::median_of_three;
use crate::sut::{self, Conn, Dataset, Engine, Failure, Handle, Instance, Served};
use crate::trace::Tracer;
use crate::RunArgs;
use std::time::{Duration, Instant};

/// The prepared shapes; each joins `title` with two to five other tables.
pub const SHAPES: [&str; 5] = ["q1a_like", "q3a_like", "q4a_like", "q8a_like", "q17a_like"];
/// Closed-loop clients, each on its own connection and thread. The server
/// has as many workers, so no request waits for a worker.
pub const CLIENTS: usize = 2;
/// The atom every request overrides.
const ALIAS: &str = "title";

/// `serve_hot`: point filters `id = K`, K uniform over this many fixed ids
/// spread evenly over the movies (the issue's 64, times the common 0.5).
const HOT_IDS: usize = 32;
/// `serve_churn`: range filters `production_year > Y`, Y drawn Zipf(0.9)
/// over this many consecutive years (the issue's 60, times 0.5).
const CHURN_YEARS: usize = 30;
const CHURN_FIRST_YEAR: usize = 1990;
const CHURN_THETA: f64 = 0.9;
/// Trie-cache bytes resident after every `serve_churn` variant ran once
/// under the engine's default 256 MiB budget (measured once, read off
/// `fj_cache_trie_resident_bytes`), and the budget the workload fixes at
/// about half of it. Both are at `--scale 1`; the budget scales with it.
pub const CHURN_FULL_SET_BYTES: usize = 16_705_180;
pub const CHURN_BUDGET_BYTES: usize = 8 << 20;

pub struct ServeSpec {
    pub churn: bool,
}

impl ServeSpec {
    fn params(&self) -> usize {
        if self.churn {
            CHURN_YEARS
        } else {
            HOT_IDS
        }
    }

    /// The filter text of every parameter value.
    fn filters(&self, instance: &Instance) -> Vec<String> {
        if self.churn {
            (0..CHURN_YEARS)
                .map(|rank| format!("production_year > {}", CHURN_FIRST_YEAR + rank))
                .collect()
        } else {
            let movies = instance.rows_of(ALIAS) as usize;
            (0..HOT_IDS).map(|i| format!("id = {}", i * movies / HOT_IDS)).collect()
        }
    }
}

/// One client's request sequence: `(shape, parameter)` pairs drawn from the
/// run's seed and the client's number, shapes uniform, parameters uniform
/// (`serve_hot`) or Zipf (`serve_churn`).
pub struct Schedule {
    rng: Rng,
    zipf: Option<Zipf>,
    params: usize,
}

impl Schedule {
    pub fn new(spec: &ServeSpec, seed: u64, client: usize) -> Self {
        Schedule {
            rng: Rng::new(seed, &format!("client-{client}")),
            zipf: spec.churn.then(|| Zipf::new(CHURN_YEARS, CHURN_THETA)),
            params: spec.params(),
        }
    }
}

impl Iterator for Schedule {
    type Item = (usize, usize);
    fn next(&mut self) -> Option<(usize, usize)> {
        let shape = self.rng.below(SHAPES.len());
        let param = match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.below(self.params),
        };
        Some((shape, param))
    }
}

/// A server that is up and warm, with its clients connected and prepared.
struct Ready {
    instance: Instance,
    filters: Vec<String>,
    /// `reference[shape][param]`: the binary engine's cardinality.
    reference: Vec<Vec<u64>>,
    served: Served,
    clients: Vec<(Conn, Vec<Handle>)>,
    prepare_s: Vec<f64>,
    warm_failures: Vec<String>,
}

fn failure_text(f: Failure) -> String {
    match f {
        Failure::Busy => "shed (Busy)".to_string(),
        Failure::Error(e) => e,
    }
}

/// Set-up: generate the catalog, collect statistics, compute the reference
/// answer of every (shape, parameter) with the binary engine, start the
/// server, connect and prepare, and execute every variant once.
fn setup(spec: &ServeSpec, args: &RunArgs) -> Result<Ready, String> {
    let instance = sut::generate(Dataset::Job, args.scale, args.seed);
    let shapes: Vec<usize> = SHAPES.iter().map(|name| instance.query_index(name)).collect();
    let filters = spec.filters(&instance);
    let mut reference = Vec::with_capacity(shapes.len());
    for &query in &shapes {
        let row = filters
            .iter()
            .map(|f| {
                sut::run_query(&instance, query, Some((ALIAS, f)), Engine::Binary)
                    .map(|e| e.cardinality)
            })
            .collect::<Result<Vec<u64>, String>>()?;
        reference.push(row);
    }

    let budget = spec.churn.then_some((CHURN_BUDGET_BYTES as f64 * args.scale) as usize);
    let served = sut::start_server(&instance, budget);
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut prepare_s = Vec::new();
    for _ in 0..CLIENTS {
        let mut conn = Conn::connect(served.addr).map_err(failure_text)?;
        let mut handles = Vec::with_capacity(shapes.len());
        for &query in &shapes {
            let start = Instant::now();
            handles.push(conn.prepare(&instance, query).map_err(failure_text)?);
            prepare_s.push(start.elapsed().as_secs_f64());
        }
        clients.push((conn, handles));
    }

    // Warm-up: every variant once. On `serve_hot` this leaves every trie
    // resident; on `serve_churn` it fills the cache to its budget, which is
    // the steady state the window then measures.
    let mut warm_failures = Vec::new();
    let (conn, handles) = &mut clients[0];
    for (shape, handle) in handles.iter().enumerate() {
        for (param, filter) in filters.iter().enumerate() {
            match conn.execute_with(*handle, ALIAS, filter) {
                Ok(reply) if reply.cardinality == reference[shape][param] => {}
                Ok(reply) => warm_failures.push(format!(
                    "warm-up {} [{filter}]: {} rows, reference {}",
                    SHAPES[shape], reply.cardinality, reference[shape][param]
                )),
                Err(f) => warm_failures.push(format!(
                    "warm-up {} [{filter}]: {}",
                    SHAPES[shape],
                    failure_text(f)
                )),
            }
        }
    }
    Ok(Ready { instance, filters, reference, served, clients, prepare_s, warm_failures })
}

/// Stop the server and wait for its threads.
fn teardown(ready: Ready) {
    let Ready { served, mut clients, .. } = ready;
    let (mut last, _) = clients.pop().expect("CLIENTS > 0");
    drop(clients);
    // Best effort: if the frame fails the server is already going down.
    let _ = last.shutdown_server();
    drop(last);
    served.join();
}

/// One answered request.
struct Sample {
    shape: usize,
    latency_s: f64,
    service_s: f64,
    tries_built: u64,
}

struct ClientRun {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// What the first few failures were; a dead server fails every request.
    failures: Vec<String>,
    tracer: Tracer,
}

/// What the clients of one measured window share.
struct Window<'a> {
    spec: &'a ServeSpec,
    args: &'a RunArgs,
    filters: &'a [String],
    reference: &'a [Vec<u64>],
    epoch: Instant,
    deadline: Instant,
}

/// One closed-loop client: requests back to back until the deadline.
fn client_loop(w: &Window, client: usize, conn: &mut Conn, handles: &[Handle]) -> ClientRun {
    let Window { spec, args, filters, reference, epoch, deadline } = *w;
    let mut run = ClientRun {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        tracer: Tracer::new(epoch, client as u32),
    };
    let schedule = Schedule::new(spec, args.seed, client);
    for (n, (shape, param)) in schedule.enumerate() {
        let start = Instant::now();
        if start >= deadline {
            break;
        }
        run.attempted += 1;
        let filter = &filters[param];
        let reply = conn.execute_with(handles[shape], ALIAS, filter);
        let end = Instant::now();
        match reply {
            Ok(reply) if reply.cardinality == reference[shape][param] => {
                if args.trace {
                    let op = (client as u64) << 32 | n as u64;
                    let service = [("serve.service", reply.service_us as f64 / 1e6)];
                    run.tracer.record(|t| {
                        t.span("op.request", start, end, op, 0);
                        t.split(start, end, &service, "serve.overhead", op, 1);
                    });
                }
                run.samples.push(Sample {
                    shape,
                    latency_s: end.duration_since(start).as_secs_f64(),
                    service_s: reply.service_us as f64 / 1e6,
                    tries_built: reply.tries_built,
                });
            }
            failed => {
                run.failed += 1;
                if run.failures.len() < 4 {
                    let what = match failed {
                        Ok(reply) => format!(
                            "{} rows, reference {}",
                            reply.cardinality, reference[shape][param]
                        ),
                        Err(f) => failure_text(f),
                    };
                    run.failures.push(format!("{} [{filter}]: {what}", SHAPES[shape]));
                }
            }
        }
    }
    run
}

/// The value of one series in Prometheus text (`name value` lines).
fn series(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

pub fn run(spec: &ServeSpec, args: &RunArgs) -> Outcome {
    let setups = crate::repeat_setup(|| setup(spec, args), teardown);
    let (mut ready, setup_s) = match setups {
        Ok(done) => done,
        Err(e) => return Outcome::setup_failed(e),
    };
    let mut out = Outcome::default();
    out.note("cores", crate::cores());
    out.note("clients", CLIENTS);
    out.set("setup_s", median(&setup_s));
    out.set("workloads.input_rows", ready.instance.input_rows as f64);
    out.note("input_rows", ready.instance.input_rows);
    out.note("variants", SHAPES.len() * ready.filters.len());
    out.problems.append(&mut ready.warm_failures);

    // The third party to the window: the server's own counters, scraped over
    // the first client's connection before and after it.
    let scrape = |ready: &mut Ready, out: &mut Outcome| {
        ready.clients[0].0.metrics().unwrap_or_else(|f| {
            out.problems.push(format!("metrics scrape: {}", failure_text(f)));
            String::new()
        })
    };
    let before = scrape(&mut ready, &mut out);
    out.note("resident_bytes_after_warm_up", series(&before, "fj_cache_trie_resident_bytes"));

    // The measured window.
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(args.seconds);
    let Ready { clients, filters, reference, .. } = &mut ready;
    let window = &Window { spec, args, filters, reference, epoch, deadline };
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(client, (conn, handles))| {
                scope.spawn(move || client_loop(window, client, conn, handles))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a client thread does not panic"))
            .collect()
    });
    let window_s = epoch.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    let mut tracers = Vec::new();
    for run in runs {
        out.attempted += run.attempted;
        out.failed += run.failed;
        out.problems.extend(run.failures);
        samples.extend(run.samples);
        tracers.push(run.tracer);
    }
    let after = scrape(&mut ready, &mut out);
    let delta = |name: &str| series(&after, name) - series(&before, name);

    let latency_ms: Vec<f64> = samples.iter().map(|s| s.latency_s * 1e3).collect();
    out.set("p50_ms", median(&latency_ms));
    out.set("p99_ms", percentile(&latency_ms, 99.0));
    out.set("qps", samples.len() as f64 / window_s);
    let per_shape_ms: Vec<f64> = (0..SHAPES.len())
        .map(|shape| {
            let of_shape = samples.iter().filter(|s| s.shape == shape);
            median(&of_shape.map(|s| s.latency_s * 1e3).collect::<Vec<_>>())
        })
        .collect();
    out.set("fj_geomean_ms", geomean(&per_shape_ms));
    out.set("harness.samples", samples.len() as f64);
    out.note("samples", samples.len());
    out.note("window_s", format!("{window_s:.3}"));

    // The two workloads must sit on opposite sides of the trie cache.
    let (misses, evictions) = (delta("fj_cache_trie_misses"), delta("fj_cache_trie_evictions"));
    let hits = delta("fj_cache_trie_hits") + delta("fj_cache_trie_coalesced");
    let hit_share = hits / (hits + misses).max(1.0);
    if spec.churn {
        if !(hit_share > 0.3 && hit_share < 0.95 && evictions > 0.0) {
            out.problems.push(format!(
                "serve_churn: trie hit share {hit_share:.3} with {evictions} evictions; \
                 expected a share inside (0.3, 0.95) and evictions > 0"
            ));
        }
    } else if misses > 0.0 || evictions > 0.0 {
        out.problems.push(format!(
            "serve_hot: {misses} trie misses and {evictions} evictions in the window; expected none"
        ));
    }

    if args.trace {
        out.set("workloads.gen_s", ready.instance.gen_s);
        out.set("plan.stats_collect_ms", ready.instance.stats_collect_s * 1e3);
        out.set("serve.prepare_ms", median(&ready.prepare_s) * 1e3);
        out.set("cache.trie_hit_share", hit_share);
        out.set("cache.trie_misses", misses);
        out.set("cache.trie_evictions", evictions);
        out.set("cache.trie_bytes_evicted", delta("fj_cache_trie_bytes_evicted"));
        out.set("cache.trie_coalesced", delta("fj_cache_trie_coalesced"));
        out.set(
            "cache.trie_resident_mb",
            series(&after, "fj_cache_trie_resident_bytes") / (1 << 20) as f64,
        );
        let plan_hits = delta("fj_cache_plan_hits");
        out.set(
            "cache.plan_hit_share",
            plan_hits / (plan_hits + delta("fj_cache_plan_misses")).max(1.0),
        );
        out.set(
            "serve.rejected",
            delta("fj_serve_rejected_queue_full")
                + delta("fj_serve_rejected_byte_budget")
                + delta("fj_serve_rejected_rate_limited"),
        );
        out.set("serve.errors", delta("fj_serve_request_errors"));

        let service_ms: Vec<f64> = samples.iter().map(|s| s.service_s * 1e3).collect();
        let overhead_us: Vec<f64> =
            samples.iter().map(|s| (s.latency_s - s.service_s) * 1e6).collect();
        out.set("serve.service_p50_ms", median(&service_ms));
        out.set("serve.service_p99_ms", percentile(&service_ms, 99.0));
        out.set("serve.overhead_p50_us", median(&overhead_us));
        out.set("serve.overhead_p99_us", percentile(&overhead_us, 99.0));
        let built: u64 = samples.iter().map(|s| s.tries_built).sum();
        out.set("serve.tries_built_per_req", built as f64 / samples.len().max(1) as f64);
        out.set("trie.maps_built", built as f64);
        out.set("protocol.codec_ns", sut::codec_ns(20_000));

        // What one prepare does in process, per shape.
        let shapes: Vec<usize> = SHAPES.iter().map(|n| ready.instance.query_index(n)).collect();
        let mean_us = |f: fn(&Instance, usize) -> f64| {
            let instance = &ready.instance;
            shapes.iter().map(|&q| median_of_three(f, instance, q)).sum::<f64>()
                / shapes.len() as f64
                * 1e6
        };
        out.set("query.parse_us", mean_us(sut::time_parse));
        out.set("plan.optimize_us", mean_us(sut::time_optimize));
        out.set("plan.compile_us", mean_us(sut::time_compile));

        // A client records a request's spans before it sends the next one.
        let recording_s: f64 = tracers.iter().map(Tracer::recording_s).sum();
        out.set("harness.trace_overhead_share", recording_s / (window_s * CLIENTS as f64));
        out.set("harness.spans", tracers.iter().map(Tracer::len).sum::<usize>() as f64);
        crate::write_trace(args, &tracers);
    }

    teardown(ready);
    out
}
