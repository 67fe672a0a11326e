//! The two paper-claim workloads: a query suite run cold, in process, on
//! Free Join, the binary hash join and Generic Join over the same left-deep
//! plans, repetition by repetition, engine by engine.

use crate::metrics::Outcome;
use crate::stats::{geomean, median};
use crate::sut::{self, Dataset, Engine, Execution, Instance, Layers};
use crate::trace::Tracer;
use crate::RunArgs;
use std::time::Instant;

/// Fewest repetitions of the suite, even when they overrun `--seconds`.
const MIN_ROUNDS: usize = 5;

pub struct SuiteSpec {
    pub dataset: Dataset,
    /// Also run Free Join at 2 threads (fixed, not auto).
    pub parallel: bool,
}

const FJ: Engine = Engine::FreeJoin { threads: 1 };
const FJ_PAR: Engine = Engine::FreeJoin { threads: 2 };

/// Generate the catalog, collect statistics and compute the reference
/// cardinality of every query with the binary engine.
pub fn setup(dataset: Dataset, scale: f64, seed: u64) -> Result<(Instance, Vec<u64>), String> {
    let instance = sut::generate(dataset, scale, seed);
    let reference = (0..instance.query_names().len())
        .map(|q| sut::run_query(&instance, q, None, Engine::Binary).map(|e| e.cardinality))
        .collect::<Result<Vec<u64>, String>>()?;
    Ok((instance, reference))
}

/// Every execution of one engine: `ops[query][round]`.
struct EngineOps {
    engine: Engine,
    span: &'static str,
    ops: Vec<Vec<Execution>>,
}

impl EngineOps {
    /// Sum over the queries of the per-query median of `f`.
    fn sum_median(&self, f: impl Fn(&Execution) -> f64) -> f64 {
        self.per_query_median(f).iter().sum()
    }

    fn per_query_median(&self, f: impl Fn(&Execution) -> f64) -> Vec<f64> {
        self.ops
            .iter()
            .map(|rounds| median(&rounds.iter().map(&f).collect::<Vec<_>>()))
            .collect()
    }

    /// Sum over the queries of the per-query median of a returned count.
    fn count(&self, f: fn(&Layers) -> u64) -> f64 {
        self.sum_median(|op| f(&op.layers) as f64)
    }
}

pub fn run(spec: &SuiteSpec, args: &RunArgs) -> Outcome {
    let setups = crate::repeat_setup(|| setup(spec.dataset, args.scale, args.seed), drop);
    let ((instance, reference), setup_s) = match setups {
        Ok(done) => done,
        Err(e) => return Outcome::setup_failed(e),
    };
    let mut out = Outcome::default();
    let cores = crate::cores();
    out.note("cores", cores);
    let names = instance.query_names();
    out.set("setup_s", median(&setup_s));
    out.set("workloads.gen_s", instance.gen_s);
    out.set("plan.stats_collect_ms", instance.stats_collect_s * 1e3);
    out.set("workloads.input_rows", instance.input_rows as f64);
    out.note("input_rows", instance.input_rows);
    out.note("queries", names.len());

    let slot =
        |engine, span| EngineOps { engine, span, ops: names.iter().map(|_| Vec::new()).collect() };
    let mut engines = vec![
        slot(FJ, "op.freejoin"),
        slot(Engine::Binary, "op.binary"),
        slot(Engine::Generic, "op.generic"),
    ];
    if spec.parallel && cores >= 2 {
        engines.push(slot(FJ_PAR, "op.freejoin_par"));
    } else if spec.parallel {
        out.note("fj_par_suite_s", "unresolved: fewer than 2 cores");
    }

    // The measured phase: whole repetitions of the suite, engine by engine
    // within each query, until the next repetition would overrun `--seconds`.
    // The machine's speed drifts over seconds; interleaving gives every
    // engine the same share of it, so the ratios between engines hold.
    let window = Instant::now();
    let mut tracer = Tracer::new(window, 0);
    let mut rounds = 0usize;
    let mut op_id = 0u64;
    loop {
        for (q, name) in names.iter().enumerate() {
            for slot in engines.iter_mut() {
                op_id += 1;
                out.attempted += 1;
                match sut::run_query(&instance, q, None, slot.engine) {
                    Ok(exec) => {
                        if exec.cardinality != reference[q] {
                            out.failed += 1;
                            out.problems.push(format!(
                                "{name} on {:?}: {} rows, reference {}",
                                slot.engine, exec.cardinality, reference[q]
                            ));
                        }
                        if args.trace {
                            tracer.record(|t| record_spans(t, slot.span, &exec, op_id));
                        }
                        slot.ops[q].push(exec);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.problems.push(format!("{name} on {:?}: {e}", slot.engine));
                    }
                }
            }
        }
        rounds += 1;
        let mean_round = window.elapsed().as_secs_f64() / rounds as f64;
        let next_fits = window.elapsed().as_secs_f64() + mean_round <= args.seconds;
        if rounds >= MIN_ROUNDS && !next_fits {
            break;
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    out.note("repetitions", rounds);
    out.note("window_s", format!("{window_s:.3}"));
    out.set("harness.samples", out.attempted as f64);
    if engines.iter().any(|e| e.ops.iter().any(Vec::is_empty)) {
        // A query that never ran has no median; the failures are reported.
        return out;
    }

    let (fj, binary, generic) = (&engines[0], &engines[1], &engines[2]);
    let fj_wall = fj.per_query_median(Execution::wall_s);
    let fj_suite_s: f64 = fj_wall.iter().sum();
    out.set("fj_suite_s", fj_suite_s);
    out.set("fj_geomean_ms", geomean(&fj_wall) * 1e3);
    let shapes: Vec<String> =
        names.iter().zip(&fj_wall).map(|(n, s)| format!("{n}={:.3}", s * 1e3)).collect();
    out.note("fj_query_median_ms", shapes.join(" "));

    // The paper's comparison, query by query over the same plans.
    let ratios = |other: &EngineOps| -> Vec<f64> {
        let wall = other.per_query_median(Execution::wall_s);
        wall.iter().zip(&fj_wall).map(|(o, f)| o / f).collect()
    };
    let vs_binary = ratios(binary);
    out.set("binary_suite_s", binary.sum_median(Execution::wall_s));
    out.set("generic_suite_s", generic.sum_median(Execution::wall_s));
    out.set("fj_vs_binary_geomean", geomean(&vs_binary));
    out.set("fj_vs_generic_geomean", geomean(&ratios(generic)));
    out.set("fj_worst_vs_binary", vs_binary.iter().copied().fold(f64::INFINITY, f64::min));
    if let Some(par) = engines.get(3) {
        out.set("fj_par_suite_s", par.sum_median(Execution::wall_s));
    }

    if args.trace {
        layer_metrics(&mut out, &instance, &engines, fj_suite_s);
        out.set("harness.spans", tracer.len() as f64);
        out.set("harness.trace_overhead_share", tracer.recording_s() / window_s);
        crate::write_trace(args, &[tracer]);
    }
    out
}

/// Spans of one operation: the two measured calls under the operation's
/// root, and `execute` cut into the layer durations it returned.
fn record_spans(tracer: &mut Tracer, root: &'static str, exec: &Execution, op: u64) {
    tracer.span(root, exec.start, exec.end, op, 0);
    tracer.span("plan.optimize", exec.start, exec.optimized, op, 1);
    tracer.span("engine.execute", exec.optimized, exec.end, op, 1);
    let l = &exec.layers;
    tracer.split(
        exec.optimized,
        exec.end,
        &[
            ("prep.select", l.select_s),
            ("trie.build", l.build_s),
            ("exec.join", l.join_s),
            ("sink.aggregate", l.aggregate_s),
        ],
        "engine.other",
        op,
        2,
    );
}

/// The median of three calls of one of `sut`'s timing functions.
pub fn median_of_three(f: fn(&Instance, usize) -> f64, instance: &Instance, query: usize) -> f64 {
    median(&[f(instance, query), f(instance, query), f(instance, query)])
}

fn layer_metrics(out: &mut Outcome, instance: &Instance, engines: &[EngineOps], fj_suite_s: f64) {
    let (fj, binary, generic) = (&engines[0], &engines[1], &engines[2]);
    let queries = fj.ops.len();

    // Free Join, layer by layer, from the durations and counts `execute`
    // returned. Sums of per-query medians, like `fj_suite_s`, so that the
    // parts can be held against the whole.
    let select = fj.sum_median(|op| op.layers.select_s);
    let build = fj.sum_median(|op| op.layers.build_s);
    let join = fj.sum_median(|op| op.layers.join_s);
    let aggregate = fj.sum_median(|op| op.layers.aggregate_s);
    let optimize = fj.sum_median(Execution::optimize_s);
    // `execute` compiles the plan first and does not time it; parsing is not
    // on this path at all. Both are timed on their own.
    let timed = |f: fn(&Instance, usize) -> f64| -> Vec<f64> {
        (0..queries).map(|q| median_of_three(f, instance, q)).collect()
    };
    let compile = timed(sut::time_compile);
    out.set("prep.select_s", select);
    out.set("trie.build_s", build);
    out.set("exec.join_s", join);
    out.set("sink.aggregate_s", aggregate);
    out.set("plan.optimize_us", optimize / queries as f64 * 1e6);
    out.set("plan.compile_us", compile.iter().sum::<f64>() / queries as f64 * 1e6);
    out.set("query.parse_us", timed(sut::time_parse).iter().sum::<f64>() / queries as f64 * 1e6);
    // What no layer accounts for, operation by operation: the wall time of
    // `optimize` + `execute` minus every duration measured or returned.
    let other: f64 = fj
        .ops
        .iter()
        .zip(&compile)
        .map(|(rounds, compile)| {
            let gaps: Vec<f64> = rounds
                .iter()
                .map(|op| {
                    let l = &op.layers;
                    let returned = l.select_s + l.build_s + l.join_s + l.aggregate_s;
                    op.execute_s() - returned - compile
                })
                .collect();
            median(&gaps)
        })
        .sum();
    out.set("engine.other_s", other);
    out.set("engine.layer_gap_share", other / fj_suite_s);
    if (other / fj_suite_s).abs() > 0.05 {
        out.warnings.push(format!(
            "engine.layer_gap_share {:.3}: the layers do not account for 95% of Free Join's time",
            other / fj_suite_s
        ));
    }

    let probes = fj.count(|l| l.probes);
    let outputs = fj.count(|l| l.output_tuples);
    out.set("trie.maps_built", fj.count(|l| l.maps_built));
    out.set("trie.lazy_expansions", fj.count(|l| l.lazy_expansions));
    out.set("exec.probes", probes);
    out.set("exec.probe_hit_share", fj.count(|l| l.probe_hits) / probes.max(1.0));
    out.set("exec.output_tuples", outputs);
    out.set("exec.tuples_per_s", outputs / join);
    out.set("sink.result_chunks", fj.count(|l| l.result_chunks));
    out.set("trie.eager_build_s", timed(sut::time_eager_build).iter().sum());

    out.set("binary.build_s", binary.sum_median(|op| op.layers.build_s));
    out.set("binary.join_s", binary.sum_median(|op| op.layers.join_s));
    out.set("binary.intermediate_tuples", binary.count(|l| l.intermediate_tuples));
    out.set("generic.build_s", generic.sum_median(|op| op.layers.build_s));
    out.set("generic.join_s", generic.sum_median(|op| op.layers.join_s));

    if let Some(par) = engines.get(3) {
        out.set("exec.par_speedup", fj_suite_s / par.sum_median(Execution::wall_s));
        out.set("exec.tasks_spawned", par.count(|l| l.tasks_spawned));
        out.set("exec.tasks_stolen", par.count(|l| l.tasks_stolen));
        let shares: Vec<f64> =
            par.ops.iter().flatten().filter_map(|op| op.layers.max_worker_share).collect();
        out.set("exec.max_worker_share", median(&shares));
    }
}
