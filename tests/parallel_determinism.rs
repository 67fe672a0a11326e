//! Parallel determinism: for every micro/skew workload query, every trie
//! strategy and every aggregate kind, executing with `num_threads = 1` (the
//! plan walk on the calling thread, no scheduler) and with `num_threads =
//! N > 1` (the same walk cut into work-stealing tasks) must produce
//! identical `QueryOutput`s — identical counts, identical group maps, and
//! identical row multisets (compared in canonical sorted order, since no
//! thread count promises a row order: hash-map iteration at trie levels is
//! already unordered) — and identical work counts, under every strategy.

use freejoin::engine::exec::{execute_pipeline, ExecCounters, Instruments};
use freejoin::engine::{compile_query, prepare_inputs, InputTrie};
use freejoin::plan::{optimize, CatalogStats, EstimatorMode, OptimizerOptions, PipeInput};
use freejoin::prelude::*;
use freejoin::query::{OutputBuilder, OutputKind};
use freejoin::workloads::{lsqb, micro, Workload};
use std::sync::Arc;

/// One thread is a point of the same grid as the others: the reference the
/// rest are compared with is simply its first entry.
const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// The thread counts to test: the fixed grid plus `FJ_TEST_THREADS` when the
/// environment sets one (the CI race-hunting job runs the suite at 8).
fn thread_counts() -> Vec<usize> {
    let mut counts = THREAD_COUNTS.to_vec();
    if let Some(n) = std::env::var("FJ_TEST_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Compare two outputs for byte-identical content modulo row order.
fn assert_identical(serial: &QueryOutput, parallel: &QueryOutput, context: &str) {
    assert_eq!(serial.vars, parallel.vars, "output schema diverged: {context}");
    match (&serial.kind, &parallel.kind) {
        (OutputKind::Count(a), OutputKind::Count(b)) => {
            assert_eq!(a, b, "counts diverged: {context}")
        }
        (OutputKind::Groups(a), OutputKind::Groups(b)) => {
            assert_eq!(a, b, "group counts diverged: {context}")
        }
        (OutputKind::Rows(_), OutputKind::Rows(_)) => {
            assert_eq!(
                serial.canonical_rows(),
                parallel.canonical_rows(),
                "sorted rows diverged: {context}"
            );
        }
        (a, b) => panic!("output kinds diverged ({a:?} vs {b:?}): {context}"),
    }
}

/// Run every query of a workload at the given thread counts, for all three
/// trie strategies, and demand identical outputs. `configure` customizes
/// the shared options (split-threshold variations).
/// Everything runs twice: with dead-variable pruning (the default plans)
/// and without — these workloads count, so only the unpruned plans still
/// have the deep expansions the scheduler splits and steals.
fn check_workload_configured(
    workload: &Workload,
    threads_to_test: &[usize],
    configure: impl Fn(FreeJoinOptions) -> FreeJoinOptions,
) {
    let stats = CatalogStats::collect(&workload.catalog);
    for named in &workload.queries {
        let plan = optimize(
            &named.query,
            &stats,
            OptimizerOptions { mode: EstimatorMode::Accurate, ..OptimizerOptions::default() },
        );
        let strategies = [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt];
        for (trie, prune) in strategies.into_iter().flat_map(|t| [(t, true), (t, false)]) {
            let base = configure(FreeJoinOptions { trie, ..FreeJoinOptions::default() })
                .with_factorized_output(prune);
            let mut reference: Option<QueryOutput> = None;
            for &threads in threads_to_test {
                let engine = FreeJoinEngine::new(base.with_num_threads(threads));
                let (output, _) =
                    engine.execute(&workload.catalog, &named.query, &plan).unwrap_or_else(|e| {
                        panic!("{} with {threads} threads failed: {e}", named.name)
                    });
                let context = format!(
                    "workload {} query {} trie {trie:?} threads {threads} vs {} split {} \
                     prune {prune}",
                    workload.name, named.name, threads_to_test[0], base.split_threshold
                );
                assert_identical(
                    reference.get_or_insert_with(|| output.clone()),
                    &output,
                    &context,
                );
            }
        }
    }
}

/// Compile the query's left-deep plan (one pipeline, every input an atom),
/// build its tries and run it through `execute_pipeline` at `threads`:
/// the merged output and the executor's own counters.
fn run_pipeline(
    workload: &Workload,
    query: &ConjunctiveQuery,
    options: &FreeJoinOptions,
    threads: usize,
) -> (QueryOutput, ExecCounters) {
    let stats = CatalogStats::collect(&workload.catalog);
    let left_deep = OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() };
    let compiled = compile_query(query, &optimize(query, &stats, left_deep), options).unwrap();
    let [pipeline] = &compiled.pipelines[..] else { panic!("a left-deep plan is one pipeline") };
    let inputs = prepare_inputs(&workload.catalog, query).unwrap().atoms;
    let tries: Vec<Arc<InputTrie>> = (pipeline.inputs.iter().zip(&pipeline.plan.schemas))
        .map(|(input, schema)| {
            let PipeInput::Atom(atom) = *input else { panic!("no intermediates") };
            Arc::new(InputTrie::build(&inputs[atom], schema.clone(), options.trie))
        })
        .collect();
    let builder =
        OutputBuilder::new(&query.head, query.aggregate.clone(), &pipeline.plan.binding_order);
    let (builders, counters) = execute_pipeline(
        &tries,
        &pipeline.plan,
        options,
        threads,
        builder.clone(),
        &Instruments::default(),
    );
    let mut merged = builder;
    builders.into_iter().for_each(|task| merged.merge(task));
    (merged.finish(), counters)
}

/// Default-options matrix over the environment's thread counts.
fn check_workload(workload: &Workload) {
    check_workload_configured(workload, &thread_counts(), |o| o);
}

#[test]
fn clover_parallel_matches_serial() {
    check_workload(&micro::clover(60));
}

#[test]
fn skewed_triangle_parallel_matches_serial() {
    check_workload(&micro::skewed_triangle(120, 4, 1.0, 11));
}

#[test]
fn uniform_triangle_parallel_matches_serial() {
    check_workload(&micro::skewed_triangle(100, 4, 0.0, 5));
}

/// The cyclic LSQB-like queries compile to split plans: two-cover inner
/// nodes whose covers are walked row by row and whose final probes are
/// scanned or — for a hub, or when another worker got there first — served
/// from a map. Which of the two a worker finds depends on the schedule; the
/// answer must not.
#[test]
fn lsqb_like_parallel_matches_serial() {
    check_workload(&lsqb::workload(&lsqb::LsqbConfig::tiny()));
}

#[test]
fn chain_parallel_matches_serial() {
    check_workload(&micro::chain(4, 300, 50, 3));
}

#[test]
fn star_parallel_matches_serial() {
    check_workload(&micro::star(3, 150, 30, 0.6, 19));
}

/// The executor decides cover and probe order from construction-fixed
/// bounds, so serial and parallel runs must stay identical — including on
/// skew_flip, the workload where those decisions actually differ from the
/// plan order, across {simple, slt, colt} × {1, 2, 4, 8} threads.
#[test]
fn adaptive_parallel_matches_serial() {
    for w in [micro::skew_flip(4096, 13), micro::clover(60), micro::skewed_star(2, 60, 0.9, 23)] {
        check_workload_configured(&w, &[1, 2, 4, 8], |o| o.with_split_threshold(32));
    }
}

/// Materialized (row-producing) queries exercise the ordered per-task builder
/// merge; counts alone would hide ordering bugs in the merge.
#[test]
fn materialized_rows_parallel_matches_serial() {
    let clover = micro::clover(60);
    let named = clover.query("clover").unwrap();
    let materialize = named.query.clone().with_aggregate(Aggregate::Materialize);
    let stats = CatalogStats::collect(&clover.catalog);
    let plan = optimize(&materialize, &stats, OptimizerOptions::default());
    for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
        let base = FreeJoinOptions { trie, ..FreeJoinOptions::default() };
        let run = |threads: usize| {
            let engine = FreeJoinEngine::new(base.with_num_threads(threads));
            engine.execute(&clover.catalog, &materialize, &plan).unwrap().0
        };
        let serial = run(1);
        for &threads in THREAD_COUNTS {
            let context = format!("materialized clover {trie:?} x{threads}");
            assert_identical(&serial, &run(threads), &context);
        }
    }
}

/// The skewed-star shape — one key owning ~90% of the output — across
/// {simple, slt, colt} × {1, 2, 4, 8} threads, with a split threshold small
/// enough that the hot key's expansions actually re-split: the scenario the
/// work-stealing scheduler exists for, checked at thread counts where steal
/// schedules genuinely differ run to run.
#[test]
fn skewed_star_parallel_matches_serial() {
    let w = micro::skewed_star(2, 60, 0.9, 23);
    check_workload_configured(&w, &[1, 2, 4, 8], |o| o.with_split_threshold(32));
}

/// Stress: the smallest legal split threshold turns nearly every expansion
/// into spawned sub-tasks, maximizing steal interleavings. Ignored by
/// default (it multiplies scheduling overhead on purpose); the CI
/// race-hunting step runs it explicitly via `--ignored`.
#[test]
#[ignore = "forced-split stress; run explicitly (CI does, with --ignored)"]
fn forced_split_stress_matches_serial() {
    let threads = thread_counts();
    let tiny = |o: FreeJoinOptions| o.with_split_threshold(2);
    check_workload_configured(&micro::skewed_star(2, 40, 0.9, 31), &threads, tiny);
    check_workload_configured(&micro::clover(40), &threads, tiny);
    check_workload_configured(&micro::skewed_triangle(80, 4, 1.0, 17), &threads, tiny);
    // Split plans: every adjacency list of two or more rows is forced and
    // cut into entry ranges while other workers scan or walk the same nodes.
    check_workload_configured(&lsqb::workload(&lsqb::LsqbConfig::tiny()), &threads, tiny);
    // Probe reordering under maximal steal interleavings: the bound-driven
    // decisions must survive any task split schedule.
    check_workload_configured(&micro::skew_flip(2048, 17), &threads, tiny);
    // Materialized rows under forced splitting exercise the task-tree builder
    // merge hardest: every split changes which builder holds which rows.
    let clover = micro::clover(40);
    let named = clover.query("clover").unwrap();
    let materialize = named.query.clone().with_aggregate(Aggregate::Materialize);
    let w = Workload::new(
        "clover materialized".to_string(),
        clover.catalog,
        vec![freejoin::workloads::NamedQuery::new("clover_rows", materialize)],
    );
    check_workload_configured(&w, &threads, tiny);
}

/// The load-balance acceptance check: with 4 workers, the
/// hot key of the skewed star must not serialize on one worker — the
/// maximum per-worker share of processed expansions stays under 55%
/// (root-only parallelism scores ~100% here), while the output still
/// matches serial execution exactly.
#[test]
fn skewed_star_steal_balances_workers() {
    let w = micro::skewed_star(2, 120, 0.9, 29);
    let named = &w.queries[0];
    let stats = CatalogStats::collect(&w.catalog);
    let plan = optimize(
        &named.query,
        &stats,
        OptimizerOptions { mode: EstimatorMode::Accurate, ..OptimizerOptions::default() },
    );
    // The enumerating plan: pruned, the count never expands the hot key.
    let base = FreeJoinOptions::default()
        .with_split_threshold(64)
        .with_factorized_output(false);
    let (serial, _) = FreeJoinEngine::new(base.with_num_threads(1))
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    let (parallel, exec_stats) = FreeJoinEngine::new(base.with_num_threads(4))
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    assert_identical(&serial, &parallel, "skewed star, 4 workers");
    assert!(exec_stats.tasks_spawned > 4, "splitting spawned tasks: {exec_stats}");
    let share = exec_stats
        .max_worker_share()
        .expect("parallel execution records per-worker expansion counts");
    assert!(
        share < 0.55,
        "hot-key work must spread across workers: max share {share:.3} ({:?})",
        exec_stats.worker_expansions
    );
}

/// The auto (0 = available parallelism) setting must agree with explicit
/// serial execution too — this is the configuration most users run.
#[test]
fn auto_threads_matches_serial() {
    let w = micro::skewed_triangle(100, 4, 0.8, 3);
    let named = &w.queries[0];
    let stats = CatalogStats::collect(&w.catalog);
    let plan = optimize(&named.query, &stats, OptimizerOptions::default());
    let (serial, _) = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1))
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    let (auto, _) = FreeJoinEngine::new(FreeJoinOptions::default())
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    assert_identical(&serial, &auto, "auto threads");
}

/// Same output **and same work** at every thread count: one thread walks
/// the plan on the calling thread, more cut the same walk into tasks, and
/// splitting moves work without adding or dropping any — the probe, hit and
/// expansion totals of `execute_pipeline` agree at 1, 2, 4 (and
/// `FJ_TEST_THREADS`) threads, on pruned and enumerating plans, under all
/// three trie strategies: covers, probe orders and splits are ranked by a
/// node's row count, which no worker's forcing moves.
///
/// One read of a schedule-dependent state is left in the executor, outside
/// what these inputs exercise: `InputTrie::iterates_rows` asks `is_map()`,
/// so a cover at its input's last level is walked row by row while unforced
/// and key by key once some probe of another binding forced it — the same
/// bag of results, but over *duplicate rows* a different number of
/// expansions, and of the probes each of them makes, depending on which
/// worker reached the node first. It takes a node of more than
/// `SCAN_PROBE_MAX_ROWS` rows, duplicates among them, that is the smaller
/// cover for one binding and the probed side for another; none of these
/// single-pipeline runs has one (an intermediate whose dead columns are gone
/// does: the LSQB-like `q3` under the optimizer's bushy plan makes 8,103
/// probes on one thread and, at `split_threshold = 64` on four, 8,068 to
/// 8,114 from run to run).
#[test]
fn work_counts_are_identical_at_every_thread_count() {
    let workloads = [
        micro::clover(60),
        micro::skewed_triangle(120, 4, 1.0, 11),
        lsqb::workload(&lsqb::LsqbConfig::tiny()),
        micro::chain(4, 300, 50, 3),
        micro::skewed_star(2, 60, 0.9, 23),
    ];
    for (workload, named) in workloads.iter().flat_map(|w| w.queries.iter().map(move |q| (w, q))) {
        for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            for prune in [true, false] {
                let options = FreeJoinOptions { trie, ..FreeJoinOptions::default() }
                    .with_factorized_output(prune)
                    .with_split_threshold(32);
                let mut reference: Option<(QueryOutput, (u64, u64, u64))> = None;
                for threads in thread_counts() {
                    let (output, counters) =
                        run_pipeline(workload, &named.query, &options, threads);
                    let context = format!(
                        "{} {} {trie:?} x{threads} prune {prune}",
                        workload.name, named.name
                    );
                    assert_eq!(counters.stats.tasks_spawned > 0, threads > 1, "{context}");
                    let (expected, work) =
                        reference.get_or_insert_with(|| (output.clone(), counters.work()));
                    assert_identical(expected, &output, &context);
                    assert_eq!(*work, counters.work(), "work diverged: {context}");
                }
            }
        }
    }
}
