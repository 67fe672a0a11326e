//! The Free Join engine: the library's main entry point.
//!
//! Mirroring the paper's system (Section 5): "The main entry point of the
//! library is a function that takes a binary join plan (produced and
//! optimized by DuckDB), and a set of input relations. The system converts
//! the binary plan to a Free Join plan, optimizes it, then runs it using COLT
//! and vectorized execution." Here the binary plan comes from
//! `fj_plan::optimize` (or is built by hand), and the input relations live in
//! an `fj_storage::Catalog`.
//!
//! Execution is layered so that the serving path ([`crate::session`]) can
//! reuse every stage with cached artifacts swapped in:
//!
//! 1. [`crate::compile::compile_query`] turns (query, binary plan) into a
//!    [`crate::CompiledQuery`] — pure plan data, cacheable across executions;
//! 2. `build_tries` builds one trie per pipeline input — the stage the
//!    session replaces with `fj-cache` lookups;
//! 3. `join_pipeline` runs one compiled pipeline over its tries and emits
//!    the output (or a materialized intermediate for bushy plans).

use crate::cancel::CancelToken;
use crate::compile::{compile, compile_query, CompiledPlan};
use crate::error::{EngineError, EngineResult};
use crate::exec::{execute_pipeline, ExecCounters, Instruments};
use crate::options::FreeJoinOptions;
use crate::prep::{materialize_intermediate, prepare_inputs, BoundInput};
use crate::sink::{MaterializeSink, OutputSink, Sink};
use crate::trie::InputTrie;
use fj_plan::{optimize, BinaryPlan, CatalogStats, FreeJoinPlan, OptimizerOptions, PipeInput};
use fj_query::{CancelReason, ConjunctiveQuery, ExecStats, OutputBuilder, QueryError, QueryOutput};
use fj_storage::{Catalog, DataType};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The Free Join execution engine.
#[derive(Debug, Clone, Default)]
pub struct FreeJoinEngine {
    options: FreeJoinOptions,
}

impl FreeJoinEngine {
    /// Create an engine with the given options.
    pub fn new(options: FreeJoinOptions) -> Self {
        FreeJoinEngine { options }
    }

    /// The engine's options.
    pub fn options(&self) -> &FreeJoinOptions {
        &self.options
    }

    /// Convenience: collect statistics, run the cost-based optimizer, and
    /// execute the resulting plan.
    pub fn plan_and_execute(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        optimizer: OptimizerOptions,
    ) -> EngineResult<(QueryOutput, ExecStats)> {
        let stats = CatalogStats::collect(catalog);
        let plan = optimize(query, &stats, optimizer);
        self.execute(catalog, query, &plan)
    }

    /// Execute a query given an already-optimized binary plan.
    ///
    /// The plan is decomposed into left-deep pipelines; each pipeline is
    /// converted to a Free Join plan, optionally optimized by factorization,
    /// and executed over tries built with the configured strategy. Non-final
    /// pipelines materialize intermediate relations (bushy plans).
    pub fn execute(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        plan: &BinaryPlan,
    ) -> EngineResult<(QueryOutput, ExecStats)> {
        if !plan.covers_query(query) {
            return Err(EngineError::PlanDoesNotCoverQuery);
        }
        let compiled = compile_query(query, plan, &self.options)?;
        let prepared = prepare_inputs(catalog, query)?;
        let token = self.options.cancel_token();
        let mut stats =
            ExecStats { selection_time: prepared.selection_time, ..ExecStats::default() };

        let mut intermediates: Vec<Option<BoundInput>> = vec![None; compiled.pipelines.len()];
        let mut output = None;

        for (p, pipeline) in compiled.pipelines.iter().enumerate() {
            let inputs: Vec<BoundInput> = pipeline
                .inputs
                .iter()
                .map(|&input| match input {
                    PipeInput::Atom(i) => prepared.atoms[i].clone(),
                    PipeInput::Intermediate(j) => {
                        intermediates[j].clone().expect("pipelines are dependency-ordered")
                    }
                })
                .collect();
            let tries = build_tries(&inputs, &pipeline.plan.schemas, &self.options, &mut stats);

            let role = if p == compiled.root_pipeline() {
                PipelineRole::Final(query)
            } else {
                PipelineRole::Intermediate(&prepared.var_types)
            };
            let (pipeline_result, _) = join_pipeline(
                &tries,
                &pipeline.plan,
                &self.options,
                role,
                Instruments::default(),
                &token,
                &mut stats,
            )?;
            for trie in &tries {
                stats.tries_built += trie.maps_built();
                stats.lazy_expansions += trie.lazy_built();
            }
            if let Some(reason) = token.poll() {
                return Err(cancelled(reason, &stats));
            }
            match pipeline_result {
                PipelineResult::Output(out) => output = Some(out),
                PipelineResult::Intermediate(bound) => {
                    stats.intermediate_tuples += bound.num_rows() as u64;
                    intermediates[p] = Some(bound);
                }
            }
        }

        let output = output.expect("the final pipeline produces the output");
        stats.output_tuples = output.cardinality();
        Ok((output, stats))
    }

    /// Execute a hand-written Free Join plan over the atoms of a query
    /// (single pipeline, inputs in atom order). This exposes the full design
    /// space of Figure 1 to callers who want to run a specific plan.
    ///
    /// The plan runs **verbatim**: it must partition every variable of every
    /// atom, and every variable it names is enumerated. Dead-variable
    /// pruning ([`FreeJoinOptions::factorize_output`]) belongs to the
    /// compiler that derives a plan from a binary plan
    /// ([`FreeJoinEngine::execute`]); a caller who wants a pruned plan here
    /// writes one over a query that omits the dead columns.
    pub fn execute_fj_plan(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        fj_plan: &FreeJoinPlan,
    ) -> EngineResult<(QueryOutput, ExecStats)> {
        let prepared = prepare_inputs(catalog, query)?;
        let token = self.options.cancel_token();
        let mut stats =
            ExecStats { selection_time: prepared.selection_time, ..ExecStats::default() };
        let input_vars: Vec<Vec<String>> = prepared.atoms.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(fj_plan, &input_vars)?;
        let tries = build_tries(&prepared.atoms, &compiled.schemas, &self.options, &mut stats);
        let (result, _) = join_pipeline(
            &tries,
            &compiled,
            &self.options,
            PipelineRole::Final(query),
            Instruments::default(),
            &token,
            &mut stats,
        )?;
        for trie in &tries {
            stats.tries_built += trie.maps_built();
            stats.lazy_expansions += trie.lazy_built();
        }
        if let Some(reason) = token.poll() {
            return Err(cancelled(reason, &stats));
        }
        match result {
            PipelineResult::Output(output) => {
                stats.output_tuples = output.cardinality();
                Ok((output, stats))
            }
            PipelineResult::Intermediate(_) => unreachable!("final pipeline yields output"),
        }
    }
}

/// The typed error for a cooperatively cancelled execution, carrying the
/// stats accumulated up to the trip.
pub(crate) fn cancelled(reason: CancelReason, stats: &ExecStats) -> EngineError {
    EngineError::Query(QueryError::Cancelled { reason, partial_stats: Box::new(stats.clone()) })
}

/// Build one trie per pipeline input with the configured strategy, charging
/// the elapsed time to `stats.build_time`. With multiple workers available,
/// independent input tries build concurrently (this is where the eager
/// Simple/Slt strategies spend their time); the worker pool is capped at the
/// configured thread count.
pub(crate) fn build_tries(
    inputs: &[BoundInput],
    schemas: &[Vec<Vec<String>>],
    options: &FreeJoinOptions,
    stats: &mut ExecStats,
) -> Vec<Arc<InputTrie>> {
    let threads = options.effective_threads();
    let build_start = Instant::now();
    let tries: Vec<Arc<InputTrie>> = if threads > 1 && inputs.len() > 1 {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let cursor = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<Arc<InputTrie>>>> =
            Mutex::new((0..inputs.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads.min(inputs.len()) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= inputs.len() {
                        break;
                    }
                    let trie = InputTrie::build(&inputs[i], schemas[i].clone(), options.trie);
                    slots.lock().expect("no poisoned build slots")[i] = Some(Arc::new(trie));
                });
            }
        });
        slots
            .into_inner()
            .expect("no poisoned build slots")
            .into_iter()
            .map(|t| t.expect("every input trie was built"))
            .collect()
    } else {
        inputs
            .iter()
            .zip(schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect()
    };
    stats.build_time += build_start.elapsed();
    tries
}

/// What a pipeline is for, with what only that role needs.
#[derive(Clone, Copy)]
pub(crate) enum PipelineRole<'a> {
    /// The last pipeline: its results are the query's output, shaped by the
    /// query's head and aggregate.
    Final(&'a ConjunctiveQuery),
    /// An earlier pipeline of a bushy plan: its rows become an intermediate
    /// relation, typed by the query's variable types.
    Intermediate(&'a HashMap<String, DataType>),
}

/// Run one compiled pipeline over its (possibly cache-shared) tries at the
/// configured thread count — on the calling thread at one, under the
/// work-stealing scheduler above ([`execute_pipeline`]) — and fold its
/// sinks, in task-tree order, into the query output or a materialized
/// intermediate.
///
/// The pipeline's probe and scheduler counters and its join time are added
/// to `stats`; the counters come back for the instruments they carry (the
/// per-node profile and the per-worker trace rings, sorted by worker id —
/// both empty unless `instruments` asked for them).
///
/// Trie-building counters (`tries_built`, `lazy_expansions`) are *not*
/// recorded here: with cached tries shared across queries the attribution
/// differs per caller, so each caller accounts for them itself.
pub(crate) fn join_pipeline(
    tries: &[Arc<InputTrie>],
    compiled: &CompiledPlan,
    options: &FreeJoinOptions,
    role: PipelineRole<'_>,
    instruments: Instruments,
    token: &CancelToken,
    stats: &mut ExecStats,
) -> EngineResult<(PipelineResult, ExecCounters)> {
    let join_start = Instant::now();
    let (result, mut counters) = match role {
        PipelineRole::Final(query) => {
            let builder = OutputBuilder::try_new(
                &query.head,
                query.aggregate.clone(),
                &compiled.binding_order,
            )
            .map_err(EngineError::Query)?;
            let (sink, counters) = run_merged(
                tries,
                compiled,
                options,
                instruments,
                token,
                || OutputSink::new(builder.clone()),
                OutputSink::merge,
            );
            stats.result_chunks += sink.chunks_received();
            (PipelineResult::Output(sink.finish()), counters)
        }
        PipelineRole::Intermediate(var_types) => {
            let (sink, counters) = run_merged(
                tries,
                compiled,
                options,
                instruments,
                token,
                MaterializeSink::new,
                MaterializeSink::merge,
            );
            stats.result_chunks += sink.chunks_received();
            let name = format!("__fj_intermediate_{}", compiled.binding_order.join("_"));
            let rows = sink.into_rows();
            let bound = materialize_intermediate(&name, &compiled.binding_order, var_types, &rows)?;
            (PipelineResult::Intermediate(bound), counters)
        }
    };
    stats.join_time += join_start.elapsed();
    stats.probes += counters.probes;
    stats.probe_hits += counters.probe_hits;
    stats.tasks_spawned += counters.tasks_spawned;
    stats.tasks_stolen += counters.tasks_stolen;
    stats.reorders += counters.reorders;
    if stats.worker_expansions.len() < counters.worker_expansions.len() {
        stats.worker_expansions.resize(counters.worker_expansions.len(), 0);
    }
    for (mine, theirs) in stats.worker_expansions.iter_mut().zip(&counters.worker_expansions) {
        *mine += theirs;
    }
    counters.traces.sort_by_key(|tb| tb.worker());
    Ok((result, counters))
}

/// Run the pipeline into sinks of one kind and fold them, in the order they
/// come back (task-tree order), into the first. One thread returns exactly
/// one sink; a run whose every task came back empty returns none.
fn run_merged<S: Sink + Send>(
    tries: &[Arc<InputTrie>],
    compiled: &CompiledPlan,
    options: &FreeJoinOptions,
    instruments: Instruments,
    token: &CancelToken,
    make_sink: impl Fn() -> S + Sync,
    merge: impl Fn(&mut S, S),
) -> (S, ExecCounters) {
    let threads = options.effective_threads();
    let (sinks, counters) =
        execute_pipeline(tries, compiled, options, threads, &make_sink, token, instruments);
    let mut sinks = sinks.into_iter();
    let mut merged = sinks.next().unwrap_or_else(&make_sink);
    sinks.for_each(|sink| merge(&mut merged, sink));
    (merged, counters)
}

/// What a pipeline produced.
pub(crate) enum PipelineResult {
    /// The query output (final pipeline).
    Output(QueryOutput),
    /// A materialized intermediate (non-final pipeline of a bushy plan).
    Intermediate(BoundInput),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TrieStrategy;
    use fj_plan::{FjNode, PlanTree, Subatom};
    use fj_query::QueryBuilder;
    use fj_storage::{RelationBuilder, Schema, Value};

    /// A small social-network-flavoured catalog used across the engine tests.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        // follows(src, dst): a ring plus some chords.
        let mut follows = RelationBuilder::new("follows", Schema::all_int(&["src", "dst"]));
        for i in 0..40i64 {
            follows.push_ints(&[i, (i + 1) % 40]).unwrap();
            if i % 3 == 0 {
                follows.push_ints(&[i, (i + 5) % 40]).unwrap();
            }
        }
        cat.add(follows.finish()).unwrap();
        // person(id, city)
        let mut person = RelationBuilder::new("person", Schema::all_int(&["id", "city"]));
        for i in 0..40i64 {
            person.push_ints(&[i, i % 4]).unwrap();
        }
        cat.add(person.finish()).unwrap();
        // city(id, country)
        let mut city = RelationBuilder::new("city", Schema::all_int(&["id", "country"]));
        for i in 0..4i64 {
            city.push_ints(&[i, i % 2]).unwrap();
        }
        cat.add(city.finish()).unwrap();
        cat
    }

    fn two_hop_query() -> ConjunctiveQuery {
        QueryBuilder::new("two_hop")
            .atom_as("follows", "f1", &["a", "b"])
            .atom_as("follows", "f2", &["b", "c"])
            .atom("person", &["c", "city"])
            .atom("city", &["city", "country"])
            .count()
            .build()
    }

    #[test]
    fn execute_left_deep_plan() {
        let cat = catalog();
        let q = two_hop_query();
        let plan = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (out, stats) = engine.execute(&cat, &q, &plan).unwrap();
        // Every 2-hop path joins with person and city, so the count equals
        // the number of 2-hop paths.
        let followers: u64 = 40 + 14; // ring edges + chords (i % 3 == 0 for 0..40)
        assert!(out.cardinality() > followers);
        assert!(stats.output_tuples == out.cardinality());
        assert!(stats.probes > 0);
    }

    #[test]
    fn execute_bushy_plan_matches_left_deep() {
        let cat = catalog();
        let q = two_hop_query();
        let left_deep = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        // Bushy: (f1 ⋈ f2) ⋈ (person ⋈ city)
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (a, _) = engine.execute(&cat, &q, &left_deep).unwrap();
        let (b, stats_b) = engine.execute(&cat, &q, &bushy).unwrap();
        assert_eq!(a.cardinality(), b.cardinality());
        assert!(stats_b.intermediate_tuples > 0, "bushy plans materialize intermediates");
    }

    #[test]
    fn all_option_combinations_agree() {
        let cat = catalog();
        let q = two_hop_query();
        let plan = BinaryPlan::left_deep(&[1, 0, 2, 3]);
        let mut cardinalities = Vec::new();
        for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            for batch in [1usize, 4, 1000] {
                for dynamic in [false, true] {
                    for factorize in [false, true] {
                        let options = FreeJoinOptions {
                            trie,
                            batch_size: batch,
                            dynamic_cover: dynamic,
                            factorize_output: factorize,
                            ..FreeJoinOptions::default()
                        };
                        let engine = FreeJoinEngine::new(options);
                        let (out, _) = engine.execute(&cat, &q, &plan).unwrap();
                        cardinalities.push(out.cardinality());
                    }
                }
            }
        }
        assert!(cardinalities.windows(2).all(|w| w[0] == w[1]), "{cardinalities:?}");
    }

    #[test]
    fn multithreaded_execution_matches_serial() {
        let cat = catalog();
        let plan = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        // Count, materialize and group-count heads all merge correctly.
        let queries = [
            two_hop_query(),
            QueryBuilder::new("two_hop_rows")
                .head(&["a", "c"])
                .atom_as("follows", "f1", &["a", "b"])
                .atom_as("follows", "f2", &["b", "c"])
                .atom("person", &["c", "city"])
                .atom("city", &["city", "country"])
                .build(),
            QueryBuilder::new("two_hop_groups")
                .atom_as("follows", "f1", &["a", "b"])
                .atom_as("follows", "f2", &["b", "c"])
                .atom("person", &["c", "city"])
                .atom("city", &["city", "country"])
                .group_count(&["country"])
                .build(),
        ];
        for q in &queries {
            let serial = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1));
            let (reference, _) = serial.execute(&cat, q, &plan).unwrap();
            for threads in [2usize, 4, 8] {
                for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
                    let opts = FreeJoinOptions { trie, ..FreeJoinOptions::default() }
                        .with_num_threads(threads);
                    let (out, _) = FreeJoinEngine::new(opts).execute(&cat, q, &plan).unwrap();
                    assert!(
                        out.result_eq(&reference),
                        "{} with {threads} threads / {trie:?} diverged: {} vs {}",
                        q.name,
                        out.cardinality(),
                        reference.cardinality()
                    );
                }
            }
        }
    }

    #[test]
    fn multithreaded_bushy_plan_matches_serial() {
        let cat = catalog();
        let q = two_hop_query();
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let (a, _) = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(1))
            .execute(&cat, &q, &bushy)
            .unwrap();
        let (b, stats) = FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(4))
            .execute(&cat, &q, &bushy)
            .unwrap();
        assert_eq!(a.cardinality(), b.cardinality());
        assert!(stats.intermediate_tuples > 0, "intermediates flow through the parallel path");
    }

    #[test]
    fn plan_and_execute_uses_the_optimizer() {
        let cat = catalog();
        let q = two_hop_query();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (out, _) = engine.plan_and_execute(&cat, &q, OptimizerOptions::default()).unwrap();
        let plan = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        let (reference, _) = engine.execute(&cat, &q, &plan).unwrap();
        assert_eq!(out.cardinality(), reference.cardinality());
    }

    #[test]
    fn group_count_aggregate() {
        let cat = catalog();
        let q = QueryBuilder::new("per_country")
            .atom("person", &["p", "city"])
            .atom("city", &["city", "country"])
            .group_count(&["country"])
            .build();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (out, _) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1])).unwrap();
        match out.kind {
            fj_query::OutputKind::Groups(groups) => {
                assert_eq!(groups.len(), 2);
                let total: u64 = groups.values().sum();
                assert_eq!(total, 40);
            }
            other => panic!("expected groups, got {other:?}"),
        }
    }

    #[test]
    fn materialized_head_projection() {
        let cat = catalog();
        let q = QueryBuilder::new("cities_of_followers")
            .head(&["a", "city"])
            .atom_as("follows", "f1", &["a", "b"])
            .atom("person", &["b", "city"])
            .build();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (out, _) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1])).unwrap();
        match &out.kind {
            fj_query::OutputKind::Rows(rows) => {
                assert!(!rows.is_empty());
                assert!(rows.iter().all(|r| r.len() == 2));
                assert_eq!(out.vars, vec!["a", "city"]);
                // city values are in 0..4.
                assert!(rows.iter().all(|r| matches!(r[1], Value::Int(c) if (0..4).contains(&c))));
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn execute_fj_plan_runs_custom_plans() {
        let cat = catalog();
        let q = QueryBuilder::new("mutual")
            .atom_as("follows", "f1", &["a", "b"])
            .atom_as("follows", "f2", &["b", "a"])
            .count()
            .build();
        // A Generic-Join-shaped plan written by hand: join on a, then b.
        let fj = FreeJoinPlan::new(vec![
            FjNode::new(vec![Subatom::new(0, vec!["a".into()]), Subatom::new(1, vec!["a".into()])]),
            FjNode::new(vec![Subatom::new(0, vec!["b".into()]), Subatom::new(1, vec!["b".into()])]),
        ]);
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (custom, _) = engine.execute_fj_plan(&cat, &q, &fj).unwrap();
        let (reference, _) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1])).unwrap();
        assert_eq!(custom.cardinality(), reference.cardinality());
    }

    /// Edge (e) of dead-variable pruning: a hand-written plan is run as
    /// written — same probes as the unpruned compiled plan of the same shape,
    /// more than the pruned one — and a plan that leaves a variable out is
    /// still rejected rather than read as "prune it".
    #[test]
    fn execute_fj_plan_runs_the_plan_verbatim() {
        let cat = catalog();
        let q = QueryBuilder::new("cities")
            .atom_as("follows", "f1", &["a", "b"])
            .atom("person", &["b", "town"])
            .count()
            .build();
        let var = |v: &str| v.to_string();
        let written = FreeJoinPlan::new(vec![
            FjNode::new(vec![
                Subatom::new(0, vec![var("a"), var("b")]),
                Subatom::new(1, vec![var("b")]),
            ]),
            FjNode::new(vec![Subatom::new(1, vec![var("town")])]),
        ]);
        let serial = |prune| {
            FreeJoinEngine::new(
                FreeJoinOptions::default().with_num_threads(1).with_factorized_output(prune),
            )
        };
        let plan = BinaryPlan::left_deep(&[0, 1]);
        let (pruned, pruned_stats) = serial(true).execute(&cat, &q, &plan).unwrap();
        let (full, full_stats) = serial(false).execute(&cat, &q, &plan).unwrap();
        for prune in [true, false] {
            let (out, stats) = serial(prune).execute_fj_plan(&cat, &q, &written).unwrap();
            assert_eq!(out, full);
            assert_eq!(stats.probes, full_stats.probes, "pruning {prune}");
        }
        assert_eq!(pruned, full);
        // Pruned, `a` and `town` are gone: person's 40 keys are iterated and
        // probed into follows, instead of follows' 54 rows into person.
        assert!(pruned_stats.probes < full_stats.probes);

        let partial = FreeJoinPlan::new(vec![FjNode::new(vec![
            Subatom::new(0, vec![var("b")]),
            Subatom::new(1, vec![var("b")]),
        ])]);
        assert!(matches!(
            serial(true).execute_fj_plan(&cat, &q, &partial),
            Err(EngineError::Plan(_))
        ));
    }

    #[test]
    fn rejects_plans_that_do_not_cover_the_query() {
        let cat = catalog();
        let q = two_hop_query();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let bad = BinaryPlan::left_deep(&[0, 1]);
        assert!(matches!(engine.execute(&cat, &q, &bad), Err(EngineError::PlanDoesNotCoverQuery)));
    }

    #[test]
    fn rejects_invalid_queries() {
        let cat = catalog();
        let q = QueryBuilder::new("bad").atom("nope", &["x"]).build();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        assert!(matches!(
            engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0])),
            Err(EngineError::Query(_))
        ));
    }

    #[test]
    fn single_atom_query_scans() {
        let cat = catalog();
        let q = QueryBuilder::new("scan").atom("person", &["p", "c"]).count().build();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let (out, stats) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0])).unwrap();
        assert_eq!(out.cardinality(), 40);
        assert_eq!(stats.probes, 0);
        assert_eq!(stats.tries_built, 0, "a pure scan builds no hash structures");
    }

    #[test]
    fn aggregate_count_matches_materialize() {
        let cat = catalog();
        let base = QueryBuilder::new("q")
            .atom_as("follows", "f1", &["a", "b"])
            .atom("person", &["b", "city"]);
        let count_q = base.clone().count().build();
        let mat_q = base.materialize().build();
        let engine = FreeJoinEngine::new(FreeJoinOptions::default());
        let plan = BinaryPlan::left_deep(&[0, 1]);
        let (c, _) = engine.execute(&cat, &count_q, &plan).unwrap();
        let (m, _) = engine.execute(&cat, &mat_q, &plan).unwrap();
        assert_eq!(c.cardinality(), m.cardinality());
    }
}
