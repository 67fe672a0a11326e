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
//! There is one way a compiled query runs, whoever asks:
//!
//! 1. [`crate::compile::compile_query`] turns (query, binary plan) into a
//!    [`crate::CompiledQuery`] — pure plan data, cacheable across executions;
//! 2. `run_pipelines` walks its pipelines on demand, from the root: it polls
//!    the request's token, fetches one trie per input, joins and accounts
//!    for the trie work. An input is an atom or the result of an earlier
//!    pipeline (the paper indexes a bushy plan's materialized intermediates
//!    as COLTs like any base relation), and both are fetched the same way:
//!    through a closure that is handed the means to make the trie — bind
//!    the atom, or run the producing pipeline, then build — and decides
//!    whether to use them. That closure is the one thing that differs
//!    between callers: [`FreeJoinEngine`] always makes the trie, the serving
//!    path ([`crate::session`]) asks the shared trie cache first, so a
//!    pipeline whose result is cached does not run, and neither does
//!    anything under it;
//! 3. `join_pipeline` — called from that loop and nowhere else — runs one
//!    compiled pipeline over its tries into an [`OutputBuilder`] and
//!    finishes it: the query's output for the root pipeline, the rows of a
//!    bushy plan's intermediate for any other.

use crate::compile::{compile, compile_query, CompiledPipeline, CompiledPlan, CompiledQuery};
use crate::error::{EngineError, EngineResult};
use crate::exec::{execute_pipeline, ExecCounters, Instruments};
use crate::options::{FreeJoinOptions, TrieStrategy};
use crate::prep::{bind_atom, materialize_intermediate, var_types};
use crate::sink::pipeline_builder;
use crate::trie::InputTrie;
use fj_obs::{
    trace_now_nanos, ProfileSheet, QueryTrace, TraceBuf, TraceCat, DEFAULT_TRACE_CAPACITY,
    SESSION_WORKER,
};
use fj_plan::{optimize, BinaryPlan, CatalogStats, FreeJoinPlan, OptimizerOptions, PipeInput};
use fj_query::{
    Atom, CancelReason, ConjunctiveQuery, ExecStats, OutputBuilder, QueryError, QueryOutput,
};
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
        self.run(catalog, query, &compiled)
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
        let input_vars: Vec<Vec<String>> = query.atoms.iter().map(|a| a.vars.clone()).collect();
        let pipeline = CompiledPipeline {
            inputs: (0..query.atoms.len()).map(PipeInput::Atom).collect(),
            plan: compile(fj_plan, &input_vars)?,
            fj_plan: fj_plan.clone(),
            pruned: vec![Vec::new(); query.atoms.len()],
        };
        self.run(catalog, query, &CompiledQuery { pipelines: vec![pipeline] })
    }

    /// Run a compiled query uncached and uncancellable: every pipeline runs,
    /// every atom is bound and every trie built here. A request that needs a
    /// deadline or a result-byte budget goes through [`crate::Prepared`],
    /// whose [`crate::ExecRequest`] carries a token.
    fn run(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        compiled: &CompiledQuery,
    ) -> EngineResult<(QueryOutput, ExecStats)> {
        query.validate(catalog)?;
        let instruments = Instruments::default();
        let uncached = |_: PipeInput, _: &[Vec<String>], produce: Produce<'_>| produce();
        let run = run_pipelines(compiled, catalog, query, &self.options, &instruments, uncached)?;
        Ok((run.output, run.stats))
    }
}

/// The typed error for a cooperatively cancelled execution, carrying the
/// stats accumulated up to the trip.
fn cancelled(reason: CancelReason, stats: &ExecStats) -> EngineError {
    EngineError::Query(QueryError::Cancelled { reason, partial_stats: Box::new(stats.clone()) })
}

/// Bind one atom (apply its pushed-down selection) and build its trie,
/// charging the two phases to `stats`.
fn build_atom_trie(
    catalog: &Catalog,
    atom: &Atom,
    schema: &[Vec<String>],
    strategy: TrieStrategy,
    stats: &mut ExecStats,
) -> EngineResult<Arc<InputTrie>> {
    let selection_start = Instant::now();
    let bound = bind_atom(catalog, atom)?;
    stats.selection_time += selection_start.elapsed();
    let build_start = Instant::now();
    let trie = Arc::new(InputTrie::build(&bound, schema.to_vec(), strategy));
    stats.build_time += build_start.elapsed();
    Ok(trie)
}

/// What one walk of a query's pipelines hands back.
pub(crate) struct PipelinesRun {
    /// The query's result.
    pub output: QueryOutput,
    /// Layer times and work counts, summed over the pipelines that ran.
    pub stats: ExecStats,
    /// When the request asked for a profile: one merged sheet per pipeline,
    /// indexed like `compiled.pipelines`; `None` for a pipeline this walk
    /// never ran, because its result — or the result of a pipeline that
    /// consumes it — came out of the caller's cache.
    pub sheets: Vec<Option<ProfileSheet>>,
    /// When the request asked for a trace: every pipeline's executor rings,
    /// and the structural ring (query → pipelines → trie fetches, a missed
    /// intermediate's producing pipeline nested inside its fetch) with its
    /// query span still open — the caller adds what only it saw, closes the
    /// span and attaches the ring.
    pub trace: Option<(QueryTrace, TraceBuf)>,
}

/// Makes one input's trie from scratch: binds the atom and builds its trie,
/// or runs the producing pipeline and builds a trie over its rows. What it
/// spends is charged to the walk's stats.
pub(crate) type Produce<'a> = &'a mut dyn FnMut() -> EngineResult<Arc<InputTrie>>;

/// Run a compiled query's pipelines — the one loop under [`FreeJoinEngine`]
/// and [`crate::session::Prepared`] — on demand, from the root pipeline
/// down.
///
/// Per pipeline: the request's token is polled (clock included) before any
/// trie is fetched, since builds can be long; each input's trie — an atom's
/// or an earlier pipeline's intermediate alike — is asked of `fetch(input,
/// schema, produce)`, which either calls `produce` (the walk then binds the
/// atom, or runs the producing pipeline first) or returns a trie it already
/// has, in which case nothing under that input runs; the pipeline is
/// joined; and once it returned, a fired token becomes the typed error
/// carrying the stats so far instead of a silently truncated result.
///
/// `tries_built` / `lazy_expansions` are what each trie's own counters read
/// after a build made here, plus their growth over the join, each
/// underlying trie counted once however many inputs share it (self-joins).
/// Best-effort on shared tries: a concurrent query forcing levels of the
/// same cached trie during the join gets its work counted here too. Totals
/// across queries remain exact; only the per-query split can skew under
/// concurrency.
pub(crate) fn run_pipelines(
    compiled: &CompiledQuery,
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    options: &FreeJoinOptions,
    instruments: &Instruments,
    fetch: impl Fn(PipeInput, &[Vec<String>], Produce<'_>) -> EngineResult<Arc<InputTrie>>,
) -> EngineResult<PipelinesRun> {
    let mut walk = Walk {
        compiled,
        catalog,
        query,
        options,
        instruments,
        fetch: &fetch,
        var_types: None,
        stats: ExecStats::default(),
        sheets: if instruments.profile { vec![None; compiled.pipelines.len()] } else { Vec::new() },
        trace: instruments.trace.then(|| {
            let mut ring = TraceBuf::with_capacity(DEFAULT_TRACE_CAPACITY, SESSION_WORKER);
            ring.begin(TraceCat::Query, 0, 0, &[]);
            (QueryTrace::new(), ring)
        }),
    };
    let output = walk.run(compiled.root_pipeline())?;
    let Walk { mut stats, sheets, trace, .. } = walk;
    stats.output_tuples = output.cardinality();
    Ok(PipelinesRun { output, stats, sheets, trace })
}

/// The state of one walk of a query's pipelines ([`run_pipelines`]).
struct Walk<'a, F> {
    compiled: &'a CompiledQuery,
    catalog: &'a Catalog,
    query: &'a ConjunctiveQuery,
    options: &'a FreeJoinOptions,
    instruments: &'a Instruments,
    fetch: &'a F,
    /// The type of each query variable, read off the schemas when the walk
    /// first materializes an intermediate — the only reader; a walk served
    /// its intermediates from the cache never computes them.
    var_types: Option<HashMap<String, DataType>>,
    stats: ExecStats,
    sheets: Vec<Option<ProfileSheet>>,
    trace: Option<(QueryTrace, TraceBuf)>,
}

impl<F> Walk<'_, F>
where
    F: Fn(PipeInput, &[Vec<String>], Produce<'_>) -> EngineResult<Arc<InputTrie>>,
{
    /// Fetch pipeline `p`'s inputs — running the pipelines under the ones
    /// `fetch` does not have — and join it: the query's output for the root
    /// pipeline, every binding as a row for an intermediate.
    fn run(&mut self, p: usize) -> EngineResult<QueryOutput> {
        if let Some(reason) = self.instruments.token.poll() {
            return Err(cancelled(reason, &self.stats));
        }
        if let Some((_, ring)) = self.trace.as_mut() {
            ring.begin(TraceCat::Pipeline, p as u32, 0, &[]);
        }
        let pipeline = &self.compiled.pipelines[p];
        let mut tries: Vec<Arc<InputTrie>> = Vec::with_capacity(pipeline.inputs.len());
        for (k, (&input, schema)) in pipeline.inputs.iter().zip(&pipeline.plan.schemas).enumerate()
        {
            tries.push(self.input_trie(k as u32, input, schema)?);
        }
        // (maps_built, lazy_built) of each trie going into the join: the
        // pipelines under this one have run and counted their own forcing.
        let baselines: Vec<(u64, u64)> =
            tries.iter().map(|trie| (trie.maps_built(), trie.lazy_built())).collect();

        let is_root = p == self.compiled.root_pipeline();
        let builder = pipeline_builder(self.query, &pipeline.plan.binding_order, is_root)?;
        let (output, counters) =
            join_pipeline(&tries, &pipeline.plan, self.options, builder, is_root, self.instruments);
        self.stats.merge(&counters.stats);
        if let Some(sheet) = self.sheets.get_mut(p) {
            *sheet = Some(counters.profile);
        }
        if let Some((executor_rings, ring)) = self.trace.as_mut() {
            for mut tb in counters.traces {
                tb.set_pipeline(p as u32);
                executor_rings.attach(tb);
            }
            ring.end(TraceCat::Pipeline, p as u32, 0);
        }
        for (idx, (trie, (maps0, lazy0))) in tries.iter().zip(&baselines).enumerate() {
            if tries[..idx].iter().any(|t| Arc::ptr_eq(t, trie)) {
                continue;
            }
            self.stats.tries_built += trie.maps_built().saturating_sub(*maps0);
            self.stats.lazy_expansions += trie.lazy_built().saturating_sub(*lazy0);
        }
        // The executor unwinds cooperatively once the token fires and
        // returns whatever it had produced.
        if let Some(reason) = self.instruments.token.fired() {
            if is_root {
                self.stats.output_tuples = output.cardinality();
            }
            return Err(cancelled(reason, &self.stats));
        }
        Ok(output)
    }

    /// The trie of one pipeline input, through `fetch`. The trace records
    /// the fetch as a span around whatever making the trie took — for a
    /// missed intermediate, its producing pipeline's span — and its outcome
    /// as a miss or a hit instant.
    fn input_trie(
        &mut self,
        k: u32,
        input: PipeInput,
        schema: &[Vec<String>],
    ) -> EngineResult<Arc<InputTrie>> {
        let fetch = self.fetch;
        // Captured before the fetch so the span covers it; the outcome is
        // only known once `fetch` calls `produce` or returns without (hence
        // `begin_at`), and nothing is pushed into the ring before either.
        let t_fetch = self.trace.is_some().then(trace_now_nanos);
        let mut built_here = false;
        let mut produce = || {
            built_here = true;
            if let (Some((_, ring)), Some(t0)) = (self.trace.as_mut(), t_fetch) {
                ring.begin_at(t0, TraceCat::TrieFetch, k, 1, &[]);
                ring.instant(TraceCat::TrieMiss, k, 0, &[]);
            }
            match input {
                PipeInput::Atom(i) => {
                    let (atom, strategy) = (&self.query.atoms[i], self.options.trie);
                    build_atom_trie(self.catalog, atom, schema, strategy, &mut self.stats)
                }
                PipeInput::Intermediate(j) => {
                    let rows = self.run(j)?;
                    self.stats.intermediate_tuples += rows.cardinality();
                    if self.var_types.is_none() {
                        self.var_types = Some(var_types(self.catalog, &self.query.atoms)?);
                    }
                    let types = self.var_types.as_ref().expect("computed above");
                    let build_start = Instant::now();
                    let name = format!("__fj_intermediate_{}", rows.vars.join("_"));
                    let bound = materialize_intermediate(&name, rows, types)?;
                    let trie = InputTrie::build(&bound, schema.to_vec(), self.options.trie);
                    self.stats.build_time += build_start.elapsed();
                    Ok(Arc::new(trie))
                }
            }
        };
        let trie = fetch(input, schema, &mut produce)?;
        if built_here {
            self.stats.tries_built += trie.maps_built();
            self.stats.lazy_expansions += trie.lazy_built();
        }
        if let (Some((_, ring)), Some(t0)) = (self.trace.as_mut(), t_fetch) {
            if !built_here {
                ring.begin_at(t0, TraceCat::TrieFetch, k, 0, &[]);
                ring.instant(TraceCat::TrieHit, k, 0, &[]);
            }
            ring.end(TraceCat::TrieFetch, k, 0);
        }
        Ok(trie)
    }
}

/// Run one compiled pipeline over its (possibly cache-shared) tries at the
/// configured thread count — on the calling thread at one, under the
/// work-stealing scheduler above ([`execute_pipeline`]) — into `builder`,
/// and fold the per-task builders, in task-tree order, into its output.
///
/// The counters that come back carry everything the pipeline added up: its
/// probe and scheduler counts, `result_chunks`, its `join_time` and — for
/// the root pipeline — the `aggregate_time` spent folding the builders and
/// finishing the output, which is taken out of `join_time`; plus the
/// instruments (the per-node profile and the per-worker trace rings, sorted
/// by worker id — both empty unless `instruments` asked for them).
/// Trie-building counts (`tries_built`, `lazy_expansions`) live on the
/// tries; [`run_pipelines`] reads them.
fn join_pipeline(
    tries: &[Arc<InputTrie>],
    compiled: &CompiledPlan,
    options: &FreeJoinOptions,
    builder: OutputBuilder,
    is_root: bool,
    instruments: &Instruments,
) -> (QueryOutput, ExecCounters) {
    let join_start = Instant::now();
    let threads = options.effective_threads();
    let (builders, mut counters) =
        execute_pipeline(tries, compiled, options, threads, builder.clone(), instruments);
    let fold_start = Instant::now();
    // One thread returned exactly one builder; a run whose every task came
    // back empty returned none.
    let mut builders = builders.into_iter();
    let mut merged = builders.next().unwrap_or(builder);
    builders.for_each(|task| merged.merge(task));
    counters.stats.result_chunks = merged.chunks_received();
    let output = merged.finish();
    if is_root {
        counters.stats.aggregate_time = fold_start.elapsed();
    }
    counters.stats.join_time = join_start.elapsed().saturating_sub(counters.stats.aggregate_time);
    counters.traces.sort_by_key(|tb| tb.worker());
    (output, counters)
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
            for factorize in [false, true] {
                let options = FreeJoinOptions {
                    trie,
                    factorize_output: factorize,
                    ..FreeJoinOptions::default()
                };
                let engine = FreeJoinEngine::new(options);
                let (out, _) = engine.execute(&cat, &q, &plan).unwrap();
                cardinalities.push(out.cardinality());
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

    /// Folding the builders and finishing the output is `aggregate_time`, not
    /// `join_time`: rows to sort out or groups to total make it nonzero.
    #[test]
    fn the_final_pipeline_times_its_aggregation() {
        let cat = catalog();
        let base = QueryBuilder::new("q")
            .atom_as("follows", "f1", &["a", "b"])
            .atom("person", &["b", "city"]);
        let plan = BinaryPlan::left_deep(&[0, 1]);
        for q in [base.clone().materialize().build(), base.group_count(&["city"]).build()] {
            for threads in [1, 4] {
                let engine =
                    FreeJoinEngine::new(FreeJoinOptions::default().with_num_threads(threads));
                let (_, stats) = engine.execute(&cat, &q, &plan).unwrap();
                let zero = std::time::Duration::ZERO;
                assert!(stats.aggregate_time > zero, "{:?} at {threads} threads", q.aggregate);
                assert!(stats.join_time > zero && stats.total_time() >= stats.reported_time());
            }
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
