//! Repeated-query serving: sessions, prepared queries, and the shared
//! caches that amortize planning and trie construction across executions.
//!
//! The paper's COLT amortizes trie building *within* one query by forcing
//! sub-tries lazily at probe time. A serving workload re-runs the same (or
//! structurally identical) queries constantly, so this module amortizes the
//! two remaining per-query costs *across* queries:
//!
//! * **Planning** — [`Session::prepare`] fingerprints the normalized query
//!   (query names and atom aliases canonicalized away, relation versions
//!   included; variable names are kept verbatim because the compiled
//!   artifact addresses tries through them) and looks the compiled pipeline
//!   bundle up in a [`fj_cache::PlanCache`]; only the first preparation of
//!   a shape runs the optimizer and plan compiler. A cache hit re-checks
//!   the full canonical form, so a fingerprint collision degrades to an
//!   uncached compile instead of executing the wrong plan.
//! * **Trie building** — [`Prepared::execute`] resolves each pipeline input
//!   to a [`fj_cache::TrieKey`] and fetches the trie from a shared
//!   [`fj_cache::TrieCache`]. An atom's key is `(relation, version, rendered
//!   filter, strategy, column key-order)`. PR 1 made tries `Arc`/
//!   `OnceLock`-based and `Send + Sync`, so one cached trie serves any
//!   number of concurrent queries — including both sides of a self-join,
//!   since keys use column positions rather than variable names. Racing
//!   cold lookups coalesce onto a single build (single-flight).
//! * **Joining sub-plans** — a bushy plan runs as left-deep pipelines whose
//!   materialized results are indexed like base relations, and here they
//!   are cached like them too. The pipelines are walked on demand from the
//!   final one (`engine::run_pipelines`), and an intermediate input is
//!   looked up under `(the plan's canonical text, the pipeline's index,
//!   (relation, current version, current rendered filter) of every atom
//!   under the pipeline, strategy, the consumer's key-order)` — exact, like
//!   an atom's key. On a hit the pipeline does not run and the tries of
//!   *its* inputs are not even looked up; on a miss it runs inside the
//!   cache's single-flight build, and a run that fails or is cancelled
//!   inserts nothing. The filters are read from the request's *propagated*
//!   query (below), so a pipeline no parameter reaches is one entry shared
//!   by every request of the shape, and one that reads an overridden atom —
//!   or a constant derived from one — has an entry per value. Which of a
//!   cheap-to-rebuild cover trie and an expensive intermediate yields its
//!   bytes is the cache's `build_cost × (1 + hits)` rule's business.
//!
//! **Equality constants follow their join variable**: before a session plans
//! a query or binds a request's inputs, [`fj_query::propagate_constants`]
//! gives every atom that shares a variable with a `column = constant` filter
//! the same constant on its own column. A point request (`title` overridden
//! with `id = K`) then fetches the per-key tries of the fact tables — a few
//! rows each, cached under the derived filter like any other — instead of
//! probing every row of every fact table into a one-row trie. The plan is
//! the prepared one; only the inputs shrink. `FreeJoinEngine` and the
//! baselines run queries as written.
//!
//! **Invalidation** is by construction: `fj_storage::Catalog` bumps a
//! monotonic version on every relation mutation, and the version is part of
//! the trie key — of every atom under an intermediate's pipeline, for its
//! key — and the plan fingerprint, so stale entries are simply never looked
//! up again and age out of the LRU. An execution therefore always
//! reads current data, even on a `Prepared` created before the mutation.
//!
//! **A warm request redoes only what its parameters change.** `prepare`
//! validates the query and renders the cache key of every pipeline input
//! once. While every relation is still at the version it saw, a request
//! checks only its overridden atoms' filter columns and renders only the
//! keys of the atoms whose filters its overrides (or the constants they
//! derive) changed, and of the intermediates over them; the others are
//! borrowed. Its query is a pooled clone of the prepared one with those
//! filters swapped in. A relation at another version sends the request
//! down the full path: the whole query validated, every key rendered.
//!
//! ```
//! use fj_query::QueryBuilder;
//! use fj_storage::{Catalog, RelationBuilder, Schema};
//! use free_join::session::{EngineCaches, ExecRequest, Session};
//! use std::sync::Arc;
//!
//! let mut catalog = Catalog::new();
//! let mut edges = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
//! for i in 0..100i64 {
//!     edges.push_ints(&[i % 10, (i + 1) % 10]).unwrap();
//! }
//! catalog.add(edges.finish()).unwrap();
//!
//! let caches = Arc::new(EngineCaches::with_defaults());
//! let session = Session::new(caches);
//! let query = QueryBuilder::new("two_hop")
//!     .atom_as("edge", "e1", &["a", "b"])
//!     .atom_as("edge", "e2", &["b", "c"])
//!     .count()
//!     .build();
//! let prepared = session.prepare(&catalog, &query).unwrap();
//! let cold = prepared.execute(&catalog, &ExecRequest::default()).unwrap();
//! let warm = prepared.execute(&catalog, &ExecRequest::default()).unwrap(); // trie & plan cache hits
//! assert_eq!(cold.output.cardinality(), warm.output.cardinality());
//! assert!(session.cache_stats().tries.hits > 0);
//! ```

use crate::cancel::CancelToken;
use crate::compile::{compile_query, CompiledPipeline, CompiledQuery};
use crate::engine::{run_pipelines, PipelinesRun, Produce};
use crate::error::{EngineError, EngineResult};
use crate::exec::Instruments;
use crate::options::FreeJoinOptions;
use crate::trie::InputTrie;
use fj_cache::{CacheStats, Fingerprinter, PlanCache, SourceAtom, TrieCache, TrieKey, TrieSource};
use fj_obs::{
    Counter, MetricsRegistry, NodeProfile, PipelineProfile, ProfileSheet, QueryProfile, QueryTrace,
    TraceCat,
};
use fj_plan::{
    optimize, CardinalityEstimator, CatalogStats, OptimizerOptions, PipeInput, SubPlanInfo,
    TableStats,
};
use fj_query::{
    propagate_constants, propagate_constants_in_place, Aggregate, Atom, ConjunctiveQuery,
    Derivation, ExecStats, QueryOutput,
};
use fj_storage::{Catalog, Predicate};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default trie-cache byte budget: enough for the working set of a serving
/// workload without letting tries crowd out the base data (tune per
/// deployment via [`EngineCaches::new`]).
pub const DEFAULT_TRIE_BUDGET_BYTES: usize = 256 << 20;

/// Default number of distinct prepared-query shapes kept in the plan cache.
pub const DEFAULT_PLAN_CAPACITY: usize = 512;

/// A cached plan bundle: the compiled pipelines together with the full
/// canonical form they were compiled from. The plan cache is keyed by a
/// 64-bit fingerprint of the canonical form; storing the form itself lets
/// [`Session::prepare`] verify every hit, so a fingerprint collision can
/// never silently execute another query's plan.
#[derive(Debug)]
pub struct CachedPlan {
    /// The canonical rendering of the (query, versions, options) this plan
    /// was compiled for — the preimage of the fingerprint, and what names
    /// the plan in the trie-cache key of each of its intermediates.
    canonical: Arc<str>,
    /// The compiled pipelines.
    compiled: CompiledQuery,
    /// The optimizer's estimated cardinality after each plan node, indexed
    /// `[pipeline][node]` in step with `compiled.pipelines` — computed once
    /// at prepare time from the same statistics the optimizer planned with,
    /// and paired with the executor's actuals by `EXPLAIN ANALYZE`.
    node_estimates: Vec<Vec<f64>>,
    /// Rendered node labels, same indexing — plan-static, so formatting
    /// them here keeps profiled executions from paying string building.
    node_labels: Vec<Vec<String>>,
    /// Rendered pipeline labels (position, role, pruned variables), one per
    /// pipeline, for the same reason.
    pipeline_labels: Vec<String>,
}

impl CachedPlan {
    /// The compiled pipelines.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// Per-node cardinality estimates, indexed `[pipeline][node]`.
    pub fn node_estimates(&self) -> &[Vec<f64>] {
        &self.node_estimates
    }
}

/// The display name of a pipeline input: the atom alias for a base
/// relation, `pipe<j>` for an intermediate.
fn input_name<'q>(query: &'q ConjunctiveQuery, inputs: &[PipeInput], input: usize) -> Cow<'q, str> {
    match inputs.get(input) {
        Some(PipeInput::Atom(a)) => Cow::Borrowed(query.atoms[*a].alias.as_str()),
        Some(PipeInput::Intermediate(i)) => Cow::Owned(format!("pipe{i}")),
        None => Cow::Owned(format!("#{input}")),
    }
}

/// A node label naming each subatom by its input, e.g. `[e1(a,b) e2(b)]`.
/// A subatom marked `x|rows|` is the last of an input with pruned variables:
/// reaching it multiplies the weight by the rows below the trie node, which
/// is where the bindings of the pruned variables went.
fn node_label(query: &ConjunctiveQuery, pipeline: &CompiledPipeline, k: usize) -> String {
    let mut label = String::from("[");
    let subatoms = pipeline.fj_plan.nodes[k].subatoms.iter().zip(&pipeline.plan.nodes[k].subatoms);
    for (j, (sub, compiled)) in subatoms.enumerate() {
        if j > 0 {
            label.push(' ');
        }
        let name = input_name(query, &pipeline.inputs, sub.input);
        let _ = write!(label, "{}({})", name, sub.vars.join(","));
        if compiled.final_for_input && !pipeline.pruned[sub.input].is_empty() {
            label.push_str(" x|rows|");
        }
    }
    label.push(']');
    label
}

/// A pipeline label: its position and role, then the variables dead-variable
/// pruning removed from each input, e.g. `pipeline 0 (final) pruned:
/// title{kind,year} keyword{cat}`.
fn pipeline_label(query: &ConjunctiveQuery, compiled: &CompiledQuery, p: usize) -> String {
    let role = if p == compiled.root_pipeline() { "final" } else { "intermediate" };
    let mut label = format!("pipeline {p} ({role})");
    let pipeline = &compiled.pipelines[p];
    let pruned: Vec<String> = (pipeline.pruned.iter().enumerate())
        .filter(|(_, vars)| !vars.is_empty())
        .map(|(i, vars)| {
            format!("{}{{{}}}", input_name(query, &pipeline.inputs, i), vars.join(","))
        })
        .collect();
    if !pruned.is_empty() {
        let _ = write!(label, " pruned: {}", pruned.join(" "));
    }
    label
}

/// The shared cache pair consulted by every [`Session`]. Create one per
/// process (or per tenant) and hand `Arc` clones to sessions on any number
/// of threads.
#[derive(Debug)]
pub struct EngineCaches {
    tries: TrieCache<InputTrie>,
    plans: PlanCache<CachedPlan>,
    /// The optimizer's statistics of each relation at the version they were
    /// collected from — one scan per relation version, however many shapes
    /// are prepared over it. Held while collecting, so racing preparers of
    /// one relation scan it once.
    table_stats: Mutex<HashMap<String, (u64, TableStats)>>,
    table_stats_collected: AtomicU64,
    /// Fetches of a bushy plan's intermediate that found its trie and that
    /// ran its pipeline: `fj_cache_pipe_hits` / `_misses`. Every such fetch
    /// is a lookup of the trie cache too, and counts in its cells like an
    /// atom's.
    pipe_hits: Counter,
    pipe_misses: Counter,
    /// Work-stealing scheduler totals over every execution that runs
    /// against this cache pair (the natural per-process scope — the scope
    /// the cache counters have): `fj_sched_tasks_spawned` / `_stolen`.
    tasks_spawned: Counter,
    tasks_stolen: Counter,
    /// Executor totals, same scope: bindings whose bound-ranked probe order
    /// differed from the plan's (every execution; `fj_exec_reorders`), and plan
    /// nodes whose profiled actuals bust their prepare-time estimate
    /// (profiled executions — actuals exist only when a profile is
    /// collected; `fj_exec_estimate_busts`).
    reorders: Counter,
    estimate_busts: Counter,
}

/// The typed readout of both caches, as returned by
/// [`Session::cache_stats`]. Every field is also a series of the metrics
/// exposition ([`EngineCaches::bind_metrics`]), read off the same cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Trie cache counters/gauges.
    pub tries: CacheStats,
    /// Plan cache counters/gauges (`resident_bytes` counts entries).
    pub plans: CacheStats,
    /// Fetches of a bushy plan's intermediate that found its trie, so the
    /// producing pipeline did not run (also counted in `tries`).
    pub pipe_hits: u64,
    /// Fetches of an intermediate that ran its pipeline (also in `tries`).
    pub pipe_misses: u64,
}

impl EngineCaches {
    /// Caches with an explicit trie byte budget and plan capacity.
    pub fn new(trie_budget_bytes: usize, plan_capacity: usize) -> Self {
        EngineCaches {
            tries: TrieCache::new(trie_budget_bytes),
            plans: PlanCache::new(plan_capacity),
            table_stats: Mutex::new(HashMap::new()),
            table_stats_collected: AtomicU64::new(0),
            pipe_hits: Counter::default(),
            pipe_misses: Counter::default(),
            tasks_spawned: Counter::default(),
            tasks_stolen: Counter::default(),
            reorders: Counter::default(),
            estimate_busts: Counter::default(),
        }
    }

    /// Caches with the default budget ([`DEFAULT_TRIE_BUDGET_BYTES`],
    /// [`DEFAULT_PLAN_CAPACITY`]).
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_TRIE_BUDGET_BYTES, DEFAULT_PLAN_CAPACITY)
    }

    /// The shared trie cache.
    pub fn tries(&self) -> &TrieCache<InputTrie> {
        &self.tries
    }

    /// The shared plan cache.
    pub fn plans(&self) -> &PlanCache<CachedPlan> {
        &self.plans
    }

    /// Relation scans made to collect optimizer statistics: one per relation
    /// version a prepared query has named.
    pub fn table_stats_collected(&self) -> u64 {
        self.table_stats_collected.load(Ordering::Relaxed)
    }

    /// The statistics of the relations `query` names, each collected at most
    /// once per relation version.
    fn stats_for(&self, catalog: &Catalog, query: &ConjunctiveQuery) -> EngineResult<CatalogStats> {
        let mut kept = self.table_stats.lock().expect("no panic while collecting statistics");
        let mut stats = CatalogStats::default();
        for atom in &query.atoms {
            if stats.tables.contains_key(&atom.relation) {
                continue;
            }
            let version = catalog.version_of(&atom.relation);
            if !matches!(kept.get(&atom.relation), Some((v, _)) if *v == version) {
                let table = TableStats::collect(&*catalog.get(&atom.relation)?);
                self.table_stats_collected.fetch_add(1, Ordering::Relaxed);
                kept.insert(atom.relation.clone(), (version, table));
            }
            stats.tables.insert(atom.relation.clone(), kept[&atom.relation].1.clone());
        }
        Ok(stats)
    }

    /// Eagerly reclaim every cached trie that reads `relation` (all
    /// versions; intermediates of pipelines over it included), its
    /// statistics and all cached plans. Never needed for correctness —
    /// mutations already make stale entries unreachable by key — but frees
    /// their budget immediately after a bulk reload.
    pub fn invalidate_relation(&self, relation: &str) -> u64 {
        // Plans embed relation versions in their fingerprints, so stale
        // plans are unreachable too; dropping them all keeps this simple and
        // correct (they rebuild in one prepare each).
        self.plans.clear();
        self.table_stats
            .lock()
            .expect("no panic while collecting statistics")
            .remove(relation);
        self.tries.invalidate_relation(relation)
    }

    /// Export every count this cache pair keeps into `registry`, once: the
    /// two caches' cells as `fj_cache_{trie,plan}_*`, the intermediates'
    /// share of the trie lookups as `fj_cache_pipe_*`, the scheduler totals
    /// as `fj_sched_*`, the executor's totals as `fj_exec_*`. The
    /// exposition then reads the cells executions bump; only the caches'
    /// shard-summed gauges need [`EngineCaches::stats`] before a scrape.
    pub fn bind_metrics(&self, registry: &MetricsRegistry) {
        self.tries.cells().bind(registry, "trie");
        self.plans.cells().bind(registry, "plan");
        registry.bind_counter("fj_cache_pipe_hits", &self.pipe_hits);
        registry.bind_counter("fj_cache_pipe_misses", &self.pipe_misses);
        registry.bind_counter("fj_sched_tasks_spawned", &self.tasks_spawned);
        registry.bind_counter("fj_sched_tasks_stolen", &self.tasks_stolen);
        registry.bind_counter("fj_exec_reorders", &self.reorders);
        registry.bind_counter("fj_exec_estimate_busts", &self.estimate_busts);
    }

    /// The typed readout of both caches (refreshing their resident-bytes
    /// and entry-count gauges).
    pub fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            tries: self.tries.stats(),
            plans: self.plans.stats(),
            pipe_hits: self.pipe_hits.get(),
            pipe_misses: self.pipe_misses.get(),
        }
    }
}

impl Default for EngineCaches {
    fn default() -> Self {
        Self::with_defaults()
    }
}

/// A serving session: engine + optimizer options bound to a shared
/// [`EngineCaches`]. Sessions are cheap to create (two `Arc` clones) and
/// `Send + Sync`; give each worker thread its own, all backed by one cache
/// pair.
#[derive(Debug, Clone)]
pub struct Session {
    options: FreeJoinOptions,
    optimizer: OptimizerOptions,
    caches: Arc<EngineCaches>,
}

impl Session {
    /// A session with default engine and optimizer options.
    pub fn new(caches: Arc<EngineCaches>) -> Self {
        Session {
            options: FreeJoinOptions::default(),
            optimizer: OptimizerOptions::default(),
            caches,
        }
    }

    /// Replace the engine options (builder style).
    pub fn with_options(mut self, options: FreeJoinOptions) -> Self {
        self.options = options;
        self
    }

    /// Replace the optimizer options (builder style).
    pub fn with_optimizer(mut self, optimizer: OptimizerOptions) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// The session's engine options.
    pub fn options(&self) -> &FreeJoinOptions {
        &self.options
    }

    /// The shared caches this session consults.
    pub fn caches(&self) -> &Arc<EngineCaches> {
        &self.caches
    }

    /// Current statistics of the shared caches.
    pub fn cache_stats(&self) -> SessionCacheStats {
        self.caches.stats()
    }

    /// Prepare a query: validate it, then fetch (or compute and cache) its
    /// optimized, compiled plan bundle. The returned [`Prepared`] is
    /// self-contained and `Send + Sync` — clone-free repeated execution from
    /// any thread.
    pub fn prepare(&self, catalog: &Catalog, query: &ConjunctiveQuery) -> EngineResult<Prepared> {
        query.validate(catalog).map_err(EngineError::Query)?;
        // Plan the query its constants imply: the plan-cache key, the
        // optimizer's estimates and the compiled plan all see the derived
        // filters, and an execution without overrides runs it as it is.
        let propagated = propagate_constants(query, catalog);
        let planned = propagated.query.as_ref();
        let canonical = canonical_query(catalog, planned, &self.optimizer, &self.options);
        let fingerprint = {
            let mut fp = Fingerprinter::new();
            fp.push_str(&canonical);
            fp.finish()
        };
        let build = || -> EngineResult<CachedPlan> {
            let stats = self.caches.stats_for(catalog, planned)?;
            let plan = optimize(planned, &stats, self.optimizer);
            if !plan.covers_query(planned) {
                return Err(EngineError::PlanDoesNotCoverQuery);
            }
            let compiled = compile_query(planned, &plan, &self.options)?;
            // Estimate each pipeline's per-node cardinalities with the same
            // statistics (and estimator mode) the optimizer just planned
            // with; pipelines are dependency-ordered, so every Intermediate
            // input's info is available when its consumer is estimated.
            let estimator = CardinalityEstimator::new(&stats, self.optimizer.mode);
            let mut infos: Vec<Option<SubPlanInfo>> = vec![None; compiled.pipelines.len()];
            let mut node_estimates = Vec::with_capacity(compiled.pipelines.len());
            let mut node_labels = Vec::with_capacity(compiled.pipelines.len());
            for (p, pipeline) in compiled.pipelines.iter().enumerate() {
                let (ests, info) = estimator.pipeline_node_estimates(
                    planned,
                    &pipeline.inputs,
                    &pipeline.fj_plan,
                    &infos,
                );
                node_estimates.push(ests);
                infos[p] = Some(info);
                node_labels.push(
                    (0..pipeline.fj_plan.nodes.len())
                        .map(|k| node_label(planned, pipeline, k))
                        .collect(),
                );
            }
            let pipeline_labels = (0..compiled.pipelines.len())
                .map(|p| pipeline_label(planned, &compiled, p))
                .collect();
            Ok(CachedPlan {
                canonical: canonical.as_str().into(),
                compiled,
                node_estimates,
                node_labels,
                pipeline_labels,
            })
        };
        let mut plan = self.caches.plans.try_get_or_build(fingerprint, || build().map(Arc::new))?;
        if *plan.canonical != *canonical {
            // Fingerprint collision between two distinct canonical forms:
            // compile this query uncached rather than run the wrong plan.
            plan = Arc::new(build()?);
        }
        let versions = query.atoms.iter().map(|a| catalog.version_of(&a.relation)).collect();
        let keys = InputKeys::new(catalog, planned, &plan, self.options.trie.name())?;
        Ok(Prepared {
            query: query.clone(),
            propagated: propagated.query.into_owned(),
            derived: propagated.derived,
            versions,
            keys: Arc::new(keys),
            pool: Arc::default(),
            plan,
            fingerprint,
            options: self.options,
            caches: Arc::clone(&self.caches),
        })
    }

    /// Prepare and execute in one call (the unbatched serving path).
    pub fn execute(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
    ) -> EngineResult<(QueryOutput, ExecStats)> {
        let report = self.prepare(catalog, query)?.execute(catalog, &ExecRequest::default())?;
        Ok((report.output, report.stats))
    }

    /// `EXPLAIN ANALYZE`: execute the query with profiling on and render the
    /// plan tree annotated with the optimizer's estimated rows next to the
    /// actuals the executor measured, plus per-node probe hit rates and
    /// coarse times. Returns the rendered report; ask [`Prepared::execute`]
    /// for a profile to get the structured [`QueryProfile`].
    pub fn explain_analyze(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
    ) -> EngineResult<String> {
        let request = ExecRequest { profile: true, ..ExecRequest::default() };
        let ExecReport { output, stats, profile, .. } =
            self.prepare(catalog, query)?.execute(catalog, &request)?;
        let profile = profile.expect("the request asked for a profile");
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ANALYZE {}", query.name);
        out.push_str(&profile.render());
        let _ = writeln!(
            out,
            "totals: output_rows={} probes={} probe_hits={} tries_built={} lazy_expansions={} \
             reorders={} estimate_busts={}",
            output.cardinality(),
            stats.probes,
            stats.probe_hits,
            stats.tries_built,
            stats.lazy_expansions,
            stats.reorders,
            profile.estimate_busts(),
        );
        Ok(out)
    }
}

/// Runtime parameters for one execution of a [`Prepared`] query: per-atom
/// selection overrides, addressed by atom alias. The cached plan is reused
/// as-is (plan shape does not depend on filter constants); tries are keyed
/// by the substituted filter's fingerprint, so each parameter value gets —
/// and thereafter shares — its own cached trie.
#[derive(Debug, Clone, Default)]
pub struct Params {
    filters: Vec<(String, Predicate)>,
}

impl Params {
    /// No overrides.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the filter of the atom with the given alias (builder style).
    pub fn with_filter(mut self, alias: impl Into<String>, filter: Predicate) -> Self {
        self.filters.push((alias.into(), filter));
        self
    }

    /// True when no overrides are set.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }
}

/// A prepared query: the compiled plan bundle plus everything needed to
/// execute it repeatedly against current data through the shared caches.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The query as given: what [`Params`] overrides replace filters of.
    query: ConjunctiveQuery,
    /// `query` with its equality constants propagated along their join
    /// variables ([`propagate_constants`]): what the plan was compiled for,
    /// and what an execution without overrides runs.
    propagated: ConjunctiveQuery,
    /// The conjuncts `propagated` has over `query`.
    derived: Vec<Derivation>,
    /// The version of each atom's relation when `prepare` validated the
    /// query, propagated its constants and rendered `keys`.
    versions: Vec<u64>,
    /// The trie-cache key of every pipeline input, rendered at prepare.
    keys: Arc<InputKeys>,
    /// Clones of `query` for requests with overrides ([`LentQuery`]).
    pool: Arc<Mutex<Vec<ConjunctiveQuery>>>,
    plan: Arc<CachedPlan>,
    fingerprint: u64,
    options: FreeJoinOptions,
    caches: Arc<EngineCaches>,
}

/// What one execution of a [`Prepared`] query is asked to do. The default
/// is the plain serving request: no overrides, no caller token, no
/// instruments.
#[derive(Debug, Clone, Default)]
pub struct ExecRequest {
    /// Per-atom filter overrides (see [`Params`]).
    pub params: Params,
    /// An externally controlled [`CancelToken`] (the serving path's
    /// per-request deadline and `Cancel` frames): polled at every
    /// task/morsel/flush boundary inside the executor and at pipeline
    /// boundaries; once it fires, the execution unwinds cooperatively and
    /// returns [`fj_query::QueryError::Cancelled`] with the partial stats
    /// gathered so far. Left disabled (the default), nothing can cancel the
    /// execution: a deadline or a result-byte budget is armed here, through
    /// [`CancelToken::with_limits`], and nowhere else.
    pub token: CancelToken,
    /// Collect the per-node [`QueryProfile`] (actuals paired with the
    /// optimizer's prepare-time estimates): the engine half of `EXPLAIN
    /// ANALYZE` and of the server's slow-query log.
    pub profile: bool,
    /// Record the [`QueryTrace`]: the session's structural ring (query →
    /// pipelines → trie fetches, a missed intermediate's pipeline nested in
    /// its fetch) plus one executor ring per worker,
    /// each tagged with its pipeline. Render with [`QueryTrace::span_tree`]
    /// (canonical, schedule-independent) or [`QueryTrace::to_chrome_json`]
    /// (full timeline for Perfetto).
    pub trace: bool,
}

/// What one execution of a [`Prepared`] query hands back.
#[derive(Debug)]
pub struct ExecReport {
    /// The query's result.
    pub output: QueryOutput,
    /// Layer times and work counts of this execution.
    pub stats: ExecStats,
    /// The per-node profile, when [`ExecRequest::profile`] asked for it.
    pub profile: Option<QueryProfile>,
    /// The span trace, when [`ExecRequest::trace`] asked for it.
    pub trace: Option<QueryTrace>,
}

/// Sessions and prepared queries cross worker threads in serving setups;
/// keep that checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<Prepared>();
};

impl Prepared {
    /// The fingerprint of the normalized query (the plan-cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The prepared query.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// Number of pipelines in the compiled plan.
    pub fn num_pipelines(&self) -> usize {
        self.plan.compiled.pipelines.len()
    }

    /// Execute against the current catalog contents — the one way to run a
    /// prepared query. Tries — of atoms and of a bushy plan's intermediates
    /// — are fetched from the shared cache keyed by each relation's
    /// *current* version, so a catalog mutation after `prepare`
    /// transparently forces a rebuild: results always reflect current data.
    ///
    /// The request's instruments are request-scoped and cost nothing when
    /// off: no sheet or ring is allocated and every instrumentation site is
    /// one branch. On, one merged [`ProfileSheet`] per pipeline that ran is
    /// paired with the prepare-time estimates (next to the description of
    /// every derived filter conjunct; a pipeline served from the cache is
    /// listed as such, without nodes), and the session ring and every
    /// per-worker executor ring are collected into one [`QueryTrace`].
    pub fn execute(&self, catalog: &Catalog, request: &ExecRequest) -> EngineResult<ExecReport> {
        let (options, params) = (&self.options, &request.params);
        let instruments = Instruments {
            profile: request.profile,
            trace: request.trace,
            token: request.token.clone(),
        };
        // While every relation is at the version `prepare` saw, what it
        // checked and rendered still holds: only what a parameter changes
        // is checked and rendered again.
        let current = self.versions_are_current(catalog);
        // The constants of this request follow their join variables before
        // anything is bound. Without overrides that is the rewrite `prepare`
        // made, unless a relation it read the schema of has been replaced.
        let lent;
        let (query, derived) = if params.is_empty() && (current || self.derived.is_empty()) {
            (&self.propagated, &self.derived[..])
        } else {
            lent = self.request_query(catalog, params, current)?;
            (lent.query(), &lent.derived[..])
        };
        let derived: Vec<String> = if request.profile {
            derived.iter().map(|d| d.describe(query)).collect()
        } else {
            Vec::new()
        };
        // Relations may have been replaced (even with a different schema)
        // since prepare, and the serving path must surface that as a typed
        // error, never a panic: then the whole query is validated again.
        if !current {
            query.validate(catalog).map_err(EngineError::Query)?;
        }
        let sources = self.keys.sources(catalog, query, &self.propagated, current);

        let caches = &*self.caches;
        let evictions0 = request.trace.then(|| caches.tries.stats().evictions);
        let cached = |input: PipeInput, _: &[Vec<String>], produce: Produce<'_>| {
            self.cached_trie(&sources, input, produce)
        };
        let PipelinesRun { output, stats, sheets, trace } =
            run_pipelines(&self.plan.compiled, catalog, query, options, &instruments, cached)?;
        let trace = trace.zip(evictions0).map(|((mut trace, mut ring), e0)| {
            let evicted = caches.tries.stats().evictions.saturating_sub(e0);
            if evicted > 0 {
                ring.instant(TraceCat::Evict, 0, evicted, &[]);
            }
            ring.end(TraceCat::Query, 0, output.cardinality());
            trace.attach(ring);
            trace
        });
        // A profiled run has per-node actuals: count the nodes that bust
        // their prepare-time estimate (the same predicate behind the
        // rendered `!` markers, so the counter reconciles with EXPLAIN
        // ANALYZE output).
        let profile = request.profile.then(|| self.assemble_profile(derived, &sheets));
        let busts = profile.as_ref().map_or(0, QueryProfile::estimate_busts);
        for (total, n) in [
            (&caches.tasks_spawned, stats.tasks_spawned),
            (&caches.tasks_stolen, stats.tasks_stolen),
            (&caches.reorders, stats.reorders),
            (&caches.estimate_busts, busts),
        ] {
            // A serial, static, unprofiled request leaves the shared lines alone.
            if n > 0 {
                total.add(n);
            }
        }
        Ok(ExecReport { output, stats, profile, trace })
    }

    /// Pair each pipeline's merged [`ProfileSheet`] with the prepare-time
    /// node estimates and human-readable labels into a [`QueryProfile`]. A
    /// pipeline without a sheet did not run — its rows were in a cached
    /// intermediate — and has a label saying so and no nodes: there are no
    /// actuals to set against its estimates.
    fn assemble_profile(
        &self,
        derived: Vec<String>,
        sheets: &[Option<ProfileSheet>],
    ) -> QueryProfile {
        let compiled = &self.plan.compiled;
        let mut pipelines = Vec::with_capacity(sheets.len());
        for (p, (pipeline, sheet)) in compiled.pipelines.iter().zip(sheets).enumerate() {
            let Some(sheet) = sheet else {
                let label = format!("pipeline {p} (intermediate, cached)");
                pipelines.push(PipelineProfile { label, nodes: Vec::new() });
                continue;
            };
            let ests = self.plan.node_estimates.get(p);
            let labels = self.plan.node_labels.get(p);
            let mut nodes = Vec::with_capacity(pipeline.fj_plan.nodes.len());
            for k in 0..pipeline.fj_plan.nodes.len() {
                let acc = sheet.nodes().get(k).copied().unwrap_or_default();
                nodes.push(NodeProfile {
                    label: labels.and_then(|l| l.get(k)).cloned().unwrap_or_default(),
                    estimated_rows: ests.and_then(|e| e.get(k)).copied().unwrap_or(1.0),
                    output_rows: acc.output_rows,
                    expansions: acc.expansions,
                    probes: acc.probes,
                    probe_hits: acc.probe_hits,
                    wall_nanos: acc.wall_nanos,
                });
            }
            pipelines.push(PipelineProfile { label: self.plan.pipeline_labels[p].clone(), nodes });
        }
        QueryProfile { derived, pipelines }
    }

    /// Is every atom's relation still at the version `prepare` saw? Then
    /// the schemas it validated the query and propagated its constants
    /// against are the current ones, and so are the snapshots in `keys`.
    fn versions_are_current(&self, catalog: &Catalog) -> bool {
        (self.query.atoms.iter().zip(&self.versions))
            .all(|(atom, version)| catalog.version_of(&atom.relation) == *version)
    }

    /// This request's query: a clone of the prepared query lent by its pool,
    /// with the overrides of `params` applied (their aliases checked against
    /// the prepared atoms, and their filter columns against the schemas too
    /// when the versions are `current`) and its constants propagated.
    fn request_query(
        &self,
        catalog: &Catalog,
        params: &Params,
        current: bool,
    ) -> EngineResult<LentQuery<'_>> {
        let pooled = self.pool.lock().expect("no panic while lending a query").pop();
        let mut lent = LentQuery {
            prepared: self,
            query: Some(pooled.unwrap_or_else(|| self.query.clone())),
            touched: Vec::with_capacity(params.filters.len()),
            derived: Vec::new(),
        };
        let query = lent.query.as_mut().expect("lent until dropped");
        for (alias, filter) in &params.filters {
            match query.atoms.iter().position(|a| &a.alias == alias) {
                Some(i) => {
                    lent.touched.push(i);
                    query.atoms[i].filter = filter.clone();
                }
                None => return Err(EngineError::UnknownAtomAlias(alias.clone())),
            }
        }
        if current {
            // The rest of the query is as `prepare` validated it, and the
            // conjuncts propagation derives read columns that exist.
            lent.touched.sort_unstable();
            lent.touched.dedup();
            for &i in &lent.touched {
                let atom = &query.atoms[i];
                let relation = catalog.get(&atom.relation).map_err(EngineError::Storage)?;
                atom.check_filter_columns(relation.schema()).map_err(EngineError::Query)?;
            }
        }
        lent.derived = propagate_constants_in_place(query, catalog);
        lent.touched.extend(lent.derived.iter().map(|d| d.atom));
        Ok(lent)
    }

    /// Fetch the shared trie of one pipeline input, or make it with
    /// `produce` (single-flight) and leave it in the cache. A hit skips
    /// everything `produce` stands for: an atom's selection and build, an
    /// intermediate's whole pipeline and the fetches of *its* inputs — which
    /// is the point of the subsystem. A `produce` that fails (a fault, a
    /// fired token) inserts nothing, and the lookups waiting on it retry.
    fn cached_trie(
        &self,
        sources: &[Cow<'_, SourceAtom>],
        input: PipeInput,
        produce: Produce<'_>,
    ) -> EngineResult<Arc<InputTrie>> {
        // Chaos failpoint: a fault in the cache-fetch path (e.g. a poisoned
        // shard) must surface as a typed error, not a panic.
        if fj_obs::chaos::should_fail("session.trie_fetch") {
            return Err(EngineError::Faulted("session.trie_fetch".into()));
        }
        let build_failpoint = match input {
            PipeInput::Atom(_) => "session.trie_build",
            PipeInput::Intermediate(_) => "session.pipe_build",
        };
        let key = self.keys.key(sources, input);
        let mut built_here = false;
        let trie = self.caches.tries.try_get_or_build(&key, || -> EngineResult<_> {
            built_here = true;
            // Chaos failpoint: mid-build faults (and injected panics, which
            // unwind through the single-flight build into the serve layer's
            // catch_unwind) happen inside the build closure, where they must
            // not wedge concurrent waiters.
            if fj_obs::chaos::should_fail(build_failpoint) {
                return Err(EngineError::Faulted(build_failpoint.into()));
            }
            let trie = produce()?;
            let bytes = trie.estimated_bytes();
            Ok((trie, bytes))
        })?;
        if let PipeInput::Intermediate(_) = input {
            let caches = &self.caches;
            (if built_here { &caches.pipe_misses } else { &caches.pipe_hits }).inc();
        }
        Ok(trie)
    }
}

/// Clones of its query a prepared query keeps for reuse: as many as there
/// were requests with overrides at once, up to this many.
const POOLED_QUERIES: usize = 16;

/// A request's query, lent by a prepared query's pool. The request changes
/// the filters of a few atoms — the overridden ones and those its constants
/// reach — and, once it is done, the prepared filters go back and the query
/// back into the pool: a request clones a filter or two instead of the
/// whole query, and frees nothing.
struct LentQuery<'a> {
    prepared: &'a Prepared,
    /// The query, until it goes back.
    query: Option<ConjunctiveQuery>,
    /// The atoms whose filter this request changed.
    touched: Vec<usize>,
    /// The conjuncts propagating its constants added.
    derived: Vec<Derivation>,
}

impl LentQuery<'_> {
    fn query(&self) -> &ConjunctiveQuery {
        self.query.as_ref().expect("lent until dropped")
    }
}

impl Drop for LentQuery<'_> {
    fn drop(&mut self) {
        // A request that unwound may have left a filter half-written: its
        // query is dropped, never lent again.
        let Some(mut query) = self.query.take().filter(|_| !std::thread::panicking()) else {
            return;
        };
        for &i in &self.touched {
            query.atoms[i].filter = self.prepared.query.atoms[i].filter.clone();
        }
        // A poisoned pool only loses this clone (a drop must not panic).
        if let Ok(mut pool) = self.prepared.pool.lock() {
            if pool.len() < POOLED_QUERIES {
                pool.push(query);
            }
        }
    }
}

/// The trie-cache key of every pipeline input, rendered by `prepare` from
/// the query it planned (constants propagated) at the versions it saw.
///
/// A cache key is exact — a relation snapshot is `(name, version, rendered
/// filter)` — so it changes only where a request's filters or a relation's
/// version do. A request borrows every snapshot and key nothing changed
/// ([`InputKeys::sources`]) and renders only the rest: an overridden atom,
/// the atoms its constants reach, and the intermediates over them.
///
/// An atom is the input of exactly one pipeline and so is an intermediate,
/// so an input names its key.
#[derive(Debug)]
struct InputKeys {
    /// The key of each atom's trie, whose source is the atom's snapshot as
    /// prepared.
    atom_keys: Vec<TrieKey>,
    /// The key of the trie over pipeline `j`'s result (none for the root,
    /// whose result is the query's).
    pipe_keys: Vec<Option<TrieKey>>,
    /// The atoms under each pipeline, transitively, in plan order.
    atoms_under: Vec<Vec<usize>>,
    /// The canonical text of the plan, which names it in every
    /// intermediate's key.
    plan: Arc<str>,
}

impl InputKeys {
    fn new(
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        plan: &CachedPlan,
        strategy: &'static str,
    ) -> EngineResult<Self> {
        let compiled = &plan.compiled;
        let atoms: Vec<SourceAtom> = query
            .atoms
            .iter()
            .map(|atom| source_atom(catalog, atom, Arc::from(atom.relation.as_str())))
            .collect();
        let atoms_under: Vec<Vec<usize>> =
            (0..compiled.pipelines.len()).map(|j| compiled.atoms_under(j)).collect();
        let mut atom_keys = vec![None; atoms.len()];
        let mut pipe_keys = vec![None; compiled.pipelines.len()];
        for pipeline in &compiled.pipelines {
            for (&input, schema) in pipeline.inputs.iter().zip(&pipeline.plan.schemas) {
                match input {
                    PipeInput::Atom(i) => {
                        let atom = &query.atoms[i];
                        let order = key_order(schema, |var| atom.var_position(var))?;
                        let source = TrieSource::Atom(atoms[i].clone());
                        atom_keys[i] = Some(TrieKey::new(source, strategy, order));
                    }
                    PipeInput::Intermediate(j) => {
                        let columns = &compiled.pipelines[j].plan.binding_order;
                        let order = key_order(schema, |var| columns.iter().position(|c| c == var))?;
                        let source = TrieSource::Pipeline {
                            plan: Arc::clone(&plan.canonical),
                            pipeline: j as u32,
                            atoms: atoms_under[j].iter().map(|&i| atoms[i].clone()).collect(),
                        };
                        pipe_keys[j] = Some(TrieKey::new(source, strategy, order));
                    }
                }
            }
        }
        let atom_keys = atom_keys.into_iter().collect::<Option<Vec<_>>>();
        Ok(InputKeys {
            atom_keys: atom_keys.ok_or(EngineError::PlanDoesNotCoverQuery)?,
            pipe_keys,
            atoms_under,
            plan: Arc::clone(&plan.canonical),
        })
    }

    /// The snapshot of its relation each atom of a request's (propagated)
    /// `query` reads: borrowed from `prepare` when the versions are
    /// `current` and the atom's filter is the one `prepared` gave it,
    /// rendered now otherwise.
    fn sources<'a>(
        &'a self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        prepared: &ConjunctiveQuery,
        current: bool,
    ) -> Vec<Cow<'a, SourceAtom>> {
        let atoms = query.atoms.iter().zip(&prepared.atoms).zip(&self.atom_keys);
        atoms
            .map(|((atom, as_prepared), key)| {
                let snapshot = &key.atoms()[0];
                if current && atom.filter == as_prepared.filter {
                    Cow::Borrowed(snapshot)
                } else {
                    Cow::Owned(source_atom(catalog, atom, Arc::clone(&snapshot.relation)))
                }
            })
            .collect()
    }

    /// The key of `input`'s trie when its atoms read `sources`: the one
    /// `prepare` rendered when they all are its own snapshots, a new one
    /// with the same key order otherwise.
    fn key<'a>(&'a self, sources: &[Cow<'a, SourceAtom>], input: PipeInput) -> Cow<'a, TrieKey> {
        let is_prepared = |i: &usize| matches!(sources[*i], Cow::Borrowed(_));
        match input {
            PipeInput::Atom(i) => {
                let prepared = &self.atom_keys[i];
                if is_prepared(&i) {
                    return Cow::Borrowed(prepared);
                }
                let source = TrieSource::Atom(sources[i].clone().into_owned());
                Cow::Owned(TrieKey::new(source, prepared.strategy(), prepared.key_order().clone()))
            }
            PipeInput::Intermediate(j) => {
                let prepared = self.pipe_keys[j].as_ref().expect("only the root has no consumer");
                let under = &self.atoms_under[j];
                if under.iter().all(is_prepared) {
                    return Cow::Borrowed(prepared);
                }
                let source = TrieSource::Pipeline {
                    plan: Arc::clone(&self.plan),
                    pipeline: j as u32,
                    atoms: under.iter().map(|&i| sources[i].clone().into_owned()).collect(),
                };
                Cow::Owned(TrieKey::new(source, prepared.strategy(), prepared.key_order().clone()))
            }
        }
    }
}

/// The snapshot of its relation (named `relation`) an atom reads now.
fn source_atom(catalog: &Catalog, atom: &Atom, relation: Arc<str>) -> SourceAtom {
    SourceAtom {
        version: catalog.version_of(&relation),
        relation,
        // The exact canonical rendering, not a hash: two distinct predicates
        // can never alias one trie (cf. the plan cache's canonical-form
        // re-check).
        filter: if atom.has_filter() { format!("{:?}", atom.filter).into() } else { "".into() },
    }
}

/// The column keyed by each variable of a trie schema, level by level.
fn key_order(
    schema: &[Vec<String>],
    column_of: impl Fn(&str) -> Option<usize>,
) -> EngineResult<Vec<Vec<u32>>> {
    let column = |var: &String| {
        let col = column_of(var).ok_or_else(|| EngineError::UnboundVariable(var.clone()))?;
        Ok(col as u32)
    };
    schema.iter().map(|level| level.iter().map(column).collect()).collect()
}

/// The canonical rendering of a query for plan caching: atom structure with
/// relation names, **versions**, variable names and filters, the
/// head/aggregate shape, and every option that influences planning. Query
/// names and atom aliases are normalized away (they never affect the plan);
/// variable names are kept **verbatim**, because the compiled artifact
/// addresses trie levels and output slots through them — two queries that
/// differ only by variable renaming compile separate (identical-shaped)
/// plans rather than sharing one unsoundly. Versions are included because
/// the optimizer's choice depends on the data distribution — mutated data
/// gets a fresh plan on next prepare.
fn canonical_query(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    optimizer: &OptimizerOptions,
    options: &FreeJoinOptions,
) -> String {
    let mut out = String::new();
    for atom in &query.atoms {
        let _ = write!(
            out,
            "{}@{}({});[{:?}];",
            atom.relation,
            catalog.version_of(&atom.relation),
            atom.vars.join(","),
            atom.filter
        );
    }
    let _ = write!(out, "head:{};", query.head.join(","));
    match &query.aggregate {
        Aggregate::Materialize => out.push_str("agg:materialize;"),
        Aggregate::Count => out.push_str("agg:count;"),
        Aggregate::GroupCount(vars) => {
            let _ = write!(out, "agg:group_count:{};", vars.join(","));
        }
    }
    let _ = write!(
        out,
        "opt:{:?};plan:{},{}",
        optimizer, options.optimize_plan, options.factorize_output
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TrieStrategy;
    use fj_query::QueryBuilder;
    use fj_storage::{CmpOp, RelationBuilder, Schema};
    use std::time::{Duration, Instant};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut edge = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
        for i in 0..60i64 {
            edge.push_ints(&[i % 12, (i + 1) % 12]).unwrap();
            edge.push_ints(&[i % 12, (i + 5) % 12]).unwrap();
        }
        cat.add(edge.finish()).unwrap();
        let mut person = RelationBuilder::new("person", Schema::all_int(&["id", "city"]));
        for i in 0..12i64 {
            person.push_ints(&[i, i % 3]).unwrap();
        }
        cat.add(person.finish()).unwrap();
        cat
    }

    fn two_hop() -> ConjunctiveQuery {
        QueryBuilder::new("two_hop")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "c"])
            .atom("person", &["c", "city"])
            .count()
            .build()
    }

    fn session() -> Session {
        Session::new(Arc::new(EngineCaches::with_defaults()))
    }

    #[test]
    fn warm_execution_matches_cold_and_hits_the_caches() {
        let cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let ExecReport { output: cold, stats: cold_stats, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        let after_cold = s.cache_stats();
        // Three atom inputs; the two self-join sides may share one trie key.
        assert!(after_cold.tries.misses <= 3);
        assert_eq!(after_cold.tries.lookups(), 3);
        let ExecReport { output: warm, stats: warm_stats, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        let after_warm = s.cache_stats();
        assert!(cold.result_eq(&warm));
        assert_eq!(after_warm.tries.misses, after_cold.tries.misses, "warm run misses nothing");
        assert_eq!(after_warm.tries.hits, after_cold.tries.hits + 3, "warm run is all hits");
        assert_eq!(warm_stats.build_time, Duration::ZERO, "warm runs build nothing");
        assert_eq!(warm_stats.tries_built, 0);
        assert!(cold_stats.tries_built > 0 || cold_stats.lazy_expansions > 0);
    }

    #[test]
    fn self_join_sides_share_one_cached_trie() {
        let cat = catalog();
        let s = session();
        let q = QueryBuilder::new("mutual")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "a"])
            .count()
            .build();
        let (_, _) = s.execute(&cat, &q).unwrap();
        let stats = s.cache_stats();
        // Keys use column positions, not variable names, so the two sides of
        // the self-join can share a trie when the plan keys them in the same
        // column order; the cache never stores more than the distinct orders.
        assert!(stats.tries.entries <= 2);
        assert_eq!(stats.tries.misses, stats.tries.entries + stats.tries.uncacheable);
    }

    #[test]
    fn prepare_caches_plans_by_normalized_shape() {
        let cat = catalog();
        let s = session();
        let a = s.prepare(&cat, &two_hop()).unwrap();
        // Query names and atom aliases are cosmetic: same fingerprint, hit.
        let realiased = QueryBuilder::new("other_name")
            .atom_as("edge", "x1", &["a", "b"])
            .atom_as("edge", "x2", &["b", "c"])
            .atom("person", &["c", "city"])
            .count()
            .build();
        let b = s.prepare(&cat, &realiased).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let stats = s.cache_stats();
        assert_eq!(stats.plans.misses, 1);
        assert_eq!(stats.plans.hits, 1);
        // Different aggregate → different shape.
        let grouped = QueryBuilder::new("grouped")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "c"])
            .atom("person", &["c", "city"])
            .group_count(&["city"])
            .build();
        let c = s.prepare(&cat, &grouped).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// Regression: a query that differs from a cached one only by variable
    /// renaming must prepare its *own* plan — the compiled artifact
    /// addresses tries and output slots through variable names, so sharing
    /// across renames executed the wrong plan (UnboundVariable at best,
    /// silently wrong columns at worst).
    #[test]
    fn variable_renamed_query_executes_correctly_after_cache_hit_shape() {
        let cat = catalog();
        let s = session();
        let original = s.prepare(&cat, &two_hop()).unwrap();
        let ExecReport { output: expected, .. } =
            original.execute(&cat, &ExecRequest::default()).unwrap();
        let misses_after_original = s.cache_stats().tries.misses;
        let renamed = QueryBuilder::new("renamed")
            .atom_as("edge", "x1", &["u", "v"])
            .atom_as("edge", "x2", &["v", "w"])
            .atom("person", &["w", "k"])
            .count()
            .build();
        let prepared = s.prepare(&cat, &renamed).unwrap();
        assert_ne!(original.fingerprint(), prepared.fingerprint());
        let ExecReport { output: out, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        assert!(out.result_eq(&expected), "renamed query must produce the same result");
        // The tries, keyed by column positions, ARE shared across renames:
        // the renamed query builds nothing new.
        assert_eq!(
            s.cache_stats().tries.misses,
            misses_after_original,
            "renamed query reused every cached trie"
        );
    }

    #[test]
    fn catalog_mutation_invalidates_by_version() {
        let mut cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let ExecReport { output: before, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        let misses_before = s.cache_stats().tries.misses;

        // Double every edge: the same Prepared must see the new data.
        let mut edge = RelationBuilder::new("edge", Schema::all_int(&["src", "dst"]));
        for i in 0..60i64 {
            for _ in 0..2 {
                edge.push_ints(&[i % 12, (i + 1) % 12]).unwrap();
                edge.push_ints(&[i % 12, (i + 5) % 12]).unwrap();
            }
        }
        cat.add_or_replace(edge.finish());

        let ExecReport { output: after, stats, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        assert!(after.cardinality() > before.cardinality(), "new data is visible");
        assert!(s.cache_stats().tries.misses > misses_before, "version bump forces a trie rebuild");
        assert!(stats.build_time > Duration::ZERO);
    }

    /// Optimizer statistics are collected once per relation version, not
    /// once per prepared shape: a second shape over the same relations scans
    /// nothing, a mutation makes the next prepare scan that relation alone.
    #[test]
    fn statistics_are_collected_once_per_relation_version() {
        let mut cat = catalog();
        let s = session();
        let scans = || s.caches().table_stats_collected();
        s.prepare(&cat, &two_hop()).unwrap();
        assert_eq!(scans(), 2, "edge and person");
        let one_hop = QueryBuilder::new("one_hop")
            .atom("edge", &["a", "b"])
            .atom("person", &["b", "city"])
            .count()
            .build();
        s.prepare(&cat, &one_hop).unwrap();
        assert_eq!((scans(), s.cache_stats().plans.misses), (2, 2), "a new shape, no new scan");

        cat.touch("person");
        s.prepare(&cat, &two_hop()).unwrap();
        assert_eq!((scans(), s.cache_stats().plans.misses), (3, 3), "person alone is rescanned");
        s.prepare(&cat, &one_hop).unwrap();
        assert_eq!((scans(), s.cache_stats().plans.misses), (3, 4));

        s.caches().invalidate_relation("edge");
        s.prepare(&cat, &one_hop).unwrap();
        assert_eq!(scans(), 4, "invalidation dropped edge's statistics");
    }

    #[test]
    fn params_override_filters_and_cache_separately() {
        let cat = catalog();
        let s = session();
        let q = QueryBuilder::new("filtered")
            .atom_as("edge", "e", &["a", "b"])
            .atom("person", &["b", "city"])
            .count()
            .build();
        let prepared = s.prepare(&cat, &q).unwrap();
        let ExecReport { output: all, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        let params = Params::new().with_filter("e", Predicate::cmp_const("src", CmpOp::Lt, 3i64));
        let request = ExecRequest { params, ..ExecRequest::default() };
        let some = prepared.execute(&cat, &request).unwrap().output;
        assert!(some.cardinality() < all.cardinality());
        assert!(some.cardinality() > 0);
        // Same params again: served from cache.
        let misses = s.cache_stats().tries.misses;
        let again = prepared.execute(&cat, &request).unwrap().output;
        assert_eq!(again.cardinality(), some.cardinality());
        assert_eq!(s.cache_stats().tries.misses, misses);
        // Unknown alias is a typed error.
        let bad = Params::new().with_filter("zz", Predicate::True);
        assert!(matches!(
            prepared.execute(&cat, &ExecRequest { params: bad, ..ExecRequest::default() }),
            Err(EngineError::UnknownAtomAlias(a)) if a == "zz"
        ));
    }

    /// One loop runs under both entry points, so it must also count one way:
    /// over a left-deep self-join, a bushy plan and a self-join whose sides
    /// share one cached trie, a cold `Session` (no constants to propagate)
    /// returns the uncached engine's output and its work counts at every
    /// strategy and thread count.
    #[test]
    fn session_matches_uncached_engine_across_strategies_and_threads() {
        let cat = catalog();
        // Range filters that keep every row tell the four inputs' cached
        // tries apart: a trie two inputs share is built once, and then a
        // session has less to count than an engine that builds two.
        let bushy = QueryBuilder::new("bushy")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "c"])
            .filter_last(Predicate::cmp_const("src", CmpOp::Ge, 0i64))
            .atom_as("edge", "e3", &["c", "d"])
            .filter_last(Predicate::cmp_const("dst", CmpOp::Ge, 0i64))
            .atom_as("edge", "e4", &["d", "e"])
            .filter_last(Predicate::cmp_const("src", CmpOp::Lt, 12i64))
            .head(&["a", "e"])
            .build();
        let mutual = QueryBuilder::new("mutual")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "a"])
            .group_count(&["a"])
            .build();
        for (q, is_bushy) in [(two_hop(), false), (bushy, true), (mutual, false)] {
            for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
                for threads in [1usize, 4] {
                    let ctx = format!("{} under {trie:?} x {threads} threads", q.name);
                    let opts = FreeJoinOptions { trie, ..FreeJoinOptions::default() }
                        .with_num_threads(threads);
                    let (reference, uncached) = crate::engine::FreeJoinEngine::new(opts)
                        .plan_and_execute(&cat, &q, OptimizerOptions::default())
                        .unwrap();
                    assert_eq!(uncached.intermediate_tuples > 0, is_bushy, "{ctx}");
                    let prepared = session().with_options(opts).prepare(&cat, &q).unwrap();
                    let counts = |s: &ExecStats| {
                        let trie_work = (s.tries_built, s.lazy_expansions);
                        (s.probes, s.probe_hits, trie_work, s.intermediate_tuples, s.output_tuples)
                    };
                    for warm in [false, true] {
                        let ExecReport { output, stats, .. } =
                            prepared.execute(&cat, &ExecRequest::default()).unwrap();
                        assert!(output.result_eq(&reference), "{ctx}, warm {warm}");
                        if !warm {
                            assert_eq!(counts(&stats), counts(&uncached), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    /// A bushy plan's intermediate is fetched like an atom's trie, and the
    /// trace shows it: a `built` fetch with the producing pipeline's span —
    /// its own fetches and nodes — nested inside, a `hit` fetch with nothing
    /// under it once the result is cached; and the profile of the warm run
    /// has no actuals to bust an estimate with.
    #[test]
    fn a_cached_intermediate_is_a_trie_fetch_in_the_trace_and_no_actuals_in_the_profile() {
        let cat = catalog();
        let q = QueryBuilder::new("bushy")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "c"])
            .filter_last(Predicate::cmp_const("src", CmpOp::Ge, 0i64))
            .atom_as("edge", "e3", &["c", "d"])
            .filter_last(Predicate::cmp_const("dst", CmpOp::Ge, 0i64))
            .atom_as("edge", "e4", &["d", "e"])
            .filter_last(Predicate::cmp_const("src", CmpOp::Lt, 12i64))
            .head(&["a", "e"])
            .build();
        let s = session().with_options(FreeJoinOptions::default().with_num_threads(1));
        let prepared = s.prepare(&cat, &q).unwrap();
        assert_eq!(prepared.num_pipelines(), 2);
        let request = ExecRequest { profile: true, trace: true, ..ExecRequest::default() };
        let cold = prepared.execute(&cat, &request).unwrap();
        let warm = prepared.execute(&cat, &request).unwrap();
        assert_eq!(cold.output, warm.output);

        let (cold_trace, warm_trace) = (cold.trace.unwrap(), warm.trace.unwrap());
        cold_trace.validate_nesting().unwrap();
        warm_trace.validate_nesting().unwrap();
        let fetches = |tree: String| -> Vec<String> {
            let lines = tree.lines().filter(|l| !l.trim_start().starts_with("node"));
            lines.map(str::to_string).collect()
        };
        assert_eq!(
            fetches(cold_trace.span_tree()),
            [
                "query",
                "  pipeline 1",
                "    trie_fetch input=0 built",
                "    trie_fetch input=1 built",
                "    trie_fetch input=2 built",
                "      pipeline 0",
                "        trie_fetch input=0 built",
                "        trie_fetch input=1 built",
            ]
        );
        assert_eq!(
            fetches(warm_trace.span_tree()),
            [
                "query",
                "  pipeline 1",
                "    trie_fetch input=0 hit",
                "    trie_fetch input=1 hit",
                "    trie_fetch input=2 hit",
            ]
        );
        let instants = |t: &QueryTrace, cat| t.count(fj_obs::TraceKind::Instant, cat);
        assert_eq!(instants(&cold_trace, TraceCat::TrieMiss), 5);
        assert_eq!(instants(&cold_trace, TraceCat::TrieHit), 0);
        assert_eq!(instants(&warm_trace, TraceCat::TrieMiss), 0);
        assert_eq!(instants(&warm_trace, TraceCat::TrieHit), 3);

        let (cold_profile, warm_profile) = (cold.profile.unwrap(), warm.profile.unwrap());
        assert_eq!(warm_profile.pipelines[0].label, "pipeline 0 (intermediate, cached)");
        assert_eq!(warm_profile.pipelines[1], {
            let mut expected = cold_profile.pipelines[1].clone();
            for (node, warm) in expected.nodes.iter_mut().zip(&warm_profile.pipelines[1].nodes) {
                node.wall_nanos = warm.wall_nanos;
            }
            expected
        });
        assert!(warm_profile.estimate_busts() <= cold_profile.estimate_busts());
        assert_eq!(warm_profile.total_probes(), warm.stats.probes);
    }

    /// Regression: replacing a relation with a different-schema one between
    /// prepare and execute must yield a typed error, not an out-of-bounds
    /// panic in var-type derivation.
    #[test]
    fn schema_change_after_prepare_is_a_typed_error() {
        let mut cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        prepared.execute(&cat, &ExecRequest::default()).unwrap();
        // 'edge' shrinks from two columns to one.
        cat.add_or_replace(RelationBuilder::new("edge", Schema::all_int(&["src"])).finish());
        match prepared.execute(&cat, &ExecRequest::default()) {
            Err(EngineError::Query(e)) => {
                assert!(e.to_string().contains("columns"), "unexpected error: {e}")
            }
            other => panic!("expected a typed arity error, got {other:?}"),
        }
    }

    /// Server workers share one `Session` (and its `Prepared`s) by
    /// reference without any external lock: `prepare` and `execute` take
    /// `&self` end to end, and all mutable state lives inside the caches'
    /// own shards. Pin that with an 8-thread hammer on ONE session and ONE
    /// prepared query — a regression to `&mut self` anywhere on the path
    /// stops this compiling, and hidden shared scratch state would corrupt
    /// results under the race.
    #[test]
    fn one_shared_session_executes_concurrently_without_locks() {
        let cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let ExecReport { output: expected, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        let expected_card = expected.cardinality();
        let misses_after_cold = s.cache_stats().tries.misses;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (s, prepared, cat) = (&s, &prepared, &cat);
                scope.spawn(move || {
                    for _ in 0..5 {
                        // Fresh prepare exercises the shared plan cache...
                        let p = s.prepare(cat, &two_hop()).unwrap();
                        let ExecReport { output: out, .. } =
                            p.execute(cat, &ExecRequest::default()).unwrap();
                        assert_eq!(out.cardinality(), expected_card);
                        // ...and the shared Prepared exercises trie reuse.
                        let ExecReport { output: out, .. } =
                            prepared.execute(cat, &ExecRequest::default()).unwrap();
                        assert_eq!(out.cardinality(), expected_card);
                    }
                });
            }
        });
        let stats = s.cache_stats();
        assert_eq!(stats.plans.misses, 1, "one compile served every thread");
        assert_eq!(stats.tries.misses, misses_after_cold, "no thread rebuilt a trie");
    }

    #[test]
    fn a_profiled_execution_reconciles_with_exec_stats() {
        let cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let ExecReport { output: out, stats, profile, trace } = prepared
            .execute(&cat, &ExecRequest { profile: true, ..ExecRequest::default() })
            .unwrap();
        let profile = profile.expect("the request asked for a profile");
        assert!(trace.is_none(), "and for no trace");
        // Per-node probe counts sum to the ExecStats totals, and the last
        // node's actual rows are the query's output cardinality.
        assert_eq!(profile.total_probes(), stats.probes);
        assert_eq!(profile.total_probe_hits(), stats.probe_hits);
        assert_eq!(profile.output_rows(), out.cardinality());
        // Every node carries a prepare-time estimate and saw real work.
        for pipeline in &profile.pipelines {
            assert!(!pipeline.nodes.is_empty());
            for node in &pipeline.nodes {
                assert!(node.estimated_rows >= 1.0, "{node:?}");
                // Inner independent-tail nodes attribute their enumeration
                // to the node that started the product, but every node
                // reports its actual output rows.
                assert!(node.output_rows > 0, "{node:?}");
                assert!(!node.label.is_empty());
            }
        }
        // The unprofiled path still returns identical results and counters.
        let ExecReport { output: plain, stats: plain_stats, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        assert!(plain.result_eq(&out));
        assert_eq!(plain_stats.probes, stats.probes);
    }

    #[test]
    fn explain_analyze_renders_estimates_and_actuals() {
        let cat = catalog();
        let s = session();
        let report = s.explain_analyze(&cat, &two_hop()).unwrap();
        assert!(report.starts_with("EXPLAIN ANALYZE two_hop"), "{report}");
        assert!(report.contains("pipeline 0 (final)"), "{report}");
        assert!(report.contains("est="), "{report}");
        assert!(report.contains("actual="), "{report}");
        assert!(report.contains("hit_rate="), "{report}");
        // Node labels name atoms by alias.
        assert!(report.contains("e1("), "{report}");
        let (out, _) = s.execute(&cat, &two_hop()).unwrap();
        assert!(report.contains(&format!("output_rows={}", out.cardinality())), "{report}");
    }

    /// `EXPLAIN ANALYZE` answers "why so few probes?" by itself: it lists
    /// the variables pruned from each input, and marks the subatoms that
    /// stand for them with a multiplicity.
    #[test]
    fn explain_analyze_shows_pruned_variables_and_folded_multiplicities() {
        let cat = catalog();
        let report = session().explain_analyze(&cat, &two_hop()).unwrap();
        assert!(report.contains("pipeline 0 (final) pruned:"), "{report}");
        assert!(report.contains(" e1{a}") && report.contains(" person{city}"), "{report}");
        assert!(report.contains("e1(b) x|rows|"), "{report}");
        assert!(report.contains("person(c) x|rows|"), "{report}");
        // e2 lost nothing: reaching its last subatom folds plain duplicates.
        assert!(!report.contains("e2(c) x|rows|") && !report.contains("e2(b) x|rows|"), "{report}");

        let enumerating =
            session().with_options(FreeJoinOptions::default().with_factorized_output(false));
        let report = enumerating.explain_analyze(&cat, &two_hop()).unwrap();
        assert!(!report.contains("pruned:") && !report.contains("x|rows|"), "{report}");
    }

    /// `EXPLAIN ANALYZE` says why an input the text does not filter has a
    /// handful of rows: each derived conjunct is listed with its source,
    /// whether the constant came in the text or as a parameter.
    #[test]
    fn explain_analyze_lists_derived_conjuncts_with_their_source() {
        let cat = catalog();
        let s = session();
        let mut pinned = two_hop();
        pinned.atoms[2].filter = Predicate::eq_const("id", 7i64);
        let report = s.explain_analyze(&cat, &pinned).unwrap();
        assert!(report.contains("derived: e2.dst = 7 <- person.id\n"), "{report}");
        assert_eq!(report.matches("derived:").count(), 1, "{report}");
        let engine = crate::engine::FreeJoinEngine::new(FreeJoinOptions::default());
        let (written, _) =
            engine.plan_and_execute(&cat, &pinned, OptimizerOptions::default()).unwrap();
        assert!(report.contains(&format!("output_rows={} ", written.cardinality())), "{report}");

        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let params = Params::new().with_filter("e1", Predicate::eq_const("dst", 3i64));
        let profile_of = |params: Params| {
            let request = ExecRequest { params, profile: true, ..ExecRequest::default() };
            prepared.execute(&cat, &request).unwrap().profile.expect("asked for")
        };
        let profile = profile_of(params);
        assert_eq!(profile.derived, ["e2.src = 3 <- e1.dst"]);
        assert!(profile.render().starts_with("derived: e2.src = 3 <- e1.dst\npipeline 0"));
        let plain = profile_of(Params::new());
        assert!(plain.derived.is_empty() && !plain.render().contains("derived"));
    }

    /// A cycle's closing atom is split by factoring: `EXPLAIN ANALYZE` shows
    /// both halves where they run, the estimator closes the cycle at the
    /// node that checks the second half (no spurious `!` on the first), and
    /// the per-node probe counts — scan probes included — still add up.
    #[test]
    fn explain_analyze_renders_both_halves_of_a_split_input() {
        let mut cat = Catalog::new();
        let mut knows = RelationBuilder::new("knows", Schema::all_int(&["src", "dst"]));
        // The complete directed graph on six nodes: 6 · 5 · 4 triangles, and
        // an independence estimate (30^3 / 6^3) that is about right.
        for (i, j) in (0..6i64).flat_map(|i| (0..6).map(move |j| (i, j))).filter(|(i, j)| i != j) {
            knows.push_ints(&[i, j]).unwrap();
        }
        cat.add(knows.finish()).unwrap();
        let triangle = QueryBuilder::new("triangle")
            .atom_as("knows", "k1", &["a", "b"])
            .atom_as("knows", "k2", &["b", "c"])
            .atom_as("knows", "k3", &["c", "a"])
            .count()
            .build();
        let s = session().with_options(FreeJoinOptions::default().with_num_threads(1));
        let report = s.explain_analyze(&cat, &triangle).unwrap();
        let node = |k: usize| {
            let line = report.lines().find(|l| l.trim_start().starts_with(&format!("node {k}:")));
            line.unwrap_or_else(|| panic!("no node {k} in {report}")).to_string()
        };
        // The same input appears in both nodes, one variable each.
        let split: Vec<&str> = ["k1", "k2", "k3"]
            .into_iter()
            .filter(|k| node(0).contains(&format!("{k}(")) && node(1).contains(&format!("{k}(")))
            .collect();
        assert_eq!(split.len(), 2, "the probed-then-iterated input and the split one: {report}");
        assert!(node(1).matches('(').count() == 2, "two covers over one variable: {report}");
        assert!(!report.contains(" ! "), "{report}");
        assert!(report.contains("estimate_busts=0"), "{report}");
        // Every list here has five rows: the final probes were scans and the
        // covers were walked, so only the two probed roots were ever built.
        assert!(report.contains(" tries_built=2 "), "{report}");

        let prepared = s.prepare(&cat, &triangle).unwrap();
        let ExecReport { output: out, stats, profile, .. } = prepared
            .execute(&cat, &ExecRequest { profile: true, ..ExecRequest::default() })
            .unwrap();
        let profile = profile.expect("the request asked for a profile");
        assert_eq!(out.cardinality(), 120);
        assert_eq!(profile.total_probes(), stats.probes);
        assert_eq!(profile.total_probe_hits(), stats.probe_hits);
        assert_eq!(profile.output_rows(), out.cardinality());
    }

    /// Regression: `factorize_output` decides the compiled plan, so it is
    /// part of the plan-cache key. Two sessions over one cache pair that
    /// differ only in the flag must not share a `CompiledQuery`.
    #[test]
    fn pruning_flag_is_part_of_the_plan_cache_key() {
        let cat = catalog();
        let caches = Arc::new(EngineCaches::with_defaults());
        let pruning = Session::new(Arc::clone(&caches));
        let enumerating = Session::new(Arc::clone(&caches))
            .with_options(FreeJoinOptions::default().with_factorized_output(false));
        let q = two_hop();
        let a = pruning.prepare(&cat, &q).unwrap();
        let b = enumerating.prepare(&cat, &q).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let stats = caches.stats().plans;
        assert_eq!((stats.misses, stats.hits), (2, 0), "two plan-cache entries");
        let nodes = |p: &Prepared| p.plan.compiled.pipelines[0].plan.nodes.len();
        assert!(nodes(&a) < nodes(&b), "{} vs {} nodes", nodes(&a), nodes(&b));
        let run = |p: &Prepared| p.execute(&cat, &ExecRequest::default()).unwrap().output;
        assert_eq!(run(&a), run(&b));
        // Each session finds its own entry again.
        assert_eq!(nodes(&pruning.prepare(&cat, &q).unwrap()), nodes(&a));
        assert_eq!(nodes(&enumerating.prepare(&cat, &q).unwrap()), nodes(&b));
        assert_eq!(caches.stats().plans.hits, 2);
    }

    /// A fired token surfaces as the typed `Cancelled` error carrying partial
    /// stats, and the same `Prepared` keeps working afterwards (no shared
    /// state is corrupted by the early unwind).
    #[test]
    fn cancelled_execution_is_typed_and_leaves_prepared_reusable() {
        use fj_query::{CancelReason, QueryError};
        let cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let ExecReport { output: expected, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();

        // Pre-fired explicit cancel: trips at the first boundary.
        let token = CancelToken::new();
        token.cancel(CancelReason::Explicit);
        match prepared.execute(&cat, &ExecRequest { token, ..ExecRequest::default() }) {
            Err(EngineError::Query(QueryError::Cancelled { reason, .. })) => {
                assert_eq!(reason, CancelReason::Explicit)
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // Already-expired deadline: trips as Deadline.
        let token = CancelToken::with_limits(Some(Instant::now()), 0);
        match prepared.execute(&cat, &ExecRequest { token, ..ExecRequest::default() }) {
            Err(EngineError::Query(QueryError::Cancelled { reason, .. })) => {
                assert_eq!(reason, CancelReason::Deadline)
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // A one-byte result budget: the materializing path trips MemoryBudget
        // once the first chunk flushes.
        let q = QueryBuilder::new("mat")
            .atom_as("edge", "e1", &["a", "b"])
            .atom_as("edge", "e2", &["b", "c"])
            .build();
        let p = s.prepare(&cat, &q).unwrap();
        let token = CancelToken::with_limits(None, 1);
        match p.execute(&cat, &ExecRequest { token, ..ExecRequest::default() }) {
            Err(EngineError::Query(QueryError::Cancelled { reason, partial_stats })) => {
                assert_eq!(reason, CancelReason::MemoryBudget);
                assert!(partial_stats.probes > 0, "partial stats reflect work done");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }

        // The shared Prepared still executes correctly after every trip.
        let ExecReport { output: after, .. } =
            prepared.execute(&cat, &ExecRequest::default()).unwrap();
        assert!(after.result_eq(&expected));
    }

    #[test]
    fn prepare_rejects_invalid_queries() {
        let cat = catalog();
        let s = session();
        let q = QueryBuilder::new("bad").atom("nope", &["x"]).build();
        assert!(matches!(s.prepare(&cat, &q), Err(EngineError::Query(_))));
        assert_eq!(s.cache_stats().plans.lookups(), 0, "invalid queries never reach the cache");
    }

    /// A request on the prepared versions checks only its overrides; one
    /// after a mutation validates the whole query. Both report a bad
    /// override with the error a full validation gives it.
    #[test]
    fn overrides_are_checked_on_either_path() {
        let mut cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let run = |cat: &Catalog, params: Params| {
            prepared.execute(cat, &ExecRequest { params, ..ExecRequest::default() })
        };
        let unknown_column = || {
            Params::new()
                .with_filter("e2", Predicate::cmp_const("src", CmpOp::Lt, 3i64))
                .with_filter("e1", Predicate::cmp_const("nope", CmpOp::Lt, 3i64))
        };
        let unknown_alias = || Params::new().with_filter("zz", Predicate::True);
        for mutated in [false, true] {
            if mutated {
                cat.touch("person");
            }
            match run(&cat, unknown_column()) {
                Err(EngineError::Query(fj_query::QueryError::UnknownFilterColumn {
                    alias,
                    column,
                })) => {
                    assert_eq!((alias.as_str(), column.as_str()), ("e1", "nope"))
                }
                other => panic!("expected an unknown filter column, got {other:?}"),
            }
            assert!(matches!(
                run(&cat, unknown_alias()),
                Err(EngineError::UnknownAtomAlias(a)) if a == "zz"
            ));
            // Failed requests left the prepared query as it was.
            let plain = run(&cat, Params::new()).unwrap().output;
            assert!(plain.result_eq(&s.execute(&cat, &two_hop()).unwrap().0), "mutated {mutated}");
        }
    }

    /// A request's overrides and the constants they derived are gone from
    /// the query the next request gets: each answers like a fresh engine
    /// running its own overrides, whichever ran just before it — also with four
    /// threads sharing the prepared query, each taking the overrides in
    /// another order.
    #[test]
    fn an_override_leaves_nothing_behind() {
        let cat = catalog();
        let s = session();
        let prepared = s.prepare(&cat, &two_hop()).unwrap();
        let overrides = [
            ("e1", Predicate::eq_const("src", 3i64)),
            ("person", Predicate::eq_const("id", 5i64)),
            ("e2", Predicate::cmp_const("dst", CmpOp::Gt, 6i64)),
        ];
        let expected: Vec<QueryOutput> = (overrides.iter())
            .map(|(alias, filter)| {
                let mut written = two_hop();
                written.atoms.iter_mut().find(|a| a.alias == *alias).unwrap().filter =
                    filter.clone();
                session().execute(&cat, &written).unwrap().0
            })
            .collect();
        let check = |k: usize| {
            let (alias, filter) = &overrides[k];
            let params = Params::new().with_filter(*alias, filter.clone());
            let request = ExecRequest { params, ..ExecRequest::default() };
            let served = prepared.execute(&cat, &request).unwrap().output;
            assert!(served.result_eq(&expected[k]), "{alias}");
        };
        // Every override right after every other one.
        for first in 0..expected.len() {
            for then in 0..expected.len() {
                check(first);
                check(then);
            }
        }
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (barrier, check, expected) = (&barrier, &check, &expected);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..20 {
                        check((t + round) % expected.len());
                    }
                });
            }
        });
    }
}
