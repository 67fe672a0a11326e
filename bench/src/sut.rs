//! The adapter to the system under test. **This is the only file of the
//! benchmark that names `freejoin` symbols** (README.md lists them), so a PR
//! that renames or collapses an engine entry point edits this file and no
//! other. Everything here is a thin, timed call into a public function; the
//! plain structs it returns carry no engine types.

use crate::stats::Rng;
use freejoin::baselines::{BinaryJoinEngine, GenericJoinEngine};
use freejoin::engine::prep::prepare_inputs;
use freejoin::engine::session::DEFAULT_PLAN_CAPACITY;
use freejoin::engine::{
    compile_query, EngineCaches, FreeJoinEngine, FreeJoinOptions, InputTrie, Session, TrieStrategy,
};
use freejoin::plan::{optimize, BinaryPlan, CatalogStats, OptimizerOptions};
use freejoin::query::{parse_filter, parse_query, ConjunctiveQuery, ExecStats};
use freejoin::serve::{
    Client, ClientError, PreparedHandle, Request, Response, Server, ServerConfig,
};
use freejoin::storage::Catalog;
use freejoin::workloads::job::{self, JobConfig};
use freejoin::workloads::lsqb::{self, LsqbConfig};
use freejoin::workloads::Workload;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Which generator a workload's catalog comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// `job::workload` at `JobConfig { movies: 5_000, people: 10_000, ..benchmark() }`.
    Job,
    /// `lsqb::workload` at `LsqbConfig { scale_factor: 1.0, persons_per_sf: 9_000, .. }`.
    Lsqb,
}

/// Row counts at `--scale 1`: the issue's sizes (10_000 movies, 20_000
/// people, 18_000 persons) times the common factor 0.5 that fits five or
/// more repetitions of each suite into the contract's run length.
const JOB_MOVIES: f64 = 5_000.0;
const JOB_PEOPLE: f64 = 10_000.0;
const LSQB_PERSONS: f64 = 9_000.0;

/// A generated catalog with its queries and statistics.
pub struct Instance {
    catalog: Arc<Catalog>,
    stats: CatalogStats,
    queries: Vec<(String, ConjunctiveQuery)>,
    pub input_rows: u64,
    pub gen_s: f64,
    pub stats_collect_s: f64,
}

/// Generate a workload's inputs.
///
/// The generators' own seed decides the *logical* instance: which keyword
/// lands in which category, how many rows the hottest movie has. That moves
/// single queries by 5x and a suite total by 15% from seed to seed, more than
/// any bound this benchmark could then keep. So the logical instance is
/// pinned to the generators' committed default seeds, and `--seed` decides
/// the physical one: the row order of every relation (and, in the serve
/// workloads, the request schedule). Answers are the same for every seed;
/// build order, hash-table insertion order and memory layout are not.
pub fn generate(dataset: Dataset, scale: f64, seed: u64) -> Instance {
    let start = Instant::now();
    let rows = |base: f64| ((base * scale).round() as usize).max(10);
    let workload: Workload = match dataset {
        Dataset::Job => job::workload(&JobConfig {
            movies: rows(JOB_MOVIES),
            people: rows(JOB_PEOPLE),
            ..JobConfig::benchmark()
        }),
        Dataset::Lsqb => lsqb::workload(&LsqbConfig {
            scale_factor: 1.0,
            persons_per_sf: rows(LSQB_PERSONS),
            ..LsqbConfig::default()
        }),
    };
    let mut catalog = Catalog::new();
    for name in workload.catalog.relation_names() {
        let relation = workload.catalog.get(name).expect("a listed relation exists");
        let order = Rng::new(seed, name).permutation(relation.num_rows());
        catalog.add(relation.gather(&order)).expect("relation names are unique");
    }
    let gen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let stats = CatalogStats::collect(&catalog);
    let stats_collect_s = start.elapsed().as_secs_f64();
    Instance {
        input_rows: catalog.total_rows() as u64,
        catalog: Arc::new(catalog),
        stats,
        queries: workload.queries.into_iter().map(|q| (q.name, q.query)).collect(),
        gen_s,
        stats_collect_s,
    }
}

impl Instance {
    pub fn query_names(&self) -> Vec<String> {
        self.queries.iter().map(|(name, _)| name.clone()).collect()
    }

    pub fn query_index(&self, name: &str) -> usize {
        self.queries
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("the generator has no query named {name}"))
    }

    /// Rows of one relation of the catalog.
    pub fn rows_of(&self, relation: &str) -> u64 {
        self.catalog.get(relation).expect("the relation exists").num_rows() as u64
    }

    /// The datalog text of a query, as it crosses the wire.
    pub fn query_text(&self, query: usize) -> String {
        self.queries[query].1.to_string()
    }

    /// A digest of every value of every relation in storage order: two
    /// instances are byte-identical inputs exactly when their digests match.
    pub fn digest(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for name in self.catalog.relation_names() {
            name.hash(&mut hasher);
            let relation = self.catalog.get(name).expect("a listed relation exists");
            for column in relation.columns() {
                for value in column.iter() {
                    value.hash(&mut hasher);
                }
            }
        }
        hasher.finish()
    }

    /// The query with one atom's filter replaced, as `Params` would on a
    /// prepared query.
    fn query_with_filter(&self, query: usize, alias: &str, filter: &str) -> ConjunctiveQuery {
        let mut q = self.queries[query].1.clone();
        let atom = q.atoms.iter_mut().find(|a| a.alias == alias).expect("the alias exists");
        atom.filter = parse_filter(filter).expect("the harness writes valid filters");
        q
    }
}

/// The engine one operation runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `FreeJoinEngine` with default options at a fixed thread count.
    FreeJoin {
        threads: usize,
    },
    Binary,
    Generic,
}

/// The layer durations and counts an `execute` call returns (`ExecStats`),
/// as plain numbers.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub select_s: f64,
    pub build_s: f64,
    pub join_s: f64,
    pub aggregate_s: f64,
    pub maps_built: u64,
    pub lazy_expansions: u64,
    pub probes: u64,
    pub probe_hits: u64,
    pub output_tuples: u64,
    pub result_chunks: u64,
    pub intermediate_tuples: u64,
    pub tasks_spawned: u64,
    pub tasks_stolen: u64,
    /// Largest share of expansions one worker processed; `None` when serial.
    pub max_worker_share: Option<f64>,
}

impl From<&ExecStats> for Layers {
    fn from(s: &ExecStats) -> Self {
        Layers {
            select_s: s.selection_time.as_secs_f64(),
            build_s: s.build_time.as_secs_f64(),
            join_s: s.join_time.as_secs_f64(),
            aggregate_s: s.aggregate_time.as_secs_f64(),
            maps_built: s.tries_built,
            lazy_expansions: s.lazy_expansions,
            probes: s.probes,
            probe_hits: s.probe_hits,
            output_tuples: s.output_tuples,
            result_chunks: s.result_chunks,
            intermediate_tuples: s.intermediate_tuples,
            tasks_spawned: s.tasks_spawned,
            tasks_stolen: s.tasks_stolen,
            max_worker_share: s.max_worker_share(),
        }
    }
}

/// One timed `optimize` + `execute`.
#[derive(Debug, Clone)]
pub struct Execution {
    pub cardinality: u64,
    pub start: Instant,
    pub optimized: Instant,
    pub end: Instant,
    pub layers: Layers,
}

impl Execution {
    pub fn optimize_s(&self) -> f64 {
        self.optimized.duration_since(self.start).as_secs_f64()
    }
    pub fn execute_s(&self) -> f64 {
        self.end.duration_since(self.optimized).as_secs_f64()
    }
    pub fn wall_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

fn left_deep_plan(query: &ConjunctiveQuery, stats: &CatalogStats) -> BinaryPlan {
    optimize(query, stats, OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() })
}

fn free_join_options(threads: usize) -> FreeJoinOptions {
    FreeJoinOptions::default().with_num_threads(threads)
}

/// Plan a query left-deep and execute it cold on one engine, optionally
/// with one atom's filter replaced (`(alias, filter text)`, as a serve
/// request would override it).
pub fn run_query(
    instance: &Instance,
    query: usize,
    filter: Option<(&str, &str)>,
    engine: Engine,
) -> Result<Execution, String> {
    let owned;
    let q = match filter {
        None => &instance.queries[query].1,
        Some((alias, text)) => {
            owned = instance.query_with_filter(query, alias, text);
            &owned
        }
    };
    let catalog = &*instance.catalog;
    let start = Instant::now();
    let plan = left_deep_plan(q, &instance.stats);
    let optimized = Instant::now();
    let result = match engine {
        Engine::FreeJoin { threads } => {
            FreeJoinEngine::new(free_join_options(threads)).execute(catalog, q, &plan)
        }
        Engine::Binary => BinaryJoinEngine::new().execute(catalog, q, &plan),
        Engine::Generic => GenericJoinEngine::new().execute(catalog, q, &plan),
    };
    let end = Instant::now();
    let (output, stats) = result.map_err(|e| e.to_string())?;
    Ok(Execution {
        cardinality: output.cardinality(),
        start,
        optimized,
        end,
        layers: Layers::from(&stats),
    })
}

/// Seconds one `parse_query` of the query's own text takes.
pub fn time_parse(instance: &Instance, query: usize) -> f64 {
    let text = instance.query_text(query);
    let start = Instant::now();
    black_box(parse_query(black_box(&text)).expect("a query's rendering parses back"));
    start.elapsed().as_secs_f64()
}

/// Seconds one left-deep `optimize` of the query takes.
pub fn time_optimize(instance: &Instance, query: usize) -> f64 {
    let start = Instant::now();
    black_box(left_deep_plan(&instance.queries[query].1, &instance.stats));
    start.elapsed().as_secs_f64()
}

/// Seconds one `compile_query` of the query over its left-deep plan takes
/// (the step `FreeJoinEngine::execute` runs first and does not time).
pub fn time_compile(instance: &Instance, query: usize) -> f64 {
    let q = &instance.queries[query].1;
    let plan = left_deep_plan(q, &instance.stats);
    let start = Instant::now();
    black_box(compile_query(q, &plan, &free_join_options(1)).expect("the plan compiles"));
    start.elapsed().as_secs_f64()
}

/// Seconds it takes to build every input trie of the query eagerly
/// (`TrieStrategy::Simple`): the cost the lazy COLT strategy avoids.
pub fn time_eager_build(instance: &Instance, query: usize) -> f64 {
    let q = &instance.queries[query].1;
    let plan = left_deep_plan(q, &instance.stats);
    let compiled = compile_query(q, &plan, &free_join_options(1)).expect("the plan compiles");
    let prepared = prepare_inputs(&instance.catalog, q).expect("the query binds");
    let mut total = 0.0;
    for pipeline in &compiled.pipelines {
        for (input, schema) in pipeline.inputs.iter().zip(&pipeline.plan.schemas) {
            // Left-deep plans have no intermediate inputs; skip any defensively.
            let freejoin::plan::PipeInput::Atom(atom) = *input else { continue };
            let start = Instant::now();
            black_box(InputTrie::build(
                &prepared.atoms[atom],
                schema.clone(),
                TrieStrategy::Simple,
            ));
            total += start.elapsed().as_secs_f64();
        }
    }
    total
}

/// An in-process `fj-serve` server on a loopback port: 2 workers, a session
/// at `num_threads = 1`, every other setting at its default.
pub struct Served {
    server: Server,
    pub addr: SocketAddr,
}

/// Start the server over the instance's catalog. `trie_budget` is the trie
/// cache's byte budget; `None` keeps the engine's default.
pub fn start_server(instance: &Instance, trie_budget: Option<usize>) -> Served {
    let caches = match trie_budget {
        None => EngineCaches::with_defaults(),
        Some(bytes) => EngineCaches::new(bytes, DEFAULT_PLAN_CAPACITY),
    };
    let session = Session::new(Arc::new(caches)).with_options(free_join_options(1));
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", Arc::clone(&instance.catalog), session, config)
        .expect("a loopback port binds");
    let addr = server.local_addr();
    Served { server, addr }
}

impl Served {
    /// Wait for the acceptor and the workers to end (after a shutdown frame).
    pub fn join(self) {
        self.server.join();
    }
}

/// What one wire request came back with.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub cardinality: u64,
    pub tries_built: u64,
    pub service_us: u64,
}

/// Why a wire request did not produce an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Shed by admission control; the request was not run.
    Busy,
    /// A typed server error or a transport failure.
    Error(String),
}

impl From<ClientError> for Failure {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Busy { .. } => Failure::Busy,
            other => Failure::Error(other.to_string()),
        }
    }
}

/// One blocking client connection.
pub struct Conn(Client);

/// A prepared query's server-side handle.
#[derive(Debug, Clone, Copy)]
pub struct Handle(PreparedHandle);

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, Failure> {
        Client::connect(addr).map(Conn).map_err(|e| Failure::Error(e.to_string()))
    }

    pub fn prepare(&mut self, instance: &Instance, query: usize) -> Result<Handle, Failure> {
        let q = &instance.queries[query].1;
        Ok(Handle(self.0.prepare(q.to_string(), q.aggregate.clone())?))
    }

    /// One round trip: execute the handle with one atom's filter overridden.
    pub fn execute_with(
        &mut self,
        handle: Handle,
        alias: &str,
        filter: &str,
    ) -> Result<Reply, Failure> {
        let answer = self.0.execute_with(handle.0, &[(alias, filter)])?;
        Ok(Reply {
            cardinality: answer.cardinality,
            tries_built: answer.tries_built,
            service_us: answer.service_us,
        })
    }

    /// The server's metrics registry as Prometheus text.
    pub fn metrics(&mut self) -> Result<String, Failure> {
        Ok(self.0.metrics()?)
    }

    pub fn shutdown_server(&mut self) -> Result<(), Failure> {
        Ok(self.0.shutdown_server()?)
    }
}

/// Nanoseconds to encode and decode one Execute request and its Answer,
/// without a socket: the codec's share of a round trip.
pub fn codec_ns(iterations: u32) -> f64 {
    let request = Request::Execute {
        handle: 7,
        params: vec![("title".to_string(), "id = 4711".to_string())],
        request_id: 0,
        deadline_ms: 0,
    };
    let response = Response::Answer { cardinality: 123_456, tries_built: 2, service_us: 1_500 };
    let start = Instant::now();
    for _ in 0..iterations {
        let bytes = black_box(&request).encode();
        black_box(Request::decode(black_box(&bytes)).expect("an encoded request decodes"));
        let bytes = black_box(&response).encode();
        black_box(Response::decode(black_box(&bytes)).expect("an encoded response decodes"));
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(iterations)
}
