//! Query outputs and execution statistics.
//!
//! Every execution engine in this workspace (binary hash join, Generic Join,
//! Free Join) produces the same [`QueryOutput`] so that integration tests can
//! assert cross-engine equivalence, and the same [`ExecStats`] so that the
//! benchmark harness can report the paper's measurements (join time excluding
//! selection and aggregation, build time, intermediate sizes).

use crate::query::QueryError;
use fj_storage::{Row, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// What to do with the join result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Aggregate {
    /// Materialize the full result tuples (projected onto the head).
    #[default]
    Materialize,
    /// `COUNT(*)` over the join result.
    Count,
    /// `GROUP BY <vars>, COUNT(*)` — the "simple group-by at the end" the
    /// paper's benchmark queries carry.
    GroupCount(Vec<String>),
}

impl Aggregate {
    /// Group-count over the given variables.
    pub fn group_count(vars: &[&str]) -> Self {
        Aggregate::GroupCount(vars.iter().map(|s| s.to_string()).collect())
    }

    /// The variables this aggregate reads from each result tuple: the query
    /// `head` for `Materialize`, the grouping variables for `GroupCount`,
    /// none for `Count`. Everything else a join binds is invisible to the
    /// output (which is what lets the plan compiler prune it).
    pub fn output_vars<'a>(&'a self, head: &'a [String]) -> &'a [String] {
        match self {
            Aggregate::Materialize => head,
            Aggregate::Count => &[],
            Aggregate::GroupCount(vars) => vars,
        }
    }
}

/// The result of evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputKind {
    /// Number of result tuples (with multiplicity — bag semantics).
    Count(u64),
    /// Materialized result rows in head-variable order.
    Rows(Vec<Row>),
    /// Group-by counts: group key (in the aggregate's variable order) to count.
    Groups(HashMap<Row, u64>),
}

/// A query result together with its output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The variables labelling the columns of `Rows` output (the query head),
    /// or the grouping variables for `Groups` output.
    pub vars: Vec<String>,
    /// The result payload.
    pub kind: OutputKind,
}

impl QueryOutput {
    /// A count-only output.
    pub fn count(count: u64) -> Self {
        QueryOutput { vars: Vec::new(), kind: OutputKind::Count(count) }
    }

    /// A materialized output.
    pub fn rows(vars: Vec<String>, rows: Vec<Row>) -> Self {
        QueryOutput { vars, kind: OutputKind::Rows(rows) }
    }

    /// A grouped output.
    pub fn groups(vars: Vec<String>, groups: HashMap<Row, u64>) -> Self {
        QueryOutput { vars, kind: OutputKind::Groups(groups) }
    }

    /// Total number of result tuples (with multiplicity), regardless of kind.
    pub fn cardinality(&self) -> u64 {
        match &self.kind {
            OutputKind::Count(c) => *c,
            OutputKind::Rows(rows) => rows.len() as u64,
            OutputKind::Groups(groups) => groups.values().sum(),
        }
    }

    /// Materialized rows sorted into a canonical order, for order-insensitive
    /// comparison in tests. Panics if the output is not `Rows`.
    pub fn canonical_rows(&self) -> Vec<Row> {
        match &self.kind {
            OutputKind::Rows(rows) => {
                let mut rows = rows.clone();
                rows.sort_by(|a, b| {
                    for (x, y) in a.iter().zip(b.iter()) {
                        let ord = x.total_cmp(*y);
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    a.len().cmp(&b.len())
                });
                rows
            }
            other => panic!("canonical_rows called on non-Rows output: {other:?}"),
        }
    }

    /// Check semantic equality with another output, insensitive to row order.
    /// Outputs of different kinds are compared by cardinality only when one
    /// of them is a `Count`.
    pub fn result_eq(&self, other: &QueryOutput) -> bool {
        match (&self.kind, &other.kind) {
            (OutputKind::Count(_), _) | (_, OutputKind::Count(_)) => {
                self.cardinality() == other.cardinality()
            }
            (OutputKind::Rows(_), OutputKind::Rows(_)) => {
                self.vars == other.vars && self.canonical_rows() == other.canonical_rows()
            }
            (OutputKind::Groups(a), OutputKind::Groups(b)) => self.vars == other.vars && a == b,
            _ => false,
        }
    }
}

/// Capacity of one [`ResultChunk`]: how many result tuples an engine buffers
/// before handing them downstream in a single call.
pub const CHUNK_CAPACITY: usize = 1024;

/// A column-major batch of result tuples: one `Vec<Value>` per output column
/// plus a parallel weights column, capped at [`CHUNK_CAPACITY`] entries.
///
/// Chunks are the unit of the workspace's result pipeline: the join's inner
/// loop appends bindings into a chunk and hands it to the pipeline's
/// [`OutputBuilder`] in one call, so the per-tuple costs of a row-at-a-time
/// boundary (a call, a bounds-checked slice copy, a heap `Vec<Value>` row)
/// are paid once per ~1024 tuples instead. The weights column carries bag-semantics
/// multiplicities *and* factorized partial-tuple weights: an entry with
/// weight `w` stands for `w` full result tuples without enumerating them,
/// and consumers that materialize expand the shared values lazily (see
/// [`OutputBuilder::finish`]).
///
/// A chunk's columns are already **projected**: they hold exactly the
/// columns its consumer asked for (a counting consumer has zero columns and
/// pays only for weights), in the consumer's declared order — not the full
/// binding-order tuple.
#[derive(Debug, Clone)]
pub struct ResultChunk {
    /// Column-major values: `columns[c]` holds one value per entry.
    columns: Vec<Vec<Value>>,
    /// Multiplicity per entry; never zero.
    weights: Vec<u64>,
}

impl ResultChunk {
    /// An empty chunk with `num_columns` columns, each sized for
    /// [`CHUNK_CAPACITY`] entries.
    pub fn new(num_columns: usize) -> Self {
        ResultChunk {
            columns: (0..num_columns).map(|_| Vec::with_capacity(CHUNK_CAPACITY)).collect(),
            weights: Vec::with_capacity(CHUNK_CAPACITY),
        }
    }

    /// Number of columns per entry.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of entries (distinct stored tuples, *not* multiplied by
    /// weight).
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// True when the chunk reached [`CHUNK_CAPACITY`] and must be flushed.
    pub fn is_full(&self) -> bool {
        self.weights.len() >= CHUNK_CAPACITY
    }

    /// Remove every entry, keeping the allocated capacity.
    pub fn clear(&mut self) {
        for column in &mut self.columns {
            column.clear();
        }
        self.weights.clear();
    }

    /// Append one entry whose values are exactly the chunk's columns, in
    /// order. Weight-0 entries are dropped (they stand for no tuples).
    #[inline]
    pub fn push(&mut self, values: &[Value], weight: u64) {
        debug_assert_eq!(values.len(), self.columns.len());
        if weight == 0 {
            return;
        }
        for (column, &v) in self.columns.iter_mut().zip(values) {
            column.push(v);
        }
        self.weights.push(weight);
    }

    /// Append one entry by projecting `slots` out of a full binding-order
    /// tuple (the executor's zero-copy append: values go straight from the
    /// binding buffer into the columns, no staging row).
    #[inline]
    pub fn push_projected(&mut self, tuple: &[Value], slots: &[usize], weight: u64) {
        debug_assert_eq!(slots.len(), self.columns.len());
        if weight == 0 {
            return;
        }
        for (column, &slot) in self.columns.iter_mut().zip(slots) {
            column.push(tuple[slot]);
        }
        self.weights.push(weight);
    }

    /// Total result tuples the chunk stands for (the sum of its weights) —
    /// the count metadata consumers read without expanding rows.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// One column's values.
    pub fn column(&self, c: usize) -> &[Value] {
        &self.columns[c]
    }

    /// The weights column.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Collect entry `i`'s values into a row (test/expansion helper).
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|column| column[i]).collect()
    }

    /// Expand this chunk's entries into `rows`, honouring weights: a
    /// weight-`w` entry becomes `w` copies of its row, in entry order. The
    /// single place chunk storage turns into row vectors: the public row
    /// boundary, [`OutputBuilder::finish`] — of a query's output or of a
    /// bushy plan's intermediate alike — goes through it.
    pub fn expand_into(&self, rows: &mut Vec<Row>) {
        for i in 0..self.len() {
            let row = self.row(i);
            for _ in 1..self.weights[i] {
                rows.push(row.clone());
            }
            rows.push(row);
        }
    }
}

/// Accumulates join result tuples into a [`QueryOutput`] according to an
/// [`Aggregate`] specification.
///
/// It is what every pipeline of every engine emits into: the final
/// pipeline's builder applies the query's head and aggregate, an
/// intermediate's materializes its whole binding order. Engines feed it
/// whole [`ResultChunk`]s (the hot path — chunks arrive already projected
/// onto [`OutputBuilder::positions`], see [`OutputBuilder::push_chunk`]);
/// single full binding-order tuples go through
/// [`OutputBuilder::push_weighted`]. Pushing with a weight supports
/// bag-semantics multiplicities and factorized counting, where an engine
/// knows that a partial binding expands into `weight` result tuples without
/// enumerating them. Materialized results are stored as chunks — one shared copy of a
/// weighted tuple's values — and only expanded into rows at
/// [`OutputBuilder::finish`].
#[derive(Debug, Clone)]
pub struct OutputBuilder {
    aggregate: Aggregate,
    vars: Vec<String>,
    /// Positions (in the binding order) of the variables to project onto.
    positions: Vec<usize>,
    /// Materialized output: projected chunks in emission order (the lazy row
    /// store; rows are expanded at `finish`).
    chunks: Vec<ResultChunk>,
    /// Running total of result tuples (with multiplicity) — chunk metadata,
    /// so counts are readable without expanding any rows.
    total: u64,
    /// Chunks received through `push_chunk` (observability).
    chunks_received: u64,
    groups: HashMap<Row, u64>,
}

impl OutputBuilder {
    /// Create a builder.
    ///
    /// * `head` — the query head variables (used for `Materialize`).
    /// * `aggregate` — what to compute.
    /// * `binding_order` — the order in which the engine lays out variable
    ///   values in each pushed tuple.
    ///
    /// # Panics
    /// Panics if a projected/grouped variable is missing from the binding
    /// order; engines running user-supplied queries should use
    /// [`OutputBuilder::try_new`] instead and surface the typed error.
    pub fn new(head: &[String], aggregate: Aggregate, binding_order: &[String]) -> Self {
        Self::try_new(head, aggregate, binding_order).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: returns [`QueryError::UnboundOutputVar`] when a
    /// projected or grouped variable is missing from the binding order,
    /// instead of panicking. This is the entry point the execution engines
    /// use, so a plan that fails to bind an output variable turns into an
    /// `Err` on the query path rather than aborting the process.
    pub fn try_new(
        head: &[String],
        aggregate: Aggregate,
        binding_order: &[String],
    ) -> Result<Self, QueryError> {
        // COUNT(*) needs no output columns at all.
        let vars: Vec<String> = aggregate.output_vars(head).to_vec();
        let mut positions = Vec::with_capacity(vars.len());
        for v in &vars {
            match binding_order.iter().position(|b| b == v) {
                Some(p) => positions.push(p),
                None => return Err(QueryError::UnboundOutputVar(v.clone())),
            }
        }
        Ok(OutputBuilder {
            aggregate,
            vars,
            positions,
            chunks: Vec::new(),
            total: 0,
            chunks_received: 0,
            groups: HashMap::new(),
        })
    }

    /// Positions (in the engine's binding order) of the variables this
    /// builder consumes — the projection chunks fed to
    /// [`OutputBuilder::push_chunk`] must carry, in this order. Empty for
    /// `COUNT(*)`: a counting builder needs no columns at all.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Push one result tuple (in binding order) with multiplicity 1.
    pub fn push(&mut self, tuple: &[Value]) {
        self.push_weighted(tuple, 1);
    }

    /// Push one full binding-order result tuple with the given multiplicity
    /// (the per-tuple path; the engines' hot path is
    /// [`OutputBuilder::push_chunk`]).
    pub fn push_weighted(&mut self, tuple: &[Value], weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        match &self.aggregate {
            Aggregate::Count => {}
            Aggregate::Materialize => {
                // Store the projected values once, whatever the weight; rows
                // are expanded lazily at `finish`.
                if self.chunks.last().is_none_or(|c| c.is_full()) {
                    self.chunks.push(ResultChunk::new(self.positions.len()));
                }
                let chunk = self.chunks.last_mut().expect("a chunk was just ensured");
                chunk.push_projected(tuple, &self.positions, weight);
            }
            Aggregate::GroupCount(_) => {
                let key: Row = self.positions.iter().map(|&p| tuple[p]).collect();
                *self.groups.entry(key).or_insert(0) += weight;
            }
        }
    }

    /// Consume one chunk of results. The chunk's columns must already be
    /// projected onto [`OutputBuilder::positions`], in that order — this is
    /// what the executor's chunk buffer produces — so no per-tuple
    /// projection or copy happens here: counting reads only the weights
    /// column, grouping reads the key columns, and materialization stores
    /// the chunk wholesale (a handful of bulk column clones per ~1024
    /// tuples).
    pub fn push_chunk(&mut self, chunk: &ResultChunk) {
        if chunk.is_empty() {
            return;
        }
        debug_assert_eq!(chunk.num_columns(), self.positions.len());
        self.chunks_received += 1;
        self.total += chunk.total_weight();
        match &self.aggregate {
            Aggregate::Count => {}
            Aggregate::Materialize => self.chunks.push(chunk.clone()),
            Aggregate::GroupCount(_) => {
                for i in 0..chunk.len() {
                    *self.groups.entry(chunk.row(i)).or_insert(0) += chunk.weights()[i];
                }
            }
        }
    }

    /// Total tuples accumulated so far (with multiplicity) — maintained as
    /// running chunk metadata, never by expanding rows.
    pub fn tuples(&self) -> u64 {
        self.total
    }

    /// Chunks received through [`OutputBuilder::push_chunk`] so far.
    pub fn chunks_received(&self) -> u64 {
        self.chunks_received
    }

    /// The aggregate being computed.
    pub fn aggregate(&self) -> &Aggregate {
        &self.aggregate
    }

    /// Absorb another builder's accumulated results. Parallel engines give
    /// each worker (or task) a clone of an empty builder and merge the
    /// partial results in a deterministic order at the end. Materialized
    /// results merge **chunk-wise** — whole column vectors change hands, no
    /// row is copied or expanded.
    ///
    /// # Panics
    /// Panics if the two builders compute different aggregates (they must be
    /// clones of the same initial builder).
    pub fn merge(&mut self, other: OutputBuilder) {
        assert_eq!(
            self.aggregate, other.aggregate,
            "merged builders must compute the same aggregate"
        );
        self.total += other.total;
        self.chunks_received += other.chunks_received;
        match &self.aggregate {
            Aggregate::Count => {}
            Aggregate::Materialize => self.chunks.extend(other.chunks),
            Aggregate::GroupCount(_) => {
                for (key, count) in other.groups {
                    *self.groups.entry(key).or_insert(0) += count;
                }
            }
        }
    }

    /// Finish and produce the output. This is the boundary where
    /// materialized chunks expand into rows: each stored entry becomes
    /// `weight` copies of its row, in chunk order.
    pub fn finish(self) -> QueryOutput {
        match self.aggregate {
            Aggregate::Count => QueryOutput::count(self.total),
            Aggregate::Materialize => {
                QueryOutput::rows(self.vars, expand_chunks(&self.chunks, self.total))
            }
            Aggregate::GroupCount(_) => QueryOutput::groups(self.vars, self.groups),
        }
    }
}

/// Expand stored chunks into rows, honouring weights: the shared values of a
/// weight-`w` entry are cloned into `w` rows only here, at the public row
/// boundary.
fn expand_chunks(chunks: &[ResultChunk], total: u64) -> Vec<Row> {
    let mut rows = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    for chunk in chunks {
        chunk.expand_into(&mut rows);
    }
    rows
}

/// Timings and counters collected while executing a query.
///
/// The paper reports join time excluding selection and aggregation ("This
/// excluded time takes up on average less than 1% of the total execution
/// time"), and separately discusses trie/hash build cost, so all three phases
/// are tracked here.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Time spent applying base-table selections.
    pub selection_time: Duration,
    /// Time spent building hash tables / tries (the build phase).
    pub build_time: Duration,
    /// Time spent in the join phase proper.
    pub join_time: Duration,
    /// Time spent in final aggregation / projection: folding the result
    /// builders together and finishing the output (not part of `join_time`).
    pub aggregate_time: Duration,
    /// Number of output tuples produced (with multiplicity).
    pub output_tuples: u64,
    /// Number of result chunks that reached an output builder (the batched
    /// result pipeline's flush count; counts and quantile reporting read
    /// off this chunk metadata rather than materialized rows).
    pub result_chunks: u64,
    /// Number of tuples materialized for intermediate results (bushy plans).
    pub intermediate_tuples: u64,
    /// Number of probe operations performed.
    pub probes: u64,
    /// Number of probe operations that found a match.
    pub probe_hits: u64,
    /// Number of hash-trie nodes (or hash tables) built.
    pub tries_built: u64,
    /// Number of trie nodes expanded lazily at run time (COLT forcing).
    pub lazy_expansions: u64,
    /// Scheduler tasks spawned by the work-stealing executor (root range
    /// tasks plus every split sub-range task). Zero on serial execution.
    pub tasks_spawned: u64,
    /// Scheduler tasks executed by a worker other than the one that spawned
    /// them (root tasks from the shared injector never count).
    pub tasks_stolen: u64,
    /// Bindings whose probes ran in another order than the plan's: the
    /// executor probes a node's subatoms smallest trie bound first.
    pub reorders: u64,
    /// Expansions processed per worker, indexed by worker id — the load
    /// balance record behind the skew benchmarks. Empty on serial execution.
    pub worker_expansions: Vec<u64>,
}

impl ExecStats {
    /// Join time plus build time: the quantity the paper's scatter plots use
    /// (it excludes selection and aggregation).
    pub fn reported_time(&self) -> Duration {
        self.build_time + self.join_time
    }

    /// Total wall time across all phases.
    pub fn total_time(&self) -> Duration {
        self.selection_time + self.build_time + self.join_time + self.aggregate_time
    }

    /// Accumulate another stats record into this one — the one way counts
    /// add up: a worker's into its pipeline's, a pipeline's into its
    /// query's (a bushy plan runs as several left-deep pipelines).
    /// `worker_expansions` adds element-wise, the shorter side zero-extended.
    pub fn merge(&mut self, other: &ExecStats) {
        self.selection_time += other.selection_time;
        self.build_time += other.build_time;
        self.join_time += other.join_time;
        self.aggregate_time += other.aggregate_time;
        self.output_tuples += other.output_tuples;
        self.result_chunks += other.result_chunks;
        self.intermediate_tuples += other.intermediate_tuples;
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.tries_built += other.tries_built;
        self.lazy_expansions += other.lazy_expansions;
        self.tasks_spawned += other.tasks_spawned;
        self.tasks_stolen += other.tasks_stolen;
        self.reorders += other.reorders;
        if self.worker_expansions.len() < other.worker_expansions.len() {
            self.worker_expansions.resize(other.worker_expansions.len(), 0);
        }
        for (mine, theirs) in self.worker_expansions.iter_mut().zip(&other.worker_expansions) {
            *mine += theirs;
        }
    }

    /// The largest share of expansions any single worker processed, in
    /// `[0, 1]` — the skew-balance figure the parallel benchmarks report.
    /// `None` when no per-worker counts were recorded (serial execution).
    pub fn max_worker_share(&self) -> Option<f64> {
        let total: u64 = self.worker_expansions.iter().sum();
        if total == 0 {
            return None;
        }
        let max = *self.worker_expansions.iter().max().expect("nonzero total implies nonempty");
        Some(max as f64 / total as f64)
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "build {:?}, join {:?}, out {} ({} chunks), intermediates {}, probes {} ({} hits), tries {}, lazy {}, tasks {} ({} stolen), reorders {}",
            self.build_time,
            self.join_time,
            self.output_tuples,
            self.result_chunks,
            self.intermediate_tuples,
            self.probes,
            self.probe_hits,
            self.tries_built,
            self.lazy_expansions,
            self.tasks_spawned,
            self.tasks_stolen,
            self.reorders
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::Value;

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn cardinality_of_each_kind() {
        assert_eq!(QueryOutput::count(7).cardinality(), 7);
        let rows = QueryOutput::rows(vec!["x".into()], vec![row(&[1]), row(&[2])]);
        assert_eq!(rows.cardinality(), 2);
        let mut groups = HashMap::new();
        groups.insert(row(&[1]), 3u64);
        groups.insert(row(&[2]), 4u64);
        assert_eq!(QueryOutput::groups(vec!["x".into()], groups).cardinality(), 7);
    }

    #[test]
    fn canonical_rows_sorts() {
        let out = QueryOutput::rows(
            vec!["x".into(), "y".into()],
            vec![row(&[2, 1]), row(&[1, 5]), row(&[1, 2])],
        );
        assert_eq!(out.canonical_rows(), vec![row(&[1, 2]), row(&[1, 5]), row(&[2, 1])]);
    }

    #[test]
    fn result_eq_is_order_insensitive() {
        let a = QueryOutput::rows(vec!["x".into()], vec![row(&[1]), row(&[2])]);
        let b = QueryOutput::rows(vec!["x".into()], vec![row(&[2]), row(&[1])]);
        assert!(a.result_eq(&b));
        let c = QueryOutput::rows(vec!["y".into()], vec![row(&[2]), row(&[1])]);
        assert!(!a.result_eq(&c));
    }

    #[test]
    fn result_eq_count_vs_rows_compares_cardinality() {
        let a = QueryOutput::rows(vec!["x".into()], vec![row(&[1]), row(&[2])]);
        assert!(a.result_eq(&QueryOutput::count(2)));
        assert!(!a.result_eq(&QueryOutput::count(3)));
    }

    #[test]
    fn stats_merge_and_reported_time() {
        let mut a = ExecStats {
            build_time: Duration::from_millis(10),
            join_time: Duration::from_millis(20),
            output_tuples: 5,
            probes: 7,
            tasks_spawned: 4,
            worker_expansions: vec![3, 1],
            ..ExecStats::default()
        };
        let b = ExecStats {
            build_time: Duration::from_millis(1),
            join_time: Duration::from_millis(2),
            selection_time: Duration::from_millis(4),
            output_tuples: 1,
            probes: 3,
            probe_hits: 2,
            tasks_spawned: 2,
            tasks_stolen: 1,
            worker_expansions: vec![0, 2, 2],
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.output_tuples, 6);
        assert_eq!(a.probes, 10);
        assert_eq!(a.probe_hits, 2);
        assert_eq!(a.tasks_spawned, 6);
        assert_eq!(a.tasks_stolen, 1);
        assert_eq!(a.worker_expansions, vec![3, 3, 2], "element-wise with resize");
        assert_eq!(a.reported_time(), Duration::from_millis(33));
        assert_eq!(a.total_time(), Duration::from_millis(37));
        assert!(a.to_string().contains("out 6"));
        assert!(a.to_string().contains("tasks 6 (1 stolen)"));
    }

    #[test]
    fn max_worker_share() {
        assert_eq!(ExecStats::default().max_worker_share(), None);
        let balanced = ExecStats { worker_expansions: vec![5, 5, 5, 5], ..ExecStats::default() };
        assert_eq!(balanced.max_worker_share(), Some(0.25));
        let skewed = ExecStats { worker_expansions: vec![9, 1, 0, 0], ..ExecStats::default() };
        assert_eq!(skewed.max_worker_share(), Some(0.9));
    }

    #[test]
    fn output_builder_materialize_projects_head() {
        let binding: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let head: Vec<String> = ["z", "x"].iter().map(|s| s.to_string()).collect();
        let mut b = OutputBuilder::new(&head, Aggregate::Materialize, &binding);
        b.push(&[Value::Int(1), Value::Int(2), Value::Int(3)]);
        b.push_weighted(&[Value::Int(4), Value::Int(5), Value::Int(6)], 2);
        assert_eq!(b.tuples(), 3);
        let out = b.finish();
        assert_eq!(out.vars, head);
        assert_eq!(out.canonical_rows(), vec![row(&[3, 1]), row(&[6, 4]), row(&[6, 4])]);
    }

    #[test]
    fn output_builder_count_and_groups() {
        let binding: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let mut c = OutputBuilder::new(&binding, Aggregate::Count, &binding);
        c.push(&[Value::Int(1), Value::Int(2)]);
        c.push_weighted(&[Value::Int(1), Value::Int(2)], 10);
        c.push_weighted(&[Value::Int(1), Value::Int(2)], 0);
        assert_eq!(c.finish(), QueryOutput::count(11));

        let mut g = OutputBuilder::new(&binding, Aggregate::group_count(&["y"]), &binding);
        g.push(&[Value::Int(1), Value::Int(7)]);
        g.push(&[Value::Int(2), Value::Int(7)]);
        g.push_weighted(&[Value::Int(3), Value::Int(8)], 4);
        let out = g.finish();
        assert_eq!(out.vars, vec!["y"]);
        match out.kind {
            OutputKind::Groups(groups) => {
                assert_eq!(groups[&row(&[7])], 2);
                assert_eq!(groups[&row(&[8])], 4);
            }
            other => panic!("expected groups, got {other:?}"),
        }
    }

    #[test]
    fn output_builder_merge_combines_partial_results() {
        let binding: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();

        // Counts add.
        let mut a = OutputBuilder::new(&binding, Aggregate::Count, &binding);
        let mut b = a.clone();
        a.push_weighted(&[Value::Int(1), Value::Int(2)], 3);
        b.push_weighted(&[Value::Int(1), Value::Int(2)], 4);
        a.merge(b);
        assert_eq!(a.finish(), QueryOutput::count(7));

        // Rows concatenate in merge order.
        let mut a = OutputBuilder::new(&binding, Aggregate::Materialize, &binding);
        let mut b = a.clone();
        a.push(&[Value::Int(1), Value::Int(2)]);
        b.push(&[Value::Int(3), Value::Int(4)]);
        a.merge(b);
        assert_eq!(a.finish().canonical_rows(), vec![row(&[1, 2]), row(&[3, 4])]);

        // Group counts add per key.
        let mut a = OutputBuilder::new(&binding, Aggregate::group_count(&["y"]), &binding);
        let mut b = a.clone();
        a.push(&[Value::Int(1), Value::Int(7)]);
        b.push_weighted(&[Value::Int(2), Value::Int(7)], 2);
        b.push(&[Value::Int(3), Value::Int(8)]);
        a.merge(b);
        match a.finish().kind {
            OutputKind::Groups(groups) => {
                assert_eq!(groups[&row(&[7])], 3);
                assert_eq!(groups[&row(&[8])], 1);
            }
            other => panic!("expected groups, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "same aggregate")]
    fn output_builder_merge_rejects_mismatched_aggregates() {
        let binding: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let mut a = OutputBuilder::new(&binding, Aggregate::Count, &binding);
        let b = OutputBuilder::new(&binding, Aggregate::Materialize, &binding);
        a.merge(b);
    }

    #[test]
    fn aggregate_output_vars() {
        let head: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        assert_eq!(Aggregate::Materialize.output_vars(&head), head.as_slice());
        assert!(Aggregate::Count.output_vars(&head).is_empty());
        assert_eq!(Aggregate::group_count(&["y"]).output_vars(&head), ["y".to_string()]);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn output_builder_rejects_unbound_head() {
        let binding: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let head: Vec<String> = vec!["missing".to_string()];
        let _ = OutputBuilder::new(&head, Aggregate::Materialize, &binding);
    }

    #[test]
    fn output_builder_try_new_returns_typed_error() {
        let binding: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let head: Vec<String> = vec!["missing".to_string()];
        match OutputBuilder::try_new(&head, Aggregate::Materialize, &binding) {
            Err(QueryError::UnboundOutputVar(v)) => assert_eq!(v, "missing"),
            other => panic!("expected UnboundOutputVar, got {other:?}"),
        }
        // Group-by variables go through the same check.
        match OutputBuilder::try_new(&binding, Aggregate::group_count(&["y"]), &binding) {
            Err(QueryError::UnboundOutputVar(v)) => assert_eq!(v, "y"),
            other => panic!("expected UnboundOutputVar, got {other:?}"),
        }
        assert!(OutputBuilder::try_new(&binding, Aggregate::Count, &binding).is_ok());
    }

    #[test]
    fn result_chunk_push_and_metadata() {
        let mut chunk = ResultChunk::new(2);
        assert!(chunk.is_empty());
        assert_eq!(chunk.num_columns(), 2);
        chunk.push(&[Value::Int(1), Value::Int(2)], 1);
        chunk.push_projected(&[Value::Int(9), Value::Int(3), Value::Int(4)], &[1, 2], 5);
        chunk.push(&[Value::Int(7), Value::Int(8)], 0); // weight 0 is dropped
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk.total_weight(), 6);
        assert_eq!(chunk.column(0), &[Value::Int(1), Value::Int(3)]);
        assert_eq!(chunk.row(1), row(&[3, 4]));
        chunk.clear();
        assert!(chunk.is_empty());
        assert_eq!(chunk.total_weight(), 0);
    }

    #[test]
    fn result_chunk_fills_at_capacity() {
        let mut chunk = ResultChunk::new(1);
        for i in 0..CHUNK_CAPACITY {
            assert!(!chunk.is_full(), "full before capacity at {i}");
            chunk.push(&[Value::Int(i as i64)], 1);
        }
        assert!(chunk.is_full());
        assert_eq!(chunk.len(), CHUNK_CAPACITY);
    }

    #[test]
    fn push_chunk_matches_per_tuple_pushes_for_every_aggregate() {
        let binding: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        for aggregate in [Aggregate::Count, Aggregate::Materialize, Aggregate::group_count(&["y"])]
        {
            let mut chunked = OutputBuilder::new(&binding, aggregate.clone(), &binding);
            let mut tuple_wise = chunked.clone();

            // The chunk arrives projected onto the builder's positions.
            let positions = chunked.positions().to_vec();
            let mut chunk = ResultChunk::new(positions.len());
            for (x, y, w) in [(1i64, 7i64, 1u64), (2, 7, 3), (3, 8, 2)] {
                let full = [Value::Int(x), Value::Int(y)];
                tuple_wise.push_weighted(&full, w);
                chunk.push_projected(&full, &positions, w);
            }
            chunked.push_chunk(&chunk);
            chunked.push_chunk(&ResultChunk::new(chunked.positions().len())); // empty: no-op

            assert_eq!(chunked.tuples(), 6, "{aggregate:?}");
            assert_eq!(chunked.tuples(), tuple_wise.tuples());
            assert_eq!(chunked.chunks_received(), 1, "empty chunks are ignored");
            let (a, b) = (chunked.finish(), tuple_wise.finish());
            assert_eq!(a, b, "{aggregate:?}");
        }
    }

    #[test]
    fn weighted_materialize_stores_one_entry_and_expands_at_finish() {
        let binding: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let mut b = OutputBuilder::new(&binding, Aggregate::Materialize, &binding);
        b.push_weighted(&[Value::Int(5)], 1000);
        // One stored entry stands for 1000 rows until finish expands them.
        assert_eq!(b.tuples(), 1000);
        let out = b.finish();
        assert_eq!(out.cardinality(), 1000);
        assert!(out.canonical_rows().iter().all(|r| r == &row(&[5])));
    }

    #[test]
    fn merged_chunks_preserve_emission_order() {
        let binding: Vec<String> = ["x"].iter().map(|s| s.to_string()).collect();
        let mut a = OutputBuilder::new(&binding, Aggregate::Materialize, &binding);
        let mut b = a.clone();
        a.push(&[Value::Int(1)]);
        b.push(&[Value::Int(2)]);
        b.push_weighted(&[Value::Int(3)], 2);
        a.merge(b);
        match a.finish().kind {
            OutputKind::Rows(rows) => {
                assert_eq!(rows, vec![row(&[1]), row(&[2]), row(&[3]), row(&[3])]);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_constructors() {
        assert_eq!(Aggregate::default(), Aggregate::Materialize);
        assert_eq!(
            Aggregate::group_count(&["x", "y"]),
            Aggregate::GroupCount(vec!["x".into(), "y".into()])
        );
    }
}
