//! The Free Join execution algorithm (Figures 7 and 13 of the paper).
//!
//! Execution proceeds node by node over a compiled plan. For each node the
//! engine iterates one subatom — the *cover* — and probes the others; when
//! every probe succeeds it recurses into the next node, and when the plan is
//! exhausted it emits the current tuple. Three of the paper's optimizations
//! live here:
//!
//! * **Dynamic cover selection** (Section 4.4): among the node's cover
//!   candidates, iterate the one whose trie currently has the fewest keys.
//!   On the two-cover nodes split factoring produces for cyclic queries
//!   (`[S(z), T(z)]`) this is a per-binding set intersection: the shorter
//!   list is walked row by row and the longer one probed — by scanning it
//!   in place when it is small, through its map when it is a hub (see
//!   "Lazy leaves" in [`crate::trie`]).
//! * **Vectorized execution** (Section 4.3, Figure 13): gather a batch of
//!   iterated keys, run each probe over the whole batch, then recurse for
//!   the survivors.
//! * **Factorized output** (Section 4.4) needs nothing here: the plan
//!   compiler removed every variable nothing reads ([`crate::compile`]), and
//!   the weight rule below counts the rows those variables told apart.
//! * **Adaptive cardinality-guided execution** (`FreeJoinOptions::adaptive`,
//!   off by default): the compiled plan no longer has the last word on the
//!   probe order. At every node marked reorderable at prepare time, each
//!   binding re-ranks the cover candidates and the remaining probes by the
//!   O(1) construction-fixed bound of each subatom's *current* trie position
//!   ([`NodeRef::key_bound`]) — smallest first, plan order as the
//!   tie-break — so a miss on a tiny per-binding sub-trie skips (and never
//!   lazily forces) a huge one. Bounds are fixed when tries are built, so
//!   the decisions, results and counters are identical at any thread count
//!   and steal schedule. When off, the static path runs exactly the legacy
//!   loop behind one precomputed per-node mask check.
//!
//! Bag semantics are handled with a running weight: the trie node reached
//! through an input's final subatom — probed or iterated — stands for all
//! the base tuples below it and multiplies the weight by their number. A
//! final probe therefore asks the trie for that number only
//! ([`InputTrie::count_matches`]); a probe that has to descend asks for the
//! child position. Both count as one probe (and one hit) in
//! [`ExecCounters`] and in the per-node profile, in the scalar, vectorized
//! and work-stealing loops alike.
//!
//! The hot path is allocation-free: probe keys of arity ≤ 2 are built in
//! stack arrays in place, and every remaining per-iteration buffer (wide-key
//! spill, saved trie positions, vectorization batches) lives in a per-node
//! `NodeScratch` allocated once per pipeline and reused across iterations.
//! A one-variable probe hashes and compares one 64-bit word (see "Key
//! representation and hashing" in [`crate::trie`]).
//!
//! # Chunked result emission
//!
//! The result side is **columnar and batched**, matching the vectorized trie
//! side: instead of a virtual `Sink` call per result tuple, every worker
//! appends bindings into a [`ChunkBuffer`] — a column-major
//! [`fj_query::ResultChunk`] already projected onto the sink's output slots
//! (a counting sink's chunks carry only weights) — and crosses the sink
//! boundary once per chunk. When the remaining plan is an *independent tail*
//! (every following node a single final expansion of live variables — the
//! output reads them, so they must be enumerated), the executor
//! gathers each inner expansion's `(values, weight)` list once and emits the
//! Cartesian product straight into the chunk columns, rather than re-walking
//! each suffix trie for every outer combination. Emission order is identical
//! to the recursive walk's, so results are bit-for-bit those of the
//! tuple-at-a-time executor this replaces.
//!
//! # Work-stealing parallelism
//!
//! [`execute_pipeline_parallel`] runs the plan under a shared work-stealing
//! scheduler in the spirit of morsel-driven execution (Leis et al., SIGMOD
//! 2014), but with **recursive splitting across the whole plan** rather than
//! at the root only. The first node's cover iteration seeds a global
//! injector with range tasks; each scoped worker owns a deque, pops its own
//! tasks LIFO, and steals FIFO from the injector or a peer when idle. A
//! worker that *begins* an expansion — at any plan node, or an
//! independent-tail Cartesian product — whose size (read in O(1) from the
//! trie level-map via `estimated_keys`) reaches
//! `FreeJoinOptions::split_threshold` does not walk it alone: it pushes
//! sub-range `Task`s onto its deque for idle workers to steal and moves
//! on. Each task carries its binding prefix, trie positions and running
//! weight, so `process_cover_entry`/`flush_batch` resume mid-plan exactly
//! where the split happened.
//!
//! **Determinism.** Every task carries a dense *path key*: root tasks are
//! keyed `[0] .. [k-1]` in root-range order, and a task's spawned children
//! extend its own key with a per-task counter assigned in expansion order.
//! Split decisions depend only on trie sizes and the configured threshold —
//! never on the thread count or which worker ran what — so the task tree,
//! and therefore the lexicographic path-key order in which per-task sinks
//! are merged, is identical at any thread count and any steal schedule.
//! Probes may lazily force shared trie nodes from several workers at once —
//! the trie's `OnceLock`-based forcing (see [`crate::trie`]) makes that
//! race-free. The serial path (`num_threads == 1`) runs the identical
//! single-threaded algorithm with one sink and one chunk buffer.

use crate::cancel::CancelToken;
use crate::compile::{CompiledNode, CompiledPlan, CompiledSubatom, IterAction};
use crate::options::FreeJoinOptions;
use crate::sink::{ChunkBuffer, Sink};
use crate::trie::{InputTrie, NodeRef};
use fj_obs::{ProfileSheet, TraceBuf, TraceCat, DEFAULT_TRACE_CAPACITY};
use fj_query::CancelReason;
use fj_storage::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters collected during the join phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Number of probe operations.
    pub probes: u64,
    /// Number of probes that found a match.
    pub probe_hits: u64,
    /// Expansion work processed: cover entries iterated at join nodes plus
    /// product rows emitted at independent-tail nodes. Identical between the
    /// serial and parallel paths (splitting moves work, it never adds any).
    pub expansions: u64,
    /// Tasks created by the scheduler (root ranges plus split sub-ranges).
    /// Zero on the serial path.
    pub tasks_spawned: u64,
    /// Tasks executed by a worker other than the one that spawned them.
    /// Schedule-dependent; zero on the serial path.
    pub tasks_stolen: u64,
    /// `expansions` broken down by worker id. Empty on the serial path.
    pub worker_expansions: Vec<u64>,
    /// Cover-entry bindings whose adaptive probe order differed from the
    /// static plan order (the vectorized path ranks once per flush and
    /// charges the whole batch). Zero unless `FreeJoinOptions::adaptive` is
    /// set; deterministic — each binding is processed exactly once and the
    /// ranking depends only on construction-fixed trie bounds, so the count
    /// is identical at any thread count or steal schedule.
    pub reorders: u64,
    /// Per-plan-node profile accumulators; disabled (empty, no allocation)
    /// unless `FreeJoinOptions::profile` is set.
    pub profile: ProfileSheet,
    /// Per-worker trace event rings (node/task spans, steal/split/reorder
    /// instants); empty — no allocation, emission sites reduce to a length
    /// check — unless `FreeJoinOptions::trace` is set. One ring per worker
    /// that executed part of this pipeline.
    pub traces: Vec<TraceBuf>,
    /// Shared cooperative-cancellation token. Every worker clones the same
    /// query-level token; the disabled default makes each check a single
    /// discriminant test. Not merged (it is shared, not additive).
    pub cancel: CancelToken,
    /// First cancellation reason this worker observed, cached so every later
    /// check short-circuits; `None` while live.
    pub cancelled: Option<CancelReason>,
    /// Check counter driving the amortized deadline clock poll.
    cancel_tick: u32,
}

/// Consult the wall clock once per this many cancellation checks. The cancel
/// flag itself is read on every check (an explicit cancel or a tripped byte
/// budget is observed at the very next boundary); only `Instant::now` for the
/// deadline is amortized.
const CANCEL_POLL_PERIOD: u32 = 256;

impl ExecCounters {
    /// Accumulate another worker's counters.
    pub fn merge(&mut self, mut other: ExecCounters) {
        self.probes += other.probes;
        self.probe_hits += other.probe_hits;
        self.expansions += other.expansions;
        self.tasks_spawned += other.tasks_spawned;
        self.tasks_stolen += other.tasks_stolen;
        self.reorders += other.reorders;
        self.profile.merge(&other.profile);
        self.traces.append(&mut other.traces);
        if self.worker_expansions.len() < other.worker_expansions.len() {
            self.worker_expansions.resize(other.worker_expansions.len(), 0);
        }
        for (mine, theirs) in self.worker_expansions.iter_mut().zip(&other.worker_expansions) {
            *mine += theirs;
        }
    }

    /// The schedule-independent subset (probe and expansion totals), used by
    /// tests to check that parallel execution does exactly the serial work.
    pub fn work(&self) -> (u64, u64, u64) {
        (self.probes, self.probe_hits, self.expansions)
    }

    /// Cooperative cancellation check, called at task/morsel/flush and cover
    /// boundaries. Returns `true` when execution should unwind. Costs one
    /// `Option` discriminant test with the disabled token, one cached-field
    /// test once a trip was observed, and one relaxed atomic load otherwise;
    /// the deadline's `Instant::now` runs every `CANCEL_POLL_PERIOD`th
    /// check.
    #[inline]
    pub fn check_cancel(&mut self) -> bool {
        if self.cancelled.is_some() {
            return true;
        }
        if self.cancel.is_disabled() {
            return false;
        }
        self.cancel_tick = self.cancel_tick.wrapping_add(1);
        self.cancelled = if self.cancel_tick.is_multiple_of(CANCEL_POLL_PERIOD) {
            self.cancel.poll()
        } else {
            self.cancel.fired()
        };
        self.cancelled.is_some()
    }
}

/// Reusable per-node scratch space. One instance exists per plan node and is
/// reused by every invocation of that node, so the join loop performs no
/// per-tuple heap allocation. Under parallel execution every worker owns a
/// private set.
#[derive(Debug, Default)]
struct NodeScratch<'t> {
    /// Spill buffer for probe keys of more than two values (narrower keys
    /// are built in stack arrays and never touch this).
    spill_key: Vec<Value>,
    /// Saved trie positions to restore after a recursive call.
    saved: Vec<(usize, NodeRef<'t>)>,
    /// Vectorized batch: values bound by the cover (stride = new slots).
    writes: Vec<Value>,
    /// Vectorized batch: accumulated weights.
    weights: Vec<u64>,
    /// Vectorized batch: survived all probes so far?
    alive: Vec<bool>,
    /// Vectorized batch: child trie nodes per (entry, subatom) — flat, stride
    /// = number of subatoms in the node. Only non-final subatoms use a slot.
    children: Vec<Option<NodeRef<'t>>>,
    /// Number of entries currently buffered.
    count: usize,
    /// Probe order for this node's non-cover subatoms (subatom indices).
    /// The vectorized path fills it every flush (plan order unless adaptive
    /// reordering kicks in); the scalar path touches it only under adaptive
    /// execution.
    probe_order: Vec<usize>,
}

/// Execute a compiled pipeline over its input tries, sending results to the
/// sink. Returns probe counters; trie-building counters live on the tries.
pub fn execute_pipeline(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    sink: &mut dyn Sink,
) -> ExecCounters {
    execute_pipeline_cancellable(tries, plan, options, sink, &CancelToken::disabled())
}

/// [`execute_pipeline`] with cooperative cancellation: `token` is checked per
/// cover entry (and at every node/flush boundary), and chunk-buffer flushes
/// charge its result-byte budget. A fired token makes the remaining walk a
/// cheap no-op; the caller detects the trip via [`CancelToken::fired`] (or
/// the returned counters' `cancelled` field) and discards the partial sink.
pub fn execute_pipeline_cancellable(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    sink: &mut dyn Sink,
    token: &CancelToken,
) -> ExecCounters {
    debug_assert_eq!(tries.len(), plan.num_inputs);
    let mut counters = ExecCounters { cancel: token.clone(), ..ExecCounters::default() };
    if options.profile {
        counters.profile = ProfileSheet::enabled(plan.nodes.len());
    }
    if options.trace {
        counters.traces.push(TraceBuf::with_capacity(DEFAULT_TRACE_CAPACITY, 0));
    }
    let mut tuple = vec![Value::Null; plan.binding_order.len()];
    let mut current: Vec<NodeRef<'_>> = tries.iter().map(|t| t.root()).collect();
    let mut scratch: Vec<NodeScratch> = plan.nodes.iter().map(|_| NodeScratch::default()).collect();
    let mut out = ChunkBuffer::for_sink_metered(sink, plan.binding_order.len(), token.clone());
    run_node(
        tries,
        plan,
        options,
        0,
        &mut tuple,
        &mut current,
        1,
        sink,
        &mut counters,
        &mut scratch,
        &mut out,
        &mut NoSplit,
    );
    out.flush(sink);
    counters
}

/// What one scheduler task iterates. Cover ranges are plain indices into
/// the tries (which outlive the worker scope), so tasks have no lifetime
/// ties to the worker that spawned them and a split materializes nothing.
enum TaskItems {
    /// A range of a node's cover: children `lo..hi` of its forced level (the
    /// node is the task's position in the cover's input), or — `by_rows` —
    /// base-table rows `lo..hi`: the root cover is unforced with no keyed
    /// level below it (the COLT fast path), iterated directly without
    /// forcing.
    Cover { cover_idx: usize, by_rows: bool, lo: usize, hi: usize },
    /// A range of an independent tail's first expansion list (flat
    /// `(values, weight)` columns); the task re-gathers the inner lists and
    /// emits its slice of the Cartesian product.
    Tail { writes: Arc<Vec<Value>>, weights: Arc<Vec<u64>>, lo: usize, hi: usize },
}

/// One unit of stealable work: resume the plan at `node_idx` with the given
/// binding prefix, trie positions and running weight, and iterate `items`.
/// `path` is the task's dense key in the task tree; sorting per-task sinks
/// by it reproduces the same merge order at any thread count and any steal
/// schedule (see the module docs).
struct Task<'t> {
    path: Vec<u32>,
    node_idx: usize,
    items: TaskItems,
    tuple: Vec<Value>,
    positions: Vec<NodeRef<'t>>,
    weight: u64,
    /// Worker that pushed the task (`usize::MAX` for root tasks, which live
    /// in the injector and are claimed, not stolen).
    spawner: usize,
}

/// Shared scheduler state: a global injector seeded with the root ranges and
/// one deque per worker. Workers pop their own deque LIFO (depth-first, keeps
/// caches warm) and steal FIFO (breadth-first, takes the largest-granularity
/// work) from the injector or a peer. Plain mutexed deques: contention is
/// bounded by the split threshold, which keeps tasks coarse.
struct Scheduler<'t> {
    injector: Mutex<VecDeque<Task<'t>>>,
    queues: Vec<Mutex<VecDeque<Task<'t>>>>,
    /// Tasks pushed but not yet completed; workers exit when it hits zero.
    /// Incremented *before* a task becomes visible, decremented only after
    /// it ran to completion, so it never reads zero while work remains.
    pending: AtomicUsize,
    spawned: AtomicU64,
    steal: bool,
    split_threshold: usize,
}

impl<'t> Scheduler<'t> {
    fn new(num_workers: usize, options: &FreeJoinOptions) -> Self {
        Scheduler {
            injector: Mutex::new(VecDeque::new()),
            queues: (0..num_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
            steal: options.steal,
            // A 0/1 threshold would split single-entry expansions into
            // themselves forever; the options setter clamps, this guards
            // struct-literal construction.
            split_threshold: options.split_threshold.max(2),
        }
    }

    fn push_tasks(&self, worker: usize, tasks: Vec<Task<'t>>) {
        self.pending.fetch_add(tasks.len(), Ordering::AcqRel);
        self.spawned.fetch_add(tasks.len() as u64, Ordering::Relaxed);
        let mut queue = self.queues[worker].lock().expect("no poisoned worker deque");
        queue.extend(tasks);
    }

    /// Own deque first (LIFO), then the injector, then peers (FIFO steal).
    fn find_task(&self, worker: usize) -> Option<Task<'t>> {
        if let Some(t) = self.queues[worker].lock().expect("no poisoned worker deque").pop_back() {
            return Some(t);
        }
        if let Some(t) = self.injector.lock().expect("no poisoned injector").pop_front() {
            return Some(t);
        }
        let n = self.queues.len();
        for k in 1..n {
            let peer = (worker + k) % n;
            if let Some(t) = self.queues[peer].lock().expect("no poisoned worker deque").pop_front()
            {
                return Some(t);
            }
        }
        None
    }
}

/// The split hook threaded through the recursive join. The serial path uses
/// [`NoSplit`]; each parallel worker uses a [`WorkerSplitter`] scoped to the
/// task it is running.
trait Splitter<'t> {
    /// Should a node expansion of `size` cover entries be cut into sub-range
    /// tasks instead of walked by the current worker?
    fn should_split(&self, size: usize) -> bool;
    /// Should an independent-tail product (`first_len` first-list entries ×
    /// `inner_count` inner combinations each) be cut into sub-range tasks?
    fn should_split_tail(&self, first_len: usize, inner_count: u64) -> bool;
    /// Spawn sub-range tasks over the `total` children of a node's forced
    /// cover level (`positions` holds the node).
    #[allow(clippy::too_many_arguments)]
    fn spawn_entries(
        &mut self,
        node_idx: usize,
        cover_idx: usize,
        total: usize,
        tuple: &[Value],
        positions: &[NodeRef<'t>],
        weight: u64,
    );
    /// Spawn sub-range tasks over an independent tail's first expansion list.
    #[allow(clippy::too_many_arguments)]
    fn spawn_tail(
        &mut self,
        node_idx: usize,
        writes: Vec<Value>,
        weights: Vec<u64>,
        inner_count: u64,
        tuple: &[Value],
        positions: &[NodeRef<'t>],
        weight: u64,
    );
}

/// Serial execution: never split.
struct NoSplit;

impl<'t> Splitter<'t> for NoSplit {
    fn should_split(&self, _size: usize) -> bool {
        false
    }
    fn should_split_tail(&self, _first_len: usize, _inner_count: u64) -> bool {
        false
    }
    fn spawn_entries(
        &mut self,
        _node_idx: usize,
        _cover_idx: usize,
        _total: usize,
        _tuple: &[Value],
        _positions: &[NodeRef<'t>],
        _weight: u64,
    ) {
        unreachable!("NoSplit never asks to split")
    }
    fn spawn_tail(
        &mut self,
        _node_idx: usize,
        _writes: Vec<Value>,
        _weights: Vec<u64>,
        _inner_count: u64,
        _tuple: &[Value],
        _positions: &[NodeRef<'t>],
        _weight: u64,
    ) {
        unreachable!("NoSplit never asks to split")
    }
}

/// Per-task split context of one parallel worker. Child tasks extend the
/// running task's path key with a counter assigned in expansion order, which
/// is what makes the task tree — and the merge order — schedule-independent.
struct WorkerSplitter<'a, 't> {
    sched: &'a Scheduler<'t>,
    worker: usize,
    path: &'a [u32],
    next_child: u32,
}

impl<'t> WorkerSplitter<'_, 't> {
    fn child_path(&mut self) -> Vec<u32> {
        let mut path = Vec::with_capacity(self.path.len() + 1);
        path.extend_from_slice(self.path);
        path.push(self.next_child);
        self.next_child += 1;
        path
    }

    fn spawn_ranges(
        &mut self,
        total: usize,
        chunk: usize,
        mut make: impl FnMut(&mut Self, usize, usize) -> Task<'t>,
    ) {
        let chunk = chunk.max(1);
        let mut tasks = Vec::with_capacity(total.div_ceil(chunk));
        let mut lo = 0;
        while lo < total {
            let hi = (lo + chunk).min(total);
            let task = make(self, lo, hi);
            tasks.push(task);
            lo = hi;
        }
        self.sched.push_tasks(self.worker, tasks);
    }
}

impl<'t> Splitter<'t> for WorkerSplitter<'_, 't> {
    fn should_split(&self, size: usize) -> bool {
        self.sched.steal && size >= self.sched.split_threshold
    }

    fn should_split_tail(&self, first_len: usize, inner_count: u64) -> bool {
        self.sched.steal
            && first_len >= 2
            && (first_len as u64).saturating_mul(inner_count.max(1))
                >= self.sched.split_threshold as u64
    }

    fn spawn_entries(
        &mut self,
        node_idx: usize,
        cover_idx: usize,
        total: usize,
        tuple: &[Value],
        positions: &[NodeRef<'t>],
        weight: u64,
    ) {
        // Balanced chunks of at most `split_threshold` entries: sub-tasks
        // stay below the threshold themselves, and the chunking depends only
        // on the expansion size, never on the thread count.
        let chunks = total.div_ceil(self.sched.split_threshold);
        let chunk = total.div_ceil(chunks.max(1));
        self.spawn_ranges(total, chunk, |this, lo, hi| Task {
            path: this.child_path(),
            node_idx,
            items: TaskItems::Cover { cover_idx, by_rows: false, lo, hi },
            tuple: tuple.to_vec(),
            positions: positions.to_vec(),
            weight,
            spawner: this.worker,
        });
    }

    fn spawn_tail(
        &mut self,
        node_idx: usize,
        writes: Vec<Value>,
        weights: Vec<u64>,
        inner_count: u64,
        tuple: &[Value],
        positions: &[NodeRef<'t>],
        weight: u64,
    ) {
        let total = weights.len();
        // Chunk so each sub-task emits about `split_threshold` product rows:
        // a single hot first-list entry over a huge inner product gets a task
        // of its own, while cheap entries batch up.
        let per_entry = inner_count.max(1);
        let chunk = ((self.sched.split_threshold as u64 / per_entry) as usize).max(1);
        let writes = Arc::new(writes);
        let weights = Arc::new(weights);
        self.spawn_ranges(total, chunk, |this, lo, hi| Task {
            path: this.child_path(),
            node_idx,
            items: TaskItems::Tail { writes: writes.clone(), weights: weights.clone(), lo, hi },
            tuple: tuple.to_vec(),
            positions: positions.to_vec(),
            weight,
            spawner: this.worker,
        });
    }
}

/// What a successful probe yields.
enum Found<'t> {
    /// The subatom is its input's last: the number of rows under the key,
    /// which multiplies the weight. No trie position is needed — and for a
    /// small unforced node none is built ([`InputTrie::count_matches`]).
    Rows(u64),
    /// The input has more subatoms to come: the child position.
    Child(NodeRef<'t>),
}

/// Probe one subatom's trie level, reading the key values through
/// `read(slot)`. Arity ≤ 2 keys — the common case — are built in a stack
/// array; wider keys fill the node's reusable spill buffer. Either way the
/// key is looked up as a borrowed slice and the probe allocates nothing.
#[inline]
fn probe_subatom<'t>(
    trie: &'t InputTrie,
    node: NodeRef<'t>,
    sub: &CompiledSubatom,
    spill: &mut Vec<Value>,
    read: impl Fn(usize) -> Value,
) -> Option<Found<'t>> {
    let lookup = |key: &[Value]| {
        if sub.final_for_input {
            match trie.count_matches(node, sub.level, key) {
                0 => None,
                rows => Some(Found::Rows(rows)),
            }
        } else {
            trie.get(node, sub.level, key).map(Found::Child)
        }
    };
    match *sub.key_slots {
        [] => lookup(&[]),
        [a] => lookup(&[read(a)]),
        [a, b] => lookup(&[read(a), read(b)]),
        ref slots => {
            spill.clear();
            spill.extend(slots.iter().map(|&s| read(s)));
            lookup(spill)
        }
    }
}

/// Execute a compiled pipeline under the work-stealing scheduler (see the
/// module docs): the first node's cover seeds the injector with range tasks,
/// and workers re-split any sufficiently large expansion deeper in the plan
/// into stealable sub-range tasks.
///
/// `make_sink` creates one sink per task; the sinks come back in **task-tree
/// order** (per-task dense path keys sorted lexicographically) together with
/// the summed counters, so the caller's merge is deterministic — identical
/// at any thread count and any steal schedule. Falls back to the serial
/// algorithm (returning a single sink) when `num_threads <= 1` or when there
/// is no root-level work to split.
pub fn execute_pipeline_parallel<S, F>(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    num_threads: usize,
    make_sink: F,
) -> (Vec<S>, ExecCounters)
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    execute_pipeline_parallel_cancellable(
        tries,
        plan,
        options,
        num_threads,
        make_sink,
        &CancelToken::disabled(),
    )
}

/// [`execute_pipeline_parallel`] with cooperative cancellation. Workers check
/// `token` at every task boundary and inside the recursive walk; once it
/// fires they stop running tasks but keep draining their deques and the
/// injector (each drained task is marked complete without executing), so the
/// `pending == 0` exit condition is still reached and no worker spins.
pub fn execute_pipeline_parallel_cancellable<S, F>(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    num_threads: usize,
    make_sink: F,
    token: &CancelToken,
) -> (Vec<S>, ExecCounters)
where
    S: Sink + Send,
    F: Fn() -> S + Sync,
{
    debug_assert_eq!(tries.len(), plan.num_inputs);
    let serial = |mut sink: S| {
        let counters = execute_pipeline_cancellable(tries, plan, options, &mut sink, token);
        (vec![sink], counters)
    };
    if num_threads <= 1 || plan.nodes.is_empty() {
        return serial(make_sink());
    }

    // Materialize the first node's cover iteration as a splittable work list.
    let node0 = &plan.nodes[0];
    let roots: Vec<NodeRef<'_>> = tries.iter().map(|t| t.root()).collect();
    let cover_idx = select_cover(tries, node0, &roots, options);
    let cover = &node0.subatoms[cover_idx];
    if cover.key_slots.is_empty() {
        // Every variable of the cover's input was pruned: the root is one
        // entry carrying the row count, not a list of rows to split.
        return serial(make_sink());
    }
    let cover_trie = &tries[cover.input];
    let cover_root = roots[cover.input];
    // Unforced with nothing keyed below: iterate base rows directly.
    let by_rows = cover.final_for_input && cover_trie.iterates_rows(cover_root, cover.level);
    let total = if by_rows {
        cover_trie.num_rows()
    } else {
        cover_trie.force(cover_root, cover.level, !cover_root.is_map()).num_keys()
    };
    if total == 0 {
        return serial(make_sink());
    }

    // Root task granularity: a fixed fan-out independent of the thread count
    // (so the task tree, and with it the merge order, is the same at any
    // thread count), capped so per-task sink overhead stays negligible.
    // Skew below the root is the scheduler's job, not the root chunking's:
    // any root range hiding a hot subtree re-splits when it reaches the
    // oversized expansion.
    const ROOT_FAN: usize = 32;
    let root_chunk = total.div_ceil(ROOT_FAN).clamp(1, 4096);
    let num_root = total.div_ceil(root_chunk);

    let sched = Scheduler::new(num_threads, options);
    {
        let mut injector = sched.injector.lock().expect("no poisoned injector");
        for m in 0..num_root {
            let lo = m * root_chunk;
            let hi = (lo + root_chunk).min(total);
            injector.push_back(Task {
                path: vec![m as u32],
                node_idx: 0,
                items: TaskItems::Cover { cover_idx, by_rows, lo, hi },
                tuple: vec![Value::Null; plan.binding_order.len()],
                positions: roots.clone(),
                weight: 1,
                spawner: usize::MAX,
            });
        }
    }
    sched.pending.store(num_root, Ordering::Release);
    sched.spawned.store(num_root as u64, Ordering::Relaxed);

    let segments: Mutex<Vec<(Vec<u32>, S)>> = Mutex::new(Vec::new());
    let total_counters: Mutex<ExecCounters> = Mutex::new(ExecCounters::default());

    std::thread::scope(|scope| {
        for id in 0..num_threads {
            let sched = &sched;
            let segments = &segments;
            let total_counters = &total_counters;
            let make_sink = &make_sink;
            let roots = &roots;
            scope.spawn(move || {
                let mut tuple = vec![Value::Null; plan.binding_order.len()];
                let mut current: Vec<NodeRef<'_>> = roots.clone();
                let mut scratch: Vec<NodeScratch> =
                    plan.nodes.iter().map(|_| NodeScratch::default()).collect();
                let mut counters =
                    ExecCounters { cancel: token.clone(), ..ExecCounters::default() };
                if options.profile {
                    counters.profile = ProfileSheet::enabled(plan.nodes.len());
                }
                if options.trace {
                    counters
                        .traces
                        .push(TraceBuf::with_capacity(DEFAULT_TRACE_CAPACITY, id as u32));
                }
                loop {
                    let Some(task) = sched.find_task(id) else {
                        if sched.pending.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    // Drain on observe: a fired token turns every remaining
                    // task into a completed no-op, so the deques and the
                    // injector empty out and `pending` still reaches zero.
                    if counters.check_cancel() {
                        sched.pending.fetch_sub(1, Ordering::AcqRel);
                        continue;
                    }
                    if task.spawner != usize::MAX && task.spawner != id {
                        counters.tasks_stolen += 1;
                        if let Some(tb) = counters.traces.last_mut() {
                            tb.instant(
                                TraceCat::Steal,
                                task.node_idx as u32,
                                task.spawner as u64,
                                &task.path,
                            );
                        }
                    }
                    if let Some(tb) = counters.traces.last_mut() {
                        tb.begin(TraceCat::Task, task.node_idx as u32, task.weight, &task.path);
                    }
                    let mut sink = make_sink();
                    let mut out = ChunkBuffer::for_sink_metered(
                        &sink,
                        plan.binding_order.len(),
                        token.clone(),
                    );
                    {
                        let mut splitter =
                            WorkerSplitter { sched, worker: id, path: &task.path, next_child: 0 };
                        run_task(
                            tries,
                            plan,
                            options,
                            &task,
                            &mut tuple,
                            &mut current,
                            &mut scratch,
                            &mut sink,
                            &mut counters,
                            &mut out,
                            &mut splitter,
                        );
                    }
                    out.flush(&mut sink);
                    if let Some(tb) = counters.traces.last_mut() {
                        tb.end(TraceCat::Task, task.node_idx as u32, sink.tuples());
                    }
                    // Empty sinks contribute nothing to the merge; skip them
                    // (split-heavy schedules produce many empty tasks).
                    if sink.tuples() > 0 {
                        segments
                            .lock()
                            .expect("no poisoned segments")
                            .push((task.path.clone(), sink));
                    }
                    sched.pending.fetch_sub(1, Ordering::AcqRel);
                }
                let mut all = total_counters.lock().expect("no poisoned counters");
                all.probes += counters.probes;
                all.probe_hits += counters.probe_hits;
                all.tasks_stolen += counters.tasks_stolen;
                all.expansions += counters.expansions;
                all.reorders += counters.reorders;
                all.profile.merge(&counters.profile);
                all.traces.append(&mut counters.traces);
                if all.worker_expansions.len() < num_threads {
                    all.worker_expansions.resize(num_threads, 0);
                }
                all.worker_expansions[id] += counters.expansions;
            });
        }
    });

    let mut counters = total_counters.into_inner().expect("no poisoned counters");
    counters.tasks_spawned = sched.spawned.load(Ordering::Relaxed);
    counters.cancel = token.clone();
    counters.cancelled = token.fired();
    let mut segments = segments.into_inner().expect("no poisoned segments");
    // The deterministic merge: lexicographic path-key order reproduces the
    // task-tree (depth-first, expansion-order) traversal regardless of which
    // worker ran which task.
    segments.sort_by(|a, b| a.0.cmp(&b.0));
    (segments.into_iter().map(|(_, sink)| sink).collect(), counters)
}

/// Execute one scheduler task: restore its binding prefix, trie positions
/// and weight, then walk its item range — cover entries through
/// `process_cover_entry`/`flush_batch` (which recurse into the rest of the
/// plan and may split again, deeper), or an independent-tail slice through
/// [`run_tail_range`].
#[allow(clippy::too_many_arguments)]
fn run_task<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    task: &Task<'t>,
    tuple: &mut Vec<Value>,
    current: &mut Vec<NodeRef<'t>>,
    scratch: &mut [NodeScratch<'t>],
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    // Chaos failpoint: an injected panic here unwinds out of a worker thread
    // mid-join — the serve layer's catch_unwind isolation (and the scoped
    // executor's teardown) must both survive it. Disarmed cost: one relaxed
    // load per task, not per tuple.
    let _ = fj_obs::chaos::should_fail("exec.task");
    tuple.clear();
    tuple.extend_from_slice(&task.tuple);
    current.clear();
    current.extend_from_slice(&task.positions);
    let node_idx = task.node_idx;
    let weight = task.weight;

    if let TaskItems::Tail { writes, weights, lo, hi } = &task.items {
        run_tail_range(
            tries,
            plan,
            node_idx,
            tuple,
            current,
            weight,
            writes,
            weights,
            *lo,
            *hi,
            sink,
            counters,
            &mut scratch[node_idx..],
            out,
        );
        return;
    }

    let node = &plan.nodes[node_idx];
    let TaskItems::Cover { cover_idx, by_rows, lo, hi } = task.items else {
        unreachable!("tail tasks are handled above");
    };
    let cover = &node.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];
    let cover_node = current[cover.input];
    let t0 = counters.profile.is_enabled().then(Instant::now);
    if let Some(tb) = counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, (hi - lo) as u64, &task.path);
    }
    // The task's slice of the cover, entry by entry as `for_each` would
    // hand them out.
    let walk = |f: &mut dyn FnMut(&[Value], Option<NodeRef<'t>>)| {
        if by_rows {
            cover_trie.for_each_row(cover.level, lo as u32..hi as u32, f);
        } else {
            let level = cover_trie.force(cover_node, cover.level, true);
            cover_trie.for_each_child(level, cover.level, lo..hi, f);
        }
    };

    let scratch = &mut scratch[node_idx..];
    if options.vectorized() && node.subatoms.len() > 1 {
        // Mirror run_node's choice: batch this node's probes too.
        let (mine, rest) = scratch.split_at_mut(1);
        let mine = &mut mine[0];
        ensure_batch_buffers(mine, options.batch_size, node);
        mine.count = 0;
        walk(&mut |key, child| {
            if counters.check_cancel() {
                return;
            }
            counters.expansions += 1;
            counters.profile.add_expansions(node_idx, 1);
            buffer_cover_entry(node, cover_idx, cover_trie, key, child, tuple, weight, mine);
            if mine.count >= options.batch_size {
                flush_batch(
                    tries, plan, options, node_idx, cover_idx, mine, rest, tuple, current, sink,
                    counters, out, splitter,
                );
            }
        });
        flush_batch(
            tries, plan, options, node_idx, cover_idx, mine, rest, tuple, current, sink, counters,
            out, splitter,
        );
    } else {
        walk(&mut |key, child| {
            process_cover_entry(
                tries, plan, options, node_idx, cover_idx, key, child, tuple, current, weight,
                sink, counters, scratch, out, splitter,
            );
        });
    }
    if let Some(tb) = counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, counters.expansions);
    }
    if let Some(t0) = t0 {
        counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Select which subatom of the node to iterate (the runtime cover).
fn select_cover<'t>(
    tries: &'t [Arc<InputTrie>],
    node: &CompiledNode,
    current: &[NodeRef<'t>],
    options: &FreeJoinOptions,
) -> usize {
    // Adaptive execution ranks candidates by the construction-fixed bound of
    // their current trie position — unlike `estimated_keys` this never
    // depends on which levels other workers have already forced, so the
    // choice (and everything downstream of it) is schedule-independent.
    // Stable min: the static plan order breaks ties.
    if options.adaptive && node.reorderable && node.cover_candidates.len() > 1 {
        return node
            .cover_candidates
            .iter()
            .copied()
            .min_by_key(|&i| current[node.subatoms[i].input].key_bound())
            .expect("valid plans have at least one cover");
    }
    if options.dynamic_cover && node.cover_candidates.len() > 1 {
        node.cover_candidates
            .iter()
            .copied()
            .min_by_key(|&i| {
                let sub = &node.subatoms[i];
                tries[sub.input].estimated_keys(current[sub.input])
            })
            .expect("valid plans have at least one cover")
    } else {
        node.cover_candidates[0]
    }
}

/// The recursive join (Figure 7), one invocation per plan node. `scratch`
/// holds the scratch space of this node and every following node
/// (`scratch[0]` belongs to `node_idx`); `out` is the worker's chunk buffer,
/// where every result emission of this invocation lands.
#[allow(clippy::too_many_arguments)]
fn run_node<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    node_idx: usize,
    tuple: &mut Vec<Value>,
    current: &mut Vec<NodeRef<'t>>,
    weight: u64,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    scratch: &mut [NodeScratch<'t>],
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    if counters.check_cancel() {
        return;
    }
    if node_idx == plan.nodes.len() {
        out.push(sink, tuple, weight);
        return;
    }
    let node = &plan.nodes[node_idx];

    // The remaining plan is a Cartesian product of independent expansions
    // (of variables the output reads — dead ones never reach the plan): emit
    // it straight into the chunk columns instead of recursing per
    // combination.
    if node.independent_tail {
        expand_independent_tail(
            tries, plan, node_idx, tuple, current, weight, sink, counters, scratch, out, splitter,
        );
        return;
    }

    let cover_idx = select_cover(tries, node, current, options);
    let cover = &node.subatoms[cover_idx];

    // The split point: an expansion at least `split_threshold` wide (the
    // level-map size, read in O(1)) is handed to the scheduler as sub-range
    // tasks instead of being walked by this worker — this is what lets one
    // hot key's subtree fan out over every idle worker. The decision depends
    // only on trie sizes and options, keeping the task tree (and the merge
    // order) schedule-independent.
    let cover_node = current[cover.input];
    if splitter.should_split(tries[cover.input].estimated_keys(cover_node)) {
        let level = tries[cover.input].force(cover_node, cover.level, !cover_node.is_map());
        if let Some(tb) = counters.traces.last_mut() {
            tb.instant(TraceCat::Split, node_idx as u32, level.num_keys() as u64, &[]);
        }
        splitter.spawn_entries(node_idx, cover_idx, level.num_keys(), tuple, current, weight);
        return;
    }
    if !cover.final_for_input {
        // The input has subatoms to come, so every entry needs its child
        // position: iterate the map, never the rows. (Only an empty-key
        // subatom can follow a level the trie would walk row by row — the
        // `[#2()]` tail of an unpruned plan.)
        tries[cover.input].force(cover_node, cover.level, true);
    }

    if options.vectorized() && node.subatoms.len() > 1 {
        run_node_vectorized(
            tries, plan, options, node_idx, cover_idx, tuple, current, weight, sink, counters,
            scratch, out, splitter,
        );
    } else {
        run_node_scalar(
            tries, plan, options, node_idx, cover_idx, tuple, current, weight, sink, counters,
            scratch, out, splitter,
        );
    }
}

/// Enumerate an independent tail (every remaining node a single, final,
/// write-only expansion of a distinct input) without re-walking suffix
/// tries: the lists of
/// every tail node after the first are gathered once into their nodes'
/// scratch as flat `(values, weight)` columns, the first node's cover is
/// streamed, and the Cartesian product is emitted by nested loops over the
/// gathered columns straight into the chunk buffer. Emission order is
/// exactly the recursive walk's, and tail nodes perform no probes in either
/// form, so results and counters are unchanged — only the per-combination
/// trie iteration and recursion are gone.
#[allow(clippy::too_many_arguments)]
fn expand_independent_tail<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    node_idx: usize,
    tuple: &mut Vec<Value>,
    current: &[NodeRef<'t>],
    weight: u64,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    scratch: &mut [NodeScratch<'t>],
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    // Gather phase: one trie walk per inner tail node, reusing the node's
    // (otherwise unused — single-subatom nodes never batch) scratch vectors.
    let inner = &plan.nodes[node_idx + 1..];
    if !gather_tail_lists(tries, inner, current, scratch) {
        return; // an empty factor annihilates the whole product
    }

    let node = &plan.nodes[node_idx];
    let sub = &node.subatoms[0];
    let trie = &tries[sub.input];
    let node_cur = current[sub.input];
    let t0 = counters.profile.is_enabled().then(Instant::now);
    let gathered = &scratch[1..1 + inner.len()];
    // Product rows per first-list entry; `expansions` counts emitted rows so
    // skew inside the product (not just wide first lists) is visible to the
    // per-worker balance stats.
    let inner_count: u64 =
        gathered.iter().fold(1u64, |acc, s| acc.saturating_mul(s.weights.len() as u64));

    // The tail split point: the product's size — first-list length (O(1)
    // from the level map) × inner combinations (known from the gather) —
    // decides, so a single hot join key whose output is one giant Cartesian
    // product fans out across workers by first-list sub-ranges.
    let first_len = trie.estimated_keys(node_cur);
    if splitter.should_split_tail(first_len, inner_count) {
        let stride = node.bound_after - node.bound_before;
        let mut writes: Vec<Value> = Vec::with_capacity(first_len * stride);
        let mut weights: Vec<u64> = Vec::with_capacity(first_len);
        trie.for_each(node_cur, sub.level, |key, child| {
            let base = writes.len();
            writes.resize(base + stride, Value::Null);
            for action in &sub.iter_actions {
                let IterAction::Write { key_pos, slot } = *action else {
                    unreachable!("independent-tail covers bind only new variables");
                };
                writes[base + (slot - node.bound_before)] = key[key_pos];
            }
            weights.push(child.map_or(1, |c| trie.tuple_count(c)));
        });
        if let Some(tb) = counters.traces.last_mut() {
            tb.instant(TraceCat::Split, node_idx as u32, weights.len() as u64, &[]);
        }
        splitter.spawn_tail(node_idx, writes, weights, inner_count, tuple, current, weight);
        return;
    }

    // Stream the first tail node's cover; per entry, emit the product of the
    // gathered inner columns.
    if let Some(tb) = counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, inner_count, &[]);
    }
    let mut first_sum: u64 = 0;
    trie.for_each(node_cur, sub.level, |key, child| {
        if counters.check_cancel() {
            return;
        }
        counters.expansions += inner_count.max(1);
        counters.profile.add_expansions(node_idx, inner_count.max(1));
        for action in &sub.iter_actions {
            let IterAction::Write { key_pos, slot } = *action else {
                unreachable!("independent-tail covers bind only new variables");
            };
            tuple[slot] = key[key_pos];
        }
        let w = child.map_or(weight, |c| weight.saturating_mul(trie.tuple_count(c)));
        first_sum = first_sum.saturating_add(w);
        if inner.is_empty() {
            out.push(sink, tuple, w);
        } else {
            emit_product(inner, gathered, 0, tuple, w, sink, counters, out);
        }
    });
    profile_tail_rows(&mut counters.profile, node_idx, first_sum, gathered);
    if let Some(tb) = counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, first_sum);
    }
    if let Some(t0) = t0 {
        counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Attribute an independent tail's output rows to its nodes arithmetically:
/// the first tail node produced `first_sum` weighted rows, and each inner
/// node multiplies that by its gathered list's weight total — the same
/// cumulative products the enumeration emits, without touching the per-row
/// hot loop. A slice of the first list contributes its slice sum, so
/// partitioned tail tasks add up to exactly the serial attribution.
fn profile_tail_rows(
    profile: &mut ProfileSheet,
    node_idx: usize,
    first_sum: u64,
    gathered: &[NodeScratch],
) {
    if !profile.is_enabled() {
        return;
    }
    profile.add_output_rows(node_idx, first_sum);
    let mut running = first_sum;
    for (d, list) in gathered.iter().enumerate() {
        let list_sum = list.weights.iter().fold(0u64, |acc, &w| acc.saturating_add(w));
        running = running.saturating_mul(list_sum);
        profile.add_output_rows(node_idx + 1 + d, running);
    }
}

/// Gather every inner tail node's expansion list into its scratch slot
/// (`scratch[0]` belongs to the tail's first node) as flat `(values, weight)`
/// columns. Returns `false` when some factor is empty — the whole product is
/// then empty and the caller must emit nothing.
fn gather_tail_lists<'t>(
    tries: &'t [Arc<InputTrie>],
    inner: &[CompiledNode],
    current: &[NodeRef<'t>],
    scratch: &mut [NodeScratch<'t>],
) -> bool {
    for (j, node) in inner.iter().enumerate() {
        let sub = &node.subatoms[0];
        let trie = &tries[sub.input];
        let node_cur = current[sub.input];
        let stride = node.bound_after - node.bound_before;
        let s = &mut scratch[1 + j];
        s.writes.clear();
        s.weights.clear();
        trie.for_each(node_cur, sub.level, |key, child| {
            let base = s.writes.len();
            s.writes.resize(base + stride, Value::Null);
            for action in &sub.iter_actions {
                let IterAction::Write { key_pos, slot } = *action else {
                    unreachable!("independent-tail covers bind only new variables");
                };
                s.writes[base + (slot - node.bound_before)] = key[key_pos];
            }
            s.weights.push(child.map_or(1, |c| trie.tuple_count(c)));
        });
        if s.weights.is_empty() {
            return false;
        }
    }
    true
}

/// Execute one tail sub-range task: re-gather the inner lists (cheap — one
/// trie walk per inner node, against a product-sized emission) and emit this
/// task's slice of the first expansion list against the full inner product.
/// Emission order within the slice matches the unsplit stream, so
/// path-key-ordered sinks concatenate to the unsplit emission order.
#[allow(clippy::too_many_arguments)]
fn run_tail_range<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    node_idx: usize,
    tuple: &mut Vec<Value>,
    current: &[NodeRef<'t>],
    weight: u64,
    writes: &[Value],
    weights: &[u64],
    lo: usize,
    hi: usize,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    scratch: &mut [NodeScratch<'t>],
    out: &mut ChunkBuffer,
) {
    let inner = &plan.nodes[node_idx + 1..];
    if !gather_tail_lists(tries, inner, current, scratch) {
        return;
    }
    let node = &plan.nodes[node_idx];
    let stride = node.bound_after - node.bound_before;
    let t0 = counters.profile.is_enabled().then(Instant::now);
    let gathered = &scratch[1..1 + inner.len()];
    let inner_count: u64 =
        gathered.iter().fold(1u64, |acc, s| acc.saturating_mul(s.weights.len() as u64));
    if let Some(tb) = counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, inner_count, &[]);
    }
    let mut first_sum: u64 = 0;
    for i in lo..hi {
        if counters.check_cancel() {
            break;
        }
        counters.expansions += inner_count.max(1);
        counters.profile.add_expansions(node_idx, inner_count.max(1));
        tuple[node.bound_before..node.bound_after]
            .copy_from_slice(&writes[i * stride..(i + 1) * stride]);
        let w = weight.saturating_mul(weights[i]);
        first_sum = first_sum.saturating_add(w);
        if inner.is_empty() {
            out.push(sink, tuple, w);
        } else {
            emit_product(inner, gathered, 0, tuple, w, sink, counters, out);
        }
    }
    profile_tail_rows(&mut counters.profile, node_idx, first_sum, gathered);
    if let Some(tb) = counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, first_sum);
    }
    if let Some(t0) = t0 {
        counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Emit the Cartesian product of gathered tail lists, depth-first in list
/// order (the recursion order of the plan walk this replaces). Each level
/// copies its entry's values into the tuple's slots and multiplies its
/// weight; the innermost level appends to the chunk buffer. A single product
/// can dominate a query's output, so every level's loop is a cancellation
/// boundary (one cached check per product row once a trip is observed).
#[allow(clippy::too_many_arguments)]
fn emit_product(
    nodes: &[CompiledNode],
    lists: &[NodeScratch],
    depth: usize,
    tuple: &mut Vec<Value>,
    weight: u64,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    out: &mut ChunkBuffer,
) {
    let node = &nodes[depth];
    let list = &lists[depth];
    let stride = node.bound_after - node.bound_before;
    let last = depth + 1 == nodes.len();
    for (i, &entry_weight) in list.weights.iter().enumerate() {
        if counters.check_cancel() {
            return;
        }
        tuple[node.bound_before..node.bound_after]
            .copy_from_slice(&list.writes[i * stride..(i + 1) * stride]);
        let w = weight.saturating_mul(entry_weight);
        if last {
            out.push(sink, tuple, w);
        } else {
            emit_product(nodes, lists, depth + 1, tuple, w, sink, counters, out);
        }
    }
}

/// Fill `order` with the node's non-cover subatom indices ranked for
/// adaptive probing: ascending by the construction-fixed key bound of each
/// subatom's current trie position, stable so the plan order breaks ties.
/// Returns whether the result differs from plan order (the caller charges
/// `reorders` per binding it applies the order to). O(1) per candidate —
/// `key_bound` is fixed at trie construction, which is also what makes the
/// ranking identical at any thread count or steal schedule.
fn order_probes<'t>(
    node: &CompiledNode,
    cover_idx: usize,
    current: &[NodeRef<'t>],
    order: &mut Vec<usize>,
) -> bool {
    order.clear();
    order.extend((0..node.subatoms.len()).filter(|&j| j != cover_idx));
    order.sort_by_key(|&j| current[node.subatoms[j].input].key_bound());
    order.windows(2).any(|w| w[0] > w[1])
}

/// Probe one non-cover subatom for the current binding: build the key from
/// the bound tuple slots, look it up, and either fold the weight (final
/// level) or descend `current` (saving the old position in `mine.saved`).
/// Returns `false` on a miss. Shared by the static and adaptive scalar
/// probe loops of [`process_cover_entry`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn probe_one_subatom<'t>(
    tries: &'t [Arc<InputTrie>],
    node_idx: usize,
    sub: &CompiledSubatom,
    tuple: &[Value],
    current: &mut [NodeRef<'t>],
    mine: &mut NodeScratch<'t>,
    local_weight: &mut u64,
    counters: &mut ExecCounters,
) -> bool {
    counters.probes += 1;
    let found =
        probe_subatom(&tries[sub.input], current[sub.input], sub, &mut mine.spill_key, |s| {
            tuple[s]
        });
    counters.profile.add_probe(node_idx, found.is_some());
    match found {
        Some(Found::Rows(rows)) => *local_weight = local_weight.saturating_mul(rows),
        Some(Found::Child(child)) => {
            mine.saved.push((sub.input, std::mem::replace(&mut current[sub.input], child)));
        }
        None => return false,
    }
    counters.probe_hits += 1;
    true
}

/// Apply the cover's iteration actions to the tuple buffer. Returns `false`
/// when a `Check` action fails (the iterated key re-binds an already-bound
/// variable to a different value).
fn apply_iter_actions(actions: &[IterAction], key: &[Value], tuple: &mut [Value]) -> bool {
    for action in actions {
        match *action {
            IterAction::Write { key_pos, slot } => tuple[slot] = key[key_pos],
            IterAction::Check { key_pos, slot } => {
                if tuple[slot] != key[key_pos] {
                    return false;
                }
            }
        }
    }
    true
}

/// Process one iterated cover entry of a node: bind the key, probe the other
/// subatoms, and recurse into the next node for matches. This is the body of
/// the scalar cover loop, shared between the serial path (driven by
/// [`InputTrie::for_each`]) and the parallel path (driven by the range items
/// of scheduler tasks).
#[allow(clippy::too_many_arguments)]
fn process_cover_entry<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    node_idx: usize,
    cover_idx: usize,
    key: &[Value],
    child: Option<NodeRef<'t>>,
    tuple: &mut Vec<Value>,
    current: &mut Vec<NodeRef<'t>>,
    weight: u64,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    scratch: &mut [NodeScratch<'t>],
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    // The serial path's per-cover-entry cancellation boundary: a fired token
    // turns every remaining `for_each` callback into this one test.
    if counters.check_cancel() {
        return;
    }
    let node = &plan.nodes[node_idx];
    let cover = &node.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];
    counters.expansions += 1;
    counters.profile.add_expansions(node_idx, 1);
    if !apply_iter_actions(&cover.iter_actions, key, tuple) {
        return;
    }
    let (mine, rest) = scratch.split_at_mut(1);
    let mine = &mut mine[0];
    let mut local_weight = weight;
    mine.saved.clear();

    // The cover's own continuation.
    if cover.final_for_input {
        if let Some(c) = child {
            local_weight = local_weight.saturating_mul(cover_trie.tuple_count(c));
        }
    } else {
        let c = child.expect("non-final cover level is forced into a map");
        mine.saved.push((cover.input, std::mem::replace(&mut current[cover.input], c)));
    }

    // Probe the other subatoms, building each key in place from the tuple
    // slots — in plan order on the static path, smallest current bound first
    // under adaptive execution (one mask check decides; with two subatoms
    // there is a single probe and nothing to reorder).
    let mut all_matched = true;
    if options.adaptive && node.reorderable && node.subatoms.len() > 2 {
        if order_probes(node, cover_idx, current, &mut mine.probe_order) {
            counters.reorders += 1;
            if let Some(tb) = counters.traces.last_mut() {
                tb.instant(TraceCat::Reorder, node_idx as u32, 1, &[]);
            }
        }
        for t in 0..node.subatoms.len() - 1 {
            let j = mine.probe_order[t];
            if !probe_one_subatom(
                tries,
                node_idx,
                &node.subatoms[j],
                tuple,
                current,
                mine,
                &mut local_weight,
                counters,
            ) {
                all_matched = false;
                break;
            }
        }
    } else {
        for (j, sub) in node.subatoms.iter().enumerate() {
            if j == cover_idx {
                continue;
            }
            if !probe_one_subatom(
                tries,
                node_idx,
                sub,
                tuple,
                current,
                mine,
                &mut local_weight,
                counters,
            ) {
                all_matched = false;
                break;
            }
        }
    }

    if all_matched && local_weight > 0 {
        counters.profile.add_output_rows(node_idx, local_weight);
        run_node(
            tries,
            plan,
            options,
            node_idx + 1,
            tuple,
            current,
            local_weight,
            sink,
            counters,
            rest,
            out,
            splitter,
        );
    }
    for (input, old) in mine.saved.drain(..) {
        current[input] = old;
    }
}

/// Tuple-at-a-time execution of one node (no vectorization).
#[allow(clippy::too_many_arguments)]
fn run_node_scalar<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    node_idx: usize,
    cover_idx: usize,
    tuple: &mut Vec<Value>,
    current: &mut Vec<NodeRef<'t>>,
    weight: u64,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    scratch: &mut [NodeScratch<'t>],
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    let node = &plan.nodes[node_idx];
    let cover = &node.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];
    let cover_node = current[cover.input];
    let t0 = counters.profile.is_enabled().then(Instant::now);
    if let Some(tb) = counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, 0, &[]);
    }

    cover_trie.for_each(cover_node, cover.level, |key, child| {
        process_cover_entry(
            tries, plan, options, node_idx, cover_idx, key, child, tuple, current, weight, sink,
            counters, scratch, out, splitter,
        );
    });
    if let Some(tb) = counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, 0);
    }
    if let Some(t0) = t0 {
        counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Vectorized execution of one node (Figure 13): batch the cover iteration,
/// run each probe across the whole batch, then recurse for the survivors.
#[allow(clippy::too_many_arguments)]
fn run_node_vectorized<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    node_idx: usize,
    cover_idx: usize,
    tuple: &mut Vec<Value>,
    current: &mut Vec<NodeRef<'t>>,
    weight: u64,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    scratch: &mut [NodeScratch<'t>],
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    let node = &plan.nodes[node_idx];
    let cover = &node.subatoms[cover_idx];
    let cover_trie = &tries[cover.input];
    let cover_node = current[cover.input];
    let batch_size = options.batch_size;
    let t0 = counters.profile.is_enabled().then(Instant::now);
    if let Some(tb) = counters.traces.last_mut() {
        tb.begin(TraceCat::Node, node_idx as u32, 0, &[]);
    }

    let (mine, rest) = scratch.split_at_mut(1);
    let mine = &mut mine[0];
    ensure_batch_buffers(mine, batch_size, node);
    mine.count = 0;

    cover_trie.for_each(cover_node, cover.level, |key, child| {
        // Checked before buffering: once cancelled, flush_batch refuses to
        // drain, so appending again would overrun the batch buffers.
        if counters.check_cancel() {
            return;
        }
        counters.expansions += 1;
        counters.profile.add_expansions(node_idx, 1);
        buffer_cover_entry(node, cover_idx, cover_trie, key, child, tuple, weight, mine);
        if mine.count >= batch_size {
            flush_batch(
                tries, plan, options, node_idx, cover_idx, mine, rest, tuple, current, sink,
                counters, out, splitter,
            );
        }
    });
    flush_batch(
        tries, plan, options, node_idx, cover_idx, mine, rest, tuple, current, sink, counters, out,
        splitter,
    );
    if let Some(tb) = counters.traces.last_mut() {
        tb.end(TraceCat::Node, node_idx as u32, 0);
    }
    if let Some(t0) = t0 {
        counters.profile.add_wall(node_idx, t0.elapsed());
    }
}

/// Size a node's vectorization buffers for the configured batch size; a
/// no-op once sized (the buffers are reused across invocations).
fn ensure_batch_buffers(mine: &mut NodeScratch<'_>, batch_size: usize, node: &CompiledNode) {
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();
    if mine.weights.len() < batch_size {
        mine.writes.resize(batch_size * new_slots.max(1), Value::Null);
        mine.weights.resize(batch_size, 0);
        mine.alive.resize(batch_size, false);
        mine.children.resize(batch_size * stride, None);
    }
}

/// Buffer one iterated cover entry into the vectorized batch (the gather
/// half of Figure 13): evaluate checks, collect writes into the entry's
/// slice of the batch buffer rather than the shared tuple, and record the
/// cover's weight/child continuation. Entries failing a `Check` are skipped.
/// Shared between the serial vectorized loop and the parallel task driver.
#[allow(clippy::too_many_arguments)]
fn buffer_cover_entry<'t>(
    node: &CompiledNode,
    cover_idx: usize,
    cover_trie: &'t InputTrie,
    key: &[Value],
    child: Option<NodeRef<'t>>,
    tuple: &[Value],
    weight: u64,
    mine: &mut NodeScratch<'t>,
) {
    let cover = &node.subatoms[cover_idx];
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();
    let e = mine.count;
    for action in &cover.iter_actions {
        match *action {
            IterAction::Write { key_pos, slot } => {
                mine.writes[e * new_slots + (slot - node.bound_before)] = key[key_pos];
            }
            IterAction::Check { key_pos, slot } => {
                if tuple[slot] != key[key_pos] {
                    return;
                }
            }
        }
    }
    mine.weights[e] = weight;
    mine.alive[e] = true;
    if cover.final_for_input {
        if let Some(c) = child {
            mine.weights[e] = mine.weights[e].saturating_mul(cover_trie.tuple_count(c));
        }
    } else {
        let c = child.expect("non-final cover level is forced into a map");
        mine.children[e * stride + cover_idx] = Some(c);
    }
    mine.count += 1;
}

/// Probe every non-cover subatom across the buffered batch, then recurse for
/// the surviving entries (the body of Figure 13).
#[allow(clippy::too_many_arguments)]
fn flush_batch<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    node_idx: usize,
    cover_idx: usize,
    mine: &mut NodeScratch<'t>,
    rest: &mut [NodeScratch<'t>],
    tuple: &mut Vec<Value>,
    current: &mut Vec<NodeRef<'t>>,
    sink: &mut dyn Sink,
    counters: &mut ExecCounters,
    out: &mut ChunkBuffer,
    splitter: &mut dyn Splitter<'t>,
) {
    if mine.count == 0 {
        return;
    }
    if counters.check_cancel() {
        // Abandon the buffered batch; the entries are dead (the query's
        // partial output is discarded) and resetting keeps the scratch
        // reusable.
        mine.count = 0;
        return;
    }
    let node = &plan.nodes[node_idx];
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();

    // Probe phase: one pass over the batch per probed relation, giving the
    // temporal locality the paper's vectorization targets. Each entry's key
    // is built in place from the already-bound tuple slots and the batch's
    // write buffer. The probed inputs' trie positions are fixed across the
    // batch (only the cover varies per entry), so under adaptive execution
    // the passes run smallest current bound first — one O(#subatoms) ranking
    // per flush, amortized over up to `batch_size` probes, and every entry
    // sees the same per-binding order the scalar path would use.
    {
        let NodeScratch { spill_key, writes, weights, alive, children, count, probe_order, .. } =
            &mut *mine;
        if options.adaptive && node.reorderable && node.subatoms.len() > 2 {
            if order_probes(node, cover_idx, current, probe_order) {
                counters.reorders += *count as u64;
                if let Some(tb) = counters.traces.last_mut() {
                    tb.instant(TraceCat::Reorder, node_idx as u32, *count as u64, &[]);
                }
            }
        } else {
            probe_order.clear();
            probe_order.extend((0..node.subatoms.len()).filter(|&j| j != cover_idx));
        }
        for &j in probe_order.iter() {
            let sub = &node.subatoms[j];
            let trie = &tries[sub.input];
            let base = current[sub.input];
            for e in 0..*count {
                if !alive[e] {
                    continue;
                }
                let read = |s: usize| {
                    if s < node.bound_before {
                        tuple[s]
                    } else {
                        writes[e * new_slots + (s - node.bound_before)]
                    }
                };
                counters.probes += 1;
                let found = probe_subatom(trie, base, sub, spill_key, read);
                counters.profile.add_probe(node_idx, found.is_some());
                match found {
                    Some(Found::Rows(rows)) => weights[e] = weights[e].saturating_mul(rows),
                    Some(Found::Child(child)) => children[e * stride + j] = Some(child),
                    None => {
                        alive[e] = false;
                        continue;
                    }
                }
                counters.probe_hits += 1;
            }
        }
    }

    // Recurse for the survivors.
    for e in 0..mine.count {
        if !mine.alive[e] || mine.weights[e] == 0 {
            continue;
        }
        for k in 0..new_slots {
            tuple[node.bound_before + k] = mine.writes[e * new_slots + k];
        }
        mine.saved.clear();
        // A survivor descended every non-final subatom in this batch, so
        // those slots are fresh; slots of dead entries may hold stale
        // handles, which are never read.
        for (j, sub) in node.subatoms.iter().enumerate().filter(|(_, s)| !s.final_for_input) {
            let child = mine.children[e * stride + j].expect("survivors descend every level");
            mine.saved.push((sub.input, std::mem::replace(&mut current[sub.input], child)));
        }
        counters.profile.add_output_rows(node_idx, mine.weights[e]);
        run_node(
            tries,
            plan,
            options,
            node_idx + 1,
            tuple,
            current,
            mine.weights[e],
            sink,
            counters,
            rest,
            out,
            splitter,
        );
        for (input, old) in mine.saved.drain(..) {
            current[input] = old;
        }
    }
    mine.count = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::TrieStrategy;
    use crate::prep::{prepare_inputs, BoundInput};
    use crate::sink::{MaterializeSink, OutputSink};
    use fj_plan::{binary2fj, factor, fj_plan_from_var_order, FjNode, FreeJoinPlan, Subatom};
    use fj_query::{Aggregate, OutputBuilder, QueryBuilder};
    use fj_storage::{Catalog, RelationBuilder, Schema};

    /// The paper's clover instance (Figure 3) with parameter n.
    fn clover_catalog(n: i64) -> Catalog {
        let mut cat = Catalog::new();
        let x0 = 0;
        let (x1, x2, x3) = (1, 2, 3);
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        r.push_ints(&[x0, 1000]).unwrap();
        for i in 1..=n {
            r.push_ints(&[x1, 1000 + i]).unwrap();
            r.push_ints(&[x2, 2000 + i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        s.push_ints(&[x0, 3000]).unwrap();
        for i in 1..=n {
            s.push_ints(&[x2, 3000 + i]).unwrap();
            s.push_ints(&[x3, 4000 + i]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let mut t = RelationBuilder::new("T", Schema::all_int(&["x", "c"]));
        t.push_ints(&[x0, 5000]).unwrap();
        for i in 1..=n {
            t.push_ints(&[x3, 5000 + i]).unwrap();
            t.push_ints(&[x1, 6000 + i]).unwrap();
        }
        cat.add(t.finish()).unwrap();
        cat
    }

    fn clover_inputs(cat: &Catalog) -> Vec<BoundInput> {
        let q = QueryBuilder::new("clover")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build();
        prepare_inputs(cat, &q).unwrap().atoms
    }

    fn run(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
    ) -> (u64, ExecCounters) {
        let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(plan, &input_vars).unwrap();
        let tries: Vec<Arc<InputTrie>> = inputs
            .iter()
            .zip(&compiled.schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect();
        let builder =
            OutputBuilder::new(&compiled.binding_order, aggregate, &compiled.binding_order);
        let mut sink = OutputSink::new(builder);
        let counters = execute_pipeline(&tries, &compiled, options, &mut sink);
        (sink.finish().cardinality(), counters)
    }

    /// Like [`run`], but through the work-stealing parallel driver with
    /// per-task sinks merged in path-key order.
    fn run_parallel(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
        num_threads: usize,
    ) -> (u64, ExecCounters) {
        let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(plan, &input_vars).unwrap();
        let tries: Vec<Arc<InputTrie>> = inputs
            .iter()
            .zip(&compiled.schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect();
        let builder =
            OutputBuilder::new(&compiled.binding_order, aggregate, &compiled.binding_order);
        let (sinks, counters) =
            execute_pipeline_parallel(&tries, &compiled, options, num_threads, || {
                OutputSink::new(builder.clone())
            });
        let mut merged = OutputSink::new(builder);
        for sink in sinks {
            merged.merge(sink);
        }
        (merged.finish().cardinality(), counters)
    }

    /// The clover instance has exactly one result: (x0, a0, b0, c0).
    #[test]
    fn clover_binary_style_plan_finds_single_result() {
        let cat = clover_catalog(20);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        for options in [
            FreeJoinOptions::default(),
            FreeJoinOptions::default().with_batch_size(1),
            FreeJoinOptions::generic_join_baseline(),
            FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() },
        ] {
            let (count, counters) = run(&inputs, &plan, &options, Aggregate::Count);
            assert_eq!(count, 1, "options {options:?}");
            assert!(counters.probes >= counters.probe_hits);
        }
    }

    #[test]
    fn clover_factored_plan_gives_same_result_with_fewer_probes() {
        let cat = clover_catalog(50);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let naive = binary2fj(&iv);
        let mut optimized = naive.clone();
        factor(&mut optimized);

        let opts = FreeJoinOptions::default().with_batch_size(1);
        let (c1, k1) = run(&inputs, &naive, &opts, Aggregate::Count);
        let (c2, k2) = run(&inputs, &optimized, &opts, Aggregate::Count);
        assert_eq!(c1, 1);
        assert_eq!(c2, 1);
        // The naive plan expands the skewed R ⋈ S pairs (quadratic in n)
        // before probing T; the factored plan filters with T first.
        assert!(
            k2.probes < k1.probes,
            "factored plan should probe less: {} vs {}",
            k2.probes,
            k1.probes
        );
    }

    #[test]
    fn gj_style_plan_matches_binary_style_results() {
        let cat = clover_catalog(10);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let order: Vec<String> = ["x", "a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let gj = fj_plan_from_var_order(&order, &iv);
        let binary = binary2fj(&iv);
        let opts = FreeJoinOptions::default();
        assert_eq!(
            run(&inputs, &gj, &opts, Aggregate::Count).0,
            run(&inputs, &binary, &opts, Aggregate::Count).0
        );
    }

    #[test]
    fn triangle_count_is_correct_across_plans_and_options() {
        // Small dense graph where triangles can be counted by brute force.
        let mut cat = Catalog::new();
        let edges: Vec<(i64, i64)> = (0..30)
            .flat_map(|i| ((i + 1)..30).map(move |j| (i, j)))
            .filter(|(i, j)| (i * 7 + j * 13) % 3 != 0)
            .collect();
        for name in ["R", "S", "T"] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["u", "v"]));
            for &(i, j) in &edges {
                b.push_ints(&[i, j]).unwrap();
                b.push_ints(&[j, i]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        // Brute-force count of directed triangles.
        let mut expected = 0u64;
        let mut adj = std::collections::HashSet::new();
        for &(i, j) in &edges {
            adj.insert((i, j));
            adj.insert((j, i));
        }
        let nodes: Vec<i64> = (0..30).collect();
        for &x in &nodes {
            for &y in &nodes {
                if !adj.contains(&(x, y)) {
                    continue;
                }
                for &z in &nodes {
                    if adj.contains(&(y, z)) && adj.contains(&(z, x)) {
                        expected += 1;
                    }
                }
            }
        }

        let q = QueryBuilder::new("triangle")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();

        let binary = binary2fj(&iv);
        let mut factored = binary.clone();
        factor(&mut factored);
        let order: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let gj = fj_plan_from_var_order(&order, &iv);

        for plan in [&binary, &factored, &gj] {
            for options in [
                FreeJoinOptions::default(),
                FreeJoinOptions::default().with_batch_size(1),
                FreeJoinOptions::default().with_batch_size(7),
                FreeJoinOptions::generic_join_baseline(),
                FreeJoinOptions {
                    trie: TrieStrategy::Slt,
                    dynamic_cover: false,
                    ..FreeJoinOptions::default()
                },
            ] {
                let (count, _) = run(&inputs, plan, &options, Aggregate::Count);
                assert_eq!(count, expected, "plan {plan} options {options:?}");
                // The work-stealing driver must agree at every thread count.
                for threads in [2, 3, 8] {
                    let (par, _) = run_parallel(&inputs, plan, &options, Aggregate::Count, threads);
                    assert_eq!(par, expected, "threads {threads} plan {plan} options {options:?}");
                }
            }
        }
    }

    /// `R(x,y) = {(1,1)}`, `S(y,z) = {(1,0..s_rows)}` and `T(z,x)` with the
    /// row `(0,1)` twice and `(2,1)` once: three triangles, and for the one
    /// binding of `(x,y)` T's list (3 rows, 2 keys) is shorter than S's.
    fn duplicate_triangle_inputs(s_rows: i64) -> Vec<BoundInput> {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["u", "v"]));
        r.push_ints(&[1, 1]).unwrap();
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["u", "v"]));
        for z in 0..s_rows {
            s.push_ints(&[1, z]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let mut t = RelationBuilder::new("T", Schema::all_int(&["u", "v"]));
        for z in [0, 0, 2] {
            t.push_ints(&[z, 1]).unwrap();
        }
        cat.add(t.finish()).unwrap();
        let q = QueryBuilder::new("triangle")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .build();
        prepare_inputs(&cat, &q).unwrap().atoms
    }

    /// An unpruned plan keeps `binary2fj`'s trailing `[#2()]`, so after the
    /// split `#2(z)` is a cover that is *not* its input's last subatom while
    /// nothing keyed remains below it: the trie would walk it row by row,
    /// but every entry needs a child position for `#2()` to start from. The
    /// executor iterates the map there.
    #[test]
    fn unpruned_split_plan_gives_a_non_final_cover_its_children() {
        let inputs = duplicate_triangle_inputs(6);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        assert_eq!(plan.to_string(), "[[#0(x,y), #1(y), #2(x)], [#1(z), #2(z)], [#2()]]");
        for trie in [TrieStrategy::Colt, TrieStrategy::Slt, TrieStrategy::Simple] {
            for batch_size in [1, 1000] {
                let options =
                    FreeJoinOptions::default().with_trie(trie).with_batch_size(batch_size);
                // Dynamic cover iterates #2(z), T's shorter list.
                let (count, counters) = run(&inputs, &plan, &options, Aggregate::Count);
                assert_eq!(count, 3, "{options:?}");
                // (x,y), the two distinct z under T, one step into #2() each.
                assert_eq!(counters.expansions, 1 + 2 + 2, "{options:?}");
                let split = options.with_split_threshold(2);
                for threads in [2, 4] {
                    let (par, _) = run_parallel(&inputs, &plan, &split, Aggregate::Count, threads);
                    assert_eq!(par, 3, "threads {threads} {split:?}");
                }
            }
        }
    }

    /// Walking an unforced cover row by row reports a duplicate row as two
    /// entries of weight 1 where its map has one entry of weight 2: the same
    /// bag result from a different number of expansions (and probes). The
    /// probes into S's list are final: scanned in place while the list is
    /// within the scan bound, answered by its map once it is a hub — and
    /// counted the same either way, in the scalar, vectorized and
    /// work-stealing loops.
    #[test]
    fn row_wise_cover_reports_duplicate_rows_as_separate_entries() {
        for s_rows in [6, crate::trie::SCAN_PROBE_MAX_ROWS as i64 + 5] {
            let inputs = duplicate_triangle_inputs(s_rows);
            let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
            let mut plan = binary2fj(&iv);
            plan.prune_empty_subatoms();
            factor(&mut plan);
            assert_eq!(plan.to_string(), "[[#0(x,y), #1(y), #2(x)], [#1(z), #2(z)]]");
            for batch_size in [1, 1000] {
                let colt = FreeJoinOptions::default().with_batch_size(batch_size);
                let (count, rows) = run(&inputs, &plan, &colt, Aggregate::Count);
                // COLT: T's three rows under x = 1, each probing S.
                assert_eq!((count, rows.work()), (3, (2 + 3, 2 + 3, 1 + 3)), "S has {s_rows}");
                // The simple trie built T's second level up front: two keys.
                let simple = colt.with_trie(TrieStrategy::Simple);
                let (count, keys) = run(&inputs, &plan, &simple, Aggregate::Count);
                assert_eq!((count, keys.work()), (3, (2 + 2, 2 + 2, 1 + 2)), "S has {s_rows}");
                // Materialized, the duplicate still comes out twice.
                assert_eq!(run(&inputs, &plan, &colt, Aggregate::Materialize).0, 3);
                let split = colt.with_split_threshold(2);
                for threads in [2, 4] {
                    let (par, _) = run_parallel(&inputs, &plan, &split, Aggregate::Count, threads);
                    assert_eq!(par, 3, "threads {threads}, S has {s_rows}");
                }
            }
        }
    }

    #[test]
    fn bag_semantics_duplicates_multiply() {
        // R(x) = {1, 1}, S(x) = {1, 1, 1} -> R ⋈ S on x has 6 tuples.
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x"]));
        r.push_ints(&[1]).unwrap();
        r.push_ints(&[1]).unwrap();
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x"]));
        for _ in 0..3 {
            s.push_ints(&[1]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("dup").atom("R", &["x"]).atom("S", &["x"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        for options in [
            FreeJoinOptions::default(),
            FreeJoinOptions::default().with_batch_size(1),
            FreeJoinOptions::generic_join_baseline(),
        ] {
            let (count, _) = run(&inputs, &plan, &options, Aggregate::Count);
            assert_eq!(count, 6, "options {options:?}");
            let (par, _) = run_parallel(&inputs, &plan, &options, Aggregate::Count, 4);
            assert_eq!(par, 6, "parallel options {options:?}");
        }
    }

    #[test]
    fn materialized_rows_match_counts() {
        let cat = clover_catalog(5);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        let compiled = compile(&plan, &iv).unwrap();
        let options = FreeJoinOptions::default();
        let tries: Vec<Arc<InputTrie>> = inputs
            .iter()
            .zip(&compiled.schemas)
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect();
        let mut sink = MaterializeSink::new();
        execute_pipeline(&tries, &compiled, &options, &mut sink);
        let rows = sink.into_rows();
        assert_eq!(rows.len(), 1);
        // Binding order is x, a, b, c.
        assert_eq!(
            rows[0],
            vec![Value::Int(0), Value::Int(1000), Value::Int(3000), Value::Int(5000)]
        );
    }

    #[test]
    fn pruned_plans_count_through_leaf_multiplicities() {
        // Star query: R(x,a), S(x,b), T(x,c) where every relation has the
        // same single x value and k tuples; result size k^3.
        let k = 20i64;
        let mut cat = Catalog::new();
        for (name, base) in [("R", 0i64), ("S", 1000), ("T", 2000)] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["x", "v"]));
            for i in 0..k {
                b.push_ints(&[7, base + i]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        let q = QueryBuilder::new("star")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);

        // The same star as the plan compiler prunes it for a count: every
        // input binds x alone, and the subatoms left without a variable go.
        let narrowed = |vars: &[&str]| -> Vec<BoundInput> {
            let vars: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
            let var_cols: Vec<usize> = (0..vars.len()).collect();
            inputs
                .iter()
                .map(|i| BoundInput { vars: vars.clone(), var_cols: var_cols.clone(), ..i.clone() })
                .collect()
        };
        let x_only = narrowed(&["x"]);
        let mut pruned = binary2fj(&[vec!["x".to_string()], vec!["x".into()], vec!["x".into()]]);
        pruned.prune_empty_subatoms();

        let opts = FreeJoinOptions::default();
        let (c1, k1) = run(&inputs, &plan, &opts, Aggregate::Count);
        let (c2, k2) = run(&x_only, &pruned, &opts, Aggregate::Count);
        assert_eq!(c1, (k * k * k) as u64);
        assert_eq!(c2, c1);
        // k rows of R iterated against k^3 product rows emitted.
        assert!(k2.probes <= k1.probes);
        assert_eq!(k2.expansions, k as u64);
        assert!(k1.expansions >= (k * k * k) as u64);
        // Same counts through the parallel driver.
        let (p1, _) = run_parallel(&inputs, &plan, &opts, Aggregate::Count, 4);
        let (p2, _) = run_parallel(&x_only, &pruned, &opts, Aggregate::Count, 4);
        assert_eq!(p1, c1);
        assert_eq!(p2, c1);

        // Every variable pruned: the root is one entry carrying R's row
        // count, serial or parallel (nothing to split).
        let scan = FreeJoinPlan::new(vec![FjNode::new(vec![Subatom::new(0, vec![])])]);
        let no_vars = &narrowed(&[])[..1];
        let (count, counters) = run(no_vars, &scan, &opts, Aggregate::Count);
        assert_eq!((count, counters.work()), (k as u64, (0, 0, 1)));
        let (count, counters) = run_parallel(no_vars, &scan, &opts, Aggregate::Count, 4);
        assert_eq!((count, counters.work()), (k as u64, (0, 0, 1)));
    }

    #[test]
    fn empty_inputs_produce_empty_results() {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        r.push_ints(&[1, 2]).unwrap();
        cat.add(r.finish()).unwrap();
        cat.add(fj_storage::Relation::empty("S", Schema::all_int(&["x", "b"]))).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x", "a"]).atom("S", &["x", "b"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        let (count, counters) = run(&inputs, &plan, &FreeJoinOptions::default(), Aggregate::Count);
        assert_eq!(count, 0);
        assert_eq!(counters.probe_hits, 0);
        let (par, _) =
            run_parallel(&inputs, &plan, &FreeJoinOptions::default(), Aggregate::Count, 4);
        assert_eq!(par, 0);
    }

    #[test]
    fn dynamic_cover_prefers_smaller_relation() {
        // Node with two cover candidates where S is much smaller than R:
        // dynamic selection should iterate S and probe R, giving fewer
        // probes than the static choice of iterating R.
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x"]));
        for i in 0..1000i64 {
            r.push_ints(&[i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x"]));
        for i in 0..10i64 {
            s.push_ints(&[i]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x"]).atom("S", &["x"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let order: Vec<String> = vec!["x".to_string()];
        let plan = fj_plan_from_var_order(&order, &iv);

        let dynamic =
            FreeJoinOptions { dynamic_cover: true, batch_size: 1, ..FreeJoinOptions::default() };
        let fixed =
            FreeJoinOptions { dynamic_cover: false, batch_size: 1, ..FreeJoinOptions::default() };
        let (c_dyn, k_dyn) = run(&inputs, &plan, &dynamic, Aggregate::Count);
        let (c_fix, k_fix) = run(&inputs, &plan, &fixed, Aggregate::Count);
        assert_eq!(c_dyn, 10);
        assert_eq!(c_fix, 10);
        // Iterating S (10 keys) and probing R does 10 probes; iterating R
        // (1000 keys) and probing S does 1000.
        assert_eq!(k_dyn.probes, 10);
        assert_eq!(k_fix.probes, 1000);
        // The parallel driver makes the same dynamic-cover choice and does
        // the same probes in total, just spread over workers.
        let (p_dyn, pk_dyn) = run_parallel(&inputs, &plan, &dynamic, Aggregate::Count, 4);
        assert_eq!(p_dyn, 10);
        assert_eq!(pk_dyn.probes, 10);
    }

    #[test]
    fn vectorized_batches_flush_incrementally() {
        // A join whose cover has more entries than the batch size, so the
        // incremental flush path is exercised (and the final partial flush).
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        for i in 0..257i64 {
            r.push_ints(&[i % 50, i]).unwrap();
            s.push_ints(&[i % 50, i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x", "a"]).atom("S", &["x", "b"]).build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let plan = binary2fj(&iv);
        let scalar = FreeJoinOptions::default().with_batch_size(1);
        let small_batches = FreeJoinOptions::default().with_batch_size(8);
        let (a, _) = run(&inputs, &plan, &scalar, Aggregate::Count);
        let (b, _) = run(&inputs, &plan, &small_batches, Aggregate::Count);
        assert_eq!(a, b);
        // 257 rows over 50 keys: most keys hold 5 or 6 rows, so the count is
        // sum over keys of |R_x| * |S_x|.
        let mut expected = 0u64;
        let mut counts = std::collections::HashMap::new();
        for i in 0..257i64 {
            *counts.entry(i % 50).or_insert(0u64) += 1;
        }
        for c in counts.values() {
            expected += c * c;
        }
        assert_eq!(a, expected);
    }

    #[test]
    fn parallel_probe_counters_match_serial() {
        let cat = clover_catalog(40);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        let opts = FreeJoinOptions::default().with_batch_size(1);
        let (serial_count, serial_counters) = run(&inputs, &plan, &opts, Aggregate::Count);
        let (par_count, par_counters) = run_parallel(&inputs, &plan, &opts, Aggregate::Count, 4);
        assert_eq!(serial_count, par_count);
        // Every root entry does the same probes and expansions whichever
        // worker runs it; only the scheduling counters (spawned / stolen /
        // per-worker shares) depend on the schedule.
        assert_eq!(serial_counters.work(), par_counters.work());
    }
}
