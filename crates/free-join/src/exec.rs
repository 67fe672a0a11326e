//! The Free Join execution algorithm (Figures 7 and 13 of the paper).
//!
//! Execution proceeds node by node over a compiled plan. For each node the
//! engine iterates one subatom — the *cover* — and probes the others; when
//! every probe succeeds it recurses into the next node, and when the plan is
//! exhausted it emits the current tuple. There is one executor:
//! [`execute_pipeline`] is the only entry point, an `ExecCtx` holds what the
//! recursion threads from call to call, and one cover loop walks a node's
//! entries whether the node was reached by recursion or handed out as a
//! scheduler task. Three of the paper's optimizations live here:
//!
//! * **Bound-ranked covers and probes** (Section 4.4: "we use the length of
//!   the vector as an estimate"). Every decision the executor makes about a
//!   node reads one number per subatom: the row count below the subatom's
//!   *current* trie position ([`NodeRef::key_bound`]), O(1) and fixed when
//!   the trie is built. Per binding, the cover candidate with the smallest
//!   bound is iterated and the node's other subatoms are probed smallest
//!   bound first, the plan order breaking ties — so a miss on a tiny
//!   per-binding sub-trie skips (and never lazily forces) a huge one, and on
//!   the two-cover nodes split factoring produces for cyclic queries
//!   (`[S(z), T(z)]`) the node is a set intersection: the shorter list is
//!   walked row by row and the longer one probed — by scanning it in place
//!   when it is small, through its map when it is a hub (see "Lazy leaves"
//!   in [`crate::trie`]). A bound does not move when a node is forced, so
//!   the choices are the same at any thread count and steal schedule, and
//!   for a trie that arrives forced from the cache.
//! * **Vectorized execution** (Section 4.3, Figure 13): gather a batch of
//!   iterated keys, run each probe over the whole batch, then recurse for
//!   the survivors. It is the cover loop's per-entry step at every node
//!   with probes — no option turns it off; a node whose cover is its only
//!   subatom has nothing to probe and recurses entry by entry. The batch
//!   buffers hold the entries the cover can yield, at most `BATCH` (1000,
//!   the paper's default).
//! * **Factorized output** (Section 4.4) needs nothing here: the plan
//!   compiler removed every variable nothing reads ([`crate::compile`]), and
//!   the weight rule below counts the rows those variables told apart.
//!
//! Bag semantics are handled with a running weight: the trie node reached
//! through an input's final subatom — probed or iterated — stands for all
//! the base tuples below it and multiplies the weight by their number. A
//! final probe therefore asks the trie for that number only
//! ([`InputTrie::count_matches`]); a probe that has to descend asks for the
//! child position. Both count as one probe (and one hit) in
//! [`ExecCounters`] and in the per-node profile, on one thread or many.
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
//! side: every worker appends bindings into a [`ChunkBuffer`] — a
//! column-major [`fj_query::ResultChunk`] already projected onto the
//! [`OutputBuilder`]'s positions (a counting builder's chunks carry only
//! weights) — which hands the builder one chunk at a time. When the
//! remaining plan is an *independent tail* (every following node a single
//! final expansion of live variables — the output reads them, so they must
//! be enumerated), the executor gathers each inner expansion's
//! `(values, weight)` list once and emits the Cartesian product straight
//! into the chunk columns, rather than re-walking each suffix trie for every
//! outer combination. Emission order is identical to the recursive walk's,
//! so results are bit-for-bit those of the tuple-at-a-time executor this
//! replaces.
//!
//! # Work-stealing parallelism
//!
//! With `threads > 1`, [`execute_pipeline`] runs the plan under a shared
//! work-stealing scheduler in the spirit of morsel-driven execution (Leis et
//! al., SIGMOD 2014), but with **recursive splitting across the whole plan**
//! rather than at the root only. The first node's cover iteration seeds a
//! global injector with range tasks; each scoped worker owns a deque, pops
//! its own tasks LIFO, and steals FIFO from the injector or a peer when
//! idle. A worker that *begins* an expansion — at any plan node, or an
//! independent-tail Cartesian product — whose bound (the rows below the
//! cover's position, [`NodeRef::key_bound`]) reaches
//! `FreeJoinOptions::split_threshold` forces the level (a tail gathers its
//! first list), and if that is as wide does not walk it alone: it pushes
//! sub-range `Task`s onto its deque for idle workers to steal and moves on.
//! Each task carries its binding prefix, trie positions and running weight,
//! so the cover loop resumes mid-plan exactly where the split happened. With
//! `threads <= 1` the same root call runs on the calling thread with the
//! split hook absent: no scheduler, no spawned thread, one builder and one
//! chunk buffer.
//!
//! **Determinism.** Every task carries a dense *path key*: root tasks are
//! keyed `[0] .. [k-1]` in root-range order, and a task's spawned children
//! extend its own key with a per-task counter assigned in expansion order.
//! Split decisions depend only on construction-fixed bounds, the key counts
//! of the levels they force and the configured threshold — never on the
//! thread count, on which worker ran what or on which nodes were already
//! forced — so the task tree, and therefore the lexicographic path-key
//! order in which per-task builders are merged, is identical at any thread
//! count above one and any steal schedule. Probes may lazily force shared
//! trie nodes from several workers at once — the trie's `OnceLock`-based
//! forcing (see [`crate::trie`]) makes that race-free. One read of that
//! shared state does reach the work counts: a cover at its input's last
//! level is walked row by row while unforced and key by key once forced
//! ([`InputTrie::iterates_rows`]), so over duplicate rows the number of
//! expansions, the probes they make and whether a tail — it counts the
//! entries it gathered — splits can depend on which worker probed the node
//! first; the results never do.

use crate::cancel::CancelToken;
use crate::compile::{CompiledNode, CompiledPlan, CompiledSubatom, IterAction};
use crate::options::FreeJoinOptions;
use crate::sink::ChunkBuffer;
use crate::trie::{InputTrie, NodeRef};
use fj_obs::{ProfileSheet, TraceBuf, TraceCat, DEFAULT_TRACE_CAPACITY};
use fj_query::{CancelReason, ExecStats, OutputBuilder};
use fj_storage::Value;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one request carries through an execution, all off by default: its
/// cancel token and the two instruments. An
/// [`crate::session::ExecRequest`] brings them from the caller, the
/// pipeline loop polls the token at pipeline boundaries and the executor
/// reads all three when it sets up a worker's [`ExecCounters`]. Off, nothing
/// is allocated and every check, bump or emission site is one branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Instruments {
    /// Collect the per-plan-node profile ([`ExecCounters::profile`]).
    pub profile: bool,
    /// Record per-worker trace event rings ([`ExecCounters::traces`]).
    pub trace: bool,
    /// The request's cooperative-cancellation token (deadline, byte budget,
    /// explicit cancel); the disabled default never fires.
    pub token: CancelToken,
}

/// Counters collected during the join phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// The additive work counts, as the [`ExecStats`] they end up in:
    /// `probes` and `probe_hits`; `tasks_spawned` (root ranges plus split
    /// sub-ranges) and `tasks_stolen` (run by another worker than the
    /// spawner; schedule-dependent), both zero on one thread;
    /// `worker_expansions` (`expansions` by worker id, empty on one thread);
    /// and `reorders` — cover-entry bindings whose bound-ranked probe order
    /// differed from the plan order (one ranking per run of the cover loop,
    /// charged to every entry it probes for). Deterministic — each binding
    /// is processed exactly once and the ranking depends only on
    /// construction-fixed trie bounds, so the count is identical at any
    /// thread count or steal schedule.
    pub stats: ExecStats,
    /// Expansion work processed: cover entries iterated at join nodes plus
    /// product rows emitted at independent-tail nodes. Identical at any
    /// thread count (splitting moves work, it never adds any).
    pub expansions: u64,
    /// Per-plan-node profile accumulators; disabled (empty, no allocation)
    /// unless [`Instruments::profile`] is set.
    pub profile: ProfileSheet,
    /// Per-worker trace event rings (node/task spans, steal/split/reorder
    /// instants); empty — no allocation, emission sites reduce to a length
    /// check — unless [`Instruments::trace`] is set. One ring per worker
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
    /// The counters one worker starts from: the request's token, and the
    /// instruments it asked for.
    fn for_worker(plan: &CompiledPlan, instruments: &Instruments, worker: u32) -> Self {
        let mut counters =
            ExecCounters { cancel: instruments.token.clone(), ..ExecCounters::default() };
        if instruments.profile {
            counters.profile = ProfileSheet::enabled(plan.nodes.len());
        }
        if instruments.trace {
            counters.traces.push(TraceBuf::with_capacity(DEFAULT_TRACE_CAPACITY, worker));
        }
        counters
    }

    /// Accumulate another worker's counters.
    pub fn merge(&mut self, mut other: ExecCounters) {
        self.stats.merge(&other.stats);
        self.expansions += other.expansions;
        self.profile.merge(&other.profile);
        self.traces.append(&mut other.traces);
    }

    /// The schedule-independent subset (probe and expansion totals), used by
    /// tests to check that parallel execution does exactly the serial work.
    pub fn work(&self) -> (u64, u64, u64) {
        (self.stats.probes, self.stats.probe_hits, self.expansions)
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
/// per-tuple heap allocation. Every worker owns a private set.
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
    /// Probe order for this node's non-cover subatoms (subatom indices),
    /// ranked by [`order_probes`] once per run of the cover loop.
    probe_order: Vec<usize>,
    /// Does `probe_order` differ from the plan's order?
    reordered: bool,
}

/// Which entries of a node's cover one run of the cover loop walks.
#[derive(Debug, Clone)]
enum CoverRange {
    /// Every entry, as [`InputTrie::for_each`] hands them out: a node
    /// reached by recursion.
    All,
    /// Children `lo..hi` of the cover's forced level (the node is the
    /// task's position in the cover's input): a scheduler task.
    Children(Range<usize>),
    /// Base-table rows `lo..hi`: a root task over a cover that is unforced
    /// with no keyed level below it (the COLT fast path), iterated directly
    /// without forcing.
    Rows(Range<usize>),
}

/// A range of an independent tail's first expansion list (flat
/// `(values, weight)` columns, shared by the tasks cut from one list).
struct TailList {
    writes: Arc<Vec<Value>>,
    weights: Arc<Vec<u64>>,
    range: Range<usize>,
}

/// What one scheduler task iterates. Cover ranges are plain indices into
/// the tries (which outlive the worker scope), so tasks have no lifetime
/// ties to the worker that spawned them and a split materializes nothing.
enum TaskItems {
    /// A range of a node's cover.
    Cover { cover_idx: usize, range: CoverRange },
    /// A slice of an independent tail's first list; the task re-gathers the
    /// inner lists and emits its slice of the Cartesian product.
    Tail(TailList),
}

/// One unit of stealable work: resume the plan at `node_idx` with the given
/// binding prefix, trie positions and running weight, and iterate `items`.
/// `path` is the task's dense key in the task tree; sorting per-task builders
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
    split_threshold: usize,
}

impl<'t> Scheduler<'t> {
    /// A scheduler for `num_workers` workers whose injector holds `roots`.
    fn new(num_workers: usize, split_threshold: usize, roots: Vec<Task<'t>>) -> Self {
        Scheduler {
            queues: (0..num_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(roots.len()),
            spawned: AtomicU64::new(roots.len() as u64),
            injector: Mutex::new(roots.into()),
            // A 0/1 threshold would split single-entry expansions into
            // themselves forever; the options setter clamps, this guards
            // struct-literal construction.
            split_threshold: split_threshold.max(2),
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

/// The split hook of one scheduler worker, scoped to the task it is
/// running; a context without one runs on the calling thread and never
/// splits. Child tasks extend the running task's path key with a counter
/// assigned in expansion order, which is what makes the task tree — and the
/// merge order — schedule-independent.
struct WorkerSplitter<'a, 't> {
    sched: &'a Scheduler<'t>,
    worker: usize,
    path: &'a [u32],
    next_child: u32,
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

/// Execute a compiled pipeline over its input tries — the executor's one
/// entry point.
///
/// Results land in `builder`, an empty [`OutputBuilder`] over the plan's
/// binding order; `instruments` carries the request's token — checked per
/// cover entry and at every node, flush and task boundary (chunk-buffer
/// flushes charge its result-byte budget) — and says whether the returned
/// counters carry a per-node profile and trace rings. A fired token makes
/// the remaining walk a cheap no-op; the caller detects the trip via
/// [`CancelToken::fired`] (or the counters' `cancelled` field) and discards
/// the partial builders. Trie-building counters live on the tries.
///
/// With `threads <= 1` — or when the first node has no root-level work to
/// split — the plan runs on the calling thread into `builder` itself, which
/// comes back alone: no scheduler is built and no thread is spawned.
/// Otherwise it runs under the work-stealing scheduler of the module docs,
/// every task fills its own clone of `builder`, and the builders of the
/// tasks that produced anything come back in **task-tree order** (per-task
/// path keys sorted lexicographically) next to the summed counters, so the
/// caller's merge is identical at any thread count and any steal schedule.
pub fn execute_pipeline(
    tries: &[Arc<InputTrie>],
    plan: &CompiledPlan,
    options: &FreeJoinOptions,
    threads: usize,
    builder: OutputBuilder,
    instruments: &Instruments,
) -> (Vec<OutputBuilder>, ExecCounters) {
    debug_assert_eq!(tries.len(), plan.num_inputs);
    let roots: Vec<NodeRef<'_>> = tries.iter().map(|t| t.root()).collect();
    let blank = vec![Value::Null; plan.binding_order.len()];
    let root_tasks = if threads > 1 { root_tasks(tries, plan, &roots, &blank) } else { Vec::new() };
    let new_scratch = move || plan.nodes.iter().map(|_| NodeScratch::default()).collect::<Vec<_>>();

    if root_tasks.is_empty() {
        let counters = ExecCounters::for_worker(plan, instruments, 0);
        let mut ctx = ExecCtx::new(tries, plan, builder, counters, (blank, roots));
        ctx.run_node(0, 1, &mut new_scratch());
        let (builder, counters) = ctx.finish();
        return (vec![builder], counters);
    }

    let sched = Scheduler::new(threads, options.split_threshold, root_tasks);
    let segments: Mutex<Vec<(Vec<u32>, OutputBuilder)>> = Mutex::new(Vec::new());
    let total_counters: Mutex<ExecCounters> = Mutex::new(ExecCounters::default());

    std::thread::scope(|scope| {
        for id in 0..threads {
            let (sched, segments, total_counters, builder) =
                (&sched, &segments, &total_counters, &builder);
            scope.spawn(move || {
                let mut scratch = new_scratch();
                let mut counters = ExecCounters::for_worker(plan, instruments, id as u32);
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
                    // injector empty out, `pending` still reaches zero and no
                    // worker spins.
                    if counters.check_cancel() {
                        sched.pending.fetch_sub(1, Ordering::AcqRel);
                        continue;
                    }
                    let Task { path, node_idx, items, tuple, positions, weight, spawner } = task;
                    let node = node_idx as u32;
                    if spawner != usize::MAX && spawner != id {
                        counters.stats.tasks_stolen += 1;
                        if let Some(tb) = counters.traces.last_mut() {
                            tb.instant(TraceCat::Steal, node, spawner as u64, &path);
                        }
                    }
                    if let Some(tb) = counters.traces.last_mut() {
                        tb.begin(TraceCat::Task, node, weight, &path);
                    }
                    let mine = std::mem::take(&mut counters);
                    let start = (tuple, positions);
                    let mut ctx = ExecCtx::new(tries, plan, builder.clone(), mine, start);
                    ctx.split =
                        Some(WorkerSplitter { sched, worker: id, path: &path, next_child: 0 });
                    ctx.run_task(node_idx, weight, &items, &mut scratch);
                    let (task_builder, mine) = ctx.finish();
                    counters = mine;
                    if let Some(tb) = counters.traces.last_mut() {
                        tb.end(TraceCat::Task, node, task_builder.tuples());
                    }
                    // Empty builders contribute nothing to the merge; skip
                    // them (split-heavy schedules produce many empty tasks).
                    if task_builder.tuples() > 0 {
                        let segment = (path, task_builder);
                        segments.lock().expect("no poisoned segments").push(segment);
                    }
                    sched.pending.fetch_sub(1, Ordering::AcqRel);
                }
                counters.stats.worker_expansions = vec![0; threads];
                counters.stats.worker_expansions[id] = counters.expansions;
                total_counters.lock().expect("no poisoned counters").merge(counters);
            });
        }
    });

    let mut counters = total_counters.into_inner().expect("no poisoned counters");
    counters.stats.tasks_spawned = sched.spawned.load(Ordering::Relaxed);
    counters.cancel = instruments.token.clone();
    counters.cancelled = instruments.token.fired();
    let mut segments = segments.into_inner().expect("no poisoned segments");
    // The deterministic merge: lexicographic path-key order reproduces the
    // task-tree (depth-first, expansion-order) traversal regardless of which
    // worker ran which task.
    segments.sort_by(|a, b| a.0.cmp(&b.0));
    (segments.into_iter().map(|(_, builder)| builder).collect(), counters)
}

/// The first node's cover iteration as range tasks for the injector, keyed
/// `[0] .. [k-1]`. Empty when there is nothing at the root to split: no
/// node, a cover without variables (every variable of its input was pruned,
/// so the root is one entry carrying the row count), or no entry.
fn root_tasks<'t>(
    tries: &'t [Arc<InputTrie>],
    plan: &CompiledPlan,
    roots: &[NodeRef<'t>],
    blank: &[Value],
) -> Vec<Task<'t>> {
    let Some(node0) = plan.nodes.first() else { return Vec::new() };
    let cover_idx = select_cover(node0, roots);
    let cover = &node0.subatoms[cover_idx];
    if cover.key_slots.is_empty() {
        return Vec::new();
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
    // Root task granularity: a fixed fan-out independent of the thread count
    // (so the task tree, and with it the merge order, is the same at any
    // thread count), capped so per-task builder overhead stays negligible.
    // Skew below the root is the scheduler's job, not the root chunking's:
    // any root range hiding a hot subtree re-splits when it reaches the
    // oversized expansion.
    const ROOT_FAN: usize = 32;
    let root_chunk = total.div_ceil(ROOT_FAN).clamp(1, 4096);
    (0..total.div_ceil(root_chunk))
        .map(|m| {
            let range = m * root_chunk..((m + 1) * root_chunk).min(total);
            let range = if by_rows { CoverRange::Rows(range) } else { CoverRange::Children(range) };
            Task {
                path: vec![m as u32],
                node_idx: 0,
                items: TaskItems::Cover { cover_idx, range },
                tuple: blank.to_vec(),
                positions: roots.to_vec(),
                weight: 1,
                spawner: usize::MAX,
            }
        })
        .collect()
}

/// Select which subatom of the node to iterate (the runtime cover): the
/// candidate with the fewest rows below its current trie position, the
/// static plan order breaking ties. The bound is fixed when the trie is
/// built — forcing a node does not move it — so the choice, and everything
/// downstream of it, is schedule-independent.
fn select_cover(node: &CompiledNode, current: &[NodeRef<'_>]) -> usize {
    if let [only] = node.cover_candidates[..] {
        return only;
    }
    *node
        .cover_candidates
        .iter()
        .min_by_key(|&&i| current[node.subatoms[i].input].key_bound())
        .expect("valid plans have at least one cover")
}

/// Most entries a node with probes buffers before it probes them: the
/// paper's default batch size (Section 4.3). The buffers are sized to
/// `BATCH.min(entries the cover can yield)`, so a narrow cover never pays
/// for a whole batch.
const BATCH: usize = 1000;

/// Everything the recursive join threads from call to call: what it reads
/// (tries, plan), the state it advances (binding tuple, trie positions,
/// counters) and where results go (the chunk buffer and the builder it
/// feeds). One context runs the whole plan on the calling thread, or one
/// scheduler task on a worker — then `split` is set and the tuple and
/// positions are the task's own. Methods take the plan position and
/// `scratch`, the scratch space of that node and every following one
/// (`scratch[0]` belongs to the node).
struct ExecCtx<'a, 't> {
    tries: &'t [Arc<InputTrie>],
    plan: &'t CompiledPlan,
    tuple: Vec<Value>,
    current: Vec<NodeRef<'t>>,
    out: ChunkBuffer,
    counters: ExecCounters,
    split: Option<WorkerSplitter<'a, 't>>,
}

impl<'a, 't> ExecCtx<'a, 't> {
    /// A context that never splits, emitting into `builder` from the
    /// binding tuple and trie positions in `start`.
    fn new(
        tries: &'t [Arc<InputTrie>],
        plan: &'t CompiledPlan,
        builder: OutputBuilder,
        counters: ExecCounters,
        start: (Vec<Value>, Vec<NodeRef<'t>>),
    ) -> Self {
        let out = ChunkBuffer::new(builder, counters.cancel.clone());
        ExecCtx { tries, plan, tuple: start.0, current: start.1, out, counters, split: None }
    }

    /// Flush the buffered results and give the builder and the counters
    /// back.
    fn finish(self) -> (OutputBuilder, ExecCounters) {
        (self.out.finish(), self.counters)
    }

    /// Open the span of one run of a node: in the trace, and — its start
    /// time comes back — in the profile.
    fn begin_node(&mut self, node_idx: usize, arg: u64, path: &[u32]) -> Option<Instant> {
        if let Some(tb) = self.counters.traces.last_mut() {
            tb.begin(TraceCat::Node, node_idx as u32, arg, path);
        }
        self.counters.profile.is_enabled().then(Instant::now)
    }

    /// Close the span [`Self::begin_node`] opened.
    fn end_node(&mut self, node_idx: usize, arg: u64, started: Option<Instant>) {
        if let Some(t0) = started {
            self.counters.profile.add_wall(node_idx, t0.elapsed());
        }
        if let Some(tb) = self.counters.traces.last_mut() {
            tb.end(TraceCat::Node, node_idx as u32, arg);
        }
    }

    /// Charge `entries` bindings whose probes ran in another order than the
    /// plan's.
    fn note_reorder(&mut self, node_idx: usize, entries: u64) {
        self.counters.stats.reorders += entries;
        if let Some(tb) = self.counters.traces.last_mut() {
            tb.instant(TraceCat::Reorder, node_idx as u32, entries, &[]);
        }
    }

    /// The expansion size from which this worker cuts sub-range tasks
    /// instead of walking the expansion itself; `None` when it never splits.
    fn split_threshold(&self) -> Option<usize> {
        self.split.as_ref().map(|s| s.sched.split_threshold)
    }

    /// Cut `total` entries into tasks of `chunk` and push them onto this
    /// worker's deque. Each task resumes at `node_idx` from the current
    /// binding tuple, trie positions and `weight`.
    fn spawn(
        &mut self,
        node_idx: usize,
        weight: u64,
        total: usize,
        chunk: usize,
        items: impl Fn(Range<usize>) -> TaskItems,
    ) {
        let split = self.split.as_mut().expect("only a scheduler worker decides to split");
        let chunk = chunk.max(1);
        let tasks = (0..total)
            .step_by(chunk)
            .map(|lo| {
                split.next_child += 1;
                Task {
                    path: [split.path, &[split.next_child - 1]].concat(),
                    node_idx,
                    items: items(lo..(lo + chunk).min(total)),
                    tuple: self.tuple.clone(),
                    positions: self.current.clone(),
                    weight,
                    spawner: split.worker,
                }
            })
            .collect();
        split.sched.push_tasks(split.worker, tasks);
    }

    /// Execute one scheduler task from the binding prefix, trie positions
    /// and weight it carried: a cover range through the cover loop (which
    /// recurses into the rest of the plan and may split again, deeper), or
    /// a slice of an independent tail's product.
    fn run_task(
        &mut self,
        node_idx: usize,
        weight: u64,
        items: &TaskItems,
        scratch: &mut [NodeScratch<'t>],
    ) {
        // Chaos failpoint: an injected panic here unwinds out of a worker
        // thread mid-join — the serve layer's catch_unwind isolation (and
        // the scoped executor's teardown) must both survive it. Disarmed
        // cost: one relaxed load per task, not per tuple.
        let _ = fj_obs::chaos::should_fail("exec.task");
        let scratch = &mut scratch[node_idx..];
        match items {
            TaskItems::Cover { cover_idx, range } => {
                self.run_cover(node_idx, *cover_idx, weight, range.clone(), scratch)
            }
            TaskItems::Tail(list) => self.run_tail(node_idx, weight, Some(list), scratch),
        }
    }

    /// The recursive join (Figure 7), one invocation per plan node.
    fn run_node(&mut self, node_idx: usize, weight: u64, scratch: &mut [NodeScratch<'t>]) {
        if self.counters.check_cancel() {
            return;
        }
        let (tries, plan) = (self.tries, self.plan);
        if node_idx == plan.nodes.len() {
            self.out.push(&self.tuple, weight);
            return;
        }
        let node = &plan.nodes[node_idx];

        // The remaining plan is a Cartesian product of independent
        // expansions (of variables the output reads — dead ones never reach
        // the plan): emit it straight into the chunk columns instead of
        // recursing per combination.
        if node.independent_tail {
            self.run_tail(node_idx, weight, None, scratch);
            return;
        }

        let cover_idx = select_cover(node, &self.current);
        let cover = &node.subatoms[cover_idx];
        let cover_trie = &tries[cover.input];

        // The split point: an expansion at least `split_threshold` wide is
        // handed to the scheduler as sub-range tasks instead of being walked
        // by this worker — this is what lets one hot key's subtree fan out
        // over every idle worker. A cover with that many rows is forced and
        // its keys counted; one that turns out narrower runs here after all.
        // Rows, keys and the threshold are the same whoever asks and
        // whenever, keeping the task tree (and the merge order)
        // schedule-independent.
        let cover_node = self.current[cover.input];
        let threshold = self.split_threshold();
        if let Some(threshold) = threshold.filter(|&t| cover_node.key_bound() >= t) {
            let total = cover_trie.force(cover_node, cover.level, !cover_node.is_map()).num_keys();
            if total >= threshold {
                if let Some(tb) = self.counters.traces.last_mut() {
                    tb.instant(TraceCat::Split, node_idx as u32, total as u64, &[]);
                }
                // Balanced chunks of at most `split_threshold` entries:
                // sub-tasks stay below the threshold themselves, and the
                // chunking depends only on the expansion size, never on the
                // thread count.
                let chunk = total.div_ceil(total.div_ceil(threshold));
                self.spawn(node_idx, weight, total, chunk, |range| TaskItems::Cover {
                    cover_idx,
                    range: CoverRange::Children(range),
                });
                return;
            }
        }
        if !cover.final_for_input {
            // The input has subatoms to come, so every entry needs its child
            // position: iterate the map, never the rows. (Only an empty-key
            // subatom can follow a level the trie would walk row by row — the
            // `[#2()]` tail of an unpruned plan.)
            cover_trie.force(cover_node, cover.level, true);
        }
        self.run_cover(node_idx, cover_idx, weight, CoverRange::All, scratch);
    }

    /// The cover loop: walk `range` of the node's cover and, per entry, bind
    /// it, probe the node's other subatoms and recurse for the matches, a
    /// batch at a time (Figure 13: [`Self::buffer_cover_entry`] then
    /// [`Self::flush_batch`]) — or, at a node with nothing to probe, entry by
    /// entry ([`Self::process_cover_entry`]).
    fn run_cover(
        &mut self,
        node_idx: usize,
        cover_idx: usize,
        weight: u64,
        range: CoverRange,
        scratch: &mut [NodeScratch<'t>],
    ) {
        let (tries, plan) = (self.tries, self.plan);
        let node = &plan.nodes[node_idx];
        let cover = &node.subatoms[cover_idx];
        let cover_trie = &tries[cover.input];
        let cover_node = self.current[cover.input];
        // A task's span carries its size and path key, and ends on the
        // worker's running expansion total; a node reached by recursion
        // carries neither.
        let task = match &range {
            CoverRange::All => None,
            CoverRange::Children(r) | CoverRange::Rows(r) => {
                Some((r.len(), self.split.as_ref().map_or(&[][..], |s| s.path)))
            }
        };
        let (size, path) = task.unwrap_or((0, &[][..]));
        let started = self.begin_node(node_idx, size as u64, path);

        // Every subatom but the cover is probed: a node with more than one
        // batches.
        let batched = node.subatoms.len() > 1;
        if batched {
            // The probed inputs' trie positions are fixed across the loop
            // (only the cover varies per entry), and so are their bounds:
            // one O(#subatoms) ranking serves every entry.
            scratch[0].reordered =
                order_probes(node, cover_idx, &self.current, &mut scratch[0].probe_order);
            // Room for the entries the cover can yield, not for a whole
            // batch: both bounds are O(1) reads.
            let entries = task.map_or_else(|| cover_node.key_bound(), |t| t.0);
            ensure_batch_buffers(&mut scratch[0], BATCH.min(entries), node);
            scratch[0].count = 0;
        }
        let step = |key: &[Value], child: Option<NodeRef<'t>>| {
            // The per-entry cancellation boundary: a fired token turns every
            // remaining callback into this one test (and must, before
            // buffering: `flush_batch` refuses to drain once cancelled, so
            // appending again would overrun the batch buffers).
            if self.counters.check_cancel() {
                return;
            }
            self.counters.expansions += 1;
            self.counters.profile.add_expansions(node_idx, 1);
            if batched {
                self.buffer_cover_entry(node, cover_idx, weight, key, child, &mut scratch[0]);
                if scratch[0].count >= BATCH {
                    self.flush_batch(node_idx, scratch);
                }
            } else {
                self.process_cover_entry(node_idx, cover_idx, weight, key, child, scratch);
            }
        };
        match range {
            CoverRange::All => cover_trie.for_each(cover_node, cover.level, step),
            CoverRange::Children(r) => {
                let level = cover_trie.force(cover_node, cover.level, true);
                cover_trie.for_each_child(level, cover.level, r, step);
            }
            CoverRange::Rows(r) => {
                cover_trie.for_each_row(cover.level, r.start as u32..r.end as u32, step)
            }
        }
        if batched {
            self.flush_batch(node_idx, scratch);
        }

        let arg = if task.is_some() { self.counters.expansions } else { 0 };
        self.end_node(node_idx, arg, started);
    }

    /// Enumerate an independent tail (every remaining node a single, final,
    /// write-only expansion of a distinct input) without re-walking suffix
    /// tries: the lists of every tail node after the first are gathered once
    /// into their nodes' scratch as flat `(values, weight)` columns, the
    /// first node's entries are streamed — from its trie, or, in a task cut
    /// from it, from the task's slice `list` of the materialized first
    /// list — and the Cartesian product is emitted by nested loops over the
    /// gathered columns straight into the chunk buffer. Emission order is
    /// exactly the recursive walk's (a slice's is the unsplit stream's, so
    /// path-key-ordered builders concatenate to it), and tail nodes perform no
    /// probes in either form, so results and counters are unchanged — only
    /// the per-combination trie iteration and recursion are gone.
    fn run_tail(
        &mut self,
        node_idx: usize,
        weight: u64,
        list: Option<&TailList>,
        scratch: &mut [NodeScratch<'t>],
    ) {
        let (tries, plan) = (self.tries, self.plan);
        let (node, inner) = (&plan.nodes[node_idx], &plan.nodes[node_idx + 1..]);
        // Gather phase: one trie walk per inner tail node (cheap against a
        // product-sized emission, so a task simply gathers again), reusing
        // the node's otherwise unused scratch vectors — single-subatom
        // nodes never batch.
        for (inner_node, s) in inner.iter().zip(&mut scratch[1..]) {
            s.writes.clear();
            s.weights.clear();
            gather_list(tries, inner_node, &self.current, &mut s.writes, &mut s.weights);
            if s.weights.is_empty() {
                return; // an empty factor annihilates the whole product
            }
        }
        let lists = &scratch[1..1 + inner.len()];
        // Product rows per first-list entry; `expansions` counts emitted
        // rows so skew inside the product (not just wide first lists) is
        // visible to the per-worker balance stats.
        let inner_count =
            lists.iter().fold(1u64, |acc, s| acc.saturating_mul(s.weights.len() as u64));
        let sub = &node.subatoms[0];
        let trie = &tries[sub.input];
        let node_cur = self.current[sub.input];
        let stride = node.bound_after - node.bound_before;

        // The tail split point: a bound on the product's size — rows under
        // the first list's node (O(1)) × inner combinations (known from the
        // gather) — decides, so a single hot join key whose output is one
        // giant Cartesian product fans out across workers by first-list
        // sub-ranges. A bound that large has the first list gathered and its
        // entries counted; one that turns out shorter (the bound counts
        // rows, a forced level lists keys) runs here after all.
        let first_len = node_cur.key_bound();
        let bound = (first_len as u64).saturating_mul(inner_count.max(1));
        let threshold = self.split_threshold().filter(|_| list.is_none() && first_len >= 2);
        if let Some(threshold) = threshold.filter(|&t| bound >= t as u64) {
            let (mut writes, mut weights) = (Vec::new(), Vec::new());
            gather_list(tries, node, &self.current, &mut writes, &mut weights);
            let total = weights.len();
            if total >= 2 && (total as u64).saturating_mul(inner_count.max(1)) >= threshold as u64 {
                if let Some(tb) = self.counters.traces.last_mut() {
                    tb.instant(TraceCat::Split, node_idx as u32, total as u64, &[]);
                }
                // Chunk so each sub-task emits about `split_threshold`
                // product rows: a single hot first-list entry over a huge
                // inner product gets a task of its own, while cheap entries
                // batch up.
                let chunk = (threshold as u64 / inner_count.max(1)) as usize;
                let (writes, weights) = (Arc::new(writes), Arc::new(weights));
                self.spawn(node_idx, weight, total, chunk, |range| {
                    TaskItems::Tail(TailList {
                        writes: writes.clone(),
                        weights: weights.clone(),
                        range,
                    })
                });
                return;
            }
        }

        let started = self.begin_node(node_idx, inner_count, &[]);
        // Per first-list entry, emit the product of the gathered inner
        // columns. A single product can dominate a query's output, so every
        // entry is a cancellation boundary.
        let mut first_sum: u64 = 0;
        let mut entry = |this: &mut Self, w: u64| {
            this.counters.expansions += inner_count.max(1);
            this.counters.profile.add_expansions(node_idx, inner_count.max(1));
            first_sum = first_sum.saturating_add(w);
            if inner.is_empty() {
                this.out.push(&this.tuple, w);
            } else {
                this.emit_product(inner, lists, w);
            }
        };
        match list {
            None => trie.for_each(node_cur, sub.level, |key, child| {
                if self.counters.check_cancel() {
                    return;
                }
                bind_new_slots(node, key, &mut self.tuple[node.bound_before..node.bound_after]);
                entry(self, child.map_or(weight, |c| weight.saturating_mul(c.key_bound() as u64)));
            }),
            Some(list) => {
                for i in list.range.clone() {
                    if self.counters.check_cancel() {
                        break;
                    }
                    self.tuple[node.bound_before..node.bound_after]
                        .copy_from_slice(&list.writes[i * stride..(i + 1) * stride]);
                    entry(self, weight.saturating_mul(list.weights[i]));
                }
            }
        }
        profile_tail_rows(&mut self.counters.profile, node_idx, first_sum, lists);
        self.end_node(node_idx, first_sum, started);
    }

    /// Emit the Cartesian product of gathered tail lists, depth-first in
    /// list order (the recursion order of the plan walk this replaces). Each
    /// level copies its entry's values into the tuple's slots and multiplies
    /// its weight; the innermost level appends to the chunk buffer. Every
    /// level's loop is a cancellation boundary (one cached check per product
    /// row once a trip is observed).
    fn emit_product(&mut self, nodes: &[CompiledNode], lists: &[NodeScratch<'t>], weight: u64) {
        let (node, list) = (&nodes[0], &lists[0]);
        let stride = node.bound_after - node.bound_before;
        for (i, &entry_weight) in list.weights.iter().enumerate() {
            if self.counters.check_cancel() {
                return;
            }
            self.tuple[node.bound_before..node.bound_after]
                .copy_from_slice(&list.writes[i * stride..(i + 1) * stride]);
            let w = weight.saturating_mul(entry_weight);
            if nodes.len() == 1 {
                self.out.push(&self.tuple, w);
            } else {
                self.emit_product(&nodes[1..], &lists[1..], w);
            }
        }
    }

    /// The cover loop's per-entry step at a node whose cover is its only
    /// subatom: bind the key, follow the cover's continuation and recurse
    /// into the next node — there is nothing to probe.
    fn process_cover_entry(
        &mut self,
        node_idx: usize,
        cover_idx: usize,
        weight: u64,
        key: &[Value],
        child: Option<NodeRef<'t>>,
        scratch: &mut [NodeScratch<'t>],
    ) {
        let plan = self.plan;
        let cover = &plan.nodes[node_idx].subatoms[cover_idx];
        if !apply_iter_actions(&cover.iter_actions, key, &mut self.tuple) {
            return;
        }
        let mut local_weight = weight;
        let mut saved = None;
        if cover.final_for_input {
            if let Some(c) = child {
                local_weight = local_weight.saturating_mul(c.key_bound() as u64);
            }
        } else {
            let c = child.expect("non-final cover level is forced into a map");
            saved = Some(std::mem::replace(&mut self.current[cover.input], c));
        }
        if local_weight > 0 {
            self.counters.profile.add_output_rows(node_idx, local_weight);
            self.run_node(node_idx + 1, local_weight, &mut scratch[1..]);
        }
        if let Some(old) = saved {
            self.current[cover.input] = old;
        }
    }

    /// Buffer one iterated cover entry into the node's batch (the gather
    /// half of Figure 13): evaluate checks, collect writes into the entry's
    /// slice of the batch buffer rather than the shared tuple, and record
    /// the cover's weight/child continuation. Entries failing a `Check` are
    /// skipped.
    fn buffer_cover_entry(
        &self,
        node: &CompiledNode,
        cover_idx: usize,
        weight: u64,
        key: &[Value],
        child: Option<NodeRef<'t>>,
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
                    if self.tuple[slot] != key[key_pos] {
                        return;
                    }
                }
            }
        }
        mine.weights[e] = weight;
        mine.alive[e] = true;
        if cover.final_for_input {
            if let Some(c) = child {
                mine.weights[e] = weight.saturating_mul(c.key_bound() as u64);
            }
        } else {
            let c = child.expect("non-final cover level is forced into a map");
            mine.children[e * stride + cover_idx] = Some(c);
        }
        mine.count += 1;
    }

    /// Probe every non-cover subatom across the buffered batch, then recurse
    /// for the surviving entries (the body of Figure 13).
    fn flush_batch(&mut self, node_idx: usize, scratch: &mut [NodeScratch<'t>]) {
        let (mine, rest) = scratch.split_first_mut().expect("every node has its scratch");
        if mine.count == 0 {
            return;
        }
        if self.counters.check_cancel() {
            // Abandon the buffered batch; the entries are dead (the query's
            // partial output is discarded) and resetting keeps the scratch
            // reusable.
            mine.count = 0;
            return;
        }
        let (tries, plan) = (self.tries, self.plan);
        let node = &plan.nodes[node_idx];
        let new_slots = node.bound_after - node.bound_before;
        let stride = node.subatoms.len();

        // Probe phase: one pass over the batch per probed relation, giving
        // the temporal locality the paper's vectorization targets. Each
        // entry's key is built in place from the already-bound tuple slots
        // and the batch's write buffer. The passes run smallest current
        // bound first, the order the per-entry step uses.
        {
            let NodeScratch {
                spill_key,
                writes,
                weights,
                alive,
                children,
                count,
                probe_order,
                reordered,
                ..
            } = &mut *mine;
            if *reordered {
                self.note_reorder(node_idx, *count as u64);
            }
            let tuple = &self.tuple;
            for &j in probe_order.iter() {
                let sub = &node.subatoms[j];
                let trie = &tries[sub.input];
                let base = self.current[sub.input];
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
                    self.counters.stats.probes += 1;
                    let found = probe_subatom(trie, base, sub, spill_key, read);
                    self.counters.profile.add_probe(node_idx, found.is_some());
                    match found {
                        Some(Found::Rows(rows)) => weights[e] = weights[e].saturating_mul(rows),
                        Some(Found::Child(child)) => children[e * stride + j] = Some(child),
                        None => {
                            alive[e] = false;
                            continue;
                        }
                    }
                    self.counters.stats.probe_hits += 1;
                }
            }
        }

        // Recurse for the survivors.
        for e in 0..mine.count {
            if !mine.alive[e] || mine.weights[e] == 0 {
                continue;
            }
            self.tuple[node.bound_before..node.bound_after]
                .copy_from_slice(&mine.writes[e * new_slots..(e + 1) * new_slots]);
            mine.saved.clear();
            // A survivor descended every non-final subatom in this batch, so
            // those slots are fresh; slots of dead entries may hold stale
            // handles, which are never read.
            for (j, sub) in node.subatoms.iter().enumerate().filter(|(_, s)| !s.final_for_input) {
                let child = mine.children[e * stride + j].expect("survivors descend every level");
                let old = std::mem::replace(&mut self.current[sub.input], child);
                mine.saved.push((sub.input, old));
            }
            self.counters.profile.add_output_rows(node_idx, mine.weights[e]);
            self.run_node(node_idx + 1, mine.weights[e], rest);
            for (input, old) in mine.saved.drain(..) {
                self.current[input] = old;
            }
        }
        mine.count = 0;
    }
}

/// Write the values an independent-tail cover binds into `dest`, the
/// node's window of new slots.
fn bind_new_slots(node: &CompiledNode, key: &[Value], dest: &mut [Value]) {
    for action in &node.subatoms[0].iter_actions {
        let IterAction::Write { key_pos, slot } = *action else {
            unreachable!("independent-tail covers bind only new variables");
        };
        dest[slot - node.bound_before] = key[key_pos];
    }
}

/// Append one independent-tail node's expansion list at the current trie
/// positions to flat `(values, weight)` columns.
fn gather_list(
    tries: &[Arc<InputTrie>],
    node: &CompiledNode,
    current: &[NodeRef<'_>],
    writes: &mut Vec<Value>,
    weights: &mut Vec<u64>,
) {
    let sub = &node.subatoms[0];
    let trie = &tries[sub.input];
    let stride = node.bound_after - node.bound_before;
    trie.for_each(current[sub.input], sub.level, |key, child| {
        let base = writes.len();
        writes.resize(base + stride, Value::Null);
        bind_new_slots(node, key, &mut writes[base..]);
        weights.push(child.map_or(1, |c| c.key_bound() as u64));
    });
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

/// Fill `order` with the node's non-cover subatom indices in the order to
/// probe them: ascending by the construction-fixed key bound of each
/// subatom's current trie position, stable so the plan order breaks ties.
/// Returns whether the result differs from plan order (the cover loop
/// charges `reorders` per entry it applies the order to). O(1) per
/// candidate — `key_bound` is fixed at trie construction, which is also
/// what makes the ranking identical at any thread count or steal schedule.
fn order_probes(
    node: &CompiledNode,
    cover_idx: usize,
    current: &[NodeRef<'_>],
    order: &mut Vec<usize>,
) -> bool {
    order.clear();
    order.extend((0..node.subatoms.len()).filter(|&j| j != cover_idx));
    if order.len() < 2 {
        return false;
    }
    order.sort_by_key(|&j| current[node.subatoms[j].input].key_bound());
    order.windows(2).any(|w| w[0] > w[1])
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

/// Size a node's vectorization buffers for `entries` buffered entries; a
/// no-op once that large (the buffers are reused across invocations).
fn ensure_batch_buffers(mine: &mut NodeScratch<'_>, entries: usize, node: &CompiledNode) {
    let new_slots = node.bound_after - node.bound_before;
    let stride = node.subatoms.len();
    if mine.weights.len() < entries {
        mine.writes.resize(entries * new_slots.max(1), Value::Null);
        mine.weights.resize(entries, 0);
        mine.alive.resize(entries, false);
        mine.children.resize(entries * stride, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::options::TrieStrategy;
    use crate::prep::{prepare_inputs, BoundInput};
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

    /// The tries of `inputs` under the compiled plan's schemas.
    fn build_tries(
        inputs: &[BoundInput],
        compiled: &CompiledPlan,
        options: &FreeJoinOptions,
    ) -> Vec<Arc<InputTrie>> {
        (inputs.iter().zip(&compiled.schemas))
            .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
            .collect()
    }

    /// Compile `plan` over `inputs`, build the tries and run the pipeline at
    /// `threads` into counting/aggregating builders, one per task.
    fn run_builders(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
        threads: usize,
    ) -> (Vec<OutputBuilder>, ExecCounters) {
        let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(plan, &input_vars).unwrap();
        let tries = build_tries(inputs, &compiled, options);
        let builder =
            OutputBuilder::new(&compiled.binding_order, aggregate, &compiled.binding_order);
        execute_pipeline(&tries, &compiled, options, threads, builder, &Instruments::default())
    }

    /// [`run_builders`] with the builders merged in the order they came back
    /// (task-tree order): the result's cardinality and the counters.
    fn run_parallel(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
        num_threads: usize,
    ) -> (u64, ExecCounters) {
        let (builders, counters) = run_builders(inputs, plan, options, aggregate, num_threads);
        let merged = builders.into_iter().reduce(|mut merged, builder| {
            merged.merge(builder);
            merged
        });
        // Tasks that produced nothing return no builder.
        (merged.map_or(0, |builder| builder.finish().cardinality()), counters)
    }

    /// On the calling thread.
    fn run(
        inputs: &[BoundInput],
        plan: &fj_plan::FreeJoinPlan,
        options: &FreeJoinOptions,
        aggregate: Aggregate,
    ) -> (u64, ExecCounters) {
        run_parallel(inputs, plan, options, aggregate, 1)
    }

    /// One thread is the same root call without a scheduler: one builder
    /// comes back and no task was ever created, however low the split
    /// threshold.
    #[test]
    fn one_thread_runs_into_one_builder_without_a_scheduler() {
        let cat = clover_catalog(40);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        let options = FreeJoinOptions::default().with_split_threshold(2);
        for threads in [0, 1] {
            let (builders, counters) =
                run_builders(&inputs, &plan, &options, Aggregate::Count, threads);
            assert_eq!(builders.len(), 1, "threads {threads}");
            assert_eq!((counters.stats.tasks_spawned, counters.stats.tasks_stolen), (0, 0));
            assert!(counters.stats.worker_expansions.is_empty());
        }
        let (builders, counters) = run_builders(&inputs, &plan, &options, Aggregate::Count, 2);
        assert!(counters.stats.tasks_spawned > 0 && !builders.is_empty());
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
            FreeJoinOptions::default().with_trie(TrieStrategy::Simple),
            FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() },
        ] {
            let (count, counters) = run(&inputs, &plan, &options, Aggregate::Count);
            assert_eq!(count, 1, "options {options:?}");
            assert!(counters.stats.probes >= counters.stats.probe_hits);
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

        let opts = FreeJoinOptions::default();
        let (c1, k1) = run(&inputs, &naive, &opts, Aggregate::Count);
        let (c2, k2) = run(&inputs, &optimized, &opts, Aggregate::Count);
        assert_eq!(c1, 1);
        assert_eq!(c2, 1);
        // The naive plan expands the skewed R ⋈ S pairs (quadratic in n)
        // before probing T; the factored plan filters with T first.
        assert!(
            k2.stats.probes < k1.stats.probes,
            "factored plan should probe less: {} vs {}",
            k2.stats.probes,
            k1.stats.probes
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

    /// A small dense graph where triangles can be counted by brute force:
    /// its undirected edges, and `R(x,y), S(y,z), T(z,x)` over them (each
    /// edge in both directions).
    fn triangle_inputs() -> (Vec<(i64, i64)>, Vec<BoundInput>) {
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
        let q = QueryBuilder::new("triangle")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .build();
        (edges, prepare_inputs(&cat, &q).unwrap().atoms)
    }

    #[test]
    fn triangle_count_is_correct_across_plans_and_options() {
        let (edges, inputs) = triangle_inputs();
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

        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();

        let binary = binary2fj(&iv);
        let mut factored = binary.clone();
        factor(&mut factored);
        let order: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let gj = fj_plan_from_var_order(&order, &iv);

        for plan in [&binary, &factored, &gj] {
            for options in [
                FreeJoinOptions::default(),
                FreeJoinOptions::default().with_trie(TrieStrategy::Simple),
                FreeJoinOptions::default().with_trie(TrieStrategy::Slt),
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
            let options = FreeJoinOptions::default().with_trie(trie);
            // The smaller bound: #2(z), T's shorter list, is iterated.
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

    /// Walking an unforced cover row by row reports a duplicate row as two
    /// entries of weight 1 where its map has one entry of weight 2: the same
    /// bag result from a different number of expansions (and probes). The
    /// probes into S's list are final: scanned in place while the list is
    /// within the scan bound, answered by its map once it is a hub — and
    /// counted the same either way, on one thread and under work stealing.
    #[test]
    fn row_wise_cover_reports_duplicate_rows_as_separate_entries() {
        for s_rows in [6, crate::trie::SCAN_PROBE_MAX_ROWS as i64 + 5] {
            let inputs = duplicate_triangle_inputs(s_rows);
            let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
            let mut plan = binary2fj(&iv);
            plan.prune_empty_subatoms();
            factor(&mut plan);
            assert_eq!(plan.to_string(), "[[#0(x,y), #1(y), #2(x)], [#1(z), #2(z)]]");
            let colt = FreeJoinOptions::default();
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
        for options in
            [FreeJoinOptions::default(), FreeJoinOptions::default().with_trie(TrieStrategy::Simple)]
        {
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
        let tries = build_tries(&inputs, &compiled, &options);
        let order = &compiled.binding_order;
        let builder = OutputBuilder::new(order, Aggregate::Materialize, order);
        let (mut builders, _) =
            execute_pipeline(&tries, &compiled, &options, 1, builder, &Instruments::default());
        let output = builders.pop().expect("one thread, one builder").finish();
        // Binding order is x, a, b, c.
        assert_eq!(
            output.canonical_rows(),
            vec![vec![Value::Int(0), Value::Int(1000), Value::Int(3000), Value::Int(5000)]]
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
        assert!(k2.stats.probes <= k1.stats.probes);
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
        assert_eq!(counters.stats.probe_hits, 0);
        let (par, _) =
            run_parallel(&inputs, &plan, &FreeJoinOptions::default(), Aggregate::Count, 4);
        assert_eq!(par, 0);
    }

    #[test]
    fn the_cover_with_the_smaller_bound_is_iterated() {
        // A node with two cover candidates, R first in plan order, where S
        // is much smaller than R: S is iterated and R probed.
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
        assert_eq!(plan.to_string(), "[[#0(x), #1(x)]]");

        for trie in [TrieStrategy::Colt, TrieStrategy::Slt, TrieStrategy::Simple] {
            let options = FreeJoinOptions::default().with_trie(trie);
            let (count, counters) = run(&inputs, &plan, &options, Aggregate::Count);
            assert_eq!(count, 10);
            // One probe into R per row of S; the plan-order cover, R, would
            // make one into S for each of its 1000 rows.
            assert_eq!(counters.work(), (10, 10, 10), "{trie:?}");
            // The parallel driver makes the same choice and does the same
            // probes in total, just spread over workers.
            let (par, par_counters) = run_parallel(&inputs, &plan, &options, Aggregate::Count, 4);
            assert_eq!((par, par_counters.work()), (10, (10, 10, 10)), "{trie:?}");
        }
    }

    /// A split decision reads the rows below the cover's node and, at or
    /// above the threshold, the keys of its forced level — never whether the
    /// level was forced already. `S(x,y)`'s 40 rows under `x = 0` reach the
    /// threshold of 32: over 40 distinct `y` they are cut into two tasks,
    /// over 8 they run inline, and a level some earlier request or another
    /// worker forced changes neither the tasks nor the work. So it goes when
    /// `y` is an independent tail (no `T`), which counts the entries it
    /// gathered — with the one exception the module docs name: an unforced
    /// last level is walked by rows, so the 40 rows over 8 `y` are 40
    /// entries cold (two tasks) and 8 keys once forced (inline).
    #[test]
    fn a_split_decision_does_not_depend_on_who_forced_the_level() {
        for (tail, distinct_y, tasks) in
            [(false, 40, 1 + 2), (false, 8, 1), (true, 40, 1 + 2), (true, 8, 1)]
        {
            let ctx = format!("{distinct_y} distinct y, tail {tail}");
            let mut cat = Catalog::new();
            let mut r = RelationBuilder::new("R", Schema::all_int(&["x"]));
            r.push_ints(&[0]).unwrap();
            cat.add(r.finish()).unwrap();
            let mut s = RelationBuilder::new("S", Schema::all_int(&["x", "y"]));
            let mut t = RelationBuilder::new("T", Schema::all_int(&["y", "z"]));
            for i in 0..40i64 {
                s.push_ints(&[0, i % distinct_y]).unwrap();
                t.push_ints(&[i, i]).unwrap();
                t.push_ints(&[i, i + 1]).unwrap();
            }
            cat.add(s.finish()).unwrap();
            cat.add(t.finish()).unwrap();
            let q = QueryBuilder::new("chain").atom("R", &["x"]).atom("S", &["x", "y"]);
            let (q, plan_text, count) = if tail {
                (q, "[[#0(x), #1(x)], [#1(y)]]", 40)
            } else {
                (q.atom("T", &["y", "z"]), "[[#0(x), #1(x)], [#1(y), #2(y)], [#2(z)]]", 80)
            };
            let inputs = prepare_inputs(&cat, &q.build()).unwrap().atoms;
            let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
            let plan = binary2fj(&iv);
            assert_eq!(plan.to_string(), plan_text);
            let compiled = compile(&plan, &iv).unwrap();
            assert_eq!(compiled.nodes[1].independent_tail, tail);
            let options = FreeJoinOptions::default().with_split_threshold(32);
            let builder = OutputBuilder::new(
                &compiled.binding_order,
                Aggregate::Count,
                &compiled.binding_order,
            );

            let run = |forced_beforehand: bool| {
                let tries = build_tries(&inputs, &compiled, &options);
                if forced_beforehand {
                    let s = &tries[1];
                    let under_x = s.get(s.root(), 0, &[Value::Int(0)]).expect("x = 0 is in S");
                    assert_eq!(s.force(under_x, 1, true).num_keys(), distinct_y as usize);
                }
                let (builders, counters) = execute_pipeline(
                    &tries,
                    &compiled,
                    &options,
                    2,
                    builder.clone(),
                    &Instruments::default(),
                );
                let count: u64 = builders.into_iter().map(|b| b.finish().cardinality()).sum();
                (count, counters.stats.tasks_spawned, counters.work())
            };
            let (cold, warm) = (run(false), run(true));
            assert_eq!((warm.0, warm.1), (count, tasks), "{ctx}");
            if tail && distinct_y == 8 {
                assert_eq!((cold.0, cold.1), (count, 1 + 2), "{ctx}");
            } else {
                assert_eq!(cold, warm, "{ctx}");
            }
        }
    }

    /// `R(x,a), S(x,b), T(x), U(x)` under a plan whose first node iterates
    /// `R`'s 2,500 rows and probes `S`, `T` and `U` per entry — two full
    /// batches of `BATCH` and a partial one. `R` has 50 rows per `x` in
    /// 0..50, `S` one row per `x`, `T` the `x` in 0..40, `U` two rows per
    /// `x`: 40 x 50 x 2 = 4,000 results.
    fn batched_fixture() -> (Vec<BoundInput>, FreeJoinPlan) {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "a"]));
        for i in 0..2500i64 {
            r.push_ints(&[i % 50, i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        let mut t = RelationBuilder::new("T", Schema::all_int(&["x"]));
        let mut u = RelationBuilder::new("U", Schema::all_int(&["x"]));
        for x in 0..50i64 {
            s.push_ints(&[x, 100 + x]).unwrap();
            if x < 40 {
                t.push_ints(&[x]).unwrap();
            }
            u.push_ints(&[x]).unwrap();
            u.push_ints(&[x]).unwrap();
        }
        for rel in [s, t, u] {
            cat.add(rel.finish()).unwrap();
        }
        let q = QueryBuilder::new("q")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x"])
            .atom("U", &["x"])
            .build();
        let inputs = prepare_inputs(&cat, &q).unwrap().atoms;
        let sub = |input: usize, vars: &[&str]| {
            Subatom::new(input, vars.iter().map(|v| v.to_string()).collect())
        };
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "a"]), sub(1, &["x"]), sub(2, &["x"]), sub(3, &["x"])]),
            FjNode::new(vec![sub(1, &["b"])]),
        ]);
        (inputs, plan)
    }

    /// The probes and expansions of a full run of [`batched_fixture`]:
    /// 2,500 rows probe `T` (smallest first), the 2,000 that match probe `S`
    /// and `U`, and the 2,000 bindings each meet one `S` row below.
    const BATCHED_FIXTURE_WORK: (u64, u64, u64) = (2500 + 2 * 2000, 3 * 2000, 2500 + 2000);

    #[test]
    fn vectorized_batches_flush_incrementally() {
        let (inputs, plan) = batched_fixture();
        const { assert!(2500 > 2 * BATCH) };
        let options = FreeJoinOptions::default();
        let (count, counters) = run(&inputs, &plan, &options, Aggregate::Count);
        assert_eq!((count, counters.work()), (40 * 50 * 2, BATCHED_FIXTURE_WORK));
        for threads in [2, 4] {
            let (par, counters) = run_parallel(&inputs, &plan, &options, Aggregate::Count, threads);
            assert_eq!((par, counters.work()), (count, BATCHED_FIXTURE_WORK), "threads {threads}");
        }
    }

    /// A token that fires while a node gathers a batch abandons the entries
    /// it buffered unprobed; one that fires while a flush recurses stops the
    /// rest of the batch. Either way the run reports why it stopped, and the
    /// same tries — forced, in part, by the cancelled runs — then give the
    /// full result and the full work.
    #[test]
    fn cancelling_a_batched_node_leaves_its_tries_reusable() {
        let (inputs, plan) = batched_fixture();
        let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let compiled = compile(&plan, &input_vars).unwrap();
        let options = FreeJoinOptions::default();
        let tries = build_tries(&inputs, &compiled, &options);
        let builder =
            OutputBuilder::new(&compiled.binding_order, Aggregate::Count, &compiled.binding_order);
        let run_with = |token: CancelToken, threads: usize| {
            let instruments = Instruments { token, ..Instruments::default() };
            let (builders, counters) = execute_pipeline(
                &tries,
                &compiled,
                &options,
                threads,
                builder.clone(),
                &instruments,
            );
            let merged = builders.into_iter().reduce(|mut merged, builder| {
                merged.merge(builder);
                merged
            });
            (merged.map_or(0, |builder| builder.finish().cardinality()), counters)
        };

        // An elapsed deadline is seen at the first clock poll, a few hundred
        // entries into the first batch: they were buffered, never probed.
        let (_, gathering) = run_with(CancelToken::with_limits(Some(Instant::now()), 0), 1);
        assert_eq!(gathering.cancelled, Some(CancelReason::Deadline));
        assert_eq!(gathering.stats.probes, 0);
        assert!(gathering.expansions > 0 && gathering.expansions < BATCH as u64);

        // A one-byte budget trips at the first chunk of results: on one
        // thread the second batch's survivors fill it, so the third batch is
        // never probed; on four, a worker's chunk may fill only at its end.
        let (_, flushing) = run_with(CancelToken::with_limits(None, 1), 1);
        assert_eq!(flushing.cancelled, Some(CancelReason::MemoryBudget));
        assert!(flushing.stats.probes < BATCHED_FIXTURE_WORK.0);
        let (_, parallel) = run_with(CancelToken::with_limits(None, 1), 4);
        assert_eq!(parallel.cancelled, Some(CancelReason::MemoryBudget));

        for threads in [1, 4] {
            let (count, counters) = run_with(CancelToken::new(), threads);
            assert_eq!(counters.cancelled, None);
            assert_eq!((count, counters.work()), (4000, BATCHED_FIXTURE_WORK), "threads {threads}");
        }
    }

    /// `R(x,y), S(x,z)` over 40 and 30 rows whose `x` is NULL every fifth
    /// and every fourth row: NULL keys meet NULL keys in a forced level.
    fn null_key_inputs() -> Vec<BoundInput> {
        let mut cat = Catalog::new();
        for (name, rows, null_every, keys) in [("R", 40i64, 5, 7), ("S", 30, 4, 9)] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["x", "v"]));
            for i in 0..rows {
                let x = if i % null_every == 0 { Value::Null } else { Value::Int(i % keys) };
                b.push_row(vec![x, Value::Int(i)]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        let q = QueryBuilder::new("nulls").atom("R", &["x", "y"]).atom("S", &["x", "z"]).build();
        prepare_inputs(&cat, &q).unwrap().atoms
    }

    /// The forced one-column levels of `trie` below `node` (at `level`):
    /// how many are slot arrays and how many hash maps.
    fn word_levels(trie: &InputTrie, node: NodeRef<'_>, level: usize) -> (usize, usize) {
        if !node.is_map() {
            return (0, 0);
        }
        let forced = trie.force(node, level, true);
        let mut kinds = match trie.level_vars(level).len() {
            1 => (usize::from(forced.is_dense()), usize::from(!forced.is_dense())),
            _ => (0, 0),
        };
        trie.for_each_child(forced, level, 0..forced.num_keys(), |_, child| {
            let (dense, hashed) =
                word_levels(trie, child.expect("a forced level's child"), level + 1);
            kinds = (kinds.0 + dense, kinds.1 + hashed);
        });
        kinds
    }

    /// Every fixture above — triangle, clover, duplicate rows, NULL keys —
    /// gives the same output, in the same order, and the same work whether
    /// its one-column levels are slot arrays or hash maps, serially and at
    /// two threads, lazily and eagerly built: the two indexes differ in how
    /// they find a child, never in which child or in what order.
    #[test]
    fn dense_and_hashed_word_levels_run_alike() {
        let mut fixtures = vec![triangle_inputs().1];
        fixtures.push(clover_inputs(&clover_catalog(20)));
        fixtures.push(duplicate_triangle_inputs(crate::trie::SCAN_PROBE_MAX_ROWS as i64 + 5));
        fixtures.push(null_key_inputs());
        for inputs in &fixtures {
            let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
            let mut plan = binary2fj(&iv);
            factor(&mut plan);
            let compiled = compile(&plan, &iv).unwrap();
            let order = &compiled.binding_order;
            for trie in [TrieStrategy::Colt, TrieStrategy::Simple] {
                for threads in [1, 2] {
                    let options =
                        FreeJoinOptions::default().with_trie(trie).with_split_threshold(2);
                    let run = || {
                        let tries = build_tries(inputs, &compiled, &options);
                        let builder = OutputBuilder::new(order, Aggregate::Materialize, order);
                        let (builders, counters) = execute_pipeline(
                            &tries,
                            &compiled,
                            &options,
                            threads,
                            builder,
                            &Instruments::default(),
                        );
                        let output = builders.into_iter().reduce(|mut merged, builder| {
                            merged.merge(builder);
                            merged
                        });
                        let levels = tries.iter().fold((0, 0), |(dense, hashed), t| {
                            let (d, h) = word_levels(t, t.root(), 0);
                            (dense + d, hashed + h)
                        });
                        (output.map(OutputBuilder::finish), counters.work(), levels)
                    };
                    let ctx = format!("plan {plan} {trie:?} threads {threads}");
                    let (dense, dense_work, dense_levels) = run();
                    let (hashed, hashed_work, hashed_levels) = crate::trie::with_hashed_words(run);
                    assert!(dense.as_ref().is_some_and(|out| out.cardinality() > 0), "{ctx}");
                    assert_eq!(dense, hashed, "{ctx}");
                    assert_eq!(dense_work, hashed_work, "{ctx}");
                    assert!(dense_levels.0 > 0 && dense_levels.1 == 0, "{ctx}: {dense_levels:?}");
                    assert_eq!(hashed_levels, (0, dense_levels.0), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn parallel_probe_counters_match_serial() {
        let cat = clover_catalog(40);
        let inputs = clover_inputs(&cat);
        let iv: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        let opts = FreeJoinOptions::default();
        let (serial_count, serial_counters) = run(&inputs, &plan, &opts, Aggregate::Count);
        let (par_count, par_counters) = run_parallel(&inputs, &plan, &opts, Aggregate::Count, 4);
        assert_eq!(serial_count, par_count);
        // Every root entry does the same probes and expansions whichever
        // worker runs it; only the scheduling counters (spawned / stolen /
        // per-worker shares) depend on the schedule.
        assert_eq!(serial_counters.work(), par_counters.work());
    }
}
