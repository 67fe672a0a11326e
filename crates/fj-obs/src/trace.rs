//! Span tracing: per-worker event rings and query timelines.
//!
//! The third observability pillar, next to the metrics registry and the
//! per-node profiler. Where those are *aggregates*, a trace is the event
//! stream itself: span begin/end pairs with monotonic timestamps plus
//! instant events for scheduler steals/splits, probe reorders and cache
//! hits/misses, recorded into one bounded [`TraceBuf`] ring per worker and
//! assembled into a [`QueryTrace`].
//!
//! Gating mirrors the `ProfileSheet` discipline: tracing is off unless the
//! execution's request asks for it, and the off state costs a single branch
//! per emission site — no allocation, no atomics. A [`TraceBuf`] is plain
//! owned memory bumped by exactly one thread; rings only meet when the
//! per-worker buffers are handed back at pipeline end.
//!
//! Two views come out of a [`QueryTrace`]:
//!
//! * [`QueryTrace::span_tree`] — the canonical, timestamp-free structural
//!   tree (query → pipelines → trie fetches, each around the pipeline
//!   that produced a missed intermediate → plan nodes). It is built
//!   only from schedule-independent events, so it is **byte-identical at
//!   any thread count and steal schedule** — the determinism contract tests
//!   pin. Task spans and steal/split instants are deliberately excluded:
//!   which worker ran which sub-range is exactly what a schedule changes.
//! * [`QueryTrace::to_chrome_json`] — the full timeline in Chrome
//!   trace-event JSON (`B`/`E`/`i` phases, `pid` = query, `tid` = worker),
//!   loadable in Perfetto / `chrome://tracing`.
//!
//! Overflow drops the **oldest** events (the ring keeps the most recent
//! window) and counts them in [`TraceBuf::dropped`]; the Chrome exporter
//! repairs the begin/end balance a truncated prefix can break, and the span
//! tree reads drop-proof side channels (per-node seen bitmaps), so neither
//! view goes wrong under overflow.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// Inline path-key segments carried by a [`TraceEvent`]. Deeper task paths
/// are truncated (flagged via [`TraceEvent::path_truncated`]) rather than
/// spilled to the heap — events must stay POD.
pub const TRACE_PATH_CAP: usize = 6;

/// Default per-worker ring capacity, in events (~48 B each). Large enough
/// that the micro workloads rarely wrap even when a skewed schedule lands
/// most tasks on one worker; bounded so a pathological query cannot grow a
/// trace without limit. The backing store grows lazily, so an execution
/// pays only for the events it emits, never the cap.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The worker id the session / serving layers record under — structural
/// events (query, pipeline, trie fetches, cache instants) rather than
/// executor work.
pub const SESSION_WORKER: u32 = u32::MAX;

/// Process-wide monotonic epoch for trace timestamps.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide trace epoch (first call sets the
/// epoch). Monotonic within a process; only differences are meaningful.
#[inline]
pub fn trace_now_nanos() -> u64 {
    TRACE_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a [`TraceEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Span begin (Chrome phase `B`).
    Begin = 0,
    /// Span end (Chrome phase `E`).
    End = 1,
    /// Instant event (Chrome phase `i`).
    Instant = 2,
}

/// Event categories, spanning every traced layer. The `u8` repr keeps
/// [`TraceEvent`] POD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceCat {
    /// The whole query execution (session layer).
    Query = 0,
    /// One compiled pipeline (session layer; `node` = pipeline index).
    Pipeline = 1,
    /// Fetching one input's trie through the cache (`node` = input index;
    /// `arg` = 1 if this execution built it, 0 on a cache hit). Building an
    /// intermediate input runs its producing pipeline first, whose span
    /// nests inside this one.
    TrieFetch = 2,
    /// Executor work at one plan node (`node` = plan-node index).
    Node = 4,
    /// One scheduler task (`node` = starting plan node; path = task path).
    Task = 5,
    /// A task ran on a worker other than its spawner (`arg` = spawner id).
    Steal = 6,
    /// An oversized expansion was split into sub-range tasks (`arg` =
    /// entry count that triggered the split).
    Split = 7,
    /// The executor's bound ranking ordered probes away from plan order
    /// (`arg` = number of bindings the reorder covered).
    Reorder = 8,
    /// Trie-cache hit (session layer; `node` = input index).
    TrieHit = 9,
    /// Trie-cache miss → build (session layer; `node` = input index).
    TrieMiss = 10,
    /// Cache evictions observed during this execution (`arg` = count).
    Evict = 13,
    /// One served request, frame-in to reply-out (serve layer).
    Request = 14,
    /// Request decode (serve layer).
    Decode = 15,
    /// Engine execution of the request (serve layer).
    Execute = 16,
    /// Reply encode/write (serve layer; instant).
    Respond = 17,
}

impl TraceCat {
    /// Stable lowercase name, used as the Chrome `cat` field and in the
    /// span-tree rendering.
    pub fn name(self) -> &'static str {
        match self {
            TraceCat::Query => "query",
            TraceCat::Pipeline => "pipeline",
            TraceCat::TrieFetch => "trie_fetch",
            TraceCat::Node => "node",
            TraceCat::Task => "task",
            TraceCat::Steal => "steal",
            TraceCat::Split => "split",
            TraceCat::Reorder => "reorder",
            TraceCat::TrieHit => "trie_hit",
            TraceCat::TrieMiss => "trie_miss",
            TraceCat::Evict => "evict",
            TraceCat::Request => "request",
            TraceCat::Decode => "decode",
            TraceCat::Execute => "execute",
            TraceCat::Respond => "respond",
        }
    }
}

/// One trace event: plain old data (integers only), so rings never own
/// heap memory per event and events compare/copy trivially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch ([`trace_now_nanos`]).
    pub t_nanos: u64,
    /// Begin / end / instant.
    pub kind: TraceKind,
    /// Event category.
    pub cat: TraceCat,
    /// Category-dependent id: plan-node, pipeline or input index.
    pub node: u32,
    /// Category-dependent argument (spawner id, split size, hit flag...).
    pub arg: u64,
    /// Leading task-path-key segments (dense child indices).
    pub path: [u32; TRACE_PATH_CAP],
    /// How many `path` slots are meaningful.
    pub path_len: u8,
    /// The original path was deeper than [`TRACE_PATH_CAP`].
    pub path_truncated: bool,
}

impl TraceEvent {
    fn new(kind: TraceKind, cat: TraceCat, node: u32, arg: u64, path: &[u32]) -> Self {
        let mut inline = [0u32; TRACE_PATH_CAP];
        let keep = path.len().min(TRACE_PATH_CAP);
        inline[..keep].copy_from_slice(&path[..keep]);
        TraceEvent {
            t_nanos: trace_now_nanos(),
            kind,
            cat,
            node,
            arg,
            path: inline,
            path_len: keep as u8,
            path_truncated: path.len() > TRACE_PATH_CAP,
        }
    }
}

/// A bounded, single-writer event ring. One per worker (plus one for the
/// session layer); exactly one thread ever pushes into a given buffer, so
/// emission is a plain bump with no atomics. Overflow overwrites the oldest
/// event and counts it in [`TraceBuf::dropped`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBuf {
    events: Vec<TraceEvent>,
    /// Ring write cursor, only meaningful once `events` is at capacity.
    head: usize,
    /// Fixed event capacity.
    capacity: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
    /// The worker this ring belongs to ([`SESSION_WORKER`] for the
    /// session/serving layers).
    worker: u32,
    /// The pipeline this ring's executor events belong to (`u32::MAX` when
    /// not pipeline-scoped); tagged by the session at collection time.
    pipeline: u32,
    /// Drop-proof record of plan nodes that emitted any event (bit `k` =
    /// node `k`, nodes ≥ 64 are ignored by the bitmap but still traced) —
    /// what the canonical span tree reads, so ring overflow can never make
    /// the structural view schedule-dependent.
    nodes_seen: u64,
}

impl TraceBuf {
    /// A ring of at most `capacity` events owned by `worker`. The backing
    /// store grows geometrically on demand (amortized O(1) emission) rather
    /// than preallocating — at the default 16Ki-event capacity an eager ring
    /// costs ~1 MiB of zeroed pages per execution, which on sub-millisecond
    /// queries would dwarf the events themselves (the bench gate
    /// `trace_overhead_pct < 5%` is what holds this honest).
    pub fn with_capacity(capacity: usize, worker: u32) -> Self {
        TraceBuf {
            events: Vec::new(),
            head: 0,
            capacity: capacity.max(1),
            dropped: 0,
            worker,
            pipeline: u32::MAX,
            nodes_seen: 0,
        }
    }

    /// The worker id this ring records under.
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// The pipeline tag (`u32::MAX` when untagged).
    pub fn pipeline(&self) -> u32 {
        self.pipeline
    }

    /// Tag this ring's events as belonging to `pipeline` (done by the
    /// session when collecting per-pipeline worker rings).
    pub fn set_pipeline(&mut self, pipeline: u32) {
        self.pipeline = pipeline;
    }

    /// Events overwritten by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Bitmap of plan nodes (< 64) that emitted at least one event.
    pub fn nodes_seen(&self) -> u64 {
        self.nodes_seen
    }

    fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Record a span begin.
    #[inline]
    pub fn begin(&mut self, cat: TraceCat, node: u32, arg: u64, path: &[u32]) {
        if cat == TraceCat::Node && node < 64 {
            self.nodes_seen |= 1u64 << node;
        }
        self.push(TraceEvent::new(TraceKind::Begin, cat, node, arg, path));
    }

    /// Record a span begin stamped with an explicit [`trace_now_nanos`]
    /// timestamp captured earlier — for layers that only learn a span's
    /// attributes at its end (e.g. whether a trie fetch hit the cache).
    /// The caller must not have pushed into this ring since capturing the
    /// timestamp, so per-ring timestamp order is preserved.
    #[inline]
    pub fn begin_at(&mut self, t_nanos: u64, cat: TraceCat, node: u32, arg: u64, path: &[u32]) {
        if cat == TraceCat::Node && node < 64 {
            self.nodes_seen |= 1u64 << node;
        }
        let mut event = TraceEvent::new(TraceKind::Begin, cat, node, arg, path);
        event.t_nanos = t_nanos;
        self.push(event);
    }

    /// Record a span end (matching the innermost open begin of `cat`).
    #[inline]
    pub fn end(&mut self, cat: TraceCat, node: u32, arg: u64) {
        self.push(TraceEvent::new(TraceKind::End, cat, node, arg, &[]));
    }

    /// Record an instant event.
    #[inline]
    pub fn instant(&mut self, cat: TraceCat, node: u32, arg: u64, path: &[u32]) {
        self.push(TraceEvent::new(TraceKind::Instant, cat, node, arg, path));
    }

    /// Retained events, oldest first (unwinds the ring).
    pub fn events(&self) -> Vec<TraceEvent> {
        if self.events.len() < self.capacity || self.head == 0 {
            self.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.events.len());
            out.extend_from_slice(&self.events[self.head..]);
            out.extend_from_slice(&self.events[..self.head]);
            out
        }
    }
}

/// An assembled query trace: the session ring plus every per-worker
/// executor ring (tagged with its pipeline), and optionally a serving-layer
/// ring for the request lifecycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Server-minted trace id (0 for in-process traces).
    pub trace_id: u64,
    bufs: Vec<TraceBuf>,
}

impl QueryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Attach one collected ring.
    pub fn attach(&mut self, buf: TraceBuf) {
        self.bufs.push(buf);
    }

    /// The attached rings.
    pub fn bufs(&self) -> &[TraceBuf] {
        &self.bufs
    }

    /// Total retained events across every ring.
    pub fn total_events(&self) -> usize {
        self.bufs.iter().map(|b| b.len()).sum()
    }

    /// Total events lost to ring overflow across every ring.
    pub fn dropped_events(&self) -> u64 {
        self.bufs.iter().map(|b| b.dropped).sum()
    }

    /// Events of one kind and category across every ring.
    pub fn count(&self, kind: TraceKind, cat: TraceCat) -> u64 {
        self.bufs
            .iter()
            .flat_map(|b| b.events())
            .filter(|e| e.kind == kind && e.cat == cat)
            .count() as u64
    }

    /// Distinct worker ids that recorded at least one instant of `cat`.
    pub fn workers_with_instant(&self, cat: TraceCat) -> Vec<u32> {
        let mut workers: Vec<u32> = self
            .bufs
            .iter()
            .filter(|b| b.events().iter().any(|e| e.kind == TraceKind::Instant && e.cat == cat))
            .map(|b| b.worker)
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// Verify per-worker span nesting: within every ring, ends match the
    /// innermost open begin's category, and nothing is left open. Returns a
    /// description of the first violation. Rings that dropped events are
    /// skipped — a truncated prefix legitimately orphans ends.
    pub fn validate_nesting(&self) -> Result<(), String> {
        for buf in &self.bufs {
            if buf.dropped > 0 {
                continue;
            }
            let mut stack: Vec<TraceCat> = Vec::new();
            for event in buf.events() {
                match event.kind {
                    TraceKind::Begin => stack.push(event.cat),
                    TraceKind::End => match stack.pop() {
                        Some(open) if open == event.cat => {}
                        Some(open) => {
                            return Err(format!(
                                "worker {}: end {} closes open {}",
                                buf.worker,
                                event.cat.name(),
                                open.name()
                            ));
                        }
                        None => {
                            return Err(format!(
                                "worker {}: end {} with no open span",
                                buf.worker,
                                event.cat.name()
                            ));
                        }
                    },
                    TraceKind::Instant => {}
                }
            }
            if let Some(open) = stack.pop() {
                return Err(format!("worker {}: span {} left open", buf.worker, open.name()));
            }
        }
        Ok(())
    }

    /// The canonical structural span tree, rendered without timestamps:
    /// query → pipelines (session events, in emission order) → per-input
    /// trie fetch lines, the producing pipeline of a missed intermediate
    /// indented under its fetch → plan nodes that did work (drop-proof seen
    /// bitmaps, ascending node index). Built only from schedule-independent
    /// events, so the rendering is byte-identical at any thread count and
    /// steal schedule — the determinism contract `tests/trace_invariants.rs`
    /// pins.
    pub fn span_tree(&self) -> String {
        let mut out = String::new();
        let session = self.bufs.iter().find(|b| b.worker == SESSION_WORKER);
        let Some(session) = session else {
            return out;
        };
        // Nodes seen per pipeline, unioned across that pipeline's workers.
        let nodes_of = |pipeline: u32| -> u64 {
            self.bufs
                .iter()
                .filter(|b| b.pipeline == pipeline)
                .map(|b| b.nodes_seen)
                .fold(0, |a, b| a | b)
        };
        let mut depth = 0usize;
        for event in session.events() {
            match (event.kind, event.cat) {
                (TraceKind::Begin, TraceCat::Query) => {
                    let _ = writeln!(out, "query");
                    depth = 1;
                }
                (TraceKind::Begin, TraceCat::Pipeline) => {
                    let _ = writeln!(out, "{}pipeline {}", "  ".repeat(depth), event.node);
                    depth += 1;
                }
                (TraceKind::End, TraceCat::Pipeline) => {
                    // Close the pipeline by listing the plan nodes that did
                    // work under it — the same set under any schedule.
                    let seen = nodes_of(event.node);
                    for k in 0..64u32 {
                        if seen & (1u64 << k) != 0 {
                            let _ = writeln!(out, "{}node {k}", "  ".repeat(depth));
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                (TraceKind::Begin, TraceCat::TrieFetch) => {
                    let how = if event.arg == 1 { "built" } else { "hit" };
                    let _ = writeln!(
                        out,
                        "{}trie_fetch input={} {how}",
                        "  ".repeat(depth),
                        event.node
                    );
                    depth += 1;
                }
                (TraceKind::End, TraceCat::TrieFetch) => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        out
    }

    /// Export the full timeline as Chrome trace-event JSON: one `B`/`E`
    /// pair per span, `i` per instant, `pid` 1 (the query), `tid` = worker
    /// id. Load the file in [Perfetto](https://ui.perfetto.dev) or
    /// `chrome://tracing`. Per-tid begin/end balance is repaired before
    /// export (ring overflow can orphan ends and leave begins open), so the
    /// output always nests.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for buf in &self.bufs {
            let events = buf.events();
            // Balance repair per ring: drop orphaned ends, remember which
            // begins never closed so synthetic ends can follow.
            let mut stack: Vec<usize> = Vec::new();
            let mut keep = vec![true; events.len()];
            for (i, event) in events.iter().enumerate() {
                match event.kind {
                    TraceKind::Begin => stack.push(i),
                    TraceKind::End => match stack.last() {
                        Some(&open) if events[open].cat == event.cat => {
                            stack.pop();
                        }
                        _ => keep[i] = false,
                    },
                    TraceKind::Instant => {}
                }
            }
            let unclosed: Vec<usize> = stack;
            let last_t = events.last().map(|e| e.t_nanos).unwrap_or(0);
            let emit =
                |first: &mut bool, out: &mut String, ph: &str, event: &TraceEvent, t_nanos: u64| {
                    if !*first {
                        out.push(',');
                    }
                    *first = false;
                    let name = match event.cat {
                        TraceCat::Pipeline => format!("pipeline {}", event.node),
                        TraceCat::Node => format!("node {}", event.node),
                        TraceCat::TrieFetch => format!("trie_fetch in{}", event.node),
                        cat => cat.name().to_string(),
                    };
                    // Timestamps are microseconds (fractional): nanos / 1000.
                    let _ = write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{}.{:03},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"node\":{},\"arg\":{}}}}}",
                        event.cat.name(),
                        t_nanos / 1000,
                        t_nanos % 1000,
                        buf.worker,
                        event.node,
                        event.arg
                    );
                };
            for (i, event) in events.iter().enumerate() {
                if !keep[i] {
                    continue;
                }
                let ph = match event.kind {
                    TraceKind::Begin => "B",
                    TraceKind::End => "E",
                    TraceKind::Instant => "i",
                };
                emit(&mut first, &mut out, ph, event, event.t_nanos);
            }
            // Synthetic ends for begins the ring never closed, innermost
            // first, all stamped at the ring's last timestamp.
            for &open in unclosed.iter().rev() {
                emit(&mut first, &mut out, "E", &events[open], last_t);
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_are_monotonic_and_shared() {
        let a = trace_now_nanos();
        let b = trace_now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut buf = TraceBuf::with_capacity(4, 0);
        for i in 0..6u32 {
            buf.instant(TraceCat::Steal, i, 0, &[]);
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 2);
        let nodes: Vec<u32> = buf.events().iter().map(|e| e.node).collect();
        assert_eq!(nodes, vec![2, 3, 4, 5], "oldest events dropped, order preserved");
    }

    #[test]
    fn nodes_seen_survives_overflow() {
        let mut buf = TraceBuf::with_capacity(2, 0);
        buf.begin(TraceCat::Node, 0, 0, &[]);
        buf.end(TraceCat::Node, 0, 0);
        for _ in 0..10 {
            buf.begin(TraceCat::Node, 3, 0, &[]);
            buf.end(TraceCat::Node, 3, 0);
        }
        // Node 0's events were overwritten; the bitmap still remembers it.
        assert_eq!(buf.nodes_seen(), 0b1001);
    }

    #[test]
    fn path_truncates_inline() {
        let mut buf = TraceBuf::with_capacity(8, 0);
        let long: Vec<u32> = (0..10).collect();
        buf.begin(TraceCat::Task, 0, 0, &long);
        let event = buf.events()[0];
        assert_eq!(event.path_len as usize, TRACE_PATH_CAP);
        assert!(event.path_truncated);
        assert_eq!(&event.path[..], &long[..TRACE_PATH_CAP]);
    }

    fn sample_trace() -> QueryTrace {
        let mut trace = QueryTrace::new();
        let mut session = TraceBuf::with_capacity(64, SESSION_WORKER);
        session.begin(TraceCat::Query, 0, 0, &[]);
        session.begin(TraceCat::Pipeline, 0, 0, &[]);
        session.begin(TraceCat::TrieFetch, 0, 1, &[]);
        session.end(TraceCat::TrieFetch, 0, 0);
        session.begin(TraceCat::TrieFetch, 1, 0, &[]);
        session.end(TraceCat::TrieFetch, 1, 0);
        session.end(TraceCat::Pipeline, 0, 0);
        session.end(TraceCat::Query, 0, 0);
        trace.attach(session);
        let mut w0 = TraceBuf::with_capacity(64, 0);
        w0.set_pipeline(0);
        w0.begin(TraceCat::Task, 0, 0, &[0]);
        w0.begin(TraceCat::Node, 0, 0, &[]);
        w0.begin(TraceCat::Node, 1, 0, &[]);
        w0.end(TraceCat::Node, 1, 0);
        w0.end(TraceCat::Node, 0, 0);
        w0.end(TraceCat::Task, 0, 0);
        trace.attach(w0);
        let mut w1 = TraceBuf::with_capacity(64, 1);
        w1.set_pipeline(0);
        w1.begin(TraceCat::Task, 1, 0, &[1]);
        w1.instant(TraceCat::Steal, 1, 0, &[1]);
        w1.begin(TraceCat::Node, 1, 0, &[]);
        w1.end(TraceCat::Node, 1, 0);
        w1.end(TraceCat::Task, 1, 0);
        trace.attach(w1);
        trace
    }

    #[test]
    fn span_tree_is_structural_and_schedule_free() {
        let trace = sample_trace();
        let tree = trace.span_tree();
        let expected = "query\n  pipeline 0\n    trie_fetch input=0 built\n    \
                        trie_fetch input=1 hit\n    node 0\n    node 1\n";
        assert_eq!(tree, expected);
        // A different schedule — all work on one worker — same tree.
        let mut other = QueryTrace::new();
        for buf in trace.bufs() {
            if buf.worker == SESSION_WORKER {
                other.attach(buf.clone());
            }
        }
        let mut merged = TraceBuf::with_capacity(64, 0);
        merged.set_pipeline(0);
        merged.begin(TraceCat::Node, 0, 0, &[]);
        merged.end(TraceCat::Node, 0, 0);
        merged.begin(TraceCat::Node, 1, 0, &[]);
        merged.end(TraceCat::Node, 1, 0);
        other.attach(merged);
        assert_eq!(other.span_tree(), expected);
    }

    #[test]
    fn counts_and_worker_queries() {
        let trace = sample_trace();
        assert_eq!(trace.count(TraceKind::Begin, TraceCat::Task), 2);
        assert_eq!(trace.count(TraceKind::Instant, TraceCat::Steal), 1);
        assert_eq!(trace.workers_with_instant(TraceCat::Steal), vec![1]);
        assert!(trace.validate_nesting().is_ok());
    }

    #[test]
    fn nesting_violations_are_reported() {
        let mut trace = QueryTrace::new();
        let mut buf = TraceBuf::with_capacity(8, 2);
        buf.begin(TraceCat::Task, 0, 0, &[]);
        trace.attach(buf);
        let err = trace.validate_nesting().unwrap_err();
        assert!(err.contains("worker 2"), "{err}");
        assert!(err.contains("left open"), "{err}");
    }

    #[test]
    fn chrome_json_is_balanced_even_after_overflow() {
        let mut trace = QueryTrace::new();
        let mut buf = TraceBuf::with_capacity(4, 0);
        // Overflow so the retained window starts with orphaned ends.
        for _ in 0..5 {
            buf.begin(TraceCat::Node, 1, 0, &[]);
            buf.end(TraceCat::Node, 1, 0);
        }
        buf.begin(TraceCat::Task, 0, 0, &[]); // never closed
        trace.attach(buf);
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        let begins = json.matches("\"ph\":\"B\"").count();
        let ends = json.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends, "exporter repairs balance: {json}");
        assert!(json.contains("\"tid\":0"), "{json}");
        assert!(json.contains("\"cat\":\"task\""), "{json}");
    }
}
