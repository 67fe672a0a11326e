//! Span-tracing invariants: the canonical span tree is schedule-independent
//! (byte-identical across thread counts and steal schedules), every
//! per-worker ring keeps its begin/end events balanced and properly nested,
//! steal instants reconcile with the scheduler's counters, and — pinned
//! with a counting global allocator — tracing that is *off* allocates
//! nothing.
//!
//! The allocator counts per thread, so what the test harness allocates
//! beside a running test (reporting the last one, starting the next) stays
//! out of the allocation test's measurement.

use freejoin::obs::{TraceCat, TraceKind};
use freejoin::prelude::*;
use freejoin::query::ExecStats;
use freejoin::workloads::micro;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread may still free and allocate while its locals go.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs the file's tests one at a time: the scheduler tests watch steals
/// among the machine's cores.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A session over a FRESH cache pair with the given execution options —
/// fresh so trie-fetch outcomes (built vs hit) are identical run to run,
/// which the span-tree determinism contract depends on. Dead-variable
/// pruning is off: these tests watch the scheduler split and steal the star
/// workloads' expansions, and pruned, a star's count has none left.
fn fresh_session(threads: usize) -> Session {
    Session::new(Arc::new(EngineCaches::with_defaults())).with_options(
        FreeJoinOptions::default()
            .with_num_threads(threads)
            .with_split_threshold(32)
            .with_factorized_output(false),
    )
}

/// One traced execution without overrides.
fn traced(prepared: &Prepared, catalog: &Catalog) -> (QueryOutput, ExecStats, QueryTrace) {
    let request = ExecRequest { trace: true, ..ExecRequest::default() };
    let report = prepared.execute(catalog, &request).unwrap();
    assert!(report.profile.is_none(), "nobody asked for a profile");
    (report.output, report.stats, report.trace.expect("the request asked for a trace"))
}

/// The canonical span tree must not depend on the schedule: {1, 4, 8}
/// threads over the skewed star (the workload where steal schedules
/// genuinely differ run to run) all render byte-identical trees, and every
/// configuration's rings pass the nesting validator.
#[test]
fn span_tree_is_identical_across_thread_counts_and_steal_schedules() {
    let _gate = gate();
    let w = micro::skewed_star(2, 60, 0.9, 23);
    let named = &w.queries[0];

    let mut reference: Option<String> = None;
    for threads in [1usize, 4, 8] {
        let session = fresh_session(threads);
        let prepared = session.prepare(&w.catalog, &named.query).unwrap();
        let (out, _, trace) = traced(&prepared, &w.catalog);
        assert!(out.cardinality() > 0);
        trace
            .validate_nesting()
            .unwrap_or_else(|e| panic!("unbalanced rings at {threads} threads: {e}"));
        assert_eq!(trace.count(TraceKind::Begin, TraceCat::Query), 1);
        assert_eq!(trace.count(TraceKind::End, TraceCat::Query), 1);

        let tree = trace.span_tree();
        assert!(tree.starts_with("query\n"), "tree renders from the query span: {tree}");
        assert!(tree.contains("pipeline"), "{tree}");
        assert!(tree.contains("trie_fetch"), "{tree}");
        assert!(tree.contains("node"), "{tree}");
        match &reference {
            None => reference = Some(tree),
            Some(expected) => {
                assert_eq!(expected, &tree, "span tree diverged at {threads} threads")
            }
        }
    }
}

/// A second run on the SAME session hits the shared trie cache, so its
/// trie_fetch lines flip from `built` to `hit` — and stay identical across
/// thread counts, because fetch outcomes depend on cache state, not on the
/// schedule.
#[test]
fn warm_span_tree_reports_cache_hits_deterministically() {
    let _gate = gate();
    let w = micro::skewed_star(2, 60, 0.9, 23);
    let named = &w.queries[0];

    let mut warm_reference: Option<String> = None;
    for threads in [1usize, 4] {
        let session = fresh_session(threads);
        let prepared = session.prepare(&w.catalog, &named.query).unwrap();
        let (_, _, cold) = traced(&prepared, &w.catalog);
        let (_, _, warm) = traced(&prepared, &w.catalog);
        assert!(cold.span_tree().contains("built"), "{}", cold.span_tree());
        assert!(warm.span_tree().contains("hit"), "{}", warm.span_tree());
        assert!(!warm.span_tree().contains("built"), "{}", warm.span_tree());
        match &warm_reference {
            None => warm_reference = Some(warm.span_tree()),
            Some(expected) => assert_eq!(expected, &warm.span_tree()),
        }
    }
}

/// Parallel executions carry per-worker task spans, and — once a steal is
/// observed — the steal instants agree exactly with `ExecStats::tasks_stolen`
/// while task spans cover at least `tasks_spawned`. Steals are genuinely
/// nondeterministic, so the test retries until one shows up.
#[test]
fn task_spans_and_steal_instants_reconcile_with_exec_stats() {
    let _gate = gate();
    let w = micro::skewed_star(2, 120, 0.9, 29);
    let named = &w.queries[0];
    let session = fresh_session(4);
    let prepared = session.prepare(&w.catalog, &named.query).unwrap();

    let mut saw_steal = false;
    for _ in 0..50 {
        let (_, stats, trace) = traced(&prepared, &w.catalog);
        if trace.dropped_events() > 0 {
            // Ring overflow dropped the oldest events; exact reconciliation
            // is only defined on drop-free traces. Schedule-dependent, so
            // just try again.
            continue;
        }
        let task_begins = trace.count(TraceKind::Begin, TraceCat::Task);
        assert!(
            task_begins >= stats.tasks_spawned,
            "every spawned task opens a span: {task_begins} < {}",
            stats.tasks_spawned
        );
        let steal_instants = trace.count(TraceKind::Instant, TraceCat::Steal);
        assert_eq!(
            steal_instants, stats.tasks_stolen,
            "steal instants must mirror the scheduler counter"
        );
        trace.validate_nesting().unwrap();
        if stats.tasks_stolen > 0 {
            saw_steal = true;
            assert!(!trace.workers_with_instant(TraceCat::Steal).is_empty());
            break;
        }
    }
    assert!(saw_steal, "no steal observed in 50 parallel runs of the skewed star");
}

/// What the six-method API could not express: a profile and a trace from
/// **one** execution. Each instrument reconciles with the execution's own
/// `ExecStats` exactly as it does alone — per-node probes sum to
/// `stats.probes`, task spans cover `tasks_spawned`, steal instants equal
/// `tasks_stolen` — and the output is the plain run's, on one thread and
/// under the scheduler.
#[test]
fn profile_and_trace_from_one_execution_both_reconcile() {
    let _gate = gate();
    let w = micro::skewed_star(2, 120, 0.9, 29);
    let named = &w.queries[0];
    let both = ExecRequest { profile: true, trace: true, ..ExecRequest::default() };
    for threads in [1usize, 4] {
        let session = fresh_session(threads);
        let prepared = session.prepare(&w.catalog, &named.query).unwrap();
        let plain = prepared.execute(&w.catalog, &ExecRequest::default()).unwrap();
        assert!(plain.profile.is_none() && plain.trace.is_none());
        for _ in 0..20 {
            let ExecReport { output, stats, profile, trace } =
                prepared.execute(&w.catalog, &both).unwrap();
            let (profile, trace) = (profile.expect("asked for"), trace.expect("asked for"));
            assert_eq!(output, plain.output, "{threads} threads");
            assert_eq!(profile.total_probes(), stats.probes, "{threads} threads");
            assert_eq!(profile.total_probe_hits(), stats.probe_hits);
            assert_eq!(profile.output_rows(), output.cardinality());
            assert_eq!((stats.tasks_spawned > 0), threads > 1, "{stats}");
            trace.validate_nesting().unwrap();
            if trace.dropped_events() > 0 {
                continue; // exact reconciliation is defined on drop-free traces
            }
            assert!(trace.count(TraceKind::Begin, TraceCat::Task) >= stats.tasks_spawned);
            assert_eq!(trace.count(TraceKind::Instant, TraceCat::Steal), stats.tasks_stolen);
            break;
        }
    }
}

/// The Chrome export is well-formed enough to hand to a JSON parser (the
/// CI checker does the full validation): one `traceEvents` array, every
/// worker ring contributing, and no trailing garbage.
#[test]
fn chrome_export_has_the_expected_shape() {
    let _gate = gate();
    let w = micro::skewed_star(2, 60, 0.9, 23);
    let named = &w.queries[0];
    let session = fresh_session(4);
    let prepared = session.prepare(&w.catalog, &named.query).unwrap();
    let (_, _, trace) = traced(&prepared, &w.catalog);

    let json = trace.to_chrome_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'), "{json}");
    assert!(json.contains("\"traceEvents\""), "{json}");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""), "{json}");
    assert!(json.contains("\"cat\":\"query\""), "{json}");
    assert!(json.contains("\"cat\":\"task\""), "{json}");
    assert_eq!(json.matches("\"traceEvents\"").count(), 1);
}

/// Tracing OFF is allocation-free, mirroring the profiler's contract: warm
/// untraced executions allocate identically run to run, and a traced run
/// allocates strictly more — the rings are the feature's entire cost, paid
/// only when the feature is on.
#[test]
fn disabled_tracing_is_allocation_free() {
    let _gate = gate();
    let workload = freejoin::workloads::micro::clover(100);
    let named = &workload.queries[0];
    let session = Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(FreeJoinOptions::default().with_num_threads(1));
    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();
    let plain = ExecRequest::default();
    let expected = prepared.execute(&workload.catalog, &plain).unwrap().output.cardinality();
    prepared.execute(&workload.catalog, &plain).unwrap();

    let measure_plain = || {
        let before = allocations();
        let out = prepared.execute(&workload.catalog, &plain).unwrap().output;
        assert_eq!(out.cardinality(), expected);
        allocations() - before
    };
    let plain_a = measure_plain();
    let plain_b = measure_plain();
    assert_eq!(plain_a, plain_b, "warm untraced executions allocate identically run to run");

    let before = allocations();
    let (out, _, trace) = traced(&prepared, &workload.catalog);
    let traced = allocations() - before;
    assert_eq!(out.cardinality(), expected);
    assert!(trace.total_events() > 0);
    assert!(
        traced > plain_b,
        "tracing allocates its rings ({traced} vs {plain_b}) — if this ever fails because \
         the delta hit zero, celebrate and tighten the assertion"
    );
}
