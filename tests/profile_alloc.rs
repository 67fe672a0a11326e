//! Pins the profiler's zero-cost-when-off contract with a counting global
//! allocator: a disabled [`ProfileSheet`] allocates nothing — not at
//! construction, not on a million bump attempts, not on merge — and a warm
//! `profile: false` execution allocates exactly as much as any other warm
//! unprofiled execution (turning profiling on is what pays, and only then).
//!
//! Everything lives in one `#[test]` because the counter is process-global
//! and the default harness runs tests concurrently. Only the test's own
//! thread is counted: the harness's main thread keeps allocating for a
//! moment after it spawned the test (its running-tests table, its timeout
//! queue), which used to fail the first assertion in about half the runs.

use freejoin::obs::ProfileSheet;
use freejoin::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set by the test on its own thread; const-initialized and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn disabled_profiling_is_allocation_free() {
    COUNTED.with(|counted| counted.set(true));
    // Part 1: a disabled sheet is a no-op at the allocator level. The bumps
    // are failed bounds checks into an empty slice, not stores.
    let mut sheet = ProfileSheet::disabled();
    let mut sink = ProfileSheet::disabled();
    let before = allocations();
    for i in 0..1_000_000usize {
        sheet.add_expansions(i % 7, 3);
        sheet.add_probe(i % 7, i % 2 == 0);
        sheet.add_output_rows(i % 7, 2);
        sheet.add_wall(i % 7, std::time::Duration::from_nanos(1));
    }
    sink.merge(&sheet);
    let during = ProfileSheet::disabled();
    assert!(!sheet.is_enabled() && !during.is_enabled());
    assert_eq!(allocations(), before, "disabled-sheet operations must not allocate");

    // Disarmed chaos failpoints share the contract: the hot-path check is
    // one relaxed atomic load, so a production binary with failpoints
    // compiled in (they always are) pays no allocation and no lock.
    let before = allocations();
    for _ in 0..1_000_000usize {
        assert!(!freejoin::obs::chaos::should_fail("exec.task"));
        assert!(freejoin::obs::chaos::check("session.trie_build").is_none());
    }
    assert_eq!(allocations(), before, "disarmed chaos checks must not allocate");

    // Part 2: warm executions. After two warm-up runs (trie + plan caches
    // settled), every further unprofiled run allocates an identical amount,
    // and a profiled run allocates strictly more — the delta IS the
    // feature's cost, and a request with `profile: false` pays none of it.
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
    assert_eq!(plain_a, plain_b, "warm unprofiled executions allocate identically run to run");

    let request = ExecRequest { profile: true, ..ExecRequest::default() };
    let before = allocations();
    let report = prepared.execute(&workload.catalog, &request).unwrap();
    let profiled = allocations() - before;
    assert_eq!(report.output.cardinality(), expected);
    assert!(report.profile.expect("asked for").total_probes() > 0);
    assert!(
        profiled > plain_b,
        "profiling allocates its sheets ({profiled} vs {plain_b}) — if this ever fails \
         because the delta hit zero, celebrate and tighten the assertion"
    );
}
