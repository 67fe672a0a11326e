//! Pins the flat GHT's allocation behaviour with a counting global
//! allocator: forcing a level costs a number of allocations that grows with
//! the *logarithm* of its size (hash-map and count-vector doubling), never
//! with its distinct-key count, and the probe loop over already-forced tries
//! allocates nothing — doubling the number of probes leaves the allocation
//! count of an execution unchanged.
//!
//! Everything lives in one `#[test]` because the counter is process-global
//! and the default harness runs tests concurrently.

use freejoin::engine::compile::compile;
use freejoin::engine::exec::execute_pipeline;
use freejoin::engine::prepare_inputs;
use freejoin::engine::sink::OutputSink;
use freejoin::engine::InputTrie;
use freejoin::plan::binary2fj;
use freejoin::prelude::*;
use freejoin::query::OutputBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn relation(name: &str, cols: &[&str], rows: impl Iterator<Item = [i64; 2]>) -> Relation {
    let mut b = RelationBuilder::new(name, Schema::all_int(cols));
    for row in rows {
        b.push_ints(&row).unwrap();
    }
    b.finish()
}

/// Allocations of forcing the root level of `R(x, y)` with `keys` distinct
/// `x` values over `4 * keys` rows.
fn force_allocations(keys: i64) -> u64 {
    let mut catalog = Catalog::new();
    catalog
        .add(relation("R", &["x", "y"], (0..4 * keys).map(|i| [i % keys, i])))
        .unwrap();
    let query = QueryBuilder::new("q").atom("R", &["x", "y"]).build();
    let input = prepare_inputs(&catalog, &query).unwrap().atoms.remove(0);
    let schema = vec![vec!["x".to_string()], vec!["y".to_string()]];
    let trie = InputTrie::build(&input, schema, TrieStrategy::Colt);
    let before = allocations();
    let level = trie.force(trie.root(), 0, true);
    let spent = allocations() - before;
    assert_eq!(level.num_keys(), keys as usize);
    spent
}

/// Allocations of one warm serial count of `R(x,y), S(y,z), T(z,w)` where
/// `R` — the relation whose rows drive the probes — has `r_rows` rows, `S`
/// and `T` are fixed, and every trie level the query touches was forced by
/// a first, unmeasured execution. Returns the allocation count and the
/// number of probes the measured execution made.
fn warm_execution(r_rows: i64, options: &FreeJoinOptions) -> (u64, u64) {
    let mut catalog = Catalog::new();
    catalog
        .add(relation("R", &["x", "y"], (0..r_rows).map(|i| [i, i % 500])))
        .unwrap();
    catalog
        .add(relation("S", &["y", "z"], (0..1000).map(|i| [i % 500, i % 50])))
        .unwrap();
    catalog.add(relation("T", &["z", "w"], (0..100).map(|i| [i % 50, i]))).unwrap();
    let query = QueryBuilder::new("q")
        .atom("R", &["x", "y"])
        .atom("S", &["y", "z"])
        .atom("T", &["z", "w"])
        .count()
        .build();
    let prepared = prepare_inputs(&catalog, &query).unwrap();
    let input_vars: Vec<Vec<String>> = prepared.atoms.iter().map(|a| a.vars.clone()).collect();
    let compiled = compile(&binary2fj(&input_vars), &input_vars).unwrap();
    let tries: Vec<Arc<InputTrie>> = prepared
        .atoms
        .iter()
        .zip(&compiled.schemas)
        .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
        .collect();
    let builder =
        OutputBuilder::try_new(&query.head, query.aggregate.clone(), &compiled.binding_order)
            .unwrap();
    let run = || {
        let mut sink = OutputSink::new(builder.clone());
        let counters = execute_pipeline(&tries, &compiled, options, &mut sink);
        // R ⋈ S ⋈ T: every R row meets 2 S rows, each meeting 2 T rows.
        assert_eq!(sink.finish().cardinality(), 4 * r_rows as u64);
        counters.probes
    };
    run();
    let maps = tries.iter().map(|t| t.maps_built()).sum::<u64>();
    let before = allocations();
    let probes = run();
    let spent = allocations() - before;
    assert_eq!(tries.iter().map(|t| t.maps_built()).sum::<u64>(), maps, "nothing left to force");
    (spent, probes)
}

#[test]
fn forcing_is_logarithmic_and_probing_is_allocation_free() {
    // (a) One forced level: 10^4 and 2 * 10^4 distinct keys. The Arc-per-key
    // layout this replaced spent two allocations per distinct key.
    let small = force_allocations(10_000);
    let large = force_allocations(20_000);
    assert!(small < 64, "forcing 10^4 keys took {small} allocations");
    assert!(large <= small + 4, "doubling the level added {} allocations", large - small);

    // (b) Warm executions: doubling the probing relation doubles the probes
    // and leaves the allocation count where it was, on the vectorized and
    // the scalar path and under every strategy.
    for trie in [TrieStrategy::Colt, TrieStrategy::Slt, TrieStrategy::Simple] {
        for batch_size in [1, 1000] {
            let options = FreeJoinOptions { trie, ..FreeJoinOptions::default() }
                .with_num_threads(1)
                .with_batch_size(batch_size);
            let (allocs_n, probes_n) = warm_execution(20_000, &options);
            let (allocs_2n, probes_2n) = warm_execution(40_000, &options);
            assert!(probes_n >= 20_000 && probes_2n == 2 * probes_n, "{probes_n} {probes_2n}");
            assert_eq!(
                allocs_n, allocs_2n,
                "{trie:?} batch {batch_size}: {probes_n} more probes must not allocate"
            );
        }
    }
}
