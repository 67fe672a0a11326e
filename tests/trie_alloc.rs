//! Pins the flat GHT's allocation behaviour with a counting global
//! allocator: forcing a one-column (word-keyed) level costs a *constant*
//! number of allocations — every buffer, the index included, is sized once
//! from the node's row count, so nothing doubles; keys over a compact range
//! get a slot array, and a hash index its keys leave mostly empty is refitted
//! to them once — a wide level's
//! `LevelKey` index still grows with its distinct keys, by doubling, never
//! by a number of allocations proportional to them, and the probe loop over already-forced tries
//! allocates nothing — doubling the number of probes leaves the allocation
//! count of an execution unchanged. The allocator also sums bytes: a warm
//! execution whose covers have a handful of entries sizes its batch buffers
//! to them, not to a whole batch.
//!
//! Everything lives in one `#[test]` because the counter is process-global
//! and the default harness runs tests concurrently.

use freejoin::engine::compile::compile;
use freejoin::engine::exec::{execute_pipeline, Instruments};
use freejoin::engine::prepare_inputs;
use freejoin::engine::InputTrie;
use freejoin::plan::binary2fj;
use freejoin::prelude::*;
use freejoin::query::OutputBuilder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Bytes requested so far (a `realloc` counts its new size).
fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::SeqCst)
}

fn relation(name: &str, cols: &[&str], rows: impl Iterator<Item = [i64; 2]>) -> Relation {
    let mut b = RelationBuilder::new(name, Schema::all_int(cols));
    for row in rows {
        b.push_ints(&row).unwrap();
    }
    b.finish()
}

/// Allocations of forcing the root level of `R(x, y)` with `keys` distinct
/// `x` values over `per_key * keys` rows, keyed on `level0`. The `x` values
/// are `0, spread, 2 * spread, ..`: compact at a spread of 1, scattered far
/// beyond a slot array's reach at a spread of 1,000,003.
fn force_allocations(keys: i64, per_key: i64, spread: i64, level0: &[&str]) -> u64 {
    let mut catalog = Catalog::new();
    let rows = (0..per_key * keys).map(|i| [i % keys * spread, i / keys]);
    catalog.add(relation("R", &["x", "y"], rows)).unwrap();
    let query = QueryBuilder::new("q").atom("R", &["x", "y"]).build();
    let input = prepare_inputs(&catalog, &query).unwrap().atoms.remove(0);
    let schema = vec![level0.iter().map(|v| v.to_string()).collect(), vec!["y".to_string()]];
    let trie = InputTrie::build(&input, schema, TrieStrategy::Colt);
    let before = allocations();
    let level = trie.force(trie.root(), 0, true);
    let spent = allocations() - before;
    let per_child = if level0.len() == 1 { 1 } else { per_key };
    assert_eq!(level.num_keys() as i64, keys * per_child);
    assert_eq!(level.is_dense(), level0.len() == 1 && spread == 1, "{level0:?} spread {spread}");
    spent
}

/// Far enough apart that no number of rows per key makes the keys compact.
const SPARSE: i64 = 1_000_003;

/// The most entries a node with probes buffers (the executor's private
/// `BATCH`, the paper's default batch size).
const BATCH: u64 = 1000;

/// Allocations of one warm serial count of `R(x,y), S(y,z), T(z,w)` where
/// `R` — the relation whose rows drive the probes — has `r_rows` rows, `S`
/// and `T` are fixed, and every trie level the query touches was forced by
/// a first, unmeasured execution. Returns the allocation count, the bytes
/// requested and the number of probes of the measured execution.
fn warm_execution(r_rows: i64, options: &FreeJoinOptions) -> (u64, u64, u64) {
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
        let (mut builders, counters) = execute_pipeline(
            &tries,
            &compiled,
            options,
            1,
            builder.clone(),
            &Instruments::default(),
        );
        // R ⋈ S ⋈ T: every R row meets 2 S rows, each meeting 2 T rows.
        let output = builders.pop().expect("one thread, one builder").finish();
        assert_eq!(output.cardinality(), 4 * r_rows as u64);
        counters.stats.probes
    };
    run();
    let maps = tries.iter().map(|t| t.maps_built()).sum::<u64>();
    let before = (allocations(), allocated_bytes());
    let probes = run();
    let spent = (allocations() - before.0, allocated_bytes() - before.1);
    assert_eq!(tries.iter().map(|t| t.maps_built()).sum::<u64>(), maps, "nothing left to force");
    (spent.0, spent.1, probes)
}

#[test]
fn forcing_is_constant_and_probing_is_allocation_free() {
    // (a) One forced word-keyed level, from two keys to 2 * 10^4: the
    // level's box, its index, the child-of-row and count vectors, the
    // children and the grouped rows, whatever the size. Compact keys get a
    // slot array, at any number of rows per key; scattered keys a hash
    // index, which at four rows per key is refitted to them. A wide level's
    // index grows by doubling: a few more allocations for twice the keys.
    for per_key in [1, 4] {
        let spent = [2, 10_000, 20_000].map(|keys| force_allocations(keys, per_key, 1, &["x"]));
        assert_eq!(spent, [6; 3], "a dense level must not allocate by size ({per_key} per key)");
    }
    let spent = [2, 10_000, 20_000].map(|keys| force_allocations(keys, 1, SPARSE, &["x"]));
    assert_eq!(spent, [6; 3], "a hashed level must not allocate by size");
    let spent = [2, 10_000, 20_000].map(|keys| force_allocations(keys, 4, SPARSE, &["x"]));
    assert_eq!(spent, [7; 3], "refitting the index is one allocation, whatever the size");
    let small = force_allocations(10_000, 4, 1, &["x", "y"]);
    let large = force_allocations(20_000, 4, 1, &["x", "y"]);
    assert!(small < 64, "forcing 4 * 10^4 wide keys took {small} allocations");
    assert!(large <= small + 4, "doubling the wide level added {} allocations", large - small);

    // (b) Warm executions: doubling the probing relation doubles the probes
    // and leaves the allocation count where it was, under every strategy.
    for trie in [TrieStrategy::Colt, TrieStrategy::Slt, TrieStrategy::Simple] {
        let options = FreeJoinOptions { trie, ..FreeJoinOptions::default() }.with_num_threads(1);
        let (allocs_n, _, probes_n) = warm_execution(20_000, &options);
        let (allocs_2n, _, probes_2n) = warm_execution(40_000, &options);
        assert!(probes_n >= 20_000 && probes_2n == 2 * probes_n, "{probes_n} {probes_2n}");
        assert_eq!(allocs_n, allocs_2n, "{trie:?}: {probes_n} more probes must not allocate");
    }

    // (c) A warm execution whose every cover has at most 16 entries (16
    // rows of R, two rows of S under each y, two of T under each z) asks
    // for less memory than one full batch of one node would take — the
    // `BATCH` x 16-byte values of a batch's writes: the result chunk's
    // weights column is the only kilobytes-sized request.
    let options = FreeJoinOptions::default().with_num_threads(1);
    let (_, bytes, probes) = warm_execution(16, &options);
    assert_eq!(probes, 16 + 32);
    assert!(bytes < BATCH * 16, "a warm 16-row execution requested {bytes} bytes");
}
