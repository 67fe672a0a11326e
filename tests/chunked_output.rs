//! The chunked result pipeline must be invisible in the results: for every
//! strategy, thread count and aggregate, executing a pipeline into the
//! query's builder — chunks projected onto its positions — produces exactly
//! the rows, counts and weights that replaying every full binding through
//! the builder's per-tuple `push_weighted` produces, and in the same
//! emission order. Also pins the chunk-capacity boundary cases and the
//! weighted-materialize allocation behavior (a weighted tuple stores its
//! shared values once).

use freejoin::engine::compile::compile;
use freejoin::engine::exec::{execute_pipeline, Instruments};
use freejoin::engine::prepare_inputs;
use freejoin::engine::InputTrie;
use freejoin::plan::{binary2fj, factor};
use freejoin::prelude::*;
use freejoin::query::{OutputBuilder, OutputKind, CHUNK_CAPACITY};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A counting wrapper around the system allocator, used to pin the
/// weighted-materialize dedup (one stored entry per weighted tuple, however
/// large the weight).
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
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Execute one (query, plan) under `options`/`threads` twice — into the
/// query's builder, and into a `Materialize` builder over the full binding
/// order whose rows are then replayed one by one through the query
/// builder's per-tuple `push_weighted` — and return both outputs.
fn run_both(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    options: &FreeJoinOptions,
    threads: usize,
) -> (QueryOutput, QueryOutput) {
    let prepared = prepare_inputs(catalog, query).unwrap();
    let input_vars: Vec<Vec<String>> = prepared.atoms.iter().map(|a| a.vars.clone()).collect();
    let mut plan = binary2fj(&input_vars);
    factor(&mut plan);
    let compiled = compile(&plan, &input_vars).unwrap();
    let tries: Vec<Arc<InputTrie>> = prepared
        .atoms
        .iter()
        .zip(&compiled.schemas)
        .map(|(input, schema)| Arc::new(InputTrie::build(input, schema.clone(), options.trie)))
        .collect();
    let builder =
        OutputBuilder::try_new(&query.head, query.aggregate.clone(), &compiled.binding_order)
            .unwrap();

    let run = |builder: &OutputBuilder| {
        let instruments = Instruments::default();
        let (builders, _) =
            execute_pipeline(&tries, &compiled, options, threads, builder.clone(), &instruments);
        let mut merged = builder.clone();
        builders.into_iter().for_each(|task| merged.merge(task));
        merged.finish()
    };
    let chunked = run(&builder);

    let order = &compiled.binding_order;
    let bindings = run(&OutputBuilder::new(order, Aggregate::Materialize, order));
    let OutputKind::Rows(bindings) = bindings.kind else { panic!("materialized rows") };
    let mut tuple_wise = builder;
    for binding in &bindings {
        tuple_wise.push_weighted(binding, 1);
    }
    (chunked, tuple_wise.finish())
}

/// Both outputs must agree exactly: same counts/weights, same group maps,
/// and for rows the same multiset in the same emission order (the per-task
/// merge and trie iteration are deterministic for fixed inputs, so even the
/// unsorted order must match).
fn assert_equivalent(chunked: &QueryOutput, tuple_wise: &QueryOutput, context: &str) {
    assert_eq!(chunked.vars, tuple_wise.vars, "schema diverged: {context}");
    match (&chunked.kind, &tuple_wise.kind) {
        (OutputKind::Count(a), OutputKind::Count(b)) => {
            assert_eq!(a, b, "counts diverged: {context}")
        }
        (OutputKind::Groups(a), OutputKind::Groups(b)) => {
            assert_eq!(a, b, "group weights diverged: {context}")
        }
        (OutputKind::Rows(a), OutputKind::Rows(b)) => {
            assert_eq!(a, b, "rows (in emission order) diverged: {context}");
            assert_eq!(
                chunked.canonical_rows(),
                tuple_wise.canonical_rows(),
                "sorted rows diverged: {context}"
            );
        }
        (a, b) => panic!("output kinds diverged ({a:?} vs {b:?}): {context}"),
    }
}

fn relation(name: &str, cols: &[&str], rows: &[Vec<i64>]) -> Relation {
    let mut b = RelationBuilder::new(name, Schema::all_int(cols));
    for row in rows {
        b.push_ints(row).unwrap();
    }
    b.finish()
}

/// The aggregate grid: enumeration, counting (exercises empty projections
/// and, with pruned plans, weights that stand for whole subtrees), and
/// grouping.
fn aggregates() -> [Aggregate; 3] {
    [Aggregate::Materialize, Aggregate::Count, Aggregate::group_count(&["x"])]
}

fn check_query(catalog: &Catalog, base: &ConjunctiveQuery) {
    for aggregate in aggregates() {
        let query = base.clone().with_aggregate(aggregate.clone());
        for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            for threads in [1usize, 4] {
                for options in [
                    FreeJoinOptions { trie, ..FreeJoinOptions::default() },
                    // The enumerating plans: every variable reaches the builder.
                    FreeJoinOptions { trie, factorize_output: false, ..FreeJoinOptions::default() },
                ] {
                    let (chunked, tuple_wise) = run_both(catalog, &query, &options, threads);
                    assert_equivalent(
                        &chunked,
                        &tuple_wise,
                        &format!("{} {aggregate:?} {trie:?} x{threads} {options:?}", base.name),
                    );
                }
            }
        }
    }
}

fn star_query() -> ConjunctiveQuery {
    QueryBuilder::new("star")
        .head(&["x", "a", "b", "c"])
        .atom("R", &["x", "a"])
        .atom("S", &["x", "b"])
        .atom("T", &["x", "c"])
        .build()
}

fn triangle_query() -> ConjunctiveQuery {
    QueryBuilder::new("tri")
        .head(&["x", "y", "z"])
        .atom("R", &["x", "y"])
        .atom("S", &["y", "z"])
        .atom("T", &["z", "x"])
        .build()
}

/// Strategy: a small binary relation over a tiny domain (so joins match).
fn rows(max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..5, 2), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    // The star shape exercises the independent-tail product expansion (the
    // non-recursive enumeration path) across every aggregate, strategy and
    // thread count.
    #[test]
    fn chunked_star_equals_per_tuple_adapter(r in rows(12), s in rows(12), t in rows(12)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["x", "a"], &r)).unwrap();
        catalog.add(relation("S", &["x", "b"], &s)).unwrap();
        catalog.add(relation("T", &["x", "c"], &t)).unwrap();
        check_query(&catalog, &star_query());
    }

    // The triangle shape keeps a probing final node, so results flow
    // through the per-entry (non-expansion) chunk path.
    #[test]
    fn chunked_triangle_equals_per_tuple_adapter(r in rows(14), s in rows(14), t in rows(14)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["a", "b"], &r)).unwrap();
        catalog.add(relation("S", &["a", "b"], &s)).unwrap();
        catalog.add(relation("T", &["a", "b"], &t)).unwrap();
        check_query(&catalog, &triangle_query());
    }
}

/// Results of exactly CHUNK_CAPACITY (and ±1) tuples cross the flush
/// boundary cleanly: no tuple is lost, duplicated, or reordered, and an
/// empty result flushes nothing.
#[test]
fn chunk_capacity_boundary_is_exact() {
    for total in [0usize, 1, CHUNK_CAPACITY - 1, CHUNK_CAPACITY, CHUNK_CAPACITY + 1] {
        let mut catalog = Catalog::new();
        let rows: Vec<Vec<i64>> = (0..total as i64).map(|i| vec![i % 7, i]).collect();
        catalog.add(relation("R", &["x", "a"], &rows)).unwrap();
        let s_rows: Vec<Vec<i64>> = (0..7i64).map(|x| vec![x, x]).collect();
        catalog.add(relation("S", &["x", "b"], &s_rows)).unwrap();
        let query = QueryBuilder::new("boundary")
            .head(&["x", "a", "b"])
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .build();
        for threads in [1usize, 4] {
            let (chunked, tuple_wise) =
                run_both(&catalog, &query, &FreeJoinOptions::default(), threads);
            assert_eq!(chunked.cardinality(), total as u64, "total {total} x{threads}");
            assert_equivalent(&chunked, &tuple_wise, &format!("boundary total {total} x{threads}"));
        }
    }
}

/// The weighted-materialize dedup, pinned by allocation counting: pushing a
/// weight-10000 tuple into a `Materialize` builder stores its values once (a
/// handful of allocations), while expanding to rows at `finish` — the public
/// boundary — pays exactly the per-row cost.
#[test]
fn weighted_materialize_push_allocates_shared_prefix_once() {
    const WEIGHT: u64 = 10_000;
    let order: Vec<String> = vec!["x".into(), "y".into()];
    let mut builder = OutputBuilder::new(&order, Aggregate::Materialize, &order);
    // Warm up: the first push sizes the chunk's column vectors.
    builder.push_weighted(&[Value::Int(0), Value::Int(0)], 1);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    builder.push_weighted(&[Value::Int(1), Value::Int(2)], WEIGHT);
    let during_push = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        during_push <= 8,
        "a weighted push must store its values once, not per duplicate \
         ({during_push} allocations for weight {WEIGHT})"
    );

    assert_eq!(builder.tuples(), WEIGHT + 1);
    let OutputKind::Rows(rows) = builder.finish().kind else { panic!("materialized rows") };
    assert_eq!(rows.len() as u64, WEIGHT + 1);
    assert_eq!(rows[1], vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(rows[rows.len() - 1], vec![Value::Int(1), Value::Int(2)]);
}
