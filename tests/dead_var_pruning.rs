//! Differential test of dead-variable pruning: the plans the compiler prunes
//! (the default) must answer exactly like the plans that enumerate every
//! variable (`with_factorized_output(false)`), like the binary hash join
//! baseline, and like a brute-force nested-loop evaluation of the query —
//! for a count, for a group-count over a join variable and over a leaf
//! variable (bound by one atom; the output is what keeps it alive), and for
//! materialized rows under the full head and under projections.
//!
//! Two sources of inputs: the repository's tiny JOB-like, LSQB-like and micro
//! suites, and small generated relations (duplicate rows, NULL keys, empty
//! relations) under the clover, star, skew-flip and triangle shapes. Every
//! case runs left-deep and bushy, across the trie strategies and thread
//! counts; where both plans walk the same entries pruning may also never
//! cost probes.
//!
//! The cyclic shapes at the end — triangle, 4-cycle with a chord, triangle
//! with a shared attribute, all as self-joins — are the ones split factoring
//! turns into intersection plans and lazy leaves then walk and scan instead
//! of hashing: they run the same grid pruned *and* unpruned, against
//! Generic Join as well, over duplicate rows, NULL keys, a hub key above the
//! scan bound and an empty relation, and once more with every expansion
//! split into scheduler tasks.

mod common;

use common::{catalog_of, cyclic_queries, hub_catalog, oracle, relation, rows, thread_counts};
use freejoin::engine::compile_query;
use freejoin::plan::{PipeInput, PlanTree};
use freejoin::prelude::*;
use freejoin::workloads::{job, lsqb, micro, Workload};
use proptest::prelude::*;

/// Trie strategy x threads, pruning on.
fn grid() -> Vec<FreeJoinOptions> {
    let mut grid = Vec::new();
    for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
        for threads in thread_counts() {
            grid.push(
                FreeJoinOptions::default()
                    .with_trie(trie)
                    .with_num_threads(threads)
                    // Small enough that the larger suites' expansions split.
                    .with_split_threshold(16),
            );
        }
    }
    grid
}

/// The optimizer's left-deep plan and a bushy one: the last atom of that
/// order joined with an earlier atom it shares a variable with becomes a
/// pipeline of its own, under the remaining atoms in their order.
fn plans(catalog: &Catalog, query: &ConjunctiveQuery) -> Vec<(&'static str, BinaryPlan)> {
    let stats = CatalogStats::collect(catalog);
    let left_deep = optimize(
        query,
        &stats,
        OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() },
    );
    let order = left_deep.leaves();
    let mut out = vec![("left-deep", left_deep)];
    let (&last, rest) = order.split_last().unwrap();
    let partner = rest
        .iter()
        .rposition(|&a| !query.atoms[a].shared_vars(&query.atoms[last]).is_empty())
        .filter(|_| rest.len() >= 2);
    if let Some(partner) = partner {
        let mut spine = rest.to_vec();
        let partner = spine.remove(partner);
        let mut tree = PlanTree::Leaf(spine[0]);
        for &atom in &spine[1..] {
            tree = PlanTree::Join(Box::new(tree), Box::new(PlanTree::Leaf(atom)));
        }
        let sub = PlanTree::Join(Box::new(PlanTree::Leaf(partner)), Box::new(PlanTree::Leaf(last)));
        out.push(("bushy", BinaryPlan::new(PlanTree::Join(Box::new(tree), Box::new(sub)))));
    }
    out
}

/// The aggregates one query shape is checked under. `pick` seeds the
/// projection (which variables, from which rotation of the variable order).
fn variants(query: &ConjunctiveQuery, pick: u64) -> Vec<(String, ConjunctiveQuery)> {
    let vars = query.variables();
    let occurrences = |v: &String| query.atoms_with_var(v).len();
    let with = |label: &str, aggregate: Aggregate, head: Vec<String>| {
        let mut q = query.clone().with_aggregate(aggregate);
        q.head = head;
        (format!("{} {label}", query.name), q)
    };
    let mut out = vec![with("count", Aggregate::Count, vars.clone())];
    if let Some(join_var) = vars.iter().find(|v| occurrences(v) >= 2) {
        let by = Aggregate::GroupCount(vec![join_var.clone()]);
        out.push(with("group by join var", by, vars.clone()));
    }
    if let Some(leaf_var) = vars.iter().rev().find(|v| occurrences(v) == 1) {
        let by = Aggregate::GroupCount(vec![leaf_var.clone()]);
        out.push(with("group by leaf var", by, vars.clone()));
    }
    out.push(with("rows", Aggregate::Materialize, vars.clone()));
    // A projection: a non-empty subset of the variables, in rotated order.
    let mask = 1 + pick % ((1u64 << vars.len()) - 1);
    let rotation = (pick / 7) as usize % vars.len();
    let head: Vec<String> = (0..vars.len())
        .map(|i| (i + rotation) % vars.len())
        .filter(|i| mask >> i & 1 == 1)
        .map(|i| vars[i].clone())
        .collect();
    out.push(with("projected rows", Aggregate::Materialize, head));
    out
}

/// Does the pruned plan iterate, at a node with probes, the last level of an
/// input — an atom with its filter applied, or an intermediate — whose rows
/// repeat on the variables the plan keeps of it?
fn a_last_level_cover_repeats(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    plan: &BinaryPlan,
) -> bool {
    let compiled = compile_query(query, plan, &FreeJoinOptions::default()).unwrap();
    for pipeline in &compiled.pipelines {
        let probing = pipeline.plan.nodes.iter().filter(|node| node.subatoms.len() >= 2);
        let covers =
            probing.flat_map(|node| node.cover_candidates.iter().map(|&i| &node.subatoms[i]));
        for k in covers.filter(|sub| sub.final_for_input).map(|sub| sub.input) {
            let (bound, atoms) = match pipeline.inputs[k] {
                PipeInput::Atom(a) => (&query.atoms[a].vars, vec![a]),
                PipeInput::Intermediate(j) => {
                    (&compiled.pipelines[j].plan.binding_order, compiled.atoms_under(j))
                }
            };
            let mut rows = query.clone().with_aggregate(Aggregate::Materialize);
            rows.atoms = atoms.into_iter().map(|a| query.atoms[a].clone()).collect();
            rows.head = bound.iter().filter(|v| !pipeline.pruned[k].contains(v)).cloned().collect();
            if oracle(catalog, &[&rows])[0].canonical_rows().windows(2).any(|w| w[0] == w[1]) {
                return true;
            }
        }
    }
    false
}

/// Is some atom empty (its filter applied) under a plan that joins an input
/// before any input it shares a variable with?
fn an_empty_atom_meets_a_cross_join(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    plan: &BinaryPlan,
) -> bool {
    let decomposed = plan.decompose();
    let cross_join = (0..decomposed.len()).any(|p| {
        let inputs = decomposed.pipeline_input_vars(query, p);
        (1..inputs.len()).any(|k| !inputs[k].iter().any(|v| inputs[..k].concat().contains(v)))
    });
    let inputs = freejoin::engine::prepare_inputs(catalog, query).unwrap().atoms;
    cross_join && inputs.iter().any(|input| input.relation.num_rows() == 0)
}

/// Materializing a result larger than this in every configuration would
/// dominate the suite's run time without exercising anything new.
const MAX_MATERIALIZED: u64 = 20_000;

/// Check one query (under every aggregate variant and plan) against the
/// oracle: binary join, the enumerating Free Join, and the pruned Free Join
/// under `configs`; where no last-level cover repeats a key and no empty
/// atom meets a cross join, pruned probes never exceed unpruned probes.
fn check(catalog: &Catalog, query: &ConjunctiveQuery, pick: u64, configs: &[FreeJoinOptions]) {
    let mut variants = variants(query, pick);
    let counting: Vec<&ConjunctiveQuery> = variants
        .iter()
        .map(|(_, q)| q)
        .filter(|q| q.aggregate != Aggregate::Materialize)
        .collect();
    let mut expected = oracle(catalog, &counting);
    if expected[0].cardinality() > MAX_MATERIALIZED {
        variants.truncate(counting.len());
    } else {
        let rows: Vec<&ConjunctiveQuery> =
            variants[counting.len()..].iter().map(|(_, q)| q).collect();
        expected.extend(oracle(catalog, &rows));
    }
    for ((label, variant), expected) in variants.iter().zip(&expected) {
        for (shape, plan) in plans(catalog, variant) {
            let ctx = format!("{label}, {shape} plan");
            let (binary, _) = BinaryJoinEngine::new().execute(catalog, variant, &plan).unwrap();
            assert!(binary.result_eq(expected), "{ctx}: binary join vs oracle");
            let (generic, _) = GenericJoinEngine::new().execute(catalog, variant, &plan).unwrap();
            assert!(generic.result_eq(expected), "{ctx}: Generic Join vs oracle");

            let serial = FreeJoinOptions::default().with_num_threads(1);
            let run = |options: FreeJoinOptions| {
                let (out, stats) = FreeJoinEngine::new(options)
                    .execute(catalog, variant, &plan)
                    .unwrap_or_else(|e| panic!("{ctx}: {options:?} failed: {e}"));
                assert!(
                    out.result_eq(expected),
                    "{ctx}: {options:?}: {} tuples, expected {}",
                    out.cardinality(),
                    expected.cardinality()
                );
                stats.probes
            };
            let unpruned = run(serial.with_factorized_output(false));
            let pruned = run(serial);
            // Pruning never costs probes — where both plans walk the same
            // entries. The executor iterates the cover with the fewest rows,
            // and one whose input is done is walked row by row: rows that
            // agree on every variable the pruned plan keeps (duplicates, rows
            // only a dead column told apart, an intermediate's once its dead
            // columns are gone) each probe again, while the unpruned plan,
            // where the same subatom still has a successor, walks a map of
            // distinct keys. And an atom joined before anything it shares a
            // variable with (this file's bushy plans make some) is an
            // emptiness probe `#k()` of the unpruned plan only, which over an
            // empty relation ranks first and spares every other probe. The
            // two plans then differ in how they iterate, not in what pruning
            // removed; every other case is asserted, left-deep and bushy.
            if !a_last_level_cover_repeats(catalog, variant, &plan)
                && !an_empty_atom_meets_a_cross_join(catalog, variant, &plan)
            {
                assert!(pruned <= unpruned, "{ctx}: pruning cost probes: {pruned} > {unpruned}");
            }
            for &options in configs {
                run(options);
            }
        }
    }
}

/// The whole grid on the first query of a suite and a rotating third of it
/// on the others: every configuration meets every suite and the run stays
/// in seconds.
fn check_suite(workload: &Workload) {
    let grid = grid();
    for (i, named) in workload.queries.iter().enumerate() {
        let configs: Vec<FreeJoinOptions> = if i == 0 {
            grid.clone()
        } else {
            grid.iter().copied().skip(i % 3).step_by(3).collect()
        };
        check(&workload.catalog, &named.query, 0x9e37_79b9 * (i as u64 + 1), &configs);
    }
}

#[test]
fn job_like_suite() {
    // A third of `JobConfig::tiny()`: the nested-loop oracle scans a whole
    // relation per partial binding of up to eight atoms.
    let config = job::JobConfig {
        movies: 40,
        people: 60,
        companies: 8,
        keywords: 12,
        ..job::JobConfig::tiny()
    };
    check_suite(&job::workload(&config));
}

#[test]
fn lsqb_like_suite() {
    check_suite(&lsqb::workload(&lsqb::LsqbConfig::tiny()));
}

#[test]
fn micro_suites() {
    for workload in [
        micro::clover(12),
        micro::star(2, 40, 6, 0.8, 5),
        micro::skew_flip(256, 3),
        micro::skewed_triangle(30, 4, 0.9, 13),
        micro::chain(3, 60, 12, 9),
    ] {
        check_suite(&workload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn generated_clover(r in rows(2), s in rows(2), t in rows(2), pick in 0u64..1 << 40) {
        let catalog = catalog_of(vec![
            relation("R", &["x", "a"], &r),
            relation("S", &["x", "b"], &s),
            relation("T", &["x", "c"], &t),
        ]);
        let query = QueryBuilder::new("clover")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build();
        check(&catalog, &query, pick, &grid());
    }

    #[test]
    fn generated_star(h in rows(3), s in rows(2), t in rows(2), pick in 0u64..1 << 40) {
        // The hub carries two dead columns; one spoke is read twice.
        let catalog = catalog_of(vec![
            relation("hub", &["x", "h", "g"], &h),
            relation("S", &["x", "b"], &s),
            relation("T", &["x", "c"], &t),
        ]);
        let query = QueryBuilder::new("star")
            .atom("hub", &["x", "h", "g"])
            .atom_as("S", "s1", &["x", "b"])
            .atom_as("S", "s2", &["x", "d"])
            .atom("T", &["x", "c"])
            .build();
        check(&catalog, &query, pick, &grid());
    }

    #[test]
    fn generated_skew_flip(
        hub in rows(2),
        anchor in rows(1),
        mid in rows(1),
        sel in rows(2),
        pick in 0u64..1 << 40,
    ) {
        let catalog = catalog_of(vec![
            relation("hub", &["x", "y"], &hub),
            relation("anchor", &["x"], &anchor),
            relation("mid", &["y"], &mid),
            relation("sel", &["y", "w"], &sel),
        ]);
        let query = QueryBuilder::new("skew_flip")
            .atom("hub", &["x", "y"])
            .atom("anchor", &["x"])
            .atom("mid", &["y"])
            .atom("sel", &["y", "w"])
            .build();
        check(&catalog, &query, pick, &grid());
    }

    #[test]
    fn generated_triangle(r in rows(2), s in rows(2), t in rows(3), pick in 0u64..1 << 40) {
        // A cycle with one dead column hanging off it.
        let catalog = catalog_of(vec![
            relation("R", &["a", "b"], &r),
            relation("S", &["a", "b"], &s),
            relation("T", &["a", "b", "c"], &t),
        ]);
        let query = QueryBuilder::new("triangle")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x", "w"])
            .build();
        check(&catalog, &query, pick, &grid());
    }
}

/// An empty relation anywhere in the plan empties every aggregate, pruned
/// or not (the generated cases above only sometimes draw zero rows).
#[test]
fn an_empty_relation_empties_the_result() {
    let full = vec![vec![1, 2], vec![1, 2], vec![3, 5]];
    for empty in ["R", "S", "T"] {
        let table = |name: &str, col: &str| {
            relation(name, &["x", col], if name == empty { &[] } else { &full })
        };
        let catalog = catalog_of(vec![table("R", "a"), table("S", "b"), table("T", "c")]);
        let query = QueryBuilder::new("clover")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build();
        assert_eq!(oracle(&catalog, &[&query])[0].cardinality(), 0);
        check(&catalog, &query, 11, &grid());
    }
}

// ---- cyclic shapes: split plans, row-wise covers, scan probes ----

/// The grid with every configuration pruned and unpruned. An unpruned split
/// plan keeps its trailing `[#k()]` node, so its dynamically chosen covers
/// are not their inputs' last subatoms (they iterate maps where the pruned
/// plan walks rows).
fn cyclic_grid() -> Vec<FreeJoinOptions> {
    grid().into_iter().flat_map(|o| [o, o.with_factorized_output(false)]).collect()
}

/// The full grid on the triangle, a rotating sixth of it on the other two.
fn check_cyclic(catalog: &Catalog, pick: u64, grid: &[FreeJoinOptions]) {
    for (i, query) in cyclic_queries().iter().enumerate() {
        let configs: Vec<FreeJoinOptions> = if i == 0 {
            grid.to_vec()
        } else {
            grid.iter().copied().skip((pick as usize + i) % 6).step_by(6).collect()
        };
        check(catalog, query, pick.wrapping_mul(i as u64 + 1), &configs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn generated_cyclic_self_joins(edge in rows(2), tag in rows(2), pick in 0u64..1 << 40) {
        let catalog = catalog_of(vec![
            relation("edge", &["src", "dst"], &edge),
            relation("tag", &["node", "tag"], &tag),
        ]);
        check_cyclic(&catalog, pick, &cyclic_grid());
    }
}

#[test]
fn cyclic_shapes_over_a_hub_duplicates_and_nulls() {
    let catalog = hub_catalog(true);
    for query in &cyclic_queries() {
        let matches = oracle(&catalog, &[query])[0].cardinality();
        assert!(matches > 50, "{}: {matches} matches make a weak test", query.name);
    }
    check_cyclic(&catalog, 0x5bd1_e995, &cyclic_grid());
}

#[test]
fn cyclic_shapes_with_an_empty_relation() {
    let catalog = hub_catalog(false);
    let shared = &cyclic_queries()[2];
    assert_eq!(oracle(&catalog, &[shared])[0].cardinality(), 0);
    check(&catalog, shared, 7, &cyclic_grid());
    // The other two do not read `tag`; an empty `edge` empties them too.
    let none = catalog_of(vec![
        relation("edge", &["src", "dst"], &[]),
        relation("tag", &["node", "tag"], &[vec![1, 1]]),
    ]);
    check_cyclic(&none, 3, &cyclic_grid());
}

/// The forced-split stress over split plans: `split_threshold = 2` hands
/// every expansion of two or more entries to the scheduler, so covers that
/// would be walked row by row are forced and cut into entry ranges, and scan
/// probes race with the forcing of the nodes they scan.
#[test]
fn cyclic_shapes_under_forced_splitting() {
    let grid: Vec<FreeJoinOptions> = cyclic_grid()
        .into_iter()
        .filter(|o| o.num_threads > 1)
        .map(|o| o.with_split_threshold(2))
        .collect();
    check_cyclic(&hub_catalog(true), 0x2545_f491, &grid);
}
