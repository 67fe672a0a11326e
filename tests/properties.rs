//! Property-based tests: on randomly generated databases, every engine and
//! every Free Join configuration must agree with a brute-force nested-loop
//! evaluation of the conjunctive query, and plan transformations must
//! preserve validity.

use freejoin::baselines::{BinaryJoinEngine, GenericJoinEngine};
use freejoin::plan::{binary2fj, factor_until_fixpoint, optimize, CatalogStats, OptimizerOptions};
use freejoin::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Build a relation from generated rows.
fn relation(name: &str, cols: &[&str], rows: &[Vec<i64>]) -> Relation {
    let mut b = RelationBuilder::new(name, Schema::all_int(cols));
    for row in rows {
        b.push_ints(row).unwrap();
    }
    b.finish()
}

/// Brute-force evaluation of a conjunctive query under bag semantics:
/// enumerate every combination of one row per atom and keep those whose
/// shared variables agree. Returns the number of result tuples.
fn brute_force_count(catalog: &Catalog, query: &ConjunctiveQuery) -> u64 {
    fn recurse(
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        atom_idx: usize,
        binding: &mut HashMap<String, Value>,
    ) -> u64 {
        if atom_idx == query.atoms.len() {
            return 1;
        }
        let atom = &query.atoms[atom_idx];
        let rel = catalog.get(&atom.relation).unwrap();
        let mut count = 0;
        for row in 0..rel.num_rows() {
            if atom.has_filter() && !atom.filter.eval(&rel, row) {
                continue;
            }
            let values = rel.row(row);
            let mut consistent = true;
            let mut added: Vec<String> = Vec::new();
            for (pos, var) in atom.vars.iter().enumerate() {
                match binding.get(var) {
                    Some(v) if *v != values[pos] => {
                        consistent = false;
                        break;
                    }
                    Some(_) => {}
                    None => {
                        binding.insert(var.clone(), values[pos]);
                        added.push(var.clone());
                    }
                }
            }
            if consistent {
                count += recurse(catalog, query, atom_idx + 1, binding);
            }
            for var in added {
                binding.remove(&var);
            }
        }
        count
    }
    recurse(catalog, query, 0, &mut HashMap::new())
}

/// Run one query through every engine and compare against brute force.
fn check_all_engines(catalog: &Catalog, query: &ConjunctiveQuery) {
    let expected = brute_force_count(catalog, query);
    let stats = CatalogStats::collect(catalog);
    let plan = optimize(query, &stats, OptimizerOptions::default());

    let (bj, _) = BinaryJoinEngine::new().execute(catalog, query, &plan).unwrap();
    prop_assert_eq_outer(bj.cardinality(), expected, "binary join");
    let (gj, _) = GenericJoinEngine::new().execute(catalog, query, &plan).unwrap();
    prop_assert_eq_outer(gj.cardinality(), expected, "generic join");

    for options in [
        FreeJoinOptions::default(),
        FreeJoinOptions { trie: TrieStrategy::Simple, ..FreeJoinOptions::default() },
        FreeJoinOptions { trie: TrieStrategy::Slt, ..FreeJoinOptions::default() },
        FreeJoinOptions::default().with_factorized_output(false),
        FreeJoinOptions { trie: TrieStrategy::Simple, ..FreeJoinOptions::default() }
            .with_factorized_output(false)
            .with_num_threads(1),
    ] {
        let (fj, _) = FreeJoinEngine::new(options).execute(catalog, query, &plan).unwrap();
        prop_assert_eq_outer(fj.cardinality(), expected, &format!("free join {options:?}"));
    }
}

/// A plain assert (proptest's macros only work directly inside proptest!
/// blocks; panicking is equivalent for failure reporting).
fn prop_assert_eq_outer(actual: u64, expected: u64, label: &str) {
    assert_eq!(actual, expected, "{label} disagrees with brute force");
}

/// Strategy: a small binary relation as a row list over a tiny value domain
/// (small domains maximize the chance of joins actually matching).
fn rows(max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..6, 2), 0..max_rows)
}

fn rows3(max_rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..5, 3), 0..max_rows)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn triangle_query_matches_brute_force(r in rows(18), s in rows(18), t in rows(18)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["a", "b"], &r)).unwrap();
        catalog.add(relation("S", &["a", "b"], &s)).unwrap();
        catalog.add(relation("T", &["a", "b"], &t)).unwrap();
        let query = QueryBuilder::new("tri")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .count()
            .build();
        check_all_engines(&catalog, &query);
    }

    #[test]
    fn clover_query_matches_brute_force(r in rows(15), s in rows(15), t in rows(15)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["x", "a"], &r)).unwrap();
        catalog.add(relation("S", &["x", "b"], &s)).unwrap();
        catalog.add(relation("T", &["x", "c"], &t)).unwrap();
        let query = QueryBuilder::new("clover")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .count()
            .build();
        check_all_engines(&catalog, &query);
    }

    #[test]
    fn chain_query_matches_brute_force(r in rows(20), s in rows(20), t in rows(20), u in rows(20)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["a", "b"], &r)).unwrap();
        catalog.add(relation("S", &["a", "b"], &s)).unwrap();
        catalog.add(relation("T", &["a", "b"], &t)).unwrap();
        catalog.add(relation("U", &["a", "b"], &u)).unwrap();
        let query = QueryBuilder::new("chain")
            .atom("R", &["v0", "v1"])
            .atom("S", &["v1", "v2"])
            .atom("T", &["v2", "v3"])
            .atom("U", &["v3", "v4"])
            .count()
            .build();
        check_all_engines(&catalog, &query);
    }

    #[test]
    fn filtered_query_matches_brute_force(m in rows3(25), r in rows(20)) {
        // The paper's Example 2.1: filters pushed onto base tables.
        let mut catalog = Catalog::new();
        catalog.add(relation("M", &["u", "v", "w"], &m)).unwrap();
        catalog.add(relation("R", &["x", "y"], &r)).unwrap();
        let query = QueryBuilder::new("filtered")
            .atom("R", &["x", "y"])
            .atom_as_where("M", "s", &["y", "z", "w1"], Predicate::cmp_const("w", freejoin::storage::CmpOp::Gt, 2i64))
            .atom_as_where("M", "t", &["z", "x", "w2"], Predicate::cmp_cols("v", freejoin::storage::CmpOp::Eq, "w"))
            .count()
            .build();
        check_all_engines(&catalog, &query);
    }

    #[test]
    fn self_join_matches_brute_force(e in rows(20)) {
        let mut catalog = Catalog::new();
        catalog.add(relation("E", &["s", "d"], &e)).unwrap();
        let query = QueryBuilder::new("two_hop")
            .atom_as("E", "e1", &["a", "b"])
            .atom_as("E", "e2", &["b", "c"])
            .count()
            .build();
        check_all_engines(&catalog, &query);
    }

    // Robustness: a run that dies mid-flight (explicit cancel, expired
    // deadline, or a 1-byte result budget) must leave no mark on shared
    // state — the same `Prepared` afterwards re-executes byte-identical to
    // a session that never saw a cancellation, across every trie strategy,
    // thread count, and steal setting.
    #[test]
    fn cancelled_runs_never_corrupt_shared_state(r in rows(14), s in rows(14), t in rows(14)) {
        use freejoin::engine::EngineError;
        use freejoin::query::QueryError;
        use std::sync::Arc;
        use std::time::Duration;

        let mut catalog = Catalog::new();
        catalog.add(relation("R", &["a", "b"], &r)).unwrap();
        catalog.add(relation("S", &["a", "b"], &s)).unwrap();
        catalog.add(relation("T", &["a", "b"], &t)).unwrap();
        // Materialized rows, not a count: the comparison surface is the
        // canonical row bytes, so any corruption of cached tries or plans
        // shows up as more than an off-by-one.
        let query = QueryBuilder::new("tri")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .build();

        for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            for threads in [1usize, 4] {
                let options =
                    FreeJoinOptions { trie, ..FreeJoinOptions::default() }.with_num_threads(threads);
                let plain = ExecRequest::default();
                let untouched =
                    Session::new(Arc::new(EngineCaches::with_defaults())).with_options(options);
                let baseline = untouched.prepare(&catalog, &query).unwrap();
                let baseline = baseline.execute(&catalog, &plain).unwrap().output;
                let baseline_bytes = format!("{:?}", baseline.canonical_rows());

                let session =
                    Session::new(Arc::new(EngineCaches::with_defaults())).with_options(options);
                let prepared = session.prepare(&catalog, &query).unwrap();
                let pre_cancelled = CancelToken::new();
                pre_cancelled.cancel(CancelReason::Explicit);
                let doomed = [
                    pre_cancelled,
                    CancelToken::with_deadline(Duration::ZERO),
                    CancelToken::with_limits(None, 1),
                ];
                for token in doomed {
                    match prepared.execute(&catalog, &ExecRequest { token, ..plain.clone() }) {
                        Err(EngineError::Query(QueryError::Cancelled { .. })) => {}
                        // An empty join can finish before the first
                        // cooperative check; completing with the right
                        // answer is also "uncorrupted".
                        Ok(report) => {
                            prop_assert_eq!(
                                format!("{:?}", report.output.canonical_rows()),
                                baseline_bytes.clone()
                            );
                        }
                        Err(other) => prop_assert!(false, "unexpected error: {other}"),
                    }
                }
                // The surviving Prepared re-executes byte-identical —
                // twice, so the first post-cancel run did not poison the
                // caches for the second either.
                for _ in 0..2 {
                    let out = prepared.execute(&catalog, &plain).unwrap().output;
                    prop_assert_eq!(
                        format!("{:?}", out.canonical_rows()),
                        baseline_bytes.clone()
                    );
                }
            }
        }
    }

    #[test]
    fn factoring_preserves_validity_on_random_schemas(
        arities in prop::collection::vec(1usize..4, 2..6),
        seed in 0u64..1000,
    ) {
        // Build random input variable lists over a small variable pool and
        // check that binary2fj output is valid and stays valid after
        // factoring to a fixpoint.
        let pool = ["a", "b", "c", "d", "e"];
        let mut vars: Vec<Vec<String>> = Vec::new();
        let mut x = seed;
        for (i, &arity) in arities.iter().enumerate() {
            let mut vs: Vec<String> = Vec::new();
            for k in 0..arity {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let candidate = pool[((x >> 33) as usize + i + k) % pool.len()].to_string();
                if !vs.contains(&candidate) {
                    vs.push(candidate);
                }
            }
            vars.push(vs);
        }
        let plan = binary2fj(&vars);
        prop_assert!(plan.validate(&vars).is_ok());
        let mut factored = plan.clone();
        factor_until_fixpoint(&mut factored);
        prop_assert!(factored.validate(&vars).is_ok());
        // Factoring never changes the set of (input, variable) pairs.
        let collect = |p: &freejoin::plan::FreeJoinPlan| {
            let mut pairs: Vec<(usize, String)> = p
                .nodes
                .iter()
                .flat_map(|n| n.subatoms.iter())
                .flat_map(|s| s.vars.iter().map(move |v| (s.input, v.clone())))
                .collect();
            pairs.sort();
            pairs
        };
        prop_assert_eq!(collect(&plan), collect(&factored));
    }
}

/// A variable that joins an `Int64` column with a `Str` column: the values
/// carry different types, so no pair of rows agrees on it — although every
/// integer of `R.x` is also a dictionary id of `S.x`, which a trie level
/// keyed by the bare 64-bit payload would match. `NULL`, which has no type,
/// still meets `NULL` (the README's natural-join-on-equality semantics).
/// Free Join under every trie strategy, the binary join, Generic Join and
/// the brute-force oracle agree, whichever side is the larger (probing) one
/// and whether the probed level is scanned (few rows) or indexed.
#[test]
fn mixed_type_join_variable_matches_nothing_but_null() {
    use freejoin::storage::Field;

    let build = |name: &str, x: Field, n: u32, nulls: u32| {
        let mut b = RelationBuilder::new(name, Schema::new(vec![x.clone(), Field::int("p")]));
        for i in 0..n {
            let key = match x.data_type {
                freejoin::storage::DataType::Int64 => Value::Int(i64::from(i % 12)),
                freejoin::storage::DataType::Str => Value::Str(i % 12),
            };
            b.push_row(vec![key, Value::Int(i64::from(i))]).unwrap();
        }
        for i in 0..nulls {
            b.push_row(vec![Value::Null, Value::Int(i64::from(i))]).unwrap();
        }
        b.finish()
    };
    for (r_rows, s_rows) in [(60, 8), (8, 60), (60, 60)] {
        for nulls in [0, 2] {
            let mut catalog = Catalog::new();
            catalog.add(build("R", Field::int("x"), r_rows, nulls)).unwrap();
            catalog.add(build("S", Field::str("x"), s_rows, nulls)).unwrap();
            let query = QueryBuilder::new("mixed")
                .atom("R", &["x", "a"])
                .atom("S", &["x", "b"])
                .count()
                .build();
            assert_eq!(brute_force_count(&catalog, &query), u64::from(nulls * nulls));
            check_all_engines(&catalog, &query);
        }
    }
}
