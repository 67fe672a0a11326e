//! Differential test of constant propagation (`fj_query::propagate_constants`,
//! which only the `Session` path applies): a `Session` answers like
//! `FreeJoinEngine` under every trie strategy on the query *as written*, like
//! the binary hash join and Generic Join baselines, and like a brute-force
//! nested-loop evaluation — for a count, a group-count and materialized rows,
//! at 1, 2 and `FJ_TEST_THREADS` threads — whether the equality constant on a
//! join column comes (a) in the query text, (b) as a `Params` override, (c)
//! on two atoms at once, (d) next to a range, (e) under `or` / `not` (nothing
//! may be derived), (f) on a column no other atom shares, (g) as a string
//! literal, (h) as `= NULL`, (i) with the other type than the second atom's
//! column, or (j) in a self-join. A bushy plan's cached intermediate is keyed
//! on the filters the rewrite derived (last test).
//!
//! Inputs are the generated relations of `tests/dead_var_pruning.rs`
//! (duplicate rows, NULL keys, empty relations) under an acyclic and a cyclic
//! shape, its hub catalog, and a catalog with string and mixed-type keys.
//! The last section counts work on the JOB-like catalog: what the rewrite is
//! for.

mod common;

use common::{
    catalog_of, chain_query, chain_relations, chain_shape, cyclic_queries, hub_catalog, oracle,
    relation, rows, thread_counts,
};
use freejoin::prelude::*;
use freejoin::storage::{CmpOp, Field};
use freejoin::workloads::job::{self, JobConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// The query with each `(alias, filter)` override applied: what a request
/// with those `Params` means.
fn with_overrides(query: &ConjunctiveQuery, overrides: &[(&str, Predicate)]) -> ConjunctiveQuery {
    let mut query = query.clone();
    for (alias, filter) in overrides {
        query.atoms.iter_mut().find(|a| a.alias == *alias).unwrap().filter = filter.clone();
    }
    query
}

/// Count, group-count over the first join variable, and every row.
fn aggregates(query: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let vars = query.variables();
    let join_var = vars.iter().find(|v| query.atoms_with_var(v).len() >= 2).unwrap();
    [Aggregate::Count, Aggregate::GroupCount(vec![join_var.clone()]), Aggregate::Materialize]
        .into_iter()
        .map(|aggregate| query.clone().with_aggregate(aggregate))
        .collect()
}

/// One case: `query` executed with `overrides`, which must derive `derived`
/// conjuncts.
fn check(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    overrides: &[(&str, Predicate)],
    derived: usize,
) {
    let ctx = format!("{query} with {overrides:?}");
    let params = overrides
        .iter()
        .fold(Params::new(), |p, (alias, filter)| p.with_filter(*alias, filter.clone()));
    let written: Vec<ConjunctiveQuery> = aggregates(&with_overrides(query, overrides));
    let expected = oracle(catalog, &written.iter().collect::<Vec<_>>());
    let stats = CatalogStats::collect(catalog);
    for ((prepared, written), expected) in aggregates(query).iter().zip(&written).zip(&expected) {
        let ctx = format!("{ctx}, {:?}", written.aggregate);
        let plan = optimize(written, &stats, OptimizerOptions::default());
        let (binary, _) = BinaryJoinEngine::new().execute(catalog, written, &plan).unwrap();
        assert!(binary.result_eq(expected), "{ctx}: binary join vs oracle");
        let (generic, _) = GenericJoinEngine::new().execute(catalog, written, &plan).unwrap();
        assert!(generic.result_eq(expected), "{ctx}: Generic Join vs oracle");
        for trie in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            for threads in thread_counts() {
                let options = FreeJoinOptions::default().with_trie(trie).with_num_threads(threads);
                let ctx = format!("{ctx}, {trie:?} x {threads}");
                let (engine, _) =
                    FreeJoinEngine::new(options).execute(catalog, written, &plan).unwrap();
                assert!(engine.result_eq(expected), "{ctx}: engine on the query as written");

                let session =
                    Session::new(Arc::new(EngineCaches::with_defaults())).with_options(options);
                let prepared = session.prepare(catalog, prepared).unwrap();
                let request = ExecRequest { params: params.clone(), ..ExecRequest::default() };
                let profiled = ExecRequest { profile: true, ..request.clone() };
                let ExecReport { output: cold, profile, .. } =
                    prepared.execute(catalog, &profiled).unwrap();
                let profile = profile.expect("the request asked for a profile");
                assert!(
                    cold.result_eq(expected),
                    "{ctx}: session: {} tuples, expected {}\n{}",
                    cold.cardinality(),
                    expected.cardinality(),
                    profile.render()
                );
                assert_eq!(profile.derived.len(), derived, "{ctx}: {:?}", profile.derived);
                // Every input, derived ones included, is cached under a key
                // the same request finds again.
                let misses = session.cache_stats().tries.misses;
                let warm = prepared.execute(catalog, &request).unwrap().output;
                assert!(warm.result_eq(expected), "{ctx}: warm session");
                assert_eq!(session.cache_stats().tries.misses, misses, "{ctx}");
            }
        }
    }
}

fn clover() -> ConjunctiveQuery {
    QueryBuilder::new("clover")
        .atom("R", &["x", "a"])
        .atom("S", &["x", "b"])
        .atom("T", &["x", "c"])
        .build()
}

fn eq(column: &str, value: i64) -> Predicate {
    Predicate::eq_const(column, value)
}

/// Cases (a)-(f) and (h) over the clover `R(x,a), S(x,b), T(x,c)`.
fn check_clover(catalog: &Catalog) {
    let q = clover();
    // (a) in the text, (b) the same constant as an override.
    check(catalog, &with_overrides(&q, &[("R", eq("x", 1))]), &[], 2);
    check(catalog, &q, &[("R", eq("x", 1))], 2);
    // An override replaces the constant the plan was prepared with.
    check(catalog, &with_overrides(&q, &[("R", eq("x", 1))]), &[("R", eq("x", 2))], 2);
    check(catalog, &with_overrides(&q, &[("R", eq("x", 1))]), &[("R", Predicate::True)], 0);
    // (c) two atoms at once: agreeing (T hears it once), then disagreeing.
    check(catalog, &q, &[("R", eq("x", 1)), ("S", eq("x", 1))], 1);
    check(catalog, &q, &[("R", eq("x", 1)), ("S", eq("x", 2))], 4);
    // (d) next to a range; the range stays where it is.
    let ranged = eq("x", 1).and(Predicate::cmp_const("a", CmpOp::Gt, 0i64));
    check(catalog, &q, &[("R", ranged)], 2);
    // (e) under `or` / `not`, and other comparisons: nothing follows.
    let either = Predicate::Or(vec![eq("x", 1), eq("x", 2)]);
    check(catalog, &q, &[("R", either.clone())], 0);
    check(catalog, &q, &[("R", Predicate::Not(Box::new(eq("x", 1))))], 0);
    check(catalog, &q, &[("R", Predicate::cmp_const("x", CmpOp::Ge, 1i64))], 0);
    check(catalog, &q, &[("R", either.and(eq("x", 2)))], 2);
    // (f) a column no other atom shares.
    check(catalog, &q, &[("R", eq("a", 1))], 0);
    // (h) `= NULL` passes no row, here or there; `is null` is not a constant.
    check(catalog, &q, &[("R", Predicate::eq_const("x", Value::Null))], 2);
    check(catalog, &q, &[("R", Predicate::IsNull { column: "x".into() })], 0);
}

/// Case (j): the cyclic self-joins, a constant on each end of the first edge.
fn check_cyclic(catalog: &Catalog, key: i64) {
    for query in &cyclic_queries() {
        // `e0(x, y)`: `src` reaches the atom closing the cycle, `dst` the next.
        let shares = |var: &str| query.atoms_with_var(var).len() - 1;
        let (src, dst) = (&query.atoms[0].vars[0], &query.atoms[0].vars[1]);
        check(catalog, query, &[("e0", eq("src", key))], shares(src));
        check(catalog, &with_overrides(query, &[("e0", eq("dst", key))]), &[], shares(dst));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn generated_clover(r in rows(2), s in rows(2), t in rows(2)) {
        check_clover(&catalog_of(vec![
            relation("R", &["x", "a"], &r),
            relation("S", &["x", "b"], &s),
            relation("T", &["x", "c"], &t),
        ]));
    }

    #[test]
    fn generated_cyclic_self_joins(edge in rows(2), tag in rows(2), key in 0i64..5) {
        let catalog = catalog_of(vec![
            relation("edge", &["src", "dst"], &edge),
            relation("tag", &["node", "tag"], &tag),
        ]);
        check_cyclic(&catalog, key);
    }
}

#[test]
fn clover_with_duplicates_nulls_and_an_empty_relation() {
    let full = vec![vec![1, 2], vec![1, 2], vec![1, 0], vec![2, 1], vec![5, 1], vec![5, 5]];
    for empty in ["none", "R", "T"] {
        let table = |name: &str, col: &str| {
            relation(name, &["x", col], if name == empty { &[] } else { &full })
        };
        check_clover(&catalog_of(vec![table("R", "a"), table("S", "b"), table("T", "c")]));
    }
}

/// The hub key's adjacency lists are above the scan bound, the others within
/// it; `tag` may be empty.
#[test]
fn cyclic_shapes_over_the_hub_catalog() {
    for key in [0, 3] {
        check_cyclic(&hub_catalog(true), key);
    }
    check_cyclic(&hub_catalog(false), 0);
}

/// Cases (g) and (i): `P(name: Str, v)`, `Q(name: Str, w)` and `N(name:
/// Int, u)` joined on `name`. Strings meet strings, never integers; NULLs
/// meet NULLs whatever the column type.
#[test]
fn string_literals_and_mixed_type_keys() {
    let mut catalog = Catalog::new();
    let names: Vec<Value> = ["ann", "bob", "cy"].iter().map(|n| catalog.intern(n)).collect();
    let mut add = |name: &str, key: Field, other: &str, keys: &[Value]| {
        let mut b = RelationBuilder::new(name, Schema::new(vec![key, Field::int(other)]));
        for (i, k) in keys.iter().enumerate() {
            b.push_row(vec![*k, Value::Int(i as i64 % 3)]).unwrap();
        }
        catalog.add(b.finish()).unwrap();
    };
    let (ann, bob, cy) = (names[0], names[1], names[2]);
    add("P", Field::str("name"), "v", &[ann, bob, bob, Value::Null, cy]);
    add("Q", Field::str("name"), "w", &[bob, bob, ann, Value::Null, Value::Null]);
    // `bob` is interned as id 1: the integer 1 must not meet it.
    add("N", Field::int("name"), "u", &[Value::Int(1), Value::Int(1), Value::Int(0), Value::Null]);

    let strings = QueryBuilder::new("strings")
        .atom("P", &["n", "v"])
        .atom("Q", &["n", "w"])
        .build();
    // (g) a literal in the dictionary, one that is not, and an interned id.
    check(&catalog, &strings, &[("P", Predicate::eq_str("name", "bob"))], 1);
    check(&catalog, &with_overrides(&strings, &[("Q", Predicate::eq_str("name", "ann"))]), &[], 1);
    check(&catalog, &strings, &[("P", Predicate::eq_str("name", "nobody"))], 1);
    check(&catalog, &strings, &[("Q", Predicate::eq_const("name", bob))], 1);
    let ne = Predicate::ColCmpStr { column: "name".into(), op: CmpOp::Ne, text: "bob".into() };
    check(&catalog, &strings, &[("P", ne)], 0);

    // (i) the constant has the type of its own column, not of the other's.
    let mixed = QueryBuilder::new("mixed").atom("P", &["n", "v"]).atom("N", &["n", "u"]).build();
    assert_eq!(oracle(&catalog, &[&mixed])[0].cardinality(), 1, "NULL meets NULL, nothing else");
    check(&catalog, &mixed, &[("P", Predicate::eq_str("name", "bob"))], 1);
    check(&catalog, &mixed, &[("N", eq("name", 1))], 1);
    check(&catalog, &mixed, &[("N", Predicate::eq_const("name", bob))], 1);
    check(&catalog, &mixed, &[("N", Predicate::eq_const("name", Value::Null))], 1);
}

// ---- work counts on the JOB-like catalog ----

/// The prepared shapes of the benchmark's `serve_hot` workload, each a join
/// of `title` with two to five other tables; every request overrides `title`
/// with `id = K`.
const SERVE_SHAPES: [&str; 5] = ["q1a_like", "q3a_like", "q4a_like", "q8a_like", "q17a_like"];

/// A point request touches the rows of its key: a handful of probes and
/// expansions for a median movie, and for the hottest movie (`id = 0`,
/// 1,650-3,300 rows of each fact table) no more than the prepared plan makes
/// without the override. Before constants followed their variable the probes
/// alone were 15,001-55,723 on this catalog whatever the key — every row of
/// each fact table was looked up in the one-row `title` trie — which is what
/// the engine still does on the request as written. Counts the program
/// makes, exact and repeatable.
#[test]
fn a_point_request_touches_the_rows_of_its_key() {
    // The benchmark's catalog (`bench/src/sut.rs`).
    let config = JobConfig { movies: 5_000, people: 10_000, ..JobConfig::benchmark() };
    let workload = job::workload(&config);
    let catalog = &workload.catalog;
    let stats = CatalogStats::collect(catalog);
    let options = FreeJoinOptions::default().with_num_threads(1);
    let work = |profile: &QueryProfile| {
        let nodes = profile.pipelines.iter().flat_map(|p| &p.nodes);
        nodes.map(|n| n.probes + n.expansions).sum::<u64>()
    };
    for name in SERVE_SHAPES {
        let query = &workload.queries.iter().find(|q| q.name == name).unwrap().query;
        let shape_plan = optimize(query, &stats, OptimizerOptions::default());
        let session = Session::new(Arc::new(EngineCaches::with_defaults())).with_options(options);
        let prepared = session.prepare(catalog, query).unwrap();
        let profiled = |params: Params| {
            let request = ExecRequest { params, profile: true, ..ExecRequest::default() };
            let report = prepared.execute(catalog, &request).unwrap();
            (report.output, report.stats, report.profile.expect("asked for"))
        };
        let (_, _, whole) = profiled(Params::new());
        for (key, bound) in [(2_500, 64), (0, work(&whole))] {
            let ctx = format!("{name} where title.id = {key}");
            let params = Params::new().with_filter("title", eq("id", key));
            let written = with_overrides(query, &[("title", eq("id", key))]);
            let (expected, as_written) =
                FreeJoinEngine::new(options).execute(catalog, &written, &shape_plan).unwrap();
            let (out, stats, profile) = profiled(params.clone());
            assert!(out.result_eq(&expected), "{ctx}");
            assert!(
                work(&profile) <= bound,
                "{ctx}: {} > {bound}\n{}",
                work(&profile),
                profile.render()
            );
            assert!(stats.probes <= as_written.probes, "{ctx}: {stats} vs {as_written}");
            // Every derived input is cached, and so is the intermediate of
            // a bushy plan: the same request fetches them all, runs no
            // pipeline under the final one and, for the median key, builds
            // nothing. (On the hottest key's larger tries a warm run may
            // lazily force a level the cold run never probed.)
            let misses = session.cache_stats().tries.misses;
            let ExecReport { output: again, stats: warm, .. } = prepared
                .execute(catalog, &ExecRequest { params, ..ExecRequest::default() })
                .unwrap();
            assert!(again.result_eq(&expected), "{ctx}");
            assert_eq!(session.cache_stats().tries.misses, misses, "{ctx}");
            assert_eq!(warm.intermediate_tuples, 0, "{ctx}: {warm}");
            assert!(warm.tries_built == 0 || key == 0, "{ctx}: {warm}");
        }
    }
}

/// A relation replaced after `prepare` by one with its columns in another
/// order: the prepared rewrite named columns of the old schema, so an
/// execution without overrides derives its filters again.
#[test]
fn a_replaced_schema_is_read_again() {
    let mut catalog = catalog_of(vec![
        relation("R", &["x", "a"], &[vec![1, 2], vec![2, 1], vec![2, 2]]),
        relation("S", &["x", "b"], &[vec![1, 2], vec![2, 1], vec![2, 3]]),
    ]);
    let query = QueryBuilder::new("q")
        .atom_where("R", &["x", "a"], eq("x", 2))
        .atom("S", &["x", "b"])
        .count()
        .build();
    let session = Session::new(Arc::new(EngineCaches::with_defaults()));
    let prepared = session.prepare(&catalog, &query).unwrap();
    let plain = ExecRequest::default();
    assert_eq!(prepared.execute(&catalog, &plain).unwrap().output.cardinality(), 4);
    // `S(b, x)`: the atom's first variable, `x`, is now bound to column `b`.
    catalog.add_or_replace(relation("S", &["b", "x"], &[vec![1, 2], vec![2, 1], vec![2, 3]]));
    let expected = oracle(&catalog, &[&query]).remove(0);
    assert_eq!(expected.cardinality(), 4, "two S rows have b = 2");
    let report = prepared.execute(&catalog, &ExecRequest { profile: true, ..plain }).unwrap();
    let (out, profile) = (report.output, report.profile.expect("asked for"));
    assert!(out.result_eq(&expected), "{}", profile.render());
    assert_eq!(profile.derived, ["S.b = 2 <- R.x"]);
}

/// A cached intermediate is keyed on the *derived* filters of the atoms
/// under its pipeline. The chain `A(a,b), B(b,c), C(c,d), D(d,e)` is joined
/// as two pairs; an equality override on `c` in the pair the final pipeline
/// reads becomes a filter on the other pair's `c` column, so each constant
/// has its own intermediate although the overridden atom is not under the
/// pipeline — keyed on the request as written, the second constant would be
/// answered from the first one's rows.
#[test]
fn a_cached_intermediate_is_keyed_on_its_derived_filters() {
    let catalog = catalog_of(chain_relations(1));
    let query = chain_query(&["a", "e"]);
    // The side of `c` the final pipeline reads itself.
    let (under, _) = chain_shape(&catalog);
    let (alias, column, derived) =
        if under.contains(&"C") { ("B", "dst", "C.src") } else { ("C", "src", "B.dst") };
    let caches = Arc::new(EngineCaches::with_defaults());
    let options = FreeJoinOptions::default().with_num_threads(1);
    let session = Session::new(Arc::clone(&caches)).with_options(options);
    let prepared = session.prepare(&catalog, &query).unwrap();
    let run = |params: Params| {
        let request = ExecRequest { params, profile: true, ..ExecRequest::default() };
        let report = prepared.execute(&catalog, &request).unwrap();
        (report.output, report.profile.expect("asked for"))
    };
    run(Params::new());
    let pipes = || (caches.stats().pipe_misses, caches.stats().pipe_hits);
    assert_eq!(pipes(), (1, 0));
    for (round, expected_pipes) in [(0, [(2, 0), (3, 0)]), (1, [(3, 1), (3, 2)])] {
        for (key, expected_pipes) in [3i64, 4].into_iter().zip(expected_pipes) {
            let ctx = format!("{alias}.{column} = {key}, round {round}");
            let written = with_overrides(&query, &[(alias, eq(column, key))]);
            let expected = oracle(&catalog, &[&written]).remove(0);
            let (out, profile) = run(Params::new().with_filter(alias, eq(column, key)));
            assert!(out.result_eq(&expected), "{ctx}\n{}", profile.render());
            assert_eq!(profile.derived, [format!("{derived} = {key} <- {alias}.{column}")]);
            assert_eq!(pipes(), expected_pipes, "{ctx}");
        }
    }
}
