//! Plan-level equivalences from the paper's Section 3/4 (experiment E8 in
//! DESIGN.md): a Free Join plan converted from a binary plan and executed
//! without factorization behaves like the binary plan; the fully-factored
//! plan and the Generic-Join-shaped plan compute the same results; and the
//! factorization optimization preserves results while reducing probe work on
//! the paper's adversarial clover instance.

use freejoin::engine::compile::compile;
use freejoin::engine::exec::{execute_pipeline, Instruments};
use freejoin::engine::prepare_inputs;
use freejoin::engine::InputTrie;
use freejoin::plan::{
    binary2fj, factor, factor_until_fixpoint, fj_plan_from_var_order, variable_order, BinaryPlan,
};
use freejoin::prelude::*;
use freejoin::query::OutputBuilder;
use freejoin::workloads::micro;

/// Execute a hand-built Free Join plan over a query's atoms and return the
/// result count together with the number of probes performed.
fn run_fj_plan(
    catalog: &Catalog,
    query: &ConjunctiveQuery,
    plan: &freejoin::plan::FreeJoinPlan,
    options: &FreeJoinOptions,
) -> (u64, u64) {
    let prepared = prepare_inputs(catalog, query).unwrap();
    let input_vars: Vec<Vec<String>> = prepared.atoms.iter().map(|a| a.vars.clone()).collect();
    let compiled = compile(plan, &input_vars).unwrap();
    let tries: Vec<std::sync::Arc<InputTrie>> = prepared
        .atoms
        .iter()
        .zip(&compiled.schemas)
        .map(|(input, schema)| {
            std::sync::Arc::new(InputTrie::build(input, schema.clone(), options.trie))
        })
        .collect();
    let builder = OutputBuilder::new(&query.head, Aggregate::Count, &compiled.binding_order);
    let (mut builders, counters) =
        execute_pipeline(&tries, &compiled, options, 1, builder, &Instruments::default());
    (builders.pop().expect("one thread, one builder").finish().cardinality(), counters.stats.probes)
}

#[test]
fn unfactored_fj_plan_equals_binary_join() {
    // Free Join executing the converted-but-unoptimized plan is exactly the
    // binary hash join (Section 3.3 / Figure 8a).
    let w = micro::clover(60);
    let named = &w.queries[0];
    let plan = BinaryPlan::left_deep(&[0, 1, 2]);
    let (bj, bj_stats) = freejoin::baselines::BinaryJoinEngine::new()
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    let (fj, fj_stats) = FreeJoinEngine::new(FreeJoinOptions::binary_equivalent())
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    assert_eq!(bj.cardinality(), fj.cardinality());
    // Both walk the same nested loops, so they perform the same probes.
    assert_eq!(bj_stats.probes, fj_stats.probes);
}

#[test]
fn factored_plan_and_gj_plan_agree_with_binary_plan() {
    let w = micro::clover(50);
    let named = &w.queries[0];
    let prepared_vars: Vec<Vec<String>> =
        named.query.atoms.iter().map(|a| a.vars.clone()).collect();

    let naive = binary2fj(&prepared_vars);
    let mut factored = naive.clone();
    factor(&mut factored);
    let mut fixpoint = naive.clone();
    factor_until_fixpoint(&mut fixpoint);
    let order = variable_order(&factored, &prepared_vars);
    let gj_style = fj_plan_from_var_order(&order.var_order, &prepared_vars);

    let options = FreeJoinOptions::default();
    let (naive_count, naive_probes) = run_fj_plan(&w.catalog, &named.query, &naive, &options);
    let (factored_count, factored_probes) =
        run_fj_plan(&w.catalog, &named.query, &factored, &options);
    let (fix_count, _) = run_fj_plan(&w.catalog, &named.query, &fixpoint, &options);
    let (gj_count, _) = run_fj_plan(&w.catalog, &named.query, &gj_style, &options);

    assert_eq!(naive_count, 1);
    assert_eq!(factored_count, 1);
    assert_eq!(fix_count, 1);
    assert_eq!(gj_count, 1);
    // Factoring pulls the T(x) probe out of the quadratic loop (Section 4.1).
    assert!(
        factored_probes < naive_probes,
        "expected factoring to reduce probes: {factored_probes} vs {naive_probes}"
    );
}

#[test]
fn every_point_in_the_design_space_is_executable() {
    // Figure 1: Free Join plans cover the whole design space between binary
    // join and Generic Join. Execute several plans in between and check they
    // all give the same answer on the triangle query.
    let w = micro::skewed_triangle(120, 5, 0.9, 13);
    let named = &w.queries[0];
    let input_vars: Vec<Vec<String>> = named.query.atoms.iter().map(|a| a.vars.clone()).collect();

    let binary_style = binary2fj(&input_vars);
    let mut factored = binary_style.clone();
    factor_until_fixpoint(&mut factored);
    let order = variable_order(&binary_style, &input_vars);
    let gj_style = fj_plan_from_var_order(&order.var_order, &input_vars);

    let options = FreeJoinOptions::default();
    let (a, _) = run_fj_plan(&w.catalog, &named.query, &binary_style, &options);
    let (b, _) = run_fj_plan(&w.catalog, &named.query, &factored, &options);
    let (c, _) = run_fj_plan(&w.catalog, &named.query, &gj_style, &options);
    assert_eq!(a, b);
    assert_eq!(b, c);

    // Cross-check against the baseline engines.
    let stats = CatalogStats::collect(&w.catalog);
    let plan = optimize(&named.query, &stats, OptimizerOptions::default());
    let (reference, _) = freejoin::baselines::BinaryJoinEngine::new()
        .execute(&w.catalog, &named.query, &plan)
        .unwrap();
    assert_eq!(a, reference.cardinality());
}

#[test]
fn factorization_never_changes_results_on_job_like_queries() {
    let w = freejoin::workloads::job::workload(&freejoin::workloads::job::JobConfig::tiny());
    let stats = CatalogStats::collect(&w.catalog);
    for named in w.queries.iter().filter(|q| q.name.ends_with("a_like")) {
        let plan = optimize(&named.query, &stats, OptimizerOptions::default());
        let (unfactored, _) = FreeJoinEngine::new(FreeJoinOptions::binary_equivalent())
            .execute(&w.catalog, &named.query, &plan)
            .unwrap();
        let (factored, _) = FreeJoinEngine::new(FreeJoinOptions::default())
            .execute(&w.catalog, &named.query, &plan)
            .unwrap();
        assert_eq!(
            unfactored.cardinality(),
            factored.cardinality(),
            "factoring changed the result of {}",
            named.name
        );
    }
}

#[test]
fn ght_schemas_follow_the_build_phase_rules() {
    // Build-phase rules of Section 3.3, end-to-end on the triangle query.
    let input_vars: Vec<Vec<String>> = vec![
        vec!["x".into(), "y".into()],
        vec!["y".into(), "z".into()],
        vec!["z".into(), "x".into()],
    ];
    // The converted left-deep plan keeps R as a flat vector (no trie is ever
    // built for the left-most input), S as a one-level map of vectors, and T
    // as a map keyed on its probe key (z, x) with a trailing leaf level.
    let mut plan = binary2fj(&input_vars);
    let schemas = plan.ght_schemas(&input_vars);
    assert_eq!(schemas[0], vec![vec!["x".to_string(), "y".to_string()]]);
    assert_eq!(schemas[1], vec![vec!["y".to_string()], vec!["z".to_string()]]);
    assert_eq!(schemas[2], vec![vec!["z".to_string(), "x".to_string()], Vec::<String>::new()]);
    // Re-derived for split factoring: `factor` used to leave that plan (and
    // T's two-level schema) alone; it now splits T(z,x) into T(x) and T(z),
    // which keys T one variable at a time — the schemas of Example 3.10.
    factor(&mut plan);
    let schemas = plan.ght_schemas(&input_vars);
    assert_eq!(schemas[0], vec![vec!["x".to_string(), "y".to_string()]]);
    assert_eq!(schemas[1], vec![vec!["y".to_string()], vec!["z".to_string()]]);
    assert_eq!(
        schemas[2],
        vec![vec!["x".to_string()], vec!["z".to_string()], Vec::<String>::new()]
    );

    // The hand-written plan of Example 3.10 gives the same three-level schema
    // (its trailing level is the vector of T's remaining tuples; the factored
    // plan's is the level of the `T()` subatom `binary2fj` leaves behind).
    use freejoin::plan::{FjNode, Subatom};
    let example = freejoin::plan::FreeJoinPlan::new(vec![
        FjNode::new(vec![
            Subatom::new(0, vec!["x".into(), "y".into()]),
            Subatom::new(1, vec!["y".into()]),
            Subatom::new(2, vec!["x".into()]),
        ]),
        FjNode::new(vec![Subatom::new(1, vec!["z".into()]), Subatom::new(2, vec!["z".into()])]),
    ]);
    let schemas = example.ght_schemas(&input_vars);
    assert_eq!(schemas[0].len(), 1, "R is stored as a flat vector");
    assert_eq!(schemas[1].len(), 2, "S is a hash map of vectors");
    assert_eq!(schemas[2].len(), 3, "T is a hash map of hash maps of vectors");
    assert_eq!(schemas, plan.ght_schemas(&input_vars));
}

/// The compiled Free Join plans of the 24 JOB-like queries, under the default
/// optimizer and left-deep, as the commit before split factoring compiled
/// them (`tests/golden/job_like_plans.txt`, one `query optimizer plans` line
/// each): every probe of these acyclic plans has a single variable, so there
/// is nothing to split and the plans — with them `job_cold`, `serve_hot` and
/// `serve_churn` — are untouched.
#[test]
fn job_like_queries_compile_to_the_plans_they_had_before_split_factoring() {
    use freejoin::engine::compile_query;
    let w = freejoin::workloads::job::workload(&freejoin::workloads::job::JobConfig::tiny());
    let stats = CatalogStats::collect(&w.catalog);
    let mut compiled = String::new();
    for named in &w.queries {
        for (label, left_deep_only) in [("default", false), ("left_deep", true)] {
            let options = OptimizerOptions { left_deep_only, ..OptimizerOptions::default() };
            let plan = optimize(&named.query, &stats, options);
            let query = compile_query(&named.query, &plan, &FreeJoinOptions::default()).unwrap();
            let plans: Vec<String> =
                query.pipelines.iter().map(|p| p.fj_plan.to_string()).collect();
            compiled += &format!("{} {label} {}\n", named.name, plans.join(" ; "));
        }
    }
    assert_eq!(w.queries.len(), 24);
    assert_eq!(compiled, include_str!("golden/job_like_plans.txt"));
}

/// Random pipelines: 2-5 inputs of 1-3 distinct variables each out of five,
/// so cycles, repeated variable lists (self-joins) and arity-3 atoms all
/// occur. Input `i` takes `arities[i]` variables starting at `starts[i]`,
/// `strides[i]` apart (mod 5).
fn random_inputs(arities: &[usize], starts: &[usize], strides: &[usize]) -> Vec<Vec<String>> {
    const POOL: [&str; 5] = ["a", "b", "c", "d", "e"];
    arities
        .iter()
        .zip(starts.iter().zip(strides))
        .map(|(&arity, (&start, &stride))| {
            // Strides 1..=4 are coprime to 5: the variables are distinct.
            (0..arity).map(|k| POOL[(start + k * stride) % 5].to_string()).collect()
        })
        .collect()
}

/// What must hold of a factored plan: it is valid, it compiles, and every
/// input's GHT schema is its subatoms in plan order — a partition of the
/// input's variables — with at most one trailing empty level added.
fn assert_well_formed(plan: &freejoin::plan::FreeJoinPlan, input_vars: &[Vec<String>], ctx: &str) {
    plan.validate(input_vars)
        .unwrap_or_else(|e| panic!("{ctx}: {plan} is invalid: {e}"));
    let compiled = compile(plan, input_vars).unwrap_or_else(|e| panic!("{ctx}: {plan}: {e}"));
    let schemas = plan.ght_schemas(input_vars);
    assert_eq!(compiled.schemas, schemas);
    for (input, (schema, vars)) in schemas.iter().zip(input_vars).enumerate() {
        let subatoms = plan.subatom_vars_per_input(input_vars.len()).swap_remove(input);
        assert_eq!(schema[..subatoms.len()], subatoms[..], "{ctx}: {plan} input {input}");
        assert!(schema.len() <= subatoms.len() + 1, "{ctx}: {plan} input {input}");
        assert!(schema[subatoms.len()..].iter().all(Vec::is_empty), "{ctx}: {plan} input {input}");
        let mut keyed: Vec<&String> = schema.iter().flatten().collect();
        let mut expected: Vec<&String> = vars.iter().collect();
        keyed.sort();
        expected.sort();
        assert_eq!(keyed, expected, "{ctx}: {plan} input {input} is not partitioned");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig { cases: 256, ..Default::default() })]

    #[test]
    fn factoring_random_hypergraphs_keeps_plans_well_formed(
        arities in proptest::collection::vec(1usize..4, 2..6),
        starts in proptest::collection::vec(0usize..5, 5),
        strides in proptest::collection::vec(1usize..5, 5),
        prune in 0usize..2,
    ) {
        let input_vars = random_inputs(&arities, &starts, &strides);
        let mut plan = binary2fj(&input_vars);
        if prune == 1 {
            plan.prune_empty_subatoms();
        }
        let ctx = format!("{input_vars:?} prune {prune}");
        assert_well_formed(&plan, &input_vars, &ctx);
        let bound_by_the_plan = plan.all_vars();

        let mut once = plan.clone();
        let moved = factor(&mut once);
        assert_well_formed(&once, &input_vars, &format!("{ctx}, one pass"));
        assert_eq!(moved == 0, once == plan, "{ctx}: `factor` reports what it changed");

        let mut fixpoint = plan.clone();
        factor_until_fixpoint(&mut fixpoint);
        assert_well_formed(&fixpoint, &input_vars, &format!("{ctx}, fixpoint"));
        assert_eq!(factor(&mut fixpoint.clone()), 0, "{ctx}: {fixpoint} is a fixpoint");
        // Factoring moves subatoms between nodes; it binds nothing new and
        // never reorders the nodes' own variables.
        assert_eq!(once.all_vars(), bound_by_the_plan);
        assert_eq!(fixpoint.all_vars(), bound_by_the_plan);
    }
}
