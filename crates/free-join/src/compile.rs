//! Plan compilation: turning a [`FreeJoinPlan`] into the slot-addressed form
//! the executor runs.
//!
//! The executor keeps a single tuple buffer whose slots correspond to the
//! *binding order* — every query variable, in the order it is first bound by
//! the plan's nodes. Compilation resolves, once per query, everything the hot
//! loop needs:
//!
//! * for every subatom, the trie level it addresses and the tuple slots that
//!   make up its probe key;
//! * for every cover candidate, how its iterated key writes into (or must be
//!   checked against) the tuple buffer;
//! * which subatom is the last one of its input (its probe result contributes
//!   a bag-semantics multiplicity rather than a new trie position);
//! * from which node onward the remaining plan is a chain of independent
//!   expansions, which the executor emits as a Cartesian product instead of
//!   recursing per combination.
//!
//! # Dead-variable pruning
//!
//! [`compile_query`] compiles the *live* part of the query (unless
//! [`FreeJoinOptions::factorize_output`] is off). A variable that one atom
//! binds and nothing reads — no join, no self-equality, not the output, no
//! later pipeline — never reaches the plan: it is removed from the input
//! variable lists (`fj_plan::DecomposedPlan::live_input_vars`) before the
//! binary plan is converted, and the subatoms that lose every variable are
//! removed from the converted plan (`FreeJoinPlan::prune_empty_subatoms`)
//! before it is factored. Validation, GHT schemas, cover candidates, slot
//! assignment and everything at run time see only the pruned plan; the
//! binding order, the tries and the intermediates are simply shorter. Bag
//! semantics need nothing new: the rows a pruned variable told apart sit
//! below the trie node its input's last subatom reaches, and the executor
//! already multiplies that node's tuple count into the running weight. This
//! is the factorized output of Section 4.4, decided once per plan instead of
//! once per binding — and, unlike a run-time shortcut, it also removes a dead
//! variable that sits *in front of* a probe, and lets an input whose dead
//! variable kept it the only cover of its node (`movie_info_idx(itype,
//! info)`) share that role with the other side of the join.

use crate::error::{EngineError, EngineResult};
use crate::options::FreeJoinOptions;
use fj_plan::{binary2fj, factor, BinaryPlan, FreeJoinPlan, PipeInput};
use fj_query::ConjunctiveQuery;
use std::collections::HashMap;

/// What to do with one position of an iterated cover key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterAction {
    /// The key value at this position binds a new variable: write it to the
    /// given tuple slot.
    Write { key_pos: usize, slot: usize },
    /// The key value at this position re-binds an already-bound variable:
    /// skip the iteration entry unless it matches the given tuple slot.
    Check { key_pos: usize, slot: usize },
}

/// A compiled subatom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSubatom {
    /// The pipeline input this subatom belongs to.
    pub input: usize,
    /// The trie level this subatom addresses (its position among the input's
    /// subatoms in plan order).
    pub level: usize,
    /// Tuple slots forming the probe key, one per subatom variable.
    pub key_slots: Vec<usize>,
    /// Actions to apply when this subatom is iterated as the cover.
    pub iter_actions: Vec<IterAction>,
    /// Is this the input's final subatom in the plan? If so, the node
    /// reached after it carries the input's remaining multiplicity.
    pub final_for_input: bool,
}

/// A compiled plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledNode {
    /// The node's subatoms in plan order.
    pub subatoms: Vec<CompiledSubatom>,
    /// Indices (into `subatoms`) of the cover candidates — subatoms that bind
    /// every new variable of the node. Non-empty for valid plans.
    pub cover_candidates: Vec<usize>,
    /// Number of tuple slots bound before this node runs.
    pub bound_before: usize,
    /// Number of tuple slots bound after this node completes.
    pub bound_after: usize,
    /// True when this node and every following node consist of a single
    /// subatom that is final for its (distinct) input and binds only new
    /// variables — the remaining plan is then a Cartesian product of
    /// independent expansions whose size can be computed without enumeration.
    pub independent_tail: bool,
}

/// A fully compiled pipeline plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPlan {
    /// Every query variable in the order it is bound (tuple slot order).
    pub binding_order: Vec<String>,
    /// Compiled nodes, in execution order.
    pub nodes: Vec<CompiledNode>,
    /// Number of pipeline inputs.
    pub num_inputs: usize,
    /// The GHT schema of every input, as used to build its trie.
    pub schemas: Vec<Vec<Vec<String>>>,
}

/// One pipeline of a fully compiled query: where its inputs come from, the
/// (possibly factored) Free Join plan, and the slot-addressed compiled form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPipeline {
    /// The pipeline's inputs: query atoms or earlier pipelines'
    /// intermediates, in input order.
    pub inputs: Vec<PipeInput>,
    /// The Free Join plan the pipeline runs (after optional factoring).
    pub fj_plan: FreeJoinPlan,
    /// The compiled, slot-addressed plan.
    pub plan: CompiledPlan,
    /// Per input, the variables dead-variable pruning removed: the input
    /// binds them, the plan does not. An input with a non-empty list is read
    /// through a multiplicity — its last subatom's probe (or iteration) folds
    /// the number of rows the pruned variables told apart into the weight.
    pub pruned: Vec<Vec<String>>,
}

/// A whole query compiled against a binary plan: every pipeline of the
/// decomposed plan, dependency-ordered (the last pipeline produces the query
/// result). This is pure plan data — no relation contents are consulted — so
/// it is what the cross-query plan cache stores: one `CompiledQuery` per
/// normalized query shape, shared by every execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    /// Compiled pipelines in dependency order; the last one is the root.
    pub pipelines: Vec<CompiledPipeline>,
}

impl CompiledQuery {
    /// Index of the final (result-producing) pipeline.
    pub fn root_pipeline(&self) -> usize {
        self.pipelines.len() - 1
    }

    /// The query atoms pipeline `p` reads, through its own inputs and the
    /// pipelines under it, in plan order.
    pub fn atoms_under(&self, p: usize) -> Vec<usize> {
        let mut atoms = Vec::new();
        for &input in &self.pipelines[p].inputs {
            match input {
                PipeInput::Atom(i) => atoms.push(i),
                PipeInput::Intermediate(j) => atoms.extend(self.atoms_under(j)),
            }
        }
        atoms
    }
}

/// Compile every pipeline of a binary plan for a query: decompose the plan,
/// drop the variables nothing reads (see the module docs; skipped when
/// `options.factorize_output` is off), convert each pipeline to a Free Join
/// plan (factoring it according to the engine options), and compile to the
/// slot-addressed form. The caller is responsible for checking
/// `plan.covers_query(query)` first.
pub fn compile_query(
    query: &ConjunctiveQuery,
    plan: &BinaryPlan,
    options: &FreeJoinOptions,
) -> EngineResult<CompiledQuery> {
    let decomposed = plan.decompose();
    let live = options
        .factorize_output
        .then(|| decomposed.live_input_vars(query, query.aggregate.output_vars(&query.head)));
    let mut pipelines: Vec<CompiledPipeline> = Vec::with_capacity(decomposed.len());
    for p in 0..decomposed.len() {
        let input_vars = match &live {
            Some(live) => live[p].clone(),
            None => decomposed.pipeline_input_vars(query, p),
        };
        let pruned = decomposed.pipelines[p]
            .inputs
            .iter()
            .zip(&input_vars)
            .map(|(&input, kept)| {
                let bound = match input {
                    PipeInput::Atom(a) => &query.atoms[a].vars,
                    PipeInput::Intermediate(j) => &pipelines[j].plan.binding_order,
                };
                bound.iter().filter(|v| !kept.contains(v)).cloned().collect()
            })
            .collect();
        let mut fj_plan = binary2fj(&input_vars);
        if options.factorize_output {
            fj_plan.prune_empty_subatoms();
        }
        if options.optimize_plan {
            factor(&mut fj_plan);
        }
        let compiled = compile(&fj_plan, &input_vars)?;
        pipelines.push(CompiledPipeline {
            inputs: decomposed.pipelines[p].inputs.clone(),
            fj_plan,
            plan: compiled,
            pruned,
        });
    }
    Ok(CompiledQuery { pipelines })
}

/// Compile a validated Free Join plan over the given input variable lists.
pub fn compile(plan: &FreeJoinPlan, input_vars: &[Vec<String>]) -> EngineResult<CompiledPlan> {
    plan.validate(input_vars).map_err(EngineError::Plan)?;

    let num_inputs = input_vars.len();
    let schemas = plan.ght_schemas(input_vars);

    // Total number of subatoms per input, to mark final subatoms.
    let mut subatom_totals = vec![0usize; num_inputs];
    for node in &plan.nodes {
        for s in &node.subatoms {
            subatom_totals[s.input] += 1;
        }
    }

    let mut slot_of: HashMap<String, usize> = HashMap::new();
    let mut binding_order: Vec<String> = Vec::new();
    let mut seen_per_input = vec![0usize; num_inputs];
    let mut nodes = Vec::with_capacity(plan.len());

    for (k, node) in plan.nodes.iter().enumerate() {
        let bound_before = binding_order.len();
        // Assign slots to the node's new variables in the order they appear
        // across its subatoms (cover first).
        for v in node.vars() {
            if !slot_of.contains_key(&v) {
                slot_of.insert(v.clone(), binding_order.len());
                binding_order.push(v);
            }
        }
        let bound_after = binding_order.len();

        let mut subatoms = Vec::with_capacity(node.subatoms.len());
        for s in &node.subatoms {
            let level = seen_per_input[s.input];
            seen_per_input[s.input] += 1;
            let final_for_input = seen_per_input[s.input] == subatom_totals[s.input];
            let key_slots: Vec<usize> = s.vars.iter().map(|v| slot_of[v]).collect();
            let iter_actions: Vec<IterAction> = s
                .vars
                .iter()
                .enumerate()
                .map(|(key_pos, v)| {
                    let slot = slot_of[v];
                    if slot >= bound_before {
                        IterAction::Write { key_pos, slot }
                    } else {
                        IterAction::Check { key_pos, slot }
                    }
                })
                .collect();
            subatoms.push(CompiledSubatom {
                input: s.input,
                level,
                key_slots,
                iter_actions,
                final_for_input,
            });
        }

        // Cover candidates: subatoms that bind every new variable of the node.
        let cover_candidates = plan.covers(k);

        nodes.push(CompiledNode {
            subatoms,
            cover_candidates,
            bound_before,
            bound_after,
            independent_tail: false, // filled below
        });
    }

    // Mark independent tails, scanning from the back.
    let mut tail_ok = true;
    let mut seen_inputs = std::collections::BTreeSet::new();
    for k in (0..nodes.len()).rev() {
        let node = &nodes[k];
        let single_expansion = node.subatoms.len() == 1
            && node.subatoms[0].final_for_input
            && node.subatoms[0]
                .iter_actions
                .iter()
                .all(|a| matches!(a, IterAction::Write { .. }))
            && seen_inputs.insert(node.subatoms[0].input);
        tail_ok = tail_ok && single_expansion;
        nodes[k].independent_tail = tail_ok;
    }

    Ok(CompiledPlan { binding_order, nodes, num_inputs, schemas })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_pipeline, ExecCounters, Instruments};
    use crate::prep::bind_atom;
    use crate::trie::InputTrie;
    use fj_plan::{factor, fj_plan_from_var_order, PlanTree};
    use fj_query::{Aggregate, OutputBuilder, QueryBuilder};
    use fj_storage::{Catalog, RelationBuilder, Schema};
    use std::sync::Arc;

    fn vars(lists: &[&[&str]]) -> Vec<Vec<String>> {
        lists.iter().map(|l| l.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn compile_clover_binary_plan() {
        let iv = vars(&[&["x", "a"], &["x", "b"], &["x", "c"]]);
        let plan = binary2fj(&iv);
        let compiled = compile(&plan, &iv).unwrap();
        assert_eq!(compiled.binding_order, vec!["x", "a", "b", "c"]);
        assert_eq!(compiled.num_inputs, 3);
        assert_eq!(compiled.nodes.len(), 3);

        // Node 0: cover R(x,a) writes slots 0 and 1; probe S(x) keys slot 0.
        let n0 = &compiled.nodes[0];
        assert_eq!(n0.bound_before, 0);
        assert_eq!(n0.bound_after, 2);
        assert_eq!(n0.cover_candidates, vec![0]);
        assert_eq!(
            n0.subatoms[0].iter_actions,
            vec![
                IterAction::Write { key_pos: 0, slot: 0 },
                IterAction::Write { key_pos: 1, slot: 1 },
            ]
        );
        assert_eq!(n0.subatoms[1].key_slots, vec![0]);
        assert!(!n0.subatoms[1].final_for_input);

        // Node 1: cover S(b) is S's final subatom; probe T(x).
        let n1 = &compiled.nodes[1];
        assert!(n1.subatoms[0].final_for_input);
        assert_eq!(n1.subatoms[0].level, 1);
        assert_eq!(n1.subatoms[1].level, 0);
        assert!(!n1.subatoms[1].final_for_input);

        // Node 2: T(c) final, level 1.
        let n2 = &compiled.nodes[2];
        assert!(n2.subatoms[0].final_for_input);
        assert_eq!(n2.subatoms[0].level, 1);
    }

    #[test]
    fn compile_marks_independent_tail_after_factoring() {
        let iv = vars(&[&["x", "a"], &["x", "b"], &["x", "c"]]);
        let mut plan = binary2fj(&iv);
        factor(&mut plan);
        // Optimized plan: [[R(x,a), S(x), T(x)], [S(b)], [T(c)]].
        let compiled = compile(&plan, &iv).unwrap();
        assert!(!compiled.nodes[0].independent_tail);
        assert!(compiled.nodes[1].independent_tail);
        assert!(compiled.nodes[2].independent_tail);
    }

    #[test]
    fn chain_has_no_independent_tail_except_last() {
        let iv = vars(&[&["x", "y"], &["y", "z"], &["z", "u"], &["u", "v"]]);
        let plan = binary2fj(&iv);
        let compiled = compile(&plan, &iv).unwrap();
        // Every node except the last contains a probe, so only the final
        // single-subatom node is an independent tail.
        assert!(compiled.nodes[3].independent_tail);
        assert!(!compiled.nodes[2].independent_tail);
        assert!(!compiled.nodes[0].independent_tail);
    }

    #[test]
    fn compile_gj_style_plan_levels() {
        let iv = vars(&[&["x", "y"], &["y", "z"], &["z", "x"]]);
        let order: Vec<String> = ["x", "y", "z"].iter().map(|s| s.to_string()).collect();
        let plan = fj_plan_from_var_order(&order, &iv);
        let compiled = compile(&plan, &iv).unwrap();
        assert_eq!(compiled.binding_order, vec!["x", "y", "z"]);
        // Node 0 joins R(x) and T(x); both are cover candidates.
        assert_eq!(compiled.nodes[0].cover_candidates.len(), 2);
        // R's subatoms sit at levels 0 (x) and 1 (y); the y-subatom is final.
        let r_levels: Vec<(usize, bool)> = compiled
            .nodes
            .iter()
            .flat_map(|n| n.subatoms.iter())
            .filter(|s| s.input == 0)
            .map(|s| (s.level, s.final_for_input))
            .collect();
        assert_eq!(r_levels, vec![(0, false), (1, true)]);
    }

    #[test]
    fn checks_generated_for_rebinding_covers() {
        use fj_plan::{FjNode, FreeJoinPlan, Subatom};
        // Node 1's cover S(x, b) re-binds x (already bound by node 0).
        let iv = vars(&[&["x"], &["x", "b"]]);
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![Subatom::new(0, vec!["x".into()])]),
            FjNode::new(vec![Subatom::new(1, vec!["x".into(), "b".into()])]),
        ]);
        let compiled = compile(&plan, &iv).unwrap();
        assert_eq!(
            compiled.nodes[1].subatoms[0].iter_actions,
            vec![
                IterAction::Check { key_pos: 0, slot: 0 },
                IterAction::Write { key_pos: 1, slot: 1 },
            ]
        );
        // A re-binding cover is not a pure expansion, so no independent tail.
        assert!(!compiled.nodes[1].independent_tail);
    }

    #[test]
    fn compile_rejects_invalid_plans() {
        use fj_plan::{FjNode, FreeJoinPlan, Subatom};
        let iv = vars(&[&["x", "a"], &["x", "b"]]);
        let plan = FreeJoinPlan::new(vec![FjNode::new(vec![
            Subatom::new(0, vec!["x".into(), "a".into()]),
            Subatom::new(1, vec!["x".into(), "b".into()]),
        ])]);
        // Missing cover for {x, a, b}... actually subatom 0 covers {x,a} and
        // subatom 1 covers {x,b}; neither covers all new vars -> invalid.
        assert!(matches!(compile(&plan, &iv), Err(EngineError::Plan(_))));
    }

    #[test]
    fn schemas_match_plan_ght_schemas() {
        let iv = vars(&[&["x", "a"], &["x", "b"], &["x", "c"]]);
        let plan = binary2fj(&iv);
        let compiled = compile(&plan, &iv).unwrap();
        assert_eq!(compiled.schemas, plan.ght_schemas(&iv));
    }

    // ---- dead-variable pruning (`compile_query`) ----

    /// `R(x, a)`, `S(x, b)`, `T(x, c)` over `keys` join keys, `fan` rows per
    /// key and relation, plus a `U(u)` of `u_rows` rows that joins nothing.
    fn clover_catalog(keys: i64, fan: i64, u_rows: i64) -> Catalog {
        let mut cat = Catalog::new();
        for (name, col) in [("R", "a"), ("S", "b"), ("T", "c")] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&["x", col]));
            for i in 0..keys * fan {
                b.push_ints(&[i % keys, i]).unwrap();
            }
            cat.add(b.finish()).unwrap();
        }
        let mut u = RelationBuilder::new("U", Schema::all_int(&["u"]));
        for i in 0..u_rows {
            u.push_ints(&[i]).unwrap();
        }
        cat.add(u.finish()).unwrap();
        cat
    }

    fn clover(aggregate: Aggregate) -> ConjunctiveQuery {
        QueryBuilder::new("clover")
            .atom("R", &["x", "a"])
            .atom("S", &["x", "b"])
            .atom("T", &["x", "c"])
            .build()
            .with_aggregate(aggregate)
    }

    fn pruning(on: bool) -> FreeJoinOptions {
        FreeJoinOptions::default().with_factorized_output(on).with_num_threads(1)
    }

    /// Compile a left-deep plan in atom order and run its single pipeline
    /// (atoms are bound without the connectedness check of `prepare_inputs`,
    /// so Cartesian factors can be driven).
    fn run(
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        options: &FreeJoinOptions,
    ) -> (CompiledPipeline, fj_query::QueryOutput, ExecCounters) {
        let order: Vec<usize> = (0..query.num_atoms()).collect();
        let compiled = compile_query(query, &BinaryPlan::left_deep(&order), options).unwrap();
        let pipeline = compiled.pipelines.into_iter().next().unwrap();
        let tries: Vec<Arc<InputTrie>> = query
            .atoms
            .iter()
            .zip(&pipeline.plan.schemas)
            .map(|(atom, schema)| {
                let bound = bind_atom(catalog, atom).unwrap();
                Arc::new(InputTrie::build(&bound, schema.clone(), options.trie))
            })
            .collect();
        let builder =
            OutputBuilder::new(&query.head, query.aggregate.clone(), &pipeline.plan.binding_order);
        let (mut builders, counters) =
            execute_pipeline(&tries, &pipeline.plan, options, 1, builder, &Instruments::default());
        (pipeline, builders.pop().expect("one thread, one builder").finish(), counters)
    }

    #[test]
    fn pruning_compiles_only_the_variables_something_reads() {
        let cat = clover_catalog(5, 4, 0);
        let q = clover(Aggregate::Count);
        let (pruned, out, counters) = run(&cat, &q, &pruning(true));
        // a, b, c are bound once and read by nothing: one node is left, every
        // subatom probes or iterates x and folds its input's 4 rows per key.
        assert_eq!(pruned.fj_plan.to_string(), "[[#0(x), #1(x), #2(x)]]");
        assert_eq!(pruned.plan.binding_order, vec!["x"]);
        assert_eq!(pruned.pruned, vars(&[&["a"], &["b"], &["c"]]));
        assert!(pruned.plan.nodes[0].subatoms.iter().all(|s| s.final_for_input));
        assert_eq!(pruned.plan.nodes[0].cover_candidates, vec![0, 1, 2]);
        assert_eq!(out.cardinality(), 5 * 4 * 4 * 4);

        let (full, reference, full_counters) = run(&cat, &q, &pruning(false));
        assert_eq!(full.fj_plan.to_string(), "[[#0(x,a), #1(x), #2(x)], [#1(b)], [#2(c)]]");
        assert_eq!(full.plan.binding_order, vec!["x", "a", "b", "c"]);
        assert!(full.pruned.iter().all(Vec::is_empty));
        assert_eq!(reference, out);
        assert!(counters.stats.probes <= full_counters.stats.probes);
        assert!(counters.expansions < full_counters.expansions);
    }

    /// Edge (a): an atom whose every variable is dead costs one step — its
    /// row count read off the trie root — however many rows it has.
    #[test]
    fn pruning_counts_an_all_dead_atom_in_constant_time() {
        let mut product_work = Vec::new();
        for u_rows in [7, 7_000] {
            let cat = clover_catalog(5, 4, u_rows);
            // The single-atom count.
            let scan = QueryBuilder::new("scan").atom("U", &["u"]).count().build();
            let (pipeline, out, counters) = run(&cat, &scan, &pruning(true));
            assert_eq!(pipeline.fj_plan.to_string(), "[[#0()]]");
            assert!(pipeline.plan.binding_order.is_empty());
            assert_eq!(out.cardinality(), u_rows as u64);
            assert_eq!(counters.work(), (0, 0, 1), "{u_rows} rows, one expansion");

            // A Cartesian factor: U joins nothing, so it multiplies.
            let product = QueryBuilder::new("product")
                .atom("R", &["x", "a"])
                .atom("S", &["x", "b"])
                .atom("U", &["u"])
                .count()
                .build();
            let (pipeline, out, counters) = run(&cat, &product, &pruning(true));
            assert_eq!(pipeline.fj_plan.to_string(), "[[#0(x), #1(x)], [#2()]]");
            assert_eq!(out.cardinality(), 5 * 4 * 4 * u_rows as u64);
            product_work.push(counters.work());
        }
        // R's 20 rows iterated and probed, one step into U per match —
        // whether U has 7 rows or 7000.
        assert_eq!(product_work, vec![(20, 20, 40); 2]);
        // An empty all-dead atom still annihilates the result.
        let cat = clover_catalog(5, 4, 0);
        let scan = QueryBuilder::new("scan").atom("U", &["u"]).count().build();
        assert_eq!(run(&cat, &scan, &pruning(true)).1.cardinality(), 0);
    }

    /// Edge (b): a variable repeated inside one atom is a self-equality the
    /// atom itself reads. It stays in the plan — where it is rejected, as it
    /// is without pruning — instead of being pruned into a plan that ignores
    /// the equality.
    #[test]
    fn pruning_keeps_a_variable_repeated_inside_one_atom() {
        let q = QueryBuilder::new("diag").atom("R", &["x", "x"]).count().build();
        let plan = BinaryPlan::left_deep(&[0]);
        for on in [true, false] {
            assert!(
                matches!(compile_query(&q, &plan, &pruning(on)), Err(EngineError::Plan(_))),
                "pruning {on}"
            );
        }
    }

    /// Edge (c): a variable only the output reads stays live, and what comes
    /// after it in the plan is still pruned.
    #[test]
    fn pruning_keeps_output_variables_and_prunes_past_them() {
        let cat = clover_catalog(5, 4, 0);
        let by_b = clover(Aggregate::group_count(&["b"]));
        let (pipeline, out, _) = run(&cat, &by_b, &pruning(true));
        // b is enumerated; T's c, bound after it in the unpruned plan, is not.
        assert_eq!(pipeline.fj_plan.to_string(), "[[#0(x), #1(x), #2(x)], [#1(b)]]");
        assert_eq!(pipeline.plan.binding_order, vec!["x", "b"]);
        assert_eq!(pipeline.pruned, vars(&[&["a"], &[], &["c"]]));
        assert_eq!(out, run(&cat, &by_b, &pruning(false)).1);

        // The head of a materializing query, likewise (a projection).
        let mut rows = clover(Aggregate::Materialize);
        rows.head = vec!["c".to_string(), "x".to_string()];
        let (pipeline, out, _) = run(&cat, &rows, &pruning(true));
        assert_eq!(pipeline.plan.binding_order, vec!["x", "c"]);
        assert!(out.result_eq(&run(&cat, &rows, &pruning(false)).1));
        assert_eq!(out.cardinality(), 5 * 4 * 4 * 4);
    }

    /// Edge (d): in a bushy plan no intermediate carries a dead column, and
    /// the consuming pipeline addresses the intermediate by the shortened
    /// binding order it is materialized with.
    #[test]
    fn pruning_shortens_bushy_intermediates() {
        // (f1 ⋈ f2) ⋈ (person ⋈ city), as a count.
        let q = QueryBuilder::new("two_hop")
            .atom_as("follows", "f1", &["a", "b"])
            .atom_as("follows", "f2", &["b", "c"])
            .atom("person", &["c", "town"])
            .atom("city", &["town", "country"])
            .count()
            .build();
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let compiled = compile_query(&q, &bushy, &pruning(true)).unwrap();
        let [sub, root] = compiled.pipelines.as_slice() else { panic!("two pipelines") };
        // person ⋈ city: c is read by f2 later, town is the join, country
        // is dead — the intermediate is (c, town), not (c, town, country).
        assert_eq!(sub.plan.binding_order, vec!["c", "town"]);
        assert_eq!(sub.pruned, vars(&[&[], &["country"]]));
        // The final pipeline reads only c of it: town was the sub-join's key.
        assert_eq!(root.inputs[2], PipeInput::Intermediate(0));
        assert_eq!(root.pruned, vars(&[&["a"], &[], &["town"]]));
        assert_eq!(root.plan.binding_order, vec!["b", "c"]);
        // Every level of the intermediate's trie names a column it has.
        let carried = &sub.plan.binding_order;
        assert!(root.plan.schemas[2].iter().flatten().all(|v| carried.contains(v)));

        let unpruned = compile_query(&q, &bushy, &pruning(false)).unwrap();
        assert_eq!(unpruned.pipelines[0].plan.binding_order, vec!["c", "town", "country"]);
    }
}
