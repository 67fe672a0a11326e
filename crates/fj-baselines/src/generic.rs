//! The Generic Join baseline.
//!
//! A textbook implementation of Generic Join (Section 2.3): build a full hash
//! trie for every input relation, then run one nested loop per variable. Each
//! loop intersects the tries of the relations containing that variable by
//! iterating the trie with the fewest keys and probing the others — the
//! provably optimal intersection strategy.
//!
//! Mirroring the paper's experimental setup, the variable order is the one a
//! Free Join plan would use: the binary plan is converted with `binary2fj`,
//! factored, and the order in which variables are first bound is taken as the
//! Generic Join plan. Bushy binary plans are handled the same way as in the
//! other engines, by materializing each right-child pipeline.

use crate::trie::{HashTrie, TrieLevel};
use fj_plan::{binary2fj, factor_until_fixpoint, variable_order, BinaryPlan, GjPlan, PipeInput};
use fj_query::{ConjunctiveQuery, ExecStats, QueryOutput};
use fj_storage::{Catalog, Value};
use free_join::prep::{materialize_intermediate, prepare_inputs, BoundInput};
use free_join::sink::{pipeline_builder, ChunkBuffer};
use free_join::{CancelToken, EngineError, EngineResult};
use std::time::Instant;

/// The Generic Join engine.
#[derive(Debug, Clone, Default)]
pub struct GenericJoinEngine;

impl GenericJoinEngine {
    /// Create the engine.
    pub fn new() -> Self {
        GenericJoinEngine
    }

    /// Execute a query, deriving the variable order from the binary plan
    /// (the same order Free Join would use, as in the paper's Section 5.1).
    pub fn execute(
        &self,
        catalog: &Catalog,
        query: &ConjunctiveQuery,
        plan: &BinaryPlan,
    ) -> EngineResult<(QueryOutput, ExecStats)> {
        if !plan.covers_query(query) {
            return Err(EngineError::PlanDoesNotCoverQuery);
        }
        let prepared = prepare_inputs(catalog, query)?;
        let mut stats =
            ExecStats { selection_time: prepared.selection_time, ..ExecStats::default() };

        let decomposed = plan.decompose();
        let mut intermediates: Vec<Option<BoundInput>> = vec![None; decomposed.len()];
        let mut output = None;

        for (p, pipeline) in decomposed.pipelines.iter().enumerate() {
            let inputs: Vec<BoundInput> = pipeline
                .inputs
                .iter()
                .map(|&input| match input {
                    PipeInput::Atom(i) => prepared.atoms[i].clone(),
                    PipeInput::Intermediate(j) => {
                        intermediates[j].clone().expect("pipelines are dependency-ordered")
                    }
                })
                .collect();
            let input_vars: Vec<Vec<String>> = inputs.iter().map(|i| i.vars.clone()).collect();
            // Variable order: the one the (factored) Free Join plan binds.
            let mut fj_plan = binary2fj(&input_vars);
            factor_until_fixpoint(&mut fj_plan);
            let gj_plan = variable_order(&fj_plan, &input_vars);

            let is_final = p == decomposed.root_pipeline();
            let result = self.run_pipeline(&inputs, &gj_plan, query, is_final, &mut stats)?;
            if is_final {
                output = Some(result);
            } else {
                stats.intermediate_tuples += result.cardinality();
                let name = format!("__gj_intermediate_{}", result.vars.join("_"));
                let bound = materialize_intermediate(&name, result, &prepared.var_types)?;
                intermediates[pipeline.id] = Some(bound);
            }
        }

        let output = output.expect("final pipeline produces the output");
        stats.output_tuples = output.cardinality();
        Ok((output, stats))
    }

    /// Execute one pipeline with an explicit variable order (also usable
    /// directly for experiments on variable-order sensitivity): the query's
    /// output for the final one, every binding as a row for the others.
    fn run_pipeline(
        &self,
        inputs: &[BoundInput],
        gj_plan: &GjPlan,
        query: &ConjunctiveQuery,
        is_final: bool,
        stats: &mut ExecStats,
    ) -> EngineResult<QueryOutput> {
        let order = &gj_plan.var_order;

        // Build phase: one full hash trie per input.
        let build_start = Instant::now();
        let tries: Vec<HashTrie> =
            inputs.iter().map(|input| HashTrie::build(input, order)).collect();
        for trie in &tries {
            stats.tries_built += trie.num_map_nodes();
        }
        stats.build_time += build_start.elapsed();

        // Which inputs contain each variable of the order.
        let participants: Vec<Vec<usize>> = order
            .iter()
            .map(|v| {
                tries
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.vars().contains(v))
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();

        let join_start = Instant::now();
        let builder = pipeline_builder(query, order, is_final)?;
        let mut tuple = vec![Value::Null; order.len()];
        let mut current: Vec<&TrieLevel> = tries.iter().map(HashTrie::root).collect();
        // Same chunked result pipeline as the other engines: results
        // accumulate column-wise and reach the builder one chunk at a time.
        let mut out = ChunkBuffer::new(builder, CancelToken::disabled());
        gj_recurse(&participants, 0, &mut tuple, &mut current, &mut out, stats);
        let builder = out.finish();
        stats.result_chunks += builder.chunks_received();
        stats.join_time += join_start.elapsed();
        Ok(builder.finish())
    }
}

/// The nested-loop recursion of Generic Join: one level per variable.
fn gj_recurse(
    participants: &[Vec<usize>],
    level: usize,
    tuple: &mut Vec<Value>,
    current: &mut Vec<&TrieLevel>,
    out: &mut ChunkBuffer,
    stats: &mut ExecStats,
) {
    if level == participants.len() {
        // Every input has reached a leaf; multiply multiplicities.
        let weight: u64 = current.iter().map(|node| node.leaf_count().unwrap_or(1)).product();
        out.push(tuple, weight);
        return;
    }
    let active = &participants[level];
    debug_assert!(!active.is_empty(), "every variable occurs in some relation");

    // Iterate the relation with the fewest keys, probe the others.
    let smallest = *active
        .iter()
        .min_by_key(|&&i| current[i].num_keys())
        .expect("active is non-empty");
    let TrieLevel::Map(keys) = current[smallest] else {
        unreachable!("internal trie levels are maps");
    };

    let saved: Vec<&TrieLevel> = active.iter().map(|&i| current[i]).collect();
    'keys: for (value, child) in keys {
        tuple[level] = *value;
        current[smallest] = child;
        for &other in active {
            if other == smallest {
                continue;
            }
            stats.probes += 1;
            match current[other].get(*value) {
                Some(sub) => {
                    stats.probe_hits += 1;
                    current[other] = sub;
                }
                None => {
                    // Restore the inputs narrowed so far for this key.
                    for (&i, &node) in active.iter().zip(&saved) {
                        current[i] = node;
                    }
                    continue 'keys;
                }
            }
        }
        gj_recurse(participants, level + 1, tuple, current, out, stats);
        for (&i, &node) in active.iter().zip(&saved) {
            current[i] = node;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::BinaryJoinEngine;
    use fj_plan::PlanTree;
    use fj_query::QueryBuilder;
    use fj_storage::{RelationBuilder, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        let mut s = RelationBuilder::new("S", Schema::all_int(&["y", "z"]));
        let mut t = RelationBuilder::new("T", Schema::all_int(&["z", "x"]));
        for i in 0..30i64 {
            r.push_ints(&[i % 6, i % 5]).unwrap();
            s.push_ints(&[i % 5, i % 4]).unwrap();
            t.push_ints(&[i % 4, i % 6]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        cat.add(s.finish()).unwrap();
        cat.add(t.finish()).unwrap();
        cat
    }

    fn triangle() -> ConjunctiveQuery {
        QueryBuilder::new("triangle")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .count()
            .build()
    }

    #[test]
    fn triangle_matches_binary_join() {
        let cat = catalog();
        let q = triangle();
        let plan = BinaryPlan::left_deep(&[0, 1, 2]);
        let (gj_out, gj_stats) = GenericJoinEngine::new().execute(&cat, &q, &plan).unwrap();
        let (bj_out, _) = BinaryJoinEngine::new().execute(&cat, &q, &plan).unwrap();
        assert_eq!(gj_out.cardinality(), bj_out.cardinality());
        assert!(gj_out.cardinality() > 0);
        // Generic Join builds tries for every relation.
        assert!(gj_stats.tries_built >= 3);
        assert!(gj_stats.probes > 0);
    }

    #[test]
    fn results_stable_across_plan_orders() {
        let cat = catalog();
        let q = triangle();
        let engine = GenericJoinEngine::new();
        let reference = engine
            .execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1, 2]))
            .unwrap()
            .0
            .cardinality();
        for order in [[1usize, 0, 2], [2, 0, 1], [2, 1, 0]] {
            let (out, _) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&order)).unwrap();
            assert_eq!(out.cardinality(), reference, "order {order:?}");
        }
    }

    #[test]
    fn bushy_plans_materialize_intermediates() {
        let mut cat = catalog();
        let mut w = RelationBuilder::new("W", Schema::all_int(&["x", "w"]));
        for i in 0..12i64 {
            w.push_ints(&[i % 6, i]).unwrap();
        }
        cat.add(w.finish()).unwrap();
        let q = QueryBuilder::new("q")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .atom("W", &["x", "w"])
            .count()
            .build();
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let left_deep = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        let engine = GenericJoinEngine::new();
        let (a, stats) = engine.execute(&cat, &q, &bushy).unwrap();
        let (b, _) = engine.execute(&cat, &q, &left_deep).unwrap();
        assert_eq!(a.cardinality(), b.cardinality());
        assert!(stats.intermediate_tuples > 0);
    }

    #[test]
    fn bag_semantics_multiplicities() {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x"]));
        r.push_ints(&[1]).unwrap();
        r.push_ints(&[1]).unwrap();
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["x"]));
        for _ in 0..3 {
            s.push_ints(&[1]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let q = QueryBuilder::new("dup").atom("R", &["x"]).atom("S", &["x"]).count().build();
        let (out, _) = GenericJoinEngine::new()
            .execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1]))
            .unwrap();
        assert_eq!(out.cardinality(), 6);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let mut cat = catalog();
        cat.add_or_replace(fj_storage::Relation::empty("S", Schema::all_int(&["y", "z"])));
        let (out, _) = GenericJoinEngine::new()
            .execute(&cat, &triangle(), &BinaryPlan::left_deep(&[0, 1, 2]))
            .unwrap();
        assert_eq!(out.cardinality(), 0);
    }

    #[test]
    fn rejects_non_covering_plans() {
        let cat = catalog();
        assert!(matches!(
            GenericJoinEngine::new().execute(&cat, &triangle(), &BinaryPlan::left_deep(&[0, 1])),
            Err(EngineError::PlanDoesNotCoverQuery)
        ));
    }

    #[test]
    fn projection_and_group_count() {
        let cat = catalog();
        let q = QueryBuilder::new("per_x")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .group_count(&["x"])
            .build();
        let (out, _) = GenericJoinEngine::new()
            .execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1]))
            .unwrap();
        let (reference, _) = BinaryJoinEngine::new()
            .execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1]))
            .unwrap();
        assert!(out.result_eq(&reference));
    }
}
