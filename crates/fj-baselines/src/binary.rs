//! The binary hash join baseline.
//!
//! This engine executes a binary plan exactly the way a traditional
//! in-memory database does (Section 2.2 of the paper): the plan is decomposed
//! into left-deep pipelines; each pipeline builds one hash table per
//! non-left-most input, keyed on the variables it shares with everything to
//! its left, then streams the left-most input through the probe pipeline.
//! Bushy plans materialize the result of each right-child pipeline before the
//! parent runs. It stands in for DuckDB's hash join in the paper's
//! experiments.

use crate::hash_table::JoinHashTable;
use fj_plan::{BinaryPlan, PipeInput};
use fj_query::{ConjunctiveQuery, ExecStats, QueryOutput};
use fj_storage::{Catalog, Value};
use free_join::prep::{materialize_intermediate, prepare_inputs, BoundInput};
use free_join::sink::{pipeline_builder, ChunkBuffer};
use free_join::{CancelToken, EngineError, EngineResult};
use std::collections::BTreeSet;
use std::time::Instant;

/// The pipelined binary hash join engine.
#[derive(Debug, Clone, Default)]
pub struct BinaryJoinEngine;

impl BinaryJoinEngine {
    /// Create the engine.
    pub fn new() -> Self {
        BinaryJoinEngine
    }

    /// Execute a query over a binary plan.
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
            let is_final = p == decomposed.root_pipeline();
            let result = self.run_pipeline(&inputs, query, is_final, &mut stats)?;
            if is_final {
                output = Some(result);
            } else {
                stats.intermediate_tuples += result.cardinality();
                let name = format!("__bj_intermediate_{}", result.vars.join("_"));
                let bound = materialize_intermediate(&name, result, &prepared.var_types)?;
                intermediates[pipeline.id] = Some(bound);
            }
        }

        let output = output.expect("final pipeline produces the output");
        stats.output_tuples = output.cardinality();
        Ok((output, stats))
    }

    /// Run one left-deep pipeline: the query's output for the final one,
    /// every binding as a row for the others.
    fn run_pipeline(
        &self,
        inputs: &[BoundInput],
        query: &ConjunctiveQuery,
        is_final: bool,
        stats: &mut ExecStats,
    ) -> EngineResult<QueryOutput> {
        // The binding order: variables in order of first appearance across
        // the pipeline inputs.
        let mut binding_order: Vec<String> = Vec::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for input in inputs {
            for v in &input.vars {
                if seen.insert(v.clone()) {
                    binding_order.push(v.clone());
                }
            }
        }
        let slot_of =
            |v: &String| binding_order.iter().position(|b| b == v).expect("var in binding order");

        // For each probe input (everything but the first): the key variables
        // (shared with what is bound to its left), the hash table, the new
        // variables it binds and their slots.
        struct ProbeLevel {
            table: JoinHashTable,
            key_slots: Vec<usize>,
            new_cols: Vec<usize>,
            new_slots: Vec<usize>,
        }

        let build_start = Instant::now();
        let mut levels: Vec<ProbeLevel> = Vec::new();
        let mut bound: BTreeSet<String> = inputs[0].vars.iter().cloned().collect();
        for input in &inputs[1..] {
            let key_vars: Vec<String> =
                input.vars.iter().filter(|v| bound.contains(*v)).cloned().collect();
            let table = JoinHashTable::build(input, &key_vars);
            let key_slots: Vec<usize> = key_vars.iter().map(slot_of).collect();
            let mut new_cols = Vec::new();
            let mut new_slots = Vec::new();
            for (pos, v) in input.vars.iter().enumerate() {
                if !bound.contains(v) {
                    new_cols.push(input.var_cols[pos]);
                    new_slots.push(slot_of(v));
                }
            }
            bound.extend(input.vars.iter().cloned());
            levels.push(ProbeLevel { table, key_slots, new_cols, new_slots });
            stats.tries_built += 1;
        }
        stats.build_time += build_start.elapsed();

        // Probe phase: stream the left-most input through the hash tables.
        let join_start = Instant::now();
        let builder = pipeline_builder(query, &binding_order, is_final)?;
        let builder = {
            let left = &inputs[0];
            let left_slots: Vec<usize> = left.vars.iter().map(slot_of).collect();
            let mut tuple = vec![Value::Null; binding_order.len()];
            // Results leave through the same chunked pipeline as Free Join:
            // the inner loop appends into a columnar buffer that hands the
            // builder one chunk at a time, keeping cross-engine comparisons
            // apples-to-apples on the output side.
            let mut out = ChunkBuffer::new(builder, CancelToken::disabled());

            // Recursive pipelined probing. Probe keys of arity ≤ 2 — the
            // common case — live in stack arrays (no allocation, mirroring
            // the Free Join executor); only wider keys collect a buffer.
            fn probe_level(
                levels: &[ProbeLevel],
                depth: usize,
                inputs: &[BoundInput],
                tuple: &mut Vec<Value>,
                out: &mut ChunkBuffer,
                stats: &mut ExecStats,
            ) {
                if depth == levels.len() {
                    out.push(tuple, 1);
                    return;
                }
                let level = &levels[depth];
                stats.probes += 1;
                let matches = match *level.key_slots.as_slice() {
                    [] => level.table.probe(&[]),
                    [a] => level.table.probe(&[tuple[a]]),
                    [a, b] => level.table.probe(&[tuple[a], tuple[b]]),
                    ref slots => {
                        let key: Vec<Value> = slots.iter().map(|&s| tuple[s]).collect();
                        level.table.probe(&key)
                    }
                };
                let Some(matches) = matches else {
                    return;
                };
                stats.probe_hits += 1;
                let relation = &inputs[depth + 1].relation;
                for &row in matches {
                    for (&col, &slot) in level.new_cols.iter().zip(&level.new_slots) {
                        tuple[slot] = relation.column(col).get(row as usize);
                    }
                    probe_level(levels, depth + 1, inputs, tuple, out, stats);
                }
            }

            for row in 0..left.relation.num_rows() {
                for (pos, &slot) in left_slots.iter().enumerate() {
                    tuple[slot] = left.relation.column(left.var_cols[pos]).get(row);
                }
                probe_level(&levels, 0, inputs, &mut tuple, &mut out, stats);
            }
            out.finish()
        };
        stats.result_chunks += builder.chunks_received();
        stats.join_time += join_start.elapsed();
        Ok(builder.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_plan::PlanTree;
    use fj_query::QueryBuilder;
    use fj_storage::{CmpOp, Predicate, RelationBuilder, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        let mut s = RelationBuilder::new("S", Schema::all_int(&["y", "z"]));
        let mut t = RelationBuilder::new("T", Schema::all_int(&["z", "x"]));
        for i in 0..20i64 {
            r.push_ints(&[i % 5, i % 7]).unwrap();
            s.push_ints(&[i % 7, i % 4]).unwrap();
            t.push_ints(&[i % 4, i % 5]).unwrap();
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

    /// Brute-force nested-loop count, the ground truth for these tests.
    fn brute_force_triangle_count(cat: &Catalog) -> u64 {
        let r = cat.get("R").unwrap();
        let s = cat.get("S").unwrap();
        let t = cat.get("T").unwrap();
        let mut count = 0;
        for ri in 0..r.num_rows() {
            for si in 0..s.num_rows() {
                for ti in 0..t.num_rows() {
                    let (x, y) = (r.row(ri)[0], r.row(ri)[1]);
                    let (y2, z) = (s.row(si)[0], s.row(si)[1]);
                    let (z2, x2) = (t.row(ti)[0], t.row(ti)[1]);
                    if x == x2 && y == y2 && z == z2 {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn triangle_count_matches_brute_force() {
        let cat = catalog();
        let expected = brute_force_triangle_count(&cat);
        assert!(expected > 0);
        let engine = BinaryJoinEngine::new();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let (out, stats) =
                engine.execute(&cat, &triangle(), &BinaryPlan::left_deep(&order)).unwrap();
            assert_eq!(out.cardinality(), expected, "order {order:?}");
            assert!(stats.probes > 0);
            assert_eq!(stats.tries_built, 2);
        }
    }

    #[test]
    fn bushy_plan_materializes_and_matches() {
        let mut cat = catalog();
        let mut w = RelationBuilder::new("W", Schema::all_int(&["x", "w"]));
        for i in 0..10i64 {
            w.push_ints(&[i % 5, i]).unwrap();
        }
        cat.add(w.finish()).unwrap();
        let q = QueryBuilder::new("q")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .atom("W", &["x", "w"])
            .count()
            .build();
        let engine = BinaryJoinEngine::new();
        let left_deep = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let (a, _) = engine.execute(&cat, &q, &left_deep).unwrap();
        let (b, stats) = engine.execute(&cat, &q, &bushy).unwrap();
        assert_eq!(a.cardinality(), b.cardinality());
        assert!(stats.intermediate_tuples > 0);
    }

    #[test]
    fn filters_are_applied_before_joining() {
        let cat = catalog();
        let q = QueryBuilder::new("filtered")
            .atom_where("R", &["x", "y"], Predicate::cmp_const("x", CmpOp::Eq, 1i64))
            .atom("S", &["y", "z"])
            .count()
            .build();
        let engine = BinaryJoinEngine::new();
        let (out, _) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1])).unwrap();
        // x == 1 keeps 4 of 20 R rows; each y value appears in S ~20/7 times.
        let r = cat.get("R").unwrap();
        let s = cat.get("S").unwrap();
        let mut expected = 0;
        for ri in 0..r.num_rows() {
            if r.row(ri)[0] != Value::Int(1) {
                continue;
            }
            for si in 0..s.num_rows() {
                if r.row(ri)[1] == s.row(si)[0] {
                    expected += 1;
                }
            }
        }
        assert_eq!(out.cardinality(), expected);
    }

    #[test]
    fn single_atom_scan() {
        let cat = catalog();
        let q = QueryBuilder::new("scan").atom("R", &["x", "y"]).count().build();
        let engine = BinaryJoinEngine::new();
        let (out, stats) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0])).unwrap();
        assert_eq!(out.cardinality(), 20);
        assert_eq!(stats.tries_built, 0);
    }

    #[test]
    fn rejects_non_covering_plans() {
        let cat = catalog();
        let engine = BinaryJoinEngine::new();
        assert!(matches!(
            engine.execute(&cat, &triangle(), &BinaryPlan::left_deep(&[0, 1])),
            Err(EngineError::PlanDoesNotCoverQuery)
        ));
    }

    #[test]
    fn materialized_output_projects_head() {
        let cat = catalog();
        let q = QueryBuilder::new("proj")
            .head(&["x", "z"])
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .build();
        let engine = BinaryJoinEngine::new();
        let (out, _) = engine.execute(&cat, &q, &BinaryPlan::left_deep(&[0, 1])).unwrap();
        match &out.kind {
            fj_query::OutputKind::Rows(rows) => {
                assert!(rows.iter().all(|r| r.len() == 2));
                assert_eq!(out.vars, vec!["x", "z"]);
            }
            other => panic!("expected rows, got {other:?}"),
        }
    }
}
