//! Factorization of Free Join plans (Figure 10 of the paper).
//!
//! Starting from the plan produced by [`crate::binary2fj()`], factorization
//! moves probe subatoms — or the already-bound *part* of one — to earlier
//! nodes, filtering out redundant tuples early. The paper's clover example
//! turns
//!
//! ```text
//! [[R(x,a), S(x)], [S(b), T(x)], [T(c)]]
//! ```
//!
//! into
//!
//! ```text
//! [[R(x,a), S(x), T(x)], [S(b)], [T(c)]]
//! ```
//!
//! which probes `T` before expanding the skewed `R ⋈ S` result, reducing the
//! running time from quadratic to linear on the paper's skewed instance. `T(x)`
//! moves whole: every variable it has is bound before its node runs.
//!
//! The closing atom of a cycle is the other case. The triangle converts to
//!
//! ```text
//! [[R(x,y), S(y)], [S(z), T(z,x)]]
//! ```
//!
//! where `T(z,x)` can go nowhere as a whole (`z` is bound by its own node),
//! but its `x` is bound one node earlier. Factoring **splits** it there:
//!
//! ```text
//! [[R(x,y), S(y), T(x)], [S(z), T(z)]]
//! ```
//!
//! the plan of the paper's Example 3.10 and the Generic Join end of its
//! Figure 1. `T(x)` filters the `(x,y)` pairs before `z` is expanded, and the
//! second node is left with two subatoms over the one new variable `z`: both
//! are covers, so the executor iterates whichever adjacency list is shorter
//! for the binding at hand and probes the other — a set intersection per
//! binding, which is what makes the plan worst-case optimal.
//!
//! Factoring stays *conservative* in the paper's sense: a node's probes are
//! considered in plan order and the scan stops at the first one that has
//! nothing to give to the previous node, so the probe order chosen by the
//! cost-based optimizer is respected; a probe (or a part of one) travels one
//! node per step and never onto a node that already holds a subatom of its
//! input.

use crate::fj_plan::{FreeJoinPlan, Subatom};
use std::collections::BTreeSet;

/// Run one factorization pass over the plan (the paper's Figure 10).
///
/// Nodes are visited in reverse order. Within each node the probe subatoms
/// `r(V)` (everything after the cover) are considered in order, with `β` the
/// variables of `V` that are available before the current node:
///
/// * `β = V` (this includes `V = ∅`): the probe **moves** to the end of the
///   previous node;
/// * `∅ ≠ β ⊊ V`: the probe is **split** — `r(β)` is appended to the previous
///   node, `r(V∖β)` stays where it is, and the scan goes on to the next
///   probe;
/// * `β = ∅`, or the previous node already has a subatom of the same input:
///   the scan of this node stops ("we factor lookups conservatively").
///
/// A valid plan stays valid: the previous node gains no new variable (so its
/// cover still covers), the current node's new variables are untouched, and
/// the input's variables are still partitioned, `r(β)` one trie level above
/// `r(V∖β)`.
///
/// Returns the number of subatoms moved or split.
pub fn factor(plan: &mut FreeJoinPlan) -> usize {
    let n = plan.len();
    if n < 2 {
        return 0;
    }
    let mut moved = 0;
    for i in (1..n).rev() {
        // avs(φ_i): variables available before node i.
        let avs: BTreeSet<String> = plan.available_vars(i);
        let (before, from) = plan.nodes.split_at_mut(i);
        let (prev, node) = (&mut before[i - 1], &mut from[0]);
        // Consider the probes of node i in order; stop at the first one that
        // cannot be factored. A whole move shifts the next probe into
        // position `j`; a split leaves the remainder there and steps over it.
        let mut j = 1;
        while j < node.subatoms.len() && !prev.references_input(node.subatoms[j].input) {
            let probe = &mut node.subatoms[j];
            let bound: Vec<String> =
                probe.vars.iter().filter(|v| avs.contains(*v)).cloned().collect();
            if bound.len() == probe.vars.len() {
                prev.subatoms.push(node.subatoms.remove(j));
            } else if bound.is_empty() {
                break;
            } else {
                probe.vars.retain(|v| !avs.contains(v));
                prev.subatoms.push(Subatom::new(probe.input, bound));
                j += 1;
            }
            moved += 1;
        }
    }
    // Factoring can leave a node consisting solely of an empty-variable cover
    // whose input is already fully probed elsewhere; such nodes are kept —
    // they still drive iteration over the matched tuples (bag semantics).
    moved
}

/// Repeat [`factor`] until no subatom moves or splits. A single pass moves a
/// subatom (or the bound part of one) one node earlier; iterating allows
/// probes to migrate as far up the plan as validity permits, which is how the
/// plan approaches the Generic Join end of the design space. Terminates: a
/// move goes strictly upward and a split strictly shrinks the subatom.
///
/// Free Join's compiler runs one [`factor`] pass, not this: the fixpoint
/// gave the same probe counts on both the JOB-like and the LSQB-like suite,
/// under the optimizer's default plans and left-deep ones alike. It stays
/// for the Generic Join baseline's variable order, the property tests and
/// worst-case growth checks, which need that end of the design space.
pub fn factor_until_fixpoint(plan: &mut FreeJoinPlan) -> usize {
    let mut total = 0;
    loop {
        let moved = factor(plan);
        if moved == 0 {
            return total;
        }
        total += moved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary2fj::binary2fj;
    use crate::fj_plan::{FjNode, Subatom};

    fn vars(lists: &[&[&str]]) -> Vec<Vec<String>> {
        lists.iter().map(|l| l.iter().map(|s| s.to_string()).collect()).collect()
    }

    fn sub(input: usize, v: &[&str]) -> Subatom {
        Subatom::new(input, v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn clover_factorization_matches_paper() {
        // Naive plan (Eq. 2) -> optimized plan (Section 4.1).
        let iv = vars(&[&["x", "a"], &["x", "b"], &["x", "c"]]);
        let mut plan = binary2fj(&iv);
        let moved = factor(&mut plan);
        assert_eq!(moved, 1);
        plan.validate(&iv).unwrap();
        assert_eq!(
            plan,
            FreeJoinPlan::new(vec![
                FjNode::new(vec![sub(0, &["x", "a"]), sub(1, &["x"]), sub(2, &["x"])]),
                FjNode::new(vec![sub(1, &["b"])]),
                FjNode::new(vec![sub(2, &["c"])]),
            ])
        );
    }

    #[test]
    fn chain_plan_has_nothing_to_factor() {
        // In the chain query each probe needs a variable bound by the cover
        // of its own node, so nothing can move (Example 4.1).
        let iv = vars(&[&["x", "y"], &["y", "z"], &["z", "u"], &["u", "v"]]);
        let mut plan = binary2fj(&iv);
        let before = plan.clone();
        assert_eq!(factor(&mut plan), 0);
        assert_eq!(plan, before);
    }

    #[test]
    fn factored_plan_remains_valid_and_equivalent_partition() {
        let cases = vec![
            vars(&[&["x", "a"], &["x", "b"], &["x", "c"], &["b"]]),
            vars(&[&["x", "y"], &["y", "z"], &["z", "x"]]),
            vars(&[&["a", "b"], &["b", "c"], &["a", "c"], &["a", "d"], &["d", "b"]]),
            vars(&[&["x"], &["x"], &["x"], &["x"]]),
        ];
        for iv in cases {
            let mut plan = binary2fj(&iv);
            factor_until_fixpoint(&mut plan);
            plan.validate(&iv)
                .unwrap_or_else(|e| panic!("invalid factored plan for {iv:?}: {e}"));
        }
    }

    #[test]
    fn star_query_factors_all_probes_into_first_node() {
        // Star query R(x,a), S(x,b), T(x,c), U(x,d): every probe on x can be
        // pulled into the first node.
        let iv = vars(&[&["x", "a"], &["x", "b"], &["x", "c"], &["x", "d"]]);
        let mut plan = binary2fj(&iv);
        factor_until_fixpoint(&mut plan);
        plan.validate(&iv).unwrap();
        // First node: R(x,a) cover plus probes into S, T, U on x.
        assert_eq!(plan.nodes[0].subatoms.len(), 4);
        assert_eq!(plan.nodes[0].subatoms[0], sub(0, &["x", "a"]));
        let probed: Vec<usize> = plan.nodes[0].subatoms[1..].iter().map(|s| s.input).collect();
        assert_eq!(probed, vec![1, 2, 3]);
        // Remaining nodes expand b, c, d one at a time.
        assert_eq!(plan.nodes[1].subatoms, vec![sub(1, &["b"])]);
        assert_eq!(plan.nodes[2].subatoms, vec![sub(2, &["c"])]);
        assert_eq!(plan.nodes[3].subatoms, vec![sub(3, &["d"])]);
    }

    #[test]
    fn single_pass_moves_at_most_one_node_up() {
        // A probe whose variables become available two nodes earlier needs two
        // passes to get there.
        let iv = vars(&[&["x", "a"], &["a", "b"], &["x", "c"]]);
        // binary2fj: [[R(x,a), S(a)], [S(b), T(x)], [T(c)]].
        let mut plan = binary2fj(&iv);
        let moved_first = factor(&mut plan);
        assert_eq!(moved_first, 1);
        // T(x) is now at the end of node 0? No: x is available before node 1
        // (bound by node 0), so one pass moves it from node 1 to node 0.
        assert!(plan.nodes[0].references_input(2));
        plan.validate(&iv).unwrap();
    }

    #[test]
    fn conservative_order_stops_at_first_unmovable_probe() {
        // Re-derived for split factoring. This test used to open with
        // `[[R(x,a)], [S(a,y), T(x,z)]]` and pin that nothing moves because
        // `T(x,z)` mentions `z`; its bound part `T(x)` now splits off (see
        // `three_variable_probe_with_one_bound_variable_splits_once`). What
        // "conservative" still means is that the scan stops at the first
        // probe with *nothing* to give to the previous node: U(y) is bound
        // by its own node, so T(x) behind it stays although it could move.
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "a"])]),
            FjNode::new(vec![sub(1, &["a", "y"]), sub(3, &["y"]), sub(2, &["x"])]),
        ]);
        let before = plan.clone();
        assert_eq!(factor(&mut plan), 0);
        assert_eq!(plan, before);

        let mut plan2 = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "a"])]),
            FjNode::new(vec![sub(1, &["a", "y"]), sub(2, &["x"]), sub(2, &["z"])]),
        ]);
        // First probe sub(2, [x]) can move; the scan then considers the next
        // probe, sub(2, [z]), which cannot (z unavailable), so exactly one
        // subatom moves.
        assert_eq!(factor(&mut plan2), 1);
        assert!(plan2.nodes[0].references_input(2));
    }

    /// The inputs of the triangle `R(x,y), S(y,z), T(z,x)`.
    fn triangle_inputs() -> Vec<Vec<String>> {
        vars(&[&["x", "y"], &["y", "z"], &["z", "x"]])
    }

    #[test]
    fn triangle_factors_to_the_plan_of_example_3_10() {
        // binary2fj: [[R(x,y), S(y)], [S(z), T(z,x)], [T()]]. T(z,x) cannot
        // move as a whole (z is new in its node); its bound part T(x) splits
        // off. The trailing T() is what an unpruned plan keeps: T(z) is then
        // a cover that is not T's last subatom, with nothing keyed below it.
        let iv = triangle_inputs();
        let mut unpruned = binary2fj(&iv);
        assert_eq!(unpruned.to_string(), "[[#0(x,y), #1(y)], [#1(z), #2(z,x)], [#2()]]");
        assert_eq!(factor(&mut unpruned), 1);
        unpruned.validate(&iv).unwrap();
        assert_eq!(unpruned.to_string(), "[[#0(x,y), #1(y), #2(x)], [#1(z), #2(z)], [#2()]]");

        // As `compile_query` factors it by default: the empty subatom pruned.
        let mut plan = binary2fj(&iv);
        plan.prune_empty_subatoms();
        assert_eq!(factor(&mut plan), 1);
        plan.validate(&iv).unwrap();
        assert_eq!(plan.to_string(), "[[#0(x,y), #1(y), #2(x)], [#1(z), #2(z)]]");
        // Both subatoms of the inner node cover its one new variable: the
        // executor intersects the two adjacency lists.
        assert_eq!(plan.covers(1), vec![0, 1]);
        // Nothing is left to do.
        assert_eq!(factor_until_fixpoint(&mut plan), 0);
    }

    #[test]
    fn cyclic_lsqb_shapes_factor_to_intersection_plans() {
        // q2: a `knows` triangle (a,b,c) whose a and b share an interest t,
        // in the left-deep order the optimizer picks; every closing atom is
        // split in one pass and every inner node has two covers.
        let q2 = vars(&[&["a", "b"], &["b", "t"], &["a", "t"], &["a", "c"], &["b", "c"]]);
        let mut plan = binary2fj(&q2);
        assert_eq!(
            plan.to_string(),
            "[[#0(a,b), #1(b)], [#1(t), #2(a,t)], [#2(), #3(a)], [#3(c), #4(b,c)], [#4()]]"
        );
        plan.prune_empty_subatoms();
        assert_eq!(
            plan.to_string(),
            "[[#0(a,b), #1(b)], [#1(t), #2(a,t), #3(a)], [#3(c), #4(b,c)]]"
        );
        // #4(b,c) splits; then in node 1 #2(a,t) splits and #3(a) and the
        // #4(b) that just arrived move whole.
        assert_eq!(factor(&mut plan), 4);
        plan.validate(&q2).unwrap();
        assert_eq!(
            plan.to_string(),
            "[[#0(a,b), #1(b), #2(a), #3(a), #4(b)], [#1(t), #2(t)], [#3(c), #4(c)]]"
        );
        assert_eq!(factor_until_fixpoint(&mut plan), 0);

        // q3: a 4-cycle a-d-c-b with the chord a-c.
        let q3 = vars(&[&["a", "c"], &["a", "d"], &["c", "d"], &["c", "b"], &["a", "b"]]);
        let mut plan = binary2fj(&q3);
        plan.prune_empty_subatoms();
        assert_eq!(
            plan.to_string(),
            "[[#0(a,c), #1(a)], [#1(d), #2(c,d), #3(c)], [#3(b), #4(a,b)]]"
        );
        factor(&mut plan);
        plan.validate(&q3).unwrap();
        assert_eq!(
            plan.to_string(),
            "[[#0(a,c), #1(a), #2(c), #3(c), #4(a)], [#1(d), #2(d)], [#3(b), #4(b)]]"
        );
        for k in 1..plan.len() {
            assert_eq!(plan.covers(k), vec![0, 1], "node {k}");
        }
    }

    #[test]
    fn three_variable_probe_with_one_bound_variable_splits_once() {
        // T(x,z,w): x is bound by node 0, z and w are new in node 1 (and T is
        // not the cover). One split — T(x) — and the remainder keeps both.
        let iv = vars(&[&["x", "a"], &["a", "z", "w"], &["x", "z", "w"]]);
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "a"])]),
            FjNode::new(vec![sub(1, &["a", "z", "w"]), sub(2, &["x", "z", "w"])]),
        ]);
        plan.validate(&iv).unwrap();
        assert_eq!(factor(&mut plan), 1);
        plan.validate(&iv).unwrap();
        assert_eq!(plan.to_string(), "[[#0(x,a), #2(x)], [#1(a,z,w), #2(z,w)]]");
        assert_eq!(factor(&mut plan), 0, "the remainder has nothing bound");
    }

    #[test]
    fn split_keeps_the_inputs_variable_order_and_continues_the_scan() {
        // T(z,x,y): the bound part is {x,y}, in T's order; the scan then
        // goes on to U(x), which moves whole behind it.
        let iv = vars(&[&["x", "y"], &["y", "z"], &["z", "x", "y"], &["x"]]);
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x", "y"]), sub(1, &["y"])]),
            FjNode::new(vec![sub(1, &["z"]), sub(2, &["z", "x", "y"]), sub(3, &["x"])]),
        ]);
        plan.validate(&iv).unwrap();
        assert_eq!(factor(&mut plan), 2);
        plan.validate(&iv).unwrap();
        assert_eq!(plan.to_string(), "[[#0(x,y), #1(y), #2(x,y), #3(x)], [#1(z), #2(z)]]");
    }

    #[test]
    fn split_is_blocked_when_the_previous_node_holds_the_input() {
        // T(y,w) could give T(y) to node 1 — but node 1 already has T(x).
        let iv = vars(&[&["x"], &["x", "y"], &["x", "y", "w"], &["w"]]);
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x"])]),
            FjNode::new(vec![sub(1, &["x", "y"]), sub(2, &["x"])]),
            FjNode::new(vec![sub(3, &["w"]), sub(2, &["y", "w"])]),
        ]);
        plan.validate(&iv).unwrap();
        // The only change of the pass is in node 1: T(x) moves up to node 0.
        assert_eq!(factor(&mut plan), 1);
        assert_eq!(plan.to_string(), "[[#0(x), #2(x)], [#1(x,y)], [#3(w), #2(y,w)]]");
        // Now node 1 is free of T and the next pass splits T(y,w).
        assert_eq!(factor(&mut plan), 1);
        plan.validate(&iv).unwrap();
        assert_eq!(plan.to_string(), "[[#0(x), #2(x)], [#1(x,y), #2(y)], [#3(w), #2(w)]]");
    }

    #[test]
    fn probe_does_not_move_onto_node_with_same_input() {
        // The previous node already references the same input, so the probe
        // must stay (condition (b) of the algorithm).
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![sub(0, &["x"]), sub(1, &["x"])]),
            FjNode::new(vec![sub(2, &["x", "y"]), sub(1, &[])]),
        ]);
        // The probe sub(1, []) has no unavailable variables, but node 0
        // already references input 1, so it must stay put.
        assert_eq!(factor(&mut plan), 0);
    }

    #[test]
    fn empty_and_single_node_plans_are_untouched() {
        let mut empty = FreeJoinPlan::default();
        assert_eq!(factor(&mut empty), 0);
        let mut single = FreeJoinPlan::new(vec![FjNode::new(vec![sub(0, &["x"])])]);
        assert_eq!(factor(&mut single), 0);
    }
}
