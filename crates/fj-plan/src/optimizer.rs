//! A cost-based join-order optimizer producing binary plans.
//!
//! The paper feeds Free Join with plans produced by DuckDB's cost-based
//! optimizer. This module is the stand-in: given a conjunctive query and
//! catalog statistics it searches for a low-cost binary plan using dynamic
//! programming over connected sub-queries (exact for the query sizes in the
//! benchmarks) with a greedy fallback for very large queries. The cost model
//! is the classic `C_out` (sum of estimated intermediate cardinalities).
//!
//! Two properties matter for fidelity to the paper's experiments:
//!
//! * With accurate statistics the optimizer produces sensible plans with the
//!   larger input on the probe (left, iterated) side of every hash join —
//!   "the left relation is usually chosen to be a large relation by the query
//!   optimizer".
//! * With [`EstimatorMode::AlwaysOne`] every intermediate is estimated at one
//!   row; tie-breaking then drives plan shape, which (as in the paper)
//!   routinely yields poor, bushy plans that materialize large intermediates.

use crate::binary_plan::{BinaryPlan, PlanTree};
pub use crate::stats::EstimatorMode;
use crate::stats::{CardinalityEstimator, CatalogStats, SubPlanInfo};
use fj_query::ConjunctiveQuery;
use fj_storage::FastBuildHasher;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Options controlling the optimizer.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// Cardinality estimation mode.
    pub mode: EstimatorMode,
    /// Restrict the search to left-deep plans.
    pub left_deep_only: bool,
    /// Maximum number of atoms optimized exactly by dynamic programming;
    /// larger queries fall back to greedy operator ordering.
    pub dp_threshold: usize,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions { mode: EstimatorMode::Accurate, left_deep_only: false, dp_threshold: 12 }
    }
}

impl OptimizerOptions {
    /// The configuration used for the paper's robustness experiment: same
    /// search, cardinality estimates pinned to 1.
    pub fn bad_estimates() -> Self {
        OptimizerOptions { mode: EstimatorMode::AlwaysOne, ..Self::default() }
    }
}

/// A set of query variables: bit `v % 64` of word `v / 64` stands for
/// variable `v` of [`VarSets::names`].
type VarSet = Vec<u64>;

/// The query's variables numbered once per [`optimize`] call, so that the
/// search intersects machine words instead of building a set of names for
/// every candidate pair.
struct VarSets {
    /// The distinct variable names, sorted: the bits of a set, read in
    /// order, name its variables in name order (the order the estimator is
    /// handed shared variables in, which fixes its floating-point result).
    names: Vec<String>,
    /// The variables of each atom.
    atoms: Vec<VarSet>,
}

impl VarSets {
    fn new(query: &ConjunctiveQuery) -> Self {
        let mut names: Vec<String> =
            query.atoms.iter().flat_map(|atom| atom.vars.iter().cloned()).collect();
        names.sort_unstable();
        names.dedup();
        let atoms = query
            .atoms
            .iter()
            .map(|atom| {
                let mut set = vec![0u64; names.len().div_ceil(64)];
                for var in &atom.vars {
                    let v = names.binary_search(var).expect("every variable was numbered");
                    set[v / 64] |= 1 << (v % 64);
                }
                set
            })
            .collect();
        VarSets { names, atoms }
    }

    /// The names of the variables in both sets, sorted.
    fn shared(&self, left: &VarSet, right: &VarSet) -> Vec<String> {
        let mut out = Vec::new();
        for (w, (l, r)) in left.iter().zip(right).enumerate() {
            let mut both = l & r;
            while both != 0 {
                out.push(self.names[w * 64 + both.trailing_zeros() as usize].clone());
                both &= both - 1;
            }
        }
        out
    }

    /// Is the atom set `mask` connected in the query's join graph?
    fn is_connected(&self, mask: u64) -> bool {
        let mut rest = mask & (mask - 1);
        let mut reached = self.atoms[mask.trailing_zeros() as usize].clone();
        // Grow the first atom's component until no remaining atom touches it.
        loop {
            let before = rest;
            let mut candidates = rest;
            while candidates != 0 {
                let i = candidates.trailing_zeros() as usize;
                candidates &= candidates - 1;
                if intersects(&reached, &self.atoms[i]) {
                    reached.iter_mut().zip(&self.atoms[i]).for_each(|(r, a)| *r |= a);
                    rest &= !(1u64 << i);
                }
            }
            if rest == 0 || rest == before {
                return rest == 0;
            }
        }
    }
}

fn intersects(left: &VarSet, right: &VarSet) -> bool {
    left.iter().zip(right).any(|(l, r)| l & r != 0)
}

fn union(left: &VarSet, right: &VarSet) -> VarSet {
    left.iter().zip(right).map(|(l, r)| l | r).collect()
}

/// One DP table entry: the best plan found for a set of atoms.
#[derive(Debug, Clone)]
struct DpEntry {
    tree: PlanTree,
    info: SubPlanInfo,
    /// Accumulated cost (sum of intermediate result cardinalities).
    cost: f64,
    /// The variables of the entry's atoms.
    vars: VarSet,
}

impl DpEntry {
    fn leaf(
        query: &ConjunctiveQuery,
        estimator: &CardinalityEstimator<'_>,
        sets: &VarSets,
        i: usize,
    ) -> Self {
        DpEntry {
            tree: PlanTree::Leaf(i),
            info: estimator.atom_info(query, i),
            cost: 0.0,
            vars: sets.atoms[i].clone(),
        }
    }
}

/// Optimize a query into a binary join plan.
///
/// # Panics
/// Panics if the query has no atoms (validate the query first).
pub fn optimize(
    query: &ConjunctiveQuery,
    stats: &CatalogStats,
    options: OptimizerOptions,
) -> BinaryPlan {
    let n = query.num_atoms();
    assert!(n > 0, "cannot optimize a query with no atoms");
    let estimator = CardinalityEstimator::new(stats, options.mode);
    if n == 1 {
        return BinaryPlan::new(PlanTree::Leaf(0));
    }
    let sets = VarSets::new(query);
    if n <= options.dp_threshold && n <= 20 {
        dp_optimize(query, &estimator, &sets, options)
    } else {
        greedy_optimize(query, &estimator, &sets, options)
    }
}

/// Join two DP entries into a candidate plan for their union, if it costs
/// less than `below` (any cost does when there is no bound). The child with
/// the larger estimated cardinality goes on the left (probe/iterate side),
/// matching the hash-join convention of building on the smaller input. A
/// candidate is costed from its cardinality alone; the merged statistics and
/// the plan tree are built only for one that beats the bound.
fn combine(
    estimator: &CardinalityEstimator<'_>,
    sets: &VarSets,
    left: &DpEntry,
    right: &DpEntry,
    left_deep_only: bool,
    below: Option<f64>,
) -> Option<DpEntry> {
    if left_deep_only
        && !matches!(right.tree, PlanTree::Leaf(_))
        && !matches!(left.tree, PlanTree::Leaf(_))
    {
        return None;
    }
    let shared = sets.shared(&left.vars, &right.vars);
    let cost =
        left.cost + right.cost + estimator.join_cardinality(&left.info, &right.info, &shared);
    if below.is_some_and(|bound| cost.partial_cmp(&bound) != Some(Ordering::Less)) {
        return None;
    }
    let info = estimator.join(&left.info, &right.info, &shared);
    // Keep the bigger side on the left. Under AlwaysOne the estimates tie and
    // the orientation is arbitrary, which is part of what makes bad plans bad.
    // When only left-deep plans are allowed and exactly one side is a leaf,
    // that leaf must be the right (build) child regardless of size.
    let left_is_leaf = matches!(left.tree, PlanTree::Leaf(_));
    let right_is_leaf = matches!(right.tree, PlanTree::Leaf(_));
    let (l, r) = if options_prefers_leaf_right(left_deep_only, left_is_leaf, right_is_leaf) {
        if left_is_leaf && !right_is_leaf {
            (right.tree.clone(), left.tree.clone())
        } else {
            (left.tree.clone(), right.tree.clone())
        }
    } else if left.info.cardinality >= right.info.cardinality {
        (left.tree.clone(), right.tree.clone())
    } else {
        (right.tree.clone(), left.tree.clone())
    };
    let tree = PlanTree::Join(Box::new(l), Box::new(r));
    if left_deep_only && !tree.is_left_deep() {
        return None;
    }
    Some(DpEntry { tree, info, cost, vars: union(&left.vars, &right.vars) })
}

/// Should the leaf be forced onto the right child? Only when restricted to
/// left-deep plans and exactly one side is a leaf.
fn options_prefers_leaf_right(
    left_deep_only: bool,
    left_is_leaf: bool,
    right_is_leaf: bool,
) -> bool {
    left_deep_only && (left_is_leaf ^ right_is_leaf)
}

/// Exact DP over connected subsets (DPsub).
fn dp_optimize(
    query: &ConjunctiveQuery,
    estimator: &CardinalityEstimator<'_>,
    sets: &VarSets,
    options: OptimizerOptions,
) -> BinaryPlan {
    let n = query.num_atoms();
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    // Keyed by the search's own atom masks: the cheap hasher is safe.
    let mut table: HashMap<u64, DpEntry, FastBuildHasher> = HashMap::default();
    for i in 0..n {
        table.insert(1u64 << i, DpEntry::leaf(query, estimator, sets, i));
    }

    // Enumerate subsets in increasing popcount so both halves are available.
    let mut subsets: Vec<u64> = (1..=full).collect();
    subsets.sort_by_key(|m| m.count_ones());
    for &mask in &subsets {
        if mask.count_ones() < 2 || table.contains_key(&mask) && mask.count_ones() == 1 {
            continue;
        }
        if !sets.is_connected(mask) {
            continue;
        }
        let mut best: Option<DpEntry> = None;
        // Enumerate proper non-empty submasks.
        let mut sub = (mask - 1) & mask;
        while sub != 0 {
            let other = mask ^ sub;
            // Consider each unordered partition once.
            if sub < other {
                sub = (sub - 1) & mask;
                continue;
            }
            if let (Some(left), Some(right)) = (table.get(&sub), table.get(&other)) {
                // Require both sides connected and sharing a variable unless
                // the whole query forces a cross product.
                let shares = intersects(&left.vars, &right.vars);
                if shares || mask == full {
                    // One orientation is enough: `combine` is symmetric in
                    // cost and feasibility, and only a strictly cheaper
                    // candidate replaces the best.
                    let below = best.as_ref().map(|b| b.cost);
                    if let Some(cand) =
                        combine(estimator, sets, left, right, options.left_deep_only, below)
                    {
                        best = Some(cand);
                    }
                }
            }
            sub = (sub - 1) & mask;
        }
        if let Some(entry) = best {
            table.insert(mask, entry);
        }
    }

    match table.remove(&full) {
        Some(entry) => BinaryPlan::new(entry.tree),
        // Disconnected queries (cross products) may leave gaps; fall back to
        // the greedy algorithm which always produces a plan.
        None => greedy_optimize(query, estimator, sets, options),
    }
}

/// Greedy operator ordering (GOO): repeatedly join the pair of components
/// with the smallest estimated result, preferring connected pairs.
fn greedy_optimize(
    query: &ConjunctiveQuery,
    estimator: &CardinalityEstimator<'_>,
    sets: &VarSets,
    options: OptimizerOptions,
) -> BinaryPlan {
    let n = query.num_atoms();
    let mut components: Vec<DpEntry> =
        (0..n).map(|i| DpEntry::leaf(query, estimator, sets, i)).collect();

    while components.len() > 1 {
        let mut best: Option<(usize, usize, DpEntry)> = None;
        let mut best_connected = false;
        for i in 0..components.len() {
            for j in (i + 1)..components.len() {
                let (ei, ej) = (&components[i], &components[j]);
                let connected = intersects(&ei.vars, &ej.vars);
                let Some(cand) = combine(estimator, sets, ei, ej, false, None) else {
                    continue;
                };
                let better = match &best {
                    None => true,
                    Some((_, _, b)) => {
                        // Prefer connected joins over cross products, then cost.
                        (connected && !best_connected)
                            || (connected == best_connected && cand.cost < b.cost)
                    }
                };
                if better {
                    best_connected = connected;
                    best = Some((i, j, cand));
                }
            }
        }
        let (i, j, entry) = best.expect("at least one pair exists");
        components.remove(j);
        components.remove(i);
        components.push(entry);
    }

    let plan = BinaryPlan::new(components.pop().expect("one component remains").tree);
    if options.left_deep_only && !plan.is_left_deep() {
        // Flatten to a left-deep plan over the same leaf order.
        return BinaryPlan::left_deep(&plan.leaves());
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::{Atom, QueryBuilder};
    use fj_storage::{Catalog, RelationBuilder, Schema};

    /// Catalog where R is much larger than S and T, and T is tiny.
    fn skewed_catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        for i in 0..2000i64 {
            r.push_ints(&[i % 100, i]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut s = RelationBuilder::new("S", Schema::all_int(&["y", "z"]));
        for i in 0..400i64 {
            s.push_ints(&[i, i % 20]).unwrap();
        }
        cat.add(s.finish()).unwrap();
        let mut t = RelationBuilder::new("T", Schema::all_int(&["z", "w"]));
        for i in 0..20i64 {
            t.push_ints(&[i, i]).unwrap();
        }
        cat.add(t.finish()).unwrap();
        cat
    }

    fn chain_query() -> ConjunctiveQuery {
        QueryBuilder::new("chain")
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "w"])
            .build()
    }

    #[test]
    fn single_atom_query() {
        let cat = skewed_catalog();
        let stats = CatalogStats::collect(&cat);
        let q = QueryBuilder::new("scan").atom("R", &["x", "y"]).build();
        let plan = optimize(&q, &stats, OptimizerOptions::default());
        assert_eq!(plan.root, PlanTree::Leaf(0));
    }

    #[test]
    fn chain_plan_covers_query_and_avoids_cross_products() {
        let cat = skewed_catalog();
        let stats = CatalogStats::collect(&cat);
        let q = chain_query();
        let plan = optimize(&q, &stats, OptimizerOptions::default());
        assert!(plan.covers_query(&q));
        // R and T share no variable, so they must not be joined directly.
        fn no_cross(tree: &PlanTree, q: &ConjunctiveQuery) -> bool {
            match tree {
                PlanTree::Leaf(_) => true,
                PlanTree::Join(l, r) => {
                    let lv: std::collections::BTreeSet<String> =
                        l.leaves().iter().flat_map(|&i| q.atoms[i].vars.clone()).collect();
                    let rv: std::collections::BTreeSet<String> =
                        r.leaves().iter().flat_map(|&i| q.atoms[i].vars.clone()).collect();
                    lv.intersection(&rv).next().is_some() && no_cross(l, q) && no_cross(r, q)
                }
            }
        }
        assert!(no_cross(&plan.root, &q));
    }

    #[test]
    fn larger_relation_goes_on_probe_side() {
        let cat = skewed_catalog();
        let stats = CatalogStats::collect(&cat);
        let q = QueryBuilder::new("two").atom("R", &["x", "y"]).atom("S", &["y", "z"]).build();
        let plan = optimize(&q, &stats, OptimizerOptions::default());
        // R (2000 rows) should be the left child, S (400 rows) the build side.
        match &plan.root {
            PlanTree::Join(l, r) => {
                assert_eq!(**l, PlanTree::Leaf(0));
                assert_eq!(**r, PlanTree::Leaf(1));
            }
            other => panic!("expected a join, got {other:?}"),
        }
    }

    #[test]
    fn left_deep_only_option_is_respected() {
        let cat = skewed_catalog();
        let stats = CatalogStats::collect(&cat);
        let q = chain_query();
        let opts = OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() };
        let plan = optimize(&q, &stats, opts);
        assert!(plan.is_left_deep());
        assert!(plan.covers_query(&q));
    }

    #[test]
    fn greedy_fallback_handles_many_atoms() {
        // A long chain query exceeding the DP threshold.
        let mut cat = Catalog::new();
        let mut atoms = Vec::new();
        for i in 0..15 {
            let cols = [format!("v{i}"), format!("v{}", i + 1)];
            let mut b = RelationBuilder::new(
                format!("E{i}"),
                Schema::all_int(&[cols[0].as_str(), cols[1].as_str()]),
            );
            for j in 0..50i64 {
                b.push_ints(&[j, j + 1]).unwrap();
            }
            cat.add(b.finish()).unwrap();
            atoms.push(Atom::new(format!("E{i}"), vec![cols[0].as_str(), cols[1].as_str()]));
        }
        let q = ConjunctiveQuery::new("long_chain", vec![], atoms);
        let stats = CatalogStats::collect(&cat);
        let plan = optimize(&q, &stats, OptimizerOptions::default());
        assert!(plan.covers_query(&q));
        assert_eq!(plan.num_joins(), 14);
    }

    #[test]
    fn bad_estimates_still_produce_a_complete_plan() {
        let cat = skewed_catalog();
        let stats = CatalogStats::collect(&cat);
        let q = chain_query();
        let plan = optimize(&q, &stats, OptimizerOptions::bad_estimates());
        assert!(plan.covers_query(&q));
    }

    #[test]
    fn disconnected_query_still_plans_via_cross_product() {
        let mut cat = Catalog::new();
        for name in ["A", "B"] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&[&format!("{name}_c")]));
            b.push_ints(&[1]).unwrap();
            cat.add(b.finish()).unwrap();
        }
        let q = ConjunctiveQuery::new(
            "cross",
            vec![],
            vec![Atom::new("A", vec!["a"]), Atom::new("B", vec!["b"])],
        );
        let stats = CatalogStats::collect(&cat);
        let plan = optimize(&q, &stats, OptimizerOptions::default());
        assert!(plan.covers_query(&q));
        assert_eq!(plan.num_joins(), 1);
    }

    #[test]
    #[should_panic(expected = "no atoms")]
    fn empty_query_panics() {
        let stats = CatalogStats::default();
        let q = ConjunctiveQuery::new("empty", vec![], vec![]);
        optimize(&q, &stats, OptimizerOptions::default());
    }
}
