//! Binary join plans and their decomposition into left-deep pipelines.
//!
//! Following Section 2.2 of the paper: a binary plan is a binary tree whose
//! leaves are query atoms and whose internal nodes are hash joins. A plan is
//! *left-deep* when the right child of every join is a leaf; anything else is
//! *bushy*. Bushy plans are executed by decomposing them into a collection of
//! left-deep pipelines: every join node that is a right child becomes the
//! root of a new pipeline whose result is materialized before the parent
//! pipeline runs.

use fj_query::ConjunctiveQuery;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A binary join plan tree. Leaves hold atom indices into the query's atom
/// list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanTree {
    /// A scan of the query atom with the given index.
    Leaf(usize),
    /// A hash join: iterate over the left child, probe a hash table built on
    /// the right child.
    Join(Box<PlanTree>, Box<PlanTree>),
}

impl PlanTree {
    /// All leaf atom indices, left to right.
    pub fn leaves(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<usize>) {
        match self {
            PlanTree::Leaf(i) => out.push(*i),
            PlanTree::Join(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }

    /// Is this subtree a left-deep linear plan?
    pub fn is_left_deep(&self) -> bool {
        match self {
            PlanTree::Leaf(_) => true,
            PlanTree::Join(l, r) => matches!(**r, PlanTree::Leaf(_)) && l.is_left_deep(),
        }
    }

    /// Number of join operators in the subtree.
    pub fn num_joins(&self) -> usize {
        match self {
            PlanTree::Leaf(_) => 0,
            PlanTree::Join(l, r) => 1 + l.num_joins() + r.num_joins(),
        }
    }

    /// Depth of the tree (a single leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            PlanTree::Leaf(_) => 1,
            PlanTree::Join(l, r) => 1 + l.depth().max(r.depth()),
        }
    }
}

/// A binary join plan for a specific query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryPlan {
    /// The plan tree.
    pub root: PlanTree,
}

impl BinaryPlan {
    /// Build a left-deep plan joining the atoms in the given order:
    /// `[a0, a1, a2]` becomes `(a0 ⋈ a1) ⋈ a2`.
    ///
    /// # Panics
    /// Panics on an empty order.
    pub fn left_deep(order: &[usize]) -> Self {
        assert!(!order.is_empty(), "cannot build a plan over zero atoms");
        let mut tree = PlanTree::Leaf(order[0]);
        for &atom in &order[1..] {
            tree = PlanTree::Join(Box::new(tree), Box::new(PlanTree::Leaf(atom)));
        }
        BinaryPlan { root: tree }
    }

    /// Build a plan from an explicit tree.
    pub fn new(root: PlanTree) -> Self {
        BinaryPlan { root }
    }

    /// The atom indices in the plan, left to right.
    pub fn leaves(&self) -> Vec<usize> {
        self.root.leaves()
    }

    /// Is the whole plan left-deep?
    pub fn is_left_deep(&self) -> bool {
        self.root.is_left_deep()
    }

    /// Number of joins.
    pub fn num_joins(&self) -> usize {
        self.root.num_joins()
    }

    /// Check that the plan covers exactly the atoms of the query, each once.
    pub fn covers_query(&self, query: &ConjunctiveQuery) -> bool {
        let mut leaves = self.leaves();
        leaves.sort_unstable();
        leaves.dedup();
        leaves.len() == self.root.leaves().len()
            && leaves == (0..query.num_atoms()).collect::<Vec<_>>()
    }

    /// Decompose into left-deep pipelines (Section 2.2): every join that is a
    /// right child becomes its own pipeline, materialized before its parent.
    /// The returned pipelines are ordered so that a pipeline appears after
    /// every pipeline it depends on; the last pipeline computes the query
    /// result.
    pub fn decompose(&self) -> DecomposedPlan {
        let mut pipelines = Vec::new();
        let root_pipeline = decompose_tree(&self.root, &mut pipelines);
        pipelines.push(root_pipeline);
        // Assign ids by position.
        for (i, p) in pipelines.iter_mut().enumerate() {
            p.id = i;
        }
        DecomposedPlan { pipelines }
    }

    /// Render the plan with atom aliases for debugging, e.g.
    /// `((R ⋈ S) ⋈ (T ⋈ U))`.
    pub fn display<'a>(&'a self, query: &'a ConjunctiveQuery) -> impl fmt::Display + 'a {
        struct D<'a>(&'a PlanTree, &'a ConjunctiveQuery);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    PlanTree::Leaf(i) => write!(f, "{}", self.1.atoms[*i].alias),
                    PlanTree::Join(l, r) => {
                        write!(f, "({} ⋈ {})", D(l, self.1), D(r, self.1))
                    }
                }
            }
        }
        D(&self.root, query)
    }
}

/// Recursively decompose a tree. Returns the pipeline computing `tree`;
/// pipelines for right-child joins are appended to `pipelines` (already in
/// dependency order).
fn decompose_tree(tree: &PlanTree, pipelines: &mut Vec<Pipeline>) -> Pipeline {
    match tree {
        PlanTree::Leaf(i) => Pipeline { id: 0, inputs: vec![PipeInput::Atom(*i)] },
        PlanTree::Join(l, r) => {
            // The left subtree extends the current pipeline; a non-leaf right
            // subtree becomes a separate, earlier pipeline.
            let mut pipeline = decompose_tree(l, pipelines);
            let right_input = match &**r {
                PlanTree::Leaf(i) => PipeInput::Atom(*i),
                join => {
                    let sub = decompose_tree(join, pipelines);
                    pipelines.push(sub);
                    // The id is fixed up by `BinaryPlan::decompose`; here we
                    // reference it by its position in `pipelines`.
                    PipeInput::Intermediate(pipelines.len() - 1)
                }
            };
            pipeline.inputs.push(right_input);
            pipeline
        }
    }
}

/// One input of a left-deep pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipeInput {
    /// A base atom of the query (index into `query.atoms`).
    Atom(usize),
    /// The materialized result of an earlier pipeline (index into
    /// [`DecomposedPlan::pipelines`]).
    Intermediate(usize),
}

/// A left-deep pipeline: iterate over the first input, probe the remaining
/// inputs in order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pipeline {
    /// Position of this pipeline in the decomposed plan.
    pub id: usize,
    /// Inputs in join order; the first is the iterated (left-most) input.
    pub inputs: Vec<PipeInput>,
}

/// A bushy plan decomposed into left-deep pipelines, in dependency order
/// (a pipeline only references intermediates with a smaller index). The last
/// pipeline produces the query result.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecomposedPlan {
    /// The pipelines, dependency-ordered.
    pub pipelines: Vec<Pipeline>,
}

impl DecomposedPlan {
    /// The variables bound by a pipeline input: an atom's variables, or for
    /// an intermediate the union (in first-appearance order) of the variables
    /// of the pipeline that produced it. Intermediates materialize all
    /// base-table attributes, as described in Section 5.2 of the paper.
    pub fn input_vars(&self, query: &ConjunctiveQuery, input: PipeInput) -> Vec<String> {
        match input {
            PipeInput::Atom(i) => query.atoms[i].vars.clone(),
            PipeInput::Intermediate(p) => self.pipeline_vars(query, p),
        }
    }

    /// The variables produced by pipeline `p` (union of its inputs' variables
    /// in first-appearance order).
    pub fn pipeline_vars(&self, query: &ConjunctiveQuery, p: usize) -> Vec<String> {
        union_in_order(&self.pipeline_input_vars(query, p))
    }

    /// Variable lists for every input of pipeline `p`, in input order. This
    /// is the `input_vars` argument taken by `binary2fj`, `factor` and the
    /// execution engines.
    pub fn pipeline_input_vars(&self, query: &ConjunctiveQuery, p: usize) -> Vec<Vec<String>> {
        self.pipelines[p].inputs.iter().map(|&i| self.input_vars(query, i)).collect()
    }

    /// [`DecomposedPlan::pipeline_input_vars`] of every pipeline with the
    /// *dead* variables removed (liveness analysis for the plan compiler).
    ///
    /// A variable is **live** in a pipeline when something reads it: it
    /// occurs twice among the pipeline's inputs (a join, or a self-equality
    /// inside one atom), or it is read after the pipeline — by the query
    /// output (`output_vars`: the head, the grouping variables, nothing for
    /// a count) or by an atom joined in by a later pipeline. Every other
    /// variable is bound by one input and read by nothing; dropping it from
    /// the input's list makes the plan built from these lists never iterate
    /// it, and the rows it distinguished fold into a trie-leaf multiplicity.
    ///
    /// An intermediate input carries exactly the live variables of the
    /// pipeline that produced it, so a column nobody reads is dropped at the
    /// first pipeline that could carry it.
    pub fn live_input_vars(
        &self,
        query: &ConjunctiveQuery,
        output_vars: &[String],
    ) -> Vec<Vec<Vec<String>>> {
        let mut live: Vec<Vec<Vec<String>>> = Vec::with_capacity(self.len());
        for (p, pipeline) in self.pipelines.iter().enumerate() {
            let below = self.atoms_below(p);
            let mut read_later: BTreeSet<&str> = output_vars.iter().map(String::as_str).collect();
            for (a, atom) in query.atoms.iter().enumerate() {
                if !below.contains(&a) {
                    read_later.extend(atom.vars.iter().map(String::as_str));
                }
            }
            let inputs: Vec<Vec<String>> = pipeline
                .inputs
                .iter()
                .map(|&input| match input {
                    PipeInput::Atom(a) => query.atoms[a].vars.clone(),
                    PipeInput::Intermediate(j) => union_in_order(&live[j]),
                })
                .collect();
            let occurrences = |var: &String| inputs.iter().flatten().filter(|v| *v == var).count();
            let pruned = inputs
                .iter()
                .map(|vars| {
                    vars.iter()
                        .filter(|v| read_later.contains(v.as_str()) || occurrences(v) >= 2)
                        .cloned()
                        .collect()
                })
                .collect();
            live.push(pruned);
        }
        live
    }

    /// The query atoms joined by pipeline `p`, directly or through the
    /// intermediates it consumes.
    fn atoms_below(&self, p: usize) -> BTreeSet<usize> {
        let mut atoms = BTreeSet::new();
        for &input in &self.pipelines[p].inputs {
            match input {
                PipeInput::Atom(a) => {
                    atoms.insert(a);
                }
                PipeInput::Intermediate(j) => atoms.extend(self.atoms_below(j)),
            }
        }
        atoms
    }

    /// Index of the final (result-producing) pipeline.
    pub fn root_pipeline(&self) -> usize {
        self.pipelines.len() - 1
    }

    /// Total number of pipelines.
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// True when the plan has no pipelines (never the case for valid plans;
    /// provided for API completeness alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// True when the plan decomposed into a single pipeline (i.e. the binary
    /// plan was left-deep).
    pub fn is_single_pipeline(&self) -> bool {
        self.pipelines.len() == 1
    }
}

/// The variables of several lists, each once, in first-appearance order.
fn union_in_order(lists: &[Vec<String>]) -> Vec<String> {
    let mut seen = BTreeSet::new();
    lists.iter().flatten().filter(|v| seen.insert(v.as_str())).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::Atom;

    fn chain_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            "chain",
            vec![],
            vec![
                Atom::new("R", vec!["x", "y"]),
                Atom::new("S", vec!["y", "z"]),
                Atom::new("T", vec!["z", "u"]),
                Atom::new("W", vec!["u", "v"]),
            ],
        )
    }

    #[test]
    fn left_deep_construction() {
        let p = BinaryPlan::left_deep(&[0, 1, 2]);
        assert!(p.is_left_deep());
        assert_eq!(p.leaves(), vec![0, 1, 2]);
        assert_eq!(p.num_joins(), 2);
        assert_eq!(p.root.depth(), 3);
    }

    #[test]
    fn bushy_plan_detection() {
        // (R ⋈ S) ⋈ (T ⋈ W)
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        assert!(!bushy.is_left_deep());
        assert_eq!(bushy.leaves(), vec![0, 1, 2, 3]);
        assert!(bushy.covers_query(&chain_query()));
    }

    #[test]
    fn left_deep_decomposes_to_single_pipeline() {
        let p = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        let d = p.decompose();
        assert!(d.is_single_pipeline());
        assert_eq!(
            d.pipelines[0].inputs,
            vec![PipeInput::Atom(0), PipeInput::Atom(1), PipeInput::Atom(2), PipeInput::Atom(3)]
        );
    }

    #[test]
    fn bushy_decomposes_into_two_pipelines() {
        // The paper's example: (R ⋈ S) ⋈ (T ⋈ U) becomes P1 = T ⋈ U and
        // P2 = (R ⋈ S) ⋈ P1.
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let d = bushy.decompose();
        assert_eq!(d.len(), 2);
        assert_eq!(d.pipelines[0].inputs, vec![PipeInput::Atom(2), PipeInput::Atom(3)]);
        assert_eq!(
            d.pipelines[1].inputs,
            vec![PipeInput::Atom(0), PipeInput::Atom(1), PipeInput::Intermediate(0)]
        );
        assert_eq!(d.root_pipeline(), 1);
    }

    #[test]
    fn deep_bushy_plan_orders_pipelines_by_dependency() {
        // ((R ⋈ (S ⋈ T)) ⋈ W): the inner S ⋈ T is a right child.
        let plan = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(
                Box::new(PlanTree::Leaf(0)),
                Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(1)), Box::new(PlanTree::Leaf(2)))),
            )),
            Box::new(PlanTree::Leaf(3)),
        ));
        let d = plan.decompose();
        assert_eq!(d.len(), 2);
        assert_eq!(d.pipelines[0].inputs, vec![PipeInput::Atom(1), PipeInput::Atom(2)]);
        assert_eq!(
            d.pipelines[1].inputs,
            vec![PipeInput::Atom(0), PipeInput::Intermediate(0), PipeInput::Atom(3)]
        );
    }

    #[test]
    fn input_vars_for_atoms_and_intermediates() {
        let q = chain_query();
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let d = bushy.decompose();
        assert_eq!(d.input_vars(&q, PipeInput::Atom(0)), vec!["x", "y"]);
        // Intermediate 0 is T ⋈ W with variables z, u, v.
        assert_eq!(d.input_vars(&q, PipeInput::Intermediate(0)), vec!["z", "u", "v"]);
        assert_eq!(d.pipeline_vars(&q, 1), vec!["x", "y", "z", "u", "v"]);
        let vars = d.pipeline_input_vars(&q, 1);
        assert_eq!(vars.len(), 3);
        assert_eq!(vars[2], vec!["z", "u", "v"]);
    }

    fn names(lists: &[&[&str]]) -> Vec<Vec<String>> {
        lists.iter().map(|l| l.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn liveness_keeps_joins_and_output_vars_only() {
        let q = chain_query();
        let d = BinaryPlan::left_deep(&[0, 1, 2, 3]).decompose();
        // A count reads nothing: the chain's end points x and v are dead.
        assert_eq!(
            d.live_input_vars(&q, &[]),
            vec![names(&[&["y"], &["y", "z"], &["z", "u"], &["u"]])]
        );
        // A variable the output reads stays, wherever it is bound.
        assert_eq!(
            d.live_input_vars(&q, &["v".to_string()]),
            vec![names(&[&["y"], &["y", "z"], &["z", "u"], &["u", "v"]])]
        );
        // With the full head nothing is dead: the unpruned lists come back.
        assert_eq!(d.live_input_vars(&q, &q.head), vec![d.pipeline_input_vars(&q, 0)]);
    }

    #[test]
    fn liveness_keeps_a_variable_repeated_inside_one_atom() {
        // R(x, x, a) is a self-equality on x: read by the atom itself.
        let q = ConjunctiveQuery::new("q", vec![], vec![Atom::new("R", vec!["x", "x", "a"])]);
        let d = BinaryPlan::left_deep(&[0]).decompose();
        assert_eq!(d.live_input_vars(&q, &[]), vec![names(&[&["x", "x"]])]);
    }

    #[test]
    fn liveness_across_bushy_pipelines() {
        // (R ⋈ S) ⋈ (T ⋈ W): P0 = T(z,u) ⋈ W(u,v), P1 = R(x,y) ⋈ S(y,z) ⋈ P0.
        let q = chain_query();
        let bushy = BinaryPlan::new(PlanTree::Join(
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(0)), Box::new(PlanTree::Leaf(1)))),
            Box::new(PlanTree::Join(Box::new(PlanTree::Leaf(2)), Box::new(PlanTree::Leaf(3)))),
        ));
        let live = bushy.decompose().live_input_vars(&q, &[]);
        // P0: z is read later (S joins on it), u is P0's own join, v is dead.
        assert_eq!(live[0], names(&[&["z", "u"], &["u"]]));
        // P1: the intermediate arrives as (z, u); u was only P0's join key,
        // so the final pipeline does not read it — and x is dead as before.
        assert_eq!(live[1], names(&[&["y"], &["y", "z"], &["z"]]));
    }

    #[test]
    fn covers_query_rejects_missing_or_duplicate_atoms() {
        let q = chain_query();
        assert!(!BinaryPlan::left_deep(&[0, 1, 2]).covers_query(&q));
        assert!(!BinaryPlan::left_deep(&[0, 1, 2, 2]).covers_query(&q));
        assert!(BinaryPlan::left_deep(&[3, 2, 1, 0]).covers_query(&q));
    }

    #[test]
    fn display_renders_tree() {
        let q = chain_query();
        let p = BinaryPlan::left_deep(&[0, 1, 2, 3]);
        assert_eq!(p.display(&q).to_string(), "(((R ⋈ S) ⋈ T) ⋈ W)");
    }

    #[test]
    #[should_panic(expected = "zero atoms")]
    fn empty_left_deep_panics() {
        BinaryPlan::left_deep(&[]);
    }
}
