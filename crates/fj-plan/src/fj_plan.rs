//! Free Join plans (Definition 3.5 of the paper).
//!
//! A Free Join plan is a list of *nodes*, each a list of [`Subatom`]s. Every
//! input relation of the pipeline is partitioned by its subatoms across the
//! nodes. A plan is *valid* (Definition 3.7) when within each node no two
//! subatoms come from the same input, and some subatom (a *cover*) contains
//! every variable of the node that is not already available from earlier
//! nodes.
//!
//! Plans in this crate are expressed over the inputs of a single left-deep
//! pipeline (see [`crate::binary_plan::Pipeline`]); subatoms reference inputs
//! by their position in the pipeline and carry the subset of that input's
//! variables they expose.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A subatom `R(y)` — a subset of the variables of one pipeline input.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Subatom {
    /// Index of the input (into the pipeline's input list).
    pub input: usize,
    /// The variables exposed by this subatom, in the input's variable order.
    pub vars: Vec<String>,
}

impl Subatom {
    /// Create a subatom.
    pub fn new(input: usize, vars: Vec<String>) -> Self {
        Subatom { input, vars }
    }
}

/// One node of a Free Join plan: a set of subatoms joined together in one
/// step. By convention the first subatom is the statically-chosen cover
/// (the relation iterated over); the remaining subatoms are probed.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FjNode {
    /// The subatoms of this node; the first is the default cover.
    pub subatoms: Vec<Subatom>,
}

impl FjNode {
    /// Create a node from subatoms.
    pub fn new(subatoms: Vec<Subatom>) -> Self {
        FjNode { subatoms }
    }

    /// The set of variables appearing in this node, `vs(φ)` in the paper.
    pub fn vars(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for s in &self.subatoms {
            for v in &s.vars {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Does any subatom of this node reference the given input?
    pub fn references_input(&self, input: usize) -> bool {
        self.subatoms.iter().any(|s| s.input == input)
    }
}

/// Why a Free Join plan is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanValidityError {
    /// A node is empty.
    EmptyNode { node: usize },
    /// Two subatoms in the same node reference the same input
    /// (Definition 3.7 (a)).
    DuplicateInputInNode { node: usize, input: usize },
    /// No subatom of the node covers the new variables
    /// (Definition 3.7 (b)).
    NoCover { node: usize },
    /// The subatoms across all nodes do not partition an input's variables.
    NotAPartition { input: usize },
    /// A subatom references a variable its input does not have.
    UnknownVariable { node: usize, input: usize, var: String },
    /// A subatom references an input index outside the pipeline.
    UnknownInput { node: usize, input: usize },
}

impl fmt::Display for PlanValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanValidityError::EmptyNode { node } => write!(f, "node {node} is empty"),
            PlanValidityError::DuplicateInputInNode { node, input } => {
                write!(f, "node {node} references input {input} more than once")
            }
            PlanValidityError::NoCover { node } => {
                write!(f, "node {node} has no subatom covering its new variables")
            }
            PlanValidityError::NotAPartition { input } => {
                write!(f, "the subatoms of input {input} do not partition its variables")
            }
            PlanValidityError::UnknownVariable { node, input, var } => {
                write!(f, "node {node}: input {input} has no variable {var}")
            }
            PlanValidityError::UnknownInput { node, input } => {
                write!(f, "node {node} references unknown input {input}")
            }
        }
    }
}

impl std::error::Error for PlanValidityError {}

/// A Free Join plan over the inputs of one pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FreeJoinPlan {
    /// The nodes, executed as nested loops from first to last.
    pub nodes: Vec<FjNode>,
}

impl FreeJoinPlan {
    /// Create a plan from nodes.
    pub fn new(nodes: Vec<FjNode>) -> Self {
        FreeJoinPlan { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The available variables before node `k`: `avs(φ_k)`, the union of the
    /// variables of all earlier nodes.
    pub fn available_vars(&self, k: usize) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for node in &self.nodes[..k] {
            out.extend(node.vars());
        }
        out
    }

    /// The *new* variables bound by node `k`: `vs(φ_k) - avs(φ_k)`.
    pub fn new_vars(&self, k: usize) -> Vec<String> {
        let avs = self.available_vars(k);
        self.nodes[k].vars().into_iter().filter(|v| !avs.contains(v)).collect()
    }

    /// Indices (within node `k`) of subatoms that are covers of node `k`:
    /// subatoms containing all of the node's new variables.
    pub fn covers(&self, k: usize) -> Vec<usize> {
        let new_vars: BTreeSet<String> = self.new_vars(k).into_iter().collect();
        self.nodes[k]
            .subatoms
            .iter()
            .enumerate()
            .filter(|(_, s)| new_vars.iter().all(|v| s.vars.contains(v)))
            .map(|(i, _)| i)
            .collect()
    }

    /// All variables bound by the plan, in binding order.
    pub fn all_vars(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for node in &self.nodes {
            for v in node.vars() {
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// For each input, the list of its subatoms' variable lists in node
    /// order. This is the GHT schema of the input *before* the trailing
    /// vector level is decided (see [`FreeJoinPlan::ght_schemas`]).
    pub fn subatom_vars_per_input(&self, num_inputs: usize) -> Vec<Vec<Vec<String>>> {
        let mut out = vec![Vec::new(); num_inputs];
        for node in &self.nodes {
            for s in &node.subatoms {
                if s.input < num_inputs {
                    out[s.input].push(s.vars.clone());
                }
            }
        }
        out
    }

    /// Compute the GHT schema of every input (Section 3.3, "Build Phase").
    ///
    /// The schema of input `i` is the list of its subatoms' variable lists in
    /// node order, followed by a trailing empty level (a vector of the
    /// remaining tuple), *except* when the input's last subatom is the
    /// statically designated cover (first subatom) of its node, in which case
    /// the last level is stored as a vector of those variables directly.
    ///
    /// The schema says how an input is *addressed*, not what is built: the
    /// engine's lazy trie builds a level when a probe has to descend through
    /// it, walks a level with nothing keyed below it — trailing empty level
    /// or not, so also the `T(z)` a split leaves as a second cover — row by
    /// row, and answers a final probe into a small node by scanning it.
    pub fn ght_schemas(&self, input_vars: &[Vec<String>]) -> Vec<Vec<Vec<String>>> {
        let mut schemas = self.subatom_vars_per_input(input_vars.len());
        for (input, schema) in schemas.iter_mut().enumerate() {
            // Find the last node referencing this input and whether the
            // subatom there is the node's first (the designated cover).
            let mut last_is_cover = false;
            for node in &self.nodes {
                for (j, s) in node.subatoms.iter().enumerate() {
                    if s.input == input {
                        last_is_cover = j == 0;
                    }
                }
            }
            if !last_is_cover || schema.is_empty() {
                schema.push(Vec::new());
            }
        }
        schemas
    }

    /// Remove every subatom that has no variables — unless it is the only
    /// subatom of its input, which must stay in the plan to contribute the
    /// input's row count. Iterating or probing an empty key finds the one
    /// entry standing for every remaining row of the input, so the step does
    /// nothing but multiply the multiplicity; without it the input's previous
    /// subatom becomes its last, and the executor reads the same
    /// multiplicity off the trie node that subatom reaches.
    ///
    /// A node left with nothing but probes on already-bound variables (its
    /// cover was such a subatom) moves to the end of the previous node, where
    /// those variables were bound, instead of iterating a whole trie level
    /// to check one already-bound key.
    ///
    /// Plans converted from a binary plan over live-variable lists (see
    /// `DecomposedPlan::live_input_vars`) are full of such subatoms; a valid
    /// plan stays valid.
    pub fn prune_empty_subatoms(&mut self) {
        let mut left_of_input: Vec<usize> = Vec::new();
        for s in self.nodes.iter().flat_map(|n| &n.subatoms) {
            if left_of_input.len() <= s.input {
                left_of_input.resize(s.input + 1, 0);
            }
            left_of_input[s.input] += 1;
        }
        let mut bound: BTreeSet<String> = BTreeSet::new();
        let mut nodes: Vec<FjNode> = Vec::with_capacity(self.nodes.len());
        for mut node in std::mem::take(&mut self.nodes) {
            node.subatoms.retain(|s| {
                let keep = !s.vars.is_empty() || left_of_input[s.input] == 1;
                if !keep {
                    left_of_input[s.input] -= 1;
                }
                keep
            });
            let only_probes = node
                .subatoms
                .iter()
                .all(|s| !s.vars.is_empty() && s.vars.iter().all(|v| bound.contains(v)));
            match nodes.last_mut() {
                Some(prev)
                    if only_probes
                        && node.subatoms.iter().all(|s| !prev.references_input(s.input)) =>
                {
                    prev.subatoms.append(&mut node.subatoms);
                }
                _ if node.subatoms.is_empty() => {}
                _ => {
                    bound.extend(node.vars());
                    nodes.push(node);
                }
            }
        }
        self.nodes = nodes;
    }

    /// Check validity (Definition 3.7) against the inputs' variable lists.
    pub fn validate(&self, input_vars: &[Vec<String>]) -> Result<(), PlanValidityError> {
        // Per-node checks.
        for (k, node) in self.nodes.iter().enumerate() {
            if node.subatoms.is_empty() {
                return Err(PlanValidityError::EmptyNode { node: k });
            }
            let mut seen_inputs = BTreeSet::new();
            for s in &node.subatoms {
                if s.input >= input_vars.len() {
                    return Err(PlanValidityError::UnknownInput { node: k, input: s.input });
                }
                if !seen_inputs.insert(s.input) {
                    return Err(PlanValidityError::DuplicateInputInNode {
                        node: k,
                        input: s.input,
                    });
                }
                for v in &s.vars {
                    if !input_vars[s.input].contains(v) {
                        return Err(PlanValidityError::UnknownVariable {
                            node: k,
                            input: s.input,
                            var: v.clone(),
                        });
                    }
                }
            }
            if self.covers(k).is_empty() {
                return Err(PlanValidityError::NoCover { node: k });
            }
        }
        // Partitioning check: each input's variables are exactly the disjoint
        // union of its subatoms' variables.
        for (input, vars) in input_vars.iter().enumerate() {
            let mut covered = BTreeSet::new();
            for node in &self.nodes {
                for s in &node.subatoms {
                    if s.input != input {
                        continue;
                    }
                    for v in &s.vars {
                        if !covered.insert(v.clone()) {
                            return Err(PlanValidityError::NotAPartition { input });
                        }
                    }
                }
            }
            let expected: BTreeSet<String> = vars.iter().cloned().collect();
            if covered != expected {
                return Err(PlanValidityError::NotAPartition { input });
            }
        }
        Ok(())
    }
}

impl fmt::Display for FreeJoinPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (k, node) in self.nodes.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[")?;
            for (j, s) in node.subatoms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "#{}({})", s.input, s.vars.join(","))?;
            }
            write!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(input: usize, vars: &[&str]) -> Subatom {
        Subatom::new(input, vars.iter().map(|v| v.to_string()).collect())
    }

    /// The clover query Q♣ with inputs R(x,a), S(x,b), T(x,c).
    fn clover_inputs() -> Vec<Vec<String>> {
        vec![
            vec!["x".into(), "a".into()],
            vec!["x".into(), "b".into()],
            vec!["x".into(), "c".into()],
        ]
    }

    /// The paper's Eq. (2): [[R(x,a), S(x)], [S(b), T(x)], [T(c)]].
    fn clover_binary_style() -> FreeJoinPlan {
        FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x", "a"]), s(1, &["x"])]),
            FjNode::new(vec![s(1, &["b"]), s(2, &["x"])]),
            FjNode::new(vec![s(2, &["c"])]),
        ])
    }

    /// The paper's Eq. (3): [[R(x), S(x), T(x)], [R(a)], [S(b)], [T(c)]].
    fn clover_gj_style() -> FreeJoinPlan {
        FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x"]), s(1, &["x"]), s(2, &["x"])]),
            FjNode::new(vec![s(0, &["a"])]),
            FjNode::new(vec![s(1, &["b"])]),
            FjNode::new(vec![s(2, &["c"])]),
        ])
    }

    #[test]
    fn both_paper_plans_are_valid() {
        clover_binary_style().validate(&clover_inputs()).unwrap();
        clover_gj_style().validate(&clover_inputs()).unwrap();
    }

    #[test]
    fn single_node_plan_with_all_vars_is_invalid() {
        // Example 3.9: [[R(x,a), S(x,b), T(x,c)]] has no cover.
        let plan = FreeJoinPlan::new(vec![FjNode::new(vec![
            s(0, &["x", "a"]),
            s(1, &["x", "b"]),
            s(2, &["x", "c"]),
        ])]);
        assert_eq!(plan.validate(&clover_inputs()), Err(PlanValidityError::NoCover { node: 0 }));
    }

    #[test]
    fn available_and_new_vars() {
        let plan = clover_binary_style();
        assert!(plan.available_vars(0).is_empty());
        assert_eq!(plan.new_vars(0), vec!["x", "a"]);
        assert_eq!(
            plan.available_vars(1),
            ["x", "a"].iter().map(|s| s.to_string()).collect::<BTreeSet<_>>()
        );
        assert_eq!(plan.new_vars(1), vec!["b"]);
        assert_eq!(plan.new_vars(2), vec!["c"]);
        assert_eq!(plan.all_vars(), vec!["x", "a", "b", "c"]);
    }

    #[test]
    fn covers_of_each_node() {
        let plan = clover_binary_style();
        assert_eq!(plan.covers(0), vec![0]); // R(x,a)
        assert_eq!(plan.covers(1), vec![0]); // S(b)
        assert_eq!(plan.covers(2), vec![0]); // T(c)

        let gj = clover_gj_style();
        // Every subatom of the first GJ node covers {x}.
        assert_eq!(gj.covers(0), vec![0, 1, 2]);
    }

    #[test]
    fn validity_rejects_duplicate_input_in_node() {
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x"]), s(0, &["a"])]),
            FjNode::new(vec![s(1, &["x", "b"]), s(2, &["x", "c"])]),
        ]);
        assert_eq!(
            plan.validate(&clover_inputs()),
            Err(PlanValidityError::DuplicateInputInNode { node: 0, input: 0 })
        );
    }

    #[test]
    fn validity_rejects_bad_partitioning() {
        // S's variable b never appears.
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x", "a"]), s(1, &["x"])]),
            FjNode::new(vec![s(2, &["x", "c"])]),
        ]);
        assert_eq!(
            plan.validate(&clover_inputs()),
            Err(PlanValidityError::NotAPartition { input: 1 })
        );

        // R's variable x appears twice.
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x", "a"]), s(1, &["x"])]),
            FjNode::new(vec![s(0, &["x"]), s(1, &["b"])]),
            FjNode::new(vec![s(2, &["x", "c"])]),
        ]);
        assert_eq!(
            plan.validate(&clover_inputs()),
            Err(PlanValidityError::NotAPartition { input: 0 })
        );
    }

    #[test]
    fn validity_rejects_unknown_vars_and_inputs() {
        let plan = FreeJoinPlan::new(vec![FjNode::new(vec![s(0, &["q"])])]);
        assert!(matches!(
            plan.validate(&clover_inputs()),
            Err(PlanValidityError::UnknownVariable { .. })
        ));
        let plan = FreeJoinPlan::new(vec![FjNode::new(vec![s(9, &["x"])])]);
        assert!(matches!(
            plan.validate(&clover_inputs()),
            Err(PlanValidityError::UnknownInput { .. })
        ));
        let plan = FreeJoinPlan::new(vec![FjNode::default()]);
        assert_eq!(plan.validate(&clover_inputs()), Err(PlanValidityError::EmptyNode { node: 0 }));
    }

    #[test]
    fn ght_schemas_for_binary_style_plan() {
        // Example 3.10: schemas for R, S, T are [[x,a]], [[x],[b]], [[x],[c]]
        // — R is a flat vector, S and T are hash maps of vectors.
        let plan = clover_binary_style();
        let schemas = plan.ght_schemas(&clover_inputs());
        assert_eq!(schemas[0], vec![vec!["x".to_string(), "a".to_string()]]);
        assert_eq!(schemas[1], vec![vec!["x".to_string()], vec!["b".to_string()]]);
        assert_eq!(schemas[2], vec![vec!["x".to_string()], vec!["c".to_string()]]);
    }

    #[test]
    fn ght_schemas_add_trailing_vector_for_non_cover_last_subatom() {
        // Triangle query with plan [[R(x,y), S(y), T(x)], [S(z), T(z)]]
        // (Example 3.10): T's schema is [[x],[z],[]] because T(z) is not the
        // cover of node 2.
        let inputs = vec![
            vec!["x".into(), "y".into()],
            vec!["y".into(), "z".into()],
            vec!["z".into(), "x".into()],
        ];
        let plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x", "y"]), s(1, &["y"]), s(2, &["x"])]),
            FjNode::new(vec![s(1, &["z"]), s(2, &["z"])]),
        ]);
        plan.validate(&inputs).unwrap();
        let schemas = plan.ght_schemas(&inputs);
        assert_eq!(schemas[0], vec![vec!["x".to_string(), "y".to_string()]]);
        assert_eq!(schemas[1], vec![vec!["y".to_string()], vec!["z".to_string()]]);
        assert_eq!(
            schemas[2],
            vec![vec!["x".to_string()], vec!["z".to_string()], Vec::<String>::new()]
        );
    }

    #[test]
    fn prune_empty_subatoms_folds_iteration_free_steps() {
        // The clover with a, b, c pruned, as `binary2fj` converts it.
        let inputs = vec![vec!["x".to_string()]; 3];
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x"]), s(1, &["x"])]),
            FjNode::new(vec![s(1, &[]), s(2, &["x"])]),
            FjNode::new(vec![s(2, &[])]),
        ]);
        plan.prune_empty_subatoms();
        // S() and T() iterate nothing; T(x) probes where x was bound.
        assert_eq!(
            plan,
            FreeJoinPlan::new(vec![FjNode::new(vec![s(0, &["x"]), s(1, &["x"]), s(2, &["x"])])])
        );
        plan.validate(&inputs).unwrap();

        // The triangle's trailing T() goes; nothing else changes.
        let mut triangle = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x", "y"]), s(1, &["y"])]),
            FjNode::new(vec![s(1, &["z"]), s(2, &["z", "x"])]),
            FjNode::new(vec![s(2, &[])]),
        ]);
        triangle.prune_empty_subatoms();
        assert_eq!(triangle.to_string(), "[[#0(x,y), #1(y)], [#1(z), #2(z,x)]]");
    }

    #[test]
    fn prune_empty_subatoms_keeps_an_inputs_only_subatom() {
        // A single atom with every variable pruned still counts its rows.
        let mut scan = FreeJoinPlan::new(vec![FjNode::new(vec![s(0, &[])])]);
        scan.prune_empty_subatoms();
        assert_eq!(scan.to_string(), "[[#0()]]");
        scan.validate(&[vec![]]).unwrap();

        // A Cartesian factor (input 2 shares nothing) keeps exactly one
        // subatom, as a node of its own: its row count is one iteration step.
        let mut product = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x"]), s(1, &["x"])]),
            FjNode::new(vec![s(1, &[]), s(2, &[])]),
            FjNode::new(vec![s(2, &[])]),
        ]);
        product.prune_empty_subatoms();
        assert_eq!(product.to_string(), "[[#0(x), #1(x)], [#2()]]");
        product.validate(&[vec!["x".into()], vec!["x".into()], vec![]]).unwrap();
    }

    #[test]
    fn prune_empty_subatoms_respects_one_subatom_per_input_and_node() {
        // Node 1 loses its cover #0(), but node 0 already probes input 1:
        // #1(y) stays a node of its own (a cover that binds nothing new).
        let inputs = vec![vec!["x".to_string(), "y".to_string()]; 2];
        let mut plan = FreeJoinPlan::new(vec![
            FjNode::new(vec![s(0, &["x", "y"]), s(1, &["x"])]),
            FjNode::new(vec![s(0, &[]), s(1, &["y"])]),
        ]);
        plan.prune_empty_subatoms();
        assert_eq!(plan.to_string(), "[[#0(x,y), #1(x)], [#1(y)]]");
        plan.validate(&inputs).unwrap();
    }

    #[test]
    fn display_shows_structure() {
        let plan = clover_binary_style();
        assert_eq!(plan.to_string(), "[[#0(x,a), #1(x)], [#1(b), #2(x)], [#2(c)]]");
    }
}
