//! Full conjunctive queries.

use crate::atom::Atom;
use crate::output::{Aggregate, ExecStats};
use fj_storage::Catalog;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Why a query execution was cancelled before running to completion.
///
/// Carried inside [`QueryError::Cancelled`]; the engine's cooperative
/// cancellation token records exactly one reason (the first trip wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CancelReason {
    /// The per-query deadline elapsed while the join was running.
    Deadline,
    /// An external caller (e.g. a serve-path `OP_CANCEL` frame) requested
    /// cancellation.
    Explicit,
    /// The query's result-buffer accounting exceeded the byte budget its
    /// cancel token was armed with.
    MemoryBudget,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Deadline => write!(f, "deadline exceeded"),
            CancelReason::Explicit => write!(f, "cancelled by caller"),
            CancelReason::MemoryBudget => write!(f, "result memory budget exceeded"),
        }
    }
}

/// Errors raised when validating a query against a catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query has no atoms.
    Empty,
    /// Two atoms share an alias.
    DuplicateAlias(String),
    /// An atom binds the same variable twice.
    DuplicateVarInAtom { alias: String, var: String },
    /// The atom references a relation that is not in the catalog.
    UnknownRelation { alias: String, relation: String },
    /// The atom's arity does not match its relation's arity.
    ArityMismatch { alias: String, expected: usize, found: usize },
    /// A filter references a column that the relation does not have.
    UnknownFilterColumn { alias: String, column: String },
    /// A head variable does not appear in any atom.
    UnknownHeadVar(String),
    /// An output (head or group-by) variable is not bound by the engine's
    /// binding order — raised by [`crate::OutputBuilder::try_new`] when an
    /// execution plan fails to bind a variable the output needs.
    UnboundOutputVar(String),
    /// The join graph is disconnected (cross products are not supported by
    /// the execution engines).
    Disconnected,
    /// Execution was stopped cooperatively before completion. `partial_stats`
    /// reflects the work done up to the point the cancellation was observed
    /// (probes, expansions, per-phase timings) so callers can report progress.
    Cancelled { reason: CancelReason, partial_stats: Box<ExecStats> },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Empty => write!(f, "query has no atoms"),
            QueryError::DuplicateAlias(a) => write!(f, "duplicate atom alias: {a}"),
            QueryError::DuplicateVarInAtom { alias, var } => {
                write!(f, "atom {alias} binds variable {var} more than once")
            }
            QueryError::UnknownRelation { alias, relation } => {
                write!(f, "atom {alias} references unknown relation {relation}")
            }
            QueryError::ArityMismatch { alias, expected, found } => {
                write!(
                    f,
                    "atom {alias} has {found} variables but its relation has {expected} columns"
                )
            }
            QueryError::UnknownFilterColumn { alias, column } => {
                write!(f, "filter on atom {alias} references unknown column {column}")
            }
            QueryError::UnknownHeadVar(v) => {
                write!(f, "head variable {v} does not appear in the body")
            }
            QueryError::UnboundOutputVar(v) => {
                write!(f, "output variable {v} is not bound by the execution plan")
            }
            QueryError::Disconnected => {
                write!(f, "query join graph is disconnected (cross product)")
            }
            QueryError::Cancelled { reason, partial_stats } => {
                write!(
                    f,
                    "query cancelled: {reason} (after {} probes, {} output tuples)",
                    partial_stats.probes, partial_stats.output_tuples
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// A full conjunctive query `Q(head) :- atom_1, ..., atom_m` with an optional
/// aggregate applied after the join (Section 2.1 of the paper: projections
/// and aggregates are performed after the full join).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    /// Query name (used for reporting in benchmarks).
    pub name: String,
    /// Head (output) variables. For a *full* query this is every variable in
    /// the body; the engines always compute the full join and project at the
    /// end.
    pub head: Vec<String>,
    /// Body atoms.
    pub atoms: Vec<Atom>,
    /// Aggregate applied to the join result.
    pub aggregate: Aggregate,
}

impl ConjunctiveQuery {
    /// Create a query; if `head` is empty it defaults to all body variables
    /// in order of first appearance (making the query full).
    pub fn new(name: impl Into<String>, head: Vec<&str>, atoms: Vec<Atom>) -> Self {
        let mut q = ConjunctiveQuery {
            name: name.into(),
            head: head.into_iter().map(String::from).collect(),
            atoms,
            aggregate: Aggregate::Materialize,
        };
        if q.head.is_empty() {
            q.head = q.variables();
        }
        q
    }

    /// Replace the aggregate.
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// All variables in order of first appearance across the atoms.
    pub fn variables(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in &atom.vars {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of joins in a binary plan for this query.
    pub fn num_joins(&self) -> usize {
        self.atoms.len().saturating_sub(1)
    }

    /// The atom with the given alias.
    pub fn atom_by_alias(&self, alias: &str) -> Option<(usize, &Atom)> {
        self.atoms.iter().enumerate().find(|(_, a)| a.alias == alias)
    }

    /// Indices of atoms that contain the given variable.
    pub fn atoms_with_var(&self, var: &str) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains_var(var))
            .map(|(i, _)| i)
            .collect()
    }

    /// Check structural well-formedness and consistency with a catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), QueryError> {
        if self.atoms.is_empty() {
            return Err(QueryError::Empty);
        }
        // Unique aliases.
        let mut aliases = BTreeSet::new();
        for atom in &self.atoms {
            if !aliases.insert(atom.alias.clone()) {
                return Err(QueryError::DuplicateAlias(atom.alias.clone()));
            }
            // Distinct variables within one atom.
            let mut vars = BTreeSet::new();
            for v in &atom.vars {
                if !vars.insert(v.clone()) {
                    return Err(QueryError::DuplicateVarInAtom {
                        alias: atom.alias.clone(),
                        var: v.clone(),
                    });
                }
            }
            // Relation exists with the right arity, filter columns exist.
            let rel = catalog.get(&atom.relation).map_err(|_| QueryError::UnknownRelation {
                alias: atom.alias.clone(),
                relation: atom.relation.clone(),
            })?;
            if rel.arity() != atom.arity() {
                return Err(QueryError::ArityMismatch {
                    alias: atom.alias.clone(),
                    expected: rel.arity(),
                    found: atom.arity(),
                });
            }
            atom.check_filter_columns(rel.schema())?;
        }
        // Head variables appear in the body.
        let body_vars: BTreeSet<String> = self.variables().into_iter().collect();
        for h in &self.head {
            if !body_vars.contains(h) {
                return Err(QueryError::UnknownHeadVar(h.clone()));
            }
        }
        // Connectedness (single-atom queries are trivially connected).
        if !self.is_connected() {
            return Err(QueryError::Disconnected);
        }
        Ok(())
    }

    /// Is the join graph connected? (Atoms are nodes; two atoms are adjacent
    /// when they share a variable.)
    pub fn is_connected(&self) -> bool {
        if self.atoms.len() <= 1 {
            return true;
        }
        let n = self.atoms.len();
        let mut visited = vec![false; n];
        let mut stack = vec![0usize];
        visited[0] = true;
        while let Some(i) = stack.pop() {
            for (j, seen) in visited.iter_mut().enumerate() {
                if !*seen && !self.atoms[i].shared_vars(&self.atoms[j]).is_empty() {
                    *seen = true;
                    stack.push(j);
                }
            }
        }
        visited.into_iter().all(|v| v)
    }

    /// Is the query α-acyclic? (Delegates to the hypergraph GYO reduction.)
    pub fn is_acyclic(&self) -> bool {
        crate::hypergraph::Hypergraph::from_query(self).is_acyclic()
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) :- ", self.name, self.head.join(", "))?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{CmpOp, Predicate, Relation, RelationBuilder, Schema};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, cols) in [("R", vec!["x", "y"]), ("S", vec!["y", "z"]), ("T", vec!["z", "x"])] {
            let mut b = RelationBuilder::new(name, Schema::all_int(&cols));
            b.push_ints(&[1, 2]).unwrap();
            cat.add(b.finish()).unwrap();
        }
        cat.add(Relation::empty("U", Schema::all_int(&["b"]))).unwrap();
        cat
    }

    fn triangle() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            "Q_triangle",
            vec![],
            vec![
                Atom::new("R", vec!["x", "y"]),
                Atom::new("S", vec!["y", "z"]),
                Atom::new("T", vec!["z", "x"]),
            ],
        )
    }

    #[test]
    fn variables_in_first_appearance_order() {
        let q = triangle();
        assert_eq!(q.variables(), vec!["x", "y", "z"]);
        assert_eq!(q.head, vec!["x", "y", "z"]);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.num_joins(), 2);
    }

    #[test]
    fn atoms_with_var() {
        let q = triangle();
        assert_eq!(q.atoms_with_var("x"), vec![0, 2]);
        assert_eq!(q.atoms_with_var("y"), vec![0, 1]);
        assert_eq!(q.atoms_with_var("missing"), Vec::<usize>::new());
        assert_eq!(q.atom_by_alias("S").unwrap().0, 1);
        assert!(q.atom_by_alias("X").is_none());
    }

    #[test]
    fn triangle_is_cyclic_and_connected() {
        let q = triangle();
        assert!(q.is_connected());
        assert!(!q.is_acyclic());
    }

    #[test]
    fn validation_passes_for_well_formed_query() {
        let q = triangle();
        q.validate(&catalog()).unwrap();
    }

    #[test]
    fn validation_catches_duplicate_alias() {
        let q = ConjunctiveQuery::new(
            "bad",
            vec![],
            vec![Atom::new("R", vec!["x", "y"]), Atom::new("R", vec!["y", "z"])],
        );
        assert_eq!(q.validate(&catalog()), Err(QueryError::DuplicateAlias("R".into())));
        // With an alias the same shape is fine (self-join renaming).
        let q2 = ConjunctiveQuery::new(
            "ok",
            vec![],
            vec![Atom::new("R", vec!["x", "y"]), Atom::with_alias("R", "R2", vec!["y", "z"])],
        );
        q2.validate(&catalog()).unwrap();
    }

    #[test]
    fn validation_catches_duplicate_var_in_atom() {
        let q = ConjunctiveQuery::new("bad", vec![], vec![Atom::new("R", vec!["x", "x"])]);
        assert!(matches!(q.validate(&catalog()), Err(QueryError::DuplicateVarInAtom { .. })));
    }

    #[test]
    fn validation_catches_unknown_relation_and_arity() {
        let q = ConjunctiveQuery::new("bad", vec![], vec![Atom::new("Z", vec!["x"])]);
        assert!(matches!(q.validate(&catalog()), Err(QueryError::UnknownRelation { .. })));
        let q = ConjunctiveQuery::new("bad", vec![], vec![Atom::new("R", vec!["x", "y", "z"])]);
        assert!(matches!(q.validate(&catalog()), Err(QueryError::ArityMismatch { .. })));
    }

    #[test]
    fn validation_catches_bad_filter_column_and_head_var() {
        let atom = Atom::new("R", vec!["x", "y"]).with_filter(Predicate::cmp_const(
            "nope",
            CmpOp::Gt,
            1i64,
        ));
        let q = ConjunctiveQuery::new("bad", vec![], vec![atom]);
        assert!(matches!(q.validate(&catalog()), Err(QueryError::UnknownFilterColumn { .. })));

        let q = ConjunctiveQuery::new("bad", vec!["w"], vec![Atom::new("R", vec!["x", "y"])]);
        assert_eq!(q.validate(&catalog()), Err(QueryError::UnknownHeadVar("w".into())));
    }

    #[test]
    fn validation_catches_disconnected_query() {
        let q = ConjunctiveQuery::new(
            "bad",
            vec![],
            vec![Atom::new("R", vec!["x", "y"]), Atom::new("U", vec!["b"])],
        );
        assert_eq!(q.validate(&catalog()), Err(QueryError::Disconnected));
    }

    #[test]
    fn empty_query_invalid() {
        let q = ConjunctiveQuery::new("empty", vec![], vec![]);
        assert_eq!(q.validate(&catalog()), Err(QueryError::Empty));
    }

    #[test]
    fn acyclic_query_detected() {
        // Clover query from the paper (Fig. 3) is acyclic.
        let q = ConjunctiveQuery::new(
            "clover",
            vec![],
            vec![
                Atom::new("R", vec!["x", "a"]),
                Atom::new("S", vec!["x", "b"]),
                Atom::new("T", vec!["x", "c"]),
            ],
        );
        assert!(q.is_acyclic());
    }

    #[test]
    fn display_round_trip_shape() {
        let q = triangle();
        let s = q.to_string();
        assert!(s.starts_with("Q_triangle(x, y, z) :- R(x, y), S(y, z), T(z, x)."));
    }
}
