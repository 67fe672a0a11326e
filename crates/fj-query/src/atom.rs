//! Query atoms.

use crate::query::QueryError;
use fj_storage::{Predicate, Schema};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One atom `R(x1, ..., xk)` of a conjunctive query.
///
/// * `relation` names the base table in the catalog.
/// * `alias` is the name the atom is referred to by inside the query; it
///   must be unique per query. The paper assumes no self-joins "without loss
///   of generality: if two atoms have the same relation name, then we simply
///   rename one of them" — aliases are that renaming.
/// * `vars` maps, positionally, each column of the relation to a query
///   variable. All variables within one atom are distinct.
/// * `filter` is the selection pushed down onto this atom (over the
///   relation's *column names*, not the query variables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Atom {
    /// Base relation name in the catalog.
    pub relation: String,
    /// Unique alias of this atom within the query.
    pub alias: String,
    /// Query variable bound to each column, positionally.
    pub vars: Vec<String>,
    /// Selection predicate pushed down to this atom.
    pub filter: Predicate,
}

impl Atom {
    /// An atom whose alias equals its relation name and with no filter.
    pub fn new(relation: impl Into<String>, vars: Vec<&str>) -> Self {
        let relation = relation.into();
        Atom {
            alias: relation.clone(),
            relation,
            vars: vars.into_iter().map(String::from).collect(),
            filter: Predicate::True,
        }
    }

    /// An atom with an explicit alias (needed for self-joins).
    pub fn with_alias(
        relation: impl Into<String>,
        alias: impl Into<String>,
        vars: Vec<&str>,
    ) -> Self {
        Atom {
            relation: relation.into(),
            alias: alias.into(),
            vars: vars.into_iter().map(String::from).collect(),
            filter: Predicate::True,
        }
    }

    /// Attach a selection predicate (replacing any existing one).
    pub fn with_filter(mut self, filter: Predicate) -> Self {
        self.filter = filter;
        self
    }

    /// Number of variables (columns used by the query).
    pub fn arity(&self) -> usize {
        self.vars.len()
    }

    /// Does the atom bind this variable?
    pub fn contains_var(&self, var: &str) -> bool {
        self.vars.iter().any(|v| v == var)
    }

    /// The position of a variable within the atom.
    pub fn var_position(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// True if this atom has a non-trivial selection.
    pub fn has_filter(&self) -> bool {
        !matches!(self.filter, Predicate::True)
    }

    /// Does every column the filter reads exist in `schema`, the schema of
    /// the atom's relation? The first one that does not is the error.
    pub fn check_filter_columns(&self, schema: &Schema) -> Result<(), QueryError> {
        match self.filter.columns().into_iter().find(|c| schema.index_of(c).is_none()) {
            Some(column) => Err(QueryError::UnknownFilterColumn {
                alias: self.alias.clone(),
                column: column.to_string(),
            }),
            None => Ok(()),
        }
    }

    /// The shared variables between this atom and another.
    pub fn shared_vars(&self, other: &Atom) -> Vec<String> {
        self.vars.iter().filter(|v| other.contains_var(v)).cloned().collect()
    }
}

impl fmt::Display for Atom {
    /// Renders in the parser's grammar, including the `where` clause — the
    /// grammar now covers the whole predicate enum (`and`/`or`/`not`,
    /// `is [not] null`, integer/string/column comparisons — see
    /// `Predicate::to_query_text`), so query text built with `to_string`
    /// round-trips through `parse_query` filters and all. The few shapes
    /// that never come out of the parser (already-interned string ids, a
    /// literal with both quote characters) render as `where <unprintable>`,
    /// which deliberately fails to re-parse rather than silently dropping
    /// the selection (pre-PR-4 behavior, which made the text claim rows the
    /// filtered query never produced).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.alias == self.relation {
            write!(f, "{}({})", self.relation, self.vars.join(", "))?;
        } else {
            write!(f, "{} as {}({})", self.relation, self.alias, self.vars.join(", "))?;
        }
        if self.has_filter() {
            match self.filter.to_query_text() {
                Some(text) => write!(f, " where {text}")?,
                None => write!(f, " where <unprintable>")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::CmpOp;

    #[test]
    fn new_atom_defaults() {
        let a = Atom::new("R", vec!["x", "y"]);
        assert_eq!(a.relation, "R");
        assert_eq!(a.alias, "R");
        assert_eq!(a.arity(), 2);
        assert!(!a.has_filter());
        assert!(a.contains_var("x"));
        assert!(!a.contains_var("z"));
        assert_eq!(a.var_position("y"), Some(1));
    }

    #[test]
    fn aliased_atom_display() {
        let a = Atom::with_alias("M", "s", vec!["u", "v"]);
        assert_eq!(a.to_string(), "M as s(u, v)");
        let b = Atom::new("R", vec!["x"]);
        assert_eq!(b.to_string(), "R(x)");
    }

    #[test]
    fn with_filter_sets_predicate() {
        let a =
            Atom::new("M", vec!["u", "v"]).with_filter(Predicate::cmp_const("w", CmpOp::Gt, 30i64));
        assert!(a.has_filter());
    }

    #[test]
    fn shared_vars() {
        let r = Atom::new("R", vec!["x", "y"]);
        let s = Atom::new("S", vec!["y", "z"]);
        assert_eq!(r.shared_vars(&s), vec!["y".to_string()]);
        let t = Atom::new("T", vec!["z", "x"]);
        assert_eq!(r.shared_vars(&t), vec!["x".to_string()]);
        assert!(s.shared_vars(&Atom::new("U", vec!["w"])).is_empty());
    }
}
