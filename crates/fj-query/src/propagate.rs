//! Equality constants follow their join variable.
//!
//! A filter `title.id = 7` on an atom `title(t, ..)` says `t = 7`, and a
//! result row has one value of `t`: every other atom that binds `t` can only
//! contribute rows whose own column of `t` is 7. [`propagate_constants`]
//! writes that down as a filter on those atoms, so that their selections
//! (which run before the join starts) leave the rows of one key instead of
//! the whole table.
//!
//! The rewrite keeps the bag result, every multiplicity and every aggregate:
//! it only drops rows that cannot join. A row of another atom whose column of
//! `t` differs from the constant — another value, another type, or NULL —
//! joins with no row that passes the source filter, because the join
//! compares the same two values the derived filter does; `= NULL` passes no
//! row on either side.

use crate::query::ConjunctiveQuery;
use fj_storage::{Catalog, CmpOp, Predicate};
use std::borrow::Cow;

/// One conjunct [`propagate_constants`] added to an atom's filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivation {
    /// Index of the atom that received the conjunct.
    pub atom: usize,
    /// The conjunct, over that atom's own column of the shared variable.
    pub conjunct: Predicate,
    /// Index of the atom whose filter states the constant.
    pub source_atom: usize,
    /// The column of the source atom the constant is compared with.
    pub source_column: String,
}

impl Derivation {
    /// `movie_keyword.movie_id = 2500 <- title.id`: the derived conjunct and
    /// where it came from, atoms named by alias. `query` is the query the
    /// derivation was computed for (or its rewrite; the atoms are the same).
    pub fn describe(&self, query: &ConjunctiveQuery) -> String {
        let conjunct =
            self.conjunct.to_query_text().unwrap_or_else(|| format!("{:?}", self.conjunct));
        format!(
            "{}.{conjunct} <- {}.{}",
            query.atoms[self.atom].alias, query.atoms[self.source_atom].alias, self.source_column
        )
    }
}

/// The result of [`propagate_constants`].
#[derive(Debug, Clone, PartialEq)]
pub struct Propagated<'q> {
    /// The query with the derived conjuncts `and`-ed onto its atoms' filters;
    /// the original, borrowed, when there was nothing to derive.
    pub query: Cow<'q, ConjunctiveQuery>,
    /// What was added, ordered by source atom, then source conjunct, then
    /// receiving atom.
    pub derived: Vec<Derivation>,
}

/// The conjuncts of a filter: the members of a top-level `And`, or the
/// filter itself. Nothing under `Or`/`Not` is a conjunct.
fn conjuncts(filter: &Predicate) -> &[Predicate] {
    match filter {
        Predicate::True => &[],
        Predicate::And(ps) => ps,
        other => std::slice::from_ref(other),
    }
}

/// The column of a `column = constant` conjunct.
fn equality_column(conjunct: &Predicate) -> Option<&str> {
    match conjunct {
        Predicate::ColCmpConst { column, op: CmpOp::Eq, .. }
        | Predicate::ColCmpStr { column, op: CmpOp::Eq, .. } => Some(column),
        _ => None,
    }
}

/// The same `column = constant` conjunct over another column.
fn over_column(conjunct: &Predicate, column: &str) -> Predicate {
    let mut derived = conjunct.clone();
    if let Predicate::ColCmpConst { column: own, .. } | Predicate::ColCmpStr { column: own, .. } =
        &mut derived
    {
        own.clear();
        own.push_str(column);
    }
    derived
}

/// For every conjunct `column = constant` of an atom's filter whose column is
/// bound to a variable `v`, give every *other* atom that binds `v` the
/// conjunct `its column of v = constant`, unless it already has it.
///
/// Pure and deterministic: the outcome depends on the query and on the
/// schemas of the relations it names, and applying the rewrite to its own
/// result derives nothing more. Atoms naming an unknown relation or column
/// are left as they are (validation reports them), so this can run on a
/// query that has not been validated.
pub fn propagate_constants<'q>(query: &'q ConjunctiveQuery, catalog: &Catalog) -> Propagated<'q> {
    let derived = derivations(query, catalog);
    if derived.is_empty() {
        return Propagated { query: Cow::Borrowed(query), derived };
    }
    let mut rewritten = query.clone();
    apply(&mut rewritten, &derived);
    Propagated { query: Cow::Owned(rewritten), derived }
}

/// [`propagate_constants`] on a query the caller owns and may change: the
/// derived conjuncts are `and`-ed onto its atoms' filters in place, and
/// returned. Nothing is cloned but the conjuncts.
pub fn propagate_constants_in_place(
    query: &mut ConjunctiveQuery,
    catalog: &Catalog,
) -> Vec<Derivation> {
    let derived = derivations(query, catalog);
    apply(query, &derived);
    derived
}

/// `and` every derived conjunct onto its atom's filter.
fn apply(query: &mut ConjunctiveQuery, derived: &[Derivation]) {
    for d in derived {
        let filter = &mut query.atoms[d.atom].filter;
        *filter = std::mem::take(filter).and(d.conjunct.clone());
    }
}

/// The conjuncts [`propagate_constants`] adds, in its order.
fn derivations(query: &ConjunctiveQuery, catalog: &Catalog) -> Vec<Derivation> {
    let mut derived: Vec<Derivation> = Vec::new();
    for (s, source) in query.atoms.iter().enumerate() {
        if !conjuncts(&source.filter).iter().any(|c| equality_column(c).is_some()) {
            continue;
        }
        let Ok(relation) = catalog.get(&source.relation) else { continue };
        for conjunct in conjuncts(&source.filter) {
            let Some(column) = equality_column(conjunct) else { continue };
            let var = relation.schema().index_of(column).and_then(|i| source.vars.get(i));
            let Some(var) = var else { continue };
            for (t, target) in query.atoms.iter().enumerate() {
                let Some(position) = target.var_position(var).filter(|_| t != s) else { continue };
                let Ok(relation) = catalog.get(&target.relation) else { continue };
                let Some(field) = relation.schema().fields().get(position) else { continue };
                let conjunct = over_column(conjunct, &field.name);
                let present = conjuncts(&target.filter).contains(&conjunct)
                    || derived.iter().any(|d| d.atom == t && d.conjunct == conjunct);
                if !present {
                    derived.push(Derivation {
                        atom: t,
                        conjunct,
                        source_atom: s,
                        source_column: column.to_string(),
                    });
                }
            }
        }
    }
    derived
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;
    use fj_storage::{Field, Relation, Schema, Value};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add(Relation::empty("title", Schema::all_int(&["id", "year"]))).unwrap();
        cat.add(Relation::empty("movie_keyword", Schema::all_int(&["movie_id", "keyword_id"])))
            .unwrap();
        cat.add(Relation::empty("cast_info", Schema::all_int(&["person_id", "movie_id"])))
            .unwrap();
        cat.add(Relation::empty(
            "keyword",
            Schema::new(vec![Field::int("id"), Field::str("name")]),
        ))
        .unwrap();
        cat
    }

    /// `title(t, y), movie_keyword(t, k), cast_info(p, t), keyword(k, n)`.
    fn query(title: Predicate, keyword: Predicate) -> ConjunctiveQuery {
        QueryBuilder::new("q")
            .atom_where("title", &["t", "y"], title)
            .atom("movie_keyword", &["t", "k"])
            .atom("cast_info", &["p", "t"])
            .atom_where("keyword", &["k", "n"], keyword)
            .count()
            .build()
    }

    fn filters(q: &ConjunctiveQuery) -> Vec<String> {
        q.atoms.iter().map(|a| a.filter.to_query_text().unwrap()).collect()
    }

    #[test]
    fn a_constant_reaches_every_other_atom_of_its_variable_in_atom_order() {
        let q = query(Predicate::eq_const("id", 7i64), Predicate::True);
        let cat = catalog();
        let p = propagate_constants(&q, &cat);
        assert_eq!(filters(&p.query), ["id = 7", "movie_id = 7", "movie_id = 7", ""]);
        let described: Vec<String> = p.derived.iter().map(|d| d.describe(&q)).collect();
        assert_eq!(
            described,
            ["movie_keyword.movie_id = 7 <- title.id", "cast_info.movie_id = 7 <- title.id"]
        );
        // Only filters change: same atoms, variables, head and aggregate.
        let mut stripped = p.query.clone().into_owned();
        for (atom, original) in stripped.atoms.iter_mut().zip(&q.atoms) {
            atom.filter = original.filter.clone();
        }
        assert_eq!(stripped, q);
    }

    #[test]
    fn the_rewrite_is_idempotent_and_deterministic() {
        let q = query(
            Predicate::eq_const("id", 7i64).and(Predicate::cmp_const("year", CmpOp::Gt, 1990i64)),
            Predicate::eq_str("name", "space").and(Predicate::eq_const("id", 3i64)),
        );
        let cat = catalog();
        let once = propagate_constants(&q, &cat);
        // movie_keyword hears from title (atom 0) before keyword (atom 3);
        // `name` is not a join column and the range derives nothing.
        assert_eq!(
            filters(&once.query),
            [
                "id = 7 and year > 1990",
                "movie_id = 7 and keyword_id = 3",
                "movie_id = 7",
                "name = 'space' and id = 3"
            ]
        );
        assert_eq!(propagate_constants(&q, &cat), once);
        let mut in_place = q.clone();
        assert_eq!(propagate_constants_in_place(&mut in_place, &cat), once.derived);
        assert_eq!(in_place, *once.query, "in place, the same rewrite");
        let twice = propagate_constants(&once.query, &cat);
        assert!(twice.derived.is_empty(), "{:?}", twice.derived);
        assert!(matches!(twice.query, Cow::Borrowed(_)));
        assert_eq!(twice.query, once.query);
    }

    #[test]
    fn nothing_to_derive_borrows_the_original() {
        let cat = catalog();
        let or = Predicate::Or(vec![Predicate::eq_const("id", 1i64), Predicate::eq_const("id", 2)]);
        let not = Predicate::Not(Box::new(Predicate::eq_const("id", 1i64)));
        for title in [
            Predicate::True,
            Predicate::eq_const("year", 2000i64), // not a join column
            Predicate::cmp_const("id", CmpOp::Ge, 7i64), // a range
            Predicate::cmp_const("id", CmpOp::Ne, 7i64),
            Predicate::cmp_const("year", CmpOp::Lt, 2000i64).and(or.clone()),
            or,
            not,
            Predicate::eq_const("no_such_column", 7i64),
        ] {
            let q = query(title, Predicate::True);
            let p = propagate_constants(&q, &cat);
            assert!(p.derived.is_empty(), "{:?}", q.atoms[0].filter);
            assert!(matches!(p.query, Cow::Borrowed(b) if std::ptr::eq(b, &q)));
        }
        // An unknown relation is validation's to report.
        let q = QueryBuilder::new("q")
            .atom_where("nope", &["t"], Predicate::eq_const("id", 7i64))
            .atom("movie_keyword", &["t", "k"])
            .build();
        assert!(matches!(propagate_constants(&q, &cat).query, Cow::Borrowed(_)));
    }

    #[test]
    fn a_conjunct_is_added_once() {
        let cat = catalog();
        // Both atoms state the constant already: nothing to add.
        let mut q = query(Predicate::eq_const("id", 7i64), Predicate::True);
        q.atoms[1].filter = Predicate::eq_const("movie_id", 7i64);
        q.atoms[2].filter = Predicate::eq_const("movie_id", 7i64);
        assert!(propagate_constants(&q, &cat).derived.is_empty());
        // Two different constants on one variable cross over (the result is
        // empty, as it is for the original).
        q.atoms[1].filter = Predicate::eq_const("movie_id", 8i64);
        let p = propagate_constants(&q, &cat);
        assert_eq!(
            filters(&p.query),
            [
                "id = 7 and id = 8",
                "movie_id = 8 and movie_id = 7",
                "movie_id = 7 and movie_id = 8",
                ""
            ]
        );
        // The same constant stated twice on the source is derived once.
        let twice = Predicate::And(vec![Predicate::eq_const("id", 7i64); 2]);
        let q = query(twice, Predicate::True);
        assert_eq!(propagate_constants(&q, &cat).derived.len(), 2);
    }

    #[test]
    fn string_null_and_interned_constants_keep_their_form() {
        let cat = catalog();
        let q = QueryBuilder::new("q")
            .atom_as("keyword", "k1", &["k", "n"])
            .atom_as_where(
                "keyword",
                "k2",
                &["j", "n"],
                Predicate::eq_str("name", "space").and(Predicate::eq_const("id", Value::Null)),
            )
            .atom_where(
                "movie_keyword",
                &["m", "j"],
                Predicate::eq_const("keyword_id", Value::Str(4)),
            )
            .build();
        let p = propagate_constants(&q, &cat);
        assert_eq!(
            p.query.atoms[0].filter,
            Predicate::eq_str("name", "space"),
            "a self-join side is another atom"
        );
        assert_eq!(
            p.query.atoms[1].filter,
            Predicate::eq_str("name", "space")
                .and(Predicate::eq_const("id", Value::Null))
                .and(Predicate::eq_const("id", Value::Str(4)))
        );
        assert_eq!(
            p.query.atoms[2].filter,
            Predicate::eq_const("keyword_id", Value::Str(4))
                .and(Predicate::eq_const("keyword_id", Value::Null))
        );
        assert_eq!(p.derived[0].describe(&q), "k1.name = 'space' <- k2.name");
    }
}
