//! Query preparation: resolving atoms against the catalog, applying
//! pushed-down selections, and materializing intermediate results for bushy
//! plans.
//!
//! Every execution engine in this workspace (Free Join, the binary hash join
//! baseline and the Generic Join baseline) works over the same prepared
//! inputs, so that measured differences come from the join algorithms rather
//! than from scan or selection handling.

use crate::error::{EngineError, EngineResult};
use fj_query::{Atom, ConjunctiveQuery, OutputKind, QueryOutput};
use fj_storage::{Catalog, DataType, Field, Relation, RelationBuilder, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A pipeline input bound to concrete storage: a (possibly filtered) relation
/// together with the query variable bound to each of its columns.
#[derive(Debug, Clone)]
pub struct BoundInput {
    /// Display name (atom alias or intermediate name), for diagnostics.
    pub name: String,
    /// The underlying relation, already filtered by the atom's selection.
    pub relation: Arc<Relation>,
    /// The query variable bound to each used column, in order.
    pub vars: Vec<String>,
    /// The column index in `relation` for each entry of `vars`.
    pub var_cols: Vec<usize>,
    /// Do the rows exist for this input alone — a filtered copy or a
    /// materialized intermediate — or is `relation` the catalog's own
    /// (an unfiltered atom)? A cache that drops this input's trie frees the
    /// rows only in the first case, so only then are they charged to it.
    pub owns_rows: bool,
}

impl BoundInput {
    /// Number of rows in the bound (filtered) relation.
    pub fn num_rows(&self) -> usize {
        self.relation.num_rows()
    }

    /// The column index bound to a variable, if any.
    pub fn col_of(&self, var: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == var).map(|i| self.var_cols[i])
    }

    /// Read the values of the given variables at a row offset.
    pub fn read_vars(&self, row: usize, vars: &[String]) -> Row {
        vars.iter()
            .map(|v| {
                let col = self.col_of(v).expect("variable not bound by this input");
                self.relation.column(col).get(row)
            })
            .collect()
    }

    /// Read a single variable at a row offset.
    pub fn read_var(&self, row: usize, var: &str) -> Value {
        let col = self.col_of(var).expect("variable not bound by this input");
        self.relation.column(col).get(row)
    }
}

/// The prepared form of a query: one [`BoundInput`] per atom (in atom order),
/// plus the time spent applying selections.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// One bound input per query atom, in atom order.
    pub atoms: Vec<BoundInput>,
    /// Time spent evaluating pushed-down selections.
    pub selection_time: Duration,
    /// The data type of every query variable (derived from the column it is
    /// bound to), used when materializing intermediates.
    pub var_types: HashMap<String, DataType>,
}

/// Resolve one atom against the catalog, applying its pushed-down selection.
/// Uses `try_filter` (rather than the panicking `filter`) so that a
/// predicate over a missing column — possible when callers skip validation —
/// surfaces as a typed error on the library path. Shared by
/// [`prepare_inputs`] and the serving path's cache-miss builder, so filter
/// semantics cannot drift between the two.
pub fn bind_atom(catalog: &Catalog, atom: &Atom) -> EngineResult<BoundInput> {
    let base = catalog.get(&atom.relation)?;
    let owns_rows = atom.has_filter();
    let relation = if owns_rows {
        // String literals stay in source form through parsing; the catalog
        // dictionary only exists here, so this is where they become
        // `Value::Str` comparisons.
        let filter = atom.filter.resolve_strings(catalog.dictionary());
        Arc::new(base.try_filter(&filter)?)
    } else {
        base
    };
    Ok(BoundInput {
        name: atom.alias.clone(),
        relation,
        vars: atom.vars.clone(),
        var_cols: (0..atom.vars.len()).collect(),
        owns_rows,
    })
}

/// Record the data type of each of an atom's variables (first binding wins,
/// matching the engine's slot assignment). Filtering never changes a schema,
/// so base and filtered relations are interchangeable here.
fn record_var_types(vars: &[String], schema: &Schema, out: &mut HashMap<String, DataType>) {
    for (col, var) in vars.iter().enumerate() {
        out.entry(var.clone()).or_insert(schema.field(col).data_type);
    }
}

/// Data types of every query variable, derived from the (unfiltered) base
/// relation schemas — filtering never changes a schema, so this avoids the
/// selection work [`prepare_inputs`] does.
pub(crate) fn var_types(
    catalog: &Catalog,
    atoms: &[Atom],
) -> EngineResult<HashMap<String, DataType>> {
    let mut out = HashMap::new();
    for atom in atoms {
        let relation = catalog.get(&atom.relation).map_err(EngineError::Storage)?;
        record_var_types(&atom.vars, relation.schema(), &mut out);
    }
    Ok(out)
}

/// Resolve and filter every atom of a query against the catalog.
pub fn prepare_inputs(catalog: &Catalog, query: &ConjunctiveQuery) -> EngineResult<PreparedQuery> {
    query.validate(catalog)?;
    let start = Instant::now();
    let mut atoms = Vec::with_capacity(query.num_atoms());
    let mut var_types: HashMap<String, DataType> = HashMap::new();
    for atom in &query.atoms {
        let bound = bind_atom(catalog, atom)?;
        record_var_types(&bound.vars, bound.relation.schema(), &mut var_types);
        atoms.push(bound);
    }
    Ok(PreparedQuery { atoms, selection_time: start.elapsed(), var_types })
}

/// Materialize a pipeline's `Materialize` output — rows laid out according
/// to `output.vars` — into a relation whose columns are named after the
/// variables, moving every row into it. Used for the intermediate results
/// of bushy plans.
///
/// # Panics
/// Panics if `output` holds a count or groups instead of rows.
pub fn materialize_intermediate(
    name: &str,
    output: QueryOutput,
    var_types: &HashMap<String, DataType>,
) -> EngineResult<BoundInput> {
    let OutputKind::Rows(rows) = output.kind else {
        panic!("an intermediate is materialized from rows, not {:?}", output.kind)
    };
    let vars = output.vars;
    let fields: Vec<Field> = vars
        .iter()
        .map(|v| Field::new(v.clone(), var_types.get(v).copied().unwrap_or(DataType::Int64)))
        .collect();
    let schema = Schema::new(fields);
    let mut builder = RelationBuilder::with_capacity(name, schema, rows.len());
    for row in rows {
        builder.push_row(row).map_err(EngineError::Storage)?;
    }
    let relation = Arc::new(builder.finish());
    Ok(BoundInput {
        name: name.to_string(),
        relation,
        var_cols: (0..vars.len()).collect(),
        vars,
        owns_rows: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_query::QueryBuilder;
    use fj_storage::{CmpOp, Predicate};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mut r = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        for i in 0..10i64 {
            r.push_ints(&[i, i * 2]).unwrap();
        }
        cat.add(r.finish()).unwrap();
        let mut m = RelationBuilder::new("M", Schema::all_int(&["u", "v", "w"]));
        for i in 0..10i64 {
            m.push_ints(&[i, i + 1, 10 * i]).unwrap();
        }
        cat.add(m.finish()).unwrap();
        cat
    }

    #[test]
    fn prepare_resolves_atoms_and_types() {
        let cat = catalog();
        let q = QueryBuilder::new("q")
            .atom("R", &["a", "b"])
            .atom_as("M", "m", &["b", "c", "d"])
            .build();
        let prepared = prepare_inputs(&cat, &q).unwrap();
        assert_eq!(prepared.atoms.len(), 2);
        assert_eq!(prepared.atoms[0].name, "R");
        assert_eq!(prepared.atoms[1].name, "m");
        assert_eq!(prepared.atoms[0].num_rows(), 10);
        assert_eq!(prepared.var_types["a"], DataType::Int64);
        assert_eq!(prepared.atoms[0].col_of("b"), Some(1));
        assert_eq!(prepared.atoms[0].col_of("zzz"), None);
    }

    #[test]
    fn prepare_applies_filters() {
        let cat = catalog();
        let q = QueryBuilder::new("q")
            .atom_where("M", &["u", "v", "w"], Predicate::cmp_const("w", CmpOp::Gt, 30i64))
            .build();
        let prepared = prepare_inputs(&cat, &q).unwrap();
        assert_eq!(prepared.atoms[0].num_rows(), 6); // w in {40,...,90}
    }

    #[test]
    fn string_literal_filters_resolve_against_the_dictionary() {
        use fj_storage::{Field, Value};
        let mut cat = Catalog::new();
        let alice = cat.intern("alice");
        let bob = cat.intern("bob");
        let mut p =
            RelationBuilder::new("P", Schema::new(vec![Field::int("id"), Field::str("name")]));
        p.push_row(vec![Value::Int(1), alice]).unwrap();
        p.push_row(vec![Value::Int(2), bob]).unwrap();
        p.push_row(vec![Value::Int(3), alice]).unwrap();
        cat.add(p.finish()).unwrap();

        // The source form a served query arrives in.
        let q = fj_query::parse_query("Q(id, n) :- P(id, n) where name = 'alice'.").unwrap();
        let prepared = prepare_inputs(&cat, &q).unwrap();
        assert_eq!(prepared.atoms[0].num_rows(), 2);

        // A literal missing from the dictionary matches nothing for `=` and
        // everything non-null for `!=`.
        let q = fj_query::parse_query("Q(id, n) :- P(id, n) where name = 'carol'.").unwrap();
        assert_eq!(prepare_inputs(&cat, &q).unwrap().atoms[0].num_rows(), 0);
        let q = fj_query::parse_query("Q(id, n) :- P(id, n) where name != 'carol'.").unwrap();
        assert_eq!(prepare_inputs(&cat, &q).unwrap().atoms[0].num_rows(), 3);
    }

    #[test]
    fn prepare_rejects_invalid_queries() {
        let cat = catalog();
        let q = QueryBuilder::new("q").atom("Nope", &["a"]).build();
        assert!(matches!(prepare_inputs(&cat, &q), Err(EngineError::Query(_))));
    }

    #[test]
    fn read_vars_reads_projected_values() {
        let cat = catalog();
        let q = QueryBuilder::new("q").atom("M", &["u", "v", "w"]).build();
        let prepared = prepare_inputs(&cat, &q).unwrap();
        let input = &prepared.atoms[0];
        assert_eq!(
            input.read_vars(3, &["w".to_string(), "u".to_string()]),
            vec![Value::Int(30), Value::Int(3)]
        );
        assert_eq!(input.read_var(2, "v"), Value::Int(3));
    }

    #[test]
    fn materialize_intermediate_round_trips() {
        let vars: Vec<String> = vec!["x".into(), "y".into()];
        let mut types = HashMap::new();
        types.insert("x".to_string(), DataType::Int64);
        types.insert("y".to_string(), DataType::Int64);
        let rows = vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3), Value::Int(4)]];
        let input = materialize_intermediate("tmp0", QueryOutput::rows(vars.clone(), rows), &types)
            .unwrap();
        assert_eq!(input.num_rows(), 2);
        assert_eq!(input.vars, vars);
        assert_eq!(input.read_var(1, "y"), Value::Int(4));
        // Unknown type defaults to Int64 without panicking.
        let z = QueryOutput::rows(vec!["z".to_string()], vec![vec![Value::Int(9)]]);
        let input2 = materialize_intermediate("tmp1", z, &HashMap::new()).unwrap();
        assert_eq!(input2.read_var(0, "z"), Value::Int(9));
    }
}
