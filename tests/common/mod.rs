//! What the differential tests share: the brute-force oracle, the generated
//! relations (duplicate rows, NULL keys, empty relations), the hub catalog,
//! the cyclic self-join shapes and the chain the optimizer plans bushy.
#![allow(dead_code)] // each test binary uses its own subset

use freejoin::prelude::*;
use freejoin::storage::Field;
use proptest::prelude::*;

/// Brute-force evaluation under bag semantics: one row per atom, kept when
/// the shared variables agree (`NULL` equals `NULL`, as in every engine).
/// One enumeration answers every query of `variants` — the same atoms under
/// different heads and aggregates — through the `OutputBuilder` the engines
/// use.
pub fn oracle(catalog: &Catalog, variants: &[&ConjunctiveQuery]) -> Vec<QueryOutput> {
    struct Step {
        rows: Vec<Vec<Value>>,
        /// The binding slot of each column.
        slots: Vec<usize>,
    }
    fn recurse(steps: &[Step], binding: &mut Vec<Option<Value>>, emit: &mut dyn FnMut(&[Value])) {
        let Some((step, rest)) = steps.split_first() else {
            let tuple: Vec<Value> = binding.iter().map(|v| v.expect("all bound")).collect();
            emit(&tuple);
            return;
        };
        for row in &step.rows {
            let before = binding.clone();
            let consistent = step
                .slots
                .iter()
                .zip(row)
                .all(|(&slot, value)| *binding[slot].get_or_insert(*value) == *value);
            if consistent {
                recurse(rest, binding, emit);
            }
            *binding = before;
        }
    }
    let query = variants[0];
    let order = query.variables();
    let steps: Vec<Step> = query
        .atoms
        .iter()
        .map(|atom| {
            let rel = catalog.get(&atom.relation).unwrap();
            let filter = atom.filter.resolve_strings(catalog.dictionary());
            let rows = (0..rel.num_rows())
                .filter(|&row| !atom.has_filter() || filter.eval(&rel, row))
                .map(|row| rel.row(row))
                .collect();
            let slot = |v: &String| order.iter().position(|o| o == v).unwrap();
            Step { rows, slots: atom.vars.iter().map(slot).collect() }
        })
        .collect();
    let mut builders: Vec<_> = variants
        .iter()
        .map(|q| freejoin::query::OutputBuilder::new(&q.head, q.aggregate.clone(), &order))
        .collect();
    recurse(&steps, &mut vec![None; order.len()], &mut |tuple| {
        builders.iter_mut().for_each(|b| b.push(tuple));
    });
    builders.into_iter().map(|b| b.finish()).collect()
}

/// 1, 2 and `FJ_TEST_THREADS` workers (CI's race-hunting job sets 8).
pub fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2];
    let extra = std::env::var("FJ_TEST_THREADS").ok().and_then(|v| v.trim().parse().ok());
    if let Some(n) = extra.filter(|n| !counts.contains(n)) {
        counts.push(n);
    }
    counts
}

/// A relation of nullable integer columns: a generated `5` is a NULL, so
/// NULL keys, duplicate rows (the domain is tiny) and empty relations (the
/// row count may be 0) all occur.
pub fn relation(name: &str, cols: &[&str], rows: &[Vec<i64>]) -> Relation {
    let schema = Schema::new(cols.iter().map(|c| Field::int(*c)).collect());
    let mut b = RelationBuilder::new(name, schema);
    for row in rows {
        let values = row.iter().map(|&v| if v == 5 { Value::Null } else { Value::Int(v) });
        b.push_row(values.collect()).unwrap();
    }
    b.finish()
}

pub fn rows(arity: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0i64..6, arity), 0..12)
}

pub fn catalog_of(relations: Vec<Relation>) -> Catalog {
    let mut catalog = Catalog::new();
    for relation in relations {
        catalog.add(relation).unwrap();
    }
    catalog
}

/// Triangle, 4-cycle with a chord (LSQB `q3`) and triangle whose first two
/// corners share an attribute (LSQB `q2`), as self-joins of `edge` (and of
/// `tag`).
pub fn cyclic_queries() -> Vec<ConjunctiveQuery> {
    let edges = |name: &str, pairs: &[(&str, &str)]| {
        let mut q = QueryBuilder::new(name);
        for (i, (src, dst)) in pairs.iter().enumerate() {
            q = q.atom_as("edge", &format!("e{i}"), &[src, dst]);
        }
        q
    };
    vec![
        edges("triangle", &[("x", "y"), ("y", "z"), ("z", "x")]).build(),
        edges("chord", &[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]).build(),
        edges("shared", &[("a", "b"), ("b", "c"), ("c", "a")])
            .atom_as("tag", "i1", &["a", "t"])
            .atom_as("tag", "i2", &["b", "t"])
            .build(),
    ]
}

/// A graph with everything the lazy leaves treat differently: node 0 is a
/// hub whose adjacency lists are above the scan bound (they are forced once
/// and shared), the other lists are within it (scanned, or walked row by
/// row), some edges are duplicated, one endpoint is NULL on both sides of a
/// match, and `tag` may be empty.
pub fn hub_catalog(with_tags: bool) -> Catalog {
    let spokes = freejoin::engine::trie::SCAN_PROBE_MAX_ROWS as i64 + 4;
    let mut edges = Vec::new();
    for v in 1..=spokes {
        edges.push(vec![0, v]);
        edges.push(vec![v, 0]);
        edges.push(vec![v, v % spokes + 1]);
        if v % 3 == 0 {
            edges.push(vec![v % spokes + 1, v]);
            edges.push(vec![v, v % spokes + 1]); // a duplicate row
        }
    }
    // `5` is NULL in `relation`: renumber the real node 5, then add NULLs.
    for e in &mut edges {
        e.iter_mut().filter(|v| **v == 5).for_each(|v| *v = 500);
    }
    edges.extend([vec![5, 1], vec![1, 5], vec![5, 5], vec![5, 0], vec![0, 5]]);
    let tags: Vec<Vec<i64>> = if with_tags {
        (0..=spokes).map(|v| vec![v, v % 2]).chain([vec![0, 1], vec![5, 0]]).collect()
    } else {
        Vec::new()
    };
    catalog_of(vec![
        relation("edge", &["src", "dst"], &edges),
        relation("tag", &["node", "tag"], &tags),
    ])
}

/// The relations of the chain `A(a,b), B(b,c), C(c,d), D(d,e)`: the same
/// 12-node graph four times, `copies` rows per edge.
pub fn chain_relations(copies: usize) -> Vec<Relation> {
    let mut edges = Vec::new();
    for i in 0..60i64 {
        for _ in 0..copies {
            edges.push([i % 12, (i + 1) % 12]);
            edges.push([i % 12, (i + 5) % 12]);
        }
    }
    let relation = |name: &str| {
        let mut b = RelationBuilder::new(name, Schema::all_int(&["src", "dst"]));
        edges.iter().for_each(|edge| b.push_ints(edge).unwrap());
        b.finish()
    };
    ["A", "B", "C", "D"].map(relation).to_vec()
}

pub fn chain_query(head: &[&str]) -> ConjunctiveQuery {
    QueryBuilder::new("chain")
        .atom("A", &["a", "b"])
        .atom("B", &["b", "c"])
        .atom("C", &["c", "d"])
        .atom("D", &["d", "e"])
        .head(head)
        .build()
}

/// The optimizer joins the chain as two pairs: one intermediate pipeline and
/// a final one that reads it. Returns the relations under the intermediate
/// and those the final pipeline reads itself — read off a cold profile,
/// whose node labels name every atom where it runs.
pub fn chain_shape(catalog: &Catalog) -> (Vec<&'static str>, Vec<&'static str>) {
    let session = Session::new(std::sync::Arc::new(EngineCaches::with_defaults()));
    let prepared = session.prepare(catalog, &chain_query(&["a", "e"])).unwrap();
    let request = ExecRequest { profile: true, ..ExecRequest::default() };
    let profile = prepared.execute(catalog, &request).unwrap().profile.unwrap();
    assert_eq!(prepared.num_pipelines(), 2, "a bushy plan:\n{}", profile.render());
    let reads = |pipeline: usize, name: &str| {
        profile.pipelines[pipeline]
            .nodes
            .iter()
            .any(|n| n.label.contains(&format!("{name}(")))
    };
    let (under, above): (Vec<&str>, Vec<&str>) =
        ["A", "B", "C", "D"].into_iter().partition(|n| reads(0, n));
    assert_eq!((under.len(), above.len()), (2, 2), "{}", profile.render());
    assert!(above.iter().all(|n| reads(1, n)) && !under.iter().any(|n| reads(1, n)));
    (under, above)
}
