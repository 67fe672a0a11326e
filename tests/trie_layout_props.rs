//! Layout property of the flat GHT: for generated relations (duplicates,
//! NULLs, skew) and level keys of arity 0 to 3 (so typed cursors, the masked
//! fallback and the `LevelKey` spill path are all hit), every build strategy
//! yields, at every level, exactly the key -> row-offset lists of a naive
//! `BTreeMap` grouping, with offsets ascending inside each group. Stable
//! grouping is what keeps emission order — and with it the path-key-ordered
//! merge of the parallel executor — deterministic. The lazy-leaf reads are
//! checked against the same oracle before anything is forced: a node with
//! nothing keyed below it walks its rows in order, and a counting probe
//! returns the group's size whether it scans the node or forces it.

use freejoin::engine::trie::{NodeRef, SCAN_PROBE_MAX_ROWS};
use freejoin::engine::{BoundInput, InputTrie};
use freejoin::prelude::*;
use freejoin::storage::Field;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// `Value` has no `Ord`; this is its order-able image for the oracle's keys.
fn ord(values: &[Value]) -> Vec<(u8, i64)> {
    values
        .iter()
        .map(|v| match *v {
            Value::Null => (0, 0),
            Value::Int(i) => (1, i),
            Value::Str(s) => (2, i64::from(s)),
        })
        .collect()
}

/// `T(a, b, c)`: `a` a nullable integer (masked column), `b` a string id
/// without NULLs, `c` an integer skewed towards one hot value.
fn input(codes: &[(i64, i64, i64)]) -> BoundInput {
    let schema = Schema::new(vec![Field::int("a"), Field::str("b"), Field::int("c")]);
    let mut builder = RelationBuilder::new("T", schema);
    for &(a, b, c) in codes {
        let a = if a % 5 == 0 { Value::Null } else { Value::Int(a % 4) };
        let c = if c % 10 < 7 { 0 } else { c % 6 };
        builder.push_row(vec![a, Value::Str((b % 3) as u32), Value::Int(c)]).unwrap();
    }
    BoundInput {
        name: "T".to_string(),
        relation: Arc::new(builder.finish()),
        vars: ["a", "b", "c"].map(String::from).to_vec(),
        var_cols: vec![0, 1, 2],
    }
}

/// Check `node` (at `level`, standing for `rows`) against the oracle, then
/// recurse into every child.
fn check_node(trie: &InputTrie, input: &BoundInput, node: NodeRef<'_>, level: usize, rows: &[u32]) {
    assert_eq!(trie.tuple_count(node), rows.len() as u64);
    assert_eq!(node.key_bound(), rows.len());
    if level == trie.num_levels() {
        return;
    }
    let key_of = |row: u32| input.read_vars(row as usize, trie.level_vars(level));
    let nothing_keyed_below = (level + 1..trie.num_levels()).all(|l| trie.level_vars(l).is_empty());
    assert_eq!(
        trie.iterates_rows(node, level),
        !node.is_map() && nothing_keyed_below && !trie.level_vars(level).is_empty()
    );
    if nothing_keyed_below && !node.is_map() {
        let mut seen = Vec::new();
        if trie.level_vars(level).is_empty() {
            // Nothing to tell the tuples apart: a non-empty leaf is one
            // entry whose child — the leaf itself — carries their number.
            trie.for_each(node, level, |key, child| {
                assert!(key.is_empty());
                assert_eq!(trie.tuple_count(child.expect("the leaf itself")), rows.len() as u64);
                seen.push(key.to_vec());
            });
            assert_eq!(seen.len(), usize::from(!rows.is_empty()));
        } else {
            // The unforced node — a leaf, or a level with only the trailing
            // empty one below it — iterates its tuples directly, in row order.
            trie.for_each(node, level, |key, child| {
                assert!(child.is_none());
                seen.push(key.to_vec());
            });
            assert_eq!(seen, rows.iter().map(|&r| key_of(r)).collect::<Vec<_>>());
        }
    }
    let mut oracle: BTreeMap<Vec<(u8, i64)>, Vec<u32>> = BTreeMap::new();
    for &row in rows {
        oracle.entry(ord(&key_of(row))).or_default().push(row);
    }
    // Counting probes agree with the oracle whether they scan the node
    // (unforced and small) or force it (a hub), and scanning forces nothing.
    let scanned =
        !node.is_map() && rows.len() <= SCAN_PROBE_MAX_ROWS && trie.level_vars(level).len() == 1;
    for group in oracle.values() {
        assert_eq!(trie.count_matches(node, level, &key_of(group[0])), group.len() as u64);
    }
    let absent = vec![Value::Int(-1); trie.level_vars(level).len()];
    assert_eq!(
        trie.count_matches(node, level, &absent),
        u64::from(absent.is_empty()) * rows.len() as u64
    );
    assert_eq!(node.is_map(), !scanned, "level {level}: {} rows", rows.len());
    let forced = trie.force(node, level, true);
    assert_eq!(forced.num_keys(), oracle.len());
    assert_eq!(trie.estimated_keys(node), oracle.len());
    for (key, child) in forced.iter() {
        let group = oracle.remove(&ord(key.values())).expect("every key has rows, once");
        assert!(group.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(child.rows(), Some(group.as_slice()), "level {level} key {key:?}");
        let probed = trie.get(node, level, key.values()).expect("stored keys are found");
        assert_eq!(probed.rows(), child.rows());
        check_node(trie, input, child, level + 1, &group);
    }
    assert!(oracle.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn every_level_groups_rows_like_a_naive_btreemap(
        a in prop::collection::vec(0i64..1000, 0..70),
        b in prop::collection::vec(0i64..1000, 70),
        c in prop::collection::vec(0i64..1000, 70),
    ) {
        let codes: Vec<(i64, i64, i64)> =
            a.iter().zip(&b).zip(&c).map(|((&a, &b), &c)| (a, b, c)).collect();
        let input = input(&codes);
        let all_rows: Vec<u32> = (0..codes.len() as u32).collect();
        let schemas: [&[&[&str]]; 6] = [
            &[&["a"], &["b"], &["c"]],
            &[&["a", "b"], &["c"]],
            &[&["c"], &["b", "c"], &[]],
            &[&["a", "b", "c"]],
            &[&[], &["c", "b", "a"]],
            &[&["b"], &[], &["a", "c"]],
        ];
        for levels in schemas {
            for strategy in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
                let schema: Vec<Vec<String>> =
                    levels.iter().map(|l| l.iter().map(|v| v.to_string()).collect()).collect();
                let trie = InputTrie::build(&input, schema, strategy);
                prop_assert_eq!(trie.root().rows(), None);
                check_node(&trie, &input, trie.root(), 0, &all_rows);
            }
        }
    }
}
