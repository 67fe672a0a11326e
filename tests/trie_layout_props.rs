//! Layout property of the flat GHT: for generated relations (duplicates,
//! NULLs, skew) and levels of zero to three key columns over `Int64`, `Str`
//! and NULL-masked columns (so the word-keyed index with and without a NULL
//! child, as a slot array over compact keys and as a hash map over scattered
//! ones, and the inline and the spilled `LevelKey` index are all hit), every
//! build strategy yields, at every level, exactly
//! the key -> row-offset lists of a naive `BTreeMap` grouping: offsets
//! ascending inside each group, groups handed out in the order their keys
//! first occur. Stable grouping and hash-independent iteration are what keep
//! emission order — and with it the path-key-ordered merge of the parallel
//! executor — deterministic. The lazy-leaf reads are checked against the
//! same oracle before anything is forced: a node with nothing keyed below it
//! walks its rows in order, and a counting probe returns the group's size
//! whether it scans the node or forces it, and again once it is forced. Keys
//! one below the smallest and one above the largest of a one-column level
//! find nothing, whichever index the level has.

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

/// `T(a, b, c, d)` from already-shaped values: `a` an integer column, `b` a
/// string column, `c` an integer column, `d` a string column. A column is
/// NULL-masked exactly when one of its values is `None`.
fn input_of(rows: &[[Option<i64>; 4]]) -> BoundInput {
    let schema =
        Schema::new(vec![Field::int("a"), Field::str("b"), Field::int("c"), Field::str("d")]);
    let mut builder = RelationBuilder::new("T", schema);
    for &[a, b, c, d] in rows {
        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        let str = |v: Option<i64>| v.map_or(Value::Null, |s| Value::Str(s as u32));
        builder.push_row(vec![int(a), str(b), int(c), str(d)]).unwrap();
    }
    BoundInput {
        name: "T".to_string(),
        relation: Arc::new(builder.finish()),
        vars: ["a", "b", "c", "d"].map(String::from).to_vec(),
        var_cols: vec![0, 1, 2, 3],
        owns_rows: true,
    }
}

/// The values `c` takes off its hot one: the extremes of `i64`, so a level
/// over them spans all of it, and small ones of either sign.
const COLD_C: [i64; 6] = [i64::MIN, -3, -1, 2, 5, i64::MAX];

/// The generated shape: `a` a nullable small integer of either sign (masked
/// column), `b` a string id without NULLs spread over the whole id space,
/// `c` an integer skewed towards one hot value, `d` a nullable small string
/// id. Two rows close it that hold `c`'s extremes, so `c`'s root level is
/// hashed and the single-key levels below it are slot arrays in every case.
fn skewed_input(codes: &[(i64, i64, i64)]) -> BoundInput {
    let rows: Vec<[Option<i64>; 4]> = codes
        .iter()
        .map(|&(a, b, c)| {
            [
                (a % 5 != 0).then_some(a % 4 - 2),
                Some(b % 3 * 0x7FFF_FFFF),
                Some(if c % 10 < 7 { 0 } else { COLD_C[(c % 6) as usize] }),
                (b % 4 != 0).then_some(a % 3),
            ]
        })
        .chain([[Some(1), Some(0), Some(i64::MIN), None], [None, Some(1), Some(i64::MAX), Some(0)]])
        .collect();
    input_of(&rows)
}

/// The same payload under the other type: what a mixed-type join variable
/// probes a one-column level with. It must match nothing.
fn retyped(value: Value) -> Value {
    match value {
        Value::Int(i) => Value::Str(i as u32),
        Value::Str(s) => Value::Int(i64::from(s)),
        Value::Null => Value::Null,
    }
}

/// The keys one below the smallest and one above the largest non-NULL key of
/// a one-column level, where they exist: the first misses of a slot array.
fn beyond_range(keys: &[Value]) -> Vec<Value> {
    let ints = keys
        .iter()
        .filter_map(|key| if let Value::Int(i) = *key { Some(i) } else { None });
    let ids = keys
        .iter()
        .filter_map(|key| if let Value::Str(s) = *key { Some(s) } else { None });
    let int_ends = [
        ints.clone().min().and_then(|min| min.checked_sub(1)),
        ints.max().and_then(|max| max.checked_add(1)),
    ];
    let id_ends = [
        ids.clone().min().and_then(|min| min.checked_sub(1)),
        ids.max().and_then(|max| max.checked_add(1)),
    ];
    let ints = int_ends.into_iter().flatten().map(Value::Int);
    ints.chain(id_ends.into_iter().flatten().map(Value::Str)).collect()
}

/// How many forced one-column levels a check met with a slot array and how
/// many with a hash map.
#[derive(Debug, Default, Clone, Copy)]
struct WordLevels {
    dense: usize,
    hashed: usize,
}

/// Check `node` (at `level`, standing for `rows`) against the oracle, then
/// recurse into every child, counting the one-column levels by index kind.
fn check_node(
    trie: &InputTrie,
    input: &BoundInput,
    node: NodeRef<'_>,
    level: usize,
    rows: &[u32],
    seen: &mut WordLevels,
) {
    assert_eq!(node.key_bound(), rows.len());
    if level == trie.num_levels() {
        return;
    }
    let arity = trie.level_vars(level).len();
    let key_of = |row: u32| input.read_vars(row as usize, trie.level_vars(level));
    let nothing_keyed_below = (level + 1..trie.num_levels()).all(|l| trie.level_vars(l).is_empty());
    assert_eq!(trie.iterates_rows(node, level), !node.is_map() && nothing_keyed_below && arity > 0);
    if nothing_keyed_below && !node.is_map() {
        let mut seen = Vec::new();
        if arity == 0 {
            // Nothing to tell the tuples apart: a non-empty leaf is one
            // entry whose child — the leaf itself — carries their number.
            trie.for_each(node, level, |key, child| {
                assert!(key.is_empty());
                assert_eq!(child.expect("the leaf itself").key_bound(), rows.len());
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
    // A key of the right payload and the wrong type counts nothing.
    let scanned = !node.is_map() && rows.len() <= SCAN_PROBE_MAX_ROWS && arity == 1;
    let absent = vec![Value::Int(i64::MAX - 1); arity];
    let check_counts = || {
        for group in oracle.values() {
            let key = key_of(group[0]);
            assert_eq!(trie.count_matches(node, level, &key), group.len() as u64);
            if let [value] = key[..] {
                let expected = if value.is_null() { group.len() as u64 } else { 0 };
                assert_eq!(trie.count_matches(node, level, &[retyped(value)]), expected);
            }
        }
        assert_eq!(
            trie.count_matches(node, level, &absent),
            u64::from(absent.is_empty()) * rows.len() as u64
        );
    };
    check_counts();
    assert_eq!(node.is_map(), !scanned, "level {level}: {} rows", rows.len());

    let forced = trie.force(node, level, true);
    assert_eq!(forced.num_keys(), oracle.len());
    assert_eq!(node.key_bound(), rows.len(), "forcing leaves the bound where it was");
    // A one-column level is a slot array exactly when its non-NULL keys span
    // fewer than four values per row, whatever their type (or there are
    // none); a level of any other arity never is.
    if arity == 1 {
        let payloads = || oracle.keys().filter(|k| k[0].0 > 0).map(|k| k[0].1);
        let span = payloads().max().zip(payloads().min()).map_or(0, |(max, min)| max.abs_diff(min));
        assert_eq!(forced.is_dense(), span < 4 * rows.len() as u64 || oracle.is_empty());
        if forced.is_dense() {
            seen.dense += 1;
        } else {
            seen.hashed += 1;
        }
    } else {
        assert!(!forced.is_dense());
    }
    // The same answers from the index.
    check_counts();
    // A forced node hands out one entry per distinct key, in the order the
    // keys first occur; sub-ranges of children concatenate to the same list.
    let mut entries: Vec<(Vec<Value>, NodeRef<'_>)> = Vec::new();
    trie.for_each(node, level, |key, child| {
        entries.push((key.to_vec(), child.expect("a forced level's entries have children")));
    });
    let mut in_ranges = Vec::new();
    let mid = forced.num_keys() / 2;
    for range in [0..mid, mid..forced.num_keys()] {
        trie.for_each_child(forced, level, range, |key, _| in_ranges.push(key.to_vec()));
    }
    assert_eq!(in_ranges, entries.iter().map(|(key, _)| key.clone()).collect::<Vec<_>>());
    let mut by_first_row: Vec<_> = oracle.iter().collect();
    by_first_row.sort_by_key(|(_, group)| group[0]);
    assert_eq!(entries.len(), by_first_row.len());
    for ((key, child), (oracle_key, group)) in entries.iter().zip(by_first_row) {
        assert_eq!(&ord(key), oracle_key, "level {level}: first-occurrence order");
        assert!(group.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(child.rows(), Some(group.as_slice()), "level {level} key {key:?}");
        let probed = trie.get(node, level, key).expect("stored keys are found");
        assert_eq!(probed.rows(), child.rows());
        check_node(trie, input, *child, level + 1, group, seen);
    }
    if arity > 0 {
        assert!(trie.get(node, level, &absent).is_none());
    }
    if arity == 1 {
        let keys: Vec<Value> = entries.iter().map(|(key, _)| key[0]).collect();
        for outside in beyond_range(&keys) {
            assert!(trie.get(node, level, &[outside]).is_none(), "level {level}: {outside:?}");
            assert_eq!(trie.count_matches(node, level, &[outside]), 0);
        }
    }
}

/// One-, two- and three-column levels (and the empty one) over the plain,
/// the string and the NULL-masked columns, in every position.
const SCHEMAS: [&[&[&str]]; 9] = [
    &[&["a"], &["b"], &["c"]],
    &[&["d"], &["c"], &[]],
    &[&["b"], &["a"], &["d"]],
    &[&["a", "b"], &["c"]],
    &[&["c"], &["b", "d"], &[]],
    &[&["a", "b", "c"]],
    &[&["d", "c", "a"], &["b"]],
    &[&[], &["c", "b", "a"]],
    &[&["b"], &[], &["a", "c"]],
];

fn check_all_layouts(input: &BoundInput) -> WordLevels {
    let all_rows: Vec<u32> = (0..input.num_rows() as u32).collect();
    let mut seen = WordLevels::default();
    for levels in SCHEMAS {
        for strategy in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            let schema: Vec<Vec<String>> =
                levels.iter().map(|l| l.iter().map(|v| v.to_string()).collect()).collect();
            let trie = InputTrie::build(input, schema, strategy);
            assert_eq!(trie.root().rows(), None);
            check_node(&trie, input, trie.root(), 0, &all_rows, &mut seen);
        }
    }
    seen
}

/// The shapes a generator rarely hits: no rows, one row, one key repeated,
/// every key distinct, only NULLs — each at row counts on both sides of the
/// scan bound.
#[test]
fn degenerate_relations_group_like_the_oracle() {
    check_all_layouts(&input_of(&[]));
    for n in [1, 2, SCAN_PROBE_MAX_ROWS as i64, SCAN_PROBE_MAX_ROWS as i64 + 1, 70] {
        let rows = |f: &dyn Fn(i64) -> [Option<i64>; 4]| (0..n).map(f).collect::<Vec<_>>();
        // A single key in every column, masked columns included.
        check_all_layouts(&input_of(&rows(&|_| [Some(7), Some(7), Some(7), Some(7)])));
        check_all_layouts(&input_of(&rows(&|_| [None, Some(1), Some(2), None])));
        // All distinct, in descending order so first occurrence is not key
        // order; negative integers exercise the sign bit of the key word.
        check_all_layouts(&input_of(&rows(&|i| {
            [Some(-i), Some(n - i), Some(i64::MIN + i), Some(i)]
        })));
        // All distinct but for one NULL in the middle.
        check_all_layouts(&input_of(&rows(&|i| {
            [(i != n / 2).then_some(i), Some(i), Some(0), (i != n / 2).then_some(n - i)]
        })));
        // The extremes of both types, alternating: a span of `u64::MAX`
        // (`i64`) and of `u32::MAX` (ids) must not overflow into a slot array.
        let seen = check_all_layouts(&input_of(&rows(&|i| {
            let max = i % 2 == 1;
            let id = if max { i64::from(u32::MAX) } else { 0 };
            [Some(if max { i64::MAX } else { i64::MIN }), Some(id), Some(-i), Some(id)]
        })));
        assert_eq!(seen.hashed > 0, n > 1, "{n} rows: {seen:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn every_level_groups_rows_like_a_naive_btreemap(
        a in prop::collection::vec(0i64..1000, 0..70),
        b in prop::collection::vec(0i64..1000, 70),
        c in prop::collection::vec(0i64..1000, 70),
    ) {
        let codes: Vec<(i64, i64, i64)> =
            a.iter().zip(&b).zip(&c).map(|((&a, &b), &c)| (a, b, c)).collect();
        let seen = check_all_layouts(&skewed_input(&codes));
        prop_assert!(seen.dense > 0 && seen.hashed > 0, "{:?}", seen);
    }
}
