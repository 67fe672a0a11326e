//! The Generalized Hash Trie (GHT) and its build strategies.
//!
//! A GHT (Definition 3.1) is a tree whose internal nodes are hash maps from
//! key tuples to children and whose leaves are vectors of tuples. This module
//! implements the GHT over the column-oriented storage of `fj-storage`: leaf
//! vectors hold *row offsets* into the input relation rather than copies of
//! tuples, exactly as the paper's COLT (Column-Oriented Lazy Trie,
//! Section 4.2) prescribes, and hash-map levels are built either eagerly or
//! lazily depending on the [`TrieStrategy`]:
//!
//! * [`TrieStrategy::Simple`] — every map level is built up front (the
//!   classic Generic Join trie).
//! * [`TrieStrategy::Slt`] — only the first level is built up front; inner
//!   levels are built on first access (Freitag et al.'s lazy trie).
//! * [`TrieStrategy::Colt`] — nothing is built up front; the root iterates
//!   the base relation directly, and every level is built on first probe.
//!
//! # Layout
//!
//! The trie is **flat**: forcing a node builds one [`Level`] — one
//! `Box<[u32]>` of the node's row offsets grouped by child (count,
//! prefix-sum, scatter; rows stay ascending inside each group, which keeps
//! emission order deterministic), one `Box<[TrieNode]>` of children in
//! **first-occurrence order**, and an index from key to child. A
//! [`TrieNode`] is its row range in its parent's offset array plus the
//! `OnceLock` of its own level, so a leaf is a sub-slice of its parent's
//! offsets and every node knows its tuple count in O(1). Forcing a
//! one-column level costs a constant number of allocations — six, or seven
//! for a refitted hash index — whatever its size: every buffer, the index
//! included, is sized once, from the node's row count or its key range (see
//! below).
//! A level the plan compiler pruned (no live variable below it, see
//! [`crate::compile`]) is never built or walked: the node above it is a leaf
//! whose multiplicity is `len`.
//!
//! **The level stores no keys outside its index.** Iteration reads each
//! child's key from the base columns through the child's first row — COLT's
//! "the offsets are the data" applied to the map itself — so
//! [`InputTrie::for_each`] walks the children in first-occurrence order, a
//! deterministic order that does not depend on a hash function, and the
//! scheduler splits an expansion into plain child-index ranges
//! ([`InputTrie::for_each_child`]) without materializing an entry list.
//!
//! # Key representation and hashing
//!
//! What the index is depends on the level's key columns:
//!
//! * **One column** — every level the JOB-like and LSQB-like plans force —
//!   is **word-keyed**: an index from the key's 64-bit payload (the `i64`'s
//!   bits, or the `u32` dictionary id) to the child index, one reserved
//!   child for `NULL`, and the column's [`DataType`]. The build loop reads
//!   the typed column slice straight into the index and constructs no
//!   [`Value`]; a probe checks the key's type against the column's first. A
//!   key of the other type matches nothing (an `Int64` 5 is not a `Str` #5)
//!   and `NULL` matches the `NULL` child: exactly what comparing `Value`s
//!   gives. The index takes one of two forms, decided per level when it is
//!   built:
//!   * **dense** — when the non-NULL keys span fewer than
//!     `DENSE_SLOTS_PER_ROW` (four) values per row of the node (ids over a
//!     compact range: nearly every forced row of both suites), a
//!     `Box<[u32]>` of one slot per value of the range, found in one pass
//!     over the rows before the grouping pass fills it. A probe is one
//!     wrapping subtract, one bounds check and one load; nothing is hashed,
//!     and the build never refits;
//!   * **hashed** — any other key set: a `HashMap<u64, u32,
//!     FastBuildHasher>` sized once from the row count and refitted once to
//!     its keys when they leave it at most a quarter full
//!     (`WORD_INDEX_REFIT_RATIO`). A probe hashes one word and compares
//!     eight bytes.
//! * **No column or several** keep a `HashMap<LevelKey, u32>` (see
//!   `fj_storage::key`: inline for arity ≤ 2, one boxed slice per distinct
//!   wider key), probed with the borrowed `&[Value]` through
//!   `LevelKey: Borrow<[Value]>`, so no probe allocates at any arity.
//!
//! Both forms give every child the same index, in first-occurrence order:
//! they differ in how a probe finds a child, never in which one. The hash
//! maps hash with the workspace's FxHash-style [`FastBuildHasher`].
//! `Null` is an ordinary key value (`Null == Null`), so NULL groups occupy
//! trie branches like any other — a trie must represent every row. NULL
//! keys match NULL keys in every engine (see `fj_storage::Value` on the
//! SQL-semantics gap tracked in the ROADMAP).
//!
//! # Lazy leaves
//!
//! Split factoring (`fj_plan::factor`) gives the inner nodes of a cyclic
//! plan one small sub-trie per `(input, binding)` — an adjacency list of ten
//! rows on average in the LSQB-like graph — and a level built for each of
//! them costs more than the intersection it serves. A node's level is
//! therefore built only when it has to be *addressed*; the other two things
//! the executor does with a node read the rows where they are:
//!
//! * **iterated** — a node with no keyed level below it (the last level, or
//!   a level followed only by the trailing empty one) is walked row by row
//!   straight off the column vectors, whether it is the cover the plan
//!   designated or one the executor chose at run time
//!   ([`InputTrie::for_each`], [`InputTrie::iterates_rows`]); duplicates
//!   come out as separate weight-1 entries;
//! * **scanned** — a probe of an input's *final* subatom only needs the
//!   number of rows under the key, and on an unforced node of at most
//!   [`SCAN_PROBE_MAX_ROWS`] rows (under a one-variable level) it gets it by
//!   comparing the rows through the typed column cursor
//!   ([`InputTrie::count_matches`]); the node stays unforced, so a trie
//!   resident in the cache is scanned again by the next query;
//! * **built** — everything else: a probe that must descend (the input has
//!   subatoms to come), any probe into a node above the scan bound (a hub is
//!   forced once and shared by every later binding and query), an iteration
//!   with keyed levels below, and an expansion the scheduler splits.
//!
//! A position in the trie is a [`NodeRef`]: a `Copy` pair of borrows (the
//! node and its row slice) tied to the [`InputTrie`]. The executor holds,
//! saves, restores and ships positions between workers by copying handles;
//! nothing on the probe path touches a reference count or the allocator.
//!
//! # Threading model
//!
//! The trie is `Send + Sync` so that the work-stealing parallel executor
//! ([`crate::exec`]) can probe — and therefore lazily force — nodes from
//! many worker threads at once. A node's row range is immutable and its
//! level sits behind a [`OnceLock`]: the first thread to touch an unforced
//! node builds the level (behind a cold call) while racing threads block,
//! and afterwards [`InputTrie::force`] is an inlined atomic load. Handles
//! are plain shared borrows, so workers share no mutable state — not even a
//! reference count — on forced levels.

use crate::options::TrieStrategy;
use crate::prep::BoundInput;
use fj_storage::{
    Column, DataType, FastBuildHasher, LevelKey, Relation, Value, MAX_INLINE_KEY_ARITY,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A probe of an input's final subatom into an unforced node of at most this
/// many rows compares the rows' keys in place instead of forcing the node
/// into a map ([`InputTrie::count_matches`]).
///
/// Chosen by measurement, not an option. On the benchmark's `lsqb_cyclic`
/// workload (three alternating 8 s runs per value, same build otherwise)
/// `fj_geomean_ms` read 46.1 / 46.1 / 49.1 at 8, 43.6 / 44.8 / 43.7 at 16
/// and 42.2 / 43.4 / 43.8 at 32, with 15,115, 3,807 and 1,281 levels built
/// per suite (49,506 when every probe forces); warm `serve_hot`, whose cached
/// tries are re-scanned by every request, stayed within run-to-run noise of
/// the forcing build at 0, 8 and 16. 16 takes nearly all of the gain while
/// bounding what a probe can cost on a resident trie to sixteen comparisons.
pub const SCAN_PROBE_MAX_ROWS: usize = 16;

/// The hash state of the multi-column index. Outside tests it is the
/// workspace's [`FastBuildHasher`]; under `cfg(test)` a switch makes every
/// key collide, so a unit test can check that wide lookups rest on key
/// equality and not on hash luck.
#[cfg(not(test))]
type WideBuildHasher = FastBuildHasher;
#[cfg(test)]
type WideBuildHasher = tests::SwitchableBuildHasher;

/// `f` with every trie it builds on this thread keeping its one-column
/// levels hashed, however compact their keys: the other half of a test that
/// runs a fixture on both word indexes.
#[cfg(test)]
pub(crate) fn with_hashed_words<R>(f: impl FnOnce() -> R) -> R {
    tests::HASH_WORDS.set(true);
    let result = f();
    tests::HASH_WORDS.set(false);
    result
}

/// One node of a GHT: a range of its parent level's row offsets and, once
/// forced, the level keyed on its own schema level.
///
/// `Send + Sync`: the range is immutable after construction and the level is
/// built at most once through the `OnceLock`.
#[derive(Debug)]
pub struct TrieNode {
    /// Where this node's offsets start in its parent's [`Level`] (0 for the
    /// root, which stands for every row of the relation).
    start: u32,
    /// Number of base rows below this node; fixed at construction.
    len: u32,
    /// The forced level, built lazily at most once. Boxed so that the
    /// leaves — most nodes of most tries — stay three words.
    forced: OnceLock<Box<Level>>,
}

/// A forced level: the node's rows grouped by key, one child per distinct
/// key, and the index that finds a key's child.
#[derive(Debug)]
pub struct Level {
    /// Key to index into `children`.
    index: LevelIndex,
    /// One node per distinct key, in first-occurrence order. A child's key
    /// is not stored: it is read from the base columns at the child's first
    /// row.
    children: Box<[TrieNode]>,
    /// The forced node's row offsets grouped by child, ascending inside
    /// each group; every child is a sub-slice.
    rows: Box<[u32]>,
}

/// How a [`Level`] finds the child under a key (see "Key representation and
/// hashing" in the module docs).
#[derive(Debug)]
enum LevelIndex {
    /// One key column: the key's 64-bit payload to the child index. `NULL`
    /// has no payload and gets a child of its own; a key whose type is not
    /// `data_type` matches nothing.
    Word { data_type: DataType, words: WordIndex, null: Option<u32> },
    /// No key column or several.
    Wide(HashMap<LevelKey, u32, WideBuildHasher>),
}

/// A one-column level's map from key payload to child index.
#[derive(Debug)]
enum WordIndex {
    /// Keys spanning fewer than [`DENSE_SLOTS_PER_ROW`] values per row: the
    /// child of payload `w` sits at `slots[w - base]`, [`NO_CHILD`] where no
    /// key does.
    Dense { base: u64, slots: Box<[u32]> },
    /// Any other key set.
    Hashed(HashMap<u64, u32, FastBuildHasher>),
}

/// An empty slot of a [`WordIndex::Dense`] index. No level has this many
/// children: offsets are `u32` and a child holds at least one row.
const NO_CHILD: u32 = u32::MAX;

impl WordIndex {
    /// The child under payload `word`. A dense probe is one wrapping
    /// subtract, one bounds check and one load: a key outside the range
    /// wraps past the end of the slots.
    #[inline]
    fn get(&self, word: u64) -> Option<u32> {
        match self {
            WordIndex::Dense { base, slots } => {
                let slot = usize::try_from(word.wrapping_sub(*base)).ok()?;
                slots.get(slot).copied().filter(|&child| child != NO_CHILD)
            }
            WordIndex::Hashed(map) => map.get(&word).copied(),
        }
    }
}

impl Level {
    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.children.len()
    }

    /// Is the index a slot array (a one-column level whose keys span fewer
    /// than four values per row) rather than a hash map?
    pub fn is_dense(&self) -> bool {
        matches!(self.index, LevelIndex::Word { words: WordIndex::Dense { .. }, .. })
    }

    #[inline]
    fn child(&self, i: u32) -> NodeRef<'_> {
        self.node_ref(&self.children[i as usize])
    }

    #[inline]
    fn node_ref<'t>(&'t self, node: &'t TrieNode) -> NodeRef<'t> {
        NodeRef { node, rows: Some(&self.rows[node.start as usize..][..node.len as usize]) }
    }

    /// The first row of every child in `range`, with the child.
    fn first_rows(&self, range: Range<usize>) -> impl Iterator<Item = (u32, NodeRef<'_>)> {
        self.children[range]
            .iter()
            .map(|node| (self.rows[node.start as usize], self.node_ref(node)))
    }
}

/// A position in a trie: a `Copy` borrowed handle on a node and the row
/// offsets it stands for (`None` for the root: every row, never
/// materialized). Valid for as long as the [`InputTrie`] it came from.
#[derive(Debug, Clone, Copy)]
pub struct NodeRef<'t> {
    node: &'t TrieNode,
    rows: Option<&'t [u32]>,
}

impl<'t> NodeRef<'t> {
    /// Is this node currently a hash map?
    pub fn is_map(&self) -> bool {
        self.node.forced.get().is_some()
    }

    /// The row offsets below this node, ascending; `None` at the root,
    /// which stands for every row of the relation.
    pub fn rows(&self) -> Option<&'t [u32]> {
        self.rows
    }

    /// The row offsets below this node, ascending, the root's included.
    fn row_iter(self) -> impl ExactSizeIterator<Item = u32> + Clone + 't {
        let rows = self.rows;
        (0..self.node.len).map(move |i| rows.map_or(i, |rows| rows[i as usize]))
    }

    /// The number of base rows below this node: one field read, fixed at
    /// construction. It is the node's multiplicity when an input's final
    /// subatom reaches it, and an upper bound on its distinct keys — the
    /// paper's "length of the vector as an estimate" (Section 4.4) — which
    /// is the one size the executor ranks covers and probes by and tests
    /// against the split threshold. An eagerly built node reports its row
    /// count too, not its map size, and forcing a node never changes the
    /// answer, so decisions keyed on it are identical under every strategy,
    /// at any thread count or steal schedule, and for a trie that arrives
    /// forced from the cache.
    #[inline]
    pub fn key_bound(&self) -> usize {
        self.node.len as usize
    }
}

/// The GHT of one pipeline input, together with the metadata needed to build
/// and access it (the paper's `relation`, `schema` and `vars` fields of the
/// COLT structure, Figure 12).
#[derive(Debug)]
pub struct InputTrie {
    /// Input display name (for diagnostics).
    name: String,
    /// The bound (filtered) relation the offsets point into.
    relation: Arc<Relation>,
    /// Whether `relation` goes when this trie does ([`BoundInput::owns_rows`]).
    owns_rows: bool,
    /// Variable names per level; the last level may be empty (a pure leaf).
    schema: Vec<Vec<String>>,
    /// Column index (in `relation`) of each variable, per level.
    level_cols: Vec<Vec<usize>>,
    /// The deepest level that has key columns (0 when none has): below it a
    /// node's rows are told apart by nothing, so a node at or past it is
    /// iterated row by row instead of being grouped into a map.
    last_keyed_level: usize,
    /// The root node.
    root: TrieNode,
    /// Number of hash-map levels built (eager + lazy).
    maps_built: AtomicU64,
    /// Number of hash-map levels built lazily during the join phase.
    lazy_built: AtomicU64,
    /// Keep every one-column level hashed: [`tests::HASH_WORDS`] as it was
    /// on the thread that built the trie, whichever thread forces a level.
    #[cfg(test)]
    hash_words: bool,
}

/// The executor copies handles across worker threads and forces nodes
/// concurrently; keep those invariants checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_copy<T: Copy>() {}
    assert_send_sync::<InputTrie>();
    assert_send_sync::<NodeRef<'static>>();
    assert_copy::<NodeRef<'static>>();
};

/// Bind `$get` to a `row -> Value` reader over `$col` and evaluate `$body`
/// with the column's variant matched once, outside the body's row loop:
/// unmasked `Int64`/`Str` columns read their typed slice, anything else
/// falls back to [`Column::get`].
macro_rules! with_reader {
    ($col:expr, $get:ident => $body:expr) => {
        match $col {
            Column::Int64(v, None) => {
                let $get = |row: u32| Value::Int(v[row as usize]);
                $body
            }
            Column::Str(v, None) => {
                let $get = |row: u32| Value::Str(v[row as usize]);
                $body
            }
            col => {
                let $get = |row: u32| col.get(row as usize);
                $body
            }
        }
    };
}

/// Bind `$word` to a `row -> Option<u64>` reader of `$col`'s key payloads
/// (`None` for NULL) and evaluate `$body`, with the column's variant and
/// mask matched once, outside the body's row loop. No [`Value`] is built.
macro_rules! with_word_reader {
    ($col:expr, $word:ident => $body:expr) => {
        match $col {
            Column::Int64(v, None) => {
                let $word = |row: u32| Some(v[row as usize] as u64);
                $body
            }
            Column::Int64(v, Some(valid)) => {
                let $word = |row: u32| valid[row as usize].then(|| v[row as usize] as u64);
                $body
            }
            Column::Str(v, None) => {
                let $word = |row: u32| Some(u64::from(v[row as usize]));
                $body
            }
            Column::Str(v, Some(valid)) => {
                let $word = |row: u32| valid[row as usize].then(|| u64::from(v[row as usize]));
                $body
            }
        }
    };
}

/// A one-column level whose non-NULL keys lie within a range of fewer than
/// this many values per row is indexed by a slot array over the range
/// ([`WordIndex::Dense`]) instead of a hash map.
///
/// A fact fixed by the layout, not an option: four `u32` slots a row are
/// 16 bytes, below what a word map's build reserves for a row — it is sized
/// from the row count, at least 8/7 slots of a 16-byte `(u64, u32)` entry
/// and a control byte each, over 19 bytes — so a dense level never takes
/// more memory than the map its build would reserve for the same rows.
const DENSE_SLOTS_PER_ROW: u64 = 4;

/// A hashed word index sized from the row count is refitted to its keys when
/// they fill at most one in this many of the entries reserved (`len <=
/// capacity / 4`): a level of a few rows per key would otherwise be probed,
/// for as long as the trie lives, in a table several times the size its
/// keys need.
///
/// Levels of many rows per key over a compact range — the parent of
/// adjacency lists, a fact table's foreign key — are dense and never come
/// here; on `lsqb_cyclic` and `job_cold` no hashed level is refitted. What
/// is left are levels over scattered keys: a 10 s `serve_churn` run (seed
/// 42) refitted 257 of its 13,871 hashed levels (198,473 rows), range-
/// filtered atoms such as 119 rows holding 54 keys spread over 13..4498.
/// Refitting costs one allocation and one pass over the distinct keys — at
/// most a quarter of the rows — and never triggers where keys are mostly
/// distinct. The ratio was measured when `lsqb_cyclic`'s `knows` levels
/// (9,000 keys over 90,000 rows) still took this path: refitted at 4, Free
/// Join's per-query medians read 29.0-31.2 ms (geometric mean) against
/// 31.9-36.9 ms with the index left at its row count.
const WORD_INDEX_REFIT_RATIO: usize = 4;

/// Assign every row its child index, in first-occurrence order of its key
/// word, appending to `child_of`; returns the index and the number of
/// children. One pass finds the range of the non-NULL keys; when it is
/// compact ([`DENSE_SLOTS_PER_ROW`]) and `dense` allows it, the index is a
/// slot array over the range, and otherwise a map sized once, from the
/// number of rows, and refitted to its keys if they leave it mostly empty
/// ([`WORD_INDEX_REFIT_RATIO`]).
fn group_by_word(
    rows: impl ExactSizeIterator<Item = u32> + Clone,
    data_type: DataType,
    word: impl Fn(u32) -> Option<u64>,
    dense: bool,
    child_of: &mut Vec<u32>,
) -> (LevelIndex, u32) {
    let (words, (null, num_children)) = match dense_range(rows.clone(), &word).filter(|_| dense) {
        Some((base, len)) => {
            let mut slots = vec![NO_CHILD; len].into_boxed_slice();
            let assigned = assign_children(rows, word, child_of, |word, next| {
                let slot = &mut slots[word.wrapping_sub(base) as usize];
                if *slot == NO_CHILD {
                    *slot = next;
                }
                *slot
            });
            (WordIndex::Dense { base, slots }, assigned)
        }
        None => {
            let mut map: HashMap<u64, u32, FastBuildHasher> =
                HashMap::with_capacity_and_hasher(rows.len(), FastBuildHasher);
            let assigned = assign_children(rows, word, child_of, |word, next| {
                *map.entry(word).or_insert(next)
            });
            if map.len() <= map.capacity() / WORD_INDEX_REFIT_RATIO {
                map.shrink_to_fit();
            }
            (WordIndex::Hashed(map), assigned)
        }
    };
    (LevelIndex::Word { data_type, words, null }, num_children)
}

/// The base and the length of a slot array over the non-NULL key words of
/// `rows`, or `None` when they span [`DENSE_SLOTS_PER_ROW`] values per row
/// or more. Words compare as the column's values — an `Int64` payload is
/// the integer's bits, a `Str` id fits an `i64` as it is — and the span of
/// `i64::MIN` and `i64::MAX` is `u64::MAX`, so nothing overflows. With no
/// such key the array is empty.
fn dense_range(
    rows: impl ExactSizeIterator<Item = u32>,
    word: impl Fn(u32) -> Option<u64>,
) -> Option<(u64, usize)> {
    let num_rows = rows.len() as u64;
    let range = rows.filter_map(word).map(|w| w as i64).fold(None, |range, key| match range {
        None => Some((key, key)),
        Some((min, max)) => Some((key.min(min), key.max(max))),
    });
    let Some((min, max)) = range else { return Some((0, 0)) };
    let span = max.abs_diff(min);
    if span >= DENSE_SLOTS_PER_ROW * num_rows {
        return None;
    }
    Some((min as u64, usize::try_from(span + 1).ok()?))
}

/// Assign every row its child index in first-occurrence order, appending to
/// `child_of`: a NULL key gets its own child, and any other key word
/// `child_of_word(word, next)`, which is `next` when the word is new.
/// Returns the NULL child and the number of children.
fn assign_children(
    rows: impl Iterator<Item = u32>,
    word: impl Fn(u32) -> Option<u64>,
    child_of: &mut Vec<u32>,
    mut child_of_word: impl FnMut(u64, u32) -> u32,
) -> (Option<u32>, u32) {
    let (mut next, mut null) = (0u32, None);
    for row in rows {
        let child = match word(row) {
            Some(word) => child_of_word(word, next),
            None => *null.get_or_insert(next),
        };
        next += u32::from(child == next);
        child_of.push(child);
    }
    (null, next)
}

impl InputTrie {
    /// Build the trie for a bound input according to the GHT schema computed
    /// from the Free Join plan and the chosen strategy.
    ///
    /// # Panics
    /// Panics if a schema variable is not bound by the input.
    pub fn build(input: &BoundInput, schema: Vec<Vec<String>>, strategy: TrieStrategy) -> Self {
        let level_cols: Vec<Vec<usize>> = schema
            .iter()
            .map(|vars| {
                vars.iter()
                    .map(|v| {
                        input.col_of(v).unwrap_or_else(|| {
                            panic!("schema variable {v} not bound by input {}", input.name)
                        })
                    })
                    .collect()
            })
            .collect();
        let num_rows = u32::try_from(input.relation.num_rows()).expect("row offsets are u32");
        let trie = InputTrie {
            name: input.name.clone(),
            relation: Arc::clone(&input.relation),
            owns_rows: input.owns_rows,
            schema,
            last_keyed_level: level_cols.iter().rposition(|cols| !cols.is_empty()).unwrap_or(0),
            level_cols,
            root: TrieNode { start: 0, len: num_rows, forced: OnceLock::new() },
            maps_built: AtomicU64::new(0),
            lazy_built: AtomicU64::new(0),
            #[cfg(test)]
            hash_words: tests::HASH_WORDS.get(),
        };
        match strategy {
            TrieStrategy::Colt => {}
            TrieStrategy::Slt => trie.force_down_to(trie.root(), 0, 1),
            TrieStrategy::Simple => trie.force_down_to(trie.root(), 0, usize::MAX),
        }
        trie
    }

    /// Eagerly force `node` (at `level`) and its descendants, `depth` map
    /// levels deep. The last schema level is never forced up front — its
    /// nodes are the GHT leaves.
    fn force_down_to(&self, node: NodeRef<'_>, level: usize, depth: usize) {
        if depth == 0 || self.is_last_level(level) {
            return;
        }
        let forced = self.force(node, level, false);
        if depth > 1 {
            for (_, child) in forced.first_rows(0..forced.num_keys()) {
                self.force_down_to(child, level + 1, depth - 1);
            }
        }
    }

    /// The input name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root position.
    pub fn root(&self) -> NodeRef<'_> {
        NodeRef { node: &self.root, rows: None }
    }

    /// Number of rows in the underlying bound relation.
    pub fn num_rows(&self) -> usize {
        self.relation.num_rows()
    }

    /// Number of levels in the GHT schema.
    pub fn num_levels(&self) -> usize {
        self.schema.len()
    }

    /// The variables keyed at a level.
    pub fn level_vars(&self, level: usize) -> &[String] {
        &self.schema[level]
    }

    /// Is `level` the last level of the schema?
    pub fn is_last_level(&self, level: usize) -> bool {
        level + 1 >= self.schema.len()
    }

    /// Number of hash-map levels built so far (eager and lazy).
    pub fn maps_built(&self) -> u64 {
        self.maps_built.load(Ordering::Relaxed)
    }

    /// Number of hash-map levels built lazily during the join phase.
    pub fn lazy_built(&self) -> u64 {
        self.lazy_built.load(Ordering::Relaxed)
    }

    /// A pessimistic estimate of the trie's eventual heap footprint in
    /// bytes, for cache budget accounting: the bound relation's columns —
    /// when they are this input's own, not the catalog's — plus an allowance
    /// per row and level for the levels lazy forcing may eventually build. Charged once at cache-insert time, so it
    /// deliberately bounds the *fully forced* trie rather than tracking lazy
    /// growth.
    pub fn estimated_bytes(&self) -> usize {
        // Fixed per-trie overhead, charged even for a trie over zero rows:
        // the `InputTrie` struct, its name/schema strings, and a share of
        // the cache's own key/bookkeeping for this entry. Without a floor, a
        // serving workload probing many distinct filters that each match
        // nothing would insert zero-cost entries the budget never sees,
        // growing the cache without bound.
        const BASE_BYTES: usize = 256;
        // Per-(row, level) cost of a forced word-keyed level, computed from
        // the actual layout so budget accounting stays honest if the
        // representation changes again: the row's `u32` in the grouped
        // offset array; the word map's share — it is sized from the row
        // count, and a hash table of capacity n holds between 8n/7 and 16n/7
        // slots of one entry and one control byte each, so 16/7 slots; and,
        // pessimistically assuming every row is a distinct key (the case in
        // which the index is not refitted to fewer keys), one child node.
        // A dense index stays inside this allowance: at most
        // `DENSE_SLOTS_PER_ROW` `u32` slots a row, 16 bytes against the map's
        // 16/7 x 17. The wide levels' 48-byte entries are absorbed by the
        // all-distinct, every-level-forced over-count.
        let slot = std::mem::size_of::<(u64, u32)>() + 1;
        let row_level =
            std::mem::size_of::<u32>() + (16 * slot).div_ceil(7) + std::mem::size_of::<TrieNode>();
        // The rows themselves only where dropping the trie frees them: an
        // unfiltered atom's trie points into the catalog's own relation.
        let rows = if self.owns_rows { self.relation.approx_bytes() } else { 0 };
        BASE_BYTES + rows + self.relation.num_rows() * self.schema.len().max(1) * row_level
    }

    /// Call `f(key, item)` with the `level` key of every `(row, item)`, in
    /// order, reading directly from the column vectors. Arity ≤ 2 keys are
    /// assembled in stack arrays from typed column cursors; wider keys go
    /// through one reused buffer. No per-row allocation either way.
    fn read_keys<T>(
        &self,
        level: usize,
        items: impl Iterator<Item = (u32, T)>,
        mut f: impl FnMut(&[Value], T),
    ) {
        let col = |c: usize| self.relation.column(c);
        match *self.level_cols[level].as_slice() {
            [] => items.for_each(|(_, item)| f(&[], item)),
            [c] => with_reader!(col(c), get => items.for_each(|(row, item)| f(&[get(row)], item))),
            [c0, c1] => with_reader!(col(c0), a => with_reader!(col(c1), b => {
                items.for_each(|(row, item)| f(&[a(row), b(row)], item))
            })),
            ref cols => {
                let mut key: Vec<Value> = Vec::with_capacity(cols.len());
                for (row, item) in items {
                    key.clear();
                    key.extend(cols.iter().map(|&c| col(c).get(row as usize)));
                    f(&key, item);
                }
            }
        }
    }

    /// Group the rows below `node` by the key of `level` into a fresh
    /// [`Level`]: assign child indices in first-occurrence order, count the
    /// rows of each child, prefix-sum the counts into child ranges, then
    /// scatter the rows — stably — into one grouped offset array. Every
    /// buffer here is sized once.
    fn build_level(&self, node: NodeRef<'_>, level: usize) -> Level {
        let mut child_of: Vec<u32> = Vec::with_capacity(node.node.len as usize);
        let (index, num_children) = match *self.level_cols[level].as_slice() {
            [c] => {
                let column = self.relation.column(c);
                with_word_reader!(column, word => {
                    let (rows, data_type) = (node.row_iter(), column.data_type());
                    group_by_word(rows, data_type, word, self.dense_words(), &mut child_of)
                })
            }
            _ => self.group_by_wide_key(node, level, &mut child_of),
        };
        let mut cursors = vec![0u32; num_children as usize];
        for &child in &child_of {
            cursors[child as usize] += 1;
        }
        let mut next_start = 0;
        let children: Box<[TrieNode]> = cursors
            .iter_mut()
            .map(|cursor| {
                // The child's count becomes its scatter cursor.
                let (start, len) = (next_start, std::mem::replace(cursor, next_start));
                next_start += len;
                TrieNode { start, len, forced: OnceLock::new() }
            })
            .collect();
        let mut rows = vec![0u32; child_of.len()].into_boxed_slice();
        for (row, &child) in node.row_iter().zip(&child_of) {
            let cursor = &mut cursors[child as usize];
            rows[*cursor as usize] = row;
            *cursor += 1;
        }
        Level { index, children, rows }
    }

    /// May a one-column level take the slot array when its keys are compact?
    /// Always, outside tests.
    #[cfg(not(test))]
    fn dense_words(&self) -> bool {
        true
    }

    #[cfg(test)]
    fn dense_words(&self) -> bool {
        !self.hash_words
    }

    /// [`group_by_word`] for a level with no key column or several: the
    /// index is keyed by [`LevelKey`] and grows with the distinct keys (one,
    /// when there is no column). Inline keys hash once per row (`entry`);
    /// keys too wide to be inline are looked up borrowed and boxed only per
    /// *distinct* key.
    fn group_by_wide_key(
        &self,
        node: NodeRef<'_>,
        level: usize,
        child_of: &mut Vec<u32>,
    ) -> (LevelIndex, u32) {
        let mut map: HashMap<LevelKey, u32, WideBuildHasher> = HashMap::default();
        let mut next = 0u32;
        self.read_keys(level, node.row_iter().map(|row| (row, ())), |key, ()| {
            let child = if key.len() <= MAX_INLINE_KEY_ARITY {
                *map.entry(LevelKey::from_values(key)).or_insert(next)
            } else if let Some(&child) = map.get(key) {
                child
            } else {
                map.insert(LevelKey::from_values(key), next);
                next
            };
            next += u32::from(child == next);
            child_of.push(child);
        });
        (LevelIndex::Wide(map), next)
    }

    /// Force a node at `level` into a hash map, returning the level (an
    /// inlined atomic load if already forced). `lazy` marks whether this
    /// happens during the join phase (for the statistics that distinguish
    /// eager from lazy building).
    ///
    /// Safe to call from many threads at once: the first caller builds the
    /// level while the others block, and exactly one build is counted.
    #[inline]
    pub fn force<'t>(&'t self, node: NodeRef<'t>, level: usize, lazy: bool) -> &'t Level {
        match node.node.forced.get() {
            Some(forced) => forced,
            None => self.force_cold(node, level, lazy),
        }
    }

    #[cold]
    #[inline(never)]
    fn force_cold<'t>(&'t self, node: NodeRef<'t>, level: usize, lazy: bool) -> &'t Level {
        let mut built_here = false;
        let forced = node.node.forced.get_or_init(|| {
            built_here = true;
            Box::new(self.build_level(node, level))
        });
        if built_here {
            self.maps_built.fetch_add(1, Ordering::Relaxed);
            if lazy {
                self.lazy_built.fetch_add(1, Ordering::Relaxed);
            }
        }
        forced
    }

    /// Look up `key` at `node` (which sits at `level`), forcing the node into
    /// a map first if necessary. Returns the child position, or `None` if
    /// the key is absent. This is the `get` of the GHT interface (Figure 5).
    ///
    /// The key is a borrowed value slice — a stack array or reused buffer —
    /// so probing allocates nothing at any arity. On a one-column level only
    /// the value's payload word is hashed and compared, after its type was
    /// checked against the column's: a key of the other type finds nothing,
    /// and `NULL` finds the `NULL` group.
    #[inline]
    pub fn get<'t>(
        &'t self,
        node: NodeRef<'t>,
        level: usize,
        key: &[Value],
    ) -> Option<NodeRef<'t>> {
        let forced = self.force(node, level, true);
        let child = match &forced.index {
            LevelIndex::Word { data_type, words, null } => match (key, data_type) {
                (&[Value::Int(v)], DataType::Int64) => words.get(v as u64),
                (&[Value::Str(id)], DataType::Str) => words.get(u64::from(id)),
                (&[Value::Null], _) => *null,
                _ => None,
            },
            LevelIndex::Wide(map) => map.get(key).copied(),
        };
        child.map(|i| forced.child(i))
    }

    /// The number of rows below `node` whose `level` key is `key` (0 when
    /// the key is absent): all that a probe of an input's *final* subatom
    /// needs, since the rows under the key are only ever counted. An
    /// unforced node of at most [`SCAN_PROBE_MAX_ROWS`] rows under a
    /// one-variable level — what such probes meet in practice — answers by
    /// comparing its rows through the typed column cursor and stays
    /// unforced; any other node is probed as [`InputTrie::get`] probes it
    /// (forced once, shared from then on).
    #[inline]
    pub fn count_matches(&self, node: NodeRef<'_>, level: usize, key: &[Value]) -> u64 {
        if let (&[col], &[value]) = (self.level_cols[level].as_slice(), key) {
            if node.node.len as usize <= SCAN_PROBE_MAX_ROWS && !node.is_map() {
                let matches = with_reader!(self.relation.column(col), get => {
                    node.row_iter().filter(|&row| get(row) == value).count()
                });
                return matches as u64;
            }
        }
        self.get(node, level, key).map_or(0, |child| child.key_bound() as u64)
    }

    /// Does [`InputTrie::for_each`] walk `node` row by row (one entry per
    /// base row, no child) rather than key by key? True for an unforced node
    /// whose level has key columns and no keyed level below it.
    pub fn iterates_rows(&self, node: NodeRef<'_>, level: usize) -> bool {
        !node.is_map() && level >= self.last_keyed_level && !self.level_cols[level].is_empty()
    }

    /// Iterate the entries of `node` at `level`, calling `f(key, child)`.
    ///
    /// * For a forced (map) node, `key` ranges over the distinct keys, in
    ///   the order their first rows come in, and `child` is the
    ///   corresponding subtrie ([`InputTrie::for_each_child`]).
    /// * For an unforced node with **no keyed level below it** — the last
    ///   level, or a level followed only by the trailing empty one that
    ///   `ght_schemas` gives an input whose last subatom is not its node's
    ///   designated cover — the iteration goes directly over the underlying
    ///   tuples (one call per tuple, duplicates included, each standing for
    ///   itself) and `child` is `None`: the paper's "iterate directly over
    ///   the base table" optimization, which a dynamically chosen cover gets
    ///   like the designated one ([`InputTrie::iterates_rows`]). When the
    ///   level itself has no variables either (every variable of the input
    ///   was pruned), the tuples all carry the same empty key: a non-empty
    ///   node is reported as one entry whose `child` is the node itself, so
    ///   its multiplicity is one O(1) [`NodeRef::key_bound`] instead of
    ///   a call per row.
    /// * For an unforced node with a keyed level below it, the node is first
    ///   forced (iterating it tuple-wise would enumerate duplicate keys and
    ///   multiply work below).
    ///
    /// A caller that needs a child position for every entry (the level is
    /// not the last one its plan addresses) forces the node first.
    ///
    /// This is the `iter` of the GHT interface (Figure 5); the child is
    /// passed along so the caller does not need a separate `get` on the
    /// iterated trie (line 8 of Figure 7).
    pub fn for_each<'t>(
        &'t self,
        node: NodeRef<'t>,
        level: usize,
        mut f: impl FnMut(&[Value], Option<NodeRef<'t>>),
    ) {
        if self.iterates_rows(node, level) {
            self.read_keys(level, node.row_iter().map(|row| (row, None)), f);
        } else if node.is_map() || level < self.last_keyed_level {
            let forced = self.force(node, level, true);
            self.for_each_child(forced, level, 0..forced.num_keys(), f);
        } else if node.node.len > 0 {
            f(&[], Some(node));
        }
    }

    /// Iterate the children `range` (indices in first-occurrence order) of a
    /// forced level of `level`, calling `f(key, Some(child))` with each
    /// child's key read from the base columns at the child's first row. The
    /// whole range is [`InputTrie::for_each`] on the forced node; the
    /// scheduler hands out sub-ranges as tasks.
    pub fn for_each_child<'t>(
        &'t self,
        forced: &'t Level,
        level: usize,
        range: Range<usize>,
        f: impl FnMut(&[Value], Option<NodeRef<'t>>),
    ) {
        let children = forced.first_rows(range).map(|(row, child)| (row, Some(child)));
        self.read_keys(level, children, f);
    }

    /// Iterate the base rows `range` at `level` as [`InputTrie::for_each`]
    /// iterates an unforced root with no keyed level below it: one
    /// `f(key, None)` per row. The scheduler's root tasks over such a cover.
    pub(crate) fn for_each_row<'t>(
        &'t self,
        level: usize,
        range: Range<u32>,
        f: impl FnMut(&[Value], Option<NodeRef<'t>>),
    ) {
        self.read_keys(level, range.map(|row| (row, None)), f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::prepare_inputs;
    use fj_query::QueryBuilder;
    use fj_storage::{Catalog, Field, FxHasher, RelationBuilder, Schema};
    use std::cell::Cell;
    use std::hash::{BuildHasher, Hasher};

    thread_local! {
        /// While set, every multi-column index built or probed on this
        /// thread hashes all keys to the same value.
        static COLLIDE: Cell<bool> = const { Cell::new(false) };
        /// While set, every trie built on this thread keeps its one-column
        /// levels hashed, however compact their keys.
        pub(super) static HASH_WORDS: Cell<bool> = const { Cell::new(false) };
    }

    /// The multi-column index's hash state in test builds: the workspace's
    /// FxHash, or — under [`COLLIDE`] — a constant.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct SwitchableBuildHasher {
        collide: bool,
    }

    impl Default for SwitchableBuildHasher {
        fn default() -> Self {
            SwitchableBuildHasher { collide: COLLIDE.get() }
        }
    }

    pub(super) struct SwitchableHasher {
        inner: FxHasher,
        collide: bool,
    }

    impl BuildHasher for SwitchableBuildHasher {
        type Hasher = SwitchableHasher;
        fn build_hasher(&self) -> SwitchableHasher {
            SwitchableHasher { inner: FxHasher::default(), collide: self.collide }
        }
    }

    impl Hasher for SwitchableHasher {
        fn finish(&self) -> u64 {
            if self.collide {
                0
            } else {
                self.inner.finish()
            }
        }
        fn write(&mut self, bytes: &[u8]) {
            self.inner.write(bytes);
        }
    }

    /// The paper's Figure 3 instance of relation S for the clover query,
    /// with n = 3: {(x0,b0)} ∪ {(x2,bl_i), (x3,br_i) | i in 1..3}.
    fn clover_s_input() -> BoundInput {
        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("S", Schema::all_int(&["x", "b"]));
        b.push_ints(&[0, 100]).unwrap();
        for i in 1..=3i64 {
            b.push_ints(&[2, 200 + i]).unwrap();
            b.push_ints(&[3, 300 + i]).unwrap();
        }
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("S", &["x", "b"]).build();
        prepare_inputs(&cat, &q).unwrap().atoms.remove(0)
    }

    fn schema(levels: &[&[&str]]) -> Vec<Vec<String>> {
        levels.iter().map(|l| l.iter().map(|s| s.to_string()).collect()).collect()
    }

    #[test]
    fn colt_builds_nothing_up_front() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        assert_eq!(trie.maps_built(), 0);
        assert_eq!(trie.lazy_built(), 0);
        assert_eq!(trie.num_levels(), 2);
        assert!(!trie.root().is_map());
        assert_eq!(trie.root().key_bound(), 7);
    }

    #[test]
    fn slt_builds_only_first_level() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Slt);
        assert_eq!(trie.maps_built(), 1);
        assert_eq!(trie.lazy_built(), 0);
        assert!(trie.root().is_map());
        // The children (second level) are unforced offset vectors.
        let root = trie.root();
        let x2 = trie.get(root, 0, &[Value::Int(2)]).unwrap();
        assert!(!x2.is_map());
        assert_eq!(x2.key_bound(), 3);
    }

    #[test]
    fn simple_builds_every_map_level() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"], &[]]), TrieStrategy::Simple);
        // Level 0 is one map; level 1 is one map per x value (3 of them).
        assert_eq!(trie.maps_built(), 4);
        assert_eq!(trie.lazy_built(), 0);
        let root = trie.root();
        let x3 = trie.get(root, 0, &[Value::Int(3)]).unwrap();
        assert!(x3.is_map());
        let b = trie.get(x3, 1, &[Value::Int(301)]).unwrap();
        // The leaf is a vector of one offset.
        assert_eq!(b.key_bound(), 1);
        assert_eq!(x3.key_bound(), 3);
    }

    #[test]
    fn colt_get_forces_lazily_and_counts() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        let root = trie.root();
        // First probe forces the first level.
        let x0 = trie.get(root, 0, &[Value::Int(0)]).unwrap();
        assert_eq!(trie.maps_built(), 1);
        assert_eq!(trie.lazy_built(), 1);
        assert_eq!(x0.key_bound(), 1);
        // Missing key returns None without further building.
        assert!(trie.get(root, 0, &[Value::Int(42)]).is_none());
        assert_eq!(trie.maps_built(), 1);
        // Probing the second level of one branch only forces that branch.
        let x2 = trie.get(root, 0, &[Value::Int(2)]).unwrap();
        assert!(trie.get(x2, 1, &[Value::Int(201)]).is_some());
        assert!(trie.get(x2, 1, &[Value::Int(999)]).is_none());
        assert_eq!(trie.maps_built(), 2);
        // The x3 branch was never touched.
        let x3 = trie.get(root, 0, &[Value::Int(3)]).unwrap();
        assert!(!x3.is_map());
    }

    #[test]
    fn for_each_on_map_yields_distinct_keys_with_children() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Slt);
        let root = trie.root();
        let mut keys = Vec::new();
        trie.for_each(root, 0, |key, child| {
            assert!(child.is_some());
            keys.push(key[0]);
        });
        keys.sort_by(|a, b| a.total_cmp(*b));
        assert_eq!(keys, vec![Value::Int(0), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn for_each_on_last_level_iterates_tuples_directly() {
        let input = clover_s_input();
        // Single-level schema: the whole relation is iterated as a flat
        // vector (the left-child case that COLT never builds a map for).
        let trie = InputTrie::build(&input, schema(&[&["x", "b"]]), TrieStrategy::Colt);
        let root = trie.root();
        let mut count = 0;
        trie.for_each(root, 0, |key, child| {
            assert_eq!(key.len(), 2);
            assert!(child.is_none());
            count += 1;
        });
        assert_eq!(count, 7);
        // No map was ever built.
        assert_eq!(trie.maps_built(), 0);
    }

    #[test]
    fn for_each_on_unforced_middle_level_forces_first() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        let root = trie.root();
        let mut distinct = 0;
        trie.for_each(root, 0, |_, child| {
            assert!(child.is_some());
            distinct += 1;
        });
        assert_eq!(distinct, 3);
        assert_eq!(trie.lazy_built(), 1);
    }

    #[test]
    fn for_each_walks_rows_when_only_the_trailing_level_is_below() {
        // S keyed [x], [b] and the trailing empty level `ght_schemas` gives
        // an input whose last subatom is not its node's designated cover:
        // a dynamically chosen cover S(b) is walked, not hashed.
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"], &[]]), TrieStrategy::Colt);
        let x2 = trie.get(trie.root(), 0, &[Value::Int(2)]).unwrap();
        assert!(trie.iterates_rows(x2, 1));
        let mut keys = Vec::new();
        trie.for_each(x2, 1, |key, child| {
            assert!(child.is_none(), "a row stands for itself");
            keys.push(key[0]);
        });
        assert_eq!(keys, vec![Value::Int(201), Value::Int(202), Value::Int(203)]);
        assert_eq!(trie.maps_built(), 1, "only the root level was built");
        // The root has a keyed level below it: grouped, as before.
        assert!(!trie.iterates_rows(trie.root(), 0));
        // Once something forced the node, its map is iterated.
        trie.force(x2, 1, true);
        assert!(!trie.iterates_rows(x2, 1));
        trie.for_each(x2, 1, |_, child| assert_eq!(child.unwrap().key_bound(), 1));
    }

    #[test]
    fn count_matches_scans_small_nodes_and_forces_hubs() {
        // x = 0: a hub of 40 rows, above the scan bound; x = 1: three rows,
        // two of them equal; x = 2: a NULL key and a non-NULL one.
        const { assert!(SCAN_PROBE_MAX_ROWS < 40 && SCAN_PROBE_MAX_ROWS >= 3) };
        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("D", Schema::all_int(&["x", "y", "z"]));
        for i in 0..40i64 {
            b.push_ints(&[0, i % 10, i]).unwrap();
        }
        for y in [5, 5, 6] {
            b.push_ints(&[1, y, 0]).unwrap();
        }
        b.push_row(vec![Value::Int(2), Value::Null, Value::Int(0)]).unwrap();
        b.push_ints(&[2, 7, 0]).unwrap();
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("D", &["x", "y", "z"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);

        let trie = InputTrie::build(&input, schema(&[&["x"], &["y"], &[]]), TrieStrategy::Colt);
        let at = |x: i64| trie.get(trie.root(), 0, &[Value::Int(x)]).unwrap();
        // Small nodes are scanned: duplicates and NULLs count like any key,
        // a miss is 0, and nothing is built.
        assert_eq!(trie.count_matches(at(1), 1, &[Value::Int(5)]), 2);
        assert_eq!(trie.count_matches(at(1), 1, &[Value::Int(6)]), 1);
        assert_eq!(trie.count_matches(at(1), 1, &[Value::Int(9)]), 0);
        assert_eq!(trie.count_matches(at(2), 1, &[Value::Null]), 1);
        assert_eq!(trie.count_matches(at(2), 1, &[Value::Int(7)]), 1);
        assert!(!at(1).is_map() && !at(2).is_map());
        assert_eq!(trie.maps_built(), 1);
        // The hub is forced once and shared from then on.
        assert_eq!(trie.count_matches(at(0), 1, &[Value::Int(3)]), 4);
        assert_eq!(trie.count_matches(at(0), 1, &[Value::Int(11)]), 0);
        assert!(at(0).is_map());
        assert_eq!(trie.maps_built(), 2);
        // A node something else forced answers from its map, small or not.
        trie.force(at(1), 1, true);
        assert_eq!(trie.count_matches(at(1), 1, &[Value::Int(5)]), 2);

        // Keys of any other arity go through the map, whatever the size.
        let pair = InputTrie::build(&input, schema(&[&["x"], &["y", "z"]]), TrieStrategy::Colt);
        let x1 = pair.get(pair.root(), 0, &[Value::Int(1)]).unwrap();
        assert_eq!(pair.count_matches(x1, 1, &[Value::Int(5), Value::Int(0)]), 2);
        assert_eq!(pair.count_matches(x1, 1, &[Value::Int(5), Value::Int(1)]), 0);
        assert!(x1.is_map());
    }

    #[test]
    fn duplicate_tuples_are_preserved_in_leaves() {
        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("D", Schema::all_int(&["x", "y"]));
        b.push_ints(&[1, 5]).unwrap();
        b.push_ints(&[1, 5]).unwrap();
        b.push_ints(&[1, 6]).unwrap();
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("D", &["x", "y"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let trie = InputTrie::build(&input, schema(&[&["x"], &["y"], &[]]), TrieStrategy::Colt);
        let root = trie.root();
        let x1 = trie.get(root, 0, &[Value::Int(1)]).unwrap();
        let y5 = trie.get(x1, 1, &[Value::Int(5)]).unwrap();
        // Two duplicate (1,5) tuples → the leaf holds two offsets.
        assert_eq!(y5.key_bound(), 2);
        let y6 = trie.get(x1, 1, &[Value::Int(6)]).unwrap();
        assert_eq!(y6.key_bound(), 1);
    }

    /// `key_bound` is one field read on every node — forced or not — and
    /// agrees with a brute-force row count under all three strategies, with
    /// duplicate tuples and an empty-key level in the schema.
    #[test]
    fn key_bound_matches_brute_force_on_forced_nodes() {
        let tuples: [(i64, i64); 8] =
            [(1, 5), (1, 5), (1, 6), (2, 5), (2, 5), (2, 5), (3, 9), (1, 5)];
        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("D", Schema::all_int(&["x", "y"]));
        for &(x, y) in &tuples {
            b.push_ints(&[x, y]).unwrap();
        }
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("D", &["x", "y"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let brute = |pred: &dyn Fn(i64, i64) -> bool| {
            tuples.iter().filter(|&&(x, y)| pred(x, y)).count() as u64
        };
        for strategy in [TrieStrategy::Simple, TrieStrategy::Slt, TrieStrategy::Colt] {
            let levels = schema(&[&[], &["x"], &["y"], &[]]);
            let trie = InputTrie::build(&input, levels, strategy);
            let root = trie.root();
            let all = trie.get(root, 0, &[]).unwrap();
            assert!(root.is_map());
            assert_eq!(root.key_bound(), 8, "{strategy:?}");
            assert_eq!(all.key_bound(), 8, "{strategy:?}");
            for x in 1..=3i64 {
                let at_x = trie.get(all, 1, &[Value::Int(x)]).unwrap();
                assert_eq!(at_x.key_bound() as u64, brute(&|a, _| a == x), "{strategy:?} x={x}");
                for y in [5i64, 6, 9] {
                    let expected = brute(&|a, b| a == x && b == y);
                    match trie.get(at_x, 2, &[Value::Int(y)]) {
                        Some(leaf) => assert_eq!(leaf.key_bound() as u64, expected),
                        None => assert_eq!(expected, 0),
                    }
                }
                // Forcing the node (the probes above did) must not change it.
                assert!(at_x.is_map());
                assert_eq!(at_x.key_bound() as u64, brute(&|a, _| a == x));
            }
            assert!(all.is_map());
            assert_eq!(all.key_bound(), 8);
        }
    }

    #[test]
    fn empty_key_level_maps_everything_to_one_child() {
        let input = clover_s_input();
        // Schema with an empty first level (arises for cross-product probes).
        let trie = InputTrie::build(&input, schema(&[&[], &["x", "b"]]), TrieStrategy::Colt);
        let root = trie.root();
        let child = trie.get(root, 0, &[]).unwrap();
        assert_eq!(child.key_bound(), 7);
        let mut n = 0;
        trie.for_each(child, 1, |_, _| n += 1);
        assert_eq!(n, 7);
    }

    #[test]
    fn empty_relation_trie() {
        let mut cat = Catalog::new();
        cat.add(fj_storage::Relation::empty("E", Schema::all_int(&["x"]))).unwrap();
        let q = QueryBuilder::new("q").atom("E", &["x"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let trie = InputTrie::build(&input, schema(&[&["x"]]), TrieStrategy::Simple);
        let root = trie.root();
        assert_eq!(root.key_bound(), 0);
        let mut n = 0;
        trie.for_each(root, 0, |_, _| n += 1);
        assert_eq!(n, 0);
        assert!(trie.get(root, 0, &[Value::Int(1)]).is_none());
        // Even a zero-row trie charges its fixed overhead, so caching many
        // distinct empty-result tries stays bounded by the byte budget.
        assert!(trie.estimated_bytes() > 0, "empty tries must not be budget-free");
    }

    #[test]
    fn name_and_level_metadata() {
        let input = clover_s_input();
        let trie = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        assert_eq!(trie.name(), "S");
        assert_eq!(trie.level_vars(0), &["x".to_string()]);
        assert_eq!(trie.level_vars(1), &["b".to_string()]);
        assert!(!trie.is_last_level(0));
        assert!(trie.is_last_level(1));
    }

    /// `T(a, s, c)`: `a` an `Int64` column with a NULL (masked), `s` a `Str`
    /// column whose ids overlap `a`'s integers, `c` an unmasked `Int64`.
    fn typed_input() -> BoundInput {
        let schema = Schema::new(vec![Field::int("a"), Field::str("s"), Field::int("c")]);
        let mut b = RelationBuilder::new("T", schema);
        for (a, s, c) in [(Some(1), 1, 10), (None, 2, 10), (Some(2), 1, 20), (None, 1, 30)] {
            let a = a.map_or(Value::Null, Value::Int);
            b.push_row(vec![a, Value::Str(s), Value::Int(c)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("T", &["a", "s", "c"]).build();
        prepare_inputs(&cat, &q).unwrap().atoms.remove(0)
    }

    /// The word index is keyed by payload, so the key's *type* has to be
    /// checked: an `Int64` 1 must not find the `Str` #1 group or the other
    /// way round, `NULL` finds the `NULL` group (and only a NULL-masked
    /// column has one), and `count_matches` agrees with `get` whether it
    /// scans the unforced node or probes the forced one.
    #[test]
    fn wrong_typed_and_null_keys_match_as_values_compare() {
        let input = typed_input();
        for (var, hit, wrong_type, nulls) in [
            ("a", Value::Int(1), Value::Str(1), 2),
            ("s", Value::Str(1), Value::Int(1), 0),
            ("c", Value::Int(10), Value::Str(10), 0),
        ] {
            let trie = InputTrie::build(&input, schema(&[&[var], &[]]), TrieStrategy::Colt);
            let root = trie.root();
            let expected =
                |key: Value| (0..4).filter(|&row| input.read_var(row, var) == key).count() as u64;
            // Unforced: the rows are scanned.
            assert_eq!(trie.count_matches(root, 0, &[hit]), expected(hit));
            assert_eq!(trie.count_matches(root, 0, &[wrong_type]), 0);
            assert_eq!(trie.count_matches(root, 0, &[Value::Null]), nulls);
            assert!(!root.is_map());
            // Forced: the word index is probed.
            assert_eq!(
                trie.get(root, 0, &[hit]).map(|n| n.key_bound() as u64),
                Some(expected(hit))
            );
            assert!(root.is_map());
            assert!(trie.get(root, 0, &[wrong_type]).is_none(), "{var}: {wrong_type:?}");
            assert_eq!(
                trie.get(root, 0, &[Value::Null]).map_or(0, |n| n.key_bound() as u64),
                nulls
            );
            assert_eq!(trie.count_matches(root, 0, &[hit]), expected(hit));
            assert_eq!(trie.count_matches(root, 0, &[wrong_type]), 0);
            assert_eq!(trie.count_matches(root, 0, &[Value::Null]), nulls);
            // A key of another arity is no key of this level.
            assert!(trie.get(root, 0, &[]).is_none());
            assert!(trie.get(root, 0, &[hit, hit]).is_none());
        }
    }

    /// A forced level hands out its children in the order their keys first
    /// occur, the NULL group in its place, with keys read back from the
    /// columns — for one-column and wider levels alike.
    #[test]
    fn forced_levels_iterate_in_first_occurrence_order() {
        let input = typed_input();
        let keys_of = |levels: &[&[&str]]| {
            let trie = InputTrie::build(&input, schema(levels), TrieStrategy::Slt);
            let mut seen = Vec::new();
            trie.for_each(trie.root(), 0, |key, child| {
                seen.push((key.to_vec(), child.unwrap().key_bound() as u64));
            });
            seen
        };
        assert_eq!(
            keys_of(&[&["a"], &["c"]]),
            vec![(vec![Value::Int(1)], 1), (vec![Value::Null], 2), (vec![Value::Int(2)], 1)]
        );
        assert_eq!(
            keys_of(&[&["s", "c"], &["a"]]),
            vec![
                (vec![Value::Str(1), Value::Int(10)], 1),
                (vec![Value::Str(2), Value::Int(10)], 1),
                (vec![Value::Str(1), Value::Int(20)], 1),
                (vec![Value::Str(1), Value::Int(30)], 1),
            ]
        );
    }

    /// The multi-column index with every hash equal: grouping and lookups
    /// must rest on key equality alone. Covers inline pairs, a spilled
    /// triple, NULL components, and values that differ only in type or in
    /// position.
    #[test]
    fn wide_levels_survive_a_degenerate_hash() {
        let schema3 = Schema::new(vec![Field::int("a"), Field::str("s"), Field::int("c")]);
        let mut b = RelationBuilder::new("T", schema3);
        let rows = [
            (Value::Int(1), 2, 1),
            (Value::Int(2), 1, 1),
            (Value::Null, 1, 2),
            (Value::Int(1), 2, 1),
            (Value::Int(1), 1, 2),
            (Value::Null, 1, 2),
        ];
        for (a, s, c) in rows {
            b.push_row(vec![a, Value::Str(s), Value::Int(c)]).unwrap();
        }
        let mut cat = Catalog::new();
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("T", &["a", "s", "c"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);

        COLLIDE.set(true);
        for levels in
            [&[&["a", "s"][..], &["c"]][..], &[&["a", "s", "c"], &[]], &[&[], &["c", "a"]]]
        {
            let trie = InputTrie::build(&input, schema(levels), TrieStrategy::Simple);
            let vars = trie.level_vars(0).to_vec();
            let mut groups: Vec<(Vec<Value>, u64)> = Vec::new();
            for row in 0..rows.len() {
                let key = input.read_vars(row, &vars);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1,
                    None => groups.push((key, 1)),
                }
            }
            let mut seen = Vec::new();
            trie.for_each(trie.root(), 0, |key, child| {
                seen.push((key.to_vec(), child.unwrap().key_bound() as u64));
            });
            assert_eq!(seen, groups, "{levels:?}");
            for (key, n) in &groups {
                assert_eq!(trie.count_matches(trie.root(), 0, key), *n);
            }
            if !vars.is_empty() {
                let absent = vec![Value::Str(1); vars.len()];
                assert!(trie.get(trie.root(), 0, &absent).is_none());
            }
        }
        COLLIDE.set(false);
    }

    /// The one size the executor ranks by: a node's row count, the same
    /// under all three strategies, and not its key count even where a level
    /// is built — so forcing a node, by this query or an earlier one, leaves
    /// every decision keyed on it where it was.
    #[test]
    fn key_bound_is_fixed_at_construction_across_strategies() {
        let input = clover_s_input();
        let colt = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        let root = colt.root();
        assert_eq!(root.key_bound(), 7);
        let x2 = colt.get(root, 0, &[Value::Int(2)]).unwrap();
        assert_eq!(x2.key_bound(), 3);
        assert_eq!(colt.force(x2, 1, true).num_keys(), 3);
        assert_eq!(x2.key_bound(), 3, "forcing must not change the bound");
        // The probe forced the root into its 3 keys; it still reports 7 rows.
        assert_eq!(colt.force(root, 0, true).num_keys(), 3);
        assert_eq!(root.key_bound(), 7);

        // SLT: the pre-forced root reports its rows, not its keys.
        let slt = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Slt);
        assert!(slt.root().is_map());
        assert_eq!(slt.root().key_bound(), 7);

        // Simple: so does every eagerly built node.
        let simple = InputTrie::build(&input, schema(&[&["x"], &["b"], &[]]), TrieStrategy::Simple);
        let root = simple.root();
        assert_eq!(root.key_bound(), 7, "eager root bound is its row count, not its 3 keys");
        let x3 = simple.get(root, 0, &[Value::Int(3)]).unwrap();
        assert!(x3.is_map());
        assert_eq!(x3.key_bound(), 3);
    }

    #[test]
    fn estimated_bytes_scales_with_rows_and_levels() {
        let input = clover_s_input();
        let one = InputTrie::build(&input, schema(&[&["x", "b"]]), TrieStrategy::Colt);
        let two = InputTrie::build(&input, schema(&[&["x"], &["b"]]), TrieStrategy::Colt);
        assert!(two.estimated_bytes() > one.estimated_bytes(), "more levels cost more");
        // The rows are charged to the trie that owns them, not to one that
        // points into the catalog's relation.
        assert!(!input.owns_rows, "an unfiltered atom");
        let copy = BoundInput { owns_rows: true, ..input.clone() };
        let owning = InputTrie::build(&copy, schema(&[&["x", "b"]]), TrieStrategy::Colt);
        assert_eq!(owning.estimated_bytes(), one.estimated_bytes() + input.relation.approx_bytes());
    }

    #[test]
    fn concurrent_probes_force_each_level_exactly_once() {
        use std::sync::Barrier;

        let mut cat = Catalog::new();
        let mut b = RelationBuilder::new("R", Schema::all_int(&["x", "y"]));
        for i in 0..512i64 {
            b.push_ints(&[i % 32, i]).unwrap();
        }
        cat.add(b.finish()).unwrap();
        let q = QueryBuilder::new("q").atom("R", &["x", "y"]).build();
        let input = prepare_inputs(&cat, &q).unwrap().atoms.remove(0);
        let trie = InputTrie::build(&input, schema(&[&["x"], &["y"]]), TrieStrategy::Colt);

        let threads = 8;
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for t in 0..threads {
                let trie = &trie;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let root = trie.root();
                    for i in 0..32i64 {
                        let x = trie.get(root, 0, &[Value::Int((i + t as i64) % 32)]).unwrap();
                        // Also race the second level.
                        assert!(trie.get(x, 1, &[Value::Int(-1)]).is_none());
                    }
                });
            }
        });
        // 1 root level + 32 second-level branches, each counted exactly once
        // despite 8 threads racing to force them.
        assert_eq!(trie.maps_built(), 33);
        assert_eq!(trie.lazy_built(), 33);
    }
}
