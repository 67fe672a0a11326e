//! Inline-packed join keys and the fast hasher shared by every hash level.
//!
//! The hash structures that key on a *tuple* of [`Value`]s — the binary-join
//! build tables and Generic Join tries in `fj-baselines`, and the GHT trie
//! levels of `free-join::trie` that have no key column or several — use
//! [`LevelKey`]. (A one-column GHT level, the common case there, is keyed by
//! the value's 64-bit payload instead and never builds a `LevelKey`; it
//! shares only the hasher below.) Representing the tuple as `Vec<Value>`
//! costs a heap allocation per key built and a pointer chase per key
//! compared, in the innermost loop of the join. [`LevelKey`] removes both
//! costs for the overwhelmingly common case:
//!
//! * **arity 0–2** keys (single join variables and pairs) are packed inline
//!   in a fixed-width [`InlineKey`] — `Copy`, no heap allocation, ever;
//! * **wider** keys spill to a `Box<[Value]>`, allocated once per *distinct*
//!   key at build time (probes borrow, they never allocate).
//!
//! `LevelKey` implements `Borrow<[Value]>` with `Hash`/`Eq` delegated to the
//! value slice, so a `HashMap<LevelKey, V, FastBuildHasher>` can be probed
//! directly with a borrowed `&[Value]` — e.g. a stack array of tuple slots —
//! without constructing a key at all.
//!
//! [`FxHasher`] is a vendored FxHash-style multiply-xor hasher (the rustc /
//! firefox hash, public domain algorithm, reimplemented here because this
//! workspace builds offline): not cryptographic, not DoS-resistant, but a
//! handful of cycles per word where the default SipHash is dozens. Join keys
//! are derived from the engine's own data, so HashDoS hardening buys nothing
//! on this path.
//!
//! `Null` participates in keys like any other value and compares equal to
//! itself (see [`Value`]) — a trie must be able to represent NULL groups.
//! Whether NULL keys *join* is the engines' policy, not this layer's; the
//! current engines uniformly let NULL match NULL (see [`Value`]'s note on
//! the SQL-semantics gap).

use crate::value::Value;
use std::borrow::Borrow;
use std::hash::{BuildHasher, Hash, Hasher};

/// Maximum key arity stored inline (without heap allocation).
pub const MAX_INLINE_KEY_ARITY: usize = 2;

/// The multiplier of the multiply-xor round (64-bit FxHash constant,
/// `2^64 / phi` rounded to odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher: one rotate-xor-multiply per word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((chunk, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*chunk));
            bytes = rest;
        }
        if let Some((chunk, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*chunk)));
            bytes = rest;
        }
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` producing [`FxHasher`]s; the hash state every hash level in
/// the workspace shares, so engine comparisons measure join algorithms, not
/// hash functions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastBuildHasher;

impl BuildHasher for FastBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// The inline (heap-free) representation of a key of arity
/// ≤ [`MAX_INLINE_KEY_ARITY`]. `Copy` by design: building or cloning one is
/// a register move, which is what makes trie construction and probing on the
/// common arity-1/2 path allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct InlineKey {
    /// Number of live values in `vals`.
    len: u8,
    /// The packed values; positions ≥ `len` are padding (`Value::Null`).
    vals: [Value; MAX_INLINE_KEY_ARITY],
}

impl InlineKey {
    /// The live values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.vals[..self.len as usize]
    }
}

/// A join key: the values of one hash level's variables, packed inline for
/// arity ≤ [`MAX_INLINE_KEY_ARITY`] and spilled to the heap beyond.
///
/// Equality and hashing are defined on the value *slice* (exactly
/// `<[Value]>::eq` / `<[Value]>::hash`), and `LevelKey: Borrow<[Value]>`, so
/// hash maps keyed by `LevelKey` are probed with plain borrowed slices —
/// no key construction, no allocation, consistent by construction with the
/// stored keys. `Null` is an ordinary key value here (`Null == Null`);
/// join-time NULL policy belongs to the engines (see [`Value`]).
#[derive(Debug, Clone)]
pub enum LevelKey {
    /// Arity ≤ [`MAX_INLINE_KEY_ARITY`]: packed inline, `Copy`, heap-free.
    Inline(InlineKey),
    /// Wider keys: one boxed slice per distinct key.
    Spill(Box<[Value]>),
}

impl LevelKey {
    /// The empty key (the single key of a keyless hash level, as arises for
    /// cross-product probes).
    #[inline]
    pub fn empty() -> Self {
        LevelKey::Inline(InlineKey { len: 0, vals: [Value::Null; MAX_INLINE_KEY_ARITY] })
    }

    /// An arity-1 key.
    #[inline]
    pub fn single(v: Value) -> Self {
        LevelKey::Inline(InlineKey { len: 1, vals: [v, Value::Null] })
    }

    /// An arity-2 key.
    #[inline]
    pub fn pair(a: Value, b: Value) -> Self {
        LevelKey::Inline(InlineKey { len: 2, vals: [a, b] })
    }

    /// Pack a slice of values, choosing the inline representation whenever
    /// the arity permits.
    #[inline]
    pub fn from_values(values: &[Value]) -> Self {
        match *values {
            [] => Self::empty(),
            [a] => Self::single(a),
            [a, b] => Self::pair(a, b),
            _ => LevelKey::Spill(values.into()),
        }
    }

    /// The key's values, in level order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        match self {
            LevelKey::Inline(k) => k.values(),
            LevelKey::Spill(b) => b,
        }
    }

    /// Number of values in the key.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values().len()
    }

    /// True when the key is stored inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self, LevelKey::Inline(_))
    }
}

impl PartialEq for LevelKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for LevelKey {}

impl Hash for LevelKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Delegate to the slice impl so the Borrow<[Value]> contract
        // (equal hashes for key and borrowed form) holds by construction.
        self.values().hash(state);
    }
}

impl Borrow<[Value]> for LevelKey {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl From<&[Value]> for LevelKey {
    #[inline]
    fn from(values: &[Value]) -> Self {
        Self::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        FastBuildHasher.hash_one(t)
    }

    #[test]
    fn inline_key_is_copy_and_small() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<InlineKey>();
        // The whole key — enum tag included — stays a few words, so level
        // maps store it by value without indirection.
        assert!(std::mem::size_of::<LevelKey>() <= 48);
    }

    #[test]
    fn arity_boundary_chooses_representation() {
        assert!(LevelKey::from_values(&[]).is_inline());
        assert!(LevelKey::from_values(&[Value::Int(1)]).is_inline());
        assert!(LevelKey::from_values(&[Value::Int(1), Value::Str(2)]).is_inline());
        assert!(!LevelKey::from_values(&[Value::Int(1); 3]).is_inline());
    }

    #[test]
    fn constructors_agree_with_from_values() {
        assert_eq!(LevelKey::empty(), LevelKey::from_values(&[]));
        assert_eq!(LevelKey::single(Value::Int(7)), LevelKey::from_values(&[Value::Int(7)]));
        assert_eq!(
            LevelKey::pair(Value::Null, Value::Str(3)),
            LevelKey::from_values(&[Value::Null, Value::Str(3)])
        );
    }

    #[test]
    fn values_round_trip_all_arities() {
        for arity in 0..5usize {
            let vals: Vec<Value> = (0..arity as i64).map(Value::Int).collect();
            let key = LevelKey::from_values(&vals);
            assert_eq!(key.values(), vals.as_slice());
            assert_eq!(key.arity(), arity);
        }
    }

    #[test]
    fn eq_and_hash_match_the_slice_semantics() {
        let cases: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null],
            vec![Value::Int(0)],
            vec![Value::Str(0)],
            vec![Value::Int(5), Value::Null],
            vec![Value::Int(5), Value::Int(6), Value::Int(7)],
        ];
        for a in &cases {
            let ka = LevelKey::from_values(a);
            // Borrow contract: the key hashes exactly like its value slice.
            assert_eq!(hash_of(&ka), hash_of(a.as_slice()));
            for b in &cases {
                let kb = LevelKey::from_values(b);
                assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn null_equals_null_in_keys() {
        // NULLs live in keys (so trie levels can represent them) and
        // compare equal to themselves; what that means at join time is the
        // engines' policy, not the key layer's.
        let a = LevelKey::pair(Value::Null, Value::Int(1));
        let b = LevelKey::from_values(&[Value::Null, Value::Int(1)]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn borrowed_slice_probes_hit_stored_keys() {
        use std::collections::HashMap;
        let mut map: HashMap<LevelKey, i32, FastBuildHasher> = HashMap::default();
        map.insert(LevelKey::pair(Value::Int(1), Value::Str(2)), 10);
        map.insert(LevelKey::from_values(&[Value::Int(1); 4]), 20);
        let probe: [Value; 2] = [Value::Int(1), Value::Str(2)];
        assert_eq!(map.get(probe.as_slice()), Some(&10));
        let wide = [Value::Int(1); 4];
        assert_eq!(map.get(wide.as_slice()), Some(&20));
        assert_eq!(map.get([Value::Int(9)].as_slice()), None);
    }

    #[test]
    fn fx_hasher_spreads_small_ints() {
        // Not a statistical test — just a guard against a degenerate
        // implementation (e.g. returning the input) that would turn dense
        // integer keys into one bucket chain.
        let hashes: Vec<u64> = (0..64i64).map(|i| hash_of(&Value::Int(i))).collect();
        let distinct: std::collections::HashSet<&u64> = hashes.iter().collect();
        assert_eq!(distinct.len(), hashes.len());
        // High bits must move too (hash maps take the top bits for control).
        let top: std::collections::HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
        assert!(top.len() > 16, "top bits barely vary: {top:?}");
    }
}
