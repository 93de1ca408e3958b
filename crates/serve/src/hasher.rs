//! The keyed fast hash of the front's bounded tables.
//!
//! The proof cache and the coalescing table are keyed by the request's
//! own [`QuerySpec`](crate::wire::QuerySpec), so a client chooses the
//! keys. The rule is: **a keyed fast hash where config bounds the table,
//! SipHash where clients can grow it.** The cache holds at most
//! `cache_capacity` specs and the coalescing table at most
//! `queue_capacity`, so even a client who learned a front's seeds could
//! make one lookup compare against at most that many specs — the same
//! order of cost as the cold answer it could request instead. The
//! token-bucket table ([`crate::admission`]) holds only the clients still
//! throttled, dropping a bucket once it has refilled, but clients claim
//! the ids it is keyed by and no config bounds how many are throttled at
//! once, so it keeps std's SipHash.
//!
//! [`FoldHasher`] is foldhash's construction: every 64×64→128-bit
//! multiply folds its product's halves together and takes one operand
//! derived from the seeds, and the final mix is keyed the same way.
//! Integers collect in a 128-bit sponge and cost one multiply per two
//! words; a byte string costs one multiply up to 16 bytes and one per
//! 16 bytes beyond, read as fixed-size overlapping words — never a
//! variable-length copy. [`FoldState`] draws the seeds once per front from
//! std's [`RandomState`], the entropy std's own maps use.
//!
//! `finish` folds once more than foldhash's fast variant does, as its
//! quality variant does. A spec's last word (a window's `t2`) reaches the
//! last fold alone in its sponge, against a fixed seed: one fold of it
//! left the low bits a table indexes by clustered for some seeds (a few
//! fronts in a hundred), where two folds spread them like a random hash
//! (`tests::specs_one_field_apart_spread_like_a_random_hash`).

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// One front's hash seeds; builds a [`FoldHasher`] per lookup.
#[derive(Debug, Clone, Copy)]
pub struct FoldState {
    /// Every hasher's starting accumulator.
    start: u64,
    /// The seed half of every accumulator fold.
    fold: u64,
    /// The seed half of a short byte string's fold.
    expand: u64,
}

impl FoldState {
    /// Draws fresh seeds from std's [`RandomState`].
    pub fn new() -> Self {
        let entropy = RandomState::new();
        FoldState {
            start: entropy.hash_one(0u8),
            fold: entropy.hash_one(1u8),
            expand: entropy.hash_one(2u8),
        }
    }
}

impl Default for FoldState {
    fn default() -> Self {
        FoldState::new()
    }
}

impl BuildHasher for FoldState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher {
            acc: self.start,
            sponge: 0,
            sponge_bits: 0,
            fold: self.fold,
            expand: self.expand,
        }
    }
}

/// A keyed folded-multiply hasher; see the module docs.
#[derive(Debug, Clone)]
pub struct FoldHasher {
    acc: u64,
    /// Integers written since the last fold, the first in the low bits.
    sponge: u128,
    sponge_bits: u32,
    fold: u64,
    expand: u64,
}

/// The 128-bit product of `x` and `y`, its two halves xored together.
#[allow(clippy::cast_possible_truncation, reason = "each cast keeps one half")]
#[inline(always)]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The low and high words of `x`.
#[allow(clippy::cast_possible_truncation, reason = "each cast keeps one half")]
#[inline(always)]
fn halves(x: u128) -> (u64, u64) {
    (x as u64, (x >> 64) as u64)
}

/// A string of at most 16 bytes as two words: its first and its last
/// eight bytes, or four below eight, or its first byte and its last byte
/// shifted over its middle one below four. The reads overlap on the
/// lengths between; the caller's length-keyed seed tells those apart.
#[inline(always)]
fn short_words(bytes: &[u8]) -> (u64, u64) {
    if let (Some(lo), Some(hi)) = (bytes.first_chunk::<8>(), bytes.last_chunk::<8>()) {
        (u64::from_le_bytes(*lo), u64::from_le_bytes(*hi))
    } else if let (Some(lo), Some(hi)) = (bytes.first_chunk::<4>(), bytes.last_chunk::<4>()) {
        (
            u64::from(u32::from_le_bytes(*lo)),
            u64::from(u32::from_le_bytes(*hi)),
        )
    } else {
        let byte = |at: Option<&u8>| at.map_or(0, |&b| u64::from(b));
        let mid = byte(bytes.get(bytes.len() / 2));
        (byte(bytes.first()), (byte(bytes.last()) << 8) | mid)
    }
}

impl FoldHasher {
    /// Adds an integer of `bits` bits to the sponge, folding the sponge
    /// into the accumulator first when it would overflow.
    #[inline(always)]
    fn write_num(&mut self, x: u64, bits: u32) {
        if self.sponge_bits + bits > 128 {
            self.acc = self.squeeze();
            self.sponge = u128::from(x);
            self.sponge_bits = bits;
        } else {
            self.sponge |= u128::from(x) << self.sponge_bits;
            self.sponge_bits += bits;
        }
    }

    /// The accumulator with the sponge folded in.
    #[inline(always)]
    fn squeeze(&self) -> u64 {
        let (lo, hi) = halves(self.sponge);
        folded_multiply(lo ^ self.acc, hi ^ self.fold)
    }
}

impl Hasher for FoldHasher {
    #[allow(
        clippy::cast_possible_truncation,
        reason = "a rotation by the length's low bits; `rotate_right` reduces it mod 64"
    )]
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        // A length-dependent rotation of the keyed accumulator: the
        // overlapping reads alone would let two lengths collide.
        let seed = self.acc.rotate_right(len as u32);
        self.acc = if len <= 16 {
            let (lo, hi) = short_words(bytes);
            folded_multiply(seed ^ lo, self.expand ^ hi)
        } else {
            // Sixteen bytes from the front and sixteen from the back per
            // round, until they meet (the last round may overlap).
            let (front, _) = bytes.as_chunks::<16>();
            let (_, back) = bytes.as_rchunks::<16>();
            let (mut s0, mut s1) = (seed, seed.wrapping_add(self.expand));
            for (f, b) in front.iter().zip(back.iter().rev()).take(len.div_ceil(32)) {
                let (a, c) = halves(u128::from_le_bytes(*f));
                let (d, e) = halves(u128::from_le_bytes(*b));
                s0 = folded_multiply(a ^ s0, d ^ self.fold);
                s1 = folded_multiply(c ^ s1, e ^ self.fold);
            }
            s0 ^ s1
        };
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_num(u64::from(i), 8);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write_num(i, 64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_num(i as u64, 64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let folded = if self.sponge_bits == 0 {
            self.acc
        } else {
            self.squeeze()
        };
        folded_multiply(folded, self.expand)
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;
    use std::collections::HashSet;

    use dcert_primitives::codec::Decode;
    use dcert_vm::StateKey;

    use super::*;
    use crate::wire::QuerySpec;

    fn key() -> StateKey {
        StateKey::new("kvstore", b"acct")
    }

    fn history(index: &str, key: StateKey, t2: u64) -> QuerySpec {
        QuerySpec::History {
            index: index.to_owned().into(),
            key,
            t1: 3,
            t2,
        }
    }

    /// `key` with bit `bit` of its 256 flipped.
    fn flipped(key: StateKey, bit: usize) -> StateKey {
        let mut bytes = key.as_hash().to_array();
        bytes[bit / 8] ^= 1 << (bit % 8);
        StateKey::decode_all(&bytes).expect("32 bytes are a key")
    }

    #[test]
    fn equal_specs_hash_equal_under_one_front() {
        let state = FoldState::new();
        let spec = history("history", key(), 10);
        assert_eq!(state.hash_one(&spec), state.hash_one(spec.clone()));
        let words = QuerySpec::Keywords {
            index: "inverted".into(),
            keywords: vec!["alpha".into(), "a keyword longer than sixteen bytes".into()],
        };
        assert_eq!(state.hash_one(&words), state.hash_one(words.clone()));
    }

    #[test]
    fn the_five_kinds_over_one_spec_hash_apart() {
        let state = FoldState::new();
        let (index, key, t1, t2) = (Cow::Borrowed("history"), key(), 3, 10);
        let kinds = [
            QuerySpec::History {
                index: index.clone(),
                key,
                t1,
                t2,
            },
            QuerySpec::Keywords {
                index: index.clone(),
                keywords: vec![index.to_string()],
            },
            QuerySpec::Aggregate {
                index: index.clone(),
                key,
                t1,
                t2,
            },
            QuerySpec::HistoryOp {
                index: index.clone(),
                key,
                t1,
                t2,
            },
            QuerySpec::AggregateOp { index, key, t1, t2 },
        ];
        let hashes: HashSet<u64> = kinds.iter().map(|spec| state.hash_one(spec)).collect();
        assert_eq!(hashes.len(), kinds.len());
    }

    #[test]
    fn two_fronts_hash_one_spec_differently() {
        let spec = history("history", key(), 10);
        assert_ne!(
            FoldState::new().hash_one(&spec),
            FoldState::new().hash_one(&spec),
            "each front draws its own seeds"
        );
    }

    /// Asserts that `specs` hash to distinct values that fill the low six
    /// bits (a 64-bucket table) as evenly as a random hash would: a
    /// chi-square statistic under its 63 degrees of freedom plus ten
    /// standard deviations, which a random hash exceeds with odds below
    /// 1e-10 and a hash that ignores the differing field misses by far.
    fn assert_spread(family: &str, specs: &[QuerySpec]) {
        let state = FoldState::new();
        let hashes: Vec<u64> = specs.iter().map(|spec| state.hash_one(spec)).collect();
        let distinct: HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            specs.len(),
            "{family}: a full-hash collision"
        );
        let mut buckets = [0u32; 64];
        for hash in &hashes {
            buckets[(hash % 64) as usize] += 1;
        }
        let expected = specs.len() as f64 / 64.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&n| (f64::from(n) - expected).powi(2) / expected)
            .sum();
        let bound = 63.0 + 10.0 * (2.0f64 * 63.0).sqrt();
        assert!(
            chi2 < bound,
            "{family}: chi2 {chi2:.1} over {bound:.1}: {buckets:?}"
        );
    }

    #[test]
    fn specs_one_field_apart_spread_like_a_random_hash() {
        let key_bits: Vec<QuerySpec> = (0..256)
            .map(|bit| history("history", flipped(key(), bit), 10))
            .collect();
        assert_spread("one key bit", &key_bits);
        let windows: Vec<QuerySpec> = (0..1000).map(|t2| history("history", key(), t2)).collect();
        assert_spread("t2", &windows);
        let names: Vec<QuerySpec> = (0..1000)
            .map(|i| history(&format!("history-{i}"), key(), 10))
            .collect();
        assert_spread("index name", &names);
    }
}
