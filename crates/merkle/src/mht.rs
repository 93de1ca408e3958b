//! Static binary Merkle hash tree (Fig. 1 of the paper).
//!
//! Commits to an ordered list of byte strings. Used for the per-block
//! transaction root `H_tx` and for posting lists in the inverted keyword
//! index. Odd nodes at a level are *promoted* (carried up unpaired) rather
//! than duplicated, which avoids the classic CVE-2012-2459 duplication
//! ambiguity.
//!
//! # Parallel construction
//!
//! Tree building is a pure per-level map (`next[i] = H(prev[2i] ||
//! prev[2i+1])`), so it parallelises without changing a single output
//! byte: [`MerkleTree::from_leaf_hashes_with_threads`] splits each level
//! into contiguous chunks hashed by scoped threads and reassembles them
//! in order. The result is structurally byte-identical to the sequential
//! build for every leaf count and thread count — pinned by
//! `tests/parallel_merkle.rs`. The process-global default used by
//! [`MerkleTree::from_items`]/[`MerkleTree::from_leaf_hashes`] is set
//! with [`set_build_threads`].

use std::sync::atomic::{AtomicUsize, Ordering};

use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{Hash, Hasher};

use crate::domain;
use crate::ProofError;

fn leaf_hash(item: &[u8]) -> Hash {
    Hasher::with_domain(domain::MHT_LEAF).chain(item).finalize()
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    Hasher::with_domain(domain::MHT_NODE)
        .chain(left)
        .chain(right)
        .finalize()
}

/// Process-global default thread count for tree construction. `1` keeps
/// every build sequential (the seed behaviour).
static BUILD_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Hard cap on worker threads per build; keeps a misconfigured knob from
/// spawning an unbounded number of scoped threads per level.
const MAX_BUILD_THREADS: usize = 64;

/// Minimum nodes at a level (or leaves in a batch) before chunked
/// parallel hashing is worth the thread hand-off; below this the
/// sequential loop wins.
const PARALLEL_MIN_NODES: usize = 1024;

/// Sets the process-global default thread count used by
/// [`MerkleTree::from_items`] and [`MerkleTree::from_leaf_hashes`].
///
/// Values are clamped to `1..=64`. The output is byte-identical for every
/// setting, so this is purely a throughput knob — racing configurations
/// across threads cannot change any digest.
pub fn set_build_threads(threads: usize) {
    BUILD_THREADS.store(threads.clamp(1, MAX_BUILD_THREADS), Ordering::Relaxed);
}

/// Returns the process-global default thread count for tree construction.
pub fn build_threads() -> usize {
    BUILD_THREADS.load(Ordering::Relaxed)
}

/// Computes one tree level above `prev`, hashing adjacent pairs and
/// promoting a trailing odd node unchanged. With `threads > 1` and a wide
/// enough level, pair hashing is split across scoped threads; chunk
/// boundaries fall on pair boundaries, so the output is byte-identical to
/// the sequential loop.
fn build_level(prev: &[Hash], threads: usize) -> Vec<Hash> {
    let pairs = prev.len() / 2;
    let (paired, promoted) = prev.split_at(pairs * 2);
    let mut next = vec![Hash::ZERO; pairs];
    if threads > 1 && prev.len() >= PARALLEL_MIN_NODES {
        let chunk_pairs = pairs.div_ceil(threads).max(1);
        std::thread::scope(|scope| {
            for (out_chunk, in_chunk) in next
                .chunks_mut(chunk_pairs)
                .zip(paired.chunks(chunk_pairs * 2))
            {
                scope.spawn(move || {
                    for (out, pair) in out_chunk.iter_mut().zip(in_chunk.chunks_exact(2)) {
                        if let [l, r] = pair {
                            *out = node_hash(l, r);
                        }
                    }
                });
            }
        });
    } else {
        for (out, pair) in next.iter_mut().zip(paired.chunks_exact(2)) {
            if let [l, r] = pair {
                *out = node_hash(l, r);
            }
        }
    }
    next.extend(promoted.iter().copied());
    next
}

/// A static Merkle hash tree over a list of items.
///
/// The tree stores every level so that membership proofs are O(log n)
/// lookups. The empty tree has root [`Hash::ZERO`].
///
/// ```
/// use dcert_merkle::MerkleTree;
///
/// let tree = MerkleTree::from_items([b"tx1".as_slice(), b"tx2", b"tx3"]);
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&tree.root(), b"tx2").is_ok());
/// assert!(proof.verify(&tree.root(), b"tx9").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = single root (unless empty).
    levels: Vec<Vec<Hash>>,
}

impl MerkleTree {
    /// Builds a tree over the given items, using the process-global
    /// thread default (see [`set_build_threads`]).
    pub fn from_items<I, T>(items: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]> + Sync,
    {
        Self::from_items_with_threads(items, build_threads())
    }

    /// Builds a tree over the given items with an explicit thread count.
    ///
    /// Leaf hashing and every level above it are chunk-parallelised when
    /// `threads > 1` and the batch is wide enough; the resulting tree is
    /// byte-identical to the sequential build.
    pub fn from_items_with_threads<I, T>(items: I, threads: usize) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u8]> + Sync,
    {
        let threads = threads.clamp(1, MAX_BUILD_THREADS);
        let items: Vec<T> = items.into_iter().collect();
        let leaves: Vec<Hash> = if threads > 1 && items.len() >= PARALLEL_MIN_NODES {
            let chunk = items.len().div_ceil(threads).max(1);
            let mut leaves = vec![Hash::ZERO; items.len()];
            std::thread::scope(|scope| {
                for (out_chunk, in_chunk) in leaves.chunks_mut(chunk).zip(items.chunks(chunk)) {
                    scope.spawn(move || {
                        for (out, item) in out_chunk.iter_mut().zip(in_chunk) {
                            *out = leaf_hash(item.as_ref());
                        }
                    });
                }
            });
            leaves
        } else {
            items.iter().map(|i| leaf_hash(i.as_ref())).collect()
        };
        Self::from_leaf_hashes_with_threads(leaves, threads)
    }

    /// Builds a tree over pre-hashed leaves, using the process-global
    /// thread default (see [`set_build_threads`]).
    ///
    /// The caller is responsible for having produced the leaf hashes with a
    /// suitable domain-separated hash; [`MerkleTree::from_items`] does this
    /// automatically.
    pub fn from_leaf_hashes(leaves: Vec<Hash>) -> Self {
        Self::from_leaf_hashes_with_threads(leaves, build_threads())
    }

    /// Builds a tree over pre-hashed leaves with an explicit thread count.
    ///
    /// Output is byte-identical to the sequential build for every leaf
    /// count and thread count (`tests/parallel_merkle.rs` pins this).
    pub fn from_leaf_hashes_with_threads(leaves: Vec<Hash>, threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_BUILD_THREADS);
        let mut levels = vec![leaves];
        while let Some(prev) = levels.last() {
            if prev.len() <= 1 {
                break;
            }
            let next = build_level(prev, threads);
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Returns `true` if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root commitment ([`Hash::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash {
        self.levels
            .last()
            .and_then(|level| level.first())
            .copied()
            .unwrap_or(Hash::ZERO)
    }

    /// Produces a membership proof for the leaf at `index`.
    ///
    /// Returns `None` if `index` is out of bounds.
    pub fn prove(&self, index: usize) -> Option<MhtProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut pos = index;
        let above_leaves = self.levels.len().saturating_sub(1);
        for level in self.levels.iter().take(above_leaves) {
            // `None` where the node was promoted unpaired at this level.
            siblings.push(level.get(pos ^ 1).copied());
            pos /= 2;
        }
        Some(MhtProof {
            index: index as u64,
            leaf_count: self.len() as u64,
            siblings,
        })
    }
}

/// A membership proof for one leaf of a [`MerkleTree`].
///
/// The proof pins down the leaf *position* as well as its content, so it can
/// be used to authenticate "transaction #i of block b is tx".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MhtProof {
    index: u64,
    leaf_count: u64,
    /// Sibling hash per level; `None` where the node was promoted unpaired.
    siblings: Vec<Option<Hash>>,
}

impl MhtProof {
    /// The leaf index this proof speaks about.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The total number of leaves in the committed tree.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Size of the proof when serialized, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Verifies that `item` is the leaf at `self.index()` under `root`.
    ///
    /// # Errors
    ///
    /// Returns [`ProofError::RootMismatch`] when the recomputed root differs
    /// and [`ProofError::Malformed`] when the proof shape is inconsistent
    /// with the claimed tree size.
    pub fn verify(&self, root: &Hash, item: &[u8]) -> Result<(), ProofError> {
        self.verify_leaf_hash(root, leaf_hash(item))
    }

    /// Verifies a pre-hashed leaf. See [`MhtProof::verify`].
    pub fn verify_leaf_hash(&self, root: &Hash, leaf: Hash) -> Result<(), ProofError> {
        if self.leaf_count == 0 || self.index >= self.leaf_count {
            return Err(ProofError::Malformed("index out of bounds"));
        }
        // The number of levels above the leaves.
        let expected_levels = {
            let mut n = self.leaf_count;
            let mut levels = 0usize;
            while n > 1 {
                n = n.div_ceil(2);
                levels += 1;
            }
            levels
        };
        if self.siblings.len() != expected_levels {
            return Err(ProofError::Malformed("wrong number of proof levels"));
        }
        let mut acc = leaf;
        let mut pos = self.index;
        let mut width = self.leaf_count;
        for sibling in &self.siblings {
            match sibling {
                Some(sib) => {
                    // A sibling must actually exist at this level.
                    if (pos ^ 1) >= width {
                        return Err(ProofError::Malformed("sibling beyond level width"));
                    }
                    acc = if pos.is_multiple_of(2) {
                        node_hash(&acc, sib)
                    } else {
                        node_hash(sib, &acc)
                    };
                }
                None => {
                    // Promotion is only legal for the last odd node.
                    if !pos.is_multiple_of(2) || pos + 1 != width {
                        return Err(ProofError::Malformed("illegal promotion"));
                    }
                }
            }
            pos /= 2;
            width = width.div_ceil(2);
        }
        if acc == *root {
            Ok(())
        } else {
            Err(ProofError::RootMismatch)
        }
    }
}

impl Encode for MhtProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.index.encode(out);
        self.leaf_count.encode(out);
        encode_seq(&self.siblings, out);
    }
}

impl Decode for MhtProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MhtProof {
            index: u64::decode(r)?,
            leaf_count: u64::decode(r)?,
            siblings: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_testkit::check;

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("item-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = MerkleTree::from_items(Vec::<Vec<u8>>::new());
        assert_eq!(tree.root(), Hash::ZERO);
        assert!(tree.is_empty());
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_items([b"only"]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        let proof = tree.prove(0).unwrap();
        assert!(proof.verify(&tree.root(), b"only").is_ok());
    }

    #[test]
    fn two_leaves_match_fig1_rule() {
        // h_root = H(dom || H(dom_l || a) || H(dom_l || b))
        let tree = MerkleTree::from_items([b"a".as_slice(), b"b"]);
        assert_eq!(tree.root(), node_hash(&leaf_hash(b"a"), &leaf_hash(b"b")));
    }

    #[test]
    fn proofs_verify_for_every_leaf_and_size() {
        for n in 1..=17 {
            let data = items(n);
            let tree = MerkleTree::from_items(&data);
            for (i, item) in data.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                proof
                    .verify(&tree.root(), item)
                    .unwrap_or_else(|e| panic!("n={n} i={i}: {e}"));
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_item() {
        let tree = MerkleTree::from_items(items(8));
        let proof = tree.prove(3).unwrap();
        assert_eq!(
            proof.verify(&tree.root(), b"evil"),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let tree = MerkleTree::from_items(items(8));
        let proof = tree.prove(3).unwrap();
        assert!(proof.verify(&Hash::ZERO, b"item-3").is_err());
    }

    #[test]
    fn proof_does_not_transfer_between_positions() {
        let data = items(8);
        let tree = MerkleTree::from_items(&data);
        let proof = tree.prove(3).unwrap();
        // Same item content claimed at the proven position only.
        assert!(proof.verify(&tree.root(), &data[4]).is_err());
    }

    #[test]
    fn tampered_leaf_count_rejected() {
        let data = items(5);
        let tree = MerkleTree::from_items(&data);
        let mut proof = tree.prove(2).unwrap();
        proof.leaf_count = 4;
        assert!(proof.verify(&tree.root(), &data[2]).is_err());
    }

    #[test]
    fn odd_promotion_is_not_duplication() {
        // With duplication (Bitcoin-style), [a, b, b] and [a, b] can collide.
        // With promotion they must differ.
        let t2 = MerkleTree::from_items([b"a".as_slice(), b"b"]);
        let t3 = MerkleTree::from_items([b"a".as_slice(), b"b", b"b"]);
        assert_ne!(t2.root(), t3.root());
    }

    #[test]
    fn proof_codec_round_trip() {
        let tree = MerkleTree::from_items(items(11));
        let proof = tree.prove(10).unwrap();
        let bytes = proof.to_encoded_bytes();
        assert_eq!(MhtProof::decode_all(&bytes).unwrap(), proof);
    }

    #[test]
    fn build_threads_knob_clamps_and_round_trips() {
        let original = build_threads();
        set_build_threads(0);
        assert_eq!(build_threads(), 1);
        set_build_threads(4);
        assert_eq!(build_threads(), 4);
        set_build_threads(usize::MAX);
        assert_eq!(build_threads(), MAX_BUILD_THREADS);
        set_build_threads(original);
    }

    #[test]
    fn explicit_thread_counts_agree_on_small_trees() {
        // Below PARALLEL_MIN_NODES the parallel gate stays closed, but the
        // delegation path must still produce the identical tree.
        for n in [0usize, 1, 2, 3, 7, 33] {
            let data = items(n);
            let sequential = MerkleTree::from_items_with_threads(&data, 1);
            for threads in [2usize, 4, 8] {
                assert_eq!(
                    MerkleTree::from_items_with_threads(&data, threads),
                    sequential,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[cfg(not(miri))] // wide enough to open the parallel gate; too slow under Miri
    #[test]
    fn parallel_gate_produces_identical_wide_trees() {
        let data = items(1100);
        let sequential = MerkleTree::from_items_with_threads(&data, 1);
        for threads in [2usize, 3, 4, 8] {
            let parallel = MerkleTree::from_items_with_threads(&data, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
            let leaves: Vec<Hash> = data.iter().map(|i| leaf_hash(i)).collect();
            assert_eq!(
                MerkleTree::from_leaf_hashes_with_threads(leaves, threads),
                sequential,
                "pre-hashed, threads={threads}"
            );
        }
    }

    #[test]
    fn prop_any_leaf_verifies() {
        check("prop_any_leaf_verifies", 256, |g| {
            let n = g.range(1usize..80);
            let pick = g.range(0usize..80) % n;
            let data = items(n);
            let tree = MerkleTree::from_items(&data);
            let proof = tree.prove(pick).unwrap();
            assert!(proof.verify(&tree.root(), &data[pick]).is_ok());
        });
    }

    #[test]
    fn prop_distinct_lists_have_distinct_roots() {
        check("prop_distinct_lists_have_distinct_roots", 256, |g| {
            let mut list = || g.vec(1..8, |g| g.vec(0..8, |g| g.any::<u8>()));
            let (a, b) = (list(), list());
            let ta = MerkleTree::from_items(&a);
            let tb = MerkleTree::from_items(&b);
            if a != b {
                assert_ne!(ta.root(), tb.root());
            } else {
                assert_eq!(ta.root(), tb.root());
            }
        });
    }
}
