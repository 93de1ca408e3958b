//! Compact sparse Merkle tree with stateless multiproofs.
//!
//! This is the commitment behind the global-state root `H_state` in every
//! block header, and the machinery behind the enclave's *stateless*
//! verification in Algorithm 2 of the paper: the Certificate Issuer's
//! untrusted half extracts a proof ([`SmtProof`]) covering the block's read
//! and write sets, and the enclave — holding nothing but the previous state
//! root — can
//!
//! 1. authenticate the read set (`verify_mht(H_{i-1}^s, π_i^r, {r}_i)`),
//! 2. authenticate the pre-state neighborhood of the write set
//!    (`verify_mht(H_{i-1}^s, π_i^w, {w}_i)`), and
//! 3. compute the post-write root (`update(π_i^w, {w}_i)`) to compare
//!    against `H_i^s` in the new block,
//!
//! all from the proof alone: one [`SmtProof::verify`] does the first two,
//! and the [`Verified`] it returns answers the reads and does the third.
//!
//! # Structure
//!
//! The tree is *compact*: a subtree containing a single leaf hashes to
//! `H(SMT_LEAF || key || value_hash)` regardless of its height (after
//! Dahlberg et al.), and a subtree whose leaves all fall on one side hashes
//! to that side's hash (empty siblings are transparent). In memory this is
//! a binary Patricia trie — each branch records the bit index at which its
//! two sides diverge — holding ~2·n nodes for n keys. Hash rules:
//!
//! - empty subtree → [`Hash::ZERO`],
//! - single-leaf subtree → `H(SMT_LEAF || key || value_hash)`,
//! - diverging subtree → `H(SMT_BRANCH || bit || prefix || left || right)`:
//!   `bit` is where the two sides part (a big-endian `u16`) and `prefix` the
//!   key bits every leaf beneath shares above it, zero-padded to 32 bytes.
//!
//! Keys are 256-bit [`struct@Hash`]es (callers hash their logical keys first).
//! Every hash says where its subtree belongs — a leaf by its key, a branch by
//! its bit and prefix — so neither can be repositioned: a path-compressed
//! tree has keys only at its leaves, and the prefix stands in for them the
//! way the key inside every node's hash does in a tree that stores one per
//! node.
//!
//! # Proof layout
//!
//! A proof is the sorted covered keys, each key's pre-state value hash, and
//! one *evidence* item per maximal untouched subtree next to a covered
//! path: empty, a single disclosed leaf, or a subtree with two or more
//! leaves — its hash where the side beside it holds something (the branch
//! the walk hashes over the two commits to that depth and those shared
//! bits, which places it), its header `(bit, prefix, left, right)` where
//! that side is empty and the subtree goes up the walk with nothing hashed
//! over it: the walk then holds it to `prefix` parting from the covered
//! keys at exactly this depth and `bit` lying below, as it holds a
//! disclosed leaf's key. A bare hash beside an empty side and a header
//! beside a live one are both refused, so a tree and a key set have one
//! proof. Evidence is in depth-first order. The walk descends one
//! key bit per level with the covered keys that share the path so far; at
//! each level the keys split by that bit, the left side is finished first
//! and then the right, and a side no covered key enters consumes exactly
//! one item *at that moment* — a left sibling on the way down, a right
//! sibling on the way back up. The prover ([`SparseMerkleTree::prove`]) and
//! the verifier ([`SmtProof::verify`]) make the same walk, so neither
//! positions nor depths are written down.
//!
//! Most siblings are empty — below the depth at which a key parts from
//! every other key, all of them are — so consecutive empty items are kept
//! as one run, in memory exactly as on the wire: a run extends the run
//! before it until that holds `u16::MAX` subtrees, then a new one starts
//! (one 3-byte chunk each). A decoder merges the same way, so a frame that
//! splits a run or sends zero-length chunks decodes to what the prover
//! would have built.
//!
//! Once a key is alone on its path at depth `d`, everything it still
//! consumes is contiguous: its left siblings from `d` down to 255, then its
//! right siblings from 255 back up to `d`, `256 - d` items in all and
//! nothing in between. Empty siblings are transparent to the hash rules
//! above, so when the run at the cursor covers all of them the subtree *is*
//! the key's leaf (or empty, for an absent or deleted key), and the walk
//! takes the run in one step instead of one step per level. The prover
//! emits the whole run at once in the matching case: a lone key over an
//! empty subtree or over its own leaf. Walks therefore cost in proportion
//! to the real depth of the tree around the covered keys, not to 256.
//!
//! The verifying walk is the only reader of the evidence, and it keeps what
//! it learned: each step at which covered keys split or go on leaves one
//! frame on a flat list — the two sides it combined, and for each side
//! where the frame of the step that computed it sits, if there was one; a
//! side that is an evidence item, or a lone key above nothing but empty
//! siblings, has none. That list is the [`Verified`] a successful
//! [`SmtProof::verify`] hands back. [`Verified::updated_root`] sends the
//! sorted write set down the recorded steps the way `commit` sends it down
//! the tree: the writes split where the walk split, a side no write enters
//! is what the walk found there, and only written leaves and the branches
//! above them are hashed again. The memo is as long as the walk (a few
//! frames per covered key, none for a lone key over an empty tree) and
//! goes when the `Verified` does.
//!
//! # Updates
//!
//! The tree is a function of its contents alone, so a write set needs no
//! order of its own: [`SparseMerkleTree::commit`] sorts it and applies it in
//! one walk, in place, re-hashing every branch above a written key once. An
//! insert or a remove is that walk with one write; committing what a walk
//! displaced is its exact undo. A leaf keeps the hash it was made with, so
//! re-hashing a branch reads both children's hashes and computes one — the
//! stateless update over a proof and the commit on the tree hash the same
//! nodes for the same writes.
//!
//! # Example
//!
//! ```
//! use dcert_merkle::SparseMerkleTree;
//! use dcert_primitives::hash::hash_bytes;
//!
//! let mut tree = SparseMerkleTree::new();
//! let key = hash_bytes(b"account/alice");
//! tree.insert(key, b"100".to_vec());
//! let root = tree.root();
//!
//! // A stateless verifier authenticates the read and applies a write.
//! let proof = tree.prove(&[key]);
//! let verified = proof.verify(&root)?;
//! assert_eq!(verified.pre_value_hash(&key)?, Some(hash_bytes(b"100")));
//! let new_root = verified.updated_root(&[(key, Some(hash_bytes(b"42")))])?;
//!
//! tree.insert(key, b"42".to_vec());
//! assert_eq!(tree.root(), new_root);
//! # Ok::<(), dcert_merkle::ProofError>(())
//! ```

use std::collections::HashMap;

use dcert_primitives::codec::{Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, hash_concat, Hash};

use crate::domain;
use crate::ProofError;

/// Depth of the key space in bits.
pub const KEY_BITS: usize = 256;

/// Hash of a single-leaf subtree.
pub fn leaf_hash(key: &Hash, value_hash: &Hash) -> Hash {
    hash_concat([
        std::slice::from_ref(&domain::SMT_LEAF),
        key.as_bytes(),
        value_hash.as_bytes(),
    ])
}

/// The first `bit` bits of `key`, the rest zero: what every key beneath a
/// branch whose sides part at `bit` has in common.
fn prefix(key: &Hash, bit: usize) -> Hash {
    let mut bytes = key.to_array();
    let mut tail = bytes.iter_mut().skip(bit / 8);
    if let Some(parting) = tail.next() {
        *parting &= !(u8::MAX >> (bit % 8));
    }
    tail.for_each(|byte| *byte = 0);
    Hash::from_bytes(bytes)
}

/// Hash of a subtree whose two sides both hold leaves and part at `bit`;
/// `under` is any key beneath it. 99 bytes: two SHA-256 blocks, as the 65
/// of `tag || left || right` were.
pub fn branch_hash(bit: usize, under: &Hash, left: &Hash, right: &Hash) -> Hash {
    // A branch parts its keys inside the key space, so `bit` fits.
    let bit_bytes = u16::try_from(bit).unwrap_or(u16::MAX).to_be_bytes();
    hash_concat([
        std::slice::from_ref(&domain::SMT_BRANCH),
        &bit_bytes,
        prefix(under, bit).as_bytes(),
        left.as_bytes(),
        right.as_bytes(),
    ])
}

/// Returns the index of the first bit at which `a` and `b` differ, or
/// [`KEY_BITS`] if equal.
fn diverge_bit(a: &Hash, b: &Hash) -> usize {
    for (i, (x, y)) in a.as_bytes().iter().zip(b.as_bytes()).enumerate() {
        let diff = x ^ y;
        if diff != 0 {
            // `leading_zeros` of a non-zero u8 is at most 7.
            let zeros = usize::try_from(diff.leading_zeros()).unwrap_or(0);
            return i * 8 + zeros;
        }
    }
    KEY_BITS
}

#[derive(Debug, Clone, Default)]
enum Node {
    #[default]
    Empty,
    Leaf {
        key: Hash,
        value_hash: Hash,
        /// `leaf_hash(key, value_hash)`, computed once where the leaf is
        /// made: a branch re-hashed beside it reads this.
        hash: Hash,
    },
    Branch {
        /// The bit index at which the two children diverge. All leaf keys
        /// beneath this node agree on bits `0..bit`; the left child's keys
        /// have bit `bit` = 0, the right child's = 1.
        bit: u16,
        /// A representative leaf key beneath this node (the leftmost),
        /// giving traversal access to the shared prefix.
        rep: Hash,
        left: Box<Node>,
        right: Box<Node>,
        hash: Hash,
    },
}

impl Node {
    fn hash(&self) -> Hash {
        match self {
            Node::Empty => Hash::ZERO,
            Node::Leaf { hash, .. } | Node::Branch { hash, .. } => *hash,
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Node::Empty)
    }

    /// A leaf key beneath this node (`None` for `Empty`).
    fn rep(&self) -> Option<&Hash> {
        match self {
            Node::Empty => None,
            Node::Leaf { key, .. } => Some(key),
            Node::Branch { rep, .. } => Some(rep),
        }
    }

    /// What this node's hash commits to, if it is a branch.
    fn header(&self) -> Option<Header> {
        let Node::Branch {
            bit,
            rep,
            left,
            right,
            ..
        } = self
        else {
            return None;
        };
        Some(Header {
            bit: *bit,
            shared: prefix(rep, usize::from(*bit)),
            left: left.hash(),
            right: right.hash(),
        })
    }
}

fn make_branch(bit: usize, left: Node, right: Node) -> Node {
    debug_assert!(!left.is_empty() && !right.is_empty());
    debug_assert!(
        left.rep().is_some_and(|r| !r.bit(bit)) && right.rep().is_some_and(|r| r.bit(bit))
    );
    let rep = left.rep().copied().unwrap_or(Hash::ZERO);
    let hash = branch_hash(bit, &rep, &left.hash(), &right.hash());
    Node::Branch {
        // `bit` indexes into a 256-bit key, so it always fits u16.
        bit: u16::try_from(bit).unwrap_or(u16::MAX),
        rep,
        left: Box::new(left),
        right: Box::new(right),
        hash,
    }
}

/// `writes` in key order, one per key: the last write to a key wins.
fn last_write_per_key<V>(mut writes: Vec<(Hash, V)>) -> Vec<(Hash, V)> {
    // Stable, so the last write to a key is the last of its run.
    writes.sort_by_key(|(key, _)| *key);
    writes.dedup_by(|later, earlier| {
        later.0 == earlier.0 && {
            // `dedup_by` drops `later`; it is the write that counts.
            std::mem::swap(later, earlier);
            true
        }
    });
    writes
}

/// Where sorted `writes` that agree on every bit above `bit` part at it:
/// those before go to its zero side, the rest to its one side.
fn parting<W>(writes: &[(Hash, W)], bit: usize) -> usize {
    writes.partition_point(|(key, _)| !key.bit(bit))
}

/// The subtree holding `left` and `right`, whose keys part at `bit`: an
/// empty side is transparent, so only two live sides make a branch.
fn join(bit: usize, left: Node, right: Node) -> Node {
    match (left.is_empty(), right.is_empty()) {
        (true, _) => right,
        (_, true) => left,
        (false, false) => make_branch(bit, left, right),
    }
}

impl Node {
    /// Applies `writes` — sorted by key, no key twice, `None` deletes — to
    /// this subtree in place: they descend together, split where the tree
    /// or they diverge, and each branch above a written key is re-hashed
    /// once, on the way back up. Every written key must share the prefix
    /// this subtree hangs under.
    fn apply(&mut self, writes: &[(Hash, Option<Hash>)]) {
        let (Some((first, _)), Some((last, value_hash))) = (writes.first(), writes.last()) else {
            return;
        };
        // The bit at which this subtree's keys stop sharing a prefix, and a
        // key that has it; an empty subtree stands in for the first write.
        let (bit, rep) = match self {
            Node::Empty => (KEY_BITS, *first),
            Node::Leaf { key, .. } => (KEY_BITS, *key),
            Node::Branch { bit, rep, .. } => (usize::from(*bit), *rep),
        };
        // Sorted keys leave `rep`'s prefix earliest at one of their ends.
        let parts = diverge_bit(&rep, first).min(diverge_bit(&rep, last));
        if parts < bit {
            // Some keys part from the shared prefix above this subtree: it
            // moves, intact, beside whatever the keys on the other side make.
            let (mut left, mut right) = if rep.bit(parts) {
                (Node::Empty, std::mem::take(self))
            } else {
                (std::mem::take(self), Node::Empty)
            };
            let (lower, upper) = writes.split_at(parting(writes, parts));
            left.apply(lower);
            right.apply(upper);
            *self = join(parts, left, right);
            return;
        }
        match self {
            Node::Branch {
                rep,
                left,
                right,
                hash,
                ..
            } => {
                let (lower, upper) = writes.split_at(parting(writes, bit));
                left.apply(lower);
                right.apply(upper);
                match (left.rep(), right.is_empty()) {
                    (Some(leftmost), false) => {
                        *rep = *leftmost;
                        *hash = branch_hash(bit, rep, &left.hash(), &right.hash());
                    }
                    // Canonical form: an empty side leaves the other side.
                    (Some(_), true) => *self = std::mem::take(left.as_mut()),
                    (None, _) => *self = std::mem::take(right.as_mut()),
                }
            }
            // `parts == KEY_BITS`: the one write is to this leaf's, or gap's, key.
            Node::Empty | Node::Leaf { .. } => {
                *self = value_hash.map_or(Node::Empty, |value_hash| Node::Leaf {
                    key: rep,
                    value_hash,
                    hash: leaf_hash(&rep, &value_hash),
                });
            }
        }
    }
}

/// A compact sparse Merkle tree mapping 256-bit keys to byte values.
///
/// See the [module documentation](self) for the hashing rules and the
/// stateless-proof workflow.
#[derive(Debug, Clone, Default)]
pub struct SparseMerkleTree {
    root: Node,
    values: HashMap<Hash, Vec<u8>>,
}

impl SparseMerkleTree {
    /// Creates an empty tree (root = [`Hash::ZERO`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys in the tree.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the tree holds no keys.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The current root commitment.
    pub fn root(&self) -> Hash {
        self.root.hash()
    }

    /// Returns the value stored under `key`, if any.
    pub fn get(&self, key: &Hash) -> Option<&[u8]> {
        self.values.get(key).map(Vec::as_slice)
    }

    /// Iterates over all `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Hash, &[u8])> {
        self.values.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Inserts or updates `key`, returning the previous value if present.
    pub fn insert(&mut self, key: Hash, value: Vec<u8>) -> Option<Vec<u8>> {
        self.commit([(key, Some(value))]).pop()?.1
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &Hash) -> Option<Vec<u8>> {
        self.commit([(*key, None)]).pop()?.1
    }

    /// Applies a write set — `Some` upserts, `None` deletes, the last write
    /// to a key wins — in one walk of the tree, hashing each branch above a
    /// written key once.
    ///
    /// Returns what the writes displaced: each distinct key, in key order,
    /// with its previous value (`None` = was absent). Committing that set
    /// restores exactly the tree the writes found.
    pub fn commit(
        &mut self,
        writes: impl IntoIterator<Item = (Hash, Option<Vec<u8>>)>,
    ) -> Vec<(Hash, Option<Vec<u8>>)> {
        let mut writes = last_write_per_key(writes.into_iter().collect());
        let hashed: Vec<(Hash, Option<Hash>)> = writes
            .iter()
            .map(|(key, value)| (*key, value.as_deref().map(hash_bytes)))
            .collect();
        self.root.apply(&hashed);
        for (key, value) in &mut writes {
            *value = match value.take() {
                Some(new) => self.values.insert(*key, new),
                None => self.values.remove(key),
            };
        }
        writes
    }

    /// Produces a multiproof covering `keys` against the current root.
    ///
    /// The proof authenticates, for every requested key, whether it is
    /// present and with which value hash, and carries exactly the sibling
    /// evidence needed to recompute the root — including after arbitrary
    /// writes (update/insert/delete) to the covered keys.
    ///
    /// Duplicate keys are deduplicated.
    pub fn prove(&self, keys: &[Hash]) -> SmtProof {
        let mut sorted: Vec<Hash> = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut pre = Vec::with_capacity(sorted.len());
        let mut evidence = Vec::new();
        let whole = NodeView::from(&self.root);
        Self::prove_rec(whole, 0, &sorted, false, &mut pre, &mut evidence);
        debug_assert_eq!(pre.len(), sorted.len());
        SmtProof {
            keys: sorted,
            pre,
            evidence,
        }
    }

    /// `passes` says the side beside this one is empty: what is found here
    /// then goes up the verifier's walk with no branch hashed over it, so a
    /// subtree of several leaves has to bring its own header.
    fn prove_rec(
        node: NodeView<'_>,
        depth: usize,
        keys: &[Hash],
        passes: bool,
        pre: &mut Vec<Option<Hash>>,
        evidence: &mut Vec<Evidence>,
    ) {
        match (keys, node) {
            ([], NodeView::Empty) => push_empties(evidence, 1),
            ([], NodeView::Leaf { key, value_hash }) => evidence.push(Evidence::Leaf {
                key: *key,
                value_hash: *value_hash,
            }),
            ([], NodeView::Branch(branch)) => {
                let header = passes.then(|| branch.header()).flatten();
                evidence.push(header.map_or(Evidence::Node(branch.hash()), |header| {
                    Evidence::Branch(Box::new(header))
                }));
            }
            // A lone key over an empty subtree or over its own leaf: every
            // sibling from here down to depth 256 is empty, so the rest of
            // its path is one run.
            ([_], NodeView::Empty) => {
                push_empties(evidence, KEY_BITS.saturating_sub(depth));
                pre.push(None);
            }
            ([wanted], NodeView::Leaf { key, value_hash }) if key == wanted => {
                push_empties(evidence, KEY_BITS.saturating_sub(depth));
                pre.push(Some(*value_hash));
            }
            _ => {
                debug_assert!(depth < KEY_BITS, "sorted unique keys part before bit 256");
                let split = keys.partition_point(|k| !k.bit(depth));
                let (lkeys, rkeys) = keys.split_at(split);
                let (lchild, rchild) = node.children(depth);
                let (lpasses, rpasses) = (rchild.is_empty(), lchild.is_empty());
                Self::prove_rec(lchild, depth + 1, lkeys, lpasses, pre, evidence);
                Self::prove_rec(rchild, depth + 1, rkeys, rpasses, pre, evidence);
            }
        }
    }
}

/// A borrowed view of a subtree, able to "virtually" descend through the
/// compact representation bit by bit.
#[derive(Clone, Copy)]
enum NodeView<'a> {
    Empty,
    Leaf { key: &'a Hash, value_hash: &'a Hash },
    Branch(&'a Node),
}

impl<'a> From<&'a Node> for NodeView<'a> {
    fn from(node: &'a Node) -> Self {
        match node {
            Node::Empty => NodeView::Empty,
            Node::Leaf {
                key, value_hash, ..
            } => NodeView::Leaf { key, value_hash },
            branch @ Node::Branch { .. } => NodeView::Branch(branch),
        }
    }
}

impl<'a> NodeView<'a> {
    fn is_empty(self) -> bool {
        matches!(self, NodeView::Empty)
    }

    /// The (left, right) children when viewed at `depth`.
    ///
    /// A leaf or a branch that diverges deeper than `depth` occupies a
    /// single side (by its shared-prefix bit); the other side is empty.
    fn children(self, depth: usize) -> (NodeView<'a>, NodeView<'a>) {
        match self {
            NodeView::Empty => (NodeView::Empty, NodeView::Empty),
            NodeView::Leaf { key, .. } => {
                if key.bit(depth) {
                    (NodeView::Empty, self)
                } else {
                    (self, NodeView::Empty)
                }
            }
            NodeView::Branch(node) => {
                let Node::Branch {
                    bit,
                    rep,
                    left,
                    right,
                    ..
                } = node
                else {
                    // `NodeView::Branch` only ever wraps `Node::Branch`
                    // (see the `From<&Node>` impl above).
                    return (NodeView::Empty, NodeView::Empty);
                };
                let bit = usize::from(*bit);
                debug_assert!(depth <= bit);
                if depth < bit {
                    // The whole branch lives on one side at this depth.
                    if rep.bit(depth) {
                        (NodeView::Empty, self)
                    } else {
                        (self, NodeView::Empty)
                    }
                } else {
                    (
                        NodeView::from(left.as_ref()),
                        NodeView::from(right.as_ref()),
                    )
                }
            }
        }
    }
}

/// Evidence for the maximal untouched subtrees adjacent to the proof paths.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Evidence {
    /// This many consecutive subtrees (in proof order) are empty. One item
    /// per wire chunk: [`push_empties`] keeps adjacent runs merged.
    Empties(u16),
    /// The subtree contains exactly one leaf (content disclosed so that
    /// inserts/deletes near it can recompute divergence points).
    Leaf { key: Hash, value_hash: Hash },
    /// The subtree contains two or more leaves; only its root hash matters:
    /// the branch the walk hashes over it and the live side beside it says
    /// where it hangs.
    Node(Hash),
    /// The same subtree beside an *empty* side, where no such branch is
    /// hashed: the header its root hash commits to, so the walk can hold it
    /// to its position the way it holds a disclosed leaf. Boxed: a proof
    /// carries few of these, and an item stays the size of a leaf.
    Branch(Box<Header>),
}

/// What a branch hashes: the bit at which its keys part, the bits they
/// share above it, and its two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    bit: u16,
    shared: Hash,
    left: Hash,
    right: Hash,
}

impl Header {
    fn hash(&self) -> Hash {
        branch_hash(usize::from(self.bit), &self.shared, &self.left, &self.right)
    }
}

/// Appends `n` empty subtrees, filling a trailing run up to the `u16::MAX`
/// a wire chunk can carry before starting the next one. Prover and decoder
/// both build evidence through this greedy merge, so the same subtrees
/// always make the same items and the same bytes.
fn push_empties(evidence: &mut Vec<Evidence>, mut n: usize) {
    while n > 0 {
        match evidence.last_mut() {
            Some(Evidence::Empties(run)) if *run < u16::MAX => {
                let room = u16::MAX - *run;
                let add = u16::try_from(n).map_or(room, |n| n.min(room));
                *run += add;
                n -= usize::from(add);
            }
            _ => evidence.push(Evidence::Empties(0)),
        }
    }
}

/// A stateless multiproof over a set of keys of a [`SparseMerkleTree`].
///
/// Construct with [`SparseMerkleTree::prove`] and ship to a verifier, who
/// calls [`SmtProof::verify`] against the trusted root. Everything a proof
/// can say about the tree is read off the [`Verified`] that returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtProof {
    /// Sorted, deduplicated touched keys.
    keys: Vec<Hash>,
    /// Pre-state value hash per touched key (`None` = absent).
    pre: Vec<Option<Hash>>,
    /// DFS-ordered sibling evidence.
    evidence: Vec<Evidence>,
}

/// Result category of a recomputed subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subtree {
    Empty,
    /// A single leaf; carries the *leaf hash*.
    One(Hash),
    /// Two or more leaves; carries the branch hash.
    Many(Hash),
}

impl Subtree {
    fn hash(self) -> Hash {
        match self {
            Subtree::Empty => Hash::ZERO,
            Subtree::One(h) | Subtree::Many(h) => h,
        }
    }

    /// A key's own subtree: its leaf, or nothing when it is absent.
    fn of_key(key: &Hash, value_hash: Option<Hash>) -> Subtree {
        value_hash.map_or(Subtree::Empty, |vh| Subtree::One(leaf_hash(key, &vh)))
    }
}

/// The subtree at `depth` over `left` and `right`; `under` is any key
/// beneath it.
fn combine(depth: usize, under: &Hash, left: Subtree, right: Subtree) -> Subtree {
    match (left, right) {
        (Subtree::Empty, Subtree::Empty) => Subtree::Empty,
        // Pass-through: empty siblings are transparent in the compact tree.
        (Subtree::Empty, other) | (other, Subtree::Empty) => other,
        (l, r) => Subtree::Many(branch_hash(depth, under, &l.hash(), &r.hash())),
    }
}

/// One side of a step of the verifying walk, kept so that an update
/// re-hashes only what a write changes.
#[derive(Debug, Clone, Copy)]
struct Side {
    /// The subtree the walk found there: one evidence item, a lone key's
    /// own leaf, or what the steps beneath combined.
    found: Subtree,
    /// How many frames were on record when the side was done, if covered
    /// keys split or went on beneath it: its own frame is the last of them.
    /// Zero for a side that left none — an evidence item, or a lone key
    /// with nothing but empty siblings beneath.
    recorded: u32,
}

impl Side {
    /// A side with no step of the walk beneath it.
    fn whole(found: Subtree) -> Side {
        Side { found, recorded: 0 }
    }
}

/// The two sides a step of the verifying walk combined. A step records its
/// frame as it returns, after every frame beneath it.
#[derive(Debug)]
struct Frame {
    left: Side,
    right: Side,
}

const MEMO_LOST: ProofError = ProofError::Malformed("walk memo out of step");
// The position refusals. A disclosed leaf, or branch header, whose keys do
// not part from the covered keys where the walk stands (or, a branch's, from
// each other no deeper than that); a header that is not the one encoding of
// a branch — a bit outside the key space, shared bits set at or below it; a
// subtree known by its hash alone that no branch places; a header where one
// does, for one tree has one encoding.
const LEAF_MISPLACED: ProofError = ProofError::Malformed("leaf evidence outside subtree");
const BRANCH_MISPLACED: ProofError = ProofError::Malformed("branch evidence outside subtree");
const HEADER_MALFORMED: ProofError = ProofError::Malformed("branch header not canonical");
const SUBTREE_UNPLACED: ProofError = ProofError::Malformed("opaque subtree beside an empty side");
const HEADER_UNCALLED: ProofError = ProofError::Malformed("branch header beside a live side");

impl SmtProof {
    /// The sorted set of keys this proof covers.
    pub fn keys(&self) -> &[Hash] {
        &self.keys
    }

    /// Size of the serialized proof in bytes (empty-evidence runs are
    /// run-length encoded).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Verifies the proof against a trusted `root` and returns what the
    /// walk established: the covered keys' pre-state, and enough of the
    /// tree around them to compute the root after writes to them.
    ///
    /// # Errors
    ///
    /// Returns [`ProofError::RootMismatch`] if the recomputed commitment
    /// differs, or [`ProofError::Malformed`] on structural problems.
    pub fn verify(&self, root: &Hash) -> Result<Verified<'_>, ProofError> {
        let walked = self.walk::<true>()?;
        if walked.root() == *root {
            Ok(walked)
        } else {
            Err(ProofError::RootMismatch)
        }
    }

    /// Walks the proof to the root it commits to — whichever that is; the
    /// comparison is [`Self::verify`]'s. All handling of the untrusted
    /// evidence happens here.
    ///
    /// `SKIP_RUNS` is `true` everywhere but in the tests that check the run
    /// shortcut of [`Self::compute_rec`] against the level-by-level
    /// recursion it abbreviates.
    fn walk<const SKIP_RUNS: bool>(&self) -> Result<Verified<'_>, ProofError> {
        if self.pre.len() != self.keys.len() {
            return Err(ProofError::Malformed("pre/keys length mismatch"));
        }
        if self.keys.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
            return Err(ProofError::Malformed("keys not sorted unique"));
        }
        let mut cursor = Cursor {
            items: self.evidence.iter(),
            empties: 0,
        };
        // A frame where two covered keys part and one per sibling passed on
        // the way: about right, as most runs are taken whole, and nothing
        // for a lone key over an empty tree.
        let steps = (self.keys.len() + self.evidence.len()).saturating_sub(2);
        let mut frames = Vec::with_capacity(steps);
        let top = if self.keys.is_empty() {
            // No covered key: the whole tree is the one untouched subtree,
            // and the trusted root is all that places it.
            let (found, header) = cursor.take(|_, _| true)?;
            if header == Some(true) {
                return Err(HEADER_UNCALLED);
            }
            Side::whole(found)
        } else {
            self.compute_rec::<SKIP_RUNS>(0, 0, self.keys.len(), &mut cursor, &mut frames)?
        };
        if cursor.empties != 0 || cursor.items.next().is_some() {
            return Err(ProofError::Malformed("unconsumed evidence"));
        }
        Ok(Verified {
            proof: self,
            top,
            frames,
        })
    }

    /// The subtree at `depth` holding the covered keys `key_lo..key_hi`
    /// (at least one), which all share their first `depth` bits. Where the
    /// keys split or go on, the step leaves its [`Frame`] on `frames`.
    fn compute_rec<const SKIP_RUNS: bool>(
        &self,
        depth: usize,
        key_lo: usize,
        key_hi: usize,
        cursor: &mut Cursor<'_>,
        frames: &mut Vec<Frame>,
    ) -> Result<Side, ProofError> {
        let first = self
            .keys
            .get(key_lo)
            .ok_or(ProofError::Malformed("key range out of bounds"))?;
        if key_hi - key_lo == 1 {
            // A lone key's remaining evidence is its `KEY_BITS - depth`
            // siblings, left ones top-down and then right ones bottom-up,
            // with nothing in between. When they are all empty they are
            // transparent, and the subtree is the key's own leaf (or
            // nothing) without a step per level.
            let levels = KEY_BITS.saturating_sub(depth);
            if levels == 0 || (SKIP_RUNS && cursor.skip_empties(levels)) {
                let value_hash = self.pre.get(key_lo).copied().flatten();
                return Ok(Side::whole(Subtree::of_key(first, value_hash)));
            }
        } else if depth >= KEY_BITS {
            return Err(ProofError::Malformed("key collision at max depth"));
        }
        let split = key_lo
            + self
                .keys
                .get(key_lo..key_hi)
                .map_or(0, |range| range.partition_point(|k| !k.bit(depth)));
        // A side no covered key enters is one evidence item, and what it
        // discloses — a leaf's key, or the bits a branch's keys share down
        // to where they part — must part from the covered keys at exactly
        // this bit. An empty sibling is transparent to `combine`, so the
        // root comparison alone would let a subtree sit at any depth of an
        // otherwise empty path.
        let mut header = None;
        let mut side = |lo: usize, hi: usize, cursor: &mut Cursor<'_>, frames: &mut Vec<Frame>| {
            if lo == hi {
                let (found, disclosed) =
                    cursor.take(|at, parts| diverge_bit(at, first) == depth && parts > depth)?;
                header = disclosed;
                Ok(Side::whole(found))
            } else {
                self.compute_rec::<SKIP_RUNS>(depth + 1, lo, hi, cursor, frames)
            }
        };
        let left = side(key_lo, split, cursor, frames)?;
        let right = side(split, key_hi, cursor, frames)?;
        // A subtree known by its hash alone is placed by the branch hashed
        // over it here, which commits to this depth and these shared bits —
        // unless the side beside it is empty and it passes through unhashed:
        // then, and only then, it has to come with its own header.
        let passes = left.found == Subtree::Empty || right.found == Subtree::Empty;
        match header {
            Some(false) if passes => return Err(SUBTREE_UNPLACED),
            Some(true) if !passes => return Err(HEADER_UNCALLED),
            _ => {}
        }
        frames.push(Frame { left, right });
        Ok(Side {
            found: combine(depth, first, left.found, right.found),
            recorded: u32::try_from(frames.len())
                .map_err(|_| ProofError::Malformed("proof walk too long"))?,
        })
    }
}

/// A proof that has verified against a trusted root, and what its walk
/// learned on the way. Only [`SmtProof::verify`] makes one, so whatever it
/// answers is authenticated.
#[derive(Debug)]
pub struct Verified<'a> {
    proof: &'a SmtProof,
    /// The whole tree as the walk found it — at the trusted root.
    top: Side,
    /// One frame per step of the walk at which covered keys split or went
    /// on, in the order the steps returned.
    frames: Vec<Frame>,
}

impl Verified<'_> {
    fn root(&self) -> Hash {
        self.top.found.hash()
    }

    /// The authenticated pre-state value hash of a covered key
    /// (`Ok(None)` = key proven absent).
    ///
    /// # Errors
    ///
    /// Returns [`ProofError::MissingKey`] if `key` is not covered.
    pub fn pre_value_hash(&self, key: &Hash) -> Result<Option<Hash>, ProofError> {
        let idx = self
            .proof
            .keys
            .binary_search(key)
            .map_err(|_| ProofError::MissingKey)?;
        self.proof
            .pre
            .get(idx)
            .copied()
            .ok_or(ProofError::Malformed("pre/keys length mismatch"))
    }

    /// Computes the root after applying `writes` to the covered keys.
    ///
    /// Each write is `(key, Some(new_value_hash))` for an upsert or
    /// `(key, None)` for a deletion; the last write to a key wins. Every
    /// written key must be covered by the proof. Only written leaves and
    /// the branches above them are hashed — what
    /// [`SparseMerkleTree::commit`] hashes for the same writes — and no
    /// write at all returns the verified root as it stands.
    ///
    /// # Errors
    ///
    /// Returns [`ProofError::MissingKey`] if a write touches an uncovered
    /// key.
    pub fn updated_root(&self, writes: &[(Hash, Option<Hash>)]) -> Result<Hash, ProofError> {
        let covered = |(key, _): &(Hash, Option<Hash>)| self.proof.keys.binary_search(key).is_ok();
        if !writes.iter().all(covered) {
            return Err(ProofError::MissingKey);
        }
        let writes = last_write_per_key(writes.to_vec());
        Ok(self.rewalk(0, self.top, &writes)?.hash())
    }

    /// What `side`, found at `depth`, comes to under `writes`: sorted, one
    /// per key, all to covered keys beneath it. The writes go down the
    /// recorded walk together and split where it did; a side none of them
    /// enters is what the walk found there.
    fn rewalk(
        &self,
        depth: usize,
        side: Side,
        writes: &[(Hash, Option<Hash>)],
    ) -> Result<Subtree, ProofError> {
        if writes.is_empty() {
            return Ok(side.found);
        }
        let recorded = usize::try_from(side.recorded).map_err(|_| MEMO_LOST)?;
        let Some(own) = recorded.checked_sub(1) else {
            // Covered keys entered the side and no step split them: it
            // holds one lone key, and the write is to it.
            let [(key, value_hash)] = writes else {
                return Err(MEMO_LOST);
            };
            return Ok(Subtree::of_key(key, *value_hash));
        };
        let Frame { left, right } = self.frames.get(own).ok_or(MEMO_LOST)?;
        let (lower, upper) = writes.split_at(parting(writes, depth));
        let (under, _) = writes.first().ok_or(MEMO_LOST)?;
        Ok(combine(
            depth,
            under,
            self.rewalk(depth + 1, *left, lower)?,
            self.rewalk(depth + 1, *right, upper)?,
        ))
    }
}

/// Reads a proof's evidence in order, one untouched subtree at a time.
struct Cursor<'a> {
    items: std::slice::Iter<'a, Evidence>,
    /// Empty subtrees of the current run not yet handed out.
    empties: usize,
}

impl Cursor<'_> {
    /// The next untouched subtree and, when it holds two or more leaves,
    /// whether it came with its header. `belongs` says whether keys that
    /// share the given bits, down to where they part, hang where the walk
    /// stands; a leaf's key parts from nothing inside the key space.
    fn take(
        &mut self,
        belongs: impl FnOnce(&Hash, usize) -> bool,
    ) -> Result<(Subtree, Option<bool>), ProofError> {
        loop {
            if let Some(rest) = self.empties.checked_sub(1) {
                self.empties = rest;
                return Ok((Subtree::Empty, None));
            }
            match self
                .items
                .next()
                .ok_or(ProofError::Malformed("missing evidence"))?
            {
                Evidence::Empties(run) => self.empties = usize::from(*run),
                Evidence::Leaf { key, value_hash } => {
                    if !belongs(key, KEY_BITS) {
                        return Err(LEAF_MISPLACED);
                    }
                    return Ok((Subtree::One(leaf_hash(key, value_hash)), None));
                }
                Evidence::Node(hash) => return Ok((Subtree::Many(*hash), Some(false))),
                Evidence::Branch(header) => {
                    let bit = usize::from(header.bit);
                    if !belongs(&header.shared, bit) {
                        return Err(BRANCH_MISPLACED);
                    }
                    if bit >= KEY_BITS || prefix(&header.shared, bit) != header.shared {
                        return Err(HEADER_MALFORMED);
                    }
                    return Ok((Subtree::Many(header.hash()), Some(true)));
                }
            }
        }
    }

    /// Consumes the next `n` subtrees if the run the cursor stands in (or
    /// is about to enter) shows them all empty; otherwise consumes nothing.
    fn skip_empties(&mut self, n: usize) -> bool {
        if self.empties == 0 {
            if let Some(Evidence::Empties(run)) = self.items.as_slice().first() {
                self.empties = usize::from(*run);
                self.items.next();
            }
        }
        match self.empties.checked_sub(n) {
            Some(rest) => {
                self.empties = rest;
                true
            }
            None => false,
        }
    }
}

// --- serialization -------------------------------------------------------
//
// One chunk per evidence item: tag 0 is followed by the run length as a
// u16, tags 1 and 2 by the leaf's key and value hash or the node's hash,
// tag 3 by the branch's bit as a u16, its shared bits and its two sides.

const TAG_EMPTY_RUN: u8 = 0;
const TAG_LEAF: u8 = 1;
const TAG_NODE: u8 = 2;
const TAG_BRANCH: u8 = 3;

impl Encode for SmtProof {
    fn encode(&self, out: &mut Vec<u8>) {
        dcert_primitives::codec::encode_seq(&self.keys, out);
        dcert_primitives::codec::encode_seq(&self.pre, out);
        // A proof over n keys holds at most 256·n + 1 items.
        u32::try_from(self.evidence.len())
            .unwrap_or(u32::MAX)
            .encode(out);
        for item in &self.evidence {
            match item {
                Evidence::Empties(run) => {
                    out.push(TAG_EMPTY_RUN);
                    run.encode(out);
                }
                Evidence::Leaf { key, value_hash } => {
                    out.push(TAG_LEAF);
                    key.encode(out);
                    value_hash.encode(out);
                }
                Evidence::Node(hash) => {
                    out.push(TAG_NODE);
                    hash.encode(out);
                }
                Evidence::Branch(header) => {
                    out.push(TAG_BRANCH);
                    header.bit.encode(out);
                    header.shared.encode(out);
                    header.left.encode(out);
                    header.right.encode(out);
                }
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let pre: usize = self.pre.iter().map(Encode::encoded_len).sum();
        let evidence: usize = self
            .evidence
            .iter()
            .map(|item| match item {
                Evidence::Empties(_) => 1 + 2,
                Evidence::Leaf { .. } => 1 + 2 * Hash::LEN,
                Evidence::Node(_) => 1 + Hash::LEN,
                Evidence::Branch(_) => 1 + 2 + 3 * Hash::LEN,
            })
            .sum();
        4 + self.keys.len() * Hash::LEN + 4 + pre + 4 + evidence
    }
}

impl Decode for SmtProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let keys = dcert_primitives::codec::decode_seq(r)?;
        let pre = dcert_primitives::codec::decode_seq(r)?;
        let chunks = u32::decode(r)?;
        let mut evidence = Vec::new();
        for _ in 0..chunks {
            match r.take_byte()? {
                // Runs merge as they arrive, so a frame that splits one
                // (or pads it with zero-length chunks) decodes to what the
                // prover would have built, whatever it cost to send.
                TAG_EMPTY_RUN => push_empties(&mut evidence, usize::from(u16::decode(r)?)),
                TAG_LEAF => evidence.push(Evidence::Leaf {
                    key: Hash::decode(r)?,
                    value_hash: Hash::decode(r)?,
                }),
                TAG_NODE => evidence.push(Evidence::Node(Hash::decode(r)?)),
                TAG_BRANCH => evidence.push(Evidence::Branch(Box::new(Header {
                    bit: u16::decode(r)?,
                    shared: Hash::decode(r)?,
                    left: Hash::decode(r)?,
                    right: Hash::decode(r)?,
                }))),
                other => return Err(CodecError::InvalidTag(other)),
            }
        }
        Ok(SmtProof {
            keys,
            pre,
            evidence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::{decode_seq, encode_seq};
    use dcert_testkit::check;
    use dcert_testkit::smt_frames::{forged_absences, header_lies, Refusal, Rules};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn key(label: &str) -> Hash {
        hash_bytes(label.as_bytes())
    }

    /// Reference oracle: recompute the root from scratch, recursively, from
    /// the full sorted key/value-hash map — an independent code path from
    /// the incremental tree, with its own spelling of the branch rule.
    fn reference_root(entries: &BTreeMap<Hash, Hash>) -> Hash {
        fn branch(depth: usize, under: &Hash, left: Hash, right: Hash) -> Hash {
            let mut preimage = vec![domain::SMT_BRANCH, (depth >> 8) as u8, depth as u8];
            let mut shared = [0u8; 32];
            for i in (0..depth).filter(|i| under.bit(*i)) {
                shared[i / 8] |= 0x80 >> (i % 8);
            }
            preimage.extend_from_slice(&shared);
            preimage.extend_from_slice(left.as_bytes());
            preimage.extend_from_slice(right.as_bytes());
            hash_bytes(preimage)
        }
        fn rec(depth: usize, entries: &[(&Hash, &Hash)]) -> Hash {
            match entries {
                [] => Hash::ZERO,
                [(key, value_hash)] => leaf_hash(key, value_hash),
                [(under, _), ..] => {
                    let split = entries.partition_point(|(k, _)| !k.bit(depth));
                    let left = rec(depth + 1, &entries[..split]);
                    let right = rec(depth + 1, &entries[split..]);
                    if left == Hash::ZERO || right == Hash::ZERO {
                        left.max(right)
                    } else {
                        branch(depth, under, left, right)
                    }
                }
            }
        }
        let list: Vec<(&Hash, &Hash)> = entries.iter().collect();
        rec(0, &list)
    }

    #[test]
    fn empty_tree_root_is_zero() {
        assert_eq!(SparseMerkleTree::new().root(), Hash::ZERO);
    }

    #[test]
    fn single_key_root_is_leaf_hash() {
        let mut tree = SparseMerkleTree::new();
        tree.insert(key("a"), b"1".to_vec());
        assert_eq!(tree.root(), leaf_hash(&key("a"), &hash_bytes(b"1")));
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut tree = SparseMerkleTree::new();
        assert_eq!(tree.insert(key("a"), b"1".to_vec()), None);
        assert_eq!(tree.insert(key("a"), b"2".to_vec()), Some(b"1".to_vec()));
        assert_eq!(tree.get(&key("a")), Some(b"2".as_slice()));
        assert_eq!(tree.remove(&key("a")), Some(b"2".to_vec()));
        assert_eq!(tree.get(&key("a")), None);
        assert_eq!(tree.root(), Hash::ZERO);
    }

    #[test]
    fn root_matches_reference_oracle_incrementally() {
        let mut tree = SparseMerkleTree::new();
        let mut model = BTreeMap::new();
        for i in 0..200u32 {
            let k = key(&format!("k{i}"));
            let v = format!("v{i}").into_bytes();
            model.insert(k, hash_bytes(&v));
            tree.insert(k, v);
            assert_eq!(tree.root(), reference_root(&model), "after insert {i}");
        }
        for i in (0..200u32).step_by(3) {
            let k = key(&format!("k{i}"));
            model.remove(&k);
            tree.remove(&k);
            assert_eq!(tree.root(), reference_root(&model), "after remove {i}");
        }
    }

    #[test]
    fn order_independence() {
        let mut a = SparseMerkleTree::new();
        let mut b = SparseMerkleTree::new();
        for i in 0..50u32 {
            a.insert(key(&i.to_string()), vec![i as u8]);
        }
        for i in (0..50u32).rev() {
            b.insert(key(&i.to_string()), vec![i as u8]);
        }
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn proof_verifies_present_and_absent_keys() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..32u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let present = key("k7");
        let absent = key("nope");
        let proof = tree.prove(&[present, absent]);
        let verified = proof.verify(&tree.root()).unwrap();
        assert_eq!(
            verified.pre_value_hash(&present).unwrap(),
            Some(hash_bytes([7u8]))
        );
        assert_eq!(verified.pre_value_hash(&absent).unwrap(), None);
        assert_eq!(
            verified.pre_value_hash(&key("uncovered")),
            Err(ProofError::MissingKey)
        );
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let mut tree = SparseMerkleTree::new();
        tree.insert(key("a"), b"1".to_vec());
        let proof = tree.prove(&[key("a")]);
        assert_eq!(
            proof.verify(&Hash::ZERO).err(),
            Some(ProofError::RootMismatch)
        );
    }

    #[test]
    fn tampered_pre_value_rejected() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..8u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let mut proof = tree.prove(&[key("k3")]);
        proof.pre[0] = Some(hash_bytes(b"forged"));
        assert_eq!(
            proof.verify(&tree.root()).err(),
            Some(ProofError::RootMismatch)
        );
    }

    #[test]
    fn updated_root_matches_real_update() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..64u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let old_root = tree.root();
        let k_upd = key("k10");
        let k_new = key("brand-new");
        let k_del = key("k20");
        let proof = tree.prove(&[k_upd, k_new, k_del]);
        let verified = proof.verify(&old_root).unwrap();
        let predicted = verified
            .updated_root(&[
                (k_upd, Some(hash_bytes(b"updated"))),
                (k_new, Some(hash_bytes(b"created"))),
                (k_del, None),
            ])
            .unwrap();
        tree.insert(k_upd, b"updated".to_vec());
        tree.insert(k_new, b"created".to_vec());
        tree.remove(&k_del);
        assert_eq!(predicted, tree.root());
    }

    #[test]
    fn updated_root_rejects_uncovered_write() {
        let mut tree = SparseMerkleTree::new();
        tree.insert(key("a"), b"1".to_vec());
        let proof = tree.prove(&[key("a")]);
        let verified = proof.verify(&tree.root()).unwrap();
        assert_eq!(
            verified.updated_root(&[(key("b"), Some(Hash::ZERO))]),
            Err(ProofError::MissingKey)
        );
        // Beside a covered write too, and from a proof that covers nothing.
        assert_eq!(
            verified.updated_root(&[(key("a"), None), (key("b"), None)]),
            Err(ProofError::MissingKey)
        );
        let nothing = tree.prove(&[]);
        let verified = nothing.verify(&tree.root()).unwrap();
        assert_eq!(
            verified.updated_root(&[(key("a"), None)]),
            Err(ProofError::MissingKey)
        );
        assert_eq!(verified.updated_root(&[]), Ok(tree.root()));
    }

    #[test]
    fn insert_into_empty_tree_via_proof() {
        let tree = SparseMerkleTree::new();
        let k = key("genesis");
        let proof = tree.prove(&[k]);
        let verified = proof.verify(&Hash::ZERO).unwrap();
        let new_root = verified
            .updated_root(&[(k, Some(hash_bytes(b"v")))])
            .unwrap();
        let mut real = SparseMerkleTree::new();
        real.insert(k, b"v".to_vec());
        assert_eq!(new_root, real.root());
    }

    #[test]
    fn proof_codec_round_trip() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..20u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let proof = tree.prove(&[key("k3"), key("absent"), key("k19")]);
        let bytes = proof.to_encoded_bytes();
        let decoded = SmtProof::decode_all(&bytes).unwrap();
        assert_eq!(decoded, proof);
        decoded.verify(&tree.root()).unwrap();
    }

    #[test]
    fn evidence_cannot_be_dropped() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..16u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let mut proof = tree.prove(&[key("k0")]);
        proof.evidence.pop();
        assert!(matches!(
            proof.verify(&tree.root()),
            Err(ProofError::Malformed(_)) | Err(ProofError::RootMismatch)
        ));
    }

    #[test]
    fn proof_size_is_compact() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..1000u32 {
            tree.insert(key(&format!("k{i}")), vec![0]);
        }
        let proof = tree.prove(&[key("k500")]);
        // A single-key proof should be a few sibling hashes plus RLE-encoded
        // empty runs — far below a full 256-level path of hashes.
        assert!(proof.size_bytes() < 1200, "size = {}", proof.size_bytes());
    }

    /// Keys with long shared prefixes: `base`, its sibling at bit 255, and a
    /// cousin parting at bit 248.
    fn deep_keys() -> [Hash; 3] {
        let base = key("deep").to_array();
        let flip_last = |mask: u8| {
            let mut bytes = base;
            bytes[31] ^= mask;
            Hash::from_bytes(bytes)
        };
        [flip_last(0), flip_last(0x01), flip_last(0x80)]
    }

    #[test]
    fn evidence_is_one_item_per_wire_chunk() {
        let [base, sibling, cousin] = deep_keys();
        let mut tree = SparseMerkleTree::new();
        for i in 0..40u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        tree.insert(base, b"deep".to_vec());
        for touched in [
            vec![],
            vec![key("k3")],
            vec![key("absent")],
            vec![base, sibling, cousin, key("k9"), key("nope")],
        ] {
            let proof = tree.prove(&touched);
            proof.verify(&tree.root()).unwrap();
            let bytes = proof.to_encoded_bytes();
            assert_eq!(proof.encoded_len(), bytes.len());
            // keys, pre, then the chunk count in front of the evidence body.
            let mut r = Reader::new(&bytes);
            let _: Vec<Hash> = decode_seq(&mut r).unwrap();
            let _: Vec<Option<Hash>> = decode_seq(&mut r).unwrap();
            let chunks = u32::decode(&mut r).unwrap();
            assert_eq!(proof.evidence.len(), chunks as usize);
            assert!(proof
                .evidence
                .windows(2)
                .all(|w| !matches!(w, [Evidence::Empties(_), Evidence::Empties(_)])));
        }
    }

    #[test]
    fn empty_runs_merge_up_to_the_chunk_cap() {
        let mut evidence = Vec::new();
        push_empties(&mut evidence, 0);
        assert!(evidence.is_empty());
        push_empties(&mut evidence, 65_000);
        push_empties(&mut evidence, 535);
        assert_eq!(evidence, [Evidence::Empties(u16::MAX)]);
        push_empties(&mut evidence, 65_536);
        assert_eq!(
            evidence,
            [
                Evidence::Empties(u16::MAX),
                Evidence::Empties(u16::MAX),
                Evidence::Empties(1)
            ]
        );
        evidence.push(Evidence::Node(Hash::ZERO));
        push_empties(&mut evidence, 2);
        assert_eq!(evidence.last(), Some(&Evidence::Empties(2)));
    }

    #[test]
    fn split_and_zero_length_run_chunks_decode_canonically() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..8u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let proof = tree.prove(&[key("k2"), key("absent")]);
        // The same evidence as a hostile encoder may frame it: every run cut
        // in two, with zero-length chunks around the pieces.
        let mut framed = proof.clone();
        framed.evidence = proof
            .evidence
            .iter()
            .flat_map(|item| match item {
                Evidence::Empties(run) => vec![
                    Evidence::Empties(0),
                    Evidence::Empties(run / 2),
                    Evidence::Empties(0),
                    Evidence::Empties(run - run / 2),
                ],
                other => vec![other.clone()],
            })
            .collect();
        assert!(framed.evidence.len() > proof.evidence.len());
        let frame = framed.to_encoded_bytes();
        assert_eq!(framed.encoded_len(), frame.len());
        let decoded = SmtProof::decode_all(&frame).unwrap();
        assert_eq!(decoded, proof);
        assert_eq!(decoded.size_bytes(), proof.size_bytes());
        assert_eq!(decoded.to_encoded_bytes(), proof.to_encoded_bytes());
        // Unmerged in memory, it still walks to the same answers.
        let writes = [(key("k2"), None), (key("absent"), Some(hash_bytes(b"v")))];
        let want = proof.verify(&tree.root()).unwrap().updated_root(&writes);
        for p in [&framed, &decoded] {
            let verified = p.verify(&tree.root()).unwrap();
            assert_eq!(verified.updated_root(&writes), want);
        }
    }

    #[test]
    fn full_run_chunks_are_not_expanded_on_decode() {
        // 64 KiB of `0x00 0xFF 0xFF`: 21 845 maximal runs, 1.4 G empty
        // subtrees. One in-memory item per chunk, never one per subtree.
        let chunks = 65_535 / 3;
        let mut frame = Vec::new();
        encode_seq(&[key("k")], &mut frame);
        encode_seq(&[None::<Hash>], &mut frame);
        (chunks as u32).encode(&mut frame);
        for _ in 0..chunks {
            frame.extend_from_slice(&[TAG_EMPTY_RUN, 0xFF, 0xFF]);
        }
        let proof = SmtProof::decode_all(&frame).unwrap();
        assert_eq!(proof.evidence.len(), chunks);
        assert_eq!(proof.size_bytes(), frame.len());
        assert_eq!(
            proof.verify(&Hash::ZERO).err(),
            Some(ProofError::Malformed("unconsumed evidence"))
        );
    }

    #[test]
    fn misplaced_leaf_evidence_is_refused() {
        let [base, sibling, cousin] = deep_keys();
        let mut tree = SparseMerkleTree::new();
        tree.insert(base, b"1".to_vec());
        tree.insert(cousin, b"2".to_vec());
        // `sibling` is absent; `base` is disclosed as the leaf beside it.
        let proof = tree.prove(&[sibling]);
        proof.verify(&tree.root()).unwrap();
        let mut forged = proof.clone();
        for item in &mut forged.evidence {
            if let Evidence::Leaf { key, .. } = item {
                if *key == base {
                    *key = cousin;
                }
            }
        }
        assert_ne!(forged, proof);
        let refused = Some(ProofError::Malformed("leaf evidence outside subtree"));
        assert_eq!(forged.walk::<true>().err(), refused);
        assert_eq!(forged.walk::<false>().err(), refused);
    }

    /// This tree's hash rules, for the frame forgers of `dcert-testkit`.
    const RULES: Rules = Rules {
        leaf: |key, value_hash| {
            leaf_hash(&Hash::from_bytes(*key), &Hash::from_bytes(*value_hash)).to_array()
        },
        branch: |bit, under, left, right| {
            let [under, left, right] = [under, left, right].map(|h| Hash::from_bytes(*h));
            branch_hash(usize::from(bit), &under, &left, &right).to_array()
        },
    };

    /// The header of the branch under `node` that hashes to `hash`.
    fn header_of(node: &Node, hash: &Hash) -> Option<Header> {
        let Node::Branch { left, right, .. } = node else {
            return None;
        };
        if node.hash() == *hash {
            return node.header();
        }
        header_of(left, hash).or_else(|| header_of(right, hash))
    }

    /// Every lie about where a subtree belongs that the frame forgers can
    /// tell — about a header the honest proof of `touched` has to carry,
    /// and to make each key of `present` read as absent; left unchecked,
    /// those commit to the genuine root — and the one they cannot, knowing
    /// no tree: that proof with a bare hash, which the branch above places,
    /// replaced by the header it stands for. Each with the refusal it meets.
    fn position_lies(
        tree: &SparseMerkleTree,
        touched: &[Hash],
        present: &[Hash],
    ) -> Vec<(SmtProof, ProofError)> {
        let proof = tree.prove(touched);
        assert_eq!(proof.walk::<true>().map(|v| v.root()), Ok(tree.root()));
        let mut frames = header_lies(&proof.to_encoded_bytes(), RULES);
        for key in present {
            let honest = tree.prove(&[*key]).to_encoded_bytes();
            let (forged, commits_to) = forged_absences(&honest, RULES);
            assert_eq!(Hash::from_bytes(commits_to), tree.root());
            frames.extend(forged);
        }
        let lies = frames.into_iter().map(|(frame, refusal)| {
            let refusal = match refusal {
                Refusal::LeafMisplaced => LEAF_MISPLACED,
                Refusal::BranchMisplaced => BRANCH_MISPLACED,
                Refusal::SubtreeUnplaced => SUBTREE_UNPLACED,
                Refusal::HeaderMalformed => HEADER_MALFORMED,
                Refusal::RootMismatch => ProofError::RootMismatch,
            };
            (SmtProof::decode_all(&frame).unwrap(), refusal)
        });
        let uncalled = proof.evidence.iter().enumerate().filter_map(|(at, item)| {
            let Evidence::Node(hash) = item else {
                return None;
            };
            let mut lie = proof.clone();
            lie.evidence[at] = Evidence::Branch(Box::new(header_of(&tree.root, hash)?));
            Some((lie, HEADER_UNCALLED))
        });
        lies.chain(uncalled).collect()
    }

    /// Each lie survives the wire as it stands and is refused for what it
    /// is, whether the walk takes runs whole or level by level. Returns the
    /// refusals met.
    fn assert_refused(
        tree: &SparseMerkleTree,
        lies: Vec<(SmtProof, ProofError)>,
    ) -> Vec<ProofError> {
        let mut reached = Vec::new();
        for (lie, refusal) in lies {
            let lie = SmtProof::decode_all(&lie.to_encoded_bytes()).unwrap();
            for walked in [lie.walk::<true>(), lie.walk::<false>()] {
                let root = walked.map(|verified| verified.root());
                let told = root.and_then(|root| match root == tree.root() {
                    true => Ok(()),
                    false => Err(ProofError::RootMismatch),
                });
                assert_eq!(told, Err(refusal.clone()), "{lie:?}");
            }
            reached.push(refusal);
        }
        reached
    }

    /// The gap PR 18 found, closed: a subtree handed over beside an all-empty
    /// path is held to its position, so the key inside it cannot read as
    /// absent; and the family reaches every refusal it names.
    #[test]
    fn opaque_sibling_cannot_hide_a_present_key() {
        let mut tree = SparseMerkleTree::new();
        for i in 0..51u32 {
            tree.insert(key(&format!("k{i}")), vec![i as u8]);
        }
        let reached = assert_refused(&tree, position_lies(&tree, &[], &[key("k7")]));
        assert!(reached.contains(&SUBTREE_UNPLACED));

        let pool = crowded_keys();
        let mut tree = SparseMerkleTree::new();
        for k in &pool {
            tree.insert(*k, vec![1]);
        }
        // Absent, and parting from the deep family half way down the 117
        // levels its branch at bit 248 hangs beside nothing.
        let mut stray = key("deep").to_array();
        stray[24] ^= 0x40;
        let touched = [Hash::from_bytes(stray), key("absent-1"), pool[3]];
        let reached = assert_refused(&tree, position_lies(&tree, &touched, &pool));
        for named in [
            LEAF_MISPLACED,
            BRANCH_MISPLACED,
            HEADER_MALFORMED,
            SUBTREE_UNPLACED,
            HEADER_UNCALLED,
            ProofError::RootMismatch,
        ] {
            assert!(reached.contains(&named), "{named} not reached");
        }
    }

    /// Over seeded trees and key sets — present, absent and mixed, crowded
    /// and deep — no lie about a subtree's position verifies.
    #[test]
    fn prop_misplaced_subtrees_are_refused() {
        check("prop_misplaced_subtrees_are_refused", 64, |g| {
            let pool = crowded_keys();
            let held = g.btree_set(0..pool.len(), |g| g.range(0..pool.len()));
            let touched = g.btree_set(0..6, |g| g.range(0..pool.len() + 8));
            let mut tree = SparseMerkleTree::new();
            for at in &held {
                tree.insert(pool[*at], vec![*at as u8]);
            }
            let absent = |at: &usize| key(&format!("absent-{at}"));
            let touched: Vec<Hash> = touched
                .iter()
                .map(|at| pool.get(*at).copied().unwrap_or_else(|| absent(at)))
                .collect();
            let present: Vec<Hash> = held.iter().take(3).map(|at| pool[*at]).collect();
            assert_refused(&tree, position_lies(&tree, &touched, &present));
        });
    }

    /// Keys that crowd each other: hashed labels part within the first few
    /// bits; the `deep` family shares 0, 131, 248 and 255 of them.
    fn crowded_keys() -> Vec<Hash> {
        let mut keys: Vec<Hash> = (0..24).map(|i| key(&format!("key-{i}"))).collect();
        let base = key("deep").to_array();
        for (byte, mask) in [
            (31, 0x00),
            (31, 0x01),
            (31, 0x80),
            (31, 0x81),
            (16, 0x10),
            (0, 0x80),
        ] {
            let mut bytes = base;
            bytes[byte] ^= mask;
            keys.push(Hash::from_bytes(bytes));
        }
        keys
    }

    /// The one-walk commit of `writes` over a tree holding `initial` agrees
    /// with everything that computes the same thing another way — the same
    /// writes one key at a time, the from-scratch oracle, the stateless
    /// update from a proof that covers the written keys and `reads` — and
    /// committing what it displaced is an exact undo.
    fn check_commit(
        initial: &[(Hash, Vec<u8>)],
        writes: &[(Hash, Option<Vec<u8>>)],
        reads: &[Hash],
    ) {
        let mut before = SparseMerkleTree::new();
        for (k, v) in initial {
            before.insert(*k, v.clone());
        }
        let mut stepwise = before.clone();
        let mut model: BTreeMap<Hash, Vec<u8>> =
            before.iter().map(|(k, v)| (*k, v.to_vec())).collect();
        let mut touched = BTreeSet::new();
        for (k, v) in writes {
            match v {
                Some(v) => {
                    stepwise.insert(*k, v.clone());
                    model.insert(*k, v.clone());
                }
                None => {
                    stepwise.remove(k);
                    model.remove(k);
                }
            }
            touched.insert(*k);
        }
        let touched: Vec<Hash> = touched.into_iter().collect();
        let covered: Vec<Hash> = touched.iter().chain(reads).copied().collect();
        let proof = before.prove(&covered);
        // As given: the last write to a key is the one that counts.
        let stateless: Vec<(Hash, Option<Hash>)> = writes
            .iter()
            .map(|(k, v)| (*k, v.as_ref().map(hash_bytes)))
            .collect();

        let mut tree = before.clone();
        let displaced = tree.commit(writes.iter().cloned());
        let hashed: BTreeMap<Hash, Hash> = model.iter().map(|(k, v)| (*k, hash_bytes(v))).collect();
        assert_eq!(tree.root(), stepwise.root(), "key by key");
        assert_eq!(tree.root(), reference_root(&hashed), "from scratch");
        // Stateless, whether the walk took the runs whole or level by level.
        for walked in [proof.walk::<true>(), proof.walk::<false>()] {
            let verified = walked.unwrap();
            assert_eq!(verified.root(), before.root());
            for k in &covered {
                let held = before.get(k).map(hash_bytes);
                assert_eq!(verified.pre_value_hash(k), Ok(held));
            }
            assert_eq!(verified.updated_root(&stateless), Ok(tree.root()));
        }
        assert_eq!(tree.len(), model.len());
        for (k, v) in &model {
            assert_eq!(tree.get(k), Some(v.as_slice()));
        }
        // One displaced entry per distinct key, in key order, holding what
        // the tree held before.
        let want: Vec<(Hash, Option<Vec<u8>>)> = touched
            .iter()
            .map(|k| (*k, before.get(k).map(<[u8]>::to_vec)))
            .collect();
        assert_eq!(displaced, want);

        tree.commit(displaced);
        assert_eq!(tree.root(), before.root(), "undo");
        assert_eq!(tree.len(), before.len(), "undo");
        for (k, v) in before.iter() {
            assert_eq!(tree.get(k), Some(v), "undo");
        }
    }

    #[test]
    fn commit_handles_every_shape_of_write_set() {
        let [base, sibling, cousin] = deep_keys();
        let val = |b: u8| Some(vec![b]);
        let deep_pair = [(base, vec![1]), (cousin, vec![2])];
        let crowd: Vec<(Hash, Vec<u8>)> =
            crowded_keys().into_iter().map(|k| (k, vec![7])).collect();
        // Each shape under three covers: the written keys alone (what they
        // collapse onto or land beside is evidence), with the deep family
        // read around them, with the whole crowd read.
        let family = [base, sibling, cousin];
        let everyone = crowded_keys();
        let check = |initial: &[(Hash, Vec<u8>)], writes: &[(Hash, Option<Vec<u8>>)]| {
            for reads in [&[][..], &family[..], &everyone[..]] {
                check_commit(initial, writes, reads);
            }
        };
        // Nothing to do, to an empty tree and to a full one.
        check(&[], &[]);
        check(&crowd, &[]);
        // Inserts that part from the pair's 248-bit prefix above its branch,
        // on either side of it, alone and together with one that goes below.
        check(&deep_pair, &[(key("key-0"), val(3))]);
        check(
            &deep_pair,
            &[
                (key("key-0"), val(3)),
                (key("key-1"), val(4)),
                (sibling, val(5)),
            ],
        );
        // Deletes that collapse the branch at bit 248, the one at bit 255
        // under it, and both; then everything.
        let deep_three = [(base, vec![1]), (sibling, vec![2]), (cousin, vec![3])];
        check(&deep_three, &[(cousin, None)]);
        check(&deep_three, &[(sibling, None)]);
        check(&deep_three, &[(base, None), (sibling, None)]);
        check(
            &deep_three,
            &[(base, None), (sibling, None), (cousin, None)],
        );
        // Deletes of absent keys: into nothing, beside a leaf, above and
        // below a branch — the tree must come out untouched.
        check(&[], &[(base, None), (key("key-0"), None)]);
        check(&[(base, vec![1])], &[(sibling, None)]);
        check(&deep_pair, &[(sibling, None), (key("key-0"), None)]);
        // A fresh subtree built from nothing; every key overwritten; every
        // key deleted while as many new ones arrive.
        let fresh: Vec<_> = crowd.iter().map(|(k, _)| (*k, val(9))).collect();
        check(&[], &fresh);
        check(&crowd, &fresh);
        let (go, stay): (Vec<_>, Vec<_>) = crowd.iter().cloned().partition(|(k, _)| k.bit(7));
        let swap: Vec<_> = go
            .iter()
            .map(|(k, _)| (*k, None))
            .chain(stay.iter().map(|(k, _)| (*k, val(8))))
            .collect();
        check(&go, &swap);
        // The last write to a key wins, whichever way round.
        check(
            &deep_pair,
            &[
                (base, None),
                (base, val(6)),
                (cousin, val(7)),
                (cousin, None),
            ],
        );
        // Inserts that make a branch beside a disclosed leaf and beside an
        // opaque subtree — a delete back onto each is the undo.
        check(&[(base, vec![1])], &[(sibling, val(2))]);
        check(&[(base, vec![1]), (sibling, vec![2])], &[(cousin, val(3))]);
        // Every other key of the crowd written, the ones between only read.
        let mut sorted = crowd.clone();
        sorted.sort();
        let (written, read): (Vec<_>, Vec<_>) =
            sorted.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let written: Vec<_> = written
            .into_iter()
            .map(|(i, (k, _))| (*k, (i % 4 == 0).then(|| vec![5])))
            .collect();
        let read: Vec<Hash> = read.into_iter().map(|(_, (k, _))| *k).collect();
        check_commit(&crowd, &written, &read);
    }

    #[test]
    fn commit_agrees_on_seeded_trees_and_write_sets() {
        let pool = crowded_keys();
        // Miri runs this suite about a hundred times slower.
        for seed in 0..if cfg!(miri) { 8 } else { 400u64 } {
            // Its own stream per seed: a failing seed replays alone.
            let mut rng = StdRng::seed_from_u64(seed);
            let density = rng.gen_range(0..4);
            let initial: Vec<(Hash, Vec<u8>)> = pool
                .iter()
                .filter(|_| rng.gen_range(0..4) < density)
                .map(|k| (*k, vec![seed as u8]))
                .collect();
            let writes: Vec<(Hash, Option<Vec<u8>>)> = (0..rng.gen_range(0..16))
                .map(|_| {
                    let k = pool[rng.gen_range(0..pool.len())];
                    let value = vec![rng.gen::<u8>(); rng.gen_range(0..3)];
                    (k, (rng.gen_range(0..3) != 0).then_some(value))
                })
                .collect();
            let reading = rng.gen_range(0..4);
            let reads: Vec<Hash> = pool
                .iter()
                .filter(|_| rng.gen_range(0..4) < reading)
                .copied()
                .collect();
            let caught = std::panic::catch_unwind(|| check_commit(&initial, &writes, &reads));
            assert!(
                caught.is_ok(),
                "seed {seed}: {} keys, writes {writes:?}, reads {reads:?}",
                initial.len()
            );
        }
    }

    /// Incremental root always equals the reference recomputation.
    #[test]
    fn prop_root_matches_reference() {
        check("prop_root_matches_reference", 64, |g| {
            let ops = g.vec(1..120, |g| (g.any::<u8>(), g.any::<bool>()));
            let mut tree = SparseMerkleTree::new();
            let mut model: BTreeMap<Hash, Hash> = BTreeMap::new();
            for (label, is_insert) in ops {
                let k = key(&format!("key-{}", label % 32));
                if is_insert {
                    let v = vec![label];
                    model.insert(k, hash_bytes(&v));
                    tree.insert(k, v);
                } else {
                    model.remove(&k);
                    tree.remove(&k);
                }
            }
            assert_eq!(tree.root(), reference_root(&model));
        });
    }

    /// Any key subset proves and verifies, and whichever of the covered keys
    /// are written, the stateless update, the tree's own commit and the
    /// from-scratch oracle reach one root.
    #[test]
    fn prop_stateless_update_agrees() {
        check("prop_stateless_update_agrees", 64, |g| {
            let initial = g.btree_map(0..30, |g| g.range(0u8..40), |g| g.any::<u8>());
            // `None` reads the key, `Some(None)` deletes it.
            let touched = g.btree_map(
                0..10,
                |g| g.range(0u8..48),
                |g| g.option(|g| g.option(|g| g.any::<u8>())),
            );
            let label = |k: &u8| key(&format!("key-{k}"));
            let mut tree = SparseMerkleTree::new();
            let mut model: BTreeMap<Hash, Hash> = BTreeMap::new();
            for (k, v) in &initial {
                tree.insert(label(k), vec![*v]);
                model.insert(label(k), hash_bytes([*v]));
            }
            let covered: Vec<Hash> = touched.keys().map(label).collect();
            let proof = tree.prove(&covered);
            let verified = proof.verify(&tree.root()).unwrap();
            for (k, key) in touched.keys().zip(&covered) {
                let held = initial.get(k).map(|v| hash_bytes([*v]));
                assert_eq!(verified.pre_value_hash(key), Ok(held));
            }

            let writes: Vec<(Hash, Option<Vec<u8>>)> = touched
                .iter()
                .filter_map(|(k, write)| Some((label(k), write.map(|v| v.map(|b| vec![b]))?)))
                .collect();
            let hashed: Vec<(Hash, Option<Hash>)> = writes
                .iter()
                .map(|(k, v)| (*k, v.as_ref().map(hash_bytes)))
                .collect();
            let predicted = verified.updated_root(&hashed).unwrap();

            tree.commit(writes);
            for (k, value_hash) in hashed {
                match value_hash {
                    Some(value_hash) => model.insert(k, value_hash),
                    None => model.remove(&k),
                };
            }
            assert_eq!(predicted, tree.root());
            assert_eq!(predicted, reference_root(&model));
        });
    }

    /// The one-walk commit agrees with its three references and undoes
    /// exactly, whatever the tree and the write set.
    #[test]
    fn prop_commit_agrees_and_undoes() {
        check("prop_commit_agrees_and_undoes", 64, |g| {
            let initial = g.btree_map(0..30, |g| g.range(0usize..30), |g| g.any::<u8>());
            let writes = g.vec(0..20, |g| {
                (g.range(0usize..30), g.option(|g| g.any::<u8>()))
            });
            let reads = g.btree_set(0..10, |g| g.range(0usize..30));
            let pool = crowded_keys();
            let initial: Vec<(Hash, Vec<u8>)> =
                initial.iter().map(|(k, v)| (pool[*k], vec![*v])).collect();
            let writes: Vec<(Hash, Option<Vec<u8>>)> = writes
                .iter()
                .map(|(k, v)| (pool[*k], v.map(|b| vec![b])))
                .collect();
            let reads: Vec<Hash> = reads.iter().map(|k| pool[*k]).collect();
            check_commit(&initial, &writes, &reads);
        });
    }

    /// The run shortcut changes no verdict: whatever a one-byte change
    /// does to an encoded proof, if it still decodes then the walk that
    /// skips a lone key's all-empty remainder and the walk that steps
    /// through it level by level agree — on the root and on the root after
    /// writes, or on the refusal.
    #[test]
    fn prop_run_shortcut_agrees_with_per_level_walk() {
        check("prop_run_shortcut_agrees_with_per_level_walk", 64, |g| {
            let present = g.btree_set(0..12, |g| g.range(0u8..24));
            let touched = g.btree_set(0..5, |g| g.range(0u8..32));
            let deep = g.any::<bool>();
            let mutations = g.vec(24..=24, |g| (g.any::<usize>(), g.any::<u8>()));
            let mut tree = SparseMerkleTree::new();
            for k in &present {
                tree.insert(key(&format!("key-{k}")), vec![*k]);
            }
            let mut touched: Vec<Hash> = touched.iter().map(|k| key(&format!("key-{k}"))).collect();
            if deep {
                let [base, sibling, cousin] = deep_keys();
                tree.insert(base, b"deep".to_vec());
                touched.extend([sibling, cousin]);
            }
            let proof = tree.prove(&touched);
            let writes: Vec<(Hash, Option<Hash>)> = proof
                .keys
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 3 != 2)
                .map(|(i, k)| (*k, (i % 3 == 0).then(|| hash_bytes([i as u8]))))
                .collect();
            // The root a walk reaches and, where the mutant still covers the
            // written keys, the root the writes take it to.
            let roots = |walked: Result<Verified<'_>, ProofError>| {
                walked.map(|verified| (verified.root(), verified.updated_root(&writes)))
            };
            assert_eq!(proof.walk::<false>().map(|v| v.root()), Ok(tree.root()));
            let bytes = proof.to_encoded_bytes();
            for (at, byte) in mutations {
                let mut frame = bytes.clone();
                frame[at % bytes.len()] = byte;
                let Ok(mutant) = SmtProof::decode_all(&frame) else {
                    continue;
                };
                assert_eq!(roots(mutant.walk::<true>()), roots(mutant.walk::<false>()));
            }
        });
    }

    /// Proofs for random key sets never panic on junk roots.
    #[test]
    fn prop_verify_never_panics() {
        check("prop_verify_never_panics", 64, |g| {
            let (n, probe) = (g.range(0usize..20), g.range(0u8..255));
            let mut tree = SparseMerkleTree::new();
            for i in 0..n {
                tree.insert(key(&format!("k{i}")), vec![i as u8]);
            }
            let proof = tree.prove(&[key(&format!("probe-{probe}"))]);
            let _ = proof.verify(&hash_bytes([probe]));
        });
    }
}
