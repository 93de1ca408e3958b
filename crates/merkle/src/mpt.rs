//! Hex-nibble Merkle Patricia trie.
//!
//! The upper level of DCert's two-level historical query index (Fig. 5 of
//! the paper): account addresses map to the root digests of per-account
//! Merkle B-trees. Mirrors Ethereum's trie shape — leaf, extension, and
//! 16-way branch nodes over the nibbles of the key — with DCert's canonical
//! hashing instead of RLP.
//!
//! Three capabilities are provided:
//!
//! - ordinary maintenance ([`Mpt::insert`], [`Mpt::get`]),
//! - authenticated lookups ([`Mpt::prove`] / [`MptProof::verify`]) proving
//!   membership *or absence* of a key,
//! - **stateless upserts** ([`MptProof::updated_root`]): given only a proof
//!   against the old root, compute the root after writing the key — this is
//!   what lets the SGX enclave certify index updates (Algorithm 4/5)
//!   without holding the index.
//!
//! # Example
//!
//! ```
//! use dcert_merkle::Mpt;
//! use dcert_primitives::hash::hash_bytes;
//!
//! let mut trie = Mpt::new();
//! trie.insert(b"alice", b"10".to_vec());
//! let root = trie.root();
//!
//! let proof = trie.prove(b"alice");
//! assert_eq!(proof.verify(&root, b"alice")?, Some(hash_bytes(b"10")));
//!
//! // A stateless verifier predicts the post-write root.
//! let new_root = proof.updated_root(&root, b"alice", &hash_bytes(b"99"))?;
//! trie.insert(b"alice", b"99".to_vec());
//! assert_eq!(trie.root(), new_root);
//! # Ok::<(), dcert_merkle::ProofError>(())
//! ```

use dcert_primitives::codec::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, Hash};
use sha2_free_hasher::*;

use crate::domain;
use crate::ProofError;

/// Internal helpers for hashing trie nodes without allocating.
mod sha2_free_hasher {
    use super::*;

    /// Nibble-path length as a u16 for the hash preimage. Key material in
    /// this workspace is at most a few dozen bytes, so saturation is
    /// unreachable; saturating (rather than truncating) keeps distinct
    /// lengths from ever colliding in the preimage.
    fn path_len_u16(path: &[u8]) -> u16 {
        u16::try_from(path.len()).unwrap_or(u16::MAX)
    }

    pub fn leaf_node_hash(path: &[u8], value_hash: &Hash) -> Hash {
        let mut buf = Vec::with_capacity(3 + path.len() + 32);
        buf.push(domain::MPT_LEAF);
        buf.extend_from_slice(&path_len_u16(path).to_be_bytes());
        buf.extend_from_slice(path);
        buf.extend_from_slice(value_hash.as_bytes());
        hash_bytes(&buf)
    }

    pub fn ext_node_hash(path: &[u8], child: &Hash) -> Hash {
        let mut buf = Vec::with_capacity(3 + path.len() + 32);
        buf.push(domain::MPT_EXT);
        buf.extend_from_slice(&path_len_u16(path).to_be_bytes());
        buf.extend_from_slice(path);
        buf.extend_from_slice(child.as_bytes());
        hash_bytes(&buf)
    }

    pub fn branch_node_hash(children: &[Hash; 16], value_hash: &Option<Hash>) -> Hash {
        let mut buf = Vec::with_capacity(1 + 16 * 32 + 33);
        buf.push(domain::MPT_BRANCH);
        for child in children {
            buf.extend_from_slice(child.as_bytes());
        }
        match value_hash {
            None => buf.push(0),
            Some(vh) => {
                buf.push(1);
                buf.extend_from_slice(vh.as_bytes());
            }
        }
        hash_bytes(&buf)
    }
}

/// Converts key bytes to a nibble path (high nibble first).
pub fn to_nibbles(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() * 2);
    for &b in key {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

fn lcp(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

#[derive(Debug, Clone)]
enum MptNode {
    Leaf {
        path: Vec<u8>,
        value: Vec<u8>,
        hash: Hash,
    },
    Ext {
        path: Vec<u8>,
        child: Box<MptNode>,
        hash: Hash,
    },
    Branch {
        children: [Option<Box<MptNode>>; 16],
        value: Option<Vec<u8>>,
        hash: Hash,
    },
}

impl MptNode {
    fn hash(&self) -> Hash {
        match self {
            MptNode::Leaf { hash, .. }
            | MptNode::Ext { hash, .. }
            | MptNode::Branch { hash, .. } => *hash,
        }
    }

    fn new_leaf(path: Vec<u8>, value: Vec<u8>) -> Box<MptNode> {
        let hash = leaf_node_hash(&path, &hash_bytes(&value));
        Box::new(MptNode::Leaf { path, value, hash })
    }

    fn new_ext(path: Vec<u8>, child: Box<MptNode>) -> Box<MptNode> {
        debug_assert!(!path.is_empty());
        let hash = ext_node_hash(&path, &child.hash());
        Box::new(MptNode::Ext { path, child, hash })
    }

    fn new_branch(children: [Option<Box<MptNode>>; 16], value: Option<Vec<u8>>) -> Box<MptNode> {
        let child_hashes = child_hash_array(&children);
        let vh = value.as_ref().map(hash_bytes);
        let hash = branch_node_hash(&child_hashes, &vh);
        Box::new(MptNode::Branch {
            children,
            value,
            hash,
        })
    }
}

fn child_hash_array(children: &[Option<Box<MptNode>>; 16]) -> [Hash; 16] {
    let mut out = [Hash::ZERO; 16];
    for (slot, child) in out.iter_mut().zip(children) {
        if let Some(c) = child {
            *slot = c.hash();
        }
    }
    out
}

/// A Merkle Patricia trie over byte-string keys.
///
/// Insert-only (the DCert indexes it backs are append-only); see the
/// [module documentation](self) for the full workflow.
#[derive(Debug, Clone, Default)]
pub struct Mpt {
    root: Option<Box<MptNode>>,
    len: usize,
}

impl Mpt {
    /// Creates an empty trie (root = [`Hash::ZERO`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the trie holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current root commitment ([`Hash::ZERO`] when empty).
    pub fn root(&self) -> Hash {
        self.root.as_ref().map_or(Hash::ZERO, |n| n.hash())
    }

    /// Inserts or updates `key`, returning the previous value if present.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        let nibbles = to_nibbles(key);
        let mut previous = None;
        let root = self.root.take();
        self.root = Some(Self::insert_node(root, &nibbles, value, &mut previous));
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    /// Returns the value stored under `key`, if any.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let nibbles = to_nibbles(key);
        let mut node = self.root.as_deref()?;
        let mut rest: &[u8] = &nibbles;
        loop {
            match node {
                MptNode::Leaf { path, value, .. } => {
                    return (path.as_slice() == rest).then_some(value.as_slice());
                }
                MptNode::Ext { path, child, .. } => {
                    rest = rest.strip_prefix(path.as_slice())?;
                    node = child;
                }
                MptNode::Branch {
                    children, value, ..
                } => {
                    let Some((&nib, tail)) = rest.split_first() else {
                        return value.as_deref();
                    };
                    node = children.get(usize::from(nib))?.as_deref()?;
                    rest = tail;
                }
            }
        }
    }

    fn insert_node(
        node: Option<Box<MptNode>>,
        path: &[u8],
        value: Vec<u8>,
        previous: &mut Option<Vec<u8>>,
    ) -> Box<MptNode> {
        let Some(node) = node else {
            return MptNode::new_leaf(path.to_vec(), value);
        };
        match *node {
            MptNode::Leaf {
                path: lpath,
                value: lvalue,
                ..
            } => {
                if lpath.as_slice() == path {
                    *previous = Some(lvalue);
                    return MptNode::new_leaf(lpath, value);
                }
                let common = lcp(&lpath, path);
                let mut children: [Option<Box<MptNode>>; 16] = Default::default();
                let mut branch_value = None;
                let lrest = lpath.get(common..).unwrap_or_default();
                match lrest.split_first() {
                    None => branch_value = Some(lvalue),
                    Some((&nib, tail)) => {
                        let leaf = MptNode::new_leaf(tail.to_vec(), lvalue);
                        if let Some(slot) = children.get_mut(usize::from(nib)) {
                            *slot = Some(leaf);
                        }
                    }
                }
                let prest = path.get(common..).unwrap_or_default();
                match prest.split_first() {
                    None => branch_value = Some(value),
                    Some((&nib, tail)) => {
                        let leaf = MptNode::new_leaf(tail.to_vec(), value);
                        if let Some(slot) = children.get_mut(usize::from(nib)) {
                            *slot = Some(leaf);
                        }
                    }
                }
                let branch = MptNode::new_branch(children, branch_value);
                if common > 0 {
                    MptNode::new_ext(path.get(..common).unwrap_or_default().to_vec(), branch)
                } else {
                    branch
                }
            }
            MptNode::Ext {
                path: epath, child, ..
            } => {
                let common = lcp(&epath, path);
                // `(nib, tail)` of the extension path past the shared
                // prefix; `None` means the whole extension matched.
                let split = epath
                    .get(common..)
                    .and_then(|s| s.split_first())
                    .map(|(nib, tail)| (*nib, tail.to_vec()));
                let Some((enib, etail)) = split else {
                    let rest = path.get(common..).unwrap_or_default();
                    let new_child = Self::insert_node(Some(child), rest, value, previous);
                    return MptNode::new_ext(epath, new_child);
                };
                // Split the extension at `common`.
                let mut children: [Option<Box<MptNode>>; 16] = Default::default();
                let mut branch_value = None;
                let moved = if etail.is_empty() {
                    child
                } else {
                    MptNode::new_ext(etail, child)
                };
                if let Some(slot) = children.get_mut(usize::from(enib)) {
                    *slot = Some(moved);
                }
                let prest = path.get(common..).unwrap_or_default();
                match prest.split_first() {
                    None => branch_value = Some(value),
                    Some((&nib, tail)) => {
                        let leaf = MptNode::new_leaf(tail.to_vec(), value);
                        if let Some(slot) = children.get_mut(usize::from(nib)) {
                            *slot = Some(leaf);
                        }
                    }
                }
                let branch = MptNode::new_branch(children, branch_value);
                if common > 0 {
                    MptNode::new_ext(path.get(..common).unwrap_or_default().to_vec(), branch)
                } else {
                    branch
                }
            }
            MptNode::Branch {
                mut children,
                value: bvalue,
                ..
            } => {
                let Some((&nib, tail)) = path.split_first() else {
                    *previous = bvalue;
                    return MptNode::new_branch(children, Some(value));
                };
                let slot = usize::from(nib);
                let child = children.get_mut(slot).and_then(Option::take);
                let new_child = Self::insert_node(child, tail, value, previous);
                if let Some(entry) = children.get_mut(slot) {
                    *entry = Some(new_child);
                }
                MptNode::new_branch(children, bvalue)
            }
        }
    }

    /// Produces a (non-)membership proof for `key` against the current root.
    pub fn prove(&self, key: &[u8]) -> MptProof {
        let nibbles = to_nibbles(key);
        let mut nodes = Vec::new();
        let mut node = match self.root.as_deref() {
            Some(n) => n,
            None => return MptProof { nodes },
        };
        let mut rest: &[u8] = &nibbles;
        loop {
            match node {
                MptNode::Leaf { path, value, .. } => {
                    nodes.push(ProofNode::Leaf {
                        path: path.clone(),
                        value_hash: hash_bytes(value),
                    });
                    return MptProof { nodes };
                }
                MptNode::Ext { path, child, .. } => {
                    nodes.push(ProofNode::Ext {
                        path: path.clone(),
                        child: child.hash(),
                    });
                    match rest.strip_prefix(path.as_slice()) {
                        Some(tail) => {
                            rest = tail;
                            node = child;
                        }
                        None => return MptProof { nodes },
                    }
                }
                MptNode::Branch {
                    children, value, ..
                } => {
                    nodes.push(ProofNode::Branch {
                        children: child_hash_array(children),
                        value_hash: value.as_ref().map(hash_bytes),
                    });
                    let Some((&nib, tail)) = rest.split_first() else {
                        return MptProof { nodes };
                    };
                    match children.get(usize::from(nib)).and_then(|c| c.as_deref()) {
                        Some(next) => {
                            node = next;
                            rest = tail;
                        }
                        None => return MptProof { nodes },
                    }
                }
            }
        }
    }
}

/// One node disclosed along a proof path.
// Branch nodes carry 16 hashes; leaf/ext are small. Proof vectors are
// short (trie depth), so the size skew is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProofNode {
    Leaf {
        path: Vec<u8>,
        value_hash: Hash,
    },
    Ext {
        path: Vec<u8>,
        child: Hash,
    },
    Branch {
        children: [Hash; 16],
        value_hash: Option<Hash>,
    },
}

impl ProofNode {
    fn hash(&self) -> Hash {
        match self {
            ProofNode::Leaf { path, value_hash } => leaf_node_hash(path, value_hash),
            ProofNode::Ext { path, child } => ext_node_hash(path, child),
            ProofNode::Branch {
                children,
                value_hash,
            } => branch_node_hash(children, value_hash),
        }
    }
}

/// The resolution of walking a proof path for a key.
#[derive(Debug)]
enum Resolution {
    /// Key present with this value hash. For `ValueAtLeaf`, the terminal
    /// node index; for the rest the walk data needed by updates.
    Found { value_hash: Hash },
    /// Key proven absent; `at` describes the divergence for updates.
    Absent,
}

/// A membership / non-membership proof for one key of an [`Mpt`].
///
/// Also supports computing the post-upsert root without the trie
/// ([`MptProof::updated_root`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MptProof {
    nodes: Vec<ProofNode>,
}

impl MptProof {
    /// Size of the serialized proof in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Verifies the proof for `key` against `root`.
    ///
    /// Returns the authenticated value hash, or `None` if the key is proven
    /// absent.
    ///
    /// # Errors
    ///
    /// Returns [`ProofError::RootMismatch`] or [`ProofError::Malformed`] if
    /// the proof does not authenticate against `root` for this key.
    pub fn verify(&self, root: &Hash, key: &[u8]) -> Result<Option<Hash>, ProofError> {
        let nibbles = to_nibbles(key);
        match self.walk(root, &nibbles)?.0 {
            Resolution::Found { value_hash } => Ok(Some(value_hash)),
            Resolution::Absent => Ok(None),
        }
    }

    /// Computes the root after upserting `key` with `new_value_hash`.
    ///
    /// The proof must verify against `root` for `key` (this is re-checked).
    /// Mirrors [`Mpt::insert`] exactly, so the returned root equals what the
    /// real trie would produce.
    ///
    /// # Errors
    ///
    /// Propagates verification errors.
    pub fn updated_root(
        &self,
        root: &Hash,
        key: &[u8],
        new_value_hash: &Hash,
    ) -> Result<Hash, ProofError> {
        let nibbles = to_nibbles(key);
        let (_, trail) = self.walk(root, &nibbles)?;

        // `consumed[i]` = nibbles consumed before reaching node i.
        // Rebuild from the terminal node upward.
        let Some((last_node, upper)) = self.nodes.split_last() else {
            // Empty trie: new root is a single leaf.
            return Ok(leaf_node_hash(&nibbles, new_value_hash));
        };

        let consumed_last = trail.consumed.last().copied().unwrap_or(0);
        let rest = nibbles.get(consumed_last..).unwrap_or_default();
        let mut acc = match last_node {
            ProofNode::Leaf { path, value_hash } => {
                if path.as_slice() == rest {
                    // Update in place.
                    leaf_node_hash(path, new_value_hash)
                } else {
                    // Split the leaf.
                    let common = lcp(path, rest);
                    let mut children = [Hash::ZERO; 16];
                    let mut bvalue = None;
                    let lrest = path.get(common..).unwrap_or_default();
                    match lrest.split_first() {
                        None => bvalue = Some(*value_hash),
                        Some((&nib, tail)) => {
                            if let Some(slot) = children.get_mut(usize::from(nib)) {
                                *slot = leaf_node_hash(tail, value_hash);
                            }
                        }
                    }
                    let prest = rest.get(common..).unwrap_or_default();
                    match prest.split_first() {
                        None => bvalue = Some(*new_value_hash),
                        Some((&nib, tail)) => {
                            if let Some(slot) = children.get_mut(usize::from(nib)) {
                                *slot = leaf_node_hash(tail, new_value_hash);
                            }
                        }
                    }
                    let branch = branch_node_hash(&children, &bvalue);
                    if common > 0 {
                        ext_node_hash(rest.get(..common).unwrap_or_default(), &branch)
                    } else {
                        branch
                    }
                }
            }
            ProofNode::Ext { path, child } => {
                // The walk stopped here, so the ext path diverges from rest.
                let common = lcp(path, rest);
                let Some((&enib, etail)) = path.get(common..).and_then(|s| s.split_first()) else {
                    return Err(ProofError::Malformed("extension does not diverge"));
                };
                let mut children = [Hash::ZERO; 16];
                let mut bvalue = None;
                if let Some(slot) = children.get_mut(usize::from(enib)) {
                    *slot = if etail.is_empty() {
                        *child
                    } else {
                        ext_node_hash(etail, child)
                    };
                }
                let prest = rest.get(common..).unwrap_or_default();
                match prest.split_first() {
                    None => bvalue = Some(*new_value_hash),
                    Some((&nib, tail)) => {
                        if let Some(slot) = children.get_mut(usize::from(nib)) {
                            *slot = leaf_node_hash(tail, new_value_hash);
                        }
                    }
                }
                let branch = branch_node_hash(&children, &bvalue);
                if common > 0 {
                    ext_node_hash(rest.get(..common).unwrap_or_default(), &branch)
                } else {
                    branch
                }
            }
            ProofNode::Branch {
                children,
                value_hash,
            } => {
                match rest.split_first() {
                    // Upsert the branch's own value.
                    None => branch_node_hash(children, &Some(*new_value_hash)),
                    // The walk stopped because the slot was empty.
                    Some((&nib, tail)) => {
                        let mut children = *children;
                        if let Some(slot) = children.get_mut(usize::from(nib)) {
                            debug_assert!(slot.is_zero());
                            *slot = leaf_node_hash(tail, new_value_hash);
                        }
                        branch_node_hash(&children, value_hash)
                    }
                }
            }
        };

        // Propagate upward.
        for (node, &consumed) in upper.iter().zip(&trail.consumed).rev() {
            acc = match node {
                ProofNode::Ext { path, .. } => ext_node_hash(path, &acc),
                ProofNode::Branch {
                    children,
                    value_hash,
                } => {
                    let Some(&nib) = nibbles.get(consumed) else {
                        return Err(ProofError::Malformed("branch consumed past key end"));
                    };
                    let mut children = *children;
                    if let Some(slot) = children.get_mut(usize::from(nib)) {
                        *slot = acc;
                    }
                    branch_node_hash(&children, value_hash)
                }
                ProofNode::Leaf { .. } => {
                    return Err(ProofError::Malformed("leaf with a child"));
                }
            };
        }
        Ok(acc)
    }

    /// Walks the proof for `key`, authenticating each node hash against the
    /// chain from `root`, and returns the resolution plus consumed-nibble
    /// counts per node.
    fn walk(&self, root: &Hash, nibbles: &[u8]) -> Result<(Resolution, Trail), ProofError> {
        let mut trail = Trail {
            consumed: Vec::with_capacity(self.nodes.len()),
        };
        if self.nodes.is_empty() {
            return if root.is_zero() {
                Ok((Resolution::Absent, trail))
            } else {
                Err(ProofError::Malformed("empty proof for non-empty trie"))
            };
        }
        let mut expected = *root;
        let mut consumed = 0usize;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.hash() != expected {
                return Err(ProofError::RootMismatch);
            }
            trail.consumed.push(consumed);
            let rest = nibbles.get(consumed..).unwrap_or_default();
            let is_last = i == self.nodes.len() - 1;
            match node {
                ProofNode::Leaf { path, value_hash } => {
                    if !is_last {
                        return Err(ProofError::Malformed("leaf before end of proof"));
                    }
                    return if path.as_slice() == rest {
                        Ok((
                            Resolution::Found {
                                value_hash: *value_hash,
                            },
                            trail,
                        ))
                    } else {
                        Ok((Resolution::Absent, trail))
                    };
                }
                ProofNode::Ext { path, child } => {
                    if rest.strip_prefix(path.as_slice()).is_some() {
                        if is_last {
                            return Err(ProofError::Malformed("proof ends inside extension"));
                        }
                        consumed += path.len();
                        expected = *child;
                    } else {
                        // Divergence inside the extension path: absent.
                        return if is_last {
                            Ok((Resolution::Absent, trail))
                        } else {
                            Err(ProofError::Malformed("nodes after divergence"))
                        };
                    }
                }
                ProofNode::Branch {
                    children,
                    value_hash,
                } => {
                    let Some((&nib, _)) = rest.split_first() else {
                        if !is_last {
                            return Err(ProofError::Malformed("nodes after terminal branch"));
                        }
                        return Ok((
                            match value_hash {
                                Some(vh) => Resolution::Found { value_hash: *vh },
                                None => Resolution::Absent,
                            },
                            trail,
                        ));
                    };
                    let slot = children
                        .get(usize::from(nib))
                        .copied()
                        .unwrap_or(Hash::ZERO);
                    if slot.is_zero() {
                        return if is_last {
                            Ok((Resolution::Absent, trail))
                        } else {
                            Err(ProofError::Malformed("nodes after empty slot"))
                        };
                    }
                    if is_last {
                        return Err(ProofError::Malformed("proof ends inside branch"));
                    }
                    consumed += 1;
                    expected = slot;
                }
            }
        }
        // Every `is_last` arm above returns, so the loop cannot fall
        // through with a well-formed proof; treat it as malformed.
        Err(ProofError::Malformed("proof has no terminal node"))
    }
}

struct Trail {
    consumed: Vec<usize>,
}

// --- serialization -------------------------------------------------------

const TAG_LEAF: u8 = 0;
const TAG_EXT: u8 = 1;
const TAG_BRANCH: u8 = 2;

impl Encode for ProofNode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ProofNode::Leaf { path, value_hash } => {
                out.push(TAG_LEAF);
                path.encode(out);
                value_hash.encode(out);
            }
            ProofNode::Ext { path, child } => {
                out.push(TAG_EXT);
                path.encode(out);
                child.encode(out);
            }
            ProofNode::Branch {
                children,
                value_hash,
            } => {
                out.push(TAG_BRANCH);
                for child in children {
                    child.encode(out);
                }
                value_hash.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            ProofNode::Leaf { path, .. } | ProofNode::Ext { path, .. } => {
                path.encoded_len() + Hash::LEN
            }
            ProofNode::Branch {
                children,
                value_hash,
            } => children.len() * Hash::LEN + value_hash.encoded_len(),
        }
    }
}

impl Decode for ProofNode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            TAG_LEAF => Ok(ProofNode::Leaf {
                path: Vec::<u8>::decode(r)?,
                value_hash: Hash::decode(r)?,
            }),
            TAG_EXT => Ok(ProofNode::Ext {
                path: Vec::<u8>::decode(r)?,
                child: Hash::decode(r)?,
            }),
            TAG_BRANCH => {
                let mut children = [Hash::ZERO; 16];
                for child in &mut children {
                    *child = Hash::decode(r)?;
                }
                Ok(ProofNode::Branch {
                    children,
                    value_hash: Option::<Hash>::decode(r)?,
                })
            }
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

impl Encode for MptProof {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.nodes, out);
    }

    fn encoded_len(&self) -> usize {
        seq_encoded_len(&self.nodes)
    }
}

impl Decode for MptProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(MptProof {
            nodes: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_testkit::{check, Gen};
    use std::collections::BTreeMap;

    #[test]
    fn empty_trie() {
        let trie = Mpt::new();
        assert_eq!(trie.root(), Hash::ZERO);
        assert_eq!(trie.get(b"missing"), None);
        let proof = trie.prove(b"missing");
        assert_eq!(proof.verify(&Hash::ZERO, b"missing").unwrap(), None);
    }

    #[test]
    fn insert_get_update() {
        let mut trie = Mpt::new();
        assert_eq!(trie.insert(b"alice", b"1".to_vec()), None);
        assert_eq!(trie.insert(b"bob", b"2".to_vec()), None);
        assert_eq!(trie.insert(b"alice", b"3".to_vec()), Some(b"1".to_vec()));
        assert_eq!(trie.get(b"alice"), Some(b"3".as_slice()));
        assert_eq!(trie.get(b"bob"), Some(b"2".as_slice()));
        assert_eq!(trie.get(b"carol"), None);
        assert_eq!(trie.len(), 2);
    }

    #[test]
    fn prefix_keys_coexist() {
        let mut trie = Mpt::new();
        trie.insert(b"ab", b"short".to_vec());
        trie.insert(b"abcd", b"long".to_vec());
        trie.insert(b"", b"empty".to_vec());
        assert_eq!(trie.get(b"ab"), Some(b"short".as_slice()));
        assert_eq!(trie.get(b"abcd"), Some(b"long".as_slice()));
        assert_eq!(trie.get(b""), Some(b"empty".as_slice()));
        assert_eq!(trie.get(b"abc"), None);
    }

    #[test]
    fn insertion_order_independent_root() {
        let keys: Vec<&[u8]> = vec![b"aaa", b"aab", b"abc", b"zzz", b"a", b""];
        let mut a = Mpt::new();
        for k in &keys {
            a.insert(k, k.to_vec());
        }
        let mut b = Mpt::new();
        for k in keys.iter().rev() {
            b.insert(k, k.to_vec());
        }
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn membership_proofs_verify() {
        let mut trie = Mpt::new();
        for i in 0..50u32 {
            trie.insert(
                format!("key-{i}").as_bytes(),
                format!("val-{i}").into_bytes(),
            );
        }
        let root = trie.root();
        for i in 0..50u32 {
            let key = format!("key-{i}");
            let proof = trie.prove(key.as_bytes());
            assert_eq!(
                proof.verify(&root, key.as_bytes()).unwrap(),
                Some(hash_bytes(format!("val-{i}").as_bytes())),
                "key {i}"
            );
        }
    }

    #[test]
    fn absence_proofs_verify() {
        let mut trie = Mpt::new();
        for i in 0..20u32 {
            trie.insert(format!("key-{i}").as_bytes(), vec![1]);
        }
        let root = trie.root();
        for probe in ["key-99", "other", "", "key-1x"] {
            let proof = trie.prove(probe.as_bytes());
            assert_eq!(
                proof.verify(&root, probe.as_bytes()).unwrap(),
                None,
                "{probe}"
            );
        }
    }

    #[test]
    fn proof_rejects_wrong_root() {
        let mut trie = Mpt::new();
        trie.insert(b"a", b"1".to_vec());
        let proof = trie.prove(b"a");
        assert!(proof.verify(&Hash::ZERO, b"a").is_err());
    }

    #[test]
    fn proof_for_one_key_fails_for_another() {
        let mut trie = Mpt::new();
        trie.insert(b"alice", b"1".to_vec());
        trie.insert(b"bob", b"2".to_vec());
        let root = trie.root();
        let proof = trie.prove(b"alice");
        // Verifying a different key with this proof either errors or proves
        // nothing about bob's value.
        if let Ok(Some(vh)) = proof.verify(&root, b"bob") {
            assert_ne!(vh, hash_bytes(b"2"))
        }
    }

    #[test]
    fn stateless_update_existing_key() {
        let mut trie = Mpt::new();
        for i in 0..30u32 {
            trie.insert(format!("key-{i}").as_bytes(), vec![i as u8]);
        }
        let root = trie.root();
        let proof = trie.prove(b"key-7");
        let predicted = proof
            .updated_root(&root, b"key-7", &hash_bytes(b"new"))
            .unwrap();
        trie.insert(b"key-7", b"new".to_vec());
        assert_eq!(predicted, trie.root());
    }

    #[test]
    fn stateless_insert_fresh_key() {
        let mut trie = Mpt::new();
        for i in 0..30u32 {
            trie.insert(format!("key-{i}").as_bytes(), vec![i as u8]);
        }
        let root = trie.root();
        let proof = trie.prove(b"brand-new-key");
        let predicted = proof
            .updated_root(&root, b"brand-new-key", &hash_bytes(b"v"))
            .unwrap();
        trie.insert(b"brand-new-key", b"v".to_vec());
        assert_eq!(predicted, trie.root());
    }

    #[test]
    fn stateless_insert_into_empty_trie() {
        let trie = Mpt::new();
        let proof = trie.prove(b"first");
        let predicted = proof
            .updated_root(&Hash::ZERO, b"first", &hash_bytes(b"v"))
            .unwrap();
        let mut real = Mpt::new();
        real.insert(b"first", b"v".to_vec());
        assert_eq!(predicted, real.root());
    }

    #[test]
    fn proof_codec_round_trip() {
        let mut trie = Mpt::new();
        for i in 0..10u32 {
            trie.insert(format!("key-{i}").as_bytes(), vec![i as u8]);
        }
        let proof = trie.prove(b"key-3");
        let decoded = MptProof::decode_all(&proof.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, proof);
    }

    fn arb_key(g: &mut Gen) -> Vec<u8> {
        g.vec(0..5, |g| g.range(0u8..8))
    }

    /// The trie agrees with a BTreeMap model and roots are
    /// insertion-order independent.
    #[test]
    fn prop_model_agreement() {
        check("prop_model_agreement", 64, |g| {
            let entries = g.vec(0..40, |g| (arb_key(g), g.any::<u8>()));
            let mut trie = Mpt::new();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for (k, v) in &entries {
                trie.insert(k, vec![*v]);
                model.insert(k.clone(), vec![*v]);
            }
            assert_eq!(trie.len(), model.len());
            for (k, v) in &model {
                assert_eq!(trie.get(k), Some(v.as_slice()));
            }
            // Rebuild in sorted order: same root.
            let mut sorted = Mpt::new();
            for (k, v) in &model {
                sorted.insert(k, v.clone());
            }
            assert_eq!(trie.root(), sorted.root());
        });
    }

    /// Every key (present or absent) yields a verifying proof, and
    /// stateless upserts agree with real inserts.
    #[test]
    fn prop_proofs_and_stateless_updates() {
        check("prop_proofs_and_stateless_updates", 64, |g| {
            let entries = g.vec(0..30, |g| (arb_key(g), g.any::<u8>()));
            let (probe, new_val) = (arb_key(g), g.any::<u8>());
            let mut trie = Mpt::new();
            for (k, v) in &entries {
                trie.insert(k, vec![*v]);
            }
            let root = trie.root();
            let proof = trie.prove(&probe);
            let res = proof.verify(&root, &probe).unwrap();
            assert_eq!(res, trie.get(&probe).map(hash_bytes));

            let predicted = proof
                .updated_root(&root, &probe, &hash_bytes([new_val]))
                .unwrap();
            trie.insert(&probe, vec![new_val]);
            assert_eq!(predicted, trie.root());
        });
    }
}
