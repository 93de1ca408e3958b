//! One annotated Merkle B+-tree, two flavors.
//!
//! The lower level of DCert's two-level query indexes (Fig. 5 of the
//! paper; after Li et al. SIGMOD'06): for each account, an authenticated
//! B+-tree keyed by *timestamp* (block height). It answers **window
//! queries** `[t1, t2]` with proofs that guarantee both correctness and
//! *completeness* (nothing in the window can be omitted), and supports
//! **stateless rightmost appends** so the SGX enclave can certify index
//! updates — new versions always carry the highest timestamp — from a
//! proof alone.
//!
//! Everything that differs between the two trees the system needs is
//! fixed by one sealed [`Flavor`]:
//!
//! | | [`Plain`] ([`MbTree`]) | [`Summed`] ([`AggMbTree`]) |
//! |---|---|---|
//! | stored value | version bytes | `u64` |
//! | per-entry digest (leaf preimage and wire) | SHA-256 of the bytes | the `u64` itself |
//! | subtree annotation | `()` — no preimage, no wire bytes | [`Aggregate`] count/sum/min/max |
//! | window answer | every row in the window | their aggregate |
//!
//! Because a [`Summed`] node hash binds its children's annotations, a
//! subtree lying entirely inside the window contributes its certified
//! annotation without being opened: the proof is O(log n) however wide
//! the window — §5.1's "complex queries such as aggregations". A
//! [`Plain`] tree has nothing to answer from, so it opens every
//! intersecting subtree. Both run the same insert, the same split rule,
//! the same prover walk, the same verifier walk and the same append
//! replay.
//!
//! A window proof is a program ([`crate::ops`]): the prover walk pushes
//! one [`ProofOp`] per node it reveals, the verifier executes the program
//! into the pruned tree it describes and walks that tree once
//! ([`OpProof::verify`]).
//!
//! # Example
//!
//! ```
//! use dcert_merkle::{AggMbTree, MbTree};
//!
//! let mut versions = MbTree::new(4);
//! let mut balances = AggMbTree::new(4);
//! for ts in 0..100u64 {
//!     versions.insert(ts, format!("v{ts}").into_bytes());
//!     balances.insert(ts, ts);
//! }
//! let (rows, proof) = versions.window(5, 8);
//! assert_eq!(rows.len(), 4);
//! proof.verify(&versions.root(), 5, 8, &rows)?;
//!
//! let (agg, proof) = balances.window(10, 19);
//! assert_eq!((agg.count, agg.min, agg.max), (10, 10, 19));
//! assert_eq!(agg.sum, (10..=19).sum::<u64>() as u128);
//! proof.verify(&balances.root(), 10, 19, &agg)?;
//! # Ok::<(), dcert_merkle::ProofError>(())
//! ```

use std::fmt::Debug;

use dcert_primitives::codec::{decode_seq, encode_seq, seq_encoded_len, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, Hash};

use crate::domain;
use crate::ops::{Executed, OpProof, ProofOp};
use crate::ProofError;

// --- annotations -------------------------------------------------------------

/// What a node records about the entries below it: a commutative monoid
/// whose canonical encoding is bound into the parent's hash preimage and
/// travels beside every pruned hash on the wire. `()` is the trivial
/// annotation: zero preimage bytes, zero wire bytes.
pub trait Annotation: Copy + Eq + Debug + Encode + Decode {
    /// The annotation of no entries.
    const EMPTY: Self;
    /// Merges another subtree's annotation into this one.
    fn merge(&mut self, other: &Self);
}

impl Annotation for () {
    const EMPTY: Self = ();
    fn merge(&mut self, _other: &Self) {}
}

/// A verifiable window aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aggregate {
    /// Number of entries.
    pub count: u64,
    /// Sum of values (u128: no overflow for u64 values × u64 count).
    pub sum: u128,
    /// Minimum value ([`u64::MAX`] when empty).
    pub min: u64,
    /// Maximum value (0 when empty).
    pub max: u64,
}

impl Aggregate {
    /// The aggregate of nothing.
    pub const EMPTY: Aggregate = Aggregate {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    /// The aggregate of a single value.
    pub fn of(value: u64) -> Self {
        Aggregate {
            count: 1,
            sum: value as u128,
            min: value,
            max: value,
        }
    }

    /// Merges another aggregate into this one.
    ///
    /// Saturating: `count`/`sum` pin at their type maxima instead of
    /// wrapping. Honest trees never get near the limits (u128 sum cannot
    /// overflow for u64 values × u64 count), but the verifier merges
    /// *claimed* annotations from decoded proofs before the root
    /// comparison, so attacker-chosen near-MAX values must not be able to
    /// panic a debug build. A saturated merge then fails the root or
    /// aggregate equality check like any other forgery.
    pub fn merge(&mut self, other: &Aggregate) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The arithmetic mean, if any entries exist.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl Default for Aggregate {
    fn default() -> Self {
        Aggregate::EMPTY
    }
}

impl Annotation for Aggregate {
    const EMPTY: Self = Aggregate::EMPTY;
    fn merge(&mut self, other: &Self) {
        Aggregate::merge(self, other);
    }
}

impl Encode for Aggregate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.count.encode(out);
        self.sum.encode(out);
        self.min.encode(out);
        self.max.encode(out);
    }

    fn encoded_len(&self) -> usize {
        8 + 16 + 8 + 8
    }
}

impl Decode for Aggregate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Aggregate {
            count: u64::decode(r)?,
            sum: u128::decode(r)?,
            min: u64::decode(r)?,
            max: u64::decode(r)?,
        })
    }
}

// --- flavors -----------------------------------------------------------------

mod sealed {
    pub trait Sealed {}
}

/// Everything that distinguishes one tree of this module from another.
/// Sealed: the two flavors below are the ones whose digests certificates
/// bind.
pub trait Flavor: sealed::Sealed + Debug + Clone + PartialEq + Eq + 'static {
    /// What the tree stores per timestamp.
    type Value: Clone + Debug;
    /// What stands for a value in the leaf hash preimage and on the wire
    /// (in both places as its canonical encoding).
    type Digest: Copy + Eq + Debug + Encode + Decode;
    /// The subtree annotation.
    type Ann: Annotation;
    /// What the prover answers a window query with.
    type Answer: Default + Fold<Self, Self::Value>;
    /// What the verifier derives from a window proof.
    type Proven: Default + Fold<Self, Self::Digest>;
    /// What a client claims the answer is.
    type Claim: ?Sized;

    /// Leaf-node domain tag.
    const LEAF_DOMAIN: u8;
    /// Internal-node domain tag.
    const NODE_DOMAIN: u8;
    /// Wire tag of this flavor's pruned [`Shape`]; its leaf and internal
    /// tags follow. The two flavors' tags are disjoint, so a program of
    /// one flavor does not decode as the other's.
    const OP_TAG: u8;

    /// The digest of a stored value.
    fn digest(value: &Self::Value) -> Self::Digest;
    /// The annotation of a single entry.
    fn annotate(digest: &Self::Digest) -> Self::Ann;
    /// Whether what the proof establishes is exactly what was claimed.
    ///
    /// # Errors
    ///
    /// [`ProofError::Incomplete`] when it is not.
    fn check_claim(proven: &Self::Proven, claimed: &Self::Claim) -> Result<(), ProofError>;
}

/// Accumulates a window answer while a walk visits the tree; `P` is the
/// per-entry payload the walk sees (stored values for the prover, digests
/// for the verifier).
pub trait Fold<F: Flavor, P> {
    /// An in-window leaf entry.
    fn entry(&mut self, ts: u64, payload: &P);
    /// A subtree lying entirely inside the window, known only by its
    /// annotation. Returns `false` — absorbing nothing — when the answer
    /// cannot be derived from annotations, so the subtree must be opened.
    fn subtree(&mut self, ann: &F::Ann) -> bool;
}

/// One node of a window proof detached from its children — the unit a
/// [`ProofOp`] pushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape<F: Flavor> {
    /// An unopened subtree.
    Pruned(Summary<F::Ann>),
    /// An opened leaf.
    Leaf(Vec<(u64, F::Digest)>),
    /// An internal node's separators.
    Internal(Vec<u64>),
}

/// Unannotated tree over opaque version bytes: each entry is bound by the
/// SHA-256 of its bytes, and a window is answered with every row in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plain {}

/// [`Aggregate`]-annotated tree over `u64` values: a window is answered
/// with the aggregate of the values in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summed {}

impl sealed::Sealed for Plain {}
impl sealed::Sealed for Summed {}

impl Flavor for Plain {
    type Value = Vec<u8>;
    type Digest = Hash;
    type Ann = ();
    type Answer = Vec<(u64, Vec<u8>)>;
    type Proven = Vec<(u64, Hash)>;
    type Claim = [(u64, Vec<u8>)];

    const LEAF_DOMAIN: u8 = domain::MBT_LEAF;
    const NODE_DOMAIN: u8 = domain::MBT_NODE;
    const OP_TAG: u8 = 0;

    fn digest(value: &Vec<u8>) -> Hash {
        hash_bytes(value)
    }

    fn annotate(_digest: &Hash) {}

    fn check_claim(proven: &Self::Proven, claimed: &Self::Claim) -> Result<(), ProofError> {
        if proven.len() != claimed.len() {
            return Err(ProofError::Incomplete("result count mismatch"));
        }
        for ((ts, digest), (claimed_ts, value)) in proven.iter().zip(claimed) {
            if ts != claimed_ts || *digest != hash_bytes(value) {
                return Err(ProofError::Incomplete("result entry mismatch"));
            }
        }
        Ok(())
    }
}

impl<P: Clone> Fold<Plain, P> for Vec<(u64, P)> {
    fn entry(&mut self, ts: u64, payload: &P) {
        self.push((ts, payload.clone()));
    }
    fn subtree(&mut self, _ann: &()) -> bool {
        false
    }
}

impl Flavor for Summed {
    type Value = u64;
    type Digest = u64;
    type Ann = Aggregate;
    type Answer = Aggregate;
    type Proven = Aggregate;
    type Claim = Aggregate;

    const LEAF_DOMAIN: u8 = domain::AGG_LEAF;
    const NODE_DOMAIN: u8 = domain::AGG_NODE;
    const OP_TAG: u8 = 3;

    fn digest(value: &u64) -> u64 {
        *value
    }

    fn annotate(digest: &u64) -> Aggregate {
        Aggregate::of(*digest)
    }

    fn check_claim(proven: &Aggregate, claimed: &Aggregate) -> Result<(), ProofError> {
        if proven != claimed {
            return Err(ProofError::Incomplete("aggregate mismatch"));
        }
        Ok(())
    }
}

impl Fold<Summed, u64> for Aggregate {
    fn entry(&mut self, _ts: u64, payload: &u64) {
        self.merge(&Aggregate::of(*payload));
    }
    fn subtree(&mut self, ann: &Aggregate) -> bool {
        self.merge(ann);
        true
    }
}

// --- node hashing ------------------------------------------------------------

/// What a parent binds of a child: its hash and its annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary<A> {
    /// The subtree's node hash.
    pub hash: Hash,
    /// The subtree's annotation.
    pub ann: A,
}

/// Node arity as a u32 for the hash preimage. Arities are bounded by the
/// tree order (decoded proofs are bounded by the codec's 64 MiB cap), so
/// saturation is unreachable; saturating keeps distinct lengths from
/// colliding in the preimage.
fn len_u32(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// `H(leaf tag ‖ len ‖ (ts ‖ digest)*)` and the merged entry annotations.
fn leaf_summary<F: Flavor>(
    entries: impl ExactSizeIterator<Item = (u64, F::Digest)>,
) -> Summary<F::Ann> {
    // `size_of` equals the encoded width for both digest types.
    let entry_len = 8 + std::mem::size_of::<F::Digest>();
    let mut buf = Vec::with_capacity(1 + 4 + entries.len() * entry_len);
    buf.push(F::LEAF_DOMAIN);
    len_u32(entries.len()).encode(&mut buf);
    let mut ann = F::Ann::EMPTY;
    for (ts, digest) in entries {
        ts.encode(&mut buf);
        digest.encode(&mut buf);
        ann.merge(&F::annotate(&digest));
    }
    Summary {
        hash: hash_bytes(&buf),
        ann,
    }
}

/// `H(node tag ‖ len ‖ separator* ‖ (child hash ‖ child annotation)*)` and
/// the merged child annotations.
fn node_summary<F: Flavor>(separators: &[u64], children: &[Summary<F::Ann>]) -> Summary<F::Ann> {
    // `size_of` is an upper bound on an annotation's encoded width.
    let child_len = Hash::LEN + std::mem::size_of::<F::Ann>();
    let mut buf = Vec::with_capacity(1 + 4 + separators.len() * 8 + children.len() * child_len);
    buf.push(F::NODE_DOMAIN);
    len_u32(separators.len()).encode(&mut buf);
    for sep in separators {
        sep.encode(&mut buf);
    }
    let mut ann = F::Ann::EMPTY;
    for child in children {
        child.encode(&mut buf);
        ann.merge(&child.ann);
    }
    Summary {
        hash: hash_bytes(&buf),
        ann,
    }
}

/// The leaf half of the split rule: an over-full leaf keeps its lower
/// half and hands back `(separator, upper half)`. Shared by real inserts
/// and the stateless append replay, so the two cannot drift apart.
#[allow(clippy::type_complexity)]
fn split_entries<T>(entries: &mut Vec<(u64, T)>, order: usize) -> Option<(u64, Vec<(u64, T)>)> {
    if entries.len() <= order {
        return None;
    }
    let right = entries.split_off(entries.len() / 2);
    let sep = right.first().map_or(0, |(ts, _)| *ts);
    Some((sep, right))
}

/// The internal half of the split rule: an over-full node keeps its lower
/// half and hands back `(promoted separator, upper separators, upper
/// children)`. Requires `children.len() == separators.len() + 1`.
#[allow(clippy::type_complexity)]
fn split_children<T>(
    separators: &mut Vec<u64>,
    children: &mut Vec<T>,
    order: usize,
) -> Option<(u64, Vec<u64>, Vec<T>)> {
    if children.len() <= order {
        return None;
    }
    let mid = children.len() / 2;
    let right_children = children.split_off(mid);
    let right_separators = separators.split_off(mid);
    let promoted = separators.pop()?;
    Some((promoted, right_separators, right_children))
}

// --- the tree ----------------------------------------------------------------

#[derive(Debug, Clone)]
enum Node<F: Flavor> {
    Leaf {
        entries: Vec<(u64, F::Value)>,
        summary: Summary<F::Ann>,
    },
    Internal {
        /// `children[i]` holds keys `< separators[i]`;
        /// `children[i+1]` holds keys `>= separators[i]`.
        separators: Vec<u64>,
        children: Vec<Node<F>>,
        summary: Summary<F::Ann>,
    },
}

fn digests<F: Flavor>(
    entries: &[(u64, F::Value)],
) -> impl ExactSizeIterator<Item = (u64, F::Digest)> + '_ {
    entries.iter().map(|(ts, value)| (*ts, F::digest(value)))
}

impl<F: Flavor> Node<F> {
    fn summary(&self) -> Summary<F::Ann> {
        match self {
            Node::Leaf { summary, .. } | Node::Internal { summary, .. } => *summary,
        }
    }

    fn leaf(entries: Vec<(u64, F::Value)>) -> Self {
        let summary = leaf_summary::<F>(digests::<F>(&entries));
        Node::Leaf { entries, summary }
    }

    fn internal(separators: Vec<u64>, children: Vec<Node<F>>) -> Self {
        debug_assert_eq!(children.len(), separators.len() + 1);
        let summaries: Vec<_> = children.iter().map(Node::summary).collect();
        let summary = node_summary::<F>(&separators, &summaries);
        Node::Internal {
            separators,
            children,
            summary,
        }
    }
}

/// An authenticated B+-tree keyed by `u64` timestamps.
///
/// See the [module documentation](self) for context and an example.
#[derive(Debug, Clone)]
pub struct BTree<F: Flavor> {
    root: Option<Node<F>>,
    /// Maximum fanout (children per internal node and entries per leaf).
    order: usize,
    len: usize,
}

/// The version tree of the historical index: [`BTree`] over opaque bytes.
pub type MbTree = BTree<Plain>;
/// The balance tree of the aggregate index: [`BTree`] over `u64` values
/// with count/sum/min/max annotations.
pub type AggMbTree = BTree<Summed>;

impl<F: Flavor> BTree<F> {
    /// Default fanout used by the DCert indexes.
    pub const DEFAULT_ORDER: usize = 16;

    /// Creates an empty tree with the given fanout.
    ///
    /// # Panics
    ///
    /// Panics if `order < 3`.
    pub fn new(order: usize) -> Self {
        assert!(order >= 3, "B-tree order must be at least 3");
        BTree {
            root: None,
            order,
            len: 0,
        }
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root commitment ([`Hash::ZERO`] when empty).
    pub fn root(&self) -> Hash {
        self.root.as_ref().map_or(Hash::ZERO, |n| n.summary().hash)
    }

    /// The annotation over the whole tree.
    pub fn total(&self) -> F::Ann {
        self.root
            .as_ref()
            .map_or(F::Ann::EMPTY, |n| n.summary().ann)
    }

    /// The largest timestamp stored, if any.
    pub fn max_key(&self) -> Option<u64> {
        let mut node = self.root.as_ref()?;
        loop {
            match node {
                Node::Leaf { entries, .. } => return entries.last().map(|(ts, _)| *ts),
                Node::Internal { children, .. } => node = children.last()?,
            }
        }
    }

    /// The root a fresh tree would have after inserting a single entry —
    /// used by stateless verifiers when a brand-new per-account tree is
    /// created.
    pub fn singleton_root(ts: u64, digest: &F::Digest) -> Hash {
        leaf_summary::<F>(std::iter::once((ts, *digest))).hash
    }

    /// Inserts `(ts, value)`, replacing any existing entry at `ts`.
    pub fn insert(&mut self, ts: u64, value: F::Value) -> Option<F::Value> {
        let mut previous = None;
        self.root = Some(match self.root.take() {
            None => Node::leaf(vec![(ts, value)]),
            Some(root) => match self.insert_rec(root, ts, value, &mut previous) {
                (node, None) => node,
                (node, Some((sep, right))) => Node::internal(vec![sep], vec![node, right]),
            },
        });
        if previous.is_none() {
            self.len += 1;
        }
        previous
    }

    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &self,
        node: Node<F>,
        ts: u64,
        value: F::Value,
        previous: &mut Option<F::Value>,
    ) -> (Node<F>, Option<(u64, Node<F>)>) {
        match node {
            Node::Leaf { mut entries, .. } => {
                match entries.binary_search_by_key(&ts, |(t, _)| *t) {
                    Ok(pos) => {
                        if let Some(entry) = entries.get_mut(pos) {
                            *previous = Some(std::mem::replace(&mut entry.1, value));
                        }
                    }
                    Err(pos) => entries.insert(pos, (ts, value)),
                }
                let split = split_entries(&mut entries, self.order);
                (
                    Node::leaf(entries),
                    split.map(|(sep, right)| (sep, Node::leaf(right))),
                )
            }
            Node::Internal {
                mut separators,
                mut children,
                ..
            } => {
                let idx = separators.partition_point(|sep| *sep <= ts);
                let child = children.remove(idx);
                let (child, split) = self.insert_rec(child, ts, value, previous);
                children.insert(idx, child);
                if let Some((sep, right)) = split {
                    separators.insert(idx, sep);
                    children.insert(idx + 1, right);
                }
                let split = split_children(&mut separators, &mut children, self.order);
                (
                    Node::internal(separators, children),
                    split.map(|(sep, seps, kids)| (sep, Node::internal(seps, kids))),
                )
            }
        }
    }

    /// Returns the value at exactly `ts`, if present.
    pub fn get(&self, ts: u64) -> Option<&F::Value> {
        let mut node = self.root.as_ref()?;
        loop {
            match node {
                Node::Leaf { entries, .. } => {
                    return entries
                        .binary_search_by_key(&ts, |(t, _)| *t)
                        .ok()
                        .and_then(|pos| entries.get(pos))
                        .map(|(_, v)| v);
                }
                Node::Internal {
                    separators,
                    children,
                    ..
                } => {
                    let idx = separators.partition_point(|sep| *sep <= ts);
                    node = children.get(idx)?;
                }
            }
        }
    }

    /// Answers the window query `[lo, hi]` (inclusive) with a
    /// completeness proof.
    pub fn window(&self, lo: u64, hi: u64) -> (F::Answer, OpProof<F>) {
        let mut answer = F::Answer::default();
        let mut ops = Vec::new();
        if let Some(root) = &self.root {
            open(root, None, None, (lo, hi), &mut answer, &mut ops);
        }
        (answer, OpProof::from_ops(ops))
    }

    /// Produces a proof of the rightmost path, enabling a stateless
    /// verifier to append an entry with a timestamp strictly greater than
    /// every stored one ([`AppendProof::appended_root`]) — the
    /// enclave-side primitive for certifying index updates.
    pub fn prove_append(&self) -> AppendProof<F> {
        let mut path = Vec::new();
        let mut node = self.root.as_ref();
        while let Some(current) = node {
            node = match current {
                Node::Leaf { entries, .. } => {
                    path.push(AppendNode::Leaf {
                        entries: digests::<F>(entries).collect(),
                    });
                    None
                }
                Node::Internal {
                    separators,
                    children,
                    ..
                } => children.split_last().map(|(rightmost, rest)| {
                    path.push(AppendNode::Internal {
                        separators: separators.clone(),
                        left_siblings: rest.iter().map(Node::summary).collect(),
                    });
                    rightmost
                }),
            };
        }
        AppendProof { path }
    }
}

// --- window walks ------------------------------------------------------------

/// How a child's key interval relates to the query window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coverage {
    /// Does not overlap the window.
    Outside,
    /// Entirely within the window.
    Inside,
    /// Straddles a window bound.
    Partial,
}

/// The relation of the window `[lo, hi]` to a child covering
/// `[child_lo, child_hi)` (`None` = unbounded).
fn coverage(child_lo: Option<u64>, child_hi: Option<u64>, (lo, hi): (u64, u64)) -> Coverage {
    let below = child_hi.is_some_and(|h| h <= lo);
    let above = child_lo.is_some_and(|l| l > hi);
    if below || above {
        return Coverage::Outside;
    }
    let starts_inside = child_lo.is_some_and(|l| l >= lo);
    let ends_inside = child_hi.is_some_and(|h| h.checked_sub(1).is_some_and(|h1| h1 <= hi));
    if starts_inside && ends_inside {
        Coverage::Inside
    } else {
        Coverage::Partial
    }
}

/// The key interval of child `i`: its neighbouring separators, or the
/// parent's own bound at either end.
fn child_bounds(
    separators: &[u64],
    i: usize,
    bound_lo: Option<u64>,
    bound_hi: Option<u64>,
) -> (Option<u64>, Option<u64>) {
    let lo = i
        .checked_sub(1)
        .and_then(|j| separators.get(j))
        .copied()
        .or(bound_lo);
    let hi = separators.get(i).copied().or(bound_hi);
    (lo, hi)
}

fn in_window((lo, hi): (u64, u64), ts: u64) -> bool {
    lo <= ts && ts <= hi
}

/// The prover walk: folds the in-window content into `answer` and pushes
/// the proof of `node` onto `ops` as a left-to-right post-order program —
/// each child, then the parent's shell after the first (`Parent`) and a
/// `Child` after every later one. A child is left pruned iff it is outside
/// the window, or inside it and the answer took its annotation.
fn open<F: Flavor>(
    node: &Node<F>,
    bound_lo: Option<u64>,
    bound_hi: Option<u64>,
    window: (u64, u64),
    answer: &mut F::Answer,
    ops: &mut Vec<ProofOp<F>>,
) {
    match node {
        Node::Leaf { entries, .. } => {
            for (ts, value) in entries {
                if in_window(window, *ts) {
                    answer.entry(*ts, value);
                }
            }
            ops.push(ProofOp::Push(Shape::Leaf(digests::<F>(entries).collect())));
        }
        Node::Internal {
            separators,
            children,
            ..
        } => {
            for (i, child) in children.iter().enumerate() {
                let (child_lo, child_hi) = child_bounds(separators, i, bound_lo, bound_hi);
                let summary = child.summary();
                let pruned = match coverage(child_lo, child_hi, window) {
                    Coverage::Outside => true,
                    Coverage::Inside => answer.subtree(&summary.ann),
                    Coverage::Partial => false,
                };
                if pruned {
                    ops.push(ProofOp::Push(Shape::Pruned(summary)));
                } else {
                    open(child, child_lo, child_hi, window, answer, ops);
                }
                if i == 0 {
                    ops.push(ProofOp::Push(Shape::Internal(separators.clone())));
                    ops.push(ProofOp::Parent);
                } else {
                    ops.push(ProofOp::Child);
                }
            }
        }
    }
}

/// The verifier walk over an executed program: recomputes `node`'s
/// summary while folding the in-window content into `proven`. A pruned
/// child is accepted iff its interval is outside the window, or inside it
/// *and* the answer is derived from annotations — never when it straddles
/// a bound, which is what makes omission detectable. The executor has
/// already held every internal node to its arity and the tree to
/// [`MAX_PROOF_DEPTH`](crate::ops::MAX_PROOF_DEPTH), which bounds this
/// recursion.
pub(crate) fn check<F: Flavor>(
    node: &Executed<'_, F>,
    bound_lo: Option<u64>,
    bound_hi: Option<u64>,
    window: (u64, u64),
    proven: &mut F::Proven,
) -> Result<Summary<F::Ann>, ProofError> {
    match node.shape {
        // Only the root arrives here pruned: a parent answers for its
        // pruned children below.
        Shape::Pruned(_) => Err(ProofError::Malformed("op proof root is pruned")),
        Shape::Leaf(entries) => {
            let mut prev: Option<u64> = None;
            for (ts, digest) in entries {
                if prev.is_some_and(|p| *ts <= p) {
                    return Err(ProofError::Malformed("leaf entries not sorted"));
                }
                prev = Some(*ts);
                if bound_lo.is_some_and(|b| *ts < b) || bound_hi.is_some_and(|b| *ts >= b) {
                    return Err(ProofError::Malformed("leaf entry outside bounds"));
                }
                if in_window(window, *ts) {
                    proven.entry(*ts, digest);
                }
            }
            Ok(leaf_summary::<F>(entries.iter().copied()))
        }
        Shape::Internal(separators) => {
            if separators.windows(2).any(|w| matches!(w, [a, b] if a >= b)) {
                return Err(ProofError::Malformed("separators not sorted"));
            }
            let mut summaries = Vec::with_capacity(node.children.len());
            for (i, child) in node.children.iter().enumerate() {
                let (child_lo, child_hi) = child_bounds(separators, i, bound_lo, bound_hi);
                summaries.push(match child.shape {
                    Shape::Pruned(summary) => {
                        let answered = match coverage(child_lo, child_hi, window) {
                            Coverage::Outside => true,
                            Coverage::Inside => proven.subtree(&summary.ann),
                            Coverage::Partial => false,
                        };
                        if !answered {
                            return Err(ProofError::Incomplete(
                                "pruned subtree overlaps query window",
                            ));
                        }
                        *summary
                    }
                    _ => check(child, child_lo, child_hi, window, proven)?,
                });
            }
            Ok(node_summary::<F>(separators, &summaries))
        }
    }
}

// --- append proof ------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum AppendNode<F: Flavor> {
    Internal {
        separators: Vec<u64>,
        /// Summaries of all children except the rightmost (which the next
        /// path element recomputes).
        left_siblings: Vec<Summary<F::Ann>>,
    },
    Leaf {
        entries: Vec<(u64, F::Digest)>,
    },
}

/// A proof of the rightmost path of a [`BTree`], enabling stateless
/// appends.
///
/// The verifier replays the split rule of [`BTree::insert`], so the
/// computed root matches what the real tree produces after appending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendProof<F: Flavor> {
    /// Root-to-leaf path along the rightmost spine; empty for an empty tree.
    path: Vec<AppendNode<F>>,
}

/// Rightmost-path proof of an [`MbTree`].
pub type MbAppendProof = AppendProof<Plain>;
/// Rightmost-path proof of an [`AggMbTree`].
pub type AggAppendProof = AppendProof<Summed>;

impl<F: Flavor> AppendProof<F> {
    /// Size of the serialized proof in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Verifies the proof against `root` and computes the root after
    /// appending `(ts, digest)`.
    ///
    /// `order` must equal the tree's fanout. `ts` must be strictly greater
    /// than every timestamp in the tree.
    ///
    /// # Errors
    ///
    /// - [`ProofError::RootMismatch`] if the path does not authenticate,
    /// - [`ProofError::Malformed`] if `ts` is not strictly larger than the
    ///   current maximum or the path shape is invalid.
    pub fn appended_root(
        &self,
        root: &Hash,
        order: usize,
        ts: u64,
        digest: &F::Digest,
    ) -> Result<Hash, ProofError> {
        if order < 3 {
            return Err(ProofError::Malformed("order must be at least 3"));
        }
        let Some((last_node, upper)) = self.path.split_last() else {
            if !root.is_zero() {
                return Err(ProofError::RootMismatch);
            }
            return Ok(BTree::<F>::singleton_root(ts, digest));
        };
        let AppendNode::Leaf { entries } = last_node else {
            return Err(ProofError::Malformed("append path must end in a leaf"));
        };
        let increasing = entries.last().is_none_or(|(last_ts, _)| ts > *last_ts);

        // Walk the spine bottom-up once, carrying two states per level:
        // `before` authenticates the path as it stands; `after` (plus the
        // sibling a split hands upward) replays the append.
        let mut before = leaf_summary::<F>(entries.iter().copied());
        let mut appended = entries.clone();
        appended.push((ts, *digest));
        let split = split_entries(&mut appended, order);
        let mut after = leaf_summary::<F>(appended.into_iter());
        let mut carry = split.map(|(sep, right)| (sep, leaf_summary::<F>(right.into_iter())));
        for node in upper.iter().rev() {
            let AppendNode::Internal {
                separators,
                left_siblings,
            } = node
            else {
                return Err(ProofError::Malformed("leaf in the middle of path"));
            };
            if left_siblings.len() != separators.len() {
                return Err(ProofError::Malformed("append path arity"));
            }
            let mut children = left_siblings.clone();
            children.push(before);
            before = node_summary::<F>(separators, &children);

            let mut separators = separators.clone();
            children.pop();
            children.push(after);
            if let Some((sep, right)) = carry {
                separators.push(sep);
                children.push(right);
            }
            let split = split_children(&mut separators, &mut children, order);
            after = node_summary::<F>(&separators, &children);
            carry = split.map(|(sep, seps, kids)| (sep, node_summary::<F>(&seps, &kids)));
        }
        if before.hash != *root {
            return Err(ProofError::RootMismatch);
        }
        if !increasing {
            return Err(ProofError::Malformed("append timestamp not increasing"));
        }
        Ok(match carry {
            None => after.hash,
            Some((sep, right)) => node_summary::<F>(&[sep], &[after, right]).hash,
        })
    }
}

// --- serialization -----------------------------------------------------------

impl<A: Annotation> Encode for Summary<A> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hash.encode(out);
        self.ann.encode(out);
    }

    fn encoded_len(&self) -> usize {
        Hash::LEN + self.ann.encoded_len()
    }
}

impl<A: Annotation> Decode for Summary<A> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Summary {
            hash: Hash::decode(r)?,
            ann: A::decode(r)?,
        })
    }
}

impl<F: Flavor> Encode for Shape<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Shape::Pruned(summary) => {
                out.push(F::OP_TAG);
                summary.encode(out);
            }
            Shape::Leaf(entries) => {
                out.push(F::OP_TAG + 1);
                encode_seq(entries, out);
            }
            Shape::Internal(separators) => {
                out.push(F::OP_TAG + 2);
                encode_seq(separators, out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            Shape::Pruned(summary) => summary.encoded_len(),
            Shape::Leaf(entries) => seq_encoded_len(entries),
            Shape::Internal(separators) => seq_encoded_len(separators),
        }
    }
}

impl<F: Flavor> Decode for Shape<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.take_byte()?;
        match tag.checked_sub(F::OP_TAG) {
            Some(0) => Ok(Shape::Pruned(Summary::decode(r)?)),
            Some(1) => Ok(Shape::Leaf(decode_seq(r)?)),
            Some(2) => Ok(Shape::Internal(decode_seq(r)?)),
            _ => Err(CodecError::InvalidTag(tag)),
        }
    }
}

impl<F: Flavor> Encode for AppendNode<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AppendNode::Internal {
                separators,
                left_siblings,
            } => {
                out.push(0);
                encode_seq(separators, out);
                encode_seq(left_siblings, out);
            }
            AppendNode::Leaf { entries } => {
                out.push(1);
                encode_seq(entries, out);
            }
        }
    }
}

impl<F: Flavor> Decode for AppendNode<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(AppendNode::Internal {
                separators: decode_seq(r)?,
                left_siblings: decode_seq(r)?,
            }),
            1 => Ok(AppendNode::Leaf {
                entries: decode_seq(r)?,
            }),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

impl<F: Flavor> Encode for AppendProof<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.path, out);
    }
}

impl<F: Flavor> Decode for AppendProof<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AppendProof {
            path: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_testkit::check;

    /// What the flavor-generic tests need to know about a flavor: how to
    /// make a value, what the true answer to a window is, and how to
    /// present and falsify one.
    trait Fixture: Flavor<Value: PartialEq, Answer: PartialEq + Debug> {
        fn value(ts: u64) -> Self::Value;
        /// The answer to `[lo, hi]` over a tree holding `value(ts)` for
        /// every `ts` in `0..n`.
        fn expected(lo: u64, hi: u64, n: u64) -> Self::Answer;
        fn claim(answer: &Self::Answer) -> &Self::Claim;
        /// A different answer to the same window.
        fn forge(answer: &Self::Answer) -> Self::Answer;
    }

    impl Fixture for Plain {
        fn value(ts: u64) -> Vec<u8> {
            format!("value-{ts}").into_bytes()
        }
        fn expected(lo: u64, hi: u64, n: u64) -> Vec<(u64, Vec<u8>)> {
            (lo..=hi)
                .filter(|ts| *ts < n)
                .map(|ts| (ts, Self::value(ts)))
                .collect()
        }
        fn claim(answer: &Vec<(u64, Vec<u8>)>) -> &[(u64, Vec<u8>)] {
            answer
        }
        fn forge(answer: &Vec<(u64, Vec<u8>)>) -> Vec<(u64, Vec<u8>)> {
            let mut forged = answer.clone();
            if forged.pop().is_none() {
                forged.push((0, b"forged".to_vec()));
            }
            forged
        }
    }

    impl Fixture for Summed {
        fn value(ts: u64) -> u64 {
            ts * 3 + 1
        }
        fn expected(lo: u64, hi: u64, n: u64) -> Aggregate {
            let mut agg = Aggregate::EMPTY;
            for ts in (lo..=hi).filter(|ts| *ts < n) {
                agg.merge(&Aggregate::of(Self::value(ts)));
            }
            agg
        }
        fn claim(answer: &Aggregate) -> &Aggregate {
            answer
        }
        fn forge(answer: &Aggregate) -> Aggregate {
            Aggregate {
                sum: answer.sum.wrapping_add(1),
                ..*answer
            }
        }
    }

    fn build<F: Fixture>(n: u64, order: usize) -> BTree<F> {
        let mut tree = BTree::new(order);
        for ts in 0..n {
            tree.insert(ts, F::value(ts));
        }
        tree
    }

    // --- properties both flavors must have, run once per flavor ---------

    fn empty_tree_basics<F: Fixture>() {
        let tree = BTree::<F>::new(4);
        assert_eq!(tree.root(), Hash::ZERO);
        assert_eq!(tree.len(), 0);
        assert_eq!(tree.max_key(), None);
        assert_eq!(tree.total(), F::Ann::EMPTY);
        let (answer, proof) = tree.window(0, 100);
        assert_eq!(answer, F::Answer::default());
        proof
            .verify(&Hash::ZERO, 0, 100, F::claim(&answer))
            .unwrap();
    }

    fn insert_get_replace<F: Fixture>() {
        let mut tree = BTree::<F>::new(4);
        assert_eq!(tree.insert(5, F::value(1)), None);
        assert_eq!(tree.insert(5, F::value(2)), Some(F::value(1)));
        assert_eq!(tree.get(5), Some(&F::value(2)));
        assert_eq!(tree.get(6), None);
        assert_eq!(tree.len(), 1);
    }

    fn grows_through_splits<F: Fixture>() {
        let tree = build::<F>(100, 4);
        assert_eq!(tree.len(), 100);
        for ts in 0..100u64 {
            assert_eq!(tree.get(ts), Some(&F::value(ts)), "ts={ts}");
        }
        assert_eq!(tree.max_key(), Some(99));
    }

    fn windows_are_exact_and_verify<F: Fixture>() {
        for order in [3usize, 4, 5, 16] {
            let n = 200u64;
            let tree = build::<F>(n, order);
            let root = tree.root();
            for (lo, hi) in [
                (0, 199),
                (50, 99),
                (10, 20),
                (5, 5),
                (0, 0),
                (199, 199),
                (150, 400),
                (300, 400),
            ] {
                let (answer, proof) = tree.window(lo, hi);
                assert_eq!(answer, F::expected(lo, hi, n), "order={order} [{lo},{hi}]");
                proof
                    .verify(&root, lo, hi, F::claim(&answer))
                    .unwrap_or_else(|e| panic!("order={order} [{lo},{hi}]: {e}"));
            }
        }
    }

    fn wrong_root_rejected<F: Fixture>() {
        let tree = build::<F>(50, 4);
        let (answer, proof) = tree.window(5, 25);
        assert_eq!(
            proof.verify(&Hash::ZERO, 5, 25, F::claim(&answer)),
            Err(ProofError::RootMismatch)
        );
    }

    fn proof_for_other_window_rejected<F: Fixture>() {
        // A proof generated for a narrow window cannot be replayed for a
        // wider one: pruned subtrees now overlap a bound (or, answered
        // from annotations, no longer add up to the claim).
        for (n, (lo, hi), (wide_lo, wide_hi)) in [(64, (10, 12), (5, 20)), (100, (10, 20), (5, 40))]
        {
            let tree = build::<F>(n, 4);
            let (answer, proof) = tree.window(lo, hi);
            assert!(matches!(
                proof.verify(&tree.root(), wide_lo, wide_hi, F::claim(&answer)),
                Err(ProofError::Incomplete(_)) | Err(ProofError::RootMismatch)
            ));
        }
    }

    fn forged_claim_rejected<F: Fixture>() {
        let tree = build::<F>(100, 4);
        let (answer, proof) = tree.window(10, 90);
        assert!(matches!(
            proof.verify(&tree.root(), 10, 90, F::claim(&F::forge(&answer))),
            Err(ProofError::Incomplete(_))
        ));
    }

    fn singleton_root_matches_real_tree<F: Fixture>() {
        let mut tree = BTree::<F>::new(4);
        tree.insert(9, F::value(9));
        assert_eq!(
            tree.root(),
            BTree::<F>::singleton_root(9, &F::digest(&F::value(9)))
        );
    }

    fn append_proof_tracks_real_inserts<F: Fixture>() {
        for order in [3usize, 4, 5, 16] {
            let mut tree = BTree::<F>::new(order);
            for ts in 0..200u64 {
                let proof = tree.prove_append();
                let value = F::value(ts * 7);
                let predicted = proof
                    .appended_root(&tree.root(), order, ts, &F::digest(&value))
                    .unwrap_or_else(|e| panic!("order={order} ts={ts}: {e}"));
                tree.insert(ts, value);
                assert_eq!(predicted, tree.root(), "order={order} ts={ts}");
            }
        }
    }

    fn append_proof_rejects_stale_root_bad_ts_and_small_order<F: Fixture>() {
        let tree = build::<F>(20, 4);
        let proof = tree.prove_append();
        let digest = F::digest(&F::value(1));
        assert_eq!(
            proof.appended_root(&Hash::ZERO, 4, 100, &digest),
            Err(ProofError::RootMismatch)
        );
        for ts in [19, 5] {
            assert!(matches!(
                proof.appended_root(&tree.root(), 4, ts, &digest),
                Err(ProofError::Malformed(_))
            ));
        }
        assert!(matches!(
            proof.appended_root(&tree.root(), 2, 100, &digest),
            Err(ProofError::Malformed(_))
        ));
        // The empty tree's (empty) proof only stands for the zero root.
        let empty = BTree::<F>::new(4).prove_append();
        assert_eq!(
            empty.appended_root(&tree.root(), 4, 100, &digest),
            Err(ProofError::RootMismatch)
        );
    }

    fn window_proof_codec_round_trip<F: Fixture>() {
        let tree = build::<F>(100, 4);
        let (answer, proof) = tree.window(10, 60);
        let bytes = proof.to_encoded_bytes();
        assert_eq!(proof.size_bytes(), bytes.len());
        let decoded = OpProof::<F>::decode_all(&bytes).unwrap();
        assert_eq!(decoded, proof);
        decoded
            .verify(&tree.root(), 10, 60, F::claim(&answer))
            .unwrap();
    }

    fn append_proof_codec_round_trip<F: Fixture>() {
        let tree = build::<F>(40, 4);
        let proof = tree.prove_append();
        let decoded = AppendProof::<F>::decode_all(&proof.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, proof);
    }

    /// Window query + proof verifies for arbitrary windows, tree sizes
    /// and fanouts.
    fn prop_windows_verify<F: Fixture>() {
        check("prop_windows_verify", 48, |g| {
            let (n, order) = (g.range(0u64..300), g.range(3usize..12));
            let (lo, width) = (g.range(0u64..350), g.range(0u64..120));
            let tree = build::<F>(n, order);
            let hi = lo + width;
            let (answer, proof) = tree.window(lo, hi);
            assert_eq!(&answer, &F::expected(lo, hi, n));
            assert!(proof
                .verify(&tree.root(), lo, hi, F::claim(&answer))
                .is_ok());
        });
    }

    /// Stateless appends always agree with real inserts under random
    /// fanouts and skip patterns.
    fn prop_append_agrees<F: Fixture>() {
        check("prop_append_agrees", 48, |g| {
            let order = g.range(3usize..10);
            let steps = g.vec(1..60, |g| (g.range(1u64..5), g.any::<u64>()));
            let mut tree = BTree::<F>::new(order);
            let mut ts = 0u64;
            for (step, seed) in steps {
                ts += step;
                let value = F::value(seed % (u64::MAX / 4));
                let predicted = tree
                    .prove_append()
                    .appended_root(&tree.root(), order, ts, &F::digest(&value))
                    .unwrap();
                tree.insert(ts, value);
                assert_eq!(predicted, tree.root());
            }
        });
    }

    macro_rules! for_each_flavor {
        ($($test:ident),* $(,)?) => {
            for_each_flavor!(@module plain, Plain, $($test),*);
            for_each_flavor!(@module summed, Summed, $($test),*);
        };
        (@module $module:ident, $flavor:ident, $($test:ident),*) => {
            mod $module {
                use super::*;

                $(
                    #[test]
                    fn $test() {
                        super::$test::<$flavor>();
                    }
                )*
            }
        };
    }

    for_each_flavor!(
        empty_tree_basics,
        insert_get_replace,
        grows_through_splits,
        windows_are_exact_and_verify,
        wrong_root_rejected,
        proof_for_other_window_rejected,
        forged_claim_rejected,
        singleton_root_matches_real_tree,
        append_proof_tracks_real_inserts,
        append_proof_rejects_stale_root_bad_ts_and_small_order,
        window_proof_codec_round_trip,
        append_proof_codec_round_trip,
        prop_windows_verify,
        prop_append_agrees,
    );

    // --- Plain only: row-level claims, absence -------------------------

    #[test]
    fn verify_rejects_omitted_result() {
        let tree = build::<Plain>(30, 4);
        let (mut results, proof) = tree.window(5, 15);
        results.remove(3);
        assert!(matches!(
            proof.verify(&tree.root(), 5, 15, &results),
            Err(ProofError::Incomplete(_))
        ));
    }

    #[test]
    fn verify_rejects_tampered_value() {
        let tree = build::<Plain>(30, 4);
        let (mut results, proof) = tree.window(5, 15);
        results[0].1 = b"forged".to_vec();
        assert!(matches!(
            proof.verify(&tree.root(), 5, 15, &results),
            Err(ProofError::Incomplete(_))
        ));
    }

    #[test]
    fn empty_window_is_provable_not_assumable() {
        // Satellite audit: an empty result set must be *proven* empty.
        let tree = build::<Plain>(30, 4);

        // lo beyond max_key: the proof opens the rightmost boundary and
        // verifies the window is empty.
        let (results, proof) = tree.window(100, 200);
        assert!(results.is_empty());
        proof.verify(&tree.root(), 100, 200, &results).unwrap();

        // The same empty-window proof cannot stand in for a window that
        // does contain entries: its pruned subtrees overlap it.
        assert!(matches!(
            proof.verify(&tree.root(), 5, 200, &[]),
            Err(ProofError::Incomplete(_))
        ));

        // Inverted window (lo > hi) is provably empty too.
        let (results, proof) = tree.window(20, 10);
        assert!(results.is_empty());
        proof.verify(&tree.root(), 20, 10, &results).unwrap();
    }

    #[test]
    fn omitted_tail_at_window_edge_rejected() {
        // Regression: a proof honestly generated for [5, 9] replayed for
        // the wider window [5, 15] with the tail results omitted must
        // fail — the subtrees holding 10..=15 are pruned but overlap the
        // claimed window, so truncation is distinguishable from "no
        // entries past 9".
        let tree = build::<Plain>(30, 4);
        let (truncated, narrow_proof) = tree.window(5, 9);
        assert_eq!(truncated.len(), 5);
        assert!(matches!(
            narrow_proof.verify(&tree.root(), 5, 15, &truncated),
            Err(ProofError::Incomplete(_)) | Err(ProofError::RootMismatch)
        ));
    }

    /// One hand-built lie per structural check of the verifier walk, each
    /// refused with that check's own error (DESIGN.md §6) before the root
    /// is compared.
    #[test]
    fn structural_lies_are_refused_by_name() {
        use ProofOp::{Child, Parent, Push};
        let leaf = |keys: &[u64]| {
            let entries = keys.iter().map(|key| (*key, Hash::ZERO));
            Push(Shape::<Plain>::Leaf(entries.collect()))
        };
        let shell = |separators: &[u64]| Push(Shape::Internal(separators.to_vec()));
        let (hash, ann) = (Hash::ZERO, ());
        let pruned = Push(Shape::Pruned(Summary { hash, ann }));
        for (program, refusal) in [
            (
                vec![leaf(&[5, 3])],
                ProofError::Malformed("leaf entries not sorted"),
            ),
            (
                vec![leaf(&[1]), shell(&[5]), Parent, leaf(&[4]), Child],
                ProofError::Malformed("leaf entry outside bounds"),
            ),
            (
                vec![
                    leaf(&[1]),
                    shell(&[5, 5]),
                    Parent,
                    leaf(&[5]),
                    Child,
                    leaf(&[6]),
                    Child,
                ],
                ProofError::Malformed("separators not sorted"),
            ),
            (
                vec![pruned, shell(&[5]), Parent, leaf(&[7]), Child],
                ProofError::Incomplete("pruned subtree overlaps query window"),
            ),
        ] {
            let proof = OpProof::from_ops(program);
            assert_eq!(proof.verify(&Hash::ZERO, 0, 9, &[]), Err(refusal));
        }
    }

    #[test]
    fn absence_is_the_empty_window_at_the_key() {
        // "Nothing at `ts`" is the empty claim over `[ts, ts]`: it verifies
        // for an absent key and is refused for a present one.
        let mut tree = MbTree::new(4);
        for ts in (0..40u64).map(|t| t * 2) {
            tree.insert(ts, format!("v{ts}").into_bytes());
        }
        for absent in [13, 1000] {
            let (_, proof) = tree.window(absent, absent);
            proof.verify(&tree.root(), absent, absent, &[]).unwrap();
        }
        let (_, proof) = tree.window(12, 12);
        assert_eq!(
            proof.verify(&tree.root(), 12, 12, &[]),
            Err(ProofError::Incomplete("result count mismatch"))
        );
    }

    // --- Summed only: the annotation is part of what is certified -------

    #[test]
    fn total_annotation_tracks_inserts_and_replacements() {
        let mut tree = AggMbTree::new(4);
        tree.insert(1, 10);
        tree.insert(2, 20);
        assert_eq!(tree.total().sum, 30);
        assert_eq!(tree.insert(1, 15), Some(10));
        assert_eq!(tree.total().sum, 35);
        assert_eq!(tree.total().count, 2);
        assert_eq!((tree.total().min, tree.total().max), (15, 20));
        assert!(AggMbTree::new(4).total().mean().is_none());
    }

    #[test]
    fn forged_annotation_rejected() {
        // An SP inflating a pruned child's aggregate breaks the hash chain.
        let tree = build::<Summed>(200, 4);
        let (agg, proof) = tree.window(20, 180);
        let mut ops = proof.ops().to_vec();
        let inflated = ops.iter_mut().find_map(|op| match op {
            ProofOp::Push(Shape::Pruned(summary)) if summary.ann.count > 0 => Some(summary),
            _ => None,
        });
        inflated.expect("fixture has pruned children").ann.sum += 1_000;
        let forged = OpProof::<Summed>::from_ops(ops);
        let mut claimed = agg;
        claimed.sum += 1_000;
        assert_eq!(
            forged.verify(&tree.root(), 20, 180, &claimed),
            Err(ProofError::RootMismatch)
        );
    }

    #[test]
    fn hostile_annotations_cannot_overflow_the_verifier() {
        // Regression: `Aggregate::merge` used unchecked `+=`. The
        // verifier merges *claimed* annotations from a decoded proof
        // before the root comparison, so near-MAX counts/sums in two
        // pruned siblings overflowed (panicking in debug builds) before
        // the forgery was rejected. Merge now saturates; the forged
        // proof must fail with a typed error, never a panic.
        let hostile = Aggregate {
            count: u64::MAX,
            sum: u128::MAX,
            min: 0,
            max: u64::MAX,
        };
        let pruned = |label: &[u8]| {
            ProofOp::Push(Shape::Pruned(Summary {
                hash: hash_bytes(label),
                ann: hostile,
            }))
        };
        let proof = OpProof::<Summed>::from_ops(vec![
            pruned(b"left"),
            ProofOp::Push(Shape::Internal(vec![50])),
            ProofOp::Parent,
            pruned(b"right"),
            ProofOp::Child,
        ]);
        // Window [0, 100]: both pruned children are fully inside, so both
        // annotations are merged into the running aggregate.
        let err = proof
            .verify(&hash_bytes(b"no-such-root"), 0, 100, &Aggregate::EMPTY)
            .unwrap_err();
        assert!(matches!(
            err,
            ProofError::RootMismatch | ProofError::Incomplete(_)
        ));
        // The decoded form takes the same path.
        let decoded = OpProof::<Summed>::decode_all(&proof.to_encoded_bytes()).unwrap();
        assert!(decoded
            .verify(&hash_bytes(b"no-such-root"), 0, 100, &Aggregate::EMPTY)
            .is_err());

        let mut merged = hostile;
        merged.merge(&hostile);
        assert_eq!((merged.count, merged.sum), (u64::MAX, u128::MAX));
    }

    #[test]
    fn proof_size_is_logarithmic_in_window() {
        let tree = build::<Summed>(10_000, 16);
        let (_, narrow) = tree.window(4_000, 4_100);
        let (_, wide) = tree.window(100, 9_900);
        // A 98× wider window must not cost anywhere near 98× the proof.
        assert!(
            wide.size_bytes() < narrow.size_bytes() * 8,
            "wide={} narrow={}",
            wide.size_bytes(),
            narrow.size_bytes()
        );
    }

    #[test]
    fn prop_random_insert_order_same_total() {
        check("prop_random_insert_order_same_total", 48, |g| {
            let entries = g.vec(1..80, |g| (g.range(0u64..500), g.any::<u64>()));
            let mut a = AggMbTree::new(4);
            for (ts, v) in &entries {
                a.insert(*ts, *v);
            }
            // The B+-tree is not order-independent in general, but the
            // *aggregate* must match the deduplicated entry set (last
            // write per ts wins).
            let last: std::collections::BTreeMap<u64, u64> = entries.into_iter().collect();
            let mut want = Aggregate::EMPTY;
            for v in last.values() {
                want.merge(&Aggregate::of(*v));
            }
            assert_eq!(a.total(), want);
            assert_eq!(a.len(), last.len());
        });
    }
}
