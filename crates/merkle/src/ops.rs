//! Stack-machine (op-stream) proof encoding, after the Merk/GroveDB
//! design, generalized to DCert's n-ary authenticated trees.
//!
//! The per-path encodings in [`btree`](crate::btree) / [`mht`](crate::mht)
//! serialize one pruned tree per query, so a window touching k adjacent
//! keys pays k·log n hashes. An **op stream** instead serializes a single
//! partial tree as a post-order program for a tiny stack machine:
//!
//! - [`ProofOp::Push`] — push a node (an opened leaf, a pruned subtree
//!   hash, or an internal-node shell) onto the stack;
//! - [`ProofOp::PushInverted`] — like `Push`, but the shell collects its
//!   children right-to-left (they are reversed when the node closes);
//! - [`ProofOp::Parent`] — pop a shell, pop the node below it, attach the
//!   node as the shell's first child, push the shell back;
//! - [`ProofOp::Child`] — pop a node, attach it as the next child of the
//!   shell now on top.
//!
//! The verifier executes the program with a bounded stack
//! ([`MAX_OP_STACK`]) and a bounded reconstruction depth
//! ([`MAX_PROOF_DEPTH`]), re-derives the root hash of the reconstructed
//! partial tree, and then runs exactly the same completeness walk as the
//! per-path verifiers — so one compact stream covers an arbitrary key
//! set or contiguous range, and rejection behavior is identical to the
//! legacy encoding by construction.
//!
//! Every malformed program — stack underflow, overflow, arity mismatch,
//! a family mix (MB-tree ops inside an aggregate proof), trailing
//! operands — returns a typed [`ProofError`]; the executor never panics
//! on attacker-controlled input.

use std::marker::PhantomData;

use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;

use crate::btree::{Aggregate, Flavor, Plain, ProofChild, ProofNode, Shape, Summed, WindowProof};
use crate::ProofError;

/// Maximum operand-stack height while executing an op stream.
///
/// A left-to-right post-order encoding of a tree needs at most
/// `depth + 1` slots; DCert's B-trees (order ≥ 3 over u64 keys) and
/// Merkle hash trees never exceed ~64 levels, so an honest proof stays
/// far below this. Deeper programs are rejected, not executed.
pub const MAX_OP_STACK: usize = 64;

/// Maximum depth of the reconstructed partial tree.
///
/// The stack bound alone does not bound reconstruction depth (a
/// `Push`/`Parent` loop deepens the tree with a two-high stack), and the
/// completeness walk over the reconstructed tree is recursive — so the
/// executor tracks subtree depth at every attach and rejects programs
/// that nest deeper than any honest tree can.
pub const MAX_PROOF_DEPTH: usize = 64;

/// One node pushed by a [`ProofOp`]. The variant family must be
/// homogeneous within a proof and match the structure being verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpNode {
    /// An unopened MB-tree subtree: hash only.
    Pruned(Hash),
    /// An opened MB-tree leaf: `(timestamp, value_hash)` entries.
    Leaf(Vec<(u64, Hash)>),
    /// An MB-tree internal-node shell: separators; children are attached
    /// by subsequent `Parent`/`Child` ops.
    Internal(Vec<u64>),
    /// An unopened aggregate subtree: hash + certified annotation.
    AggPruned(Hash, Aggregate),
    /// An opened aggregate leaf: `(timestamp, value)` entries.
    AggLeaf(Vec<(u64, u64)>),
    /// An aggregate internal-node shell.
    AggInternal(Vec<u64>),
    /// An unopened static-Merkle-tree subtree hash.
    MhtPruned(Hash),
    /// An opened static-Merkle-tree leaf (leaf-level hash).
    MhtLeaf(Hash),
    /// A binary static-Merkle-tree node shell (exactly two children;
    /// odd promoted nodes are collapsed into their child).
    MhtNode,
}

impl OpNode {
    /// Whether this node kind accepts children.
    fn is_shell(&self) -> bool {
        matches!(
            self,
            OpNode::Internal(_) | OpNode::AggInternal(_) | OpNode::MhtNode
        )
    }
}

/// One instruction of the proof program. See the
/// [module documentation](self) for the machine's semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofOp {
    /// Push a node; a shell collects children left-to-right.
    Push(OpNode),
    /// Push a shell that collects children right-to-left.
    PushInverted(OpNode),
    /// Pop the shell on top, then the node below it; attach the node as
    /// the shell's first child and push the shell back.
    Parent,
    /// Pop the node on top; attach it as the next child of the shell now
    /// on top.
    Child,
}

/// A node of the reconstructed partial tree.
#[derive(Debug, Clone)]
pub(crate) struct Partial {
    pub(crate) node: OpNode,
    pub(crate) children: Vec<Partial>,
    /// Children were collected right-to-left; reversed at close.
    inverted: bool,
    /// Height of this subtree (leaf = 1); bounded by [`MAX_PROOF_DEPTH`].
    depth: usize,
}

/// Closes a node: checks arity against its shell kind and restores
/// left-to-right child order for inverted shells.
fn close(mut p: Partial) -> Result<Partial, ProofError> {
    match &p.node {
        OpNode::Internal(seps) | OpNode::AggInternal(seps) => {
            if p.children.len() != seps.len() + 1 {
                return Err(ProofError::Malformed("op-stream arity mismatch"));
            }
        }
        OpNode::MhtNode => {
            if p.children.len() != 2 {
                return Err(ProofError::Malformed("mht op node needs two children"));
            }
        }
        _ => {
            // Attach already rejects non-shell parents, so a closed
            // leaf/pruned node can never hold children.
            if !p.children.is_empty() {
                return Err(ProofError::Malformed("non-shell node has children"));
            }
        }
    }
    if p.inverted {
        p.children.reverse();
        p.inverted = false;
    }
    Ok(p)
}

/// Attaches `child` (closing it) as the next child of `parent`.
fn attach(mut parent: Partial, child: Partial) -> Result<Partial, ProofError> {
    if !parent.node.is_shell() {
        return Err(ProofError::Malformed("attach to non-shell node"));
    }
    let child = close(child)?;
    let lifted = child.depth.saturating_add(1);
    if lifted > MAX_PROOF_DEPTH {
        return Err(ProofError::Malformed("op-stream proof too deep"));
    }
    parent.depth = parent.depth.max(lifted);
    parent.children.push(child);
    Ok(parent)
}

/// Executes an op program and returns the closed root of the partial
/// tree. All failure modes are typed [`ProofError`]s.
pub(crate) fn execute(ops: &[ProofOp]) -> Result<Partial, ProofError> {
    let mut stack: Vec<Partial> = Vec::new();
    for op in ops {
        match op {
            ProofOp::Push(node) | ProofOp::PushInverted(node) => {
                if stack.len() >= MAX_OP_STACK {
                    return Err(ProofError::Malformed("op stack overflow"));
                }
                let inverted = matches!(op, ProofOp::PushInverted(_));
                if inverted && !node.is_shell() {
                    return Err(ProofError::Malformed("inverted push of non-shell node"));
                }
                stack.push(Partial {
                    node: node.clone(),
                    children: Vec::new(),
                    inverted,
                    depth: 1,
                });
            }
            ProofOp::Parent => {
                let parent = stack
                    .pop()
                    .ok_or(ProofError::Malformed("op stack underflow"))?;
                let child = stack
                    .pop()
                    .ok_or(ProofError::Malformed("op stack underflow"))?;
                stack.push(attach(parent, child)?);
            }
            ProofOp::Child => {
                let child = stack
                    .pop()
                    .ok_or(ProofError::Malformed("op stack underflow"))?;
                let parent = stack
                    .pop()
                    .ok_or(ProofError::Malformed("op stack underflow"))?;
                stack.push(attach(parent, child)?);
            }
        }
    }
    let root = stack
        .pop()
        .ok_or(ProofError::Malformed("empty op stream"))?;
    if !stack.is_empty() {
        return Err(ProofError::Malformed("trailing operands on op stack"));
    }
    close(root)
}

/// Lifts a reconstructed partial tree into flavor `F`'s per-path proof
/// form (the inverse of [`emit`]), so both encodings share one verifier.
/// Depth is bounded by [`MAX_PROOF_DEPTH`], so the recursion cannot
/// exhaust the call stack.
fn lift<F: Flavor>(p: Partial) -> Result<ProofChild<F>, ProofError> {
    let shape = F::shape(p.node).ok_or(ProofError::Malformed("op node family mismatch"))?;
    Ok(match shape {
        Shape::Pruned(summary) => ProofChild::Pruned(summary),
        Shape::Leaf(entries) => ProofChild::Open(Box::new(ProofNode::Leaf { entries })),
        Shape::Internal(separators) => {
            let mut children = Vec::with_capacity(p.children.len());
            for child in p.children {
                children.push(lift(child)?);
            }
            ProofChild::Open(Box::new(ProofNode::Internal {
                separators,
                children,
            }))
        }
    })
}

/// Serializes a per-path proof node as a left-to-right post-order
/// program: each child, then the shell after the first (`Parent`) and a
/// `Child` after every later one.
fn emit<F: Flavor>(node: ProofNode<F>, ops: &mut Vec<ProofOp>) {
    match node {
        ProofNode::Leaf { entries } => ops.push(ProofOp::Push(F::op_node(Shape::Leaf(entries)))),
        ProofNode::Internal {
            separators,
            children,
        } => {
            let mut shell = Some(separators);
            for child in children {
                match child {
                    ProofChild::Pruned(summary) => {
                        ops.push(ProofOp::Push(F::op_node(Shape::Pruned(summary))));
                    }
                    ProofChild::Open(sub) => emit(*sub, ops),
                }
                match shell.take() {
                    Some(separators) => {
                        ops.push(ProofOp::Push(F::op_node(Shape::Internal(separators))));
                        ops.push(ProofOp::Parent);
                    }
                    None => ops.push(ProofOp::Child),
                }
            }
        }
    }
}

/// A single op-stream proof for a [`BTree`](crate::btree::BTree) window
/// query — the op-encoding counterpart of [`WindowProof`]; for a
/// [`Plain`] tree it may cover an arbitrary key set.
///
/// An empty stream is the proof for the empty tree (root
/// [`Hash::ZERO`]), mirroring the per-path encoding's `None` root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProof<F: Flavor> {
    ops: Vec<ProofOp>,
    flavor: PhantomData<F>,
}

/// Op-stream proof of an [`MbTree`](crate::MbTree) range or key-set query.
pub type MbOpProof = OpProof<Plain>;
/// Op-stream proof of an [`AggMbTree`](crate::AggMbTree) window aggregate.
pub type AggOpProof = OpProof<Summed>;

impl<F: Flavor> OpProof<F> {
    pub(crate) fn from_ops(ops: Vec<ProofOp>) -> Self {
        OpProof {
            ops,
            flavor: PhantomData,
        }
    }

    /// Re-encodes a per-path proof as one program; pruning is untouched,
    /// so [`OpProof::verify`] accepts exactly what the per-path proof does.
    pub(crate) fn from_window_proof(proof: WindowProof<F>) -> Self {
        let mut ops = Vec::new();
        if let Some(root) = proof.root {
            emit(root, &mut ops);
        }
        Self::from_ops(ops)
    }

    /// The proof program.
    pub fn ops(&self) -> &[ProofOp] {
        &self.ops
    }

    /// Serialized size in bytes (exactly the encoded length).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Executes the program and lifts the result into the per-path
    /// verifier's proof form, so verification semantics are shared.
    fn to_window_proof(&self) -> Result<WindowProof<F>, ProofError> {
        if self.ops.is_empty() {
            return Ok(WindowProof { root: None });
        }
        match lift(execute(&self.ops)?)? {
            ProofChild::Open(root) => Ok(WindowProof { root: Some(*root) }),
            ProofChild::Pruned(_) => Err(ProofError::Malformed("op proof root is pruned")),
        }
    }

    /// Verifies that `claimed` is exactly the answer to the window query
    /// `[lo, hi]`, against the trusted `root`.
    ///
    /// # Errors
    ///
    /// Same contract as [`WindowProof::verify`], plus
    /// [`ProofError::Malformed`] for invalid op programs.
    pub fn verify(
        &self,
        root: &Hash,
        lo: u64,
        hi: u64,
        claimed: &F::Claim,
    ) -> Result<(), ProofError> {
        self.to_window_proof()?.verify(root, lo, hi, claimed)
    }
}

impl OpProof<Plain> {
    /// Verifies that no entry exists at timestamp `ts` and returns the
    /// proven bracket: the two adjacent proven keys strictly below and
    /// above `ts` (a side is `None` exactly when the tree is proven to
    /// hold nothing on that side).
    ///
    /// Non-membership is the empty-result range proof over `[ts, ts]`:
    /// completeness of the range walk guarantees nothing in the window
    /// was omitted. The bracket keys are read from the opened boundary
    /// leaves, and *adjacency* is then proven by re-running the same
    /// partial tree as an empty-range proof over the open intervals
    /// `(pred, ts]` and `[ts, succ)` — so a prover cannot exhibit a
    /// distant key pair as the bracket.
    ///
    /// # Errors
    ///
    /// Any [`ProofError`] from [`OpProof::verify`]; in particular a
    /// proof whose opened boundary leaves actually contain `ts` fails
    /// with [`ProofError::Incomplete`], as does a bracket with unproven
    /// gaps on either side.
    pub fn verify_non_membership(
        &self,
        root: &Hash,
        ts: u64,
    ) -> Result<(Option<u64>, Option<u64>), ProofError> {
        let proof = self.to_window_proof()?;
        proof.verify(root, ts, ts, &[])?;
        let (pred, succ) = proof.bracket(ts);
        // Adjacency: `(pred, ts]` and `[ts, succ)` are empty windows of
        // the same proven tree (with a `None` side widening to the
        // domain end). `pred < ts < succ`, so neither bound arithmetic
        // can wrap.
        let below_lo = pred.map_or(0, |p| p.saturating_add(1));
        proof.verify(root, below_lo, ts, &[])?;
        let above_hi = succ.map_or(u64::MAX, |s| s.saturating_sub(1));
        proof.verify(root, ts, above_hi, &[])?;
        Ok((pred, succ))
    }
}

// --- serialization ---------------------------------------------------------

impl Encode for OpNode {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OpNode::Pruned(h) => {
                out.push(0);
                h.encode(out);
            }
            OpNode::Leaf(entries) => {
                out.push(1);
                encode_seq(entries, out);
            }
            OpNode::Internal(separators) => {
                out.push(2);
                encode_seq(separators, out);
            }
            OpNode::AggPruned(h, agg) => {
                out.push(3);
                h.encode(out);
                agg.encode(out);
            }
            OpNode::AggLeaf(entries) => {
                out.push(4);
                encode_seq(entries, out);
            }
            OpNode::AggInternal(separators) => {
                out.push(5);
                encode_seq(separators, out);
            }
            OpNode::MhtPruned(h) => {
                out.push(6);
                h.encode(out);
            }
            OpNode::MhtLeaf(h) => {
                out.push(7);
                h.encode(out);
            }
            OpNode::MhtNode => out.push(8),
        }
    }
}

impl Decode for OpNode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(OpNode::Pruned(Hash::decode(r)?)),
            1 => Ok(OpNode::Leaf(decode_seq(r)?)),
            2 => Ok(OpNode::Internal(decode_seq(r)?)),
            3 => Ok(OpNode::AggPruned(Hash::decode(r)?, Aggregate::decode(r)?)),
            4 => Ok(OpNode::AggLeaf(decode_seq(r)?)),
            5 => Ok(OpNode::AggInternal(decode_seq(r)?)),
            6 => Ok(OpNode::MhtPruned(Hash::decode(r)?)),
            7 => Ok(OpNode::MhtLeaf(Hash::decode(r)?)),
            8 => Ok(OpNode::MhtNode),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

impl Encode for ProofOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ProofOp::Push(node) => {
                out.push(0);
                node.encode(out);
            }
            ProofOp::PushInverted(node) => {
                out.push(1);
                node.encode(out);
            }
            ProofOp::Parent => out.push(2),
            ProofOp::Child => out.push(3),
        }
    }
}

impl Decode for ProofOp {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(ProofOp::Push(OpNode::decode(r)?)),
            1 => Ok(ProofOp::PushInverted(OpNode::decode(r)?)),
            2 => Ok(ProofOp::Parent),
            3 => Ok(ProofOp::Child),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

impl<F: Flavor> Encode for OpProof<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.ops, out);
    }
}

impl<F: Flavor> Decode for OpProof<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self::from_ops(decode_seq(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::hash::hash_bytes;

    fn leaf(keys: &[u64]) -> OpNode {
        OpNode::Leaf(
            keys.iter()
                .map(|k| (*k, hash_bytes(k.to_be_bytes())))
                .collect(),
        )
    }

    #[test]
    fn underflow_is_typed() {
        for program in [
            vec![ProofOp::Parent],
            vec![ProofOp::Child],
            vec![ProofOp::Push(leaf(&[1])), ProofOp::Parent],
        ] {
            assert!(matches!(
                execute(&program),
                Err(ProofError::Malformed("op stack underflow"))
            ));
        }
    }

    #[test]
    fn overflow_is_typed() {
        let program: Vec<ProofOp> = (0..=MAX_OP_STACK as u64)
            .map(|k| ProofOp::Push(leaf(&[k])))
            .collect();
        assert!(matches!(
            execute(&program),
            Err(ProofError::Malformed("op stack overflow"))
        ));
    }

    #[test]
    fn trailing_operands_rejected() {
        let program = vec![ProofOp::Push(leaf(&[1])), ProofOp::Push(leaf(&[2]))];
        assert!(matches!(
            execute(&program),
            Err(ProofError::Malformed("trailing operands on op stack"))
        ));
    }

    #[test]
    fn over_deep_program_rejected() {
        // Push/Parent loop: two ops per level, stack never above two,
        // tree depth grows unbounded without the depth check.
        let mut program = vec![ProofOp::Push(leaf(&[1]))];
        for _ in 0..MAX_PROOF_DEPTH + 1 {
            program.push(ProofOp::Push(OpNode::Internal(Vec::new())));
            program.push(ProofOp::Parent);
        }
        assert!(matches!(
            execute(&program),
            Err(ProofError::Malformed("op-stream proof too deep"))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        // Shell with one separator needs two children, gets one.
        let program = vec![
            ProofOp::Push(leaf(&[1])),
            ProofOp::Push(OpNode::Internal(vec![5])),
            ProofOp::Parent,
        ];
        assert!(matches!(
            execute(&program),
            Err(ProofError::Malformed("op-stream arity mismatch"))
        ));
    }

    #[test]
    fn attach_to_leaf_rejected() {
        let program = vec![
            ProofOp::Push(leaf(&[1])),
            ProofOp::Push(leaf(&[2])),
            ProofOp::Parent,
        ];
        assert!(matches!(
            execute(&program),
            Err(ProofError::Malformed("attach to non-shell node"))
        ));
    }

    #[test]
    fn inverted_push_of_leaf_rejected() {
        let program = vec![ProofOp::PushInverted(leaf(&[1]))];
        assert!(matches!(
            execute(&program),
            Err(ProofError::Malformed("inverted push of non-shell node"))
        ));
    }

    #[test]
    fn family_mix_rejected() {
        // An aggregate leaf under an MB-tree shell executes fine but
        // fails the family check when lifted for MB verification.
        let program = vec![
            ProofOp::Push(OpNode::AggLeaf(vec![(1, 10)])),
            ProofOp::Push(OpNode::Internal(Vec::new())),
            ProofOp::Parent,
        ];
        let partial = execute(&program).expect("structurally valid");
        assert!(matches!(
            lift::<Plain>(partial),
            Err(ProofError::Malformed("op node family mismatch"))
        ));
    }

    #[test]
    fn inverted_stream_verifies_like_plain() {
        let mut tree = crate::MbTree::new(4);
        for ts in 0..8u64 {
            tree.insert(ts, vec![ts as u8]);
        }
        let (results, _) = tree.range(0, 7);
        let plain = tree.prove_ops(&[(0, 7)]);
        plain.verify(&tree.root(), 0, 7, &results).expect("plain");

        // Re-encode the same partial tree right-to-left by hand: the
        // root shell is pushed inverted after its *last* child.
        let partial = execute(plain.ops()).expect("valid program");
        let mut ops = Vec::new();
        fn emit_inverted(p: &Partial, ops: &mut Vec<ProofOp>) {
            if p.children.is_empty() {
                ops.push(ProofOp::Push(p.node.clone()));
                return;
            }
            for (i, child) in p.children.iter().rev().enumerate() {
                emit_inverted(child, ops);
                if i == 0 {
                    ops.push(ProofOp::PushInverted(p.node.clone()));
                    ops.push(ProofOp::Parent);
                } else {
                    ops.push(ProofOp::Child);
                }
            }
        }
        emit_inverted(&partial, &mut ops);
        let inverted = MbOpProof::from_ops(ops);
        assert_ne!(inverted.ops(), plain.ops(), "distinct programs");
        inverted
            .verify(&tree.root(), 0, 7, &results)
            .expect("inverted program reconstructs the same tree");
    }

    #[test]
    fn op_roundtrip_codec() {
        let ops = vec![
            ProofOp::Push(leaf(&[3, 9])),
            ProofOp::PushInverted(OpNode::Internal(vec![7])),
            ProofOp::Parent,
            ProofOp::Push(OpNode::AggPruned(hash_bytes(b"x"), Aggregate::of(4))),
            ProofOp::Child,
            ProofOp::Push(OpNode::MhtNode),
            ProofOp::Push(OpNode::MhtLeaf(hash_bytes(b"l"))),
            ProofOp::Push(OpNode::MhtPruned(hash_bytes(b"p"))),
        ];
        let proof = MbOpProof::from_ops(ops.clone());
        let bytes = proof.to_encoded_bytes();
        assert_eq!(bytes.len(), proof.size_bytes(), "size accounting is exact");
        let back = MbOpProof::decode_all(&bytes).expect("roundtrip");
        assert_eq!(back.ops(), &ops[..]);
    }
}
