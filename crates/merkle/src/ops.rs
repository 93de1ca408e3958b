//! Window proofs are programs (after the Merk/GroveDB design, generalized
//! to DCert's n-ary B+-trees).
//!
//! A [`BTree`](crate::btree::BTree) answers a window with **one** proof:
//! the tree pruned to what the window needs, written as a post-order
//! program for a tiny stack machine. Adjacent keys share every interior
//! node.
//!
//! - [`ProofOp::Push`] — push a node (an opened leaf, a pruned subtree's
//!   hash and annotation, or an internal node's separators) onto the
//!   stack;
//! - [`ProofOp::Parent`] — pop an internal node, pop the node below it,
//!   attach the node as the internal node's first child, push it back;
//! - [`ProofOp::Child`] — pop a node, attach it as the next child of the
//!   internal node now on top.
//!
//! The prover walk ([`BTree::window`](crate::btree::BTree::window)) pushes
//! ops as it descends. The verifier executes the program — a loop over a
//! flat `Vec`, with a bounded stack ([`MAX_OP_STACK`]) and a bounded tree
//! depth ([`MAX_PROOF_DEPTH`]), borrowing every node from the program —
//! and then walks the executed tree once: order, bounds, completeness,
//! node hashes, root, claim ([`OpProof::verify`]). Nothing on the way from
//! untrusted bytes to a verdict recurses deeper than the depth bound: the
//! decoder is a loop over a flat sequence, and dropping a decoded proof
//! frees one `Vec`.
//!
//! Every malformed program — stack underflow, overflow, arity mismatch,
//! trailing operands — returns a typed [`ProofError`]; the executor never
//! panics on attacker-controlled input. The pushed node is typed by the
//! tree's [`Flavor`] and the two flavors' wire tags are disjoint, so a
//! program mixing node families does not decode.

use dcert_primitives::codec::Encode;
use dcert_primitives::hash::Hash;

use crate::btree::{check, Flavor, Plain, Shape, Summed};
use crate::ProofError;

/// Maximum operand-stack height while executing an op stream.
///
/// A left-to-right post-order encoding of a tree needs at most
/// `depth + 1` slots; DCert's B-trees (order ≥ 3 over u64 keys) never
/// exceed ~64 levels, so an honest proof stays far below this. Deeper
/// programs are rejected, not executed.
pub const MAX_OP_STACK: usize = 64;

/// Maximum depth of the executed tree.
///
/// The stack bound alone does not bound tree depth (a `Push`/`Parent`
/// loop deepens the tree with a two-high stack), and the verifier walk
/// over the executed tree is recursive — so the executor tracks subtree
/// depth at every attach and rejects programs that nest deeper than any
/// honest tree can.
pub const MAX_PROOF_DEPTH: usize = 64;

/// One instruction of the proof program. See the
/// [module documentation](self) for the machine's semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofOp<F: Flavor> {
    /// Push a node; an internal node collects children left-to-right.
    Push(Shape<F>),
    /// Pop the internal node on top, then the node below it; attach the
    /// node as the internal node's first child and push it back.
    Parent,
    /// Pop the node on top; attach it as the next child of the internal
    /// node now on top.
    Child,
}

/// The most children an executed node reserves room for when it is
/// pushed. An honest node has at most the tree's order (16 in DCert's
/// indexes); a node claiming more grows as its children attach, so a
/// hostile separator list reserves no more than this.
const PRESIZED_ARITY: usize = 64;

/// A node of the executed tree: a pushed node, borrowed from the program,
/// and the children the program attached to it.
#[derive(Debug)]
pub(crate) struct Executed<'a, F: Flavor> {
    pub(crate) shape: &'a Shape<F>,
    pub(crate) children: Vec<Executed<'a, F>>,
    /// Height of this subtree (leaf = 1); bounded by [`MAX_PROOF_DEPTH`].
    depth: usize,
}

/// Closes a node: holds an internal node to its arity. (Attach rejects
/// every other parent, so a leaf or pruned node never has children.)
fn close<F: Flavor>(node: Executed<'_, F>) -> Result<Executed<'_, F>, ProofError> {
    if let Shape::Internal(separators) = node.shape {
        if node.children.len() != separators.len() + 1 {
            return Err(ProofError::Malformed("op-stream arity mismatch".into()));
        }
    }
    Ok(node)
}

/// Attaches `child` (closing it) as the next child of `parent`.
fn attach<'a, F: Flavor>(
    mut parent: Executed<'a, F>,
    child: Executed<'a, F>,
) -> Result<Executed<'a, F>, ProofError> {
    if !matches!(parent.shape, Shape::Internal(_)) {
        return Err(ProofError::Malformed("attach to non-shell node".into()));
    }
    let child = close(child)?;
    let lifted = child.depth.saturating_add(1);
    if lifted > MAX_PROOF_DEPTH {
        return Err(ProofError::Malformed("op-stream proof too deep".into()));
    }
    parent.depth = parent.depth.max(lifted);
    parent.children.push(child);
    Ok(parent)
}

fn pop<'a, F: Flavor>(stack: &mut Vec<Executed<'a, F>>) -> Result<Executed<'a, F>, ProofError> {
    stack
        .pop()
        .ok_or(ProofError::Malformed("op stack underflow".into()))
}

/// Executes an op program and returns the closed root of the tree it
/// describes. All failure modes are typed [`ProofError`]s.
fn execute<F: Flavor>(ops: &[ProofOp<F>]) -> Result<Executed<'_, F>, ProofError> {
    let mut stack: Vec<Executed<'_, F>> = Vec::new();
    for op in ops {
        match op {
            ProofOp::Push(shape) => {
                if stack.len() >= MAX_OP_STACK {
                    return Err(ProofError::Malformed("op stack overflow".into()));
                }
                // Room for the children an internal node declares, so
                // attaching them does not regrow the `Vec`.
                let arity = match shape {
                    Shape::Internal(separators) => separators.len().saturating_add(1),
                    Shape::Leaf(_) | Shape::Pruned(_) => 0,
                };
                stack.push(Executed {
                    shape,
                    children: Vec::with_capacity(arity.min(PRESIZED_ARITY)),
                    depth: 1,
                });
            }
            ProofOp::Parent => {
                let parent = pop(&mut stack)?;
                let child = pop(&mut stack)?;
                stack.push(attach(parent, child)?);
            }
            ProofOp::Child => {
                let child = pop(&mut stack)?;
                let parent = pop(&mut stack)?;
                stack.push(attach(parent, child)?);
            }
        }
    }
    let root = stack
        .pop()
        .ok_or(ProofError::Malformed("empty op stream".into()))?;
    if !stack.is_empty() {
        return Err(ProofError::Malformed(
            "trailing operands on op stack".into(),
        ));
    }
    close(root)
}

/// A completeness proof for a window query over a
/// [`BTree`](crate::btree::BTree): the tree pruned to what the window
/// needs, as one program.
///
/// An empty program is the proof for the empty tree (root
/// [`Hash::ZERO`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProof<F: Flavor> {
    ops: Vec<ProofOp<F>>,
}

/// Window proof of an [`MbTree`](crate::MbTree).
pub type MbOpProof = OpProof<Plain>;
/// Window-aggregate proof of an [`AggMbTree`](crate::AggMbTree).
pub type AggOpProof = OpProof<Summed>;

impl<F: Flavor> OpProof<F> {
    pub(crate) fn from_ops(ops: Vec<ProofOp<F>>) -> Self {
        OpProof { ops }
    }

    /// The proof program.
    pub fn ops(&self) -> &[ProofOp<F>] {
        &self.ops
    }

    /// Serialized size in bytes (exactly the encoded length).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Verifies that `claimed` is exactly the answer to the window query
    /// `[lo, hi]` — every entry in the window for [`Plain`], their
    /// aggregate for [`Summed`] — against the trusted `root`.
    ///
    /// # Errors
    ///
    /// - [`ProofError::Malformed`] for an invalid program or a structural
    ///   violation in the tree it describes,
    /// - [`ProofError::RootMismatch`] if the proof does not recompute to
    ///   `root`,
    /// - [`ProofError::Incomplete`] if a subtree the window needs was
    ///   pruned, or the claim omits, adds or alters anything relative to
    ///   the proof.
    pub fn verify(
        &self,
        root: &Hash,
        lo: u64,
        hi: u64,
        claimed: &F::Claim,
    ) -> Result<(), ProofError> {
        let mut proven = F::nothing_proven(claimed);
        // The empty program is the empty tree.
        let computed = if self.ops.is_empty() {
            Hash::ZERO
        } else {
            check(&execute(&self.ops)?, None, None, (lo, hi), &mut proven)?.hash
        };
        if computed != *root {
            return Err(ProofError::RootMismatch);
        }
        F::check_claim(&proven, claimed)
    }
}

// --- serialization ---------------------------------------------------------

dcert_primitives::wire! {
    enum ProofOp<F: Flavor> {
        0 => Push(shape),
        // Tag 1 is unassigned: one tree has one program.
        2 => Parent,
        3 => Child,
    }
    struct OpProof<F: Flavor> { ops: seq }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::{Aggregate, Summary};
    use dcert_primitives::codec::Decode;
    use dcert_primitives::hash::hash_bytes;
    use dcert_primitives::CodecError;

    type Op = ProofOp<Plain>;

    fn leaf(keys: &[u64]) -> Shape<Plain> {
        Shape::Leaf(
            keys.iter()
                .map(|k| (*k, hash_bytes(k.to_be_bytes())))
                .collect(),
        )
    }

    fn refusal(program: &[Op]) -> ProofError {
        execute(program).expect_err("hostile program")
    }

    #[test]
    fn underflow_is_typed() {
        for program in [
            vec![Op::Parent],
            vec![Op::Child],
            vec![Op::Push(leaf(&[1])), Op::Parent],
        ] {
            assert_eq!(
                refusal(&program),
                ProofError::Malformed("op stack underflow".into())
            );
        }
    }

    #[test]
    fn overflow_is_typed() {
        let program: Vec<Op> = (0..=MAX_OP_STACK as u64)
            .map(|k| Op::Push(leaf(&[k])))
            .collect();
        assert_eq!(
            refusal(&program),
            ProofError::Malformed("op stack overflow".into())
        );
    }

    #[test]
    fn trailing_operands_rejected() {
        let program = vec![Op::Push(leaf(&[1])), Op::Push(leaf(&[2]))];
        assert_eq!(
            refusal(&program),
            ProofError::Malformed("trailing operands on op stack".into())
        );
    }

    #[test]
    fn over_deep_program_rejected() {
        // Push/Parent loop: two ops per level, stack never above two,
        // tree depth grows unbounded without the depth check.
        let mut program = vec![Op::Push(leaf(&[1]))];
        for _ in 0..MAX_PROOF_DEPTH + 1 {
            program.push(Op::Push(Shape::Internal(Vec::new())));
            program.push(Op::Parent);
        }
        assert_eq!(
            refusal(&program),
            ProofError::Malformed("op-stream proof too deep".into())
        );
    }

    #[test]
    fn arity_mismatch_rejected() {
        // Shell with one separator needs two children, gets one.
        let program = vec![
            Op::Push(leaf(&[1])),
            Op::Push(Shape::Internal(vec![5])),
            Op::Parent,
        ];
        assert_eq!(
            refusal(&program),
            ProofError::Malformed("op-stream arity mismatch".into())
        );
    }

    #[test]
    fn attach_to_leaf_rejected() {
        let program = vec![Op::Push(leaf(&[1])), Op::Push(leaf(&[2])), Op::Parent];
        assert_eq!(
            refusal(&program),
            ProofError::Malformed("attach to non-shell node".into())
        );
    }

    #[test]
    fn pruned_root_rejected() {
        let pruned = Shape::Pruned(Summary {
            hash: hash_bytes(b"root"),
            ann: (),
        });
        let proof = MbOpProof::from_ops(vec![Op::Push(pruned)]);
        assert_eq!(
            proof.verify(&hash_bytes(b"root"), 0, 9, &[]),
            Err(ProofError::Malformed("op proof root is pruned".into()))
        );
    }

    #[test]
    fn family_mix_rejected() {
        // The pushed node is typed by the proof's flavor and the flavors'
        // wire tags are disjoint: an aggregate leaf under an MB-tree
        // shell — or an honest program of the other flavor — is refused
        // by the decoder, before any machine runs.
        let mixed = [
            vec![0, Summed::OP_TAG + 1, 0, 0, 0, 0], // Push(AggLeaf[])
            vec![0, Plain::OP_TAG + 2, 0, 0, 0, 0],  // Push(Internal[])
            vec![2],                                 // Parent
        ];
        let mut bytes = 3u32.to_be_bytes().to_vec();
        bytes.extend(mixed.concat());
        assert_eq!(
            MbOpProof::decode_all(&bytes),
            Err(CodecError::InvalidTag(Summed::OP_TAG + 1))
        );
        assert_eq!(
            AggOpProof::decode_all(&bytes),
            Err(CodecError::InvalidTag(Plain::OP_TAG + 2))
        );

        let mut tree = crate::AggMbTree::new(4);
        tree.insert(1, 10);
        let honest = tree.window(0, 9).1.to_encoded_bytes();
        AggOpProof::decode_all(&honest).expect("own flavor decodes");
        assert!(MbOpProof::decode_all(&honest).is_err());
    }

    #[test]
    fn op_roundtrip_codec() {
        let ops = vec![
            Op::Push(leaf(&[3, 9])),
            Op::Push(Shape::Internal(vec![7])),
            Op::Parent,
            Op::Push(Shape::Pruned(Summary {
                hash: hash_bytes(b"x"),
                ann: (),
            })),
            Op::Child,
        ];
        let proof = MbOpProof::from_ops(ops.clone());
        let bytes = proof.to_encoded_bytes();
        assert_eq!(bytes.len(), proof.size_bytes(), "size accounting is exact");
        let back = MbOpProof::decode_all(&bytes).expect("roundtrip");
        assert_eq!(back.ops(), &ops[..]);

        let summed = AggOpProof::from_ops(vec![
            ProofOp::Push(Shape::Leaf(vec![(1, 10)])),
            ProofOp::Push(Shape::Internal(vec![5])),
            ProofOp::Parent,
            ProofOp::Push(Shape::Pruned(Summary {
                hash: hash_bytes(b"x"),
                ann: Aggregate::of(4),
            })),
            ProofOp::Child,
        ]);
        let bytes = summed.to_encoded_bytes();
        assert_eq!(bytes.len(), summed.size_bytes(), "size accounting is exact");
        assert_eq!(AggOpProof::decode_all(&bytes), Ok(summed));
    }
}
