//! Authenticated data structures for the DCert framework.
//!
//! The paper builds every integrity argument on Merkle-style commitments
//! (Section 2.1). This crate implements, from scratch, each structure the
//! system needs:
//!
//! - [`mht`]: the **transaction-root fold** — the hash rule of the classic
//!   static Merkle tree, computing the per-block transaction commitment
//!   `H_tx`. A hash rule, not a tree: nothing proves against `H_tx`, so no
//!   tree is kept and there is no proof form.
//! - [`smt`]: a compact **sparse Merkle tree** over an unbounded key space —
//!   every keyed commitment in the system: the global state `H_state`, the
//!   inverted index's dictionary and the upper level of the two-level query
//!   indexes (Fig. 5). Crucially it supports *stateless*
//!   multiproofs ([`smt::SmtProof`]): given only a proof, a verifier (the
//!   enclave in Algorithm 2) can (a) authenticate a read set, (b)
//!   authenticate the neighborhood of a write set, and (c) compute the
//!   post-write root without holding the tree — the `verify_mht`/`update`
//!   pair of the paper.
//! - [`btree`]: **one annotated Merkle B+-tree, two flavors** — the lower
//!   level of the two-level indexes, keyed by timestamp. [`MbTree`] (after
//!   Li et al. SIGMOD'06: per-entry value digests, unit annotation)
//!   answers time-window range queries with completeness guarantees;
//!   [`AggMbTree`] (raw `u64` entries, a count/sum/min/max [`Aggregate`]
//!   bound into every node hash) answers window aggregations with
//!   O(log n) proofs. Both are the same generic [`btree::BTree`]: one
//!   insert, one window prover, one window verifier, one stateless
//!   rightmost append the enclave replays.
//! - [`ops`]: **the window proof** — the pruned B+-tree written as one
//!   bounded post-order program per window. The prover walk pushes it, an
//!   iterative executor rebuilds the tree it describes, and the one
//!   verifier walk checks that tree.
//!
//! Each of the two trees has exactly one proof form: a compact multiproof
//! ([`SmtProof`]) and a program ([`ops::OpProof`]).
//!
//! All node hashes are domain-separated (see [`domain`]) so that a node of
//! one structure can never be confused with a node of another.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

use std::borrow::Cow;

pub mod btree;
pub mod mht;
pub mod ops;
pub mod smt;

pub use btree::{AggAppendProof, AggMbTree, Aggregate, MbAppendProof, MbTree};
pub use mht::set_build_threads;
pub use ops::{AggOpProof, MbOpProof, ProofOp, MAX_OP_STACK, MAX_PROOF_DEPTH};
pub use smt::{SmtProof, SparseMerkleTree};

/// Domain-separation tags for node hashing.
///
/// Each authenticated structure hashes its nodes as
/// `H(tag || payload)`, with a tag unique to the structure and node kind.
pub mod domain {
    /// Declares the tags and, for the tests, the table of all of them —
    /// so a tag cannot be added without entering the distinctness check.
    macro_rules! tags {
        ($($(#[$doc:meta])* $name:ident = $value:literal;)*) => {
            $($(#[$doc])* pub const $name: u8 = $value;)*
            #[cfg(test)]
            pub(crate) const ALL: &[(&str, u8)] = &[$((stringify!($name), $name)),*];
        };
    }

    tags! {
        /// Sparse-Merkle-tree leaf: `H(tag || key || value_hash)`.
        SMT_LEAF = 0x01;
        /// Sparse-Merkle-tree branch: `H(tag || bit || prefix || left || right)`.
        SMT_BRANCH = 0x02;
        /// Transaction-root leaf: `H(tag || item)`.
        MHT_LEAF = 0x03;
        /// Transaction-root inner node: `H(tag || left || right)`.
        MHT_NODE = 0x04;
        // 0x05–0x07 were the Patricia trie's; retired with it, not reused.
        /// Merkle-B-tree leaf node ([`Plain`](crate::btree::Plain) flavor).
        MBT_LEAF = 0x08;
        /// Merkle-B-tree internal node ([`Plain`](crate::btree::Plain) flavor).
        MBT_NODE = 0x09;
        /// Authenticated skip-list node (used by the LineageChain baseline).
        SKIP_NODE = 0x0a;
        /// Inverted-index dictionary entry.
        INV_ENTRY = 0x0b;
        /// Aggregate-annotated B-tree leaf node
        /// ([`Summed`](crate::btree::Summed) flavor).
        AGG_LEAF = 0x0c;
        /// Aggregate-annotated B-tree internal node
        /// ([`Summed`](crate::btree::Summed) flavor).
        AGG_NODE = 0x0d;
    }
}

/// Errors returned when verifying or applying Merkle proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// The recomputed root does not match the trusted commitment.
    RootMismatch,
    /// The proof is structurally malformed (wrong arity, missing evidence).
    Malformed(Cow<'static, str>),
    /// The proof does not cover a key that the operation needs.
    MissingKey,
    /// The claimed result set is inconsistent with the proof contents
    /// (e.g. an omitted in-range entry in a range query).
    Incomplete(Cow<'static, str>),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::RootMismatch => write!(f, "recomputed root does not match commitment"),
            ProofError::Malformed(what) => write!(f, "malformed proof: {what}"),
            ProofError::MissingKey => write!(f, "proof does not cover a required key"),
            ProofError::Incomplete(what) => write!(f, "incomplete result: {what}"),
        }
    }
}

impl std::error::Error for ProofError {}

// One tag byte per variant, then its fields: a refusal crosses the ECall as itself.
dcert_primitives::wire! {
    enum ProofError {
        0 => RootMismatch,
        1 => Malformed(what),
        2 => MissingKey,
        3 => Incomplete(what),
    }
}

#[cfg(test)]
mod tests {
    use super::domain;

    #[test]
    fn domain_tags_are_pairwise_distinct() {
        for (i, (name, tag)) in domain::ALL.iter().enumerate() {
            for (other, other_tag) in domain::ALL.iter().skip(i + 1) {
                assert_ne!(tag, other_tag, "{name} and {other} share a domain tag");
            }
        }
    }
}
