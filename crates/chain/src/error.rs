//! Chain error types.

use std::borrow::Cow;
use std::fmt;

use dcert_primitives::hash::Hash;

/// An error raised while validating transactions, headers, or blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A transaction signature failed to verify.
    BadTxSignature,
    /// A transaction's sender address does not match its public key.
    SenderMismatch,
    /// The header's `prev_hash` does not match the parent header.
    BrokenLink {
        /// What the header claims.
        claimed: Hash,
        /// The actual parent digest.
        actual: Hash,
    },
    /// The header's height is not parent height + 1.
    BadHeight {
        /// Parent height.
        parent: u64,
        /// Child's claimed height.
        child: u64,
    },
    /// The consensus proof failed verification.
    BadConsensus(Cow<'static, str>),
    /// The header's transaction root does not match the block's body.
    TxRootMismatch,
    /// The header's state root does not match the executed post-state.
    StateRootMismatch,
    /// A block references an unknown parent.
    UnknownParent(Hash),
    /// The block is already stored.
    Duplicate(Hash),
    /// A genesis block was malformed (e.g. non-zero height or prev hash).
    BadGenesis(Cow<'static, str>),
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadTxSignature => write!(f, "transaction signature invalid"),
            ChainError::SenderMismatch => {
                write!(f, "transaction sender does not match public key")
            }
            ChainError::BrokenLink { claimed, actual } => write!(
                f,
                "previous-hash link broken: claimed {claimed}, actual {actual}"
            ),
            ChainError::BadHeight { parent, child } => {
                write!(f, "bad height: parent {parent}, child {child}")
            }
            ChainError::BadConsensus(why) => write!(f, "consensus proof invalid: {why}"),
            ChainError::TxRootMismatch => write!(f, "transaction root mismatch"),
            ChainError::StateRootMismatch => write!(f, "state root mismatch"),
            ChainError::UnknownParent(hash) => write!(f, "unknown parent {hash}"),
            ChainError::Duplicate(hash) => write!(f, "duplicate block {hash}"),
            ChainError::BadGenesis(why) => write!(f, "bad genesis: {why}"),
        }
    }
}

impl std::error::Error for ChainError {}

// One tag byte per variant, then its fields: a refusal crosses the ECall as itself.
dcert_primitives::wire! {
    enum ChainError {
        0 => BadTxSignature,
        1 => SenderMismatch,
        2 => BrokenLink { claimed, actual },
        3 => BadHeight { parent, child },
        4 => BadConsensus(why),
        5 => TxRootMismatch,
        6 => StateRootMismatch,
        7 => UnknownParent(hash),
        8 => Duplicate(hash),
        9 => BadGenesis(why),
    }
}
