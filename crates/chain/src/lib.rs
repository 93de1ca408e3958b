//! Blockchain substrate for DCert.
//!
//! DCert is "compatible with existing blockchain systems" (design goal G2
//! of the paper): it treats the chain as a black box exposing block headers
//! `⟨H_prev, π_cons, H_state, H_tx⟩`, Merkle-authenticated global state,
//! and deterministic transaction execution. This crate provides that black
//! box — an Ethereum-style prototype chain:
//!
//! - [`tx`]: Ed25519-signed transactions wrapping VM [`Call`]s,
//! - [`block`]: headers and blocks with the exact four header fields of
//!   Fig. 1 (plus height/timestamp/miner metadata),
//! - [`consensus`]: pluggable consensus engines — proof-of-work with a
//!   leading-zero-bits difficulty target, and proof-of-authority for tests,
//! - [`state`]: the global state as a sparse-Merkle-tree commitment
//!   implementing the VM's [`StateReader`],
//! - [`store`]: a fork-aware header/block store with longest-chain
//!   selection,
//! - [`validity`]: the block-validity rule — link, height, consensus
//!   proof, transaction root and signatures — spelled once for the
//!   enclave's `blk_verify_t`, the header store and the following full
//!   node (which leaves the signatures to the enclave),
//! - [`node`]: a mining/following full node that executes blocks and
//!   maintains tip state,
//! - [`genesis`]: deterministic genesis construction.
//!
//! [`Call`]: dcert_vm::Call
//! [`StateReader`]: dcert_vm::StateReader

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

pub mod block;
pub mod consensus;
pub mod error;
pub mod genesis;
pub mod node;
pub mod state;
pub mod store;
pub mod tx;
pub mod validity;

pub use block::{Block, BlockHeader};
pub use consensus::{ConsensusEngine, ConsensusProof, ProofOfAuthority, ProofOfWork};
pub use error::ChainError;
pub use genesis::GenesisBuilder;
pub use node::FullNode;
pub use state::ChainState;
pub use store::ChainStore;
pub use tx::{address_of, Transaction};
