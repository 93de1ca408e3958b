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
//!   proof, transaction root and signatures — spelled once for the full
//!   node, the header store and the enclave's `blk_verify_t`,
//! - [`node`]: a mining/validating full node that executes blocks and
//!   maintains tip state, checking a block's signatures in lanes across
//!   its cores,
//! - [`genesis`]: deterministic genesis construction.
//!
//! [`Call`]: dcert_vm::Call
//! [`StateReader`]: dcert_vm::StateReader

#![forbid(unsafe_code)]

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
