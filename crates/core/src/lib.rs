//! DCert: decentralized certification for superlight blockchain clients.
//!
//! This crate is the paper's contribution (Ji, Xu, Zhang, Xu —
//! Middleware '22): an SGX-backed framework in which a *Certificate
//! Issuer* full node recursively certifies every block of an existing
//! blockchain, so that a *superlight client* can validate the whole chain
//! — and rich verifiable queries over it — from a single constant-size
//! certificate.
//!
//! # Architecture
//!
//! - [`Certificate`]: `⟨pk_enc, rep, dig, sig⟩` (Section 3.3),
//! - [`CertProgram`]: the trusted in-enclave program — Algorithm 2
//!   (`ecall_sig_gen` / `blk_verify_t` / `cert_verify_t`), Algorithm 4
//!   (augmented), Algorithm 5 (hierarchical) as one request that signs the
//!   block certificate and every index certificate off one replay: one replay
//!   walk over borrowed links running the full node's own
//!   `dcert_chain::validity` rule, one recursion-anchor check,
//! - the certification core (the private `engine` module): the one
//!   definition of each untrusted step of Algorithm 1 — enclave boot and
//!   attestation, link building, request marshalling, ECall dispatch,
//!   certificate assembly and chaining — driven by three engines:
//!   [`CertificateIssuer`] inline on the calling thread, [`CertPipeline`]
//!   across a sequencer, a preparer pool, an issuer and a publisher thread,
//!   and [`ShardedCertEngine`] across parallel shard enclaves plus an
//!   aggregator — all three byte-identical at every height (DESIGN.md §4),
//! - [`SuperlightClient`]: Algorithm 3 — one acceptance path behind its
//!   three `validate_*` entries — plus index-certificate tracking,
//! - [`IndexVerifier`]: the extension point through which authenticated
//!   indexes (in `dcert-query`) plug their trusted update checks into the
//!   enclave.
//!
//! # Example: certify a chain and validate it in constant cost
//!
//! ```
//! use std::sync::Arc;
//! use dcert_chain::{FullNode, GenesisBuilder, ProofOfWork, Transaction};
//! use dcert_core::{expected_measurement, CertificateIssuer, SuperlightClient};
//! use dcert_primitives::hash::Address;
//! use dcert_primitives::keys::Keypair;
//! use dcert_sgx::{AttestationService, CostModel};
//! use dcert_vm::{ContractRegistry, Executor};
//!
//! // Shared chain semantics.
//! let mut registry = ContractRegistry::new();
//! registry.register(Arc::new(dcert_vm::testing::CounterContract));
//! let executor = Executor::new(Arc::new(registry));
//! let engine = Arc::new(ProofOfWork::new(4));
//! let (genesis, state) = GenesisBuilder::new().build();
//!
//! // A miner, the IAS, and a Certificate Issuer.
//! let mut miner = FullNode::new(&genesis, state.clone(), executor.clone(),
//!     engine.clone(), Address::from_seed(1));
//! let mut ias = AttestationService::with_seed([42; 32]);
//! let mut ci = CertificateIssuer::new(&genesis, state, executor, engine,
//!     Vec::new(), &mut ias, CostModel::zero())?;
//!
//! // Mine and certify two blocks.
//! let key = Keypair::from_seed([7; 32]);
//! let tx = Transaction::sign(&key, 0, "counter", b"bump".to_vec());
//! let b1 = miner.mine(vec![tx], 1)?;
//! let (cert1, _) = ci.certify_block(&b1)?;
//! let b2 = miner.mine(Vec::new(), 2)?;
//! let (cert2, _) = ci.certify_block(&b2)?;
//!
//! // A superlight client validates the chain from the latest certificate.
//! let mut client = SuperlightClient::new(ias.public_key(), expected_measurement());
//! client.validate_chain(&b2.header, &cert2)?;
//! assert_eq!(client.height(), Some(2));
//! # let _ = cert1;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod cert;
pub mod ci;
mod engine;
pub mod error;
pub mod messages;
pub mod netsim;
pub mod network;
pub mod persist;
pub mod pipeline;
pub mod program;
pub mod quorum;
pub mod range;
pub mod shard;
pub mod superlight;
pub mod verifier;

pub use cert::Certificate;
pub use ci::{CertBreakdown, CertificateIssuer};
pub use error::{CertError, ShardError};
pub use messages::{BatchLink, BlockInput, EcallRequest, EcallResponse, IndexInput};
pub use netsim::{FaultConfig, NetStats, Partition, SimNet};
pub use network::{CertArchive, Gossip, NetMessage, Transport};
pub use persist::RecoverError;
pub use pipeline::{
    CertJob, CertPipeline, DeadLetter, ParallelismConfig, PipelineConfig, PipelineReport,
    PublishPolicy,
};
pub use program::{expected_measurement, CertProgram, CODE_IDENTITY};
pub use quorum::{QuorumClient, TrustDomain};
pub use range::RangeCert;
pub use shard::{
    HeightRange, ShardFailurePlan, ShardFleetConfig, ShardKill, ShardPlan, ShardedCertEngine,
    SharedStore,
};
pub use superlight::{SuperlightClient, SyncOutcome};
pub use verifier::IndexVerifier;
