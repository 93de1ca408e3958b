//! The **naive** certificate program: ships the *entire* pre-block state
//! into the enclave instead of Merkle proofs.
//!
//! Section 4.1 of the paper dismisses this design ("impractical due to the
//! large size of the state data and the limited memory of the enclave")
//! before introducing the stateless approach. This module implements it
//! anyway, so the ablation benchmark (`ablation_stateless`) can *measure*
//! the difference: the naive ECall marshals the whole state (cost linear
//! in state size, with a paging cliff past the EPC budget), while DCert's
//! stateless ECall marshals only read/write sets and proofs (cost
//! independent of state size).
//!
//! It is also the reference model beside the [`World`](super::World):
//! sequential, unbatched, whole-state, with its own spelling of every
//! check rather than a call into `dcert_core`'s engine or certificate
//! program, and its key drawn from [`SIGNING_SEED`] so its signatures
//! replay.

use std::sync::Arc;

use dcert_chain::{Block, BlockHeader, ConsensusEngine};
use dcert_core::{CertError, Certificate};
use dcert_merkle::SparseMerkleTree;
use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{Keypair, PublicKey, Signature};
use dcert_sgx::TrustedApp;
use dcert_vm::{Executor, StateKey, StateReader, VmError};

use super::SIGNING_SEED;

/// Code identity of the naive program (distinct measurement from the real
/// certificate program).
pub const NAIVE_CODE_IDENTITY: &[u8] = b"dcert-naive-full-state-program-v1";

/// The naive ECall request: previous block + certificate, the new block,
/// and **every** pre-block state entry.
#[derive(Debug, Clone)]
pub struct NaiveRequest {
    pub prev_header: BlockHeader,
    pub prev_cert: Option<Certificate>,
    pub block: Block,
    /// The complete pre-block state (hashed key paths → values).
    pub state: Vec<(Hash, Vec<u8>)>,
}

impl Encode for NaiveRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prev_header.encode(out);
        self.prev_cert.encode(out);
        self.block.encode(out);
        encode_seq(&self.state, out);
    }
}

impl Decode for NaiveRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NaiveRequest {
            prev_header: BlockHeader::decode(r)?,
            prev_cert: Option::<Certificate>::decode(r)?,
            block: Block::decode(r)?,
            state: decode_seq(r)?,
        })
    }
}

/// The naive trusted program: rebuilds the state tree from the marshalled
/// state, authenticates it against `H_{i-1}^s`, re-executes the block, and
/// checks the resulting root.
pub struct NaiveCertProgram {
    genesis_digest: Hash,
    ias_key: PublicKey,
    executor: Executor,
    engine: Arc<dyn ConsensusEngine>,
    keypair: Option<Keypair>,
}

impl NaiveCertProgram {
    /// Builds the program.
    pub fn new(
        genesis_digest: Hash,
        ias_key: PublicKey,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
    ) -> Self {
        NaiveCertProgram {
            genesis_digest,
            ias_key,
            executor,
            engine,
            keypair: None,
        }
    }

    /// Handles one decoded request (`None` input = Init).
    fn handle(&mut self, request: Option<NaiveRequest>) -> Result<Response, CertError> {
        let Some(request) = request else {
            let kp = self
                .keypair
                .get_or_insert_with(|| Keypair::from_seed(SIGNING_SEED));
            return Ok(Response::Initialized(kp.public()));
        };
        let kp = self.keypair.as_ref().ok_or(CertError::NotInitialized)?;

        // Previous-certificate / genesis check (same as Algorithm 2).
        if request.prev_header.height == 0 {
            if request.prev_header.hash() != self.genesis_digest {
                return Err(CertError::GenesisMismatch);
            }
        } else {
            let cert = request
                .prev_cert
                .as_ref()
                .ok_or(CertError::MissingPrevCert)?;
            cert.verify(
                &self.ias_key,
                &dcert_sgx::enclave::measure(NAIVE_CODE_IDENTITY),
                &request.prev_header.hash(),
            )?;
        }

        // Header checks.
        let header = &request.block.header;
        if header.prev_hash != request.prev_header.hash()
            || header.height != request.prev_header.height + 1
        {
            return Err(CertError::Chain(dcert_chain::ChainError::BrokenLink {
                claimed: header.prev_hash,
                actual: request.prev_header.hash(),
            }));
        }
        self.engine.verify(header)?;
        request.block.verify_tx_root()?;
        for tx in &request.block.txs {
            tx.verify()?;
        }

        // The expensive part the stateless design avoids: rebuild the
        // whole authenticated state tree inside the enclave.
        let mut tree = SparseMerkleTree::new();
        let mut flat = HashKeyedState::default();
        for (key, value) in &request.state {
            tree.insert(*key, value.clone());
            flat.entries.insert(*key, value.clone());
        }
        if tree.root() != request.prev_header.state_root {
            return Err(CertError::StateRootMismatch);
        }

        // Execute and commit.
        let calls: Vec<_> = request.block.txs.iter().map(|t| t.call.clone()).collect();
        let execution = self.executor.execute_block(&flat, &calls);
        for (key, value) in &execution.writes {
            match value {
                Some(v) => {
                    tree.insert(*key.as_hash(), v.clone());
                }
                None => {
                    tree.remove(key.as_hash());
                }
            }
        }
        if tree.root() != header.state_root {
            return Err(CertError::StateRootMismatch);
        }
        Ok(Response::Signature(kp.sign(header.hash().as_bytes())))
    }
}

/// A read backend keyed by hashed state paths (the naive request cannot
/// carry pre-image [`StateKey`]s, only their tree paths).
#[derive(Debug, Default)]
struct HashKeyedState {
    entries: std::collections::HashMap<Hash, Vec<u8>>,
}

impl StateReader for HashKeyedState {
    fn read(&self, key: &StateKey) -> Result<Option<Vec<u8>>, VmError> {
        Ok(self.entries.get(key.as_hash()).cloned())
    }
}

/// The naive program's ECall response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Initialized(PublicKey),
    Signature(Signature),
    Rejected(String),
}

impl Encode for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Initialized(pk) => {
                out.push(0);
                pk.encode(out);
            }
            Response::Signature(sig) => {
                out.push(1);
                sig.encode(out);
            }
            Response::Rejected(reason) => {
                out.push(2);
                reason.encode(out);
            }
        }
    }
}

impl Decode for Response {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take_byte()? {
            0 => Ok(Response::Initialized(PublicKey::decode(r)?)),
            1 => Ok(Response::Signature(Signature::decode(r)?)),
            2 => Ok(Response::Rejected(String::decode(r)?)),
            other => Err(CodecError::InvalidTag(other)),
        }
    }
}

impl TrustedApp for NaiveCertProgram {
    fn code_identity(&self) -> &[u8] {
        NAIVE_CODE_IDENTITY
    }

    fn call(&mut self, input: &[u8]) -> Vec<u8> {
        // Empty input = Init; otherwise a NaiveRequest.
        let response = if input.is_empty() {
            match self.handle(None) {
                Ok(resp) => resp,
                Err(e) => Response::Rejected(e.to_string()),
            }
        } else {
            match NaiveRequest::decode_all(input) {
                Err(e) => Response::Rejected(format!("request codec: {e}")),
                Ok(req) => match self.handle(Some(req)) {
                    Ok(resp) => resp,
                    Err(e) => Response::Rejected(e.to_string()),
                },
            }
        };
        response.to_encoded_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Setup, World};
    use dcert_sgx::{CostModel, Enclave};
    use dcert_workloads::Workload;

    #[test]
    fn naive_program_certifies_and_rejects_like_the_real_one() {
        let mut world = World::new(Setup::poa(CostModel::zero()));
        // Seed some state via one applied block, then prepare the next.
        let mut gen = world.generator(Workload::KvStore { keyspace: 16 }, 7);
        let b1 = world.mine(gen.next_block(4));
        world.ci.certify_block(&b1).unwrap();
        let b2 = world.mine(gen.next_block(4));

        let program = NaiveCertProgram::new(
            world.genesis.hash(),
            world.ias.public_key(),
            world.executor.clone(),
            world.engine.clone(),
        );
        let enclave = Enclave::launch(program, CostModel::zero());
        // The key is the seed's, so every run signs alike.
        let init = Response::decode_all(&enclave.ecall(&[])).unwrap();
        let key = Keypair::from_seed(SIGNING_SEED);
        assert_eq!(init, Response::Initialized(key.public()));

        // Full pre-state of block 2 = state after block 1 (the CI's view).
        let state: Vec<(Hash, Vec<u8>)> = world.ci.node().state().dump_entries();
        let request = NaiveRequest {
            prev_header: b1.header.clone(),
            prev_cert: None, // prev cert came from the *real* program: use genesis-anchored path instead
            block: b2.clone(),
            state: state.clone(),
        };
        // prev is b1 (height 1) and we pass no cert → must be rejected.
        let rejected = Response::decode_all(&enclave.ecall(&request.to_encoded_bytes())).unwrap();
        assert!(matches!(rejected, Response::Rejected(_)));

        // Anchor at genesis instead: certify block 1 naively.
        let genesis_state: Vec<(Hash, Vec<u8>)> = Vec::new();
        let request = NaiveRequest {
            prev_header: world.genesis.header.clone(),
            prev_cert: None,
            block: b1.clone(),
            state: genesis_state,
        };
        let response = Response::decode_all(&enclave.ecall(&request.to_encoded_bytes())).unwrap();
        assert_eq!(
            response,
            Response::Signature(key.sign(b1.header.hash().as_bytes()))
        );

        // Tampered state root → rejected.
        let mut bad = b1.clone();
        bad.header.state_root = Hash::ZERO;
        world.engine.seal(&mut bad.header).unwrap();
        let request = NaiveRequest {
            prev_header: world.genesis.header.clone(),
            prev_cert: None,
            block: bad,
            state: Vec::new(),
        };
        let response = Response::decode_all(&enclave.ecall(&request.to_encoded_bytes())).unwrap();
        assert!(matches!(response, Response::Rejected(_)));
    }
}
