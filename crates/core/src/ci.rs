//! The SGX-enabled Certificate Issuer (CI).
//!
//! The untrusted half of DCert's certification pipeline (Algorithm 1 and
//! the outer parts of Algorithms 4–5): a full node that, for every new
//! block,
//!
//! 1. executes the transactions to compute the read set `{r}_i` and write
//!    set `{w}_i` (`comp_data_set`),
//! 2. extracts the Merkle update proof `π_i` from its state tree
//!    (`get_update_proof`),
//! 3. crosses into the enclave once per job (`ecall_sig_gen`: one
//!    `Certify`, which brings back the block certificate and every index
//!    certificate) or once per index (augmented requests), and
//! 4. assembles and publishes `cert_i = ⟨pk_enc, rep, dig_i, sig_i⟩`.
//!
//! Every stage is timed into a [`CertBreakdown`], which is what the
//! Figure 8–10 benches report.
//!
//! The steps themselves live in the crate's `engine` module; this module
//! is their *inline* driver: each `certify_*` method runs `sequence` →
//! issue → commit on the calling thread (the pipeline runs `sequence` on
//! its caller's thread and the rest on its issuer thread). Sequencing
//! advances the node's live view block by block (`FullNode::advance`:
//! commit, compare the post-state root) before the ECall, so a block whose
//! writes miss its root is refused before it costs one; a job the enclave
//! refuses is taken back by one `rewind`. A refusal of either kind leaves
//! the CI as it was.

use std::sync::Arc;
use std::time::Duration;

use dcert_chain::{Block, ChainState, ConsensusEngine, FullNode};
use dcert_primitives::hash::{Address, Hash};
use dcert_primitives::keys::PublicKey;
use dcert_sgx::{AttestationReport, AttestationService, CostModel, Enclave};
use dcert_vm::Executor;

use crate::cert::Certificate;
use crate::engine::{rewind, sequence, Attested, Issued, Issuer};
use crate::error::CertError;
use crate::messages::IndexInput;
use crate::pipeline::CertJob;
use crate::program::CertProgram;
use crate::verifier::IndexVerifier;

/// Timing/size breakdown of one certification (the Fig. 8–9 bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct CertBreakdown {
    /// Outside: transaction execution for read/write-set generation.
    pub rw_set_gen: Duration,
    /// Outside: Merkle update-proof generation (one multiproof a block).
    pub proof_gen: Duration,
    /// Wall-clock time spent across all ECalls (trusted work + overhead).
    pub enclave_total: Duration,
    /// Portion of `enclave_total` charged by the SGX cost model
    /// (transitions + marshalling).
    pub enclave_overhead: Duration,
    /// Portion of `enclave_total` spent running trusted code.
    pub enclave_trusted: Duration,
    /// Number of ECalls issued: 1 for a block, a batch or a hierarchical
    /// job over any number of indexes; `n` for an augmented job over `n`.
    pub ecalls: u64,
    /// Bytes marshalled into the enclave: the block once (hierarchical), or
    /// once per index (augmented).
    pub request_bytes: u64,
    /// Bytes marshalled out: a signature, or a hierarchical job's `1 + n`.
    pub response_bytes: u64,
}

impl CertBreakdown {
    /// Total construction time (outside + enclave).
    pub fn total(&self) -> Duration {
        self.rw_set_gen + self.proof_gen + self.enclave_total
    }
}

/// The SGX-enabled Certificate Issuer.
///
/// A chain view plus the enclave-bound issuer (the attested enclave and
/// the block- and index-certificate chains its next request extends). The
/// enclave handle is `Arc`-shared: ECalls serialize inside the enclave
/// itself, so [`crate::pipeline::CertPipeline`] can move the issuer onto
/// its one issuer thread, keep the chain view behind `submit`'s lock, and
/// hand both back, while the host keeps a handle for sealing.
pub struct CertificateIssuer {
    pub(crate) node: FullNode,
    pub(crate) issuer: Issuer,
}

impl std::fmt::Debug for CertificateIssuer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertificateIssuer")
            .field("height", &self.node.height())
            .field("pk_enc", &self.pk_enc())
            .finish()
    }
}

impl CertificateIssuer {
    /// Boots a CI: launches the enclave on the platform `platform_seed`
    /// identifies, provisions its platform key with the IAS, runs the
    /// `Init` ECall to generate `(sk_enc, pk_enc)` inside the enclave, and
    /// obtains the attestation report binding `pk_enc`. The seed stands in
    /// for the machine's fused identity: a key sealed here
    /// ([`CertificateIssuer::seal_enclave_key`]) restores on it.
    ///
    /// # Errors
    ///
    /// Propagates attestation failures and enclave boot problems.
    #[allow(clippy::too_many_arguments)] // the platform plus the chain and enclave inputs
    pub fn new(
        platform_seed: [u8; 32],
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        verifiers: Vec<Box<dyn IndexVerifier>>,
        ias: &mut AttestationService,
        cost: CostModel,
    ) -> Result<Self, CertError> {
        let program = cert_program(genesis.hash(), ias, &executor, &engine, verifiers);
        let enclave = Enclave::launch_with_platform_seed(program, cost, platform_seed);
        let node = FullNode::new(genesis, genesis_state, executor, engine, Address::default());
        Self::finish_boot(enclave, node, ias, None)
    }

    /// Restarts a CI on the same platform from a sealed enclave key
    /// ([`CertificateIssuer::seal_enclave_key`]) plus a certified
    /// checkpoint. The restored enclave signs with the **same** `pk_enc`,
    /// so clients keep their cached attestation; the fresh attestation
    /// report binds the same key.
    ///
    /// # Errors
    ///
    /// [`CertError::Attestation`] wrapping
    /// [`SgxError::BadSeal`](dcert_sgx::SgxError::BadSeal) if the blob was
    /// sealed on a different platform or by a different program, plus the
    /// checkpoint-validation errors of
    /// [`CertificateIssuer::new_from_checkpoint`].
    #[allow(clippy::too_many_arguments)] // restart = checkpoint boot + seal inputs
    pub fn resume_on_platform(
        platform_seed: [u8; 32],
        sealed_key: &dcert_sgx::SealedBlob,
        genesis_digest: Hash,
        checkpoint: &dcert_chain::BlockHeader,
        checkpoint_cert: &Certificate,
        snapshot: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        verifiers: Vec<Box<dyn IndexVerifier>>,
        ias: &mut AttestationService,
        cost: CostModel,
    ) -> Result<Self, CertError> {
        let program = cert_program(genesis_digest, ias, &executor, &engine, verifiers);
        let node = checkpoint_node(checkpoint, checkpoint_cert, snapshot, executor, engine, ias)?;
        let enclave = Enclave::restore(program, cost, platform_seed, sealed_key)?;
        Self::finish_boot(enclave, node, ias, Some(checkpoint_cert.clone()))
    }

    /// Seals the enclave's signing key to this platform for a later
    /// [`CertificateIssuer::resume_on_platform`]. The plaintext key never
    /// crosses the enclave boundary.
    pub fn seal_enclave_key(&self) -> dcert_sgx::SealedBlob {
        self.issuer.attested.enclave.seal_state()
    }

    /// Shared constructor tail: boot and attest the enclave
    /// ([`Attested::boot`]), then pair it with the chain view.
    fn finish_boot(
        enclave: Enclave<CertProgram>,
        node: FullNode,
        ias: &mut AttestationService,
        prev_block_cert: Option<Certificate>,
    ) -> Result<Self, CertError> {
        let issuer = Issuer::new(Attested::boot(enclave, ias)?, prev_block_cert);
        Ok(CertificateIssuer { node, issuer })
    }

    /// Like [`CertificateIssuer::new`], but with a pre-seeded enclave
    /// signing key: the replay path. The signing seed makes the whole boot —
    /// and, because ed25519 signing is deterministic, every certificate the
    /// CI will ever issue — reproducible. Two CIs booted with the same seeds
    /// against the same IAS sign byte-identically; the pipeline-equivalence
    /// tests, the goldens and the benches rely on this. A key born on `Init`
    /// ([`CertificateIssuer::new`]) is the only kind no host holds; sealed,
    /// it serves a CI restart and a shard fleet
    /// ([`crate::ShardedCertEngine::from_sealed_key`]) alike.
    ///
    /// # Errors
    ///
    /// See [`CertificateIssuer::new`].
    #[allow(clippy::too_many_arguments)] // mirrors `new` plus the platform and key seeds
    pub fn new_deterministic(
        platform_seed: [u8; 32],
        signing_seed: [u8; 32],
        genesis: &Block,
        genesis_state: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        verifiers: Vec<Box<dyn IndexVerifier>>,
        ias: &mut AttestationService,
        cost: CostModel,
    ) -> Result<Self, CertError> {
        let program = cert_program(genesis.hash(), ias, &executor, &engine, verifiers);
        // dcert-lint: allow(r1-enclave-secrecy, reason = "the replay path: a host seed makes every certificate reproducible; CertificateIssuer::new draws the key inside the enclave")
        let program = program.with_signing_seed(signing_seed);
        let enclave = Enclave::launch_with_platform_seed(program, cost, platform_seed);
        let node = FullNode::new(genesis, genesis_state, executor, engine, Address::default());
        Self::finish_boot(enclave, node, ias, None)
    }

    /// Boots a CI **mid-chain** from a certified checkpoint instead of
    /// replaying from genesis.
    ///
    /// Thanks to the recursive certificate design, a certificate for block
    /// *h* vouches for the entire prefix, so a new CI only needs: the
    /// checkpoint header + certificate (from any CI with the expected
    /// measurement), a state snapshot matching the header's state root, and
    /// the genesis digest to anchor its own enclave. It validates the
    /// certificate exactly as a superlight client would, checks the
    /// snapshot against the certified state root, and then continues
    /// certification from height *h + 1*. The enclave launches on the
    /// platform `platform_seed` identifies and draws its key on `Init`, as
    /// in [`CertificateIssuer::new`], so a key it seals restores on that
    /// seed ([`CertificateIssuer::resume_on_platform`]).
    ///
    /// # Errors
    ///
    /// - certificate-validation errors if `checkpoint_cert` does not
    ///   authenticate `checkpoint` under the IAS root and the expected
    ///   program measurement,
    /// - [`CertError::StateRootMismatch`] if `snapshot` does not hash to
    ///   the certified state root,
    /// - attestation errors from booting the new enclave.
    #[allow(clippy::too_many_arguments)] // mirrors `new` plus the checkpoint triple
    pub fn new_from_checkpoint(
        platform_seed: [u8; 32],
        genesis_digest: Hash,
        checkpoint: &dcert_chain::BlockHeader,
        checkpoint_cert: &Certificate,
        snapshot: ChainState,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        verifiers: Vec<Box<dyn IndexVerifier>>,
        ias: &mut AttestationService,
        cost: CostModel,
    ) -> Result<Self, CertError> {
        let program = cert_program(genesis_digest, ias, &executor, &engine, verifiers);
        let node = checkpoint_node(checkpoint, checkpoint_cert, snapshot, executor, engine, ias)?;
        let enclave = Enclave::launch_with_platform_seed(program, cost, platform_seed);
        Self::finish_boot(enclave, node, ias, Some(checkpoint_cert.clone()))
    }

    /// The chain view of this CI.
    pub fn node(&self) -> &FullNode {
        &self.node
    }

    /// The enclave public key `pk_enc`.
    pub fn pk_enc(&self) -> PublicKey {
        self.issuer.attested.pk_enc
    }

    /// The attestation report `rep` bound into every certificate.
    pub fn report(&self) -> &AttestationReport {
        &self.issuer.attested.report
    }

    /// The enclave measurement (clients pin this).
    pub fn measurement(&self) -> Hash {
        self.issuer.attested.enclave.measurement()
    }

    /// The latest block certificate, if any block has been certified.
    pub fn latest_block_cert(&self) -> Option<&Certificate> {
        self.issuer.latest_block_cert()
    }

    /// Attaches a metric registry to the CI's enclave boundary, so every
    /// subsequent ECall reports transitions, marshalled bytes, simulated
    /// charges, and EPC residency into `registry` (see
    /// [`Enclave::attach_obs`]).
    pub fn attach_obs(&self, registry: &dcert_obs::Registry) {
        self.issuer.attested.enclave.attach_obs(registry);
    }

    /// Algorithm 1: `gen_cert`. Certifies `block` (which must extend the
    /// CI's tip), advances the CI's chain, and returns the certificate with
    /// its construction breakdown.
    ///
    /// # Errors
    ///
    /// A block that does not extend the tip, or whose writes do not reach
    /// its state root, is refused before the ECall as [`CertError::Chain`];
    /// an enclave-side rejection is the trusted program's own [`CertError`].
    /// Either way the CI is left as it was.
    pub fn certify_block(
        &mut self,
        block: &Block,
    ) -> Result<(Certificate, CertBreakdown), CertError> {
        let (issued, breakdown) = self.certify(CertJob::Block(block.clone()))?;
        Ok((issued.into_certs()?.0, breakdown))
    }

    /// Algorithm 4: augmented certificates — one full-replay ECall *per
    /// index* (this is exactly the repetition the hierarchical scheme
    /// removes; Fig. 10 measures the difference). Advances the chain.
    ///
    /// Each index chains from the certificate this CI last issued for it,
    /// else from the staged [`IndexInput::prev_cert`].
    ///
    /// # Errors
    ///
    /// See [`CertificateIssuer::certify_block`].
    pub fn certify_augmented(
        &mut self,
        block: &Block,
        indexes: &[IndexInput],
    ) -> Result<(Vec<Certificate>, CertBreakdown), CertError> {
        let (issued, breakdown) = self.certify(CertJob::Augmented {
            block: block.clone(),
            indexes: indexes.to_vec(),
        })?;
        Ok((issued.into_index_certs(), breakdown))
    }

    /// Algorithm 5: hierarchical certificates — the block certificate and
    /// one per index, signed off one replay in **one** ECall (the paper
    /// crosses once more per index; DESIGN.md §4). A refused index leaves
    /// nothing signed: the same CI can retry the block. Advances the chain.
    ///
    /// Each index chains from the certificate this CI last issued for it,
    /// else from the staged [`IndexInput::prev_cert`].
    ///
    /// # Errors
    ///
    /// See [`CertificateIssuer::certify_block`].
    pub fn certify_hierarchical(
        &mut self,
        block: &Block,
        indexes: &[IndexInput],
    ) -> Result<(Certificate, Vec<Certificate>, CertBreakdown), CertError> {
        let (issued, breakdown) = self.certify(CertJob::Hierarchical {
            block: block.clone(),
            indexes: indexes.to_vec(),
        })?;
        let (block_cert, index_certs) = issued.into_certs()?;
        Ok((block_cert, index_certs, breakdown))
    }

    /// Batch extension: certifies `blocks` (consecutive extensions of the
    /// CI's tip) with **one** ECall, producing a single certificate for the
    /// last block that vouches for the whole prefix. Amortizes the
    /// transition and recursive-verification cost across the batch; the
    /// trade-off is certification latency (clients see one certificate per
    /// batch instead of per block).
    ///
    /// # Errors
    ///
    /// See [`CertificateIssuer::certify_block`]. The CI's chain advances
    /// only if the whole batch certifies.
    pub fn certify_batch(
        &mut self,
        blocks: &[Block],
    ) -> Result<(Certificate, CertBreakdown), CertError> {
        let (issued, breakdown) = self.certify(CertJob::Batch(blocks.to_vec()))?;
        Ok((issued.into_certs()?.0, breakdown))
    }

    /// One job, inline: [`sequence`] it on the live view, issue it, and
    /// commit — or, if the enclave refuses it, [`rewind`] the view to where
    /// the job found it.
    fn certify(&mut self, job: CertJob) -> Result<(Issued, CertBreakdown), CertError> {
        let mut breakdown = CertBreakdown::default();
        let (prepared, undo) = sequence(&mut self.node, job, &mut breakdown)?;
        match self.issuer.issue(prepared, &mut breakdown) {
            Ok(issued) => {
                self.issuer.commit(&issued);
                Ok((issued, breakdown))
            }
            Err(error) => {
                rewind(&mut self.node, undo);
                Err(error)
            }
        }
    }
}

/// The trusted program every enclave of a CI or a fleet runs, anchored at
/// `genesis_digest` and the IAS root.
pub(crate) fn cert_program(
    genesis_digest: Hash,
    ias: &AttestationService,
    executor: &Executor,
    engine: &Arc<dyn ConsensusEngine>,
    verifiers: Vec<Box<dyn IndexVerifier>>,
) -> CertProgram {
    CertProgram::new(
        genesis_digest,
        ias.public_key(),
        executor.clone(),
        engine.clone(),
        verifiers,
    )
}

/// Trusts `checkpoint` the same way a superlight client would — its
/// certificate under the IAS root and the expected measurement, the
/// snapshot against the certified state root — and builds the chain view
/// standing on it.
fn checkpoint_node(
    checkpoint: &dcert_chain::BlockHeader,
    checkpoint_cert: &Certificate,
    snapshot: ChainState,
    executor: Executor,
    engine: Arc<dyn ConsensusEngine>,
    ias: &AttestationService,
) -> Result<FullNode, CertError> {
    checkpoint_cert.verify(
        &ias.public_key(),
        &crate::program::expected_measurement(),
        &checkpoint.hash(),
    )?;
    if snapshot.root() != checkpoint.state_root {
        return Err(CertError::StateRootMismatch);
    }
    Ok(FullNode::new_at_checkpoint(
        checkpoint.clone(),
        snapshot,
        executor,
        engine,
        Address::default(),
    ))
}
