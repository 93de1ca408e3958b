//! The certification core: the one definition of every step between a
//! mined block and its certificate (Algorithm 1 `gen_cert`, with
//! Algorithm 4 repeating its ECall step per index and Algorithm 5 widening
//! it to sign every index certificate in the same crossing) — boot + attest,
//! link building, marshalling, dispatch, issue, commit, in this file's
//! order. DESIGN.md §4 ("Certification core") has the step list and which
//! thread runs what.
//!
//! The engines are drivers of these steps: [`crate::CertificateIssuer`]
//! inline on the calling thread, [`crate::CertPipeline`] across its stage
//! threads, [`crate::ShardedCertEngine`] for every shard and the
//! aggregator.

use std::collections::HashMap;
use std::sync::Arc;

use dcert_chain::validity::check_extends;
use dcert_chain::{Block, BlockHeader, ChainState};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{PublicKey, Signature};
use dcert_sgx::cost::timed;
use dcert_sgx::{AttestationReport, AttestationService, Enclave};
use dcert_vm::{BlockExecution, Call, Executor};

use crate::cert::Certificate;
use crate::ci::CertBreakdown;
use crate::error::CertError;
use crate::messages::{BatchLink, EcallRequest, EcallResponse, IndexInput, SplitRequest, WriteSet};
use crate::network::NetMessage;
use crate::program::CertProgram;

// --- boot, dispatch, assembly ---------------------------------------------------

/// A booted, attested enclave: what signs, and the `⟨pk_enc, rep⟩` half of
/// every certificate it signs.
pub(crate) struct Attested {
    pub(crate) enclave: Arc<Enclave<CertProgram>>,
    pub(crate) pk_enc: PublicKey,
    pub(crate) report: AttestationReport,
}

impl Attested {
    /// The boot tail every enclave shares: register the platform with the
    /// IAS, run `Init` to obtain `pk_enc`, and attest a quote binding it.
    pub(crate) fn boot(
        enclave: Enclave<CertProgram>,
        ias: &mut AttestationService,
    ) -> Result<Self, CertError> {
        ias.register_platform(enclave.platform_key());
        let init = EcallRequest::Init.to_encoded_bytes();
        let pk_enc = match ecall(&enclave, &init, &mut CertBreakdown::default())? {
            EcallResponse::Initialized(pk) => pk,
            _ => return Err(unexpected_response()),
        };
        let report = ias.attest(&enclave.quote(Certificate::key_binding(&pk_enc)))?;
        Ok(Attested {
            enclave: Arc::new(enclave),
            pk_enc,
            report,
        })
    }

    /// One ECall answered by one signature.
    pub(crate) fn sign(
        &self,
        encoded: &[u8],
        breakdown: &mut CertBreakdown,
    ) -> Result<Signature, CertError> {
        match ecall(&self.enclave, encoded, breakdown)? {
            EcallResponse::Signature(signature) => Ok(signature),
            _ => Err(unexpected_response()),
        }
    }

    /// One ECall answered by a signature per requested digest
    /// (`FoldRanges`, `HierSigGen`).
    pub(crate) fn sign_each(
        &self,
        encoded: &[u8],
        breakdown: &mut CertBreakdown,
    ) -> Result<Vec<Signature>, CertError> {
        match ecall(&self.enclave, encoded, breakdown)? {
            EcallResponse::Signatures(signatures) => Ok(signatures),
            _ => Err(unexpected_response()),
        }
    }

    /// Assembles `cert = ⟨pk_enc, rep, dig, sig⟩`.
    pub(crate) fn certificate(&self, digest: Hash, signature: Signature) -> Certificate {
        Certificate {
            pk_enc: self.pk_enc,
            report: self.report.clone(),
            digest,
            signature,
        }
    }
}

/// Crosses the enclave boundary once, charging the boundary's cost-model
/// delta into `breakdown` (a delta rather than a reset/read, so the
/// enclave's cumulative counters stay intact for other observers of a
/// shared handle). A rejection becomes [`CertError::EnclaveRejected`].
fn ecall(
    enclave: &Enclave<CertProgram>,
    encoded: &[u8],
    breakdown: &mut CertBreakdown,
) -> Result<EcallResponse, CertError> {
    let before = enclave.stats();
    let (response, took) = timed(|| enclave.ecall(encoded));
    let after = enclave.stats();
    breakdown.enclave_total += took;
    breakdown.enclave_overhead += after.overhead - before.overhead;
    breakdown.enclave_trusted += after.trusted_time - before.trusted_time;
    breakdown.ecalls += after.ecalls - before.ecalls;
    breakdown.request_bytes += after.bytes_in - before.bytes_in;
    breakdown.response_bytes += after.bytes_out - before.bytes_out;
    match EcallResponse::decode_all(&response)? {
        EcallResponse::Rejected(reason) => Err(CertError::EnclaveRejected(reason)),
        response => Ok(response),
    }
}

fn unexpected_response() -> CertError {
    CertError::EnclaveRejected("unexpected response".into())
}

// --- link building ------------------------------------------------------------

/// One block checked against its parent and executed exactly once
/// (`comp_data_set`), awaiting its update proof.
pub(crate) struct ExecutedLink {
    pub(crate) block: Block,
    execution: BlockExecution,
}

impl ExecutedLink {
    /// Checks that `block` extends `tip` and executes it against
    /// `pre_state`, which is left untouched. Only linkage is checked here,
    /// because callers advance on it; transaction signatures, roots and the
    /// consensus proof are the enclave's call.
    pub(crate) fn execute(
        executor: &Executor,
        pre_state: &ChainState,
        tip: &BlockHeader,
        block: Block,
        breakdown: &mut CertBreakdown,
    ) -> Result<Self, CertError> {
        check_extends(tip, &block.header)?;
        let (execution, took) = timed(|| {
            let calls: Vec<Call> = block.txs.iter().map(|tx| tx.call.clone()).collect();
            executor.execute_block(pre_state, &calls)
        });
        breakdown.rw_set_gen += took;
        Ok(ExecutedLink { block, execution })
    }

    /// Advances `state` — the state this link executed against — past it.
    pub(crate) fn apply_to(&self, state: &mut ChainState) {
        state.apply_writes(self.execution.writes.iter());
    }

    /// `get_update_proof`: the proof over reads ∪ writes against
    /// `pre_state`, the state this link executed against. Also hands back
    /// the write set `{w}_i`, in key order.
    pub(crate) fn prove(
        self,
        pre_state: &ChainState,
        breakdown: &mut CertBreakdown,
    ) -> (BatchLink, WriteSet) {
        let (state_proof, took) = timed(|| pre_state.prove(&self.execution.touched_keys()));
        breakdown.proof_gen += took;
        let link = BatchLink {
            block: self.block,
            reads: self.execution.reads.into_iter().collect(),
            state_proof,
        };
        (link, self.execution.writes.into_iter().collect())
    }
}

/// Builds the links of consecutive `blocks` extending `tip` over `state`,
/// which ends up past the last of them: each link is proven against the
/// state it executed on before the next one builds on its writes. A batch
/// and a shard's range chunk are both this.
pub(crate) fn build_links(
    executor: &Executor,
    state: &mut ChainState,
    tip: &BlockHeader,
    blocks: &[Block],
    breakdown: &mut CertBreakdown,
) -> Result<Vec<BatchLink>, CertError> {
    let mut links = Vec::with_capacity(blocks.len());
    let mut tip = tip;
    for block in blocks {
        let executed = ExecutedLink::execute(executor, state, tip, block.clone(), breakdown)?;
        let (link, writes) = executed.prove(state, breakdown);
        state.apply_writes(writes.iter().map(|(key, value)| (key, value)));
        links.push(link);
        tip = &block.header;
    }
    Ok(links)
}

// --- marshalling ----------------------------------------------------------------

/// Which per-index certificates accompany a one-block job.
pub(crate) enum Indexing {
    /// Algorithm 1: the block certificate only.
    None,
    /// Algorithm 4: one full-replay certificate per index, no block
    /// certificate.
    Augmented(Vec<IndexInput>),
    /// Algorithm 5: the block certificate and one certificate per index,
    /// off one replay.
    Hierarchical(Vec<IndexInput>),
}

/// How a job's requests cross the boundary.
enum Crossing {
    /// `SigGen`/`BatchSigGen`: one crossing, the block certificate.
    Block,
    /// `AugSigGen` (Algorithm 4): one crossing per index, each the body
    /// followed by that index; no block certificate.
    PerIndex,
    /// `HierSigGen` (Algorithm 5): one crossing, the body followed by every
    /// index; the block certificate and every index certificate.
    Fused,
}

/// One staged index update, marshalled around its `prev_cert`.
struct PreparedIndex {
    index_type: String,
    new_digest: Hash,
    /// The `prev_cert` the job was staged with: spliced only when this
    /// issuer has not itself issued a certificate for the index yet.
    staged_prev: Option<Certificate>,
    request: SplitRequest,
}

/// Every request of one job, marshalled as far as it can be before the
/// certificates it chains from exist.
pub(crate) struct PreparedJob {
    /// The header the job's certificates bind (a batch's last).
    header: BlockHeader,
    crossing: Crossing,
    /// The request up to its indexes, cut at the block `prev_cert`.
    body: SplitRequest,
    indexes: Vec<PreparedIndex>,
}

impl PreparedJob {
    /// Marshals a one-block job: proves `executed` against `pre_state`, the
    /// state it executed on. Also hands back its write set, which takes
    /// `pre_state` past the block.
    pub(crate) fn single(
        prev_header: &BlockHeader,
        executed: ExecutedLink,
        pre_state: &ChainState,
        indexing: Indexing,
        breakdown: &mut CertBreakdown,
    ) -> (Self, WriteSet) {
        let (link, writes) = executed.prove(pre_state, breakdown);
        let (crossing, body, indexes) = match indexing {
            Indexing::None => (
                Crossing::Block,
                SplitRequest::sig_gen(prev_header, &link),
                Vec::new(),
            ),
            Indexing::Augmented(indexes) => (
                Crossing::PerIndex,
                SplitRequest::aug_sig_gen(prev_header, &link),
                indexes,
            ),
            Indexing::Hierarchical(indexes) => (
                Crossing::Fused,
                SplitRequest::hier_sig_gen(prev_header, &link, indexes.len()),
                indexes,
            ),
        };
        let job = PreparedJob {
            header: link.block.header,
            crossing,
            body,
            indexes: indexes
                .into_iter()
                .map(|index| PreparedIndex {
                    request: SplitRequest::index(&index),
                    index_type: index.index_type,
                    new_digest: index.new_digest,
                    staged_prev: index.prev_cert,
                })
                .collect(),
        };
        (job, writes)
    }

    /// Marshals a batch: one `BatchSigGen` over `links`, certifying the
    /// last header.
    pub(crate) fn batch(prev_header: &BlockHeader, links: &[BatchLink]) -> Result<Self, CertError> {
        let last = links.last().ok_or_else(empty_batch)?;
        Ok(PreparedJob {
            header: last.block.header.clone(),
            crossing: Crossing::Block,
            body: SplitRequest::batch_sig_gen(prev_header, links),
            indexes: Vec::new(),
        })
    }
}

fn empty_batch() -> CertError {
    CertError::EnclaveRejected("empty batch".into())
}

// --- issue and commit -----------------------------------------------------------

/// The certificates one job produced, not yet part of the issuer's chain.
pub(crate) struct Issued {
    pub(crate) header: BlockHeader,
    block_cert: Option<Certificate>,
    /// `(index name, certified digest, certificate)`, in staging order.
    index_certs: Vec<(String, Hash, Certificate)>,
}

impl Issued {
    /// The index certificates, in staging order.
    pub(crate) fn into_index_certs(self) -> Vec<Certificate> {
        self.index_certs
            .into_iter()
            .map(|(_, _, cert)| cert)
            .collect()
    }

    /// The block certificate of a job that issues one (all but
    /// Algorithm 4), then the index certificates.
    pub(crate) fn into_certs(mut self) -> Result<(Certificate, Vec<Certificate>), CertError> {
        let block_cert = self.block_cert.take().ok_or_else(unexpected_response)?;
        Ok((block_cert, self.into_index_certs()))
    }

    /// The job's broadcasts: the block certificate, then one message per
    /// index certificate.
    pub(crate) fn into_messages(self) -> Vec<NetMessage> {
        let header = self.header;
        let block = self.block_cert.map(|cert| NetMessage::BlockCert {
            header: header.clone(),
            cert,
        });
        let indexes =
            self.index_certs
                .into_iter()
                .map(|(index, digest, cert)| NetMessage::IndexCert {
                    header: header.clone(),
                    index,
                    digest,
                    cert,
                });
        block.into_iter().chain(indexes).collect()
    }
}

/// The enclave-bound half of a CI: the attested enclave plus the
/// certificate chains its next request must extend. One struct for inline
/// and threaded use — [`crate::CertPipeline`] moves it onto its issuer
/// thread and back — so the chains survive every hand-over.
pub(crate) struct Issuer {
    pub(crate) attested: Attested,
    prev_block_cert: Option<Certificate>,
    /// The last certificate issued per index name: the `cert_{i-1}^{idx}`
    /// the next update of that index chains from. Owned here rather than
    /// trusted from the staged input because that certificate may not
    /// exist yet when a job is staged.
    prev_index_certs: HashMap<String, Certificate>,
    /// Reused request-marshalling buffer: every spliced request is
    /// assembled here instead of a fresh `Vec` per ECall.
    scratch: Vec<u8>,
    /// Largest request marshalled so far. Bytes up to this mark are
    /// "served from reuse" — a pure function of the request-length
    /// sequence (deliberately not `Vec::capacity`, which is
    /// allocator-dependent), so the derived counter is deterministic.
    scratch_high_water: usize,
}

impl Issuer {
    pub(crate) fn new(attested: Attested, prev_block_cert: Option<Certificate>) -> Self {
        Issuer {
            attested,
            prev_block_cert,
            prev_index_certs: HashMap::new(),
            scratch: Vec::new(),
            scratch_high_water: 0,
        }
    }

    pub(crate) fn latest_block_cert(&self) -> Option<&Certificate> {
        self.prev_block_cert.as_ref()
    }

    /// Issues every certificate of `job`: splices the previous certificates
    /// into its requests, crosses the boundary — once, but for Algorithm 4's
    /// once per index — and assembles the results. The issuer's chains are
    /// left as they were — see [`Issuer::commit`].
    pub(crate) fn issue(
        &mut self,
        job: &PreparedJob,
        breakdown: &mut CertBreakdown,
    ) -> Result<Issued, CertError> {
        let (block_sig, index_sigs) = match job.crossing {
            Crossing::Block => {
                self.marshal(job, &[]);
                let signature = self.attested.sign(&self.scratch, breakdown)?;
                (Some(signature), Vec::new())
            }
            Crossing::PerIndex => {
                let mut signatures = Vec::with_capacity(job.indexes.len());
                for index in &job.indexes {
                    self.marshal(job, std::slice::from_ref(index));
                    signatures.push(self.attested.sign(&self.scratch, breakdown)?);
                }
                (None, signatures)
            }
            Crossing::Fused => {
                self.marshal(job, &job.indexes);
                let mut signatures = self.attested.sign_each(&self.scratch, breakdown)?;
                if signatures.len() != job.indexes.len() + 1 {
                    return Err(unexpected_response());
                }
                (Some(signatures.remove(0)), signatures)
            }
        };
        let header_digest = job.header.hash();
        let certify = |digest, signature| self.attested.certificate(digest, signature);
        let index_certs = job
            .indexes
            .iter()
            .zip(index_sigs)
            .map(|(index, signature)| {
                let digest = Certificate::index_digest(&header_digest, &index.new_digest);
                let cert = certify(digest, signature);
                (index.index_type.clone(), index.new_digest, cert)
            });
        Ok(Issued {
            header: job.header.clone(),
            index_certs: index_certs.collect(),
            block_cert: block_sig.map(|signature| certify(header_digest, signature)),
        })
    }

    /// Marshals one request of `job` into the scratch buffer — its body
    /// around the previous block certificate, then each of `indexes` around
    /// the certificate it chains from — crediting the bytes below the
    /// buffer's high-water mark to `enclave.marshal_reuse_bytes`.
    fn marshal(&mut self, job: &PreparedJob, indexes: &[PreparedIndex]) {
        self.scratch.clear();
        job.body.splice(&self.prev_block_cert, &mut self.scratch);
        for index in indexes {
            // Issued-else-staged: chain from the certificate this issuer
            // last issued for the index, else from the staged one.
            let prev_cert = self
                .prev_index_certs
                .get(&index.index_type)
                .or(index.staged_prev.as_ref())
                .cloned();
            index.request.splice(&prev_cert, &mut self.scratch);
        }
        let reused = self.scratch.len().min(self.scratch_high_water);
        if reused > 0 {
            self.attested.enclave.note_marshal_reuse(reused as u64);
        }
        self.scratch_high_water = self.scratch_high_water.max(self.scratch.len());
    }

    /// Makes `issued` the tip of the issuer's certificate chains. Called
    /// only once the whole job — every index, and the driver's own chain
    /// advance — has succeeded.
    pub(crate) fn commit(&mut self, issued: &Issued) {
        if let Some(cert) = &issued.block_cert {
            self.prev_block_cert = Some(cert.clone());
        }
        for (index, _, cert) in &issued.index_certs {
            self.prev_index_certs.insert(index.clone(), cert.clone());
        }
    }
}
