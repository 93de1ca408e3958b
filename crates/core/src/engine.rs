//! The certification core: the one definition of every step between a
//! mined block and its certificate (Algorithm 1 `gen_cert`: one `Certify`
//! crossing per job, be it a block, a batch or a block with its index
//! certificates, and Algorithm 4's `AugSigGen` once per index) — boot +
//! attest, sequencing, request building, dispatch, issue, commit, in this
//! file's order. Whoever proves a job prepares its links and indexes; the
//! issuer adds the previous certificates, builds the [`EcallRequest`] and
//! serialises it, once, through the codec. DESIGN.md §4 ("Certification
//! core") has the step list and which thread runs what.
//!
//! The engines are drivers of these steps, and each moves its chain view
//! the one way: [`link_block`] per block, which ends in
//! [`FullNode::advance`], and [`rewind`] when a job is refused.
//! [`crate::CertificateIssuer`] runs [`sequence`] → issue → commit inline
//! on the calling thread, [`crate::CertPipeline`] `sequence` on the
//! caller's thread and issue → commit on its issuer thread,
//! [`crate::ShardedCertEngine`] `link_block` per block on
//! every shard before its aggregator folds the ranges.

use std::collections::HashMap;
use std::sync::Arc;

use dcert_chain::state::Displaced;
use dcert_chain::validity::check_extends;
use dcert_chain::{Block, BlockHeader, FullNode};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{PublicKey, Signature};
use dcert_sgx::cost::timed;
use dcert_sgx::{AttestationReport, AttestationService, Enclave};

use crate::cert::Certificate;
use crate::ci::CertBreakdown;
use crate::error::CertError;
use crate::messages::{encode_aug_sig_gen, BatchLink, EcallRequest, EcallResponse, IndexInput};
use crate::network::NetMessage;
use crate::pipeline::CertJob;
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

    /// One signing ECall, answered by exactly `expected` signatures — one
    /// per digest the request asked for, in the request's order.
    pub(crate) fn sign(
        &self,
        encoded: &[u8],
        expected: usize,
        breakdown: &mut CertBreakdown,
    ) -> Result<Vec<Signature>, CertError> {
        match ecall(&self.enclave, encoded, breakdown)? {
            EcallResponse::Signatures(signatures) if signatures.len() == expected => Ok(signatures),
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
/// shared handle). A rejection is the trusted program's own [`CertError`],
/// decoded.
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
        EcallResponse::Rejected(error) => Err(error),
        response => Ok(response),
    }
}

pub(crate) fn unexpected_response() -> CertError {
    CertError::Codec(CodecError::Invalid("unexpected ECall response".into()))
}

// --- sequencing -----------------------------------------------------------------

/// A sequenced job's way back: per block it advanced, oldest first, the
/// tip that block extended and what its writes displaced.
pub(crate) type Undo = Vec<(BlockHeader, Displaced)>;

/// The untrusted half of Algorithm 1 for one block, on `node`'s live view:
/// check that `block` extends the tip, execute it once (`comp_data_set`),
/// prove reads ∪ writes against the pre-state (`get_update_proof`), then
/// [`FullNode::advance`] by its writes — which compares the post-state
/// root — pushing the way back onto `undo`. Linkage and the root are the
/// host's to check because it moves its view on them; transaction
/// signatures, the transaction root and the consensus proof are the
/// enclave's call. A refused block leaves `node` and `undo` as they were.
pub(crate) fn link_block(
    node: &mut FullNode,
    block: Block,
    undo: &mut Undo,
    breakdown: &mut CertBreakdown,
) -> Result<BatchLink, CertError> {
    check_extends(node.tip(), &block.header)?;
    let (execution, took) = timed(|| node.execute(&block.txs));
    breakdown.rw_set_gen += took;
    let (state_proof, took) = timed(|| node.state().prove(&execution.touched_keys()));
    breakdown.proof_gen += took;
    let prev_tip = node.tip().clone();
    let displaced = node.advance(&block.header, execution.writes.iter())?;
    undo.push((prev_tip, displaced));
    Ok(BatchLink {
        block,
        reads: execution.reads.into_iter().collect(),
        state_proof,
    })
}

/// Sequences `job` on `node`: [`link_block`] for each of its blocks, in
/// order, then the job's request around the links. Hands back the job's
/// [`Undo`] for the driver to [`rewind`] if the enclave refuses it; a
/// block that fails here rewinds the whole job first, so `node` is where
/// it was.
pub(crate) fn sequence(
    node: &mut FullNode,
    job: CertJob,
    breakdown: &mut CertBreakdown,
) -> Result<(PreparedJob, Undo), CertError> {
    let prev_header = node.tip().clone();
    let mut undo = Undo::new();
    let mut link = |block| link_block(node, block, &mut undo, breakdown);
    let prepared = match job {
        CertJob::Block(block) => {
            link(block).map(|link| PreparedJob::certify(prev_header, vec![link], Vec::new()))
        }
        CertJob::Hierarchical { block, indexes } => {
            link(block).map(|link| PreparedJob::certify(prev_header, vec![link], indexes))
        }
        CertJob::Batch(blocks) => blocks
            .into_iter()
            .map(link)
            .collect::<Result<_, _>>()
            .map(|links| PreparedJob::certify(prev_header, links, Vec::new())),
        CertJob::Augmented { block, indexes } => link(block).map(|link| PreparedJob::PerIndex {
            prev_header,
            link,
            indexes,
        }),
    };
    match prepared {
        Ok(prepared) => Ok((prepared, undo)),
        Err(error) => {
            rewind(node, undo);
            Err(error)
        }
    }
}

/// Takes `node` back past one sequenced job, newest block first.
pub(crate) fn rewind(node: &mut FullNode, undo: Undo) {
    for (prev_tip, displaced) in undo.into_iter().rev() {
        node.retract(prev_tip, displaced);
    }
}

// --- request building ------------------------------------------------------------

/// One job's requests, built by whoever proved it, with its proofs and the
/// index `prev_cert`s it was staged with. The block `prev_cert` is set at
/// [`Issuer::issue`], which alone holds it.
// Built once per job and moved to the issuer: boxing the larger variant
// would buy nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PreparedJob {
    /// One `Certify` crossing: a block, a batch, or a block with its index
    /// certificates.
    Certify {
        prev_header: BlockHeader,
        links: Vec<BatchLink>,
        indexes: Vec<IndexInput>,
    },
    /// Algorithm 4: one `AugSigGen` per index over this block, and no block
    /// certificate.
    PerIndex {
        prev_header: BlockHeader,
        link: BatchLink,
        indexes: Vec<IndexInput>,
    },
}

impl PreparedJob {
    /// The one job shape of `CertJob::{Block, Hierarchical, Batch}`: certify
    /// the last of `links`, which extend `prev_header`, and each of
    /// `indexes` over it.
    fn certify(prev_header: BlockHeader, links: Vec<BatchLink>, indexes: Vec<IndexInput>) -> Self {
        PreparedJob::Certify {
            prev_header,
            links,
            indexes,
        }
    }
}

// --- issue and commit -----------------------------------------------------------

/// The certificates one job produced, not yet part of the issuer's chain.
pub(crate) struct Issued {
    header: BlockHeader,
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
    /// Reused request-marshalling buffer: every request is encoded here
    /// instead of into a fresh `Vec` per ECall.
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

    /// Issues every certificate of `job`: sets the previous certificates on
    /// its requests, encodes each once into the scratch buffer, crosses the
    /// boundary — once, but for Algorithm 4's once per index — and
    /// assembles the results. The issuer's chains are left as they were —
    /// see [`Issuer::commit`].
    pub(crate) fn issue(
        &mut self,
        mut job: PreparedJob,
        breakdown: &mut CertBreakdown,
    ) -> Result<Issued, CertError> {
        let (PreparedJob::Certify { indexes, .. } | PreparedJob::PerIndex { indexes, .. }) =
            &mut job;
        for index in indexes.iter_mut() {
            // Issued-else-staged: chain from the certificate this issuer
            // last issued for the index, else from the staged one.
            if let Some(cert) = self.prev_index_certs.get(&index.index_type) {
                index.prev_cert = Some(cert.clone());
            }
        }
        let certified: Vec<(String, Hash)> = indexes
            .iter()
            .map(|index| (index.index_type.clone(), index.new_digest))
            .collect();
        let (header, block_sig, index_sigs) = match job {
            PreparedJob::Certify {
                prev_header,
                links,
                indexes,
            } => {
                let last = links.last().ok_or(CertError::EmptyRange)?;
                let header = last.block.header.clone();
                let request = EcallRequest::Certify {
                    prev_header,
                    prev_cert: self.prev_block_cert.clone(),
                    links,
                    indexes,
                };
                self.marshal(|out| request.encode(out));
                let expected = 1 + certified.len();
                let mut signatures = self.attested.sign(&self.scratch, expected, breakdown)?;
                let block_sig = signatures.remove(0);
                (header, Some(block_sig), signatures)
            }
            PreparedJob::PerIndex {
                prev_header,
                link,
                indexes,
            } => {
                let mut signatures = Vec::with_capacity(indexes.len());
                for index in &indexes {
                    self.marshal(|out| encode_aug_sig_gen(&prev_header, &link, index, out));
                    signatures.extend(self.attested.sign(&self.scratch, 1, breakdown)?);
                }
                (link.block.header, None, signatures)
            }
        };
        let header_digest = header.hash();
        let certify = |digest, signature| self.attested.certificate(digest, signature);
        let index_certs =
            certified
                .into_iter()
                .zip(index_sigs)
                .map(|((index_type, new_digest), signature)| {
                    let digest = Certificate::index_digest(&header_digest, &new_digest);
                    (index_type, new_digest, certify(digest, signature))
                });
        Ok(Issued {
            index_certs: index_certs.collect(),
            block_cert: block_sig.map(|signature| certify(header_digest, signature)),
            header,
        })
    }

    /// Encodes one request into the scratch buffer, crediting the bytes
    /// below the buffer's high-water mark to `enclave.marshal_reuse_bytes`.
    fn marshal(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.scratch.clear();
        encode(&mut self.scratch);
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
