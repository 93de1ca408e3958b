//! The trusted certificate program (runs *inside* the enclave).
//!
//! This module is the in-enclave half of DCert: Algorithm 2
//! (`ecall_sig_gen` with `blk_verify_t` and `cert_verify_t`), the trusted
//! part of Algorithm 4 (augmented certificates), and Algorithm 5
//! (hierarchical certificates) as one request that signs the block
//! certificate and every index certificate off one replay. It is loaded
//! into a [`dcert_sgx::Enclave`], which measures it and confines the enclave
//! key `sk_enc` — generated here on the `Init` ECall — behind the boundary.
//! It is a function of its request and the sealed watermark: nothing it
//! learns in one request is remembered for the next.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dcert_chain::validity::{check_body, check_extends};
use dcert_chain::{Block, BlockHeader, ConsensusEngine};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{Keypair, PublicKey, Signature};
use dcert_sgx::enclave::{measure, Sealable};
use dcert_sgx::{SgxError, TrustedApp};
use dcert_vm::{CallStatus, Executor, ReadSetState, StateKey, VmError};
// dcert-lint: allow(r3-determinism, reason = "sk_enc generation entropy on the Init ECall; replayable runs pre-seed via with_signing_seed")
use rand::rngs::OsRng;

use crate::cert::Certificate;
use crate::error::CertError;
use crate::messages::{BatchLink, BlockInput, EcallRequest, EcallResponse, IndexInput, WriteSet};
use crate::range::RangeCert;
use crate::verifier::IndexVerifier;

/// The measured code identity of the certificate program.
///
/// In real SGX the measurement covers the enclave image — program logic,
/// the consensus rules, the contract semantics, and the registered index
/// verifiers. Bump the version when any of those change (`v2`: the state
/// tree's branch hash binds position, and the two-level indexes key their
/// upper level with that tree).
pub const CODE_IDENTITY: &[u8] = b"dcert-certificate-program-v2";

/// Returns the expected measurement of [`CertProgram`] — what superlight
/// clients pin as their trust anchor.
pub fn expected_measurement() -> Hash {
    measure(CODE_IDENTITY)
}

/// The trusted certificate program.
///
/// Holds, inside the enclave: the hard-coded genesis digest, the IAS root
/// key (to validate previous certificates recursively), the deterministic
/// executor and consensus engine (shared chain semantics), the index
/// verifiers, and — after `Init` — the signing key `sk_enc`.
pub struct CertProgram {
    genesis_digest: Hash,
    ias_key: PublicKey,
    executor: Executor,
    engine: Arc<dyn ConsensusEngine>,
    verifiers: HashMap<String, Box<dyn IndexVerifier>>,
    keypair: Option<Keypair>,
    /// Highest block height this enclave has signed. Sealed together with
    /// the key, so a restarted enclave cannot be replayed into signing a
    /// conflicting certificate at or below a height it already vouched
    /// for — the trust-boundary half of crash recovery.
    last_signed_height: u64,
}

impl CertProgram {
    /// Builds the program (pre-launch; nothing is trusted yet).
    pub fn new(
        genesis_digest: Hash,
        ias_key: PublicKey,
        executor: Executor,
        engine: Arc<dyn ConsensusEngine>,
        verifiers: Vec<Box<dyn IndexVerifier>>,
    ) -> Self {
        let verifiers = verifiers
            .into_iter()
            .map(|v| (v.type_name().to_owned(), v))
            .collect();
        CertProgram {
            genesis_digest,
            ias_key,
            executor,
            engine,
            verifiers,
            keypair: None,
            last_signed_height: 0,
        }
    }

    /// Pre-seeds the signing key so the `Init` ECall becomes
    /// deterministic: ed25519 signatures are deterministic, so two
    /// programs seeded alike produce byte-identical certificates. This is
    /// what the pipeline-equivalence tests and reproducible benches boot
    /// with; a production enclave generates `sk_enc` internally.
    #[must_use]
    pub fn with_signing_seed(mut self, seed: [u8; 32]) -> Self {
        self.keypair = Some(Keypair::from_seed(seed));
        self
    }

    fn keypair(&self) -> Result<&Keypair, CertError> {
        self.keypair.as_ref().ok_or(CertError::NotInitialized)
    }

    /// Dispatches a decoded request — the logic behind the byte-level
    /// [`TrustedApp::call`]. Public so tests can assert on typed
    /// [`CertError`]s rather than boundary-rendered strings.
    ///
    /// Every signing request is framed the same way by the sealed
    /// watermark: guard the lowest height on offer, verify and sign, then
    /// advance the mark to the highest height signed.
    pub fn handle(&mut self, request: EcallRequest) -> Result<EcallResponse, CertError> {
        let at = |height: u64, strict: bool| (Some(height), strict, Some(height));
        let last_of = |links: &[BatchLink]| links.last().map(|link| link.block.header.height);
        // `(height offered to the guard, strict?, height marked signed)`.
        // Strict guards refuse *at* the watermark too: block certificates
        // must advance the chain (Algorithm 5's request signs one), while
        // Algorithm 4's per-index certificates share their block's height.
        // The fleet's guards are strict — a shard or aggregator never re-signs
        // heights it already vouched for; restart recovery resumes *above*
        // the sealed watermark and re-certifying after a reorg takes a
        // fresh enclave (a new key, a new attestation).
        let (offered, strict, signs) = match &request {
            EcallRequest::Init => (None, true, None),
            EcallRequest::SigGen(input) => at(input.block.header.height, true),
            EcallRequest::AugSigGen(input, _) => at(input.block.header.height, false),
            EcallRequest::HierSigGen(input, _) => at(input.block.header.height, true),
            EcallRequest::BatchSigGen { links, .. } => (last_of(links), true, last_of(links)),
            EcallRequest::RangeSigGen { anchor, links } => {
                (Some(first_above(anchor)?), true, last_of(links))
            }
            EcallRequest::FoldRanges { ranges, .. } => {
                let first = ranges.first().ok_or(CertError::EmptyRange)?.first;
                (Some(first), true, ranges.last().map(|range| range.last))
            }
        };
        if let Some(offered) = offered {
            self.guard_height(offered, strict)?;
        }
        let response = match request {
            EcallRequest::Init => {
                let kp = self.keypair.get_or_insert_with(|| {
                    // dcert-lint: allow(r3-determinism, reason = "sk_enc generation entropy on the Init ECall; replayable runs pre-seed via with_signing_seed")
                    Keypair::generate(&mut OsRng)
                });
                EcallResponse::Initialized(kp.public())
            }
            // Algorithm 2 (`ecall_sig_gen`) is a batch of one.
            EcallRequest::SigGen(input) => {
                let (prev_header, prev_cert, link) = input.into_anchor_and_link();
                let sig = self.batch_sig_gen(&prev_header, prev_cert.as_ref(), &[link])?;
                EcallResponse::Signature(sig)
            }
            EcallRequest::AugSigGen(input, index) => {
                let (prev_header, _, link) = input.into_anchor_and_link();
                EcallResponse::Signature(self.aug_sig_gen(&prev_header, &link, &index)?)
            }
            EcallRequest::HierSigGen(input, indexes) => {
                EcallResponse::Signatures(self.hier_sig_gen(input, &indexes)?)
            }
            EcallRequest::BatchSigGen {
                prev_header,
                prev_cert,
                links,
            } => EcallResponse::Signature(self.batch_sig_gen(
                &prev_header,
                prev_cert.as_ref(),
                &links,
            )?),
            EcallRequest::RangeSigGen { anchor, links } => {
                EcallResponse::Signature(self.range_sig_gen(&anchor, &links)?)
            }
            EcallRequest::FoldRanges {
                anchor,
                anchor_cert,
                ranges,
            } => EcallResponse::Signatures(self.fold_ranges(
                &anchor,
                anchor_cert.as_ref(),
                &ranges,
            )?),
        };
        if let Some(height) = signs {
            self.mark_signed(height);
        }
        Ok(response)
    }

    /// The monotonicity guard: refuse to sign below the sealed watermark
    /// (`strict` additionally refuses *at* it — block certificates must
    /// advance the chain; index certificates may share a height).
    fn guard_height(&self, offered: u64, strict: bool) -> Result<(), CertError> {
        let regressed = if strict {
            offered <= self.last_signed_height && self.last_signed_height > 0
        } else {
            offered < self.last_signed_height
        };
        if regressed {
            return Err(CertError::HeightRegression {
                last_signed: self.last_signed_height,
                offered,
            });
        }
        Ok(())
    }

    fn mark_signed(&mut self, height: u64) {
        self.last_signed_height = self.last_signed_height.max(height);
    }

    /// The sealed signing watermark (test observability).
    pub fn last_signed_height(&self) -> u64 {
        self.last_signed_height
    }

    /// Algorithm 2 and its batch extension: one anchor check, then
    /// sequential `blk_verify_t` per link, one signature over the final
    /// header. The returned certificate vouches for the whole prefix
    /// exactly as a per-block certificate would (recursion is unchanged;
    /// intermediate certificates are simply never materialized).
    fn batch_sig_gen(
        &self,
        prev_header: &BlockHeader,
        prev_cert: Option<&Certificate>,
        links: &[BatchLink],
    ) -> Result<Signature, CertError> {
        let last = links
            .last()
            .ok_or_else(|| CertError::EnclaveRejected("empty batch".into()))?;
        self.verify_anchor(prev_header, prev_cert, None, &[])?;
        self.replay(prev_header, links)?;
        let kp = self.keypair()?;
        Ok(kp.sign(last.block.header.hash().as_bytes()))
    }

    /// Shard-fleet range step: sequential `blk_verify_t` from an
    /// *uncertified* anchor, then one signature over the range binding
    /// digest. No recursive anchor check happens here — the shard cannot
    /// have the anchor's certificate (producing it in parallel is the whole
    /// point) — so the binding signature instead *commits* to the anchor
    /// digest, and the aggregator authenticates it when chaining ranges.
    fn range_sig_gen(
        &self,
        anchor: &BlockHeader,
        links: &[BatchLink],
    ) -> Result<Signature, CertError> {
        let last = links.last().ok_or(CertError::EmptyRange)?;
        let first = first_above(anchor)?;
        self.replay(anchor, links)?;
        let digests: Vec<Hash> = links.iter().map(|link| link.block.header.hash()).collect();
        let binding =
            RangeCert::binding_digest(&anchor.hash(), first, last.block.header.height, &digests);
        let kp = self.keypair()?;
        Ok(kp.sign(binding.as_bytes()))
    }

    /// Aggregator step: authenticate the fold anchor recursively (genesis
    /// digest or a previous certificate of this very program), verify each
    /// shard range certificate's attestation and binding signature, enforce
    /// digest-to-digest chaining and height contiguity across ranges, then
    /// sign every folded header digest. Each produced signature is
    /// byte-identical to what sequential recursion would sign: ed25519 is
    /// deterministic and block certificates sign raw header digests.
    fn fold_ranges(
        &self,
        anchor: &BlockHeader,
        anchor_cert: Option<&Certificate>,
        ranges: &[RangeCert],
    ) -> Result<Vec<Signature>, CertError> {
        self.verify_anchor(anchor, anchor_cert, None, &[])?;
        let measurement = expected_measurement();
        let mut prev_digest = anchor.hash();
        let mut next_height = first_above(anchor)?;
        let kp = self.keypair()?;
        let mut sigs = Vec::new();
        for range in ranges {
            range.verify(&self.ias_key, &measurement)?;
            if range.anchor_digest != prev_digest {
                return Err(CertError::RangeAnchorMismatch);
            }
            if range.first != next_height {
                return Err(CertError::RangeDiscontinuity {
                    expected: next_height,
                    found: range.first,
                });
            }
            for digest in &range.header_digests {
                sigs.push(kp.sign(digest.as_bytes()));
            }
            prev_digest = *range.header_digests.last().ok_or(CertError::EmptyRange)?;
            next_height = range.last.checked_add(1).ok_or(CertError::HeightOverflow)?;
        }
        Ok(sigs)
    }

    /// Algorithm 4: augmented certificate (block + one index, one ECall).
    fn aug_sig_gen(
        &self,
        prev_header: &BlockHeader,
        link: &BatchLink,
        index: &IndexInput,
    ) -> Result<Signature, CertError> {
        let verifier = self.verifier(&index.index_type)?;
        // Lines 3–6: validate the previous augmented certificate, or the
        // genesis anchors for both the chain and the index.
        self.verify_anchor(
            prev_header,
            index.prev_cert.as_ref(),
            Some((verifier, &index.prev_digest)),
            &[],
        )?;
        // Line 7: full block validation (replay), yielding the write set.
        let writes = self.replay(prev_header, std::slice::from_ref(link))?;
        // Lines 8–12.
        let header_digest = link.block.header.hash();
        self.sign_index_update(verifier, index, &link.block, &writes, &header_digest)
    }

    /// Algorithm 5 in one crossing: the block certificate and every index
    /// certificate, signed off one replay. Every anchor is checked before
    /// anything is signed — the block's (Algorithm 2, lines 3–6), then each
    /// index's (Algorithm 5, lines 5–9). Line 10, "`cert_i` vouches for
    /// `hdr_i`", is discharged by line 7 of Algorithm 4 instead: the
    /// certificate it would check is the one this very call produces, so
    /// the replay that earns it also hands every index its write set. The
    /// block's signature comes first, then the indexes' in request order.
    fn hier_sig_gen(
        &self,
        input: BlockInput,
        indexes: &[IndexInput],
    ) -> Result<Vec<Signature>, CertError> {
        let (prev, prev_cert, link) = input.into_anchor_and_link();
        let mut attested = Vec::with_capacity(1 + indexes.len());
        attested.extend(self.verify_anchor(&prev, prev_cert.as_ref(), None, &attested)?);
        for index in indexes {
            let anchor = Some((self.verifier(&index.index_type)?, &index.prev_digest));
            let checked = self.verify_anchor(&prev, index.prev_cert.as_ref(), anchor, &attested)?;
            attested.extend(checked);
        }
        let writes = self.replay(&prev, std::slice::from_ref(&link))?;
        let digest = link.block.header.hash();
        let mut sigs = vec![self.keypair()?.sign(digest.as_bytes())];
        for index in indexes {
            let verifier = self.verifier(&index.index_type)?;
            sigs.push(self.sign_index_update(verifier, index, &link.block, &writes, &digest)?);
        }
        Ok(sigs)
    }

    /// The tail Algorithms 4 and 5 share: recompute the index digest from
    /// the update proof, hold it against the claimed one, and sign
    /// `H(H(hdr_i) ‖ H_i^idx)`.
    fn sign_index_update(
        &self,
        verifier: &dyn IndexVerifier,
        index: &IndexInput,
        block: &Block,
        writes: &WriteSet,
        header_digest: &Hash,
    ) -> Result<Signature, CertError> {
        let new_digest = verifier.verify_update(&index.prev_digest, block, writes, &index.aux)?;
        if new_digest != index.new_digest {
            return Err(CertError::IndexDigestMismatch);
        }
        let digest = Certificate::index_digest(header_digest, &new_digest);
        let kp = self.keypair()?;
        Ok(kp.sign(digest.as_bytes()))
    }

    fn verifier(&self, name: &str) -> Result<&dyn IndexVerifier, CertError> {
        self.verifiers
            .get(name)
            .map(|v| v.as_ref())
            .ok_or_else(|| CertError::UnknownIndexType(name.to_owned()))
    }

    /// The recursion anchor: `cert_verify_t` on the previous certificate,
    /// or the genesis digest when the parent is genesis (Algorithm 2,
    /// lines 3–6). With `index` — a verifier and the claimed `H_{i-1}^idx`
    /// — the anchor is the previous *index* certificate over
    /// `H(H(hdr_{i-1}) ‖ H_{i-1}^idx)`, or both genesis digests
    /// (Algorithm 4, lines 3–6; Algorithm 5, lines 5–9).
    ///
    /// Hands back the certificate it checked (none off genesis). `attested`
    /// are those this request has already checked — "check an attestation
    /// report only once" (§4.3) inside one request, never across two: the
    /// same `⟨rep, pk_enc⟩`, byte for byte, skips to the certificate's own
    /// signature and digest.
    fn verify_anchor<'a>(
        &self,
        prev_header: &BlockHeader,
        prev_cert: Option<&'a Certificate>,
        index: Option<(&dyn IndexVerifier, &Hash)>,
        attested: &[&Certificate],
    ) -> Result<Option<&'a Certificate>, CertError> {
        let prev_digest = prev_header.hash();
        if prev_header.height == 0 {
            let index_off_genesis =
                index.is_some_and(|(verifier, digest)| *digest != verifier.genesis_digest());
            if prev_digest != self.genesis_digest || index_off_genesis {
                return Err(CertError::GenesisMismatch);
            }
            return Ok(None);
        }
        let cert = prev_cert.ok_or(CertError::MissingPrevCert)?;
        let expected = match index {
            None => prev_digest,
            Some((_, digest)) => Certificate::index_digest(&prev_digest, digest),
        };
        let known = |seen: &&Certificate| seen.report == cert.report && seen.pk_enc == cert.pk_enc;
        if !attested.iter().any(known) {
            cert.verify_trust(&self.ias_key, &expected_measurement())?;
        }
        cert.verify_digest(&expected)?;
        Ok(Some(cert))
    }

    /// Replays `links` as consecutive chain transitions from `anchor` —
    /// `blk_verify_t` on each link against its predecessor's header, all
    /// borrowed from the decoded request. Returns the last link's write set
    /// (what an index verifier consumes); an empty run writes nothing.
    fn replay(&self, anchor: &BlockHeader, links: &[BatchLink]) -> Result<WriteSet, CertError> {
        let mut prev = anchor;
        let mut writes = WriteSet::new();
        for link in links {
            writes = self.blk_verify(prev, link)?;
            prev = &link.block.header;
        }
        Ok(writes)
    }

    /// `blk_verify_t` (Algorithm 2, lines 10–24). Returns the replayed
    /// write set for index verifiers.
    fn blk_verify(&self, prev: &BlockHeader, link: &BatchLink) -> Result<WriteSet, CertError> {
        let (block, state_proof) = (&link.block, &link.state_proof);
        // Lines 14–16 and 19: linkage and height, consensus proof,
        // transaction commitment and signatures — the full node's rule.
        check_extends(prev, &block.header)?;
        check_body(self.engine.as_ref(), block)?;
        // Line 17: authenticate the read set against H_{i-1}^s.
        let pre_state = state_proof.verify(&prev.state_root)?;
        let mut read_map: BTreeMap<StateKey, Option<Vec<u8>>> = BTreeMap::new();
        for (key, value) in &link.reads {
            let claimed = value.as_ref().map(dcert_primitives::hash::hash_bytes);
            let proven = pre_state
                .pre_value_hash(key.as_hash())
                .map_err(|_| CertError::ReadSetMismatch)?;
            if claimed != proven {
                return Err(CertError::ReadSetMismatch);
            }
            read_map.insert(*key, value.clone());
        }
        // Lines 18–21: replay every transaction on the read set.
        let backend = ReadSetState::new(read_map);
        let calls: Vec<dcert_vm::Call> = block.txs.iter().map(|tx| tx.call.clone()).collect();
        let replay = self.executor.execute_block(&backend, &calls);
        if replay
            .statuses
            .iter()
            .any(|s| matches!(s, CallStatus::Reverted(VmError::ReadSetMiss)))
        {
            return Err(CertError::ReadSetMismatch);
        }
        // Lines 22–23: authenticate the write neighborhood and recompute
        // the post-state root.
        let writes: WriteSet = replay.writes.into_iter().collect();
        let reached = pre_state.updated_root(&hash_writes(&writes))?;
        if reached != block.header.state_root {
            return Err(CertError::StateRootMismatch);
        }
        Ok(writes)
    }
}

/// The first height above `anchor` — where a range anchored there starts.
fn first_above(anchor: &BlockHeader) -> Result<u64, CertError> {
    anchor
        .height
        .checked_add(1)
        .ok_or(CertError::HeightOverflow)
}

/// Converts a write set into the `(path, value-hash)` pairs the SMT update
/// consumes.
pub fn hash_writes(writes: &WriteSet) -> Vec<(Hash, Option<Hash>)> {
    dcert_chain::validity::hash_writes(writes.iter().map(|(key, value)| (key, value)))
}

impl Sealable for CertProgram {
    /// `sk_enc (32 bytes) ++ last_signed_height (8 bytes BE)`. The
    /// watermark travels inside the seal so an operator cannot roll the
    /// enclave back to a pre-signing state by restarting it.
    fn export_state(&self) -> Vec<u8> {
        match &self.keypair {
            None => Vec::new(),
            Some(kp) => {
                let mut out = kp.to_secret_bytes().to_vec();
                out.extend_from_slice(&self.last_signed_height.to_be_bytes());
                out
            }
        }
    }

    fn import_state(&mut self, state: &[u8]) -> Result<(), SgxError> {
        if state.is_empty() {
            self.keypair = None;
            self.last_signed_height = 0;
            return Ok(());
        }
        let (key, height) = match state.len() {
            // Legacy blobs sealed before the watermark existed.
            32 => (state, 0u64),
            40 => {
                let (key, be) = state.split_at(32);
                let be = be.try_into().map_err(|_| SgxError::BadSeal)?;
                (key, u64::from_be_bytes(be))
            }
            _ => return Err(SgxError::BadSeal),
        };
        let seed: [u8; 32] = key.try_into().map_err(|_| SgxError::BadSeal)?;
        self.keypair = Some(Keypair::from_seed(seed));
        self.last_signed_height = height;
        Ok(())
    }
}

impl TrustedApp for CertProgram {
    fn code_identity(&self) -> &[u8] {
        CODE_IDENTITY
    }

    fn call(&mut self, input: &[u8]) -> Vec<u8> {
        let response = match EcallRequest::decode_all(input) {
            Err(e) => EcallResponse::Rejected(format!("request codec: {e}")),
            Ok(request) => match self.handle(request) {
                Ok(resp) => resp,
                Err(e) => EcallResponse::Rejected(e.to_string()),
            },
        };
        response.to_encoded_bytes()
    }
}
