//! The trusted certificate program (runs *inside* the enclave).
//!
//! This module is the in-enclave half of DCert. One request,
//! [`EcallRequest::Certify`], is Algorithm 2 (`ecall_sig_gen` with
//! `blk_verify_t` and `cert_verify_t`), its batch extension and Algorithm 5
//! (hierarchical certificates): it replays links from an anchor, signs the
//! last header, then signs every index certificate off that one replay.
//! Beside it are the trusted part of Algorithm 4 (augmented certificates)
//! and the shard fleet's range and fold steps. It is loaded
//! into a [`dcert_sgx::Enclave`], which measures it and confines the enclave
//! key `sk_enc` — generated here on the `Init` ECall — behind the boundary.
//! It is a function of its request, the sealed watermark and a bounded
//! memo of what it has itself vouched for: its own attestation report,
//! once a full check has passed it, and the certificates it signed at the
//! watermark height. With them a steady-state request takes its anchor
//! certificates — the ones this enclave issued in its previous request —
//! without re-checking their report or their signature (see
//! [`CertProgram::handle`]). The memo lives in enclave memory only: it is
//! not sealed, so a restored enclave pays one full anchor check.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use dcert_chain::validity::{check_body, check_extends};
use dcert_chain::{Block, BlockHeader, ConsensusEngine};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::{Keypair, PublicKey, SecretBytes, Signature};
use dcert_sgx::enclave::{measure, Sealable};
use dcert_sgx::{AttestationReport, SgxError, TrustedApp};
use dcert_vm::{CallStatus, Executor, ReadSetState, StateKey, VmError};

use crate::cert::Certificate;
use crate::error::CertError;
use crate::messages::{BatchLink, EcallRequest, EcallResponse, IndexInput, WriteSet};
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
    /// Highest block height this enclave has signed, sealed with the key.
    /// It orders one key's signatures within one line of seals, guarding
    /// against host mistakes (and the memo anchors on it); restoring an
    /// older blob restores its lower watermark on purpose, as every fleet
    /// reorg does. It is no promise to clients, who trust a measurement.
    last_signed_height: u64,
    /// What this enclave has vouched for, across requests; see [`Memo`].
    memo: Memo,
}

/// Facts a [`CertProgram`] keeps between requests, in enclave memory only
/// (never sealed). Each stands for a check the full path would pass, so
/// [`CertProgram::verify_anchor`] may skip that check and still accept
/// exactly what the full path accepts.
struct Memo {
    /// This enclave's own attestation report, as of the last full
    /// `verify_trust` that passed on a certificate under its own `pk_enc`.
    report: Option<AttestationReport>,
    /// `(digest, signature)` of each certificate signed at the watermark
    /// height — at most one block certificate plus one per index verifier,
    /// cleared when the watermark moves up.
    issued: Vec<(Hash, Signature)>,
}

/// What one request has checked and signed: its anchor certificates (the
/// in-request "check an attestation report only once" memo) and the
/// certificates it signs at its highest height. [`CertProgram::handle`]
/// folds it into the [`Memo`] only once the request has succeeded.
#[derive(Default)]
struct Learned<'a> {
    attested: Vec<&'a Certificate>,
    issued: Vec<(Hash, Signature)>,
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
        let verifiers: HashMap<_, _> = verifiers
            .into_iter()
            .map(|v| (v.type_name().to_owned(), v))
            .collect();
        // Sized once, here: `remember` never grows it past this.
        let issued = Vec::with_capacity(1 + verifiers.len());
        CertProgram {
            genesis_digest,
            ias_key,
            executor,
            engine,
            verifiers,
            keypair: None,
            last_signed_height: 0,
            memo: Memo {
                report: None,
                issued,
            },
        }
    }

    /// Pre-seeds the signing key so the `Init` ECall becomes
    /// deterministic: ed25519 signatures are deterministic, so two
    /// programs seeded alike produce byte-identical certificates. Only the
    /// replay constructors boot with it (lint rule R1 holds it there);
    /// every other key is drawn on `Init`, inside the enclave.
    #[must_use]
    pub fn with_signing_seed(mut self, seed: [u8; 32]) -> Self {
        self.keypair = Some(Keypair::from_seed(seed));
        self
    }

    fn keypair(&self) -> Result<&Keypair, CertError> {
        self.keypair.as_ref().ok_or(CertError::NotInitialized)
    }

    /// Dispatches a decoded request — the logic behind the byte-level
    /// [`TrustedApp::call`], whose [`EcallResponse::Rejected`] carries the
    /// [`CertError`] built here unchanged.
    ///
    /// Every signing request is framed the same way by the sealed
    /// watermark: refuse a malformed shape, guard the lowest height on
    /// offer, verify and sign, then advance the mark to the highest height
    /// signed and remember what the request learned (`remember`). A
    /// refused request changes nothing. Every signing request is answered
    /// by [`EcallResponse::Signatures`].
    pub fn handle(&mut self, request: EcallRequest) -> Result<EcallResponse, CertError> {
        let at = |height: u64, strict: bool| (Some(height), strict, Some(height));
        let last_of = |links: &[BatchLink]| links.last().map(|link| link.block.header.height);
        // `(height offered to the guard, strict?, height marked signed)`.
        // Strict guards refuse *at* the watermark too: block certificates
        // must advance the chain (every `Certify` signs one), while
        // Algorithm 4's per-index certificates share their block's height.
        // The fleet's guards are strict — a shard or aggregator never re-signs
        // heights it already vouched for. Shards seal nothing: a restarted
        // shard draws a new key. After a reorg the aggregator boots again
        // with the same key and the watermark it first booted with.
        let (offered, strict, signs) = match &request {
            EcallRequest::Init => (None, true, None),
            EcallRequest::Certify { links, indexes, .. } => {
                let last = links.last().ok_or(CertError::EmptyRange)?;
                if links.len() > 1 && !indexes.is_empty() {
                    return Err(CertError::BadIndexUpdate(
                        "indexes need exactly one link".into(),
                    ));
                }
                at(last.block.header.height, true)
            }
            EcallRequest::AugSigGen { link, .. } => at(link.block.header.height, false),
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
        let mut learned = Learned::default();
        let response = match &request {
            EcallRequest::Init => {
                let kp = self.keypair.get_or_insert_with(|| {
                    // dcert-lint: allow(r3-determinism, reason = "sk_enc is born here, inside the enclave; shard keys too, and no client-facing byte depends on them")
                    Keypair::generate(&mut rand::rngs::OsRng)
                });
                EcallResponse::Initialized(kp.public())
            }
            EcallRequest::Certify {
                prev_header,
                prev_cert,
                links,
                indexes,
            } => EcallResponse::Signatures(self.certify(
                prev_header,
                prev_cert.as_ref(),
                links,
                indexes,
                &mut learned,
            )?),
            EcallRequest::AugSigGen {
                prev_header,
                link,
                index,
            } => {
                let sig = self.aug_sig_gen(prev_header, link, index, &mut learned)?;
                EcallResponse::Signatures(vec![sig])
            }
            EcallRequest::RangeSigGen { anchor, links } => {
                EcallResponse::Signatures(vec![self.range_sig_gen(anchor, links)?])
            }
            EcallRequest::FoldRanges {
                anchor,
                anchor_cert,
                ranges,
            } => EcallResponse::Signatures(self.fold_ranges(
                anchor,
                anchor_cert.as_ref(),
                ranges,
                &mut learned,
            )?),
        };
        if let Some(height) = signs {
            self.remember(height, learned);
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

    /// Moves the watermark up to `height` and folds a successful request's
    /// [`Learned`] into the [`Memo`]. The report is the last one an anchor
    /// under this enclave's own key carried: every anchor in `attested` has
    /// passed the full check (or matched one that did). The issued list
    /// holds the watermark height's certificates only — the ones the next
    /// request anchors on — so it starts over when the mark moves up, and
    /// is capped at one block certificate plus one per index verifier. (The
    /// guard has refused every request offering a height below the mark.)
    fn remember(&mut self, height: u64, learned: Learned<'_>) {
        if height > self.last_signed_height {
            self.last_signed_height = height;
            self.memo.issued.clear();
        }
        let own = self.keypair.as_ref().map(Keypair::public);
        let mut attested = learned.attested.iter().rev();
        if let Some(cert) = attested.find(|cert| Some(cert.pk_enc) == own) {
            self.memo.report = Some(cert.report.clone());
        }
        let cap = 1 + self.verifiers.len();
        for pair in learned.issued {
            if self.memo.issued.len() < cap && !self.memo.issued.contains(&pair) {
                self.memo.issued.push(pair);
            }
        }
    }

    /// The sealed signing watermark (test observability).
    pub fn last_signed_height(&self) -> u64 {
        self.last_signed_height
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
    fn fold_ranges<'a>(
        &self,
        anchor: &BlockHeader,
        anchor_cert: Option<&'a Certificate>,
        ranges: &[RangeCert],
        learned: &mut Learned<'a>,
    ) -> Result<Vec<Signature>, CertError> {
        self.verify_anchor(anchor, anchor_cert, None, learned)?;
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
        // Only the last folded certificate is at the watermark height.
        learned
            .issued
            .extend(sigs.last().map(|sig| (prev_digest, *sig)));
        Ok(sigs)
    }

    /// Algorithm 4: augmented certificate (block + one index, one ECall).
    fn aug_sig_gen<'a>(
        &self,
        prev_header: &BlockHeader,
        link: &BatchLink,
        index: &'a IndexInput,
        learned: &mut Learned<'a>,
    ) -> Result<Signature, CertError> {
        let verifier = self.verifier(&index.index_type)?;
        // Lines 3–6: validate the previous augmented certificate, or the
        // genesis anchors for both the chain and the index.
        self.verify_anchor(
            prev_header,
            index.prev_cert.as_ref(),
            Some((verifier, &index.prev_digest)),
            learned,
        )?;
        // Line 7: full block validation (replay), yielding the write set.
        let writes = self.replay(prev_header, std::slice::from_ref(link))?;
        // Lines 8–12.
        let header_digest = link.block.header.hash();
        let digest =
            self.index_update_digest(verifier, index, &link.block, &writes, &header_digest)?;
        self.sign_cert(digest, learned)
    }

    /// Algorithm 2, its batch extension and Algorithm 5, as one request.
    /// Every anchor is checked before anything is signed — the block's
    /// (Algorithm 2, lines 3–6), then each index's (Algorithm 5, lines
    /// 5–9). Then sequential `blk_verify_t` per link, one signature over
    /// the last header, and one per index over `H(H(hdr) ‖ H_idx)`, in
    /// request order. The last certificate vouches for the whole prefix
    /// exactly as a per-block certificate would (recursion is unchanged;
    /// intermediate certificates are never materialized). Algorithm 5's
    /// line 10, "`cert_i` vouches for `hdr_i`", is discharged by line 7 of
    /// Algorithm 4 instead: the certificate it would check is the one this
    /// very call produces, so the replay that earns it also hands every
    /// index its write set. [`CertProgram::handle`] has refused every
    /// request whose indexes do not ride on exactly one link.
    fn certify<'a>(
        &self,
        prev_header: &BlockHeader,
        prev_cert: Option<&'a Certificate>,
        links: &[BatchLink],
        indexes: &'a [IndexInput],
        learned: &mut Learned<'a>,
    ) -> Result<Vec<Signature>, CertError> {
        let last = links.last().ok_or(CertError::EmptyRange)?;
        self.verify_anchor(prev_header, prev_cert, None, learned)?;
        for index in indexes {
            let anchor = Some((self.verifier(&index.index_type)?, &index.prev_digest));
            self.verify_anchor(prev_header, index.prev_cert.as_ref(), anchor, learned)?;
        }
        let writes = self.replay(prev_header, links)?;
        let header_digest = last.block.header.hash();
        let mut sigs = Vec::with_capacity(1 + indexes.len());
        sigs.push(self.sign_cert(header_digest, learned)?);
        for index in indexes {
            let verifier = self.verifier(&index.index_type)?;
            let digest =
                self.index_update_digest(verifier, index, &last.block, &writes, &header_digest)?;
            sigs.push(self.sign_cert(digest, learned)?);
        }
        Ok(sigs)
    }

    /// The tail Algorithms 4 and 5 share: recompute the index digest from
    /// the update proof, hold it against the claimed one, and return the
    /// digest to sign, `H(H(hdr_i) ‖ H_i^idx)`.
    fn index_update_digest(
        &self,
        verifier: &dyn IndexVerifier,
        index: &IndexInput,
        block: &Block,
        writes: &WriteSet,
        header_digest: &Hash,
    ) -> Result<Hash, CertError> {
        let new_digest = verifier.verify_update(&index.prev_digest, block, writes, &index.aux)?;
        if new_digest != index.new_digest {
            return Err(CertError::IndexDigestMismatch);
        }
        Ok(Certificate::index_digest(header_digest, &new_digest))
    }

    /// Signs a certificate digest with `sk_enc` and notes the pair in
    /// `learned`, for [`CertProgram::remember`].
    fn sign_cert(&self, digest: Hash, learned: &mut Learned<'_>) -> Result<Signature, CertError> {
        let sig = self.keypair()?.sign(digest.as_bytes());
        learned.issued.push((digest, sig));
        Ok(sig)
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
    /// A certificate that passes is added to `learned.attested`, the
    /// anchors this request has checked — "check an attestation report only
    /// once" (§4.3): the same `⟨rep, pk_enc⟩`, byte for byte, skips to the
    /// certificate's own signature and digest. Across requests the [`Memo`]
    /// adds two shortcuts for certificates under this enclave's own key,
    /// each standing for a check the full path would pass:
    ///
    /// - its remembered report, byte for byte, skips `verify_trust` — that
    ///   report already passed it under the same IAS key, measurement and
    ///   `pk_enc`;
    /// - a `(digest, signature)` it issued at the watermark skips only the
    ///   Ed25519 step — `sk_enc` produced it — and the digest is still
    ///   compared, so a misplaced one is still [`CertError::DigestMismatch`].
    ///
    /// Any other certificate takes the full path, so every verdict and
    /// every typed error is the full path's.
    fn verify_anchor<'a>(
        &self,
        prev_header: &BlockHeader,
        prev_cert: Option<&'a Certificate>,
        index: Option<(&dyn IndexVerifier, &Hash)>,
        learned: &mut Learned<'a>,
    ) -> Result<(), CertError> {
        let prev_digest = prev_header.hash();
        if prev_header.height == 0 {
            let index_off_genesis =
                index.is_some_and(|(verifier, digest)| *digest != verifier.genesis_digest());
            if prev_digest != self.genesis_digest || index_off_genesis {
                return Err(CertError::GenesisMismatch);
            }
            return Ok(());
        }
        let cert = prev_cert.ok_or(CertError::MissingPrevCert)?;
        let expected = match index {
            None => prev_digest,
            Some((_, digest)) => Certificate::index_digest(&prev_digest, digest),
        };
        let own = self
            .keypair
            .as_ref()
            .is_some_and(|kp| kp.public() == cert.pk_enc);
        let known = |seen: &&Certificate| seen.report == cert.report && seen.pk_enc == cert.pk_enc;
        let remembered = own && self.memo.report.as_ref() == Some(&cert.report);
        if !remembered && !learned.attested.iter().any(known) {
            cert.verify_trust(&self.ias_key, &expected_measurement())?;
        }
        let issued = own && self.memo.issued.contains(&(cert.digest, cert.signature));
        if !issued {
            cert.verify_digest(&expected)?;
        } else if cert.digest != expected {
            return Err(CertError::DigestMismatch);
        }
        learned.attested.push(cert);
        Ok(())
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

/// Bytes of [`CertProgram`]'s sealed state once its key exists:
/// `sk_enc` (32) ‖ `last_signed_height` (8).
const SEALED_STATE_LEN: usize = 32 + 8;

impl Sealable for CertProgram {
    /// `sk_enc (32 bytes) ++ last_signed_height (8 bytes BE)`. The
    /// watermark travels inside the seal so that a restart from the latest
    /// seal cannot reset it to 0. Restoring an older blob restores its lower
    /// watermark, and the enclave signs again at heights it already signed:
    /// that gives a host nothing, as a fresh enclave with the same
    /// measurement would sign them too (DESIGN.md §10).
    fn export_state(&self) -> SecretBytes {
        match &self.keypair {
            None => SecretBytes::default(),
            Some(kp) => {
                let mut out = kp.to_secret_bytes();
                out.extend_from_slice(&self.last_signed_height.to_be_bytes());
                out
            }
        }
    }

    #[allow(clippy::disallowed_methods, reason = "parses the sealed `sk_enc`")]
    fn import_state(&mut self, state: &SecretBytes) -> Result<(), SgxError> {
        // The memo vouches for the key it was learned under.
        self.memo.report = None;
        self.memo.issued.clear();
        if state.is_empty() {
            self.keypair = None;
            self.last_signed_height = 0;
            return Ok(());
        }
        // Exactly `key ++ watermark`: a key-only blob would restore the
        // key with the rollback guard reset to 0.
        let (key, be) = state
            .expose()
            .split_first_chunk::<32>()
            .ok_or(SgxError::BadSeal)?;
        let be: [u8; 8] = be.try_into().map_err(|_| SgxError::BadSeal)?;
        self.keypair = Some(Keypair::from_seed(*key));
        self.last_signed_height = u64::from_be_bytes(be);
        Ok(())
    }
}

impl TrustedApp for CertProgram {
    fn code_identity(&self) -> &[u8] {
        CODE_IDENTITY
    }

    fn call(&mut self, input: &[u8]) -> Vec<u8> {
        let response = match EcallRequest::decode_all(input) {
            Err(e) => EcallResponse::Rejected(CertError::Codec(e)),
            Ok(request) => self.handle(request).unwrap_or_else(EcallResponse::Rejected),
        };
        response.to_encoded_bytes()
    }

    /// The sealable state (`export_state`'s length: key ‖ watermark once
    /// the key exists) plus the memo, which is bounded: one report and at
    /// most 1 + #indexes `(digest, signature)` pairs.
    fn retained_bytes(&self) -> u64 {
        let sealed = if self.keypair.is_some() {
            SEALED_STATE_LEN
        } else {
            0
        };
        let report = self.memo.report.as_ref().map_or(0, Encode::encoded_len);
        let issued = self.memo.issued.len() * (Hash::LEN + Signature::LEN);
        (sealed + report + issued) as u64
    }
}
