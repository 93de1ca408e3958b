//! The superlight client (Algorithm 3) and the one certificate check.
//!
//! Two layers. A [`TrustDomain`] is an attestation root plus the program
//! measurement expected under it; [`TrustDomain::check`] is the check every
//! certificate holder runs — the attestation report once per byte-equal
//! ⟨rep, pk_enc⟩, the signature and digest every time. A
//! [`SuperlightClient`] holds `threshold` of `n` such domains — one of one
//! by default; Section 6's "avoid relying solely on Intel" is `k` of `n`
//! TEE vendors — and stores exactly one header and one certificate
//! (constant storage). It adopts a digest once `threshold` distinct domains
//! certified it and the chain-selection rule passed. Optionally it tracks
//! per-index certificates so verifiable queries can be checked against
//! certified index digests.

use std::collections::HashMap;

use dcert_chain::BlockHeader;
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::PublicKey;
use dcert_sgx::AttestationReport;
use dcert_store::{Store, StoreError};

use crate::cert::Certificate;
use crate::error::CertError;
use crate::network::NetMessage;
use crate::persist::{
    RecoverError, SUPERLIGHT_INDEX_PREFIX, SUPERLIGHT_LATEST_KEY, SUPERLIGHT_SEEN_KEY,
};

/// What [`SuperlightClient::on_message`] did with a network message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The certificate validated and the client advanced its chain view.
    Adopted,
    /// An index certificate validated against the current chain view.
    AdoptedIndex,
    /// The message was for a height at or below the adopted one —
    /// a duplicate or late delivery, harmlessly discarded.
    Stale,
    /// The certificate validated under one trust domain, but fewer than
    /// the client's threshold of domains have certified its digest so far
    /// ([`CertError::BelowThreshold`]); it counts toward that digest and
    /// changes nothing else.
    Pending,
    /// The message type is not consumed by this client.
    Ignored,
    /// The certificate failed validation (forged, corrupted in flight, or
    /// mismatched). The height it *claimed* still counts as seen, so the
    /// resync path re-fetches the authentic certificate.
    Rejected(CertError),
}

/// One trust domain: an attestation root plus the expected program
/// measurement within it (e.g. "Intel IAS + SGX build" or "vendor X's
/// attestation + TrustZone build"), with the memo of the attestations
/// already checked under them.
#[derive(Debug, Clone)]
pub struct TrustDomain {
    ias_key: PublicKey,
    measurement: Hash,
    /// Every ⟨rep, pk_enc⟩ whose attestation verified in a committed
    /// offer — "check an attestation report only once" (Section 4.3).
    attested: Vec<(AttestationReport, [u8; 32])>,
}

impl TrustDomain {
    /// A domain trusting `ias_key` and `measurement`, with nothing attested.
    pub fn new(ias_key: PublicKey, measurement: Hash) -> Self {
        TrustDomain {
            ias_key,
            measurement,
            attested: Vec::new(),
        }
    }

    /// Checks that `cert` certifies `expected` under this domain
    /// (Algorithm 3, lines 3–7): the attestation report unless its
    /// ⟨rep, pk_enc⟩ is byte-equal to one already remembered, then the
    /// signature and the digest. Remembers nothing — [`Self::remember`]
    /// does, once the caller commits the offer.
    ///
    /// # Errors
    ///
    /// The [`Certificate::verify`] error of the first failed step.
    pub fn check(&self, cert: &Certificate, expected: &Hash) -> Result<(), CertError> {
        if !self.knows(cert) {
            cert.verify_trust(&self.ias_key, &self.measurement)?;
        }
        cert.verify_digest(expected)
    }

    /// Remembers `cert`'s ⟨rep, pk_enc⟩ as attested. Call it only for a
    /// certificate that passed [`Self::check`], when its offer commits.
    pub fn remember(&mut self, cert: &Certificate) {
        if !self.knows(cert) {
            self.attested
                .push((cert.report.clone(), cert.pk_enc.to_array()));
        }
    }

    fn knows(&self, cert: &Certificate) -> bool {
        let key = cert.pk_enc.to_array();
        self.attested
            .iter()
            .any(|(report, k)| *k == key && *report == cert.report)
    }
}

/// A DCert superlight client.
///
/// Trust anchors: `threshold` of its [`TrustDomain`]s must certify a
/// digest before it is adopted. [`SuperlightClient::new`] is the paper's
/// client — the well-known IAS root key and the expected enclave
/// measurement, one domain at threshold 1.
#[derive(Debug, Clone)]
pub struct SuperlightClient {
    domains: Vec<TrustDomain>,
    threshold: usize,
    latest: Option<(BlockHeader, Certificate)>,
    /// Latest certified digest + certificate per tracked index.
    indexes: HashMap<String, (Hash, Certificate)>,
    /// Digests certified by fewer than `threshold` domains so far: the
    /// height offered, and one certificate per domain that certified it.
    /// Always empty at threshold 1.
    votes: HashMap<Hash, (u64, Vec<(usize, Certificate)>)>,
    gap: GapTracker,
}

/// Gap detection: the highest height any *certificate message* announced,
/// adopted or not. When it runs ahead of the validated height the client
/// knows a delivery was lost, rejected, or is still short of its threshold.
#[derive(Debug, Clone, Default)]
struct GapTracker {
    highest_seen: Option<u64>,
}

impl GapTracker {
    fn saw_height(&mut self, height: u64) {
        self.highest_seen = Some(self.highest_seen.map_or(height, |h| h.max(height)));
    }

    /// The inclusive `(from, to)` heights announced above the view `have`.
    fn needs_resync(&self, have: Option<u64>) -> Option<(u64, u64)> {
        let seen = self.highest_seen?;
        let have = have.unwrap_or(0);
        (seen > have).then_some((have + 1, seen))
    }

    fn resync_request(&self, have: Option<u64>) -> Option<NetMessage> {
        self.needs_resync(have)
            .map(|(from, to)| NetMessage::CertRequest { from, to })
    }
}

/// The chain-selection rule (Algorithm 3, line 8): a header is adopted
/// only above the view already held.
fn check_selection(current: Option<u64>, offered: u64) -> Result<(), CertError> {
    match current {
        Some(current) if offered <= current => Err(CertError::ChainSelection { current, offered }),
        _ => Ok(()),
    }
}

impl SuperlightClient {
    /// Creates a client trusting `ias_key` and `measurement`: one trust
    /// domain at threshold 1.
    pub fn new(ias_key: PublicKey, measurement: Hash) -> Self {
        Self::quorum_of(vec![TrustDomain::new(ias_key, measurement)], 1)
    }

    /// Creates a client that adopts a digest only once `threshold` of
    /// `domains` certified it.
    ///
    /// # Errors
    ///
    /// [`CertError::BadThreshold`] when `threshold` is zero or exceeds the
    /// number of domains.
    pub fn with_domains(domains: Vec<TrustDomain>, threshold: usize) -> Result<Self, CertError> {
        if threshold == 0 || threshold > domains.len() {
            return Err(CertError::BadThreshold {
                threshold,
                domains: domains.len(),
            });
        }
        Ok(Self::quorum_of(domains, threshold))
    }

    fn quorum_of(domains: Vec<TrustDomain>, threshold: usize) -> Self {
        SuperlightClient {
            domains,
            threshold,
            latest: None,
            indexes: HashMap::new(),
            votes: HashMap::new(),
            gap: GapTracker::default(),
        }
    }

    /// Consumes one network message: validates and adopts certificates,
    /// tracks announced heights for gap detection, and classifies
    /// everything else. This is the client's event loop body on a lossy
    /// network — it never wedges: a bad certificate is [`SyncOutcome::
    /// Rejected`], one short of its threshold is [`SyncOutcome::Pending`],
    /// and a missed one is recovered via [`Self::resync_request`].
    pub fn on_message(&mut self, message: &NetMessage) -> SyncOutcome {
        let (result, adopted) = match message {
            NetMessage::BlockCert { header, cert } => {
                self.gap.saw_height(header.height);
                if self.height().is_some_and(|h| header.height <= h) {
                    return SyncOutcome::Stale;
                }
                (self.validate_chain(header, cert), SyncOutcome::Adopted)
            }
            NetMessage::IndexCert {
                header,
                index,
                digest,
                cert,
            } => {
                self.gap.saw_height(header.height);
                match self.height() {
                    // Hierarchical scheme: the index certificate rides on
                    // the already-adopted header.
                    Some(h) if header.height == h => (
                        self.validate_index(index, *digest, cert),
                        SyncOutcome::AdoptedIndex,
                    ),
                    Some(h) if header.height < h => return SyncOutcome::Stale,
                    // Augmented scheme (or the index cert outran its block
                    // cert): the certificate vouches for chain + index at
                    // once, so adopt both.
                    _ => (
                        self.validate_chain_with_index(header, index, *digest, cert),
                        SyncOutcome::Adopted,
                    ),
                }
            }
            NetMessage::Block(_)
            | NetMessage::CertRequest { .. }
            | NetMessage::Shutdown
            | NetMessage::Serve { .. } => return SyncOutcome::Ignored,
        };
        match result {
            Ok(()) => adopted,
            Err(CertError::BelowThreshold { .. }) => SyncOutcome::Pending,
            Err(e) => SyncOutcome::Rejected(e),
        }
    }

    /// The re-request to publish when a gap is detected: the inclusive
    /// range of missing heights, `Some` when a certificate was announced
    /// beyond the validated view (lost, late, rejected in flight, or
    /// still short of its threshold). Any CI or archive holding the range
    /// answers by republishing it. `None` when the client is caught up.
    pub fn resync_request(&self) -> Option<NetMessage> {
        self.gap.resync_request(self.height())
    }

    /// The one certificate-acceptance path (Algorithm 3): `cert` counts
    /// for the first domain whose [`TrustDomain::check`] admits it against
    /// `expected` (lines 3–7); a header offered as the new chain view
    /// `advance` must pass longest-chain selection (line 8); and the digest
    /// must now be certified by `threshold` distinct domains. Only then
    /// does anything commit: the chain view, the certificate of `index`,
    /// and each counted domain's memo entry. An offer short of the
    /// threshold only counts toward its digest.
    fn accept(
        &mut self,
        cert: &Certificate,
        expected: Hash,
        advance: Option<&BlockHeader>,
        index: Option<(&str, Hash)>,
    ) -> Result<(), CertError> {
        let domain = self.attribute(cert, &expected)?;
        if let Some(header) = advance {
            check_selection(self.height(), header.height)?;
        }
        let earlier = self.votes.get(&expected).map_or(&[][..], |(_, v)| v);
        let new_domain = !earlier.iter().any(|(d, _)| *d == domain);
        let have = earlier.len() + usize::from(new_domain);
        if have < self.threshold {
            let height = advance.map(|h| h.height).or(self.height());
            let (_, voters) = self
                .votes
                .entry(expected)
                .or_insert_with(|| (height.unwrap_or_default(), Vec::new()));
            if new_domain {
                voters.push((domain, cert.clone()));
            }
            return Err(CertError::BelowThreshold {
                have,
                need: self.threshold,
            });
        }
        let (_, voters) = self.votes.remove(&expected).unwrap_or_default();
        for (d, c) in voters.iter().map(|(d, c)| (*d, c)).chain([(domain, cert)]) {
            if let Some(trusted) = self.domains.get_mut(d) {
                trusted.remember(c);
            }
        }
        if let Some(header) = advance {
            self.latest = Some((header.clone(), cert.clone()));
            self.votes.retain(|_, (height, _)| *height >= header.height);
        }
        if let Some((name, digest)) = index {
            self.indexes.insert(name.to_owned(), (digest, cert.clone()));
        }
        Ok(())
    }

    /// The domain `cert` counts for: the first whose anchors admit it.
    /// Otherwise the first domain's refusal.
    fn attribute(&self, cert: &Certificate, expected: &Hash) -> Result<usize, CertError> {
        let mut refusal = CertError::NotInitialized; // replaced: a client has a domain
        for (i, domain) in self.domains.iter().enumerate() {
            match domain.check(cert, expected) {
                Ok(()) => return Ok(i),
                Err(e) if i == 0 => refusal = e,
                Err(_) => {}
            }
        }
        Err(refusal)
    }

    /// Algorithm 3: `validate_chain`. On success the client adopts
    /// `(header, cert)` as its latest chain view.
    ///
    /// # Errors
    ///
    /// One [`CertError`] per failed line of the algorithm; notably
    /// [`CertError::ChainSelection`] when `header` does not extend the
    /// longest chain the client has seen, and
    /// [`CertError::BelowThreshold`] when fewer than the threshold of
    /// domains have certified `header` so far.
    pub fn validate_chain(
        &mut self,
        header: &BlockHeader,
        cert: &Certificate,
    ) -> Result<(), CertError> {
        self.accept(cert, header.hash(), Some(header), None)
    }

    /// Validates an **augmented** certificate, which vouches for the chain
    /// and one index at once (its digest is `H(H(hdr) ‖ H_idx)`), adopting
    /// both the chain view and the index digest. This is how a client
    /// tracks a CI that runs the augmented scheme of Algorithm 4, where no
    /// standalone block certificate exists.
    ///
    /// # Errors
    ///
    /// As [`Self::validate_chain`].
    pub fn validate_chain_with_index(
        &mut self,
        header: &BlockHeader,
        name: &str,
        idx_digest: Hash,
        cert: &Certificate,
    ) -> Result<(), CertError> {
        let expected = Certificate::index_digest(&header.hash(), &idx_digest);
        self.accept(cert, expected, Some(header), Some((name, idx_digest)))
    }

    /// Adopts an index certificate for `name`, verifying it against the
    /// client's latest header.
    ///
    /// # Errors
    ///
    /// [`CertError::NotInitialized`] if no chain view exists yet, plus the
    /// usual certificate errors and [`CertError::BelowThreshold`].
    pub fn validate_index(
        &mut self,
        name: &str,
        idx_digest: Hash,
        cert: &Certificate,
    ) -> Result<(), CertError> {
        let (header, _) = self.latest.as_ref().ok_or(CertError::NotInitialized)?;
        let expected = Certificate::index_digest(&header.hash(), &idx_digest);
        self.accept(cert, expected, None, Some((name, idx_digest)))
    }

    /// The latest validated header, if any.
    pub fn latest_header(&self) -> Option<&BlockHeader> {
        self.latest.as_ref().map(|(h, _)| h)
    }

    /// The latest validated chain height.
    pub fn height(&self) -> Option<u64> {
        self.latest.as_ref().map(|(h, _)| h.height)
    }

    /// The certified digest of a tracked index (what query proofs verify
    /// against).
    pub fn index_digest(&self, name: &str) -> Option<Hash> {
        self.indexes.get(name).map(|(d, _)| *d)
    }

    /// Checkpoints the client's constant-size state into `store`'s head
    /// region and syncs it to durability: the latest `(header, cert)`,
    /// every tracked index certificate, and the gap-detection watermark.
    /// The trust anchors are *not* persisted — [`Self::resume`] takes them
    /// fresh, so a tampered checkpoint cannot smuggle in new anchors.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from the backend; the checkpoint is all-or-
    /// nothing at the head-region level (a torn head write recovers to the
    /// previous checkpoint).
    pub fn checkpoint(&self, store: &mut dyn Store) -> Result<(), StoreError> {
        if let Some((header, cert)) = &self.latest {
            store.put_head(
                SUPERLIGHT_LATEST_KEY,
                (header.clone(), cert.clone()).to_encoded_bytes(),
            )?;
        }
        for (name, (digest, cert)) in &self.indexes {
            let key = format!("{SUPERLIGHT_INDEX_PREFIX}{name}");
            store.put_head(&key, (*digest, cert.clone()).to_encoded_bytes())?;
        }
        if let Some(seen) = self.gap.highest_seen {
            store.put_head(SUPERLIGHT_SEEN_KEY, seen.to_encoded_bytes())?;
        }
        store.sync()
    }

    /// Reconstructs a client from a checkpoint written by
    /// [`Self::checkpoint`], **re-validating everything** under the given
    /// trust anchors: the recovered header/certificate run through
    /// [`Self::validate_chain`] and every index certificate through
    /// [`Self::validate_index`]. Recovered bytes that fail verification
    /// are refused with a typed error — a resumed client never serves
    /// state it could not prove.
    ///
    /// # Errors
    ///
    /// [`RecoverError::Codec`] when a checkpoint entry fails to decode,
    /// [`RecoverError::Cert`] when a recovered certificate no longer
    /// verifies.
    pub fn resume(
        ias_key: PublicKey,
        measurement: Hash,
        store: &dyn Store,
    ) -> Result<Self, RecoverError> {
        let mut client = SuperlightClient::new(ias_key, measurement);
        if let Some(bytes) = store.head(SUPERLIGHT_LATEST_KEY) {
            let (header, cert) = <(BlockHeader, Certificate)>::decode_all(&bytes)?;
            client.validate_chain(&header, &cert)?;
        }
        for (key, bytes) in store.head_entries() {
            if let Some(name) = key.strip_prefix(SUPERLIGHT_INDEX_PREFIX) {
                let (digest, cert) = <(Hash, Certificate)>::decode_all(&bytes)?;
                client.validate_index(name, digest, &cert)?;
            }
        }
        if let Some(bytes) = store.head(SUPERLIGHT_SEEN_KEY) {
            client.gap.saw_height(u64::decode_all(&bytes)?);
        }
        Ok(client)
    }

    /// Bytes this client persists: the latest header + certificate and any
    /// tracked index certificates. Constant in the chain length — the
    /// Fig. 7a claim.
    pub fn storage_bytes(&self) -> usize {
        let chain = self
            .latest
            .as_ref()
            .map(|(h, c)| h.encoded_len() + c.encoded_len())
            .unwrap_or(0);
        let idx: usize = self
            .indexes
            .values()
            .map(|(d, c)| d.as_bytes().len() + c.encoded_len())
            .sum();
        chain + idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_primitives::hash::{hash_bytes, Address};
    use dcert_primitives::keys::Keypair;
    use dcert_sgx::{AttestationService, Quote};

    /// A miniature certificate authority: hand-rolled certs without the
    /// enclave machinery, for isolated client tests.
    struct MiniCa {
        ias: AttestationService,
        enclave_key: Keypair,
        measurement: Hash,
    }

    impl MiniCa {
        fn new() -> Self {
            let mut ias = AttestationService::with_seed([1; 32]);
            let platform = Keypair::from_seed([2; 32]);
            ias.register_platform(platform.public());
            MiniCa {
                ias,
                enclave_key: Keypair::from_seed([3; 32]),
                measurement: hash_bytes(b"mini-program"),
            }
        }

        fn certify(&self, digest: Hash) -> Certificate {
            let platform = Keypair::from_seed([2; 32]);
            let quote = Quote::sign(
                &platform,
                self.measurement,
                Certificate::key_binding(&self.enclave_key.public()),
            );
            Certificate {
                pk_enc: self.enclave_key.public(),
                report: self.ias.attest(&quote).unwrap(),
                digest,
                signature: self.enclave_key.sign(digest.as_bytes()),
            }
        }

        fn client(&self) -> SuperlightClient {
            SuperlightClient::new(self.ias.public_key(), self.measurement)
        }
    }

    fn header(height: u64) -> BlockHeader {
        BlockHeader {
            height,
            prev_hash: hash_bytes(height.to_be_bytes()),
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: height,
            miner: Address::default(),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        }
    }

    #[test]
    fn fresh_client_has_no_view() {
        let ca = MiniCa::new();
        let client = ca.client();
        assert_eq!(client.height(), None);
        assert_eq!(client.latest_header(), None);
        assert_eq!(client.storage_bytes(), 0);
        assert_eq!(client.index_digest("any"), None);
    }

    #[test]
    fn adopts_and_advances() {
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        client.validate_chain(&h1, &ca.certify(h1.hash())).unwrap();
        assert_eq!(client.height(), Some(1));
        let h5 = header(5);
        client.validate_chain(&h5, &ca.certify(h5.hash())).unwrap();
        assert_eq!(client.height(), Some(5));
        assert_eq!(client.latest_header(), Some(&h5));
    }

    #[test]
    fn index_tracking_requires_a_chain_view() {
        let ca = MiniCa::new();
        let mut client = ca.client();
        let cert = ca.certify(Hash::ZERO);
        assert_eq!(
            client.validate_index("history", Hash::ZERO, &cert),
            Err(CertError::NotInitialized)
        );
    }

    #[test]
    fn index_cert_binds_to_latest_header() {
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        client.validate_chain(&h1, &ca.certify(h1.hash())).unwrap();

        let idx_digest = hash_bytes(b"index-root");
        let good = ca.certify(Certificate::index_digest(&h1.hash(), &idx_digest));
        client.validate_index("history", idx_digest, &good).unwrap();
        assert_eq!(client.index_digest("history"), Some(idx_digest));

        // An index cert bound to a *different* header is rejected.
        let other = header(9);
        let stale = ca.certify(Certificate::index_digest(&other.hash(), &idx_digest));
        assert_eq!(
            client.validate_index("history", idx_digest, &stale),
            Err(CertError::DigestMismatch)
        );
    }

    #[test]
    fn augmented_flow_adopts_chain_and_index_together() {
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        let idx_digest = hash_bytes(b"index-root");
        let aug = ca.certify(Certificate::index_digest(&h1.hash(), &idx_digest));
        client
            .validate_chain_with_index(&h1, "inverted", idx_digest, &aug)
            .unwrap();
        assert_eq!(client.height(), Some(1));
        assert_eq!(client.index_digest("inverted"), Some(idx_digest));
        // And chain selection still applies.
        assert!(matches!(
            client.validate_chain_with_index(&h1, "inverted", idx_digest, &aug),
            Err(CertError::ChainSelection { .. })
        ));
    }

    #[test]
    fn storage_is_independent_of_adopted_height() {
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        client.validate_chain(&h1, &ca.certify(h1.hash())).unwrap();
        let at_1 = client.storage_bytes();
        let h1000 = header(1_000_000);
        client
            .validate_chain(&h1000, &ca.certify(h1000.hash()))
            .unwrap();
        assert_eq!(client.storage_bytes(), at_1);
    }

    #[test]
    fn on_message_adopts_rejects_and_detects_gaps() {
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        assert_eq!(
            client.on_message(&NetMessage::BlockCert {
                header: h1.clone(),
                cert: ca.certify(h1.hash()),
            }),
            SyncOutcome::Adopted
        );
        assert_eq!(client.resync_request(), None);

        // A forged certificate for height 3 is rejected, but its height
        // is remembered: the client knows it is now behind.
        let h3 = header(3);
        let mut forged = ca.certify(h3.hash());
        forged.signature = ca.certify(Hash::ZERO).signature;
        assert!(matches!(
            client.on_message(&NetMessage::BlockCert {
                header: h3.clone(),
                cert: forged,
            }),
            SyncOutcome::Rejected(CertError::BadSignature)
        ));
        assert_eq!(client.height(), Some(1));
        assert_eq!(
            client.resync_request(),
            Some(NetMessage::CertRequest { from: 2, to: 3 })
        );

        // The authentic certificate arrives (e.g. republished by an
        // archive) and the gap closes.
        assert_eq!(
            client.on_message(&NetMessage::BlockCert {
                header: h3.clone(),
                cert: ca.certify(h3.hash()),
            }),
            SyncOutcome::Adopted
        );
        assert_eq!(client.resync_request(), None);
        // A late duplicate is stale, not an error.
        assert_eq!(
            client.on_message(&NetMessage::BlockCert {
                header: h1,
                cert: ca.certify(header(1).hash()),
            }),
            SyncOutcome::Stale
        );
    }

    #[test]
    fn checkpoint_resume_round_trip() {
        use dcert_store::MemStore;
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h3 = header(3);
        client.validate_chain(&h3, &ca.certify(h3.hash())).unwrap();
        let idx_digest = hash_bytes(b"index-root");
        let idx_cert = ca.certify(Certificate::index_digest(&h3.hash(), &idx_digest));
        client
            .validate_index("history", idx_digest, &idx_cert)
            .unwrap();
        client.on_message(&NetMessage::BlockCert {
            header: header(7),
            cert: ca.certify(Hash::ZERO), // wrong digest: rejected but seen
        });

        let mut store = MemStore::new();
        client.checkpoint(&mut store).unwrap();

        let resumed =
            SuperlightClient::resume(ca.ias.public_key(), ca.measurement, &store).unwrap();
        assert_eq!(resumed.height(), Some(3));
        assert_eq!(resumed.latest_header(), client.latest_header());
        assert_eq!(resumed.index_digest("history"), Some(idx_digest));
        assert_eq!(
            resumed.resync_request(),
            Some(NetMessage::CertRequest { from: 4, to: 7 })
        );
    }

    #[test]
    fn resume_refuses_forged_checkpoint() {
        use dcert_primitives::codec::Encode;
        use dcert_store::{MemStore, Store};
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        client.validate_chain(&h1, &ca.certify(h1.hash())).unwrap();
        let mut store = MemStore::new();
        client.checkpoint(&mut store).unwrap();

        // Swap in a certificate whose signature does not match the header:
        // decoding succeeds, re-verification must refuse.
        let forged = ca.certify(hash_bytes(b"somewhere else"));
        store
            .put_head(
                crate::persist::SUPERLIGHT_LATEST_KEY,
                (h1, forged).to_encoded_bytes(),
            )
            .unwrap();
        store.sync().unwrap();
        let err =
            SuperlightClient::resume(ca.ias.public_key(), ca.measurement, &store).unwrap_err();
        assert!(matches!(err, crate::persist::RecoverError::Cert(_)));
    }

    #[test]
    fn resume_refuses_undecodable_checkpoint() {
        use dcert_store::{MemStore, Store};
        let ca = MiniCa::new();
        let mut store = MemStore::new();
        store
            .put_head(crate::persist::SUPERLIGHT_LATEST_KEY, vec![1, 2, 3])
            .unwrap();
        store.sync().unwrap();
        let err =
            SuperlightClient::resume(ca.ias.public_key(), ca.measurement, &store).unwrap_err();
        assert!(matches!(err, crate::persist::RecoverError::Codec(_)));
    }

    #[test]
    fn resume_of_empty_store_is_a_fresh_client() {
        use dcert_store::MemStore;
        let ca = MiniCa::new();
        let resumed =
            SuperlightClient::resume(ca.ias.public_key(), ca.measurement, &MemStore::new())
                .unwrap();
        assert_eq!(resumed.height(), None);
        assert_eq!(resumed.resync_request(), None);
    }

    #[test]
    fn refused_certificates_leave_no_trace() {
        // Every `validate_*` entry shares one acceptance path: a
        // certificate that fails any line of it neither marks its key
        // attested nor moves the chain view or an index digest.
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        let wrong_digest = ca.certify(hash_bytes(b"somewhere else"));
        assert_eq!(
            client.validate_chain(&h1, &wrong_digest),
            Err(CertError::DigestMismatch)
        );
        assert_eq!(
            client.validate_chain_with_index(&h1, "history", Hash::ZERO, &wrong_digest),
            Err(CertError::DigestMismatch)
        );
        assert_eq!(client.height(), None);
        assert_eq!(client.index_digest("history"), None);
        // The key is still unattested: a garbled report is caught.
        let mut garbled = ca.certify(h1.hash());
        garbled.report.report_data = hash_bytes(b"not the key binding");
        assert!(matches!(
            client.validate_chain(&h1, &garbled),
            Err(CertError::Attestation(_))
        ));

        client.validate_chain(&h1, &ca.certify(h1.hash())).unwrap();
        let idx_digest = hash_bytes(b"index-root");
        assert_eq!(
            client.validate_index("history", idx_digest, &wrong_digest),
            Err(CertError::DigestMismatch)
        );
        assert_eq!(client.index_digest("history"), None);
        // Chain selection is the last line: a valid certificate for a
        // height the client is already past changes nothing either.
        let h0 = header(0);
        assert_eq!(
            client.validate_chain(&h0, &ca.certify(h0.hash())),
            Err(CertError::ChainSelection {
                current: 1,
                offered: 0
            })
        );
        assert_eq!(client.latest_header(), Some(&h1));
    }

    #[test]
    fn gap_tracker_reports_heights_announced_above_the_view() {
        let mut gap = GapTracker::default();
        assert_eq!(gap.needs_resync(None), None);
        gap.saw_height(4);
        gap.saw_height(2); // late announcements never lower the mark
        assert_eq!(gap.highest_seen, Some(4));
        assert_eq!(gap.needs_resync(None), Some((1, 4)));
        assert_eq!(gap.needs_resync(Some(3)), Some((4, 4)));
        assert_eq!(gap.needs_resync(Some(4)), None);
        assert_eq!(
            gap.resync_request(Some(1)),
            Some(NetMessage::CertRequest { from: 2, to: 4 })
        );
        assert_eq!(gap.resync_request(Some(9)), None);
    }

    #[test]
    fn a_new_report_for_an_attested_key_is_checked_again() {
        // The memo holds ⟨rep, pk_enc⟩ pairs byte for byte, as the enclave
        // does: once a key's report verified, a *different* report under
        // the same key is not trusted on the key's say-so.
        let ca = MiniCa::new();
        let mut client = ca.client();
        let h1 = header(1);
        client.validate_chain(&h1, &ca.certify(h1.hash())).unwrap();
        let h2 = header(2);
        let mut cert2 = ca.certify(h2.hash());
        cert2.report.report_data = hash_bytes(b"garbled after first attestation");
        assert!(matches!(
            client.validate_chain(&h2, &cert2),
            Err(CertError::Attestation(_))
        ));
        assert_eq!(client.height(), Some(1));
        client.validate_chain(&h2, &ca.certify(h2.hash())).unwrap();
    }
}
