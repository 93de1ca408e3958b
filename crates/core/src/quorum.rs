//! Multi-vendor certificate quorums.
//!
//! Section 6 of the paper notes that although the chain's decentralization
//! is independent of DCert, "one may wish to avoid relying solely on
//! Intel" — DCert can run on any TEE. This module implements the natural
//! client-side consequence: a [`QuorumClient`] accepts a block only when
//! certificates from **k distinct trust domains** (different attestation
//! roots and/or enclave programs — e.g. one SGX CI and one TrustZone CI)
//! agree on the same header digest. A single compromised TEE vendor can
//! then no longer forge chain state on its own.

use std::collections::HashMap;

use dcert_chain::BlockHeader;
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::PublicKey;

use crate::cert::Certificate;
use crate::error::CertError;
use crate::network::NetMessage;
use crate::superlight::{check_selection, GapTracker, SuperlightClient, SyncOutcome};

/// One trust domain: an attestation root plus the expected program
/// measurement within it (e.g. "Intel IAS + SGX build" or
/// "vendor X's attestation + TrustZone build").
#[derive(Debug, Clone)]
pub struct TrustDomain {
    /// Human-readable label used in errors and reporting.
    pub name: String,
    /// The attestation service root key of this domain.
    pub ias_key: PublicKey,
    /// The expected enclave measurement in this domain.
    pub measurement: Hash,
}

/// A superlight client requiring agreement of `threshold` distinct trust
/// domains before adopting a block.
///
/// Internally one [`SuperlightClient`] per domain tracks that domain's
/// view; a block is adopted when at least `threshold` domains validated a
/// certificate over the **same header digest**.
#[derive(Debug, Clone)]
pub struct QuorumClient {
    domains: Vec<(TrustDomain, SuperlightClient)>,
    threshold: usize,
    adopted: Option<BlockHeader>,
    /// Certificates that validated under one domain but have not reached
    /// quorum yet, grouped by header digest: on a real network the
    /// domains' certificates for a height arrive interleaved and possibly
    /// out of order, so they are accumulated per-message.
    pending: HashMap<Hash, (BlockHeader, HashMap<String, Certificate>)>,
    gap: GapTracker,
}

impl QuorumClient {
    /// Creates a quorum client.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero or exceeds the number of domains —
    /// that is a configuration bug, not a runtime condition.
    pub fn new(domains: Vec<TrustDomain>, threshold: usize) -> Self {
        assert!(
            threshold >= 1 && threshold <= domains.len(),
            "threshold must be within 1..=#domains"
        );
        let domains = domains
            .into_iter()
            .map(|d| {
                let client = SuperlightClient::new(d.ias_key, d.measurement);
                (d, client)
            })
            .collect();
        QuorumClient {
            domains,
            threshold,
            adopted: None,
            pending: HashMap::new(),
            gap: GapTracker::default(),
        }
    }

    /// Consumes one network message: a block certificate is attributed to
    /// the trust domain whose anchors accept it (its attestation root
    /// identifies the issuing CI), buffered, and the header adopted once
    /// `threshold` distinct domains have certified the same digest.
    pub fn on_message(&mut self, message: &NetMessage) -> SyncOutcome {
        let NetMessage::BlockCert { header, cert } = message else {
            if let Some(h) = message.height() {
                self.gap.saw_height(h);
            }
            return SyncOutcome::Ignored;
        };
        self.gap.saw_height(header.height);
        if self.height().is_some_and(|h| header.height <= h) {
            return SyncOutcome::Stale;
        }
        // Attribute the certificate to a domain by validation.
        let mut first_error = None;
        let mut accepted_by = None;
        for (domain, client) in &self.domains {
            match client.clone().validate_chain(header, cert) {
                Ok(()) => {
                    accepted_by = Some(domain.name.clone());
                    break;
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        let Some(name) = accepted_by else {
            return SyncOutcome::Rejected(first_error.unwrap_or(CertError::NotInitialized));
        };
        let digest = header.hash();
        let entry = self
            .pending
            .entry(digest)
            .or_insert_with(|| (header.clone(), HashMap::new()));
        entry.1.insert(name, cert.clone());
        if entry.1.len() < self.threshold {
            return SyncOutcome::Pending;
        }
        // Quorum reached: commit each participating domain's view.
        let Some((header, certs)) = self.pending.remove(&digest) else {
            return SyncOutcome::Pending;
        };
        for (domain, client) in &mut self.domains {
            let Some(cert) = certs.get(&domain.name) else {
                continue;
            };
            let mut scratch = client.clone();
            if scratch.validate_chain(&header, cert).is_ok() {
                *client = scratch;
            }
        }
        let adopted_height = header.height;
        self.adopted = Some(header);
        self.pending.retain(|_, (h, _)| h.height > adopted_height);
        SyncOutcome::Adopted
    }

    /// The height gap to recover — `Some((from, to))` when certificates
    /// were announced beyond the adopted height (missed deliveries, or a
    /// quorum stuck waiting on a domain whose certificate was lost).
    pub fn needs_resync(&self) -> Option<(u64, u64)> {
        self.gap.needs_resync(self.height())
    }

    /// The re-request to publish when a gap is detected.
    pub fn resync_request(&self) -> Option<NetMessage> {
        self.gap.resync_request(self.height())
    }

    /// Highest height any certificate message announced.
    pub fn highest_seen(&self) -> Option<u64> {
        self.gap.highest_seen
    }

    /// The quorum threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The adopted chain height, if any block reached quorum.
    pub fn height(&self) -> Option<u64> {
        self.adopted.as_ref().map(|h| h.height)
    }

    /// The adopted header.
    pub fn latest_header(&self) -> Option<&BlockHeader> {
        self.adopted.as_ref()
    }

    /// Validates `certs` — one `(domain name, certificate)` pair per
    /// participating CI — against `header`, and adopts the header if at
    /// least `threshold` distinct domains accept.
    ///
    /// # Errors
    ///
    /// - [`CertError::ChainSelection`] when the header does not extend the
    ///   adopted chain,
    /// - the *first* per-domain error when fewer than `threshold` domains
    ///   accept (so callers can see why the quorum failed).
    pub fn validate_chain(
        &mut self,
        header: &BlockHeader,
        certs: &[(String, Certificate)],
    ) -> Result<usize, CertError> {
        check_selection(self.height(), header.height)?;
        let by_name: HashMap<&str, &Certificate> =
            certs.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let mut accepted = 0usize;
        let mut first_error: Option<CertError> = None;
        for (domain, client) in &mut self.domains {
            let Some(cert) = by_name.get(domain.name.as_str()) else {
                continue;
            };
            // Domain clients track their own chain views; a quorum re-offer
            // of the same height would trip their chain-selection check, so
            // validate against a scratch clone and only commit on success.
            let mut scratch = client.clone();
            match scratch.validate_chain(header, cert) {
                Ok(()) => {
                    *client = scratch;
                    accepted += 1;
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if accepted >= self.threshold {
            self.adopted = Some(header.clone());
            Ok(accepted)
        } else {
            Err(first_error.unwrap_or(CertError::NotInitialized))
        }
    }
}
