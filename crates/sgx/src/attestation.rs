//! Quotes, attestation reports, and the simulated Intel Attestation
//! Service.
//!
//! The flow mirrors Section 2.2 of the paper:
//!
//! 1. the enclave produces a [`Quote`] over (measurement ‖ report-data),
//!    signed by the hardware-protected *platform key*;
//! 2. the [`AttestationService`] (the IAS stand-in) checks that the
//!    platform key belongs to a provisioned CPU and that the quote
//!    verifies, then countersigns an [`AttestationReport`];
//! 3. anyone holding the well-known IAS root public key can verify the
//!    report offline — which is how superlight clients validate `rep`
//!    inside every certificate (Algorithm 3, lines 3–5).

use dcert_primitives::codec::Encode;
use dcert_primitives::hash::{hash_concat, Hash};
use dcert_primitives::keys::{Keypair, PublicKey, Signature};

use crate::error::SgxError;

const QUOTE_DOMAIN: u8 = 0x31;
const REPORT_DOMAIN: u8 = 0x32;

fn quote_digest(measurement: &Hash, report_data: &Hash) -> Hash {
    hash_concat([
        std::slice::from_ref(&QUOTE_DOMAIN),
        measurement.as_bytes(),
        report_data.as_bytes(),
    ])
}

fn report_digest(measurement: &Hash, report_data: &Hash) -> Hash {
    hash_concat([
        std::slice::from_ref(&REPORT_DOMAIN),
        measurement.as_bytes(),
        report_data.as_bytes(),
    ])
}

/// A platform-signed statement that an enclave with `measurement` bound
/// `report_data` (DCert binds `H(pk_enc)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The enclave measurement.
    pub measurement: Hash,
    /// Caller-chosen data bound into the quote.
    pub report_data: Hash,
    /// The signing platform's public key.
    pub platform_key: PublicKey,
    /// Platform signature over the quote digest.
    pub signature: Signature,
}

impl Quote {
    /// Signs a quote with the platform key (called by the enclave).
    pub fn sign(platform: &Keypair, measurement: Hash, report_data: Hash) -> Self {
        let digest = quote_digest(&measurement, &report_data);
        Quote {
            measurement,
            report_data,
            platform_key: platform.public(),
            signature: platform.sign(digest.as_bytes()),
        }
    }

    /// Verifies the platform signature (does *not* establish that the
    /// platform is genuine — that is the attestation service's job).
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::BadQuote`] if the signature is invalid.
    pub fn verify_signature(&self) -> Result<(), SgxError> {
        let digest = quote_digest(&self.measurement, &self.report_data);
        self.platform_key
            .verify(digest.as_bytes(), &self.signature)
            .map_err(|_| SgxError::BadQuote)
    }
}

/// An IAS-countersigned attestation report: offline-verifiable proof that
/// a genuine enclave with `measurement` bound `report_data`.
///
/// This is the `rep` element of every DCert certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// The attested enclave measurement.
    pub measurement: Hash,
    /// The attested report data (DCert: `H(pk_enc)`).
    pub report_data: Hash,
    /// IAS signature over the report digest.
    pub signature: Signature,
}

impl AttestationReport {
    /// Verifies the IAS signature against the well-known root key.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::BadReport`] if the signature is invalid.
    pub fn verify(&self, ias_key: &PublicKey) -> Result<(), SgxError> {
        let digest = report_digest(&self.measurement, &self.report_data);
        ias_key
            .verify(digest.as_bytes(), &self.signature)
            .map_err(|_| SgxError::BadReport)
    }

    /// Serialized size in bytes (contributes to certificate size).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

dcert_primitives::wire! {
    struct AttestationReport { measurement, report_data, signature }
}

/// The simulated Intel Attestation Service.
///
/// Knows the set of provisioned platform keys (as Intel does through EPID
/// provisioning) and countersigns reports with its root key, which
/// verifiers embed as a trust anchor.
pub struct AttestationService {
    root: Keypair,
    platforms: Vec<PublicKey>,
}

impl std::fmt::Debug for AttestationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttestationService")
            .field("root", &self.root.public())
            .field("platforms", &self.platforms.len())
            .finish()
    }
}

impl AttestationService {
    /// Creates a service with a deterministic root key.
    pub fn with_seed(seed: [u8; 32]) -> Self {
        AttestationService {
            root: Keypair::from_seed(seed),
            platforms: Vec::new(),
        }
    }

    /// The well-known IAS root public key (the verifier trust anchor).
    pub fn public_key(&self) -> PublicKey {
        self.root.public()
    }

    /// Provisions a platform key (models Intel's EPID group join).
    pub fn register_platform(&mut self, key: PublicKey) {
        if !self.platforms.contains(&key) {
            self.platforms.push(key);
        }
    }

    /// Verifies a quote and countersigns an attestation report.
    ///
    /// # Errors
    ///
    /// - [`SgxError::UntrustedPlatform`] if the platform key is not
    ///   provisioned,
    /// - [`SgxError::BadQuote`] if the quote signature is invalid.
    pub fn attest(&self, quote: &Quote) -> Result<AttestationReport, SgxError> {
        if !self.platforms.contains(&quote.platform_key) {
            return Err(SgxError::UntrustedPlatform);
        }
        quote.verify_signature()?;
        let digest = report_digest(&quote.measurement, &quote.report_data);
        Ok(AttestationReport {
            measurement: quote.measurement,
            report_data: quote.report_data,
            signature: self.root.sign(digest.as_bytes()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Decode;
    use dcert_primitives::hash::hash_bytes;

    fn setup() -> (AttestationService, Keypair) {
        let mut ias = AttestationService::with_seed([1; 32]);
        let platform = Keypair::from_seed([2; 32]);
        ias.register_platform(platform.public());
        (ias, platform)
    }

    #[test]
    fn full_attestation_flow() {
        let (ias, platform) = setup();
        let quote = Quote::sign(&platform, hash_bytes(b"code"), hash_bytes(b"pk"));
        let report = ias.attest(&quote).unwrap();
        report.verify(&ias.public_key()).unwrap();
        assert_eq!(report.measurement, hash_bytes(b"code"));
        assert_eq!(report.report_data, hash_bytes(b"pk"));
    }

    #[test]
    fn unregistered_platform_rejected() {
        let ias = AttestationService::with_seed([1; 32]);
        let rogue = Keypair::from_seed([9; 32]);
        let quote = Quote::sign(&rogue, hash_bytes(b"code"), hash_bytes(b"pk"));
        assert_eq!(ias.attest(&quote), Err(SgxError::UntrustedPlatform));
    }

    #[test]
    fn forged_quote_rejected() {
        let (ias, platform) = setup();
        let mut quote = Quote::sign(&platform, hash_bytes(b"code"), hash_bytes(b"pk"));
        quote.measurement = hash_bytes(b"other-code");
        assert_eq!(ias.attest(&quote), Err(SgxError::BadQuote));
    }

    #[test]
    fn report_from_wrong_ias_rejected() {
        let (ias, platform) = setup();
        let fake_ias = AttestationService::with_seed([7; 32]);
        let quote = Quote::sign(&platform, hash_bytes(b"code"), hash_bytes(b"pk"));
        let report = ias.attest(&quote).unwrap();
        assert_eq!(
            report.verify(&fake_ias.public_key()),
            Err(SgxError::BadReport)
        );
    }

    #[test]
    fn tampered_report_rejected() {
        let (ias, platform) = setup();
        let quote = Quote::sign(&platform, hash_bytes(b"code"), hash_bytes(b"pk"));
        let mut report = ias.attest(&quote).unwrap();
        report.report_data = hash_bytes(b"attacker-pk");
        assert_eq!(report.verify(&ias.public_key()), Err(SgxError::BadReport));
    }

    #[test]
    fn report_codec_round_trip() {
        let (ias, platform) = setup();
        let quote = Quote::sign(&platform, hash_bytes(b"code"), hash_bytes(b"pk"));
        let report = ias.attest(&quote).unwrap();
        let decoded = AttestationReport::decode_all(&report.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn register_is_idempotent() {
        let (mut ias, platform) = setup();
        ias.register_platform(platform.public());
        ias.register_platform(platform.public());
        assert_eq!(ias.platforms.len(), 1);
    }
}
