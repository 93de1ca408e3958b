//! The certificate type: `cert = ⟨pk_enc, rep, dig, sig⟩`.

use dcert_primitives::codec::{Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, hash_pair, Hash};
use dcert_primitives::keys::{PublicKey, Signature};
use dcert_sgx::AttestationReport;

use crate::error::CertError;

/// A DCert certificate (Section 3.3 of the paper):
///
/// - `pk_enc` — the enclave-generated public key,
/// - `rep` — the IAS attestation report binding `pk_enc` to the enclave
///   measurement,
/// - `dig` — the certified digest: `H(hdr)` for block certificates,
///   `H(H(hdr) ‖ H_idx)` for augmented/hierarchical index certificates,
/// - `sig` — the enclave's signature over `dig` with `sk_enc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The enclave public key `pk_enc`.
    pub pk_enc: PublicKey,
    /// The attestation report `rep`.
    pub report: AttestationReport,
    /// The certified digest `dig`.
    pub digest: Hash,
    /// The enclave signature `sig` over `dig`.
    pub signature: Signature,
}

impl Certificate {
    /// The digest form used by index certificates:
    /// `H(header_digest ‖ index_digest)`.
    pub fn index_digest(header_digest: &Hash, idx_digest: &Hash) -> Hash {
        hash_pair(header_digest, idx_digest)
    }

    /// The report-data binding of an enclave key: `H(pk_enc)`.
    pub fn key_binding(pk_enc: &PublicKey) -> Hash {
        hash_bytes(pk_enc.to_array())
    }

    /// Full certificate verification against an expected digest — the
    /// shared logic of `cert_verify_t` (Algorithm 2, lines 25–32) and the
    /// superlight client (Algorithm 3, lines 2–7):
    ///
    /// 1. `rep` is signed by the IAS root,
    /// 2. `rep`'s measurement equals the certificate program's,
    /// 3. `rep` binds `pk_enc`,
    /// 4. `sig` verifies over `dig` under `pk_enc`,
    /// 5. `dig` equals `expected_digest`.
    ///
    /// # Errors
    ///
    /// One [`CertError`] variant per failed step, in the order above.
    pub fn verify(
        &self,
        ias_key: &PublicKey,
        expected_measurement: &Hash,
        expected_digest: &Hash,
    ) -> Result<(), CertError> {
        self.verify_trust(ias_key, expected_measurement)?;
        self.verify_digest(expected_digest)
    }

    /// Steps 1–3 of [`Certificate::verify`]: the attestation part, which
    /// clients may cache per enclave key ("check an attestation report
    /// only once", Section 4.3).
    ///
    /// # Errors
    ///
    /// See [`Certificate::verify`].
    pub fn verify_trust(
        &self,
        ias_key: &PublicKey,
        expected_measurement: &Hash,
    ) -> Result<(), CertError> {
        verify_attested_key(&self.report, &self.pk_enc, ias_key, expected_measurement)
    }

    /// Steps 4–5 of [`Certificate::verify`]: the per-certificate part.
    ///
    /// # Errors
    ///
    /// See [`Certificate::verify`].
    pub fn verify_digest(&self, expected_digest: &Hash) -> Result<(), CertError> {
        self.pk_enc
            .verify(self.digest.as_bytes(), &self.signature)
            .map_err(|_| CertError::BadSignature)?;
        if self.digest != *expected_digest {
            return Err(CertError::DigestMismatch);
        }
        Ok(())
    }

    /// Serialized size in bytes — the constant part of superlight-client
    /// storage (Fig. 7a).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

/// The attested-key check behind every enclave-signed artifact (this
/// module's [`Certificate`], the fleet's [`RangeCert`](crate::RangeCert)):
/// `report` is signed by the IAS root, names the expected program, and
/// binds `key` — one [`CertError`] per failed step, in that order.
pub(crate) fn verify_attested_key(
    report: &AttestationReport,
    key: &PublicKey,
    ias_key: &PublicKey,
    expected_measurement: &Hash,
) -> Result<(), CertError> {
    report.verify(ias_key)?;
    if report.measurement != *expected_measurement {
        return Err(CertError::WrongMeasurement);
    }
    if report.report_data != Certificate::key_binding(key) {
        return Err(CertError::KeyBindingMismatch);
    }
    Ok(())
}

impl Encode for Certificate {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pk_enc.encode(out);
        self.report.encode(out);
        self.digest.encode(out);
        self.signature.encode(out);
    }
}

impl Decode for Certificate {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Certificate {
            pk_enc: PublicKey::decode(r)?,
            report: AttestationReport::decode(r)?,
            digest: Hash::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::keys::Keypair;
    use dcert_sgx::{AttestationService, Quote};

    /// Hand-assembles a valid certificate outside the enclave machinery —
    /// unit-testing the verification logic in isolation.
    fn make_cert(digest: Hash) -> (Certificate, PublicKey, Hash) {
        let mut ias = AttestationService::with_seed([1; 32]);
        let platform = Keypair::from_seed([2; 32]);
        ias.register_platform(platform.public());
        let enclave_key = Keypair::from_seed([3; 32]);
        let measurement = hash_bytes(b"cert-program");
        let quote = Quote::sign(
            &platform,
            measurement,
            Certificate::key_binding(&enclave_key.public()),
        );
        let report = ias.attest(&quote).unwrap();
        let cert = Certificate {
            pk_enc: enclave_key.public(),
            report,
            digest,
            signature: enclave_key.sign(digest.as_bytes()),
        };
        (cert, ias.public_key(), measurement)
    }

    #[test]
    fn valid_certificate_verifies() {
        let digest = hash_bytes(b"hdr");
        let (cert, ias_key, measurement) = make_cert(digest);
        cert.verify(&ias_key, &measurement, &digest).unwrap();
    }

    #[test]
    fn wrong_measurement_rejected() {
        let digest = hash_bytes(b"hdr");
        let (cert, ias_key, _) = make_cert(digest);
        assert_eq!(
            cert.verify(&ias_key, &hash_bytes(b"other-program"), &digest),
            Err(CertError::WrongMeasurement)
        );
    }

    #[test]
    fn wrong_ias_key_rejected() {
        let digest = hash_bytes(b"hdr");
        let (cert, _, measurement) = make_cert(digest);
        let wrong_ias = Keypair::from_seed([9; 32]).public();
        assert!(matches!(
            cert.verify(&wrong_ias, &measurement, &digest),
            Err(CertError::Attestation(_))
        ));
    }

    #[test]
    fn key_substitution_rejected() {
        // Attacker swaps pk_enc for their own key and re-signs the digest:
        // the report no longer binds the key.
        let digest = hash_bytes(b"hdr");
        let (mut cert, ias_key, measurement) = make_cert(digest);
        let attacker = Keypair::from_seed([66; 32]);
        cert.pk_enc = attacker.public();
        cert.signature = attacker.sign(digest.as_bytes());
        assert_eq!(
            cert.verify(&ias_key, &measurement, &digest),
            Err(CertError::KeyBindingMismatch)
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let digest = hash_bytes(b"hdr");
        let (mut cert, ias_key, measurement) = make_cert(digest);
        cert.digest = hash_bytes(b"forged-hdr");
        assert_eq!(
            cert.verify(&ias_key, &measurement, &hash_bytes(b"forged-hdr")),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn digest_mismatch_rejected() {
        let digest = hash_bytes(b"hdr");
        let (cert, ias_key, measurement) = make_cert(digest);
        assert_eq!(
            cert.verify(&ias_key, &measurement, &hash_bytes(b"different-hdr")),
            Err(CertError::DigestMismatch)
        );
    }

    #[test]
    fn codec_round_trip() {
        let (cert, _, _) = make_cert(hash_bytes(b"hdr"));
        let decoded = Certificate::decode_all(&cert.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn index_digest_is_order_sensitive() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        assert_ne!(
            Certificate::index_digest(&a, &b),
            Certificate::index_digest(&b, &a)
        );
    }
}
