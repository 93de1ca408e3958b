//! Per-shard range certificates — the intermediate artifact of the
//! sharded certification fleet.
//!
//! A shard enclave certifies a contiguous height range `[first, last]` by
//! replaying every block from an *uncertified anchor header* (the chain's
//! block at `first - 1`) and signing a binding digest that commits to the
//! anchor digest, the height span, and every certified header digest in
//! order. Because the binding signature is produced inside a measured
//! enclave, a verifier that checks the attestation report and the
//! measurement knows the span was fully re-validated from the declared
//! anchor — the anchor itself is authenticated later, by the aggregator,
//! which chains range certificates digest-to-digest before folding them
//! into the client-facing recursive [`Certificate`](crate::Certificate)
//! stream.
//!
//! Range certificates are a backend artifact: clients never see them, so
//! the client verification surface is unchanged.

use dcert_primitives::codec::Encode;
use dcert_primitives::hash::{hash_concat, Hash};
use dcert_primitives::keys::{PublicKey, Signature};
use dcert_sgx::AttestationReport;

use crate::cert::verify_attested_key;
use crate::error::CertError;

/// Domain tag for the range binding digest — keeps range signatures
/// disjoint from block-certificate signatures (which sign raw header
/// digests) even under key reuse.
const RANGE_BINDING_DOMAIN: &[u8] = b"dcert-range-cert-v1";

/// A shard's certification of the contiguous height range `[first, last]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeCert {
    /// The shard enclave's public key.
    pub pk_range: PublicKey,
    /// IAS attestation report binding `pk_range` to the certificate
    /// program's measurement.
    pub report: AttestationReport,
    /// Digest of the anchor header (height `first - 1`) the shard replayed
    /// from.
    pub anchor_digest: Hash,
    /// First certified height (≥ 1; the anchor sits just below it).
    pub first: u64,
    /// Last certified height.
    pub last: u64,
    /// Digest of every certified header, ordered by height.
    pub header_digests: Vec<Hash>,
    /// Shard enclave signature over [`RangeCert::binding_digest`].
    pub signature: Signature,
}

impl RangeCert {
    /// The digest the shard enclave signs: a domain-separated hash over
    /// the anchor digest, the height span, and every header digest in
    /// order. Committing to the *anchor* is what lets the aggregator chain
    /// ranges without trusting shard-side inputs.
    pub fn binding_digest(
        anchor_digest: &Hash,
        first: u64,
        last: u64,
        header_digests: &[Hash],
    ) -> Hash {
        let first_be = first.to_be_bytes();
        let last_be = last.to_be_bytes();
        let mut parts: Vec<&[u8]> = Vec::with_capacity(header_digests.len().saturating_add(4));
        parts.push(RANGE_BINDING_DOMAIN);
        parts.push(anchor_digest.as_bytes());
        parts.push(&first_be);
        parts.push(&last_be);
        for digest in header_digests {
            parts.push(digest.as_bytes());
        }
        hash_concat(parts)
    }

    /// Number of heights the range covers, if its span is well-formed.
    fn span_len(&self) -> Result<u64, CertError> {
        if self.first == 0 || self.last < self.first {
            return Err(CertError::EmptyRange);
        }
        self.last
            .checked_sub(self.first)
            .and_then(|w| w.checked_add(1))
            .ok_or(CertError::HeightOverflow)
    }

    /// Verifies the range certificate's trust chain and structure — the
    /// aggregator-side acceptance check: the attested-key check of
    /// [`Certificate::verify_trust`](crate::Certificate::verify_trust)
    /// (steps 1–3, the same function) plus the range-specific binding:
    ///
    /// 1. the report is signed by the IAS root,
    /// 2. the report's measurement equals the certificate program's,
    /// 3. the report binds `pk_range`,
    /// 4. the declared span is non-empty, starts above genesis, and
    ///    matches the digest count,
    /// 5. the signature verifies over the binding digest under `pk_range`.
    ///
    /// Anchor authenticity and height contiguity are *not* checked here —
    /// they are chaining properties the aggregator enforces across the
    /// whole fold (inside the enclave, so a hostile host cannot skip them).
    ///
    /// # Errors
    ///
    /// One [`CertError`] variant per failed step, in the order above.
    pub fn verify(
        &self,
        ias_key: &PublicKey,
        expected_measurement: &Hash,
    ) -> Result<(), CertError> {
        verify_attested_key(&self.report, &self.pk_range, ias_key, expected_measurement)?;
        let span = self.span_len()?;
        let digests =
            u64::try_from(self.header_digests.len()).map_err(|_| CertError::HeightOverflow)?;
        if digests != span {
            return Err(CertError::RangeLengthMismatch);
        }
        let binding = Self::binding_digest(
            &self.anchor_digest,
            self.first,
            self.last,
            &self.header_digests,
        );
        self.pk_range
            .verify(binding.as_bytes(), &self.signature)
            .map_err(|_| CertError::BadSignature)
    }

    /// Serialized size in bytes — exported by the shard metrics so the
    /// bench can report aggregation overhead in concrete units.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

dcert_primitives::wire! {
    struct RangeCert { pk_range, report, anchor_digest, first, last, header_digests: seq, signature }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::Certificate;
    use dcert_primitives::codec::Decode;
    use dcert_primitives::hash::hash_bytes;
    use dcert_primitives::keys::Keypair;
    use dcert_sgx::{AttestationService, Quote};

    fn make_range_cert(first: u64, count: u64) -> (RangeCert, PublicKey, Hash) {
        make_range_cert_at(hash_bytes(b"anchor"), first, count)
    }

    /// Hand-assembles a valid range certificate outside the enclave
    /// machinery, mirroring `cert::tests::make_cert`.
    fn make_range_cert_at(
        anchor_digest: Hash,
        first: u64,
        count: u64,
    ) -> (RangeCert, PublicKey, Hash) {
        let mut ias = AttestationService::with_seed([7; 32]);
        let platform = Keypair::from_seed([8; 32]);
        ias.register_platform(platform.public());
        let range_key = Keypair::from_seed([9; 32]);
        let measurement = crate::expected_measurement();
        let quote = Quote::sign(
            &platform,
            measurement,
            Certificate::key_binding(&range_key.public()),
        );
        let report = ias.attest(&quote).unwrap();
        let header_digests: Vec<Hash> = (0..count)
            .map(|i| hash_bytes(format!("hdr-{}", first + i).as_bytes()))
            .collect();
        let last = first + count - 1;
        let binding = RangeCert::binding_digest(&anchor_digest, first, last, &header_digests);
        let cert = RangeCert {
            pk_range: range_key.public(),
            report,
            anchor_digest,
            first,
            last,
            header_digests,
            signature: range_key.sign(binding.as_bytes()),
        };
        (cert, ias.public_key(), measurement)
    }

    #[test]
    fn valid_range_cert_verifies() {
        let (cert, ias_key, measurement) = make_range_cert(5, 3);
        cert.verify(&ias_key, &measurement).unwrap();
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (cert, ias_key, _) = make_range_cert(5, 3);
        assert_eq!(
            cert.verify(&ias_key, &hash_bytes(b"other-program")),
            Err(CertError::WrongMeasurement)
        );
    }

    #[test]
    fn key_substitution_rejected() {
        let (mut cert, ias_key, measurement) = make_range_cert(5, 3);
        let attacker = Keypair::from_seed([66; 32]);
        let binding = RangeCert::binding_digest(
            &cert.anchor_digest,
            cert.first,
            cert.last,
            &cert.header_digests,
        );
        cert.pk_range = attacker.public();
        cert.signature = attacker.sign(binding.as_bytes());
        assert_eq!(
            cert.verify(&ias_key, &measurement),
            Err(CertError::KeyBindingMismatch)
        );
    }

    #[test]
    fn tampered_span_rejected() {
        // Stretching the claimed span breaks both the digest count and the
        // binding signature; the structural check fires first.
        let (mut cert, ias_key, measurement) = make_range_cert(5, 3);
        cert.last += 1;
        assert_eq!(
            cert.verify(&ias_key, &measurement),
            Err(CertError::RangeLengthMismatch)
        );
    }

    #[test]
    fn tampered_anchor_rejected() {
        let (mut cert, ias_key, measurement) = make_range_cert(5, 3);
        cert.anchor_digest = hash_bytes(b"forged-anchor");
        assert_eq!(
            cert.verify(&ias_key, &measurement),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn tampered_digest_rejected() {
        let (mut cert, ias_key, measurement) = make_range_cert(5, 3);
        cert.header_digests[1] = hash_bytes(b"forged-hdr");
        assert_eq!(
            cert.verify(&ias_key, &measurement),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn genesis_range_rejected() {
        // Ranges must start above genesis: height 0 is the trust root, not
        // a certified height.
        let (mut cert, ias_key, measurement) = make_range_cert(5, 3);
        cert.first = 0;
        assert_eq!(
            cert.verify(&ias_key, &measurement),
            Err(CertError::EmptyRange)
        );
    }

    #[test]
    fn inverted_span_rejected() {
        let (mut cert, ias_key, measurement) = make_range_cert(5, 3);
        cert.first = cert.last + 1;
        assert_eq!(
            cert.verify(&ias_key, &measurement),
            Err(CertError::EmptyRange)
        );
    }

    /// The aggregator's chaining checks (`FoldRanges`): attested,
    /// well-signed ranges are still refused when they do not chain
    /// digest-to-digest from the fold anchor, or leave a height gap.
    #[test]
    fn fold_refuses_misanchored_and_discontiguous_ranges() {
        use crate::{CertProgram, EcallRequest, EcallResponse};
        use dcert_chain::{GenesisBuilder, ProofOfWork};
        use dcert_vm::{ContractRegistry, Executor};
        use std::sync::Arc;

        let anchor = GenesisBuilder::new().build().0.header;
        let (first, ias_key, _) = make_range_cert_at(anchor.hash(), 1, 2);
        let fold = |second: RangeCert| {
            let mut program = CertProgram::new(
                anchor.hash(),
                ias_key,
                Executor::new(Arc::new(ContractRegistry::new())),
                Arc::new(ProofOfWork::new(0)),
                Vec::new(),
            );
            program.handle(EcallRequest::Init).unwrap();
            program.handle(EcallRequest::FoldRanges {
                anchor: anchor.clone(),
                anchor_cert: None,
                ranges: vec![first.clone(), second],
            })
        };
        let tip = first.header_digests[1];
        assert!(matches!(
            fold(make_range_cert_at(tip, 3, 2).0),
            Ok(EcallResponse::Signatures(signatures)) if signatures.len() == 4
        ));
        assert_eq!(
            fold(make_range_cert_at(hash_bytes(b"another chain"), 3, 2).0),
            Err(CertError::RangeAnchorMismatch)
        );
        assert_eq!(
            fold(make_range_cert_at(tip, 4, 2).0),
            Err(CertError::RangeDiscontinuity {
                expected: 3,
                found: 4
            })
        );
    }

    #[test]
    fn binding_commits_to_order() {
        let digests = [hash_bytes(b"a"), hash_bytes(b"b")];
        let swapped = [hash_bytes(b"b"), hash_bytes(b"a")];
        let anchor = hash_bytes(b"anchor");
        assert_ne!(
            RangeCert::binding_digest(&anchor, 1, 2, &digests),
            RangeCert::binding_digest(&anchor, 1, 2, &swapped)
        );
    }

    #[test]
    fn codec_round_trip() {
        let (cert, _, _) = make_range_cert(5, 3);
        let decoded = RangeCert::decode_all(&cert.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, cert);
    }
}
