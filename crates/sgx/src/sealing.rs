//! Sealed storage: persisting enclave secrets across restarts.
//!
//! Real SGX enclaves derive a *sealing key* via `EGETKEY`, bound to the
//! CPU's fuse key and the enclave measurement, so state encrypted with it
//! can only be recovered by the same enclave code on the same machine.
//! DCert relies on this operationally: a Certificate Issuer restart must
//! not discard `sk_enc` (clients have cached its attestation, and the
//! recursive certificate chain references it).
//!
//! The simulation derives the sealing key as
//! `H(platform_secret ‖ measurement)` and applies an authenticated
//! stream cipher built from SHA-256 (keystream blocks
//! `H(key ‖ nonce ‖ counter)`, MAC `H(key ‖ nonce ‖ ciphertext)`). This is
//! **simulation-grade** crypto — the point is the key-derivation *policy*
//! (same code + same platform), not resistance against real adversaries;
//! a production port would use the SGX SDK's sealing API.

use dcert_primitives::codec::Encode;
use dcert_primitives::hash::{hash_concat, Hash};

use crate::error::SgxError;

/// A sealed blob: recoverable only by the same measurement on the same
/// platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// The measurement the blob is bound to.
    pub measurement: Hash,
    /// Random-looking nonce (derived from content in this simulation).
    pub nonce: Hash,
    /// The encrypted state.
    pub ciphertext: Vec<u8>,
    /// Authentication tag.
    pub mac: Hash,
}

impl SealedBlob {
    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

dcert_primitives::wire! {
    struct SealedBlob { measurement, nonce, ciphertext, mac }
}

/// Derives the sealing key for (platform, measurement).
fn sealing_key(platform_secret: &[u8; 32], measurement: &Hash) -> Hash {
    hash_concat([b"seal:".as_slice(), platform_secret, measurement.as_bytes()])
}

fn keystream_block(key: &Hash, nonce: &Hash, counter: u64) -> Hash {
    hash_concat([
        b"ks:".as_slice(),
        key.as_bytes(),
        nonce.as_bytes(),
        &counter.to_be_bytes(),
    ])
}

fn mac(key: &Hash, nonce: &Hash, ciphertext: &[u8]) -> Hash {
    hash_concat([
        b"mac:".as_slice(),
        key.as_bytes(),
        nonce.as_bytes(),
        ciphertext,
    ])
}

fn xor_stream(key: &Hash, nonce: &Hash, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (block_idx, chunk) in data.chunks(32).enumerate() {
        let ks = keystream_block(key, nonce, block_idx as u64);
        out.extend(chunk.iter().zip(ks.as_bytes()).map(|(d, k)| d ^ k));
    }
    out
}

/// Seals `plaintext` to (platform, measurement).
pub fn seal(platform_secret: &[u8; 32], measurement: &Hash, plaintext: &[u8]) -> SealedBlob {
    let key = sealing_key(platform_secret, measurement);
    // Deterministic nonce from content (fine for the simulation: a given
    // enclave state seals to a stable blob).
    let nonce = hash_concat([b"nonce:".as_slice(), key.as_bytes(), plaintext]);
    let ciphertext = xor_stream(&key, &nonce, plaintext);
    let tag = mac(&key, &nonce, &ciphertext);
    SealedBlob {
        measurement: *measurement,
        nonce,
        ciphertext,
        mac: tag,
    }
}

/// Unseals a blob; succeeds only with the sealing platform's secret and
/// the sealed measurement.
///
/// # Errors
///
/// Returns [`SgxError::BadSeal`] if the measurement does not match or the
/// MAC fails (wrong platform, tampering).
pub fn unseal(
    platform_secret: &[u8; 32],
    measurement: &Hash,
    blob: &SealedBlob,
) -> Result<Vec<u8>, SgxError> {
    if blob.measurement != *measurement {
        return Err(SgxError::BadSeal);
    }
    let key = sealing_key(platform_secret, measurement);
    if mac(&key, &blob.nonce, &blob.ciphertext) != blob.mac {
        return Err(SgxError::BadSeal);
    }
    Ok(xor_stream(&key, &blob.nonce, &blob.ciphertext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Decode;
    use dcert_primitives::hash::hash_bytes;

    #[test]
    fn seal_unseal_round_trip() {
        let platform = [7u8; 32];
        let measurement = hash_bytes(b"program");
        let blob = seal(&platform, &measurement, b"secret key material");
        assert_eq!(
            unseal(&platform, &measurement, &blob).unwrap(),
            b"secret key material"
        );
    }

    #[test]
    fn other_platform_cannot_unseal() {
        let measurement = hash_bytes(b"program");
        let blob = seal(&[7u8; 32], &measurement, b"secret");
        assert_eq!(
            unseal(&[8u8; 32], &measurement, &blob),
            Err(SgxError::BadSeal)
        );
    }

    #[test]
    fn other_program_cannot_unseal() {
        let platform = [7u8; 32];
        let blob = seal(&platform, &hash_bytes(b"program-a"), b"secret");
        assert_eq!(
            unseal(&platform, &hash_bytes(b"program-b"), &blob),
            Err(SgxError::BadSeal)
        );
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let platform = [7u8; 32];
        let measurement = hash_bytes(b"program");
        let mut blob = seal(&platform, &measurement, b"secret");
        blob.ciphertext[0] ^= 0xff;
        assert_eq!(
            unseal(&platform, &measurement, &blob),
            Err(SgxError::BadSeal)
        );
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let platform = [7u8; 32];
        let measurement = hash_bytes(b"program");
        let blob = seal(&platform, &measurement, b"secret key material!!");
        assert_ne!(blob.ciphertext.as_slice(), b"secret key material!!");
    }

    #[test]
    fn blob_codec_round_trip() {
        let blob = seal(&[1u8; 32], &hash_bytes(b"p"), b"state");
        let decoded = SealedBlob::decode_all(&blob.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, blob);
    }

    #[test]
    fn long_plaintexts_round_trip() {
        let platform = [9u8; 32];
        let measurement = hash_bytes(b"program");
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let blob = seal(&platform, &measurement, &data);
        assert_eq!(unseal(&platform, &measurement, &blob).unwrap(), data);
    }
}
