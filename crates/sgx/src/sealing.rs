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
use dcert_primitives::keys::SecretBytes;

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

/// Key material derived from the platform secret: the sealing key and
/// each keystream block. Private and without `Debug`, so it leaves this
/// module only as ciphertext and MAC.
struct KeyMaterial(Hash);

/// Derives the sealing key for (platform, measurement).
#[allow(clippy::disallowed_methods, reason = "the secret keys the seal")]
fn sealing_key(platform_secret: &SecretBytes, measurement: &Hash) -> KeyMaterial {
    KeyMaterial(hash_concat([
        b"seal:".as_slice(),
        platform_secret.expose(),
        measurement.as_bytes(),
    ]))
}

fn keystream_block(key: &KeyMaterial, nonce: &Hash, counter: u64) -> KeyMaterial {
    KeyMaterial(hash_concat([
        b"ks:".as_slice(),
        key.0.as_bytes(),
        nonce.as_bytes(),
        &counter.to_be_bytes(),
    ]))
}

fn mac(key: &KeyMaterial, nonce: &Hash, ciphertext: &[u8]) -> Hash {
    hash_concat([
        b"mac:".as_slice(),
        key.0.as_bytes(),
        nonce.as_bytes(),
        ciphertext,
    ])
}

fn xor_stream(key: &KeyMaterial, nonce: &Hash, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (block_idx, chunk) in data.chunks(32).enumerate() {
        let ks = keystream_block(key, nonce, block_idx as u64);
        out.extend(chunk.iter().zip(ks.0.as_bytes()).map(|(d, k)| d ^ k));
    }
    out
}

/// Seals `plaintext` to (platform, measurement).
#[allow(clippy::disallowed_methods, reason = "the plaintext is encrypted here")]
pub fn seal(
    platform_secret: &SecretBytes,
    measurement: &Hash,
    plaintext: &SecretBytes,
) -> SealedBlob {
    let key = sealing_key(platform_secret, measurement);
    // Deterministic nonce from content (fine for the simulation: a given
    // enclave state seals to a stable blob).
    let nonce = hash_concat([b"nonce:".as_slice(), key.0.as_bytes(), plaintext.expose()]);
    let ciphertext = xor_stream(&key, &nonce, plaintext.expose());
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
    platform_secret: &SecretBytes,
    measurement: &Hash,
    blob: &SealedBlob,
) -> Result<SecretBytes, SgxError> {
    if blob.measurement != *measurement {
        return Err(SgxError::BadSeal);
    }
    let key = sealing_key(platform_secret, measurement);
    if mac(&key, &blob.nonce, &blob.ciphertext) != blob.mac {
        return Err(SgxError::BadSeal);
    }
    let plaintext = xor_stream(&key, &blob.nonce, &blob.ciphertext);
    Ok(SecretBytes::from(plaintext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Decode;
    use dcert_primitives::hash::hash_bytes;

    fn platform(byte: u8) -> SecretBytes {
        SecretBytes::from([byte; 32])
    }

    #[test]
    fn seal_unseal_round_trip() {
        let measurement = hash_bytes(b"program");
        let secret = SecretBytes::new(b"secret key material");
        let blob = seal(&platform(7), &measurement, &secret);
        assert!(unseal(&platform(7), &measurement, &blob) == Ok(secret));
    }

    #[test]
    fn other_platform_cannot_unseal() {
        let measurement = hash_bytes(b"program");
        let blob = seal(&platform(7), &measurement, &SecretBytes::new(b"secret"));
        assert!(unseal(&platform(8), &measurement, &blob) == Err(SgxError::BadSeal));
    }

    #[test]
    fn other_program_cannot_unseal() {
        let blob = seal(
            &platform(7),
            &hash_bytes(b"program-a"),
            &SecretBytes::new(b"secret"),
        );
        assert!(unseal(&platform(7), &hash_bytes(b"program-b"), &blob) == Err(SgxError::BadSeal));
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let measurement = hash_bytes(b"program");
        let mut blob = seal(&platform(7), &measurement, &SecretBytes::new(b"secret"));
        blob.ciphertext[0] ^= 0xff;
        assert!(unseal(&platform(7), &measurement, &blob) == Err(SgxError::BadSeal));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let measurement = hash_bytes(b"program");
        let plaintext = b"secret key material!!";
        let blob = seal(&platform(7), &measurement, &SecretBytes::new(plaintext));
        assert_ne!(blob.ciphertext.as_slice(), plaintext);
    }

    #[test]
    fn blob_codec_round_trip() {
        let blob = seal(&platform(1), &hash_bytes(b"p"), &SecretBytes::new(b"state"));
        let decoded = SealedBlob::decode_all(&blob.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, blob);
    }

    #[test]
    fn long_plaintexts_round_trip() {
        let measurement = hash_bytes(b"program");
        let data = SecretBytes::from((0..10_000).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let blob = seal(&platform(9), &measurement, &data);
        assert!(unseal(&platform(9), &measurement, &blob) == Ok(data));
    }
}
