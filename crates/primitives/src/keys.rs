//! Ed25519 key pairs and signatures.
//!
//! Three distinct parties in DCert hold signing keys, all instantiated with
//! this module:
//!
//! 1. the **enclave key** `(sk_enc, pk_enc)` generated *inside* the enclave
//!    during initialization — `sk_enc` never leaves the enclave,
//! 2. the **platform key** that signs enclave quotes (standing in for the
//!    SGX hardware attestation key), and
//! 3. the **IAS root key** with which the simulated Intel Attestation
//!    Service countersigns attestation reports.
//!
//! The wrappers keep `ed25519-dalek` out of the public API of downstream
//! crates and give the types canonical [`Encode`]/[`Decode`] forms so they
//! can appear inside certificates. The secret half travels only as
//! [`SecretBytes`], which has neither.

// The raw key and signature types are banned everywhere else
// (`clippy.toml`): this module is their one home.
#![allow(clippy::disallowed_types, reason = "raw ed25519's one home")]

use std::fmt;

use ed25519_dalek::{Signer, Verifier};
use rand::{CryptoRng, RngCore};

use crate::codec::{Decode, Encode, Reader};
use crate::error::{CodecError, CryptoError};
use crate::hex;

/// An Ed25519 signing key pair.
pub struct Keypair {
    signing: ed25519_dalek::SigningKey,
}

impl Keypair {
    /// Generates a fresh key pair from the given randomness source.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Self {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair {
            signing: ed25519_dalek::SigningKey::from_bytes(&seed),
        }
    }

    /// Deterministically derives a key pair from a 32-byte seed.
    ///
    /// Used by tests and by the simulated platform/IAS roots so that
    /// verification material is reproducible.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        Keypair {
            signing: ed25519_dalek::SigningKey::from_bytes(&seed),
        }
    }

    /// Returns the public half of the key pair.
    pub fn public(&self) -> PublicKey {
        PublicKey(self.signing.verifying_key())
    }

    /// Exports the 32-byte secret seed.
    ///
    /// Exists solely so trusted code can hand the secret to a *sealing*
    /// mechanism (encrypted storage bound to the enclave); the result can
    /// be neither printed nor encoded ([`SecretBytes`]).
    // dcert-lint: allow(r1-enclave-secrecy, reason = "definition site of the secret-key abstraction; call sites are confined to the trusted program modules by this same rule")
    pub fn to_secret_bytes(&self) -> SecretBytes {
        SecretBytes::from(self.signing.to_bytes())
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature(self.signing.sign(message))
    }
}

impl fmt::Debug for Keypair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        write!(f, "Keypair(public = {:?})", self.public())
    }
}

/// Secret bytes: `sk_enc`'s seed, a trusted program's sealable state, the
/// platform secret sealing keys derive from.
///
/// The type is the secrecy rule. It has no `Debug`, `Display`, `Clone`,
/// [`Encode`] or `Hash` impl, so a secret cannot be formatted, copied,
/// put on the wire or used as a map key; it can only be built, appended
/// to, measured and compared (`PartialEq`, so tests can compare states).
/// Its one reader, [`SecretBytes::expose`], is a `clippy.toml`
/// `disallowed-methods` entry, lifted only where the bytes are sealed and
/// where a sealed state is parsed back into a key.
///
/// Each refusal below has a compiling twin that differs only in its last
/// line:
///
/// ```compile_fail,E0277
/// use dcert_primitives::keys::SecretBytes;
/// let s = SecretBytes::new(b"sk");
/// let _ = format!("{:?}", s);
/// ```
/// ```
/// use dcert_primitives::keys::SecretBytes;
/// let s = SecretBytes::new(b"sk");
/// let _ = format!("{:?}", s.len());
/// ```
/// ```compile_fail,E0599
/// use dcert_primitives::keys::SecretBytes;
/// let s = SecretBytes::new(b"sk");
/// let _ = s.clone();
/// ```
/// ```
/// use dcert_primitives::keys::SecretBytes;
/// let s = SecretBytes::new(b"sk");
/// let _ = s.len().clone();
/// ```
/// ```compile_fail,E0599
/// use dcert_primitives::codec::Encode;
/// use dcert_primitives::keys::SecretBytes;
/// let s = SecretBytes::new(b"sk");
/// let _ = s.to_encoded_bytes();
/// ```
/// ```
/// use dcert_primitives::codec::Encode;
/// use dcert_primitives::keys::SecretBytes;
/// let s = SecretBytes::new(b"sk");
/// let _ = s.len().to_encoded_bytes();
/// ```
#[derive(Default, PartialEq, Eq)]
pub struct SecretBytes(Vec<u8>);

impl SecretBytes {
    /// Copies `bytes` into a secret.
    pub fn new(bytes: &[u8]) -> Self {
        SecretBytes(bytes.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the secret holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends `bytes`.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// The bytes themselves. Banned by `clippy.toml` outside the sealing
    /// code and the trusted program's state import.
    pub fn expose(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for SecretBytes {
    fn from(bytes: Vec<u8>) -> Self {
        SecretBytes(bytes)
    }
}

impl From<[u8; 32]> for SecretBytes {
    fn from(bytes: [u8; 32]) -> Self {
        SecretBytes(bytes.to_vec())
    }
}

/// An Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PublicKey(ed25519_dalek::VerifyingKey);

impl PublicKey {
    /// Size of the encoded key in bytes.
    pub const LEN: usize = 32;

    /// Verifies `signature` over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] if verification fails.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        self.0
            .verify(message, &signature.0)
            .map_err(|_| CryptoError::BadSignature)
    }

    /// Returns the key as raw bytes.
    pub fn to_array(self) -> [u8; 32] {
        self.0.to_bytes()
    }

    /// Reconstructs a key from raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedKey`] if the bytes are not a valid
    /// curve point.
    pub fn from_bytes(bytes: [u8; 32]) -> Result<Self, CryptoError> {
        ed25519_dalek::VerifyingKey::from_bytes(&bytes)
            .map(PublicKey)
            .map_err(|_| CryptoError::MalformedKey)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let full = hex::encode(self.0.to_bytes());
        write!(f, "PublicKey({}..)", full.get(..12).unwrap_or(&full))
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(self.0.to_bytes()))
    }
}

/// Hand-written, not a `wire!` table: 32 raw bytes, decoded as a checked point.
impl Encode for PublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_bytes());
    }
    fn encoded_len(&self) -> usize {
        Self::LEN
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes: [u8; 32] = r
            .take(32)?
            .try_into()
            .map_err(|_| CodecError::Invalid("short read for public key".into()))?;
        PublicKey::from_bytes(bytes)
            .map_err(|_| CodecError::Invalid("invalid ed25519 point".into()))
    }
}

/// An Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature(ed25519_dalek::Signature);

impl Signature {
    /// Size of the encoded signature in bytes.
    pub const LEN: usize = 64;

    /// Returns the signature as raw bytes.
    pub fn to_array(self) -> [u8; 64] {
        self.0.to_bytes()
    }

    /// Reconstructs a signature from raw bytes.
    pub fn from_bytes(bytes: [u8; 64]) -> Self {
        Signature(ed25519_dalek::Signature::from_bytes(&bytes))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let full = hex::encode(self.0.to_bytes());
        write!(f, "Signature({}..)", full.get(..12).unwrap_or(&full))
    }
}

/// Hand-written, not a `wire!` table: a signature is 64 raw bytes.
impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_bytes());
    }
    fn encoded_len(&self) -> usize {
        Self::LEN
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes: [u8; 64] = r
            .take(64)?
            .try_into()
            .map_err(|_| CodecError::Invalid("short read for signature".into()))?;
        Ok(Signature::from_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = kp(1);
        let sig = kp.sign(b"message");
        assert!(kp.public().verify(b"message", &sig).is_ok());
    }

    #[test]
    fn verification_fails_on_wrong_message() {
        let kp = kp(1);
        let sig = kp.sign(b"message");
        assert_eq!(
            kp.public().verify(b"other", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn verification_fails_on_wrong_key() {
        let sig = kp(1).sign(b"message");
        assert_eq!(
            kp(2).public().verify(b"message", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn public_key_codec_round_trip() {
        let pk = kp(3).public();
        let bytes = pk.to_encoded_bytes();
        assert_eq!(bytes.len(), PublicKey::LEN);
        assert_eq!(PublicKey::decode_all(&bytes).unwrap(), pk);
    }

    #[test]
    fn signature_codec_round_trip() {
        let sig = kp(4).sign(b"x");
        let bytes = sig.to_encoded_bytes();
        assert_eq!(bytes.len(), Signature::LEN);
        assert_eq!(Signature::decode_all(&bytes).unwrap(), sig);
    }

    #[test]
    fn debug_never_leaks_secret() {
        let kp = kp(5);
        let debug = format!("{kp:?}");
        assert!(debug.contains("PublicKey"));
        // The seed is all-0x05; its hex must not appear.
        assert!(!debug.contains("0505050505"));
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(kp(6).public(), kp(6).public());
        assert_ne!(kp(6).public(), kp(7).public());
    }
}
