//! Ed25519-signed transactions.

use dcert_primitives::codec::Encode;
use dcert_primitives::hash::{hash_encoded, Address, Hash};
use dcert_primitives::keys::{Keypair, PublicKey, Signature};
use dcert_vm::Call;

use crate::error::ChainError;

/// Derives the account address of a public key (first 20 bytes of its
/// hash, Ethereum-style).
pub fn address_of(public_key: &PublicKey) -> Address {
    let digest = dcert_primitives::hash::hash_bytes(public_key.to_array());
    let mut bytes = [0u8; 20];
    for (b, d) in bytes.iter_mut().zip(digest.as_bytes()) {
        *b = *d;
    }
    Address::from_bytes(bytes)
}

/// A signed transaction: a VM [`Call`] plus sender authentication.
///
/// The sender address inside the call must be [`address_of`] the signing
/// key; [`Transaction::verify`] checks both the binding and the signature —
/// the "validity is checked using the senders' public keys" step the paper
/// assigns to miners and to `blk_verify_t` (Algorithm 2, line 19).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Sender-chosen sequence number (used for request uniqueness).
    pub nonce: u64,
    /// The contract invocation.
    pub call: Call,
    /// The sender's public key.
    pub public_key: PublicKey,
    /// Ed25519 signature over the signing digest.
    pub signature: Signature,
}

impl Transaction {
    /// Builds and signs a transaction. The call's sender is forced to the
    /// key's address.
    pub fn sign(
        keypair: &Keypair,
        nonce: u64,
        contract: impl Into<String>,
        payload: Vec<u8>,
    ) -> Self {
        let public_key = keypair.public();
        let call = Call::new(address_of(&public_key), contract, payload);
        let digest = Self::signing_digest(nonce, &call);
        let signature = keypair.sign(digest.as_bytes());
        Transaction {
            nonce,
            call,
            public_key,
            signature,
        }
    }

    /// The digest the sender signs: `H(nonce || call)`.
    pub fn signing_digest(nonce: u64, call: &Call) -> Hash {
        let mut buf = Vec::new();
        nonce.encode(&mut buf);
        call.encode(&mut buf);
        dcert_primitives::hash::hash_bytes(&buf)
    }

    /// The transaction id: the hash of the full canonical encoding.
    pub fn id(&self) -> Hash {
        hash_encoded(self)
    }

    /// Verifies sender binding and signature.
    ///
    /// # Errors
    ///
    /// [`ChainError::SenderMismatch`] if the call's sender is not the
    /// public key's address; [`ChainError::BadTxSignature`] if the
    /// signature is invalid.
    pub fn verify(&self) -> Result<(), ChainError> {
        if self.call.sender != address_of(&self.public_key) {
            return Err(ChainError::SenderMismatch);
        }
        let digest = Self::signing_digest(self.nonce, &self.call);
        self.public_key
            .verify(digest.as_bytes(), &self.signature)
            .map_err(|_| ChainError::BadTxSignature)
    }
}

dcert_primitives::wire! {
    struct Transaction { nonce, call, public_key, signature }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Decode;

    fn keypair(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn signed_tx_verifies() {
        let tx = Transaction::sign(&keypair(1), 0, "kv", b"put".to_vec());
        tx.verify().unwrap();
    }

    #[test]
    fn address_is_first_twenty_bytes_of_key_hash() {
        let pk = keypair(7).public();
        let digest = dcert_primitives::hash::hash_bytes(pk.to_array());
        let addr = address_of(&pk);
        assert_eq!(addr.as_bytes(), &digest.as_bytes()[..20]);
    }

    #[test]
    fn tampered_payload_rejected() {
        let mut tx = Transaction::sign(&keypair(1), 0, "kv", b"put".to_vec());
        tx.call.payload = b"evil".to_vec();
        assert_eq!(tx.verify(), Err(ChainError::BadTxSignature));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let mut tx = Transaction::sign(&keypair(1), 0, "kv", b"put".to_vec());
        tx.nonce = 7;
        assert_eq!(tx.verify(), Err(ChainError::BadTxSignature));
    }

    #[test]
    fn sender_spoofing_rejected() {
        let mut tx = Transaction::sign(&keypair(1), 0, "kv", b"put".to_vec());
        tx.call.sender = address_of(&keypair(2).public());
        assert_eq!(tx.verify(), Err(ChainError::SenderMismatch));
    }

    #[test]
    fn signature_swap_rejected() {
        let tx1 = Transaction::sign(&keypair(1), 0, "kv", b"a".to_vec());
        let mut tx2 = Transaction::sign(&keypair(1), 0, "kv", b"b".to_vec());
        tx2.signature = tx1.signature;
        assert_eq!(tx2.verify(), Err(ChainError::BadTxSignature));
    }

    #[test]
    fn ids_are_unique_per_content() {
        let tx1 = Transaction::sign(&keypair(1), 0, "kv", b"a".to_vec());
        let tx2 = Transaction::sign(&keypair(1), 1, "kv", b"a".to_vec());
        assert_ne!(tx1.id(), tx2.id());
        assert_eq!(tx1.id(), tx1.clone().id());
    }

    #[test]
    fn codec_round_trip() {
        let tx = Transaction::sign(&keypair(3), 9, "bank", b"pay".to_vec());
        let decoded = Transaction::decode_all(&tx.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, tx);
        decoded.verify().unwrap();
    }

    #[test]
    fn address_derivation_is_stable() {
        let pk = keypair(5).public();
        assert_eq!(address_of(&pk), address_of(&pk));
        assert_ne!(address_of(&pk), address_of(&keypair(6).public()));
    }
}
