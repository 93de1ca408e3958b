//! Pluggable consensus engines.
//!
//! The enclave's `verify_cons(π_cons)` (Algorithm 2, line 15) and the full
//! node's block validation both go through [`ConsensusEngine::verify`]. Two
//! engines are provided: nonce-searching proof-of-work (what the paper's
//! Bitcoin/Ethereum-style discussion assumes) and proof-of-authority (fast
//! and deterministic, used by tests and large chain builds).

use dcert_primitives::hash::{Hash, Hasher};
use dcert_primitives::keys::{Keypair, PublicKey, Signature};

use crate::block::BlockHeader;
use crate::error::ChainError;

/// `π_cons`: the consensus proof carried in every header.
// A PoA proof (96 B) dwarfs a PoW proof (9 B); headers are long-lived
// values where layout clarity beats boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsensusProof {
    /// Proof-of-work: `H(sealing_digest || nonce)` has at least
    /// `difficulty_bits` leading zero bits.
    Pow {
        /// The difficulty this proof claims to satisfy.
        difficulty_bits: u8,
        /// The mined nonce.
        nonce: u64,
    },
    /// Proof-of-authority: an authorized signer's signature over the
    /// sealing digest.
    Authority {
        /// The signer's public key.
        signer: PublicKey,
        /// Signature over the sealing digest.
        signature: Signature,
    },
}

dcert_primitives::wire! {
    enum ConsensusProof {
        0 => Pow { difficulty_bits, nonce },
        1 => Authority { signer, signature },
    }
}

/// Number of leading zero bits of a digest.
pub fn leading_zero_bits(hash: &Hash) -> u32 {
    let mut bits = 0;
    for &byte in hash.as_bytes() {
        if byte == 0 {
            bits += 8;
        } else {
            bits += byte.leading_zeros();
            break;
        }
    }
    bits
}

/// Seals headers and verifies consensus proofs.
pub trait ConsensusEngine: Send + Sync {
    /// Human-readable engine name.
    fn name(&self) -> &str;

    /// Fills `header.consensus` with a valid proof: every header this
    /// engine seals passes its own [`ConsensusEngine::verify`], so a sealer
    /// need not verify what it has just sealed.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadConsensus`] when the engine cannot seal
    /// (e.g. a PoA engine without a signing key, or one whose key is not
    /// authorized).
    fn seal(&self, header: &mut BlockHeader) -> Result<(), ChainError>;

    /// Verifies `header.consensus`. Genesis headers (height 0) are exempt —
    /// their digest is pinned instead (Algorithm 2, line 4).
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadConsensus`] on an invalid proof.
    fn verify(&self, header: &BlockHeader) -> Result<(), ChainError>;
}

/// Nonce-searching proof-of-work over the sealing digest.
#[derive(Debug, Clone)]
pub struct ProofOfWork {
    difficulty_bits: u8,
}

impl ProofOfWork {
    /// Creates a PoW engine requiring `difficulty_bits` leading zero bits.
    pub fn new(difficulty_bits: u8) -> Self {
        ProofOfWork { difficulty_bits }
    }

    /// The configured difficulty.
    pub fn difficulty_bits(&self) -> u8 {
        self.difficulty_bits
    }

    fn pow_digest(sealing: &Hash, nonce: u64) -> Hash {
        Hasher::new()
            .chain(sealing.as_bytes())
            .chain(nonce.to_be_bytes())
            .finalize()
    }
}

impl ConsensusEngine for ProofOfWork {
    fn name(&self) -> &str {
        "pow"
    }

    fn seal(&self, header: &mut BlockHeader) -> Result<(), ChainError> {
        let sealing = header.sealing_digest();
        // Absorb the sealing digest once; each candidate nonce only clones
        // the midstate instead of rehashing the 32-byte prefix.
        let base = Hasher::new().chain(sealing.as_bytes());
        let mut nonce = 0u64;
        loop {
            let digest = base.clone().chain(nonce.to_be_bytes()).finalize();
            if leading_zero_bits(&digest) >= u32::from(self.difficulty_bits) {
                header.consensus = ConsensusProof::Pow {
                    difficulty_bits: self.difficulty_bits,
                    nonce,
                };
                return Ok(());
            }
            nonce = nonce
                .checked_add(1)
                .ok_or(ChainError::BadConsensus("nonce space exhausted".into()))?;
        }
    }

    fn verify(&self, header: &BlockHeader) -> Result<(), ChainError> {
        if header.height == 0 {
            return Ok(());
        }
        let ConsensusProof::Pow {
            difficulty_bits,
            nonce,
        } = &header.consensus
        else {
            return Err(ChainError::BadConsensus("expected a PoW proof".into()));
        };
        if *difficulty_bits != self.difficulty_bits {
            return Err(ChainError::BadConsensus("wrong difficulty".into()));
        }
        let digest = Self::pow_digest(&header.sealing_digest(), *nonce);
        if leading_zero_bits(&digest) >= u32::from(self.difficulty_bits) {
            Ok(())
        } else {
            Err(ChainError::BadConsensus("insufficient work".into()))
        }
    }
}

/// Proof-of-authority: any of a fixed set of signers may seal blocks.
///
/// Fast and deterministic — used by tests and by benchmark chain builds
/// where PoW mining time would only add noise.
pub struct ProofOfAuthority {
    authorized: Vec<PublicKey>,
    signer: Option<Keypair>,
}

impl std::fmt::Debug for ProofOfAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProofOfAuthority")
            .field("authorized", &self.authorized)
            .field("can_seal", &self.signer.is_some())
            .finish()
    }
}

impl ProofOfAuthority {
    /// Creates a sealing engine: `signer` must be in `authorized`.
    pub fn new_sealer(authorized: Vec<PublicKey>, signer: Keypair) -> Self {
        ProofOfAuthority {
            authorized,
            signer: Some(signer),
        }
    }

    /// Creates a verify-only engine.
    pub fn new_verifier(authorized: Vec<PublicKey>) -> Self {
        ProofOfAuthority {
            authorized,
            signer: None,
        }
    }
}

impl ConsensusEngine for ProofOfAuthority {
    fn name(&self) -> &str {
        "poa"
    }

    fn seal(&self, header: &mut BlockHeader) -> Result<(), ChainError> {
        let signer = self
            .signer
            .as_ref()
            .ok_or(ChainError::BadConsensus("verify-only PoA engine".into()))?;
        if !self.authorized.contains(&signer.public()) {
            return Err(ChainError::BadConsensus("unauthorized signer".into()));
        }
        let sealing = header.sealing_digest();
        header.consensus = ConsensusProof::Authority {
            signer: signer.public(),
            signature: signer.sign(sealing.as_bytes()),
        };
        Ok(())
    }

    fn verify(&self, header: &BlockHeader) -> Result<(), ChainError> {
        if header.height == 0 {
            return Ok(());
        }
        let ConsensusProof::Authority { signer, signature } = &header.consensus else {
            return Err(ChainError::BadConsensus("expected a PoA proof".into()));
        };
        if !self.authorized.contains(signer) {
            return Err(ChainError::BadConsensus("unauthorized signer".into()));
        }
        signer
            .verify(header.sealing_digest().as_bytes(), signature)
            .map_err(|_| ChainError::BadConsensus("bad authority signature".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Decode;
    use dcert_primitives::codec::Encode;
    use dcert_primitives::hash::Address;

    fn draft_header() -> BlockHeader {
        BlockHeader {
            height: 1,
            prev_hash: Hash::ZERO,
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: 1,
            miner: Address::from_seed(0),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        }
    }

    #[test]
    fn leading_zero_bits_counts_correctly() {
        assert_eq!(leading_zero_bits(&Hash::ZERO), 256);
        let mut bytes = [0u8; 32];
        bytes[0] = 0b0001_0000;
        assert_eq!(leading_zero_bits(&Hash::from_bytes(bytes)), 3);
        bytes[0] = 0xff;
        assert_eq!(leading_zero_bits(&Hash::from_bytes(bytes)), 0);
    }

    #[test]
    fn pow_seal_then_verify() {
        let engine = ProofOfWork::new(8);
        let mut header = draft_header();
        engine.seal(&mut header).unwrap();
        engine.verify(&header).unwrap();
    }

    #[test]
    fn pow_rejects_wrong_nonce() {
        let engine = ProofOfWork::new(12);
        let mut header = draft_header();
        engine.seal(&mut header).unwrap();
        if let ConsensusProof::Pow { nonce, .. } = &mut header.consensus {
            *nonce = nonce.wrapping_add(1);
        }
        // A nonce off by one almost certainly fails a 12-bit target.
        assert!(engine.verify(&header).is_err());
    }

    #[test]
    fn pow_rejects_weaker_difficulty_claim() {
        let lenient = ProofOfWork::new(2);
        let strict = ProofOfWork::new(20);
        let mut header = draft_header();
        lenient.seal(&mut header).unwrap();
        assert_eq!(
            strict.verify(&header),
            Err(ChainError::BadConsensus("wrong difficulty".into()))
        );
    }

    #[test]
    fn pow_resealing_needed_after_header_change() {
        let engine = ProofOfWork::new(10);
        let mut header = draft_header();
        engine.seal(&mut header).unwrap();
        header.state_root = dcert_primitives::hash::hash_bytes(b"tampered");
        assert!(engine.verify(&header).is_err());
    }

    #[test]
    fn genesis_is_exempt() {
        let engine = ProofOfWork::new(200); // impossible difficulty
        let mut header = draft_header();
        header.height = 0;
        engine.verify(&header).unwrap();
    }

    #[test]
    fn poa_seal_then_verify() {
        let kp = Keypair::from_seed([1; 32]);
        let authorized = vec![kp.public()];
        let sealer = ProofOfAuthority::new_sealer(authorized.clone(), kp);
        let verifier = ProofOfAuthority::new_verifier(authorized);
        let mut header = draft_header();
        sealer.seal(&mut header).unwrap();
        verifier.verify(&header).unwrap();
    }

    /// `ConsensusEngine::seal`'s promise, which lets `FullNode::mine` skip
    /// re-verifying its own seal: every sealed header passes `verify`.
    #[test]
    fn every_engine_verifies_what_it_seals() {
        let kp = Keypair::from_seed([1; 32]);
        let poa = ProofOfAuthority::new_sealer(vec![kp.public()], kp);
        for height in 0..24u64 {
            let mut header = draft_header();
            header.height = height;
            header.timestamp = height.wrapping_mul(7919);
            header.prev_hash = dcert_primitives::hash::hash_bytes(height.to_be_bytes());
            header.miner = Address::from_seed(height);
            for bits in 0..=8u8 {
                let pow = ProofOfWork::new(bits);
                let mut sealed = header.clone();
                pow.seal(&mut sealed).unwrap();
                assert_eq!(pow.verify(&sealed), Ok(()), "pow {bits} at {height}");
            }
            let mut sealed = header;
            poa.seal(&mut sealed).unwrap();
            assert_eq!(poa.verify(&sealed), Ok(()), "poa at {height}");
        }
    }

    #[test]
    fn poa_rejects_unauthorized_signer() {
        let good = Keypair::from_seed([1; 32]);
        let rogue = Keypair::from_seed([2; 32]);
        let sealer = ProofOfAuthority::new_sealer(vec![rogue.public()], rogue);
        let verifier = ProofOfAuthority::new_verifier(vec![good.public()]);
        let mut header = draft_header();
        sealer.seal(&mut header).unwrap();
        assert_eq!(
            verifier.verify(&header),
            Err(ChainError::BadConsensus("unauthorized signer".into()))
        );
    }

    #[test]
    fn poa_verify_only_engine_cannot_seal() {
        let kp = Keypair::from_seed([1; 32]);
        let verifier = ProofOfAuthority::new_verifier(vec![kp.public()]);
        let mut header = draft_header();
        assert!(verifier.seal(&mut header).is_err());
    }

    #[test]
    fn proof_codec_round_trip() {
        let pow = ConsensusProof::Pow {
            difficulty_bits: 7,
            nonce: 12345,
        };
        assert_eq!(
            ConsensusProof::decode_all(&pow.to_encoded_bytes()).unwrap(),
            pow
        );
        let kp = Keypair::from_seed([3; 32]);
        let poa = ConsensusProof::Authority {
            signer: kp.public(),
            signature: kp.sign(b"x"),
        };
        assert_eq!(
            ConsensusProof::decode_all(&poa.to_encoded_bytes()).unwrap(),
            poa
        );
    }
}
