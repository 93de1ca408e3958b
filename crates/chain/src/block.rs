//! Block headers and blocks.

use dcert_merkle::mht;
use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, hash_encoded, Address, Hash};

use crate::consensus::ConsensusProof;
use crate::error::ChainError;
use crate::tx::Transaction;

/// A block header — the four fields of Fig. 1 of the paper
/// (`H_prev`, `π_cons`, `H_state`, `H_tx`) plus chain metadata.
///
/// This is everything a traditional light client stores per block, and the
/// *only* block a DCert superlight client stores at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Block height (genesis = 0).
    pub height: u64,
    /// `H_{prev_blk}`: digest of the previous block's header.
    pub prev_hash: Hash,
    /// `H_state`: sparse-Merkle root of the post-block global state.
    pub state_root: Hash,
    /// `H_tx`: Merkle root of the block's transactions.
    pub tx_root: Hash,
    /// Wall-clock seconds (miner-declared; informational).
    pub timestamp: u64,
    /// The proposing miner's address.
    pub miner: Address,
    /// `π_cons`: the consensus proof.
    pub consensus: ConsensusProof,
}

impl BlockHeader {
    /// The header digest `H(hdr)` — the chain-link and certificate digest.
    pub fn hash(&self) -> Hash {
        hash_encoded(self)
    }

    /// The digest sealed by consensus: all fields *except* the consensus
    /// proof (which would otherwise be circular).
    pub fn sealing_digest(&self) -> Hash {
        let mut buf = Vec::new();
        self.encode_sans_consensus(&mut buf);
        hash_bytes(&buf)
    }

    /// Serialized size in bytes — what a light client pays per header.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    fn encode_sans_consensus(&self, out: &mut Vec<u8>) {
        self.height.encode(out);
        self.prev_hash.encode(out);
        self.state_root.encode(out);
        self.tx_root.encode(out);
        self.timestamp.encode(out);
        self.miner.encode(out);
    }
}

impl Encode for BlockHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.encode_sans_consensus(out);
        self.consensus.encode(out);
    }
}

impl Decode for BlockHeader {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BlockHeader {
            height: u64::decode(r)?,
            prev_hash: Hash::decode(r)?,
            state_root: Hash::decode(r)?,
            tx_root: Hash::decode(r)?,
            timestamp: u64::decode(r)?,
            miner: Address::decode(r)?,
            consensus: ConsensusProof::decode(r)?,
        })
    }
}

/// A full block: header plus transaction body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// The ordered transactions.
    pub txs: Vec<Transaction>,
}

impl Block {
    /// Computes the Merkle root (`H_tx`) of a transaction list.
    pub fn tx_root(txs: &[Transaction]) -> Hash {
        mht::root(txs.iter().map(|tx| tx.to_encoded_bytes()))
    }

    /// The block digest (= header digest; bodies are bound via `H_tx`).
    pub fn hash(&self) -> Hash {
        self.header.hash()
    }

    /// Block height.
    pub fn height(&self) -> u64 {
        self.header.height
    }

    /// Checks that the header's `tx_root` commits to the body.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::TxRootMismatch`] when it does not.
    pub fn verify_tx_root(&self) -> Result<(), ChainError> {
        if Self::tx_root(&self.txs) == self.header.tx_root {
            Ok(())
        } else {
            Err(ChainError::TxRootMismatch)
        }
    }

    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for Block {
    fn encode(&self, out: &mut Vec<u8>) {
        self.header.encode(out);
        encode_seq(&self.txs, out);
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Block {
            header: BlockHeader::decode(r)?,
            txs: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::keys::Keypair;
    use dcert_testkit::{check, Gen};

    fn arb_hash(g: &mut Gen) -> Hash {
        Hash::from_bytes(g.any())
    }

    fn arb_header(g: &mut Gen) -> BlockHeader {
        BlockHeader {
            height: g.any(),
            prev_hash: arb_hash(g),
            state_root: arb_hash(g),
            tx_root: arb_hash(g),
            timestamp: g.any(),
            miner: Address::from_seed(g.any()),
            consensus: ConsensusProof::Pow {
                difficulty_bits: g.any(),
                nonce: g.any(),
            },
        }
    }

    /// Arbitrary headers survive the wire format, and distinct headers
    /// have distinct digests (encoding is canonical and injective).
    #[test]
    fn prop_header_codec_round_trip() {
        check("prop_header_codec_round_trip", 256, |g| {
            let (a, b) = (arb_header(g), arb_header(g));
            let decoded = BlockHeader::decode_all(&a.to_encoded_bytes()).unwrap();
            assert_eq!(&decoded, &a);
            if a != b {
                assert_ne!(a.hash(), b.hash());
            }
        });
    }

    /// Arbitrary signed transactions survive the wire format inside a
    /// block, and the tx root changes whenever the body changes.
    #[test]
    fn prop_block_codec_round_trip() {
        check("prop_block_codec_round_trip", 256, |g| {
            let mut header = arb_header(g);
            let payloads = g.vec(0..6, |g| g.vec(0..24, |g| g.any::<u8>()));
            let kp = Keypair::from_seed([11; 32]);
            let txs: Vec<Transaction> = payloads
                .into_iter()
                .enumerate()
                .map(|(i, p)| Transaction::sign(&kp, i as u64, "kv", p))
                .collect();
            header.tx_root = Block::tx_root(&txs);
            let block = Block { header, txs };
            let decoded = Block::decode_all(&block.to_encoded_bytes()).unwrap();
            assert_eq!(&decoded, &block);
            assert!(decoded.verify_tx_root().is_ok());
        });
    }

    fn header() -> BlockHeader {
        BlockHeader {
            height: 3,
            prev_hash: hash_bytes(b"prev"),
            state_root: hash_bytes(b"state"),
            tx_root: hash_bytes(b"txs"),
            timestamp: 1_700_000_000,
            miner: Address::from_seed(1),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 4,
                nonce: 42,
            },
        }
    }

    #[test]
    fn header_hash_changes_with_any_field() {
        let base = header();
        let mut variants = Vec::new();
        let mut h = base.clone();
        h.height = 4;
        variants.push(h);
        let mut h = base.clone();
        h.prev_hash = hash_bytes(b"other");
        variants.push(h);
        let mut h = base.clone();
        h.state_root = hash_bytes(b"other");
        variants.push(h);
        let mut h = base.clone();
        h.tx_root = hash_bytes(b"other");
        variants.push(h);
        let mut h = base.clone();
        h.timestamp += 1;
        variants.push(h);
        let mut h = base.clone();
        h.consensus = ConsensusProof::Pow {
            difficulty_bits: 4,
            nonce: 43,
        };
        variants.push(h);
        for variant in variants {
            assert_ne!(variant.hash(), base.hash());
        }
    }

    #[test]
    fn sealing_digest_ignores_consensus() {
        let base = header();
        let mut resealed = base.clone();
        resealed.consensus = ConsensusProof::Pow {
            difficulty_bits: 9,
            nonce: 9999,
        };
        assert_eq!(base.sealing_digest(), resealed.sealing_digest());
        assert_ne!(base.hash(), resealed.hash());
    }

    #[test]
    fn header_codec_round_trip() {
        let h = header();
        assert_eq!(BlockHeader::decode_all(&h.to_encoded_bytes()).unwrap(), h);
    }

    #[test]
    fn tx_root_commits_to_body() {
        let kp = Keypair::from_seed([7; 32]);
        let txs = vec![
            Transaction::sign(&kp, 0, "kv", b"a".to_vec()),
            Transaction::sign(&kp, 1, "kv", b"b".to_vec()),
        ];
        let mut h = header();
        h.tx_root = Block::tx_root(&txs);
        let block = Block { header: h, txs };
        block.verify_tx_root().unwrap();

        let mut tampered = block.clone();
        tampered.txs[0].call.payload = b"evil".to_vec();
        assert_eq!(tampered.verify_tx_root(), Err(ChainError::TxRootMismatch));
    }

    #[test]
    fn empty_body_tx_root_is_zero() {
        assert_eq!(Block::tx_root(&[]), Hash::ZERO);
    }

    #[test]
    fn block_codec_round_trip() {
        let kp = Keypair::from_seed([7; 32]);
        let txs = vec![Transaction::sign(&kp, 0, "kv", b"a".to_vec())];
        let mut h = header();
        h.tx_root = Block::tx_root(&txs);
        let block = Block { header: h, txs };
        assert_eq!(Block::decode_all(&block.to_encoded_bytes()).unwrap(), block);
    }
}
