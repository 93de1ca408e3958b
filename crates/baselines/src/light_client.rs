//! The traditional header-chain light client (the Fig. 7 baseline).

use dcert_chain::validity::check_extends;
use dcert_chain::{BlockHeader, ChainError, ConsensusEngine};
use dcert_primitives::codec::Encode;

/// Bytes per header the paper attributes to Ethereum (Section 1).
pub const ETHEREUM_HEADER_BYTES: usize = 508;

/// A standard light client: keeps **all** block headers and validates the
/// chain from genesis.
///
/// Both of its costs grow linearly with chain length — the exact pain
/// DCert's constant-cost superlight client removes:
///
/// - storage: every header ([`TraditionalLightClient::storage_bytes`]),
/// - bootstrap: link + consensus validation per header
///   ([`TraditionalLightClient::validate_all`]).
#[derive(Debug, Clone)]
pub struct TraditionalLightClient {
    headers: Vec<BlockHeader>,
}

impl TraditionalLightClient {
    /// Creates a client holding only the genesis header.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadGenesis`] for a non-genesis header.
    pub fn new(genesis: BlockHeader) -> Result<Self, ChainError> {
        if genesis.height != 0 {
            return Err(ChainError::BadGenesis("height must be 0".into()));
        }
        Ok(TraditionalLightClient {
            headers: vec![genesis],
        })
    }

    /// Syncs one header, validating its linkage (the chain's one link
    /// rule, [`check_extends`]) and consensus proof.
    ///
    /// # Errors
    ///
    /// Rejects broken links, height gaps, and invalid consensus proofs.
    pub fn sync(
        &mut self,
        header: BlockHeader,
        engine: &dyn ConsensusEngine,
    ) -> Result<(), ChainError> {
        if let Some(tip) = self.headers.last() {
            check_extends(tip, &header)?;
        }
        engine.verify(&header)?;
        self.headers.push(header);
        Ok(())
    }

    /// Full bootstrap validation: re-checks every link and consensus proof
    /// from genesis (what a freshly joined light client must do).
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn validate_all(&self, engine: &dyn ConsensusEngine) -> Result<(), ChainError> {
        for (prev, header) in self.headers.iter().zip(self.headers.iter().skip(1)) {
            check_extends(prev, header)?;
            engine.verify(header)?;
        }
        Ok(())
    }

    /// Chain height (genesis = 0).
    pub fn height(&self) -> u64 {
        self.headers.last().map_or(0, |tip| tip.height)
    }

    /// Number of stored headers.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Always `false`: the genesis header is always stored.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Actual bytes stored: the sum of serialized header sizes.
    pub fn storage_bytes(&self) -> usize {
        self.headers.iter().map(|h| h.encoded_len()).sum()
    }

    /// Ethereum-equivalent storage (508 B per header), the extrapolation
    /// the paper's Fig. 7a uses.
    pub fn ethereum_equivalent_bytes(&self) -> usize {
        self.headers.len() * ETHEREUM_HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_chain::ProofOfWork;
    use dcert_primitives::hash::{Address, Hash};

    fn genesis() -> BlockHeader {
        BlockHeader {
            height: 0,
            prev_hash: Hash::ZERO,
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: 0,
            miner: Address::default(),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        }
    }

    fn extend(engine: &ProofOfWork, parent: &BlockHeader, salt: u64) -> BlockHeader {
        let mut header = BlockHeader {
            height: parent.height + 1,
            prev_hash: parent.hash(),
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: salt,
            miner: Address::default(),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        };
        dcert_chain::ConsensusEngine::seal(engine, &mut header).unwrap();
        header
    }

    #[test]
    fn sync_and_bootstrap_a_chain() {
        let engine = ProofOfWork::new(4);
        let mut client = TraditionalLightClient::new(genesis()).unwrap();
        let mut parent = genesis();
        for i in 1..=20u64 {
            let header = extend(&engine, &parent, i);
            client.sync(header.clone(), &engine).unwrap();
            parent = header;
        }
        assert_eq!(client.height(), 20);
        assert_eq!(client.len(), 21);
        client.validate_all(&engine).unwrap();
    }

    #[test]
    fn storage_grows_linearly() {
        let engine = ProofOfWork::new(0);
        let mut client = TraditionalLightClient::new(genesis()).unwrap();
        let base = client.storage_bytes();
        let mut parent = genesis();
        for i in 1..=10u64 {
            let header = extend(&engine, &parent, i);
            client.sync(header.clone(), &engine).unwrap();
            parent = header;
        }
        assert!(client.storage_bytes() >= base + 10 * 100);
        assert_eq!(client.ethereum_equivalent_bytes(), 11 * 508);
    }

    #[test]
    fn rejects_broken_link() {
        let engine = ProofOfWork::new(0);
        let mut client = TraditionalLightClient::new(genesis()).unwrap();
        let mut orphan = extend(&engine, &genesis(), 1);
        orphan.prev_hash = Hash::ZERO;
        assert!(matches!(
            client.sync(orphan, &engine),
            Err(ChainError::BrokenLink { .. })
        ));
    }

    #[test]
    fn rejects_insufficient_work() {
        let weak = ProofOfWork::new(0);
        let strict = ProofOfWork::new(24);
        let mut client = TraditionalLightClient::new(genesis()).unwrap();
        let header = extend(&weak, &genesis(), 1);
        assert!(matches!(
            client.sync(header, &strict),
            Err(ChainError::BadConsensus(_))
        ));
    }

    #[test]
    fn rejects_non_genesis_start() {
        let engine = ProofOfWork::new(0);
        let header = extend(&engine, &genesis(), 1);
        assert!(TraditionalLightClient::new(header).is_err());
    }
}
