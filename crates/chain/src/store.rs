//! Fork-aware block store with longest-chain selection.

use std::collections::HashMap;

use dcert_primitives::hash::Hash;

use crate::block::BlockHeader;
use crate::error::ChainError;
use crate::validity::check_height;

/// Stores headers of all observed branches and tracks the canonical tip by
/// the longest-chain rule (height, ties broken by smaller digest for
/// determinism).
///
/// This is the header-level view that both the traditional light client
/// baseline and fork/chain-selection tests build on; full block bodies live
/// with [`FullNode`](crate::FullNode).
#[derive(Debug, Clone)]
pub struct ChainStore {
    headers: HashMap<Hash, BlockHeader>,
    genesis: Hash,
    best: Hash,
}

impl ChainStore {
    /// Creates a store rooted at `genesis`.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::BadGenesis`] if the header is not a genesis
    /// header (height 0, zero `prev_hash`).
    pub fn new(genesis: BlockHeader) -> Result<Self, ChainError> {
        if genesis.height != 0 {
            return Err(ChainError::BadGenesis("height must be 0"));
        }
        if !genesis.prev_hash.is_zero() {
            return Err(ChainError::BadGenesis("prev hash must be zero"));
        }
        let digest = genesis.hash();
        let mut headers = HashMap::new();
        headers.insert(digest, genesis);
        Ok(ChainStore {
            headers,
            genesis: digest,
            best: digest,
        })
    }

    /// The genesis digest.
    pub fn genesis_hash(&self) -> Hash {
        self.genesis
    }

    /// The canonical tip header.
    pub fn best_header(&self) -> &BlockHeader {
        &self.headers[&self.best]
    }

    /// The canonical tip digest.
    pub fn best_hash(&self) -> Hash {
        self.best
    }

    /// Number of stored headers (all branches).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Returns `true` if only genesis is stored... never: genesis is always
    /// present, so this is always `false`; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks up a header by digest.
    pub fn header(&self, hash: &Hash) -> Option<&BlockHeader> {
        self.headers.get(hash)
    }

    /// Inserts a header whose parent is already stored, updating the
    /// canonical tip per the longest-chain rule.
    ///
    /// Only *structural* checks happen here (linkage, height); consensus
    /// and state validation belong to the full node.
    ///
    /// # Errors
    ///
    /// - [`ChainError::UnknownParent`] if the parent is absent,
    /// - [`ChainError::Duplicate`] if the header is already stored,
    /// - [`ChainError::BadHeight`] if `height != parent.height + 1`.
    pub fn insert(&mut self, header: BlockHeader) -> Result<Hash, ChainError> {
        let digest = header.hash();
        if self.headers.contains_key(&digest) {
            return Err(ChainError::Duplicate(digest));
        }
        let parent = self
            .headers
            .get(&header.prev_hash)
            .ok_or(ChainError::UnknownParent(header.prev_hash))?;
        // The link holds by construction (the parent was looked up by it).
        check_height(parent, &header)?;
        let candidate = (header.height, digest);
        let best = self.best_header();
        let current = (best.height, self.best);
        self.headers.insert(digest, header);
        if candidate.0 > current.0 || (candidate.0 == current.0 && candidate.1 < current.1) {
            self.best = digest;
        }
        Ok(digest)
    }

    /// Walks the canonical chain from the tip back to genesis, returning
    /// digests tip-first.
    pub fn canonical_chain(&self) -> Vec<Hash> {
        let mut out = Vec::new();
        let mut cursor = self.best;
        loop {
            out.push(cursor);
            let header = &self.headers[&cursor];
            if header.height == 0 {
                break;
            }
            cursor = header.prev_hash;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::ConsensusProof;
    use dcert_primitives::hash::Address;

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

    fn child(parent: &BlockHeader, salt: u64) -> BlockHeader {
        BlockHeader {
            height: parent.height + 1,
            prev_hash: parent.hash(),
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: salt,
            miner: Address::default(),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: salt,
            },
        }
    }

    #[test]
    fn rejects_bad_genesis() {
        let mut g = genesis();
        g.height = 1;
        assert!(matches!(ChainStore::new(g), Err(ChainError::BadGenesis(_))));
    }

    #[test]
    fn linear_growth_updates_tip() {
        let g = genesis();
        let mut store = ChainStore::new(g.clone()).unwrap();
        let b1 = child(&g, 1);
        let b2 = child(&b1, 2);
        store.insert(b1.clone()).unwrap();
        store.insert(b2.clone()).unwrap();
        assert_eq!(store.best_hash(), b2.hash());
        assert_eq!(store.best_header().height, 2);
        assert_eq!(store.canonical_chain().len(), 3);
    }

    #[test]
    fn longest_chain_wins_fork() {
        let g = genesis();
        let mut store = ChainStore::new(g.clone()).unwrap();
        // Branch A: one block. Branch B: two blocks.
        let a1 = child(&g, 10);
        let b1 = child(&g, 20);
        let b2 = child(&b1, 21);
        store.insert(a1.clone()).unwrap();
        assert_eq!(store.best_hash(), a1.hash());
        store.insert(b1.clone()).unwrap();
        // Same height: deterministic tie-break, tip is one of the two.
        let tip_at_1 = store.best_hash();
        assert!(tip_at_1 == a1.hash() || tip_at_1 == b1.hash());
        store.insert(b2.clone()).unwrap();
        assert_eq!(store.best_hash(), b2.hash(), "longer branch must win");
    }

    #[test]
    fn equal_height_tie_break_is_deterministic() {
        let g = genesis();
        let a1 = child(&g, 10);
        let b1 = child(&g, 20);
        let mut store1 = ChainStore::new(g.clone()).unwrap();
        store1.insert(a1.clone()).unwrap();
        store1.insert(b1.clone()).unwrap();
        let mut store2 = ChainStore::new(g).unwrap();
        store2.insert(b1).unwrap();
        store2.insert(a1).unwrap();
        assert_eq!(store1.best_hash(), store2.best_hash());
    }

    #[test]
    fn rejects_orphans_duplicates_and_bad_heights() {
        let g = genesis();
        let mut store = ChainStore::new(g.clone()).unwrap();
        let b1 = child(&g, 1);
        let orphan = child(&b1, 2); // parent not yet inserted
        assert!(matches!(
            store.insert(orphan.clone()),
            Err(ChainError::UnknownParent(_))
        ));
        store.insert(b1.clone()).unwrap();
        assert!(matches!(
            store.insert(b1.clone()),
            Err(ChainError::Duplicate(_))
        ));
        let mut skip = child(&b1, 3);
        skip.height = 5;
        assert!(matches!(
            store.insert(skip),
            Err(ChainError::BadHeight {
                parent: 1,
                child: 5
            })
        ));
    }
}
