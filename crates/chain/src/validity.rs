//! The block-validity rule, spelled once: [`crate::FullNode::apply`], the
//! trusted certificate program's `blk_verify_t` and the CI's link builder
//! call these functions — in Algorithm 2's line order, [`check_extends`]
//! (line 14) then [`check_body`] (lines 15, 16, 19) — so the enclave
//! accepts exactly what a full node accepts. `check_body` is
//! [`check_header`] then [`check_signatures`]: the enclave runs the pair
//! as one call, the host full node runs the second over contiguous chunks
//! of the body on several cores (`node.rs`). Inputs may be host-supplied:
//! nothing here may panic, and nothing here starts a thread.

use dcert_primitives::hash::{hash_bytes, Hash};
use dcert_vm::StateKey;

use crate::block::{Block, BlockHeader};
use crate::consensus::ConsensusEngine;
use crate::error::ChainError;
use crate::tx::Transaction;

/// `header` sits exactly one height above `prev` (nothing sits above
/// `u64::MAX`), or [`ChainError::BadHeight`].
pub fn check_height(prev: &BlockHeader, header: &BlockHeader) -> Result<(), ChainError> {
    if prev.height.checked_add(1) != Some(header.height) {
        return Err(ChainError::BadHeight {
            parent: prev.height,
            child: header.height,
        });
    }
    Ok(())
}

/// `header` commits to `prev`'s digest, or [`ChainError::BrokenLink`];
/// then [`check_height`].
pub fn check_extends(prev: &BlockHeader, header: &BlockHeader) -> Result<(), ChainError> {
    let actual = prev.hash();
    if header.prev_hash != actual {
        return Err(ChainError::BrokenLink {
            claimed: header.prev_hash,
            actual,
        });
    }
    check_height(prev, header)
}

/// What can be checked of `block` without its pre-state, first failure
/// first: [`check_header`], then [`check_signatures`].
pub fn check_body(engine: &dyn ConsensusEngine, block: &Block) -> Result<(), ChainError> {
    check_header(engine, block)?;
    check_signatures(&block.txs)
}

/// The consensus proof, then the header's commitment to the transactions.
pub fn check_header(engine: &dyn ConsensusEngine, block: &Block) -> Result<(), ChainError> {
    engine.verify(&block.header)?;
    block.verify_tx_root()
}

/// Every transaction's sender binding and signature, in order, stopping at
/// the first failure.
pub fn check_signatures(txs: &[Transaction]) -> Result<(), ChainError> {
    txs.iter().try_for_each(Transaction::verify)
}

/// A write set (`None` = deletion) as the `(path, value-hash)` pairs a
/// verified state proof's `updated_root` consumes.
pub fn hash_writes<'a>(
    writes: impl IntoIterator<Item = (&'a StateKey, &'a Option<Vec<u8>>)>,
) -> Vec<(Hash, Option<Hash>)> {
    writes
        .into_iter()
        .map(|(key, value)| (*key.as_hash(), value.as_ref().map(hash_bytes)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{ConsensusProof, ProofOfWork};
    use dcert_primitives::hash::Address;
    use dcert_primitives::keys::Keypair;

    fn header(height: u64, prev_hash: Hash) -> BlockHeader {
        BlockHeader {
            height,
            prev_hash,
            state_root: Hash::ZERO,
            tx_root: Hash::ZERO,
            timestamp: height,
            miner: Address::default(),
            consensus: ConsensusProof::Pow {
                difficulty_bits: 0,
                nonce: 0,
            },
        }
    }

    #[test]
    fn link_is_checked_before_height() {
        let prev = header(4, Hash::ZERO);
        assert_eq!(check_extends(&prev, &header(5, prev.hash())), Ok(()));
        assert_eq!(
            check_extends(&prev, &header(9, prev.hash())),
            Err(ChainError::BadHeight {
                parent: 4,
                child: 9
            })
        );
        // Both wrong: the link is what gets reported.
        assert!(matches!(
            check_extends(&prev, &header(9, Hash::ZERO)),
            Err(ChainError::BrokenLink { .. })
        ));
    }

    #[test]
    fn the_last_height_has_no_child() {
        let prev = header(u64::MAX, Hash::ZERO);
        for child in [0, 1, u64::MAX] {
            assert_eq!(
                check_extends(&prev, &header(child, prev.hash())),
                Err(ChainError::BadHeight {
                    parent: u64::MAX,
                    child
                })
            );
        }
    }

    #[test]
    fn body_checks_run_in_algorithm_2_order() {
        let engine = ProofOfWork::new(2);
        let tx = Transaction::sign(&Keypair::from_seed([1; 32]), 0, "counter", b"bump".to_vec());
        let mut block = Block {
            header: header(1, Hash::ZERO),
            txs: vec![tx],
        };
        block.header.tx_root = Block::tx_root(&block.txs);
        engine.seal(&mut block.header).unwrap();
        assert_eq!(check_body(&engine, &block), Ok(()));

        // A forged signature under an honest root and seal.
        let mut forged = block.clone();
        forged.txs[0].nonce = 99;
        forged.header.tx_root = Block::tx_root(&forged.txs);
        engine.seal(&mut forged.header).unwrap();
        assert_eq!(
            check_body(&engine, &forged),
            Err(ChainError::BadTxSignature)
        );

        // The same body under the old root: the root trips first.
        forged.header.tx_root = block.header.tx_root;
        engine.seal(&mut forged.header).unwrap();
        assert_eq!(
            check_body(&engine, &forged),
            Err(ChainError::TxRootMismatch)
        );

        // And with a weaker difficulty claim as well, consensus trips
        // before either.
        forged.header.consensus = ConsensusProof::Pow {
            difficulty_bits: 0,
            nonce: 0,
        };
        assert!(matches!(
            check_body(&engine, &forged),
            Err(ChainError::BadConsensus(_))
        ));
    }

    #[test]
    fn hash_writes_hashes_values_and_keeps_deletions() {
        let put = (StateKey::new("kv", b"a"), Some(b"v".to_vec()));
        let del = (StateKey::new("kv", b"b"), None);
        let hashed = hash_writes([&put, &del].map(|(k, v)| (k, v)));
        assert_eq!(
            hashed,
            vec![
                (*put.0.as_hash(), Some(hash_bytes(b"v"))),
                (*del.0.as_hash(), None)
            ]
        );
    }
}
