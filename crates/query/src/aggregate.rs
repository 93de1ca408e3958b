//! Verifiable window **aggregation** queries (the paper's §5.1 mentions
//! aggregation as a supported query class, citing authenticated
//! aggregation structures \[32\]): the [`two_level`](crate::two_level)
//! index over [`Summed`] balance trees.
//!
//! Every subtree of a lower tree carries a certified count/sum/min/max
//! annotation, so "SUM of account X's balance over blocks [t1, t2]" is
//! answered with an O(log n) proof — without shipping a single version.
//!
//! **Ingestion rule** (shared by the SP and the enclave verifier, so it
//! must be deterministic): only writes whose value is *exactly 8 bytes*
//! are ingested, interpreted as a big-endian `u64`. This matches how the
//! SmallBank contract stores balances; other writes are invisible to this
//! index.

use dcert_merkle::btree::Summed;
pub use dcert_merkle::Aggregate;
use dcert_primitives::hash::Hash;
use dcert_vm::StateKey;

use crate::error::QueryError;
use crate::two_level::{verify_window, IndexFlavor, QueryProof, TwoLevelIndex, TwoLevelVerifier};

/// The canonical numeric interpretation: exactly-8-byte values as
/// big-endian `u64`; anything else is not aggregatable.
pub fn numeric_value(bytes: &[u8]) -> Option<u64> {
    let arr: [u8; 8] = bytes.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

/// The SP-side two-level aggregate index.
pub type AggregateIndex = TwoLevelIndex<Summed>;
/// The trusted update verifier for [`AggregateIndex`].
pub type AggregateVerifier = TwoLevelVerifier<Summed>;
/// Proof returned with an aggregate query ([`AggregateIndex::query`]).
pub type AggQueryProof = QueryProof<Summed>;

impl IndexFlavor for Summed {
    type Output = Aggregate;

    fn ingest(write: &Option<Vec<u8>>) -> Option<u64> {
        write.as_deref().and_then(numeric_value)
    }

    fn present(aggregate: Aggregate) -> Aggregate {
        aggregate
    }
}

/// Client-side verification of a window aggregate against the certified
/// index digest.
///
/// # Errors
///
/// [`QueryError`] describing the first failed check.
pub fn verify_aggregate(
    digest: &Hash,
    key: &StateKey,
    t1: u64,
    t2: u64,
    claimed: &Aggregate,
    proof: &AggQueryProof,
) -> Result<(), QueryError> {
    let empty = *claimed == Aggregate::EMPTY;
    verify_window(digest, key, proof, empty, |agg, root| {
        agg.verify(root, t1, t2, claimed)
    })
}

/// Compatibility name `benchmark/driver` imports; leaves at ROADMAP item
/// 4(c).
pub use verify_aggregate as verify_aggregate_op;

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_chain::{Block, BlockHeader};
    use dcert_core::IndexVerifier;
    use dcert_primitives::codec::Encode;
    use dcert_primitives::hash::Address;

    fn key(label: &str) -> StateKey {
        StateKey::new("smallbank", label.as_bytes())
    }

    fn block_at(height: u64) -> Block {
        Block {
            header: BlockHeader {
                height,
                prev_hash: Hash::ZERO,
                state_root: Hash::ZERO,
                tx_root: Hash::ZERO,
                timestamp: height,
                miner: Address::default(),
                consensus: ConsensusProof::Pow {
                    difficulty_bits: 0,
                    nonce: 0,
                },
            },
            txs: Vec::new(),
        }
    }

    fn balance_writes(entries: &[(&str, u64)]) -> Vec<(StateKey, Option<Vec<u8>>)> {
        let mut out: Vec<(StateKey, Option<Vec<u8>>)> = entries
            .iter()
            .map(|(k, v)| (key(k), Some(v.to_be_bytes().to_vec())))
            .collect();
        out.sort_by_key(|(k, _)| *k.as_hash());
        out
    }

    #[test]
    fn numeric_rule_is_exactly_eight_bytes() {
        assert_eq!(numeric_value(&7u64.to_be_bytes()), Some(7));
        assert_eq!(numeric_value(b"1234567"), None);
        assert_eq!(numeric_value(b"123456789"), None);
        assert_eq!(numeric_value(b""), None);
    }

    #[test]
    fn digest_tracks_updates_and_verifier_agrees() {
        let mut index = AggregateIndex::with_order(4);
        let verifier = AggregateVerifier::with_order("agg", 4);
        let mut digest = index.digest();
        assert_eq!(digest, verifier.genesis_digest());
        for height in 1..=40u64 {
            let writes = balance_writes(&[("alice", 100 + height), ("bob", 50 * height)]);
            let (aux, new_digest) = index.apply_block(height, &writes);
            let recomputed = verifier
                .verify_update(&digest, &block_at(height), &writes, &aux)
                .unwrap_or_else(|e| panic!("height {height}: {e}"));
            assert_eq!(recomputed, new_digest, "height {height}");
            digest = new_digest;
        }
    }

    #[test]
    fn non_numeric_writes_are_skipped_consistently() {
        let mut index = AggregateIndex::with_order(4);
        let verifier = AggregateVerifier::with_order("agg", 4);
        let digest = index.digest();
        // A mix: one balance, one text value, one deletion.
        let mut writes = vec![
            (key("alice"), Some(42u64.to_be_bytes().to_vec())),
            (key("memo"), Some(b"not a number".to_vec())),
            (key("gone"), None),
        ];
        writes.sort_by_key(|(k, _)| *k.as_hash());
        let (aux, new_digest) = index.apply_block(1, &writes);
        assert_eq!(index.tracked_keys(), 1);
        let recomputed = verifier
            .verify_update(&digest, &block_at(1), &writes, &aux)
            .unwrap();
        assert_eq!(recomputed, new_digest);
    }

    #[test]
    fn window_aggregates_verify() {
        let mut index = AggregateIndex::with_order(4);
        for height in 1..=60u64 {
            index.apply_block(height, &balance_writes(&[("alice", height * 10)]));
        }
        let digest = index.digest();
        let (agg, proof) = index.query(&key("alice"), 11, 30);
        assert_eq!(agg.count, 20);
        assert_eq!(agg.sum, (11..=30).map(|h| h * 10).sum::<u64>() as u128);
        assert_eq!((agg.min, agg.max), (110, 300));
        verify_aggregate(&digest, &key("alice"), 11, 30, &agg, &proof).unwrap();
        // Proof is compact: no per-version data.
        assert!(proof.size_bytes() < 4096, "size = {}", proof.size_bytes());
    }

    #[test]
    fn untracked_key_verifies_empty() {
        let mut index = AggregateIndex::with_order(4);
        index.apply_block(1, &balance_writes(&[("alice", 1)]));
        let digest = index.digest();
        let (agg, proof) = index.query(&key("nobody"), 0, 100);
        assert_eq!(agg, Aggregate::EMPTY);
        verify_aggregate(&digest, &key("nobody"), 0, 100, &agg, &proof).unwrap();
    }

    #[test]
    fn inflated_sum_detected() {
        let mut index = AggregateIndex::with_order(4);
        for height in 1..=30u64 {
            index.apply_block(height, &balance_writes(&[("alice", height)]));
        }
        let digest = index.digest();
        let (mut agg, proof) = index.query(&key("alice"), 5, 25);
        agg.sum += 1_000_000;
        assert!(verify_aggregate(&digest, &key("alice"), 5, 25, &agg, &proof).is_err());
    }

    #[test]
    fn stale_digest_detected() {
        let mut index = AggregateIndex::with_order(4);
        index.apply_block(1, &balance_writes(&[("alice", 10)]));
        let stale = index.digest();
        index.apply_block(2, &balance_writes(&[("alice", 20)]));
        let (agg, proof) = index.query(&key("alice"), 0, 10);
        assert!(verify_aggregate(&stale, &key("alice"), 0, 10, &agg, &proof).is_err());
    }

    /// Degenerate, out-of-range and clamped windows, through the `_op`
    /// compatibility name of the same verifier.
    #[test]
    fn op_query_matches_per_path_aggregate_and_verifies() {
        let mut index = AggregateIndex::with_order(4);
        for height in 1..=60u64 {
            index.apply_block(height, &balance_writes(&[("alice", height * 10)]));
        }
        let digest = index.digest();
        for (t1, t2) in [(11, 30), (0, 0), (60, 60), (70, 90), (0, u64::MAX)] {
            let (agg, proof) = index.query(&key("alice"), t1, t2);
            let in_window = (t1.max(1)..=t2.min(60)).count() as u64;
            assert_eq!(agg.count, in_window, "[{t1},{t2}]");
            verify_aggregate_op(&digest, &key("alice"), t1, t2, &agg, &proof).unwrap();
            assert_eq!(proof.size_bytes(), proof.to_encoded_bytes().len());
        }
        // Forged sums are rejected, untracked keys verify empty.
        let (mut agg, proof) = index.query(&key("alice"), 11, 30);
        agg.sum += 1;
        assert!(verify_aggregate_op(&digest, &key("alice"), 11, 30, &agg, &proof).is_err());
        let (empty, absent) = index.query(&key("nobody"), 0, 100);
        assert_eq!(empty, Aggregate::EMPTY);
        verify_aggregate_op(&digest, &key("nobody"), 0, 100, &empty, &absent).unwrap();
    }

    #[test]
    fn verifier_rejects_forged_aux() {
        let mut index = AggregateIndex::with_order(4);
        let verifier = AggregateVerifier::with_order("agg", 4);
        let digest = index.digest();
        let writes = balance_writes(&[("alice", 7)]);
        let (mut aux, _) = index.apply_block(1, &writes);
        let last = aux.len() - 1;
        aux[last] ^= 0xff;
        assert!(verifier
            .verify_update(&digest, &block_at(1), &writes, &aux)
            .is_err());
    }
}
