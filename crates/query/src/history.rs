//! The two-level historical query index (Fig. 5, lower-left): the
//! [`two_level`](crate::two_level) index over [`Plain`] version trees.
//!
//! Each key's lower tree maps *timestamp* (block height) to the value
//! written at that height (`None` encodes a deletion event); every write
//! is ingested. A query returns all versions of a key in `[t1, t2]`.
//!
//! - the SP maintains [`HistoryIndex`] and serves
//!   [`HistoryIndex::query`] with completeness proofs;
//! - the enclave runs [`HistoryVerifier`] (an
//!   [`dcert_core::IndexVerifier`]) to recompute the digest
//!   after each block from chained stateless proofs;
//! - clients call [`verify_history`] against the certified digest.

use dcert_merkle::btree::Plain;
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::Hash;
use dcert_vm::StateKey;

use crate::error::QueryError;
use crate::two_level::{verify_window, IndexFlavor, QueryProof, TwoLevelIndex, TwoLevelVerifier};

/// One recorded version: the value written at a height (`None` = deleted).
pub type Version = Option<Vec<u8>>;

/// The SP-side two-level historical index.
pub type HistoryIndex = TwoLevelIndex<Plain>;
/// The trusted update verifier for [`HistoryIndex`], registered in the
/// enclave's certificate program.
pub type HistoryVerifier = TwoLevelVerifier<Plain>;
/// Proof returned with a historical query ([`HistoryIndex::query`]).
pub type HistoryProof = QueryProof<Plain>;

impl IndexFlavor for Plain {
    type Output = Vec<(u64, Version)>;

    /// Every write is a version, stored in its canonical encoding.
    fn ingest(write: &Version) -> Option<Vec<u8>> {
        Some(write.to_encoded_bytes())
    }

    // expect() here decodes the SP's own canonical index entries (see the
    // dcert-lint rationale at the call site).
    #[allow(clippy::expect_used)]
    fn present(rows: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Version)> {
        rows.into_iter()
            .map(|(ts, bytes)| {
                // dcert-lint: allow(r2-panic-freedom, r5-panic-reachability, reason = "SP-side serving path decoding its own canonically-encoded index entries; the client verifier re-checks everything")
                let version = Version::decode_all(&bytes).expect("index stores canonical versions");
                (ts, version)
            })
            .collect()
    }
}

/// The rows a client claims, in the encoding the version tree commits to.
fn stored_rows(results: &[(u64, Version)]) -> Vec<(u64, Vec<u8>)> {
    results
        .iter()
        .map(|(ts, version)| (*ts, version.to_encoded_bytes()))
        .collect()
}

/// Client-side verification of a historical query result against the
/// certified index digest.
///
/// # Errors
///
/// [`QueryError`] describing the first failed check.
pub fn verify_history(
    digest: &Hash,
    key: &StateKey,
    t1: u64,
    t2: u64,
    results: &[(u64, Version)],
    proof: &HistoryProof,
) -> Result<(), QueryError> {
    verify_window(digest, key, proof, results.is_empty(), |range, root| {
        range.verify(root, t1, t2, &stored_rows(results))
    })
}

/// Compatibility name `benchmark/driver` imports; leaves at ROADMAP item
/// 4(c).
pub use verify_history as verify_history_op;

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_chain::{Block, BlockHeader};
    use dcert_core::{CertError, IndexVerifier};
    use dcert_primitives::hash::Address;

    fn key(label: &str) -> StateKey {
        StateKey::new("kvstore", label.as_bytes())
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

    fn writes(entries: &[(&str, Option<&str>)]) -> Vec<(StateKey, Option<Vec<u8>>)> {
        let mut out: Vec<(StateKey, Option<Vec<u8>>)> = entries
            .iter()
            .map(|(k, v)| (key(k), v.map(|s| s.as_bytes().to_vec())))
            .collect();
        out.sort_by_key(|(k, _)| *k.as_hash());
        out
    }

    #[test]
    fn digest_tracks_updates_and_verifier_agrees() {
        let mut index = HistoryIndex::with_order("history", 4);
        let verifier = HistoryVerifier::with_order("history", 4);
        let mut digest = index.digest();
        assert_eq!(digest, verifier.genesis_digest());

        for height in 1..=30u64 {
            let ws = writes(&[
                ("a", Some("v-a")),
                ("b", if height % 3 == 0 { None } else { Some("v-b") }),
            ]);
            let (aux, new_digest) = index.apply_block(height, &ws);
            let recomputed = verifier
                .verify_update(&digest, &block_at(height), &ws, &aux)
                .unwrap_or_else(|e| panic!("height {height}: {e}"));
            assert_eq!(recomputed, new_digest, "height {height}");
            digest = new_digest;
        }
    }

    #[test]
    fn verifier_rejects_tampered_aux() {
        let mut index = HistoryIndex::with_order("history", 4);
        let verifier = HistoryVerifier::with_order("history", 4);
        let digest = index.digest();
        let ws = writes(&[("a", Some("v"))]);
        let (aux, _) = index.apply_block(1, &ws);
        let mut tampered = aux.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0xff;
        assert!(verifier
            .verify_update(&digest, &block_at(1), &ws, &tampered)
            .is_err());
    }

    #[test]
    fn verifier_rejects_wrong_write_count() {
        let mut index = HistoryIndex::with_order("history", 4);
        let verifier = HistoryVerifier::with_order("history", 4);
        let digest = index.digest();
        let ws = writes(&[("a", Some("v"))]);
        let (aux, _) = index.apply_block(1, &ws);
        let extra = writes(&[("a", Some("v")), ("b", Some("w"))]);
        assert!(matches!(
            verifier.verify_update(&digest, &block_at(1), &extra, &aux),
            Err(CertError::BadIndexUpdate(_))
        ));
    }

    #[test]
    fn query_returns_versions_in_window_with_valid_proof() {
        let mut index = HistoryIndex::with_order("history", 4);
        for height in 1..=50u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        let (results, proof) = index.query(&key("acct"), 10, 20);
        assert_eq!(results.len(), 11);
        assert_eq!(results[0], (10, Some(b"v10".to_vec())));
        verify_history(&digest, &key("acct"), 10, 20, &results, &proof).unwrap();
    }

    #[test]
    fn untracked_key_yields_verified_absence() {
        let mut index = HistoryIndex::with_order("history", 4);
        index.apply_block(1, &writes(&[("known", Some("v"))]));
        let digest = index.digest();
        let (results, proof) = index.query(&key("unknown"), 0, 100);
        assert!(results.is_empty());
        verify_history(&digest, &key("unknown"), 0, 100, &results, &proof).unwrap();
    }

    #[test]
    fn omitted_version_is_detected() {
        let mut index = HistoryIndex::with_order("history", 4);
        for height in 1..=20u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        let (mut results, proof) = index.query(&key("acct"), 5, 15);
        results.remove(4);
        assert!(verify_history(&digest, &key("acct"), 5, 15, &results, &proof).is_err());
    }

    #[test]
    fn tampered_version_value_is_detected() {
        let mut index = HistoryIndex::with_order("history", 4);
        for height in 1..=20u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        let (mut results, proof) = index.query(&key("acct"), 5, 15);
        results[0].1 = Some(b"forged".to_vec());
        assert!(verify_history(&digest, &key("acct"), 5, 15, &results, &proof).is_err());
    }

    #[test]
    fn proof_from_stale_digest_fails() {
        let mut index = HistoryIndex::with_order("history", 4);
        index.apply_block(1, &writes(&[("acct", Some("v1"))]));
        let stale_digest = index.digest();
        index.apply_block(2, &writes(&[("acct", Some("v2"))]));
        let (results, proof) = index.query(&key("acct"), 0, 10);
        assert!(verify_history(&stale_digest, &key("acct"), 0, 10, &results, &proof).is_err());
    }

    /// Degenerate, out-of-range and clamped windows, through the `_op`
    /// compatibility name of the same verifier.
    #[test]
    fn op_query_matches_per_path_results_and_verifies() {
        let mut index = HistoryIndex::with_order("history", 4);
        for height in 1..=50u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        for (t1, t2) in [(10, 20), (0, 0), (50, 50), (60, 90), (0, u64::MAX)] {
            let (results, proof) = index.query(&key("acct"), t1, t2);
            let heights: Vec<u64> = results.iter().map(|(ts, _)| *ts).collect();
            let expected: Vec<u64> = (t1.max(1)..=t2.min(50)).collect();
            assert_eq!(heights, expected, "[{t1},{t2}]");
            verify_history_op(&digest, &key("acct"), t1, t2, &results, &proof).unwrap();
            assert_eq!(proof.size_bytes(), proof.to_encoded_bytes().len());
        }
    }

    #[test]
    fn op_query_detects_omission_and_untracked_keys() {
        let mut index = HistoryIndex::with_order("history", 4);
        for height in 1..=20u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        let (mut results, proof) = index.query(&key("acct"), 5, 15);
        results.remove(4);
        assert!(verify_history_op(&digest, &key("acct"), 5, 15, &results, &proof).is_err());

        let (absent, absent_proof) = index.query(&key("unknown"), 0, 100);
        assert!(absent.is_empty());
        verify_history_op(&digest, &key("unknown"), 0, 100, &absent, &absent_proof).unwrap();
    }

    #[test]
    fn deletions_are_recorded_as_versions() {
        let mut index = HistoryIndex::with_order("history", 4);
        index.apply_block(1, &writes(&[("acct", Some("v1"))]));
        index.apply_block(2, &writes(&[("acct", None)]));
        let digest = index.digest();
        let (results, proof) = index.query(&key("acct"), 1, 2);
        assert_eq!(results, vec![(1, Some(b"v1".to_vec())), (2, None)]);
        verify_history(&digest, &key("acct"), 1, 2, &results, &proof).unwrap();
    }
}
