//! A LineageChain-style two-level historical index (the Fig. 11 baseline).
//!
//! Same upper level as DCert's history index (the sparse Merkle tree over
//! state keys) but with an authenticated deterministic **skip list** as the
//! per-key version structure — the index family LineageChain builds into
//! the chain. Comparing it against `dcert_query::HistoryIndex` isolates
//! skip-list towers vs. Merkle B-tree, which is exactly the comparison the
//! paper's Fig. 11 makes.

use std::collections::HashMap;

use dcert_merkle::{SmtProof, SparseMerkleTree};
use dcert_primitives::codec::{Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, Hash};
use dcert_vm::StateKey;

use crate::skiplist::{AuthSkipList, SkipRangeProof};

/// One recorded version (`None` = deletion event), mirroring the DCert
/// index's encoding.
pub type Version = Option<Vec<u8>>;

fn encode_version(version: &Version) -> Vec<u8> {
    version.to_encoded_bytes()
}

/// The baseline two-level index.
#[derive(Debug, Clone, Default)]
pub struct LineageIndex {
    upper: SparseMerkleTree,
    lower: HashMap<Hash, AuthSkipList>,
}

impl LineageIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The index digest: the upper tree's root.
    pub fn digest(&self) -> Hash {
        self.upper.root()
    }

    /// Number of tracked keys.
    pub fn tracked_keys(&self) -> usize {
        self.lower.len()
    }

    /// Applies one block's write set at `height`.
    pub fn apply_block(&mut self, height: u64, writes: &[(StateKey, Option<Vec<u8>>)]) {
        for (key, value) in writes {
            let list = self.lower.entry(*key.as_hash()).or_default();
            list.append(height, encode_version(value));
            self.upper
                .insert(*key.as_hash(), list.head().as_bytes().to_vec());
        }
    }

    /// Answers "all versions of `key` in `[t1, t2]`" with a proof.
    pub fn query(&self, key: &StateKey, t1: u64, t2: u64) -> (Vec<(u64, Version)>, LineageProof) {
        let upper = self.upper.prove(&[*key.as_hash()]);
        match self.lower.get(key.as_hash()) {
            None => (
                Vec::new(),
                LineageProof {
                    upper,
                    head: None,
                    range: None,
                },
            ),
            Some(list) => {
                let (raw, range) = list.range(t1, t2);
                let results = raw
                    .into_iter()
                    .map(|(ts, bytes)| {
                        (
                            ts,
                            Version::decode_all(&bytes).expect("index stores canonical versions"),
                        )
                    })
                    .collect();
                (
                    results,
                    LineageProof {
                        upper,
                        head: Some(list.head()),
                        range: Some(range),
                    },
                )
            }
        }
    }
}

/// Proof returned with a baseline historical query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageProof {
    upper: SmtProof,
    head: Option<Hash>,
    range: Option<SkipRangeProof>,
}

impl LineageProof {
    /// Serialized proof size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl Encode for LineageProof {
    fn encode(&self, out: &mut Vec<u8>) {
        self.upper.encode(out);
        self.head.encode(out);
        self.range.encode(out);
    }
}

impl Decode for LineageProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(LineageProof {
            upper: SmtProof::decode(r)?,
            head: Option::<Hash>::decode(r)?,
            range: Option::<SkipRangeProof>::decode(r)?,
        })
    }
}

/// Errors from baseline query verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineageError {
    /// A Merkle/skip-list proof failed.
    Proof(dcert_merkle::ProofError),
    /// The proof shape or bindings are inconsistent.
    Mismatch(&'static str),
}

impl std::fmt::Display for LineageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineageError::Proof(e) => write!(f, "proof failed: {e}"),
            LineageError::Mismatch(what) => write!(f, "mismatch: {what}"),
        }
    }
}

impl std::error::Error for LineageError {}

impl From<dcert_merkle::ProofError> for LineageError {
    fn from(e: dcert_merkle::ProofError) -> Self {
        LineageError::Proof(e)
    }
}

/// Client-side verification of a baseline historical query.
///
/// # Errors
///
/// [`LineageError`] describing the first failed check.
pub fn verify_lineage(
    digest: &Hash,
    key: &StateKey,
    t1: u64,
    t2: u64,
    results: &[(u64, Version)],
    proof: &LineageProof,
) -> Result<(), LineageError> {
    let proven = proof.upper.verify(digest)?.pre_value_hash(key.as_hash())?;
    match (&proof.head, &proof.range) {
        (None, None) => {
            if proven.is_some() {
                return Err(LineageError::Mismatch("tracked key without version list"));
            }
            if !results.is_empty() {
                return Err(LineageError::Mismatch("results for an untracked key"));
            }
            Ok(())
        }
        (Some(head), Some(range)) => {
            if proven != Some(hash_bytes(head.as_bytes())) {
                return Err(LineageError::Mismatch("stale list head"));
            }
            let raw: Vec<(u64, Vec<u8>)> = results
                .iter()
                .map(|(ts, version)| (*ts, encode_version(version)))
                .collect();
            range.verify(head, t1, t2, &raw)?;
            Ok(())
        }
        _ => Err(LineageError::Mismatch("inconsistent proof shape")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(label: &str) -> StateKey {
        StateKey::new("kvstore", label.as_bytes())
    }

    fn writes(entries: &[(&str, Option<&str>)]) -> Vec<(StateKey, Option<Vec<u8>>)> {
        entries
            .iter()
            .map(|(k, v)| (key(k), v.map(|s| s.as_bytes().to_vec())))
            .collect()
    }

    #[test]
    fn query_and_verify_round_trip() {
        let mut index = LineageIndex::new();
        for height in 1..=60u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        let (results, proof) = index.query(&key("acct"), 20, 30);
        assert_eq!(results.len(), 11);
        verify_lineage(&digest, &key("acct"), 20, 30, &results, &proof).unwrap();
    }

    #[test]
    fn untracked_key_verifies_as_absent() {
        let mut index = LineageIndex::new();
        index.apply_block(1, &writes(&[("known", Some("v"))]));
        let digest = index.digest();
        let (results, proof) = index.query(&key("unknown"), 0, 10);
        assert!(results.is_empty());
        verify_lineage(&digest, &key("unknown"), 0, 10, &results, &proof).unwrap();
    }

    #[test]
    fn omission_detected() {
        let mut index = LineageIndex::new();
        for height in 1..=30u64 {
            index.apply_block(height, &writes(&[("acct", Some(&format!("v{height}")))]));
        }
        let digest = index.digest();
        let (mut results, proof) = index.query(&key("acct"), 5, 15);
        results.remove(3);
        assert!(verify_lineage(&digest, &key("acct"), 5, 15, &results, &proof).is_err());
    }

    #[test]
    fn stale_digest_detected() {
        let mut index = LineageIndex::new();
        index.apply_block(1, &writes(&[("acct", Some("v1"))]));
        let stale = index.digest();
        index.apply_block(2, &writes(&[("acct", Some("v2"))]));
        let (results, proof) = index.query(&key("acct"), 0, 10);
        assert!(verify_lineage(&stale, &key("acct"), 0, 10, &results, &proof).is_err());
    }

    #[test]
    fn digest_changes_per_block() {
        let mut index = LineageIndex::new();
        let d0 = index.digest();
        index.apply_block(1, &writes(&[("a", Some("v"))]));
        let d1 = index.digest();
        index.apply_block(2, &writes(&[("a", Some("w"))]));
        let d2 = index.digest();
        assert_ne!(d0, d1);
        assert_ne!(d1, d2);
    }
}
