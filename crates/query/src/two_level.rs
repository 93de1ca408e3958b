//! The two-level certified index (Fig. 5, lower-left), generic over the
//! flavor of its lower trees.
//!
//! Upper level: a [`SparseMerkleTree`] — the one keyed tree, the same that
//! commits to the global state — mapping each state key (the 32-byte path
//! of an account/field) to the root of that key's lower tree. Lower level:
//! one [`BTree`] per key, mapping *timestamp* (block height) to what the
//! key was written to at that height. The digest the enclave certifies is
//! the upper tree's root.
//!
//! [`history`](crate::history) and [`aggregate`](crate::aggregate)
//! instantiate this module with the [`Plain`](dcert_merkle::btree::Plain)
//! and [`Summed`](dcert_merkle::btree::Summed) flavors. Three roles share
//! it:
//!
//! - the SP maintains a [`TwoLevelIndex`] and serves window queries with
//!   completeness proofs ([`TwoLevelIndex::query`], the only query);
//! - the enclave runs a [`TwoLevelVerifier`] (an
//!   [`dcert_core::IndexVerifier`]) to recompute the digest after each
//!   block from one stateless multiproof over the block's keys, the way
//!   it recomputes the state root;
//! - clients check an answer against the certified digest with the
//!   instantiation's `verify_*` function, each a thin call into the one
//!   checker here. A [`QueryProof`] is a single-key upper-tree proof plus
//!   the lower tree's window proof, which is a program
//!   ([`dcert_merkle::ops`]).

use std::collections::HashMap;
use std::marker::PhantomData;

use dcert_chain::Block;
use dcert_core::{CertError, IndexVerifier};
use dcert_merkle::btree::{AppendProof, BTree, Flavor};
use dcert_merkle::ops::OpProof;
use dcert_merkle::{ProofError, SmtProof, SparseMerkleTree};
use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, Hash};
use dcert_vm::StateKey;

use crate::error::QueryError;

/// A lower-tree flavor together with how a two-level index uses it.
pub trait IndexFlavor: Flavor {
    /// What a query returns to the client.
    type Output: Default;

    /// The **ingestion rule**, shared by the SP and the enclave verifier
    /// (so it must be deterministic): what a block's write to a key
    /// records in that key's lower tree, or `None` if this index ignores
    /// the write.
    fn ingest(write: &Option<Vec<u8>>) -> Option<Self::Value>;

    /// Presents a lower tree's window answer as the query output.
    fn present(answer: Self::Answer) -> Self::Output;
}

/// The SP-side two-level index.
#[derive(Debug, Clone)]
pub struct TwoLevelIndex<F: IndexFlavor> {
    name: String,
    upper: SparseMerkleTree,
    lower: HashMap<Hash, BTree<F>>,
    order: usize,
}

impl<F: IndexFlavor> TwoLevelIndex<F> {
    /// Creates an index registered under `name` with the default B-tree
    /// fanout.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_order(name, BTree::<F>::DEFAULT_ORDER)
    }

    /// Creates an index with an explicit B-tree fanout.
    pub fn with_order(name: impl Into<String>, order: usize) -> Self {
        TwoLevelIndex {
            name: name.into(),
            upper: SparseMerkleTree::new(),
            lower: HashMap::new(),
            order,
        }
    }

    /// The registered index-type name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The certified digest `H_idx`: the upper tree's root.
    pub fn digest(&self) -> Hash {
        self.upper.root()
    }

    /// Number of tracked keys.
    pub fn tracked_keys(&self) -> usize {
        self.lower.len()
    }

    /// Applies one block's write set at `height`, returning the
    /// enclave-verifiable update proof (`aux`) and the new digest.
    ///
    /// Writes must be presented in the canonical (sorted-by-key) order the
    /// certificate program authenticates.
    pub fn apply_block(
        &mut self,
        height: u64,
        writes: &[(StateKey, Option<Vec<u8>>)],
    ) -> (Vec<u8>, Hash) {
        let ingested: Vec<(Hash, F::Value)> = writes
            .iter()
            .filter_map(|(key, write)| Some((*key.as_hash(), F::ingest(write)?)))
            .collect();
        // One proof of every touched key against the digest the block finds.
        let keys: Vec<Hash> = ingested.iter().map(|(key, _)| *key).collect();
        let upper = self.upper.prove(&keys);
        let mut updates = Vec::with_capacity(ingested.len());
        let mut roots = Vec::with_capacity(ingested.len());
        for (key, value) in ingested {
            let tree = self
                .lower
                .entry(key)
                .or_insert_with(|| BTree::new(self.order));
            updates.push(KeyUpdate::<F> {
                // Empty only if just created: the key's first appearance.
                prev_root: (!tree.is_empty()).then(|| tree.root()),
                append: tree.prove_append(),
            });
            tree.insert(height, value);
            roots.push((key, Some(tree.root().as_bytes().to_vec())));
        }
        self.upper.commit(roots);
        let mut aux = Vec::new();
        encode_seq(&updates, &mut aux);
        upper.encode(&mut aux);
        (aux, self.digest())
    }

    /// Answers "`key` over `[t1, t2]`" with a completeness proof.
    pub fn query(&self, key: &StateKey, t1: u64, t2: u64) -> (F::Output, QueryProof<F>) {
        let upper = self.upper.prove(&[*key.as_hash()]);
        match self.lower.get(key.as_hash()) {
            None => (
                F::Output::default(),
                QueryProof {
                    upper,
                    lower_root: None,
                    lower: None,
                },
            ),
            Some(tree) => {
                let (answer, lower) = tree.window(t1, t2);
                (
                    F::present(answer),
                    QueryProof {
                        upper,
                        lower_root: Some(tree.root()),
                        lower: Some(lower),
                    },
                )
            }
        }
    }
}

/// One key's update inside the aux payload: one per ingested write, in
/// write-set order, followed by one upper-tree multiproof over those keys
/// against the previous digest.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeyUpdate<F: Flavor> {
    /// The key's lower-tree root before this block (`None` = new key).
    prev_root: Option<Hash>,
    /// Rightmost-path proof of the lower tree (ignored for new keys).
    append: AppendProof<F>,
}

impl<F: Flavor> Encode for KeyUpdate<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prev_root.encode(out);
        self.append.encode(out);
    }
}

impl<F: Flavor> Decode for KeyUpdate<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(KeyUpdate {
            prev_root: Option::decode(r)?,
            append: AppendProof::decode(r)?,
        })
    }
}

/// The trusted update verifier for a [`TwoLevelIndex`], registered in the
/// enclave's certificate program.
#[derive(Debug, Clone)]
pub struct TwoLevelVerifier<F: IndexFlavor> {
    name: String,
    order: usize,
    flavor: PhantomData<fn() -> F>,
}

impl<F: IndexFlavor> TwoLevelVerifier<F> {
    /// Creates the verifier matching [`TwoLevelIndex::new`] under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_order(name, BTree::<F>::DEFAULT_ORDER)
    }

    /// Creates the verifier with an explicit fanout (must match the SP's).
    pub fn with_order(name: impl Into<String>, order: usize) -> Self {
        TwoLevelVerifier {
            name: name.into(),
            order,
            flavor: PhantomData,
        }
    }
}

impl<F: IndexFlavor> IndexVerifier for TwoLevelVerifier<F> {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn genesis_digest(&self) -> Hash {
        // An empty tree.
        Hash::ZERO
    }

    fn verify_update(
        &self,
        prev_digest: &Hash,
        block: &Block,
        writes: &[(StateKey, Option<Vec<u8>>)],
        aux: &[u8],
    ) -> Result<Hash, CertError> {
        let mut reader = Reader::new(aux);
        let undecodable = |_| CertError::BadIndexUpdate("aux decode");
        let updates: Vec<KeyUpdate<F>> = decode_seq(&mut reader).map_err(undecodable)?;
        let upper = SmtProof::decode(&mut reader).map_err(undecodable)?;
        if reader.remaining() != 0 {
            return Err(CertError::BadIndexUpdate("trailing aux bytes"));
        }
        // The enclave derives the ingested subset itself from the
        // authenticated write set.
        let entries: Vec<(&StateKey, F::Value)> = writes
            .iter()
            .filter_map(|(key, write)| F::ingest(write).map(|value| (key, value)))
            .collect();
        if updates.len() != entries.len() {
            return Err(CertError::BadIndexUpdate("update count mismatch"));
        }
        let height = block.header.height;
        // Every key's current lower-tree root (or its absence) under the
        // previous digest, authenticated once.
        let upper = upper.verify(prev_digest)?;
        let mut new_roots = Vec::with_capacity(entries.len());
        for ((key, value), update) in entries.iter().zip(&updates) {
            let digest = F::digest(value);
            let claimed = update.prev_root.as_ref().map(|r| hash_bytes(r.as_bytes()));
            if upper.pre_value_hash(key.as_hash())? != claimed {
                return Err(CertError::BadIndexUpdate("stale lower-tree root"));
            }
            // Compute the new lower-tree root statelessly.
            let new_root = match update.prev_root {
                None => BTree::<F>::singleton_root(height, &digest),
                Some(prev) => update
                    .append
                    .appended_root(&prev, self.order, height, &digest)?,
            };
            new_roots.push((*key.as_hash(), Some(hash_bytes(new_root.as_bytes()))));
        }
        Ok(upper.updated_root(&new_roots)?)
    }
}

/// Proof returned with a two-level index query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryProof<F: Flavor> {
    /// Upper-tree (non-)membership proof for the queried key.
    upper: SmtProof,
    /// The key's lower-tree root (absent if the key is untracked).
    lower_root: Option<Hash>,
    /// Window-completeness proof within the lower tree.
    lower: Option<OpProof<F>>,
}

impl<F: Flavor> QueryProof<F> {
    /// Serialized proof size in bytes (the Fig. 11b metric).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl<F: Flavor> Encode for QueryProof<F> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.upper.encode(out);
        self.lower_root.encode(out);
        self.lower.encode(out);
    }

    fn encoded_len(&self) -> usize {
        self.upper.encoded_len() + self.lower_root.encoded_len() + self.lower.encoded_len()
    }
}

impl<F: Flavor> Decode for QueryProof<F> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(QueryProof {
            upper: SmtProof::decode(r)?,
            lower_root: Option::decode(r)?,
            lower: Option::decode(r)?,
        })
    }
}

/// Client-side verification of a two-level query answer against the
/// certified index digest: upper-tree (non-)membership for the key,
/// digest binding of the lower-tree root, then `verify_lower` — the
/// window-completeness check with the instantiation's claim — against
/// that root. An untracked key must come with an empty answer.
///
/// # Errors
///
/// [`QueryError`] describing the first failed check.
pub(crate) fn verify_window<F: Flavor>(
    digest: &Hash,
    key: &StateKey,
    proof: &QueryProof<F>,
    answer_is_empty: bool,
    verify_lower: impl FnOnce(&OpProof<F>, &Hash) -> Result<(), ProofError>,
) -> Result<(), QueryError> {
    let proven = proof.upper.verify(digest)?.pre_value_hash(key.as_hash())?;
    match (&proof.lower_root, &proof.lower) {
        (None, None) => {
            if proven.is_some() {
                return Err(QueryError::ResultMismatch(
                    "key is tracked but no lower tree presented",
                ));
            }
            if !answer_is_empty {
                return Err(QueryError::ResultMismatch("answer for an untracked key"));
            }
            Ok(())
        }
        (Some(lower_root), Some(lower)) => {
            if proven != Some(hash_bytes(lower_root.as_bytes())) {
                return Err(QueryError::DigestMismatch);
            }
            verify_lower(lower, lower_root)?;
            Ok(())
        }
        _ => Err(QueryError::ResultMismatch("inconsistent proof shape")),
    }
}
