//! The inverted keyword index (Fig. 5, lower-right).
//!
//! Dictionary: a sparse Merkle tree mapping `H(keyword)` to a hash-chain
//! commitment over the keyword's posting list (the ordered transaction ids
//! containing it). Appends are O(1) to verify — `head' = H(head ‖ tx_id)` —
//! which is exactly what the enclave needs to certify per-block updates,
//! and conjunctive queries return full posting lists (the verifier
//! recomputes each chain head), so intersections are complete by
//! construction.

use std::collections::{BTreeMap, HashMap};

use dcert_chain::Block;
use dcert_core::{CertError, IndexVerifier};
use dcert_merkle::{domain, SmtProof, SparseMerkleTree};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::{hash_bytes, Hash, Hasher};
use dcert_vm::StateKey;

use crate::error::QueryError;

/// Extracts the canonical keyword set of a transaction payload: maximal
/// ASCII-alphanumeric runs starting with a letter, 3–16 characters,
/// lower-cased, deduplicated, sorted.
///
/// Both the SP and the enclave verifier run this same function, so the
/// indexed keyword set is deterministic.
///
/// ```
/// let kws = dcert_query::extract_keywords(b"\x00\x04Sell Stock AND bank!");
/// assert_eq!(kws, vec!["and", "bank", "sell", "stock"]);
/// ```
pub fn extract_keywords(payload: &[u8]) -> Vec<String> {
    let mut keywords = Vec::new();
    let mut current = String::new();
    // A run that began with a digit is poisoned until the next delimiter.
    let mut poisoned = false;
    for &byte in payload.iter().chain(std::iter::once(&0u8)) {
        let ch = byte as char;
        if ch.is_ascii_alphanumeric() {
            if current.is_empty() && !poisoned && !ch.is_ascii_alphabetic() {
                poisoned = true;
            }
            if !poisoned {
                current.push(ch.to_ascii_lowercase());
            }
        } else {
            if !poisoned && (3..=16).contains(&current.len()) {
                // Clone out a right-sized keyword and keep `current`'s
                // buffer; `mem::take` here would discard the accumulated
                // capacity and force a fresh allocation per word.
                keywords.push(current.clone());
            }
            current.clear();
            poisoned = false;
        }
    }
    keywords.sort_unstable();
    keywords.dedup();
    keywords
}

fn keyword_key(keyword: &str) -> Hash {
    Hasher::new().chain(b"ivk:").chain(keyword).finalize()
}

fn chain_append(head: &Hash, tx_id: &Hash) -> Hash {
    Hasher::with_domain(domain::INV_ENTRY)
        .chain(head.as_bytes())
        .chain(tx_id.as_bytes())
        .finalize()
}

/// Recomputes a posting-list chain head from scratch.
fn chain_head(tx_ids: &[Hash]) -> Hash {
    tx_ids
        .iter()
        .fold(Hash::ZERO, |head, id| chain_append(&head, id))
}

/// The SP-side inverted keyword index.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    dictionary: SparseMerkleTree,
    postings: HashMap<String, Vec<Hash>>,
    /// The undo of the last block's appends, until
    /// [`InvertedIndex::settle_block`].
    last_block: Appended,
}

/// What one block's appends displaced, in append order: each dictionary
/// entry's previous value, and each keyword's previous posting count
/// (`None` = the block created the keyword). Put back in reverse order,
/// they restore the index the block found.
#[derive(Debug, Clone, Default)]
struct Appended {
    heads: Vec<(Hash, Option<Vec<u8>>)>,
    postings: Vec<(String, Option<usize>)>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The certified digest `H_idx`: the dictionary root.
    pub fn digest(&self) -> Hash {
        self.dictionary.root()
    }

    /// Number of distinct indexed keywords.
    pub fn keywords(&self) -> usize {
        self.postings.len()
    }

    /// Derives the per-keyword appends of a block, in transaction order.
    ///
    /// Crate-visible so [`crate::sp::ServiceProvider`] derives a block's
    /// appends once, for every inverted index it maintains.
    pub(crate) fn block_appends(block: &Block) -> BTreeMap<String, Vec<Hash>> {
        let mut appends: BTreeMap<String, Vec<Hash>> = BTreeMap::new();
        for tx in &block.txs {
            let id = tx.id();
            for keyword in extract_keywords(&tx.call.payload) {
                appends.entry(keyword).or_default().push(id);
            }
        }
        appends
    }

    /// A keyword's chain head in the dictionary (`None` = not indexed yet).
    #[allow(
        clippy::expect_used,
        reason = "SP-maintained dictionary only ever stores 32-byte chain heads; not attacker input"
    )]
    fn head(&self, keyword: &str) -> Option<Hash> {
        self.dictionary
            .get(&keyword_key(keyword))
            .map(|bytes| Hash::from_bytes(bytes.try_into().expect("32-byte heads")))
    }

    /// Indexes one block, returning the enclave-verifiable update proof
    /// (`aux`) and the new digest. The block stays undoable
    /// ([`InvertedIndex::undo_block`]) until the next block or
    /// [`InvertedIndex::settle_block`].
    pub fn apply_block(&mut self, block: &Block) -> (Vec<u8>, Hash) {
        let appends: Vec<(String, Vec<Hash>)> = Self::block_appends(block).into_iter().collect();
        self.apply_appends(&appends)
    }

    /// [`InvertedIndex::apply_block`] over the block's derived appends:
    /// the proof, then [`InvertedIndex::replay`]'s mutation.
    pub(crate) fn apply_appends(&mut self, appends: &[(String, Vec<Hash>)]) -> (Vec<u8>, Hash) {
        let touched: Vec<Hash> = appends.iter().map(|(kw, _)| keyword_key(kw)).collect();
        let proof = self.dictionary.prove(&touched);
        let prev_heads = appends
            .iter()
            .map(|(kw, _)| (kw.clone(), self.head(kw)))
            .collect();
        self.replay(appends);
        let update = InvertedUpdate { prev_heads, proof };
        (update.to_encoded_bytes(), self.digest())
    }

    /// Replays one block's per-keyword appends without the block or the
    /// update proof — the mutation half of [`InvertedIndex::apply_block`],
    /// which store recovery runs alone. Applying the same appends yields
    /// the same dictionary root by construction.
    pub(crate) fn replay(&mut self, appends: &[(String, Vec<Hash>)]) {
        let mut undo = Appended::default();
        for (keyword, ids) in appends {
            let mut head = self.head(keyword).unwrap_or(Hash::ZERO);
            let had = self.postings.get(keyword).map(Vec::len);
            undo.postings.push((keyword.clone(), had));
            let list = self.postings.entry(keyword.clone()).or_default();
            for id in ids {
                list.push(*id);
                head = chain_append(&head, id);
            }
            let key = keyword_key(keyword);
            let previous = self.dictionary.insert(key, head.as_bytes().to_vec());
            undo.heads.push((key, previous));
        }
        self.last_block = undo;
    }

    /// Takes back the last block's appends exactly: each posting list is
    /// cut back to its length before the block, a keyword the block
    /// created goes, and the dictionary gets back the heads the block
    /// displaced. Does nothing once the block is settled or undone.
    pub fn undo_block(&mut self) {
        let Appended { heads, postings } = std::mem::take(&mut self.last_block);
        for (keyword, had) in postings.into_iter().rev() {
            match had {
                Some(len) => self.postings.entry(keyword).or_default().truncate(len),
                None => {
                    self.postings.remove(&keyword);
                }
            }
        }
        // The last write to a key wins: reversed, that is its first
        // displaced value, the one the block found.
        self.dictionary.commit(heads.into_iter().rev());
    }

    /// Makes the last block's appends final, dropping their undo.
    pub fn settle_block(&mut self) {
        self.last_block = Appended::default();
    }

    /// Answers a conjunctive keyword query ("w1 AND w2 AND ..."),
    /// returning the matching transaction ids and a proof.
    pub fn query(&self, keywords: &[&str]) -> (Vec<Hash>, KeywordProof) {
        let mut normalized: Vec<String> = keywords.iter().map(|k| k.to_ascii_lowercase()).collect();
        normalized.sort_unstable();
        normalized.dedup();

        let touched: Vec<Hash> = normalized.iter().map(|kw| keyword_key(kw)).collect();
        let proof = self.dictionary.prove(&touched);
        let lists: Vec<(String, Vec<Hash>)> = normalized
            .iter()
            .map(|kw| {
                (
                    kw.clone(),
                    self.postings.get(kw).cloned().unwrap_or_default(),
                )
            })
            .collect();

        // Intersection, preserving first-list order.
        let result = match lists.split_first() {
            None => Vec::new(),
            Some(((_, first), rest)) => first
                .iter()
                .filter(|id| rest.iter().all(|(_, list)| list.contains(id)))
                .copied()
                .collect(),
        };
        (result, KeywordProof { lists, smt: proof })
    }
}

/// The aux payload of an inverted-index block update.
#[derive(Debug, Clone, PartialEq, Eq)]
struct InvertedUpdate {
    /// Chain head per touched keyword before the block (`None` = new).
    prev_heads: Vec<(String, Option<Hash>)>,
    /// Dictionary multiproof over the touched keywords.
    proof: SmtProof,
}

dcert_primitives::wire! {
    struct InvertedUpdate { prev_heads: seq, proof }
}

/// The trusted update verifier for [`InvertedIndex`].
#[derive(Debug, Clone)]
pub struct InvertedVerifier {
    name: String,
}

impl InvertedVerifier {
    /// Creates the verifier matching [`InvertedIndex::new`], registered
    /// under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        InvertedVerifier { name: name.into() }
    }
}

impl IndexVerifier for InvertedVerifier {
    fn type_name(&self) -> &str {
        &self.name
    }

    fn genesis_digest(&self) -> Hash {
        Hash::ZERO
    }

    fn verify_update(
        &self,
        prev_digest: &Hash,
        block: &Block,
        _writes: &[(StateKey, Option<Vec<u8>>)],
        aux: &[u8],
    ) -> Result<Hash, CertError> {
        let update = InvertedUpdate::decode_all(aux)
            .map_err(|_| CertError::BadIndexUpdate("aux decode".into()))?;
        // The enclave independently derives the appends from the certified
        // block body.
        let appends = InvertedIndex::block_appends(block);
        if update.prev_heads.len() != appends.len()
            || !update
                .prev_heads
                .iter()
                .zip(appends.keys())
                .all(|((a, _), b)| a == b)
        {
            return Err(CertError::BadIndexUpdate("keyword set mismatch".into()));
        }
        let dictionary = update.proof.verify(prev_digest).map_err(CertError::Proof)?;
        let mut new_values = Vec::with_capacity(appends.len());
        for ((keyword, prev_head), ids) in update.prev_heads.iter().zip(appends.values()) {
            let key = keyword_key(keyword);
            let proven = dictionary.pre_value_hash(&key).map_err(CertError::Proof)?;
            let claimed = prev_head.map(|h| hash_bytes(h.as_bytes()));
            if proven != claimed {
                return Err(CertError::BadIndexUpdate("stale chain head".into()));
            }
            let mut head = prev_head.unwrap_or(Hash::ZERO);
            for id in ids {
                head = chain_append(&head, id);
            }
            new_values.push((key, Some(hash_bytes(head.as_bytes()))));
        }
        dictionary
            .updated_root(&new_values)
            .map_err(CertError::Proof)
    }
}

/// Proof returned with a conjunctive keyword query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordProof {
    /// Full posting list per queried keyword (sorted by keyword).
    lists: Vec<(String, Vec<Hash>)>,
    /// Dictionary multiproof over the queried keywords.
    smt: SmtProof,
}

impl KeywordProof {
    /// Serialized proof size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }
}

dcert_primitives::wire! {
    struct KeywordProof { lists: seq, smt }
}

/// Client-side verification of a conjunctive keyword query result against
/// the certified index digest.
///
/// # Errors
///
/// [`QueryError`] describing the first failed check.
pub fn verify_keywords(
    digest: &Hash,
    keywords: &[&str],
    result: &[Hash],
    proof: &KeywordProof,
) -> Result<(), QueryError> {
    // Authenticate every posting list, for exactly the queried keyword set.
    let mut normalized: Vec<String> = keywords.iter().map(|k| k.to_ascii_lowercase()).collect();
    normalized.sort_unstable();
    normalized.dedup();
    if proof.lists.len() != normalized.len()
        || !proof
            .lists
            .iter()
            .zip(&normalized)
            .all(|((a, _), b)| a == b)
    {
        return Err(QueryError::ResultMismatch("keyword set mismatch"));
    }
    let dictionary = proof.smt.verify(digest)?;
    for (keyword, list) in &proof.lists {
        let key = keyword_key(keyword);
        let proven = dictionary.pre_value_hash(&key)?;
        let expected = if list.is_empty() {
            None
        } else {
            Some(hash_bytes(chain_head(list).as_bytes()))
        };
        if proven != expected {
            return Err(QueryError::ResultMismatch("posting list mismatch"));
        }
    }
    // Recompute the intersection.
    let recomputed: Vec<Hash> = match proof.lists.split_first() {
        None => Vec::new(),
        Some(((_, first), rest)) => first
            .iter()
            .filter(|id| rest.iter().all(|(_, list)| list.contains(id)))
            .copied()
            .collect(),
    };
    if recomputed != result {
        return Err(QueryError::ResultMismatch("intersection mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_chain::consensus::ConsensusProof;
    use dcert_chain::{Block, BlockHeader, Transaction};
    use dcert_primitives::codec::encode_seq;
    use dcert_primitives::hash::Address;
    use dcert_primitives::keys::Keypair;

    fn memo_block(height: u64, memos: &[&str]) -> Block {
        let kp = Keypair::from_seed([height as u8 + 1; 32]);
        let txs: Vec<Transaction> = memos
            .iter()
            .enumerate()
            .map(|(i, memo)| {
                Transaction::sign(
                    &kp,
                    height * 100 + i as u64,
                    "kvstore",
                    memo.as_bytes().to_vec(),
                )
            })
            .collect();
        Block {
            header: BlockHeader {
                height,
                prev_hash: Hash::ZERO,
                state_root: Hash::ZERO,
                tx_root: Block::tx_root(&txs),
                timestamp: height,
                miner: Address::default(),
                consensus: ConsensusProof::Pow {
                    difficulty_bits: 0,
                    nonce: 0,
                },
            },
            txs,
        }
    }

    #[test]
    fn extractor_normalizes_and_filters() {
        assert_eq!(
            extract_keywords(b"Stock AND Bank and stock"),
            vec!["and", "bank", "stock"]
        );
        // Too-short and too-long words are dropped; digits can't start one.
        assert_eq!(
            extract_keywords(b"go 12abc abcdefghijklmnopq"),
            Vec::<String>::new()
        );
        assert_eq!(extract_keywords(b"x9 word9 w"), vec!["word9"]);
    }

    #[test]
    fn digest_tracks_updates_and_verifier_agrees() {
        let mut index = InvertedIndex::new();
        let verifier = InvertedVerifier::new("inverted");
        let mut digest = index.digest();
        assert_eq!(digest, verifier.genesis_digest());
        for height in 1..=10u64 {
            let block = memo_block(
                height,
                &["buy stock now", "bank transfer stock", "sell bond"],
            );
            let (aux, new_digest) = index.apply_block(&block);
            let recomputed = verifier
                .verify_update(&digest, &block, &[], &aux)
                .unwrap_or_else(|e| panic!("height {height}: {e}"));
            assert_eq!(recomputed, new_digest);
            digest = new_digest;
        }
    }

    #[test]
    fn verifier_rejects_forged_appends() {
        let mut index = InvertedIndex::new();
        let verifier = InvertedVerifier::new("inverted");
        let digest = index.digest();
        let block = memo_block(1, &["stock bank"]);
        let (aux, _) = index.apply_block(&block);
        // Present the aux for a *different* block (different tx set).
        let other = memo_block(2, &["stock bank extra"]);
        assert!(verifier.verify_update(&digest, &other, &[], &aux).is_err());
    }

    #[test]
    fn conjunctive_query_verifies() {
        let mut index = InvertedIndex::new();
        let b1 = memo_block(1, &["stock bank merger", "stock only here"]);
        let b2 = memo_block(2, &["bank holiday", "stock AND bank again"]);
        index.apply_block(&b1);
        index.apply_block(&b2);
        let digest = index.digest();

        let (result, proof) = index.query(&["stock", "bank"]);
        // Txs containing both words: b1 tx0 and b2 tx1.
        assert_eq!(result.len(), 2);
        assert!(result.contains(&b1.txs[0].id()));
        assert!(result.contains(&b2.txs[1].id()));
        verify_keywords(&digest, &["stock", "bank"], &result, &proof).unwrap();
        // Order/case-insensitive on the client side too.
        verify_keywords(&digest, &["BANK", "Stock"], &result, &proof).unwrap();
    }

    #[test]
    fn absent_keyword_gives_verified_empty_result() {
        let mut index = InvertedIndex::new();
        index.apply_block(&memo_block(1, &["stock bank"]));
        let digest = index.digest();
        let (result, proof) = index.query(&["stock", "unicorn"]);
        assert!(result.is_empty());
        verify_keywords(&digest, &["stock", "unicorn"], &result, &proof).unwrap();
    }

    #[test]
    fn omitted_posting_detected() {
        let mut index = InvertedIndex::new();
        let b1 = memo_block(1, &["stock bank", "stock bank too"]);
        index.apply_block(&b1);
        let digest = index.digest();
        let (result, mut proof) = index.query(&["stock", "bank"]);
        assert_eq!(result.len(), 2);
        // SP drops one posting from a list (hiding a match).
        proof.lists[0].1.pop();
        assert!(verify_keywords(&digest, &["stock", "bank"], &result, &proof).is_err());
    }

    #[test]
    fn tampered_result_detected() {
        let mut index = InvertedIndex::new();
        index.apply_block(&memo_block(1, &["stock bank"]));
        let digest = index.digest();
        let (mut result, proof) = index.query(&["stock"]);
        result.push(hash_bytes(b"injected"));
        assert!(verify_keywords(&digest, &["stock"], &result, &proof).is_err());
    }

    #[test]
    fn replay_appends_matches_apply_block() {
        let mut live = InvertedIndex::new();
        let mut replayed = InvertedIndex::new();
        for height in 1..=5u64 {
            let block = memo_block(height, &["stock bank sale", "bank bond note"]);
            live.apply_block(&block);
            let appends: Vec<(String, Vec<Hash>)> =
                InvertedIndex::block_appends(&block).into_iter().collect();
            replayed.replay(&appends);
        }
        assert_eq!(live.digest(), replayed.digest());
        assert_eq!(live.query(&["bank"]).0, replayed.query(&["bank"]).0);
    }

    /// Everything a client could learn of `index` through `keywords`: the
    /// digest and one conjunctive answer's bytes, plus the keyword count.
    fn observed(index: &InvertedIndex, keywords: &[&str]) -> (Hash, Vec<u8>, usize) {
        let (result, proof) = index.query(keywords);
        let mut answer = Vec::new();
        encode_seq(&result, &mut answer);
        proof.encode(&mut answer);
        (index.digest(), answer, index.keywords())
    }

    /// `undo_block` takes a block back exactly, whether it created a
    /// keyword or only extended existing ones; after a settle it does
    /// nothing.
    #[test]
    fn undo_block_restores_the_index_the_block_found() {
        let mut index = InvertedIndex::new();
        index.apply_block(&memo_block(1, &["stock bank", "bank bond"]));
        index.settle_block();
        for (what, memos) in [
            ("extends only", ["stock bank again", "bond bank"]),
            ("creates a keyword", ["stock merger", "bank unicorn"]),
        ] {
            let before = [
                observed(&index, &["stock", "bank"]),
                observed(&index, &["merger"]),
                observed(&index, &["unicorn", "bank"]),
            ];
            let mut undone = index.clone();
            undone.apply_block(&memo_block(2, &memos));
            assert_ne!(
                undone.digest(),
                index.digest(),
                "{what}: the block moves it"
            );
            undone.undo_block();
            let after = [
                observed(&undone, &["stock", "bank"]),
                observed(&undone, &["merger"]),
                observed(&undone, &["unicorn", "bank"]),
            ];
            assert_eq!(after, before, "{what}");
            // The undone index indexes the block again as the first did.
            let mut twin = index.clone();
            let block = memo_block(3, &memos);
            assert_eq!(
                undone.apply_block(&block),
                twin.apply_block(&block),
                "{what}"
            );
        }
        let settled = index.digest();
        index.apply_block(&memo_block(2, &["stock"]));
        let applied = index.digest();
        assert_ne!(applied, settled);
        index.settle_block();
        index.undo_block();
        assert_eq!(index.digest(), applied, "a settled block is final");
    }

    #[test]
    fn proof_codec_round_trip() {
        let mut index = InvertedIndex::new();
        index.apply_block(&memo_block(1, &["stock bank"]));
        let (_, proof) = index.query(&["stock"]);
        let decoded = KeywordProof::decode_all(&proof.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, proof);
    }
}
