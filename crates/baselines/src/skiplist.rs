//! An authenticated deterministic skip list (LineageChain-style).
//!
//! Append-only list of `(timestamp, value)` versions with deterministic
//! tower heights — node `i` (0-based) has height `tz(i+1) + 1`, where `tz`
//! is the number of trailing zero bits — and *backward* hash links: at
//! every level `l` below its height, a node commits to the hash of the
//! previous node of height `> l`. The list commitment is the hash of the
//! newest node, so verification always starts from the latest version and
//! walks back — which is why query cost grows with the distance of the
//! queried window from the chain tip (the effect Fig. 11 measures).
//!
//! Range queries `[t1, t2]` return all in-range versions with a proof
//! consisting of every node visited: skip steps (level > 0) are only legal
//! while they land at or above `t2`, and collection walks level 0 down
//! through one boundary node below `t1`, so omissions are detectable.

use dcert_merkle::{domain, ProofError};
use dcert_primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert_primitives::error::CodecError;
use dcert_primitives::hash::{hash_bytes, Hash};

fn node_hash(ts: u64, value_hash: &Hash, link_hashes: &[Hash]) -> Hash {
    let mut buf = Vec::with_capacity(1 + 8 + 32 + 1 + link_hashes.len() * 32);
    buf.push(domain::SKIP_NODE);
    buf.extend_from_slice(&ts.to_be_bytes());
    buf.extend_from_slice(value_hash.as_bytes());
    buf.push(link_hashes.len() as u8);
    for link in link_hashes {
        buf.extend_from_slice(link.as_bytes());
    }
    hash_bytes(&buf)
}

/// Height of the `i`-th appended node (0-based).
fn tower_height(i: usize) -> usize {
    (i as u64 + 1).trailing_zeros() as usize + 1
}

#[derive(Debug, Clone)]
struct Node {
    ts: u64,
    value: Vec<u8>,
    /// `link_hashes[l]` = hash of the previous node with height > l
    /// ([`Hash::ZERO`] at the list start).
    link_hashes: Vec<Hash>,
    /// `links[l]` = index of that node, if any.
    links: Vec<Option<usize>>,
    hash: Hash,
}

/// The SP-side authenticated skip list.
#[derive(Debug, Clone, Default)]
pub struct AuthSkipList {
    nodes: Vec<Node>,
    /// `last_at_level[l]` = index of the newest node with height > l.
    last_at_level: Vec<usize>,
}

impl AuthSkipList {
    /// Creates an empty list (commitment = [`Hash::ZERO`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no versions are stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The list commitment: the newest node's hash.
    pub fn head(&self) -> Hash {
        self.nodes.last().map_or(Hash::ZERO, |n| n.hash)
    }

    /// The newest timestamp, if any.
    pub fn max_ts(&self) -> Option<u64> {
        self.nodes.last().map(|n| n.ts)
    }

    /// Appends a version; `ts` must exceed every stored timestamp.
    ///
    /// # Panics
    ///
    /// Panics on non-increasing timestamps (an index-maintenance bug).
    pub fn append(&mut self, ts: u64, value: Vec<u8>) {
        if let Some(last) = self.nodes.last() {
            assert!(ts > last.ts, "timestamps must be strictly increasing");
        }
        let i = self.nodes.len();
        let height = tower_height(i);
        let mut link_hashes = Vec::with_capacity(height);
        let mut links = Vec::with_capacity(height);
        for l in 0..height {
            match self.last_at_level.get(l) {
                Some(&idx) => {
                    links.push(Some(idx));
                    link_hashes.push(self.nodes[idx].hash);
                }
                None => {
                    links.push(None);
                    link_hashes.push(Hash::ZERO);
                }
            }
        }
        let hash = node_hash(ts, &hash_bytes(&value), &link_hashes);
        self.nodes.push(Node {
            ts,
            value,
            link_hashes,
            links,
            hash,
        });
        // This node becomes the newest of height > l for every l < height.
        for l in 0..height {
            if l < self.last_at_level.len() {
                self.last_at_level[l] = i;
            } else {
                self.last_at_level.push(i);
            }
        }
    }

    /// Answers the range query `[t1, t2]`, returning the in-range versions
    /// (ascending by timestamp) and the traversal proof.
    pub fn range(&self, t1: u64, t2: u64) -> (Vec<(u64, Vec<u8>)>, SkipRangeProof) {
        let mut steps = Vec::new();
        let mut results = Vec::new();
        let Some(mut cur) = self.nodes.len().checked_sub(1) else {
            return (results, SkipRangeProof { steps });
        };
        // The head node is always disclosed (entry point of verification).
        steps.push(ProofStep {
            level: 0,
            node: self.proof_node(cur),
        });
        // Phase 1: skip back until at or below t2, using the highest link
        // that lands at ts >= t2.
        while self.nodes[cur].ts > t2 {
            let node = &self.nodes[cur];
            let mut chosen = 0usize;
            for l in (0..node.links.len()).rev() {
                if let Some(target) = node.links[l] {
                    if self.nodes[target].ts >= t2 {
                        chosen = l;
                        break;
                    }
                }
            }
            match node.links[chosen] {
                None => return (results, SkipRangeProof { steps }), // list start
                Some(next) => {
                    steps.push(ProofStep {
                        level: chosen as u8,
                        node: self.proof_node(next),
                    });
                    cur = next;
                }
            }
        }
        // Phase 2: collect along level 0 until below t1 (inclusive of one
        // boundary node).
        loop {
            let node = &self.nodes[cur];
            if node.ts < t1 {
                break;
            }
            if node.ts <= t2 {
                results.push((node.ts, node.value.clone()));
            }
            match node.links[0] {
                None => break,
                Some(next) => {
                    steps.push(ProofStep {
                        level: 0,
                        node: self.proof_node(next),
                    });
                    cur = next;
                }
            }
        }
        results.reverse();
        (results, SkipRangeProof { steps })
    }

    fn proof_node(&self, idx: usize) -> ProofNode {
        let node = &self.nodes[idx];
        ProofNode {
            ts: node.ts,
            value_hash: hash_bytes(&node.value),
            link_hashes: node.link_hashes.clone(),
        }
    }
}

/// One disclosed node of a traversal proof.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProofNode {
    ts: u64,
    value_hash: Hash,
    link_hashes: Vec<Hash>,
}

impl ProofNode {
    fn hash(&self) -> Hash {
        node_hash(self.ts, &self.value_hash, &self.link_hashes)
    }
}

/// One traversal step: the link level taken to reach `node` from the
/// previously disclosed node (the first step's level is unused).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ProofStep {
    level: u8,
    node: ProofNode,
}

/// A range-query proof over an [`AuthSkipList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipRangeProof {
    steps: Vec<ProofStep>,
}

impl SkipRangeProof {
    /// Serialized proof size in bytes (the Fig. 11b metric).
    pub fn size_bytes(&self) -> usize {
        self.encoded_len()
    }

    /// Verifies that `results` is exactly the version set in `[t1, t2]`,
    /// against the trusted `head` commitment.
    ///
    /// # Errors
    ///
    /// [`ProofError`] describing the first failed check.
    pub fn verify(
        &self,
        head: &Hash,
        t1: u64,
        t2: u64,
        results: &[(u64, Vec<u8>)],
    ) -> Result<(), ProofError> {
        if self.steps.is_empty() {
            return if head.is_zero() {
                if results.is_empty() {
                    Ok(())
                } else {
                    Err(ProofError::Incomplete("results for an empty list"))
                }
            } else {
                Err(ProofError::Malformed("empty proof for non-empty list"))
            };
        }
        // The first node must hash to the head commitment.
        if self.steps[0].node.hash() != *head {
            return Err(ProofError::RootMismatch);
        }
        let mut collected: Vec<(u64, Hash)> = Vec::new();
        let mut reached_below_t1_or_start = false;
        for (i, step) in self.steps.iter().enumerate() {
            let node = &step.node;
            if i > 0 {
                let prev = &self.steps[i - 1].node;
                let level = step.level as usize;
                // Link authenticity: the previous node committed to this
                // node at `level`.
                let link = prev
                    .link_hashes
                    .get(level)
                    .ok_or(ProofError::Malformed("link level out of range"))?;
                if *link != node.hash() {
                    return Err(ProofError::RootMismatch);
                }
                // Skip-safety: a level-above-0 step may only land at or
                // above t2 (nothing in range can be jumped over).
                if level > 0 && node.ts < t2 {
                    return Err(ProofError::Incomplete("skip jumped into the range"));
                }
                // Timestamps must strictly decrease along the walk.
                if node.ts >= prev.ts {
                    return Err(ProofError::Malformed("non-decreasing traversal"));
                }
            }
            if node.ts >= t1 && node.ts <= t2 {
                collected.push((node.ts, node.value_hash));
            }
            if node.ts < t1 {
                reached_below_t1_or_start = true;
            }
            // List start: all links zero at level 0.
            if node.link_hashes.first().map(Hash::is_zero).unwrap_or(true) {
                reached_below_t1_or_start = true;
            }
        }
        if !reached_below_t1_or_start {
            return Err(ProofError::Incomplete("traversal stops inside the range"));
        }
        // Collected nodes were pushed newest-first.
        collected.reverse();
        if collected.len() != results.len() {
            return Err(ProofError::Incomplete("result count mismatch"));
        }
        for ((ts, vh), (rts, rv)) in collected.iter().zip(results) {
            if ts != rts || *vh != hash_bytes(rv) {
                return Err(ProofError::Incomplete("result entry mismatch"));
            }
        }
        Ok(())
    }
}

// --- serialization ---------------------------------------------------------

impl Encode for ProofNode {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ts.encode(out);
        self.value_hash.encode(out);
        encode_seq(&self.link_hashes, out);
    }
}

impl Decode for ProofNode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProofNode {
            ts: u64::decode(r)?,
            value_hash: Hash::decode(r)?,
            link_hashes: decode_seq(r)?,
        })
    }
}

impl Encode for ProofStep {
    fn encode(&self, out: &mut Vec<u8>) {
        self.level.encode(out);
        self.node.encode(out);
    }
}

impl Decode for ProofStep {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProofStep {
            level: u8::decode(r)?,
            node: ProofNode::decode(r)?,
        })
    }
}

impl Encode for SkipRangeProof {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(&self.steps, out);
    }
}

impl Decode for SkipRangeProof {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SkipRangeProof {
            steps: decode_seq(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_testkit::check;

    fn build(n: u64) -> AuthSkipList {
        let mut list = AuthSkipList::new();
        for ts in 0..n {
            list.append(ts, format!("v{ts}").into_bytes());
        }
        list
    }

    #[test]
    fn empty_list_verifies_empty_results() {
        let list = AuthSkipList::new();
        let (results, proof) = list.range(0, 10);
        assert!(results.is_empty());
        proof.verify(&Hash::ZERO, 0, 10, &results).unwrap();
    }

    #[test]
    fn tower_heights_are_deterministic() {
        assert_eq!(tower_height(0), 1);
        assert_eq!(tower_height(1), 2);
        assert_eq!(tower_height(2), 1);
        assert_eq!(tower_height(3), 3);
        assert_eq!(tower_height(7), 4);
    }

    #[test]
    fn ranges_verify_across_windows() {
        let list = build(100);
        let head = list.head();
        for (t1, t2) in [(0, 99), (10, 20), (95, 99), (0, 0), (50, 50), (90, 200)] {
            let (results, proof) = list.range(t1, t2);
            let expected: Vec<u64> = (t1..=t2.min(99)).collect();
            assert_eq!(
                results.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
                expected,
                "window [{t1},{t2}]"
            );
            proof
                .verify(&head, t1, t2, &results)
                .unwrap_or_else(|e| panic!("window [{t1},{t2}]: {e}"));
        }
    }

    #[test]
    fn empty_window_above_tip_verifies() {
        let list = build(10);
        let (results, proof) = list.range(50, 60);
        assert!(results.is_empty());
        proof.verify(&list.head(), 50, 60, &results).unwrap();
    }

    #[test]
    fn omitted_result_detected() {
        let list = build(50);
        let (mut results, proof) = list.range(10, 20);
        results.remove(5);
        assert!(proof.verify(&list.head(), 10, 20, &results).is_err());
    }

    #[test]
    fn tampered_value_detected() {
        let list = build(50);
        let (mut results, proof) = list.range(10, 20);
        results[0].1 = b"forged".to_vec();
        assert!(proof.verify(&list.head(), 10, 20, &results).is_err());
    }

    #[test]
    fn stale_head_detected() {
        let mut list = build(50);
        let stale_head = list.head();
        list.append(50, b"new".to_vec());
        let (results, proof) = list.range(10, 20);
        assert!(proof.verify(&stale_head, 10, 20, &results).is_err());
    }

    #[test]
    fn proof_cost_grows_with_distance_from_tip() {
        let list = build(10_000);
        let (_, near) = list.range(9_990, 9_995);
        let (_, far) = list.range(10, 15);
        assert!(
            far.size_bytes() > near.size_bytes(),
            "far window proofs must be larger: far={} near={}",
            far.size_bytes(),
            near.size_bytes()
        );
    }

    #[test]
    fn proof_codec_round_trip() {
        let list = build(40);
        let (results, proof) = list.range(5, 15);
        let decoded = SkipRangeProof::decode_all(&proof.to_encoded_bytes()).unwrap();
        assert_eq!(decoded, proof);
        decoded.verify(&list.head(), 5, 15, &results).unwrap();
    }

    #[test]
    fn prop_ranges_verify() {
        check("prop_ranges_verify", 48, |g| {
            let (n, t1, width) = (g.range(0u64..200), g.range(0u64..250), g.range(0u64..80));
            let list = build(n);
            let t2 = t1 + width;
            let (results, proof) = list.range(t1, t2);
            let expected: Vec<u64> = (t1..=t2).filter(|t| *t < n).collect();
            assert_eq!(
                results.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
                expected
            );
            assert!(proof.verify(&list.head(), t1, t2, &results).is_ok());
        });
    }
}
