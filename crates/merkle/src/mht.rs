//! The transaction-root hash rule (`H_tx`; the static Merkle tree of Fig. 1
//! of the paper, kept as the fold that computes its root).
//!
//! [`root`] commits to an ordered list of byte strings: leaves are
//! `H(MHT_LEAF ‖ item)`, inner nodes `H(MHT_NODE ‖ left ‖ right)`, and an
//! odd node at the end of a level is *promoted* (carried up unpaired)
//! rather than duplicated, which avoids the CVE-2012-2459 duplication
//! ambiguity. Nothing in DCert proves membership against this root — a
//! block body is always re-hashed whole (`Block::verify_tx_root`, inside
//! the enclave for every certified block) — so it is a hash rule, not a
//! tree: no levels are kept, there is no proof form, and the fold is
//! straight-line code that reads nothing but its argument.

use dcert_primitives::hash::{Hash, Hasher};

use crate::domain;

fn leaf_hash(item: &[u8]) -> Hash {
    Hasher::with_domain(domain::MHT_LEAF).chain(item).finalize()
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    Hasher::with_domain(domain::MHT_NODE)
        .chain(left)
        .chain(right)
        .finalize()
}

/// The Merkle root over `items`, in order ([`Hash::ZERO`] for no items, the
/// leaf hash for one).
///
/// One buffer of leaf hashes is halved in place until a single hash is
/// left, so the only allocation is bounded by the item count.
///
/// ```
/// use dcert_merkle::mht;
/// use dcert_primitives::hash::Hash;
///
/// let txs = [b"tx1".as_slice(), b"tx2", b"tx3"];
/// assert_ne!(mht::root(txs), mht::root([b"tx1".as_slice(), b"tx2"]));
/// assert_eq!(mht::root(Vec::<Vec<u8>>::new()), Hash::ZERO);
/// ```
pub fn root<I, T>(items: I) -> Hash
where
    I: IntoIterator<Item = T>,
    T: AsRef<[u8]>,
{
    let mut level: Vec<Hash> = items
        .into_iter()
        .map(|item| leaf_hash(item.as_ref()))
        .collect();
    while level.len() > 1 {
        let parents = level.len().div_ceil(2);
        // Slot `i` belonged to pair `i / 2`, hashed already: parent `i` may
        // overwrite it.
        for i in 0..parents {
            let Some(left) = level.get(2 * i).copied() else {
                break;
            };
            // The odd node at the end of a level has no right sibling and
            // is carried up as it is.
            let parent = level
                .get(2 * i + 1)
                .map_or(left, |right| node_hash(&left, right));
            if let Some(slot) = level.get_mut(i) {
                *slot = parent;
            }
        }
        level.truncate(parents);
    }
    level.first().copied().unwrap_or(Hash::ZERO)
}

/// Compatibility spelling `benchmark/driver` calls (with
/// `dcert_core::ParallelismConfig`); leaves at ROADMAP item 4(c). Inert:
/// the root is one fold on the calling thread and there is no state to
/// set.
pub fn set_build_threads(_threads: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_testkit::check;

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("item-{i}").into_bytes()).collect()
    }

    /// RFC 6962's top-down definition of the same tree: split at the
    /// largest power of two below the leaf count.
    fn reference(leaves: &[Hash]) -> Hash {
        match leaves {
            [] => Hash::ZERO,
            [only] => *only,
            _ => {
                let (left, right) = leaves.split_at(leaves.len().next_power_of_two() / 2);
                node_hash(&reference(left), &reference(right))
            }
        }
    }

    #[test]
    fn empty_tree_has_zero_root() {
        assert_eq!(root(Vec::<Vec<u8>>::new()), Hash::ZERO);
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        assert_eq!(root([b"only"]), leaf_hash(b"only"));
    }

    #[test]
    fn two_leaves_match_fig1_rule() {
        // h_root = H(dom || H(dom_l || a) || H(dom_l || b))
        assert_eq!(
            root([b"a", b"b"]),
            node_hash(&leaf_hash(b"a"), &leaf_hash(b"b"))
        );
    }

    #[test]
    fn odd_node_is_promoted_unpaired() {
        let (a, b, c) = (leaf_hash(b"a"), leaf_hash(b"b"), leaf_hash(b"c"));
        assert_eq!(root([b"a", b"b", b"c"]), node_hash(&node_hash(&a, &b), &c));
    }

    #[test]
    fn odd_promotion_is_not_duplication() {
        // With duplication (Bitcoin-style), [a, b, b] and [a, b] can collide.
        // With promotion they must differ.
        assert_ne!(root([b"a", b"b"]), root([b"a", b"b", b"b"]));
    }

    #[test]
    fn fold_equals_recursive_reference() {
        for n in 0..=130 {
            let data = items(n);
            let leaves: Vec<Hash> = data.iter().map(|item| leaf_hash(item)).collect();
            assert_eq!(root(&data), reference(&leaves), "n={n}");
        }
    }

    #[test]
    fn prop_distinct_lists_have_distinct_roots() {
        check("prop_distinct_lists_have_distinct_roots", 256, |g| {
            let mut list = || g.vec(1..8, |g| g.vec(0..8, |g| g.any::<u8>()));
            let (a, b) = (list(), list());
            if a != b {
                assert_ne!(root(&a), root(&b));
            } else {
                assert_eq!(root(&a), root(&b));
            }
        });
    }
}
