//! Determinism suite for the parallel Merkle builder.
//!
//! The chunked `std::thread::scope` construction in `dcert_merkle::mht` is
//! a pure per-level map, so its output must be *byte-identical* to the
//! sequential build for every leaf count and thread count — roots, full
//! level vectors (via `MerkleTree`'s structural equality), and every proof.
//! These tests sweep the edge cases deterministically (empty tree, single
//! leaf, odd promotions, the parallel-gate boundary) and then let a property
//! roam leaf counts 0..=1025 across thread counts {1, 2, 3, 4, 8}.

use dcert::merkle::{build_threads, set_build_threads, MerkleTree};
use dcert::primitives::hash::{hash_bytes, Hash};
use dcert_testkit::check;

/// Distinct, deterministic leaf hashes: `H(index || salt)`.
fn leaves(n: usize, salt: u64) -> Vec<Hash> {
    (0..n as u64)
        .map(|i| hash_bytes([i.to_be_bytes(), salt.to_be_bytes()].concat()))
        .collect()
}

/// Asserts that building `leaves` with `threads` workers matches the
/// sequential build exactly: same tree (all levels), same root, and the
/// same — still verifying — proof for every leaf.
fn assert_build_matches_sequential(leaves: &[Hash], threads: usize) {
    let sequential = MerkleTree::from_leaf_hashes_with_threads(leaves.to_vec(), 1);
    let parallel = MerkleTree::from_leaf_hashes_with_threads(leaves.to_vec(), threads);
    assert_eq!(
        sequential,
        parallel,
        "levels diverged at {} leaves / {} threads",
        leaves.len(),
        threads
    );
    assert_eq!(sequential.root(), parallel.root());
    for index in 0..leaves.len() {
        let expected = sequential.prove(index);
        let got = parallel.prove(index);
        assert_eq!(
            expected,
            got,
            "proof {} diverged at {} leaves / {} threads",
            index,
            leaves.len(),
            threads
        );
        if let (Some(proof), Some(leaf)) = (got, leaves.get(index)) {
            assert!(
                proof.verify_leaf_hash(&parallel.root(), *leaf).is_ok(),
                "parallel-built proof must verify"
            );
        }
    }
}

#[test]
fn deterministic_sweep_over_edge_shapes() {
    // Empty, singleton, perfect powers of two, odd promotions on several
    // levels, and both sides of the parallel gate (1024 internal nodes).
    for &n in &[0usize, 1, 2, 3, 5, 8, 33, 1023, 1024, 1025] {
        let items = leaves(n, 7);
        for &threads in &[2usize, 3, 4, 8] {
            assert_build_matches_sequential(&items, threads);
        }
    }
}

#[test]
fn from_items_agrees_with_leaf_hash_path() {
    let items: Vec<Vec<u8>> = (0..1100u64).map(|i| i.to_be_bytes().to_vec()).collect();
    let sequential = MerkleTree::from_items_with_threads(items.iter(), 1);
    for &threads in &[2usize, 4, 8] {
        let parallel = MerkleTree::from_items_with_threads(items.iter(), threads);
        assert_eq!(sequential, parallel);
    }
}

#[test]
fn global_knob_round_trips_and_feeds_default_builders() {
    let before = build_threads();
    set_build_threads(4);
    assert_eq!(build_threads(), 4);
    let items = leaves(1100, 3);
    let via_global = MerkleTree::from_leaf_hashes(items.clone());
    let explicit = MerkleTree::from_leaf_hashes_with_threads(items, 1);
    assert_eq!(
        via_global, explicit,
        "global thread knob must not change output"
    );
    set_build_threads(before);
}

/// Any leaf count in 0..=1025 builds byte-identically for every thread
/// count in {1, 2, 3, 4, 8}.
#[test]
fn prop_thread_count_never_changes_output() {
    check("prop_thread_count_never_changes_output", 48, |g| {
        let (n, salt) = (g.range(0usize..=1025), g.any::<u64>());
        let threads = g.one_of(&[1usize, 2, 3, 4, 8]);
        let items = leaves(n, salt);
        let sequential = MerkleTree::from_leaf_hashes_with_threads(items.clone(), 1);
        let parallel = MerkleTree::from_leaf_hashes_with_threads(items.clone(), threads);
        assert_eq!(&sequential, &parallel);
        assert_eq!(sequential.root(), parallel.root());
        // Spot-check proofs at the boundaries and the middle rather than
        // all n (the deterministic sweep covers exhaustive proofs).
        for index in [0, n / 2, n.saturating_sub(1)] {
            assert_eq!(sequential.prove(index), parallel.prove(index));
        }
    });
}
