//! Micro-rows of the structures the end-to-end numbers lean on: the
//! `blocks_io`-shaped SMT multiproof (32 transactions × 32 adjacent records
//! of a 4 128-record state in one proof), single-key prove + verify at
//! 2 048 keys — what one upper-level lookup of a two-level index costs —
//! one history-index window served by the SP, and a 32-transaction
//! signature pass.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_micro`

#![forbid(unsafe_code)]

use std::hint::black_box;

use dcert_bench::params::scaled;
use dcert_bench::report::banner;
use dcert_bench::timing;
use dcert_chain::validity::check_signatures;
use dcert_merkle::{SmtProof, SparseMerkleTree};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::{hash_bytes, Hash};
use dcert_query::history::verify_history;
use dcert_query::HistoryIndex;
use dcert_sgx::cost::timed;
use dcert_vm::StateKey;
use dcert_workloads::{Workload, WorkloadGen};

/// Prints the time of one call of `f`: the spread over batches of `iters`.
fn row<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    let mut batch = || timed(|| (0..iters).for_each(|_| drop(black_box(f())))).1;
    let ([batch], ()) = timing::repeat("", || ([batch()], ()));
    println!("{name:<28} {:>31}", batch.per(iters));
}

fn main() {
    banner(
        "fig_micro: SMT multiproof, single-key, history-window and signature-pass rows",
        "no paper figure; the rows optimisation PRs size against",
    );
    let iters = u32::try_from(scaled(200)).unwrap_or(u32::MAX);
    let record = |i: usize| hash_bytes(format!("rec-{i}"));
    let mut tree = SparseMerkleTree::new();
    for i in 0..4_128usize {
        tree.insert(record(i), i.to_be_bytes().to_vec());
    }
    let touched: Vec<Hash> = (0..32usize)
        .flat_map(|range| {
            let start = range * 2_654_435_761 % 4_096;
            (start..start + 32).map(record)
        })
        .collect();
    let (root, proof) = (tree.root(), tree.prove(&touched));
    let writes: Vec<(Hash, Option<Hash>)> = touched
        .iter()
        .step_by(2)
        .map(|k| (*k, Some(hash_bytes(b"new"))))
        .collect();
    let frame = proof.to_encoded_bytes();
    // The rows time what they say: verify, decode, update and commit all
    // succeed, and the stateless update reaches the root the commit does.
    let verified = proof.verify(&root).expect("honest proof verifies");
    assert_eq!(SmtProof::decode_all(&frame).as_ref(), Ok(&proof));
    let mut pending: Vec<(Hash, Option<Vec<u8>>)> = writes
        .iter()
        .map(|(key, _)| (*key, Some(b"new".to_vec())))
        .collect();
    let mut committed = tree.clone();
    committed.commit(pending.clone());
    assert_eq!(verified.updated_root(&writes), Ok(committed.root()));
    row("smt/prove_1024_keys", iters, || tree.prove(&touched));
    // Includes recording the walk memo the update reads.
    row("smt/verify_1024_keys", iters, || proof.verify(&root));
    row("smt/updated_root_1024_keys", iters, || {
        verified.updated_root(&writes)
    });
    // The same writes on the tree itself, then what they displaced, and so
    // on: every round is one commit over the written keys.
    row("smt/commit_1024_keys", iters, || {
        pending = tree.commit(std::mem::take(&mut pending));
    });
    row("smt/decode_1024_keys", iters, || {
        SmtProof::decode_all(&frame)
    });
    let key = |i: u32| hash_bytes(format!("account-{i}"));
    let mut smt = SparseMerkleTree::new();
    for i in 0..2_048u32 {
        smt.insert(key(i), vec![0u8; 32]);
    }
    let (smt_root, probe) = (smt.root(), key(1_000));
    assert!(smt.prove(&[probe]).verify(&smt_root).is_ok());
    row("smt/prove_verify_1_of_2048", iters, || {
        smt.prove(&[probe]).verify(&smt_root).is_ok()
    });

    // What the SP does per `History` query: the upper-level lookup, the
    // window walk and both proofs, over one key's 128 versions (order 16;
    // appends leave 8-entry leaves) and a 16-version window, two leaves.
    let mut history = HistoryIndex::new("history");
    let account = StateKey::new("kvstore", b"account");
    for height in 1..=128u64 {
        history.apply_block(height, &[(account, Some(height.to_be_bytes().repeat(4)))]);
    }
    let (versions, window) = history.query(&account, 49, 64);
    assert_eq!(versions.len(), 16);
    let verified = verify_history(&history.digest(), &account, 49, 64, &versions, &window);
    assert_eq!(verified, Ok(()));
    row("query/history_window_serve", iters * 10, || {
        history.query(&account, 49, 64)
    });

    // A `blocks_kv` body, checked on one thread as every node checks it.
    let txs = WorkloadGen::new(Workload::KvStore { keyspace: 1_024 }, 32, 1).next_block(32);
    assert_eq!(check_signatures(&txs), Ok(()));
    row("chain/sigs_32_sequential", iters, || check_signatures(&txs));
    timing::note();
}
