//! Micro-rows of the structures the end-to-end numbers lean on: the
//! `blocks_io`-shaped SMT multiproof (32 transactions × 32 adjacent records
//! of a 4 128-record state in one proof), single-key prove + verify at
//! 2 048 keys — what one upper-level lookup of a two-level index costs —
//! and a 32-transaction signature pass, sequential (the enclave's) and in
//! the full node's lanes.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_micro`

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::shape;
use dcert_chain::validity::check_signatures;
use dcert_chain::{FullNode, GenesisBuilder, ProofOfWork};
use dcert_merkle::{SmtProof, SparseMerkleTree};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::{hash_bytes, Address, Hash};
use dcert_sgx::cost::timed;
use dcert_vm::{ContractRegistry, Executor};
use dcert_workloads::{Workload, WorkloadGen};

/// Prints the mean time of `f` over `iters` runs, and returns it.
fn row<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) -> Duration {
    let ((), elapsed) = timed(|| (0..iters).for_each(|_| drop(black_box(f()))));
    let mean = elapsed / iters;
    println!("{name:<28} {:>12}", fmt_duration(mean));
    mean
}

fn main() {
    banner(
        "fig_micro: SMT multiproof, single-key and signature-pass rows",
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

    // A `blocks_kv` body: the enclave's pass is sequential, the miner's
    // and the SP's split it into as many lanes as the node found cores for.
    let (genesis, state) = GenesisBuilder::new().build();
    let executor = Executor::new(Arc::new(ContractRegistry::new()));
    let engine = Arc::new(ProofOfWork::new(0));
    let node = FullNode::new(&genesis, state, executor, engine, Address::from_seed(1));
    let txs = WorkloadGen::new(Workload::KvStore { keyspace: 1_024 }, 32, 1).next_block(32);
    let lanes = node.signature_lanes(txs.len());
    assert_eq!(check_signatures(&txs), Ok(()));
    assert_eq!(node.verify_signatures(&txs), check_signatures(&txs));
    let sequential = row("chain/sigs_32_sequential", iters, || check_signatures(&txs));
    let in_lanes = row(&format!("chain/sigs_32_in_{lanes}_lanes"), iters, || {
        node.verify_signatures(&txs)
    });
    if shape::wall_clock() && lanes >= 2 {
        assert!(
            in_lanes < sequential,
            "{lanes} lanes ({in_lanes:?}) must beat one ({sequential:?})"
        );
    }
}
