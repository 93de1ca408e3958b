//! Micro-benchmarks of the authenticated data structures — the ablation
//! behind the design choices in DESIGN.md: SMT multiproof cost (what every
//! certificate pays), MPT stateless updates (history-index certification),
//! and MB-tree vs. skip-list range proofs (the Fig. 11 gap at its source).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcert_baselines::AuthSkipList;
use dcert_merkle::{MbTree, Mpt, SmtProof, SparseMerkleTree};
use dcert_primitives::codec::{Decode, Encode};
use dcert_primitives::hash::{hash_bytes, Hash};

fn bench_smt(c: &mut Criterion) {
    let mut group = c.benchmark_group("smt");
    for &n in &[1_000usize, 10_000] {
        let mut tree = SparseMerkleTree::new();
        let keys: Vec<Hash> = (0..n).map(|i| hash_bytes(format!("key-{i}"))).collect();
        for (i, key) in keys.iter().enumerate() {
            tree.insert(*key, i.to_be_bytes().to_vec());
        }
        let root = tree.root();
        let touched: Vec<Hash> = keys.iter().step_by(n / 32).copied().collect();

        group.bench_with_input(BenchmarkId::new("prove_32_keys", n), &n, |b, _| {
            b.iter(|| tree.prove(&touched));
        });
        let proof = tree.prove(&touched);
        group.bench_with_input(BenchmarkId::new("verify_32_keys", n), &n, |b, _| {
            b.iter(|| proof.verify(&root).unwrap());
        });
        let writes: Vec<(Hash, Option<Hash>)> = touched
            .iter()
            .map(|k| (*k, Some(hash_bytes(b"new"))))
            .collect();
        group.bench_with_input(BenchmarkId::new("updated_root_32_keys", n), &n, |b, _| {
            b.iter(|| proof.updated_root(&writes).unwrap());
        });
    }

    // The `blocks_io` shape: 32 transactions each touching 32 adjacent
    // records of a 4 128-record state, all in one block's multiproof.
    let record = |i: usize| hash_bytes(format!("rec-{i}"));
    let mut tree = SparseMerkleTree::new();
    for i in 0..4_128usize {
        tree.insert(record(i), i.to_be_bytes().to_vec());
    }
    let root = tree.root();
    let touched: Vec<Hash> = (0..32usize)
        .flat_map(|range| {
            let start = range * 2_654_435_761 % 4_096;
            (start..start + 32).map(record)
        })
        .collect();
    group.bench_function("prove_1024_keys", |b| b.iter(|| tree.prove(&touched)));
    let proof = tree.prove(&touched);
    group.bench_function("verify_1024_keys", |b| {
        b.iter(|| proof.verify(&root).unwrap())
    });
    let writes: Vec<(Hash, Option<Hash>)> = touched
        .iter()
        .step_by(2)
        .map(|k| (*k, Some(hash_bytes(b"new"))))
        .collect();
    group.bench_function("updated_root_1024_keys", |b| {
        b.iter(|| proof.updated_root(&writes).unwrap())
    });
    let frame = proof.to_encoded_bytes();
    group.bench_function("decode_1024_keys", |b| {
        b.iter(|| SmtProof::decode_all(&frame).unwrap())
    });
    group.finish();
}

fn bench_mpt(c: &mut Criterion) {
    let mut group = c.benchmark_group("mpt");
    let mut trie = Mpt::new();
    for i in 0..10_000u32 {
        trie.insert(format!("account-{i}").as_bytes(), vec![0u8; 32]);
    }
    let root = trie.root();
    group.bench_function("prove", |b| b.iter(|| trie.prove(b"account-5000")));
    let proof = trie.prove(b"account-5000");
    group.bench_function("verify", |b| {
        b.iter(|| proof.verify(&root, b"account-5000").unwrap())
    });
    group.bench_function("stateless_update", |b| {
        b.iter(|| {
            proof
                .updated_root(&root, b"account-5000", &hash_bytes(b"new"))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_range_structures(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_proofs");
    const N: u64 = 10_000;
    let mut mb = MbTree::new(MbTree::DEFAULT_ORDER);
    let mut skip = AuthSkipList::new();
    for ts in 0..N {
        mb.insert(ts, ts.to_be_bytes().to_vec());
        skip.append(ts, ts.to_be_bytes().to_vec());
    }
    for &(label, t1, t2) in &[("near_tip", N - 200, N - 100), ("far", 100u64, 200u64)] {
        group.bench_function(BenchmarkId::new("mbtree", label), |b| {
            b.iter(|| {
                let (results, proof) = mb.range(t1, t2);
                proof.verify(&mb.root(), t1, t2, &results).unwrap();
            });
        });
        group.bench_function(BenchmarkId::new("skiplist", label), |b| {
            b.iter(|| {
                let (results, proof) = skip.range(t1, t2);
                proof.verify(&skip.head(), t1, t2, &results).unwrap();
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_smt, bench_mpt, bench_range_structures);
criterion_main!(benches);
