//! Criterion companion to Figs. 8–9: per-workload certificate
//! construction, split into the outside-enclave pre-processing and the
//! `ecall_sig_gen` enclave call (with and without the SGX cost model, so
//! the overhead factor is directly visible).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcert_bench::{Rig, RigConfig};
use dcert_core::{BlockInput, CertProgram, EcallRequest};
use dcert_primitives::codec::Encode;
use dcert_sgx::{CostModel, Enclave};
use dcert_workloads::Workload;

/// Builds an idempotent `SigGen` request for one block of `workload`.
fn prepare(workload: Workload, txs: usize) -> (Rig, EcallRequest) {
    let mut rig = Rig::new(RigConfig {
        cost: CostModel::calibrated(),
        ..RigConfig::default()
    });
    let mut gen = rig.generator(workload, 42);
    let block = rig.mine(gen.next_block(txs));
    // The CI node is still at genesis; prepare the input exactly as
    // Algorithm 1 does.
    let execution = rig.ci.node().execute(&block.txs);
    let state_proof = rig.ci.node().state().prove(&execution.touched_keys());
    let input = BlockInput {
        prev_header: rig.genesis.header.clone(),
        prev_cert: None,
        block,
        reads: execution
            .reads
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        state_proof,
    };
    (rig, EcallRequest::SigGen(input))
}

/// A standalone initialized trusted program + enclave for replaying the
/// request.
fn enclave_for(rig: &Rig, cost: CostModel) -> Enclave<CertProgram> {
    let program = CertProgram::new(
        rig.genesis.hash(),
        rig.ias.public_key(),
        rig.executor.clone(),
        rig.engine.clone(),
        Vec::new(),
    );
    let enclave = Enclave::launch(program, cost);
    enclave.ecall(&EcallRequest::Init.to_encoded_bytes());
    enclave
}

fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_cert_construction");
    group.sample_size(20);
    for workload in Workload::paper_defaults() {
        let (rig, request) = prepare(workload, 32);
        let encoded = request.to_encoded_bytes();

        let with_sgx = enclave_for(&rig, CostModel::calibrated());
        group.bench_with_input(
            BenchmarkId::new("ecall_sig_gen_sgx", workload.label()),
            &encoded,
            |b, req| b.iter(|| with_sgx.ecall(req)),
        );
        let no_sgx = enclave_for(&rig, CostModel::zero());
        group.bench_with_input(
            BenchmarkId::new("ecall_sig_gen_untrusted", workload.label()),
            &encoded,
            |b, req| b.iter(|| no_sgx.ecall(req)),
        );
        group.bench_with_input(
            BenchmarkId::new("outside_prep", workload.label()),
            &(),
            |b, _| {
                let EcallRequest::SigGen(input) = &request else {
                    unreachable!()
                };
                b.iter(|| {
                    let execution = rig.ci.node().execute(&input.block.txs);
                    rig.ci.node().state().prove(&execution.touched_keys())
                });
            },
        );
    }
    group.finish();

    // Fig. 9 companion: KV at increasing block sizes.
    let mut group = c.benchmark_group("fig9_block_size");
    group.sample_size(15);
    for &txs in &[8usize, 32, 128] {
        let (rig, request) = prepare(Workload::KvStore { keyspace: 500 }, txs);
        let encoded = request.to_encoded_bytes();
        let enclave = enclave_for(&rig, CostModel::calibrated());
        group.bench_with_input(BenchmarkId::new("KV", txs), &encoded, |b, req| {
            b.iter(|| enclave.ecall(req))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_certification);
criterion_main!(benches);
