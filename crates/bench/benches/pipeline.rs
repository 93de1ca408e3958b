//! Sequential vs pipelined certificate construction: the same pre-mined,
//! pre-staged chain certified by the plain [`CertificateIssuer`] loop and
//! by [`CertPipeline`] with a pool of preparer workers. The pipeline
//! overlaps untrusted preparation (execution, read sets, state proofs,
//! serialization) with the serialized enclave calls, so its wall-clock
//! per chain approaches the pure ECall time — the target is ≥ 1.5× over
//! sequential with 4 preparers under the calibrated cost model.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dcert_bench::{Rig, RigConfig};
use dcert_chain::Block;
use dcert_core::{CertJob, CertPipeline, CertificateIssuer, Gossip, IndexInput, PipelineConfig};
use dcert_query::sp::IndexKind;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;
use std::sync::Arc;

/// Blocks per measured run: long enough for the pipeline to reach steady
/// state, short enough for criterion's sample count.
const BLOCKS: u64 = 12;
const TXS: usize = 24;
const PREPARERS: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Scheme {
    Plain,
    Augmented,
    Hierarchical,
}

/// Mines the chain once and stages every block's index inputs (digest
/// bookkeeping only — either arm's issuer chains each index from the
/// certificate it issued last).
fn fixture(scheme: Scheme) -> (Rig, Vec<Block>, Vec<Vec<IndexInput>>) {
    let indexes = match scheme {
        Scheme::Plain => Vec::new(),
        Scheme::Augmented | Scheme::Hierarchical => {
            vec![(IndexKind::History, "history".to_string())]
        }
    };
    let mut rig = Rig::new(RigConfig {
        cost: CostModel::calibrated(),
        indexes,
        ..RigConfig::default()
    });
    let mut gen = rig.generator(Workload::IoHeavy { batch: 4 }, 7);
    let mut blocks = Vec::with_capacity(BLOCKS as usize);
    let mut staged = Vec::with_capacity(BLOCKS as usize);
    for _ in 0..BLOCKS {
        let block = rig.mine(gen.next_block(TXS));
        let inputs = rig.sp.stage_block(&block).expect("sp stages");
        rig.sp.advance_staged();
        blocks.push(block);
        staged.push(inputs);
    }
    (rig, blocks, staged)
}

/// The sequential reference: one `certify_*` call per block, in order.
fn certify_sequential(
    mut ci: CertificateIssuer,
    scheme: Scheme,
    blocks: &[Block],
    staged: &[Vec<IndexInput>],
) -> CertificateIssuer {
    for (block, inputs) in blocks.iter().zip(staged) {
        match scheme {
            Scheme::Plain => {
                ci.certify_block(block).expect("certifies");
            }
            Scheme::Augmented => {
                ci.certify_augmented(block, inputs).expect("certifies");
            }
            Scheme::Hierarchical => {
                ci.certify_hierarchical(block, inputs).expect("certifies");
            }
        }
    }
    ci
}

/// The pipelined engine: spawn, flood, drain.
fn certify_pipelined(ci: CertificateIssuer, jobs: Vec<CertJob>) -> CertificateIssuer {
    let pipeline = CertPipeline::spawn(
        ci,
        PipelineConfig {
            preparers: PREPARERS,
            queue_depth: 8,
            ..PipelineConfig::default()
        },
        Arc::new(Gossip::new()),
    );
    for job in jobs {
        pipeline.submit(job).expect("pipeline accepts");
    }
    let (ci, report) = pipeline.shutdown();
    assert!(report.errors.is_empty(), "no job may fail");
    ci
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_vs_sequential");
    group.sample_size(10);
    for (label, scheme) in [
        ("plain", Scheme::Plain),
        ("augmented", Scheme::Augmented),
        ("hierarchical", Scheme::Hierarchical),
    ] {
        let (rig, blocks, staged) = fixture(scheme);
        // Split the rig so a fresh CI can boot per iteration (the chain
        // resets every run) while the staged fixture stays borrowed.
        let mut ias = rig.ias;
        let sp = rig.sp;
        let genesis = rig.genesis;
        let genesis_state = rig.genesis_state;
        let executor = rig.executor;
        let engine = rig.engine;
        let mut boot = move || {
            CertificateIssuer::new(
                &genesis,
                genesis_state.clone(),
                executor.clone(),
                engine.clone(),
                sp.verifiers(),
                &mut ias,
                CostModel::calibrated(),
            )
            .expect("CI boots")
        };

        group.bench_function(BenchmarkId::new("sequential", label), |b| {
            b.iter_batched(
                &mut boot,
                |ci| certify_sequential(ci, scheme, &blocks, &staged),
                BatchSize::PerIteration,
            )
        });

        let jobs: Vec<CertJob> = blocks
            .iter()
            .zip(&staged)
            .map(|(block, inputs)| match scheme {
                Scheme::Plain => CertJob::Block(block.clone()),
                Scheme::Augmented => CertJob::Augmented {
                    block: block.clone(),
                    indexes: inputs.clone(),
                },
                Scheme::Hierarchical => CertJob::Hierarchical {
                    block: block.clone(),
                    indexes: inputs.clone(),
                },
            })
            .collect();
        group.bench_function(BenchmarkId::new("pipelined4", label), |b| {
            b.iter_batched(
                || (boot(), jobs.clone()),
                |(ci, jobs)| certify_pipelined(ci, jobs),
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
