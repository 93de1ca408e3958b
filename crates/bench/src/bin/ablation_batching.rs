//! Ablation: per-block vs. batched certification.
//!
//! DCert certifies every block with one ECall; the batch extension signs a
//! single certificate for k consecutive blocks, amortizing the transition
//! and recursive-verification cost at the price of certification latency
//! (clients see one certificate per batch). This experiment measures the
//! amortization curve.
//!
//! Run with: `cargo run --release -p dcert-bench --bin ablation_batching`

#![forbid(unsafe_code)]

use dcert::world::{Setup, World};
use dcert_bench::params::scaled;
use dcert_bench::report::banner;
use dcert_bench::shape;
use dcert_bench::timing;
use dcert_obs::Registry;
use dcert_sgx::cost::timed;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

const TOTAL_BLOCKS: u64 = 32;

const BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    banner(
        "Ablation: per-block vs batched certification",
        "batching amortizes ECall + recursive-verification cost; latency grows with batch size",
    );
    let total = scaled(TOTAL_BLOCKS).max(8);
    println!(
        "{:>10} | {:>31} {:>31} | {:>8}",
        "batch size", "per block", "whole chain", "ecalls"
    );
    println!("{}", "-".repeat(88));

    let obs = Registry::new();
    let rows = timing::rounds("ecalls", BATCH_SIZES.len(), |row| {
        // Certification starts at genesis: a fresh world per repetition.
        let mut world = World::new(Setup {
            registry: obs.clone(),
            ..Setup::poa(CostModel::calibrated())
        });
        let mut gen = world.generator(Workload::KvStore { keyspace: 500 }, 42);
        let blocks: Vec<_> = (0..total).map(|_| world.mine(gen.next_block(32))).collect();
        let (ecalls, elapsed) = timed(|| {
            blocks
                .chunks(BATCH_SIZES[row])
                .map(|chunk| match chunk {
                    [block] => world.ci.certify_block(block),
                    _ => world.ci.certify_batch(chunk),
                })
                .map(|certified| certified.expect("certifies").1.ecalls)
                .sum::<u64>()
        });
        ([elapsed], ecalls)
    });
    for (batch, ([elapsed], ecalls)) in BATCH_SIZES.into_iter().zip(rows) {
        println!(
            "{batch:>10} | {:>31} {elapsed:>31} | {ecalls:>8}",
            elapsed.per(total as u32),
        );
        // What batching amortizes: one ECall per batch, not per block.
        assert_eq!(
            ecalls,
            total.div_ceil(batch as u64),
            "batch {batch}: one ECall per batch"
        );
    }
    timing::note();
    println!("(KV workload, 32-tx blocks, {total} blocks per configuration)");
    shape::recorded(&obs, &["enclave.ecalls"], &[]);
}
