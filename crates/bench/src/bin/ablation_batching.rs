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

use std::time::Instant;

use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::{shape, Rig};
use dcert_obs::Registry;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

const TOTAL_BLOCKS: u64 = 32;

fn main() {
    banner(
        "Ablation: per-block vs batched certification",
        "batching amortizes ECall + recursive-verification cost; latency grows with batch size",
    );
    let total = scaled(TOTAL_BLOCKS).max(8);
    println!(
        "{:>10} | {:>12} {:>12} | {:>8}",
        "batch size", "per block", "whole chain", "ecalls"
    );
    println!("{}", "-".repeat(52));

    let obs = Registry::new();
    for &batch in &[1usize, 2, 4, 8, 16] {
        let mut rig = Rig::block_only(CostModel::calibrated(), &obs);
        let mut gen = rig.generator(Workload::KvStore { keyspace: 500 }, 42);
        let blocks: Vec<_> = (0..total).map(|_| rig.mine(gen.next_block(32))).collect();

        let started = Instant::now();
        let mut ecalls = 0;
        for chunk in blocks.chunks(batch) {
            let (_, breakdown) = if chunk.len() == 1 {
                rig.ci.certify_block(&chunk[0]).expect("certifies")
            } else {
                rig.ci.certify_batch(chunk).expect("certifies")
            };
            ecalls += breakdown.ecalls;
        }
        let elapsed = started.elapsed();
        let per_block = elapsed / total as u32;
        println!(
            "{batch:>10} | {:>12} {:>12} | {ecalls:>8}",
            fmt_duration(per_block),
            fmt_duration(elapsed),
        );
        // What batching amortizes: one ECall per batch, not per block.
        assert_eq!(
            ecalls,
            total.div_ceil(batch as u64),
            "batch {batch}: one ECall per batch"
        );
    }
    println!();
    println!("(KV workload, 32-tx blocks, {total} blocks per configuration)");
    shape::recorded(&obs, &["enclave.ecalls"], &[]);
}
