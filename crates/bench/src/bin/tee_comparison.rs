//! TEE portability (Section 6 of the paper): certificate construction
//! under cost models flavoured after different trusted-execution
//! technologies — Intel SGX, ARM TrustZone, AMD SEV-SNP — plus the
//! zero-cost model as the un-trusted floor.
//!
//! The paper notes DCert "can be deployed using any other TEE
//! implementations"; this experiment quantifies what each one's boundary
//! costs would do to per-block certification.
//!
//! Run with: `cargo run --release -p dcert-bench --bin tee_comparison`

#![forbid(unsafe_code)]

use dcert::world::{Scheme, Setup, World};
use dcert_bench::params::{scaled, BLOCKS_PER_MEASUREMENT, DEFAULT_BLOCK_SIZE};
use dcert_bench::report::AvgBreakdown;
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::shape;
use dcert_obs::Registry;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

fn main() {
    banner(
        "TEE comparison: certificate construction under different trust hardware",
        "transition/memory costs differ per TEE; the algorithm is unchanged (Section 6)",
    );
    let blocks = scaled(BLOCKS_PER_MEASUREMENT);
    let tees: &[(&str, CostModel)] = &[
        ("none (floor)", CostModel::zero()),
        ("Intel SGX", CostModel::calibrated()),
        ("ARM TrustZone", CostModel::trustzone()),
        ("AMD SEV-SNP", CostModel::sev_snp()),
    ];
    println!(
        "{:>14} | {:>10} {:>10} {:>9} | {:>10}",
        "TEE", "enclave", "trusted", "overhead", "total"
    );
    println!("{}", "-".repeat(64));
    let obs = Registry::new();
    let mut request_bytes = Vec::new();
    for (name, cost) in tees {
        let mut world = World::new(Setup {
            registry: obs.clone(),
            ..Setup::poa(*cost)
        });
        let result = world.run(
            Workload::SmallBank { customers: 500 },
            blocks,
            DEFAULT_BLOCK_SIZE,
            42,
            Scheme::BlockOnly,
        );
        let avg = AvgBreakdown::of(&result.breakdowns);
        println!(
            "{name:>14} | {:>10} {:>10} {:>8.2}x | {:>10}",
            fmt_duration(avg.enclave_total),
            fmt_duration(avg.enclave_trusted),
            avg.overhead_factor(),
            fmt_duration(avg.total()),
        );
        request_bytes.push(avg.request_bytes);
        if shape::wall_clock() {
            assert!(
                (1.0..=1.8).contains(&avg.overhead_factor()),
                "{name}: boundary overhead {:.2}x outside [1, 1.8]",
                avg.overhead_factor()
            );
        }
    }
    // The algorithm is unchanged across TEEs: same blocks, same requests.
    shape::constant("the marshalled request", &request_bytes);
    println!();
    println!("(SmallBank, block size = {DEFAULT_BLOCK_SIZE} txs, {blocks} blocks per TEE)");
    shape::recorded(&obs, &["enclave.ecalls"], &[]);
}
