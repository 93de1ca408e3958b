//! Figure 8: block-certificate construction time per Blockbench workload
//! (DN, CPU, IO, KV, SB), broken into outside-enclave pre-processing
//! (read/write-set generation, Merkle-proof generation) and inside-enclave
//! certificate generation, plus the enclave overhead factor.
//!
//! Paper result: the inside-enclave part dominates; the enclave adds at
//! most ~1.8× over the same logic untrusted; Merkle-proof generation is
//! negligible; total construction stays well under the block interval.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig8_cert_construction`

#![forbid(unsafe_code)]

use dcert_bench::params::{scaled, BLOCKS_PER_MEASUREMENT, DEFAULT_BLOCK_SIZE};
use dcert_bench::report::{banner, fmt_bytes, fmt_duration};
use dcert_bench::{shape, Rig, Scheme};
use dcert_obs::Registry;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

fn main() {
    banner(
        "Figure 8: certificate construction time by workload",
        "inside-enclave dominates; enclave overhead ≤ ~1.8×; proof-gen negligible",
    );
    // At least two blocks per rig: marshal-buffer reuse only starts with
    // the second request, and `enclave.marshal_reuse_bytes` is asserted
    // non-zero below even at smoke scale.
    let blocks = scaled(BLOCKS_PER_MEASUREMENT).max(2);
    println!(
        "{:>4} | {:>10} {:>10} | {:>10} {:>10} {:>9} | {:>10} {:>9}",
        "", "rw-set", "proof-gen", "enclave", "trusted", "overhead", "total", "req bytes"
    );
    println!("{}", "-".repeat(86));
    let obs = Registry::new();
    for workload in Workload::paper_defaults() {
        let mut rig = Rig::block_only(CostModel::calibrated(), &obs);
        let result = rig.run(workload, blocks, DEFAULT_BLOCK_SIZE, 42, Scheme::BlockOnly);
        let avg = result.average();
        println!(
            "{:>4} | {:>10} {:>10} | {:>10} {:>10} {:>8.2}x | {:>10} {:>9}",
            workload.label(),
            fmt_duration(avg.rw_set_gen),
            fmt_duration(avg.proof_gen),
            fmt_duration(avg.enclave_total),
            fmt_duration(avg.enclave_trusted),
            avg.overhead_factor(),
            fmt_duration(avg.total()),
            fmt_bytes(avg.request_bytes as usize),
        );
        assert_eq!(avg.ecalls, 1.0, "block-only certification is one ECall");
        if shape::wall_clock() {
            let label = workload.label();
            assert!(
                avg.overhead_factor() <= 1.8,
                "{label}: enclave overhead {:.2}x exceeds the paper's ~1.8x",
                avg.overhead_factor()
            );
            assert!(
                avg.enclave_trusted > avg.rw_set_gen + avg.proof_gen,
                "{label}: the trusted replay must dominate host-side pre-processing"
            );
            assert!(
                avg.proof_gen * 4 < avg.total(),
                "{label}: Merkle-proof generation must stay a minor share"
            );
        }
    }
    println!();
    println!(
        "(block size = {DEFAULT_BLOCK_SIZE} txs, {blocks} blocks per workload, averages \
         exclude the first warm-up block)"
    );
    shape::recorded(
        &obs,
        &[
            "enclave.ecalls",
            "enclave.bytes_in",
            "enclave.sim_charge_nanos",
            "enclave.marshal_reuse_bytes",
        ],
        &["enclave.crossing_bytes"],
    );
}
