//! Figure 9: impact of block size (number of transactions) on certificate
//! construction, for the two macro workloads KVStore and SmallBank.
//!
//! Paper result: construction time grows with the number of transactions;
//! the enclave share grows as the marshalled read/write sets and Merkle
//! proofs grow; the total stays within a practical range.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig9_block_size`

#![forbid(unsafe_code)]

use dcert_bench::params::{scaled, BLOCKS_PER_MEASUREMENT, BLOCK_SIZES};
use dcert_bench::report::{banner, fmt_bytes, fmt_duration};
use dcert_bench::{shape, Rig, Scheme};
use dcert_obs::Registry;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

fn main() {
    banner(
        "Figure 9: impact of block size on certificate construction (KV, SB)",
        "cost grows with #txs; enclave share grows with marshalled r/w-set bytes",
    );
    let blocks = scaled(BLOCKS_PER_MEASUREMENT);
    let workloads = [
        Workload::KvStore { keyspace: 500 },
        Workload::SmallBank { customers: 500 },
    ];
    println!(
        "{:>4} {:>6} | {:>10} {:>10} | {:>10} {:>9} | {:>10} {:>9}",
        "", "#txs", "rw-set", "proof-gen", "enclave", "overhead", "total", "req bytes"
    );
    println!("{}", "-".repeat(82));
    let obs = Registry::new();
    for workload in workloads {
        let (mut request_bytes, mut totals) = (Vec::new(), Vec::new());
        for &size in BLOCK_SIZES {
            let mut rig = Rig::block_only(CostModel::calibrated(), &obs);
            let result = rig.run(workload, blocks, size, 42, Scheme::BlockOnly);
            let avg = result.average();
            println!(
                "{:>4} {size:>6} | {:>10} {:>10} | {:>10} {:>8.2}x | {:>10} {:>9}",
                workload.label(),
                fmt_duration(avg.rw_set_gen),
                fmt_duration(avg.proof_gen),
                fmt_duration(avg.enclave_total),
                avg.overhead_factor(),
                fmt_duration(avg.total()),
                fmt_bytes(avg.request_bytes as usize),
            );
            assert_eq!(avg.ecalls, 1.0, "one ECall per block at every size");
            request_bytes.push(avg.request_bytes);
            totals.push(avg.total());
        }
        println!("{}", "-".repeat(82));
        // More transactions are more marshalled read/write-set and proof
        // bytes through the same single ECall — and, measured, more time.
        shape::grows_with("request bytes", BLOCK_SIZES, &request_bytes);
        if shape::wall_clock() {
            shape::grows_with("construction time", BLOCK_SIZES, &totals);
        }
    }
    shape::recorded(&obs, &["enclave.ecalls"], &[]);
}
