//! Figure 10: augmented vs. hierarchical certificate construction as the
//! number of authenticated indexes grows (1–5).
//!
//! Paper result: the augmented scheme grows steeply (it replays block
//! validation once per index), the hierarchical scheme only slightly (one
//! block certificate plus cheap per-index ECalls).
//!
//! Departure from the paper's schedule: Algorithm 5 as printed crosses
//! `n + 1` times (the block, then each index leaning on `cert_i`); this
//! reproduction issues it as **one** crossing that replays the block once
//! and signs the block certificate and every index certificate off that
//! replay — every check of Algorithms 2, 4 and 5 kept, the certificates
//! byte-identical (DESIGN.md §4). So the paper's "augmented slightly ahead
//! at 1 index (one fewer ECall)" does not carry over: at one index the
//! fused request is the augmented request's work plus one block signature
//! and one anchor check in the same single crossing, and the two are within
//! noise.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig10_index_certs`

#![forbid(unsafe_code)]

use dcert_bench::params::{scaled, BLOCKS_PER_MEASUREMENT, DEFAULT_BLOCK_SIZE, INDEX_COUNTS};
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::{shape, Rig, RigConfig, Scheme};
use dcert_obs::Registry;
use dcert_query::sp::IndexKind;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

fn indexes(count: usize) -> Vec<(IndexKind, String)> {
    (0..count)
        .map(|i| {
            // Alternate index families, as a versatile deployment would.
            if i % 2 == 0 {
                (IndexKind::History, format!("history-{i}"))
            } else {
                (IndexKind::Inverted, format!("inverted-{i}"))
            }
        })
        .collect()
}

fn measure(
    scheme: Scheme,
    count: usize,
    blocks: u64,
    obs: &Registry,
) -> (std::time::Duration, f64) {
    let mut rig = Rig::new(RigConfig {
        cost: CostModel::calibrated(),
        indexes: indexes(count),
        obs: obs.clone(),
    });
    let result = rig.run(
        Workload::KvStore { keyspace: 500 },
        blocks,
        DEFAULT_BLOCK_SIZE,
        42,
        scheme,
    );
    let avg = result.average();
    (avg.total(), avg.ecalls)
}

fn main() {
    banner(
        "Figure 10: augmented vs hierarchical certificates vs #indexes",
        "augmented steep-linear (replays per index); hierarchical shallow, \
         one crossing a block whatever the index count",
    );
    let blocks = scaled(BLOCKS_PER_MEASUREMENT);
    println!(
        "{:>8} | {:>12} {:>7} | {:>12} {:>7}",
        "#indexes", "augmented", "ecalls", "hierarchical", "ecalls"
    );
    println!("{}", "-".repeat(56));
    let obs = Registry::new();
    for &count in INDEX_COUNTS {
        let (aug, aug_ecalls) = measure(Scheme::Augmented, count, blocks, &obs);
        let (hier, hier_ecalls) = measure(Scheme::Hierarchical, count, blocks, &obs);
        println!(
            "{count:>8} | {:>12} {aug_ecalls:>7.1} | {:>12} {hier_ecalls:>7.1}",
            fmt_duration(aug),
            fmt_duration(hier),
        );
        // Algorithm 4 replays the block once per index; Algorithm 5 replays
        // it once and signs everything in that one crossing.
        assert_eq!(aug_ecalls, count as f64, "augmented: one ECall per index");
        assert_eq!(hier_ecalls, 1.0, "hierarchical: one ECall per block");
        if shape::wall_clock() && count >= 2 {
            assert!(
                hier < aug,
                "{count} indexes: hierarchical ({hier:?}) must undercut augmented ({aug:?})"
            );
        }
    }
    println!();
    println!("(KV workload, block size = {DEFAULT_BLOCK_SIZE} txs, {blocks} blocks per point)");
    shape::recorded(&obs, &["enclave.ecalls"], &["sp.cert_bytes"]);
}
