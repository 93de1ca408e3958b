//! Shard-scaling figure for the sharded certification fleet: certs/sec
//! at shard counts 1, 2, 4, 8 against a sequential deterministic issuer
//! on the same chain, with the recursive-aggregation overhead split out.
//!
//! Every fleet run must produce a certificate stream **byte-identical**
//! to the sequential issuer's at every height — the binary asserts that
//! for every run of every row, so the throughput axis can never be
//! bought with output drift.
//!
//! Expected result: with enough cores, wall-clock certification scales
//! with the shard count while aggregation stays a small signing-only
//! epilogue (asserted on ratios of medians at full scale with ≥4 cores:
//! ≥1.8× at 4 shards, and shard=1 within 5% of sequential). The cost
//! model sits at the severe end of published in-EPC slowdowns: the
//! heavier the enclave tax on trusted compute, the more a fleet has to
//! parallelize — which is exactly the regime this figure studies.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_shard_scaling`

#![forbid(unsafe_code)]

use std::time::Duration;

use dcert::world::{assert_bytes_equal, Setup, World};
use dcert_bench::params::scaled;
use dcert_bench::report::banner;
use dcert_bench::shape;
use dcert_bench::timing;
use dcert_chain::Block;
use dcert_core::ShardFleetConfig;
use dcert_obs::Registry;
use dcert_sgx::cost::timed;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

/// Shard counts swept; the speed-up claim is about the 4-shard entry.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Blocks per `RangeSigGen` ECall inside each shard.
const CHUNK: u64 = 4;

fn main() {
    banner(
        "fig_shard_scaling: sharded fleet throughput vs the sequential issuer",
        "certification scales with shard count; aggregation is a signing-only epilogue",
    );
    let chain_len = scaled(64);
    let txs_per_block = 24;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Memory-bound enclave code at the severe end of the published
    // in-EPC slowdown range: trusted compute is what the fleet
    // parallelizes, so the slowdown percentage is the knob that makes
    // the scaling regime visible at bench-sized chains.
    let cost = CostModel {
        in_enclave_slowdown_pct: 400,
        ..CostModel::calibrated()
    };

    // One deterministic world under that cost model: every fleet it builds,
    // and every fresh world's sequential CI, shares its chain and seeds —
    // the precondition for byte-identical output.
    let mut world = World::new(Setup::poa(cost));
    eprintln!("mining {chain_len} blocks ({txs_per_block} txs each)...");
    let mut gen = world.generator(Workload::SmallBank { customers: 64 }, 7);
    let blocks: Vec<Block> = (0..chain_len)
        .map(|_| world.mine(gen.next_block(txs_per_block)))
        .collect();

    // Row 0 is the sequential baseline (one deterministic CI, one block
    // per ECall), then one row per shard count. Every run of a row must
    // sign the same certificate stream.
    let obs = Registry::new();
    let rows = timing::rounds("certificate stream", 1 + SHARD_COUNTS.len(), |row| {
        // Aggregation time for this run is the growth of the fold timer.
        let fold_before = fold_ns(&obs);
        let (certs, elapsed) = match row.checked_sub(1).map(|i| SHARD_COUNTS[i]) {
            // A fresh CI per repetition: its enclave signs a height once.
            None => {
                let mut sequential = World::new(Setup::poa(cost));
                timed(|| sequential.certify_blocks(&blocks))
            }
            Some(shards) => {
                let mut config = ShardFleetConfig::new(shards, CHUNK);
                config.registry = obs.clone();
                let mut fleet = world.fleet(config);
                let (certs, elapsed) = timed(|| fleet.certify_chain(&blocks, &mut world.ias));
                (certs.expect("fleet certifies"), elapsed)
            }
        };
        let agg = Duration::from_nanos(fold_ns(&obs).saturating_sub(fold_before));
        ([elapsed, agg], certs)
    });

    // A speed-up is only a claim where there are cores to show it and a
    // chain long enough to time.
    let timed_claim = shape::wall_clock() && cores >= 4;
    println!(
        "{:>6} | {:>31} {:>10} {:>8} | {:>31} {:>7}",
        "shards", "elapsed", "certs/s", "speedup", "aggregation", "agg %"
    );
    println!("{}", "-".repeat(104));
    let ([seq, _], seq_certs) = &rows[0];
    for (row, ([elapsed, agg], certs)) in rows.iter().enumerate() {
        let shards = row.checked_sub(1).map(|i| SHARD_COUNTS[i]);
        let label = shards.map_or("seq".to_owned(), |n| n.to_string());
        // Byte-identity at every height, or the throughput is meaningless.
        assert_bytes_equal(seq_certs, certs, &format!("{label} shards"));
        let secs = elapsed.median.as_secs_f64();
        let speedup = seq.median.as_secs_f64() / secs;
        println!(
            "{label:>6} | {elapsed:>31} {:>10.1} {speedup:>7.2}x | {agg:>31} {:>6.1}%",
            chain_len as f64 / secs,
            100.0 * agg.median.as_secs_f64() / secs,
        );
        if timed_claim && shards == Some(4) {
            assert!(
                speedup >= 1.8,
                "4 shards must be >= 1.8x sequential, got {speedup:.2}x"
            );
        }
        if timed_claim && shards == Some(1) {
            assert!(
                speedup >= 1.0 / 1.05,
                "1 shard must stay within 5% of sequential, got {speedup:.2}x"
            );
        }
    }
    timing::note();
    println!(
        "({} blocks x {txs_per_block} txs, chunk {CHUNK}, {cores} core(s); \
         every fleet output byte-identical to sequential; certs/s, speedup and \
         agg % from medians)",
        chain_len
    );
    if !timed_claim {
        println!("note: <4 cores or DCERT_SCALE < 1 — the speed-up claim is not asserted");
    }
    shape::recorded(
        &obs,
        &[
            "shard.ranges_certified",
            "shard.blocks_certified",
            "shard.agg.signatures",
        ],
        &["shard.agg.fold_ns"],
    );
}

/// Cumulative `shard.agg.fold_ns` time recorded so far.
fn fold_ns(obs: &Registry) -> u64 {
    obs.snapshot()
        .histograms
        .get("shard.agg.fold_ns")
        .map(|h| h.sum)
        .unwrap_or(0)
}
