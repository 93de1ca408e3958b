//! Shard-scaling figure for the sharded certification fleet: certs/sec
//! at shard counts 1, 2, 4, 8 against a sequential deterministic issuer
//! on the same chain, with the recursive-aggregation overhead split out.
//!
//! Every fleet configuration must produce a certificate stream
//! **byte-identical** to the sequential issuer's at every height — the
//! binary asserts that inline, per shard count, so the throughput axis
//! can never be bought with output drift.
//!
//! Expected result: with enough cores, wall-clock certification scales
//! with the shard count while aggregation stays a small signing-only
//! epilogue (asserted at full scale on machines with ≥4 cores: ≥1.8× at
//! 4 shards, and shard=1 within 5% of sequential). The cost model sits at
//! the severe end of published in-EPC slowdowns: the heavier the
//! enclave tax on trusted compute, the more a fleet has to parallelize
//! — which is exactly the regime this figure studies.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_shard_scaling`

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_duration};
use dcert_bench::{shape, Rig, RigConfig};
use dcert_chain::Block;
use dcert_core::{Certificate, CertificateIssuer, ShardFleetConfig, ShardedCertEngine};
use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_sgx::CostModel;
use dcert_workloads::Workload;

/// Shard counts swept; the speed-up claim is about the 4-shard entry.
const SHARD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Blocks per `RangeSigGen` ECall inside each shard.
const CHUNK: u64 = 4;

/// Deterministic seeds shared by the sequential issuer and every fleet —
/// the precondition for byte-identical output.
const PLATFORM_SEED: [u8; 32] = [0xC1; 32];
const SIGNING_SEED: [u8; 32] = [0x51; 32];

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

    // One deterministic world: the rig's PoA-sealed chain, which both the
    // sequential issuer and every fleet certify (the rig's own CI idles).
    let mut rig = Rig::new(RigConfig::default());
    eprintln!("mining {chain_len} blocks ({txs_per_block} txs each)...");
    let mut gen = rig.generator(Workload::SmallBank { customers: 64 }, 7);
    let blocks: Vec<Block> = (0..chain_len)
        .map(|_| rig.mine(gen.next_block(txs_per_block)))
        .collect();
    let Rig {
        genesis,
        genesis_state,
        executor,
        engine,
        mut ias,
        ..
    } = rig;

    // The sequential baseline: one deterministic CI, one block per ECall.
    eprintln!("sequential baseline...");
    let mut ci = CertificateIssuer::new_deterministic(
        PLATFORM_SEED,
        SIGNING_SEED,
        &genesis,
        genesis_state.clone(),
        executor.clone(),
        engine.clone(),
        Vec::new(),
        &mut ias,
        cost,
    )
    .expect("sequential CI boots");
    let started = Instant::now();
    let seq_certs: Vec<Certificate> = blocks
        .iter()
        .map(|b| ci.certify_block(b).expect("sequential certify").0)
        .collect();
    let seq_elapsed = started.elapsed();

    let obs = Registry::new();
    // A speed-up is only a claim where there are cores to show it and a
    // chain long enough to time.
    let timed = shape::wall_clock() && cores >= 4;

    println!(
        "{:>6} | {:>12} {:>10} {:>8} | {:>12} {:>7}",
        "shards", "elapsed", "certs/s", "speedup", "aggregation", "agg %"
    );
    println!("{}", "-".repeat(68));
    println!(
        "{:>6} | {:>12} {:>10.1} {:>7.2}x | {:>12} {:>7}",
        "seq",
        fmt_duration(seq_elapsed),
        chain_len as f64 / seq_elapsed.as_secs_f64(),
        1.0,
        "-",
        "-"
    );

    for &shards in SHARD_COUNTS {
        let mut config = ShardFleetConfig::new(shards, CHUNK);
        config.registry = obs.clone();
        let mut fleet = ShardedCertEngine::new_deterministic(
            PLATFORM_SEED,
            SIGNING_SEED,
            &genesis,
            genesis_state.clone(),
            executor.clone(),
            engine.clone(),
            cost,
            config,
        )
        .expect("fleet configures");

        // Aggregation time for this run is the growth of the fold timer.
        let fold_before = fold_ns(&obs);
        let started = Instant::now();
        let certs = fleet
            .certify_chain(&blocks, &mut ias)
            .expect("fleet certifies");
        let elapsed = started.elapsed();
        let agg = Duration::from_nanos(fold_ns(&obs).saturating_sub(fold_before));

        // Byte-identity at every height, or the throughput is meaningless.
        assert_eq!(certs.len(), seq_certs.len(), "{shards} shards: cert count");
        for (at, (seq, fleet_cert)) in seq_certs.iter().zip(&certs).enumerate() {
            assert_eq!(
                seq.to_encoded_bytes(),
                fleet_cert.to_encoded_bytes(),
                "{shards} shards: certificate bytes diverge at height {}",
                at + 1
            );
        }

        let speedup = seq_elapsed.as_secs_f64() / elapsed.as_secs_f64();
        println!(
            "{shards:>6} | {:>12} {:>10.1} {:>7.2}x | {:>12} {:>6.1}%",
            fmt_duration(elapsed),
            chain_len as f64 / elapsed.as_secs_f64(),
            speedup,
            fmt_duration(agg),
            100.0 * agg.as_secs_f64() / elapsed.as_secs_f64(),
        );
        if timed && shards == 4 {
            assert!(
                speedup >= 1.8,
                "4 shards must be >= 1.8x sequential, got {speedup:.2}x"
            );
        }
        if timed && shards == 1 {
            assert!(
                speedup >= 1.0 / 1.05,
                "1 shard must stay within 5% of sequential, got {speedup:.2}x"
            );
        }
    }
    println!();
    println!(
        "({} blocks x {txs_per_block} txs, chunk {CHUNK}, {cores} core(s); \
         every fleet output byte-identical to sequential)",
        chain_len
    );
    if !timed {
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
