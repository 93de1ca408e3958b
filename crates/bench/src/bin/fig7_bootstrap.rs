//! Figure 7: bootstrapping costs — storage (7a) and chain-validation time
//! (7b) of the traditional light client vs. the DCert superlight client,
//! as the chain grows.
//!
//! Paper result: the light client grows linearly (7.93 GB of headers for
//! Ethereum); the superlight client is constant at **2.97 KB** storage and
//! **0.14 ms** validation.
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig7_bootstrap`
//! (use `DCERT_SCALE=0.05` for a quick pass).

#![forbid(unsafe_code)]

use dcert::world::{Setup, World};
use dcert_baselines::TraditionalLightClient;
use dcert_bench::params::{scaled, CHAIN_LENGTHS};
use dcert_bench::report::{banner, fmt_bytes};
use dcert_bench::shape;
use dcert_bench::timing;
use dcert_core::{expected_measurement, SuperlightClient};
use dcert_obs::Registry;
use dcert_sgx::cost::timed;
use dcert_sgx::CostModel;

fn main() {
    banner(
        "Figure 7: bootstrapping cost (storage & validation time)",
        "light client linear in chain length; superlight constant (~KB, sub-ms)",
    );

    let lengths: Vec<u64> = CHAIN_LENGTHS.iter().map(|&n| scaled(n)).collect();
    let max = *lengths.last().expect("non-empty grid");

    // Build one certified chain to the maximum length, checkpointing the
    // certificate at each measured height.
    eprintln!("building a certified {max}-block chain...");
    let obs = Registry::new();
    let mut world = World::new(Setup {
        registry: obs.clone(),
        ..Setup::poa(CostModel::calibrated())
    });
    let mut headers = vec![world.genesis.header.clone()];
    let mut checkpoints = std::collections::HashMap::new();
    for height in 1..=max {
        let block = world.mine(Vec::new());
        let (cert, _) = world.ci.certify_block(&block).expect("certifies");
        headers.push(block.header.clone());
        if lengths.contains(&height) {
            checkpoints.insert(height, (block.header.clone(), cert));
        }
        if height % 10_000 == 0 {
            eprintln!("  ... {height}/{max}");
        }
    }

    println!(
        "{:>9} | {:>12} {:>12} {:>31} | {:>10} {:>31}",
        "blocks", "LC storage", "LC (ETH eq)", "LC validate", "SL storage", "SL validate"
    );
    println!("{}", "-".repeat(118));
    let (mut light_storage, mut superlight_storage) = (Vec::new(), Vec::new());
    for &height in &lengths {
        // Traditional light client: store + validate every header.
        let mut light = TraditionalLightClient::new(world.genesis.header.clone()).unwrap();
        for header in &headers[1..=height as usize] {
            light
                .sync(header.clone(), world.engine.as_ref())
                .expect("header syncs");
        }

        let ([light_time], ()) = timing::repeat("", || {
            let (verdict, time) = timed(|| light.validate_all(world.engine.as_ref()));
            ([time], verdict.expect("chain valid"))
        });

        // Superlight client: one header + one certificate, fresh each run.
        let (header, cert) = &checkpoints[&height];
        let ([superlight_time], superlight_bytes) = timing::repeat("superlight storage", || {
            let mut client = SuperlightClient::new(world.ias.public_key(), expected_measurement());
            let (verdict, time) = timed(|| client.validate_chain(header, cert));
            verdict.expect("cert valid");
            ([time], client.storage_bytes())
        });

        println!(
            "{height:>9} | {:>12} {:>12} {light_time:>31} | {:>10} {superlight_time:>31}",
            fmt_bytes(light.storage_bytes()),
            fmt_bytes(light.ethereum_equivalent_bytes()),
            fmt_bytes(superlight_bytes),
        );
        light_storage.push(light.storage_bytes());
        superlight_storage.push(superlight_bytes);
        if shape::wall_clock() {
            assert!(
                superlight_time.median < light_time.median,
                "{height} blocks: one certificate must validate faster than {height} headers"
            );
        }
    }
    // Fig. 7a: the light client stores every header, the superlight client
    // one header and one certificate whatever the chain length.
    shape::grows_with("light-client storage", &lengths, &light_storage);
    shape::constant("superlight storage", &superlight_storage);
    shape::recorded(
        &obs,
        &["enclave.ecalls", "enclave.bytes_in"],
        &["enclave.crossing_bytes"],
    );
    timing::note();
}
