//! IoT-device chain synchronization: superlight vs. traditional light
//! client.
//!
//! Simulates the paper's motivating scenario (Section 1): a
//! resource-limited device joining an established chain. The traditional
//! light client must download and validate every header; the DCert
//! superlight client fetches one header + one certificate. This example
//! builds a real certified chain and prints both cost curves — a live
//! miniature of Fig. 7.
//!
//! Run with: `cargo run --release --example iot_sync`

use dcert::baselines::TraditionalLightClient;
use dcert::core::{expected_measurement, SuperlightClient};
use dcert::sgx::cost::timed;
use dcert::sgx::CostModel;
use dcert::world::{Setup, World};

const CHAIN_LENGTH: u64 = 2_000;
const CHECKPOINTS: &[u64] = &[200, 500, 1000, 1500, 2000];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Proof-of-authority keeps the chain build fast; the comparison is
    // about client-side costs, not mining.
    let mut world = World::new(Setup::poa(CostModel::calibrated()));

    println!("building + certifying a {CHAIN_LENGTH}-block chain...");
    let mut headers = vec![world.genesis.header.clone()];
    let mut certs_at = std::collections::HashMap::new();
    for height in 1..=CHAIN_LENGTH {
        let block = world.mine(Vec::new());
        let (cert, _) = world.ci.certify_block(&block)?;
        headers.push(block.header.clone());
        if CHECKPOINTS.contains(&height) {
            certs_at.insert(height, (block.header.clone(), cert));
        }
    }

    println!();
    println!(
        "{:>8} | {:>22} | {:>22}",
        "height", "light client", "superlight client"
    );
    println!(
        "{:>8} | {:>10} {:>11} | {:>10} {:>11}",
        "", "storage", "bootstrap", "storage", "bootstrap"
    );
    println!("{}", "-".repeat(62));
    for &height in CHECKPOINTS {
        // Traditional light client: sync & validate all headers.
        let (light, light_time) = timed(|| {
            let mut light = TraditionalLightClient::new(world.genesis.header.clone())?;
            for header in &headers[1..=height as usize] {
                light.sync(header.clone(), world.engine.as_ref())?;
            }
            Ok::<_, Box<dyn std::error::Error>>(light)
        });
        let light = light?;
        let light_bytes = light.storage_bytes();

        // Superlight client: one certificate.
        let (header, cert) = &certs_at[&height];
        let (superlight, super_time) = timed(|| {
            let mut superlight =
                SuperlightClient::new(world.ias.public_key(), expected_measurement());
            superlight.validate_chain(header, cert).map(|_| superlight)
        });
        let superlight = superlight?;
        let super_bytes = superlight.storage_bytes();

        println!(
            "{height:>8} | {:>10} {:>11.2?} | {:>10} {:>11.2?}",
            format_bytes(light_bytes),
            light_time,
            format_bytes(super_bytes),
            super_time,
        );
    }
    println!();
    println!(
        "the superlight column is CONSTANT; the light-client column grows \
         linearly with the chain (Ethereum-equivalent: {} at height {}).",
        format_bytes(CHAIN_LENGTH as usize * 508),
        CHAIN_LENGTH
    );
    Ok(())
}

fn format_bytes(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.2} MB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.2} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}
