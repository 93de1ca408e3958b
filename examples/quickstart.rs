//! Quickstart: the full DCert pipeline in one file.
//!
//! Boots a chain, a miner, a simulated IAS, and an SGX-enabled Certificate
//! Issuer; mines and certifies a few blocks; then validates the whole
//! chain on a superlight client from nothing but the latest header and
//! certificate.
//!
//! Run with: `cargo run --example quickstart`

use dcert::primitives::codec::Encode;
use dcert::sgx::cost::timed;
use dcert::sgx::CostModel;
use dcert::workloads::Workload;
use dcert::world::{Setup, World};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The whole cast on one genesis: contracts + consensus, a miner,
    //    the simulated IAS, and the SGX-enabled Certificate Issuer, whose
    //    enclave holds (sk_enc, pk_enc) and is attested.
    let mut world = World::new(Setup::poa(CostModel::calibrated()));
    println!("genesis        {}", world.genesis.hash());
    println!("enclave        {}", world.ci.measurement());
    println!("pk_enc         {}", world.ci.pk_enc());

    // 2. Mine and certify blocks running the SmallBank workload.
    let mut gen = world.generator(Workload::SmallBank { customers: 100 }, 7);
    let mut latest = None;
    for height in 1..=10u64 {
        let block = world.mine(gen.next_block(16));
        let (cert, breakdown) = world.ci.certify_block(&block)?;
        println!(
            "block {height:>2}  txs={:>2}  cert in {:>8.2?} (enclave {:>8.2?}, overhead {:>7.2?})",
            block.txs.len(),
            breakdown.total(),
            breakdown.enclave_total,
            breakdown.enclave_overhead,
        );
        latest = Some((block, cert));
    }

    // 3. A superlight client bootstraps from ONE header + ONE certificate.
    let (block, cert) = latest.expect("blocks were mined");
    let client = &mut world.client;
    let (validated, elapsed) = timed(|| client.validate_chain(&block.header, &cert));
    validated?;

    println!();
    println!("superlight client validated the whole chain:");
    println!("  height        {}", client.height().unwrap());
    println!("  bootstrap     {elapsed:?}");
    println!(
        "  storage       {} bytes (header {} + certificate {})",
        client.storage_bytes(),
        block.header.encoded_len(),
        cert.size_bytes(),
    );
    Ok(())
}
