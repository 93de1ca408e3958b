//! Fork resolution with certified branches.
//!
//! Two miners race and produce competing branches; two Certificate Issuers
//! certify both. The example shows how (a) a fork-aware header store picks
//! the longest branch, and (b) a superlight client enforces the
//! chain-selection rule of Algorithm 3 — it follows height, never rolls
//! back, and rejects stale certified blocks.
//!
//! Run with: `cargo run --example fork_resolution`

use dcert::chain::ChainStore;
use dcert::workloads::Workload;
use dcert::world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two rival miners, each with its own CI, from the same genesis: two
    // worlds built alike share genesis, IAS and enclave program.
    let mut side_a = World::pow(&[]);
    let mut side_b = World::pow(&[]);
    let mut gen_a = side_a.generator(Workload::KvStore { keyspace: 16 }, 1);
    let mut gen_b = side_b.generator(Workload::KvStore { keyspace: 16 }, 2);

    // Branch A mines 2 blocks; branch B mines 3.
    let mut store = ChainStore::new(side_a.genesis.header.clone())?;
    let mut certified_a = Vec::new();
    for _ in 0..2 {
        let block = side_a.mine(gen_a.next_block(2));
        let (cert, _) = side_a.ci.certify_block(&block)?;
        store.insert(block.header.clone())?;
        certified_a.push((block, cert));
    }
    let mut certified_b = Vec::new();
    for _ in 0..3 {
        let block = side_b.mine(gen_b.next_block(2));
        let (cert, _) = side_b.ci.certify_block(&block)?;
        store.insert(block.header.clone())?;
        certified_b.push((block, cert));
    }

    println!("fork-aware store view:");
    println!("  branch A tip height 2: {}", certified_a[1].0.hash());
    println!("  branch B tip height 3: {}", certified_b[2].0.hash());
    println!(
        "  canonical tip:         {} (height {})",
        store.best_hash(),
        store.best_header().height
    );
    assert_eq!(store.best_hash(), certified_b[2].0.hash());

    // The superlight client first hears about branch A...
    let client = &mut side_a.client;
    let (a2, ca2) = &certified_a[1];
    client.validate_chain(&a2.header, ca2)?;
    println!(
        "\nclient adopted branch A at height {}",
        client.height().unwrap()
    );

    // ...then branch B's longer tip arrives: adopted.
    let (b3, cb3) = &certified_b[2];
    client.validate_chain(&b3.header, cb3)?;
    println!(
        "client switched to branch B at height {}",
        client.height().unwrap()
    );

    // A replay of branch A's certified tip is refused (chain selection).
    match client.validate_chain(&a2.header, ca2) {
        Err(e) => println!("stale branch A replay refused: {e}"),
        Ok(()) => unreachable!("chain selection must refuse rollbacks"),
    }
    Ok(())
}
