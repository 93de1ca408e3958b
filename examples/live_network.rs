//! The full Fig. 2 workflow over a faulty network: miner, Certificate
//! Issuer and superlight client, with every certificate crossing a seeded
//! fault-injection layer ([`SimNet`](dcert::core::SimNet)) that drops,
//! reorders, and partitions traffic.
//!
//! The miner mines the chain; the CI feeds it into its pipelined
//! certification engine ([`CertPipeline`]) whose issuer thread
//! broadcasts each certificate once, through the world's archive, the
//! moment the enclave signs it. The superlight client follows the chain
//! purely from the certificate stream, never seeing a block body; once the
//! network heals, it re-requests the heights the network ate, which the
//! archive republishes.
//!
//! Run with: `cargo run --release --example live_network`
//! Replay a specific fault schedule: `DCERT_CHAOS_SEED=42 cargo run ...`
//! Exits non-zero unless every job certifies and the client reaches the
//! tip.

use std::sync::Arc;

use dcert::core::{
    CertJob, CertPipeline, FaultConfig, Partition, PipelineConfig, SyncOutcome, Transport,
};
use dcert::sgx::CostModel;
use dcert::workloads::Workload;
use dcert::world::{Setup, World};

const BLOCKS: u64 = 30;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The certificate network: seeded faults (replayable via
    // DCERT_CHAOS_SEED), including a partition that cuts the client off
    // for three broadcasts mid-run.
    let seed = std::env::var("DCERT_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let mut faults = FaultConfig::default_chaos();
    faults.partitions.push(Partition {
        start: 10,
        end: 13,
        endpoints: vec![0], // the client
    });
    let mut world = World::new(Setup {
        cost: CostModel::calibrated(),
        net: (seed, faults),
        ..Setup::pow()
    });
    println!("[ net  ] chaos seed {seed}: 5% loss, reorder window 4, 3-block partition");

    let blocks = world.mine_blocks(Workload::SmallBank { customers: 64 }, BLOCKS as usize, 8, 3);
    let tip = world.miner.tip().hash();
    println!("[miner ] {BLOCKS} blocks mined, tip {tip}");

    // Certificate Issuer: blocks flow into the pipelined engine, whose
    // issuer thread broadcasts each certificate once through the archive (one
    // the network ate lands in the report's dead letters and is recovered
    // below via resync).
    let archive = world.archive.clone() as Arc<dyn Transport>;
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), archive);
    for block in blocks {
        pipeline.submit(CertJob::Block(block))?;
    }
    let (ci, report) = pipeline.shutdown();
    world.ci = ci;
    println!(
        "[  CI  ] pipeline drained: {} jobs, {} certificates, {} errors, \
         {} dead letters, {:>8.2?} total construction",
        report.jobs,
        report.block_certs + report.index_certs,
        report.errors.len(),
        report.dead_letters.len(),
        report.total_construction()
    );

    // Superlight client: follows the certificate stream only.
    let outcomes = world.deliver();
    let adopted = outcomes.iter().filter(|&o| *o == SyncOutcome::Adopted);
    println!(
        "[client] {} of {} deliveries adopted live, chain height {:?}",
        adopted.count(),
        outcomes.len(),
        world.client.height()
    );
    // The faults have done their damage: the network heals and the client
    // re-requests the heights it missed until the archive's tip.
    let rounds = world.converge();
    let height = world.client.height();
    println!("[client] chain height {height:?} after {rounds} resync rounds");
    println!("\nnetwork: {:?}", world.net.stats());
    // Exit non-zero (CI runs this example) unless every job certified and
    // the client followed the whole chain.
    if !report.errors.is_empty() || height != Some(BLOCKS) {
        let errors = report.errors;
        return Err(format!("pipeline errors {errors:?}, client height {height:?}").into());
    }
    println!(
        "final client state: height {BLOCKS} with {} bytes of storage — the whole \
         {BLOCKS}-block chain, validated without downloading a single block.",
        world.client.storage_bytes()
    );
    Ok(())
}
