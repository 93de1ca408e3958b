//! The full Fig. 2 workflow, live — over a faulty network: miner,
//! Certificate Issuer, and superlight client running as concurrent
//! actors, with every certificate crossing a seeded fault-injection
//! layer ([`SimNet`]) that drops, reorders, and partitions traffic.
//!
//! The miner hands blocks to the CI over a reliable sync channel (block
//! sync has its own retry story); the CI feeds them into its pipelined
//! certification engine ([`CertPipeline`]) whose publisher stage
//! broadcasts each certificate — through a [`CertArchive`], with acked
//! publish + retry — the moment the enclave signs it. The superlight
//! client follows the chain purely from the certificate stream, never
//! seeing a block body; when the network eats a certificate, the client
//! detects the gap and re-requests the missing heights, which the CI
//! answers from its archive.
//!
//! Run with: `cargo run --release --example live_network`
//! Replay a specific fault schedule: `DCERT_CHAOS_SEED=42 cargo run ...`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dcert::chain::{FullNode, GenesisBuilder, ProofOfWork};
use dcert::core::{
    expected_measurement, CertArchive, CertJob, CertPipeline, CertificateIssuer, FaultConfig,
    NetMessage, Partition, PipelineConfig, PublishPolicy, SimNet, SuperlightClient, SyncOutcome,
    Transport,
};
use dcert::primitives::hash::Address;
use dcert::sgx::{AttestationService, CostModel};
use dcert::vm::Executor;
use dcert::workloads::{blockbench_registry, Workload, WorkloadGen};

const BLOCKS: u64 = 30;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let executor = Executor::new(Arc::new(blockbench_registry()));
    let engine = Arc::new(ProofOfWork::new(10));
    let (genesis, state) = GenesisBuilder::new().build();

    let mut miner = FullNode::new(
        &genesis,
        state.clone(),
        executor.clone(),
        engine.clone(),
        Address::from_seed(1),
    );
    let mut ias = AttestationService::with_seed([42; 32]);
    let ci = CertificateIssuer::new(
        &genesis,
        state,
        executor,
        engine,
        Vec::new(),
        &mut ias,
        CostModel::calibrated(),
    )?;
    let ias_key = ias.public_key();

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
        endpoints: vec![0], // the client joins first
    });
    let net = Arc::new(SimNet::new(seed, faults));
    let client_rx = net.join();
    let ci_rx = net.join();
    let archive = Arc::new(CertArchive::new(net.clone() as Arc<dyn Transport>));
    println!("[ net  ] chaos seed {seed}: 5% loss, reorder window 4, 3-block partition");

    // Miner → CI: reliable block sync (the fault layer models the
    // certificate broadcast; block download has its own retries).
    let (block_tx, block_rx) = mpsc::sync_channel(4);
    let miner_thread = thread::spawn(move || {
        let mut gen = WorkloadGen::new(Workload::SmallBank { customers: 64 }, 16, 3);
        for height in 1..=BLOCKS {
            let block = miner.mine(gen.next_block(8), height).expect("mines");
            println!("[miner ] block {height:>3} mined        {}", block.hash());
            if block_tx.send(block).is_err() {
                break;
            }
        }
    });

    // Certificate Issuer: blocks flow into the pipelined engine, whose
    // publisher broadcasts through the archive and insists on at least
    // one confirmed delivery (retrying with backoff; a partitioned
    // client shows up as dead letters in the report, recovered below via
    // resync). After the chain is certified, the CI stays around as a
    // resync server answering CertRequest gossip from the archive.
    let done = Arc::new(AtomicBool::new(false));
    let ci_done = done.clone();
    let ci_archive = archive.clone();
    let ci_net = net.clone();
    let ci_thread = thread::spawn(move || {
        let config = PipelineConfig {
            publish: PublishPolicy::require_acks(1),
            ..PipelineConfig::default()
        };
        let pipeline = CertPipeline::spawn(ci, config, ci_archive.clone() as Arc<dyn Transport>);
        for block in block_rx {
            let height = block.header.height;
            pipeline.submit(CertJob::Block(block)).expect("accepts");
            println!("[  CI  ] block {height:>3} queued");
        }
        let (_ci, report) = pipeline.shutdown();
        println!(
            "[  CI  ] pipeline drained: {} jobs, {} certificates, {} errors, \
             {} dead letters, {:>8.2?} total construction",
            report.jobs,
            report.block_certs + report.index_certs,
            report.errors.len(),
            report.dead_letters.len(),
            report.total_construction()
        );
        // The chain is fully certified; the faults have done their
        // damage. Heal the network and serve resyncs until the client
        // has caught up.
        ci_net.heal();
        while !ci_done.load(Ordering::SeqCst) {
            if let Some(NetMessage::CertRequest { from, to }) =
                recv_within(Duration::from_millis(20), || ci_rx.try_recv().ok())
            {
                let served = ci_archive.republish(from, to);
                println!("[  CI  ] resync {from}..={to}: republished {served}");
            }
        }
    });

    // Superlight client: follows the certificate stream only, detecting
    // and repairing gaps the faulty network leaves.
    let client_done = done.clone();
    let client_net = net.clone();
    let client_thread = thread::spawn(move || {
        let mut client = SuperlightClient::new(ias_key, expected_measurement());
        while client.height() != Some(BLOCKS) {
            match recv_within(Duration::from_millis(50), || client_rx.try_recv().ok()) {
                Some(msg) => match client.on_message(&msg) {
                    SyncOutcome::Adopted => println!(
                        "[client] chain height {:>3} validated ({} bytes stored)",
                        client.height().unwrap(),
                        client.storage_bytes()
                    ),
                    SyncOutcome::Rejected(e) => println!("[client] rejected a certificate: {e}"),
                    _ => {}
                },
                None => {
                    // Quiet network but not caught up: ask for everything
                    // missed (`u64::MAX` = "and anything newer" — the CI
                    // serves whatever its archive holds in the range).
                    let from = client.height().unwrap_or(0) + 1;
                    println!("[client] gap detected, requesting {from}..");
                    client_net.publish(NetMessage::CertRequest { from, to: u64::MAX });
                }
            }
        }
        client_done.store(true, Ordering::SeqCst);
        client
    });

    miner_thread.join().unwrap();
    let client = client_thread.join().unwrap();
    ci_thread.join().unwrap();
    let stats = net.stats();
    println!(
        "\nnetwork: {} published, {} delivered, {} dropped, {} delayed, {} partitioned",
        stats.published, stats.delivered, stats.dropped, stats.delayed, stats.partitioned
    );
    println!(
        "final client state: height {} with {} bytes of storage — the whole \
         {BLOCKS}-block chain, validated without downloading a single block.",
        client.height().unwrap(),
        client.storage_bytes()
    );
    Ok(())
}

/// Polls `try_recv` until it yields or `deadline` passes — a receive with
/// a timeout built on `try_recv` alone.
fn recv_within<T>(deadline: Duration, mut try_recv: impl FnMut() -> Option<T>) -> Option<T> {
    let started = Instant::now();
    loop {
        if let Some(message) = try_recv() {
            return Some(message);
        }
        if started.elapsed() >= deadline {
            return None;
        }
        thread::sleep(Duration::from_millis(1));
    }
}
