//! The Fig. 2 certification workflow as concurrent actors: a miner thread
//! publishes blocks, a CI thread certifies and broadcasts certificates,
//! and a superlight client thread follows the chain — all over the gossip
//! bus, with no shared state beyond the network.

use std::sync::Arc;
use std::thread;

use dcert::core::{expected_measurement, Gossip, NetMessage, SuperlightClient};
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;

const BLOCKS: u64 = 12;

#[test]
fn miner_ci_client_pipeline_over_gossip() {
    let world = World::pow(&[]);
    let bus = Arc::new(Gossip::new());

    // The CI and client join before the miner starts publishing.
    let ci_rx = bus.join();
    let client_rx = bus.join();

    // Miner actor: mines BLOCKS blocks and shuts the network down.
    let miner_bus = bus.clone();
    let mut miner = world.miner;
    let miner_thread = thread::spawn(move || {
        let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 7);
        for height in 1..=BLOCKS {
            let block = miner.mine(gen.next_block(3), height).expect("mines");
            miner_bus.publish(NetMessage::Block(block));
        }
        miner_bus.publish(NetMessage::Shutdown);
    });

    // CI actor: certifies blocks in arrival order, broadcasts certificates.
    let ci_bus = bus.clone();
    let mut ci = world.ci;
    let ci_thread = thread::spawn(move || {
        let mut certified = 0u64;
        for msg in ci_rx {
            match msg {
                NetMessage::Block(block) => {
                    let header = block.header.clone();
                    let (cert, _) = ci.certify_block(&block).expect("certifies");
                    ci_bus.publish(NetMessage::BlockCert { header, cert });
                    certified += 1;
                }
                NetMessage::Shutdown => {
                    // Relay shutdown so downstream actors know the last
                    // certificate has been published.
                    ci_bus.publish(NetMessage::Shutdown);
                    break;
                }
                _ => {}
            }
        }
        certified
    });

    // Client actor: adopts every certificate that extends its chain.
    let ias_key = world.ias.public_key();
    let client_thread = thread::spawn(move || {
        let mut client = SuperlightClient::new(ias_key, expected_measurement());
        let mut adopted = 0u64;
        let mut shutdowns = 0;
        for msg in client_rx {
            match msg {
                NetMessage::BlockCert { header, cert }
                    if client.validate_chain(&header, &cert).is_ok() =>
                {
                    adopted += 1;
                }
                // First shutdown: the miner is done; second: the CI has
                // published its last certificate.
                NetMessage::Shutdown => {
                    shutdowns += 1;
                    if shutdowns == 2 {
                        break;
                    }
                }
                _ => {}
            }
        }
        (client.height(), adopted)
    });

    miner_thread.join().unwrap();
    let certified = ci_thread.join().unwrap();
    assert_eq!(certified, BLOCKS);
    // Publishes are serialized, so the client saw every certificate before
    // the CI's shutdown relay: it adopted the full chain in order.
    let (height, adopted) = client_thread.join().unwrap();
    assert_eq!(adopted, BLOCKS);
    assert_eq!(height, Some(BLOCKS));
}

#[test]
fn client_handles_reordered_certificates() {
    // Gossip gives no cross-publisher ordering; simulate reordering by
    // delivering certs newest-first. The chain-selection rule adopts the
    // newest and rejects the stale rest — no crash, correct final state.
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::DoNothing, 4, 1);
    let mut certified = Vec::new();
    for height in 1..=5u64 {
        let block = world.miner.mine(gen.next_block(1), height).unwrap();
        let (cert, _) = world.ci.certify_block(&block).unwrap();
        certified.push((block.header.clone(), cert));
    }
    certified.reverse();
    let mut adopted = 0;
    for (header, cert) in &certified {
        if world.client.validate_chain(header, cert).is_ok() {
            adopted += 1;
        }
    }
    assert_eq!(adopted, 1, "only the newest certificate is adopted");
    assert_eq!(world.client.height(), Some(5));
}
