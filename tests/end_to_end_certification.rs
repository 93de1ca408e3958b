//! End-to-end certification: mine → certify → validate, across every
//! Blockbench workload, asserting the paper's constant-cost claims.

use dcert::baselines::TraditionalLightClient;
use dcert::core::CertError;
use dcert::primitives::codec::Encode;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;

#[test]
fn certified_chain_validates_on_superlight_client() {
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 64 }, 8, 42);

    let mut last = None;
    for height in 1..=12u64 {
        let block = world.miner.mine(gen.next_block(4), height).unwrap();
        let (cert, breakdown) = world.ci.certify_block(&block).unwrap();
        assert!(breakdown.ecalls >= 1);
        last = Some((block, cert));
    }
    let (block, cert) = last.unwrap();
    world.client.validate_chain(&block.header, &cert).unwrap();
    assert_eq!(world.client.height(), Some(12));
}

#[test]
fn every_workload_certifies() {
    for workload in [
        Workload::DoNothing,
        Workload::CpuHeavy { size: 512 },
        Workload::IoHeavy { batch: 8 },
        Workload::KvStore { keyspace: 32 },
        Workload::SmallBank { customers: 32 },
    ] {
        let mut world = World::pow(&[]);
        let mut gen = WorkloadGen::new(workload, 8, 7);
        for height in 1..=3u64 {
            let block = world.miner.mine(gen.next_block(4), height).unwrap();
            world
                .ci
                .certify_block(&block)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.label()));
        }
        assert_eq!(world.ci.node().height(), 3, "{}", workload.label());
    }
}

#[test]
fn superlight_storage_is_constant_while_light_client_grows() {
    let mut world = World::pow(&[]);
    let mut light = TraditionalLightClient::new(world.genesis.header.clone()).unwrap();
    let mut gen = WorkloadGen::new(Workload::DoNothing, 4, 1);

    let mut client_storage_samples = Vec::new();
    for height in 1..=20u64 {
        let block = world.miner.mine(gen.next_block(1), height).unwrap();
        let (cert, _) = world.ci.certify_block(&block).unwrap();
        light
            .sync(block.header.clone(), world.engine.as_ref())
            .unwrap();
        world.client.validate_chain(&block.header, &cert).unwrap();
        client_storage_samples.push(world.client.storage_bytes());
    }
    // Superlight storage: identical at every height (constant).
    assert!(
        client_storage_samples.windows(2).all(|w| w[0] == w[1]),
        "superlight storage must be constant: {client_storage_samples:?}"
    );
    // Its constant is a few hundred bytes; the light client's is linear.
    assert!(client_storage_samples[0] < 4096);
    assert!(light.storage_bytes() > client_storage_samples[0] * 3);
    assert_eq!(light.len(), 21);
}

#[test]
fn certificates_are_transferable_bytes() {
    // A certificate survives serialization and still validates — clients
    // receive it over the network.
    use dcert::core::Certificate;
    use dcert::primitives::codec::Decode;

    let mut world = World::pow(&[]);
    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert, _) = world.ci.certify_block(&block).unwrap();
    let wire = cert.to_encoded_bytes();
    let received = Certificate::decode_all(&wire).unwrap();
    world
        .client
        .validate_chain(&block.header, &received)
        .unwrap();
}

#[test]
fn chain_selection_rejects_stale_and_equal_heights() {
    let mut world = World::pow(&[]);
    let b1 = world.miner.mine(Vec::new(), 1).unwrap();
    let (c1, _) = world.ci.certify_block(&b1).unwrap();
    let b2 = world.miner.mine(Vec::new(), 2).unwrap();
    let (c2, _) = world.ci.certify_block(&b2).unwrap();

    world.client.validate_chain(&b2.header, &c2).unwrap();
    // Replaying an older (lower-height) certified block must fail the
    // chain-selection rule even though the certificate itself is valid.
    assert!(matches!(
        world.client.validate_chain(&b1.header, &c1),
        Err(CertError::ChainSelection {
            current: 2,
            offered: 1
        })
    ));
    // Same-height replays fail too.
    assert!(matches!(
        world.client.validate_chain(&b2.header, &c2),
        Err(CertError::ChainSelection { .. })
    ));
}

#[test]
fn client_accepts_catch_up_jumps() {
    // A client that was offline can jump straight to the newest
    // certificate — that is the whole point of the scheme.
    let mut world = World::pow(&[]);
    let mut latest = None;
    for height in 1..=8u64 {
        let block = world.miner.mine(Vec::new(), height).unwrap();
        let (cert, _) = world.ci.certify_block(&block).unwrap();
        latest = Some((block, cert));
    }
    let (block, cert) = latest.unwrap();
    world.client.validate_chain(&block.header, &cert).unwrap();
    assert_eq!(world.client.height(), Some(8));
}

#[test]
fn breakdown_accounts_are_sane() {
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::SmallBank { customers: 16 }, 8, 3);
    let block = world.miner.mine(gen.next_block(8), 1).unwrap();
    let (_, breakdown) = world.ci.certify_block(&block).unwrap();
    assert_eq!(breakdown.ecalls, 1, "block certs take exactly one ECall");
    assert!(breakdown.request_bytes > 0);
    assert!(breakdown.response_bytes > 0);
    assert!(breakdown.total() >= breakdown.enclave_total);
}
