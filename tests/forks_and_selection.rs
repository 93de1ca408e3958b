//! Fork handling: the header store's longest-chain rule, the superlight
//! client's chain-selection check, and certified blocks across competing
//! branches.

use dcert::chain::{ChainStore, FullNode};
use dcert::primitives::hash::Address;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;

#[test]
fn store_follows_longest_certified_branch() {
    let mut world = World::pow(&[]);
    let mut store = ChainStore::new(world.genesis.header.clone()).unwrap();

    // Branch A: mined by `world.miner` (2 blocks).
    let a1 = world.miner.mine(Vec::new(), 10).unwrap();
    let a2 = world.miner.mine(Vec::new(), 11).unwrap();

    // Branch B: an independent miner on the same genesis (3 blocks).
    let mut rival = FullNode::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Address::from_seed(0x5eed),
    );
    let b1 = rival.mine(Vec::new(), 20).unwrap();
    let b2 = rival.mine(Vec::new(), 21).unwrap();
    let b3 = rival.mine(Vec::new(), 22).unwrap();

    for header in [&a1, &a2, &b1, &b2, &b3] {
        store.insert(header.header.clone()).unwrap();
    }
    assert_eq!(store.best_hash(), b3.hash(), "longest branch wins");
    assert_eq!(store.best_header().height, 3);
    assert_eq!(store.canonical_chain().len(), 4);
}

#[test]
fn client_follows_whichever_certified_branch_is_longer() {
    // Two CIs certify two competing branches; the client ends on the
    // longer one and refuses to roll back.
    let mut world = World::pow(&[]);

    // CI certifies branch A (2 blocks).
    let a1 = world.miner.mine(Vec::new(), 10).unwrap();
    let (ca1, _) = world.ci.certify_block(&a1).unwrap();
    let a2 = world.miner.mine(Vec::new(), 11).unwrap();
    let (ca2, _) = world.ci.certify_block(&a2).unwrap();

    // A second CI certifies branch B (3 blocks) from the same genesis.
    let mut rival_miner = FullNode::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Address::from_seed(7777),
    );
    let mut rival_ci = dcert::core::CertificateIssuer::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        dcert::sgx::CostModel::zero(),
    )
    .unwrap();
    let b1 = rival_miner.mine(Vec::new(), 20).unwrap();
    rival_ci.certify_block(&b1).unwrap();
    let b2 = rival_miner.mine(Vec::new(), 21).unwrap();
    rival_ci.certify_block(&b2).unwrap();
    let b3 = rival_miner.mine(Vec::new(), 22).unwrap();
    let (cb3, _) = rival_ci.certify_block(&b3).unwrap();

    // Client sees branch A first...
    world.client.validate_chain(&a1.header, &ca1).unwrap();
    world.client.validate_chain(&a2.header, &ca2).unwrap();
    assert_eq!(world.client.height(), Some(2));
    // ...then the longer branch B: accepted (higher height). Note the new
    // CI means a fresh attestation check, exercised here too.
    world.client.validate_chain(&b3.header, &cb3).unwrap();
    assert_eq!(world.client.height(), Some(3));
    // Rolling back to branch A is refused.
    assert!(world.client.validate_chain(&a2.header, &ca2).is_err());
}

#[test]
fn two_cis_same_measurement_are_interchangeable() {
    // Switching certification services only requires one new attestation
    // (Section 4.3); both enclaves run the same measured program.
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::DoNothing, 2, 5);

    let block1 = world.miner.mine(gen.next_block(1), 1).unwrap();
    let (cert1, _) = world.ci.certify_block(&block1).unwrap();

    let mut second_ci = dcert::core::CertificateIssuer::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        dcert::sgx::CostModel::zero(),
    )
    .unwrap();
    second_ci.certify_block(&block1).unwrap();
    let block2 = world.miner.mine(gen.next_block(1), 2).unwrap();
    let (cert2_from_second, _) = second_ci.certify_block(&block2).unwrap();

    assert_eq!(world.ci.measurement(), second_ci.measurement());
    assert_ne!(world.ci.pk_enc(), second_ci.pk_enc());

    world.client.validate_chain(&block1.header, &cert1).unwrap();
    world
        .client
        .validate_chain(&block2.header, &cert2_from_second)
        .unwrap();
    assert_eq!(world.client.height(), Some(2));
}
