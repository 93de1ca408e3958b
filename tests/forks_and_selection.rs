//! Fork handling: the header store's longest-chain rule, the superlight
//! client's chain-selection check, and certified blocks across competing
//! branches.

use dcert::chain::{ChainStore, FullNode};
use dcert::core::{
    expected_measurement, CertError, CertificateIssuer, ShardFleetConfig, ShardedCertEngine,
    SuperlightClient,
};
use dcert::primitives::hash::Address;
use dcert::sgx::CostModel;
use dcert::world::{World, PLATFORM_SEED};

/// The platform a rival CI runs on.
const RIVAL_PLATFORM: [u8; 32] = [0x7A; 32];

/// A CI on [`RIVAL_PLATFORM`] with its key born on `Init`: the same
/// measured program as `world`'s CI, under its own key.
fn rival_ci(world: &mut World) -> CertificateIssuer {
    CertificateIssuer::new(
        RIVAL_PLATFORM,
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    )
    .unwrap()
}

/// A miner on `world`'s genesis, competing with `world.miner`.
fn rival_miner(world: &World) -> FullNode {
    FullNode::new(
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Address::from_seed(7777),
    )
}

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
    let mut rival_miner = rival_miner(&world);
    let mut rival_ci = rival_ci(&mut world);
    let b1 = rival_miner.mine(Vec::new(), 20).unwrap();
    rival_ci.certify_block(&b1).unwrap();
    let b2 = rival_miner.mine(Vec::new(), 21).unwrap();
    rival_ci.certify_block(&b2).unwrap();
    let b3 = rival_miner.mine(Vec::new(), 22).unwrap();
    let (cb3, _) = rival_ci.certify_block(&b3).unwrap();
    // Both enclaves run the same measured program under their own keys:
    // switching certification services takes one new attestation (§4.3).
    assert_eq!(world.ci.measurement(), rival_ci.measurement());
    assert_ne!(world.ci.pk_enc(), rival_ci.pk_enc());

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

/// What a replayed seal could do, a second CI does without one: with the
/// same measurement it certifies a competing, validly mined h1, and two
/// clients with the same anchors each adopt a different h1. Clients trust
/// a measurement, not a key (DESIGN.md §10). The watermark orders one
/// key's signatures: the first CI's key, sealed at height 1, refuses the
/// rival's h1.
#[test]
fn a_rival_ci_with_the_same_measurement_certifies_a_competing_h1() {
    let mut world = World::pow(&[]);
    let a1 = world.miner.mine(Vec::new(), 10).unwrap();
    let (ca1, _) = world.ci.certify_block(&a1).unwrap();
    let b1 = rival_miner(&world).mine(Vec::new(), 20).unwrap();
    let mut rival_ci = rival_ci(&mut world);
    let (cb1, _) = rival_ci.certify_block(&b1).unwrap();
    assert_eq!(world.ci.measurement(), rival_ci.measurement());
    assert_ne!(a1.hash(), b1.hash(), "two competing heights 1");

    let client = || SuperlightClient::new(world.ias.public_key(), expected_measurement());
    let (mut first, mut second) = (client(), client());
    first.validate_chain(&a1.header, &ca1).unwrap();
    second.validate_chain(&b1.header, &cb1).unwrap();
    assert_eq!(first.latest_header(), Some(&a1.header));
    assert_eq!(second.latest_header(), Some(&b1.header));

    // The first CI's enclave, restored from its key sealed at height 1,
    // is offered the rival's h1: its watermark refuses it.
    let sealed = world.ci.seal_enclave_key();
    let mut first_ci = ShardedCertEngine::from_sealed_key(
        PLATFORM_SEED,
        &sealed,
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        CostModel::zero(),
        ShardFleetConfig::new(1, 1),
    )
    .unwrap();
    assert_eq!(
        first_ci.certify_chain(&[b1], &mut world.ias),
        Err(CertError::HeightRegression {
            last_signed: 1,
            offered: 1,
        })
    );
}
