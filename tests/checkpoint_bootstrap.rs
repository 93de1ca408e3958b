//! CI checkpoint bootstrap: thanks to the recursive certificate design, a
//! new Certificate Issuer can join mid-chain from (header, certificate,
//! snapshot) and continue certification — no genesis replay.

use dcert::chain::ChainState;
use dcert::core::{CertError, CertificateIssuer};
use dcert::sgx::CostModel;
use dcert::vm::StateKey;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;

/// Runs a chain to height 5, returning the world plus the checkpoint
/// block/cert and the CI's state snapshot.
fn certified_prefix() -> (
    World,
    dcert::chain::Block,
    dcert::core::Certificate,
    ChainState,
) {
    let mut world = World::pow(&[]);
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 5);
    let mut latest = None;
    for height in 1..=5u64 {
        let block = world.miner.mine(gen.next_block(4), height).unwrap();
        let (cert, _) = world.ci.certify_block(&block).unwrap();
        latest = Some((block, cert));
    }
    let (block, cert) = latest.unwrap();
    let snapshot = world.ci.node().state().clone();
    (world, block, cert, snapshot)
}

#[test]
fn new_ci_continues_from_certified_checkpoint() {
    let (mut world, checkpoint, cert, snapshot) = certified_prefix();

    let mut late_ci = CertificateIssuer::new_from_checkpoint(
        world.genesis.hash(),
        &checkpoint.header,
        &cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    )
    .unwrap();
    assert_eq!(late_ci.node().height(), 5);

    // The late CI certifies blocks 6..8; the original client accepts the
    // cross-CI chain (one extra attestation, then cached).
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 99);
    let mut latest = None;
    for height in 6..=8u64 {
        let block = world.miner.mine(gen.next_block(4), height).unwrap();
        let (cert, _) = late_ci.certify_block(&block).unwrap();
        latest = Some((block, cert));
    }
    let (block, cert) = latest.unwrap();
    world.client.validate_chain(&block.header, &cert).unwrap();
    assert_eq!(world.client.height(), Some(8));
}

#[test]
fn tampered_snapshot_is_rejected() {
    let (mut world, checkpoint, cert, mut snapshot) = certified_prefix();
    // Flip one state entry: the snapshot no longer matches the certified
    // state root.
    snapshot.set(
        StateKey::new("kvstore", b"injected"),
        b"stolen funds".to_vec(),
    );
    let result = CertificateIssuer::new_from_checkpoint(
        world.genesis.hash(),
        &checkpoint.header,
        &cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    );
    assert!(matches!(result, Err(CertError::StateRootMismatch)));
}

#[test]
fn forged_checkpoint_cert_is_rejected() {
    let (mut world, checkpoint, _cert, snapshot) = certified_prefix();
    // A certificate for a different header cannot anchor this checkpoint.
    let other_block = world.miner.mine(Vec::new(), 6).unwrap();
    let (other_cert, _) = world.ci.certify_block(&other_block).unwrap();
    let result = CertificateIssuer::new_from_checkpoint(
        world.genesis.hash(),
        &checkpoint.header,
        &other_cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    );
    assert!(matches!(result, Err(CertError::DigestMismatch)));
}

#[test]
fn checkpoint_ci_rejects_non_extending_blocks() {
    let (mut world, checkpoint, cert, snapshot) = certified_prefix();
    let mut late_ci = CertificateIssuer::new_from_checkpoint(
        world.genesis.hash(),
        &checkpoint.header,
        &cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    )
    .unwrap();
    // Replaying the checkpoint block itself (height 5) is refused.
    let stale = world.miner.tip().clone();
    assert_eq!(stale.height, 5);
    // Build a fake "block 5" body — it cannot extend the tip at height 5.
    let fake = dcert::chain::Block {
        header: stale,
        txs: Vec::new(),
    };
    assert!(late_ci.certify_block(&fake).is_err());
}
