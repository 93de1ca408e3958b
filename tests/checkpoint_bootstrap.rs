//! CI checkpoint bootstrap: thanks to the recursive certificate design, a
//! new Certificate Issuer can join mid-chain from (header, certificate,
//! snapshot) and continue certification — no genesis replay.

use dcert::chain::ChainState;
use dcert::core::{CertError, CertificateIssuer};
use dcert::sgx::CostModel;
use dcert::vm::StateKey;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;

/// The late CI's machine: not the world CI's platform.
const LATE_PLATFORM: [u8; 32] = [0x4C; 32];

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
        LATE_PLATFORM,
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
        LATE_PLATFORM,
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
        LATE_PLATFORM,
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
        LATE_PLATFORM,
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

/// A checkpoint-booted CI's key is sealed to the platform it named, so a
/// restart on that platform keeps `pk_enc` and goes on certifying.
#[test]
fn checkpoint_ci_key_resumes_on_its_platform() {
    let (mut world, checkpoint, cert, snapshot) = certified_prefix();
    let mut late_ci = CertificateIssuer::new_from_checkpoint(
        LATE_PLATFORM,
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
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 32 }, 8, 99);
    let block6 = world.miner.mine(gen.next_block(4), 6).unwrap();
    let (cert6, _) = late_ci.certify_block(&block6).unwrap();
    let sealed = late_ci.seal_enclave_key();

    let mut resumed = CertificateIssuer::resume_on_platform(
        LATE_PLATFORM,
        &sealed,
        world.genesis.hash(),
        &block6.header,
        &cert6,
        late_ci.node().state().clone(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    )
    .unwrap();
    assert_eq!(resumed.pk_enc(), late_ci.pk_enc());
    let block7 = world.miner.mine(gen.next_block(4), 7).unwrap();
    let (cert7, _) = resumed.certify_block(&block7).unwrap();
    world.client.validate_chain(&block7.header, &cert7).unwrap();
    assert_eq!(world.client.height(), Some(7));
}
