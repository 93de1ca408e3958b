//! CI restart with sealed keys: `sk_enc` survives an enclave restart on
//! the same platform (SGX sealed storage), so clients keep their cached
//! attestation and the certificate chain continues under one key.

use dcert::core::{CertError, CertificateIssuer};
use dcert::sgx::CostModel;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::{World, PLATFORM_SEED};

#[test]
fn restart_preserves_pk_enc_and_the_chain_continues() {
    let mut world = World::pow(&[]);
    let original_pk = world.ci.pk_enc();

    // Certify a few blocks, let the client follow.
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 16 }, 4, 7);
    let mut checkpoint = None;
    for height in 1..=4u64 {
        let block = world.miner.mine(gen.next_block(3), height).unwrap();
        let (cert, _) = world.ci.certify_block(&block).unwrap();
        world.client.validate_chain(&block.header, &cert).unwrap();
        checkpoint = Some((block.header.clone(), cert));
    }
    let (checkpoint_header, checkpoint_cert) = checkpoint.unwrap();

    // "Power cycle": seal the key, snapshot the state, drop the CI.
    let sealed = world.ci.seal_enclave_key();
    let snapshot = world.ci.node().state().clone();
    drop(world.ci);

    let mut resumed = CertificateIssuer::resume_on_platform(
        PLATFORM_SEED,
        &sealed,
        world.genesis.hash(),
        &checkpoint_header,
        &checkpoint_cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    )
    .unwrap();
    assert_eq!(
        resumed.pk_enc(),
        original_pk,
        "sk_enc must survive the restart"
    );

    // The resumed CI continues the chain and the client accepts without a
    // new key (its attestation cache still covers pk_enc).
    for height in 5..=7u64 {
        let block = world.miner.mine(gen.next_block(3), height).unwrap();
        let (cert, _) = resumed.certify_block(&block).unwrap();
        assert_eq!(cert.pk_enc, original_pk);
        world.client.validate_chain(&block.header, &cert).unwrap();
    }
    assert_eq!(world.client.height(), Some(7));
}

#[test]
fn sealed_key_does_not_open_on_another_machine() {
    let mut world = World::pow(&[]);
    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert, _) = world.ci.certify_block(&block).unwrap();
    let sealed = world.ci.seal_enclave_key();
    let snapshot = world.ci.node().state().clone();

    // A thief copies the blob to a different machine.
    let stolen = CertificateIssuer::resume_on_platform(
        [0xDD; 32],
        &sealed,
        world.genesis.hash(),
        &block.header,
        &cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    );
    assert!(matches!(stolen, Err(CertError::Attestation(_))));
}

#[test]
fn tampered_sealed_blob_rejected() {
    let mut world = World::pow(&[]);
    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert, _) = world.ci.certify_block(&block).unwrap();
    let mut sealed = world.ci.seal_enclave_key();
    sealed.ciphertext[0] ^= 0xff;
    let snapshot = world.ci.node().state().clone();

    let result = CertificateIssuer::resume_on_platform(
        PLATFORM_SEED,
        &sealed,
        world.genesis.hash(),
        &block.header,
        &cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    );
    assert!(matches!(result, Err(CertError::Attestation(_))));
}
