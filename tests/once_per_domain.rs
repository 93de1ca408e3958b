//! Once per trust domain: a party neither re-derives what it has just
//! computed nor validates what the enclave has just validated — and nobody
//! can tell. The miner's one-pass `mine` is `propose` then `apply`; the
//! CI's in-place advance is a full node applying the same blocks; a block
//! the enclave refuses leaves the CI exactly where it stood; and every
//! certification driver refuses a block whose writes miss its state root
//! the same way, on its own host, before any ECall.

use std::sync::Arc;

use dcert::chain::{
    Block, ChainError, ConsensusEngine, ConsensusProof, FullNode, GenesisBuilder, ProofOfAuthority,
    Transaction,
};
use dcert::core::{
    CertError, CertJob, CertPipeline, Certificate, CertificateIssuer, Gossip, IndexInput,
    NetMessage, PipelineConfig, ShardError, ShardFleetConfig,
};
use dcert::obs::Registry;
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::{hash_bytes, Address};
use dcert::primitives::keys::Keypair;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::vm::testing::{CounterContract, FailingContract};
use dcert::vm::{ContractRegistry, Executor};
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKLOADS: [Workload; 3] = [
    Workload::KvStore { keyspace: 48 },
    Workload::SmallBank { customers: 24 },
    Workload::IoHeavy { batch: 6 },
];

/// Two nodes nobody could tell apart: tip, state commitment, and every
/// state entry behind it.
fn assert_same_node(got: &FullNode, want: &FullNode, what: &str) {
    assert_eq!(got.tip(), want.tip(), "{what}: tip");
    assert_eq!(got.tip().hash(), want.tip().hash(), "{what}: tip digest");
    assert_eq!(got.state().root(), want.state().root(), "{what}: root");
    assert_eq!(
        got.state().dump_entries(),
        want.state().dump_entries(),
        "{what}: entries"
    );
}

// --- the miner commits what it proposed -----------------------------------------

/// Mines `blocks` blocks from `next_txs` on `node` with `mine`, and on a
/// twin with `propose` then `apply`: same bytes, same node, every block.
fn mine_matches_propose_then_apply(
    mut node: FullNode,
    mut next_txs: impl FnMut() -> Vec<Transaction>,
    blocks: u64,
    what: &str,
) {
    let mut twin = node.clone();
    for height in 1..=blocks {
        let txs = next_txs();
        let mined = node.mine(txs.clone(), height).expect("mines");
        let proposed = twin.propose(txs, height).expect("proposes");
        twin.apply(&proposed).expect("applies its own proposal");
        assert_eq!(
            mined.to_encoded_bytes(),
            proposed.to_encoded_bytes(),
            "{what}: block {height}"
        );
        assert_same_node(&node, &twin, &format!("{what}: after block {height}"));
    }
}

/// A PoA-sealed node over the VM's test contracts, and a seeded mix of
/// calls to them: bumps, payloads the counter rejects, calls that revert.
fn counter_node_and_txs(seed: u64) -> (FullNode, impl FnMut() -> Vec<Transaction>) {
    let (genesis, state) = GenesisBuilder::new().build();
    let mut registry = ContractRegistry::new();
    registry.register(Arc::new(CounterContract));
    registry.register(Arc::new(FailingContract));
    let sealer = Keypair::from_seed([7; 32]);
    let node = FullNode::new(
        &genesis,
        state,
        Executor::new(Arc::new(registry)),
        Arc::new(ProofOfAuthority::new_sealer(vec![sealer.public()], sealer)),
        Address::from_seed(3),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nonce = 0u64;
    let txs = move || {
        (0..rng.gen_range(0..6))
            .map(|_| {
                nonce += 1;
                let signer = Keypair::from_seed([rng.gen_range(1..=4); 32]);
                let (contract, payload) = match rng.gen_range(0..8) {
                    0 => ("counter", b"junk".to_vec()),
                    1 => ("failing", Vec::new()),
                    _ => ("counter", b"bump".to_vec()),
                };
                Transaction::sign(&signer, nonce, contract, payload)
            })
            .collect()
    };
    (node, txs)
}

#[test]
fn mine_is_propose_then_apply() {
    for seed in [1u64, 2, 3] {
        for workload in WORKLOADS {
            let mut gen = WorkloadGen::new(workload, 8, seed);
            mine_matches_propose_then_apply(
                World::pow(&[]).miner,
                || gen.next_block(6),
                50,
                &format!("{} seed {seed}", workload.label()),
            );
        }
        let (node, txs) = counter_node_and_txs(seed);
        mine_matches_propose_then_apply(node, txs, 50, &format!("counter seed {seed}"));
    }
}

// --- the CI adopts what the enclave validated -----------------------------------

#[derive(Debug, Clone, Copy)]
enum Scheme {
    Block,
    Augmented,
    Hierarchical,
}

const SCHEMES: [Scheme; 3] = [Scheme::Block, Scheme::Augmented, Scheme::Hierarchical];

fn indexes() -> Vec<(IndexKind, &'static str)> {
    vec![
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "keywords"),
    ]
}

/// What a sequential `certify_*` call issues: the block certificate, if
/// the scheme has one, and the index certificates.
type Issued = (Option<Certificate>, Vec<Certificate>);

/// One sequential `certify_*` call.
fn certify(
    scheme: Scheme,
    ci: &mut CertificateIssuer,
    block: &Block,
    inputs: &[IndexInput],
) -> Result<Issued, CertError> {
    Ok(match scheme {
        Scheme::Block => (Some(ci.certify_block(block)?.0), Vec::new()),
        Scheme::Augmented => (None, ci.certify_augmented(block, inputs)?.0),
        Scheme::Hierarchical => {
            let (block_cert, index_certs, _) = ci.certify_hierarchical(block, inputs)?;
            (Some(block_cert), index_certs)
        }
    })
}

/// Moves the SP past the block it staged; the block-only scheme leaves it
/// no certificates to record.
fn record(sp: &mut ServiceProvider, (_, index_certs): &Issued) {
    if index_certs.is_empty() {
        sp.advance_staged();
    } else {
        sp.record_certs(index_certs);
    }
}

#[test]
fn the_ci_node_is_a_full_node_that_applied_the_same_blocks() {
    for scheme in SCHEMES {
        for (seed, workload) in (1u64..).zip(WORKLOADS) {
            let what = format!("{scheme:?} {}", workload.label());
            let mut world = World::pow(&indexes());
            let mut reference = world.miner.clone();
            for block in world.mine_blocks(workload, 10, 6, seed) {
                reference.apply(&block).expect("an honest block applies");
                let inputs = world.sp.stage_block(&block).expect("sp stages");
                let issued = certify(scheme, &mut world.ci, &block, &inputs).expect("certifies");
                record(&mut world.sp, &issued);
                assert_same_node(world.ci.node(), &reference, &what);
            }
        }
    }
}

/// `block` with one thing wrong that only the enclave looks at (the CI's
/// host checks linkage and the post-state root, and nothing else),
/// resealed unless the seal is the thing.
fn refused_variants(block: &Block, engine: &dyn ConsensusEngine) -> Vec<(&'static str, Block)> {
    let mut bad_signature = block.clone();
    bad_signature.txs[0].nonce ^= 1;
    bad_signature.header.tx_root = Block::tx_root(&bad_signature.txs);
    engine.seal(&mut bad_signature.header).expect("reseals");

    let mut bad_seal = block.clone();
    bad_seal.header.consensus = ConsensusProof::Pow {
        difficulty_bits: 0,
        nonce: 0,
    };
    vec![("tx signature", bad_signature), ("seal", bad_seal)]
}

#[test]
fn a_block_the_enclave_refuses_leaves_the_ci_as_it_was() {
    for scheme in SCHEMES {
        // The victim is offered the bad blocks; the twin never sees them.
        let mut victim = World::pow(&indexes());
        let mut twin = World::pow(&indexes());
        let blocks = victim.mine_blocks(Workload::KvStore { keyspace: 16 }, 4, 4, 9);
        for block in &blocks {
            let inputs = victim.sp.stage_block(block).expect("sp stages");
            for (fault, bad) in refused_variants(block, victim.engine.as_ref()) {
                let what = format!("{scheme:?}, {fault}, height {}", block.header.height);
                let refusal = certify(scheme, &mut victim.ci, &bad, &inputs);
                assert!(
                    matches!(refusal, Err(CertError::EnclaveRejected(_))),
                    "{what}: {refusal:?}"
                );
                // The host advanced before the ECall; the refusal rewound it.
                assert_same_ci(&victim.ci, &twin.ci, &what);
            }
            // The honest block certifies as if nothing had been offered:
            // block and index certificate chains are where the twin's are.
            let got = certify(scheme, &mut victim.ci, block, &inputs).expect("certifies");
            let twin_inputs = twin.sp.stage_block(block).expect("twin sp stages");
            let want = certify(scheme, &mut twin.ci, block, &twin_inputs).expect("certifies");
            assert_eq!(
                wire(&got),
                wire(&want),
                "{scheme:?}: certificates at height {}",
                block.header.height
            );
            record(&mut victim.sp, &got);
            record(&mut twin.sp, &want);
            assert_same_ci(&victim.ci, &twin.ci, &format!("{scheme:?}"));
        }
    }
}

/// Certificates as the wire carries them.
fn wire((block_cert, index_certs): &Issued) -> Vec<u8> {
    let mut bytes = Vec::new();
    for cert in block_cert.iter().chain(index_certs) {
        cert.encode(&mut bytes);
    }
    bytes
}

/// Two CIs nobody could tell apart: chain view and block-certificate chain.
fn assert_same_ci(got: &CertificateIssuer, want: &CertificateIssuer, what: &str) {
    assert_same_node(got.node(), want.node(), what);
    assert_eq!(
        got.latest_block_cert(),
        want.latest_block_cert(),
        "{what}: block-certificate chain"
    );
}

// --- a forged post-state root, offered to every driver ------------------------------

/// ECalls `registry` has counted so far.
fn ecalls(registry: &Registry) -> u64 {
    registry.snapshot().counter("enclave.ecalls")
}

/// `jobs` through a pipeline around `ci`: the CI it hands back, the jobs
/// that failed, and every block certificate it broadcast, as bytes.
fn pipelined(
    ci: CertificateIssuer,
    jobs: Vec<CertJob>,
) -> (CertificateIssuer, Vec<(u64, CertError)>, Vec<u8>) {
    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(ci, PipelineConfig::default(), gossip);
    for job in jobs {
        pipeline.submit(job).expect("accepts");
    }
    let (ci, report) = pipeline.shutdown();
    let mut certs = Vec::new();
    while let Ok(message) = feed.try_recv() {
        if let NetMessage::BlockCert { cert, .. } = message {
            cert.encode(&mut certs);
        }
    }
    (ci, report.errors, certs)
}

/// One resealed block whose writes do not reach its `state_root`, offered
/// to each driver: the inline CI under each scheme and as the last block of
/// a batch, the pipeline as a block job and as a batch job, and the fleet.
/// Each refuses it on its host with `Chain(StateRootMismatch)`, before any
/// ECall for it, and is left where a twin that never saw it stands; the
/// honest block then certifies byte for byte as on the twin.
#[test]
fn every_driver_refuses_a_forged_post_state_root_before_the_ecall() {
    let refusal = CertError::Chain(ChainError::StateRootMismatch);
    let mut world = World::pow(&[]);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 16 }, 3, 4, 9);
    let mut forged = blocks[2].clone();
    forged.header.state_root = hash_bytes(b"not this block's post-state");
    world.engine.seal(&mut forged.header).expect("reseals");
    let (honest, last) = blocks.split_at(2);
    let forged_batch = [honest, std::slice::from_ref(&forged)].concat();

    // The inline CI, under each scheme, after two honest blocks.
    for scheme in SCHEMES {
        let what = format!("inline {scheme:?}");
        let mut victim = World::pow(&indexes());
        let mut twin = World::pow(&indexes());
        for world in [&mut victim, &mut twin] {
            for block in honest {
                let inputs = world.sp.stage_block(block).expect("sp stages");
                let issued = certify(scheme, &mut world.ci, block, &inputs).expect("certifies");
                record(&mut world.sp, &issued);
            }
        }
        let registry = Registry::new();
        victim.ci.attach_obs(&registry);
        let inputs = victim.sp.stage_block(&last[0]).expect("sp stages");
        let refused = certify(scheme, &mut victim.ci, &forged, &inputs);
        assert_eq!(refused.err(), Some(refusal.clone()), "{what}");
        assert_eq!(ecalls(&registry), 0, "{what}: no ECall");
        assert_same_ci(&victim.ci, &twin.ci, &what);
        let got = certify(scheme, &mut victim.ci, &last[0], &inputs).expect("certifies");
        let twin_inputs = twin.sp.stage_block(&last[0]).expect("twin sp stages");
        let want = certify(scheme, &mut twin.ci, &last[0], &twin_inputs).expect("certifies");
        assert_eq!(wire(&got), wire(&want), "{what}: honest certificates");
        assert_same_ci(&victim.ci, &twin.ci, &what);
    }

    // The inline CI's batch, the forgery last of three.
    let mut victim = World::pow(&[]);
    let mut twin = World::pow(&[]);
    let registry = Registry::new();
    victim.ci.attach_obs(&registry);
    let refused = victim.ci.certify_batch(&forged_batch);
    assert_eq!(refused.err(), Some(refusal.clone()), "inline batch");
    assert_eq!(ecalls(&registry), 0, "inline batch: no ECall");
    assert_same_ci(&victim.ci, &twin.ci, "inline batch");
    let (got, _) = victim.ci.certify_batch(&blocks).expect("certifies");
    let (want, _) = twin.ci.certify_batch(&blocks).expect("certifies");
    assert_eq!(
        got.to_encoded_bytes(),
        want.to_encoded_bytes(),
        "inline batch"
    );
    assert_same_ci(&victim.ci, &twin.ci, "inline batch");

    // The pipeline, as a block job and as a batch job, the forged job last:
    // it fails, the victim crosses exactly as often as the twin, which runs
    // every job but that one, and after shutdown both views agree; a
    // second pipeline then certifies the honest block on each.
    let block_jobs =
        |blocks: &[Block]| -> Vec<CertJob> { blocks.iter().cloned().map(CertJob::Block).collect() };
    let shapes = [
        (
            "pipeline block job",
            block_jobs(&forged_batch),
            block_jobs(last),
        ),
        (
            "pipeline batch job",
            vec![CertJob::Batch(forged_batch.clone())],
            vec![CertJob::Batch(blocks.clone())],
        ),
    ];
    for (what, offered, honest_jobs) in shapes {
        let twin_jobs = offered[..offered.len() - 1].to_vec();
        let victim = World::pow(&[]);
        let twin = World::pow(&[]);
        let (victim_registry, twin_registry) = (Registry::new(), Registry::new());
        victim.ci.attach_obs(&victim_registry);
        twin.ci.attach_obs(&twin_registry);
        let failed = u64::try_from(offered.len() - 1).expect("small");
        let (victim_ci, errors, victim_certs) = pipelined(victim.ci, offered);
        let (twin_ci, twin_errors, twin_certs) = pipelined(twin.ci, twin_jobs);
        assert_eq!(errors, vec![(failed, refusal.clone())], "{what}");
        assert!(twin_errors.is_empty(), "{what}: twin");
        assert_eq!(victim_certs, twin_certs, "{what}: certificates before");
        assert_eq!(
            ecalls(&victim_registry),
            ecalls(&twin_registry),
            "{what}: ECalls"
        );
        assert_same_ci(&victim_ci, &twin_ci, what);
        let (victim_ci, errors, victim_certs) = pipelined(victim_ci, honest_jobs.clone());
        let (twin_ci, _, twin_certs) = pipelined(twin_ci, honest_jobs);
        assert!(errors.is_empty(), "{what}: honest job");
        assert_eq!(victim_certs, twin_certs, "{what}: honest certificates");
        assert_same_ci(&victim_ci, &twin_ci, what);
    }

    // The fleet, extending two certified heights by the forgery: only the
    // new range's shard boot crosses, and the worker's reason is the
    // host's refusal.
    let registry = Registry::new();
    let config = ShardFleetConfig {
        registry: registry.clone(),
        ..ShardFleetConfig::new(2, 2)
    };
    let mut victim = world.fleet(config);
    let mut twin = world.fleet(ShardFleetConfig::new(2, 2));
    victim
        .certify_chain(honest, &mut world.ias)
        .expect("certifies");
    twin.certify_chain(honest, &mut world.ias)
        .expect("certifies");
    let before = ecalls(&registry);
    match victim.certify_chain(&forged_batch, &mut world.ias) {
        Err(CertError::Shard(ShardError::Worker { reason, .. })) => {
            assert_eq!(reason, refusal.to_string(), "fleet")
        }
        other => panic!("fleet answered {other:?}"),
    }
    assert_eq!(
        ecalls(&registry) - before,
        1,
        "fleet: the shard's boot only"
    );
    let fleet_bytes = |certs: &[Certificate]| {
        let mut bytes = Vec::new();
        certs.iter().for_each(|cert| cert.encode(&mut bytes));
        bytes
    };
    assert_eq!(victim.tip_height(), twin.tip_height(), "fleet: tip");
    assert_eq!(
        fleet_bytes(victim.certificates()),
        fleet_bytes(twin.certificates()),
        "fleet: certificates"
    );
    let got = victim
        .certify_chain(&blocks, &mut world.ias)
        .expect("certifies");
    let want = twin
        .certify_chain(&blocks, &mut world.ias)
        .expect("certifies");
    assert_eq!(fleet_bytes(&got), fleet_bytes(&want), "fleet: honest");
}
