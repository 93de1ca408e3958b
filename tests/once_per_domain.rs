//! Once per trust domain: a party neither re-derives what it has just
//! computed nor validates what the enclave has just validated — and nobody
//! can tell. The miner's one-pass `mine` is `propose` then `apply`; the
//! CI's in-place advance is a full node applying the same blocks; and a
//! block the enclave refuses leaves the CI exactly where it stood.

mod common;

use std::sync::Arc;

use common::World;
use dcert::chain::{
    Block, ConsensusEngine, ConsensusProof, FullNode, GenesisBuilder, ProofOfAuthority, Transaction,
};
use dcert::core::{CertError, Certificate, CertificateIssuer, IndexInput};
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::{hash_bytes, Address};
use dcert::primitives::keys::Keypair;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::vm::testing::{CounterContract, FailingContract};
use dcert::vm::{ContractRegistry, Executor};
use dcert::workloads::{Workload, WorkloadGen};
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
                World::new().miner,
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
            let (mut world, mut sp) = World::deterministic(indexes());
            let mut reference = world.miner.clone();
            for block in world.mine_blocks(workload, 10, 6, seed) {
                reference.apply(&block).expect("an honest block applies");
                let inputs = sp.stage_block(&block).expect("sp stages");
                let issued = certify(scheme, &mut world.ci, &block, &inputs).expect("certifies");
                record(&mut sp, &issued);
                assert_same_node(world.ci.node(), &reference, &what);
            }
        }
    }
}

/// `block` with one thing wrong that only the enclave looks at (the CI's
/// host checks linkage and nothing else), resealed unless the seal is the
/// thing.
fn refused_variants(block: &Block, engine: &dyn ConsensusEngine) -> Vec<(&'static str, Block)> {
    let mut wrong_root = block.clone();
    wrong_root.header.state_root = hash_bytes(b"not this block's post-state");
    engine.seal(&mut wrong_root.header).expect("reseals");

    let mut bad_signature = block.clone();
    bad_signature.txs[0].nonce ^= 1;
    bad_signature.header.tx_root = Block::tx_root(&bad_signature.txs);
    engine.seal(&mut bad_signature.header).expect("reseals");

    let mut bad_seal = block.clone();
    bad_seal.header.consensus = ConsensusProof::Pow {
        difficulty_bits: 0,
        nonce: 0,
    };
    vec![
        ("state root", wrong_root),
        ("tx signature", bad_signature),
        ("seal", bad_seal),
    ]
}

#[test]
fn a_block_the_enclave_refuses_leaves_the_ci_as_it_was() {
    for scheme in SCHEMES {
        // The victim is offered the bad blocks; the twin never sees them.
        let (mut victim, mut victim_sp) = World::deterministic(indexes());
        let (mut twin, mut twin_sp) = World::deterministic(indexes());
        let blocks = victim.mine_blocks(Workload::KvStore { keyspace: 16 }, 4, 4, 9);
        for block in &blocks {
            let inputs = victim_sp.stage_block(block).expect("sp stages");
            let before = victim.ci.node().clone();
            let chain_before = victim.ci.latest_block_cert().cloned();
            for (fault, bad) in refused_variants(block, victim.engine.as_ref()) {
                let what = format!("{scheme:?}, {fault}, height {}", block.header.height);
                let refusal = certify(scheme, &mut victim.ci, &bad, &inputs);
                assert!(
                    matches!(refusal, Err(CertError::EnclaveRejected(_))),
                    "{what}: {refusal:?}"
                );
                assert_same_node(victim.ci.node(), &before, &what);
                assert_eq!(
                    victim.ci.latest_block_cert(),
                    chain_before.as_ref(),
                    "{what}: block-certificate chain"
                );
            }
            // The honest block certifies as if nothing had been offered:
            // block and index certificate chains are where the twin's are.
            let got = certify(scheme, &mut victim.ci, block, &inputs).expect("certifies");
            let twin_inputs = twin_sp.stage_block(block).expect("twin sp stages");
            let want = certify(scheme, &mut twin.ci, block, &twin_inputs).expect("certifies");
            let wire = |(block_cert, index_certs): &Issued| {
                let mut bytes = Vec::new();
                for cert in block_cert.iter().chain(index_certs) {
                    cert.encode(&mut bytes);
                }
                bytes
            };
            assert_eq!(
                wire(&got),
                wire(&want),
                "{scheme:?}: certificates at height {}",
                block.header.height
            );
            record(&mut victim_sp, &got);
            record(&mut twin_sp, &want);
            assert_same_node(victim.ci.node(), twin.ci.node(), &format!("{scheme:?}"));
        }
    }
}
