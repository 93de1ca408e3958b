//! Security tests: every forgery path of Definition 1 (block certificate
//! security) must be rejected, at the layer that is supposed to catch it.
//!
//! The trusted program is exercised directly (`CertProgram::handle`) so
//! assertions can match *typed* errors; client-side attacks go through
//! `SuperlightClient`.

mod common;

use std::sync::Arc;

use common::{World, TEST_POW_BITS};
use dcert::chain::consensus::ConsensusProof;
use dcert::chain::{
    Block, ChainError, ConsensusEngine, FullNode, GenesisBuilder, ProofOfWork, Transaction,
};
use dcert::core::{
    expected_measurement, BatchLink, BlockInput, CertError, CertProgram, Certificate, EcallRequest,
    EcallResponse, FaultConfig, IndexInput, IndexVerifier, NetMessage, SimNet, SuperlightClient,
    SyncOutcome, Transport,
};
use dcert::merkle::{smt, Aggregate, MbAppendProof, MbTree, ProofError, SmtProof};
use dcert::primitives::codec::{decode_seq, encode_seq, Decode, Encode, Reader};
use dcert::primitives::hash::{hash_bytes, Hash};
use dcert::primitives::keys::{Keypair, PublicKey};
use dcert::query::aggregate::{verify_aggregate, AggregateIndex};
use dcert::query::history::{verify_history, HistoryIndex, HistoryVerifier};
use dcert::query::inverted::{verify_keywords, InvertedIndex};
use dcert::query::sp::IndexKind;
use dcert::query::{AggQueryProof, HistoryProof, KeywordProof, QueryError};
use dcert::sgx::{AttestationReport, AttestationService};
use dcert::vm::{Executor, StateKey};
use dcert::workloads::kvstore::KvCall;
use dcert::workloads::{blockbench_registry, Workload, WorkloadGen};
use dcert_testkit::smt_frames;

/// A trusted program outside any enclave, plus a valid `BlockInput` for
/// block 1 — the raw material for request-level attacks.
fn program_and_input() -> (CertProgram, BlockInput) {
    let (program, input, _) = fixture();
    (program, input)
}

/// [`program_and_input`], plus the full node at genesis that proposed the
/// block — the other acceptor of the same block.
fn fixture() -> (CertProgram, BlockInput, FullNode) {
    fixture_of(4)
}

/// [`fixture`] with a block of `txs` transactions.
fn fixture_of(txs: usize) -> (CertProgram, BlockInput, FullNode) {
    let executor = Executor::new(Arc::new(blockbench_registry()));
    let engine = Arc::new(ProofOfWork::new(TEST_POW_BITS));
    let (genesis, state) = GenesisBuilder::new().timestamp(1_700_000_000).build();
    let ias = AttestationService::with_seed([0xA5; 32]);

    let miner = FullNode::new(
        &genesis,
        state.clone(),
        executor.clone(),
        engine.clone(),
        dcert::primitives::hash::Address::from_seed(1),
    );
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 16 }, 4, 11);
    let block = miner.propose(gen.next_block(txs), 1).unwrap();

    let execution = {
        let calls: Vec<_> = block.txs.iter().map(|t| t.call.clone()).collect();
        executor.execute_block(state_reader(&state), &calls)
    };
    let touched = execution.touched_keys();
    let state_proof = state.prove(&touched);
    let input = BlockInput {
        prev_header: genesis.header.clone(),
        prev_cert: None,
        block,
        reads: execution
            .reads
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        state_proof,
    };

    let mut program = CertProgram::new(
        genesis.hash(),
        ias.public_key(),
        executor,
        engine,
        Vec::new(),
    )
    .with_signing_seed(common::TEST_SIGNING_SEED);
    program.handle(EcallRequest::Init).unwrap();
    (program, input, miner)
}

fn state_reader(state: &dcert::chain::ChainState) -> &dcert::chain::ChainState {
    state
}

fn expect_sig(program: &mut CertProgram, input: BlockInput) -> Result<(), CertError> {
    program.handle(EcallRequest::SigGen(input)).map(|_| ())
}

/// How every acceptor of block 1, of `txs` transactions, answers it after
/// `mutate` (then, with `reseal`, an honest proof-of-work over the mutated
/// header, so the check under test — not the consensus proof — is what
/// trips): the full node's `apply`, then the trusted program's `SigGen`,
/// one-link `BatchSigGen`, one-link `RangeSigGen` and index-less
/// `HierSigGen`, each on a fresh fixture. The program's refusals are
/// unwrapped to the `ChainError` they carry (`StateRootMismatch` is the one
/// check it reports under its own name), a node that refused is unchanged,
/// and a program that refused has signed nothing.
fn verdicts(txs: usize, mutate: fn(&mut Block), reseal: bool) -> [Result<(), ChainError>; 5] {
    let mutated = || {
        let (program, mut input, node) = fixture_of(txs);
        mutate(&mut input.block);
        if reseal {
            let engine = ProofOfWork::new(TEST_POW_BITS);
            engine.seal(&mut input.block.header).unwrap();
        }
        (program, input, node)
    };
    let offer = |request: fn(BlockInput) -> EcallRequest| {
        let (mut program, input, _) = mutated();
        let verdict = match program.handle(request(input)) {
            Ok(_) => return Ok(()),
            Err(CertError::Chain(refusal)) => Err(refusal),
            Err(CertError::StateRootMismatch) => Err(ChainError::StateRootMismatch),
            Err(other) => panic!("not a block-validity refusal: {other:?}"),
        };
        assert_eq!(program.last_signed_height(), 0, "refused, so unsigned");
        verdict
    };
    let (_, input, mut node) = mutated();
    let before = (node.tip().clone(), node.state().dump_entries());
    let applied = node.apply(&input.block).map(drop);
    if applied.is_err() {
        let after = (node.tip().clone(), node.state().dump_entries());
        assert_eq!(after, before, "refused, so unchanged");
    }
    [
        applied,
        offer(EcallRequest::SigGen),
        offer(one_link_batch),
        offer(|input| {
            let (anchor, _, link) = input.into_anchor_and_link();
            let links = vec![link];
            EcallRequest::RangeSigGen { anchor, links }
        }),
        offer(|input| EcallRequest::HierSigGen(input, Vec::new())),
    ]
}

/// The one-link `BatchSigGen` asking what `SigGen(input)` asks.
fn one_link_batch(input: BlockInput) -> EcallRequest {
    let (prev_header, prev_cert, link) = input.into_anchor_and_link();
    EcallRequest::BatchSigGen {
        prev_header,
        prev_cert,
        links: vec![link],
    }
}

#[test]
fn honest_input_is_signed() {
    // A `SigGen` is a batch of one: both sign the same header digest.
    let sign = |request: fn(BlockInput) -> EcallRequest| {
        let (mut program, input) = program_and_input();
        match program.handle(request(input)).unwrap() {
            EcallResponse::Signature(signature) => signature,
            other => panic!("unexpected response {other:?}"),
        }
    };
    assert_eq!(sign(EcallRequest::SigGen), sign(one_link_batch));
}

/// **The full node and the enclave agree.** The honest block is accepted
/// by all four acceptors; for each single mutation of it — one per check
/// of the block-validity rule — `FullNode::apply` and the trusted
/// program's four replaying requests refuse with the same `ChainError`
/// variant: they run the same `chain::validity` functions, and the
/// state-root comparison is the one line each keeps.
#[test]
fn full_node_and_enclave_agree_on_every_mutation() {
    assert!(verdicts(4, |_| {}, false).iter().all(Result::is_ok));
    let acceptors = [
        "apply",
        "SigGen",
        "BatchSigGen",
        "RangeSigGen",
        "HierSigGen",
    ];
    /// A name, the mutation, whether to reseal, and the refusal it draws.
    type Row = (&'static str, fn(&mut Block), bool, fn(&ChainError) -> bool);
    #[rustfmt::skip]
    let table: [Row; 7] = [
        ("broken link", |b| b.header.prev_hash = hash_bytes(b"elsewhere"), true,
            |e| matches!(e, ChainError::BrokenLink { .. })),
        ("wrong height", |b| b.header.height = 7, true,
            |e| matches!(e, ChainError::BadHeight { parent: 0, child: 7 })),
        // Old nonce, new content: the consensus check trips first.
        ("stale seal", |b| b.header.state_root = hash_bytes(b"changed-without-resealing"), false,
            |e| matches!(e, ChainError::BadConsensus(_))),
        ("weak difficulty claim",
            |b| b.header.consensus = ConsensusProof::Pow { difficulty_bits: 0, nonce: 0 }, false,
            |e| matches!(e, ChainError::BadConsensus(_))),
        ("wrong tx root", |b| b.txs[0].call.payload = b"evil".to_vec(), false,
            |e| matches!(e, ChainError::TxRootMismatch)),
        ("bad tx signature",
            |b| { b.txs[0].nonce += 1; b.header.tx_root = Block::tx_root(&b.txs) }, true,
            |e| matches!(e, ChainError::BadTxSignature)),
        ("wrong state root", |b| b.header.state_root = hash_bytes(b"forged"), true,
            |e| matches!(e, ChainError::StateRootMismatch)),
    ];
    for (name, mutate, reseal, is_expected) in table {
        for (acceptor, verdict) in acceptors.iter().zip(verdicts(4, mutate, reseal)) {
            match verdict {
                Err(refusal) if is_expected(&refusal) => {}
                other => panic!("{name}: {acceptor} answered {other:?}"),
            }
        }
    }
    // Thirty-two transactions, two forgeries: a bad signature at 15 and a
    // spoofed sender at 20 fall in different lanes of a two-core full
    // node's signature pass, and the later lane — which refuses before any
    // signature check — finishes first. Every acceptor reports the first
    // failure in the body, as the enclave's sequential pass does.
    let two_lanes: fn(&mut Block) = |b| {
        b.txs[15].nonce += 1;
        b.txs[20].call.sender = dcert::primitives::hash::Address::from_seed(20);
        b.header.tx_root = Block::tx_root(&b.txs);
    };
    assert!(verdicts(32, |_| {}, false).iter().all(Result::is_ok));
    for (acceptor, verdict) in acceptors.iter().zip(verdicts(32, two_lanes, true)) {
        assert_eq!(verdict, Err(ChainError::BadTxSignature), "{acceptor}");
    }
}

/// Regression (panicked with an add overflow before `check_extends`):
/// nothing extends a tip at `u64::MAX`, and every acceptor says so with a
/// typed error.
#[test]
fn nothing_extends_the_last_height() {
    let (mut program, input, genesis_node) = fixture();
    let mut tip = input.prev_header.clone();
    tip.height = u64::MAX;
    let mut node = FullNode::new_at_checkpoint(
        tip.clone(),
        genesis_node.state().clone(),
        genesis_node.executor().clone(),
        genesis_node.engine().clone(),
        dcert::primitives::hash::Address::from_seed(1),
    );
    let block = node.propose(Vec::new(), 1).unwrap();
    assert_eq!(block.header.prev_hash, tip.hash());
    assert_eq!(
        node.apply(&block),
        Err(ChainError::BadHeight {
            parent: u64::MAX,
            child: u64::MAX
        })
    );
    assert_eq!(node.tip(), &tip, "node must be unchanged");

    let link = BatchLink {
        block,
        reads: Vec::new(),
        state_proof: genesis_node.state().prove(&[]),
    };
    assert_eq!(
        program.handle(EcallRequest::RangeSigGen {
            anchor: tip,
            links: vec![link],
        }),
        Err(CertError::HeightOverflow)
    );
    assert_eq!(program.last_signed_height(), 0);
}

#[test]
fn forged_read_value_rejected() {
    let (mut program, mut input) = program_and_input();
    if input.reads.is_empty() {
        panic!("fixture must produce reads");
    }
    input.reads[0].1 = Some(b"lies about pre-state".to_vec());
    assert_eq!(
        expect_sig(&mut program, input),
        Err(CertError::ReadSetMismatch)
    );
}

#[test]
fn incomplete_read_set_rejected() {
    let (mut program, mut input) = program_and_input();
    input.reads.clear();
    // With no reads provided, replay reverts with ReadSetMiss.
    assert_eq!(
        expect_sig(&mut program, input),
        Err(CertError::ReadSetMismatch)
    );
}

#[test]
fn wrong_genesis_rejected() {
    let (mut program, mut input) = program_and_input();
    // Present a different "genesis" as the parent.
    let (other_genesis, _) = GenesisBuilder::new().timestamp(1).build();
    input.prev_header = other_genesis.header;
    assert_eq!(
        expect_sig(&mut program, input),
        Err(CertError::GenesisMismatch)
    );
}

#[test]
fn missing_prev_cert_rejected() {
    let (mut program, mut input) = program_and_input();
    // Claim the parent is height 3 (non-genesis) without a certificate.
    input.prev_header.height = 3;
    input.block.header.height = 4;
    assert_eq!(
        expect_sig(&mut program, input),
        Err(CertError::MissingPrevCert)
    );
}

#[test]
fn self_signed_prev_cert_rejected() {
    // An attacker fabricates a parent "certificate" with their own key;
    // the report binding cannot be faked.
    let (mut program, mut input) = program_and_input();
    let attacker = Keypair::from_seed([66; 32]);
    let fake_ias = AttestationService::with_seed([66; 32]);
    let mut attacker_ias = fake_ias;
    let platform = Keypair::from_seed([67; 32]);
    attacker_ias.register_platform(platform.public());
    let quote = dcert::sgx::Quote::sign(
        &platform,
        expected_measurement(),
        Certificate::key_binding(&attacker.public()),
    );
    let report = attacker_ias.attest(&quote).unwrap();

    input.prev_header.height = 1;
    input.block.header.height = 2;
    let digest = input.prev_header.hash();
    input.prev_cert = Some(Certificate {
        pk_enc: attacker.public(),
        report,
        digest,
        signature: attacker.sign(digest.as_bytes()),
    });
    // The report was signed by the wrong IAS root.
    assert!(matches!(
        expect_sig(&mut program, input),
        Err(CertError::Attestation(_))
    ));
}

// --- the fused hierarchical request ----------------------------------------
//
// `HierSigGen` signs the block certificate and every index certificate in
// one crossing. Each check it makes before signing is tried with one forgery
// of an otherwise honest request, matched by `CertError` variant; the block
// body's checks are the `HierSigGen` column of the table above.

/// The honest `HierSigGen` for block `height` over two indexes, whose
/// predecessors the world's CI certified hierarchically, and a trusted
/// program — outside any enclave, signing with the CI's seed — to offer it
/// to.
fn fused_fixture(height: u64) -> (CertProgram, BlockInput, Vec<IndexInput>, World) {
    let (mut world, mut sp) = World::deterministic(vec![
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ]);
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 16 }, 4, 11);
    let mut prev_cert = None;
    for below in 1..height {
        let block = world.miner.mine(gen.next_block(4), below).unwrap();
        let inputs = sp.stage_block(&block).unwrap();
        let (block_cert, index_certs, _) = world.ci.certify_hierarchical(&block, &inputs).unwrap();
        sp.record_certs(&index_certs);
        prev_cert = Some(block_cert);
    }
    let block = world.miner.mine(gen.next_block(4), height).unwrap();
    let indexes = sp.stage_block(&block).unwrap();
    let state = world.ci.node().state();
    let calls: Vec<_> = block.txs.iter().map(|tx| tx.call.clone()).collect();
    let execution = world.executor.execute_block(state, &calls);
    let input = BlockInput {
        prev_header: world.ci.node().tip().clone(),
        prev_cert,
        state_proof: state.prove(&execution.touched_keys()),
        reads: execution.reads.into_iter().collect(),
        block,
    };
    let mut program = CertProgram::new(
        world.genesis.hash(),
        world.ias.public_key(),
        world.executor.clone(),
        world.engine.clone(),
        sp.verifiers(),
    )
    .with_signing_seed(common::TEST_SIGNING_SEED);
    program.handle(EcallRequest::Init).unwrap();
    (program, input, indexes, world)
}

/// A report naming the right program and binding `pk_enc`, signed by a root
/// that is not the IAS.
fn rogue_report(pk_enc: &PublicKey) -> AttestationReport {
    let platform = Keypair::from_seed([67; 32]);
    let mut rogue_ias = AttestationService::with_seed([66; 32]);
    rogue_ias.register_platform(platform.public());
    let binding = Certificate::key_binding(pk_enc);
    let quote = dcert::sgx::Quote::sign(&platform, expected_measurement(), binding);
    rogue_ias.attest(&quote).unwrap()
}

/// A certificate over `digest` by a key the IAS never attested.
fn self_attested(digest: Hash) -> Certificate {
    let attacker = Keypair::from_seed([66; 32]);
    Certificate {
        pk_enc: attacker.public(),
        report: rogue_report(&attacker.public()),
        digest,
        signature: attacker.sign(digest.as_bytes()),
    }
}

/// The honest request yields the signatures the CI publishes — the block's,
/// then one per index in request order — and moves the watermark once; the
/// guard at its height is strict.
#[test]
fn fused_request_signs_the_block_and_every_index_once() {
    let (mut program, input, indexes, mut world) = fused_fixture(2);
    let request = EcallRequest::HierSigGen(input.clone(), indexes.clone());
    let Ok(EcallResponse::Signatures(signatures)) = program.handle(request.clone()) else {
        panic!("the honest request is signed");
    };
    let (block_cert, index_certs, breakdown) = world
        .ci
        .certify_hierarchical(&input.block, &indexes)
        .unwrap();
    let published = std::iter::once(&block_cert).chain(&index_certs);
    assert_eq!(
        signatures,
        published.map(|cert| cert.signature).collect::<Vec<_>>()
    );
    assert_eq!(breakdown.ecalls, 1);
    assert_eq!(program.last_signed_height(), 2);
    assert_eq!(
        program.handle(request),
        Err(CertError::HeightRegression {
            last_signed: 2,
            offered: 2
        })
    );
}

/// One forgery per check, each refused by that check alone and leaving
/// nothing signed: afterwards the same program signs the honest request.
#[test]
fn every_check_of_the_fused_request_refuses_its_forgery() {
    type Forge = fn(&mut BlockInput, &mut Vec<IndexInput>);
    type Row = (&'static str, Forge, fn(&CertError) -> bool);
    fn flip(hash: &mut Hash) {
        let mut bytes = hash.to_array();
        bytes[31] ^= 1;
        *hash = Hash::from_bytes(bytes);
    }
    /// What index 1's previous certificate must certify.
    fn anchor_digest(input: &BlockInput, indexes: &[IndexInput]) -> Hash {
        Certificate::index_digest(&input.prev_header.hash(), &indexes[1].prev_digest)
    }
    #[rustfmt::skip]
    let table: [Row; 13] = [
        ("block prev_cert signed over something else", |input, indexes| {
            let cert = input.prev_cert.as_mut().unwrap();
            cert.signature = indexes[0].prev_cert.as_ref().unwrap().signature;
        }, |e| matches!(e, CertError::BadSignature)),
        ("no block prev_cert", |input, _| input.prev_cert = None,
            |e| matches!(e, CertError::MissingPrevCert)),
        ("block prev_cert under an unattested root", |input, _| {
            input.prev_cert = Some(self_attested(input.prev_header.hash()));
        }, |e| matches!(e, CertError::Attestation(dcert::sgx::SgxError::BadReport))),
        ("index prev_cert over another index's digest", |_, indexes| {
            indexes[1].prev_cert = indexes[0].prev_cert.clone();
        }, |e| matches!(e, CertError::DigestMismatch)),
        ("no index prev_cert", |_, indexes| indexes[1].prev_cert = None,
            |e| matches!(e, CertError::MissingPrevCert)),
        // The attestation is checked once per `(rep, pk_enc)`, not once per
        // request: a second report beside the block's honest one…
        ("index prev_cert under an unattested root", |input, indexes| {
            indexes[1].prev_cert = Some(self_attested(anchor_digest(input, indexes)));
        }, |e| matches!(e, CertError::Attestation(dcert::sgx::SgxError::BadReport))),
        // …the honest key under a second report…
        ("index prev_cert with its report swapped", |_, indexes| {
            let cert = indexes[1].prev_cert.as_mut().unwrap();
            cert.report = rogue_report(&cert.pk_enc);
        }, |e| matches!(e, CertError::Attestation(dcert::sgx::SgxError::BadReport))),
        // …and the block's honest report beside a second key.
        ("index prev_cert reusing the honest report for another key", |input, indexes| {
            let forged = self_attested(anchor_digest(input, indexes));
            let report = input.prev_cert.as_ref().unwrap().report.clone();
            indexes[1].prev_cert = Some(Certificate { report, ..forged });
        }, |e| matches!(e, CertError::KeyBindingMismatch)),
        ("unknown index type", |_, indexes| indexes[1].index_type = "not-registered".into(),
            |e| matches!(e, CertError::UnknownIndexType(name) if name == "not-registered")),
        ("read set off its proof", |input, _| input.reads[0].1 = Some(b"lies".to_vec()),
            |e| matches!(e, CertError::ReadSetMismatch)),
        ("index digest off by a bit", |_, indexes| flip(&mut indexes[1].new_digest),
            |e| matches!(e, CertError::IndexDigestMismatch)),
        ("previous index digest off by a bit", |_, indexes| flip(&mut indexes[1].prev_digest),
            |e| matches!(e, CertError::DigestMismatch)),
        ("forged aux", |_, indexes| *indexes[1].aux.last_mut().unwrap() ^= 0xff,
            |e| matches!(e, CertError::Proof(_) | CertError::BadIndexUpdate(_))),
    ];
    for (name, forge, is_expected) in table {
        let (mut program, honest_input, honest_indexes, _) = fused_fixture(2);
        let (mut input, mut indexes) = (honest_input.clone(), honest_indexes.clone());
        forge(&mut input, &mut indexes);
        match program.handle(EcallRequest::HierSigGen(input, indexes)) {
            Err(refusal) if is_expected(&refusal) => {}
            other => panic!("{name}: answered {other:?}"),
        }
        assert_eq!(program.last_signed_height(), 0, "{name}: nothing signed");
        let honest = EcallRequest::HierSigGen(honest_input, honest_indexes);
        assert!(program.handle(honest).is_ok(), "{name}: honest retry");
    }
}

/// Off genesis both anchors are digests, not certificates: the chain's
/// genesis and each index's own.
#[test]
fn fused_request_anchors_every_index_at_genesis() {
    let (mut program, input, mut indexes, _) = fused_fixture(1);
    assert!(input.prev_cert.is_none() && indexes.iter().all(|i| i.prev_cert.is_none()));
    let honest = EcallRequest::HierSigGen(input.clone(), indexes.clone());
    indexes[1].prev_digest = hash_bytes(b"an index with a past");
    assert_eq!(
        program.handle(EcallRequest::HierSigGen(input, indexes)),
        Err(CertError::GenesisMismatch)
    );
    assert_eq!(program.last_signed_height(), 0);
    assert!(matches!(
        program.handle(honest),
        Ok(EcallResponse::Signatures(signatures)) if signatures.len() == 3
    ));
}

// --- client-side attacks ---------------------------------------------------

#[test]
fn client_rejects_cert_from_unexpected_program() {
    let mut world = World::new();
    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert, _) = world.ci.certify_block(&block).unwrap();

    // A client pinning a *different* program measurement must reject.
    let mut paranoid =
        SuperlightClient::new(world.ias.public_key(), hash_bytes(b"some-other-program"));
    assert_eq!(
        paranoid.validate_chain(&block.header, &cert),
        Err(CertError::WrongMeasurement)
    );
}

#[test]
fn client_rejects_cert_for_different_header() {
    let mut world = World::new();
    let b1 = world.miner.mine(Vec::new(), 1).unwrap();
    let (c1, _) = world.ci.certify_block(&b1).unwrap();
    let b2 = world.miner.mine(Vec::new(), 2).unwrap();
    let (_c2, _) = world.ci.certify_block(&b2).unwrap();
    // Presenting b2's header with b1's certificate must fail.
    assert_eq!(
        world.client.validate_chain(&b2.header, &c1),
        Err(CertError::DigestMismatch)
    );
}

#[test]
fn client_rejects_tampered_header() {
    let mut world = World::new();
    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert, _) = world.ci.certify_block(&block).unwrap();
    let mut tampered = block.header.clone();
    tampered.state_root = hash_bytes(b"parallel universe");
    assert_eq!(
        world.client.validate_chain(&tampered, &cert),
        Err(CertError::DigestMismatch)
    );
}

#[test]
fn client_rejects_resigned_certificate() {
    let mut world = World::new();
    let block = world.miner.mine(Vec::new(), 1).unwrap();
    let (cert, _) = world.ci.certify_block(&block).unwrap();

    // Attacker swaps in their own digest+signature under their own key.
    let attacker = Keypair::from_seed([13; 32]);
    let mut forged = cert.clone();
    forged.pk_enc = attacker.public();
    let fake = world.miner.tip().clone();
    forged.digest = fake.hash();
    forged.signature = attacker.sign(forged.digest.as_bytes());
    assert_eq!(
        world.client.validate_chain(&fake, &forged),
        Err(CertError::KeyBindingMismatch)
    );
}

// --- in-flight corruption --------------------------------------------------

/// Certificates corrupted *on the wire* (one bit flipped by the network,
/// not an adversary with the message in hand): if the mangled frame still
/// decodes, the client must reject it as a forgery; and once the network
/// heals and the pristine stream is republished, the client catches up —
/// it recovers through resync rather than wedging on the garbage it saw.
#[test]
fn corrupted_in_flight_certificates_rejected_then_recovered() {
    let (mut world, _) = World::deterministic(Vec::new());
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 16 }, 4, 3, 21);
    let pristine: Vec<NetMessage> = blocks
        .iter()
        .map(|b| {
            let (cert, _) = world.ci.certify_block(b).unwrap();
            NetMessage::BlockCert {
                header: b.header.clone(),
                cert,
            }
        })
        .collect();

    // Phase 1: every delivery has one wire bit flipped.
    let net = SimNet::new(
        0xBADB17,
        FaultConfig {
            corrupt_rate: 1.0,
            ..FaultConfig::lossless()
        },
    );
    let rx = net.join();
    let mut client = SuperlightClient::new(world.ias.public_key(), expected_measurement());
    for msg in &pristine {
        net.publish(msg.clone());
    }
    net.flush();
    let mut delivered = 0u64;
    while let Ok(msg) = rx.try_recv() {
        delivered += 1;
        assert_ne!(
            client.on_message(&msg),
            SyncOutcome::Adopted,
            "a bit-flipped certificate must never validate"
        );
    }
    assert_eq!(client.height(), None, "nothing intact arrived");
    let stats = net.stats();
    assert_eq!(
        stats.corrupted + stats.garbled,
        pristine.len() as u64,
        "every delivery was mangled"
    );
    assert_eq!(
        delivered, stats.corrupted,
        "frames that no longer decode never reach the client"
    );

    // Phase 2: the network heals, the CI republishes (the resync answer),
    // and the client — despite everything it just rejected — converges.
    net.heal();
    for msg in &pristine {
        net.publish(msg.clone());
    }
    while let Ok(msg) = rx.try_recv() {
        client.on_message(&msg);
    }
    assert_eq!(client.height(), Some(blocks.len() as u64));
    assert_eq!(client.latest_header(), blocks.last().map(|b| &b.header));
}

#[test]
fn malformed_ecall_bytes_are_rejected_not_crashing() {
    // Garbage at the enclave boundary must produce a rejection, never a
    // panic or a signature.
    let (mut program, _) = program_and_input();
    use dcert::sgx::TrustedApp;
    let response = program.call(&[0xde, 0xad, 0xbe, 0xef]);
    let decoded = EcallResponse::decode_all(&response).unwrap();
    assert!(matches!(decoded, EcallResponse::Rejected(_)));
}

// --- position binding of the one keyed tree --------------------------------------
//
// What the sparse Merkle tree's position rule protects above `dcert-merkle`:
// an SP cannot answer "untracked" or "no postings" for a key with history,
// and a CI host cannot have the enclave erase a tracked key's history. Each
// is tried with every absence the frame forgers of `dcert-testkit` build —
// the family `smt::tests` runs against the tree itself.

/// Every forged proof that the present key `honest` covers is absent.
fn forged_absences(honest: &SmtProof) -> Vec<SmtProof> {
    let rules = smt_frames::Rules {
        leaf: |key, value_hash| {
            smt::leaf_hash(&Hash::from_bytes(*key), &Hash::from_bytes(*value_hash)).to_array()
        },
        branch: |bit, under, left, right| {
            let [under, left, right] = [under, left, right].map(|h| Hash::from_bytes(*h));
            smt::branch_hash(usize::from(bit), &under, &left, &right).to_array()
        },
    };
    let (forged, _) = smt_frames::forged_absences(&honest.to_encoded_bytes(), rules);
    assert!(
        forged.len() >= 4,
        "one level low and at the bottom, both ways"
    );
    let decode = |(frame, _): &(Vec<u8>, _)| SmtProof::decode_all(frame).expect("well-formed");
    forged.iter().map(decode).collect()
}

/// The refusal of a subtree out of place, whichever way it was disclosed.
fn misplaced(refusal: &ProofError) -> bool {
    [
        "opaque subtree beside an empty side",
        "leaf evidence outside subtree",
        "branch evidence outside subtree",
    ]
    .iter()
    .any(|why| *refusal == ProofError::Malformed(why))
}

fn balance_writes(height: u64, keys: &[&str]) -> Vec<(StateKey, Option<Vec<u8>>)> {
    let mut writes: Vec<_> = keys
        .iter()
        .map(|key| {
            let value = (100 * height).to_be_bytes().to_vec();
            (StateKey::new("smallbank", key.as_bytes()), Some(value))
        })
        .collect();
    writes.sort_by_key(|(key, _)| *key.as_hash());
    writes
}

/// The upper-tree proof a two-level query proof or index update begins or
/// ends with, read back off the wire.
fn upper_proof(encoded: &[u8], skip: usize) -> SmtProof {
    SmtProof::decode(&mut Reader::new(&encoded[skip..])).expect("an honest upper proof")
}

/// (a) An SP that answers "untracked" — no lower tree, empty result — for a
/// key with history, behind every absence the family can forge.
#[test]
fn untracked_answer_for_a_tracked_key_is_refused() {
    let mut history = HistoryIndex::new("history");
    let mut aggregate = AggregateIndex::new("aggregate");
    let accounts = ["alice", "bob", "carol", "dave", "erin", "frank", "grace"];
    for height in 1..=4 {
        let writes = balance_writes(height, &accounts);
        history.apply_block(height, &writes);
        aggregate.apply_block(height, &writes);
    }
    for account in accounts {
        let key = StateKey::new("smallbank", account.as_bytes());
        let (rows, honest) = history.query(&key, 0, 9);
        assert_eq!(rows.len(), 4);
        verify_history(&history.digest(), &key, 0, 9, &rows, &honest).unwrap();
        for forged in forged_absences(&upper_proof(&honest.to_encoded_bytes(), 0)) {
            // The forged upper proof, no lower root, no lower proof.
            let untracked = [forged.to_encoded_bytes(), vec![0, 0]].concat();
            let proof = HistoryProof::decode_all(&untracked).unwrap();
            let refused = verify_history(&history.digest(), &key, 0, 9, &[], &proof);
            assert!(
                matches!(&refused, Err(QueryError::Proof(why)) if misplaced(why)),
                "{refused:?}"
            );
        }
        let (_, honest) = aggregate.query(&key, 0, 9);
        for forged in forged_absences(&upper_proof(&honest.to_encoded_bytes(), 0)) {
            let untracked = [forged.to_encoded_bytes(), vec![0, 0]].concat();
            let proof = AggQueryProof::decode_all(&untracked).unwrap();
            let (digest, nothing) = (aggregate.digest(), Aggregate::EMPTY);
            let refused = verify_aggregate(&digest, &key, 0, 9, &nothing, &proof);
            assert!(
                matches!(&refused, Err(QueryError::Proof(why)) if misplaced(why)),
                "{refused:?}"
            );
        }
    }
}

/// (b) A CI host that stages `prev_root: None` for a tracked key — which
/// would restart its history under a valid index certificate — is refused
/// by the index verifier: called directly with every forged absence, and
/// inside `aug_sig_gen` and `hier_sig_gen` with the first.
#[test]
fn staging_a_tracked_key_as_new_is_refused() {
    let put = |nonce: u64, key: &str| {
        let (key, value) = (key.as_bytes().to_vec(), nonce.to_be_bytes().to_vec());
        let payload = KvCall::Put { key, value }.to_encoded_bytes();
        Transaction::sign(&Keypair::from_seed([7; 32]), nonce, "kvstore", payload)
    };
    for hierarchical in [false, true] {
        let (mut world, mut sp) = World::with_setup(vec![(IndexKind::History, "history")]);
        let certify = |world: &mut World, block: &Block, inputs: &[IndexInput]| {
            if hierarchical {
                let certified = world.ci.certify_hierarchical(block, inputs);
                certified.map(|(_, certs, _)| certs)
            } else {
                world
                    .ci
                    .certify_augmented(block, inputs)
                    .map(|(certs, _)| certs)
            }
        };
        let keys = ["acct", "b", "c", "d", "e", "f"];
        let first = keys.iter().zip(0..).map(|(key, nonce)| put(nonce, key));
        let block = world.miner.mine(first.collect(), 1).unwrap();
        let inputs = sp.stage_block(&block).unwrap();
        sp.record_certs(&certify(&mut world, &block, &inputs).unwrap());

        // Block 2 writes the tracked key alone: its aux is one update and
        // the single-key upper proof the forger starts from.
        let block = world.miner.mine(vec![put(9, "acct")], 2).unwrap();
        let mut inputs = sp.stage_block(&block).unwrap();
        let aux = inputs[0].aux.clone();
        let mut reader = Reader::new(&aux);
        assert_eq!(u32::decode(&mut reader), Ok(1));
        assert!(
            matches!(Option::<Hash>::decode(&mut reader), Ok(Some(_))),
            "tracked"
        );
        MbAppendProof::decode(&mut reader).unwrap();
        let honest = upper_proof(&aux, aux.len() - reader.remaining());
        let value = Some(9u64.to_be_bytes().to_vec());
        let writes = vec![(StateKey::new("kvstore", b"acct"), value)];
        let verifier = HistoryVerifier::new("history");
        let (prev, new) = (inputs[0].prev_digest, inputs[0].new_digest);
        assert_eq!(
            verifier.verify_update(&prev, &block, &writes, &aux),
            Ok(new)
        );

        let staged = forged_absences(&honest).into_iter().map(|forged| {
            // One update, `prev_root: None`, a new tree's append proof.
            let mut staged = vec![0, 0, 0, 1, 0];
            MbTree::new(16).prove_append().encode(&mut staged);
            forged.encode(&mut staged);
            let refused = verifier.verify_update(&prev, &block, &writes, &staged);
            assert!(
                matches!(&refused, Err(CertError::Proof(why)) if misplaced(why)),
                "{refused:?}"
            );
            staged
        });
        inputs[0].aux = staged.collect::<Vec<_>>().pop().expect("forgeries");
        let refused = certify(&mut world, &block, &inputs);
        assert!(
            matches!(&refused, Err(CertError::EnclaveRejected(why)) if why.contains("outside subtree")),
            "{refused:?}"
        );
    }
}

/// (c) An SP that answers "no postings" for an indexed keyword.
#[test]
fn empty_posting_list_for_an_indexed_keyword_is_refused() {
    let mut world = World::new();
    let mut index = InvertedIndex::new("inverted");
    for block in common::memo_blocks(&mut world, 3) {
        index.apply_block(&block);
    }
    let digest = index.digest();
    let indexed = ["stock", "bank"];
    for keyword in indexed {
        let (result, honest) = index.query(&[keyword]);
        assert!(!result.is_empty(), "{keyword} is indexed");
        verify_keywords(&digest, &[keyword], &result, &honest).unwrap();
        let encoded = honest.to_encoded_bytes();
        let mut reader = Reader::new(&encoded);
        let lists: Vec<(String, Vec<Hash>)> = decode_seq(&mut reader).unwrap();
        let honest = upper_proof(&encoded, encoded.len() - reader.remaining());
        for forged in forged_absences(&honest) {
            let mut nothing = Vec::new();
            encode_seq(&[(lists[0].0.clone(), Vec::<Hash>::new())], &mut nothing);
            forged.encode(&mut nothing);
            let proof = KeywordProof::decode_all(&nothing).unwrap();
            let refused = verify_keywords(&digest, &[keyword], &[], &proof);
            assert!(
                matches!(&refused, Err(QueryError::Proof(why)) if misplaced(why)),
                "{refused:?}"
            );
        }
    }
}
