//! The block's signature budget: every Ed25519 check a `blocks_kv`-shaped
//! journey makes, per block and per party (DESIGN.md §4, "once per trust
//! domain"). KVStore blocks of 32 transactions on the proof-of-authority
//! chain, `history` + `inverted` indexes, hierarchical certificates, one
//! subscribed client and one fresh bootstrap per block.
//!
//! In steady state each party checks each signature it needs once, and a
//! party whose output is accepted only through a certificate checks none
//! of the block's transactions: the miner its block's transactions (not
//! the seal it has just made), the SP the seal alone (it follows the
//! chain; the enclave checks the transactions before it certifies the
//! SP's digests), the CI host nothing, the enclave its replay
//! (transactions and seal) and not the anchor certificates it issued
//! itself, the subscribed client the block's three certificates, and a
//! fresh client the report and those three.
//!
//! One `#[test]` in its own binary: the stand-in `ed25519-dalek`'s counters
//! are process-wide, so nothing else may check a signature while it reads
//! them. The enclave's share is read off a twin [`CertProgram`] — the same
//! program on the same seed, outside any enclave — handed the very request
//! the CI sends (their signatures are compared); the CI host's share is the
//! rest of `certify_hierarchical`.

use std::sync::Arc;

use dcert::chain::Block;
use dcert::core::{
    BatchLink, CertError, CertJob, CertPipeline, CertProgram, Certificate, CertificateIssuer,
    EcallRequest, EcallResponse, Gossip, IndexInput, NetMessage, PipelineConfig, SuperlightClient,
    SyncOutcome,
};
use dcert::query::sp::IndexKind;
use dcert::sgx::enclave::Sealable;
use dcert::sgx::CostModel;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::{Setup, World, PLATFORM_SEED, SIGNING_SEED};

const TXS: usize = 32;
const WORKLOAD: Workload = Workload::KvStore { keyspace: 10_000 };

/// The Ed25519 verifications `f` makes, and what it returns.
fn checks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ed25519_dalek::work::verifies();
    let out = f();
    (ed25519_dalek::work::verifies() - before, out)
}

/// One block's checks, per party.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Budget {
    miner: u64,
    sp: u64,
    ci_host: u64,
    enclave: u64,
    subscribed: u64,
    fresh: u64,
}

/// The steady-state budget.
const STEADY: Budget = Budget {
    miner: TXS as u64,
    sp: 1,
    ci_host: 0,
    enclave: TXS as u64 + 1,
    subscribed: 3,
    fresh: 4,
};

/// The report and the three anchor certificates, checked in full.
const FULL_ANCHORS: u64 = 4;

/// The world's CI program outside any enclave, on the CI's signing seed.
fn twin(world: &World) -> CertProgram {
    let mut program = CertProgram::new(
        world.genesis.hash(),
        world.ias.public_key(),
        world.executor.clone(),
        world.engine.clone(),
        world.sp.verifiers(),
    )
    .with_signing_seed(SIGNING_SEED);
    program.handle(EcallRequest::Init).unwrap();
    program
}

/// The `Certify` the world's CI sends for `block` and its indexes, built
/// from its view.
fn request(world: &World, block: &Block, indexes: &[IndexInput]) -> EcallRequest {
    let (ci, state) = (&world.ci, world.ci.node().state());
    let calls: Vec<_> = block.txs.iter().map(|tx| tx.call.clone()).collect();
    let execution = world.executor.execute_block(state, &calls);
    EcallRequest::Certify {
        prev_header: ci.node().tip().clone(),
        prev_cert: ci.latest_block_cert().cloned(),
        links: vec![BatchLink {
            state_proof: state.prove(&execution.touched_keys()),
            reads: execution.reads.into_iter().collect(),
            block: block.clone(),
        }],
        indexes: indexes.to_vec(),
    }
}

/// What the CI publishes for one block.
fn messages(
    block: &Block,
    block_cert: &Certificate,
    inputs: &[IndexInput],
    index_certs: &[Certificate],
) -> Vec<NetMessage> {
    let header = &block.header;
    let mut out = vec![NetMessage::BlockCert {
        header: header.clone(),
        cert: block_cert.clone(),
    }];
    out.extend(
        inputs
            .iter()
            .zip(index_certs)
            .map(|(input, cert)| NetMessage::IndexCert {
                header: header.clone(),
                index: input.index_type.clone(),
                digest: input.new_digest,
                cert: cert.clone(),
            }),
    );
    out
}

fn adopt_all(client: &mut SuperlightClient, messages: &[NetMessage]) {
    for message in messages {
        let outcome = client.on_message(message);
        assert!(
            matches!(outcome, SyncOutcome::Adopted | SyncOutcome::AdoptedIndex),
            "refused: {outcome:?}"
        );
    }
}

/// Mines, stages, certifies and delivers one block, counting each party's
/// checks; the parts, plus the twin's replay, sum exactly to the global
/// count. With `refuse_first` the twin is offered a forgery of the request
/// (its last index digest off) before the request itself: the refusal must
/// leave its sealed state as it was and cost the honest request nothing.
fn journey(
    world: &mut World,
    gen: &mut WorkloadGen,
    twin: &mut CertProgram,
    refuse_first: bool,
) -> Budget {
    let txs = gen.next_block(TXS);
    let mut refused = 0;
    let (total, budget) = checks(|| {
        let (miner, block) = checks(|| world.mine(txs));
        let (staged, inputs) = checks(|| world.sp.stage_block(&block).unwrap());
        let request = request(world, &block, &inputs);
        if refuse_first {
            let mut forged = request.clone();
            if let EcallRequest::Certify { indexes, .. } = &mut forged {
                let digest = &mut indexes.last_mut().unwrap().new_digest;
                *digest = dcert::primitives::hash::hash_bytes(digest.as_bytes());
            }
            let sealed = twin.export_state();
            let (checked, refusal) = checks(|| twin.handle(forged));
            assert_eq!(refusal, Err(CertError::IndexDigestMismatch));
            assert!(twin.export_state() == sealed, "a refusal changes nothing");
            refused = checked;
        }
        let (enclave, signed) = checks(|| twin.handle(request).unwrap());
        let (certify, (block_cert, index_certs, _)) =
            checks(|| world.ci.certify_hierarchical(&block, &inputs).unwrap());
        let published = std::iter::once(&block_cert).chain(&index_certs);
        let EcallResponse::Signatures(signatures) = signed else {
            panic!("Certify answers signatures");
        };
        assert_eq!(
            signatures,
            published.map(|cert| cert.signature).collect::<Vec<_>>(),
            "the twin signs what the CI's enclave signs"
        );
        let (advanced, ()) = checks(|| world.sp.advance(Some(&index_certs)).unwrap());
        let messages = messages(&block, &block_cert, &inputs, &index_certs);
        let (subscribed, ()) = checks(|| adopt_all(&mut world.client, &messages));
        let (fresh, ()) = checks(|| {
            let ias_key = world.ias.public_key();
            let mut client = SuperlightClient::new(ias_key, dcert::core::expected_measurement());
            adopt_all(&mut client, &messages);
        });
        Budget {
            miner,
            sp: staged + advanced,
            ci_host: certify - enclave,
            enclave,
            subscribed,
            fresh,
        }
    });
    let Budget {
        miner,
        sp,
        ci_host,
        enclave,
        subscribed,
        fresh,
    } = budget;
    assert_eq!(
        total,
        miner + sp + ci_host + enclave + subscribed + fresh + enclave + refused,
        "every check belongs to a party (the last two terms are the twin's)"
    );
    budget
}

#[test]
fn every_party_checks_each_signature_once_per_block() {
    sha2::work::set_enabled(true);
    let indexes = [
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "inverted"),
    ];
    let mut world = World::new(Setup {
        indexes: indexes
            .iter()
            .map(|&(kind, name)| (kind, name.to_owned()))
            .collect(),
        ..Setup::poa(CostModel::zero())
    });
    let mut gen = world.generator(WORKLOAD, 1);
    let mut twin = twin(&world);

    // Block 1 anchors at genesis: no certificate to check, and the
    // subscribed client checks the report once.
    let first = journey(&mut world, &mut gen, &mut twin, false);
    assert_eq!(
        first,
        Budget {
            subscribed: 4,
            ..STEADY
        },
        "block 1"
    );
    // Block 2 anchors on certificates this enclave issued: their
    // signatures are remembered, its report is not yet.
    let second = journey(&mut world, &mut gen, &mut twin, false);
    assert_eq!(
        second,
        Budget {
            enclave: STEADY.enclave + 1,
            ..STEADY
        },
        "block 2"
    );
    for height in 3..=6 {
        assert_eq!(
            journey(&mut world, &mut gen, &mut twin, false),
            STEADY,
            "block {height}"
        );
    }
    let after_refusal = journey(&mut world, &mut gen, &mut twin, true);
    assert_eq!(after_refusal, STEADY, "after a refused request");

    // A restored enclave remembers nothing: it checks its first anchors in
    // full, then is back at the floor.
    let tip = world.ci.node().tip().clone();
    let tip_cert = world.ci.latest_block_cert().unwrap().clone();
    let snapshot = world.ci.node().state().clone();
    world.ci = CertificateIssuer::resume_on_platform(
        PLATFORM_SEED,
        &world.ci.seal_enclave_key(),
        world.genesis.hash(),
        &tip,
        &tip_cert,
        snapshot,
        world.executor.clone(),
        world.engine.clone(),
        world.sp.verifiers(),
        &mut world.ias,
        CostModel::zero(),
    )
    .unwrap();
    let sealed = twin.export_state();
    twin = self::twin(&world);
    twin.import_state(&sealed).unwrap();
    let restored = journey(&mut world, &mut gen, &mut twin, false);
    let enclave = STEADY.enclave + FULL_ANCHORS;
    assert_eq!(restored, Budget { enclave, ..STEADY }, "after restore");
    assert_eq!(
        journey(&mut world, &mut gen, &mut twin, false),
        STEADY,
        "restored, then"
    );

    // A pipelined batch stream that continues the CI's last certificate:
    // its first job checks that anchor's report (the signature is one this
    // enclave issued); every later job's anchor is remembered whole.
    let mut world = World::new(Setup::poa(CostModel::zero()));
    let mut gen = world.generator(WORKLOAD, 2);
    let first = world.mine(gen.next_block(TXS));
    world.ci.certify_block(&first).unwrap();
    let (jobs, per_job) = (3, 4);
    let batches: Vec<Vec<Block>> = (0..jobs)
        .map(|_| {
            (0..per_job)
                .map(|_| world.mine(gen.next_block(TXS)))
                .collect()
        })
        .collect();
    let (stream, ()) = checks(|| {
        let pipeline =
            CertPipeline::spawn(world.ci, PipelineConfig::default(), Arc::new(Gossip::new()));
        for batch in batches {
            pipeline.submit(CertJob::Batch(batch)).unwrap();
        }
        let (ci, report) = pipeline.shutdown();
        assert_eq!((report.block_certs, report.errors.len()), (jobs as u64, 0));
        assert_eq!(ci.node().height(), 1 + (jobs * per_job) as u64);
    });
    let replay = (jobs * per_job) as u64 * (TXS as u64 + 1);
    assert_eq!(stream, replay + 1, "one anchor check in {jobs} jobs");
}
