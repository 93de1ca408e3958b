//! Crash/restart drills for the pipelined Certificate Issuer.
//!
//! `tests/sealed_restart.rs` proves an *orderly* restart preserves
//! `sk_enc`. This suite kills the pipeline mid-run ([`CertPipeline::kill`]
//! — the issuer thread abandons its queued jobs, as `kill -9` would) and
//! resumes from the sealed enclave state
//! ([`CertificateIssuer::resume_on_platform`]) plus the last *published*
//! certificate. The invariants drilled:
//!
//! - **no missing heights**: the published stream before the crash plus
//!   the resumed issuance covers every height exactly once,
//! - **no conflicting double-issue**: the enclave's sealed monotonic
//!   watermark (`last_signed_height`) refuses to sign at or below a
//!   height it already signed, so a rolled-back host cannot obtain a
//!   second certificate chain,
//! - **byte determinism**: everything issued, before or after the crash,
//!   is byte-identical to what a never-crashed sequential issuer signs.

// A stalled pipeline fails the test instead of hanging it.
#![allow(clippy::disallowed_types, reason = "a wall-clock hang guard")]

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::temp_dir;
use dcert::chain::{Block, BlockHeader, ChainState, ConsensusEngine, FullNode};
use dcert::core::{
    CertError, CertJob, CertPipeline, CertProgram, Certificate, CertificateIssuer, EcallRequest,
    EcallResponse, Gossip, NetMessage, PipelineConfig, Transport,
};
use dcert::obs::{Registry, Snapshot};
use dcert::primitives::hash::Address;
use dcert::primitives::keys::SecretBytes;
use dcert::query::sp::IndexKind;
use dcert::sgx::enclave::Sealable;
use dcert::sgx::CostModel;
use dcert::store::{SegmentStore, Store, StoreConfig};
use dcert::vm::Executor;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::{World, PLATFORM_SEED};

const CHAIN: u64 = 6;

/// Mines the drill chain and computes the sequential ground-truth
/// certificate per height (fresh worlds share seeds, so every run signs
/// byte-identically).
fn ground_truth() -> (Vec<Block>, Vec<(BlockHeader, Certificate)>) {
    let mut world = World::pow(&[]);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 16 }, CHAIN as usize, 3, 9);
    let expected = blocks
        .iter()
        .map(|block| {
            let (cert, _) = world.ci.certify_block(block).expect("sequential certify");
            (block.header.clone(), cert)
        })
        .collect();
    (blocks, expected)
}

/// The chain state at `height`, rebuilt the way a restarted CI would:
/// replaying the persisted blocks on a fresh node.
fn state_at(
    genesis: &Block,
    genesis_state: &ChainState,
    executor: &Executor,
    engine: &Arc<dyn ConsensusEngine>,
    blocks: &[Block],
    height: u64,
) -> ChainState {
    let mut replica = FullNode::new(
        genesis,
        genesis_state.clone(),
        executor.clone(),
        engine.clone(),
        Address::from_seed(0xED),
    );
    for block in &blocks[..height as usize] {
        replica.follow(block).expect("replays persisted block");
    }
    replica.state().clone()
}

/// Kills the pipeline after exactly `kill_after` certificates have been
/// published, then resumes from the sealed enclave state and finishes the
/// chain. Lock-step submission makes the kill point — and therefore the
/// sealed watermark — deterministic: when certificate `k` is on the bus,
/// no later job has entered the pipeline.
fn drill_kill_at(kill_after: u64) {
    let (blocks, expected) = ground_truth();
    let world = World::pow(&[]);
    let World {
        executor,
        engine,
        genesis,
        genesis_state,
        mut ias,
        ci,
        ..
    } = world;
    let original_pk = ci.pk_enc();

    let bus = Arc::new(Gossip::new());
    let rx = bus.join();
    let pipeline = CertPipeline::spawn(
        ci,
        PipelineConfig::default(),
        bus.clone() as Arc<dyn Transport>,
    );

    let mut published: Vec<(BlockHeader, Certificate)> = Vec::new();
    for block in blocks.iter().take(kill_after as usize) {
        pipeline
            .submit(CertJob::Block(block.clone()))
            .expect("accepts");
        match recv_within(Duration::from_secs(30), || rx.try_recv().ok()).expect("cert published") {
            NetMessage::BlockCert { header, cert } => published.push((header, cert)),
            other => panic!("unexpected message {other:?}"),
        }
    }

    // Crash: queued jobs are abandoned; the sealed enclave state is
    // what survives (in a real deployment the seal is written at every
    // checkpoint, long before the crash).
    pipeline.kill();
    let sealed = pipeline.seal_enclave_key();
    drop(pipeline); // the process is gone; its CI is never reassembled

    let (checkpoint, checkpoint_cert) = published.last().expect("published at least one").clone();
    assert_eq!(checkpoint.height, kill_after);
    let snapshot = state_at(
        &genesis,
        &genesis_state,
        &executor,
        &engine,
        &blocks,
        kill_after,
    );

    let mut resumed = CertificateIssuer::resume_on_platform(
        PLATFORM_SEED,
        &sealed,
        genesis.hash(),
        &checkpoint,
        &checkpoint_cert,
        snapshot,
        executor.clone(),
        engine.clone(),
        Vec::new(),
        &mut ias,
        CostModel::zero(),
    )
    .expect("resume from sealed state");
    assert_eq!(
        resumed.pk_enc(),
        original_pk,
        "sk_enc must survive the crash"
    );

    for block in &blocks[kill_after as usize..] {
        let (cert, _) = resumed.certify_block(block).expect("resumed issuance");
        published.push((block.header.clone(), cert));
    }

    // No missing heights, no duplicates, and the combined pre-crash +
    // post-resume stream is byte-identical to the never-crashed issuer's.
    let heights: Vec<u64> = published.iter().map(|(h, _)| h.height).collect();
    assert_eq!(heights, (1..=CHAIN).collect::<Vec<_>>());
    assert_eq!(
        published, expected,
        "kill at {kill_after}: stream diverged from sequential issuance"
    );
}

#[test]
fn kill_and_resume_at_every_height() {
    for kill_after in 1..CHAIN {
        drill_kill_at(kill_after);
    }
}

/// Mid-flight crash: all jobs submitted up front, so the kill lands while
/// jobs wait in the issuer thread's queue or one is inside the enclave.
/// The queued ones are lost with the process; the sealed watermark then
/// makes the outcome binary — resume and finish, or, had a signed
/// certificate been lost too, refuse with a height-regression rejection —
/// but never a second certificate for an already-signed height.
#[test]
fn mid_flight_kill_never_double_issues() {
    let (blocks, expected) = ground_truth();
    let world = World::pow(&[]);
    let World {
        executor,
        engine,
        genesis,
        genesis_state,
        mut ias,
        ci,
        ..
    } = world;

    let bus = Arc::new(Gossip::new());
    let rx = bus.join();
    let pipeline = CertPipeline::spawn(
        ci,
        PipelineConfig::default(),
        bus.clone() as Arc<dyn Transport>,
    );
    for block in &blocks {
        pipeline
            .submit(CertJob::Block(block.clone()))
            .expect("accepts");
    }
    // Let at least one certificate out, then pull the plug mid-stream.
    let first = recv_within(Duration::from_secs(30), || rx.try_recv().ok()).expect("first cert");
    pipeline.kill();
    let sealed = pipeline.seal_enclave_key();
    drop(pipeline);

    // Everything that made it to the bus before the crash.
    let mut published: Vec<(BlockHeader, Certificate)> = Vec::new();
    let mut collect = |msg: NetMessage| match msg {
        NetMessage::BlockCert { header, cert } => published.push((header, cert)),
        other => panic!("unexpected message {other:?}"),
    };
    collect(first);
    while let Ok(msg) = rx.try_recv() {
        collect(msg);
    }
    let (checkpoint, checkpoint_cert) = published.last().expect("at least one").clone();
    let tip = checkpoint.height;
    let snapshot = state_at(&genesis, &genesis_state, &executor, &engine, &blocks, tip);

    let mut resumed = CertificateIssuer::resume_on_platform(
        PLATFORM_SEED,
        &sealed,
        genesis.hash(),
        &checkpoint,
        &checkpoint_cert,
        snapshot,
        executor.clone(),
        engine.clone(),
        Vec::new(),
        &mut ias,
        CostModel::zero(),
    )
    .expect("restore itself always succeeds on the same platform");

    match blocks
        .get(tip as usize)
        .map(|next| resumed.certify_block(next))
    {
        // The kill landed after the last publish: nothing was in flight
        // and the published stream is already the whole chain.
        None => assert_eq!(published, expected),
        Some(Ok((cert, _))) => {
            // Watermark == published tip: nothing signed was lost; finish
            // the chain and require byte-identity with the ground truth.
            published.push((blocks[tip as usize].header.clone(), cert));
            for block in &blocks[tip as usize + 1..] {
                let (cert, _) = resumed.certify_block(block).expect("resumed issuance");
                published.push((block.header.clone(), cert));
            }
            assert_eq!(published, expected);
        }
        // Certificates were signed but lost with the crash: the enclave
        // fails safe rather than signing a second chain over heights it
        // already certified.
        Some(Err(CertError::HeightRegression { .. })) => {}
        Some(Err(other)) => panic!("unexpected resume failure: {other}"),
    }
    // In every outcome: every published height appears exactly once and
    // matches the sequential issuer byte-for-byte.
    let heights: Vec<u64> = published.iter().map(|(h, _)| h.height).collect();
    let mut deduped = heights.clone();
    deduped.dedup();
    assert_eq!(heights, deduped, "duplicate height in the published stream");
    for (pair, want) in published.iter().zip(expected.iter()) {
        assert_eq!(pair, want);
    }
}

/// One run of the SP persistence drill: certify a short chain into a
/// [`SegmentStore`], kill the process mid-append (torn tail past the
/// durable watermark), reopen into the same metrics registry, recover
/// through certificate re-verification, and return the replay-stable
/// part of the snapshot for cross-run comparison.
#[allow(clippy::disallowed_methods, reason = "a crash test's torn tail")]
fn sp_store_drill(label: &str) -> Snapshot {
    const DRILL_CHAIN: u64 = 4;
    let indexes = vec![(IndexKind::History, "history")];
    let mut world = World::pow(&indexes);
    let obs = Registry::new();
    let dir = temp_dir(label);
    world.sp = world
        .recover_sp(Box::new(
            SegmentStore::open(StoreConfig::new(&dir).obs(obs.clone())).expect("drill store opens"),
        ))
        .expect("empty store");

    let blocks = world.mine_blocks(
        Workload::KvStore { keyspace: 16 },
        DRILL_CHAIN as usize,
        3,
        9,
    );
    for block in &blocks {
        let inputs = world.sp.stage_block(block).expect("stages");
        let (certs, _) = world
            .ci
            .certify_augmented(block, &inputs)
            .expect("certifies");
        world.sp.advance(Some(&certs)).expect("advances");
    }
    assert!(
        world.sp.store_error().is_none(),
        "store poisoned during the run"
    );
    let live_digest = world.sp.digest("history");
    let live_cert = world.sp.certificate("history").cloned();

    // Crash: the store dies with the process, mid-way through appending
    // the next record — half a frame header lands past the watermark.
    drop(world.sp.take_store());
    let seg = dir.join("seg-00000000.dcs");
    let mut bytes = std::fs::read(&seg).expect("segment readable");
    bytes.extend_from_slice(&[0xEE; 5]);
    std::fs::write(&seg, bytes).expect("segment writable");

    // Restart: recovery counts its replays and the tail truncation in the
    // same registry the live run used.
    let store =
        SegmentStore::open(StoreConfig::new(&dir).obs(obs.clone())).expect("torn tail recovers");
    assert_eq!(store.durable_height(), DRILL_CHAIN);
    // The restarted process starts at genesis.
    let recovered = world
        .recover_sp(Box::new(store))
        .expect("recovered pages re-verify");
    assert_eq!(recovered.height(), DRILL_CHAIN);
    assert_eq!(recovered.digest("history"), live_digest);
    assert_eq!(recovered.certificate("history").cloned(), live_cert);

    let snap = obs.snapshot();
    // One block page per height, replayed once.
    assert_eq!(snap.counter("store.recovery_replays"), DRILL_CHAIN);
    assert_eq!(snap.counter("store.tail_truncations"), 1);
    assert_eq!(snap.counter("store.truncated_bytes"), 5);
    std::fs::remove_dir_all(&dir).ok();
    snap.without_wall_clock()
}

/// The persistence layer's crash drill: an SP on a [`SegmentStore`]
/// killed mid-append resumes byte-identically, and the whole drill —
/// including the `store.recovery_replays` / `store.tail_truncations`
/// counters — is replay-stable across independent runs.
#[test]
fn sp_on_segment_store_resumes_with_replay_stable_metrics() {
    let a = sp_store_drill("sp-drill-a");
    let b = sp_store_drill("sp-drill-b");
    assert_eq!(a, b, "store metrics diverged between identical drills");
}

/// A valid `Certify` of a height-1 block over the genesis state —
/// the raw material for driving [`CertProgram::handle`] directly (typed
/// errors do not survive the ECall boundary, so the watermark check is
/// asserted at the program level).
fn certify_request(
    genesis: &Block,
    state: &ChainState,
    executor: &Executor,
    block: &Block,
) -> EcallRequest {
    let calls: Vec<_> = block.txs.iter().map(|t| t.call.clone()).collect();
    let execution = executor.execute_block(state, &calls);
    EcallRequest::Certify {
        prev_header: genesis.header.clone(),
        prev_cert: None,
        links: vec![dcert::core::BatchLink {
            block: block.clone(),
            state_proof: state.prove(&execution.touched_keys()),
            reads: execution.reads.into_iter().collect(),
        }],
        indexes: Vec::new(),
    }
}

/// The watermark inside the enclave: after signing height `h`, a second
/// signature at any height `<= h` is refused with a typed error — even
/// for a perfectly valid competing block (the equivocation a rolled-back
/// or malicious host would need).
#[test]
fn enclave_refuses_competing_block_at_signed_height() {
    let (blocks, _) = ground_truth();
    let world = World::pow(&[]);
    let World {
        executor,
        engine,
        genesis,
        genesis_state,
        ias,
        ..
    } = world;

    // A competing, fully valid block at height 1 (different miner and
    // txs, freshly mined). The *chain* rules accept it as an alternative
    // child of genesis; the enclave's watermark must not.
    let mut fork_miner = FullNode::new(
        &genesis,
        genesis_state.clone(),
        executor.clone(),
        engine.clone(),
        Address::from_seed(0xF0),
    );
    let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 16 }, 8, 77);
    let competing = fork_miner.mine(gen.next_block(2), 1).expect("mines fork");
    assert_ne!(competing.hash(), blocks[0].hash(), "fixture must fork");

    let mut program = CertProgram::new(
        genesis.hash(),
        ias.public_key(),
        executor.clone(),
        engine.clone(),
        Vec::new(),
    );
    program.handle(EcallRequest::Init).expect("init");

    let honest = certify_request(&genesis, &genesis_state, &executor, &blocks[0]);
    match program.handle(honest) {
        Ok(EcallResponse::Signatures(signatures)) if signatures.len() == 1 => {}
        other => panic!("honest block must sign, got {other:?}"),
    }
    assert_eq!(program.last_signed_height(), 1);

    let competing = certify_request(&genesis, &genesis_state, &executor, &competing);
    let err = program
        .handle(competing)
        .expect_err("watermark must refuse");
    assert!(
        matches!(
            err,
            CertError::HeightRegression {
                last_signed: 1,
                offered: 1
            }
        ),
        "expected HeightRegression, got {err}"
    );
}

/// Sealed-state format: the watermark rides in the blob (key ‖ height),
/// and a 32-byte key-only blob is refused — importing it would reset the
/// rollback guard to 0.
#[test]
fn sealed_state_carries_watermark_and_refuses_key_only_blobs() {
    let world = World::pow(&[]);
    let mut program = CertProgram::new(
        world.genesis.hash(),
        world.ias.public_key(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
    );
    program
        .import_state(&SecretBytes::default())
        .expect("empty import clears state");
    assert_eq!(program.last_signed_height(), 0);

    // A synthetic 40-byte blob: key ‖ big-endian watermark.
    let mut with_watermark = vec![0x51; 32];
    with_watermark.extend_from_slice(&7u64.to_be_bytes());
    program
        .import_state(&SecretBytes::new(&with_watermark))
        .expect("40-byte import");
    assert_eq!(program.last_signed_height(), 7);
    let exported = program.export_state();
    assert_eq!(exported.len(), 40, "export = key ‖ watermark");
    assert!(
        exported == SecretBytes::new(&with_watermark),
        "export = the imported key ‖ watermark"
    );

    // The same bytes truncated to the key alone, or shorter, are malformed
    // and leave the imported state as it was.
    for len in [32, 16] {
        let refused = program.import_state(&SecretBytes::new(&with_watermark[..len]));
        assert_eq!(refused, Err(dcert::sgx::SgxError::BadSeal));
        assert_eq!(program.last_signed_height(), 7);
    }
}

/// Polls `try_recv` until it yields or `deadline` passes: the drills' hang
/// guard. A deadline poll over `try_recv` asks nothing of the channel crate
/// that every build of it does not carry.
fn recv_within<T>(deadline: Duration, mut try_recv: impl FnMut() -> Option<T>) -> Option<T> {
    let started = std::time::Instant::now();
    loop {
        if let Some(message) = try_recv() {
            return Some(message);
        }
        if started.elapsed() >= deadline {
            return None;
        }
        // Yield, not sleep: the drills kill the pipeline the moment the
        // first certificate is out, and a sleep quantum is long enough for
        // a short chain to finish first.
        std::thread::yield_now();
    }
}
