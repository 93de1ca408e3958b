//! Property-based evidence that the pipelined certification engine is
//! observationally equivalent to the sequential [`CertificateIssuer`]:
//! byte-identical certificates, in the same chain order, for plain,
//! batched, augmented, and hierarchical jobs — plus deterministic tests
//! for orderly shutdown, a kill, a failed batch's rollback, and
//! sequential ⇄ pipelined hand-overs, the sharded fleet's equivalence to
//! both, and the sequential issuer's own properties (any random chain
//! certifies, replicas agree, client storage is constant).
//!
//! Two seed-identical worlds (`dcert::world::World`) share every
//! seed (genesis, IAS, platform, enclave signing key), so the sequential
//! arm and the pipelined arm *must* produce the same bytes if the engine
//! is faithful. All assertions are on counts, bytes, and digests — never
//! wall-clock (the enclave runs `CostModel::zero`).
//!
//! One stream certifies with one chain scheme: plain/batch jobs share the
//! recursive block-certificate chain, while Algorithm 4 (augmented)
//! replaces it and Algorithm 5 (hierarchical) adds per-index chains that
//! must be gap-free (a `Certify` with indexes requires the previous index
//! certificate to cover exactly the previous header). Schemes therefore
//! mix across property cases, and plain/batch jobs mix within a stream —
//! the same constraint the sequential issuer has.

// A stalled pipeline fails the test instead of hanging it.
#![allow(clippy::disallowed_types, reason = "a wall-clock hang guard")]

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use dcert::chain::{Block, BlockHeader, ChainError};
use dcert::core::{
    CertError, CertJob, CertPipeline, Certificate, CertificateIssuer, DeadLetter, Gossip,
    NetMessage, PipelineConfig, PipelineReport, RangeCert, ShardFailurePlan, ShardFleetConfig,
    ShardedCertEngine, SharedStore, SuperlightClient,
};
use dcert::obs::Registry;
use dcert::primitives::codec::{Decode, Encode};
use dcert::primitives::hash::Hash;
use dcert::primitives::keys::PublicKey;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::sgx::{CostModel, SealedBlob};
use dcert::store::MemStore;
use dcert::workloads::{Workload, WorkloadGen};
use dcert::world::{assert_bytes_equal, World};
use dcert_testkit::{check, Gen};

// --- the observable stream --------------------------------------------------

/// One broadcast certificate, as a superlight client would observe it.
/// Comparing these (the certificate down to its encoded bytes) across the
/// two arms is the equivalence oracle.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Block {
        header: BlockHeader,
        cert: Certificate,
    },
    Index {
        header: BlockHeader,
        name: String,
        digest: Hash,
        cert: Certificate,
    },
}

impl Event {
    fn cert(&self) -> &Certificate {
        match self {
            Event::Block { cert, .. } | Event::Index { cert, .. } => cert,
        }
    }
}

// --- certification plans ----------------------------------------------------

/// How a mined chain is carved into certification jobs.
#[derive(Debug, Clone)]
enum Plan {
    /// Plain blocks and coalesced batches, interleaved freely (both feed
    /// the same recursive block-certificate chain).
    PlainMix(Vec<BatchShape>),
    /// Algorithm 4 on every block, for the given indexes.
    Augmented(Vec<(IndexKind, &'static str)>, usize),
    /// Algorithm 5 on every block, for the given indexes.
    Hierarchical(Vec<(IndexKind, &'static str)>, usize),
}

#[derive(Debug, Clone, Copy)]
enum BatchShape {
    Single,
    Batch(usize),
}

impl Plan {
    fn indexes(&self) -> Vec<(IndexKind, &'static str)> {
        match self {
            Plan::PlainMix(_) => Vec::new(),
            Plan::Augmented(indexes, _) | Plan::Hierarchical(indexes, _) => indexes.clone(),
        }
    }

    fn block_count(&self) -> usize {
        match self {
            Plan::PlainMix(shapes) => shapes
                .iter()
                .map(|s| match s {
                    BatchShape::Single => 1,
                    BatchShape::Batch(len) => *len,
                })
                .sum(),
            Plan::Augmented(_, blocks) | Plan::Hierarchical(_, blocks) => *blocks,
        }
    }
}

// --- the two arms -----------------------------------------------------------

/// Drives the sequential issuer over the plan, returning the certificate
/// stream it would broadcast.
fn run_sequential(
    ci: &mut CertificateIssuer,
    sp: &mut ServiceProvider,
    plan: &Plan,
    blocks: &[Block],
) -> Vec<Event> {
    let mut events = Vec::new();
    match plan {
        Plan::PlainMix(shapes) => {
            let mut cursor = blocks.iter();
            for shape in shapes {
                match shape {
                    BatchShape::Single => {
                        let block = cursor.next().expect("plan covers the chain");
                        let (cert, _) = ci.certify_block(block).expect("block certifies");
                        events.push(Event::Block {
                            header: block.header.clone(),
                            cert,
                        });
                    }
                    BatchShape::Batch(len) => {
                        let chunk: Vec<Block> = cursor.by_ref().take(*len).cloned().collect();
                        let (cert, _) = ci.certify_batch(&chunk).expect("batch certifies");
                        events.push(Event::Block {
                            header: chunk.last().expect("non-empty batch").header.clone(),
                            cert,
                        });
                    }
                }
            }
        }
        Plan::Augmented(..) => {
            for block in blocks {
                let inputs = sp.stage_block(block).expect("sp stages");
                let (certs, _) = ci
                    .certify_augmented(block, &inputs)
                    .expect("augmented certifies");
                sp.advance(Some(&certs)).expect("sp advances");
                for (input, cert) in inputs.iter().zip(certs) {
                    events.push(Event::Index {
                        header: block.header.clone(),
                        name: input.index_type.clone(),
                        digest: input.new_digest,
                        cert,
                    });
                }
            }
        }
        Plan::Hierarchical(..) => {
            for block in blocks {
                let inputs = sp.stage_block(block).expect("sp stages");
                let (block_cert, index_certs, _) = ci
                    .certify_hierarchical(block, &inputs)
                    .expect("hierarchical certifies");
                sp.advance(Some(&index_certs)).expect("sp advances");
                events.push(Event::Block {
                    header: block.header.clone(),
                    cert: block_cert,
                });
                for (input, cert) in inputs.iter().zip(index_certs) {
                    events.push(Event::Index {
                        header: block.header.clone(),
                        name: input.index_type.clone(),
                        digest: input.new_digest,
                        cert,
                    });
                }
            }
        }
    }
    events
}

/// Materialises the plan into pipeline jobs. Indexed jobs carry the SP's
/// staged inputs; their `prev_cert` fields are left for the issuer stage
/// to set (the certificates do not exist yet at submission time), so
/// the SP settles each block without them.
fn build_jobs(sp: &mut ServiceProvider, plan: &Plan, blocks: &[Block]) -> Vec<CertJob> {
    match plan {
        Plan::PlainMix(shapes) => {
            let mut cursor = blocks.iter();
            shapes
                .iter()
                .map(|shape| match shape {
                    BatchShape::Single => {
                        CertJob::Block(cursor.next().expect("plan covers the chain").clone())
                    }
                    BatchShape::Batch(len) => {
                        CertJob::Batch(cursor.by_ref().take(*len).cloned().collect())
                    }
                })
                .collect()
        }
        Plan::Augmented(..) => blocks
            .iter()
            .map(|block| {
                let indexes = sp.stage_block(block).expect("sp stages");
                sp.advance(None).expect("sp settles");
                CertJob::Augmented {
                    block: block.clone(),
                    indexes,
                }
            })
            .collect(),
        Plan::Hierarchical(..) => blocks
            .iter()
            .map(|block| {
                let indexes = sp.stage_block(block).expect("sp stages");
                sp.advance(None).expect("sp settles");
                CertJob::Hierarchical {
                    block: block.clone(),
                    indexes,
                }
            })
            .collect(),
    }
}

/// Runs the jobs through a pipeline and collects the broadcast stream.
fn run_pipeline(
    ci: CertificateIssuer,
    jobs: Vec<CertJob>,
    obs: Registry,
) -> (Vec<Event>, CertificateIssuer, PipelineReport) {
    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(
        ci,
        PipelineConfig {
            obs,
            ..PipelineConfig::default()
        },
        gossip,
    );
    for job in jobs {
        pipeline.submit(job).expect("pipeline accepts jobs");
    }
    let (ci, report) = pipeline.shutdown();
    let mut events = Vec::new();
    while let Ok(message) = feed.try_recv() {
        match message {
            NetMessage::BlockCert { header, cert } => events.push(Event::Block { header, cert }),
            NetMessage::IndexCert {
                header,
                index,
                digest,
                cert,
            } => events.push(Event::Index {
                header,
                name: index,
                digest,
                cert,
            }),
            _ => {}
        }
    }
    (events, ci, report)
}

/// Feeds a certificate stream to a fresh superlight client and returns
/// it. Index certificates beyond the first per height are digest updates
/// the client has already adopted the header for, so they are validated
/// only through the first one (`validate_chain_with_index`).
fn replay(events: &[Event], ias_key: PublicKey, measurement: Hash) -> SuperlightClient {
    let mut client = SuperlightClient::new(ias_key, measurement);
    let mut adopted = None;
    for event in events {
        match event {
            Event::Block { header, cert } => {
                client.validate_chain(header, cert).expect("client adopts");
                adopted = Some(header.height);
            }
            Event::Index {
                header,
                name,
                digest,
                cert,
            } => {
                if adopted != Some(header.height) {
                    client
                        .validate_chain_with_index(header, name, *digest, cert)
                        .expect("client adopts via index");
                    adopted = Some(header.height);
                }
            }
        }
    }
    client
}

/// The full oracle: mine one chain, certify it sequentially and through
/// the pipeline in two seed-identical worlds, and require byte-identical
/// observable outcomes.
fn assert_equivalent(plan: Plan, workload: Workload, txs: usize, seed: u64) {
    let mut seq_world = World::pow(&plan.indexes());
    let blocks = seq_world.mine_blocks(workload, plan.block_count(), txs, seed);
    let seq_events = run_sequential(&mut seq_world.ci, &mut seq_world.sp, &plan, &blocks);

    let mut pipe_world = World::pow(&plan.indexes());
    let jobs = build_jobs(&mut pipe_world.sp, &plan, &blocks);
    let job_count = jobs.len() as u64;
    let (pipe_events, pipe_ci, report) = run_pipeline(pipe_world.ci, jobs, Registry::disabled());

    assert_eq!(report.errors, Vec::new(), "no job may fail");
    assert_eq!(report.jobs, job_count);
    assert_eq!(
        report.block_certs + report.index_certs,
        pipe_events.len() as u64
    );

    // Same certificates, same bytes, same chain order.
    assert_eq!(seq_events, pipe_events);
    for (seq, pipe) in seq_events.iter().zip(&pipe_events) {
        assert_eq!(
            seq.cert().to_encoded_bytes(),
            pipe.cert().to_encoded_bytes(),
            "certificates must serialize identically"
        );
    }

    // The reassembled CI stands where the sequential one does.
    assert_eq!(seq_world.ci.node().tip(), pipe_ci.node().tip());
    assert_eq!(
        seq_world.ci.latest_block_cert(),
        pipe_ci.latest_block_cert()
    );

    // A superlight client fed from either source adopts the same tip.
    let ias_key = seq_world.ias.public_key();
    let measurement = dcert::core::expected_measurement();
    let seq_client = replay(&seq_events, ias_key, measurement);
    let pipe_client = replay(&pipe_events, ias_key, measurement);
    assert_eq!(seq_client.latest_header(), pipe_client.latest_header());
    if !seq_events.is_empty() {
        assert_eq!(
            seq_client.latest_header().map(|h| h.height),
            Some(seq_world.ci.node().tip().height)
        );
    }
}

// --- strategies -------------------------------------------------------------

fn index_set(g: &mut Gen) -> Vec<(IndexKind, &'static str)> {
    g.one_of(&[
        vec![(IndexKind::History, "history")],
        vec![(IndexKind::Inverted, "keywords")],
        vec![
            (IndexKind::History, "history"),
            (IndexKind::Inverted, "keywords"),
        ],
        vec![
            (IndexKind::Aggregate, "volume"),
            (IndexKind::History, "history"),
            (IndexKind::Inverted, "keywords"),
        ],
    ])
}

fn plan(g: &mut Gen) -> Plan {
    match g.range(0u8..3) {
        0 => Plan::PlainMix(g.vec(1..=4, |g| match g.range(0u8..2) {
            0 => BatchShape::Single,
            _ => BatchShape::Batch(g.range(1usize..=3)),
        })),
        1 => Plan::Augmented(index_set(g), g.range(1usize..=4)),
        _ => Plan::Hierarchical(index_set(g), g.range(1usize..=4)),
    }
}

fn workload(g: &mut Gen) -> Workload {
    g.one_of(&[
        Workload::DoNothing,
        Workload::KvStore { keyspace: 32 },
        Workload::SmallBank { customers: 16 },
        Workload::IoHeavy { batch: 4 },
    ])
}

/// The pipeline is equivalent to the sequential issuer for every chain
/// scheme, workload, and batch shape.
#[test]
fn pipeline_matches_sequential() {
    // 96 cases ≈ 32 per chain scheme; the suite's floor is 64.
    check("pipeline_matches_sequential", 96, |g| {
        let (plan, workload) = (plan(g), workload(g));
        let (txs, seed) = (g.range(1usize..=3), g.any::<u64>());
        assert_equivalent(plan, workload, txs, seed);
    });
}

// --- observability is inert -------------------------------------------------

/// Attaching a live metrics registry must not change what the pipeline
/// broadcasts: the instrumented arm and the disabled-registry arm produce
/// byte-identical certificate streams over seed-identical worlds, while
/// only the live registry records anything.
#[test]
fn attached_registry_is_behaviourally_inert() {
    let plan = Plan::Hierarchical(
        vec![
            (IndexKind::History, "history"),
            (IndexKind::Inverted, "keywords"),
        ],
        3,
    );
    let run = |registry: Registry| {
        let mut world = World::pow(&plan.indexes());
        let blocks = world.mine_blocks(
            Workload::SmallBank { customers: 16 },
            plan.block_count(),
            2,
            17,
        );
        let jobs = build_jobs(&mut world.sp, &plan, &blocks);
        run_pipeline(world.ci, jobs, registry)
    };

    let live = Registry::new();
    let (instrumented, _, live_report) = run(live.clone());
    let disabled = Registry::disabled();
    let (plain, _, plain_report) = run(disabled.clone());

    assert_eq!(
        instrumented, plain,
        "a live registry changed the broadcast stream"
    );
    for (a, b) in instrumented.iter().zip(&plain) {
        assert_eq!(
            a.cert().to_encoded_bytes(),
            b.cert().to_encoded_bytes(),
            "certificates must serialize identically regardless of metrics"
        );
    }
    assert_eq!(live_report.jobs, plain_report.jobs);

    // The live registry saw every broadcast; the disabled one stayed
    // empty and hands out detached handles.
    let snap = live.snapshot();
    assert_eq!(
        snap.counter("pipeline.block_certs") + snap.counter("pipeline.index_certs"),
        instrumented.len() as u64
    );
    assert!(!disabled.is_enabled());
    let empty = disabled.snapshot();
    assert!(empty.counters.is_empty() && empty.histograms.is_empty() && empty.gauges.is_empty());
}

// --- hand-overs keep the certificate chains -----------------------------------

/// One CI certifies two blocks sequentially, moves into a pipeline for two
/// more, and comes back for a fifth. Its index-certificate chains must
/// survive both hand-overs: the pipeline's first request chains from the
/// certificates issued sequentially before `spawn`, and the last
/// sequential request from the ones the pipeline issued — even though the
/// SP, which only saw `advance(None)` meanwhile, stages a stale
/// `prev_cert`. The five-block stream equals the all-sequential one byte
/// for byte.
fn assert_handover_keeps_chains(plan_for: fn(usize) -> Plan) {
    let mut seq_world = World::pow(&plan_for(5).indexes());
    let blocks = seq_world.mine_blocks(Workload::SmallBank { customers: 16 }, 5, 2, 83);
    let seq_events = run_sequential(&mut seq_world.ci, &mut seq_world.sp, &plan_for(5), &blocks);

    let mut world = World::pow(&plan_for(5).indexes());
    let mut ci = world.ci;
    let mut events = run_sequential(&mut ci, &mut world.sp, &plan_for(2), &blocks[..2]);
    let jobs = build_jobs(&mut world.sp, &plan_for(2), &blocks[2..4]);
    let (piped, mut ci, report) = run_pipeline(ci, jobs, Registry::disabled());
    assert_eq!(
        report.errors,
        Vec::new(),
        "the pipeline must chain from pre-spawn certificates"
    );
    events.extend(piped);
    events.extend(run_sequential(
        &mut ci,
        &mut world.sp,
        &plan_for(1),
        &blocks[4..],
    ));

    assert_eq!(seq_events, events);
    for (seq, handed) in seq_events.iter().zip(&events) {
        assert_eq!(
            seq.cert().to_encoded_bytes(),
            handed.cert().to_encoded_bytes()
        );
    }
    assert_eq!(ci.node().tip(), seq_world.ci.node().tip());
    let client = replay(
        &events,
        world.ias.public_key(),
        dcert::core::expected_measurement(),
    );
    assert_eq!(client.latest_header().map(|h| h.height), Some(5));
}

fn handover_indexes() -> Vec<(IndexKind, &'static str)> {
    vec![
        (IndexKind::History, "history"),
        (IndexKind::Inverted, "keywords"),
    ]
}

#[test]
fn handover_keeps_augmented_index_chain() {
    assert_handover_keeps_chains(|blocks| Plan::Augmented(handover_indexes(), blocks));
}

#[test]
fn handover_keeps_hierarchical_index_chain() {
    assert_handover_keeps_chains(|blocks| Plan::Hierarchical(handover_indexes(), blocks));
}

// --- orderly shutdown -------------------------------------------------------

/// Shutdown drains every in-flight job, and the reassembled CI keeps
/// certifying sequentially from where the pipeline stopped.
#[test]
fn shutdown_drains_in_flight_and_ci_resumes() {
    let mut world = World::pow(&[]);
    let mut blocks = world.mine_blocks(Workload::KvStore { keyspace: 32 }, 13, 2, 11);
    // Block 13 is certified sequentially after the pipeline hands the
    // CI back.
    let next = blocks.pop().expect("mined");

    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), gossip);
    for block in &blocks {
        pipeline
            .submit(CertJob::Block(block.clone()))
            .expect("accepts");
    }
    // Shutdown races the last submissions through the stages: nothing may
    // be dropped.
    let (mut ci, report) = pipeline.shutdown();

    assert_eq!(report.jobs, 12);
    assert_eq!(report.block_certs, 12);
    assert_eq!(report.errors, Vec::new());
    assert_eq!(ci.node().tip(), &blocks.last().expect("mined").header);

    let mut heights = Vec::new();
    while let Ok(message) = feed.try_recv() {
        if let NetMessage::BlockCert { header, .. } = message {
            heights.push(header.height);
        }
    }
    assert_eq!(heights, (1..=12).collect::<Vec<u64>>());

    // The CI is whole: sequential certification continues the chain.
    let (cert, _) = ci.certify_block(&next).expect("sequential resume");
    let mut client =
        SuperlightClient::new(world.ias.public_key(), dcert::core::expected_measurement());
    client
        .validate_chain(&next.header, &cert)
        .expect("resumed cert validates");
}

/// Dropping the pipeline without `shutdown` still drains: certificates
/// reach the bus, only the reassembled CI and report are lost.
#[test]
fn drop_without_shutdown_still_drains() {
    let mut world = World::pow(&[]);
    let blocks = world.mine_blocks(Workload::DoNothing, 6, 1, 3);

    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), gossip);
    for block in blocks {
        pipeline.submit(CertJob::Block(block)).expect("accepts");
    }
    drop(pipeline);

    let mut certified = 0;
    while let Ok(message) = feed.try_recv() {
        if matches!(message, NetMessage::BlockCert { .. }) {
            certified += 1;
        }
    }
    assert_eq!(certified, 6);
}

/// `kill` refuses every later `submit`, deterministically: after `K` jobs
/// certified in lock-step, no job after the kill is sequenced, and the CI
/// `shutdown` hands back stands at the last published certificate — its
/// next certificate equals the sequential issuer's, byte for byte.
#[test]
fn kill_refuses_every_later_submit() {
    const K: usize = 3;
    let mut twin = World::pow(&[]);
    let blocks = twin.mine_blocks(Workload::KvStore { keyspace: 32 }, K + 2, 2, 23);
    twin.certify_blocks(&blocks[..K]);

    let world = World::pow(&[]);
    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), gossip);
    let mut published = Vec::new();
    for block in &blocks[..K] {
        pipeline
            .submit(CertJob::Block(block.clone()))
            .expect("accepts");
        // Lock-step: each certificate is out before the next job goes in.
        let started = Instant::now();
        let message = loop {
            if let Ok(message) = feed.try_recv() {
                break message;
            }
            assert!(started.elapsed() < Duration::from_secs(30), "not published");
            thread::yield_now();
        };
        match message {
            NetMessage::BlockCert { header, cert } => published.push((header, cert)),
            other => panic!("expected a block certificate, got {other:?}"),
        }
    }
    pipeline.kill();
    for block in &blocks[K..] {
        let refused = pipeline.submit(CertJob::Block(block.clone()));
        assert_eq!(refused, Err(CertError::PipelineClosed));
    }
    let (mut ci, report) = pipeline.shutdown();
    assert_eq!(report.jobs, K as u64);
    assert_eq!(report.errors, Vec::new());
    assert!(
        feed.try_recv().is_err(),
        "nothing after the kill is published"
    );

    let (header, cert) = published.last().expect("published");
    assert_eq!(header, &blocks[K - 1].header);
    assert_eq!(ci.latest_block_cert(), Some(cert));
    assert_eq!(ci.node().tip(), header);
    let (next, _) = ci.certify_block(&blocks[K]).expect("resumes");
    let (twin_next, _) = twin.ci.certify_block(&blocks[K]).expect("twin certifies");
    assert_eq!(next.to_encoded_bytes(), twin_next.to_encoded_bytes());
}

/// A broadcast nobody hears is one dead letter, never a retry: a pipeline
/// over a bus nobody joined reports each certificate once, by height, and
/// hands back a CI at the tip whose next certificate equals a twin's.
#[test]
fn unheard_broadcasts_dead_letter_once() {
    let mut twin = World::pow(&[]);
    let mut blocks = twin.mine_blocks(Workload::DoNothing, 5, 1, 5);
    let next = blocks.pop().expect("mined");
    twin.certify_blocks(&blocks);

    let world = World::pow(&[]);
    let pipeline =
        CertPipeline::spawn(world.ci, PipelineConfig::default(), Arc::new(Gossip::new()));
    for block in blocks {
        pipeline.submit(CertJob::Block(block)).expect("accepts");
    }
    let (mut ci, report) = pipeline.shutdown();
    assert_eq!(report.errors, Vec::new());
    let letter = |height| DeadLetter {
        seq: height - 1,
        height,
    };
    assert_eq!(
        report.dead_letters,
        [letter(1), letter(2), letter(3), letter(4)]
    );
    assert_eq!(ci.node().tip(), twin.ci.node().tip());
    let (cert, _) = ci.certify_block(&next).expect("sequential resume");
    let (twin_cert, _) = twin.ci.certify_block(&next).expect("twin certifies");
    assert_eq!(cert.to_encoded_bytes(), twin_cert.to_encoded_bytes());
}

/// A job that breaks chain rules fails in place — it neither stalls the
/// pipeline nor corrupts the CI's view for later valid jobs — and
/// one the enclave refuses is undone from the view shutdown hands back.
#[test]
fn bad_job_fails_without_stalling() {
    let mut world = World::pow(&[]);
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 32 }, 3, 2, 5);
    // Block 3 with its calls intact (it links and executes) but its tx root stale.
    let mut unsigned = blocks[2].clone();
    unsigned.txs[0].nonce ^= 1;

    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), gossip);
    // Deliver out of order: 1, 3, 2. Block 3 cannot link and must fail;
    // block 2 still extends the (unmoved) tip and must succeed.
    for block in [&blocks[0], &blocks[2], &blocks[1], &unsigned] {
        pipeline
            .submit(CertJob::Block(block.clone()))
            .expect("accepts");
    }
    let (ci, report) = pipeline.shutdown();

    assert_eq!(report.jobs, 4);
    assert_eq!(report.block_certs, 2);
    assert_eq!(report.errors.len(), 2);
    assert_eq!(report.errors[0].0, 1, "the out-of-order job is the failure");
    assert!(matches!(report.errors[0].1, CertError::Chain(_)));
    let unsealed = CertError::Chain(ChainError::TxRootMismatch);
    assert_eq!(report.errors[1].1, unsealed);
    assert_eq!(ci.node().tip(), &blocks[1].header);

    let mut heights = Vec::new();
    while let Ok(message) = feed.try_recv() {
        if let NetMessage::BlockCert { header, .. } = message {
            heights.push(header.height);
        }
    }
    assert_eq!(heights, vec![1, 2]);
}

/// A batch whose last block carries a forged `state_root` fails in
/// `submit`, before any ECall, and takes the view back to where the batch
/// started: the honest batch of the same blocks, submitted next, certifies
/// byte for byte as the sequential issuer does.
#[test]
fn failed_batch_rolls_back_whole() {
    let plan = Plan::PlainMix(vec![BatchShape::Batch(3)]);
    let mut seq_world = World::pow(&[]);
    let blocks = seq_world.mine_blocks(Workload::KvStore { keyspace: 32 }, 3, 2, 19);
    let seq_events = run_sequential(&mut seq_world.ci, &mut seq_world.sp, &plan, &blocks);

    let world = World::pow(&[]);
    let enclave = Registry::new();
    world.ci.attach_obs(&enclave);
    let mut forged = blocks.clone();
    forged[2].header.state_root = Hash::ZERO;
    let jobs = vec![CertJob::Batch(forged), CertJob::Batch(blocks.clone())];
    let (events, ci, report) = run_pipeline(world.ci, jobs, Registry::disabled());

    assert_eq!(
        report.errors,
        vec![(0, CertError::Chain(ChainError::StateRootMismatch))]
    );
    assert_eq!(
        enclave.snapshot().counter("enclave.ecalls"),
        1,
        "only the honest batch crosses"
    );
    assert_eq!(seq_events, events);
    assert_eq!(
        seq_events[0].cert().to_encoded_bytes(),
        events[0].cert().to_encoded_bytes()
    );
    assert_eq!(ci.node().tip(), &blocks[2].header);
}

/// The Fig. 2 actor loop: a miner flooding blocks then broadcasting
/// `NetMessage::Shutdown` mid-stream. The CI actor stops accepting,
/// drains its pipeline, republishes the shutdown marker, and the client
/// still validates every certificate. No panics, no deadlocks, no lost
/// work.
#[test]
fn shutdown_message_mid_stream_is_orderly() {
    let mut world = World::pow(&[]);
    let blocks = world.mine_blocks(Workload::SmallBank { customers: 16 }, 8, 2, 9);
    let tip = blocks.last().expect("mined").header.clone();

    let gossip = Arc::new(Gossip::new());
    let ci_feed = gossip.join();
    let client_feed = gossip.join();

    let miner_bus = gossip.clone();
    let miner = thread::spawn(move || {
        for block in blocks {
            miner_bus.publish(NetMessage::Block(block));
        }
        miner_bus.publish(NetMessage::Shutdown);
    });

    let ci_bus = gossip.clone();
    let ci = world.ci;
    let ci_actor = thread::spawn(move || {
        let pipeline = CertPipeline::spawn(ci, PipelineConfig::default(), ci_bus.clone());
        for message in ci_feed {
            match message {
                NetMessage::Block(block) => {
                    pipeline.submit(CertJob::Block(block)).expect("accepts");
                }
                NetMessage::Shutdown => break,
                _ => {}
            }
        }
        let (ci, report) = pipeline.shutdown();
        ci_bus.publish(NetMessage::Shutdown);
        (ci, report)
    });

    let mut client = world.client;
    let client_actor = thread::spawn(move || {
        let mut shutdowns = 0;
        let mut certified = 0u64;
        for message in client_feed {
            match message {
                NetMessage::BlockCert { header, cert } => {
                    client
                        .validate_chain(&header, &cert)
                        .expect("client adopts");
                    certified += 1;
                }
                NetMessage::Shutdown => {
                    shutdowns += 1;
                    if shutdowns == 2 {
                        break;
                    }
                }
                _ => {}
            }
        }
        (client, certified)
    });

    miner.join().expect("miner exits");
    let (ci, report) = ci_actor.join().expect("CI actor exits");
    let (client, certified) = client_actor.join().expect("client exits");

    assert_eq!(report.jobs, 8);
    assert_eq!(report.block_certs, 8);
    assert_eq!(report.errors, Vec::new());
    assert_eq!(certified, 8);
    assert_eq!(ci.node().tip(), &tip);
    assert_eq!(client.latest_header(), Some(&tip));
}

// --- sharded fleet equivalence ----------------------------------------------
//
// The sharded certification engine partitions the chain into ranges,
// certifies them on independent shard enclaves, and folds the per-range
// certificates through an aggregator booted with the *sequential* CI's
// seeds. The oracle is the same as the pipeline's: byte-identical
// certificates at every height, for every shard count — including with
// shard enclaves killed and restarted mid-run, and across reorgs.

/// Asserts the two certificate streams are byte-identical at every height
/// and that a superlight client adopts the fleet's stream to the tip.
fn assert_fleet_matches(
    seq: &[Certificate],
    fleet: &[Certificate],
    blocks: &[Block],
    ias_key: PublicKey,
    label: &str,
) {
    assert_bytes_equal(seq, fleet, label);
    let mut client = SuperlightClient::new(ias_key, dcert::core::expected_measurement());
    for (block, cert) in blocks.iter().zip(fleet) {
        client
            .validate_chain(&block.header, cert)
            .expect("client adopts fleet certificate");
    }
    assert_eq!(
        client.latest_header().map(|h| h.height),
        blocks.last().map(|b| b.header.height),
        "{label}: client tip"
    );
}

/// The tentpole acceptance criterion: for shard counts 1, 2, 4, and 8
/// over one mined chain, the fleet's aggregate output is byte-identical
/// to sequential certification at every height.
#[test]
fn shard_counts_1_2_4_8_match_sequential_bytes() {
    let mut seq_world = World::pow(&[]);
    let blocks = seq_world.mine_blocks(Workload::SmallBank { customers: 16 }, 12, 2, 31);
    let seq = World::pow(&[]).certify_blocks(&blocks);
    let ias_key = seq_world.ias.public_key();

    for shards in [1usize, 2, 4, 8] {
        let mut fleet_world = World::pow(&[]);
        let mut fleet = fleet_world.fleet(ShardFleetConfig::new(shards, 3));
        let certs = fleet
            .certify_chain(&blocks, &mut fleet_world.ias)
            .expect("fleet certifies");
        assert_fleet_matches(&seq, &certs, &blocks, ias_key, &format!("shards={shards}"));
    }
}

/// Extending an already-certified chain folds only the new ranges on the
/// same aggregator (its height watermark advances monotonically), and the
/// full stream still matches sequential bytes.
#[test]
fn shard_fleet_incremental_extension_matches_sequential() {
    let mut seq_world = World::pow(&[]);
    let blocks = seq_world.mine_blocks(Workload::KvStore { keyspace: 32 }, 10, 2, 47);
    let seq = World::pow(&[]).certify_blocks(&blocks);
    let ias_key = seq_world.ias.public_key();

    let mut fleet_world = World::pow(&[]);
    let mut fleet = fleet_world.fleet(ShardFleetConfig::new(3, 2));
    let first = fleet
        .certify_chain(&blocks[..6], &mut fleet_world.ias)
        .expect("prefix certifies");
    assert_eq!(first.len(), 6);
    let certs = fleet
        .certify_chain(&blocks, &mut fleet_world.ias)
        .expect("extension certifies");
    assert_fleet_matches(&seq, &certs, &blocks, ias_key, "extension");

    // Re-offering the identical chain is a no-op with identical output.
    let again = fleet
        .certify_chain(&blocks, &mut fleet_world.ias)
        .expect("idempotent");
    assert_eq!(certs.len(), again.len());
    for (a, b) in certs.iter().zip(&again) {
        assert_eq!(a.to_encoded_bytes(), b.to_encoded_bytes());
    }
}

/// Killing shard enclaves mid-run — one after durable progress, one
/// before any — must not change a single output byte: the restarted
/// shards resume from the store's range watermarks (or re-certify from
/// scratch) and the aggregate stream still equals sequential bytes.
#[test]
fn shard_kill_restart_is_byte_identical() {
    let mut seq_world = World::pow(&[]);
    let blocks = seq_world.mine_blocks(Workload::SmallBank { customers: 16 }, 12, 2, 59);
    let seq = World::pow(&[]).certify_blocks(&blocks);
    let ias_key = seq_world.ias.public_key();

    let registry = Registry::new();
    let store: SharedStore = Arc::new(Mutex::new(Box::new(MemStore::new())));
    let mut fleet_world = World::pow(&[]);
    let mut config = ShardFleetConfig::new(4, 1);
    config.registry = registry.clone();
    config.store = Some(store.clone());
    config.failures = ShardFailurePlan::none().kill(1, 1).kill(3, 0);
    let mut fleet = fleet_world.fleet(config);
    let certs = fleet
        .certify_chain(&blocks, &mut fleet_world.ias)
        .expect("fleet certifies through kills");
    assert_fleet_matches(&seq, &certs, &blocks, ias_key, "kill/restart");

    let snap = registry.snapshot();
    assert_eq!(snap.counter("shard.kills"), 2, "both scheduled kills fired");
    assert_eq!(snap.counter("shard.restarts"), 2);
    // Shard 1 died after one durable chunk: its restart resumed from the
    // store instead of re-certifying from the range start.
    assert!(
        snap.counter("shard.resumed_ranges") >= 1,
        "durable resume must be exercised"
    );
    // The checkpoint is the range certificates: one head per signed chunk,
    // under the chunk's first height, and nothing else.
    let heads = store.lock().expect("no panic").head_entries();
    let keys: Vec<&str> = heads.iter().map(|(key, _)| key.as_str()).collect();
    let chunks: Vec<String> = (1..=12u64)
        .map(|h| format!("shard.range.{h:016x}"))
        .collect();
    assert_eq!(keys, chunks, "one range head per chunk, nothing else");
    for ((_, value), height) in heads.iter().zip(1u64..) {
        let range = RangeCert::decode_all(value).expect("a range certificate");
        assert_eq!((range.first, range.last), (height, height));
        assert_eq!(
            range.header_digests,
            vec![blocks[height as usize - 1].header.hash()]
        );
    }
}

/// A compact reorg drill at this suite's level (the boundary geometry
/// cases live in `tests/shard_reorg.rs`): after certifying one chain, the
/// fleet is offered a fork — output must be byte-identical to a
/// sequential CI certifying the reorged chain from scratch.
#[test]
fn shard_fleet_reorg_matches_sequential() {
    // Two deterministic worlds mine the same 8-block prefix; the fork
    // world then diverges for the last 3 heights via a different tx seed.
    let mut world_a = World::pow(&[]);
    let original = world_a.mine_blocks(Workload::SmallBank { customers: 16 }, 8, 2, 71);

    let mut world_b = World::pow(&[]);
    let prefix = world_b.mine_blocks(Workload::SmallBank { customers: 16 }, 5, 2, 71);
    let suffix = world_b.mine_blocks(Workload::SmallBank { customers: 16 }, 3, 2, 72);
    let reorged: Vec<Block> = prefix.iter().chain(&suffix).cloned().collect();
    assert_eq!(
        original[4].header.hash(),
        reorged[4].header.hash(),
        "prefix must be shared"
    );
    assert_ne!(
        original[5].header.hash(),
        reorged[5].header.hash(),
        "fork must diverge at height 6"
    );

    // Sequential oracle: a fresh CI certifying the reorged chain.
    let seq = World::pow(&[]).certify_blocks(&reorged);

    let registry = Registry::new();
    let mut fleet_world = World::pow(&[]);
    let mut config = ShardFleetConfig::new(3, 2);
    config.registry = registry.clone();
    let mut fleet = fleet_world.fleet(config);
    fleet
        .certify_chain(&original, &mut fleet_world.ias)
        .expect("original chain certifies");
    let certs = fleet
        .certify_chain(&reorged, &mut fleet_world.ias)
        .expect("reorg re-certifies");
    let ias_key = fleet_world.ias.public_key();
    assert_fleet_matches(&seq, &certs, &reorged, ias_key, "reorg");

    let snap = registry.snapshot();
    assert!(
        snap.counter("shard.recert_blocks") > 0,
        "reorg must be visible as re-certification work"
    );
    assert_eq!(snap.counter("shard.agg.fresh_boots"), 2);
}

// --- fleets keyed by a CI's sealed key ---------------------------------------
//
// `ShardedCertEngine::from_sealed_key`: the aggregator is a CI whose key was
// born on `Init` and sealed on its platform; every shard draws its own key
// on `Init`. No host seed reaches any enclave.

/// The platform the sealing CI and its fleets run on.
const PLATFORM: [u8; 32] = [0x5E; 32];

/// A CI booted through `Init` on [`PLATFORM`], against `world`'s IAS.
fn enclave_born_ci(world: &mut World) -> CertificateIssuer {
    CertificateIssuer::new(
        PLATFORM,
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
        &mut world.ias,
        CostModel::zero(),
    )
    .expect("CI boots")
}

/// A fleet on `world`'s chain whose aggregator restores `sealed`.
fn sealed_fleet(world: &World, sealed: &SealedBlob, config: ShardFleetConfig) -> ShardedCertEngine {
    ShardedCertEngine::from_sealed_key(
        PLATFORM,
        sealed,
        &world.genesis,
        world.genesis_state.clone(),
        world.executor.clone(),
        world.engine.clone(),
        CostModel::zero(),
        config,
    )
    .expect("fleet configures")
}

/// Three shards in 2-block chunks over a fresh `MemStore`, on `failures`.
fn stored_config(failures: ShardFailurePlan) -> (ShardFleetConfig, SharedStore) {
    let store: SharedStore = Arc::new(Mutex::new(Box::new(MemStore::new())));
    let mut config = ShardFleetConfig::new(3, 2);
    config.store = Some(store.clone());
    config.failures = failures;
    (config, store)
}

/// The range certificates a fleet stored, in key order.
fn stored_ranges(store: &SharedStore) -> Vec<RangeCert> {
    let heads = store.lock().expect("no panic").head_entries();
    heads
        .iter()
        .map(|(_, value)| RangeCert::decode_all(value).expect("a range certificate"))
        .collect()
}

/// A CI's key born on `Init` and sealed before it signs anything keys a
/// fleet — through a store and a shard kill — whose stream is the CI's own,
/// byte for byte, under the CI's `pk_enc` and report. After a reorg at
/// height 7 the fleet restores the seal again, and its stream is a fresh
/// fleet's from the same blob on the reorged chain.
#[test]
fn a_fleet_from_a_sealed_ci_key_is_that_ci() {
    let mut world = World::pow(&[]);
    let mut ci = enclave_born_ci(&mut world);
    let sealed = ci.seal_enclave_key();
    let original = world.mine_blocks(Workload::SmallBank { customers: 16 }, 12, 2, 81);
    let seq: Vec<Certificate> = original
        .iter()
        .map(|block| ci.certify_block(block).expect("CI certifies").0)
        .collect();

    let registry = Registry::new();
    let (mut config, _store) = stored_config(ShardFailurePlan::none().kill(1, 1));
    config.registry = registry.clone();
    let mut fleet = sealed_fleet(&world, &sealed, config);
    let certs = fleet
        .certify_chain(&original, &mut world.ias)
        .expect("fleet certifies through the kill");
    assert_fleet_matches(&seq, &certs, &original, world.ias.public_key(), "sealed");
    assert_eq!(registry.snapshot().counter("shard.kills"), 1);
    for cert in &certs {
        assert_eq!((cert.pk_enc, &cert.report), (ci.pk_enc(), ci.report()));
    }

    let mut fork_world = World::pow(&[]);
    let mut reorged = fork_world.mine_blocks(Workload::SmallBank { customers: 16 }, 6, 2, 81);
    reorged.extend(fork_world.mine_blocks(Workload::SmallBank { customers: 16 }, 5, 2, 82));
    assert_eq!(original[5].header.hash(), reorged[5].header.hash());
    assert_ne!(original[6].header.hash(), reorged[6].header.hash());
    let after = fleet
        .certify_chain(&reorged, &mut world.ias)
        .expect("the reorg re-certifies");
    let (config, _store) = stored_config(ShardFailurePlan::none());
    let fresh = sealed_fleet(&world, &sealed, config)
        .certify_chain(&reorged, &mut world.ias)
        .expect("a fresh fleet certifies the reorged chain");
    assert_fleet_matches(&fresh, &after, &reorged, world.ias.public_key(), "reorg");
    assert!(after.iter().all(|cert| cert.pk_enc == ci.pk_enc()));
}

/// Two fleets from one blob and one config emit one stream, but no shard
/// key repeats: each is drawn on `Init`, inside its enclave, on every boot.
#[test]
fn fleets_from_one_blob_share_the_stream_not_the_shard_keys() {
    let mut world = World::pow(&[]);
    let sealed = enclave_born_ci(&mut world).seal_enclave_key();
    let blocks = world.mine_blocks(Workload::SmallBank { customers: 16 }, 12, 2, 83);
    let mut run = || {
        let (config, store) = stored_config(ShardFailurePlan::none());
        let certs = sealed_fleet(&world, &sealed, config)
            .certify_chain(&blocks, &mut world.ias)
            .expect("fleet certifies");
        (certs, stored_ranges(&store))
    };
    let (first, first_ranges) = run();
    let (second, second_ranges) = run();
    assert_bytes_equal(&first, &second, "two fleets, one blob");
    assert_eq!(first_ranges.len(), 6, "one range certificate per chunk");
    assert_eq!(second_ranges.len(), 6);
    for (a, b) in first_ranges.iter().zip(&second_ranges) {
        assert_eq!(a.header_digests, b.header_digests);
        assert_ne!(a.pk_range, b.pk_range, "a shard key repeated across fleets");
    }
}

/// A blob sealed after its CI signed height 1 carries watermark 1: the
/// fleet's first fold is refused, typed, and the fleet certifies nothing.
#[test]
fn a_blob_sealed_after_signing_refuses_the_first_fold() {
    let mut world = World::pow(&[]);
    let mut ci = enclave_born_ci(&mut world);
    let blocks = world.mine_blocks(Workload::SmallBank { customers: 16 }, 4, 2, 85);
    ci.certify_block(&blocks[0]).expect("CI certifies height 1");
    let sealed = ci.seal_enclave_key();

    let mut fleet = sealed_fleet(&world, &sealed, ShardFleetConfig::new(2, 2));
    let refused = fleet.certify_chain(&blocks, &mut world.ias);
    assert_eq!(
        refused,
        Err(CertError::HeightRegression {
            last_signed: 1,
            offered: 1,
        })
    );
    assert_eq!(fleet.tip_height(), 0);
    assert!(fleet.certificates().is_empty());
}

/// The fleet matches sequential bytes for arbitrary shard counts, chunk
/// sizes, chain lengths, and workloads.
#[test]
fn shard_fleet_matches_sequential() {
    // Each case boots up to 9 enclaves; 16 cases keep the suite fast while
    // still sweeping shard counts, chunk sizes, chain lengths, and
    // workloads. (TSan CI trims further with `DCERT_PROP_CASES`.)
    check("shard_fleet_matches_sequential", 16, |g| {
        let (shards, chunk) = (g.range(1usize..=8), g.range(1u64..=4));
        let (count, workload) = (g.range(1usize..=8), workload(g));
        let (txs, seed) = (g.range(1usize..=2), g.any::<u64>());
        let mut seq_world = World::pow(&[]);
        let blocks = seq_world.mine_blocks(workload, count, txs, seed);
        let seq = World::pow(&[]).certify_blocks(&blocks);
        let ias_key = seq_world.ias.public_key();

        let mut fleet_world = World::pow(&[]);
        let mut fleet = fleet_world.fleet(ShardFleetConfig::new(shards, chunk));
        let certs = fleet
            .certify_chain(&blocks, &mut fleet_world.ias)
            .expect("fleet certifies");
        let label = format!("shards={shards} chunk={chunk}");
        assert_fleet_matches(&seq, &certs, &blocks, ias_key, &label);
    });
}

/// An idle pipeline shuts down cleanly and hands back an untouched CI.
#[test]
fn empty_pipeline_shutdown_is_clean() {
    let world = World::pow(&[]);
    let genesis_tip = world.ci.node().tip().clone();

    let pipeline =
        CertPipeline::spawn(world.ci, PipelineConfig::default(), Arc::new(Gossip::new()));
    let (ci, report) = pipeline.shutdown();

    assert_eq!(report.jobs, 0);
    assert_eq!(report.block_certs, 0);
    assert_eq!(report.index_certs, 0);
    assert_eq!(report.errors, Vec::new());
    assert_eq!(ci.node().tip(), &genesis_tip);
}

// --- properties of the sequential issuer --------------------------------------

fn arb_workload(g: &mut Gen) -> Workload {
    match g.range(0u8..5) {
        0 => Workload::DoNothing,
        1 => Workload::CpuHeavy {
            size: g.range(16u32..256),
        },
        2 => Workload::IoHeavy {
            batch: g.range(1u32..8),
        },
        3 => Workload::KvStore {
            keyspace: g.range(4u64..64),
        },
        _ => Workload::SmallBank {
            customers: g.range(4u64..64),
        },
    }
}

/// Any random chain certifies block by block and the final certificate
/// validates on a fresh superlight client.
#[test]
fn prop_random_chains_certify() {
    check("prop_random_chains_certify", 12, |g| {
        let (workload, seed) = (arb_workload(g), g.any::<u64>());
        let (blocks, block_size) = (g.range(1u64..5), g.range(1usize..6));
        let mut world = World::pow(&[]);
        let mut gen = WorkloadGen::new(workload, 6, seed);
        let mut latest = None;
        for height in 1..=blocks {
            let block = world
                .miner
                .mine(gen.next_block(block_size), height)
                .unwrap();
            let (cert, _) = world.ci.certify_block(&block).unwrap();
            latest = Some((block, cert));
        }
        let (block, cert) = latest.unwrap();
        assert!(world.client.validate_chain(&block.header, &cert).is_ok());
        assert_eq!(world.client.height(), Some(blocks));
    });
}

/// Two independent replicas fed the same transactions produce
/// byte-identical blocks, certificates digests, and index digests.
#[test]
fn prop_replicas_are_deterministic() {
    check("prop_replicas_are_deterministic", 12, |g| {
        let (seed, blocks) = (g.any::<u64>(), g.range(1u64..4));
        let mut wa = World::pow(&[(IndexKind::History, "h")]);
        let mut wb = World::pow(&[(IndexKind::History, "h")]);
        let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 16 }, 4, seed);
        for height in 1..=blocks {
            let txs = gen.next_block(3);
            let ba = wa.miner.mine(txs.clone(), height).unwrap();
            let bb = wb.miner.mine(txs, height).unwrap();
            assert_eq!(ba.hash(), bb.hash());

            let ia = wa.sp.stage_block(&ba).unwrap();
            let ib = wb.sp.stage_block(&bb).unwrap();
            assert_eq!(ia[0].new_digest, ib[0].new_digest);

            let (ca, _) = wa.ci.certify_augmented(&ba, &ia).unwrap();
            let (cb, _) = wb.ci.certify_augmented(&bb, &ib).unwrap();
            // Seed-identical enclaves: the certified digests agree, and so
            // does every signed byte.
            assert_eq!(ca[0].digest, cb[0].digest);
            assert_eq!(ca, cb);
            wa.sp.advance(Some(&ca)).unwrap();
            wb.sp.advance(Some(&cb)).unwrap();
        }
    });
}

/// Superlight storage is the same constant regardless of workload,
/// block size, or chain length.
#[test]
fn prop_client_storage_constant() {
    check("prop_client_storage_constant", 12, |g| {
        let (workload, seed) = (arb_workload(g), g.any::<u64>());
        let blocks = g.range(1u64..4);
        let mut world = World::pow(&[]);
        let mut gen = WorkloadGen::new(workload, 4, seed);
        let mut sizes = Vec::new();
        for height in 1..=blocks {
            let block = world.miner.mine(gen.next_block(2), height).unwrap();
            let (cert, _) = world.ci.certify_block(&block).unwrap();
            world.client.validate_chain(&block.header, &cert).unwrap();
            sizes.push(world.client.storage_bytes());
        }
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "sizes: {sizes:?}");
    });
}
