//! Property-based evidence that the pipelined certification engine is
//! observationally equivalent to the sequential [`CertificateIssuer`]:
//! byte-identical certificates, in the same chain order, for plain,
//! batched, augmented, and hierarchical jobs — across worker counts and
//! queue depths — plus deterministic tests for orderly shutdown and for
//! sequential ⇄ pipelined hand-overs, the sharded fleet's equivalence to
//! both, and the sequential issuer's own properties (any random chain
//! certifies, replicas agree, client storage is constant).
//!
//! Two fully deterministic worlds ([`World::deterministic`]) share every
//! seed (genesis, IAS, platform, enclave signing key), so the sequential
//! arm and the pipelined arm *must* produce the same bytes if the engine
//! is faithful. All assertions are on counts, bytes, and digests — never
//! wall-clock (the enclave runs `CostModel::zero`).
//!
//! One stream certifies with one chain scheme: plain/batch jobs share the
//! recursive block-certificate chain, while Algorithm 4 (augmented)
//! replaces it and Algorithm 5 (hierarchical) adds per-index chains that
//! must be gap-free (`hier_sig_gen` requires the previous index
//! certificate to cover exactly the previous header). Schemes therefore
//! mix across property cases, and plain/batch jobs mix within a stream —
//! the same constraint the sequential issuer has.

mod common;

use std::sync::{Arc, Mutex};
use std::thread;

use common::{assert_bytes_equal, fleet_for, sequential_oracle, World};
use dcert::chain::{Block, BlockHeader};
use dcert::core::{
    CertError, CertJob, CertPipeline, Certificate, CertificateIssuer, Gossip, NetMessage,
    PipelineConfig, PipelineReport, ShardFailurePlan, ShardFleetConfig, SharedStore,
    SuperlightClient,
};
use dcert::obs::Registry;
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::Hash;
use dcert::primitives::keys::PublicKey;
use dcert::query::sp::IndexKind;
use dcert::query::ServiceProvider;
use dcert::store::MemStore;
use dcert::workloads::{Workload, WorkloadGen};
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
                sp.record_certs(&certs);
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
                sp.record_certs(&index_certs);
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
/// to splice (the certificates do not exist yet at submission time), so
/// the SP only advances its digest bookkeeping.
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
                sp.advance_staged();
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
                sp.advance_staged();
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
    preparers: usize,
    queue_depth: usize,
    obs: Registry,
) -> (Vec<Event>, CertificateIssuer, PipelineReport) {
    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(
        ci,
        PipelineConfig {
            preparers,
            queue_depth,
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
fn assert_equivalent(
    plan: Plan,
    workload: Workload,
    txs: usize,
    seed: u64,
    preparers: usize,
    queue_depth: usize,
) {
    let (mut seq_world, mut seq_sp) = World::deterministic(plan.indexes());
    let blocks = seq_world.mine_blocks(workload, plan.block_count(), txs, seed);
    let seq_events = run_sequential(&mut seq_world.ci, &mut seq_sp, &plan, &blocks);

    let (pipe_world, mut pipe_sp) = World::deterministic(plan.indexes());
    let jobs = build_jobs(&mut pipe_sp, &plan, &blocks);
    let job_count = jobs.len() as u64;
    let (pipe_events, pipe_ci, report) = run_pipeline(
        pipe_world.ci,
        jobs,
        preparers,
        queue_depth,
        Registry::disabled(),
    );

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
/// scheme, workload, worker count, queue depth, and batch shape.
#[test]
fn pipeline_matches_sequential() {
    // 96 cases ≈ 32 per chain scheme; the suite's floor is 64.
    check("pipeline_matches_sequential", 96, |g| {
        let (plan, workload) = (plan(g), workload(g));
        let (txs, seed) = (g.range(1usize..=3), g.any::<u64>());
        let (preparers, queue_depth) = (g.range(1usize..=4), g.range(1usize..=8));
        assert_equivalent(plan, workload, txs, seed, preparers, queue_depth);
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
        let (mut world, mut sp) = World::deterministic(plan.indexes());
        let blocks = world.mine_blocks(
            Workload::SmallBank { customers: 16 },
            plan.block_count(),
            2,
            17,
        );
        let jobs = build_jobs(&mut sp, &plan, &blocks);
        run_pipeline(world.ci, jobs, 3, 2, registry)
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
    assert_eq!(
        live.snapshot().counter("pipeline.publish.attempts"),
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
/// SP, which only saw `advance_staged` meanwhile, stages a stale
/// `prev_cert`. The five-block stream equals the all-sequential one byte
/// for byte.
fn assert_handover_keeps_chains(plan_for: fn(usize) -> Plan) {
    let (mut seq_world, mut seq_sp) = World::deterministic(plan_for(5).indexes());
    let blocks = seq_world.mine_blocks(Workload::SmallBank { customers: 16 }, 5, 2, 83);
    let seq_events = run_sequential(&mut seq_world.ci, &mut seq_sp, &plan_for(5), &blocks);

    let (world, mut sp) = World::deterministic(plan_for(5).indexes());
    let mut ci = world.ci;
    let mut events = run_sequential(&mut ci, &mut sp, &plan_for(2), &blocks[..2]);
    let jobs = build_jobs(&mut sp, &plan_for(2), &blocks[2..4]);
    let (piped, mut ci, report) = run_pipeline(ci, jobs, 2, 2, Registry::disabled());
    assert_eq!(
        report.errors,
        Vec::new(),
        "the pipeline must chain from pre-spawn certificates"
    );
    events.extend(piped);
    events.extend(run_sequential(&mut ci, &mut sp, &plan_for(1), &blocks[4..]));

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
    let (mut world, _sp) = World::deterministic(Vec::new());
    let mut blocks = world.mine_blocks(Workload::KvStore { keyspace: 32 }, 13, 2, 11);
    // Block 13 is certified sequentially after the pipeline hands the
    // CI back.
    let next = blocks.pop().expect("mined");

    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(
        world.ci,
        PipelineConfig {
            preparers: 4,
            queue_depth: 2,
            ..PipelineConfig::default()
        },
        gossip,
    );
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
    let (mut world, _sp) = World::deterministic(Vec::new());
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

/// A job that breaks chain rules fails in place — it neither stalls the
/// pipeline nor corrupts the sequencer's view for later valid jobs.
#[test]
fn bad_job_fails_without_stalling() {
    let (mut world, _sp) = World::deterministic(Vec::new());
    let blocks = world.mine_blocks(Workload::KvStore { keyspace: 32 }, 3, 2, 5);

    let gossip = Arc::new(Gossip::new());
    let feed = gossip.join();
    let pipeline = CertPipeline::spawn(world.ci, PipelineConfig::default(), gossip);
    // Deliver out of order: 1, 3, 2. Block 3 cannot link and must fail;
    // block 2 still extends the (unmoved) tip and must succeed.
    pipeline
        .submit(CertJob::Block(blocks[0].clone()))
        .expect("accepts");
    pipeline
        .submit(CertJob::Block(blocks[2].clone()))
        .expect("accepts");
    pipeline
        .submit(CertJob::Block(blocks[1].clone()))
        .expect("accepts");
    let (ci, report) = pipeline.shutdown();

    assert_eq!(report.jobs, 3);
    assert_eq!(report.block_certs, 2);
    assert_eq!(report.errors.len(), 1);
    assert_eq!(report.errors[0].0, 1, "the out-of-order job is the failure");
    assert!(matches!(report.errors[0].1, CertError::Chain(_)));
    assert_eq!(ci.node().tip(), &blocks[1].header);

    let mut heights = Vec::new();
    while let Ok(message) = feed.try_recv() {
        if let NetMessage::BlockCert { header, .. } = message {
            heights.push(header.height);
        }
    }
    assert_eq!(heights, vec![1, 2]);
}

/// The Fig. 2 actor loop: a miner flooding blocks then broadcasting
/// `NetMessage::Shutdown` mid-stream. The CI actor stops accepting,
/// drains its pipeline, republishes the shutdown marker, and the client
/// still validates every certificate. No panics, no deadlocks, no lost
/// work.
#[test]
fn shutdown_message_mid_stream_is_orderly() {
    let (mut world, _sp) = World::deterministic(Vec::new());
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
        let pipeline = CertPipeline::spawn(
            ci,
            PipelineConfig {
                preparers: 4,
                queue_depth: 2,
                ..PipelineConfig::default()
            },
            ci_bus.clone(),
        );
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
    let (mut seq_world, _) = World::deterministic(Vec::new());
    let blocks = seq_world.mine_blocks(Workload::SmallBank { customers: 16 }, 12, 2, 31);
    let seq = sequential_oracle(&blocks);
    let ias_key = seq_world.ias.public_key();

    for shards in [1usize, 2, 4, 8] {
        let (mut fleet_world, _) = World::deterministic(Vec::new());
        let mut fleet = fleet_for(&fleet_world, ShardFleetConfig::new(shards, 3));
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
    let (mut seq_world, _) = World::deterministic(Vec::new());
    let blocks = seq_world.mine_blocks(Workload::KvStore { keyspace: 32 }, 10, 2, 47);
    let seq = sequential_oracle(&blocks);
    let ias_key = seq_world.ias.public_key();

    let (mut fleet_world, _) = World::deterministic(Vec::new());
    let mut fleet = fleet_for(&fleet_world, ShardFleetConfig::new(3, 2));
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
    let (mut seq_world, _) = World::deterministic(Vec::new());
    let blocks = seq_world.mine_blocks(Workload::SmallBank { customers: 16 }, 12, 2, 59);
    let seq = sequential_oracle(&blocks);
    let ias_key = seq_world.ias.public_key();

    let registry = Registry::new();
    let store: SharedStore = Arc::new(Mutex::new(Box::new(MemStore::new())));
    let (mut fleet_world, _) = World::deterministic(Vec::new());
    let mut config = ShardFleetConfig::new(4, 1);
    config.registry = registry.clone();
    config.store = Some(store);
    config.failures = ShardFailurePlan::none().kill(1, 1).kill(3, 0);
    let mut fleet = fleet_for(&fleet_world, config);
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
        "durable watermark resume must be exercised"
    );
}

/// A compact reorg drill at this suite's level (the boundary geometry
/// cases live in `tests/shard_reorg.rs`): after certifying one chain, the
/// fleet is offered a fork — output must be byte-identical to a
/// sequential CI certifying the reorged chain from scratch.
#[test]
fn shard_fleet_reorg_matches_sequential() {
    // Two deterministic worlds mine the same 8-block prefix; the fork
    // world then diverges for the last 3 heights via a different tx seed.
    let (mut world_a, _) = World::deterministic(Vec::new());
    let original = world_a.mine_blocks(Workload::SmallBank { customers: 16 }, 8, 2, 71);

    let (mut world_b, _) = World::deterministic(Vec::new());
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
    let seq = sequential_oracle(&reorged);

    let registry = Registry::new();
    let (mut fleet_world, _) = World::deterministic(Vec::new());
    let mut config = ShardFleetConfig::new(3, 2);
    config.registry = registry.clone();
    let mut fleet = fleet_for(&fleet_world, config);
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
    assert_eq!(
        snap.counter("shard.stale_range_refusals"),
        1,
        "the old aggregator must refuse the stale-range fold"
    );
    assert_eq!(snap.counter("shard.agg.fresh_boots"), 2);
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
        let (mut seq_world, _) = World::deterministic(Vec::new());
        let blocks = seq_world.mine_blocks(workload, count, txs, seed);
        let seq = sequential_oracle(&blocks);
        let ias_key = seq_world.ias.public_key();

        let (mut fleet_world, _) = World::deterministic(Vec::new());
        let mut fleet = fleet_for(&fleet_world, ShardFleetConfig::new(shards, chunk));
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
    let (world, _sp) = World::deterministic(Vec::new());
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
        let mut world = World::new();
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
        let (mut wa, mut sa) = World::with_setup(vec![(IndexKind::History, "h")]);
        let (mut wb, mut sb) = World::with_setup(vec![(IndexKind::History, "h")]);
        let mut gen = WorkloadGen::new(Workload::KvStore { keyspace: 16 }, 4, seed);
        for height in 1..=blocks {
            let txs = gen.next_block(3);
            let ba = wa.miner.mine(txs.clone(), height).unwrap();
            let bb = wb.miner.mine(txs, height).unwrap();
            assert_eq!(ba.hash(), bb.hash());

            let ia = sa.stage_block(&ba).unwrap();
            let ib = sb.stage_block(&bb).unwrap();
            assert_eq!(ia[0].new_digest, ib[0].new_digest);

            let (ca, _) = wa.ci.certify_augmented(&ba, &ia).unwrap();
            let (cb, _) = wb.ci.certify_augmented(&bb, &ib).unwrap();
            // Signatures differ (different enclave keys) but the certified
            // digests agree.
            assert_eq!(ca[0].digest, cb[0].digest);
            sa.record_certs(&ca);
            sb.record_certs(&cb);
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
        let mut world = World::new();
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
