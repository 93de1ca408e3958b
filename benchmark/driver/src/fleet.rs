//! `fleet_sb`: one pre-mined SmallBank chain, certified again and again
//! by the pipelined engine (batches of 4) and then by the sharded engine
//! (2 shards, chunks of 4, a durable checkpoint per chunk) — the
//! catch-up regime, all blocks available up front.
//!
//! It drives the same `core::program` / `sgx` / `merkle` layers as the
//! block journey, differently: batched ECalls, worker threads, range
//! certificates and aggregation, chunk-granular fsync. Every pass must
//! reproduce the sequential issuer's certificates byte for byte.

use std::sync::{Arc, Mutex};

use dcert_chain::Block;
use dcert_core::{
    CertJob, CertPipeline, Certificate, Gossip, NetMessage, ParallelismConfig, PipelineConfig,
    ShardFleetConfig, ShardedCertEngine, SharedStore,
};
use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_store::{SegmentStore, Store, StoreConfig};
use dcert_workloads::Workload;

use crate::error::{gate, BenchError};
use crate::metrics::{put, Measured, Readings, Timed};
use crate::pace::Paced;
use crate::stats::floats;
use crate::trace::{Clock, Tracer};
use crate::work::Work;
use crate::world::{self, Base};
use crate::Params;

pub const WORKLOAD: Workload = Workload::SmallBank { customers: 1_000 };
pub const TXS_PER_BLOCK: usize = 24;

/// Blocks in the chain every pass certifies.
const CHAIN_BLOCKS: u64 = 32;
/// Blocks per `CertJob::Batch` and per shard chunk.
const BATCH: usize = 4;
const SHARDS: usize = 2;
const PREPARERS: usize = 1;

/// Rounds (one pipeline pass + one shard pass) per second of `--seconds`,
/// plus one warm-up round; calibrated once on the reference machine.
const ROUNDS_PER_SECOND: u64 = 4;

pub struct World {
    base: Base,
    blocks: Vec<Block>,
    /// The sequential issuer's certificate at every height.
    reference: Vec<Certificate>,
    /// Paced time of the sequential pass, the single-node baseline.
    sequential_ns: f64,
    rounds: u64,
    out_dir: std::path::PathBuf,
    obs: Registry,
}

pub fn setup(params: &Params, obs: &Registry) -> Result<World, BenchError> {
    let mut base = Base::new();
    let mut miner = base.miner();
    let blocks = world::generate_blocks(WORKLOAD, params.seed, CHAIN_BLOCKS, TXS_PER_BLOCK)
        .into_iter()
        .map(|txs| miner.mine(txs))
        .collect::<Result<Vec<_>, _>>()?;

    let mut sequential = base.issuer(Vec::new(), &Registry::disabled())?;
    let clock = Clock::start();
    let mut pace = Paced::start(clock, 1);
    let started = clock.now_ns();
    let reference = blocks
        .iter()
        .map(|block| sequential.certify_block(block).map(|(cert, _)| cert))
        .collect::<Result<Vec<_>, _>>()?;
    pace.sample(0, clock.now_ns() - started);
    pace.beat();
    let sequential_ns = pace.paced(0).iter().sum();

    Ok(World {
        base,
        blocks,
        reference,
        sequential_ns,
        rounds: 1 + ROUNDS_PER_SECOND * params.seconds,
        out_dir: params.out_dir.clone(),
        obs: obs.clone(),
    })
}

/// ECall work of one pipeline pass, from its `PipelineReport`.
#[derive(Default)]
struct Marshalled {
    ecalls: u64,
    request_bytes: u64,
}

/// Pacing channels: every engine pass is one sample and one segment.
const PASS: usize = 0;
const BOOTSTRAP: usize = 1;
pub const CHANNELS: usize = 2;
pub fn run(mut world: World, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let chain = world.blocks.len() as u64;
    let mut marshalled = Marshalled::default();
    let mut work_from = Work::read();

    for round in 0..world.rounds {
        if round == 1 {
            // Round 0 is the warm-up: counted, not timed.
            work_from = Work::read();
            marshalled = Marshalled::default();
        }
        let pass = pipeline_pass(&mut world, tracer, round)?;
        marshalled.ecalls += pass.ecalls;
        marshalled.request_bytes += pass.request_bytes;
        shard_pass(&mut world, tracer, round)?;
    }
    let work = Work::read().since(work_from);
    let timed_rounds = world.rounds - 1;
    let timed_blocks = timed_rounds * 2 * chain;

    // A client that was offline the whole time needs only the tip.
    let tip = world
        .blocks
        .last()
        .zip(world.reference.last())
        .map(|(block, cert)| {
            vec![NetMessage::BlockCert {
                header: block.header.clone(),
                cert: cert.clone(),
            }]
        });
    let tip = tip.ok_or_else(|| BenchError::Gate("empty chain".to_owned()))?;
    let storage = world::time_bootstraps(
        tracer,
        BOOTSTRAP,
        world.base.ias_key(),
        world.base.measurement,
        &tip,
    )?;

    // Passes alternate pipeline, shard; the first two are the warm-up.
    let passes = &tracer.pace.paced(PASS)[2..];
    let raw_passes = floats(&tracer.pace.raw(PASS)[2..]);
    let per_block_ms = |ns: &[f64]| {
        ns.iter()
            .map(|v| v / 1e6 / chain as f64)
            .collect::<Vec<_>>()
    };
    let summary = Timed {
        operations: timed_blocks,
        busy_ns: passes.iter().sum(),
        busy_raw_ns: raw_passes.iter().sum(),
        op_ms: &per_block_ms(passes),
        op_raw_ms: &per_block_ms(&raw_passes),
        bootstrap_ns: tracer.pace.paced(BOOTSTRAP),
        client_storage_bytes: storage,
        speed_pct: tracer.pace.speed_pct(),
    };

    let mut per_layer = Readings::new();
    if tracer.is_on() {
        let rate = |engine: usize| {
            let ns: f64 = passes.iter().skip(engine).step_by(2).sum();
            (timed_rounds * chain) as f64 / (ns / 1e9)
        };
        put(
            &mut per_layer,
            "core.ci.seq_blocks_per_s",
            chain as f64 / (world.sequential_ns / 1e9),
            chain,
        );
        put(
            &mut per_layer,
            "core.pipeline.blocks_per_s",
            rate(0),
            timed_rounds * chain,
        );
        put(
            &mut per_layer,
            "core.shard.blocks_per_s",
            rate(1),
            timed_rounds * chain,
        );
        // Every pass got here only by matching the reference byte for byte.
        put(
            &mut per_layer,
            "core.fleet.identical",
            (world.rounds * 2) as f64,
            world.rounds * 2,
        );

        // The engines time their own stages on their own threads, so
        // these come as measured, scaled by the run's mean speed.
        let snapshot = world.obs.snapshot();
        let speed = summary.speed_pct / 100.0;
        let mut timer_mean = |metric: &'static str, timer: &str| {
            if let Some(histogram) = snapshot.histograms.get(timer) {
                put(
                    &mut per_layer,
                    metric,
                    histogram.mean().unwrap_or(0.0) * speed / 1e3,
                    histogram.count,
                );
            }
        };
        timer_mean("core.pipeline.prepare_us", "pipeline.stage.prepare_ns");
        timer_mean("core.pipeline.issue_us", "pipeline.stage.issue_ns");
        timer_mean("core.pipeline.publish_us", "pipeline.stage.publish_ns");
        timer_mean("core.shard.range_seal_us", "shard.range_seal_ns");
        timer_mean("core.shard.agg_fold_us", "shard.agg.fold_ns");

        // Batching shows as ECalls per block well below the sequential
        // issuer's one per block.
        let pipeline_blocks = timed_rounds * chain;
        put(
            &mut per_layer,
            "sgx.ecalls",
            marshalled.ecalls as f64 / pipeline_blocks as f64,
            pipeline_blocks,
        );
        put(
            &mut per_layer,
            "sgx.request_bytes",
            marshalled.request_bytes as f64 / pipeline_blocks as f64,
            pipeline_blocks,
        );
        put(
            &mut per_layer,
            "sgx.paged_bytes",
            snapshot.counter("enclave.paged_bytes") as f64,
            1,
        );
        let shard_blocks = world.rounds * chain;
        put(
            &mut per_layer,
            "store.fsyncs",
            snapshot.counter("store.fsyncs") as f64 / shard_blocks as f64,
            shard_blocks,
        );
        crate::put_work(&mut per_layer, work, timed_blocks);
        summary.pace_layers(&mut per_layer);
    }

    Ok(Measured {
        attempted: world.rounds * 2 * chain,
        failed: 0,
        busy_ns: summary.busy_ns,
        end_to_end: summary.end_to_end(),
        per_layer,
    })
}

/// Certifies the chain through a freshly spawned pipeline, batches of
/// [`BATCH`], and checks each batch certificate against the reference.
fn pipeline_pass(
    world: &mut World,
    tracer: &mut Tracer,
    round: u64,
) -> Result<Marshalled, BenchError> {
    let gossip = Arc::new(Gossip::new());
    let inbox = gossip.join();
    let issuer = world.base.issuer(Vec::new(), &world.obs)?;
    let config = PipelineConfig {
        preparers: PREPARERS,
        parallelism: ParallelismConfig { merkle_threads: 1 },
        obs: world.obs.clone(),
        ..PipelineConfig::default()
    };

    let started = tracer.clock.now_ns();
    let report = tracer.leaf("core.pipeline.pass", round, || {
        let pipeline = CertPipeline::spawn(issuer, config, gossip.clone());
        for batch in world.blocks.chunks(BATCH) {
            pipeline.submit(CertJob::Batch(batch.to_vec()))?;
        }
        Ok::<_, BenchError>(pipeline.shutdown().1)
    })?;
    tracer.pace.sample(PASS, tracer.clock.now_ns() - started);
    tracer.pace.beat();

    gate(
        report.errors.is_empty() && report.dead_letters.is_empty(),
        || format!("pipeline failed jobs: {:?}", report.errors),
    )?;
    let mut checked = 0;
    while let Ok(message) = inbox.try_recv() {
        let NetMessage::BlockCert { header, cert } = message else {
            continue;
        };
        let want = usize::try_from(header.height)
            .ok()
            .and_then(|h| world.reference.get(h.checked_sub(1)?));
        gate(
            want.map(Encode::to_encoded_bytes) == Some(cert.to_encoded_bytes()),
            || {
                format!(
                    "pipeline certificate differs from sequential at height {}",
                    header.height
                )
            },
        )?;
        checked += 1;
    }
    gate(checked == world.blocks.len().div_ceil(BATCH), || {
        format!("pipeline published {checked} batch certificates")
    })?;
    Ok(Marshalled {
        ecalls: report.breakdowns.iter().map(|b| b.ecalls).sum(),
        request_bytes: report.breakdowns.iter().map(|b| b.request_bytes).sum(),
    })
}

/// Certifies the chain through a fresh shard fleet with a segment-store
/// checkpoint per chunk, and checks the certificate at every height.
fn shard_pass(world: &mut World, tracer: &mut Tracer, round: u64) -> Result<(), BenchError> {
    let dir = world::scratch_dir(&world.out_dir, "fleet_sb")?;
    let store: Box<dyn Store + Send> = Box::new(SegmentStore::open(
        StoreConfig::new(&dir).obs(world.obs.clone()),
    )?);
    let shared: SharedStore = Arc::new(Mutex::new(store));
    let mut config = ShardFleetConfig::new(SHARDS, BATCH as u64);
    config.registry = world.obs.clone();
    config.store = Some(shared);
    let base = &mut world.base;

    let started = tracer.clock.now_ns();
    let certs = tracer.leaf("core.shard.pass", round, || {
        let mut fleet = ShardedCertEngine::new_deterministic(
            world::PLATFORM_SEED,
            world::SIGNING_SEED,
            &base.genesis,
            base.genesis_state.clone(),
            base.executor.clone(),
            base.engine.clone(),
            world::cost_model(),
            config,
        )?;
        fleet.certify_chain(&world.blocks, &mut base.ias)
    })?;
    tracer.pace.sample(PASS, tracer.clock.now_ns() - started);
    tracer.pace.beat();
    std::fs::remove_dir_all(&dir)?;

    gate(certs.len() == world.reference.len(), || {
        format!("fleet returned {} certificates", certs.len())
    })?;
    for (at, (got, want)) in certs.iter().zip(&world.reference).enumerate() {
        gate(got.to_encoded_bytes() == want.to_encoded_bytes(), || {
            format!(
                "fleet certificate differs from sequential at height {}",
                at + 1
            )
        })?;
    }
    Ok(())
}
