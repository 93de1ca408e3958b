//! `blocks_kv` and `blocks_io`: one block in flight, followed from the
//! miner to a superlight client that accepts its certificates.
//!
//! `blocks_kv` is the balanced journey (KVStore, two indexes, the
//! hierarchical scheme, a durable archive); `blocks_io` is the
//! Merkle-bound one (IOHeavy, no indexes, block-only scheme, no disk) —
//! the bypass case for SP, store and serving work and the exercise case
//! for hashing, proof and marshalling work.

use std::path::PathBuf;
use std::sync::Arc;

use crossbeam::channel::Receiver;
use dcert_chain::Transaction;
use dcert_core::{
    CertArchive, CertBreakdown, CertificateIssuer, Gossip, NetMessage, SuperlightClient,
    SyncOutcome, Transport,
};
use dcert_obs::Registry;
use dcert_primitives::hash::Hash;
use dcert_primitives::keys::PublicKey;
use dcert_query::sp::IndexKind;
use dcert_query::ServiceProvider;
use dcert_store::{SegmentStore, StoreConfig};
use dcert_workloads::Workload;

use crate::error::{gate, BenchError};
use crate::metrics::{put, Measured, Readings, Timed};
use crate::stats::{floats, mean, percentile};
use crate::trace::Tracer;
use crate::work::Work;
use crate::world::{self, Base, Miner};
use crate::Params;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavour {
    Kv,
    Io,
}

impl Flavour {
    pub fn workload(self) -> Workload {
        match self {
            Flavour::Kv => Workload::KvStore { keyspace: 10_000 },
            Flavour::Io => Workload::IoHeavy { batch: 32 },
        }
    }
}

pub const TXS_PER_BLOCK: usize = 32;
const KV_INDEXES: [(IndexKind, &str); 2] = [
    (IndexKind::History, "history"),
    (IndexKind::Inverted, "inverted"),
];

/// Blocks per second of `--seconds`, calibrated once on the reference
/// machine so the timed region lasts about `--seconds` there; the same
/// counts run on every later commit.
const KV_BLOCKS_PER_SECOND: u64 = 36;
const IO_BLOCKS_PER_SECOND: u64 = 7;

pub struct World {
    miner: Miner,
    sp: Option<ServiceProvider>,
    ci: CertificateIssuer,
    archive: CertArchive<Gossip>,
    inbox: Receiver<NetMessage>,
    client: SuperlightClient,
    ias_key: PublicKey,
    measurement: Hash,
    txs: Vec<Vec<Transaction>>,
    store_dir: Option<PathBuf>,
    obs: Registry,
}

pub fn setup(flavour: Flavour, params: &Params, obs: &Registry) -> Result<World, BenchError> {
    let mut base = Base::new();
    let blocks = params.seconds
        * match flavour {
            Flavour::Kv => KV_BLOCKS_PER_SECOND,
            Flavour::Io => IO_BLOCKS_PER_SECOND,
        };
    let txs = world::generate_blocks(flavour.workload(), params.seed, blocks, TXS_PER_BLOCK);
    let miner = base.miner();
    let gossip = Arc::new(Gossip::new());
    let inbox = gossip.join();
    let (sp, ci, archive, store_dir) = match flavour {
        Flavour::Kv => {
            let sp = base.service_provider(&KV_INDEXES, obs);
            let ci = base.issuer(sp.verifiers(), obs)?;
            let dir = world::scratch_dir(&params.out_dir, "blocks_kv")?;
            let store = SegmentStore::open(StoreConfig::new(&dir).obs(obs.clone()))?;
            let archive = CertArchive::with_store(
                gossip,
                Box::new(store),
                &base.ias_key(),
                &base.measurement,
            )?;
            (Some(sp), ci, archive, Some(dir))
        }
        Flavour::Io => {
            let ci = base.issuer(Vec::new(), obs)?;
            (None, ci, CertArchive::new(gossip), None)
        }
    };
    Ok(World {
        miner,
        sp,
        ci,
        archive,
        inbox,
        client: base.client(),
        ias_key: base.ias_key(),
        measurement: base.measurement,
        txs,
        store_dir,
        obs: obs.clone(),
    })
}

/// Pacing channels.
const JOURNEY: usize = 0;
const BOOTSTRAP: usize = 1;
pub const CHANNELS: usize = 2;
/// Fresh clients that bootstrap from each block's tip: a few, so that a
/// run of some fifty IOHeavy blocks still has a steady median.
const BOOTSTRAPS_PER_BLOCK: usize = 4;

pub fn run(mut world: World, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let blocks = world.txs.len() as u64;
    let warm = crate::warm_up(blocks);
    let mut marshalled = 0u64;
    let mut work_from = Work::read();

    for (at, txs) in std::mem::take(&mut world.txs).into_iter().enumerate() {
        let height = at as u64 + 1;
        if at as u64 == warm {
            work_from = Work::read();
        }

        let started = tracer.clock.now_ns();
        let journey = tracer.begin("journey", height);
        let block = tracer.leaf("chain.mine", height, || world.miner.mine(txs))?;
        let (messages, breakdown) = match world.sp.as_mut() {
            Some(sp) => {
                let inputs = tracer.leaf("query.sp.stage", height, || sp.stage_block(&block))?;
                let (block_cert, index_certs, breakdown) =
                    tracer.leaf("core.ci.certify", height, || {
                        world.ci.certify_hierarchical(&block, &inputs)
                    })?;
                record_breakdown(tracer, &breakdown);
                tracer.leaf("query.sp.record", height, || {
                    sp.record_certs(&index_certs);
                    sp.advance_staged();
                });
                (
                    world::cert_messages(&block, &block_cert, &inputs, &index_certs),
                    breakdown,
                )
            }
            None => {
                let (cert, breakdown) =
                    tracer.leaf("core.ci.certify", height, || world.ci.certify_block(&block))?;
                record_breakdown(tracer, &breakdown);
                (world::cert_messages(&block, &cert, &[], &[]), breakdown)
            }
        };
        marshalled += breakdown.request_bytes + breakdown.response_bytes;
        tracer.leaf("core.archive.publish", height, || {
            for message in &messages {
                world.archive.publish(message.clone());
            }
        });
        let accepted = tracer.leaf("core.superlight.sync", height, || {
            let mut accepted = 0;
            while let Ok(message) = world.inbox.try_recv() {
                match world.client.on_message(&message) {
                    SyncOutcome::Adopted | SyncOutcome::AdoptedIndex => accepted += 1,
                    other => return Err(other),
                }
            }
            Ok(accepted)
        });
        tracer.end(journey);
        let journey_ns = tracer.clock.now_ns() - started;
        let accepted = accepted.map_err(|outcome| {
            BenchError::Gate(format!(
                "client refused a certificate at height {height}: {outcome:?}"
            ))
        })?;
        gate(accepted == messages.len(), || {
            format!(
                "client accepted {accepted} of {} certificates at height {height}",
                messages.len()
            )
        })?;
        gate(world.client.height() == Some(height), || {
            format!(
                "subscribed client is at {:?}, chain at {height}",
                world.client.height()
            )
        })?;

        // Brand-new clients need only the tip's certificates.
        for _ in 0..BOOTSTRAPS_PER_BLOCK {
            let started = tracer.clock.now_ns();
            let fresh = tracer.leaf("core.superlight.bootstrap", height, || {
                world::bootstrap(world.ias_key, world.measurement, &messages)
            })?;
            tracer
                .pace
                .sample(BOOTSTRAP, tracer.clock.now_ns() - started);
            gate(fresh.height() == Some(height), || {
                format!(
                    "fresh client bootstrapped to {:?}, not {height}",
                    fresh.height()
                )
            })?;
        }

        // One pacing segment per block.
        tracer.pace.sample(JOURNEY, journey_ns);
        tracer.pace.beat();
    }
    let work = Work::read().since(work_from);

    // Cumulative EPC residency must stay inside the budget: a run that
    // straddles the paging cliff is a different workload.
    let budget = world::cost_model().epc_budget_bytes as u64;
    gate(marshalled < budget, || {
        format!("marshalled {marshalled} bytes, past the {budget}-byte EPC budget")
    })?;

    let storage = world.client.storage_bytes();
    let store_bytes = match world.store_dir.take() {
        Some(dir) => Some(reopen_and_verify(
            world.archive,
            &dir,
            &world.ias_key,
            &world.measurement,
            blocks,
        )?),
        None => None,
    };

    let timed_blocks = blocks - warm;
    let timed = warm as usize..;
    let journeys = &tracer.pace.paced(JOURNEY)[timed.clone()];
    let timed_bootstraps = warm as usize * BOOTSTRAPS_PER_BLOCK..;
    let bootstraps = &tracer.pace.paced(BOOTSTRAP)[timed_bootstraps.clone()];
    let raw_journeys = floats(&tracer.pace.raw(JOURNEY)[timed]);
    let raw_bootstraps = floats(&tracer.pace.raw(BOOTSTRAP)[timed_bootstraps]);
    let ms = |ns: &[f64]| ns.iter().map(|v| v / 1e6).collect::<Vec<_>>();
    let summary = Timed {
        operations: timed_blocks,
        busy_ns: journeys.iter().chain(bootstraps).sum(),
        busy_raw_ns: raw_journeys.iter().chain(&raw_bootstraps).sum(),
        op_ms: &ms(journeys),
        op_raw_ms: &ms(&raw_journeys),
        bootstrap_ns: bootstraps,
        client_storage_bytes: storage,
        speed_pct: tracer.pace.speed_pct(),
    };

    let mut per_layer = Readings::new();
    if tracer.is_on() {
        let from = warm + 1; // journey ids are heights
        journey_layers(tracer, from, &mut per_layer);
        let snapshot = world.obs.snapshot();
        put(
            &mut per_layer,
            "sgx.paged_bytes",
            snapshot.counter("enclave.paged_bytes") as f64,
            1,
        );
        if let Some(bytes) = store_bytes {
            put(
                &mut per_layer,
                "store.fsyncs",
                snapshot.counter("store.fsyncs") as f64 / blocks as f64,
                blocks,
            );
            put(
                &mut per_layer,
                "store.bytes_per_block",
                bytes as f64 / blocks as f64,
                blocks,
            );
        }
        crate::put_work(&mut per_layer, work, timed_blocks);
        summary.pace_layers(&mut per_layer);
    }

    Ok(Measured {
        attempted: blocks,
        failed: 0,
        busy_ns: summary.busy_ns,
        end_to_end: summary.end_to_end(),
        per_layer,
    })
}

/// Hangs the issuer's own breakdown on the certify span just recorded.
fn record_breakdown(tracer: &mut Tracer, breakdown: &CertBreakdown) {
    if !tracer.is_on() {
        return;
    }
    let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    tracer.detail("rwset_ns", ns(breakdown.rw_set_gen));
    tracer.detail("proofgen_ns", ns(breakdown.proof_gen));
    tracer.detail("ecall_ns", ns(breakdown.enclave_total));
    tracer.detail("trusted_ns", ns(breakdown.enclave_trusted));
    tracer.detail("overhead_ns", ns(breakdown.enclave_overhead));
    tracer.detail("ecalls", breakdown.ecalls);
    tracer.detail("request_bytes", breakdown.request_bytes);
}

/// Per-block means of every journey layer (paced), and the closure row.
fn journey_layers(tracer: &Tracer, from: u64, out: &mut Readings) {
    let mut span_mean = |metric: &'static str, span: &str| -> f64 {
        let durations = tracer.durations(span, from);
        let value = mean(&durations) / 1e3;
        if !durations.is_empty() {
            put(out, metric, value, durations.len() as u64);
        }
        value
    };
    span_mean("chain.mine_us", "chain.mine");
    span_mean("query.sp.stage_us", "query.sp.stage");
    span_mean("query.sp.record_us", "query.sp.record");
    let certify_us = span_mean("core.ci.certify_us", "core.ci.certify");
    span_mean("core.archive.publish_us", "core.archive.publish");
    span_mean("core.superlight.sync_us", "core.superlight.sync");
    span_mean("core.superlight.bootstrap_us", "core.superlight.bootstrap");

    let mut detail_mean = |metric: &'static str, key: &str, paced: bool| -> f64 {
        let values = tracer.details("core.ci.certify", key, from, paced);
        let value = mean(&values) / if paced { 1e3 } else { 1.0 };
        put(out, metric, value, values.len() as u64);
        value
    };
    let rwset = detail_mean("vm.rwset_us", "rwset_ns", true);
    let proofgen = detail_mean("merkle.proofgen_us", "proofgen_ns", true);
    let ecall = detail_mean("sgx.ecall_us", "ecall_ns", true);
    detail_mean("core.program.trusted_us", "trusted_ns", true);
    detail_mean("sgx.overhead_us", "overhead_ns", true);
    detail_mean("sgx.request_bytes", "request_bytes", false);
    detail_mean("sgx.ecalls", "ecalls", false);

    let journeys = tracer.durations("journey", from);
    let unattributed = tracer.self_times("journey", from);
    let samples = journeys.len() as u64;
    put(
        out,
        "core.ci.self_us",
        (certify_us - rwset - proofgen - ecall).max(0.0),
        samples,
    );
    put(
        out,
        "journey.unattributed_us",
        mean(&unattributed) / 1e3,
        samples,
    );
    let share = unattributed.iter().sum::<f64>() / journeys.iter().sum::<f64>().max(1.0);
    put(out, "journey.unattributed_pct", 100.0 * share, samples);
    put(
        out,
        "journey.p90_ms",
        percentile(&journeys, 90) / 1e6,
        samples,
    );
    put(
        out,
        "journey.p99_ms",
        percentile(&journeys, 99) / 1e6,
        samples,
    );
}

/// Closes the archive, reopens its segment files the way a restarted CI
/// would, and requires every certificate back and re-verified. Returns
/// the bytes the segment files occupy.
fn reopen_and_verify(
    archive: CertArchive<Gossip>,
    dir: &std::path::Path,
    ias_key: &PublicKey,
    measurement: &Hash,
    blocks: u64,
) -> Result<u64, BenchError> {
    gate(archive.store_error().is_none(), || {
        format!("archive lost durability: {:?}", archive.store_error())
    })?;
    let published = archive.retained_len();
    drop(archive.into_store());
    let reopened = SegmentStore::open(StoreConfig::new(dir))?;
    let disk_bytes = reopened.disk_bytes();
    let recovered = CertArchive::with_store(
        Arc::new(Gossip::new()),
        Box::new(reopened),
        ias_key,
        measurement,
    )?;
    gate(
        recovered.retained_len() == published && recovered.tip_height() == Some(blocks),
        || {
            format!(
                "recovered {} certificates up to {:?}, published {published} up to {blocks}",
                recovered.retained_len(),
                recovered.tip_height()
            )
        },
    )?;
    let _: Vec<NetMessage> = recovered.messages_in(blocks, blocks);
    drop(recovered);
    std::fs::remove_dir_all(dir)?;
    Ok(disk_bytes)
}
