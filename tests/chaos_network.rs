//! Chaos suite: the certification workflow over a faulty network.
//!
//! Every test drives the same scenario — the pipelined CI certifies a
//! deterministic chain and broadcasts over a seeded [`SimNet`] that
//! drops, duplicates, corrupts, delays, and partitions traffic — then
//! heals the network and checks the convergence invariant: **once the
//! faults stop, every client recovers the sequential issuer's exact
//! certificate stream** through the resync protocol, byte for byte.
//!
//! Failures are replayable: every assertion message carries the
//! simulator seed (`CHAOS_SEED=<n> cargo test --test chaos_network --
//! --include-ignored` re-runs the seeded matrix entry).

mod common;

use std::sync::{Arc, OnceLock};

use dcert::chain::{Block, BlockHeader};
use dcert::core::{
    expected_measurement, CertArchive, CertJob, CertPipeline, FaultConfig, Gossip, NetMessage,
    NetStats, Partition, PipelineConfig, PipelineReport, SimNet, SuperlightClient, Transport,
};
use dcert::obs::{Registry, Snapshot};
use dcert::store::{SegmentStore, Store, StoreConfig};
use dcert::workloads::Workload;

use common::temp_dir;
use dcert::world::{certify_into, Setup, World};
use dcert_testkit::{check, Gen};

/// Chain length for every chaos scenario.
const CHAIN: u64 = 20;

/// The shared ground truth: the certificate stream a *sequential* issuer
/// produces for the chaos chain. It is a pure function of the world
/// seeds, so it is computed once; every chaos run must converge to
/// exactly this stream.
fn fixture() -> &'static [NetMessage] {
    static STREAM: OnceLock<Vec<NetMessage>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let mut world = World::pow(&[]);
        let blocks = mine_chain(&mut world);
        let certs = world.certify_blocks(&blocks);
        blocks
            .iter()
            .zip(certs)
            .map(|(block, cert)| NetMessage::BlockCert {
                header: block.header.clone(),
                cert,
            })
            .collect()
    })
}

/// The last header of the [`fixture`] stream.
fn fixture_tip() -> Option<&'static BlockHeader> {
    match fixture().last() {
        Some(NetMessage::BlockCert { header, .. }) => Some(header),
        _ => None,
    }
}

/// Mines the chaos chain on `world`: every world mines the same blocks.
fn mine_chain(world: &mut World) -> Vec<Block> {
    world.mine_blocks(Workload::SmallBank { customers: 32 }, CHAIN as usize, 4, 3)
}

/// A world whose certificate network is seeded with `seed` and faulted
/// by `faults`, its `net.*` counters recorded in `obs`.
fn chaos_world(seed: u64, faults: FaultConfig, obs: &Registry) -> World {
    let world = World::new(Setup {
        net: (seed, faults),
        ..Setup::pow()
    });
    world.net.attach_obs(obs);
    world
}

/// The default chaos scenario from the issue: 5% loss, reorder window 4,
/// one 3-block partition cutting the client off.
fn default_faults() -> FaultConfig {
    let mut faults = FaultConfig::default_chaos();
    faults.partitions.push(Partition {
        start: 6,
        end: 9,
        endpoints: vec![0],
    });
    faults
}

struct ChaosRun {
    /// `NetStats::published` before `converge()`: the CI's broadcasts.
    broadcast: u64,
    /// Resync rounds `converge()` took.
    rounds: u64,
    stats: NetStats,
    /// The archive's retained stream for heights `1..=CHAIN`.
    retained: Vec<NetMessage>,
    superlight: SuperlightClient,
    /// The pipeline's report (empty for a fleet run).
    report: PipelineReport,
    /// Final metric snapshot of the registry attached to the SimNet and
    /// the pipeline (or the fleet).
    obs: Snapshot,
    /// `SimNet::in_flight` at snapshot time, for the conservation law.
    in_flight: u64,
}

impl ChaosRun {
    /// Converges `world`'s client and reads the run off the world.
    fn converge(mut world: World, report: PipelineReport, obs: &Registry) -> Self {
        let broadcast = world.net.stats().published;
        let rounds = world.converge();
        ChaosRun {
            broadcast,
            rounds,
            stats: world.net.stats(),
            retained: world.archive.messages_in(1, CHAIN),
            superlight: world.client,
            report,
            obs: obs.snapshot(),
            in_flight: world.net.in_flight(),
        }
    }
}

/// Certifies the chaos chain through the pipeline over a `SimNet`
/// seeded with `seed`, heals the network, and runs the superlight client
/// through the resync protocol until it converges (or panics with the
/// seed after a bounded number of rounds). With `store_dir`, the archive
/// persists to a [`SegmentStore`] there (its `store.*` metrics land in the
/// same registry as the network's and pipeline's).
fn run_chaos(seed: u64, faults: FaultConfig, store_dir: Option<&std::path::Path>) -> ChaosRun {
    let obs = Registry::new();
    let mut world = chaos_world(seed, faults, &obs);
    let blocks = mine_chain(&mut world);
    if let Some(dir) = store_dir {
        let store = SegmentStore::open(StoreConfig::new(dir).obs(obs.clone()))
            .expect("archive store opens");
        world.archive = Arc::new(
            CertArchive::with_store(
                world.net.clone(),
                Box::new(store),
                &world.ias.public_key(),
                &expected_measurement(),
            )
            .expect("archive store recovers"),
        );
    }
    let config = PipelineConfig {
        obs: obs.clone(),
        ..PipelineConfig::default()
    };
    let archive = world.archive.clone() as Arc<dyn Transport>;
    let pipeline = CertPipeline::spawn(world.ci, config, archive);
    for block in blocks {
        pipeline.submit(CertJob::Block(block)).expect("accepts");
    }
    let (ci, report) = pipeline.shutdown();
    world.ci = ci;
    let store_error = world.archive.store_error();
    assert!(
        store_error.is_none(),
        "CHAOS_SEED={seed}: archive store poisoned: {store_error:?}"
    );
    // The faults have done their damage; the network heals and the
    // client must recover everything that was lost in flight.
    ChaosRun::converge(world, report, &obs)
}

#[test]
fn converges_at_default_fault_rates() {
    let seed = 0xD0;
    let run = run_chaos(seed, default_faults(), None);
    assert_eq!(
        run.superlight.height(),
        Some(CHAIN),
        "CHAOS_SEED={seed}: superlight client stuck"
    );
    assert_eq!(
        run.superlight.latest_header(),
        fixture_tip(),
        "CHAOS_SEED={seed}: wrong tip adopted"
    );
    // The retained broadcast stream is byte-for-byte the sequential
    // issuer's: chaos in transit never changes what was certified.
    assert_eq!(
        run.retained,
        fixture(),
        "CHAOS_SEED={seed}: published stream diverged from sequential issuance"
    );
    assert_eq!(run.report.errors.len(), 0, "CHAOS_SEED={seed}");
    assert!(
        run.stats.dropped + run.stats.partitioned + run.stats.delayed > 0,
        "CHAOS_SEED={seed}: scenario injected no faults — not a chaos test"
    );
    // Delivery accounting balances, and the attached registry agrees with
    // the simulator's own ledger counter for counter.
    assert!(
        run.stats.conserves_deliveries(run.in_flight),
        "CHAOS_SEED={seed}: NetStats leaked deliveries: {:?} (in flight {})",
        run.stats,
        run.in_flight
    );
    assert_eq!(run.obs.counter("net.delivered"), run.stats.delivered);
    assert_eq!(run.obs.counter("net.attempted"), run.stats.attempted);
    assert_eq!(run.obs.counter("net.dropped"), run.stats.dropped);
    assert_eq!(run.obs.counter("net.duplicated"), run.stats.duplicated);
    // Each job is broadcast once; what the faults ate comes back by resync.
    assert_eq!(run.broadcast, run.report.jobs, "CHAOS_SEED={seed}");
    assert!(run.rounds <= 1, "CHAOS_SEED={seed}: {} rounds", run.rounds);
}

#[test]
fn fixed_seed_replays_bit_for_bit() {
    let a = run_chaos(1234, default_faults(), None);
    let b = run_chaos(1234, default_faults(), None);
    assert_eq!(a.stats, b.stats, "CHAOS_SEED=1234: fault schedule diverged");
    assert_eq!(
        a.retained, b.retained,
        "CHAOS_SEED=1234: retained stream diverged"
    );
    assert_eq!(a.superlight.latest_header(), b.superlight.latest_header());
    assert_eq!(
        a.report.dead_letters, b.report.dead_letters,
        "CHAOS_SEED=1234: dead-letter schedule diverged"
    );
    // Every replay-stable metric is bit-identical; only the `_ns`/`_depth`
    // wall-clock and scheduling metrics may differ.
    assert_eq!(
        a.obs.without_wall_clock(),
        b.obs.without_wall_clock(),
        "CHAOS_SEED=1234: deterministic metrics diverged between replays"
    );
    assert_eq!(
        a.obs.without_wall_clock().to_json(),
        b.obs.without_wall_clock().to_json(),
        "CHAOS_SEED=1234: snapshot encoding is not canonical"
    );
}

/// The full chaos scenario with the archive persisting every retained
/// certificate to a [`SegmentStore`]: convergence is unchanged, the
/// `store.*` counters are part of the replay-stable snapshot, and after a
/// crash that tears the segment tail, a successor archive recovers —
/// counting its replays and truncations in a fresh registry — and
/// re-serves the sequential issuer's exact stream.
#[test]
fn durable_archive_survives_chaos_and_a_torn_tail() {
    let seed = 0xD15C;
    let dir = temp_dir("chaos-archive");
    let run = run_chaos(seed, default_faults(), Some(&dir));
    assert_eq!(run.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert_eq!(run.retained, fixture(), "CHAOS_SEED={seed}");
    // One append per unique retained certificate: duplicated deliveries
    // and resync republishes never reach the disk, and a fresh directory
    // records no recovery work.
    assert_eq!(run.obs.counter("store.appends"), CHAIN, "CHAOS_SEED={seed}");
    assert_eq!(run.obs.counter("store.recovery_replays"), 0);
    assert_eq!(run.obs.counter("store.tail_truncations"), 0);
    assert!(run.obs.counter("store.fsyncs") > 0, "CHAOS_SEED={seed}");

    // Same seed, fresh directory: the store counters must be as
    // replay-stable as every other deterministic metric.
    let dir_replay = temp_dir("chaos-archive-replay");
    let replay = run_chaos(seed, default_faults(), Some(&dir_replay));
    assert_eq!(
        run.obs.without_wall_clock(),
        replay.obs.without_wall_clock(),
        "CHAOS_SEED={seed}: store metrics diverged between replays"
    );
    std::fs::remove_dir_all(&dir_replay).ok();

    // Crash mid-append: the process died while writing the next frame,
    // leaving half a frame header past the durable watermark.
    let seg = dir.join("seg-00000000.dcs");
    let mut bytes = std::fs::read(&seg).expect("segment readable");
    bytes.extend_from_slice(&[0xEE; 7]);
    std::fs::write(&seg, bytes).expect("segment writable");

    let recovery_obs = Registry::new();
    let store = SegmentStore::open(StoreConfig::new(&dir).obs(recovery_obs.clone()))
        .expect("torn tail recovers");
    let snap = recovery_obs.snapshot();
    assert_eq!(snap.counter("store.recovery_replays"), CHAIN);
    assert_eq!(snap.counter("store.tail_truncations"), 1);
    assert_eq!(snap.counter("store.truncated_bytes"), 7);
    assert_eq!(store.durable_height(), CHAIN);

    let successor = CertArchive::with_store(
        Arc::new(Gossip::new()),
        Box::new(store),
        &World::pow(&[]).ias.public_key(),
        &expected_measurement(),
    )
    .expect("recovered certificates re-verify");
    assert_eq!(
        successor.messages_in(1, CHAIN),
        fixture(),
        "CHAOS_SEED={seed}: recovered archive diverged from sequential issuance"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn total_blackout_dead_letters_then_resyncs() {
    // Every delivery is lost while the pipeline runs: each certificate is
    // broadcast once, reaches nobody, and lands in the dead-letter report
    // instead of vanishing silently.
    let seed = 0xB1ACC;
    let faults = FaultConfig {
        drop_rate: 1.0,
        ..FaultConfig::lossless()
    };
    let run = run_chaos(seed, faults, None);
    assert_eq!(run.broadcast, CHAIN, "CHAOS_SEED={seed}");
    assert_eq!(run.obs.counter("pipeline.publish.dead_letters"), CHAIN);
    let heights: Vec<u64> = run.report.dead_letters.iter().map(|dl| dl.height).collect();
    assert_eq!(heights, (1..=CHAIN).collect::<Vec<_>>());
    // The archive retained what the network refused to carry, so one
    // resync round brought the client to the tip.
    assert_eq!(run.rounds, 1, "CHAOS_SEED={seed}");
    assert_eq!(run.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert_eq!(run.superlight.latest_header(), fixture_tip());
    assert_eq!(run.retained, fixture(), "CHAOS_SEED={seed}");
}

/// One arbitrary fault schedule: loss, duplication and corruption rates
/// below the given caps, a reorder window, and one partition window on
/// endpoint 0.
fn arb_faults(g: &mut Gen, rates: [f64; 3], windows: [u64; 3]) -> FaultConfig {
    let [drop_rate, duplicate_rate, corrupt_rate] = rates.map(|cap| g.range(0.0..cap));
    let [reorder_window, part_start, part_len] = windows.map(|cap| g.range(0..cap));
    FaultConfig {
        drop_rate,
        duplicate_rate,
        corrupt_rate,
        reorder_window,
        partitions: vec![Partition {
            start: part_start,
            end: part_start + part_len,
            endpoints: vec![0],
        }],
    }
}

/// The convergence invariant over arbitrary fault schedules: any
/// (seed, loss rate, duplication, corruption, reorder window,
/// partition window) — once healed, every client reaches the
/// sequential issuer's exact stream. A failure names the drawn schedule;
/// its `seed` and rates replay it through `run_chaos` directly.
#[test]
fn any_fault_schedule_converges_once_healed() {
    check("any_fault_schedule_converges_once_healed", 6, |g| {
        let seed = g.any::<u64>();
        let faults = arb_faults(g, [0.35, 0.15, 0.15], [6, 20, 5]);
        let run = run_chaos(seed, faults.clone(), None);
        let schedule = format!("seed {seed}, {faults:?}");
        assert_eq!(run.superlight.height(), Some(CHAIN), "{schedule}");
        assert_eq!(run.retained, fixture(), "{schedule}");
        assert!(run.rounds <= 1, "{schedule}: {} rounds", run.rounds);
    });
}

/// The delivery ledger balances at **every instant**, not just at
/// rest: after each publish, clock advance, subscriber departure,
/// and the final heal,
/// `delivered + undeliverable + in_flight ==
///  attempted + duplicated − partitioned − dropped − garbled`.
/// This is the invariant the duplicate-delivery accounting bug
/// violated — duplicates were delivered but never entered the ledger.
#[test]
fn netstats_conserve_deliveries_at_every_instant() {
    check("netstats_conserve_deliveries_at_every_instant", 32, |g| {
        let seed = g.any::<u64>();
        let faults = arb_faults(g, [0.5, 0.3, 0.3], [8, 12, 6]);
        let net = SimNet::new(seed, faults);
        let rx = net.join();
        let mut quitter = Some(net.join());
        let balanced = |step: &str| {
            let (stats, in_flight) = (net.stats(), net.in_flight());
            assert!(
                stats.conserves_deliveries(in_flight),
                "seed {seed} after {step}: ledger out of balance: {stats:?} \
                 (in flight {in_flight})"
            );
        };
        for height in 1..=16u64 {
            net.publish(NetMessage::CertRequest {
                from: height,
                to: height,
            });
            balanced("publish");
            if height % 3 == 0 {
                net.advance(2);
                balanced("advance");
            }
            if height == 8 {
                // One subscriber walks away mid-run: later deliveries to
                // its endpoint must land in `undeliverable`, not vanish.
                drop(quitter.take());
            }
        }
        net.heal();
        balanced("heal");
        assert_eq!(net.in_flight(), 0, "heal flushes everything pending");
        while rx.try_recv().is_ok() {}
    });
}

/// The CI seed-matrix entry: `CHAOS_SEED=<n> cargo test --test
/// chaos_network -- --include-ignored`. Runs the full scenario twice at
/// elevated rates and checks both convergence and bit-for-bit replay.
#[test]
#[ignore = "seed-matrix entry; run with CHAOS_SEED=<n> -- --include-ignored"]
fn seed_matrix_entry() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut faults = default_faults();
    faults.corrupt_rate = 0.05;
    faults.duplicate_rate = 0.05;
    let a = run_chaos(seed, faults.clone(), None);
    let b = run_chaos(seed, faults, None);
    println!(
        "CHAOS_SEED={seed}: {} dead letters, converged in {} resync rounds",
        a.report.dead_letters.len(),
        a.rounds
    );
    assert_eq!(a.stats, b.stats, "CHAOS_SEED={seed}: replay diverged");
    assert_eq!(a.retained, fixture(), "CHAOS_SEED={seed}: stream mismatch");
    assert_eq!(a.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert_eq!(b.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert!(a.rounds <= 1, "CHAOS_SEED={seed}: {} rounds", a.rounds);
}

// ---------------------------------------------------------------------
// Serving under chaos: the dcert-serve request/response wire rides the
// same faulty SimNet, the front is killed and restarted mid-burst, and
// once the network heals every client still converges on exactly the
// bytes a direct, uncached SP call produces.
// ---------------------------------------------------------------------

use std::collections::HashMap;

use dcert::primitives::codec::{Decode, Encode};
use dcert::query::history::verify_history;
use dcert::query::sp::IndexKind;
use dcert::serve::{
    decode_history_payload, encode_history_payload, QuerySpec, ServeConfig, ServeFront,
    ServeRequest, ServeWire, Submitted,
};
use dcert::vm::StateKey;

/// Queries each serve-chaos client set issues.
const SERVE_QUERIES: usize = 24;

/// Chain height behind the serve front.
const SERVE_CHAIN: u64 = 3;

fn serve_spec(q: usize) -> QuerySpec {
    QuerySpec::History {
        index: "history".to_owned(),
        key: StateKey::new("kvstore", format!("key-{}", q % 8).as_bytes()),
        t1: 1,
        t2: SERVE_CHAIN,
    }
}

struct ServeChaosRun {
    /// Per-query `(certified_height, payload)` as finally received.
    answers: Vec<(u64, Vec<u8>)>,
    /// Direct uncached SP bytes per query — the convergence target.
    expected: Vec<Vec<u8>>,
    stats: NetStats,
    /// Waiters orphaned by the mid-burst kill (must be > 0 for the
    /// scenario to mean anything).
    orphaned: usize,
    /// Serve-wire payloads garbled in transit and ignored by the server.
    garbled: u64,
    /// Responses whose proof failed client-side verification (corrupted
    /// in transit) and were rejected rather than trusted.
    rejected: u64,
}

/// Drives requests for [`SERVE_QUERIES`] queries over a faulty `SimNet`:
/// clients republish unanswered queries every round, the front is killed
/// and rebuilt mid-burst in round 1 (orphaning its parked waiters), the
/// network heals after round 4, and the run ends when every query has a
/// response.
fn run_serve_chaos(seed: u64) -> ServeChaosRun {
    let mut world = World::pow(&[(IndexKind::History, "history")]);
    let blocks = world.mine_blocks(
        Workload::KvStore { keyspace: 8 },
        SERVE_CHAIN as usize,
        4,
        9,
    );
    let mut front = ServeFront::new(world.sp, ServeConfig::default());
    for block in &blocks {
        certify_into(&mut world.ci, &mut front, block);
    }
    let expected: Vec<Vec<u8>> = (0..SERVE_QUERIES)
        .map(|q| {
            let QuerySpec::History { key, t1, t2, .. } = serve_spec(q) else {
                unreachable!("serve_spec builds history queries");
            };
            let (results, proof) = front
                .sp()
                .serve_history("history", &key, t1, t2)
                .expect("index registered");
            encode_history_payload(&results, &proof)
        })
        .collect();

    let mut faults = FaultConfig::default_chaos();
    faults.drop_rate = 0.15; // lossy enough that bursts straddle rounds
    faults.duplicate_rate = 0.05;
    faults.corrupt_rate = 0.02;
    let net = Arc::new(SimNet::new(seed, faults));
    let server_rx = net.join();
    let client_rx = net.join();

    let digest = front.sp().digest("history").expect("index certified");
    let mut answers: Vec<Option<(u64, Vec<u8>)>> = vec![None; SERVE_QUERIES];
    let mut id_to_query: HashMap<u64, usize> = HashMap::new();
    let mut orphaned = 0usize;
    let mut garbled = 0u64;
    let mut rejected = 0u64;
    let mut round = 0u64;
    while answers.iter().any(Option::is_none) {
        round += 1;
        assert!(
            round <= 60,
            "CHAOS_SEED={seed}: serve clients did not converge after heal \
             ({} unanswered, stats {:?})",
            answers.iter().filter(|a| a.is_none()).count(),
            net.stats(),
        );
        // Clients: (re)issue every unanswered query under a fresh id.
        for (qi, slot) in answers.iter().enumerate() {
            if slot.is_none() {
                let id = round * 1_000 + qi as u64;
                id_to_query.insert(id, qi);
                let request = ServeRequest {
                    client: qi as u64,
                    id,
                    query: serve_spec(qi),
                };
                net.publish(NetMessage::Serve {
                    payload: ServeWire::Request(request).to_encoded_bytes(),
                });
            }
        }
        net.advance(6);

        // Server: admit whatever survived the wire.
        while let Ok(message) = server_rx.try_recv() {
            let NetMessage::Serve { payload } = message else {
                continue;
            };
            match ServeWire::decode_all(&payload) {
                Ok(ServeWire::Request(request)) => match front.submit(round, request) {
                    Ok(Submitted::CacheHit(response)) => {
                        net.publish(NetMessage::Serve {
                            payload: ServeWire::Response(response).to_encoded_bytes(),
                        });
                    }
                    Ok(Submitted::Enqueued { .. }) => {}
                    Err(refusal) => {
                        net.publish(NetMessage::Serve {
                            payload: ServeWire::Refusal(refusal).to_encoded_bytes(),
                        });
                    }
                },
                Ok(_) => {}             // the server's own replies, echoed by the bus
                Err(_) => garbled += 1, // corrupted in transit: ignored, the client retries
            }
        }

        // Round 1: the serve process dies mid-burst — after admitting the
        // first burst but before pumping it, so every parked waiter is
        // orphaned. The restart reuses the SP but starts with a cold
        // cache and an empty queue; clients must re-request.
        if round == 1 {
            orphaned = front.parked_waiters();
            front = ServeFront::new(front.into_sp(), ServeConfig::default());
        }

        for (_, wire) in front.pump(round, usize::MAX) {
            net.publish(NetMessage::Serve {
                payload: wire.to_encoded_bytes(),
            });
        }
        net.advance(6);
        if round == 4 {
            net.heal();
        }

        // Clients: collect whatever replies made it through.
        while let Ok(message) = client_rx.try_recv() {
            let NetMessage::Serve { payload } = message else {
                continue;
            };
            if let Ok(ServeWire::Response(response)) = ServeWire::decode_all(&payload) {
                let Some(&qi) = id_to_query.get(&response.id) else {
                    continue;
                };
                if answers[qi].is_some() || response.certified_height != SERVE_CHAIN {
                    continue;
                }
                // Clients never trust serve bytes: the proof must verify
                // against the certified digest, or the response (possibly
                // corrupted in transit) is discarded and the query retried.
                let QuerySpec::History { key, t1, t2, .. } = serve_spec(qi) else {
                    unreachable!("serve_spec builds history queries");
                };
                match decode_history_payload(&response.payload) {
                    Ok((results, proof))
                        if verify_history(&digest, &key, t1, t2, &results, &proof).is_ok() =>
                    {
                        answers[qi] = Some((response.certified_height, response.payload.to_vec()));
                    }
                    _ => rejected += 1,
                }
            }
        }
    }
    ServeChaosRun {
        answers: answers.into_iter().map(|a| a.expect("loop exit")).collect(),
        expected,
        stats: net.stats(),
        orphaned,
        garbled,
        rejected,
    }
}

/// Kill/restart mid-burst over a faulty wire: every client converges
/// after `heal()`, and every answer is byte-identical to a direct
/// uncached SP call at the certified height.
#[test]
fn serve_front_killed_mid_burst_still_converges() {
    let seed = 0x5EAF;
    let run = run_serve_chaos(seed);
    assert!(
        run.orphaned > 0,
        "CHAOS_SEED={seed}: the kill orphaned no waiters — not a mid-burst restart"
    );
    assert!(
        run.stats.dropped + run.stats.delayed + run.stats.duplicated > 0,
        "CHAOS_SEED={seed}: scenario injected no faults"
    );
    for (qi, (height, payload)) in run.answers.iter().enumerate() {
        assert_eq!(
            *height, SERVE_CHAIN,
            "CHAOS_SEED={seed}: query {qi} answered at the wrong height"
        );
        assert_eq!(
            payload, &run.expected[qi],
            "CHAOS_SEED={seed}: query {qi} bytes diverged from direct serving"
        );
    }
}

/// The serve-chaos scenario replays bit-for-bit on a fixed seed —
/// including the fault schedule and every answered byte.
#[test]
fn serve_chaos_replays_bit_for_bit() {
    let a = run_serve_chaos(424242);
    let b = run_serve_chaos(424242);
    assert_eq!(
        a.stats, b.stats,
        "CHAOS_SEED=424242: fault schedule diverged"
    );
    assert_eq!(a.answers, b.answers, "CHAOS_SEED=424242: answers diverged");
    assert_eq!(a.orphaned, b.orphaned, "CHAOS_SEED=424242");
    assert_eq!(a.garbled, b.garbled, "CHAOS_SEED=424242");
    assert_eq!(a.rejected, b.rejected, "CHAOS_SEED=424242");
}

// ---------------------------------------------------------------------
// The sharded certification fleet under chaos: shard enclaves are killed
// and restarted mid-run by a deterministic failure plan, the aggregate
// certificate stream rides the same faulty SimNet, and after `heal()`
// every client converges on exactly the bytes the sequential issuer
// produces — fleet parallelism, enclave crashes, and network faults all
// invisible in the output.
// ---------------------------------------------------------------------

use std::sync::Mutex;

use dcert::core::{ShardFailurePlan, ShardFleetConfig, SharedStore};
use dcert::store::MemStore;

/// Shards in the chaos fleet: the 20-block fixture chain splits into
/// four 5-block ranges.
const FLEET_SHARDS: usize = 4;

/// Blocks per range ECall (and per durable checkpoint).
const FLEET_CHUNK: u64 = 3;

/// Certifies the chaos chain through a sharded fleet whose failure
/// plan kills shard 1 after one durable chunk (store-resume path) and
/// shard 3 before any (fresh-boot path), publishes the aggregate stream
/// over a `SimNet` seeded with `seed`, heals, and resyncs the superlight
/// client to the tip.
fn run_shard_fleet_chaos(seed: u64, faults: FaultConfig) -> ChaosRun {
    let obs = Registry::new();
    let mut world = chaos_world(seed, faults, &obs);
    let blocks = mine_chain(&mut world);

    let store: SharedStore = Arc::new(Mutex::new(Box::new(MemStore::new())));
    let mut config = ShardFleetConfig::new(FLEET_SHARDS, FLEET_CHUNK);
    config.registry = obs.clone();
    config.store = Some(store);
    config.failures = ShardFailurePlan::none().kill(1, 1).kill(3, 0);
    let mut fleet = world.fleet(config);
    let certs = fleet
        .certify_chain(&blocks, &mut world.ias)
        .expect("CHAOS_SEED: fleet certifies through the kill plan");

    // The fleet's aggregate stream goes out over the faulty wire through
    // the archive, exactly as the pipeline's issuer thread would send it.
    for (block, cert) in blocks.iter().zip(certs) {
        world.archive.publish(NetMessage::BlockCert {
            header: block.header.clone(),
            cert,
        });
    }
    ChaosRun::converge(world, PipelineReport::default(), &obs)
}

/// Kill/restart mid-certification over a faulty wire: the fleet survives
/// both crash-recovery paths (resume-from-store and fresh boot), and once
/// the network heals every client holds the sequential issuer's exact
/// certificate stream.
#[test]
fn shard_fleet_converges_under_chaos() {
    let seed = 0x5AAD;
    let run = run_shard_fleet_chaos(seed, default_faults());
    assert_eq!(run.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert_eq!(
        run.superlight.latest_header(),
        fixture_tip(),
        "CHAOS_SEED={seed}: wrong tip adopted"
    );
    // The retained aggregate stream is byte-for-byte the sequential
    // issuer's: neither sharding, nor the kills, nor chaos in transit
    // changes what was certified.
    assert_eq!(
        run.retained,
        fixture(),
        "CHAOS_SEED={seed}: fleet stream diverged from sequential issuance"
    );
    // Both crash-recovery paths actually ran.
    assert_eq!(run.obs.counter("shard.kills"), 2, "CHAOS_SEED={seed}");
    assert_eq!(run.obs.counter("shard.restarts"), 2, "CHAOS_SEED={seed}");
    assert_eq!(
        run.obs.counter("shard.resumed_ranges"),
        1,
        "CHAOS_SEED={seed}: shard 1 should resume from its durable chunk"
    );
    assert_eq!(
        run.obs.counter("shard.blocks_certified"),
        CHAIN,
        "CHAOS_SEED={seed}: durable checkpoints must prevent re-certification"
    );
    assert!(
        run.stats.dropped + run.stats.partitioned + run.stats.delayed > 0,
        "CHAOS_SEED={seed}: scenario injected no faults — not a chaos test"
    );
    assert!(
        run.stats.conserves_deliveries(run.in_flight),
        "CHAOS_SEED={seed}: NetStats leaked deliveries: {:?} (in flight {})",
        run.stats,
        run.in_flight
    );
    assert_eq!(run.obs.counter("net.delivered"), run.stats.delivered);
    assert_eq!(run.obs.counter("net.dropped"), run.stats.dropped);
}

/// The fleet chaos scenario replays bit-for-bit on a fixed seed: the
/// fault schedule, the retained bytes, and every replay-stable metric —
/// including the whole `shard.*` family — are identical across runs.
#[test]
fn shard_fleet_replays_bit_for_bit() {
    let a = run_shard_fleet_chaos(4242, default_faults());
    let b = run_shard_fleet_chaos(4242, default_faults());
    assert_eq!(a.stats, b.stats, "CHAOS_SEED=4242: fault schedule diverged");
    assert_eq!(
        a.retained, b.retained,
        "CHAOS_SEED=4242: retained stream diverged"
    );
    assert_eq!(a.superlight.latest_header(), b.superlight.latest_header());
    // `shard.*` counters (kills, restarts, resumes, per-shard block
    // counts, aggregator folds) are part of the replay-stable snapshot;
    // only `_ns` wall-clock timers may differ.
    assert_eq!(
        a.obs.without_wall_clock(),
        b.obs.without_wall_clock(),
        "CHAOS_SEED=4242: deterministic metrics diverged between replays"
    );
    assert_eq!(
        a.obs.without_wall_clock().to_json(),
        b.obs.without_wall_clock().to_json(),
        "CHAOS_SEED=4242: snapshot encoding is not canonical"
    );
}

/// The fleet's CI seed-matrix entry: `CHAOS_SEED=<n> cargo test --test
/// chaos_network shard_fleet -- --include-ignored`. Elevated fault rates,
/// run twice, convergence and bit-for-bit replay both checked.
#[test]
#[ignore = "seed-matrix entry; run with CHAOS_SEED=<n> -- --include-ignored"]
fn shard_fleet_seed_matrix_entry() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut faults = default_faults();
    faults.corrupt_rate = 0.05;
    faults.duplicate_rate = 0.05;
    let a = run_shard_fleet_chaos(seed, faults.clone());
    let b = run_shard_fleet_chaos(seed, faults);
    assert_eq!(a.stats, b.stats, "CHAOS_SEED={seed}: replay diverged");
    assert_eq!(a.retained, fixture(), "CHAOS_SEED={seed}: stream mismatch");
    assert_eq!(
        a.obs.without_wall_clock(),
        b.obs.without_wall_clock(),
        "CHAOS_SEED={seed}: shard metrics diverged between replays"
    );
    assert_eq!(a.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert_eq!(b.superlight.height(), Some(CHAIN), "CHAOS_SEED={seed}");
}
