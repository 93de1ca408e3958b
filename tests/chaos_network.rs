//! Chaos rows of the seeded fault scenario (`tests/scenario`): the chaos
//! chain certified over a faulty network by the pipeline or the shard
//! fleet, then healed. Each row also checks the scenario's shared
//! invariants — once the faults stop, the client holds the sequential
//! issuer's exact stream, and the seed replays bit for bit.

mod common;
mod scenario;

use dcert::core::{FaultConfig, NetMessage, Partition, SimNet, Transport};
use dcert_testkit::{check, Gen};
use scenario::{blackout, default_faults, durable, fleet, pipelined, serve_kill, Run, CHAIN};

/// The client reached the chaos chain's tip, and the faults did something.
fn assert_converged(run: &Run) {
    let seed = run.seed;
    assert_eq!(run.world.client.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    assert!(
        run.stats.dropped + run.stats.partitioned + run.stats.delayed > 0,
        "CHAOS_SEED={seed}: scenario injected no faults — not a chaos test"
    );
    // The attached registry agrees with the simulator's own ledger.
    assert_eq!(run.obs.counter("net.delivered"), run.stats.delivered);
    assert_eq!(run.obs.counter("net.dropped"), run.stats.dropped);
}

#[test]
fn converges_at_default_fault_rates() {
    let run = pipelined(0xD0, default_faults()).run();
    assert_converged(&run);
    assert_eq!(run.report.errors.len(), 0);
    assert_eq!(run.obs.counter("net.attempted"), run.stats.attempted);
    assert_eq!(run.obs.counter("net.duplicated"), run.stats.duplicated);
    // Each job is broadcast once; what the faults ate comes back by resync.
    assert_eq!(run.broadcast, run.report.jobs);
    assert!(run.rounds <= 1, "CHAOS_SEED=0xD0: {} rounds", run.rounds);
}

/// Invariant 4 is this row's whole assertion.
#[test]
fn fixed_seed_replays_bit_for_bit() {
    pipelined(1234, default_faults()).run();
}

/// The archive persists every retained certificate to a `SegmentStore`;
/// a crash tears the segment tail, and the successor archive recovers —
/// counting replays and truncations in a fresh registry — and is what the
/// client resyncs from.
#[test]
fn durable_archive_survives_chaos_and_a_torn_tail() {
    let run = durable(0xD15C).run();
    assert_eq!(run.world.client.height(), Some(CHAIN));
    // One append per unique certificate: duplicated deliveries and resync
    // republishes never reach the disk.
    assert_eq!(run.obs.counter("store.appends"), CHAIN);
    assert_eq!(run.obs.counter("store.recovery_replays"), 0);
    assert_eq!(run.obs.counter("store.tail_truncations"), 0);
    assert!(run.obs.counter("store.fsyncs") > 0);
    let (recovery, durable_height) = run.recovery.expect("the tail tore");
    assert_eq!(recovery.counter("store.recovery_replays"), CHAIN);
    assert_eq!(recovery.counter("store.tail_truncations"), 1);
    assert_eq!(recovery.counter("store.truncated_bytes"), 7);
    assert_eq!(durable_height, CHAIN);
}

/// Every delivery is lost while the pipeline runs: each certificate is
/// broadcast once, reaches nobody and is dead-lettered; the archive kept
/// them, so one resync round brings the client to the tip.
#[test]
fn total_blackout_dead_letters_then_resyncs() {
    let run = blackout(0xB1ACC).run();
    assert_eq!(run.broadcast, CHAIN);
    assert_eq!(run.obs.counter("pipeline.publish.dead_letters"), CHAIN);
    let heights: Vec<u64> = run.report.dead_letters.iter().map(|dl| dl.height).collect();
    assert_eq!(heights, (1..=CHAIN).collect::<Vec<_>>());
    assert_eq!(run.rounds, 1);
    assert_eq!(run.world.client.height(), Some(CHAIN));
}

/// Loss, duplication and corruption rates below the caps, a reorder
/// window, and one partition window on endpoint 0.
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

/// Any fault schedule, once healed, converges on the sequential issuer's
/// exact stream; a failure names the drawn schedule.
#[test]
fn any_fault_schedule_converges_once_healed() {
    check("any_fault_schedule_converges_once_healed", 6, |g| {
        let seed = g.any::<u64>();
        let faults = arb_faults(g, [0.35, 0.15, 0.15], [6, 20, 5]);
        let run = pipelined(seed, faults.clone()).run();
        let schedule = format!("seed {seed}, {faults:?}");
        assert_eq!(run.world.client.height(), Some(CHAIN), "{schedule}");
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

/// The serve wire rides the world's net; the front is killed and
/// restarted mid-burst, and every client still converges, each answer at
/// the certified height and byte-identical to a direct uncached SP call.
#[test]
fn serve_front_killed_mid_burst_still_converges() {
    let run = serve_kill(0x5EAF).run();
    let (orphaned, ..) = run.kill;
    assert!(orphaned > 0, "the kill orphaned no waiters");
    assert!(run.stats.dropped + run.stats.delayed + run.stats.duplicated > 0);
    assert_eq!(run.answers.len(), 24);
    assert!(run.answers.iter().all(|a| a.response.certified_height == 3));
}

/// Invariant 4 — fault schedule, answers, orphaned, garbled and rejected
/// counts — is this row's whole assertion.
#[test]
fn serve_chaos_replays_bit_for_bit() {
    serve_kill(424242).run();
}

/// The fleet survives both crash-recovery paths, and the healed client
/// holds the sequential issuer's exact stream.
#[test]
fn shard_fleet_converges_under_chaos() {
    let run = fleet(0x5AAD, default_faults()).run();
    assert_converged(&run);
    assert_eq!(run.obs.counter("shard.kills"), 2);
    assert_eq!(run.obs.counter("shard.restarts"), 2);
    // Shard 1 resumes from its durable chunk, and durable checkpoints
    // prevent re-certification.
    assert_eq!(run.obs.counter("shard.resumed_ranges"), 1);
    assert_eq!(run.obs.counter("shard.blocks_certified"), CHAIN);
}

/// Invariant 4, the `shard.*` family included, is this row's whole
/// assertion.
#[test]
fn shard_fleet_replays_bit_for_bit() {
    fleet(4242, default_faults()).run();
}
