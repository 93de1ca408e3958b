//! The fault world: combined seeds of the seeded fault scenario
//! (`tests/scenario`), each interleaving every event kind in one world,
//! checked against the sequential issuer and the chain-scan oracle, and
//! the seed-matrix entry: `CHAOS_SEED=<n> cargo test --test fault_world --
//! --include-ignored` runs every seeded row and the combined scenario at
//! `n`.

mod common;
mod scenario;

use scenario::{
    blackout, combined, default_faults, durable, fleet, pipelined, serve_kill, serve_load,
    smoke_load, tight_config, CHAIN,
};

/// Runs combined seed `seed` and checks that each fault it drew fired.
fn combined_seed(seed: u64) {
    let run = combined(seed).run();
    assert!(run.obs.counter("shard.kills") >= 1, "CHAOS_SEED={seed}");
    assert!(run.stats.partitioned > 0, "CHAOS_SEED={seed}: no blackout");
    assert!(run.rounds >= 1, "CHAOS_SEED={seed}: nothing to resync");
    assert!(run.report.errors.is_empty(), "CHAOS_SEED={seed}");
    assert!(run.recovery.is_some() && !run.answers.is_empty());
}

/// Five combined seeds in tier-1, one test each.
macro_rules! combined_seeds {
    ($($name:ident = $seed:literal),*) => {$(
        #[test]
        fn $name() {
            combined_seed($seed);
        }
    )*};
}

combined_seeds!(
    combined_seed_1 = 1,
    combined_seed_2 = 2,
    combined_seed_3 = 3
);
combined_seeds!(combined_seed_4 = 4, combined_seed_5 = 5);

/// The CI seed-matrix entry: every seeded row and the combined scenario
/// at `CHAOS_SEED`, the chaos rows at elevated rates, the serve-load row
/// at bench scale.
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
    let run = pipelined(seed, faults.clone()).run();
    println!(
        "CHAOS_SEED={seed}: {} dead letters, converged in {} resync rounds",
        run.report.dead_letters.len(),
        run.rounds
    );
    assert!(run.rounds <= 1, "CHAOS_SEED={seed}: {} rounds", run.rounds);
    for row in [fleet(seed, faults), durable(seed), blackout(seed)] {
        let run = row.run();
        assert_eq!(run.world.client.height(), Some(CHAIN), "CHAOS_SEED={seed}");
    }
    serve_kill(seed).run();
    let run = serve_load(seed, smoke_load(50_000), tight_config()).run();
    let high = run.obs.gauge("serve.queue_high_water");
    assert!(
        high <= tight_config().queue_capacity as i64,
        "CHAOS_SEED={seed}"
    );
    combined_seed(seed);
}
