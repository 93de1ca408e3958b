//! Cross-shard reorg drills for the sharded certification fleet.
//!
//! The fleet partitions the chain into per-shard height ranges, so a
//! reorg interacts with *range geometry*: a fork can land exactly on a
//! range boundary (invalidating whole ranges), inside a range
//! (invalidating a suffix of one range plus every range above it), or
//! truncate the chain outright. In every geometry the acceptance
//! criterion is the same as the tentpole's: the fleet's aggregate output
//! on the reorged chain must be byte-identical to a sequential
//! deterministic CI certifying that chain from genesis.
//!
//! The stale-range refusal itself — the aggregator enclave's monotonic
//! height watermark rejecting a fold of superseded ranges — is pinned
//! both end-to-end (via the `shard.stale_range_refusals` metric) and
//! directly at the `CertProgram::handle` level.

mod common;

use std::sync::{Arc, Mutex};

use common::{assert_bytes_equal, fleet_for, sequential_oracle, World, TEST_SIGNING_SEED};
use dcert::chain::Block;
use dcert::core::{
    CertError, Certificate, EcallRequest, EcallResponse, RangeCert, ShardFleetConfig, SharedStore,
};
use dcert::obs::Registry;
use dcert::primitives::hash::Hash;
use dcert::primitives::keys::Keypair;
use dcert::sgx::Quote;
use dcert::store::MemStore;
use dcert::workloads::Workload;

/// Mines a chain that shares its first `shared` heights with a `base`
/// seed and then diverges: a fresh deterministic world replays the base
/// seed for the prefix and switches tx seeds for the fork suffix.
fn mine_fork(shared: usize, fork_len: usize, base_seed: u64, fork_seed: u64) -> Vec<Block> {
    let (mut world, _) = World::deterministic(Vec::new());
    let prefix = world.mine_blocks(Workload::SmallBank { customers: 16 }, shared, 2, base_seed);
    let suffix = world.mine_blocks(
        Workload::SmallBank { customers: 16 },
        fork_len,
        2,
        fork_seed,
    );
    prefix.into_iter().chain(suffix).collect()
}

/// Runs the original-then-reorg sequence through one fleet and checks the
/// final stream against the sequential oracle for the reorged chain.
/// Returns the metric registry for geometry-specific assertions.
fn drill(original: &[Block], reorged: &[Block], shards: usize, chunk: u64) -> Registry {
    let registry = Registry::new();
    let store: SharedStore = Arc::new(Mutex::new(Box::new(MemStore::new())));
    let (mut fleet_world, _) = World::deterministic(Vec::new());
    let mut config = ShardFleetConfig::new(shards, chunk);
    config.registry = registry.clone();
    config.store = Some(store);
    let mut fleet = fleet_for(&fleet_world, config);

    let first = fleet
        .certify_chain(original, &mut fleet_world.ias)
        .expect("original chain certifies");
    assert_bytes_equal(&sequential_oracle(original), &first, "pre-reorg");

    let certs = fleet
        .certify_chain(reorged, &mut fleet_world.ias)
        .expect("reorged chain certifies");
    assert_bytes_equal(&sequential_oracle(reorged), &certs, "post-reorg");
    registry
}

/// A reorg landing exactly on a shard-range boundary: 12 blocks in four
/// 3-block ranges, forking at height 7. The two ranges below the fork are
/// kept; exactly the 6 blocks above it are re-certified.
#[test]
fn reorg_on_exact_shard_boundary() {
    let original = mine_fork(12, 0, 101, 101);
    let reorged = mine_fork(6, 6, 101, 202);
    assert_eq!(
        original[5].header.hash(),
        reorged[5].header.hash(),
        "heights 1..=6 must be shared"
    );
    assert_ne!(
        original[6].header.hash(),
        reorged[6].header.hash(),
        "fork must land at height 7"
    );

    let registry = drill(&original, &reorged, 4, 3);
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("shard.recert_blocks"),
        6,
        "exactly the post-boundary suffix is re-certification work"
    );
    assert_eq!(snap.counter("shard.stale_range_refusals"), 1);
    assert_eq!(snap.counter("shard.agg.fresh_boots"), 2);
}

/// A reorg landing mid-range and therefore spanning two shard ranges:
/// forking at height 5 invalidates the tail of range [4,6] and all of
/// [7,9] and [10,12]; the partially-shared range re-certifies from its
/// start.
#[test]
fn reorg_spanning_two_shard_ranges() {
    let original = mine_fork(12, 0, 103, 103);
    let reorged = mine_fork(4, 8, 103, 204);
    assert_eq!(original[3].header.hash(), reorged[3].header.hash());
    assert_ne!(original[4].header.hash(), reorged[4].header.hash());

    let registry = drill(&original, &reorged, 4, 3);
    let snap = registry.snapshot();
    // Only range [1,3] survives; re-certification restarts at height 4
    // even though height 4 itself is shared — a partially-invalidated
    // range is re-certified whole.
    assert_eq!(snap.counter("shard.recert_blocks"), 9);
    assert_eq!(snap.counter("shard.stale_range_refusals"), 1);
}

/// A reorg onto a *shorter* chain: the certified view shrinks, every
/// height above the fork is re-issued, and the output still matches the
/// sequential oracle on the short chain.
#[test]
fn reorg_onto_shorter_chain() {
    let original = mine_fork(12, 0, 105, 105);
    let reorged = mine_fork(6, 2, 105, 206);
    assert_eq!(reorged.len(), 8);

    let registry = drill(&original, &reorged, 4, 3);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("shard.stale_range_refusals"), 1);
}

/// After a reorg the fresh aggregator keeps serving extensions: new
/// blocks on the reorged chain fold incrementally (no further fresh
/// boots) and stay byte-identical to the oracle.
#[test]
fn extension_after_reorg_stays_equivalent() {
    let original = mine_fork(9, 0, 107, 107);
    let (mut fork_world, _) = World::deterministic(Vec::new());
    let prefix = fork_world.mine_blocks(Workload::SmallBank { customers: 16 }, 5, 2, 107);
    let fork = fork_world.mine_blocks(Workload::SmallBank { customers: 16 }, 4, 2, 208);
    let reorged: Vec<Block> = prefix.iter().chain(&fork).cloned().collect();
    let extension = fork_world.mine_blocks(Workload::SmallBank { customers: 16 }, 3, 2, 209);
    let extended: Vec<Block> = reorged.iter().chain(&extension).cloned().collect();

    let registry = Registry::new();
    let (mut fleet_world, _) = World::deterministic(Vec::new());
    let mut config = ShardFleetConfig::new(3, 2);
    config.registry = registry.clone();
    let mut fleet = fleet_for(&fleet_world, config);
    fleet
        .certify_chain(&original, &mut fleet_world.ias)
        .expect("original certifies");
    fleet
        .certify_chain(&reorged, &mut fleet_world.ias)
        .expect("reorg certifies");
    let boots_after_reorg = registry.snapshot().counter("shard.agg.fresh_boots");

    let certs = fleet
        .certify_chain(&extended, &mut fleet_world.ias)
        .expect("post-reorg extension certifies");
    assert_bytes_equal(
        &sequential_oracle(&extended),
        &certs,
        "post-reorg extension",
    );
    assert_eq!(
        registry.snapshot().counter("shard.agg.fresh_boots"),
        boots_after_reorg,
        "an extension must reuse the post-reorg aggregator"
    );
}

/// The watermark refusal itself, at the trusted-program level: after a
/// fold advances the aggregator's signed-height watermark, re-folding
/// ranges that start at or below it is a typed `HeightRegression` — the
/// mechanism that forces the fleet to boot a fresh aggregator after a
/// reorg instead of silently double-issuing.
#[test]
fn aggregator_refuses_stale_range_fold() {
    let (world, _) = World::deterministic(Vec::new());
    let mut ias = world.ias;

    // A "shard" platform the IAS trusts, producing hand-built range
    // certificates with the *real* program measurement — the fold's
    // acceptance check is measurement equality, not block replay, so the
    // header digests can be arbitrary.
    let platform = Keypair::from_seed([0x33; 32]);
    ias.register_platform(platform.public());
    let shard_key = Keypair::from_seed([0x44; 32]);
    let quote = Quote::sign(
        &platform,
        dcert::core::expected_measurement(),
        Certificate::key_binding(&shard_key.public()),
    );
    let report = ias.attest(&quote).expect("shard attests");

    let make_range = |anchor_digest: Hash, first: u64, digests: Vec<Hash>| {
        let last = first + digests.len() as u64 - 1;
        let binding = RangeCert::binding_digest(&anchor_digest, first, last, &digests);
        RangeCert {
            pk_range: shard_key.public(),
            report: report.clone(),
            anchor_digest,
            first,
            last,
            header_digests: digests,
            signature: shard_key.sign(binding.as_bytes()),
        }
    };

    let d: Vec<Hash> = (0..4u64)
        .map(|i| dcert::primitives::hash::hash_bytes(format!("hdr-{i}").as_bytes()))
        .collect();
    let genesis_digest = world.genesis.header.hash();
    let rc1 = make_range(genesis_digest, 1, vec![d[0], d[1]]);
    let rc2 = make_range(d[1], 3, vec![d[2], d[3]]);

    let mut program = dcert::core::CertProgram::new(
        world.genesis.hash(),
        ias.public_key(),
        world.executor.clone(),
        world.engine.clone(),
        Vec::new(),
    )
    .with_signing_seed(TEST_SIGNING_SEED);
    program
        .handle(EcallRequest::Init)
        .expect("program initializes");

    let response = program
        .handle(EcallRequest::FoldRanges {
            anchor: world.genesis.header.clone(),
            anchor_cert: None,
            ranges: vec![rc1.clone(), rc2],
        })
        .expect("first fold succeeds");
    match response {
        EcallResponse::Signatures(sigs) => assert_eq!(sigs.len(), 4),
        other => panic!("expected signatures, got {other:?}"),
    }
    assert_eq!(program.last_signed_height(), 4);

    // Re-folding from height 1 is now a height regression: the enclave
    // refuses before any verification work.
    let err = program
        .handle(EcallRequest::FoldRanges {
            anchor: world.genesis.header.clone(),
            anchor_cert: None,
            ranges: vec![rc1],
        })
        .expect_err("stale fold must be refused");
    assert_eq!(
        err,
        CertError::HeightRegression {
            last_signed: 4,
            offered: 1,
        }
    );
}
