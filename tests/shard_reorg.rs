//! Cross-shard reorg rows of the seeded fault scenario (`tests/scenario`).
//!
//! The fleet partitions the chain into per-shard height ranges, so a
//! reorg interacts with *range geometry*: a fork can land exactly on a
//! range boundary (invalidating whole ranges), inside a range
//! (invalidating a suffix of one range plus every range above it), or
//! truncate the chain outright. In every geometry the fleet's output on
//! the reorged chain is byte-identical to a sequential CI certifying that
//! chain from genesis — the scenario checks it at every fleet event.
//!
//! The stale-range refusal itself — the aggregator enclave's monotonic
//! height watermark rejecting a fold of superseded ranges, which is why a
//! reorg boots the aggregator again — is pinned directly at the
//! `CertProgram::handle` level.

mod common;
mod scenario;

use dcert::core::{
    CertError, Certificate, EcallRequest, EcallResponse, FaultConfig, RangeCert, ShardFailurePlan,
};
use dcert::primitives::hash::Hash;
use dcert::primitives::keys::Keypair;
use dcert::sgx::Quote;
use dcert::workloads::Workload;
use dcert::world::{World, SIGNING_SEED};
use scenario::{Event, FleetSpec, Row, Run};

/// `count` SmallBank blocks of 2 transactions drawn from `seed`.
fn mine(count: usize, seed: u64) -> Event {
    Event::Mine(Workload::SmallBank { customers: 16 }, count, 2, seed)
}

/// Certifies the chain on a `shards`-shard fleet, `chunk` blocks per ECall.
fn certify(shards: usize, chunk: u64, durable: bool) -> Event {
    let (failures, publish) = (ShardFailurePlan::none(), false);
    Event::Fleet(FleetSpec {
        shards,
        chunk,
        failures,
        durable,
        publish,
    })
}

/// An original chain of `len` blocks from `base`, certified, reorged at
/// `keep` onto `fork_len` blocks from `fork`, certified again.
fn drill(len: usize, keep: usize, fork_len: usize, base: u64, fork: u64) -> Run {
    let events = vec![
        mine(len, base),
        certify(4, 3, true),
        Event::Fork(keep),
        mine(fork_len, fork),
        certify(4, 3, true),
    ];
    let run = Row::new(base, FaultConfig::lossless(), &[], events).run();
    let old = &run.abandoned[0][0].header;
    let shared = run.chain[keep - 1].header.hash();
    assert_eq!(old.prev_hash, shared, "heights 1..={keep} must be shared");
    let fork = run.chain[keep].header.hash();
    assert_ne!(old.hash(), fork, "the fork lands just above height {keep}");
    run
}

/// A reorg landing exactly on a shard-range boundary: 12 blocks in four
/// 3-block ranges, forking at height 7. The two ranges below the fork are
/// kept; exactly the 6 blocks above it are re-certified.
#[test]
fn reorg_on_exact_shard_boundary() {
    let snap = drill(12, 6, 6, 101, 202).obs;
    assert_eq!(
        snap.counter("shard.recert_blocks"),
        6,
        "exactly the post-boundary suffix is re-certification work"
    );
    assert_eq!(snap.counter("shard.agg.fresh_boots"), 2);
}

/// A reorg landing mid-range and therefore spanning two shard ranges:
/// forking at height 5 invalidates the tail of range [4,6] and all of
/// [7,9] and [10,12]; the partially-shared range re-certifies from its
/// start.
#[test]
fn reorg_spanning_two_shard_ranges() {
    let snap = drill(12, 4, 8, 103, 204).obs;
    // Only range [1,3] survives; re-certification restarts at height 4
    // even though height 4 itself is shared — a partially-invalidated
    // range is re-certified whole.
    assert_eq!(snap.counter("shard.recert_blocks"), 9);
}

/// A reorg onto a *shorter* chain: the certified view shrinks, every
/// height above the fork is re-issued, and the output still matches the
/// sequential issuer on the short chain.
#[test]
fn reorg_onto_shorter_chain() {
    let run = drill(12, 6, 2, 105, 206);
    assert_eq!(run.chain.len(), 8);
}

/// After a reorg the fresh aggregator keeps serving extensions: new
/// blocks on the reorged chain fold incrementally (no further fresh
/// boots) and stay byte-identical to the sequential issuer.
#[test]
fn extension_after_reorg_stays_equivalent() {
    let events = vec![
        mine(9, 107),
        certify(3, 2, false),
        Event::Fork(5),
        mine(4, 208),
        certify(3, 2, false),
        mine(3, 209),
        certify(3, 2, false),
    ];
    let run = Row::new(107, FaultConfig::lossless(), &[], events).run();
    let boots = |event: usize| run.snaps[event].counter("shard.agg.fresh_boots");
    assert_eq!(
        boots(6),
        boots(4),
        "an extension must reuse the post-reorg aggregator"
    );
}

/// A shard that dies before its first chunk after a reorg, while the store
/// still holds the pre-reorg range certificate under that chunk's key: 12
/// blocks on two shards in 3-block chunks, forked at height 7, so the
/// second run chunks `[7, 12]` at the heights the first did. A restart
/// resumes only certificates that certify its chunks as this run
/// sequenced them, so it re-signs, and the fleet still converges on the
/// sequential issuer's bytes.
#[test]
fn reorg_restart_re_signs_a_stale_checkpoint() {
    // Shard 0 dies after one chunk of the first run (a durable prefix it
    // resumes) and before the first chunk of the second (a stale one).
    let failures = ShardFailurePlan::none().kill(0, 1).kill(0, 0);
    let fleet = || {
        let failures = failures.clone();
        Event::Fleet(FleetSpec {
            shards: 2,
            chunk: 3,
            failures,
            durable: true,
            publish: false,
        })
    };
    let events = vec![
        mine(12, 109),
        fleet(),
        Event::Fork(6),
        mine(6, 210),
        fleet(),
    ];
    let run = Row::new(109, FaultConfig::lossless(), &[], events).run();
    let (first, second) = (&run.snaps[1], &run.snaps[4]);
    assert_eq!(first.counter("shard.kills"), 1);
    assert_eq!(first.counter("shard.resumed_ranges"), 1, "a durable prefix");
    assert_eq!(second.counter("shard.kills"), 2);
    assert_eq!(second.counter("shard.resumed_ranges"), 1, "nothing stale");
    assert_eq!(second.counter("shard.recert_blocks"), 6);
    // 12 blocks signed once each, then all 6 above the fork again.
    assert_eq!(second.counter("shard.blocks_certified"), 18);
}

/// The watermark refusal itself, at the trusted-program level: after a
/// fold advances the aggregator's signed-height watermark, re-folding
/// ranges that start at or below it is a typed `HeightRegression` — the
/// mechanism that makes the fleet boot its aggregator again after a reorg
/// instead of folding onto a watermark above the fork.
#[test]
fn aggregator_refuses_stale_range_fold() {
    let world = World::pow(&[]);
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
    .with_signing_seed(SIGNING_SEED);
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
