//! Kill-at-every-offset recovery suite for `dcert-store`.
//!
//! The crash-safety contract (DESIGN.md "Persistence"): after a kill at
//! **any** byte offset of the on-disk state, the Service Provider either
//! comes back serving query answers byte-identical to what it had durably
//! acknowledged, or refuses with a typed error. It never panics and never
//! serves state it cannot re-verify against the latest certificate.
//!
//! The suite proves that by construction: a golden run drives one
//! certified chain through two SPs at once — a [`MemStore`] oracle and a
//! [`SegmentStore`] — snapshotting the store's files and the oracle's
//! query answers after every commit. Every test then reconstructs a
//! crashed directory from those snapshots (truncations at every byte
//! offset, torn head slots, seeded bit flips), reopens it, recovers a
//! fresh SP through the certificate re-verification path, and compares
//! its answers byte-for-byte against the oracle at the recovered
//! watermark.

mod common;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use common::{genesis_sp, memo_blocks, observe, temp_dir, world_indexes, Observation, World};
use dcert::chain::Block;
use dcert::core::expected_measurement;
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::{hash_bytes, Hash};
use dcert::primitives::keys::PublicKey;
use dcert::query::{CertifiedEntry, ServiceProvider};
use dcert::store::head::{HEAD_SLOT_A, HEAD_SLOT_B};
use dcert::store::{MemStore, SegmentStore, Store, StoreConfig, StoreError};
use dcert::workloads::Workload;
use dcert_testkit::{check, Gen};

/// Chaos seeds the CI matrix fans out over (`CHAOS_SEED` env var).
const CHAOS_SEEDS: [u64; 5] = [1, 42, 1234, 77777, 424242];

/// Blocks in the golden run (one commit per block).
const GOLDEN_BLOCKS: u64 = 3;

/// The single segment file the golden run writes (4 MiB roll threshold is
/// never reached).
const SEG_FILE: &str = "seg-00000000.dcs";

/// The golden run's plain-data residue: file snapshots after each commit
/// plus the oracle's expected observation at each commit.
struct Golden {
    /// Final full segment-file bytes.
    seg: Vec<u8>,
    /// `synced_len[i]` = segment bytes durable after commit `i`
    /// (`synced_len[0] = 0`: nothing durable before the first commit).
    synced_len: Vec<usize>,
    /// `[head-a, head-b]` file bytes after commit `i` (`None` = absent).
    heads: Vec<[Option<Vec<u8>>; 2]>,
    /// Oracle observation after commit `i` (`expected[0]` = genesis).
    expected: Vec<Observation>,
    ias_key: PublicKey,
    measurement: Hash,
}

/// Stages `blocks` through both SPs, certifying each block and committing
/// both stores, snapshotting the segment-store directory after every
/// commit. Asserts the MemStore oracle and the SegmentStore SP answer
/// identically while live.
fn drive(
    world: &mut World,
    sp_seg: &mut ServiceProvider,
    sp_mem: &mut ServiceProvider,
    blocks: &[Block],
    dir: &Path,
) -> Golden {
    let read_head = |slot: &str| std::fs::read(dir.join(slot)).ok();
    let mut golden = Golden {
        seg: Vec::new(),
        synced_len: vec![0],
        heads: vec![[None, None]],
        expected: vec![observe(sp_mem)],
        ias_key: world.ias.public_key(),
        measurement: expected_measurement(),
    };
    for block in blocks {
        let height = block.header.height;
        let inputs_mem = sp_mem.stage_block(block).expect("oracle stages");
        let inputs_seg = sp_seg.stage_block(block).expect("segment SP stages");
        assert_eq!(inputs_mem.len(), inputs_seg.len(), "height {height}");
        let (certs, _) = world
            .ci
            .certify_augmented(block, &inputs_seg)
            .expect("certifies");
        sp_mem.record_certs(&certs);
        sp_seg.record_certs(&certs);
        assert!(sp_mem.store_error().is_none(), "height {height}");
        assert!(sp_seg.store_error().is_none(), "height {height}");

        let om = observe(sp_mem);
        assert_eq!(
            om,
            observe(sp_seg),
            "live mem/segment divergence at height {height}"
        );
        golden.expected.push(om);
        golden.synced_len.push(
            std::fs::read(dir.join(SEG_FILE))
                .expect("segment readable")
                .len(),
        );
        golden
            .heads
            .push([read_head(HEAD_SLOT_A), read_head(HEAD_SLOT_B)]);
    }
    golden.seg = std::fs::read(dir.join(SEG_FILE)).expect("segment readable");
    golden
}

fn build_golden() -> Golden {
    let (mut world, mut sp_seg) = World::deterministic(world_indexes());
    let mut sp_mem = genesis_sp();
    sp_mem.attach_store(Box::new(MemStore::new()));
    let dir = temp_dir("recovery-golden");
    sp_seg.attach_store(Box::new(
        SegmentStore::open(StoreConfig::new(&dir)).expect("golden store opens"),
    ));
    let blocks = memo_blocks(&mut world, GOLDEN_BLOCKS);
    let golden = drive(&mut world, &mut sp_seg, &mut sp_mem, &blocks, &dir);
    drop(sp_seg);
    std::fs::remove_dir_all(&dir).ok();
    golden
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(build_golden)
}

/// The last commit whose durable segment bytes fit inside a `cut`-byte
/// segment file — what a correct recovery must come back as.
fn commit_at(golden: &Golden, cut: usize) -> usize {
    (0..golden.synced_len.len())
        .rev()
        .find(|&i| golden.synced_len[i] <= cut)
        .expect("synced_len[0] = 0 always fits")
}

/// Reconstructs a crashed store directory: the segment prefix the kill
/// left behind, plus the head slots as they stood at `commit`.
fn restore(golden: &Golden, cut: usize, commit: usize, label: &str) -> PathBuf {
    let dir = temp_dir(label);
    std::fs::write(dir.join(SEG_FILE), &golden.seg[..cut]).expect("segment written");
    let [a, b] = &golden.heads[commit];
    if let Some(bytes) = a {
        std::fs::write(dir.join(HEAD_SLOT_A), bytes).expect("head-a written");
    }
    if let Some(bytes) = b {
        std::fs::write(dir.join(HEAD_SLOT_B), bytes).expect("head-b written");
    }
    dir
}

fn recover_sp(golden: &Golden, store: SegmentStore) -> ServiceProvider {
    genesis_sp()
        .recover_from(&golden.ias_key, &golden.measurement, Box::new(store))
        .expect("re-verification succeeds")
}

/// The tentpole sweep: kill the process at **every byte offset** of the
/// segment file. The head region holds whatever the last commit covered
/// by the surviving prefix wrote, so every offset must recover — serving
/// exactly the oracle's answers at that commit — and the torn tail past
/// the watermark must be truncated, never replayed into the indexes.
#[test]
fn kill_at_every_segment_offset_recovers_the_last_commit() {
    let g = golden();
    assert_eq!(g.expected.len() as u64, GOLDEN_BLOCKS + 1);
    for cut in 0..=g.seg.len() {
        let commit = commit_at(g, cut);
        let dir = restore(g, cut, commit, "offset");
        let store = SegmentStore::open(StoreConfig::new(&dir))
            .unwrap_or_else(|e| panic!("cut {cut}: open refused intact watermark: {e:?}"));
        assert_eq!(store.durable_height(), commit as u64, "cut {cut}");
        let sp = genesis_sp()
            .recover_from(&g.ias_key, &g.measurement, Box::new(store))
            .unwrap_or_else(|e| panic!("cut {cut}: re-verification failed: {e:?}"));
        assert_eq!(observe(&sp), g.expected[commit], "cut {cut}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Kill the process mid-head-write: truncate or bit-flip the newest head
/// slot at every offset. The A/B protocol guarantees the previous slot
/// survives, so recovery falls back exactly one commit — never refuses,
/// never serves a blend of the two.
#[test]
fn torn_newest_head_slot_falls_back_one_commit() {
    let g = golden();
    // After 3 commits the newest head (seq 3) is slot A; slot B holds seq 2.
    let newest = g.heads[GOLDEN_BLOCKS as usize][0]
        .as_ref()
        .expect("slot A written");
    let fallback = GOLDEN_BLOCKS as usize - 1;
    let mut damaged: Vec<Vec<u8>> = (0..newest.len())
        .map(|cut| newest[..cut].to_vec())
        .collect();
    damaged.extend((0..newest.len()).map(|pos| {
        let mut flipped = newest.clone();
        flipped[pos] ^= 0x40;
        flipped
    }));
    for (case, bytes) in damaged.iter().enumerate() {
        let dir = restore(g, g.seg.len(), GOLDEN_BLOCKS as usize, "torn-head");
        std::fs::write(dir.join(HEAD_SLOT_A), bytes).unwrap();
        let store = SegmentStore::open(StoreConfig::new(&dir))
            .unwrap_or_else(|e| panic!("case {case}: fallback slot refused: {e:?}"));
        assert_eq!(store.durable_height(), fallback as u64, "case {case}");
        let sp = recover_sp(g, store);
        assert_eq!(observe(&sp), g.expected[fallback], "case {case}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Damage that genuinely loses acknowledged data must refuse with a
/// typed error — recovering a plausible-but-unacknowledged state would
/// be serving history the SP cannot account for.
#[test]
fn unrecoverable_damage_refuses_with_typed_errors() {
    let g = golden();
    let last = GOLDEN_BLOCKS as usize;

    // Both head slots corrupt: the durable watermark is unknowable.
    let dir = restore(g, g.seg.len(), last, "both-heads");
    for slot in [HEAD_SLOT_A, HEAD_SLOT_B] {
        let mut bytes = std::fs::read(dir.join(slot)).unwrap();
        let end = bytes.len() - 1;
        bytes[end] ^= 0xFF;
        std::fs::write(dir.join(slot), bytes).unwrap();
    }
    let err = SegmentStore::open(StoreConfig::new(&dir)).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::HeadCorrupt { .. } | StoreError::BadMagic { .. }
        ),
        "{err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();

    // Segment file gone while the head still marks it durable.
    let dir = restore(g, g.seg.len(), last, "missing-seg");
    std::fs::remove_file(dir.join(SEG_FILE)).unwrap();
    let err = SegmentStore::open(StoreConfig::new(&dir)).unwrap_err();
    assert!(matches!(err, StoreError::DurableDataLost { .. }), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();

    // Segment shorter than the durable watermark: acknowledged bytes lost.
    let dir = restore(g, g.synced_len[last] - 1, last, "short-seg");
    let err = SegmentStore::open(StoreConfig::new(&dir)).unwrap_err();
    assert!(matches!(err, StoreError::DurableDataLost { .. }), "{err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A byzantine disk (not a crash): the store's files are internally
/// consistent but a committed head entry was substituted. CRC cannot
/// catch this — the SP's semantic re-verification must.
#[test]
fn recovery_refuses_substituted_head_entry() {
    let g = golden();
    let dir = restore(g, g.seg.len(), GOLDEN_BLOCKS as usize, "forged-entry");
    let mut store = SegmentStore::open(StoreConfig::new(&dir)).expect("opens clean");
    let forged = CertifiedEntry {
        digest: hash_bytes(b"forged digest the indexes never had"),
        anchor: None,
    };
    store
        .put_head("sp.cert.history", forged.to_encoded_bytes())
        .unwrap();
    store.sync().unwrap();
    let err = genesis_sp()
        .recover_from(&g.ias_key, &g.measurement, Box::new(store))
        .expect_err("substituted digest must refuse");
    let msg = format!("{err:?}");
    assert!(msg.contains("VerifyFailed"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded single-bit flips across all three files of the final state.
/// Every flip must either refuse (typed) or recover — and a recovery must
/// be byte-identical to the oracle at whatever watermark it lands on.
/// Returns `(recovered, refused)` for the caller's coverage assertions.
fn run_bit_flips(g: &Golden, seed: u64) -> (usize, usize) {
    let last = GOLDEN_BLOCKS as usize;
    let head_a = g.heads[last][0].as_ref().expect("slot A written");
    let head_b = g.heads[last][1].as_ref().expect("slot B written");
    let files: [(&str, &[u8]); 3] = [
        (SEG_FILE, &g.seg),
        (HEAD_SLOT_A, head_a),
        (HEAD_SLOT_B, head_b),
    ];
    let (mut recovered, mut refused) = (0, 0);
    let mut draw = Gen::from_seed(seed);
    for case in 0..40 {
        let (name, bytes) = draw.one_of(&files);
        let (pos, bit) = (draw.range(0..bytes.len()), draw.range(0u8..8));
        let dir = restore(g, g.seg.len(), last, "bit-flip");
        let mut flipped = bytes.to_vec();
        flipped[pos] ^= 1 << bit;
        std::fs::write(dir.join(name), flipped).unwrap();
        match SegmentStore::open(StoreConfig::new(&dir)) {
            Err(_) => refused += 1, // typed refusal — the Err itself is the proof
            Ok(store) => {
                let watermark = store.durable_height() as usize;
                assert!(watermark <= last, "CHAOS_SEED={seed} case {case}");
                let sp = genesis_sp()
                    .recover_from(&g.ias_key, &g.measurement, Box::new(store))
                    .unwrap_or_else(|e| {
                        panic!("CHAOS_SEED={seed} case {case}: intact watermark refused: {e:?}")
                    });
                assert_eq!(
                    observe(&sp),
                    g.expected[watermark],
                    "CHAOS_SEED={seed} case {case} ({name} byte {pos} bit {bit})"
                );
                recovered += 1;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    (recovered, refused)
}

#[test]
fn seeded_bit_flips_recover_or_refuse() {
    let g = golden();
    let (mut recovered, mut refused) = (0, 0);
    for seed in CHAOS_SEEDS {
        let (r, f) = run_bit_flips(g, seed);
        recovered += r;
        refused += f;
    }
    // The matrix must exercise both arms of the contract, or the suite
    // is vacuous.
    assert!(recovered > 0, "no flip ever recovered");
    assert!(refused > 0, "no flip ever refused");
}

/// CI matrix entry point: `CHAOS_SEED=<n> cargo test -- --ignored
/// seed_matrix_entry` runs one seed's flip schedule in isolation.
#[test]
#[ignore = "run via the CHAOS_SEED matrix in CI"]
fn seed_matrix_entry() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .expect("CHAOS_SEED env var set")
        .parse()
        .expect("CHAOS_SEED is numeric");
    let g = golden();
    let (recovered, refused) = run_bit_flips(g, seed);
    println!("CHAOS_SEED={seed}: {recovered} recovered, {refused} refused");
}

/// After recovering at any commit watermark, re-syncing the same chain
/// must converge on the never-crashed oracle: catch-up blocks apply to
/// the chain only (no re-staging), fresh blocks certify normally, and a
/// second crash-and-recover at the tip still serves the golden answers.
#[test]
fn resync_after_recovery_converges_on_the_oracle() {
    let g = golden();
    for watermark in 0..=GOLDEN_BLOCKS as usize {
        // Deterministic world rebuild: byte-identical blocks and certs.
        let (mut world, mut sp_oracle) = World::deterministic(world_indexes());
        let blocks = memo_blocks(&mut world, GOLDEN_BLOCKS);

        let dir = restore(g, g.synced_len[watermark], watermark, "resync");
        let store = SegmentStore::open(StoreConfig::new(&dir)).expect("boundary cut opens");
        let mut sp_rec = recover_sp(g, store);
        assert_eq!(sp_rec.index_height(), watermark as u64);

        for block in &blocks {
            let height = block.header.height as usize;
            let inputs_rec = sp_rec.stage_block(block).expect("recovered SP stages");
            let inputs_oracle = sp_oracle.stage_block(block).expect("oracle stages");
            let (certs, _) = world
                .ci
                .certify_augmented(block, &inputs_oracle)
                .expect("certifies");
            sp_oracle.record_certs(&certs);
            if height <= watermark {
                assert!(
                    inputs_rec.is_empty(),
                    "watermark {watermark}: catch-up block {height} must not re-stage"
                );
            } else {
                assert_eq!(inputs_rec.len(), inputs_oracle.len());
                sp_rec.record_certs(&certs);
            }
        }
        assert!(sp_rec.store_error().is_none(), "watermark {watermark}");
        let tip = observe(&sp_oracle);
        assert_eq!(observe(&sp_rec), tip, "watermark {watermark}");
        assert_eq!(
            tip, g.expected[GOLDEN_BLOCKS as usize],
            "watermark {watermark}"
        );

        // Crash again at the tip: the re-synced store must recover clean.
        drop(sp_rec.take_store());
        drop(sp_rec);
        let store = SegmentStore::open(StoreConfig::new(&dir)).expect("second recovery opens");
        assert_eq!(store.durable_height(), GOLDEN_BLOCKS);
        let sp_again = recover_sp(g, store);
        assert_eq!(
            observe(&sp_again),
            g.expected[GOLDEN_BLOCKS as usize],
            "watermark {watermark}: second crash"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Property form of the sweep over *arbitrary* record schedules:
/// workload-generated blocks (any contract mix), any kill fraction,
/// seeds drawn from the chaos matrix. Recovery at the kill point must
/// serve the MemStore oracle's answers at the surviving commit.
#[test]
fn kill_point_identity_over_schedules() {
    check("kill_point_identity_over_schedules", 5, |draw| {
        let (blocks, txs) = (draw.range(1usize..=3), draw.range(1usize..=2));
        let (seed, kill_permille) = (draw.one_of(&CHAOS_SEEDS), draw.range(0usize..=1000));
        let (mut world, mut sp_seg) = World::deterministic(world_indexes());
        let mut sp_mem = genesis_sp();
        sp_mem.attach_store(Box::new(MemStore::new()));
        let dir = temp_dir("schedule");
        sp_seg.attach_store(Box::new(
            SegmentStore::open(StoreConfig::new(&dir)).expect("schedule store opens"),
        ));
        let mined = world.mine_blocks(Workload::KvStore { keyspace: 16 }, blocks, txs, seed);
        let g = drive(&mut world, &mut sp_seg, &mut sp_mem, &mined, &dir);
        drop(sp_seg);
        std::fs::remove_dir_all(&dir).ok();

        let cut = (g.seg.len() * kill_permille / 1000).min(g.seg.len());
        let commit = commit_at(&g, cut);
        let scratch = restore(&g, cut, commit, "schedule-cut");
        let store = SegmentStore::open(StoreConfig::new(&scratch)).expect("kill point opens");
        assert_eq!(store.durable_height(), commit as u64);
        let sp = genesis_sp()
            .recover_from(&g.ias_key, &g.measurement, Box::new(store))
            .expect("re-verification succeeds");
        assert_eq!(observe(&sp), g.expected[commit].clone());
        std::fs::remove_dir_all(&scratch).ok();
    });
}
