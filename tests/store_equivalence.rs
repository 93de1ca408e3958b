//! Backend-equivalence suite for `dcert-store`.
//!
//! The determinism contract (`dcert-store` crate docs): the same
//! certified history produces byte-identical segment files, and every
//! read a [`SegmentStore`] answers — records, head entries, SP query
//! answers, archive resyncs — is byte-identical to a [`MemStore`] fed
//! the same appends. This suite pins that contract at three levels:
//!
//! 1. **Store trait reads**: records / head entries / heights compare
//!    equal after identical appends.
//! 2. **Consumers**: a Service Provider and a [`CertArchive`] backed by
//!    either store answer every query identically, including after an
//!    orderly close and reopen through the recovery path.
//! 3. **Disk bytes**: two independent runs of the same deterministic
//!    history leave byte-identical files on disk.

mod common;

use std::path::Path;
use std::sync::{Arc, OnceLock};

use common::temp_dir;
use dcert::chain::Block;
use dcert::core::{expected_measurement, CertArchive, Gossip, NetMessage, Transport};
use dcert::primitives::codec::Encode;
use dcert::primitives::hash::Hash;
use dcert::primitives::keys::PublicKey;
use dcert::query::ServiceProvider;
use dcert::store::{MemStore, SegmentStore, Store, StoreConfig};
use dcert::world::{observe, Observation, World, MEMO_INDEXES};

/// Blocks every scenario drives (one commit per block).
const BLOCKS: u64 = 4;

/// Drives `blocks` through the world's SP (the segment store's) and
/// `sp_mem`, certifying each block once, asserting live equivalence at
/// every commit.
fn drive(world: &mut World, sp_mem: &mut ServiceProvider, blocks: &[Block]) {
    for block in blocks {
        let height = block.header.height;
        let inputs_mem = sp_mem.stage_block(block).expect("oracle stages");
        let inputs_seg = world.sp.stage_block(block).expect("segment SP stages");
        assert_eq!(inputs_mem.len(), inputs_seg.len(), "height {height}");
        let (certs, _) = world
            .ci
            .certify_augmented(block, &inputs_seg)
            .expect("certifies");
        sp_mem.record_certs(&certs);
        world.sp.record_certs(&certs);
        assert!(sp_mem.store_error().is_none(), "height {height}");
        assert!(world.sp.store_error().is_none(), "height {height}");
        assert_eq!(
            observe(sp_mem),
            observe(&world.sp),
            "live mem/segment divergence at height {height}"
        );
    }
}

/// Encodes a store's full read surface as comparable bytes.
fn store_image(store: &dyn Store) -> Vec<u8> {
    let mut image = Vec::new();
    for record in store.records() {
        record.encode(&mut image);
    }
    for (key, value) in store.head_entries() {
        key.encode(&mut image);
        value.encode(&mut image);
    }
    store.durable_height().encode(&mut image);
    store.max_height().encode(&mut image);
    image
}

/// Every file in a store directory, sorted by name, with its bytes.
fn dir_image(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store dir readable")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("file readable");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Runs the deterministic dual-SP scenario into `dir`, returning the
/// final observation and both stores (mem oracle, segment).
fn dual_run(dir: &Path) -> (Observation, Box<dyn Store>, Box<dyn Store>) {
    let mut world = World::pow(&MEMO_INDEXES);
    let mut sp_mem = world.genesis_sp();
    sp_mem.attach_store(Box::new(MemStore::new()));
    world.sp.attach_store(Box::new(
        SegmentStore::open(StoreConfig::new(dir)).expect("segment store opens"),
    ));
    let blocks = world.mine_memos(BLOCKS);
    drive(&mut world, &mut sp_mem, &blocks);
    let tip = observe(&world.sp);
    let mem = sp_mem.take_store().expect("oracle store attached");
    let seg = world.sp.take_store().expect("segment store attached");
    (tip, mem, seg)
}

/// Trust anchors shared by every world.
fn anchors() -> (PublicKey, Hash) {
    let world = World::pow(&[]);
    (world.ias.public_key(), expected_measurement())
}

#[test]
fn store_reads_identical_after_identical_appends() {
    let dir = temp_dir("eq-reads");
    let (_, mem, seg) = dual_run(&dir);
    assert_eq!(mem.backend(), "mem");
    assert_eq!(seg.backend(), "segment");
    assert_eq!(mem.durable_height(), BLOCKS);
    assert_eq!(
        store_image(mem.as_ref()),
        store_image(seg.as_ref()),
        "Store read surface diverged between backends"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_history_produces_byte_identical_segment_files() {
    let dir_a = temp_dir("eq-disk-a");
    let dir_b = temp_dir("eq-disk-b");
    let (tip_a, _, seg_a) = dual_run(&dir_a);
    let (tip_b, _, seg_b) = dual_run(&dir_b);
    assert_eq!(tip_a, tip_b, "two identical runs observed differently");
    // Close both stores so every byte is on disk before comparing.
    drop(seg_a);
    drop(seg_b);
    let image_a = dir_image(&dir_a);
    let image_b = dir_image(&dir_b);
    assert!(!image_a.is_empty(), "run left no files");
    assert_eq!(
        image_a.iter().map(|(name, _)| name).collect::<Vec<_>>(),
        image_b.iter().map(|(name, _)| name).collect::<Vec<_>>(),
    );
    for ((name, bytes_a), (_, bytes_b)) in image_a.iter().zip(&image_b) {
        assert_eq!(bytes_a, bytes_b, "{name}: same history, different bytes");
    }
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn sp_close_and_reopen_answers_identically() {
    let dir = temp_dir("eq-reopen");
    let (tip, mem, seg) = dual_run(&dir);
    let pre_close = store_image(seg.as_ref());
    drop(seg); // orderly close

    let reopened = SegmentStore::open(StoreConfig::new(&dir)).expect("reopens clean");
    assert_eq!(reopened.durable_height(), BLOCKS);
    assert_eq!(
        store_image(&reopened),
        pre_close,
        "reopen changed the read surface"
    );
    assert_eq!(store_image(&reopened), store_image(mem.as_ref()));

    let (ias_key, measurement) = anchors();
    let sp = World::pow(&MEMO_INDEXES)
        .sp
        .recover_from(&ias_key, &measurement, Box::new(reopened))
        .expect("re-verification succeeds");
    assert_eq!(observe(&sp), tip, "recovered SP diverged from the live one");
    std::fs::remove_dir_all(&dir).ok();
}

/// The certificate stream a sequential CI issues for the memo chain —
/// what both archives are fed.
fn cert_stream() -> &'static Vec<NetMessage> {
    static STREAM: OnceLock<Vec<NetMessage>> = OnceLock::new();
    STREAM.get_or_init(|| {
        let mut world = World::pow(&[]);
        let blocks = world.mine_memos(BLOCKS);
        blocks
            .iter()
            .map(|block| {
                let (cert, _) = world.ci.certify_block(block).expect("certifies");
                NetMessage::BlockCert {
                    header: block.header.clone(),
                    cert,
                }
            })
            .collect()
    })
}

fn encoded(messages: &[NetMessage]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for message in messages {
        message.encode(&mut bytes);
    }
    bytes
}

#[test]
fn archive_resyncs_identically_on_mem_and_segment_stores() {
    let stream = cert_stream();
    let (ias_key, measurement) = anchors();
    let dir = temp_dir("eq-archive");

    let archive_mem = CertArchive::new(Arc::new(Gossip::new()));
    let archive_seg = CertArchive::with_store(
        Arc::new(Gossip::new()),
        Box::new(SegmentStore::open(StoreConfig::new(&dir)).expect("opens")),
        &ias_key,
        &measurement,
    )
    .expect("empty store recovers");

    for message in stream {
        archive_mem.publish(message.clone());
        archive_seg.publish(message.clone());
        // The publisher's retry loop re-sends; retention must stay
        // idempotent on both backends.
        archive_seg.publish(message.clone());
    }
    assert!(archive_seg.store_error().is_none());
    assert_eq!(archive_mem.retained_len(), stream.len());
    assert_eq!(archive_seg.retained_len(), stream.len());
    assert_eq!(archive_mem.tip_height(), archive_seg.tip_height());
    assert_eq!(
        encoded(&archive_mem.messages_in(1, BLOCKS)),
        encoded(&archive_seg.messages_in(1, BLOCKS)),
    );
    assert_eq!(archive_seg.durable_height(), BLOCKS);

    // Orderly handover: detach the store, reopen it, and hand it to a
    // successor archive — which must re-verify and answer identically.
    let store = archive_seg.into_store().expect("store attached");
    drop(store);
    let reopened = SegmentStore::open(StoreConfig::new(&dir)).expect("reopens clean");
    let successor = CertArchive::with_store(
        Arc::new(Gossip::new()),
        Box::new(reopened),
        &ias_key,
        &measurement,
    )
    .expect("recovered certificates re-verify");
    assert_eq!(successor.retained_len(), stream.len());
    assert_eq!(
        encoded(&successor.messages_in(1, BLOCKS)),
        encoded(&archive_mem.messages_in(1, BLOCKS)),
        "successor archive diverged from the in-memory oracle"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruned_archives_answer_identically_including_after_reopen() {
    let stream = cert_stream();
    let (ias_key, measurement) = anchors();
    let dir = temp_dir("eq-prune");
    let horizon = 3;

    let archive_mem = CertArchive::new(Arc::new(Gossip::new()));
    let archive_seg = CertArchive::with_store(
        Arc::new(Gossip::new()),
        Box::new(SegmentStore::open(StoreConfig::new(&dir)).expect("opens")),
        &ias_key,
        &measurement,
    )
    .expect("empty store recovers");
    for message in stream {
        archive_mem.publish(message.clone());
        archive_seg.publish(message.clone());
    }
    archive_mem.prune_below(horizon);
    archive_seg.prune_below(horizon);
    assert!(archive_seg.store_error().is_none());
    assert_eq!(archive_mem.retained_len(), archive_seg.retained_len());
    assert_eq!(
        encoded(&archive_mem.messages_in(1, BLOCKS)),
        encoded(&archive_seg.messages_in(1, BLOCKS)),
        "pruned archives diverged while live"
    );

    // A SegmentStore prunes at segment granularity and may retain more
    // bytes than the mem oracle — but recovery must drop records below
    // the recorded watermark, so the *answers* stay identical.
    drop(archive_seg.into_store());
    let reopened = SegmentStore::open(StoreConfig::new(&dir)).expect("reopens clean");
    let successor = CertArchive::with_store(
        Arc::new(Gossip::new()),
        Box::new(reopened),
        &ias_key,
        &measurement,
    )
    .expect("recovered certificates re-verify");
    assert_eq!(
        encoded(&successor.messages_in(1, BLOCKS)),
        encoded(&archive_mem.messages_in(1, BLOCKS)),
        "reopened pruned archive resurrected pruned certificates"
    );
    std::fs::remove_dir_all(&dir).ok();
}
