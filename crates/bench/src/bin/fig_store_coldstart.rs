//! Store cold-start: how long a crashed Certificate Issuer takes to come
//! back serving resyncs, as its durable certified history grows.
//!
//! Not a paper figure — the paper's evaluation restarts from genesis.
//! This measures the two phases the `dcert-store` persistence layer adds
//! on top: **open** (segment scan + torn-tail truncation + record replay)
//! and **re-verify** (every recovered certificate checked against the
//! trust anchors before the archive serves a single resync).
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_store_coldstart`
//! (use `DCERT_SCALE=0.02` for a quick pass).

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use dcert::world::{Setup, World};
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes, fmt_duration};
use dcert_bench::shape;
use dcert_core::{expected_measurement, CertArchive, Gossip, NetMessage};
use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_sgx::CostModel;
use dcert_store::{Record, SegmentStore, Store, StoreConfig, StreamId};

/// Certified-history sizes swept (scaled by `DCERT_SCALE`).
const HISTORY_LENGTHS: &[u64] = &[1_000, 2_000, 4_000];

fn main() {
    banner(
        "Store cold-start: archive recovery time vs durable history",
        "open (scan + replay) and re-verify scale linearly in retained certificates",
    );

    let lengths: Vec<u64> = HISTORY_LENGTHS.iter().map(|&n| scaled(n)).collect();
    let obs = Registry::new();
    // The enclave cost model is irrelevant here — the measured phases run
    // entirely outside the enclave, against the disk and the verifier.
    let mut world = World::new(Setup {
        registry: obs.clone(),
        ..Setup::poa(CostModel::zero())
    });
    let ias_key = world.ias.public_key();
    let measurement = expected_measurement();

    let dir = std::env::temp_dir().join(format!("dcert-bench-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let mut store: Box<dyn Store> = Box::new(
        SegmentStore::open(StoreConfig::new(&dir).obs(obs.clone())).expect("fresh store opens"),
    );

    println!(
        "{:>9} | {:>12} {:>10} | {:>12} {:>12}",
        "blocks", "disk", "replayed", "open", "re-verify"
    );
    println!("{}", "-".repeat(64));
    let (mut disks, mut replays) = (Vec::new(), Vec::new());
    let mut height = 0u64;
    for &target in &lengths {
        // Grow the durable history to `target`, the way the live archive
        // does: one certificate record per block, synced before the
        // publish is acknowledged.
        while height < target {
            let block = world.mine(Vec::new());
            height = block.header.height;
            let (cert, _) = world.ci.certify_block(&block).expect("certifies");
            let message = NetMessage::BlockCert {
                header: block.header.clone(),
                cert,
            };
            store
                .append(&Record::new(
                    height,
                    StreamId::Cert,
                    message.to_encoded_bytes(),
                ))
                .expect("appends");
            store.sync().expect("syncs");
        }
        drop(store); // the crash: the process dies with the store

        let started = Instant::now();
        let reopened =
            SegmentStore::open(StoreConfig::new(&dir).obs(obs.clone())).expect("history recovers");
        let open_time = started.elapsed();
        let replayed = reopened.recovery().replayed;
        let disk: u64 = reopened
            .segment_paths()
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();

        let started = Instant::now();
        let archive = CertArchive::with_store(
            Arc::new(Gossip::new()),
            Box::new(reopened),
            &ias_key,
            &measurement,
        )
        .expect("recovered certificates re-verify");
        let verify_time = started.elapsed();
        assert_eq!(
            archive.retained_len() as u64,
            target,
            "recovery lost certificates"
        );

        println!(
            "{target:>9} | {:>12} {replayed:>10} | {:>12} {:>12}",
            fmt_bytes(disk as usize),
            fmt_duration(open_time),
            fmt_duration(verify_time),
        );
        disks.push(disk);
        replays.push(replayed);
        store = archive.into_store().expect("store stays attached");
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Recovery replays exactly what was made durable: disk footprint and
    // replayed records are linear in the retained history.
    shape::grows_with("segment bytes", &lengths, &disks);
    shape::grows_with("replayed records", &lengths, &replays);
    shape::recorded(
        &obs,
        &["store.appends", "store.recovery_replays", "store.fsyncs"],
        &[],
    );
}
