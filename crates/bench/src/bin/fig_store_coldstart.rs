//! Store cold-start: how long a crashed Certificate Issuer takes to come
//! back serving resyncs, as its durable certified history grows.
//!
//! Not a paper figure — the paper's evaluation restarts from genesis.
//! This measures the two phases the `dcert-store` persistence layer adds
//! on top: **open** (segment scan + torn-tail truncation + record replay)
//! and **re-verify** (every recovered certificate checked against the
//! trust anchors before the archive serves a single resync). Beside them,
//! **commit** is what one archive publish costs while the history grows:
//! the median and quartiles of one append + sync over the row's build
//! loop (the segment's data flush plus the head slot's in-place rewrite).
//!
//! Run with: `cargo run --release -p dcert-bench --bin fig_store_coldstart`
//! (use `DCERT_SCALE=0.02` for a quick pass).

#![forbid(unsafe_code)]

use std::sync::Arc;

use dcert::world::{Setup, World};
use dcert_bench::params::scaled;
use dcert_bench::report::{banner, fmt_bytes};
use dcert_bench::shape;
use dcert_bench::timing::{self, Spread};
use dcert_core::{expected_measurement, CertArchive, Gossip, NetMessage};
use dcert_obs::Registry;
use dcert_primitives::codec::Encode;
use dcert_sgx::cost::timed;
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
    let open = || SegmentStore::open(StoreConfig::new(&dir).obs(obs.clone()));
    let mut store: Option<Box<dyn Store>> = Some(Box::new(open().expect("fresh store opens")));

    println!(
        "{:>9} | {:>12} {:>10} | {:>31} {:>31} | {:>31}",
        "blocks", "disk", "replayed", "open", "re-verify", "commit"
    );
    println!("{}", "-".repeat(137));
    let (mut disks, mut replays) = (Vec::new(), Vec::new());
    let mut height = 0u64;
    for &target in &lengths {
        // Grow the durable history to `target`, the way the live archive
        // does: one certificate record per block, synced before the
        // publish is acknowledged.
        let live = store.as_mut().expect("the store is back");
        let mut commits = Vec::new();
        while height < target {
            let block = world.mine(Vec::new());
            height = block.header.height;
            let (cert, _) = world.ci.certify_block(&block).expect("certifies");
            let message = NetMessage::BlockCert {
                header: block.header.clone(),
                cert,
            };
            let record = Record::new(height, StreamId::Cert, message.to_encoded_bytes());
            let (synced, commit) = timed(|| live.append(&record).and_then(|()| live.sync()));
            synced.expect("appends and syncs");
            commits.push(commit);
        }

        // Open and re-verify the same directory, back to back.
        let ([open_time, verify_time], (replayed, disk)) = timing::repeat("recovery", || {
            drop(store.take()); // the crash: the process dies with the store
            let (reopened, open_time) = timed(|| open().expect("history recovers"));
            let replayed = reopened.recovery().replayed;
            let disk: u64 = (reopened.segment_paths().iter())
                .filter_map(|p| std::fs::metadata(p).ok())
                .map(|m| m.len())
                .sum();
            let (archive, verify_time) = timed(|| {
                let reopened = Box::new(reopened);
                CertArchive::with_store(Arc::new(Gossip::new()), reopened, &ias_key, &measurement)
                    .expect("recovered certificates re-verify")
            });
            assert_eq!(
                archive.retained_len() as u64,
                target,
                "recovery lost certificates"
            );
            store = Some(archive.into_store().expect("store stays attached"));
            ([open_time, verify_time], (replayed, disk))
        });
        println!(
            "{target:>9} | {:>12} {replayed:>10} | {open_time:>31} {verify_time:>31} | {:>31}",
            fmt_bytes(disk as usize),
            Spread::of(commits),
        );
        disks.push(disk);
        replays.push(replayed);
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
    timing::note();
}
