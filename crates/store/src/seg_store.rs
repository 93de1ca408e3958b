//! `SegmentStore` — the durable backend: append-only segments plus the
//! A/B head region, with crash recovery at open.
//!
//! # Write protocol
//!
//! 1. `append` frames the record and writes it to the active segment file
//!    (no fsync — the bytes are *volatile* until the next sync). When the
//!    active segment would outgrow `max_segment_bytes` it is fsynced and
//!    sealed, and a fresh segment starts.
//! 2. `sync` fsyncs the active segment **first**, then writes the head
//!    region (alternating slot, sequence + 1, per-segment durable byte
//!    lengths, consumer head entries) and fsyncs it. Ordering matters: the
//!    head may lag the segments but must never lead them.
//!
//! # Recovery protocol (at [`SegmentStore::open`])
//!
//! 1. Pick the authoritative head slot ([`crate::head::choose_head`]);
//!    refuse with [`StoreError::HeadCorrupt`] if slots exist but none
//!    decodes.
//! 2. Scan every segment in index order, stopping at the first damaged
//!    frame. If the intact prefix is shorter than the head's durable
//!    watermark for that segment, acknowledged data was lost — refuse
//!    with [`StoreError::DurableDataLost`].
//! 3. Physically truncate any torn tail, replay intact records (including
//!    redo records past the watermark — they were written before the
//!    crash and prove themselves by CRC plus consumer re-verification),
//!    and drop unreachable files (segments orphaned by an interrupted
//!    prune, or garbage after a torn segment).
//!
//! The store itself guarantees *integrity* (what is replayed is exactly
//! what was written); *authenticity* is layered on top by consumers, which
//! re-verify the recovered state against the latest certificate before
//! serving (`CertArchive::recover`, `ServiceProvider::recover_from`).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use dcert_obs::{Counter, Gauge, Registry};
use dcert_primitives::Encode;

use crate::error::{io_err, StoreError};
use crate::frame::{append_frame, Record, SEGMENT_MAGIC};
use crate::head::{choose_head, HeadState, SegmentMark, HEAD_SLOT_A, HEAD_SLOT_B};
use crate::segment::{parse_segment_file_name, read_segment, segment_file_name};
use crate::Store;

/// Default segment roll threshold (4 MiB).
pub const DEFAULT_MAX_SEGMENT_BYTES: u64 = 4 << 20;

/// Configuration for opening a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding segment and head files (created if absent).
    pub dir: PathBuf,
    /// Roll the active segment when it would exceed this many bytes.
    pub max_segment_bytes: u64,
    /// Registry receiving the `store.*` metrics (disabled by default).
    pub obs: Registry,
}

impl StoreConfig {
    /// Builds a config with defaults: 4 MiB segments, no observability.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            max_segment_bytes: DEFAULT_MAX_SEGMENT_BYTES,
            obs: Registry::disabled(),
        }
    }

    /// Sets the segment roll threshold.
    pub fn max_segment_bytes(mut self, bytes: u64) -> Self {
        self.max_segment_bytes = bytes.max(64);
        self
    }

    /// Attaches an observability registry.
    pub fn obs(mut self, registry: Registry) -> Self {
        self.obs = registry;
        self
    }
}

/// What recovery found and did at [`SegmentStore::open`]. All zeros for a
/// brand-new store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records replayed from segment files.
    pub replayed: u64,
    /// Segment files whose torn tail was truncated (or that were dropped
    /// wholesale as unreachable).
    pub truncated_segments: u64,
    /// Bytes removed by those truncations.
    pub truncated_bytes: u64,
    /// Durable watermark the head region certified.
    pub durable_height: u64,
    /// Highest record height actually recovered (≥ `durable_height` when
    /// redo records survived past the watermark).
    pub recovered_height: u64,
}

/// `store.*` metric handles.
struct Metrics {
    appends: Counter,
    segment_bytes: Counter,
    fsyncs: Counter,
    head_writes: Counter,
    recovery_replays: Counter,
    tail_truncations: Counter,
    truncated_bytes: Counter,
    segments: Gauge,
    disk_bytes: Gauge,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        Metrics {
            appends: registry.counter("store.appends"),
            segment_bytes: registry.counter("store.segment_bytes"),
            fsyncs: registry.counter("store.fsyncs"),
            head_writes: registry.counter("store.head_writes"),
            recovery_replays: registry.counter("store.recovery_replays"),
            tail_truncations: registry.counter("store.tail_truncations"),
            truncated_bytes: registry.counter("store.truncated_bytes"),
            segments: registry.gauge("store.segments"),
            disk_bytes: registry.gauge("store.disk_bytes"),
        }
    }
}

/// Live bookkeeping for one segment file.
#[derive(Debug, Clone)]
struct SegMeta {
    index: u32,
    len: u64,
    max_height: u64,
    records: usize,
}

/// The durable [`Store`] backend.
impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("dir", &self.dir)
            .field("segments", &self.metas.len())
            .field("records", &self.records.len())
            .field("durable_height", &self.durable_height)
            .field("max_height", &self.max_height)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

pub struct SegmentStore {
    dir: PathBuf,
    max_segment_bytes: u64,
    metrics: Metrics,
    active: File,
    metas: Vec<SegMeta>,
    records: Vec<Record>,
    entries: BTreeMap<String, Vec<u8>>,
    seq: u64,
    durable_height: u64,
    max_height: u64,
    report: RecoveryReport,
    poisoned: Option<StoreError>,
}

impl SegmentStore {
    /// Opens (or creates) a store in `config.dir`, running crash recovery
    /// if the directory already holds data.
    ///
    /// # Errors
    ///
    /// - [`StoreError::HeadCorrupt`] — head slots exist but none decodes.
    /// - [`StoreError::DurableDataLost`] — a segment's intact prefix is
    ///   shorter than the durable watermark (or a marked segment is
    ///   missing entirely).
    /// - [`StoreError::Io`] — operating-system failure.
    pub fn open(config: StoreConfig) -> Result<Self, StoreError> {
        std::fs::create_dir_all(&config.dir).map_err(io_err("store mkdir"))?;
        let metrics = Metrics::new(&config.obs);

        let slot_a = read_slot(&config.dir, HEAD_SLOT_A)?;
        let slot_b = read_slot(&config.dir, HEAD_SLOT_B)?;
        let head = choose_head(slot_a, slot_b)?;
        let on_disk = list_segments(&config.dir)?;

        let mut store = SegmentStore {
            dir: config.dir,
            max_segment_bytes: config.max_segment_bytes,
            metrics,
            // Placeholder; replaced below once the active segment is known.
            active: File::open("/dev/null").map_err(io_err("store open"))?,
            metas: Vec::new(),
            records: Vec::new(),
            entries: BTreeMap::new(),
            seq: 0,
            durable_height: 0,
            max_height: 0,
            report: RecoveryReport::default(),
            poisoned: None,
        };
        store.recover(head, on_disk)?;
        Ok(store)
    }

    fn recover(&mut self, head: Option<HeadState>, on_disk: Vec<u32>) -> Result<(), StoreError> {
        let head = head.unwrap_or_default();

        // Every segment the head marks durable must still be present.
        for mark in &head.segments {
            if mark.durable_len > 0 && !on_disk.contains(&mark.index) {
                return Err(StoreError::DurableDataLost {
                    segment: mark.index,
                    durable: mark.durable_len,
                    recovered: 0,
                });
            }
        }
        let min_marked = head.segments.iter().map(|m| m.index).min();

        let mut prev_torn = false;
        for index in on_disk {
            let path = self.dir.join(segment_file_name(index));
            // A segment older than everything the head tracks was orphaned
            // by an interrupted prune: the head (written first) already
            // disowned it, so finish the job.
            if head.seq > 0 && min_marked.map(|min| index < min).unwrap_or(true) {
                let dropped = path
                    .metadata()
                    .map(|m| m.len())
                    .map_err(io_err("segment metadata"))?;
                std::fs::remove_file(&path).map_err(io_err("segment remove"))?;
                self.report.truncated_segments += 1;
                self.report.truncated_bytes += dropped;
                continue;
            }
            let durable = head.durable_len(index).unwrap_or(0);
            let scan = read_segment(&path)?;
            if scan.valid_len < durable {
                return Err(StoreError::DurableDataLost {
                    segment: index,
                    durable,
                    recovered: scan.valid_len,
                });
            }
            if prev_torn {
                // Nothing after a torn segment can be durable (checked
                // above), so any remaining file is unreachable garbage.
                std::fs::remove_file(&path).map_err(io_err("segment remove"))?;
                self.report.truncated_segments += 1;
                self.report.truncated_bytes += scan.file_len;
                continue;
            }
            // A file shorter than the magic (e.g. zero bytes, from a crash
            // between segment create and the magic write) is not "torn" by
            // the length test but still needs its header restored before
            // anything can be appended to it.
            if scan.torn() || scan.valid_len < SEGMENT_MAGIC.len() as u64 {
                truncate_segment(&path, scan.valid_len)?;
                self.report.truncated_segments += 1;
                self.report.truncated_bytes += scan.file_len - scan.valid_len;
                prev_torn = true;
            }
            self.report.replayed += scan.records.len() as u64;
            self.metas.push(SegMeta {
                index,
                len: scan.valid_len.max(SEGMENT_MAGIC.len() as u64),
                max_height: scan.max_height,
                records: scan.records.len(),
            });
            self.records.extend(scan.records);
        }

        // A brand-new store (or one whose every segment was dropped)
        // starts a fresh segment after the highest index ever used.
        if self.metas.is_empty() {
            let next = head.segments.iter().map(|m| m.index + 1).max().unwrap_or(0);
            self.create_segment(next)?;
        }

        self.seq = head.seq;
        self.durable_height = head.durable_height;
        self.max_height = self
            .records
            .iter()
            .map(|r| r.height)
            .max()
            .unwrap_or(0)
            .max(head.durable_height);
        self.entries = head.entries.iter().cloned().collect();
        self.report.durable_height = head.durable_height;
        self.report.recovered_height = self.max_height;

        // (Re)open the active segment for appending.
        let active_meta = self.metas.last().ok_or(StoreError::HeadCorrupt {
            detail: "no active segment after recovery",
        })?;
        let path = self.dir.join(segment_file_name(active_meta.index));
        self.active = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(io_err("segment open"))?;

        self.metrics.recovery_replays.add(self.report.replayed);
        self.metrics
            .tail_truncations
            .add(self.report.truncated_segments);
        self.metrics
            .truncated_bytes
            .add(self.report.truncated_bytes);
        self.publish_gauges();
        Ok(())
    }

    /// Creates a fresh segment file (magic only) and makes it active.
    fn create_segment(&mut self, index: u32) -> Result<(), StoreError> {
        let path = self.dir.join(segment_file_name(index));
        let mut file = File::create(&path).map_err(io_err("segment create"))?;
        file.write_all(&SEGMENT_MAGIC)
            .map_err(io_err("segment create"))?;
        self.active = file;
        self.metas.push(SegMeta {
            index,
            len: SEGMENT_MAGIC.len() as u64,
            max_height: 0,
            records: 0,
        });
        // Make the new directory entry itself durable (best effort: the
        // next head fsync orders it anyway on the journaled filesystems
        // this targets).
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn publish_gauges(&self) {
        self.metrics.segments.set(self.metas.len() as i64);
        let total: u64 = self.metas.iter().map(|m| m.len).sum();
        self.metrics
            .disk_bytes
            .set(i64::try_from(total).unwrap_or(i64::MAX));
    }

    /// What recovery found and did when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.report
    }

    /// Directory holding this store's files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total bytes across live segment files.
    pub fn disk_bytes(&self) -> u64 {
        self.metas.iter().map(|m| m.len).sum()
    }

    /// Paths of live segment files, ascending by index.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.metas
            .iter()
            .map(|m| self.dir.join(segment_file_name(m.index)))
            .collect()
    }

    fn fsync_active(&mut self) -> Result<(), StoreError> {
        self.active.sync_all().map_err(io_err("segment fsync"))?;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Seals the active segment and starts the next one.
    fn roll(&mut self) -> Result<(), StoreError> {
        self.fsync_active()?;
        let next = self.metas.last().map(|m| m.index + 1).unwrap_or(0);
        self.create_segment(next)?;
        Ok(())
    }

    fn poison(&mut self, err: StoreError) -> StoreError {
        self.poisoned = Some(err.clone());
        err
    }
}

fn read_slot(dir: &Path, name: &str) -> Result<Option<Result<HeadState, StoreError>>, StoreError> {
    match std::fs::read(dir.join(name)) {
        Ok(bytes) => Ok(Some(HeadState::decode_slot_file(name, &bytes))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("head read")(e)),
    }
}

fn list_segments(dir: &Path) -> Result<Vec<u32>, StoreError> {
    let mut indices = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(io_err("store readdir"))? {
        let entry = entry.map_err(io_err("store readdir"))?;
        if let Some(index) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            indices.push(index);
        }
    }
    indices.sort_unstable();
    Ok(indices)
}

/// Truncates a torn segment to its intact prefix; a file whose magic was
/// damaged is reset to a bare magic header.
fn truncate_segment(path: &Path, valid_len: u64) -> Result<(), StoreError> {
    if valid_len < SEGMENT_MAGIC.len() as u64 {
        std::fs::write(path, SEGMENT_MAGIC).map_err(io_err("segment truncate"))?;
        return Ok(());
    }
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err("segment truncate"))?;
    file.set_len(valid_len)
        .map_err(io_err("segment truncate"))?;
    file.sync_all().map_err(io_err("segment truncate"))?;
    Ok(())
}

impl Store for SegmentStore {
    fn backend(&self) -> &'static str {
        "segment"
    }

    fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        if self.poisoned.is_some() {
            return Err(StoreError::Poisoned);
        }
        let mut frame = Vec::with_capacity(record.encoded_len() + 8);
        append_frame(&record.to_encoded_bytes(), &mut frame)?;
        let frame_len = frame.len() as u64;

        let active_len = self.metas.last().map(|m| m.len).unwrap_or(0);
        if active_len + frame_len > self.max_segment_bytes
            && active_len > SEGMENT_MAGIC.len() as u64
        {
            if let Err(e) = self.roll() {
                return Err(self.poison(e));
            }
        }
        if let Err(e) = self
            .active
            .write_all(&frame)
            .map_err(io_err("segment append"))
        {
            return Err(self.poison(e));
        }
        if let Some(meta) = self.metas.last_mut() {
            meta.len += frame_len;
            meta.max_height = meta.max_height.max(record.height);
            meta.records += 1;
        }
        self.max_height = self.max_height.max(record.height);
        self.records.push(record.clone());
        self.metrics.appends.inc();
        self.metrics.segment_bytes.add(frame_len);
        self.publish_gauges();
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.poisoned.is_some() {
            return Err(StoreError::Poisoned);
        }
        if let Err(e) = self.fsync_active() {
            return Err(self.poison(e));
        }
        let state = HeadState {
            seq: self.seq + 1,
            durable_height: self.max_height,
            segments: self
                .metas
                .iter()
                .map(|m| SegmentMark {
                    index: m.index,
                    durable_len: m.len,
                })
                .collect(),
            entries: self
                .entries
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        };
        let slot = self.dir.join(if state.seq % 2 == 1 {
            HEAD_SLOT_A
        } else {
            HEAD_SLOT_B
        });
        let write_head = || -> Result<(), StoreError> {
            let bytes = state.encode_slot_file()?;
            let mut file = File::create(&slot).map_err(io_err("head write"))?;
            file.write_all(&bytes).map_err(io_err("head write"))?;
            file.sync_all().map_err(io_err("head fsync"))?;
            Ok(())
        };
        if let Err(e) = write_head() {
            return Err(self.poison(e));
        }
        self.metrics.fsyncs.inc();
        self.metrics.head_writes.inc();
        self.seq = state.seq;
        self.durable_height = state.durable_height;
        Ok(())
    }

    fn put_head(&mut self, key: &str, value: Vec<u8>) -> Result<(), StoreError> {
        if self.poisoned.is_some() {
            return Err(StoreError::Poisoned);
        }
        self.entries.insert(key.to_owned(), value);
        Ok(())
    }

    fn head(&self, key: &str) -> Option<Vec<u8>> {
        self.entries.get(key).cloned()
    }

    fn head_entries(&self) -> Vec<(String, Vec<u8>)> {
        self.entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    fn records(&self) -> Vec<Record> {
        self.records.clone()
    }

    fn durable_height(&self) -> u64 {
        self.durable_height
    }

    fn max_height(&self) -> u64 {
        self.max_height
    }

    /// Drops whole sealed segments whose every record is below `height`.
    /// Head-first ordering keeps this crash-safe: the head stops tracking
    /// a segment before its file is unlinked, so recovery treats a
    /// half-pruned file as an orphan and finishes the job.
    fn prune_below(&mut self, height: u64) -> Result<(), StoreError> {
        if self.poisoned.is_some() {
            return Err(StoreError::Poisoned);
        }
        let mut drop_metas = Vec::new();
        while self.metas.len() > 1 {
            let Some(first) = self.metas.first() else {
                break;
            };
            if first.max_height >= height || first.records == 0 {
                break;
            }
            drop_metas.push(self.metas.remove(0));
        }
        if drop_metas.is_empty() {
            return Ok(());
        }
        let dropped_records: usize = drop_metas.iter().map(|m| m.records).sum();
        self.records
            .drain(..dropped_records.min(self.records.len()));
        // Persist the shrunken segment list before unlinking anything.
        self.sync()?;
        for meta in drop_metas {
            let path = self.dir.join(segment_file_name(meta.index));
            if let Err(e) = std::fs::remove_file(&path).map_err(io_err("segment remove")) {
                return Err(self.poison(e));
            }
        }
        self.publish_gauges();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::StreamId;
    use crate::testutil::temp_dir;

    fn record(height: u64, fill: u8) -> Record {
        Record::new(height, StreamId::Cert, vec![fill; 20])
    }

    fn filled_store(dir: &Path, blocks: u64) -> SegmentStore {
        let mut store = SegmentStore::open(StoreConfig::new(dir)).unwrap();
        for h in 1..=blocks {
            store.append(&record(h, h as u8)).unwrap();
            store.sync().unwrap();
        }
        store
    }

    #[test]
    fn clean_reopen_replays_everything() {
        let dir = temp_dir("clean-reopen");
        let store = filled_store(&dir, 7);
        let want = store.records();
        drop(store);
        let back = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(back.records(), want);
        assert_eq!(back.durable_height(), 7);
        assert_eq!(back.recovery().replayed, 7);
        assert_eq!(back.recovery().truncated_segments, 0);
    }

    #[test]
    fn head_entries_survive_reopen() {
        let dir = temp_dir("head-reopen");
        let mut store = filled_store(&dir, 2);
        store.put_head("sp.header", vec![9, 9]).unwrap();
        store.sync().unwrap();
        drop(store);
        let back = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(back.head("sp.header"), Some(vec![9, 9]));
    }

    #[test]
    fn unsynced_appends_replay_as_redo() {
        let dir = temp_dir("redo");
        let mut store = filled_store(&dir, 3);
        store.append(&record(4, 4)).unwrap(); // appended, never synced
        drop(store);
        let back = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(back.durable_height(), 3);
        assert_eq!(back.max_height(), 4);
        assert_eq!(back.records().len(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = temp_dir("torn");
        let store = filled_store(&dir, 5);
        let path = store.segment_paths().pop().unwrap();
        let full = std::fs::read(&path).unwrap();
        drop(store);
        // Chop mid-way through the last frame.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        // The head claims 5 durable records, so losing one must refuse...
        let err = SegmentStore::open(StoreConfig::new(&dir)).unwrap_err();
        assert!(matches!(err, StoreError::DurableDataLost { .. }));
        // ...but with a head one sync behind, it is a clean truncation.
        let dir2 = temp_dir("torn-redo");
        let mut store = SegmentStore::open(StoreConfig::new(&dir2)).unwrap();
        for h in 1..=4 {
            store.append(&record(h, h as u8)).unwrap();
        }
        store.sync().unwrap();
        store.append(&record(5, 5)).unwrap(); // redo record
        let path = store.segment_paths().pop().unwrap();
        drop(store);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let back = SegmentStore::open(StoreConfig::new(&dir2)).unwrap();
        assert_eq!(back.durable_height(), 4);
        assert_eq!(back.max_height(), 4);
        assert_eq!(back.recovery().truncated_segments, 1);
        assert!(back.recovery().truncated_bytes > 0);
    }

    #[test]
    fn rolls_segments_and_reopens_across_them() {
        let dir = temp_dir("roll");
        let mut store = SegmentStore::open(StoreConfig::new(&dir).max_segment_bytes(128)).unwrap();
        for h in 1..=12 {
            store.append(&record(h, h as u8)).unwrap();
            store.sync().unwrap();
        }
        assert!(store.segment_paths().len() > 1, "expected a roll");
        let want = store.records();
        drop(store);
        let back = SegmentStore::open(StoreConfig::new(&dir).max_segment_bytes(128)).unwrap();
        assert_eq!(back.records(), want);
    }

    #[test]
    fn prune_below_unlinks_sealed_segments() {
        let dir = temp_dir("prune");
        let mut store = SegmentStore::open(StoreConfig::new(&dir).max_segment_bytes(128)).unwrap();
        for h in 1..=12 {
            store.append(&record(h, h as u8)).unwrap();
            store.sync().unwrap();
        }
        let before = store.segment_paths().len();
        store.prune_below(9).unwrap();
        let after = store.segment_paths().len();
        assert!(after < before);
        assert!(store.records().iter().all(|r| store
            .records()
            .first()
            .map(|f| r.height >= f.height)
            .unwrap_or(true)));
        drop(store);
        let back = SegmentStore::open(StoreConfig::new(&dir).max_segment_bytes(128)).unwrap();
        assert_eq!(back.max_height(), 12);
        assert!(back.records().iter().map(|r| r.height).max().unwrap() == 12);
    }

    #[test]
    fn same_history_yields_byte_identical_files() {
        let dir1 = temp_dir("bytes-1");
        let dir2 = temp_dir("bytes-2");
        let a = filled_store(&dir1, 6);
        let b = filled_store(&dir2, 6);
        let read_all = |s: &SegmentStore| -> Vec<Vec<u8>> {
            s.segment_paths()
                .iter()
                .map(|p| std::fs::read(p).unwrap())
                .collect()
        };
        assert_eq!(read_all(&a), read_all(&b));
        // Head slots too.
        for slot in [HEAD_SLOT_A, HEAD_SLOT_B] {
            let fa = std::fs::read(dir1.join(slot)).ok();
            let fb = std::fs::read(dir2.join(slot)).ok();
            assert_eq!(fa, fb, "{slot}");
        }
    }

    #[test]
    fn corrupt_both_heads_refuses() {
        let dir = temp_dir("both-heads");
        let store = filled_store(&dir, 3);
        drop(store);
        for slot in [HEAD_SLOT_A, HEAD_SLOT_B] {
            let path = dir.join(slot);
            if path.exists() {
                let mut bytes = std::fs::read(&path).unwrap();
                if let Some(b) = bytes.last_mut() {
                    *b ^= 0xFF;
                }
                std::fs::write(&path, bytes).unwrap();
            }
        }
        let err = SegmentStore::open(StoreConfig::new(&dir)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::HeadCorrupt { .. } | StoreError::BadMagic { .. }
        ));
    }

    #[test]
    fn empty_segment_file_recovers_and_stays_appendable() {
        // A crash between segment create and the magic write leaves a
        // zero-byte file: recovery must restore the header so appends
        // after recovery survive the *next* crash.
        let dir = temp_dir("empty-seg");
        std::fs::write(dir.join(segment_file_name(0)), []).unwrap();
        let mut store = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(store.recovery().truncated_segments, 1);
        store.append(&record(1, 1)).unwrap();
        store.sync().unwrap();
        drop(store);
        let back = SegmentStore::open(StoreConfig::new(&dir)).unwrap();
        assert_eq!(back.durable_height(), 1);
        assert_eq!(back.records(), vec![record(1, 1)]);
    }

    #[test]
    fn missing_marked_segment_refuses() {
        let dir = temp_dir("missing-seg");
        let store = filled_store(&dir, 3);
        let path = store.segment_paths().pop().unwrap();
        drop(store);
        std::fs::remove_file(path).unwrap();
        let err = SegmentStore::open(StoreConfig::new(&dir)).unwrap_err();
        assert!(matches!(err, StoreError::DurableDataLost { .. }));
    }
}
