//! The mutable head region: a tiny summary of what is durable, kept in
//! two slots that are rewritten in place, alternately.
//!
//! Segment files are append-only and immutable once rolled; everything
//! mutable lives here. The head is two slot files (`head-a.dch`,
//! `head-b.dch`), each holding [`HEAD_MAGIC`] followed by one CRC-framed
//! [`HeadState`]. Writes alternate slots with a strictly increasing
//! sequence number, and each write overwrites the *older* slot in place
//! (offset 0, shrunk only when the new encoding is shorter, then one data
//! flush — `SlotFile::rewrite`). So a torn head write can only damage
//! the slot being replaced, leaving some prefix of the new encoding over
//! the rest of the old one, which its CRC refuses; the previous state
//! survives in the other slot. Recovery takes the valid slot with the
//! highest sequence number; if both slots exist but neither decodes, the
//! durable watermark is unknowable and the store refuses to open
//! ([`StoreError::HeadCorrupt`]).
//!
//! The head state carries three things:
//!
//! 1. the **durable watermark** — per-segment byte lengths covered by the
//!    last fsync, and the highest block height those bytes certify,
//! 2. the **key-value entries** — small consumer checkpoints (latest
//!    certified digests, headers, prune marks) that must travel with the
//!    watermark they were synced under,
//! 3. the **sequence number** — total order over head writes.
//!
//! A `HeadCommitted` is the durability order as a type: a segment file
//! may be deleted or shrunk only with one in hand (`seg_store`'s helpers
//! take `&HeadCommitted`), and it is minted only here: by a head commit,
//! and by [`SegmentStore::open`] for the head it finds. The opener lives
//! in this module so that reading the head region stays private to it —
//! no other store function can mint a witness by re-reading the slots.

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;

use dcert_primitives::codec::{Decode, Encode};

use crate::error::{io_err, StoreError};
use crate::frame::{append_frame, decode_framed, HEAD_MAGIC};
use crate::seg_store::{SegmentStore, StoreConfig};

/// File name of the first head slot.
pub const HEAD_SLOT_A: &str = "head-a.dch";

/// File name of the second head slot.
pub const HEAD_SLOT_B: &str = "head-b.dch";

/// Durable byte length of one segment file at the time of a head write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMark {
    /// Segment file index (`seg-<index>.dcs`).
    pub index: u32,
    /// Bytes of that file (including magic) covered by the last fsync.
    pub durable_len: u64,
}

dcert_primitives::wire! {
    struct SegmentMark { index, durable_len }
}

/// The mutable state persisted in a head slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeadState {
    /// Strictly increasing head-write sequence number (0 = never synced).
    pub seq: u64,
    /// Highest block height fully covered by durable segment bytes.
    pub durable_height: u64,
    /// Durable byte length per live segment, ascending by index.
    pub segments: Vec<SegmentMark>,
    /// Consumer checkpoint entries, ascending by key.
    pub entries: Vec<(String, Vec<u8>)>,
}

dcert_primitives::wire! {
    struct HeadState { seq, durable_height, segments: seq, entries: seq }
}

impl HeadState {
    /// Returns the durable byte length recorded for segment `index`, or
    /// `None` if the head does not cover it.
    pub fn durable_len(&self, index: u32) -> Option<u64> {
        self.segments
            .iter()
            .find(|m| m.index == index)
            .map(|m| m.durable_len)
    }

    /// Serializes this state as a full head-slot file (magic + frame).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RecordTooLarge`] if the entries outgrow the
    /// maximum frame size.
    pub fn encode_slot_file(&self) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::with_capacity(64 + self.entries.len() * 32);
        out.extend_from_slice(&HEAD_MAGIC);
        append_frame(&self.to_encoded_bytes(), &mut out)?;
        Ok(out)
    }

    /// Parses a head-slot file (magic + one frame). Never panics.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::BadMagic`] or [`StoreError::HeadCorrupt`] on
    /// any damage.
    pub fn decode_slot_file(file: &str, bytes: &[u8]) -> Result<HeadState, StoreError> {
        let Some(magic) = bytes.get(..HEAD_MAGIC.len()) else {
            return Err(StoreError::BadMagic { file: file.into() });
        };
        if magic != HEAD_MAGIC {
            return Err(StoreError::BadMagic { file: file.into() });
        }
        let framed = bytes.get(HEAD_MAGIC.len()..).unwrap_or(&[]);
        let payload = decode_framed(framed)?;
        HeadState::decode_all(payload).map_err(|_| StoreError::HeadCorrupt {
            detail: "head state decode failed",
        })
    }

    /// Slot file this state is written to. Alternating on the sequence
    /// number guarantees a head write never overwrites the slot holding
    /// the state before it.
    pub fn slot(&self) -> &'static str {
        if self.seq % 2 == 1 {
            HEAD_SLOT_A
        } else {
            HEAD_SLOT_B
        }
    }
}

/// Witness that a head is durable: minted by [`SlotFile::rewrite`] after
/// its data flush, and by [`SegmentStore::open`] for the head it found
/// (which disowned every segment recovery deletes). Not `Clone`, and
/// dropped at the end of the call that minted it: a store holds none
/// between calls.
///
/// This is as strong as the lexical rule it replaces, not stronger: it
/// proves that *some* head commit precedes the delete on its path, not
/// that this head is the one that stopped tracking the segment.
#[must_use]
pub(crate) struct HeadCommitted(());

/// One head slot file, held open by the store once it exists.
#[derive(Debug)]
pub(crate) struct SlotFile {
    file: File,
    /// Bytes the file holds now.
    len: u64,
}

impl SlotFile {
    /// Wraps an open, writable slot file currently `len` bytes long.
    pub(crate) fn new(file: File, len: u64) -> Self {
        SlotFile { file, len }
    }

    /// Replaces the slot's contents with `bytes` in place: one write at
    /// offset 0, a shrink only when `bytes` is shorter than what the file
    /// held (the head lost segment marks to a prune), then one data flush.
    /// The length is metadata `sync_data` persists, and nothing is
    /// truncated, freed or reallocated on the common path.
    ///
    /// Only ever called on the older slot: a crash part-way leaves
    /// `bytes[..c] ++ old[c..]`, which fails its CRC (or, after a complete
    /// write, its length check), so recovery falls back to the other slot.
    #[allow(clippy::disallowed_methods, reason = "the commit shrinks its slot")]
    pub(crate) fn rewrite(&mut self, bytes: &[u8]) -> std::io::Result<HeadCommitted> {
        self.file.write_all_at(bytes, 0)?;
        let len = bytes.len() as u64;
        if len < self.len {
            self.file.set_len(len)?;
        }
        self.len = len;
        self.file.sync_data()?;
        Ok(HeadCommitted(()))
    }
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
        let (heads, head) = read_head(&config.dir)?;
        // The head just read is the durable one: it disowned every segment
        // recovery deletes or shrinks.
        SegmentStore::recovered(config, heads, head, &HeadCommitted(()))
    }
}

/// Reads both head slots in `dir` — held open for later in-place
/// rewrites, each `None` until first written — and picks the
/// authoritative head ([`choose_head`]).
///
/// # Errors
///
/// [`StoreError::HeadCorrupt`] if a slot exists but none decodes;
/// [`StoreError::Io`] on an operating-system failure.
fn read_head(dir: &Path) -> Result<([Option<SlotFile>; 2], Option<HeadState>), StoreError> {
    let (file_a, slot_a) = open_slot(dir, HEAD_SLOT_A)?;
    let (file_b, slot_b) = open_slot(dir, HEAD_SLOT_B)?;
    let head = choose_head(slot_a, slot_b)?;
    Ok(([file_a, file_b], head))
}

/// A head slot as recovery finds it: the file and its decoded state. Both
/// are `None` when the slot does not exist yet.
type FoundSlot = (Option<SlotFile>, Option<Result<HeadState, StoreError>>);

fn open_slot(dir: &Path, name: &str) -> Result<FoundSlot, StoreError> {
    let mut file = match OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join(name))
    {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((None, None)),
        Err(e) => return Err(io_err("head read")(e)),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(io_err("head read"))?;
    let state = HeadState::decode_slot_file(name, &bytes);
    Ok((Some(SlotFile::new(file, bytes.len() as u64)), Some(state)))
}

/// Picks the authoritative head among the two decoded slot attempts.
///
/// Missing slots are `None`; corrupt slots are `Some(Err(..))`. The rule:
/// the valid slot with the highest sequence wins; a single corrupt slot
/// falls back to the other valid slot (a torn head write); but if at least
/// one slot exists and *no* slot is valid, the watermark is unknowable.
///
/// # Errors
///
/// Returns [`StoreError::HeadCorrupt`] in the unknowable case.
pub fn choose_head(
    slot_a: Option<Result<HeadState, StoreError>>,
    slot_b: Option<Result<HeadState, StoreError>>,
) -> Result<Option<HeadState>, StoreError> {
    let any_present = slot_a.is_some() || slot_b.is_some();
    let best = [slot_a, slot_b]
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .max_by_key(|h| h.seq);
    match best {
        Some(head) => Ok(Some(head)),
        None if any_present => Err(StoreError::HeadCorrupt {
            detail: "no head slot decodes",
        }),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> HeadState {
        HeadState {
            seq,
            durable_height: seq * 3,
            segments: vec![SegmentMark {
                index: 0,
                durable_len: 8 + seq * 40,
            }],
            entries: vec![("sp.header".into(), vec![1, 2, 3])],
        }
    }

    #[test]
    fn slot_file_round_trip() {
        let head = sample(5);
        let bytes = head.encode_slot_file().unwrap();
        assert_eq!(
            HeadState::decode_slot_file("head-a.dch", &bytes).unwrap(),
            head
        );
    }

    #[test]
    fn every_truncation_of_slot_file_is_refused() {
        let bytes = sample(9).encode_slot_file().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                HeadState::decode_slot_file("head-a.dch", &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_bit_flip_of_slot_file_is_refused() {
        let bytes = sample(2).encode_slot_file().unwrap();
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x40;
            assert!(
                HeadState::decode_slot_file("head-a.dch", &flipped).is_err(),
                "flip {pos}"
            );
        }
    }

    #[test]
    fn slots_alternate() {
        assert_eq!(sample(1).slot(), HEAD_SLOT_A);
        assert_eq!(sample(2).slot(), HEAD_SLOT_B);
        assert_eq!(sample(3).slot(), HEAD_SLOT_A);
    }

    #[test]
    fn choose_head_prefers_highest_valid_seq() {
        let a = sample(4);
        let b = sample(7);
        let chosen = choose_head(Some(Ok(a)), Some(Ok(b.clone())))
            .unwrap()
            .unwrap();
        assert_eq!(chosen, b);
    }

    #[test]
    fn choose_head_falls_back_past_one_corrupt_slot() {
        let good = sample(4);
        let torn = Err(StoreError::HeadCorrupt {
            detail: "frame crc mismatch",
        });
        let chosen = choose_head(Some(torn), Some(Ok(good.clone())))
            .unwrap()
            .unwrap();
        assert_eq!(chosen, good);
    }

    #[test]
    fn choose_head_refuses_when_all_present_slots_corrupt() {
        let torn = || {
            Some(Err(StoreError::HeadCorrupt {
                detail: "frame crc mismatch",
            }))
        };
        assert!(matches!(
            choose_head(torn(), torn()),
            Err(StoreError::HeadCorrupt { .. })
        ));
        assert!(matches!(
            choose_head(torn(), None),
            Err(StoreError::HeadCorrupt { .. })
        ));
    }

    #[test]
    fn choose_head_fresh_store() {
        assert_eq!(choose_head(None, None).unwrap(), None);
    }
}
