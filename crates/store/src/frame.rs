//! The on-disk wire format: CRC32-framed records.
//!
//! A segment file is `SEGMENT_MAGIC` followed by zero or more frames; each
//! frame is
//!
//! ```text
//! ┌────────────┬──────────────────┬────────────────┐
//! │ len: u32 BE│ crc32(payload)   │ payload (len B)│
//! └────────────┴──────────────────┴────────────────┘
//! ```
//!
//! and every payload is the canonical encoding of a [`Record`]. The frame
//! layer is what makes recovery decidable: a torn tail fails the length,
//! CRC, or record-decode check at the first damaged frame, and everything
//! before that point is provably intact (up to CRC-32's burst guarantees —
//! semantic re-verification against the latest certificate is layered on
//! top by the store's consumers).
//!
//! Scanning never panics and never allocates proportionally to a corrupt
//! length prefix: frame lengths are capped at [`MAX_FRAME`] before any
//! buffer is touched. There is one scanner ([`scan_frames`]), and it
//! streams — one payload resident at a time — so the size of a file on
//! untrusted disk never sizes an allocation.

use std::io::Read;

use dcert_primitives::codec::{Decode, MAX_LEN};

use crate::crc32::crc32;
use crate::error::{io_err, StoreError};

/// First eight bytes of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"DCSEGv1\0";

/// First eight bytes of every head-region slot file.
pub const HEAD_MAGIC: [u8; 8] = *b"DCHEAD1\0";

/// Bytes of frame header preceding each payload (`len` + `crc`).
pub const FRAME_HEADER: usize = 8;

/// Maximum frame payload accepted, matching the canonical codec's
/// [`MAX_LEN`] so no decodable record can ever be unframeable.
pub const MAX_FRAME: u64 = MAX_LEN;

/// Which logical stream a [`Record`] belongs to. Streams share one
/// physical segment sequence; consumers filter by stream on replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamId {
    /// Certified network messages retained by the archive
    /// (`NetMessage::BlockCert` / `NetMessage::IndexCert` encodings).
    Cert,
    /// The blocks a Service Provider followed, one page per height
    /// (followed again, and replayed into its indexes, on recovery).
    Blocks,
}

dcert_primitives::wire! {
    enum StreamId {
        1 => Cert,
        2 => Blocks,
        // Tags 3 and 4 are unassigned: a Service Provider persists the
        // blocks it followed, nothing it derives from them.
    }
}

/// One appended unit of certified history: a block height, a stream tag,
/// and an opaque body (itself a canonical encoding owned by the consumer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Block height the record belongs to.
    pub height: u64,
    /// Logical stream the record belongs to.
    pub stream: StreamId,
    /// Consumer-owned canonical encoding.
    pub body: Vec<u8>,
}

impl Record {
    /// Builds a record.
    pub fn new(height: u64, stream: StreamId, body: Vec<u8>) -> Self {
        Record {
            height,
            stream,
            body,
        }
    }
}

dcert_primitives::wire! {
    struct Record { height, stream, body }
}

/// Reads four big-endian bytes as a `u32`, if exactly four are given.
fn be_u32(bytes: &[u8]) -> Option<u32> {
    let fixed: [u8; 4] = bytes.try_into().ok()?;
    Some(u32::from_be_bytes(fixed))
}

/// Appends one frame (`len ‖ crc32 ‖ payload`) to `out`.
///
/// # Errors
///
/// Returns [`StoreError::RecordTooLarge`] if the payload exceeds
/// [`MAX_FRAME`].
pub fn append_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), StoreError> {
    let len =
        u32::try_from(payload.len()).map_err(|_| StoreError::RecordTooLarge(payload.len()))?;
    if u64::from(len) > MAX_FRAME {
        return Err(StoreError::RecordTooLarge(payload.len()));
    }
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Size in bytes of the frame that [`append_frame`] produces for a payload
/// of `payload_len` bytes.
pub fn framed_len(payload_len: usize) -> u64 {
    (FRAME_HEADER + payload_len) as u64
}

/// Why a frame scan stopped before the end of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStop {
    /// Fewer than [`FRAME_HEADER`] bytes remained.
    ShortHeader,
    /// The length prefix promised more payload bytes than remained.
    ShortPayload,
    /// The length prefix exceeded [`MAX_FRAME`].
    OversizeFrame,
    /// The payload failed its CRC-32 check.
    CrcMismatch,
    /// The payload passed CRC but was not a canonical [`Record`].
    BadRecord,
}

/// Result of scanning a byte run for consecutive intact frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Records decoded from intact frames, in file order.
    pub records: Vec<Record>,
    /// Bytes of `input` covered by intact frames (the torn tail, if any,
    /// starts here).
    pub valid_len: u64,
    /// Why the scan stopped early, or `None` if it consumed everything.
    pub stop: Option<ScanStop>,
}

/// Reads exactly `buf.len()` bytes unless EOF intervenes; returns how many
/// bytes were read (a short count means EOF mid-buffer — a torn tail).
pub(crate) fn read_fully(reader: &mut impl Read, buf: &mut [u8]) -> Result<usize, StoreError> {
    let mut filled = 0usize;
    loop {
        let space = buf.get_mut(filled..).unwrap_or(&mut []);
        if space.is_empty() {
            return Ok(filled);
        }
        match reader.read(space) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err("segment read")(e)),
        }
    }
}

/// Scans `input` (the bytes *after* a segment's magic — a file behind a
/// reader, or a byte slice) for consecutive intact frames, one header and
/// one payload at a time, stopping at the first damaged one. Never panics.
///
/// # Errors
///
/// Only when `input` itself fails to read, which a byte slice never does —
/// damage is a successful scan with a `stop` reason.
pub fn scan_frames(mut input: impl Read) -> Result<ScanOutcome, StoreError> {
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let stop = loop {
        let mut header = [0u8; FRAME_HEADER];
        let got = read_fully(&mut input, &mut header)?;
        if got == 0 {
            break None;
        }
        if got < FRAME_HEADER {
            break Some(ScanStop::ShortHeader);
        }
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_be_bytes([l0, l1, l2, l3]);
        let want_crc = u32::from_be_bytes([c0, c1, c2, c3]);
        if u64::from(len) > MAX_FRAME {
            break Some(ScanStop::OversizeFrame);
        }
        let Ok(payload_len) = usize::try_from(len) else {
            break Some(ScanStop::OversizeFrame);
        };
        let mut payload = vec![0u8; payload_len];
        let got = read_fully(&mut input, &mut payload)?;
        if got < payload_len {
            break Some(ScanStop::ShortPayload);
        }
        if crc32(&payload) != want_crc {
            break Some(ScanStop::CrcMismatch);
        }
        match Record::decode_all(&payload) {
            Ok(record) => {
                records.push(record);
                valid_len += framed_len(payload_len);
            }
            Err(_) => break Some(ScanStop::BadRecord),
        }
    };
    Ok(ScanOutcome {
        records,
        valid_len,
        stop,
    })
}

/// Verifies that `input` is exactly one intact frame and returns its
/// payload. Used by the head region, which holds a single framed state
/// per slot.
///
/// # Errors
///
/// Returns [`StoreError::HeadCorrupt`] describing the first check that
/// failed.
pub fn decode_framed(input: &[u8]) -> Result<&[u8], StoreError> {
    let Some(header) = input.get(..FRAME_HEADER) else {
        return Err(StoreError::HeadCorrupt {
            detail: "short frame header",
        });
    };
    let (len_bytes, crc_bytes) = header.split_at(4);
    let (Some(len), Some(want_crc)) = (be_u32(len_bytes), be_u32(crc_bytes)) else {
        return Err(StoreError::HeadCorrupt {
            detail: "short frame header",
        });
    };
    if u64::from(len) > MAX_FRAME {
        return Err(StoreError::HeadCorrupt {
            detail: "oversize frame",
        });
    }
    let Ok(payload_len) = usize::try_from(len) else {
        return Err(StoreError::HeadCorrupt {
            detail: "oversize frame",
        });
    };
    let payload = input.get(FRAME_HEADER..).unwrap_or(&[]);
    if payload.len() != payload_len {
        return Err(StoreError::HeadCorrupt {
            detail: "frame length mismatch",
        });
    }
    if crc32(payload) != want_crc {
        return Err(StoreError::HeadCorrupt {
            detail: "frame crc mismatch",
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcert_primitives::codec::Encode;
    use dcert_primitives::CodecError;

    fn sample(height: u64) -> Record {
        Record::new(height, StreamId::Cert, vec![7; 16])
    }

    fn scan(bytes: &[u8]) -> ScanOutcome {
        scan_frames(bytes).expect("a byte slice never fails to read")
    }

    #[test]
    fn record_round_trip() {
        let r = sample(42);
        assert_eq!(Record::decode_all(&r.to_encoded_bytes()).unwrap(), r);
        assert_eq!(r.encoded_len(), r.to_encoded_bytes().len());
    }

    #[test]
    fn stream_id_rejects_unknown_tag() {
        for tag in [3, 4, 9] {
            assert!(matches!(
                StreamId::decode_all(&[tag]),
                Err(CodecError::InvalidTag(t)) if t == tag
            ));
        }
    }

    #[test]
    fn scan_recovers_all_intact_frames() {
        let mut bytes = Vec::new();
        for h in 1..=5 {
            append_frame(&sample(h).to_encoded_bytes(), &mut bytes).unwrap();
        }
        let outcome = scan(&bytes);
        assert_eq!(outcome.records.len(), 5);
        assert_eq!(outcome.valid_len, bytes.len() as u64);
        assert_eq!(outcome.stop, None);
    }

    #[test]
    fn scan_stops_at_every_truncation() {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0u64];
        for h in 1..=4 {
            append_frame(&sample(h).to_encoded_bytes(), &mut bytes).unwrap();
            boundaries.push(bytes.len() as u64);
        }
        for cut in 0..bytes.len() {
            let outcome = scan(&bytes[..cut]);
            // valid_len is the largest frame boundary ≤ cut.
            let want = boundaries
                .iter()
                .copied()
                .filter(|&b| b <= cut as u64)
                .max()
                .unwrap();
            assert_eq!(outcome.valid_len, want, "cut at {cut}");
            assert_eq!(outcome.records.len() as u64, {
                boundaries.iter().filter(|&&b| b <= cut as u64).count() as u64 - 1
            });
            // A cut exactly on a frame boundary looks like a clean (shorter)
            // file; any other cut must be reported as damage.
            if boundaries.contains(&(cut as u64)) {
                assert!(outcome.stop.is_none(), "cut at {cut} is a clean boundary");
            } else {
                assert!(outcome.stop.is_some(), "cut at {cut} must report a stop");
            }
        }
    }

    #[test]
    fn scan_detects_every_single_bit_flip() {
        let mut bytes = Vec::new();
        append_frame(&sample(1).to_encoded_bytes(), &mut bytes).unwrap();
        let clean = scan(&bytes);
        assert_eq!(clean.records.len(), 1);
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let outcome = scan(&flipped);
                // A flip in the length prefix can only shorten/lengthen the
                // frame (caught as Short*/Oversize/Crc); a flip in crc or
                // payload is a CRC mismatch; any flip must stop the scan.
                assert!(
                    outcome.records.is_empty() && outcome.stop.is_some(),
                    "flip at {pos}:{bit} slipped through: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn oversize_length_prefix_does_not_allocate() {
        let mut bytes = vec![0xFF, 0xFF, 0xFF, 0xFF];
        bytes.extend_from_slice(&[0; 12]);
        let outcome = scan(&bytes);
        assert_eq!(outcome.stop, Some(ScanStop::OversizeFrame));
        assert_eq!(outcome.valid_len, 0);
    }

    #[test]
    fn decode_framed_round_trip_and_refusals() {
        let mut framed = Vec::new();
        append_frame(b"head state", &mut framed).unwrap();
        assert_eq!(decode_framed(&framed).unwrap(), b"head state");
        // Truncations and trailing junk are both refused.
        for cut in 0..framed.len() {
            assert!(decode_framed(&framed[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = framed.clone();
        extended.push(0);
        assert!(decode_framed(&extended).is_err());
    }
}
