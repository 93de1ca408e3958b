//! Segment files: reading and naming.
//!
//! A segment file is immutable certified history: `SEGMENT_MAGIC` then
//! frames (see [`crate::frame`]). This module owns the *read* side — the
//! write side lives in [`crate::seg_store`], which is the only code that
//! ever appends.
//!
//! A file is streamed through a fixed-size `BufReader` into the one frame
//! scanner ([`scan_frames`]): length cap, CRC, canonical record decode,
//! stopping at the first damaged frame and reporting how many bytes were
//! intact so recovery can truncate the torn tail.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use crate::error::{io_err, StoreError};
use crate::frame::{read_fully, scan_frames, Record, ScanStop, SEGMENT_MAGIC};

/// File name for segment `index` (fixed width keeps lexicographic and
/// numeric order identical).
pub fn segment_file_name(index: u32) -> String {
    format!("seg-{index:08}.dcs")
}

/// Parses a segment file name back to its index.
pub fn parse_segment_file_name(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".dcs")?;
    if digits.len() != 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Everything recovery learns from scanning one segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentScan {
    /// Records decoded from intact frames, in file order.
    pub records: Vec<Record>,
    /// Bytes of the file (including magic) covered by the magic plus
    /// intact frames; `0` means even the magic was damaged.
    pub valid_len: u64,
    /// Total bytes the file held on disk.
    pub file_len: u64,
    /// Why the scan stopped early (`None` if the whole file was intact;
    /// a bad or short magic reports [`ScanStop::ShortHeader`]).
    pub stop: Option<ScanStop>,
    /// Highest record height seen among intact frames.
    pub max_height: u64,
}

impl SegmentScan {
    /// True if the file carries a torn or corrupt tail.
    pub fn torn(&self) -> bool {
        self.valid_len < self.file_len
    }
}

/// Scans one segment file. Never panics; all damage is reported through
/// `SegmentScan`, all I/O failure through [`StoreError::Io`].
///
/// # Errors
///
/// Only on operating-system I/O failure — a damaged file is a successful
/// scan with a `stop` reason.
pub fn read_segment(path: &Path) -> Result<SegmentScan, StoreError> {
    let file = File::open(path).map_err(io_err("segment open"))?;
    let file_len = file.metadata().map_err(io_err("segment metadata"))?.len();
    let mut reader = BufReader::with_capacity(64 * 1024, file);

    let mut magic = [0u8; SEGMENT_MAGIC.len()];
    let got = read_fully(&mut reader, &mut magic)?;
    if got != SEGMENT_MAGIC.len() || magic != SEGMENT_MAGIC {
        return Ok(SegmentScan {
            records: Vec::new(),
            valid_len: 0,
            file_len,
            stop: Some(ScanStop::ShortHeader),
            max_height: 0,
        });
    }
    let frames = scan_frames(reader)?;
    Ok(SegmentScan {
        max_height: frames.records.iter().map(|r| r.height).max().unwrap_or(0),
        records: frames.records,
        valid_len: SEGMENT_MAGIC.len() as u64 + frames.valid_len,
        file_len,
        stop: frames.stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{append_frame, StreamId};
    use dcert_primitives::Encode;

    #[allow(clippy::disallowed_methods, reason = "a test's segment file")]
    fn temp_file(label: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = crate::testutil::temp_dir(label).join(segment_file_name(0));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    fn sample_segment(n: u64) -> Vec<u8> {
        let mut bytes = SEGMENT_MAGIC.to_vec();
        for h in 1..=n {
            let record = Record::new(h, StreamId::Blocks, vec![h as u8; 24]);
            append_frame(&record.to_encoded_bytes(), &mut bytes).unwrap();
        }
        bytes
    }

    #[test]
    fn file_name_round_trip() {
        assert_eq!(segment_file_name(7), "seg-00000007.dcs");
        assert_eq!(parse_segment_file_name("seg-00000007.dcs"), Some(7));
        assert_eq!(parse_segment_file_name("seg-7.dcs"), None);
        assert_eq!(parse_segment_file_name("head-a.dch"), None);
    }

    #[test]
    fn intact_file_reads_back_whole() {
        let bytes = sample_segment(9);
        let path = temp_file("intact", &bytes);
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.records.len(), 9);
        assert!(!scan.torn());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.max_height, 9);
    }

    #[test]
    fn every_truncation_recovers_an_intact_prefix() {
        let bytes = sample_segment(4);
        for cut in 0..bytes.len() {
            let path = temp_file("cut", &bytes[..cut]);
            let scan = read_segment(&path).unwrap();
            assert!(scan.valid_len <= cut as u64, "cut {cut}");
            assert_eq!(scan.file_len, cut as u64, "cut {cut}");
            // Heights are 1..=n in file order: the prefix has no gap.
            assert_eq!(scan.records.len() as u64, scan.max_height, "cut {cut}");
        }
    }

    #[test]
    fn bad_magic_reports_zero_valid_bytes() {
        let mut bytes = sample_segment(2);
        bytes[0] ^= 0xFF;
        let path = temp_file("bad-magic", &bytes);
        let scan = read_segment(&path).unwrap();
        assert_eq!(scan.valid_len, 0);
        assert!(scan.torn());
        assert!(scan.records.is_empty());
    }
}
