//! `dcert-store` — crash-safe persistent storage for certified history.
//!
//! Everything DCert serves to superlight clients is *certified*: blocks
//! and index digests carry enclave-signed certificates
//! (`⟨pk_enc, rep, dig, sig⟩`), so a Service Provider's disk is untrusted
//! in exactly the way the paper's SP is untrusted — clients verify what
//! they receive. What the storage engine must guarantee is therefore not
//! secrecy but **integrity under crashes**: after a kill at any byte
//! offset, the SP either comes back serving a state byte-identical to
//! what it had durably acknowledged, or refuses with a typed error. It
//! must never panic, and never serve bytes it cannot account for.
//!
//! The layering mirrors the hot/cold split production chains converged
//! on (e.g. reth's mutable hot database in front of immutable
//! static-file segments):
//!
//! - **Segment files** ([`segment`], [`seg_store`]) hold the immutable
//!   history: certificates, per-block writes, keyword postings — CRC32-
//!   framed records ([`frame`]) appended in block order, rolled at a size
//!   threshold, never rewritten.
//! - **The head region** ([`head`]) is the only mutable state: two
//!   alternating slot files carrying the durable watermark and small
//!   consumer checkpoints (latest certified digests, headers). A torn
//!   head write can only hit the slot being replaced.
//! - **Recovery** truncates a torn segment tail at the first damaged
//!   frame, replays intact records, refuses if the damage reaches below
//!   the durable watermark — and then the *consumer* re-verifies the
//!   replayed state against the latest certificate before serving
//!   (`CertArchive::recover`, `ServiceProvider::recover_from`,
//!   `SuperlightClient::resume`).
//!
//! Two backends implement the [`Store`] trait: [`MemStore`] (the pre-
//! persistence behavior, kept as the oracle for fast tests) and
//! [`SegmentStore`]. The determinism contract — pinned by
//! `tests/store_equivalence.rs` — is that the same certified history
//! produces byte-identical segment files, and every read a
//! `SegmentStore` answers is byte-identical to a `MemStore` fed the same
//! appends.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod crc32;
pub mod error;
pub mod frame;
pub mod head;
pub mod mem;
pub mod seg_store;
pub mod segment;

pub use crc32::crc32;
pub use error::StoreError;
pub use frame::{Record, StreamId};
pub use head::{HeadState, SegmentMark};
pub use mem::MemStore;
pub use seg_store::{RecoveryReport, SegmentStore, StoreConfig, DEFAULT_MAX_SEGMENT_BYTES};

use crate::error::StoreError as Error;

/// A backend holding certified history: an append-only record log plus a
/// small mutable head region of consumer checkpoints.
///
/// The contract all backends share:
///
/// - [`append`](Store::append)ed records are **volatile** until the next
///   [`sync`](Store::sync); after it they are durable, along with every
///   head entry [`put_head`](Store::put_head) staged before it.
/// - [`records`](Store::records) returns every record the backend holds,
///   in append order — for [`SegmentStore`] that includes *redo* records
///   appended after the last sync (they survive if the OS flushed them;
///   consumers decide whether to trust them, and certified streams can,
///   because certificates prove themselves).
/// - [`durable_height`](Store::durable_height) is the highest block
///   height covered by the last sync; consumers replaying uncertified
///   streams must stop there.
pub trait Store: Send {
    /// Stable name of the backend (`"mem"` / `"segment"`), used in logs
    /// and metrics.
    fn backend(&self) -> &'static str;

    /// Appends one record to the log (volatile until [`sync`](Store::sync)).
    ///
    /// # Errors
    ///
    /// Backend-specific write failures; a failed append poisons a
    /// [`SegmentStore`].
    fn append(&mut self, record: &Record) -> Result<(), Error>;

    /// Makes every prior append and head entry durable.
    ///
    /// # Errors
    ///
    /// Backend-specific sync failures.
    fn sync(&mut self) -> Result<(), Error>;

    /// Stages a head entry (durable at the next [`sync`](Store::sync)).
    ///
    /// # Errors
    ///
    /// Backend-specific failures (e.g. a poisoned store).
    fn put_head(&mut self, key: &str, value: Vec<u8>) -> Result<(), Error>;

    /// Reads a head entry.
    fn head(&self, key: &str) -> Option<Vec<u8>>;

    /// All head entries, ascending by key.
    fn head_entries(&self) -> Vec<(String, Vec<u8>)>;

    /// Every record held, in append order.
    fn records(&self) -> Vec<Record>;

    /// Highest block height covered by the last sync.
    fn durable_height(&self) -> u64;

    /// Highest block height ever appended (≥ [`durable_height`](Store::durable_height)).
    fn max_height(&self) -> u64;

    /// Forgets records below `height`. [`MemStore`] prunes exactly;
    /// [`SegmentStore`] prunes at segment granularity and may retain
    /// more — consumers record their own prune mark in the head region.
    ///
    /// # Errors
    ///
    /// Backend-specific failures.
    fn prune_below(&mut self, height: u64) -> Result<(), Error>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Creates a unique, empty temp directory for a unit test. Uniqueness
    /// comes from the process id plus a counter — no ambient randomness,
    /// keeping the determinism lint's world view intact.
    pub fn temp_dir(label: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dcert-store-{}-{}-{label}", std::process::id(), n));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).expect("stale temp dir removable");
        }
        std::fs::create_dir_all(&dir).expect("temp dir creatable");
        dir
    }
}
