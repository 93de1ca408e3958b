//! Crash-safe persistence adapters for the certification workflow.
//!
//! This module is the seam between `dcert-core`'s in-memory actors and
//! `dcert-store`'s durable backends:
//!
//! - [`CertArchive`](crate::network::CertArchive) persists every retained
//!   certificate message through a [`Store`](dcert_store::Store) (see
//!   [`CertArchive::with_store`](crate::network::CertArchive::with_store)),
//!   so a restarted CI can keep answering resync requests for history it
//!   certified before the crash.
//! - [`SuperlightClient`](crate::superlight::SuperlightClient) checkpoints
//!   its constant-size state (latest header + certificate, tracked index
//!   certificates) into the store's head region and **re-validates all of
//!   it** on resume — recovered bytes are never trusted, only certificates
//!   that still verify under the client's trust anchors are served.
//!
//! The trust model matches the rest of the system: disk contents are
//! untrusted input. Torn or corrupted storage surfaces as a typed
//! [`RecoverError`], never a panic, and never silently-served state.

use dcert_primitives::error::CodecError;
use dcert_store::StoreError;

use crate::error::CertError;

/// Head-region key under which a [`CertArchive`](crate::network::CertArchive)
/// records its prune watermark.
pub const ARCHIVE_PRUNED_KEY: &str = "archive.pruned_below";

/// Head-region key for the superlight client's latest `(header, cert)`.
pub const SUPERLIGHT_LATEST_KEY: &str = "superlight.latest";

/// Head-region key prefix for tracked index certificates; the index name
/// follows the prefix.
pub const SUPERLIGHT_INDEX_PREFIX: &str = "superlight.index.";

/// Head-region key for the highest announced height (gap-detection state).
pub const SUPERLIGHT_SEEN_KEY: &str = "superlight.highest_seen";

/// Why recovering persisted certification state failed.
///
/// Recovery refuses rather than degrades: a caller holding this error has
/// a store whose surviving bytes could not be proven equivalent to
/// certified history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The storage layer itself failed (I/O, torn durable data, poisoned
    /// writer).
    Store(StoreError),
    /// A recovered record or head entry did not decode as the expected
    /// message type.
    Codec(CodecError),
    /// A recovered certificate no longer verifies under the trust anchors
    /// — the store served bytes that are not certified history.
    Cert(CertError),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Store(e) => write!(f, "store failure during recovery: {e}"),
            RecoverError::Codec(e) => write!(f, "recovered record failed to decode: {e}"),
            RecoverError::Cert(e) => write!(f, "recovered certificate failed re-verification: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<StoreError> for RecoverError {
    fn from(e: StoreError) -> Self {
        RecoverError::Store(e)
    }
}

impl From<CodecError> for RecoverError {
    fn from(e: CodecError) -> Self {
        RecoverError::Codec(e)
    }
}

impl From<CertError> for RecoverError {
    fn from(e: CertError) -> Self {
        RecoverError::Cert(e)
    }
}
