//! Verifiable queries for superlight clients (Section 5 of the paper).
//!
//! The Service Provider (SP) maintains *authenticated indexes* over
//! blockchain data off-chain; the Certificate Issuer's enclave certifies
//! every per-block index update (augmented or hierarchical certificates),
//! and superlight clients verify query results against the certified index
//! digests. Nothing on the chain changes — this is DCert's answer to the
//! built-in approaches (LineageChain, vChain) it compares against.
//!
//! Three index families are provided, matching the paper's case study
//! (Fig. 5):
//!
//! - [`history`]: a **two-level historical index** — a sparse Merkle tree
//!   over state keys whose values are the roots of per-key Merkle B-trees
//!   of timestamped versions. Supports authenticated time-window queries
//!   ("all versions of account X in [t1, t2]").
//! - [`inverted`]: an **inverted keyword index** — a sparse Merkle tree
//!   over keywords whose values are hash-chain commitments of posting
//!   lists. Supports conjunctive keyword queries ("all transactions
//!   containing Stock AND Bank").
//! - [`aggregate`]: an **aggregate index** — the two-level layout with an
//!   annotation-carrying Merkle B-tree below, answering verifiable window
//!   aggregations (COUNT/SUM/MIN/MAX) with O(log n) proofs.
//!
//! [`history`] and [`aggregate`] are the two instantiations of one
//! generic [`two_level`] index, differing only in the flavor of their
//! lower Merkle B+-trees and in which writes they ingest.
//!
//! Each index ships three pieces: the SP-side maintained structure, an
//! [`IndexVerifier`](dcert_core::IndexVerifier) loaded into the enclave,
//! and a client-side result verifier. [`sp::ServiceProvider`] packages the
//! per-block maintenance and certificate bookkeeping.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)
)]

pub mod aggregate;
pub mod error;
pub mod history;
pub mod inverted;
pub mod sp;
pub mod two_level;

pub use aggregate::{AggQueryProof, AggregateIndex, AggregateVerifier};
pub use error::QueryError;
pub use history::{HistoryIndex, HistoryProof, HistoryVerifier};
pub use inverted::{extract_keywords, InvertedIndex, InvertedVerifier, KeywordProof};
pub use inverted::{verify_keywords, verify_keywords_any};
pub use sp::{
    CertifiedEntry, KeywordPage, MaintainedIndex, ServiceProvider, WritesPage, SP_CERT_PREFIX,
    SP_HEIGHT_KEY,
};
