//! Baselines from the paper's evaluation.
//!
//! Two comparators are reimplemented so the benchmark harness can
//! regenerate the paper's comparison figures:
//!
//! - [`light_client::TraditionalLightClient`] — the standard header-chain
//!   light client (SPV-style): stores **every** header and validates the
//!   chain link-by-link. Its linear storage and bootstrap time are the
//!   curves DCert's constant-cost superlight client is compared against in
//!   Fig. 7.
//! - [`skiplist`] / [`lineage::LineageIndex`] — an authenticated
//!   deterministic skip list over account versions, in the style of
//!   LineageChain (Ruan et al., PVLDB'19), used as the historical-query
//!   comparator in Fig. 11. The two-level layout matches DCert's index
//!   (same sparse-Merkle-tree upper level) so the figure isolates the
//!   lower-level structure: skip-list towers vs. Merkle B-tree.

#![forbid(unsafe_code)]

pub mod light_client;
pub mod lineage;
pub mod skiplist;

pub use light_client::TraditionalLightClient;
pub use lineage::{LineageIndex, LineageProof};
pub use skiplist::{AuthSkipList, SkipRangeProof};
