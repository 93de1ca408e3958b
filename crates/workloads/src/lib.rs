//! Blockbench workload reimplementations.
//!
//! The paper evaluates DCert with Blockbench (Dinh et al., SIGMOD'17):
//! three micro-benchmarks — **DoNothing** (DN), **CPUHeavy** (CPU),
//! **IOHeavy** (IO) — and two macro-benchmarks — **KVStore** (KV) and
//! **SmallBank** (SB). Blockbench itself targets EVM/Hyperledger
//! deployments, so this crate reimplements the five contracts natively for
//! the `dcert-vm` with the same state-access and compute patterns, plus
//! deterministic request generators that drive them
//! ([`generator::WorkloadGen`]).
//!
//! | Contract | Pattern |
//! |---|---|
//! | [`DoNothing`] | no reads, no writes — pure protocol overhead |
//! | [`CpuHeavy`] | sorts a pseudo-random array in-contract — compute-bound |
//! | [`IoHeavy`] | batch writes/reads of keyed records — state-bound |
//! | [`KvStore`] | single-key get/put/delete, YCSB-style |
//! | [`SmallBank`] | the classic 6-op banking mix over (savings, checking) pairs |
//!
//! [`DoNothing`]: donothing::DoNothing
//! [`CpuHeavy`]: cpuheavy::CpuHeavy
//! [`IoHeavy`]: ioheavy::IoHeavy
//! [`KvStore`]: kvstore::KvStore
//! [`SmallBank`]: smallbank::SmallBank

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::cast_possible_truncation,
        clippy::cast_possible_wrap,
        clippy::cast_sign_loss
    )
)]

pub mod cpuheavy;
pub mod donothing;
pub mod generator;
pub mod ioheavy;
pub mod kvstore;
pub mod serveload;
pub mod smallbank;

pub use generator::{Workload, WorkloadGen};
pub use serveload::{ServeEvent, ServeLoadConfig, ServeLoadGen, ServeQueryKind};

use std::sync::Arc;

use dcert_vm::ContractRegistry;

/// A registry with all five Blockbench contracts installed — the shared
/// chain semantics used by miners, full nodes, the CI, and the enclave.
pub fn blockbench_registry() -> ContractRegistry {
    let mut registry = ContractRegistry::new();
    registry.register(Arc::new(donothing::DoNothing));
    registry.register(Arc::new(cpuheavy::CpuHeavy));
    registry.register(Arc::new(ioheavy::IoHeavy));
    registry.register(Arc::new(kvstore::KvStore));
    registry.register(Arc::new(smallbank::SmallBank));
    registry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_five() {
        let registry = blockbench_registry();
        for name in ["donothing", "cpuheavy", "ioheavy", "kvstore", "smallbank"] {
            assert!(registry.get(name).is_some(), "{name} missing");
        }
        assert_eq!(registry.len(), 5);
    }
}
