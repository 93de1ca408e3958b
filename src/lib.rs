//! # DCert — secure, efficient, and versatile blockchain light clients
//!
//! A full reproduction of *"DCert: Towards Secure, Efficient, and Versatile
//! Blockchain Light Clients"* (Ji, Xu, Zhang, Xu — ACM/IFIP Middleware
//! 2022), including every substrate the system depends on: the blockchain
//! prototype, the contract VM, the authenticated data structures, the SGX
//! enclave simulation, the query layer, the Blockbench workloads, and the
//! paper's evaluation baselines.
//!
//! This facade crate re-exports the workspace's public API under one roof:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`primitives`] | `dcert-primitives` | hashes, addresses, codec, keys |
//! | [`merkle`] | `dcert-merkle` | transaction-root fold, sparse Merkle tree, Merkle B-tree |
//! | [`vm`] | `dcert-vm` | deterministic contract VM with read/write-set tracking |
//! | [`chain`] | `dcert-chain` | blocks, consensus, state, full node |
//! | [`sgx`] | `dcert-sgx` | enclave simulator, attestation, cost model |
//! | [`core`] | `dcert-core` | **the paper's contribution**: certificates, CI, superlight client |
//! | [`obs`] | `dcert-obs` | deterministic metrics: counters, gauges, histograms, snapshots |
//! | [`query`] | `dcert-query` | certified indexes + verifiable queries |
//! | [`store`] | `dcert-store` | crash-safe segment/head persistence for certified history |
//! | [`baselines`] | `dcert-baselines` | traditional light client, LineageChain-style index |
//! | [`workloads`] | `dcert-workloads` | Blockbench DN/CPU/IO/KV/SB |
//!
//! Start with the [`core`] crate documentation — its example walks the full
//! pipeline — or run `cargo run --example quickstart`.

#![forbid(unsafe_code)]

pub use dcert_baselines as baselines;
pub use dcert_chain as chain;
pub use dcert_core as core;
pub use dcert_merkle as merkle;
pub use dcert_obs as obs;
pub use dcert_primitives as primitives;
pub use dcert_query as query;
pub use dcert_serve as serve;
pub use dcert_sgx as sgx;
pub use dcert_store as store;
pub use dcert_vm as vm;
pub use dcert_workloads as workloads;
