//! Deterministic native contract VM with read/write-set tracking.
//!
//! DCert's certificate construction (Algorithm 1 of the paper) hinges on
//! being able to run a block's transactions twice with identical effects:
//! once by the Certificate Issuer's untrusted half — to *discover* the read
//! set `{r}_i` and write set `{w}_i` — and once inside the enclave — to
//! *validate* the state transition given only the authenticated read set.
//! The paper's prototype uses the Rust EVM for this; since EVM bytecode
//! semantics are irrelevant to everything the paper measures, this crate
//! substitutes a deterministic native VM with exactly the interface the
//! algorithms need:
//!
//! - [`Contract`]: deterministic transaction logic over a key-value state,
//! - [`ExecCtx`]: the execution context that records every first-read and
//!   buffered write and accounts compute cost,
//! - [`Executor`]: runs a sequence of [`Call`]s as one block, producing a
//!   [`BlockExecution`] — pre-state read set, final write set, per-call
//!   status — from *any* [`StateReader`] (the full state on the CI side, or
//!   the authenticated read set inside the enclave).
//!
//! # Example
//!
//! ```
//! use dcert_vm::{Call, ContractRegistry, Executor, InMemoryState, StateKey};
//! use dcert_primitives::hash::Address;
//! use std::sync::Arc;
//!
//! let mut registry = ContractRegistry::new();
//! registry.register(Arc::new(dcert_vm::testing::CounterContract));
//! let executor = Executor::new(Arc::new(registry));
//!
//! let state = InMemoryState::new();
//! let calls = vec![Call::new(Address::from_seed(1), "counter", b"bump".to_vec())];
//! let exec = executor.execute_block(&state, &calls);
//! assert_eq!(exec.writes.len(), 1);
//! ```

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

pub mod contract;
pub mod error;
pub mod exec;
pub mod state;
pub mod testing;

pub use contract::{Contract, ContractRegistry};
pub use error::VmError;
pub use exec::{BlockExecution, Call, CallStatus, ExecCtx, Executor};
pub use state::{InMemoryState, ReadSetState, StateKey, StateReader};
