//! `dcert-obs` — the workspace's observability layer.
//!
//! The paper's evaluation (Figs. 7–11, Table 1) is a story about *where
//! time and bytes go*: enclave transitions, EPC pressure, certificate
//! sizes, query proof overhead. This crate gives every cost center one
//! common place to put those numbers — a [`Registry`] of named
//! [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s — and one
//! common way to get them out: a deterministic, machine-readable
//! [`Snapshot`] (see [`Snapshot::to_json`]).
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies.** Only `std`. The registry is infrastructure
//!    for measuring everything else; it must not drag in (or skew) what
//!    it measures.
//! 2. **Allocation-free hot path.** Handles are `Arc`-backed atomics:
//!    [`Counter::inc`], [`Gauge::set`], and [`Histogram::observe`] touch
//!    no lock and allocate nothing. Registration (name lookup) is the
//!    only locked, allocating operation — do it once at setup.
//! 3. **Deterministic export.** Snapshots iterate metrics in name order
//!    (`BTreeMap`) and contain no ambient timestamps, so two runs with
//!    the same seed export byte-identical JSON — modulo metrics that
//!    *measure* wall-clock time, which by convention end in `_ns` and can
//!    be stripped with [`Snapshot::without_wall_clock`] for replay
//!    comparisons.
//! 4. **Behaviorally inert, and free when off.** A [`Registry::disabled`]
//!    registry holds nothing and hands out inert handles: an update is one
//!    branch — no atomic, no allocation — a read returns 0, and nothing is
//!    exported. Registering on it allocates nothing either, so an
//!    unmeasured cost center pays neither at setup nor per event
//!    (`tests/floors.rs` pins the serving front's cache hit at zero
//!    allocations). Instrumented code paths must be byte-identical in
//!    output to uninstrumented ones (`tests/pipeline_equivalence.rs` pins
//!    this for the certification pipeline).
//!
//! This crate deliberately has no clock: durations are measured by
//! callers with the sanctioned `dcert_sgx::cost::timed` closure clock (or
//! the simulators' virtual clocks) and recorded via
//! [`Histogram::record`]; `clippy.toml` bans the ambient clock here as
//! everywhere.
//!
//! # Example
//!
//! ```
//! use dcert_obs::{Buckets, Registry};
//!
//! let registry = Registry::new();
//! let ecalls = registry.counter("enclave.ecalls");
//! let bytes = registry.histogram("enclave.crossing_bytes", Buckets::bytes());
//! ecalls.inc();
//! bytes.observe(1024);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters.get("enclave.ecalls"), Some(&1));
//! assert!(snapshot.to_json().contains("enclave.crossing_bytes"));
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

pub mod registry;
pub mod snapshot;

pub use registry::{Buckets, Counter, Gauge, Histogram, Registry};
pub use snapshot::{BucketCount, HistogramSnapshot, Snapshot};
