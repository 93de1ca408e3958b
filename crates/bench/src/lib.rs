//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 7).
//!
//! One **binary** per experiment (`cargo run --release -p dcert-bench
//! --bin figN_...`) prints the rows/series the paper reports and
//! `assert!`s the figure's *shape* beside the row that shows it, so a
//! figure that loses its shape exits non-zero. `scripts/figures.sh` runs
//! them all and regenerates `results/*.txt`.
//!
//! EXPERIMENTS.md maps each table and figure to its binary (`table1_params`,
//! `fig7_bootstrap` … `fig11_queries`, the ablations, and the figures that
//! go beyond the paper).
//!
//! Scale every experiment down/up with the `DCERT_SCALE` environment
//! variable (default 1.0): chain lengths and block counts are multiplied
//! by it, so `DCERT_SCALE=0.1` gives a quick smoke run. Deterministic
//! shapes (bytes, counts, ECalls) are asserted at every scale; wall-clock
//! relations only at `DCERT_SCALE >= 1` ([`shape::wall_clock`]), where
//! the timed sections are long enough to be stable.
//!
//! Numbers that are compared *across commits* do not come from here:
//! `benchmark/run.sh compare` is the one measurement system for that.

#![forbid(unsafe_code)]

pub mod harness;
pub mod naive;
pub mod params;
pub mod report;
pub mod shape;

pub use harness::{kv_key, Rig, RigConfig, Scheme};
pub use params::{scale, scaled};
