//! Workspace-wide rules R6 and R8, built on the call graph
//! ([`crate::graph`]) and per-function dataflow facts ([`crate::flow`]).
//!
//! Each rule returns `(file index, Finding)` pairs; the driver merges
//! them with the per-file R1, R3 and R4 findings and applies that file's
//! `allow(...)` directives, so the escape-hatch contract is identical
//! across all five rules.

mod r6;
mod r8;

use crate::engine::Finding;
use crate::graph::Graph;

/// Runs every workspace rule over the graph.
pub fn run_all(graph: &Graph) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    out.extend(r6::run(graph));
    out.extend(r8::run(graph));
    out
}
