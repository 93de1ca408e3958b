//! Workspace-wide rules R5, R6 and R8, built on the call graph
//! ([`crate::graph`]) and per-function dataflow facts ([`crate::flow`]).
//!
//! Each rule returns `(file index, Finding)` pairs; the driver merges
//! them with the per-file R1, R3 and R4 findings and applies that file's
//! `allow(...)` directives, so the escape-hatch contract is identical
//! across all six rules. R5 is the only panic-freedom rule.

mod r5;
mod r6;
mod r8;

use crate::engine::Finding;
use crate::graph::Graph;

/// Runs every workspace rule over the graph.
pub fn run_all(graph: &Graph) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    out.extend(r5::run(graph));
    out.extend(r6::run(graph));
    out.extend(r8::run(graph));
    out
}
