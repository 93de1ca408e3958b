//! R5 `r5-panic-reachability`: panic freedom on untrusted input, the one
//! rule that states it.
//!
//! Every non-test function of the verifier modules is an analysis root,
//! and so is the `Enclave` ECall surface (its public and trait-impl
//! functions: untrusted host code drives it). No function reachable from
//! a root (across files and crates) may hold a panic site as
//! [`crate::flow::scan_fn`] defines one: `unwrap`/`expect`, a
//! panic-family macro, an index other than `[..]`, or a truncating `as`
//! cast. Findings carry the call-path witness from a root to the site,
//! from a public entry point whenever one reaches it.

use crate::engine::{in_any, Finding, VERIFIER_MODULES};
use crate::graph::Graph;

pub const RULE: &str = "r5-panic-reachability";

pub fn run(g: &Graph) -> Vec<(usize, Finding)> {
    let public = |id: usize| g.fns[id].item.is_pub || g.fns[id].item.in_trait_impl;
    let mut roots: Vec<usize> = (0..g.fns.len())
        .filter(|&id| {
            let path = g.files[g.fns[id].file].path.as_str();
            !g.fns[id].item.is_test
                && (in_any(path, &VERIFIER_MODULES)
                    || (path == "crates/sgx/src/enclave.rs" && public(id)))
        })
        .collect();
    // Public roots first: a witness starts where the outside world comes
    // in whenever one reaches the site.
    roots.sort_by_key(|&id| !public(id));
    let reach = g.reachable(&roots);

    let mut out = Vec::new();
    for id in 0..g.fns.len() {
        if !reach.visited[id] || g.fns[id].item.is_test {
            continue;
        }
        for p in &g.fns[id].flow.panics {
            let witness = g.witness(&reach, id);
            out.push((
                g.fns[id].file,
                Finding {
                    rule: RULE,
                    line: p.line,
                    col: p.col,
                    msg: format!(
                        "{} and is reachable from verifier/enclave entry points \
                         (path: {witness}); return a typed error instead",
                        p.what
                    ),
                },
            ));
        }
    }
    out.sort_by_key(|(f, x)| (*f, x.line, x.col));
    out.dedup_by_key(|(f, x)| (*f, x.line, x.col));
    out
}
