//! R8 `r8-durability-order`: in `dcert-store`, destructive file
//! operations must not be reachable from steady-state entry points
//! before the corresponding head-commit `sync()`.
//!
//! This is the exact bug class PR 6 fixed by hand in `prune_below`: if a
//! segment file is unlinked *before* the head region stops tracking it,
//! a crash between the two steps loses acknowledged data. The rule
//! walks the store's call graph from every externally callable function
//! **except** the recovery closure (`open`/`recover` — recovery
//! legitimately deletes orphans the previous head already disowned) and
//! requires every reachable `remove_file`/`set_len` call site to be
//! preceded, in the same function, by a head-commit `sync()` call.
//! `sync_all`/`sync_data` (plain fsyncs) deliberately do **not**
//! qualify — fsyncing a segment is not a head commit.
//!
//! The head region's own module (`head.rs`) is exempt: the one
//! destructive call there shrinks the older head slot while rewriting it
//! in place, which *is* the head commit, and only ever touches the slot
//! recovery no longer needs. A segment truncate or unlink anywhere else
//! in the store still fires.

use crate::engine::Finding;
use crate::graph::Graph;

pub const RULE: &str = "r8-durability-order";

const DESTRUCTIVE: [&str; 2] = ["remove_file", "set_len"];

/// The head region's module, whose slot rewrite is the head commit itself.
const HEAD_REGION: &str = "crates/store/src/head.rs";

/// Functions that *are* the recovery closure's roots.
const RECOVERY_ROOTS: [&str; 2] = ["open", "recover"];

fn in_store(path: &str) -> bool {
    path.starts_with("crates/store/")
}

pub fn run(g: &Graph) -> Vec<(usize, Finding)> {
    let steady: Vec<usize> = (0..g.fns.len())
        .filter(|&id| {
            let n = &g.fns[id];
            !n.item.is_test
                && (n.item.is_pub || n.item.in_trait_impl)
                && in_store(&g.files[n.file].path)
                && !RECOVERY_ROOTS.contains(&n.item.name.as_str())
        })
        .collect();
    let reach = g.reachable(&steady);

    let mut out = Vec::new();
    for id in 0..g.fns.len() {
        let path = &g.files[g.fns[id].file].path;
        if !reach.visited[id] || !in_store(path) || path == HEAD_REGION {
            continue;
        }
        let node = &g.fns[id];
        for call in &node.flow.calls {
            if !DESTRUCTIVE.contains(&call.name()) {
                continue;
            }
            let prior_sync = node
                .flow
                .calls
                .iter()
                .any(|c| c.name() == "sync" && c.tok < call.tok);
            if prior_sync {
                continue;
            }
            let witness = g.witness(&reach, id);
            out.push((
                node.file,
                Finding {
                    rule: RULE,
                    line: call.line,
                    col: call.col,
                    msg: format!(
                        "`{}` is reachable from steady-state store entry points \
                         (path: {witness}) with no head-commit `sync()` before it; \
                         persist the shrunken head first so a crash between the two \
                         steps leaves only orphans recovery can finish",
                        call.display()
                    ),
                },
            ));
        }
    }
    out.sort_by_key(|(f, x)| (*f, x.line, x.col));
    out.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.col == b.1.col);
    out
}
