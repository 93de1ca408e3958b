//! R6 `r6-secret-taint`: secret values must not leave the trusted
//! boundary as *values*.
//!
//! R1 confines secret *identifiers* to the trusted modules; R6 tracks
//! the values. Taint seeds at parameters/locals named like secrets
//! (`platform_secret`, `sk_enc`, `*secret*`) and at calls to the
//! secret-producing API (`sealing_key`, `keystream_block`,
//! `export_state`, `to_secret_bytes`), propagates through `let`
//! bindings and call arguments into other trusted-module functions, and
//! reports when a tainted value reaches:
//!
//! * a formatting macro (`format!`/`println!`/`panic!`/asserts — Debug
//!   output is an exfiltration channel),
//! * a wire encoder (`encode`/`to_encoded_bytes`),
//! * any function outside the trusted modules except the allow-listed
//!   crypto API (`hash_*`, `seal`/`unseal`, `Keypair::from_seed`/`sign`).
//!
//! Interprocedural propagation records the call chain, so findings in a
//! callee carry a multi-hop witness back to the seeding function.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use crate::engine::{in_any, Finding, R1_TRUSTED_MODULES};
use crate::flow::taint_lets;
use crate::graph::Graph;
use crate::lexer::TokKind;

pub const RULE: &str = "r6-secret-taint";

/// Calls whose *result* is secret material.
const SECRET_SOURCES: [&str; 4] = [
    "sealing_key",
    "keystream_block",
    "export_state",
    "to_secret_bytes",
];

/// Functions outside the trusted modules that legitimately consume
/// secret values: the hash kernel (key derivation), the sealing API
/// itself, the signature wrapper, and pure borrow accessors on the
/// secret's own type (`Hash::as_bytes` — the borrowed bytes stay
/// tainted in the caller, so what they subsequently reach is still
/// checked).
const ALLOWED_CALLEES: [&str; 9] = [
    "hash_concat",
    "hash_bytes",
    "seal",
    "unseal",
    "from_seed",
    "sign",
    "public",
    "verify",
    "as_bytes",
];

/// Macros whose arguments end up in human-readable output.
const FORMAT_MACROS: [&str; 19] = [
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "log",
    "trace",
    "info",
    "warn",
    "error",
];

/// Wire-encoder entry points: serializing a secret puts it on the wire.
const ENCODER_SINKS: [&str; 3] = ["encode", "encode_to", "to_encoded_bytes"];

fn is_secret_name(s: &str) -> bool {
    s == "platform_secret" || s == "sk_enc" || s.contains("secret")
}

fn in_trusted(path: &str) -> bool {
    in_any(path, &R1_TRUSTED_MODULES)
}

pub fn run(g: &Graph) -> Vec<(usize, Finding)> {
    // Worklist of (fn, extra tainted param indices), with the call chain
    // that introduced the extra taint (for witnesses).
    let mut seen: HashMap<usize, BTreeSet<usize>> = HashMap::new();
    let mut chains: HashMap<usize, String> = HashMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for id in 0..g.fns.len() {
        let n = &g.fns[id];
        if !n.item.is_test && in_trusted(&g.files[n.file].path) {
            seen.insert(id, BTreeSet::new());
            queue.push_back(id);
        }
    }

    let mut out = Vec::new();
    while let Some(id) = queue.pop_front() {
        let node = &g.fns[id];
        let file = &g.files[node.file];
        let toks = &file.toks;
        let extra = seen.get(&id).cloned().unwrap_or_default();

        // Seed taint: secret-named params + interprocedurally tainted
        // params.
        let mut tainted: HashSet<String> = HashSet::new();
        for (i, p) in node.item.params.iter().enumerate() {
            if !p.name.is_empty() && (is_secret_name(&p.name) || extra.contains(&i)) {
                tainted.insert(p.name.clone());
            }
        }
        taint_lets(toks, &node.flow.lets, &mut tainted, |rhs| {
            rhs.iter().any(|t| {
                t.kind == TokKind::Ident
                    && (is_secret_name(&t.text) || SECRET_SOURCES.contains(&t.text.as_str()))
            })
        });

        let occurs = |range: (usize, usize)| -> Option<String> {
            toks.get(range.0..range.1.min(toks.len()))?
                .iter()
                .find(|t| {
                    t.kind == TokKind::Ident
                        && (is_secret_name(&t.text) || tainted.contains(&t.text))
                })
                .map(|t| t.text.clone())
        };
        // Witness prefix: the call chain that tainted this fn, if any.
        let here = match chains.get(&id) {
            Some(c) => format!("{c} → {}", g.fn_display(id)),
            None => g.fn_display(id),
        };

        // Sink: formatting macros.
        for m in &node.flow.macros {
            if !FORMAT_MACROS.contains(&m.name.as_str()) {
                continue;
            }
            if let Some(name) = occurs(m.body) {
                out.push((
                    node.file,
                    Finding {
                        rule: RULE,
                        line: m.line,
                        col: m.col,
                        msg: format!(
                            "secret-tainted value `{name}` flows into `{}!` formatting \
                             (in {here}); secrets must never reach logs or panic messages",
                            m.name,
                        ),
                    },
                ));
            }
        }

        // Sinks and propagation through calls.
        for (ci, call) in node.flow.calls.iter().enumerate() {
            let recv_tainted = call
                .recv
                .as_deref()
                .is_some_and(|r| is_secret_name(r) || tainted.contains(r));
            let arg_taints: Vec<(usize, String)> = call
                .args
                .iter()
                .enumerate()
                .filter_map(|(i, &r)| occurs(r).map(|n| (i, n)))
                .collect();
            if !recv_tainted && arg_taints.is_empty() {
                continue;
            }
            let carrier = arg_taints
                .first()
                .map(|(_, n)| n.clone())
                .or_else(|| call.recv.clone())
                .unwrap_or_default();

            if ENCODER_SINKS.contains(&call.name()) {
                out.push((
                    node.file,
                    Finding {
                        rule: RULE,
                        line: call.line,
                        col: call.col,
                        msg: format!(
                            "secret-tainted value `{carrier}` flows into wire encoder \
                             `{}` (in {here}); only sealed ciphertext may be serialized",
                            call.display(),
                        ),
                    },
                ));
                continue;
            }

            let callees: Vec<usize> = g.edges[id]
                .iter()
                .filter(|e| e.call == ci)
                .map(|e| e.callee)
                .collect();
            if callees.is_empty() {
                // External (std) call: moves/borrows inside the trusted
                // module, not a boundary crossing.
                continue;
            }
            for callee in callees {
                let cfile = &g.files[g.fns[callee].file];
                if in_trusted(&cfile.path) {
                    // Propagate taint into the callee's parameters.
                    let has_self = g.fns[callee]
                        .item
                        .params
                        .first()
                        .is_some_and(|p| p.name == "self");
                    let shift = usize::from(call.method && has_self);
                    let mut extras: BTreeSet<usize> = BTreeSet::new();
                    if recv_tainted && has_self {
                        extras.insert(0);
                    }
                    for (i, _) in &arg_taints {
                        extras.insert(i + shift);
                    }
                    let entry = seen.entry(callee).or_default();
                    let before = entry.len();
                    entry.extend(extras);
                    if entry.len() > before {
                        chains.entry(callee).or_insert_with(|| here.clone());
                        queue.push_back(callee);
                    }
                } else if !ALLOWED_CALLEES.contains(&call.name()) {
                    out.push((
                        node.file,
                        Finding {
                            rule: RULE,
                            line: call.line,
                            col: call.col,
                            msg: format!(
                                "secret-tainted value `{carrier}` passed to `{}` in \
                                 {} — outside the trusted boundary and not part of \
                                 the sealing/signing API (in {here})",
                                call.display(),
                                cfile.path,
                            ),
                        },
                    ));
                }
            }
        }
    }
    out.sort_by_key(|(f, x)| (*f, x.line, x.col));
    out.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.col == b.1.col);
    out
}
