//! R7 `r7-alloc-bound`: decoder allocations sized from wire-decoded
//! lengths must be dominated by a bound check.
//!
//! The DoS class that matters at serve scale: an attacker puts `2^60` in
//! a length field and the decoder calls `Vec::with_capacity` on it. A
//! local taint pass marks `let` bindings whose initializer reads a
//! length off the wire (`take_len`, `from_be_bytes`/`from_le_bytes`,
//! `uNN::decode`), propagates through further bindings, and requires
//! every allocation sized by a tainted value (`with_capacity`,
//! `reserve`, `resize`, `vec![_; n]`) to be preceded by bounding
//! evidence: a `.min(...)`/`.clamp(...)` on a tainted value, or a
//! comparison (`<`/`>`) involving one.
//!
//! The heuristic deliberately errs toward false *negatives* (a
//! comparison anywhere before the sink counts, generics angle brackets
//! can masquerade as comparisons) — R7 exists to catch the blatant
//! unchecked path, and the fixtures pin the behavior.

use std::collections::HashSet;

use crate::engine::Finding;
use crate::flow::taint_lets;
use crate::graph::Graph;
use crate::lexer::{Tok, TokKind};
use crate::parse::is_punct;

pub const RULE: &str = "r7-alloc-bound";

/// Calls whose results are raw wire lengths.
const WIRE_LEN_SOURCES: [&str; 3] = ["take_len", "from_be_bytes", "from_le_bytes"];

/// Integer types whose `decode` yields an attacker-chosen number.
const INT_TYPES: [&str; 10] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i16", "i32", "i64", "isize",
];

/// Allocation calls whose argument is a size.
const ALLOC_SINKS: [&str; 4] = ["with_capacity", "reserve", "reserve_exact", "resize"];

fn reads_wire_len(range: &[Tok]) -> bool {
    for (j, t) in range.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if WIRE_LEN_SOURCES.contains(&t.text.as_str()) {
            return true;
        }
        // `u64::decode(...)` / `u32::decode_all(...)`.
        if (t.text == "decode" || t.text == "decode_all")
            && j >= 3
            && range[j - 1].text == ":"
            && range[j - 2].text == ":"
            && INT_TYPES.contains(&range[j - 3].text.as_str())
        {
            return true;
        }
    }
    false
}

pub fn run(g: &Graph) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    for id in 0..g.fns.len() {
        let node = &g.fns[id];
        if node.item.is_test {
            continue;
        }
        let file = &g.files[node.file];
        if file.path.starts_with("crates/lint/") {
            continue;
        }
        let toks = &file.toks;

        // Taint wire-length bindings, then propagate through later lets.
        let mut tainted = HashSet::new();
        taint_lets(toks, &node.flow.lets, &mut tainted, reads_wire_len);
        if tainted.is_empty() {
            continue;
        }
        let body_start = node.item.body.map(|(s, _)| s).unwrap_or(0);

        let is_tainted_at = |k: usize| -> bool {
            toks.get(k)
                .is_some_and(|t| t.kind == TokKind::Ident && tainted.contains(&t.text))
        };
        // Bounding evidence strictly before token `sink`: a comparison
        // or `.min`/`.clamp` involving a tainted value.
        let bounded_before = |sink: usize| -> bool {
            for k in body_start..sink {
                if !is_tainted_at(k) {
                    continue;
                }
                // Clamp to the body: the fn signature's `-> Vec<u8>` must
                // not read as a comparison.
                let lo = k.saturating_sub(6).max(body_start);
                let hi = (k + 7).min(sink);
                for j in lo..hi {
                    let t = &toks[j];
                    if is_punct(toks, j, "<")
                        || (is_punct(toks, j, ">") && !is_punct(toks, j.wrapping_sub(1), "-"))
                    {
                        return true;
                    }
                    if t.kind == TokKind::Ident && (t.text == "min" || t.text == "clamp") {
                        return true;
                    }
                }
            }
            false
        };
        let range_tainted = |range: (usize, usize)| -> Option<String> {
            toks.get(range.0..range.1.min(toks.len()))?
                .iter()
                .find(|t| t.kind == TokKind::Ident && tainted.contains(&t.text))
                .map(|t| t.text.clone())
        };
        let range_has_clamp = |range: (usize, usize)| -> bool {
            toks.get(range.0..range.1.min(toks.len())).is_some_and(|r| {
                r.iter()
                    .any(|t| t.kind == TokKind::Ident && (t.text == "min" || t.text == "clamp"))
            })
        };

        let mut push = |line: u32, col: u32, sink: &str, name: &str| {
            out.push((
                node.file,
                Finding {
                    rule: RULE,
                    line,
                    col,
                    msg: format!(
                        "allocation `{sink}` sized from wire-decoded length `{name}` \
                         with no dominating bound check; clamp it (`.min(MAX)`) or \
                         validate against a limit before allocating"
                    ),
                },
            ));
        };

        for call in &node.flow.calls {
            if !ALLOC_SINKS.contains(&call.name()) {
                continue;
            }
            for &arg in &call.args {
                if let Some(name) = range_tainted(arg) {
                    if !range_has_clamp(arg) && !bounded_before(call.tok) {
                        push(call.line, call.col, &call.display(), &name);
                    }
                    break;
                }
            }
        }
        for m in &node.flow.macros {
            if m.name != "vec" {
                continue;
            }
            // `vec![elem; len]` — only the repeat count is a size.
            let mut depth = 0i32;
            let mut semi = None;
            for (k, t) in toks
                .iter()
                .enumerate()
                .take(m.body.1.min(toks.len()))
                .skip(m.body.0)
            {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => {
                            semi = Some(k);
                            break;
                        }
                        _ => {}
                    }
                }
            }
            if let Some(semi) = semi {
                let count = (semi + 1, m.body.1);
                if let Some(name) = range_tainted(count) {
                    if !range_has_clamp(count) && !bounded_before(m.tok) {
                        push(m.line, m.col, "vec![_; …]", &name);
                    }
                }
            }
        }
    }
    out.sort_by_key(|(f, x)| (*f, x.line, x.col));
    out.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.col == b.1.col);
    out
}
