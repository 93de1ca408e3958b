//! Per-function dataflow facts: call sites (with argument spans and
//! receiver idents), macro invocations, and `let` bindings.
//!
//! Everything here is a token-level approximation — see the module docs
//! on [`crate::parse`] for the philosophy. The facts feed the call graph
//! ([`crate::graph`]) and the workspace rules ([`crate::rules`]).

use std::collections::HashSet;

use crate::lexer::{Tok, TokKind};
use crate::parse::{is_punct, matching, skip_generics};

/// Keywords that can be followed by `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 20] = [
    "if", "while", "match", "for", "return", "in", "as", "let", "mut", "ref", "move", "else", "fn",
    "impl", "pub", "use", "where", "loop", "break", "continue",
];

/// One call expression: `name(...)`, `path::name(...)`, or `.name(...)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name.
    pub tok: usize,
    pub line: u32,
    pub col: u32,
    /// Path segments, last one being the callee name. Method calls have
    /// a single segment.
    pub path: Vec<String>,
    /// `.name(...)` form.
    pub method: bool,
    /// Simple receiver ident for method calls (`self.f(...)` → `self`,
    /// `x.f(...)` → `x`); `None` when the receiver is an expression.
    pub recv: Option<String>,
    /// Token ranges (start, end-exclusive) of top-level arguments.
    pub args: Vec<(usize, usize)>,
}

impl CallSite {
    pub fn name(&self) -> &str {
        self.path.last().map(String::as_str).unwrap_or("")
    }

    pub fn display(&self) -> String {
        if self.method {
            format!(".{}", self.name())
        } else {
            self.path.join("::")
        }
    }
}

/// One macro invocation `name!(...)` / `name![...]` / `name!{...}`.
#[derive(Debug, Clone)]
pub struct MacroSite {
    pub line: u32,
    pub col: u32,
    pub name: String,
    /// Token range (start, end-exclusive) of the macro body.
    pub body: (usize, usize),
}

/// One simple `let [mut] name [: Ty] = rhs;` binding.
#[derive(Debug, Clone)]
pub struct LetBind {
    pub name: String,
    /// Base name of the ascribed type, when present.
    pub ty: Option<String>,
    /// Token index of the bound name.
    pub tok: usize,
    /// Token range (start, end-exclusive) of the initializer.
    pub rhs: (usize, usize),
}

/// All facts scanned from one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFlow {
    pub calls: Vec<CallSite>,
    pub macros: Vec<MacroSite>,
    pub lets: Vec<LetBind>,
}

fn is_ident(toks: &[Tok], i: usize) -> bool {
    toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
}

/// Scans the body token range `(open_brace, close_brace)` of one
/// function. Tokens marked `in_test` are skipped entirely.
pub fn scan_fn(toks: &[Tok], in_test: &[bool], body: (usize, usize)) -> FnFlow {
    let mut flow = FnFlow::default();
    let (start, end) = (body.0 + 1, body.1.min(toks.len()));
    let mut k = start;
    while k < end {
        if in_test.get(k).copied().unwrap_or(false) {
            k += 1;
            continue;
        }
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            // Macro invocation.
            if is_punct(toks, k + 1, "!")
                && ["(", "[", "{"].iter().any(|o| is_punct(toks, k + 2, o))
            {
                let (open_s, close_s) = match toks[k + 2].text.as_str() {
                    "(" => ("(", ")"),
                    "[" => ("[", "]"),
                    _ => ("{", "}"),
                };
                let close = matching(toks, k + 2, open_s, close_s).unwrap_or(end);
                flow.macros.push(MacroSite {
                    line: t.line,
                    col: t.col,
                    name: t.text.clone(),
                    body: (k + 3, close),
                });
                // Scan *inside* the macro body too (vec![f(x)] etc.), so
                // just step past the `!` and opening bracket.
                k += 3;
                continue;
            }
            // Call expression: ident, optional turbofish, then `(`.
            let mut paren = None;
            if is_punct(toks, k + 1, "(") {
                paren = Some(k + 1);
            } else if is_punct(toks, k + 1, ":")
                && is_punct(toks, k + 2, ":")
                && is_punct(toks, k + 3, "<")
            {
                let after = skip_generics(toks, k + 3);
                if is_punct(toks, after, "(") {
                    paren = Some(after);
                }
            }
            if let Some(open) = paren {
                if !NON_CALL_KEYWORDS.contains(&t.text.as_str()) && !is_fn_decl(toks, k) {
                    let close = matching(toks, open, "(", ")").unwrap_or(end);
                    let args = split_args(toks, open, close);
                    if is_punct(toks, k.wrapping_sub(1), ".") {
                        flow.calls.push(CallSite {
                            tok: k,
                            line: t.line,
                            col: t.col,
                            path: vec![t.text.clone()],
                            method: true,
                            recv: simple_receiver(toks, k),
                            args,
                        });
                    } else {
                        flow.calls.push(CallSite {
                            tok: k,
                            line: t.line,
                            col: t.col,
                            path: path_back(toks, k),
                            method: false,
                            recv: None,
                            args,
                        });
                    }
                }
            } else if t.text == "let" {
                if let Some(bind) = parse_let(toks, k, end) {
                    flow.lets.push(bind);
                }
            }
        }
        k += 1;
    }
    flow
}

/// Grows `tainted` to a fixpoint over `lets`: a binding is tainted when
/// `seeds` holds of its initializer's tokens or the initializer names a
/// tainted binding.
pub fn taint_lets(
    toks: &[Tok],
    lets: &[LetBind],
    tainted: &mut HashSet<String>,
    seeds: impl Fn(&[Tok]) -> bool,
) {
    loop {
        let mut changed = false;
        for b in lets {
            if tainted.contains(&b.name) {
                continue;
            }
            let rhs = toks
                .get(b.rhs.0..b.rhs.1.min(toks.len()))
                .unwrap_or_default();
            if seeds(rhs)
                || rhs
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && tainted.contains(&t.text))
            {
                tainted.insert(b.name.clone());
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Is `toks[k]` the name in a nested `fn name(...)` declaration?
fn is_fn_decl(toks: &[Tok], k: usize) -> bool {
    k >= 1 && toks[k - 1].kind == TokKind::Ident && toks[k - 1].text == "fn"
}

/// Walks back from a callee name over `path::segments` (including
/// turbofish like `Vec::<u8>::decode`), returning the full path.
fn path_back(toks: &[Tok], name_at: usize) -> Vec<String> {
    let mut segs = vec![toks[name_at].text.clone()];
    let mut k = name_at as isize;
    let p = |i: isize, s: &str| i >= 0 && is_punct(toks, i as usize, s);
    while p(k - 1, ":") && p(k - 2, ":") {
        let mut b = k - 3;
        // Skip a turbofish group `::<...>` backwards (`Vec::<u8>::decode`).
        if p(b, ">") && !p(b - 1, "-") {
            let mut depth = 0i32;
            while b >= 0 {
                if p(b, ">") && !p(b - 1, "-") {
                    depth += 1;
                } else if p(b, "<") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b -= 1;
            }
            if depth != 0 || !(p(b - 1, ":") && p(b - 2, ":")) {
                return segs;
            }
            b -= 3;
        }
        if b >= 0 && toks[b as usize].kind == TokKind::Ident {
            segs.insert(0, toks[b as usize].text.clone());
            k = b;
        } else {
            break;
        }
    }
    segs
}

/// For `x.name(` / `self.name(`, the receiver ident — but only when it is
/// itself a bare ident (not a field chain or call result).
fn simple_receiver(toks: &[Tok], name_at: usize) -> Option<String> {
    if name_at < 2 {
        return None;
    }
    let r = &toks[name_at - 2];
    if r.kind != TokKind::Ident {
        return None;
    }
    // `a.b.name(` → receiver is the field `b`, whose type is unknown.
    // `self.x.name(` likewise. Only a bare ident (or `self`) qualifies.
    if name_at >= 3 && is_punct(toks, name_at - 3, ".") {
        return None;
    }
    Some(r.text.clone())
}

fn split_args(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = open + 1;
    let mut k = open + 1;
    while k < close {
        if toks[k].kind == TokKind::Punct {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    if k > start {
                        out.push((start, k));
                    }
                    start = k + 1;
                }
                _ => {}
            }
        }
        k += 1;
    }
    if close > start {
        out.push((start, close));
    }
    out
}

/// Parses `let [mut] name [: Ty] = rhs ;` starting at the `let` token.
/// Complex patterns (tuples, destructuring) are skipped — the rules that
/// consume bindings only track simple names.
fn parse_let(toks: &[Tok], at: usize, end: usize) -> Option<LetBind> {
    let mut k = at + 1;
    while is_ident(toks, k) && (toks[k].text == "mut" || toks[k].text == "ref") {
        k += 1;
    }
    if !is_ident(toks, k) {
        return None;
    }
    let name_at = k;
    let name = toks[k].text.clone();
    k += 1;
    let mut ty = None;
    if is_punct(toks, k, ":") && !is_punct(toks, k + 1, ":") {
        // Ascribed type up to the `=` at depth 0.
        let ty_start = k + 1;
        let mut depth = 0i32;
        while k < end {
            if toks[k].kind == TokKind::Punct {
                match toks[k].text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if !is_punct(toks, k.wrapping_sub(1), "-") => depth -= 1,
                    "=" if depth <= 0 && !is_punct(toks, k + 1, "=") => break,
                    ";" if depth <= 0 => return None,
                    _ => {}
                }
            }
            k += 1;
        }
        ty = crate::parse::base_type_name(toks.get(ty_start..k)?);
    }
    // Require a plain `=` (not `==`) at the binding position.
    if !is_punct(toks, k, "=") || is_punct(toks, k + 1, "=") {
        return None;
    }
    let rhs_start = k + 1;
    let mut depth = 0i32;
    let mut e = rhs_start;
    while e < end {
        if toks[e].kind == TokKind::Punct {
            match toks[e].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                _ => {}
            }
        }
        e += 1;
    }
    Some(LetBind {
        name,
        ty,
        tok: name_at,
        rhs: (rhs_start, e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mark_test_tokens;
    use crate::lexer::lex;
    use crate::parse::parse_items;

    fn flow_of(src: &str) -> FnFlow {
        let (toks, _) = lex(src);
        let in_test = mark_test_tokens(&toks);
        let items = parse_items(&toks, &in_test);
        let body = items.fns[0].body.expect("fn body");
        scan_fn(&toks, &in_test, body)
    }

    #[test]
    fn finds_calls_paths_and_receivers() {
        let f = flow_of(
            "fn f(&self, r: &mut Reader) {\n\
               let x = sealing::seal(a, b);\n\
               self.publish(x);\n\
               r.take_len()?;\n\
               Vec::<u8>::with_capacity(n);\n\
               helper(1, 2);\n\
             }",
        );
        let names: Vec<_> = f.calls.iter().map(|c| c.display()).collect();
        assert_eq!(
            names,
            [
                "sealing::seal",
                ".publish",
                ".take_len",
                "Vec::with_capacity",
                "helper"
            ]
        );
        assert_eq!(f.calls[1].recv.as_deref(), Some("self"));
        assert_eq!(f.calls[2].recv.as_deref(), Some("r"));
        assert_eq!(f.calls[0].args.len(), 2);
        assert_eq!(f.calls[4].args.len(), 2);
    }

    #[test]
    fn finds_lets_with_types_and_macros() {
        let f = flow_of(
            "fn f() {\n\
               let mut out: Vec<u8> = Vec::new();\n\
               let n = r.take_len()?;\n\
               let buf = vec![0u8; n];\n\
               format!(\"{n}\");\n\
             }",
        );
        assert_eq!(f.lets.len(), 3);
        assert_eq!(f.lets[0].name, "out");
        assert_eq!(f.lets[0].ty.as_deref(), Some("Vec"));
        assert_eq!(f.lets[1].name, "n");
        let macros: Vec<_> = f.macros.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(macros, ["vec", "format"]);
    }
}
