//! Item-level parsing: just enough structure over the token stream to
//! build a workspace call graph.
//!
//! This is deliberately **not** a Rust grammar. It recognizes the item
//! shapes the analysis needs — `mod`/`impl`/`trait` scopes, `fn`
//! signatures with parameter names and base types, `use` imports, and
//! type definitions — and leaves everything else (expressions, generics
//! details, macros) to the token-level scans in [`crate::flow`]. Known
//! approximations are documented on [`ParsedFile`].

use crate::lexer::{Tok, TokKind};

/// One function parameter: its binding name (or `self`) and the last path
/// segment of its declared type (`Vec<u8>` → `Vec`, `&Hash` → `Hash`,
/// `&[u8; 32]` → `u8`). Empty when the pattern/type is too exotic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    pub name: String,
    pub ty: String,
}

/// One `fn` item found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name.
    pub name: String,
    /// Self type of the enclosing `impl` block (`impl Store for
    /// SegmentStore` → `SegmentStore`), or the trait name for default
    /// methods declared inside a `trait` block, or `None` for free fns.
    pub qual: Option<String>,
    /// `pub` in any form (`pub`, `pub(crate)`, ...).
    pub is_pub: bool,
    /// Declared in an `impl Trait for Type` block or a `trait` block —
    /// callable through the trait even without `pub`.
    pub in_trait_impl: bool,
    /// Inside `#[cfg(test)]` / `#[test]` extents.
    pub is_test: bool,
    pub params: Vec<Param>,
    /// Base name of the return type (`Result` for `Result<T, E>`).
    /// Parse metadata pinned by the crate tests; parsing it is also what
    /// keeps body detection correct for returns like `-> [u8; 32]`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub ret: Option<String>,
    /// Token indices of the body's `{` and matching `}` (inclusive), or
    /// `None` for bodiless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Line of the `fn` keyword (diagnostics metadata).
    #[allow(dead_code)]
    pub line: u32,
}

/// One `use` leaf: the name it binds locally and its full path segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    pub alias: String,
    pub path: Vec<String>,
}

/// A `impl Trait for Type` link, used to resolve `Type::trait_method`
/// calls through trait default methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraitImpl {
    pub ty: String,
    pub trait_name: String,
}

/// The parsed item skeleton of one source file.
///
/// Known approximations (all safe for the rules built on top):
/// - nested functions keep the enclosing `impl` qualifier;
/// - `mod name;` out-of-line declarations are ignored (the target file is
///   parsed on its own);
/// - a `macro_rules!` body is one fn named `name!` (its template), and a
///   `wire!` table adds the codec trait impls of the types it declares;
///   other macro-generated items are invisible;
/// - glob imports (`use x::*`) are ignored.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseDecl>,
    pub trait_impls: Vec<TraitImpl>,
    /// Names of types (struct/enum/union/trait/type) defined here.
    pub types: Vec<String>,
    /// Names introduced by `type` aliases. Associated-fn misses on these
    /// resolve through the aliased target (often a std type with blanket
    /// trait impls), so they are assumed external rather than dangling.
    pub aliases: Vec<String>,
}

/// Maps a workspace-relative path to the crate module name used in code
/// (`crates/store/...` → `dcert_store`, `src/...` → `dcert`). Harness
/// paths (tests/benches/examples) return `None`.
pub fn crate_of_path(path: &str) -> Option<String> {
    if crate::engine::is_harness_path(path) {
        return None;
    }
    if let Some(rest) = path.strip_prefix("crates/") {
        let dir = rest.split('/').next()?;
        return Some(format!("dcert_{}", dir.replace('-', "_")));
    }
    if path.starts_with("src/") {
        return Some("dcert".to_string());
    }
    None
}

/// File stem (`crates/store/src/seg_store.rs` → `seg_store`), used to
/// resolve module-qualified calls like `sealing::seal(...)`.
pub fn stem_of_path(path: &str) -> String {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs")
        .to_string()
}

enum Scope {
    Mod,
    /// (self type, is-trait-impl)
    Impl(Option<String>, bool),
    Trait(String),
}

/// Parses the item skeleton of `toks`. `in_test` is the per-token
/// `#[cfg(test)]` marking from [`crate::engine`].
pub fn parse_items(toks: &[Tok], in_test: &[bool]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Stack of (scope, end-token-index-exclusive).
    let mut scopes: Vec<(Scope, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        while let Some((_, end)) = scopes.last() {
            if i >= *end {
                scopes.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                // `mod name {` opens a scope; `mod name;` is out-of-line.
                if let Some(open) = find_punct_before_semi(toks, i + 1, "{") {
                    let end = matching(toks, open, "{", "}").unwrap_or(toks.len());
                    scopes.push((Scope::Mod, end + 1));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "impl" => {
                let (qual, trait_name, open) = parse_impl_header(toks, i);
                let Some(open) = open else {
                    i += 1;
                    continue;
                };
                if let (Some(ty), Some(tr)) = (&qual, &trait_name) {
                    out.trait_impls.push(TraitImpl {
                        ty: ty.clone(),
                        trait_name: tr.clone(),
                    });
                }
                let end = matching(toks, open, "{", "}").unwrap_or(toks.len());
                scopes.push((Scope::Impl(qual, trait_name.is_some()), end + 1));
                i = open + 1;
            }
            "trait" => {
                let name = ident_at(toks, i + 1).unwrap_or_default();
                if !name.is_empty() {
                    out.types.push(name.clone());
                }
                if let Some(open) = find_punct_before_semi(toks, i + 1, "{") {
                    let end = matching(toks, open, "{", "}").unwrap_or(toks.len());
                    scopes.push((Scope::Trait(name), end + 1));
                    i = open + 1;
                } else {
                    i += 1;
                }
            }
            "struct" | "enum" | "union" | "type" => {
                if let Some(name) = ident_at(toks, i + 1) {
                    if t.text == "type" {
                        out.aliases.push(name.clone());
                    }
                    out.types.push(name);
                }
                i += 1;
            }
            // A `macro_rules!` body is one fn-like node, its template: what
            // generated code calls and formats is scanned where it is written.
            "macro_rules" if is_punct(toks, i + 1, "!") && is_punct(toks, i + 3, "{") => {
                let close = matching(toks, i + 3, "{", "}").unwrap_or(toks.len());
                out.fns.push(FnItem {
                    name: format!("{}!", ident_at(toks, i + 2).unwrap_or_default()),
                    qual: None,
                    is_pub: true,
                    in_trait_impl: false,
                    is_test: in_test.get(i).copied().unwrap_or(false),
                    params: Vec::new(),
                    ret: None,
                    body: Some((i + 3, close)),
                    line: t.line,
                });
                i = close + 1;
            }
            // A `wire!` table implements the codec traits of every type it
            // declares (the template's bodies are the node above).
            "wire" if is_punct(toks, i + 1, "!") && is_punct(toks, i + 2, "{") => {
                let close = matching(toks, i + 2, "{", "}").unwrap_or(toks.len());
                for k in i + 3..close {
                    let traits: &[&str] = match toks[k].text.as_str() {
                        "struct" => &["Encode", "Decode"],
                        "enum" => &["Encode", "Decode", "Tagged"],
                        _ => continue,
                    };
                    if let Some(ty) = ident_at(toks, k + 1) {
                        out.trait_impls.extend(traits.iter().map(|tr| TraitImpl {
                            ty: ty.clone(),
                            trait_name: (*tr).to_string(),
                        }));
                    }
                }
                i = close + 1;
            }
            "use" => {
                let (decls, next) = parse_use(toks, i + 1);
                out.uses.extend(decls);
                i = next;
            }
            "fn" => {
                let ctx = scopes.iter().rev().find_map(|(s, _)| match s {
                    Scope::Impl(q, is_trait) => Some((q.clone(), *is_trait)),
                    Scope::Trait(name) => Some((Some(name.clone()), true)),
                    Scope::Mod => None,
                });
                let (qual, in_trait_impl) = ctx.unwrap_or((None, false));
                let (item, next) = parse_fn(toks, in_test, i, qual, in_trait_impl);
                if let Some(item) = item {
                    out.fns.push(item);
                }
                i = next;
            }
            _ => i += 1,
        }
    }
    out
}

fn ident_at(toks: &[Tok], i: usize) -> Option<String> {
    toks.get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
}

/// Is `toks[i]` the punct `s`? (`false` past the end.)
pub fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

/// Finds the next `what` punct at nesting depth 0 before any depth-0 `;`.
fn find_punct_before_semi(toks: &[Tok], from: usize, what: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut angle = 0i32;
    for (k, t) in toks.iter().enumerate().skip(from) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            _ if t.text == what && depth == 0 && angle <= 0 => return Some(k),
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "<" if depth == 0 => angle += 1,
            ">" if depth == 0 && !is_punct(toks, k.wrapping_sub(1), "-") => angle -= 1,
            ";" if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// Index of the bracket matching `toks[open]`.
pub fn matching(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_s {
                depth += 1;
            } else if t.text == close_s {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// Skips a balanced `<...>` generic group starting at `toks[i] == "<"`,
/// returning the index just past the matching `>`. `->` arrows inside
/// (fn-pointer types) do not count as closers.
pub fn skip_generics(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut k = i;
    while k < toks.len() {
        if toks[k].kind == TokKind::Punct {
            match toks[k].text.as_str() {
                "<" => depth += 1,
                ">" if !is_punct(toks, k.wrapping_sub(1), "-") => {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
                _ => {}
            }
        }
        k += 1;
    }
    k
}

/// Parses an `impl` header starting at the `impl` token. Returns the self
/// type, the trait name for `impl Trait for Type`, and the `{` index.
fn parse_impl_header(toks: &[Tok], at: usize) -> (Option<String>, Option<String>, Option<usize>) {
    let mut k = at + 1;
    if is_punct(toks, k, "<") {
        k = skip_generics(toks, k);
    }
    // Collect header tokens up to the body `{` (or `;` — illegal, bail).
    let Some(open) = find_punct_before_semi(toks, k, "{") else {
        return (None, None, None);
    };
    let header = &toks[k..open];
    let for_pos = header
        .iter()
        .position(|t| t.kind == TokKind::Ident && t.text == "for");
    let (trait_part, ty_part) = match for_pos {
        Some(p) => (
            Some(header.get(..p).unwrap_or_default()),
            header.get(p + 1..).unwrap_or_default(),
        ),
        None => (None, header),
    };
    let ty = base_type_name(ty_part);
    let trait_name = trait_part.and_then(base_type_name);
    (ty, trait_name, Some(open))
}

/// The "base name" of a type token run: the last segment of its leading
/// path, ignoring references, lifetimes and qualifiers. `&mut Vec<u8>` →
/// `Vec`, `dcert_primitives::hash::Hash` → `Hash`, `[u8; 32]` → `u8`.
pub fn base_type_name(ty: &[Tok]) -> Option<String> {
    let mut last: Option<String> = None;
    let mut k = 0usize;
    while k < ty.len() {
        let t = &ty[k];
        match t.kind {
            TokKind::Ident => match t.text.as_str() {
                "mut" | "dyn" | "impl" | "const" => k += 1,
                _ => {
                    last = Some(t.text.clone());
                    // Continue through `::` path segments.
                    if is_punct(ty, k + 1, ":") && is_punct(ty, k + 2, ":") {
                        k += 3;
                        continue;
                    }
                    return last;
                }
            },
            TokKind::Punct if t.text == "&" || t.text == "(" || t.text == "[" || t.text == "*" => {
                k += 1
            }
            TokKind::Lifetime => k += 1,
            _ => return last,
        }
    }
    last
}

/// Parses one `use` declaration starting just past the `use` keyword.
/// Returns the leaf decls and the index just past the terminating `;`.
fn parse_use(toks: &[Tok], from: usize) -> (Vec<UseDecl>, usize) {
    let mut end = from;
    let mut depth = 0i32;
    while end < toks.len() {
        if toks[end].kind == TokKind::Punct {
            match toks[end].text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        end += 1;
    }
    let mut out = Vec::new();
    collect_use_leaves(&toks[from..end], &mut Vec::new(), &mut out);
    (out, end + 1)
}

fn collect_use_leaves(toks: &[Tok], prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
    // Split the run on top-level commas; each piece is `seg::seg::leaf`,
    // `seg::{...}`, `leaf as alias`, or `*`.
    let mut start = 0usize;
    let mut depth = 0i32;
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => depth -= 1,
                "," if depth == 0 => {
                    pieces.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
        }
    }
    pieces.push((start, toks.len()));
    for (s, e) in pieces {
        let piece = toks.get(s..e).unwrap_or_default();
        if piece.is_empty() {
            continue;
        }
        let before = prefix.len();
        let mut k = 0usize;
        let mut leaf: Option<String> = None;
        let mut alias: Option<String> = None;
        while k < piece.len() {
            let t = &piece[k];
            if t.kind == TokKind::Ident {
                if t.text == "as" {
                    alias = piece
                        .get(k + 1)
                        .filter(|a| a.kind == TokKind::Ident)
                        .map(|a| a.text.clone());
                    break;
                }
                if let Some(prev) = leaf.take() {
                    prefix.push(prev);
                }
                leaf = Some(t.text.clone());
                k += 1;
            } else if t.kind == TokKind::Punct && t.text == "{" {
                if let Some(prev) = leaf.take() {
                    prefix.push(prev);
                }
                let inner_end = matching(piece, k, "{", "}").unwrap_or(piece.len());
                collect_use_leaves(piece.get(k + 1..inner_end).unwrap_or_default(), prefix, out);
                break;
            } else {
                k += 1; // `::` colons, `*` globs
            }
        }
        if let Some(leaf) = leaf {
            let mut path = prefix.clone();
            path.push(leaf.clone());
            out.push(UseDecl {
                alias: alias.unwrap_or(leaf),
                path,
            });
        }
        prefix.truncate(before);
    }
}

/// Parses one `fn` item starting at the `fn` token. Returns the item (if
/// a name was found) and the index to continue scanning from — just past
/// the signature, so nested items inside the body are still visited.
fn parse_fn(
    toks: &[Tok],
    in_test: &[bool],
    at: usize,
    qual: Option<String>,
    in_trait_impl: bool,
) -> (Option<FnItem>, usize) {
    let Some(name) = ident_at(toks, at + 1) else {
        return (None, at + 1);
    };
    let mut k = at + 2;
    if is_punct(toks, k, "<") {
        k = skip_generics(toks, k);
    }
    if !is_punct(toks, k, "(") {
        return (None, at + 1);
    }
    let Some(close) = matching(toks, k, "(", ")") else {
        return (None, at + 1);
    };
    let params = parse_params(toks.get(k + 1..close).unwrap_or_default(), qual.as_deref());
    let mut k = close + 1;
    // Return type.
    let mut ret = None;
    if is_punct(toks, k, "-") && is_punct(toks, k + 1, ">") {
        let start = k + 2;
        let mut angle = 0i32;
        let mut e = start;
        while e < toks.len() {
            let t = &toks[e];
            if t.kind == TokKind::Ident && t.text == "where" && angle <= 0 {
                break;
            }
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" if !is_punct(toks, e.wrapping_sub(1), "-") => angle -= 1,
                    "{" | ";" if angle <= 0 => break,
                    _ => {}
                }
            }
            e += 1;
        }
        ret = base_type_name(toks.get(start..e).unwrap_or_default());
        k = e;
    }
    // Skip a where clause to the body `{` or the `;`.
    while k < toks.len() {
        if is_punct(toks, k, "{") || is_punct(toks, k, ";") {
            break;
        }
        k += 1;
    }
    let body = if is_punct(toks, k, "{") {
        matching(toks, k, "{", "}").map(|end| (k, end))
    } else {
        None
    };
    // Visibility: scan back over fn-qualifier keywords.
    let mut b = at;
    let mut is_pub = false;
    while b > 0 {
        b -= 1;
        match toks[b].kind {
            TokKind::Ident => match toks[b].text.as_str() {
                "const" | "unsafe" | "async" | "extern" => continue,
                "pub" => {
                    is_pub = true;
                    break;
                }
                _ => break,
            },
            TokKind::Str => continue, // extern "C"
            TokKind::Punct if toks[b].text == ")" => {
                // pub(crate) etc: skip back to the `(` then expect pub.
                let mut depth = 0i32;
                while b > 0 {
                    if toks[b].kind == TokKind::Punct {
                        match toks[b].text.as_str() {
                            ")" => depth += 1,
                            "(" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    b -= 1;
                }
                continue;
            }
            _ => break,
        }
    }
    let item = FnItem {
        name,
        qual,
        is_pub,
        in_trait_impl,
        is_test: in_test.get(at).copied().unwrap_or(false),
        params,
        ret,
        body,
        line: toks[at].line,
    };
    // Continue just past the signature: the body is re-scanned so nested
    // fns are found (their bodies are subsets of this one's — harmless).
    (Some(item), k + 1)
}

/// Splits a parameter list on top-level commas and extracts name/type.
fn parse_params(toks: &[Tok], self_ty: Option<&str>) -> Vec<Param> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    let mut pieces: Vec<(usize, usize)> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "<" => angle += 1,
                ">" if !is_punct(toks, k.wrapping_sub(1), "-") => angle -= 1,
                "," if depth == 0 && angle <= 0 => {
                    pieces.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
        }
    }
    pieces.push((start, toks.len()));
    for (s, e) in pieces {
        let piece = toks.get(s..e).unwrap_or_default();
        if piece.is_empty() {
            continue;
        }
        // `self` receivers (`self`, `&self`, `&mut self`, `mut self`).
        if piece
            .iter()
            .take(4)
            .any(|t| t.kind == TokKind::Ident && t.text == "self")
        {
            out.push(Param {
                name: "self".to_string(),
                ty: self_ty.unwrap_or_default().to_string(),
            });
            continue;
        }
        // Find the top-level single `:` separating pattern from type.
        let mut depth = 0i32;
        let mut colon = None;
        let mut k = 0usize;
        while k < piece.len() {
            let t = &piece[k];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ">" if !is_punct(piece, k.wrapping_sub(1), "-") => depth -= 1,
                    ":" if depth == 0 => {
                        if is_punct(piece, k + 1, ":") {
                            k += 2;
                            continue;
                        }
                        colon = Some(k);
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let Some(colon) = colon else { continue };
        let name = piece
            .get(..colon)
            .unwrap_or_default()
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let ty = base_type_name(piece.get(colon + 1..).unwrap_or_default()).unwrap_or_default();
        if !name.is_empty() {
            out.push(Param { name, ty });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mark_test_tokens;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let (toks, _) = lex(src);
        let in_test = mark_test_tokens(&toks);
        parse_items(&toks, &in_test)
    }

    #[test]
    fn parses_free_and_impl_fns() {
        let p = parse(
            "pub fn free(a: u64, b: &Hash) -> Result<(), Error> { a }\n\
             struct S;\n\
             impl S { fn method(&self, x: Vec<u8>) {} }\n\
             impl Encode for S { fn encode(&self, out: &mut Vec<u8>) {} }\n",
        );
        assert_eq!(p.fns.len(), 3);
        let free = &p.fns[0];
        assert_eq!(free.name, "free");
        assert!(free.is_pub);
        assert_eq!(free.qual, None);
        assert_eq!(free.ret.as_deref(), Some("Result"));
        assert_eq!(
            free.params,
            vec![
                Param {
                    name: "a".into(),
                    ty: "u64".into()
                },
                Param {
                    name: "b".into(),
                    ty: "Hash".into()
                },
            ]
        );
        assert_eq!(p.fns[1].qual.as_deref(), Some("S"));
        assert_eq!(p.fns[1].params[0].name, "self");
        assert_eq!(p.fns[1].params[0].ty, "S");
        assert!(!p.fns[1].in_trait_impl);
        assert_eq!(p.fns[2].name, "encode");
        assert_eq!(p.fns[2].qual.as_deref(), Some("S"));
        assert!(p.fns[2].in_trait_impl);
        assert_eq!(
            p.trait_impls,
            vec![TraitImpl {
                ty: "S".into(),
                trait_name: "Encode".into()
            }]
        );
        assert!(p.types.contains(&"S".to_string()));
    }

    #[test]
    fn trait_default_methods_get_trait_qual() {
        let p = parse(
            "pub trait Decode: Sized {\n\
               fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;\n\
               fn decode_all(input: &[u8]) -> Result<Self, CodecError> { loop {} }\n\
             }\n",
        );
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].qual.as_deref(), Some("Decode"));
        assert!(p.fns[0].body.is_none(), "declaration has no body");
        assert!(p.fns[1].body.is_some(), "default method has a body");
        assert!(p.fns[1].in_trait_impl);
    }

    #[test]
    fn generic_impl_headers_resolve_self_type() {
        let p = parse("impl<A: TrustedApp> Enclave<A> { pub fn ecall(&self) {} }");
        assert_eq!(p.fns[0].qual.as_deref(), Some("Enclave"));
        assert!(p.fns[0].is_pub);
    }

    #[test]
    fn use_groups_and_renames() {
        let p = parse(
            "use dcert_primitives::codec::{decode_seq, Decode as D};\n\
             use crate::error::StoreError;\n",
        );
        assert!(p.uses.contains(&UseDecl {
            alias: "decode_seq".into(),
            path: vec![
                "dcert_primitives".into(),
                "codec".into(),
                "decode_seq".into()
            ],
        }));
        assert!(p.uses.contains(&UseDecl {
            alias: "D".into(),
            path: vec!["dcert_primitives".into(), "codec".into(), "Decode".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            alias: "StoreError".into(),
            path: vec!["crate".into(), "error".into(), "StoreError".into()],
        }));
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let p =
            parse("fn prod() {}\n#[cfg(test)]\nmod tests { fn helper() {} #[test] fn t() {} }\n");
        assert_eq!(p.fns.len(), 3);
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        assert!(p.fns[2].is_test);
    }

    #[test]
    fn crate_mapping() {
        assert_eq!(
            crate_of_path("crates/store/src/seg_store.rs").as_deref(),
            Some("dcert_store")
        );
        assert_eq!(crate_of_path("src/lib.rs").as_deref(), Some("dcert"));
        assert_eq!(crate_of_path("tests/chaos_network.rs"), None);
        assert_eq!(crate_of_path("crates/bench/benches/pipeline.rs"), None);
    }
}
