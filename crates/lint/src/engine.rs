//! Rule engine: scopes, test-code detection, allow directives, and the
//! four per-file DCert rules (R1–R4). The workspace-wide rules (R5–R8)
//! live in [`crate::rules`] on top of the call graph in [`crate::graph`].
//!
//! Rules are keyed by stable names so `// dcert-lint: allow(...)`
//! directives and CLI filters can reference them:
//!
//! * `r1-enclave-secrecy`
//! * `r2-panic-freedom`
//! * `r3-determinism`
//! * `r4-error-hygiene`
//! * `r5-panic-reachability`
//! * `r6-secret-taint`
//! * `r7-alloc-bound`
//! * `r8-durability-order`

use crate::lexer::{Comment, Tok, TokKind};

/// Pseudo-rule reported for `allow(...)` directives lacking a reason.
pub const MALFORMED_DIRECTIVE: &str = "malformed-directive";

/// All rule names, in report order.
pub const RULES: [&str; 8] = [
    "r1-enclave-secrecy",
    "r2-panic-freedom",
    "r3-determinism",
    "r4-error-hygiene",
    "r5-panic-reachability",
    "r6-secret-taint",
    "r7-alloc-bound",
    "r8-durability-order",
];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub msg: String,
}

/// One `dcert-lint: allow(...)` escape hatch found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    pub rule: String,
    pub reason: String,
    pub line: u32,
    /// Whether any finding was actually suppressed by this directive.
    pub used: bool,
}

/// Result of analyzing one file. The production driver merges per-file
/// and workspace findings before applying directives, so this one-shot
/// surface only backs the test suites.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub allows: Vec<AllowDirective>,
}

// ---------------------------------------------------------------------------
// Scoping tables. Paths are workspace-relative with forward slashes.
// ---------------------------------------------------------------------------

/// Modules allowed to name enclave-secret identifiers: the enclave crate
/// itself, the trusted certificate program (the in-enclave half that, by
/// design, lives in `dcert-core`), and the naive baseline's trusted
/// program used for paper comparisons.
pub const R1_TRUSTED_MODULES: [&str; 3] = [
    "crates/sgx/",
    "crates/core/src/program.rs",
    "crates/bench/src/naive.rs",
];

/// Identifiers that must not appear outside the trusted modules: secret
/// material accessors, sealed-state plumbing, and the traits that would
/// let untrusted code drive the trusted program without crossing the
/// ECall-accounted `Enclave` boundary.
const R1_BANNED_IDENTS: [&str; 8] = [
    "to_secret_bytes",
    "platform_secret",
    "export_state",
    "import_state",
    "Sealable",
    "TrustedApp",
    "sealing_key",
    "keystream_block",
];

/// The raw signature crate is confined to the `primitives::keys` wrapper.
const ED25519_IDENT: &str = "ed25519_dalek";
const ED25519_HOME: &str = "crates/primitives/src/keys.rs";

/// Untrusted-input modules: every byte they verify or decode may be
/// attacker-supplied, so they must reject, never panic.
pub const R2_VERIFIER_MODULES: [&str; 17] = [
    // The trusted program decodes host-controlled bytes and acts on them;
    // the block-validity rule it shares with the full node judges
    // host-supplied headers and bodies.
    "crates/core/src/program.rs",
    "crates/chain/src/validity.rs",
    "crates/core/src/superlight.rs",
    "crates/core/src/range.rs",
    "crates/store/src/",
    "crates/core/src/quorum.rs",
    "crates/core/src/cert.rs",
    "crates/core/src/messages.rs",
    "crates/primitives/src/codec.rs",
    "crates/primitives/src/keys.rs",
    "crates/primitives/src/hash.rs",
    "crates/primitives/src/hex.rs",
    // The whole directory, not file names: every merkle module verifies
    // attacker-supplied proofs (`ops.rs` executes attacker-supplied
    // programs), and a rename must not be able to drop one from scope.
    "crates/merkle/src/",
    "crates/query/src/",
    "crates/serve/src/wire.rs",
    "crates/sgx/src/sealing.rs",
    "crates/sgx/src/attestation.rs",
];

/// Integer targets of `as` casts that can silently truncate or re-sign
/// attacker-controlled lengths/offsets.
const R2_TRUNCATING_CASTS: [&str; 8] = ["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

/// The only modules allowed to read wall-clock time or ambient
/// randomness: the simulated network's virtual clock, and the SGX cost
/// model's calibrated busy-wait and `timed` helper (which everything
/// else, the certification stages included, measures through).
const R3_ALLOWED_MODULES: [&str; 2] = ["crates/core/src/netsim.rs", "crates/sgx/src/cost.rs"];

/// Crates exempt from determinism scanning: the benchmark harness exists
/// to measure wall time, and the linter is a build tool.
const R3_EXEMPT_TREES: [&str; 2] = ["crates/bench/", "crates/lint/"];

const R3_BANNED_IDENTS: [&str; 5] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "OsRng",
];

/// Types that make a `static` process-global *mutable* state; with any
/// `Atomic*`, refused inside the verifier-path scope
/// ([`R2_VERIFIER_MODULES`]). (`RefCell` is not listed: a `thread_local!`
/// scratch buffer is seen by one thread and cleared before every use.)
const R3_SHARED_CELLS: [&str; 4] = ["Mutex", "RwLock", "OnceLock", "LazyLock"];

/// `thread::` items that start a thread.
const R3_THREAD_STARTS: [&str; 3] = ["spawn", "scope", "Builder"];

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Returns true for paths whose contents are test/bench/example harness
/// code rather than shipped library code.
pub fn is_harness_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

pub fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Analyzes one file with the per-file rules (R1–R4) and applies its
/// allow directives. `path` must be workspace-relative with `/`
/// separators; `source` is its full text. The two-phase driver in
/// `main` uses [`file_rule_findings`] + [`apply_allows`] directly so
/// workspace findings (R5–R8) share the directive contract.
#[cfg(test)]
pub fn analyze_source(path: &str, source: &str) -> FileReport {
    let (toks, comments) = crate::lexer::lex(source);
    let in_test = mark_test_tokens(&toks);
    let mut allows = parse_allow_directives(&comments);
    let mut findings = file_rule_findings(path, &toks, &in_test);
    apply_allows(&mut findings, &mut allows);
    FileReport { findings, allows }
}

/// Runs the per-file rules (R1–R4) without applying allow directives.
pub fn file_rule_findings(path: &str, toks: &[Tok], in_test: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !is_harness_path(path) || path.starts_with("examples/") || path.contains("/examples/") {
        rule_r1(path, toks, in_test, &mut findings);
    }
    if !is_harness_path(path) {
        rule_r2(path, toks, in_test, &mut findings);
        rule_r3(path, toks, in_test, &mut findings);
        rule_r4(path, toks, in_test, &mut findings);
    }
    findings
}

/// Applies allow directives: a directive suppresses findings of its rule
/// on its own line and the line directly below it. A directive without
/// a reason suppresses nothing — it is reported instead, so the escape
/// hatch can never silently erode an invariant. Findings come back sorted
/// by position.
pub fn apply_allows(findings: &mut Vec<Finding>, allows: &mut [AllowDirective]) {
    findings.retain(|f| {
        for a in allows.iter_mut() {
            if !a.reason.is_empty()
                && (a.rule == f.rule || f.rule.get(..2).is_some_and(|prefix| a.rule == prefix))
                && (f.line == a.line || f.line == a.line + 1)
            {
                a.used = true;
                return false;
            }
        }
        true
    });
    for a in allows.iter() {
        if a.reason.is_empty() {
            findings.push(Finding {
                rule: MALFORMED_DIRECTIVE,
                line: a.line,
                col: 1,
                msg: format!(
                    "`dcert-lint: allow({})` is missing a `reason = \"...\"`; \
                     undocumented escapes are not honored",
                    a.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.col));
}

// ---------------------------------------------------------------------------
// Test-code detection.
// ---------------------------------------------------------------------------

/// Marks tokens inside `#[cfg(test)]` items and `#[test]` functions, so
/// rules can exempt them. Returns one bool per token.
pub fn mark_test_tokens(toks: &[Tok]) -> Vec<bool> {
    let mut test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Punct && toks[i].text == "#") {
            i += 1;
            continue;
        }
        // Parse the attribute `#[...]` (or inner `#![...]`).
        let mut j = i + 1;
        if j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "!" {
            j += 1;
        }
        if !(j < toks.len() && toks[j].kind == TokKind::Punct && toks[j].text == "[") {
            i += 1;
            continue;
        }
        let attr_start = j + 1;
        let attr_end = match matching_bracket(toks, j, "[", "]") {
            Some(e) => e,
            None => break,
        };
        if is_test_attr(&toks[attr_start..attr_end]) {
            // Skip any further attributes, then mark the following item.
            let mut k = attr_end + 1;
            while k + 1 < toks.len() && toks[k].kind == TokKind::Punct && toks[k].text == "#" {
                let mut b = k + 1;
                if toks[b].kind == TokKind::Punct && toks[b].text == "!" {
                    b += 1;
                }
                match matching_bracket(toks, b, "[", "]") {
                    Some(e) => k = e + 1,
                    None => break,
                }
            }
            let item_end = item_extent(toks, k);
            for t in test.iter_mut().take(item_end.min(toks.len())).skip(i) {
                *t = true;
            }
            i = item_end;
        } else {
            i = attr_end + 1;
        }
    }
    test
}

/// Does this attribute body gate on test compilation? Matches
/// `cfg(test)` / `cfg(any(test, ...))` / plain `test`, but *not*
/// `cfg_attr(test, ...)` (which still compiles the item for non-test
/// builds).
fn is_test_attr(body: &[Tok]) -> bool {
    match body.first() {
        Some(t) if t.kind == TokKind::Ident => match t.text.as_str() {
            "test" => body.len() == 1,
            "cfg" => body
                .iter()
                .skip(1)
                .any(|t| t.kind == TokKind::Ident && t.text == "test"),
            _ => false,
        },
        _ => false,
    }
}

/// Index just past the end of the item starting at `start`: the matching
/// `}` of its first top-level brace block, or its terminating `;`.
fn item_extent(toks: &[Tok], start: usize) -> usize {
    let mut depth_paren = 0i32;
    let mut depth_brack = 0i32;
    let mut k = start;
    while k < toks.len() {
        if toks[k].kind == TokKind::Punct {
            match toks[k].text.as_str() {
                "(" => depth_paren += 1,
                ")" => depth_paren -= 1,
                "[" => depth_brack += 1,
                "]" => depth_brack -= 1,
                ";" if depth_paren == 0 && depth_brack == 0 => return k + 1,
                "{" if depth_paren == 0 && depth_brack == 0 => {
                    return matching_bracket(toks, k, "{", "}")
                        .map(|e| e + 1)
                        .unwrap_or(toks.len());
                }
                _ => {}
            }
        }
        k += 1;
    }
    toks.len()
}

/// Index of the bracket matching `toks[open]`.
fn matching_bracket(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
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

// ---------------------------------------------------------------------------
// Allow directives.
// ---------------------------------------------------------------------------

/// Parses `// dcert-lint: allow(<rules...>, reason = "...")` comments.
/// One or more comma-separated rule names may precede the reason clause
/// (`allow(r2-panic-freedom, r5-panic-reachability, reason = "...")`),
/// yielding one directive per rule sharing the reason and line. A
/// directive without a reason is deliberately *not* honored — the
/// escape hatch exists to document why a rule is violated, and the main
/// driver reports such malformed directives as violations of the rule
/// they tried to silence.
pub fn parse_allow_directives(comments: &[Comment]) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("dcert-lint:") else {
            continue;
        };
        let rest = c.text[pos + "dcert-lint:".len()..].trim_start();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            continue;
        };
        // Rule names come first, so the first `reason` is the keyword.
        let (rules_part, reason) = match args.find("reason") {
            Some(at) => {
                let reason = args[at..]
                    .strip_prefix("reason")
                    .and_then(|r| r.trim_start().strip_prefix('='))
                    .and_then(|r| r.trim().strip_prefix('"'))
                    .map(|r| r.trim_end_matches('"').to_string())
                    .unwrap_or_default();
                (args[..at].trim_end().trim_end_matches(','), reason)
            }
            None => (args, String::new()),
        };
        let mut any = false;
        for rule in rules_part.split(',') {
            let rule = rule.trim();
            if rule.is_empty() {
                continue;
            }
            any = true;
            out.push(AllowDirective {
                rule: rule.to_string(),
                reason: reason.clone(),
                line: c.line,
                used: false,
            });
        }
        if !any {
            // `allow()` / `allow(reason = "...")`: keep one (malformed)
            // entry so the directive is reported rather than ignored.
            out.push(AllowDirective {
                rule: String::new(),
                reason: String::new(),
                line: c.line,
                used: false,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R1: enclave secrecy.
// ---------------------------------------------------------------------------

fn rule_r1(path: &str, toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    const RULE: &str = "r1-enclave-secrecy";
    if !in_any(path, &R1_TRUSTED_MODULES) {
        for (k, t) in toks.iter().enumerate() {
            if in_test[k] || t.kind != TokKind::Ident {
                continue;
            }
            if R1_BANNED_IDENTS.contains(&t.text.as_str()) {
                findings.push(Finding {
                    rule: RULE,
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "`{}` names enclave-secret machinery outside the trusted boundary \
                         (crates/sgx + the trusted program modules); go through the \
                         `Enclave` ECall/seal API instead",
                        t.text
                    ),
                });
            }
        }
    }
    if path != ED25519_HOME && !path.starts_with("crates/sgx/") {
        for (k, t) in toks.iter().enumerate() {
            if in_test[k] || t.kind != TokKind::Ident {
                continue;
            }
            if t.text == ED25519_IDENT {
                findings.push(Finding {
                    rule: RULE,
                    line: t.line,
                    col: t.col,
                    msg: "raw `ed25519_dalek` is confined to primitives::keys; use the \
                          `Keypair`/`PublicKey`/`Signature` wrappers"
                        .to_string(),
                });
            }
        }
    }
    // Inside the enclave container itself: the `Enclave` struct must keep
    // every field private, so no code can reach around the ECall
    // accounting or touch the platform secret.
    if path == "crates/sgx/src/enclave.rs" {
        let mut k = 0usize;
        while k + 1 < toks.len() {
            if toks[k].kind == TokKind::Ident
                && toks[k].text == "struct"
                && toks[k + 1].kind == TokKind::Ident
                && toks[k + 1].text == "Enclave"
            {
                // Find the field block `{`, skipping generics.
                let mut b = k + 2;
                while b < toks.len() && !(toks[b].kind == TokKind::Punct && toks[b].text == "{") {
                    b += 1;
                }
                if let Some(end) = matching_bracket(toks, b, "{", "}") {
                    let mut depth = 0i32;
                    for t in &toks[b..end] {
                        if t.kind == TokKind::Punct {
                            match t.text.as_str() {
                                "{" | "(" | "[" => depth += 1,
                                "}" | ")" | "]" => depth -= 1,
                                _ => {}
                            }
                        }
                        if depth == 1 && t.kind == TokKind::Ident && t.text == "pub" {
                            findings.push(Finding {
                                rule: RULE,
                                line: t.line,
                                col: t.col,
                                msg: "`Enclave` fields must stay private: a public field \
                                      bypasses the ECall-accounted trust boundary"
                                    .to_string(),
                            });
                        }
                    }
                }
                k = b;
            }
            k += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// R2: panic freedom on untrusted input.
// ---------------------------------------------------------------------------

/// Identifiers after which a `[` cannot be an index expression.
const NON_INDEX_KEYWORDS: [&str; 17] = [
    "return", "break", "continue", "in", "if", "else", "match", "move", "let", "mut", "ref",
    "const", "static", "where", "for", "dyn", "impl",
];

fn rule_r2(path: &str, toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    const RULE: &str = "r2-panic-freedom";
    if !in_any(path, &R2_VERIFIER_MODULES) {
        return;
    }
    for k in 0..toks.len() {
        if in_test[k] {
            continue;
        }
        let t = &toks[k];
        // `.unwrap(` / `.expect(`
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && k >= 1
            && toks[k - 1].kind == TokKind::Punct
            && toks[k - 1].text == "."
            && k + 1 < toks.len()
            && toks[k + 1].kind == TokKind::Punct
            && toks[k + 1].text == "("
        {
            findings.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                msg: format!(
                    "`.{}()` in a verifier path can panic on attacker-supplied input; \
                     return a typed error instead",
                    t.text
                ),
            });
            continue;
        }
        // panic-family macros
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && k + 1 < toks.len()
            && toks[k + 1].kind == TokKind::Punct
            && toks[k + 1].text == "!"
        {
            findings.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                msg: format!(
                    "`{}!` in a verifier path is a remote DoS on malformed input; \
                     return a typed error instead",
                    t.text
                ),
            });
            continue;
        }
        // Index / slice expressions: `expr[...]`.
        if t.kind == TokKind::Punct && t.text == "[" && k >= 1 {
            let p = &toks[k - 1];
            let indexable = match p.kind {
                TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.text == ")" || p.text == "]" || p.text == "?",
                _ => false,
            };
            if indexable {
                findings.push(Finding {
                    rule: RULE,
                    line: t.line,
                    col: t.col,
                    msg: "slice/array indexing in a verifier path panics when out of \
                          bounds; use `.get()`/`.get_mut()` or `split_at_checked`-style \
                          accessors"
                        .to_string(),
                });
                continue;
            }
        }
        // Truncating `as` casts.
        if t.kind == TokKind::Ident
            && t.text == "as"
            && k + 1 < toks.len()
            && toks[k + 1].kind == TokKind::Ident
            && R2_TRUNCATING_CASTS.contains(&toks[k + 1].text.as_str())
        {
            findings.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                msg: format!(
                    "`as {}` silently truncates attacker-controlled integers in a \
                     verifier path; use `try_into`/`try_from` with a typed error",
                    toks[k + 1].text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// R3: determinism.
// ---------------------------------------------------------------------------

fn rule_r3(path: &str, toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    const RULE: &str = "r3-determinism";
    if in_any(path, &R3_ALLOWED_MODULES) || in_any(path, &R3_EXEMPT_TREES) {
        return;
    }
    // On a verifier path the trusted program must also be a function of
    // its input: no process-global mutable state, no thread start.
    let verifier_path = in_any(path, &R2_VERIFIER_MODULES);
    let is_punct = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    };
    for (k, t) in toks.iter().enumerate() {
        if in_test[k] || t.kind != TokKind::Ident {
            continue;
        }
        if R3_BANNED_IDENTS.contains(&t.text.as_str()) {
            findings.push(Finding {
                rule: RULE,
                line: t.line,
                col: t.col,
                msg: format!(
                    "`{}` is an ambient time/randomness source; outside \
                     netsim/sgx::cost it breaks seeded bit-for-bit replay — \
                     route timing through `dcert_sgx::cost::timed` and randomness \
                     through an injected seed",
                    t.text
                ),
            });
        }
        if !verifier_path {
            continue;
        }
        // `static NAME: <type>` up to its `=` (or `;`).
        if t.text == "static" {
            let shared = toks
                .iter()
                .skip(k + 1)
                .take_while(|t| !(t.kind == TokKind::Punct && (t.text == "=" || t.text == ";")))
                .find(|t| {
                    t.kind == TokKind::Ident
                        && (t.text.starts_with("Atomic")
                            || R3_SHARED_CELLS.contains(&t.text.as_str()))
                });
            if let Some(cell) = shared {
                findings.push(Finding {
                    rule: RULE,
                    line: t.line,
                    col: t.col,
                    msg: format!(
                        "`static` `{}` is process-global mutable state on a verifier \
                         path; the trusted program must be a function of its input — \
                         pass the value as an argument",
                        cell.text
                    ),
                });
            }
        }
        // `thread::spawn` / `thread::scope` / `thread::Builder`, named
        // directly or through a `thread::{..}` import list.
        if t.text == "thread" && is_punct(k + 1, ":") && is_punct(k + 2, ":") {
            let named = if is_punct(k + 3, "{") {
                let end = matching_bracket(toks, k + 3, "{", "}").unwrap_or(toks.len());
                toks.get(k + 4..end).unwrap_or(&[])
            } else {
                toks.get(k + 3..k + 4).unwrap_or(&[])
            };
            for start in named {
                if start.kind == TokKind::Ident && R3_THREAD_STARTS.contains(&start.text.as_str()) {
                    findings.push(Finding {
                        rule: RULE,
                        line: start.line,
                        col: start.col,
                        msg: format!(
                            "`thread::{}` on a verifier path: the trusted program runs on \
                             the calling thread and starts none — how many threads to use \
                             is host configuration, not input",
                            start.text
                        ),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R4: error-type hygiene.
// ---------------------------------------------------------------------------

fn rule_r4(path: &str, toks: &[Tok], in_test: &[bool], findings: &mut Vec<Finding>) {
    const RULE: &str = "r4-error-hygiene";
    if path.starts_with("crates/lint/") {
        return;
    }
    let mut k = 0usize;
    while k + 3 < toks.len() {
        // `-> Result <`
        let arrow = toks[k].kind == TokKind::Punct
            && toks[k].text == "-"
            && toks[k + 1].kind == TokKind::Punct
            && toks[k + 1].text == ">";
        if arrow
            && !in_test[k]
            && toks[k + 2].kind == TokKind::Ident
            && toks[k + 2].text == "Result"
            && toks[k + 3].kind == TokKind::Punct
            && toks[k + 3].text == "<"
        {
            // Collect the top-level generic args.
            let open = k + 3;
            let mut depth = 0i32;
            let mut e = open;
            let mut top_commas = Vec::new();
            while e < toks.len() {
                if toks[e].kind == TokKind::Punct {
                    match toks[e].text.as_str() {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        "," if depth == 1 => top_commas.push(e),
                        _ => {}
                    }
                }
                e += 1;
            }
            if let Some(&comma) = top_commas.first() {
                let err_toks = &toks[comma + 1..e];
                if let Some(first) = err_toks.iter().find(|t| t.kind != TokKind::Punct) {
                    if first.text == "String" {
                        findings.push(Finding {
                            rule: RULE,
                            line: first.line,
                            col: first.col,
                            msg: "fallible API returns `Result<_, String>`; return the \
                                  crate's typed `Error` so callers can match on failure \
                                  modes"
                                .to_string(),
                        });
                    } else if first.text == "Box"
                        && err_toks
                            .iter()
                            .any(|t| t.kind == TokKind::Ident && t.text == "dyn")
                    {
                        findings.push(Finding {
                            rule: RULE,
                            line: first.line,
                            col: first.col,
                            msg: "fallible API returns `Result<_, Box<dyn ...>>`; return \
                                  the crate's typed `Error` so callers can match on \
                                  failure modes"
                                .to_string(),
                        });
                    }
                }
            }
            k = e;
        }
        k += 1;
    }
}
