//! `dcert-lint` — repo-specific static analysis for the DCert workspace.
//!
//! The compiler cannot check DCert's load-bearing security invariants:
//! the enclave secret key never crosses the `dcert-sgx` trust boundary,
//! and client-side verifiers must *reject* malformed untrusted input
//! rather than panic. This tool enforces them — no nightly compiler
//! plumbing, no dependencies — and fails CI on violation. Analysis runs
//! in two phases:
//!
//! **Per-file (lexical)** — R1–R4 from PR 3:
//!
//! * **R1 `r1-enclave-secrecy`** — secret-key/sealing identifiers and the
//!   `TrustedApp`/`Sealable` traits are confined to the trusted modules;
//!   `Enclave` fields stay private; raw `ed25519_dalek` stays inside
//!   `primitives::keys`.
//! * **R2 `r2-panic-freedom`** — no `unwrap`/`expect`/`panic!`-family
//!   macros, slice indexing, or truncating `as` casts in designated
//!   untrusted-input modules.
//! * **R3 `r3-determinism`** — no ambient time or randomness outside
//!   `core::netsim` and `sgx::cost`; on verifier paths (R2's scope) also
//!   no process-global mutable `static` and no thread start.
//! * **R4 `r4-error-hygiene`** — fallible APIs return crate `Error`
//!   types, never `Result<_, String>` or `Result<_, Box<dyn ...>>`.
//!
//! **Workspace (call graph + dataflow)** — R5–R8: an item-level parser
//! builds a workspace-wide call graph with resolved cross-crate edges
//! plus per-function dataflow facts, and on top of it:
//!
//! * **R5 `r5-panic-reachability`** — no panic construct reachable
//!   (transitively, across crates) from verifier/enclave entry points;
//!   findings carry the full call-path witness.
//! * **R6 `r6-secret-taint`** — secret *values* must not flow into
//!   formatting, wire encoders, or non-allow-listed functions outside
//!   the trusted modules; taint propagates through calls with a
//!   multi-hop witness.
//! * **R7 `r7-alloc-bound`** — allocations sized from wire-decoded
//!   lengths must be dominated by a bound check.
//! * **R8 `r8-durability-order`** — in `dcert-store`, no segment
//!   unlink/truncate reachable from steady-state entry points before
//!   the head-commit `sync()`.
//!
//! Escape hatch (counted and reported, never silent), shared by all
//! eight rules:
//!
//! ```text
//! // dcert-lint: allow(r2-panic-freedom, reason = "length checked above")
//! ```
//!
//! Usage: `cargo run -p dcert-lint -- [--deny-all] [--root DIR]
//! [--rule NAME]... [--format text|github]`

#![forbid(unsafe_code)]

mod engine;
mod flow;
mod graph;
mod lexer;
mod parse;
mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use engine::{AllowDirective, Finding, RULES};

/// Directories never scanned: build output, VCS, the linter's own
/// intentionally-violating fixtures, and vendored sources if any appear.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "fixtures", "vendor", ".github"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Github,
}

struct Options {
    root: PathBuf,
    deny_all: bool,
    rules: Vec<String>,
    format: Format,
}

fn usage() -> &'static str {
    "dcert-lint: DCert workspace static analysis\n\
     \n\
     USAGE: dcert-lint [--deny-all] [--root DIR] [--rule NAME]... [--format MODE]\n\
     \n\
     --deny-all     exit nonzero if any violation is found (CI mode)\n\
     --root DIR     workspace root to scan (default: current directory)\n\
     --rule NAME    only run the named rule (repeatable); names:\n\
                    r1-enclave-secrecy r2-panic-freedom r3-determinism\n\
                    r4-error-hygiene r5-panic-reachability r6-secret-taint\n\
                    r7-alloc-bound r8-durability-order\n\
     --format MODE  `text` (default) or `github` (workflow-command\n\
                    annotations: `::error file=...,line=...::msg`)\n\
     -h, --help     show this help"
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        deny_all: false,
        rules: Vec::new(),
        format: Format::Text,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-all" => opts.deny_all = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root requires a directory")?);
            }
            "--rule" => {
                let name = args.next().ok_or("--rule requires a rule name")?;
                let name = match name.as_str() {
                    "r1" => "r1-enclave-secrecy".to_string(),
                    "r2" => "r2-panic-freedom".to_string(),
                    "r3" => "r3-determinism".to_string(),
                    "r4" => "r4-error-hygiene".to_string(),
                    "r5" => "r5-panic-reachability".to_string(),
                    "r6" => "r6-secret-taint".to_string(),
                    "r7" => "r7-alloc-bound".to_string(),
                    "r8" => "r8-durability-order".to_string(),
                    _ => name,
                };
                if !RULES.contains(&name.as_str()) {
                    return Err(format!("unknown rule `{name}`"));
                }
                opts.rules.push(name);
            }
            "--format" => {
                let mode = args.next().ok_or("--format requires a mode")?;
                opts.format = match mode.as_str() {
                    "text" => Format::Text,
                    "github" => Format::Github,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Recursively collects workspace `.rs` files, skipping [`SKIP_DIRS`].
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            // The linter's own sources discuss directive syntax in prose;
            // scanning them would misread the docs as real directives.
            if name == "lint" && path.parent().is_some_and(|p| p.ends_with("crates")) {
                continue;
            }
            collect_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Escapes a workflow-command message (`::error ...::<msg>`).
fn gh_escape_msg(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Escapes a workflow-command property value (`file=...`).
fn gh_escape_prop(s: &str) -> String {
    gh_escape_msg(s).replace(':', "%3A").replace(',', "%2C")
}

/// Per-path analysis output: surviving findings and every directive,
/// each tagged with its file.
type WorkspaceReport = (Vec<(String, Finding)>, Vec<(String, AllowDirective)>);

/// Both analysis phases plus directive application over loaded sources:
/// per-file rules (R1–R4), the workspace call graph with rules R5–R8,
/// then each file's allow directives across the merged findings. Shared
/// by `main` and the workspace-clean regression test.
fn analyze_workspace(sources: &[(String, String)]) -> (graph::Graph, WorkspaceReport) {
    // Phase 1: per-file rules + allow directives.
    let mut by_path: BTreeMap<String, (Vec<Finding>, Vec<AllowDirective>)> = BTreeMap::new();
    for (rel, source) in sources {
        let (toks, comments) = lexer::lex(source);
        let in_test = engine::mark_test_tokens(&toks);
        let findings = engine::file_rule_findings(rel, &toks, &in_test);
        let allows = engine::parse_allow_directives(&comments);
        by_path.insert(rel.clone(), (findings, allows));
    }

    // Phase 2: workspace call-graph rules.
    let ws = graph::Graph::build(sources);
    for (fi, f) in rules::run_all(&ws) {
        let path = ws.files[fi].path.clone();
        by_path.entry(path).or_default().0.push(f);
    }

    // Apply each file's allow directives across both phases.
    let mut findings: Vec<(String, Finding)> = Vec::new();
    let mut allows: Vec<(String, AllowDirective)> = Vec::new();
    for (path, (mut fs, mut als)) in by_path {
        engine::apply_allows(&mut fs, &mut als);
        for f in fs {
            findings.push((path.clone(), f));
        }
        for a in als {
            allows.push((path.clone(), a));
        }
    }
    (ws, (findings, allows))
}

/// Loads every workspace source under `root` as `(relative path, text)`.
fn load_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    collect_sources(root, &mut files)?;
    let mut sources = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(path)?));
    }
    Ok(sources)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let sources = match load_sources(&opts.root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: walking {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };
    let scanned = sources.len();

    let (ws, (all_findings, allows)) = analyze_workspace(&sources);
    for d in &ws.dangling {
        eprintln!(
            "warning: dangling call edge {}:{} -> `{}` (intra-workspace path did not resolve)",
            ws.files[d.file].path, d.line, d.path
        );
    }
    let mut findings: Vec<(String, Finding)> = all_findings
        .into_iter()
        .filter(|(_, f)| opts.rules.is_empty() || opts.rules.iter().any(|r| r == f.rule))
        .collect();

    findings.sort_by(|a, b| (&a.0, a.1.line, a.1.col).cmp(&(&b.0, b.1.line, b.1.col)));
    for (path, f) in &findings {
        match opts.format {
            Format::Text => println!("{path}:{}:{}: {}: {}", f.line, f.col, f.rule, f.msg),
            Format::Github => println!(
                "::error file={},line={},col={},title=dcert-lint {}::{}",
                gh_escape_prop(path),
                f.line,
                f.col,
                gh_escape_prop(f.rule),
                gh_escape_msg(&f.msg)
            ),
        }
    }

    if !allows.is_empty() {
        println!("\nallow directives ({}):", allows.len());
        for (path, a) in &allows {
            let status = if a.used { "used" } else { "UNUSED" };
            println!(
                "  {path}:{}: allow({}) [{status}] reason: {}",
                a.line, a.rule, a.reason
            );
        }
    }

    let edge_count: usize = ws.edges.iter().map(Vec::len).sum();
    println!(
        "\ndcert-lint: {} file(s) scanned, {} fn(s), {} call edge(s), {} dangling, \
         {} violation(s), {} allow directive(s)",
        scanned,
        ws.fns.len(),
        edge_count,
        ws.dangling.len(),
        findings.len(),
        allows.len()
    );

    if opts.deny_all && !findings.is_empty() {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::engine::{analyze_source, MALFORMED_DIRECTIVE};
    use super::graph::Graph;
    use super::lexer::{lex, TokKind};
    use super::rules::run_all;

    // -- lexer ----------------------------------------------------------

    #[test]
    fn lexer_separates_idents_strings_and_comments() {
        let (toks, comments) = lex("let x = \"unwrap()\"; // .unwrap() here\nfoo.unwrap();");
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "x", "foo", "unwrap"]);
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains(".unwrap()"));
        let unwrap_tok = toks.iter().find(|t| t.text == "unwrap").unwrap();
        assert_eq!((unwrap_tok.line, unwrap_tok.col), (2, 5));
    }

    #[test]
    fn lexer_handles_lifetimes_chars_and_raw_strings() {
        let (toks, _) =
            lex("fn f<'a>(x: &'a str) -> char { let c = 'x'; let s = r#\"panic!\"#; c }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        // `panic` inside the raw string is not an ident.
        assert!(!toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "panic"));
    }

    #[test]
    fn lexer_handles_nested_block_comments() {
        let (toks, comments) = lex("/* outer /* inner */ still */ ident");
        assert_eq!(comments.len(), 1);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].text, "ident");
    }

    // -- test-code detection -------------------------------------------

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn prod(v: &[u8]) { v.to_vec().unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t(v: Vec<u8>) { v.unwrap(); }\n}\n";
        let report = analyze_source("crates/core/src/superlight.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 1);
    }

    #[test]
    fn cfg_attr_test_is_not_exempt() {
        let src = "#[cfg_attr(test, allow(dead_code))]\nfn prod() { x.unwrap(); }\n";
        let report = analyze_source("crates/core/src/superlight.rs", src);
        assert_eq!(report.findings.len(), 1, "cfg_attr items still ship");
    }

    // -- fixtures: each per-file rule fires with the right span ---------

    #[test]
    fn r1_fires_on_secrecy_fixture() {
        let src = include_str!("../fixtures/r1_enclave_secrecy.rs");
        let report = analyze_source("crates/chain/src/store.rs", src);
        let r1: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == "r1-enclave-secrecy")
            .collect();
        let lines: Vec<u32> = r1.iter().map(|f| f.line).collect();
        // TrustedApp import, Sealable import, to_secret_bytes call,
        // import_state call, ed25519_dalek use.
        assert_eq!(lines, vec![6, 6, 12, 15, 19]);
    }

    #[test]
    fn r1_allows_trusted_modules() {
        let src = include_str!("../fixtures/r1_enclave_secrecy.rs");
        let report = analyze_source("crates/sgx/src/sealing2.rs", src);
        // Only the ed25519_dalek confinement check applies inside sgx —
        // and it is scoped off for the sgx crate too.
        assert!(report
            .findings
            .iter()
            .all(|f| f.rule != "r1-enclave-secrecy"));
    }

    #[test]
    fn r1_fires_on_public_enclave_field() {
        let src = "pub struct Enclave<A> {\n    pub platform: u8,\n    cost: u8,\n}\n";
        let report = analyze_source("crates/sgx/src/enclave.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 2);
    }

    #[test]
    fn r2_fires_on_panic_fixture() {
        let src = include_str!("../fixtures/r2_panic_freedom.rs");
        let report = analyze_source("crates/core/src/superlight.rs", src);
        let lines: Vec<(u32, &str)> = report
            .findings
            .iter()
            .filter(|f| f.rule == "r2-panic-freedom")
            .map(|f| (f.line, f.msg.split_whitespace().next().unwrap()))
            .collect();
        // One per banned construct, in order: the regression `.unwrap()`
        // on ias.attest, `.expect`, `panic!`, `unreachable!`, indexing,
        // slicing, truncating cast.
        let expected_lines: Vec<u32> = vec![9, 14, 19, 21, 27, 29, 34];
        assert_eq!(
            lines.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            expected_lines
        );
        // And the cfg(test) module at the bottom contributed nothing.
        assert!(lines.iter().all(|(l, _)| *l < 40));
    }

    #[test]
    fn r2_ignores_files_outside_verifier_scope() {
        let src = include_str!("../fixtures/r2_panic_freedom.rs");
        let report = analyze_source("crates/workloads/src/generator.rs", src);
        assert!(report.findings.iter().all(|f| f.rule != "r2-panic-freedom"));
    }

    #[test]
    fn r3_fires_on_determinism_fixture() {
        let src = include_str!("../fixtures/r3_determinism.rs");
        let report = analyze_source("crates/chain/src/node.rs", src);
        let lines: Vec<u32> = report
            .findings
            .iter()
            .filter(|f| f.rule == "r3-determinism")
            .map(|f| f.line)
            .collect();
        // Instant import, Instant::now, SystemTime, thread_rng, OsRng,
        // from_entropy — but NOT the allow-escaped OsRng below them, and
        // (outside the verifier-path scope) not the statics and threads.
        assert_eq!(lines, vec![4, 8, 12, 14, 16, 18]);
    }

    #[test]
    fn r3_holds_verifier_paths_to_no_global_state_and_no_threads() {
        let src = include_str!("../fixtures/r3_determinism.rs");
        let report = analyze_source("crates/merkle/src/mht.rs", src);
        let lines: Vec<u32> = report
            .findings
            .iter()
            .filter(|f| f.rule == "r3-determinism")
            .map(|f| f.line)
            .collect();
        // The six ambient sources as above, then: the Atomic, Mutex and
        // OnceLock statics; `thread::scope`, `thread::spawn`,
        // `thread::Builder`; `spawn` in the import list. NOT the plain
        // static, the `'static` lifetime, the thread-local `RefCell`,
        // `scope.spawn`, `thread::current`, `sleep`, or the allow-escaped
        // static at the bottom.
        assert_eq!(
            lines,
            vec![4, 8, 12, 14, 16, 18, 25, 27, 29, 40, 43, 44, 48]
        );
        // The escape was used, not ignored.
        assert!(report.allows.iter().all(|a| a.used));
    }

    #[test]
    fn r3_allowlists_sim_clock_modules() {
        let src = include_str!("../fixtures/r3_determinism.rs");
        for path in ["crates/core/src/netsim.rs", "crates/sgx/src/cost.rs"] {
            let report = analyze_source(path, src);
            assert!(
                report.findings.iter().all(|f| f.rule != "r3-determinism"),
                "{path} should be allowlisted"
            );
        }
    }

    #[test]
    fn r4_fires_on_error_hygiene_fixture() {
        let src = include_str!("../fixtures/r4_error_hygiene.rs");
        let report = analyze_source("crates/chain/src/state.rs", src);
        let lines: Vec<u32> = report
            .findings
            .iter()
            .filter(|f| f.rule == "r4-error-hygiene")
            .map(|f| f.line)
            .collect();
        // String error, Box<dyn Error>, trait-method String error. The
        // typed-error fn and the Result<String, Error> (String payload,
        // typed error) must not fire.
        assert_eq!(lines, vec![4, 9, 16]);
    }

    // -- allow escape hatch --------------------------------------------

    #[test]
    fn allow_directive_suppresses_counts_and_requires_reason() {
        let src = include_str!("../fixtures/allow_escape.rs");
        let report = analyze_source("crates/core/src/superlight.rs", src);
        // The documented escape suppressed its violation…
        assert!(report
            .findings
            .iter()
            .all(|f| !(f.rule == "r2-panic-freedom" && f.line == 7)));
        // …the reasonless escape did not…
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "r2-panic-freedom" && f.line == 11));
        // …and was itself reported as malformed.
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == MALFORMED_DIRECTIVE && f.line == 10));
        // Both directives are counted; the first was used.
        assert_eq!(report.allows.len(), 2);
        assert!(report.allows[0].used);
        assert!(!report.allows[1].used);
        assert_eq!(report.allows[0].reason, "length checked on entry");
    }

    #[test]
    fn multi_rule_allow_directive_covers_each_listed_rule() {
        // Two rules, one directive, one shared reason: both the r2 hits
        // on the next line are suppressed; an unrelated rule is not.
        let src = "fn get(v: &[u8], i: usize) -> u8 {\n\
                   \x20   // dcert-lint: allow(r2-panic-freedom, r3-determinism, reason = \"SP-side data\")\n\
                   \x20   v[i]\n\
                   }\n";
        let report = analyze_source("crates/core/src/superlight.rs", src);
        assert!(
            report.findings.is_empty(),
            "multi-rule directive must suppress: {:?}",
            report.findings
        );
        assert_eq!(report.allows.len(), 2);
        assert_eq!(report.allows[0].rule, "r2-panic-freedom");
        assert_eq!(report.allows[1].rule, "r3-determinism");
        assert_eq!(report.allows[0].reason, "SP-side data");
        assert_eq!(report.allows[1].reason, "SP-side data");
        assert!(report.allows[0].used);
        assert!(!report.allows[1].used, "no r3 finding to suppress");
    }

    // -- workspace rules: fixture workspaces ---------------------------

    fn ws(files: &[(&str, &str)]) -> Graph {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        Graph::build(&sources)
    }

    fn rule_findings(g: &Graph, rule: &str) -> Vec<(String, u32, String)> {
        run_all(g)
            .into_iter()
            .filter(|(_, f)| f.rule == rule)
            .map(|(fi, f)| (g.files[fi].path.clone(), f.line, f.msg))
            .collect()
    }

    #[test]
    fn r5_fires_with_multi_hop_witness_and_clean_half_is_silent() {
        let entry = include_str!("../fixtures/r5_entry.rs");
        let bad = include_str!("../fixtures/r5_helper_violating.rs");
        let clean = include_str!("../fixtures/r5_helper_clean.rs");

        let g = ws(&[
            ("crates/core/src/superlight.rs", entry),
            ("crates/chain/src/helpers.rs", bad),
        ]);
        let hits = rule_findings(&g, "r5-panic-reachability");
        assert!(
            hits.iter()
                .any(|(p, _, _)| p == "crates/chain/src/helpers.rs"),
            "panic in the cross-crate helper must be reachable: {hits:?}"
        );
        // Multi-hop witness: entry method → local helper → cross-crate
        // helper → panicking leaf.
        assert!(
            hits.iter().any(|(_, _, m)| m
                .contains("Client::verify_header → check_shape → find_header → decode_at")),
            "witness should carry the full call path: {hits:?}"
        );

        let g = ws(&[
            ("crates/core/src/superlight.rs", entry),
            ("crates/chain/src/helpers.rs", clean),
        ]);
        assert!(
            rule_findings(&g, "r5-panic-reachability").is_empty(),
            "clean helper must not fire"
        );
    }

    #[test]
    fn r6_fires_with_interprocedural_witness_and_clean_half_is_silent() {
        let bad = include_str!("../fixtures/r6_taint_violating.rs");
        let clean = include_str!("../fixtures/r6_taint_clean.rs");
        let obs = include_str!("../fixtures/r6_obs_audit.rs");
        let hash = include_str!("../fixtures/r6_primitives_hash.rs");

        let g = ws(&[
            ("crates/sgx/src/keyops.rs", bad),
            ("crates/obs/src/audit.rs", obs),
        ]);
        let hits = rule_findings(&g, "r6-secret-taint");
        assert!(
            hits.iter()
                .any(|(_, _, m)| m.contains("format") && m.contains("derive_and_leak → expand")),
            "format sink must carry the multi-hop taint witness: {hits:?}"
        );
        assert!(
            hits.iter().any(|(_, _, m)| m.contains("publish_debug")),
            "cross-boundary call must fire: {hits:?}"
        );

        let g = ws(&[
            ("crates/sgx/src/keyops.rs", clean),
            ("crates/primitives/src/hash.rs", hash),
        ]);
        assert!(
            rule_findings(&g, "r6-secret-taint").is_empty(),
            "allow-listed crypto API (hash_concat) must not fire"
        );
    }

    #[test]
    fn r7_fires_on_unbounded_allocs_and_clean_half_is_silent() {
        let bad = include_str!("../fixtures/r7_alloc_violating.rs");
        let clean = include_str!("../fixtures/r7_alloc_clean.rs");

        let g = ws(&[("crates/serve/src/codec_frame.rs", bad)]);
        let hits = rule_findings(&g, "r7-alloc-bound");
        assert_eq!(hits.len(), 2, "with_capacity and vec![] sinks: {hits:?}");

        let g = ws(&[("crates/serve/src/codec_frame.rs", clean)]);
        assert!(
            rule_findings(&g, "r7-alloc-bound").is_empty(),
            "clamped/checked allocations must not fire"
        );
    }

    #[test]
    fn r8_fires_on_unlink_before_sync_and_exempts_recovery() {
        let bad = include_str!("../fixtures/r8_durability_violating.rs");
        let clean = include_str!("../fixtures/r8_durability_clean.rs");

        let g = ws(&[("crates/store/src/pruner.rs", bad)]);
        let hits = rule_findings(&g, "r8-durability-order");
        assert_eq!(hits.len(), 1, "unlink-before-sync must fire: {hits:?}");
        assert!(hits[0].2.contains("remove_file"));

        let g = ws(&[("crates/store/src/pruner.rs", clean)]);
        assert!(
            rule_findings(&g, "r8-durability-order").is_empty(),
            "sync-before-unlink and recovery-closure unlinks must not fire"
        );
    }

    // -- call-graph integrity over the real workspace ------------------

    /// Workspace root for the real-tree tests. DCERT_REPO_ROOT lets the
    /// suite run from an out-of-tree copy of the crate (the workspace's
    /// external deps may be unavailable).
    fn repo_root() -> std::path::PathBuf {
        match std::env::var_os("DCERT_REPO_ROOT") {
            Some(r) => std::path::PathBuf::from(r),
            None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("workspace root")
                .to_path_buf(),
        }
    }

    /// Every intra-workspace call edge must resolve; a dangling edge
    /// would let R5 pass vacuously on the function it failed to enter.
    #[test]
    fn workspace_call_graph_has_no_dangling_edges() {
        let sources = super::load_sources(&repo_root()).expect("walk workspace");
        let g = Graph::build(&sources);
        let dangles: Vec<String> = g
            .dangling
            .iter()
            .map(|d| format!("{}:{} {}", g.files[d.file].path, d.line, d.path))
            .collect();
        assert!(
            dangles.is_empty(),
            "dangling intra-workspace call edges:\n{}",
            dangles.join("\n")
        );
        // The graph must be substantial, not vacuously empty.
        let edges: usize = g.edges.iter().map(Vec::len).sum();
        assert!(g.fns.len() > 200, "only {} fns parsed", g.fns.len());
        assert!(edges > 300, "only {edges} call edges resolved");
    }

    /// The workspace itself must lint clean under all eight rules with
    /// directives applied — removing any in-tree fix (or its documented
    /// allow) re-triggers the rule here.
    #[test]
    fn workspace_lints_clean_under_all_rules() {
        let sources = super::load_sources(&repo_root()).expect("walk workspace");
        let (_, (findings, allows)) = super::analyze_workspace(&sources);
        let report: Vec<String> = findings
            .iter()
            .map(|(p, f)| format!("{p}:{}:{} {} {}", f.line, f.col, f.rule, f.msg))
            .collect();
        assert!(
            report.is_empty(),
            "workspace has lint findings:\n{}",
            report.join("\n")
        );
        // Every escape hatch present must actually be earning its keep.
        let unused: Vec<String> = allows
            .iter()
            .filter(|(_, a)| !a.used)
            .map(|(p, a)| format!("{p}:{} allow({})", a.line, a.rule))
            .collect();
        assert!(
            unused.is_empty(),
            "unused allow directives:\n{}",
            unused.join("\n")
        );
    }

    // -- github output escaping ----------------------------------------

    #[test]
    fn github_escaping_protects_workflow_commands() {
        assert_eq!(super::gh_escape_msg("a%b\nc"), "a%25b%0Ac");
        assert_eq!(super::gh_escape_prop("p:q,r"), "p%3Aq%2Cr");
    }
}
