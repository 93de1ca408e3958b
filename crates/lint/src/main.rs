//! `dcert-lint` — repo-specific static analysis for the DCert workspace.
//!
//! The compiler cannot check all of DCert's load-bearing security
//! invariants: the enclave secret key never crosses the `dcert-sgx` trust
//! boundary, and the trusted program stays a function of its input. This
//! tool enforces what rustc, Cargo and clippy cannot see — no nightly
//! compiler plumbing, no dependencies — and fails CI on violation.
//! (Ambient clocks and entropy, and raw `ed25519_dalek` outside
//! `primitives::keys`, are `clippy.toml`'s; panic freedom is each product
//! crate root's clippy `deny`.) Analysis runs in two phases:
//!
//! **Per-file (lexical)** — R1, R3, R4:
//!
//! * **R1 `r1-enclave-secrecy`** — the public secret-key and sealing
//!   names and the `TrustedApp`/`Sealable` traits are confined to the
//!   trusted modules; `Enclave` fields stay private.
//! * **R3 `r3-determinism`** — no bare `OsRng` value (clippy sees only
//!   its `use` and type forms); in the verifier modules also no
//!   process-global mutable `static` and no thread start.
//! * **R4 `r4-error-hygiene`** — fallible APIs return crate `Error`
//!   types, never `Result<_, String>` or `Result<_, Box<dyn ...>>`.
//!
//! **Workspace (call graph + dataflow)** — R6, R8: an item-level
//! parser builds a workspace-wide call graph with resolved cross-crate
//! edges plus per-function dataflow facts, and on top of it:
//!
//! * **R6 `r6-secret-taint`** — secret *values* must not flow into
//!   formatting, wire encoders, or non-allow-listed functions outside
//!   the trusted modules; taint propagates through calls with a
//!   multi-hop witness.
//! * **R8 `r8-durability-order`** — in `dcert-store`, no segment
//!   unlink/truncate reachable from steady-state entry points before
//!   the head-commit `sync()`.
//!
//! The numbers `r2` and `r5` (panic freedom, now the crate roots' clippy
//! `deny`) and `r7` (allocation bounds, now the store's length-bomb test
//! and the codec's presize cap) are retired.
//!
//! Escape hatch (counted and reported, never silent), shared by all five
//! rules:
//!
//! ```text
//! // dcert-lint: allow(r1-enclave-secrecy, reason = "replay constructor")
//! ```
//!
//! Usage: `cargo run -p dcert-lint [-- --root DIR]`. Any finding exits 1;
//! under `GITHUB_ACTIONS=true` findings print as workflow annotations.

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
/// intentionally-violating fixtures, vendored sources if any appear, and
/// `benchmark/`: its own cargo workspace, outside `--workspace` clippy
/// too, which changes only with the benchmark.
const SKIP_DIRS: [&str; 6] = [
    "target",
    ".git",
    "fixtures",
    "vendor",
    "benchmark",
    ".github",
];

fn usage() -> String {
    format!(
        "dcert-lint: DCert workspace static analysis ({})\n\
         \n\
         USAGE: dcert-lint [--root DIR]\n\
         \n\
         --root DIR  workspace root to scan (default: current directory)\n\
         \n\
         Any finding exits 1. Under GITHUB_ACTIONS=true findings print as\n\
         workflow annotations (`::error file=...,line=...::msg`).",
        RULES.join(" ")
    )
}

/// The workspace root to scan: `--root DIR`, or the current directory.
fn parse_root() -> Result<PathBuf, String> {
    let mut args = std::env::args().skip(1);
    let mut root = PathBuf::from(".");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(args.next().ok_or("--root requires a directory")?),
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
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
/// per-file rules (R1, R3, R4), the workspace call graph with R6, R8,
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
    let root = match parse_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let sources = match load_sources(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let scanned = sources.len();

    let (ws, (mut findings, allows)) = analyze_workspace(&sources);
    for d in &ws.dangling {
        eprintln!(
            "warning: dangling call edge {}:{} -> `{}` (intra-workspace path did not resolve)",
            ws.files[d.file].path, d.line, d.path
        );
    }

    let github = std::env::var("GITHUB_ACTIONS").is_ok_and(|v| v == "true");
    findings.sort_by(|a, b| (&a.0, a.1.line, a.1.col).cmp(&(&b.0, b.1.line, b.1.col)));
    for (path, f) in &findings {
        if github {
            println!(
                "::error file={},line={},col={},title=dcert-lint {}::{}",
                gh_escape_prop(path),
                f.line,
                f.col,
                gh_escape_prop(f.rule),
                gh_escape_msg(&f.msg)
            );
        } else {
            println!("{path}:{}:{}: {}: {}", f.line, f.col, f.rule, f.msg);
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

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::engine::{AllowDirective, Finding, MALFORMED_DIRECTIVE};
    use super::graph::Graph;
    use super::lexer::{lex, TokKind};
    use super::rules::run_all;
    use super::RULES;

    /// One file through both phases, its directives applied.
    struct Report {
        findings: Vec<Finding>,
        allows: Vec<AllowDirective>,
    }

    fn analyze_source(path: &str, source: &str) -> Report {
        let (_, (findings, allows)) =
            super::analyze_workspace(&[(path.to_string(), source.to_string())]);
        Report {
            findings: findings.into_iter().map(|(_, f)| f).collect(),
            allows: allows.into_iter().map(|(_, a)| a).collect(),
        }
    }

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
        let src = "fn prod() -> Result<(), String> { Ok(()) }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() -> Result<(), String> { Ok(()) }\n}\n";
        let report = analyze_source("crates/core/src/superlight.rs", src);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 1);
    }

    #[test]
    fn cfg_attr_test_is_not_exempt() {
        let src =
            "#[cfg_attr(test, allow(dead_code))]\nfn prod() -> Result<(), String> { Ok(()) }\n";
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
        // import_state call, with_signing_seed call.
        assert_eq!(lines, vec![6, 6, 12, 15, 21]);
    }

    #[test]
    fn r1_allows_trusted_modules() {
        let src = include_str!("../fixtures/r1_enclave_secrecy.rs");
        let report = analyze_source("crates/sgx/src/sealing2.rs", src);
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
    fn r3_fires_on_determinism_fixture() {
        let src = include_str!("../fixtures/r3_determinism.rs");
        let report = analyze_source("crates/chain/src/node.rs", src);
        let lines: Vec<u32> = report
            .findings
            .iter()
            .filter(|f| f.rule == "r3-determinism")
            .map(|f| f.line)
            .collect();
        // The bare `OsRng` value clippy cannot see — but NOT the
        // allow-escaped one below it, and (outside the verifier-path
        // scope) not the statics and threads.
        assert_eq!(lines, vec![6]);
        assert!(report.allows[0].used);
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
        // The `OsRng` as above, then: the Atomic, Mutex and OnceLock
        // statics; `thread::scope`, `thread::spawn`, `thread::Builder`;
        // `spawn` in the import list. NOT the plain static, the `'static`
        // lifetime, the thread-local `RefCell`, `scope.spawn`,
        // `thread::current`, `sleep`, or the allow-escaped static at the
        // bottom.
        assert_eq!(lines, vec![6, 11, 13, 15, 26, 29, 30, 34]);
        // The escapes were used, not ignored.
        assert!(report.allows.iter().all(|a| a.used));
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
            .all(|f| !(f.rule == "r4-error-hygiene" && f.line == 6)));
        // …the reasonless escape did not…
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == "r4-error-hygiene" && f.line == 11));
        // …and was itself reported as malformed.
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == MALFORMED_DIRECTIVE && f.line == 10));
        // Both directives are counted; the first was used.
        assert_eq!(report.allows.len(), 2);
        assert!(report.allows[0].used);
        assert!(!report.allows[1].used);
        assert_eq!(report.allows[0].reason, "a test double's message");
    }

    #[test]
    fn multi_rule_allow_directive_covers_each_listed_rule() {
        // Two rules, one directive, one shared reason: the r4 hit on the
        // next line is suppressed; an unrelated rule is not.
        let src =
            "// dcert-lint: allow(r4-error-hygiene, r3-determinism, reason = \"SP-side data\")\n\
                   fn get(v: &[u8]) -> Result<u8, String> {\n\
                   \x20   v.first().copied().ok_or_else(String::new)\n\
                   }\n";
        let report = analyze_source("crates/core/src/superlight.rs", src);
        assert!(
            report.findings.is_empty(),
            "multi-rule directive must suppress: {:?}",
            report.findings
        );
        assert_eq!(report.allows.len(), 2);
        assert_eq!(report.allows[0].rule, "r4-error-hygiene");
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
    fn r6_follows_reexports_across_crates_and_renames() {
        let entry = include_str!("../fixtures/r6_reexport_entry.rs");
        let root = include_str!("../fixtures/r6_reexport_lib.rs");
        let helper = "pub fn find_header(raw: &[u8]) -> usize {\n    raw.len()\n}\n";
        let frames = "pub fn frame_len(raw: &[u8]) -> usize {\n    raw.len()\n}\n";
        let g = ws(&[
            ("crates/sgx/src/keyops.rs", entry),
            ("crates/chain/src/lib.rs", root),
            ("crates/chain/src/helpers.rs", helper),
            ("crates/vm/src/frames.rs", frames),
        ]);
        assert!(g.dangling.is_empty(), "{:?}", g.dangling);
        let hits = rule_findings(&g, "r6-secret-taint");
        let hit = |call: &str, path: &str| {
            hits.iter()
                .any(|(_, _, m)| m.contains(&format!("passed to `{call}` in {path}")))
        };
        // `locate` is `find_header` renamed by `pub use … as …`.
        assert!(hit("locate", "crates/chain/src/helpers.rs"), "{hits:?}");
        // `dcert_chain::frame_len` is `dcert_vm`'s, re-exported.
        assert!(
            hit("dcert_chain::frame_len", "crates/vm/src/frames.rs"),
            "{hits:?}"
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
    }

    #[test]
    fn r6_sees_a_macro_template_and_the_types_a_wire_table_declares() {
        let keyops = include_str!("../fixtures/r6_macros.rs");
        let codec = "pub struct Reader<'a>(pub &'a [u8]);\n\
                     pub trait Decode: Sized {\n\
                     \x20   fn decode(r: &mut Reader<'_>) -> Option<Self>;\n\
                     }\n";
        let g = ws(&[
            ("crates/sgx/src/keyops.rs", keyops),
            ("crates/primitives/src/codec.rs", codec),
        ]);
        // `Key::decode` resolves: the table implements `Decode` for `Key`.
        assert!(g.dangling.is_empty(), "{:?}", g.dangling);
        let hits = rule_findings(&g, "r6-secret-taint");
        assert!(
            hits.iter()
                .any(|(_, _, m)| m.contains("`println!`") && m.contains("(in trace_key!)")),
            "{hits:?}"
        );
        assert!(
            hits.iter()
                .any(|(_, _, m)| m
                    .contains("passed to `Key::decode` in crates/primitives/src/codec.rs")),
            "{hits:?}"
        );
        assert_eq!(hits.len(), 2, "{hits:?}");
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

    #[test]
    fn r8_exempts_the_head_slot_rewrite_and_nothing_else() {
        let slot = include_str!("../fixtures/r8_head_slot.rs");
        let g = ws(&[("crates/store/src/head.rs", slot)]);
        assert!(
            rule_findings(&g, "r8-durability-order").is_empty(),
            "the head module's in-place slot shrink is the commit itself"
        );
        // The same shrink in any other store module is a truncate before
        // the head commit.
        let g = ws(&[("crates/store/src/seg_store.rs", slot)]);
        let hits = rule_findings(&g, "r8-durability-order");
        assert_eq!(hits.len(), 1, "set_len outside the head module: {hits:?}");
        assert!(hits[0].2.contains("set_len"));
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
    /// would let R6 or R8 pass vacuously on the function it failed to
    /// enter.
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

    /// The workspace itself must lint clean under all five rules with
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

    /// The ten lints each product library crate denies at its root.
    const PANIC_LINTS: [&str; 10] = [
        "unwrap_used",
        "expect_used",
        "indexing_slicing",
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "cast_possible_truncation",
        "cast_possible_wrap",
        "cast_sign_loss",
    ];

    /// The product library crate roots, and the naive reference program
    /// (a module of the root crate, denying them in its own file).
    const PANIC_FREE_ROOTS: [&str; 12] = [
        "crates/chain/src/lib.rs",
        "crates/core/src/lib.rs",
        "crates/merkle/src/lib.rs",
        "crates/obs/src/lib.rs",
        "crates/primitives/src/lib.rs",
        "crates/query/src/lib.rs",
        "crates/serve/src/lib.rs",
        "crates/sgx/src/lib.rs",
        "crates/store/src/lib.rs",
        "crates/vm/src/lib.rs",
        "crates/workloads/src/lib.rs",
        "src/world/naive.rs",
    ];

    /// The `clippy::` lints named by the file's
    /// `#![cfg_attr(not(test), deny(...))]`, sorted.
    fn denied_outside_tests(source: &str) -> Vec<String> {
        let (toks, _) = lex(source);
        let text: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        let head = [
            "#", "!", "[", "cfg_attr", "(", "not", "(", "test", ")", ",", "deny", "(",
        ];
        let Some(at) = text.windows(head.len()).position(|w| w == head) else {
            return Vec::new();
        };
        let mut lints: Vec<String> = text[at + head.len()..]
            .split(|t| *t == ")")
            .next()
            .unwrap_or_default()
            .split(|t| *t == ",")
            .filter_map(|lint| match lint {
                ["clippy", ":", ":", name] => Some(name.to_string()),
                _ => None,
            })
            .collect();
        lints.sort();
        lints
    }

    /// Panic freedom is clippy's, from each product root's `deny`. Clippy
    /// fires only where a site exists, so a root that dropped a lint would
    /// fail nothing else: this pins the attribute itself.
    #[test]
    fn product_roots_deny_every_panic_lint() {
        let mut want: Vec<String> = PANIC_LINTS.iter().map(|l| l.to_string()).collect();
        want.sort();
        let root = repo_root();
        for file in PANIC_FREE_ROOTS {
            let source = std::fs::read_to_string(root.join(file)).expect("read crate root");
            assert_eq!(
                denied_outside_tests(&source),
                want,
                "{file} must carry #![cfg_attr(not(test), deny(clippy::…))] with all ten lints"
            );
        }
        // A root missing one lint is told apart.
        let short = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]";
        assert_eq!(denied_outside_tests(short), ["panic", "unwrap_used"]);
    }

    // -- rule names -----------------------------------------------------

    /// A directive may name a rule by its `rN` prefix; the retired numbers
    /// name none.
    #[test]
    fn rule_short_names_come_from_rules() {
        assert_eq!(RULES.len(), 5);
        assert!(RULES
            .iter()
            .all(|r| !r.starts_with("r2-") && !r.starts_with("r5-") && !r.starts_with("r7-")));
        let src = "// dcert-lint: allow(r4, reason = \"SP-side data\")\n\
                   fn get(v: &[u8]) -> Result<u8, String> {\n\
                   \x20   v.first().copied().ok_or_else(String::new)\n\
                   }\n";
        let report = analyze_source("crates/core/src/superlight.rs", src);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert!(report.allows[0].used);
    }

    // -- github output escaping ----------------------------------------

    #[test]
    fn github_escaping_protects_workflow_commands() {
        assert_eq!(super::gh_escape_msg("a%b\nc"), "a%25b%0Ac");
        assert_eq!(super::gh_escape_prop("p:q,r"), "p%3Aq%2Cr");
    }
}
