//! `dcert-lint` — repo-specific static analysis for the DCert workspace.
//!
//! The compiler cannot check all of DCert's load-bearing security
//! invariants: the enclave secret key never crosses the `dcert-sgx` trust
//! boundary, and the trusted program stays a function of its input. This
//! tool enforces what rustc, Cargo and clippy cannot see — no nightly
//! compiler plumbing, no dependencies — and fails CI on violation. Every
//! rule is per-file and lexical:
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
//! What the compiler can see is not here. Ambient clocks and entropy, raw
//! `ed25519_dalek` outside `primitives::keys`, reading a `SecretBytes`
//! (`expose`) and raw segment deletes (`remove_file`, `File::set_len`) are
//! `clippy.toml` bans; panic freedom is each product crate root's clippy
//! `deny`; that a secret is never formatted or encoded, and that a segment
//! goes only after a durable head disowns it, are types (`SecretBytes`,
//! `HeadCommitted`; DESIGN.md §7). The numbers `r2` and `r5` (panic
//! freedom), `r6` (secret taint), `r7` (allocation bounds) and `r8`
//! (durability order) are retired.
//!
//! Escape hatch (counted and reported, never silent), shared by all three
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
mod lexer;

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

/// Analysis output: surviving findings and every directive, each tagged
/// with its file.
type WorkspaceReport = (Vec<(String, Finding)>, Vec<(String, AllowDirective)>);

/// The per-file rules (R1, R3, R4) over loaded sources, each file's allow
/// directives applied to its own findings. Shared by `main` and the
/// workspace-clean regression test.
fn analyze_workspace(sources: &[(String, String)]) -> WorkspaceReport {
    let mut findings: Vec<(String, Finding)> = Vec::new();
    let mut allows: Vec<(String, AllowDirective)> = Vec::new();
    for (rel, source) in sources {
        let (toks, comments) = lexer::lex(source);
        let in_test = engine::mark_test_tokens(&toks);
        let mut fs = engine::file_rule_findings(rel, &toks, &in_test);
        let mut als = engine::parse_allow_directives(&comments);
        engine::apply_allows(&mut fs, &mut als);
        findings.extend(fs.into_iter().map(|f| (rel.clone(), f)));
        allows.extend(als.into_iter().map(|a| (rel.clone(), a)));
    }
    (findings, allows)
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

    let (mut findings, mut allows) = analyze_workspace(&sources);

    let github = std::env::var("GITHUB_ACTIONS").is_ok_and(|v| v == "true");
    findings.sort_by(|a, b| (&a.0, a.1.line, a.1.col).cmp(&(&b.0, b.1.line, b.1.col)));
    allows.sort_by(|a, b| a.0.cmp(&b.0));
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

    println!(
        "\ndcert-lint: {} file(s) scanned, {} violation(s), {} allow directive(s)",
        scanned,
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
    use super::lexer::{lex, TokKind};
    use super::RULES;

    /// One file through the rules, its directives applied.
    struct Report {
        findings: Vec<Finding>,
        allows: Vec<AllowDirective>,
    }

    fn analyze_source(path: &str, source: &str) -> Report {
        let (findings, allows) =
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

    // -- the real workspace ---------------------------------------------

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

    /// The workspace itself must lint clean under all three rules with
    /// directives applied — removing any in-tree fix (or its documented
    /// allow) re-triggers the rule here.
    #[test]
    fn workspace_lints_clean_under_all_rules() {
        let sources = super::load_sources(&repo_root()).expect("walk workspace");
        let (findings, allows) = super::analyze_workspace(&sources);
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
        assert_eq!(
            RULES,
            ["r1-enclave-secrecy", "r3-determinism", "r4-error-hygiene"]
        );
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
