//! Workspace-wide call graph over the item skeletons from
//! [`crate::parse`] and the per-function facts from [`crate::flow`].
//!
//! # Resolution strategy
//!
//! Call sites resolve to workspace functions through, in order: same-file
//! free functions, same-crate free functions, `use`-import expansion,
//! `Self`/impl-type method lookup, receiver-type inference (`self`,
//! typed params, simple `let` bindings), trait-default and trait-impl
//! dispatch, and finally a name-based method fallback restricted to
//! crates the file actually references. A path that names a module (or a
//! crate root) without a function of that name there follows that file's
//! `use` items — `pub use other_crate::module::f;`, `pub use f as g;` —
//! to the function they re-export, across crates and renames.
//! Unresolvable calls are assumed
//! external (std or dependencies) — **except** paths that explicitly
//! name a workspace crate or module and still miss, which are recorded
//! as *dangling* so the integrity test can fail instead of letting R6 or
//! R8 pass vacuously.
//!
//! # Known approximations
//!
//! * Generic/trait-object dispatch through type parameters (e.g.
//!   `A: TrustedApp`) resolves via the trait's impls, which
//!   over-approximates (every impl is a possible callee) — the safe
//!   direction for reachability rules.
//! * Methods invoked on unknown receivers resolve by name to every
//!   same-named workspace method in referenced crates, unless the name
//!   is a common std method (see [`COMMON_EXTERNAL_METHODS`]).
//! * Macro-generated functions are invisible; calls to them would show
//!   up as dangling. A `macro_rules!` template is one node, and a
//!   `wire!` table's types implement the codec traits (see
//!   [`crate::parse::ParsedFile`]), so `T::decode_all` on a declared type
//!   resolves, and the template reaches every hand-written decoder
//!   through `Decode::decode`.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::engine::mark_test_tokens;
use crate::flow::{scan_fn, FnFlow};
use crate::lexer::{lex, Tok};
use crate::parse::{crate_of_path, is_punct, parse_items, stem_of_path, FnItem, ParsedFile};

/// Methods whose names are so common in std that a name-based fallback
/// would wire bogus edges (`.len()` on a `Vec` is not a workspace call).
/// A workspace method with one of these names is only reachable through
/// a *typed* receiver.
const COMMON_EXTERNAL_METHODS: [&str; 72] = [
    "len",
    "is_empty",
    "clone",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "extend",
    "to_vec",
    "as_slice",
    "as_bytes",
    "as_ref",
    "as_mut",
    "as_str",
    "to_string",
    "to_owned",
    "into",
    "from",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "default",
    "clear",
    "drain",
    "retain",
    "map",
    "map_err",
    "and_then",
    "or_else",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "ok",
    "err",
    "take",
    "filter",
    "collect",
    "min",
    "max",
    "sum",
    "count",
    "zip",
    "rev",
    "chain",
    "enumerate",
    "last",
    "first",
    "split_at",
    "copy_from_slice",
    "extend_from_slice",
    "write_all",
    "flush",
    "join",
    "lock",
    "send",
    "recv",
    "sort",
    "position",
    "find",
    "fold",
    "truncate",
];

/// Method names that usually come from `derive` or std traits, so a miss
/// on a workspace type is not a dangling edge (`Record::default()`).
const DERIVED_METHODS: [&str; 16] = [
    "clone",
    "default",
    "fmt",
    "eq",
    "ne",
    "hash",
    "cmp",
    "partial_cmp",
    "from",
    "into",
    "from_str",
    "deref",
    "deref_mut",
    "drop",
    "next",
    "into_iter",
];

/// One lexed + parsed workspace source file.
pub struct SourceFile {
    pub path: String,
    pub krate: String,
    pub stem: String,
    pub toks: Vec<Tok>,
    pub in_test: Vec<bool>,
    pub items: ParsedFile,
    /// `use` leaf alias → full path segments.
    pub use_map: HashMap<String, Vec<String>>,
    /// Workspace crates this file references (own crate + imported).
    pub ref_crates: HashSet<String>,
}

/// One function node.
pub struct FnNode {
    pub file: usize,
    pub item: FnItem,
    pub flow: FnFlow,
}

/// One resolved call edge: `fns[from].flow.calls[call]` → `callee`.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    pub callee: usize,
    pub call: usize,
}

/// An intra-workspace path call that failed to resolve.
#[derive(Debug, Clone)]
pub struct Dangling {
    pub file: usize,
    pub line: u32,
    pub path: String,
}

/// Breadth-first reachability with parent pointers (for witnesses).
pub struct Reach {
    pub visited: Vec<bool>,
    pub parent: Vec<Option<usize>>,
}

pub struct Graph {
    pub files: Vec<SourceFile>,
    pub fns: Vec<FnNode>,
    /// Out-edges per function, deduplicated per (callee, call site).
    pub edges: Vec<Vec<Edge>>,
    pub dangling: Vec<Dangling>,
}

enum Target {
    Fns(Vec<usize>),
    External,
    Dangling,
}

struct Index<'a> {
    /// The parsed files, for the `use` items a re-export is read from.
    files: &'a [SourceFile],
    /// (crate, name) → free fns.
    free: HashMap<(String, String), Vec<usize>>,
    /// (file idx, name) → free fns in that file.
    free_in_file: HashMap<(usize, String), Vec<usize>>,
    /// (qual, name) → methods, across all crates.
    methods: HashMap<(String, String), Vec<usize>>,
    /// name → methods (qual present), for the restricted fallback.
    methods_by_name: HashMap<String, Vec<usize>>,
    /// type name → traits it implements.
    traits_of: HashMap<String, Vec<String>>,
    /// trait name → types implementing it.
    impls_of: HashMap<String, Vec<String>>,
    /// (crate, file stem) → file indices.
    stems: HashMap<(String, String), Vec<usize>>,
    /// All type/trait names defined per crate.
    types: HashSet<(String, String)>,
    /// Type-alias names (any crate).
    aliases: HashSet<String>,
    crate_names: HashSet<String>,
    /// Defining crate of each fn id, for the restricted name fallback.
    crate_of: Vec<String>,
}

impl Graph {
    /// Builds the graph from `(workspace-relative path, source)` pairs.
    /// Harness files (tests/benches/examples) are skipped — they are not
    /// part of the shipped call graph.
    pub fn build(sources: &[(String, String)]) -> Graph {
        let mut files = Vec::new();
        for (path, source) in sources {
            let Some(krate) = crate_of_path(path) else {
                continue;
            };
            let (toks, _comments) = lex(source);
            let in_test = mark_test_tokens(&toks);
            let items = parse_items(&toks, &in_test);
            let mut use_map = HashMap::new();
            let mut ref_crates = HashSet::new();
            ref_crates.insert(krate.clone());
            for u in &items.uses {
                if let Some(head) = u.path.first() {
                    if head.starts_with("dcert_") {
                        ref_crates.insert(head.clone());
                    }
                }
                use_map.insert(u.alias.clone(), u.path.clone());
            }
            files.push(SourceFile {
                stem: stem_of_path(path),
                path: path.clone(),
                krate,
                toks,
                in_test,
                items,
                use_map,
                ref_crates,
            });
        }

        // Function nodes + flows.
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for item in &f.items.fns {
                let flow = match item.body {
                    Some(body) => scan_fn(&f.toks, &f.in_test, body),
                    None => FnFlow::default(),
                };
                fns.push(FnNode {
                    file: fi,
                    item: item.clone(),
                    flow,
                });
            }
        }

        let idx = Index::build(&files, &fns);
        let mut edges = vec![Vec::new(); fns.len()];
        let mut dangling = Vec::new();
        for id in 0..fns.len() {
            let node = &fns[id];
            let file = &files[node.file];
            for (ci, call) in node.flow.calls.iter().enumerate() {
                let target = if call.method {
                    resolve_method_call(&idx, file, node, call)
                } else {
                    resolve_path_call(&idx, file, node, &call.path)
                };
                match target {
                    Target::Fns(mut ids) => {
                        ids.sort_unstable();
                        ids.dedup();
                        for callee in ids {
                            edges[id].push(Edge { callee, call: ci });
                        }
                    }
                    Target::External => {}
                    Target::Dangling => dangling.push(Dangling {
                        file: node.file,
                        line: call.line,
                        path: call.display(),
                    }),
                }
            }
        }

        Graph {
            files,
            fns,
            edges,
            dangling,
        }
    }

    /// `Qual::name` or `name`, for witnesses and messages.
    pub fn fn_display(&self, id: usize) -> String {
        let item = &self.fns[id].item;
        match &item.qual {
            Some(q) => format!("{}::{}", q, item.name),
            None => item.name.clone(),
        }
    }

    /// BFS over call edges, never entering test functions. Each entry in
    /// turn seeds a search over what the earlier ones left unvisited, so
    /// a witness starts at the first entry that reaches its target.
    pub fn reachable(&self, entries: &[usize]) -> Reach {
        let mut visited = vec![false; self.fns.len()];
        let mut parent = vec![None; self.fns.len()];
        let mut queue = VecDeque::new();
        for &e in entries {
            if visited[e] || self.fns[e].item.is_test {
                continue;
            }
            visited[e] = true;
            queue.push_back(e);
            while let Some(id) = queue.pop_front() {
                for edge in &self.edges[id] {
                    let to = edge.callee;
                    if !visited[to] && !self.fns[to].item.is_test {
                        visited[to] = true;
                        parent[to] = Some(id);
                        queue.push_back(to);
                    }
                }
            }
        }
        Reach { visited, parent }
    }

    /// The call path `entry → ... → target` recorded by [`Self::reachable`].
    pub fn witness(&self, reach: &Reach, target: usize) -> String {
        let mut chain = vec![target];
        let mut at = target;
        while let Some(p) = reach.parent[at] {
            chain.push(p);
            at = p;
            if chain.len() > 64 {
                break;
            }
        }
        chain.reverse();
        chain
            .iter()
            .map(|&id| self.fn_display(id))
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

impl<'a> Index<'a> {
    fn build(files: &'a [SourceFile], fns: &[FnNode]) -> Index<'a> {
        let mut idx = Index {
            files,
            free: HashMap::new(),
            free_in_file: HashMap::new(),
            methods: HashMap::new(),
            methods_by_name: HashMap::new(),
            traits_of: HashMap::new(),
            impls_of: HashMap::new(),
            stems: HashMap::new(),
            types: HashSet::new(),
            aliases: HashSet::new(),
            crate_names: HashSet::new(),
            crate_of: fns.iter().map(|n| files[n.file].krate.clone()).collect(),
        };
        for (fi, f) in files.iter().enumerate() {
            idx.crate_names.insert(f.krate.clone());
            idx.stems
                .entry((f.krate.clone(), f.stem.clone()))
                .or_default()
                .push(fi);
            for t in &f.items.types {
                idx.types.insert((f.krate.clone(), t.clone()));
            }
            for a in &f.items.aliases {
                idx.aliases.insert(a.clone());
            }
            for ti in &f.items.trait_impls {
                idx.traits_of
                    .entry(ti.ty.clone())
                    .or_default()
                    .push(ti.trait_name.clone());
                idx.impls_of
                    .entry(ti.trait_name.clone())
                    .or_default()
                    .push(ti.ty.clone());
            }
        }
        for (id, node) in fns.iter().enumerate() {
            let f = &files[node.file];
            match &node.item.qual {
                Some(q) => {
                    idx.methods
                        .entry((q.clone(), node.item.name.clone()))
                        .or_default()
                        .push(id);
                    idx.methods_by_name
                        .entry(node.item.name.clone())
                        .or_default()
                        .push(id);
                }
                None => {
                    idx.free
                        .entry((f.krate.clone(), node.item.name.clone()))
                        .or_default()
                        .push(id);
                    idx.free_in_file
                        .entry((node.file, node.item.name.clone()))
                        .or_default()
                        .push(id);
                }
            }
        }
        idx
    }

    /// The functions `name` stands for in the `use` items of any of
    /// `holders` (the files of the module a path names), or `None` when
    /// none of them imports that name.
    fn reexported(&self, holders: &[usize], name: &str, hops: usize) -> Option<Target> {
        let hops = hops.checked_sub(1)?;
        let mut hits = Vec::new();
        let mut dangling = false;
        for &fi in holders {
            let Some(path) = self.files[fi].use_map.get(name) else {
                continue;
            };
            match resolve_use(self, fi, path, hops) {
                Target::Fns(ids) => hits.extend(ids),
                Target::External => return Some(Target::External),
                Target::Dangling => dangling = true,
            }
        }
        if !hits.is_empty() {
            Some(Target::Fns(hits))
        } else {
            dangling.then_some(Target::Dangling)
        }
    }

    /// The files of `krate`'s module `module`, or of its root when
    /// `module` is `None`.
    fn module_files(&self, krate: &str, module: Option<&str>) -> Vec<usize> {
        let stems: &[&str] = match module {
            Some(module) => &[module],
            None => &["lib", "main"],
        };
        stems
            .iter()
            .filter_map(|stem| self.stems.get(&(krate.to_string(), (*stem).to_string())))
            .flatten()
            .copied()
            .collect()
    }

    fn is_workspace_type(&self, ty: &str) -> bool {
        self.types.iter().any(|(_, t)| t == ty)
    }

    /// All methods `ty::name`, following trait defaults (when `ty`
    /// implements a trait declaring `name`) and trait dispatch (when
    /// `ty` *is* a trait, every implementing type's `name`).
    fn methods_on(&self, ty: &str, name: &str) -> Vec<usize> {
        let mut hits = Vec::new();
        if let Some(ids) = self.methods.get(&(ty.to_string(), name.to_string())) {
            hits.extend_from_slice(ids);
        }
        if let Some(traits) = self.traits_of.get(ty) {
            for t in traits {
                if let Some(ids) = self.methods.get(&(t.clone(), name.to_string())) {
                    hits.extend_from_slice(ids);
                }
            }
        }
        if let Some(impls) = self.impls_of.get(ty) {
            for t in impls {
                if let Some(ids) = self.methods.get(&(t.clone(), name.to_string())) {
                    hits.extend_from_slice(ids);
                }
            }
        }
        hits
    }
}

/// Base type of a simple initializer: `Ty::ctor(...)` / `Ty { ... }`
/// (skipping leading `&`/`mut`).
fn init_type(toks: &[Tok], rhs: (usize, usize)) -> Option<String> {
    let mut k = rhs.0;
    while k < rhs.1 {
        let t = &toks[k];
        match t.kind {
            crate::lexer::TokKind::Punct if t.text == "&" => k += 1,
            crate::lexer::TokKind::Ident if t.text == "mut" => k += 1,
            crate::lexer::TokKind::Ident => {
                let first = t.text.chars().next()?;
                if !first.is_ascii_uppercase() {
                    return None;
                }
                if is_punct(toks, k + 1, ":") || is_punct(toks, k + 1, "{") {
                    return Some(t.text.clone());
                }
                return None;
            }
            _ => return None,
        }
    }
    None
}

/// Infers the receiver type of a method call from `self`, typed params,
/// and simple `let` bindings earlier in the function.
fn receiver_type(node: &FnNode, call: &crate::flow::CallSite) -> Option<String> {
    let recv = call.recv.as_deref()?;
    if recv == "self" {
        return node.item.qual.clone();
    }
    if let Some(p) = node.item.params.iter().find(|p| p.name == recv) {
        if !p.ty.is_empty() {
            return Some(p.ty.clone());
        }
    }
    // Latest binding of that name before the call site.
    let mut best: Option<&crate::flow::LetBind> = None;
    for b in &node.flow.lets {
        if b.name == recv && b.tok < call.tok {
            best = Some(b);
        }
    }
    let b = best?;
    b.ty.clone()
}

fn resolve_method_call(
    idx: &Index,
    file: &SourceFile,
    node: &FnNode,
    call: &crate::flow::CallSite,
) -> Target {
    let name = call.name();
    let mut ty = receiver_type(node, call);
    // `let r = Reader::new(..); r.take(..)` — infer from the initializer
    // when no ascribed type was found.
    if ty.is_none() {
        if let Some(recv) = call.recv.as_deref() {
            for b in &node.flow.lets {
                if b.name == recv && b.tok < call.tok {
                    ty = init_type(&file.toks, b.rhs);
                }
            }
        }
    }
    if let Some(ty) = ty.filter(|t| !t.is_empty()) {
        let hits = idx.methods_on(&ty, name);
        if !hits.is_empty() {
            return Target::Fns(hits);
        }
        if idx.is_workspace_type(&ty) {
            // A workspace type without that method: derive/std-trait
            // surface (Clone, Debug, Iterator...) — external.
            return Target::External;
        }
    }
    // Unknown receiver: name-based fallback, restricted to referenced
    // crates and uncommon names.
    if COMMON_EXTERNAL_METHODS.contains(&name) {
        return Target::External;
    }
    let Some(candidates) = idx.methods_by_name.get(name) else {
        return Target::External;
    };
    let hits: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&id| file.ref_crates.contains(&idx.crate_of[id]))
        .collect();
    if hits.is_empty() {
        return Target::External;
    }
    Target::Fns(hits)
}

fn upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

fn resolve_path_call(idx: &Index, file: &SourceFile, node: &FnNode, segs: &[String]) -> Target {
    let Some(name) = segs.last() else {
        return Target::External;
    };
    if upper(name) {
        // Tuple-struct / enum-variant constructor (clippy enforces
        // snake_case fn names workspace-wide).
        return Target::External;
    }
    if segs.len() == 1 {
        if let Some(ids) = idx.free_in_file.get(&(node.file, name.clone())) {
            return Target::Fns(ids.clone());
        }
        if let Some(ids) = idx.free.get(&(file.krate.clone(), name.clone())) {
            return Target::Fns(ids.clone());
        }
        if let Some(path) = file.use_map.get(name) {
            return resolve_use(idx, node.file, path, MAX_REEXPORT_HOPS);
        }
        return Target::External;
    }
    let head = segs[0].as_str();
    match head {
        "Self" => match &node.item.qual {
            Some(q) => resolve_type_assoc(idx, q, name),
            None => Target::External,
        },
        "crate" | "self" | "super" => resolve_in_crate(idx, &file.krate, segs, MAX_REEXPORT_HOPS),
        "std" | "core" | "alloc" => Target::External,
        _ if idx.crate_names.contains(head) => resolve_in_crate(idx, head, segs, MAX_REEXPORT_HOPS),
        _ if file.use_map.contains_key(head) => {
            let mut full = file.use_map[head].clone();
            full.extend(segs[1..].iter().cloned());
            resolve_use(idx, node.file, &full, MAX_REEXPORT_HOPS)
        }
        _ if upper(head) => resolve_type_assoc(idx, head, name),
        _ => {
            // `module::fn` in the current crate.
            if let Some(fids) = idx.stems.get(&(file.krate.clone(), head.to_string())) {
                let mut hits = Vec::new();
                for &fi in fids {
                    if let Some(ids) = idx.free_in_file.get(&(fi, name.clone())) {
                        hits.extend_from_slice(ids);
                    }
                }
                if !hits.is_empty() {
                    return Target::Fns(hits);
                }
                return idx
                    .reexported(fids, name, MAX_REEXPORT_HOPS)
                    .unwrap_or(Target::Dangling);
            }
            // Inline `mod` or directory module: fall back to a crate-wide
            // free-fn lookup before assuming external.
            if let Some(ids) = idx.free.get(&(file.krate.clone(), name.clone())) {
                return Target::Fns(ids.clone());
            }
            Target::External
        }
    }
}

fn resolve_type_assoc(idx: &Index, ty: &str, name: &str) -> Target {
    let hits = idx.methods_on(ty, name);
    if !hits.is_empty() {
        return Target::Fns(hits);
    }
    if idx.is_workspace_type(ty) && !idx.aliases.contains(ty) && !DERIVED_METHODS.contains(&name) {
        return Target::Dangling;
    }
    Target::External
}

/// How many `use` items a call follows to the function behind a chain of
/// re-exports before it gives up (a cycle of imports ends there too).
const MAX_REEXPORT_HOPS: usize = 8;

/// Resolves the path a `use` item of file `fi` names: an absolute path
/// (crate keyword or workspace crate), a path relative to one of its
/// crate's modules, a bare type, or a single name defined in that file
/// (`pub use f as g;`).
fn resolve_use(idx: &Index, fi: usize, path: &[String], hops: usize) -> Target {
    let file = &idx.files[fi];
    let Some(head) = path.first() else {
        return Target::External;
    };
    match head.as_str() {
        "crate" | "self" | "super" => resolve_in_crate(idx, &file.krate, path, hops),
        "std" | "core" | "alloc" => Target::External,
        _ if idx.crate_names.contains(head.as_str()) => resolve_in_crate(idx, head, path, hops),
        _ if upper(head) => {
            // `use Type as T; T::name(...)` — the alias expanded straight
            // to a bare type name.
            let name = path.last().map(String::as_str).unwrap_or("");
            resolve_type_assoc(idx, head, name)
        }
        _ if path.len() == 1 => match idx.free_in_file.get(&(fi, head.clone())) {
            Some(ids) => Target::Fns(ids.clone()),
            None => Target::External,
        },
        // `use module::f;` in a crate root: `crate::module::f`.
        _ if !idx.module_files(&file.krate, Some(head)).is_empty() => {
            let full: Vec<String> = std::iter::once("crate".to_string())
                .chain(path.iter().cloned())
                .collect();
            resolve_in_crate(idx, &file.krate, &full, hops)
        }
        _ => Target::External,
    }
}

/// Resolves `<crate>::segments::name` inside a known workspace crate,
/// following the `use` items of the module the path names (its crate root
/// for `<crate>::name`) when no function of that name is defined there.
fn resolve_in_crate(idx: &Index, krate: &str, segs: &[String], hops: usize) -> Target {
    let Some(name) = segs.last() else {
        return Target::External;
    };
    if upper(name) {
        return Target::External;
    }
    // `crate::module::Type::assoc`.
    if segs.len() >= 2 && upper(&segs[segs.len() - 2]) {
        return resolve_type_assoc(idx, &segs[segs.len() - 2], name);
    }
    // Prefer the named module file when the path has one.
    let module = (segs.len() >= 3).then(|| segs[segs.len() - 2].as_str());
    let holders = idx.module_files(krate, module);
    if module.is_some() {
        let hits: Vec<usize> = holders
            .iter()
            .filter_map(|&fi| idx.free_in_file.get(&(fi, name.clone())))
            .flatten()
            .copied()
            .collect();
        if !hits.is_empty() {
            return Target::Fns(hits);
        }
    }
    if let Some(ids) = idx.free.get(&(krate.to_string(), name.clone())) {
        return Target::Fns(ids.clone());
    }
    idx.reexported(&holders, name, hops)
        .unwrap_or(Target::Dangling)
}
