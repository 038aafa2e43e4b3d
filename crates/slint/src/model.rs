//! `slint::model` — a lightweight cross-file fact extractor for the
//! semantic rules (R9 lock order, R10 IoCtx propagation).
//!
//! This is deliberately not a Rust parser. It is a line-oriented item and
//! expression extractor over [`scanner::clean`]ed source that recovers just
//! enough structure to reason about locks and contexts workspace-wide:
//!
//! * **items** — `struct` fields (with their declared types), `impl` blocks
//!   (inherent and trait), `fn` definitions with their signatures;
//! * **acquisitions** — `.lock()` / `.read()` / `.write()` on fields whose
//!   declared type is `Mutex<..>` / `RwLock<..>`, classified as *held*
//!   (bound to a `let` guard, released by `drop(..)` or scope end) or
//!   *transient* (a temporary dropped at the end of the statement);
//! * **call edges** — `self.method(..)`, `self.field.method(..)`,
//!   `Type::func(..)`, `local.method(..)` and free calls, resolved through
//!   the struct field-type table, the inherent/trait method tables and a
//!   conservative unique-name fallback;
//! * **IoCtx flow** — which functions take `&IoCtx` and which mint fresh
//!   roots with `IoCtx::new(..)`.
//!
//! On top of the facts, [`analyze`] computes per-function *lock summaries*
//! (the set of lock classes a call may acquire, propagated to a fixpoint
//! along call edges), generates the inter-procedural `held → acquired`
//! edge graph, and reports:
//!
//! * **R9** — cycles in the lock graph (deadlock candidates), direct
//!   same-class nested acquisition, and edges that invert the canonical
//!   hierarchy declared in `common::lockwitness::HIERARCHY`;
//! * **R10** — fresh root contexts (`IoCtx::new`) minted inside data-path
//!   functions that can reach a timed device operation, outside the
//!   allowlisted root-minting boundaries.
//!
//! Known approximations, chosen to keep the pass dependency-free and fast:
//! multi-line method chains resolve their receiver through one line of
//! lookback only; same-class edges discovered *via call summaries* are
//! suppressed (statically, two acquisitions of one class cannot be told
//! apart by instance — direct nesting in one function body is still
//! reported); and unresolvable receivers fall back to name matching only
//! for distinctive method names (defined by at most [`MAX_DISPATCH`]
//! types, excluding [`NOISY_METHODS`]).
//!
//! The runtime counterpart `common::lockwitness` enforces the same
//! hierarchy dynamically in debug builds, and owns the table: there is one
//! declaration, read by both.

use std::collections::{BTreeMap, BTreeSet};

use common::lockwitness::HIERARCHY;

use crate::scanner::{self, CleanedSource};
use crate::Rule;

/// Files allowed to mint fresh root `IoCtx` values on the data path: the
/// system facade (request entry points) and the chore runtime (background
/// tick roots). Everything else must receive the context from its caller.
pub const ROOT_CTX_FILES: &[&str] =
    &["crates/core/src/system.rs", "crates/core/src/chore.rs"];

/// Crates whose functions form the timed data path for R10.
pub const DATA_PATH_CRATES: [&str; 5] = ["simdisk", "plog", "stream", "lake", "core"];

/// Method names too generic to resolve through the unique-name fallback
/// (they collide with std container methods on locals and guards).
const NOISY_METHODS: &[&str] = &[
    "all", "and_then", "any", "append", "as_bytes", "as_mut", "as_ref", "as_slice",
    "back", "chain", "clear", "clone", "cloned", "cmp", "collect", "contains",
    "contains_key", "copied", "count", "dedup", "default", "drain", "entry",
    "enumerate", "eq", "extend", "filter", "filter_map", "find", "first", "flat_map",
    "flatten", "fmt", "fold", "for_each", "from", "front", "get", "get_mut",
    "get_or_insert_with", "hash", "insert", "into", "into_iter", "is_empty",
    "is_err", "is_none", "is_ok", "is_some", "iter", "iter_mut", "join", "keys",
    "last", "len", "map", "map_err", "max", "min", "new", "next", "ok", "ok_or",
    "ok_or_else", "or_else", "parse", "pop", "pop_back", "pop_front", "position",
    "push", "push_back", "push_front", "push_str", "put", "range", "remove",
    "replace", "retain", "rev", "scan", "skip", "sort", "sort_by", "sort_by_key",
    "split", "split_off", "starts_with", "sum", "take", "then", "to_string",
    "to_vec", "trim", "truncate", "unwrap_or", "unwrap_or_default",
    "unwrap_or_else", "values", "values_mut", "windows", "zip",
];

/// Maximum number of distinct defining types for which an unresolvable
/// receiver still resolves by method name (covers trait-object dispatch).
const MAX_DISPATCH: usize = 8;

/// A lock class in the analyzed graph.
#[derive(Debug, Clone)]
pub struct ClassInfo {
    /// Class name (`plog.shard`, or `auto:<Owner>.<field>` when the field
    /// is a lock but absent from the declared hierarchy).
    pub name: String,
    /// Declared rank, if the class is in [`HIERARCHY`].
    pub rank: Option<u32>,
    /// Owning struct.
    pub owner: String,
    /// Lock field name.
    pub field: String,
}

/// One `held → acquired` edge with provenance.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// Index of the held class in [`LockGraph::classes`].
    pub from: usize,
    /// Index of the acquired class.
    pub to: usize,
    /// Workspace-relative file of the acquisition or call.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Callee name when the edge was propagated through a call summary.
    pub via: Option<String>,
}

/// The inter-procedural lock-acquisition graph.
#[derive(Debug, Clone, Default)]
pub struct LockGraph {
    /// Every lock class discovered (declared classes first, in hierarchy
    /// order, then auto-discovered ones).
    pub classes: Vec<ClassInfo>,
    /// Deduplicated `held → acquired` edges with first-seen provenance.
    pub edges: Vec<LockEdge>,
}

/// A finding produced by the model pass, before waiver filtering.
#[derive(Debug, Clone)]
pub struct ModelFinding {
    /// Which rule fired (R9 or R10).
    pub rule: Rule,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

// ---------------------------------------------------------------------------
// Fact model
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct FnInfo {
    name: String,
    /// Enclosing impl/trait-block type (`impl Foo`, `impl Tr for Foo`,
    /// `trait Tr`).
    self_ty: Option<String>,
    /// Trait name for `impl Tr for Foo` methods and `trait Tr` defaults.
    trait_ty: Option<String>,
    file: usize,
    /// 1-based line of the `fn` keyword.
    line: usize,
    has_ctx_param: bool,
    is_test: bool,
    /// Declared return type (first meaningful ident; `Self` resolved).
    ret_ty: Option<String>,
    /// Known types of parameters and `let`-bound locals, by name.
    locals: BTreeMap<String, String>,
    acquires: Vec<Acq>,
    calls: Vec<CallSite>,
    /// `IoCtx::new(` occurrences: 1-based lines.
    mints: Vec<usize>,
    /// Ordered body events for the held-set walk.
    events: Vec<Event>,
}

#[derive(Debug, Clone)]
struct Acq {
    class: usize,
    /// 1-based line.
    line: usize,
    /// Brace depth at the acquisition.
    depth: i32,
    held: bool,
    binding: Option<String>,
    /// Method chained directly onto the fresh guard (`.lock().put(..)`).
    chained: Option<String>,
}

/// One segment of a receiver path; `is_call` marks `seg(..)` method or
/// function segments (resolved through return types, not field types).
#[derive(Debug, Clone, PartialEq)]
struct Seg {
    name: String,
    is_call: bool,
}

#[derive(Debug, Clone)]
enum CallTarget {
    /// `Type::name(..)` (`Self` already resolved to the impl type).
    Path(String, String),
    /// `recv.name(..)` with the receiver's segment path (`self.pool`).
    Method(Vec<Seg>, String),
    /// Bare `name(..)`.
    Free(String),
}

#[derive(Debug, Clone)]
struct CallSite {
    line: usize,
    target: CallTarget,
    /// Resolved callee fn indices (possibly several for trait dispatch).
    resolved: Vec<usize>,
}

#[derive(Debug, Clone)]
enum Event {
    /// Index into `FnInfo::acquires`.
    Acquire(usize),
    /// Index into `FnInfo::calls`.
    Call(usize),
    /// `drop(<binding>)`.
    Release(String),
    /// Depth at the end of a line: releases scope-bound guards.
    ScopeEnd(i32),
}

#[derive(Debug, Default)]
struct StructFacts {
    /// `(owner, field)` → declared type text.
    field_ty: BTreeMap<(String, String), String>,
}

/// The extracted workspace model.
#[derive(Debug, Default)]
pub struct Model {
    files: Vec<String>,
    fns: Vec<FnInfo>,
    classes: Vec<ClassInfo>,
    structs: StructFacts,
    /// `(owner, field)` → class index, for every Mutex/RwLock field.
    lock_fields: BTreeMap<(String, String), usize>,
    /// lock field name → owning (owner, class, file) candidates.
    lock_field_names: BTreeMap<String, Vec<(String, usize, usize)>>,
    /// `(type, method)` → fn indices (inherent impls).
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// `(trait, method)` → fn indices (all impls of the trait).
    trait_methods: BTreeMap<(String, String), Vec<usize>>,
    /// free fn name → fn indices.
    free_fns: BTreeMap<String, Vec<usize>>,
    /// method name → set of defining types (for the dispatch fallback).
    method_types: BTreeMap<String, BTreeSet<String>>,
}

impl Model {
    fn crate_of(&self, file_idx: usize) -> &str {
        crate_of_path(&self.files[file_idx])
    }
}

fn crate_of_path(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
}

/// Strip smart-pointer/container wrappers and references off a declared
/// type and return the first meaningful type identifier:
/// `Arc<RwLock<KvStore>>` → `RwLock`… is a lock (checked separately);
/// `Arc<StoragePool>` → `StoragePool`; `Box<dyn Chore>` → `Chore`.
fn strip_type(ty: &str) -> Option<String> {
    let mut t = ty.trim();
    loop {
        t = t.trim_start_matches('&').trim();
        t = t.strip_prefix("mut ").unwrap_or(t).trim();
        t = t.strip_prefix("dyn ").unwrap_or(t).trim();
        let mut stripped = false;
        for w in ["Arc<", "Rc<", "Box<", "Option<", "Vec<"] {
            if let Some(rest) = t.strip_prefix(w) {
                t = rest.trim_end_matches(['>', ' ', ',']).trim();
                stripped = true;
                break;
            }
        }
        if !stripped {
            break;
        }
    }
    let ident: String =
        t.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    // Keep only path-leading idents; `BTreeMap` etc. are fine to return,
    // callers look them up and fail closed.
    if ident.is_empty() { None } else { Some(ident) }
}

/// The lock kind of a declared field type, if it is a lock.
fn lock_kind(ty: &str) -> Option<&'static str> {
    if ty.contains("Mutex<") {
        Some("Mutex")
    } else if ty.contains("RwLock<") {
        Some("RwLock")
    } else {
        None
    }
}

/// The protected inner type of a lock field (`Mutex<ShardState>` →
/// `ShardState`).
fn lock_inner_type(ty: &str) -> Option<String> {
    let pos = ty.find("Mutex<").map(|p| p + "Mutex<".len()).or_else(|| {
        ty.find("RwLock<").map(|p| p + "RwLock<".len())
    })?;
    let rest = ty[pos..].trim_start().trim_start_matches("dyn ").trim_start();
    let ident: String =
        rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if ident.is_empty() { None } else { Some(ident) }
}

// ---------------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------------

/// Build the workspace model from `(workspace-relative path, source)`
/// pairs. Test code (`#[cfg(test)]` regions) contributes no facts.
pub fn build(files: &[(String, String)]) -> Model {
    let mut model = Model::default();
    let cleaned: Vec<CleanedSource> =
        files.iter().map(|(_, src)| scanner::clean(src)).collect();
    model.files = files.iter().map(|(p, _)| p.clone()).collect();

    // Pass 1: items — structs (fields), impl blocks, fn definitions.
    for (fi, clean) in cleaned.iter().enumerate() {
        extract_items(&mut model, fi, clean);
    }
    index_model(&mut model);

    // Pass 2: expressions — acquisitions, calls, mints, events.
    for (fi, clean) in cleaned.iter().enumerate() {
        extract_bodies(&mut model, fi, clean);
    }
    resolve_calls(&mut model);
    model
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Take the identifier starting at byte `pos`.
fn ident_at(code: &str, pos: usize) -> String {
    code[pos..].chars().take_while(|&c| is_ident_char(c)).collect()
}

/// Parse the type name out of an `impl` header line. Returns
/// `(self_ty, trait_ty)`.
fn parse_impl_header(line: &str) -> (Option<String>, Option<String>) {
    let rest = line.trim_start();
    let Some(mut rest) = rest.strip_prefix("impl") else { return (None, None) };
    // Generics on the impl itself: skip a balanced `<...>`.
    rest = rest.trim_start();
    if let Some(stripped) = skip_generics(rest) {
        rest = stripped;
    }
    let rest = rest.trim_start();
    let head = rest.split(" where ").next().unwrap_or(rest);
    let head = head.trim_end_matches('{').trim();
    if let Some(for_pos) = find_for_keyword(head) {
        let trait_part = head[..for_pos].trim();
        let ty_part = head[for_pos + 5..].trim();
        (last_type_ident(ty_part), last_type_ident(trait_part))
    } else {
        (last_type_ident(head), None)
    }
}

/// Find ` for ` as a keyword (not inside generics).
fn find_for_keyword(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i + 5 <= s.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' => depth -= 1,
            b' ' if depth == 0 && s[i..].starts_with(" for ") => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

fn skip_generics(s: &str) -> Option<&str> {
    let mut chars = s.char_indices();
    match chars.next() {
        Some((_, '<')) => {}
        _ => return None,
    }
    let mut depth = 1;
    for (i, c) in chars {
        match c {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[i + 1..]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Last path segment of a type expression, generics stripped:
/// `fmt::Debug` → `Debug`, `Mutex<T>` → `Mutex`, `&mut Foo<'a>` → `Foo`.
fn last_type_ident(ty: &str) -> Option<String> {
    let base = ty.split('<').next().unwrap_or(ty);
    let seg = base.rsplit("::").next().unwrap_or(base);
    let seg = seg.trim().trim_start_matches('&').trim_start_matches("mut ").trim();
    let ident: String = seg.chars().filter(|&c| is_ident_char(c)).collect();
    if ident.is_empty() { None } else { Some(ident) }
}

/// Parse a function signature (`fn name(params) -> Ret`) into a
/// name → type table for the parameters and the return type ident.
/// `self_ty` resolves `Self` in the return position.
fn parse_signature(
    sig: &str,
    self_ty: Option<&str>,
) -> (BTreeMap<String, String>, Option<String>) {
    let mut params = BTreeMap::new();
    // Find the parameter list: the first '(' outside generic brackets.
    let bytes = sig.as_bytes();
    let mut angle = 0i32;
    let mut open = None;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b'(' if angle <= 0 => {
                open = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(open) = open else { return (params, None) };
    let mut depth = 0i32;
    let mut close = sig.len();
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                depth -= 1;
                if depth == 0 {
                    close = i;
                    break;
                }
            }
            _ => {}
        }
    }
    let param_text = &sig[open + 1..close.min(sig.len())];
    // Split on top-level commas.
    let mut piece_start = 0;
    let mut nest = 0i32;
    let mut pieces = Vec::new();
    for (i, c) in param_text.char_indices() {
        match c {
            '<' | '(' | '[' => nest += 1,
            '>' | ')' | ']' => nest -= 1,
            ',' if nest <= 0 => {
                pieces.push(&param_text[piece_start..i]);
                piece_start = i + 1;
            }
            _ => {}
        }
    }
    pieces.push(&param_text[piece_start..]);
    for piece in pieces {
        let piece = piece.trim();
        let piece = piece.strip_prefix("mut ").unwrap_or(piece).trim_start();
        let name: String = piece.chars().take_while(|&c| is_ident_char(c)).collect();
        if name.is_empty() || name == "self" {
            continue;
        }
        let rest = piece[name.len()..].trim_start();
        let Some(ty_text) = rest.strip_prefix(':') else { continue };
        if let Some(ty) = strip_type(ty_text) {
            params.insert(name, ty);
        }
    }
    // Return type: after "->", up to a `where` clause or the body.
    let tail = &sig[close.min(sig.len())..];
    let ret = tail.find("->").and_then(|p| {
        let text = tail[p + 2..].split(" where ").next().unwrap_or("");
        let text = text.trim();
        let text = text
            .strip_prefix("Result<")
            .or_else(|| text.strip_prefix("Option<"))
            .unwrap_or(text);
        let ty = strip_type(text)?;
        if ty == "Self" {
            self_ty.map(|t| t.to_string())
        } else {
            Some(ty)
        }
    });
    (params, ret)
}

#[derive(Debug)]
enum Block {
    Impl { self_ty: Option<String>, trait_ty: Option<String> },
    Struct { name: String },
    Fn { fn_idx: usize },
    Other,
}

/// Pass 1: walk a file's lines tracking brace depth; record structs with
/// their fields, impl blocks, and fn definitions (signature facts only).
fn extract_items(model: &mut Model, file_idx: usize, clean: &CleanedSource) {
    let mut depth: i32 = 0;
    // Open blocks with the depth *inside* them.
    let mut blocks: Vec<(i32, Block)> = Vec::new();
    // An item header seen, waiting for its `{` (or `;`).
    let mut pending: Option<Block> = None;
    let mut pending_fn_sig = String::new();

    for (idx, line) in clean.lines.iter().enumerate() {
        let code = &line.code;
        let trimmed = code.trim_start();

        if pending.is_none() {
            let after_vis = strip_visibility(trimmed);
            if after_vis.starts_with("impl") &&
                after_vis.chars().nth(4).is_none_or(|c| c == ' ' || c == '<')
            {
                let (self_ty, trait_ty) = parse_impl_header(after_vis);
                pending = Some(Block::Impl { self_ty, trait_ty });
            } else if let Some(rest) = after_vis.strip_prefix("trait ") {
                if let Some(name) = last_type_ident(rest.split(['{', ':']).next().unwrap_or(rest)) {
                    pending = Some(Block::Impl { self_ty: Some(name.clone()), trait_ty: Some(name) });
                }
            } else if let Some(rest) = after_vis.strip_prefix("struct ") {
                let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
                if !name.is_empty() && rest[name.len()..].trim_start().starts_with('{')
                    || !name.is_empty() && !rest.contains('(') && !rest.trim_end().ends_with(';')
                {
                    pending = Some(Block::Struct { name });
                } // tuple/unit structs carry no named fields
            } else if let Some(fn_pos) = fn_keyword_pos(code) {
                let name = ident_at(code, fn_pos + 3);
                if !name.is_empty() {
                    let (self_ty, trait_ty) = enclosing_impl(&blocks);
                    model.fns.push(FnInfo {
                        name,
                        self_ty,
                        trait_ty,
                        file: file_idx,
                        line: idx + 1,
                        has_ctx_param: false,
                        is_test: line.in_test_code,
                        ret_ty: None,
                        locals: BTreeMap::new(),
                        acquires: Vec::new(),
                        calls: Vec::new(),
                        mints: Vec::new(),
                        events: Vec::new(),
                    });
                    pending = Some(Block::Fn { fn_idx: model.fns.len() - 1 });
                    pending_fn_sig.clear();
                    pending_fn_sig.push_str(&code[fn_pos..]);
                }
            }
        } else if let Some(Block::Fn { .. }) = pending {
            pending_fn_sig.push(' ');
            pending_fn_sig.push_str(trimmed);
        }

        // Struct fields: a line inside an open struct block.
        if let Some((block_depth, Block::Struct { name })) = blocks.last().map(|(d, b)| (*d, b)) {
            if depth == block_depth && pending.is_none() {
                let name = name.clone();
                record_struct_field(model, &name, trimmed);
            }
        }

        // Brace tracking + pending binding.
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(block) = pending.take() {
                        if let Block::Fn { fn_idx } = block {
                            let sig = pending_fn_sig.split('{').next().unwrap_or("").to_string();
                            apply_signature(model, fn_idx, &sig);
                            blocks.push((depth, Block::Fn { fn_idx }));
                        } else {
                            blocks.push((depth, block));
                        }
                    } else {
                        blocks.push((depth, Block::Other));
                    }
                }
                '}' => {
                    while blocks.last().is_some_and(|(d, _)| *d >= depth) {
                        blocks.pop();
                    }
                    depth -= 1;
                }
                ';' => {
                    // `fn f(..);` (trait decl) or unit struct: drop pending.
                    if depth == blocks.last().map(|(d, _)| *d).unwrap_or(0) {
                        if let Some(Block::Fn { fn_idx }) = pending.take() {
                            // Body-less: keep the fn (trait decl) with sig facts.
                            let sig = pending_fn_sig.split(';').next().unwrap_or("").to_string();
                            apply_signature(model, fn_idx, &sig);
                        } else {
                            pending = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

fn apply_signature(model: &mut Model, fn_idx: usize, sig: &str) {
    model.fns[fn_idx].has_ctx_param = sig.contains("IoCtx");
    let self_ty = model.fns[fn_idx].self_ty.clone();
    let (params, ret) = parse_signature(sig, self_ty.as_deref());
    model.fns[fn_idx].locals = params;
    model.fns[fn_idx].ret_ty = ret;
}

fn strip_visibility(s: &str) -> &str {
    let s = s.trim_start();
    if let Some(rest) = s.strip_prefix("pub") {
        let rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('(') {
            if let Some(close) = after.find(')') {
                return after[close + 1..].trim_start();
            }
        }
        return rest;
    }
    s
}

/// Position of a `fn` keyword introducing a definition on this line.
fn fn_keyword_pos(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("fn ") {
        let at = from + pos;
        let ok_before = at == 0 || !is_ident_char(bytes[at - 1] as char);
        if ok_before {
            let name = ident_at(code, at + 3);
            if !name.is_empty() {
                return Some(at);
            }
        }
        from = at + 3;
    }
    None
}

fn enclosing_impl(blocks: &[(i32, Block)]) -> (Option<String>, Option<String>) {
    for (_, b) in blocks.iter().rev() {
        if let Block::Impl { self_ty, trait_ty } = b {
            return (self_ty.clone(), trait_ty.clone());
        }
    }
    (None, None)
}

fn record_struct_field(model: &mut Model, owner: &str, line: &str) {
    let line = strip_visibility(line.trim_start());
    if line.starts_with('#') || line.is_empty() {
        return;
    }
    // `name: Type,` — the colon must come before any '<' or '(' to be a
    // field declaration and not an expression.
    let name: String = line.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        return;
    }
    let rest = line[name.len()..].trim_start();
    let Some(ty) = rest.strip_prefix(':') else { return };
    let ty = ty.trim().trim_end_matches(',').trim();
    if ty.is_empty() {
        return;
    }
    model
        .structs
        .field_ty
        .insert((owner.to_string(), name), ty.to_string());
}

/// Build the class table and the method/field indexes after pass 1.
fn index_model(model: &mut Model) {
    // Declared classes first, in hierarchy order.
    for spec in HIERARCHY {
        model.classes.push(ClassInfo {
            name: spec.name.to_string(),
            rank: Some(spec.rank),
            owner: spec.owner.to_string(),
            field: spec.field.to_string(),
        });
        model
            .lock_fields
            .insert((spec.owner.to_string(), spec.field.to_string()), model.classes.len() - 1);
    }
    // Auto-discovered lock fields.
    let fields: Vec<((String, String), String)> = model
        .structs
        .field_ty
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    for ((owner, field), ty) in fields {
        if lock_kind(&ty).is_none() {
            continue;
        }
        let key = (owner.clone(), field.clone());
        if !model.lock_fields.contains_key(&key) {
            model.classes.push(ClassInfo {
                name: format!("auto:{owner}.{field}"),
                rank: None,
                owner: owner.clone(),
                field: field.clone(),
            });
            model.lock_fields.insert(key, model.classes.len() - 1);
        }
    }
    // Field-name candidates need file provenance; find each owner's file
    // by scanning fn/impl info is unreliable — record via struct decls
    // during pass 2 instead: here we only know owner names. Approximate
    // the file as "any file that declares a fn on the owner" — good
    // enough because same-file disambiguation only needs the declaring
    // file, which pass 2 supplies through `struct_files`.
    for ((owner, field), &class) in &model.lock_fields {
        model
            .lock_field_names
            .entry(field.clone())
            .or_default()
            .push((owner.clone(), class, usize::MAX));
    }

    for (i, f) in model.fns.iter().enumerate() {
        if let Some(ty) = &f.self_ty {
            model
                .methods
                .entry((ty.clone(), f.name.clone()))
                .or_default()
                .push(i);
            model
                .method_types
                .entry(f.name.clone())
                .or_default()
                .insert(ty.clone());
        }
        if let Some(tr) = &f.trait_ty {
            model
                .trait_methods
                .entry((tr.clone(), f.name.clone()))
                .or_default()
                .push(i);
        }
        if f.self_ty.is_none() {
            model.free_fns.entry(f.name.clone()).or_default().push(i);
        }
    }
}

// ---------------------------------------------------------------------------
// Pass 2: expressions
// ---------------------------------------------------------------------------

const ACQ_TOKENS: [(&str, &str); 3] =
    [(".lock()", "Mutex"), (".read()", "RwLock"), (".write()", "RwLock")];

const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod",
    "move", "mut", "pub", "ref", "return", "static", "struct", "trait", "true",
    "type", "unsafe", "use", "where", "while",
];

fn extract_bodies(model: &mut Model, file_idx: usize, clean: &CleanedSource) {
    // Re-walk the file, attributing lines to the innermost open fn. The
    // item structure was already captured; we only need fn boundaries.
    let mut depth: i32 = 0;
    let mut fn_stack: Vec<(i32, usize)> = Vec::new();
    let mut pending_fn: Option<usize> = None;
    // fn defs in this file in order, to re-sync with pass 1.
    let mut defs: Vec<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.file == file_idx)
        .map(|(i, _)| i)
        .collect();
    defs.reverse(); // pop from the back in source order

    let mut prev_code = String::new();
    for (idx, line) in clean.lines.iter().enumerate() {
        let code = &line.code;
        if fn_keyword_pos(code).is_some() && defs.last().is_some_and(|&f| model.fns[f].line == idx + 1)
        {
            pending_fn = defs.pop();
        }

        // Identify the fn owning this line's expressions.
        let owner = fn_stack.last().map(|&(_, f)| f);
        let mut line_owner = owner;

        // Brace walk (and pending fn body binding).
        let mut depth_by_pos: Vec<(usize, i32)> = Vec::new();
        for (pos, c) in code.char_indices() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(fn_idx) = pending_fn.take() {
                        fn_stack.push((depth, fn_idx));
                        line_owner = Some(fn_idx);
                    }
                }
                '}' => {
                    while fn_stack.last().is_some_and(|&(d, _)| d >= depth) {
                        fn_stack.pop();
                    }
                    depth -= 1;
                }
                ';' if depth == 0 => {
                    pending_fn = None; // trait method decl without body
                }
                _ => {}
            }
            depth_by_pos.push((pos, depth));
        }
        let depth_at = |pos: usize| -> i32 {
            depth_by_pos
                .iter()
                .rev()
                .find(|&&(p, _)| p < pos)
                .map(|&(_, d)| d)
                .unwrap_or(depth)
        };

        let Some(fn_idx) = line_owner else {
            prev_code = code.clone();
            continue;
        };
        if line.in_test_code || model.fns[fn_idx].is_test {
            prev_code = code.clone();
            continue;
        }

        // `let` bindings with a recoverable type: an explicit annotation
        // (`let d: &Arc<Device> = ..`) or a `Type::ctor(..)` /
        // `Type { .. }` right-hand side. Flat per-fn scope; shadowing
        // overwrites.
        record_local_binding(model, fn_idx, code);

        // Events on this line, ordered by column.
        let mut line_events: Vec<(usize, Event)> = Vec::new();

        // Acquisitions.
        for (token, want_kind) in ACQ_TOKENS {
            let mut from = 0;
            while let Some(p) = code[from..].find(token) {
                let at = from + p;
                from = at + token.len();
                let Some(segments) = receiver_segments(code, at, &prev_code) else { continue };
                let Some((class, kind)) = resolve_lock_field(model, file_idx, fn_idx, &segments)
                else {
                    continue;
                };
                if kind != want_kind {
                    continue;
                }
                let (held, binding, chained) = acquisition_shape(code, at + token.len(), clean, idx);
                let acq = Acq {
                    class,
                    line: idx + 1,
                    depth: depth_at(at),
                    held,
                    binding,
                    chained,
                };
                model.fns[fn_idx].acquires.push(acq);
                line_events.push((at, Event::Acquire(model.fns[fn_idx].acquires.len() - 1)));
            }
        }

        // Calls, releases, mints.
        collect_calls(model, fn_idx, code, &prev_code, idx, &mut line_events);

        line_events.sort_by_key(|&(col, _)| col);
        for (_, ev) in line_events {
            model.fns[fn_idx].events.push(ev);
        }
        model.fns[fn_idx].events.push(Event::ScopeEnd(depth));
        prev_code = code.clone();
    }
}

/// Record a typed `let` binding from this line into the fn's local table.
fn record_local_binding(model: &mut Model, fn_idx: usize, code: &str) {
    let trimmed = code.trim_start();
    let Some(after_let) = trimmed.strip_prefix("let ") else { return };
    let after_let = after_let.trim_start();
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let).trim_start();
    let name = ident_at(after_mut, 0);
    if name.is_empty() {
        return;
    }
    let rest = after_mut[name.len()..].trim_start();
    let ty = if let Some(annot) = rest.strip_prefix(':') {
        // `let d: &Arc<Device> = ..`
        strip_type(annot.split('=').next().unwrap_or(annot))
    } else if let Some(rhs) = rest.strip_prefix('=') {
        // `let b = WriteBatch::new(..)` / `let c = Config { .. }`
        let rhs = rhs.trim_start();
        let head = ident_at(rhs, 0);
        let after_head = rhs[head.len()..].trim_start();
        if head.chars().next().is_some_and(|c| c.is_uppercase())
            && (after_head.starts_with("::") || after_head.starts_with('{'))
        {
            if head == "Self" {
                model.fns[fn_idx].self_ty.clone()
            } else {
                Some(head)
            }
        } else {
            None
        }
    } else {
        None
    };
    if let Some(ty) = ty {
        model.fns[fn_idx].locals.insert(name, ty);
    }
}

/// Walk backwards from the `.` at `dot` collecting the receiver's
/// segment path (`self.shards[i]` → `self.shards`; call segments like
/// `pool_for(..)` are marked). Falls back to `prev_line + line` when the
/// chain starts at column 0 (rustfmt multi-line chains).
fn receiver_segments(code: &str, dot: usize, prev_code: &str) -> Option<Vec<Seg>> {
    fn walk(code: &str, dot: usize) -> (Vec<Seg>, bool) {
        let bytes = code.as_bytes();
        let mut segments: Vec<Seg> = Vec::new();
        let mut i = dot;
        loop {
            // Skip balanced `[..]` / `(..)` groups; a `(..)` group means
            // this segment is a call.
            let mut is_call = false;
            while i > 0 && (bytes[i - 1] == b']' || bytes[i - 1] == b')') {
                let (open, close) = if bytes[i - 1] == b']' { (b'[', b']') } else { (b'(', b')') };
                if close == b')' {
                    is_call = true;
                }
                let mut d = 0i32;
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    if bytes[j] == close {
                        d += 1;
                    } else if bytes[j] == open {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                }
                i = j;
            }
            let end = i;
            while i > 0 && is_ident_char(bytes[i - 1] as char) {
                i -= 1;
            }
            if end == i {
                return (segments, i == 0);
            }
            segments.push(Seg { name: code[i..end].to_string(), is_call });
            if i > 0 && bytes[i - 1] == b'.' {
                i -= 1;
                continue;
            }
            return (segments, i == 0);
        }
    }
    let (mut segments, hit_start) = walk(code, dot);
    if segments.is_empty() && hit_start {
        // `.lock()` begins the line: join with the previous line.
        let joined = format!("{} {}", prev_code.trim_end(), code);
        let new_dot = prev_code.trim_end().len() + 1 + dot;
        let (s, _) = walk(&joined, new_dot);
        segments = s;
    }
    if segments.is_empty() {
        return None;
    }
    segments.reverse();
    Some(segments)
}

/// Resolve a receiver path ending in a lock field to its class.
/// Returns `(class index, lock kind)`.
fn resolve_lock_field(
    model: &Model,
    file_idx: usize,
    fn_idx: usize,
    segments: &[Seg],
) -> Option<(usize, &'static str)> {
    let field = &segments.last()?.name;
    let kind_of = |owner: &str, field: &str| -> Option<&'static str> {
        model
            .structs
            .field_ty
            .get(&(owner.to_string(), field.to_string()))
            .and_then(|ty| lock_kind(ty))
    };
    // `self.field`: enclosing impl type wins. A typed local base
    // (`let st = &self.state; st.lock()` is out of scope, but
    // `dev.state.lock()` with `dev: &Arc<Device>` resolves via locals).
    let base_ty = if segments[0].name == "self" && !segments[0].is_call {
        model.fns[fn_idx].self_ty.clone()
    } else if !segments[0].is_call {
        model.fns[fn_idx].locals.get(&segments[0].name).cloned()
    } else {
        None
    };
    if segments.len() >= 2 {
        if let Some(base_ty) = base_ty {
            // Chase intermediate segments for `self.a.b.lock()` paths;
            // call segments chase the callee's return type.
            let mut ty = base_ty;
            for seg in &segments[1..segments.len() - 1] {
                let next = if seg.is_call {
                    methods_of(model, &ty, &seg.name)
                        .iter()
                        .find_map(|&i| model.fns[i].ret_ty.clone())
                } else {
                    model
                        .structs
                        .field_ty
                        .get(&(ty.clone(), seg.name.clone()))
                        .and_then(|t| strip_type(t))
                };
                match next {
                    Some(t) => ty = t,
                    None => break,
                }
            }
            if let Some(&class) = model.lock_fields.get(&(ty.clone(), field.clone())) {
                return kind_of(&ty, field).map(|k| (class, k));
            }
        }
    }
    // Fallback: by field name, preferring owners declared in this file.
    let candidates = model.lock_field_names.get(field)?;
    let this_file = &model.files[file_idx];
    let this_crate = crate_of_path(this_file);
    let in_file: Vec<_> = candidates
        .iter()
        .filter(|(owner, _, _)| {
            // The owner is "in this file" if any fn on it is.
            model.fns.iter().any(|f| {
                f.self_ty.as_deref() == Some(owner.as_str()) && f.file == file_idx
            })
        })
        .collect();
    let pick = |cands: &[&(String, usize, usize)]| -> Option<(usize, &'static str)> {
        let classes: BTreeSet<usize> = cands.iter().map(|(_, c, _)| *c).collect();
        if classes.len() == 1 {
            let (owner, class, _) = cands[0];
            return kind_of(owner, field).map(|k| (*class, k));
        }
        None
    };
    if let Some(hit) = pick(&in_file) {
        return Some(hit);
    }
    let in_crate: Vec<_> = candidates
        .iter()
        .filter(|(owner, _, _)| {
            model.fns.iter().any(|f| {
                f.self_ty.as_deref() == Some(owner.as_str())
                    && model.crate_of(f.file) == this_crate
            })
        })
        .collect();
    if let Some(hit) = pick(&in_crate) {
        return Some(hit);
    }
    pick(&candidates.iter().collect::<Vec<_>>())
}

/// Classify what follows an acquisition: held guard binding vs transient,
/// and a method chained directly on the fresh guard.
fn acquisition_shape(
    code: &str,
    after: usize,
    clean: &CleanedSource,
    line_idx: usize,
) -> (bool, Option<String>, Option<String>) {
    let rest = code[after..].trim_start();
    let next_significant = if rest.is_empty() {
        // Chain may continue on the following line.
        clean
            .lines
            .get(line_idx + 1)
            .map(|l| l.code.trim_start().to_string())
            .unwrap_or_default()
    } else {
        rest.to_string()
    };
    if let Some(chain) = next_significant.strip_prefix('.') {
        let method = ident_at(chain, 0);
        let method = if method.is_empty() { None } else { Some(method) };
        return (false, None, method);
    }
    let terminal = rest.is_empty() || rest.starts_with(';');
    if !terminal {
        return (false, None, None);
    }
    // `let [mut] name = ... .lock();` → held with a named binding.
    let trimmed = code.trim_start();
    if let Some(after_let) = trimmed.strip_prefix("let ") {
        let after_let = after_let.trim_start();
        let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let).trim_start();
        let name = ident_at(after_mut, 0);
        if !name.is_empty() && after_mut[name.len()..].trim_start().starts_with('=') {
            return (true, Some(name), None);
        }
        // Destructuring or pattern binding: held, but unnamed (released
        // only by scope end).
        return (true, None, None);
    }
    (false, None, None)
}

/// Scan a line for call sites, `drop(..)` releases and `IoCtx::new(`
/// mints, appending events.
fn collect_calls(
    model: &mut Model,
    fn_idx: usize,
    code: &str,
    prev_code: &str,
    line_idx: usize,
    line_events: &mut Vec<(usize, Event)>,
) {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < code.len() {
        if !is_ident_char(bytes[i] as char) {
            i += 1;
            continue;
        }
        let start = i;
        while i < code.len() && is_ident_char(bytes[i] as char) {
            i += 1;
        }
        let name = &code[start..i];
        // Word must begin here.
        if start > 0 && is_ident_char(bytes[start - 1] as char) {
            continue;
        }
        // Followed by `(` (allowing `::<..>` turbofish is out of scope).
        let mut j = i;
        while j < code.len() && bytes[j] == b' ' {
            j += 1;
        }
        if j >= code.len() || bytes[j] != b'(' {
            continue;
        }
        // Macros (`name!(`) were consumed above because `!` is not a space;
        // check explicitly: the char right after the ident.
        if bytes.get(i) == Some(&b'!') {
            continue;
        }
        // Skip definitions: `fn name(`.
        if code[..start].trim_end().ends_with("fn") {
            continue;
        }
        if KEYWORDS.contains(&name) {
            continue;
        }
        let preceded_by = |s: &str| code[..start].ends_with(s);
        if name == "drop" && !preceded_by(".") && !preceded_by("::") {
            let arg = ident_at(code, j + 1);
            if !arg.is_empty() && code[j + 1 + arg.len()..].starts_with(')') {
                line_events.push((start, Event::Release(arg)));
            }
            continue;
        }
        let target = if preceded_by("::") {
            // Path call: take the segment before `::`.
            let before = &code[..start - 2];
            let seg_end = before.len();
            let mut k = seg_end;
            let b2 = before.as_bytes();
            while k > 0 && is_ident_char(b2[k - 1] as char) {
                k -= 1;
            }
            let ty = &before[k..seg_end];
            if ty.is_empty() {
                None
            } else if ty == "IoCtx" && name == "new" {
                model.fns[fn_idx].mints.push(line_idx + 1);
                None
            } else {
                let ty = if ty == "Self" {
                    model.fns[fn_idx].self_ty.clone().unwrap_or_else(|| "Self".into())
                } else {
                    ty.to_string()
                };
                Some(CallTarget::Path(ty, name.to_string()))
            }
        } else if preceded_by(".") {
            if matches!(name, "lock" | "read" | "write" | "try_lock") {
                None // acquisitions, handled separately
            } else {
                receiver_segments(code, start - 1, prev_code)
                    .map(|segs| CallTarget::Method(segs, name.to_string()))
            }
        } else {
            Some(CallTarget::Free(name.to_string()))
        };
        if let Some(target) = target {
            model.fns[fn_idx].calls.push(CallSite {
                line: line_idx + 1,
                target,
                resolved: Vec::new(),
            });
            line_events.push((start, Event::Call(model.fns[fn_idx].calls.len() - 1)));
        }
    }
}

/// Resolve every recorded call site to callee fn indices.
fn resolve_calls(model: &mut Model) {
    let mut resolved: Vec<Vec<Vec<usize>>> = Vec::with_capacity(model.fns.len());
    for f in &model.fns {
        let mut per_fn = Vec::with_capacity(f.calls.len());
        for call in &f.calls {
            per_fn.push(resolve_one(model, f, &call.target));
        }
        resolved.push(per_fn);
    }
    for (f, per_fn) in model.fns.iter_mut().zip(resolved) {
        for (call, r) in f.calls.iter_mut().zip(per_fn) {
            call.resolved = r;
        }
    }
}

fn methods_of(model: &Model, ty: &str, name: &str) -> Vec<usize> {
    let key = (ty.to_string(), name.to_string());
    if let Some(v) = model.methods.get(&key) {
        return v.clone();
    }
    if let Some(v) = model.trait_methods.get(&key) {
        return v.clone();
    }
    Vec::new()
}

fn dispatch_fallback(model: &Model, name: &str) -> Vec<usize> {
    if NOISY_METHODS.contains(&name) {
        return Vec::new();
    }
    let Some(types) = model.method_types.get(name) else { return Vec::new() };
    if types.is_empty() || types.len() > MAX_DISPATCH {
        return Vec::new();
    }
    let mut out = Vec::new();
    for ty in types {
        out.extend(methods_of(model, ty, name));
    }
    out
}

fn resolve_one(model: &Model, caller: &FnInfo, target: &CallTarget) -> Vec<usize> {
    match target {
        CallTarget::Path(ty, name) => {
            let hit = methods_of(model, ty, name);
            if !hit.is_empty() {
                return hit;
            }
            Vec::new()
        }
        CallTarget::Method(segments, name) => {
            let base = &segments[0];
            if segments.len() == 1 && base.name == "self" && !base.is_call {
                if let Some(ty) = &caller.self_ty {
                    let hit = methods_of(model, ty, name);
                    if !hit.is_empty() {
                        return hit;
                    }
                }
                return dispatch_fallback(model, name);
            }
            // Base type: `self` → the impl type; a plain identifier → a
            // typed local or parameter; a call base → unknown.
            let mut ty: Option<String> = if base.name == "self" && !base.is_call {
                caller.self_ty.clone()
            } else if !base.is_call {
                caller.locals.get(&base.name).cloned()
            } else {
                None
            };
            let base_typed = ty.is_some();
            for seg in &segments[1..] {
                ty = match &ty {
                    Some(t) => {
                        if seg.is_call {
                            // `self.pool_for(..).delete(..)`: chase the
                            // callee's return type.
                            methods_of(model, t, &seg.name)
                                .iter()
                                .find_map(|&i| model.fns[i].ret_ty.clone())
                        } else {
                            model
                                .structs
                                .field_ty
                                .get(&(t.clone(), seg.name.clone()))
                                .and_then(|raw| strip_type(raw))
                        }
                    }
                    None if !seg.is_call => {
                        // Unknown base (`obj.plog.delete(..)`): all structs
                        // declaring this field must agree on the type.
                        let types: BTreeSet<String> = model
                            .structs
                            .field_ty
                            .iter()
                            .filter(|((_, f), _)| f == &seg.name)
                            .filter_map(|(_, raw)| strip_type(raw))
                            .collect();
                        if types.len() == 1 {
                            types.into_iter().next()
                        } else {
                            None
                        }
                    }
                    None => None,
                };
                if ty.is_none() {
                    break;
                }
            }
            match ty {
                Some(ty) => {
                    // A resolved receiver type is authoritative: no method
                    // in the workspace means the call is external
                    // (Vec::push, HashMap::get, ...) — no edges, no
                    // name-based fallback.
                    methods_of(model, &ty, name)
                }
                // The base had a known type but the chase dead-ended:
                // still authoritative enough to skip the noisy fallback.
                None if base_typed => Vec::new(),
                None => dispatch_fallback(model, name),
            }
        }
        CallTarget::Free(name) => {
            let Some(cands) = model.free_fns.get(name) else { return Vec::new() };
            let caller_crate = model.crate_of(caller.file).to_string();
            let same_crate: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| model.crate_of(model.fns[i].file) == caller_crate)
                .collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            cands.clone()
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Per-function lock summaries: the classes a call into the function may
/// acquire, propagated along call edges to a fixpoint.
fn lock_summaries(model: &Model) -> Vec<BTreeSet<usize>> {
    let mut summary: Vec<BTreeSet<usize>> = model
        .fns
        .iter()
        .map(|f| f.acquires.iter().map(|a| a.class).collect())
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in model.fns.iter().enumerate() {
            let mut add: BTreeSet<usize> = BTreeSet::new();
            for call in &f.calls {
                for &callee in &call.resolved {
                    if callee != i {
                        add.extend(summary[callee].iter().copied());
                    }
                }
            }
            // Chained calls on a fresh guard resolve against the locked
            // inner type; fold those in too.
            for acq in &f.acquires {
                if let Some(chained) = &acq.chained {
                    for callee in chained_callees(model, acq, chained) {
                        if callee != i {
                            add.extend(summary[callee].iter().copied());
                        }
                    }
                }
            }
            if !add.is_subset(&summary[i]) {
                summary[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            return summary;
        }
    }
}

/// Resolve a method chained directly onto a fresh guard
/// (`self.inner.write().put(..)`) against the lock's protected type.
fn chained_callees(model: &Model, acq: &Acq, chained: &str) -> Vec<usize> {
    let info = &model.classes[acq.class];
    let inner = model
        .structs
        .field_ty
        .get(&(info.owner.clone(), info.field.clone()))
        .and_then(|raw| lock_inner_type(raw));
    if let Some(inner) = inner {
        let hit = methods_of(model, &inner, chained);
        if !hit.is_empty() {
            return hit;
        }
    }
    Vec::new()
}

struct ActiveGuard {
    class: usize,
    depth: i32,
    binding: Option<String>,
}

/// Run the full analysis over `(path, source)` pairs: build the model,
/// compute the lock graph and produce R9/R10 findings (unfiltered by
/// waivers — the caller applies those).
pub fn analyze(files: &[(String, String)]) -> (Vec<ModelFinding>, LockGraph) {
    let model = build(files);
    let summaries = lock_summaries(&model);
    let mut findings: Vec<ModelFinding> = Vec::new();

    // --- Lock graph: held-set walk over every function body. ---
    let mut edge_map: BTreeMap<(usize, usize), (String, usize, Option<String>)> = BTreeMap::new();
    for f in &model.fns {
        if f.is_test {
            continue;
        }
        let file = model.files[f.file].clone();
        let mut active: Vec<ActiveGuard> = Vec::new();
        for ev in &f.events {
            match ev {
                Event::Acquire(ai) => {
                    let acq = &f.acquires[*ai];
                    for g in &active {
                        if g.class == acq.class {
                            findings.push(ModelFinding {
                                rule: Rule::R9,
                                file: file.clone(),
                                line: acq.line,
                                message: format!(
                                    "nested acquisition of lock class `{}` while already held \
                                     (std::sync::Mutex self-deadlocks)",
                                    model.classes[acq.class].name
                                ),
                            });
                        } else {
                            edge_map
                                .entry((g.class, acq.class))
                                .or_insert((file.clone(), acq.line, None));
                        }
                    }
                    // A method chained on the fresh guard runs while the
                    // lock is held.
                    if let Some(chained) = &acq.chained {
                        for callee in chained_callees(&model, acq, chained) {
                            for &cls in &summaries[callee] {
                                if cls != acq.class {
                                    edge_map.entry((acq.class, cls)).or_insert((
                                        file.clone(),
                                        acq.line,
                                        Some(chained.clone()),
                                    ));
                                }
                                for g in &active {
                                    if cls != g.class {
                                        edge_map.entry((g.class, cls)).or_insert((
                                            file.clone(),
                                            acq.line,
                                            Some(chained.clone()),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    if acq.held {
                        active.push(ActiveGuard {
                            class: acq.class,
                            depth: acq.depth,
                            binding: acq.binding.clone(),
                        });
                    }
                }
                Event::Call(ci) => {
                    if active.is_empty() {
                        continue;
                    }
                    let call = &f.calls[*ci];
                    let mut acquired: BTreeSet<usize> = BTreeSet::new();
                    for &callee in &call.resolved {
                        acquired.extend(summaries[callee].iter().copied());
                    }
                    let via = match &call.target {
                        CallTarget::Path(t, n) => format!("{t}::{n}"),
                        CallTarget::Method(_, n) | CallTarget::Free(n) => n.clone(),
                    };
                    for g in &active {
                        for &cls in &acquired {
                            // Same-class edges via summaries are
                            // instance-ambiguous; suppressed by design.
                            if cls != g.class {
                                edge_map
                                    .entry((g.class, cls))
                                    .or_insert((file.clone(), call.line, Some(via.clone())));
                            }
                        }
                    }
                }
                Event::Release(name) => {
                    if let Some(pos) =
                        active.iter().rposition(|g| g.binding.as_deref() == Some(name))
                    {
                        active.remove(pos);
                    }
                }
                Event::ScopeEnd(depth) => {
                    active.retain(|g| g.depth <= *depth);
                }
            }
        }
    }

    let mut graph = LockGraph { classes: model.classes.clone(), edges: Vec::new() };
    for ((from, to), (file, line, via)) in &edge_map {
        graph.edges.push(LockEdge {
            from: *from,
            to: *to,
            file: file.clone(),
            line: *line,
            via: via.clone(),
        });
    }

    // --- R9: hierarchy violations. ---
    for e in &graph.edges {
        let (Some(rf), Some(rt)) = (graph.classes[e.from].rank, graph.classes[e.to].rank)
        else {
            continue;
        };
        if rf >= rt {
            let via = e.via.as_deref().map(|v| format!(" (via `{v}`)")).unwrap_or_default();
            findings.push(ModelFinding {
                rule: Rule::R9,
                file: e.file.clone(),
                line: e.line,
                message: format!(
                    "lock-order inversion: `{}` (rank {rt}) acquired while holding `{}` \
                     (rank {rf}){via}; the canonical hierarchy requires strictly \
                     increasing ranks",
                    graph.classes[e.to].name, graph.classes[e.from].name,
                ),
            });
        }
    }

    // --- R9: cycles among classes (deadlock candidates). ---
    for cycle in find_cycles(graph.classes.len(), &graph.edges) {
        let names: Vec<&str> =
            cycle.iter().map(|&c| graph.classes[c].name.as_str()).collect();
        // Anchor the finding at the provenance of the first edge inside
        // the cycle.
        let anchor = graph
            .edges
            .iter()
            .find(|e| cycle.contains(&e.from) && cycle.contains(&e.to));
        let (file, line) = anchor
            .map(|e| (e.file.clone(), e.line))
            .unwrap_or_else(|| (model.files.first().cloned().unwrap_or_default(), 1));
        findings.push(ModelFinding {
            rule: Rule::R9,
            file,
            line,
            message: format!(
                "lock-acquisition cycle (deadlock candidate): {}",
                names.join(" -> "),
            ),
        });
    }

    // --- R10: fresh roots minted on the timed data path. ---
    let reaches = reaches_timed_op(&model);
    for (i, f) in model.fns.iter().enumerate() {
        if f.is_test || f.mints.is_empty() || !reaches[i] {
            continue;
        }
        let file = &model.files[f.file];
        if !DATA_PATH_CRATES.iter().any(|c| file.starts_with(&format!("crates/{c}/src/"))) {
            continue;
        }
        if ROOT_CTX_FILES.contains(&file.as_str()) {
            continue;
        }
        for &line in &f.mints {
            findings.push(ModelFinding {
                rule: Rule::R10,
                file: file.clone(),
                line,
                message: format!(
                    "`IoCtx::new(` in `{}`, which reaches a timed device operation: \
                     accept `&IoCtx` from the caller so its QoS class and trace propagate",
                    f.name
                ),
            });
        }
    }

    (findings, graph)
}

/// Functions that can reach a timed device operation (a simdisk function
/// taking `&IoCtx`), via the call graph.
fn reaches_timed_op(model: &Model) -> Vec<bool> {
    let mut reaches: Vec<bool> = model
        .fns
        .iter()
        .map(|f| {
            f.has_ctx_param
                && !f.is_test
                && model.files[f.file].starts_with("crates/simdisk/src/")
        })
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in model.fns.iter().enumerate() {
            if reaches[i] {
                continue;
            }
            let hit = f
                .calls
                .iter()
                .flat_map(|c| c.resolved.iter())
                .any(|&callee| reaches[callee]);
            if hit {
                reaches[i] = true;
                changed = true;
            }
        }
        if !changed {
            return reaches;
        }
    }
}

/// Strongly connected components with more than one node (Kahn-style
/// elimination: repeatedly strip nodes lacking in- or out-edges; what
/// remains decomposes into cycles). Self-loops are excluded — direct
/// same-class nesting is reported separately.
fn find_cycles(class_count: usize, edges: &[LockEdge]) -> Vec<Vec<usize>> {
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); class_count];
    for e in edges {
        if e.from != e.to {
            adj[e.from].insert(e.to);
        }
    }
    // Iteratively remove nodes with no outgoing or no incoming edges.
    let mut alive: Vec<bool> = vec![true; class_count];
    loop {
        let mut changed = false;
        for n in 0..class_count {
            if !alive[n] {
                continue;
            }
            let has_out = adj[n].iter().any(|&m| alive[m]);
            let has_in = (0..class_count).any(|m| alive[m] && adj[m].contains(&n));
            if !has_out || !has_in {
                alive[n] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Remaining nodes partition into SCCs; collect each weakly-coupled
    // group via DFS over the remaining directed edges.
    let mut seen: Vec<bool> = vec![false; class_count];
    let mut cycles = Vec::new();
    for n in 0..class_count {
        if !alive[n] || seen[n] {
            continue;
        }
        let mut group = Vec::new();
        let mut stack = vec![n];
        while let Some(v) = stack.pop() {
            if seen[v] || !alive[v] {
                continue;
            }
            seen[v] = true;
            group.push(v);
            for &m in &adj[v] {
                if alive[m] && !seen[m] {
                    stack.push(m);
                }
            }
        }
        if group.len() > 1 {
            group.sort();
            cycles.push(group);
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    const CYCLE_FIXTURE: &str = include_str!("../fixtures/lock_cycle.rs");
    const ORDERED_FIXTURE: &str = include_str!("../fixtures/lock_ordered.rs");

    fn one_file(path: &str, source: &str) -> Vec<(String, String)> {
        vec![(path.to_string(), source.to_string())]
    }

    #[test]
    fn extracts_call_edges_through_typed_receivers() {
        let src = "pub struct Helper {
    n: u64,
}

impl Helper {
    pub fn bump(&self) {
        let _ = self.n;
    }
}

pub struct Owner {
    helper: Helper,
}

impl Owner {
    pub fn run(&self, h2: &Helper) {
        self.helper.bump();
        h2.bump();
        let local = Helper { n: 0 };
        local.bump();
    }
}
";
        let model = build(&one_file("crates/sim/src/x.rs", src));
        let run = model.fns.iter().find(|f| f.name == "run").expect("fn run extracted");
        let bump = model
            .fns
            .iter()
            .position(|f| f.name == "bump")
            .expect("fn bump extracted");
        // All three call shapes — field receiver, typed parameter, typed
        // local — resolve to Helper::bump.
        assert_eq!(run.calls.len(), 3, "three call sites: {:?}", run.calls);
        for call in &run.calls {
            assert_eq!(call.resolved, vec![bump], "unresolved: {:?}", call.target);
        }
    }

    #[test]
    fn detects_lock_sites_with_class_and_hold_state() {
        let src = "pub struct PlogStore {
    shards: Mutex<u64>,
}

impl PlogStore {
    pub fn held_then_released(&self) {
        let g = self.shards.lock();
        drop(g);
    }

    pub fn transient(&self) -> u64 {
        *self.shards.lock()
    }
}
";
        let model = build(&one_file("crates/plog/src/store.rs", src));
        let held = model.fns.iter().find(|f| f.name == "held_then_released").unwrap();
        assert_eq!(held.acquires.len(), 1);
        let class = &model.classes[held.acquires[0].class];
        // Owner + field match the canonical table, so the declared class
        // name and rank attach.
        assert_eq!(class.name, "plog.shard");
        assert_eq!(class.rank, Some(60));
        let transient = model.fns.iter().find(|f| f.name == "transient").unwrap();
        assert_eq!(transient.acquires.len(), 1);
    }

    #[test]
    fn fixture_cycle_is_flagged_by_r9() {
        let (findings, graph) = analyze(&one_file("crates/sim/src/pair.rs", CYCLE_FIXTURE));
        assert_eq!(graph.edges.len(), 2, "both orders observed: {:?}", graph.edges);
        let r9: Vec<_> = findings.iter().filter(|f| f.rule == Rule::R9).collect();
        assert!(
            r9.iter().any(|f| f.message.contains("cycle")),
            "expected a cycle finding, got {findings:?}"
        );
    }

    #[test]
    fn fixture_with_consistent_order_is_clean() {
        let (findings, graph) = analyze(&one_file("crates/sim/src/pair.rs", ORDERED_FIXTURE));
        assert_eq!(graph.edges.len(), 1, "one direction only: {:?}", graph.edges);
        assert!(
            findings.iter().all(|f| f.rule != Rule::R9),
            "consistent ordering must not flag: {findings:?}"
        );
    }

    #[test]
    fn deep_ioctx_mint_on_the_timed_path_is_flagged_by_r10() {
        let device = "pub struct Device {
    n: u64,
}

impl Device {
    pub fn read_ctx(&self, ctx: &IoCtx) -> u64 {
        let _ = ctx;
        self.n
    }
}
";
        let caller = "pub struct Reader {
    dev: Device,
}

impl Reader {
    pub fn fetch(&self) -> u64 {
        let ctx = IoCtx::new(0);
        self.dev.read_ctx(&ctx)
    }
}
";
        let files = vec![
            ("crates/simdisk/src/device.rs".to_string(), device.to_string()),
            ("crates/plog/src/reader.rs".to_string(), caller.to_string()),
        ];
        let (findings, _) = analyze(&files);
        let r10: Vec<_> = findings.iter().filter(|f| f.rule == Rule::R10).collect();
        assert_eq!(r10.len(), 1, "exactly the deep mint flags: {findings:?}");
        assert_eq!(r10[0].file, "crates/plog/src/reader.rs");
    }
}
