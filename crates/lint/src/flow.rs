//! Cross-file flow rules.
//!
//! These passes check the shape of the *protocol loop* across crates,
//! using the item-level facts from [`crate::parse`]:
//!
//! * `handler_coverage` — `dead_variant`: every variant of a handler
//!   enum (`Message`, `Timer`) must be constructed somewhere outside
//!   tests, in a crate under the determinism list. A variant nobody
//!   builds is dead protocol surface, and one only an I/O harness
//!   builds is never replayed by the simulator. (The
//!   other half — every variant reaches a core handler — is rustc's
//!   exhaustiveness check: vsr-core's dispatch matches name every
//!   variant, and clippy's wildcard lints keep them free of catch-all
//!   arms.)
//! * `lock_order` — `lock_order_inversion`: per crate, build each
//!   function's guard-acquisition sequence from `.lock()` call sites
//!   and flag lock pairs taken in opposite orders by two functions.
//!
//! Approximations are documented in DESIGN.md §10.2: variant analysis
//! keys on `Enum::Variant` paths (no type inference), and lock order is
//! intra-function with receiver-field names standing in for lock
//! identity.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::parse::{EnumDef, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One analyzed file as the flow passes see it.
pub struct FlowFile<'a> {
    /// Workspace-relative path used in diagnostics.
    pub display: &'a Path,
    /// Token stream.
    pub toks: &'a [Tok],
    /// Test-region mask.
    pub excluded: &'a [bool],
    /// Item-level parse.
    pub parsed: &'a ParsedFile,
    /// Whether `Enum::Variant` paths here count as constructions for
    /// `dead_variant`: false in the I/O harness crates (those that opt
    /// out of clippy's disallowed lists).
    pub counts_constructions: bool,
}

/// Run the enabled flow rules over one standalone file (fixture tests,
/// `vsr-lint FILE…`), which serves as core and lock-order domain at
/// once, under the workspace's conventional handler enums.
pub fn run_single_file(
    display: &Path,
    toks: &[Tok],
    excluded: &[bool],
    parsed: &ParsedFile,
    enabled: &BTreeSet<&'static str>,
) -> Vec<Diagnostic> {
    let cfg = Config {
        rules: Vec::new(),
        handler_enums: vec!["Message".to_string(), "Timer".to_string()],
        core: String::new(),
        lock_order: vec![String::new()],
    };
    let mut units = BTreeMap::new();
    units.insert(
        String::new(),
        vec![FlowFile { display, toks, excluded, parsed, counts_constructions: true }],
    );
    // A standalone file can never fail role validation.
    run(&cfg, enabled, &units).unwrap_or_default()
}

/// Run the enabled flow rules over the workspace's units. `units` maps
/// crate name → its analyzed files; the roles in `cfg` must name keys
/// of that map.
pub fn run(
    cfg: &Config,
    enabled: &BTreeSet<&'static str>,
    units: &BTreeMap<String, Vec<FlowFile>>,
) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    if enabled.contains("dead_variant") {
        let core = role(units, &cfg.core, "flow.core")?;
        for ename in &cfg.handler_enums {
            dead_variants(units, core, ename, &mut out);
        }
    }
    if enabled.contains("lock_order_inversion") {
        for krate in &cfg.lock_order {
            let files = role(units, krate, "flow.lock_order")?;
            lock_order(krate, files, &mut out);
        }
    }
    Ok(out)
}

fn role<'u, 'a>(
    units: &'u BTreeMap<String, Vec<FlowFile<'a>>>,
    name: &str,
    key: &str,
) -> Result<&'u [FlowFile<'a>], String> {
    units
        .get(name)
        .map(Vec::as_slice)
        .ok_or_else(|| format!("{key}: crate `{name}` is not a workspace member"))
}

/// Find the (non-test) definition of `name` among `files`.
fn find_enum<'a>(files: &'a [FlowFile], name: &str) -> Option<(&'a Path, &'a EnumDef)> {
    files.iter().find_map(|f| {
        f.parsed.enums.iter().find(|e| !e.excluded && e.name == name).map(|e| (f.display, e))
    })
}

/// Is token `i` in `f` the enum name of an `Enum::Variant` path to one
/// of `variants`? Returns the variant name.
fn variant_path<'a>(
    f: &FlowFile,
    i: usize,
    ename: &str,
    variants: &'a BTreeSet<&str>,
) -> Option<&'a str> {
    if !f.toks[i].is_ident(ename) {
        return None;
    }
    if !matches!(f.toks.get(i + 1), Some(t) if t.is_punct("::")) {
        return None;
    }
    // `<Enum>::Variant` and `Enum::<…>` do not occur in this codebase;
    // a plain two-segment path is the construction/pattern shape.
    let v = f.toks.get(i + 2)?;
    if v.kind != TokKind::Ident {
        return None;
    }
    variants.get(v.text.as_str()).copied()
}

// ------------------------------------------------------- handler_coverage

fn dead_variants(
    units: &BTreeMap<String, Vec<FlowFile>>,
    core: &[FlowFile],
    ename: &str,
    out: &mut Vec<Diagnostic>,
) {
    let Some((def_path, def)) = find_enum(core, ename) else { return };
    let variants: BTreeSet<&str> = def.variants.iter().map(|(n, _)| n.as_str()).collect();
    let mut constructed: BTreeSet<&str> = BTreeSet::new();
    for f in units.values().flatten().filter(|f| f.counts_constructions) {
        for i in 0..f.toks.len() {
            if f.excluded[i] || f.parsed.pattern[i] {
                continue;
            }
            if let Some(v) = variant_path(f, i, ename, &variants) {
                constructed.insert(v);
            }
        }
    }
    for (v, line) in &def.variants {
        if !constructed.contains(v.as_str()) {
            out.push(Diagnostic::new(
                def_path,
                *line,
                "dead_variant",
                format!("`{ename}::{v}` is constructed nowhere outside tests"),
                "a variant no sender or timer-arm ever builds is dead protocol surface; \
                 delete it or wire up its producer",
            ));
        }
    }
}

// ------------------------------------------------------------ lock_order

/// One `A acquired while B held` edge, with its first site.
struct LockEdge {
    held: String,
    taken: String,
    func: String,
    file: PathBuf,
    line: u32,
}

/// Collect per-function guard-acquisition edges for one crate and flag
/// pairwise-inconsistent orders. Lock identity is the receiver field
/// name before `.lock()` (`self.metrics.lock()` → `metrics`), scoped
/// per crate so same-named fields in different crates never alias.
fn lock_order(krate: &str, files: &[FlowFile], out: &mut Vec<Diagnostic>) {
    let mut edges: Vec<LockEdge> = Vec::new();
    for f in files {
        for func in &f.parsed.fns {
            if func.excluded {
                continue;
            }
            scan_fn_locks(f, func.name.as_str(), func.body, &mut edges);
        }
    }
    // Deduplicate to the first site of each directed pair.
    let mut first: BTreeMap<(String, String), usize> = BTreeMap::new();
    for (i, e) in edges.iter().enumerate() {
        first.entry((e.held.clone(), e.taken.clone())).or_insert(i);
    }
    let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
    for e in &edges {
        let fwd = (e.held.clone(), e.taken.clone());
        let rev = (e.taken.clone(), e.held.clone());
        let Some(&ri) = first.get(&rev) else { continue };
        let key = if fwd.0 <= fwd.1 { fwd.clone() } else { rev.clone() };
        if !reported.insert(key) {
            continue;
        }
        // Anchor on the later-seen direction so the diagnostic lands
        // on the function that deviates from the established order.
        let (site, other) = if first[&fwd] > ri {
            (&edges[first[&fwd]], &edges[ri])
        } else {
            (&edges[ri], &edges[first[&fwd]])
        };
        let label = if krate.is_empty() { String::new() } else { format!(" in `{krate}`") };
        out.push(Diagnostic::new(
            &site.file,
            site.line,
            "lock_order_inversion",
            format!(
                "`{}` locks `{}` while holding `{}`, but `{}` ({}:{}) acquires them in the \
                 opposite order{label}",
                site.func,
                site.taken,
                site.held,
                other.func,
                other.file.display(),
                other.line
            ),
            "two functions taking the same pair of locks in opposite orders can deadlock \
             under thread interleaving; pick one global acquisition order",
        ));
    }
}

/// Walk one function body, tracking which lock receivers are plausibly
/// held at each `.lock()` site.
///
/// Scope model: `let g = ….lock();` binds the guard until its enclosing
/// block closes — but only when `.lock()` is the *terminal* call of the
/// initializer with no leading `*`: `let n = *m.lock();` copies out and
/// `let v = m.lock().remove(k);` binds the chained call's result, so in
/// both the guard is a temporary dying at the `;`. Unbound guards
/// (`self.metrics.lock().x += 1`) likewise die at the `;`, except
/// match/if/for head temporaries, which live through the block they
/// open. `drop(guard_name)` releases the most recent lock bound to that
/// name. This is intra-function only — locks held across calls are
/// invisible, which is the documented approximation.
fn scan_fn_locks(f: &FlowFile, func: &str, body: (usize, usize), edges: &mut Vec<LockEdge>) {
    // Each scope holds (receiver name, binding name if let-bound).
    let mut scopes: Vec<Vec<(String, Option<String>)>> = vec![Vec::new()];
    // Statement temporaries: (receiver, token index of `.lock()`'s `)`).
    let mut stmt: Vec<(String, usize)> = Vec::new();
    let mut stmt_let: Option<String> = None; // binding name of the current `let`
    let mut stmt_deref = false; // initializer starts with `*` (copies out)
    let mut i = body.0 + 1;
    while i < body.1 {
        let t = &f.toks[i];
        if t.is_punct("{") {
            // Statement temporaries live through the block they open
            // (match scrutinees, if conditions): move them into the
            // new scope so they die at its close.
            let moved = std::mem::take(&mut stmt);
            scopes.push(moved.into_iter().map(|(r, _)| (r, None)).collect());
            stmt_let = None;
        } else if t.is_punct("}") {
            scopes.pop();
            if scopes.is_empty() {
                scopes.push(Vec::new());
            }
            stmt.clear();
            stmt_let = None;
        } else if t.is_punct(";") {
            // A guard binds into the block scope only when its `)` sits
            // directly before this `;` (terminal `.lock()`) and nothing
            // dereferenced it; every other guard is a temporary and
            // dies here.
            let bind = stmt_let.take();
            if let Some(top) = scopes.last_mut() {
                for (r, close) in stmt.drain(..) {
                    if let Some(bind) = bind.as_ref().filter(|_| !stmt_deref && close + 1 == i) {
                        top.push((r, Some(bind.clone())));
                    }
                }
            }
            stmt_deref = false;
        } else if t.is_punct("=") && stmt_let.is_some() {
            stmt_deref = matches!(f.toks.get(i + 1), Some(x) if x.is_punct("*"));
        } else if t.is_ident("let") {
            // Record the binding name (first plain ident of the pattern).
            stmt_let = f.toks.get(i + 1).and_then(|x| {
                if x.is_ident("mut") {
                    f.toks.get(i + 2).map(|y| y.text.clone())
                } else if x.kind == TokKind::Ident {
                    Some(x.text.clone())
                } else {
                    None
                }
            });
            stmt_deref = false;
        } else if t.is_ident("drop")
            && matches!(f.toks.get(i + 1), Some(x) if x.is_punct("("))
            && matches!(f.toks.get(i + 3), Some(x) if x.is_punct(")"))
        {
            if let Some(name) = f.toks.get(i + 2) {
                if name.kind == TokKind::Ident {
                    for scope in scopes.iter_mut().rev() {
                        if let Some(pos) =
                            scope.iter().rposition(|(_, b)| b.as_deref() == Some(&name.text))
                        {
                            scope.remove(pos);
                            break;
                        }
                    }
                }
            }
        } else if t.is_ident("lock")
            && matches!(f.toks.get(i + 1), Some(x) if x.is_punct("("))
            && matches!(f.toks.get(i + 2), Some(x) if x.is_punct(")"))
            && matches!(i.checked_sub(1).and_then(|p| f.toks.get(p)), Some(x) if x.is_punct("."))
        {
            // Receiver: the ident before the `.` (`self.metrics.lock()`
            // → `metrics`). A call-result receiver has no stable name;
            // skip it.
            let recv = i
                .checked_sub(2)
                .and_then(|p| f.toks.get(p))
                .filter(|x| x.kind == TokKind::Ident && !x.is_ident("self"))
                .map(|x| x.text.clone());
            if let Some(recv) = recv {
                // Record edges from every held lock (scoped + statement
                // temporaries) to the new acquisition.
                for (held, _) in scopes.iter().flatten() {
                    if held != &recv {
                        edges.push(LockEdge {
                            held: held.clone(),
                            taken: recv.clone(),
                            func: func.to_string(),
                            file: f.display.to_path_buf(),
                            line: t.line,
                        });
                    }
                }
                for (held, _) in &stmt {
                    if held != &recv {
                        edges.push(LockEdge {
                            held: held.clone(),
                            taken: recv.clone(),
                            func: func.to_string(),
                            file: f.display.to_path_buf(),
                            line: t.line,
                        });
                    }
                }
                stmt.push((recv, i + 2));
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};
    use crate::parse::parse;
    use std::path::PathBuf;

    fn run_on(src: &str, rules: &[&str]) -> Vec<Diagnostic> {
        let file = lex(src);
        let excluded = test_regions(&file.tokens);
        let parsed = parse(&file.tokens, &excluded);
        let enabled: BTreeSet<&'static str> =
            crate::rules::expand_rules(&rules.iter().map(|s| s.to_string()).collect::<Vec<_>>())
                .expect("known rules");
        run_single_file(&PathBuf::from("t.rs"), &file.tokens, &excluded, &parsed, &enabled)
    }

    #[test]
    fn dead_variant_flags_unconstructed() {
        let src = "enum Message { Used, Dead }\n\
                   fn send() -> Message { Message::Used }\n\
                   fn on_message(m: Message) { match m { Message::Used => go(), Message::Dead => go() } }";
        let d = run_on(src, &["handler_coverage"]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "dead_variant");
        assert!(d[0].message.contains("Message::Dead"));
    }

    #[test]
    fn pattern_uses_are_not_constructions() {
        let src = "enum Timer { Tick, Orphan }\n\
                   fn arm() { set(Timer::Tick); }\n\
                   fn on_timer(t: Timer) { match t { Timer::Tick => fire(), Timer::Orphan => fire() } }\n\
                   fn only_orphan(t: &Timer) -> bool { matches!(t, Timer::Orphan) }";
        let d = run_on(src, &["handler_coverage"]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Timer::Orphan"));
        assert!(run_on(
            &src.replace("set(Timer::Tick);", "set(Timer::Tick); set(Timer::Orphan);"),
            &["handler_coverage"]
        )
        .is_empty());
    }

    #[test]
    fn test_only_constructions_do_not_count() {
        let src = "enum Message { A }\n\
                   fn on_message(m: Message) { match m { Message::A => go() } }\n\
                   #[cfg(test)]\nmod t { fn c() -> Message { Message::A } }";
        let d = run_on(src, &["handler_coverage"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "dead_variant");
    }

    #[test]
    fn harness_constructions_do_not_count() {
        let files = [lex("enum Message { A }"), lex("fn drive() -> Message { Message::A }")];
        let masks: Vec<Vec<bool>> = files.iter().map(|f| test_regions(&f.tokens)).collect();
        let parsed: Vec<ParsedFile> =
            files.iter().zip(&masks).map(|(f, m)| parse(&f.tokens, m)).collect();
        let path = PathBuf::from("x.rs");
        let unit = |i: usize, counts_constructions| {
            let (toks, excluded, parsed) = (&files[i].tokens, &masks[i], &parsed[i]);
            vec![FlowFile { display: &path, toks, excluded, parsed, counts_constructions }]
        };
        let cfg = Config {
            handler_enums: vec!["Message".into()],
            core: "core".into(),
            ..Config::default()
        };
        let enabled = ["dead_variant"].into_iter().collect();
        for counts in [true, false] {
            let units =
                BTreeMap::from([("core".into(), unit(0, true)), ("bench".into(), unit(1, counts))]);
            let d = run(&cfg, &enabled, &units).expect("roles resolve");
            assert_eq!(d.len(), usize::from(!counts), "{d:?}");
        }
    }

    #[test]
    fn lock_order_inversion_flags_opposite_orders() {
        let src = "fn a(s: &S) { let g1 = s.store.lock(); let g2 = s.metrics.lock(); use2(g1, g2); }\n\
                   fn b(s: &S) { let g2 = s.metrics.lock(); let g1 = s.store.lock(); use2(g1, g2); }";
        let d = run_on(src, &["lock_order"]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock_order_inversion");
        assert!(d[0].message.contains("opposite order"));
    }

    #[test]
    fn consistent_order_and_scoped_release_are_clean() {
        // `a` drops its store guard (block close) before metrics;
        // `b` takes metrics alone — no pair is ever held both ways.
        let src = "fn a(s: &S) { { let g = s.store.lock(); g.put(); } let m = s.metrics.lock(); m.bump(); }\n\
                   fn b(s: &S) { let m = s.metrics.lock(); m.bump(); let g = s.store.lock(); g.put(); }";
        assert!(run_on(src, &["lock_order"]).is_empty());
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "fn a(s: &S) { let g = s.store.lock(); drop(g); let m = s.metrics.lock(); m.bump(); }\n\
                   fn b(s: &S) { let m = s.metrics.lock(); drop(m); let g = s.store.lock(); g.put(); }";
        assert!(run_on(src, &["lock_order"]).is_empty());
    }

    #[test]
    fn statement_temporary_guard_dies_at_semicolon() {
        let src = "fn a(s: &S) { s.store.lock().put(); let m = s.metrics.lock(); m.bump(); }\n\
                   fn b(s: &S) { s.metrics.lock().bump(); let g = s.store.lock(); g.put(); }";
        assert!(run_on(src, &["lock_order"]).is_empty());
    }

    #[test]
    fn deref_copy_and_chained_call_do_not_bind_the_guard() {
        // Regression for Cluster::metrics / teardown_endpoint: in
        // `let t = *s.base.lock();` the guard is a temporary behind a
        // deref copy, and in `let e = s.endpoints.lock().remove(&k);`
        // the binding holds the chained call's result — neither keeps
        // the lock past the `;`, so these orders never actually invert.
        let src = "fn a(s: &S) { let t = *s.base.lock(); for e in s.endpoints.lock().values() { t.add(e); } }\n\
                   fn b(s: &S) { let e = s.endpoints.lock().remove(&k); s.base.lock().add(e); }";
        assert!(run_on(src, &["lock_order"]).is_empty());
    }

    #[test]
    fn terminal_lock_binding_still_holds_across_statements() {
        let src = "fn a(s: &S) { let g = s.base.lock(); s.endpoints.lock().clear(); g.bump(); }\n\
                   fn b(s: &S) { let g = s.endpoints.lock(); s.base.lock().clear(); g.bump(); }";
        let d = run_on(src, &["lock_order"]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock_order_inversion");
    }
}
