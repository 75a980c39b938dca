//! The rule set.
//!
//! Four families, mapped to crates by `lint.toml`:
//!
//! * `determinism` — `wall_clock`, `os_thread`, `thread_rng`,
//!   `hash_collections`: nothing in a simulated crate may read wall
//!   clocks, spawn OS threads, draw from ambient RNG state, or iterate
//!   hash collections, because any of those makes a nemesis repro
//!   unreplayable.
//! * `sans_io` — `fs_io`, `net_io`, `print_io`: protocol crates speak
//!   only through [`Effect`]s and the trace; real I/O belongs to
//!   runtimes and stores.
//! * `protocol_shape` — `wildcard_match`: a `match` over a protocol
//!   enum (configured via `watched_enums`) may not have a `_ =>` arm,
//!   so adding a variant forces every handler to be revisited.
//! * `error_discipline` — `unwrap_used`, `expect_used`,
//!   `discarded_result`: no `.unwrap()`, no `.expect(…)` unless the
//!   message documents an invariant (`expect("invariant: …")`), and no
//!   `let _ =` discards.
//!
//! Every diagnostic can be suppressed with
//! `// vsr-lint: allow(rule, reason = "…")` on the same or preceding
//! line, or `// vsr-lint: allow-file(rule, reason = "…")` for a whole
//! file. Suppressions must carry a reason and must actually suppress
//! something — a stale allow is itself a diagnostic, so the escape
//! hatch cannot rot.

use crate::diag::Diagnostic;
use crate::lexer::{lex, test_regions, SourceFile, Tok, TokKind};
use crate::parse::{parse, ParsedFile};
use std::collections::BTreeSet;
use std::path::Path;

/// Rule families, in the order `lint.toml` names them. The first four
/// are per-file token rules; the last two are the cross-file flow
/// rules in [`crate::flow`], enabled through the `[flow]` section (or
/// per-file with the file standing in for every role).
pub const FAMILIES: &[(&str, &[&str])] = &[
    ("determinism", &["wall_clock", "os_thread", "thread_rng", "hash_collections"]),
    ("sans_io", &["fs_io", "net_io", "print_io"]),
    ("protocol_shape", &["wildcard_match"]),
    ("error_discipline", &["unwrap_used", "expect_used", "discarded_result"]),
    ("handler_coverage", &["dead_variant", "unhandled_variant"]),
    ("lock_order", &["lock_order_inversion"]),
];

/// The family a rule id belongs to (`lint_directive` hygiene findings
/// report under their own name).
pub fn family_of(rule: &str) -> &'static str {
    for (family, rules) in FAMILIES {
        if rules.contains(&rule) {
            return family;
        }
    }
    "lint_directive"
}

/// Expand family names (or individual rule ids) into the rule id set.
/// Returns an error naming the first unknown entry.
pub fn expand_rules(names: &[String]) -> Result<BTreeSet<&'static str>, String> {
    let mut out = BTreeSet::new();
    'next: for name in names {
        for (family, rules) in FAMILIES {
            if name == family {
                out.extend(rules.iter().copied());
                continue 'next;
            }
            if let Some(rule) = rules.iter().find(|r| *r == name) {
                out.insert(*rule);
                continue 'next;
            }
        }
        return Err(format!("unknown rule or family `{name}`"));
    }
    Ok(out)
}

/// Lint one file's source text with the token rules only.
/// `display_path` is what diagnostics print (workspace-relative);
/// `enabled` is the expanded rule set. Flow rules need unit context —
/// use [`crate::lint_file`] to get both on a standalone file.
pub fn lint_source(
    display_path: &Path,
    src: &str,
    enabled: &BTreeSet<&'static str>,
    watched_enums: &[String],
) -> Vec<Diagnostic> {
    let file = lex(src);
    let excluded = test_regions(&file.tokens);
    let parsed = parse(&file.tokens, &excluded);
    let raw = token_rules(display_path, &file.tokens, &excluded, &parsed, enabled, watched_enums);
    apply_suppressions(display_path, &file, raw)
}

/// Run the per-file token rules, returning raw (unsuppressed)
/// diagnostics so callers can merge in flow findings before applying
/// the file's allow directives.
pub fn token_rules(
    display_path: &Path,
    toks: &[Tok],
    excluded: &[bool],
    parsed: &ParsedFile,
    enabled: &BTreeSet<&'static str>,
    watched_enums: &[String],
) -> Vec<Diagnostic> {
    let mut raw: Vec<Diagnostic> = Vec::new();

    for i in 0..toks.len() {
        if excluded[i] {
            continue;
        }
        let t = &toks[i];
        if enabled.contains("wall_clock") && (t.is_ident("Instant") || t.is_ident("SystemTime")) {
            raw.push(mk(
                display_path,
                t.line,
                "wall_clock",
                format!("`{}` reads the wall clock", t.text),
                "deterministic crates take time only as a Tick argument; wall clocks make \
                 nemesis repros unreplayable",
            ));
        }
        if enabled.contains("os_thread")
            && ((t.is_ident("std") && path_is(toks, i, &["std", "thread"]))
                || (t.is_ident("thread")
                    && follows_sep(toks, i)
                    && matches!(peek2(toks, i), Some(n) if ["spawn", "sleep", "park", "yield_now", "Builder"].contains(&n))))
        {
            raw.push(mk(
                display_path,
                t.line,
                "os_thread",
                "OS threads in deterministic code".to_string(),
                "concurrency in the simulated crates is cooperative; real threads belong to \
                 vsr-runtime",
            ));
        }
        if enabled.contains("thread_rng") && t.is_ident("thread_rng") {
            raw.push(mk(
                display_path,
                t.line,
                "thread_rng",
                "`thread_rng()` draws from ambient OS entropy".to_string(),
                "all randomness must come from a seeded Rng threaded through the World",
            ));
        }
        if enabled.contains("hash_collections") && (t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            raw.push(mk(
                display_path,
                t.line,
                "hash_collections",
                format!("`{}` has nondeterministic iteration order", t.text),
                "use BTreeMap/BTreeSet so every traversal replays identically under a fixed \
                 seed",
            ));
        }
        if enabled.contains("fs_io") && t.is_ident("std") && path_is(toks, i, &["std", "fs"]) {
            raw.push(mk(
                display_path,
                t.line,
                "fs_io",
                "`std::fs` in a sans-I/O crate".to_string(),
                "durability flows through Effect::Persist; real files belong to vsr-store's \
                 FileStore and the runtime",
            ));
        }
        if enabled.contains("net_io")
            && ((t.is_ident("std") && path_is(toks, i, &["std", "net"]))
                || t.is_ident("TcpStream")
                || t.is_ident("TcpListener")
                || t.is_ident("UdpSocket"))
        {
            raw.push(mk(
                display_path,
                t.line,
                "net_io",
                "`std::net` in a sans-I/O crate".to_string(),
                "messages flow through Effect::Send; sockets belong to runtimes",
            ));
        }
        if enabled.contains("print_io")
            && ["println", "print", "eprintln", "eprint", "dbg"].iter().any(|m| t.is_ident(m))
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("!"))
        {
            raw.push(mk(
                display_path,
                t.line,
                "print_io",
                format!("call to `{}!`", t.text),
                "protocol code reports through Effect::Observe and the sim trace, never \
                 stdout/stderr",
            ));
        }
        if enabled.contains("unwrap_used")
            && t.is_punct(".")
            && matches!(toks.get(i + 1), Some(n) if n.is_ident("unwrap"))
            && matches!(toks.get(i + 2), Some(n) if n.is_punct("("))
        {
            raw.push(mk(
                display_path,
                toks[i + 1].line,
                "unwrap_used",
                "`.unwrap()` in protocol code".to_string(),
                "convert to a typed error or use `.expect(\"invariant: …\")` to document why \
                 failure is impossible",
            ));
        }
        if enabled.contains("expect_used")
            && t.is_punct(".")
            && matches!(toks.get(i + 1), Some(n) if n.is_ident("expect"))
            && matches!(toks.get(i + 2), Some(n) if n.is_punct("("))
        {
            let documented = matches!(
                toks.get(i + 3),
                Some(arg) if arg.kind == TokKind::Str && arg.text.starts_with("invariant:")
            );
            if !documented {
                raw.push(mk(
                    display_path,
                    toks[i + 1].line,
                    "expect_used",
                    "`.expect(…)` without an `invariant:`-prefixed justification".to_string(),
                    "spell out the protocol invariant that makes the value present: \
                     `.expect(\"invariant: …\")`",
                ));
            }
        }
        if enabled.contains("discarded_result")
            && t.is_ident("let")
            && matches!(toks.get(i + 1), Some(n) if n.is_ident("_"))
            && matches!(toks.get(i + 2), Some(n) if n.is_punct("=") || n.is_punct(":"))
        {
            raw.push(mk(
                display_path,
                t.line,
                "discarded_result",
                "`let _ =` silently discards a value".to_string(),
                "effects and io::Results must be handled or explicitly routed; rename an \
                 unused parameter with a leading underscore instead",
            ));
        }
    }

    if enabled.contains("wildcard_match") && !watched_enums.is_empty() {
        check_matches(display_path, toks, parsed, watched_enums, &mut raw);
    }

    raw
}

fn mk(
    path: &Path,
    line: u32,
    rule: &'static str,
    message: String,
    note: &'static str,
) -> Diagnostic {
    Diagnostic { rule, file: path.to_path_buf(), line, message, note }
}

/// Does the path starting at token `i` spell `segs` joined by `::`?
fn path_is(toks: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut k = i;
    for (s, seg) in segs.iter().enumerate() {
        if !matches!(toks.get(k), Some(t) if t.is_ident(seg)) {
            return false;
        }
        if s + 1 < segs.len() {
            if !matches!(toks.get(k + 1), Some(t) if t.is_punct("::")) {
                return false;
            }
            k += 2;
        }
    }
    true
}

/// Is token `i` at the start of a path (not preceded by `::` or `.`)?
/// Filters `foo::thread::x` false-positives for the `thread` checks.
fn follows_sep(toks: &[Tok], i: usize) -> bool {
    match i.checked_sub(1).and_then(|p| toks.get(p)) {
        Some(prev) => !prev.is_punct("::") && !prev.is_punct("."),
        None => true,
    }
}

/// The ident two tokens ahead, across a `::`.
fn peek2(toks: &[Tok], i: usize) -> Option<&str> {
    if !matches!(toks.get(i + 1), Some(t) if t.is_punct("::")) {
        return None;
    }
    toks.get(i + 2).map(|t| t.text.as_str())
}

// ---------------------------------------------------------------- matches

/// Scan every `match` expression; flag unguarded `_ =>` arms in
/// matches whose patterns reference a watched enum.
fn check_matches(
    path: &Path,
    toks: &[Tok],
    parsed: &ParsedFile,
    watched: &[String],
    out: &mut Vec<Diagnostic>,
) {
    for m in &parsed.matches {
        if m.excluded {
            continue;
        }
        let arms = &m.arms;
        // Which watched enums do the arm patterns name?
        let mut named: Vec<&str> = Vec::new();
        for arm in arms {
            for k in arm.pat.0..arm.pat.1 {
                if toks[k].kind == TokKind::Ident
                    && matches!(toks.get(k + 1), Some(n) if n.is_punct("::"))
                    && watched.iter().any(|w| w == &toks[k].text)
                    && !named.contains(&toks[k].text.as_str())
                {
                    named.push(&toks[k].text);
                }
            }
        }
        if named.is_empty() {
            continue;
        }
        for arm in arms {
            let width = arm.pat.1 - arm.pat.0;
            if arm.guarded || width != 1 {
                continue;
            }
            let p = &toks[arm.pat.0];
            if p.kind == TokKind::Ident && p.text.starts_with('_') {
                out.push(mk(
                    path,
                    arm.line,
                    "wildcard_match",
                    format!("wildcard arm in a `match` over `{}`", named.join("`/`")),
                    "protocol-enum matches must name every variant so a new variant is a \
                     compile error in every handler, not a silent drop",
                ));
            }
        }
    }
}

// ----------------------------------------------------------- suppression

/// Apply allow/allow-file directives, and turn directive hygiene
/// problems (malformed, reason-less, or unused allows) into
/// diagnostics of their own. Callers merge token and flow findings for
/// a file first, so an allow consumed by either kind counts as used.
pub fn apply_suppressions(path: &Path, file: &SourceFile, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut used = vec![false; file.allows.len()];
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (ai, a) in file.allows.iter().enumerate() {
            if a.rule == d.rule && (a.whole_file || a.line == d.line || a.line + 1 == d.line) {
                used[ai] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for &line in &file.bad_directives {
        out.push(mk(
            path,
            line,
            "lint_directive",
            "malformed `vsr-lint:` directive".to_string(),
            "expected `vsr-lint: allow(rule, reason = \"…\")` or allow-file(…)",
        ));
    }
    for (ai, a) in file.allows.iter().enumerate() {
        if !a.has_reason {
            out.push(mk(
                path,
                a.line,
                "lint_directive",
                format!("allow({}) is missing its `reason = \"…\"`", a.rule),
                "every suppression must say why the violation is intentional",
            ));
        }
        if !used[ai] {
            out.push(mk(
                path,
                a.line,
                "lint_directive",
                format!("allow({}) suppresses nothing", a.rule),
                "stale suppressions hide future violations; delete it or fix the rule name",
            ));
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn run(src: &str, rules: &[&str]) -> Vec<Diagnostic> {
        run_watched(src, rules, &["Message".to_string(), "FaultEvent".to_string()])
    }

    fn run_watched(src: &str, rules: &[&str], watched: &[String]) -> Vec<Diagnostic> {
        let names: Vec<String> = rules.iter().map(|s| s.to_string()).collect();
        let enabled = expand_rules(&names).expect("known rules");
        lint_source(&PathBuf::from("t.rs"), src, &enabled, watched)
    }

    #[test]
    fn flags_each_determinism_rule() {
        assert_eq!(run("let t = Instant::now();", &["determinism"])[0].rule, "wall_clock");
        assert_eq!(run("std::thread::spawn(f);", &["determinism"])[0].rule, "os_thread");
        assert_eq!(run("let r = thread_rng();", &["determinism"])[0].rule, "thread_rng");
        assert_eq!(
            run("use std::collections::HashMap;", &["determinism"])[0].rule,
            "hash_collections"
        );
    }

    #[test]
    fn flags_each_sans_io_rule() {
        assert_eq!(run("use std::fs::File;", &["sans_io"])[0].rule, "fs_io");
        assert_eq!(run("use std::net::TcpStream;", &["sans_io"])[0].rule, "net_io");
        assert_eq!(run("fn f() { println!(\"x\"); }", &["sans_io"])[0].rule, "print_io");
    }

    #[test]
    fn flags_error_discipline() {
        assert_eq!(run("let x = r.unwrap();", &["error_discipline"])[0].rule, "unwrap_used");
        assert_eq!(
            run("let x = r.expect(\"oops\");", &["error_discipline"])[0].rule,
            "expect_used"
        );
        assert!(
            run("let x = r.expect(\"invariant: aid assigned\");", &["error_discipline"]).is_empty()
        );
        assert_eq!(run("let _ = send();", &["error_discipline"])[0].rule, "discarded_result");
    }

    #[test]
    fn wildcard_match_on_watched_enum() {
        let src = "fn f(m: Message) { match m { Message::Ping => go(), _ => {} } }";
        let d = run(src, &["protocol_shape"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "wildcard_match");
    }

    #[test]
    fn wildcard_on_unwatched_enum_is_fine() {
        let src = "fn f(m: Other) { match m { Other::A => 1, _ => 0 }; }";
        assert!(run(src, &["protocol_shape"]).is_empty());
    }

    #[test]
    fn guarded_wildcard_and_bindings_are_fine() {
        // A guarded `_` cannot satisfy exhaustiveness, so it is not the
        // arm hiding variants; the unguarded catch-all elsewhere is.
        let src = "fn f(m: Message) { match m { _ if g() => 1, Message::Ping => 2, other => use_it(other) } }";
        assert!(run(src, &["protocol_shape"]).is_empty());
    }

    #[test]
    fn underscore_binding_is_flagged() {
        let src = "fn f(m: Message) { match m { Message::Ping => go(), _ignored => {} } }";
        assert_eq!(run(src, &["protocol_shape"]).len(), 1);
    }

    #[test]
    fn nested_unwatched_match_inside_watched_arm() {
        let src = "fn f(m: Message, o: Option<u8>) {\n\
                   match m { Message::Ping => match o { Some(_) => 1, _ => 0 }, Message::Pong => 2 };\n\
                   }";
        assert!(run(src, &["protocol_shape"]).is_empty());
    }

    #[test]
    fn block_bodies_without_commas_parse() {
        let src = "fn f(e: FaultEvent) { match e { FaultEvent::Heal => {} FaultEvent::Crash(m) => { go(m); } _ => {} } }";
        assert_eq!(run(src, &["protocol_shape"]).len(), 1);
    }

    #[test]
    fn allow_suppresses_and_unused_allow_reports() {
        let ok = "// vsr-lint: allow(unwrap_used, reason = \"demo\")\nlet x = r.unwrap();";
        assert!(run(ok, &["error_discipline"]).is_empty());
        let stale = "// vsr-lint: allow(unwrap_used, reason = \"demo\")\nlet x = 1;";
        let d = run(stale, &["error_discipline"]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lint_directive");
        assert!(d[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn allow_without_reason_reports() {
        let src = "// vsr-lint: allow(unwrap_used)\nlet x = r.unwrap();";
        let d = run(src, &["error_discipline"]);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("missing its `reason"));
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// vsr-lint: allow-file(fs_io, reason = \"real store\")\n\
                   use std::fs::File;\nfn g() { std::fs::remove_file(p); }";
        assert!(run(src, &["sans_io"]).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let x = r.unwrap(); println!(\"{x}\"); } }";
        assert!(run(src, &["error_discipline", "sans_io"]).is_empty());
    }

    #[test]
    fn expand_rejects_unknown() {
        assert!(expand_rules(&["determinims".to_string()]).is_err());
    }
}
