//! The rule catalog, the one per-file rule, and suppressions.
//!
//! Three families, one rule each:
//!
//! * `error_discipline` — `expect_used`: no `.expect(…)` unless the
//!   message documents an invariant (`expect("invariant: …")`). Clippy
//!   already rejects `.unwrap()` and untyped `let _ =` in the same
//!   crates; what it cannot see is the message.
//! * `handler_coverage` — `dead_variant` (see [`crate::flow`]).
//! * `lock_order` — `lock_order_inversion` (see [`crate::flow`]).
//!
//! Every diagnostic can be suppressed with
//! `// vsr-lint: allow(rule, reason = "…")` on the same or preceding
//! line, or `// vsr-lint: allow-file(rule, reason = "…")` for a whole
//! file. Suppressions must carry a reason and must actually suppress
//! something — a stale allow is itself a diagnostic, so the escape
//! hatch cannot rot.

use crate::diag::Diagnostic;
use crate::lexer::{SourceFile, Tok, TokKind};
use std::collections::BTreeSet;
use std::path::Path;

/// Rule families and their rule ids. `error_discipline` is the
/// per-file rule; the other two are the cross-file rules in
/// [`crate::flow`], enabled through `lint.toml`'s `[flow]` section.
pub const FAMILIES: &[(&str, &[&str])] = &[
    ("error_discipline", &["expect_used"]),
    ("handler_coverage", &["dead_variant"]),
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

/// Flag every `.expect(…)` outside test code whose first argument is
/// not a string literal starting with `invariant:`. Returns raw
/// (unsuppressed) diagnostics so callers can merge in flow findings
/// before applying the file's allow directives.
pub fn expect_rule(display_path: &Path, toks: &[Tok], excluded: &[bool]) -> Vec<Diagnostic> {
    let mut raw = Vec::new();
    for i in 0..toks.len() {
        if excluded[i]
            || !toks[i].is_punct(".")
            || !matches!(toks.get(i + 1), Some(n) if n.is_ident("expect"))
            || !matches!(toks.get(i + 2), Some(n) if n.is_punct("("))
        {
            continue;
        }
        let documented = matches!(
            toks.get(i + 3),
            Some(arg) if arg.kind == TokKind::Str && arg.text.starts_with("invariant:")
        );
        if !documented {
            raw.push(Diagnostic::new(
                display_path,
                toks[i + 1].line,
                "expect_used",
                "`.expect(…)` without an `invariant:`-prefixed justification".to_string(),
                "spell out the protocol invariant that makes the value present: \
                 `.expect(\"invariant: …\")`",
            ));
        }
    }
    raw
}

// ----------------------------------------------------------- suppression

/// Apply allow/allow-file directives, and turn directive hygiene
/// problems (malformed, reason-less, or unused allows) into
/// diagnostics of their own. Callers merge per-file and flow findings
/// for a file first, so an allow consumed by either kind counts as used.
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
        out.push(Diagnostic::new(
            path,
            line,
            "lint_directive",
            "malformed `vsr-lint:` directive".to_string(),
            "expected `vsr-lint: allow(rule, reason = \"…\")` or allow-file(…)",
        ));
    }
    for (ai, a) in file.allows.iter().enumerate() {
        if !a.has_reason {
            out.push(Diagnostic::new(
                path,
                a.line,
                "lint_directive",
                format!("allow({}) is missing its `reason = \"…\"`", a.rule),
                "every suppression must say why the violation is intentional",
            ));
        }
        if !used[ai] {
            out.push(Diagnostic::new(
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
    use crate::lexer::{lex, test_regions};
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Diagnostic> {
        let path = PathBuf::from("t.rs");
        let file = lex(src);
        let excluded = test_regions(&file.tokens);
        let raw = expect_rule(&path, &file.tokens, &excluded);
        apply_suppressions(&path, &file, raw)
    }

    #[test]
    fn expect_needs_an_invariant_message() {
        assert_eq!(run("let x = r.expect(\"oops\");")[0].rule, "expect_used");
        assert_eq!(run("let x = r.expect(msg);")[0].rule, "expect_used");
        assert!(run("let x = r.expect(\"invariant: aid assigned\");").is_empty());
        assert!(run("let x = r.expect_err(\"oops\");").is_empty());
    }

    #[test]
    fn allow_suppresses_and_unused_allow_reports() {
        let ok = "// vsr-lint: allow(expect_used, reason = \"demo\")\nlet x = r.expect(\"x\");";
        assert!(run(ok).is_empty());
        let stale = "// vsr-lint: allow(expect_used, reason = \"demo\")\nlet x = 1;";
        let d = run(stale);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lint_directive");
        assert!(d[0].message.contains("suppresses nothing"));
    }

    #[test]
    fn allow_without_reason_reports() {
        let d = run("// vsr-lint: allow(expect_used)\nlet x = r.expect(\"x\");");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("missing its `reason"));
    }

    #[test]
    fn allow_file_suppresses_everywhere() {
        let src = "// vsr-lint: allow-file(expect_used, reason = \"startup code\")\n\
                   fn f() { a.expect(\"x\"); }\nfn g() { b.expect(\"y\"); }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let x = r.expect(\"x\"); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn expand_rejects_unknown() {
        assert!(expand_rules(&["determinism".to_string()]).is_err());
        assert_eq!(expand_rules(&["lock_order".to_string()]), Ok(["lock_order_inversion"].into()));
    }
}
