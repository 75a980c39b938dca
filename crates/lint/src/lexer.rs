//! A minimal Rust lexer.
//!
//! The build environment has no crates.io access, so `vsr-lint` cannot
//! use `syn`; instead it carries this small hand-rolled lexer and runs
//! its rules over the token stream (plus the item-level facts of
//! [`crate::parse`]). That is enough for every invariant it enforces —
//! expect messages, variant constructions, lock acquisitions — and it
//! never has to be a full parser.
//!
//! The lexer understands everything that could make a naive scanner
//! misread code as tokens or vice versa: line and (nested) block
//! comments, string/char/byte literals with escapes, raw strings with
//! arbitrary `#` fences, and lifetimes. Comments are not tokens, but a
//! plain `//` comment that starts with `vsr-lint:` is a directive,
//! extracted into [`SourceFile::allows`] so rules can honor
//! suppressions. Doc comments never are, so documentation can quote
//! the syntax.

/// Token classification — only as fine-grained as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including `_`).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Numeric literal.
    Num,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`); `text`
    /// holds the *unquoted* contents for `"…"` and raw strings.
    Str,
    /// Char or byte literal.
    Char,
    /// Punctuation. Multi-character operators the rules care about
    /// (`::`, `=>`, `->`) are single tokens; everything else is one
    /// character per token.
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Token text (unquoted for [`TokKind::Str`]).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Is this punctuation with exactly this text?
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A `// vsr-lint: allow(rule, reason = "…")` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id being suppressed.
    pub rule: String,
    /// 1-based line the directive appears on.
    pub line: u32,
    /// Whether this is an `allow-file` directive (suppresses the rule
    /// for the whole file rather than the next line).
    pub whole_file: bool,
    /// Whether a `reason = "…"` was supplied (required).
    pub has_reason: bool,
}

/// A lexed source file: tokens plus the lint directives found in its
/// comments.
#[derive(Debug, Default)]
pub struct SourceFile {
    /// The token stream, comments stripped.
    pub tokens: Vec<Tok>,
    /// Suppression directives, in source order.
    pub allows: Vec<Allow>,
    /// Directives that looked like `vsr-lint:` but did not parse; each
    /// is reported as a diagnostic so typos cannot silently disable a
    /// suppression.
    pub bad_directives: Vec<u32>,
}

/// Lex `src` into tokens and directives.
pub fn lex(src: &str) -> SourceFile {
    let mut out = SourceFile::default();
    let b: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = b.len();

    macro_rules! bump_lines {
        ($ch:expr) => {
            if $ch == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_lines!(c);
            i += 1;
            continue;
        }
        // Line comment (incl. doc comments).
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i;
            while i < n && b[i] != '\n' {
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            scan_directive(&text, line, &mut out);
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    bump_lines!(b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings and byte/raw-byte strings: r"…", r#"…"#, br"…", b"…".
        if c == 'r' || c == 'b' || c == 'c' {
            if let Some((tok, next, nl)) = lex_prefixed_string(&b, i, line) {
                out.tokens.push(tok);
                i = next;
                line += nl;
                continue;
            }
        }
        // Identifier / keyword.
        if c == '_' || c.is_alphabetic() {
            let start = i;
            while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            out.tokens.push(Tok { kind: TokKind::Ident, text: b[start..i].iter().collect(), line });
            continue;
        }
        // Number.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            // Fractional part, but never swallow `..` (range).
            if i + 1 < n && b[i] == '.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < n && (b[i] == '_' || b[i].is_alphanumeric()) {
                    i += 1;
                }
            }
            out.tokens.push(Tok { kind: TokKind::Num, text: b[start..i].iter().collect(), line });
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let (text, next, nl) = lex_quoted(&b, i);
            out.tokens.push(Tok { kind: TokKind::Str, text, line });
            i = next;
            line += nl;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // Lifetime: 'ident not closed by another quote.
            if i + 1 < n && (b[i + 1] == '_' || b[i + 1].is_alphabetic()) {
                let mut j = i + 2;
                while j < n && (b[j] == '_' || b[j].is_alphanumeric()) {
                    j += 1;
                }
                if j >= n || b[j] != '\'' {
                    out.tokens.push(Tok {
                        kind: TokKind::Lifetime,
                        text: b[i..j].iter().collect(),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
            // Char literal: consume until the closing quote, honoring
            // escapes.
            let start = i;
            i += 1;
            while i < n {
                if b[i] == '\\' {
                    i += 2;
                    continue;
                }
                if b[i] == '\'' {
                    i += 1;
                    break;
                }
                bump_lines!(b[i]);
                i += 1;
            }
            out.tokens.push(Tok { kind: TokKind::Char, text: b[start..i].iter().collect(), line });
            continue;
        }
        // Multi-char punctuation the rules depend on.
        if i + 1 < n {
            let pair: String = b[i..i + 2].iter().collect();
            if pair == "::" || pair == "=>" || pair == "->" {
                out.tokens.push(Tok { kind: TokKind::Punct, text: pair, line });
                i += 2;
                continue;
            }
        }
        out.tokens.push(Tok { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

/// Lex a `"`-delimited string starting at `i` (which must point at the
/// opening quote). Returns (unquoted contents, next index, newlines).
fn lex_quoted(b: &[char], i: usize) -> (String, usize, u32) {
    let n = b.len();
    let mut j = i + 1;
    let mut text = String::new();
    let mut nl = 0u32;
    while j < n {
        if b[j] == '\\' && j + 1 < n {
            text.push(b[j]);
            text.push(b[j + 1]);
            j += 2;
            continue;
        }
        if b[j] == '"' {
            j += 1;
            break;
        }
        if b[j] == '\n' {
            nl += 1;
        }
        text.push(b[j]);
        j += 1;
    }
    (text, j, nl)
}

/// Try to lex a prefixed string (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`,
/// `c"…"`) starting at `i`. Returns None if this is not one (e.g. `r`
/// begins an ordinary identifier).
fn lex_prefixed_string(b: &[char], i: usize, line: u32) -> Option<(Tok, usize, u32)> {
    let n = b.len();
    let mut j = i;
    // Consume the prefix letters (at most two of r/b/c).
    let mut saw_r = false;
    while j < n && (b[j] == 'r' || b[j] == 'b' || b[j] == 'c') && j - i < 2 {
        if b[j] == 'r' {
            saw_r = true;
        }
        j += 1;
    }
    if saw_r {
        // Raw string: zero or more '#' then '"'.
        let mut hashes = 0usize;
        while j < n && b[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j >= n || b[j] != '"' {
            return None;
        }
        j += 1;
        let start = j;
        let mut nl = 0u32;
        while j < n {
            if b[j] == '"' {
                // Check for the closing fence.
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < n && b[k] == '#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    let text: String = b[start..j].iter().collect();
                    return Some((Tok { kind: TokKind::Str, text, line }, k, nl));
                }
            }
            if b[j] == '\n' {
                nl += 1;
            }
            j += 1;
        }
        let text: String = b[start..j].iter().collect();
        return Some((Tok { kind: TokKind::Str, text, line }, j, nl));
    }
    // Non-raw prefixed literal: b"…" / c"…" / b'…'.
    if j < n && b[j] == '"' {
        let (text, next, nl) = lex_quoted(b, j);
        return Some((Tok { kind: TokKind::Str, text, line }, next, nl));
    }
    if j > i && j < n && b[j] == '\'' && b[i] == 'b' {
        // Byte char literal b'x'.
        let mut k = j + 1;
        while k < n {
            if b[k] == '\\' {
                k += 2;
                continue;
            }
            if b[k] == '\'' {
                k += 1;
                break;
            }
            k += 1;
        }
        let text: String = b[i..k].iter().collect();
        return Some((Tok { kind: TokKind::Char, text, line }, k, 0));
    }
    None
}

/// Parse a `vsr-lint:` directive out of one line comment.
///
/// Grammar: `// vsr-lint: allow(rule_name, reason = "…")` or
/// `// vsr-lint: allow-file(rule_name, reason = "…")`. Doc comments
/// (`///`, `//!`) are skipped.
fn scan_directive(comment: &str, line: u32, out: &mut SourceFile) {
    let body = comment.strip_prefix("//").unwrap_or(comment);
    if body.starts_with('/') || body.starts_with('!') {
        return;
    }
    let Some(rest) = body.trim_start().strip_prefix("vsr-lint:") else { return };
    let rest = rest.trim();
    let (whole_file, body) = if let Some(r) = rest.strip_prefix("allow-file(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("allow(") {
        (false, r)
    } else {
        out.bad_directives.push(line);
        return;
    };
    let Some(close) = body.rfind(')') else {
        out.bad_directives.push(line);
        return;
    };
    let inner = &body[..close];
    let mut parts = inner.splitn(2, ',');
    let rule = parts.next().unwrap_or("").trim().to_string();
    let reason = parts.next().unwrap_or("").trim();
    if rule.is_empty() || !rule.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()) {
        out.bad_directives.push(line);
        return;
    }
    let has_reason = reason.starts_with("reason") && reason.contains('"');
    out.allows.push(Allow { rule, line, whole_file, has_reason });
}

/// Compute, for every token index, whether it falls inside test-only
/// code: a `#[cfg(test)]` item or a `#[test]` function. Rules skip
/// excluded tokens — the invariants govern shipping code; tests may
/// unwrap and print freely.
pub fn test_regions(tokens: &[Tok]) -> Vec<bool> {
    let n = tokens.len();
    let mut excluded = vec![false; n];
    let mut i = 0usize;
    while i < n {
        if !(tokens[i].is_punct("#") && i + 1 < n && tokens[i + 1].is_punct("[")) {
            i += 1;
            continue;
        }
        // Parse the attribute's bracket range.
        let attr_start = i;
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut is_test_attr = false;
        while j < n {
            if tokens[j].is_punct("[") {
                depth += 1;
            } else if tokens[j].is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tokens[j].is_ident("test") || tokens[j].is_ident("bench") {
                is_test_attr = true;
            }
            j += 1;
        }
        let attr_end = j; // index of the closing `]`
        if !is_test_attr || attr_end >= n {
            i = attr_end.max(i) + 1;
            continue;
        }
        // `#[cfg(test)]` / `#[test]`: skip any further attributes, then
        // exclude the following item.
        let mut k = attr_end + 1;
        while k + 1 < n && tokens[k].is_punct("#") && tokens[k + 1].is_punct("[") {
            let mut d = 0i32;
            k += 1;
            while k < n {
                if tokens[k].is_punct("[") {
                    d += 1;
                } else if tokens[k].is_punct("]") {
                    d -= 1;
                    if d == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        // Braced item (mod/fn/impl/trait): exclude through the matching
        // `}` of its first top-level brace. Semicolon item (`use`,
        // `type`, …): exclude through the `;`.
        let mut end = k;
        let mut brace = 0i32;
        let mut saw_brace = false;
        while end < n {
            let t = &tokens[end];
            if t.is_punct("{") {
                brace += 1;
                saw_brace = true;
            } else if t.is_punct("}") {
                brace -= 1;
                if saw_brace && brace == 0 {
                    break;
                }
            } else if t.is_punct(";") && !saw_brace {
                break;
            }
            end += 1;
        }
        for slot in excluded.iter_mut().take((end + 1).min(n)).skip(attr_start) {
            *slot = true;
        }
        i = end + 1;
    }
    excluded
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_basic_tokens() {
        let f = lex("fn main() { let x = 1; }");
        let idents: Vec<&str> =
            f.tokens.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str()).collect();
        assert_eq!(idents, ["fn", "main", "let", "x"]);
    }

    #[test]
    fn strings_and_comments_are_not_tokens() {
        let f = lex("// println! in a comment\nlet s = \"println!(\\\"hi\\\")\";");
        assert!(!f.tokens.iter().any(|t| t.is_ident("println") && t.kind == TokKind::Ident));
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_with_fences() {
        let f = lex(r####"let s = r#"match x { _ => () }"#; let t = 2;"####);
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(f.tokens.iter().any(|t| t.is_ident("t")));
        assert!(!f.tokens.iter().any(|t| t.is_ident("match")));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 2);
        assert_eq!(f.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn allow_directive_parses() {
        let f = lex("// vsr-lint: allow(expect_used, reason = \"test scaffolding\")\nlet x = 1;");
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "expect_used");
        assert!(f.allows[0].has_reason);
        assert!(!f.allows[0].whole_file);
    }

    #[test]
    fn allow_file_directive_parses() {
        let f = lex("// vsr-lint: allow-file(expect_used, reason = \"startup code\")\n");
        assert!(f.allows[0].whole_file);
    }

    #[test]
    fn malformed_directive_is_reported() {
        let f = lex("// vsr-lint: alow(expect_used)\n");
        assert_eq!(f.bad_directives, vec![1]);
    }

    #[test]
    fn doc_comments_quoting_the_syntax_are_not_directives() {
        let f =
            lex("/// write `// vsr-lint: allow(rule)` above\n//! vsr-lint: nonsense\nfn f() {}");
        assert!(f.allows.is_empty());
        assert!(f.bad_directives.is_empty());
    }

    #[test]
    fn cfg_test_module_is_excluded() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn after() {}";
        let f = lex(src);
        let ex = test_regions(&f.tokens);
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).expect("has unwrap");
        let after_idx = f.tokens.iter().position(|t| t.is_ident("after")).expect("has after");
        assert!(ex[unwrap_idx]);
        assert!(!ex[after_idx]);
        assert!(!ex[0]);
    }

    #[test]
    fn test_fn_is_excluded() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn live() { z(); }";
        let f = lex(src);
        let ex = test_regions(&f.tokens);
        let unwrap_idx = f.tokens.iter().position(|t| t.is_ident("unwrap")).expect("has unwrap");
        let live_idx = f.tokens.iter().position(|t| t.is_ident("live")).expect("has live");
        assert!(ex[unwrap_idx]);
        assert!(!ex[live_idx]);
    }
}
