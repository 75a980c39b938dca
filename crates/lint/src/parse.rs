//! Item-level parsing on top of the token stream.
//!
//! The flow rules (handler coverage, lock order) need more than token
//! patterns: which enum variants exist, which tokens sit in pattern
//! position, where function bodies begin and end. This module extracts
//! exactly that — items and pattern regions — and nothing more; it is
//! not an expression parser and never needs to be one.
//!
//! Pattern position is the load-bearing concept: `Message::Prepare` in
//! a match arm, a `let`/`if let` destructure, a `for` binding, or the
//! second argument of `matches!` is a *handler* of that variant, while
//! the same path anywhere else is a *construction*. [`ParsedFile::pattern`]
//! records that classification per token.

use crate::lexer::{Tok, TokKind};

/// One `enum` definition.
#[derive(Debug)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// Defined inside a `#[cfg(test)]`/`#[test]` region.
    pub excluded: bool,
    /// Variant name and its definition line, in source order.
    pub variants: Vec<(String, u32)>,
}

/// One `fn` item that has a body.
#[derive(Debug)]
pub struct FnDef {
    /// Function name (not qualified by its impl block).
    pub name: String,
    /// Defined inside a test region.
    pub excluded: bool,
    /// Token indices of the body's `{` and matching `}` (inclusive).
    pub body: (usize, usize),
}

/// Everything the flow rules need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Enum definitions, in source order.
    pub enums: Vec<EnumDef>,
    /// Function items with bodies, in source order (nested functions
    /// appear after their parent; ranges may overlap).
    pub fns: Vec<FnDef>,
    /// Per token: does it sit in pattern position (match arm pattern,
    /// `let`/`if let`/`while let` destructure, `for` binding, or the
    /// pattern argument of `matches!`)?
    pub pattern: Vec<bool>,
}

/// Parse the token stream of one file. `excluded` is the test-region
/// mask from [`crate::lexer::test_regions`].
pub fn parse(toks: &[Tok], excluded: &[bool]) -> ParsedFile {
    let n = toks.len();
    let mut out = ParsedFile { pattern: vec![false; n], ..ParsedFile::default() };
    let mut i = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_ident("enum") && matches!(toks.get(i + 1), Some(x) if x.kind == TokKind::Ident) {
            if let Some((def, end)) = parse_enum(toks, i, excluded[i]) {
                out.enums.push(def);
                i = end + 1;
                continue;
            }
        } else if t.is_ident("fn") && matches!(toks.get(i + 1), Some(x) if x.kind == TokKind::Ident)
        {
            if let Some(def) = parse_fn(toks, i, excluded[i]) {
                out.fns.push(def);
            }
            // Keep scanning inside the body: nested items, matches,
            // and pattern regions are found by the same linear walk.
        } else if t.is_ident("match") {
            for (s, e) in parse_match_arms(toks, i).unwrap_or_default() {
                mark(&mut out.pattern, s, e);
            }
        } else if t.is_ident("matches") && matches!(toks.get(i + 1), Some(x) if x.is_punct("!")) {
            if let Some((s, e)) = matches_macro_pattern(toks, i) {
                mark(&mut out.pattern, s, e);
            }
        } else if t.is_ident("let") {
            let (s, e) = let_pattern(toks, i);
            mark(&mut out.pattern, s, e);
        } else if t.is_ident("for") {
            if let Some((s, e)) = for_pattern(toks, i) {
                mark(&mut out.pattern, s, e);
            }
        }
        i += 1;
    }
    out
}

fn mark(pattern: &mut [bool], start: usize, end: usize) {
    let end = end.min(pattern.len());
    for slot in pattern.iter_mut().take(end).skip(start) {
        *slot = true;
    }
}

/// Skip a `#[…]` attribute starting at the `#` token; returns the
/// index just past its closing `]`.
fn skip_attr(toks: &[Tok], i: usize) -> usize {
    let mut j = i + 1;
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Find the `{` that opens the body of an item whose keyword is at
/// `i`, tracking angle-bracket depth so `enum Foo<T: Bound<U>>`
/// generics don't end the scan early. Returns None on `;` first.
fn find_item_brace(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i;
    let mut angle = 0i32;
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if t.is_punct("{") && angle <= 0 && depth == 0 {
            return Some(j);
        } else if t.is_punct(";") && depth == 0 {
            return None;
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while let Some(t) = toks.get(j) {
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

fn parse_enum(toks: &[Tok], i: usize, excluded: bool) -> Option<(EnumDef, usize)> {
    let name = toks[i + 1].text.clone();
    let open = find_item_brace(toks, i + 2)?;
    let close = matching_brace(toks, open)?;
    let mut variants = Vec::new();
    let mut depth = 1i32;
    let mut expect = true;
    let mut j = open + 1;
    while j < close {
        let t = &toks[j];
        if depth == 1 && t.is_punct("#") && matches!(toks.get(j + 1), Some(x) if x.is_punct("[")) {
            j = skip_attr(toks, j);
            continue;
        }
        if t.is_punct("{") || t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 1 {
            if expect && t.kind == TokKind::Ident {
                variants.push((t.text.clone(), t.line));
                expect = false;
            } else if t.is_punct(",") {
                expect = true;
            }
        }
        j += 1;
    }
    Some((EnumDef { name, excluded, variants }, close))
}

fn parse_fn(toks: &[Tok], i: usize, excluded: bool) -> Option<FnDef> {
    let name = toks[i + 1].text.clone();
    let open = find_item_brace(toks, i + 2)?;
    let close = matching_brace(toks, open)?;
    Some(FnDef { name, excluded, body: (open, close) })
}

/// The pattern token ranges (half-open, guard stripped) of the arms of
/// the `match` whose keyword is at index `i`. Returns None when `i`
/// does not begin a well-formed match expression.
fn parse_match_arms(toks: &[Tok], i: usize) -> Option<Vec<(usize, usize)>> {
    // Scrutinee: everything up to the first `{` at bracket depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    loop {
        let t = toks.get(j)?;
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                return None;
            }
        } else if t.is_punct("{") && depth == 0 {
            break;
        } else if t.is_punct(";") && depth == 0 {
            return None;
        }
        j += 1;
    }

    #[derive(PartialEq)]
    enum State {
        Pat,
        Body,
        AfterBlock,
    }
    let mut arms = Vec::new();
    let mut d = 1i32; // inside the match braces
    let mut state = State::Pat;
    let mut pat_start = j + 1;
    let mut guard: Option<usize> = None; // index of the arm's `if`
    let mut body_first = false; // next Body token is the body's first
    let mut body_is_block = false; // body began with `{` (may omit the comma)
    let mut k = j + 1;
    while let Some(t) = toks.get(k) {
        let opens = t.is_punct("{") || t.is_punct("(") || t.is_punct("[");
        let closes = t.is_punct("}") || t.is_punct(")") || t.is_punct("]");
        match state {
            State::Pat => {
                if t.is_punct("=>") && d == 1 {
                    arms.push((pat_start, guard.take().unwrap_or(k)));
                    state = State::Body;
                    body_first = true;
                    body_is_block = false;
                } else if t.is_ident("if") && d == 1 && guard.is_none() {
                    guard = Some(k);
                } else if t.is_punct("}") && d == 1 {
                    break; // trailing comma then close
                }
            }
            State::Body => {
                // Only a body that *starts* with `{` is a block body
                // (allowed to omit its trailing comma); a `{` later in
                // an expression body is a struct literal / nested block
                // and the depth counter alone tracks it.
                if body_first && t.is_punct("{") {
                    body_is_block = true;
                }
                body_first = false;
                if t.is_punct(",") && d == 1 {
                    state = State::Pat;
                    pat_start = k + 1;
                } else if t.is_punct("}") && d == 1 {
                    break; // body runs to the match close
                }
            }
            State::AfterBlock => {
                if t.is_punct(",") {
                    state = State::Pat;
                    pat_start = k + 1;
                    k += 1;
                    continue;
                } else if t.is_punct("}") && d == 1 {
                    break;
                } else {
                    state = State::Pat;
                    pat_start = k;
                    // Re-examine this token as pattern start.
                    continue;
                }
            }
        }
        if opens {
            d += 1;
        }
        if closes {
            d -= 1;
            if d == 0 {
                break;
            }
            if state == State::Body && body_is_block && d == 1 {
                state = State::AfterBlock;
                body_is_block = false;
            }
        }
        k += 1;
    }
    Some(arms)
}

/// The pattern-argument range of a `matches!(expr, PAT)` call whose
/// `matches` ident is at `i` (guard stripped).
fn matches_macro_pattern(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let open = i + 2;
    let t = toks.get(open)?;
    if !(t.is_punct("(") || t.is_punct("[") || t.is_punct("{")) {
        return None;
    }
    let close = matching_brace(toks, open)?;
    // First `,` at depth 1 separates scrutinee from pattern.
    let mut depth = 1i32;
    let mut j = open + 1;
    let mut pat_start = None;
    while j < close {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 1 && pat_start.is_none() {
            pat_start = Some(j + 1);
        } else if t.is_ident("if") && depth == 1 && pat_start.is_some() {
            // `matches!(x, P if guard)` — the guard is not pattern.
            return Some((pat_start?, j));
        }
        j += 1;
    }
    Some((pat_start?, close))
}

/// The pattern range of a `let` at `i`: everything up to the `=`, `:`
/// (type annotation), or `;` at relative depth 0.
fn let_pattern(toks: &[Tok], i: usize) -> (usize, usize) {
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && (t.is_punct("=") || t.is_punct(":") || t.is_punct(";")) {
            break;
        }
        j += 1;
    }
    (i + 1, j)
}

/// The binding range of a `for PAT in …` loop at `i`. Returns None for
/// `impl Trait for Type` and HRTB `for<'a>`, which never reach an `in`
/// before a `{` or `;` at depth 0.
fn for_pattern(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = i + 1;
    while let Some(t) = toks.get(j) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 {
            if t.is_ident("in") {
                return Some((i + 1, j));
            }
            if t.is_punct("{") || t.is_punct(";") {
                return None;
            }
        }
        j += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};

    fn parsed(src: &str) -> (Vec<Tok>, ParsedFile) {
        let f = lex(src);
        let ex = test_regions(&f.tokens);
        let p = parse(&f.tokens, &ex);
        (f.tokens, p)
    }

    #[test]
    fn enums_with_payloads_parse() {
        let (_, p) = parsed(
            "pub enum Message { Call { to: Mid, body: Vec<u8> }, Reply(u32), #[doc = \"x\"] Ping, }",
        );
        assert_eq!(p.enums.len(), 1);
        assert_eq!(p.enums[0].name, "Message");
        let names: Vec<&str> = p.enums[0].variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Call", "Reply", "Ping"]);
    }

    #[test]
    fn generic_enum_header_does_not_eat_variants() {
        let (_, p) = parsed("enum E<T: Ord<Rhs = T>> { A(T), B }");
        let names: Vec<&str> = p.enums[0].variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn fn_bodies_and_nesting() {
        let (toks, p) = parsed("fn outer(x: u32) -> u32 { fn inner() {} inner(); x }");
        assert_eq!(p.fns.len(), 2);
        assert_eq!(p.fns[0].name, "outer");
        assert_eq!(p.fns[1].name, "inner");
        assert!(toks[p.fns[0].body.0].is_punct("{"));
        assert!(toks[p.fns[0].body.1].is_punct("}"));
        assert!(p.fns[1].body.0 > p.fns[0].body.0 && p.fns[1].body.1 < p.fns[0].body.1);
    }

    #[test]
    fn match_arm_patterns_are_marked() {
        let src = "fn f(m: Message) { match m { Message::Call { to, .. } => go(to), other => Message::Drop(other), } }";
        let (toks, p) = parsed(src);
        // `Message` in the arm pattern is pattern position…
        let pat_use = toks
            .iter()
            .enumerate()
            .find(|(i, t)| t.is_ident("Message") && p.pattern[*i])
            .map(|(i, _)| i);
        assert!(pat_use.is_some());
        // …while `Message::Drop(other)` in the body is not (the bare
        // type annotation in the signature is not a `::` path).
        let expr_use = toks
            .iter()
            .enumerate()
            .filter(|(i, t)| t.is_ident("Message") && toks[*i + 1].is_punct("::"))
            .filter(|(i, _)| !p.pattern[*i])
            .count();
        assert_eq!(expr_use, 1);
    }

    #[test]
    fn matches_macro_second_arg_is_pattern() {
        let src = "fn f(t: Timer) -> bool { matches!(pick(t, 1), Timer::Heartbeat | Timer::BufferFlush if ok()) }";
        let (toks, p) = parsed(src);
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("Timer") && toks[i + 1].is_punct("::") {
                assert!(p.pattern[i], "Timer:: path inside matches! must be pattern position");
            }
        }
        let ok_idx = toks.iter().position(|t| t.is_ident("ok")).unwrap();
        assert!(!p.pattern[ok_idx], "the guard is not pattern position");
    }

    #[test]
    fn let_and_for_patterns_are_marked() {
        let src = "fn f(v: Vec<E>) { let E::A(x) = one(); for E::B(y) in v { use2(x, y); } }";
        let (toks, p) = parsed(src);
        for (i, t) in toks.iter().enumerate() {
            if t.is_ident("E") && toks[i + 1].is_punct("::") {
                assert!(p.pattern[i]);
            }
        }
        let one_idx = toks.iter().position(|t| t.is_ident("one")).unwrap();
        assert!(!p.pattern[one_idx]);
    }

    #[test]
    fn impl_for_is_not_a_loop_binding() {
        let (toks, p) = parsed("impl Recorder for NullRecorder { fn rec(&self) {} }");
        let idx = toks.iter().position(|t| t.is_ident("NullRecorder")).unwrap();
        assert!(!p.pattern[idx]);
    }

    #[test]
    fn test_region_items_are_flagged_excluded() {
        let src = "enum Live { A }\n#[cfg(test)]\nmod t { enum TestOnly { B } }";
        let (_, p) = parsed(src);
        assert!(!p.enums[0].excluded);
        assert!(p.enums[1].excluded);
    }
}
