//! Diagnostics: rustc-style text rendering and `--json` output.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id (e.g. `expect_used`).
    pub rule: &'static str,
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// One-sentence statement of the violation.
    pub message: String,
    /// Why the rule exists, shown as a `note:`.
    pub note: &'static str,
}

impl Diagnostic {
    /// A finding of `rule` at `path:line`.
    pub fn new(
        path: &Path,
        line: u32,
        rule: &'static str,
        message: String,
        note: &'static str,
    ) -> Diagnostic {
        Diagnostic { rule, file: path.to_path_buf(), line, message, note }
    }

    /// Render in rustc's `error[code]: message` shape.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "error[vsr-lint::{}]: {}", self.rule, self.message);
        let _ = writeln!(s, "  --> {}:{}", self.file.display(), self.line);
        if !self.note.is_empty() {
            let _ = writeln!(s, "   = note: {}", self.note);
        }
        let _ = writeln!(
            s,
            "   = help: suppress with `// vsr-lint: allow({}, reason = \"...\")` on the line above",
            self.rule
        );
        s
    }

    /// Render as one JSON object (no external JSON dependency, so the
    /// escaping lives here).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            escape(self.rule),
            escape(&self.file.display().to_string()),
            self.line,
            escape(&self.message)
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_quotes() {
        let message = "call to `expect(\"x\")`".to_string();
        let d = Diagnostic::new(Path::new("a.rs"), 3, "expect_used", message, "");
        assert!(d.render_json().contains("\\\"x\\\""));
    }

    #[test]
    fn render_has_rustc_shape() {
        let path = Path::new("crates/core/src/x.rs");
        let r = Diagnostic::new(path, 12, "expect_used", "m".to_string(), "n").render();
        assert!(r.starts_with("error[vsr-lint::expect_used]: m"));
        assert!(r.contains("--> crates/core/src/x.rs:12"));
        assert!(r.contains("= note: n"));
    }
}
