//! CLI for the workspace lint gate.
//!
//! ```text
//! vsr-lint --workspace [--config PATH] [--rule NAME[,…]] [--json]
//! vsr-lint --rules FAMILY[,FAMILY…] [--rule NAME[,…]] [--json] FILE…
//! ```
//!
//! The first form lints every workspace member under `lint.toml` and is
//! what CI runs. The second lints individual files with an explicit
//! rule set — it exists for poking at a rule by hand; in that mode each
//! file stands in for every flow role. `--rule` filters the *output* to
//! the named families or rule ids (CI log triage); `--json` emits a
//! summary object with per-family counts. Exit codes: 0 clean, 1
//! diagnostics found, 2 usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;
use vsr_lint::{diag::Diagnostic, lint_file, load_config, read_config, rules, run_workspace};

const USAGE: &str =
    "usage: vsr-lint --workspace [--config PATH] [--rule NAME[,…]] [--json]\n       \
                     vsr-lint --rules FAMILY[,…] [--rule NAME[,…]] [--json] FILE…";

#[derive(Default)]
struct Args {
    workspace: bool,
    json: bool,
    config: Option<PathBuf>,
    rules: Vec<String>,
    rule_filter: Vec<String>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--config" => {
                let v = it.next().ok_or("--config needs a path")?;
                args.config = Some(PathBuf::from(v));
            }
            "--rules" => {
                let v = it.next().ok_or("--rules needs a comma-separated list")?;
                args.rules.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--rule" => {
                let v = it.next().ok_or("--rule needs a rule or family name")?;
                args.rule_filter.extend(v.split(',').map(|s| s.trim().to_string()));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    if !args.workspace && args.files.is_empty() {
        return Err("pass --workspace or at least one file (see --help)".to_string());
    }
    Ok(args)
}

/// Keep only diagnostics matching the `--rule` names (families, rule
/// ids, or `lint_directive`).
fn apply_filter(diags: Vec<Diagnostic>, filter: &[String]) -> Result<Vec<Diagnostic>, String> {
    if filter.is_empty() {
        return Ok(diags);
    }
    let mut keep_directive = false;
    let mut names = Vec::new();
    for f in filter {
        if f == "lint_directive" {
            keep_directive = true;
        } else {
            names.push(f.clone());
        }
    }
    let ids = rules::expand_rules(&names).map_err(|e| format!("--rule: {e}"))?;
    Ok(diags
        .into_iter()
        .filter(|d| ids.contains(d.rule) || (keep_directive && d.rule == "lint_directive"))
        .collect())
}

/// The `--json` summary: per-family counts plus the findings array.
fn render_json_summary(diags: &[Diagnostic]) -> String {
    let mut s = String::from("{\n  \"counts\": {");
    let families: Vec<&str> =
        rules::FAMILIES.iter().map(|(f, _)| *f).chain(std::iter::once("lint_directive")).collect();
    for (i, family) in families.iter().enumerate() {
        let n = diags.iter().filter(|d| rules::family_of(d.rule) == *family).count();
        let comma = if i + 1 < families.len() { "," } else { "" };
        s.push_str(&format!("\n    \"{family}\": {n}{comma}"));
    }
    s.push_str(&format!("\n  }},\n  \"total\": {},\n  \"findings\": [", diags.len()));
    for (i, d) in diags.iter().enumerate() {
        let comma = if i + 1 < diags.len() { "," } else { "" };
        s.push_str(&format!("\n    {}{comma}", d.render_json()));
    }
    s.push_str("\n  ]\n}");
    s
}

fn run(args: &Args) -> Result<Vec<Diagnostic>, String> {
    if args.workspace {
        let (root, cfg) = match &args.config {
            Some(path) => read_config(path)?,
            None => load_config(&std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")))?,
        };
        return run_workspace(&root, &cfg);
    }
    let enabled = rules::expand_rules(&args.rules)?;
    if enabled.is_empty() {
        return Err("--rules is required when linting files directly".to_string());
    }
    let mut out = Vec::new();
    for file in &args.files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        out.extend(lint_file(file, &src, &enabled));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let diags = match run(&args).and_then(|d| apply_filter(d, &args.rule_filter)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("vsr-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        println!("{}", render_json_summary(&diags));
    } else {
        for d in &diags {
            eprintln!("{}", d.render());
        }
        if diags.is_empty() {
            eprintln!("vsr-lint: clean");
        } else {
            eprintln!("vsr-lint: {} diagnostic(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
