//! `vsr-lint` — the workspace's static-analysis gate.
//!
//! The deterministic simulator, nemesis shrinking, and SimDisk
//! crash/recovery twin all assume `vsr-core` and friends are
//! deterministic and I/O-free; nothing used to enforce that beyond
//! review. This crate parses every configured crate with a small
//! self-contained Rust lexer (the offline build environment rules out
//! `syn`) plus an item-level parser, and enforces six rule families:
//! four per-file token families — determinism, sans-I/O, protocol
//! shape, error discipline — and two cross-file flow families —
//! handler coverage and lock order. See [`rules`] for the rule catalog, [`flow`] for the flow
//! passes, and DESIGN.md §10 for the rationale behind each rule.
//!
//! Run it as a binary (`cargo run -p vsr-lint -- --workspace`) or call
//! [`run_workspace`] from tests.

pub mod config;
pub mod diag;
pub mod flow;
pub mod lexer;
pub mod parse;
pub mod rules;

use config::Config;
use diag::Diagnostic;
use lexer::SourceFile;
use parse::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One analyzed file, kept around so flow findings can be merged with
/// token findings before the file's suppressions are applied.
struct Analyzed {
    display: PathBuf,
    file: SourceFile,
    excluded: Vec<bool>,
    parsed: ParsedFile,
    raw: Vec<Diagnostic>,
}

/// Lint every crate named in `config`, rooted at `workspace_root`:
/// per-file token rules for each crate's family list, then the
/// cross-file flow rules from the `[flow]` section. Returns all
/// diagnostics; I/O or config-shape problems come back as `Err`
/// strings — including a workspace member missing from the config
/// (see [`check_membership`]).
pub fn run_workspace(workspace_root: &Path, config: &Config) -> Result<Vec<Diagnostic>, String> {
    check_membership(workspace_root, config)?;
    let mut units: BTreeMap<String, Vec<Analyzed>> = BTreeMap::new();
    for (name, entry) in &config.crates {
        let enabled =
            rules::expand_rules(&entry.rules).map_err(|e| format!("[crates.{name}]: {e}"))?;
        let src_dir = workspace_root.join(&entry.path).join("src");
        if !src_dir.is_dir() {
            return Err(format!("[crates.{name}]: `{}` has no src/ directory", entry.path));
        }
        // An empty rule list means "enrolled but unchecked" — the
        // membership gate is satisfied, the sources are not analyzed.
        if entry.rules.is_empty() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files).map_err(|e| format!("[crates.{name}]: {e}"))?;
        files.sort();
        let mut analyzed = Vec::new();
        for file in files {
            let src =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let display = file.strip_prefix(workspace_root).unwrap_or(&file).to_path_buf();
            let lexed = lexer::lex(&src);
            let excluded = lexer::test_regions(&lexed.tokens);
            let parsed = parse::parse(&lexed.tokens, &excluded);
            let raw = rules::token_rules(
                &display,
                &lexed.tokens,
                &excluded,
                &parsed,
                &enabled,
                &config.watched_enums,
            );
            analyzed.push(Analyzed { display, file: lexed, excluded, parsed, raw });
        }
        units.insert(name.clone(), analyzed);
    }

    if !config.flow.rules.is_empty() {
        let flow_enabled =
            rules::expand_rules(&config.flow.rules).map_err(|e| format!("[flow]: {e}"))?;
        let flow_units: BTreeMap<String, Vec<flow::FlowFile>> = units
            .iter()
            .map(|(name, files)| {
                let refs = files
                    .iter()
                    .map(|a| flow::FlowFile {
                        display: &a.display,
                        toks: &a.file.tokens,
                        excluded: &a.excluded,
                        parsed: &a.parsed,
                    })
                    .collect();
                (name.clone(), refs)
            })
            .collect();
        let flow_diags = flow::run(&config.flow, &flow_enabled, &flow_units)
            .map_err(|e| format!("[flow]: {e}"))?;
        drop(flow_units);
        // Route each flow finding to its anchor file so that file's
        // allow directives can suppress it (and count as used).
        for d in flow_diags {
            let mut routed = false;
            for files in units.values_mut() {
                if let Some(a) = files.iter_mut().find(|a| a.display == d.file) {
                    a.raw.push(d.clone());
                    routed = true;
                    break;
                }
            }
            if !routed {
                return Err(format!(
                    "[flow]: finding anchored outside the analyzed set: {}",
                    d.file.display()
                ));
            }
        }
    }

    let mut out = Vec::new();
    for files in units.values_mut() {
        for a in files.iter_mut() {
            let raw = std::mem::take(&mut a.raw);
            out.extend(rules::apply_suppressions(&a.display, &a.file, raw));
        }
    }
    out.sort_by(|x, y| (&x.file, x.line, x.rule).cmp(&(&y.file, y.line, y.rule)));
    Ok(out)
}

/// Lint one standalone file with token rules *and* flow rules, the
/// file standing in for every flow role (core, lock-order domain). This is what `vsr-lint FILE…` and the fixture
/// tests run.
pub fn lint_file(
    display: &Path,
    src: &str,
    enabled: &BTreeSet<&'static str>,
    watched_enums: &[String],
) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let excluded = lexer::test_regions(&lexed.tokens);
    let parsed = parse::parse(&lexed.tokens, &excluded);
    let mut raw =
        rules::token_rules(display, &lexed.tokens, &excluded, &parsed, enabled, watched_enums);
    raw.extend(flow::run_single_file(display, &lexed.tokens, &excluded, &parsed, enabled));
    rules::apply_suppressions(display, &lexed, raw)
}

/// Staleness gate: every workspace member (and the root package) must
/// appear in `[crates.*]`, so a new crate cannot silently ship
/// unenrolled — the mistake that required hand-enrolling vsr-net and
/// vsr-snap. Crates the rules genuinely don't apply to are enrolled
/// with `rules = []`.
pub fn check_membership(workspace_root: &Path, config: &Config) -> Result<(), String> {
    let members = workspace_members(workspace_root)?;
    let missing: Vec<&str> =
        members.iter().map(String::as_str).filter(|m| !config.crates.contains_key(*m)).collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "lint.toml is stale: workspace member(s) `{}` have no [crates.*] entry; enroll \
             each (use `rules = []` to consciously opt a crate out)",
            missing.join("`, `")
        ))
    }
}

/// Package names of every workspace member plus the root package, read
/// from Cargo.toml manifests. Understands the `"crates/*"` glob form
/// the workspace actually uses plus plain paths.
pub fn workspace_members(workspace_root: &Path) -> Result<Vec<String>, String> {
    let manifest_path = workspace_root.join("Cargo.toml");
    let manifest = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let mut names = Vec::new();
    if let Some(name) = package_name(&manifest) {
        names.push(name);
    }
    for entry in members_array(&manifest) {
        if let Some(prefix) = entry.strip_suffix("/*") {
            let dir = workspace_root.join(prefix);
            let listing = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut subdirs: Vec<PathBuf> = listing
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            subdirs.sort();
            for sub in subdirs {
                let m = std::fs::read_to_string(sub.join("Cargo.toml"))
                    .map_err(|e| format!("{}: {e}", sub.display()))?;
                names.extend(package_name(&m));
            }
        } else {
            let m_path = workspace_root.join(&entry).join("Cargo.toml");
            let m = std::fs::read_to_string(&m_path)
                .map_err(|e| format!("{}: {e}", m_path.display()))?;
            names.extend(package_name(&m));
        }
    }
    Ok(names)
}

/// The `[package] name` of one Cargo.toml, if it has a package section.
fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(value) = value.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The `[workspace] members` entries of a Cargo.toml, handling the
/// multi-line array form.
fn members_array(manifest: &str) -> Vec<String> {
    let mut in_workspace = false;
    let mut collecting = false;
    let mut buf = String::new();
    for line in manifest.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with('[') && !collecting {
            in_workspace = trimmed == "[workspace]";
            continue;
        }
        if in_workspace && !collecting {
            if let Some(rest) = trimmed.strip_prefix("members") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    buf.push_str(rest);
                    collecting = true;
                }
            }
        } else if collecting {
            buf.push_str(trimmed);
        }
        if collecting && buf.contains(']') {
            break;
        }
    }
    let inner = buf.trim().strip_prefix('[').and_then(|s| s.split(']').next()).unwrap_or("");
    inner
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Load `lint.toml`, looking in `start` and then each parent directory.
pub fn load_config(start: &Path) -> Result<(PathBuf, Config), String> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let candidate = d.join("lint.toml");
        if candidate.is_file() {
            let text = std::fs::read_to_string(&candidate)
                .map_err(|e| format!("{}: {e}", candidate.display()))?;
            let cfg = Config::parse(&text).map_err(|e| e.to_string())?;
            return Ok((d, cfg));
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    Err(format!("no lint.toml found from {} upward", start.display()))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
