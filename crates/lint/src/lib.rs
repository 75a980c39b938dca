//! `vsr-lint` — the project-specific half of the workspace's static checks.
//!
//! Clippy carries every per-file rule: determinism and sans-I/O through
//! the disallowed lists in `clippy.toml`, exhaustive protocol matches
//! through `wildcard_enum_match_arm` and
//! `match_wildcard_for_single_variants`, error discipline through
//! `unwrap_used` and the `let_underscore_*` lints, and suppression hygiene
//! through `allow_attributes` plus `#[expect(.., reason = "…")]`
//! (DESIGN.md §10.1). This crate checks the three properties clippy
//! cannot express:
//!
//! * `expect_used` — in a crate under error discipline (its
//!   `[lints.clippy]` table sets `unwrap_used`), every `.expect(…)`
//!   documents the invariant that makes it safe: `expect("invariant: …")`;
//! * `dead_variant` — every variant of a handler enum (`Message`,
//!   `Timer`) is constructed somewhere outside tests, in a crate under
//!   the determinism list;
//! * `lock_order_inversion` — no two functions in a crate take the same
//!   pair of locks in opposite orders.
//!
//! It lexes every workspace member's `src/` with a small
//! self-contained Rust lexer (the offline build environment rules out
//! `syn`) plus an item-level parser. See [`rules`] for the rule catalog,
//! [`flow`] for the cross-file passes, and DESIGN.md §10.2 for their
//! approximations. Run it as a binary (`cargo run -p vsr-lint --
//! --workspace`) or call [`run_workspace`] from tests.

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
/// per-file findings before the file's suppressions are applied.
struct Analyzed {
    display: PathBuf,
    file: SourceFile,
    excluded: Vec<bool>,
    parsed: ParsedFile,
    raw: Vec<Diagnostic>,
}

/// Lint every workspace member rooted at `workspace_root`: the
/// `invariant:` expect rule in each crate under error discipline, then
/// the cross-file flow rules `config` enables. Returns all
/// diagnostics; I/O or config-shape problems come back as `Err`
/// strings.
pub fn run_workspace(workspace_root: &Path, config: &Config) -> Result<Vec<Diagnostic>, String> {
    let flow_enabled = rules::expand_rules(&config.rules).map_err(|e| format!("[flow]: {e}"))?;
    let root_manifest = read(&workspace_root.join("Cargo.toml"))?;
    let mut units: BTreeMap<String, Vec<Analyzed>> = BTreeMap::new();
    let mut harness = BTreeSet::new();
    for (name, dir, manifest) in workspace_members(workspace_root)? {
        let check_expect = denies_unwrap(&manifest, &root_manifest);
        if is_io_harness(&manifest) {
            harness.insert(name.clone());
        }
        let mut files = Vec::new();
        collect_rs_files(&dir.join("src"), &mut files).map_err(|e| format!("{name}: {e}"))?;
        files.sort();
        let mut analyzed = Vec::new();
        for file in files {
            let src = read(&file)?;
            let display = file.strip_prefix(workspace_root).unwrap_or(&file).to_path_buf();
            let lexed = lexer::lex(&src);
            let excluded = lexer::test_regions(&lexed.tokens);
            let parsed = parse::parse(&lexed.tokens, &excluded);
            let raw = if check_expect {
                rules::expect_rule(&display, &lexed.tokens, &excluded)
            } else {
                Vec::new()
            };
            analyzed.push(Analyzed { display, file: lexed, excluded, parsed, raw });
        }
        units.insert(name, analyzed);
    }

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
                    counts_constructions: !harness.contains(name),
                })
                .collect();
            (name.clone(), refs)
        })
        .collect();
    let flow_diags =
        flow::run(config, &flow_enabled, &flow_units).map_err(|e| format!("[flow]: {e}"))?;
    drop(flow_units);
    // Route each flow finding to its anchor file so that file's allow
    // directives can suppress it (and count as used).
    for d in flow_diags {
        let anchor = units.values_mut().flatten().find(|a| a.display == d.file);
        match anchor {
            Some(a) => a.raw.push(d),
            None => {
                return Err(format!(
                    "[flow]: finding anchored outside the analyzed set: {}",
                    d.file.display()
                ))
            }
        }
    }

    let mut out = Vec::new();
    for a in units.values_mut().flatten() {
        let raw = std::mem::take(&mut a.raw);
        out.extend(rules::apply_suppressions(&a.display, &a.file, raw));
    }
    out.sort_by(|x, y| (&x.file, x.line, x.rule).cmp(&(&y.file, y.line, y.rule)));
    Ok(out)
}

/// Lint one standalone file with the enabled rules, the file standing
/// in for every flow role (core, lock-order domain). This is what
/// `vsr-lint --rules … FILE…` and the fixture tests run.
pub fn lint_file(display: &Path, src: &str, enabled: &BTreeSet<&'static str>) -> Vec<Diagnostic> {
    let lexed = lexer::lex(src);
    let excluded = lexer::test_regions(&lexed.tokens);
    let parsed = parse::parse(&lexed.tokens, &excluded);
    let mut raw = if enabled.contains("expect_used") {
        rules::expect_rule(display, &lexed.tokens, &excluded)
    } else {
        Vec::new()
    };
    raw.extend(flow::run_single_file(display, &lexed.tokens, &excluded, &parsed, enabled));
    rules::apply_suppressions(display, &lexed, raw)
}

/// Whether a crate is under error discipline: its `[lints.clippy]`
/// table (or, for `[lints] workspace = true`, the root's
/// `[workspace.lints.clippy]`) sets `unwrap_used` to anything but
/// `allow`. The clippy lint table is the one place a crate enrolls in
/// error discipline; the `invariant:` expect rule follows it.
pub fn denies_unwrap(manifest: &str, root_manifest: &str) -> bool {
    let level = if table_value(manifest, "lints", "workspace").as_deref() == Some("true") {
        table_value(root_manifest, "workspace.lints.clippy", "unwrap_used")
    } else {
        table_value(manifest, "lints.clippy", "unwrap_used")
    };
    level.is_some_and(|l| l != "allow")
}

/// Whether a crate is an I/O harness: its `[lints.clippy]` table opts
/// out of the disallowed determinism/sans-I/O list. Constructions of a
/// handler-enum variant in such a crate do not keep it off
/// `dead_variant`, because the simulator never runs that code.
pub fn is_io_harness(manifest: &str) -> bool {
    table_value(manifest, "lints.clippy", "disallowed_methods").as_deref() == Some("allow")
}

/// Every workspace member (the root package first, if there is one) as
/// (package name, directory, manifest text). Understands a one-line
/// `members` array of plain paths and the `"crates/*"` glob form the
/// workspace uses.
pub fn workspace_members(workspace_root: &Path) -> Result<Vec<(String, PathBuf, String)>, String> {
    let manifest = read(&workspace_root.join("Cargo.toml"))?;
    let mut dirs = vec![workspace_root.to_path_buf()];
    let members = table_value(&manifest, "workspace", "members").unwrap_or_else(|| "[]".into());
    for entry in config::string_array(&members).map_err(|e| format!("[workspace] members: {e}"))? {
        if let Some(prefix) = entry.strip_suffix("/*") {
            let dir = workspace_root.join(prefix);
            let listing = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut subdirs: Vec<PathBuf> = listing
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect();
            subdirs.sort();
            dirs.extend(subdirs);
        } else {
            dirs.push(workspace_root.join(&entry));
        }
    }
    let mut members = Vec::new();
    for dir in dirs {
        let manifest = read(&dir.join("Cargo.toml"))?;
        if let Some(name) = table_value(&manifest, "package", "name") {
            members.push((name, dir, manifest));
        }
    }
    Ok(members)
}

/// The `key = value` entries of the `[table]` section of a Cargo.toml,
/// in order, with surrounding quotes stripped from the values.
pub fn table_entries(manifest: &str, table: &str) -> Vec<(String, String)> {
    let header = format!("[{table}]");
    let mut in_table = false;
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_table = line == header;
            continue;
        }
        if in_table {
            if let Some((k, v)) = line.split_once('=') {
                out.push((k.trim().to_string(), v.trim().trim_matches('"').to_string()));
            }
        }
    }
    out
}

/// The value of `key` in the `[table]` section of a Cargo.toml.
fn table_value(manifest: &str, table: &str, key: &str) -> Option<String> {
    table_entries(manifest, table).into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Load `lint.toml`, looking in `start` and then each parent directory.
pub fn load_config(start: &Path) -> Result<(PathBuf, Config), String> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let candidate = d.join("lint.toml");
        if candidate.is_file() {
            return read_config(&candidate);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    Err(format!("no lint.toml found from {} upward", start.display()))
}

/// Read the config at `path`; the workspace root is its directory.
pub fn read_config(path: &Path) -> Result<(PathBuf, Config), String> {
    let root = path.parent().map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    Ok((root, Config::parse(&read(path)?)?))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_lint_level_decides_error_discipline() {
        let root = "[workspace.lints.clippy]\ntodo = \"deny\"\n";
        assert!(denies_unwrap("[lints.clippy]\nunwrap_used = \"deny\"\n", root));
        assert!(denies_unwrap("[lints.clippy]\nunwrap_used = \"warn\"\n", root));
        assert!(!denies_unwrap("[lints.clippy]\nunwrap_used = \"allow\"\n", root));
        assert!(!denies_unwrap("[lints.clippy]\ntodo = \"deny\"\n", root));
        assert!(!denies_unwrap("[lints]\nworkspace = true\n", root));
        let strict = "[workspace.lints.clippy]\nunwrap_used = \"deny\"\n";
        assert!(denies_unwrap("[lints]\nworkspace = true\n", strict));
    }

    #[test]
    fn opting_out_of_the_disallowed_list_makes_a_harness() {
        assert!(is_io_harness("[lints.clippy]\ndisallowed_methods = \"allow\"\n"));
        assert!(!is_io_harness("[lints.clippy]\nunwrap_used = \"deny\"\n"));
        assert!(!is_io_harness("[lints]\nworkspace = true\n"));
    }
}
