//! Fixture-backed tests for every lint rule, plus the gate-level
//! guarantees CI relies on: the real workspace lints clean, rule
//! enrollment follows the crates' lint tables (which restate the
//! workspace set), flow roles must be workspace members, and the CLI's
//! exit codes, `--rule` filter, and `--json` summary behave.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use vsr_lint::{
    denies_unwrap, is_io_harness, lint_file, load_config, rules, run_workspace, table_entries,
    workspace_members,
};

/// Every rule family.
fn all_families() -> Vec<String> {
    rules::FAMILIES.iter().map(|(family, _)| family.to_string()).collect()
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn lint_fixture(name: &str) -> Vec<vsr_lint::diag::Diagnostic> {
    let path = fixture_path(name);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    let enabled: BTreeSet<&'static str> =
        rules::expand_rules(&all_families()).expect("families expand");
    lint_file(&path, &src, &enabled)
}

/// Every fixture triggers exactly the one rule it is named after,
/// even with every family enabled at once, proving the rules don't
/// bleed into each other.
#[test]
fn each_fixture_triggers_exactly_its_rule() {
    for rule in ["expect_used", "lint_directive", "dead_variant", "lock_order_inversion"] {
        let diags = lint_fixture(&format!("{rule}.rs"));
        assert_eq!(
            diags.len(),
            1,
            "{rule}.rs should trigger exactly one diagnostic, got: {:?}",
            diags.iter().map(|d| d.rule).collect::<Vec<_>>()
        );
        assert_eq!(diags[0].rule, rule, "{rule}.rs triggered the wrong rule");
    }
}

/// The clean fixture exercises all three escape hatches (invariant
/// expect, reasoned allow, #[cfg(test)] region) and produces nothing.
#[test]
fn clean_fixture_is_clean() {
    let diags = lint_fixture("clean.rs");
    assert!(
        diags.is_empty(),
        "clean.rs should lint clean, got: {:?}",
        diags.iter().map(|d| d.rule).collect::<Vec<_>>()
    );
}

/// The gate CI actually runs: every workspace member under the
/// checked-in lint.toml produces zero diagnostics.
#[test]
fn workspace_lints_clean() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (root, cfg) = load_config(start).expect("lint.toml found at workspace root");
    let diags = run_workspace(&root, &cfg).expect("workspace lint runs");
    assert!(
        diags.is_empty(),
        "workspace should lint clean, got:\n{}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
    );
}

/// Enrollment lives in each crate's clippy lint table. The expect rule
/// runs where `unwrap_used` is set; `dead_variant` ignores constructions
/// in the I/O harness crates, which opt out of the disallowed list.
/// This pins both sets as they are today.
#[test]
fn enrollment_follows_the_crates_lint_tables() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (root, _) = load_config(start).expect("lint.toml found at workspace root");
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = workspace_members(&root).expect("members");
    let names = |keep: &dyn Fn(&str) -> bool| -> Vec<&str> {
        members.iter().filter(|(_, _, m)| keep(m)).map(|(name, ..)| name.as_str()).collect()
    };
    assert!(names(&|_| true).contains(&"viewstamped-replication"));
    let strict = names(&|m| denies_unwrap(m, &root_manifest));
    assert_eq!(strict, ["vsr-core", "vsr-net", "vsr-runtime", "vsr-snap"]);
    let harness = names(&|m| is_io_harness(m));
    assert_eq!(harness, ["viewstamped-replication", "vsr-bench", "vsr-lint", "vsr-runtime"]);
}

/// Cargo cannot extend the workspace lint set, so a crate that adds
/// lints restates it. Every member that does not inherit
/// `[workspace.lints]` must carry each of its entries at the same level,
/// or `#[allow]` (say) would quietly come back in that crate.
#[test]
fn every_lint_table_restates_the_workspace_base_set() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (root, _) = load_config(start).expect("lint.toml found at workspace root");
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    for tool in ["rust", "clippy"] {
        let base = table_entries(&root_manifest, &format!("workspace.lints.{tool}"));
        assert!(!base.is_empty(), "[workspace.lints.{tool}] is empty");
        for (name, _, manifest) in workspace_members(&root).expect("members") {
            if table_entries(&manifest, "lints").contains(&("workspace".into(), "true".into())) {
                continue;
            }
            let own = table_entries(&manifest, &format!("lints.{tool}"));
            for entry in &base {
                assert!(
                    own.contains(entry),
                    "{name}: [lints.{tool}] must restate `{} = \"{}\"` from the workspace set",
                    entry.0,
                    entry.1
                );
            }
        }
    }
}

/// A flow role must be a workspace member: pointing `[flow] core` at
/// an unknown crate is a config error, not a silent no-op pass.
#[test]
fn flow_role_must_be_a_member() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (root, mut cfg) = load_config(start).expect("lint.toml found at workspace root");
    cfg.core = "vsr-nonexistent".to_string();
    let err = run_workspace(&root, &cfg).expect_err("unknown role must error");
    assert!(err.contains("vsr-nonexistent"), "error should name the role crate: {err}");
}

/// CLI contract: diagnostics mean exit code 1, a clean run exits 0,
/// usage errors exit 2.
#[test]
fn cli_exit_codes() {
    let dirty = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline"])
        .arg(fixture_path("expect_used.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(dirty.status.code(), Some(1), "diagnostics must exit 1");

    let clean = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", all_families().join(",").as_str()])
        .arg(fixture_path("clean.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(clean.status.code(), Some(0), "clean run must exit 0");

    let usage = Command::new(env!("CARGO_BIN_EXE_vsr-lint")).output().expect("vsr-lint runs");
    assert_eq!(usage.status.code(), Some(2), "missing args must exit 2");

    let unknown = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "determinism"])
        .arg(fixture_path("clean.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(unknown.status.code(), Some(2), "an unknown family must exit 2");
}

/// `--rule` filters the output: an `expect_used` finding vanishes under
/// a `lock_order` filter (exit 0) and survives its own (exit 1).
#[test]
fn cli_rule_filter() {
    let filtered = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline", "--rule", "lock_order"])
        .arg(fixture_path("expect_used.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(filtered.status.code(), Some(0), "filtered-out finding must exit 0");

    let kept = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline", "--rule", "expect_used"])
        .arg(fixture_path("expect_used.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(kept.status.code(), Some(1), "matching finding must exit 1");

    let directive = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline", "--rule", "lint_directive"])
        .arg(fixture_path("lint_directive.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(directive.status.code(), Some(1), "lint_directive is a filter name too");

    let bogus = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline", "--rule", "no_such_rule"])
        .arg(fixture_path("expect_used.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(bogus.status.code(), Some(2), "unknown filter name must exit 2");
}

/// `--json` emits a summary object: per-family counts plus the
/// findings array with rule ids.
#[test]
fn cli_json_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline", "--json"])
        .arg(fixture_path("expect_used.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.trim_start().starts_with('{'), "json output: {stdout}");
    assert!(stdout.contains("\"counts\""), "json output: {stdout}");
    assert!(stdout.contains("\"error_discipline\": 1"), "json output: {stdout}");
    assert!(stdout.contains("\"lock_order\": 0"), "json output: {stdout}");
    assert!(stdout.contains("\"total\": 1"), "json output: {stdout}");
    assert!(stdout.contains("\"expect_used\""), "json output: {stdout}");
}
