//! Fixture-backed tests for every lint rule, plus the gate-level
//! guarantees CI relies on: the real workspace lints clean under all
//! six families, lint.toml cannot go stale, and the CLI's exit
//! codes, `--rule` filter, and `--json` summary behave.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use vsr_lint::{check_membership, lint_file, load_config, rules, run_workspace};

/// Every rule family, token and flow.
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
    let watched = vec!["Message".to_string(), "FaultEvent".to_string()];
    lint_file(&path, &src, &enabled, &watched)
}

/// Every fixture triggers exactly the one rule it is named after,
/// even with every family — token and flow — enabled at once, proving
/// the rules don't bleed into each other.
#[test]
fn each_fixture_triggers_exactly_its_rule() {
    let cases = [
        "wall_clock",
        "os_thread",
        "thread_rng",
        "hash_collections",
        "fs_io",
        "net_io",
        "print_io",
        "wildcard_match",
        "unwrap_used",
        "expect_used",
        "discarded_result",
        "lint_directive",
        "dead_variant",
        "unhandled_variant",
        "lock_order_inversion",
    ];
    for rule in cases {
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

/// The gate CI actually runs: the workspace's own crates, under the
/// checked-in lint.toml with all six families enabled, produce zero
/// diagnostics.
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

/// Staleness gate: deleting a crate's entry from the config turns the
/// run into a hard error naming that crate, so a new workspace member
/// can never ship unenrolled.
#[test]
fn stale_config_is_an_error() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (root, mut cfg) = load_config(start).expect("lint.toml found at workspace root");
    cfg.crates.remove("vsr-snap").expect("vsr-snap is enrolled");
    let err = check_membership(&root, &cfg).expect_err("missing member must error");
    assert!(err.contains("vsr-snap"), "error should name the missing crate: {err}");
    assert!(err.contains("stale"), "error should say the config is stale: {err}");
    let err = run_workspace(&root, &cfg).expect_err("run_workspace enforces membership");
    assert!(err.contains("vsr-snap"), "run_workspace should surface it too: {err}");
}

/// A flow role must be an analyzed crate: pointing `[flow] core` at a
/// crate enrolled with `rules = []` is a config error, not a silent
/// no-op pass.
#[test]
fn flow_role_must_be_analyzed() {
    let start = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (root, mut cfg) = load_config(start).expect("lint.toml found at workspace root");
    cfg.flow.core = "vsr-bench".to_string(); // enrolled, rules = []
    let err = run_workspace(&root, &cfg).expect_err("unanalyzed role must error");
    assert!(err.contains("vsr-bench"), "error should name the role crate: {err}");
}

/// CLI contract: diagnostics mean exit code 1, a clean run exits 0.
#[test]
fn cli_exit_codes() {
    let dirty = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "error_discipline"])
        .arg(fixture_path("unwrap_used.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(dirty.status.code(), Some(1), "diagnostics must exit 1");

    let clean = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", all_families().join(",").as_str()])
        .args(["--watched", "Message,FaultEvent"])
        .arg(fixture_path("clean.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(clean.status.code(), Some(0), "clean run must exit 0");

    let usage = Command::new(env!("CARGO_BIN_EXE_vsr-lint")).output().expect("vsr-lint runs");
    assert_eq!(usage.status.code(), Some(2), "missing args must exit 2");
}

/// `--rule` filters the output: a wall-clock finding vanishes under an
/// `error_discipline` filter (exit 0) and survives its own (exit 1).
#[test]
fn cli_rule_filter() {
    let filtered = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "determinism", "--rule", "error_discipline"])
        .arg(fixture_path("wall_clock.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(filtered.status.code(), Some(0), "filtered-out finding must exit 0");

    let kept = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "determinism", "--rule", "wall_clock"])
        .arg(fixture_path("wall_clock.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(kept.status.code(), Some(1), "matching finding must exit 1");

    let bogus = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "determinism", "--rule", "no_such_rule"])
        .arg(fixture_path("wall_clock.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(bogus.status.code(), Some(2), "unknown filter name must exit 2");
}

/// `--json` emits a summary object: per-family counts plus the
/// findings array with rule ids.
#[test]
fn cli_json_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_vsr-lint"))
        .args(["--rules", "determinism", "--json"])
        .arg(fixture_path("wall_clock.rs"))
        .output()
        .expect("vsr-lint runs");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.trim_start().starts_with('{'), "json output: {stdout}");
    assert!(stdout.contains("\"counts\""), "json output: {stdout}");
    assert!(stdout.contains("\"determinism\": 1"), "json output: {stdout}");
    assert!(stdout.contains("\"lock_order\": 0"), "json output: {stdout}");
    assert!(stdout.contains("\"total\": 1"), "json output: {stdout}");
    assert!(stdout.contains("\"wall_clock\""), "json output: {stdout}");
}
