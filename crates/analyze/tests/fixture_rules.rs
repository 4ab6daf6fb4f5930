//! End-to-end linter tests: every rule catches its seeded fixture violation, and
//! the real workspace is clean.
//!
//! Each directory under `tests/fixtures/<rule-id>/` is a miniature workspace tree
//! containing exactly one seeded violation of that rule, placed at a path the
//! rule's scope matches. Running the real `lints.toml` against the fixture must
//! flag it; running against the actual workspace must flag nothing. Together the
//! two directions prove the rules both *fire* and *don't cry wolf*.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use radar_analyze::{analyze_with_config_file, scan};

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> PathBuf {
    manifest_dir()
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn lints_toml() -> PathBuf {
    manifest_dir().join("lints.toml")
}

fn run_fixture(rule_id: &str) -> radar_analyze::AnalysisReport {
    let root = manifest_dir().join("tests/fixtures").join(rule_id);
    assert!(root.is_dir(), "missing fixture tree {}", root.display());
    analyze_with_config_file(&root, &lints_toml())
        .unwrap_or_else(|e| panic!("fixture {rule_id} failed to analyze: {e}"))
}

fn assert_fires(rule_id: &str) {
    let report = run_fixture(rule_id);
    let rule = report
        .rule(rule_id)
        .unwrap_or_else(|| panic!("rule {rule_id} missing from report"));
    assert!(
        !rule.violations.is_empty(),
        "rule {rule_id} did not catch its seeded fixture violation"
    );
}

#[test]
fn every_rule_catches_its_seeded_fixture_violation() {
    for rule_id in [
        "hot-path-purity",
        "hot-path-alloc",
        "determinism",
        "atomics-justify",
        "atomics-barrier",
        "unsafe-forbid",
        "no-unwrap-worker",
        "worker-snapshot-only",
        "secret-hygiene",
        "obs-off-purity",
    ] {
        assert_fires(rule_id);
    }
}

#[test]
fn determinism_rule_confines_the_wall_clock_to_the_obs_crate() {
    // The allowlist names `crates/obs/src/` and nothing else: the only sanctioned
    // `Instant::now` / `.elapsed(` hits in the real workspace must come from the
    // observability crate's clock module.
    let report =
        analyze_with_config_file(&workspace_root(), &lints_toml()).expect("workspace analyzes");
    let determinism = report.rule("determinism").expect("rule exists");
    assert!(determinism.violations.is_empty());
    assert!(
        !determinism.allowed.is_empty(),
        "the obs clock should exercise the allowlist"
    );
    for hit in &determinism.allowed {
        assert!(
            hit.file.contains("crates/obs/src/"),
            "wall-clock read outside crates/obs: {}:{}",
            hit.file,
            hit.line
        );
    }
}

#[test]
fn alloc_rule_is_function_scoped() {
    let report = run_fixture("hot-path-alloc");
    let rule = report.rule("hot-path-alloc").expect("rule exists");
    // Only the allocation inside the hot function fires; `cold_setup` does not.
    assert_eq!(rule.violations.len(), 1, "got: {:#?}", rule.violations);
    assert!(rule.violations[0].line <= 6);
}

#[test]
fn barrier_rule_fires_even_when_the_justification_rule_is_satisfied() {
    let report = run_fixture("atomics-barrier");
    let justify = report.rule("atomics-justify").expect("rule exists");
    assert!(
        justify.violations.is_empty(),
        "the fixture's `// relaxed:` comment satisfies atomics-justify: {:#?}",
        justify.violations
    );
    let barrier = report.rule("atomics-barrier").expect("rule exists");
    assert!(!barrier.violations.is_empty());
}

#[test]
fn snapshot_rule_catches_the_float_write_back_path() {
    let report = run_fixture("worker-snapshot-only");
    let rule = report.rule("worker-snapshot-only").expect("rule exists");
    // The DRAM read, the replica write-back, the float forward and the whole-model
    // rescan all fire.
    assert_eq!(rule.violations.len(), 4, "got: {:#?}", rule.violations);
}

#[test]
fn unwrap_rule_skips_test_regions() {
    let report = run_fixture("no-unwrap-worker");
    let rule = report.rule("no-unwrap-worker").expect("rule exists");
    // Exactly the non-test unwrap fires; the one inside #[cfg(test)] does not.
    assert_eq!(rule.violations.len(), 1, "got: {:#?}", rule.violations);
}

/// A token rule scoped by `functions` or `files` silently covers nothing once the
/// named function or file is renamed or deleted: every scope entry, and every
/// allowlist path, must still name something in the real workspace.
#[test]
fn every_scope_entry_names_something_in_the_real_workspace() {
    let text = std::fs::read_to_string(lints_toml()).expect("lints.toml is readable");
    let config = radar_analyze::parse(&text).expect("lints.toml parses");
    let files = scan::scan_workspace(&workspace_root()).expect("workspace scans");
    let functions: HashSet<&str> = files
        .iter()
        .flat_map(|f| f.enclosing_fn.iter().flatten())
        .map(String::as_str)
        .collect();
    let mut dangling = Vec::new();
    for rule in &config.rules {
        for name in &rule.functions {
            if !functions.contains(name.as_str()) {
                dangling.push(format!("{}: function `{name}`", rule.id));
            }
        }
        for path in rule.files.iter().chain(rule.allow.iter().map(|a| &a.file)) {
            if !files.iter().any(|f| f.rel.contains(path.as_str())) {
                dangling.push(format!("{}: file `{path}`", rule.id));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "lints.toml scope entries that match nothing in the workspace:\n{}",
        dangling.join("\n")
    );
}

#[test]
fn the_real_workspace_is_clean() {
    let report =
        analyze_with_config_file(&workspace_root(), &lints_toml()).expect("workspace analyzes");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    let failing: Vec<String> = report
        .rules
        .iter()
        .filter(|r| !r.violations.is_empty())
        .map(|r| format!("{}: {:#?}", r.id, r.violations))
        .collect();
    assert!(
        report.clean(),
        "the workspace violates its own lints:\n{}",
        failing.join("\n")
    );
    // The reasoned allowlist is actually exercised (telemetry/bench timing).
    let determinism = report.rule("determinism").expect("rule exists");
    assert!(!determinism.allowed.is_empty());
}
