//! `radar-analyze`: a dependency-free workspace invariant linter.
//!
//! The compiler proves memory safety; the test suite proves behavior on the
//! schedules it happens to run. This crate enforces the *project* invariants that
//! sit between those two — properties that are easy to state, easy to silently
//! erode in review, and catastrophic to lose:
//!
//! * **hot-path purity** — the serve fetch/verify/recover paths stay
//!   quantized-native (no `dequantize()`, no float-shadow sync) and the per-batch
//!   verify/scrub steps stay allocation-free;
//! * **determinism** — no ambient entropy or wall-clock in logical paths, so runs
//!   replay from seeds (telemetry and benches are allowlisted *with reasons*);
//! * **atomics discipline** — every `Ordering::Relaxed` carries a `// relaxed:`
//!   justification, and atomics in the serve sync module may not use `Relaxed`
//!   at all;
//! * **no `unsafe`** — every crate root forbids it (attribute or workspace lint
//!   table), and serve worker loops don't `unwrap`/`expect`.
//!
//! Rules are declared in `crates/analyze/lints.toml` and documented in
//! `docs/ANALYSIS.md`. Matching is token-level on comment- and string-stripped
//! source — deliberately not a full parser: the rules are chosen so that a
//! substring hit is (modulo the reasoned allowlist) a real violation, and the
//! zero-dependency scanner stays trivially auditable and fast enough for CI.
//!
//! The binary (`cargo run -p radar-analyze`) scans the workspace, prints a table,
//! writes `artifacts/results/ANALYZE.json` and exits nonzero on violations.

pub mod config;
pub mod report;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::Path;

pub use config::{parse, LintConfig};
pub use report::AnalysisReport;

/// Runs the full analysis: scans `.rs` sources under `root` and evaluates `config`.
///
/// # Errors
///
/// Returns an error when the tree cannot be read.
pub fn analyze(root: &Path, config: &LintConfig) -> Result<AnalysisReport, String> {
    let files = scan::scan_workspace(root)?;
    Ok(rules::evaluate(root, config, &files))
}

/// [`analyze`] with the configuration loaded from `config_path`.
///
/// # Errors
///
/// Returns an error when the config cannot be read or parsed, or the tree cannot
/// be scanned.
pub fn analyze_with_config_file(root: &Path, config_path: &Path) -> Result<AnalysisReport, String> {
    let text = fs::read_to_string(config_path)
        .map_err(|e| format!("cannot read {}: {e}", config_path.display()))?;
    let config = config::parse(&text)?;
    analyze(root, &config)
}
