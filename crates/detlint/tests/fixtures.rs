//! Self-test over the fixture corpus: each rule fires an exact, pinned
//! number of times across `crates/detlint/fixtures/`, and the clean and
//! suppressed fixtures yield zero findings. This is the CI guarantee that
//! detlint still *detects* what it checks (a lint that silently stops
//! firing would otherwise look like a clean tree). The constructs the
//! compiler bans are pinned the same way by `tests/lint_canary.rs`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use livescope_detlint::scan;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/detlint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn each_rule_fires_exactly_once_across_the_corpus() {
    let outcome = scan(&repo_root(), Some(&[fixtures_dir()])).expect("fixture scan succeeds");
    let mut by_rule: BTreeMap<&str, u32> = BTreeMap::new();
    for f in &outcome.findings {
        *by_rule.entry(f.rule).or_insert(0) += 1;
    }
    let expected: BTreeMap<&str, u32> = [
        // A captured sink `.emit` in a handler.
        ("direct-trace-emit", 1),
        // A bare directive with no reason.
        ("missing-reason", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(by_rule, expected, "findings: {:#?}", outcome.findings);
}

#[test]
fn clean_and_suppressed_fixtures_have_zero_findings() {
    for name in ["clean.rs", "allowed_ok.rs", "direct_trace_emit_ok.rs"] {
        let path = fixtures_dir().join(name);
        let outcome = scan(&repo_root(), Some(&[path])).expect("fixture scan succeeds");
        assert!(
            outcome.findings.is_empty(),
            "{name} should be clean: {:#?}",
            outcome.findings
        );
    }
}

#[test]
fn findings_attribute_the_right_fixture_file() {
    let outcome = scan(&repo_root(), Some(&[fixtures_dir()])).expect("fixture scan succeeds");
    for (rule, file) in [
        ("missing-reason", "missing_reason.rs"),
        ("direct-trace-emit", "direct_trace_emit.rs"),
    ] {
        let f = outcome
            .findings
            .iter()
            .find(|f| f.rule == rule)
            .unwrap_or_else(|| panic!("no {rule} finding"));
        assert!(
            f.path.ends_with(file),
            "{rule} should come from {file}, got {}",
            f.path
        );
    }
}

#[test]
fn workspace_scan_is_clean() {
    let outcome = scan(&repo_root(), None).expect("workspace scan succeeds");
    assert!(
        outcome.findings.is_empty(),
        "workspace must lint clean: {:#?}",
        outcome.findings
    );
    assert!(
        outcome.files_scanned > 100,
        "workspace scan saw only {} files",
        outcome.files_scanned
    );
}
