#![forbid(unsafe_code)]
//! Self-test over the fixture corpus: every rule fires exactly once
//! across `crates/detlint/fixtures/`, and the clean/suppressed fixtures
//! yield zero findings. This is the CI guarantee that detlint still
//! *detects* each banned construct (a lint that silently stops firing
//! would otherwise look like a clean tree).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use livescope_detlint::{scan, Config};

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
    let outcome = scan(&repo_root(), &Config::default(), Some(&[fixtures_dir()]))
        .expect("fixture scan succeeds");
    let mut by_rule: BTreeMap<&str, u32> = BTreeMap::new();
    for f in &outcome.findings {
        *by_rule.entry(f.rule).or_insert(0) += 1;
    }
    let expected: BTreeMap<&str, u32> = [
        ("hash-iter", 1),
        ("wall-clock", 1),
        ("ambient-rng", 1),
        ("unordered-float-sum", 1),
        ("unsafe-code", 1),
        ("todo-panic", 1),
        ("missing-reason", 1),
        // Structural rules: static mut + Mutex + RefCell + Relaxed.
        ("shared-mutable-state", 4),
        // A captured sink `.emit` in a handler.
        ("direct-trace-emit", 1),
        // A float fold over a HashMap field inside a merge impl.
        ("unordered-float-merge", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(by_rule, expected, "findings: {:#?}", outcome.findings);
}

#[test]
fn clean_and_suppressed_fixtures_have_zero_findings() {
    for name in [
        "clean.rs",
        "allowed_ok.rs",
        "shared_mutable_ok.rs",
        "direct_trace_emit_ok.rs",
        "unordered_float_merge_ok.rs",
    ] {
        let path = fixtures_dir().join(name);
        let outcome =
            scan(&repo_root(), &Config::default(), Some(&[path])).expect("fixture scan succeeds");
        assert!(
            outcome.findings.is_empty(),
            "{name} should be clean: {:#?}",
            outcome.findings
        );
    }
}

#[test]
fn findings_attribute_the_right_fixture_file() {
    let outcome = scan(&repo_root(), &Config::default(), Some(&[fixtures_dir()]))
        .expect("fixture scan succeeds");
    for (rule, file) in [
        ("hash-iter", "hash_iter.rs"),
        ("wall-clock", "wall_clock.rs"),
        ("ambient-rng", "ambient_rng.rs"),
        ("unordered-float-sum", "unordered_float_sum.rs"),
        ("unsafe-code", "unsafe_code.rs"),
        ("todo-panic", "todo_panic.rs"),
        ("missing-reason", "missing_reason.rs"),
        ("shared-mutable-state", "shared_mutable_state.rs"),
        ("direct-trace-emit", "direct_trace_emit.rs"),
        ("unordered-float-merge", "unordered_float_merge.rs"),
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
fn workspace_scan_is_clean_with_the_checked_in_allowlist() {
    let root = repo_root();
    let config_text = std::fs::read_to_string(root.join("detlint.toml"))
        .expect("detlint.toml exists at the workspace root");
    let config = Config::parse(&config_text).expect("detlint.toml parses");
    let outcome = scan(&root, &config, None).expect("workspace scan succeeds");
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
