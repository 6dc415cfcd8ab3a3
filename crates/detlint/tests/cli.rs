//! End-to-end tests of the `detlint` binary, each over a throwaway
//! workspace under `CARGO_TARGET_TMPDIR`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A one-line scheduler handler that writes a captured sink directly.
const DIRECT_EMIT: &str =
    "fn f(s: &mut S) { s.schedule(Box::new(move |ctx, pop: &mut Pop| { pop.telemetry.emit(ev); })); }\n";

fn temp_root(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("src")).expect("create temp workspace");
    root
}

fn detlint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_detlint"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("run detlint")
}

/// The entry names directly under `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut out: Vec<String> = fs::read_dir(dir)
        .expect("read temp workspace")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    out.sort();
    out
}

#[test]
fn exit_codes_and_output_and_nothing_is_written() {
    let root = temp_root("detlint-cli");
    fs::write(root.join("src/a.rs"), "fn f(t: SimTime) -> SimTime { t }\n").unwrap();
    fs::write(root.join("src/b.rs"), "fn g() -> u64 { 7 }\n").unwrap();

    let clean = detlint(&root, &[]);
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
    assert!(clean.stdout.is_empty(), "{clean:?}");

    // An edit is seen by the very next run, and twice in a row.
    fs::write(root.join("src/a.rs"), DIRECT_EMIT).unwrap();
    for _ in 0..2 {
        let dirty = detlint(&root, &[]);
        assert_eq!(dirty.status.code(), Some(1), "{dirty:?}");
        let stdout = String::from_utf8(dirty.stdout).expect("utf-8 report");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 1, "{stdout}");
        assert!(
            lines[0].starts_with("src/a.rs:1: [direct-trace-emit] "),
            "{stdout}"
        );
    }
    // Explicit paths take the same exit-code route.
    assert_eq!(detlint(&root, &["src/b.rs"]).status.code(), Some(0));
    assert_eq!(detlint(&root, &["src/a.rs"]).status.code(), Some(1));

    // Unknown flags — the removed ones included — are usage errors.
    for flag in [
        "--no-such-flag",
        "--format",
        "--sarif-out",
        "--no-cache",
        "--audit-allowlist",
        "--no-audit-allowlist",
    ] {
        let bad = detlint(&root, &[flag]);
        assert_eq!(bad.status.code(), Some(2), "{flag}: {bad:?}");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("usage: detlint"),
            "{flag}: {stderr}"
        );
    }
    // Two rules are left; every retired one is unknown to `--explain`.
    let listed = detlint(&root, &["--list-rules"]);
    assert_eq!(listed.status.code(), Some(0), "{listed:?}");
    let rules: Vec<String> = String::from_utf8_lossy(&listed.stdout)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or_default().to_string())
        .collect();
    assert_eq!(rules, ["direct-trace-emit", "missing-reason"]);
    for rule in [
        "span-balance",
        "hash-iter",
        "unordered-float-sum",
        "unordered-float-merge",
        "wall-clock",
        "ambient-rng",
        "unsafe-code",
        "todo-panic",
        "shared-mutable-state",
        "stale-allowlist",
    ] {
        let gone = detlint(&root, &["--explain", rule]);
        assert_eq!(gone.status.code(), Some(2), "{rule}: {gone:?}");
        let stderr = String::from_utf8_lossy(&gone.stderr);
        assert!(
            stderr.contains(&format!("unknown rule `{rule}`")),
            "{stderr}"
        );
    }

    // The scans left the tree exactly as the test wrote it.
    assert_eq!(names(&root), ["src"]);
    assert_eq!(names(&root.join("src")), ["a.rs", "b.rs"]);
}

#[test]
fn workspace_walk_skips_vendor_benchmark_and_the_fixture_corpus() {
    let root = temp_root("detlint-walk");
    for dir in ["vendor/x/src", "benchmark/src", "crates/detlint/fixtures"] {
        fs::create_dir_all(root.join(dir)).unwrap();
        fs::write(root.join(dir).join("a.rs"), DIRECT_EMIT).unwrap();
    }
    let walked = detlint(&root, &[]);
    assert_eq!(walked.status.code(), Some(0), "{walked:?}");
    // Each skipped directory is still linted when named explicitly.
    for dir in ["vendor", "benchmark", "crates/detlint/fixtures"] {
        let named = detlint(&root, &[dir]);
        assert_eq!(named.status.code(), Some(1), "{dir}: {named:?}");
    }
}
