#![forbid(unsafe_code)]
//! End-to-end tests of the `detlint` binary and the allowlist audit,
//! each over a throwaway workspace under `CARGO_TARGET_TMPDIR`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use livescope_detlint::{scan, Config};

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
    fs::write(
        root.join("src/a.rs"),
        "fn f() { let t = Instant::now(); }\n",
    )
    .unwrap();
    for _ in 0..2 {
        let dirty = detlint(&root, &[]);
        assert_eq!(dirty.status.code(), Some(1), "{dirty:?}");
        let stdout = String::from_utf8(dirty.stdout).expect("utf-8 report");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 1, "{stdout}");
        assert!(
            lines[0].starts_with("src/a.rs:1: [wall-clock] "),
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
    // A removed rule is unknown too.
    let gone = detlint(&root, &["--explain", "span-balance"]);
    assert_eq!(gone.status.code(), Some(2), "{gone:?}");
    assert!(String::from_utf8_lossy(&gone.stderr).contains("unknown rule `span-balance`"));

    // The scans left the tree exactly as the test wrote it.
    assert_eq!(names(&root), ["src"]);
    assert_eq!(names(&root.join("src")), ["a.rs", "b.rs"]);
}

#[test]
fn allowlist_audit_flags_dead_prefixes_and_dead_rules() {
    let root = temp_root("detlint-audit");
    fs::write(
        root.join("src/a.rs"),
        "fn f() { let t = Instant::now(); }\n",
    )
    .unwrap();
    let config = Config::parse(
        "[allow]\n\
         \"ghost/\" = \"*\"\n\
         \"src/\" = [\"wall-clock\", \"ambient-rng\"]\n",
    )
    .expect("config parses");

    let audited = scan(&root, &config, None).expect("scan");
    let stale: Vec<_> = audited
        .findings
        .iter()
        .filter(|f| f.rule == "stale-allowlist")
        .collect();
    assert_eq!(stale.len(), 2, "{:#?}", audited.findings);
    // `ghost/` matches no scanned file; its finding points at line 2.
    assert!(stale[0].message.contains("ghost/") && stale[0].message.contains("no scanned file"));
    assert_eq!((stale[0].path.as_str(), stale[0].line), ("detlint.toml", 2));
    // `src/` matched and its wall-clock suppression earned credit, but
    // ambient-rng suppressed nothing.
    assert!(stale[1].message.contains("ambient-rng"));
    assert_eq!(stale[1].line, 3);
    // The credited suppression still applied: no wall-clock finding.
    assert!(audited.findings.iter().all(|f| f.rule != "wall-clock"));
}
