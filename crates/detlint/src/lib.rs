#![forbid(unsafe_code)]
//! # livescope-detlint — determinism & safety static analysis
//!
//! The telemetry layer (DESIGN.md §8) promises byte-reproducible JSONL
//! traces per `(config, seed)`. This crate *enforces* the constructs
//! that promise depends on, as a workspace lint wired into `just ci` /
//! `scripts/ci.sh` (design notes: `crates/detlint/DESIGN.md`). Two
//! phases:
//!
//! * [`lexer`] — a small Rust lexer (nested block comments, raw/byte
//!   strings, char literals vs lifetimes) so rules match real tokens,
//!   never text inside a string;
//! * [`rules`] — the token-stream rules: `hash-iter`, `wall-clock`,
//!   `ambient-rng`, `unordered-float-sum`, `unsafe-code` (token ban
//!   *and* `#![forbid(unsafe_code)]` required on every crate root), and
//!   `todo-panic`, plus the `missing-reason` meta-rule;
//! * [`scope`] + [`structural`] — a brace-matched scope tree (items,
//!   impls, fns, closures — no full grammar) feeding the
//!   merge-contract rules: `shared-mutable-state`, `direct-trace-emit`
//!   and `unordered-float-merge`;
//! * [`config`] — the `detlint.toml` path-scoped allowlist
//!   (`vendor/`, bench binaries, the fixture corpus), audited for
//!   stale entries (`stale-allowlist`) on workspace scans;
//! * per-line suppression: `// detlint::allow(<rule>) — <reason>`,
//!   where the reason is mandatory.
//!
//! Every run analyzes every file: there is no cache and one output
//! format (`path:line: [rule] message`). The `detlint` binary drives
//! [`scan`] and exits nonzero on findings; `detlint --explain <rule>`
//! documents each rule.

pub mod config;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod structural;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

pub use config::{AllowEntry, Config};
pub use rules::{rule_info, Finding, RULES};

/// Directories never scanned, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Result of a scan.
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// A suppression directive parsed from a `// detlint::allow(...)` comment.
struct Suppression {
    /// The source line the directive covers.
    target_line: u32,
    /// The line the directive itself sits on.
    directive_line: u32,
    rules: Vec<String>,
    /// `None` when well-formed; `Some(problem)` otherwise.
    problem: Option<String>,
}

/// Scans `.rs` files and returns findings. Every file is analyzed on
/// every call.
///
/// With `paths = None` the whole tree under `root` is walked, the config
/// allowlist applies and is audited for stale entries. With explicit
/// `paths` (files or directories, as given on the CLI), the allowlist is
/// bypassed — that is how the fixture corpus is linted deliberately.
pub fn scan(
    root: &Path,
    config: &Config,
    paths: Option<&[PathBuf]>,
) -> Result<ScanOutcome, String> {
    let explicit = paths.is_some();
    let mut files = Vec::new();
    match paths {
        None => collect_rs(root, &mut files)?,
        Some(list) => {
            for p in list {
                let p = if p.is_absolute() {
                    p.clone()
                } else {
                    root.join(p)
                };
                if p.is_dir() {
                    collect_rs(&p, &mut files)?;
                } else {
                    files.push(p);
                }
            }
        }
    }
    files.sort();
    files.dedup();

    let forbid_roots = crate_roots(root)?;

    let mut outcome = ScanOutcome::default();
    let mut scanned_rels: Vec<String> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        outcome.files_scanned += 1;
        outcome
            .findings
            .extend(analyze_file(&rel, &text, forbid_roots.contains(file)));
        scanned_rels.push(rel);
    }

    // Path-scoped allowlist (workspace scans only), with per-entry credit
    // so the audit can spot entries that suppress nothing.
    if !explicit {
        let mut credited: BTreeSet<(usize, usize)> = BTreeSet::new();
        outcome.findings.retain(|f| {
            let path = f.path.replace('\\', "/");
            let mut dropped = false;
            for (ei, entry) in config.allow.iter().enumerate() {
                if !path.starts_with(entry.prefix.as_str()) {
                    continue;
                }
                for (ri, rule) in entry.rules.iter().enumerate() {
                    if rule == "*" || rule == f.rule {
                        credited.insert((ei, ri));
                        dropped = true;
                    }
                }
            }
            !dropped
        });
        for (ei, entry) in config.allow.iter().enumerate() {
            let prefix_hit = scanned_rels
                .iter()
                .any(|r| r.starts_with(entry.prefix.as_str()));
            if !prefix_hit {
                outcome.findings.push(Finding {
                    rule: "stale-allowlist",
                    path: "detlint.toml".to_string(),
                    line: entry.line,
                    message: format!(
                        "allowlist entry `\"{}\"` matches no scanned file — delete it",
                        entry.prefix
                    ),
                });
                continue;
            }
            for (ri, rule) in entry.rules.iter().enumerate() {
                if !credited.contains(&(ei, ri)) {
                    outcome.findings.push(Finding {
                        rule: "stale-allowlist",
                        path: "detlint.toml".to_string(),
                        line: entry.line,
                        message: format!(
                            "allowlist entry `\"{}\" = \"{rule}\"` suppresses zero findings — delete it (re-add with a reason if the hazard returns)",
                            entry.prefix
                        ),
                    });
                }
            }
        }
    }
    outcome
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(outcome)
}

/// Runs the full per-file pipeline: lex → token rules → scope tree →
/// structural rules → suppression directives. Returns the file's findings
/// (post-suppression, pre-allowlist).
pub fn analyze_file(path: &str, text: &str, requires_forbid: bool) -> Vec<Finding> {
    let lexed = lexer::lex(text);
    let mut findings = rules::check_file(&rules::FileContext {
        path,
        tokens: &lexed.tokens,
        requires_forbid,
    });
    let tree = scope::ScopeTree::build(&lexed.tokens);
    let ranges = rules::guarded_ranges(&lexed.tokens);
    let structural = structural::check_file(&structural::StructuralContext {
        path,
        tokens: &lexed.tokens,
        comments: &lexed.comments,
        tree: &tree,
        ranges: &ranges,
    });
    // Where the structural pass produced the sharper merge finding, drop
    // the token-level hash findings on the same line so one hazard isn't
    // double-reported.
    let merge_lines: BTreeSet<u32> = structural
        .iter()
        .filter(|f| f.rule == "unordered-float-merge")
        .map(|f| f.line)
        .collect();
    findings.retain(|f| {
        !(matches!(f.rule, "hash-iter" | "unordered-float-sum") && merge_lines.contains(&f.line))
    });
    findings.extend(structural);

    // Apply per-line suppressions and report malformed ones.
    let suppressions = parse_suppressions(&lexed);
    findings.retain(|f| {
        !suppressions
            .iter()
            .any(|s| s.target_line == f.line && s.rules.iter().any(|r| r == "*" || r == f.rule))
    });
    for s in &suppressions {
        if let Some(problem) = &s.problem {
            findings.push(Finding {
                rule: "missing-reason",
                path: path.to_string(),
                line: s.directive_line,
                message: problem.clone(),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Recursively collects `.rs` files, skipping build/VCS/result dirs.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        children.push(entry.path());
    }
    children.sort();
    for path in children {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every crate-root file under `root`: the targets Cargo auto-discovers
/// (`src/lib.rs`, `src/main.rs`, `src/bin/*.rs`, `benches/*.rs`,
/// `examples/*.rs`, `tests/*.rs`) plus every explicit `path = "….rs"`
/// in a `[package]` Cargo.toml. These files must carry
/// `#![forbid(unsafe_code)]`.
fn crate_roots(root: &Path) -> Result<BTreeSet<PathBuf>, String> {
    let mut manifests = Vec::new();
    collect_manifests(root, &mut manifests)?;
    let mut roots = BTreeSet::new();
    for manifest in manifests {
        let text =
            fs::read_to_string(&manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
        if !text.contains("[package]") {
            continue; // pure workspace manifest
        }
        let dir = manifest.parent().expect("manifest has a parent");
        for fixed in ["src/lib.rs", "src/main.rs"] {
            let p = dir.join(fixed);
            if p.is_file() {
                roots.insert(p);
            }
        }
        for glob_dir in ["src/bin", "benches", "examples", "tests"] {
            let d = dir.join(glob_dir);
            if let Ok(entries) = fs::read_dir(&d) {
                for entry in entries.flatten() {
                    let p = entry.path();
                    if p.extension().is_some_and(|e| e == "rs") {
                        roots.insert(p);
                    }
                }
            }
        }
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("path") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    let value = value.trim();
                    if let Some(p) = value.strip_prefix('"').and_then(|v| v.split('"').next()) {
                        if p.ends_with(".rs") {
                            let p = dir.join(p);
                            if p.is_file() {
                                roots.insert(p);
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(roots)
}

fn collect_manifests(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect_manifests(&path, out)?;
        } else if name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

/// Parses every `detlint::allow(...)` directive out of a file's comments.
fn parse_suppressions(lexed: &lexer::Lexed) -> Vec<Suppression> {
    const MARKER: &str = "detlint::allow(";
    let mut out = Vec::new();
    for comment in &lexed.comments {
        // Doc comments (`///`, `//!`, `/**`) are documentation — they may
        // *mention* the directive syntax without being directives.
        if matches!(
            comment.text.chars().next(),
            Some('/') | Some('!') | Some('*')
        ) {
            continue;
        }
        let Some(at) = comment.text.find(MARKER) else {
            continue;
        };
        let after = &comment.text[at + MARKER.len()..];
        let Some(close) = after.find(')') else {
            out.push(Suppression {
                target_line: comment.line,
                directive_line: comment.line,
                rules: Vec::new(),
                problem: Some("unclosed `detlint::allow(` directive".to_string()),
            });
            continue;
        };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let mut problem = None;
        if rules.is_empty() {
            problem = Some("`detlint::allow()` names no rule".to_string());
        } else if let Some(bad) = rules.iter().find(|r| *r != "*" && rule_info(r).is_none()) {
            problem = Some(format!("`detlint::allow` names unknown rule `{bad}`"));
        } else {
            // The reason is mandatory: `) — why this is sound`.
            let reason = after[close + 1..]
                .trim_start()
                .trim_start_matches(['—', '–', '-', ':'])
                .trim();
            if reason.is_empty() {
                problem = Some(
                    "suppression needs a reason: `// detlint::allow(<rule>) — <reason>`"
                        .to_string(),
                );
            }
        }
        // An own-line directive covers the next line with code on it; a
        // trailing directive covers its own line.
        let target_line = if comment.own_line {
            lexed
                .tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > comment.line)
                .unwrap_or(comment.line + 1)
        } else {
            comment.line
        };
        out.push(Suppression {
            target_line,
            directive_line: comment.line,
            rules,
            problem,
        });
    }
    out
}

/// Renders findings as text, one per line (`path:line: [rule] message`).
pub fn render_text(findings: &[Finding]) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_source(src: &str) -> Vec<Finding> {
        // Drive the per-file pipeline without touching the filesystem.
        analyze_file("src/x.rs", src, false)
    }

    #[test]
    fn trailing_suppression_with_reason_silences_the_line() {
        let src =
            "fn f() { let t = Instant::now(); } // detlint::allow(wall-clock) — CLI timing only\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn own_line_suppression_covers_the_next_code_line() {
        let src = "// detlint::allow(ambient-rng) — interactive demo, reproducibility waived\n\
                   fn f() { let r = thread_rng(); }\n";
        assert!(scan_source(src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported_and_counted_once() {
        let src = "fn f() { let t = Instant::now(); } // detlint::allow(wall-clock)\n";
        let findings = scan_source(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "missing-reason");
    }

    #[test]
    fn suppression_for_another_rule_does_not_silence() {
        let src = "fn f() { let t = Instant::now(); } // detlint::allow(hash-iter) — wrong rule\n";
        let findings = scan_source(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "wall-clock");
    }

    #[test]
    fn unknown_rule_name_in_directive_is_reported() {
        let src = "fn f() {} // detlint::allow(wall-clok) — typo\n";
        let findings = scan_source(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "missing-reason");
        assert!(findings[0].message.contains("wall-clok"));
    }

    #[test]
    fn structural_merge_finding_supersedes_token_findings_on_its_line() {
        let src = "struct ObsReport { w: HashMap<u64, f64>, t: f64 }\n\
                   impl ObsReport { fn merge(&mut self, o: &Self) {\n\
                   for v in o.w.values() { self.t += v; }\n} }\n";
        let findings = scan_source(src);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["unordered-float-merge"], "{findings:?}");
    }
}
