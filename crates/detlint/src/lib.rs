//! # livescope-detlint — the determinism rule the compiler cannot check
//!
//! The telemetry layer (DESIGN.md §8) promises byte-reproducible JSONL
//! traces per `(config, seed)`. The compiler enforces almost all of that
//! promise: the workspace lint table (`[workspace.lints]` in the root
//! `Cargo.toml` plus `clippy.toml`) bans hash containers, clock reads,
//! ambient RNG, shared mutable state, `unsafe`, `todo!` and
//! `unimplemented!` by type (design notes: `crates/detlint/DESIGN.md`).
//! This crate checks the one rule that needs to know *where* code sits:
//!
//! * [`lexer`] — a small Rust lexer (nested block comments, raw/byte
//!   strings, char literals vs lifetimes) so the rule matches real
//!   tokens, never text inside a string or comment;
//! * [`scope`] + [`structural`] — a brace-matched scope tree (items,
//!   impls, fns, closures — no full grammar) feeding `direct-trace-emit`:
//!   no `.emit(…)` on a captured sink inside a scheduler handler;
//! * per-line suppression: `// detlint::allow(<rule>) — <reason>`, where
//!   the reason is mandatory (`missing-reason`, listed in [`rules`]).
//!
//! Every run analyzes every file: there is no cache, no configuration
//! file and one output format (`path:line: [rule] message`). The
//! `detlint` binary drives [`scan`] and exits nonzero on findings;
//! `detlint --explain <rule>` documents each rule.

pub mod lexer;
pub mod rules;
pub mod scope;
pub mod structural;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{rule_info, Finding, RULES};

/// Directories never scanned, wherever they appear.
const SKIP_DIRS: &[&str] = &["target", ".git", "results"];

/// Directories, relative to the scan root, that a walk skips: the
/// vendored crates and the separate `benchmark/` workspace sit outside
/// the workspace lint table, and the fixture corpus exists to contain
/// findings. Naming one of them as an explicit path still lints it.
const SKIP_PATHS: &[&str] = &["vendor", "benchmark", "crates/detlint/fixtures"];

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
/// With `paths = None` the whole tree under `root` is walked. Explicit
/// `paths` (files or directories, as given on the CLI) are walked as
/// given — that is how the fixture corpus is linted deliberately.
pub fn scan(root: &Path, paths: Option<&[PathBuf]>) -> Result<ScanOutcome, String> {
    let mut files = Vec::new();
    match paths {
        None => collect_rs(root, root, &mut files)?,
        Some(list) => {
            for p in list {
                let p = if p.is_absolute() {
                    p.clone()
                } else {
                    root.join(p)
                };
                if p.is_dir() {
                    collect_rs(root, &p, &mut files)?;
                } else {
                    files.push(p);
                }
            }
        }
    }
    files.sort();
    files.dedup();

    let mut outcome = ScanOutcome::default();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        outcome.files_scanned += 1;
        outcome.findings.extend(analyze_file(&rel, &text));
    }
    outcome
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(outcome)
}

/// Runs the full per-file pipeline: lex → scope tree → `direct-trace-emit`
/// → suppression directives. Returns the file's findings.
pub fn analyze_file(path: &str, text: &str) -> Vec<Finding> {
    let lexed = lexer::lex(text);
    let tree = scope::ScopeTree::build(&lexed.tokens);
    let mut findings = structural::check_file(&structural::StructuralContext {
        path,
        tokens: &lexed.tokens,
        tree: &tree,
    });

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

/// Recursively collects `.rs` files under `dir`, skipping build/VCS/result
/// dirs anywhere and [`SKIP_PATHS`] relative to `root`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
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
            let skipped = SKIP_DIRS.contains(&name.as_str())
                || name.starts_with('.')
                || SKIP_PATHS.iter().any(|s| path == root.join(s));
            if !skipped {
                collect_rs(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
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

    /// One scheduler handler whose body is `body` (lines 2.. of the file).
    fn handler(body: &str) -> String {
        format!("fn f() {{ s.schedule(Box::new(move |ctx, pop: &mut Pop| {{\n{body}\n}})); }}\n")
    }

    fn scan_source(src: &str) -> Vec<Finding> {
        // Drive the per-file pipeline without touching the filesystem.
        analyze_file("src/x.rs", src)
    }

    #[test]
    fn trailing_suppression_with_reason_silences_the_line() {
        let src = handler(
            "pop.telemetry.emit(ev); // detlint::allow(direct-trace-emit) — lane-local sink",
        );
        assert!(scan_source(&src).is_empty());
    }

    #[test]
    fn own_line_suppression_covers_the_next_code_line() {
        let src = handler(
            "// detlint::allow(direct-trace-emit) — lane-local sink\npop.telemetry.emit(ev);",
        );
        assert!(scan_source(&src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported_and_counted_once() {
        let src = handler("pop.telemetry.emit(ev); // detlint::allow(direct-trace-emit)");
        let findings = scan_source(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "missing-reason");
    }

    #[test]
    fn suppression_for_another_rule_does_not_silence() {
        let src = handler("pop.telemetry.emit(ev); // detlint::allow(missing-reason) — wrong rule");
        let findings = scan_source(&src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "direct-trace-emit");
    }

    #[test]
    fn unknown_rule_name_in_directive_is_reported() {
        // `wall-clock` was a detlint rule; clippy's `disallowed_methods`
        // enforces it now, so detlint no longer knows the name.
        for name in ["direct-trace-emt", "wall-clock"] {
            let src = format!("fn f() {{}} // detlint::allow({name}) — typo or retired\n");
            let findings = scan_source(&src);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].rule, "missing-reason");
            assert!(findings[0].message.contains(name));
        }
    }
}
