#![forbid(unsafe_code)]
//! `detlint` — the determinism & safety lint CLI.
//!
//! ```text
//! detlint [--root <dir>] [paths…]
//! detlint --explain <rule>
//! detlint --list-rules
//! detlint --list-scopes <file>
//! ```
//!
//! Exit status: 0 clean, 1 findings, 2 usage/IO error. Without explicit
//! paths the whole workspace under `--root` (default: the nearest
//! ancestor containing `detlint.toml`, else the current directory) is
//! scanned and the `detlint.toml` allowlist applies (and is audited for
//! stale entries); explicit paths bypass the allowlist so e.g. the
//! fixture corpus can be linted. Every run analyzes every file and
//! writes nothing but its report: findings on stdout, one
//! `path:line: [rule] message` per line, and a summary on stderr.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use livescope_detlint::{lexer, render_text, rule_info, scan, scope::ScopeTree, Config, RULES};

struct Args {
    root: Option<PathBuf>,
    explain: Option<String>,
    list_rules: bool,
    list_scopes: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: detlint [--root <dir>] [paths…]\n       detlint --explain <rule>\n       detlint --list-rules\n       detlint --list-scopes <file>"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        explain: None,
        list_rules: false,
        list_scopes: None,
        paths: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--root" => {
                let dir = iter.next().ok_or("--root needs a directory")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--explain" => {
                args.explain = Some(iter.next().ok_or("--explain needs a rule name")?);
            }
            "--list-rules" => args.list_rules = true,
            "--list-scopes" => {
                let file = iter.next().ok_or("--list-scopes needs a file path")?;
                args.list_scopes = Some(PathBuf::from(file));
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            path => args.paths.push(PathBuf::from(path)),
        }
    }
    Ok(args)
}

/// Walks up from the current directory to the first `detlint.toml`.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("detlint.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("detlint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Config::parse(&text)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("detlint: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in RULES {
            println!("{:<22} {}", rule.name, rule.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &args.explain {
        match rule_info(name) {
            Some(rule) => {
                println!("{} — {}\n\n{}", rule.name, rule.summary, rule.explain);
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("detlint: unknown rule `{name}` (try --list-rules)");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(file) = &args.list_scopes {
        // Debug aid: print the scope tree the structural pass sees.
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("detlint: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let lexed = lexer::lex(&text);
        print!("{}", ScopeTree::build(&lexed.tokens).render());
        return ExitCode::SUCCESS;
    }

    let root = args.root.clone().unwrap_or_else(find_root);
    let config = match load_config(&root) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("detlint: {msg}");
            return ExitCode::from(2);
        }
    };
    let paths = if args.paths.is_empty() {
        None
    } else {
        Some(args.paths.as_slice())
    };
    let outcome = match scan(&root, &config, paths) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("detlint: {msg}");
            return ExitCode::from(2);
        }
    };

    print!("{}", render_text(&outcome.findings));
    if outcome.findings.is_empty() {
        eprintln!(
            "detlint: {} files scanned, no findings",
            outcome.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "detlint: {} finding(s) in {} files scanned",
            outcome.findings.len(),
            outcome.files_scanned
        );
        ExitCode::FAILURE
    }
}
