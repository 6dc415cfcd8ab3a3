//! `detlint.toml` — path-scoped allowlist configuration.
//!
//! A deliberately tiny TOML subset (this crate is dependency-free): one
//! `[allow]` table whose keys are quoted path prefixes and whose values
//! are a rule name, `"*"`, or an array of rule names:
//!
//! ```toml
//! [allow]
//! "vendor/" = "*"
//! "crates/bench/src/cmd/fig14.rs" = ["wall-clock"]
//! ```
//!
//! A finding is dropped when its path starts with an allowed prefix and
//! its rule is listed (or the entry is `"*"`). Paths given explicitly on
//! the detlint command line bypass the allowlist — that is how the
//! fixture corpus is linted on purpose.
//!
//! Entries keep their source line so the allowlist audit
//! (`stale-allowlist`) can point a finding at the exact line of a dead
//! entry.

/// One `[allow]` entry, in file order.
#[derive(Clone, Debug, PartialEq)]
pub struct AllowEntry {
    /// Path prefix the entry covers.
    pub prefix: String,
    /// Rules allowed there (`"*"` means all).
    pub rules: Vec<String>,
    /// 1-based line in detlint.toml, for audit findings.
    pub line: u32,
}

/// Parsed configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// The `[allow]` entries, in file order (later duplicate prefixes
    /// replace earlier ones, matching the old map semantics).
    pub allow: Vec<AllowEntry>,
}

impl Config {
    /// Parses `detlint.toml` text. Unknown sections are ignored (forward
    /// compatibility); malformed lines are errors.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut config = Config::default();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            if section != "allow" {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("detlint.toml:{}: expected `key = value`", lineno + 1))?;
            let key = parse_string(key.trim())
                .ok_or_else(|| format!("detlint.toml:{}: key must be a quoted path", lineno + 1))?;
            let rules = parse_rules(value.trim())
                .ok_or_else(|| format!("detlint.toml:{}: bad rule list", lineno + 1))?;
            config.allow.retain(|e| e.prefix != key);
            config.allow.push(AllowEntry {
                prefix: key,
                rules,
                line: (lineno + 1) as u32,
            });
        }
        Ok(config)
    }

    /// Is `rule` allowlisted for `path`?
    pub fn allows(&self, path: &str, rule: &str) -> bool {
        let normalized = path.replace('\\', "/");
        self.allow.iter().any(|e| {
            normalized.starts_with(e.prefix.as_str())
                && e.rules.iter().any(|r| r == "*" || r == rule)
        })
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_string(s: &str) -> Option<String> {
    s.strip_prefix('"')?.strip_suffix('"').map(str::to_string)
}

fn parse_rules(s: &str) -> Option<Vec<String>> {
    if let Some(one) = parse_string(s) {
        return Some(vec![one]);
    }
    let body = s.strip_prefix('[')?.strip_suffix(']')?;
    let mut rules = Vec::new();
    for item in body.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        rules.push(parse_string(item)?);
    }
    Some(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_star_and_lists() {
        let config = Config::parse(
            "# comment\n[allow]\n\"vendor/\" = \"*\"  # vendored\n\
             \"crates/bench/\" = [\"wall-clock\", \"ambient-rng\",]\n",
        )
        .unwrap();
        assert!(config.allows("vendor/rand/src/lib.rs", "hash-iter"));
        assert!(config.allows("crates/bench/benches/x.rs", "wall-clock"));
        assert!(!config.allows("crates/bench/benches/x.rs", "hash-iter"));
        assert!(!config.allows("crates/cdn/src/wowza.rs", "wall-clock"));
    }

    #[test]
    fn ignores_unknown_sections() {
        let config = Config::parse("[future]\nx = 1\n[allow]\n\"v/\" = \"*\"\n").unwrap();
        assert_eq!(config.allow.len(), 1);
    }

    #[test]
    fn rejects_unquoted_keys() {
        assert!(Config::parse("[allow]\nvendor = \"*\"\n").is_err());
    }

    #[test]
    fn entries_keep_their_source_line_and_dedup_by_prefix() {
        let config = Config::parse(
            "[allow]\n\n\"vendor/\" = \"*\"\n\"v2/\" = [\"hash-iter\"]\n\"vendor/\" = [\"unsafe-code\"]\n",
        )
        .unwrap();
        assert_eq!(config.allow.len(), 2);
        let vendor = config.allow.iter().find(|e| e.prefix == "vendor/").unwrap();
        assert_eq!(vendor.line, 5, "later entry replaces the earlier one");
        assert_eq!(vendor.rules, vec!["unsafe-code".to_string()]);
        assert!(!config.allows("vendor/x.rs", "hash-iter"));
        let v2 = config.allow.iter().find(|e| e.prefix == "v2/").unwrap();
        assert_eq!(v2.line, 4);
    }
}
