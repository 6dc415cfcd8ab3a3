//! The one argument cursor behind every `livescope` subcommand.

/// A rejected command line: `main` prints the subcommand's usage line
/// on stderr and exits 2.
#[derive(Debug)]
pub struct UsageError;

/// The arguments after the subcommand name. A command takes what it
/// knows — [`flag`](Args::flag)s and [`value`](Args::value)s from
/// anywhere on the line, then [`positional`](Args::positional)s in
/// order — and calls [`finish`](Args::finish) before it starts any work:
/// whatever is still there is an unknown `--flag` or a stray positional.
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    pub fn new(rest: impl IntoIterator<Item = String>) -> Self {
        let rest = rest.into_iter().collect();
        Args { rest }
    }

    /// Removes `name` from the line; where it stood, if it was there.
    fn take(&mut self, name: &str) -> Option<usize> {
        let at = self.rest.iter().position(|arg| arg == name)?;
        self.rest.remove(at);
        Some(at)
    }

    /// Consumes `--name` if present.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// Consumes `--name VALUE` if present. A `--name` with nothing (or
    /// another `--flag`) after it goes back on the line, unconsumed, for
    /// [`finish`](Args::finish) to reject.
    pub fn value(&mut self, name: &str) -> Option<String> {
        let at = self.take(name)?;
        if self.rest.get(at).is_some_and(|v| !v.starts_with("--")) {
            return Some(self.rest.remove(at));
        }
        self.rest.push(name.to_string());
        None
    }

    /// Consumes the next argument unless it is a `--flag`.
    pub fn positional(&mut self) -> Option<String> {
        let bare = self.rest.first().is_some_and(|a| !a.starts_with("--"));
        bare.then(|| self.rest.remove(0))
    }

    /// Rejects the line if anything on it was not consumed.
    pub fn finish(self) -> Result<(), UsageError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(UsageError)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Args {
        Args::new(line.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_and_values_are_taken_from_anywhere_and_positionals_in_order() {
        let mut a = args(&["--json", "out.json", "--workload", "celebrity", "--verbose"]);
        assert!(a.flag("--verbose") && a.flag("--json") && !a.flag("--capture"));
        assert_eq!(a.value("--workload").as_deref(), Some("celebrity"));
        assert_eq!(a.positional().as_deref(), Some("out.json"));
        assert_eq!(a.positional(), None);
        assert!(a.finish().is_ok());
    }

    /// Each line fails `finish` for a command that knows `--json`,
    /// `--workload VALUE` and one positional — and never by mistaking a
    /// `--flag` for the positional.
    #[test]
    fn leftovers_and_missing_values_are_usage_errors() {
        for line in [
            &["--help"][..],           // unknown flag
            &["out.json", "--bogus"],  // unknown flag after the positional
            &["--workload"],           // missing value
            &["--workload", "--json"], // missing value, flag next
            &["out.json", "label"],    // stray positional
            &["--json", "--json"],     // flag given twice
        ] {
            let mut a = args(line);
            a.flag("--json");
            a.value("--workload");
            let positional = a.positional();
            assert!(!positional.is_some_and(|p| p.starts_with("--")), "{line:?}");
            assert!(a.finish().is_err(), "{line:?}");
        }
    }
}
