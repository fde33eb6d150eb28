//! Minimal `--key value` / `--key=value` argument parsing (no external
//! dependency; the option surface is small and fixed).

use std::collections::HashMap;

/// Parsed command line: a subcommand followed by `--key value` pairs.
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    opts: HashMap<String, String>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// # Errors
    /// Returns a message for a missing subcommand, a dangling `--key`, or
    /// a positional argument after the subcommand.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = argv.next().ok_or("missing subcommand")?;
        if command.starts_with("--") {
            return Err(format!(
                "expected a subcommand before options, got {command}"
            ));
        }
        let mut opts = HashMap::new();
        while let Some(key) = argv.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {key}"));
            };
            // Both `--key value` and `--key=value` spellings are accepted.
            let (name, value) = match name.split_once('=') {
                Some((n, v)) => (n, v.to_string()),
                None => {
                    let v = argv
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    (name, v)
                }
            };
            opts.insert(name.to_string(), value);
        }
        Ok(Args { command, opts })
    }

    /// Look up a string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.opts.get(name).map(|s| s.as_str())
    }

    /// Parse an option with a default.
    ///
    /// # Errors
    /// Returns a message when the value does not parse as `T`.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opts.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }

    /// The option names that were provided (for unknown-flag checks).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.opts.keys().map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse(&["run", "--n", "1000", "--kernel", "stokes"]).expect("parses");
        assert_eq!(a.command, "run");
        assert_eq!(a.get("kernel"), Some("stokes"));
        assert_eq!(a.get_or("n", 0usize).expect("number"), 1000);
        assert_eq!(a.get_or("q", 64usize).expect("default"), 64);
    }

    #[test]
    fn parses_equals_spelling() {
        let a = parse(&["run", "--n=1000", "--m2l=dense", "--kernel", "stokes"]).expect("parses");
        assert_eq!(a.get_or("n", 0usize).expect("number"), 1000);
        assert_eq!(a.get("m2l"), Some("dense"));
        assert_eq!(a.get("kernel"), Some("stokes"));
    }

    #[test]
    fn equals_value_may_contain_equals() {
        let a = parse(&["run", "--expr=a=b"]).expect("parses");
        assert_eq!(a.get("expr"), Some("a=b"));
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(parse(&["run", "--n"]).is_err());
    }

    #[test]
    fn rejects_missing_command() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--n", "5"]).is_err());
    }

    #[test]
    fn rejects_unparsable_value() {
        let a = parse(&["run", "--n", "abc"]).expect("parses structurally");
        assert!(a.get_or("n", 0usize).is_err());
    }

    #[test]
    fn rejects_stray_positional() {
        assert!(parse(&["run", "extra"]).is_err());
    }
}
