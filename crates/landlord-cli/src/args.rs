//! Minimal flag parsing: `--key value` pairs plus positionals.
//!
//! Hand-rolled (the workspace's dependency budget has no CLI crate);
//! supports exactly what the `landlord` subcommands need.

use std::collections::BTreeMap;

/// Parsed arguments: positionals in order, flags as key → the values
/// given for it, in order (more than one when the flag was repeated).
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
}

/// Errors from argument parsing and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A `--flag` appeared with no following value.
    MissingValue(String),
    /// A required flag was absent.
    Required(String),
    /// A value failed to parse.
    Invalid {
        flag: String,
        value: String,
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ArgError::Required(k) => write!(f, "missing required flag --{k}"),
            ArgError::Invalid {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value:?}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw argument list (not including argv\[0\]/subcommand).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.to_string()))?;
                out.flags.entry(key.to_string()).or_default().push(value);
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The flags given, by name.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// The flags given more than once, by name.
    pub fn repeated(&self) -> impl Iterator<Item = &str> {
        self.flags
            .iter()
            .filter(|(_, values)| values.len() > 1)
            .map(|(key, _)| key.as_str())
    }

    /// Raw string flag (its last value, if repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.get_all(key).last().map(String::as_str)
    }

    /// Every value of a flag, in the order given; empty when absent.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.flags.get(key).map_or(&[], Vec::as_slice)
    }

    /// String flag with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError::Required(key.to_string()))
    }

    /// Typed flag with default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::Invalid {
                flag: key.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse(&["fig4a", "--seed", "7", "--scale", "smoke"]);
        assert_eq!(a.positional(), &["fig4a".to_string()]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get_or("scale", "full"), "smoke");
        assert_eq!(a.get_or("threads", "4"), "4");
    }

    #[test]
    fn typed_parsing() {
        let a = parse(&["--alpha", "0.8"]);
        assert_eq!(a.get_parsed("alpha", 0.5f64, "a float").unwrap(), 0.8);
        assert_eq!(a.get_parsed("missing", 3u64, "an int").unwrap(), 3);
        let err = a.get_parsed::<u64>("alpha", 0, "an integer").unwrap_err();
        assert!(matches!(err, ArgError::Invalid { .. }));
        assert!(err.to_string().contains("expected an integer"));
    }

    #[test]
    fn repeated_flags_keep_every_value_in_order() {
        let a = parse(&["--python", "a.py", "--seed", "1", "--python", "b.py"]);
        assert_eq!(a.get_all("python"), ["a.py", "b.py"]);
        assert_eq!(a.get_all("seed"), ["1"]);
        assert!(a.get_all("joblog").is_empty());
        assert_eq!(a.repeated().collect::<Vec<_>>(), ["python"]);
    }

    #[test]
    fn missing_value_and_required() {
        let err = Args::parse(["--dangling".to_string()]).unwrap_err();
        assert_eq!(err, ArgError::MissingValue("dangling".into()));
        let a = parse(&[]);
        assert!(matches!(a.require("out"), Err(ArgError::Required(_))));
    }
}
