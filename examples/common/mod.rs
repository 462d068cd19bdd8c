//! Command-line parsing shared by the examples.

use std::str::FromStr;

/// The parsed value after `flag`, or `None` when the flag is absent. A flag
/// that is present must be followed by a value that parses: a missing or
/// malformed one prints `usage` on stderr and exits with status 2 — a
/// silently dropped `--budget-ms 30s` would run unbudgeted, a dropped
/// `--workers x4` on every core.
pub fn flag_value<T: FromStr>(args: &[String], flag: &str, usage: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    let value = args.get(at + 1).filter(|v| !v.starts_with("--"));
    let parsed = value.and_then(|v| v.parse().ok());
    if parsed.is_none() {
        match value {
            Some(v) => eprintln!("error: {flag}: invalid value {v:?}"),
            None => eprintln!("error: {flag} needs a value"),
        }
        eprintln!("usage: {usage}");
        std::process::exit(2);
    }
    parsed
}
