//! The examples are the command-line surface, and the CI smokes rely on
//! their `--budget-ms` to bound a job: a flag value that does not parse must
//! stop the run with a usage error, never be dropped silently.

use std::process::Command;

/// Run one example with `args` through cargo (which builds it if needed) and
/// return its exit code and stderr.
fn run_example(example: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "--quiet", "--example", example, "--manifest-path"])
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    if !cfg!(debug_assertions) {
        cmd.arg("--release");
    }
    let output = cmd.arg("--").args(args).output().expect("spawn cargo");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn malformed_or_missing_flag_values_are_usage_errors() {
    // (example, its first argument, the flag, the value after it if any)
    for (example, first, flag, value) in [
        ("reproduce_figures", "fig5", "--budget-ms", Some("nope")),
        ("reproduce_figures", "fig5", "--workers", Some("x4")),
        ("reproduce_figures", "fig5", "--dump-ledger", None),
        ("mobility_matrix", "--json", "--budget-ms", Some("30s")),
        (
            "mobility_matrix",
            "--json",
            "--workers",
            Some("--paper-scale"),
        ),
        ("quickstart", "trace-smoke", "--engine-workers", Some("two")),
    ] {
        let args: Vec<&str> = [first, flag].into_iter().chain(value).collect();
        let (code, stderr) = run_example(example, &args);
        assert_eq!(code, Some(2), "{example} {args:?} must exit 2:\n{stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{example} {args:?} must name {flag} and print the usage:\n{stderr}"
        );
    }
}
