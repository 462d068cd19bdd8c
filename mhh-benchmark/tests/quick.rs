//! Drives the built binary end to end in `--quick` mode (durations ÷ 10)
//! and holds its output against `BENCHMARK.json`: every metric the manifest
//! names must appear, with its unit, for every workload.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mhh-benchmark");
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn benchmark(args: &[&str]) -> String {
    let out = Command::new(BIN).args(args).output().expect("spawn");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Every `"key": "value"` string field of the manifest section that starts
/// at `"<section>": [` — the manifest is generated, so its layout is fixed.
fn fields(section: &str, key: &str) -> Vec<String> {
    let start = MANIFEST
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find("\n  ]").expect("section end")];
    let marker = format!("\"{key}\": \"");
    body.match_indices(&marker)
        .map(|(at, _)| {
            let rest = &body[at + marker.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn metrics(section: &str) -> Vec<(String, String)> {
    let names = fields(section, "name");
    let units = fields(section, "unit");
    assert_eq!(names.len(), units.len());
    for name in &names {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {name:?} must match [A-Za-z0-9_.-]+"
        );
    }
    names.into_iter().zip(units).collect()
}

/// The part of a table output that belongs to `workload`.
fn block<'a>(out: &'a str, workload: &str) -> &'a str {
    let start = out
        .find(&format!("\n{workload}: "))
        .unwrap_or_else(|| panic!("no block for {workload} in:\n{out}"));
    let rest = &out[start + 1..];
    rest.find("\n\n").map_or(rest, |end| &rest[..end])
}

fn assert_reported(block: &str, name: &str, unit: &str) {
    let reported = block.lines().any(|line| {
        let mut words = line.split_whitespace();
        words.next() == Some(name) && words.any(|w| w == unit)
    });
    assert!(reported, "{name} [{unit}] missing from:\n{block}");
}

#[test]
fn quick_run_reports_every_end_to_end_metric_for_every_workload() {
    let out = benchmark(&["run", "--quick", "--rounds", "2", "--seed", "3"]);
    assert!(out.contains("host_workers"), "{out}");
    assert!(out.contains("seed 3, rounds 2"), "{out}");
    for workload in fields("workloads", "name") {
        let block = block(&out, &workload);
        for (name, unit) in metrics("end_to_end") {
            assert_reported(block, &name, &unit);
        }
        for size in ["deliveries", "handoffs", "publishes", "digest"] {
            assert!(block.contains(size), "{size} missing from:\n{block}");
        }
    }
}

#[test]
fn quick_trace_reports_every_per_layer_metric_and_writes_span_files() {
    let out = benchmark(&["trace", "--quick"]);
    for workload in fields("workloads", "name") {
        let block = block(&out, &workload);
        for (name, unit) in metrics("per_layer") {
            assert_reported(block, &name, &unit);
        }
        let path = block
            .lines()
            .next()
            .and_then(|l| l.split("spans in ").nth(1))
            .expect("span file path");
        let spans = std::fs::read_to_string(path).expect("span file");
        for needle in ["\"trace.staged\"", "\"simnet.engine.run\"", "\"self_ns\""] {
            assert!(spans.contains(needle), "{needle} missing from {path}");
        }
    }
}

#[test]
fn a_measured_run_ends_in_one_json_line_with_every_metric() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = benchmark(&[
            "--workload",
            "fanin-audit",
            "--seed",
            "4",
            "--seconds",
            "0.1",
            "--trace",
            trace,
            "--quick",
        ]);
        let last = out.lines().last().expect("output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": ") && last.ends_with("}}"),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        let expected = metrics(section);
        for (name, unit) in &expected {
            let field = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&field)
                .unwrap_or_else(|| panic!("{name} missing from {last}"));
            let rest = &last[at + field.len()..];
            let rest = &rest[..rest.find('}').expect("metric end")];
            assert!(rest.ends_with(&format!(", \"unit\": \"{unit}\"")), "{rest}");
        }
        assert_eq!(last.matches("\"value\": ").count(), expected.len());
    }
}

#[test]
fn a_refused_command_line_reports_nothing() {
    let out = Command::new(BIN)
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
