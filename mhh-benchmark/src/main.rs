//! `mhh-benchmark` — the repository's benchmark (see `README.md` beside
//! `Cargo.toml` and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! mhh-benchmark --workload W --seed N --seconds S --trace 0|1   one measured run, JSON on the last line
//! mhh-benchmark run       [--seed N] [--rounds R] [--quick] [--workload W]
//! mhh-benchmark trace     [--seed N] [--quick] [--workload W]
//! mhh-benchmark selfcheck [--seed N] [--rounds R] [--quick] [--workload W]
//! mhh-benchmark manifest                                        print BENCHMARK.json
//! ```

mod body;
mod metrics;
mod reference;
mod rounds;
mod spans;
mod staged;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  mhh-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
  mhh-benchmark run       [--seed <u64>] [--rounds <n>] [--quick] [--workload <name>]
  mhh-benchmark trace     [--seed <u64>] [--quick] [--workload <name>]
  mhh-benchmark selfcheck [--seed <u64>] [--rounds <n>] [--quick] [--workload <name>]
  mhh-benchmark manifest";

/// Checked command-line options.
#[derive(Debug)]
struct Options {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    rounds: usize,
    round: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: String::new(),
        workload: None,
        seed: 0,
        rounds: 5,
        round: 0,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .map(String::as_str)
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                opts.workload = Some(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload {name:?}; one of {names:?}"))?,
                );
            }
            "--seed" => {
                opts.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--rounds" => {
                opts.rounds = value("a count")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?;
            }
            "--round" => {
                opts.round = value("an index")?
                    .parse()
                    .map_err(|e| format!("--round: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3_600.0) {
                    return Err(format!("--seconds {} is out of range", opts.seconds));
                }
            }
            "--trace" => {
                opts.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
                };
            }
            "--quick" => opts.quick = true,
            command if !command.starts_with('-') && opts.command.is_empty() => {
                opts.command = command.to_string();
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    // Timed sets never go below three rounds — except the smoke test's.
    let least = if opts.quick { 1 } else { rounds::MIN_ROUNDS };
    if opts.rounds < least {
        return Err(format!("--rounds must be at least {least}"));
    }
    Ok(opts)
}

impl Options {
    fn selected(&self) -> Vec<&'static Workload> {
        match self.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        }
    }
}

/// The last line of a contract-mode run.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// One measured run of one workload, as the acceptance harness drives it.
fn contract(opts: &Options) -> Result<bool, String> {
    let workload = opts.workload.ok_or("--workload is required")?;
    if opts.trace {
        let report = trace::trace(workload, opts.seed, opts.quick);
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .zip(&report.metrics)
            .map(|(m, (_, value))| (m.name, *value, m.unit))
            .collect();
        eprintln!("spans: {}", report.span_file.display());
        println!("{}", result_line(report.attempted, report.failed, &metrics));
        return Ok(report.failed == 0);
    }
    let rounds = rounds::for_seconds(workload, opts.seed, opts.seconds, opts.quick);
    println!(
        "{}",
        rounds::header("measured run", opts.seed, rounds.samples.len(), opts.quick)
    );
    rounds::print_set(std::slice::from_ref(&rounds));
    let mut metrics = Vec::new();
    for m in END_TO_END {
        let q = rounds
            .summary(m)
            .ok_or("no round completed, nothing to report")?;
        metrics.push((m.name, q.median, m.unit));
    }
    println!(
        "{}",
        result_line(rounds.attempted(), rounds.failed(), &metrics)
    );
    Ok(rounds.failed() == 0)
}

fn run(opts: &Options) -> bool {
    println!(
        "{}",
        rounds::header("run", opts.seed, opts.rounds, opts.quick)
    );
    let set = rounds::interleaved(&opts.selected(), opts.seed, opts.rounds, opts.quick);
    rounds::print_set(&set)
}

fn selfcheck(opts: &Options) -> bool {
    println!(
        "{}",
        rounds::header("selfcheck", opts.seed, opts.rounds, opts.quick)
    );
    let workloads = opts.selected();
    let first = rounds::interleaved(&workloads, opts.seed, opts.rounds, opts.quick);
    let second = rounds::interleaved(&workloads, opts.seed, opts.rounds, opts.quick);
    // `&` not `&&`: print all three tables even when the first has a failure.
    rounds::print_set(&first)
        & rounds::print_set(&second)
        & rounds::print_comparison(&first, &second)
}

fn trace_all(opts: &Options) -> bool {
    println!("{}", rounds::header("trace", opts.seed, 1, opts.quick));
    let mut ok = true;
    for workload in opts.selected() {
        let report = trace::trace(workload, opts.seed, opts.quick);
        println!(
            "\n{}: points {}/{} ok, spans in {}",
            workload.name,
            report.attempted - report.failed,
            report.attempted,
            report.span_file.display()
        );
        for (m, (_, value)) in PER_LAYER.iter().zip(&report.metrics) {
            println!("  {:<40} {:>16.6} {}", m.name, value, m.unit);
        }
        ok &= report.failed == 0;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("mhh-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match opts.command.as_str() {
        "" => match contract(&opts) {
            Ok(ok) => ok,
            Err(why) => {
                eprintln!("mhh-benchmark: {why}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        "run" => run(&opts),
        "trace" => trace_all(&opts),
        "selfcheck" => selfcheck(&opts),
        "manifest" => {
            print!("{}", metrics::manifest());
            true
        }
        // Internal: round `--round` of one workload, spawned by the commands
        // above.
        "round" => match opts.workload {
            Some(workload) => {
                let sample = body::run_round(workload, opts.seed, opts.round, opts.quick);
                println!("{}", sample.to_line());
                true
            }
            None => false,
        },
        other => {
            eprintln!("mhh-benchmark: unknown command {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_harness_command_line_parses() {
        let o = parse(&args(
            "--workload paper-churn --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.command, "");
        assert_eq!(o.workload.unwrap().name, "paper-churn");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 20.0, true, false)
        );
        let o = parse(&args("run --rounds 1 --quick")).unwrap();
        assert_eq!((o.command.as_str(), o.rounds, o.quick), ("run", 1, true));
        assert_eq!(o.selected().len(), WORKLOADS.len());
    }

    #[test]
    fn bad_command_lines_are_typed_errors_not_panics() {
        for line in [
            "--workload no-such",
            "--seed minus-one",
            "--seed",
            "--trace 2",
            "--seconds 0",
            "--seconds nan",
            "run --rounds 2",
            "run --rounds 0 --quick",
            "run extra",
            "--frobnicate",
        ] {
            assert!(parse(&args(line)).is_err(), "{line:?} should be refused");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let line = result_line(
            3,
            1,
            &[("run_wall_s", 2.5, "s"), ("deliveries_per_s", 1e6, "1/s")],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"run_wall_s\": {\"value\": 2.5, \"unit\": \"s\"}, \
             \"deliveries_per_s\": {\"value\": 1000000, \"unit\": \"1/s\"}}}"
        );
    }
}
