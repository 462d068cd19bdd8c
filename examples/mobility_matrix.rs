//! Run the mobility-model × protocol matrix the paper never had: every
//! mobility model (at one or more parameter points) against every protocol
//! in the registry, on one shared base scenario, sweeping in parallel.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example mobility_matrix                 # reduced scale
//! cargo run --release --example mobility_matrix -- --paper-scale
//! cargo run --release --example mobility_matrix -- --json       # also dump JSON
//! cargo run --release --example mobility_matrix -- --workers 4
//! cargo run --release --example mobility_matrix -- --trace moves.csv
//! cargo run --release --example mobility_matrix -- --budget-ms 30000
//! ```
//!
//! `--trace FILE` replaces the built-in demo trace with a real move list:
//! one `(time, client, from, to)` record per line (CSV or whitespace
//! separated, `#` comments and a header line allowed). Parse errors report
//! the offending line number.
//!
//! `--budget-ms N` bounds the matrix's wall-clock: cells that cannot start
//! before the budget elapses are skipped and *recorded* in the output (and
//! in the JSON's `skipped` array) instead of silently truncating.
//!
//! The protocol axis is fully data-driven: the matrix iterates the protocol
//! registry, so protocols registered via `mhh_mobsim::protocols::register`
//! before this runs appear as extra columns.

use std::sync::Arc;

use mhh_suite::mobility::sweep::available_workers;
use mhh_suite::mobility::{parse_trace, ModelKind, TraceRecord};
use mhh_suite::mobsim::report::{panel_json, render_matrix, Projection};
use mhh_suite::mobsim::{Sim, SimBuilder};

mod common;
use common::flag_value;

const USAGE: &str = "mobility_matrix [--paper-scale] [--json] [--workers <N>] \
                     [--trace <file>] [--budget-ms <N>]";

fn reduced(b: SimBuilder) -> SimBuilder {
    b.grid_side(6).clients_per_broker(4).configure(|c| {
        c.mobile_fraction = 0.25;
        c.conn_mean_s = 60.0;
        c.disc_mean_s = 30.0;
        c.publish_interval_s = 20.0;
        c.duration_s = 600.0;
    })
}

/// A playback trace that chains from the workload's home assignment
/// (client i starts at broker i % broker_count), so the matrix can include
/// the regression model alongside the synthetic ones. Departure times are
/// derived from the scenario's disconnection gap (playback reconnects
/// `disc_mean_s` after departing), so the records chain at any scale
/// instead of degenerating when the gap is long (paper scale: 300 s).
fn demo_trace(disc_mean_s: f64) -> Vec<TraceRecord> {
    let hop = |n: f64| 60.0 + n * (disc_mean_s + 60.0);
    vec![
        TraceRecord {
            at_s: hop(0.0),
            client: 0,
            from: 0,
            to: 7,
        },
        TraceRecord {
            at_s: hop(1.0),
            client: 0,
            from: 7,
            to: 14,
        },
        TraceRecord {
            at_s: hop(2.0),
            client: 0,
            from: 14,
            to: 0,
        },
        TraceRecord {
            at_s: hop(0.5),
            client: 5,
            from: 5,
            to: 12,
        },
        TraceRecord {
            at_s: hop(1.5),
            client: 5,
            from: 12,
            to: 5,
        },
        TraceRecord {
            at_s: hop(0.25),
            client: 9,
            from: 9,
            to: 10,
        },
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let dump_json = args.iter().any(|a| a == "--json");
    let workers = flag_value(&args, "--workers", USAGE).unwrap_or_else(available_workers);
    let trace_path: Option<String> = flag_value(&args, "--trace", USAGE);
    let budget_ms: Option<u64> = flag_value(&args, "--budget-ms", USAGE);

    let builder = {
        let mut b = Sim::scenario("paper-fig5").workers(workers);
        if let Some(ms) = budget_ms {
            b = b.budget_ms(ms);
        }
        if paper_scale {
            b
        } else {
            reduced(b)
        }
    };
    let config = builder
        .clone()
        .build_config()
        .expect("paper-fig5 is registered");

    let playback = match &trace_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read trace file {path}: {e}");
                std::process::exit(2);
            });
            match parse_trace(&text) {
                Ok(records) => {
                    eprintln!("loaded {} trace records from {path}", records.len());
                    records
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(2);
                }
            }
        }
        None => demo_trace(config.disc_mean_s),
    };

    let mut models = ModelKind::synthetic();
    models.push(ModelKind::TracePlayback(Arc::new(playback)));

    eprintln!(
        "running {} model parameter points x the protocol registry on {} brokers ({workers} workers)...",
        models.len(),
        config.broker_count(),
    );
    let matrix = builder.matrix(&models).expect("paper-fig5 is registered");
    print!("{}", render_matrix(&matrix));
    if !matrix.skipped.is_empty() {
        eprintln!(
            "budget exhausted: {} cell(s) skipped: {}",
            matrix.skipped.len(),
            matrix.skipped.join(", ")
        );
    }

    if dump_json {
        println!("{}", panel_json(&matrix, Projection::Results));
    }
}
