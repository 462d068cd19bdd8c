//! Reproduce the paper's evaluation figures through the fluent `Sim` API.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example reproduce_figures            # both figures, reduced scale
//! cargo run --release --example reproduce_figures -- fig5    # Figure 5 only
//! cargo run --release --example reproduce_figures -- fig6    # Figure 6 only
//! cargo run --release --example reproduce_figures -- handover # §4.1 vs §4.2 comparison
//! cargo run --release --example reproduce_figures -- failure  # fault-injection panel
//! cargo run --release --example reproduce_figures -- traffic  # storm / byte-accounting panel
//! cargo run --release --example reproduce_figures -- reliability # lossy-link trade-off panel
//! cargo run --release --example reproduce_figures -- fig5 --paper-scale
//! cargo run --release --example reproduce_figures -- --workers 4
//! cargo run --release --example reproduce_figures -- --budget-ms 60000
//! cargo run --release --example reproduce_figures -- fig5 --dump-ledger ledgers.json
//! cargo run --release --example reproduce_figures -- fig5 --engine-workers 4
//! ```
//!
//! By default the sweeps run at a reduced scale (49 brokers, 5 clients per
//! broker) so the whole run finishes in a few minutes on a laptop while
//! preserving the figure *shapes*; `--paper-scale` switches to the paper's
//! full 100-broker / 1000-client environment (Figure 5) and 25–196 brokers
//! (Figure 6), which takes considerably longer. `--workers N` bounds the
//! sweep worker threads (default: all cores). `--budget-ms N` bounds each
//! sweep's wall-clock: points that cannot start in time are *recorded as
//! skipped* in the JSON output instead of silently truncating the sweep.
//! `--engine-workers K` runs every figure simulation on the windowed
//! parallel engine with K shards; delivery sequences are byte-identical to
//! the serial engine, so the figures come out exactly the same — the flag
//! exists to exercise and time the parallel backend on real sweeps.
//!
//! The `handover` mode runs the proclaimed-vs-reactive comparison the
//! paper's §4.1 motivates: every registered protocol twice on the identical
//! move schedule (`proclaimed_fraction` 0 and 1), reporting the paired
//! per-handover first-delivery gaps from the handover ledger.
//!
//! The `failure` mode steps outside the paper's fault-free setting: it runs
//! all four protocols (the paper's three plus the self-stabilizing PSVR
//! variant) on the failure presets — a seeded broker crash storm and a
//! partitioned-city schedule — and reports per-outage time-to-repair and
//! loss counts from the recovery ledger, which reconcile exactly with the
//! delivery audit.
//!
//! The `traffic` mode runs the four MQTT-shaped storm presets (fan-in,
//! fan-out, retained replay, shared subscriptions) with MHH under both
//! fan-out modes — serialize-once cached and clone-per-destination — and
//! reports bytes on the wire, serialization counts and the cached path's
//! allocation savings on provably byte-identical delivery results.
//!
//! The `reliability` mode runs the `lossy-crash-storm` preset (2 % link
//! loss, 0.5 % corruption on top of a six-crash storm) for all four
//! protocols under three reliability modes — no reliability layer, broker
//! dedup watermarks alone, and dedup plus publisher ack/retransmit — and
//! tables the trade-off: audited losses and duplicates against suppression
//! and retransmission work, with every link drop accounted by cause.
//!
//! `--dump-ledger <path>` additionally exports every executed figure
//! point's complete per-handover ledger (one JSON record per handover:
//! kind, from→to, depart/arrive, first-delivery gap, buffered/lost/
//! duplicate counts) for external plotting of gap distributions.
//!
//! Every curve comes from the protocol registry, so a protocol registered
//! via `mhh_mobsim::protocols::register` before the sweep gains a column in
//! both figures automatically.
//!
//! Results are printed as tables and written as JSON next to the repository's
//! EXPERIMENTS.md.

use std::time::Duration;

use mhh_suite::mobility::sweep::available_workers;
use mhh_suite::mobsim::experiments::{
    failure_panel, reliability_panel, traffic_panel, FIG5_CONN_PERIODS_S, FIG6_GRID_SIDES,
};
use mhh_suite::mobsim::report::{
    panel_json, render_failure_panel, render_figure, render_proclaimed, render_reliability_panel,
    render_traffic, Projection,
};
use mhh_suite::mobsim::{
    scenarios, Panel, ProtocolRegistry, Sim, SimBuilder, Sweep, FAILURE_PRESETS, TRAFFIC_PRESETS,
};

mod common;
use common::flag_value;

const USAGE: &str = "reproduce_figures [fig5] [fig6] [handover] [failure] [traffic] \
                     [reliability] [--paper-scale] [--workers <N>] [--budget-ms <N>] \
                     [--engine-workers <K>] [--dump-ledger <path>]";

/// Print a finished experiment's tables and any budget-skipped cells, and
/// write its JSON to `<panel name>.json`.
fn emit(panel: &Panel, tables: String) {
    println!("{tables}");
    if !panel.skipped.is_empty() {
        println!(
            "budget exhausted: {} point(s) skipped: {}",
            panel.skipped.len(),
            panel.skipped.join(", ")
        );
    }
    let path = format!("{}.json", panel.name);
    std::fs::write(&path, panel_json(panel, Projection::Results))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let workers = flag_value(&args, "--workers", USAGE).unwrap_or_else(available_workers);
    let budget_ms: Option<u64> = flag_value(&args, "--budget-ms", USAGE);
    let dump_ledger: Option<String> = flag_value(&args, "--dump-ledger", USAGE);
    let engine_workers: Option<usize> = flag_value(&args, "--engine-workers", USAGE);
    let mut executed_figures: Vec<Panel> = Vec::new();
    let modes = [
        "fig5",
        "fig6",
        "handover",
        "failure",
        "traffic",
        "reliability",
    ];
    let explicit = args.iter().any(|a| modes.contains(&a.as_str()));
    // Without an explicit mode the example keeps its documented default:
    // both figures. The handover comparison and failure panel are opt-in.
    let want = |name: &str| {
        if explicit {
            args.iter().any(|a| a == name)
        } else {
            name == "fig5" || name == "fig6"
        }
    };
    let builder = |scenario: &str| -> SimBuilder {
        let mut b = Sim::scenario(scenario).workers(workers);
        if let Some(ms) = budget_ms {
            b = b.budget_ms(ms);
        }
        if let Some(k) = engine_workers {
            b = b.engine_workers(k);
        }
        if paper_scale {
            b
        } else {
            b.grid_side(7).clients_per_broker(5).configure(|c| {
                c.publish_interval_s = 60.0;
                c.duration_s = 900.0;
            })
        }
    };
    // The panels outside the builder: all four protocols, same workers and
    // budget.
    let extended = Sweep {
        registry: ProtocolRegistry::extended(),
        workers,
        budget: budget_ms.map(Duration::from_millis),
    };

    println!(
        "running at {} scale with {workers} workers{}{}",
        if paper_scale { "paper" } else { "reduced" },
        budget_ms
            .map(|ms| format!(", {ms} ms budget per sweep"))
            .unwrap_or_default(),
        engine_workers
            .map(|k| format!(", {k}-shard parallel engine"))
            .unwrap_or_default()
    );

    if want("fig5") {
        let conn: &[f64] = if paper_scale {
            &FIG5_CONN_PERIODS_S
        } else {
            &[1.0, 10.0, 100.0, 1_000.0]
        };
        let fig = builder("paper-fig5")
            .figure5(conn)
            .expect("paper-fig5 is registered");
        emit(&fig, render_figure(&fig));
        executed_figures.push(fig);
    }
    if want("fig6") {
        let sides: &[usize] = if paper_scale {
            &FIG6_GRID_SIDES
        } else {
            &[5, 7, 10]
        };
        let fig = builder("paper-fig6")
            .figure6(sides)
            .expect("paper-fig6 is registered");
        emit(&fig, render_figure(&fig));
        executed_figures.push(fig);
    }
    if want("handover") {
        let cmp = builder("paper-fig5")
            .compare_proclaimed()
            .expect("paper-fig5 is registered");
        emit(&cmp, render_proclaimed(&cmp));
    }
    if want("failure") {
        let panel = failure_panel(&scenarios::find_all(&FAILURE_PRESETS), &extended);
        emit(&panel, render_failure_panel(&panel));
    }
    if want("traffic") {
        let panel = traffic_panel(&scenarios::find_all(&TRAFFIC_PRESETS), &extended);
        emit(&panel, render_traffic(&panel));
    }
    if want("reliability") {
        let base = scenarios::find("lossy-crash-storm")
            .expect("lossy-crash-storm preset registered")
            .config;
        let panel = reliability_panel(&base, &extended);
        emit(&panel, render_reliability_panel(&panel));
    }
    if let Some(path) = dump_ledger {
        // One document with every executed figure's per-handover records,
        // for external plotting of gap distributions.
        let docs: Vec<String> = executed_figures
            .iter()
            .map(|fig| panel_json(fig, Projection::Ledgers))
            .collect();
        let doc = format!("[{}]\n", docs.join(","));
        std::fs::write(&path, doc).expect("write ledger dump");
        println!(
            "wrote {path} ({} figure(s), {} handover record(s))",
            executed_figures.len(),
            executed_figures
                .iter()
                .flat_map(|f| f.points.iter())
                .map(|p| p.result.ledger.len())
                .sum::<usize>()
        );
    }
}
