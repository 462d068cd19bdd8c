//! Byte-for-byte pins of what the seven experiments print and export: the
//! rendered tables and the pretty JSON of each, at tiny scale (4×4 grid,
//! ≤ 300 simulated seconds, fixed seeds, two sweep workers), plus every
//! experiment under an already-expired budget (the `skipped` footer and
//! list). The files under `tests/goldens/panels/` were captured before the
//! experiments were collapsed onto one panel type, so they define "the same
//! output" for that refactor and for any later one: key names, key order,
//! `null` for empty traffic/recovery sections, column widths, rule lengths.
//! Regenerate deliberately with `MHH_REGEN_GOLDENS=1 cargo test --test
//! panel_goldens`.

use std::time::Duration;

mod common;
use common::check_golden;

use mhh_suite::mobility::ModelKind;
use mhh_suite::mobsim::experiments::{
    failure_panel, figure5, figure6, mobility_matrix, proclaimed_comparison, reliability_panel,
    traffic_panel,
};
use mhh_suite::mobsim::report::{
    panel_json, render_failure_panel, render_figure, render_matrix, render_proclaimed,
    render_reliability_panel, render_traffic, Projection,
};
use mhh_suite::mobsim::{
    scenarios, FaultPlan, Panel, ProtocolRegistry, Scenario, ScenarioConfig, Sweep, TopologyKind,
    TRAFFIC_PRESETS,
};

/// Two workers, unbudgeted, over the given registry.
fn sweep(registry: ProtocolRegistry) -> Sweep {
    Sweep {
        registry,
        workers: 2,
        budget: None,
    }
}

fn builtin() -> Sweep {
    sweep(ProtocolRegistry::builtin())
}

fn extended() -> Sweep {
    sweep(ProtocolRegistry::extended())
}

fn json(panel: &Panel) -> String {
    panel_json(panel, Projection::Results)
}

/// Pin one experiment's tables and JSON export.
fn pin(name: &str, tables: String, panel: &Panel) {
    check_golden(&format!("panels/{name}.txt"), &tables);
    check_golden(&format!("panels/{name}.json"), &json(panel));
}

fn tiny() -> ScenarioConfig {
    ScenarioConfig {
        grid_side: 4,
        clients_per_broker: 3,
        mobile_fraction: 0.25,
        conn_mean_s: 30.0,
        disc_mean_s: 30.0,
        publish_interval_s: 15.0,
        duration_s: 240.0,
        seed: 1907,
        ..ScenarioConfig::paper_defaults()
    }
}

/// A figure base that exercises the optional header lines: a non-grid
/// topology (`-- topology: … --`) and proclaimed moves (the handover-mix
/// panel).
fn proclaiming_torus() -> ScenarioConfig {
    tiny()
        .with_topology(TopologyKind::parse("torus").expect("torus parses"))
        .with_proclaimed_fraction(0.5)
}

fn models() -> Vec<ModelKind> {
    vec![
        ModelKind::UniformRandom,
        ModelKind::RandomWaypoint { pause_mean_s: 5.0 },
        ModelKind::RandomWaypoint { pause_mean_s: 50.0 },
    ]
}

/// Reduced copies of the three failure presets: the same kinds of fault
/// (crash storm, link partition plus region outage, lossy links under a
/// storm with the reliability layer on) on the 4×4 grid.
fn failure_presets() -> Vec<Scenario> {
    let base = ScenarioConfig {
        duration_s: 300.0,
        ..tiny()
    };
    vec![
        Scenario {
            name: "broker-crash-storm",
            summary: "reduced copy",
            config: base.clone().with_faults(FaultPlan {
                crash_storm: Some((3, 20.0)),
                ..FaultPlan::default()
            }),
        },
        Scenario {
            name: "partitioned-city",
            summary: "reduced copy",
            config: base.clone().with_faults(FaultPlan {
                link_partitions: vec![(0, 1, 60.0, 120.0)],
                region_outages: vec![(10, 1, 150.0, 180.0)],
                ..FaultPlan::default()
            }),
        },
        Scenario {
            name: "lossy-crash-storm",
            summary: "reduced copy",
            config: lossy_storm(),
        },
    ]
}

/// The reduced `lossy-crash-storm`: every reliability knob of the preset,
/// smaller world.
fn lossy_storm() -> ScenarioConfig {
    ScenarioConfig {
        duration_s: 300.0,
        loss_rate: 0.02,
        corruption_rate: 0.005,
        dedup_window: 64,
        retransmit: true,
        checkpoint_replication_ms: 5_000,
        ..tiny()
    }
    .with_faults(FaultPlan {
        crash_storm: Some((3, 20.0)),
        ..FaultPlan::default()
    })
}

/// The four storm presets with their client populations trimmed.
fn traffic_presets() -> Vec<Scenario> {
    let mut storms = scenarios::find_all(&TRAFFIC_PRESETS);
    for preset in &mut storms {
        preset.config.storm_publishers = preset.config.storm_publishers.min(60);
        preset.config.storm_subscribers = preset.config.storm_subscribers.min(120);
    }
    storms
}

#[test]
fn figure5_text_json_and_ledger_dump_are_pinned() {
    let fig = figure5(&tiny(), &[5.0, 60.0], &builtin());
    pin("figure5", render_figure(&fig), &fig);
    check_golden(
        "panels/figure5_ledgers.json",
        &panel_json(&fig, Projection::Ledgers),
    );
}

#[test]
fn figure6_text_and_json_are_pinned() {
    let fig = figure6(&proclaiming_torus(), &[3, 4], &builtin());
    pin("figure6", render_figure(&fig), &fig);
}

#[test]
fn mobility_matrix_text_and_json_are_pinned() {
    let matrix = mobility_matrix(&tiny(), &models(), &builtin());
    pin("matrix", render_matrix(&matrix), &matrix);
}

#[test]
fn proclaimed_comparison_text_and_json_are_pinned() {
    let cmp = proclaimed_comparison(&tiny(), &builtin());
    pin("handover", render_proclaimed(&cmp), &cmp);
}

#[test]
fn failure_panel_text_and_json_are_pinned() {
    let panel = failure_panel(&failure_presets(), &extended());
    pin("failure", render_failure_panel(&panel), &panel);
}

#[test]
fn reliability_panel_text_and_json_are_pinned() {
    let panel = reliability_panel(&lossy_storm(), &extended());
    pin("reliability", render_reliability_panel(&panel), &panel);
}

#[test]
fn traffic_panel_text_and_json_are_pinned() {
    let panel = traffic_panel(&traffic_presets(), &builtin());
    pin("traffic", render_traffic(&panel), &panel);
}

/// Every experiment under an already-expired budget: nothing runs, every
/// cell is reported, and the text footer and JSON `skipped` list say so.
#[test]
fn starved_sweeps_report_every_cell_as_skipped() {
    let starve = |sweep: Sweep| Sweep {
        budget: Some(Duration::ZERO),
        ..sweep
    };
    let (builtin, extended) = (starve(builtin()), starve(extended()));
    let mut out = String::new();
    let mut section = |text: String, panel: &Panel| {
        out.push_str(&text);
        out.push_str(&json(panel));
        out.push('\n');
    };

    let fig = figure5(&tiny(), &[5.0, 60.0], &builtin);
    section(render_figure(&fig), &fig);
    let fig = figure6(&tiny(), &[3, 4], &builtin);
    section(render_figure(&fig), &fig);
    let matrix = mobility_matrix(&tiny(), &models(), &builtin);
    section(render_matrix(&matrix), &matrix);
    let cmp = proclaimed_comparison(&tiny(), &builtin);
    section(render_proclaimed(&cmp), &cmp);
    let panel = failure_panel(&failure_presets(), &extended);
    section(render_failure_panel(&panel), &panel);
    let panel = reliability_panel(&lossy_storm(), &extended);
    section(render_reliability_panel(&panel), &panel);
    let panel = traffic_panel(&traffic_presets(), &builtin);
    section(render_traffic(&panel), &panel);

    check_golden("panels/starved.txt", &out);
}
