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

use mhh_suite::mobility::ModelKind;
use mhh_suite::mobsim::experiments::{
    failure_panel_budgeted_in, figure5_budgeted_in, figure6_budgeted_in,
    mobility_matrix_budgeted_in, proclaimed_comparison_budgeted_in, reliability_panel_budgeted_in,
    traffic_panel_budgeted_in,
};
use mhh_suite::mobsim::report::{
    failure_to_json, figure_ledgers_json, matrix_to_json, proclaimed_to_json, reliability_to_json,
    render_failure_panel, render_figure, render_matrix, render_proclaimed,
    render_reliability_panel, render_traffic, to_json, traffic_to_json,
};
use mhh_suite::mobsim::{
    scenarios, FaultPlan, ProtocolRegistry, Scenario, ScenarioConfig, TopologyKind, TRAFFIC_PRESETS,
};

const WORKERS: usize = 2;

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
    TRAFFIC_PRESETS
        .iter()
        .map(|name| {
            let mut preset = scenarios::find(name).expect("storm preset registered");
            preset.config.storm_publishers = preset.config.storm_publishers.min(60);
            preset.config.storm_subscribers = preset.config.storm_subscribers.min(120);
            preset
        })
        .collect()
}

fn check_golden(file: &str, actual: &str) {
    let dir = format!("{}/tests/goldens/panels", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{file}");
    if std::env::var_os("MHH_REGEN_GOLDENS").is_some() {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; regen with MHH_REGEN_GOLDENS=1"));
    assert!(
        actual == expected,
        "{file} drifted from its golden (regen deliberately with MHH_REGEN_GOLDENS=1); got:\n{actual}"
    );
}

#[test]
fn figure5_text_json_and_ledger_dump_are_pinned() {
    let fig = figure5_budgeted_in(
        &ProtocolRegistry::builtin(),
        &tiny(),
        &[5.0, 60.0],
        WORKERS,
        None,
    );
    check_golden("figure5.txt", &render_figure(&fig));
    check_golden("figure5.json", &to_json(&fig));
    check_golden("figure5_ledgers.json", &figure_ledgers_json(&fig));
}

#[test]
fn figure6_text_and_json_are_pinned() {
    let fig = figure6_budgeted_in(
        &ProtocolRegistry::builtin(),
        &proclaiming_torus(),
        &[3, 4],
        WORKERS,
        None,
    );
    check_golden("figure6.txt", &render_figure(&fig));
    check_golden("figure6.json", &to_json(&fig));
}

#[test]
fn mobility_matrix_text_and_json_are_pinned() {
    let matrix = mobility_matrix_budgeted_in(
        &ProtocolRegistry::builtin(),
        &tiny(),
        &models(),
        WORKERS,
        None,
    );
    check_golden("matrix.txt", &render_matrix(&matrix));
    check_golden("matrix.json", &matrix_to_json(&matrix));
}

#[test]
fn proclaimed_comparison_text_and_json_are_pinned() {
    let cmp =
        proclaimed_comparison_budgeted_in(&ProtocolRegistry::builtin(), &tiny(), WORKERS, None);
    check_golden("handover.txt", &render_proclaimed(&cmp));
    check_golden("handover.json", &proclaimed_to_json(&cmp));
}

#[test]
fn failure_panel_text_and_json_are_pinned() {
    let panel = failure_panel_budgeted_in(
        &ProtocolRegistry::extended(),
        &failure_presets(),
        WORKERS,
        None,
    );
    check_golden("failure.txt", &render_failure_panel(&panel));
    check_golden("failure.json", &failure_to_json(&panel));
}

#[test]
fn reliability_panel_text_and_json_are_pinned() {
    let panel =
        reliability_panel_budgeted_in(&ProtocolRegistry::extended(), &lossy_storm(), WORKERS, None);
    check_golden("reliability.txt", &render_reliability_panel(&panel));
    check_golden("reliability.json", &reliability_to_json(&panel));
}

#[test]
fn traffic_panel_text_and_json_are_pinned() {
    let panel = traffic_panel_budgeted_in(&traffic_presets(), WORKERS, None);
    check_golden("traffic.txt", &render_traffic(&panel));
    check_golden("traffic.json", &traffic_to_json(&panel));
}

/// Every experiment under an already-expired budget: nothing runs, every
/// cell is reported, and the text footer and JSON `skipped` list say so.
#[test]
fn starved_sweeps_report_every_cell_as_skipped() {
    let starved = Some(Duration::ZERO);
    let builtin = ProtocolRegistry::builtin();
    let extended = ProtocolRegistry::extended();
    let mut out = String::new();
    let mut section = |text: String, json: String| {
        out.push_str(&text);
        out.push_str(&json);
        out.push('\n');
    };

    let fig = figure5_budgeted_in(&builtin, &tiny(), &[5.0, 60.0], WORKERS, starved);
    section(render_figure(&fig), to_json(&fig));
    let fig = figure6_budgeted_in(&builtin, &tiny(), &[3, 4], WORKERS, starved);
    section(render_figure(&fig), to_json(&fig));
    let matrix = mobility_matrix_budgeted_in(&builtin, &tiny(), &models(), WORKERS, starved);
    section(render_matrix(&matrix), matrix_to_json(&matrix));
    let cmp = proclaimed_comparison_budgeted_in(&builtin, &tiny(), WORKERS, starved);
    section(render_proclaimed(&cmp), proclaimed_to_json(&cmp));
    let panel = failure_panel_budgeted_in(&extended, &failure_presets(), WORKERS, starved);
    section(render_failure_panel(&panel), failure_to_json(&panel));
    let panel = reliability_panel_budgeted_in(&extended, &lossy_storm(), WORKERS, starved);
    section(
        render_reliability_panel(&panel),
        reliability_to_json(&panel),
    );
    let panel = traffic_panel_budgeted_in(&traffic_presets(), WORKERS, starved);
    section(render_traffic(&panel), traffic_to_json(&panel));

    check_golden("starved.txt", &out);
}
