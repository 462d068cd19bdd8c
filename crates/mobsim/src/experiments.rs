//! The seven experiments: the paper's two parameter sweeps — Figure 5
//! (varying the connection-period length) and Figure 6 (varying the network
//! size) — and the panels added since: the mobility-model × protocol matrix,
//! the reactive-vs-proclaimed handover comparison, and the failure,
//! reliability and traffic panels.
//!
//! Every one of them is the same thing: a grid of independent simulation
//! runs, one [`RunResult`] per `(row, column)` cell. So there is one result
//! type, [`Panel`]; one value saying how to execute a grid, [`Sweep`]
//! (protocol registry, worker threads, wall-clock budget); and one function
//! per experiment that lists its cells and hands them to the sweep.
//!
//! The protocol axis is data-driven: the experiments iterate the entries of
//! the sweep's [`ProtocolRegistry`] and run them through [`run_spec`], so
//! registering a new protocol adds a curve to every figure and a column to
//! every matrix without touching this module.
//!
//! Cells are distributed over scoped worker threads by
//! [`mhh_mobility::sweep::map_parallel_budgeted`] (the runs themselves stay
//! single-threaded for determinism, so parallel results are byte-identical
//! to a serial sweep of the same seeds).

use std::cmp::Ordering;
use std::fmt;
use std::time::Duration;

use mhh_mobility::sweep::{available_workers, map_parallel_budgeted};
use mhh_mobility::ModelKind;
use mhh_pubsub::FanoutMode;

use crate::config::ScenarioConfig;
use crate::metrics::RunResult;
use crate::protocols::{ProtocolRegistry, ProtocolSpec};
use crate::runner::run_spec;
use crate::scenarios::Scenario;

/// One axis value or annotation of a panel point: a number (a figure's x,
/// the handover comparison's gap reduction) or text (a protocol label, a
/// preset name, a mobility model's parameter point).
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// A numeric value; exports as a JSON number.
    Num(f64),
    /// A name; exports as a JSON string.
    Text(String),
}

impl Label {
    /// The text label of anything printable.
    pub fn text(value: impl ToString) -> Label {
        Label::Text(value.to_string())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Num(x) => fmt::Display::fmt(x, f),
            Label::Text(s) => f.pad(s),
        }
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        matches!(self, Label::Text(s) if s == other)
    }
}

/// A mobility model matches the label of its parameter point (its
/// `Display`), so the matrix is addressed by the models it was given.
impl PartialEq<ModelKind> for Label {
    fn eq(&self, other: &ModelKind) -> bool {
        *self == *other.to_string()
    }
}

/// A point's labels as `(json-key, value)` pairs.
pub type Labels = Vec<(&'static str, Label)>;

fn find_label<'a>(labels: &'a [(&'static str, Label)], key: &str) -> Option<&'a Label> {
    labels.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// One cell of a panel: one simulation run and what identifies it.
#[derive(Debug, Clone)]
pub struct PanelPoint {
    /// The cell's axis values and annotations (e.g. the mobility and
    /// topology a figure point ran under), in the order the JSON export
    /// lists them.
    pub labels: Labels,
    /// The collected metrics.
    pub result: RunResult,
}

impl PanelPoint {
    /// The label stored under `key`.
    pub fn label(&self, key: &str) -> Option<&Label> {
        find_label(&self.labels, key)
    }
}

/// The result of any experiment: a grid of runs.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Identifier, also the stem of the file `reproduce_figures` writes
    /// (`"figure5"`, `"failure_panel"`, …).
    pub name: String,
    /// Title of a numeric row axis (the two figures' x axis); `None` when
    /// the rows are categories.
    pub x_label: Option<String>,
    /// JSON keys of the two labels that span the grid: `[rows, columns]`.
    pub axes: [&'static str; 2],
    /// Each row is one paired comparison rather than a series of points:
    /// the JSON export writes one object per row, with every column's run
    /// under the column's label (the handover comparison's `reactive` /
    /// `proclaimed`).
    pub paired: bool,
    /// All completed cells, in the order the experiment listed them.
    pub points: Vec<PanelPoint>,
    /// Cells that never ran because the wall-clock budget was exhausted
    /// before they could start, as `"row × column"`. Empty for unbudgeted
    /// sweeps.
    pub skipped: Vec<String>,
}

impl Panel {
    /// The distinct values of one axis: first-seen order (= registry order
    /// for protocols), numbers ascending however the sweep listed them.
    fn axis(&self, axis: usize) -> Vec<&Label> {
        let mut seen: Vec<&Label> = Vec::new();
        for label in self.points.iter().filter_map(|p| p.label(self.axes[axis])) {
            if !seen.contains(&label) {
                seen.push(label);
            }
        }
        seen.sort_by(|a, b| match (a, b) {
            (Label::Num(a), Label::Num(b)) => a.total_cmp(b),
            _ => Ordering::Equal,
        });
        seen
    }

    /// The distinct row labels.
    pub fn rows(&self) -> Vec<&Label> {
        self.axis(0)
    }

    /// The distinct column labels.
    pub fn cols(&self) -> Vec<&Label> {
        self.axis(1)
    }

    /// Look up one cell. Labels compare with `str` and [`ModelKind`] as well
    /// as with each other, so `cell("baseline", "MHH")`, `cell(&model, "MHH")`
    /// and `cell(&Label::Num(60.0), "MHH")` all work.
    pub fn cell<R, C>(&self, row: &R, col: &C) -> Option<&PanelPoint>
    where
        R: ?Sized,
        C: ?Sized,
        Label: PartialEq<R> + PartialEq<C>,
    {
        let [row_key, col_key] = self.axes;
        self.points.iter().find(|p| {
            p.label(row_key).is_some_and(|l| l == row) && p.label(col_key).is_some_and(|l| l == col)
        })
    }

    /// The cells of one column in row order — one curve of a figure.
    pub fn column<C>(&self, col: &C) -> Vec<&PanelPoint>
    where
        C: ?Sized,
        Label: PartialEq<C>,
    {
        self.rows()
            .into_iter()
            .filter_map(|row| self.cell::<Label, C>(row, col))
            .collect()
    }
}

/// How a grid of runs is executed. These are the only three things a caller
/// can choose about a sweep; everything else is the experiment's arguments.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The protocols to run: every experiment with a protocol axis iterates
    /// this registry's entries.
    pub registry: ProtocolRegistry,
    /// Worker threads (1 = serial). Parallel and serial sweeps of the same
    /// cells produce byte-identical results.
    pub workers: usize,
    /// Wall-clock budget: cells that cannot *start* before it elapses are
    /// recorded in [`Panel::skipped`] instead of silently truncating the
    /// sweep. `None` runs everything.
    pub budget: Option<Duration>,
}

/// The process-wide registry on all cores, unbudgeted.
impl Default for Sweep {
    fn default() -> Self {
        Sweep {
            registry: ProtocolRegistry::global(),
            workers: available_workers(),
            budget: None,
        }
    }
}

impl Sweep {
    /// Run one grid: `point` turns a job into the cell's labels, its
    /// configuration and its protocol; the run itself, the `skipped` list
    /// and the ledger check are the same for every experiment.
    ///
    /// # Panics
    /// Panics when a completed cell's recovery ledger reports losses or
    /// duplicates that do not reconcile exactly with its delivery audit —
    /// the per-outage attribution would have drifted from the ground truth,
    /// and a panel refuses to report numbers that don't add up.
    fn run<'a, J: Sync>(
        &self,
        name: &str,
        x_label: Option<&str>,
        axes: [&'static str; 2],
        jobs: &[J],
        point: impl Fn(&J) -> (Labels, ScenarioConfig, &'a ProtocolSpec) + Sync,
    ) -> Panel {
        let run = map_parallel_budgeted(jobs, self.workers, self.budget, |job| {
            let (labels, config, spec) = point(job);
            PanelPoint {
                labels,
                result: run_spec(&config, spec),
            }
        });
        let skipped = run
            .skipped
            .iter()
            .map(|&i| cell_name(&point(&jobs[i]).0, axes))
            .collect();
        let points: Vec<PanelPoint> = run.results.into_iter().flatten().collect();
        for p in &points {
            let (ledger, audit) = (&p.result.recovery, &p.result.audit);
            assert!(
                ledger.is_empty() || ledger.reconciles_with(audit),
                "{}: recovery ledger (lost {}, dup {}) does not reconcile with \
                 the delivery audit (lost {}, dup {})",
                cell_name(&p.labels, axes),
                ledger.total_lost(),
                ledger.total_duplicates(),
                audit.lost,
                audit.duplicates,
            );
        }
        Panel {
            name: name.to_string(),
            x_label: x_label.map(str::to_string),
            axes,
            paired: false,
            points,
            skipped,
        }
    }
}

/// `"row × column"`: how a cell is named in `skipped` lists and messages.
fn cell_name(labels: &Labels, axes: [&str; 2]) -> String {
    let name = |key| find_label(labels, key).map_or_else(String::new, Label::to_string);
    format!("{} × {}", name(axes[0]), name(axes[1]))
}

/// Every `(a, b)` pair, `a`-major: the cell list of a grid.
fn cross<'a, A, B>(outer: &'a [A], inner: &'a [B]) -> Vec<(&'a A, &'a B)> {
    outer
        .iter()
        .flat_map(|a| inner.iter().map(move |b| (a, b)))
        .collect()
}

/// The labels of a figure point: the swept value, the protocol, and the
/// mobility model and topology it ran under (parameter points included,
/// e.g. `random-waypoint(pause=60s)`, `scale-free(m=2)`).
fn figure_labels(x: f64, spec: &ProtocolSpec, config: &ScenarioConfig) -> Labels {
    vec![
        ("x", Label::Num(x)),
        ("protocol", Label::text(spec.label())),
        ("mobility", Label::text(&config.mobility)),
        ("topology", Label::text(&config.topology)),
    ]
}

/// The connection-period values of Figure 5 (seconds, log-spaced).
pub const FIG5_CONN_PERIODS_S: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// The grid side lengths of Figure 6 (25, 49, 100, 144 and 196 stations).
pub const FIG6_GRID_SIDES: [usize; 5] = [5, 7, 10, 12, 14];

/// Run the Figure 5 sweep (message overhead and handoff delay vs. the average
/// connection-period length) on top of the given base configuration: rows
/// are the connection periods (`x`), columns the sweep's protocols. The
/// paper fixes 100 base stations and a 5-minute mean disconnection period;
/// the base config controls the scale so tests can run a smaller system.
pub fn figure5(base: &ScenarioConfig, conn_periods_s: &[f64], sweep: &Sweep) -> Panel {
    sweep.run(
        "figure5",
        Some("avg. length of conn. period (s)"),
        ["x", "protocol"],
        &cross(conn_periods_s, sweep.registry.specs()),
        |&(&conn, spec)| {
            let config = ScenarioConfig {
                conn_mean_s: conn,
                ..base.clone()
            }
            .with_adaptive_duration(1.5);
            (figure_labels(conn, spec, &config), config, spec)
        },
    )
}

/// Run the Figure 6 sweep (message overhead and handoff delay vs. the number
/// of base stations) on top of the given base configuration: rows are the
/// station counts (`x`), columns the sweep's protocols. The paper fixes both
/// period means at 5 minutes.
pub fn figure6(base: &ScenarioConfig, grid_sides: &[usize], sweep: &Sweep) -> Panel {
    sweep.run(
        "figure6",
        Some("number of base stations"),
        ["x", "protocol"],
        &cross(grid_sides, sweep.registry.specs()),
        |&(&side, spec)| {
            let config = ScenarioConfig {
                grid_side: side,
                ..base.clone()
            }
            .with_adaptive_duration(1.5);
            // x is the swept side², not broker_count(): an EdgeList topology
            // ignores grid_side, and identical x values would collapse the
            // sweep's rows in every rendered panel.
            let x = (side * side) as f64;
            (figure_labels(x, spec, &config), config, spec)
        },
    )
}

/// Run every mobility model against every protocol of the sweep on `base`
/// (the model stored in `base` itself is ignored in favour of each entry):
/// rows are the models (`mobility`), columns the protocols.
///
/// Rows are keyed by the model's full parameter point — kind *and*
/// parameters, as its `Display` prints them — so `models` may sweep one kind
/// across several parameter points (e.g. three `RandomWaypoint`s with
/// different pause times) without collisions. The bare kind is carried along
/// as the `model` label.
pub fn mobility_matrix(base: &ScenarioConfig, models: &[ModelKind], sweep: &Sweep) -> Panel {
    sweep.run(
        "mobility_matrix",
        None,
        ["mobility", "protocol"],
        &cross(models, sweep.registry.specs()),
        |&(kind, spec)| {
            let config = base.clone().with_mobility(kind.clone());
            let labels = vec![
                ("mobility", Label::text(kind)),
                ("model", Label::text(kind.label())),
                ("protocol", Label::text(spec.label())),
                ("topology", Label::text(&config.topology)),
            ];
            (labels, config, spec)
        },
    )
}

/// The scenario presets the failure panel is meant for: the seeded
/// broker-crash storm, the partition/region-outage city, and the lossy
/// crash storm whose ledgers carry the reliability-layer counters (look
/// them up with [`crate::scenarios::find_all`]).
pub const FAILURE_PRESETS: [&str; 3] = [
    "broker-crash-storm",
    "partitioned-city",
    "lossy-crash-storm",
];

/// The MQTT-shaped storm presets the traffic panel is meant for (look them
/// up with [`crate::scenarios::find_all`]).
pub const TRAFFIC_PRESETS: [&str; 4] = [
    "fan-in-storm",
    "fan-out-storm",
    "retained-replay",
    "shared-subscription",
];

/// The failure panel: every fault preset (rows, `scenario`) run against
/// every protocol of the sweep (columns) — meant for
/// [`ProtocolRegistry::extended`], the paper's three plus PSVR — comparing
/// losses, duplicates, dropped envelopes and time-to-repair under identical
/// injected outages. Every cell's recovery ledger reconciles exactly with
/// its delivery audit (every sweep checks it), so a panel that reports
/// numbers at all reports numbers that add up.
pub fn failure_panel(presets: &[Scenario], sweep: &Sweep) -> Panel {
    sweep.run(
        "failure_panel",
        None,
        ["scenario", "protocol"],
        &cross(presets, sweep.registry.specs()),
        |&(preset, spec)| {
            let labels = vec![
                ("scenario", Label::text(preset.name)),
                ("protocol", Label::text(spec.label())),
            ];
            (labels, preset.config.clone(), spec)
        },
    )
}

/// A reliability mode: its label, and what it switches off in the
/// reliability panel's base scenario.
pub type ReliabilityMode = (&'static str, fn(&mut ScenarioConfig));

/// The reliability modes the reliability panel compares, in row order: no
/// reliability layer at all, broker dedup alone, and dedup plus publisher
/// ack/retransmit (the base as given).
pub const RELIABILITY_MODES: [ReliabilityMode; 3] = [
    ("baseline", |config| {
        config.dedup_window = 0;
        config.retransmit = false;
    }),
    ("dedup", |config| config.retransmit = false),
    ("dedup+retransmit", |_| {}),
];

/// The reliability trade-off panel: `base` — meant to be the
/// `lossy-crash-storm` preset (2 % link loss, 0.5 % corruption, a six-crash
/// storm), or anything else that carries the full reliability configuration
/// — run under each of the [`RELIABILITY_MODES`] (rows, `mode`) for every
/// protocol of the sweep (columns). Same seed, same storm, same lossy links:
/// only the reliability layer differs, so the cells of a column are a paired
/// comparison. Dedup is expected to eliminate audited duplicates;
/// retransmission trades extra mobility-layer traffic for recovering
/// link-lost publishes.
pub fn reliability_panel(base: &ScenarioConfig, sweep: &Sweep) -> Panel {
    sweep.run(
        "reliability_panel",
        None,
        ["mode", "protocol"],
        &cross(&RELIABILITY_MODES, sweep.registry.specs()),
        |&(&(mode, switch_off), spec)| {
            let mut config = base.clone();
            switch_off(&mut config);
            let labels = vec![
                ("mode", Label::text(mode)),
                ("protocol", Label::text(spec.label())),
            ];
            (labels, config, spec)
        },
    )
}

/// The traffic panel: every storm preset (rows, `scenario`) run with MHH
/// under both fan-out modes (columns, `mode`: serialize-once cached vs
/// clone-per-destination), comparing fan-out allocations, bytes serialized
/// and throughput on byte-identical delivery results. The sweep's registry
/// is not consulted — the protocol is not an axis here.
///
/// # Panics
/// Panics when a completed cached/clone pair differs in any delivery-side
/// metric — the serialize-once cache must never change behavior, only
/// accounting, so a panel that reports a saving at all reports one measured
/// on provably equivalent runs.
pub fn traffic_panel(presets: &[Scenario], sweep: &Sweep) -> Panel {
    let builtin = ProtocolRegistry::builtin();
    let mhh = builtin.find("mhh").expect("mhh is builtin");
    let modes = [FanoutMode::Cached, FanoutMode::CloneBaseline];
    let panel = sweep.run(
        "traffic_panel",
        None,
        ["scenario", "mode"],
        &cross(presets, &modes),
        |&(preset, &mode)| {
            let labels = vec![
                ("scenario", Label::text(preset.name)),
                ("mode", Label::text(mode.label())),
            ];
            (labels, preset.config.clone().with_fanout_mode(mode), mhh)
        },
    );
    let delivery = |p: &PanelPoint| {
        let r = &p.result;
        (
            r.delivered_messages,
            r.traffic.delivery_bytes,
            format!("{:?}", r.audit),
        )
    };
    for scenario in panel.rows() {
        let pair = modes.map(|mode| panel.cell(scenario, mode.label()));
        if let [Some(cached), Some(clone)] = pair {
            assert_eq!(
                delivery(cached),
                delivery(clone),
                "{scenario}: cached and clone fan-out must deliver identically"
            );
        }
    }
    panel
}

/// The two columns of the handover comparison, each with the
/// `proclaimed_fraction` it sets: every move silent (§4.2), every move
/// proclaimed (§4.1).
pub const HANDOVER_KINDS: [(&str, f64); 2] = [("reactive", 0.0), ("proclaimed", 1.0)];

/// How much of the reactive run's mean first-delivery gap the proclaimed run
/// of the same move schedule removed (0..1; negative when proclamation
/// hurt).
pub fn gap_reduction(reactive: &RunResult, proclaimed: &RunResult) -> f64 {
    if reactive.avg_handoff_delay_ms == 0.0 {
        0.0
    } else {
        1.0 - proclaimed.avg_handoff_delay_ms / reactive.avg_handoff_delay_ms
    }
}

/// Run the reactive-vs-proclaimed comparison (§4.2 vs §4.1) for every
/// protocol of the sweep (rows) on `base`: the *same* move schedule (same
/// seed, same workload) once with every move silent (column `reactive`,
/// `proclaimed_fraction = 0`) and once with every move proclaimed (column
/// `proclaimed`, `proclaimed_fraction = 1`), so each row is a true paired
/// comparison. Both cells of a row carry the pair's [`gap_reduction`] as
/// the `gap_reduction` label.
///
/// A half-finished pair is useless, so a protocol whose two runs could not
/// both complete within the budget is dropped whole and listed once, by its
/// label alone, in [`Panel::skipped`].
pub fn proclaimed_comparison(base: &ScenarioConfig, sweep: &Sweep) -> Panel {
    let mut panel = sweep.run(
        "handover",
        None,
        ["protocol", "handover"],
        &cross(sweep.registry.specs(), &HANDOVER_KINDS),
        |&(spec, &(kind, fraction))| {
            let labels = vec![
                ("protocol", Label::text(spec.label())),
                ("handover", Label::text(kind)),
            ];
            (
                labels,
                base.clone().with_proclaimed_fraction(fraction),
                spec,
            )
        },
    );
    // Cells come back protocol-major, so a protocol's completed runs are
    // adjacent; a pair stays only when both halves are there.
    let mut rest = std::mem::take(&mut panel.points).into_iter().peekable();
    panel.skipped.clear();
    for spec in sweep.registry.specs() {
        let own = |p: &PanelPoint| p.label("protocol").is_some_and(|l| l == spec.label());
        let mut pair: Vec<PanelPoint> = std::iter::from_fn(|| rest.next_if(own)).collect();
        if let [reactive, proclaimed] = &mut pair[..] {
            let reduction = Label::Num(gap_reduction(&reactive.result, &proclaimed.result));
            for half in [reactive, proclaimed] {
                half.labels.insert(1, ("gap_reduction", reduction.clone()));
            }
            panel.points.append(&mut pair);
        } else {
            panel.skipped.push(spec.label().to_string());
        }
    }
    panel.paired = true;
    panel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;

    /// A deliberately tiny base configuration so the sweep smoke tests run in
    /// seconds while still exercising the full pipeline.
    fn tiny_base() -> ScenarioConfig {
        ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 3,
            mobile_fraction: 0.25,
            conn_mean_s: 30.0,
            disc_mean_s: 30.0,
            publish_interval_s: 15.0,
            duration_s: 240.0,
            seed: 3,
            ..ScenarioConfig::paper_defaults()
        }
    }

    fn sweep_of(registry: ProtocolRegistry, workers: usize) -> Sweep {
        Sweep {
            registry,
            workers,
            budget: None,
        }
    }

    fn builtin(workers: usize) -> Sweep {
        sweep_of(ProtocolRegistry::builtin(), workers)
    }

    fn starved(sweep: Sweep) -> Sweep {
        Sweep {
            budget: Some(Duration::ZERO),
            ..sweep
        }
    }

    #[test]
    fn figure5_sweep_produces_all_curves() {
        let fig = figure5(&tiny_base(), &[5.0, 60.0], &builtin(4));
        assert_eq!(fig.points.len(), 6);
        assert_eq!(fig.cols(), ["sub-unsub", "MHH", "HB"]);
        assert_eq!(fig.rows(), [&Label::Num(5.0), &Label::Num(60.0)]);
        for proto in Protocol::ALL {
            let curve = fig.column(proto.label());
            assert_eq!(curve.len(), 2);
            let xs: Vec<_> = curve.iter().map(|p| p.label("x")).collect();
            assert_eq!(
                xs,
                [Some(&Label::Num(5.0)), Some(&Label::Num(60.0))],
                "curve sorted by x"
            );
        }
    }

    #[test]
    fn rows_of_a_numeric_axis_ascend_however_the_sweep_listed_them() {
        let fig = figure5(&tiny_base(), &[60.0, 5.0], &builtin(2));
        assert_eq!(fig.rows(), [&Label::Num(5.0), &Label::Num(60.0)]);
        assert_eq!(fig.points[0].label("x"), Some(&Label::Num(60.0)));
    }

    /// A config with enough stored backlog per disconnection that the
    /// protocol differences (bulk shuttling, wait intervals) dominate the
    /// handoff metrics, as in the paper's full-size workload.
    fn dense_base() -> ScenarioConfig {
        ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 4,
            mobile_fraction: 0.25,
            conn_mean_s: 30.0,
            disc_mean_s: 60.0,
            publish_interval_s: 5.0,
            duration_s: 300.0,
            seed: 3,
            ..ScenarioConfig::paper_defaults()
        }
    }

    #[test]
    fn figure5_shape_mhh_beats_sub_unsub_under_frequent_movement() {
        // At very short connection periods the sub-unsub protocol shuttles
        // stored queues repeatedly and makes the client wait for the whole
        // handoff; MHH must be cheaper per handoff and must deliver faster —
        // the headline claim of Figure 5.
        let fig = figure5(&dense_base(), &[5.0], &builtin(4));
        let mhh = &fig.column("MHH")[0].result;
        let su = &fig.column("sub-unsub")[0].result;
        assert!(mhh.reliable(), "{:?}", mhh.audit);
        assert!(su.reliable(), "{:?}", su.audit);
        assert!(
            mhh.overhead_per_handoff < su.overhead_per_handoff,
            "MHH {} vs sub-unsub {}",
            mhh.overhead_per_handoff,
            su.overhead_per_handoff
        );
        assert!(
            mhh.avg_handoff_delay_ms < su.avg_handoff_delay_ms,
            "MHH {} ms vs sub-unsub {} ms",
            mhh.avg_handoff_delay_ms,
            su.avg_handoff_delay_ms
        );
    }

    #[test]
    fn figure6_sweep_produces_all_curves() {
        let fig = figure6(&tiny_base(), &[3, 4], &builtin(4));
        assert_eq!(fig.points.len(), 6);
        assert_eq!(fig.rows(), [&Label::Num(9.0), &Label::Num(16.0)]);
        for proto in Protocol::ALL {
            let curve = fig.column(proto.label());
            assert_eq!(curve.len(), 2);
            // Every point produced at least one handoff and a sane delay.
            for p in curve {
                assert!(
                    p.result.handoffs > 0,
                    "{proto:?} point {:?} had no handoffs",
                    p.label("x")
                );
                assert!(p.result.avg_handoff_delay_ms >= 0.0);
            }
        }
    }

    #[test]
    fn matrix_keys_cells_by_parameter_point_not_label() {
        // One model kind at two parameter points in the same matrix — the
        // collision the old label-keyed cells could not represent.
        let short = ModelKind::RandomWaypoint { pause_mean_s: 5.0 };
        let long = ModelKind::RandomWaypoint {
            pause_mean_s: 2_000.0,
        };
        let models = [short.clone(), long.clone()];
        let matrix = mobility_matrix(&tiny_base(), &models, &builtin(4));
        assert_eq!(matrix.points.len(), 6);
        let rows = matrix.rows();
        assert_eq!(rows.len(), 2);
        assert!(*rows[0] == short && *rows[1] == long, "{rows:?}");
        let s = matrix.cell(&short, "MHH").expect("short-pause cell");
        let l = matrix.cell(&long, "MHH").expect("long-pause cell");
        assert!(
            s.result.handoffs > l.result.handoffs,
            "short pauses ({}) must move more than pauses longer than the \
             horizon ({})",
            s.result.handoffs,
            l.result.handoffs
        );
    }

    #[test]
    fn exhausted_budget_reports_skipped_points() {
        let sweep = starved(builtin(2));
        let fig = figure5(&tiny_base(), &[5.0, 60.0], &sweep);
        assert!(fig.points.is_empty());
        assert_eq!(fig.skipped.len(), 6, "every point recorded as skipped");
        assert!(
            fig.skipped.iter().any(|s| s.contains("MHH")),
            "{:?}",
            fig.skipped
        );

        let matrix = mobility_matrix(&tiny_base(), &[ModelKind::UniformRandom], &sweep);
        assert!(matrix.points.is_empty());
        assert_eq!(matrix.skipped.len(), 3);

        // A generous budget completes everything and reports nothing.
        let generous = Sweep {
            budget: Some(Duration::from_secs(3600)),
            ..builtin(2)
        };
        let full = figure5(&tiny_base(), &[5.0], &generous);
        assert!(full.skipped.is_empty());
        assert_eq!(full.points.len(), 3);

        // The comparison drops whole pairs under an exhausted budget.
        let cmp = proclaimed_comparison(&tiny_base(), &sweep);
        assert!(cmp.points.is_empty());
        assert_eq!(cmp.skipped, vec!["sub-unsub", "MHH", "HB"]);
    }

    #[test]
    fn proclaimed_comparison_is_paired_and_helps_mhh() {
        let cmp = proclaimed_comparison(&dense_base(), &builtin(4));
        assert_eq!(cmp.rows().len(), 3);
        assert_eq!(cmp.points.len(), 6);
        assert!(cmp.skipped.is_empty());
        let reactive = cmp.cell("MHH", "reactive").expect("builtin");
        let proclaimed = cmp.cell("MHH", "proclaimed").expect("builtin");
        // Paired: identical move schedule on both sides.
        assert_eq!(reactive.result.handoffs, proclaimed.result.handoffs);
        assert_eq!(reactive.result.proclaimed_handoffs(), 0);
        assert_eq!(
            proclaimed.result.proclaimed_handoffs(),
            proclaimed.result.handoffs
        );
        // Migrating ahead of the client must shrink the disruption window.
        assert!(
            proclaimed.result.avg_handoff_delay_ms < reactive.result.avg_handoff_delay_ms,
            "proclaimed {} ms must beat reactive {} ms",
            proclaimed.result.avg_handoff_delay_ms,
            reactive.result.avg_handoff_delay_ms
        );
        let reduction = gap_reduction(&reactive.result, &proclaimed.result);
        assert!(reduction > 0.0);
        for half in [reactive, proclaimed] {
            assert_eq!(half.label("gap_reduction"), Some(&Label::Num(reduction)));
        }
        assert!(
            proclaimed.result.reliable(),
            "{:?}",
            proclaimed.result.audit
        );
    }

    #[test]
    fn failure_panel_runs_four_protocols_on_faulty_presets_and_reconciles() {
        use crate::config::FaultPlan;
        // Two tiny fault presets so the panel smoke-runs in seconds.
        let base = ScenarioConfig {
            duration_s: 200.0,
            ..tiny_base()
        };
        let presets = [
            Scenario {
                name: "tiny-crash",
                summary: "one mid-run broker crash",
                config: base.clone().with_faults(FaultPlan {
                    broker_crashes: vec![(5, 60.0, 90.0)],
                    ..FaultPlan::default()
                }),
            },
            Scenario {
                name: "tiny-partition",
                summary: "one mid-run link partition",
                config: base.with_faults(FaultPlan {
                    link_partitions: vec![(0, 1, 60.0, 120.0)],
                    ..FaultPlan::default()
                }),
            },
        ];
        let extended = sweep_of(ProtocolRegistry::extended(), 4);
        let panel = failure_panel(&presets, &extended);
        assert_eq!(panel.points.len(), 8, "2 presets × 4 protocols");
        assert!(panel.skipped.is_empty());
        assert_eq!(panel.rows(), ["tiny-crash", "tiny-partition"]);
        assert_eq!(panel.cols(), ["sub-unsub", "MHH", "HB", "PSVR"]);
        for p in &panel.points {
            assert_eq!(p.result.recovery.len(), 1, "one injected window");
            // Reconciliation is asserted inside the sweep; double-check the
            // invariant is really exact here too.
            assert!(p.result.recovery.reconciles_with(&p.result.audit));
        }
        // A budget of zero skips whole cells, never half-reports them.
        let starved = failure_panel(&presets, &starved(extended));
        assert!(starved.points.is_empty());
        assert_eq!(starved.skipped.len(), 8);
        assert!(starved.skipped.iter().any(|s| s.contains("PSVR")));
    }

    #[test]
    fn reliability_panel_trades_duplicates_for_retransmissions() {
        use crate::config::FaultPlan;
        // A shrunk lossy-crash-storm: same knobs, smaller world, so the
        // 3 modes × 4 protocols panel smoke-runs in seconds.
        let base = ScenarioConfig {
            duration_s: 300.0,
            publish_interval_s: 15.0,
            loss_rate: 0.02,
            corruption_rate: 0.005,
            dedup_window: 64,
            retransmit: true,
            checkpoint_replication_ms: 5_000,
            ..tiny_base()
        }
        .with_faults(FaultPlan {
            crash_storm: Some((3, 20.0)),
            ..FaultPlan::default()
        });
        let panel = reliability_panel(&base, &sweep_of(ProtocolRegistry::extended(), 4));
        assert_eq!(panel.points.len(), 12, "3 modes × 4 protocols");
        assert!(panel.skipped.is_empty());
        assert_eq!(panel.rows(), RELIABILITY_MODES.map(|(mode, _)| mode));
        assert_eq!(panel.cols(), ["sub-unsub", "MHH", "HB", "PSVR"]);
        for proto in panel.cols() {
            let baseline = &panel.cell("baseline", proto).unwrap().result;
            let dedup = &panel.cell("dedup", proto).unwrap().result;
            let full = &panel.cell("dedup+retransmit", proto).unwrap().result;
            // The baseline never suppresses or retransmits anything.
            assert_eq!(baseline.recovery.duplicates_suppressed, 0);
            assert_eq!(baseline.recovery.retransmissions, 0);
            // Dedup can only remove audited duplicates, never add them.
            assert!(
                dedup.audit.duplicates <= baseline.audit.duplicates,
                "{proto}: dedup {} vs baseline {}",
                dedup.audit.duplicates,
                baseline.audit.duplicates
            );
            assert_eq!(dedup.recovery.retransmissions, 0);
            // Retransmission really fires under 2% loss, and its duplicate
            // copies are absorbed by the dedup layer, not the subscribers.
            assert!(
                full.recovery.retransmissions > 0,
                "{proto}: lossy links must trigger retransmissions"
            );
            if proto == "PSVR" {
                // PSVR re-delivers events during ring stabilization on top
                // of the retransmit copies, so the bounded window can only
                // cap its duplicates, never zero them.
                assert!(
                    full.audit.duplicates <= baseline.audit.duplicates,
                    "{proto}: full {} vs baseline {}",
                    full.audit.duplicates,
                    baseline.audit.duplicates
                );
            } else {
                assert_eq!(
                    full.audit.duplicates, 0,
                    "{proto}: dedup must absorb retransmitted copies: {:?}",
                    full.audit
                );
            }
        }
    }

    #[test]
    fn registered_protocols_join_every_sweep() {
        use mhh_pubsub::{broker::NoProtocol, erase};
        let mut registry = ProtocolRegistry::builtin();
        registry.register(ProtocolSpec::new(
            "static",
            "static",
            "no mobility support",
            |_, _| Box::new(|_| erase(NoProtocol)),
        ));
        let matrix = mobility_matrix(
            &tiny_base(),
            &[ModelKind::UniformRandom],
            &sweep_of(registry, 2),
        );
        assert_eq!(matrix.points.len(), 4);
        assert_eq!(matrix.cols(), ["sub-unsub", "MHH", "HB", "static"]);
        assert!(matrix.cell(&ModelKind::UniformRandom, "static").is_some());
    }
}
