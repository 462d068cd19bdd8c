//! Plain-text and JSON reporting of experiment results.
//!
//! Every experiment returns a [`Panel`], so everything here is written once:
//! one row × column table (`pivot`) under all the per-metric panels, one
//! fixed-column table (`table`) under the per-protocol summaries, one
//! `skipped` footer, one JSON export ([`panel_json`]). The renderers differ
//! only in which tables they stack. Tables are fully data-driven: protocol
//! columns come from the points themselves (first-seen order = registry
//! order), so a figure or matrix run with extra registered protocols renders
//! extra columns without any change here.

use std::fmt::Write as _;

use mhh_pubsub::FanoutMode;

use crate::experiments::{gap_reduction, Label, Panel, HANDOVER_KINDS};
use crate::json::Json;
use crate::metrics::{HandoverKind, HandoverLedger, RecoveryLedger, RunResult, TrafficReport};

/// The one row × column table of the reports. `rows` are the formatted row
/// labels, right-aligned to `width`; `cell(i, col)` is the formatted value
/// at row `i` (`None` prints `-`). With a `corner` title the table gets a
/// header naming the columns and a rule, and cells are padded to 12; without
/// one (the compact reliability and handover-mix lines) each cell is closed
/// with ` |` instead.
fn pivot(
    out: &mut String,
    width: usize,
    corner: Option<&str>,
    rows: &[String],
    cols: &[&Label],
    cell: impl Fn(usize, &Label) -> Option<String>,
) {
    if let Some(corner) = corner {
        let _ = write!(out, "{corner:>width$}");
        for col in cols {
            let _ = write!(out, " | {col:>12}");
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{}", "-".repeat(width + cols.len() * 15));
    }
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(out, "{row:>width$}");
        if corner.is_none() {
            out.push_str(" |");
        }
        for col in cols {
            let value = cell(i, col).unwrap_or_else(|| "-".to_string());
            let _ = match corner {
                Some(_) => write!(out, " | {value:>12}"),
                None => write!(out, " {value} |"),
            };
        }
        let _ = writeln!(out);
    }
}

/// How one metric of a run prints in a table cell (`None` prints `-`).
type Metric = fn(&RunResult) -> Option<String>;

/// The paper's two metrics, as every panel prints them.
const OVERHEAD: Metric = |r| Some(format!("{:.1}", r.overhead_per_handoff));
const DELAY: Metric = |r| Some(format!("{:.1}", r.avg_handoff_delay_ms));

/// One titled metric of a panel as a [`pivot`] over the panel's own rows and
/// columns (a missing cell prints `-` too).
fn metric_table(
    out: &mut String,
    panel: &Panel,
    title: &str,
    width: usize,
    corner: Option<&str>,
    value: impl Fn(&RunResult) -> Option<String>,
) {
    let _ = writeln!(out, "-- {title} --");
    let rows = panel.rows();
    let names: Vec<String> = rows.iter().map(|row| row.to_string()).collect();
    pivot(out, width, corner, &names, &panel.cols(), |i, col| {
        panel.cell(rows[i], col).and_then(|p| value(&p.result))
    });
}

/// One value column of a fixed-layout table: its title, its width, and how
/// a row prints in it.
type Column<T> = (&'static str, usize, fn(&T) -> String);

/// The one fixed-column table of the reports. Every row is a name (under the
/// `lead` title and width) and a value the `columns` print; the titles and a
/// rule of `rule` dashes go first, every cell is right-aligned to its width.
fn table<T>(
    out: &mut String,
    rule: usize,
    lead: (&str, usize),
    columns: &[Column<T>],
    rows: &[(String, T)],
) {
    let (lead_title, lead_width) = lead;
    let _ = write!(out, "{lead_title:>lead_width$}");
    for &(title, width, _) in columns {
        let _ = write!(out, " | {title:>width$}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(rule));
    for (name, row) in rows {
        let _ = write!(out, "{name:>lead_width$}");
        for &(_, width, value) in columns {
            let _ = write!(out, " | {:>width$}", value(row));
        }
        let _ = writeln!(out);
    }
}

/// The closing line of a budgeted report that left cells out.
fn skipped_footer(out: &mut String, skipped: &[String]) {
    if !skipped.is_empty() {
        let _ = writeln!(
            out,
            "-- skipped (wall-clock budget exhausted): {} --",
            skipped.join(", ")
        );
    }
}

/// A ledger's first-delivery gap percentiles as `p50/p95/p99`.
fn gap_cell(ledger: &HandoverLedger) -> Option<String> {
    ledger
        .gap_percentiles_ms()
        .map(|g| format!("{:.0}/{:.0}/{:.0}", g.p50, g.p95, g.p99))
}

/// Whole milliseconds, or `-` when there is no sample.
fn opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.0}"))
}

/// Render one figure as fixed-width tables (overhead, mean-delay and
/// delay-percentile panels), in the same orientation as the paper's plots:
/// one row per x value, one column per protocol. Points that ran on a
/// non-grid topology announce it in the header.
pub fn render_figure(fig: &Panel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", fig.name);
    let mut topologies: Vec<String> = fig
        .points
        .iter()
        .filter_map(|p| Some(p.label("topology")?.to_string()))
        .collect();
    topologies.sort_unstable();
    topologies.dedup();
    if topologies.iter().any(|t| t != "grid") {
        let _ = writeln!(out, "-- topology: {} --", topologies.join(", "));
    }
    // (title, whether it gets the header row, the cell of a run).
    let tables: [(&str, bool, Metric); 4] = [
        ("(a) message overhead per handoff (hops)", true, OVERHEAD),
        ("(b) average handoff delay (ms)", true, DELAY),
        ("(c) first-delivery gap p50/p95/p99 (ms)", true, |r| {
            gap_cell(&r.ledger)
        }),
        (
            "reliability (lost / duplicated / out-of-order)",
            false,
            |r| {
                let a = &r.audit;
                Some(format!("{}/{}/{}", a.lost, a.duplicates, a.out_of_order))
            },
        ),
    ];
    for (title, headed, value) in tables {
        let corner = fig.x_label.as_deref().filter(|_| headed);
        metric_table(&mut out, fig, title, 28, corner, value);
    }
    // The handover-mix panel only appears when some run actually proclaimed
    // a move, so purely reactive figures render exactly as before.
    if fig
        .points
        .iter()
        .any(|p| p.result.proclaimed_handoffs() > 0)
    {
        let title = "handover mix (proclaimed/reactive)";
        metric_table(&mut out, fig, title, 28, None, |r| {
            let (proclaimed, reactive) = (r.proclaimed_handoffs(), r.reactive_handoffs());
            Some(format!("{proclaimed}/{reactive}"))
        });
    }
    skipped_footer(&mut out, &fig.skipped);
    out
}

/// Render the mobility-model × protocol matrix as fixed-width tables: one
/// row per model parameter point, one column per protocol, one table per
/// metric.
pub fn render_matrix(matrix: &Panel) -> String {
    let width = matrix
        .rows()
        .iter()
        .map(|model| model.to_string().len())
        .max()
        .unwrap_or(0)
        .max(20);
    let mut out = String::new();
    let _ = writeln!(out, "== mobility-model x protocol matrix ==");
    let metrics: [(&str, Metric); 3] = [
        ("message overhead per handoff (hops)", OVERHEAD),
        ("average handoff delay (ms)", DELAY),
        ("lost events", |r| {
            Some(format!("{:.1}", r.audit.lost as f64))
        }),
    ];
    for (title, metric) in metrics {
        metric_table(&mut out, matrix, title, width, Some("model"), metric);
    }
    out
}

/// Render the reactive-vs-proclaimed comparison as a fixed-width table: one
/// row per protocol, the paired per-handover first-delivery gaps, the
/// reduction the proclamation bought, and the paired overhead.
pub fn render_proclaimed(cmp: &Panel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== reactive (§4.2) vs proclaimed (§4.1) handovers ==");
    // [reactive, proclaimed] per protocol.
    let pairs: Vec<(String, [&RunResult; 2])> = cmp
        .rows()
        .into_iter()
        .filter_map(|protocol| {
            let [reactive, proclaimed] = HANDOVER_KINDS.map(|(kind, _)| cmp.cell(protocol, kind));
            let pair = [&reactive?.result, &proclaimed?.result];
            Some((protocol.to_string(), pair))
        })
        .collect();
    let columns: [Column<[&RunResult; 2]>; 5] = [
        ("reactive gap ms", 16, |[r, _]| {
            format!("{:.1}", r.avg_handoff_delay_ms)
        }),
        ("proclaimed gap ms", 17, |[_, p]| {
            format!("{:.1}", p.avg_handoff_delay_ms)
        }),
        ("reduction", 9, |[r, p]| {
            format!("{:.0}%", gap_reduction(r, p) * 100.0)
        }),
        ("reactive ovh", 14, |[r, _]| {
            format!("{:.1}", r.overhead_per_handoff)
        }),
        ("proclaimed ovh", 14, |[_, p]| {
            format!("{:.1}", p.overhead_per_handoff)
        }),
    ];
    table(&mut out, 96, ("protocol", 12), &columns, &pairs);
    // The tail the means hide: per-kind gap percentiles from the ledgers.
    let _ = writeln!(out, "-- first-delivery gap p50/p95/p99 (ms) --");
    let gaps = |r: &RunResult| gap_cell(&r.ledger).unwrap_or_else(|| "-".to_string());
    for (protocol, [reactive, proclaimed]) in &pairs {
        let _ = writeln!(
            out,
            "{protocol:>12} | reactive {:>16} | proclaimed {:>16}",
            gaps(reactive),
            gaps(proclaimed),
        );
    }
    skipped_footer(&mut out, &cmp.skipped);
    out
}

/// Render the failure panel as fixed-width tables: per fault preset, one
/// protocol-summary table (drops, losses, duplicates, time-to-repair) and
/// one per-outage table (each injected window's losses and observed
/// time-to-repair per protocol).
pub fn render_failure_panel(panel: &Panel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== failure & recovery panel ==");
    let columns: [Column<&RunResult>; 9] = [
        ("dropped", 8, |r| r.recovery.total_dropped().to_string()),
        ("lost", 6, |r| r.recovery.total_lost().to_string()),
        ("dup", 6, |r| r.recovery.total_duplicates().to_string()),
        ("suppressed", 10, |r| {
            r.recovery.duplicates_suppressed.to_string()
        }),
        ("retrans", 7, |r| r.recovery.retransmissions.to_string()),
        ("unattr l/d", 10, |r| {
            let rec = &r.recovery;
            format!("{}/{}", rec.unattributed_lost, rec.unattributed_duplicates)
        }),
        ("loss rate", 9, |r| format!("{:.2}%", r.loss_rate() * 100.0)),
        ("mean repair ms", 14, |r| {
            opt_ms(r.recovery.mean_repair_ms())
        }),
        ("max repair ms", 13, |r| opt_ms(r.recovery.max_repair_ms())),
    ];
    for scenario in panel.rows() {
        let _ = writeln!(out, "-- {scenario} --");
        let runs = Vec::from_iter(panel.cols().into_iter().filter_map(|protocol| {
            let cell = panel.cell(scenario, protocol)?;
            Some((protocol.to_string(), &cell.result))
        }));
        table(&mut out, 122, ("protocol", 12), &columns, &runs);
        // Loss-by-cause line, only when lossy links actually dropped
        // something (zero-loss panels render exactly as before).
        for (protocol, r) in &runs {
            let rec = &r.recovery;
            if rec.lost_envelopes > 0 || rec.corrupted > 0 {
                let _ = writeln!(
                    out,
                    "{protocol:>12} : link drops — {} lost, {} corrupted",
                    rec.lost_envelopes, rec.corrupted
                );
            }
            if rec.stale_resubscribes > 0 {
                let _ = writeln!(
                    out,
                    "{protocol:>12} : {} re-subscribes forced by stale checkpoint replicas",
                    rec.stale_resubscribes
                );
            }
        }
        // The injected schedule is identical for every protocol of a preset,
        // so row labels come from the first cell that has them.
        let Some((_, first)) = runs.first().filter(|(_, r)| !r.recovery.is_empty()) else {
            continue;
        };
        let _ = writeln!(out, "-- {scenario}: per-outage lost / repair ms --");
        let outages: Vec<String> = first
            .recovery
            .records
            .iter()
            .map(|o| {
                let secs = |t: mhh_simnet::SimTime| t.as_millis_f64() / 1_000.0;
                let (start, end) = (secs(o.start), secs(o.end));
                format!("{} {} [{start:.0}s,{end:.0}s)", o.kind, o.scope)
            })
            .collect();
        pivot(
            &mut out,
            34,
            Some("outage"),
            &outages,
            &panel.cols(),
            |i, col| {
                let outage = panel.cell(scenario, col)?.result.recovery.records.get(i)?;
                Some(format!("{} / {}", outage.lost, opt_ms(outage.repair_ms)))
            },
        );
    }
    skipped_footer(&mut out, &panel.skipped);
    out
}

/// Render the reliability panel as one fixed-width trade-off table per
/// protocol: a row per reliability mode (baseline / dedup /
/// dedup+retransmit) with the audited losses and duplicates, the broker's
/// suppression work, the publisher's retransmission work and the per-cause
/// drop accounting — the end-to-end delivery-guarantee trade-off at a
/// glance.
pub fn render_reliability_panel(panel: &Panel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== reliability trade-off panel (lossy links) ==");
    let columns: [Column<&RunResult>; 8] = [
        ("lost", 6, |r| r.audit.lost.to_string()),
        ("dup", 6, |r| r.audit.duplicates.to_string()),
        ("suppressed", 10, |r| {
            r.recovery.duplicates_suppressed.to_string()
        }),
        ("retrans", 7, |r| r.recovery.retransmissions.to_string()),
        ("link l/c", 10, |r| {
            format!("{}/{}", r.recovery.lost_envelopes, r.recovery.corrupted)
        }),
        ("resubs", 9, |r| r.recovery.stale_resubscribes.to_string()),
        ("dropped", 7, |r| r.recovery.total_dropped().to_string()),
        ("deliv msgs", 12, |r| r.delivered_messages.to_string()),
    ];
    for protocol in panel.cols() {
        let _ = writeln!(out, "-- {protocol} --");
        let modes = panel.rows().into_iter().filter_map(|mode| {
            let cell = panel.cell(mode, protocol)?;
            Some((mode.to_string(), &cell.result))
        });
        table(
            &mut out,
            106,
            ("mode", 17),
            &columns,
            &Vec::from_iter(modes),
        );
    }
    skipped_footer(&mut out, &panel.skipped);
    out
}

/// Render the traffic panel as fixed-width tables: per storm preset, one
/// row per fan-out mode (serialize-once cached vs clone-per-destination)
/// with delivery and serialization byte counters, followed by the cached
/// path's savings factors. Delivery columns are identical between modes by
/// construction — the panel asserts it — so the table makes the
/// accounting-only nature of the cache visible at a glance.
pub fn render_traffic(panel: &Panel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== payload traffic panel (mhh) ==");
    let ratio = |clone: u64, cached: u64| -> String {
        if cached == 0 {
            if clone == 0 { "-" } else { "inf" }.to_string()
        } else {
            format!("{:.1}x", clone as f64 / cached as f64)
        }
    };
    let columns: [Column<&RunResult>; 7] = [
        ("delivered", 9, |r| r.delivered_messages.to_string()),
        ("deliv bytes", 12, |r| r.traffic.delivery_bytes.to_string()),
        ("fanouts", 8, |r| r.traffic.fanouts.to_string()),
        ("serialize", 10, |r| r.traffic.serializations.to_string()),
        ("bytes ser", 12, |r| r.traffic.bytes_serialized.to_string()),
        ("allocs", 10, |r| r.traffic.fanout_allocs.to_string()),
        ("cache hits", 10, |r| r.traffic.cache_hits.to_string()),
    ];
    for scenario in panel.rows() {
        let _ = writeln!(out, "-- {scenario} --");
        // Cached first, whichever cell a budgeted sweep finished first.
        let modes = [FanoutMode::Cached, FanoutMode::CloneBaseline].map(FanoutMode::label);
        let runs = Vec::from_iter(modes.iter().filter_map(|mode| {
            let cell = panel.cell(scenario, *mode)?;
            Some((mode.to_string(), &cell.result))
        }));
        table(&mut out, 98, ("mode", 8), &columns, &runs);
        if let [(_, cached), (_, clone)] = runs[..] {
            let (ct, bt) = (&cached.traffic, &clone.traffic);
            let _ = writeln!(
                out,
                "   cached saves: {} fewer fan-out allocations, {} fewer bytes serialized",
                ratio(bt.fanout_allocs, ct.fanout_allocs),
                ratio(bt.bytes_serialized, ct.bytes_serialized),
            );
            if ct.buffered_bytes_peak > 0 || ct.checkpoint_bytes_peak > 0 {
                let _ = writeln!(
                    out,
                    "   memory high-water: buffered {} B, checkpoints {} B",
                    ct.buffered_bytes_peak, ct.checkpoint_bytes_peak
                );
            }
        }
    }
    skipped_footer(&mut out, &panel.skipped);
    out
}

/// JSON document for one run's metrics, including the ledger-derived
/// handover summary (counts per kind, mean first-delivery gap per kind,
/// p50/p95/p99 gap percentiles overall and per kind, buffered catch-ups).
pub fn run_result_json(r: &RunResult) -> Json {
    let gap = |kind| r.mean_gap_ms(kind).map(Json::Num).unwrap_or(Json::Null);
    let pct = |p: Option<crate::metrics::GapPercentiles>| match p {
        Some(g) => Json::obj(vec![
            ("p50", Json::Num(g.p50)),
            ("p95", Json::Num(g.p95)),
            ("p99", Json::Num(g.p99)),
        ]),
        None => Json::Null,
    };
    let kind_pct = |kind| pct(r.ledger.kind_gap_percentiles_ms(kind));
    Json::obj(vec![
        ("protocol", Json::str(&r.protocol)),
        ("handoffs", Json::UInt(r.handoffs)),
        ("mobility_hops", Json::UInt(r.mobility_hops)),
        ("overhead_per_handoff", Json::Num(r.overhead_per_handoff)),
        ("avg_handoff_delay_ms", Json::Num(r.avg_handoff_delay_ms)),
        ("delay_samples", Json::UInt(r.delay_samples)),
        ("gap_percentiles_ms", pct(r.ledger.gap_percentiles_ms())),
        (
            "handover",
            Json::obj(vec![
                ("proclaimed", Json::UInt(r.proclaimed_handoffs())),
                ("reactive", Json::UInt(r.reactive_handoffs())),
                ("proclaimed_gap_ms", gap(HandoverKind::Proclaimed)),
                ("reactive_gap_ms", gap(HandoverKind::Reactive)),
                (
                    "proclaimed_gap_percentiles_ms",
                    kind_pct(HandoverKind::Proclaimed),
                ),
                (
                    "reactive_gap_percentiles_ms",
                    kind_pct(HandoverKind::Reactive),
                ),
                ("buffered", Json::UInt(r.ledger.total_buffered())),
                ("ledger_lost", Json::UInt(r.ledger.total_lost())),
                ("ledger_duplicates", Json::UInt(r.ledger.total_duplicates())),
            ]),
        ),
        (
            "audit",
            Json::obj(vec![
                ("expected", Json::UInt(r.audit.expected)),
                ("delivered", Json::UInt(r.audit.delivered)),
                ("duplicates", Json::UInt(r.audit.duplicates)),
                ("pending", Json::UInt(r.audit.pending)),
                ("lost", Json::UInt(r.audit.lost)),
                ("out_of_order", Json::UInt(r.audit.out_of_order)),
            ]),
        ),
        ("recovery", recovery_json(&r.recovery)),
        ("published", Json::UInt(r.published)),
        ("delivered_messages", Json::UInt(r.delivered_messages)),
        ("total_hops", Json::UInt(r.total_hops)),
        ("sim_duration_s", Json::Num(r.sim_duration_s)),
        ("traffic", traffic_json(&r.traffic)),
    ])
}

/// JSON document for one run's byte accounting. `Null` when payload
/// modeling was off (every counter zero), so classic paper-figure exports
/// stay clean.
pub fn traffic_json(t: &TrafficReport) -> Json {
    if *t == TrafficReport::default() {
        return Json::Null;
    }
    Json::obj(vec![
        ("delivery_bytes", Json::UInt(t.delivery_bytes)),
        ("total_wire_bytes", Json::UInt(t.total_wire_bytes)),
        ("fanouts", Json::UInt(t.fanouts)),
        ("serializations", Json::UInt(t.serializations)),
        ("bytes_serialized", Json::UInt(t.bytes_serialized)),
        ("fanout_allocs", Json::UInt(t.fanout_allocs)),
        ("cache_hits", Json::UInt(t.cache_hits)),
        ("buffered_bytes_peak", Json::UInt(t.buffered_bytes_peak)),
        ("checkpoint_bytes_peak", Json::UInt(t.checkpoint_bytes_peak)),
        ("dedup_bytes_peak", Json::UInt(t.dedup_bytes_peak)),
    ])
}

/// JSON document for one run's per-outage recovery ledger. `Null` for
/// zero-fault runs, so fault-free figure exports stay clean.
pub fn recovery_json(ledger: &RecoveryLedger) -> Json {
    if ledger.is_empty() {
        return Json::Null;
    }
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Json::obj(vec![
        (
            "outages",
            Json::Arr(
                ledger
                    .records
                    .iter()
                    .map(|o| {
                        Json::obj(vec![
                            ("kind", Json::str(o.kind)),
                            ("scope", Json::str(&o.scope)),
                            ("start_ms", Json::Num(o.start.as_millis_f64())),
                            ("end_ms", Json::Num(o.end.as_millis_f64())),
                            ("outage_ms", Json::Num(o.outage_ms())),
                            ("dropped_envelopes", Json::UInt(o.dropped_envelopes)),
                            ("lost", Json::UInt(o.lost)),
                            ("duplicates", Json::UInt(o.duplicates)),
                            ("repair_ms", opt(o.repair_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("unattributed_lost", Json::UInt(ledger.unattributed_lost)),
        (
            "unattributed_duplicates",
            Json::UInt(ledger.unattributed_duplicates),
        ),
        ("lost_envelopes", Json::UInt(ledger.lost_envelopes)),
        ("corrupted", Json::UInt(ledger.corrupted)),
        (
            "duplicates_suppressed",
            Json::UInt(ledger.duplicates_suppressed),
        ),
        ("retransmissions", Json::UInt(ledger.retransmissions)),
        ("stale_resubscribes", Json::UInt(ledger.stale_resubscribes)),
        ("total_dropped", Json::UInt(ledger.total_dropped())),
        ("total_lost", Json::UInt(ledger.total_lost())),
        ("total_duplicates", Json::UInt(ledger.total_duplicates())),
        ("mean_repair_ms", opt(ledger.mean_repair_ms())),
        ("max_repair_ms", opt(ledger.max_repair_ms())),
    ])
}

/// Serialise one ledger as a JSON array of per-handover records (times in
/// milliseconds), the raw material for external plotting of gap
/// distributions (`--dump-ledger`).
pub fn ledger_json(ledger: &HandoverLedger) -> Json {
    Json::Arr(
        ledger
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("client", Json::UInt(r.client.0 as u64)),
                    (
                        "kind",
                        Json::str(match r.kind {
                            HandoverKind::Proclaimed => "proclaimed",
                            HandoverKind::Reactive => "reactive",
                        }),
                    ),
                    ("from", Json::UInt(r.from.0 as u64)),
                    ("to", Json::UInt(r.to.0 as u64)),
                    ("departed_ms", Json::Num(r.departed.as_millis_f64())),
                    ("arrived_ms", Json::Num(r.arrived.as_millis_f64())),
                    (
                        "first_delivery_gap_ms",
                        r.first_delivery_gap_ms()
                            .map(Json::Num)
                            .unwrap_or(Json::Null),
                    ),
                    ("is_handoff", Json::Bool(r.is_handoff)),
                    ("buffered", Json::UInt(r.buffered)),
                    ("lost", Json::UInt(r.lost)),
                    ("duplicates", Json::UInt(r.duplicates)),
                ])
            })
            .collect(),
    )
}

/// What of each run a panel document carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// The full metrics of every run under `"result"` ([`run_result_json`]),
    /// and the panel's `skipped` list, so a truncated sweep is
    /// distinguishable from a complete one. This is what `reproduce_figures`
    /// writes next to EXPERIMENTS.md so the numbers in the write-up can be
    /// regenerated.
    Results,
    /// Only the per-handover records of every run under `"ledger"`
    /// ([`ledger_json`]): the `--dump-ledger` export for external plotting.
    Ledgers,
}

/// Serialise a panel to pretty JSON: a figure's `name` and `x_label`, then
/// one object per point — its labels in order, then its run as `projection`
/// says. A [`paired`](Panel::paired) panel writes one object per row
/// instead: the labels of the row's first point (the column axis left out),
/// then every column's run under the column's label.
pub fn panel_json(panel: &Panel, projection: Projection) -> String {
    let (run_key, run): (&str, fn(&RunResult) -> Json) = match projection {
        Projection::Results => ("result", run_result_json),
        Projection::Ledgers => ("ledger", |r| ledger_json(&r.ledger)),
    };
    let [row_key, col_key] = panel.axes;
    let mut objects: Vec<Vec<(String, Json)>> = Vec::new();
    let mut open_row = None;
    for point in &panel.points {
        // A paired panel keeps one object open per row (a row's points are
        // adjacent) and files each run under its column's label.
        let column = point.label(col_key).filter(|_| panel.paired);
        if column.is_none() || open_row != point.label(row_key) {
            open_row = point.label(row_key);
            let labels = point
                .labels
                .iter()
                .filter(|(key, _)| !(panel.paired && *key == col_key));
            objects.push(Vec::from_iter(labels.map(|(key, label)| {
                let value = match label {
                    Label::Num(x) => Json::Num(*x),
                    Label::Text(s) => Json::str(s),
                };
                (key.to_string(), value)
            })));
        }
        let key = column.map_or_else(|| run_key.to_string(), Label::to_string);
        let object = objects.last_mut().expect("an object is open");
        object.push((key, run(&point.result)));
    }
    let points = objects.into_iter().map(Json::Obj).collect();
    let mut doc = Vec::new();
    if let Some(x_label) = &panel.x_label {
        doc.push(("name", Json::str(&panel.name)));
        doc.push(("x_label", Json::str(x_label)));
    }
    doc.push(("points", Json::Arr(points)));
    if projection == Projection::Results {
        let skipped = panel.skipped.iter().map(Json::str).collect();
        doc.push(("skipped", Json::Arr(skipped)));
    }
    Json::obj(doc).pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::experiments::{
        failure_panel, figure5, mobility_matrix, proclaimed_comparison, Sweep,
    };
    use crate::protocols::ProtocolRegistry;
    use mhh_mobility::ModelKind;

    fn base() -> ScenarioConfig {
        ScenarioConfig {
            grid_side: 3,
            clients_per_broker: 2,
            mobile_fraction: 0.5,
            conn_mean_s: 20.0,
            disc_mean_s: 20.0,
            publish_interval_s: 10.0,
            duration_s: 120.0,
            seed: 1,
            ..ScenarioConfig::paper_defaults()
        }
    }

    fn builtin(workers: usize) -> Sweep {
        Sweep {
            registry: ProtocolRegistry::builtin(),
            workers,
            budget: None,
        }
    }

    #[test]
    fn render_contains_all_protocols_and_x_values() {
        let fig = figure5(&base(), &[10.0, 50.0], &builtin(4));
        let text = render_figure(&fig);
        assert!(text.contains("MHH"));
        assert!(text.contains("sub-unsub"));
        assert!(text.contains("HB"));
        assert!(text.contains("10"));
        assert!(text.contains("50"));
        let json = panel_json(&fig, Projection::Results);
        assert!(json.contains("\"figure5\""));
    }

    #[test]
    fn proclaimed_runs_render_the_handover_dimension() {
        let proclaimed_base = base().with_proclaimed_fraction(1.0);
        let fig = figure5(&proclaimed_base, &[20.0], &builtin(2));
        let text = render_figure(&fig);
        assert!(
            text.contains("handover mix"),
            "proclaimed figure renders the mix panel:\n{text}"
        );
        let json = panel_json(&fig, Projection::Results);
        assert!(json.contains("\"proclaimed\""), "{json}");
        assert!(json.contains("\"proclaimed_gap_ms\""), "{json}");
        assert!(json.contains("\"skipped\": []"), "{json}");

        // Purely reactive figures render without the panel.
        let reactive = figure5(&base(), &[20.0], &builtin(2));
        assert!(!render_figure(&reactive).contains("handover mix"));

        let cmp = proclaimed_comparison(&base(), &builtin(2));
        let table = render_proclaimed(&cmp);
        assert!(
            table.contains("MHH") && table.contains("reduction"),
            "{table}"
        );
        let cjson = panel_json(&cmp, Projection::Results);
        assert!(cjson.contains("\"gap_reduction\""));
    }

    #[test]
    fn failure_panel_renders_outage_tables_and_json_recovery_sections() {
        use crate::config::FaultPlan;
        use crate::scenarios::Scenario;
        let preset = Scenario {
            name: "tiny-crash",
            summary: "one mid-run crash",
            config: base().with_faults(FaultPlan {
                broker_crashes: vec![(4, 30.0, 50.0)],
                ..FaultPlan::default()
            }),
        };
        let extended = Sweep {
            registry: ProtocolRegistry::extended(),
            ..builtin(4)
        };
        let panel = failure_panel(&[preset], &extended);
        let text = render_failure_panel(&panel);
        assert!(text.contains("failure & recovery panel"), "{text}");
        assert!(text.contains("tiny-crash"), "{text}");
        assert!(text.contains("PSVR"), "{text}");
        assert!(text.contains("crash broker 4"), "{text}");
        assert!(text.contains("mean repair ms"), "{text}");
        let json = panel_json(&panel, Projection::Results);
        assert!(json.contains("\"recovery\""), "{json}");
        assert!(json.contains("\"repair_ms\""), "{json}");
        assert!(json.contains("\"dropped_envelopes\""), "{json}");
        assert!(json.contains("\"skipped\": []"), "{json}");
        // Zero-fault runs export a null recovery section.
        let fig = figure5(&base(), &[20.0], &builtin(2));
        let fig_json = panel_json(&fig, Projection::Results);
        assert!(fig_json.contains("\"recovery\": null"), "{fig_json}");
    }

    #[test]
    fn matrix_rows_carry_parameter_points() {
        let models = [
            ModelKind::RandomWaypoint { pause_mean_s: 5.0 },
            ModelKind::RandomWaypoint { pause_mean_s: 50.0 },
        ];
        let matrix = mobility_matrix(&base(), &models, &builtin(4));
        let text = render_matrix(&matrix);
        assert!(text.contains("random-waypoint(pause=5s)"), "{text}");
        assert!(text.contains("random-waypoint(pause=50s)"), "{text}");
        let json = panel_json(&matrix, Projection::Results);
        assert!(json.contains("\"random-waypoint(pause=5s)\""));
        assert!(json.contains("\"model\": \"random-waypoint\""));
    }
}
