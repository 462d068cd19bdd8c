//! The metric tables — the single source `BENCHMARK.json` is generated
//! from (`mhh-benchmark manifest`; a test keeps the checked-in file equal).

use mhh_mobsim::json::Json;

use crate::workloads::WORKLOADS;

/// Seconds one contract-mode run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported per workload by the timed rounds.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

/// A per-layer metric: reported per workload by the traced pass, no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<crate>.<module>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric, defined on all five workloads and never 0.
///
/// Each bound is three times the widest quartile spread its metric showed
/// over ten seeds on the reference host, capped at 25 %: host times there
/// spread 5–11 % even in reference seconds (a shared 2-core VM), and the
/// simulated metrics repeat exactly for a seed but move 2–4 % with the
/// seed's workload and crash storm.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("run_wall_s", "s", Better::Lower, 0.25),
    e2e("deliveries_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
    e2e("audited_delivery_share", "share", Better::Higher, 0.12),
    e2e("sim_hops_per_delivery", "hops", Better::Lower, 0.12),
    e2e("points_ok_share", "share", Better::Higher, 0.001),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every per-layer metric. `README.md` lists which end-to-end metric each
/// should move, on which workload.
pub const PER_LAYER: &[PerLayer] = &[
    // Staged pipeline: one span per call into a layer.
    layer("simnet.topology.build_s", "s", Better::Lower),
    layer("mobsim.workload.generate_s", "s", Better::Lower),
    layer("mobsim.workload.timeline_entries", "count", Better::Lower),
    layer("pubsub.deployment.build_s", "s", Better::Lower),
    layer("simnet.engine.run_s", "s", Better::Lower),
    layer("mobsim.runner.gather_logs_s", "s", Better::Lower),
    layer("pubsub.delivery.audit_s", "s", Better::Lower),
    layer("mobsim.metrics.handover_ledger_s", "s", Better::Lower),
    layer("mobsim.metrics.recovery_ledger_s", "s", Better::Lower),
    layer("mobsim.report.render_s", "s", Better::Lower),
    layer("pubsub.deployment.drop_s", "s", Better::Lower),
    // Inside the engine span, from the engine's own phase profile.
    layer("simnet.engine.queue_s", "s", Better::Lower),
    layer("simnet.engine.clocks_s", "s", Better::Lower),
    layer("simnet.engine.stats_s", "s", Better::Lower),
    layer("pubsub.broker.handler_s", "s", Better::Lower),
    layer("simnet.engine.envelopes", "count", Better::Lower),
    layer("simnet.engine.peak_queue_depth", "count", Better::Lower),
    layer("simnet.engine.alloc_events", "count", Better::Lower),
    layer("simnet.faults.dropped_envelopes", "count", Better::Lower),
    // Kernels that split the handler bucket, on inputs from the workload.
    layer("pubsub.filter_table.match_ns", "ns", Better::Lower),
    layer("pubsub.filter_table.update_ns", "ns", Better::Lower),
    layer("pubsub.filter_table.cover_ns", "ns", Better::Lower),
    layer("pubsub.wire.render_ns", "ns", Better::Lower),
    layer("pubsub.wire.share_ns", "ns", Better::Lower),
    layer("simnet.engine.ring_events_per_s", "1/s", Better::Higher),
    layer("simnet.engine.burst_events_per_s", "1/s", Better::Higher),
    // Exact counts from the untraced run's `RunResult`s.
    layer("pubsub.wire.serializations", "count", Better::Lower),
    layer("pubsub.wire.cache_hits", "count", Better::Higher),
    layer("pubsub.wire.bytes_serialized", "bytes", Better::Lower),
    layer("pubsub.wire.fanout_allocs", "count", Better::Lower),
    layer(
        "pubsub.broker.duplicates_suppressed",
        "count",
        Better::Higher,
    ),
    layer("pubsub.client.retransmissions", "count", Better::Lower),
    layer("pubsub.repair.stale_resubscribes", "count", Better::Lower),
    layer("mobsim.metrics.lost_envelopes", "count", Better::Lower),
    layer("mobsim.metrics.corrupted", "count", Better::Lower),
    layer("protocol.mhh.mobility_hops", "hops", Better::Lower),
    layer("protocol.mhh.total_hops", "hops", Better::Lower),
    layer("protocol.sub-unsub.mobility_hops", "hops", Better::Lower),
    layer("protocol.sub-unsub.total_hops", "hops", Better::Lower),
    layer("protocol.home-broker.mobility_hops", "hops", Better::Lower),
    layer("protocol.home-broker.total_hops", "hops", Better::Lower),
    // The handoff price and the paper's two y-axes (0 on the storms, which
    // have no mobility — the reason they are not end-to-end metrics).
    layer("protocol.handoffs", "count", Better::Higher),
    layer("protocol.handoffs_per_s", "1/s", Better::Higher),
    layer("protocol.sim_handoff_delay_ms", "sim_ms", Better::Lower),
    layer("protocol.sim_hops_per_handoff", "hops", Better::Lower),
    // Ratios the roadmap asks to have re-measured (0 = not measured on this
    // workload).
    layer("simnet.parallel.k2_wall_ratio", "ratio", Better::Lower),
    layer(
        "mobsim.runner.dyn_over_generic_ratio",
        "ratio",
        Better::Lower,
    ),
    // The trace itself.
    layer("trace.staged_wall_s", "s", Better::Lower),
    layer("trace.untraced_wall_s", "s", Better::Lower),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
    layer("trace.stage_coverage", "share", Better::Higher),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let doc = Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "mhh-benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["mhh-benchmark"])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.pretty() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(well_formed(name, 64), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            let ok = !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            assert!(ok, "bad unit {unit:?}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(),
            "regenerate with `mhh-benchmark manifest > BENCHMARK.json`"
        );
    }
}
