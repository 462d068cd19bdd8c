//! The traced pass: one pass per workload, never part of the timed rounds.
//! It runs the workload untraced once (the reference result and wall
//! time), drives the first point through the staged pipeline with a span
//! per stage, times the kernels that split the broker-handler bucket on
//! inputs captured from the workload, and re-measures the two ratios the
//! roadmap asks about. Every layer is measured from outside, by timing
//! calls into its public functions.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mhh_bench::engine_micro::{burst_new, ring_new};
use mhh_mobsim::json::Json;
use mhh_mobsim::{run_scenario, run_spec, Protocol, ProtocolRegistry, ProtocolSpec, RunResult};
use mhh_pubsub::{BrokerId, CachedEvent, ClientAction, ClientId, Event, Filter, FilterTable, Peer};

use crate::body::check_point;
use crate::metrics::PER_LAYER;
use crate::spans::SpanLog;
use crate::staged;
use crate::workloads::{Point, Workload};

/// Host time each kernel is timed for (a call is a few ns to a few µs, so
/// this is ≥100 k calls except where one call costs more than 4 µs).
const KERNEL_BUDGET: Duration = Duration::from_millis(400);

/// Entries in the kernels' filter table: the size of `city-scale`'s tables.
const KERNEL_TABLE_ENTRIES: usize = 2_048;

/// The staged pipeline's per-layer metrics; each is the seconds of the span
/// named like it without the `_s`.
const STAGE_METRICS: [&str; 10] = [
    "simnet.topology.build_s",
    "mobsim.workload.generate_s",
    "pubsub.deployment.build_s",
    "simnet.engine.run_s",
    "mobsim.runner.gather_logs_s",
    "pubsub.delivery.audit_s",
    "mobsim.metrics.handover_ledger_s",
    "mobsim.metrics.recovery_ledger_s",
    "mobsim.report.render_s",
    "pubsub.deployment.drop_s",
];

/// What the traced pass of one workload produced.
pub struct TraceReport {
    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Simulation points run by the pass.
    pub attempted: u64,
    /// Points that failed their check (each is named on stderr).
    pub failed: u64,
    /// Where the span file was written.
    pub span_file: PathBuf,
}

/// Nanoseconds per call of `call`, timed for `budget`; `call` gets the
/// running call index to pick its input with.
fn ns_per_call(budget: Duration, mut call: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    loop {
        for _ in 0..64 {
            call(calls);
            calls += 1;
        }
        if started.elapsed() >= budget {
            return started.elapsed().as_nanos() as f64 / calls as f64;
        }
    }
}

/// Deliveries per second of an engine micro-workload, repeated for `budget`.
fn events_per_s(budget: Duration, mut run: impl FnMut() -> u64) -> f64 {
    let started = Instant::now();
    let mut deliveries = 0u64;
    loop {
        deliveries += black_box(run());
        if started.elapsed() >= budget {
            return deliveries as f64 / started.elapsed().as_secs_f64();
        }
    }
}

/// The kernels, on the workload's own client filters and published events.
fn kernels(
    filters: &[Filter],
    events: &[Event],
    budget: Duration,
    log: &mut SpanLog,
    out: &mut Vec<(&'static str, f64)>,
) {
    let root = log.enter("trace.kernels");
    let filters = &filters[..filters.len().min(KERNEL_TABLE_ENTRIES)];
    let mut table = FilterTable::new();
    for (i, f) in filters.iter().enumerate() {
        table.add(Peer::Client(ClientId(i as u32)), f.clone());
    }
    let upstream = Peer::Broker(BrokerId(u32::MAX));
    let newcomer = Peer::Client(ClientId(u32::MAX));

    let match_ns = log.time("pubsub.filter_table.match", || {
        ns_per_call(budget, |i| {
            let event = black_box(&events[i % events.len()]);
            black_box(table.matching_targets(event, upstream));
        })
    });
    let update_ns = log.time("pubsub.filter_table.update", || {
        ns_per_call(budget, |i| {
            let filter = &filters[i % filters.len()];
            black_box(table.add(newcomer, filter.clone()));
            black_box(table.remove(newcomer, filter));
        })
    });
    let cover_ns = log.time("pubsub.filter_table.cover", || {
        ns_per_call(budget, |i| {
            let k = i % filters.len();
            black_box(table.covered_by_other(&filters[k], Peer::Client(ClientId(k as u32))));
        })
    });
    let render_ns = log.time("pubsub.wire.render", || {
        ns_per_call(budget, |i| {
            black_box(CachedEvent::render(black_box(&events[i % events.len()])));
        })
    });
    // Sharing needs rendered events; payload-free workloads have none.
    let rendered: Vec<CachedEvent> = events
        .iter()
        .take(256)
        .filter_map(CachedEvent::render)
        .collect();
    let share_ns = if rendered.is_empty() {
        0.0
    } else {
        log.time("pubsub.wire.share", || {
            ns_per_call(budget, |i| {
                let shared = rendered[i % rendered.len()].share();
                black_box(shared.patch_header(i as u32));
                black_box(shared);
            })
        })
    };
    let ring = log.time("simnet.engine.ring", || {
        events_per_s(budget, || ring_new(16, 100_000))
    });
    let burst = log.time("simnet.engine.burst", || {
        events_per_s(budget, || burst_new(64, 400, 128))
    });
    log.exit(root);

    out.extend([
        ("pubsub.filter_table.match_ns", match_ns),
        ("pubsub.filter_table.update_ns", update_ns),
        ("pubsub.filter_table.cover_ns", cover_ns),
        ("pubsub.wire.render_ns", render_ns),
        ("pubsub.wire.share_ns", share_ns),
        ("simnet.engine.ring_events_per_s", ring),
        ("simnet.engine.burst_events_per_s", burst),
    ]);
}

fn generic_protocol(name: &str) -> Protocol {
    Protocol::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .unwrap_or_else(|| panic!("{name} has no generic-path twin"))
}

/// `<target dir>/bench/trace-<workload>.json`, next to the build that ran.
fn span_file(workload: &Workload) -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .expect("the binary sits in <target>/<profile>/");
    target
        .join("bench")
        .join(format!("trace-{}.json", workload.name))
}

/// The state one traced pass accumulates.
struct Pass {
    workload: &'static Workload,
    log: SpanLog,
    metrics: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    /// Count one simulation point and, if its check failed, say why.
    fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            eprintln!("{} [{what}]: {why}", self.workload.name);
        }
    }

    /// [`check`](Self::check) that `result` replays `reference` exactly.
    fn check_same(&mut self, what: &str, result: &RunResult, reference: &RunResult) {
        let same = format!("{result:?}") == format!("{reference:?}");
        self.check(
            what,
            same.then_some(()).ok_or_else(|| {
                format!(
                    "did not reproduce run_spec: audit {:?} handoffs {} delivered {}, \
                     run_spec audit {:?} handoffs {} delivered {}",
                    result.audit,
                    result.handoffs,
                    result.delivered_messages,
                    reference.audit,
                    reference.handoffs,
                    reference.delivered_messages
                )
            }),
        );
    }

    /// The staged, profiled pass of `point`, which must reproduce `reference`.
    fn staged(&mut self, point: &Point, spec: &ProtocolSpec, reference: &RunResult) {
        let root = self.log.enter("trace.staged");
        let staged = staged::run(&point.config, spec, &mut self.log);
        self.log.exit(root);
        self.check_same("staged", &staged.result, reference);

        let wall_s = self.log.spans()[root].secs();
        let untraced_s = self.log.secs_of("mobsim.runner.run_spec");
        let coverage = 1.0 - self.log.self_ns(root) as f64 / (wall_s * 1e9);
        for metric in STAGE_METRICS {
            let stage = metric
                .strip_suffix("_s")
                .expect("stage metrics are seconds");
            self.metrics.push((metric, self.log.secs_of(stage)));
        }
        let ns = |v: u64| v as f64 / 1e9;
        self.metrics.extend([
            (
                "mobsim.workload.timeline_entries",
                staged.timeline_entries as f64,
            ),
            ("simnet.engine.queue_s", ns(staged.phases.queue_ns)),
            ("simnet.engine.clocks_s", ns(staged.phases.clocks_ns)),
            ("simnet.engine.stats_s", ns(staged.phases.stats_ns)),
            ("pubsub.broker.handler_s", ns(staged.phases.protocol_ns)),
            ("simnet.engine.envelopes", staged.perf.deliveries as f64),
            (
                "simnet.engine.peak_queue_depth",
                staged.perf.peak_queue_depth as f64,
            ),
            (
                "simnet.engine.alloc_events",
                staged.perf.alloc_events as f64,
            ),
            (
                "simnet.faults.dropped_envelopes",
                staged.dropped_envelopes as f64,
            ),
            ("trace.staged_wall_s", wall_s),
            ("trace.untraced_wall_s", untraced_s),
            ("trace.overhead_ratio", wall_s / untraced_s),
            ("trace.stage_coverage", coverage),
        ]);
    }

    /// Exact counts from the untraced body's results (`body_s` its wall).
    fn counts(&mut self, points: &[Point], results: &[RunResult], body_s: f64) {
        let sum = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
        self.metrics.extend([
            (
                "pubsub.wire.serializations",
                sum(|r| r.traffic.serializations),
            ),
            ("pubsub.wire.cache_hits", sum(|r| r.traffic.cache_hits)),
            (
                "pubsub.wire.bytes_serialized",
                sum(|r| r.traffic.bytes_serialized),
            ),
            (
                "pubsub.wire.fanout_allocs",
                sum(|r| r.traffic.fanout_allocs),
            ),
            (
                "pubsub.broker.duplicates_suppressed",
                sum(|r| r.recovery.duplicates_suppressed),
            ),
            (
                "pubsub.client.retransmissions",
                sum(|r| r.recovery.retransmissions),
            ),
            (
                "pubsub.repair.stale_resubscribes",
                sum(|r| r.recovery.stale_resubscribes),
            ),
            (
                "mobsim.metrics.lost_envelopes",
                sum(|r| r.recovery.lost_envelopes),
            ),
            ("mobsim.metrics.corrupted", sum(|r| r.recovery.corrupted)),
            ("protocol.handoffs", sum(|r| r.handoffs)),
            ("protocol.handoffs_per_s", sum(|r| r.handoffs) / body_s),
            // Every workload's first point is MHH.
            (
                "protocol.sim_handoff_delay_ms",
                results[0].avg_handoff_delay_ms,
            ),
            (
                "protocol.sim_hops_per_handoff",
                results[0].overhead_per_handoff,
            ),
        ]);
        for (mobility, total, protocol) in [
            (
                "protocol.mhh.mobility_hops",
                "protocol.mhh.total_hops",
                "mhh",
            ),
            (
                "protocol.sub-unsub.mobility_hops",
                "protocol.sub-unsub.total_hops",
                "sub-unsub",
            ),
            (
                "protocol.home-broker.mobility_hops",
                "protocol.home-broker.total_hops",
                "home-broker",
            ),
        ] {
            let result = points
                .iter()
                .position(|p| p.protocol == protocol)
                .map(|i| &results[i]);
            self.metrics
                .push((mobility, result.map_or(0.0, |r| r.mobility_hops as f64)));
            self.metrics
                .push((total, result.map_or(0.0, |r| r.total_hops as f64)));
        }
    }

    /// The two ratios, one extra body each, each on the workload whose
    /// question it answers (0 elsewhere).
    fn ratios(
        &mut self,
        points: &[Point],
        spec: &ProtocolSpec,
        results: &[RunResult],
        body_s: f64,
    ) {
        let mut k2_ratio = 0.0;
        let mut dyn_ratio = 0.0;
        let root = self.log.enter("trace.ratios");
        if self.workload.name == "city-handoff" {
            let sharded = points[0].config.clone().with_engine_workers(2);
            let result = self
                .log
                .time("simnet.parallel.k2", || run_spec(&sharded, spec));
            self.check_same("engine_workers=2", &result, &results[0]);
            k2_ratio = self.log.secs_of("simnet.parallel.k2") / body_s;
        }
        if self.workload.name == "paper-churn" {
            let generic = self.log.enter("mobsim.runner.run_scenario");
            for (point, reference) in points.iter().zip(results) {
                let result = run_scenario(&point.config, generic_protocol(point.protocol));
                self.check_same("generic path", &result, reference);
            }
            self.log.exit(generic);
            dyn_ratio = body_s / self.log.spans()[generic].secs();
        }
        self.log.exit(root);
        self.metrics.extend([
            ("simnet.parallel.k2_wall_ratio", k2_ratio),
            ("mobsim.runner.dyn_over_generic_ratio", dyn_ratio),
        ]);
    }
}

/// Run the traced pass of one workload and write its span file.
pub fn trace(workload: &'static Workload, seed: u64, quick: bool) -> TraceReport {
    let registry = ProtocolRegistry::extended();
    let points = workload.points(seed, 0, quick);
    let spec_of = |p: &Point| registry.find(p.protocol).expect("registered protocol");
    let mut pass = Pass {
        workload,
        log: SpanLog::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };

    // The reference: the untraced body, as the timed rounds run it.
    let root = pass.log.enter("trace.untraced");
    let mut results: Vec<RunResult> = Vec::new();
    for point in &points {
        let result = pass.log.time("mobsim.runner.run_spec", || {
            run_spec(&point.config, spec_of(point))
        });
        pass.check(point.protocol, check_point(workload, point, &result));
        results.push(result);
    }
    pass.log.exit(root);
    let body_s = pass.log.spans()[root].secs();

    let first = &points[0];
    pass.staged(first, spec_of(first), &results[0]);

    // Kernels, on inputs captured from the first point's workload.
    let generated = mhh_mobsim::Workload::generate(&first.config);
    let filters: Vec<Filter> = generated.clients.iter().map(|c| c.filter.clone()).collect();
    let events: Vec<Event> = generated
        .timeline
        .iter()
        .filter_map(|e| match &e.action {
            ClientAction::Publish(event) => Some(event.clone()),
            _ => None,
        })
        .collect();
    let budget = if quick {
        KERNEL_BUDGET / 20
    } else {
        KERNEL_BUDGET
    };
    kernels(&filters, &events, budget, &mut pass.log, &mut pass.metrics);

    pass.counts(&points, &results, body_s);
    pass.ratios(&points, spec_of(first), &results, body_s);

    // Report in table order; a metric missing here is a bug in this file.
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|p| {
            let value = pass
                .metrics
                .iter()
                .find(|(name, _)| *name == p.name)
                .unwrap_or_else(|| panic!("{} was not measured", p.name))
                .1;
            (p.name, value)
        })
        .collect();

    let span_file = span_file(workload);
    let doc = Json::obj(vec![
        ("workload", Json::str(workload.name)),
        ("seed", Json::UInt(seed)),
        ("quick", Json::Bool(quick)),
        ("spans", pass.log.to_json()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value)| (name.to_string(), Json::Num(*value)))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = span_file.parent() {
        std::fs::create_dir_all(dir).expect("create the trace directory");
    }
    std::fs::write(&span_file, doc.pretty() + "\n").expect("write the span file");

    TraceReport {
        metrics,
        attempted: pass.attempted,
        failed: pass.failed,
        span_file,
    }
}
