//! Scenario runner: build the deployment for a protocol, inject the
//! workload, run to completion and compute the metrics.
//!
//! There is one path. [`run_spec`] takes a
//! [`crate::protocols::ProtocolRegistry`] entry and runs it behind
//! `Box<dyn DynProtocol>`, so one compiled deployment serves every
//! registered protocol; [`run_named`] looks the entry up by name in the
//! process-wide registry, and [`run_scenario`] is the typed shorthand for
//! the paper's three. The workload is regenerated from the scenario seed,
//! so running different protocols on the same config is a paired
//! comparison.

use std::cell::Cell;
use std::sync::Arc;

use mhh_pubsub::dynproto::BoxedMsg;
use mhh_pubsub::{repair_drives, DeliveryAudit, Deployment, DeploymentConfig, DynProtocol, NetMsg};
use mhh_simnet::{EngineArena, EnginePerf, FaultSchedule, Network, SimDuration, TrafficClass};

use crate::builder::SimError;
use crate::config::{Protocol, ScenarioConfig};
use crate::metrics::{
    classify_clients, ClientHandoverLog, HandoverLedger, RecoveryLedger, RunResult, TrafficReport,
};
use crate::protocols::{BrokerFactory, ProtocolRegistry, ProtocolSpec};
use crate::workload::Workload;

/// Translate a scenario config into the deployment config of the substrate.
fn deployment_config(config: &ScenarioConfig) -> DeploymentConfig {
    DeploymentConfig {
        grid_side: config.grid_side,
        topology: config.topology.clone(),
        seed: config.seed,
        wired_latency: SimDuration::from_millis(config.wired_ms),
        wireless_latency: SimDuration::from_millis(config.wireless_ms),
        link_model: config.link_model(),
        covering: config.covering,
        engine_workers: config.engine_workers,
        fanout_mode: config.fanout_mode,
        retained: config.retained,
        shared_group_size: config.shared_group_size,
        track_mem: config.track_mem,
        dedup_window: config.dedup_window,
        retransmit: config.retransmit,
        checkpoint_replication_ms: config.checkpoint_replication_ms,
        // The replication tick stops re-arming at the workload horizon, so
        // the post-horizon drain terminates.
        replication_horizon_ms: (config.duration_s * 1000.0).ceil() as u64,
    }
}

thread_local! {
    /// The recycled engine storage. Every registry protocol runs as
    /// `Deployment<Box<dyn DynProtocol>>`, so one arena type fits them
    /// all: a sweep worker thread grows the queue/clock/scratch storage on
    /// its first point and then reuses it for every subsequent point
    /// (allocation-free steady state; `EnginePerf::alloc_events` stays flat
    /// across a sweep). Dies with the sweep worker's scoped thread.
    static SWEEP_ARENA: Cell<Option<EngineArena<NetMsg<BoxedMsg>>>> = const { Cell::new(None) };
}

/// Run one scenario with a registry protocol and collect the metrics. The
/// broker network — topology, MST overlay, distance and routing tables — is
/// built **once** here and shared by the workload generator, the protocol's
/// constructor (e.g. sub-unsub's safety-interval derivation) and the
/// deployment.
pub fn run_spec(config: &ScenarioConfig, spec: &ProtocolSpec) -> RunResult {
    run_spec_perf(config, spec).0
}

/// [`run_spec`] plus the engine's hot-path performance counters
/// ([`EnginePerf`]: deliveries, peak queue depth, storage-growth events).
/// The metrics half is byte-identical to [`run_spec`]'s. The engine arena is
/// recycled across calls on the same thread, so back-to-back sweep points
/// reuse the warmed storage instead of re-growing it.
pub fn run_spec_perf(config: &ScenarioConfig, spec: &ProtocolSpec) -> (RunResult, EnginePerf) {
    let network = config.build_network();
    let workload = Workload::generate_on(config, &network);
    let factory = spec.instantiate(config, &network);
    let arena = SWEEP_ARENA.take().unwrap_or_default();
    let (dep, faults) = drive(config, network, &workload, factory, arena);
    let perf = dep.engine.perf();
    let result = collect(config, spec.label(), &dep, &faults);
    // `None` comes back when the run used the parallel backend, whose
    // storage is sharded and not recyclable.
    if let (_, _, _, Some(arena)) = dep.engine.recycle() {
        SWEEP_ARENA.set(Some(arena));
    }
    (result, perf)
}

/// [`run_spec`] for one of the paper's three protocols, by its typed name.
pub fn run_scenario(config: &ScenarioConfig, protocol: Protocol) -> RunResult {
    let registry = ProtocolRegistry::builtin();
    let spec = registry.find(protocol.name()).expect("builtin protocol");
    run_spec(config, spec)
}

/// Run one scenario with a protocol resolved by name in the process-wide
/// [`ProtocolRegistry`].
pub fn run_named(config: &ScenarioConfig, protocol: &str) -> Result<RunResult, SimError> {
    let registry = ProtocolRegistry::global();
    let spec = registry
        .find(protocol)
        .ok_or_else(|| SimError::unknown_protocol(protocol, &registry))?;
    Ok(run_spec(config, spec))
}

/// The deployment every registry protocol runs as.
type DynDeployment = Deployment<Box<dyn DynProtocol>>;

/// Build the deployment, inject the workload and run the engine until it
/// drains: everything of a run that happens before the post-run accounting.
fn drive(
    config: &ScenarioConfig,
    network: Arc<Network>,
    workload: &Workload,
    make_protocol: BrokerFactory,
    arena: EngineArena<NetMsg<BoxedMsg>>,
) -> (DynDeployment, FaultSchedule) {
    let dep_config = deployment_config(config);
    let faults = config.fault_schedule(&network);
    // Reject malformed schedules up front with the typed error instead of
    // letting an unsorted or never-firing window skew ledger attribution.
    if let Err(e) = faults.validate(mhh_simnet::SimTime::from_secs_f64(config.duration_s)) {
        panic!("invalid fault schedule: {e}");
    }
    let mut dep: DynDeployment = Deployment::build_on_in(
        network.clone(),
        &dep_config,
        &workload.clients,
        make_protocol,
        arena,
    );
    if let Some(loss) = config.loss_model() {
        dep.engine.set_loss(loss);
    }

    // The repair layer's failure-detection drives (peer-down/up, link-down/up
    // and restart kicks). Empty on the zero-fault fast path, where the
    // engine never even stores the schedule.
    let drives = if faults.is_empty() {
        Vec::new()
    } else {
        dep.engine.set_faults(Arc::new(faults.clone()));
        repair_drives(
            &faults,
            &network,
            &dep.book,
            SimDuration::from_secs_f64(config.faults.detection_delay_s),
        )
    };

    // External messages (repair drives first, then the timeline) claim the
    // sequence window [0, N) up front so lazy injection below assigns the
    // same (time, seq) total order the old schedule-everything-eagerly loop
    // produced — runs stay byte-identical — while the event queue only ever
    // holds the in-flight horizon instead of the whole workload.
    dep.engine
        .reserve_external_seqs((drives.len() + workload.timeline.len()) as u64);
    // The replication clock draws ordinary (post-reservation) sequence
    // numbers, so it must be armed after the reservation above.
    dep.arm_replication_ticks();
    for (at, node, msg) in drives {
        dep.engine.schedule_external_reserved(at, node, msg);
    }

    // Lazy timeline injection: drain the engine strictly up to each entry's
    // timestamp, then enqueue it. The timeline is interleaved per client, so
    // a stable sort by time (preserving generation order at equal instants)
    // fixes the injection order.
    let mut order: Vec<usize> = (0..workload.timeline.len()).collect();
    order.sort_by_key(|&i| workload.timeline[i].at);
    for &i in &order {
        let entry = &workload.timeline[i];
        dep.engine.run_strictly_before(entry.at);
        dep.engine.schedule_external_reserved(
            entry.at,
            dep.book.client_node(entry.client),
            NetMsg::Action(entry.action.clone()),
        );
    }
    dep.engine.run_to_completion();
    (dep, faults)
}

fn collect(
    config: &ScenarioConfig,
    protocol: &str,
    dep: &DynDeployment,
    faults: &FaultSchedule,
) -> RunResult {
    let buffered = dep.buffered_events();

    // One classification of every subscriber's log, straight off the
    // deployment's own filters and logs; the audit and both ledgers are
    // folds over it. The per-handover ledger is what the paper's aggregate
    // metrics derive from.
    let handover_logs: Vec<ClientHandoverLog<'_>> = dep
        .clients()
        .map(|c| ClientHandoverLog {
            client: c.id,
            filter: &c.filter,
            disconnects: &c.disconnects,
            reconnects: &c.reconnects,
            deliveries: &c.received,
        })
        .collect();
    let classified = classify_clients(
        dep.clients().flat_map(|c| &c.published),
        &handover_logs,
        &buffered,
    );
    let audit_result = DeliveryAudit::from_outcomes(&classified.outcomes);
    let ledger = HandoverLedger::from_outcomes(&handover_logs, &classified);
    let mut recovery = RecoveryLedger::from_outcomes(
        faults.windows(),
        dep.engine.drops(),
        &handover_logs,
        &classified.outcomes,
    );
    // Reliability-layer counters live in the brokers/clients, not the drop
    // log; all zero (and Debug-invisible) unless the knobs were turned on.
    recovery.duplicates_suppressed = dep.duplicates_suppressed();
    recovery.retransmissions = dep.retransmissions();
    recovery.stale_resubscribes = dep.stale_resubscribes();

    let handoffs = ledger.handoff_count();
    let delays = ledger.delays_ms();
    let delay_samples = delays.len() as u64;
    let avg_delay = ledger.mean_delay_ms();
    let stats = dep.engine.stats();
    let mobility_hops = stats.mobility_hops();
    let overhead = if handoffs == 0 {
        0.0
    } else {
        mobility_hops as f64 / handoffs as f64
    };
    let delivered_messages = stats.class(TrafficClass::EventDelivery).messages;

    let fanout = dep.fanout_stats();
    let traffic = TrafficReport {
        delivery_bytes: stats.class(TrafficClass::EventDelivery).bytes,
        total_wire_bytes: stats.total_bytes(),
        fanouts: fanout.fanouts,
        serializations: fanout.serializations,
        bytes_serialized: fanout.bytes_serialized,
        fanout_allocs: fanout.fanout_allocs,
        cache_hits: fanout.cache_hits,
        buffered_bytes_peak: dep.buffered_bytes_peak(),
        checkpoint_bytes_peak: dep.checkpoint_bytes_peak(),
        dedup_bytes_peak: dep.dedup_bytes_peak(),
    };

    RunResult {
        protocol: protocol.to_string(),
        handoffs,
        mobility_hops,
        overhead_per_handoff: overhead,
        avg_handoff_delay_ms: avg_delay,
        delay_samples,
        audit: audit_result,
        ledger,
        recovery,
        published: dep.clients().map(|c| c.published.len() as u64).sum(),
        delivered_messages,
        total_hops: stats.total_hops(),
        sim_duration_s: config.duration_s,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScenarioConfig {
        ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 3,
            mobile_fraction: 0.25,
            conn_mean_s: 40.0,
            disc_mean_s: 40.0,
            publish_interval_s: 20.0,
            duration_s: 400.0,
            seed: 11,
            ..ScenarioConfig::paper_defaults()
        }
    }

    #[test]
    fn mhh_run_is_reliable_and_produces_handoffs() {
        let r = run_scenario(&tiny(), Protocol::Mhh);
        assert!(r.handoffs > 0, "workload must move clients: {r:?}");
        assert!(
            r.reliable(),
            "MHH must be exactly-once/ordered: {:?}",
            r.audit
        );
        assert!(r.mobility_hops > 0);
        assert!(r.avg_handoff_delay_ms > 0.0);
        assert!(r.published > 0);
    }

    #[test]
    fn sub_unsub_run_is_reliable_but_slower() {
        let cfg = tiny();
        let su = run_scenario(&cfg, Protocol::SubUnsub);
        let mhh = run_scenario(&cfg, Protocol::Mhh);
        assert!(su.reliable(), "sub-unsub must be reliable: {:?}", su.audit);
        assert_eq!(su.handoffs, mhh.handoffs, "paired workload → same handoffs");
        assert!(
            su.avg_handoff_delay_ms > mhh.avg_handoff_delay_ms,
            "sub-unsub delay {} must exceed MHH delay {}",
            su.avg_handoff_delay_ms,
            mhh.avg_handoff_delay_ms
        );
    }

    #[test]
    fn home_broker_run_may_lose_but_never_duplicates() {
        let r = run_scenario(&tiny(), Protocol::HomeBroker);
        assert_eq!(r.audit.duplicates, 0, "{:?}", r.audit);
        assert_eq!(r.audit.out_of_order, 0, "{:?}", r.audit);
        assert!(r.handoffs > 0);
    }

    #[test]
    fn run_named_resolves_the_global_registry() {
        let cfg = tiny();
        let by_name = run_named(&cfg, "mhh").expect("mhh is builtin");
        let typed = run_scenario(&cfg, Protocol::Mhh);
        assert_eq!(format!("{by_name:?}"), format!("{typed:?}"));
        assert!(run_named(&cfg, "no-such-protocol").is_err());
    }

    #[test]
    fn perf_counters_accompany_identical_metrics() {
        let cfg = tiny();
        let registry = ProtocolRegistry::builtin();
        let spec = registry.find("mhh").expect("mhh is builtin");
        let (r, perf) = run_spec_perf(&cfg, spec);
        let plain = run_spec(&cfg, spec);
        assert_eq!(
            format!("{r:?}"),
            format!("{plain:?}"),
            "the perf variant must not change the metrics"
        );
        assert!(perf.deliveries > 0);
        assert!(perf.peak_queue_depth > 0);
        // The allocation sanity counter: storage growths are a vanishing
        // fraction of deliveries even in a short run.
        assert!(
            (perf.alloc_events as f64) < 0.5 * perf.deliveries as f64,
            "alloc_events {} vs deliveries {}",
            perf.alloc_events,
            perf.deliveries
        );
    }

    #[test]
    fn parallel_engine_runs_are_byte_identical_to_serial() {
        // The full metrics pipeline — delivery audit, handover ledger,
        // recovery ledger, traffic stats — as the equality oracle, across
        // worker counts, on both the constant-latency fast path and the
        // jittered + crash-storm slow path.
        let constant = tiny();
        let jittered = tiny()
            .with_jitter_ms(5)
            .with_faults(crate::config::FaultPlan {
                crash_storm: Some((3, 30.0)),
                ..crate::config::FaultPlan::default()
            });
        for cfg in [constant, jittered] {
            let serial = run_scenario(&cfg, Protocol::Mhh);
            for workers in [2, 4, 8] {
                let par = run_scenario(&cfg.clone().with_engine_workers(workers), Protocol::Mhh);
                assert_eq!(
                    format!("{serial:?}"),
                    format!("{par:?}"),
                    "engine_workers={workers} must not change any metric"
                );
            }
        }
    }

    #[test]
    fn collect_reports_what_the_set_based_accounting_reports() {
        // `collect` classifies every log once and folds the audit and both
        // ledgers out of that; the oracle rebuilds each from copied logs the
        // subscriber-major way. Whole `RunResult`s must print the same, for
        // every protocol, on the fault-free path and under a crash storm
        // with lossy links (where losses, duplicates and outage windows all
        // occur).
        use crate::oracle;
        let stormy = tiny()
            .with_faults(crate::config::FaultPlan {
                crash_storm: Some((3, 30.0)),
                ..crate::config::FaultPlan::default()
            })
            .with_loss(0.02, 0.005);
        let registry = ProtocolRegistry::extended();
        assert_eq!(registry.len(), 4);
        let mut lost = 0;
        for cfg in [tiny(), stormy] {
            for spec in registry.specs() {
                let network = cfg.build_network();
                let workload = Workload::generate_on(&cfg, &network);
                let (dep, faults) = drive(
                    &cfg,
                    network.clone(),
                    &workload,
                    spec.instantiate(&cfg, &network),
                    EngineArena::new(),
                );
                let published: Vec<mhh_pubsub::Event> =
                    dep.clients().flat_map(|c| c.published.clone()).collect();
                let buffered = dep.buffered_events();
                let logs: Vec<ClientHandoverLog<'_>> = dep
                    .clients()
                    .map(|c| ClientHandoverLog {
                        client: c.id,
                        filter: &c.filter,
                        disconnects: &c.disconnects,
                        reconnects: &c.reconnects,
                        deliveries: &c.received,
                    })
                    .collect();
                let mut recovery = oracle::recovery_ledger(
                    faults.windows(),
                    dep.engine.drops(),
                    &published,
                    &logs,
                    &buffered,
                );
                recovery.duplicates_suppressed = dep.duplicates_suppressed();
                recovery.retransmissions = dep.retransmissions();
                recovery.stale_resubscribes = dep.stale_resubscribes();

                let result = run_spec(&cfg, spec);
                let expected = RunResult {
                    audit: oracle::audit(&published, &logs, &buffered),
                    ledger: oracle::handover_ledger(&published, &logs, &buffered),
                    recovery,
                    ..result.clone()
                };
                assert_eq!(
                    format!("{result:?}"),
                    format!("{expected:?}"),
                    "{} (faults: {})",
                    spec.label(),
                    !faults.is_empty()
                );
                assert!(result.audit.delivered > 0 && !result.ledger.is_empty());
                assert_eq!(result.recovery.len(), faults.windows().len());
                lost += result.audit.lost;
            }
        }
        assert!(lost > 0, "the storm must cost deliveries");
    }

    #[test]
    fn sweep_arena_reuse_pins_allocations_flat() {
        let registry = ProtocolRegistry::builtin();
        let spec = registry.find("mhh").expect("mhh is builtin");
        let points: Vec<ScenarioConfig> = [11u64, 12, 13]
            .into_iter()
            .map(|seed| ScenarioConfig { seed, ..tiny() })
            .collect();
        // First pass grows this thread's arena to the sweep's high-water
        // mark; the second pass over the same points must then be
        // allocation-free — the reuse satellite's whole point.
        let first: Vec<_> = points.iter().map(|c| run_spec_perf(c, spec)).collect();
        assert!(first.iter().any(|(_, p)| p.alloc_events > 0));
        for (c, (warm_result, _)) in points.iter().zip(&first) {
            let (result, perf) = run_spec_perf(c, spec);
            assert_eq!(perf.alloc_events, 0, "seed {}: arena must be warm", c.seed);
            assert_eq!(
                format!("{result:?}"),
                format!("{warm_result:?}"),
                "seed {}: reuse must not change the metrics",
                c.seed
            );
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_scenario(&tiny(), Protocol::Mhh);
        let b = run_scenario(&tiny(), Protocol::Mhh);
        assert_eq!(a.mobility_hops, b.mobility_hops);
        assert_eq!(a.handoffs, b.handoffs);
        assert_eq!(a.avg_handoff_delay_ms, b.avg_handoff_delay_ms);
        assert_eq!(a.audit, b.audit);
    }
}
