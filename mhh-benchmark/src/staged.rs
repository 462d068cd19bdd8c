//! The run pipeline driven stage by stage through the program's public
//! functions, with a span around each call. It mirrors what `run_spec` does
//! internally (`mhh_mobsim::runner` keeps `deployment_config` and `collect`
//! private, so both are rebuilt here); the trace's correctness gate asserts
//! the result equals `run_spec`'s, which is what proves the spans measure
//! the same program.

use std::sync::Arc;

use mhh_mobsim::metrics::ClientHandoverLog;
use mhh_mobsim::report::run_result_json;
use mhh_mobsim::{
    HandoverLedger, ProtocolSpec, RecoveryLedger, RunResult, ScenarioConfig, TrafficReport,
    Workload,
};
use mhh_pubsub::delivery::SubscriberLog;
use mhh_pubsub::{
    audit, repair_drives, ClientId, DeliveryRecord, Deployment, DeploymentConfig, DynProtocol,
    Event, Filter, NetMsg,
};
use mhh_simnet::{
    EnginePerf, FaultSchedule, Network, PhaseBreakdown, SimDuration, SimTime, TrafficClass,
};

use crate::spans::SpanLog;

/// The deployment type every registry protocol runs as.
pub type DynDeployment = Deployment<Box<dyn DynProtocol>>;

/// What set-up produces: everything a run needs before its first event.
pub struct Built {
    /// The broker network, built once and shared.
    pub network: Arc<Network>,
    /// The generated workload.
    pub workload: Workload,
    /// Brokers, clients and engine.
    pub dep: DynDeployment,
}

/// The staged run's outputs.
pub struct Staged {
    /// The metrics, assembled exactly as the runner's `collect` does.
    pub result: RunResult,
    /// Engine hot-path counters.
    pub perf: EnginePerf,
    /// Per-phase engine time (the run is profiled).
    pub phases: PhaseBreakdown,
    /// Envelopes the fault and loss layers dropped.
    pub dropped_envelopes: u64,
    /// Pre-scheduled client actions in the workload.
    pub timeline_entries: u64,
}

/// `mhh_mobsim::runner::deployment_config`, which is private.
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
        replication_horizon_ms: (config.duration_s * 1000.0).ceil() as u64,
    }
}

/// Set-up: network, workload, protocol factory, deployment — one span each
/// (the factory is instantiated inside the deployment span).
pub fn build(config: &ScenarioConfig, spec: &ProtocolSpec, log: &mut SpanLog) -> Built {
    let network = log.time("simnet.topology.build", || config.build_network());
    let workload = log.time("mobsim.workload.generate", || {
        Workload::generate_on(config, &network)
    });
    let dep = log.time("pubsub.deployment.build", || {
        let factory = spec.instantiate(config, &network);
        Deployment::build_on(
            network.clone(),
            &deployment_config(config),
            &workload.clients,
            factory,
        )
    });
    Built {
        network,
        workload,
        dep,
    }
}

/// Seconds one full set-up of `(config, spec)` takes.
pub fn setup_seconds(config: &ScenarioConfig, spec: &ProtocolSpec) -> f64 {
    let mut log = SpanLog::new();
    let root = log.enter("setup");
    let built = build(config, spec, &mut log);
    log.exit(root);
    drop(built);
    log.spans()[root].secs()
}

/// Drive one point through every stage, profiled, recording a span per
/// stage under the currently open span.
pub fn run(config: &ScenarioConfig, spec: &ProtocolSpec, log: &mut SpanLog) -> Staged {
    let Built {
        network,
        workload,
        mut dep,
    } = build(config, spec, log);
    let timeline_entries = workload.timeline.len() as u64;

    let engine_span = log.enter("simnet.engine.run");
    let faults = config.fault_schedule(&network);
    faults
        .validate(SimTime::from_secs_f64(config.duration_s))
        .expect("benchmark workloads compile to valid fault schedules");
    dep.engine.enable_phase_profile();
    if let Some(loss) = config.loss_model() {
        dep.engine.set_loss(loss);
    }
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
    dep.engine
        .reserve_external_seqs((drives.len() + workload.timeline.len()) as u64);
    dep.arm_replication_ticks();
    for (at, node, msg) in drives {
        dep.engine.schedule_external_reserved(at, node, msg);
    }
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
    log.exit(engine_span);

    let perf = dep.engine.perf();
    let phases = dep
        .engine
        .phase_breakdown()
        .expect("the serial engine was asked to profile");
    let dropped_envelopes = dep.engine.drops().len() as u64;
    let result = collect(config, spec.label(), &dep, &faults, log);
    log.time("pubsub.deployment.drop", || drop(dep));
    Staged {
        result,
        perf,
        phases,
        dropped_envelopes,
        timeline_entries,
    }
}

/// `mhh_mobsim::runner::collect`, which is private, with a span per stage.
fn collect(
    config: &ScenarioConfig,
    protocol: &str,
    dep: &DynDeployment,
    faults: &FaultSchedule,
    log: &mut SpanLog,
) -> RunResult {
    let gather = log.enter("mobsim.runner.gather_logs");
    let published: Vec<Event> = dep.clients().flat_map(|c| c.published.clone()).collect();
    let buffered = dep.buffered_events();
    let logs: Vec<(ClientId, Filter, Vec<DeliveryRecord>)> = dep
        .clients()
        .map(|c| (c.id, c.filter.clone(), c.received.clone()))
        .collect();
    log.exit(gather);

    let audit_result = log.time("pubsub.delivery.audit", || {
        let subscriber_logs: Vec<SubscriberLog<'_>> = logs
            .iter()
            .map(|(id, filter, recs)| SubscriberLog {
                client: *id,
                filter,
                deliveries: recs,
            })
            .collect();
        audit(&published, &subscriber_logs, &buffered)
    });

    let handover_logs: Vec<ClientHandoverLog<'_>> = dep
        .clients()
        .zip(logs.iter())
        .map(|(c, (_, filter, recs))| ClientHandoverLog {
            client: c.id,
            filter,
            disconnects: &c.disconnects,
            reconnects: &c.reconnects,
            deliveries: recs,
        })
        .collect();
    let ledger = log.time("mobsim.metrics.handover_ledger", || {
        HandoverLedger::assemble(&published, &handover_logs, &buffered)
    });
    let recovery = log.time("mobsim.metrics.recovery_ledger", || {
        let mut recovery = RecoveryLedger::assemble(
            faults.windows(),
            dep.engine.drops(),
            &published,
            &handover_logs,
            &buffered,
        );
        recovery.duplicates_suppressed = dep.duplicates_suppressed();
        recovery.retransmissions = dep.retransmissions();
        recovery.stale_resubscribes = dep.stale_resubscribes();
        recovery
    });

    let render = log.enter("mobsim.report.render");
    let handoffs = ledger.handoff_count();
    let stats = dep.engine.stats();
    let mobility_hops = stats.mobility_hops();
    let fanout = dep.fanout_stats();
    let result = RunResult {
        protocol: protocol.to_string(),
        handoffs,
        mobility_hops,
        overhead_per_handoff: if handoffs == 0 {
            0.0
        } else {
            mobility_hops as f64 / handoffs as f64
        },
        avg_handoff_delay_ms: ledger.mean_delay_ms(),
        delay_samples: ledger.delays_ms().len() as u64,
        audit: audit_result,
        ledger,
        recovery,
        published: published.len() as u64,
        delivered_messages: stats.class(TrafficClass::EventDelivery).messages,
        total_hops: stats.total_hops(),
        sim_duration_s: config.duration_s,
        traffic: TrafficReport {
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
        },
    };
    std::hint::black_box(run_result_json(&result).pretty());
    log.exit(render);
    result
}
