//! Integration tests of the failure & recovery subsystem: fault injection
//! end to end (schedule → engine drops → overlay repair → recovery ledger)
//! across every registered protocol, including the self-stabilizing PSVR
//! variant from [`ProtocolRegistry::extended`].
//!
//! The headline invariant: the per-outage attribution in the
//! [`RecoveryLedger`](mhh_suite::mobsim::RecoveryLedger) reconciles
//! *exactly* with the delivery audit — every lost and duplicated delivery
//! is charged to an outage window (or explicitly reported as
//! unattributed), so the failure panel never reports numbers that don't
//! add up.

use mhh_suite::mobsim::protocols::ProtocolRegistry;
use mhh_suite::mobsim::{
    run_scenario, run_spec, run_spec_perf, scenarios, FaultPlan, Protocol, ScenarioConfig, Sim,
    Workload, FAILURE_PRESETS,
};

/// The broker-crash-storm environment scaled down for test speed: same
/// grid and seed (so the storm schedule is the preset's), fewer clients
/// and a shorter horizon.
fn stormy_config() -> ScenarioConfig {
    Sim::scenario("broker-crash-storm")
        .clients_per_broker(2)
        .duration_s(450.0)
        .build_config()
        .expect("broker-crash-storm is registered")
}

/// Acceptance criterion: fault-injected runs stay fully deterministic —
/// the same schedule and seed produce byte-identical results (metrics,
/// ledgers, drops) for every protocol in the extended registry.
#[test]
fn fault_runs_are_deterministic_across_all_four_protocols() {
    let config = stormy_config();
    let registry = ProtocolRegistry::extended();
    assert_eq!(registry.specs().len(), 4, "three builtins plus PSVR");
    for spec in registry.specs() {
        let first = run_spec(&config, spec);
        let second = run_spec(&config, spec);
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{}: a seeded fault schedule must replay identically",
            spec.label()
        );
        assert!(
            !first.recovery.is_empty(),
            "{}: the storm must leave outage records",
            spec.label()
        );
    }
}

/// Acceptance criterion: on both failure presets, every protocol's
/// recovery ledger partitions the audited losses and duplicates exactly —
/// per-outage counts plus the unattributed remainder equal the audit's
/// totals.
#[test]
fn recovery_ledger_reconciles_with_the_audit_on_both_presets() {
    let registry = ProtocolRegistry::extended();
    for name in FAILURE_PRESETS {
        let preset = scenarios::find(name).expect("failure preset registered");
        let config = Sim::config(preset.config)
            .clients_per_broker(2)
            .duration_s(450.0)
            .build_config()
            .expect("config-seeded builder cannot miss");
        for spec in registry.specs() {
            let r = run_spec(&config, spec);
            assert!(
                !r.recovery.is_empty(),
                "{name} × {}: outage windows recorded",
                spec.label()
            );
            assert!(
                r.recovery.total_dropped() > 0,
                "{name} × {}: the faults must actually drop envelopes",
                spec.label()
            );
            assert!(
                r.recovery.reconciles_with(&r.audit),
                "{name} × {}: ledger lost={}+{} dup={}+{} vs audit lost={} dup={}",
                spec.label(),
                r.recovery.total_lost(),
                r.recovery.unattributed_lost,
                r.recovery.total_duplicates(),
                r.recovery.unattributed_duplicates,
                r.audit.lost,
                r.audit.duplicates
            );
        }
    }
}

/// `run_scenario`'s typed shorthand resolves to the registry entry of the
/// same name, and two runs of one faulty config replay byte-identically —
/// repair drives, fault-aware MHH constructor and recovery ledger included.
/// (Written as the dyn-vs-generic differential while a monomorphized path
/// existed; both sides are `run_spec` now.)
#[test]
fn dyn_runs_stay_byte_identical_under_faults() {
    let config = stormy_config();
    let registry = ProtocolRegistry::builtin();
    for protocol in Protocol::ALL {
        let generic = run_scenario(&config, protocol);
        let spec = registry.find(protocol.name()).expect("builtin");
        let erased = run_spec(&config, spec);
        assert_eq!(
            format!("{generic:?}"),
            format!("{erased:?}"),
            "{}: the shorthand and the registry entry must be the same run under faults",
            protocol.label()
        );
    }
}

/// A zero-fault plan must leave the engine on its fast path: no fault
/// schedule installed, no drops, and an empty recovery ledger whose JSON
/// section renders as `null`.
#[test]
fn zero_fault_plans_leave_no_recovery_trace() {
    let config = Sim::scenario("trace-smoke")
        .build_config()
        .expect("trace-smoke is registered");
    assert!(config.faults.is_empty());
    let r = run_scenario(&config, Protocol::Mhh);
    assert!(r.recovery.is_empty());
    assert_eq!(r.recovery.total_dropped(), 0);
    assert!(r.recovery.reconciles_with(&r.audit), "trivially reconciles");
}

/// Satellite criterion: the runner injects the timeline lazily, so the
/// engine's peak queue depth stays far below the workload's total
/// timeline length even on a publish-heavy faulty run. (Eager injection
/// would put the whole timeline in the queue up front.)
#[test]
fn lazy_timeline_injection_keeps_the_event_queue_shallow() {
    // Fault-free variant of the storm workload: no eagerly scheduled
    // repair drives, so the queue holds only in-flight traffic plus the
    // lazily injected timeline prefix.
    let config = Sim::config(stormy_config())
        .faults(FaultPlan::default())
        .build_config()
        .expect("config-seeded builder cannot miss");
    let timeline_len = Workload::generate(&config).timeline.len();
    assert!(
        timeline_len > 500,
        "need a non-trivial timeline to make the claim meaningful, got {timeline_len}"
    );
    let registry = ProtocolRegistry::builtin();
    let mhh = registry.find("mhh").expect("mhh is builtin");
    let (r, perf) = run_spec_perf(&config, mhh);
    assert!(r.reliable(), "{:?}", r.audit);
    assert!(
        perf.peak_queue_depth < timeline_len / 4,
        "peak queue depth {} should stay well below the {timeline_len}-entry \
         timeline under lazy injection",
        perf.peak_queue_depth
    );

    // Under the storm the queue additionally carries the eagerly
    // scheduled repair drives, but still never the whole timeline.
    let (_, stormy_perf) = run_spec_perf(&stormy_config(), mhh);
    assert!(
        stormy_perf.peak_queue_depth < timeline_len,
        "even with repair drives the queue never holds the full timeline \
         ({} vs {timeline_len})",
        stormy_perf.peak_queue_depth
    );
}

/// The builder's `faults` override reshapes the compiled schedule: the
/// plan's explicit windows land verbatim, and clearing the plan restores
/// the fault-free fast path on the same preset.
#[test]
fn builder_fault_overrides_compile_into_the_schedule() {
    let base = stormy_config();
    let network = base.build_network();
    assert_eq!(base.fault_schedule(&network).windows().len(), 6);

    let explicit = Sim::config(base.clone())
        .faults(FaultPlan {
            broker_crashes: vec![(2, 50.0, 80.0)],
            ..FaultPlan::default()
        })
        .build_config()
        .expect("config-seeded builder cannot miss");
    let schedule = explicit.fault_schedule(&network);
    assert_eq!(schedule.windows().len(), 1);
    assert_eq!(schedule.windows()[0].scope_label(), "broker 2");

    let cleared = Sim::config(base)
        .faults(FaultPlan::default())
        .build_config()
        .expect("config-seeded builder cannot miss");
    assert!(cleared.fault_schedule(&network).is_empty());
}
