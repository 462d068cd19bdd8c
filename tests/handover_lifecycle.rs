//! Integration tests of the first-class handover lifecycle: proclaimed
//! moves end to end (workload → client → broker → protocol) and the
//! per-handover [`HandoverLedger`](mhh_suite::mobsim::HandoverLedger).
//!
//! The headline assertions mirror the paper's §4.1 claim: on the *same*
//! move schedule, proclaiming the destination lets MHH migrate the
//! subscription ahead of the client, so the per-handover first-delivery gap
//! shrinks — and none of the delivery guarantees are given up on the way.

use mhh_suite::mobility::ModelKind;
use mhh_suite::mobsim::protocols::ProtocolRegistry;
use mhh_suite::mobsim::{
    run_scenario, run_spec, HandoverKind, Protocol, RunResult, ScenarioConfig, Sim, Workload,
};
use mhh_suite::simnet::random::DetRng;

/// The paper-fig5 environment scaled down for test speed; the preset's seed
/// (and therefore its workload generator) is kept, so this is the fig5
/// workload at reduced scale.
fn fig5_seeded() -> ScenarioConfig {
    Sim::scenario("paper-fig5")
        .grid_side(4)
        .clients_per_broker(3)
        .duration_s(400.0)
        .configure(|c| {
            c.conn_mean_s = 40.0;
            c.disc_mean_s = 40.0;
            c.publish_interval_s = 20.0;
        })
        .build_config()
        .expect("paper-fig5 is registered")
}

/// Acceptance criterion: on the paper-fig5 workload with
/// `proclaimed_fraction = 1.0`, MHH's mean per-handover first-delivery gap
/// (from the ledger) is strictly lower than the reactive run on the same
/// seed.
#[test]
fn proclaimed_fig5_run_strictly_beats_reactive_on_first_delivery_gap() {
    let reactive_cfg = fig5_seeded();
    let proclaimed_cfg = fig5_seeded().with_proclaimed_fraction(1.0);
    let reactive = run_scenario(&reactive_cfg, Protocol::Mhh);
    let proclaimed = run_scenario(&proclaimed_cfg, Protocol::Mhh);

    // Paired: the proclamation flag must not perturb the move schedule.
    assert_eq!(reactive.handoffs, proclaimed.handoffs);
    assert!(reactive.handoffs > 0, "workload must move clients");
    assert_eq!(reactive.proclaimed_handoffs(), 0);
    assert_eq!(proclaimed.proclaimed_handoffs(), proclaimed.handoffs);
    assert_eq!(proclaimed.reactive_handoffs(), 0);

    // Both sides keep MHH's exactly-once ordered guarantee.
    assert!(reactive.reliable(), "{:?}", reactive.audit);
    assert!(proclaimed.reliable(), "{:?}", proclaimed.audit);

    // The §4.1 payoff, read from the ledger.
    let reactive_gap = reactive
        .mean_gap_ms(HandoverKind::Reactive)
        .expect("reactive handoffs saw deliveries");
    let proclaimed_gap = proclaimed
        .mean_gap_ms(HandoverKind::Proclaimed)
        .expect("proclaimed handoffs saw deliveries");
    assert!(
        proclaimed_gap < reactive_gap,
        "proclaimed mean gap {proclaimed_gap} ms must be strictly below \
         reactive {reactive_gap} ms"
    );
    // The aggregates are the same numbers (derived from the ledger).
    assert_eq!(proclaimed.avg_handoff_delay_ms, proclaimed_gap);
    assert_eq!(reactive.avg_handoff_delay_ms, reactive_gap);
}

/// `run_scenario`'s typed shorthand and the registry entry of the same name
/// are the same run, replayed byte-identically down to every ledger record —
/// on the proclaimed workload, where the ledger is populated with proclaimed
/// records. (Written as the dyn-vs-generic differential while a
/// monomorphized path existed; both sides are `run_spec` now.)
#[test]
fn dyn_runs_stay_byte_identical_with_the_ledger_enabled() {
    let config = fig5_seeded().with_proclaimed_fraction(1.0);
    let registry = ProtocolRegistry::builtin();
    for protocol in Protocol::ALL {
        let generic = run_scenario(&config, protocol);
        let spec = registry.find(protocol.name()).expect("builtin");
        let erased = run_spec(&config, spec);
        assert_eq!(
            format!("{generic:?}"),
            format!("{erased:?}"),
            "{}: the shorthand and the registry entry must agree on every ledger record",
            protocol.label()
        );
        assert!(
            generic.proclaimed_handoffs() > 0,
            "{}: the ledger must carry proclaimed records",
            protocol.label()
        );
    }
}

/// FIFO-dependent property test: a proclaimed MHH handover never loses or
/// duplicates events. The subscription-migration handshake relies on the
/// links being FIFO (the migration ack flushes behind any in-transit
/// events); this samples seeds and mobility models to exercise many
/// interleavings of proclaimed migrations with event traffic.
#[test]
fn proclaimed_mhh_handovers_never_lose_or_duplicate() {
    let mut sampler = DetRng::new(0x48_414e_444f);
    let models = [
        ModelKind::UniformRandom,
        ModelKind::ManhattanGrid,
        ModelKind::GroupPlatoon {
            platoon_size: 3,
            jitter_s: 5.0,
        },
    ];
    for case in 0..6 {
        let model = &models[case % models.len()];
        let config = ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 3,
            mobile_fraction: 0.35,
            conn_mean_s: 15.0 + sampler.range_f64(0.0, 30.0),
            disc_mean_s: 10.0 + sampler.range_f64(0.0, 30.0),
            publish_interval_s: 8.0,
            duration_s: 350.0,
            seed: sampler.next_u64(),
            ..ScenarioConfig::paper_defaults()
        }
        .with_mobility(model.clone())
        .with_proclaimed_fraction(1.0);
        let r = run_scenario(&config, Protocol::Mhh);
        assert!(r.handoffs > 0, "case {case} ({model}): no handoffs");
        assert_eq!(
            r.proclaimed_handoffs(),
            r.handoffs,
            "case {case} ({model}): every move proclaimed"
        );
        assert_eq!(r.audit.lost, 0, "case {case} ({model}): {:?}", r.audit);
        assert_eq!(
            r.audit.duplicates, 0,
            "case {case} ({model}): {:?}",
            r.audit
        );
        assert_eq!(
            r.audit.out_of_order, 0,
            "case {case} ({model}): {:?}",
            r.audit
        );
    }
}

/// Paired-workload test: the ledger's per-handover counts sum exactly to
/// the run-level aggregate metrics — for the derived handoff/delay numbers
/// and for the partitioned loss/duplicate counts, including a protocol that
/// actually loses events (home-broker under fast movement).
#[test]
fn ledger_per_handover_counts_sum_to_the_aggregates() {
    // Fast movement so home-broker's in-transit loss window is exercised.
    let config = ScenarioConfig {
        grid_side: 5,
        clients_per_broker: 3,
        mobile_fraction: 0.3,
        conn_mean_s: 2.0,
        disc_mean_s: 20.0,
        publish_interval_s: 4.0,
        duration_s: 500.0,
        seed: 6,
        ..ScenarioConfig::paper_defaults()
    };
    let check = |r: &RunResult| {
        assert_eq!(r.handoffs, r.ledger.handoff_count(), "{}", r.protocol);
        assert_eq!(
            r.delay_samples,
            r.ledger.delays_ms().len() as u64,
            "{}",
            r.protocol
        );
        assert_eq!(r.avg_handoff_delay_ms, r.ledger.mean_delay_ms());
        assert_eq!(
            r.handoffs,
            r.proclaimed_handoffs() + r.reactive_handoffs(),
            "{}: kinds partition the handoffs",
            r.protocol
        );
        // The disruption windows partition each mover's timeline, so the
        // per-handover loss/duplicate counts sum exactly to the audit.
        assert_eq!(
            r.ledger.total_lost(),
            r.audit.lost,
            "{}: ledger loss must reconcile with the audit",
            r.protocol
        );
        assert_eq!(
            r.ledger.total_duplicates(),
            r.audit.duplicates,
            "{}: ledger duplicates must reconcile with the audit",
            r.protocol
        );
    };
    for protocol in Protocol::ALL {
        let r = run_scenario(&config, protocol);
        check(&r);
    }
    let hb = run_scenario(&config, Protocol::HomeBroker);
    assert!(
        hb.audit.lost > 0,
        "the reconciliation must be exercised on real loss: {:?}",
        hb.audit
    );
    // And on a proclaimed run of the same scenario.
    let proclaimed = run_scenario(&config.with_proclaimed_fraction(1.0), Protocol::Mhh);
    check(&proclaimed);
}

/// The platoon scenario drives whole groups into the same destination
/// broker: the workload must show members of one platoon reconnecting to
/// identical broker sequences, and the run must stay reliable under the
/// resulting bulk migration.
#[test]
fn platoon_convoy_bulk_migrates_and_stays_reliable() {
    let config = Sim::scenario("platoon-convoy")
        .grid_side(4)
        .clients_per_broker(3)
        .duration_s(400.0)
        .configure(|c| {
            c.conn_mean_s = 40.0;
            c.disc_mean_s = 20.0;
            c.publish_interval_s = 20.0;
            c.mobile_fraction = 1.0;
        })
        .build_config()
        .expect("platoon-convoy is registered");
    let ModelKind::GroupPlatoon { platoon_size, .. } = config.mobility else {
        panic!("platoon-convoy must carry the group-platoon model");
    };

    // Workload level: every mobile member of a platoon follows the same
    // broker sequence.
    let w = Workload::generate(&config);
    use mhh_suite::pubsub::ClientAction;
    let mut routes: std::collections::BTreeMap<u32, Vec<(u32, Vec<u32>)>> = Default::default();
    for (i, _) in w.clients.iter().enumerate() {
        let client = i as u32;
        let mut moves: Vec<(mhh_suite::simnet::SimTime, u32)> = w
            .timeline
            .iter()
            .filter(|e| e.client.0 == client)
            .filter_map(|e| match e.action {
                ClientAction::Reconnect { broker } => Some((e.at, broker.0)),
                _ => None,
            })
            .collect();
        moves.sort_by_key(|(at, _)| *at);
        let dests: Vec<u32> = moves.into_iter().map(|(_, b)| b).collect();
        if !dests.is_empty() {
            routes
                .entry(client / platoon_size as u32)
                .or_default()
                .push((client, dests));
        }
    }
    let mut checked_platoons = 0;
    for (platoon, members) in &routes {
        if members.len() < 2 {
            continue;
        }
        checked_platoons += 1;
        // Members may join at different points (their own homes), but from
        // the shared trajectory onward the destinations coincide: compare
        // the common suffix.
        let shortest = members.iter().map(|(_, d)| d.len()).min().unwrap();
        let suffix = |d: &Vec<u32>| d[d.len() - shortest..].to_vec();
        let reference = suffix(&members[0].1);
        for (client, dests) in members {
            assert_eq!(
                suffix(dests),
                reference,
                "platoon {platoon} member {client} left the convoy"
            );
        }
    }
    assert!(checked_platoons > 0, "workload must contain real platoons");
    assert!(w.proclaimed_count == w.move_count, "convoy moves proclaim");

    // Run level: bulk migration stays exactly-once/ordered under MHH.
    let r = run_scenario(&config, Protocol::Mhh);
    assert!(r.handoffs > 0);
    assert!(r.reliable(), "{:?}", r.audit);
}

/// The budget knob surfaces through the fluent builder and reports skipped
/// points instead of silently truncating.
#[test]
fn builder_budget_reports_skipped_matrix_cells() {
    let matrix = Sim::scenario("paper-fig5")
        .grid_side(3)
        .clients_per_broker(2)
        .duration_s(120.0)
        .registry(ProtocolRegistry::builtin())
        .workers(2)
        .budget_ms(0)
        .matrix(&[ModelKind::UniformRandom, ModelKind::ManhattanGrid])
        .expect("paper-fig5 is registered");
    assert!(matrix.points.is_empty());
    assert_eq!(matrix.skipped.len(), 6, "2 models × 3 protocols skipped");
}
