//! Integration tests of the link-level network substrate: the byte-identity
//! pin that anchors the topology/link refactor, FIFO-under-jitter property
//! loops, topology plumbing through the harness, and the mis-proclamation
//! knob.
//!
//! The golden files under `tests/goldens/` were captured from the
//! pre-refactor tree (constant-latency grid fabric, two-virtual-call
//! dispatch). Zero-jitter grid runs must keep reproducing them exactly:
//! the snapshot hashes the full `Debug` representation of every
//! `RunResult` — metrics, audit and every ledger record — so any drift in
//! delivery timing, ordering or accounting fails the pin. Regenerate
//! deliberately with `MHH_REGEN_GOLDENS=1 cargo test --test
//! network_substrate`.

use std::fmt::Write as _;

mod common;
use common::check_golden;

use mhh_suite::mobility::ModelKind;
use mhh_suite::mobsim::protocols::ProtocolRegistry;
use mhh_suite::mobsim::report::{panel_json, render_figure, Projection};
use mhh_suite::mobsim::{
    figure5, figure6, run_scenario, Panel, Protocol, ScenarioConfig, Sim, Sweep, TopologyKind,
};
use mhh_suite::simnet::random::DetRng;

/// FNV-1a (64-bit offset basis and prime), pinning a Debug string
/// byte-for-byte.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The reduced-scale paper environment the goldens pin (zero jitter,
/// plain k×k grid — the pre-refactor network model).
fn golden_base() -> ScenarioConfig {
    ScenarioConfig {
        grid_side: 4,
        clients_per_broker: 3,
        mobile_fraction: 0.25,
        conn_mean_s: 30.0,
        disc_mean_s: 40.0,
        publish_interval_s: 10.0,
        duration_s: 300.0,
        seed: 20070,
        ..ScenarioConfig::paper_defaults()
    }
}

/// One line per figure point: the headline numbers in the clear (reviewable
/// diffs) plus an FNV hash of the point's full `Debug` output (the actual
/// byte-identity pin, ledger records included).
fn snapshot(fig: &Panel) -> String {
    // Ascending x (the panel's row order), protocols alphabetically.
    let mut protocols = fig.cols();
    protocols.sort_by_key(|protocol| protocol.to_string());
    let cells = fig.rows().into_iter().flat_map(|x| {
        let cell = move |protocol| Some((x, protocol, fig.cell(x, protocol)?));
        protocols.clone().into_iter().filter_map(cell)
    });
    let mut out = String::new();
    for (x, protocol, p) in cells {
        let r = &p.result;
        let debug = format!("{r:?}");
        let _ = writeln!(
            out,
            "x={} proto={} handoffs={} mob_hops={} overhead={} delay_ms={} samples={} \
             audit=e{}/d{}/dup{}/p{}/l{}/o{} published={} delivered={} total_hops={} \
             debug_fnv={:016x}",
            x,
            protocol,
            r.handoffs,
            r.mobility_hops,
            r.overhead_per_handoff,
            r.avg_handoff_delay_ms,
            r.delay_samples,
            r.audit.expected,
            r.audit.delivered,
            r.audit.duplicates,
            r.audit.pending,
            r.audit.lost,
            r.audit.out_of_order,
            r.published,
            r.delivered_messages,
            r.total_hops,
            fnv1a(debug.as_bytes()),
        );
    }
    out
}

/// The builtin three on two sweep workers, unbudgeted.
fn builtin_sweep() -> Sweep {
    Sweep {
        registry: ProtocolRegistry::builtin(),
        workers: 2,
        budget: None,
    }
}

#[test]
fn zero_jitter_grid_figure5_matches_pre_refactor_golden() {
    let fig = figure5(&golden_base(), &[5.0, 60.0], &builtin_sweep());
    check_golden("figure5_small.golden", &snapshot(&fig));
}

#[test]
fn zero_jitter_grid_figure6_matches_pre_refactor_golden() {
    let fig = figure6(&golden_base(), &[3, 5], &builtin_sweep());
    check_golden("figure6_small.golden", &snapshot(&fig));
}

/// FIFO-under-jitter property loop (satellite): across ≥ 5 seeds, every
/// synthetic mobility model and every buildable topology kind, MHH under
/// heavy link jitter + asymmetry keeps exactly-once *in-order* delivery.
/// Per-publisher order at every subscriber is the end-to-end shadow of the
/// per-link FIFO invariant (§4.1): the engine's channel clocks are the only
/// thing standing between a jittered link and a reordered migration ack, so
/// any FIFO violation surfaces as `out_of_order` (or loss) in the audit.
/// The per-link ordering itself is asserted directly at the engine level in
/// `mhh-simnet`'s `fifo_per_link_holds_under_jitter`.
#[test]
fn mhh_stays_reliable_under_jitter_across_models_and_topologies() {
    let topologies = [
        TopologyKind::Grid,
        TopologyKind::Torus,
        TopologyKind::ScaleFree { edges_per_node: 2 },
        TopologyKind::RandomGeometric { target_degree: 4.0 },
    ];
    let models = ModelKind::synthetic();
    let mut sampler = DetRng::new(0x0046_4946_4f4a_4954);
    let cases = topologies.len() * 2; // 8 seeds, every topology twice
    for case in 0..cases {
        let topology = topologies[case % topologies.len()].clone();
        let model = models[case % models.len()].clone();
        let config = ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 3,
            mobile_fraction: 0.35,
            conn_mean_s: 15.0 + sampler.range_f64(0.0, 30.0),
            disc_mean_s: 10.0 + sampler.range_f64(0.0, 20.0),
            publish_interval_s: 8.0,
            duration_s: 300.0,
            jitter_ms: 1 + sampler.next_below(25),
            link_asymmetry: sampler.range_f64(0.0, 0.4),
            seed: sampler.next_u64(),
            topology,
            ..ScenarioConfig::paper_defaults()
        }
        .with_mobility(model.clone());
        let r = run_scenario(&config, Protocol::Mhh);
        assert!(
            r.handoffs > 0,
            "case {case} ({model} on {}): no handoffs",
            config.topology
        );
        assert_eq!(
            (r.audit.lost, r.audit.duplicates, r.audit.out_of_order),
            (0, 0, 0),
            "case {case} ({model} on {}, jitter {} ms): {:?}",
            config.topology,
            config.jitter_ms,
            r.audit
        );
    }
}

/// The safety-interval derivation must stretch with the link model: the
/// sub-unsub baseline stays lossless under jitter, asymmetry and an open
/// degradation window because its wait covers the worst-case *path* — one
/// jitter allowance per overlay hop, since hop-by-hop forwarding samples
/// jitter on every link. The first loop runs jitter-only on a 6×6 grid
/// (large diameter, nothing masking an under-sized bound); the second adds
/// asymmetry and a degradation window.
#[test]
fn sub_unsub_safety_interval_covers_jittered_links() {
    for seed in [3u64, 14, 159] {
        let config = ScenarioConfig {
            grid_side: 6,
            clients_per_broker: 2,
            mobile_fraction: 0.3,
            conn_mean_s: 25.0,
            disc_mean_s: 20.0,
            publish_interval_s: 10.0,
            duration_s: 300.0,
            jitter_ms: 20,
            seed,
            ..ScenarioConfig::paper_defaults()
        };
        let r = run_scenario(&config, Protocol::SubUnsub);
        assert!(r.handoffs > 0, "seed {seed}: no handoffs");
        assert!(r.reliable(), "jitter-only seed {seed}: {:?}", r.audit);
    }
    for seed in [3u64, 14, 159] {
        let config = ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 3,
            mobile_fraction: 0.3,
            conn_mean_s: 25.0,
            disc_mean_s: 20.0,
            publish_interval_s: 10.0,
            duration_s: 300.0,
            jitter_ms: 15,
            link_asymmetry: 0.25,
            degraded_windows: vec![(100.0, 160.0, 2.5)],
            seed,
            ..ScenarioConfig::paper_defaults()
        };
        let r = run_scenario(&config, Protocol::SubUnsub);
        assert!(r.handoffs > 0, "seed {seed}: no handoffs");
        assert!(r.reliable(), "seed {seed}: {:?}", r.audit);
    }
}

/// Acceptance: the jittered scale-free preset runs end-to-end through the
/// fluent `Sim` facade and its topology label lands in the rendered report
/// and the JSON export.
#[test]
fn scale_free_jitter_preset_runs_end_to_end_with_topology_label() {
    let result = Sim::scenario("scale-free-jitter")
        .grid_side(4)
        .clients_per_broker(3)
        .duration_s(300.0)
        .configure(|c| {
            c.conn_mean_s = 40.0;
            c.disc_mean_s = 20.0;
            c.publish_interval_s = 15.0;
        })
        .run()
        .expect("preset is registered");
    assert_eq!(result.protocol, "MHH");
    assert!(result.handoffs > 0);
    assert!(result.reliable(), "{:?}", result.audit);

    // The sweep path carries the topology into reports and JSON.
    let base = Sim::scenario("scale-free-jitter")
        .grid_side(4)
        .clients_per_broker(3)
        .duration_s(240.0)
        .configure(|c| {
            c.conn_mean_s = 30.0;
            c.disc_mean_s = 15.0;
            c.publish_interval_s = 15.0;
        })
        .build_config()
        .unwrap();
    let fig = figure5(&base, &[20.0], &builtin_sweep());
    assert!(
        fig.points
            .iter()
            .all(|p| p.label("topology").is_some_and(|t| t == "scale-free(m=2)")),
        "{:?}",
        fig.points[0].label("topology")
    );
    let text = render_figure(&fig);
    assert!(
        text.contains("topology: scale-free(m=2)"),
        "report must announce the topology:\n{text}"
    );
    assert!(
        text.contains("p50/p95/p99"),
        "report must carry the percentile panel:\n{text}"
    );
    let json = panel_json(&fig, Projection::Results);
    assert!(json.contains("\"topology\": \"scale-free(m=2)\""), "{json}");
    assert!(json.contains("\"gap_percentiles_ms\""), "{json}");
}

/// Mis-proclamation knob (satellite): a proclaiming client announces B but
/// reconnects at C, driving MHH through its pending-handoff/abort path. No
/// deliveries may be silently lost relative to the reactive run of the
/// identical move schedule.
#[test]
fn misproclaimed_moves_abort_cleanly_without_losing_deliveries() {
    for seed in [5u64, 77, 2024] {
        let base = ScenarioConfig {
            grid_side: 4,
            clients_per_broker: 3,
            mobile_fraction: 0.35,
            conn_mean_s: 30.0,
            disc_mean_s: 25.0,
            publish_interval_s: 8.0,
            duration_s: 350.0,
            seed,
            ..ScenarioConfig::paper_defaults()
        };
        let reactive = run_scenario(&base, Protocol::Mhh);
        let misproclaimed = run_scenario(
            &base
                .clone()
                .with_proclaimed_fraction(1.0)
                .with_misproclaim_fraction(1.0),
            Protocol::Mhh,
        );
        // Identical physical move schedule.
        assert_eq!(reactive.handoffs, misproclaimed.handoffs, "seed {seed}");
        assert!(reactive.handoffs > 0, "seed {seed}: no movement");
        assert_eq!(
            misproclaimed.proclaimed_handoffs(),
            misproclaimed.handoffs,
            "seed {seed}: every move proclaimed (wrongly)"
        );
        // The §4.1 abort path must not cost a single delivery: exactly the
        // reactive run's loss (zero for MHH), no duplicates, no reordering.
        assert_eq!(
            misproclaimed.audit.lost, reactive.audit.lost,
            "seed {seed}: mis-proclamation silently lost deliveries: {:?} vs {:?}",
            misproclaimed.audit, reactive.audit
        );
        assert!(reactive.reliable(), "seed {seed}: {:?}", reactive.audit);
        assert!(
            misproclaimed.reliable(),
            "seed {seed}: {:?}",
            misproclaimed.audit
        );
    }
}

/// Regression test for the crossing-migration race: under extreme churn —
/// bulk platoon migrations with every move proclaimed, half of them
/// wrongly, over heavily jittered asymmetric links — a proclaimed move and
/// the handoff triggered by its misproclaimed reconnect used to travel the
/// same link in opposite roles, and the older migration's `cancel_prev` /
/// `sub_migration_ack` would tear down the filter entries the newer one
/// had just installed, black-holing the subscriber's events until an
/// unrelated migration crossed the same broker again. Fixed by guarding
/// `cancel_prev` against severing a newer outbound route, closing capture
/// windows only from the matching neighbor (label-checked ack removal),
/// and re-migrating queues that finalize after the root moved on.
#[test]
fn extreme_platoon_churn_under_jitter_stays_reliable() {
    let config = ScenarioConfig {
        grid_side: 5,
        clients_per_broker: 3,
        mobile_fraction: 0.4,
        conn_mean_s: 11.033631900428539,
        disc_mean_s: 9.230533266275568,
        publish_interval_s: 6.0,
        duration_s: 250.0,
        jitter_ms: 13,
        link_asymmetry: 0.3003620502119615,
        seed: 0xc623_2c5a_fbc8_e0cb,
        ..ScenarioConfig::paper_defaults()
    }
    .with_mobility(ModelKind::GroupPlatoon {
        platoon_size: 4,
        jitter_s: 5.0,
    })
    .with_proclaimed_fraction(1.0)
    .with_misproclaim_fraction(0.5);
    let r = run_scenario(&config, Protocol::Mhh);
    assert_eq!(
        (r.audit.lost, r.audit.duplicates, r.audit.out_of_order),
        (0, 0, 0),
        "{:?}",
        r.audit
    );
}

/// Mis-proclamation composes with the half-way knob and the other
/// protocols: a 50 % wrong-announcement run keeps sub-unsub lossless and
/// home-broker no worse than its reactive self.
#[test]
fn partial_misproclamation_keeps_baselines_honest() {
    let base = ScenarioConfig {
        grid_side: 4,
        clients_per_broker: 3,
        mobile_fraction: 0.3,
        conn_mean_s: 30.0,
        disc_mean_s: 25.0,
        publish_interval_s: 10.0,
        duration_s: 300.0,
        seed: 41,
        ..ScenarioConfig::paper_defaults()
    }
    .with_proclaimed_fraction(1.0)
    .with_misproclaim_fraction(0.5);
    let su = run_scenario(&base, Protocol::SubUnsub);
    assert!(su.reliable(), "{:?}", su.audit);
    let hb_reactive = run_scenario(
        &base.clone().with_proclaimed_fraction(0.0),
        Protocol::HomeBroker,
    );
    let hb = run_scenario(&base, Protocol::HomeBroker);
    assert_eq!(hb.audit.duplicates, 0, "{:?}", hb.audit);
    assert!(
        hb.audit.lost <= hb_reactive.audit.lost,
        "wrong announcements must not widen HB's loss window: {} vs {}",
        hb.audit.lost,
        hb_reactive.audit.lost
    );
}
