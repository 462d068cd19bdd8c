//! Integration tests of the pluggable mobility subsystem: model determinism
//! and trace validity (property-style, sampled from a seeded rng), delivery
//! guarantees for every model × protocol combination, and byte-identity of
//! the parallel sweep runner against a serial run.

use std::sync::Arc;

use mhh_suite::mobility::sweep::{available_workers, map_parallel, map_serial};
use mhh_suite::mobility::trace::validate_trace;
use mhh_suite::mobility::{MobilityWorld, ModelKind, TraceRecord};
use mhh_suite::mobsim::report::{panel_json, render_matrix, Projection};
use mhh_suite::mobsim::{figure5, mobility_matrix, run_scenario, Protocol, ScenarioConfig, Sweep};
use mhh_suite::simnet::random::DetRng;

/// Every model kind, including a playback trace that chains correctly from
/// the workload's home assignment (client i lives at broker i % brokers).
fn all_kinds() -> Vec<ModelKind> {
    let mut kinds = ModelKind::synthetic();
    kinds.push(ModelKind::TracePlayback(Arc::new(vec![
        TraceRecord {
            at_s: 40.0,
            client: 0,
            from: 0,
            to: 5,
        },
        TraceRecord {
            at_s: 120.0,
            client: 0,
            from: 5,
            to: 2,
        },
        TraceRecord {
            at_s: 60.0,
            client: 3,
            from: 3,
            to: 11,
        },
        TraceRecord {
            at_s: 200.0,
            client: 3,
            from: 11,
            to: 3,
        },
        TraceRecord {
            at_s: 90.0,
            client: 10,
            from: 10,
            to: 6,
        },
    ])));
    kinds
}

fn small_world() -> MobilityWorld {
    MobilityWorld::grid(4, 40.0, 20.0, 600.0, 77)
}

/// Property: identical seeds produce identical traces; traces always satisfy
/// the structural invariants (chained positions, no self-moves, monotone
/// in-horizon times).
#[test]
fn every_model_is_deterministic_and_never_self_moves() {
    let world = small_world();
    let brokers = world.broker_count() as u32;
    let mut sampler = DetRng::new(0xdecaf);
    for kind in all_kinds() {
        let model = kind.build();
        for _case in 0..24 {
            let client = sampler.next_below(16) as u32;
            let home = sampler.next_below(brokers as u64) as u32;
            let seed = sampler.next_u64();
            let a = model.trace(&world, client, home, seed);
            let b = model.trace(&world, client, home, seed);
            assert_eq!(a, b, "{}: same seed must give the same trace", kind.label());
            validate_trace(&world, home, &a).unwrap_or_else(|e| {
                panic!(
                    "{}: invalid trace (client {client}, home {home}, seed {seed}): {e}",
                    kind.label()
                )
            });
            for step in &a.steps {
                assert_ne!(step.from, step.to, "{}: self-move", kind.label());
            }
        }
    }
}

/// Synthetic models must actually respond to the seed (playback ignores it
/// by design).
#[test]
fn synthetic_models_vary_with_the_seed() {
    let world = small_world();
    for kind in ModelKind::synthetic() {
        let model = kind.build();
        let a = model.trace(&world, 0, 5, 1);
        let b = model.trace(&world, 0, 5, 2);
        assert!(!a.steps.is_empty());
        assert_ne!(a, b, "{}: different seeds, same trace", kind.label());
    }
}

fn matrix_base() -> ScenarioConfig {
    ScenarioConfig {
        grid_side: 4,
        clients_per_broker: 3,
        mobile_fraction: 0.25,
        conn_mean_s: 60.0,
        disc_mean_s: 30.0,
        publish_interval_s: 15.0,
        duration_s: 480.0,
        seed: 21,
        ..ScenarioConfig::paper_defaults()
    }
}

/// Every mobility model × every protocol: MHH and sub-unsub deliver
/// exactly-once and in order under all five movement patterns; home-broker
/// never duplicates or reorders (its small in-transit loss window is the
/// unreliability the paper calls out, so it is bounded, not forbidden).
#[test]
fn all_models_times_all_protocols_keep_the_delivery_guarantees() {
    for kind in all_kinds() {
        let config = matrix_base().with_mobility(kind.clone());
        for protocol in Protocol::ALL {
            let r = run_scenario(&config, protocol);
            assert!(
                r.handoffs > 0,
                "{} × {}: workload produced no handoffs",
                kind.label(),
                protocol.label()
            );
            match protocol {
                Protocol::Mhh | Protocol::SubUnsub => assert!(
                    r.reliable(),
                    "{} × {}: {:?}",
                    kind.label(),
                    protocol.label(),
                    r.audit
                ),
                Protocol::HomeBroker => {
                    assert_eq!(r.audit.duplicates, 0, "{}: {:?}", kind.label(), r.audit);
                    assert_eq!(r.audit.out_of_order, 0, "{}: {:?}", kind.label(), r.audit);
                    assert!(
                        r.loss_rate() < 0.02,
                        "{}: home-broker loss rate {} out of bounds: {:?}",
                        kind.label(),
                        r.loss_rate(),
                        r.audit
                    );
                }
            }
        }
    }
}

/// The short-hop models are where MHH's hop-by-hop migration pays off most:
/// its per-handoff overhead advantage over sub-unsub must be at least as
/// large under adjacent-hop movement as under the paper's uniform jumps.
#[test]
fn short_hop_models_magnify_mhh_overhead_advantage() {
    let matrix = mobility_matrix(&matrix_base(), &ModelKind::synthetic(), &Sweep::default());
    let advantage = |model: &ModelKind| {
        let mhh = matrix.cell(model, "MHH").unwrap();
        let su = matrix.cell(model, "sub-unsub").unwrap();
        su.result.overhead_per_handoff / mhh.result.overhead_per_handoff
    };
    let uniform = advantage(&ModelKind::UniformRandom);
    assert!(
        uniform > 1.0,
        "MHH must beat sub-unsub even under uniform jumps"
    );
    for short_hop in [
        ModelKind::RandomWaypoint { pause_mean_s: 60.0 },
        ModelKind::ManhattanGrid,
    ] {
        assert!(
            advantage(&short_hop) > uniform,
            "{short_hop} advantage {} should exceed uniform-random {uniform}",
            advantage(&short_hop)
        );
    }
}

/// The process-wide registry, unbudgeted, on `workers` sweep threads.
fn on_workers(workers: usize) -> Sweep {
    Sweep {
        workers,
        ..Sweep::default()
    }
}

/// The parallel sweep runner must produce byte-identical results to a serial
/// run of the same seeds — for the generic executor, the figure sweeps and
/// the model matrix.
#[test]
fn parallel_sweeps_are_byte_identical_to_serial() {
    let base = ScenarioConfig {
        duration_s: 240.0,
        conn_mean_s: 30.0,
        ..matrix_base()
    };

    let serial_fig = figure5(&base, &[10.0, 60.0], &on_workers(1));
    let parallel_fig = figure5(&base, &[10.0, 60.0], &on_workers(4));
    assert_eq!(
        format!("{:?}", serial_fig.points),
        format!("{:?}", parallel_fig.points)
    );

    let kinds = ModelKind::synthetic();
    let serial_m = mobility_matrix(&base, &kinds, &on_workers(1));
    let parallel_m = mobility_matrix(&base, &kinds, &on_workers(4));
    assert_eq!(
        format!("{:?}", serial_m.points),
        format!("{:?}", parallel_m.points)
    );

    // The reports built from them are identical too.
    assert_eq!(render_matrix(&serial_m), render_matrix(&parallel_m));
    assert_eq!(
        panel_json(&serial_m, Projection::Results),
        panel_json(&parallel_m, Projection::Results)
    );

    // Generic executor sanity at several worker counts.
    let items: Vec<u64> = (0..100).collect();
    let expect = map_serial(&items, |x| x.wrapping_mul(0x9e37_79b9));
    for workers in [2, 4, 16] {
        assert_eq!(
            map_parallel(&items, workers, |x| x.wrapping_mul(0x9e37_79b9)),
            expect
        );
    }
}

/// Wall-clock speedup of the parallel runner. Ignored by default: wall-clock
/// assertions flake when sibling tests contend for the same cores (CI
/// machines are small). Run explicitly on an otherwise-idle
/// ≥ 4-core machine: `cargo test --release -- --ignored speedup`.
#[test]
#[ignore = "wall-clock sensitive; run explicitly on an idle multicore machine"]
fn parallel_sweep_speedup_on_multicore() {
    let workers = available_workers();
    if workers < 4 {
        eprintln!("skipping speedup assertion: only {workers} worker(s) available");
        return;
    }
    let base = matrix_base();
    let sweep = [5.0, 20.0, 60.0, 120.0];
    let t0 = std::time::Instant::now();
    let serial = figure5(&base, &sweep, &on_workers(1));
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let parallel = figure5(&base, &sweep, &on_workers(workers));
    let parallel_s = t1.elapsed().as_secs_f64();
    assert_eq!(
        format!("{:?}", serial.points),
        format!("{:?}", parallel.points)
    );
    let speedup = serial_s / parallel_s;
    assert!(
        speedup > 1.5,
        "expected >1.5x speedup on {workers} workers, measured {speedup:.2}x \
         (serial {serial_s:.2}s, parallel {parallel_s:.2}s)"
    );
}

/// Points of figure sweeps carry the mobility-model label end to end.
#[test]
fn figure_points_are_labelled_with_the_model() {
    let base = ScenarioConfig {
        duration_s: 240.0,
        mobility: ModelKind::ManhattanGrid,
        ..matrix_base()
    };
    let fig = figure5(&base, &[30.0], &on_workers(1));
    assert!(fig
        .points
        .iter()
        .all(|p| p.label("mobility").is_some_and(|m| m == "manhattan-grid")));
    let json = panel_json(&fig, Projection::Results);
    assert!(json.contains("\"mobility\": \"manhattan-grid\""));
}
