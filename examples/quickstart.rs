//! Quickstart: the fluent `Sim` facade — pick a named scenario, pick a
//! protocol from the registry, override what you like, run, and compare all
//! registered protocols on the identical workload.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! With a scenario name as argument (`quickstart -- vehicular-commute`) it
//! instead smoke-runs that preset at reduced scale for every registered
//! protocol — the CI example matrix uses this to exercise new presets. Two
//! flags tune the smoke mode:
//!
//! * `--full` keeps the preset at its registered scale (CI uses this to
//!   smoke the `city-scale` stress preset at its real 2k-client size);
//! * `--budget-ms <N>` bounds the wall clock: protocols that cannot start
//!   before the budget elapses are skipped and reported, never hung on;
//! * `--engine-workers <K>` runs each simulation on the windowed parallel
//!   engine with `K` shards (`0` is the serial engine) — results are
//!   byte-identical to the serial engine, so CI smokes the parallel backend
//!   with the same assertions.

use std::sync::Arc;

use mhh_suite::mobility::{ModelKind, TraceRecord};
use mhh_suite::mobsim::{protocols::ProtocolRegistry, scenarios, Sim};

mod common;
use common::flag_value;

const USAGE: &str = "quickstart [<scenario> [--full] [--budget-ms <N>] [--engine-workers <K>]]";

/// Smoke-run a named preset across every registered protocol.
fn smoke(name: &str, full: bool, budget_ms: Option<u64>, engine_workers: Option<usize>) {
    let scale = if full { "full scale" } else { "reduced scale" };
    match engine_workers {
        Some(0) => println!("=== smoke: {name} ({scale}, serial engine) ==="),
        Some(k) => println!("=== smoke: {name} ({scale}, {k}-shard parallel engine) ==="),
        None => println!("=== smoke: {name} ({scale}) ==="),
    }
    let mut sim = Sim::scenario(name);
    if let Some(k) = engine_workers {
        sim = sim.engine_workers(k);
    }
    let preset = scenarios::find(name);
    let storm = preset.as_ref().is_some_and(|s| s.config.is_storm());
    // Late joiners miss events published before they join (they get only
    // the retained last-value replay, as in MQTT), so the delivery oracle
    // counts those as lost by design; only a fully-attached storm must be
    // loss-free.
    let late_joiners = preset
        .as_ref()
        .is_some_and(|s| s.config.late_subscriber_fraction > 0.0);
    // Lossy links and injected faults make losses legitimate; the oracle
    // there is exact accounting, not perfection.
    let lossy = preset
        .as_ref()
        .is_some_and(|s| s.config.loss_model().is_some() || !s.config.faults.is_empty());
    if !full {
        if storm {
            // Storm presets keep their own grid and duration; reduced scale
            // only trims the client population.
            sim = sim.configure(|c| {
                c.storm_publishers = c.storm_publishers.min(200);
                c.storm_subscribers = c.storm_subscribers.min(400);
            });
        } else {
            sim = sim
                .grid_side(4)
                .clients_per_broker(3)
                .duration_s(300.0)
                .configure(|c| {
                    c.conn_mean_s = c.conn_mean_s.min(60.0);
                    c.disc_mean_s = c.disc_mean_s.min(30.0);
                    c.publish_interval_s = c.publish_interval_s.min(30.0);
                });
        }
    }
    if let Some(b) = budget_ms {
        sim = sim.budget_ms(b);
    }
    let (results, skipped) = sim.run_all_budgeted().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for r in &results {
        println!(
            "  {:10} handoffs {:4} ({} proclaimed / {} reactive) | \
             overhead/handoff {:7.1} | delay {:7.1} ms | lost {:3}",
            r.protocol,
            r.handoffs,
            r.proclaimed_handoffs(),
            r.reactive_handoffs(),
            r.overhead_per_handoff,
            r.avg_handoff_delay_ms,
            r.audit.lost
        );
    }
    if !skipped.is_empty() {
        println!("  skipped under --budget-ms: {}", skipped.join(", "));
    }
    match results.iter().find(|r| r.protocol == "MHH") {
        Some(mhh) => {
            if storm {
                // Storm presets are static by design: the load is fan-out,
                // not mobility, and the byte accounting must be live.
                assert!(mhh.delivered_messages > 0, "storm must deliver events");
                assert!(mhh.traffic.delivery_bytes > 0, "storm payloads are modeled");
            } else {
                assert!(mhh.handoffs > 0, "smoke scenario must move clients");
            }
            if lossy {
                assert!(
                    mhh.recovery.reconciles_with(&mhh.audit),
                    "every loss must be accounted: {:?} vs {:?}",
                    mhh.recovery,
                    mhh.audit
                );
            } else if !late_joiners {
                assert!(mhh.reliable(), "MHH must stay reliable: {:?}", mhh.audit);
            }
        }
        None => {
            // Only a budget may drop protocols; without one this is a bug.
            assert!(
                budget_ms.is_some() && skipped.iter().any(|s| s == "MHH"),
                "MHH missing without a budget skip"
            );
            println!("  (MHH skipped by the wall-clock budget on this machine)");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a.starts_with("--")) {
        // Flags make no sense without a scenario; falling through to the
        // tutorial would silently ignore them.
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }
    if let Some(name) = args.first() {
        let full = args.iter().any(|a| a == "--full");
        let budget_ms: Option<u64> = flag_value(&args, "--budget-ms", USAGE);
        let engine_workers: Option<usize> = flag_value(&args, "--engine-workers", USAGE);
        smoke(name, full, budget_ms, engine_workers);
        return;
    }
    println!("=== MHH quickstart ===");

    // The two registries the builder ties together.
    println!("registered scenarios :");
    for s in scenarios::registry() {
        println!(
            "  {:20} {}",
            s.name,
            s.summary.split('.').next().unwrap_or("")
        );
    }
    println!("registered protocols :");
    for spec in ProtocolRegistry::global().specs() {
        println!(
            "  {:12} ({:9}) {}",
            spec.name(),
            spec.label(),
            spec.summary()
        );
    }

    // One fluent chain: the paper's Figure 5 environment, scaled down,
    // moved by a hand-written trace instead of uniform random jumps, run
    // under the MHH protocol.
    let trace = ModelKind::TracePlayback(Arc::new(vec![
        // Client 0 (home broker 0 on the 4×4 grid) tours the first column.
        TraceRecord {
            at_s: 40.0,
            client: 0,
            from: 0,
            to: 4,
        },
        TraceRecord {
            at_s: 110.0,
            client: 0,
            from: 4,
            to: 8,
        },
        TraceRecord {
            at_s: 190.0,
            client: 0,
            from: 8,
            to: 0,
        },
        // Client 5 visits the far corner and returns.
        TraceRecord {
            at_s: 75.0,
            client: 5,
            from: 5,
            to: 15,
        },
        TraceRecord {
            at_s: 150.0,
            client: 5,
            from: 15,
            to: 5,
        },
    ]));
    let result = Sim::scenario("paper-fig5")
        .protocol("mhh")
        .mobility(trace)
        .grid_side(4)
        .clients_per_broker(2)
        .duration_s(300.0)
        // Playback reconnects `disc_mean_s` after each departure; the
        // paper's 5-minute gap would overshoot the 300 s horizon.
        .configure(|c| c.disc_mean_s = 20.0)
        .run()
        .expect("scenario and protocol are registered");

    println!();
    println!(
        "one run: paper-fig5 (4x4, trace mobility) under {}",
        result.protocol
    );
    println!("  events published   : {}", result.published);
    println!("  handoffs performed : {}", result.handoffs);
    println!(
        "  overhead/handoff   : {:.1} hops",
        result.overhead_per_handoff
    );
    println!(
        "  avg handoff delay  : {:.1} ms",
        result.avg_handoff_delay_ms
    );
    assert_eq!(result.handoffs, 5, "the trace replays five moves");
    assert!(
        result.reliable(),
        "MHH is exactly-once and ordered: {:?}",
        result.audit
    );
    println!("  delivery check     : exactly-once, in order ✓");

    // The same scenario for *every* registered protocol — a paired
    // comparison over the identical seeded workload, fanned out over the
    // available cores.
    println!();
    println!("all registered protocols on the same workload:");
    let results = Sim::scenario("paper-fig5")
        .mobility(ModelKind::ManhattanGrid)
        .grid_side(4)
        .clients_per_broker(3)
        .duration_s(300.0)
        .configure(|c| {
            c.conn_mean_s = 45.0;
            c.disc_mean_s = 30.0;
            c.publish_interval_s = 60.0;
        })
        .run_all()
        .expect("builtin protocols are registered");
    for r in &results {
        println!(
            "  {:10} overhead/handoff {:7.1} | delay {:7.1} ms | lost {:3}",
            r.protocol, r.overhead_per_handoff, r.avg_handoff_delay_ms, r.audit.lost
        );
    }
    assert!(
        results.windows(2).all(|w| w[0].handoffs == w[1].handoffs),
        "paired workload: every protocol sees the same moves"
    );
}
