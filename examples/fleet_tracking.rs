//! Fleet-tracking scenario: delivery vans roam a city's base stations while
//! subscribing to dispatch orders for their own zone; the dispatch centre
//! publishes orders continuously. The vans are the mobile clients; MHH keeps
//! every order exactly-once and in order even though the vans hop between
//! cells every few seconds.
//!
//! Run with: `cargo run --release --example fleet_tracking`

use std::collections::HashMap;

use mhh_suite::mhh::Mhh;
use mhh_suite::mobsim::Sim;
use mhh_suite::pubsub::event::EventBuilder;
use mhh_suite::pubsub::{
    BrokerId, ClientAction, ClientId, ClientSpec, Deployment, DeploymentConfig, EventId, Filter, Op,
};
use mhh_suite::simnet::random::DetRng;
use mhh_suite::simnet::SimTime;

fn main() {
    // Part 1: a hand-built fleet on a 6×6 city grid.
    let config = DeploymentConfig {
        grid_side: 6,
        seed: 7,
        ..DeploymentConfig::default()
    };
    let vans = 8usize;
    let zones = 4i64;
    let mut specs: Vec<ClientSpec> = (0..vans)
        .map(|i| ClientSpec {
            filter: Filter::single("zone", Op::Eq, (i as i64) % zones).and("kind", Op::Eq, "order"),
            home: BrokerId((i * 4 % 36) as u32),
            mobile: true,
            initially_attached: true,
        })
        .collect();
    // The dispatch centre.
    specs.push(ClientSpec {
        filter: Filter::single("kind", Op::Eq, "ack"),
        home: BrokerId(18),
        mobile: false,
        initially_attached: true,
    });
    let dispatch = ClientId(vans as u32);

    let mut dep: Deployment<Mhh> = Deployment::build(&config, &specs, |_| Mhh::new());

    // Orders: one every 100 ms, round-robin over zones.
    for i in 0..400u64 {
        let ev = EventBuilder::new()
            .attr("kind", "order")
            .attr("zone", (i as i64) % zones)
            .attr("priority", (i % 3) as i64)
            .build(i, dispatch, i);
        dep.schedule_publish(SimTime::from_millis(5 + i * 100), dispatch, ev);
    }
    // Vans hop cells pseudo-randomly every 3–8 seconds.
    let mut rng = DetRng::new(2024);
    for v in 0..vans as u32 {
        let mut t = 2_000 + 400 * v as u64;
        for _ in 0..4 {
            let away = 500 + rng.next_below(1_500);
            let next = rng.index(36) as u32;
            dep.schedule(
                SimTime::from_millis(t),
                ClientId(v),
                ClientAction::Disconnect {
                    proclaimed_dest: None,
                },
            );
            dep.schedule(
                SimTime::from_millis(t + away),
                ClientId(v),
                ClientAction::Reconnect {
                    broker: BrokerId(next),
                },
            );
            t += away + 3_000 + rng.next_below(5_000);
        }
    }
    dep.engine.run_to_completion();

    println!("=== fleet tracking: 36 cells, {vans} vans, 400 orders ===");
    let mut total_handoffs = 0usize;
    // A delivery names its event; the dispatch centre's log holds the
    // order's sequence number.
    let seq_of: HashMap<EventId, u64> = dep
        .client(dispatch)
        .published
        .iter()
        .map(|e| (e.id, e.seq))
        .collect();
    for van in 0..vans as u32 {
        let c = dep.client(ClientId(van));
        total_handoffs += c.handoff_count();
        let seqs: Vec<u64> = c.received.iter().map(|r| seq_of[&r.event]).collect();
        let ordered = seqs.windows(2).all(|w| w[0] < w[1]);
        println!(
            "van {van}: {:3} orders received, {} handoffs, ordered = {}",
            c.received.len(),
            c.handoff_count(),
            ordered
        );
        assert!(ordered, "van {van} saw out-of-order orders");
    }
    let stats = dep.engine.stats();
    println!(
        "total: {} handoffs, {} mobility hops ({:.1} hops/handoff)",
        total_handoffs,
        stats.mobility_hops(),
        stats.mobility_hops() as f64 / total_handoffs.max(1) as f64
    );

    // Part 2: the same story at workload scale through the fluent harness
    // facade, comparing every registered protocol on one configuration.
    println!();
    println!("=== harness comparison (25 brokers, 100 clients, 5 min horizon) ===");
    let results = Sim::scenario("paper-fig5")
        .grid_side(5)
        .clients_per_broker(4)
        .duration_s(300.0)
        .configure(|c| {
            c.conn_mean_s = 20.0;
            c.disc_mean_s = 40.0;
            c.publish_interval_s = 10.0;
        })
        .run_all()
        .expect("builtin protocols are registered");
    for r in results {
        println!(
            "{:11} overhead/handoff {:8.1} | delay {:7.1} ms | lost {:3} | dup {:3} | out-of-order {:3}",
            r.protocol,
            r.overhead_per_handoff,
            r.avg_handoff_delay_ms,
            r.audit.lost,
            r.audit.duplicates,
            r.audit.out_of_order
        );
    }
}
