//! End-to-end tests of the MHH protocol on small broker grids.
//!
//! Each test builds a complete simulated deployment ([`Deployment<Mhh>`]),
//! injects a publish/mobility timeline, runs it to completion and checks the
//! paper's delivery guarantees (exactly-once, per-publisher order, no loss)
//! plus structural properties of the handoff.

use std::collections::HashMap;

use mhh_pubsub::delivery::{audit, SubscriberLog};
use mhh_pubsub::event::EventBuilder;
use mhh_pubsub::{
    BrokerId, ClientAction, ClientId, ClientSpec, Deployment, DeploymentConfig, Event, EventId,
    Filter, Op, Peer,
};
use mhh_simnet::{SimTime, TrafficClass};

use crate::protocol::Mhh;

const GROUP_WATCHED: i64 = 1;
const GROUP_OTHER: i64 = 2;

fn filter(group: i64) -> Filter {
    Filter::single("group", Op::Eq, group)
}

fn event(id: u64, publisher: ClientId, seq: u64, group: i64) -> Event {
    EventBuilder::new()
        .attr("group", group)
        .attr("price", id as f64)
        .build(id, publisher, seq)
}

/// Build a deployment on a `side`×`side` grid with:
/// * client 0 — the mobile subscriber under test (subscribes to group 1),
/// * client 1 — a stationary publisher (subscribes to group 2, publishes group 1),
/// * client 2 — a stationary subscriber to group 1 (control for collateral damage).
fn build(side: usize) -> Deployment<Mhh> {
    let brokers = side * side;
    let clients = vec![
        ClientSpec {
            filter: filter(GROUP_WATCHED),
            home: BrokerId(0),
            mobile: true,
            initially_attached: true,
        },
        ClientSpec {
            filter: filter(GROUP_OTHER),
            home: BrokerId((brokers / 2) as u32),
            mobile: false,
            initially_attached: true,
        },
        ClientSpec {
            filter: filter(GROUP_WATCHED),
            home: BrokerId((brokers - 1) as u32),
            mobile: false,
            initially_attached: true,
        },
    ];
    let config = DeploymentConfig {
        grid_side: side,
        seed: 42,
        ..DeploymentConfig::default()
    };
    Deployment::build(&config, &clients, |_| Mhh::new())
}

/// Schedule `count` publishes of group-1 events from client 1, one every
/// `every_ms`, starting at `start_ms`.
fn schedule_publishes(dep: &mut Deployment<Mhh>, start_ms: u64, every_ms: u64, count: u64) {
    for i in 0..count {
        let at = SimTime::from_millis(start_ms + i * every_ms);
        dep.schedule_publish(
            at,
            ClientId(1),
            event(1000 + i, ClientId(1), i, GROUP_WATCHED),
        );
    }
}

/// Run to completion and audit deliveries of the group-1 subscribers.
fn run_and_audit(mut dep: Deployment<Mhh>) -> (Deployment<Mhh>, mhh_pubsub::DeliveryAudit) {
    dep.engine.run_to_completion();
    let published: Vec<Event> = dep.clients().flat_map(|c| c.published.clone()).collect();
    let buffered = dep.buffered_events();
    let f = filter(GROUP_WATCHED);
    let logs: Vec<(ClientId, Vec<mhh_pubsub::DeliveryRecord>)> = dep
        .clients()
        .filter(|c| c.filter == f)
        .map(|c| (c.id, c.received.clone()))
        .collect();
    let subscriber_logs: Vec<SubscriberLog<'_>> = logs
        .iter()
        .map(|(id, recs)| SubscriberLog {
            client: *id,
            filter: &f,
            deliveries: recs,
        })
        .collect();
    let result = audit(&published, &subscriber_logs, &buffered);
    (dep, result)
}

#[test]
fn stationary_clients_receive_everything() {
    let mut dep = build(3);
    schedule_publishes(&mut dep, 10, 200, 20);
    let (dep, audit) = run_and_audit(dep);
    assert!(audit.is_reliable(), "audit: {audit:?}");
    assert_eq!(audit.expected, 40, "two subscribers × 20 events");
    assert_eq!(audit.delivered, 40);
    assert_eq!(dep.engine.stats().mobility_hops(), 0);
}

#[test]
fn silent_move_is_exactly_once_and_ordered() {
    let mut dep = build(4);
    schedule_publishes(&mut dep, 10, 100, 60);
    // Client 0 disconnects at 1.5 s, reconnects at the far corner at 3 s.
    dep.schedule(
        SimTime::from_millis(1_500),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    dep.schedule(
        SimTime::from_millis(3_000),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(15),
        },
    );
    let (dep, audit) = run_and_audit(dep);
    assert!(audit.is_reliable(), "audit: {audit:?}");
    assert_eq!(audit.lost, 0);
    assert_eq!(
        audit.pending, 0,
        "client reconnected, nothing should stay parked"
    );
    // The mobile client saw a real handoff with a measured delay.
    let mobile = dep.client(ClientId(0));
    assert_eq!(mobile.handoff_count(), 1);
    let delays = mobile.handoff_delays();
    assert_eq!(delays.len(), 1);
    assert!(delays[0] > 0.0 && delays[0] < 2_000.0, "delay {delays:?}");
    // Handoff generated mobility traffic (control + transferred events).
    let stats = dep.engine.stats();
    assert!(stats.class(TrafficClass::MobilityControl).hops > 0);
    assert!(stats.class(TrafficClass::MobilityTransfer).hops > 0);
}

#[test]
fn events_during_disconnection_are_stored_then_delivered_in_order() {
    let mut dep = build(4);
    // All publishes happen while client 0 is away.
    dep.schedule(
        SimTime::from_millis(5),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    schedule_publishes(&mut dep, 100, 50, 30);
    dep.schedule(
        SimTime::from_millis(5_000),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(10),
        },
    );
    let (dep, audit) = run_and_audit(dep);
    assert!(audit.is_reliable(), "audit: {audit:?}");
    let mobile = dep.client(ClientId(0));
    assert_eq!(mobile.received.len(), 30, "all stored events delivered");
    // Order: per-publisher sequence strictly increasing. A delivery names
    // its event; the publisher's log holds the event's sequence number.
    let seq_of: HashMap<EventId, u64> = dep
        .client(ClientId(1))
        .published
        .iter()
        .map(|e| (e.id, e.seq))
        .collect();
    let seqs: Vec<u64> = mobile.received.iter().map(|r| seq_of[&r.event]).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    assert_eq!(seqs, sorted);
}

#[test]
fn proclaimed_move_delivers_everything() {
    let mut dep = build(4);
    schedule_publishes(&mut dep, 10, 100, 50);
    dep.schedule(
        SimTime::from_millis(2_000),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: Some(BrokerId(12)),
        },
    );
    dep.schedule(
        SimTime::from_millis(4_000),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(12),
        },
    );
    let (dep, audit) = run_and_audit(dep);
    assert!(audit.is_reliable(), "audit: {audit:?}");
    assert_eq!(audit.pending, 0);
    let mobile = dep.client(ClientId(0));
    assert_eq!(mobile.received.len(), 50);
}

#[test]
fn reconnect_at_same_broker_needs_no_handoff() {
    let mut dep = build(3);
    schedule_publishes(&mut dep, 10, 100, 20);
    dep.schedule(
        SimTime::from_millis(500),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    dep.schedule(
        SimTime::from_millis(1_500),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(0),
        },
    );
    let (dep, audit) = run_and_audit(dep);
    assert!(audit.is_reliable(), "audit: {audit:?}");
    let mobile = dep.client(ClientId(0));
    assert_eq!(mobile.handoff_count(), 0);
    assert_eq!(mobile.received.len(), 20);
    // No handoff request was ever sent.
    assert_eq!(dep.engine.stats().kind("handoff_request").messages, 0);
}

#[test]
fn frequent_moving_keeps_exactly_once_delivery() {
    let mut dep = build(4);
    schedule_publishes(&mut dep, 10, 40, 200);
    // The client hops across four brokers with very short connection periods,
    // tight enough that handoffs overlap (40–160 ms between moves while a
    // single handoff takes several link round trips).
    let hops = [5u32, 15, 2, 10, 7, 0];
    let mut t = 500u64;
    for (i, b) in hops.iter().enumerate() {
        dep.schedule(
            SimTime::from_millis(t),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        t += 40 + (i as u64 * 20) % 120;
        dep.schedule(
            SimTime::from_millis(t),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(*b),
            },
        );
        t += 60 + (i as u64 * 37) % 160;
    }
    let (dep, audit) = run_and_audit(dep);
    assert_eq!(audit.lost, 0, "audit: {audit:?}");
    assert_eq!(audit.duplicates, 0, "audit: {audit:?}");
    assert_eq!(audit.out_of_order, 0, "audit: {audit:?}");
    let mobile = dep.client(ClientId(0));
    assert!(mobile.handoff_count() >= 5);
}

#[test]
fn client_disconnected_at_end_has_pending_not_lost_events() {
    let mut dep = build(3);
    dep.schedule(
        SimTime::from_millis(5),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    schedule_publishes(&mut dep, 100, 100, 10);
    // The client never comes back.
    let (dep, audit) = run_and_audit(dep);
    assert_eq!(audit.lost, 0, "audit: {audit:?}");
    assert_eq!(audit.pending, 10, "stored events are pending, not lost");
    assert!(audit.is_reliable());
    // They are stored at the client's last broker.
    let origin = dep.broker(BrokerId(0));
    let state = origin.proto.client_state(ClientId(0)).expect("state kept");
    assert_eq!(state.buffered().len(), 10);
}

#[test]
fn concurrent_mobility_of_same_filter_clients_does_not_disturb_others() {
    // Two mobile subscribers sharing the group-1 filter plus one stationary
    // group-1 subscriber; both mobiles move at overlapping times.
    let clients = vec![
        ClientSpec {
            filter: filter(GROUP_WATCHED),
            home: BrokerId(0),
            mobile: true,
            initially_attached: true,
        },
        ClientSpec {
            filter: filter(GROUP_OTHER),
            home: BrokerId(7),
            mobile: false,
            initially_attached: true,
        },
        ClientSpec {
            filter: filter(GROUP_WATCHED),
            home: BrokerId(15),
            mobile: false,
            initially_attached: true,
        },
        ClientSpec {
            filter: filter(GROUP_WATCHED),
            home: BrokerId(3),
            mobile: true,
            initially_attached: true,
        },
    ];
    let config = DeploymentConfig {
        grid_side: 4,
        seed: 9,
        ..DeploymentConfig::default()
    };
    let mut dep: Deployment<Mhh> = Deployment::build(&config, &clients, |_| Mhh::new());
    for i in 0..120u64 {
        dep.schedule_publish(
            SimTime::from_millis(10 + i * 60),
            ClientId(1),
            event(5000 + i, ClientId(1), i, GROUP_WATCHED),
        );
    }
    for (cid, disc, reco, target) in [
        (ClientId(0), 1_000u64, 1_400u64, BrokerId(12)),
        (ClientId(3), 1_100, 1_600, BrokerId(8)),
        (ClientId(0), 3_000, 3_300, BrokerId(5)),
        (ClientId(3), 3_100, 3_500, BrokerId(14)),
    ] {
        dep.schedule(
            SimTime::from_millis(disc),
            cid,
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(reco),
            cid,
            ClientAction::Reconnect { broker: target },
        );
    }
    dep.engine.run_to_completion();

    let published: Vec<Event> = dep.clients().flat_map(|c| c.published.clone()).collect();
    let buffered = dep.buffered_events();
    let f = filter(GROUP_WATCHED);
    let logs: Vec<(ClientId, Vec<mhh_pubsub::DeliveryRecord>)> = dep
        .clients()
        .filter(|c| c.filter == f)
        .map(|c| (c.id, c.received.clone()))
        .collect();
    let subscriber_logs: Vec<SubscriberLog<'_>> = logs
        .iter()
        .map(|(id, recs)| SubscriberLog {
            client: *id,
            filter: &f,
            deliveries: recs,
        })
        .collect();
    let result = audit(&published, &subscriber_logs, &buffered);
    assert!(result.is_reliable(), "audit: {result:?}");
    // The stationary subscriber got every event with no interference.
    let stationary = dep.client(ClientId(2));
    assert_eq!(stationary.received.len(), 120);
}

#[test]
fn handoff_rewires_filter_tables_toward_new_broker() {
    let mut dep = build(4);
    schedule_publishes(&mut dep, 10, 100, 10);
    dep.schedule(
        SimTime::from_millis(300),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    dep.schedule(
        SimTime::from_millis(800),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(15),
        },
    );
    let (dep, audit) = run_and_audit(dep);
    assert!(audit.is_reliable(), "audit: {audit:?}");
    // The origin broker no longer has a client entry for client 0; the new
    // broker does.
    let f = filter(GROUP_WATCHED);
    assert!(!dep
        .broker(BrokerId(0))
        .core
        .filters
        .contains(Peer::Client(ClientId(0)), &f));
    assert!(dep
        .broker(BrokerId(15))
        .core
        .filters
        .contains(Peer::Client(ClientId(0)), &f));
    // And no broker keeps a temporary-queue role for the client.
    for b in dep.brokers() {
        if let Some(st) = b.proto.client_state(ClientId(0)) {
            assert!(st.tq.is_none(), "broker {} kept a TQ", b.core.id);
            assert!(st.dest.is_none(), "broker {} kept dest state", b.core.id);
            assert!(
                st.outbound.is_none(),
                "broker {} kept outbound state",
                b.core.id
            );
        }
    }
}

#[test]
fn handoff_delay_scales_with_distance_not_network_diameter() {
    // Handoff between adjacent brokers must be faster than a handoff across
    // the whole grid.
    let mut near = build(5);
    schedule_publishes(&mut near, 10, 50, 100);
    near.schedule(
        SimTime::from_millis(1_000),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    near.schedule(
        SimTime::from_millis(1_500),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(1),
        },
    );
    let (near, near_audit) = run_and_audit(near);
    assert!(near_audit.is_reliable());

    let mut far = build(5);
    schedule_publishes(&mut far, 10, 50, 100);
    far.schedule(
        SimTime::from_millis(1_000),
        ClientId(0),
        ClientAction::Disconnect {
            proclaimed_dest: None,
        },
    );
    far.schedule(
        SimTime::from_millis(1_500),
        ClientId(0),
        ClientAction::Reconnect {
            broker: BrokerId(24),
        },
    );
    let (far, far_audit) = run_and_audit(far);
    assert!(far_audit.is_reliable());

    let near_delay = near.client(ClientId(0)).handoff_delays()[0];
    let far_delay = far.client(ClientId(0)).handoff_delays()[0];
    assert!(
        near_delay < far_delay,
        "adjacent handoff ({near_delay} ms) should beat cross-grid handoff ({far_delay} ms)"
    );
}
