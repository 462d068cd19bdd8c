//! Differential and sharing tests of the shared filter records.
//!
//! A deployment makes one [`FilterRef`] per distinct client filter and puts
//! a clone of it into every broker's table. These tests pin that this
//! sharing is invisible: tables installed that way equal tables built
//! through the public `FilterTable::add(peer, filter.clone())` with a deep
//! copy per entry — entries, matching and every covering query — before
//! and after the same label changes, removals and re-adds. They also pin
//! that the sharing actually happens (one record per subscription, in
//! every broker, across a propagation hop) and that equality stays by
//! content.

use std::sync::Arc;

use mhh_suite::mobsim::{scenarios, ScenarioConfig, Workload};
use mhh_suite::pubsub::broker::NoProtocol;
use mhh_suite::pubsub::{
    BrokerId, ClientAction, ClientId, ClientSpec, Deployment, DeploymentConfig, Event, Filter,
    FilterEntry, FilterRef, FilterTable, Op, Peer,
};
use mhh_suite::simnet::{Network, SimTime};

type Dep = Deployment<NoProtocol>;

/// A preset at tiny scale: 16 brokers, 4 clients each, and enough
/// publishes for 1,000 events.
fn tiny(preset: &str) -> ScenarioConfig {
    let base = scenarios::find(preset)
        .unwrap_or_else(|| panic!("preset {preset} is registered"))
        .config;
    ScenarioConfig {
        grid_side: 4,
        clients_per_broker: 4,
        publish_interval_s: 5.0,
        duration_s: 90.0,
        ..base
    }
}

fn deployment_config(config: &ScenarioConfig) -> DeploymentConfig {
    DeploymentConfig {
        grid_side: config.grid_side,
        topology: config.topology.clone(),
        seed: config.seed,
        covering: config.covering,
        ..DeploymentConfig::default()
    }
}

/// The tables the deployment's shared install built, one per broker.
fn shared_tables(dep: &Dep) -> Vec<FilterTable> {
    dep.brokers().map(|b| b.core.filters.clone()).collect()
}

/// The same tables through the public `add`, one deep copy per entry: the
/// subscription of every initially attached client, rooted at its home, in
/// client order.
fn copied_tables(network: &Network, clients: &[ClientSpec]) -> Vec<FilterTable> {
    let mut tables = vec![FilterTable::new(); network.broker_count()];
    for (c, spec) in clients.iter().enumerate() {
        if !spec.initially_attached {
            continue;
        }
        for (here, table) in tables.iter_mut().enumerate() {
            let peer = if here == spec.home.index() {
                Peer::Client(ClientId(c as u32))
            } else {
                Peer::Broker(BrokerId(network.next_hop(here, spec.home.index()) as u32))
            };
            table.add(peer, spec.filter.clone());
        }
    }
    tables
}

/// What a plain in-order walk of the table hands the event to.
fn linear_targets(t: &FilterTable, event: &Event, from: Peer) -> Vec<Peer> {
    let mut out: Vec<Peer> = Vec::new();
    for e in t.entries() {
        let label_ok = e.accept_only_from.is_none_or(|l| l == from);
        if e.peer != from && label_ok && e.filter.matches(event) && !out.contains(&e.peer) {
            out.push(e.peer);
        }
    }
    out
}

/// Peers the covering queries exclude, and the peers events arrive from:
/// the table's own peers plus one it has never seen.
fn peers_of(t: &FilterTable) -> Vec<Peer> {
    let mut peers: Vec<Peer> = Vec::new();
    for e in t.entries() {
        if !peers.contains(&e.peer) {
            peers.push(e.peer);
        }
    }
    peers.push(Peer::Client(ClientId(u32::MAX)));
    peers
}

/// Both tables agree with each other — and with a linear walk — on every
/// entry, on matching the events, and on the covering queries for the
/// workload's filters.
fn assert_agree(
    shared: &mut FilterTable,
    copied: &mut FilterTable,
    events: &[Event],
    queries: &[Filter],
    at: &str,
) {
    let a: Vec<&FilterEntry> = shared.entries().collect();
    let b: Vec<&FilterEntry> = copied.entries().collect();
    assert_eq!(a, b, "{at}: entries (peer, filter, label, order)");
    assert_eq!(format!("{shared:?}"), format!("{copied:?}"), "{at}: Debug");
    let peers = peers_of(copied);
    for (i, event) in events.iter().enumerate() {
        let from = peers[i % peers.len()];
        let expect = linear_targets(copied, event, from);
        assert_eq!(
            shared.matching_targets(event, from),
            expect,
            "{at}: event {i} from {from:?}"
        );
        assert_eq!(
            copied.matching_targets(event, from),
            expect,
            "{at}: event {i} from {from:?}"
        );
    }
    for (i, q) in queries.iter().enumerate() {
        let except = peers[i % peers.len()];
        let excluded = [except, peers[(i + 1) % peers.len()]];
        assert_eq!(
            shared.covered_by_other(q, except),
            copied.covered_by_other(q, except),
            "{at}: covered_by_other({q})"
        );
        assert_eq!(
            shared.covered_by_other(q, except),
            copied
                .entries()
                .any(|e| e.peer != except && e.filter.covers(q)),
            "{at}: covered_by_other({q}) against a linear walk"
        );
        let covered: Vec<&FilterEntry> = copied.entries().filter(|e| q.covers(&e.filter)).collect();
        assert_eq!(
            shared.covered_entries(q),
            covered,
            "{at}: covered_entries({q})"
        );
        assert_eq!(
            copied.covered_entries(q),
            covered,
            "{at}: covered_entries({q})"
        );
        assert_eq!(
            shared.related_to_other(q, &excluded),
            copied.related_to_other(q, &excluded),
            "{at}: related_to_other({q})"
        );
    }
    assert_eq!(
        shared.distinct_filters(),
        copied.distinct_filters(),
        "{at}: distinct_filters"
    );
}

/// The same label changes, removals and re-adds on both tables: the shared
/// one through the record API with the tables' own records, the copied one
/// through the `Filter` API with fresh deep copies.
fn churn(shared: &mut FilterTable, copied: &mut FilterTable) {
    let entries: Vec<(Peer, FilterRef)> = shared
        .entries()
        .map(|e| (e.peer, e.filter.clone()))
        .collect();
    let peers = peers_of(copied);
    for (i, (peer, record)) in entries.iter().enumerate() {
        let filter: Filter = record.filter().clone();
        let label = match i % 5 {
            0 => {
                let label = Some(peers[i % peers.len()]);
                assert!(shared.set_label(*peer, record, label));
                assert!(copied.set_label(*peer, &filter, label));
                label
            }
            1 => {
                assert!(shared.remove_ref(*peer, record));
                assert!(copied.remove(*peer, &filter));
                continue;
            }
            2 => {
                let label = Some(peers[(i + 1) % peers.len()]);
                assert!(shared.remove_ref(*peer, record));
                assert!(copied.remove(*peer, &filter));
                assert!(shared.add_ref(*peer, record.clone(), label));
                assert!(copied.add_labeled(*peer, filter.clone(), label));
                label
            }
            _ => {
                assert!(!shared.add_ref(*peer, record.clone(), None), "a duplicate");
                assert!(!copied.add(*peer, filter.clone()), "a duplicate");
                None
            }
        };
        assert_eq!(shared.label_of(*peer, record), label);
        assert_eq!(copied.label_of(*peer, &filter), label);
    }
}

/// Build `preset` at tiny scale both ways and hold the tables together.
fn differential(preset: &str) {
    let config = tiny(preset);
    let network: Arc<Network> = config.build_network();
    let workload = Workload::generate_on(&config, &network);
    let dep = Dep::build_on(
        network.clone(),
        &deployment_config(&config),
        &workload.clients,
        |_| NoProtocol,
    );

    let mut events: Vec<Event> = workload
        .timeline
        .iter()
        .filter_map(|entry| match &entry.action {
            ClientAction::Publish(event) => Some(event.clone()),
            _ => None,
        })
        .collect();
    events.sort_by_key(|e| e.id);
    assert!(events.len() >= 1_000, "{preset}: {} events", events.len());
    events.truncate(1_000);
    let queries: Vec<Filter> = workload.clients.iter().map(|c| c.filter.clone()).collect();

    let copied = copied_tables(&network, &workload.clients);
    for (b, (mut shared, mut copied)) in shared_tables(&dep).into_iter().zip(copied).enumerate() {
        assert_eq!(
            shared.len(),
            workload.clients.len(),
            "{preset}: broker {b} holds every client"
        );
        assert_agree(
            &mut shared,
            &mut copied,
            &events,
            &queries,
            &format!("{preset} broker {b}"),
        );
        churn(&mut shared, &mut copied);
        assert_agree(
            &mut shared,
            &mut copied,
            &events,
            &queries,
            &format!("{preset} broker {b} after churn"),
        );
    }

    // One record per subscription, the same in every broker: the client's
    // own, under its root's client entry and every other broker's entry
    // toward that root.
    for (c, spec) in workload.clients.iter().enumerate() {
        let record = &dep.client(ClientId(c as u32)).subscription;
        assert_eq!(*record, spec.filter);
        for broker in dep.brokers() {
            let here = broker.core.id;
            let peer = if here == spec.home {
                Peer::Client(ClientId(c as u32))
            } else {
                Peer::Broker(broker.core.next_hop_to(spec.home))
            };
            let entry = broker
                .core
                .filters
                .entries()
                .find(|e| e.peer == peer && e.filter == *record)
                .unwrap_or_else(|| panic!("{preset}: client {c} missing at {here:?}"));
            assert!(
                FilterRef::ptr_eq(&entry.filter, record),
                "{preset}: client {c} at {here:?} holds a copy"
            );
        }
    }
}

#[test]
fn shared_install_equals_per_entry_copies_on_city_scale() {
    differential("city-scale");
}

#[test]
fn shared_install_equals_per_entry_copies_on_paper_fig5() {
    differential("paper-fig5");
}

/// Equal client filters become one record; a subscription that arrives by
/// `Connect` and travels by `SubPropagate` lands in every table as the
/// client's own record, not a copy of it.
#[test]
fn records_are_deduplicated_and_survive_propagation_hops() {
    let storm = Filter::single("v", Op::Ge, 0.0);
    let lone = Filter::single("zone", Op::Eq, 7i64);
    let mut clients: Vec<ClientSpec> = (0..6)
        .map(|i| ClientSpec {
            filter: storm.clone(),
            home: BrokerId(i % 9),
            mobile: false,
            initially_attached: true,
        })
        .collect();
    clients.push(ClientSpec {
        filter: lone.clone(),
        home: BrokerId(4),
        mobile: false,
        initially_attached: false,
    });
    let config = DeploymentConfig::default();
    let mut dep = Dep::build(&config, &clients, |_| NoProtocol);
    let first = dep.client(ClientId(0)).subscription.clone();
    for c in 1..6 {
        assert!(
            FilterRef::ptr_eq(&dep.client(ClientId(c)).subscription, &first),
            "client {c}"
        );
    }

    // The detached client joins at broker 4: its subscription reaches the
    // other eight brokers only through `SubPropagate` hops.
    let late = ClientId(6);
    dep.schedule(
        SimTime::from_millis(1),
        late,
        ClientAction::Reconnect {
            broker: BrokerId(4),
        },
    );
    dep.engine.run_to_completion();
    let record = dep.client(late).subscription.clone();
    let mut hops = 0;
    for broker in dep.brokers() {
        let held: Vec<&FilterEntry> = broker
            .core
            .filters
            .entries()
            .filter(|e| e.filter == record)
            .collect();
        assert_eq!(held.len(), 1, "broker {:?}", broker.core.id);
        assert!(
            FilterRef::ptr_eq(&held[0].filter, &record),
            "broker {:?} holds a copy",
            broker.core.id
        );
        hops += usize::from(broker.core.id != BrokerId(4));
    }
    assert_eq!(hops, 8);
}

/// Equality is by content: separately made records of equal filters are
/// equal and are one table entry; a filter with a NaN equals nothing, not
/// even an equal-looking record (as for `Filter`), and each such entry
/// stays reachable through its own record.
#[test]
fn record_equality_is_by_content() {
    let peer = Peer::Broker(BrokerId(1));
    let window = Filter::single("v", Op::Ge, 0.25).and("v", Op::Lt, 0.5);
    let (a, b) = (
        FilterRef::new(window.clone()),
        FilterRef::new(window.clone()),
    );
    assert!(!FilterRef::ptr_eq(&a, &b));
    assert_eq!(a, b);
    assert_eq!(format!("{a:?}"), format!("{window:?}"));
    let mut t = FilterTable::new();
    assert!(t.add_ref(peer, a.clone(), None));
    assert!(
        !t.add_ref(peer, b.clone(), None),
        "an equal record is a duplicate"
    );
    assert!(
        !t.add(peer, window.clone()),
        "an equal filter is a duplicate"
    );
    assert_eq!(t.len(), 1);
    assert!(t.remove_ref(peer, &b), "removed through the other record");
    assert!(t.is_empty());

    let odd = Filter::single("v", Op::Ge, f64::NAN);
    let (x, y) = (FilterRef::new(odd.clone()), FilterRef::new(odd.clone()));
    assert_ne!(x, y);
    assert!(t.add_ref(peer, x.clone(), None));
    assert!(
        t.add_ref(peer, y.clone(), None),
        "NaN: unequal, so a second entry"
    );
    assert!(
        !t.add_ref(peer, y.clone(), None),
        "but the same record is a duplicate"
    );
    assert_eq!(t.len(), 2);
    assert!(!t.remove(peer, &odd), "no filter equals a NaN filter");
    assert!(t.remove_ref(peer, &y));
    assert!(t.remove_ref(peer, &x));
    assert!(t.is_empty());
}
