//! The *home-broker* baseline protocol.
//!
//! Paper, Section 2: every client is assigned a home broker which holds its
//! subscription permanently (the Mobile-IP idea applied to pub/sub). When the
//! client attaches to a foreign broker, that broker registers the client's
//! current location with the home broker; the home broker forwards stored and
//! future events to the foreign broker (triangle routing). The protocol is
//! fast — a handoff is one registration round trip — but:
//!
//! * it is **not reliable**: events already in transit from the home broker
//!   to a foreign broker the client has just left are dropped, and
//! * all events for roaming clients detour through the home broker, so the
//!   traffic overhead grows with the network size.

use std::collections::BTreeMap;

use mhh_pubsub::broker::{BrokerCore, BrokerCtx, MobilityProtocol};
use mhh_pubsub::{
    BrokerId, ClientId, ConnectInfo, Event, EventQueue, FilterRef, Peer, ProtocolMessage, QueueKind,
};
use mhh_simnet::TrafficClass;

/// Home-broker protocol messages.
#[derive(Debug, Clone)]
pub enum HbMsg {
    /// A foreign broker tells the home broker where the client now is.
    Register {
        /// The roaming client.
        client: ClientId,
        /// The foreign broker it attached to.
        location: BrokerId,
    },
    /// A foreign broker tells the home broker the client detached.
    Deregister {
        /// The roaming client.
        client: ClientId,
        /// The foreign broker it detached from.
        location: BrokerId,
    },
    /// An event forwarded from the home broker to the client's current
    /// foreign broker (triangle routing).
    ForwardEvent {
        /// The roaming client.
        client: ClientId,
        /// The forwarded event.
        event: Event,
    },
    /// The honest proclaimed-move (§4.1) equivalent for this protocol: the
    /// departure broker relays the announced destination to the home broker,
    /// which re-targets its forwarding *before* the client arrives. Replaces
    /// the `Deregister` of a silent departure.
    HandoffAhead {
        /// The roaming client.
        client: ClientId,
        /// The destination broker the client proclaimed.
        location: BrokerId,
    },
    /// The home broker tells the announced destination to expect the client:
    /// events forwarded ahead of the client's arrival are buffered there
    /// instead of dropped. Sent on the same FIFO path as the forwards that
    /// follow it, so no new loss window opens.
    Expect {
        /// The roaming client about to arrive.
        client: ClientId,
    },
}

impl ProtocolMessage for HbMsg {
    fn kind(&self) -> &'static str {
        match self {
            HbMsg::Register { .. } => "hb_register",
            HbMsg::Deregister { .. } => "hb_deregister",
            HbMsg::ForwardEvent { .. } => "hb_forward",
            HbMsg::HandoffAhead { .. } => "hb_handoff_ahead",
            HbMsg::Expect { .. } => "hb_expect",
        }
    }
    fn traffic_class(&self) -> TrafficClass {
        match self {
            HbMsg::ForwardEvent { .. } => TrafficClass::MobilityTransfer,
            HbMsg::Register { .. }
            | HbMsg::Deregister { .. }
            | HbMsg::HandoffAhead { .. }
            | HbMsg::Expect { .. } => TrafficClass::MobilityControl,
        }
    }
}

/// Home-broker-side state for one client homed at this broker.
#[derive(Debug, Clone)]
struct HomeRecord {
    /// Where the client currently is (None: disconnected or at home).
    location: Option<BrokerId>,
    /// Events stored while the client has no registered location and is not
    /// attached at home.
    store: EventQueue,
}

/// The home-broker protocol.
#[derive(Debug, Clone, Default)]
pub struct HomeBroker {
    /// Clients homed at this broker.
    homed: BTreeMap<ClientId, HomeRecord>,
    /// Roaming clients currently attached to this (foreign) broker, with
    /// their home broker — needed to address the deregistration on detach.
    foreign: BTreeMap<ClientId, BrokerId>,
    /// Clients proclaimed to arrive here but not yet attached: events
    /// forwarded ahead of them are buffered in these queues and delivered
    /// on attachment.
    expected: BTreeMap<ClientId, EventQueue>,
}

impl HomeBroker {
    /// Create the protocol instance for one broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current registered location of a homed client (tests and metrics).
    pub fn location_of(&self, client: ClientId) -> Option<BrokerId> {
        self.homed.get(&client).and_then(|r| r.location)
    }

    fn home_record(&mut self, core: &mut BrokerCore, client: ClientId) -> &mut HomeRecord {
        self.homed.entry(client).or_insert_with(|| HomeRecord {
            location: None,
            store: EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent),
        })
    }
}

impl MobilityProtocol for HomeBroker {
    type Msg = HbMsg;

    fn name(&self) -> &'static str {
        "home-broker"
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, HbMsg>,
    ) {
        let client = info.client;
        // A proclaimed arrival: deliver whatever was forwarded ahead of the
        // client first (it is the oldest backlog), then proceed normally.
        if let Some(mut q) = self.expected.remove(&client) {
            for ev in q.drain() {
                core.deliver(client, &ev, ctx);
            }
        }
        if info.home_broker == core.id {
            // The client came home: deliver anything stored and stop
            // forwarding.
            let rec = self.home_record(core, client);
            rec.location = None;
            let stored: Vec<Event> = rec.store.drain();
            for ev in stored {
                core.deliver(client, &ev, ctx);
            }
        } else {
            // Foreign broker: remember the home and register the new
            // location there.
            self.foreign.insert(client, info.home_broker);
            ctx.send_protocol(
                info.home_broker,
                HbMsg::Register {
                    client,
                    location: core.id,
                },
            );
        }
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        _filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, HbMsg>,
    ) {
        // A proclaimed destination other than this broker re-targets the
        // forwarding ahead of the client; a silent move (or a degenerate
        // proclamation back to this broker) takes the reactive path.
        let proclaimed = proclaimed_dest.filter(|d| *d != core.id);
        if let Some(home) = self.foreign.remove(&client) {
            match proclaimed {
                Some(dest) => {
                    // Detached from a foreign broker announcing the next
                    // one: the home broker starts forwarding there before
                    // the client arrives. Events already in flight toward
                    // *this* broker are still dropped on arrival — the
                    // protocol's inherent loss window is unchanged.
                    ctx.send_protocol(
                        home,
                        HbMsg::HandoffAhead {
                            client,
                            location: dest,
                        },
                    );
                }
                None => {
                    // Silent detach: stop the forwarding.
                    ctx.send_protocol(
                        home,
                        HbMsg::Deregister {
                            client,
                            location: core.id,
                        },
                    );
                }
            }
        } else if let Some(dest) = proclaimed {
            // Proclaimed departure from the client's own home broker: expect
            // it at the destination, then forward from here on (the Expect
            // precedes every forward on the same FIFO path).
            ctx.send_protocol(dest, HbMsg::Expect { client });
            let rec = self.home_record(core, client);
            rec.location = Some(dest);
            let stored: Vec<Event> = rec.store.drain();
            for ev in stored {
                ctx.send_protocol(dest, HbMsg::ForwardEvent { client, event: ev });
            }
        } else if let Some(rec) = self.homed.get_mut(&client) {
            // Disconnected while at home: keep storing locally.
            rec.location = None;
        } else {
            // Disconnected at home before ever roaming: create the store.
            let _ = self.home_record(core, client);
        }
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        _from: BrokerId,
        msg: HbMsg,
        ctx: &mut BrokerCtx<'_, HbMsg>,
    ) {
        match msg {
            HbMsg::Register { client, location } => {
                let rec = self.home_record(core, client);
                rec.location = Some(location);
                let stored: Vec<Event> = rec.store.drain();
                for ev in stored {
                    ctx.send_protocol(location, HbMsg::ForwardEvent { client, event: ev });
                }
            }
            HbMsg::Deregister { client, location } => {
                if let Some(rec) = self.homed.get_mut(&client) {
                    // Ignore stale deregistrations from a broker the client
                    // already left (it re-registered elsewhere meanwhile).
                    if rec.location == Some(location) {
                        rec.location = None;
                    }
                }
            }
            HbMsg::ForwardEvent { client, event } => {
                // A forwarded event arriving at a foreign broker: deliver if
                // the client is here, buffer if it was proclaimed to arrive,
                // otherwise it is lost (the paper's reliability gap).
                if core.is_connected(client) {
                    core.deliver(client, &event, ctx);
                } else if let Some(q) = self.expected.get_mut(&client) {
                    q.push(event);
                }
            }
            HbMsg::HandoffAhead { client, location } => {
                if location == core.id {
                    // The client proclaimed it is coming home: keep storing
                    // here until it arrives (connect-at-home delivers).
                    let rec = self.home_record(core, client);
                    rec.location = None;
                } else {
                    // Expect first, forwards after, on the same FIFO path.
                    ctx.send_protocol(location, HbMsg::Expect { client });
                    let rec = self.home_record(core, client);
                    rec.location = Some(location);
                    let stored: Vec<Event> = rec.store.drain();
                    for ev in stored {
                        ctx.send_protocol(location, HbMsg::ForwardEvent { client, event: ev });
                    }
                }
            }
            HbMsg::Expect { client } => {
                // Open the arrival buffer unless the client already beat the
                // announcement here.
                if !core.is_connected(client) && !self.expected.contains_key(&client) {
                    self.expected.insert(
                        client,
                        EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent),
                    );
                }
            }
        }
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        _from: Peer,
        ctx: &mut BrokerCtx<'_, HbMsg>,
    ) {
        // Events for a client only ever route to its home broker (the
        // subscription root never moves under this protocol).
        let connected_here = core.is_connected(client);
        let rec = self.home_record(core, client);
        match rec.location {
            Some(foreign) => {
                let forward = HbMsg::ForwardEvent {
                    client,
                    event: event.clone(),
                };
                ctx.send_protocol(foreign, forward);
            }
            None => {
                if connected_here {
                    core.deliver(client, event, ctx);
                } else {
                    rec.store.push(event.clone());
                }
            }
        }
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        self.homed
            .iter()
            .flat_map(|(c, rec)| rec.store.iter().cloned().map(move |e| (*c, e)))
            .chain(
                self.expected
                    .iter()
                    .flat_map(|(c, q)| q.iter().cloned().map(move |e| (*c, e))),
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_pubsub::delivery::{audit, SubscriberLog};
    use mhh_pubsub::event::EventBuilder;
    use mhh_pubsub::{ClientAction, ClientSpec, Deployment, DeploymentConfig, Filter, Op};
    use mhh_simnet::{SimTime, TrafficClass};

    fn filter(group: i64) -> Filter {
        Filter::single("group", Op::Eq, group)
    }

    fn build(side: usize) -> Deployment<HomeBroker> {
        let clients = vec![
            ClientSpec {
                filter: filter(1),
                home: BrokerId(0),
                mobile: true,
                initially_attached: true,
            },
            ClientSpec {
                filter: filter(2),
                home: BrokerId(((side * side) / 2) as u32),
                mobile: false,
                initially_attached: true,
            },
            ClientSpec {
                filter: filter(1),
                home: BrokerId((side * side - 1) as u32),
                mobile: false,
                initially_attached: true,
            },
        ];
        let config = DeploymentConfig {
            grid_side: side,
            seed: 5,
            ..DeploymentConfig::default()
        };
        Deployment::build(&config, &clients, |_| HomeBroker::new())
    }

    fn schedule_publishes(dep: &mut Deployment<HomeBroker>, count: u64, every_ms: u64) {
        for i in 0..count {
            let ev = EventBuilder::new()
                .attr("group", 1i64)
                .build(1000 + i, ClientId(1), i);
            dep.schedule_publish(SimTime::from_millis(10 + i * every_ms), ClientId(1), ev);
        }
    }

    fn audit_group1(dep: &Deployment<HomeBroker>) -> mhh_pubsub::DeliveryAudit {
        let published: Vec<Event> = dep.clients().flat_map(|c| c.published.clone()).collect();
        let buffered = dep.buffered_events();
        let f = filter(1);
        let logs: Vec<(ClientId, Vec<mhh_pubsub::DeliveryRecord>)> = dep
            .clients()
            .filter(|c| c.filter == f)
            .map(|c| (c.id, c.received.clone()))
            .collect();
        let subs: Vec<SubscriberLog<'_>> = logs
            .iter()
            .map(|(id, recs)| SubscriberLog {
                client: *id,
                filter: &f,
                deliveries: recs,
            })
            .collect();
        audit(&published, &subs, &buffered)
    }

    #[test]
    fn roaming_client_receives_events_via_home_broker() {
        let mut dep = build(4);
        schedule_publishes(&mut dep, 40, 100);
        dep.schedule(
            SimTime::from_millis(500),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(1_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(15),
            },
        );
        dep.engine.run_to_completion();
        let mobile = dep.client(ClientId(0));
        assert!(
            mobile.received.len() >= 35,
            "most events delivered: {}",
            mobile.received.len()
        );
        assert_eq!(mobile.handoff_count(), 1);
        assert!(!mobile.handoff_delays().is_empty());
        // The home broker learned the foreign location and triangle-routed
        // events there.
        let stats = dep.engine.stats();
        assert!(stats.kind("hb_register").messages >= 1);
        assert!(stats.kind("hb_forward").messages > 0);
        assert!(stats.class(TrafficClass::MobilityTransfer).hops > 0);
    }

    #[test]
    fn events_stored_while_disconnected_are_forwarded_on_reconnect() {
        let mut dep = build(4);
        dep.schedule(
            SimTime::from_millis(5),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        schedule_publishes(&mut dep, 20, 100);
        dep.schedule(
            SimTime::from_millis(5_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(12),
            },
        );
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert_eq!(
            a.lost, 0,
            "nothing in flight when the client is parked: {a:?}"
        );
        let mobile = dep.client(ClientId(0));
        assert_eq!(mobile.received.len(), 20);
    }

    #[test]
    fn in_transit_events_are_lost_when_the_client_moves_away() {
        // The client leaves the foreign broker the moment events are being
        // forwarded to it: those events are dropped.
        let mut dep = build(5);
        // A burst of events published while the client sits at a far foreign
        // broker.
        dep.schedule(
            SimTime::from_millis(5),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(100),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(24),
            },
        );
        schedule_publishes(&mut dep, 50, 20);
        // Leave right in the middle of the burst, then come back home much
        // later.
        dep.schedule(
            SimTime::from_millis(600),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(2_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(0),
            },
        );
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert!(
            a.lost > 0,
            "home-broker should lose in-transit events: {a:?}"
        );
        // The stationary subscriber is unaffected.
        let stationary = dep.client(ClientId(2));
        assert_eq!(stationary.received.len(), 50);
    }

    #[test]
    fn proclaimed_move_buffers_ahead_and_cuts_the_first_delivery_gap() {
        // Same move reactive vs proclaimed: the proclaimed run forwards the
        // stored backlog to the announced destination during the gap, so the
        // client is served immediately on arrival (no register round trip).
        let run = |proclaimed: bool| {
            let mut dep = build(4);
            dep.schedule(
                SimTime::from_millis(5),
                ClientId(0),
                ClientAction::Disconnect {
                    proclaimed_dest: proclaimed.then_some(BrokerId(15)),
                },
            );
            schedule_publishes(&mut dep, 20, 50);
            dep.schedule(
                SimTime::from_millis(5_000),
                ClientId(0),
                ClientAction::Reconnect {
                    broker: BrokerId(15),
                },
            );
            dep.engine.run_to_completion();
            dep
        };

        let dep = run(true);
        let a = audit_group1(&dep);
        assert_eq!(a.lost, 0, "parked burst, nothing in flight: {a:?}");
        assert_eq!(a.duplicates, 0, "{a:?}");
        assert_eq!(a.out_of_order, 0, "{a:?}");
        let mobile = dep.client(ClientId(0));
        assert_eq!(mobile.received.len(), 20, "whole backlog delivered");
        let stats = dep.engine.stats();
        assert!(stats.kind("hb_expect").messages >= 1);
        let proclaimed_delay = mobile.handoff_delays()[0];

        let reactive_delay = run(false).client(ClientId(0)).handoff_delays()[0];
        assert!(
            proclaimed_delay < reactive_delay,
            "proclaimed {proclaimed_delay} ms must beat reactive {reactive_delay} ms"
        );
    }

    #[test]
    fn proclaimed_move_from_foreign_broker_retargets_forwarding() {
        let mut dep = build(4);
        // Roam to broker 9 first, then proclaim the move to broker 15.
        dep.schedule(
            SimTime::from_millis(5),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(100),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(9),
            },
        );
        dep.schedule(
            SimTime::from_millis(1_000),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: Some(BrokerId(15)),
            },
        );
        // Publish during the gap: events go home, forward to 15, buffer.
        schedule_publishes(&mut dep, 10, 100);
        dep.schedule(
            SimTime::from_millis(4_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(15),
            },
        );
        dep.engine.run_to_completion();
        let stats = dep.engine.stats();
        assert!(stats.kind("hb_handoff_ahead").messages >= 1);
        let a = audit_group1(&dep);
        assert_eq!(a.duplicates, 0, "{a:?}");
        assert_eq!(a.out_of_order, 0, "{a:?}");
        // Events published squarely inside the gap must all arrive.
        let mobile = dep.client(ClientId(0));
        assert!(
            mobile.received.len() >= 8,
            "gap backlog delivered via the expect buffer: {}",
            mobile.received.len()
        );
    }

    #[test]
    fn returning_home_stops_triangle_routing() {
        let mut dep = build(4);
        dep.schedule(
            SimTime::from_millis(5),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(100),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(9),
            },
        );
        dep.schedule(
            SimTime::from_millis(2_000),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(3_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(0),
            },
        );
        schedule_publishes(&mut dep, 30, 200);
        dep.engine.run_to_completion();
        let home = dep.broker(BrokerId(0));
        assert_eq!(home.proto.location_of(ClientId(0)), None);
        let a = audit_group1(&dep);
        assert_eq!(a.duplicates, 0);
        assert_eq!(a.out_of_order, 0);
    }
}
