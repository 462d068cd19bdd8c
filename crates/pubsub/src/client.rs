//! The (possibly mobile) client node.
//!
//! A client both publishes and subscribes (the paper's workload: "Each client
//! in the system has defined a subscription and each client publishes events
//! continuously"). Mobile clients additionally disconnect and reconnect at
//! other brokers following a pre-generated action timeline injected by the
//! evaluation harness.
//!
//! The client records everything the metrics need: the events it actually
//! published, every delivery (with time), and every reconnection together
//! with the time of the first event received afterwards — the paper's
//! *handoff delay* ("the period from a client's reconnection time to the
//! time it receives the first event").
//!
//! A delivery is logged as a 16-byte [`DeliveryRecord`]: arrival time and
//! event id, nothing else. The event's publisher, sequence number and
//! publication time are not repeated per delivery — the publisher's own
//! `published` log holds each event once, and the delivery audit
//! ([`classify`](crate::delivery::classify)) reads all three from there by
//! the id.

use std::collections::BTreeMap;

use mhh_simnet::{Context, Envelope, Node, SimDuration, SimTime};

use crate::address::{AddressBook, BrokerId, ClientId};
use crate::event::{Event, EventId};
use crate::filter::Filter;
use crate::filter_table::FilterRef;
use crate::messages::{ClientAction, ConnectInfo, NetMsg, ProtocolMessage};

/// Base delay in milliseconds before the first publish retry; doubles per
/// attempt (exponential backoff).
pub const RETRY_BASE_MS: u64 = 250;

/// Base delay before the first publish retry.
pub const RETRY_BASE: SimDuration = SimDuration::from_millis(RETRY_BASE_MS);

/// Resend attempts per publish before the publisher gives up (the loss then
/// surfaces in the delivery audit instead of retrying forever).
pub const MAX_PUBLISH_RETRIES: u32 = 5;

/// One delivered event as seen by a client: when, and which event. The
/// event's publisher, sequence number and publication time live in the
/// publisher's [`published`](ClientNode::published) log, once per event.
#[derive(Debug, Clone)]
pub struct DeliveryRecord {
    /// Delivery time at the client.
    pub at: SimTime,
    /// The delivered event id.
    pub event: EventId,
}

/// One disconnection of a mobile client — the opening half of a handover.
#[derive(Debug, Clone)]
pub struct DisconnectRecord {
    /// When the client disconnected.
    pub at: SimTime,
    /// The broker it physically left.
    pub broker: BrokerId,
    /// The destination it announced (proclaimed move, §4.1), if any.
    pub proclaimed_dest: Option<BrokerId>,
}

/// One reconnection of a mobile client — the closing half of a handover.
#[derive(Debug, Clone)]
pub struct ReconnectRecord {
    /// When the client reconnected.
    pub at: SimTime,
    /// The broker it was *physically* attached to before this reconnection,
    /// if any (for a proclaimed move this is the broker it departed, not the
    /// announced destination).
    pub from: Option<BrokerId>,
    /// The broker it attached to.
    pub to: BrokerId,
    /// When the first event after this reconnection arrived (None if the
    /// client disconnected again, or the run ended, before any event).
    pub first_delivery: Option<SimTime>,
    /// Whether this reconnection counts as a handoff: it attached to a
    /// broker different from the one it physically departed. A proclaimed
    /// move to broker B followed by the reconnection at B *is* a handoff
    /// even though the subscription migrated ahead of the client.
    pub is_handoff: bool,
}

/// A client node.
#[derive(Debug, Clone)]
pub struct ClientNode {
    /// This client's id.
    pub id: ClientId,
    /// Address book of the deployment.
    pub book: AddressBook,
    /// The client's subscription.
    pub filter: Filter,
    /// The same subscription as the record it presents when it connects,
    /// shared with the brokers' tables.
    pub subscription: FilterRef,
    /// The client's home broker (initial attachment broker).
    pub home_broker: BrokerId,
    /// Broker the client is currently attached to (None while disconnected).
    pub current_broker: Option<BrokerId>,
    /// Identifier of the last visited broker, maintained across
    /// disconnections as the silent-move handoff requires (Section 4.2).
    /// For a proclaimed move this is the *announced destination* — the
    /// broker the subscription migrated to, and therefore the broker a
    /// later handoff request would have to be sent to.
    pub last_broker: Option<BrokerId>,
    /// The broker this client physically left at its last disconnection
    /// (unlike [`last_broker`](Self::last_broker), never redirected by a
    /// proclamation); drives the handoff accounting.
    pub departed_broker: Option<BrokerId>,
    /// Whether this client moves (20 % of clients in the paper's workload).
    pub mobile: bool,
    /// Publisher-side retransmission: track every publish until the broker
    /// acks it, resending with exponential backoff up to
    /// [`MAX_PUBLISH_RETRIES`] attempts. Off by default (no acks, no
    /// timers — the pre-reliability fast path).
    pub retransmit: bool,
    /// Publishes awaiting a broker [`NetMsg::PublishAck`].
    pub pending_acks: BTreeMap<EventId, Event>,
    /// Resends actually performed.
    pub retransmissions: u64,
    /// Events this client actually published.
    pub published: Vec<Event>,
    /// Publish actions skipped because the client was disconnected.
    pub skipped_publishes: u64,
    /// Every delivery received.
    pub received: Vec<DeliveryRecord>,
    /// Every disconnection performed (pairs up with
    /// [`reconnects`](Self::reconnects) to form the handover timeline; a
    /// trailing unpaired entry is a client that ended the run disconnected).
    pub disconnects: Vec<DisconnectRecord>,
    /// Every reconnection performed.
    pub reconnects: Vec<ReconnectRecord>,
}

impl ClientNode {
    /// Create a client that considers `home` its home broker. The caller
    /// decides whether to mark it as initially attached by setting
    /// [`current_broker`](Self::current_broker). `filter` is a [`Filter`]
    /// or an already shared [`FilterRef`].
    pub fn new(
        id: ClientId,
        book: AddressBook,
        filter: impl Into<FilterRef>,
        home: BrokerId,
    ) -> Self {
        let subscription = filter.into();
        ClientNode {
            id,
            book,
            filter: subscription.filter().clone(),
            subscription,
            home_broker: home,
            current_broker: None,
            last_broker: None,
            departed_broker: None,
            mobile: false,
            retransmit: false,
            pending_acks: BTreeMap::new(),
            retransmissions: 0,
            published: Vec::new(),
            skipped_publishes: 0,
            received: Vec::new(),
            disconnects: Vec::new(),
            reconnects: Vec::new(),
        }
    }

    /// Mark the client as initially attached to its home broker (used with
    /// [`install_subscription`](crate::broker::install_subscription)).
    pub fn attach_initially(&mut self) {
        self.current_broker = Some(self.home_broker);
        self.last_broker = Some(self.home_broker);
    }

    /// Number of reconnections that were real handoffs.
    pub fn handoff_count(&self) -> usize {
        self.reconnects.iter().filter(|r| r.is_handoff).count()
    }

    /// Handoff delays (reconnect → first delivery) for completed handoffs.
    pub fn handoff_delays(&self) -> Vec<f64> {
        self.reconnects
            .iter()
            .filter(|r| r.is_handoff)
            .filter_map(|r| r.first_delivery.map(|d| d.since(r.at).as_millis_f64()))
            .collect()
    }

    /// Ids of all delivered events (with duplicates, if any).
    pub fn delivered_ids(&self) -> Vec<EventId> {
        self.received.iter().map(|r| r.event).collect()
    }

    fn handle_action<P: ProtocolMessage>(
        &mut self,
        action: ClientAction,
        ctx: &mut Context<NetMsg<P>>,
    ) {
        match action {
            ClientAction::Publish(event) => {
                if let Some(broker) = self.current_broker {
                    let stamped = event.stamped(ctx.now());
                    self.published.push(stamped.clone());
                    if self.retransmit {
                        self.pending_acks.insert(stamped.id, stamped.clone());
                        ctx.schedule(
                            RETRY_BASE,
                            NetMsg::Action(ClientAction::RetryPublish {
                                id: stamped.id,
                                attempt: 0,
                            }),
                        );
                    }
                    ctx.send(self.book.broker_node(broker), NetMsg::Publish(stamped));
                } else {
                    self.skipped_publishes += 1;
                }
            }
            ClientAction::RetryPublish { id, attempt } => {
                let Some(event) = self.pending_acks.get(&id).cloned() else {
                    return; // acked in the meantime
                };
                if attempt >= MAX_PUBLISH_RETRIES {
                    // Give up; the delivery audit records whatever was lost.
                    self.pending_acks.remove(&id);
                    return;
                }
                if let Some(broker) = self.current_broker {
                    // Resend the original stamped event unchanged (same id,
                    // seq and publication time) so broker-side dedup and the
                    // audit treat it as the same event; not re-counted in
                    // `published`.
                    self.retransmissions += 1;
                    ctx.send(self.book.broker_node(broker), NetMsg::Publish(event));
                }
                let backoff = SimDuration::from_millis(RETRY_BASE_MS << (attempt + 1));
                ctx.schedule(
                    backoff,
                    NetMsg::Action(ClientAction::RetryPublish {
                        id,
                        attempt: attempt + 1,
                    }),
                );
            }
            ClientAction::Disconnect { proclaimed_dest } => {
                if let Some(broker) = self.current_broker.take() {
                    // For a proclaimed move the subscription migrates to the
                    // announced destination immediately, so that is the broker
                    // a later handoff request must be sent to. The physically
                    // departed broker is tracked separately for the handover
                    // accounting.
                    self.last_broker = Some(proclaimed_dest.unwrap_or(broker));
                    self.departed_broker = Some(broker);
                    self.disconnects.push(DisconnectRecord {
                        at: ctx.now(),
                        broker,
                        proclaimed_dest,
                    });
                    ctx.send(
                        self.book.broker_node(broker),
                        NetMsg::Disconnect {
                            client: self.id,
                            proclaimed_dest,
                        },
                    );
                }
            }
            ClientAction::Reconnect { broker } => {
                if self.current_broker.is_some() {
                    // Workload timelines always disconnect before
                    // reconnecting; tolerate a duplicate reconnect by
                    // ignoring it.
                    return;
                }
                let initial = self.last_broker.is_none();
                // A handoff is a *physical* move: the client reattaches at a
                // broker other than the one it departed. (Judging by
                // `last_broker` would silently discount proclaimed moves,
                // whose pointer is redirected to the destination.)
                let is_handoff = match self.departed_broker {
                    Some(prev) => prev != broker,
                    None => false,
                };
                self.current_broker = Some(broker);
                self.reconnects.push(ReconnectRecord {
                    at: ctx.now(),
                    from: self.departed_broker,
                    to: broker,
                    first_delivery: None,
                    is_handoff,
                });
                ctx.send(
                    self.book.broker_node(broker),
                    NetMsg::Connect(ConnectInfo {
                        client: self.id,
                        filter: self.subscription.clone(),
                        home_broker: self.home_broker,
                        last_broker: self.last_broker,
                        initial,
                    }),
                );
            }
        }
    }
}

impl<P: ProtocolMessage> Node<NetMsg<P>> for ClientNode {
    fn on_message(&mut self, env: Envelope<NetMsg<P>>, ctx: &mut Context<NetMsg<P>>) {
        match env.msg {
            NetMsg::Deliver { id, .. } => {
                let record = DeliveryRecord {
                    at: ctx.now(),
                    event: id,
                };
                if let Some(last) = self.reconnects.last_mut() {
                    if last.first_delivery.is_none() {
                        last.first_delivery = Some(ctx.now());
                    }
                }
                self.received.push(record);
            }
            NetMsg::PublishAck { id } => {
                self.pending_acks.remove(&id);
            }
            NetMsg::Action(action) => self.handle_action(action, ctx),
            // Clients ignore broker-to-broker traffic that could only reach
            // them through a bug; staying silent keeps tests focused on the
            // delivery audit.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;
    use crate::filter::Op;
    use crate::messages::NoProtocolMsg;
    use mhh_simnet::{Engine, SimDuration, UniformFabric};
    use std::sync::Arc;

    type M = NetMsg<NoProtocolMsg>;

    /// A sink node standing in for a broker: it records what it received.
    #[derive(Default)]
    struct SinkBroker {
        connects: Vec<ConnectInfo>,
        disconnects: Vec<(ClientId, Option<BrokerId>)>,
        publishes: Vec<Event>,
    }

    impl Node<M> for SinkBroker {
        fn on_message(&mut self, env: Envelope<M>, _ctx: &mut Context<M>) {
            match env.msg {
                NetMsg::Connect(i) => self.connects.push(i),
                NetMsg::Disconnect {
                    client,
                    proclaimed_dest,
                } => self.disconnects.push((client, proclaimed_dest)),
                NetMsg::Publish(e) => self.publishes.push(e),
                _ => {}
            }
        }
    }

    enum N {
        Broker(SinkBroker),
        Client(ClientNode),
    }
    impl Node<M> for N {
        fn on_message(&mut self, env: Envelope<M>, ctx: &mut Context<M>) {
            match self {
                N::Broker(b) => b.on_message(env, ctx),
                N::Client(c) => c.on_message(env, ctx),
            }
        }
    }

    fn setup() -> (Engine<M, N>, AddressBook) {
        // 2 "brokers" (sinks) + 1 client
        let book = AddressBook::new(2, 1);
        let filter = Filter::single("group", Op::Eq, 1i64);
        let mut client = ClientNode::new(ClientId(0), book, filter, BrokerId(0));
        client.attach_initially();
        let nodes = vec![
            N::Broker(SinkBroker::default()),
            N::Broker(SinkBroker::default()),
            N::Client(client),
        ];
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(20)));
        (Engine::new(nodes, fabric), book)
    }

    fn ev(id: u64) -> Event {
        EventBuilder::new()
            .attr("group", 1i64)
            .build(id, ClientId(0), id)
    }

    #[test]
    fn a_delivery_record_is_sixteen_bytes() {
        // Every client keeps one per delivery until the run is audited, so
        // on the storm workloads these records are most of the peak memory.
        assert_eq!(std::mem::size_of::<DeliveryRecord>(), 16);
    }

    #[test]
    fn publish_goes_to_current_broker_and_is_stamped() {
        let (mut eng, book) = setup();
        eng.schedule_external(
            SimTime::from_millis(5),
            book.client_node(ClientId(0)),
            NetMsg::Action(ClientAction::Publish(ev(1))),
        );
        eng.run_to_completion();
        match eng.node(book.broker_node(BrokerId(0))) {
            N::Broker(b) => {
                assert_eq!(b.publishes.len(), 1);
                assert_eq!(b.publishes[0].published_at, SimTime::from_millis(5));
            }
            _ => unreachable!(),
        }
        match eng.node(book.client_node(ClientId(0))) {
            N::Client(c) => assert_eq!(c.published.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn publish_while_disconnected_is_skipped() {
        let (mut eng, book) = setup();
        eng.schedule_external(
            SimTime::from_millis(1),
            book.client_node(ClientId(0)),
            NetMsg::Action(ClientAction::Disconnect {
                proclaimed_dest: None,
            }),
        );
        eng.schedule_external(
            SimTime::from_millis(2),
            book.client_node(ClientId(0)),
            NetMsg::Action(ClientAction::Publish(ev(1))),
        );
        eng.run_to_completion();
        match eng.node(book.client_node(ClientId(0))) {
            N::Client(c) => {
                assert_eq!(c.skipped_publishes, 1);
                assert!(c.published.is_empty());
                assert_eq!(c.current_broker, None);
                assert_eq!(c.last_broker, Some(BrokerId(0)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reconnect_carries_last_broker_and_counts_handoffs() {
        let (mut eng, book) = setup();
        let c = book.client_node(ClientId(0));
        eng.schedule_external(
            SimTime::from_millis(1),
            c,
            NetMsg::Action(ClientAction::Disconnect {
                proclaimed_dest: None,
            }),
        );
        eng.schedule_external(
            SimTime::from_millis(100),
            c,
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(1),
            }),
        );
        eng.run_to_completion();
        match eng.node(book.broker_node(BrokerId(1))) {
            N::Broker(b) => {
                assert_eq!(b.connects.len(), 1);
                let info = &b.connects[0];
                assert_eq!(info.last_broker, Some(BrokerId(0)));
                assert!(!info.initial);
            }
            _ => unreachable!(),
        }
        match eng.node(c) {
            N::Client(cl) => {
                assert_eq!(cl.handoff_count(), 1);
                assert_eq!(cl.reconnects.len(), 1);
                assert!(cl.reconnects[0].is_handoff);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reconnect_to_same_broker_is_not_a_handoff() {
        let (mut eng, book) = setup();
        let c = book.client_node(ClientId(0));
        eng.schedule_external(
            SimTime::from_millis(1),
            c,
            NetMsg::Action(ClientAction::Disconnect {
                proclaimed_dest: None,
            }),
        );
        eng.schedule_external(
            SimTime::from_millis(50),
            c,
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(0),
            }),
        );
        eng.run_to_completion();
        match eng.node(c) {
            N::Client(cl) => assert_eq!(cl.handoff_count(), 0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn first_delivery_after_reconnect_fills_handoff_delay() {
        let (mut eng, book) = setup();
        let c = book.client_node(ClientId(0));
        eng.schedule_external(
            SimTime::from_millis(1),
            c,
            NetMsg::Action(ClientAction::Disconnect {
                proclaimed_dest: None,
            }),
        );
        eng.schedule_external(
            SimTime::from_millis(100),
            c,
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(1),
            }),
        );
        // A delivery arriving after the reconnect.
        eng.schedule_external(
            SimTime::from_millis(180),
            c,
            NetMsg::Deliver {
                id: ev(9).id,
                wire_bytes: 0,
            },
        );
        eng.run_to_completion();
        match eng.node(c) {
            N::Client(cl) => {
                let delays = cl.handoff_delays();
                assert_eq!(delays.len(), 1);
                assert!((delays[0] - 80.0).abs() < 1e-9);
                assert_eq!(cl.received.len(), 1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn proclaimed_move_counts_as_a_handoff_and_is_recorded() {
        let (mut eng, book) = setup();
        let c = book.client_node(ClientId(0));
        eng.schedule_external(
            SimTime::from_millis(1),
            c,
            NetMsg::Action(ClientAction::Disconnect {
                proclaimed_dest: Some(BrokerId(1)),
            }),
        );
        eng.schedule_external(
            SimTime::from_millis(100),
            c,
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(1),
            }),
        );
        eng.run_to_completion();
        match eng.node(c) {
            N::Client(cl) => {
                // The protocol pointer follows the proclamation...
                assert_eq!(cl.last_broker, Some(BrokerId(1)));
                // ...but the handover accounting tracks the physical move.
                assert_eq!(cl.handoff_count(), 1, "proclaimed move is a handoff");
                assert_eq!(cl.disconnects.len(), 1);
                assert_eq!(cl.disconnects[0].broker, BrokerId(0));
                assert_eq!(cl.disconnects[0].proclaimed_dest, Some(BrokerId(1)));
                assert_eq!(cl.reconnects[0].from, Some(BrokerId(0)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn proclaimed_disconnect_forwards_destination() {
        let (mut eng, book) = setup();
        let c = book.client_node(ClientId(0));
        eng.schedule_external(
            SimTime::from_millis(1),
            c,
            NetMsg::Action(ClientAction::Disconnect {
                proclaimed_dest: Some(BrokerId(1)),
            }),
        );
        eng.run_to_completion();
        match eng.node(book.broker_node(BrokerId(0))) {
            N::Broker(b) => assert_eq!(b.disconnects, vec![(ClientId(0), Some(BrokerId(1)))]),
            _ => unreachable!(),
        }
    }
}
