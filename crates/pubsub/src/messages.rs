//! The on-wire message set.
//!
//! A single enum, [`NetMsg`], covers client↔broker and broker↔broker
//! traffic. It is generic over the mobility protocol's own message type so
//! that MHH, sub-unsub and home-broker all reuse the same broker/client/engine
//! machinery while contributing their protocol-specific messages through the
//! [`ProtocolMessage`] trait.

use mhh_simnet::{Message, TrafficClass};

use crate::address::{BrokerId, ClientId};
use crate::event::{Event, EventId};
use crate::filter_table::FilterRef;
use crate::repair::BrokerCheckpoint;

/// Trait implemented by a mobility protocol's message enum.
///
/// The `'static` bound is what lets a message be type-erased into a
/// [`BoxedMsg`](crate::dynproto::BoxedMsg) for dyn-dispatched protocols; all
/// protocol message enums are owned data, so the bound costs nothing.
pub trait ProtocolMessage: Clone + std::fmt::Debug + Send + 'static {
    /// Short label for traffic breakdowns (e.g. `"sub_migration"`).
    fn kind(&self) -> &'static str;
    /// Traffic class for the overhead metric. Protocol control messages are
    /// [`TrafficClass::MobilityControl`]; moved events are
    /// [`TrafficClass::MobilityTransfer`].
    fn traffic_class(&self) -> TrafficClass;
    /// Modeled wire size in bytes (0 when payload modeling is off, which
    /// is also the default for control-only messages). Protocols that move
    /// events should report the sum of the moved events' wire sizes so
    /// handoff transfers show up in bytes-on-wire accounting.
    fn wire_bytes(&self) -> u32 {
        0
    }
}

/// Information a client presents when it (re)connects to a broker.
#[derive(Debug, Clone)]
pub struct ConnectInfo {
    /// The connecting client.
    pub client: ClientId,
    /// The client's subscription filter.
    pub filter: FilterRef,
    /// The client's home broker (used by the home-broker baseline).
    pub home_broker: BrokerId,
    /// The broker the client last visited, if any ("we require that each
    /// client maintains the identifier of its last-visited broker", §4.2).
    pub last_broker: Option<BrokerId>,
    /// True for the very first attachment (no handoff needed).
    pub initial: bool,
}

/// Pre-scheduled workload actions delivered to client nodes as timers.
#[derive(Debug, Clone)]
pub enum ClientAction {
    /// Publish the given event now (skipped when the client is disconnected).
    Publish(Event),
    /// Disconnect from the current broker. When `proclaimed_dest` is set the
    /// client announces its destination broker (proclaimed move, §4.1);
    /// otherwise it leaves silently (§4.2).
    Disconnect {
        /// The announced destination, for a proclaimed move.
        proclaimed_dest: Option<BrokerId>,
    },
    /// Reconnect at the given broker.
    Reconnect {
        /// The broker the client attaches to.
        broker: BrokerId,
    },
    /// Retry timer for an unacknowledged publish (publisher-side
    /// retransmission). Fires `attempt + 1`-th resend unless the broker's
    /// [`NetMsg::PublishAck`] arrived in the meantime.
    RetryPublish {
        /// The unacknowledged event.
        id: EventId,
        /// How many resends have already been attempted when this timer
        /// was armed.
        attempt: u32,
    },
}

/// Overlay-repair messages (failure detection, filter re-announcement and
/// partition tunneling).
///
/// The failure-driver variants (`PeerDown`, `PeerUp`, `LinkDown`, `LinkUp`,
/// `Restarted`) are injected by the deployment driver at deterministic
/// instants derived from the fault schedule — they stand in for the timeout
/// envelopes a real overlay's failure detector would produce. `Announce` and
/// `Tunnel` are genuine broker↔broker repair traffic.
#[derive(Debug, Clone)]
pub enum RepairMsg<P> {
    /// A tree-neighbor broker crashed: drop routes through it and re-route
    /// around it (sticky-path repair: routes are only rebuilt when the
    /// next hop actually died).
    PeerDown {
        /// The crashed broker.
        peer: BrokerId,
    },
    /// A previously crashed tree neighbor restarted: drop the detours
    /// routed around it.
    PeerUp {
        /// The restarted broker.
        peer: BrokerId,
    },
    /// The virtual channel to `peer` is partitioned: tunnel envelopes for it
    /// through `relay` until the partition heals.
    LinkDown {
        /// The unreachable broker.
        peer: BrokerId,
        /// The broker to tunnel through meanwhile.
        relay: BrokerId,
    },
    /// The partition toward `peer` healed: stop tunneling.
    LinkUp {
        /// The reachable-again broker.
        peer: BrokerId,
    },
    /// This broker just restarted from its checkpoint: reload durable state,
    /// let the mobility protocol recover, and resync with the neighbors.
    Restarted,
    /// Filter re-announcement. With `dead: Some(d)` this installs *detour*
    /// entries at the receiver (reverted when `d` restarts); with
    /// `dead: None` it is a post-restart resync and the filters are applied
    /// as ordinary subscriptions.
    Announce {
        /// The crashed broker being routed around, if any.
        dead: Option<BrokerId>,
        /// The filters the sender still needs events for.
        filters: Vec<FilterRef>,
    },
    /// An envelope for `dst` routed through a relay because the direct
    /// channel `src → dst` is partitioned. The relay forwards it; `dst`
    /// processes the inner message exactly as if it had arrived from `src`.
    Tunnel {
        /// The original sender.
        src: BrokerId,
        /// The final destination broker.
        dst: BrokerId,
        /// The wrapped message.
        inner: Box<NetMsg<P>>,
    },
    /// Self-scheduled timer driving periodic checkpoint replication: on
    /// each tick the broker pushes its current [`BrokerCheckpoint`] to its
    /// replica holder and re-arms the timer.
    ReplicateTick,
    /// Periodic checkpoint replication: `owner`'s durable state pushed to a
    /// neighbor for safekeeping. Real repair-class traffic — the wire size
    /// is the checkpoint's modeled size.
    Replicate {
        /// The broker whose state this is.
        owner: BrokerId,
        /// The replicated snapshot.
        checkpoint: Box<BrokerCheckpoint>,
    },
    /// A freshly restarted broker asking its replica holder for the last
    /// snapshot it pushed before the crash.
    ReplicaRequest {
        /// The restarted broker (also the reply address).
        owner: BrokerId,
    },
    /// The holder's reply to a [`RepairMsg::ReplicaRequest`]: the stale
    /// replica, or `None` when no snapshot survived (the holder itself
    /// restarted, or no replication tick ran before the crash).
    ReplicaResponse {
        /// The restarted broker this replica belongs to.
        owner: BrokerId,
        /// The last replicated snapshot, if any.
        replica: Option<Box<BrokerCheckpoint>>,
    },
}

/// The complete message set transported by the simulation engine.
#[derive(Debug, Clone)]
pub enum NetMsg<P> {
    // ------------------------------------------------------------------
    // client -> broker
    // ------------------------------------------------------------------
    /// A client attaches to this broker.
    Connect(ConnectInfo),
    /// A client detaches from this broker.
    Disconnect {
        /// The detaching client.
        client: ClientId,
        /// Destination broker for a proclaimed move.
        proclaimed_dest: Option<BrokerId>,
    },
    /// A client publishes an event through this broker.
    Publish(Event),

    // ------------------------------------------------------------------
    // broker -> client
    // ------------------------------------------------------------------
    /// Final delivery of an event to a connected subscriber.
    Deliver(Event),
    /// Broker acknowledgment of a client publish (sent only when publisher
    /// retransmission is enabled); the client stops its retry timer.
    PublishAck {
        /// The acknowledged event.
        id: EventId,
    },

    // ------------------------------------------------------------------
    // broker <-> broker
    // ------------------------------------------------------------------
    /// Subscription propagation along the overlay tree.
    SubPropagate {
        /// The propagated filter.
        filter: FilterRef,
        /// True when the propagation was triggered by a handoff (counts as
        /// mobility overhead).
        mobility: bool,
    },
    /// Unsubscription propagation along the overlay tree.
    UnsubPropagate {
        /// The withdrawn filter.
        filter: FilterRef,
        /// True when triggered by a handoff.
        mobility: bool,
    },
    /// Event forwarding along the overlay tree (reverse path forwarding).
    Forward(Event),
    /// A mobility-protocol-specific message.
    Protocol(P),
    /// An overlay-repair message (failure notifications, re-announcements,
    /// partition tunnels).
    Repair(RepairMsg<P>),

    // ------------------------------------------------------------------
    // self-scheduled (timers, workload injection) — never traverse links
    // ------------------------------------------------------------------
    /// A pre-scheduled client action (workload driver).
    Action(ClientAction),
}

impl<P> NetMsg<P> {
    /// Re-wrap the protocol payload (if any), keeping every other variant
    /// unchanged. This is the mechanical bridge between the generic message
    /// set and its type-erased form: `msg.map_protocol(BoxedMsg::new)` turns
    /// a `NetMsg<P>` into a `NetMsg<BoxedMsg>`.
    pub fn map_protocol<Q>(self, f: impl FnOnce(P) -> Q) -> NetMsg<Q> {
        match self {
            NetMsg::Connect(info) => NetMsg::Connect(info),
            NetMsg::Disconnect {
                client,
                proclaimed_dest,
            } => NetMsg::Disconnect {
                client,
                proclaimed_dest,
            },
            NetMsg::Publish(e) => NetMsg::Publish(e),
            NetMsg::Deliver(e) => NetMsg::Deliver(e),
            NetMsg::PublishAck { id } => NetMsg::PublishAck { id },
            NetMsg::SubPropagate { filter, mobility } => NetMsg::SubPropagate { filter, mobility },
            NetMsg::UnsubPropagate { filter, mobility } => {
                NetMsg::UnsubPropagate { filter, mobility }
            }
            NetMsg::Forward(e) => NetMsg::Forward(e),
            NetMsg::Protocol(p) => NetMsg::Protocol(f(p)),
            NetMsg::Repair(r) => NetMsg::Repair(match r {
                RepairMsg::PeerDown { peer } => RepairMsg::PeerDown { peer },
                RepairMsg::PeerUp { peer } => RepairMsg::PeerUp { peer },
                RepairMsg::LinkDown { peer, relay } => RepairMsg::LinkDown { peer, relay },
                RepairMsg::LinkUp { peer } => RepairMsg::LinkUp { peer },
                RepairMsg::Restarted => RepairMsg::Restarted,
                RepairMsg::Announce { dead, filters } => RepairMsg::Announce { dead, filters },
                RepairMsg::ReplicateTick => RepairMsg::ReplicateTick,
                RepairMsg::Replicate { owner, checkpoint } => {
                    RepairMsg::Replicate { owner, checkpoint }
                }
                RepairMsg::ReplicaRequest { owner } => RepairMsg::ReplicaRequest { owner },
                RepairMsg::ReplicaResponse { owner, replica } => {
                    RepairMsg::ReplicaResponse { owner, replica }
                }
                // A tunnel wraps at most one protocol payload, so the
                // `FnOnce` is used at most once down the recursion.
                RepairMsg::Tunnel { src, dst, inner } => RepairMsg::Tunnel {
                    src,
                    dst,
                    inner: Box::new(inner.map_protocol(f)),
                },
            }),
            NetMsg::Action(a) => NetMsg::Action(a),
        }
    }
}

impl<P: ProtocolMessage> Message for NetMsg<P> {
    fn traffic_class(&self) -> TrafficClass {
        match self {
            NetMsg::Connect(_) | NetMsg::Disconnect { .. } | NetMsg::Publish(_) => {
                TrafficClass::ClientControl
            }
            NetMsg::Deliver(_) => TrafficClass::EventDelivery,
            NetMsg::PublishAck { .. } => TrafficClass::ClientControl,
            NetMsg::SubPropagate { mobility, .. } | NetMsg::UnsubPropagate { mobility, .. } => {
                if *mobility {
                    TrafficClass::MobilityControl
                } else {
                    TrafficClass::Subscription
                }
            }
            NetMsg::Forward(_) => TrafficClass::EventRouting,
            NetMsg::Protocol(p) => p.traffic_class(),
            NetMsg::Repair(_) => TrafficClass::Repair,
            NetMsg::Action(_) => TrafficClass::Timer,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            NetMsg::Connect(_) => "connect",
            NetMsg::Disconnect { .. } => "disconnect",
            NetMsg::Publish(_) => "publish",
            NetMsg::Deliver(_) => "deliver",
            NetMsg::PublishAck { .. } => "publish_ack",
            NetMsg::SubPropagate { .. } => "sub_propagate",
            NetMsg::UnsubPropagate { .. } => "unsub_propagate",
            NetMsg::Forward(_) => "forward",
            NetMsg::Protocol(p) => p.kind(),
            NetMsg::Repair(r) => match r {
                RepairMsg::PeerDown { .. } => "repair_peer_down",
                RepairMsg::PeerUp { .. } => "repair_peer_up",
                RepairMsg::LinkDown { .. } => "repair_link_down",
                RepairMsg::LinkUp { .. } => "repair_link_up",
                RepairMsg::Restarted => "repair_restarted",
                RepairMsg::Announce { .. } => "repair_announce",
                RepairMsg::Tunnel { .. } => "repair_tunnel",
                RepairMsg::ReplicateTick => "repair_replicate_tick",
                RepairMsg::Replicate { .. } => "repair_replicate",
                RepairMsg::ReplicaRequest { .. } => "repair_replica_request",
                RepairMsg::ReplicaResponse { .. } => "repair_replica_response",
            },
            NetMsg::Action(_) => "action",
        }
    }

    fn wire_bytes(&self) -> u32 {
        match self {
            NetMsg::Publish(e) | NetMsg::Deliver(e) | NetMsg::Forward(e) => e.wire_size(),
            NetMsg::Protocol(p) => p.wire_bytes(),
            NetMsg::Repair(RepairMsg::Tunnel { inner, .. }) => inner.wire_bytes(),
            NetMsg::Repair(RepairMsg::Replicate { checkpoint, .. }) => {
                checkpoint.modeled_bytes().min(u32::MAX as u64) as u32
            }
            NetMsg::Repair(RepairMsg::ReplicaResponse {
                replica: Some(replica),
                ..
            }) => replica.modeled_bytes().min(u32::MAX as u64) as u32,
            _ => 0,
        }
    }
}

/// A trivial protocol message type for tests and for running the substrate
/// without any mobility support ("static" pub/sub).
#[derive(Debug, Clone, PartialEq)]
pub enum NoProtocolMsg {}

impl ProtocolMessage for NoProtocolMsg {
    fn kind(&self) -> &'static str {
        match *self {}
    }
    fn traffic_class(&self) -> TrafficClass {
        match *self {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;
    use crate::filter::{Filter, Op};

    fn ev() -> Event {
        EventBuilder::new()
            .attr("group", 1i64)
            .build(1, ClientId(0), 0)
    }

    #[test]
    fn traffic_classes_follow_message_role() {
        type M = NetMsg<NoProtocolMsg>;
        let publish: M = NetMsg::Publish(ev());
        assert_eq!(publish.traffic_class(), TrafficClass::ClientControl);
        let deliver: M = NetMsg::Deliver(ev());
        assert_eq!(deliver.traffic_class(), TrafficClass::EventDelivery);
        let fwd: M = NetMsg::Forward(ev());
        assert_eq!(fwd.traffic_class(), TrafficClass::EventRouting);
        let sub: M = NetMsg::SubPropagate {
            filter: Filter::single("group", Op::Eq, 1i64).into(),
            mobility: false,
        };
        assert_eq!(sub.traffic_class(), TrafficClass::Subscription);
        let sub_mob: M = NetMsg::SubPropagate {
            filter: FilterRef::default(),
            mobility: true,
        };
        assert_eq!(sub_mob.traffic_class(), TrafficClass::MobilityControl);
        let action: M = NetMsg::Action(ClientAction::Reconnect {
            broker: BrokerId(0),
        });
        assert_eq!(action.traffic_class(), TrafficClass::Timer);
    }

    #[test]
    fn kinds_are_stable_labels() {
        type M = NetMsg<NoProtocolMsg>;
        let m: M = NetMsg::Publish(ev());
        assert_eq!(m.kind(), "publish");
        let m: M = NetMsg::UnsubPropagate {
            filter: FilterRef::default(),
            mobility: true,
        };
        assert_eq!(m.kind(), "unsub_propagate");
    }
}
