//! The *sub-unsub* baseline protocol.
//!
//! Paper, Section 2: when a client reconnects at a new broker it re-issues
//! its subscription there while the old broker keeps the old subscription
//! (and keeps storing events). After a pre-defined period — long enough for
//! the new subscription to be known by every broker — the old subscription is
//! cancelled, the stored queue is transferred to the new broker, duplicates
//! are removed, events are sorted back into order and finally delivered.
//!
//! The two weaknesses the paper calls out fall straight out of this
//! structure: the client cannot receive anything until the *whole* handoff
//! completes (delay governed by the maximum broker-to-broker delivery time),
//! and when the client moves frequently the stored bulk is transferred again
//! and again between brokers.

use std::collections::{BTreeMap, BTreeSet};

use mhh_pubsub::broker::{BrokerCore, BrokerCtx, MobilityProtocol};
use mhh_pubsub::{
    BrokerId, ClientId, ConnectInfo, Event, EventQueue, FilterRef, Peer, ProtocolMessage, QueueKind,
};
use mhh_simnet::{SimDuration, TrafficClass};

/// Sub-unsub protocol messages.
#[derive(Debug, Clone)]
pub enum SuMsg {
    /// Self-timer: the safety interval after re-subscribing has elapsed.
    WaitTimer {
        /// The client whose handoff the timer belongs to.
        client: ClientId,
    },
    /// Ask the old broker to cancel the client's subscription and transfer
    /// its stored queue to the sender.
    FetchQueue {
        /// The client being handed off.
        client: ClientId,
        /// The client's filter (so the old broker can unsubscribe it).
        filter: FilterRef,
    },
    /// The stored queue (or a segment of it) transferred to the new broker
    /// as one network message.
    QueueTransfer {
        /// The client the events belong to.
        client: ClientId,
        /// The transferred events, oldest first.
        events: Vec<Event>,
    },
    /// The stored queue has been fully transferred.
    QueueTransferDone {
        /// The client being handed off.
        client: ClientId,
    },
    /// Flooded notice making the client's new subscription location (or the
    /// cancellation of the old one) known to **all** brokers — the protocol's
    /// defining requirement ("the system ensures that the client's
    /// subscription on the new broker is made known to all other brokers").
    LocationNotice {
        /// The client whose subscription state changed.
        client: ClientId,
        /// True when the notice announces the cancellation at the old broker.
        cancellation: bool,
    },
    /// The honest proclaimed-move (§4.1) equivalent for this protocol: the
    /// departure broker tells the *announced destination* to start the
    /// handoff right away — re-subscribe there, run the safety interval and
    /// fetch the stored queue while the client is still in transit. The
    /// protocol's rules are unchanged (subscribe first, wait, then cancel
    /// and shuttle); only the trigger moves from the client's reconnection
    /// to its departure, so the wait is paid during the disconnection gap.
    PreSubscribe {
        /// The client that proclaimed the move.
        client: ClientId,
        /// Its subscription (the destination has never seen it).
        filter: FilterRef,
        /// The departure broker holding the stored queue.
        old_broker: BrokerId,
    },
}

impl ProtocolMessage for SuMsg {
    fn kind(&self) -> &'static str {
        match self {
            SuMsg::WaitTimer { .. } => "su_wait_timer",
            SuMsg::FetchQueue { .. } => "su_fetch_queue",
            SuMsg::QueueTransfer { .. } => "su_queue_transfer",
            SuMsg::QueueTransferDone { .. } => "su_queue_done",
            SuMsg::LocationNotice { .. } => "su_location_notice",
            SuMsg::PreSubscribe { .. } => "su_pre_subscribe",
        }
    }
    fn traffic_class(&self) -> TrafficClass {
        match self {
            SuMsg::QueueTransfer { .. } => TrafficClass::MobilityTransfer,
            _ => TrafficClass::MobilityControl,
        }
    }
}

/// An in-progress handoff at the *new* broker.
#[derive(Debug, Clone)]
struct Handoff {
    old_broker: BrokerId,
    /// Events arriving at the new broker while the handoff runs.
    buffer: EventQueue,
    /// Events transferred from the old broker.
    incoming: Vec<Event>,
    /// Whether the client is still attached here.
    client_connected: bool,
}

/// Per-client state at one broker.
#[derive(Debug, Clone, Default)]
struct SuClient {
    filter: FilterRef,
    /// Ids of events already handed to the client from this broker. During
    /// the overlap window both the old and the new subscription are active,
    /// so the same event can reach the new broker along two tree paths; the
    /// edge broker removes such duplicates ("delete the duplicated events").
    delivered: BTreeSet<mhh_pubsub::EventId>,
    /// Stored events while the client is disconnected from this broker (this
    /// broker still holds its subscription).
    store: Option<EventQueue>,
    /// Handoff in progress with this broker as the destination.
    handoff: Option<Handoff>,
    /// A newer broker asked for the queue while our own handoff was still
    /// completing; served as soon as it does.
    pending_fetch: Option<BrokerId>,
    /// A proclaimed arrival was announced while our own inbound handoff was
    /// still completing; the next handoff (fetching from this broker) starts
    /// as soon as it does.
    pending_presub: Option<BrokerId>,
}

/// The sub-unsub protocol.
#[derive(Debug, Clone)]
pub struct SubUnsub {
    /// The safety interval between re-subscribing and unsubscribing: "the
    /// maximum time for message delivery between any two stations in the
    /// network" (paper, Section 5.1).
    wait: SimDuration,
    clients: BTreeMap<ClientId, SuClient>,
}

impl SubUnsub {
    /// Create the protocol with the given safety interval.
    pub fn new(wait: SimDuration) -> Self {
        SubUnsub {
            wait,
            clients: BTreeMap::new(),
        }
    }

    /// The configured safety interval.
    pub fn wait(&self) -> SimDuration {
        self.wait
    }

    fn entry(&mut self, client: ClientId, filter: &FilterRef) -> &mut SuClient {
        let e = self.clients.entry(client).or_default();
        if !filter.is_empty() {
            e.filter = filter.clone();
        }
        e
    }

    /// Flood a subscription-location notice over the overlay tree (to every
    /// broker except the one the notice came from, if any). On an acyclic
    /// overlay this visits each broker exactly once, i.e. it costs N-1
    /// messages per notice — the intrinsic price of the sub-unsub design.
    fn flood_notice(
        core: &BrokerCore,
        client: ClientId,
        cancellation: bool,
        from: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        for nb in core.neighbors() {
            if Some(nb) == from {
                continue;
            }
            ctx.send_protocol(
                nb,
                SuMsg::LocationNotice {
                    client,
                    cancellation,
                },
            );
        }
    }

    /// Deliver an event to the attached client unless this broker already
    /// delivered it (the duplicate-suppression step of the protocol).
    fn deliver_once(
        st: &mut SuClient,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        if st.delivered.insert(event.id) {
            core.deliver(client, event, ctx);
        }
    }

    /// Start a handoff with this broker as the destination: re-subscribe
    /// here (a mobility wave + flooded notice), open the handoff buffer and
    /// arm the safety timer. Shared by the reactive trigger (the client's
    /// reconnection) and the proclaimed trigger (a [`SuMsg::PreSubscribe`]
    /// from the departure broker).
    fn begin_handoff(
        st: &mut SuClient,
        core: &mut BrokerCore,
        client: ClientId,
        old_broker: BrokerId,
        wait: SimDuration,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        let filter = st.filter.clone();
        core.apply_subscribe(Peer::Client(client), filter, true, ctx);
        Self::flood_notice(core, client, false, None, ctx);
        st.handoff = Some(Handoff {
            old_broker,
            buffer: EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary),
            incoming: Vec::new(),
            client_connected: core.is_connected(client),
        });
        ctx.schedule_protocol(wait, SuMsg::WaitTimer { client });
    }

    /// Finish a handoff at the new broker: merge, dedupe, sort, deliver.
    fn complete_handoff(
        st: &mut SuClient,
        core: &mut BrokerCore,
        client: ClientId,
        wait: SimDuration,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        let Some(handoff) = st.handoff.take() else {
            return;
        };
        let mut merged = handoff.buffer;
        merged.merge_dedup_sorted(handoff.incoming);
        if handoff.client_connected && core.is_connected(client) {
            for ev in merged.drain() {
                Self::deliver_once(st, core, client, &ev, ctx);
            }
        } else {
            // The client left again before the handoff finished: the merged
            // queue becomes this broker's stored queue, and it will be
            // shuttled onward when the next handoff asks for it — exactly the
            // frequent-moving weakness of this protocol.
            match st.store.as_mut() {
                Some(store) => store.merge_dedup_sorted(merged.drain()),
                None => st.store = Some(merged),
            }
        }
        if let Some(next_broker) = st.pending_fetch.take() {
            Self::serve_fetch(st, core, client, next_broker, ctx);
        }
        if let Some(old_broker) = st.pending_presub.take() {
            // A proclaimed arrival queued up behind the handoff that just
            // finished: chain straight into the next one.
            Self::begin_handoff(st, core, client, old_broker, wait, ctx);
        }
    }

    /// Serve a `FetchQueue`: unsubscribe the client here and stream the
    /// stored queue to the requesting broker.
    fn serve_fetch(
        st: &mut SuClient,
        core: &mut BrokerCore,
        client: ClientId,
        dest: BrokerId,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        if st.handoff.is_some() {
            // Our own inbound handoff has not finished; defer.
            st.pending_fetch = Some(dest);
            return;
        }
        let filter = st.filter.clone();
        core.apply_unsubscribe(Peer::Client(client), filter, true, ctx);
        Self::flood_notice(core, client, true, None, ctx);
        if let Some(mut store) = st.store.take() {
            let events = store.drain();
            if !events.is_empty() {
                ctx.send_protocol(dest, SuMsg::QueueTransfer { client, events });
            }
        }
        ctx.send_protocol(dest, SuMsg::QueueTransferDone { client });
    }
}

impl MobilityProtocol for SubUnsub {
    type Msg = SuMsg;

    fn name(&self) -> &'static str {
        "sub-unsub"
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        let client = info.client;
        let wait = self.wait;
        let st = self.entry(client, &info.filter);

        match info.last_broker {
            Some(last) if last != core.id => {
                // Reactive (silent) move: re-issue the subscription here (a
                // mobility-caused wave) and start the safety timer;
                // everything arriving meanwhile is buffered so it can be
                // merged with the old queue later.
                Self::begin_handoff(st, core, client, last, wait, ctx);
            }
            _ => {
                // Reconnected where the subscription already roots — either
                // a bounce back to the same broker or a *proclaimed* arrival
                // (the client's last-broker pointer was redirected here when
                // it departed, and the PreSubscribe-triggered handoff has
                // been running since then). Deliver whatever is ready.
                if let Some(handoff) = st.handoff.as_mut() {
                    // Handoff still in flight: mark the client present;
                    // completion will deliver.
                    handoff.client_connected = true;
                } else if let Some(mut store) = st.store.take() {
                    for ev in store.drain() {
                        Self::deliver_once(st, core, client, &ev, ctx);
                    }
                }
            }
        }
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        let st = self.entry(client, &filter);
        let filter = st.filter.clone();
        if let Some(handoff) = st.handoff.as_mut() {
            handoff.client_connected = false;
        } else if st.store.is_none() {
            st.store = Some(EventQueue::new(
                core.alloc_pq_id(client),
                QueueKind::Persistent,
            ));
        }
        // Proclaimed move: tell the announced destination to start the
        // handoff now, so the safety interval runs during the disconnection
        // gap instead of after the reconnection.
        if let Some(dest) = proclaimed_dest {
            if dest != core.id {
                ctx.send_protocol(
                    dest,
                    SuMsg::PreSubscribe {
                        client,
                        filter,
                        old_broker: core.id,
                    },
                );
            }
        }
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: SuMsg,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        match msg {
            SuMsg::WaitTimer { client } => {
                let Some(st) = self.clients.get_mut(&client) else {
                    return;
                };
                let Some(handoff) = st.handoff.as_ref() else {
                    return;
                };
                let filter = st.filter.clone();
                ctx.send_protocol(handoff.old_broker, SuMsg::FetchQueue { client, filter });
            }
            SuMsg::FetchQueue { client, filter } => {
                let st = self.entry(client, &filter);
                Self::serve_fetch(st, core, client, from, ctx);
            }
            SuMsg::QueueTransfer { client, events } => {
                let st = self.clients.entry(client).or_default();
                if let Some(handoff) = st.handoff.as_mut() {
                    handoff.incoming.extend(events);
                } else if let Some(store) = st.store.as_mut() {
                    for event in events {
                        store.push(event);
                    }
                } else if core.is_connected(client) {
                    for event in &events {
                        Self::deliver_once(st, core, client, event, ctx);
                    }
                }
            }
            SuMsg::QueueTransferDone { client } => {
                let wait = self.wait;
                let Some(st) = self.clients.get_mut(&client) else {
                    return;
                };
                Self::complete_handoff(st, core, client, wait, ctx);
            }
            SuMsg::PreSubscribe {
                client,
                filter,
                old_broker,
            } => {
                let wait = self.wait;
                let st = self.entry(client, &filter);
                if old_broker == core.id {
                    return;
                }
                if st.handoff.is_some() {
                    // Our own inbound handoff is still completing (the
                    // client is oscillating faster than handoffs finish);
                    // start the proclaimed one as soon as it does.
                    st.pending_presub = Some(old_broker);
                    return;
                }
                Self::begin_handoff(st, core, client, old_broker, wait, ctx);
            }
            SuMsg::LocationNotice {
                client,
                cancellation,
            } => {
                Self::flood_notice(core, client, cancellation, Some(from), ctx);
            }
        }
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        _from: Peer,
        ctx: &mut BrokerCtx<'_, SuMsg>,
    ) {
        let connected = core.is_connected(client);
        let Some(st) = self.clients.get_mut(&client) else {
            if connected {
                core.deliver(client, event, ctx);
            }
            return;
        };
        if let Some(handoff) = st.handoff.as_mut() {
            handoff.buffer.push(event.clone());
            return;
        }
        if let Some(store) = st.store.as_mut() {
            store.push(event.clone());
            return;
        }
        if connected {
            Self::deliver_once(st, core, client, event, ctx);
        }
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        let mut out = Vec::new();
        for (c, st) in &self.clients {
            if let Some(store) = &st.store {
                out.extend(store.iter().cloned().map(|e| (*c, e)));
            }
            if let Some(h) = &st.handoff {
                out.extend(h.buffer.iter().cloned().map(|e| (*c, e)));
                out.extend(h.incoming.iter().cloned().map(|e| (*c, e)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_pubsub::delivery::{audit, SubscriberLog};
    use mhh_pubsub::event::EventBuilder;
    use mhh_pubsub::{ClientAction, ClientSpec, Deployment, DeploymentConfig, Filter, Op};
    use mhh_simnet::SimTime;

    fn filter(group: i64) -> Filter {
        Filter::single("group", Op::Eq, group)
    }

    fn build(side: usize, wait_ms: u64) -> Deployment<SubUnsub> {
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
        Deployment::build(&config, &clients, |_| {
            SubUnsub::new(SimDuration::from_millis(wait_ms))
        })
    }

    fn schedule_publishes(dep: &mut Deployment<SubUnsub>, count: u64) {
        for i in 0..count {
            let ev = EventBuilder::new()
                .attr("group", 1i64)
                .build(1000 + i, ClientId(1), i);
            dep.schedule_publish(SimTime::from_millis(10 + i * 100), ClientId(1), ev);
        }
    }

    fn audit_group1(dep: &Deployment<SubUnsub>) -> mhh_pubsub::DeliveryAudit {
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
    fn silent_move_is_reliable_but_slower_than_direct() {
        let mut dep = build(4, 400);
        schedule_publishes(&mut dep, 60);
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
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert!(a.is_reliable(), "audit: {a:?}");
        let mobile = dep.client(ClientId(0));
        assert_eq!(mobile.handoff_count(), 1);
        let delays = mobile.handoff_delays();
        assert_eq!(delays.len(), 1);
        // The client cannot be served before the safety interval elapses.
        assert!(
            delays[0] >= 400.0,
            "delay {delays:?} must exceed the wait interval"
        );
    }

    #[test]
    fn duplicates_from_overlapping_subscriptions_are_removed() {
        // During the overlap both the old and the new broker receive matching
        // events; after the merge the client still sees each exactly once.
        let mut dep = build(4, 600);
        schedule_publishes(&mut dep, 80);
        dep.schedule(
            SimTime::from_millis(2_000),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(2_200),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(10),
            },
        );
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert_eq!(a.duplicates, 0, "audit: {a:?}");
        assert_eq!(a.lost, 0, "audit: {a:?}");
        assert_eq!(a.out_of_order, 0, "audit: {a:?}");
    }

    #[test]
    fn frequent_moving_stays_reliable() {
        let mut dep = build(4, 500);
        schedule_publishes(&mut dep, 120);
        let hops = [5u32, 14, 3, 9];
        let mut t = 800u64;
        for b in hops {
            dep.schedule(
                SimTime::from_millis(t),
                ClientId(0),
                ClientAction::Disconnect {
                    proclaimed_dest: None,
                },
            );
            t += 150;
            dep.schedule(
                SimTime::from_millis(t),
                ClientId(0),
                ClientAction::Reconnect {
                    broker: BrokerId(b),
                },
            );
            t += 250;
        }
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert_eq!(a.lost, 0, "audit: {a:?}");
        assert_eq!(a.duplicates, 0, "audit: {a:?}");
        assert_eq!(a.out_of_order, 0, "audit: {a:?}");
    }

    #[test]
    fn proclaimed_move_is_reliable_and_beats_the_safety_interval() {
        // Reactive and proclaimed runs of the same move: the proclaimed one
        // pays the safety interval during the 1.5 s disconnection gap, so
        // its post-reconnect first-delivery gap drops below the interval.
        let wait_ms = 400u64;
        let run = |proclaimed: bool| {
            let mut dep = build(4, wait_ms);
            schedule_publishes(&mut dep, 60);
            dep.schedule(
                SimTime::from_millis(1_500),
                ClientId(0),
                ClientAction::Disconnect {
                    proclaimed_dest: proclaimed.then_some(BrokerId(15)),
                },
            );
            dep.schedule(
                SimTime::from_millis(3_000),
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
        assert!(a.is_reliable(), "proclaimed audit: {a:?}");
        let mobile = dep.client(ClientId(0));
        assert_eq!(mobile.handoff_count(), 1, "proclaimed move is a handoff");
        let delays = mobile.handoff_delays();
        assert_eq!(delays.len(), 1);
        assert!(
            delays[0] < wait_ms as f64,
            "proclaimed delay {delays:?} must undercut the safety interval"
        );
        assert!(
            dep.engine.stats().kind("su_pre_subscribe").messages > 0,
            "the departure broker must announce the destination"
        );

        let reactive = run(false);
        let reactive_delay = reactive.client(ClientId(0)).handoff_delays()[0];
        assert!(
            delays[0] < reactive_delay,
            "proclaimed {} ms must beat reactive {} ms",
            delays[0],
            reactive_delay
        );
    }

    #[test]
    fn proclaimed_oscillation_chains_handoffs_reliably() {
        // Move every 150/250 ms with a 500 ms safety interval: proclaimed
        // handoffs overlap and must queue behind each other (pending
        // pre-subscribe) without losing, duplicating or reordering events.
        let mut dep = build(4, 500);
        schedule_publishes(&mut dep, 120);
        let hops = [5u32, 14, 3, 9];
        let mut t = 800u64;
        for b in hops {
            dep.schedule(
                SimTime::from_millis(t),
                ClientId(0),
                ClientAction::Disconnect {
                    proclaimed_dest: Some(BrokerId(b)),
                },
            );
            t += 150;
            dep.schedule(
                SimTime::from_millis(t),
                ClientId(0),
                ClientAction::Reconnect {
                    broker: BrokerId(b),
                },
            );
            t += 250;
        }
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert_eq!(a.lost, 0, "audit: {a:?}");
        assert_eq!(a.duplicates, 0, "audit: {a:?}");
        assert_eq!(a.out_of_order, 0, "audit: {a:?}");
        assert_eq!(dep.client(ClientId(0)).handoff_count(), 4);
    }

    #[test]
    fn resubscription_wave_is_counted_as_mobility_overhead() {
        let mut dep = build(3, 300);
        schedule_publishes(&mut dep, 10);
        dep.schedule(
            SimTime::from_millis(200),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(400),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(8),
            },
        );
        dep.engine.run_to_completion();
        let stats = dep.engine.stats();
        assert!(stats.mobility_hops() > 0);
        assert!(
            stats.kind("sub_propagate").messages > 0 || stats.kind("su_fetch_queue").messages > 0
        );
    }
}
