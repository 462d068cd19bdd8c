//! The *PSVR* protocol: self-stabilizing pub/sub mobility over a virtual
//! ring (adapted from Siegemund & Turau, "A Self-Stabilizing Publish/
//! Subscribe Middleware for Wireless Sensor Networks", arXiv 1609.06841).
//!
//! PSVR takes the opposite stance from MHH: instead of a carefully
//! choreographed handoff whose every message matters, it keeps **soft
//! state** that converges back to a legal configuration from *any* starting
//! point, which makes the protocol natively fault tolerant:
//!
//! * The brokers form a **virtual ring** in broker-id order (successor of
//!   `i` is `(i + 1) mod n`), independent of the overlay tree. The ring
//!   needs no routing state, so it survives arbitrary corruption.
//! * When a client (re)connects, the new broker roots the subscription
//!   locally and launches a **stabilization sweep** — a
//!   [`PsvrMsg::Handoff`] walking the whole ring. Every broker the sweep
//!   visits removes its stale root for the client (propagating the
//!   unsubscription) and loads any parked events onto the sweep; the final
//!   hop ships the collected backlog to the new root as a
//!   [`PsvrMsg::Transfer`]. No broker needs to know where the client was:
//!   the sweep visits everyone, so *whatever* stale state exists, it heals.
//! * Subscription roots are **leases**, refreshed while the client is
//!   attached. A disconnected client's root survives between one and two
//!   lease periods (mark-and-sweep on a periodic [`PsvrMsg::Tick`]), then
//!   expires: the subscription is withdrawn and the parked backlog is
//!   discarded. Bounded storage is the price of self-stabilization, and the
//!   delivery audit reports the discarded events as loss — honestly, like
//!   the home-broker baseline's in-transit losses.
//! * After a crash+restart ([`MobilityProtocol::on_restart`]) the broker
//!   re-floods every locally rooted subscription (mobility-grade, bypassing
//!   the covering optimisation) and re-arms its lease timer. Divergence
//!   that built up while it was down is repaired by the ordinary sweep and
//!   lease machinery — no dedicated recovery dialogue exists, which is
//!   exactly the self-stabilization claim.
//!
//! Compared in the failure panel against MHH (explicit retry/abort
//! recovery) and the two paper baselines (checkpoint/resync recovery from
//! the shared repair layer).

use std::collections::BTreeMap;

use mhh_pubsub::broker::{BrokerCore, BrokerCtx, MobilityProtocol};
use mhh_pubsub::{
    BrokerId, ClientId, ConnectInfo, Event, EventQueue, FilterRef, Peer, ProtocolMessage, QueueKind,
};
use mhh_simnet::{SimDuration, TrafficClass};

/// A disconnected root is expired once it has sat through this many lease
/// ticks without a refresh (mark-and-sweep: real lifetime is between one
/// and two tick intervals).
const EXPIRE_TICKS: u32 = 2;

/// PSVR protocol messages.
#[derive(Debug, Clone)]
pub enum PsvrMsg {
    /// The stabilization sweep launched by a (re)connect, walking the
    /// virtual ring once. Carries the parked events collected from stale
    /// roots along the way.
    Handoff {
        /// The client whose subscription moved.
        client: ClientId,
        /// The broker the subscription now roots at (the sweep's origin).
        root: BrokerId,
        /// Remaining ring hops after this one; the receiver seeing `0`
        /// closes the sweep by shipping the collected events to `root`.
        ttl: u32,
        /// Parked events collected from stale roots visited so far, oldest
        /// first per origin broker.
        events: Vec<Event>,
    },
    /// The collected backlog of a completed sweep, sent directly (over the
    /// overlay) to the new root.
    Transfer {
        /// The client the events belong to.
        client: ClientId,
        /// The collected events.
        events: Vec<Event>,
    },
    /// Self-scheduled lease timer (never transported on a link): ages
    /// disconnected roots and expires the stale ones.
    Tick,
}

impl ProtocolMessage for PsvrMsg {
    fn kind(&self) -> &'static str {
        match self {
            PsvrMsg::Handoff { .. } => "psvr_handoff",
            PsvrMsg::Transfer { .. } => "psvr_transfer",
            PsvrMsg::Tick => "psvr_tick",
        }
    }

    fn traffic_class(&self) -> TrafficClass {
        match self {
            PsvrMsg::Handoff { events, .. } if !events.is_empty() => TrafficClass::MobilityTransfer,
            PsvrMsg::Transfer { .. } => TrafficClass::MobilityTransfer,
            PsvrMsg::Handoff { .. } | PsvrMsg::Tick => TrafficClass::MobilityControl,
        }
    }
}

/// One locally rooted subscription (a lease).
#[derive(Debug, Clone)]
struct RootRecord {
    /// The client's filter as this root last learned it.
    filter: FilterRef,
    /// Events parked while the client is disconnected — and, while the
    /// stabilization sweep is in flight, events held back so the sweep's
    /// older backlog can be delivered first.
    parked: EventQueue,
    /// Whether the client is currently attached here.
    connected: bool,
    /// A sweep is in flight: hold deliveries until its [`PsvrMsg::Transfer`]
    /// arrives (or a lease tick gives up waiting — the transfer may have
    /// fallen into an outage).
    stabilizing: bool,
    /// Lease ticks this root has sat through disconnected and unrefreshed.
    idle_ticks: u32,
    /// Per-publisher next-expected sequence number. During the overlap
    /// window of a move both the old and the new root receive copies of the
    /// same event; the watermark suppresses the second copy (and any
    /// straggler older than something already delivered), trading
    /// duplicates and inversions for honest, audited loss.
    seen: BTreeMap<ClientId, u64>,
}

impl RootRecord {
    fn fresh(filter: FilterRef, parked: EventQueue) -> Self {
        RootRecord {
            filter,
            parked,
            connected: false,
            stabilizing: false,
            idle_ticks: 0,
            seen: BTreeMap::new(),
        }
    }

    /// Deliver through the per-publisher watermark: drop copies and
    /// stragglers the client has effectively moved past.
    fn deliver_checked(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        ev: &Event,
        ctx: &mut BrokerCtx<'_, PsvrMsg>,
    ) {
        let next = self.seen.entry(ev.publisher).or_insert(0);
        if ev.seq < *next {
            return;
        }
        *next = ev.seq + 1;
        core.deliver(client, ev, ctx);
    }

    /// Go (back) to live delivery: flush everything held, in order.
    fn go_live(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        ctx: &mut BrokerCtx<'_, PsvrMsg>,
    ) {
        self.stabilizing = false;
        let held: Vec<Event> = self.parked.drain();
        for ev in held {
            self.deliver_checked(core, client, &ev, ctx);
        }
    }
}

/// The PSVR protocol instance of one broker.
#[derive(Debug, Clone)]
pub struct Psvr {
    /// Number of brokers on the virtual ring.
    ring_len: u32,
    /// Lease tick interval (roots expire after [`EXPIRE_TICKS`] idle ticks,
    /// so the real soft-state lifetime is one to two intervals).
    lease: SimDuration,
    /// Subscriptions currently rooted at this broker.
    roots: BTreeMap<ClientId, RootRecord>,
    /// Whether a lease tick is currently scheduled.
    ticking: bool,
}

impl Psvr {
    /// Create the protocol instance for one broker of a ring of `ring_len`
    /// brokers with the given lease interval.
    pub fn new(ring_len: u32, lease: SimDuration) -> Self {
        Psvr {
            ring_len,
            lease,
            roots: BTreeMap::new(),
            ticking: false,
        }
    }

    /// Whether this broker currently roots the client's subscription
    /// (tests and metrics).
    pub fn is_root_of(&self, client: ClientId) -> bool {
        self.roots.contains_key(&client)
    }

    /// Number of subscriptions rooted here.
    pub fn root_count(&self) -> usize {
        self.roots.len()
    }

    fn successor(&self, of: BrokerId) -> BrokerId {
        BrokerId((of.0 + 1) % self.ring_len)
    }

    fn arm_tick(&mut self, ctx: &mut BrokerCtx<'_, PsvrMsg>) {
        // Only disconnected roots age and only stabilizing roots wait for a
        // timeout, so the timer runs only while one of those exists —
        // otherwise an attached, settled client would keep the simulation
        // alive with refresh ticks forever.
        let aging = self.roots.values().any(|r| !r.connected || r.stabilizing);
        if !self.ticking && aging {
            self.ticking = true;
            ctx.schedule_protocol(self.lease, PsvrMsg::Tick);
        }
    }
}

impl MobilityProtocol for Psvr {
    type Msg = PsvrMsg;

    fn name(&self) -> &'static str {
        "PSVR"
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, PsvrMsg>,
    ) {
        let client = info.client;
        // Root the subscription here. Mobility-grade propagation: the new
        // root must be known everywhere even where a covering filter
        // already suppressed ordinary propagation.
        core.apply_subscribe(Peer::Client(client), info.filter.clone(), true, ctx);
        let parked = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
        let rec = self
            .roots
            .entry(client)
            .or_insert_with(|| RootRecord::fresh(info.filter.clone(), parked));
        rec.filter = info.filter.clone();
        rec.connected = true;
        rec.idle_ticks = 0;
        // Launch the stabilization sweep around the ring: collect whatever
        // the old roots parked and retire their subscriptions, wherever
        // they are. Until its transfer comes back, deliveries are held so
        // the swept (older) backlog goes first.
        if self.ring_len > 1 {
            rec.stabilizing = true;
            ctx.send_protocol(
                self.successor(core.id),
                PsvrMsg::Handoff {
                    client,
                    root: core.id,
                    ttl: self.ring_len - 2,
                    events: Vec::new(),
                },
            );
        } else {
            rec.go_live(core, client, ctx);
        }
        self.arm_tick(ctx);
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        _proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, PsvrMsg>,
    ) {
        // Keep the root as a lease; newly arriving events park here until
        // the client resurfaces somewhere or the lease expires. A
        // proclaimed destination is ignored: PSVR stabilizes reactively.
        let parked = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
        let rec = self
            .roots
            .entry(client)
            .or_insert_with(|| RootRecord::fresh(filter.clone(), parked));
        if !filter.is_empty() {
            rec.filter = filter;
        }
        rec.connected = false;
        rec.idle_ticks = 0;
        self.arm_tick(ctx);
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        _from: BrokerId,
        msg: PsvrMsg,
        ctx: &mut BrokerCtx<'_, PsvrMsg>,
    ) {
        match msg {
            PsvrMsg::Handoff {
                client,
                root,
                ttl,
                mut events,
            } => {
                // A stale root here is retired: its parked backlog rides the
                // sweep, its subscription is withdrawn. A *live* attachment
                // always wins — a slow sweep from a previous move must not
                // tear down the root the client currently uses.
                let live = self
                    .roots
                    .get(&client)
                    .map(|r| r.connected)
                    .unwrap_or(false);
                if !live && root != core.id {
                    if let Some(mut rec) = self.roots.remove(&client) {
                        events.extend(rec.parked.drain());
                        core.apply_unsubscribe(Peer::Client(client), rec.filter, true, ctx);
                    }
                }
                if ttl == 0 {
                    // Always close the sweep, even empty-handed: the root
                    // holds deliveries until this transfer arrives.
                    ctx.send_protocol(root, PsvrMsg::Transfer { client, events });
                } else {
                    ctx.send_protocol(
                        self.successor(core.id),
                        PsvrMsg::Handoff {
                            client,
                            root,
                            ttl: ttl - 1,
                            events,
                        },
                    );
                }
            }

            PsvrMsg::Transfer { client, events } => {
                // The collected backlog arriving at the new root: it is
                // older than anything held here, so it goes to the client
                // first, then the held events, then live delivery resumes.
                // A disconnected root parks everything instead.
                match self.roots.get_mut(&client) {
                    Some(rec) if rec.connected => {
                        for ev in events {
                            rec.deliver_checked(core, client, &ev, ctx);
                        }
                        rec.go_live(core, client, ctx);
                    }
                    Some(rec) => {
                        rec.stabilizing = false;
                        let held: Vec<Event> = rec.parked.drain();
                        for ev in events.into_iter().chain(held) {
                            rec.parked.push(ev);
                        }
                    }
                    None => {
                        // The root expired (or a crash wiped it) while the
                        // sweep was in flight; with nowhere to root the
                        // backlog it is discarded, surfacing as audited
                        // loss.
                    }
                }
            }

            PsvrMsg::Tick => {
                // Mark-and-sweep lease aging: disconnected roots accumulate
                // idle ticks; beyond the allowance the subscription is
                // withdrawn and the parked backlog discarded (audited as
                // loss). A root still waiting for its sweep transfer after a
                // whole lease period gives up on it (the transfer fell into
                // an outage) and goes live with what it has — the
                // self-stabilizing answer to a lost message. Connected,
                // settled roots refresh implicitly.
                let mut expired: Vec<(ClientId, FilterRef)> = Vec::new();
                let mut give_up: Vec<ClientId> = Vec::new();
                for (&client, rec) in self.roots.iter_mut() {
                    if rec.connected {
                        if rec.stabilizing {
                            rec.idle_ticks += 1;
                            if rec.idle_ticks >= 1 {
                                give_up.push(client);
                            }
                        } else {
                            rec.idle_ticks = 0;
                        }
                    } else {
                        rec.idle_ticks += 1;
                        if rec.idle_ticks >= EXPIRE_TICKS {
                            expired.push((client, rec.filter.clone()));
                        }
                    }
                }
                for client in give_up {
                    if let Some(rec) = self.roots.get_mut(&client) {
                        rec.idle_ticks = 0;
                        rec.go_live(core, client, ctx);
                    }
                }
                for (client, filter) in expired {
                    self.roots.remove(&client);
                    core.apply_unsubscribe(Peer::Client(client), filter, true, ctx);
                }
                self.ticking = false;
                self.arm_tick(ctx);
            }
        }
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        _from: Peer,
        ctx: &mut BrokerCtx<'_, PsvrMsg>,
    ) {
        let connected = core.is_connected(client);
        match self.roots.get_mut(&client) {
            Some(rec) if (rec.connected || connected) && !rec.stabilizing => {
                rec.deliver_checked(core, client, event, ctx)
            }
            // Disconnected — or holding for the sweep so its older backlog
            // can be delivered first.
            Some(rec) => rec.parked.push(event.clone()),
            // No root: the event matched a not-yet-withdrawn stale entry.
            // Deliver if the client happens to be attached; otherwise it is
            // lost and the audit says so.
            None if connected => {
                core.deliver(client, event, ctx);
            }
            None => {}
        }
    }

    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut BrokerCtx<'_, PsvrMsg>) {
        // Self-stabilizing recovery: no dedicated dialogue. Re-flood every
        // locally rooted subscription (the outage may have eaten
        // propagations or grown detours the healed overlay no longer
        // matches) and re-arm the lease timer the crash destroyed. Stale
        // state elsewhere is left to the ordinary sweep + lease machinery.
        let filters: Vec<(ClientId, FilterRef)> = self
            .roots
            .iter()
            .map(|(c, r)| (*c, r.filter.clone()))
            .collect();
        for (client, filter) in filters {
            core.apply_subscribe(Peer::Client(client), filter, true, ctx);
        }
        self.ticking = false;
        self.arm_tick(ctx);
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        self.roots
            .iter()
            .flat_map(|(c, rec)| rec.parked.iter().cloned().map(move |e| (*c, e)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_pubsub::delivery::{audit, SubscriberLog};
    use mhh_pubsub::event::EventBuilder;
    use mhh_pubsub::{ClientAction, ClientSpec, Deployment, DeploymentConfig, Filter, Op};
    use mhh_simnet::SimTime;

    const LEASE: SimDuration = SimDuration::from_millis(10_000);

    fn filter(group: i64) -> Filter {
        Filter::single("group", Op::Eq, group)
    }

    fn build(side: usize) -> Deployment<Psvr> {
        let ring = (side * side) as u32;
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
        Deployment::build(&config, &clients, |_| Psvr::new(ring, LEASE))
    }

    fn schedule_publishes(dep: &mut Deployment<Psvr>, count: u64, every_ms: u64) {
        for i in 0..count {
            let ev = EventBuilder::new()
                .attr("group", 1i64)
                .build(1000 + i, ClientId(1), i);
            dep.schedule_publish(SimTime::from_millis(10 + i * every_ms), ClientId(1), ev);
        }
    }

    fn audit_group1(dep: &Deployment<Psvr>) -> mhh_pubsub::DeliveryAudit {
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
    fn sweep_collects_parked_backlog_after_a_move() {
        let mut dep = build(4);
        // Disconnect mid-stream, publish into the gap, reconnect far away:
        // the gap backlog parks at broker 0 (the old root) and the sweep of
        // the reconnect at broker 15 must fetch it.
        dep.schedule(
            SimTime::from_millis(500),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        schedule_publishes(&mut dep, 30, 100);
        dep.schedule(
            SimTime::from_millis(5_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(15),
            },
        );
        dep.engine.run_to_completion();
        let a = audit_group1(&dep);
        assert_eq!(a.lost, 0, "sweep must recover the parked backlog: {a:?}");
        assert_eq!(a.duplicates, 0, "{a:?}");
        let mobile = dep.client(ClientId(0));
        assert_eq!(mobile.received.len(), 30);
        let stats = dep.engine.stats();
        assert!(stats.kind("psvr_handoff").messages as usize >= 15);
        assert!(stats.kind("psvr_transfer").messages >= 1);
    }

    #[test]
    fn sweep_retires_the_stale_root() {
        let mut dep = build(3);
        dep.schedule(
            SimTime::from_millis(100),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(1_000),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(8),
            },
        );
        dep.engine.run_to_completion();
        assert!(
            !dep.broker(BrokerId(0)).proto.is_root_of(ClientId(0)),
            "old root must be swept away"
        );
        assert!(dep.broker(BrokerId(8)).proto.is_root_of(ClientId(0)));
    }

    #[test]
    fn lease_expiry_discards_the_parked_backlog_as_audited_loss() {
        let mut dep = build(3);
        // Disconnect before the first publish so the whole burst parks,
        // then let several lease periods pass with no reconnect: the root
        // expires and the backlog goes. The stationary subscriber keeps
        // receiving everything.
        dep.schedule(
            SimTime::from_millis(5),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        schedule_publishes(&mut dep, 10, 50);
        dep.engine.run_to_completion();
        assert!(
            !dep.broker(BrokerId(0)).proto.is_root_of(ClientId(0)),
            "lease must expire"
        );
        let a = audit_group1(&dep);
        assert_eq!(a.lost, 10, "expired backlog is honest loss: {a:?}");
        let stationary = dep.client(ClientId(2));
        assert_eq!(stationary.received.len(), 10);
    }

    #[test]
    fn rapid_bounce_keeps_the_live_root() {
        // A slow sweep from the first move must not tear down the root of
        // the second move (live-attachment guard).
        let mut dep = build(4);
        dep.schedule(
            SimTime::from_millis(100),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(200),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(15),
            },
        );
        dep.schedule(
            SimTime::from_millis(300),
            ClientId(0),
            ClientAction::Disconnect {
                proclaimed_dest: None,
            },
        );
        dep.schedule(
            SimTime::from_millis(400),
            ClientId(0),
            ClientAction::Reconnect {
                broker: BrokerId(5),
            },
        );
        schedule_publishes(&mut dep, 20, 100);
        dep.engine.run_to_completion();
        assert!(dep.broker(BrokerId(5)).proto.is_root_of(ClientId(0)));
        let a = audit_group1(&dep);
        assert_eq!(a.duplicates, 0, "{a:?}");
        let mobile = dep.client(ClientId(0));
        assert!(
            mobile.received.len() >= 18,
            "bounced client still served: {}",
            mobile.received.len()
        );
    }
}
