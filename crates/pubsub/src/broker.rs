//! The event broker node.
//!
//! A broker is split into two cooperating parts:
//!
//! * [`BrokerCore`] — the protocol-agnostic state of Section 3 of the paper:
//!   the filter table, the overlay routing table, the set of locally
//!   connected clients, and the reverse-path-forwarding subscription /
//!   event propagation logic;
//! * a [`MobilityProtocol`] implementation — everything that happens when
//!   clients move: MHH (in `mhh-core`), sub-unsub and home-broker (in
//!   `mhh-baselines`) plug in here.
//!
//! [`Broker`] glues the two together and implements the simulator's
//! [`Node`] trait.

use std::collections::BTreeMap;
use std::sync::Arc;

use mhh_simnet::{Context, Envelope, Network, Node, NodeId, SimDuration, SimTime};

use crate::address::{AddressBook, BrokerId, ClientId, Peer};
use crate::dynproto::BoxedMsg;
use crate::event::Event;
use crate::event::EventId;
use crate::filter_table::{FilterEntry, FilterRef, FilterTable};
use crate::messages::{ConnectInfo, NetMsg, ProtocolMessage, RepairMsg};
use crate::queue::PqId;
use crate::repair::RepairState;
use crate::wire::{CachedEvent, FanoutMode, FanoutStats};

/// Where a [`BrokerCtx`] routes outgoing messages.
///
/// The `Direct` arm is the generic fast path: messages go straight into the
/// engine context with their concrete protocol payload type. The `Erased`
/// arm backs dyn-dispatched protocols ([`crate::dynproto`]): the engine runs
/// on [`BoxedMsg`] payloads, and a protocol's native messages are boxed at
/// the send boundary.
enum CtxSink<'a, P: ProtocolMessage> {
    Direct(&'a mut Context<NetMsg<P>>),
    Erased(&'a mut Context<NetMsg<BoxedMsg>>),
}

/// Helper handed to broker/protocol code for sending messages; wraps the
/// simulator context plus the address book so protocol code can speak in
/// terms of broker and client ids.
pub struct BrokerCtx<'a, P: ProtocolMessage> {
    sink: CtxSink<'a, P>,
    book: AddressBook,
    /// The broker this context belongs to (None for client/test contexts).
    self_broker: Option<BrokerId>,
    /// Partitioned peers to tunnel around (snapshot of the broker's
    /// [`RepairState::tunnels`]; empty in the fault-free common case).
    tunnels: Arc<BTreeMap<BrokerId, BrokerId>>,
}

impl<'a, P: ProtocolMessage> BrokerCtx<'a, P> {
    /// Wrap a simulator context (no tunnel interception — clients, tests).
    pub fn new(inner: &'a mut Context<NetMsg<P>>, book: AddressBook) -> Self {
        BrokerCtx {
            sink: CtxSink::Direct(inner),
            book,
            self_broker: None,
            tunnels: Arc::new(BTreeMap::new()),
        }
    }

    /// Wrap a simulator context for a specific broker: sends to a
    /// partitioned peer are transparently wrapped in a
    /// [`RepairMsg::Tunnel`] through that peer's relay.
    pub fn for_broker(
        inner: &'a mut Context<NetMsg<P>>,
        book: AddressBook,
        broker: BrokerId,
        tunnels: Arc<BTreeMap<BrokerId, BrokerId>>,
    ) -> Self {
        BrokerCtx {
            sink: CtxSink::Direct(inner),
            book,
            self_broker: Some(broker),
            tunnels,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        match &self.sink {
            CtxSink::Direct(inner) => inner.now(),
            CtxSink::Erased(inner) => inner.now(),
        }
    }

    /// The address book of the deployment.
    pub fn book(&self) -> AddressBook {
        self.book
    }

    fn send(&mut self, to: mhh_simnet::NodeId, msg: NetMsg<P>) {
        match &mut self.sink {
            CtxSink::Direct(inner) => inner.send(to, msg),
            CtxSink::Erased(inner) => inner.send(to, msg.map_protocol(BoxedMsg::new)),
        }
    }

    /// Send an arbitrary message to another broker. While the direct channel
    /// to `broker` is partitioned, the message is transparently tunneled
    /// through the relay recorded by the repair layer (tunnels themselves
    /// are never re-wrapped — the relay forwards them as-is).
    pub fn send_to_broker(&mut self, broker: BrokerId, msg: NetMsg<P>) {
        if !self.tunnels.is_empty() && !matches!(msg, NetMsg::Repair(RepairMsg::Tunnel { .. })) {
            if let (Some(me), Some(&relay)) = (self.self_broker, self.tunnels.get(&broker)) {
                let wrapped = NetMsg::Repair(RepairMsg::Tunnel {
                    src: me,
                    dst: broker,
                    inner: Box::new(msg),
                });
                self.send(self.book.broker_node(relay), wrapped);
                return;
            }
        }
        self.send(self.book.broker_node(broker), msg);
    }

    /// Send a protocol-specific message to another broker.
    pub fn send_protocol(&mut self, broker: BrokerId, msg: P) {
        self.send_to_broker(broker, NetMsg::Protocol(msg));
    }

    /// Forward an event to a neighboring broker over the overlay.
    pub fn forward(&mut self, broker: BrokerId, event: Event) {
        self.send_to_broker(broker, NetMsg::Forward(event));
    }

    /// Deliver an event to a connected client over the wireless link.
    ///
    /// Protocol code should normally go through [`BrokerCore::deliver`] (or
    /// [`BrokerCore::try_deliver`]) instead, which applies the broker's
    /// duplicate-suppression window before reaching this raw send.
    pub fn deliver(&mut self, client: ClientId, event: Event) {
        self.send(self.book.client_node(client), NetMsg::Deliver(event));
    }

    /// Acknowledge a client publish (publisher-side retransmission support).
    pub fn ack_publish(&mut self, client: ClientId, id: EventId) {
        self.send(self.book.client_node(client), NetMsg::PublishAck { id });
    }

    /// Schedule a protocol message back to this broker after `delay`
    /// (a timer — never counted as network traffic).
    pub fn schedule_protocol(&mut self, delay: SimDuration, msg: P) {
        match &mut self.sink {
            CtxSink::Direct(inner) => inner.schedule(delay, NetMsg::Protocol(msg)),
            CtxSink::Erased(inner) => inner.schedule(delay, NetMsg::Protocol(BoxedMsg::new(msg))),
        }
    }

    /// Schedule a repair message back to this broker after `delay`
    /// (a timer — never counted as network traffic). Drives the periodic
    /// checkpoint-replication tick.
    pub fn schedule_repair(&mut self, delay: SimDuration, msg: RepairMsg<P>) {
        match &mut self.sink {
            CtxSink::Direct(inner) => inner.schedule(delay, NetMsg::Repair(msg)),
            CtxSink::Erased(inner) => {
                inner.schedule(delay, NetMsg::Repair(msg).map_protocol(BoxedMsg::new))
            }
        }
    }

    /// Report fan-out buffer allocations to the engine's perf counters
    /// (see [`Context::note_fanout_allocs`]).
    pub fn note_fanout_allocs(&mut self, n: u64) {
        match &mut self.sink {
            CtxSink::Direct(inner) => inner.note_fanout_allocs(n),
            CtxSink::Erased(inner) => inner.note_fanout_allocs(n),
        }
    }
}

impl<'a> BrokerCtx<'a, BoxedMsg> {
    /// Reborrow this context for a protocol whose native message type is
    /// `M`: sends are boxed back into [`BoxedMsg`] at the boundary. This is
    /// how [`crate::dynproto::ErasedProtocol`] hands the wrapped protocol a
    /// context of its own message type while the engine runs type-erased.
    pub fn erased<M: ProtocolMessage>(&mut self) -> BrokerCtx<'_, M> {
        let book = self.book;
        let self_broker = self.self_broker;
        let tunnels = self.tunnels.clone();
        // Both arms hold a `Context<NetMsg<BoxedMsg>>` when `P = BoxedMsg`.
        let inner: &mut Context<NetMsg<BoxedMsg>> = match &mut self.sink {
            CtxSink::Direct(inner) => inner,
            CtxSink::Erased(inner) => inner,
        };
        BrokerCtx {
            sink: CtxSink::Erased(inner),
            book,
            self_broker,
            tunnels,
        }
    }
}

/// Behaviour a mobility-management protocol contributes to a broker.
///
/// The same trait is implemented by the paper's MHH protocol (`mhh-core`)
/// and by the two baselines (`mhh-baselines`), which is what lets the
/// evaluation harness run all three on identical workloads.
pub trait MobilityProtocol: Sized + Send {
    /// The protocol's own message enum.
    type Msg: ProtocolMessage;

    /// Human-readable protocol name (used in reports).
    fn name(&self) -> &'static str;

    /// A client reconnected at this broker (non-initial attachments only;
    /// initial attachments are handled by the core).
    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    );

    /// A client disconnected from this broker.
    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    );

    /// A protocol-specific message arrived from `from` (equal to this
    /// broker's own id for self-scheduled timers).
    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: Self::Msg,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    );

    /// An event matched a client entry of this broker's filter table. The
    /// protocol decides whether to deliver immediately, buffer, or move it.
    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: Event,
        from: Peer,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    );

    /// Events currently buffered at this broker for disconnected or
    /// mid-handoff clients. Used by the end-of-run delivery audit to tell
    /// "still pending" apart from "lost".
    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        Vec::new()
    }

    /// Total modeled wire bytes of the events in
    /// [`buffered_events`](Self::buffered_events), without materializing
    /// them. Sampled by the broker after each message (only when payload
    /// modeling is on) to track the buffered-memory high-water mark during
    /// handoff and capture windows.
    fn buffered_bytes(&self) -> u64 {
        0
    }

    /// This broker just restarted from a crash: durable core state was
    /// reloaded from the checkpoint, but all pending timers and in-flight
    /// messages were lost while the broker was down. Protocols override this
    /// to re-arm stalled state machines (MHH re-kicks pending migrations).
    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut BrokerCtx<'_, Self::Msg>) {
        let _ = (core, ctx);
    }
}

/// Per-client duplicate-suppression state: a per-publisher delivery
/// watermark (the highest per-publisher sequence number already delivered)
/// plus a bounded window of recently delivered event ids. An event is
/// suppressed when its sequence number is at or below the publisher's
/// watermark *or* its id is still in the recent window; otherwise it is
/// delivered and both structures advance. The watermark is what kills the
/// unbounded crash-recovery duplicate storm (re-forwarded backlogs replay
/// entire histories); the id window catches re-sends that race ahead of it.
#[derive(Debug, Clone, Default)]
pub struct DedupState {
    /// Highest delivered sequence number per publisher.
    pub watermarks: BTreeMap<ClientId, u64>,
    /// Recently delivered event ids, oldest first, bounded by the broker's
    /// [`BrokerCore::dedup_window`].
    pub recent: std::collections::VecDeque<EventId>,
}

impl DedupState {
    /// Modeled memory footprint: 12 bytes per watermark entry (4-byte
    /// client id + 8-byte sequence), 8 bytes per windowed event id.
    pub fn modeled_bytes(&self) -> u64 {
        self.watermarks.len() as u64 * 12 + self.recent.len() as u64 * 8
    }
}

/// Protocol-agnostic broker state.
#[derive(Debug, Clone)]
pub struct BrokerCore {
    /// This broker's id.
    pub id: BrokerId,
    /// Address book of the deployment.
    pub book: AddressBook,
    /// The broker network (overlay tree + routing + distances).
    pub network: Arc<Network>,
    /// The filter table (Section 3).
    pub filters: FilterTable,
    /// Currently connected clients and their filters.
    pub connected: BTreeMap<ClientId, FilterRef>,
    /// Whether the covering optimisation is applied to subscription
    /// propagation.
    pub covering_enabled: bool,
    /// Overlay-repair bookkeeping (dead peers, partition tunnels, replicas).
    pub repair: RepairState,
    /// How event fan-out materializes wire forms (serialize-once cached
    /// vs. clone-per-subscriber baseline). Only observable through byte
    /// and allocation accounting — delivery behavior is identical.
    pub fanout_mode: FanoutMode,
    /// Fan-out serialization counters for this broker.
    pub fanout: FanoutStats,
    /// When set, this broker keeps the last event of each publisher it
    /// routed and replays matching retained events to newly attaching
    /// subscribers (the MQTT retained-message pattern).
    pub retained_enabled: bool,
    /// Last routed event per publisher (retained store; empty unless
    /// [`retained_enabled`](Self::retained_enabled)).
    pub retained: BTreeMap<ClientId, Event>,
    /// Shared-subscription group width: matched local subscribers whose
    /// ids fall in the same `id / size` bucket receive each event on
    /// exactly one member (load-balanced delivery groups). 0 or 1 = off.
    pub shared_group_size: u32,
    /// Track buffered/checkpoint byte high-water marks (enabled together
    /// with payload modeling; off by default so the hot path stays free
    /// of sampling).
    pub track_mem: bool,
    /// Peak modeled bytes buffered by the mobility protocol at this
    /// broker (handoff/capture windows).
    pub buffered_bytes_peak: u64,
    /// Peak modeled checkpoint size written by this broker.
    pub checkpoint_bytes_peak: u64,
    /// Delivery duplicate-suppression window width (0 = off: deliveries
    /// bypass the dedup state entirely, the pre-reliability fast path).
    pub dedup_window: usize,
    /// Per-client dedup state (empty unless
    /// [`dedup_window`](Self::dedup_window) is set). Intentionally survives
    /// a simulated restart, like the retained store: suppression state is
    /// client-scoped, not part of the broker's durable checkpoint.
    pub dedup: BTreeMap<ClientId, DedupState>,
    /// Deliveries suppressed as duplicates at this broker.
    pub duplicates_suppressed: u64,
    /// Peak modeled bytes of dedup state (tracked only with
    /// [`track_mem`](Self::track_mem)).
    pub dedup_bytes_peak: u64,
    /// Whether this broker acknowledges client publishes
    /// ([`NetMsg::PublishAck`]); enabled together with publisher-side
    /// retransmission.
    pub acks_enabled: bool,
    /// Period of the neighbour-replicated checkpoint tick
    /// ([`RepairMsg::ReplicateTick`]); zero disables replication and keeps
    /// restarts on the self-checkpoint fast path.
    pub replication_period: SimDuration,
    /// The tick never re-arms past this instant — the bound that lets a
    /// run drain to quiescence after the workload horizon. [`SimTime::ZERO`]
    /// (the default) means replication is never armed at all.
    pub replication_until: SimTime,
    /// Clients re-subscribed after a replica restore because the stale
    /// replica predated their attachment (the modeled staleness cost).
    pub stale_resubscribes: u64,
    /// Pre-crash connected snapshot stashed between `Restarted` and the
    /// replica holder's `ReplicaResponse`.
    pub(crate) pending_restore: Option<BTreeMap<ClientId, FilterRef>>,
    /// Per-client allocator for persistent-queue identifiers.
    pq_seq: BTreeMap<ClientId, u32>,
}

impl BrokerCore {
    /// Create the core state for one broker.
    pub fn new(id: BrokerId, book: AddressBook, network: Arc<Network>, covering: bool) -> Self {
        BrokerCore {
            id,
            book,
            network,
            filters: FilterTable::new(),
            connected: BTreeMap::new(),
            covering_enabled: covering,
            repair: RepairState::default(),
            fanout_mode: FanoutMode::default(),
            fanout: FanoutStats::default(),
            retained_enabled: false,
            retained: BTreeMap::new(),
            shared_group_size: 0,
            track_mem: false,
            buffered_bytes_peak: 0,
            checkpoint_bytes_peak: 0,
            dedup_window: 0,
            dedup: BTreeMap::new(),
            duplicates_suppressed: 0,
            dedup_bytes_peak: 0,
            acks_enabled: false,
            replication_period: SimDuration::ZERO,
            replication_until: SimTime::ZERO,
            stale_resubscribes: 0,
            pending_restore: None,
            pq_seq: BTreeMap::new(),
        }
    }

    /// Select the fan-out materialization mode (builder-style).
    pub fn with_fanout_mode(mut self, mode: FanoutMode) -> Self {
        self.fanout_mode = mode;
        self
    }

    /// Enable the retained-message store and replay (builder-style).
    pub fn with_retained(mut self, enabled: bool) -> Self {
        self.retained_enabled = enabled;
        self
    }

    /// Set the shared-subscription group width (builder-style); 0 or 1
    /// disables group collapsing.
    pub fn with_shared_groups(mut self, size: u32) -> Self {
        self.shared_group_size = size;
        self
    }

    /// Enable buffered/checkpoint memory high-water tracking
    /// (builder-style).
    pub fn with_mem_tracking(mut self, enabled: bool) -> Self {
        self.track_mem = enabled;
        self
    }

    /// Set the delivery duplicate-suppression window width (builder-style);
    /// 0 keeps deliveries on the dedup-free fast path.
    pub fn with_dedup_window(mut self, window: usize) -> Self {
        self.dedup_window = window;
        self
    }

    /// Enable publish acknowledgments (builder-style); paired with
    /// publisher-side retransmission on the clients.
    pub fn with_publish_acks(mut self, enabled: bool) -> Self {
        self.acks_enabled = enabled;
        self
    }

    /// Set the neighbour-replicated checkpoint period and the horizon past
    /// which the tick stops re-arming (builder-style);
    /// [`SimDuration::ZERO`] disables replication. The horizon is what lets
    /// `run_to_completion` terminate: without it the self-rearming tick
    /// would keep the event queue non-empty forever.
    pub fn with_checkpoint_replication(mut self, period: SimDuration, until: SimTime) -> Self {
        self.replication_period = period;
        self.replication_until = until;
        self
    }

    /// Record a buffered-bytes sample, keeping the high-water mark.
    pub fn note_buffered_bytes(&mut self, bytes: u64) {
        if bytes > self.buffered_bytes_peak {
            self.buffered_bytes_peak = bytes;
        }
    }

    /// Record the modeled size of a checkpoint write.
    pub fn note_checkpoint_bytes(&mut self, bytes: u64) {
        if bytes > self.checkpoint_bytes_peak {
            self.checkpoint_bytes_peak = bytes;
        }
    }

    /// This broker as a [`Peer`].
    pub fn self_peer(&self) -> Peer {
        Peer::Broker(self.id)
    }

    /// Overlay-tree neighbors of this broker.
    pub fn neighbors(&self) -> Vec<BrokerId> {
        self.network
            .tree
            .neighbors(self.id.index())
            .iter()
            .map(|&n| BrokerId(n as u32))
            .collect()
    }

    /// The overlay neighbor on the path toward `dst` (Section 3's routing
    /// table). Returns this broker's own id when `dst == self.id`.
    pub fn next_hop_to(&self, dst: BrokerId) -> BrokerId {
        BrokerId(self.network.next_hop(self.id.index(), dst.index()) as u32)
    }

    /// Hop distance to another broker over the physical grid.
    pub fn grid_distance_to(&self, other: BrokerId) -> u32 {
        self.network.grid_distance(self.id.index(), other.index())
    }

    /// Allocate a fresh persistent-queue id for a client at this broker.
    pub fn alloc_pq_id(&mut self, client: ClientId) -> PqId {
        let seq = self.pq_seq.entry(client).or_insert(0);
        let id = PqId {
            broker: self.id,
            client,
            seq: *seq,
        };
        *seq += 1;
        id
    }

    /// Is the client currently attached to this broker?
    pub fn is_connected(&self, client: ClientId) -> bool {
        self.connected.contains_key(&client)
    }

    /// Deliver an event to a client, applying the duplicate-suppression
    /// window first. This is the single choke point every protocol delivery
    /// routes through; with [`dedup_window`](Self::dedup_window) at 0 it
    /// degenerates to the raw [`BrokerCtx::deliver`] send. Returns `true`
    /// when the event actually went out, `false` when it was suppressed.
    pub fn deliver<P: ProtocolMessage>(
        &mut self,
        client: ClientId,
        event: Event,
        ctx: &mut BrokerCtx<'_, P>,
    ) -> bool {
        if self.dedup_window > 0 && self.note_delivery_is_duplicate(client, &event) {
            self.duplicates_suppressed += 1;
            return false;
        }
        ctx.deliver(client, event);
        true
    }

    /// Check an imminent delivery against the client's dedup state and,
    /// when it is fresh, advance the watermark and the recent-id window.
    fn note_delivery_is_duplicate(&mut self, client: ClientId, event: &Event) -> bool {
        let st = self.dedup.entry(client).or_default();
        let duplicate = st
            .watermarks
            .get(&event.publisher)
            .is_some_and(|&max| event.seq <= max)
            || st.recent.contains(&event.id);
        if !duplicate {
            st.watermarks.insert(event.publisher, event.seq);
            st.recent.push_back(event.id);
            while st.recent.len() > self.dedup_window {
                st.recent.pop_front();
            }
        }
        duplicate
    }

    /// Total modeled bytes of dedup state across clients (memory tracking).
    pub fn dedup_bytes(&self) -> u64 {
        self.dedup.values().map(DedupState::modeled_bytes).sum()
    }

    /// Record a dedup-state memory sample, keeping the high-water mark.
    pub fn note_dedup_bytes(&mut self) {
        let bytes = self.dedup_bytes();
        if bytes > self.dedup_bytes_peak {
            self.dedup_bytes_peak = bytes;
        }
    }

    /// Deliver to the client if it is attached here; returns `false`
    /// otherwise so the caller can buffer instead. Routes through
    /// [`deliver`](Self::deliver), so suppression still applies (a
    /// suppressed duplicate counts as handled — `true`).
    pub fn try_deliver<P: ProtocolMessage>(
        &mut self,
        client: ClientId,
        event: Event,
        ctx: &mut BrokerCtx<'_, P>,
    ) -> bool {
        if self.is_connected(client) {
            self.deliver(client, event, ctx);
            true
        } else {
            false
        }
    }

    /// Register a subscription arriving from `from` and propagate it over
    /// the overlay (reverse path forwarding: the subscription fans out to
    /// every tree neighbor except the one it came from, unless the covering
    /// optimisation suppresses it).
    pub fn apply_subscribe<P: ProtocolMessage>(
        &mut self,
        from: Peer,
        filter: FilterRef,
        mobility: bool,
        ctx: &mut BrokerCtx<'_, P>,
    ) {
        // Decide propagation before inserting so the new entry does not
        // count as "already covering". Mobility-triggered re-subscriptions
        // (the sub-unsub baseline) must reach *every* broker — "the system
        // ensures that the client's subscription on the new broker is made
        // known to all other brokers" — so the covering optimisation only
        // suppresses ordinary subscription propagation.
        let mut to_notify = Vec::new();
        for nb in self.neighbors() {
            if from == Peer::Broker(nb) {
                continue;
            }
            if self.covering_enabled
                && !mobility
                && self.filters.covered_by_other(&filter, Peer::Broker(nb))
            {
                // A covering subscription has already been propagated toward
                // this neighbor; no need to send another one.
                continue;
            }
            to_notify.push(nb);
        }
        let inserted = self.filters.add_ref(from, filter.clone(), None);
        if !inserted {
            // Exact duplicate from the same peer: nothing new to tell anyone.
            return;
        }
        for nb in to_notify {
            ctx.send_to_broker(
                nb,
                NetMsg::SubPropagate {
                    filter: filter.clone(),
                    mobility,
                },
            );
        }
    }

    /// Remove a subscription of `from` and propagate the unsubscription
    /// where it is no longer needed.
    pub fn apply_unsubscribe<P: ProtocolMessage>(
        &mut self,
        from: Peer,
        filter: FilterRef,
        mobility: bool,
        ctx: &mut BrokerCtx<'_, P>,
    ) {
        let removed = self.filters.remove_ref(from, &filter);
        if !removed {
            return;
        }
        // What the removed filter covered, looked up once for all neighbors.
        let mut covered: Option<Vec<&FilterEntry>> = None;
        for nb in self.neighbors() {
            if from == Peer::Broker(nb) {
                continue;
            }
            if self.filters.covered_by_other(&filter, Peer::Broker(nb)) {
                // Another neighbor or local client still needs events
                // matching this filter, so the neighbor must keep sending
                // them to us.
                continue;
            }
            if self.covering_enabled {
                // Covering re-propagation: subscriptions whose propagation
                // toward this neighbor was suppressed because the filter
                // being removed covered them must be re-announced *before*
                // the unsubscription (per-link FIFO keeps the order), or the
                // neighbor drops the route for filters still needed here.
                let mut repropagate: Vec<FilterRef> = Vec::new();
                for e in covered.get_or_insert_with(|| self.filters.covered_entries(&filter)) {
                    if e.peer != Peer::Broker(nb) && !repropagate.contains(&e.filter) {
                        repropagate.push(e.filter.clone());
                    }
                }
                for f in repropagate {
                    ctx.send_to_broker(
                        nb,
                        NetMsg::SubPropagate {
                            filter: f,
                            mobility: false,
                        },
                    );
                }
            }
            ctx.send_to_broker(
                nb,
                NetMsg::UnsubPropagate {
                    filter: filter.clone(),
                    mobility,
                },
            );
        }
    }
}

/// Collapse matched client targets into shared-subscription groups: for
/// every group (`client.0 / group_size`) with more than zero matched local
/// members, exactly one member — chosen by the event id, round-robin over
/// the sorted members — keeps the event. Broker targets (overlay hops)
/// are never collapsed: remote group members may win the event at their
/// own broker. Deterministic by construction, so runs reproduce exactly.
fn collapse_shared_groups(targets: &mut Vec<Peer>, group_size: u32, id: EventId) {
    let mut groups: BTreeMap<u32, Vec<ClientId>> = BTreeMap::new();
    targets.retain(|t| match t {
        Peer::Client(c) => {
            groups.entry(c.0 / group_size).or_default().push(*c);
            false
        }
        Peer::Broker(_) => true,
    });
    for members in groups.values_mut() {
        members.sort_unstable();
        let pick = members[(id.0 % members.len() as u64) as usize];
        targets.push(Peer::Client(pick));
    }
}

/// A broker node: protocol-agnostic core plus a mobility protocol.
pub struct Broker<P: MobilityProtocol> {
    /// Protocol-agnostic state.
    pub core: BrokerCore,
    /// Mobility-protocol state.
    pub proto: P,
}

impl<P: MobilityProtocol> Broker<P> {
    /// Build a broker from its parts.
    pub fn new(core: BrokerCore, proto: P) -> Self {
        Broker { core, proto }
    }

    /// Route an event that arrived from `from` (a client publish or an
    /// overlay forward): matching broker neighbors get a `Forward`, matching
    /// client entries are handed to the protocol.
    ///
    /// When payload modeling is on (`event.wire_size() > 0`), the wire form
    /// is materialized per [`FanoutMode`]: rendered once and `Arc`-shared
    /// across all targets (cached), or re-rendered per target (the clone
    /// baseline). Both modes transport the same `Event` values, so delivery
    /// behavior — order, timing, audit, ledger — is byte-identical; only
    /// the serialization/allocation counters differ.
    fn handle_event(&mut self, event: Event, from: Peer, ctx: &mut BrokerCtx<'_, P::Msg>) {
        if self.core.retained_enabled {
            self.core.retained.insert(event.publisher, event.clone());
        }
        let mut targets = self.core.filters.matching_targets(&event, from);
        if self.core.shared_group_size > 1 {
            collapse_shared_groups(&mut targets, self.core.shared_group_size, event.id);
        }
        if !targets.is_empty() {
            match self.core.fanout_mode {
                FanoutMode::Cached => {
                    if let Some(cached) = CachedEvent::render(&event) {
                        self.core.fanout.fanouts += 1;
                        self.core.fanout.serializations += 1;
                        self.core.fanout.bytes_serialized += cached.len() as u64;
                        self.core.fanout.fanout_allocs += 1;
                        ctx.note_fanout_allocs(1);
                        for target in &targets {
                            let shared = cached.share();
                            let dest = match target {
                                Peer::Broker(b) => ctx.book().broker_node(*b).0,
                                Peer::Client(c) => ctx.book().client_node(*c).0,
                            };
                            std::hint::black_box(shared.patch_header(dest));
                            self.core.fanout.cache_hits += 1;
                        }
                    }
                }
                FanoutMode::CloneBaseline => {
                    if event.wire_size() > 0 {
                        self.core.fanout.fanouts += 1;
                        for _ in &targets {
                            let rendered =
                                CachedEvent::render(&event).expect("wire_size checked above");
                            self.core.fanout.serializations += 1;
                            self.core.fanout.bytes_serialized += rendered.len() as u64;
                            self.core.fanout.fanout_allocs += 1;
                            ctx.note_fanout_allocs(1);
                            std::hint::black_box(rendered.bytes());
                        }
                    }
                }
            }
        }
        for target in targets {
            match target {
                Peer::Broker(b) => ctx.forward(b, event.clone()),
                Peer::Client(c) => {
                    self.proto
                        .on_client_event(&mut self.core, c, event.clone(), from, ctx)
                }
            }
        }
    }

    /// Process one message as if it arrived from `from_node`. Split out of
    /// [`Node::on_message`] so a tunneled envelope can be re-dispatched with
    /// the *original* sender once it is unwrapped at its destination.
    pub(crate) fn dispatch(
        &mut self,
        from_node: NodeId,
        msg: NetMsg<P::Msg>,
        bctx: &mut BrokerCtx<'_, P::Msg>,
    ) {
        let book = self.core.book;
        match msg {
            NetMsg::Connect(info) => {
                self.core.connected.insert(info.client, info.filter.clone());
                if info.initial {
                    // First attachment ever: a plain subscription, no handoff.
                    self.core.apply_subscribe(
                        Peer::Client(info.client),
                        info.filter.clone(),
                        false,
                        bctx,
                    );
                    // Retained replay: a late subscriber immediately gets the
                    // last matching event of every publisher this broker has
                    // routed (the MQTT retained-message pattern). Replay is
                    // initial-attach only, so mobility handoffs stay
                    // untouched.
                    if self.core.retained_enabled {
                        let replay: Vec<Event> = self
                            .core
                            .retained
                            .values()
                            .filter(|e| e.publisher != info.client && info.filter.matches(e))
                            .cloned()
                            .collect();
                        for event in replay {
                            self.core.deliver(info.client, event, bctx);
                        }
                    }
                } else {
                    self.proto.on_client_connect(&mut self.core, info, bctx);
                }
            }
            NetMsg::Disconnect {
                client,
                proclaimed_dest,
            } => {
                let filter = self
                    .core
                    .connected
                    .remove(&client)
                    .or_else(|| {
                        self.core
                            .filters
                            .filters_for(Peer::Client(client))
                            .first()
                            .map(|&f| f.clone())
                    })
                    .unwrap_or_default();
                self.proto.on_client_disconnect(
                    &mut self.core,
                    client,
                    filter,
                    proclaimed_dest,
                    bctx,
                );
            }
            NetMsg::Publish(event) => {
                // Acknowledge before routing (only when retransmission is
                // on): a re-sent publish whose original got through is
                // re-acked and its duplicate deliveries suppressed by the
                // subscribers' brokers.
                if self.core.acks_enabled {
                    bctx.ack_publish(event.publisher, event.id);
                }
                let from = Peer::Client(event.publisher);
                self.handle_event(event, from, bctx);
            }
            NetMsg::Forward(event) => {
                let from = book.node_peer(from_node);
                self.handle_event(event, from, bctx);
            }
            NetMsg::SubPropagate { filter, mobility } => {
                let from = book.node_peer(from_node);
                self.core.apply_subscribe(from, filter, mobility, bctx);
            }
            NetMsg::UnsubPropagate { filter, mobility } => {
                let from = book.node_peer(from_node);
                self.core.apply_unsubscribe(from, filter, mobility, bctx);
            }
            NetMsg::Protocol(msg) => {
                let from = if book.is_broker_node(from_node) {
                    book.node_broker(from_node)
                } else {
                    // Protocol messages only travel between brokers (and as
                    // self-timers); a client sender would be a logic error.
                    self.core.id
                };
                self.proto.on_protocol_msg(&mut self.core, from, msg, bctx);
            }
            NetMsg::Repair(msg) => {
                let from = if book.is_broker_node(from_node) {
                    book.node_broker(from_node)
                } else {
                    self.core.id
                };
                self.on_repair(from, msg, bctx);
            }
            // Messages addressed to clients or timer actions are never
            // handled by brokers.
            NetMsg::Deliver(_) | NetMsg::PublishAck { .. } | NetMsg::Action(_) => {}
        }
    }
}

impl<P: MobilityProtocol> Node<NetMsg<P::Msg>> for Broker<P> {
    fn on_message(&mut self, env: Envelope<NetMsg<P::Msg>>, ctx: &mut Context<NetMsg<P::Msg>>) {
        let mut bctx = BrokerCtx::for_broker(
            ctx,
            self.core.book,
            self.core.id,
            self.core.repair.tunnels.clone(),
        );
        self.dispatch(env.from, env.msg, &mut bctx);
        if self.core.track_mem {
            let buffered = self.proto.buffered_bytes();
            self.core.note_buffered_bytes(buffered);
            if self.core.dedup_window > 0 {
                self.core.note_dedup_bytes();
            }
        }
    }
}

/// Install a client's subscription across an already-built broker slice
/// without exchanging any messages. Used by the evaluation harness to set up
/// the initial state of Section 5.1 ("In the initial state, each broker
/// serves 10 clients") without paying a warm-up phase, and by tests.
///
/// `subscription_root` is the broker the subscription is rooted at (the
/// client's attachment broker, or its home broker for the home-broker
/// baseline). When `attach` is true the client is also marked as connected
/// there. Every broker's entry holds the same `filter` record.
pub fn install_subscription<P: MobilityProtocol>(
    brokers: &mut [Broker<P>],
    network: &Network,
    client: ClientId,
    filter: &FilterRef,
    subscription_root: BrokerId,
    attach: bool,
) {
    for broker in brokers.iter_mut() {
        let here = broker.core.id;
        let peer = if here == subscription_root {
            if attach {
                broker.core.connected.insert(client, filter.clone());
            }
            Peer::Client(client)
        } else {
            Peer::Broker(BrokerId(
                network.next_hop(here.index(), subscription_root.index()) as u32,
            ))
        };
        broker.core.filters.add_ref(peer, filter.clone(), None);
    }
}

/// A "no mobility support" protocol: reconnecting clients simply issue a new
/// subscription at the new broker and events for absent clients are dropped.
/// Used to test the static substrate and as the simplest possible example of
/// the [`MobilityProtocol`] trait.
#[derive(Debug, Default, Clone)]
pub struct NoProtocol;

impl MobilityProtocol for NoProtocol {
    type Msg = crate::messages::NoProtocolMsg;

    fn name(&self) -> &'static str {
        "static"
    }

    fn on_client_connect(
        &mut self,
        core: &mut BrokerCore,
        info: ConnectInfo,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        // Behave exactly like an initial connect: subscribe here, leave any
        // stale state elsewhere alone (that is precisely why a real mobility
        // protocol is needed).
        core.apply_subscribe(Peer::Client(info.client), info.filter, false, ctx);
    }

    fn on_client_disconnect(
        &mut self,
        _core: &mut BrokerCore,
        _client: ClientId,
        _filter: FilterRef,
        _proclaimed_dest: Option<BrokerId>,
        _ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
    }

    fn on_protocol_msg(
        &mut self,
        _core: &mut BrokerCore,
        _from: BrokerId,
        msg: Self::Msg,
        _ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        match msg {}
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: Event,
        _from: Peer,
        ctx: &mut BrokerCtx<'_, Self::Msg>,
    ) {
        // Deliver if attached, silently drop otherwise.
        let _ = core.try_deliver(client, event, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientNode;
    use crate::filter::{Filter, Op};
    use crate::messages::ClientAction;
    use mhh_simnet::{Engine, GridFabric, TrafficClass};

    type M = NetMsg<crate::messages::NoProtocolMsg>;

    /// A node that is either a broker or a client, so one engine can hold
    /// both. The mobsim crate has its own richer version; this one is for
    /// substrate tests.
    #[allow(clippy::large_enum_variant)]
    enum TestNode {
        Broker(Broker<NoProtocol>),
        Client(ClientNode),
    }

    impl Node<M> for TestNode {
        fn on_message(&mut self, env: Envelope<M>, ctx: &mut Context<M>) {
            match self {
                TestNode::Broker(b) => b.on_message(env, ctx),
                TestNode::Client(c) => c.on_message(env, ctx),
            }
        }
    }

    /// Build a 3×3 broker grid with `clients` clients, all subscribed to
    /// `group == 1`, attached round-robin.
    fn build(clients: usize) -> (Engine<M, TestNode>, AddressBook, Arc<Network>) {
        let network = Arc::new(Network::grid(3, 7));
        let book = AddressBook::new(9, clients);
        let fabric = Arc::new(GridFabric::paper_defaults(network.clone()));
        let filter = FilterRef::new(Filter::single("group", Op::Eq, 1i64));

        let mut brokers: Vec<Broker<NoProtocol>> = book
            .brokers()
            .map(|b| Broker::new(BrokerCore::new(b, book, network.clone(), true), NoProtocol))
            .collect();
        let mut client_nodes = Vec::new();
        for c in book.clients() {
            let home = BrokerId((c.0 as usize % 9) as u32);
            install_subscription(&mut brokers, &network, c, &filter, home, true);
            let mut node = ClientNode::new(c, book, filter.clone(), home);
            node.current_broker = Some(home);
            client_nodes.push(node);
        }
        let mut nodes: Vec<TestNode> = brokers.into_iter().map(TestNode::Broker).collect();
        nodes.extend(client_nodes.into_iter().map(TestNode::Client));
        (Engine::new(nodes, fabric), book, network)
    }

    fn publish_action(book: &AddressBook, publisher: ClientId, id: u64, group: i64) -> M {
        let _ = book;
        let event = crate::event::EventBuilder::new()
            .attr("group", group)
            .build(id, publisher, id);
        NetMsg::Action(ClientAction::Publish(event))
    }

    #[test]
    fn published_event_reaches_all_matching_subscribers() {
        let (mut eng, book, _net) = build(6);
        // Client 0 publishes a matching event; clients 1..6 must receive it,
        // client 0 itself must not.
        eng.schedule_external(
            SimTime::from_millis(1),
            book.client_node(ClientId(0)),
            publish_action(&book, ClientId(0), 100, 1),
        );
        eng.run_to_completion();
        for c in 1..6u32 {
            let node = eng.node(book.client_node(ClientId(c)));
            match node {
                TestNode::Client(cl) => {
                    assert_eq!(cl.received.len(), 1, "client {c} should get the event");
                }
                _ => unreachable!(),
            }
        }
        match eng.node(book.client_node(ClientId(0))) {
            TestNode::Client(cl) => {
                assert!(cl.received.is_empty(), "publisher must not self-receive")
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn non_matching_event_is_not_delivered() {
        let (mut eng, book, _net) = build(4);
        eng.schedule_external(
            SimTime::from_millis(1),
            book.client_node(ClientId(0)),
            publish_action(&book, ClientId(0), 101, 99),
        );
        eng.run_to_completion();
        for c in 1..4u32 {
            match eng.node(book.client_node(ClientId(c))) {
                TestNode::Client(cl) => assert!(cl.received.is_empty()),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn event_routing_uses_overlay_tree_only() {
        let (mut eng, book, net) = build(9 * 2);
        eng.schedule_external(
            SimTime::from_millis(1),
            book.client_node(ClientId(0)),
            publish_action(&book, ClientId(0), 7, 1),
        );
        eng.run_to_completion();
        // Every Forward hop is a single tree edge (1 grid hop because the MST
        // uses grid edges), so hops == messages for the forward class.
        let stats = eng.stats();
        let fwd = stats.kind("forward");
        assert!(fwd.messages > 0);
        assert_eq!(fwd.messages, fwd.hops, "tree edges are single grid hops");
        // The tree has broker_count-1 edges; a broadcast traverses each at
        // most once.
        assert!(fwd.messages <= (net.broker_count() - 1) as u64);
        assert_eq!(stats.class(TrafficClass::MobilityControl).messages, 0);
    }

    #[test]
    fn subscription_install_points_toward_root() {
        let network = Arc::new(Network::grid(3, 7));
        let book = AddressBook::new(9, 1);
        let filter = FilterRef::new(Filter::single("group", Op::Eq, 2i64));
        let mut brokers: Vec<Broker<NoProtocol>> = book
            .brokers()
            .map(|b| Broker::new(BrokerCore::new(b, book, network.clone(), true), NoProtocol))
            .collect();
        install_subscription(
            &mut brokers,
            &network,
            ClientId(0),
            &filter,
            BrokerId(4),
            true,
        );
        // The root broker has a client entry.
        assert!(brokers[4]
            .core
            .filters
            .contains(Peer::Client(ClientId(0)), &filter));
        assert!(brokers[4].core.is_connected(ClientId(0)));
        // Every other broker has exactly one entry pointing at its next hop
        // toward broker 4.
        for b in book.brokers().filter(|b| *b != BrokerId(4)) {
            let next = BrokerId(network.next_hop(b.index(), 4) as u32);
            assert!(brokers[b.index()]
                .core
                .filters
                .contains(Peer::Broker(next), &filter));
        }
    }

    #[test]
    fn live_subscribe_via_messages_matches_static_install() {
        // A client that connects "for real" (initial Connect message) must
        // end up routable from everywhere: a publish from any other broker
        // reaches it.
        let network = Arc::new(Network::grid(3, 11));
        let book = AddressBook::new(9, 2);
        let fabric = Arc::new(GridFabric::paper_defaults(network.clone()));
        let filter = Filter::single("group", Op::Eq, 5i64);
        let brokers: Vec<Broker<NoProtocol>> = book
            .brokers()
            .map(|b| Broker::new(BrokerCore::new(b, book, network.clone(), true), NoProtocol))
            .collect();
        let mut c0 = ClientNode::new(ClientId(0), book, filter.clone(), BrokerId(0));
        let c1 = ClientNode::new(ClientId(1), book, filter.clone(), BrokerId(8));
        c0.current_broker = None;
        let mut nodes: Vec<TestNode> = brokers.into_iter().map(TestNode::Broker).collect();
        nodes.push(TestNode::Client(c0));
        nodes.push(TestNode::Client(c1));
        let mut eng = Engine::new(nodes, fabric);
        // Client 0 attaches at broker 0 at t=0 (initial connect).
        eng.schedule_external(
            SimTime::ZERO,
            book.client_node(ClientId(0)),
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(0),
            }),
        );
        // Client 1 (attached statically? no - it must attach too).
        eng.schedule_external(
            SimTime::ZERO,
            book.client_node(ClientId(1)),
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(8),
            }),
        );
        // Give the subscription time to propagate, then publish from client 1.
        let event =
            crate::event::EventBuilder::new()
                .attr("group", 5i64)
                .build(900, ClientId(1), 0);
        eng.schedule_external(
            SimTime::from_secs(5),
            book.client_node(ClientId(1)),
            NetMsg::Action(ClientAction::Publish(event)),
        );
        eng.run_to_completion();
        match eng.node(book.client_node(ClientId(0))) {
            TestNode::Client(c) => assert_eq!(c.received.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn covering_suppresses_duplicate_propagation() {
        // Two clients at the same broker with identical filters: the second
        // subscription must not generate another propagation wave.
        let network = Arc::new(Network::grid(3, 1));
        let book = AddressBook::new(9, 2);
        let fabric = Arc::new(GridFabric::paper_defaults(network.clone()));
        let filter = Filter::single("group", Op::Eq, 1i64);
        let brokers: Vec<Broker<NoProtocol>> = book
            .brokers()
            .map(|b| Broker::new(BrokerCore::new(b, book, network.clone(), true), NoProtocol))
            .collect();
        let c0 = ClientNode::new(ClientId(0), book, filter.clone(), BrokerId(0));
        let c1 = ClientNode::new(ClientId(1), book, filter.clone(), BrokerId(0));
        let mut nodes: Vec<TestNode> = brokers.into_iter().map(TestNode::Broker).collect();
        nodes.push(TestNode::Client(c0));
        nodes.push(TestNode::Client(c1));
        let mut eng = Engine::new(nodes, fabric);
        eng.schedule_external(
            SimTime::ZERO,
            book.client_node(ClientId(0)),
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(0),
            }),
        );
        eng.run_to_completion();
        let first_wave = eng.stats().kind("sub_propagate").messages;
        assert_eq!(first_wave, 8, "first subscription floods the 9-broker tree");
        eng.schedule_external(
            eng.now(),
            book.client_node(ClientId(1)),
            NetMsg::Action(ClientAction::Reconnect {
                broker: BrokerId(0),
            }),
        );
        eng.run_to_completion();
        let second_wave = eng.stats().kind("sub_propagate").messages;
        assert_eq!(
            second_wave, first_wave,
            "identical covered subscription must not propagate again"
        );
    }
}
