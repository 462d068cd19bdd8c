//! Overlay repair: routing around crashed brokers and partitioned links,
//! and restoring broker state from a checkpoint after a restart.
//!
//! The repair layer keeps the paper's acyclic-overlay routing usable while a
//! [`FaultSchedule`] is active:
//!
//! * **sticky-path crash repair** — routes through a broker are kept until
//!   that broker actually dies. When it does, each surviving tree neighbor
//!   drops its routes through the dead broker and *announces* the filters it
//!   still needs toward a deterministic **detour hub** (the dead broker's
//!   lowest-id surviving neighbor), which installs temporary **detour**
//!   entries pointing at the announcer and relays the announcement to the
//!   other neighbors, which route via the hub. The detour overlay is thus a
//!   star centred on the hub — a tree — so reverse-path-forwarding's
//!   from-exclusion keeps detoured events loop-free whatever the dead
//!   broker's tree degree. Every broker-peer entry points at a tree
//!   neighbour except a detour, which is two tree hops away, so the tree
//!   alone names the detours: `PeerUp` drops those around the restarted
//!   broker and both sides resync, and a restart or replica restore drops
//!   all of them.
//! * **partition tunneling** — a severed broker↔broker channel (both ends
//!   alive) is bridged by wrapping every envelope for the unreachable peer in
//!   a [`RepairMsg::Tunnel`] through a relay broker; the destination unwraps
//!   it and processes the inner message exactly as if it had arrived
//!   directly, so routing semantics (RPF exclusions, protocol handshakes)
//!   are unchanged.
//! * **checkpoint/restore** — a restarting broker reloads its durable state
//!   ([`BrokerCheckpoint`]: the filter table's live entries + connected set)
//!   and hands control to the mobility protocol's
//!   [`on_restart`](crate::broker::MobilityProtocol::on_restart) hook; timers
//!   and in-flight messages are lost (the engine dropped them), which is
//!   precisely what the hook must recover from. A checkpoint holds the set
//!   {(nb, f)} of Section 3 and nothing derived from it: the table's indexes
//!   are rebuilt on restore by inserting the entries in table order, and
//!   matching and the covering queries answer by *relative* entry position
//!   (see `Output order` in [`crate::filter_table`]), so the rebuilt table
//!   answers exactly as the one the checkpoint was taken from. Taking one
//!   copies a vector of (peer, shared filter record, label) triples — never
//!   a filter — and prices its modeled size once, for the replication
//!   message and the memory high-water mark alike.
//!
//! Failure *detection* is driven deterministically: [`repair_drives`]
//! translates a fault schedule into the timeout envelopes a real failure
//! detector would produce (`PeerDown` after a detection delay, `Restarted` /
//! `PeerUp` at the heal instant), so the whole repair sequence is a pure
//! function of the schedule and the seed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mhh_simnet::{FaultSchedule, Network, NodeId, OutageScope, SimDuration, SimTime};

use crate::address::{AddressBook, BrokerId, ClientId, Peer};
use crate::broker::{Broker, BrokerCore, BrokerCtx, MobilityProtocol};
use crate::filter_table::{FilterEntry, FilterRef};
use crate::messages::{NetMsg, ProtocolMessage, RepairMsg};

/// Per-broker repair bookkeeping, embedded in [`BrokerCore`].
#[derive(Debug, Clone, Default)]
pub struct RepairState {
    /// Tree neighbors currently believed crashed.
    pub dead: BTreeSet<BrokerId>,
    /// Partitioned peers and the relay to tunnel through:
    /// `unreachable → relay`. Shared with every [`BrokerCtx`] so all
    /// broker→broker sends are transparently tunneled.
    pub tunnels: Arc<BTreeMap<BrokerId, BrokerId>>,
    /// Checkpoint replicas this broker holds *for* its neighbors
    /// (`owner → last pushed snapshot`). Soft state: wiped when the holder
    /// itself restarts, which is exactly the double-failure a real replica
    /// store would lose.
    pub replicas: BTreeMap<BrokerId, BrokerCheckpoint>,
}

/// The durable state a broker reloads after a restart (the "synchronous
/// checkpointing" model: the filter table and client attachments survive,
/// soft protocol state, timers and in-flight messages do not).
///
/// The table is held as its live entries in table order — peer, shared
/// [`FilterRef`], accept-only-from label — not as a
/// [`FilterTable`](crate::filter_table::FilterTable): the
/// indexes beside the entries are derived state, rebuilt by
/// [`BrokerCore::restore`] through the table's one insertion path. The
/// modeled size is worked out once, when the checkpoint is taken.
#[derive(Debug, Clone, Default)]
pub struct BrokerCheckpoint {
    /// The filter table's live entries at checkpoint time, in table order.
    entries: Vec<FilterEntry>,
    /// Locally connected clients and their filters.
    connected: BTreeMap<ClientId, FilterRef>,
    /// [`modeled_bytes`](Self::modeled_bytes), computed when taken.
    bytes: u64,
}

impl BrokerCheckpoint {
    /// Modeled on-disk size of the checkpoint (see
    /// [`BrokerCore::durable_bytes`]). Pure accounting — restores never pay
    /// a size-dependent latency.
    pub fn modeled_bytes(&self) -> u64 {
        self.bytes
    }
}

impl BrokerCore {
    /// Modeled on-disk size of this broker's durable state: a 4-byte peer
    /// id plus the filter's
    /// [`modeled_bytes`](crate::filter::Filter::modeled_bytes) per
    /// filter-table entry, and the same per connected client.
    pub fn durable_bytes(&self) -> u64 {
        let table: u64 = self
            .filters
            .entries()
            .map(|e| 4 + e.filter.modeled_bytes())
            .sum();
        let connected: u64 = self.connected.values().map(|f| 4 + f.modeled_bytes()).sum();
        table + connected
    }

    /// Snapshot this broker's durable state: one vector of the table's
    /// live entries (each a peer, a shared record and a label, so no filter
    /// is copied) and the attachment set.
    pub fn checkpoint(&self) -> BrokerCheckpoint {
        let mut entries = Vec::with_capacity(self.filters.len());
        entries.extend(self.filters.entries().cloned());
        BrokerCheckpoint {
            entries,
            connected: self.connected.clone(),
            bytes: self.durable_bytes(),
        }
    }

    /// Reload durable state from a checkpoint, less its detours (repair
    /// bookkeeping and protocol soft state are the caller's to reset). The
    /// table is rebuilt by inserting the entries in their order.
    pub fn restore(&mut self, checkpoint: BrokerCheckpoint) {
        self.filters = checkpoint.entries.into_iter().collect();
        self.connected = checkpoint.connected;
        self.drop_detours(None);
    }

    /// Drop the detours around the dead neighbour `around` (with `None`,
    /// every detour): the entries whose broker peer is another neighbour of
    /// a dead neighbour, so not a tree neighbour but two hops away through it.
    pub(crate) fn drop_detours(&mut self, around: Option<BrokerId>) {
        let detours: BTreeSet<Peer> = self
            .filters
            .entries()
            .filter_map(|e| match e.peer {
                Peer::Broker(b) => {
                    let hop = self.next_hop_to(b);
                    (hop != b && around.is_none_or(|d| hop == d)).then_some(e.peer)
                }
                Peer::Client(_) => None,
            })
            .collect();
        for peer in detours {
            self.filters.clear_peer(peer);
        }
    }

    /// Overlay-tree neighbors of an arbitrary broker.
    pub fn tree_neighbors_of(&self, broker: BrokerId) -> Vec<BrokerId> {
        self.network
            .tree
            .neighbors(broker.index())
            .iter()
            .map(|&n| BrokerId(n as u32))
            .collect()
    }

    /// Every distinct filter this broker still has at least one entry for —
    /// the set of filters it must keep receiving matching events for.
    pub fn needed_filters(&self) -> Vec<FilterRef> {
        self.filters.distinct_filters()
    }

    /// The deterministic detour hub for a dead broker: its lowest-id tree
    /// neighbor this broker still believes alive. All detour announces flow
    /// through the hub, which re-announces them to the dead broker's other
    /// neighbors — the detour overlay is a *star* centred on the hub. A star
    /// is a tree, so reverse-path forwarding's from-exclusion keeps detoured
    /// events loop-free whatever the dead broker's tree degree (an all-to-all
    /// detour mesh is a clique, and from-exclusion only breaks 2-cycles:
    /// three or more neighbors would circulate events forever).
    pub fn detour_hub(&self, dead: BrokerId) -> Option<BrokerId> {
        self.tree_neighbors_of(dead)
            .into_iter()
            .filter(|nb| !self.repair.dead.contains(nb))
            .min()
    }

    /// The deterministic neighbor holding this broker's checkpoint replica:
    /// its lowest-id overlay-tree neighbor. `None` for a broker with no
    /// tree neighbors (single-broker deployments), which disables
    /// replication for it.
    pub fn replica_holder(&self) -> Option<BrokerId> {
        self.neighbors().into_iter().min()
    }

    /// A tree neighbor crashed: drop every route through it and announce the
    /// filters still needed here toward the detour hub, which installs detour
    /// entries pointing back at this broker (and, as hub, relays the
    /// announcement to the dead broker's other neighbors).
    pub fn repair_peer_down<P: ProtocolMessage>(
        &mut self,
        dead: BrokerId,
        ctx: &mut BrokerCtx<'_, P>,
    ) {
        if !self.repair.dead.insert(dead) {
            return;
        }
        self.filters.clear_peer(Peer::Broker(dead));
        let needed = self.needed_filters();
        if needed.is_empty() {
            return;
        }
        let Some(hub) = self.detour_hub(dead) else {
            return;
        };
        if hub == self.id {
            for nb in self.tree_neighbors_of(dead) {
                if nb == self.id || self.repair.dead.contains(&nb) {
                    continue;
                }
                ctx.send_to_broker(
                    nb,
                    NetMsg::Repair(RepairMsg::Announce {
                        dead: Some(dead),
                        filters: needed.clone(),
                    }),
                );
            }
        } else {
            ctx.send_to_broker(
                hub,
                NetMsg::Repair(RepairMsg::Announce {
                    dead: Some(dead),
                    filters: needed,
                }),
            );
        }
    }

    /// A filter announcement arrived from `from`. Detour announces
    /// (`dead: Some`) install direct entries reverted at `PeerUp` — and when
    /// this broker is the detour hub, the freshly installed filters are
    /// relayed to the dead broker's other surviving neighbors so they route
    /// via the hub (keeping the detour overlay a star, see
    /// [`detour_hub`](Self::detour_hub)). Resync announces (`dead: None`)
    /// are applied as ordinary mobility subscriptions so genuinely new
    /// filters re-propagate past this broker (subscriptions that arose while
    /// a neighbor was down never crossed it).
    pub fn repair_announce<P: ProtocolMessage>(
        &mut self,
        from: BrokerId,
        dead: Option<BrokerId>,
        filters: Vec<FilterRef>,
        ctx: &mut BrokerCtx<'_, P>,
    ) {
        match dead {
            Some(d) => {
                // A detour announce for a broker no longer believed dead is
                // late (the outage healed while the announce was in flight):
                // installing it now would leave a stale entry no `PeerUp`
                // will ever revert, and stale detours alongside healed tree
                // routes form routing cycles.
                if !self.repair.dead.contains(&d) {
                    return;
                }
                let mut fresh = Vec::new();
                for f in filters {
                    if self.filters.add_ref(Peer::Broker(from), f.clone(), None) {
                        fresh.push(f);
                    }
                }
                if !fresh.is_empty() && self.detour_hub(d) == Some(self.id) {
                    for nb in self.tree_neighbors_of(d) {
                        if nb == self.id || nb == from || self.repair.dead.contains(&nb) {
                            continue;
                        }
                        ctx.send_to_broker(
                            nb,
                            NetMsg::Repair(RepairMsg::Announce {
                                dead: Some(d),
                                filters: fresh.clone(),
                            }),
                        );
                    }
                }
            }
            None => {
                for f in filters {
                    self.apply_subscribe(Peer::Broker(from), f, true, ctx);
                }
            }
        }
    }

    /// A crashed tree neighbor restarted: revert the detours that were
    /// routing around it and resync it with the filters still needed here.
    pub fn repair_peer_up<P: ProtocolMessage>(
        &mut self,
        peer: BrokerId,
        ctx: &mut BrokerCtx<'_, P>,
    ) {
        if !self.repair.dead.remove(&peer) {
            return;
        }
        self.drop_detours(Some(peer));
        let needed = self.needed_filters();
        if !needed.is_empty() {
            ctx.send_to_broker(
                peer,
                NetMsg::Repair(RepairMsg::Announce {
                    dead: None,
                    filters: needed,
                }),
            );
        }
    }

    /// Start (or update) tunneling for a partitioned peer.
    pub fn repair_link_down(&mut self, peer: BrokerId, relay: BrokerId) {
        Arc::make_mut(&mut self.repair.tunnels).insert(peer, relay);
    }

    /// The partition toward `peer` healed: stop tunneling.
    pub fn repair_link_up(&mut self, peer: BrokerId) {
        Arc::make_mut(&mut self.repair.tunnels).remove(&peer);
    }
}

impl<P: MobilityProtocol> Broker<P> {
    /// Handle a repair message. `from` is the sending broker (or this
    /// broker's own id for driver-injected notifications).
    pub(crate) fn on_repair(
        &mut self,
        from: BrokerId,
        msg: RepairMsg<P::Msg>,
        ctx: &mut BrokerCtx<'_, P::Msg>,
    ) {
        match msg {
            RepairMsg::PeerDown { peer } => self.core.repair_peer_down(peer, ctx),
            RepairMsg::PeerUp { peer } => self.core.repair_peer_up(peer, ctx),
            RepairMsg::LinkDown { peer, relay } => self.core.repair_link_down(peer, relay),
            RepairMsg::LinkUp { peer } => self.core.repair_link_up(peer),
            RepairMsg::Announce { dead, filters } => {
                self.core.repair_announce(from, dead, filters, ctx)
            }
            RepairMsg::Restarted => {
                // A restart wipes the repair bookkeeping (and the replicas
                // held for others) but not the detours in the durable table,
                // whose `PeerUp` this broker may have missed. A detour (an
                // entry whose broker peer is not a tree neighbour) beside
                // resynced tree routes is a routing cycle: drop them all
                // before asking for the replica, whose response may be lost.
                self.core.repair = RepairState::default();
                self.core.drop_detours(None);
                let holder = (self.core.replication_period > SimDuration::ZERO)
                    .then(|| self.core.replica_holder())
                    .flatten();
                if let Some(holder) = holder {
                    // Neighbour-replicated restart: defer the restore until
                    // the holder's (stale) replica arrives, stashing the
                    // pre-crash attachment set to price the staleness.
                    // Timers died with the crash, so re-arm the replication
                    // tick here.
                    self.core.pending_restore = Some(self.core.connected.clone());
                    ctx.send_to_broker(
                        holder,
                        NetMsg::Repair(RepairMsg::ReplicaRequest {
                            owner: self.core.id,
                        }),
                    );
                    self.rearm_replication(ctx);
                } else {
                    // Synchronous checkpointing: the live table and
                    // attachments are the checkpoint; only its size is noted.
                    if self.core.track_mem {
                        let bytes = self.core.durable_bytes();
                        self.core.note_checkpoint_bytes(bytes);
                    }
                    self.finish_restart(ctx);
                }
            }
            RepairMsg::ReplicateTick => {
                if self.core.replication_period > SimDuration::ZERO {
                    if let Some(holder) = self.core.replica_holder() {
                        let checkpoint = self.core.checkpoint();
                        if self.core.track_mem {
                            let bytes = checkpoint.modeled_bytes();
                            self.core.note_checkpoint_bytes(bytes);
                        }
                        ctx.send_to_broker(
                            holder,
                            NetMsg::Repair(RepairMsg::Replicate {
                                owner: self.core.id,
                                checkpoint: Box::new(checkpoint),
                            }),
                        );
                    }
                    self.rearm_replication(ctx);
                }
            }
            RepairMsg::Replicate { owner, checkpoint } => {
                self.core.repair.replicas.insert(owner, *checkpoint);
            }
            RepairMsg::ReplicaRequest { owner } => {
                let replica = self.core.repair.replicas.get(&owner).cloned().map(Box::new);
                ctx.send_to_broker(
                    owner,
                    NetMsg::Repair(RepairMsg::ReplicaResponse { owner, replica }),
                );
            }
            RepairMsg::ReplicaResponse { owner: _, replica } => {
                self.finish_replica_restore(replica.map(|b| *b), ctx);
            }
            RepairMsg::Tunnel { src, dst, inner } => {
                if dst == self.core.id {
                    // Final hop: process the inner message exactly as if it
                    // had arrived directly from the original sender.
                    self.dispatch(ctx.book().broker_node(src), *inner, ctx);
                } else {
                    // Relay hop: pass the tunnel through unchanged.
                    ctx.send_to_broker(dst, NetMsg::Repair(RepairMsg::Tunnel { src, dst, inner }));
                }
            }
        }
    }

    /// Schedule the next [`RepairMsg::ReplicateTick`] — unless it would
    /// land past the replication horizon. The bound is what lets a run
    /// drain to quiescence after the workload ends: an unconditional
    /// re-arm would keep the event queue non-empty forever.
    fn rearm_replication(&mut self, ctx: &mut BrokerCtx<'_, P::Msg>) {
        let period = self.core.replication_period;
        if period > SimDuration::ZERO && ctx.now() + period <= self.core.replication_until {
            ctx.schedule_repair(period, RepairMsg::ReplicateTick);
        }
    }

    /// The replica holder's response arrived: restore from the stale
    /// snapshot (or restart cold when none survived), re-subscribe clients
    /// the replica predates, and run the common post-restart recovery.
    fn finish_replica_restore(
        &mut self,
        replica: Option<BrokerCheckpoint>,
        ctx: &mut BrokerCtx<'_, P::Msg>,
    ) {
        let pre_crash = self.core.pending_restore.take().unwrap_or_default();
        // No replica survived (the holder restarted too, or the crash beat
        // the first tick): cold restart from an empty checkpoint. Broker-peer
        // routes are rebuilt by the neighbors' resync announces.
        let checkpoint = replica.unwrap_or_default();
        if self.core.track_mem {
            let bytes = checkpoint.modeled_bytes();
            self.core.note_checkpoint_bytes(bytes);
        }
        self.core.restore(checkpoint);
        // Staleness cost: clients attached before the crash but absent from
        // the replica (they arrived after the last tick) re-subscribe from
        // scratch — real subscription-propagation traffic, attributed in
        // the recovery ledger.
        for (client, filter) in pre_crash {
            if !self.core.connected.contains_key(&client) {
                self.core.stale_resubscribes += 1;
                self.core.connected.insert(client, filter.clone());
                self.core
                    .apply_subscribe(Peer::Client(client), filter, true, ctx);
            }
        }
        self.finish_restart(ctx);
    }

    /// Common tail of both restart flavors: give the mobility protocol its
    /// recovery hook, then resync filters with the overlay neighbors.
    fn finish_restart(&mut self, ctx: &mut BrokerCtx<'_, P::Msg>) {
        self.proto.on_restart(&mut self.core, ctx);
        let needed = self.core.needed_filters();
        if !needed.is_empty() {
            for nb in self.core.neighbors() {
                ctx.send_to_broker(
                    nb,
                    NetMsg::Repair(RepairMsg::Announce {
                        dead: None,
                        filters: needed.clone(),
                    }),
                );
            }
        }
    }
}

/// Translate a fault schedule into the deterministic "timeout envelope"
/// stream that drives the repair layer: for every window, failure
/// notifications `detection_delay` after the outage starts and heal
/// notifications at the instant it ends.
///
/// * **crash** (broker [`OutageScope::Node`]): `PeerDown` to each tree
///   neighbor once detected, then `Restarted` to the broker itself and
///   `PeerUp` to the neighbors at the restart instant;
/// * **region**: as crash for every broker in the region, with notifications
///   only to tree neighbors *outside* the region (brokers inside are down
///   and would drop them anyway);
/// * **partition** ([`OutageScope::Link`]): `LinkDown` with a deterministic
///   relay (the lowest-id broker that is neither endpoint) to both ends,
///   `LinkUp` at the heal instant.
///
/// Windows too short to detect (`start + detection_delay >= end`) produce no
/// down-phase notifications; crashes still get the `Restarted` kick so the
/// mobility protocol can recover lost timers.
pub fn repair_drives<P>(
    schedule: &FaultSchedule,
    network: &Network,
    book: &AddressBook,
    detection_delay: SimDuration,
) -> Vec<(SimTime, NodeId, NetMsg<P>)> {
    let broker_count = network.broker_count();
    let as_broker = |n: NodeId| (n.index() < broker_count).then_some(BrokerId(n.0));
    let mut out: Vec<(SimTime, NodeId, NetMsg<P>)> = Vec::new();

    for window in schedule.windows() {
        let detect = window.start + detection_delay;
        let detected = detect < window.end;
        match &window.scope {
            OutageScope::Node(n) => {
                let Some(b) = as_broker(*n) else { continue };
                broker_outage_drives(
                    &mut out,
                    network,
                    book,
                    b,
                    detect,
                    detected,
                    window.end,
                    &[],
                );
            }
            OutageScope::Region(nodes) => {
                let down: Vec<BrokerId> = nodes.iter().filter_map(|&n| as_broker(n)).collect();
                for &b in &down {
                    broker_outage_drives(
                        &mut out, network, book, b, detect, detected, window.end, &down,
                    );
                }
            }
            OutageScope::Link(x, y) => {
                let (Some(a), Some(b)) = (as_broker(*x), as_broker(*y)) else {
                    continue;
                };
                // Deterministic relay: the lowest-id broker that is neither
                // endpoint (partitions only sever the direct a↔b channel).
                let Some(relay) = (0..broker_count)
                    .map(|i| BrokerId(i as u32))
                    .find(|&r| r != a && r != b)
                else {
                    continue;
                };
                if detected {
                    for (me, peer) in [(a, b), (b, a)] {
                        out.push((
                            detect,
                            book.broker_node(me),
                            NetMsg::Repair(RepairMsg::LinkDown { peer, relay }),
                        ));
                    }
                    for (me, peer) in [(a, b), (b, a)] {
                        out.push((
                            window.end,
                            book.broker_node(me),
                            NetMsg::Repair(RepairMsg::LinkUp { peer }),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Drive messages for one crashed broker: `PeerDown`/`PeerUp` to its tree
/// neighbors outside `also_down`, plus the `Restarted` kick to itself.
#[allow(clippy::too_many_arguments)]
fn broker_outage_drives<P>(
    out: &mut Vec<(SimTime, NodeId, NetMsg<P>)>,
    network: &Network,
    book: &AddressBook,
    broker: BrokerId,
    detect: SimTime,
    detected: bool,
    end: SimTime,
    also_down: &[BrokerId],
) {
    let neighbors: Vec<BrokerId> = network
        .tree
        .neighbors(broker.index())
        .iter()
        .map(|&n| BrokerId(n as u32))
        .filter(|nb| !also_down.contains(nb))
        .collect();
    if detected {
        for &nb in &neighbors {
            out.push((
                detect,
                book.broker_node(nb),
                NetMsg::Repair(RepairMsg::PeerDown { peer: broker }),
            ));
        }
    }
    out.push((
        end,
        book.broker_node(broker),
        NetMsg::Repair(RepairMsg::Restarted),
    ));
    if detected {
        for &nb in &neighbors {
            out.push((
                end,
                book.broker_node(nb),
                NetMsg::Repair(RepairMsg::PeerUp { peer: broker }),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::NoProtocol;
    use crate::deployment::{ClientSpec, Deployment, DeploymentConfig};
    use crate::event::{Event, EventBuilder};
    use crate::filter::{Filter, Op};
    use mhh_simnet::{EngineConfig, RunOutcome, SimTime};

    fn filter(group: i64) -> Filter {
        Filter::single("group", Op::Eq, group)
    }

    /// A subscriber at one tree neighbor of the dead broker, a publisher at
    /// another: during the outage the event must detour around the dead
    /// broker, and after the restart the resync must restore the tree route.
    #[test]
    fn crash_detour_routes_around_dead_broker_and_heals() {
        let config = DeploymentConfig::default();
        let network = Arc::new(mhh_simnet::TopologyKind::Grid.build(config.grid_side, config.seed));
        // A broker with at least two overlay-tree neighbors sits on the
        // unique tree path between those neighbors.
        let dead = (0..network.broker_count())
            .find(|&b| network.tree.neighbors(b).len() >= 2)
            .expect("a 3x3 MST has interior nodes");
        let nbs = network.tree.neighbors(dead);
        let (sub_home, pub_home) = (BrokerId(nbs[0] as u32), BrokerId(nbs[1] as u32));
        let clients = vec![
            ClientSpec {
                filter: filter(1),
                home: sub_home,
                mobile: false,
                initially_attached: true,
            },
            ClientSpec {
                filter: filter(99),
                home: pub_home,
                mobile: false,
                initially_attached: true,
            },
        ];
        let schedule = FaultSchedule::new().crash(
            NodeId(dead as u32),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );

        let run = |repair: bool| {
            let mut dep: Deployment<NoProtocol> =
                Deployment::build_on(network.clone(), &config, &clients, |_| NoProtocol);
            dep.engine = dep.engine.with_config(EngineConfig {
                max_deliveries: 1 << 20,
            });
            dep.engine.set_faults(Arc::new(schedule.clone()));
            if repair {
                let drives = repair_drives(
                    &schedule,
                    &network,
                    &dep.book,
                    SimDuration::from_millis(500),
                );
                for (at, node, msg) in drives {
                    dep.engine.schedule_external(at, node, msg);
                }
            }
            // One publish mid-outage (after detection), one after the heal.
            for (at, id) in [(3u64, 1u64), (12, 2)] {
                let event = EventBuilder::new()
                    .attr("group", 1i64)
                    .build(id, ClientId(1), id);
                dep.schedule_publish(SimTime::from_secs(at), ClientId(1), event);
            }
            // Bounded, so a detour left beside the healed tree fails the
            // run instead of hanging it.
            let outcome = dep.engine.run_until(SimTime::from_secs(600));
            assert_eq!(outcome, RunOutcome::Drained, "a routing cycle never drains");
            let ids: Vec<u64> = dep
                .client(ClientId(0))
                .received
                .iter()
                .map(|r| r.event.0)
                .collect();
            ids
        };

        assert_eq!(
            run(false),
            vec![2],
            "without repair the mid-outage event dies at the crashed broker"
        );
        assert_eq!(
            run(true),
            vec![1, 2],
            "the detour delivers the mid-outage event exactly once, \
             and the post-restart resync restores the tree route"
        );
    }

    /// Group-`group` event `id` published by client `publisher` at `at`.
    fn publish(at: SimTime, publisher: u32, group: i64, id: u64) -> (SimTime, u32, Event) {
        let event = EventBuilder::new()
            .attr("group", group)
            .build(id, ClientId(publisher), id);
        (at, publisher, event)
    }

    /// Run `clients` through `schedule` with the repair drives and the
    /// given publishes, until 600 s — far past every heal — or until
    /// `max_deliveries` envelopes are delivered, so a routing cycle comes
    /// back as `ReachedHorizon` or `HitDeliveryLimit` instead of hanging.
    /// Returns the outcome, the hops sent, the envelopes delivered and
    /// every client's received event ids.
    fn run_bounded(
        config: &DeploymentConfig,
        clients: &[ClientSpec],
        schedule: &FaultSchedule,
        publishes: Vec<(SimTime, u32, Event)>,
        max_deliveries: u64,
    ) -> (RunOutcome, u64, u64, Vec<Vec<u64>>) {
        let network = Arc::new(mhh_simnet::TopologyKind::Grid.build(config.grid_side, config.seed));
        let mut dep: Deployment<NoProtocol> =
            Deployment::build_on(network.clone(), config, clients, |_| NoProtocol);
        dep.engine = dep.engine.with_config(EngineConfig { max_deliveries });
        dep.engine.set_faults(Arc::new(schedule.clone()));
        dep.arm_replication_ticks();
        let drives = repair_drives(schedule, &network, &dep.book, SimDuration::from_millis(500));
        for (at, node, msg) in drives {
            dep.engine.schedule_external(at, node, msg);
        }
        for (at, publisher, event) in publishes {
            dep.schedule_publish(at, ClientId(publisher), event);
        }
        let outcome = dep.engine.run_until(SimTime::from_secs(600));
        let received = dep
            .clients()
            .map(|c| c.received.iter().map(|r| r.event.0).collect())
            .collect();
        let (hops, delivered) = (
            dep.engine.stats().total_hops(),
            dep.engine.perf().deliveries,
        );
        (outcome, hops, delivered, received)
    }

    /// Overlapping crashes on *adjacent* brokers: the second crash swallows
    /// the first broker's `PeerUp`/resync while the detour hub is down, so
    /// the hub restarts with detour entries still sitting in its (durable)
    /// filter table. Stale detours alongside healed tree routes form a
    /// routing cycle whose events multiply without bound — `Restarted`
    /// drops every detour entry, so the run drains.
    #[test]
    fn overlapping_adjacent_crashes_heal_without_forwarding_storm() {
        let config = DeploymentConfig::default();
        let network = mhh_simnet::TopologyKind::Grid.build(config.grid_side, config.seed);
        let dead = (0..network.broker_count())
            .find(|&b| network.tree.neighbors(b).len() >= 2)
            .expect("a grid MST has interior nodes");
        let nbs = network.tree.neighbors(dead);
        let hub = *nbs.iter().min().expect("interior node has neighbors");
        let clients = vec![
            ClientSpec {
                filter: filter(1),
                home: BrokerId(nbs[0] as u32),
                mobile: false,
                initially_attached: true,
            },
            ClientSpec {
                filter: filter(99),
                home: BrokerId(nbs[1] as u32),
                mobile: false,
                initially_attached: true,
            },
        ];
        let schedule = FaultSchedule::new()
            .crash(
                NodeId(dead as u32),
                SimTime::from_secs(1),
                SimTime::from_secs(10),
            )
            .crash(
                NodeId(hub as u32),
                SimTime::from_secs(9),
                SimTime::from_secs(20),
            );
        let at = SimTime::from_secs(25);
        let publishes = vec![publish(at, 1, 1, 7)];
        let (outcome, _, _, received) =
            run_bounded(&config, &clients, &schedule, publishes, 1 << 20);
        assert_eq!(outcome, RunOutcome::Drained, "a routing cycle never drains");
        assert_eq!(
            received[0],
            vec![7],
            "the post-heal event must arrive exactly once over the resynced tree"
        );
    }

    /// Overlapping crashes with neighbour-replicated checkpoints, in the
    /// order that closes a cycle through a replica: broker `x` crashes, its
    /// detour hub installs its needs at `x`'s other neighbour `y`, which
    /// replicates them before it crashes in turn and restarts last (after
    /// `x`, so `PeerUp(x)` never reached it). The replica `y` reloads still
    /// holds the detour entries toward the hub; kept, they and the healed
    /// tree edges hub–x–y form a cycle that delivers every event over and
    /// over.
    #[test]
    fn replica_restore_after_overlapping_crashes_keeps_no_detour() {
        let config = DeploymentConfig {
            grid_side: 5,
            checkpoint_replication_ms: 1_000,
            replication_horizon_ms: 60_000,
            ..DeploymentConfig::default()
        };
        let network = mhh_simnet::TopologyKind::Grid.build(config.grid_side, config.seed);
        let (x, hub, y) = (16, 11, 17);
        let nbs = network.tree.neighbors(x);
        assert!(nbs.contains(&y) && nbs.iter().min() == Some(&hub));
        assert_ne!(
            network.tree.neighbors(y).iter().min(),
            Some(&x),
            "y's replica must survive x's outage"
        );
        let client = |home: usize, group: i64| ClientSpec {
            filter: filter(group),
            home: BrokerId(home as u32),
            mobile: false,
            initially_attached: true,
        };
        let clients = vec![client(hub, 1), client(y, 1), client(0, 99)];
        let schedule = FaultSchedule::new()
            .crash(
                NodeId(x as u32),
                SimTime::from_secs(1),
                SimTime::from_secs(20),
            )
            .crash(
                NodeId(y as u32),
                SimTime::from_secs(10),
                SimTime::from_secs(25),
            );
        let at = SimTime::from_secs(40);
        let publishes = vec![
            publish(at, 0, 1, 7),
            publish(at, 1, 1, 8),
            publish(at, 2, 1, 9),
        ];
        let (outcome, _, _, received) =
            run_bounded(&config, &clients, &schedule, publishes, 1 << 20);
        assert_eq!(outcome, RunOutcome::Drained, "a routing cycle never drains");
        for ids in &received {
            let unique: BTreeSet<&u64> = ids.iter().collect();
            assert_eq!(
                unique.len(),
                ids.len(),
                "an event arrived twice: {received:?}"
            );
        }
        assert_eq!(received[1], vec![7, 9], "y's subscriber hears both others");
    }

    /// Seeded six-crash storms on a lossless 4×4 grid with replicated
    /// checkpoints: every storm drains, within `C` times the hops of the
    /// same clients and publishes without faults (the 100 storms stay
    /// within 1.03×). A detour left in a restarted broker's table closes a
    /// routing cycle that circulates events until the delivery cap — `C`
    /// times the fault-free run's deliveries — cuts the run.
    #[test]
    fn lossless_crash_storms_stay_within_amplification_bound() {
        const C: u64 = 2;
        let horizon = SimTime::from_secs(200);
        let config = DeploymentConfig {
            grid_side: 4,
            checkpoint_replication_ms: 1_000,
            replication_horizon_ms: 200_000,
            ..DeploymentConfig::default()
        };
        let brokers = config.grid_side * config.grid_side;
        let clients: Vec<ClientSpec> = (0..brokers)
            .map(|b| ClientSpec {
                filter: filter(b as i64 % 3),
                home: BrokerId(b as u32),
                mobile: false,
                initially_attached: true,
            })
            .collect();
        let publishes = || {
            (0..brokers as u32)
                .flat_map(|c| (0..20u64).map(move |k| (c, k)))
                .map(|(c, k)| {
                    let at = SimTime::from_secs(5 + 10 * k) + SimDuration::from_millis(c as u64);
                    publish(at, c, (c as i64 + 1) % 3, 100 * k + c as u64)
                })
                .collect()
        };
        let calm = FaultSchedule::new();
        let (_, free_hops, free, _) = run_bounded(&config, &clients, &calm, publishes(), u64::MAX);
        for seed in 0..100 {
            let storm =
                FaultSchedule::crash_storm(seed, brokers, 6, horizon, SimDuration::from_secs(30));
            let (outcome, hops, _, _) =
                run_bounded(&config, &clients, &storm, publishes(), C * free);
            assert_eq!(outcome, RunOutcome::Drained, "storm {seed} never drains");
            assert!(
                hops <= C * free_hops,
                "storm {seed} sent {hops} hops, over {C} × {free_hops} without faults"
            );
        }
    }

    /// A partitioned tree edge is bridged by tunneling through a relay;
    /// after the heal the tunnel is dismantled.
    #[test]
    fn partition_tunnel_bridges_severed_tree_edge() {
        let config = DeploymentConfig::default();
        let network = Arc::new(mhh_simnet::TopologyKind::Grid.build(config.grid_side, config.seed));
        let a = 0usize;
        let b = network.tree.neighbors(a)[0];
        let clients = vec![
            ClientSpec {
                filter: filter(1),
                home: BrokerId(a as u32),
                mobile: false,
                initially_attached: true,
            },
            ClientSpec {
                filter: filter(99),
                home: BrokerId(b as u32),
                mobile: false,
                initially_attached: true,
            },
        ];
        let schedule = FaultSchedule::new().partition(
            NodeId(a as u32),
            NodeId(b as u32),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );

        let run = |repair: bool| {
            let mut dep: Deployment<NoProtocol> =
                Deployment::build_on(network.clone(), &config, &clients, |_| NoProtocol);
            dep.engine.set_faults(Arc::new(schedule.clone()));
            if repair {
                let drives = repair_drives(
                    &schedule,
                    &network,
                    &dep.book,
                    SimDuration::from_millis(500),
                );
                for (at, node, msg) in drives {
                    dep.engine.schedule_external(at, node, msg);
                }
            }
            for (at, id) in [(3u64, 1u64), (12, 2)] {
                let event = EventBuilder::new()
                    .attr("group", 1i64)
                    .build(id, ClientId(1), id);
                dep.schedule_publish(SimTime::from_secs(at), ClientId(1), event);
            }
            dep.engine.run_to_completion();
            let ids: Vec<u64> = dep
                .client(ClientId(0))
                .received
                .iter()
                .map(|r| r.event.0)
                .collect();
            let tunneled = dep.engine.stats().kind("repair_tunnel").messages;
            (ids, tunneled)
        };

        let (ids, tunneled) = run(false);
        assert_eq!(ids, vec![2], "severed edge loses the mid-outage event");
        assert_eq!(tunneled, 0);
        let (ids, tunneled) = run(true);
        assert_eq!(ids, vec![1, 2], "the tunnel bridges the partition");
        assert!(
            tunneled >= 2,
            "a tunneled envelope crosses the relay in two tunnel sends, got {tunneled}"
        );
    }

    /// Protocol messages for [`PingProtocol`].
    #[derive(Debug, Clone)]
    enum PingMsg {
        /// Injected at the sender: ping `to`.
        Start { to: BrokerId },
        /// The ping itself.
        Ping,
    }

    impl ProtocolMessage for PingMsg {
        fn kind(&self) -> &'static str {
            "ping"
        }
        fn traffic_class(&self) -> mhh_simnet::TrafficClass {
            mhh_simnet::TrafficClass::MobilityControl
        }
    }

    /// A protocol that only sends pings and logs `(receiver, sender)` for
    /// every ping that arrives.
    struct PingProtocol(Arc<std::sync::Mutex<Vec<(BrokerId, BrokerId)>>>);

    impl MobilityProtocol for PingProtocol {
        type Msg = PingMsg;

        fn name(&self) -> &'static str {
            "ping"
        }

        fn on_client_connect(
            &mut self,
            _core: &mut BrokerCore,
            _info: crate::messages::ConnectInfo,
            _ctx: &mut BrokerCtx<'_, PingMsg>,
        ) {
        }

        fn on_client_disconnect(
            &mut self,
            _core: &mut BrokerCore,
            _client: ClientId,
            _filter: FilterRef,
            _proclaimed_dest: Option<BrokerId>,
            _ctx: &mut BrokerCtx<'_, PingMsg>,
        ) {
        }

        fn on_protocol_msg(
            &mut self,
            core: &mut BrokerCore,
            from: BrokerId,
            msg: PingMsg,
            ctx: &mut BrokerCtx<'_, PingMsg>,
        ) {
            match msg {
                PingMsg::Start { to } => ctx.send_protocol(to, PingMsg::Ping),
                PingMsg::Ping => self.0.lock().unwrap().push((core.id, from)),
            }
        }

        fn on_client_event(
            &mut self,
            _core: &mut BrokerCore,
            _client: ClientId,
            _event: &Event,
            _from: Peer,
            _ctx: &mut BrokerCtx<'_, PingMsg>,
        ) {
        }
    }

    /// Protocol traffic of a type-erased protocol is tunneled like core
    /// traffic: the context that `BrokerCtx::erased` hands the wrapped
    /// protocol keeps the broker's partition tunnels.
    #[test]
    fn erased_protocol_traffic_tunnels_through_partition() {
        use crate::dynproto::{erase, BoxedMsg, DynProtocol};

        let config = DeploymentConfig::default();
        let network = Arc::new(mhh_simnet::TopologyKind::Grid.build(config.grid_side, config.seed));
        let (a, b) = (BrokerId(0), BrokerId(network.tree.neighbors(0)[0] as u32));
        let schedule = FaultSchedule::new().partition(
            NodeId(a.0),
            NodeId(b.0),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );

        let run = |repair: bool| {
            let log = Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut dep: Deployment<Box<dyn DynProtocol>> =
                Deployment::build_on(network.clone(), &config, &[], |_| {
                    erase(PingProtocol(log.clone()))
                });
            dep.engine.set_faults(Arc::new(schedule.clone()));
            if repair {
                let drives = repair_drives(
                    &schedule,
                    &network,
                    &dep.book,
                    SimDuration::from_millis(500),
                );
                for (at, node, msg) in drives {
                    dep.engine.schedule_external(at, node, msg);
                }
            }
            let start = NetMsg::Protocol(BoxedMsg::new(PingMsg::Start { to: b }));
            let a_node = dep.book.broker_node(a);
            dep.engine
                .schedule_external(SimTime::from_secs(3), a_node, start);
            dep.engine.run_to_completion();
            let pings = log.lock().unwrap().clone();
            let stats = dep.engine.stats();
            (
                pings,
                stats.kind("repair_tunnel").messages,
                stats.kind("ping").messages,
            )
        };

        let (pings, tunneled, direct) = run(false);
        assert!(pings.is_empty(), "the severed edge drops the ping");
        assert_eq!((tunneled, direct), (0, 1));
        let (pings, tunneled, direct) = run(true);
        assert_eq!(
            pings,
            vec![(b, a)],
            "the ping arrives once, from its sender"
        );
        assert_eq!(
            (tunneled, direct),
            (2, 0),
            "the ping crosses the relay in two tunnel sends and never goes direct"
        );
    }

    /// Durable state survives a checkpoint/restore round-trip, labels
    /// included; later mutations are rolled back to the snapshot.
    #[test]
    fn checkpoint_restore_round_trips_durable_state() {
        let network = Arc::new(Network::grid(3, 7));
        let book = AddressBook::new(9, 2);
        let mut core = BrokerCore::new(BrokerId(4), book, network, true);
        let (c0, c1) = (Peer::Client(ClientId(0)), Peer::Client(ClientId(1)));
        let b1 = Peer::Broker(BrokerId(1));
        core.filters.add(c0, filter(1));
        core.filters.add(b1, filter(2));
        core.filters.add_labeled(c1, filter(2), Some(b1));
        core.connected.insert(ClientId(0), filter(1).into());
        let checkpoint = core.checkpoint();

        core.filters.remove(c0, &filter(1));
        core.connected.clear();
        core.filters.add(Peer::Broker(BrokerId(2)), filter(3));
        core.filters.set_label(c1, &filter(2), None);
        core.filters.add_labeled(c0, filter(2), Some(b1));
        core.restore(checkpoint);

        assert!(core.filters.contains(c0, &filter(1)));
        assert!(core.filters.contains(b1, &filter(2)));
        assert!(!core.filters.contains(Peer::Broker(BrokerId(2)), &filter(3)));
        assert!(!core.filters.contains(c0, &filter(2)));
        assert_eq!(core.filters.label_of(c1, &filter(2)), Some(b1));
        assert_eq!(core.filters.label_of(c0, &filter(1)), None);
        assert_eq!(core.connected.len(), 1);
        assert_eq!(core.needed_filters().len(), 2);
    }

    /// Differential check of the entries-only checkpoint: after seeded
    /// `add_ref` / `remove_ref` / `set_label` / `clear_peer` churn — with
    /// tombstones left behind and compactions along the way — the table
    /// [`BrokerCore::restore`] rebuilds from [`BrokerCore::checkpoint`]
    /// holds the same entries in the same order with the same labels, and
    /// answers matching and the three covering queries exactly as the
    /// original, order included. Every broker peer is a tree neighbour, so
    /// the restore's detour drop removes nothing.
    #[test]
    fn restore_rebuilds_a_table_that_answers_as_the_original() {
        use crate::value::Value;
        use mhh_simnet::random::DetRng;

        let network = Arc::new(Network::grid(3, 7));
        let book = AddressBook::new(9, 6);
        let me = BrokerId(4);
        let mut peers: Vec<Peer> = BrokerCore::new(me, book, network.clone(), true)
            .neighbors()
            .into_iter()
            .map(Peer::Broker)
            .collect();
        peers.extend((0..6).map(|c| Peer::Client(ClientId(c))));
        let mut rng = DetRng::new(0x5eed_c4ec);
        // Shared records, so re-adds hit the duplicate check; bounds on a
        // coarse lattice so that covering is common.
        let pool: Vec<FilterRef> = (0..48)
            .map(|_| {
                let x = rng.index(8) as f64 * 5.0;
                let w = (1 + rng.index(3)) as f64 * 5.0;
                let k = rng.index(4) as i64;
                FilterRef::new(match rng.index(12) {
                    0 => filter(k),
                    1 => Filter::single("v", Op::Ge, x).and("v", Op::Lt, x + w),
                    2 => Filter::single("v", Op::Ge, x).and("v", Op::Le, x + w),
                    3 => filter(k).and("v", Op::Ge, x),
                    4 => Filter::single("group", Op::Ne, k),
                    5 => Filter::single("v", Op::Exists, 0i64),
                    6 => Filter::match_all(),
                    7 => Filter::single("v", Op::Gt, x),
                    8 => Filter::single("v", Op::Eq, Value::Int(x as i64)),
                    9 => Filter::single("v", Op::Lt, x).and("group", Op::Ne, k),
                    10 => Filter::single("v", Op::Ge, x + w).and("v", Op::Le, x),
                    _ => Filter::single("v", Op::Le, x),
                })
            })
            .collect();
        let pick = |rng: &mut DetRng, xs: &[Peer]| xs[rng.index(xs.len())];
        let (mut checked, mut with_tombstones, mut compactions) = (0, 0, 0);
        for _ in 0..8 {
            let mut core = BrokerCore::new(me, book, network.clone(), true);
            for step in 0..600 {
                let slots = core.filters.slots();
                let t = &mut core.filters;
                match rng.index(16) {
                    0..=6 => {
                        let label = (rng.index(3) == 0).then(|| pick(&mut rng, &peers));
                        let f = pool[rng.index(pool.len())].clone();
                        t.add_ref(pick(&mut rng, &peers), f, label);
                    }
                    7..=12 if !t.is_empty() => {
                        let e = t.entries().nth(rng.index(t.len())).expect("in range");
                        let (p, f) = (e.peer, e.filter.clone());
                        assert!(t.remove_ref(p, &f));
                    }
                    13 | 14 if !t.is_empty() => {
                        let e = t.entries().nth(rng.index(t.len())).expect("in range");
                        let (p, f) = (e.peer, e.filter.clone());
                        let label = (rng.index(2) == 0).then(|| pick(&mut rng, &peers));
                        assert!(t.set_label(p, &f, label));
                    }
                    _ => t.clear_peer(pick(&mut rng, &peers)),
                }
                compactions += usize::from(core.filters.slots() < slots);
                if step % 20 != 19 {
                    continue;
                }
                checked += 1;
                with_tombstones += usize::from(core.filters.slots() > core.filters.len());
                let mut copy = BrokerCore::new(me, book, network.clone(), true);
                copy.restore(core.checkpoint());
                let (a, b) = (&mut core.filters, &mut copy.filters);
                let entries: Vec<FilterEntry> = a.entries().cloned().collect();
                assert_eq!(b.entries().cloned().collect::<Vec<_>>(), entries);
                for e in &entries {
                    assert_eq!(b.label_of(e.peer, &e.filter), e.accept_only_from);
                }
                for _ in 0..6 {
                    let event = EventBuilder::new()
                        .attr("group", rng.index(4) as i64)
                        .attr("v", rng.index(50) as f64)
                        .build(1, ClientId(0), 0);
                    for &from in peers.iter().chain([&Peer::Broker(BrokerId(8))]) {
                        assert_eq!(
                            b.matching_targets(&event, from),
                            a.matching_targets(&event, from),
                            "matching {event:?} from {from:?}"
                        );
                    }
                }
                for f in &pool {
                    let excluded = [pick(&mut rng, &peers), pick(&mut rng, &peers)];
                    assert_eq!(
                        b.covered_by_other(f, excluded[0]),
                        a.covered_by_other(f, excluded[0])
                    );
                    assert_eq!(b.covered_entries(f), a.covered_entries(f));
                    assert_eq!(
                        b.related_to_other(f, &excluded),
                        a.related_to_other(f, &excluded)
                    );
                }
            }
        }
        assert!(checked >= 200, "{checked} checkpoints compared");
        assert!(
            with_tombstones >= 100,
            "tombstones exercised ({with_tombstones})"
        );
        assert!(compactions >= 8, "compaction exercised ({compactions})");
    }

    /// The drive generator emits the full detect/heal sequence for a crash
    /// and nothing for windows too short to detect (except the restart kick).
    #[test]
    fn repair_drives_cover_detect_and_heal_phases() {
        let network = Arc::new(Network::grid(3, 7));
        let book = AddressBook::new(9, 0);
        let dead = (0..9)
            .find(|&b| network.tree.neighbors(b).len() >= 2)
            .unwrap();
        let degree = network.tree.neighbors(dead).len();
        let schedule = FaultSchedule::new().crash(
            NodeId(dead as u32),
            SimTime::from_secs(1),
            SimTime::from_secs(10),
        );
        let drives: Vec<(SimTime, NodeId, NetMsg<crate::messages::NoProtocolMsg>)> =
            repair_drives(&schedule, &network, &book, SimDuration::from_secs(2));
        // degree × PeerDown at 3s, Restarted + degree × PeerUp at 10s.
        assert_eq!(drives.len(), 2 * degree + 1);
        assert!(
            drives
                .iter()
                .filter(
                    |(at, _, m)| matches!(m, NetMsg::Repair(RepairMsg::PeerDown { .. }))
                        && *at == SimTime::from_secs(3)
                )
                .count()
                == degree
        );

        // Too short to detect: only the Restarted kick remains.
        let blip = FaultSchedule::new().crash(
            NodeId(dead as u32),
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let drives: Vec<(SimTime, NodeId, NetMsg<crate::messages::NoProtocolMsg>)> =
            repair_drives(&blip, &network, &book, SimDuration::from_secs(5));
        assert_eq!(drives.len(), 1);
        assert!(matches!(drives[0].2, NetMsg::Repair(RepairMsg::Restarted)));
    }
}
