//! The MHH protocol logic: an implementation of
//! [`MobilityProtocol`] driving the handoff state machines of Section 4 of
//! the paper.

use std::collections::{BTreeMap, VecDeque};

use mhh_pubsub::broker::{BrokerCore, BrokerCtx, MobilityProtocol};
use mhh_pubsub::{
    BrokerId, ClientId, ConnectInfo, Event, EventQueue, FilterRef, Peer, PqId, QueueKind,
};

use mhh_simnet::SimDuration;

use crate::messages::{MhhMsg, TransferStage};
use crate::state::{AnchorState, DestState, MhhClient, OutboundState, StreamState, TqState};

/// Number of stored events the origin streams per pacing tick during event
/// migration (one batched transfer message per tick). Pacing keeps the
/// migration stoppable (Section 4.3) without adding measurable delay for the
/// first events.
const STREAM_BATCH: usize = 32;

/// Interval between streaming batches at the origin.
const STREAM_TICK: SimDuration = SimDuration::from_millis(20);

/// How many times an un-acked `sub_migration` is re-sent (recovery mode
/// only) before the origin gives up and keeps the subscription rooted here.
const MAX_MIGRATION_RETRIES: u32 = 3;

/// Per-broker MHH protocol state: one [`MhhClient`] record per client this
/// broker currently plays a role for.
#[derive(Debug, Default, Clone)]
pub struct Mhh {
    clients: BTreeMap<ClientId, MhhClient>,
    /// Watchdog interval for un-acked outbound migrations. `None` (the
    /// default, [`Mhh::new`]) disables recovery entirely: no timers are
    /// armed and no retransmissions happen, so fault-free runs are
    /// bit-identical to the pre-recovery protocol. Fault-injected runs
    /// construct the protocol with [`Mhh::with_recovery`] instead.
    retry: Option<SimDuration>,
}

type Ctx<'a> = BrokerCtx<'a, MhhMsg>;

impl Mhh {
    /// Create an empty protocol instance (one per broker).
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a protocol instance with crash recovery enabled: outbound
    /// migrations are watched by a retry timer of the given interval
    /// (re-sent a bounded number of times, then abandoned so the
    /// origin keeps anchoring the subscription), and
    /// [`MobilityProtocol::on_restart`] re-arms timers and in-flight
    /// exchanges lost in a crash.
    pub fn with_recovery(retry: SimDuration) -> Self {
        Mhh {
            clients: BTreeMap::new(),
            retry: Some(retry),
        }
    }

    /// Access the per-client state (primarily for tests and invariant
    /// checks).
    pub fn client_state(&self, client: ClientId) -> Option<&MhhClient> {
        self.clients.get(&client)
    }

    /// Number of clients this broker currently tracks.
    pub fn tracked_clients(&self) -> usize {
        self.clients.len()
    }

    fn entry(&mut self, client: ClientId, filter: &FilterRef) -> &mut MhhClient {
        self.clients
            .entry(client)
            .or_insert_with(|| MhhClient::new(filter.clone()))
    }

    fn entry_unknown(&mut self, client: ClientId) -> &mut MhhClient {
        self.clients.entry(client).or_default()
    }
}

/// Start an outbound subscription migration from this broker toward `dest`
/// (this broker is the origin `Bo`).
fn start_outbound(
    st: &mut MhhClient,
    core: &mut BrokerCore,
    client: ClientId,
    dest: BrokerId,
    retry: Option<SimDuration>,
    ctx: &mut Ctx<'_>,
) {
    if dest == core.id {
        return;
    }
    let filter = st.filter.clone();
    let first_hop = core.next_hop_to(dest);
    // Step 1 (paper 4.1): the first hop becomes interested in the filter.
    core.filters
        .add_ref(Peer::Broker(first_hop), filter.clone(), None);
    // Step 2: only accept events for the client that arrive from the first
    // hop (in-transit events still flowing back along the old path).
    core.filters
        .set_label(Peer::Client(client), &filter, Some(Peer::Broker(first_hop)));
    // Step 3: notify the next broker on the path.
    let cancel_prev = !core
        .filters
        .related_to_other(&filter, &[Peer::Broker(first_hop), Peer::Client(client)]);
    ctx.send_protocol(
        first_hop,
        MhhMsg::SubMigration {
            client,
            filter: filter.clone(),
            dest,
            origin: core.id,
            cancel_prev,
        },
    );
    st.outbound = Some(OutboundState {
        dest,
        first_hop,
        filter,
        attempt: 0,
    });
    if let Some(interval) = retry {
        ctx.schedule_protocol(interval, MhhMsg::MigrationRetry { client, attempt: 0 });
    }
}

/// Stream up to one batch of locally stored PQ-list events toward the
/// migration destination. Returns after scheduling a pacing tick when more
/// local events remain; otherwise closes the streaming phase by sending the
/// manifest of the remaining (remote or stopped) elements plus the
/// `deliver_TQ` chain trigger.
fn stream_batch(st: &mut MhhClient, core: &mut BrokerCore, client: ClientId, ctx: &mut Ctx<'_>) {
    let Some(stream) = st.stream.as_mut() else {
        return;
    };
    let dest = stream.dest;
    let mut batch: Vec<Event> = Vec::new();
    if !stream.stopped {
        while batch.len() < STREAM_BATCH {
            let Some(&head) = stream.list.front() else {
                break;
            };
            if head.broker != core.id {
                break;
            }
            let Some(queue) = st.local.get_mut(&head.seq) else {
                stream.list.pop_front();
                continue;
            };
            match queue.pop() {
                Some(ev) => batch.push(ev),
                None => {
                    st.local.remove(&head.seq);
                    stream.list.pop_front();
                }
            }
        }
    }
    if !batch.is_empty() {
        ctx.send_protocol(
            dest,
            MhhMsg::PqTransfer {
                client,
                events: batch,
                stage: TransferStage::PqList,
            },
        );
    }
    let more_local = !stream.stopped
        && stream
            .list
            .front()
            .map(|head| head.broker == core.id)
            .unwrap_or(false);
    if more_local {
        ctx.schedule_protocol(STREAM_TICK, MhhMsg::StreamTick { client });
        return;
    }
    // Done (or stopped): hand the remaining list to the destination and kick
    // off the temporary-queue chain.
    let stream = st.stream.take().expect("stream state present");
    ctx.send_protocol(
        stream.dest,
        MhhMsg::Manifest {
            client,
            remaining: stream.list.into_iter().collect(),
        },
    );
    ctx.send_protocol(
        stream.first_hop,
        MhhMsg::DeliverTq {
            client,
            dest: stream.dest,
        },
    );
}

/// Close a path broker's capture window: ship the TQ contents to the
/// migration destination and pass the `deliver_TQ` chain on to the next
/// hop. Only called once the next hop's `sub_migration_ack` has arrived
/// (every old-direction in-transit event precedes the ack, per-link FIFO),
/// so the queue is complete.
fn flush_tq(st: &mut MhhClient, _core: &mut BrokerCore, client: ClientId, ctx: &mut Ctx<'_>) {
    let Some(mut tq) = st.tq.take() else { return };
    let dest = tq.dest;
    let events = tq.queue.drain();
    if !events.is_empty() {
        ctx.send_protocol(
            dest,
            MhhMsg::PqTransfer {
                client,
                events,
                stage: TransferStage::Tq,
            },
        );
    }
    ctx.send_protocol(tq.next, MhhMsg::DeliverTq { client, dest });
}

/// Drain the next PQ-list element at a destination broker. Local elements
/// are delivered (or parked) immediately; the first remote element triggers a
/// `drain_request` and the walk pauses until `drain_complete` arrives.
fn pull_next(st: &mut MhhClient, core: &mut BrokerCore, client: ClientId, ctx: &mut Ctx<'_>) {
    loop {
        let next_elem = {
            let Some(d) = st.dest.as_mut() else { return };
            if d.aborted || d.pulling.is_some() {
                return;
            }
            let Some(rem) = d.remaining.as_mut() else {
                return;
            };
            match rem.pop_front() {
                None => return,
                Some(e) => e,
            }
        };
        if next_elem.broker == core.id {
            let events: Vec<Event> = st
                .take_local(next_elem)
                .map(|mut q| q.drain())
                .unwrap_or_default();
            let d = st.dest.as_mut().expect("dest state present");
            for ev in events {
                if d.client_connected && !d.aborted {
                    core.deliver(client, &ev, ctx);
                } else {
                    d.imm.push(ev);
                }
            }
            continue;
        } else {
            let d = st.dest.as_mut().expect("dest state present");
            d.pulling = Some(next_elem);
            ctx.send_protocol(
                next_elem.broker,
                MhhMsg::DrainRequest {
                    client,
                    pq: next_elem,
                },
            );
            return;
        }
    }
}

/// Close a finished inbound migration: either hand everything to the
/// connected client (normal completion) or park the queues and become the
/// client's new anchor (aborted handoff / proclaimed move whose client has
/// not arrived yet).
fn finalize_dest(
    st: &mut MhhClient,
    core: &mut BrokerCore,
    client: ClientId,
    retry: Option<SimDuration>,
    ctx: &mut Ctx<'_>,
) {
    let Some(d) = st.dest.take() else { return };
    let mut d = d;
    if d.client_connected && !d.aborted {
        // Deliver any buffered immigrant events (only non-empty when the
        // client arrived after they did), then the TQ captures, then the
        // events that arrived over the new route — exactly the PQ-list order.
        for ev in d.imm.drain() {
            core.deliver(client, &ev, ctx);
        }
        for ev in d.tq_buf.drain() {
            core.deliver(client, &ev, ctx);
        }
        if let Some(mut q) = d.new_q.take() {
            for ev in q.drain() {
                core.deliver(client, &ev, ctx);
            }
        }
        st.anchor = Some(AnchorState::default());
        // Any deferred handoff request is stale if the client is attached
        // right here again.
        st.pending_handoff = None;
    } else {
        // Build the new distributed PQ-list: events already migrated here,
        // then the elements left where they were, then the TQ captures, then
        // the queue that keeps collecting newly arriving events.
        let mut list = Vec::new();
        if !d.imm.is_empty() {
            list.push(d.imm.id);
            st.park(d.imm);
        }
        if let Some(rem) = d.remaining.take() {
            list.extend(rem);
        }
        if !d.tq_buf.is_empty() {
            list.push(d.tq_buf.id);
            st.park(d.tq_buf);
        }
        let new_q = d
            .new_q
            .take()
            .unwrap_or_else(|| EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent));
        let open_id = new_q.id;
        list.push(open_id);
        st.park(new_q);
        st.anchor = Some(AnchorState {
            list,
            open: Some(open_id),
        });
        if let Some(next_broker) = st.pending_handoff.take() {
            start_outbound(st, core, client, next_broker, retry, ctx);
        }
    }
}

/// The client reconnected at the broker that is already its anchor (or it is
/// its very first attachment): deliver everything stored locally (and pull
/// any remote PQ-list elements) in order, then go live.
fn handle_local_resume(
    st: &mut MhhClient,
    core: &mut BrokerCore,
    client: ClientId,
    retry: Option<SimDuration>,
    ctx: &mut Ctx<'_>,
) {
    let anchor = st.anchor.take().unwrap_or_default();
    if anchor.list.is_empty() {
        st.anchor = Some(AnchorState::default());
        return;
    }
    // Reuse the destination-drain machinery with this broker as both origin
    // and destination: no subscription migration and no TQ chain are needed.
    let imm = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
    let tq_buf = EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary);
    let mut d = DestState::new(core.id, st.filter.clone(), true, imm, tq_buf);
    d.got_sub_migration = true;
    d.tq_done = true;
    d.remaining = Some(VecDeque::from(anchor.list));
    d.new_q = Some(EventQueue::new(
        core.alloc_pq_id(client),
        QueueKind::Persistent,
    ));
    st.dest = Some(d);
    pull_next(st, core, client, ctx);
    if st.dest.as_ref().map(|d| d.finished()).unwrap_or(false) {
        finalize_dest(st, core, client, retry, ctx);
    }
}

impl MobilityProtocol for Mhh {
    type Msg = MhhMsg;

    fn name(&self) -> &'static str {
        "MHH"
    }

    fn on_client_connect(&mut self, core: &mut BrokerCore, info: ConnectInfo, ctx: &mut Ctx<'_>) {
        let retry = self.retry;
        let client = info.client;
        let st = self.entry(client, &info.filter);
        st.filter = info.filter.clone();

        // Case 1: an inbound migration for this client is still in progress
        // here (the client bounced back, or a proclaimed-move client arrived).
        if st.dest.is_some() {
            {
                let d = st.dest.as_mut().expect("checked above");
                d.client_connected = true;
                d.aborted = false;
                let backlog: Vec<Event> = d.imm.drain();
                for ev in backlog {
                    core.deliver(client, &ev, ctx);
                }
            }
            pull_next(st, core, client, ctx);
            if st.dest.as_ref().map(|d| d.finished()).unwrap_or(false) {
                finalize_dest(st, core, client, retry, ctx);
            }
            return;
        }

        match info.last_broker {
            // Case 2: reconnect at the same broker (or first attachment):
            // everything the client needs is already rooted here.
            None => {
                core.apply_subscribe(Peer::Client(client), info.filter.clone(), false, ctx);
                handle_local_resume(st, core, client, retry, ctx);
            }
            Some(last) if last == core.id => {
                handle_local_resume(st, core, client, retry, ctx);
            }
            // Case 3: silent move — ask the last-visited broker to start the
            // multi-hop handoff (Section 4.2).
            Some(origin) => {
                let imm = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
                let tq_buf = EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary);
                st.dest = Some(DestState::new(
                    origin,
                    info.filter.clone(),
                    true,
                    imm,
                    tq_buf,
                ));
                ctx.send_protocol(
                    origin,
                    MhhMsg::HandoffRequest {
                        client,
                        new_broker: core.id,
                        filter: info.filter.clone(),
                    },
                );
            }
        }
    }

    fn on_client_disconnect(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        filter: FilterRef,
        proclaimed_dest: Option<BrokerId>,
        ctx: &mut Ctx<'_>,
    ) {
        let retry = self.retry;
        let st = self.entry(client, &filter);
        if !filter.is_empty() {
            st.filter = filter;
        }

        // Disconnecting in the middle of an inbound migration: abort it
        // (frequent moving, Section 4.3). The queues that have not been
        // drained yet stay where they are, and the origin is told to stop
        // streaming its stored queue.
        if let Some(d) = st.dest.as_mut() {
            d.client_connected = false;
            d.aborted = true;
            let origin = d.origin;
            let finished = d.finished();
            // A proclaimed departure names where the client goes next; keep
            // it so the finalized queues migrate there instead of stranding
            // in an anchor the overlay no longer routes to.
            if let Some(next) = proclaimed_dest {
                if next != core.id {
                    st.pending_handoff = Some(next);
                }
            }
            if origin != core.id {
                ctx.send_protocol(origin, MhhMsg::StopEventMigration { client });
            }
            if finished {
                finalize_dest(st, core, client, retry, ctx);
            }
            return;
        }

        // Normal disconnection of a live client: open a persistent queue for
        // the events that keep arriving (the PQ of Section 4.2).
        let pq_id = core.alloc_pq_id(client);
        let queue = EventQueue::new(pq_id, QueueKind::Persistent);
        st.park(queue);
        let anchor = st.anchor.get_or_insert_with(AnchorState::default);
        anchor.list.push(pq_id);
        anchor.open = Some(pq_id);

        // Proclaimed move: begin migrating toward the announced destination
        // right away (Section 4.1).
        if let Some(dest) = proclaimed_dest {
            if dest != core.id {
                start_outbound(st, core, client, dest, retry, ctx);
            }
        }
    }

    fn on_protocol_msg(
        &mut self,
        core: &mut BrokerCore,
        from: BrokerId,
        msg: MhhMsg,
        ctx: &mut Ctx<'_>,
    ) {
        let retry = self.retry;
        match msg {
            MhhMsg::HandoffRequest {
                client,
                new_broker,
                filter,
            } => {
                let st = self.entry(client, &filter);
                st.filter = filter.clone();
                if new_broker == core.id {
                    return;
                }
                if st.dest.is_some() {
                    // We are still catching up on an inbound migration for
                    // this client; serve the new request when it completes.
                    st.pending_handoff = Some(new_broker);
                    return;
                }
                if let Some(ob) = st.outbound.as_ref() {
                    // Pure origin: the root is already moving to `ob.dest`
                    // and nothing here ever finalizes, so a parked request
                    // would rot. Let the new root serve it instead.
                    ctx.send_protocol(
                        ob.dest,
                        MhhMsg::HandoffRequest {
                            client,
                            new_broker,
                            filter,
                        },
                    );
                    return;
                }
                if st.anchor.is_none() {
                    st.anchor = Some(AnchorState::default());
                }
                start_outbound(st, core, client, new_broker, retry, ctx);
            }

            MhhMsg::SubMigration {
                client,
                filter,
                dest,
                origin,
                cancel_prev,
            } => {
                let st = self.entry(client, &filter);
                st.filter = filter.clone();
                if cancel_prev {
                    // The sender no longer needs the filter — unless *we*
                    // re-established that very entry as the route of a newer
                    // migration for the same client (crossing migrations: a
                    // proclaimed move and the handoff triggered by the
                    // misproclaimed reconnect can travel the same link in
                    // opposite roles). Removing it then black-holes the
                    // filter until an unrelated migration repairs the path.
                    let route_of_newer =
                        st.outbound.as_ref().is_some_and(|ob| ob.first_hop == from)
                            || st.tq.as_ref().is_some_and(|tq| tq.next == from);
                    if !route_of_newer {
                        core.filters.remove_ref(Peer::Broker(from), &filter);
                    }
                }
                if core.id == dest {
                    // Destination broker: the subscription now roots here.
                    // The entry may already exist with a stale capture-window
                    // label (this broker was a path broker of an earlier
                    // migration); the root entry must accept events from any
                    // direction — unless we have *already* started migrating
                    // the root onward (outbound in flight), in which case the
                    // entry is the capture window of that newer migration.
                    core.filters
                        .add_ref(Peer::Client(client), filter.clone(), None);
                    let label = st.outbound.as_ref().map(|ob| Peer::Broker(ob.first_hop));
                    core.filters.set_label(Peer::Client(client), &filter, label);
                    let connected = core.is_connected(client);
                    if st.dest.is_none() {
                        let imm = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
                        let tq_buf =
                            EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary);
                        st.dest = Some(DestState::new(
                            origin,
                            filter.clone(),
                            connected,
                            imm,
                            tq_buf,
                        ));
                    }
                    let d = st.dest.as_mut().expect("destination state present");
                    d.got_sub_migration = true;
                    d.filter = filter.clone();
                    if d.new_q.is_none() {
                        d.new_q = Some(EventQueue::new(
                            core.alloc_pq_id(client),
                            QueueKind::Persistent,
                        ));
                    }
                    ctx.send_protocol(from, MhhMsg::SubMigrationAck { client });
                    if st.dest.as_ref().map(|d| d.finished()).unwrap_or(false) {
                        finalize_dest(st, core, client, retry, ctx);
                    }
                } else {
                    // Broker on the path: re-point the overlay entries,
                    // capture in-transit events, acknowledge and forward.
                    let next = core.next_hop_to(dest);
                    core.filters
                        .add_ref(Peer::Broker(next), filter.clone(), None);
                    let inserted = core
                        .filters
                        .add_ref(Peer::Client(client), filter.clone(), None);
                    if inserted || !core.is_connected(client) {
                        // Point the capture window at the next hop, refreshing
                        // a stale label from an earlier migration through this
                        // broker. A live root entry (client connected here,
                        // racing migration passing through) keeps accepting
                        // events from every direction instead.
                        core.filters.set_label(
                            Peer::Client(client),
                            &filter,
                            Some(Peer::Broker(next)),
                        );
                    }
                    // Recovery mode only: a retransmitted sub_migration for a
                    // window we already hold (the ack was lost in an outage)
                    // must not overwrite the temporary queue — the captured
                    // events would vanish. Keep it and just re-acknowledge.
                    let duplicate = retry.is_some()
                        && st
                            .tq
                            .as_ref()
                            .is_some_and(|tq| tq.next == next && tq.dest == dest);
                    if !duplicate {
                        st.tq = Some(TqState {
                            queue: EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary),
                            next,
                            dest,
                            acked: false,
                            deliver_pending: None,
                        });
                    }
                    ctx.send_protocol(from, MhhMsg::SubMigrationAck { client });
                    let cancel = !core
                        .filters
                        .related_to_other(&filter, &[Peer::Broker(next), Peer::Client(client)]);
                    ctx.send_protocol(
                        next,
                        MhhMsg::SubMigration {
                            client,
                            filter,
                            dest,
                            origin,
                            cancel_prev: cancel,
                        },
                    );
                }
            }

            MhhMsg::SubMigrationAck { client } => {
                let st = self.entry_unknown(client);
                let filter = st.filter.clone();
                // All in-transit events from the acking neighbor have been
                // flushed into our queue (FIFO), so stop accepting events for
                // the client here — but only close the capture window this
                // ack belongs to. An unlabeled entry is the client's *root*
                // (a newer crossing migration re-rooted the subscription
                // here); a different label belongs to a newer window. Either
                // way a stale ack must not tear it down.
                if core.filters.label_of(Peer::Client(client), &filter) == Some(Peer::Broker(from))
                {
                    core.filters.remove_ref(Peer::Client(client), &filter);
                }
                // Path broker: the capture window is now safely closed — but
                // only an ack from *this* TQ's next hop closes it (a broker
                // can be origin of an older migration and path broker of a
                // newer one for the same client at once; the older ack must
                // not close the newer window). If the deliver_TQ chain
                // outran the ack (possible under link jitter), it parked
                // itself — resume it now.
                if let Some(tq) = st.tq.as_mut() {
                    if from == tq.next {
                        tq.acked = true;
                        if tq.deliver_pending.take().is_some() {
                            flush_tq(st, core, client, ctx);
                        }
                    }
                }
                if let Some(ob) = st.outbound.take() {
                    // Crossing migrations: an inbound migration for the same
                    // client is still landing here while the root has already
                    // been handed onward. Its queues would strand in a local
                    // anchor nothing routes to any more — re-migrate them to
                    // where the root went once the inbound leg finalizes.
                    if st.dest.is_some() && st.pending_handoff.is_none() {
                        st.pending_handoff = Some(ob.dest);
                    }
                    // We are the origin: start event migration. The leading
                    // locally-held PQ-list elements are streamed in paced
                    // batches (so a stop_event_migration can halt them); once
                    // local streaming ends the rest of the list is handed to
                    // the destination and the TQ chain is kicked off.
                    let anchor = st.anchor.take().unwrap_or_default();
                    let list: VecDeque<PqId> = anchor.list.into();
                    let stopped = std::mem::take(&mut st.stop_requested);
                    st.stream = Some(StreamState {
                        dest: ob.dest,
                        first_hop: ob.first_hop,
                        list,
                        stopped,
                    });
                    stream_batch(st, core, client, ctx);
                }
                // Path brokers do nothing here: their TQ is complete and will
                // be flushed by the deliver_TQ chain.
            }

            MhhMsg::DeliverTq { client, dest } => {
                let st = self.entry_unknown(client);
                if core.id == dest {
                    if st.dest.is_some() {
                        {
                            let d = st.dest.as_mut().expect("checked above");
                            d.tq_done = true;
                        }
                        if st.dest.as_ref().map(|d| d.finished()).unwrap_or(false) {
                            finalize_dest(st, core, client, retry, ctx);
                        }
                    }
                } else if st.tq.as_ref().is_some_and(|tq| tq.dest == dest) {
                    // (A deliver_TQ whose dest differs belongs to an older
                    // migration whose TQ was overwritten; it falls through to
                    // the chain-forwarding arm so *its* chain stays alive
                    // instead of hijacking the newer TQ.)
                    let tq = st.tq.as_mut().expect("checked above");
                    if !tq.acked {
                        // The chain outran the next hop's ack (link jitter):
                        // old-direction events from the next hop may still be
                        // in flight, and FIFO only guarantees they precede
                        // the *ack*. Park the chain until it arrives — the
                        // capture window must not close early, or the
                        // stragglers would be dropped as stale (the exact
                        // loss the FIFO-under-jitter property test caught).
                        tq.deliver_pending = Some(dest);
                    } else {
                        flush_tq(st, core, client, ctx);
                    }
                } else {
                    // No TQ here (nothing was captured); keep the chain going.
                    let next = core.next_hop_to(dest);
                    ctx.send_protocol(next, MhhMsg::DeliverTq { client, dest });
                }
            }

            MhhMsg::PqTransfer {
                client,
                events,
                stage,
            } => {
                let connected = core.is_connected(client);
                let st = self.entry_unknown(client);
                if st.dest.is_none() {
                    let imm = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
                    let tq_buf = EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary);
                    let filter = st.filter.clone();
                    st.dest = Some(DestState::new(from, filter, connected, imm, tq_buf));
                }
                let d = st.dest.as_mut().expect("destination state present");
                for event in events {
                    match stage {
                        TransferStage::PqList => {
                            if d.client_connected && !d.aborted {
                                core.deliver(client, &event, ctx);
                            } else {
                                d.imm.push(event);
                            }
                        }
                        TransferStage::Tq => d.tq_buf.push(event),
                    }
                }
            }

            MhhMsg::Manifest { client, remaining } => {
                let st = self.entry_unknown(client);
                if let Some(d) = st.dest.as_mut() {
                    d.remaining = Some(remaining.into());
                } else {
                    let connected = core.is_connected(client);
                    let imm = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
                    let tq_buf = EventQueue::new(core.alloc_pq_id(client), QueueKind::Temporary);
                    let filter = st.filter.clone();
                    let mut d = DestState::new(from, filter, connected, imm, tq_buf);
                    d.remaining = Some(remaining.into());
                    st.dest = Some(d);
                }
                pull_next(st, core, client, ctx);
                if st.dest.as_ref().map(|d| d.finished()).unwrap_or(false) {
                    finalize_dest(st, core, client, retry, ctx);
                }
            }

            MhhMsg::DrainRequest { client, pq } => {
                let st = self.entry_unknown(client);
                if let Some(mut q) = st.take_local(pq) {
                    let events = q.drain();
                    if !events.is_empty() {
                        ctx.send_protocol(
                            from,
                            MhhMsg::PqTransfer {
                                client,
                                events,
                                stage: TransferStage::PqList,
                            },
                        );
                    }
                }
                ctx.send_protocol(from, MhhMsg::DrainComplete { client, pq });
            }

            MhhMsg::StreamTick { client } => {
                let st = self.entry_unknown(client);
                stream_batch(st, core, client, ctx);
            }

            MhhMsg::StopEventMigration { client } => {
                // The destination aborted the handoff; leave whatever has not
                // been streamed yet parked here as PQ-list elements.
                let st = self.entry_unknown(client);
                match st.stream.as_mut() {
                    Some(stream) => stream.stopped = true,
                    // The stop outran the first-hop acknowledgement: remember
                    // it so streaming never starts.
                    None if st.outbound.is_some() => st.stop_requested = true,
                    None => {}
                }
                stream_batch(st, core, client, ctx);
            }

            MhhMsg::DrainComplete { client, pq } => {
                let st = self.entry_unknown(client);
                if let Some(d) = st.dest.as_mut() {
                    if d.pulling == Some(pq) {
                        d.pulling = None;
                    }
                }
                pull_next(st, core, client, ctx);
                if st.dest.as_ref().map(|d| d.finished()).unwrap_or(false) {
                    finalize_dest(st, core, client, retry, ctx);
                }
            }

            MhhMsg::MigrationRetry { client, attempt } => {
                // Watchdog for an un-acked outbound migration (recovery mode
                // only — never armed otherwise). If the ack arrived in the
                // meantime the outbound state is gone and the timer is moot;
                // a timer from a superseded attempt is ignored too.
                let Some(interval) = retry else { return };
                let st = self.entry_unknown(client);
                let Some(ob) = st.outbound.as_mut() else {
                    return;
                };
                if ob.attempt != attempt {
                    return;
                }
                if attempt + 1 >= MAX_MIGRATION_RETRIES {
                    // Give up: the first hop (or the path beyond it) stayed
                    // unreachable across every attempt. Keep the subscription
                    // rooted here — clearing the accept-only-from label lets
                    // events flow into the local anchor again, and the
                    // client's next reconnect triggers a fresh handoff from
                    // this broker. The first-hop filter entry is left in
                    // place: at worst it forwards copies toward a region the
                    // fault schedule is already dropping, and removing it
                    // could sever an unrelated subscriber with the same
                    // filter.
                    let filter = ob.filter.clone();
                    st.outbound = None;
                    st.stream = None;
                    core.filters.set_label(Peer::Client(client), &filter, None);
                    if st.anchor.is_none() {
                        st.anchor = Some(AnchorState::default());
                    }
                    return;
                }
                ob.attempt = attempt + 1;
                let next_attempt = ob.attempt;
                let (first_hop, dest, filter) = (ob.first_hop, ob.dest, ob.filter.clone());
                // Re-send without cancel_prev: the first attempt already
                // decided whether the previous-path entry should go.
                ctx.send_protocol(
                    first_hop,
                    MhhMsg::SubMigration {
                        client,
                        filter,
                        dest,
                        origin: core.id,
                        cancel_prev: false,
                    },
                );
                ctx.schedule_protocol(
                    interval,
                    MhhMsg::MigrationRetry {
                        client,
                        attempt: next_attempt,
                    },
                );
            }
        }
    }

    fn on_client_event(
        &mut self,
        core: &mut BrokerCore,
        client: ClientId,
        event: &Event,
        _from: Peer,
        ctx: &mut Ctx<'_>,
    ) {
        let connected = core.is_connected(client);
        let Some(st) = self.clients.get_mut(&client) else {
            // No protocol state: the client is simply attached and live.
            if connected {
                core.deliver(client, event, ctx);
            }
            return;
        };
        if let Some(d) = st.dest.as_mut() {
            // Newly arriving event at a migration destination: buffered until
            // event migration finishes so older migrated events go first.
            match d.new_q.as_mut() {
                Some(q) => q.push(event.clone()),
                None => {
                    let mut q = EventQueue::new(core.alloc_pq_id(client), QueueKind::Persistent);
                    q.push(event.clone());
                    d.new_q = Some(q);
                }
            }
            return;
        }
        if let Some(tq) = st.tq.as_mut() {
            // In-transit event captured on a migration path (the
            // accept-only-from label guarantees it came from the right
            // neighbor).
            tq.queue.push(event.clone());
            return;
        }
        if let Some(anchor) = st.anchor.as_ref() {
            if let Some(open) = anchor.open {
                if let Some(q) = st.local.get_mut(&open.seq) {
                    q.push(event.clone());
                    return;
                }
            }
            if connected {
                core.deliver(client, event, ctx);
                return;
            }
            // Anchor exists but no open queue and the client is away: open
            // one defensively rather than dropping the event.
            let pq_id = core.alloc_pq_id(client);
            let mut q = EventQueue::new(pq_id, QueueKind::Persistent);
            q.push(event.clone());
            let anchor = st.anchor.as_mut().expect("anchor present");
            anchor.list.push(pq_id);
            anchor.open = Some(pq_id);
            st.park(q);
            return;
        }
        if connected {
            core.deliver(client, event, ctx);
        }
        // Otherwise the event matched a stale entry; dropping it here would
        // surface as loss in the delivery audit, which is the correct way to
        // expose a protocol bug.
    }

    fn on_restart(&mut self, core: &mut BrokerCore, ctx: &mut Ctx<'_>) {
        // A crash loses every pending timer and every in-flight message to or
        // from this broker; the durable part (filter table, connections,
        // protocol state) came back via the checkpoint. Re-arm whatever was
        // driven by the lost messages so no handoff stalls forever.
        let retry = self.retry;
        for (&client, st) in self.clients.iter_mut() {
            // The pacing timer of an event-migration stream died with us.
            if st.stream.is_some() {
                ctx.schedule_protocol(STREAM_TICK, MhhMsg::StreamTick { client });
            }
            // An outbound migration may have lost its sub_migration (sent
            // just before the crash) or the returning ack: re-send and start
            // a fresh watchdog generation. The path brokers treat the
            // retransmission as a duplicate of a window they already hold.
            if let Some(ob) = st.outbound.as_mut() {
                ob.attempt = 0;
                let first_hop = ob.first_hop;
                let dest = ob.dest;
                let filter = ob.filter.clone();
                ctx.send_protocol(
                    first_hop,
                    MhhMsg::SubMigration {
                        client,
                        filter,
                        dest,
                        origin: core.id,
                        cancel_prev: false,
                    },
                );
                if let Some(interval) = retry {
                    ctx.schedule_protocol(interval, MhhMsg::MigrationRetry { client, attempt: 0 });
                }
            }
            // A destination mid-drain may have lost the drain_request (or the
            // reply): ask again. A double drain is harmless — the holder
            // answers an already-drained queue with just drain_complete.
            if let Some(d) = st.dest.as_ref() {
                if let Some(pq) = d.pulling {
                    ctx.send_protocol(pq.broker, MhhMsg::DrainRequest { client, pq });
                }
            }
        }
    }

    fn buffered_events(&self) -> Vec<(ClientId, Event)> {
        self.clients
            .iter()
            .flat_map(|(c, st)| st.buffered().into_iter().map(move |e| (*c, e)))
            .collect()
    }

    fn buffered_bytes(&self) -> u64 {
        self.clients.values().map(MhhClient::buffered_bytes).sum()
    }
}
