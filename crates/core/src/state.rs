//! Per-broker, per-client MHH state.
//!
//! At any moment a broker can play several roles for one client at once
//! (hold parked PQ-list elements from an old visit, sit on the path of the
//! client's current migration, and so on), so the state is a struct of
//! optional role components rather than a single phase enum.

use std::collections::{BTreeMap, VecDeque};

use mhh_pubsub::{BrokerId, ClientId, Event, EventQueue, FilterRef, PqId, QueueKind};

/// This broker is the client's current subscription root ("anchor").
#[derive(Debug, Clone, Default)]
pub struct AnchorState {
    /// The client's distributed PQ-list: ordered references (oldest first) to
    /// every queue that still holds undelivered events for the client. Local
    /// elements live in [`MhhClient::local`]; remote ones on other brokers.
    pub list: Vec<PqId>,
    /// The queue currently collecting newly arriving events while the client
    /// is disconnected (always the last list element). `None` while the
    /// client is connected and fully caught up.
    pub open: Option<PqId>,
}

/// This broker sits on a migration path and captures in-transit events in a
/// temporary queue.
#[derive(Debug, Clone)]
pub struct TqState {
    /// The temporary queue.
    pub queue: EventQueue,
    /// The next broker on the path toward the destination.
    pub next: BrokerId,
    /// The migration destination.
    pub dest: BrokerId,
    /// Whether the next hop's `sub_migration_ack` has arrived. The capture
    /// window may only close after it: FIFO guarantees every old-direction
    /// in-transit event from the next hop precedes the ack, so flushing
    /// earlier would strand stragglers. Under constant latency the ack
    /// always beats the `deliver_TQ` chain; under link jitter the chain can
    /// arrive first and must wait (see `deliver_pending`).
    pub acked: bool,
    /// A `deliver_TQ` that arrived before the ack, parked until the capture
    /// window can close (the destination it carried).
    pub deliver_pending: Option<BrokerId>,
}

/// This broker is the origin of an outbound migration and is waiting for the
/// first-hop acknowledgement before it starts event migration.
#[derive(Debug, Clone)]
pub struct OutboundState {
    /// The migration destination (where the client now is, or where it
    /// proclaimed it would go).
    pub dest: BrokerId,
    /// The first hop of the overlay path toward the destination.
    pub first_hop: BrokerId,
    /// The client's filter.
    pub filter: FilterRef,
    /// How many times the `sub_migration` has been (re-)sent without an
    /// acknowledgement. Only advances when the protocol runs with recovery
    /// enabled (see `Mhh::with_recovery`); stale watchdog timers carry the
    /// attempt they were armed for and are ignored when this has moved on.
    pub attempt: u32,
}

/// Batched streaming of this broker's locally stored PQ-list elements toward
/// a migration destination (the origin side of event migration). Streaming
/// happens in small paced batches so that a `stop_event_migration` from the
/// destination can halt it and leave the remaining bulk parked here
/// (Section 4.3).
#[derive(Debug, Clone)]
pub struct StreamState {
    /// Where the events are being streamed to.
    pub dest: BrokerId,
    /// First hop of the overlay path (target of the `deliver_TQ` chain).
    pub first_hop: BrokerId,
    /// PQ-list elements not yet fully streamed; the front element may be
    /// partially drained.
    pub list: std::collections::VecDeque<PqId>,
    /// Set when the destination asked us to stop.
    pub stopped: bool,
}

/// This broker is the destination of an inbound migration.
#[derive(Debug, Clone)]
pub struct DestState {
    /// The broker the migration started from.
    pub origin: BrokerId,
    /// Whether the client is currently attached here (false for a proclaimed
    /// move whose client has not arrived yet, or after an abort).
    pub client_connected: bool,
    /// Whether the handoff was aborted by the client disconnecting again
    /// before event migration finished (Section 4.3).
    pub aborted: bool,
    /// Set once the hop-by-hop `sub_migration` reached this broker.
    pub got_sub_migration: bool,
    /// Set once the `deliver_TQ` chain reached this broker.
    pub tq_done: bool,
    /// The remaining PQ-list elements to drain (None until the manifest
    /// arrives).
    pub remaining: Option<VecDeque<PqId>>,
    /// The element currently being drained, if any.
    pub pulling: Option<PqId>,
    /// PQ-list events received while the client was not deliverable
    /// (parked on completion).
    pub imm: EventQueue,
    /// TQ-stage events received (delivered after all PQ-list events).
    pub tq_buf: EventQueue,
    /// Newly arriving events routed here after the subscription flipped
    /// (delivered last).
    pub new_q: Option<EventQueue>,
    /// The client's filter.
    pub filter: FilterRef,
}

impl DestState {
    /// Fresh destination state.
    pub fn new(
        origin: BrokerId,
        filter: FilterRef,
        client_connected: bool,
        imm: EventQueue,
        tq_buf: EventQueue,
    ) -> Self {
        DestState {
            origin,
            client_connected,
            aborted: false,
            got_sub_migration: false,
            tq_done: false,
            remaining: None,
            pulling: None,
            imm,
            tq_buf,
            new_q: None,
            filter,
        }
    }

    /// Has every PQ-list element been drained (or abandoned by an abort)?
    pub fn pq_done(&self) -> bool {
        if self.pulling.is_some() {
            return false;
        }
        match &self.remaining {
            None => false,
            Some(r) => r.is_empty() || self.aborted,
        }
    }

    /// Is the whole event migration finished (so the destination can close
    /// the handoff)?
    pub fn finished(&self) -> bool {
        self.got_sub_migration && self.tq_done && self.pq_done()
    }
}

/// All MHH state one broker keeps for one client.
#[derive(Debug, Clone, Default)]
pub struct MhhClient {
    /// The client's filter as this broker last learned it.
    pub filter: FilterRef,
    /// Queues physically stored at this broker, keyed by their PQ-id sequence
    /// number.
    pub local: BTreeMap<u32, EventQueue>,
    /// Set when this broker is the client's subscription root.
    pub anchor: Option<AnchorState>,
    /// Set when this broker captures in-transit events on a migration path.
    pub tq: Option<TqState>,
    /// Set while this broker waits for the first-hop ack of an outbound
    /// migration.
    pub outbound: Option<OutboundState>,
    /// Set while this broker streams its stored queues toward a migration
    /// destination.
    pub stream: Option<StreamState>,
    /// Set while an inbound migration is in progress.
    pub dest: Option<DestState>,
    /// A handoff request that arrived while this broker was still finishing
    /// an inbound migration for the same client; processed when it completes.
    pub pending_handoff: Option<BrokerId>,
    /// A `stop_event_migration` arrived before event streaming had started
    /// (the destination aborted very quickly); honoured as soon as streaming
    /// would begin.
    pub stop_requested: bool,
}

impl MhhClient {
    /// Create state for a client with the given filter.
    pub fn new(filter: FilterRef) -> Self {
        MhhClient {
            filter,
            ..Default::default()
        }
    }

    /// Store a queue locally.
    pub fn park(&mut self, queue: EventQueue) {
        self.local.insert(queue.id.seq, queue);
    }

    /// Take a locally stored queue by id.
    pub fn take_local(&mut self, pq: PqId) -> Option<EventQueue> {
        self.local.remove(&pq.seq)
    }

    /// Every event currently buffered at this broker for the client, in any
    /// role (used by the delivery audit and by tests).
    pub fn buffered(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for q in self.local.values() {
            out.extend(q.iter().cloned());
        }
        if let Some(tq) = &self.tq {
            out.extend(tq.queue.iter().cloned());
        }
        if let Some(dest) = &self.dest {
            out.extend(dest.imm.iter().cloned());
            out.extend(dest.tq_buf.iter().cloned());
            if let Some(q) = &dest.new_q {
                out.extend(q.iter().cloned());
            }
        }
        out
    }

    /// Modeled wire bytes of every event buffered at this broker for the
    /// client — the same walk as [`buffered`](Self::buffered) without
    /// cloning. Zero when payload modeling is off. Feeds the broker
    /// memory-high-water accounting.
    pub fn buffered_bytes(&self) -> u64 {
        let mut total: u64 = 0;
        for q in self.local.values() {
            total += q.iter().map(|e| e.wire_size() as u64).sum::<u64>();
        }
        if let Some(tq) = &self.tq {
            total += tq.queue.iter().map(|e| e.wire_size() as u64).sum::<u64>();
        }
        if let Some(dest) = &self.dest {
            total += dest.imm.iter().map(|e| e.wire_size() as u64).sum::<u64>();
            total += dest
                .tq_buf
                .iter()
                .map(|e| e.wire_size() as u64)
                .sum::<u64>();
            if let Some(q) = &dest.new_q {
                total += q.iter().map(|e| e.wire_size() as u64).sum::<u64>();
            }
        }
        total
    }

    /// Whether this broker holds no state for the client anymore and the
    /// entry can be dropped.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
            && self.anchor.is_none()
            && self.tq.is_none()
            && self.outbound.is_none()
            && self.stream.is_none()
            && self.dest.is_none()
            && self.pending_handoff.is_none()
    }
}

/// Convenience constructor for an empty queue.
pub fn empty_queue(id: PqId, kind: QueueKind) -> EventQueue {
    EventQueue::new(id, kind)
}

/// Convenience: a placeholder PQ id (used for destination-side buffers whose
/// identity only matters if they end up parked).
pub fn scratch_pq(broker: BrokerId, client: ClientId, seq: u32) -> PqId {
    PqId {
        broker,
        client,
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_pubsub::event::EventBuilder;

    fn q(seq: u32) -> EventQueue {
        EventQueue::new(
            PqId {
                broker: BrokerId(0),
                client: ClientId(0),
                seq,
            },
            QueueKind::Persistent,
        )
    }

    #[test]
    fn park_and_take_round_trip() {
        let mut c = MhhClient::default();
        c.park(q(3));
        assert!(!c.is_empty());
        let taken = c.take_local(PqId {
            broker: BrokerId(0),
            client: ClientId(0),
            seq: 3,
        });
        assert!(taken.is_some());
        assert!(c
            .take_local(scratch_pq(BrokerId(0), ClientId(0), 3))
            .is_none());
    }

    #[test]
    fn buffered_collects_all_roles() {
        let mut c = MhhClient::default();
        let mut pq = q(0);
        pq.push(EventBuilder::new().attr("a", 1i64).build(1, ClientId(9), 0));
        c.park(pq);
        let mut tq = q(1);
        tq.push(EventBuilder::new().attr("a", 1i64).build(2, ClientId(9), 1));
        c.tq = Some(TqState {
            queue: tq,
            next: BrokerId(1),
            dest: BrokerId(2),
            acked: false,
            deliver_pending: None,
        });
        let mut dest = DestState::new(BrokerId(3), FilterRef::default(), true, q(2), q(3));
        dest.imm
            .push(EventBuilder::new().attr("a", 1i64).build(3, ClientId(9), 2));
        c.dest = Some(dest);
        let buffered = c.buffered();
        assert_eq!(buffered.len(), 3);
    }

    #[test]
    fn dest_state_completion_logic() {
        let mut d = DestState::new(BrokerId(0), FilterRef::default(), true, q(0), q(1));
        assert!(!d.finished());
        d.got_sub_migration = true;
        d.tq_done = true;
        assert!(!d.pq_done(), "no manifest yet");
        d.remaining = Some(VecDeque::new());
        assert!(d.finished());
        // Pulling an element blocks completion.
        d.pulling = Some(scratch_pq(BrokerId(1), ClientId(0), 0));
        assert!(!d.finished());
        d.pulling = None;
        // Abort with non-empty remaining still counts as done (elements stay
        // parked where they are).
        d.remaining = Some(VecDeque::from(vec![scratch_pq(
            BrokerId(1),
            ClientId(0),
            1,
        )]));
        assert!(!d.pq_done());
        d.aborted = true;
        assert!(d.pq_done());
    }

    #[test]
    fn is_empty_reflects_roles() {
        let mut c = MhhClient::default();
        assert!(c.is_empty());
        c.anchor = Some(AnchorState::default());
        assert!(!c.is_empty());
        c.anchor = None;
        c.pending_handoff = Some(BrokerId(1));
        assert!(!c.is_empty());
    }
}
