//! MHH protocol messages.
//!
//! These are the messages of Section 4 of the paper (`handoff_request`,
//! `sub_migration`, `sub_migration_ack`, `deliver_TQ`) plus the event- and
//! queue-transfer messages that realise event migration and the distributed
//! PQ-list of Section 4.3.

use mhh_pubsub::{BrokerId, ClientId, Event, FilterRef, PqId, ProtocolMessage};
use mhh_simnet::TrafficClass;

/// Whether a transferred event belongs to the PQ-list portion of event
/// migration or to a temporary queue captured along the migration path.
/// The destination delivers all PQ-list events first, then the TQ events,
/// then newly-arrived events, which preserves per-publisher order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferStage {
    /// An event from a persistent queue (the stored backlog).
    PqList,
    /// An event captured in a temporary queue during the handoff.
    Tq,
}

/// The MHH message set.
#[derive(Debug, Clone)]
pub enum MhhMsg {
    /// Sent by the new broker to the client's last-visited broker to start a
    /// silent-move handoff (Section 4.2).
    HandoffRequest {
        /// The reconnecting client.
        client: ClientId,
        /// The broker the client now connects to.
        new_broker: BrokerId,
        /// The client's filter (so a broker with no state can still proceed).
        filter: FilterRef,
    },
    /// Hop-by-hop subscription migration (Section 4.1).
    SubMigration {
        /// The migrating client.
        client: ClientId,
        /// The client's filter.
        filter: FilterRef,
        /// The migration destination broker.
        dest: BrokerId,
        /// The broker the migration started from.
        origin: BrokerId,
        /// True when the sender no longer needs this filter for any other
        /// subscriber, so the receiver may delete its entry for the sender
        /// (the "cancel the filter" indication of Section 4.1).
        cancel_prev: bool,
    },
    /// Acknowledgement flowing back toward the origin; by FIFO it pushes all
    /// in-transit events on the link ahead of it.
    SubMigrationAck {
        /// The migrating client.
        client: ClientId,
    },
    /// Ask the next broker on the path to forward its temporary queue to the
    /// destination and propagate the request onward.
    DeliverTq {
        /// The migrating client.
        client: ClientId,
        /// Where the TQ contents must be sent.
        dest: BrokerId,
    },
    /// A batch of migrated events (moved as one network message, like a
    /// queue-segment transfer).
    PqTransfer {
        /// The client the events belong to.
        client: ClientId,
        /// The events being moved, oldest first.
        events: Vec<Event>,
        /// PQ-list or TQ portion.
        stage: TransferStage,
    },
    /// The ordered list of PQ-list elements that remain to be drained, sent
    /// by the origin to the destination after it has streamed its own leading
    /// elements (the distributed linked list of Section 4.3).
    Manifest {
        /// The client the list belongs to.
        client: ClientId,
        /// Remaining queue references, oldest first.
        remaining: Vec<PqId>,
    },
    /// Ask a broker holding a parked PQ-list element to stream it to the
    /// requesting destination.
    DrainRequest {
        /// The client the queue belongs to.
        client: ClientId,
        /// Which queue to stream.
        pq: PqId,
    },
    /// All events of the requested queue have been streamed.
    DrainComplete {
        /// The client the queue belongs to.
        client: ClientId,
        /// The queue that finished draining.
        pq: PqId,
    },
    /// Self-scheduled timer at the origin pacing the batched streaming of its
    /// stored queue (never transported on a link).
    StreamTick {
        /// The client whose queue is being streamed.
        client: ClientId,
    },
    /// Sent by the destination to the origin when the client disconnects
    /// again before event migration finished (Section 4.3): the origin stops
    /// streaming and leaves the rest of its queue parked as a PQ-list
    /// element.
    StopEventMigration {
        /// The client whose migration is aborted.
        client: ClientId,
    },
    /// Self-scheduled watchdog at the origin of an outbound migration (never
    /// transported on a link). Armed only when the protocol runs with
    /// recovery enabled: if the first hop's `sub_migration_ack` has not
    /// arrived when it fires (the hop crashed or the message fell into an
    /// outage window), the `sub_migration` is re-sent, and after a bounded
    /// number of attempts the migration is abandoned so the subscription
    /// root keeps collecting events here instead of stalling forever.
    MigrationRetry {
        /// The client whose outbound migration is being watched.
        client: ClientId,
        /// The attempt this watchdog was armed for; stale timers from an
        /// earlier attempt are ignored.
        attempt: u32,
    },
}

impl ProtocolMessage for MhhMsg {
    fn kind(&self) -> &'static str {
        match self {
            MhhMsg::HandoffRequest { .. } => "handoff_request",
            MhhMsg::SubMigration { .. } => "sub_migration",
            MhhMsg::SubMigrationAck { .. } => "sub_migration_ack",
            MhhMsg::DeliverTq { .. } => "deliver_tq",
            MhhMsg::PqTransfer { .. } => "pq_transfer",
            MhhMsg::Manifest { .. } => "pq_manifest",
            MhhMsg::DrainRequest { .. } => "drain_request",
            MhhMsg::DrainComplete { .. } => "drain_complete",
            MhhMsg::StreamTick { .. } => "stream_tick",
            MhhMsg::StopEventMigration { .. } => "stop_event_migration",
            MhhMsg::MigrationRetry { .. } => "migration_retry",
        }
    }

    fn traffic_class(&self) -> TrafficClass {
        match self {
            MhhMsg::PqTransfer { .. } => TrafficClass::MobilityTransfer,
            _ => TrafficClass::MobilityControl,
        }
    }

    fn wire_bytes(&self) -> u32 {
        match self {
            MhhMsg::PqTransfer { events, .. } => events.iter().map(Event::wire_size).sum(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_messages_count_as_transfers_and_controls() {
        let t = MhhMsg::PqTransfer {
            client: ClientId(0),
            events: vec![mhh_pubsub::event::EventBuilder::new()
                .attr("group", 1i64)
                .build(1, ClientId(1), 0)],
            stage: TransferStage::PqList,
        };
        assert_eq!(t.traffic_class(), TrafficClass::MobilityTransfer);
        assert_eq!(t.kind(), "pq_transfer");

        let c = MhhMsg::HandoffRequest {
            client: ClientId(0),
            new_broker: BrokerId(1),
            filter: FilterRef::default(),
        };
        assert_eq!(c.traffic_class(), TrafficClass::MobilityControl);
        assert_eq!(c.kind(), "handoff_request");
        let d = MhhMsg::DeliverTq {
            client: ClientId(0),
            dest: BrokerId(2),
        };
        assert_eq!(d.traffic_class(), TrafficClass::MobilityControl);
    }
}
