//! Delivery auditing.
//!
//! The paper claims MHH (and sub-unsub) guarantee *exactly-once, ordered*
//! delivery to mobile clients, while home-broker "may incur the loss of some
//! events during a handoff process". This module turns those claims into
//! measurable quantities over the logs a simulation run produces:
//!
//! * **lost** — events a subscriber should have received but that are neither
//!   delivered nor still buffered anywhere at the end of the run,
//! * **duplicates** — extra copies delivered,
//! * **out-of-order** — deliveries violating per-publisher order,
//! * **pending** — matching events still sitting in a protocol queue
//!   (the client simply had not reconnected yet; not a protocol fault).
//!
//! # One classification pass
//!
//! [`classify`] is the only place that decides what each subscriber should
//! have received and what became of it; [`audit`] and the handover and
//! recovery ledgers of the evaluation harness are folds over its
//! per-subscriber [`SubscriberOutcome`]s. The pass is *event-major*: the
//! subscribers' filters go into one [`FilterTable`] (the brokers' own indexed
//! matcher), every published event is matched against it once, and each
//! subscriber's log is then classified against a dense per-event state array
//! (expected / seen / buffered bits, reused across subscribers by stamping
//! each word with the subscriber's epoch) and a dense per-publisher
//! last-sequence array. Cost is O(published × matches + deliveries) and the
//! working memory is that one state array plus the matched event indices —
//! where a subscriber-major audit evaluated every (subscriber, event) pair
//! and pushed every delivery through ordered sets.
//!
//! # What a delivery log holds
//!
//! A [`DeliveryRecord`] is only *when* and *which event*: 16 bytes. The
//! event's publisher, sequence number and publication time are properties of
//! the event, kept once in the publishers' `published` logs; the pass interns
//! those events into a dense origin array and reads all three from it, one
//! id lookup per delivery (multiply-mix hashed, as the engine's link keys).
//! The [`Classification`] it returns keeps that array, so a ledger that dates
//! a delivery by its publication reads it from there. A delivered id that was
//! never published has no origin: it can be a duplicate, never out of order.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use mhh_simnet::clocks::LinkKeyHasher;
use mhh_simnet::SimTime;

use crate::address::{BrokerId, ClientId, Peer};
use crate::client::DeliveryRecord;
use crate::event::{Event, EventId};
use crate::filter::Filter;
use crate::filter_table::FilterTable;

/// The result of auditing one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeliveryAudit {
    /// Total (subscriber, matching event) pairs that should eventually be
    /// delivered.
    pub expected: u64,
    /// Distinct (subscriber, event) deliveries observed.
    pub delivered: u64,
    /// Extra copies delivered beyond the first.
    pub duplicates: u64,
    /// Matching events still buffered in some protocol queue at the end of
    /// the run.
    pub pending: u64,
    /// Matching events that are neither delivered nor buffered: real loss.
    pub lost: u64,
    /// Per-publisher order violations observed in delivery logs.
    pub out_of_order: u64,
}

impl DeliveryAudit {
    /// True when the run satisfied exactly-once, ordered delivery
    /// (pending events are allowed — they are not lost).
    pub fn is_reliable(&self) -> bool {
        self.lost == 0 && self.duplicates == 0 && self.out_of_order == 0
    }

    /// Sum a classified run into the run-level counts.
    pub fn from_outcomes(outcomes: &[SubscriberOutcome]) -> DeliveryAudit {
        let mut audit = DeliveryAudit::default();
        for o in outcomes {
            audit.expected += o.expected;
            audit.delivered += o.delivered;
            audit.duplicates += o.duplicates.len() as u64;
            audit.pending += o.pending;
            audit.lost += o.lost_published_at.len() as u64;
            audit.out_of_order += o.out_of_order;
        }
        audit
    }

    /// Fraction of expected deliveries that were lost.
    pub fn loss_rate(&self) -> f64 {
        if self.expected == 0 {
            0.0
        } else {
            self.lost as f64 / self.expected as f64
        }
    }
}

/// One subscriber's view needed by the audit.
#[derive(Debug, Clone)]
pub struct SubscriberLog<'a> {
    /// The subscriber.
    pub client: ClientId,
    /// Its subscription.
    pub filter: &'a Filter,
    /// Every delivery it received, in arrival order.
    pub deliveries: &'a [DeliveryRecord],
}

/// What became of one subscriber's expected events and of its log — one
/// entry of [`classify`]'s result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubscriberOutcome {
    /// Distinct published events matching the filter, own publications
    /// excluded (reverse path forwarding never returns an event to its
    /// source).
    pub expected: u64,
    /// Expected events delivered at least once.
    pub delivered: u64,
    /// Expected events not delivered but still buffered for this client.
    pub pending: u64,
    /// First deliveries whose sequence number did not exceed the previous
    /// first delivery from the same publisher.
    pub out_of_order: u64,
    /// Positions in the log of the deliveries that repeat an earlier one,
    /// ascending.
    pub duplicates: Vec<usize>,
    /// Publication time of every expected event neither delivered nor
    /// pending: real loss.
    pub lost_published_at: Vec<SimTime>,
}

/// Per-event flags of the subscriber being classified.
const EXPECTED: u32 = 1;
const SEEN: u32 = 2;
const BUFFERED: u32 = 4;
const FLAGS: u32 = EXPECTED | SEEN | BUFFERED;
/// The subscriber's epoch sits above the flags in a state word.
const EPOCH_SHIFT: u32 = 3;

/// One word per dense event index: the flags in the low bits, the epoch of
/// the subscriber that wrote them above. A word from another epoch reads as
/// no flags, so moving to the next subscriber clears nothing.
struct EventState {
    words: Vec<u32>,
    epoch: u32,
}

impl EventState {
    fn flags(&self, event: u32) -> u32 {
        let word = self.words[event as usize];
        if word & !FLAGS == self.epoch {
            word & FLAGS
        } else {
            0
        }
    }

    fn raise(&mut self, event: u32, flag: u32) {
        self.words[event as usize] = self.epoch | self.flags(event) | flag;
    }
}

/// Dense indices keyed by a single `u64` (an [`EventId`], a publisher's id
/// widened), hashed by one multiply-mix finalisation instead of SipHash.
/// Nothing assumes the keys are dense.
type DenseIndex<K> = HashMap<K, u32, BuildHasherDefault<LinkKeyHasher>>;

/// Dense slots for the publishers of the published events, each holding the
/// last sequence number first-delivered to the subscriber being classified,
/// stamped with that subscriber's epoch like [`EventState`].
#[derive(Default)]
struct PublisherSlots {
    slots: DenseIndex<u64>,
    last_seq: Vec<(u32, u64)>,
}

impl PublisherSlots {
    fn slot(&mut self, publisher: ClientId) -> u32 {
        let (slot, new) = intern(&mut self.slots, u64::from(publisher.0));
        if new {
            self.last_seq.push((0, 0));
        }
        slot
    }
}

/// The dense index of `key` — the next unused one when the key is new, which
/// the flag reports so the caller can grow what the index addresses.
fn intern<K: Eq + Hash>(dense: &mut DenseIndex<K>, key: K) -> (u32, bool) {
    let next = dense.len() as u32;
    let index = *dense.entry(key).or_insert(next);
    (index, index == next)
}

/// What a delivery log does not repeat about a published event.
#[derive(Debug, Clone, Copy)]
struct Origin {
    published_at: SimTime,
    seq: u64,
    /// The publisher's [`PublisherSlots`] slot.
    publisher: u32,
}

/// [`classify`]'s result: one outcome per subscriber, and the published
/// events it interned, which date a delivery by its publication.
#[derive(Debug)]
pub struct Classification {
    /// One outcome per entry of `subscribers`, in the same order.
    pub outcomes: Vec<SubscriberOutcome>,
    /// Dense index of every id published or delivered; the published ones
    /// come first, so only they have an [`Origin`].
    dense: DenseIndex<EventId>,
    origin: Vec<Origin>,
}

impl Classification {
    /// Publication time of the event `id` (of its last publication, when
    /// the id was published twice); `None` when it was never published.
    pub fn published_at(&self, id: EventId) -> Option<SimTime> {
        let &index = self.dense.get(&id)?;
        self.origin.get(index as usize).map(|o| o.published_at)
    }
}

/// Classify a run: one [`SubscriberOutcome`] per entry of `subscribers`, in
/// the same order. Arguments as for [`audit`]; `published` may be any
/// iterator of events, so the caller can chain the publishers' own logs
/// instead of copying them into one slice. An id occurring twice in
/// `published` is one event (expected when any occurrence matches, with the
/// publisher, sequence number and publication time of the last one); a
/// delivered id that was never published can only be a duplicate.
pub fn classify<'e>(
    published: impl IntoIterator<Item = &'e Event>,
    subscribers: &[SubscriberLog<'_>],
    buffered: &[(ClientId, EventId)],
) -> Classification {
    assert!(
        subscribers.len() < (1 << (32 - EPOCH_SHIFT)),
        "the state words keep the subscriber epoch above the flag bits"
    );
    // The table's peers are subscriber *slots*: targets come back as indices
    // into `subscribers`, and two logs of one client stay two subscribers.
    // Nothing is a hop here, so no entry is excluded as the arrival link.
    let mut table = FilterTable::new();
    for (slot, sub) in subscribers.iter().enumerate() {
        table.add(Peer::Client(ClientId(slot as u32)), sub.filter.clone());
    }
    let arrival = Peer::Broker(BrokerId(u32::MAX));

    // Event-major: match each published event once, handing its dense index
    // to every subscriber that expects it.
    let mut dense = DenseIndex::default();
    let mut publishers = PublisherSlots::default();
    let mut origin: Vec<Origin> = Vec::new();
    let mut expected: Vec<Vec<u32>> = vec![Vec::new(); subscribers.len()];
    for event in published {
        let (index, new) = intern(&mut dense, event.id);
        let of_event = Origin {
            published_at: event.published_at,
            seq: event.seq,
            publisher: publishers.slot(event.publisher),
        };
        if new {
            origin.push(of_event);
        } else {
            origin[index as usize] = of_event;
        }
        for target in table.matching_targets(event, arrival) {
            let Peer::Client(ClientId(slot)) = target else {
                unreachable!("the audit table holds client entries only");
            };
            if subscribers[slot as usize].client != event.publisher {
                expected[slot as usize].push(index);
            }
        }
    }

    // Buffered pairs grouped by client; an id nobody published is expected
    // by nobody.
    let mut held: Vec<(ClientId, u32)> = buffered
        .iter()
        .filter_map(|(client, id)| dense.get(id).map(|&index| (*client, index)))
        .collect();
    held.sort_unstable();

    let mut state = EventState {
        words: vec![0; origin.len()],
        epoch: 0,
    };

    let mut outcomes = Vec::with_capacity(subscribers.len());
    for (slot, sub) in subscribers.iter().enumerate() {
        state.epoch = (slot as u32 + 1) << EPOCH_SHIFT;
        let mut outcome = SubscriberOutcome::default();

        let mut mine = std::mem::take(&mut expected[slot]);
        mine.retain(|&event| {
            let first = state.flags(event) & EXPECTED == 0;
            state.raise(event, EXPECTED);
            first
        });
        outcome.expected = mine.len() as u64;
        let from = held.partition_point(|&(client, _)| client < sub.client);
        for &(_, event) in held[from..]
            .iter()
            .take_while(|&&(client, _)| client == sub.client)
        {
            state.raise(event, BUFFERED);
        }

        for (position, d) in sub.deliveries.iter().enumerate() {
            let (event, new) = intern(&mut dense, d.event);
            if new {
                state.words.push(0);
            }
            let flags = state.flags(event);
            if flags & SEEN != 0 {
                outcome.duplicates.push(position);
                continue;
            }
            state.raise(event, SEEN);
            outcome.delivered += u64::from(flags & EXPECTED != 0);
            // Per-publisher ordering: the sequence numbers first-delivered
            // from one publisher must be strictly increasing in log order.
            // An id never published has no publisher to be out of order
            // against.
            let Some(of_event) = origin.get(event as usize) else {
                continue;
            };
            let last = &mut publishers.last_seq[of_event.publisher as usize];
            if last.0 == state.epoch && of_event.seq <= last.1 {
                outcome.out_of_order += 1;
            }
            *last = (state.epoch, of_event.seq);
        }

        for &event in &mine {
            let flags = state.flags(event);
            if flags & SEEN != 0 {
                continue;
            }
            if flags & BUFFERED != 0 {
                outcome.pending += 1;
            } else {
                outcome
                    .lost_published_at
                    .push(origin[event as usize].published_at);
            }
        }
        outcomes.push(outcome);
    }
    Classification {
        outcomes,
        dense,
        origin,
    }
}

/// Audit a run.
///
/// * `published` — every event actually handed to a broker by a publisher;
/// * `subscribers` — each subscriber with its filter and delivery log;
/// * `buffered` — events still held in protocol queues at the end of the
///   run, as `(client, event id)` pairs.
pub fn audit(
    published: &[Event],
    subscribers: &[SubscriberLog<'_>],
    buffered: &[(ClientId, EventId)],
) -> DeliveryAudit {
    DeliveryAudit::from_outcomes(&classify(published, subscribers, buffered).outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;
    use crate::filter::Op;

    fn ev(id: u64, publisher: u32, seq: u64, group: i64) -> Event {
        EventBuilder::new()
            .attr("group", group)
            .build(id, ClientId(publisher), seq)
    }

    fn delivery(id: u64, at_ms: u64) -> DeliveryRecord {
        DeliveryRecord {
            at: SimTime::from_millis(at_ms),
            event: EventId(id),
        }
    }

    #[test]
    fn perfect_run_is_reliable() {
        let published = vec![ev(1, 9, 0, 1), ev(2, 9, 1, 1), ev(3, 9, 2, 2)];
        let filter = Filter::single("group", Op::Eq, 1i64);
        let deliveries = vec![delivery(1, 10), delivery(2, 20)];
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &deliveries,
        }];
        let audit = audit(&published, &subs, &[]);
        assert_eq!(audit.expected, 2);
        assert_eq!(audit.delivered, 2);
        assert!(audit.is_reliable());
        assert_eq!(audit.loss_rate(), 0.0);
    }

    #[test]
    fn missing_event_is_lost_unless_buffered() {
        let published = vec![ev(1, 9, 0, 1), ev(2, 9, 1, 1)];
        let filter = Filter::single("group", Op::Eq, 1i64);
        let deliveries = vec![delivery(1, 10)];
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &deliveries,
        }];
        let lost = audit(&published, &subs, &[]);
        assert_eq!(lost.lost, 1);
        assert!(!lost.is_reliable());
        assert!(lost.loss_rate() > 0.0);

        let pending = audit(&published, &subs, &[(ClientId(0), EventId(2))]);
        assert_eq!(pending.lost, 0);
        assert_eq!(pending.pending, 1);
        assert!(pending.is_reliable());
    }

    #[test]
    fn duplicates_are_counted() {
        let published = vec![ev(1, 9, 0, 1)];
        let filter = Filter::single("group", Op::Eq, 1i64);
        let deliveries = vec![delivery(1, 10), delivery(1, 20)];
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &deliveries,
        }];
        let a = audit(&published, &subs, &[]);
        assert_eq!(a.duplicates, 1);
        assert_eq!(a.delivered, 1);
        assert!(!a.is_reliable());
    }

    #[test]
    fn out_of_order_detected_per_publisher() {
        let published = vec![ev(1, 9, 0, 1), ev(2, 9, 1, 1), ev(3, 7, 0, 1)];
        let filter = Filter::single("group", Op::Eq, 1i64);
        // Publisher 9's events delivered in reverse order; publisher 7 fine.
        let deliveries = vec![delivery(2, 10), delivery(1, 20), delivery(3, 30)];
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &deliveries,
        }];
        let a = audit(&published, &subs, &[]);
        assert_eq!(a.out_of_order, 1);
        assert!(!a.is_reliable());
    }

    #[test]
    fn classify_locates_duplicates_and_dates_losses() {
        let at = SimTime::from_millis;
        let published = vec![
            ev(1, 9, 0, 1).stamped(at(5)),
            ev(2, 9, 1, 1).stamped(at(15)),
            ev(3, 9, 2, 1).stamped(at(25)),
            ev(4, 9, 3, 1).stamped(at(35)),
        ];
        let filter = Filter::single("group", Op::Eq, 1i64);
        let deliveries = vec![
            delivery(1, 10),
            delivery(1, 20),
            delivery(7, 30),
            delivery(1, 40),
        ];
        let quiet = Filter::single("group", Op::Eq, 2i64);
        let subs = [
            SubscriberLog {
                client: ClientId(0),
                filter: &filter,
                deliveries: &deliveries,
            },
            SubscriberLog {
                client: ClientId(1),
                filter: &quiet,
                deliveries: &[],
            },
        ];
        let outcomes = classify(&published, &subs, &[(ClientId(0), EventId(3))]).outcomes;
        assert_eq!(
            outcomes[0],
            SubscriberOutcome {
                expected: 4,
                delivered: 1,
                pending: 1,
                out_of_order: 0,
                duplicates: vec![1, 3],
                lost_published_at: vec![at(15), at(35)],
            }
        );
        assert_eq!(outcomes[1], SubscriberOutcome::default());
        assert_eq!(
            DeliveryAudit::from_outcomes(&outcomes),
            audit(&published, &subs, &[(ClientId(0), EventId(3))])
        );
    }

    #[test]
    fn unpublished_ids_repeat_but_are_never_out_of_order() {
        let at = SimTime::from_millis;
        let published = vec![ev(1, 9, 5, 1).stamped(at(5)), ev(2, 9, 6, 1).stamped(at(6))];
        let filter = Filter::single("group", Op::Eq, 1i64);
        // Id 8 was never published: its first copy is neither expected nor
        // ordered against publisher 9, its second is a duplicate.
        let deliveries = vec![
            delivery(8, 10),
            delivery(2, 20),
            delivery(8, 30),
            delivery(1, 40),
        ];
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &deliveries,
        }];
        let classified = classify(&published, &subs, &[]);
        assert_eq!(
            classified.outcomes[0],
            SubscriberOutcome {
                expected: 2,
                delivered: 2,
                pending: 0,
                out_of_order: 1,
                duplicates: vec![2],
                lost_published_at: vec![],
            }
        );
        assert_eq!(classified.published_at(EventId(2)), Some(at(6)));
        assert_eq!(classified.published_at(EventId(8)), None);
        assert_eq!(classified.published_at(EventId(3)), None);
    }

    #[test]
    fn own_publications_are_not_expected() {
        let published = vec![ev(1, 0, 0, 1)];
        let filter = Filter::single("group", Op::Eq, 1i64);
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &[],
        }];
        let a = audit(&published, &subs, &[]);
        assert_eq!(a.expected, 0);
        assert!(a.is_reliable());
    }

    #[test]
    fn non_matching_events_are_not_expected() {
        let published = vec![ev(1, 9, 0, 2)];
        let filter = Filter::single("group", Op::Eq, 1i64);
        let subs = [SubscriberLog {
            client: ClientId(0),
            filter: &filter,
            deliveries: &[],
        }];
        assert_eq!(audit(&published, &subs, &[]).expected, 0);
    }
}
