//! Test-only reference accounting: the subscriber-major, set-based delivery
//! audit and ledger assembly the one-pass classification
//! ([`mhh_pubsub::classify`]) replaced, kept as the oracle the new pass is
//! compared against — over seeded random logs here, and over whole runs in
//! the runner's tests. A delivery record names only its event, so the oracle
//! reads each event's publisher, sequence number and publication time from
//! the published events (the last publication of an id wins), through
//! ordered maps of its own.

use std::collections::{BTreeMap, BTreeSet};

use mhh_pubsub::{ClientId, DeliveryAudit, Event, EventId};
use mhh_simnet::{DropCause, DropRecord, OutageWindow, SimTime};

use crate::metrics::{
    ClientHandoverLog, HandoverKind, HandoverLedger, HandoverRecord, OutageRecord, RecoveryLedger,
};

/// What one subscriber should get: every published event matching its
/// filter, except its own publications.
fn expected_of(published: &[Event], log: &ClientHandoverLog<'_>) -> BTreeSet<EventId> {
    published
        .iter()
        .filter(|e| e.publisher != log.client && log.filter.matches(e))
        .map(|e| e.id)
        .collect()
}

fn by_client(pairs: &[(ClientId, EventId)]) -> BTreeMap<ClientId, BTreeSet<EventId>> {
    let mut map: BTreeMap<ClientId, BTreeSet<EventId>> = BTreeMap::new();
    for (c, e) in pairs {
        map.entry(*c).or_default().insert(*e);
    }
    map
}

/// The set-based `mhh_pubsub::audit`.
pub(crate) fn audit(
    published: &[Event],
    clients: &[ClientHandoverLog<'_>],
    buffered: &[(ClientId, EventId)],
) -> DeliveryAudit {
    let buffered_by_client = by_client(buffered);
    let origin: BTreeMap<EventId, (ClientId, u64)> = published
        .iter()
        .map(|e| (e.id, (e.publisher, e.seq)))
        .collect();
    let mut result = DeliveryAudit::default();
    for sub in clients {
        let expected = expected_of(published, sub);
        result.expected += expected.len() as u64;

        let mut seen: BTreeSet<EventId> = BTreeSet::new();
        for d in sub.deliveries {
            if !seen.insert(d.event) {
                result.duplicates += 1;
            }
        }
        result.delivered += expected.intersection(&seen).count() as u64;

        let empty = BTreeSet::new();
        let buffered_here = buffered_by_client.get(&sub.client).unwrap_or(&empty);
        for missing in expected.difference(&seen) {
            if buffered_here.contains(missing) {
                result.pending += 1;
            } else {
                result.lost += 1;
            }
        }

        let mut last_seq: BTreeMap<ClientId, u64> = BTreeMap::new();
        let mut dup_guard: BTreeSet<EventId> = BTreeSet::new();
        for d in sub.deliveries {
            if !dup_guard.insert(d.event) {
                continue;
            }
            // An id never published has no publisher to be out of order
            // against.
            let Some(&(publisher, seq)) = origin.get(&d.event) else {
                continue;
            };
            if let Some(&prev) = last_seq.get(&publisher) {
                if seq <= prev {
                    result.out_of_order += 1;
                }
            }
            last_seq.insert(publisher, seq);
        }
    }
    result
}

/// The set-based `HandoverLedger::assemble`.
pub(crate) fn handover_ledger(
    published: &[Event],
    clients: &[ClientHandoverLog<'_>],
    pending: &[(ClientId, EventId)],
) -> HandoverLedger {
    let publish_time: BTreeMap<EventId, SimTime> =
        published.iter().map(|e| (e.id, e.published_at)).collect();
    let pending_by_client = by_client(pending);

    let mut records = Vec::new();
    for log in clients {
        let base = records.len();
        let mut di = 0usize;
        for rec in log.reconnects {
            let Some(disc) = log.disconnects.get(di).filter(|d| d.at <= rec.at) else {
                continue;
            };
            di += 1;
            records.push(HandoverRecord {
                client: log.client,
                kind: if disc.proclaimed_dest.is_some() {
                    HandoverKind::Proclaimed
                } else {
                    HandoverKind::Reactive
                },
                from: disc.broker,
                to: rec.to,
                departed: disc.at,
                arrived: rec.at,
                first_delivery: rec.first_delivery,
                is_handoff: rec.is_handoff,
                buffered: 0,
                lost: 0,
                duplicates: 0,
            });
        }
        if records.len() == base {
            continue;
        }
        let windows = &mut records[base..];
        let departs: Vec<SimTime> = windows.iter().map(|r| r.departed).collect();
        let window_of = |t: SimTime| departs.partition_point(|&d| d <= t).saturating_sub(1);

        let expected = expected_of(published, log);
        let mut seen: BTreeSet<EventId> = BTreeSet::new();
        for d in log.deliveries {
            if seen.insert(d.event) {
                let w = &mut windows[window_of(d.at)];
                if d.at >= w.arrived && publish_time.get(&d.event).is_some_and(|&p| p < w.arrived) {
                    w.buffered += 1;
                }
            } else {
                windows[window_of(d.at)].duplicates += 1;
            }
        }
        let empty = BTreeSet::new();
        let pending_here = pending_by_client.get(&log.client).unwrap_or(&empty);
        for missing in expected.difference(&seen) {
            if pending_here.contains(missing) {
                continue;
            }
            let at = publish_time.get(missing).copied().unwrap_or(SimTime::ZERO);
            windows[window_of(at)].lost += 1;
        }
    }
    HandoverLedger { records }
}

/// The set-based `RecoveryLedger::assemble`, with its per-delivery scan of
/// every window for the time-to-repair.
pub(crate) fn recovery_ledger(
    windows: &[OutageWindow],
    drops: &[DropRecord],
    published: &[Event],
    clients: &[ClientHandoverLog<'_>],
    pending: &[(ClientId, EventId)],
) -> RecoveryLedger {
    if windows.is_empty() && drops.is_empty() {
        return RecoveryLedger::default();
    }
    let mut records: Vec<OutageRecord> = windows
        .iter()
        .map(|w| OutageRecord {
            kind: w.kind.label(),
            scope: w.scope_label(),
            start: w.start,
            end: w.end,
            dropped_envelopes: 0,
            lost: 0,
            duplicates: 0,
            repair_ms: None,
        })
        .collect();
    let mut lost_envelopes = 0u64;
    let mut corrupted = 0u64;
    for d in drops {
        match d.cause {
            DropCause::Fault(w) => {
                if let Some(r) = records.get_mut(w) {
                    r.dropped_envelopes += 1;
                }
            }
            DropCause::Loss => lost_envelopes += 1,
            DropCause::Corruption => corrupted += 1,
        }
    }

    let mut by_end: Vec<usize> = (0..windows.len()).collect();
    by_end.sort_by_key(|&i| (windows[i].end, windows[i].start));
    let attribute = |t: SimTime| by_end.iter().copied().find(|&i| t < windows[i].end);

    let publish_time: BTreeMap<EventId, SimTime> =
        published.iter().map(|e| (e.id, e.published_at)).collect();
    let pending_by_client = by_client(pending);

    let mut unattributed_lost = 0u64;
    let mut unattributed_duplicates = 0u64;
    let mut first_after: Vec<Option<SimTime>> = vec![None; windows.len()];

    for log in clients {
        let expected = expected_of(published, log);
        let mut seen: BTreeSet<EventId> = BTreeSet::new();
        for d in log.deliveries {
            if !seen.insert(d.event) {
                match attribute(d.at) {
                    Some(i) => records[i].duplicates += 1,
                    None => unattributed_duplicates += 1,
                }
            }
            for (i, w) in windows.iter().enumerate() {
                if d.at >= w.end && first_after[i].is_none_or(|t| d.at < t) {
                    first_after[i] = Some(d.at);
                }
            }
        }
        let empty = BTreeSet::new();
        let pending_here = pending_by_client.get(&log.client).unwrap_or(&empty);
        for missing in expected.difference(&seen) {
            if pending_here.contains(missing) {
                continue;
            }
            let at = publish_time.get(missing).copied().unwrap_or(SimTime::ZERO);
            match attribute(at) {
                Some(i) => records[i].lost += 1,
                None => unattributed_lost += 1,
            }
        }
    }
    for (i, r) in records.iter_mut().enumerate() {
        r.repair_ms = first_after[i].map(|t| t.since(windows[i].end).as_millis_f64());
    }
    RecoveryLedger {
        records,
        unattributed_lost,
        unattributed_duplicates,
        lost_envelopes,
        corrupted,
        ..RecoveryLedger::default()
    }
}

mod tests {
    use super::*;
    use mhh_pubsub::client::{DeliveryRecord, DisconnectRecord, ReconnectRecord};
    use mhh_pubsub::delivery::SubscriberLog;
    use mhh_pubsub::event::EventBuilder;
    use mhh_pubsub::{BrokerId, Filter, Op};
    use mhh_simnet::random::DetRng;
    use mhh_simnet::{FaultKind, NodeId, OutageScope, TrafficClass};

    /// One client's owned logs; [`ClientHandoverLog`] borrows from it.
    struct Logs {
        client: ClientId,
        filter: Filter,
        disconnects: Vec<DisconnectRecord>,
        reconnects: Vec<ReconnectRecord>,
        deliveries: Vec<DeliveryRecord>,
    }

    /// Everything the three accounting functions read.
    struct Case {
        published: Vec<Event>,
        clients: Vec<Logs>,
        pending: Vec<(ClientId, EventId)>,
        windows: Vec<OutageWindow>,
        drops: Vec<DropRecord>,
    }

    fn ms(rng: &mut DetRng, below: u64) -> SimTime {
        SimTime::from_millis(rng.range_u64(0, below))
    }

    fn filter(rng: &mut DetRng) -> Filter {
        let lo = rng.index(8) as f64;
        match rng.index(5) {
            0 => Filter::match_all(),
            1 => Filter::single("group", Op::Eq, rng.index(3) as i64),
            2 => Filter::new(vec![])
                .and("v", Op::Ge, lo)
                .and("v", Op::Lt, lo + 4.0),
            3 => Filter::single("group", Op::Eq, rng.index(3) as i64).and("v", Op::Ge, lo),
            _ => Filter::single("v", Op::Lt, lo),
        }
    }

    /// Ids 1.. are published (some twice, with other content), 900.. never
    /// are; clients 0..subs subscribe (and may publish, and may own two
    /// logs), 50.. only publish.
    fn case(rng: &mut DetRng) -> Case {
        let subs = 1 + rng.index(5);
        let publisher = |rng: &mut DetRng| {
            ClientId(if rng.chance(0.4) {
                rng.index(subs) as u32
            } else {
                50 + rng.index(3) as u32
            })
        };

        let mut published: Vec<Event> = Vec::new();
        let mut seqs: BTreeMap<ClientId, u64> = BTreeMap::new();
        for _ in 0..rng.index(25) {
            let id = if !published.is_empty() && rng.chance(0.15) {
                published[rng.index(published.len())].id.0
            } else {
                published.len() as u64 + 1
            };
            let by = publisher(rng);
            let seq = seqs.entry(by).or_default();
            *seq += 1;
            published.push(
                EventBuilder::new()
                    .attr("group", rng.index(3) as i64)
                    .attr("v", rng.index(12) as f64)
                    .build(id, by, *seq)
                    .stamped(ms(rng, 1_000)),
            );
        }

        let clients = (0..subs)
            .map(|c| {
                // A shuffled sample of the published events (matching or
                // not) and of unpublished ids, some delivered repeatedly,
                // stamped in arrival order.
                let mut picks: Vec<DeliveryRecord> = Vec::new();
                for e in &published {
                    for _ in 0..[0, 0, 1, 1, 2, 3][rng.index(6)] {
                        picks.push(DeliveryRecord {
                            at: SimTime::ZERO,
                            event: e.id,
                        });
                    }
                }
                for _ in 0..rng.index(4) {
                    picks.push(DeliveryRecord {
                        at: SimTime::ZERO,
                        event: EventId(900 + rng.index(3) as u64),
                    });
                }
                rng.shuffle(&mut picks);
                let mut now = 0u64;
                for d in &mut picks {
                    now += rng.range_u64(0, 80);
                    d.at = SimTime::from_millis(now);
                }

                // Moves: optionally an initial attach first, then
                // disconnect/reconnect pairs, optionally a trailing park.
                let mut disconnects = Vec::new();
                let mut reconnects = Vec::new();
                let mut t = 0u64;
                let reconnect = |at: u64, rng: &mut DetRng| ReconnectRecord {
                    at: SimTime::from_millis(at),
                    from: None,
                    to: BrokerId(rng.index(3) as u32),
                    first_delivery: rng
                        .chance(0.5)
                        .then(|| SimTime::from_millis(at + rng.range_u64(0, 50))),
                    is_handoff: rng.chance(0.7),
                };
                if rng.chance(0.2) {
                    reconnects.push(reconnect(t, rng));
                }
                for _ in 0..rng.index(4) {
                    t += rng.range_u64(1, 300);
                    disconnects.push(DisconnectRecord {
                        at: SimTime::from_millis(t),
                        broker: BrokerId(rng.index(3) as u32),
                        proclaimed_dest: rng.chance(0.3).then_some(BrokerId(1)),
                    });
                    if rng.chance(0.85) {
                        t += rng.range_u64(0, 300);
                        reconnects.push(reconnect(t, rng));
                    }
                }
                Logs {
                    // Now and then a second log of the previous client.
                    client: ClientId(if c > 0 && rng.chance(0.1) { c - 1 } else { c } as u32),
                    filter: filter(rng),
                    disconnects,
                    reconnects,
                    deliveries: picks,
                }
            })
            .collect();

        let pending = (0..rng.index(24))
            .map(|_| {
                let id = if rng.chance(0.8) {
                    1 + rng.index(published.len().max(1)) as u64
                } else {
                    900 + rng.index(3) as u64
                };
                (ClientId(rng.index(subs + 1) as u32), EventId(id))
            })
            .collect();

        let windows: Vec<OutageWindow> = (0..rng.index(4))
            .map(|_| {
                let start = rng.range_u64(0, 1_200);
                OutageWindow {
                    kind: FaultKind::BrokerCrash,
                    start: SimTime::from_millis(start),
                    end: SimTime::from_millis(start + rng.range_u64(1, 500)),
                    scope: OutageScope::Node(NodeId(0)),
                }
            })
            .collect();
        let drops = (0..rng.index(4))
            .map(|_| DropRecord {
                at: ms(rng, 1_500),
                from: NodeId(1),
                to: NodeId(0),
                kind: "event",
                class: TrafficClass::EventDelivery,
                cause: match rng.index(3) {
                    0 => DropCause::Fault(rng.index(5)),
                    1 => DropCause::Loss,
                    _ => DropCause::Corruption,
                },
            })
            .collect();
        Case {
            published,
            clients,
            pending,
            windows,
            drops,
        }
    }

    #[test]
    fn one_pass_accounting_equals_the_set_based_oracle() {
        let mut rng = DetRng::new(0xacc0_0471);
        let mut totals = DeliveryAudit::default();
        let (mut handovers, mut outages) = (0, 0);
        for n in 0..320 {
            let c = case(&mut rng);
            let logs: Vec<ClientHandoverLog<'_>> = c
                .clients
                .iter()
                .map(|l| ClientHandoverLog {
                    client: l.client,
                    filter: &l.filter,
                    disconnects: &l.disconnects,
                    reconnects: &l.reconnects,
                    deliveries: &l.deliveries,
                })
                .collect();
            let subscribers: Vec<SubscriberLog<'_>> =
                logs.iter().map(|l| l.as_subscriber()).collect();

            let audited = mhh_pubsub::audit(&c.published, &subscribers, &c.pending);
            assert_eq!(
                audited,
                audit(&c.published, &logs, &c.pending),
                "case {n}: audit"
            );
            let ledger = HandoverLedger::assemble(&c.published, &logs, &c.pending);
            assert_eq!(
                format!("{ledger:?}"),
                format!("{:?}", handover_ledger(&c.published, &logs, &c.pending)),
                "case {n}: handover ledger"
            );
            let recovery =
                RecoveryLedger::assemble(&c.windows, &c.drops, &c.published, &logs, &c.pending);
            assert_eq!(
                format!("{recovery:?}"),
                format!(
                    "{:?}",
                    recovery_ledger(&c.windows, &c.drops, &c.published, &logs, &c.pending)
                ),
                "case {n}: recovery ledger"
            );
            if !recovery.is_empty() {
                assert!(recovery.reconciles_with(&audited), "case {n}");
            }

            totals.expected += audited.expected;
            totals.delivered += audited.delivered;
            totals.duplicates += audited.duplicates;
            totals.pending += audited.pending;
            totals.lost += audited.lost;
            totals.out_of_order += audited.out_of_order;
            handovers += ledger.len();
            outages += recovery.len();
        }
        // The generator must reach every outcome, or equality proves little.
        for (what, count) in [
            ("delivered", totals.delivered),
            ("duplicates", totals.duplicates),
            ("pending", totals.pending),
            ("lost", totals.lost),
            ("out of order", totals.out_of_order),
            ("handovers", handovers as u64),
            ("outages", outages as u64),
        ] {
            assert!(count > 100, "only {count} {what} over all cases");
        }
    }
}
