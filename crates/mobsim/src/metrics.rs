//! Metrics collected from one simulation run.
//!
//! Since the handover-lifecycle refactor the primary artifact is the
//! [`HandoverLedger`]: one typed [`HandoverRecord`] per disconnect/reconnect
//! pair, carrying the handover kind (reactive §4.2 vs proclaimed §4.1), the
//! physical move, the disruption window and the per-handover delivery
//! counters. The run-level aggregates the paper's figures plot —
//! handoff count and average handoff delay — are *derived* from the ledger
//! instead of being counted separately, so the per-handover and aggregate
//! views can never drift apart.
//!
//! Neither ledger decides on its own what a client should have received or
//! which deliveries repeat: both are folds over the per-subscriber outcomes
//! of the delivery audit's single event-major classification
//! ([`mhh_pubsub::classify`] — O(published × matches + deliveries), one
//! dense state array of working memory). [`HandoverLedger::from_outcomes`]
//! adds the disruption-window attribution and the `buffered` catch-ups
//! (dating each delivery's event through the classification, since a
//! delivery record holds only its arrival time and event id),
//! [`RecoveryLedger::from_outcomes`] the outage-window attribution and the
//! time-to-repair; the runner classifies once and feeds the audit and both,
//! which is also why their totals reconcile exactly. The `assemble` entry
//! points take raw logs and run the classification themselves.

use mhh_pubsub::client::{DeliveryRecord, DisconnectRecord, ReconnectRecord};
use mhh_pubsub::{
    classify, Classification, ClientId, DeliveryAudit, Event, EventId, Filter, SubscriberLog,
    SubscriberOutcome,
};
use mhh_simnet::{DropCause, DropRecord, OutageWindow, SimTime};

/// How a handover was initiated (paper §4.1 vs §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoverKind {
    /// Silent move: the client departed without announcing a destination;
    /// the handoff starts when it reconnects (§4.2).
    Reactive,
    /// Proclaimed move: the client announced its destination broker at
    /// disconnect time, so the subscription migrated ahead of it (§4.1).
    Proclaimed,
}

/// One completed handover of one client: a disconnect paired with the
/// following reconnect, plus everything the per-handover analysis needs.
///
/// The *disruption window* of a handover starts at its departure and ends at
/// the client's next departure (or the end of the run): losses are
/// attributed to the window containing the lost event's publication,
/// duplicates and buffered catch-ups to the window containing their
/// delivery. Summed over the ledger these partitions reproduce the run-level
/// audit counts exactly — asserted by the paired-workload integration test.
#[derive(Debug, Clone)]
pub struct HandoverRecord {
    /// The moving client.
    pub client: ClientId,
    /// Reactive (silent, §4.2) or proclaimed (§4.1).
    pub kind: HandoverKind,
    /// The broker the client physically departed.
    pub from: mhh_pubsub::BrokerId,
    /// The broker it reattached to.
    pub to: mhh_pubsub::BrokerId,
    /// Disconnection time.
    pub departed: SimTime,
    /// Reconnection time.
    pub arrived: SimTime,
    /// First delivery after the reconnection, if any arrived before the
    /// client moved on (or the run ended).
    pub first_delivery: Option<SimTime>,
    /// Whether the move was a real handoff (`from != to`); a disconnect
    /// that reconnects at the same broker is a reconnection, not a handoff.
    pub is_handoff: bool,
    /// Events published before the reconnection but delivered after it in
    /// this window — the backlog that was buffered (or migrated) for the
    /// client during the disruption.
    pub buffered: u64,
    /// Matching events published in this window that were neither delivered
    /// nor left pending: real loss attributed to this handover.
    pub lost: u64,
    /// Duplicate deliveries observed in this window.
    pub duplicates: u64,
}

impl HandoverRecord {
    /// The paper's per-handover disruption measure: reconnection to first
    /// delivery, in milliseconds. `None` when nothing was delivered before
    /// the client moved on.
    pub fn first_delivery_gap_ms(&self) -> Option<f64> {
        self.first_delivery
            .map(|d| d.since(self.arrived).as_millis_f64())
    }
}

/// One subscriber's raw logs, as the ledger assembler needs them.
#[derive(Debug, Clone)]
pub struct ClientHandoverLog<'a> {
    /// The client.
    pub client: ClientId,
    /// Its subscription (decides which published events it should see).
    pub filter: &'a Filter,
    /// Its disconnections, in time order.
    pub disconnects: &'a [DisconnectRecord],
    /// Its reconnections, in time order.
    pub reconnects: &'a [ReconnectRecord],
    /// Every delivery it received, in arrival order.
    pub deliveries: &'a [DeliveryRecord],
}

impl<'a> ClientHandoverLog<'a> {
    /// The part of the log the delivery audit reads.
    pub fn as_subscriber(&self) -> SubscriberLog<'a> {
        SubscriberLog {
            client: self.client,
            filter: self.filter,
            deliveries: self.deliveries,
        }
    }
}

/// Classify the clients' logs with the delivery audit's one pass: what the
/// standalone `assemble` entry points do before folding, and what the runner
/// does once for the audit and both ledgers.
pub(crate) fn classify_clients<'e>(
    published: impl IntoIterator<Item = &'e Event>,
    clients: &[ClientHandoverLog<'_>],
    pending: &[(ClientId, EventId)],
) -> Classification {
    let logs: Vec<SubscriberLog<'_>> = clients.iter().map(|log| log.as_subscriber()).collect();
    classify(published, &logs, pending)
}

/// The per-handover ledger of one run: every handover of every client as a
/// typed [`HandoverRecord`], in client order (and time order per client).
///
/// The ledger replaces the aggregate-only counters the harness used to
/// keep: [`RunResult`]'s `handoffs`, `avg_handoff_delay_ms` and
/// `delay_samples` are now computed *from* these records (see
/// [`HandoverLedger::handoff_count`] and
/// [`HandoverLedger::mean_delay_ms`]), and the proclaimed-vs-reactive
/// comparison the paper's §4.1 motivates reads straight out of
/// [`HandoverLedger::kind_count`] / [`HandoverLedger::mean_gap_ms_of`].
#[derive(Debug, Clone, Default)]
pub struct HandoverLedger {
    /// All records, grouped by client in client-id order, time-ordered
    /// within a client.
    pub records: Vec<HandoverRecord>,
}

impl HandoverLedger {
    /// Build the ledger from raw run logs.
    ///
    /// * `published` — every event actually published (stamped);
    /// * `clients` — each subscriber's disconnect/reconnect/delivery logs,
    ///   in the order the aggregates should be accumulated (client order);
    /// * `pending` — events still buffered in protocol queues at the end of
    ///   the run (excluded from loss, as in the audit).
    pub fn assemble(
        published: &[Event],
        clients: &[ClientHandoverLog<'_>],
        pending: &[(ClientId, EventId)],
    ) -> HandoverLedger {
        // Only a client with a disconnect and a reconnect can own a record,
        // so only those logs need classifying.
        let moved: Vec<ClientHandoverLog<'_>> = clients
            .iter()
            .filter(|log| !log.disconnects.is_empty() && !log.reconnects.is_empty())
            .cloned()
            .collect();
        Self::from_outcomes(&moved, &classify_clients(published, &moved, pending))
    }

    /// [`assemble`](Self::assemble) over logs already classified:
    /// `classified.outcomes[i]` is [`classify`]'s outcome for `clients[i]`.
    /// Only the window attribution happens here; a delivery's publication
    /// time comes from the classification's published events.
    pub fn from_outcomes(
        clients: &[ClientHandoverLog<'_>],
        classified: &Classification,
    ) -> HandoverLedger {
        let outcomes = &classified.outcomes;
        assert_eq!(clients.len(), outcomes.len(), "one outcome per client");
        let mut records = Vec::new();
        for (log, outcome) in clients.iter().zip(outcomes) {
            let base = records.len();
            // Pair each reconnection with the earliest unconsumed
            // disconnection that precedes it. A reconnect with no such
            // disconnect (a client attached by an explicit action instead of
            // the pre-installed initial state) is an initial attachment, not
            // a handover; a trailing unconsumed disconnect is a parked
            // client.
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
            let count = records.len() - base;
            if count == 0 {
                continue;
            }
            // Disruption windows: record i owns [departed_i, departed_{i+1}),
            // the last record owns everything after its departure, and
            // anything before the first departure also falls to record 0 —
            // a partition, so per-window counts sum exactly to the client's
            // run-level audit counts.
            let windows = &mut records[base..];
            let departs: Vec<SimTime> = windows.iter().map(|r| r.departed).collect();
            let window_of = |t: SimTime| departs.partition_point(|&d| d <= t).saturating_sub(1);

            let mut repeats = outcome.duplicates.iter().copied().peekable();
            for (position, d) in log.deliveries.iter().enumerate() {
                let w = &mut windows[window_of(d.at)];
                if repeats.next_if_eq(&position).is_some() {
                    w.duplicates += 1;
                } else if d.at >= w.arrived
                    && classified
                        .published_at(d.event)
                        .is_some_and(|published| published < w.arrived)
                {
                    w.buffered += 1;
                }
            }
            for &at in &outcome.lost_published_at {
                windows[window_of(at)].lost += 1;
            }
        }
        HandoverLedger { records }
    }

    /// Number of handover records (including same-broker reconnections).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no client ever moved.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of real handoffs (`from != to`) — the paper's denominator.
    pub fn handoff_count(&self) -> u64 {
        self.records.iter().filter(|r| r.is_handoff).count() as u64
    }

    /// Number of real handoffs of one kind.
    pub fn kind_count(&self, kind: HandoverKind) -> u64 {
        self.records
            .iter()
            .filter(|r| r.is_handoff && r.kind == kind)
            .count() as u64
    }

    /// First-delivery gaps (ms) of all real handoffs that saw a delivery,
    /// in ledger order.
    pub fn delays_ms(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.is_handoff)
            .filter_map(HandoverRecord::first_delivery_gap_ms)
            .collect()
    }

    /// Mean first-delivery gap over all real handoffs with a delivery
    /// (0.0 when none saw one) — the paper's "average handoff delay".
    pub fn mean_delay_ms(&self) -> f64 {
        let delays = self.delays_ms();
        if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        }
    }

    /// Mean first-delivery gap of one handover kind, or `None` when no
    /// handoff of that kind saw a delivery.
    pub fn mean_gap_ms_of(&self, kind: HandoverKind) -> Option<f64> {
        let delays = self.kind_delays_ms(kind);
        if delays.is_empty() {
            None
        } else {
            Some(delays.iter().sum::<f64>() / delays.len() as f64)
        }
    }

    /// First-delivery gaps (ms) of one handover kind, in ledger order.
    pub fn kind_delays_ms(&self, kind: HandoverKind) -> Vec<f64> {
        self.records
            .iter()
            .filter(|r| r.is_handoff && r.kind == kind)
            .filter_map(HandoverRecord::first_delivery_gap_ms)
            .collect()
    }

    /// The `q`-th percentile (`0 < q <= 100`, nearest-rank) of the
    /// first-delivery gaps over all real handoffs that saw a delivery, or
    /// `None` when none did. `percentile_gap_ms(50.0)` is the median.
    pub fn percentile_gap_ms(&self, q: f64) -> Option<f64> {
        percentile(self.delays_ms(), q)
    }

    /// The `q`-th percentile of one handover kind's first-delivery gaps.
    pub fn percentile_gap_ms_of(&self, kind: HandoverKind, q: f64) -> Option<f64> {
        percentile(self.kind_delays_ms(kind), q)
    }

    /// The (p50, p95, p99) first-delivery gap summary the distribution
    /// reports print, or `None` when no handoff saw a delivery. One ledger
    /// scan and one sort for all three ranks.
    pub fn gap_percentiles_ms(&self) -> Option<GapPercentiles> {
        GapPercentiles::of(self.delays_ms())
    }

    /// The (p50, p95, p99) summary of one handover kind's gaps.
    pub fn kind_gap_percentiles_ms(&self, kind: HandoverKind) -> Option<GapPercentiles> {
        GapPercentiles::of(self.kind_delays_ms(kind))
    }

    /// Sum of per-handover lost counts.
    pub fn total_lost(&self) -> u64 {
        self.records.iter().map(|r| r.lost).sum()
    }

    /// Sum of per-handover duplicate counts.
    pub fn total_duplicates(&self) -> u64 {
        self.records.iter().map(|r| r.duplicates).sum()
    }

    /// Sum of per-handover buffered-catch-up counts.
    pub fn total_buffered(&self) -> u64 {
        self.records.iter().map(|r| r.buffered).sum()
    }
}

/// One injected outage window with its measured impact on the run: how many
/// envelopes the fault layer dropped inside it, how many subscriber-side
/// losses and duplicates trace back to it, and how long the overlay took to
/// resume delivering after it healed.
#[derive(Debug, Clone)]
pub struct OutageRecord {
    /// Fault kind label (`"crash"`, `"partition"`, `"region"`).
    pub kind: &'static str,
    /// Human-readable scope (`"broker 12"`, `"link 3-4"`, `"region(5 nodes)"`).
    pub scope: String,
    /// Window start.
    pub start: SimTime,
    /// Window end (the repair instant).
    pub end: SimTime,
    /// Envelopes the fault layer dropped inside this window (exact: every
    /// drop is stamped with its window index at drop time).
    pub dropped_envelopes: u64,
    /// Subscriber-side losses attributed to this window (the lost event was
    /// published before this window healed, and no earlier-healing window
    /// claims it).
    pub lost: u64,
    /// Duplicate deliveries attributed to this window, by delivery time.
    pub duplicates: u64,
    /// Time from the window healing to the first client delivery anywhere in
    /// the system at or after the heal — the observed time-to-repair. `None`
    /// when nothing was delivered after the window (it healed too close to
    /// the end of the run).
    pub repair_ms: Option<f64>,
}

impl OutageRecord {
    /// Window length in milliseconds.
    pub fn outage_ms(&self) -> f64 {
        self.end.since(self.start).as_millis_f64()
    }
}

/// The per-outage recovery ledger of one run: one [`OutageRecord`] per
/// injected fault window, in schedule order, plus the losses and duplicates
/// no window accounts for.
///
/// Attribution is a *partition*: every audited loss goes to exactly one
/// window (the earliest-healing window still open — in the
/// published-before-heal sense — when the event was published) or to
/// `unattributed_lost`, and likewise for duplicates by delivery time. So
/// `total_lost() == audit.lost` and `total_duplicates() == audit.duplicates`
/// **exactly**, which [`RecoveryLedger::reconciles_with`] asserts — the
/// failure panel refuses to report numbers that don't add up.
#[derive(Clone, Default)]
pub struct RecoveryLedger {
    /// One record per injected outage window, in schedule order.
    pub records: Vec<OutageRecord>,
    /// Audited losses of events published after every window had healed
    /// (losses with no outage to blame).
    pub unattributed_lost: u64,
    /// Duplicates delivered after every window had healed.
    pub unattributed_duplicates: u64,
    /// Envelopes the link layer lost outright ([`DropCause::Loss`]) — the
    /// lossy-link counterpart of the per-window `dropped_envelopes`.
    pub lost_envelopes: u64,
    /// Envelopes delivered corrupted and discarded ([`DropCause::Corruption`]).
    pub corrupted: u64,
    /// Duplicate deliveries the broker dedup layer suppressed before they
    /// reached a client (filled in by the runner from broker counters; zero
    /// when `dedup_window == 0`).
    pub duplicates_suppressed: u64,
    /// Publisher-side retransmissions performed (filled in by the runner
    /// from client counters; zero unless retransmission was enabled).
    pub retransmissions: u64,
    /// Subscriptions a restarting broker had to re-install because its
    /// neighbour-held checkpoint replica was stale (filled in by the runner
    /// from broker counters; zero unless replication was enabled).
    pub stale_resubscribes: u64,
}

/// Hand-written so the reliability counters introduced with lossy links only
/// print when set: zero-loss, zero-dedup runs emit exactly the pre-reliability
/// `Debug` form, which keeps every existing golden (`debug_fnv` hashes this
/// output) byte-identical without regeneration.
impl std::fmt::Debug for RecoveryLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("RecoveryLedger");
        s.field("records", &self.records)
            .field("unattributed_lost", &self.unattributed_lost)
            .field("unattributed_duplicates", &self.unattributed_duplicates);
        if self.lost_envelopes > 0 {
            s.field("lost_envelopes", &self.lost_envelopes);
        }
        if self.corrupted > 0 {
            s.field("corrupted", &self.corrupted);
        }
        if self.duplicates_suppressed > 0 {
            s.field("duplicates_suppressed", &self.duplicates_suppressed);
        }
        if self.retransmissions > 0 {
            s.field("retransmissions", &self.retransmissions);
        }
        if self.stale_resubscribes > 0 {
            s.field("stale_resubscribes", &self.stale_resubscribes);
        }
        s.finish()
    }
}

impl RecoveryLedger {
    /// Build the ledger from the run's fault schedule, the engine's drop
    /// log, and the same raw logs the delivery audit consumes. Returns the
    /// empty ledger when no faults were injected and no envelope was
    /// dropped (the zero-fault, zero-loss fast path classifies nothing). A
    /// loss-only run (no outage windows, but lossy links dropped envelopes)
    /// still gets a full ledger: its audited losses all land in
    /// `unattributed_lost`, and every drop is counted by cause.
    ///
    /// Unlike [`HandoverLedger::assemble`], every subscriber participates —
    /// a stationary client loses events when its broker crashes, even though
    /// it never hands over.
    pub fn assemble(
        windows: &[OutageWindow],
        drops: &[DropRecord],
        published: &[Event],
        clients: &[ClientHandoverLog<'_>],
        pending: &[(ClientId, EventId)],
    ) -> RecoveryLedger {
        if windows.is_empty() && drops.is_empty() {
            return RecoveryLedger::default();
        }
        let classified = classify_clients(published, clients, pending);
        Self::from_outcomes(windows, drops, clients, &classified.outcomes)
    }

    /// [`assemble`](Self::assemble) over logs already classified:
    /// `outcomes[i]` is [`classify`]'s outcome for `clients[i]` (not read on
    /// the zero-fault, zero-loss fast path). Only the window attribution and
    /// the time-to-repair scan happen here.
    pub fn from_outcomes(
        windows: &[OutageWindow],
        drops: &[DropRecord],
        clients: &[ClientHandoverLog<'_>],
        outcomes: &[SubscriberOutcome],
    ) -> RecoveryLedger {
        if windows.is_empty() && drops.is_empty() {
            return RecoveryLedger::default();
        }
        assert_eq!(clients.len(), outcomes.len(), "one outcome per client");
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

        // Attribution order: earliest-healing window first, so a loss
        // overlapped by two windows goes to the one that healed first (the
        // one that could not have saved it).
        let mut by_end: Vec<usize> = (0..windows.len()).collect();
        by_end.sort_by_key(|&i| (windows[i].end, windows[i].start));
        let attribute = |t: SimTime| by_end.iter().copied().find(|&i| t < windows[i].end);

        let mut unattributed_lost = 0u64;
        let mut unattributed_duplicates = 0u64;
        let mut first_after: Vec<Option<SimTime>> = vec![None; windows.len()];

        for (log, outcome) in clients.iter().zip(outcomes) {
            for &position in &outcome.duplicates {
                match attribute(log.deliveries[position].at) {
                    Some(i) => records[i].duplicates += 1,
                    None => unattributed_duplicates += 1,
                }
            }
            for &at in &outcome.lost_published_at {
                match attribute(at) {
                    Some(i) => records[i].lost += 1,
                    None => unattributed_lost += 1,
                }
            }
            // The log is in arrival order, so this client's first delivery
            // at or after a heal instant is one binary search away.
            for (first, w) in first_after.iter_mut().zip(windows) {
                let healed = log.deliveries.partition_point(|d| d.at < w.end);
                if let Some(d) = log.deliveries.get(healed) {
                    if first.is_none_or(|t| d.at < t) {
                        *first = Some(d.at);
                    }
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
            duplicates_suppressed: 0,
            retransmissions: 0,
            stale_resubscribes: 0,
        }
    }

    /// Number of injected outage windows.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the ledger has nothing to report: no faults were injected,
    /// no envelope was lost or corrupted, and the reliability layer never
    /// acted. Zero-fault, zero-loss runs stay on this path, which is what
    /// keeps their JSON exports (`"recovery": null`) byte-identical.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
            && self.unattributed_lost == 0
            && self.unattributed_duplicates == 0
            && self.lost_envelopes == 0
            && self.corrupted == 0
            && self.duplicates_suppressed == 0
            && self.retransmissions == 0
            && self.stale_resubscribes == 0
    }

    /// Total envelopes dropped, by any cause: fault windows plus link loss
    /// plus corruption.
    pub fn total_dropped(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.dropped_envelopes)
            .sum::<u64>()
            + self.lost_envelopes
            + self.corrupted
    }

    /// Total audited losses — attributed plus unattributed. Equals
    /// `audit.lost` by construction.
    pub fn total_lost(&self) -> u64 {
        self.records.iter().map(|r| r.lost).sum::<u64>() + self.unattributed_lost
    }

    /// Total audited duplicates — attributed plus unattributed. Equals
    /// `audit.duplicates` by construction.
    pub fn total_duplicates(&self) -> u64 {
        self.records.iter().map(|r| r.duplicates).sum::<u64>() + self.unattributed_duplicates
    }

    /// Mean observed time-to-repair over the windows that saw a delivery
    /// after healing; `None` when none did (or no faults were injected).
    pub fn mean_repair_ms(&self) -> Option<f64> {
        let repairs: Vec<f64> = self.records.iter().filter_map(|r| r.repair_ms).collect();
        if repairs.is_empty() {
            None
        } else {
            Some(repairs.iter().sum::<f64>() / repairs.len() as f64)
        }
    }

    /// Worst observed time-to-repair, if any window saw one.
    pub fn max_repair_ms(&self) -> Option<f64> {
        self.records
            .iter()
            .filter_map(|r| r.repair_ms)
            .max_by(f64::total_cmp)
    }

    /// Whether the ledger's loss and duplicate totals match the run-level
    /// delivery audit exactly — the failure panel's sanity gate.
    pub fn reconciles_with(&self, audit: &DeliveryAudit) -> bool {
        self.total_lost() == audit.lost && self.total_duplicates() == audit.duplicates
    }
}

/// The p50/p95/p99 summary of a ledger's first-delivery gap distribution —
/// the tail the mean hides (ROADMAP: percentile reporting over the ledger).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapPercentiles {
    /// Median first-delivery gap (ms).
    pub p50: f64,
    /// 95th-percentile gap (ms).
    pub p95: f64,
    /// 99th-percentile gap (ms).
    pub p99: f64,
}

impl GapPercentiles {
    /// Summarize an unsorted sample: one sort, three nearest-rank reads.
    fn of(mut samples: Vec<f64>) -> Option<GapPercentiles> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(GapPercentiles {
            p50: nearest_rank(&samples, 50.0),
            p95: nearest_rank(&samples, 95.0),
            p99: nearest_rank(&samples, 99.0),
        })
    }
}

/// Nearest-rank percentile of a **sorted, non-empty** sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let q = q.clamp(f64::MIN_POSITIVE, 100.0);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample (`0 < q <= 100`); `None`
/// on an empty sample.
fn percentile(mut samples: Vec<f64>, q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(nearest_rank(&samples, q))
}

/// Bytes-on-wire and serialization accounting of one run. All counters stay
/// zero when payload modeling is off (`payload_bytes_mean == 0`), which is
/// what lets [`RunResult`]'s `Debug` omit the whole block and keep
/// pre-payload goldens byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Bytes carried by event deliveries (broker → subscriber).
    pub delivery_bytes: u64,
    /// Bytes carried by every message class, summed over all links.
    pub total_wire_bytes: u64,
    /// Fan-outs that rendered at least one wire form.
    pub fanouts: u64,
    /// Full wire-form renders performed by brokers.
    pub serializations: u64,
    /// Total bytes rendered across all serializations.
    pub bytes_serialized: u64,
    /// Heap buffers allocated for fan-out wire forms.
    pub fanout_allocs: u64,
    /// Destinations served from an already-rendered cached form.
    pub cache_hits: u64,
    /// Highest buffered-bytes sample at any single broker (zero unless
    /// memory tracking was on).
    pub buffered_bytes_peak: u64,
    /// Largest modeled checkpoint written by any single broker restart.
    pub checkpoint_bytes_peak: u64,
    /// Highest dedup-state sample (watermarks plus recent-id window) at any
    /// single broker (zero unless memory tracking and dedup were both on).
    pub dedup_bytes_peak: u64,
}

/// The outcome of one scenario run: the paper's two performance metrics plus
/// the reliability audit, the per-handover ledger and raw counters useful
/// for debugging and reports.
#[derive(Clone)]
pub struct RunResult {
    /// Display label of the protocol that was run (e.g. `"MHH"`). A label
    /// rather than a closed enum, so registry-provided protocols flow
    /// through the metrics and reports unchanged; generic and
    /// dyn-dispatched runs of the same protocol carry the same label, which
    /// is what makes their results byte-identical.
    pub protocol: String,
    /// Number of handoffs that occurred (reconnections at a different
    /// broker). Derived from the ledger.
    pub handoffs: u64,
    /// Total network hops attributable to mobility management.
    pub mobility_hops: u64,
    /// The paper's "message overhead per handoff": mobility hops divided by
    /// the number of handoffs.
    pub overhead_per_handoff: f64,
    /// The paper's "average handoff delay" in milliseconds (reconnection to
    /// first delivered event), averaged over handoffs that received at least
    /// one event. Derived from the ledger.
    pub avg_handoff_delay_ms: f64,
    /// Number of handoffs that contributed a delay sample. Derived from the
    /// ledger.
    pub delay_samples: u64,
    /// Delivery-reliability audit (loss / duplicates / ordering).
    pub audit: DeliveryAudit,
    /// The per-handover ledger (one record per disconnect/reconnect pair).
    pub ledger: HandoverLedger,
    /// The per-outage recovery ledger (empty on zero-fault runs).
    pub recovery: RecoveryLedger,
    /// Total events published during the run.
    pub published: u64,
    /// Total event deliveries to clients.
    pub delivered_messages: u64,
    /// Total hops over all network traffic (context for the overhead metric).
    pub total_hops: u64,
    /// Simulated duration in seconds.
    pub sim_duration_s: f64,
    /// Bytes-on-wire and serialization accounting; all-zero (the default)
    /// when payload modeling is off.
    pub traffic: TrafficReport,
}

/// Hand-written so the `traffic` block only appears when payload modeling
/// produced any accounting: zero-payload runs print exactly the derived
/// `Debug` the pre-payload simulator had, which pins every existing golden
/// (`debug_fnv` hashes this output) without regeneration.
impl std::fmt::Debug for RunResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("RunResult");
        s.field("protocol", &self.protocol)
            .field("handoffs", &self.handoffs)
            .field("mobility_hops", &self.mobility_hops)
            .field("overhead_per_handoff", &self.overhead_per_handoff)
            .field("avg_handoff_delay_ms", &self.avg_handoff_delay_ms)
            .field("delay_samples", &self.delay_samples)
            .field("audit", &self.audit)
            .field("ledger", &self.ledger)
            .field("recovery", &self.recovery)
            .field("published", &self.published)
            .field("delivered_messages", &self.delivered_messages)
            .field("total_hops", &self.total_hops)
            .field("sim_duration_s", &self.sim_duration_s);
        if self.traffic != TrafficReport::default() {
            s.field("traffic", &self.traffic);
        }
        s.finish()
    }
}

impl RunResult {
    /// Fraction of expected deliveries that were lost (home-broker's
    /// reliability gap shows up here).
    pub fn loss_rate(&self) -> f64 {
        self.audit.loss_rate()
    }

    /// True when the run satisfied exactly-once ordered delivery.
    pub fn reliable(&self) -> bool {
        self.audit.is_reliable()
    }

    /// Number of proclaimed (§4.1) handoffs in the run.
    pub fn proclaimed_handoffs(&self) -> u64 {
        self.ledger.kind_count(HandoverKind::Proclaimed)
    }

    /// Number of reactive (§4.2) handoffs in the run.
    pub fn reactive_handoffs(&self) -> u64 {
        self.ledger.kind_count(HandoverKind::Reactive)
    }

    /// Mean first-delivery gap of one handover kind, if any handoff of that
    /// kind saw a delivery.
    pub fn mean_gap_ms(&self, kind: HandoverKind) -> Option<f64> {
        self.ledger.mean_gap_ms_of(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_pubsub::event::EventBuilder;
    use mhh_pubsub::{BrokerId, Op};

    fn sample_result(ledger: HandoverLedger) -> RunResult {
        RunResult {
            protocol: "MHH".to_string(),
            handoffs: ledger.handoff_count(),
            mobility_hops: 500,
            overhead_per_handoff: 50.0,
            avg_handoff_delay_ms: ledger.mean_delay_ms(),
            delay_samples: ledger.delays_ms().len() as u64,
            audit: DeliveryAudit {
                expected: 100,
                delivered: 98,
                duplicates: 0,
                pending: 2,
                lost: 0,
                out_of_order: 0,
            },
            ledger,
            recovery: RecoveryLedger::default(),
            published: 40,
            delivered_messages: 98,
            total_hops: 10_000,
            sim_duration_s: 600.0,
            traffic: TrafficReport::default(),
        }
    }

    #[test]
    fn run_result_debug_omits_an_all_zero_traffic_block() {
        // Golden safety: zero-payload runs must print the exact pre-payload
        // Debug form, so the block only appears once any counter is set.
        let plain = sample_result(HandoverLedger::default());
        assert!(!format!("{plain:?}").contains("traffic"));
        let mut with_bytes = plain.clone();
        with_bytes.traffic.delivery_bytes = 1;
        assert!(format!("{with_bytes:?}").contains("traffic"));
    }

    fn record(kind: HandoverKind, arrived_ms: u64, first_ms: Option<u64>) -> HandoverRecord {
        HandoverRecord {
            client: ClientId(0),
            kind,
            from: BrokerId(0),
            to: BrokerId(1),
            departed: SimTime::from_millis(arrived_ms.saturating_sub(50)),
            arrived: SimTime::from_millis(arrived_ms),
            first_delivery: first_ms.map(SimTime::from_millis),
            is_handoff: true,
            buffered: 0,
            lost: 0,
            duplicates: 0,
        }
    }

    #[test]
    fn derived_quantities() {
        let ledger = HandoverLedger {
            records: vec![
                record(HandoverKind::Reactive, 100, Some(180)),
                record(HandoverKind::Proclaimed, 400, Some(420)),
                record(HandoverKind::Proclaimed, 700, None),
            ],
        };
        let r = sample_result(ledger);
        assert!(r.reliable());
        assert_eq!(r.loss_rate(), 0.0);
        assert_eq!(r.handoffs, 3);
        assert_eq!(r.delay_samples, 2);
        assert_eq!(r.proclaimed_handoffs(), 2);
        assert_eq!(r.reactive_handoffs(), 1);
        assert_eq!(r.mean_gap_ms(HandoverKind::Reactive), Some(80.0));
        assert_eq!(r.mean_gap_ms(HandoverKind::Proclaimed), Some(20.0));
        assert_eq!(r.avg_handoff_delay_ms, 50.0);
    }

    #[test]
    fn percentiles_use_nearest_rank_over_the_gap_distribution() {
        // 100 handoffs with gaps 1..=100 ms: p50 = 50, p95 = 95, p99 = 99.
        let ledger = HandoverLedger {
            records: (1..=100u64)
                .map(|i| record(HandoverKind::Reactive, 1_000, Some(1_000 + i)))
                .collect(),
        };
        let p = ledger.gap_percentiles_ms().expect("gaps exist");
        assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
        assert_eq!(ledger.percentile_gap_ms(100.0), Some(100.0));
        assert_eq!(ledger.percentile_gap_ms(1.0), Some(1.0));
        assert_eq!(
            ledger.percentile_gap_ms_of(HandoverKind::Reactive, 50.0),
            Some(50.0)
        );
        assert_eq!(
            ledger.percentile_gap_ms_of(HandoverKind::Proclaimed, 50.0),
            None
        );
        // Empty ledger: no percentiles.
        assert!(HandoverLedger::default().gap_percentiles_ms().is_none());
        // Records without deliveries contribute nothing.
        let sparse = HandoverLedger {
            records: vec![
                record(HandoverKind::Reactive, 100, None),
                record(HandoverKind::Reactive, 100, Some(170)),
            ],
        };
        let p = sparse.gap_percentiles_ms().unwrap();
        assert_eq!((p.p50, p.p95, p.p99), (70.0, 70.0, 70.0));
    }

    #[test]
    fn assemble_pairs_disconnects_with_reconnects_and_partitions_counts() {
        let filter = Filter::single("g", Op::Eq, 1i64);
        let ev = |id: u64, publisher: u32, at_ms: u64| {
            EventBuilder::new()
                .attr("g", 1i64)
                .build(id, ClientId(publisher), id)
                .stamped(SimTime::from_millis(at_ms))
        };
        // Publisher 9 publishes four matching events across two windows.
        let published = vec![
            ev(1, 9, 50),
            ev(2, 9, 150),
            ev(3, 9, 1_150),
            ev(4, 9, 1_200),
        ];
        let disconnects = vec![
            DisconnectRecord {
                at: SimTime::from_millis(100),
                broker: BrokerId(0),
                proclaimed_dest: None,
            },
            DisconnectRecord {
                at: SimTime::from_millis(1_100),
                broker: BrokerId(2),
                proclaimed_dest: Some(BrokerId(3)),
            },
        ];
        let reconnects = vec![
            ReconnectRecord {
                at: SimTime::from_millis(300),
                from: Some(BrokerId(0)),
                to: BrokerId(2),
                first_delivery: Some(SimTime::from_millis(350)),
                is_handoff: true,
            },
            ReconnectRecord {
                at: SimTime::from_millis(1_300),
                from: Some(BrokerId(2)),
                to: BrokerId(3),
                first_delivery: Some(SimTime::from_millis(1_320)),
                is_handoff: true,
            },
        ];
        // Event 2 (published during window 0) delivered after the first
        // reconnect (buffered catch-up); event 2 delivered again later
        // (duplicate, in window 1); event 3 delivered promptly; event 4
        // never delivered and not pending -> lost, in window 1. Event 1 was
        // delivered live before the first disconnect.
        let mk = |id: u64, at_ms: u64| DeliveryRecord {
            at: SimTime::from_millis(at_ms),
            event: EventId(id),
        };
        let deliveries = vec![mk(1, 80), mk(2, 350), mk(3, 1_320), mk(2, 1_400)];
        let logs = [ClientHandoverLog {
            client: ClientId(0),
            filter: &filter,
            disconnects: &disconnects,
            reconnects: &reconnects,
            deliveries: &deliveries,
        }];
        let ledger = HandoverLedger::assemble(&published, &logs, &[]);
        assert_eq!(ledger.len(), 2);
        let (w0, w1) = (&ledger.records[0], &ledger.records[1]);
        assert_eq!(w0.kind, HandoverKind::Reactive);
        assert_eq!(w1.kind, HandoverKind::Proclaimed);
        assert_eq!(w0.buffered, 1, "event 2 caught up after the reconnect");
        assert_eq!(w0.duplicates, 0);
        assert_eq!(w0.lost, 0);
        assert_eq!(w1.buffered, 1, "event 3 published at 1150 < arrive 1300");
        assert_eq!(w1.duplicates, 1, "event 2 redelivered at 1400");
        assert_eq!(w1.lost, 1, "event 4 vanished in window 1");
        assert_eq!(ledger.total_lost(), 1);
        assert_eq!(ledger.total_duplicates(), 1);
        assert_eq!(ledger.handoff_count(), 2);
        assert_eq!(ledger.kind_count(HandoverKind::Proclaimed), 1);
        // Pending events are not lost.
        let with_pending =
            HandoverLedger::assemble(&published, &logs, &[(ClientId(0), EventId(4))]);
        assert_eq!(with_pending.total_lost(), 0);
    }

    #[test]
    fn recovery_ledger_partitions_losses_and_reconciles_with_the_audit() {
        use mhh_simnet::{FaultKind, NodeId, OutageScope, TrafficClass};
        let windows = vec![
            OutageWindow {
                kind: FaultKind::BrokerCrash,
                start: SimTime::from_millis(100),
                end: SimTime::from_millis(300),
                scope: OutageScope::Node(NodeId(0)),
            },
            OutageWindow {
                kind: FaultKind::LinkPartition,
                start: SimTime::from_millis(200),
                end: SimTime::from_millis(600),
                scope: OutageScope::Link(NodeId(1), NodeId(2)),
            },
        ];
        let drop = |at_ms: u64, cause: DropCause| DropRecord {
            at: SimTime::from_millis(at_ms),
            from: NodeId(1),
            to: NodeId(0),
            kind: "event",
            class: TrafficClass::EventDelivery,
            cause,
        };
        let drops = vec![
            drop(120, DropCause::Fault(0)),
            drop(150, DropCause::Fault(0)),
            drop(250, DropCause::Fault(1)),
        ];

        let filter = Filter::single("g", Op::Eq, 1i64);
        let ev = |id: u64, at_ms: u64| {
            EventBuilder::new()
                .attr("g", 1i64)
                .build(id, ClientId(9), id)
                .stamped(SimTime::from_millis(at_ms))
        };
        // e4 delivered live; e1 delivered (plus two duplicate copies); e5
        // vanished during the crash; e2 vanished during the partition; e3
        // (published after every window healed) vanished with no outage to
        // blame; e6 is still pending, so it is not lost.
        let published = vec![
            ev(1, 150),
            ev(2, 400),
            ev(3, 700),
            ev(4, 50),
            ev(5, 150),
            ev(6, 150),
        ];
        let mk = |id: u64, at_ms: u64| DeliveryRecord {
            at: SimTime::from_millis(at_ms),
            event: EventId(id),
        };
        let deliveries = vec![mk(1, 250), mk(1, 280), mk(4, 350), mk(1, 650)];
        let logs = [ClientHandoverLog {
            client: ClientId(0),
            filter: &filter,
            disconnects: &[],
            reconnects: &[],
            deliveries: &deliveries,
        }];
        let ledger = RecoveryLedger::assemble(
            &windows,
            &drops,
            &published,
            &logs,
            &[(ClientId(0), EventId(6))],
        );

        assert_eq!(ledger.len(), 2);
        let (w0, w1) = (&ledger.records[0], &ledger.records[1]);
        assert_eq!((w0.kind, w0.scope.as_str()), ("crash", "broker 0"));
        assert_eq!((w1.kind, w1.scope.as_str()), ("partition", "link 1-2"));
        assert_eq!(w0.dropped_envelopes, 2);
        assert_eq!(w1.dropped_envelopes, 1);
        assert_eq!(w0.lost, 1, "e5 published at 150 < crash heal 300");
        assert_eq!(w1.lost, 1, "e2 published at 400 < partition heal 600");
        assert_eq!(ledger.unattributed_lost, 1, "e3 outlived every window");
        assert_eq!(w0.duplicates, 1, "the copy at 280 fell inside the crash");
        assert_eq!(w1.duplicates, 0);
        assert_eq!(
            ledger.unattributed_duplicates, 1,
            "the copy at 650 is past both windows"
        );
        // Time-to-repair: first delivery at/after each heal instant.
        assert_eq!(w0.repair_ms, Some(50.0), "350 − heal 300");
        assert_eq!(w1.repair_ms, Some(50.0), "650 − heal 600");
        assert_eq!(w0.outage_ms(), 200.0);
        assert_eq!(ledger.mean_repair_ms(), Some(50.0));
        assert_eq!(ledger.max_repair_ms(), Some(50.0));
        assert_eq!(ledger.total_dropped(), 3);
        // Exact reconciliation with the audit-style totals.
        assert_eq!(ledger.total_lost(), 3);
        assert_eq!(ledger.total_duplicates(), 2);
        let audit = DeliveryAudit {
            expected: 5,
            delivered: 2,
            duplicates: 2,
            pending: 1,
            lost: 3,
            out_of_order: 0,
        };
        assert!(ledger.reconciles_with(&audit));
        assert!(!ledger.reconciles_with(&DeliveryAudit::default()));
        // Zero faults: the empty ledger, no per-delivery work.
        assert!(RecoveryLedger::assemble(&[], &[], &published, &logs, &[]).is_empty());
    }

    #[test]
    fn loss_only_runs_assemble_a_ledger_and_debug_omits_zero_reliability_fields() {
        use mhh_simnet::{NodeId, TrafficClass};
        // Golden safety: the default ledger prints the exact pre-reliability
        // Debug form — no lost_envelopes / corrupted / suppressed /
        // retransmissions fields.
        let plain = format!("{:?}", RecoveryLedger::default());
        assert_eq!(
            plain,
            "RecoveryLedger { records: [], unattributed_lost: 0, \
             unattributed_duplicates: 0 }"
        );

        // A run with no outage windows but lossy-link drops still gets a
        // ledger: drops counted by cause, audited losses unattributed.
        let filter = Filter::single("g", Op::Eq, 1i64);
        let published = vec![EventBuilder::new()
            .attr("g", 1i64)
            .build(1, ClientId(9), 1)
            .stamped(SimTime::from_millis(50))];
        let logs = [ClientHandoverLog {
            client: ClientId(0),
            filter: &filter,
            disconnects: &[],
            reconnects: &[],
            deliveries: &[],
        }];
        let drop = |cause: DropCause| DropRecord {
            at: SimTime::from_millis(60),
            from: NodeId(1),
            to: NodeId(0),
            kind: "event",
            class: TrafficClass::EventDelivery,
            cause,
        };
        let drops = vec![
            drop(DropCause::Loss),
            drop(DropCause::Loss),
            drop(DropCause::Corruption),
        ];
        let ledger = RecoveryLedger::assemble(&[], &drops, &published, &logs, &[]);
        assert!(!ledger.is_empty(), "loss-only runs are not empty ledgers");
        assert_eq!(ledger.lost_envelopes, 2);
        assert_eq!(ledger.corrupted, 1);
        assert_eq!(ledger.total_dropped(), 3);
        assert_eq!(ledger.unattributed_lost, 1, "e1 lost, no window to blame");
        let audit = DeliveryAudit {
            expected: 1,
            delivered: 0,
            duplicates: 0,
            pending: 0,
            lost: 1,
            out_of_order: 0,
        };
        assert!(ledger.reconciles_with(&audit));
        let dbg = format!("{ledger:?}");
        assert!(dbg.contains("lost_envelopes: 2"), "{dbg}");
        assert!(dbg.contains("corrupted: 1"), "{dbg}");
        assert!(!dbg.contains("duplicates_suppressed"), "{dbg}");
        assert!(!dbg.contains("retransmissions"), "{dbg}");
    }

    #[test]
    fn unpaired_initial_reconnect_is_skipped() {
        let filter = Filter::single("g", Op::Eq, 1i64);
        let reconnects = vec![
            ReconnectRecord {
                at: SimTime::from_millis(10),
                from: None,
                to: BrokerId(0),
                first_delivery: None,
                is_handoff: false,
            },
            ReconnectRecord {
                at: SimTime::from_millis(500),
                from: Some(BrokerId(0)),
                to: BrokerId(1),
                first_delivery: None,
                is_handoff: true,
            },
        ];
        let disconnects = vec![DisconnectRecord {
            at: SimTime::from_millis(200),
            broker: BrokerId(0),
            proclaimed_dest: None,
        }];
        let logs = [ClientHandoverLog {
            client: ClientId(0),
            filter: &filter,
            disconnects: &disconnects,
            reconnects: &reconnects,
            deliveries: &[],
        }];
        let ledger = HandoverLedger::assemble(&[], &logs, &[]);
        assert_eq!(
            ledger.len(),
            1,
            "the action-driven initial attach is not a handover"
        );
        assert_eq!(ledger.records[0].from, BrokerId(0));
        assert_eq!(ledger.records[0].to, BrokerId(1));
    }

    #[test]
    fn initial_attach_plus_trailing_park_pair_by_time_not_by_count() {
        // Equal-length lists that must NOT pair index-to-index: the first
        // reconnect is an initial attach (precedes every disconnect) and the
        // last disconnect is a park (never followed by a reconnect).
        let filter = Filter::single("g", Op::Eq, 1i64);
        let reconnects = vec![
            ReconnectRecord {
                at: SimTime::from_millis(10),
                from: None,
                to: BrokerId(0),
                first_delivery: None,
                is_handoff: false,
            },
            ReconnectRecord {
                at: SimTime::from_millis(500),
                from: Some(BrokerId(0)),
                to: BrokerId(1),
                first_delivery: None,
                is_handoff: true,
            },
        ];
        let disconnects = vec![
            DisconnectRecord {
                at: SimTime::from_millis(200),
                broker: BrokerId(0),
                proclaimed_dest: None,
            },
            DisconnectRecord {
                at: SimTime::from_millis(900),
                broker: BrokerId(1),
                proclaimed_dest: None,
            },
        ];
        let logs = [ClientHandoverLog {
            client: ClientId(0),
            filter: &filter,
            disconnects: &disconnects,
            reconnects: &reconnects,
            deliveries: &[],
        }];
        let ledger = HandoverLedger::assemble(&[], &logs, &[]);
        assert_eq!(ledger.len(), 1);
        let r = &ledger.records[0];
        assert_eq!(r.departed, SimTime::from_millis(200));
        assert_eq!(r.arrived, SimTime::from_millis(500));
        assert!(r.departed <= r.arrived, "windows never run backwards");
    }
}
