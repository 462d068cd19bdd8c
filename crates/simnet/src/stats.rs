//! Traffic accounting.
//!
//! The paper's primary overhead metric is:
//!
//! > "Message overhead per handoff: the total overhead on the network traffic
//! > caused by mobile clients divided by the number of handoff processes.
//! > Network traffic is measured as the total hops that all messages traveled
//! > in the network."
//!
//! Rather than instrumenting each protocol, the simulation engine classifies
//! every message it transports through the [`Message`] trait and accumulates
//! per-class hop counts here. The evaluation harness then derives
//! "overhead caused by mobile clients" as the sum of the mobility classes.
//!
//! # Representation
//!
//! [`record`](TrafficStats::record) runs once per transported message — the
//! engine's hot path — so neither side of the breakdown touches an
//! allocating map anymore:
//!
//! * per-**class** counters live in a fixed `[ClassCounter; N]` array
//!   indexed by the enum discriminant (the old `BTreeMap<TrafficClass, _>`
//!   cost a tree walk per message);
//! * per-**kind** counters are indexed through an interning registry over
//!   the `&'static str` labels [`Message::kind`] returns: each distinct
//!   label pointer resolves once to a dense index (open addressing over the
//!   pointer identity, with a content-equality fallback so equal labels
//!   from different crates share one counter), after which recording is an
//!   array increment. A one-entry cache short-circuits the common case of
//!   consecutive messages sharing a kind. The old path allocated a
//!   `String` per *lookup* (`BTreeMap<String, _>::entry(kind.to_string())`)
//!   — per message, not per kind.
//!
//! Everything observable (per-kind totals, iteration order, merge results)
//! is keyed by label *content*, so the interner is invisible to callers.

/// Coarse classification of simulated traffic used for the paper's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Event dissemination over the overlay tree toward stationary
    /// subscription points — traffic that exists regardless of mobility.
    EventRouting,
    /// Final delivery of an event to a connected client over a wireless link.
    EventDelivery,
    /// Subscription/unsubscription propagation that is part of the *static*
    /// system operation (initial subscriptions).
    Subscription,
    /// Subscription/unsubscription propagation *caused by a handoff*
    /// (sub-unsub re-subscribe / unsubscribe waves, MHH `sub_migration`).
    MobilityControl,
    /// Events moved between brokers because of mobility: queue transfers,
    /// in-transit captures, home-broker triangle forwarding.
    MobilityTransfer,
    /// Control messages between a client and its broker (connect, disconnect,
    /// publish requests).
    ClientControl,
    /// Overlay-repair traffic after a fault: failure notifications, filter
    /// re-announcements and tunneled envelopes routed around a partition.
    Repair,
    /// Self-scheduled timers — not transported on any link, never counted.
    Timer,
}

impl TrafficClass {
    /// Number of traffic classes (the size of the per-class counter array).
    pub const COUNT: usize = 8;

    /// Every class, in declaration (= counter array) order.
    pub const ALL: [TrafficClass; TrafficClass::COUNT] = [
        TrafficClass::EventRouting,
        TrafficClass::EventDelivery,
        TrafficClass::Subscription,
        TrafficClass::MobilityControl,
        TrafficClass::MobilityTransfer,
        TrafficClass::ClientControl,
        TrafficClass::Repair,
        TrafficClass::Timer,
    ];

    /// The class's slot in the per-class counter array.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Whether this class counts toward the paper's "overhead caused by
    /// mobile clients".
    pub fn is_mobility(self) -> bool {
        matches!(
            self,
            TrafficClass::MobilityControl | TrafficClass::MobilityTransfer
        )
    }

    /// Whether this class is transported on network links at all.
    pub fn is_network(self) -> bool {
        !matches!(self, TrafficClass::Timer)
    }
}

/// Trait implemented by every message type transported by the engine so that
/// traffic can be classified without the engine knowing protocol details.
pub trait Message: Clone + std::fmt::Debug {
    /// Classify the message for traffic accounting.
    fn traffic_class(&self) -> TrafficClass;

    /// A short human-readable kind label used in per-kind breakdowns.
    fn kind(&self) -> &'static str {
        "message"
    }

    /// Modeled size of the message on the wire, in bytes. The default of 0
    /// keeps byte accounting inert (and allocation-free) for message types
    /// that do not model payloads; protocols opt in by returning the
    /// rendered wire size of payload-bearing messages.
    fn wire_bytes(&self) -> u32 {
        0
    }
}

/// A (messages, hops, bytes) triple.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounter {
    /// Number of messages recorded.
    pub messages: u64,
    /// Total hops traveled by those messages.
    pub hops: u64,
    /// Total modeled bytes-on-wire of those messages (0 unless the workload
    /// models payloads — see [`Message::wire_bytes`]).
    pub bytes: u64,
}

impl ClassCounter {
    #[inline]
    fn bump(&mut self, hops: u32, bytes: u32) {
        self.messages += 1;
        self.hops += hops as u64;
        self.bytes += bytes as u64;
    }
}

/// One slot of the kind-interner's pointer index. `ptr == 0` is the empty
/// sentinel (no `&'static str` has a null data pointer).
#[derive(Clone, Copy)]
struct PtrSlot {
    ptr: usize,
    len: u32,
    idx: u32,
}

const PTR_EMPTY: PtrSlot = PtrSlot {
    ptr: 0,
    len: 0,
    idx: 0,
};

/// Per-class counters plus a per-kind breakdown.
#[derive(Clone)]
pub struct TrafficStats {
    /// Messages and hops per traffic class, indexed by
    /// [`TrafficClass::index`].
    per_class: [ClassCounter; TrafficClass::COUNT],
    /// Interned kind labels, in first-seen order; parallel to `kind_counts`.
    kind_names: Vec<&'static str>,
    /// Messages and hops per interned kind.
    kind_counts: Vec<ClassCounter>,
    /// Open-addressing index from label *pointer identity* to interned
    /// index. Content equality is resolved on first sight of a pointer, so
    /// two equal literals at different addresses alias to one counter.
    ptr_index: Vec<PtrSlot>,
    /// Occupied slots in `ptr_index` (load-factor check).
    ptr_used: usize,
    /// One-entry cache: the last label recorded and its index.
    last: Option<(&'static str, u32)>,
    /// Total number of engine deliveries (including timers).
    pub deliveries: u64,
}

impl Default for TrafficStats {
    fn default() -> Self {
        TrafficStats {
            per_class: [ClassCounter::default(); TrafficClass::COUNT],
            kind_names: Vec::new(),
            kind_counts: Vec::new(),
            ptr_index: Vec::new(),
            ptr_used: 0,
            last: None,
            deliveries: 0,
        }
    }
}

#[inline]
fn same_label(a: &'static str, b: &'static str) -> bool {
    std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
}

impl TrafficStats {
    /// Create an empty stats collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one transported message.
    #[inline]
    pub fn record(&mut self, class: TrafficClass, kind: &'static str, hops: u32, bytes: u32) {
        self.per_class[class.index()].bump(hops, bytes);
        let idx = match self.last {
            Some((s, idx)) if same_label(s, kind) => idx,
            _ => {
                let idx = self.kind_slot(kind);
                self.last = Some((kind, idx));
                idx
            }
        };
        self.kind_counts[idx as usize].bump(hops, bytes);
    }

    /// Resolve a label to its interned index via the pointer table
    /// (inserting on first sight). Cold relative to `record`'s cache hit,
    /// but still allocation-free except when a genuinely new kind appears.
    fn kind_slot(&mut self, kind: &'static str) -> u32 {
        if self.ptr_index.is_empty() {
            self.ptr_index = vec![PTR_EMPTY; 64];
        }
        let ptr = kind.as_ptr() as usize;
        let hash = crate::random::mix64(ptr as u64 ^ ((kind.len() as u64) << 48));
        let mask = self.ptr_index.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.ptr_index[i];
            if slot.ptr == ptr && slot.len as usize == kind.len() {
                return slot.idx;
            }
            if slot.ptr == 0 {
                // First sight of this pointer: alias to an existing label
                // with equal content, or intern a new one.
                let idx = self.intern_name(kind);
                self.ptr_index[i] = PtrSlot {
                    ptr,
                    len: kind.len() as u32,
                    idx,
                };
                self.ptr_used += 1;
                if self.ptr_used * 8 >= self.ptr_index.len() * 7 {
                    self.grow_ptr_index();
                }
                return idx;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow_ptr_index(&mut self) {
        let new_cap = self.ptr_index.len() * 2;
        let old = std::mem::replace(&mut self.ptr_index, vec![PTR_EMPTY; new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if slot.ptr == 0 {
                continue;
            }
            let hash = crate::random::mix64(slot.ptr as u64 ^ ((slot.len as u64) << 48));
            let mut i = (hash as usize) & mask;
            while self.ptr_index[i].ptr != 0 {
                i = (i + 1) & mask;
            }
            self.ptr_index[i] = slot;
        }
    }

    /// Add a whole pre-aggregated class counter (reference-engine stats
    /// conversion).
    pub(crate) fn add_class_counter(&mut self, class: TrafficClass, counter: ClassCounter) {
        let c = &mut self.per_class[class.index()];
        c.messages += counter.messages;
        c.hops += counter.hops;
        c.bytes += counter.bytes;
    }

    /// Add a whole pre-aggregated kind counter (reference-engine stats
    /// conversion), merging by content.
    pub(crate) fn add_kind_counter(&mut self, kind: &'static str, counter: ClassCounter) {
        let idx = self.intern_name(kind) as usize;
        self.kind_counts[idx].messages += counter.messages;
        self.kind_counts[idx].hops += counter.hops;
        self.kind_counts[idx].bytes += counter.bytes;
    }

    /// Find-or-create the counter index for a label by *content*.
    fn intern_name(&mut self, kind: &'static str) -> u32 {
        if let Some(i) = self.kind_names.iter().position(|&n| n == kind) {
            return i as u32;
        }
        self.kind_names.push(kind);
        self.kind_counts.push(ClassCounter::default());
        (self.kind_names.len() - 1) as u32
    }

    /// Counter for one class.
    pub fn class(&self, class: TrafficClass) -> ClassCounter {
        self.per_class[class.index()]
    }

    /// Counter for one message kind.
    pub fn kind(&self, kind: &str) -> ClassCounter {
        self.kind_names
            .iter()
            .position(|&n| n == kind)
            .map(|i| self.kind_counts[i])
            .unwrap_or_default()
    }

    /// Iterate over the per-kind breakdown (sorted by kind name).
    pub fn kinds(&self) -> impl Iterator<Item = (&str, ClassCounter)> {
        let mut order: Vec<usize> = (0..self.kind_names.len()).collect();
        order.sort_by_key(|&i| self.kind_names[i]);
        order
            .into_iter()
            .map(move |i| (self.kind_names[i], self.kind_counts[i]))
    }

    /// Total hops attributable to mobility management ("overhead caused by
    /// mobile clients" in the paper's metric).
    pub fn mobility_hops(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| c.is_mobility())
            .map(|c| self.per_class[c.index()].hops)
            .sum()
    }

    /// Total messages attributable to mobility management.
    pub fn mobility_messages(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| c.is_mobility())
            .map(|c| self.per_class[c.index()].messages)
            .sum()
    }

    /// Total hops over all network classes.
    pub fn total_hops(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| c.is_network())
            .map(|c| self.per_class[c.index()].hops)
            .sum()
    }

    /// Total messages over all network classes.
    pub fn total_messages(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| c.is_network())
            .map(|c| self.per_class[c.index()].messages)
            .sum()
    }

    /// Total modeled bytes-on-wire over all network classes (0 when the
    /// workload does not model payloads).
    pub fn total_bytes(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .filter(|c| c.is_network())
            .map(|c| self.per_class[c.index()].bytes)
            .sum()
    }

    /// Merge another stats collector into this one (used when aggregating
    /// across repeated runs of the same experiment point). Kind counters
    /// merge by label content.
    pub fn merge(&mut self, other: &TrafficStats) {
        for class in TrafficClass::ALL {
            let c = &mut self.per_class[class.index()];
            let o = other.per_class[class.index()];
            c.messages += o.messages;
            c.hops += o.hops;
            c.bytes += o.bytes;
        }
        for (i, &name) in other.kind_names.iter().enumerate() {
            let idx = self.intern_name(name) as usize;
            let o = other.kind_counts[i];
            self.kind_counts[idx].messages += o.messages;
            self.kind_counts[idx].hops += o.hops;
            self.kind_counts[idx].bytes += o.bytes;
        }
        self.deliveries += other.deliveries;
    }
}

/// Deterministic, content-keyed rendering: classes in declaration order
/// (non-zero only), kinds sorted by name — independent of interner layout.
impl std::fmt::Debug for TrafficStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Classes<'a>(&'a TrafficStats);
        impl std::fmt::Debug for Classes<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut m = f.debug_map();
                for class in TrafficClass::ALL {
                    let c = self.0.per_class[class.index()];
                    if c != ClassCounter::default() {
                        m.entry(&class, &c);
                    }
                }
                m.finish()
            }
        }
        struct Kinds<'a>(&'a TrafficStats);
        impl std::fmt::Debug for Kinds<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.kinds()).finish()
            }
        }
        f.debug_struct("TrafficStats")
            .field("deliveries", &self.deliveries)
            .field("per_class", &Classes(self))
            .field("per_kind", &Kinds(self))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_class_and_kind() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::MobilityControl, "sub_migration", 1, 0);
        s.record(TrafficClass::MobilityControl, "sub_migration", 1, 0);
        s.record(TrafficClass::MobilityTransfer, "pq_transfer", 5, 0);
        s.record(TrafficClass::EventRouting, "forward", 1, 0);

        assert_eq!(s.class(TrafficClass::MobilityControl).messages, 2);
        assert_eq!(s.class(TrafficClass::MobilityControl).hops, 2);
        assert_eq!(s.kind("pq_transfer").hops, 5);
        assert_eq!(s.mobility_hops(), 7);
        assert_eq!(s.mobility_messages(), 3);
        assert_eq!(s.total_hops(), 8);
        assert_eq!(s.total_messages(), 4);
    }

    #[test]
    fn timers_never_count_as_network_traffic() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::Timer, "timer", 0, 0);
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.total_hops(), 0);
        assert!(!TrafficClass::Timer.is_network());
    }

    #[test]
    fn mobility_classification() {
        assert!(TrafficClass::MobilityControl.is_mobility());
        assert!(TrafficClass::MobilityTransfer.is_mobility());
        assert!(!TrafficClass::EventRouting.is_mobility());
        assert!(!TrafficClass::Subscription.is_mobility());
        assert!(!TrafficClass::EventDelivery.is_mobility());
    }

    #[test]
    fn class_indices_cover_every_class_once() {
        let mut seen = [false; TrafficClass::COUNT];
        for class in TrafficClass::ALL {
            assert!(!seen[class.index()], "duplicate index {}", class.index());
            seen[class.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::EventRouting, "forward", 3, 0);
        let mut b = TrafficStats::new();
        b.record(TrafficClass::EventRouting, "forward", 4, 0);
        b.record(TrafficClass::MobilityControl, "handoff_request", 6, 0);
        b.deliveries = 10;
        a.merge(&b);
        assert_eq!(a.class(TrafficClass::EventRouting).hops, 7);
        assert_eq!(a.kind("forward").hops, 7, "kinds merge by content");
        assert_eq!(a.mobility_hops(), 6);
        assert_eq!(a.deliveries, 10);
    }

    #[test]
    fn unknown_kind_is_zero() {
        let s = TrafficStats::new();
        assert_eq!(s.kind("nope"), ClassCounter::default());
        assert_eq!(
            s.class(TrafficClass::EventDelivery),
            ClassCounter::default()
        );
    }

    #[test]
    fn kinds_iterate_sorted_by_name() {
        let mut s = TrafficStats::new();
        s.record(TrafficClass::EventRouting, "zeta", 1, 0);
        s.record(TrafficClass::EventRouting, "alpha", 2, 0);
        s.record(TrafficClass::EventRouting, "mid", 3, 0);
        s.record(TrafficClass::EventRouting, "alpha", 2, 0);
        let names: Vec<&str> = s.kinds().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(s.kind("alpha").messages, 2);
    }

    /// Equal label content at *different* static addresses must land in one
    /// counter — the interner aliases pointers by content on first sight.
    #[test]
    fn distinct_pointers_with_equal_content_share_a_counter() {
        // Two separate statics with identical content; the optimizer may or
        // may not pool them, so exercise both possibilities via subslicing
        // (guaranteed-distinct addresses inside one literal).
        static A: &str = "xforwardx";
        let first: &'static str = &A[1..8]; // "forward" at offset 1
        static B: &str = "forwardyy";
        let second: &'static str = &B[0..7]; // "forward" at offset 0
        assert!(!std::ptr::eq(first.as_ptr(), second.as_ptr()));
        let mut s = TrafficStats::new();
        s.record(TrafficClass::EventRouting, first, 1, 0);
        s.record(TrafficClass::EventRouting, second, 2, 0);
        assert_eq!(s.kind("forward").messages, 2);
        assert_eq!(s.kind("forward").hops, 3);
        assert_eq!(s.kinds().count(), 1);
    }

    /// Interning many distinct kinds forces the pointer table to grow and
    /// must not lose or double-count anything.
    #[test]
    fn interner_survives_growth() {
        // 80 distinct &'static str labels without leaking: windows of one
        // big static at distinct offsets and two distinct lengths.
        static BIG: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        let mut s = TrafficStats::new();
        let mut labels: Vec<&'static str> = Vec::new();
        for i in 0..40usize {
            labels.push(&BIG[i..i + 3]);
            labels.push(&BIG[i..i + 4]);
        }
        for &label in &labels {
            s.record(TrafficClass::EventRouting, label, 1, 0);
            s.record(TrafficClass::EventRouting, label, 1, 0);
        }
        for label in labels {
            assert_eq!(s.kind(label).messages, 2, "label {label}");
        }
        assert_eq!(s.class(TrafficClass::EventRouting).messages, 160);
        assert_eq!(s.kinds().count(), 80);
    }

    #[test]
    fn debug_output_is_content_keyed_and_deterministic() {
        let mut a = TrafficStats::new();
        a.record(TrafficClass::EventRouting, "beta", 1, 0);
        a.record(TrafficClass::Timer, "alpha", 0, 0);
        let mut b = TrafficStats::new();
        // Same content, different record order → same Debug rendering.
        b.record(TrafficClass::Timer, "alpha", 0, 0);
        b.record(TrafficClass::EventRouting, "beta", 1, 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(format!("{a:?}").contains("alpha"));
    }
}
