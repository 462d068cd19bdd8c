//! The per-broker filter table.
//!
//! Section 3 of the paper: "Each event broker maintains a filter table to
//! record the subscriptions of its neighbors. [...] The filter table of a
//! broker can be represented as the set {(nb, f)}, where each pair means that
//! neighbor nb is interested in the events that satisfy the filter f."
//!
//! Two extensions required by the protocols are supported:
//!
//! * **accept-only-from labels** — MHH marks a client entry with a neighbor
//!   label meaning "only accept events for this client when they arrive from
//!   that neighbor" (paper, Section 4.1 steps 2–3); matching honours the
//!   label;
//! * per-entry bookkeeping helpers used by subscription propagation with the
//!   optional covering optimisation.
//!
//! # Shared records
//!
//! Every broker holds an entry per remote subscriber, and the filter is the
//! same in all of them; only the neighbour differs. An entry therefore holds
//! a [`FilterRef`]: a reference-counted, immutable record of the filter with
//! its content hash and its index class (below) computed once, when the
//! record is made. A deployment makes one record per distinct client filter
//! and every broker's table, every message that carries the subscription
//! (propagation, repair, migration) and every checkpoint holds a clone of it,
//! so installing a subscription on N brokers copies a pointer N times and
//! dropping the tables frees nothing per entry but the last reference.
//! [`FilterTable::add_ref`] is the one insertion path (`add` and
//! `add_labeled` wrap a fresh record); linking, unlinking, the duplicate
//! check and [`FilterTable::distinct_filters`] read the cached hash and
//! class, so adding or removing an entry never hashes or classifies its
//! filter and `add` allocates nothing of its own — only the amortized growth
//! of the table's vectors and maps. Equality stays by content (the same
//! record, or equal hashes and equal filters), and nothing is hashed or
//! ordered by address, so tables built from shared records and from
//! per-entry copies are identical (pinned by the `shared_filters`
//! differential test).
//!
//! # Indexing
//!
//! At city scale every broker's table holds an entry per remote subscriber
//! (distinct per-client filters defeat `(peer, filter)` deduplication), but
//! an event goes to a neighbour *once* however many of its filters match. A
//! routing decision should therefore cost the neighbours it selects, not the
//! subscribers behind them. The table keeps incremental indexes beside the
//! entry vector:
//!
//! * a position-indexed **compact array** (`Meta`) with each entry's
//!   peer slot, its tombstone flag and — for an *interval entry*, a filter
//!   made only of `Ge`/`Gt`/`Le`/`Lt`/`Eq` comparisons of one attribute with
//!   non-NaN numbers — its **exact bounds**: the closed `[lo, hi]` such that
//!   the filter matches an event exactly when the event's numeric value of
//!   the attribute lies inside. Exact, because a constraint compares through
//!   `as_f64` and among floats `x > v` is `x >= v.next_up()`: an open end is
//!   the closed end one step further in, an unsatisfiable comparison
//!   (`> +inf`) the empty interval, and a NaN bound makes the entry a scan
//!   entry instead. Matching accepts or rejects an interval candidate on
//!   two float comparisons and the covering queries rule one out on two
//!   more, neither touching the `FilterEntry`;
//! * per attribute, an **equality map** from the attribute value to the
//!   single-`Eq` entries pinned to it, and a bucketed **interval grid** over
//!   the interval entries — an event value probes one bucket. A bucket holds
//!   its positions **grouped by peer slot**, ascending inside a group (one
//!   flat position vector plus run offsets). A match skips the group of the
//!   peer the event came from, and leaves every other group at its first
//!   accepted entry, so it examines about one entry per peer present in the
//!   bucket however many subscribers stand behind a neighbour broker. The
//!   grid is **sized from the widths of the intervals it holds** — the
//!   bucket width is a quarter of the median interval width, capped at 512
//!   buckets and at one per entry — so an entry sits in about five buckets
//!   (and `add`/`remove` touch five) whatever the selectivity of the
//!   workload's filters, and the bucket a query reads holds its true matches
//!   plus a quarter. It is built by the first match that needs it, dropped
//!   by a compaction, and dropped to be re-sized once the attribute's
//!   interval count has doubled or halved since it was sized;
//! * a **residual scan list** for entries the index cannot classify
//!   (multi-attribute filters, `Ne`/`Prefix`/`Exists`, NaN bounds,
//!   match-all), always probed;
//! * a **duplicate map** from `(peer, content hash)` to the one position
//!   holding it — a true 64-bit collision of different content (or a filter
//!   with a NaN, which equals nothing) goes to a side list, almost always
//!   empty — and a **per-peer position list**, making `add`'s set check,
//!   `contains` and the label helpers O(1) and `filters_for` O(entries of
//!   that peer);
//! * a dense **slot per peer** with an epoch-stamped mark holding the lowest
//!   position at which the current match accepted an entry of the peer. The
//!   scan list, the equality hits and the bucket groups all fold into that
//!   per-slot minimum, and a candidate at or above it is skipped unevaluated.
//!
//! **Output order.** A plain in-order scan of the table emits each peer at
//! the position of its first matching entry. The selected peers are sorted
//! by exactly that position — the per-slot minimum — so results are
//! byte-identical to the naive scan whatever order the index produced the
//! candidates in (pinned by a differential property test). Scan-list and
//! equality candidates are still confirmed with the real filter; only the
//! provably exact interval bounds stand in for it.
//!
//! Every index list is in ascending position, so a removal tombstones the
//! entry and unlinks it by binary search from the lists and buckets it is
//! in; the vector is compacted (and the indexes rebuilt) only when dead
//! entries outnumber live ones. An entry's class is read from its record —
//! no string is cloned on `add`, `remove` or a match.
//!
//! The write side — the covering questions every subscription add/remove
//! and every MHH handoff asks ([`FilterTable::covered_by_other`],
//! [`FilterTable::covered_entries`], [`FilterTable::related_to_other`]) — is
//! answered from the same indexes. [`Filter::covers`] is syntactic: every
//! constraint of the coverer must be implied by a constraint of the covered
//! filter *on the same attribute*, and a range constraint is only implied by
//! a numeric comparison whose own exact range lies inside its range. So the
//! entries that can cover a query `q` are the `Eq` entries pinned to the
//! value of one of `q`'s `Eq` constraints, the interval entries whose bounds
//! contain `q`'s bounds on their attribute, and the residual scan list; the
//! entries `q` can cover are — for a single-attribute `q` — the `Eq` entries
//! of its attribute, the interval entries inside its bounds, and again the
//! scan list. An interval entry is ruled out by two float comparisons on the
//! compact array; what survives is confirmed with the real `covers`, in
//! ascending position where the order is visible (subscription
//! re-propagation). A second differential property test pins all three
//! queries to the linear walk they replaced.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::address::Peer;
use crate::event::Event;
use crate::filter::{Filter, Op};
use crate::value::Value;

/// One `(neighbor, filter)` entry, optionally labeled.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterEntry {
    /// The interested neighbor (broker or client).
    pub peer: Peer,
    /// The filter the neighbor is interested in — a record shared with
    /// every other table (and message) that holds the same subscription.
    pub filter: FilterRef,
    /// MHH accept-only-from label: when set, events for this entry are only
    /// accepted when they arrive from the given neighbor.
    pub accept_only_from: Option<Peer>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Key of a [`Value`] in the equality map. Values that [`Value::eq_value`]
/// calls equal share a key: numerics canonicalise through `f64` (so `Int(3)`
/// and `Float(3.0)` collide, as matching requires) and `-0.0` folds onto
/// `0.0`. Unequal values may share one too (a string hashing onto a number's
/// bits, two NaNs) without harm — whatever comes out of the equality map is
/// re-checked with the real filter — so the key is a plain word and neither
/// linking nor matching clones a string.
fn value_key(value: &Value) -> u64 {
    let num = |f: f64| if f == 0.0 { 0 } else { f.to_bits() };
    match value {
        Value::Int(i) => num(*i as f64),
        Value::Float(f) => num(*f),
        Value::Str(s) => s
            .bytes()
            .fold(FNV_OFFSET, |h, b| (h ^ b as u64).wrapping_mul(FNV_PRIME)),
        Value::Bool(b) => *b as u64,
    }
}

/// FNV-1a content hash of a filter, respecting `Filter`'s derived equality
/// (equal filters hash equal; constraint order matters, as it does for
/// `PartialEq`). Used only to key the duplicate map and the deduplication of
/// records — lookups always confirm with a real equality check, so
/// collisions cost a probe, never correctness.
pub(crate) fn filter_hash(filter: &Filter) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for c in &filter.constraints {
        for b in c.attr.as_bytes() {
            mix(*b as u64);
        }
        mix(0xff);
        mix(c.op as u64);
        match &c.value {
            Value::Int(i) => {
                mix(1);
                mix(*i as u64);
            }
            Value::Float(f) => {
                mix(2);
                mix(f.to_bits());
            }
            Value::Str(s) => {
                mix(3);
                for b in s.as_bytes() {
                    mix(*b as u64);
                }
                mix(0xff);
            }
            Value::Bool(b) => {
                mix(4);
                mix(*b as u64);
            }
        }
    }
    h
}

/// The closed interval of `f64`s that satisfy `op v`, `None` for an operator
/// that is not a numeric comparison. **Exact**: a constraint compares the
/// event's value with its own through `as_f64` (see
/// [`Constraint::matches_value`](crate::filter::Constraint::matches_value)),
/// and among floats `x > v` is `x >= v.next_up()`, so an open end is the
/// closed end one step further in. A comparison nothing satisfies (`> +inf`,
/// `< -inf`) gives the empty interval `[+inf, -inf]`.
fn exact_range(op: Op, v: f64) -> Option<(f64, f64)> {
    const EMPTY: (f64, f64) = (f64::INFINITY, f64::NEG_INFINITY);
    Some(match op {
        Op::Ge => (v, f64::INFINITY),
        Op::Gt if v == f64::INFINITY => EMPTY,
        Op::Gt => (v.next_up(), f64::INFINITY),
        Op::Le => (f64::NEG_INFINITY, v),
        Op::Lt if v == f64::NEG_INFINITY => EMPTY,
        Op::Lt => (f64::NEG_INFINITY, v.next_down()),
        Op::Eq => (v, v),
        _ => return None,
    })
}

/// The bounds `filter`'s numeric comparisons put on `attr`: the closed
/// `[lo, hi]`, empty when `lo > hi`, of the values that satisfy them all.
/// Every other constraint is ignored, and so is a comparison with NaN
/// (`f64::max`/`min` ignore a NaN operand). Only a numeric comparison can
/// imply a range constraint (see
/// [`Constraint::implies`](crate::filter::Constraint::implies)), and only
/// when its own [`exact_range`] lies inside the other's, so an interval entry
/// `[lo', hi']` on `attr` can cover `filter` only when
/// `lo' <= lo && hi <= hi'`, and be covered by it only when
/// `lo <= lo' && hi' <= hi` — also when either interval is empty.
fn bounds_on(filter: &Filter, attr: &str) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for c in filter.constraints.iter().filter(|c| c.attr == attr) {
        if let Some((l, h)) = c.value.as_f64().and_then(|v| exact_range(c.op, v)) {
            lo = lo.max(l);
            hi = hi.min(h);
        }
    }
    (lo, hi)
}

/// How an entry is registered in the index. Computed once, when its
/// [`FilterRef`] is made, so removal unlinks exactly what insertion linked.
/// The attribute of an `Eq` or `Interval` entry is that of the filter's
/// first constraint.
#[derive(Clone, Copy)]
enum Class {
    /// A single `Eq` constraint: the [`value_key`] of its value.
    Eq(u64),
    /// Only numeric comparisons of one attribute, none with NaN: the filter
    /// matches an event exactly when the event's numeric value of the
    /// attribute lies in `[lo, hi]`.
    Interval(f64, f64),
    Scan,
}

fn classify(filter: &Filter) -> Class {
    let Some((first, rest)) = filter.constraints.split_first() else {
        return Class::Scan;
    };
    if rest.is_empty() && first.op == Op::Eq {
        return Class::Eq(value_key(&first.value));
    }
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for c in &filter.constraints {
        let number = c.value.as_f64().filter(|v| !v.is_nan());
        let range = number.and_then(|v| exact_range(c.op, v));
        let Some((l, h)) = range.filter(|_| c.attr == first.attr) else {
            return Class::Scan;
        };
        lo = lo.max(l);
        hi = hi.min(h);
    }
    Class::Interval(lo, hi)
}

/// A subscription's filter as the tables hold it: one immutable record,
/// shared by reference count between every broker's table, the messages
/// that carry the subscription and the protocols' per-client state, so
/// installing a subscription on every broker, a propagation hop, a handoff
/// or a checkpoint copies a pointer, not the filter.
///
/// The record also caches what the table's indexes need: the filter's
/// content hash and its index class (see `# Indexing` in the module docs),
/// both computed once, here. The filter itself is reached through `Deref`.
///
/// **Equality is by content**, as for [`Filter`]: two records are equal
/// when they are the same record or when their hashes and filters are
/// equal. Sharing is only the fast path, and nothing is ever hashed or
/// ordered by address, so a run replays byte for byte whatever was shared.
/// `Debug` prints the filter exactly as [`Filter`] does.
#[derive(Clone)]
pub struct FilterRef(Arc<Record>);

struct Record {
    filter: Filter,
    hash: u64,
    class: Class,
}

impl FilterRef {
    /// Make a record for `filter` (hashing and classifying it).
    pub fn new(filter: Filter) -> Self {
        FilterRef(Arc::new(Record {
            hash: filter_hash(&filter),
            class: classify(&filter),
            filter,
        }))
    }

    /// The filter.
    pub fn filter(&self) -> &Filter {
        &self.0.filter
    }

    /// Whether `a` and `b` are the same record (not merely equal filters).
    pub fn ptr_eq(a: &FilterRef, b: &FilterRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// A record claiming `hash` as its content hash, to stage collisions.
    #[cfg(test)]
    fn with_hash(filter: Filter, hash: u64) -> Self {
        let record = FilterRef::new(filter);
        let Record { filter, class, .. } = Arc::into_inner(record.0).expect("fresh");
        FilterRef(Arc::new(Record {
            filter,
            hash,
            class,
        }))
    }

    /// The cached content hash.
    fn hash(&self) -> u64 {
        self.0.hash
    }

    /// The cached index class.
    fn class(&self) -> Class {
        self.0.class
    }

    /// The attribute an `Eq` or `Interval` entry is indexed under.
    fn indexed_attr(&self) -> &str {
        &self.0.filter.constraints[0].attr
    }
}

impl std::ops::Deref for FilterRef {
    type Target = Filter;

    fn deref(&self) -> &Filter {
        &self.0.filter
    }
}

impl From<Filter> for FilterRef {
    fn from(filter: Filter) -> Self {
        FilterRef::new(filter)
    }
}

impl Default for FilterRef {
    /// A record of the match-all filter.
    fn default() -> Self {
        FilterRef::new(Filter::match_all())
    }
}

impl PartialEq for FilterRef {
    fn eq(&self, other: &FilterRef) -> bool {
        FilterRef::ptr_eq(self, other)
            || (self.hash() == other.hash() && self.0.filter == other.0.filter)
    }
}

impl PartialEq<Filter> for FilterRef {
    fn eq(&self, other: &Filter) -> bool {
        self.0.filter == *other
    }
}

impl fmt::Debug for FilterRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.filter, f)
    }
}

/// Remove `pos` from an ascending position list.
fn unlink(list: &mut Vec<u32>, pos: u32) {
    if let Ok(i) = list.binary_search(&pos) {
        list.remove(i);
    }
}

/// What matching and the covering queries need to know about a position
/// without touching its [`FilterEntry`]; parallel to `FilterTable::entries`.
#[derive(Clone, Copy)]
struct Meta {
    /// The exact bounds of an interval entry (see [`Class::Interval`]);
    /// meaningless for any other entry.
    lo: f64,
    hi: f64,
    /// The slot of the entry's peer.
    slot: u32,
    /// Cleared when the entry is removed (a tombstone until compaction).
    live: bool,
}

impl Meta {
    /// A live entry not linked yet.
    const FRESH: Meta = Meta {
        lo: 0.0,
        hi: 0.0,
        slot: 0,
        live: true,
    };
}

/// One peer's positions inside a grid bucket: `pos[start..end]`, where
/// `start` is the previous run's `end`.
#[derive(Clone, Copy)]
struct Run {
    slot: u32,
    end: u32,
}

/// One bucket of a [`Grid`]: positions **grouped by peer slot** — groups in
/// ascending slot order, positions ascending inside a group. Flat: one
/// position vector and one run vector however many peers it holds.
#[derive(Clone, Default)]
struct Bucket {
    pos: Vec<u32>,
    runs: Vec<Run>,
}

impl Bucket {
    /// The index of `slot`'s run (or where it would be inserted) and the
    /// offset in `pos` at which that run starts.
    fn run_of(&self, slot: u32) -> (usize, usize) {
        let i = self.runs.partition_point(|r| r.slot < slot);
        (i, i.checked_sub(1).map_or(0, |j| self.runs[j].end as usize))
    }

    /// Add a position above any the peer already has here (entries are
    /// linked in ascending position).
    fn insert(&mut self, slot: u32, pos: u32) {
        let (i, start) = self.run_of(slot);
        if self.runs.get(i).is_none_or(|r| r.slot != slot) {
            let end = start as u32;
            self.runs.insert(i, Run { slot, end });
        }
        let end = self.runs[i].end as usize;
        debug_assert!(self.pos[start..end].last().is_none_or(|&p| p < pos));
        self.pos.insert(end, pos);
        for r in &mut self.runs[i..] {
            r.end += 1;
        }
    }

    fn remove(&mut self, slot: u32, pos: u32) {
        let (i, start) = self.run_of(slot);
        let Some(run) = self.runs.get(i).filter(|r| r.slot == slot) else {
            return;
        };
        let Ok(k) = self.pos[start..run.end as usize].binary_search(&pos) else {
            return;
        };
        self.pos.remove(start + k);
        for r in &mut self.runs[i..] {
            r.end -= 1;
        }
        if self.runs[i].end as usize == start {
            self.runs.remove(i);
        }
    }
}

/// Bucket widths per median interval width. A query reads one bucket, which
/// holds the true matches plus the intervals that only touch it — one
/// bucket-width's worth, so a quarter more; an insert or a removal touches
/// five buckets.
const BUCKETS_PER_WIDTH: f64 = 4.0;
const MAX_BUCKETS: usize = 512;

/// Bucketed 1-D grid over the interval entries of one attribute. An
/// interval is registered in every bucket it touches; a query value probes
/// exactly one bucket. Out-of-domain values and bounds clamp onto the edge
/// buckets, which keeps the structure sound (a superset of true matches) for
/// intervals appended after the grid was sized.
#[derive(Clone)]
struct Grid {
    lo: f64,
    inv_step: f64,
    buckets: Vec<Bucket>,
    /// How many intervals the attribute held when the grid was sized.
    sized_for: usize,
}

impl Grid {
    /// Size a grid for `intervals` (ascending positions) and register them.
    /// The bucket width is a fixed fraction of the *median* interval width,
    /// so an entry sits in a handful of buckets whatever the selectivity of
    /// the workload's filters; intervals without a finite positive width
    /// (one-sided, point, empty) do not vote, and there are never more
    /// buckets than intervals.
    fn build(intervals: &[u32], meta: &[Meta]) -> Grid {
        let (mut dom_lo, mut dom_hi) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut widths: Vec<f64> = Vec::with_capacity(intervals.len());
        for m in intervals.iter().map(|&p| &meta[p as usize]) {
            for bound in [m.lo, m.hi] {
                if bound.is_finite() {
                    dom_lo = dom_lo.min(bound);
                    dom_hi = dom_hi.max(bound);
                }
            }
            let width = m.hi - m.lo;
            if width.is_finite() && width > 0.0 {
                widths.push(width);
            }
        }
        let span = (dom_hi - dom_lo).max(f64::MIN_POSITIVE);
        let mut buckets = intervals.len().clamp(1, MAX_BUCKETS);
        if !widths.is_empty() {
            let mid = widths.len() / 2;
            let (_, median, _) = widths.select_nth_unstable_by(mid, f64::total_cmp);
            // The cast saturates: a huge ratio means "as many as allowed".
            let wanted = (BUCKETS_PER_WIDTH * span / *median).ceil() as usize;
            buckets = buckets.min(wanted.max(1));
        }
        let mut grid = Grid {
            lo: if dom_lo.is_finite() { dom_lo } else { 0.0 },
            inv_step: if dom_lo.is_finite() {
                buckets as f64 / span
            } else {
                0.0
            },
            buckets: vec![Bucket::default(); buckets],
            sized_for: intervals.len(),
        };
        for &p in intervals {
            grid.insert(p, &meta[p as usize]);
        }
        grid
    }

    fn bucket_of(&self, v: f64) -> usize {
        // Negative and NaN casts saturate to 0, oversized to usize::MAX.
        (((v - self.lo) * self.inv_step) as usize).min(self.buckets.len() - 1)
    }

    fn insert(&mut self, pos: u32, m: &Meta) {
        for b in self.bucket_of(m.lo)..=self.bucket_of(m.hi) {
            self.buckets[b].insert(m.slot, pos);
        }
    }

    fn remove(&mut self, pos: u32, m: &Meta) {
        for b in self.bucket_of(m.lo)..=self.bucket_of(m.hi) {
            self.buckets[b].remove(m.slot, pos);
        }
    }
}

/// Per-attribute index: the equality map plus the interval entries and
/// their lazily-built grid.
#[derive(Clone, Default)]
struct AttrIndex {
    /// [`value_key`] → the single-`Eq` entries pinned to the value, in
    /// ascending position.
    eq: HashMap<u64, Vec<u32>>,
    /// Every live interval entry of this attribute in ascending position
    /// (master list; the grid is derived from it and rebuilt lazily after
    /// being dropped). Their bounds are in `FilterTable::meta`.
    intervals: Vec<u32>,
    grid: Option<Grid>,
}

impl AttrIndex {
    /// The grid to update after `intervals` changed, if there is one. A
    /// grid sized for fewer than half or more than twice today's intervals
    /// is dropped instead — the next match builds one that fits — so a table
    /// first matched while it was small does not keep a one-bucket grid.
    fn grid_to_update(&mut self) -> Option<&mut Grid> {
        let n = self.intervals.len();
        self.grid
            .take_if(|g| n > 2 * g.sized_for || 2 * n < g.sized_for);
        self.grid.as_mut()
    }
}

/// The index of `attr`, created on first use (only then is the name
/// allocated).
fn attr_index<'a>(attrs: &'a mut HashMap<String, AttrIndex>, attr: &str) -> &'a mut AttrIndex {
    if !attrs.contains_key(attr) {
        attrs.insert(attr.to_string(), AttrIndex::default());
    }
    attrs.get_mut(attr).expect("just ensured")
}

/// One peer's dense slot and its entry positions.
#[derive(Clone)]
struct PeerEntries {
    /// Index into `TableIndex::marks`, fixed until the next index rebuild
    /// (a peer whose entries are all removed keeps its slot).
    slot: u32,
    /// Ascending entry positions, for `filters_for`/`remove_peer`.
    positions: Vec<u32>,
}

/// What the latest `matching_targets` call that selected a peer found.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct Mark {
    /// The `epoch` of that call.
    epoch: u32,
    /// The lowest position, so far, of an entry of the peer that accepted
    /// the call's event.
    first: u32,
}

/// All incremental indexes over the entry vector.
#[derive(Clone, Default)]
struct TableIndex {
    attrs: HashMap<String, AttrIndex>,
    /// Unclassifiable entries, always probed.
    scan: Vec<u32>,
    /// `(peer, content hash)` → the position holding it, for O(1)
    /// duplicate/`contains`/label lookups (confirmed by real equality).
    dup: HashMap<(Peer, u64), u32>,
    /// Positions whose `(peer, content hash)` key another live entry held
    /// when they were linked: a true hash collision of different content
    /// (or a filter with a NaN, which equals nothing). Ascending; almost
    /// always empty.
    collided: Vec<u32>,
    /// Peer → its slot and positions.
    by_peer: HashMap<Peer, PeerEntries>,
    /// Slot → peer.
    peers: Vec<Peer>,
    /// Slot → the peer's mark.
    marks: Vec<Mark>,
    /// Stamp of the current `matching_targets` call; never 0, the value
    /// fresh marks hold.
    epoch: u32,
    /// Scratch of `matching_targets`: the slots selected so far, and at the
    /// end `first << 32 | slot` for the sort.
    selected: Vec<u64>,
}

/// The filter table of a broker.
#[derive(Clone, Default)]
pub struct FilterTable {
    entries: Vec<FilterEntry>,
    /// Slot, tombstone flag and exact bounds, parallel to `entries`.
    meta: Vec<Meta>,
    live_count: usize,
    index: TableIndex,
}

impl fmt::Debug for FilterTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The indexes and tombstones are derived state; keep diagnostics
        // (and any debug-format comparisons) pinned to the live entries.
        f.debug_list().entries(self.entries()).finish()
    }
}

impl FilterTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// True when the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Entry slots, tombstones included (how far compaction is behind).
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.entries.len()
    }

    /// Iterate over all entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &FilterEntry> {
        self.entries
            .iter()
            .zip(&self.meta)
            .filter_map(|(e, m)| m.live.then_some(e))
    }

    /// Register a (new) position in every index. The entry must already be
    /// pushed, with a [`Meta::FRESH`] cell beside it, and be the highest
    /// position linked so far.
    fn link(&mut self, pos: u32) {
        let e = &self.entries[pos as usize];
        let meta = &mut self.meta[pos as usize];
        let index = &mut self.index;
        let next_slot = index.peers.len() as u32;
        let of_peer = index.by_peer.entry(e.peer).or_insert_with(|| {
            index.peers.push(e.peer);
            index.marks.push(Mark::default());
            PeerEntries {
                slot: next_slot,
                positions: Vec::new(),
            }
        });
        of_peer.positions.push(pos);
        meta.slot = of_peer.slot;
        match index.dup.entry((e.peer, e.filter.hash())) {
            Entry::Vacant(slot) => {
                slot.insert(pos);
            }
            Entry::Occupied(_) => index.collided.push(pos),
        }
        match e.filter.class() {
            Class::Eq(key) => {
                let aidx = attr_index(&mut index.attrs, e.filter.indexed_attr());
                aidx.eq.entry(key).or_default().push(pos);
            }
            Class::Interval(lo, hi) => {
                (meta.lo, meta.hi) = (lo, hi);
                let aidx = attr_index(&mut index.attrs, e.filter.indexed_attr());
                aidx.intervals.push(pos);
                if let Some(grid) = aidx.grid_to_update() {
                    grid.insert(pos, meta);
                }
            }
            Class::Scan => index.scan.push(pos),
        }
    }

    /// Tombstone a live position and unlink it from every index.
    fn kill(&mut self, pos: u32) {
        let meta = &mut self.meta[pos as usize];
        debug_assert!(meta.live);
        meta.live = false;
        self.live_count -= 1;
        let e = &self.entries[pos as usize];
        let index = &mut self.index;
        match e.filter.class() {
            Class::Eq(key) => {
                let aidx = index.attrs.get_mut(e.filter.indexed_attr());
                if let Some(pinned) = aidx.and_then(|a| a.eq.get_mut(&key)) {
                    unlink(pinned, pos);
                }
            }
            Class::Interval(..) => {
                if let Some(aidx) = index.attrs.get_mut(e.filter.indexed_attr()) {
                    unlink(&mut aidx.intervals, pos);
                    if let Some(grid) = aidx.grid_to_update() {
                        grid.remove(pos, meta);
                    }
                }
            }
            Class::Scan => unlink(&mut index.scan, pos),
        }
        let key = (e.peer, e.filter.hash());
        if index.dup.get(&key) == Some(&pos) {
            index.dup.remove(&key);
        } else {
            unlink(&mut index.collided, pos);
        }
        if let Some(of_peer) = index.by_peer.get_mut(&e.peer) {
            unlink(&mut of_peer.positions, pos);
        }
    }

    /// Compact the entry vector and rebuild the indexes once tombstones
    /// outnumber live entries (amortized O(1) per removal).
    fn maybe_compact(&mut self) {
        let dead = self.entries.len() - self.live_count;
        if dead <= self.live_count.max(64) {
            return;
        }
        let mut alive = self.meta.iter().map(|m| m.live);
        self.entries
            .retain(|_| alive.next().expect("parallel vecs"));
        self.meta.clear();
        self.meta.resize(self.entries.len(), Meta::FRESH);
        self.live_count = self.entries.len();
        self.index = TableIndex::default();
        for pos in 0..self.entries.len() as u32 {
            self.link(pos);
        }
    }

    /// The live position of `peer`'s entry whose filter hashes to `hash`
    /// and is `same`, if any. The duplicate map holds one position per key;
    /// anything else with the key is on the collision list.
    fn position_of(&self, peer: Peer, hash: u64, same: impl Fn(&FilterRef) -> bool) -> Option<u32> {
        let hit = |p: &u32| {
            let e = &self.entries[*p as usize];
            e.peer == peer && e.filter.hash() == hash && same(&e.filter)
        };
        let first = self.index.dup.get(&(peer, hash)).filter(|p| hit(p));
        first
            .or_else(|| self.index.collided.iter().find(|p| hit(p)))
            .copied()
    }

    /// [`position_of`](Self::position_of) a bare filter, hashed here.
    fn position_of_filter(&self, peer: Peer, filter: &Filter) -> Option<u32> {
        self.position_of(peer, filter_hash(filter), |f| f.filter() == filter)
    }

    /// Add an unlabeled entry. Duplicate `(peer, filter)` pairs are ignored
    /// (the table is a set).
    pub fn add(&mut self, peer: Peer, filter: Filter) -> bool {
        self.add_ref(peer, FilterRef::new(filter), None)
    }

    /// Add an entry with an accept-only-from label.
    /// Returns `true` when the entry was actually inserted.
    pub fn add_labeled(&mut self, peer: Peer, filter: Filter, label: Option<Peer>) -> bool {
        self.add_ref(peer, FilterRef::new(filter), label)
    }

    /// Add an entry holding a (shared) filter record, with an optional
    /// accept-only-from label — the one insertion path. Duplicate
    /// `(peer, filter)` pairs are ignored (the table is a set). Reads the
    /// record's cached hash and class, and allocates nothing per entry
    /// beyond the amortized growth of the table's vectors and maps.
    /// Returns `true` when the entry was actually inserted.
    pub fn add_ref(&mut self, peer: Peer, filter: FilterRef, label: Option<Peer>) -> bool {
        if self
            .position_of(peer, filter.hash(), |f| *f == filter)
            .is_some()
        {
            return false;
        }
        self.maybe_compact();
        let pos = self.entries.len() as u32;
        self.entries.push(FilterEntry {
            peer,
            filter,
            accept_only_from: label,
        });
        self.meta.push(Meta::FRESH);
        self.live_count += 1;
        self.link(pos);
        true
    }

    /// Remove the `(peer, filter)` entry. Returns `true` when present.
    pub fn remove(&mut self, peer: Peer, filter: &Filter) -> bool {
        let pos = self.position_of_filter(peer, filter);
        self.remove_at(pos)
    }

    /// [`remove`](Self::remove) by record, on its cached hash.
    pub fn remove_ref(&mut self, peer: Peer, filter: &FilterRef) -> bool {
        let pos = self.position_of(peer, filter.hash(), |f| f == filter);
        self.remove_at(pos)
    }

    fn remove_at(&mut self, pos: Option<u32>) -> bool {
        let Some(pos) = pos else {
            return false;
        };
        self.kill(pos);
        self.maybe_compact();
        true
    }

    /// Remove every entry for a peer, returning copies of the removed
    /// filters (collected first, then the entries cleared as the repair
    /// path clears them, copying nothing).
    pub fn remove_peer(&mut self, peer: Peer) -> Vec<Filter> {
        let removed = self
            .filters_for(peer)
            .into_iter()
            .map(|f| f.filter().clone())
            .collect();
        self.clear_peer(peer);
        removed
    }

    /// Remove every entry for a peer, copying and allocating nothing per
    /// entry — what a broker does when a neighbour is declared dead.
    pub(crate) fn clear_peer(&mut self, peer: Peer) {
        // Taking the list (the slot stays) also spares `kill` its per-entry
        // unlinking from it.
        let positions = match self.index.by_peer.get_mut(&peer) {
            Some(of_peer) => std::mem::take(&mut of_peer.positions),
            None => return,
        };
        for pos in positions {
            if self.meta[pos as usize].live {
                self.kill(pos);
            }
        }
        self.maybe_compact();
    }

    /// Whether the `(peer, filter)` entry exists.
    pub fn contains(&self, peer: Peer, filter: &Filter) -> bool {
        self.position_of_filter(peer, filter).is_some()
    }

    /// All filters registered for a peer.
    pub fn filters_for(&self, peer: Peer) -> Vec<&FilterRef> {
        match self.index.by_peer.get(&peer) {
            Some(of_peer) => of_peer
                .positions
                .iter()
                .filter(|&&p| self.meta[p as usize].live)
                .map(|&p| &self.entries[p as usize].filter)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Set (or clear) the accept-only-from label on an existing entry.
    /// Returns `true` when the entry was found.
    pub fn set_label(&mut self, peer: Peer, filter: &Filter, label: Option<Peer>) -> bool {
        match self.position_of_filter(peer, filter) {
            Some(pos) => {
                self.entries[pos as usize].accept_only_from = label;
                true
            }
            None => false,
        }
    }

    /// The current label of an entry (None when unlabeled or absent).
    pub fn label_of(&self, peer: Peer, filter: &Filter) -> Option<Peer> {
        self.position_of_filter(peer, filter)
            .and_then(|pos| self.entries[pos as usize].accept_only_from)
    }

    /// Reverse-path-forwarding matching: the set of neighbors an event
    /// arriving from `from` must be handed to.
    ///
    /// * the neighbor the event came from is never selected (RPF),
    /// * labeled entries only match when the event arrived from the label.
    ///
    /// Each peer is returned at most once even if several of its filters
    /// match, in the order a plain in-order scan of the table would find
    /// them: by the position of the peer's first matching entry. The match
    /// keeps that position per peer slot, stamped with this call's epoch,
    /// while it folds in the residual scan list, the equality hits and the
    /// one grid bucket per numeric attribute of the event — an entry at or
    /// above its peer's current first match is not evaluated at all, and a
    /// bucket's group is left at its first accepted entry — then sorts the
    /// selected peers by it.
    pub fn matching_targets(&mut self, event: &Event, from: Peer) -> Vec<Peer> {
        let mut targets = Vec::new();
        self.matching_targets_into(event, from, &mut targets);
        targets
    }

    /// [`matching_targets`](Self::matching_targets) into a caller-owned
    /// buffer: `out` is cleared and then holds the targets, so a caller
    /// that keeps one buffer matches without allocating once it has grown.
    pub fn matching_targets_into(&mut self, event: &Event, from: Peer, out: &mut Vec<Peer>) {
        out.clear();
        let index = &mut self.index;
        if index.epoch == u32::MAX {
            index.marks.fill(Mark::default());
            index.epoch = 0;
        }
        index.epoch += 1;
        index.selected.clear();
        let mut matching = Matching {
            event,
            from,
            // RPF: the entries of `from`'s slot are never candidates.
            from_slot: index.by_peer.get(&from).map_or(u32::MAX, |p| p.slot),
            epoch: index.epoch,
            entries: &self.entries,
            meta: &self.meta,
            marks: &mut index.marks,
            selected: &mut index.selected,
        };
        for &pos in &index.scan {
            matching.evaluate(pos);
        }
        for (attr, aidx) in index.attrs.iter_mut() {
            let Some(value) = event.get(attr) else {
                continue;
            };
            if !aidx.eq.is_empty() {
                for &pos in aidx.eq.get(&value_key(value)).into_iter().flatten() {
                    matching.evaluate(pos);
                }
            }
            if !aidx.intervals.is_empty() {
                if let Some(v) = value.as_f64() {
                    let grid = aidx
                        .grid
                        .get_or_insert_with(|| Grid::build(&aidx.intervals, &self.meta));
                    matching.probe(&grid.buckets[grid.bucket_of(v)], v);
                }
            }
        }
        // Ascending first-match position is the order of an in-order scan.
        for s in index.selected.iter_mut() {
            *s |= (index.marks[*s as usize].first as u64) << 32;
        }
        index.selected.sort_unstable();
        out.extend(
            index
                .selected
                .iter()
                .map(|&s| index.peers[s as u32 as usize]),
        );
    }

    /// Is there an entry from a peer other than `except` whose filter covers
    /// `filter`? Used by the covering optimisation to decide whether a new
    /// subscription needs to be propagated to a neighbor, and whether an
    /// unsubscription may be suppressed (labels are ignored).
    pub fn covered_by_other(&self, filter: &Filter, except: Peer) -> bool {
        self.any_coverer(filter, &[except])
    }

    /// Is there an entry of a peer outside `excluded` whose filter covers
    /// `filter`? Every constraint of a coverer is implied by a constraint
    /// of `filter` on the same attribute, so outside the residual scan list
    /// a coverer is an `Eq` entry pinned to the value of one of `filter`'s
    /// `Eq` constraints, or an interval entry containing `filter`'s bounds
    /// on its attribute.
    fn any_coverer(&self, filter: &Filter, excluded: &[Peer]) -> bool {
        let hit = |pos: u32| {
            let e = &self.entries[pos as usize];
            !excluded.contains(&e.peer) && covers(&e.filter, filter)
        };
        if self.index.scan.iter().any(|&p| hit(p)) {
            return true;
        }
        for (i, c) in filter.constraints.iter().enumerate() {
            let Some(aidx) = self.index.attrs.get(&c.attr) else {
                continue;
            };
            if c.op == Op::Eq {
                if let Some(pinned) = aidx.eq.get(&value_key(&c.value)) {
                    if pinned.iter().any(|&p| hit(p)) {
                        return true;
                    }
                }
            }
            // The interval list once per attribute, at its first constraint.
            if aidx.intervals.is_empty() || filter.constraints[..i].iter().any(|d| d.attr == c.attr)
            {
                continue;
            }
            let (lo, hi) = bounds_on(filter, &c.attr);
            let mut containing = aidx.intervals.iter().filter(|&&p| {
                let m = &self.meta[p as usize];
                m.lo <= lo && hi <= m.hi
            });
            if containing.any(|&p| hit(p)) {
                return true;
            }
        }
        false
    }

    /// Every entry whose filter `filter` covers, in insertion order. Each
    /// constraint of `filter` is implied by a constraint of such an entry on
    /// the same attribute, so outside the residual scan list only a
    /// single-attribute `filter` covers anything: `Eq` entries of its
    /// attribute and interval entries inside its bounds. (Match-all covers
    /// the whole table.)
    pub fn covered_entries(&self, filter: &Filter) -> Vec<&FilterEntry> {
        let Some((first, rest)) = filter.constraints.split_first() else {
            return self.entries().collect();
        };
        let mut cand = self.index.scan.clone();
        if let Some(aidx) = self.index.attrs.get(&first.attr) {
            if rest.iter().all(|c| c.attr == first.attr) {
                match filter.constraints.iter().find(|c| c.op == Op::Eq) {
                    Some(c) => cand.extend(aidx.eq.get(&value_key(&c.value)).into_iter().flatten()),
                    None => cand.extend(aidx.eq.values().flatten()),
                }
                let (lo, hi) = bounds_on(filter, &first.attr);
                cand.extend(aidx.intervals.iter().filter(|&&p| {
                    let m = &self.meta[p as usize];
                    lo <= m.lo && m.hi <= hi
                }));
            }
        }
        cand.sort_unstable();
        cand.into_iter()
            .map(|p| &self.entries[p as usize])
            .filter(|e| covers(filter, &e.filter))
            .collect()
    }

    /// Does this broker still need events matching `filter` for any peer
    /// outside `excluded`? Decides the `cancel_prev` flag of MHH's
    /// `sub_migration` (the "whether the sender will cancel the filter"
    /// indication of Section 4.1). Deliberately liberal: any related filter
    /// (covering in either direction) counts as "still needed", so entries
    /// are never deleted while some other subscriber could still depend on
    /// them.
    pub fn related_to_other(&self, filter: &Filter, excluded: &[Peer]) -> bool {
        self.any_coverer(filter, excluded)
            || self
                .covered_entries(filter)
                .iter()
                .any(|e| !excluded.contains(&e.peer))
    }

    /// Every distinct filter with at least one entry, in first-seen order
    /// (the record of its first entry).
    pub fn distinct_filters(&self) -> Vec<FilterRef> {
        let mut out: Vec<FilterRef> = Vec::new();
        // Cached content hash → indices into `out`, confirmed by equality.
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        for e in self.entries() {
            let same_hash = seen.entry(e.filter.hash()).or_default();
            if !same_hash.iter().any(|&i| out[i] == e.filter) {
                same_hash.push(out.len());
                out.push(e.filter.clone());
            }
        }
        out
    }
}

/// A table holding `entries` in their order, built through
/// [`FilterTable::add_ref`] (so a duplicate `(peer, filter)` pair keeps its
/// first entry). Answers depend on relative entry positions only, so the
/// table built from another's [`entries`](FilterTable::entries) answers
/// every query exactly as that table does.
impl FromIterator<FilterEntry> for FilterTable {
    fn from_iter<I: IntoIterator<Item = FilterEntry>>(entries: I) -> Self {
        let mut table = FilterTable::new();
        for e in entries {
            table.add_ref(e.peer, e.filter, e.accept_only_from);
        }
        table
    }
}

/// One `matching_targets` call: the event, where it came from, and the
/// per-slot first-match positions the candidates fold into.
struct Matching<'a> {
    event: &'a Event,
    from: Peer,
    from_slot: u32,
    epoch: u32,
    entries: &'a [FilterEntry],
    meta: &'a [Meta],
    marks: &'a mut [Mark],
    selected: &'a mut Vec<u64>,
}

impl Matching<'_> {
    /// The position below which an entry of `slot` would still lower the
    /// peer's first match.
    fn limit(&self, slot: u32) -> u32 {
        let mark = &self.marks[slot as usize];
        if mark.epoch == self.epoch {
            mark.first
        } else {
            u32::MAX
        }
    }

    /// Does the event satisfy the label of the entry at `pos`?
    fn label_accepts(&self, pos: u32) -> bool {
        let label = self.entries[pos as usize].accept_only_from;
        label.is_none_or(|l| l == self.from)
    }

    /// Record `pos` (below `limit(slot)`) as the peer's first match.
    fn select(&mut self, slot: u32, pos: u32) {
        let mark = &mut self.marks[slot as usize];
        if mark.epoch != self.epoch {
            self.selected.push(slot as u64);
        }
        *mark = Mark {
            epoch: self.epoch,
            first: pos,
        };
    }

    /// A candidate from the scan list or the equality map: confirmed with
    /// the real filter.
    fn evaluate(&mut self, pos: u32) {
        let slot = self.meta[pos as usize].slot;
        if slot == self.from_slot || pos >= self.limit(slot) {
            return;
        }
        count_probe();
        if self.label_accepts(pos) && self.entries[pos as usize].filter.matches(self.event) {
            self.select(slot, pos);
        }
    }

    /// The interval candidates of the bucket `v` falls in: accepted on
    /// their exact bounds, each group only up to its first accepted entry.
    fn probe(&mut self, bucket: &Bucket, v: f64) {
        let mut start = 0;
        for run in &bucket.runs {
            let group = &bucket.pos[start..run.end as usize];
            start = run.end as usize;
            if run.slot == self.from_slot {
                continue;
            }
            let limit = self.limit(run.slot);
            for &pos in group.iter().take_while(|&&pos| pos < limit) {
                count_probe();
                let m = &self.meta[pos as usize];
                if m.lo <= v && v <= m.hi && self.label_accepts(pos) {
                    self.select(run.slot, pos);
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Entries examined by `matching_targets` on this thread (bounds
    /// comparisons and filter evaluations), for the cost tests.
    static MATCH_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// `Filter::covers` evaluations made by the covering queries on this
    /// thread, for the cost test.
    static COVER_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One entry examined by a match.
fn count_probe() {
    #[cfg(test)]
    MATCH_PROBES.with(|n| n.set(n.get() + 1));
}

/// `wide.covers(narrow)` as the covering queries evaluate it.
fn covers(wide: &Filter, narrow: &Filter) -> bool {
    #[cfg(test)]
    COVER_PROBES.with(|n| n.set(n.get() + 1));
    wide.covers(narrow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{BrokerId, ClientId};
    use crate::event::EventBuilder;
    use crate::filter::Op;

    fn ev(group: i64) -> Event {
        EventBuilder::new()
            .attr("group", group)
            .build(1, ClientId(0), 0)
    }

    fn f(group: i64) -> Filter {
        Filter::single("group", Op::Eq, group)
    }

    const B1: Peer = Peer::Broker(BrokerId(1));
    const B2: Peer = Peer::Broker(BrokerId(2));
    const C1: Peer = Peer::Client(ClientId(1));

    #[test]
    fn add_remove_contains() {
        let mut t = FilterTable::new();
        assert!(t.add(B1, f(3)));
        assert!(!t.add(B1, f(3)), "duplicates are ignored");
        assert!(t.contains(B1, &f(3)));
        assert!(!t.contains(B2, &f(3)));
        assert!(t.remove(B1, &f(3)));
        assert!(!t.remove(B1, &f(3)));
        assert!(t.is_empty());
    }

    #[test]
    fn matching_respects_rpf() {
        let mut t = FilterTable::new();
        t.add(B1, f(3));
        t.add(B2, f(3));
        t.add(C1, f(3));
        // Event arriving from B1 goes to B2 and C1 but never back to B1.
        let targets = t.matching_targets(&ev(3), B1);
        assert_eq!(targets, vec![B2, C1]);
        // Non-matching event goes nowhere.
        assert!(t.matching_targets(&ev(4), B1).is_empty());
    }

    #[test]
    fn matching_respects_labels() {
        let mut t = FilterTable::new();
        t.add(B1, f(3));
        t.add_labeled(C1, f(3), Some(B1));
        // From B1 the labeled client entry is accepted.
        assert_eq!(t.matching_targets(&ev(3), B1), vec![C1]);
        // From B2 the labeled entry is skipped; B1's broker entry matches.
        assert_eq!(t.matching_targets(&ev(3), B2), vec![B1]);
    }

    #[test]
    fn label_set_and_clear() {
        let mut t = FilterTable::new();
        t.add(C1, f(3));
        assert_eq!(t.label_of(C1, &f(3)), None);
        assert!(t.set_label(C1, &f(3), Some(B2)));
        assert_eq!(t.label_of(C1, &f(3)), Some(B2));
        assert!(t.set_label(C1, &f(3), None));
        assert_eq!(t.label_of(C1, &f(3)), None);
        assert!(!t.set_label(B1, &f(3), Some(B2)), "absent entry");
    }

    #[test]
    fn peer_deduplication_in_targets() {
        let mut t = FilterTable::new();
        t.add(B2, f(3));
        t.add(B2, Filter::match_all());
        let targets = t.matching_targets(&ev(3), B1);
        assert_eq!(
            targets,
            vec![B2],
            "peer appears once even with two matching filters"
        );
    }

    #[test]
    fn remove_peer_returns_filters() {
        let mut t = FilterTable::new();
        t.add(C1, f(1));
        t.add(C1, f(2));
        t.add(B1, f(1));
        let removed = t.remove_peer(C1);
        assert_eq!(removed.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.filters_for(C1).is_empty());
    }

    #[test]
    fn covered_by_other_uses_covering() {
        let mut t = FilterTable::new();
        t.add(B1, Filter::single("price", Op::Ge, 10.0));
        let narrow = Filter::single("price", Op::Ge, 50.0);
        assert!(t.covered_by_other(&narrow, B2));
        assert!(
            !t.covered_by_other(&narrow, B1),
            "the only covering entry is excluded"
        );
    }

    #[test]
    fn filters_for_lists_per_peer() {
        let mut t = FilterTable::new();
        t.add(C1, f(1));
        t.add(C1, f(2));
        assert_eq!(t.filters_for(C1).len(), 2);
        assert!(t.filters_for(B1).is_empty());
    }

    #[test]
    fn cross_type_numeric_eq_entries_still_match() {
        // eq_value treats Int(3) and Float(3.0) as equal; the equality map
        // must keep that semantics for single-Eq entries.
        let mut t = FilterTable::new();
        t.add(C1, Filter::single("group", Op::Eq, 3.0f64));
        let e = ev(3); // carries Int(3)
        assert_eq!(t.matching_targets(&e, B1), vec![C1]);
    }

    #[test]
    fn range_entries_match_through_the_grid() {
        // The evaluation workload's filter shape: lo <= v < hi.
        let mut t = FilterTable::new();
        for i in 0..50u32 {
            let lo = i as f64 / 50.0;
            t.add(
                Peer::Client(ClientId(i)),
                Filter::new(vec![])
                    .and("v", Op::Ge, lo)
                    .and("v", Op::Lt, lo + 0.1),
            );
        }
        let e = EventBuilder::new()
            .attr("v", 0.505)
            .build(1, ClientId(0), 0);
        let targets = t.matching_targets(&e, B1);
        // Clients with lo in (0.405, 0.505]: indices 21..=25.
        let expect: Vec<Peer> = (21..=25).map(|i| Peer::Client(ClientId(i))).collect();
        assert_eq!(targets, expect);
    }

    #[test]
    fn compaction_preserves_order_and_content() {
        let mut t = FilterTable::new();
        for i in 0..200u32 {
            t.add(Peer::Client(ClientId(i)), f(i as i64 % 5));
        }
        for i in 0..150u32 {
            assert!(t.remove(Peer::Client(ClientId(i)), &f(i as i64 % 5)));
        }
        assert_eq!(t.len(), 50);
        let survivors: Vec<Peer> = t.entries().map(|e| e.peer).collect();
        let expect: Vec<Peer> = (150..200).map(|i| Peer::Client(ClientId(i))).collect();
        assert_eq!(survivors, expect, "insertion order survives compaction");
        let targets = t.matching_targets(&ev(3), B1);
        let matching: Vec<Peer> = (150..200)
            .filter(|i| i % 5 == 3)
            .map(|i| Peer::Client(ClientId(i)))
            .collect();
        assert_eq!(targets, matching);
    }

    /// What a plain in-order scan of the table hands the event to.
    fn linear_scan(t: &FilterTable, event: &Event, from: Peer) -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        for e in t.entries() {
            if e.peer == from {
                continue;
            }
            if let Some(label) = e.accept_only_from {
                if label != from {
                    continue;
                }
            }
            if e.filter.matches(event) && !out.contains(&e.peer) {
                out.push(e.peer);
            }
        }
        out
    }

    /// Differential check: the indexed matcher must return exactly what the
    /// original in-order linear scan returned — the same peers in the same
    /// order — across random tables, random events, and interleaved
    /// removals (which exercise tombstones, bucket unlinking, grid re-sizes
    /// and compaction). Bounds and event values share a small lattice, so
    /// values sit exactly on open and closed ends all the time.
    #[test]
    fn indexed_matching_equals_linear_scan() {
        use mhh_simnet::random::DetRng;

        let mut rng = DetRng::new(0xf117_ab1e);
        // Few peers, so each owns many entries of every class: a bucket
        // group, equality hits and scan entries of one peer compete for its
        // first match.
        let peer = |rng: &mut DetRng| -> Peer {
            if rng.index(2) == 0 {
                Peer::Broker(BrokerId(rng.index(4) as u32))
            } else {
                Peer::Client(ClientId(rng.index(6) as u32))
            }
        };
        // A lattice number as `Int` or `Float`: constraints and events
        // compare across the two representations.
        let num = |rng: &mut DetRng, x: i64| -> Value {
            if rng.index(2) == 0 {
                Value::Int(x)
            } else {
                Value::Float(x as f64)
            }
        };
        const LOWER: [Op; 2] = [Op::Ge, Op::Gt];
        const UPPER: [Op; 2] = [Op::Le, Op::Lt];
        const ANY: [Op; 5] = [Op::Ge, Op::Gt, Op::Le, Op::Lt, Op::Eq];
        const ODD: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let filt = |rng: &mut DetRng, spread: usize| -> Filter {
            let x = rng.index(spread) as i64;
            let w = 1 + rng.index(6) as i64;
            let k = rng.index(5) as i64;
            let near = x + rng.index(3) as i64 - 1;
            let attr = ["price", "v"][rng.index(2)];
            match rng.index(14) {
                0 => f(k),
                1 => Filter::single("group", Op::Eq, k as f64),
                // One-sided, and a point.
                2 => Filter::single(attr, ANY[rng.index(5)], num(rng, x)),
                // Windows with every combination of open and closed ends.
                3..=5 => Filter::single(attr, LOWER[rng.index(2)], num(rng, x)).and(
                    attr,
                    UPPER[rng.index(2)],
                    num(rng, x + w),
                ),
                // `Eq` + range on one attribute, satisfiable or not.
                6 => Filter::single(attr, Op::Eq, num(rng, x)).and(
                    attr,
                    ANY[rng.index(4)],
                    num(rng, near),
                ),
                // Empty: lo > hi.
                7 => Filter::single(attr, Op::Ge, num(rng, x + w)).and(attr, Op::Le, num(rng, x)),
                // Infinite and NaN bounds, alone and beside a real one.
                8 => Filter::single(attr, ANY[rng.index(5)], ODD[rng.index(3)]),
                9 => Filter::single(attr, Op::Ge, num(rng, x)).and(
                    attr,
                    UPPER[rng.index(2)],
                    ODD[rng.index(3)],
                ),
                10 => Filter::match_all(),
                11 => f(k).and(attr, LOWER[rng.index(2)], num(rng, x)),
                12 => {
                    Filter::single("price", Op::Ge, num(rng, x)).and("v", Op::Lt, num(rng, x + w))
                }
                _ => [
                    Filter::single("group", Op::Ne, k),
                    Filter::single(attr, Op::Exists, 0i64),
                    Filter::single("sym", Op::Prefix, "AC"),
                ][rng.index(3)]
                .clone(),
            }
        };
        // NaN, infinite, string-valued and missing attributes included.
        let event = |rng: &mut DetRng, spread: usize| -> Event {
            let mut b = EventBuilder::new();
            for attr in ["group", "price", "v"] {
                let x = rng.index(if attr == "group" { 5 } else { spread + 6 }) as i64;
                b = match rng.index(12) {
                    0 => b,
                    1 => b.attr(attr, ODD[rng.index(3)]),
                    2 => b.attr(attr, "ACME"),
                    _ => b.attr(attr, num(rng, x)),
                };
            }
            if rng.index(2) == 0 {
                b = b.attr("sym", "ACME");
            }
            b.build(1, ClientId(0), 0)
        };
        let check = |t: &mut FilterTable, rng: &mut DetRng, spread: usize| {
            let (event, from) = (event(rng, spread), peer(rng));
            assert_eq!(
                t.matching_targets(&event, from),
                linear_scan(t, &event, from),
                "index diverged from linear scan on {event:?} from {from:?}"
            );
        };
        let grid_of = |t: &FilterTable| -> Option<usize> {
            let aidx = t.index.attrs.get("price")?;
            Some(aidx.grid.as_ref()?.sized_for)
        };

        // Small tables, every shape.
        for _ in 0..96 {
            let mut t = FilterTable::new();
            for _ in 0..rng.index(40) {
                let label = (rng.index(3) == 0).then(|| peer(&mut rng));
                t.add_labeled(peer(&mut rng), filt(&mut rng, 12), label);
            }
            for _ in 0..12 {
                match rng.index(3) {
                    0 => {
                        t.add(peer(&mut rng), filt(&mut rng, 12));
                    }
                    1 => {
                        t.remove_peer(peer(&mut rng));
                    }
                    _ => {}
                }
                check(&mut t, &mut rng, 12);
            }
        }

        // Tables that grow to several hundred entries and shrink again,
        // matched all along: grids are sized early, outgrown, re-sized,
        // emptied and dropped by compactions.
        let (mut resizes, mut compactions) = (0, 0);
        for _ in 0..6 {
            let mut t = FilterTable::new();
            for growing in [true, false, true, false] {
                for _ in 0..700 {
                    let (slots, sized_for) = (t.entries.len(), grid_of(&t));
                    if rng.index(8) < if growing { 7 } else { 1 } {
                        let label = (rng.index(4) == 0).then(|| peer(&mut rng));
                        t.add_labeled(peer(&mut rng), filt(&mut rng, 400), label);
                    } else if rng.index(40) == 0 {
                        t.remove_peer(peer(&mut rng));
                    } else if !t.is_empty() {
                        let e = t.entries().nth(rng.index(t.len())).expect("in range");
                        let (p, filter) = (e.peer, e.filter.clone());
                        // (A filter with a NaN in it equals nothing, itself
                        // included, and stays.)
                        t.remove(p, &filter);
                    }
                    let compacted = t.entries.len() < slots;
                    compactions += usize::from(compacted);
                    resizes +=
                        usize::from(!compacted && sized_for.is_some() && grid_of(&t).is_none());
                    if rng.index(3) == 0 {
                        check(&mut t, &mut rng, 400);
                    }
                }
            }
        }
        assert!(resizes >= 12, "grid re-sizes exercised ({resizes})");
        assert!(compactions >= 6, "compaction exercised ({compactions})");

        // A labelled entry first, an unlabelled match of the same peer
        // later — in the same bucket group, in the scan list, and behind an
        // equality hit: the peer is found at the later position.
        let window = |lo: f64| Filter::single("price", Op::Ge, lo).and("price", Op::Lt, lo + 10.0);
        let mut t = FilterTable::new();
        t.add_labeled(C1, window(0.0), Some(B2));
        t.add_labeled(B2, f(3), Some(C1));
        t.add(B1, window(1.0));
        t.add(C1, window(2.0));
        t.add(B2, Filter::match_all());
        let e = EventBuilder::new()
            .attr("group", 3i64)
            .attr("price", 5.0)
            .build(1, ClientId(0), 0);
        assert_eq!(t.matching_targets(&e, B1), vec![C1, B2]);
        assert_eq!(t.matching_targets(&e, B2), vec![C1, B1]);
        assert_eq!(t.matching_targets(&e, C1), vec![B2, B1]);
        for from in [B1, B2, C1] {
            assert_eq!(t.matching_targets(&e, from), linear_scan(&t, &e, from));
        }

        // The audit's shape: thousands of peers that all match, some through
        // several entries, where the per-peer "at most once" check is the
        // cost. Order and content must still equal the in-order scan, also
        // after removals leave marked slots behind.
        let mut t = FilterTable::new();
        for i in 0..2_400u32 {
            let filter = match i % 3 {
                0 => Filter::match_all(),
                1 => Filter::single("price", Op::Ge, 0.0),
                _ => f(2),
            };
            t.add(Peer::Client(ClientId(i % 2_000)), filter);
        }
        let event = EventBuilder::new()
            .attr("group", 2i64)
            .attr("price", 7.0)
            .build(1, ClientId(0), 0);
        for round in 0..3u32 {
            for from in [B1, Peer::Client(ClientId(5)), Peer::Client(ClientId(1_999))] {
                let got = t.matching_targets(&event, from);
                assert!(got.len() >= 1_900 - 100 * round as usize);
                assert_eq!(got, linear_scan(&t, &event, from));
            }
            for i in 0..100 {
                t.remove_peer(Peer::Client(ClientId(round * 100 + i)));
            }
        }
    }

    /// `N` distinct windows of 6.25 % selectivity (the evaluation workload's
    /// shape), window `i` owned by `owner(i)`. With `early_match` the table
    /// is matched once while it holds a single window, which sizes a
    /// one-bucket grid.
    fn windows_table(owner: impl Fn(u32) -> Peer, early_match: bool) -> FilterTable {
        let mut t = FilterTable::new();
        for i in 0..WINDOWS {
            let lo = i as f64 / WINDOWS as f64;
            let window = Filter::single("v", Op::Ge, lo).and("v", Op::Lt, lo + 0.0625);
            t.add(owner(i), window);
            if i == 0 && early_match {
                assert_eq!(t.matching_targets(&ev_v(0.01), B1), vec![owner(0)]);
            }
        }
        t
    }

    const WINDOWS: u32 = 2_048;

    fn ev_v(v: f64) -> Event {
        EventBuilder::new().attr("v", v).build(1, ClientId(0), 0)
    }

    /// `matching_targets` and the number of entries it examined.
    fn probed(t: &mut FilterTable, event: &Event, from: Peer) -> (Vec<Peer>, usize) {
        let before = MATCH_PROBES.with(|n| n.get());
        let targets = t.matching_targets(event, from);
        (targets, MATCH_PROBES.with(|n| n.get()) - before)
    }

    /// The point of grouping buckets by peer, as a count rather than a time:
    /// a routing decision examines entries in proportion to the peers it can
    /// select, not to the subscribers behind them.
    #[test]
    fn matching_probes_scale_with_peers() {
        // 8 neighbour brokers own all but 32 of the windows; 32 clients one
        // each.
        const PEERS: usize = 8 + 32;
        let owner = |i: u32| match i % 64 {
            0 if i / 64 < 32 => Peer::Client(ClientId(i / 64)),
            _ => Peer::Broker(BrokerId(i % 8)),
        };
        let mut t = windows_table(owner, false);
        let (mut examined, mut selected) = (0, 0);
        for step in 0..200 {
            let event = ev_v(step as f64 / 200.0);
            let from = Peer::Broker(BrokerId(step % 9));
            let (targets, probes) = probed(&mut t, &event, from);
            assert_eq!(targets, linear_scan(&t, &event, from));
            assert!(
                probes <= 3 * PEERS,
                "{probes} entries examined for {} targets (v = {})",
                targets.len(),
                step as f64 / 200.0
            );
            examined += probes;
            selected += targets.len();
        }
        assert!(selected >= 200 * 7, "every broker has a match ({selected})");
        assert!(
            examined <= 3 * selected,
            "{examined} entries examined to select {selected} peers"
        );

        // The audit's shape — every window its own peer, so there is nothing
        // to group: no more entries examined than a flat bucket holds.
        let mut t = windows_table(|i| Peer::Client(ClientId(i)), false);
        for step in 0..50 {
            let v = step as f64 / 50.0;
            let (targets, probes) = probed(&mut t, &ev_v(v), B1);
            assert_eq!(targets.len(), 128.min((v * WINDOWS as f64) as usize + 1));
            let grid = t.index.attrs["v"].grid.as_ref().expect("built");
            let flat = grid.buckets[grid.bucket_of(v)].pos.len();
            assert!(probes <= flat, "{probes} examined, {flat} in the bucket");
            // The true matches plus the windows that begin within one
            // bucket width (a quarter of a window) above `v`.
            let touching = (WINDOWS as f64 * 0.0625 / BUCKETS_PER_WIDTH) as usize;
            assert!(flat <= targets.len() + touching + 2, "{flat} in the bucket");
        }
    }

    /// A grid sized by a match on a one-window table (one bucket: a linear
    /// scan) is re-sized as the table grows.
    #[test]
    fn a_grid_sized_on_a_small_table_is_resized_as_it_grows() {
        let mut t = windows_table(|i| Peer::Client(ClientId(i)), true);
        let (targets, probes) = probed(&mut t, &ev_v(0.5), B1);
        assert_eq!(targets.len(), 128);
        assert!(probes <= 128 * 5 / 4 + 8, "{probes} entries examined");
        let grid = t.index.attrs["v"].grid.as_ref().expect("built");
        assert!(grid.buckets.len() > 32, "{} buckets", grid.buckets.len());
        // ... and as it shrinks: down to 16 windows spaced 1/16 apart.
        for i in (0..WINDOWS).filter(|i| i % 128 != 0) {
            let lo = i as f64 / WINDOWS as f64;
            let window = Filter::single("v", Op::Ge, lo).and("v", Op::Lt, lo + 0.0625);
            assert!(t.remove(Peer::Client(ClientId(i)), &window));
            if i % 100 == 0 {
                let e = ev_v(0.5);
                assert_eq!(t.matching_targets(&e, B1), linear_scan(&t, &e, B1));
            }
        }
        assert_eq!(t.matching_targets(&ev_v(0.51), B1).len(), 1);
        let grid = t.index.attrs["v"].grid.as_ref().expect("built");
        assert!(grid.buckets.len() <= 16, "{} buckets", grid.buckets.len());
    }

    /// Two entries of one peer whose different filters share a content hash
    /// (a true collision): the second goes to the collision list, and both
    /// stay findable, removable and matchable whichever leaves first.
    #[test]
    fn colliding_hashes_keep_both_entries_reachable() {
        const H: u64 = 0x0bad_cafe;
        let (a, b) = (FilterRef::with_hash(f(1), H), FilterRef::with_hash(f(2), H));
        for first_out in [a.clone(), b.clone()] {
            let mut t = FilterTable::new();
            assert!(t.add_ref(C1, a.clone(), None));
            assert!(t.add_ref(C1, b.clone(), None), "different content");
            assert!(
                !t.add_ref(C1, FilterRef::with_hash(f(1), H), None),
                "a duplicate of a"
            );
            assert!(
                !t.add_ref(C1, FilterRef::with_hash(f(2), H), None),
                "a duplicate of b"
            );
            assert_eq!(t.matching_targets(&ev(2), B1), vec![C1]);
            assert!(t.remove_ref(C1, &first_out));
            assert!(!t.remove_ref(C1, &first_out));
            let rest = if first_out == a { &b } else { &a };
            assert!(!t.add_ref(C1, rest.clone(), None), "still there");
            assert_eq!(t.len(), 1);
            assert!(t.add_ref(C1, first_out.clone(), None), "back in");
            assert!(t.remove_ref(C1, rest));
            assert!(t.remove_ref(C1, &first_out));
            assert!(t.is_empty());
        }
    }

    /// When the epoch counter wraps, the marks — epoch and first-match
    /// position together — start over, so a stamp of the previous cycle is
    /// not taken for one of the current call.
    #[test]
    fn epoch_wrap_resets_marks_and_first_positions() {
        let mut t = FilterTable::new();
        t.add(B2, f(4));
        t.add(B1, f(3));
        t.add(B2, f(3));
        t.add(C1, f(4));
        let slot = |t: &FilterTable, peer: Peer| t.index.by_peer[&peer].slot as usize;
        let (b2, c1) = (slot(&t, B2), slot(&t, C1));
        // The call stamped 1 finds B2 at position 0.
        assert_eq!(t.matching_targets(&ev(4), B1), vec![B2, C1]);
        assert_eq!(t.index.marks[b2], Mark { epoch: 1, first: 0 });
        assert_eq!(t.index.marks[c1], Mark { epoch: 1, first: 3 });
        // The last call of the cycle leaves both marks alone ...
        t.index.epoch = u32::MAX - 1;
        assert_eq!(t.matching_targets(&ev(3), B2), vec![B1]);
        assert_eq!(t.index.epoch, u32::MAX);
        assert_eq!(t.index.marks[b2], Mark { epoch: 1, first: 0 });
        // ... and the next is stamped 1 again. Had the marks survived, B2
        // would pass for selected at position 0, below its entry at 2.
        assert_eq!(t.matching_targets(&ev(3), C1), vec![B1, B2]);
        assert_eq!(t.index.epoch, 1);
        assert_eq!(t.index.marks[b2], Mark { epoch: 1, first: 2 });
        assert_eq!(t.index.marks[c1], Mark::default(), "reset, not selected");
    }

    /// Differential check of the write side: the three covering queries
    /// must answer exactly what a linear walk over the entries answers —
    /// query (2) in the same order — across mixed tables, interleaved
    /// `add` / `remove` / `remove_peer` / compaction, and with the interval
    /// grid absent as well as built.
    #[test]
    fn indexed_covering_equals_linear_scan() {
        use mhh_simnet::random::DetRng;

        fn check(t: &FilterTable, queries: &[Filter], excluded: &[Peer]) {
            for q in queries {
                assert_eq!(
                    t.covered_by_other(q, excluded[0]),
                    t.entries()
                        .any(|e| e.peer != excluded[0] && e.filter.covers(q)),
                    "covered_by_other({q}) diverged"
                );
                let covered: Vec<&FilterEntry> =
                    t.entries().filter(|e| q.covers(&e.filter)).collect();
                assert_eq!(
                    t.covered_entries(q),
                    covered,
                    "covered_entries({q}) diverged"
                );
                assert_eq!(
                    t.related_to_other(q, excluded),
                    t.entries().any(|e| !excluded.contains(&e.peer)
                        && (e.filter.covers(q) || q.covers(&e.filter))),
                    "related_to_other({q}) diverged"
                );
            }
            let mut distinct: Vec<FilterRef> = Vec::new();
            for e in t.entries() {
                if !distinct.contains(&e.filter) {
                    distinct.push(e.filter.clone());
                }
            }
            assert_eq!(t.distinct_filters(), distinct);
        }

        let mut rng = DetRng::new(0xc0fe_71de);
        let peer = |rng: &mut DetRng| -> Peer {
            if rng.index(2) == 0 {
                Peer::Broker(BrokerId(rng.index(4) as u32))
            } else {
                Peer::Client(ClientId(rng.index(6) as u32))
            }
        };
        // Bounds on a coarse lattice so that containment is common.
        let filt = |rng: &mut DetRng| -> Filter {
            let x = rng.index(8) as f64 * 5.0;
            let w = (1 + rng.index(3)) as f64 * 5.0;
            let k = rng.index(4) as i64;
            match rng.index(14) {
                0 => f(k),
                1 => Filter::single("group", Op::Eq, k as f64),
                2 => Filter::single("v", Op::Ge, x).and("v", Op::Lt, x + w),
                3 => Filter::single("v", Op::Ge, x).and("v", Op::Le, x + w),
                4 => Filter::single("v", Op::Ge, x + w).and("v", Op::Le, x - 1.0),
                5 => f(k).and("v", Op::Ge, x),
                6 => Filter::single("group", Op::Ne, k),
                7 => Filter::single("sym", Op::Prefix, ["A", "AC", "ACME"][rng.index(3)]),
                8 => Filter::single("v", Op::Exists, 0i64),
                9 => Filter::match_all(),
                10 => Filter::single("v", [Op::Ge, Op::Gt, Op::Le, Op::Lt][rng.index(4)], x),
                11 => Filter::single("v", Op::Eq, x),
                12 => Filter::single("v", Op::Eq, x as i64).and("v", Op::Gt, x - w),
                _ => Filter::single("v", Op::Gt, x).and("group", Op::Ne, k),
            }
        };
        let mut compactions = 0;
        for _ in 0..12 {
            let mut t = FilterTable::new();
            for _ in 0..400 {
                let slots = t.entries.len();
                match rng.index(8) {
                    0..=3 => {
                        let label = (rng.index(4) == 0).then(|| peer(&mut rng));
                        t.add_labeled(peer(&mut rng), filt(&mut rng), label);
                    }
                    4..=6 if !t.is_empty() => {
                        let e = t.entries().nth(rng.index(t.len())).expect("in range");
                        let (p, filter) = (e.peer, e.filter.clone());
                        assert!(t.remove(p, &filter));
                    }
                    _ => {
                        t.remove_peer(peer(&mut rng));
                    }
                }
                compactions += usize::from(t.entries.len() < slots);
                let queries: Vec<Filter> = (0..4).map(|_| filt(&mut rng)).collect();
                let excluded = [peer(&mut rng), peer(&mut rng)];
                check(&t, &queries, &excluded);
                if rng.index(4) == 0 {
                    // Builds the grids (dropped again by the next compaction).
                    let event = EventBuilder::new()
                        .attr("group", rng.index(4) as i64)
                        .attr("v", rng.index(50) as f64)
                        .build(1, ClientId(0), 0);
                    t.matching_targets(&event, B1);
                    check(&t, &queries, &excluded);
                }
            }
        }
        assert!(compactions >= 12, "compaction exercised ({compactions})");
    }

    /// The point of the covering index, as a count rather than a time: on
    /// the evaluation workload's shape (distinct windows of 6.25 %
    /// selectivity) a `covered_by_other` that finds nothing evaluates
    /// `covers` on at most 15 % of the entries.
    #[test]
    fn missing_coverer_probes_a_fraction_of_the_table() {
        const N: u32 = 2_048;
        let window = |i: u32| {
            let lo = i as f64 / N as f64;
            Filter::single("v", Op::Ge, lo).and("v", Op::Lt, lo + 0.0625)
        };
        let mut t = FilterTable::new();
        for i in 0..N {
            t.add(Peer::Client(ClientId(i)), window(i));
        }
        for round in 0..2 {
            for i in (0..N).step_by(97) {
                let before = COVER_PROBES.with(|n| n.get());
                assert!(!t.covered_by_other(&window(i), Peer::Client(ClientId(i))));
                let probes = COVER_PROBES.with(|n| n.get()) - before;
                assert!(
                    probes * 100 <= N as usize * 15,
                    "{probes} covers() calls for one miss (round {round})"
                );
                assert!(t.covered_by_other(&window(i), B1), "covers itself");
            }
            // Second round with the interval grid built.
            let e = EventBuilder::new().attr("v", 0.5).build(1, ClientId(0), 0);
            assert_eq!(t.matching_targets(&e, B1).len(), 128);
        }
    }
}
