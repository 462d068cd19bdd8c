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
//! # Indexing
//!
//! At city scale every broker's table holds an entry per remote subscriber
//! (distinct per-client filters defeat `(peer, filter)` deduplication), so
//! the original flat-`Vec` representation made event matching *and* the
//! duplicate check on insert O(table) — the dominant per-event cost of the
//! whole simulation. The table therefore keeps incremental indexes beside
//! the entry vector:
//!
//! * per attribute, an **equality map** from the attribute value to the
//!   single-`Eq` entries pinned to it, and a bucketed **interval grid** over
//!   single-attribute numeric range filters (the evaluation workload's
//!   `lo <= v < hi` selectivity windows) — an event value probes one bucket;
//! * a **residual scan list** for entries the index cannot classify
//!   (multi-attribute filters, `Ne`/`Prefix`/`Exists`, match-all), always
//!   probed;
//! * a **duplicate map** keyed by `(peer, filter-content-hash)` and a
//!   **per-peer position list**, making `add`'s set check, `contains`,
//!   `filters_for` and the label helpers O(entries of that peer);
//! * a dense **slot per peer** with an epoch-stamped mark, so "each peer at
//!   most once" costs O(1) per candidate in `matching_targets` however many
//!   peers match (the delivery audit matches against a table holding every
//!   subscriber), and a peer already selected skips its remaining filters.
//!
//! Candidates coming out of the index are probed in ascending entry
//! position — exactly the insertion order the plain linear scan used — and
//! re-checked with the real filter, so matching results are byte-identical
//! to a naive in-order scan (pinned by a differential property test).
//! Removals tombstone the entry and unlink it from the indexes in O(its
//! buckets); the vector is compacted (and the indexes rebuilt) only when
//! dead entries outnumber live ones.
//!
//! The write side — the covering questions every subscription add/remove
//! and every MHH handoff asks ([`FilterTable::covered_by_other`],
//! [`FilterTable::covered_entries`], [`FilterTable::related_to_other`]) — is
//! answered from the same indexes. [`Filter::covers`] is syntactic: every
//! constraint of the coverer must be implied by a constraint of the covered
//! filter *on the same attribute*, and a range constraint is only implied by
//! a tighter numeric range constraint. So the entries that can cover a query
//! `q` are the `Eq` entries pinned to the value of one of `q`'s `Eq`
//! constraints, the interval entries whose bounds contain `q`'s bounds on
//! their attribute, and the residual scan list; the entries `q` can cover
//! are — for a single-attribute `q` — the `Eq` entries of its attribute, the
//! interval entries inside its bounds, and again the scan list. Each
//! attribute's interval list carries the entry's `[lo, hi]` beside its
//! position, so an interval entry is ruled out by two float comparisons
//! without touching its filter; what survives is confirmed with the real
//! `covers`, in ascending position where the order is visible (subscription
//! re-propagation). A second differential property test pins all three
//! queries to the linear walk they replaced.

use std::collections::HashMap;
use std::fmt;

use crate::address::Peer;
use crate::event::Event;
use crate::filter::{Filter, Op};
use crate::value::Value;

/// One `(neighbor, filter)` entry, optionally labeled.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterEntry {
    /// The interested neighbor (broker or client).
    pub peer: Peer,
    /// The filter the neighbor is interested in.
    pub filter: Filter,
    /// MHH accept-only-from label: when set, events for this entry are only
    /// accepted when they arrive from the given neighbor.
    pub accept_only_from: Option<Peer>,
}

/// Hashable canonical form of a [`Value`] for the equality map. Two values
/// share a key exactly when [`Value::eq_value`] holds between them: numerics
/// canonicalise through `f64` (so `Int(3)` and `Float(3.0)` collide, as
/// matching requires) and `-0.0` folds onto `0.0`. NaN keys may collide
/// without harm — candidates are re-checked with the real filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ValueKey {
    Num(u64),
    Str(String),
    Bool(bool),
}

impl ValueKey {
    fn of(value: &Value) -> Self {
        match value {
            Value::Int(i) => Self::num(*i as f64),
            Value::Float(f) => Self::num(*f),
            Value::Str(s) => ValueKey::Str(s.clone()),
            Value::Bool(b) => ValueKey::Bool(*b),
        }
    }

    fn num(f: f64) -> Self {
        ValueKey::Num(if f == 0.0 {
            0.0f64.to_bits()
        } else {
            f.to_bits()
        })
    }
}

/// FNV-1a content hash of a filter, respecting `Filter`'s derived equality
/// (equal filters hash equal; constraint order matters, as it does for
/// `PartialEq`). Used only to key the duplicate map — lookups always confirm
/// with a real equality check, so collisions cost a probe, never
/// correctness.
fn filter_hash(filter: &Filter) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(PRIME);
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

/// Tighten `[lo, hi]` by one numeric range constraint (`Eq` pins both
/// ends). Returns `false`, leaving the bounds alone, for any other operator.
/// `f64::max`/`min` ignore a NaN operand, so bounds are never NaN.
fn narrow(lo: &mut f64, hi: &mut f64, op: Op, v: f64) -> bool {
    match op {
        Op::Ge | Op::Gt => *lo = lo.max(v),
        Op::Le | Op::Lt => *hi = hi.min(v),
        Op::Eq => {
            *lo = lo.max(v);
            *hi = hi.min(v);
        }
        _ => return false,
    }
    true
}

/// The numeric interval `[lo, hi]` that over-approximates a filter whose
/// constraints all bound one attribute: any event value satisfying the
/// filter lies inside it (boundaries included — `Gt`/`Lt` only shrink the
/// true match set, and a false candidate is re-checked anyway). `None` when
/// the filter is not a single-attribute numeric range conjunction.
fn as_interval(filter: &Filter) -> Option<(&str, f64, f64)> {
    let mut attr: Option<&str> = None;
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for c in &filter.constraints {
        let v = c.value.as_f64()?;
        match attr {
            None => attr = Some(&c.attr),
            Some(a) if a == c.attr => {}
            Some(_) => return None,
        }
        if !narrow(&mut lo, &mut hi, c.op, v) {
            return None;
        }
    }
    attr.map(|a| (a, lo, hi))
}

/// The bounds `filter`'s numeric range constraints put on `attr`; every
/// other constraint is ignored. Only such a constraint can imply a range
/// constraint (see [`Constraint::implies`](crate::filter::Constraint::implies)),
/// so an interval entry `[lo', hi']` on `attr` can cover `filter` only when
/// `lo' <= lo && hi <= hi'`, and be covered by it only when
/// `lo <= lo' && hi' <= hi` — also when either interval is empty.
fn bounds_on(filter: &Filter, attr: &str) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
    for c in filter.constraints.iter().filter(|c| c.attr == attr) {
        if let Some(v) = c.value.as_f64() {
            narrow(&mut lo, &mut hi, c.op, v);
        }
    }
    (lo, hi)
}

/// How an entry is registered in the index (recomputed from the filter, so
/// removal unlinks exactly what insertion linked).
enum Class {
    Eq(String, ValueKey),
    Interval(String, f64, f64),
    Scan,
}

fn classify(filter: &Filter) -> Class {
    if let [c] = filter.constraints.as_slice() {
        if c.op == Op::Eq {
            return Class::Eq(c.attr.clone(), ValueKey::of(&c.value));
        }
    }
    match as_interval(filter) {
        Some((attr, lo, hi)) => Class::Interval(attr.to_string(), lo, hi),
        None => Class::Scan,
    }
}

/// Bucketed 1-D grid over the interval entries of one attribute. An
/// interval is registered in every bucket it touches; a query value probes
/// exactly one bucket. Out-of-domain values and bounds clamp onto the edge
/// buckets, which keeps the structure sound (a superset of true matches) for
/// intervals appended after the grid was sized.
#[derive(Clone)]
struct Grid {
    lo: f64,
    inv_step: f64,
    buckets: Vec<Vec<u32>>,
}

impl Grid {
    fn bucket_of(&self, v: f64) -> usize {
        // Negative and NaN casts saturate to 0, oversized to usize::MAX.
        (((v - self.lo) * self.inv_step) as usize).min(self.buckets.len() - 1)
    }

    fn insert(&mut self, pos: u32, lo: f64, hi: f64) {
        for b in self.bucket_of(lo)..=self.bucket_of(hi) {
            self.buckets[b].push(pos);
        }
    }

    fn remove(&mut self, pos: u32, lo: f64, hi: f64) {
        for b in self.bucket_of(lo)..=self.bucket_of(hi) {
            self.buckets[b].retain(|&p| p != pos);
        }
    }
}

/// One interval entry of an attribute: its position and the bounds
/// [`as_interval`] gave it, kept so the covering queries can discard an
/// entry on two float comparisons without touching its filter.
#[derive(Clone, Copy)]
struct Span {
    lo: f64,
    hi: f64,
    pos: u32,
}

/// Per-attribute index: the equality map plus the interval entries and
/// their lazily-built grid.
#[derive(Clone, Default)]
struct AttrIndex {
    eq: HashMap<ValueKey, Vec<u32>>,
    /// Every live interval entry of this attribute in ascending position
    /// (master list; the grid is derived from it and rebuilt lazily after
    /// being dropped).
    intervals: Vec<Span>,
    grid: Option<Grid>,
}

impl AttrIndex {
    /// The grid, built on first use from the interval entries.
    fn grid_mut(&mut self) -> &mut Grid {
        let intervals = &self.intervals;
        self.grid.get_or_insert_with(|| {
            let (mut dom_lo, mut dom_hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for bound in intervals.iter().flat_map(|s| [s.lo, s.hi]) {
                if bound.is_finite() {
                    dom_lo = dom_lo.min(bound);
                    dom_hi = dom_hi.max(bound);
                }
            }
            let buckets = intervals.len().clamp(1, 512);
            let span = (dom_hi - dom_lo).max(f64::MIN_POSITIVE);
            let mut grid = Grid {
                lo: if dom_lo.is_finite() { dom_lo } else { 0.0 },
                inv_step: if dom_lo.is_finite() {
                    buckets as f64 / span
                } else {
                    0.0
                },
                buckets: vec![Vec::new(); buckets],
            };
            // Ascending positions per bucket: `intervals` is ascending.
            for s in intervals {
                grid.insert(s.pos, s.lo, s.hi);
            }
            grid
        })
    }
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

/// All incremental indexes over the entry vector.
#[derive(Clone, Default)]
struct TableIndex {
    attrs: HashMap<String, AttrIndex>,
    /// Unclassifiable entries, always probed.
    scan: Vec<u32>,
    /// `(peer, filter_hash)` → positions, for O(1) duplicate/`contains`/
    /// label lookups (confirmed by real equality at the listed positions).
    dup: HashMap<(Peer, u64), Vec<u32>>,
    /// Peer → its slot and positions.
    by_peer: HashMap<Peer, PeerEntries>,
    /// Per peer slot, the `epoch` of the last match that selected the peer.
    marks: Vec<u32>,
    /// Stamp of the current `matching_targets` call; never 0, the value
    /// fresh marks hold.
    epoch: u32,
}

/// The filter table of a broker.
#[derive(Clone, Default)]
pub struct FilterTable {
    entries: Vec<FilterEntry>,
    /// Tombstone flags, parallel to `entries`.
    live: Vec<bool>,
    /// Each entry's peer slot, parallel to `entries`.
    peer_slot: Vec<u32>,
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

    /// Iterate over all entries, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = &FilterEntry> {
        self.entries
            .iter()
            .zip(&self.live)
            .filter_map(|(e, &alive)| alive.then_some(e))
    }

    /// Register a (new) position in every index. The entry must already be
    /// pushed and live, with its `peer_slot` cell allocated.
    fn link(&mut self, pos: u32) {
        let e = &self.entries[pos as usize];
        let peer = e.peer;
        let h = filter_hash(&e.filter);
        match classify(&e.filter) {
            Class::Eq(attr, key) => self
                .index
                .attrs
                .entry(attr)
                .or_default()
                .eq
                .entry(key)
                .or_default()
                .push(pos),
            Class::Interval(attr, lo, hi) => {
                let aidx = self.index.attrs.entry(attr).or_default();
                aidx.intervals.push(Span { lo, hi, pos });
                if let Some(grid) = aidx.grid.as_mut() {
                    grid.insert(pos, lo, hi);
                }
            }
            Class::Scan => self.index.scan.push(pos),
        }
        self.index.dup.entry((peer, h)).or_default().push(pos);
        let next_slot = self.index.by_peer.len() as u32;
        let of_peer = self.index.by_peer.entry(peer).or_insert_with(|| {
            self.index.marks.push(0);
            PeerEntries {
                slot: next_slot,
                positions: Vec::new(),
            }
        });
        of_peer.positions.push(pos);
        self.peer_slot[pos as usize] = of_peer.slot;
    }

    /// Tombstone a live position and unlink it from every index.
    fn kill(&mut self, pos: u32) {
        debug_assert!(self.live[pos as usize]);
        self.live[pos as usize] = false;
        self.live_count -= 1;
        let e = &self.entries[pos as usize];
        let peer = e.peer;
        let h = filter_hash(&e.filter);
        let class = classify(&e.filter);
        match class {
            Class::Eq(attr, key) => {
                if let Some(aidx) = self.index.attrs.get_mut(&attr) {
                    if let Some(bucket) = aidx.eq.get_mut(&key) {
                        bucket.retain(|&p| p != pos);
                    }
                }
            }
            Class::Interval(attr, lo, hi) => {
                if let Some(aidx) = self.index.attrs.get_mut(&attr) {
                    // Ascending positions: find the span instead of scanning.
                    if let Ok(i) = aidx.intervals.binary_search_by_key(&pos, |s| s.pos) {
                        aidx.intervals.remove(i);
                    }
                    if let Some(grid) = aidx.grid.as_mut() {
                        grid.remove(pos, lo, hi);
                    }
                }
            }
            Class::Scan => self.index.scan.retain(|&p| p != pos),
        }
        if let Some(bucket) = self.index.dup.get_mut(&(peer, h)) {
            bucket.retain(|&p| p != pos);
            if bucket.is_empty() {
                self.index.dup.remove(&(peer, h));
            }
        }
        if let Some(of_peer) = self.index.by_peer.get_mut(&peer) {
            of_peer.positions.retain(|&p| p != pos);
        }
    }

    /// Compact the entry vector and rebuild the indexes once tombstones
    /// outnumber live entries (amortized O(1) per removal).
    fn maybe_compact(&mut self) {
        let dead = self.entries.len() - self.live_count;
        if dead <= self.live_count.max(64) {
            return;
        }
        let mut alive = self.live.iter();
        self.entries
            .retain(|_| *alive.next().expect("parallel vecs"));
        self.live.clear();
        self.live.resize(self.entries.len(), true);
        self.peer_slot.clear();
        self.peer_slot.resize(self.entries.len(), 0);
        self.live_count = self.entries.len();
        self.index = TableIndex::default();
        for pos in 0..self.entries.len() as u32 {
            self.link(pos);
        }
    }

    /// The live position holding exactly `(peer, filter)`, if any.
    fn position_of(&self, peer: Peer, filter: &Filter) -> Option<u32> {
        let bucket = self.index.dup.get(&(peer, filter_hash(filter)))?;
        bucket
            .iter()
            .copied()
            .find(|&p| self.live[p as usize] && &self.entries[p as usize].filter == filter)
    }

    /// Add an unlabeled entry. Duplicate `(peer, filter)` pairs are ignored
    /// (the table is a set).
    pub fn add(&mut self, peer: Peer, filter: Filter) -> bool {
        self.add_labeled(peer, filter, None)
    }

    /// Add an entry with an accept-only-from label.
    /// Returns `true` when the entry was actually inserted.
    pub fn add_labeled(&mut self, peer: Peer, filter: Filter, label: Option<Peer>) -> bool {
        if self.position_of(peer, &filter).is_some() {
            return false;
        }
        self.maybe_compact();
        let pos = self.entries.len() as u32;
        self.entries.push(FilterEntry {
            peer,
            filter,
            accept_only_from: label,
        });
        self.live.push(true);
        self.peer_slot.push(0);
        self.live_count += 1;
        self.link(pos);
        true
    }

    /// Remove the `(peer, filter)` entry. Returns `true` when present.
    pub fn remove(&mut self, peer: Peer, filter: &Filter) -> bool {
        match self.position_of(peer, filter) {
            Some(pos) => {
                self.kill(pos);
                self.maybe_compact();
                true
            }
            None => false,
        }
    }

    /// Remove every entry for a peer, returning the removed filters.
    pub fn remove_peer(&mut self, peer: Peer) -> Vec<Filter> {
        // Taking the list (the slot stays) also spares `kill` its per-entry
        // unlinking from it.
        let positions = match self.index.by_peer.get_mut(&peer) {
            Some(of_peer) => std::mem::take(&mut of_peer.positions),
            None => return Vec::new(),
        };
        let mut removed = Vec::with_capacity(positions.len());
        for pos in positions {
            if self.live[pos as usize] {
                removed.push(self.entries[pos as usize].filter.clone());
                self.kill(pos);
            }
        }
        self.maybe_compact();
        removed
    }

    /// Whether the `(peer, filter)` entry exists.
    pub fn contains(&self, peer: Peer, filter: &Filter) -> bool {
        self.position_of(peer, filter).is_some()
    }

    /// All filters registered for a peer.
    pub fn filters_for(&self, peer: Peer) -> Vec<&Filter> {
        match self.index.by_peer.get(&peer) {
            Some(of_peer) => of_peer
                .positions
                .iter()
                .filter(|&&p| self.live[p as usize])
                .map(|&p| &self.entries[p as usize].filter)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Set (or clear) the accept-only-from label on an existing entry.
    /// Returns `true` when the entry was found.
    pub fn set_label(&mut self, peer: Peer, filter: &Filter, label: Option<Peer>) -> bool {
        match self.position_of(peer, filter) {
            Some(pos) => {
                self.entries[pos as usize].accept_only_from = label;
                true
            }
            None => false,
        }
    }

    /// The current label of an entry (None when unlabeled or absent).
    pub fn label_of(&self, peer: Peer, filter: &Filter) -> Option<Peer> {
        self.position_of(peer, filter)
            .and_then(|pos| self.entries[pos as usize].accept_only_from)
    }

    /// Reverse-path-forwarding matching: the set of neighbors an event
    /// arriving from `from` must be handed to.
    ///
    /// * the neighbor the event came from is never selected (RPF),
    /// * labeled entries only match when the event arrived from the label.
    ///
    /// Each peer is returned at most once even if several of its filters
    /// match: selecting a peer stamps its slot with this call's epoch, so
    /// the check is O(1) per candidate and a selected peer's later entries
    /// are not evaluated at all. Candidate entries come from the
    /// per-attribute equality maps and interval grids plus the residual scan
    /// list; probing them in ascending position keeps the result order
    /// identical to a plain in-order scan of the table.
    pub fn matching_targets(&mut self, event: &Event, from: Peer) -> Vec<Peer> {
        let mut cand: Vec<u32> = self.index.scan.clone();
        for (attr, aidx) in self.index.attrs.iter_mut() {
            let Some(value) = event.get(attr) else {
                continue;
            };
            if !aidx.eq.is_empty() {
                if let Some(hits) = aidx.eq.get(&ValueKey::of(value)) {
                    cand.extend_from_slice(hits);
                }
            }
            if !aidx.intervals.is_empty() {
                if let Some(v) = value.as_f64() {
                    let grid = aidx.grid_mut();
                    cand.extend_from_slice(&grid.buckets[grid.bucket_of(v)]);
                }
            }
        }
        cand.sort_unstable();
        if self.index.epoch == u32::MAX {
            self.index.marks.fill(0);
            self.index.epoch = 0;
        }
        self.index.epoch += 1;
        let epoch = self.index.epoch;
        let mut out: Vec<Peer> = Vec::new();
        for &pos in &cand {
            if !self.live[pos as usize] {
                continue;
            }
            let e = &self.entries[pos as usize];
            if e.peer == from {
                continue;
            }
            if let Some(label) = e.accept_only_from {
                if label != from {
                    continue;
                }
            }
            let mark = &mut self.index.marks[self.peer_slot[pos as usize] as usize];
            if *mark != epoch && e.filter.matches(event) {
                *mark = epoch;
                out.push(e.peer);
            }
        }
        out
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
                if let Some(pinned) = aidx.eq.get(&ValueKey::of(&c.value)) {
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
            let mut containing = aidx.intervals.iter().filter(|s| s.lo <= lo && hi <= s.hi);
            if containing.any(|s| hit(s.pos)) {
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
                    Some(c) => {
                        cand.extend(aidx.eq.get(&ValueKey::of(&c.value)).into_iter().flatten())
                    }
                    None => cand.extend(aidx.eq.values().flatten()),
                }
                let (lo, hi) = bounds_on(filter, &first.attr);
                let inside = aidx.intervals.iter().filter(|s| lo <= s.lo && s.hi <= hi);
                cand.extend(inside.map(|s| s.pos));
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

    /// Every distinct filter with at least one entry, in first-seen order.
    pub fn distinct_filters(&self) -> Vec<Filter> {
        let mut out: Vec<Filter> = Vec::new();
        // Content hash → indices into `out`, confirmed by real equality.
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        for e in self.entries() {
            let same_hash = seen.entry(filter_hash(&e.filter)).or_default();
            if !same_hash.iter().any(|&i| out[i] == e.filter) {
                same_hash.push(out.len());
                out.push(e.filter.clone());
            }
        }
        out
    }
}

#[cfg(test)]
thread_local! {
    /// `Filter::covers` evaluations made by the covering queries on this
    /// thread, for the cost test.
    static COVER_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
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

    /// Differential check: the indexed matcher must return exactly what the
    /// original in-order linear scan returned, across random tables, random
    /// events, and interleaved removals (which exercise tombstones, grid
    /// unlinking and compaction).
    #[test]
    fn indexed_matching_equals_linear_scan() {
        use mhh_simnet::random::DetRng;

        fn reference(t: &FilterTable, event: &Event, from: Peer) -> Vec<Peer> {
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

        let mut rng = DetRng::new(0xf117_ab1e);
        let peer = |rng: &mut DetRng| -> Peer {
            if rng.index(2) == 0 {
                Peer::Broker(BrokerId(rng.index(4) as u32))
            } else {
                Peer::Client(ClientId(rng.index(6) as u32))
            }
        };
        let filt = |rng: &mut DetRng| -> Filter {
            match rng.index(5) {
                0 => f(rng.index(5) as i64),
                1 => Filter::single("price", Op::Ge, rng.index(50) as f64),
                2 => Filter::single("group", Op::Eq, rng.index(5) as f64),
                3 => {
                    let lo = rng.index(40) as f64;
                    Filter::new(vec![])
                        .and("price", Op::Ge, lo)
                        .and("price", Op::Lt, lo + 10.0)
                }
                _ => Filter::match_all(),
            }
        };
        for _ in 0..64 {
            let mut t = FilterTable::new();
            for _ in 0..rng.index(24) {
                let label = if rng.index(3) == 0 {
                    Some(peer(&mut rng))
                } else {
                    None
                };
                t.add_labeled(peer(&mut rng), filt(&mut rng), label);
            }
            for _ in 0..8 {
                // Exercise append, tombstone-removal and compaction paths.
                match rng.index(3) {
                    0 => {
                        t.add(peer(&mut rng), filt(&mut rng));
                    }
                    1 => {
                        t.remove_peer(peer(&mut rng));
                    }
                    _ => {}
                }
                let event = EventBuilder::new()
                    .attr("group", rng.index(5) as i64)
                    .attr("price", rng.index(50) as f64)
                    .build(1, ClientId(0), 0);
                let from = peer(&mut rng);
                assert_eq!(
                    t.matching_targets(&event, from),
                    reference(&t, &event, from),
                    "index diverged from linear scan"
                );
            }
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
                assert_eq!(got, reference(&t, &event, from));
            }
            for i in 0..100 {
                t.remove_peer(Peer::Client(ClientId(round * 100 + i)));
            }
        }
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
            let mut distinct: Vec<Filter> = Vec::new();
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
