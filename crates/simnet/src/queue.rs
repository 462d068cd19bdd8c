//! The future-event list: a pooled, run-length, indexed 4-ary min-heap.
//!
//! Events are ordered by `(delivery instant, send sequence)`, a total order
//! because the sequence is unique per queue. [`EventQueue`] separates
//! ordering from storage:
//!
//! * envelopes live in a **slab** of pooled slots that never move; freed
//!   slots are recycled through a free list, so steady-state traffic
//!   performs no allocation at all;
//! * the heap orders **runs**, not envelopes. A run is a chain of slab
//!   slots at one instant whose sequence numbers are consecutive
//!   (`s, s+1, s+2, …`), linked through the slots in FIFO order; its heap
//!   entry is the head's `(at, seq)` key plus the head's slot id, so
//!   sifting moves 24-byte keys, never envelopes;
//! * the heap is **4-ary** rather than binary: half the tree depth, and the
//!   four children of a node share one cache line.
//!
//! # Runs
//!
//! A node that hands one event to many receivers over equal-latency links
//! emits a *burst*: every send lands at the same instant, and the engine
//! numbers them consecutively. A push therefore first looks at the previous
//! push: when that envelope is still queued (it is the tail of its run),
//! the instant is equal and `seq == last_seq + 1`, the new envelope is
//! linked behind it and the heap is not touched. Anything else starts a new
//! run with one sift-up.
//!
//! Popping the root run's head takes its envelope. When the head has a
//! successor, the successor's key — `(at, seq + 1)` — is written into the
//! root in place, with **no sift**: no other key can fall between two
//! consecutive sequence numbers at one instant, so the successor is still
//! the minimum. Only a run's last pop removes the root and sifts down. A
//! 125-way burst is one heap entry, one sift-up and one sift-down, where
//! the one-entry-per-envelope heap did 125 of each.
//!
//! # Re-keying
//!
//! [`EventQueue::remap_seqs`] relabels every queued sequence number (the
//! parallel engine resolves provisional keys at a window barrier). An
//! order-preserving relabeling keeps the heads' heap arrangement valid, but
//! consecutive numbers need not stay consecutive: envelopes pushed later
//! may fall into the gaps at the same instant. The remap therefore splits
//! every run at each gap into runs of their own (one sift-up each) and
//! closes the open run, so the next push starts a fresh one.
//!
//! Pop order is *identical* to a `BinaryHeap` of `(at, seq)` keys, asserted
//! by the fuzz tests below and the differential tests in
//! `tests/engine_equivalence.rs` against
//! [`ReferenceEngine`](crate::reference::ReferenceEngine).

use crate::engine::Envelope;
use crate::time::SimTime;

/// Heap arity. Four children per node: depth log₄(n), children contiguous.
const ARITY: usize = 4;

/// End of a run's slot chain.
const NIL: u32 = u32::MAX;

/// An `(at, seq)` key plus the slab slot of the envelope it belongs to: a
/// heap entry (the key and slot of a run's head) or the open run's tail.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Keyed {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// A slab slot: the envelope (`None` when the slot is free) and the next
/// slot of its run ([`NIL`] at the tail).
#[derive(Debug)]
struct Slot<M> {
    env: Option<Envelope<M>>,
    next: u32,
}

/// Result of [`EventQueue::pop_at_or_before`].
#[derive(Debug)]
pub enum PopBefore<M> {
    /// The queue is empty.
    Empty,
    /// The earliest event is due after the horizon; nothing was popped.
    Later,
    /// The popped event: `(delivery instant, envelope)`.
    Due(SimTime, Envelope<M>),
}

/// A pooled, run-length, indexed 4-ary min-heap of scheduled envelopes,
/// ordered by `(delivery instant, send sequence)`.
#[derive(Debug)]
pub struct EventQueue<M> {
    /// One entry per run, keyed by the run's head.
    heap: Vec<Keyed>,
    /// Envelope storage; runs chain through it by index. Slots never move.
    slab: Vec<Slot<M>>,
    /// Recycled slot ids, popped before the slab grows.
    free: Vec<u32>,
    /// The last pushed envelope while it is still queued: the tail of the
    /// only run a push may extend.
    open: Option<Keyed>,
    /// Number of scheduled envelopes.
    len: usize,
    /// High-water mark of the queue length (peak in-flight messages).
    peak: usize,
    /// Number of slot/heap/free-list growth events — the engine's
    /// allocations-per-delivery sanity counter reads this; in steady state
    /// it plateaus while deliveries keep climbing.
    grows: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            open: None,
            len: 0,
            peak: 0,
            grows: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`len`](Self::len) over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Number of storage growth events (slab slots allocated + heap and
    /// free-list regrowths). Once the pool has warmed up this stops
    /// increasing: every push reuses a recycled slot.
    pub fn alloc_events(&self) -> u64 {
        self.grows
    }

    /// The `(at, seq)` key of the earliest scheduled event, if any. O(1).
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(Keyed::key)
    }

    /// Schedule `env` for delivery at `at`. `seq` must be unique per queue
    /// (the engine's global send sequence), which makes the order total.
    pub fn push(&mut self, at: SimTime, seq: u64, env: Envelope<M>) {
        let slot = self.store(env);
        match self.open {
            Some(tail) if tail.at == at && tail.seq.checked_add(1) == Some(seq) => {
                self.slab[tail.slot as usize].next = slot;
            }
            _ => {
                self.heap.push(Keyed { at, seq, slot });
                self.sift_up(self.heap.len() - 1);
            }
        }
        self.open = Some(Keyed { at, seq, slot });
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Pop the earliest event: `(delivery instant, envelope)`. The slot is
    /// recycled immediately.
    pub fn pop(&mut self) -> Option<(SimTime, Envelope<M>)> {
        if self.heap.is_empty() {
            return None;
        }
        Some(self.pop_root())
    }

    /// Pop the earliest event only if it is due at or before `horizon` —
    /// the single-queue-access fast path of `Engine::run_until`.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> PopBefore<M> {
        match self.heap.first() {
            None => PopBefore::Empty,
            Some(top) if top.at > horizon => PopBefore::Later,
            Some(_) => {
                let (at, env) = self.pop_root();
                PopBefore::Due(at, env)
            }
        }
    }

    /// Pop the earliest event only if it is due *strictly before* `horizon` —
    /// the lazy-injection path of the scenario runner: the engine drains
    /// everything earlier than the next external action, then injects the
    /// action, so an internal event at exactly the action's instant (whose
    /// sequence number is necessarily larger than the action's reserved one)
    /// is popped after it.
    pub fn pop_strictly_before(&mut self, horizon: SimTime) -> PopBefore<M> {
        match self.heap.first() {
            None => PopBefore::Empty,
            Some(top) if top.at >= horizon => PopBefore::Later,
            Some(_) => {
                let (at, env) = self.pop_root();
                PopBefore::Due(at, env)
            }
        }
    }

    /// Pop the head of the root run (the heap must be non-empty). A head
    /// with a successor hands the root to it in place: its key is the next
    /// sequence number at the same instant, so it is still the minimum.
    fn pop_root(&mut self) -> (SimTime, Envelope<M>) {
        let root = &mut self.heap[0];
        let (at, slot) = (root.at, root.slot);
        let next = self.slab[slot as usize].next;
        if next != NIL {
            root.seq += 1;
            root.slot = next;
        } else {
            if self.open.is_some_and(|tail| tail.slot == slot) {
                self.open = None;
            }
            self.remove_root();
        }
        self.len -= 1;
        (at, self.release(slot))
    }

    /// Put an envelope into a free slot (growing the slab, and the heap
    /// beside it, when none is free) as a run of its own.
    fn store(&mut self, env: Envelope<M>) -> u32 {
        if let Some(s) = self.free.pop() {
            let slot = &mut self.slab[s as usize];
            debug_assert!(slot.env.is_none());
            *slot = Slot {
                env: Some(env),
                next: NIL,
            };
            return s;
        }
        let s = self.slab.len() as u32;
        self.slab.push(Slot {
            env: Some(env),
            next: NIL,
        });
        self.grows += 1;
        // The heap never holds more runs than the slab has slots, so keeping
        // its capacity at the slab's size means a warmed slab is a warmed
        // queue.
        if self.heap.capacity() < self.slab.len() {
            self.heap.reserve(self.slab.len() - self.heap.len());
            self.grows += 1;
        }
        s
    }

    /// Take the envelope out of a slot and recycle the slot.
    fn release(&mut self, slot: u32) -> Envelope<M> {
        let env = self.slab[slot as usize]
            .env
            .take()
            .expect("a run pointed at a free slot");
        if self.free.len() == self.free.capacity() {
            self.grows += 1;
        }
        self.free.push(slot);
        env
    }

    /// Remove the root heap entry, restoring the heap property.
    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("remove_root on an empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let key = entry.key();
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            // Smallest of up to four contiguous children.
            let mut best = first_child;
            let mut best_key = self.heap[best].key();
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key >= key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = entry;
    }

    /// Rewrite every scheduled entry's sequence number through `f`.
    ///
    /// **Caller contract:** `f` must be order-preserving over the keys
    /// actually present — for any two entries, `(at_a, f(seq_a)) <
    /// (at_b, f(seq_b))` iff `(at_a, seq_a) < (at_b, seq_b)`. The parallel
    /// engine satisfies this when it resolves provisional sequence numbers
    /// to their final global values at a window barrier: provisional
    /// numbers sort after all final ones and are assigned final values in
    /// ascending provisional order, so the heads' heap arrangement stays
    /// valid. The resolved numbers of a run need not be consecutive, so a
    /// run is split at every gap and each piece is inserted as a run of its
    /// own; the open run is closed, so no later push joins a relabeled run.
    pub fn remap_seqs(&mut self, mut f: impl FnMut(u64) -> u64) {
        self.open = None;
        let runs = self.heap.len();
        for i in 0..runs {
            let Keyed { at, seq, slot } = self.heap[i];
            let mut resolved = f(seq);
            self.heap[i].seq = resolved;
            let (mut old, mut prev) = (seq, slot);
            loop {
                let next = self.slab[prev as usize].next;
                if next == NIL {
                    break;
                }
                old += 1;
                let r = f(old);
                if r != resolved + 1 {
                    // A gap: `next` heads a run of its own. The heap has
                    // room (runs ≤ envelopes ≤ slab slots ≤ capacity).
                    self.slab[prev as usize].next = NIL;
                    self.heap.push(Keyed {
                        at,
                        seq: r,
                        slot: next,
                    });
                }
                resolved = r;
                prev = next;
            }
        }
        for i in runs..self.heap.len() {
            self.sift_up(i);
        }
    }

    /// Drop any remaining events and reset the lifetime counters, keeping
    /// the slab, free-list, and heap capacity — the arena-reuse path. A
    /// reset queue reports zero [`alloc_events`](Self::alloc_events) until
    /// traffic outgrows the warmed pool.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.free.clear();
        for (i, slot) in self.slab.iter_mut().enumerate() {
            *slot = Slot {
                env: None,
                next: NIL,
            };
            self.free.push(i as u32);
        }
        self.open = None;
        self.len = 0;
        self.peak = 0;
        self.grows = 0;
    }

    /// Number of heap entries (runs). Test-only.
    #[cfg(test)]
    fn runs(&self) -> usize {
        self.heap.len()
    }

    /// Check the heap invariant (every parent ≤ each of its children), that
    /// every run's keys are consecutive, that the open run's tail is a
    /// queued run tail, and the slab/free-list bookkeeping. Test-only; O(n).
    #[cfg(test)]
    fn assert_invariants(&self) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / ARITY;
            assert!(
                self.heap[parent].key() <= self.heap[i].key(),
                "heap violation at {i}: parent {:?} > child {:?}",
                self.heap[parent].key(),
                self.heap[i].key()
            );
        }
        let mut chained = 0;
        let mut open_seen = false;
        for head in &self.heap {
            let (mut seq, mut slot) = (head.seq, head.slot);
            loop {
                assert!(self.slab[slot as usize].env.is_some(), "run at free slot");
                chained += 1;
                let next = self.slab[slot as usize].next;
                if next == NIL {
                    break;
                }
                seq += 1;
                slot = next;
            }
            if let Some(tail) = self.open {
                if tail.slot == slot {
                    assert_eq!((tail.at, tail.seq), (head.at, seq), "open tail key");
                    open_seen = true;
                }
            }
        }
        assert_eq!(chained, self.len, "envelopes in runs != len");
        assert!(
            self.open.is_none() || open_seen,
            "open tail is not a run tail"
        );
        let live = self.slab.iter().filter(|s| s.env.is_some()).count();
        assert_eq!(live, self.len, "live slots != len");
        assert_eq!(
            self.free.len() + live,
            self.slab.len(),
            "free list + live slots != slab size"
        );
        assert!(self.heap.capacity() >= self.slab.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::random::DetRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    type Oracle = BinaryHeap<Reverse<(SimTime, u64)>>;

    fn env(tag: u64) -> Envelope<u64> {
        Envelope {
            from: NodeId(0),
            to: NodeId(1),
            sent_at: SimTime::ZERO,
            fate: crate::faults::LinkFate::Intact,
            msg: tag,
        }
    }

    /// Push `(at, seq)` into the queue (tagged with its seq) and the oracle.
    fn push_both(q: &mut EventQueue<u64>, oracle: &mut Oracle, at: SimTime, seq: u64) {
        q.push(at, seq, env(seq));
        oracle.push(Reverse((at, seq)));
    }

    /// The queue's earliest key and length match the oracle's, and the
    /// queue's invariants hold.
    fn check_against(q: &EventQueue<u64>, oracle: &Oracle, seed: u64) {
        assert_eq!(
            q.peek_key(),
            oracle.peek().map(|r| r.0),
            "seed {seed}: peek_key"
        );
        assert_eq!(q.len(), oracle.len(), "seed {seed}: len");
        q.assert_invariants();
    }

    /// An engine-shaped push stream: bursts (one instant, consecutive
    /// sequence numbers) and single pushes from the engine counter, which
    /// starts at `RESERVED`, plus low reserved sequence numbers injected at
    /// instants that already hold a run. Every stream opens with the last
    /// reserved number `RESERVED - 1` followed by a burst from `RESERVED`
    /// at the same instant, so the reservation boundary joins a run.
    struct Stream {
        rng: DetRng,
        next: u64,
        reserved: u64,
        recent_at: SimTime,
    }

    const RESERVED: u64 = 64;

    impl Stream {
        fn new(seed: u64) -> Self {
            Stream {
                rng: DetRng::new(seed),
                next: RESERVED,
                reserved: 0,
                recent_at: SimTime::ZERO,
            }
        }

        fn prologue(&mut self, q: &mut EventQueue<u64>, oracle: &mut Oracle) {
            let at = SimTime::from_micros(self.rng.next_below(300));
            push_both(q, oracle, at, RESERVED - 1);
            self.burst_at(q, oracle, at, 8);
        }

        fn burst_at(&mut self, q: &mut EventQueue<u64>, oracle: &mut Oracle, at: SimTime, n: u64) {
            for _ in 0..n {
                push_both(q, oracle, at, self.next);
                self.next += 1;
            }
            self.recent_at = at;
        }

        /// One push step: a burst, a single push, or a reserved injection.
        fn push_step(&mut self, q: &mut EventQueue<u64>, oracle: &mut Oracle, span: u64) {
            let r = self.rng.next_f64();
            if r < 0.25 {
                let at = SimTime::from_micros(self.rng.next_below(span));
                let n = 2 + self.rng.next_below(24);
                self.burst_at(q, oracle, at, n);
            } else if r < 0.4 && self.reserved < RESERVED - 1 {
                // A lazily injected external action at an instant that
                // already holds a run: its low number sorts first there.
                push_both(q, oracle, self.recent_at, self.reserved);
                self.reserved += 1;
            } else {
                let at = SimTime::from_micros(self.rng.next_below(span));
                push_both(q, oracle, at, self.next);
                self.next += 1;
            }
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 2, env(2));
        q.push(SimTime::from_millis(1), 1, env(1));
        q.push(SimTime::from_millis(5), 0, env(0));
        q.push(SimTime::from_millis(3), 3, env(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e.msg).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        assert!(matches!(
            q.pop_at_or_before(SimTime::from_secs(99)),
            PopBefore::Empty
        ));
        q.push(SimTime::from_millis(10), 0, env(0));
        assert!(matches!(
            q.pop_at_or_before(SimTime::from_millis(9)),
            PopBefore::Later
        ));
        assert_eq!(q.len(), 1, "a Later answer must not pop");
        match q.pop_at_or_before(SimTime::from_millis(10)) {
            PopBefore::Due(at, e) => {
                assert_eq!(at, SimTime::from_millis(10));
                assert_eq!(e.msg, 0);
            }
            other => panic!("expected Due, got {other:?}"),
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_after_warmup() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.push(SimTime::from_micros(i), i, env(i));
        }
        while q.pop().is_some() {}
        let warmed = q.alloc_events();
        // A steady-state churn of ≤64 in flight must not grow anything.
        for round in 0..100u64 {
            for i in 0..64 {
                let seq = 64 + round * 64 + i;
                q.push(SimTime::from_micros(seq), seq, env(seq));
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.alloc_events(), warmed, "steady state must not allocate");
        assert_eq!(q.peak_len(), 64);
    }

    /// Random push/pop interleavings against a `BinaryHeap` oracle: the pop
    /// sequence and `peek_key` must be identical, and the invariants must
    /// hold after every operation. Pushes are engine-shaped (see
    /// [`Stream`]), so runs form, grow, drain and close in every pattern
    /// the engine produces.
    #[test]
    fn fuzz_against_binary_heap_oracle() {
        for seed in 0..16u64 {
            let mut s = Stream::new(0xF0F0 ^ seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle = Oracle::new();
            s.prologue(&mut q, &mut oracle);
            check_against(&q, &oracle, seed);
            for _ in 0..2_000 {
                // Bias toward pushes so the queue grows and shrinks in waves.
                if oracle.is_empty() || s.rng.next_f64() < 0.5 {
                    s.push_step(&mut q, &mut oracle, 500);
                } else {
                    // Pop a few: about as many as a push step adds.
                    for _ in 0..1 + s.rng.next_below(6) {
                        let Some(Reverse((want_at, want_seq))) = oracle.pop() else {
                            break;
                        };
                        let (got_at, got_env) = q.pop().expect("oracle says non-empty");
                        assert_eq!((got_at, got_env.msg), (want_at, want_seq), "seed {seed}");
                        check_against(&q, &oracle, seed);
                    }
                }
                check_against(&q, &oracle, seed);
            }
            // Drain both; tails must agree too.
            while let Some(Reverse((want_at, want_seq))) = oracle.pop() {
                let (got_at, got_env) = q.pop().unwrap();
                assert_eq!((got_at, got_env.msg), (want_at, want_seq), "seed {seed}");
                check_against(&q, &oracle, seed);
            }
            assert!(q.pop().is_none());
        }
    }

    /// Horizon-pop fuzz: interleave `pop_at_or_before` and
    /// `pop_strictly_before` with engine-shaped pushes and check every
    /// answer against the oracle's peek.
    #[test]
    fn fuzz_horizon_pops_against_oracle() {
        for seed in 0..8u64 {
            let mut s = Stream::new(0xBEEF ^ seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle = Oracle::new();
            s.prologue(&mut q, &mut oracle);
            for _ in 0..2_000 {
                if oracle.is_empty() || s.rng.next_f64() < 0.25 {
                    s.push_step(&mut q, &mut oracle, 300);
                } else {
                    let horizon = SimTime::from_micros(s.rng.next_below(300));
                    let strict = s.rng.next_f64() < 0.5;
                    let got = if strict {
                        q.pop_strictly_before(horizon)
                    } else {
                        q.pop_at_or_before(horizon)
                    };
                    let due = |at: SimTime| if strict { at < horizon } else { at <= horizon };
                    match got {
                        PopBefore::Empty => assert!(oracle.is_empty()),
                        PopBefore::Later => {
                            let &Reverse((at, _)) = oracle.peek().unwrap();
                            assert!(!due(at), "seed {seed}");
                        }
                        PopBefore::Due(at, e) => {
                            let Reverse((want_at, want_seq)) = oracle.pop().unwrap();
                            assert!(due(at));
                            assert_eq!((at, e.msg), (want_at, want_seq), "seed {seed}");
                        }
                    }
                }
                check_against(&q, &oracle, seed);
            }
        }
    }

    /// A 125-way same-instant burst (one node fanning an event out to 125
    /// receivers) is one heap entry, and draining it moves nothing in the
    /// heap below the root until its last envelope leaves.
    #[test]
    fn a_burst_is_one_heap_entry_and_drains_without_a_sift() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.push(SimTime::from_millis(10 + i), i, env(i));
        }
        let burst_at = SimTime::from_millis(5);
        for seq in 100..225u64 {
            q.push(burst_at, seq, env(seq));
        }
        assert_eq!(q.len(), 225);
        assert_eq!(q.runs(), 101, "the burst must be one heap entry");
        q.assert_invariants();
        let below_root: Vec<(SimTime, u64)> = q.heap[1..].iter().map(Keyed::key).collect();
        for seq in 100..224u64 {
            let (at, e) = q.pop().unwrap();
            assert_eq!((at, e.msg), (burst_at, seq));
            assert_eq!(q.peek_key(), Some((burst_at, seq + 1)));
            let now: Vec<(SimTime, u64)> = q.heap[1..].iter().map(Keyed::key).collect();
            assert_eq!(now, below_root, "a head pop with a successor must not sift");
        }
        assert_eq!(q.pop().unwrap().1.msg, 224);
        assert_eq!(q.runs(), 100, "the run's last pop removes its entry");
        assert_eq!(q.peek_key(), Some((SimTime::from_millis(10), 0)));
        q.assert_invariants();
    }

    /// A push joins the previous push's run only when that envelope is
    /// still queued, the instant is equal and the sequence number is the
    /// next one.
    #[test]
    fn a_push_joins_a_run_only_at_the_next_seq_of_a_queued_tail() {
        let mut q = EventQueue::new();
        let (t, u) = (SimTime::from_millis(1), SimTime::from_millis(2));
        q.push(t, 10, env(10));
        q.push(t, 11, env(11));
        assert_eq!(q.runs(), 1, "same instant, next seq: one run");
        q.push(t, 13, env(13));
        assert_eq!(q.runs(), 2, "a gap starts a run");
        q.push(u, 14, env(14));
        assert_eq!(q.runs(), 3, "another instant starts a run");
        q.push(t, 12, env(12));
        assert_eq!(q.runs(), 4, "a lower seq starts a run");
        for want in [10, 11, 12, 13, 14] {
            assert_eq!(q.pop().unwrap().1.msg, want);
        }
        // The last push's envelope has left: its recycled slot must not be
        // linked behind itself, and the next push starts a fresh run.
        q.push(u, 15, env(15));
        q.push(u, 16, env(16));
        assert_eq!(q.runs(), 1);
        q.assert_invariants();
        assert_eq!(q.pop().unwrap().1.msg, 15);
        assert_eq!(q.pop().unwrap().1.msg, 16);
        assert!(q.is_empty());
        q.push(u, 17, env(17));
        assert_eq!(q.pop().unwrap().1.msg, 17);
        q.push(u, 18, env(18));
        assert_eq!(q.runs(), 1);
        q.assert_invariants();
        assert_eq!(q.pop().unwrap().1.msg, 18);
        assert!(q.pop().is_none());
    }

    #[test]
    fn reset_recycles_storage_and_zeroes_counters() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_micros(i), i, env(i));
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.alloc_events(), 0);
        assert_eq!(q.peak_len(), 0);
        q.assert_invariants();
        // The warmed pool absorbs the same load without allocating.
        for i in 0..100 {
            q.push(SimTime::from_micros(i), 1000 + i, env(i));
        }
        assert_eq!(q.alloc_events(), 0, "reset pool must be reused");
        q.assert_invariants();
        while q.pop().is_some() {}
    }

    const PROV: u64 = 1 << 63;

    /// An order-preserving seq relabeling keeps the heap valid and the pop
    /// order equal to relabeling the would-be pop sequence directly.
    #[test]
    fn remap_seqs_preserves_heap_order() {
        let mut rng = DetRng::new(0x5E9);
        let mut q: EventQueue<u64> = EventQueue::new();
        // True seqs 0..50 mixed with provisional seqs PROV..PROV+50 at
        // overlapping instants (provisional sort after true at equal `at`,
        // as in the parallel engine).
        for i in 0..50u64 {
            q.push(SimTime::from_micros(rng.next_below(20)), i, env(i));
            q.push(
                SimTime::from_micros(rng.next_below(20)),
                PROV | i,
                env(PROV | i),
            );
        }
        // Resolve provisional i -> 50 + i (ascending in provisional order,
        // all above the true range): order-isomorphic.
        q.remap_seqs(|s| if s & PROV != 0 { 50 + (s & !PROV) } else { s });
        q.assert_invariants();
        let mut last = None;
        while let Some((at, e)) = q.pop() {
            let seq = if e.msg & PROV != 0 {
                50 + (e.msg & !PROV)
            } else {
                e.msg
            };
            let key = (at, seq);
            if let Some(prev) = last {
                assert!(prev < key, "pop order broke after remap");
            }
            last = Some(key);
        }
    }

    /// Pop everything, checking each pop (tagged with its resolved key)
    /// against the oracle.
    fn drain_against(q: &mut EventQueue<u64>, oracle: &mut Oracle, resolve: impl Fn(u64) -> u64) {
        while let Some(Reverse(want)) = oracle.pop() {
            let (at, e) = q.pop().expect("oracle says non-empty");
            assert_eq!((at, resolve(e.msg)), want);
            assert_eq!(q.peek_key(), oracle.peek().map(|r| r.0));
            q.assert_invariants();
        }
        assert!(q.pop().is_none());
    }

    /// The parallel engine's barrier in miniature: two provisional runs,
    /// separated by a push at another instant, resolve to keys that
    /// interleave and leave gaps, and cross-shard envelopes with true keys
    /// land in those gaps at the same instants. The queue must split the
    /// runs at every gap and pop in `BinaryHeap` order.
    #[test]
    fn remap_splits_runs_so_cross_shard_pushes_fill_the_gaps() {
        let (t, u) = (SimTime::from_millis(4), SimTime::from_millis(7));
        let mut q: EventQueue<u64> = EventQueue::new();
        // A true key queued before the window.
        q.push(t, 5, env(5));
        // Window emissions: provisional 0,1,2 at t (one run), 3,4 at u
        // (one run), 5,6 at t again (a run of their own).
        for (at, c) in [(t, 0), (t, 1), (t, 2), (u, 3), (u, 4), (t, 5), (t, 6)] {
            q.push(at, PROV | c, env(PROV | c));
        }
        assert_eq!(q.runs(), 4);
        // Resolution: ascending in provisional order, with gaps where other
        // shards' deliveries took sequence numbers.
        let map = [10u64, 13, 16, 17, 20, 22, 23];
        let resolve = |s: u64| {
            if s & PROV != 0 {
                map[(s & !PROV) as usize]
            } else {
                s
            }
        };
        q.remap_seqs(resolve);
        q.assert_invariants();
        let mut oracle = Oracle::new();
        oracle.push(Reverse((t, 5)));
        for (at, c) in [(t, 0), (t, 1), (t, 2), (u, 3), (u, 4), (t, 5), (t, 6)] {
            oracle.push(Reverse((at, map[c])));
        }
        // Cross-shard arrivals with true keys in the gaps, pushed in the
        // barrier's order (consecutive keys at one instant form runs).
        for (at, seq) in [
            (t, 11),
            (t, 12),
            (u, 14),
            (t, 15),
            (u, 18),
            (u, 19),
            (t, 21),
        ] {
            push_both(&mut q, &mut oracle, at, seq);
        }
        q.assert_invariants();
        drain_against(&mut q, &mut oracle, resolve);
    }

    /// Remap fuzz: engine-shaped provisional bursts (some partly popped
    /// before the barrier, as a shard drains its window), an ascending
    /// resolution with random gaps, then true-keyed pushes into the gaps.
    #[test]
    fn fuzz_remap_with_gap_fills_against_oracle() {
        for seed in 0..16u64 {
            let mut rng = DetRng::new(0x6A9 ^ seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            // Before the barrier the queue holds provisional keys; this
            // oracle holds the same keys by window-local counter.
            let mut window = Oracle::new();
            let mut counter = 0u64;
            for _ in 0..60 {
                let at = SimTime::from_micros(rng.next_below(40));
                for _ in 0..1 + rng.next_below(12) {
                    q.push(at, PROV | counter, env(PROV | counter));
                    window.push(Reverse((at, counter)));
                    counter += 1;
                }
                if rng.next_f64() < 0.3 {
                    let (at, e) = q.pop().unwrap();
                    assert_eq!((at, e.msg & !PROV), window.pop().unwrap().0);
                }
            }
            // Ascending resolution with gaps of 0..3 numbers.
            let mut map = Vec::new();
            let mut next = 1_000u64;
            for _ in 0..counter {
                next += rng.next_below(4);
                map.push(next);
                next += 1;
            }
            let resolve = |s: u64| {
                if s & PROV != 0 {
                    map[(s & !PROV) as usize]
                } else {
                    s
                }
            };
            let mut oracle: Oracle = window
                .into_iter()
                .map(|Reverse((at, c))| Reverse((at, map[c as usize])))
                .collect();
            q.remap_seqs(resolve);
            check_against(&q, &oracle, seed);
            // Fill the gaps at random instants, in ascending key order.
            let mut seq = map[0];
            for &m in &map {
                while seq < m {
                    let at = SimTime::from_micros(rng.next_below(40));
                    push_both(&mut q, &mut oracle, at, seq);
                    seq += 1;
                }
                seq = m + 1;
            }
            check_against(&q, &oracle, seed);
            drain_against(&mut q, &mut oracle, resolve);
        }
    }
}
