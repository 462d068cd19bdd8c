//! The discrete-event simulation engine.
//!
//! The engine owns a set of [`Node`]s and a future-event list. Nodes react to
//! messages by emitting further messages through a [`Context`]; the engine
//! stamps each outgoing message with the latency and hop count provided by
//! the configured [`Fabric`] and delivers it at the corresponding future
//! instant.
//!
//! # FIFO links
//!
//! The MHH correctness argument (paper, Sections 3 and 4.1) depends on FIFO
//! message delivery per link: the `sub_migration_ack` "pushes" all in-transit
//! events on a link ahead of it. The engine guarantees FIFO per
//! `(from, to)` pair **by construction**: every ordered pair carries a
//! channel clock, and a message sampled with latency `l` is delivered at
//! `max(now + l, last_delivery_on_link)` — so even a variable-latency
//! fabric ([`JitteredFabric`](crate::fabric::JitteredFabric)) whose later
//! message samples a smaller latency cannot overtake an earlier one; ties
//! are broken by the global send sequence number, which increases
//! monotonically. Under a constant-latency fabric the clamp never fires
//! (delivery times are already monotone per link), which is what keeps
//! zero-jitter runs byte-identical to the pre-clock engine. Property tests
//! in this module and in `tests/network_substrate.rs` check the guarantee
//! directly.
//!
//! # The hot path
//!
//! One delivery = one [`EventQueue`] pop, one node callback, and one
//! [`LinkClocks::advance_send`] + [`TrafficStats::record`] per outgoing
//! message. All three structures are allocation-free in steady state:
//!
//! * the future-event list is a pooled, run-length 4-ary min-heap
//!   ([`crate::queue`]): envelopes sit in recycled slab slots, and a heap
//!   entry is a *run* of envelopes at one instant with consecutive
//!   sequence numbers. A node's fan-out to many receivers over
//!   equal-latency links is such a run, so it costs one sift-up and one
//!   sift-down however wide it is; sifting moves 24-byte keys;
//! * the channel clocks are a dense flat table for grid-sized runs and
//!   sharded open addressing at city scale ([`crate::clocks`]);
//! * the per-delivery outbox is an engine-owned scratch buffer swapped into
//!   the [`Context`] and drained back out, so its capacity is reused across
//!   every delivery of the run;
//! * stats record through interned kind indices ([`crate::stats`]).
//!
//! [`Engine::perf`] reports the peak queue depth and a storage-growth
//! counter so benches can assert the steady state really stops allocating.
//! The pre-overhaul engine survives as [`crate::reference::ReferenceEngine`]
//! — a differential oracle: `tests/engine_equivalence.rs` drives identical
//! seeded workloads through both and asserts identical delivery sequences.

use std::sync::Arc;

use crate::clocks::LinkClocks;
use crate::fabric::Fabric;
use crate::faults::{DropCause, DropRecord, FaultSchedule, LinkFate, LossModel};
use crate::ids::NodeId;
use crate::queue::{EventQueue, PopBefore};
use crate::stats::{Message, TrafficStats};
use crate::time::{SimDuration, SimTime};

/// A message in flight, as seen by the receiving node.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// The sender (equal to the destination for timers and injected actions).
    pub from: NodeId,
    /// The destination node.
    pub to: NodeId,
    /// When the message was sent.
    pub sent_at: SimTime,
    /// The fate sampled at send time by the installed [`LossModel`], if any
    /// (always [`LinkFate::Intact`] on lossless links, timers and
    /// self-deliveries). Sampling happens at *send* time — where the link
    /// send index is in hand — while the drop itself is recorded at
    /// *delivery* time, keeping the drop log in delivery order for both the
    /// serial and the parallel engine.
    pub fate: LinkFate,
    /// The payload.
    pub msg: M,
}

/// Behaviour of a simulated node.
pub trait Node<M: Message> {
    /// Handle one delivered message. All outgoing traffic goes through `ctx`.
    fn on_message(&mut self, env: Envelope<M>, ctx: &mut Context<M>);
}

/// Per-delivery context handed to a node: lets the node read the clock and
/// queue outgoing messages/timers. The engine drains it after the callback.
///
/// The outbox storage is owned by the engine and swapped in per delivery, so
/// a warmed-up run performs no allocation here no matter how many messages
/// a callback emits.
#[derive(Debug)]
pub struct Context<M> {
    now: SimTime,
    self_id: NodeId,
    outbox: Vec<Outgoing<M>>,
    fanout_allocs: u64,
}

#[derive(Debug)]
pub(crate) enum Outgoing<M> {
    Send { to: NodeId, msg: M },
    Timer { delay: SimDuration, msg: M },
}

impl<M> Context<M> {
    /// Build a context around an existing (reused) outbox buffer.
    pub(crate) fn with_outbox(now: SimTime, self_id: NodeId, outbox: Vec<Outgoing<M>>) -> Self {
        Context {
            now,
            self_id,
            outbox,
            fanout_allocs: 0,
        }
    }

    /// Surrender the outbox (engine-side drain after the node callback).
    pub(crate) fn into_outbox(self) -> Vec<Outgoing<M>> {
        self.outbox
    }

    /// Fan-out allocations reported by the node during this delivery (see
    /// [`note_fanout_allocs`](Self::note_fanout_allocs)); harvested by the
    /// engine before the outbox drain.
    pub(crate) fn fanout_allocs(&self) -> u64 {
        self.fanout_allocs
    }

    /// Report `n` payload-buffer allocations performed while fanning an
    /// event out to its matched destinations. Nodes that serialize once and
    /// share the rendered buffer report 1 per publish; a clone-per-subscriber
    /// baseline reports 1 per destination. Accumulated into
    /// [`EnginePerf::fanout_allocs`].
    pub fn note_fanout_allocs(&mut self, n: u64) {
        self.fanout_allocs += n;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node currently executing.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Send a message to another node (delivered after the fabric latency).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Outgoing::Send { to, msg });
    }

    /// Schedule a message back to the executing node after `delay`.
    /// Timers do not traverse the network and are never counted as traffic.
    pub fn schedule(&mut self, delay: SimDuration, msg: M) {
        self.outbox.push(Outgoing::Timer { delay, msg });
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard cap on the number of deliveries in one `run` call; exceeded caps
    /// return [`RunOutcome::HitDeliveryLimit`] so runaway protocols surface
    /// as test failures instead of hangs.
    pub max_deliveries: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_deliveries: 500_000_000,
        }
    }
}

/// Why a `run_*` call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The future event list drained completely.
    Drained,
    /// The configured horizon was reached with work still pending.
    ReachedHorizon,
    /// The safety delivery limit was hit.
    HitDeliveryLimit,
}

/// Engine-level performance counters, read after (or during) a run.
///
/// `alloc_events` counts storage-growth events across the engine's hot-path
/// structures: future-event-list slab slots and heap regrowths, channel
/// clock-table rehashes, and scratch-outbox capacity growths. Divided by
/// [`deliveries`](Self::deliveries) it is the *allocations-per-delivery
/// sanity counter*: in steady state the ratio falls toward zero because
/// every structure recycles its storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePerf {
    /// Messages delivered so far (including timers).
    pub deliveries: u64,
    /// High-water mark of the future event list (summed across shards for
    /// the parallel engine, approximating the global in-flight set).
    pub peak_queue_depth: usize,
    /// Storage growth events across queue slab/heap, clock table and
    /// scratch outbox.
    pub alloc_events: u64,
    /// Payload-buffer allocations reported by nodes while fanning events out
    /// (see [`Context::note_fanout_allocs`]). Zero unless the workload
    /// models payloads.
    pub fanout_allocs: u64,
}

/// Wall-clock cost of each hot-path phase, accumulated while
/// [`Engine::enable_phase_profile`] is on. The buckets partition one
/// delivery: future-event-list pops and pushes (`queue_ns`), fabric
/// sampling plus channel-clock clamping (`clocks_ns`), the node callback
/// (`protocol_ns`), and traffic accounting (`stats_ns`). Timer reads add a
/// fixed overhead per phase boundary, so profiled throughput is *not* the
/// number to report — run the breakdown pass separately from the timing
/// pass (as the benchmark's traced and untraced passes do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Nanoseconds spent popping and pushing the future event list.
    pub queue_ns: u64,
    /// Nanoseconds spent sampling the fabric and advancing channel clocks.
    pub clocks_ns: u64,
    /// Nanoseconds spent inside node `on_message` callbacks.
    pub protocol_ns: u64,
    /// Nanoseconds spent recording traffic statistics.
    pub stats_ns: u64,
}

impl PhaseBreakdown {
    /// Total accounted nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        self.queue_ns + self.clocks_ns + self.protocol_ns + self.stats_ns
    }
}

/// Reusable engine storage: the pooled future-event list, the channel-clock
/// table, and the scratch outbox. A sweep worker that runs hundreds of
/// scenario points can [`recycle`](Engine::recycle) each finished engine
/// and build the next one with [`Engine::new_in`], so the slabs warmed up
/// by the first point absorb every later one without allocating — the
/// cross-*run* analogue of the engine's cross-delivery pooling.
#[derive(Debug)]
pub struct EngineArena<M> {
    queue: EventQueue<M>,
    clocks: LinkClocks,
    scratch: Vec<Outgoing<M>>,
}

impl<M> EngineArena<M> {
    /// An empty arena (cold storage; the first run warms it up).
    pub fn new() -> Self {
        EngineArena {
            queue: EventQueue::new(),
            clocks: LinkClocks::new(0),
            scratch: Vec::new(),
        }
    }
}

impl<M> Default for EngineArena<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// The discrete-event engine.
pub struct Engine<M: Message, N: Node<M>> {
    nodes: Vec<N>,
    queue: EventQueue<M>,
    now: SimTime,
    seq: u64,
    fabric: Arc<dyn Fabric>,
    stats: TrafficStats,
    config: EngineConfig,
    delivered: u64,
    /// Per-`(from, to)` channel clocks: the latest delivery instant already
    /// scheduled on each ordered pair. Deliveries are clamped to
    /// `max(now + latency, clock)`, which is what makes per-link FIFO hold
    /// under variable-latency fabrics. Dense flat table for grid-sized
    /// runs, sharded open addressing above [`crate::clocks::DENSE_NODE_LIMIT`].
    link_clock: LinkClocks,
    /// Engine-owned outbox storage, swapped into each delivery's
    /// [`Context`]; `scratch_cap`/`scratch_grows` track its growth for the
    /// allocation sanity counter.
    scratch: Vec<Outgoing<M>>,
    scratch_cap: usize,
    scratch_grows: u64,
    /// Fault plan consulted on the delivery path. `None` (the zero-fault
    /// fast path) whenever no non-empty schedule was installed, so
    /// fault-free runs stay byte-identical to a faultless engine.
    faults: Option<Arc<FaultSchedule>>,
    /// Probabilistic link loss/corruption sampled on the send path. `None`
    /// (the zero-loss fast path) whenever no lossy model was installed, so
    /// loss-free runs stay byte-identical to a loss-free engine.
    loss: Option<LossModel>,
    /// Every envelope dropped by the fault plan or the loss model, in
    /// delivery order.
    drops: Vec<DropRecord>,
    /// Fan-out allocations harvested from delivery contexts (see
    /// [`Context::note_fanout_allocs`]).
    fanout_allocs: u64,
    /// Next reserved low sequence number handed to
    /// [`schedule_external_reserved`](Self::schedule_external_reserved).
    external_next: u64,
    /// One past the last reserved low sequence number.
    external_end: u64,
    /// Per-phase wall-clock accumulator; `None` (the default) keeps the hot
    /// path free of timer reads.
    profile: Option<Box<PhaseBreakdown>>,
}

impl<M: Message, N: Node<M>> Engine<M, N> {
    /// Create an engine over the given nodes and fabric.
    pub fn new(nodes: Vec<N>, fabric: Arc<dyn Fabric>) -> Self {
        Self::new_in(nodes, fabric, EngineArena::new())
    }

    /// Create an engine reusing the storage of a recycled one (see
    /// [`EngineArena`]): the event-list slab, clock table, and scratch
    /// outbox keep their capacity but are reset to empty, so a warmed arena
    /// makes the whole run allocation-free and [`perf`](Self::perf) reports
    /// zero `alloc_events` until traffic outgrows the pool.
    pub fn new_in(nodes: Vec<N>, fabric: Arc<dyn Fabric>, mut arena: EngineArena<M>) -> Self {
        arena.queue.reset();
        arena.clocks.reset(nodes.len());
        arena.scratch.clear();
        let scratch_cap = arena.scratch.capacity();
        Engine {
            nodes,
            queue: arena.queue,
            now: SimTime::ZERO,
            seq: 0,
            fabric,
            stats: TrafficStats::new(),
            config: EngineConfig::default(),
            delivered: 0,
            link_clock: arena.clocks,
            scratch: arena.scratch,
            scratch_cap,
            scratch_grows: 0,
            faults: None,
            loss: None,
            drops: Vec::new(),
            fanout_allocs: 0,
            external_next: 0,
            external_end: 0,
            profile: None,
        }
    }

    /// Replace the default configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (metrics collection after a run).
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node (setup before a run).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Iterate over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        self.nodes.iter()
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Number of messages delivered so far (including timers).
    pub fn deliveries(&self) -> u64 {
        self.delivered
    }

    /// Number of messages still waiting in the future event list.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Hot-path performance counters (peak queue depth, storage growths).
    pub fn perf(&self) -> EnginePerf {
        EnginePerf {
            deliveries: self.delivered,
            peak_queue_depth: self.queue.peak_len(),
            alloc_events: self.queue.alloc_events()
                + self.link_clock.alloc_events()
                + self.scratch_grows,
            fanout_allocs: self.fanout_allocs,
        }
    }

    /// Start accumulating the per-phase wall-clock breakdown (see
    /// [`PhaseBreakdown`]). Adds two timer reads per phase boundary, so
    /// enable it only on dedicated profiling passes.
    pub fn enable_phase_profile(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The accumulated phase breakdown, if profiling was enabled.
    pub fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        self.profile.as_deref().copied()
    }

    /// Install a fault schedule, consulted on every delivery. An **empty**
    /// schedule is not installed at all: the delivery path then performs no
    /// fault check, keeping zero-fault runs byte-identical to a faultless
    /// engine.
    pub fn set_faults(&mut self, schedule: Arc<FaultSchedule>) {
        self.faults = (!schedule.is_empty()).then_some(schedule);
    }

    /// The fault schedule in effect, if a non-empty one was installed.
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.faults.as_deref()
    }

    /// Install a loss model, sampled on every cross-node send. A
    /// **lossless** model is not installed at all: the send path then
    /// performs no fate sampling, keeping zero-loss runs byte-identical to
    /// a loss-free engine.
    pub fn set_loss(&mut self, model: LossModel) {
        self.loss = (!model.is_lossless()).then_some(model);
    }

    /// The loss model in effect, if a lossy one was installed.
    pub fn loss(&self) -> Option<&LossModel> {
        self.loss.as_ref()
    }

    /// Every envelope the fault schedule or loss model dropped so far, in
    /// delivery order.
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// Inject a message from the outside world (workload driver) to be
    /// delivered to `to` at absolute time `at`. The `from` field of the
    /// envelope is set to `to` itself, mirroring a local timer.
    pub fn schedule_external(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        self.queue.push(
            at,
            seq,
            Envelope {
                from: to,
                to,
                sent_at: at,
                fate: LinkFate::Intact,
                msg,
            },
        );
    }

    /// Reserve the `count` lowest sequence numbers for external injections
    /// that will arrive *lazily* via
    /// [`schedule_external_reserved`](Self::schedule_external_reserved).
    ///
    /// Must be called before any message has been sequenced. Afterwards,
    /// internally generated traffic draws sequence numbers from `count`
    /// upwards, so a lazily injected external event at instant `t` sorts
    /// before every internal event at the same `t` — exactly where it would
    /// have sorted had all externals been scheduled upfront. This is what
    /// makes lazy timeline injection byte-identical to eager injection
    /// while keeping the future-event list's peak depth proportional to the
    /// *in-flight* set instead of the whole timeline.
    pub fn reserve_external_seqs(&mut self, count: u64) {
        assert!(
            self.seq == 0 && self.external_end == 0,
            "reserve_external_seqs must run before any message is sequenced"
        );
        self.seq = count;
        self.external_next = 0;
        self.external_end = count;
    }

    /// Inject one external message using the next reserved low sequence
    /// number (see [`reserve_external_seqs`](Self::reserve_external_seqs)).
    /// Injections must happen in the intended tie-break order; panics when
    /// the reservation is exhausted.
    pub fn schedule_external_reserved(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(
            self.external_next < self.external_end,
            "external sequence reservation exhausted"
        );
        assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.external_next;
        self.external_next += 1;
        self.queue.push(
            at,
            seq,
            Envelope {
                from: to,
                to,
                sent_at: at,
                fate: LinkFate::Intact,
                msg,
            },
        );
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Drain a delivery's outbox into the future event list. The buffer is
    /// left empty (capacity intact) for reuse.
    ///
    /// Variable fabrics sample per-message variation keyed off the **link
    /// send index** — how many messages this ordered `(from, to)` pair has
    /// carried — not the global send sequence. Every send on a link is
    /// performed by its `from` node, so the index stream is identical under
    /// any partitioning of the node set: the parallel engine reproduces the
    /// serial engine's latency samples shard-locally. Constant fabrics
    /// ignore the key entirely, which keeps zero-jitter runs byte-identical
    /// across the change.
    fn enqueue_outgoing(&mut self, origin: NodeId, sent_at: SimTime, out: &mut Vec<Outgoing<M>>) {
        let profiling = self.profile.is_some();
        for o in out.drain(..) {
            match o {
                Outgoing::Send { to, msg } => {
                    let seq = self.next_seq();
                    let t0 = profiling.then(std::time::Instant::now);
                    // One probe of the clock table serves both halves of the
                    // hot path: the closure receives the link send index,
                    // makes the single virtual fabric call, and the returned
                    // proposal is FIFO-clamped in place — never deliver
                    // before anything already scheduled on this ordered pair.
                    let fabric = &*self.fabric;
                    let loss = self.loss;
                    let mut hops = 0;
                    let mut fate = LinkFate::Intact;
                    let at = self.link_clock.advance_send(origin, to, |link_seq| {
                        let cost = fabric.link(origin, to, sent_at, link_seq);
                        hops = cost.hops;
                        // Fate is sampled here, where the link send index is
                        // in hand, keyed exactly like jitter on
                        // `(seed, from, to, link_seq)`. Lost/corrupted
                        // messages still advance the link clock, consume the
                        // send index and count in traffic stats — the bytes
                        // *were* sent — so the jitter stream and the stats
                        // stay byte-identical whatever the fates.
                        if let (Some(m), false) = (&loss, origin == to) {
                            fate = m.fate(origin, to, link_seq);
                        }
                        sent_at + cost.latency
                    });
                    let t1 = profiling.then(std::time::Instant::now);
                    self.stats
                        .record(msg.traffic_class(), msg.kind(), hops, msg.wire_bytes());
                    let t2 = profiling.then(std::time::Instant::now);
                    self.queue.push(
                        at,
                        seq,
                        Envelope {
                            from: origin,
                            to,
                            sent_at,
                            fate,
                            msg,
                        },
                    );
                    if let (Some(p), Some(t0), Some(t1), Some(t2)) =
                        (self.profile.as_deref_mut(), t0, t1, t2)
                    {
                        p.clocks_ns += (t1 - t0).as_nanos() as u64;
                        p.stats_ns += (t2 - t1).as_nanos() as u64;
                        p.queue_ns += t2.elapsed().as_nanos() as u64;
                    }
                }
                Outgoing::Timer { delay, msg } => {
                    let seq = self.next_seq();
                    let t0 = profiling.then(std::time::Instant::now);
                    self.queue.push(
                        sent_at + delay,
                        seq,
                        Envelope {
                            from: origin,
                            to: origin,
                            sent_at,
                            fate: LinkFate::Intact,
                            msg,
                        },
                    );
                    if let (Some(p), Some(t0)) = (self.profile.as_deref_mut(), t0) {
                        p.queue_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
    }

    /// Why an envelope about to be delivered at `at` must be dropped, if it
    /// must. A message lost in flight never reaches its destination, so loss
    /// wins over a fault at the destination; a corrupted message *does*
    /// arrive (and is discarded by the receiver's checksum), so a crashed
    /// destination wins over corruption.
    #[inline]
    fn drop_cause(&self, env: &Envelope<M>, at: SimTime) -> Option<DropCause> {
        if env.fate == LinkFate::Lost {
            return Some(DropCause::Loss);
        }
        if let Some(faults) = &self.faults {
            if let Some((window, _)) = faults.verdict(env.from, env.to, at) {
                return Some(DropCause::Fault(window));
            }
        }
        if env.fate == LinkFate::Corrupted {
            return Some(DropCause::Corruption);
        }
        None
    }

    /// Deliver one already-popped event: advance the clock, run the node
    /// callback with the engine's scratch outbox, enqueue what it emitted.
    fn deliver(&mut self, at: SimTime, env: Envelope<M>) {
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        // Fault/loss consultation: a dropped envelope is recorded, never
        // silently vanished, and the destination's callback does not run —
        // crashed nodes receive nothing (timers included), partitioned
        // links deliver nothing, and lost/corrupted messages die here.
        // Absent a schedule and a loss model this branch is not taken and
        // the path below is the unchanged fast path.
        if let Some(cause) = self.drop_cause(&env, at) {
            self.drops.push(DropRecord {
                at,
                from: env.from,
                to: env.to,
                kind: env.msg.kind(),
                class: env.msg.traffic_class(),
                cause,
            });
            return;
        }
        self.delivered += 1;
        self.stats.deliveries += 1;
        let to = env.to;
        let mut ctx = Context::with_outbox(at, to, std::mem::take(&mut self.scratch));
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        self.nodes[to.index()].on_message(env, &mut ctx);
        if let (Some(p), Some(t0)) = (self.profile.as_deref_mut(), t0) {
            p.protocol_ns += t0.elapsed().as_nanos() as u64;
        }
        self.fanout_allocs += ctx.fanout_allocs();
        let mut out = ctx.into_outbox();
        if out.capacity() > self.scratch_cap {
            self.scratch_cap = out.capacity();
            self.scratch_grows += 1;
        }
        self.enqueue_outgoing(to, at, &mut out);
        debug_assert!(out.is_empty());
        self.scratch = out;
    }

    /// Pop the next due event, charging the pop to the queue phase when
    /// profiling. `strict` selects the strictly-before horizon semantics.
    #[inline]
    fn profiled_pop(&mut self, horizon: SimTime, strict: bool) -> PopBefore<M> {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        let r = if strict {
            self.queue.pop_strictly_before(horizon)
        } else {
            self.queue.pop_at_or_before(horizon)
        };
        if let (Some(p), Some(t0)) = (self.profile.as_deref_mut(), t0) {
            p.queue_ns += t0.elapsed().as_nanos() as u64;
        }
        r
    }

    /// Deliver a single message. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let t0 = self.profile.is_some().then(std::time::Instant::now);
        let popped = self.queue.pop();
        if let (Some(p), Some(t0)) = (self.profile.as_deref_mut(), t0) {
            p.queue_ns += t0.elapsed().as_nanos() as u64;
        }
        match popped {
            Some((at, env)) => {
                self.deliver(at, env);
                true
            }
            None => false,
        }
    }

    /// Run until the future event list is empty or a limit is hit.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        let budget = self.config.max_deliveries;
        let start = self.delivered;
        while self.step() {
            if self.delivered - start >= budget {
                return RunOutcome::HitDeliveryLimit;
            }
        }
        RunOutcome::Drained
    }

    /// Run until the clock passes `horizon` (events scheduled later stay in
    /// the queue), the queue drains, or a limit is hit.
    ///
    /// The hot loop performs a *single* queue access per delivery:
    /// [`EventQueue::pop_at_or_before`] peeks the root key in place and only
    /// pops when the event is due (the old loop peeked the `BinaryHeap`,
    /// then `step()` popped the same entry again).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let budget = self.config.max_deliveries;
        let start = self.delivered;
        loop {
            match self.profiled_pop(horizon, false) {
                PopBefore::Empty => return RunOutcome::Drained,
                PopBefore::Later => return RunOutcome::ReachedHorizon,
                PopBefore::Due(at, env) => {
                    self.deliver(at, env);
                    if self.delivered - start >= budget {
                        return RunOutcome::HitDeliveryLimit;
                    }
                }
            }
        }
    }

    /// Run until the next event is due *at or after* `horizon` (events at
    /// exactly `horizon` stay queued), the queue drains, or a limit is hit.
    /// The lazy-injection counterpart of [`run_until`](Self::run_until): the
    /// runner drains strictly up to the next external action's instant,
    /// injects it with its reserved low sequence number, and continues.
    pub fn run_strictly_before(&mut self, horizon: SimTime) -> RunOutcome {
        let budget = self.config.max_deliveries;
        let start = self.delivered;
        loop {
            match self.profiled_pop(horizon, true) {
                PopBefore::Empty => return RunOutcome::Drained,
                PopBefore::Later => return RunOutcome::ReachedHorizon,
                PopBefore::Due(at, env) => {
                    self.deliver(at, env);
                    if self.delivered - start >= budget {
                        return RunOutcome::HitDeliveryLimit;
                    }
                }
            }
        }
    }

    /// Run a whole reserved timeline to completion: for each `(at, to, msg)`
    /// entry (which must come pre-sorted by instant, in reservation order),
    /// drain strictly up to `at`, inject the entry with its reserved low
    /// sequence number, and finally drain the rest. Equivalent to the
    /// injection loop the scenario runner used to drive externally — hoisted
    /// into the engine so a parallel implementation can keep its worker
    /// threads alive across the whole run instead of re-spawning per
    /// injection. Requires a prior [`reserve_external_seqs`] covering every
    /// entry.
    ///
    /// [`reserve_external_seqs`]: Self::reserve_external_seqs
    pub fn run_timeline(
        &mut self,
        timeline: impl IntoIterator<Item = (SimTime, NodeId, M)>,
    ) -> RunOutcome {
        for (at, to, msg) in timeline {
            // Intermediate outcomes are horizon reports, not errors; the
            // delivery budget is re-checked by the final drain.
            let _ = self.run_strictly_before(at);
            self.schedule_external_reserved(at, to, msg);
        }
        self.run_to_completion()
    }

    /// Consume the engine and return its parts (nodes + stats), used by the
    /// harness to collect per-node logs after a run.
    pub fn into_parts(self) -> (Vec<N>, TrafficStats, SimTime) {
        (self.nodes, self.stats, self.now)
    }

    /// Consume the engine, returning its parts **plus** the reusable
    /// storage arena — [`into_parts`](Self::into_parts) for callers that
    /// will build another engine next (see [`EngineArena`]).
    pub fn recycle(self) -> (Vec<N>, TrafficStats, SimTime, EngineArena<M>) {
        (
            self.nodes,
            self.stats,
            self.now,
            EngineArena {
                queue: self.queue,
                clocks: self.link_clock,
                scratch: self.scratch,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::UniformFabric;
    use crate::stats::TrafficClass;

    /// A toy message for engine tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Toy {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    impl Message for Toy {
        fn traffic_class(&self) -> TrafficClass {
            match self {
                Toy::Tick => TrafficClass::Timer,
                _ => TrafficClass::EventRouting,
            }
        }
        fn kind(&self) -> &'static str {
            match self {
                Toy::Ping(_) => "ping",
                Toy::Pong(_) => "pong",
                Toy::Tick => "tick",
            }
        }
    }

    /// A node that answers pings with pongs and records what it saw.
    #[derive(Default)]
    struct Echo {
        seen: Vec<(SimTime, Toy)>,
        peer: Option<NodeId>,
        ticks: u32,
    }

    impl Node<Toy> for Echo {
        fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
            self.seen.push((ctx.now(), env.msg.clone()));
            match env.msg {
                Toy::Ping(n) => ctx.send(env.from, Toy::Pong(n)),
                Toy::Pong(_) => {}
                Toy::Tick => {
                    self.ticks += 1;
                    if let Some(peer) = self.peer {
                        ctx.send(peer, Toy::Ping(self.ticks));
                    }
                    if self.ticks < 3 {
                        ctx.schedule(SimDuration::from_millis(100), Toy::Tick);
                    }
                }
            }
        }
    }

    fn two_node_engine(latency_ms: u64) -> Engine<Toy, Echo> {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(latency_ms)));
        let a = Echo {
            peer: Some(NodeId(1)),
            ..Echo::default()
        };
        let b = Echo::default();
        Engine::new(vec![a, b], fabric)
    }

    #[test]
    fn ping_pong_round_trip_timing() {
        let mut eng = two_node_engine(10);
        eng.schedule_external(SimTime::from_millis(0), NodeId(0), Toy::Tick);
        let outcome = eng.run_to_completion();
        assert_eq!(outcome, RunOutcome::Drained);
        // node 0 ticked 3 times at t=0,100,200; each tick pings node 1 (10ms)
        // which pongs back (another 10ms).
        let node1 = eng.node(NodeId(1));
        assert_eq!(node1.seen.len(), 3);
        assert_eq!(node1.seen[0].0, SimTime::from_millis(10));
        let node0 = eng.node(NodeId(0));
        let pongs: Vec<_> = node0
            .seen
            .iter()
            .filter(|(_, m)| matches!(m, Toy::Pong(_)))
            .collect();
        assert_eq!(pongs.len(), 3);
        assert_eq!(pongs[0].0, SimTime::from_millis(20));
    }

    #[test]
    fn stats_count_network_messages_but_not_timers() {
        let mut eng = two_node_engine(10);
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        eng.run_to_completion();
        let stats = eng.stats();
        assert_eq!(stats.kind("ping").messages, 3);
        assert_eq!(stats.kind("pong").messages, 3);
        assert_eq!(stats.class(TrafficClass::EventRouting).hops, 6);
        // The three self-scheduled ticks travelled zero network hops and two
        // of them (after the injected one) are recorded as Timer class.
        assert_eq!(stats.class(TrafficClass::Timer).hops, 0);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut eng = two_node_engine(10);
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        let outcome = eng.run_until(SimTime::from_millis(150));
        assert_eq!(outcome, RunOutcome::ReachedHorizon);
        assert!(eng.now() <= SimTime::from_millis(150));
        assert!(eng.pending() > 0);
        // Finishing afterwards drains the rest.
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
    }

    #[test]
    fn delivery_limit_guards_runaway() {
        // Node 0 pings node 1 forever because every pong triggers a new ping.
        struct Loopy;
        impl Node<Toy> for Loopy {
            fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
                match env.msg {
                    Toy::Ping(n) => ctx.send(env.from, Toy::Pong(n)),
                    Toy::Pong(n) => ctx.send(env.from, Toy::Ping(n + 1)),
                    Toy::Tick => ctx.send(NodeId(1), Toy::Ping(0)),
                }
            }
        }
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(1)));
        let mut eng = Engine::new(vec![Loopy, Loopy], fabric).with_config(EngineConfig {
            max_deliveries: 1_000,
        });
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        assert_eq!(eng.run_to_completion(), RunOutcome::HitDeliveryLimit);
    }

    #[test]
    fn run_until_honours_the_delivery_limit() {
        struct Loopy;
        impl Node<Toy> for Loopy {
            fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
                match env.msg {
                    Toy::Ping(n) => ctx.send(env.from, Toy::Pong(n)),
                    Toy::Pong(n) => ctx.send(env.from, Toy::Ping(n + 1)),
                    Toy::Tick => ctx.send(NodeId(1), Toy::Ping(0)),
                }
            }
        }
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(1)));
        let mut eng = Engine::new(vec![Loopy, Loopy], fabric).with_config(EngineConfig {
            max_deliveries: 500,
        });
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        assert_eq!(
            eng.run_until(SimTime::from_secs(3600)),
            RunOutcome::HitDeliveryLimit
        );
        assert_eq!(eng.deliveries(), 500);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = two_node_engine(1);
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        eng.run_to_completion();
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
    }

    #[test]
    fn fifo_per_link_holds_for_bursts() {
        // Node 0 sends 100 pings to node 1 back-to-back; they must arrive in
        // send order.
        struct Burst;
        impl Node<Toy> for Burst {
            fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
                if let Toy::Tick = env.msg {
                    for i in 0..100 {
                        ctx.send(NodeId(1), Toy::Ping(i));
                    }
                }
            }
        }
        struct Sink {
            got: Vec<u32>,
        }
        impl Node<Toy> for Sink {
            fn on_message(&mut self, env: Envelope<Toy>, _ctx: &mut Context<Toy>) {
                if let Toy::Ping(i) = env.msg {
                    self.got.push(i);
                }
            }
        }
        enum Either {
            B(Burst),
            S(Sink),
        }
        impl Node<Toy> for Either {
            fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
                match self {
                    Either::B(b) => b.on_message(env, ctx),
                    Either::S(s) => s.on_message(env, ctx),
                }
            }
        }
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(7)));
        let mut eng = Engine::new(
            vec![Either::B(Burst), Either::S(Sink { got: Vec::new() })],
            fabric,
        );
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        eng.run_to_completion();
        match eng.node(NodeId(1)) {
            Either::S(s) => assert_eq!(s.got, (0..100).collect::<Vec<_>>()),
            _ => unreachable!(),
        }
    }

    #[test]
    fn fifo_per_link_holds_under_jitter() {
        use crate::fabric::{JitteredFabric, LinkModel};
        // Node 0 bursts 200 pings to node 1 over a heavily jittered link;
        // the channel clocks must keep them in send order even when a later
        // ping samples a much smaller latency.
        struct Burst;
        impl Node<Toy> for Burst {
            fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
                if let Toy::Tick = env.msg {
                    for i in 0..200 {
                        ctx.send(NodeId(1), Toy::Ping(i));
                    }
                }
            }
        }
        struct Sink {
            got: Vec<u32>,
        }
        impl Node<Toy> for Sink {
            fn on_message(&mut self, env: Envelope<Toy>, _ctx: &mut Context<Toy>) {
                if let Toy::Ping(i) = env.msg {
                    self.got.push(i);
                }
            }
        }
        enum Either {
            B(Burst),
            S(Sink),
        }
        impl Node<Toy> for Either {
            fn on_message(&mut self, env: Envelope<Toy>, ctx: &mut Context<Toy>) {
                match self {
                    Either::B(b) => b.on_message(env, ctx),
                    Either::S(s) => s.on_message(env, ctx),
                }
            }
        }
        for seed in 0..8u64 {
            let model = LinkModel {
                seed,
                jitter: SimDuration::from_millis(50),
                asymmetry: 0.3,
                degraded: Vec::new(),
            };
            let fabric = Arc::new(JitteredFabric::new(
                UniformFabric::new(SimDuration::from_millis(2)),
                model,
            ));
            let mut eng = Engine::new(
                vec![Either::B(Burst), Either::S(Sink { got: Vec::new() })],
                fabric,
            );
            eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
            eng.run_to_completion();
            match eng.node(NodeId(1)) {
                Either::S(s) => assert_eq!(
                    s.got,
                    (0..200).collect::<Vec<_>>(),
                    "seed {seed}: jitter reordered a link"
                ),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn external_injection_preserves_order_at_same_time() {
        struct Sink {
            got: Vec<u32>,
        }
        impl Node<Toy> for Sink {
            fn on_message(&mut self, env: Envelope<Toy>, _ctx: &mut Context<Toy>) {
                if let Toy::Ping(i) = env.msg {
                    self.got.push(i);
                }
            }
        }
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(1)));
        let mut eng = Engine::new(vec![Sink { got: Vec::new() }], fabric);
        for i in 0..50 {
            eng.schedule_external(SimTime::from_millis(5), NodeId(0), Toy::Ping(i));
        }
        eng.run_to_completion();
        assert_eq!(eng.node(NodeId(0)).got, (0..50).collect::<Vec<_>>());
    }

    /// A crash window must silence the node for exactly the window: pings
    /// delivered inside it are dropped (and recorded), pings before and
    /// after go through, and the node never reacts to a dropped message.
    #[test]
    fn crash_window_drops_and_records_deliveries() {
        use crate::faults::FaultSchedule;
        let mut eng = two_node_engine(10);
        eng.set_faults(Arc::new(FaultSchedule::new().crash(
            NodeId(1),
            SimTime::from_millis(105),
            SimTime::from_millis(205),
        )));
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        // Ticks at 0/100/200 ping node 1 at 10/110/210; the middle one dies.
        let node1 = eng.node(NodeId(1));
        let seen: Vec<SimTime> = node1.seen.iter().map(|(at, _)| *at).collect();
        assert_eq!(
            seen,
            vec![SimTime::from_millis(10), SimTime::from_millis(210)]
        );
        // The drop is on the record, attributed to window 0.
        assert_eq!(eng.drops().len(), 1);
        let drop = &eng.drops()[0];
        assert_eq!(drop.at, SimTime::from_millis(110));
        assert_eq!((drop.from, drop.to), (NodeId(0), NodeId(1)));
        assert_eq!(drop.kind, "ping");
        assert_eq!(drop.cause, DropCause::Fault(0));
        // Dropped envelopes are not deliveries: only 2 pings answered.
        let node0 = eng.node(NodeId(0));
        let pongs = node0
            .seen
            .iter()
            .filter(|(_, m)| matches!(m, Toy::Pong(_)))
            .count();
        assert_eq!(pongs, 2, "the crashed node must not answer");
    }

    /// Installing an empty schedule must keep the zero-fault fast path: the
    /// run is byte-identical to one with no schedule at all.
    #[test]
    fn empty_schedule_is_the_fast_path() {
        use crate::faults::FaultSchedule;
        let run = |faulted: bool| {
            let mut eng = two_node_engine(10);
            if faulted {
                eng.set_faults(Arc::new(FaultSchedule::new()));
            }
            eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
            eng.run_to_completion();
            assert!(eng.faults().is_none(), "empty schedules are not installed");
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
                eng.deliveries(),
                format!("{:?}", eng.stats()),
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// Installing a lossless model must keep the zero-loss fast path: the
    /// run is byte-identical to one with no model at all.
    #[test]
    fn lossless_model_is_the_fast_path() {
        let run = |lossy: bool| {
            let mut eng = two_node_engine(10);
            if lossy {
                eng.set_loss(LossModel::new(99, 0.0, 0.0));
            }
            eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
            eng.run_to_completion();
            assert!(eng.loss().is_none(), "lossless models are not installed");
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
                eng.deliveries(),
                format!("{:?}", eng.stats()),
            )
        };
        assert_eq!(run(false), run(true));
    }

    /// A lossy model drops some messages, records every drop with its cause,
    /// keeps timers exempt, and replays byte-identically for the same seed.
    #[test]
    fn lossy_links_drop_record_and_replay_identically() {
        let run = |seed: u64| {
            let mut eng = two_node_engine(10);
            eng.set_loss(LossModel::new(seed, 0.4, 0.2));
            eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
            assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
                eng.drops().to_vec(),
                eng.deliveries(),
            )
        };
        // Find a seed whose fates include both losses and corruptions so the
        // assertions below are not vacuous (the scan is deterministic).
        let (seed, drops) = (0..64u64)
            .map(|s| (s, run(s).2))
            .find(|(_, d)| {
                d.iter().any(|r| r.cause == DropCause::Loss)
                    && d.iter().any(|r| r.cause == DropCause::Corruption)
            })
            .expect("some seed in 0..64 loses and corrupts at 40%/20% rates");
        for d in &drops {
            assert!(matches!(d.cause, DropCause::Loss | DropCause::Corruption));
            assert_ne!(d.from, d.to, "timers and self-sends are exempt");
            assert_ne!(d.kind, "tick");
        }
        // The three self-scheduled ticks always run: loss only covers links.
        let (seen0, _, _, _) = run(seed);
        let ticks = seen0.iter().filter(|(_, m)| matches!(m, Toy::Tick)).count();
        assert_eq!(ticks, 3);
        assert_eq!(run(seed), run(seed), "seeded lossy runs replay");
    }

    /// Loss, fault windows and corruption attribute drops in the documented
    /// precedence order: lost messages never reach the node (loss wins),
    /// corrupted messages do arrive and die at the crashed node (fault wins).
    #[test]
    fn drop_cause_precedence_is_loss_fault_corruption() {
        use crate::faults::FaultSchedule;
        // Crash node 1 for the whole run, lose everything on the wire: all
        // drops must be attributed to loss.
        let mut eng = two_node_engine(10);
        eng.set_faults(Arc::new(FaultSchedule::new().crash(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_secs(3600),
        )));
        eng.set_loss(LossModel::new(1, 1.0, 0.0));
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        eng.run_to_completion();
        let ping_drops: Vec<_> = eng.drops().iter().filter(|d| d.kind == "ping").collect();
        assert!(!ping_drops.is_empty());
        assert!(ping_drops.iter().all(|d| d.cause == DropCause::Loss));

        // Corrupt everything instead: the crashed destination wins.
        let mut eng = two_node_engine(10);
        eng.set_faults(Arc::new(FaultSchedule::new().crash(
            NodeId(1),
            SimTime::ZERO,
            SimTime::from_secs(3600),
        )));
        eng.set_loss(LossModel::new(1, 0.0, 1.0));
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        eng.run_to_completion();
        let ping_drops: Vec<_> = eng.drops().iter().filter(|d| d.kind == "ping").collect();
        assert!(!ping_drops.is_empty());
        assert!(
            ping_drops.iter().all(|d| d.cause == DropCause::Fault(0)),
            "a corrupted message still arrives, and dies at the crashed node"
        );
    }

    /// Lazy injection with reserved sequence numbers must replay the exact
    /// delivery order of eager upfront injection, even when an internal
    /// event is due at the same instant as a later external one.
    #[test]
    fn reserved_lazy_injection_matches_eager_injection() {
        // Node 0 pings node 1 on every tick; externals land at instants that
        // collide with in-flight pongs (latency 10ms, ticks every 20ms).
        let timeline: Vec<(SimTime, Toy)> = (0..20u64)
            .map(|i| (SimTime::from_millis(i * 20), Toy::Tick))
            .collect();
        let run_eager = || {
            let mut eng = two_node_engine(10);
            for (at, msg) in &timeline {
                eng.schedule_external(*at, NodeId(0), msg.clone());
            }
            eng.run_to_completion();
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
            )
        };
        let run_lazy = || {
            let mut eng = two_node_engine(10);
            eng.reserve_external_seqs(timeline.len() as u64);
            for (at, msg) in &timeline {
                eng.run_strictly_before(*at);
                eng.schedule_external_reserved(*at, NodeId(0), msg.clone());
            }
            eng.run_to_completion();
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
            )
        };
        let (e0, e1) = run_eager();
        let (l0, l1) = run_lazy();
        assert_eq!(e0, l0);
        assert_eq!(e1, l1);
    }

    /// Steady-state traffic must stop growing engine storage: after a
    /// warm-up burst, further identical bursts leave the allocation counter
    /// untouched while deliveries keep climbing.
    #[test]
    fn steady_state_stops_allocating() {
        let mut eng = two_node_engine(5);
        eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
        eng.run_to_completion();
        let warmed = eng.perf();
        assert!(warmed.alloc_events > 0, "warm-up must have allocated");
        // Re-run the identical ping/pong cycle many times over.
        for round in 1..=20u64 {
            let at = SimTime::from_secs(round * 10);
            eng.node_mut(NodeId(0)).ticks = 0;
            eng.schedule_external(at, NodeId(0), Toy::Tick);
            eng.run_to_completion();
        }
        let after = eng.perf();
        assert!(after.deliveries > warmed.deliveries * 10);
        assert_eq!(
            after.alloc_events, warmed.alloc_events,
            "steady-state deliveries must not grow any engine storage"
        );
        assert!(after.peak_queue_depth >= 1);
    }

    /// `run_timeline` must replay the exact behaviour of the external
    /// drain-inject-drain loop it replaces.
    #[test]
    fn run_timeline_matches_manual_injection_loop() {
        let timeline: Vec<(SimTime, NodeId, Toy)> = (0..20u64)
            .map(|i| (SimTime::from_millis(i * 20), NodeId(0), Toy::Tick))
            .collect();
        let run_manual = || {
            let mut eng = two_node_engine(10);
            eng.reserve_external_seqs(timeline.len() as u64);
            for (at, to, msg) in &timeline {
                eng.run_strictly_before(*at);
                eng.schedule_external_reserved(*at, *to, msg.clone());
            }
            eng.run_to_completion();
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
                eng.deliveries(),
            )
        };
        let run_via_timeline = || {
            let mut eng = two_node_engine(10);
            eng.reserve_external_seqs(timeline.len() as u64);
            let outcome = eng.run_timeline(timeline.iter().cloned());
            assert_eq!(outcome, RunOutcome::Drained);
            (
                eng.node(NodeId(0)).seen.clone(),
                eng.node(NodeId(1)).seen.clone(),
                eng.deliveries(),
            )
        };
        assert_eq!(run_manual(), run_via_timeline());
    }

    /// A recycled arena must make the next engine's whole run
    /// allocation-free (same workload shape), with identical results.
    #[test]
    fn arena_reuse_is_allocation_free_and_identical() {
        let run = |arena: EngineArena<Toy>| {
            let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(10)));
            let a = Echo {
                peer: Some(NodeId(1)),
                ..Echo::default()
            };
            let mut eng = Engine::new_in(vec![a, Echo::default()], fabric, arena);
            eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
            eng.run_to_completion();
            let perf = eng.perf();
            let (nodes, stats, _, arena) = eng.recycle();
            (nodes[1].seen.clone(), format!("{stats:?}"), perf, arena)
        };
        let (seen1, stats1, perf1, arena) = run(EngineArena::new());
        assert!(perf1.alloc_events > 0, "cold arena must warm up");
        let (seen2, stats2, perf2, arena) = run(arena);
        assert_eq!(seen1, seen2, "arena reuse must not change results");
        assert_eq!(stats1, stats2);
        assert_eq!(perf2.alloc_events, 0, "warmed arena must not allocate");
        assert_eq!(perf1.deliveries, perf2.deliveries);
        let (_, _, perf3, _) = run(arena);
        assert_eq!(perf3.alloc_events, 0);
    }

    /// Phase profiling accounts every hot-path phase and never changes
    /// results.
    #[test]
    fn phase_profile_accumulates_and_preserves_results() {
        let run = |profiled: bool| {
            let mut eng = two_node_engine(10);
            if profiled {
                eng.enable_phase_profile();
            }
            eng.schedule_external(SimTime::ZERO, NodeId(0), Toy::Tick);
            eng.run_to_completion();
            (
                eng.node(NodeId(1)).seen.clone(),
                eng.deliveries(),
                eng.phase_breakdown(),
            )
        };
        let (seen_off, del_off, bd_off) = run(false);
        let (seen_on, del_on, bd_on) = run(true);
        assert_eq!(bd_off, None);
        assert_eq!(seen_off, seen_on);
        assert_eq!(del_off, del_on);
        let bd = bd_on.expect("profiling was enabled");
        assert!(bd.protocol_ns > 0, "callbacks must be accounted");
        assert!(bd.queue_ns > 0, "queue ops must be accounted");
        assert_eq!(
            bd.total_ns(),
            bd.queue_ns + bd.clocks_ns + bd.protocol_ns + bd.stats_ns
        );
    }
}
