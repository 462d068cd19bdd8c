//! Sharded conservative-parallel engine with exact serial equivalence.
//!
//! [`ParallelEngine`] partitions the node set across K shards (see
//! [`Partition`]) and runs each shard's own
//! pooled [`EventQueue`] on its own worker thread, synchronising at
//! *window barriers*. The design is conservative parallel discrete-event
//! simulation (null-message-free, barrier-windowed), with one twist: the
//! merged run is **byte-identical** to the serial [`Engine`] — same seed,
//! same delivery order, same traffic statistics, same drop log — which the
//! differential suite `tests/parallel_equivalence.rs` asserts cell by cell.
//!
//! # Windows and lookahead
//!
//! The fabric promises a *latency floor* (see
//! [`Fabric::latency_floor`]): every
//! message between distinct nodes takes at least `L`. A window starts at
//! `t_next` (the earliest pending event anywhere) and spans `[t_next,
//! t_next + L)`. Any message emitted inside the window at instant `t ≥
//! t_next` arrives cross-shard no earlier than `t + L ≥ t_next + L` — past
//! the window's end — so shards can process their own `[t_next, t_next+L)`
//! events with **no** incoming cross-shard traffic to fear. The per-link
//! FIFO clamp only ever moves arrivals later, and timers are intra-node,
//! so neither breaks the bound. A zero floor (or a one-shard partition)
//! degrades to a single shard running whole-horizon windows: correct,
//! just not parallel.
//!
//! ## Adaptive windows
//!
//! Fixed `L`-wide windows burn one barrier per lookahead span even when the
//! run is quiescent (one shard draining a long stretch of local timers and
//! intra-shard traffic). The engine therefore grows the window after quiet
//! barriers: a barrier that routed **zero** cross-shard envelopes doubles a
//! growth factor `G` (capped at 64), any routed envelope resets it to 1,
//! and the next window may span `G·L` — but only when exactly **one**
//! shard has pending events below the grown end. That guard is what keeps
//! the merged run byte-identical to the serial engine: with a single
//! active shard, the window's delivery set is a contiguous prefix of the
//! serial schedule (no other shard has anything to deliver in the span),
//! and the active shard *self-clamps* its window to `first cross-shard
//! emission + L` the moment it parks an envelope — everything it parks
//! afterwards arrives at or past the clamped end, so no shard ever
//! processes past an in-flight arrival. With `G = 1`, or whenever two or
//! more shards are active below the grown end, the window is the classic
//! uniform `[t_next, t_next + L)`.
//!
//! # Exact sequence reconstruction
//!
//! The serial engine's total delivery order is `(at, seq)` with `seq` the
//! global send sequence assigned *at emission, in delivery order*. Shards
//! cannot know global sequence numbers mid-window, so emissions carry
//! **provisional keys** — `PROV_BIT | shard | window-local counter` — that
//! sort after every true sequence number and, within a shard, in emission
//! order. At the barrier the per-shard delivery logs (each sorted by
//! `(at, key)`, because pop order is sorted and a delivery's provisional
//! key resolves monotonically) are k-way merged by `(at, resolved key)`,
//! which reconstructs the exact serial pop order; each merged delivery is
//! assigned the next true sequence numbers for its emissions, exactly as
//! the serial engine would have. Queued events, cross-shard handoffs and
//! drop records are then relabelled through the resulting map — an
//! order-isomorphic rewrite, so the shard heaps stay valid in place. The
//! resolved numbers of a queued run need not stay consecutive (other
//! shards' emissions fall between them), so the relabel splits runs at
//! every gap before cross-shard envelopes are pushed into those gaps
//! ([`EventQueue::remap_seqs`]).
//!
//! # Threads
//!
//! Workers live in one [`std::thread::scope`] per public run call (a whole
//! [`run_timeline`](ParallelEngine::run_timeline) shares one scope), and
//! shard states ping-pong between the coordinator and the workers through
//! channels — ownership transfer, no locks on the hot path. The
//! [`with_thread_allowance`] guard bounds how many OS threads one engine
//! may use, so an outer run-level parallel sweep times an inner parallel
//! engine never oversubscribes the machine.

use std::cell::Cell;
use std::sync::{mpsc, Arc};

use crate::clocks::LinkClocks;
use crate::engine::{
    Context, Engine, EngineArena, EngineConfig, EnginePerf, Envelope, Node, Outgoing,
    PhaseBreakdown, RunOutcome,
};
use crate::fabric::Fabric;
use crate::faults::{DropCause, DropRecord, FaultSchedule, LinkFate, LossModel};
use crate::ids::NodeId;
use crate::queue::EventQueue;
use crate::stats::{Message, TrafficStats};
use crate::time::{SimDuration, SimTime};
use crate::topology::Partition;

/// Marks a provisional (not yet globally sequenced) key. Provisional keys
/// sort after every true sequence number, mirroring the serial invariant
/// that anything emitted during a window outsequences everything already
/// queued when the window began.
const PROV_BIT: u64 = 1 << 63;
/// Bit offset of the shard id inside a provisional key (23 bits of shard
/// above 40 bits of window-local emission counter).
const PROV_SHARD_SHIFT: u32 = 40;
/// Mask of the window-local emission counter inside a provisional key.
const PROV_COUNTER_MASK: u64 = (1 << PROV_SHARD_SHIFT) - 1;

#[inline]
fn prov_shard(key: u64) -> usize {
    ((key & !PROV_BIT) >> PROV_SHARD_SHIFT) as usize
}

#[inline]
fn prov_counter(key: u64) -> usize {
    (key & PROV_COUNTER_MASK) as usize
}

/// Resolve a key through the barrier's provisional→true maps. True keys
/// pass through; provisional keys index their shard's map, which the
/// k-way merge is guaranteed to have filled (an emission's parent delivery
/// sits earlier in the same shard's log, hence merges first).
#[inline]
fn resolve_key(key: u64, maps: &[Vec<u64>]) -> u64 {
    if key & PROV_BIT == 0 {
        key
    } else {
        maps[prov_shard(key)][prov_counter(key)]
    }
}

thread_local! {
    /// Per-thread cap on how many worker threads a [`ParallelEngine`]
    /// running on this thread may use. `0` means unlimited.
    static THREAD_ALLOWANCE: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with this thread's parallel-engine thread allowance set to
/// `limit` (`0` = unlimited), restoring the previous allowance afterwards
/// (panic-safe). Nested parallelism budget: a sweep running W run-level
/// workers hands each worker an allowance of `total / W`, so `sweep × `
/// [`ParallelEngine`] never oversubscribes the machine.
pub fn with_thread_allowance<R>(limit: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_ALLOWANCE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_ALLOWANCE.with(|c| c.replace(limit));
    let _guard = Restore(prev);
    f()
}

/// The [`with_thread_allowance`] budget currently in force on the calling
/// thread (`0` = unlimited). Mostly useful for executors and tests asserting
/// that nested-parallelism budgets actually reach the worker closures.
pub fn thread_allowance() -> usize {
    THREAD_ALLOWANCE.with(Cell::get)
}

/// Cap on the adaptive window growth factor: a fully quiet run's windows
/// stop growing at 64 lookahead spans, bounding how far a single window
/// can speculate past the point where traffic resumes.
const MAX_WINDOW_GROWTH: u64 = 64;

/// Where a shard's window stops.
#[derive(Debug, Clone, Copy)]
enum WindowEnd {
    /// Drain everything (single-shard completion run).
    Unbounded,
    /// Deliver events with `at <= end` (clipped `run_until` final window).
    Inclusive(SimTime),
    /// Deliver events with `at < end` (interior windows, strict horizons).
    Exclusive(SimTime),
}

/// What bounds the whole run, mirroring the serial `run_*` family.
#[derive(Debug, Clone, Copy)]
enum Limit {
    Completion,
    Until(SimTime),
    StrictlyBefore(SimTime),
}

/// One delivery as logged for the barrier merge: its instant, its queue
/// key (true or provisional), and how many sequence numbers its outbox
/// consumed.
#[derive(Debug, Clone, Copy)]
struct DeliveryRec {
    at: SimTime,
    key: u64,
    emits: u32,
}

/// A cross-shard envelope parked until the next barrier.
type Handoff<M> = (SimTime, u64, Envelope<M>);

/// Everything one shard needs to run a window on its own thread.
struct ShardState<M, N> {
    id: u32,
    /// This shard's nodes, in ascending global id order.
    nodes: Vec<N>,
    shard_of: Arc<Vec<u32>>,
    local_of: Arc<Vec<u32>>,
    fabric: Arc<dyn Fabric>,
    faults: Option<Arc<FaultSchedule>>,
    loss: Option<LossModel>,
    queue: EventQueue<M>,
    /// Channel clocks for links *originating* in this shard. Every send on
    /// an ordered link is performed by its `from` node, which lives in
    /// exactly one shard, so per-link clocks and send counters partition
    /// cleanly — the jitter key stream is identical to the serial engine's.
    link_clock: LinkClocks,
    stats: TrafficStats,
    scratch: Vec<Outgoing<M>>,
    scratch_cap: usize,
    scratch_grows: u64,
    /// Window-local delivery log, in pop order (sorted by `(at, key)`).
    log: Vec<DeliveryRec>,
    /// Window-local fault drops with their queue keys, in pop order.
    drops_log: Vec<(SimTime, u64, DropRecord)>,
    /// Per-destination-shard handoff buffers, exchanged at the barrier.
    outbound: Vec<Vec<Handoff<M>>>,
    /// Window-local provisional emission counter (resets each barrier).
    prov_next: u64,
    now: SimTime,
    delivered: u64,
    windows_active: u64,
    handoffs: u64,
    /// Fabric lookahead, mirrored here so the grown-window self-clamp can
    /// compute `first cross-shard emission + L` without the engine.
    lookahead: SimDuration,
    /// The end bound of the window currently running. `enqueue_outgoing`
    /// tightens it when the self-clamp arms and an envelope parks, so
    /// `run_window` re-reads it every iteration.
    window_end: WindowEnd,
    /// Armed for grown windows only: the first parked cross-shard envelope
    /// pulls `window_end` down to its emission time + lookahead.
    clamp_on_park: bool,
    /// Fan-out allocation units harvested from delivery contexts (see
    /// [`Context::note_fanout_allocs`]).
    fanout_allocs: u64,
}

impl<M: Message, N: Node<M>> ShardState<M, N> {
    /// Run this shard up to `end`, delivering at most `cap` non-dropped
    /// messages. Returns the number delivered. When `clamp` is set (grown
    /// windows), the first parked cross-shard envelope tightens the end to
    /// its emission time + lookahead, so the bound is re-read every
    /// iteration.
    fn run_window(&mut self, end: WindowEnd, clamp: bool, cap: u64) -> u64 {
        self.window_end = end;
        self.clamp_on_park = clamp;
        let mut count = 0u64;
        let mut popped_any = false;
        while count < cap {
            let Some((at, key)) = self.queue.peek_key() else {
                break;
            };
            let due = match self.window_end {
                WindowEnd::Unbounded => true,
                WindowEnd::Inclusive(h) => at <= h,
                WindowEnd::Exclusive(h) => at < h,
            };
            if !due {
                break;
            }
            let (_, env) = self.queue.pop().expect("peeked entry must pop");
            popped_any = true;
            count += self.deliver(at, key, env);
        }
        if popped_any {
            self.windows_active += 1;
        }
        count
    }

    /// Deliver one popped event — the shard-side mirror of the serial
    /// engine's delivery path (fault verdict first, then the callback with
    /// the reused scratch outbox). Returns 1 for a delivery, 0 for a drop.
    fn deliver(&mut self, at: SimTime, key: u64, env: Envelope<M>) -> u64 {
        debug_assert!(at >= self.now, "time must be monotone per shard");
        self.now = at;
        // Mirror of the serial engine's drop-cause precedence: loss wins
        // over a fault at the destination (the message never arrived),
        // which wins over corruption (the message arrived, damaged).
        let cause = if env.fate == LinkFate::Lost {
            Some(DropCause::Loss)
        } else if let Some((window, _)) = self
            .faults
            .as_ref()
            .and_then(|f| f.verdict(env.from, env.to, at))
        {
            Some(DropCause::Fault(window))
        } else if env.fate == LinkFate::Corrupted {
            Some(DropCause::Corruption)
        } else {
            None
        };
        if let Some(cause) = cause {
            self.drops_log.push((
                at,
                key,
                DropRecord {
                    at,
                    from: env.from,
                    to: env.to,
                    kind: env.msg.kind(),
                    class: env.msg.traffic_class(),
                    cause,
                },
            ));
            return 0;
        }
        self.delivered += 1;
        self.stats.deliveries += 1;
        let to = env.to;
        let local = self.local_of[to.index()] as usize;
        let mut ctx = Context::with_outbox(at, to, std::mem::take(&mut self.scratch));
        self.nodes[local].on_message(env, &mut ctx);
        self.fanout_allocs += ctx.fanout_allocs();
        let mut out = ctx.into_outbox();
        if out.capacity() > self.scratch_cap {
            self.scratch_cap = out.capacity();
            self.scratch_grows += 1;
        }
        self.log.push(DeliveryRec {
            at,
            key,
            emits: out.len() as u32,
        });
        self.enqueue_outgoing(to, at, &mut out);
        debug_assert!(out.is_empty());
        self.scratch = out;
        1
    }

    /// Drain a delivery's outbox: every outgoing consumes one provisional
    /// key (exactly as each consumes one true sequence number serially).
    /// Sends sample the fabric keyed off the link-local send index and are
    /// FIFO-clamped by this shard's channel clocks; cross-shard envelopes
    /// park in the handoff buffer for the barrier.
    fn enqueue_outgoing(&mut self, origin: NodeId, sent_at: SimTime, out: &mut Vec<Outgoing<M>>) {
        for o in out.drain(..) {
            debug_assert!(
                self.prov_next < PROV_COUNTER_MASK,
                "window emission overflow"
            );
            let pkey = PROV_BIT | ((self.id as u64) << PROV_SHARD_SHIFT) | self.prov_next;
            self.prov_next += 1;
            match o {
                Outgoing::Send { to, msg } => {
                    let fabric = &*self.fabric;
                    let loss = self.loss;
                    let mut hops = 0;
                    let mut fate = LinkFate::Intact;
                    let at = self.link_clock.advance_send(origin, to, |link_seq| {
                        let cost = fabric.link(origin, to, sent_at, link_seq);
                        hops = cost.hops;
                        // Same send-time sampling as the serial engine: the
                        // link send index is shard-local-identical, so the
                        // fate stream is byte-identical across backends.
                        if let (Some(m), false) = (&loss, origin == to) {
                            fate = m.fate(origin, to, link_seq);
                        }
                        sent_at + cost.latency
                    });
                    self.stats
                        .record(msg.traffic_class(), msg.kind(), hops, msg.wire_bytes());
                    let env = Envelope {
                        from: origin,
                        to,
                        sent_at,
                        fate,
                        msg,
                    };
                    let dest = self.shard_of[to.index()];
                    if dest == self.id {
                        self.queue.push(at, pkey, env);
                    } else {
                        if self.clamp_on_park {
                            // First cross-shard emission of a grown window:
                            // everything parked from here on is emitted at
                            // ≥ sent_at, so it arrives at ≥ sent_at + L —
                            // clamping the window there keeps the delivery
                            // set an exact prefix of the serial schedule.
                            self.clamp_on_park = false;
                            let bound = sent_at + self.lookahead;
                            self.window_end = match self.window_end {
                                WindowEnd::Unbounded => WindowEnd::Exclusive(bound),
                                WindowEnd::Inclusive(h) => {
                                    if bound <= h {
                                        WindowEnd::Exclusive(bound)
                                    } else {
                                        WindowEnd::Inclusive(h)
                                    }
                                }
                                WindowEnd::Exclusive(h) => WindowEnd::Exclusive(h.min(bound)),
                            };
                        }
                        self.outbound[dest as usize].push((at, pkey, env));
                        self.handoffs += 1;
                    }
                }
                Outgoing::Timer { delay, msg } => {
                    self.queue.push(
                        sent_at + delay,
                        pkey,
                        Envelope {
                            from: origin,
                            to: origin,
                            sent_at,
                            fate: LinkFate::Intact,
                            msg,
                        },
                    );
                }
            }
        }
    }
}

/// One window's worth of work shipped to a worker thread.
struct Job<M, N> {
    idx: usize,
    state: ShardState<M, N>,
    end: WindowEnd,
    clamp: bool,
    cap: u64,
}

/// The execution strategy for one public run call: run shards inline on
/// the coordinator, or ship them to a pool of scoped worker threads.
/// Shard states ping-pong by ownership; results re-slot by index, so the
/// barrier sees shards in deterministic order however threads finish.
enum Exec<M, N> {
    Inline,
    Pool {
        jobs: Vec<mpsc::Sender<Job<M, N>>>,
        results: mpsc::Receiver<(usize, ShardState<M, N>)>,
    },
}

impl<M: Message, N: Node<M>> Exec<M, N> {
    fn run_all(
        &mut self,
        shards: &mut [Option<ShardState<M, N>>],
        end: WindowEnd,
        clamp: bool,
        cap: u64,
    ) {
        match self {
            Exec::Inline => {
                for slot in shards.iter_mut() {
                    let state = slot.as_mut().expect("shard present");
                    state.run_window(end, clamp, cap);
                }
            }
            Exec::Pool { jobs, results } => {
                let k = shards.len();
                for (idx, slot) in shards.iter_mut().enumerate() {
                    let state = slot.take().expect("shard present");
                    jobs[idx % jobs.len()]
                        .send(Job {
                            idx,
                            state,
                            end,
                            clamp,
                            cap,
                        })
                        .expect("worker thread died");
                }
                for _ in 0..k {
                    let (idx, state) = results.recv().expect("worker thread died");
                    shards[idx] = Some(state);
                }
            }
        }
    }
}

/// Per-shard counters inside [`ParallelPerf`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardPerf {
    /// Nodes assigned to this shard.
    pub nodes: usize,
    /// Messages this shard delivered (including timers).
    pub deliveries: u64,
    /// High-water mark of this shard's future event list.
    pub peak_queue_depth: usize,
    /// Storage growth events in this shard's queue/clocks/scratch.
    pub alloc_events: u64,
    /// Windows in which this shard popped at least one event.
    pub windows_active: u64,
}

/// Parallel-run counters: how the windowed execution actually behaved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelPerf {
    /// Synchronisation windows executed (barriers = windows).
    pub windows: u64,
    /// Envelopes exchanged between shards at barriers.
    pub handoff_envelopes: u64,
    /// The lookahead bound in force (the fabric's latency floor).
    pub lookahead: SimDuration,
    /// Per-shard occupancy/depth counters, indexed by shard id.
    pub shards: Vec<ShardPerf>,
}

/// A sharded, windowed, conservative-parallel mirror of [`Engine`] whose
/// merged run is byte-identical to the serial engine (see module docs).
pub struct ParallelEngine<M: Message, N: Node<M>> {
    /// `Option` so shard states can be shipped to worker threads by value.
    shards: Vec<Option<ShardState<M, N>>>,
    shard_of: Arc<Vec<u32>>,
    local_of: Arc<Vec<u32>>,
    node_count: usize,
    lookahead: SimDuration,
    now: SimTime,
    /// Global true-sequence counter: advanced by external injections and
    /// by the barrier renumbering, exactly tracking the serial counter.
    seq: u64,
    external_next: u64,
    external_end: u64,
    config: EngineConfig,
    delivered: u64,
    drops: Vec<DropRecord>,
    faults: Option<Arc<FaultSchedule>>,
    loss: Option<LossModel>,
    /// Shard stats merged at the end of every public run call.
    merged_stats: TrafficStats,
    windows: u64,
    /// Adaptive window growth factor `G` (see module docs): doubled after
    /// barriers that routed zero cross-shard envelopes (capped at
    /// [`MAX_WINDOW_GROWTH`]), reset to 1 by any routed envelope.
    growth: u64,
    /// Barrier scratch: per-shard provisional→true maps, merge cursors,
    /// and the drop-merge buffer — reused so barriers stop allocating.
    prov_maps: Vec<Vec<u64>>,
    heads: Vec<usize>,
    drop_scratch: Vec<(SimTime, u64, DropRecord)>,
}

impl<M: Message + Send, N: Node<M> + Send> ParallelEngine<M, N> {
    /// Create a parallel engine over `nodes`, split per `partition`.
    ///
    /// The lookahead bound is taken from
    /// [`Fabric::latency_floor`]; a zero floor (no usable lookahead) or a
    /// one-shard partition collapses to a single shard, which still runs
    /// the windowed path but with whole-horizon windows and no handoffs.
    pub fn new(nodes: Vec<N>, fabric: Arc<dyn Fabric>, partition: &Partition) -> Self {
        assert_eq!(
            nodes.len(),
            partition.node_count(),
            "partition must cover exactly the node set"
        );
        let lookahead = fabric.latency_floor();
        let shard_count = if lookahead == SimDuration::ZERO {
            1
        } else {
            partition.shards()
        };
        assert!(
            (shard_count as u64) < (1 << (63 - PROV_SHARD_SHIFT)),
            "shard count exceeds provisional key space"
        );
        let n = nodes.len();
        let mut shard_of = vec![0u32; n];
        if shard_count > 1 {
            for (i, s) in shard_of.iter_mut().enumerate() {
                *s = partition.shard_of(i);
            }
        }
        let mut local_of = vec![0u32; n];
        let mut counts = vec![0u32; shard_count];
        for (i, l) in local_of.iter_mut().enumerate() {
            let s = shard_of[i] as usize;
            *l = counts[s];
            counts[s] += 1;
        }
        let shard_of = Arc::new(shard_of);
        let local_of = Arc::new(local_of);
        let mut shard_nodes: Vec<Vec<N>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for (i, node) in nodes.into_iter().enumerate() {
            shard_nodes[shard_of[i] as usize].push(node);
        }
        let shards = shard_nodes
            .into_iter()
            .enumerate()
            .map(|(id, nodes)| {
                Some(ShardState {
                    id: id as u32,
                    nodes,
                    shard_of: Arc::clone(&shard_of),
                    local_of: Arc::clone(&local_of),
                    fabric: Arc::clone(&fabric),
                    faults: None,
                    loss: None,
                    queue: EventQueue::new(),
                    // A lone shard sees every link and behaves exactly like
                    // the serial engine's table; multi-shard runs use the
                    // sharded map so K dense tables don't multiply memory.
                    link_clock: if shard_count == 1 {
                        LinkClocks::new(n)
                    } else {
                        LinkClocks::sharded()
                    },
                    stats: TrafficStats::new(),
                    scratch: Vec::new(),
                    scratch_cap: 0,
                    scratch_grows: 0,
                    log: Vec::new(),
                    drops_log: Vec::new(),
                    outbound: (0..shard_count).map(|_| Vec::new()).collect(),
                    prov_next: 0,
                    now: SimTime::ZERO,
                    delivered: 0,
                    windows_active: 0,
                    handoffs: 0,
                    lookahead,
                    window_end: WindowEnd::Unbounded,
                    clamp_on_park: false,
                    fanout_allocs: 0,
                })
            })
            .collect();
        ParallelEngine {
            shards,
            shard_of,
            local_of,
            node_count: n,
            lookahead,
            now: SimTime::ZERO,
            seq: 0,
            external_next: 0,
            external_end: 0,
            config: EngineConfig::default(),
            delivered: 0,
            drops: Vec::new(),
            faults: None,
            loss: None,
            merged_stats: TrafficStats::new(),
            windows: 0,
            growth: 1,
            prov_maps: Vec::new(),
            heads: Vec::new(),
            drop_scratch: Vec::new(),
        }
    }

    /// Replace the default configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Current simulation time (the latest delivered instant anywhere).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of shards actually in use.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Immutable access to a node by its global id.
    pub fn node(&self, id: NodeId) -> &N {
        let shard = self.shard_of[id.index()] as usize;
        let local = self.local_of[id.index()] as usize;
        &self.shards[shard].as_ref().expect("shard present").nodes[local]
    }

    /// Mutable access to a node by its global id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        let shard = self.shard_of[id.index()] as usize;
        let local = self.local_of[id.index()] as usize;
        &mut self.shards[shard].as_mut().expect("shard present").nodes[local]
    }

    /// Iterate over all nodes in global id order.
    pub fn nodes(&self) -> impl Iterator<Item = &N> {
        (0..self.node_count).map(move |i| self.node(NodeId(i as u32)))
    }

    /// Traffic statistics, merged across shards at the end of every public
    /// run call (content-keyed, so totals equal the serial engine's).
    pub fn stats(&self) -> &TrafficStats {
        &self.merged_stats
    }

    /// Number of messages delivered so far (including timers).
    pub fn deliveries(&self) -> u64 {
        self.delivered
    }

    /// Messages waiting across all shard queues.
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.as_ref().expect("shard present").queue.len())
            .sum()
    }

    /// Engine-level performance counters. `peak_queue_depth` sums the
    /// per-shard peaks — an upper bound on the global in-flight peak
    /// (shards peak at different instants), reported this way so the
    /// allocation accounting stays exact.
    pub fn perf(&self) -> EnginePerf {
        let mut perf = EnginePerf {
            deliveries: self.delivered,
            ..EnginePerf::default()
        };
        for s in &self.shards {
            let s = s.as_ref().expect("shard present");
            perf.peak_queue_depth += s.queue.peak_len();
            perf.alloc_events +=
                s.queue.alloc_events() + s.link_clock.alloc_events() + s.scratch_grows;
            perf.fanout_allocs += s.fanout_allocs;
        }
        perf
    }

    /// Parallel-execution counters: windows, barrier handoffs, per-shard
    /// depth and occupancy.
    pub fn parallel_perf(&self) -> ParallelPerf {
        ParallelPerf {
            windows: self.windows,
            handoff_envelopes: self
                .shards
                .iter()
                .map(|s| s.as_ref().expect("shard present").handoffs)
                .sum(),
            lookahead: self.lookahead,
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let s = s.as_ref().expect("shard present");
                    ShardPerf {
                        nodes: s.nodes.len(),
                        deliveries: s.delivered,
                        peak_queue_depth: s.queue.peak_len(),
                        alloc_events: s.queue.alloc_events()
                            + s.link_clock.alloc_events()
                            + s.scratch_grows,
                        windows_active: s.windows_active,
                    }
                })
                .collect(),
        }
    }

    /// Install a fault schedule on every shard. Like the serial engine, an
    /// empty schedule is not installed at all, keeping the zero-fault path
    /// identical to a faultless run. Fault verdicts are pure functions of
    /// `(from, to, at)`, so shard-local evaluation equals serial order.
    pub fn set_faults(&mut self, schedule: Arc<FaultSchedule>) {
        let installed = (!schedule.is_empty()).then_some(schedule);
        for s in &mut self.shards {
            s.as_mut().expect("shard present").faults = installed.clone();
        }
        self.faults = installed;
    }

    /// The fault schedule in effect, if a non-empty one was installed.
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.faults.as_deref()
    }

    /// Install a loss model on every shard — see [`Engine::set_loss`]. A
    /// lossless model is not installed, keeping the zero-loss fast path.
    /// Fates are pure functions of `(seed, from, to, link_seq)` and the
    /// link send index is shard-local-identical, so shard-local sampling
    /// equals the serial fate stream.
    pub fn set_loss(&mut self, model: LossModel) {
        let installed = (!model.is_lossless()).then_some(model);
        for s in &mut self.shards {
            s.as_mut().expect("shard present").loss = installed;
        }
        self.loss = installed;
    }

    /// The loss model in effect, if a lossy one was installed.
    pub fn loss(&self) -> Option<&LossModel> {
        self.loss.as_ref()
    }

    /// Every envelope dropped by the fault plan or the loss model, in
    /// serial delivery order (merged and ordered at each barrier).
    pub fn drops(&self) -> &[DropRecord] {
        &self.drops
    }

    /// Inject a message from the outside world, exactly like
    /// [`Engine::schedule_external`]: it draws the next true sequence
    /// number and lands directly in the destination node's shard queue.
    pub fn schedule_external(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.seq;
        self.seq += 1;
        self.push_external(at, seq, to, msg);
    }

    /// Reserve the `count` lowest sequence numbers for lazily injected
    /// externals — see [`Engine::reserve_external_seqs`]; the semantics
    /// and the byte-identity argument carry over unchanged.
    pub fn reserve_external_seqs(&mut self, count: u64) {
        assert!(
            self.seq == 0 && self.external_end == 0,
            "reserve_external_seqs must run before any message is sequenced"
        );
        self.seq = count;
        self.external_next = 0;
        self.external_end = count;
    }

    /// Inject one external message with the next reserved low sequence
    /// number — see [`Engine::schedule_external_reserved`].
    pub fn schedule_external_reserved(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(
            self.external_next < self.external_end,
            "external sequence reservation exhausted"
        );
        assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.external_next;
        self.external_next += 1;
        self.push_external(at, seq, to, msg);
    }

    fn push_external(&mut self, at: SimTime, seq: u64, to: NodeId, msg: M) {
        let shard = self.shard_of[to.index()] as usize;
        self.shards[shard]
            .as_mut()
            .expect("shard present")
            .queue
            .push(
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

    /// Run until every shard queue is empty or a limit is hit.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.with_exec(|eng, exec| eng.run_windows(Limit::Completion, exec))
    }

    /// Run until the clock passes `horizon` — the windowed counterpart of
    /// [`Engine::run_until`], with the final window clipped inclusively at
    /// the horizon (emissions from inside it land strictly later, so the
    /// clip is safe).
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.with_exec(|eng, exec| eng.run_windows(Limit::Until(horizon), exec))
    }

    /// Run until the next event is due at or after `horizon` — the
    /// windowed counterpart of [`Engine::run_strictly_before`].
    pub fn run_strictly_before(&mut self, horizon: SimTime) -> RunOutcome {
        self.with_exec(|eng, exec| eng.run_windows(Limit::StrictlyBefore(horizon), exec))
    }

    /// Run a whole reserved timeline to completion — the counterpart of
    /// [`Engine::run_timeline`]. One thread scope spans the entire
    /// timeline, so workers stay alive across every injection instead of
    /// being respawned per drain.
    pub fn run_timeline(
        &mut self,
        timeline: impl IntoIterator<Item = (SimTime, NodeId, M)>,
    ) -> RunOutcome {
        self.with_exec(move |eng, exec| {
            for (at, to, msg) in timeline {
                let _ = eng.run_windows(Limit::StrictlyBefore(at), exec);
                eng.schedule_external_reserved(at, to, msg);
            }
            eng.run_windows(Limit::Completion, exec)
        })
    }

    /// Consume the engine and return its parts (nodes in global id order,
    /// merged stats, final clock) — the counterpart of
    /// [`Engine::into_parts`].
    pub fn into_parts(mut self) -> (Vec<N>, TrafficStats, SimTime) {
        self.refresh_merged_stats();
        let now = self.now;
        let stats = std::mem::take(&mut self.merged_stats);
        let shard_of = Arc::clone(&self.shard_of);
        let mut per_shard: Vec<std::vec::IntoIter<N>> = self
            .shards
            .into_iter()
            .map(|s| s.expect("shard present").nodes.into_iter())
            .collect();
        let nodes = (0..self.node_count)
            .map(|i| {
                per_shard[shard_of[i] as usize]
                    .next()
                    .expect("every global id maps to one shard slot")
            })
            .collect();
        (nodes, stats, now)
    }

    /// Open the execution context once (inline, or a scoped thread pool
    /// honouring [`with_thread_allowance`]) and run `f` inside it.
    fn with_exec<R>(&mut self, f: impl FnOnce(&mut Self, &mut Exec<M, N>) -> R) -> R {
        let k = self.shards.len();
        let allowance = thread_allowance();
        let threads = if allowance == 0 { k } else { k.min(allowance) };
        if k == 1 || threads <= 1 {
            return f(self, &mut Exec::Inline);
        }
        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel();
            let mut jobs = Vec::with_capacity(threads);
            for _ in 0..threads {
                let (tx, rx) = mpsc::channel::<Job<M, N>>();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    while let Ok(mut job) = rx.recv() {
                        job.state.run_window(job.end, job.clamp, job.cap);
                        if res_tx.send((job.idx, job.state)).is_err() {
                            break;
                        }
                    }
                });
                jobs.push(tx);
            }
            drop(res_tx);
            let mut exec = Exec::Pool {
                jobs,
                results: res_rx,
            };
            let r = f(self, &mut exec);
            // Dropping the job senders ends the worker loops; the scope
            // joins them before returning.
            drop(exec);
            r
        })
    }

    /// The windowed run loop: find the earliest pending event, clip the
    /// window against the limit, run every shard over it, then merge at
    /// the barrier. See the module docs for the safety argument.
    fn run_windows(&mut self, limit: Limit, exec: &mut Exec<M, N>) -> RunOutcome {
        let budget = self.config.max_deliveries;
        let start = self.delivered;
        let k = self.shards.len();
        // Per-shard earliest pending instants, rescanned each window (used
        // by the adaptive single-active-shard check).
        let mut earliest: Vec<Option<SimTime>> = vec![None; k];
        loop {
            let mut t_next: Option<SimTime> = None;
            for (s, slot) in self.shards.iter().enumerate() {
                let head = slot
                    .as_ref()
                    .expect("shard present")
                    .queue
                    .peek_key()
                    .map(|(at, _)| at);
                earliest[s] = head;
                if let Some(at) = head {
                    t_next = Some(t_next.map_or(at, |t| t.min(at)));
                }
            }
            let Some(t_next) = t_next else {
                self.refresh_merged_stats();
                return RunOutcome::Drained;
            };
            match limit {
                Limit::Until(h) if t_next > h => {
                    self.refresh_merged_stats();
                    return RunOutcome::ReachedHorizon;
                }
                Limit::StrictlyBefore(h) if t_next >= h => {
                    self.refresh_merged_stats();
                    return RunOutcome::ReachedHorizon;
                }
                _ => {}
            }
            let mut clamp = false;
            let end = if k == 1 {
                // Degenerate single shard: no cross-shard traffic exists,
                // so one window may span the whole limit.
                match limit {
                    Limit::Completion => WindowEnd::Unbounded,
                    Limit::Until(h) => WindowEnd::Inclusive(h),
                    Limit::StrictlyBefore(h) => WindowEnd::Exclusive(h),
                }
            } else {
                // Emissions at t ≥ t_next arrive cross-shard at ≥ t_next +
                // lookahead, so any window bounded above by that is safe
                // unconditionally. After quiet barriers the window may grow
                // to `G` lookahead spans — but only when exactly one shard
                // has anything pending below the grown end (otherwise two
                // shards could deliver either side of an in-flight parked
                // envelope and the merged order would diverge from the
                // serial schedule). The lone active shard self-clamps at
                // its first cross-shard emission (see `enqueue_outgoing`),
                // which keeps every window an exact serial prefix.
                let mut w = t_next + self.lookahead;
                if self.growth > 1 {
                    let grown = t_next + self.lookahead.times(self.growth);
                    let active = earliest
                        .iter()
                        .filter(|e| e.is_some_and(|at| at < grown))
                        .count();
                    if active == 1 {
                        w = grown;
                        clamp = true;
                    }
                }
                // When w overshoots the horizon, clip to the horizon with
                // the limit's own inclusivity.
                match limit {
                    Limit::Completion => WindowEnd::Exclusive(w),
                    Limit::Until(h) => {
                        if w > h {
                            WindowEnd::Inclusive(h)
                        } else {
                            WindowEnd::Exclusive(w)
                        }
                    }
                    Limit::StrictlyBefore(h) => {
                        if w >= h {
                            WindowEnd::Exclusive(h)
                        } else {
                            WindowEnd::Exclusive(w)
                        }
                    }
                }
            };
            // Remaining global budget, applied per shard: one window may
            // overshoot by up to (shards - 1) × remaining before the
            // barrier notices, which mirrors the serial cap's granularity
            // of "stop after the delivery that crossed the line".
            let cap = budget.saturating_sub(self.delivered - start).max(1);
            exec.run_all(&mut self.shards, end, clamp, cap);
            self.windows += 1;
            let routed = self.barrier();
            self.growth = if routed == 0 {
                (self.growth * 2).min(MAX_WINDOW_GROWTH)
            } else {
                1
            };
            if self.delivered - start >= budget {
                self.refresh_merged_stats();
                return RunOutcome::HitDeliveryLimit;
            }
        }
    }

    /// The window barrier: reconstruct the serial sequence assignment by
    /// k-way merging the shard delivery logs, then relabel queues, route
    /// cross-shard handoffs, and merge drop records (module docs, "Exact
    /// sequence reconstruction"). Returns the number of cross-shard
    /// envelopes routed, which drives the adaptive window growth factor.
    fn barrier(&mut self) -> u64 {
        let k = self.shards.len();
        let mut maps = std::mem::take(&mut self.prov_maps);
        maps.resize_with(k, Vec::new);
        for m in &mut maps {
            m.clear();
        }
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        heads.resize(k, 0);
        let mut seq = self.seq;
        loop {
            // Pick the globally smallest unmerged delivery by (at,
            // resolved key). Every head is resolvable: a provisional head's
            // parent delivery sits earlier in the *same* shard's log and
            // was therefore merged (and mapped) already.
            let mut best: Option<(SimTime, u64, usize)> = None;
            for (s, slot) in self.shards.iter().enumerate() {
                let log = &slot.as_ref().expect("shard present").log;
                let Some(rec) = log.get(heads[s]) else {
                    continue;
                };
                let key = resolve_key(rec.key, &maps);
                if best.is_none_or(|(bat, bkey, _)| (rec.at, key) < (bat, bkey)) {
                    best = Some((rec.at, key, s));
                }
            }
            let Some((_, _, s)) = best else {
                break;
            };
            let rec = self.shards[s].as_ref().expect("shard present").log[heads[s]];
            heads[s] += 1;
            // This delivery's emissions get the next true sequence
            // numbers, in emission order — exactly the serial assignment.
            for _ in 0..rec.emits {
                maps[s].push(seq);
                seq += 1;
            }
        }
        self.seq = seq;
        let mut dscratch = std::mem::take(&mut self.drop_scratch);
        dscratch.clear();
        for slot in &mut self.shards {
            let state = slot.as_mut().expect("shard present");
            // Relabel queued events: provisional→true is order-isomorphic,
            // so the heap arrangement stays valid; runs split at the gaps
            // the cross-shard envelopes below may fill.
            state.queue.remap_seqs(|q| resolve_key(q, &maps));
            state.log.clear();
            state.prov_next = 0;
            for (at, key, rec) in state.drops_log.drain(..) {
                dscratch.push((at, resolve_key(key, &maps), rec));
            }
        }
        // Route the parked cross-shard envelopes with their resolved keys.
        // Buffers are taken and restored so their capacity is reused.
        let mut routed = 0u64;
        for src in 0..k {
            for dest in 0..k {
                if dest == src {
                    continue;
                }
                let mut buf = std::mem::take(
                    &mut self.shards[src].as_mut().expect("shard present").outbound[dest],
                );
                if !buf.is_empty() {
                    routed += buf.len() as u64;
                    let dq = self.shards[dest].as_mut().expect("shard present");
                    for (at, key, env) in buf.drain(..) {
                        dq.queue.push(at, resolve_key(key, &maps), env);
                    }
                }
                self.shards[src].as_mut().expect("shard present").outbound[dest] = buf;
            }
        }
        // Drops merge into the exact serial record order: the serial drop
        // log is a subsequence of the (at, seq)-sorted pop sequence.
        dscratch.sort_by_key(|&(at, key, _)| (at, key));
        self.drops.extend(dscratch.drain(..).map(|(_, _, rec)| rec));
        self.drop_scratch = dscratch;
        let mut now = self.now;
        let mut delivered = 0;
        for slot in &self.shards {
            let state = slot.as_ref().expect("shard present");
            now = now.max(state.now);
            delivered += state.delivered;
        }
        self.now = now;
        self.delivered = delivered;
        self.prov_maps = maps;
        self.heads = heads;
        routed
    }

    /// Re-merge shard stats into the cached [`stats`](Self::stats) view.
    fn refresh_merged_stats(&mut self) {
        let mut stats = TrafficStats::new();
        for s in &self.shards {
            stats.merge(&s.as_ref().expect("shard present").stats);
        }
        self.merged_stats = stats;
    }
}

/// A serial-or-parallel engine behind one API, so deployment code can pick
/// the backend from configuration (`engine_workers = 0` → serial) without
/// generics leaking upward. The serial variant additionally supports
/// arena recycling and phase profiling; the parallel variant additionally
/// reports [`ParallelPerf`].
pub enum AnyEngine<M: Message, N: Node<M>> {
    /// The classic single-threaded [`Engine`].
    Serial(Engine<M, N>),
    /// The sharded windowed [`ParallelEngine`].
    Parallel(ParallelEngine<M, N>),
}

impl<M: Message + Send, N: Node<M> + Send> AnyEngine<M, N> {
    /// Build the serial backend.
    pub fn serial(nodes: Vec<N>, fabric: Arc<dyn Fabric>) -> Self {
        AnyEngine::Serial(Engine::new(nodes, fabric))
    }

    /// Build the serial backend reusing a recycled storage arena.
    pub fn serial_in(nodes: Vec<N>, fabric: Arc<dyn Fabric>, arena: EngineArena<M>) -> Self {
        AnyEngine::Serial(Engine::new_in(nodes, fabric, arena))
    }

    /// Build the parallel backend over `partition`.
    pub fn parallel(nodes: Vec<N>, fabric: Arc<dyn Fabric>, partition: &Partition) -> Self {
        AnyEngine::Parallel(ParallelEngine::new(nodes, fabric, partition))
    }

    /// Replace the default configuration.
    pub fn with_config(self, config: EngineConfig) -> Self {
        match self {
            AnyEngine::Serial(e) => AnyEngine::Serial(e.with_config(config)),
            AnyEngine::Parallel(e) => AnyEngine::Parallel(e.with_config(config)),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        match self {
            AnyEngine::Serial(e) => e.now(),
            AnyEngine::Parallel(e) => e.now(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        match self {
            AnyEngine::Serial(e) => e.node_count(),
            AnyEngine::Parallel(e) => e.node_count(),
        }
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        match self {
            AnyEngine::Serial(e) => e.node(id),
            AnyEngine::Parallel(e) => e.node(id),
        }
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        match self {
            AnyEngine::Serial(e) => e.node_mut(id),
            AnyEngine::Parallel(e) => e.node_mut(id),
        }
    }

    /// Iterate over all nodes in global id order.
    pub fn nodes(&self) -> Box<dyn Iterator<Item = &N> + '_> {
        match self {
            AnyEngine::Serial(e) => Box::new(e.nodes()),
            AnyEngine::Parallel(e) => Box::new(e.nodes()),
        }
    }

    /// Traffic statistics accumulated so far.
    pub fn stats(&self) -> &TrafficStats {
        match self {
            AnyEngine::Serial(e) => e.stats(),
            AnyEngine::Parallel(e) => e.stats(),
        }
    }

    /// Number of messages delivered so far (including timers).
    pub fn deliveries(&self) -> u64 {
        match self {
            AnyEngine::Serial(e) => e.deliveries(),
            AnyEngine::Parallel(e) => e.deliveries(),
        }
    }

    /// Messages still waiting in the future event list(s).
    pub fn pending(&self) -> usize {
        match self {
            AnyEngine::Serial(e) => e.pending(),
            AnyEngine::Parallel(e) => e.pending(),
        }
    }

    /// Hot-path performance counters.
    pub fn perf(&self) -> EnginePerf {
        match self {
            AnyEngine::Serial(e) => e.perf(),
            AnyEngine::Parallel(e) => e.perf(),
        }
    }

    /// Parallel-execution counters, if the backend is parallel.
    pub fn parallel_perf(&self) -> Option<ParallelPerf> {
        match self {
            AnyEngine::Serial(_) => None,
            AnyEngine::Parallel(e) => Some(e.parallel_perf()),
        }
    }

    /// Start the per-phase wall-clock breakdown (serial backend only; the
    /// parallel backend ignores the request).
    pub fn enable_phase_profile(&mut self) {
        if let AnyEngine::Serial(e) = self {
            e.enable_phase_profile();
        }
    }

    /// The accumulated phase breakdown, if profiling ran on the serial
    /// backend.
    pub fn phase_breakdown(&self) -> Option<PhaseBreakdown> {
        match self {
            AnyEngine::Serial(e) => e.phase_breakdown(),
            AnyEngine::Parallel(_) => None,
        }
    }

    /// Install a fault schedule (empty schedules are not installed).
    pub fn set_faults(&mut self, schedule: Arc<FaultSchedule>) {
        match self {
            AnyEngine::Serial(e) => e.set_faults(schedule),
            AnyEngine::Parallel(e) => e.set_faults(schedule),
        }
    }

    /// The fault schedule in effect, if a non-empty one was installed.
    pub fn faults(&self) -> Option<&FaultSchedule> {
        match self {
            AnyEngine::Serial(e) => e.faults(),
            AnyEngine::Parallel(e) => e.faults(),
        }
    }

    /// Install a loss model (lossless models are not installed).
    pub fn set_loss(&mut self, model: LossModel) {
        match self {
            AnyEngine::Serial(e) => e.set_loss(model),
            AnyEngine::Parallel(e) => e.set_loss(model),
        }
    }

    /// The loss model in effect, if a lossy one was installed.
    pub fn loss(&self) -> Option<&LossModel> {
        match self {
            AnyEngine::Serial(e) => e.loss(),
            AnyEngine::Parallel(e) => e.loss(),
        }
    }

    /// Every envelope the fault plan or loss model dropped so far, in
    /// delivery order.
    pub fn drops(&self) -> &[DropRecord] {
        match self {
            AnyEngine::Serial(e) => e.drops(),
            AnyEngine::Parallel(e) => e.drops(),
        }
    }

    /// Inject a message from the outside world.
    pub fn schedule_external(&mut self, at: SimTime, to: NodeId, msg: M) {
        match self {
            AnyEngine::Serial(e) => e.schedule_external(at, to, msg),
            AnyEngine::Parallel(e) => e.schedule_external(at, to, msg),
        }
    }

    /// Reserve the `count` lowest sequence numbers for lazy injection.
    pub fn reserve_external_seqs(&mut self, count: u64) {
        match self {
            AnyEngine::Serial(e) => e.reserve_external_seqs(count),
            AnyEngine::Parallel(e) => e.reserve_external_seqs(count),
        }
    }

    /// Inject one external message with the next reserved sequence number.
    pub fn schedule_external_reserved(&mut self, at: SimTime, to: NodeId, msg: M) {
        match self {
            AnyEngine::Serial(e) => e.schedule_external_reserved(at, to, msg),
            AnyEngine::Parallel(e) => e.schedule_external_reserved(at, to, msg),
        }
    }

    /// Run until the future event list drains or a limit is hit.
    pub fn run_to_completion(&mut self) -> RunOutcome {
        match self {
            AnyEngine::Serial(e) => e.run_to_completion(),
            AnyEngine::Parallel(e) => e.run_to_completion(),
        }
    }

    /// Run until the clock passes `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        match self {
            AnyEngine::Serial(e) => e.run_until(horizon),
            AnyEngine::Parallel(e) => e.run_until(horizon),
        }
    }

    /// Run until the next event is due at or after `horizon`.
    pub fn run_strictly_before(&mut self, horizon: SimTime) -> RunOutcome {
        match self {
            AnyEngine::Serial(e) => e.run_strictly_before(horizon),
            AnyEngine::Parallel(e) => e.run_strictly_before(horizon),
        }
    }

    /// Run a whole reserved timeline to completion.
    pub fn run_timeline(
        &mut self,
        timeline: impl IntoIterator<Item = (SimTime, NodeId, M)>,
    ) -> RunOutcome {
        match self {
            AnyEngine::Serial(e) => e.run_timeline(timeline),
            AnyEngine::Parallel(e) => e.run_timeline(timeline),
        }
    }

    /// Consume the engine and return its parts.
    pub fn into_parts(self) -> (Vec<N>, TrafficStats, SimTime) {
        match self {
            AnyEngine::Serial(e) => e.into_parts(),
            AnyEngine::Parallel(e) => e.into_parts(),
        }
    }

    /// Consume the engine, returning its parts plus the reusable storage
    /// arena when the backend can recycle one (serial only — parallel
    /// storage is sharded and rebuilt per run).
    pub fn recycle(self) -> (Vec<N>, TrafficStats, SimTime, Option<EngineArena<M>>) {
        match self {
            AnyEngine::Serial(e) => {
                let (nodes, stats, now, arena) = e.recycle();
                (nodes, stats, now, Some(arena))
            }
            AnyEngine::Parallel(e) => {
                let (nodes, stats, now) = e.into_parts();
                (nodes, stats, now, None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{JitteredFabric, LinkModel, UniformFabric};
    use crate::stats::TrafficClass;
    use crate::time::SimDuration;

    /// Ring chatter: every node forwards a hop-counted token to its right
    /// neighbour until the TTL dies, plus a periodic local timer — enough
    /// cross-node traffic to exercise handoffs in every multi-shard run.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Tok {
        Pass { ttl: u32 },
        Tick,
    }

    impl Message for Tok {
        fn traffic_class(&self) -> TrafficClass {
            match self {
                Tok::Pass { .. } => TrafficClass::EventRouting,
                Tok::Tick => TrafficClass::Timer,
            }
        }
        fn kind(&self) -> &'static str {
            match self {
                Tok::Pass { .. } => "pass",
                Tok::Tick => "tick",
            }
        }
    }

    struct RingNode {
        n: u32,
        seen: Vec<(SimTime, NodeId, Tok)>,
        ticks: u32,
    }

    impl Node<Tok> for RingNode {
        fn on_message(&mut self, env: Envelope<Tok>, ctx: &mut Context<Tok>) {
            self.seen.push((ctx.now(), env.from, env.msg.clone()));
            match env.msg {
                Tok::Pass { ttl } if ttl > 0 => {
                    let next = NodeId((ctx.self_id().0 + 1) % self.n);
                    ctx.send(next, Tok::Pass { ttl: ttl - 1 });
                }
                Tok::Pass { .. } => {}
                Tok::Tick => {
                    self.ticks += 1;
                    if self.ticks < 3 {
                        ctx.schedule(SimDuration::from_millis(7), Tok::Tick);
                    }
                    let next = NodeId((ctx.self_id().0 + 1) % self.n);
                    ctx.send(next, Tok::Pass { ttl: 5 });
                }
            }
        }
    }

    fn ring(n: u32) -> Vec<RingNode> {
        (0..n)
            .map(|_| RingNode {
                n,
                seen: Vec::new(),
                ticks: 0,
            })
            .collect()
    }

    type Fingerprint = (Vec<Vec<(SimTime, NodeId, Tok)>>, u64, String, SimTime);

    fn serial_fingerprint(n: u32, fabric: Arc<dyn Fabric>) -> Fingerprint {
        let mut eng = Engine::new(ring(n), fabric);
        for i in 0..n {
            eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
        }
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        let deliveries = eng.deliveries();
        let stats = format!("{:?}", eng.stats());
        let (nodes, _, now) = eng.into_parts();
        (
            nodes.into_iter().map(|nd| nd.seen).collect(),
            deliveries,
            stats,
            now,
        )
    }

    fn parallel_fingerprint(n: u32, fabric: Arc<dyn Fabric>, shards: usize) -> Fingerprint {
        let part = Partition::contiguous(n as usize, shards);
        let mut eng = ParallelEngine::new(ring(n), fabric, &part);
        for i in 0..n {
            eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
        }
        assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
        let deliveries = eng.deliveries();
        let stats = format!("{:?}", eng.stats());
        let (nodes, _, now) = eng.into_parts();
        (
            nodes.into_iter().map(|nd| nd.seen).collect(),
            deliveries,
            stats,
            now,
        )
    }

    #[test]
    fn degenerate_single_shard_is_byte_identical_to_serial() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let serial = serial_fingerprint(10, fabric.clone());
        let parallel = parallel_fingerprint(10, fabric, 1);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn multi_shard_is_byte_identical_to_serial() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let serial = serial_fingerprint(12, fabric.clone());
        for shards in [2, 3, 4, 8] {
            let parallel = parallel_fingerprint(12, fabric.clone(), shards);
            assert_eq!(serial, parallel, "{shards} shards diverged");
        }
    }

    #[test]
    fn jittered_fabric_stays_byte_identical() {
        for seed in 0..4u64 {
            let model = LinkModel {
                seed,
                jitter: SimDuration::from_millis(9),
                asymmetry: 0.4,
                degraded: Vec::new(),
            };
            let fabric = Arc::new(JitteredFabric::new(
                UniformFabric::new(SimDuration::from_millis(4)),
                model,
            ));
            let serial = serial_fingerprint(9, fabric.clone());
            for shards in [2, 4] {
                let parallel = parallel_fingerprint(9, fabric.clone(), shards);
                assert_eq!(serial, parallel, "seed {seed}, {shards} shards diverged");
            }
        }
    }

    #[test]
    fn zero_floor_fabric_collapses_to_one_shard() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::ZERO));
        let part = Partition::contiguous(6, 4);
        let eng = ParallelEngine::new(ring(6), fabric, &part);
        assert_eq!(
            eng.shard_count(),
            1,
            "no lookahead must degrade to a single shard"
        );
    }

    #[test]
    fn thread_allowance_of_one_runs_inline_and_identically() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let pooled = parallel_fingerprint(12, fabric.clone(), 4);
        let inline = with_thread_allowance(1, || parallel_fingerprint(12, fabric.clone(), 4));
        assert_eq!(pooled, inline);
    }

    #[test]
    fn faults_drop_identically_across_backends() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let schedule = Arc::new(FaultSchedule::new().crash(
            NodeId(5),
            SimTime::from_millis(4),
            SimTime::from_millis(60),
        ));
        let run_serial = || {
            let mut eng = Engine::new(ring(12), fabric.clone());
            eng.set_faults(schedule.clone());
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            eng.run_to_completion();
            (eng.drops().to_vec(), eng.deliveries())
        };
        let run_parallel = |shards: usize| {
            let part = Partition::contiguous(12, shards);
            let mut eng = ParallelEngine::new(ring(12), fabric.clone(), &part);
            eng.set_faults(schedule.clone());
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            eng.run_to_completion();
            (eng.drops().to_vec(), eng.deliveries())
        };
        let serial = run_serial();
        assert!(!serial.0.is_empty(), "the crash window must drop something");
        for shards in [1, 2, 4] {
            assert_eq!(serial, run_parallel(shards), "{shards} shards diverged");
        }
    }

    #[test]
    fn lossy_links_drop_identically_across_backends() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let model = LossModel::new(0xBAD_1055, 0.25, 0.1);
        let run_serial = || {
            let mut eng = Engine::new(ring(12), fabric.clone());
            eng.set_loss(model);
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            eng.run_to_completion();
            (eng.drops().to_vec(), eng.deliveries())
        };
        let run_parallel = |shards: usize| {
            let part = Partition::contiguous(12, shards);
            let mut eng = ParallelEngine::new(ring(12), fabric.clone(), &part);
            eng.set_loss(model);
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            eng.run_to_completion();
            (eng.drops().to_vec(), eng.deliveries())
        };
        let serial = run_serial();
        assert!(
            serial.0.iter().any(|d| d.cause == DropCause::Loss),
            "a 25% loss rate must lose something"
        );
        for shards in [1, 2, 4] {
            assert_eq!(serial, run_parallel(shards), "{shards} shards diverged");
        }
    }

    #[test]
    fn horizons_and_timeline_injection_match_serial() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let timeline: Vec<(SimTime, NodeId, Tok)> = (0..16u64)
            .map(|i| {
                (
                    SimTime::from_millis(i * 5),
                    NodeId((i % 12) as u32),
                    Tok::Tick,
                )
            })
            .collect();
        let serial = {
            let mut eng = Engine::new(ring(12), fabric.clone());
            eng.reserve_external_seqs(timeline.len() as u64);
            assert_eq!(
                eng.run_timeline(timeline.iter().cloned()),
                RunOutcome::Drained
            );
            let deliveries = eng.deliveries();
            let (nodes, stats, now) = eng.into_parts();
            (
                nodes.into_iter().map(|nd| nd.seen).collect::<Vec<_>>(),
                deliveries,
                format!("{stats:?}"),
                now,
            )
        };
        for shards in [2, 4] {
            let part = Partition::contiguous(12, shards);
            let mut eng = ParallelEngine::new(ring(12), fabric.clone(), &part);
            eng.reserve_external_seqs(timeline.len() as u64);
            assert_eq!(
                eng.run_timeline(timeline.iter().cloned()),
                RunOutcome::Drained
            );
            let deliveries = eng.deliveries();
            let (nodes, stats, now) = eng.into_parts();
            let parallel = (
                nodes.into_iter().map(|nd| nd.seen).collect::<Vec<_>>(),
                deliveries,
                format!("{stats:?}"),
                now,
            );
            assert_eq!(serial, parallel, "{shards} shards diverged");
        }
    }

    #[test]
    fn interleaved_horizon_runs_match_serial() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let drive_serial = || {
            let mut eng = Engine::new(ring(12), fabric.clone());
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            let mut trace = Vec::new();
            for h in [7u64, 8, 20, 21, 40] {
                let out = eng.run_until(SimTime::from_millis(h));
                trace.push((out, eng.now(), eng.deliveries(), eng.pending()));
            }
            let out = eng.run_to_completion();
            trace.push((out, eng.now(), eng.deliveries(), eng.pending()));
            trace
        };
        let drive_parallel = |shards: usize| {
            let part = Partition::contiguous(12, shards);
            let mut eng = ParallelEngine::new(ring(12), fabric.clone(), &part);
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            let mut trace = Vec::new();
            for h in [7u64, 8, 20, 21, 40] {
                let out = eng.run_until(SimTime::from_millis(h));
                trace.push((out, eng.now(), eng.deliveries(), eng.pending()));
            }
            let out = eng.run_to_completion();
            trace.push((out, eng.now(), eng.deliveries(), eng.pending()));
            trace
        };
        let serial = drive_serial();
        for shards in [1, 2, 4] {
            assert_eq!(serial, drive_parallel(shards), "{shards} shards diverged");
        }
    }

    #[test]
    fn delivery_limit_reports_like_serial() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(1)));
        let part = Partition::contiguous(12, 4);
        let mut eng = ParallelEngine::new(ring(12), fabric, &part)
            .with_config(EngineConfig { max_deliveries: 10 });
        for i in 0..12u32 {
            eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
        }
        assert_eq!(eng.run_to_completion(), RunOutcome::HitDeliveryLimit);
        assert!(
            eng.deliveries() >= 10,
            "the cap fires at or past the budget"
        );
    }

    #[test]
    fn parallel_perf_reports_windows_and_handoffs() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let part = Partition::contiguous(12, 4);
        let mut eng = ParallelEngine::new(ring(12), fabric, &part);
        for i in 0..12u32 {
            eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
        }
        eng.run_to_completion();
        let perf = eng.parallel_perf();
        assert_eq!(perf.shards.len(), 4);
        assert!(perf.windows > 0);
        assert!(
            perf.handoff_envelopes > 0,
            "ring traffic must cross shard boundaries"
        );
        assert_eq!(perf.lookahead, SimDuration::from_millis(3));
        assert_eq!(
            perf.shards.iter().map(|s| s.deliveries).sum::<u64>(),
            eng.deliveries()
        );
        assert_eq!(perf.shards.iter().map(|s| s.nodes).sum::<usize>(), 12);
    }

    #[test]
    fn any_engine_backends_agree() {
        let fabric = Arc::new(UniformFabric::new(SimDuration::from_millis(3)));
        let part = Partition::contiguous(12, 3);
        let run = |mut eng: AnyEngine<Tok, RingNode>| {
            for i in 0..12u32 {
                eng.schedule_external(SimTime::from_millis(i as u64), NodeId(i), Tok::Tick);
            }
            assert_eq!(eng.run_to_completion(), RunOutcome::Drained);
            let deliveries = eng.deliveries();
            let (nodes, stats, now) = eng.into_parts();
            (
                nodes.into_iter().map(|nd| nd.seen).collect::<Vec<_>>(),
                deliveries,
                format!("{stats:?}"),
                now,
            )
        };
        let serial = run(AnyEngine::serial(ring(12), fabric.clone()));
        let parallel = run(AnyEngine::parallel(ring(12), fabric, &part));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn thread_allowance_nests_and_restores() {
        assert_eq!(thread_allowance(), 0);
        with_thread_allowance(4, || {
            assert_eq!(thread_allowance(), 4);
            with_thread_allowance(2, || assert_eq!(thread_allowance(), 2));
            assert_eq!(thread_allowance(), 4);
        });
        assert_eq!(thread_allowance(), 0);
    }
}
