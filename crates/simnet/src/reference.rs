//! The pre-overhaul engine, preserved as a differential oracle.
//!
//! [`ReferenceEngine`] is the engine exactly as it stood before the hot-path
//! overhaul: the future-event list is a `BinaryHeap<Reverse<Scheduled<M>>>`
//! of owned entries, the per-link channel clocks live in a `HashMap`, and
//! every delivery allocates a fresh `Context` outbox. It exists for two
//! reasons and is **not** a second simulation backend:
//!
//! 1. **Differential testing** — `tests/engine_equivalence.rs` drives
//!    identical seeded workloads (including jittered fabrics) through this
//!    engine and [`Engine`](crate::Engine) and asserts byte-identical
//!    delivery sequences and traffic totals. Any ordering divergence in the
//!    pooled 4-ary queue or the dense/sharded clock tables fails loudly.
//! 2. **Micro-workload oracle** — `mhh-bench`'s `engine_micro` tests run the
//!    ring and burst kernels the benchmark times on both engines and require
//!    identical delivery counts.
//!
//! Behavioural equivalence matters; speed does not. Keep this file in sync
//! with semantic engine changes (new clamp rules, new ordering), never with
//! representation changes — representation differences are the point.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use crate::clocks::LinkKeyHasher;
use crate::engine::{Context, Envelope, Node, Outgoing};
use crate::fabric::Fabric;
use crate::ids::NodeId;
use crate::stats::{ClassCounter, Message, TrafficClass, TrafficStats};
use crate::time::SimTime;

/// The pre-overhaul traffic accounting, costs included: a `BTreeMap` walk
/// per class and — the expensive part — `kind.to_string()` *per recorded
/// message* to key the per-kind map. Kept so the benchmark baseline pays
/// exactly what the old engine paid.
#[derive(Debug, Default)]
struct LegacyStats {
    per_class: BTreeMap<TrafficClass, ClassCounter>,
    per_kind: BTreeMap<String, ClassCounter>,
    deliveries: u64,
}

impl LegacyStats {
    fn record(&mut self, class: TrafficClass, kind: &'static str, hops: u32, bytes: u32) {
        let c = self.per_class.entry(class).or_default();
        c.messages += 1;
        c.hops += hops as u64;
        c.bytes += bytes as u64;
        let k = self.per_kind.entry(kind.to_string()).or_default();
        k.messages += 1;
        k.hops += hops as u64;
        k.bytes += bytes as u64;
    }

    /// Convert to the modern representation for comparison. The handful of
    /// kind labels is leaked into `&'static str`s — bounded by distinct
    /// kinds per conversion, and conversions happen once per reference run
    /// (tests and benches only).
    fn to_stats(&self) -> TrafficStats {
        let mut stats = TrafficStats::new();
        for (&class, &counter) in &self.per_class {
            stats.add_class_counter(class, counter);
        }
        for (kind, &counter) in &self.per_kind {
            stats.add_kind_counter(Box::leak(kind.clone().into_boxed_str()), counter);
        }
        stats.deliveries = self.deliveries;
        stats
    }
}

/// One entry of the legacy future event list: the full envelope moves
/// through the heap with its ordering key.
#[derive(Debug)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The legacy engine: `BinaryHeap` event list + `HashMap` link clocks +
/// per-delivery outbox allocation. Same delivery semantics as
/// [`Engine`](crate::Engine), kept only as an oracle (see module docs).
pub struct ReferenceEngine<M: Message, N: Node<M>> {
    nodes: Vec<N>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    now: SimTime,
    seq: u64,
    fabric: Arc<dyn Fabric>,
    stats: LegacyStats,
    delivered: u64,
    /// Per ordered link: `(channel clock, send counter)` — the counter
    /// mirrors the semantic change that keys variable-fabric sampling off
    /// the link-local send index instead of the global sequence.
    link_clock: HashMap<u64, (SimTime, u64), BuildHasherDefault<LinkKeyHasher>>,
}

impl<M: Message, N: Node<M>> ReferenceEngine<M, N> {
    /// Create a reference engine over the given nodes and fabric.
    pub fn new(nodes: Vec<N>, fabric: Arc<dyn Fabric>) -> Self {
        ReferenceEngine {
            nodes,
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            fabric,
            stats: LegacyStats::default(),
            delivered: 0,
            link_clock: HashMap::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Traffic statistics accumulated so far, converted to the modern
    /// representation (owned: the legacy internals are `String`-keyed).
    pub fn stats(&self) -> TrafficStats {
        self.stats.to_stats()
    }

    /// Number of messages delivered so far (including timers).
    pub fn deliveries(&self) -> u64 {
        self.delivered
    }

    /// Inject a message from the outside world, exactly like
    /// [`Engine::schedule_external`](crate::Engine::schedule_external).
    pub fn schedule_external(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot schedule in the past");
        let seq = self.next_seq();
        self.queue.push(Reverse(Scheduled {
            at,
            seq,
            env: Envelope {
                from: to,
                to,
                sent_at: at,
                fate: crate::faults::LinkFate::Intact,
                msg,
            },
        }));
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn enqueue_outgoing(&mut self, origin: NodeId, sent_at: SimTime, out: Vec<Outgoing<M>>) {
        for o in out {
            match o {
                Outgoing::Send { to, msg } => {
                    let seq = self.next_seq();
                    let (clock, sends) = self
                        .link_clock
                        .entry(crate::ids::pack_pair(origin, to))
                        .or_insert((SimTime::ZERO, 0));
                    // Sample the fabric with this link's send index (the
                    // engine's jitter key), then bump the counter.
                    let cost = self.fabric.link(origin, to, sent_at, *sends);
                    *sends += 1;
                    self.stats
                        .record(msg.traffic_class(), msg.kind(), cost.hops, msg.wire_bytes());
                    let at = (sent_at + cost.latency).max(*clock);
                    *clock = at;
                    self.queue.push(Reverse(Scheduled {
                        at,
                        seq,
                        env: Envelope {
                            from: origin,
                            to,
                            sent_at,
                            fate: crate::faults::LinkFate::Intact,
                            msg,
                        },
                    }));
                }
                Outgoing::Timer { delay, msg } => {
                    let seq = self.next_seq();
                    self.queue.push(Reverse(Scheduled {
                        at: sent_at + delay,
                        seq,
                        env: Envelope {
                            from: origin,
                            to: origin,
                            sent_at,
                            fate: crate::faults::LinkFate::Intact,
                            msg,
                        },
                    }));
                }
            }
        }
    }

    /// Deliver a single message. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(next)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(next.at >= self.now, "time must be monotone");
        self.now = next.at;
        self.delivered += 1;
        self.stats.deliveries += 1;
        let to = next.env.to;
        // The legacy per-delivery allocation, on purpose.
        let mut ctx = Context::with_outbox(self.now, to, Vec::new());
        self.nodes[to.index()].on_message(next.env, &mut ctx);
        let outbox = ctx.into_outbox();
        self.enqueue_outgoing(to, self.now, outbox);
        true
    }

    /// Run until the future event list is empty.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run until the clock passes `horizon`, peek-then-pop style (the
    /// legacy double queue access `Engine::run_until` no longer performs).
    pub fn run_until(&mut self, horizon: SimTime) {
        loop {
            match self.queue.peek() {
                None => return,
                Some(Reverse(next)) if next.at > horizon => return,
                Some(_) => {}
            }
            let progressed = self.step();
            debug_assert!(progressed);
        }
    }

    /// Consume the engine and return its parts (nodes + stats).
    pub fn into_parts(self) -> (Vec<N>, TrafficStats, SimTime) {
        let stats = self.stats.to_stats();
        (self.nodes, stats, self.now)
    }
}
