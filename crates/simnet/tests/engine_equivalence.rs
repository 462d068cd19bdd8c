//! Differential determinism tests: the overhauled engine (pooled 4-ary
//! event list, dense/sharded link clocks, scratch outbox, interned stats)
//! against the pre-overhaul [`ReferenceEngine`] (`BinaryHeap` + `HashMap` +
//! per-delivery allocation) on identical seeded workloads.
//!
//! The property: for any seeded scenario — including jittered, asymmetric
//! fabrics where the channel-clock clamp actually fires — both engines must
//! produce the *identical* delivery sequence (time, source, destination,
//! payload, in order) and identical traffic totals. The heap order
//! `(at, seq)` is total, so this is not "equivalent up to ties": it is
//! byte-for-byte equality, the same guarantee the pre-refactor goldens pin
//! end to end.

use std::sync::Arc;

use mhh_simnet::fabric::{JitteredFabric, LinkModel, UniformFabric};
use mhh_simnet::random::DetRng;
use mhh_simnet::stats::{ClassCounter, Message, TrafficClass};
use mhh_simnet::{
    Context, Engine, Envelope, Fabric, Node, NodeId, ReferenceEngine, SimDuration, SimTime,
};

/// A payload with a TTL so random cascades always terminate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Chatter {
    tag: u64,
    ttl: u8,
}

impl Message for Chatter {
    fn traffic_class(&self) -> TrafficClass {
        // Spread across classes so the per-class array is exercised.
        match self.tag % 4 {
            0 => TrafficClass::EventRouting,
            1 => TrafficClass::MobilityControl,
            2 => TrafficClass::ClientControl,
            _ => TrafficClass::MobilityTransfer,
        }
    }
    fn kind(&self) -> &'static str {
        // Several distinct kinds so the interner sees real variety.
        match self.tag % 5 {
            0 => "chatter_a",
            1 => "chatter_b",
            2 => "chatter_c",
            3 => "chatter_d",
            _ => "chatter_e",
        }
    }
}

/// A node that reacts to every delivery with a deterministic (seeded) burst
/// of sends and timers. Its RNG advances once per delivery, so as long as
/// the two engines deliver the same sequence, the nodes stay in lockstep —
/// and the moment delivery order diverges, everything downstream diverges
/// loudly.
#[derive(Clone)]
struct Gossip {
    rng: DetRng,
    n: u32,
    log: Vec<(SimTime, NodeId, u64, u8)>,
}

impl Node<Chatter> for Gossip {
    fn on_message(&mut self, env: Envelope<Chatter>, ctx: &mut Context<Chatter>) {
        self.log
            .push((ctx.now(), env.from, env.msg.tag, env.msg.ttl));
        if env.msg.ttl == 0 {
            return;
        }
        let fanout = self.rng.next_below(4);
        for _ in 0..fanout {
            let to = NodeId(self.rng.next_below(self.n as u64) as u32);
            let tag = self.rng.next_u64();
            if to == ctx.self_id() {
                ctx.schedule(
                    SimDuration::from_micros(1 + self.rng.next_below(5_000)),
                    Chatter {
                        tag,
                        ttl: env.msg.ttl - 1,
                    },
                );
            } else {
                ctx.send(
                    to,
                    Chatter {
                        tag,
                        ttl: env.msg.ttl - 1,
                    },
                );
            }
        }
    }
}

fn make_nodes(n: u32, seed: u64) -> Vec<Gossip> {
    let mut root = DetRng::new(seed);
    (0..n)
        .map(|i| Gossip {
            rng: root.fork(i as u64 + 1),
            n,
            log: Vec::new(),
        })
        .collect()
}

fn fabric_for(seed: u64, jittered: bool) -> Arc<dyn Fabric> {
    if jittered {
        Arc::new(JitteredFabric::new(
            UniformFabric::new(SimDuration::from_millis(3)),
            LinkModel {
                seed,
                jitter: SimDuration::from_millis(40),
                asymmetry: 0.4,
                degraded: Vec::new(),
            },
        ))
    } else {
        Arc::new(UniformFabric::new(SimDuration::from_millis(3)))
    }
}

/// Inject the same seeded kick-off messages into both engines.
fn inject(seed: u64, n: u32, mut kick: impl FnMut(SimTime, NodeId, Chatter)) {
    let mut rng = DetRng::new(seed ^ 0x1113);
    for i in 0..24 {
        let at = SimTime::from_micros(rng.next_below(2_000));
        let to = NodeId(rng.next_below(n as u64) as u32);
        kick(
            at,
            to,
            Chatter {
                tag: rng.next_u64().wrapping_add(i),
                ttl: 6,
            },
        );
    }
}

fn collect_kinds(stats: &mhh_simnet::TrafficStats) -> Vec<(String, ClassCounter)> {
    stats.kinds().map(|(k, c)| (k.to_string(), c)).collect()
}

/// Run the same scenario through both engines, return (logs, stats summary).
fn compare_engines(seed: u64, n: u32, jittered: bool, horizons: &[SimTime]) {
    let nodes = make_nodes(n, seed);

    let mut new_eng = Engine::new(nodes.clone(), fabric_for(seed, jittered));
    inject(seed, n, |at, to, msg| {
        new_eng.schedule_external(at, to, msg)
    });
    let mut old_eng = ReferenceEngine::new(nodes, fabric_for(seed, jittered));
    inject(seed, n, |at, to, msg| {
        old_eng.schedule_external(at, to, msg)
    });

    // Interleave horizon-bounded runs (exercising the restructured
    // single-pop `run_until`) with a final drain.
    for &h in horizons {
        new_eng.run_until(h);
        old_eng.run_until(h);
        assert_eq!(new_eng.now(), old_eng.now(), "seed {seed}: clocks diverged");
        assert_eq!(new_eng.deliveries(), old_eng.deliveries(), "seed {seed}");
    }
    new_eng.run_to_completion();
    old_eng.run_to_completion();

    assert_eq!(new_eng.deliveries(), old_eng.deliveries(), "seed {seed}");
    assert_eq!(new_eng.now(), old_eng.now(), "seed {seed}");

    let new_stats = new_eng.stats();
    let old_stats = old_eng.stats(); // owned: legacy internals convert out
    assert_eq!(new_stats.total_messages(), old_stats.total_messages());
    assert_eq!(new_stats.total_hops(), old_stats.total_hops());
    assert_eq!(new_stats.mobility_hops(), old_stats.mobility_hops());
    assert_eq!(collect_kinds(new_stats), collect_kinds(&old_stats));
    assert_eq!(
        format!("{new_stats:?}"),
        format!("{old_stats:?}"),
        "seed {seed}: stats rendering diverged"
    );

    for i in 0..n {
        let a = &new_eng.node(NodeId(i)).log;
        let b = &old_eng.node(NodeId(i)).log;
        assert_eq!(a, b, "seed {seed}: node {i} saw a different sequence");
    }
}

#[test]
fn constant_latency_scenarios_match_the_reference_engine() {
    for seed in 0..6u64 {
        compare_engines(
            seed,
            12,
            false,
            &[SimTime::from_millis(5), SimTime::from_millis(20)],
        );
    }
}

#[test]
fn jittered_scenarios_match_the_reference_engine() {
    // Jitter makes the channel-clock clamp fire, which is exactly where a
    // representation bug in LinkClocks would reorder deliveries.
    for seed in 0..6u64 {
        compare_engines(
            seed,
            12,
            true,
            &[SimTime::from_millis(10), SimTime::from_millis(50)],
        );
    }
}

/// Above `DENSE_NODE_LIMIT` the engine switches to the sharded clock table;
/// the delivery sequence must not notice. (The node count is what selects
/// the representation, so this runs a genuinely sharded engine.)
#[test]
fn sharded_clock_engine_matches_the_reference_engine() {
    let n = (mhh_simnet::clocks::DENSE_NODE_LIMIT + 5) as u32;
    for seed in 0..2u64 {
        compare_engines(seed, n, true, &[SimTime::from_millis(15)]);
    }
}

/// `run_until` on the new engine must behave exactly like peek-then-step:
/// stopping at every horizon leaves the same pending count and clock as one
/// uninterrupted run.
#[test]
fn run_until_in_small_increments_equals_one_drain() {
    let seed = 99u64;
    let n = 10u32;
    let nodes = make_nodes(n, seed);
    let mut stepped = Engine::new(nodes.clone(), fabric_for(seed, true));
    inject(seed, n, |at, to, msg| {
        stepped.schedule_external(at, to, msg)
    });
    let mut drained = Engine::new(nodes, fabric_for(seed, true));
    inject(seed, n, |at, to, msg| {
        drained.schedule_external(at, to, msg)
    });

    let mut h = SimTime::ZERO;
    loop {
        h += SimDuration::from_millis(2);
        match stepped.run_until(h) {
            mhh_simnet::RunOutcome::Drained => break,
            _ => continue,
        }
    }
    drained.run_to_completion();
    assert_eq!(stepped.deliveries(), drained.deliveries());
    assert_eq!(stepped.now(), drained.now());
    for i in 0..n {
        assert_eq!(
            stepped.node(NodeId(i)).log,
            drained.node(NodeId(i)).log,
            "node {i}"
        );
    }
}

/// A broker-shaped node: a delivery with TTL left is handed to every other
/// node at once — on a constant-latency fabric, one burst at one delivery
/// instant with consecutive sequence numbers — and every other one also
/// arms a timer due at that same instant, right behind the burst.
#[derive(Clone)]
struct Broadcast {
    n: u32,
    log: Vec<(SimTime, NodeId, u64, u8)>,
}

impl Node<Chatter> for Broadcast {
    fn on_message(&mut self, env: Envelope<Chatter>, ctx: &mut Context<Chatter>) {
        self.log
            .push((ctx.now(), env.from, env.msg.tag, env.msg.ttl));
        if env.msg.ttl == 0 {
            return;
        }
        let ttl = env.msg.ttl - 1;
        let me = ctx.self_id();
        for to in (0..self.n).map(NodeId).filter(|&to| to != me) {
            let tag = env.msg.tag.wrapping_mul(31).wrapping_add(to.0 as u64);
            ctx.send(to, Chatter { tag, ttl });
        }
        if env.msg.tag.is_multiple_of(2) {
            let tag = env.msg.tag.wrapping_add(7);
            ctx.schedule(LATENCY, Chatter { tag, ttl: 0 });
        }
    }
}

const LATENCY: SimDuration = SimDuration::from_millis(3);

/// Fan-out bursts, with external injections at the instant a burst is
/// queued for (they take the sequence numbers right after the burst's), pop
/// in the reference engine's order.
#[test]
fn fan_out_bursts_with_same_instant_injections_match_the_reference_engine() {
    let n = 40u32;
    let nodes: Vec<Broadcast> = (0..n).map(|_| Broadcast { n, log: Vec::new() }).collect();
    let fabric = || -> Arc<dyn Fabric> { Arc::new(UniformFabric::new(LATENCY)) };
    let mut new_eng = Engine::new(nodes.clone(), fabric());
    let mut old_eng = ReferenceEngine::new(nodes, fabric());
    let kick = |tag: u64, ttl: u8| Chatter { tag, ttl };
    for (at, to, tag) in [(1_000, 0, 2), (1_000, 7, 5), (2_500, 3, 8)] {
        let at = SimTime::from_micros(at);
        new_eng.schedule_external(at, NodeId(to), kick(tag, 2));
        old_eng.schedule_external(at, NodeId(to), kick(tag, 2));
    }
    // Stop while the first bursts are queued for 4 ms, then inject at 4 ms.
    for (horizon, at, to) in [(2_000, 4_000, 5), (4_500, 7_000, 11), (7_000, 10_000, 1)] {
        new_eng.run_until(SimTime::from_micros(horizon));
        old_eng.run_until(SimTime::from_micros(horizon));
        assert_eq!(new_eng.deliveries(), old_eng.deliveries());
        let at = SimTime::from_micros(at);
        for tag in [100, 101] {
            new_eng.schedule_external(at, NodeId(to), kick(tag, 1));
            old_eng.schedule_external(at, NodeId(to), kick(tag, 1));
        }
    }
    new_eng.run_to_completion();
    old_eng.run_to_completion();
    assert!(new_eng.deliveries() > 4_000, "the bursts must cascade");
    assert_eq!(new_eng.deliveries(), old_eng.deliveries());
    assert_eq!(new_eng.now(), old_eng.now());
    for i in 0..n {
        assert_eq!(
            new_eng.node(NodeId(i)).log,
            old_eng.node(NodeId(i)).log,
            "node {i} saw a different sequence"
        );
    }
}
