//! Micro-workloads for measuring raw [`Engine`] throughput, timed by the
//! `mhh-benchmark` package. The tests run the same node sets on the
//! pre-overhaul `ReferenceEngine` and require identical delivery counts.
//!
//! Two workloads:
//!
//! * **ring** — a token circling `n` nodes: minimal queue depth, one
//!   in-flight message, isolates the per-delivery fixed cost (outbox
//!   allocation, stats record, clock lookup, heap push/pop).
//! * **burst** — a dispatcher fans `fanout` work items out to every worker
//!   each round and collects acks: queue depth in the hundreds, many
//!   distinct links, several message kinds — the regime where heap sift
//!   cost and clock-table layout dominate.
//!
//! Every function returns the engine's delivery count so callers can turn a
//! wall-clock measurement into deliveries/sec.

use std::sync::Arc;

use mhh_simnet::{
    Context, Engine, Envelope, Message, Node, NodeId, SimDuration, SimTime, TrafficClass,
    UniformFabric,
};

/// Micro-workload message. The payload pads the envelope to a realistic
/// protocol-message size so queue moves are honestly priced.
#[derive(Debug, Clone)]
pub enum MicroMsg {
    /// Ring token (hop counter plus padding).
    Token(u64, [u64; 4]),
    /// Dispatcher round-start timer.
    Tick(u32),
    /// One fanned-out work item.
    Work(u32, [u64; 4]),
    /// Worker acknowledgement.
    Ack(u32),
}

impl Message for MicroMsg {
    fn traffic_class(&self) -> TrafficClass {
        match self {
            MicroMsg::Token(..) => TrafficClass::EventRouting,
            MicroMsg::Tick(_) => TrafficClass::Timer,
            MicroMsg::Work(..) => TrafficClass::EventRouting,
            MicroMsg::Ack(_) => TrafficClass::ClientControl,
        }
    }
    fn kind(&self) -> &'static str {
        match self {
            MicroMsg::Token(..) => "token",
            MicroMsg::Tick(_) => "tick",
            MicroMsg::Work(..) => "work",
            MicroMsg::Ack(_) => "ack",
        }
    }
}

/// Ring node: forward the token to the next node until it has travelled
/// `remaining` hops.
pub struct Ring {
    next: NodeId,
    remaining: u64,
}

impl Node<MicroMsg> for Ring {
    fn on_message(&mut self, env: Envelope<MicroMsg>, ctx: &mut Context<MicroMsg>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            if let MicroMsg::Token(c, pad) = env.msg {
                ctx.send(self.next, MicroMsg::Token(c + 1, pad));
            }
        }
    }
}

fn ring_nodes(n: u32, messages: u64) -> Vec<Ring> {
    (0..n)
        .map(|i| Ring {
            next: NodeId((i + 1) % n),
            remaining: messages / n as u64,
        })
        .collect()
}

/// Dispatcher/worker nodes for the burst workload.
pub enum BurstNode {
    /// Node 0: starts `rounds` rounds, fanning `fanout` work items per round.
    Dispatcher {
        /// Worker count (nodes 1..=workers).
        workers: u32,
        /// Rounds left to dispatch.
        rounds: u32,
        /// Work items per round.
        fanout: u32,
        /// Rotating offset so links vary across rounds.
        cursor: u32,
    },
    /// Nodes 1..: acknowledge every work item.
    Worker,
}

impl Node<MicroMsg> for BurstNode {
    fn on_message(&mut self, env: Envelope<MicroMsg>, ctx: &mut Context<MicroMsg>) {
        match self {
            BurstNode::Dispatcher {
                workers,
                rounds,
                fanout,
                cursor,
            } => {
                if let MicroMsg::Tick(round) = env.msg {
                    for k in 0..*fanout {
                        let to = 1 + (*cursor + k) % *workers;
                        ctx.send(NodeId(to), MicroMsg::Work(round, [k as u64; 4]));
                    }
                    *cursor = (*cursor + 7) % *workers;
                    if round + 1 < *rounds {
                        ctx.schedule(SimDuration::from_millis(2), MicroMsg::Tick(round + 1));
                    }
                }
            }
            BurstNode::Worker => {
                if let MicroMsg::Work(round, _) = env.msg {
                    ctx.send(NodeId(0), MicroMsg::Ack(round));
                }
            }
        }
    }
}

fn burst_nodes(workers: u32, rounds: u32, fanout: u32) -> Vec<BurstNode> {
    let mut nodes = vec![BurstNode::Dispatcher {
        workers,
        rounds,
        fanout,
        cursor: 0,
    }];
    nodes.extend((0..workers).map(|_| BurstNode::Worker));
    nodes
}

fn fabric() -> Arc<UniformFabric> {
    Arc::new(UniformFabric::new(SimDuration::from_millis(1)))
}

/// Run the ring workload; returns deliveries.
pub fn ring_new(n: u32, messages: u64) -> u64 {
    let mut eng = Engine::new(ring_nodes(n, messages), fabric());
    eng.schedule_external(SimTime::ZERO, NodeId(0), MicroMsg::Token(0, [0; 4]));
    eng.run_to_completion();
    eng.deliveries()
}

/// Run the burst workload; returns deliveries.
pub fn burst_new(workers: u32, rounds: u32, fanout: u32) -> u64 {
    let mut eng = Engine::new(burst_nodes(workers, rounds, fanout), fabric());
    eng.schedule_external(SimTime::ZERO, NodeId(0), MicroMsg::Tick(0));
    eng.run_to_completion();
    eng.deliveries()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_simnet::ReferenceEngine;

    fn ring_reference(n: u32, messages: u64) -> u64 {
        let mut eng = ReferenceEngine::new(ring_nodes(n, messages), fabric());
        eng.schedule_external(SimTime::ZERO, NodeId(0), MicroMsg::Token(0, [0; 4]));
        eng.run_to_completion();
        eng.deliveries()
    }

    fn burst_reference(workers: u32, rounds: u32, fanout: u32) -> u64 {
        let mut eng = ReferenceEngine::new(burst_nodes(workers, rounds, fanout), fabric());
        eng.schedule_external(SimTime::ZERO, NodeId(0), MicroMsg::Tick(0));
        eng.run_to_completion();
        eng.deliveries()
    }

    #[test]
    fn both_engines_deliver_the_same_counts() {
        assert_eq!(ring_new(16, 10_000), ring_reference(16, 10_000));
        assert_eq!(burst_new(32, 20, 64), burst_reference(32, 20, 64));
        // Sanity on magnitudes: the burst run is rounds × fanout × 2 (work +
        // ack) + the dispatcher's tick deliveries.
        let d = burst_new(32, 20, 64);
        assert_eq!(d, 20 * 64 * 2 + 20);
    }
}
