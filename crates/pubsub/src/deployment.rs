//! Deployment helpers: build a complete simulated pub/sub system (brokers +
//! clients + engine) for a given mobility protocol.
//!
//! The evaluation harness (`mhh-mobsim`), the protocol crates' own tests and
//! the examples all need the same boilerplate: a grid [`Network`], one
//! [`Broker`] per base station, a set of [`ClientNode`]s with their
//! subscriptions pre-installed, and an [`AnyEngine`] (serial or sharded
//! parallel) over the union of the two node populations. [`Deployment`]
//! packages that.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use mhh_simnet::{
    AnyEngine, Context, EngineArena, Envelope, Fabric, GridFabric, JitteredFabric, LinkModel,
    Network, Node, Partition, SimDuration, SimTime, TopologyKind,
};

use crate::address::{AddressBook, BrokerId, ClientId};
use crate::broker::{install_subscription, Broker, BrokerCore, MobilityProtocol};
use crate::client::ClientNode;
use crate::event::Event;
use crate::filter::Filter;
use crate::filter_table::{filter_hash, FilterRef};
use crate::messages::{ClientAction, NetMsg, RepairMsg};
use crate::wire::{FanoutMode, FanoutStats};

/// Either a broker or a client, so one engine can hold the whole system.
// The variants are deliberately unboxed: nodes live in one long-lived Vec,
// so the size gap costs a few hundred bytes per client slot once, while
// boxing the broker would put a pointer chase on every event dispatch.
#[allow(clippy::large_enum_variant)]
pub enum SimNode<P: MobilityProtocol> {
    /// An event broker.
    Broker(Broker<P>),
    /// A (possibly mobile) client.
    Client(ClientNode),
}

impl<P: MobilityProtocol> SimNode<P> {
    /// The broker inside, if this node is a broker.
    pub fn as_broker(&self) -> Option<&Broker<P>> {
        match self {
            SimNode::Broker(b) => Some(b),
            SimNode::Client(_) => None,
        }
    }

    /// The client inside, if this node is a client.
    pub fn as_client(&self) -> Option<&ClientNode> {
        match self {
            SimNode::Broker(_) => None,
            SimNode::Client(c) => Some(c),
        }
    }
}

impl<P: MobilityProtocol> Node<NetMsg<P::Msg>> for SimNode<P> {
    fn on_message(&mut self, env: Envelope<NetMsg<P::Msg>>, ctx: &mut Context<NetMsg<P::Msg>>) {
        match self {
            SimNode::Broker(b) => b.on_message(env, ctx),
            SimNode::Client(c) => c.on_message(env, ctx),
        }
    }
}

/// Configuration of a deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Grid side length (k ⇒ k² brokers for the grid-family and random
    /// topologies; edge lists bring their own count).
    pub grid_side: usize,
    /// Which network shape to build (default: the paper's grid).
    pub topology: TopologyKind,
    /// Seed for the topology and overlay tree construction.
    pub seed: u64,
    /// Wired per-hop latency (paper: 10 ms).
    pub wired_latency: SimDuration,
    /// Wireless link latency (paper: 20 ms).
    pub wireless_latency: SimDuration,
    /// Variable-latency link model (`None` = the paper's constant links;
    /// a constant model is also treated as `None`, keeping zero-jitter runs
    /// on the unwrapped fast path).
    pub link_model: Option<LinkModel>,
    /// Whether brokers apply the covering optimisation.
    pub covering: bool,
    /// Worker shards for the conservative-parallel engine. `0` and `1` run
    /// the serial [`Engine`](mhh_simnet::Engine); `k > 1` partitions brokers
    /// into `k` contiguous blocks (clients follow their home broker) and runs
    /// the [`mhh_simnet::ParallelEngine`], which reconstructs the serial
    /// delivery sequence byte for byte — results are identical either way.
    pub engine_workers: usize,
    /// How brokers materialize event wire forms during fan-out: serialize
    /// once and share ([`FanoutMode::Cached`], the default) or render per
    /// destination ([`FanoutMode::CloneBaseline`]). Delivery behavior is
    /// byte-identical either way; only the accounting differs.
    pub fanout_mode: FanoutMode,
    /// Enable the retained-message store: brokers keep each publisher's last
    /// routed event and replay matches to newly attaching subscribers.
    pub retained: bool,
    /// Shared-subscription group size: clients on the same broker are
    /// bucketed into groups of this size and each event goes to exactly one
    /// member per group. `0` or `1` disables grouping.
    pub shared_group_size: u32,
    /// Track broker memory high-water marks (buffered protocol bytes and
    /// checkpoint sizes). Off by default — the sampling walk is per-message.
    pub track_mem: bool,
    /// Per-client duplicate-suppression window on brokers: remember this many
    /// recent event ids (plus per-publisher sequence watermarks) and drop
    /// re-deliveries. `0` disables dedup and keeps the untouched fast path.
    pub dedup_window: usize,
    /// End-to-end publish reliability: brokers ack accepted publishes and
    /// publishers retransmit unacked events with bounded exponential backoff.
    pub retransmit: bool,
    /// Neighbour-replicated checkpoint period in milliseconds. When non-zero
    /// every broker pushes a checkpoint of its durable state to its lowest-id
    /// overlay neighbour on this period, and a crashed broker restores from
    /// that (possibly stale) replica instead of its own last self-checkpoint.
    /// `0` keeps the legacy local self-checkpoint restore.
    pub checkpoint_replication_ms: u64,
    /// The instant (in milliseconds) past which the replication tick stops
    /// re-arming — normally the workload horizon. Required whenever
    /// `checkpoint_replication_ms` is non-zero: the self-rearming tick
    /// would otherwise keep `run_to_completion` from ever draining. `0`
    /// (the default) leaves replication unarmed.
    pub replication_horizon_ms: u64,
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            grid_side: 3,
            topology: TopologyKind::Grid,
            seed: 1,
            wired_latency: SimDuration::from_millis(10),
            wireless_latency: SimDuration::from_millis(20),
            link_model: None,
            covering: true,
            engine_workers: 0,
            fanout_mode: FanoutMode::default(),
            retained: false,
            shared_group_size: 0,
            track_mem: false,
            dedup_window: 0,
            retransmit: false,
            checkpoint_replication_ms: 0,
            replication_horizon_ms: 0,
        }
    }
}

/// A fully-built simulated pub/sub system, ready to run.
pub struct Deployment<P: MobilityProtocol> {
    /// The broker network.
    pub network: Arc<Network>,
    /// The address book.
    pub book: AddressBook,
    /// The engine holding all broker and client nodes (serial or parallel
    /// per [`DeploymentConfig::engine_workers`]; same results either way).
    pub engine: AnyEngine<NetMsg<P::Msg>, SimNode<P>>,
}

/// Description of one client to create.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    /// Subscription filter.
    pub filter: Filter,
    /// Initial (home) broker.
    pub home: BrokerId,
    /// Whether the client is in the mobile 20 %.
    pub mobile: bool,
    /// Whether the client starts attached to its home broker with its
    /// subscription pre-installed (the default). Detached clients join the
    /// system only when the workload schedules their first
    /// [`ClientAction::Reconnect`], which the broker treats as an initial
    /// connect — the late-subscriber shape retained-replay scenarios need.
    pub initially_attached: bool,
}

impl<P: MobilityProtocol> Deployment<P> {
    /// Build a deployment. `make_protocol` constructs one protocol instance
    /// per broker, `clients` describes the client population; every client is
    /// attached to its home broker with its subscription pre-installed
    /// everywhere (no warm-up messages). The network is built from the
    /// config's [`TopologyKind`]; use [`build_on`](Self::build_on) to share
    /// an already-built network (the harness builds it once per run for the
    /// workload generator, the fabric and the deployment together).
    pub fn build(
        config: &DeploymentConfig,
        clients: &[ClientSpec],
        make_protocol: impl FnMut(BrokerId) -> P,
    ) -> Self {
        let network = Arc::new(config.topology.build(config.grid_side, config.seed));
        Self::build_on(network, config, clients, make_protocol)
    }

    /// [`build`](Self::build) over an already-constructed network (the
    /// config's `grid_side`/`topology` are ignored in favour of it).
    pub fn build_on(
        network: Arc<Network>,
        config: &DeploymentConfig,
        clients: &[ClientSpec],
        make_protocol: impl FnMut(BrokerId) -> P,
    ) -> Self {
        Self::build_on_in(network, config, clients, make_protocol, EngineArena::new())
    }

    /// [`build_on`](Self::build_on) reusing a recycled
    /// [`EngineArena`] (from [`AnyEngine::recycle`]) so sweep workers
    /// running many deployments back to back stop re-growing the engine's
    /// event-queue, clock and scratch storage on every run. The arena only
    /// feeds the serial backend; a parallel build (`engine_workers > 1`)
    /// uses sharded storage and drops it.
    pub fn build_on_in(
        network: Arc<Network>,
        config: &DeploymentConfig,
        clients: &[ClientSpec],
        mut make_protocol: impl FnMut(BrokerId) -> P,
        arena: EngineArena<NetMsg<P::Msg>>,
    ) -> Self {
        let broker_count = network.broker_count();
        let book = AddressBook::new(broker_count, clients.len());
        let base = GridFabric::new(
            network.clone(),
            config.wired_latency,
            config.wireless_latency,
        );
        // Zero-jitter runs keep the unwrapped fabric: one virtual call per
        // message, byte-identical to the pre-refactor constant-latency path.
        let fabric: Arc<dyn Fabric> = match &config.link_model {
            Some(model) if !model.is_constant() => {
                Arc::new(JitteredFabric::new(base, model.clone()))
            }
            _ => Arc::new(base),
        };

        let mut brokers: Vec<Broker<P>> = book
            .brokers()
            .map(|b| {
                Broker::new(
                    BrokerCore::new(b, book, network.clone(), config.covering)
                        .with_fanout_mode(config.fanout_mode)
                        .with_retained(config.retained)
                        .with_shared_groups(config.shared_group_size)
                        .with_mem_tracking(config.track_mem)
                        .with_dedup_window(config.dedup_window)
                        .with_publish_acks(config.retransmit)
                        .with_checkpoint_replication(
                            SimDuration::from_millis(config.checkpoint_replication_ms),
                            SimTime::from_millis(config.replication_horizon_ms),
                        ),
                    make_protocol(b),
                )
            })
            .collect();

        // One record per distinct client filter, shared by the client and
        // every broker's table: keyed by content hash, confirmed by
        // equality (a collision of different content just gets its own).
        let mut records: HashMap<u64, FilterRef> = HashMap::new();
        let mut client_nodes = Vec::with_capacity(clients.len());
        for (i, spec) in clients.iter().enumerate() {
            let id = ClientId(i as u32);
            let record = match records.entry(filter_hash(&spec.filter)) {
                Entry::Occupied(known) if *known.get() == spec.filter => known.get().clone(),
                Entry::Occupied(_) => FilterRef::new(spec.filter.clone()),
                Entry::Vacant(slot) => slot.insert(FilterRef::new(spec.filter.clone())).clone(),
            };
            let mut node = ClientNode::new(id, book, record.clone(), spec.home);
            if spec.initially_attached {
                install_subscription(&mut brokers, &network, id, &record, spec.home, true);
                node.attach_initially();
            }
            node.mobile = spec.mobile;
            node.retransmit = config.retransmit;
            client_nodes.push(node);
        }

        let mut nodes: Vec<SimNode<P>> = brokers.into_iter().map(SimNode::Broker).collect();
        nodes.extend(client_nodes.into_iter().map(SimNode::Client));
        let engine = if config.engine_workers > 1 {
            let homes: Vec<usize> = clients.iter().map(|s| s.home.0 as usize).collect();
            let partition = Partition::broker_blocks(&network, &homes, config.engine_workers);
            AnyEngine::parallel(nodes, fabric, &partition)
        } else {
            AnyEngine::serial_in(nodes, fabric, arena)
        };
        Deployment {
            network,
            book,
            engine,
        }
    }

    /// Seed the neighbour-replication clock: schedule every broker's first
    /// [`RepairMsg::ReplicateTick`] one period into the run (each tick
    /// re-arms itself from inside the repair handler, until the
    /// replication horizon). A no-op unless the deployment was built with
    /// both [`DeploymentConfig::checkpoint_replication_ms`] and
    /// [`DeploymentConfig::replication_horizon_ms`] set. Callers that
    /// reserve external sequence numbers (the harness runner) must arm
    /// *after* reserving — arming draws ordinary sequence numbers.
    pub fn arm_replication_ticks(&mut self) {
        let (period, until) = self
            .brokers()
            .map(|b| (b.core.replication_period, b.core.replication_until))
            .next()
            .unwrap_or((SimDuration::ZERO, SimTime::ZERO));
        let first = SimTime::ZERO + period;
        if period == SimDuration::ZERO || first > until {
            return;
        }
        for b in self.book.brokers() {
            self.engine.schedule_external(
                first,
                self.book.broker_node(b),
                NetMsg::Repair(RepairMsg::ReplicateTick),
            );
        }
    }

    /// Schedule a client action at an absolute time.
    pub fn schedule(&mut self, at: SimTime, client: ClientId, action: ClientAction) {
        self.engine
            .schedule_external(at, self.book.client_node(client), NetMsg::Action(action));
    }

    /// Schedule a publish action.
    pub fn schedule_publish(&mut self, at: SimTime, client: ClientId, event: Event) {
        self.schedule(at, client, ClientAction::Publish(event));
    }

    /// Borrow a broker.
    pub fn broker(&self, id: BrokerId) -> &Broker<P> {
        self.engine
            .node(self.book.broker_node(id))
            .as_broker()
            .expect("broker node ids map to brokers")
    }

    /// Borrow a client.
    pub fn client(&self, id: ClientId) -> &ClientNode {
        self.engine
            .node(self.book.client_node(id))
            .as_client()
            .expect("client node ids map to clients")
    }

    /// Iterate over all brokers.
    pub fn brokers(&self) -> impl Iterator<Item = &Broker<P>> {
        self.engine.nodes().filter_map(SimNode::as_broker)
    }

    /// Iterate over all clients.
    pub fn clients(&self) -> impl Iterator<Item = &ClientNode> {
        self.engine.nodes().filter_map(SimNode::as_client)
    }

    /// All events still buffered by the mobility protocol across brokers, as
    /// `(client, event id)` pairs (for the delivery audit).
    pub fn buffered_events(&self) -> Vec<(ClientId, crate::event::EventId)> {
        self.brokers()
            .flat_map(|b| b.proto.buffered_events())
            .map(|(c, e)| (c, e.id))
            .collect()
    }

    /// Fan-out accounting summed over every broker.
    pub fn fanout_stats(&self) -> FanoutStats {
        let mut total = FanoutStats::default();
        for b in self.brokers() {
            total.merge(&b.core.fanout);
        }
        total
    }

    /// Highest buffered-bytes sample observed at any single broker (only
    /// non-zero when [`DeploymentConfig::track_mem`] was set).
    pub fn buffered_bytes_peak(&self) -> u64 {
        self.brokers()
            .map(|b| b.core.buffered_bytes_peak)
            .max()
            .unwrap_or(0)
    }

    /// Largest modeled checkpoint written by any single broker restart.
    pub fn checkpoint_bytes_peak(&self) -> u64 {
        self.brokers()
            .map(|b| b.core.checkpoint_bytes_peak)
            .max()
            .unwrap_or(0)
    }

    /// Duplicate deliveries suppressed by broker dedup, summed system-wide.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.brokers().map(|b| b.core.duplicates_suppressed).sum()
    }

    /// Publisher-side retransmissions sent, summed over all clients.
    pub fn retransmissions(&self) -> u64 {
        self.clients().map(|c| c.retransmissions).sum()
    }

    /// Subscriptions re-installed because a restored replica was stale,
    /// summed over all brokers.
    pub fn stale_resubscribes(&self) -> u64 {
        self.brokers().map(|b| b.core.stale_resubscribes).sum()
    }

    /// Highest dedup-state sample observed at any single broker (only
    /// non-zero when [`DeploymentConfig::track_mem`] was set).
    pub fn dedup_bytes_peak(&self) -> u64 {
        self.brokers()
            .map(|b| b.core.dedup_bytes_peak)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::NoProtocol;
    use crate::event::EventBuilder;
    use crate::filter::Op;

    fn specs(n: usize, brokers: usize) -> Vec<ClientSpec> {
        (0..n)
            .map(|i| ClientSpec {
                filter: Filter::single("group", Op::Eq, 1i64),
                home: BrokerId((i % brokers) as u32),
                mobile: false,
                initially_attached: true,
            })
            .collect()
    }

    #[test]
    fn build_wires_everything_up() {
        let config = DeploymentConfig::default();
        let clients = specs(5, 9);
        let dep: Deployment<NoProtocol> = Deployment::build(&config, &clients, |_| NoProtocol);
        assert_eq!(dep.book.broker_count(), 9);
        assert_eq!(dep.book.client_count(), 5);
        assert_eq!(dep.engine.node_count(), 14);
        assert_eq!(dep.clients().count(), 5);
        assert_eq!(dep.brokers().count(), 9);
        assert!(dep.client(ClientId(0)).current_broker.is_some());
    }

    #[test]
    fn parallel_deployment_matches_serial() {
        let clients = specs(6, 9);
        let event = EventBuilder::new()
            .attr("group", 1i64)
            .build(1, ClientId(2), 0);
        let run = |workers: usize| {
            let config = DeploymentConfig {
                engine_workers: workers,
                ..DeploymentConfig::default()
            };
            let mut dep: Deployment<NoProtocol> =
                Deployment::build(&config, &clients, |_| NoProtocol);
            dep.schedule_publish(SimTime::from_millis(1), ClientId(2), event.clone());
            dep.engine.run_to_completion();
            let received: Vec<String> =
                dep.clients().map(|c| format!("{:?}", c.received)).collect();
            (received, format!("{:?}", dep.engine.stats()))
        };
        let serial = run(0);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn scheduled_publish_is_delivered_to_all_other_subscribers() {
        let config = DeploymentConfig::default();
        let clients = specs(6, 9);
        let mut dep: Deployment<NoProtocol> = Deployment::build(&config, &clients, |_| NoProtocol);
        let event = EventBuilder::new()
            .attr("group", 1i64)
            .build(1, ClientId(2), 0);
        dep.schedule_publish(SimTime::from_millis(1), ClientId(2), event);
        dep.engine.run_to_completion();
        for c in dep.clients() {
            if c.id == ClientId(2) {
                assert!(c.received.is_empty());
            } else {
                assert_eq!(c.received.len(), 1, "client {} missed the event", c.id);
            }
        }
    }
}
