//! Scenario configuration mirroring Section 5.1 of the paper, extended with
//! a pluggable mobility model (`mhh-mobility`), a pluggable network
//! topology and a variable-latency link model (`mhh-simnet`).

use std::sync::Arc;

use mhh_mobility::ModelKind;
use mhh_pubsub::FanoutMode;
use mhh_simnet::{
    DegradedWindow, FaultSchedule, LinkModel, LossModel, Network, NodeId, SimDuration, SimTime,
    TopologyKind,
};

/// Which of the paper's three protocols to run: the typed argument of
/// [`run_scenario`](crate::runner::run_scenario).
///
/// The enum is a convenience for the builtin protocols only; the open,
/// by-name axis lives in [`crate::protocols::ProtocolRegistry`], and
/// [`Protocol::name`] is the bridge (the enum variant's registry key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// The paper's multi-hop handoff protocol (`mhh-core`).
    Mhh,
    /// The sub-unsub baseline.
    SubUnsub,
    /// The home-broker baseline.
    HomeBroker,
}

impl Protocol {
    /// All three protocols, in the order the paper's figures list them.
    pub const ALL: [Protocol; 3] = [Protocol::SubUnsub, Protocol::Mhh, Protocol::HomeBroker];

    /// Display name used in reports (matches the paper's curve labels).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Mhh => "MHH",
            Protocol::SubUnsub => "sub-unsub",
            Protocol::HomeBroker => "HB",
        }
    }

    /// The protocol's key in the
    /// [`ProtocolRegistry`](crate::protocols::ProtocolRegistry).
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Mhh => "mhh",
            Protocol::SubUnsub => "sub-unsub",
            Protocol::HomeBroker => "home-broker",
        }
    }
}

/// Declarative fault-injection plan for a scenario: which brokers crash,
/// which links partition, which regions go dark, and how the recovery
/// machinery is tuned. The default plan is empty, which keeps every run on
/// the byte-identical zero-fault fast path (the engine never consults a
/// fault schedule).
///
/// Times are scenario-relative seconds; [`ScenarioConfig::fault_schedule`]
/// compiles the plan into a [`FaultSchedule`] against a concrete network.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Broker crash windows as `(broker, start_s, end_s)`: the broker drops
    /// every envelope in the window and restarts from checkpoint at `end_s`.
    pub broker_crashes: Vec<(usize, f64, f64)>,
    /// Link partition windows as `(broker_a, broker_b, start_s, end_s)`:
    /// both directions of the link drop envelopes during the window.
    pub link_partitions: Vec<(usize, usize, f64, f64)>,
    /// Region outages as `(epicenter, radius_hops, start_s, end_s)`: every
    /// broker within `radius_hops` of the epicenter is down in the window.
    pub region_outages: Vec<(usize, u32, f64, f64)>,
    /// Seeded crash storm as `(count, mean_down_s)`: `count` broker crashes
    /// with uniformly drawn victims and start times and exponentially
    /// distributed downtimes, derived deterministically from the scenario
    /// seed.
    pub crash_storm: Option<(usize, f64)>,
    /// How long after an outage begins neighbours notice and start routing
    /// around it (the failure-detection delay of the repair layer).
    pub detection_delay_s: f64,
    /// Watchdog period for MHH's explicit migration retry/abort recovery;
    /// ignored by protocols without a recovery dialogue.
    pub repair_timeout_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            broker_crashes: Vec::new(),
            link_partitions: Vec::new(),
            region_outages: Vec::new(),
            crash_storm: None,
            detection_delay_s: 0.5,
            repair_timeout_s: 2.0,
        }
    }
}

impl FaultPlan {
    /// True when the plan injects nothing — the zero-fault fast path.
    pub fn is_empty(&self) -> bool {
        self.broker_crashes.is_empty()
            && self.link_partitions.is_empty()
            && self.region_outages.is_empty()
            && self.crash_storm.is_none()
    }
}

/// Full description of one simulation run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Grid side length k (k² base stations / brokers for the grid-family
    /// and random topologies; an imported edge list brings its own count).
    pub grid_side: usize,
    /// The network shape brokers are wired into (paper: the k×k grid).
    pub topology: TopologyKind,
    /// Clients attached to each broker in the initial state (paper: 10).
    pub clients_per_broker: usize,
    /// Fraction of clients that move (paper: 0.2).
    pub mobile_fraction: f64,
    /// Mean connection-period length in seconds (exponentially distributed).
    pub conn_mean_s: f64,
    /// Mean disconnection-period length in seconds (paper: 300 s).
    pub disc_mean_s: f64,
    /// Publication interval per client in seconds (paper: 300 s).
    pub publish_interval_s: f64,
    /// Fraction of clients each event matches (paper: 0.0625).
    pub selectivity: f64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Wired per-hop latency in milliseconds (paper: 10 ms).
    pub wired_ms: u64,
    /// Wireless link latency in milliseconds (paper: 20 ms).
    pub wireless_ms: u64,
    /// Maximum per-message link jitter in milliseconds (0 = the paper's
    /// constant latencies; sampled uniformly per message, seeded).
    pub jitter_ms: u64,
    /// Per-direction link asymmetry: each ordered broker pair's latency is
    /// scaled by a stable factor drawn from `[1, 1 + asymmetry]` (0 =
    /// symmetric links).
    pub link_asymmetry: f64,
    /// Timed link-degradation windows as `(start_s, end_s, factor)`: during
    /// the window every link's latency is multiplied by `factor`.
    pub degraded_windows: Vec<(f64, f64, f64)>,
    /// Whether brokers apply the covering optimisation.
    pub covering: bool,
    /// Master random seed; every run is a pure function of it.
    pub seed: u64,
    /// The mobility model moving the mobile clients (paper: uniform random).
    pub mobility: ModelKind,
    /// Scenario-level proclamation override (§4.1): each move the model left
    /// *silent* is upgraded to a proclaimed move with this probability
    /// (deterministically, from the scenario seed). `0.0` (the default)
    /// leaves the per-model decision alone — street-grid and platoon moves
    /// proclaim, flash crowds and replayed traces do not; `1.0` proclaims
    /// every move, which is how `paper-fig5-proclaimed` exercises the
    /// paper's proclaimed handoff under the otherwise-unpredictable uniform
    /// random pattern.
    pub proclaimed_fraction: f64,
    /// Fraction of *proclaimed* moves whose announcement is wrong: the
    /// client announces broker B but reconnects at a different broker C
    /// (prediction error), exercising MHH's pending-handoff/abort path.
    /// `0.0` (the default) proclaims truthfully.
    pub misproclaim_fraction: f64,
    /// Fault-injection plan; empty (the default) keeps the run on the
    /// byte-identical zero-fault fast path.
    pub faults: FaultPlan,
    /// Worker shards for the conservative-parallel engine. `0` (the default)
    /// and `1` run the serial engine; `k > 1` partitions brokers into `k`
    /// contiguous blocks (clients follow their home broker) and runs the
    /// windowed parallel engine. Either way the delivery sequence — and
    /// therefore every metric — is byte-identical.
    pub engine_workers: usize,
    /// Mean modeled application-payload size in bytes. `0` (the default)
    /// turns payload modeling off entirely: events carry no wire size, no
    /// byte accounting happens and runs are byte-identical to the
    /// pre-payload simulator. `> 0` gives every published event a seeded
    /// size drawn uniformly from `[mean/2, 3·mean/2]`.
    pub payload_bytes_mean: u32,
    /// How brokers materialize wire forms during fan-out (serialize-once
    /// cached, the default, or the clone-per-destination baseline).
    /// Delivery behavior is byte-identical either way.
    pub fanout_mode: FanoutMode,
    /// Enable the brokers' retained-message store and replay-on-connect.
    pub retained: bool,
    /// Shared-subscription group size (`0`/`1` = off): same-broker
    /// subscribers are bucketed into groups of this size and each event is
    /// delivered to exactly one member per group.
    pub shared_group_size: u32,
    /// Track broker memory high-water marks (buffered protocol bytes and
    /// checkpoint sizes). Off by default; the sampling walk is per-message.
    pub track_mem: bool,
    /// Storm-shaped workload: number of publisher clients (`0`, the
    /// default, keeps the paper's population and mobility timeline; `> 0`
    /// together with [`storm_subscribers`](Self::storm_subscribers)
    /// replaces both with a static MQTT-shaped pub/sub population).
    pub storm_publishers: u32,
    /// Storm-shaped workload: number of subscriber clients.
    pub storm_subscribers: u32,
    /// Fraction of storm subscribers that start *detached* and join midway
    /// through the run (retained-replay late joiners). Ignored outside
    /// storm workloads.
    pub late_subscriber_fraction: f64,
    /// Per-message link loss probability. `0.0` (the default) keeps the
    /// lossless byte-identical fast path; `> 0` drops that fraction of
    /// messages, seeded per `(from, to, link_seq)` so replays are identical.
    pub loss_rate: f64,
    /// Per-message link corruption probability: affected messages arrive but
    /// are discarded at the receiver (recorded as corrupted in the drop log).
    pub corruption_rate: f64,
    /// Per-client duplicate-suppression window on brokers (`0` = off): the
    /// broker remembers this many recent event ids plus per-publisher
    /// sequence watermarks and silently drops re-deliveries.
    pub dedup_window: usize,
    /// End-to-end publish reliability: brokers ack accepted publishes and
    /// publishers retransmit unacked events with bounded exponential backoff.
    pub retransmit: bool,
    /// Neighbour-replicated checkpoint period in milliseconds (`0` = the
    /// legacy local self-checkpoint restore): brokers push their durable
    /// state to the lowest-id overlay neighbour on this period and a crashed
    /// broker restores from that possibly-stale replica, re-subscribing any
    /// clients the replica missed.
    pub checkpoint_replication_ms: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig::paper_defaults()
    }
}

impl ScenarioConfig {
    /// The paper's default environment: 100 base stations, 1000 clients,
    /// five-minute connection and disconnection periods.
    pub fn paper_defaults() -> Self {
        ScenarioConfig {
            grid_side: 10,
            topology: TopologyKind::Grid,
            clients_per_broker: 10,
            mobile_fraction: 0.2,
            conn_mean_s: 300.0,
            disc_mean_s: 300.0,
            publish_interval_s: 300.0,
            selectivity: 0.0625,
            duration_s: 1_800.0,
            wired_ms: 10,
            wireless_ms: 20,
            jitter_ms: 0,
            link_asymmetry: 0.0,
            degraded_windows: Vec::new(),
            covering: true,
            seed: 0x4d48_485f_3230,
            mobility: ModelKind::UniformRandom,
            proclaimed_fraction: 0.0,
            misproclaim_fraction: 0.0,
            faults: FaultPlan::default(),
            engine_workers: 0,
            payload_bytes_mean: 0,
            fanout_mode: FanoutMode::default(),
            retained: false,
            shared_group_size: 0,
            track_mem: false,
            storm_publishers: 0,
            storm_subscribers: 0,
            late_subscriber_fraction: 0.0,
            loss_rate: 0.0,
            corruption_rate: 0.0,
            dedup_window: 0,
            retransmit: false,
            checkpoint_replication_ms: 0,
        }
    }

    /// A scaled-down configuration that keeps the paper's proportions but
    /// runs in milliseconds of wall-clock time; used by unit tests and the
    /// Criterion benchmarks (absolute magnitudes differ, relative protocol
    /// behaviour does not).
    pub fn small() -> Self {
        ScenarioConfig {
            grid_side: 5,
            clients_per_broker: 4,
            mobile_fraction: 0.25,
            conn_mean_s: 60.0,
            disc_mean_s: 60.0,
            publish_interval_s: 30.0,
            selectivity: 0.0625,
            duration_s: 600.0,
            seed: 7,
            ..ScenarioConfig::paper_defaults()
        }
    }

    /// Number of brokers (k² for the grid-family and random topologies; an
    /// imported edge list brings its own count).
    pub fn broker_count(&self) -> usize {
        self.topology.node_count(self.grid_side)
    }

    /// Build this scenario's broker network — topology, MST overlay,
    /// distance and routing tables — deterministically from the seed. The
    /// harness calls this **once per run** and shares the result between
    /// the workload generator, the fabric and the deployment.
    pub fn build_network(&self) -> Arc<Network> {
        Arc::new(self.topology.build(self.grid_side, self.seed))
    }

    /// The link model the latency knobs describe, or `None` when links are
    /// the paper's constants (zero jitter, symmetric, no degradation) — the
    /// byte-identical fast path.
    pub fn link_model(&self) -> Option<LinkModel> {
        let model = LinkModel {
            seed: self.seed ^ 0x4c49_4e4b_4a49_5454,
            jitter: SimDuration::from_millis(self.jitter_ms),
            asymmetry: self.link_asymmetry.max(0.0),
            degraded: self
                .degraded_windows
                .iter()
                .map(|&(start_s, end_s, factor)| DegradedWindow {
                    start: SimTime::ZERO + SimDuration::from_secs_f64(start_s),
                    end: SimTime::ZERO + SimDuration::from_secs_f64(end_s),
                    factor,
                })
                .collect(),
        };
        if model.is_constant() {
            None
        } else {
            Some(model)
        }
    }

    /// The loss model the reliability knobs describe, or `None` when links
    /// are lossless (zero loss, zero corruption) — the byte-identical fast
    /// path, where the engine never consults a loss model.
    pub fn loss_model(&self) -> Option<LossModel> {
        let model = LossModel::new(
            self.seed ^ 0x4c4f_5353_5f52,
            self.loss_rate,
            self.corruption_rate,
        );
        if model.is_lossless() {
            None
        } else {
            Some(model)
        }
    }

    /// Compile the declarative [`FaultPlan`] into a concrete
    /// [`FaultSchedule`] against this scenario's network. Deterministic: the
    /// crash-storm seed derives from the scenario seed, so the same scenario
    /// always suffers the same outages. An empty plan compiles to an empty
    /// schedule (which the engine treats as "no fault layer at all").
    pub fn fault_schedule(&self, network: &Network) -> FaultSchedule {
        let at = |s: f64| SimTime::from_secs_f64(s);
        let mut schedule = if let Some((count, mean_down_s)) = self.faults.crash_storm {
            FaultSchedule::crash_storm(
                self.seed ^ 0x4641_554c_5453,
                network.broker_count(),
                count,
                at(self.duration_s),
                SimDuration::from_secs_f64(mean_down_s),
            )
        } else {
            FaultSchedule::new()
        };
        for &(broker, start_s, end_s) in &self.faults.broker_crashes {
            schedule = schedule.crash(NodeId(broker as u32), at(start_s), at(end_s));
        }
        for &(a, b, start_s, end_s) in &self.faults.link_partitions {
            schedule =
                schedule.partition(NodeId(a as u32), NodeId(b as u32), at(start_s), at(end_s));
        }
        for &(epicenter, radius, start_s, end_s) in &self.faults.region_outages {
            schedule = schedule.region_outage(
                network,
                NodeId(epicenter as u32),
                radius,
                at(start_s),
                at(end_s),
            );
        }
        schedule
    }

    /// Total number of clients.
    pub fn client_count(&self) -> usize {
        self.broker_count() * self.clients_per_broker
    }

    /// Number of mobile clients.
    pub fn mobile_count(&self) -> usize {
        (self.client_count() as f64 * self.mobile_fraction).round() as usize
    }

    /// Replace the mobility model, keeping everything else.
    pub fn with_mobility(mut self, mobility: ModelKind) -> Self {
        self.mobility = mobility;
        self
    }

    /// Replace the proclamation override fraction (clamped to `[0, 1]`),
    /// keeping everything else. `1.0` proclaims every move; `0.0` (default)
    /// defers to the mobility model's own per-move decision.
    pub fn with_proclaimed_fraction(mut self, fraction: f64) -> Self {
        self.proclaimed_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Replace the network topology, keeping everything else.
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Replace the per-message link jitter bound (milliseconds), keeping
    /// everything else. `0` restores the paper's constant latencies.
    pub fn with_jitter_ms(mut self, jitter_ms: u64) -> Self {
        self.jitter_ms = jitter_ms;
        self
    }

    /// Replace the mis-proclamation fraction (clamped to `[0, 1]`), keeping
    /// everything else: that share of proclaimed moves announces a wrong
    /// destination broker.
    pub fn with_misproclaim_fraction(mut self, fraction: f64) -> Self {
        self.misproclaim_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Replace the fault-injection plan, keeping everything else. An empty
    /// plan restores the zero-fault fast path.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the parallel-engine worker count, keeping everything else.
    /// `0`/`1` run the serial engine; results are byte-identical regardless.
    pub fn with_engine_workers(mut self, workers: usize) -> Self {
        self.engine_workers = workers;
        self
    }

    /// Replace the mean modeled payload size (bytes), keeping everything
    /// else. `0` restores the accounting-free pre-payload behavior.
    pub fn with_payload_bytes(mut self, mean: u32) -> Self {
        self.payload_bytes_mean = mean;
        self
    }

    /// Replace the broker fan-out mode, keeping everything else. Delivery
    /// results are byte-identical between modes; only accounting differs.
    pub fn with_fanout_mode(mut self, mode: FanoutMode) -> Self {
        self.fanout_mode = mode;
        self
    }

    /// Enable/disable the retained-message store, keeping everything else.
    pub fn with_retained(mut self, retained: bool) -> Self {
        self.retained = retained;
        self
    }

    /// Replace the shared-subscription group size (`0`/`1` = off), keeping
    /// everything else.
    pub fn with_shared_groups(mut self, size: u32) -> Self {
        self.shared_group_size = size;
        self
    }

    /// Enable/disable broker memory high-water tracking, keeping everything
    /// else.
    pub fn with_mem_tracking(mut self, track: bool) -> Self {
        self.track_mem = track;
        self
    }

    /// Switch to a storm-shaped workload with the given publisher and
    /// subscriber counts, keeping everything else.
    pub fn with_storm(mut self, publishers: u32, subscribers: u32) -> Self {
        self.storm_publishers = publishers;
        self.storm_subscribers = subscribers;
        self
    }

    /// Replace the late-joiner fraction of storm subscribers (clamped to
    /// `[0, 1]`), keeping everything else.
    pub fn with_late_subscribers(mut self, fraction: f64) -> Self {
        self.late_subscriber_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Replace the link loss and corruption probabilities (clamped to
    /// `[0, 1]`), keeping everything else. `(0, 0)` restores the lossless
    /// byte-identical fast path.
    pub fn with_loss(mut self, loss_rate: f64, corruption_rate: f64) -> Self {
        self.loss_rate = loss_rate.clamp(0.0, 1.0);
        self.corruption_rate = corruption_rate.clamp(0.0, 1.0);
        self
    }

    /// Replace the broker duplicate-suppression window (`0` = off), keeping
    /// everything else.
    pub fn with_dedup_window(mut self, window: usize) -> Self {
        self.dedup_window = window;
        self
    }

    /// Enable/disable publisher-side ack/retransmit, keeping everything else.
    pub fn with_retransmit(mut self, retransmit: bool) -> Self {
        self.retransmit = retransmit;
        self
    }

    /// Replace the neighbour-replication checkpoint period in milliseconds
    /// (`0` = legacy local restore), keeping everything else.
    pub fn with_checkpoint_replication_ms(mut self, period_ms: u64) -> Self {
        self.checkpoint_replication_ms = period_ms;
        self
    }

    /// True when this scenario runs the storm-shaped workload instead of
    /// the paper's mobile population.
    pub fn is_storm(&self) -> bool {
        self.storm_publishers > 0 && self.storm_subscribers > 0
    }

    /// Pick a simulation duration long enough for every mobile client to
    /// complete a couple of connection/disconnection cycles at the configured
    /// period lengths (used by the figure sweeps so slow-moving points still
    /// accumulate enough handoffs).
    pub fn with_adaptive_duration(mut self, cycles: f64) -> Self {
        let cycle = self.conn_mean_s + self.disc_mean_s;
        self.duration_s = (cycle * cycles).max(self.duration_s);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = ScenarioConfig::paper_defaults();
        assert_eq!(c.broker_count(), 100);
        assert_eq!(c.client_count(), 1_000);
        assert_eq!(c.mobile_count(), 200);
        assert_eq!(c.wired_ms, 10);
        assert_eq!(c.wireless_ms, 20);
        assert!((c.selectivity - 0.0625).abs() < 1e-12);
        assert_eq!(c.publish_interval_s, 300.0);
    }

    #[test]
    fn adaptive_duration_extends_for_slow_movers() {
        let c = ScenarioConfig {
            conn_mean_s: 10_000.0,
            disc_mean_s: 300.0,
            duration_s: 600.0,
            ..ScenarioConfig::paper_defaults()
        }
        .with_adaptive_duration(1.5);
        assert!(c.duration_s >= 15_000.0);
        // Short periods keep the configured floor.
        let d = ScenarioConfig {
            conn_mean_s: 1.0,
            duration_s: 600.0,
            ..ScenarioConfig::paper_defaults()
        }
        .with_adaptive_duration(1.5);
        assert_eq!(d.duration_s, 600.0);
    }

    #[test]
    fn default_topology_and_links_are_the_papers() {
        let c = ScenarioConfig::paper_defaults();
        assert_eq!(c.topology, TopologyKind::Grid);
        assert_eq!(c.jitter_ms, 0);
        assert!(c.link_model().is_none(), "constant links skip the wrapper");
        assert_eq!(c.misproclaim_fraction, 0.0);
        let net = c.build_network();
        assert_eq!(net.broker_count(), c.broker_count());
        assert!(net.is_grid());
    }

    #[test]
    fn broker_count_follows_the_topology() {
        let sf = ScenarioConfig {
            topology: TopologyKind::ScaleFree { edges_per_node: 2 },
            grid_side: 6,
            ..ScenarioConfig::paper_defaults()
        };
        assert_eq!(sf.broker_count(), 36);
        assert_eq!(sf.build_network().broker_count(), 36);
        let el = ScenarioConfig {
            topology: TopologyKind::EdgeList(Arc::new(vec![(0, 1), (1, 2)])),
            ..ScenarioConfig::paper_defaults()
        };
        assert_eq!(el.broker_count(), 3, "edge lists bring their own count");
    }

    #[test]
    fn link_knobs_produce_a_model_and_sub_zero_asymmetry_is_clamped() {
        let c = ScenarioConfig {
            jitter_ms: 5,
            link_asymmetry: 0.2,
            degraded_windows: vec![(10.0, 20.0, 3.0)],
            ..ScenarioConfig::paper_defaults()
        };
        let m = c.link_model().expect("non-constant links");
        assert_eq!(m.jitter, SimDuration::from_millis(5));
        assert_eq!(m.degraded.len(), 1);
        assert_eq!(m.degraded[0].start, SimTime::from_secs(10));
        // The model seed derives from the scenario seed: same scenario,
        // same jitter stream.
        assert_eq!(c.link_model(), c.link_model());
    }

    #[test]
    fn default_fault_plan_is_empty_and_compiles_to_nothing() {
        let c = ScenarioConfig::paper_defaults();
        assert!(c.faults.is_empty(), "defaults must stay on the fast path");
        let net = c.build_network();
        assert!(c.fault_schedule(&net).is_empty());
    }

    #[test]
    fn fault_plan_compiles_deterministically() {
        let c = ScenarioConfig::small().with_faults(FaultPlan {
            broker_crashes: vec![(3, 10.0, 40.0)],
            link_partitions: vec![(0, 1, 20.0, 50.0)],
            region_outages: vec![(12, 1, 100.0, 130.0)],
            crash_storm: Some((4, 30.0)),
            ..FaultPlan::default()
        });
        assert!(!c.faults.is_empty());
        let net = c.build_network();
        let a = c.fault_schedule(&net);
        let b = c.fault_schedule(&net);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same storm");
        // 4 storm crashes + explicit crash + partition + region outage.
        assert_eq!(a.windows().len(), 7);
        // The explicit crash window survives compilation verbatim.
        assert!(a.is_down(NodeId(3), SimTime::from_secs(11)));
        assert!(!a.is_down(NodeId(3), SimTime::from_secs(41)));
        // A different scenario seed reshuffles the storm.
        let mut other = c.clone();
        other.seed ^= 1;
        let shuffled = other.fault_schedule(&net);
        assert_ne!(format!("{a:?}"), format!("{shuffled:?}"));
    }

    #[test]
    fn protocol_labels_match_paper_curves() {
        assert_eq!(Protocol::Mhh.label(), "MHH");
        assert_eq!(Protocol::SubUnsub.label(), "sub-unsub");
        assert_eq!(Protocol::HomeBroker.label(), "HB");
        assert_eq!(Protocol::ALL.len(), 3);
    }
}
