//! The fluent simulation facade: one entry point to configure and run any
//! scenario × protocol × mobility-model × worker-count combination.
//!
//! [`Sim`] starts a builder from a named scenario preset (the
//! [`crate::scenarios`] registry) or a raw [`ScenarioConfig`];
//! [`SimBuilder`] layers overrides on top and ends in a run:
//!
//! ```
//! use mhh_mobsim::{ModelKind, Sim};
//!
//! let result = Sim::scenario("paper-fig5")
//!     .protocol("mhh")
//!     .mobility(ModelKind::ManhattanGrid)
//!     .grid_side(4)
//!     .clients_per_broker(3)
//!     .duration_s(300.0)
//!     .run()
//!     .unwrap();
//! assert!(result.reliable());
//! ```
//!
//! Lookup failures (unknown scenario or protocol name) are carried inside
//! the builder and surface as a [`SimError`] from the terminal call, so the
//! chain itself stays `?`-free. Protocol names resolve against the
//! process-wide [`ProtocolRegistry`] (builtin three plus anything passed to
//! [`crate::protocols::register`]) unless a local registry is supplied via
//! [`SimBuilder::registry`].

use std::time::Duration;

use mhh_mobility::sweep::{available_workers, map_parallel_budgeted};
use mhh_mobility::ModelKind;
use mhh_simnet::TopologyKind;

use crate::config::ScenarioConfig;
use crate::experiments::{self, Panel, Sweep};
use crate::metrics::RunResult;
use crate::protocols::ProtocolRegistry;
use crate::runner::run_spec;
use crate::scenarios;

/// What went wrong while resolving a builder chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No scenario preset with this name.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// All registered preset names.
        available: Vec<String>,
    },
    /// No protocol with this name in the registry in use.
    UnknownProtocol {
        /// The requested name.
        name: String,
        /// All registered protocol names.
        available: Vec<String>,
    },
    /// No topology kind with this name.
    UnknownTopology {
        /// The requested name.
        name: String,
        /// All parseable topology names.
        available: Vec<String>,
    },
}

impl SimError {
    pub(crate) fn unknown_scenario(name: &str) -> SimError {
        SimError::UnknownScenario {
            name: name.to_string(),
            available: scenarios::registry()
                .iter()
                .map(|s| s.name.to_string())
                .collect(),
        }
    }

    pub(crate) fn unknown_protocol(name: &str, registry: &ProtocolRegistry) -> SimError {
        SimError::UnknownProtocol {
            name: name.to_string(),
            available: registry.names().iter().map(|n| n.to_string()).collect(),
        }
    }

    pub(crate) fn unknown_topology(name: &str) -> SimError {
        SimError::UnknownTopology {
            name: name.to_string(),
            available: TopologyKind::names()
                .iter()
                .map(|n| n.to_string())
                .collect(),
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownScenario { name, available } => write!(
                f,
                "unknown scenario {name:?}; registered scenarios: {}",
                available.join(", ")
            ),
            SimError::UnknownProtocol { name, available } => write!(
                f,
                "unknown protocol {name:?}; registered protocols: {}",
                available.join(", ")
            ),
            SimError::UnknownTopology { name, available } => write!(
                f,
                "unknown topology {name:?}; parseable topologies: {} \
                 (edge lists go through ScenarioConfig::topology directly)",
                available.join(", ")
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Entry point of the fluent API.
pub struct Sim;

impl Sim {
    /// Start from a named preset of the scenario registry. An unknown name
    /// is reported by the terminal `run`/sweep call, not here.
    pub fn scenario(name: &str) -> SimBuilder {
        SimBuilder::new(
            scenarios::find(name)
                .map(|s| s.config)
                .ok_or_else(|| SimError::unknown_scenario(name)),
        )
    }

    /// Start from an explicit configuration.
    pub fn config(config: ScenarioConfig) -> SimBuilder {
        SimBuilder::new(Ok(config))
    }
}

/// Accumulates scenario, protocol, mobility and execution choices; terminal
/// calls ([`run`](SimBuilder::run), [`run_all`](SimBuilder::run_all),
/// [`figure5`](SimBuilder::figure5), [`figure6`](SimBuilder::figure6),
/// [`matrix`](SimBuilder::matrix)) execute the simulation(s). Cloning is
/// cheap, so one configured builder can seed several runs.
#[derive(Clone)]
pub struct SimBuilder {
    config: Result<ScenarioConfig, SimError>,
    protocol: String,
    workers: Option<usize>,
    registry: Option<ProtocolRegistry>,
    budget: Option<Duration>,
}

impl SimBuilder {
    fn new(config: Result<ScenarioConfig, SimError>) -> Self {
        SimBuilder {
            config,
            protocol: "mhh".to_string(),
            workers: None,
            registry: None,
            budget: None,
        }
    }

    /// Select the protocol by registry name (default `"mhh"`).
    pub fn protocol(mut self, name: impl Into<String>) -> Self {
        self.protocol = name.into();
        self
    }

    /// Replace the mobility model.
    pub fn mobility(mut self, kind: ModelKind) -> Self {
        self.configure_in_place(|c| c.mobility = kind);
        self
    }

    /// Select the network topology by name (`"grid"`, `"torus"`,
    /// `"random-geometric"`, `"scale-free"`) with default parameters. An
    /// unknown name surfaces as [`SimError::UnknownTopology`] from the
    /// terminal call. Parameterized or imported topologies go through
    /// [`topology_kind`](Self::topology_kind).
    pub fn topology(mut self, name: &str) -> Self {
        match TopologyKind::parse(name) {
            Some(kind) => self.configure_in_place(|c| c.topology = kind),
            None => {
                if self.config.is_ok() {
                    self.config = Err(SimError::unknown_topology(name));
                }
            }
        }
        self
    }

    /// Replace the network topology with an explicit kind (parameter
    /// points, imported edge lists).
    pub fn topology_kind(mut self, kind: TopologyKind) -> Self {
        self.configure_in_place(|c| c.topology = kind);
        self
    }

    /// Bound the per-message link jitter (milliseconds); `0` restores the
    /// paper's constant latencies (and the byte-identical fast path).
    pub fn jitter_ms(mut self, jitter_ms: u64) -> Self {
        self.configure_in_place(|c| c.jitter_ms = jitter_ms);
        self
    }

    /// Set the per-direction link asymmetry (each ordered pair's latency is
    /// scaled by a stable factor in `[1, 1 + asymmetry]`).
    pub fn link_asymmetry(mut self, asymmetry: f64) -> Self {
        self.configure_in_place(|c| c.link_asymmetry = asymmetry.max(0.0));
        self
    }

    /// Replace the fault-injection plan (broker crashes, link partitions,
    /// region outages, seeded crash storms). An empty plan — the default —
    /// keeps the run on the byte-identical zero-fault fast path.
    pub fn faults(mut self, plan: crate::config::FaultPlan) -> Self {
        self.configure_in_place(|c| c.faults = plan);
        self
    }

    /// Make this fraction of proclaimed moves announce a *wrong*
    /// destination broker (client announces B, reconnects at C) —
    /// prediction error exercising MHH's pending-handoff/abort path.
    pub fn misproclaim_fraction(mut self, fraction: f64) -> Self {
        self.configure_in_place(|c| c.misproclaim_fraction = fraction.clamp(0.0, 1.0));
        self
    }

    /// Number of sweep worker threads (default: all cores). Single runs are
    /// one simulation and always execute on the calling thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Worker shards for the conservative-parallel engine *inside* each run
    /// (`0`/`1` = the serial engine; results are byte-identical either way).
    /// Orthogonal to [`workers`](Self::workers), which fans out *across*
    /// runs; the sweep executor budgets the two levels against each other so
    /// `workers(w)` never uses more than `w` threads in total.
    pub fn engine_workers(mut self, workers: usize) -> Self {
        self.configure_in_place(|c| c.engine_workers = workers);
        self
    }

    /// Replace the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.configure_in_place(|c| c.seed = seed);
        self
    }

    /// Replace the proclamation override fraction (§4.1): moves the model
    /// left silent proclaim with this probability. `1.0` makes every move
    /// proclaimed, `0.0` (the default) defers to the model.
    pub fn proclaimed_fraction(mut self, fraction: f64) -> Self {
        self.configure_in_place(|c| c.proclaimed_fraction = fraction.clamp(0.0, 1.0));
        self
    }

    /// Bound the wall-clock time of the sweep terminals
    /// ([`figure5`](Self::figure5), [`figure6`](Self::figure6),
    /// [`matrix`](Self::matrix)): points that cannot start before the
    /// budget elapses are reported in the result's `skipped` list instead
    /// of running. Single runs ignore the budget.
    pub fn budget_ms(mut self, budget_ms: u64) -> Self {
        self.budget = Some(Duration::from_millis(budget_ms));
        self
    }

    /// Replace the simulated duration (seconds).
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.configure_in_place(|c| c.duration_s = duration_s);
        self
    }

    /// Replace the grid side length (k ⇒ k² brokers).
    pub fn grid_side(mut self, side: usize) -> Self {
        self.configure_in_place(|c| c.grid_side = side);
        self
    }

    /// Replace the per-broker client count.
    pub fn clients_per_broker(mut self, clients: usize) -> Self {
        self.configure_in_place(|c| c.clients_per_broker = clients);
        self
    }

    /// Replace the mean modeled payload size in bytes (`0` = payload
    /// modeling off, the byte-identical pre-payload path).
    pub fn payload_bytes(mut self, mean: u32) -> Self {
        self.configure_in_place(|c| c.payload_bytes_mean = mean);
        self
    }

    /// Replace the broker fan-out mode (serialize-once cached vs the
    /// clone-per-destination baseline). Delivery results are byte-identical
    /// between modes; only the serialization accounting differs.
    pub fn fanout_mode(mut self, mode: mhh_pubsub::FanoutMode) -> Self {
        self.configure_in_place(|c| c.fanout_mode = mode);
        self
    }

    /// Set the per-message link loss and corruption probabilities (clamped
    /// to `[0, 1]`); `(0, 0)` restores the lossless byte-identical fast
    /// path.
    pub fn loss(mut self, loss_rate: f64, corruption_rate: f64) -> Self {
        self.configure_in_place(|c| {
            c.loss_rate = loss_rate.clamp(0.0, 1.0);
            c.corruption_rate = corruption_rate.clamp(0.0, 1.0);
        });
        self
    }

    /// Set the broker duplicate-suppression window (`0` = off).
    pub fn dedup_window(mut self, window: usize) -> Self {
        self.configure_in_place(|c| c.dedup_window = window);
        self
    }

    /// Enable/disable publisher-side ack/retransmit.
    pub fn retransmit(mut self, retransmit: bool) -> Self {
        self.configure_in_place(|c| c.retransmit = retransmit);
        self
    }

    /// Set the neighbour-replicated checkpoint period in milliseconds
    /// (`0` = the legacy local self-checkpoint restore).
    pub fn checkpoint_replication_ms(mut self, period_ms: u64) -> Self {
        self.configure_in_place(|c| c.checkpoint_replication_ms = period_ms);
        self
    }

    /// Switch to a storm-shaped workload (static publishers/subscribers, no
    /// mobility); `(0, 0)` restores the paper's mobile population.
    pub fn storm(mut self, publishers: u32, subscribers: u32) -> Self {
        self.configure_in_place(|c| {
            c.storm_publishers = publishers;
            c.storm_subscribers = subscribers;
        });
        self
    }

    /// Arbitrary configuration access, for knobs without a dedicated
    /// builder method.
    pub fn configure(mut self, f: impl FnOnce(&mut ScenarioConfig)) -> Self {
        self.configure_in_place(f);
        self
    }

    /// Resolve protocol names against this registry instead of the
    /// process-wide one (hermetic tests, experiment-local protocol sets).
    pub fn registry(mut self, registry: ProtocolRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    fn configure_in_place(&mut self, f: impl FnOnce(&mut ScenarioConfig)) {
        if let Ok(config) = &mut self.config {
            f(config);
        }
    }

    /// What every terminal call starts from: the configuration (or the
    /// lookup error the chain carried) and how to execute — this builder's
    /// registry, worker count and budget where set, [`Sweep::default`]'s
    /// otherwise.
    fn resolve(self) -> Result<(ScenarioConfig, Sweep), SimError> {
        let sweep = Sweep {
            registry: self.registry.unwrap_or_else(ProtocolRegistry::global),
            workers: self.workers.unwrap_or_else(available_workers),
            budget: self.budget,
        };
        Ok((self.config?, sweep))
    }

    /// The fully-resolved configuration (mainly for inspection and tests).
    pub fn build_config(self) -> Result<ScenarioConfig, SimError> {
        self.config
    }

    /// Run the configured scenario with the selected protocol.
    pub fn run(self) -> Result<RunResult, SimError> {
        let protocol = self.protocol.clone();
        let (config, Sweep { registry, .. }) = self.resolve()?;
        let spec = registry
            .find(&protocol)
            .ok_or_else(|| SimError::unknown_protocol(&protocol, &registry))?;
        Ok(run_spec(&config, spec))
    }

    /// Run the configured scenario once per registered protocol (paired
    /// comparison over the identical workload), in registry order, fanned
    /// out over the configured workers. Ignores any configured budget; use
    /// [`run_all_budgeted`](Self::run_all_budgeted) to honour it.
    pub fn run_all(self) -> Result<Vec<RunResult>, SimError> {
        // One shared fan-out path: an unbudgeted map completes every spec.
        let (results, skipped) = Self {
            budget: None,
            ..self
        }
        .run_all_budgeted()?;
        debug_assert!(skipped.is_empty());
        Ok(results)
    }

    /// [`run_all`](Self::run_all) honouring any
    /// [`budget_ms`](Self::budget_ms): protocols that cannot *start* before
    /// the budget elapses are dropped from the results and reported by
    /// label in the second element (never silently truncated). The CI smoke
    /// of the `city-scale` stress preset runs through this, so a slow
    /// machine degrades to fewer protocols instead of a hung job.
    pub fn run_all_budgeted(self) -> Result<(Vec<RunResult>, Vec<String>), SimError> {
        let (config, sweep) = self.resolve()?;
        let specs = sweep.registry.specs();
        let map = map_parallel_budgeted(specs, sweep.workers, sweep.budget, |spec| {
            run_spec(&config, spec)
        });
        let skipped = map
            .skipped
            .iter()
            .map(|&i| specs[i].label().to_string())
            .collect();
        Ok((map.results.into_iter().flatten().collect(), skipped))
    }

    /// Run the Figure 5 sweep (connection-period lengths × every registered
    /// protocol) on top of this configuration, honouring any
    /// [`budget_ms`](Self::budget_ms).
    pub fn figure5(self, conn_periods_s: &[f64]) -> Result<Panel, SimError> {
        let (config, sweep) = self.resolve()?;
        Ok(experiments::figure5(&config, conn_periods_s, &sweep))
    }

    /// Run the Figure 6 sweep (grid sizes × every registered protocol) on
    /// top of this configuration, honouring any
    /// [`budget_ms`](Self::budget_ms).
    pub fn figure6(self, grid_sides: &[usize]) -> Result<Panel, SimError> {
        let (config, sweep) = self.resolve()?;
        Ok(experiments::figure6(&config, grid_sides, &sweep))
    }

    /// Run the mobility-model × protocol matrix: every given model
    /// parameter point against every registered protocol, honouring any
    /// [`budget_ms`](Self::budget_ms).
    pub fn matrix(self, models: &[ModelKind]) -> Result<Panel, SimError> {
        let (config, sweep) = self.resolve()?;
        Ok(experiments::mobility_matrix(&config, models, &sweep))
    }

    /// Run the reactive-vs-proclaimed comparison (§4.2 vs §4.1): every
    /// registered protocol twice on the identical move schedule, once with
    /// `proclaimed_fraction = 0.0` and once with `1.0`, honouring any
    /// [`budget_ms`](Self::budget_ms) (a pair whose halves cannot both
    /// complete is dropped and recorded as skipped).
    pub fn compare_proclaimed(self) -> Result<Panel, SimError> {
        let (config, sweep) = self.resolve()?;
        Ok(experiments::proclaimed_comparison(&config, &sweep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_names_surface_at_the_terminal_call() {
        let err = Sim::scenario("no-such-scenario").run().unwrap_err();
        match err {
            SimError::UnknownScenario { name, available } => {
                assert_eq!(name, "no-such-scenario");
                assert!(available.iter().any(|s| s == "paper-fig5"));
            }
            other => panic!("wrong error: {other:?}"),
        }

        let err = Sim::scenario("trace-smoke")
            .protocol("no-such-protocol")
            .run()
            .unwrap_err();
        match err {
            SimError::UnknownProtocol { name, available } => {
                assert_eq!(name, "no-such-protocol");
                assert!(available.iter().any(|s| s == "mhh"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        // Errors render actionably.
        let shown = Sim::scenario("nope").run().unwrap_err().to_string();
        assert!(
            shown.contains("nope") && shown.contains("paper-fig5"),
            "{shown}"
        );
    }

    #[test]
    fn run_all_budgeted_without_budget_matches_run_all() {
        let shrink = |b: SimBuilder| {
            b.grid_side(3)
                .clients_per_broker(2)
                .duration_s(120.0)
                .workers(2)
        };
        let (budgeted, skipped) = shrink(Sim::scenario("trace-smoke"))
            .run_all_budgeted()
            .unwrap();
        assert!(
            skipped.is_empty(),
            "no budget, nothing skipped: {skipped:?}"
        );
        let plain = shrink(Sim::scenario("trace-smoke")).run_all().unwrap();
        assert_eq!(format!("{budgeted:?}"), format!("{plain:?}"));
        // An already-expired budget skips every protocol, reported by label.
        let (none, skipped) = shrink(Sim::scenario("trace-smoke"))
            .budget_ms(0)
            .run_all_budgeted()
            .unwrap();
        assert!(none.is_empty());
        assert_eq!(skipped.len(), 3, "all three builtins reported: {skipped:?}");
        assert!(skipped.iter().any(|s| s == "MHH"));
    }

    #[test]
    fn builder_overrides_compose() {
        let config = Sim::scenario("paper-fig5")
            .mobility(ModelKind::ManhattanGrid)
            .topology("scale-free")
            .jitter_ms(4)
            .link_asymmetry(0.1)
            .misproclaim_fraction(0.5)
            .grid_side(4)
            .clients_per_broker(2)
            .duration_s(120.0)
            .seed(9)
            .configure(|c| c.publish_interval_s = 30.0)
            .build_config()
            .unwrap();
        assert_eq!(config.grid_side, 4);
        assert_eq!(config.clients_per_broker, 2);
        assert_eq!(config.seed, 9);
        assert_eq!(config.publish_interval_s, 30.0);
        assert_eq!(config.mobility, ModelKind::ManhattanGrid);
        assert_eq!(
            config.topology,
            TopologyKind::ScaleFree { edges_per_node: 2 }
        );
        assert_eq!(config.jitter_ms, 4);
        assert_eq!(config.link_asymmetry, 0.1);
        assert_eq!(config.misproclaim_fraction, 0.5);
    }

    #[test]
    fn unknown_topology_surfaces_at_the_terminal_call() {
        let err = Sim::scenario("trace-smoke")
            .topology("mesh-of-trees")
            .run()
            .unwrap_err();
        match err {
            SimError::UnknownTopology { name, available } => {
                assert_eq!(name, "mesh-of-trees");
                assert!(available.iter().any(|t| t == "scale-free"));
            }
            other => panic!("wrong error: {other:?}"),
        }
        let shown = Sim::scenario("trace-smoke")
            .topology("nope")
            .run()
            .unwrap_err()
            .to_string();
        assert!(shown.contains("nope") && shown.contains("torus"), "{shown}");
    }

    #[test]
    fn fluent_run_executes_the_scenario() {
        let result = Sim::scenario("trace-smoke").protocol("mhh").run().unwrap();
        assert_eq!(result.protocol, "MHH");
        assert_eq!(result.handoffs, 5, "trace-smoke replays five moves");
        assert!(result.reliable(), "{:?}", result.audit);
    }

    #[test]
    fn fluent_faults_override_reaches_the_run() {
        let plan = crate::config::FaultPlan {
            broker_crashes: vec![(0, 30.0, 60.0)],
            ..crate::config::FaultPlan::default()
        };
        let result = Sim::scenario("trace-smoke")
            .protocol("mhh")
            .duration_s(200.0)
            .faults(plan)
            .run()
            .unwrap();
        assert_eq!(result.recovery.len(), 1, "one outage window recorded");
        assert!(result.recovery.reconciles_with(&result.audit));
    }

    #[test]
    fn nested_sweep_and_parallel_engine_compose_deterministically() {
        // Sweep fan-out × parallel engine: the executor hands each of its
        // workers a slice of the 8-thread budget, the nested engines clamp
        // to it, and every metric stays byte-identical to the fully serial
        // run — the nested-parallelism acceptance cell.
        let shrink = |b: SimBuilder| b.grid_side(3).clients_per_broker(2).duration_s(120.0);
        let serial = shrink(Sim::scenario("trace-smoke"))
            .workers(1)
            .run_all()
            .unwrap();
        let nested = || {
            shrink(Sim::scenario("trace-smoke"))
                .workers(8)
                .engine_workers(8)
                .run_all()
                .unwrap()
        };
        let a = nested();
        let b = nested();
        assert_eq!(format!("{serial:?}"), format!("{a:?}"));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn run_all_is_a_paired_comparison_in_registry_order() {
        let results = Sim::scenario("trace-smoke")
            .registry(ProtocolRegistry::builtin())
            .workers(2)
            .run_all()
            .unwrap();
        let labels: Vec<&str> = results.iter().map(|r| r.protocol.as_str()).collect();
        assert_eq!(labels, vec!["sub-unsub", "MHH", "HB"]);
        // Identical workload for every protocol.
        assert!(results.windows(2).all(|w| w[0].handoffs == w[1].handoffs));
    }
}
