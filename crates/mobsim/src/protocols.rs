//! The protocol registry: named constructors for mobility-management
//! protocols, mirroring the scenario registry ([`crate::scenarios`]).
//!
//! A [`ProtocolSpec`] packages everything the harness needs to run a
//! protocol it has never heard of: a kebab-case registry key, the display
//! label used in reports, a one-line summary and a constructor producing one
//! type-erased protocol instance (`Box<dyn DynProtocol>`) per broker. The
//! constructor sees the full [`ScenarioConfig`] *and* the run's shared
//! broker [`Network`] so protocols can derive run-wide parameters — the
//! sub-unsub safety interval, for example, is the overlay diameter times
//! the wired hop latency (stretched to the link model's worst case when
//! links jitter) — without rebuilding the topology.
//!
//! [`ProtocolRegistry::builtin`] carries the paper's three protocols in the
//! figures' column order (sub-unsub, MHH, home-broker). External protocols
//! join either a local registry (`registry.register(spec)`) or the
//! process-wide one ([`register`]), which every by-name lookup — notably
//! [`Sim`](crate::builder::Sim) — resolves against:
//!
//! ```
//! use mhh_mobsim::protocols::{self, ProtocolSpec};
//! use mhh_mobsim::Sim;
//! use mhh_pubsub::{erase, broker::NoProtocol};
//!
//! protocols::register(ProtocolSpec::new(
//!     "static",
//!     "static",
//!     "no mobility support: moved clients just re-subscribe",
//!     |_config, _network| Box::new(|_broker| erase(NoProtocol)),
//! ));
//! let result = Sim::scenario("trace-smoke")
//!     .protocol("static")
//!     .run()
//!     .unwrap();
//! assert_eq!(result.protocol, "static");
//! ```

use std::sync::{Arc, Mutex, OnceLock};

use mhh_baselines::{HomeBroker, Psvr, SubUnsub};
use mhh_core::Mhh;
use mhh_pubsub::{erase, BrokerId, DynProtocol};
use mhh_simnet::{Network, SimDuration};

use crate::config::ScenarioConfig;

/// Constructor producing one protocol instance per broker; the boxed
/// closure is created fresh per run, so it may carry mutable run-local
/// state.
pub type BrokerFactory = Box<dyn FnMut(BrokerId) -> Box<dyn DynProtocol>>;

/// The spec constructor: sees the scenario and the run's shared network,
/// returns the per-broker factory.
type SpecConstructor = dyn Fn(&ScenarioConfig, &Network) -> BrokerFactory + Send + Sync;

/// The sub-unsub safety interval for one run: "the maximum time for message
/// delivery between any two stations" (Section 5.1) — the overlay diameter
/// times the wired hop latency, plus one hop of slack, stretched to the
/// link model's worst case when the scenario jitters, skews or degrades
/// links. Events forward hop-by-hop over the overlay, so each of the
/// `wait_hops` links samples its **own** jitter — the bound budgets one
/// jitter allowance per hop (`worst_case_path`), not one per path. Shared
/// by the generic and the registry path.
pub fn sub_unsub_wait(config: &ScenarioConfig, network: &Network) -> SimDuration {
    let wait_hops = network.tree_diameter() as u64 + 1;
    let base = SimDuration::from_millis(wait_hops * config.wired_ms);
    match config.link_model() {
        Some(model) => model.worst_case_path(base, wait_hops),
        None => base,
    }
}

/// PSVR's subscription-lease interval. Generous relative to the scenarios'
/// typical disconnect gaps so soft-state expiry punishes genuinely
/// abandoned roots, not ordinary handoffs.
const PSVR_LEASE: SimDuration = SimDuration::from_millis(10_000);

/// The MHH constructor of the registry spec: plain [`Mhh::new`] on the
/// zero-fault fast path, [`Mhh::with_recovery`] (the migration retry/abort
/// watchdog) when the scenario injects faults.
fn mhh_for(config: &ScenarioConfig) -> Mhh {
    if config.faults.is_empty() {
        Mhh::new()
    } else {
        Mhh::with_recovery(SimDuration::from_secs_f64(config.faults.repair_timeout_s))
    }
}

/// One registered protocol: name, report label, summary and constructor.
#[derive(Clone)]
pub struct ProtocolSpec {
    name: String,
    label: String,
    summary: String,
    make: Arc<SpecConstructor>,
}

impl std::fmt::Debug for ProtocolSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolSpec")
            .field("name", &self.name)
            .field("label", &self.label)
            .field("summary", &self.summary)
            .finish_non_exhaustive()
    }
}

impl ProtocolSpec {
    /// Build a spec. `name` is the registry key (kebab-case), `label` the
    /// display string used in reports and
    /// [`RunResult::protocol`](crate::metrics::RunResult::protocol), `make`
    /// the per-run
    /// constructor.
    pub fn new(
        name: impl Into<String>,
        label: impl Into<String>,
        summary: impl Into<String>,
        make: impl Fn(&ScenarioConfig, &Network) -> BrokerFactory + Send + Sync + 'static,
    ) -> Self {
        ProtocolSpec {
            name: name.into(),
            label: label.into(),
            summary: summary.into(),
            make: Arc::new(make),
        }
    }

    /// Registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Display label used in reports (the paper's curve labels for the
    /// builtin three).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// One-line description.
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// Create the per-broker constructor for one run of `config` over the
    /// run's shared `network`.
    pub fn instantiate(&self, config: &ScenarioConfig, network: &Network) -> BrokerFactory {
        (self.make)(config, network)
    }
}

/// An ordered, name-keyed collection of protocol specs. Order is
/// significant: reports list protocol columns in registry order.
#[derive(Debug, Clone, Default)]
pub struct ProtocolRegistry {
    specs: Vec<ProtocolSpec>,
}

impl ProtocolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProtocolRegistry::default()
    }

    /// The paper's three protocols, in the figures' column order.
    pub fn builtin() -> Self {
        let mut reg = ProtocolRegistry::new();
        reg.register(ProtocolSpec::new(
            "sub-unsub",
            "sub-unsub",
            "re-subscribe at the new broker, wait out the safety interval, \
             then cancel the old subscription and shuttle the stored queue",
            |config: &ScenarioConfig, network: &Network| {
                let wait = sub_unsub_wait(config, network);
                Box::new(move |_| erase(SubUnsub::new(wait)))
            },
        ));
        reg.register(ProtocolSpec::new(
            "mhh",
            "MHH",
            "the paper's multi-hop handoff protocol: anchor chain, paced \
             event migration, proclaimed and silent moves",
            |config: &ScenarioConfig, _network| {
                let config = config.clone();
                Box::new(move |_| erase(mhh_for(&config)))
            },
        ));
        reg.register(ProtocolSpec::new(
            "home-broker",
            "HB",
            "Mobile-IP style: a fixed home broker holds the subscription and \
             triangle-routes events to the client's current location",
            |_config, _network| Box::new(|_| erase(HomeBroker::new())),
        ));
        reg
    }

    /// The paper's three protocols plus PSVR, the self-stabilizing
    /// virtual-ring protocol the failure panel compares them against.
    /// Kept out of [`builtin`](Self::builtin) so the paper-reproduction
    /// experiments keep exactly the figures' three columns.
    pub fn extended() -> Self {
        let mut reg = Self::builtin();
        reg.register(ProtocolSpec::new(
            "psvr",
            "PSVR",
            "self-stabilizing virtual-ring protocol: soft-state subscription \
             leases, ring-sweep handoffs, recovery by convergence instead of \
             a dedicated dialogue",
            |_config: &ScenarioConfig, network: &Network| {
                let ring = network.broker_count() as u32;
                Box::new(move |_| erase(Psvr::new(ring, PSVR_LEASE)))
            },
        ));
        reg
    }

    /// The process-wide registry: builtin protocols plus everything added
    /// through [`register`] (the free function), as a snapshot.
    pub fn global() -> Self {
        global_lock()
            .lock()
            .expect("protocol registry poisoned")
            .clone()
    }

    /// Add (or replace, when the name is already taken) a spec. Returns
    /// `&mut self` so registrations chain.
    ///
    /// # Panics
    /// Panics when the spec's *label* is already used by a
    /// differently-named entry: results, curves and report columns are
    /// keyed by display label, so two protocols sharing one label would
    /// silently merge into one corrupted series. Use
    /// [`try_register`](Self::try_register) to handle the clash instead.
    pub fn register(&mut self, spec: ProtocolSpec) -> &mut Self {
        if let Err(msg) = self.try_register(spec) {
            panic!("{msg}");
        }
        self
    }

    /// Like [`register`](Self::register), but reports a label clash as an
    /// error instead of panicking.
    pub fn try_register(&mut self, spec: ProtocolSpec) -> Result<(), String> {
        if let Some(clash) = self
            .specs
            .iter()
            .find(|s| s.name != spec.name && s.label == spec.label)
        {
            return Err(format!(
                "protocol label {:?} of {:?} is already used by {:?}; labels \
                 key results and report columns, so they must be unique",
                spec.label, spec.name, clash.name
            ));
        }
        if let Some(existing) = self.specs.iter_mut().find(|s| s.name == spec.name) {
            *existing = spec;
        } else {
            self.specs.push(spec);
        }
        Ok(())
    }

    /// Look up a spec by registry key.
    pub fn find(&self, name: &str) -> Option<&ProtocolSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// All specs, in registration order.
    pub fn specs(&self) -> &[ProtocolSpec] {
        &self.specs
    }

    /// All registry keys, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Number of registered protocols.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

fn global_lock() -> &'static Mutex<ProtocolRegistry> {
    static GLOBAL: OnceLock<Mutex<ProtocolRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(ProtocolRegistry::builtin()))
}

/// Register a protocol process-wide, making it resolvable by name from
/// [`Sim::protocol`](crate::builder::SimBuilder::protocol), `run_named` and
/// the registry-driven experiments. Same-name registration replaces.
///
/// # Panics
/// Panics (without poisoning the registry) when the label is already used
/// by a differently-named entry — see [`ProtocolRegistry::register`].
pub fn register(spec: ProtocolSpec) {
    let result = global_lock()
        .lock()
        .expect("protocol registry poisoned")
        .try_register(spec);
    if let Err(msg) = result {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_pubsub::broker::NoProtocol;

    #[test]
    fn builtin_lists_the_papers_three_in_figure_order() {
        let reg = ProtocolRegistry::builtin();
        assert_eq!(reg.names(), vec!["sub-unsub", "mhh", "home-broker"]);
        assert!(reg.len() >= 3);
        assert!(reg.find("mhh").is_some());
        assert!(reg.find("no-such-protocol").is_none());
    }

    #[test]
    fn every_builtin_constructs_a_protocol_reporting_its_own_name() {
        let config = ScenarioConfig::small();
        for spec in ProtocolRegistry::builtin().specs() {
            let network = config.build_network();
            let mut factory = spec.instantiate(&config, &network);
            let proto = factory(BrokerId(0));
            // The protocol's self-reported name round-trips to the registry
            // entry it came from: it is either the registry key ("home-
            // broker") or the report label ("MHH", which abbreviates to the
            // "HB"-style curve labels only in tables).
            assert!(
                proto.name() == spec.name() || proto.name() == spec.label(),
                "spec {} constructed a protocol calling itself {:?}",
                spec.name(),
                proto.name()
            );
        }
    }

    #[test]
    fn extended_adds_psvr_after_the_builtin_three() {
        let reg = ProtocolRegistry::extended();
        assert_eq!(reg.names(), vec!["sub-unsub", "mhh", "home-broker", "psvr"]);
        assert_eq!(reg.find("psvr").unwrap().label(), "PSVR");
        // The paper-reproduction registry stays exactly the figures' three.
        assert_eq!(ProtocolRegistry::builtin().len(), 3);
        let config = ScenarioConfig::small();
        let network = config.build_network();
        let mut factory = reg.find("psvr").unwrap().instantiate(&config, &network);
        assert_eq!(factory(BrokerId(0)).name(), "PSVR");
    }

    #[test]
    fn mhh_constructor_is_fault_aware() {
        use crate::config::FaultPlan;
        let plain = ScenarioConfig::small();
        assert_eq!(
            format!("{:?}", mhh_for(&plain)),
            format!("{:?}", Mhh::new()),
            "zero-fault scenarios construct the stock protocol"
        );
        let faulty = plain.with_faults(FaultPlan {
            broker_crashes: vec![(0, 1.0, 2.0)],
            ..FaultPlan::default()
        });
        assert_ne!(
            format!("{:?}", mhh_for(&faulty)),
            format!("{:?}", Mhh::new()),
            "fault plans arm the migration retry watchdog"
        );
    }

    #[test]
    fn local_registration_is_open_and_replaces_by_name() {
        let mut reg = ProtocolRegistry::builtin();
        reg.register(ProtocolSpec::new(
            "static",
            "static",
            "no mobility support",
            |_, _| Box::new(|_| erase(NoProtocol)),
        ));
        assert_eq!(reg.len(), 4);
        assert_eq!(reg.find("static").unwrap().label(), "static");
        // Replacement keeps the count and position.
        reg.register(ProtocolSpec::new(
            "static",
            "static-v2",
            "replaced",
            |_, _| Box::new(|_| erase(NoProtocol)),
        ));
        assert_eq!(reg.len(), 4);
        assert_eq!(reg.find("static").unwrap().label(), "static-v2");
        assert_eq!(reg.names()[3], "static");
    }

    #[test]
    #[should_panic(expected = "labels key results")]
    fn label_collisions_across_names_are_rejected() {
        // Results, curves and report columns are keyed by label; a second
        // name with the builtin "MHH" label would silently merge series.
        let mut reg = ProtocolRegistry::builtin();
        reg.register(ProtocolSpec::new(
            "mhh-tuned",
            "MHH",
            "tuned variant reusing the builtin label",
            |_, _| Box::new(|_| erase(Mhh::new())),
        ));
    }
}
