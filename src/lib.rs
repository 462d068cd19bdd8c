//! # mhh-suite — reproduction of "MHH: A Novel Protocol for Mobility
//! Management in Publish/Subscribe Systems" (ICPP 2007)
//!
//! This umbrella crate re-exports the workspace members under short names and
//! hosts the runnable examples and the cross-crate integration tests.
//!
//! * [`simnet`] — deterministic discrete-event network simulator (grid
//!   topologies, MST overlays, FIFO links, hop accounting).
//! * [`pubsub`] — content-based publish/subscribe substrate (events, filters,
//!   covering, filter tables, reverse-path-forwarding brokers, queues).
//! * [`mhh`] — the paper's contribution: the multi-hop handoff protocol.
//! * [`baselines`] — the comparison protocols: sub-unsub and home-broker.
//! * [`mobility`] — pluggable deterministic mobility models (uniform random,
//!   random waypoint, Manhattan grid, hotspot commuter, trace playback) and
//!   the parallel sweep executor.
//! * [`mobsim`] — the evaluation harness: workloads, scenario and protocol
//!   registries, the fluent [`mobsim::Sim`] builder, metrics and the
//!   Figure 5 / Figure 6 / model-matrix sweeps.
//!
//! ## Quick start
//!
//! One fluent chain configures and runs any scenario × protocol × mobility
//! combination:
//!
//! ```
//! use mhh_suite::mobsim::Sim;
//!
//! let result = Sim::scenario("trace-smoke").protocol("mhh").run().unwrap();
//! assert!(result.reliable(), "MHH delivers exactly-once and in order");
//! assert!(result.handoffs > 0);
//! ```
//!
//! The paper's three protocols also have a typed shorthand:
//!
//! ```
//! use mhh_suite::mobsim::{run_scenario, Protocol, ScenarioConfig};
//!
//! let result = run_scenario(&ScenarioConfig::small(), Protocol::Mhh);
//! assert!(result.reliable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mhh_baselines as baselines;
pub use mhh_core as mhh;
pub use mhh_mobility as mobility;
pub use mhh_mobsim as mobsim;
pub use mhh_pubsub as pubsub;
pub use mhh_simnet as simnet;
