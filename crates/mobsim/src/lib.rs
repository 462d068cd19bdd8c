//! # mhh-mobsim — evaluation harness
//!
//! Recreates the experimental environment of Section 5 of the MHH paper:
//! a k×k grid of base stations acting as event brokers, 10 clients per
//! broker, 20 % of clients mobile with exponentially distributed connection
//! and disconnection periods, one event per client per five minutes, and a
//! content-based workload tuned so each event matches 6.25 % of the clients.
//!
//! The harness runs any registered protocol on identical pre-generated
//! workloads, collects the paper's two metrics — *message overhead per
//! handoff* (hops) and *average handoff delay* — plus a
//! delivery-reliability audit, and sweeps the parameters of Figure 5
//! (connection-period length) and Figure 6 (network size), as well as the
//! mobility-model × protocol matrix enabled by `mhh-mobility`. Sweep points
//! are independent simulations and run in parallel on scoped worker threads
//! ([`mhh_mobility::sweep`]).
//!
//! Both experiment axes are open registries:
//!
//! * named scenario presets live in [`scenarios`];
//! * named protocol constructors live in [`protocols`] — the paper's three
//!   are builtin, external protocols join via
//!   [`protocols::register`] and run dyn-dispatched
//!   (`Box<dyn DynProtocol>`) through the exact same harness.
//!
//! Beyond the paper's fault-free setting, every scenario can carry a
//! [`FaultPlan`] (broker crashes, link partitions, region outages, or a
//! seeded crash storm). The runner compiles the plan into a
//! `simnet` fault schedule, schedules the overlay-repair drives from
//! `mhh-pubsub`, and attributes every lost or duplicated delivery to the
//! outage window that caused it in a per-run [`RecoveryLedger`] that
//! reconciles exactly with the delivery audit. The
//! [`experiments::failure_panel`] experiment compares all four protocols
//! (including the self-stabilizing PSVR variant from
//! [`ProtocolRegistry::extended`]) on the failure presets.
//!
//! The [`Sim`] builder is the one fluent entry point tying the axes
//! together:
//!
//! ```
//! use mhh_mobsim::{ModelKind, Sim};
//!
//! let result = Sim::scenario("trace-smoke")
//!     .protocol("mhh")
//!     .run()
//!     .unwrap();
//! assert!(result.reliable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod config;
pub mod experiments;
pub mod json;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod protocols;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod workload;

pub use builder::{Sim, SimBuilder, SimError};
pub use config::{FaultPlan, Protocol, ScenarioConfig};
pub use experiments::{
    failure_panel, figure5, figure6, mobility_matrix, proclaimed_comparison, reliability_panel,
    traffic_panel, Label, Panel, PanelPoint, Sweep, FAILURE_PRESETS, RELIABILITY_MODES,
    TRAFFIC_PRESETS,
};
pub use metrics::{
    GapPercentiles, HandoverKind, HandoverLedger, HandoverRecord, OutageRecord, RecoveryLedger,
    RunResult, TrafficReport,
};
pub use mhh_mobility::ModelKind;
pub use mhh_pubsub::FanoutMode;
pub use mhh_simnet::TopologyKind;
pub use protocols::{ProtocolRegistry, ProtocolSpec};
pub use runner::{run_named, run_scenario, run_spec, run_spec_perf};
pub use scenarios::Scenario;
pub use workload::Workload;
