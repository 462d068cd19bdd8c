//! The scenario registry: named presets combining a [`ScenarioConfig`] with
//! a mobility model, so experiments, examples and benches can refer to
//! well-known setups by name instead of re-tuning parameters.
//!
//! ```
//! use mhh_mobsim::scenarios;
//! use mhh_mobsim::{run_scenario, Protocol};
//!
//! let preset = scenarios::find("trace-smoke").expect("registered");
//! let result = run_scenario(&preset.config, Protocol::Mhh);
//! assert!(result.reliable());
//! ```

use std::sync::Arc;

use mhh_mobility::{ModelKind, TraceRecord};
use mhh_simnet::TopologyKind;

use crate::config::{FaultPlan, ScenarioConfig};

/// One named preset.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry key (kebab-case).
    pub name: &'static str,
    /// One-line description of what the preset stresses.
    pub summary: &'static str,
    /// The full configuration, including the mobility model.
    pub config: ScenarioConfig,
}

/// All registered presets.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "paper-fig5",
            summary: "The paper's Figure 5 environment: 100 brokers, 1000 clients, \
                      uniform random mobility; sweep conn_mean_s externally.",
            config: ScenarioConfig::paper_defaults(),
        },
        Scenario {
            name: "paper-fig6",
            summary: "The paper's Figure 6 environment (same base; sweep grid_side \
                      externally).",
            config: ScenarioConfig::paper_defaults(),
        },
        Scenario {
            name: "paper-fig5-proclaimed",
            summary: "The Figure 5 environment with every move proclaimed (§4.1): \
                      the paired counterpart of paper-fig5 for reactive-vs-proclaimed \
                      comparisons on the identical move schedule.",
            config: ScenarioConfig::paper_defaults().with_proclaimed_fraction(1.0),
        },
        Scenario {
            name: "vehicular-commute",
            summary: "Road-network commuting: street-grid movement at commute pace, \
                      every handoff between adjacent cells and proclaimed ahead \
                      (the next cell is predictable on a road).",
            config: ScenarioConfig {
                mobile_fraction: 0.3,
                conn_mean_s: 45.0,
                disc_mean_s: 20.0,
                publish_interval_s: 120.0,
                mobility: ModelKind::ManhattanGrid,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "platoon-convoy",
            summary: "Vehicle platoons sharing one trajectory with jittered \
                      departures: bulk migration of whole groups into the same \
                      destination broker, proclaimed ahead.",
            config: ScenarioConfig {
                mobile_fraction: 0.5,
                conn_mean_s: 90.0,
                disc_mean_s: 30.0,
                mobility: ModelKind::GroupPlatoon {
                    platoon_size: 5,
                    jitter_s: 10.0,
                },
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "city-scale",
            summary: "The engine stress preset: a 64-broker scale-free city \
                      backbone with 2,048 clients, half the movers in \
                      proclaimed vehicle platoons and half commuting into \
                      five shared hotspots — the workload the hot-path \
                      overhaul (dense/sharded link clocks, pooled event \
                      list) is sized for.",
            config: ScenarioConfig {
                grid_side: 8,
                topology: TopologyKind::ScaleFree { edges_per_node: 2 },
                clients_per_broker: 32,
                mobile_fraction: 0.3,
                conn_mean_s: 120.0,
                disc_mean_s: 45.0,
                publish_interval_s: 120.0,
                duration_s: 900.0,
                mobility: ModelKind::mix(vec![
                    (
                        0.5,
                        ModelKind::GroupPlatoon {
                            platoon_size: 8,
                            jitter_s: 10.0,
                        },
                    ),
                    (0.5, ModelKind::HotspotCommuter { hotspots: 5 }),
                ]),
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "scale-free-jitter",
            summary: "Beyond the paper's environment: a Barabási–Albert \
                      scale-free broker backbone with jittered, asymmetric \
                      links — hub congestion plus variable latency, the \
                      regime where per-link FIFO must hold by construction.",
            config: ScenarioConfig {
                topology: TopologyKind::ScaleFree { edges_per_node: 2 },
                jitter_ms: 8,
                link_asymmetry: 0.2,
                mobile_fraction: 0.3,
                conn_mean_s: 120.0,
                disc_mean_s: 60.0,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "degraded-window",
            summary: "The paper's grid with a mid-run link-degradation \
                      window (all latencies tripled for five minutes): \
                      handovers and safety intervals under transient \
                      congestion.",
            config: ScenarioConfig {
                degraded_windows: vec![(600.0, 900.0, 3.0)],
                jitter_ms: 2,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "manhattan-rush-hour",
            summary: "Street-grid movement with short connection periods: many cheap \
                      adjacent-broker handoffs in quick succession.",
            config: ScenarioConfig {
                conn_mean_s: 60.0,
                disc_mean_s: 30.0,
                publish_interval_s: 120.0,
                mobility: ModelKind::ManhattanGrid,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "hotspot-flash-crowd",
            summary: "Commuters oscillating between homes and three shared hotspot \
                      brokers: filter-table contention at the hot brokers.",
            config: ScenarioConfig {
                mobile_fraction: 0.4,
                conn_mean_s: 120.0,
                disc_mean_s: 60.0,
                mobility: ModelKind::HotspotCommuter { hotspots: 3 },
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "waypoint-campus",
            summary: "Random-waypoint walks with two-minute pauses: sustained chains \
                      of short-distance handoffs.",
            config: ScenarioConfig {
                conn_mean_s: 45.0,
                disc_mean_s: 20.0,
                mobility: ModelKind::RandomWaypoint {
                    pause_mean_s: 120.0,
                },
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "broker-crash-storm",
            summary: "The failure-panel crash preset: a seeded storm of six \
                      broker crashes (half-minute mean downtime) over a \
                      reduced grid — checkpoint/restore, crash detours and \
                      each protocol's recovery dialogue under repeated \
                      mid-run restarts.",
            config: ScenarioConfig {
                grid_side: 5,
                clients_per_broker: 4,
                mobile_fraction: 0.25,
                conn_mean_s: 60.0,
                disc_mean_s: 40.0,
                publish_interval_s: 15.0,
                duration_s: 600.0,
                seed: 0x0053_544f_524d,
                faults: FaultPlan {
                    crash_storm: Some((6, 30.0)),
                    ..FaultPlan::default()
                },
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "lossy-crash-storm",
            summary: "The reliability preset: the crash-storm grid with 2 % \
                      link loss and 0.5 % corruption, broker dedup \
                      watermarks, publisher ack/retransmit and 5 s \
                      neighbour-replicated checkpoints — every drop \
                      accounted by cause, zero silent loss end to end.",
            config: ScenarioConfig {
                grid_side: 5,
                clients_per_broker: 4,
                mobile_fraction: 0.25,
                conn_mean_s: 60.0,
                disc_mean_s: 40.0,
                publish_interval_s: 15.0,
                duration_s: 600.0,
                seed: 0x004c_4f53_5359,
                loss_rate: 0.02,
                corruption_rate: 0.005,
                dedup_window: 64,
                retransmit: true,
                checkpoint_replication_ms: 5_000,
                faults: FaultPlan {
                    crash_storm: Some((6, 30.0)),
                    ..FaultPlan::default()
                },
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "partitioned-city",
            summary: "The failure-panel partition preset: two overlay links \
                      sever mid-run and a nine-broker region blacks out — \
                      partition tunnels, region detours and post-heal \
                      convergence on the paper's grid.",
            config: ScenarioConfig {
                grid_side: 5,
                clients_per_broker: 4,
                mobile_fraction: 0.25,
                conn_mean_s: 60.0,
                disc_mean_s: 40.0,
                publish_interval_s: 15.0,
                duration_s: 600.0,
                seed: 0x5041_5254,
                faults: FaultPlan {
                    // Two grid-adjacent overlay links go dark for a minute
                    // each, staggered; then the city centre (broker 12 and
                    // its grid neighbours) blacks out for 45 s.
                    link_partitions: vec![(6, 7, 120.0, 180.0), (17, 18, 200.0, 260.0)],
                    region_outages: vec![(12, 1, 350.0, 395.0)],
                    ..FaultPlan::default()
                },
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "fan-in-storm",
            summary: "MQTT-shaped fan-in: 2,000 publishers flood 100 \
                      subscribers with 512-byte payloads — many small \
                      publishes, modest per-event fan-out; the \
                      serialize-once cache is measured against this shape's \
                      render-heavy baseline.",
            config: ScenarioConfig {
                grid_side: 4,
                publish_interval_s: 10.0,
                duration_s: 20.0,
                seed: 0x4641_4e49,
                payload_bytes_mean: 512,
                track_mem: true,
                storm_publishers: 2_000,
                storm_subscribers: 100,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "fan-out-storm",
            summary: "MQTT-shaped fan-out: 100 publishers, 2,000 \
                      subscribers, 1 KiB payloads — every publish fans out \
                      to ~125 local subscribers per broker, the shape where \
                      serialize-once beats clone-per-subscriber by well \
                      over an order of magnitude.",
            config: ScenarioConfig {
                grid_side: 4,
                publish_interval_s: 10.0,
                duration_s: 20.0,
                seed: 0x4641_4e4f,
                payload_bytes_mean: 1_024,
                track_mem: true,
                storm_publishers: 100,
                storm_subscribers: 2_000,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "retained-replay",
            summary: "The MQTT retained-message pattern: brokers keep each \
                      publisher's last event; half the subscribers join \
                      mid-run and receive the retained matches on connect.",
            config: ScenarioConfig {
                grid_side: 4,
                publish_interval_s: 15.0,
                duration_s: 60.0,
                seed: 0x5245_5441,
                payload_bytes_mean: 512,
                retained: true,
                track_mem: true,
                storm_publishers: 100,
                storm_subscribers: 400,
                late_subscriber_fraction: 0.5,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "shared-subscription",
            summary: "MQTT shared subscriptions: same-broker subscribers are \
                      bucketed into groups of four and each event is \
                      delivered to exactly one member per group \
                      (load-balanced consumption, deterministic pick).",
            config: ScenarioConfig {
                grid_side: 4,
                publish_interval_s: 10.0,
                duration_s: 30.0,
                seed: 0x5348_4152,
                payload_bytes_mean: 512,
                shared_group_size: 4,
                track_mem: true,
                storm_publishers: 100,
                storm_subscribers: 800,
                ..ScenarioConfig::paper_defaults()
            },
        },
        Scenario {
            name: "trace-smoke",
            summary: "Tiny deterministic trace-playback scenario for regression \
                      tests: fixed move list, fixed gaps, no sampled mobility.",
            config: ScenarioConfig {
                grid_side: 3,
                clients_per_broker: 2,
                mobile_fraction: 0.0,
                conn_mean_s: 60.0,
                disc_mean_s: 5.0,
                publish_interval_s: 20.0,
                duration_s: 300.0,
                seed: 42,
                mobility: ModelKind::TracePlayback(Arc::new(vec![
                    // Client 0 lives on broker 0, tours the first column.
                    TraceRecord {
                        at_s: 40.0,
                        client: 0,
                        from: 0,
                        to: 3,
                    },
                    TraceRecord {
                        at_s: 110.0,
                        client: 0,
                        from: 3,
                        to: 6,
                    },
                    TraceRecord {
                        at_s: 190.0,
                        client: 0,
                        from: 6,
                        to: 0,
                    },
                    // Client 7 (home broker 7) visits the centre and returns.
                    TraceRecord {
                        at_s: 75.0,
                        client: 7,
                        from: 7,
                        to: 4,
                    },
                    TraceRecord {
                        at_s: 150.0,
                        client: 7,
                        from: 4,
                        to: 7,
                    },
                ])),
                ..ScenarioConfig::paper_defaults()
            },
        },
    ]
}

/// Look up a preset by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// Look up several presets by name, in the order given (the experiments'
/// `FAILURE_PRESETS` / `TRAFFIC_PRESETS` lists).
///
/// # Panics
/// Panics on a name that is not registered.
pub fn find_all(names: &[&str]) -> Vec<Scenario> {
    names
        .iter()
        .map(|name| find(name).unwrap_or_else(|| panic!("no scenario preset named {name:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;
    use crate::runner::run_scenario;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate preset names");
        for name in names {
            assert!(find(name).is_some());
        }
        assert!(find("no-such-preset").is_none());
    }

    #[test]
    fn trace_smoke_replays_exactly_five_moves() {
        let preset = find("trace-smoke").unwrap();
        let r = run_scenario(&preset.config, Protocol::Mhh);
        assert_eq!(r.handoffs, 5, "the fixed move list has five moves");
        assert!(r.reliable(), "{:?}", r.audit);
        // Byte-for-byte reproducible: same preset, same metrics.
        let again = run_scenario(&preset.config, Protocol::Mhh);
        assert_eq!(format!("{r:?}"), format!("{again:?}"));
    }

    #[test]
    fn presets_carry_the_advertised_models() {
        assert_eq!(
            find("manhattan-rush-hour").unwrap().config.mobility.label(),
            "manhattan-grid"
        );
        assert_eq!(
            find("hotspot-flash-crowd").unwrap().config.mobility.label(),
            "hotspot-commuter"
        );
        assert_eq!(
            find("paper-fig5").unwrap().config.mobility.label(),
            "uniform-random"
        );
        assert_eq!(
            find("vehicular-commute").unwrap().config.mobility.label(),
            "manhattan-grid"
        );
        assert_eq!(
            find("platoon-convoy").unwrap().config.mobility.label(),
            "group-platoon"
        );
        assert_eq!(find("city-scale").unwrap().config.mobility.label(), "mix");
    }

    #[test]
    fn city_scale_is_actually_city_scale() {
        let c = find("city-scale").unwrap().config;
        assert!(c.broker_count() >= 64, "needs a city-sized backbone");
        assert!(c.client_count() >= 2_000, "needs ≥2000 clients");
        assert_eq!(c.topology.label(), "scale-free");
        // The mixture carries both stress components.
        let rendered = c.mobility.to_string();
        assert!(rendered.contains("group-platoon"), "{rendered}");
        assert!(rendered.contains("hotspot-commuter"), "{rendered}");
        // Past the dense clock-table threshold: this preset exercises the
        // sharded representation (brokers + clients = engine nodes).
        assert!(
            c.broker_count() + c.client_count() > mhh_simnet::clocks::DENSE_NODE_LIMIT,
            "city-scale should run on the sharded clock table"
        );
    }

    #[test]
    fn jittered_presets_carry_topology_and_link_models() {
        let sf = find("scale-free-jitter").unwrap().config;
        assert_eq!(sf.topology.label(), "scale-free");
        assert_eq!(sf.jitter_ms, 8);
        assert!(sf.link_model().is_some());
        let dw = find("degraded-window").unwrap().config;
        assert_eq!(dw.topology.label(), "grid");
        assert_eq!(dw.degraded_windows.len(), 1);
        assert!(dw.link_model().is_some());
    }

    #[test]
    fn failure_presets_inject_faults_and_zero_fault_presets_do_not() {
        for preset in registry() {
            let faulty = preset.name == "broker-crash-storm"
                || preset.name == "partitioned-city"
                || preset.name == "lossy-crash-storm";
            assert_eq!(
                !preset.config.faults.is_empty(),
                faulty,
                "{}: only the failure-panel presets may inject faults",
                preset.name
            );
        }
        let storm = find("broker-crash-storm").unwrap().config;
        assert_eq!(storm.faults.crash_storm, Some((6, 30.0)));
        let net = storm.build_network();
        assert_eq!(storm.fault_schedule(&net).windows().len(), 6);
        let city = find("partitioned-city").unwrap().config;
        let net = city.build_network();
        let schedule = city.fault_schedule(&net);
        assert_eq!(schedule.windows().len(), 3, "two partitions + one region");
        // The centre of a 5×5 grid plus its four neighbours go down.
        assert_eq!(schedule.windows()[2].down_nodes().len(), 5);
    }

    #[test]
    fn lossy_preset_turns_every_reliability_knob() {
        let c = find("lossy-crash-storm").unwrap().config;
        assert!(c.loss_model().is_some(), "lossy links must be modeled");
        assert_eq!(c.dedup_window, 64);
        assert!(c.retransmit);
        assert_eq!(c.checkpoint_replication_ms, 5_000);
        assert_eq!(c.faults.crash_storm, Some((6, 30.0)));
        // The seed differs from broker-crash-storm, so the two storms are
        // independent draws.
        assert_ne!(c.seed, find("broker-crash-storm").unwrap().config.seed);
    }

    #[test]
    fn crash_storm_preset_actually_bites() {
        let preset = find("broker-crash-storm").unwrap();
        let r = run_scenario(&preset.config, Protocol::Mhh);
        assert!(
            !r.recovery.is_empty(),
            "the storm must leave outage records"
        );
        assert_eq!(r.recovery.len(), 6);
        assert!(
            r.recovery.total_dropped() > 0,
            "six crashes over ten minutes must drop envelopes: {:?}",
            r.recovery
        );
        assert!(
            r.recovery.reconciles_with(&r.audit),
            "ledger {:?} must reconcile with audit {:?}",
            r.recovery,
            r.audit
        );
        // Deterministic end to end under faults.
        let again = run_scenario(&preset.config, Protocol::Mhh);
        assert_eq!(format!("{r:?}"), format!("{again:?}"));
    }

    #[test]
    fn storm_presets_are_storm_shaped_and_zero_fault() {
        for name in [
            "fan-in-storm",
            "fan-out-storm",
            "retained-replay",
            "shared-subscription",
        ] {
            let c = find(name).unwrap().config;
            assert!(c.is_storm(), "{name} must use the storm workload");
            assert!(c.faults.is_empty(), "{name} must stay zero-fault");
            assert!(c.payload_bytes_mean > 0, "{name} must model payloads");
        }
        let fan_in = find("fan-in-storm").unwrap().config;
        assert_eq!(
            (fan_in.storm_publishers, fan_in.storm_subscribers),
            (2_000, 100)
        );
        let fan_out = find("fan-out-storm").unwrap().config;
        assert_eq!(
            (fan_out.storm_publishers, fan_out.storm_subscribers),
            (100, 2_000)
        );
        let replay = find("retained-replay").unwrap().config;
        assert!(replay.retained);
        assert_eq!(replay.late_subscriber_fraction, 0.5);
        let shared = find("shared-subscription").unwrap().config;
        assert_eq!(shared.shared_group_size, 4);
    }

    #[test]
    fn proclaimed_preset_pairs_with_the_reactive_figure_preset() {
        let reactive = find("paper-fig5").unwrap().config;
        let proclaimed = find("paper-fig5-proclaimed").unwrap().config;
        assert_eq!(reactive.proclaimed_fraction, 0.0);
        assert_eq!(proclaimed.proclaimed_fraction, 1.0);
        // Same seed and environment: the move schedules are identical, so
        // runs of the two presets are a paired §4.1-vs-§4.2 comparison.
        assert_eq!(reactive.seed, proclaimed.seed);
        assert_eq!(reactive.grid_side, proclaimed.grid_side);
        assert_eq!(reactive.conn_mean_s, proclaimed.conn_mean_s);
    }
}
