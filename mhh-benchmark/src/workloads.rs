//! The five workloads: which preset, which knobs, which protocols, and why.
//!
//! Every workload is a closed loop by construction — a discrete-event run
//! to completion. A workload is one or more *points*; a point is one
//! `(ScenarioConfig, protocol)` pair handed to `run_spec`. The benchmark
//! seed only ever reaches the program as `ScenarioConfig::seed`.
//!
//! Each round of a seed runs an instance of its own: what a workload costs
//! moves with the instance — between 2.2 and 3.0 reference seconds on
//! `city-handoff`, whose scale-free backbone is drawn from the seed, and
//! ±8 % on `paper-churn` — so the median over a run's rounds is a median
//! over instances too, and runs of different seeds stay comparable.

use mhh_mobsim::{scenarios, ScenarioConfig};

/// One `(config, protocol)` pair the body hands to `run_spec`.
#[derive(Debug, Clone)]
pub struct Point {
    /// The generated scenario (the only input the program receives).
    pub config: ScenarioConfig,
    /// Registry key in `ProtocolRegistry::extended()`.
    pub protocol: &'static str,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether links lose messages: a lossy workload is gated on ledger ↔
    /// audit reconciliation instead of MHH's exactly-once delivery.
    pub lossy: bool,
    base: fn() -> ScenarioConfig,
    protocols: &'static [&'static str],
}

/// `--quick` divides every simulated duration by this.
pub const QUICK_DIVISOR: f64 = 10.0;

/// All workloads, in the order rounds interleave them.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "city-handoff",
        why: "city-scale preset under MHH: event matching against 2k-entry filter tables dominates (read side of FilterTable)",
        lossy: false,
        base: city_handoff,
        protocols: &["mhh"],
    },
    Workload {
        name: "paper-churn",
        why: "paper Fig. 5 grid at 30 s connect/disconnect periods, three protocols: subscription add/remove/covering dominates (write side of FilterTable)",
        lossy: false,
        base: paper_churn,
        protocols: &["mhh", "sub-unsub", "home-broker"],
    },
    Workload {
        name: "fanout-wire",
        why: "100 publishers to 2,000 subscribers, 1 KiB payloads: trivial matching, so engine queue/clocks/stats, client bookkeeping and wire sharing dominate",
        lossy: false,
        base: fanout_wire,
        protocols: &["mhh"],
    },
    Workload {
        name: "fanin-audit",
        why: "2,000 publishers to 100 subscribers, 512 B payloads: the delivery audit and one wire render per publish dominate (the wire cache used the other way round)",
        lossy: false,
        base: fanin_audit,
        protocols: &["mhh"],
    },
    Workload {
        name: "lossy-recovery",
        why: "2% loss, 0.5% corruption, dedup, retransmit, replicated checkpoints and a crash storm: the only workload off the fault-free fast path",
        lossy: true,
        base: lossy_recovery,
        protocols: &["mhh"],
    },
];

fn preset(name: &str) -> ScenarioConfig {
    scenarios::find(name)
        .unwrap_or_else(|| panic!("preset {name} is registered"))
        .config
}

fn city_handoff() -> ScenarioConfig {
    ScenarioConfig {
        duration_s: 240.0,
        ..preset("city-scale")
    }
}

fn paper_churn() -> ScenarioConfig {
    ScenarioConfig {
        conn_mean_s: 30.0,
        disc_mean_s: 30.0,
        duration_s: 240.0,
        ..preset("paper-fig5")
    }
}

fn fanout_wire() -> ScenarioConfig {
    ScenarioConfig {
        duration_s: 165.0,
        ..preset("fan-out-storm")
    }
}

fn fanin_audit() -> ScenarioConfig {
    ScenarioConfig {
        duration_s: 120.0,
        ..preset("fan-in-storm")
    }
}

fn lossy_recovery() -> ScenarioConfig {
    ScenarioConfig {
        grid_side: 7,
        clients_per_broker: 7,
        ..preset("lossy-crash-storm")
    }
}

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's points for round `round` of a benchmark seed. Round 0
    /// of seed 0 keeps every preset's own seed; any other (seed, round)
    /// shifts it, so the same pair always generates the same inputs and
    /// another pair another timeline.
    pub fn points(&self, seed: u64, round: u64, quick: bool) -> Vec<Point> {
        let mut config = (self.base)();
        config.seed = config
            .seed
            .wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(round.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        if quick {
            config.duration_s /= QUICK_DIVISOR;
        }
        self.protocols
            .iter()
            .map(|&protocol| Point {
                config: config.clone(),
                protocol,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhh_mobsim::Workload as Generated;

    fn timeline(point: &Point) -> String {
        format!("{:?}", Generated::generate(&point.config).timeline)
    }

    #[test]
    fn seed_zero_keeps_the_presets_and_a_seed_always_generates_the_same_inputs() {
        assert_eq!(
            find("city-handoff").unwrap().points(0, 0, false)[0]
                .config
                .seed,
            preset("city-scale").seed
        );
        for w in &WORKLOADS {
            let (a, b) = (w.points(7, 2, true), w.points(7, 2, true));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", w.name);
            assert_eq!(timeline(&a[0]), timeline(&b[0]), "{}", w.name);
        }
    }

    #[test]
    fn another_seed_or_round_is_another_timeline() {
        for w in &WORKLOADS {
            let instances = [(1, 0), (2, 0), (1, 1), (2, 1)].map(|(seed, round)| {
                let point = &w.points(seed, round, true)[0];
                (point.config.seed, timeline(point))
            });
            for (i, a) in instances.iter().enumerate() {
                for b in &instances[i + 1..] {
                    assert_ne!(a.0, b.0, "{}", w.name);
                    assert_ne!(a.1, b.1, "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn quick_only_shortens_and_points_of_a_workload_share_one_config() {
        for w in &WORKLOADS {
            let (full, quick) = (w.points(3, 1, false), w.points(3, 1, true));
            assert_eq!(full.len(), quick.len());
            for (f, q) in full.iter().zip(&quick) {
                assert_eq!(q.config.duration_s * QUICK_DIVISOR, f.config.duration_s);
                assert_eq!(q.config.seed, f.config.seed);
                assert_eq!(format!("{:?}", f.config), format!("{:?}", full[0].config));
            }
        }
        let protocols: Vec<_> = find("paper-churn")
            .unwrap()
            .points(0, 0, false)
            .iter()
            .map(|p| p.protocol)
            .collect();
        assert_eq!(protocols, ["mhh", "sub-unsub", "home-broker"]);
        assert!(find("no-such-workload").is_none());
    }
}
