//! Integration tests of the object-safe protocol layer and the `Sim`
//! facade: registry round-trips, external protocol registration, and the
//! parameter-point-keyed matrix.

use mhh_suite::mobility::ModelKind;
use mhh_suite::mobsim::protocols::{self, ProtocolRegistry, ProtocolSpec};
use mhh_suite::mobsim::{mobility_matrix, Sim, SimError, Sweep};
use mhh_suite::pubsub::broker::NoProtocol;
use mhh_suite::pubsub::{erase, BrokerId, Deployment, DeploymentConfig, DynProtocol};

/// The paper-fig5 environment scaled down so full runs stay test-suite
/// fast; the preset's seed (and hence its workload generator) is kept.
fn fig5_seeded() -> mhh_suite::mobsim::ScenarioConfig {
    Sim::scenario("paper-fig5")
        .grid_side(4)
        .clients_per_broker(3)
        .duration_s(400.0)
        .configure(|c| {
            c.conn_mean_s = 40.0;
            c.disc_mean_s = 40.0;
            c.publish_interval_s = 20.0;
        })
        .build_config()
        .expect("paper-fig5 is registered")
}

#[test]
fn registry_round_trip_every_name_constructs_and_self_reports() {
    let registry = ProtocolRegistry::global();
    assert!(
        registry.len() >= 3,
        "the builtin three must always be registered"
    );
    for expected in ["mhh", "sub-unsub", "home-broker"] {
        assert!(
            registry.find(expected).is_some(),
            "builtin protocol {expected} missing"
        );
    }
    let config = fig5_seeded();
    let network = config.build_network();
    for spec in registry.specs() {
        let mut factory = spec.instantiate(&config, &network);
        // One instance per broker; each must self-report a name that
        // round-trips to its registry entry.
        for b in 0..3 {
            let proto = factory(BrokerId(b));
            assert!(
                proto.name() == spec.name() || proto.name() == spec.label(),
                "{}: constructed protocol calls itself {:?}",
                spec.name(),
                proto.name()
            );
        }
    }
}

#[test]
fn fluent_builder_runs_scenarios_by_name() {
    let result = Sim::scenario("trace-smoke").protocol("mhh").run().unwrap();
    assert_eq!(result.protocol, "MHH");
    assert_eq!(result.handoffs, 5, "trace-smoke replays five moves");
    assert!(result.reliable(), "{:?}", result.audit);

    match Sim::scenario("missing-scenario").run() {
        Err(SimError::UnknownScenario { name, available }) => {
            assert_eq!(name, "missing-scenario");
            assert!(available.contains(&"paper-fig5".to_string()));
        }
        other => panic!("expected UnknownScenario, got {other:?}"),
    }
    match Sim::scenario("trace-smoke").protocol("missing-proto").run() {
        Err(SimError::UnknownProtocol { name, available }) => {
            assert_eq!(name, "missing-proto");
            assert!(available.contains(&"mhh".to_string()));
        }
        other => panic!("expected UnknownProtocol, got {other:?}"),
    }
}

/// A protocol this crate never heard of joins through the process-wide
/// registry and runs through the same facade. `NoProtocol` (no mobility
/// support) doubles as the external protocol; its runs drop events for
/// in-flight clients, which the audit makes visible.
#[test]
fn externally_registered_protocol_runs_via_the_facade() {
    protocols::register(ProtocolSpec::new(
        "static-external",
        "static",
        "no mobility support (registered by an integration test)",
        |_config, _network| Box::new(|_broker| erase(NoProtocol)),
    ));
    let result = Sim::config(fig5_seeded())
        .protocol("static-external")
        .run()
        .expect("registered protocol resolves by name");
    assert_eq!(result.protocol, "static");
    assert!(result.handoffs > 0);
    // No mobility support: nothing is ever buffered, so anything published
    // while a client was away is simply gone.
    assert!(
        result.audit.lost > 0,
        "the static baseline must lose events under mobility: {:?}",
        result.audit
    );
}

/// One model kind at several parameter points in a single matrix — the
/// ROADMAP item the label-keyed cells could not express.
#[test]
fn matrix_holds_one_kind_at_several_parameter_points() {
    let fast = ModelKind::HotspotCommuter { hotspots: 1 };
    let spread = ModelKind::HotspotCommuter { hotspots: 8 };
    let models = [fast.clone(), spread.clone()];
    let matrix = mobility_matrix(&fig5_seeded(), &models, &Sweep::default());
    assert_eq!(matrix.rows().len(), 2, "both parameter points present");
    for model in &models {
        for proto in ["MHH", "sub-unsub", "HB"] {
            assert!(
                matrix.cell(model, proto).is_some(),
                "missing cell {model} × {proto}"
            );
        }
    }
}

/// The dyn layer also serves hand-built deployments: one non-generic
/// function can drive any registry protocol.
#[test]
fn hand_built_deployments_run_registry_protocols() {
    let dep_config = DeploymentConfig {
        grid_side: 3,
        seed: 5,
        ..DeploymentConfig::default()
    };
    let clients = vec![mhh_suite::pubsub::ClientSpec {
        filter: mhh_suite::pubsub::Filter::single("k", mhh_suite::pubsub::Op::Eq, 1i64),
        home: BrokerId(0),
        mobile: true,
        initially_attached: true,
    }];
    let scenario = fig5_seeded();
    let network = scenario.build_network();
    for spec in ProtocolRegistry::builtin().specs() {
        let factory = spec.instantiate(&scenario, &network);
        let dep: Deployment<Box<dyn DynProtocol>> =
            Deployment::build(&dep_config, &clients, factory);
        assert_eq!(
            dep.brokers().count(),
            9,
            "{}: deployment built",
            spec.name()
        );
    }
}
