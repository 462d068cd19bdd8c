//! Integration tests asserting the qualitative *shapes* of the paper's
//! figures on reduced-scale sweeps: who wins, and in which direction the
//! curves move. Absolute numbers differ from the paper (different substrate
//! and scale); the orderings are what the reproduction checks.

use mhh_suite::mobsim::{figure5, figure6, Panel, Protocol, ScenarioConfig, Sweep};

fn base() -> ScenarioConfig {
    ScenarioConfig {
        grid_side: 5,
        clients_per_broker: 4,
        mobile_fraction: 0.25,
        conn_mean_s: 30.0,
        disc_mean_s: 60.0,
        publish_interval_s: 10.0,
        duration_s: 360.0,
        seed: 11,
        ..ScenarioConfig::paper_defaults()
    }
}

/// One protocol's overhead-per-handoff curve (Figures 5(a) / 6(a)), in x
/// order.
fn overhead_series(fig: &Panel, protocol: Protocol) -> Vec<f64> {
    let curve = fig.column(protocol.label());
    Vec::from_iter(curve.iter().map(|p| p.result.overhead_per_handoff))
}

/// One protocol's handoff-delay curve (Figures 5(b) / 6(b)), in x order.
fn delay_series(fig: &Panel, protocol: Protocol) -> Vec<f64> {
    let curve = fig.column(protocol.label());
    Vec::from_iter(curve.iter().map(|p| p.result.avg_handoff_delay_ms))
}

#[test]
fn figure5_shape_holds_at_reduced_scale() {
    let fig = figure5(&base(), &[2.0, 200.0], &Sweep::default());

    // (a) message overhead per handoff: MHH below sub-unsub at both ends, and
    // far below it when clients move frequently (left end).
    for (i, _conn) in [2.0f64, 200.0].iter().enumerate() {
        let mhh = overhead_series(&fig, Protocol::Mhh)[i];
        let su = overhead_series(&fig, Protocol::SubUnsub)[i];
        assert!(
            mhh < su,
            "point {i}: MHH overhead {mhh} should be below sub-unsub {su}"
        );
    }
    // Home-broker's per-handoff overhead grows with the connection period
    // (triangle routing accumulates while the client sits still).
    let hb = overhead_series(&fig, Protocol::HomeBroker);
    assert!(
        hb[1] > hb[0],
        "HB overhead should grow with the connection period: {hb:?}"
    );

    // (b) handoff delay: sub-unsub well above MHH; MHH and home-broker in the
    // same ballpark (within a factor of two here).
    for i in 0..2 {
        let mhh = delay_series(&fig, Protocol::Mhh)[i];
        let su = delay_series(&fig, Protocol::SubUnsub)[i];
        let hb = delay_series(&fig, Protocol::HomeBroker)[i];
        assert!(su > mhh, "sub-unsub delay {su} must exceed MHH {mhh}");
        assert!(
            mhh < hb * 2.0 + 100.0,
            "MHH delay {mhh} should be comparable to home-broker {hb}"
        );
    }

    // Reliability: MHH and sub-unsub lose nothing at any point.
    for proto in [Protocol::Mhh, Protocol::SubUnsub] {
        for p in fig.column(proto.label()) {
            assert_eq!(
                p.result.audit.lost, 0,
                "{proto:?} lost events: {:?}",
                p.result.audit
            );
            assert_eq!(p.result.audit.duplicates, 0);
            assert_eq!(p.result.audit.out_of_order, 0);
        }
    }
}

#[test]
fn figure6_shape_holds_at_reduced_scale() {
    let fig = figure6(&base(), &[4, 7], &Sweep::default());

    // (a) overhead grows with network size for every protocol, and MHH stays
    // below sub-unsub at the larger size (the margin the paper reports).
    for proto in Protocol::ALL {
        let s = overhead_series(&fig, proto);
        assert!(
            s[1] > s[0] * 0.8,
            "{proto:?} overhead should not collapse as the network grows: {s:?}"
        );
    }
    let mhh = overhead_series(&fig, Protocol::Mhh)[1];
    let su = overhead_series(&fig, Protocol::SubUnsub)[1];
    assert!(
        mhh < su,
        "MHH {mhh} should be cheaper than sub-unsub {su} at 49 brokers"
    );

    // (b) sub-unsub delay tracks the network diameter, so it grows and stays
    // the largest; MHH tracks the average distance.
    let su_delay = delay_series(&fig, Protocol::SubUnsub);
    let mhh_delay = delay_series(&fig, Protocol::Mhh);
    assert!(
        su_delay[1] > su_delay[0],
        "sub-unsub delay grows with size: {su_delay:?}"
    );
    for i in 0..2 {
        assert!(
            su_delay[i] > mhh_delay[i],
            "sub-unsub delay must dominate MHH at every size"
        );
    }
}
