//! One timed round of one workload: set-up timed on its own, then the body
//! — `run_spec` on every point, the entry point every experiment panel
//! takes — then the correctness gate, with the reference computation timed
//! in between so host time can be reported in reference seconds (see
//! [`crate::reference`]). A round runs in a child process of its own, so
//! `peak_rss_mb` is that round's `VmHWM` and nothing else's; the parent
//! reads the round back as one [`Sample`] line. Round 0 also carries the
//! replay check: after everything is measured it runs its first point once
//! more and the two results must be identical.

use std::collections::BTreeMap;
use std::time::Instant;

use mhh_mobsim::{run_spec, ProtocolRegistry, RunResult};

use crate::reference;
use crate::staged::setup_seconds;
use crate::stats::{fnv1a, median};
use crate::workloads::{Point, Workload};

/// Set-ups timed per round (the round reports their median).
const SETUPS_PER_ROUND: usize = 5;

/// What one round measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Median raw host seconds of one set-up of the first point.
    pub setup_s: f64,
    /// Raw host seconds of the body: the `run_spec` calls, summed over points.
    pub run_wall_s: f64,
    /// Mean raw host seconds of the reference computation, timed before the
    /// set-ups, after them, and after every point.
    pub ref_s: f64,
    /// The round's peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Audited deliveries, summed over points.
    pub deliveries: u64,
    /// Deliveries the audit expected and that are not still buffered.
    pub settled: u64,
    /// Ledger handoffs, summed over points.
    pub handoffs: u64,
    /// Events published, summed over points.
    pub publishes: u64,
    /// Overlay + wireless hops of every message, summed over points.
    pub total_hops: u64,
    /// Points run.
    pub points: u64,
    /// Points that passed their check.
    pub points_ok: u64,
    /// FNV-1a of every point's `format!("{result:?}")`, in order.
    pub digest: u64,
}

/// The invariant the integration tests hold for a point: MHH delivers
/// exactly once and in order on loss-free links, and under loss every
/// audited loss is attributed to a cause. The baselines are run for
/// comparison and gated only on completing.
pub fn check_point(workload: &Workload, point: &Point, result: &RunResult) -> Result<(), String> {
    if point.protocol != "mhh" {
        return Ok(());
    }
    if workload.lossy {
        if !result.recovery.reconciles_with(&result.audit) {
            return Err(format!(
                "recovery ledger does not reconcile with the audit: {:?}",
                result.audit
            ));
        }
    } else if !result.reliable() {
        return Err(format!("MHH was not reliable: {:?}", result.audit));
    }
    Ok(())
}

/// Run round `round` of `seed` in this process.
pub fn run_round(workload: &Workload, seed: u64, round: u64, quick: bool) -> Sample {
    let registry = ProtocolRegistry::extended();
    let points = workload.points(seed, round, quick);
    let spec_of = |p: &Point| {
        registry
            .find(p.protocol)
            .unwrap_or_else(|| panic!("protocol {} is registered", p.protocol))
    };

    let mut refs = vec![reference::seconds()];
    let first = &points[0];
    let setups: Vec<f64> = (0..SETUPS_PER_ROUND)
        .map(|_| setup_seconds(&first.config, spec_of(first)))
        .collect();
    refs.push(reference::seconds());

    let mut sample = Sample {
        setup_s: median(&setups),
        run_wall_s: 0.0,
        ref_s: 0.0,
        peak_rss_mb: 0.0,
        deliveries: 0,
        settled: 0,
        handoffs: 0,
        publishes: 0,
        total_hops: 0,
        points: points.len() as u64,
        points_ok: 0,
        digest: 0,
    };
    let mut debugs: Vec<String> = Vec::new();
    for point in &points {
        let spec = spec_of(point);
        let started = Instant::now();
        let result = run_spec(&point.config, spec);
        sample.run_wall_s += started.elapsed().as_secs_f64();
        refs.push(reference::seconds());
        match check_point(workload, point, &result) {
            Ok(()) => sample.points_ok += 1,
            Err(why) => eprintln!("{} [{}]: {why}", workload.name, point.protocol),
        }
        sample.deliveries += result.audit.delivered;
        sample.settled += result.audit.expected - result.audit.pending;
        sample.handoffs += result.handoffs;
        sample.publishes += result.published;
        sample.total_hops += result.total_hops;
        debugs.push(format!("{result:?}\n"));
    }
    sample.peak_rss_mb = peak_rss_mb();
    if round == 0 && format!("{:?}\n", run_spec(&first.config, spec_of(first))) != debugs[0] {
        eprintln!("{} [{}]: the replay differs", workload.name, first.protocol);
        sample.points_ok = sample.points_ok.saturating_sub(1);
    }
    sample.ref_s = refs.iter().sum::<f64>() / refs.len() as f64;
    sample.digest = fnv1a(debugs.concat().as_bytes());
    sample
}

/// This process's `VmHWM`, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

impl Sample {
    /// Reference seconds per raw host second in this round: 1 on the quiet
    /// reference host, above 1 when the host ran slow.
    pub fn host_scale(&self) -> f64 {
        reference::NOMINAL_S / self.ref_s
    }

    /// The value of an end-to-end metric in this round; host times are in
    /// reference seconds.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s * self.host_scale(),
            "run_wall_s" => self.run_wall_s * self.host_scale(),
            "deliveries_per_s" => self.deliveries as f64 / self.metric("run_wall_s"),
            "peak_rss_mb" => self.peak_rss_mb,
            "audited_delivery_share" => self.deliveries as f64 / self.settled as f64,
            "sim_hops_per_delivery" => self.total_hops as f64 / self.deliveries as f64,
            "points_ok_share" => self.points_ok as f64 / self.points as f64,
            other => panic!("{other} is not an end-to-end metric"),
        }
    }

    /// The line a child prints for its parent.
    pub fn to_line(&self) -> String {
        format!(
            "sample setup_s={} run_wall_s={} ref_s={} peak_rss_mb={} deliveries={} settled={} \
             handoffs={} publishes={} total_hops={} points={} points_ok={} digest={}",
            self.setup_s,
            self.run_wall_s,
            self.ref_s,
            self.peak_rss_mb,
            self.deliveries,
            self.settled,
            self.handoffs,
            self.publishes,
            self.total_hops,
            self.points,
            self.points_ok,
            self.digest
        )
    }

    /// Parse [`to_line`](Self::to_line)'s output.
    pub fn parse(line: &str) -> Option<Sample> {
        let fields: BTreeMap<&str, &str> = line
            .strip_prefix("sample ")?
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .collect();
        let float = |k: &str| fields.get(k)?.parse::<f64>().ok();
        let int = |k: &str| fields.get(k)?.parse::<u64>().ok();
        Some(Sample {
            setup_s: float("setup_s")?,
            run_wall_s: float("run_wall_s")?,
            ref_s: float("ref_s")?,
            peak_rss_mb: float("peak_rss_mb")?,
            deliveries: int("deliveries")?,
            settled: int("settled")?,
            handoffs: int("handoffs")?,
            publishes: int("publishes")?,
            total_hops: int("total_hops")?,
            points: int("points")?,
            points_ok: int("points_ok")?,
            digest: int("digest")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn the_same_seed_and_round_replay_to_the_same_digest_and_others_do_not() {
        let workload = workloads::find("lossy-recovery").unwrap();
        let a = run_round(workload, 5, 0, true);
        let b = run_round(workload, 5, 0, true);
        assert_eq!((a.points, a.points_ok), (1, 1));
        assert_eq!(a.digest, b.digest);
        assert_eq!((a.deliveries, a.total_hops), (b.deliveries, b.total_hops));
        assert_ne!(a.digest, run_round(workload, 6, 0, true).digest);
        assert_ne!(a.digest, run_round(workload, 5, 1, true).digest);
        assert!(a.setup_s > 0.0 && a.run_wall_s > 0.0 && a.ref_s > 0.0 && a.peak_rss_mb > 0.0);
    }

    #[test]
    fn a_sample_survives_the_trip_through_its_line() {
        let sample = Sample {
            setup_s: 0.012_345_678_9,
            run_wall_s: 5.0,
            ref_s: reference::NOMINAL_S * 2.0,
            peak_rss_mb: 261.003_906_25,
            deliveries: 3_000_000,
            settled: 3_000_001,
            handoffs: 769,
            publishes: 1_500,
            total_hops: 3_024_000,
            points: 3,
            points_ok: 2,
            digest: u64::MAX - 6,
        };
        assert_eq!(Sample::parse(&sample.to_line()), Some(sample.clone()));
        assert_eq!(Sample::parse("sample setup_s=1"), None);
        assert_eq!(Sample::parse("not a sample"), None);
        // The host ran at half speed, so 5 raw seconds are 2.5 reference ones.
        assert_eq!(sample.host_scale(), 0.5);
        assert_eq!(sample.metric("run_wall_s"), 2.5);
        assert_eq!(sample.metric("setup_s"), 0.012_345_678_9 * 0.5);
        assert_eq!(sample.metric("deliveries_per_s"), 1_200_000.0);
        assert_eq!(sample.metric("sim_hops_per_delivery"), 1.008);
        assert_eq!(sample.metric("points_ok_share"), 2.0 / 3.0);
    }
}
