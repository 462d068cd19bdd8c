//! Taking timed rounds: each (round, workload) is a fresh child process of
//! this binary, one process and one thread at a time, running that round's
//! own instance of the workload, and every metric is the median over a
//! workload's rounds.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mhh_mobility::sweep::available_workers;

use crate::body::Sample;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{fnv1a, median, Quartiles};
use crate::workloads::Workload;

/// Fewest rounds a workload's medians are ever taken over.
pub const MIN_ROUNDS: usize = 3;

/// The rounds taken of one workload.
#[derive(Debug, Clone)]
pub struct Rounds {
    /// The workload.
    pub workload: &'static Workload,
    /// One sample per round that completed.
    pub samples: Vec<Sample>,
    /// Points in rounds that crashed or printed no sample (all count as
    /// failed).
    pub lost_points: u64,
}

impl Rounds {
    fn new(workload: &'static Workload) -> Self {
        Rounds {
            workload,
            samples: Vec::new(),
            lost_points: 0,
        }
    }

    /// Run the next round in a child process.
    fn take(&mut self, seed: u64, quick: bool) {
        let round = self.samples.len() as u64;
        match spawn_round(self.workload, seed, round, quick) {
            Ok(sample) => self.samples.push(sample),
            Err(why) => {
                eprintln!("{}: round {round} failed: {why}", self.workload.name);
                self.lost_points += self.workload.points(seed, round, quick).len() as u64;
            }
        }
    }

    /// Points attempted over all rounds.
    pub fn attempted(&self) -> u64 {
        self.lost_points + self.samples.iter().map(|s| s.points).sum::<u64>()
    }

    /// Points that failed their check or the replay check, or crashed.
    pub fn failed(&self) -> u64 {
        let unchecked: u64 = self.samples.iter().map(|s| s.points - s.points_ok).sum();
        self.lost_points + unchecked
    }

    /// One digest over every round's results, in round order: two sets of
    /// the same seed and round count must agree on it.
    pub fn digest(&self) -> u64 {
        let rounds: Vec<u8> = self
            .samples
            .iter()
            .flat_map(|s| s.digest.to_le_bytes())
            .collect();
        fnv1a(&rounds)
    }

    /// Median and quartiles of a metric over the rounds. `points_ok_share`
    /// is the share over all rounds, so one bad round cannot hide behind a
    /// median. `None` when no round completed.
    pub fn summary(&self, metric: &EndToEnd) -> Option<Quartiles> {
        if metric.name == "points_ok_share" {
            let share = 1.0 - self.failed() as f64 / self.attempted().max(1) as f64;
            return Some(Quartiles::of(&[share]));
        }
        if self.samples.is_empty() {
            return None;
        }
        let values: Vec<f64> = self.samples.iter().map(|s| s.metric(metric.name)).collect();
        Some(Quartiles::of(&values))
    }
}

fn spawn_round(workload: &Workload, seed: u64, round: u64, quick: bool) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["round", "--workload", workload.name]);
    cmd.args(["--seed", &seed.to_string(), "--round", &round.to_string()]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child and collects its stdout; stderr passes
    // through so a failed check names itself.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .rev()
        .find_map(Sample::parse)
        .ok_or_else(|| format!("no sample line in child output: {stdout:?}"))
}

/// Rounds of one workload until `seconds` have passed (and at least
/// [`MIN_ROUNDS`]): how the acceptance harness drives the benchmark.
pub fn for_seconds(workload: &'static Workload, seed: u64, seconds: f64, quick: bool) -> Rounds {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut rounds = Rounds::new(workload);
    while rounds.samples.len() < MIN_ROUNDS || started.elapsed() < budget {
        rounds.take(seed, quick);
        if rounds.lost_points > 0 {
            break; // a crashing body would otherwise spin until the budget
        }
    }
    rounds
}

/// `count` rounds interleaved across `workloads`: round 1 runs every
/// workload once, then round 2, … so minute-scale host drift lands on all
/// workloads alike and each workload's samples span the whole session.
pub fn interleaved(
    workloads: &[&'static Workload],
    seed: u64,
    count: usize,
    quick: bool,
) -> Vec<Rounds> {
    let mut all: Vec<Rounds> = workloads.iter().map(|w| Rounds::new(w)).collect();
    for _ in 0..count {
        for rounds in &mut all {
            rounds.take(seed, quick);
        }
    }
    all
}

/// The header every output carries.
pub fn header(what: &str, seed: u64, rounds: usize, quick: bool) -> String {
    format!(
        "mhh-benchmark {what}: seed {seed}, rounds {rounds}, host_workers {}{}",
        available_workers(),
        if quick {
            ", quick (durations / 10)"
        } else {
            ""
        }
    )
}

/// Print one set: per workload its realised sizes and digest, then every
/// end-to-end metric's median with quartiles, sample count and spread,
/// flagging a spread above the metric's bound. Returns `false` when a
/// point failed.
pub fn print_set(set: &[Rounds]) -> bool {
    let mut ok = true;
    for rounds in set {
        let name = rounds.workload.name;
        match rounds.samples.first() {
            Some(s) => println!(
                "\n{name}: deliveries {} handoffs {} publishes {} digest {:016x} points {}/{} ok",
                s.deliveries,
                s.handoffs,
                s.publishes,
                rounds.digest(),
                rounds.attempted() - rounds.failed(),
                rounds.attempted(),
            ),
            None => println!("\n{name}: no round completed"),
        }
        ok &= rounds.failed() == 0;
        if !rounds.samples.is_empty() {
            let raw =
                |f: fn(&Sample) -> f64| median(&rounds.samples.iter().map(f).collect::<Vec<_>>());
            println!(
                "  raw host medians: setup {:.6} s, run {:.6} s, reference {:.6} s ({:.3} reference s per host s)",
                raw(|s| s.setup_s),
                raw(|s| s.run_wall_s),
                raw(|s| s.ref_s),
                raw(Sample::host_scale),
            );
        }
        println!(
            "  {:<24} {:>14} {:<6} {:>14} {:>14} {:>2} {:>7} {:>6}",
            "metric", "median", "unit", "q1", "q3", "n", "spread", "bound"
        );
        for metric in END_TO_END {
            let Some(q) = rounds.summary(metric) else {
                continue;
            };
            println!(
                "  {:<24} {:>14.6} {:<6} {:>14.6} {:>14.6} {:>2} {:>6.2}% {:>5.1}%{}",
                metric.name,
                q.median,
                metric.unit,
                q.q1,
                q.q3,
                q.n,
                100.0 * q.spread(),
                100.0 * metric.bound,
                if q.spread() > metric.bound {
                    "  ! spread above bound"
                } else {
                    ""
                }
            );
        }
    }
    ok
}

/// Compare two sets of the same code: per workload and metric, the
/// relative difference of the medians against the metric's bound; result
/// digests must agree exactly. Returns `false` when anything disagrees.
pub fn print_comparison(first: &[Rounds], second: &[Rounds]) -> bool {
    let mut ok = true;
    println!(
        "\n{:<16} {:<24} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        let name = a.workload.name;
        if a.digest() != b.digest() {
            println!("{name:<16} result digests differ between the sets");
            ok = false;
        }
        for metric in END_TO_END {
            let (Some(qa), Some(qb)) = (a.summary(metric), b.summary(metric)) else {
                ok = false;
                continue;
            };
            let diff = (qb.median - qa.median).abs() / qa.median.abs();
            let within = diff <= metric.bound;
            ok &= within;
            println!(
                "{name:<16} {:<24} {:>14.6} {:>14.6} {:>7.2}% {:>5.1}%{}",
                metric.name,
                qa.median,
                qb.median,
                100.0 * diff,
                100.0 * metric.bound,
                if within { "" } else { "  ! above bound" }
            );
        }
    }
    ok
}
