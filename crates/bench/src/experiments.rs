//! Shared experiment constructors used by the figure binaries and the
//! repository's integration tests — one canonical definition per paper
//! scenario, so every consumer measures exactly the same system.

use crate::default_noise;
use mltcp_netsim::fault::GilbertElliott;
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_sched::cassini;
use mltcp_sched::pfabric::apply_pfabric;
use mltcp_workload::job::JobSpec;
use mltcp_workload::models;
use mltcp_workload::scenario::{CongestionSpec, LinkFault, Scenario, ScenarioBuilder};
pub use mltcp_workload::stats::reconverge_after;
use mltcp_workload::stats::JobReport;

/// The pacing factor used by the enforced-Cassini runs: planned periods
/// are `1.16 ×` the analytic ideal, covering the transport's measured
/// isolation overhead (~12% for the 2-burst GPT-3 profile) with margin so
/// every job can actually hold its planned slot.
pub const CASSINI_PACE_FACTOR: f64 = 1.16;

/// The Fig. 2 job mix (GPT-3 + 3×GPT-2) with 1% compute noise.
pub fn fig2_jobs(scale: f64, iters: u32) -> Vec<JobSpec> {
    let rate = models::paper_bottleneck();
    models::fig2_mix(rate, scale, iters)
        .into_iter()
        .map(|j| {
            let noise = default_noise(j.compute_time);
            j.with_noise(noise)
        })
        .collect()
}

/// `n` GPT-2 jobs with 1% compute noise (Figs. 3, 4, 6).
pub fn gpt2_jobs(scale: f64, iters: u32, n: usize) -> Vec<JobSpec> {
    let rate = models::paper_bottleneck();
    models::gpt2_pack(rate, scale, iters, n)
        .into_iter()
        .map(|j| {
            let noise = default_noise(j.compute_time);
            j.with_noise(noise)
        })
        .collect()
}

/// Builds a synchronized-start scenario with one congestion control for
/// all jobs.
pub fn uniform_scenario(seed: u64, jobs: Vec<JobSpec>, cc: CongestionSpec) -> Scenario {
    uniform_builder(seed, jobs, cc).build()
}

/// Builds the enforced-Cassini scenario: the centralized optimizer picks
/// communication offsets, the driver paces every job to its planned
/// (derated) period, and flows run plain Reno — no contention remains to
/// manage.
pub fn cassini_scenario(seed: u64, jobs: Vec<JobSpec>) -> Scenario {
    let rate = models::paper_bottleneck();
    let mut b = ScenarioBuilder::new(seed);
    for j in cassini_planned(jobs) {
        let pace = j.ideal_period(rate).mul_f64(CASSINI_PACE_FACTOR);
        b = b.job(j.with_pace(pace), CongestionSpec::Reno);
    }
    b.build()
}

/// `jobs` with their start offsets set to the centralized plan: the
/// optimizer's communication offsets, converted to driver offsets and
/// stretched by [`CASSINI_PACE_FACTOR`] to the planned periods.
fn cassini_planned(jobs: Vec<JobSpec>) -> Vec<JobSpec> {
    let rate = models::paper_bottleneck();
    let periodic: Vec<_> = jobs.iter().map(|j| j.to_periodic(rate)).collect();
    let sched = cassini::optimize_offsets(&periodic, 240, 8192);
    let computes: Vec<_> = jobs.iter().map(|j| j.compute_time).collect();
    let periods: Vec<f64> = periodic.iter().map(|p| p.period).collect();
    let offsets = cassini::driver_offsets(&sched, &computes, &periods);
    jobs.into_iter()
        .zip(offsets)
        .map(|(mut j, off)| {
            j.start_offset = off.mul_f64(CASSINI_PACE_FACTOR);
            j
        })
        .collect()
}

/// The *static*-Cassini scenario as a builder, so callers can append link
/// faults before `build()`: the centralized optimizer picks communication
/// offsets once, but — unlike [`cassini_scenario`] — no pacing enforces
/// the plan afterwards. Jobs free-run from their planned offsets on plain
/// Reno.
///
/// This is the honest "plan is not recomputed" baseline for fault
/// experiments: a paced plan is phase-preserving (jobs re-align to their
/// grid slots after any perturbation), whereas static offsets random-walk
/// apart as soon as a fault — or accumulated compute noise — shifts one
/// job's phase, exactly the failure mode that forces Cassini to replan.
pub fn cassini_static_builder(seed: u64, jobs: Vec<JobSpec>) -> ScenarioBuilder {
    uniform_builder(seed, cassini_planned(jobs), CongestionSpec::Reno)
}

/// [`uniform_scenario`] as a builder, so callers can append link faults
/// before `build()`.
pub fn uniform_builder(seed: u64, jobs: Vec<JobSpec>, cc: CongestionSpec) -> ScenarioBuilder {
    let mut b = ScenarioBuilder::new(seed);
    for j in jobs {
        b = b.job(j, cc.clone());
    }
    b
}

/// Builds the pFabric scenario: strict-priority bottleneck, remaining-
/// bytes tags, line-rate initial windows.
pub fn pfabric_scenario(seed: u64, jobs: Vec<JobSpec>) -> Scenario {
    apply_pfabric(uniform_builder(seed, jobs, CongestionSpec::Reno)).build()
}

/// A generous deadline for `iters` iterations of the slowest job in a
/// mix at time `scale`.
pub fn mix_deadline(scale: f64, iters: u32) -> SimTime {
    SimTime::from_secs_f64(1.8 * scale * (f64::from(iters) + 12.0) * 4.0)
}

/// Mean of each job's steady-state iteration time divided by its ideal.
pub fn mean_steady_ratio(sc: &Scenario) -> f64 {
    let n = sc.jobs.len();
    (0..n)
        .map(|i| sc.stats(i).tail_mean(5) / sc.ideal_period(i).as_secs_f64())
        .sum::<f64>()
        / n as f64
}

/// One fault class × severity for the recovery experiments — the shared
/// vocabulary of `exp_fault_recovery` and the chaos integration tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultCase {
    /// Fault-free control.
    None,
    /// Bottleneck hard down for `outage` starting at `at`.
    LinkFlap {
        /// Fault onset.
        at: SimTime,
        /// Outage length.
        outage: SimDuration,
    },
    /// Bottleneck serialization at `factor` × nominal for `window`.
    Brownout {
        /// Fault onset.
        at: SimTime,
        /// Window length.
        window: SimDuration,
        /// Rate multiplier in (0, 1].
        factor: f64,
    },
    /// Gilbert–Elliott bursty loss on the bottleneck for `window`.
    BurstyLoss {
        /// Fault onset.
        at: SimTime,
        /// Window length.
        window: SimDuration,
        /// The two-state loss model.
        model: GilbertElliott,
    },
    /// Job `job` crashes before iteration `at_iter` and restarts after
    /// `outage` (checkpoint restore; no iterations lost).
    JobRestart {
        /// Index of the job in the mix.
        job: usize,
        /// 0-based iteration before which the job pauses.
        at_iter: u32,
        /// Downtime before the job resumes.
        outage: SimDuration,
    },
}

impl FaultCase {
    /// Short label for tables and JSON keys.
    pub fn label(&self) -> &'static str {
        match self {
            FaultCase::None => "none",
            FaultCase::LinkFlap { .. } => "link_flap",
            FaultCase::Brownout { .. } => "brownout",
            FaultCase::BurstyLoss { .. } => "bursty_loss",
            FaultCase::JobRestart { .. } => "job_restart",
        }
    }

    /// Builds a faulted scenario from a mix and a plan kind.
    pub fn scenario(&self, seed: u64, jobs: Vec<JobSpec>, plan: &PlanKind) -> Scenario {
        self.builder(seed, jobs, plan).build()
    }

    /// [`FaultCase::scenario`] as a builder, so callers can tweak
    /// transport knobs (e.g. `max_rto`) before `build()`: job-restart
    /// faults edit the specs *before* the builder clones them, link
    /// faults attach to the builder afterwards.
    pub fn builder(&self, seed: u64, mut jobs: Vec<JobSpec>, plan: &PlanKind) -> ScenarioBuilder {
        if let FaultCase::JobRestart {
            job,
            at_iter,
            outage,
        } = *self
        {
            jobs[job].restart = Some(mltcp_workload::RestartSpec { at_iter, outage });
        }
        let b = match plan {
            PlanKind::Uniform(cc) => uniform_builder(seed, jobs, cc.clone()),
            PlanKind::CassiniStatic => cassini_static_builder(seed, jobs),
        };
        match *self {
            FaultCase::None | FaultCase::JobRestart { .. } => b,
            FaultCase::LinkFlap { at, outage } => b.bottleneck_fault(LinkFault::Down {
                at,
                duration: outage,
            }),
            FaultCase::Brownout { at, window, factor } => b.bottleneck_fault(LinkFault::Brownout {
                at,
                duration: window,
                factor,
            }),
            FaultCase::BurstyLoss { at, window, model } => {
                b.bottleneck_fault(LinkFault::BurstyLoss {
                    at,
                    duration: window,
                    model,
                })
            }
        }
    }
}

/// Which scheduling plan carries the mix in a fault experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// Every job runs the same distributed congestion control.
    Uniform(CongestionSpec),
    /// Static Cassini offsets, plain Reno, no pacing (not recomputed
    /// after faults).
    CassiniStatic,
}

impl PlanKind {
    /// Short label for tables and JSON keys.
    pub fn label(&self) -> &'static str {
        match self {
            PlanKind::Uniform(cc) => cc.label(),
            PlanKind::CassiniStatic => "cassini-static",
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1_0000_01b3;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a fingerprint of a finished scenario: every iteration record of
/// every job plus the simulator's delivery/drop counters and final clock.
///
/// It fingerprints outcomes, not the event stream: two runs hash equal
/// when every job's iteration timestamps, the delivered/dropped packet
/// counts and the final clock agree, so it can miss a reordering that
/// leaves all of those unchanged (an event-stream fingerprint is open
/// work in ROADMAP.md). The telemetry determinism tests compare this hash
/// across sink configurations (no sink / no-op / ring / JSONL) to check
/// that sinks observe without perturbing; `replay_hash` prints it for
/// CI's run-twice check.
pub fn scenario_replay_hash(sc: &Scenario) -> u64 {
    let mut hash = FNV_OFFSET;
    for job in &sc.jobs {
        let driver = sc.sim.agent::<mltcp_workload::JobDriver>(job.driver);
        for r in driver.records() {
            fnv1a(&mut hash, u64::from(r.index));
            fnv1a(&mut hash, r.start.as_nanos());
            fnv1a(&mut hash, r.comm_start.as_nanos());
            fnv1a(&mut hash, r.end.as_nanos());
        }
    }
    let stats = sc.sim.stats();
    fnv1a(&mut hash, stats.delivered);
    fnv1a(&mut hash, stats.dropped);
    fnv1a(&mut hash, sc.sim.now().as_nanos());
    hash
}

/// Everything a figure binary needs from a finished scenario, as plain
/// `Send` data.
///
/// `Scenario` holds `Box<dyn Agent>` and deliberately never leaves the
/// sweep worker that built it (see `mltcp_workload::sweep`); workers
/// return this summary instead and the main thread assembles figures
/// from it in input order.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-job report rows, in job order.
    pub jobs: Vec<JobReport>,
    /// Per-job analytic ideal period (seconds), aligned with `jobs`.
    pub ideals: Vec<f64>,
    /// Per-job full iteration-duration series (seconds).
    pub durations: Vec<Vec<f64>>,
    /// Mean steady-state iteration ratio across jobs.
    pub mean_steady_ratio: f64,
}

/// Extracts a [`RunSummary`] from a finished scenario.
pub fn summarize_run(sc: &Scenario) -> RunSummary {
    let n = sc.jobs.len();
    RunSummary {
        jobs: sc.reports(),
        ideals: (0..n).map(|i| sc.ideal_period(i).as_secs_f64()).collect(),
        durations: (0..n).map(|i| sc.stats(i).durations().to_vec()).collect(),
        mean_steady_ratio: mean_steady_ratio(sc),
    }
}

/// Prints the compact per-job table for a summarized run, normalized by
/// each job's analytic ideal period.
pub fn print_summary_table(label: &str, rs: &RunSummary) {
    println!("-- {label}");
    println!(
        "   {:<16} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "job", "ideal(ms)", "mean(x)", "steady(x)", "p99(x)", "conv"
    );
    for (r, &ideal) in rs.jobs.iter().zip(&rs.ideals) {
        println!(
            "   {:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8}",
            r.name,
            ideal * 1e3,
            r.mean_secs / ideal,
            r.steady_secs / ideal,
            r.p99_secs / ideal,
            r.converged_after
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
}
