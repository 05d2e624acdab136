//! The Cassini optimizer against a reference model: the same scan with
//! every candidate offset scored by a full contention evaluation, which
//! re-samples every job over the hyperperiod. `optimize_offsets` scores
//! candidates by exact excess counts against run-length segments of the
//! other jobs' demand and sums floats only to break ties, an optimisation
//! of exactly that computation, so both must return bit-identical offsets
//! and reports on any mix.
//!
//! The reference samples phases with its own plain-`%` copy of
//! `is_communicating` at every sample and its own contention sum, so it
//! shares neither the exact-remainder fast paths nor the interval-built
//! demand (`PeriodicJob::comm_samples`) of `mltcp_core::schedule` it
//! checks.

use mltcp_core::schedule::{hyperperiod, ContentionReport, PeriodicJob};
use mltcp_sched::cassini::{optimize_offsets, InterleavedSchedule};
use mltcp_workload::{job::JobSpec, models};
use proptest::prelude::*;

/// Whether `j` communicates at `t`, reduced with plain `%`.
fn is_communicating(j: &PeriodicJob, t: f64) -> bool {
    let mut phase = (t - j.offset) % j.period;
    if phase < 0.0 {
        phase += j.period;
    }
    let b = f64::from(j.bursts.max(1));
    let sub_period = j.period / b;
    (phase % sub_period) < j.comm_duration() / b
}

/// `mltcp_core::schedule::contention` over [`is_communicating`]: the
/// same samples of the hyperperiod, summed in the same order.
fn contention(jobs: &[PeriodicJob], samples: usize) -> ContentionReport {
    let horizon = hyperperiod(jobs, 1e-6);
    let n = samples.max(1);
    let dt = horizon / n as f64;
    let mut peak = 0u32;
    let mut contended = 0usize;
    let mut excess = 0.0;
    for i in 0..n {
        let t = horizon * i as f64 / n as f64;
        let d = jobs.iter().filter(|j| is_communicating(j, t)).count() as u32;
        peak = peak.max(d);
        if d >= 2 {
            contended += 1;
            excess += (d - 1) as f64 * dt;
        }
    }
    ContentionReport {
        peak_overlap: peak,
        contended_time_fraction: contended as f64 / n as f64,
        excess_demand: excess,
    }
}

/// Excess-demand integral for a candidate offset assignment.
fn excess(jobs: &[PeriodicJob], samples: usize) -> f64 {
    contention(jobs, samples).excess_demand
}

/// The reference scan: greedy placement, then ≤ 4 rounds of coordinate
/// descent, each candidate scored from scratch.
fn reference_optimize(jobs: &[PeriodicJob], grid: usize, samples: usize) -> InterleavedSchedule {
    assert!(!jobs.is_empty(), "need at least one job");
    let grid = grid.max(8);
    let samples = samples.max(256);
    let mut placed: Vec<PeriodicJob> = Vec::with_capacity(jobs.len());

    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        let da = jobs[a].comm_duration();
        let db = jobs[b].comm_duration();
        db.partial_cmp(&da).expect("finite durations")
    });
    let mut offsets = vec![0.0; jobs.len()];
    for &idx in &order {
        let job = jobs[idx];
        let mut best = (f64::INFINITY, 0.0);
        for g in 0..grid {
            let off = job.period * g as f64 / grid as f64;
            placed.push(job.with_offset(off));
            let e = excess(&placed, samples);
            placed.pop();
            if e < best.0 {
                best = (e, off);
            }
            if e == 0.0 {
                break; // can't beat zero
            }
        }
        offsets[idx] = best.1;
        placed.push(job.with_offset(best.1));
    }

    let mut current: Vec<PeriodicJob> = jobs
        .iter()
        .zip(&offsets)
        .map(|(j, &o)| j.with_offset(o))
        .collect();
    let mut best_excess = excess(&current, samples);
    for _round in 0..4 {
        if best_excess == 0.0 {
            break;
        }
        let mut improved = false;
        for i in 0..current.len() {
            let job = jobs[i];
            let mut best = (best_excess, current[i].offset);
            for g in 0..grid {
                let off = job.period * g as f64 / grid as f64;
                let prev = current[i];
                current[i] = job.with_offset(off);
                let e = excess(&current, samples);
                if e < best.0 - 1e-12 {
                    best = (e, off);
                } else {
                    current[i] = prev;
                    continue;
                }
                current[i] = prev;
            }
            if best.1 != current[i].offset {
                current[i] = job.with_offset(best.1);
                best_excess = best.0;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let offsets: Vec<f64> = current.iter().map(|j| j.offset).collect();
    InterleavedSchedule {
        report: contention(&current, samples),
        offsets,
    }
}

/// Asserts both optimizers return bit-identical offsets and reports.
fn assert_matches_reference(jobs: &[PeriodicJob], grid: usize, samples: usize) {
    let got = optimize_offsets(jobs, grid, samples);
    let want = reference_optimize(jobs, grid, samples);
    let bits =
        |s: &InterleavedSchedule| -> Vec<u64> { s.offsets.iter().map(|o| o.to_bits()).collect() };
    assert_eq!(bits(&got), bits(&want), "offsets for {jobs:?}");
    assert_eq!(got.report.peak_overlap, want.report.peak_overlap);
    assert_eq!(
        got.report.contended_time_fraction.to_bits(),
        want.report.contended_time_fraction.to_bits()
    );
    assert_eq!(
        got.report.excess_demand.to_bits(),
        want.report.excess_demand.to_bits()
    );
}

/// The paper's periods, and the 0.01-scale GPT-3 and GPT-2 periods the
/// benchmark's Cassini mixes run at.
const PERIODS: [f64; 8] = [1.0, 1.2, 1.5, 1.8, 2.0, 2.4, 0.012, 0.018];

proptest! {
    /// Random 2–7-job mixes of 1–4 bursts; `Σa` ranges well past 1, so
    /// many mixes are incompatible and coordinate descent runs, and
    /// `a = 1` in a fifth of the draws makes a job's bursts abut.
    #[test]
    fn optimizer_matches_reference(
        mix in proptest::collection::vec(
            (0usize..PERIODS.len(), prop_oneof![4 => 0.05f64..1.0, 1 => Just(1.0)], 1u32..5),
            2..8,
        ),
    ) {
        let jobs: Vec<PeriodicJob> = mix
            .iter()
            .map(|&(p, a, bursts)| PeriodicJob::new(PERIODS[p], a, 0.0).unwrap().with_bursts(bursts))
            .collect();
        assert_matches_reference(&jobs, 60, 1024);
    }
}

/// The periodic geometry of the benchmark's Cassini mixes, the Fig. 2 mix
/// and 6×GPT-2 at scale 0.01 (compute noise does not enter it), at the
/// resolution every caller uses.
#[test]
fn benchmark_mixes_match_reference_at_full_resolution() {
    let rate = models::paper_bottleneck();
    let periodic = |specs: Vec<JobSpec>| -> Vec<PeriodicJob> {
        specs.iter().map(|j| j.to_periodic(rate)).collect()
    };
    assert_matches_reference(&periodic(models::fig2_mix(rate, 0.01, 8)), 240, 8192);
    assert_matches_reference(&periodic(models::gpt2_pack(rate, 0.01, 8, 6)), 240, 8192);
}

#[test]
fn grid_and_sample_floors_match_reference() {
    // grid < 8 and samples < 256 clamp up in both optimizers.
    let jobs = [
        PeriodicJob::new(1.0, 0.4, 0.0).unwrap(),
        PeriodicJob::new(1.5, 0.3, 0.0).unwrap().with_bursts(2),
        PeriodicJob::new(2.0, 0.35, 0.0).unwrap(),
    ];
    assert_matches_reference(&jobs, 3, 10);
}

#[test]
fn microsecond_periods_match_reference() {
    // A 6 µs hyperperiod over 8192 samples puts the sample spacing below
    // 1e-9 s, where unequal counts no longer decide and every comparison
    // sums floats.
    let jobs = [
        PeriodicJob::new(2e-6, 0.5, 0.0).unwrap(),
        PeriodicJob::new(3e-6, 0.4, 0.0).unwrap().with_bursts(2),
        PeriodicJob::new(3e-6, 0.3, 0.0).unwrap(),
    ];
    assert_matches_reference(&jobs, 60, 8192);
}

proptest! {
    /// Compatible mixes, where greedy placement mostly reaches zero excess
    /// and so takes the optimizer's first-zero search: 2–5 jobs of 1–4
    /// bursts on the paper's periods or on the benchmark's, with `a`
    /// scaled so that `Σa ≤ 0.9`.
    #[test]
    fn compatible_mixes_match_reference(
        benchmark_scale in 0usize..2,
        mix in proptest::collection::vec((0usize..6, 0.05f64..1.0, 1u32..5), 2..6),
        total in 0.2f64..0.9,
    ) {
        let periods = if benchmark_scale == 1 { &PERIODS[6..] } else { &PERIODS[..6] };
        let weight: f64 = mix.iter().map(|m| m.1).sum();
        let jobs: Vec<PeriodicJob> = mix
            .iter()
            .map(|&(p, w, bursts)| {
                PeriodicJob::new(periods[p % periods.len()], w / weight * total, 0.0)
                    .unwrap()
                    .with_bursts(bursts)
            })
            .collect();
        assert_matches_reference(&jobs, 60, 1024);
    }
}

#[test]
fn sub_sample_grid_step_matches_reference() {
    // 4096 candidates per 1 s period against 1024 samples of a 2 s
    // hyperperiod: each grid step moves a burst by an eighth of a sample.
    let jobs = [
        PeriodicJob::new(1.0, 0.3, 0.0).unwrap(),
        PeriodicJob::new(1.0, 0.25, 0.0).unwrap().with_bursts(2),
        PeriodicJob::new(2.0, 0.2, 0.0).unwrap(),
    ];
    let (grid, samples) = (4096, 1024);
    assert!(1.0 / (grid as f64) < hyperperiod(&jobs, 1e-6) / samples as f64);
    assert_matches_reference(&jobs, grid, samples);
}

#[test]
fn compatible_microsecond_periods_match_reference() {
    // `Σa = 0.7`, but the sample spacing is below 1e-9 s: counts do not
    // decide, so every placement takes the ordered float scan.
    let jobs = [
        PeriodicJob::new(2e-6, 0.3, 0.0).unwrap(),
        PeriodicJob::new(3e-6, 0.2, 0.0).unwrap().with_bursts(2),
        PeriodicJob::new(3e-6, 0.2, 0.0).unwrap(),
    ];
    assert!(hyperperiod(&jobs, 1e-6) / 8192.0 < 1e-9);
    assert_matches_reference(&jobs, 60, 8192);
}

#[test]
fn descent_from_a_zero_incumbent_matches_reference() {
    // Greedy placement leaves excess here; in the first descent round the
    // first job moves to zero excess, so the other two are refined
    // against an incumbent that already has `W = 0`.
    let jobs = [
        PeriodicJob::new(1.5, 0.2, 0.0).unwrap(),
        PeriodicJob::new(1.5, 0.05, 0.0).unwrap().with_bursts(4),
        PeriodicJob::new(1.5, 0.2, 0.0).unwrap().with_bursts(2),
    ];
    assert_eq!(optimize_offsets(&jobs, 60, 1024).report.excess_demand, 0.0);
    assert_matches_reference(&jobs, 60, 1024);
}
