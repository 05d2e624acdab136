//! The Cassini optimizer against a reference model: the same scan with
//! every candidate offset scored by a full `contention()` call, which
//! re-samples every job over the hyperperiod. `optimize_offsets` scores
//! candidates against a cached demand profile of the other jobs, an
//! optimisation of exactly that computation, so both must return
//! bit-identical offsets and reports on any mix.

use mltcp_core::schedule::{contention, PeriodicJob};
use mltcp_sched::cassini::{optimize_offsets, InterleavedSchedule};
use proptest::prelude::*;

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

const PERIODS: [f64; 6] = [1.0, 1.2, 1.5, 1.8, 2.0, 2.4];

proptest! {
    /// Random 2–7-job mixes; `Σa` ranges well past 1, so many mixes are
    /// incompatible and coordinate descent runs.
    #[test]
    fn optimizer_matches_reference(mix in proptest::collection::vec((0usize..6, 0.05f64..0.4, 1u32..3), 2..8)) {
        let jobs: Vec<PeriodicJob> = mix
            .iter()
            .map(|&(p, a, bursts)| PeriodicJob::new(PERIODS[p], a, 0.0).unwrap().with_bursts(bursts))
            .collect();
        assert_matches_reference(&jobs, 60, 1024);
    }
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
