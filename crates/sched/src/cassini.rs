//! A Cassini-style centralized interleaving scheduler.
//!
//! Cassini formulates network-aware job scheduling as an ILP over a
//! "compatibility ring"; for a single bottleneck link — the setting of
//! every experiment in the MLTCP paper — the problem reduces to choosing
//! one start-time offset per job so the periodic communication phases
//! tile the hyperperiod with minimal overlap. This module solves that
//! reduced problem *exactly up to grid resolution*: greedy sequential
//! placement on a fine offset grid followed by rounds of coordinate
//! descent, minimizing the excess-demand integral. For compatible mixes
//! (`Σ aᵢ ≤ 1`) this reaches zero contention, i.e. the ILP optimum.
//!
//! The returned offsets are *communication-phase* start times; use
//! [`driver_offsets`] to convert them into job (compute-phase) start
//! offsets for the simulator's workload driver.

use mltcp_core::schedule::{contention, hyperperiod, ContentionReport, PeriodicJob};
use mltcp_netsim::time::SimDuration;

/// The optimizer's output.
#[derive(Debug, Clone)]
pub struct InterleavedSchedule {
    /// One communication-phase offset per job (seconds, within the job's
    /// own period).
    pub offsets: Vec<f64>,
    /// Residual contention at those offsets.
    pub report: ContentionReport,
}

impl InterleavedSchedule {
    /// Whether the schedule is fully interleaved (no two comm phases
    /// ever overlap, up to floating-point boundary slop in the sampled
    /// contention check — exactly-packed mixes abut at measure-zero
    /// boundaries).
    pub fn is_fully_interleaved(&self) -> bool {
        self.report.peak_overlap <= 1 || self.report.contended_time_fraction < 1e-3
    }
}

/// Excess-demand integral for a candidate offset assignment.
fn excess(jobs: &[PeriodicJob], samples: usize) -> f64 {
    contention(jobs, samples).excess_demand
}

/// Chooses communication-phase offsets minimizing contention.
///
/// `grid` is the number of candidate offsets tried per job and per
/// refinement round (resolution = period / grid); `samples` the demand
/// sampling density over the hyperperiod. Defaults of (240, 4096) solve
/// every mix in this repository in well under a second.
pub fn optimize_offsets(jobs: &[PeriodicJob], grid: usize, samples: usize) -> InterleavedSchedule {
    assert!(!jobs.is_empty(), "need at least one job");
    let grid = grid.max(8);
    let samples = samples.max(256);
    let mut placed: Vec<PeriodicJob> = Vec::with_capacity(jobs.len());

    // Greedy sequential placement: each job picks the offset minimizing
    // the excess among the jobs placed so far. Sort by descending comm
    // duration first (big rocks first) but remember original order.
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

    // Coordinate descent refinement.
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

/// Converts communication-phase offsets into *driver* start offsets: the
/// workload driver starts with a compute phase of duration `compute_i`,
/// so its start offset is `(comm_offset − compute) mod period`.
pub fn driver_offsets(
    schedule: &InterleavedSchedule,
    compute_times: &[SimDuration],
    periods: &[f64],
) -> Vec<SimDuration> {
    schedule
        .offsets
        .iter()
        .zip(compute_times)
        .zip(periods)
        .map(|((&comm_off, comp), &period)| {
            let mut start = (comm_off - comp.as_secs_f64()) % period;
            if start < 0.0 {
                start += period;
            }
            SimDuration::from_secs_f64(start)
        })
        .collect()
}

/// The hyperperiod the optimizer reasons over (re-exported convenience).
pub fn planning_horizon(jobs: &[PeriodicJob]) -> f64 {
    hyperperiod(jobs, 1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(t: f64, a: f64) -> PeriodicJob {
        PeriodicJob::new(t, a, 0.0).unwrap()
    }

    #[test]
    fn two_half_jobs_interleave_perfectly() {
        let jobs = [job(1.8, 0.5), job(1.8, 0.5)];
        let s = optimize_offsets(&jobs, 120, 2048);
        assert!(s.is_fully_interleaved(), "report: {:?}", s.report);
        // Offsets must differ by T/2 on the circle.
        let d = (s.offsets[0] - s.offsets[1]).rem_euclid(1.8);
        let d = d.min(1.8 - d);
        assert!((d - 0.9).abs() < 0.05, "Δ={d}");
    }

    #[test]
    fn six_sixth_jobs_tile_the_period() {
        let jobs = vec![job(1.8, 1.0 / 6.0); 6];
        let s = optimize_offsets(&jobs, 240, 4096);
        assert!(
            s.is_fully_interleaved(),
            "six a=1/6 jobs are exactly compatible; report: {:?}",
            s.report
        );
    }

    #[test]
    fn fig2_mix_reaches_zero_contention() {
        // J1: T=1.2 a=1/2 split into two sub-bursts (the Fig. 1(a)
        // traffic shape); J2..J4: T=1.8 a=1/6 — Σa = 1 and the mix tiles
        // exactly (the Fig. 2(a) optimal schedule).
        let jobs = [
            job(1.2, 0.5).with_bursts(2),
            job(1.8, 1.0 / 6.0),
            job(1.8, 1.0 / 6.0),
            job(1.8, 1.0 / 6.0),
        ];
        let s = optimize_offsets(&jobs, 240, 8192);
        assert!(
            s.is_fully_interleaved(),
            "Fig. 2 mix must interleave; report: {:?}",
            s.report
        );
    }

    #[test]
    fn fig2_mix_with_contiguous_gpt3_comm_cannot_tile() {
        // Counterpoint documenting the geometry: with one contiguous
        // 0.6 s comm phase, a 1.8 s-period GPT-2 job alternates between
        // two tracks 0.6 s apart and one always collides — no zero-
        // contention schedule exists.
        let jobs = [
            job(1.2, 0.5),
            job(1.8, 1.0 / 6.0),
            job(1.8, 1.0 / 6.0),
            job(1.8, 1.0 / 6.0),
        ];
        let s = optimize_offsets(&jobs, 240, 8192);
        assert!(!s.is_fully_interleaved());
    }

    #[test]
    fn incompatible_mix_minimizes_rather_than_eliminates() {
        let jobs = vec![job(1.0, 0.4); 3]; // Σa = 1.2 > 1
        let s = optimize_offsets(&jobs, 120, 2048);
        assert!(!s.is_fully_interleaved());
        // But still far better than synchronized start.
        let sync = contention(&jobs, 2048);
        assert!(s.report.excess_demand < sync.excess_demand / 2.0);
    }

    #[test]
    fn single_job_trivial() {
        let s = optimize_offsets(&[job(1.0, 0.5)], 64, 512);
        assert!(s.is_fully_interleaved());
        assert_eq!(s.offsets.len(), 1);
    }

    #[test]
    fn driver_offsets_subtract_compute() {
        let sched = InterleavedSchedule {
            offsets: vec![0.9, 0.1],
            report: ContentionReport {
                peak_overlap: 1,
                contended_time_fraction: 0.0,
                excess_demand: 0.0,
            },
        };
        let offs = driver_offsets(
            &sched,
            &[
                SimDuration::from_secs_f64(0.6),
                SimDuration::from_secs_f64(1.5),
            ],
            &[1.2, 1.8],
        );
        assert!((offs[0].as_secs_f64() - 0.3).abs() < 1e-9);
        // 0.1 - 1.5 mod 1.8 = 0.4.
        assert!((offs[1].as_secs_f64() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn unequal_periods_with_slack() {
        let jobs = [job(1.0, 0.25), job(2.0, 0.25)];
        let s = optimize_offsets(&jobs, 160, 4096);
        assert!(s.is_fully_interleaved(), "report: {:?}", s.report);
    }
}
