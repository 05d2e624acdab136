//! A Cassini-style centralized interleaving scheduler.
//!
//! Cassini formulates network-aware job scheduling as an ILP over a
//! "compatibility ring"; for a single bottleneck link — the setting of
//! every experiment in the MLTCP paper — the problem reduces to choosing
//! one start-time offset per job so the periodic communication phases
//! tile the hyperperiod with minimal overlap. This module searches that
//! reduced problem heuristically: greedy sequential placement on an
//! offset grid, then up to four rounds of coordinate descent, minimizing
//! the sampled excess-demand integral. The result is a local optimum at
//! grid and sample resolution, not the ILP optimum. `Σ aᵢ ≤ 1` is
//! necessary for a zero-contention schedule but not sufficient: the
//! Fig. 2 mix with a contiguous GPT-3 comm phase has `Σ aᵢ = 1` and no
//! such schedule (see the `fig2_mix_with_contiguous_gpt3_comm_cannot_tile`
//! test).
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

/// The demand of every job but the one being placed, sampled at the
/// points [`contention`] samples over the same horizon. Scoring a
/// candidate offset against it gives exactly `contention(..)
/// .excess_demand` of the full mix without re-sampling the other jobs.
struct OthersDemand {
    /// `(tₛ, number of other jobs communicating at tₛ)` for every sample
    /// where that number is non-zero, in sample order.
    busy: Vec<(f64, u32)>,
    /// Sample spacing, `horizon / samples`.
    dt: f64,
}

impl OthersDemand {
    fn new<'a>(
        others: impl Iterator<Item = &'a PeriodicJob> + Clone,
        horizon: f64,
        samples: usize,
    ) -> Self {
        let busy = (0..samples)
            .filter_map(|i| {
                let t = horizon * i as f64 / samples as f64;
                let d = others.clone().filter(|j| j.is_communicating(t)).count() as u32;
                (d > 0).then_some((t, d))
            })
            .collect();
        Self {
            busy,
            dt: horizon / samples as f64,
        }
    }

    /// The excess-demand integral with `cand` added, summed in sample
    /// order. Samples where no other job communicates add nothing. Once
    /// the partial sum reaches `bound` it returns early: the terms are
    /// non-negative, so the full sum could not be below `bound` either.
    fn excess_with(&self, cand: &PeriodicJob, bound: f64) -> f64 {
        let mut excess = 0.0;
        for &(t, base) in &self.busy {
            let d = base + u32::from(cand.is_communicating(t));
            if d >= 2 {
                excess += (d - 1) as f64 * self.dt;
                if excess >= bound {
                    break;
                }
            }
        }
        excess
    }
}

/// Chooses communication-phase offsets minimizing contention.
///
/// `grid` is the number of candidate offsets tried per job and per
/// refinement round (resolution = period / grid); `samples` the demand
/// sampling density over the hyperperiod. Every caller in this
/// repository passes (240, 8192).
pub fn optimize_offsets(jobs: &[PeriodicJob], grid: usize, samples: usize) -> InterleavedSchedule {
    assert!(!jobs.is_empty(), "need at least one job");
    let grid = grid.max(8);
    let samples = samples.max(256);
    let candidate = |job: &PeriodicJob, g: usize| job.period * g as f64 / grid as f64;
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
        // The horizon of the placed jobs plus this one, in that order:
        // `hyperperiod`'s overflow guard depends on the order.
        placed.push(job);
        let horizon = hyperperiod(&placed, 1e-6);
        placed.pop();
        let others = OthersDemand::new(placed.iter(), horizon, samples);
        let mut best = (f64::INFINITY, 0.0);
        for g in 0..grid {
            let off = candidate(&job, g);
            let e = others.excess_with(&job.with_offset(off), best.0);
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

    // Coordinate descent refinement: move one job at a time to its best
    // grid offset against the others, keeping strict improvements.
    let mut current: Vec<PeriodicJob> = jobs
        .iter()
        .zip(&offsets)
        .map(|(j, &o)| j.with_offset(o))
        .collect();
    let horizon = hyperperiod(&current, 1e-6);
    let mut report = contention(&current, samples);
    let mut best_excess = report.excess_demand;
    let mut moved = false;
    for _round in 0..4 {
        if best_excess == 0.0 {
            break;
        }
        let mut improved = false;
        for i in 0..current.len() {
            let job = jobs[i];
            let others = OthersDemand::new(
                current[..i].iter().chain(&current[i + 1..]),
                horizon,
                samples,
            );
            let mut best = (best_excess, current[i].offset);
            for g in 0..grid {
                let off = candidate(&job, g);
                let e = others.excess_with(&job.with_offset(off), best.0 - 1e-12);
                if e < best.0 - 1e-12 {
                    best = (e, off);
                }
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
        moved = true;
    }
    // The greedy placement's report stands unless descent moved a job.
    if moved {
        report = contention(&current, samples);
    }
    InterleavedSchedule {
        offsets: current.iter().map(|j| j.offset).collect(),
        report,
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

#[cfg(test)]
mod tests {
    use super::*;
    use mltcp_workload::models;

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

    /// Asserts `optimize_offsets(jobs, 240, 8192)` returns exactly these
    /// offset bits and report `(peak, contended-fraction bits, excess bits)`.
    fn assert_golden(jobs: &[PeriodicJob], offsets: &[u64], report: (u32, u64, u64)) {
        let s = optimize_offsets(jobs, 240, 8192);
        let bits: Vec<u64> = s.offsets.iter().map(|o| o.to_bits()).collect();
        assert_eq!(bits, offsets, "offsets {:?} for {jobs:?}", s.offsets);
        let r = s.report;
        assert_eq!(
            (
                r.peak_overlap,
                r.contended_time_fraction.to_bits(),
                r.excess_demand.to_bits()
            ),
            report,
            "report {r:?} for {jobs:?}"
        );
    }

    /// Offsets and report pinned bit for bit; the values match the
    /// reference scan in `tests/reference_optimizer.rs`, which scores each
    /// candidate with a full `contention()` call. The first two mixes are
    /// the benchmark's Cassini mixes; the last two have residual
    /// contention, so coordinate descent runs on them.
    #[test]
    fn offsets_match_golden_bits() {
        let rate = models::paper_bottleneck();
        let periodic = |specs: Vec<mltcp_workload::job::JobSpec>| -> Vec<PeriodicJob> {
            specs.iter().map(|j| j.to_periodic(rate)).collect()
        };
        assert_golden(
            &periodic(models::fig2_mix(rate, 0.01, 8)),
            &[
                0x0000000000000000,
                0x3f689374bc6a7efa,
                0x3f8295e9e1b089a0,
                0x3f8eb851eb851eb7,
            ],
            (1, 0, 0),
        );
        assert_golden(
            &periodic(models::gpt2_pack(rate, 0.01, 8, 6)),
            &[
                0x0000000000000000,
                0x3f64e3bcd35a8587,
                0x3f74e3bcd35a8587,
                0x3f7f559b3d07c84b,
                0x3f84e3bcd35a8587,
                0x3f8a1cac083126e9,
            ],
            (1, 0, 0),
        );
        assert_golden(
            &[
                job(1.2, 0.5),
                job(1.8, 1.0 / 6.0),
                job(1.8, 1.0 / 6.0),
                job(1.8, 1.0 / 6.0),
            ],
            &[
                0x0000000000000000,
                0x3f7eb851eb851eb9,
                0x3fd6147ae147ae14,
                0x3fe599999999999a,
            ],
            (2, 0x3fcff80000000000, 0x3fecc59999999ab5),
        );
        assert_golden(
            &[job(1.0, 0.4); 3],
            &[0x3feb111111111111, 0x3fcc444444444444, 0x3fe3333333333333],
            (2, 0x3fc9900000000000, 0x3fc9900000000000),
        );
    }
}
