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
//! Cost: each job's placement and each descent step turn the other jobs'
//! comm runs ([`PeriodicJob::comm_samples`]) into run-length segments of
//! constant demand, in O(their comm intervals · log), with no per-sample
//! array. Each of the `grid` candidates is then scored by its exact
//! excess count `W = Σ (d − 1)⁺` from the segments' prefix counts, in
//! O(its own comm intervals · log segments). The count decides, the
//! in-order float sum breaks ties: the offsets and report are those of
//! scoring every candidate by the sampled float integral, bit for bit,
//! and only a tie at `W > 0` sums floats, over the contended samples
//! alone.
//!
//! The returned offsets are *communication-phase* start times; use
//! [`driver_offsets`] to convert them into job (compute-phase) start
//! offsets for the simulator's workload driver.

use std::ops::Range;

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

/// The demand of every job but the one being placed, counted at the
/// samples [`contention`] takes over the same horizon, with what scoring a
/// candidate offset against it needs.
///
/// The demand is held as sorted, disjoint runs of samples over which the
/// number of other jobs communicating is a constant `d ≥ 1`, built by
/// sweeping the edges of those jobs' [`PeriodicJob::comm_samples`] runs:
/// O(their comm intervals), with no per-sample profile.
///
/// A candidate's score is the excess-demand integral `e = Σ (d − 1)·dt`
/// over samples with `d ≥ 2`, summed in sample order: bit for bit
/// `contention(..).excess_demand` of the full mix. It is `W·dt` up to
/// rounding, for the integer count `W = Σ (d − 1)⁺`, which prefix counts
/// over the segments give in O(the candidate's comm intervals · log
/// segments).
///
/// The count decides, the in-order float sum breaks ties. A float sum of
/// at most `n` terms lies within `n·2⁻⁵³` relative of `W·dt`, so where
/// two counts differ their floats differ by nearly `dt`, far more than
/// that rounding plus the descent's `1e-12` margin, and they order as the
/// counts do. `W = 0` is `e == 0.0`. Only a tie at `W > 0` runs the float
/// loop, for the candidate and, once per incumbent, for the incumbent; it
/// visits only the contended samples. `count_decides` checks the bounds
/// behind this for the horizon; where they fail, every comparison runs
/// the float loop.
struct OthersDemand {
    /// `(start, end, d)`: samples `start..end` have `d ≥ 1` other jobs
    /// communicating. Sorted and disjoint.
    segments: Vec<(usize, usize, u32)>,
    /// `busy_before[k]`: the samples covered by `segments[..k]`.
    busy_before: Vec<usize>,
    /// The others' own excess count, `Σ (d − 1)⁺` over the samples.
    others_count: u64,
    horizon: f64,
    samples: usize,
    /// Sample spacing, `horizon / samples`.
    dt: f64,
    /// Whether unequal counts decide a comparison without the floats.
    count_decides: bool,
}

/// A candidate offset's score: its excess count and, once a tie needed
/// it, its in-order float sum.
struct Scored {
    count: u64,
    excess: Option<f64>,
    offset: f64,
}

impl OthersDemand {
    fn new(others: &[PeriodicJob], horizon: f64, samples: usize) -> Self {
        // `(sample, ±1)` for every run start and end of every other job.
        let mut edges = Vec::new();
        let mut runs = Vec::new();
        for job in others {
            job.comm_samples(horizon, samples, &mut runs);
            for r in &runs {
                edges.push((r.start, 1i32));
                edges.push((r.end, -1));
            }
        }
        edges.sort_unstable_by_key(|&(at, _)| at);
        let mut segments = Vec::new();
        let mut busy_before = vec![0];
        let mut others_count = 0;
        let (mut d, mut from) = (0i32, 0);
        for &(at, step) in &edges {
            if at > from && d > 0 {
                segments.push((from, at, d as u32));
                busy_before.push(busy_before.last().expect("starts at 0") + (at - from));
                others_count += (d - 1) as u64 * (at - from) as u64;
            }
            d += step;
            from = at;
        }
        let dt = horizon / samples as f64;
        // `W ≤ samples · jobs`, so `W·γₙ ≤ samples² · jobs · 2⁻⁵³ ≤ 1/16`
        // and two floats whose counts differ stay over `dt/2` apart, more
        // than the descent's `1e-12` margin when `dt ≥ 1e-9`.
        let jobs = (others.len() + 1) as f64;
        let count_decides = dt >= 1e-9 && (samples as f64).powi(2) * jobs <= 2f64.powi(49);
        Self {
            segments,
            busy_before,
            others_count,
            horizon,
            samples,
            dt,
            count_decides,
        }
    }

    /// How many of samples `0..i` are busy.
    fn busy_below(&self, i: usize) -> usize {
        let k = self.segments.partition_point(|&(_, end, _)| end <= i);
        let inside = self
            .segments
            .get(k)
            .map_or(0, |&(start, _, _)| i.saturating_sub(start));
        self.busy_before[k] + inside
    }

    /// The excess count `W` of the full mix, with the candidate
    /// communicating on `runs`: each busy sample it covers adds one.
    fn count_with(&self, runs: &[Range<usize>]) -> u64 {
        let covered: usize = runs
            .iter()
            .map(|r| self.busy_below(r.end) - self.busy_below(r.start))
            .sum();
        self.others_count + covered as u64
    }

    /// The excess-demand integral with the candidate communicating on
    /// `runs`, summed in sample order over the samples where `d ≥ 2`:
    /// those of a segment with `d ≥ 2`, and those the candidate covers of
    /// a segment with `d = 1`. Once the partial sum reaches `bound` it
    /// returns early: the terms are non-negative, so the full sum could
    /// not be below `bound` either.
    fn excess_with(&self, runs: &[Range<usize>], bound: f64) -> f64 {
        let mut runs = runs.iter().peekable();
        let mut excess = 0.0;
        for &(start, end, base) in &self.segments {
            let mut i = start;
            while i < end {
                while runs.next_if(|r| r.end <= i).is_some() {}
                // Whether the candidate covers `i`, and where that changes.
                let (covered, next) = match runs.peek() {
                    Some(r) if r.start <= i => (true, r.end.min(end)),
                    Some(r) => (false, r.start.min(end)),
                    None => (false, end),
                };
                let d = base + u32::from(covered);
                if d >= 2 {
                    for _ in i..next {
                        excess += (d - 1) as f64 * self.dt;
                        if excess >= bound {
                            return excess;
                        }
                    }
                }
                i = next;
            }
        }
        excess
    }

    /// Scans `job`'s `grid` candidate offsets in order and returns the
    /// best: a candidate replaces the incumbent when its float `e` is
    /// below the incumbent's minus `margin`. `best` is the incumbent to
    /// beat, if any. The scan stops at a zero count, which nothing after
    /// it could beat.
    fn best_offset(
        &self,
        job: &PeriodicJob,
        grid: usize,
        mut best: Option<Scored>,
        margin: f64,
    ) -> Scored {
        let mut runs = Vec::new();
        for g in 0..grid {
            let offset = job.period * g as f64 / grid as f64;
            job.with_offset(offset)
                .comm_samples(self.horizon, self.samples, &mut runs);
            let count = self.count_with(&runs);
            let better = match &mut best {
                None => true,
                Some(incumbent) => self.beats(job, count, &runs, incumbent, margin),
            };
            if better {
                best = Some(Scored {
                    count,
                    excess: None,
                    offset,
                });
            }
            if count == 0 {
                break;
            }
        }
        best.expect("the grid has at least 8 candidates")
    }

    /// `e < incumbent − margin` for the candidate with `count` on `runs`.
    fn beats(
        &self,
        job: &PeriodicJob,
        count: u64,
        runs: &[Range<usize>],
        incumbent: &mut Scored,
        margin: f64,
    ) -> bool {
        if count != incumbent.count && self.count_decides {
            return count < incumbent.count;
        }
        if count == 0 && incumbent.count == 0 {
            return false; // 0.0 < 0.0 − margin never holds
        }
        let offset = incumbent.offset;
        let best = *incumbent.excess.get_or_insert_with(|| {
            let mut own = Vec::new();
            job.with_offset(offset)
                .comm_samples(self.horizon, self.samples, &mut own);
            self.excess_with(&own, f64::INFINITY)
        });
        self.excess_with(runs, best - margin) < best - margin
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
        let others = OthersDemand::new(&placed, horizon, samples);
        offsets[idx] = others.best_offset(&job, grid, None, 0.0).offset;
        placed.push(job.with_offset(offsets[idx]));
    }

    // Coordinate descent refinement: move one job at a time to its best
    // grid offset against the others, keeping improvements by more than
    // 1e-12. The incumbent is the current mix, whose float is known until
    // a job moves and then computed only if a tie needs it.
    let mut current: Vec<PeriodicJob> = jobs
        .iter()
        .zip(&offsets)
        .map(|(j, &o)| j.with_offset(o))
        .collect();
    let horizon = hyperperiod(&current, 1e-6);
    let mut report = contention(&current, samples);
    let mut mix_excess = Some(report.excess_demand);
    let mut mix_is_zero = report.excess_demand == 0.0;
    let mut moved = false;
    let mut others_buf = Vec::with_capacity(jobs.len());
    let mut runs = Vec::new();
    for _round in 0..4 {
        if mix_is_zero {
            break;
        }
        let mut improved = false;
        for i in 0..current.len() {
            others_buf.clear();
            others_buf.extend(current[..i].iter().chain(&current[i + 1..]));
            let others = OthersDemand::new(&others_buf, horizon, samples);
            current[i].comm_samples(horizon, samples, &mut runs);
            let incumbent = Scored {
                count: others.count_with(&runs),
                excess: mix_excess,
                offset: current[i].offset,
            };
            let best = others.best_offset(&jobs[i], grid, Some(incumbent), 1e-12);
            if best.offset != current[i].offset {
                current[i] = jobs[i].with_offset(best.offset);
                improved = true;
            }
            mix_excess = best.excess;
            mix_is_zero = best.count == 0;
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
    use mltcp_core::schedule::demand_profile;
    use mltcp_workload::models;
    use proptest::prelude::*;

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

    /// For every grid offset of every job against the others (all
    /// synchronized at offset 0), the prefix-sum count equals
    /// `Σ (d − 1)⁺` counted with `is_communicating` at every sample, and
    /// wherever two counts differ, both float comparisons the optimizer
    /// makes, `e < e'` and `e < e' − 1e-12`, order the candidates as the
    /// counts do.
    #[test]
    fn counts_decide_as_the_floats_do() {
        let rate = models::paper_bottleneck();
        let mixes = [
            models::fig2_mix(rate, 0.01, 8)
                .iter()
                .map(|j| j.to_periodic(rate))
                .collect(),
            vec![job(1.2, 0.5), job(1.8, 1.0 / 6.0), job(1.8, 0.3)],
            vec![job(1.0, 0.4).with_bursts(3), job(1.5, 0.9), job(1.0, 1.0)],
        ];
        let (grid, samples) = (240, 8192);
        for mix in &mixes {
            let horizon = hyperperiod(mix, 1e-6);
            for (i, job) in mix.iter().enumerate() {
                let others: Vec<PeriodicJob> =
                    mix[..i].iter().chain(&mix[i + 1..]).copied().collect();
                let demand = OthersDemand::new(&others, horizon, samples);
                assert!(demand.count_decides);
                let mut runs = Vec::new();
                let scores: Vec<(u64, f64)> = (0..grid)
                    .map(|g| {
                        let cand = job.with_offset(job.period * g as f64 / grid as f64);
                        cand.comm_samples(horizon, samples, &mut runs);
                        let brute: u64 = (0..samples)
                            .map(|s| {
                                let t = horizon * s as f64 / samples as f64;
                                let d = others
                                    .iter()
                                    .chain([&cand])
                                    .filter(|j| j.is_communicating(t))
                                    .count();
                                d.saturating_sub(1) as u64
                            })
                            .sum();
                        let count = demand.count_with(&runs);
                        assert_eq!(count, brute, "job {i} candidate {g}");
                        (count, demand.excess_with(&runs, f64::INFINITY))
                    })
                    .collect();
                for &(w, e) in &scores {
                    assert_eq!(w == 0, e == 0.0);
                    for &(w2, e2) in scores.iter().filter(|s| s.0 != w) {
                        assert_eq!(e < e2, w < w2, "{e} vs {e2}");
                        assert_eq!(e < e2 - 1e-12, w < w2, "{e} vs {e2}");
                    }
                }
            }
        }
    }

    /// The per-sample form of [`OthersDemand`], the oracle of its segment
    /// form: the others' demand profile, its busy samples in order, and
    /// prefix counts over them.
    struct SampledDemand {
        /// `(sample index, number of other jobs communicating there)` for
        /// every sample where that number is non-zero, in sample order.
        busy: Vec<(usize, u32)>,
        /// `busy_before[i]`: how many of samples `0..i` are busy.
        busy_before: Vec<u32>,
        others_count: u64,
        dt: f64,
    }

    impl SampledDemand {
        fn new(others: &[PeriodicJob], horizon: f64, samples: usize) -> Self {
            let profile = demand_profile(others, horizon, samples);
            let mut busy = Vec::new();
            let mut busy_before = vec![0];
            let mut others_count = 0;
            for (i, &d) in profile.iter().enumerate() {
                if d > 0 {
                    busy.push((i, d));
                    others_count += u64::from(d - 1);
                }
                busy_before.push(busy.len() as u32);
            }
            Self {
                busy,
                busy_before,
                others_count,
                dt: horizon / samples as f64,
            }
        }

        fn count_with(&self, runs: &[Range<usize>]) -> u64 {
            let covered: u32 = runs
                .iter()
                .map(|r| self.busy_before[r.end] - self.busy_before[r.start])
                .sum();
            self.others_count + u64::from(covered)
        }

        /// Every busy sample in order, the candidate adding one where it
        /// communicates, with the early exit at `bound`.
        fn excess_with(&self, runs: &[Range<usize>], bound: f64) -> f64 {
            let mut runs = runs.iter().peekable();
            let mut excess = 0.0;
            for &(i, base) in &self.busy {
                while runs.next_if(|r| r.end <= i).is_some() {}
                let d = base + u32::from(runs.peek().is_some_and(|r| r.start <= i));
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

    /// Which edge cases a comparison against [`SampledDemand`] reached.
    #[derive(Debug, Default)]
    struct Reached {
        /// Three or more jobs communicating at once, candidate included.
        deep_overlap: bool,
        /// The others' demand covers sample 0 or the last sample.
        first_sample: bool,
        last_sample: bool,
        /// A finite bound cut a float sum short.
        early_exit: bool,
    }

    /// For every grid candidate of `job` against `others`, the segment
    /// count equals the per-sample count, and the float sum is bit-equal
    /// with no bound and with the finite bounds the optimizer passes: the
    /// previous candidate's sum less the descent margin, and fractions of
    /// the candidate's own sum.
    fn assert_matches_sampled(
        others: &[PeriodicJob],
        job: &PeriodicJob,
        samples: usize,
        grid: usize,
    ) -> Reached {
        let mut reached = Reached::default();
        let mut mix = others.to_vec();
        mix.push(*job);
        let horizon = hyperperiod(&mix, 1e-6);
        let segments = OthersDemand::new(others, horizon, samples);
        let sampled = SampledDemand::new(others, horizon, samples);
        if let (Some(first), Some(last)) = (segments.segments.first(), segments.segments.last()) {
            reached.first_sample |= first.0 == 0;
            reached.last_sample |= last.1 == samples;
        }
        let mut runs = Vec::new();
        let mut previous = f64::INFINITY;
        for g in 0..grid {
            let cand = job.with_offset(job.period * g as f64 / grid as f64);
            cand.comm_samples(horizon, samples, &mut runs);
            assert_eq!(
                segments.count_with(&runs),
                sampled.count_with(&runs),
                "candidate {g} of {job:?} against {others:?}"
            );
            let full = sampled.excess_with(&runs, f64::INFINITY);
            for bound in [
                f64::INFINITY,
                previous - 1e-12,
                full,
                full / 2.0,
                full / 3.0,
            ] {
                let got = segments.excess_with(&runs, bound);
                assert_eq!(
                    got.to_bits(),
                    sampled.excess_with(&runs, bound).to_bits(),
                    "candidate {g} bound {bound} of {job:?} against {others:?}"
                );
                reached.early_exit |= got < full;
            }
            previous = full;
            let profile = demand_profile(&[cand], horizon, samples);
            reached.deep_overlap |= sampled.busy.iter().any(|&(i, d)| d + profile[i] >= 3);
        }
        reached
    }

    /// Periods whose hyperperiods stay a few multiples of the longest.
    const PERIODS: [f64; 6] = [1.0, 1.2, 1.5, 1.8, 2.0, 2.4];

    proptest! {
        /// Random 2–6-job mixes of 1–4 bursts and `a` up to 1, at offsets
        /// of 0, just short of the period (runs wrapping round the
        /// horizon's end) or anywhere between, at sample counts that do
        /// and do not divide the horizon evenly.
        #[test]
        fn segments_match_the_sampled_profile(
            mix in proptest::collection::vec(
                (
                    0usize..PERIODS.len(),
                    prop_oneof![4 => 0.05f64..1.0, 1 => Just(1.0)],
                    1u32..5,
                    prop_oneof![1 => Just(0.0), 1 => Just(0.999), 2 => 0.0f64..1.0],
                ),
                2..7,
            ),
            samples in prop_oneof![Just(256usize), Just(1000), Just(1024)],
        ) {
            let jobs: Vec<PeriodicJob> = mix
                .iter()
                .map(|&(p, a, bursts, phase)| {
                    PeriodicJob::new(PERIODS[p], a, phase * PERIODS[p])
                        .unwrap()
                        .with_bursts(bursts)
                })
                .collect();
            for i in 0..jobs.len() {
                let others: Vec<PeriodicJob> =
                    jobs[..i].iter().chain(&jobs[i + 1..]).copied().collect();
                assert_matches_sampled(&others, &jobs[i], samples, 48);
            }
        }
    }

    /// One fixed mix reaches every edge case the proptest draws: three
    /// synchronized half-period jobs from sample 0, a job wrapping round
    /// the horizon's end, and bounded sums cut short.
    #[test]
    fn sampled_oracle_reaches_every_edge_case() {
        let others = [
            job(1.0, 0.5),
            job(1.0, 0.5).with_bursts(2),
            job(1.2, 0.5),
            PeriodicJob::new(1.8, 0.25, 1.7).unwrap(),
        ];
        let reached = assert_matches_sampled(&others, &job(1.5, 0.3), 1000, 60);
        assert!(
            reached.deep_overlap
                && reached.first_sample
                && reached.last_sample
                && reached.early_exit,
            "{reached:?}"
        );
    }
}
