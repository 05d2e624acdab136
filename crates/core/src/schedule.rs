//! Interleaving metrics over sets of periodic jobs.
//!
//! A periodic job is described by its ideal iteration time `T`, its
//! communication fraction `a` (the comm phase lasts `a·T` and demands the
//! full link rate, per the §4 "continuous and constant demand" assumption),
//! and a start-time offset. This module computes aggregate demand profiles
//! over the hyperperiod, contention metrics, and the *compatibility*
//! condition (borrowed from Cassini) under which a fully interleaved
//! schedule exists — the regime in which the paper guarantees MLTCP's
//! convergence.

use std::ops::Range;

/// A periodic job's schedule-relevant geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicJob {
    /// Ideal (isolated) iteration time in seconds.
    pub period: f64,
    /// Fraction of the period spent communicating at full link demand.
    pub comm_fraction: f64,
    /// Offset of the first communication phase's start, in seconds.
    pub offset: f64,
    /// Number of equal communication sub-bursts per iteration, spread
    /// evenly over the period (DNN allreduce traffic is often
    /// multi-burst — see the paper's Fig. 1(a) GPT-3 pattern). 1 = one
    /// contiguous comm phase.
    pub bursts: u32,
}

impl PeriodicJob {
    /// Constructs a job, validating `period > 0` and `comm_fraction ∈ (0, 1]`.
    pub fn new(period: f64, comm_fraction: f64, offset: f64) -> Option<Self> {
        if period.is_finite()
            && period > 0.0
            && comm_fraction.is_finite()
            && comm_fraction > 0.0
            && comm_fraction <= 1.0
            && offset.is_finite()
        {
            Some(Self {
                period,
                comm_fraction,
                offset,
                bursts: 1,
            })
        } else {
            None
        }
    }

    /// Splits the communication phase into `n` equal sub-bursts spread
    /// evenly over the period (builder style; `n` clamps to ≥ 1).
    pub fn with_bursts(mut self, n: u32) -> Self {
        self.bursts = n.max(1);
        self
    }

    /// Duration of the communication phase, `a·T`.
    pub fn comm_duration(&self) -> f64 {
        self.comm_fraction * self.period
    }

    /// Whether the job is communicating at time `t` (ideal schedule).
    ///
    /// The phase within the period is `(t − offset) % T`, lifted into
    /// `[0, T]`, and the job communicates while that phase modulo the
    /// sub-period `T/b` is below `a·T/b`. Both reductions go through
    /// `rem`, which returns the bits `%` would, so the answer is that
    /// of the plain `%` formula at every `t`.
    pub fn is_communicating(&self, t: f64) -> bool {
        let mut phase = rem(t - self.offset, self.period);
        if phase < 0.0 {
            phase += self.period;
        }
        let b = f64::from(self.bursts.max(1));
        let sub_period = self.period / b;
        rem(phase, sub_period) < self.comm_duration() / b
    }

    /// Returns a copy with a different offset.
    pub fn with_offset(&self, offset: f64) -> Self {
        Self { offset, ..*self }
    }

    /// The samples at which the job communicates, as sorted, disjoint,
    /// non-adjacent runs of sample indices written to `runs` (its old
    /// contents are cleared). Sample `i ∈ [0, samples)` sits at
    /// `horizon·i/samples`, as in [`demand_profile`].
    ///
    /// The answer equals [`is_communicating`](Self::is_communicating) at
    /// every sample, at O(comm intervals) cost rather than O(samples).
    /// The job communicates on `[offset + kT + q·T/b, … + a·T/b)` for
    /// integers `k` and `q ∈ 0..b`, with `T/b` and `a·T/b` rounded as
    /// `is_communicating` rounds them. Each edge is mapped into sample
    /// index space and the two samples bracketing it are settled with
    /// `is_communicating` itself. Every other sample lies more than one
    /// sample spacing from every edge, and the predicate's rounding
    /// (a few ulps of `horizon + |offset| + T`) is far below a spacing,
    /// so the interval it falls in (or between) decides it. Where that
    /// margin is not assured it scans every sample instead: more
    /// intervals than samples, `horizon + |offset| + T` over 2⁴⁰ sample
    /// spacings, or geometry `PeriodicJob::new` would reject.
    pub fn comm_samples(&self, horizon: f64, samples: usize, runs: &mut Vec<Range<usize>>) {
        runs.clear();
        let n = samples.max(1);
        let at = |i: usize| horizon * i as f64 / n as f64;
        let bursts = self.bursts.max(1);
        let sub_period = self.period / f64::from(bursts);
        let burst = self.comm_duration() / f64::from(bursts);
        let first_k = (-self.offset / self.period).floor() - 1.0;
        let last_k = ((horizon - self.offset) / self.period).floor() + 1.0;
        let intervals = (last_k - first_k + 1.0) * f64::from(bursts);
        let margin_holds = horizon > 0.0
            && burst > 0.0
            && burst <= sub_period
            && intervals <= n as f64
            && (horizon + self.offset.abs() + self.period) * 2f64.powi(-40) < horizon / n as f64;
        if !margin_holds {
            for i in (0..n).filter(|&i| self.is_communicating(at(i))) {
                push_run(runs, i..i + 1);
            }
            return;
        }
        let len = n as i64;
        let index = |t: f64| (t * n as f64 / horizon).floor() as i64;
        // Samples below `next` are decided.
        let mut next = 0i64;
        let mut settle = |runs: &mut Vec<Range<usize>>, edge: i64| {
            for i in edge.max(next)..(edge + 2).min(len) {
                if self.is_communicating(at(i as usize)) {
                    push_run(runs, i as usize..i as usize + 1);
                }
            }
            next = next.max(edge + 2);
            next
        };
        let mut k = first_k;
        while k <= last_k {
            let period_start = self.offset + k * self.period;
            for q in 0..bursts {
                let start = period_start + f64::from(q) * sub_period;
                let (first, end) = (index(start), index(start + burst));
                if first >= len {
                    return;
                }
                let inside_from = settle(runs, first);
                if inside_from < end.min(len) {
                    push_run(runs, inside_from as usize..end.min(len) as usize);
                }
                settle(runs, end);
            }
            k += 1.0;
        }
    }
}

/// Appends `run` to sorted runs, merging it into the last run if they
/// touch.
fn push_run(runs: &mut Vec<Range<usize>>, run: Range<usize>) {
    match runs.last_mut() {
        Some(last) if last.end == run.start => last.end = run.end,
        _ => runs.push(run),
    }
}

/// `x % y`, bit for bit, skipping the software `fmod` for quotients
/// below 2.
///
/// `fmod` is exact: it returns `x − n·y` with `n = trunc(x / y)` and no
/// rounding. So for `|x| < y` it returns `x` itself (`−0.0` included),
/// and for `y ≤ x < 2y` it returns `x − y`, a subtraction Sterbenz's
/// lemma makes exact. Everything else (NaN, infinities, `y ≤ 0`,
/// `x ≤ −y`, `x ≥ 2y`) takes `%`.
#[inline]
fn rem(x: f64, y: f64) -> f64 {
    if x.abs() < y {
        x
    } else if x >= y && x < 2.0 * y {
        x - y
    } else {
        x % y
    }
}

/// Least common multiple of the jobs' periods, computed on a rational grid:
/// periods are snapped to multiples of `resolution` seconds first (1 µs by
/// default is far finer than any DNN iteration time).
pub fn hyperperiod(jobs: &[PeriodicJob], resolution: f64) -> f64 {
    fn gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let t = b;
            b = a % b;
            a = t;
        }
        a
    }
    let res = if resolution > 0.0 { resolution } else { 1e-6 };
    let mut l: u64 = 1;
    for j in jobs {
        let p = (j.period / res).round().max(1.0) as u64;
        let q = l / gcd(l, p);
        // Guard against pathological mixes blowing up the grid, and
        // against the product overflowing `u64` on the way there.
        match q.checked_mul(p) {
            Some(next) if next <= 1_000_000_000_000 => l = next,
            Some(next) => return next as f64 * res,
            None => return q as f64 * p as f64 * res,
        }
    }
    l as f64 * res
}

/// The aggregate number of jobs communicating at each of `samples` points
/// over `[0, horizon)`: the per-sample count of
/// [`is_communicating`](PeriodicJob::is_communicating), built from each
/// job's [`comm_samples`](PeriodicJob::comm_samples) runs.
pub fn demand_profile(jobs: &[PeriodicJob], horizon: f64, samples: usize) -> Vec<u32> {
    let n = samples.max(1);
    // `delta[i]`: jobs whose runs start at sample `i` minus those ending there.
    let mut delta = vec![0i32; n + 1];
    let mut runs = Vec::new();
    for job in jobs {
        job.comm_samples(horizon, n, &mut runs);
        for run in &runs {
            delta[run.start] += 1;
            delta[run.end] -= 1;
        }
    }
    let mut d = 0i32;
    delta[..n]
        .iter()
        .map(|&step| {
            d += step;
            d as u32
        })
        .collect()
}

/// Contention metrics over one hyperperiod of an ideal (no-slowdown)
/// schedule with the given offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionReport {
    /// Maximum number of simultaneously communicating jobs.
    pub peak_overlap: u32,
    /// Fraction of time at least two jobs communicate simultaneously.
    pub contended_time_fraction: f64,
    /// Time-integral of `(overlap − 1)⁺`, the total excess demand
    /// (seconds of communication that must be delayed or slowed).
    pub excess_demand: f64,
}

/// Evaluates contention for the jobs' current offsets.
pub fn contention(jobs: &[PeriodicJob], samples: usize) -> ContentionReport {
    let horizon = hyperperiod(jobs, 1e-6);
    let profile = demand_profile(jobs, horizon, samples);
    let n = profile.len().max(1);
    let dt = horizon / n as f64;
    let mut peak = 0u32;
    let mut contended = 0usize;
    let mut excess = 0.0;
    for &d in &profile {
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

/// The Cassini-style compatibility condition for a single full-rate link:
/// within one hyperperiod `H`, the total communication time demanded by all
/// jobs must fit, i.e. `Σ_j (H / T_j) · a_j · T_j = H · Σ_j a_j ≤ H`.
///
/// Equivalently `Σ a_j ≤ 1`. Only in this regime does a zero-contention
/// (fully interleaved) schedule exist, and only there does the paper's
/// convergence guarantee apply.
pub fn is_compatible(jobs: &[PeriodicJob]) -> bool {
    jobs.iter().map(|j| j.comm_fraction).sum::<f64>() <= 1.0 + 1e-9
}

/// Total communication demand `Σ a_j` (utilization of the bottleneck by
/// ideal schedules; 1.0 = perfectly packed).
pub fn total_comm_demand(jobs: &[PeriodicJob]) -> f64 {
    jobs.iter().map(|j| j.comm_fraction).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn job(t: f64, a: f64, off: f64) -> PeriodicJob {
        PeriodicJob::new(t, a, off).unwrap()
    }

    /// Values `fmod` treats specially or that sit at the edges of the
    /// fast paths: signed zeros, NaN, infinities, subnormals, extremes.
    const SPECIAL: [f64; 14] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        -5e-324,
        2.0e-308,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::MAX / 2.0,
        f64::MAX / 4.0,
        1.0,
    ];

    /// Any bit pattern (every exponent and sign, NaNs included), a
    /// special value, or a value of the periodic model's magnitude.
    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => any::<u64>().prop_map(f64::from_bits),
            1 => (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
            2 => 1e-4f64..100.0,
        ]
    }

    /// `x` moved by `n` steps of its bit pattern (ulps away from zero
    /// for positive `n`).
    fn ulps(x: f64, n: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(n))
    }

    fn assert_rem_bits(x: f64, y: f64) {
        let (got, want) = (rem(x, y), x % y);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "rem({x:e}, {y:e}) = {got:e}, % gives {want:e}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// `rem` returns exactly the bits of `%`: on random pairs, and
        /// on `x = k·y ± 0–3 ulp` for `k ∈ −5..=5`, which covers both
        /// fast paths, their edges and the quotients either side.
        #[test]
        fn rem_matches_percent_bit_for_bit(x in any_f64(), y in any_f64()) {
            for (a, b) in [(x, y), (y, x), (x, x), (-x, y), (x, -y)] {
                assert_rem_bits(a, b);
            }
            for k in -5i32..=5 {
                let ky = f64::from(k) * y;
                for d in -3i64..=3 {
                    assert_rem_bits(ulps(ky, d), y);
                    assert_rem_bits(ulps(ky, d), ulps(y, d));
                }
            }
        }
    }

    #[test]
    fn rem_special_values_match_percent() {
        for &x in &SPECIAL {
            for &y in &SPECIAL {
                assert_rem_bits(x, y);
                assert_rem_bits(-x, -y);
            }
        }
    }

    #[test]
    fn hyperperiod_overflow_takes_the_guard() {
        // 0.999999 s and 1.000001 s snap to coprime µs counts whose lcm,
        // 999 999 999 999, sits just under the 10¹² guard; times the
        // 10⁸ µs of the third period it overflows `u64`.
        let jobs = [
            job(0.999999, 0.5, 0.0),
            job(1.000001, 0.5, 0.0),
            job(100.0, 0.5, 0.0),
        ];
        let h = hyperperiod(&jobs, 1e-6);
        assert_eq!(h, 999_999_999_999f64 * 1e8 * 1e-6);
        assert!(h.is_finite() && h > 1e6);
        // Without the third job the guard is not reached.
        assert_eq!(hyperperiod(&jobs[..2], 1e-6), 999_999_999_999f64 * 1e-6);
    }

    #[test]
    fn is_communicating_respects_phase() {
        let j = job(1.8, 1.0 / 6.0, 0.0);
        assert!(j.is_communicating(0.0));
        assert!(j.is_communicating(0.29));
        assert!(!j.is_communicating(0.31));
        assert!(j.is_communicating(1.8 + 0.1));
        // Negative time wraps.
        assert!(!j.is_communicating(-0.1));
        assert!(j.is_communicating(-1.7));
    }

    #[test]
    fn offset_shifts_the_phase() {
        let j = job(1.8, 1.0 / 6.0, 0.5);
        assert!(!j.is_communicating(0.0));
        assert!(j.is_communicating(0.6));
    }

    #[test]
    fn hyperperiod_of_fig2_mix() {
        // J1: T = 1.2 s, J2..J4: T = 1.8 s ⇒ hyperperiod 3.6 s.
        let jobs = [
            job(1.2, 0.5, 0.0),
            job(1.8, 1.0 / 6.0, 0.0),
            job(1.8, 1.0 / 6.0, 0.0),
            job(1.8, 1.0 / 6.0, 0.0),
        ];
        assert!((hyperperiod(&jobs, 1e-6) - 3.6).abs() < 1e-6);
    }

    #[test]
    fn synchronized_identical_jobs_fully_contend() {
        let jobs = vec![job(1.8, 1.0 / 6.0, 0.0); 6];
        let rep = contention(&jobs, 10_000);
        assert_eq!(rep.peak_overlap, 6);
        assert!(rep.excess_demand > 0.0);
    }

    #[test]
    fn perfectly_staggered_jobs_do_not_contend() {
        // Six a=1/6 jobs offset by exactly aT each: zero overlap.
        let at = 1.8 / 6.0;
        let jobs: Vec<_> = (0..6).map(|i| job(1.8, 1.0 / 6.0, at * i as f64)).collect();
        let rep = contention(&jobs, 10_000);
        assert_eq!(rep.peak_overlap, 1);
        assert_eq!(rep.contended_time_fraction, 0.0);
        assert_eq!(rep.excess_demand, 0.0);
    }

    #[test]
    fn compatibility_condition() {
        let six = vec![job(1.8, 1.0 / 6.0, 0.0); 6];
        assert!(is_compatible(&six));
        assert!((total_comm_demand(&six) - 1.0).abs() < 1e-9);

        let seven = vec![job(1.8, 1.0 / 6.0, 0.0); 7];
        assert!(!is_compatible(&seven));
    }

    #[test]
    fn fig2_mix_is_compatible() {
        let jobs = [
            job(1.2, 0.5, 0.0),
            job(1.8, 1.0 / 6.0, 0.0),
            job(1.8, 1.0 / 6.0, 0.0),
            job(1.8, 1.0 / 6.0, 0.0),
        ];
        assert!(is_compatible(&jobs));
        assert!(total_comm_demand(&jobs) <= 1.0 + 1e-12);
    }

    #[test]
    fn invalid_jobs_rejected() {
        assert!(PeriodicJob::new(0.0, 0.5, 0.0).is_none());
        assert!(PeriodicJob::new(1.0, 0.0, 0.0).is_none());
        assert!(PeriodicJob::new(1.0, 1.1, 0.0).is_none());
        assert!(PeriodicJob::new(1.0, 0.5, f64::NAN).is_none());
    }

    #[test]
    fn demand_profile_length_and_values() {
        let jobs = [job(1.0, 0.5, 0.0), job(1.0, 0.5, 0.5)];
        let p = demand_profile(&jobs, 1.0, 100);
        assert_eq!(p.len(), 100);
        assert!(p.iter().all(|&d| d == 1));
    }
}
