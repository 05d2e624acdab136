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
    pub fn is_communicating(&self, t: f64) -> bool {
        let mut phase = (t - self.offset) % self.period;
        if phase < 0.0 {
            phase += self.period;
        }
        let b = f64::from(self.bursts.max(1));
        let sub_period = self.period / b;
        (phase % sub_period) < self.comm_duration() / b
    }

    /// Returns a copy with a different offset.
    pub fn with_offset(&self, offset: f64) -> Self {
        Self { offset, ..*self }
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
        l = l / gcd(l, p) * p;
        // Guard against pathological mixes blowing up the grid.
        if l > 1_000_000_000_000 {
            return l as f64 * res;
        }
    }
    l as f64 * res
}

/// The aggregate number of jobs communicating at each of `samples` points
/// over `[0, horizon)`.
pub fn demand_profile(jobs: &[PeriodicJob], horizon: f64, samples: usize) -> Vec<u32> {
    let n = samples.max(1);
    (0..n)
        .map(|i| {
            let t = horizon * i as f64 / n as f64;
            jobs.iter().filter(|j| j.is_communicating(t)).count() as u32
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

    fn job(t: f64, a: f64, off: f64) -> PeriodicJob {
        PeriodicJob::new(t, a, off).unwrap()
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
