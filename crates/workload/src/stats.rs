//! Iteration-time series analysis: percentiles, CDFs, convergence.

use crate::driver::IterationRecord;

/// Summary statistics over one job's iteration durations.
#[derive(Debug, Clone)]
pub struct IterationStats {
    durations_secs: Vec<f64>,
}

impl IterationStats {
    /// From raw iteration records.
    pub fn from_records(records: &[IterationRecord]) -> Self {
        Self {
            durations_secs: records.iter().map(|r| r.duration().as_secs_f64()).collect(),
        }
    }

    /// From raw durations in seconds.
    pub fn from_durations(durations_secs: Vec<f64>) -> Self {
        Self { durations_secs }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.durations_secs.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.durations_secs.is_empty()
    }

    /// The raw series (seconds).
    pub fn durations(&self) -> &[f64] {
        &self.durations_secs
    }

    /// Arithmetic mean (0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.durations_secs.is_empty() {
            return 0.0;
        }
        self.durations_secs.iter().sum::<f64>() / self.durations_secs.len() as f64
    }

    /// Mean over the last `k` iterations (steady-state estimate).
    pub fn tail_mean(&self, k: usize) -> f64 {
        let n = self.durations_secs.len();
        if n == 0 {
            return 0.0;
        }
        let k = k.min(n).max(1);
        self.durations_secs[n - k..].iter().sum::<f64>() / k as f64
    }

    /// The `p`-quantile (`p ∈ [0, 1]`) by nearest-rank on the sorted
    /// series; 0 for an empty series.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.durations_secs.is_empty() {
            return 0.0;
        }
        let mut sorted = self.durations_secs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        let idx = ((p.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    }

    /// Maximum duration.
    pub fn max(&self) -> f64 {
        self.durations_secs.iter().copied().fold(0.0, f64::max)
    }

    /// Empirical CDF as `(duration_secs, cumulative_probability)` points.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.durations_secs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
        let n = sorted.len();
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, d)| (d, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// First iteration index after which every remaining duration stays
    /// within `rel_tol` of the steady-state (last-`steady_k`) mean;
    /// `None` if the series never settles.
    ///
    /// This is the "converges within ~20 iterations" metric of §2.
    pub fn converged_after(&self, rel_tol: f64, steady_k: usize) -> Option<usize> {
        if self.durations_secs.is_empty() {
            return None;
        }
        let target = self.tail_mean(steady_k);
        if target <= 0.0 {
            return None;
        }
        let ok = |d: f64| ((d - target) / target).abs() <= rel_tol;
        // Walk backwards to find the last violation.
        let last_bad = self.durations_secs.iter().rposition(|&d| !ok(d));
        match last_bad {
            None => Some(0),
            Some(i) if i + 1 < self.durations_secs.len() => Some(i + 1),
            Some(_) => None,
        }
    }
}

/// The speedup of `baseline` over `improved` at quantile `p`
/// (e.g. the paper's Fig. 4(c) "1.59× tail iteration-time speedup" =
/// `speedup_at(reno, mltcp, 0.99)`).
pub fn speedup_at(baseline: &IterationStats, improved: &IterationStats, p: f64) -> f64 {
    let b = baseline.percentile(p);
    let i = improved.percentile(p);
    if i > 0.0 {
        b / i
    } else {
        f64::INFINITY
    }
}

/// Per-job experiment row used by the bench harness.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Iterations completed.
    pub iterations: usize,
    /// Mean iteration time (s).
    pub mean_secs: f64,
    /// Steady-state (last 5) mean iteration time (s).
    pub steady_secs: f64,
    /// p50 / p95 / p99 iteration times (s).
    pub p50_secs: f64,
    /// 95th percentile (s).
    pub p95_secs: f64,
    /// 99th percentile (s).
    pub p99_secs: f64,
    /// Convergence iteration (if settled).
    pub converged_after: Option<usize>,
}

impl JobReport {
    /// Builds a report from a named stats series.
    pub fn new(name: impl Into<String>, stats: &IterationStats) -> Self {
        Self {
            name: name.into(),
            iterations: stats.len(),
            mean_secs: stats.mean(),
            steady_secs: stats.tail_mean(5),
            p50_secs: stats.percentile(0.50),
            p95_secs: stats.percentile(0.95),
            p99_secs: stats.percentile(0.99),
            converged_after: stats.converged_after(0.05, 5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(xs: &[f64]) -> IterationStats {
        IterationStats::from_durations(xs.to_vec())
    }

    #[test]
    fn mean_and_tail_mean() {
        let s = stats(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.tail_mean(2) - 3.5).abs() < 1e-12);
        assert!((s.tail_mean(100) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles() {
        let s = stats(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(0.5), 3.0);
        assert_eq!(s.percentile(1.0), 5.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let s = stats(&[3.0, 1.0, 2.0]);
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 3);
        assert_eq!(cdf[0], (1.0, 1.0 / 3.0));
        assert_eq!(cdf[2], (3.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn convergence_detection() {
        // Ramp down then stable: converges at index 3.
        let s = stats(&[3.0, 2.5, 2.0, 1.01, 1.0, 0.99, 1.0, 1.0]);
        assert_eq!(s.converged_after(0.05, 4), Some(3));
        // Never settles.
        let s2 = stats(&[1.0, 5.0, 1.0, 5.0, 1.0, 5.0]);
        assert_eq!(s2.converged_after(0.05, 3), None);
        // Flat from the start.
        let s3 = stats(&[1.0, 1.0, 1.0]);
        assert_eq!(s3.converged_after(0.05, 2), Some(0));
    }

    #[test]
    fn speedup() {
        let base = stats(&[2.0, 2.0, 4.0]);
        let fast = stats(&[1.0, 1.0, 2.0]);
        assert!((speedup_at(&base, &fast, 0.99) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_safe() {
        let s = stats(&[]);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.5), 0.0);
        assert_eq!(s.converged_after(0.05, 3), None);
        assert!(s.cdf().is_empty());
    }

    #[test]
    fn job_report_fields() {
        let s = stats(&[2.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let r = JobReport::new("j", &s);
        assert_eq!(r.iterations, 6);
        assert_eq!(r.converged_after, Some(1));
        assert!((r.steady_secs - 1.0).abs() < 1e-12);
    }
}
