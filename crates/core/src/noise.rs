//! The §4 perturbation model and MLTCP's approximation-error bound.
//!
//! Real clusters perturb iteration times: compute-duration jitter, RTT
//! variation, clock skew. The paper models the aggregate as zero-mean
//! Gaussian noise of standard deviation `σ` added to each job's iteration
//! time, and shows the steady-state deviation of the converged
//! configuration from the exact interleaved optimum is itself Gaussian
//! with standard deviation
//!
//! ```text
//! σ_err = 2σ · (1 + Intercept / Slope)
//! ```
//!
//! — i.e. the approximation error is *linearly* bounded by the system's
//! noise intensity. This module provides the predicted bound and the
//! steady-state statistics that check it. The perturbed iteration map is
//! [`crate::gradient::Descent::steady_state`], which the Monte-Carlo
//! validation runs (`exp_noise_error` in `mltcp-bench` sweeps σ and
//! compares the empirical steady-state spread against this prediction).

use crate::gradient::circular_distance;
use crate::params::MltcpParams;

/// The predicted steady-state error's standard deviation,
/// `2σ(1 + Intercept/Slope)`.
///
/// Returns `f64::INFINITY` when `slope == 0` (no restoring force).
pub fn predicted_error_stddev(params: MltcpParams, noise_stddev: f64) -> f64 {
    2.0 * noise_stddev * (1.0 + params.intercept_slope_ratio())
}

/// Summary statistics of a noisy steady state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateStats {
    /// Mean signed deviation from the noise-free fixed point.
    pub mean: f64,
    /// Standard deviation of the deviation.
    pub stddev: f64,
    /// Number of samples aggregated.
    pub samples: usize,
}

/// Checks whether an empirical steady-state spread is consistent with the
/// paper's linear bound: `stddev ≤ slack × 2σ(1 + I/S)`.
pub fn within_linear_bound(
    stats: &SteadyStateStats,
    params: MltcpParams,
    noise_stddev: f64,
    slack: f64,
) -> bool {
    stats.stddev <= slack * predicted_error_stddev(params, noise_stddev)
}

/// Steady-state deviation of a trajectory from a reference phase: the
/// analytic map's post-warmup samples
/// ([`crate::gradient::Descent::steady_state`]), or a trajectory from
/// packet-level dynamics.
pub fn deviation_stats(trajectory: &[f64], reference: f64, period: f64) -> SteadyStateStats {
    if trajectory.is_empty() {
        return SteadyStateStats {
            mean: 0.0,
            stddev: 0.0,
            samples: 0,
        };
    }
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for &x in trajectory {
        let dev = {
            let raw = circular_distance(x, reference, period);
            // circular_distance is unsigned; recover sign from the shorter arc.
            let mut s = (x - reference) % period;
            if s > period / 2.0 {
                s -= period;
            } else if s < -period / 2.0 {
                s += period;
            }
            debug_assert!((s.abs() - raw).abs() < 1e-9);
            s
        };
        sum += dev;
        sum_sq += dev * dev;
    }
    let n = trajectory.len() as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    SteadyStateStats {
        mean,
        stddev: var.sqrt(),
        samples: trajectory.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::Descent;
    use crate::shift::ShiftFunction;

    fn shift_a_half() -> ShiftFunction {
        ShiftFunction::new(MltcpParams::PAPER, 1.8, 0.5).unwrap()
    }

    /// Minimal seeded uniform source (splitmix64), keeping this crate
    /// free of RNG dependencies even in tests.
    struct TestRng(u64);

    impl TestRng {
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Box–Muller Gaussian from the uniform source above.
    fn gaussian(rng: &mut TestRng, sigma: f64) -> f64 {
        let u1: f64 = rng.unit().max(1e-12);
        let u2: f64 = rng.unit();
        sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    #[test]
    fn predicted_stddev_formula() {
        let s = predicted_error_stddev(MltcpParams::PAPER, 0.01);
        assert!((s - 2.0 * 0.01 * (1.0 + 0.25 / 1.75)).abs() < 1e-12);
    }

    #[test]
    fn zero_noise_reduces_to_deterministic_descent() {
        let descent = Descent::new(shift_a_half());
        let stats = descent.steady_state(0.1, 0.9, 500, 100, || 0.0);
        assert!(stats.mean.abs() < 1e-6);
        assert!(stats.stddev < 1e-6);
    }

    #[test]
    fn noise_breaks_the_synchronized_tie() {
        // From exact overlap (unstable fixed point), any noise kicks the
        // system into the basin and it still converges near the optimum.
        let descent = Descent::new(shift_a_half());
        let mut rng = TestRng(7);
        let stats = descent.steady_state(0.0, 0.9, 2000, 2000, || gaussian(&mut rng, 0.005));
        assert!(
            stats.mean.abs() < 0.1,
            "steady state should hover near T/2; mean dev = {}",
            stats.mean
        );
    }

    #[test]
    fn steady_state_error_is_linearly_bounded() {
        let descent = Descent::new(shift_a_half());
        for (seed, sigma) in [(1u64, 0.002), (2, 0.005), (3, 0.01)] {
            let mut rng = TestRng(seed);
            let stats = descent.steady_state(0.3, 0.9, 3000, 5000, || gaussian(&mut rng, sigma));
            assert!(
                within_linear_bound(&stats, MltcpParams::PAPER, sigma, 1.5),
                "σ={sigma}: empirical stddev {} exceeds 1.5 × predicted {}",
                stats.stddev,
                predicted_error_stddev(MltcpParams::PAPER, sigma)
            );
        }
    }

    #[test]
    fn error_grows_with_noise() {
        let descent = Descent::new(shift_a_half());
        let mut spread = vec![];
        for (seed, sigma) in [(11u64, 0.001), (12, 0.004), (13, 0.016)] {
            let mut rng = TestRng(seed);
            let stats = descent.steady_state(0.3, 0.9, 3000, 5000, || gaussian(&mut rng, sigma));
            spread.push(stats.stddev);
        }
        assert!(spread[0] < spread[1] && spread[1] < spread[2]);
    }

    #[test]
    fn deviation_stats_signed_wrap() {
        // Points just below T wrap to small negative deviations from 0.
        let stats = deviation_stats(&[1.75, 0.05], 0.0, 1.8);
        assert!(stats.mean.abs() < 0.01);
        assert_eq!(stats.samples, 2);
    }

    #[test]
    fn deviation_stats_empty() {
        let stats = deviation_stats(&[], 0.9, 1.8);
        assert_eq!(stats.samples, 0);
        assert_eq!(stats.stddev, 0.0);
    }
}
