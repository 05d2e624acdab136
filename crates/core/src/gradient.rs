//! The iteration map `Δ_{i+1} = Δ_i + Shift(Δ_i)` and its gradient-descent
//! interpretation (§4).
//!
//! Each training iteration, MLTCP's unequal bandwidth split adds
//! `Shift(Δ_i)` to the start-time difference between two competing jobs.
//! Since `Shift = −dLoss/dΔ`, the trajectory is gradient descent on the
//! loss of Eq. 4 with unit step size — it monotonically approaches the
//! fully-interleaved region and stops moving once it arrives (the shift is
//! zero there). [`Descent`] iterates the map deterministically;
//! [`Descent::run`] iterates until convergence and reports how many
//! iterations it took (the paper observes ~20 for its testbed mixes).
//! [`Descent::steady_state`] iterates the §4 perturbed map
//! `Δ_{i+1} = Δ_i + Shift(Δ_i) + ε_i` and summarizes where it settles
//! (see [`crate::noise`]).

use crate::noise::{deviation_stats, SteadyStateStats};
use crate::shift::ShiftFunction;

/// Outcome of running the iteration map to convergence.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceReport {
    /// Final start-time difference (wrapped to `[0, T)`).
    pub final_delta: f64,
    /// Number of iterations until the per-iteration movement fell below the
    /// tolerance (or `max_iters` if it never did).
    pub iterations: usize,
    /// Whether the tolerance was reached within the budget.
    pub converged: bool,
    /// The full trajectory `Δ_0, Δ_1, …` (including the final point).
    pub trajectory: Vec<f64>,
}

impl ConvergenceReport {
    /// Whether the final state is fully interleaved: the wrapped difference
    /// lies in the zero-shift plateau `[a·T, T − a·T]` (within `tol`).
    pub fn is_interleaved(&self, shift: &ShiftFunction, tol: f64) -> bool {
        let at = shift.comm_duration();
        let t = shift.period;
        self.final_delta >= at - tol && self.final_delta <= t - at + tol
    }
}

/// Deterministic gradient-descent iterator over the two-job configuration
/// space `Δ ∈ [0, T)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Descent {
    shift: ShiftFunction,
}

impl Descent {
    /// Builds the descent for a given shift function.
    pub fn new(shift: ShiftFunction) -> Self {
        Self { shift }
    }

    /// One application of the iteration map, wrapping into `[0, T)`: the
    /// noise-free case of the perturbed map [`Descent::steady_state`]
    /// iterates.
    pub fn step(&self, delta: f64) -> f64 {
        self.perturbed_step(delta, 0.0)
    }

    /// `Δ + Shift(Δ) + ε`, wrapped into `[0, T)`; `noise` (`ε`) is the
    /// two jobs' iteration-time perturbation difference for this
    /// iteration.
    fn perturbed_step(&self, delta: f64, noise: f64) -> f64 {
        let t = self.shift.period;
        let mut d = (delta + self.shift.eval_periodic(delta) + noise) % t;
        if d < 0.0 {
            d += t;
        }
        d
    }

    /// Runs `warmup + samples` perturbed steps from `delta0`, drawing
    /// each step's `ε` from `noise` (the caller's seeded generator, which
    /// keeps this crate free of RNG dependencies), and summarizes the
    /// post-warmup deviation from `reference`, the noise-free optimum
    /// (e.g. `T/2` for `a = 1/2`). At least one sample is taken.
    pub fn steady_state<N: FnMut() -> f64>(
        &self,
        delta0: f64,
        reference: f64,
        warmup: usize,
        samples: usize,
        mut noise: N,
    ) -> SteadyStateStats {
        let mut d = delta0;
        for _ in 0..warmup {
            d = self.perturbed_step(d, noise());
        }
        let trajectory: Vec<f64> = (0..samples.max(1))
            .map(|_| {
                d = self.perturbed_step(d, noise());
                d
            })
            .collect();
        deviation_stats(&trajectory, reference, self.shift.period)
    }

    /// Runs from `delta0` until the per-iteration movement is below `tol`
    /// or `max_iters` is exhausted.
    pub fn run(&self, delta0: f64, tol: f64, max_iters: usize) -> ConvergenceReport {
        let mut d = {
            let t = self.shift.period;
            let mut x = delta0 % t;
            if x < 0.0 {
                x += t;
            }
            x
        };
        let mut trajectory = vec![d];
        for i in 0..max_iters {
            let next = self.step(d);
            let moved = circular_distance(next, d, self.shift.period);
            trajectory.push(next);
            d = next;
            if moved < tol {
                return ConvergenceReport {
                    final_delta: d,
                    iterations: i + 1,
                    converged: true,
                    trajectory,
                };
            }
        }
        ConvergenceReport {
            final_delta: d,
            iterations: max_iters,
            converged: false,
            trajectory,
        }
    }
}

/// Circular distance between two phases on a ring of circumference
/// `period`: `min(|x − y| mod T, T − |x − y| mod T)`.
pub fn circular_distance(x: f64, y: f64, period: f64) -> f64 {
    let mut d = (x - y).abs() % period;
    if d > period / 2.0 {
        d = period - d;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MltcpParams;

    fn shift_a_half() -> ShiftFunction {
        ShiftFunction::new(MltcpParams::PAPER, 1.8, 0.5).unwrap()
    }

    #[test]
    fn converges_to_interleaved_from_small_offsets() {
        let s = shift_a_half();
        let d = Descent::new(s);
        for start in [0.01, 0.05, 0.2, 0.4, 0.8] {
            let rep = d.run(start, 1e-6, 10_000);
            assert!(rep.converged, "start={start}");
            assert!(
                rep.is_interleaved(&s, 1e-3),
                "start={start} ended at {}",
                rep.final_delta
            );
        }
    }

    #[test]
    fn converges_from_the_wrapping_side() {
        let s = shift_a_half();
        let d = Descent::new(s);
        let rep = d.run(1.7, 1e-6, 10_000); // close to T=1.8 ⇒ negative drift
        assert!(rep.converged);
        assert!(rep.is_interleaved(&s, 1e-3));
        // It should have moved downward toward T/2 = 0.9.
        assert!(rep.final_delta < 1.7);
    }

    #[test]
    fn exact_overlap_is_an_unstable_fixed_point() {
        // Shift(0) = 0: the map does not move from a perfectly synchronized
        // start. (In practice noise breaks the tie; see `noise`.)
        let d = Descent::new(shift_a_half());
        assert_eq!(d.step(0.0), 0.0);
    }

    #[test]
    fn trajectory_is_monotone_until_plateau() {
        let s = shift_a_half();
        let d = Descent::new(s);
        let rep = d.run(0.1, 1e-9, 10_000);
        for w in rep.trajectory.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "trajectory must be non-decreasing");
        }
    }

    #[test]
    fn convergence_takes_tens_of_iterations_not_thousands() {
        // §2: "MLTCP converges to an interleaved state within 20
        // iterations" for the testbed mix; the analytic two-job map with
        // paper parameters is in the same ballpark.
        let s = shift_a_half();
        let d = Descent::new(s);
        let rep = d.run(0.05, 1e-3, 10_000);
        assert!(rep.converged);
        assert!(
            rep.iterations <= 60,
            "took {} iterations — far slower than the paper's observation",
            rep.iterations
        );
    }

    #[test]
    fn dead_zone_is_absorbing_for_small_comm_fraction() {
        let s = ShiftFunction::new(MltcpParams::PAPER, 1.8, 1.0 / 6.0).unwrap();
        let d = Descent::new(s);
        let rep = d.run(0.02, 1e-9, 10_000);
        assert!(rep.converged);
        let at = s.comm_duration();
        assert!(rep.final_delta >= at - 1e-6);
        // Approaching the plateau, residual movement is negligible.
        assert!((d.step(rep.final_delta) - rep.final_delta).abs() < 1e-8);
        // And strictly inside the plateau, nothing moves at all.
        assert_eq!(d.step(at + 0.1), at + 0.1);
    }

    #[test]
    fn circular_distance_basics() {
        assert_eq!(circular_distance(0.0, 0.0, 1.8), 0.0);
        assert!((circular_distance(0.1, 1.7, 1.8) - 0.2).abs() < 1e-12);
        assert!((circular_distance(1.7, 0.1, 1.8) - 0.2).abs() < 1e-12);
        assert!((circular_distance(0.0, 0.9, 1.8) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn report_not_converged_when_budget_too_small() {
        let s = shift_a_half();
        let d = Descent::new(s);
        let rep = d.run(0.05, 1e-12, 2);
        assert!(!rep.converged);
        assert_eq!(rep.iterations, 2);
        assert_eq!(rep.trajectory.len(), 3);
    }
}
