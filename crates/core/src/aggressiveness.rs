//! Bandwidth aggressiveness functions `F(bytes_ratio)`.
//!
//! MLTCP scales the congestion-window increment of the base congestion
//! control algorithm by `F(bytes_ratio)`, where `bytes_ratio` is the
//! fraction of the current training iteration's bytes already delivered
//! (§3.1, Eq. 1). Per the paper, any function works as long as it satisfies
//! three requirements:
//!
//! 1. its range is large enough to absorb network noise,
//! 2. its derivative is non-negative (more progress ⇒ at least as
//!    aggressive), and
//! 3. all flows use the same function.
//!
//! [`FnSpec`] names every function the reproduction evaluates: the line
//! the paper deploys (Eq. 2), the six candidates `F1..F6` compared in
//! Fig. 3 (of which `F5`/`F6` are *decreasing* and therefore deliberately
//! violate requirement 2), any other valid line, and a constant.

use crate::params::MltcpParams;

/// A bandwidth aggressiveness function mapping `bytes_ratio ∈ [0, 1]` to
/// a positive congestion-window gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FnSpec {
    /// `F1 = 1.75 r + 0.25`, the paper's deployed default (Eq. 2 with
    /// [`MltcpParams::PAPER`]).
    Paper,
    /// `F2 = 1.75 r² + 0.25` — increasing, convex.
    F2,
    /// `F3 = 1 / (4 − 3.5 r)` — increasing, rational.
    F3,
    /// `F4 = −1.75 r² + 3.5 r + 0.25` — increasing, concave.
    F4,
    /// `F5 = −1.75 r + 2` — **decreasing**; violates requirement (ii)
    /// and, per Fig. 3, fails to interleave jobs. A negative control.
    F5,
    /// `F6 = −1.75 r² + 2` — **decreasing**; a negative control like `F5`.
    F6,
    /// `F = slope · r + intercept` (Eq. 2) with validated parameters.
    Linear(MltcpParams),
    /// `F ≡ c`. With `c = 1` MLTCP degenerates exactly to the base
    /// congestion control algorithm.
    Constant(f64),
}

impl FnSpec {
    /// The six Fig. 3 candidates, in the figure's order.
    pub const FIG3: [FnSpec; 6] = [
        FnSpec::Paper,
        FnSpec::F2,
        FnSpec::F3,
        FnSpec::F4,
        FnSpec::F5,
        FnSpec::F6,
    ];

    /// Evaluates the function at `bytes_ratio`, clamped to `[0, 1]` (as
    /// Algorithm 1 line 16 does with `min(1, ·)`).
    #[inline]
    pub fn eval(self, bytes_ratio: f64) -> f64 {
        let r = bytes_ratio.clamp(0.0, 1.0);
        match self {
            FnSpec::Paper => 1.75 * r + 0.25,
            FnSpec::F2 => 1.75 * r * r + 0.25,
            FnSpec::F3 => 1.0 / (-3.5 * r + 4.0),
            FnSpec::F4 => -1.75 * r * r + 3.5 * r + 0.25,
            FnSpec::F5 => -1.75 * r + 2.0,
            FnSpec::F6 => -1.75 * r * r + 2.0,
            FnSpec::Linear(p) => p.slope * r + p.intercept,
            FnSpec::Constant(c) => c,
        }
    }

    /// Label used in figure legends and experiment logs (Fig. 3's labels
    /// for `F1..F6`).
    pub fn name(self) -> &'static str {
        match self {
            FnSpec::Paper => "F1: 1.75r + 0.25",
            FnSpec::F2 => "F2: 1.75r^2 + 0.25",
            FnSpec::F3 => "F3: 1/(4 - 3.5r)",
            FnSpec::F4 => "F4: -1.75r^2 + 3.5r + 0.25",
            FnSpec::F5 => "F5: -1.75r + 2",
            FnSpec::F6 => "F6: -1.75r^2 + 2",
            FnSpec::Linear(_) => "linear",
            FnSpec::Constant(_) => "constant",
        }
    }

    /// Whether the function is one of the increasing Fig. 3 candidates
    /// (F1–F4) that the paper shows converging to an interleaved state.
    pub fn is_increasing(self) -> bool {
        matches!(self, FnSpec::Paper | FnSpec::F2 | FnSpec::F3 | FnSpec::F4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: usize = 1001;

    fn grid() -> impl Iterator<Item = f64> {
        (0..SAMPLES).map(|i| i as f64 / (SAMPLES - 1) as f64)
    }

    /// Whether `f` never falls by more than float slop on the grid.
    fn non_decreasing(f: FnSpec) -> bool {
        let ys: Vec<f64> = grid().map(|r| f.eval(r)).collect();
        ys.windows(2).all(|w| w[1] >= w[0] - 1e-9)
    }

    #[test]
    fn eval_matches_closed_forms_bit_for_bit() {
        let p = MltcpParams::new(0.5, 0.75).unwrap();
        for x in [-3.0_f64, 0.0, 0.4, 1.0, 7.0] {
            let r = x.clamp(0.0, 1.0);
            let cases = [
                (FnSpec::Paper, 1.75 * r + 0.25),
                (FnSpec::F2, 1.75 * r * r + 0.25),
                (FnSpec::F3, 1.0 / (-3.5 * r + 4.0)),
                (FnSpec::F4, -1.75 * r * r + 3.5 * r + 0.25),
                (FnSpec::F5, -1.75 * r + 2.0),
                (FnSpec::F6, -1.75 * r * r + 2.0),
                (FnSpec::Linear(p), 0.5 * r + 0.75),
                (FnSpec::Constant(1.5), 1.5),
            ];
            for (f, want) in cases {
                assert_eq!(f.eval(x).to_bits(), want.to_bits(), "{}({x})", f.name());
            }
        }
    }

    #[test]
    fn all_six_functions_share_the_same_range() {
        // §3.1: "All these functions have the same range (0.25 - 2)".
        for f in FnSpec::FIG3 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for r in grid() {
                let y = f.eval(r);
                lo = lo.min(y);
                hi = hi.max(y);
            }
            assert!((lo - 0.25).abs() < 1e-9, "{}: lo={lo}", f.name());
            assert!((hi - 2.0).abs() < 1e-9, "{}: hi={hi}", f.name());
        }
    }

    #[test]
    fn f1_through_f4_are_increasing_f5_f6_are_not() {
        for f in FnSpec::FIG3 {
            assert_eq!(non_decreasing(f), f.is_increasing(), "{}", f.name());
        }
        let decreasing: Vec<_> = FnSpec::FIG3
            .into_iter()
            .filter(|&f| !non_decreasing(f))
            .collect();
        assert_eq!(decreasing, [FnSpec::F5, FnSpec::F6]);
    }

    #[test]
    fn linear_matches_eq2_exactly() {
        let f = FnSpec::Linear(MltcpParams::PAPER);
        for r in [-3.0, 0.4, 7.0].into_iter().chain(grid()) {
            assert_eq!(f.eval(r).to_bits(), FnSpec::Paper.eval(r).to_bits());
        }
    }

    #[test]
    fn eval_clamps_out_of_range_inputs() {
        for f in FnSpec::FIG3 {
            assert_eq!(f.eval(-3.0), f.eval(0.0), "{}", f.name());
            assert_eq!(f.eval(7.0), f.eval(1.0), "{}", f.name());
        }
    }

    #[test]
    fn requirement_report_on_paper_default() {
        // Requirements (i) and (ii) for the deployed F, plus the strict
        // positivity that §5's non-starvation needs: range 0.25..2.
        let f = FnSpec::Paper;
        assert!(non_decreasing(f));
        assert!(grid().all(|r| f.eval(r) > 0.0));
        assert!((f.eval(1.0) / f.eval(0.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn decreasing_controls_fail_requirements() {
        // F5 and F6 violate requirement (ii): F falls as progress grows.
        for f in [FnSpec::F5, FnSpec::F6] {
            assert!(!non_decreasing(f), "{}", f.name());
            assert!(!f.is_increasing());
            assert!(f.eval(1.0) < f.eval(0.0));
        }
    }

    #[test]
    fn constant_one_is_the_identity_gain() {
        let f = FnSpec::Constant(1.0);
        assert!(grid().all(|r| f.eval(r) == 1.0));
        assert_eq!(f.eval(-3.0), 1.0);
        assert!(non_decreasing(f));
    }

    #[test]
    fn rational_is_finite_on_domain() {
        // Denominator 4 - 3.5r stays >= 0.5 on [0,1].
        for r in grid() {
            let y = FnSpec::F3.eval(r);
            assert!(y.is_finite() && y > 0.0);
        }
    }
}
