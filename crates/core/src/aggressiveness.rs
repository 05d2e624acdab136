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
//! This module provides the linear function the paper deploys (Eq. 2), the
//! six candidate functions `F1..F6` compared in Fig. 3 (of which `F5`/`F6`
//! are *decreasing* and therefore deliberately violate requirement 2), and
//! tooling to check the requirements for arbitrary functions.

use crate::params::MltcpParams;

/// A bandwidth aggressiveness function mapping
/// `bytes_ratio ∈ [0, 1]` to a positive congestion-window gain.
pub trait Aggressiveness {
    /// Evaluates the function. Callers should pass `bytes_ratio` already
    /// clamped to `[0, 1]` (as Algorithm 1 line 16 does with `min(1, ·)`);
    /// implementations additionally clamp defensively.
    fn eval(&self, bytes_ratio: f64) -> f64;

    /// Human-readable name used in figure legends and experiment logs.
    fn name(&self) -> &str {
        "F"
    }

    /// Checks requirement (ii): non-negative derivative, by dense sampling.
    ///
    /// Returns `true` when the function is non-decreasing on `[0, 1]` at a
    /// resolution of `samples` points (tolerating floating-point slop).
    fn is_non_decreasing(&self, samples: usize) -> bool {
        let n = samples.max(2);
        let mut prev = self.eval(0.0);
        for i in 1..n {
            let x = i as f64 / (n - 1) as f64;
            let y = self.eval(x);
            if y < prev - 1e-9 {
                return false;
            }
            prev = y;
        }
        true
    }

    /// Checks requirement (i): the dynamic range `max F / min F` over
    /// `[0, 1]`, a proxy for the function's noise-absorption headroom.
    /// The paper's functions all span `[0.25, 2.0]`, a ratio of 8.
    fn dynamic_range(&self, samples: usize) -> f64 {
        let n = samples.max(2);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            let y = self.eval(x);
            lo = lo.min(y);
            hi = hi.max(y);
        }
        if lo <= 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// The paper's deployed aggressiveness function (Eq. 2):
/// `F(r) = slope * r + intercept`, chosen linear "to simplify MLTCP's
/// implementation in the Linux kernel and to minimize computational
/// overhead".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Linear {
    /// Slope and intercept of the line.
    pub params: MltcpParams,
}

impl Linear {
    /// Builds a linear F from validated parameters.
    pub fn new(params: MltcpParams) -> Self {
        Self { params }
    }

    /// The paper's configuration: `1.75 * r + 0.25` (Fig. 3's `F1`).
    pub fn paper_default() -> Self {
        Self::new(MltcpParams::PAPER)
    }
}

impl Aggressiveness for Linear {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        self.params.slope * clamp01(bytes_ratio) + self.params.intercept
    }

    fn name(&self) -> &str {
        "linear"
    }
}

/// `F2 = 1.75 r² + 0.25` — increasing, convex (Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quadratic;

impl Aggressiveness for Quadratic {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        let r = clamp01(bytes_ratio);
        1.75 * r * r + 0.25
    }
    fn name(&self) -> &str {
        "F2: 1.75r^2 + 0.25"
    }
}

/// `F3 = 1 / (-3.5 r + 4)` — increasing, rational (Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rational;

impl Aggressiveness for Rational {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        let r = clamp01(bytes_ratio);
        1.0 / (-3.5 * r + 4.0)
    }
    fn name(&self) -> &str {
        "F3: 1/(4 - 3.5r)"
    }
}

/// `F4 = -1.75 r² + 3.5 r + 0.25` — increasing, concave (Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConcaveQuadratic;

impl Aggressiveness for ConcaveQuadratic {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        let r = clamp01(bytes_ratio);
        -1.75 * r * r + 3.5 * r + 0.25
    }
    fn name(&self) -> &str {
        "F4: -1.75r^2 + 3.5r + 0.25"
    }
}

/// `F5 = -1.75 r + 2` — **decreasing**; violates requirement (ii) and, per
/// Fig. 3, fails to interleave jobs. Included as a negative control.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecreasingLinear;

impl Aggressiveness for DecreasingLinear {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        -1.75 * clamp01(bytes_ratio) + 2.0
    }
    fn name(&self) -> &str {
        "F5: -1.75r + 2"
    }
}

/// `F6 = -1.75 r² + 2` — **decreasing**; negative control like [`DecreasingLinear`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecreasingQuadratic;

impl Aggressiveness for DecreasingQuadratic {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        let r = clamp01(bytes_ratio);
        -1.75 * r * r + 2.0
    }
    fn name(&self) -> &str {
        "F6: -1.75r^2 + 2"
    }
}

/// A constant function `F(r) = c`. With `c = 1` MLTCP degenerates exactly to
/// the base congestion control algorithm — useful as a baseline and in
/// ablations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Aggressiveness for Constant {
    fn eval(&self, _bytes_ratio: f64) -> f64 {
        self.0
    }
    fn name(&self) -> &str {
        "constant"
    }
}

/// An owned, dynamically-dispatched aggressiveness function, convenient for
/// configuration tables (e.g. the Fig. 3 sweep) where heterogeneous function
/// shapes are iterated together.
#[derive(Debug, Clone, PartialEq)]
pub enum FigureFunction {
    /// `F1 = 1.75 r + 0.25` (the paper's deployed default).
    F1,
    /// `F2 = 1.75 r² + 0.25`.
    F2,
    /// `F3 = 1 / (4 − 3.5 r)`.
    F3,
    /// `F4 = −1.75 r² + 3.5 r + 0.25`.
    F4,
    /// `F5 = −1.75 r + 2` (decreasing — negative control).
    F5,
    /// `F6 = −1.75 r² + 2` (decreasing — negative control).
    F6,
}

impl FigureFunction {
    /// All six functions in Fig. 3 order.
    pub const ALL: [FigureFunction; 6] = [
        FigureFunction::F1,
        FigureFunction::F2,
        FigureFunction::F3,
        FigureFunction::F4,
        FigureFunction::F5,
        FigureFunction::F6,
    ];

    /// Whether the function is one of the increasing candidates (F1–F4)
    /// that the paper shows converging to an interleaved state.
    pub fn is_increasing(&self) -> bool {
        matches!(
            self,
            FigureFunction::F1 | FigureFunction::F2 | FigureFunction::F3 | FigureFunction::F4
        )
    }
}

impl Aggressiveness for FigureFunction {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        match self {
            FigureFunction::F1 => Linear::paper_default().eval(bytes_ratio),
            FigureFunction::F2 => Quadratic.eval(bytes_ratio),
            FigureFunction::F3 => Rational.eval(bytes_ratio),
            FigureFunction::F4 => ConcaveQuadratic.eval(bytes_ratio),
            FigureFunction::F5 => DecreasingLinear.eval(bytes_ratio),
            FigureFunction::F6 => DecreasingQuadratic.eval(bytes_ratio),
        }
    }

    fn name(&self) -> &str {
        match self {
            FigureFunction::F1 => "F1: 1.75r + 0.25",
            FigureFunction::F2 => "F2: 1.75r^2 + 0.25",
            FigureFunction::F3 => "F3: 1/(4 - 3.5r)",
            FigureFunction::F4 => "F4: -1.75r^2 + 3.5r + 0.25",
            FigureFunction::F5 => "F5: -1.75r + 2",
            FigureFunction::F6 => "F6: -1.75r^2 + 2",
        }
    }
}

/// Report of the paper's three requirements for a candidate function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequirementReport {
    /// Requirement (i): dynamic range `max/min` over `[0,1]`.
    pub dynamic_range: f64,
    /// Requirement (ii): non-negative derivative.
    pub non_decreasing: bool,
    /// Whether the function is strictly positive on `[0,1]` (needed for
    /// non-starvation, §5).
    pub strictly_positive: bool,
}

impl RequirementReport {
    /// Whether the function satisfies the paper's published requirements
    /// (taking a range ratio ≥ `min_range` as "large enough to absorb
    /// noise"; the paper's functions have ratio 8).
    pub fn satisfies(&self, min_range: f64) -> bool {
        self.non_decreasing && self.strictly_positive && self.dynamic_range >= min_range
    }
}

/// Evaluates the paper's requirements for `f` by sampling `samples` points.
pub fn check_requirements<F: Aggressiveness + ?Sized>(f: &F, samples: usize) -> RequirementReport {
    let n = samples.max(2);
    let mut positive = true;
    for i in 0..n {
        let x = i as f64 / (n - 1) as f64;
        if f.eval(x) <= 0.0 {
            positive = false;
            break;
        }
    }
    RequirementReport {
        dynamic_range: f.dynamic_range(n),
        non_decreasing: f.is_non_decreasing(n),
        strictly_positive: positive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: usize = 1001;

    #[test]
    fn all_six_functions_share_the_same_range() {
        // §3.1: "All these functions have the same range (0.25 - 2)".
        for f in FigureFunction::ALL {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for i in 0..SAMPLES {
                let y = f.eval(i as f64 / (SAMPLES - 1) as f64);
                lo = lo.min(y);
                hi = hi.max(y);
            }
            assert!((lo - 0.25).abs() < 1e-9, "{}: lo={lo}", f.name());
            assert!((hi - 2.0).abs() < 1e-9, "{}: hi={hi}", f.name());
        }
    }

    #[test]
    fn f1_through_f4_are_increasing_f5_f6_are_not() {
        for f in FigureFunction::ALL {
            assert_eq!(
                f.is_non_decreasing(SAMPLES),
                f.is_increasing(),
                "{}",
                f.name()
            );
        }
    }

    #[test]
    fn linear_matches_eq2_exactly() {
        let f = Linear::paper_default();
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            assert!((f.eval(r) - (1.75 * r + 0.25)).abs() < 1e-12);
        }
    }

    #[test]
    fn eval_clamps_out_of_range_inputs() {
        let f = Linear::paper_default();
        assert_eq!(f.eval(-3.0), f.eval(0.0));
        assert_eq!(f.eval(7.0), f.eval(1.0));
    }

    #[test]
    fn requirement_report_on_paper_default() {
        let rep = check_requirements(&Linear::paper_default(), SAMPLES);
        assert!(rep.non_decreasing);
        assert!(rep.strictly_positive);
        assert!((rep.dynamic_range - 8.0).abs() < 1e-9);
        assert!(rep.satisfies(4.0));
    }

    #[test]
    fn decreasing_controls_fail_requirements() {
        let rep = check_requirements(&DecreasingLinear, SAMPLES);
        assert!(!rep.non_decreasing);
        assert!(!rep.satisfies(4.0));
    }

    #[test]
    fn constant_one_is_the_identity_gain() {
        let f = Constant(1.0);
        assert_eq!(f.eval(0.3), 1.0);
        assert!(f.is_non_decreasing(SAMPLES));
        assert!((f.dynamic_range(SAMPLES) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rational_is_finite_on_domain() {
        // Denominator 4 - 3.5r stays >= 0.5 on [0,1].
        for i in 0..SAMPLES {
            let y = Rational.eval(i as f64 / (SAMPLES - 1) as f64);
            assert!(y.is_finite() && y > 0.0);
        }
    }
}
