//! The `Shift(Δ)` function of §4 (Eq. 3).
//!
//! When two periodic jobs' communication phases overlap, MLTCP's unequal
//! bandwidth split lets the job that started earlier finish its iteration
//! sooner, increasing the start-time difference of the *next* iteration:
//! `Δ_{i+1} = Δ_i + Shift(Δ_i)`. Eq. 3 gives the per-iteration shift for
//! the linear aggressiveness function:
//!
//! ```text
//!             Slope · Δ · (a·T − Δ)
//! Shift(Δ) = ────────────────────────────
//!             a·T·Intercept + Δ·Slope
//! ```
//!
//! valid for `Δ ∈ [0, a·T]` (partial overlap). Once `Δ ≥ a·T` the phases
//! no longer overlap and the shift is zero. Because job order is circular
//! with period `T`, a difference close to `T` is an overlap "from the other
//! side": the symmetric extension is `Shift(Δ) = −Shift(T − Δ)` on
//! `[T − a·T, T]`. [`ShiftFunction::eval_periodic`] implements that full
//! picture, which is what the gradient-descent analysis and Fig. 5(c)'s
//! loss landscape use.

use crate::params::MltcpParams;

/// The two-job shift function of Eq. 3, parameterized by the aggressiveness
/// parameters and the jobs' common period `T` and communication fraction
/// `a` (comm phase lasts `a·T` seconds; `0 < a ≤ 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShiftFunction {
    /// Slope and intercept of the aggressiveness function (Eq. 2).
    pub params: MltcpParams,
    /// Ideal (isolated) iteration time `T` in seconds.
    pub period: f64,
    /// Communication fraction `a`: the comm phase lasts `a·T`.
    pub comm_fraction: f64,
}

impl ShiftFunction {
    /// Builds the shift function; returns `None` for invalid geometry
    /// (`period <= 0`, `comm_fraction ∉ (0, 1]`).
    pub fn new(params: MltcpParams, period: f64, comm_fraction: f64) -> Option<Self> {
        if period.is_finite()
            && period > 0.0
            && comm_fraction.is_finite()
            && comm_fraction > 0.0
            && comm_fraction <= 1.0
        {
            Some(Self {
                params,
                period,
                comm_fraction,
            })
        } else {
            None
        }
    }

    /// The communication-phase duration `a·T`.
    pub fn comm_duration(&self) -> f64 {
        self.comm_fraction * self.period
    }

    /// Eq. 3 on its native domain `[0, a·T]`, clamped to zero outside.
    ///
    /// `Shift(0) = Shift(a·T) = 0`; strictly positive in between (MLTCP
    /// always pushes partially-overlapping jobs further apart).
    pub fn eval(&self, delta: f64) -> f64 {
        let at = self.comm_duration();
        if !(0.0..=at).contains(&delta) {
            return 0.0;
        }
        let s = self.params.slope;
        let i = self.params.intercept;
        let denom = at * i + delta * s;
        if denom <= 0.0 {
            return 0.0;
        }
        s * delta * (at - delta) / denom
    }

    /// The periodic extension on `[0, T)`: positive drift away from overlap
    /// for small `Δ`, zero in the fully-interleaved region
    /// `[a·T, T − a·T]`, and negative (wrapping) drift for `Δ` close to `T`.
    ///
    /// Inputs outside `[0, T)` are wrapped modulo `T` first.
    pub fn eval_periodic(&self, delta: f64) -> f64 {
        let t = self.period;
        let mut d = delta % t;
        if d < 0.0 {
            d += t;
        }
        let at = self.comm_duration();
        if d <= at {
            self.eval(d)
        } else if d >= t - at {
            -self.eval(t - d)
        } else {
            0.0
        }
    }

    /// The value of `Δ` that maximizes the shift on `[0, a·T]`
    /// (useful for bounding per-iteration movement).
    ///
    /// Setting `d/dΔ [Δ(b−Δ)/(k+Δ)] = 0` with `b = a·T`, `k = b·I/S` gives
    /// `Δ* = −k + √(k² + k·b)`.
    pub fn argmax(&self) -> f64 {
        let b = self.comm_duration();
        let s = self.params.slope;
        if s == 0.0 {
            return 0.0;
        }
        let k = b * self.params.intercept / s;
        -k + (k * k + k * b).sqrt()
    }

    /// The maximum per-iteration shift.
    pub fn max_shift(&self) -> f64 {
        self.eval(self.argmax())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_shift() -> ShiftFunction {
        // Two GPT-2-like jobs: T = 1.8 s, a = 0.5 (Fig. 5 uses a = 1/2).
        ShiftFunction::new(MltcpParams::PAPER, 1.8, 0.5).unwrap()
    }

    #[test]
    fn boundary_conditions() {
        let f = paper_shift();
        let at = f.comm_duration();
        assert_eq!(f.eval(0.0), 0.0);
        assert!(f.eval(at).abs() < 1e-12);
        assert_eq!(f.eval(-0.1), 0.0);
        assert_eq!(f.eval(at + 0.1), 0.0);
    }

    #[test]
    fn strictly_positive_inside_overlap() {
        let f = paper_shift();
        let at = f.comm_duration();
        for i in 1..100 {
            let d = at * i as f64 / 100.0;
            assert!(f.eval(d) > 0.0, "shift({d}) should be > 0");
        }
    }

    #[test]
    fn matches_eq3_by_hand() {
        let f = paper_shift();
        // By hand at Δ = 0.3, aT = 0.9:
        // 1.75*0.3*(0.9-0.3) / (0.9*0.25 + 0.3*1.75) = 0.315 / 0.75 = 0.42
        assert!((f.eval(0.3) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn periodic_extension_is_antisymmetric_about_half_period() {
        let f = paper_shift();
        let t = f.period;
        for i in 1..50 {
            let d = t * i as f64 / 50.0;
            let a = f.eval_periodic(d);
            let b = f.eval_periodic(t - d);
            assert!((a + b).abs() < 1e-9, "antisymmetry at {d}: {a} vs {b}");
        }
    }

    #[test]
    fn periodic_extension_has_dead_zone_when_a_below_half() {
        let f = ShiftFunction::new(MltcpParams::PAPER, 1.8, 1.0 / 6.0).unwrap();
        // For a = 1/6, fully interleaved region is [0.3, 1.5].
        assert_eq!(f.eval_periodic(0.5), 0.0);
        assert_eq!(f.eval_periodic(1.0), 0.0);
        assert!(f.eval_periodic(0.1) > 0.0);
        assert!(f.eval_periodic(1.75) < 0.0);
    }

    #[test]
    fn wrapping_inputs() {
        let f = paper_shift();
        assert!((f.eval_periodic(0.3 + f.period) - f.eval_periodic(0.3)).abs() < 1e-12);
        assert!((f.eval_periodic(-0.3) - f.eval_periodic(f.period - 0.3)).abs() < 1e-12);
    }

    #[test]
    fn argmax_is_interior_max() {
        let f = paper_shift();
        let x = f.argmax();
        let at = f.comm_duration();
        assert!(x > 0.0 && x < at);
        let y = f.eval(x);
        for i in 0..=200 {
            let d = at * i as f64 / 200.0;
            assert!(f.eval(d) <= y + 1e-12);
        }
    }

    #[test]
    fn zero_slope_means_zero_shift() {
        let p = MltcpParams::new(0.0, 1.0).unwrap();
        let f = ShiftFunction::new(p, 1.0, 0.5).unwrap();
        for i in 0..=10 {
            assert_eq!(f.eval(0.05 * i as f64), 0.0);
        }
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(ShiftFunction::new(MltcpParams::PAPER, 0.0, 0.5).is_none());
        assert!(ShiftFunction::new(MltcpParams::PAPER, 1.0, 0.0).is_none());
        assert!(ShiftFunction::new(MltcpParams::PAPER, 1.0, 1.5).is_none());
        assert!(ShiftFunction::new(MltcpParams::PAPER, f64::NAN, 0.5).is_none());
    }
}
