//! Tunable constants of the MLTCP algorithm.

/// Parameters of the linear bandwidth aggressiveness function (paper Eq. 2):
/// `F(bytes_ratio) = slope * bytes_ratio + intercept`.
///
/// The paper tunes these "based on the link rate and the noise in the
/// system" and uses `slope = 1.75`, `intercept = 0.25` throughout, giving F
/// a range of `[0.25, 2.0]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MltcpParams {
    /// Slope of the linear aggressiveness function. Must be non-negative so
    /// that `F' >= 0` (requirement (ii) of §3.1).
    pub slope: f64,
    /// Intercept of the linear aggressiveness function. Must be positive so
    /// every competing flow keeps a non-zero bandwidth share (§5,
    /// non-starvation of legacy flows).
    pub intercept: f64,
}

impl MltcpParams {
    /// The values used in the paper: `slope = 1.75`, `intercept = 0.25`.
    pub const PAPER: MltcpParams = MltcpParams {
        slope: 1.75,
        intercept: 0.25,
    };

    /// Creates a new parameter set, validating the paper's requirements.
    ///
    /// Returns `None` if `slope < 0`, `intercept <= 0`, or either value is
    /// non-finite.
    pub fn new(slope: f64, intercept: f64) -> Option<Self> {
        if slope.is_finite() && intercept.is_finite() && slope >= 0.0 && intercept > 0.0 {
            Some(Self { slope, intercept })
        } else {
            None
        }
    }

    /// The ratio `intercept / slope` that appears in the §4 steady-state
    /// error bound `2σ(1 + intercept/slope)`.
    ///
    /// Returns `f64::INFINITY` when `slope == 0` (a degenerate, non-shifting
    /// configuration).
    pub fn intercept_slope_ratio(&self) -> f64 {
        if self.slope == 0.0 {
            f64::INFINITY
        } else {
            self.intercept / self.slope
        }
    }
}

impl Default for MltcpParams {
    fn default() -> Self {
        Self::PAPER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = MltcpParams::default();
        assert_eq!(p.slope, 1.75);
        assert_eq!(p.intercept, 0.25);
    }

    #[test]
    fn validation_rejects_bad_params() {
        assert!(MltcpParams::new(-1.0, 0.25).is_none());
        assert!(MltcpParams::new(1.0, 0.0).is_none());
        assert!(MltcpParams::new(1.0, -0.1).is_none());
        assert!(MltcpParams::new(f64::NAN, 0.25).is_none());
        assert!(MltcpParams::new(1.0, f64::INFINITY).is_none());
        assert!(MltcpParams::new(0.0, 0.25).is_some());
    }

    #[test]
    fn intercept_slope_ratio_matches_paper() {
        assert!((MltcpParams::PAPER.intercept_slope_ratio() - 0.25 / 1.75).abs() < 1e-12);
        let flat = MltcpParams::new(0.0, 1.0).unwrap();
        assert!(flat.intercept_slope_ratio().is_infinite());
    }
}
