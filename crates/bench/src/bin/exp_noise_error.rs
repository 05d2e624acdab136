//! **§4 noise bound** — MLTCP's steady-state approximation error under
//! zero-mean Gaussian iteration-time noise.
//!
//! The paper derives that the converged configuration's deviation from
//! the exact interleaved optimum is Gaussian with standard deviation
//! `2σ(1 + Intercept/Slope)` — linear in the noise intensity σ. We sweep
//! σ, run the noisy gradient-descent iteration map (the §4 model) to
//! steady state via Monte Carlo, and compare the empirical spread against
//! the predicted bound, plus a linearity regression across the sweep. The
//! six Monte Carlo runs (one per σ) fan out over [`SweepRunner`] workers,
//! each seeding its own RNG from the σ index.

use mltcp_bench::{seed, Figure, Series};
use mltcp_core::gradient::Descent;
use mltcp_core::noise::predicted_error_stddev;
use mltcp_core::params::MltcpParams;
use mltcp_core::shift::ShiftFunction;
use mltcp_netsim::rng::SimRng;
use mltcp_workload::SweepRunner;

fn main() {
    let period = 1.8;
    let shift = ShiftFunction::new(MltcpParams::PAPER, period, 0.5).expect("valid geometry");
    let descent = Descent::new(shift);
    let reference = period / 2.0; // the a = 1/2 optimum

    let mut fig = Figure::new(
        "exp_noise_error",
        "Steady-state error vs noise σ: empirical Monte Carlo vs 2σ(1 + I/S) (paper §4)",
    );

    let sigmas = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032];
    let rows = SweepRunner::new().run(&sigmas, |i, &sigma| {
        let mut rng = SimRng::new(seed() + i as u64);
        let stats = descent.steady_state(0.3, reference, 3000, 20_000, || rng.gaussian(0.0, sigma));
        let pred = predicted_error_stddev(MltcpParams::PAPER, sigma);
        (sigma, stats.stddev, pred)
    });

    let mut empirical = Vec::new();
    let mut predicted = Vec::new();
    for &(sigma, stddev, pred) in &rows {
        empirical.push((sigma, stddev));
        predicted.push((sigma, pred));
        fig.metric(format!("sigma={sigma}: empirical stddev"), stddev);
        fig.metric(format!("sigma={sigma}: predicted bound"), pred);
        fig.metric(format!("sigma={sigma}: empirical/predicted"), stddev / pred);
        assert!(
            stddev <= pred * 1.5,
            "σ={sigma}: empirical {stddev} exceeds 1.5× the predicted bound {pred}"
        );
    }

    // Linearity: log-log slope of empirical stddev vs σ should be ≈ 1.
    let slope = loglog_slope(&empirical);
    fig.metric(
        "log-log slope of empirical error vs sigma (expect ~1)",
        slope,
    );
    assert!(
        (0.8..1.2).contains(&slope),
        "error must scale ~linearly, slope={slope}"
    );

    fig.push_series(Series::from_xy("empirical steady-state stddev", empirical));
    fig.push_series(Series::from_xy("predicted 2σ(1 + I/S)", predicted));
    fig.note(
        "the paper's bound: error ~ N(0, (2σ(1+I/S))²); ratio < 1 means the bound is conservative",
    );
    fig.finish();
}

fn loglog_slope(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in pts {
        let (lx, ly) = (x.ln(), y.max(1e-300).ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}
