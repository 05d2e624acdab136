//! **Ablation** — sensitivity to the aggressiveness function's Slope and
//! Intercept (the paper tunes them "based on the link rate and the noise
//! in the system" and ships 1.75/0.25).
//!
//! Six GPT-2 jobs (the Fig. 4 workload) under MLTCP-Reno with a grid of
//! `(slope, intercept)` pairs; reports steady-state mean iteration ratio
//! and convergence behaviour. Expected: a wide basin of working
//! parameters as long as the dynamic range is large (requirement (i)) —
//! tiny slopes (weak differentiation) or huge intercepts (flows nearly
//! uniform) degrade toward plain Reno. The six grid points fan out over
//! [`SweepRunner`] workers.

use mltcp_bench::experiments::{gpt2_jobs, mean_steady_ratio, mix_deadline, uniform_scenario};
use mltcp_bench::{iters_or, scale, seed, Figure, Series};
use mltcp_core::params::MltcpParams;
use mltcp_workload::scenario::{CongestionSpec, FnSpec};
use mltcp_workload::SweepRunner;

fn main() {
    let scale = scale();
    let iters = iters_or(50);
    let deadline = mix_deadline(scale, iters);
    let mut fig = Figure::new(
        "ablation_slope_intercept",
        "Steady-state mean iteration ratio vs (Slope, Intercept) — 6 GPT-2 jobs, MLTCP-Reno",
    );

    let grid = [
        (0.0, 1.0),   // no differentiation: degenerates to Reno
        (0.5, 0.25),  // weak slope
        (1.75, 0.25), // the paper's choice
        (1.75, 0.05), // tiny intercept: huge dynamic range
        (1.75, 1.0),  // large intercept: range only 2.75x
        (4.0, 0.25),  // steep slope
    ];
    let ratios = SweepRunner::new().run(&grid, |i, &(slope, intercept)| {
        let params = MltcpParams::new(slope, intercept).expect("every grid point is valid");
        let mut sc = uniform_scenario(
            seed() + i as u64,
            gpt2_jobs(scale, iters, 6),
            CongestionSpec::MltcpReno(FnSpec::Linear(params)),
        );
        mltcp_bench::attach_trace(&mut sc, &format!("s{slope}-i{intercept}"));
        sc.run(deadline);
        assert!(sc.all_finished(), "S={slope} I={intercept}: did not finish");
        mean_steady_ratio(&sc)
    });

    let mut pts = Vec::new();
    for (i, (&(slope, intercept), &ratio)) in grid.iter().zip(&ratios).enumerate() {
        fig.metric(
            format!("S={slope} I={intercept}: mean steady (x ideal)"),
            ratio,
        );
        pts.push((i as f64, ratio));
    }
    fig.push_series(Series::from_xy(
        "mean steady ratio per grid point",
        pts.clone(),
    ));

    let reno_like = pts[0].1; // (0, 1) == plain Reno
    let paper = pts[2].1;
    fig.metric("paper params vs reno-equivalent (ratio)", paper / reno_like);
    assert!(
        paper < reno_like,
        "the paper's parameters must beat the degenerate (Reno) setting: {paper} vs {reno_like}"
    );
    fig.note("grid order: (0,1)=Reno-equivalent, (0.5,0.25), (1.75,0.25)=paper, (1.75,0.05), (1.75,1.0), (4,0.25)");
    fig.finish();
}
