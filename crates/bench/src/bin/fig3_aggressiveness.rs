//! **Figure 3** — six candidate bandwidth aggressiveness functions.
//!
//! Three GPT-2 jobs share the bottleneck under MLTCP-Reno with each of
//! F1..F6. The paper shows the increasing functions (F1–F4) converging to
//! an interleaved state (iteration times fall after ~20 iterations) while
//! the decreasing controls (F5, F6) never improve. The six runs fan out
//! over [`SweepRunner`] workers, one per candidate function.

use mltcp_bench::experiments::{gpt2_jobs, mix_deadline, uniform_scenario};
use mltcp_bench::{iters_or, scale, seed, Figure, Series};
use mltcp_workload::scenario::{CongestionSpec, FnSpec};
use mltcp_workload::SweepRunner;

fn main() {
    let scale = scale();
    let iters = iters_or(60);
    let deadline = mix_deadline(scale, iters);
    let mut fig = Figure::new(
        "fig3_aggressiveness",
        "Iteration time vs iteration number for F1..F6 (paper Fig. 3)",
    );

    let runs = SweepRunner::new().run(&FnSpec::FIG3, |_, &f| {
        let label = f.name().to_string();
        let mut sc = uniform_scenario(
            seed(),
            gpt2_jobs(scale, iters, 3),
            CongestionSpec::MltcpReno(f),
        );
        mltcp_bench::attach_trace(&mut sc, &label);
        sc.run(deadline);
        assert!(sc.all_finished(), "{label}: jobs did not finish");

        // Average iteration time across the three jobs, per iteration
        // index — exactly the y-axis of Fig. 3 (reported in ms of
        // simulated time).
        let per_job: Vec<Vec<f64>> = (0..3).map(|i| sc.stats(i).durations().to_vec()).collect();
        let n = per_job.iter().map(Vec::len).min().unwrap_or(0);
        let avg_ms: Vec<f64> = (0..n)
            .map(|k| per_job.iter().map(|d| d[k]).sum::<f64>() / 3.0 * 1e3)
            .collect();
        (label, f.is_increasing(), avg_ms)
    });

    for (label, increasing, avg_ms) in runs {
        let early = avg_ms.iter().take(5).sum::<f64>() / 5.0f64.min(avg_ms.len() as f64);
        let late_n = 10.min(avg_ms.len());
        let late = avg_ms[avg_ms.len() - late_n..].iter().sum::<f64>() / late_n as f64;
        fig.metric(format!("{label}: early avg (ms)"), early);
        fig.metric(format!("{label}: late avg (ms)"), late);
        fig.metric(
            format!("{label}: improvement (early/late)"),
            early / late.max(1e-12),
        );
        fig.metric(
            format!("{label}: is_increasing"),
            if increasing { 1.0 } else { 0.0 },
        );
        fig.push_series(Series::from_y(label, avg_ms));
    }

    fig.note(
        "paper shape: F1..F4 (increasing) interleave — iteration times fall \
         toward the ideal after ~20 iterations; F5/F6 (decreasing) do not \
         improve. Compare each function's early vs late averages.",
    );
    fig.finish();
}
