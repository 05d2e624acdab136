//! **Figure 2** — four DNN jobs (GPT-3 + 3×GPT-2) under four schedulers:
//! (a) the centralized optimal (Cassini-style enforced interleaving),
//! (b) SRPT (pFabric), (c) MLTCP-Reno, plus plain Reno as the
//! uncoordinated baseline.
//!
//! Paper claims reproduced here:
//! * Cassini achieves the ideal iteration times (J1 ≈ 1.2 s·scale,
//!   J2–J4 ≈ 1.8 s·scale);
//! * MLTCP converges, distributedly, to within a few percent of the
//!   centralized schedule's *average* iteration time (§2: "within 5% of
//!   the optimal centralized schedule"), within tens of iterations;
//! * pFabric's SRPT systematically delays J1 (the job with the largest
//!   transfers) — the paper reports a 1.5× slowdown.
//!
//! The four scheduler runs are independent simulations; they fan out
//! over [`SweepRunner`] workers and the figure is assembled from the
//! returned [`RunSummary`](mltcp_bench::experiments::RunSummary)s in
//! input order.

use mltcp_bench::experiments::{
    cassini_scenario, fig2_jobs, mix_deadline, pfabric_scenario, print_summary_table,
    summarize_run, uniform_scenario,
};
use mltcp_bench::{iters_or, scale, seed, Figure, Series};
use mltcp_workload::scenario::{CongestionSpec, FnSpec};
use mltcp_workload::SweepRunner;

fn main() {
    let scale = scale();
    let iters = iters_or(80);
    let deadline = mix_deadline(scale, iters);
    let mut fig = Figure::new(
        "fig2_schedules",
        "Scheduling 4 DNN jobs: Cassini vs pFabric vs MLTCP vs Reno (paper Fig. 2)",
    );

    let variants = ["reno", "mltcp-reno", "cassini", "pfabric"];
    let summaries = SweepRunner::new().run(&variants, |_, &label| {
        let jobs = fig2_jobs(scale, iters);
        let mut sc = match label {
            "reno" => uniform_scenario(seed(), jobs, CongestionSpec::Reno),
            "mltcp-reno" => {
                uniform_scenario(seed(), jobs, CongestionSpec::MltcpReno(FnSpec::Paper))
            }
            "cassini" => cassini_scenario(seed(), jobs),
            _ => pfabric_scenario(seed(), jobs),
        };
        mltcp_bench::attach_trace(&mut sc, label);
        sc.run(deadline);
        assert!(sc.all_finished(), "{label}: jobs did not finish");
        summarize_run(&sc)
    });

    for (label, rs) in variants.iter().zip(&summaries) {
        print_summary_table(label, rs);
        for ((r, &ideal), durs) in rs.jobs.iter().zip(&rs.ideals).zip(&rs.durations) {
            fig.metric(
                format!("{label}: {} steady (x ideal)", r.name),
                r.steady_secs / ideal,
            );
            fig.push_series(Series::from_y(
                format!("{label}: {} iteration times (x ideal)", r.name),
                durs.iter().map(|d| d / ideal).collect(),
            ));
            if let Some(c) = r.converged_after {
                fig.metric(format!("{label}: {} converged_after", r.name), c as f64);
            }
        }
    }

    let reno = summaries[0].mean_steady_ratio;
    let mltcp = summaries[1].mean_steady_ratio;
    let cassini = summaries[2].mean_steady_ratio;
    let pfabric = summaries[3].mean_steady_ratio;

    fig.metric("mean steady ratio: reno", reno);
    fig.metric("mean steady ratio: mltcp-reno", mltcp);
    fig.metric("mean steady ratio: cassini (optimal)", cassini);
    fig.metric("mean steady ratio: pfabric", pfabric);
    fig.metric(
        "mltcp vs cassini gap (avg, %)",
        (mltcp / cassini - 1.0) * 100.0,
    );
    fig.note(
        "paper: Cassini = optimal; MLTCP within ~5% of it on average; \
         pFabric slows J1 ~1.5x. Expected shape: cassini <= mltcp < reno, \
         and pfabric's J1 row well above the others'.",
    );
    fig.finish();
}
