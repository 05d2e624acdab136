//! **§5 multi-resource generalization** — progress-based CPU-core
//! scheduling.
//!
//! The paper sketches replacing `bytes_ratio` with generic job *progress*
//! to schedule other resources; we run the CPU-core simulator
//! (`mltcp-sched::multires`) with the paper's F against fair sharing:
//! progress-based allocation interleaves the bursts (iteration times fall
//! to the ideal), fair sharing preserves the contended alignment.
//!
//! The job lists are drawn from the base RNG on the main thread (so the
//! draw order is fixed), then the four independent simulations (2-job and
//! 4-job, each progress-based and fair) fan out over [`SweepRunner`]
//! workers.

use mltcp_bench::{seed, Figure, Series};
use mltcp_core::aggressiveness::FnSpec;
use mltcp_netsim::rng::SimRng;
use mltcp_sched::multires::{simulate, CpuJob};
use mltcp_workload::SweepRunner;

fn main() {
    let mut fig = Figure::new(
        "exp_multires",
        "Progress-based CPU-core allocation vs fair sharing (paper §5 generalization)",
    );

    // Two jobs, each: think 1 s, 8 core-seconds of burst work on an
    // 8-core box — ideal period 2 s, exactly compatible (a = 1/2 each).
    // Small deterministic stagger replaces network noise as tiebreaker.
    let mut rng = SimRng::new(seed());
    let jobs: Vec<CpuJob> = (0..2)
        .map(|_| CpuJob {
            think: 1.0,
            work: 8.0,
            max_parallelism: 8.0,
            offset: rng.uniform(0.0, 0.1),
        })
        .collect();
    let ideal = jobs[0].ideal_period();

    // Four-job, capped-parallelism variant (a = 1/4 each — compatible).
    let jobs4: Vec<CpuJob> = (0..4)
        .map(|_| CpuJob {
            think: 1.5,
            work: 4.0,
            max_parallelism: 8.0,
            offset: rng.uniform(0.0, 0.1),
        })
        .collect();
    let ideal4 = jobs4[0].ideal_period();

    // (two-job mix?, progress-based?) — input order mirrors the figure's
    // presentation order.
    let configs = [(true, true), (true, false), (false, true), (false, false)];
    let runs = SweepRunner::new().run(&configs, |_, &(two, progress)| {
        let (js, horizon) = if two {
            (&jobs[..], 120.0)
        } else {
            (&jobs4[..], 200.0)
        };
        if progress {
            simulate(js, 8.0, FnSpec::Paper, horizon, 1e-3)
        } else {
            simulate(js, 8.0, FnSpec::Constant(1.0), horizon, 1e-3)
        }
    });

    for (label, results) in [
        ("progress-based (F = 1.75r + 0.25)", &runs[0]),
        ("fair (F = 1)", &runs[1]),
    ] {
        for (i, r) in results.iter().enumerate() {
            let series: Vec<f64> = r.durations().iter().map(|t| t / ideal).collect();
            fig.metric(
                format!("{label}: job{} steady (x ideal)", i + 1),
                r.tail_mean(5) / ideal,
            );
            fig.push_series(Series::from_y(
                format!("{label}: job{} iteration times (x ideal)", i + 1),
                series,
            ));
        }
        let avg =
            results.iter().map(|r| r.tail_mean(5)).sum::<f64>() / results.len() as f64 / ideal;
        fig.metric(format!("{label}: mean steady (x ideal)"), avg);
    }

    let pm = runs[2].iter().map(|r| r.tail_mean(5)).sum::<f64>() / 4.0 / ideal4;
    let fm = runs[3].iter().map(|r| r.tail_mean(5)).sum::<f64>() / 4.0 / ideal4;
    fig.metric("4 jobs: progress-based mean steady (x ideal)", pm);
    fig.metric("4 jobs: fair mean steady (x ideal)", fm);
    assert!(
        pm < fm,
        "progress-based allocation must beat fair sharing: {pm} vs {fm}"
    );

    fig.note("same sliding-into-interleaving dynamic as the network case, driven by job progress instead of bytes_ratio");
    fig.finish();
}
