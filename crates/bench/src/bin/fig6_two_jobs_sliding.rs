//! **Figure 6** — two GPT-2 jobs sliding into an interleaved schedule.
//!
//! The paper overlays the two jobs' bandwidth on the bottleneck: initial
//! congestion (overlapping comm phases), then MLTCP's per-iteration shift
//! separates them within a few iterations, after which they stay
//! interleaved. We regenerate the bandwidth traces and track the circular
//! start-time difference Δᵢ between the jobs' comm phases — the quantity
//! the §4 gradient-descent analysis evolves.
//!
//! A single scenario can't parallelize, but the run still goes through
//! [`SweepRunner`] (which executes singleton sweeps inline) so every
//! figure binary shares the same worker-closure shape: simulate in the
//! worker, return plain `Send` data, assemble the figure on the main
//! thread.

use mltcp_bench::experiments::{gpt2_jobs, mix_deadline};
use mltcp_bench::{iters_or, scale, seed, Figure, Series};
use mltcp_core::gradient::circular_distance;
use mltcp_netsim::time::SimDuration;
use mltcp_workload::models;
use mltcp_workload::scenario::{CongestionSpec, FnSpec, ScenarioBuilder};
use mltcp_workload::SweepRunner;

/// The `Send` payload extracted from the single sliding-jobs run.
struct SlidingRun {
    flow_series: Vec<Vec<(f64, f64)>>,
    deltas: Vec<f64>,
    comm: f64,
    steady: [f64; 2],
}

fn main() {
    let scale = scale();
    let iters = iters_or(40);
    let deadline = mix_deadline(scale, iters);
    let mut fig = Figure::new(
        "fig6_two_jobs_sliding",
        "Two GPT-2 jobs interleaving over a few iterations under MLTCP-Reno (paper Fig. 6)",
    );
    let bin = SimDuration::from_secs_f64(1.8 * scale / 50.0);

    let run = SweepRunner::new()
        .run(&[()], |_, _| {
            let mut b = ScenarioBuilder::new(seed()).trace(bin);
            for j in gpt2_jobs(scale, iters, 2) {
                b = b.job(j, CongestionSpec::MltcpReno(FnSpec::Paper));
            }
            let mut sc = b.build();
            mltcp_bench::attach_trace(&mut sc, "two-jobs");
            sc.run(deadline);
            assert!(sc.all_finished(), "jobs did not finish");

            let trace = sc.sim.trace(sc.dumbbell.bottleneck).expect("trace on");
            let t = trace.time_axis_secs();
            let flow_series: Vec<Vec<(f64, f64)>> = sc
                .jobs
                .iter()
                .map(|job| {
                    t.iter()
                        .copied()
                        .zip(trace.gbps_series(job.flows[0]))
                        .collect()
                })
                .collect();

            // Δᵢ: circular difference of comm-phase starts, per iteration.
            let s0 = sc.comm_starts_secs(0);
            let s1 = sc.comm_starts_secs(1);
            let period = sc.ideal_period(0).as_secs_f64();
            let n = s0.len().min(s1.len());
            let deltas: Vec<f64> = (0..n)
                .map(|k| circular_distance(s0[k], s1[k], period))
                .collect();
            let comm = period * sc.jobs[0].spec.comm_fraction(models::paper_bottleneck());
            SlidingRun {
                flow_series,
                deltas,
                comm,
                steady: [
                    sc.stats(0).tail_mean(5) / period,
                    sc.stats(1).tail_mean(5) / period,
                ],
            }
        })
        .pop()
        .expect("one run");

    // Bandwidth overlay.
    for (i, pts) in run.flow_series.into_iter().enumerate() {
        fig.push_series(Series::from_xy(format!("Job{} Gbps", i + 1), pts));
    }
    let deltas = run.deltas;
    fig.push_series(Series::from_y("Δᵢ (s, circular)", deltas.clone()));

    let early = deltas.iter().take(3).sum::<f64>() / 3.0;
    let late_n = 10.min(deltas.len());
    let late = deltas[deltas.len() - late_n..].iter().sum::<f64>() / late_n as f64;
    fig.metric("comm duration aT (s)", run.comm);
    fig.metric("early mean Δ (s)", early);
    fig.metric("late mean Δ (s)", late);
    // Interleaved = comm phases separated by at least one comm duration.
    let first_separated = deltas.iter().position(|&d| d >= run.comm);
    if let Some(k) = first_separated {
        fig.metric("first iteration with Δ >= aT", k as f64);
    }
    fig.metric("job1 steady (x ideal)", run.steady[0]);
    fig.metric("job2 steady (x ideal)", run.steady[1]);

    fig.note(
        "paper shape: jobs start synchronized (network congestion), the \
         sliding effect grows Δ each iteration, and after a few iterations \
         Δ exceeds the comm duration — fully interleaved, stable thereafter.",
    );
    fig.finish();
}
