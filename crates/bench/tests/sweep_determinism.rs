//! Pins the `SweepRunner` guarantee the figure binaries rely on: a
//! parallel sweep's serialized output is **byte-identical** to the
//! sequential run's.
//!
//! A 2-job dumbbell scenario (the Fig. 6 workload shrunk to test scale)
//! is swept across 8 seeds three times — inline (1 thread), with 4
//! workers, and with 8 workers — and each sweep's results are serialized
//! to JSON. Workers derive all randomness from their config (the seed),
//! so completion order must be the only nondeterminism, and the
//! input-order collection erases it.

use mltcp_bench::experiments::{
    gpt2_jobs, mean_steady_ratio, mix_deadline, uniform_scenario, FaultCase, PlanKind,
};
use mltcp_netsim::fault::GilbertElliott;
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_telemetry::Json;
use mltcp_workload::scenario::{CongestionSpec, FnSpec, LinkFault};
use mltcp_workload::SweepRunner;

const SCALE: f64 = 0.002;
const ITERS: u32 = 6;

/// Runs the 8-seed sweep on `threads` workers and serializes every
/// result (per-seed mean ratio + full per-job iteration series) to the
/// exact JSON the figure harness would write.
fn sweep_json(threads: usize) -> String {
    let seeds: Vec<u64> = (0..8).map(|i| 42 + 7 * i).collect();
    let results = SweepRunner::with_threads(threads).run(&seeds, |_, &sd| {
        let mut sc = uniform_scenario(
            sd,
            gpt2_jobs(SCALE, ITERS, 2),
            CongestionSpec::MltcpReno(FnSpec::Paper),
        );
        sc.run(mix_deadline(SCALE, ITERS));
        assert!(sc.all_finished(), "seed {sd}: jobs did not finish");
        let per_job: Vec<Vec<f64>> = (0..sc.jobs.len())
            .map(|i| sc.stats(i).durations().to_vec())
            .collect();
        (sd, mean_steady_ratio(&sc), per_job)
    });

    Json::Arr(
        results
            .iter()
            .map(|(sd, ratio, per_job)| {
                Json::obj([
                    ("seed", Json::Num(*sd as f64)),
                    ("mean_steady_ratio", Json::Num(*ratio)),
                    (
                        "iteration_secs",
                        Json::Arr(
                            per_job
                                .iter()
                                .map(|d| Json::nums(d.iter().copied()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
    .to_string_pretty()
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_sequential() {
    let sequential = sweep_json(1);
    // Sanity: the sweep produced real simulation data, not empty shells.
    assert!(sequential.contains("mean_steady_ratio"));
    assert!(sequential.len() > 1000, "suspiciously small sweep output");

    let par4 = sweep_json(4);
    assert_eq!(
        sequential, par4,
        "4-worker sweep output diverged from sequential"
    );
    let par8 = sweep_json(8);
    assert_eq!(
        sequential, par8,
        "8-worker sweep output diverged from sequential"
    );
}

/// The same sweep-determinism contract on a *faulted* scenario: link
/// flap + bursty-loss window + a job restart, all seeded from the run's
/// seed. Fault injection draws loss from per-link RNG streams and
/// replays scheduled faults through the event queue, so the worker count
/// must not leak into the trace.
fn faulted_sweep_json(threads: usize) -> String {
    let period = SimDuration::from_secs_f64(1.8 * SCALE);
    let at = SimTime::from_secs_f64(1.8 * SCALE * 2.0);
    let seeds: Vec<u64> = (0..8).map(|i| 42 + 7 * i).collect();
    let results = SweepRunner::with_threads(threads).run(&seeds, |_, &sd| {
        let restart = FaultCase::JobRestart {
            job: 0,
            at_iter: ITERS / 2,
            outage: period.mul_f64(0.5),
        };
        let mut sc = restart
            .builder(
                sd,
                gpt2_jobs(SCALE, ITERS, 2),
                &PlanKind::Uniform(CongestionSpec::MltcpReno(FnSpec::Paper)),
            )
            .max_rto(period)
            .bottleneck_fault(LinkFault::Down {
                at,
                duration: period.mul_f64(0.25),
            })
            .bottleneck_fault(LinkFault::BurstyLoss {
                at: at + period,
                duration: period,
                model: GilbertElliott::bursty(0.05, 0.3, 0.4),
            })
            .build();
        sc.run(mix_deadline(SCALE, ITERS));
        assert!(sc.all_finished(), "seed {sd}: faulted jobs did not finish");
        let per_job: Vec<Vec<f64>> = (0..sc.jobs.len())
            .map(|i| sc.stats(i).durations().to_vec())
            .collect();
        (sd, mean_steady_ratio(&sc), per_job)
    });

    Json::Arr(
        results
            .iter()
            .map(|(sd, ratio, per_job)| {
                Json::obj([
                    ("seed", Json::Num(*sd as f64)),
                    ("mean_steady_ratio", Json::Num(*ratio)),
                    (
                        "iteration_secs",
                        Json::Arr(
                            per_job
                                .iter()
                                .map(|d| Json::nums(d.iter().copied()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
    .to_string_pretty()
}

#[test]
fn faulted_sweep_output_is_byte_identical_across_worker_counts() {
    let sequential = faulted_sweep_json(1);
    assert!(sequential.contains("mean_steady_ratio"));
    assert!(sequential.len() > 1000, "suspiciously small sweep output");

    let par4 = faulted_sweep_json(4);
    assert_eq!(
        sequential, par4,
        "4-worker faulted sweep output diverged from sequential"
    );
    let par8 = faulted_sweep_json(8);
    assert_eq!(
        sequential, par8,
        "8-worker faulted sweep output diverged from sequential"
    );
}

/// FNV-1a (64-bit) over the string's bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The faulted sweep's 1-worker output, hashed. Recorded when the event
/// queue still had a second, binary-heap engine: that engine produced
/// this same hash at 1, 4 and 8 workers, so the queue's pop order is
/// pinned at scenario level as well as by `netsim`'s reference-queue
/// tests. A change that moves this hash changes simulated behaviour and
/// must say why.
const FAULTED_SWEEP_FNV1A: u64 = 0xfd74_76f3_3e91_ecdd;

#[test]
fn faulted_sweep_output_matches_golden_hash() {
    let json = faulted_sweep_json(1);
    assert!(json.len() > 1000, "suspiciously small sweep output");
    assert_eq!(
        fnv1a(&json),
        FAULTED_SWEEP_FNV1A,
        "faulted sweep output changed:\n{json}"
    );
}
