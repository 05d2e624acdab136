//! The §5 generalization: progress-based multi-resource scheduling.
//!
//! "The aggressiveness function F(bytes_ratio) is generalizable to other
//! resource scheduling problems by replacing bytes_ratio with the
//! progress of the job. For example, in the case of CPU cores, the
//! operating system's scheduler tracks the progress of each task, and
//! assigns a number of CPU cores based on the desired aggressiveness
//! function."
//!
//! This module implements that sketch as a fixed-tick simulator: `n`
//! periodic jobs alternate a *think* phase (no CPU demand, fixed
//! duration) and a *burst* phase (`work` core-seconds, elastic in how
//! many cores it gets). Each tick, every burst-phase job bids
//! `F(progress)` and the `cores` total cores are divided proportionally
//! to the bids. With an increasing `F` the same sliding effect as in the
//! network emerges: the job furthest through its burst wins cores,
//! finishes sooner, and shifts — until bursts interleave with thinks.
//! A constant `F` reproduces fair sharing, which (exactly as on the
//! link) preserves the initial phase alignment and stays contended.

use mltcp_core::aggressiveness::FnSpec;
use mltcp_workload::stats::IterationStats;

/// A periodic CPU job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuJob {
    /// Think-phase duration (seconds): no CPU demand.
    pub think: f64,
    /// Burst work (core-seconds per iteration).
    pub work: f64,
    /// Maximum cores the job can exploit at once.
    pub max_parallelism: f64,
    /// Offset of the first burst start (seconds).
    pub offset: f64,
}

impl CpuJob {
    /// Ideal iteration time when the job can always get
    /// `max_parallelism` cores: `think + work / max_parallelism`.
    pub fn ideal_period(&self) -> f64 {
        self.think + self.work / self.max_parallelism
    }
}

#[derive(Debug, Clone, Copy)]
enum CpuPhase {
    Thinking { until: f64 },
    Bursting { done: f64 },
}

/// Simulates `jobs` sharing `cores` under progress-based allocation with
/// aggressiveness `f`, for `horizon` seconds at `dt` resolution. Returns
/// each job's completed iteration durations.
pub fn simulate(
    jobs: &[CpuJob],
    cores: f64,
    f: FnSpec,
    horizon: f64,
    dt: f64,
) -> Vec<IterationStats> {
    assert!(!jobs.is_empty() && cores > 0.0 && dt > 0.0);
    let n = jobs.len();
    let mut phase: Vec<CpuPhase> = jobs
        .iter()
        .map(|j| CpuPhase::Thinking {
            until: j.offset + j.think,
        })
        .collect();
    let mut iter_start: Vec<f64> = jobs.iter().map(|j| j.offset).collect();
    let mut durations: Vec<Vec<f64>> = vec![Vec::new(); n];

    let steps = (horizon / dt).ceil() as usize;
    for step in 0..steps {
        let t = step as f64 * dt;
        // Phase transitions: think → burst.
        for p in phase.iter_mut() {
            if let CpuPhase::Thinking { until } = *p {
                if t >= until {
                    *p = CpuPhase::Bursting { done: 0.0 };
                }
            }
        }
        // Bids from bursting jobs.
        let mut bids = vec![0.0; n];
        let mut total_bid = 0.0;
        for i in 0..n {
            if let CpuPhase::Bursting { done } = phase[i] {
                let progress = (done / jobs[i].work).clamp(0.0, 1.0);
                bids[i] = f.eval(progress).max(1e-9);
                total_bid += bids[i];
            }
        }
        if total_bid <= 0.0 {
            continue;
        }
        // Proportional allocation, capped by per-job parallelism; spare
        // capacity from capped jobs is redistributed in a second pass.
        let mut alloc = vec![0.0; n];
        let mut spare = cores;
        let mut uncapped_bid = 0.0;
        for i in 0..n {
            if bids[i] > 0.0 {
                let share = cores * bids[i] / total_bid;
                if share >= jobs[i].max_parallelism {
                    alloc[i] = jobs[i].max_parallelism;
                    spare -= alloc[i];
                } else {
                    uncapped_bid += bids[i];
                }
            }
        }
        for i in 0..n {
            if bids[i] > 0.0 && alloc[i] == 0.0 && uncapped_bid > 0.0 {
                alloc[i] = (spare * bids[i] / uncapped_bid).min(jobs[i].max_parallelism);
            }
        }
        // Progress + burst completion.
        for i in 0..n {
            if let CpuPhase::Bursting { done } = phase[i] {
                let done = done + alloc[i] * dt;
                if done >= jobs[i].work {
                    let now = t + dt;
                    durations[i].push(now - iter_start[i]);
                    iter_start[i] = now;
                    phase[i] = CpuPhase::Thinking {
                        until: now + jobs[i].think,
                    };
                } else {
                    phase[i] = CpuPhase::Bursting { done };
                }
            }
        }
    }
    durations
        .into_iter()
        .map(IterationStats::from_durations)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_jobs() -> Vec<CpuJob> {
        // think 1 s, work 8 core-seconds at ≤ 8 cores ⇒ burst 1 s at full
        // parallelism ⇒ ideal period 2 s; two such jobs on 8 cores are
        // exactly compatible (a = 1/2 each).
        vec![
            CpuJob {
                think: 1.0,
                work: 8.0,
                max_parallelism: 8.0,
                offset: 0.0,
            },
            CpuJob {
                think: 1.0,
                work: 8.0,
                max_parallelism: 8.0,
                offset: 0.05, // slight stagger breaks the tie
            },
        ]
    }

    #[test]
    fn ideal_period() {
        assert_eq!(two_jobs()[0].ideal_period(), 2.0);
    }

    #[test]
    fn progress_based_allocation_interleaves_cpu_bursts() {
        let jobs = two_jobs();
        let res = simulate(&jobs, 8.0, FnSpec::Paper, 120.0, 1e-3);
        for (i, r) in res.iter().enumerate() {
            let steady = r.tail_mean(5);
            assert!(
                steady < 2.0 * 1.10,
                "job {i}: steady {steady:.3}s should approach the 2 s ideal"
            );
        }
    }

    #[test]
    fn fair_sharing_stays_contended() {
        let jobs = two_jobs();
        let res = simulate(&jobs, 8.0, FnSpec::Constant(1.0), 120.0, 1e-3);
        // Fair split of overlapping bursts: each runs at ~4 cores during
        // overlap ⇒ periods stay well above ideal.
        let steady = res[0].tail_mean(5);
        assert!(
            steady > 2.0 * 1.3,
            "fair sharing should stay contended, got {steady:.3}s"
        );
    }

    #[test]
    fn progress_beats_fair_on_average() {
        let jobs = two_jobs();
        let prog = simulate(&jobs, 8.0, FnSpec::Paper, 120.0, 1e-3);
        let fair = simulate(&jobs, 8.0, FnSpec::Constant(1.0), 120.0, 1e-3);
        let pm: f64 = prog.iter().map(|r| r.tail_mean(5)).sum::<f64>() / 2.0;
        let fm: f64 = fair.iter().map(|r| r.tail_mean(5)).sum::<f64>() / 2.0;
        assert!(pm < fm, "progress-based {pm:.3} !< fair {fm:.3}");
    }

    #[test]
    fn parallelism_cap_respected() {
        // One job capped at 2 cores on an 8-core box: burst takes
        // work/2 seconds regardless of the free capacity.
        let jobs = vec![CpuJob {
            think: 0.5,
            work: 4.0,
            max_parallelism: 2.0,
            offset: 0.0,
        }];
        let res = simulate(&jobs, 8.0, FnSpec::Paper, 30.0, 1e-3);
        let steady = res[0].tail_mean(3);
        assert!((steady - 2.5).abs() < 0.05, "steady={steady}");
    }
}
