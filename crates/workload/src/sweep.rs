//! Parallel parameter-sweep harness.
//!
//! Every figure and ablation in `mltcp-bench` is a sweep: a list of
//! scenario configurations (seed × parameter point), each simulated
//! independently, results aggregated into a figure. [`SweepRunner`] fans
//! those simulations out across OS threads while keeping the output
//! **byte-identical to a sequential run**:
//!
//! * Each worker invokes the job closure with `(index, &config)`; the
//!   closure builds its own `Simulator`/`Scenario` *inside* the worker
//!   (simulators hold `Box<dyn Agent>` and are deliberately not `Send`,
//!   so a simulation never migrates between threads mid-run).
//! * Every simulation is seeded from its config alone, so its trajectory
//!   is independent of which worker runs it or in what order.
//! * Results are stored by input index and returned in input order —
//!   the only nondeterminism (completion order) is erased at the join.
//!
//! `sweep_determinism` in `mltcp-bench` pins the byte-identical claim by
//! serializing parallel and sequential sweep results to JSON and
//! comparing the strings.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs a list of independent jobs across a bounded pool of OS threads,
/// returning results in input order.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner sized to the machine (`available_parallelism`, capped at
    /// 16 — sweeps are memory-bandwidth-bound well before that).
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self::with_threads(n.min(16))
    }

    /// A runner with an explicit worker count (`0` is treated as `1`).
    /// `with_threads(1)` runs jobs inline on the calling thread.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `configs`, in parallel, collecting results in input
    /// order. `f(i, &configs[i])` must derive all randomness from the
    /// config (not from thread identity or wall clock) for the output to
    /// be schedule-independent; every closure in this workspace does.
    ///
    /// # Panics
    /// Propagates a panic from any job after the scope joins.
    pub fn run<C, R, F>(&self, configs: &[C], f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(usize, &C) -> R + Sync,
    {
        let workers = self.threads.min(configs.len());
        if workers <= 1 {
            return configs.iter().enumerate().map(|(i, c)| f(i, c)).collect();
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(c) = configs.get(i) else { break };
                    // A send only fails if the receiver is gone, which
                    // cannot happen while the scope holds `rx` alive.
                    let _ = tx.send((i, f(i, c)));
                });
            }
        });
        drop(tx);

        let mut slots: Vec<Option<R>> = (0..configs.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every sweep job reports exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let configs: Vec<u64> = (0..64).collect();
        let runner = SweepRunner::with_threads(8);
        // Jobs of wildly different durations still land in input order.
        let out = runner.run(&configs, |i, &c| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            c * 10
        });
        assert_eq!(out, configs.iter().map(|c| c * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let configs: Vec<u64> = (0..40).collect();
        let work = |_i: usize, &seed: &u64| -> Vec<u64> {
            // A deterministic pseudo-simulation: results depend only on
            // the config.
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..16)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                })
                .collect()
        };
        let seq = SweepRunner::with_threads(1).run(&configs, work);
        let par = SweepRunner::with_threads(6).run(&configs, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let runner = SweepRunner::new();
        assert!(runner.threads() >= 1);
        let empty: Vec<u32> = vec![];
        assert!(runner.run(&empty, |_, &c| c).is_empty());
        assert_eq!(runner.run(&[5u32], |i, &c| (i, c)), vec![(0, 5)]);
    }

    #[test]
    fn zero_threads_is_clamped() {
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
    }
}
