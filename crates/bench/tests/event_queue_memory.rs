//! Pins the event queue's capacity-release contract at scenario
//! granularity: a process running sweep scenarios back to back (what a
//! `SweepRunner` worker does all day) must not hold each run's event
//! high-water mark after that run drains.
//!
//! The queue-level mechanics (`KEEP_CAPACITY`, `shrink_to_fit` on
//! drain) are unit-tested in `mltcp_netsim::event`; this test drives
//! real contended scenarios — where the standing event population comes
//! from thousands of in-flight packets, not synthetic timers — and
//! checks the *observable* retained footprint via
//! [`Simulator::event_queue_capacity`]. That observable leaves out every
//! buffer at or below the queue's keep threshold (64 slots), so it does
//! not see up to 2048 wheel buckets × 64 slots (≈ 5 MiB) of retained
//! bucket storage; this test bounds only what a drain releases.

use mltcp_bench::experiments::{gpt2_jobs, mix_deadline, uniform_scenario};
use mltcp_workload::scenario::{CongestionSpec, FnSpec};

const SCALE: f64 = 0.002;
const ITERS: u32 = 6;

/// Retained event-queue slots after each run must stay near the keep
/// floor (a few small buffers), independent of how much traffic the
/// scenario pushed. 512 slots is ~8× the queue's internal keep
/// threshold — generous headroom over "released", far below the
/// thousands of slots a contended run's standing population needs.
const RETAINED_SLOTS_BOUND: usize = 512;

#[test]
fn sequential_scenarios_do_not_accumulate_event_queue_capacity() {
    // Ascending then descending job counts: the descending half proves a
    // small run after a big one reports the small run's footprint, not
    // the big run's high-water mark.
    for jobs in [2usize, 6, 2] {
        let mut sc = uniform_scenario(
            71,
            gpt2_jobs(SCALE, ITERS, jobs),
            CongestionSpec::MltcpReno(FnSpec::Paper),
        );
        sc.run(mix_deadline(SCALE, ITERS));
        assert!(sc.all_finished(), "{jobs}-job workload did not finish");
        let retained = sc.sim.event_queue_capacity();
        assert!(
            retained <= RETAINED_SLOTS_BOUND,
            "{jobs}-job run retained {retained} event slots after drain \
             (bound {RETAINED_SLOTS_BOUND}) — capacity release is broken"
        );
    }
}
