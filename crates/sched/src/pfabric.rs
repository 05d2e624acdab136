//! The pFabric baseline (Alizadeh et al., SIGCOMM '13).
//!
//! pFabric's design point: flows tag every packet with the flow's
//! *remaining* size; switches keep very small priority queues, serve the
//! lowest tag first, and drop the highest tag on overflow; the transport
//! is a "minimal" aggressive one (start at line rate, recover simply).
//! The net effect approximates SRPT — which §2 of the MLTCP paper shows
//! is *not* optimal for periodic DNN jobs: it starves the job with the
//! largest per-iteration transfer (GPT-3's J1) behind the smaller GPT-2
//! transfers, adding head-of-line blocking every iteration.
//!
//! In this repository pFabric = a [`ScenarioBuilder`] configuration:
//! strict-priority bottleneck queue + `PriorityPolicy::RemainingBytes`
//! senders + a BDP-sized fixed initial window.

use mltcp_netsim::queue::QueueKind;
use mltcp_transport::sender::{PriorityPolicy, MSS};
use mltcp_workload::models;
use mltcp_workload::scenario::{ScenarioBuilder, BASE_RTT};

/// pFabric's recommended small switch buffer, expressed in BDPs of the
/// bottleneck (the paper uses ~2×BDP per port).
pub const PFABRIC_BUFFER_BDPS: u64 = 2;

/// Applies the pFabric configuration to a scenario builder. The priority
/// queue and the line-rate initial window are sized from the bandwidth-
/// delay product of the paper's bottleneck over the dumbbell's base RTT.
pub fn apply_pfabric(builder: ScenarioBuilder) -> ScenarioBuilder {
    let bdp_bytes = models::paper_bottleneck().bdp_bytes(BASE_RTT);
    let bdp_pkts = (bdp_bytes as f64 / f64::from(MSS)).ceil();
    builder
        .bottleneck_queue(QueueKind::StrictPriority {
            cap_bytes: bdp_bytes * PFABRIC_BUFFER_BDPS,
        })
        .priority_policy(PriorityPolicy::RemainingBytes)
        // "Minimal transport": start each burst near line rate.
        .initial_cwnd(bdp_pkts * 1.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltcp_netsim::time::{SimDuration, SimTime};
    use mltcp_workload::scenario::CongestionSpec;

    /// Two jobs, one big transfer and one small, synchronized comm: SRPT
    /// must finish the small job's transfer at (nearly) its ideal time
    /// while delaying the big one — the head-of-line pattern of Fig 2(b).
    #[test]
    fn srpt_prefers_the_smaller_transfer() {
        use mltcp_workload::job::JobSpec;
        // A big single-burst transfer (4 ms of link time) vs a small one
        // (1 ms), synchronized starts each iteration.
        let big = JobSpec::new("big", SimDuration::millis(4), 25_000_000, 4);
        let small = JobSpec::new("small", SimDuration::millis(4), 6_250_000, 4);
        let b = ScenarioBuilder::new(11)
            .job(big, CongestionSpec::Reno)
            .job(small, CongestionSpec::Reno);
        let mut sc = apply_pfabric(b).build();
        sc.run(SimTime::from_secs_f64(10.0));
        assert!(sc.all_finished());
        let small_ideal = sc.ideal_period(1).as_secs_f64();
        let big_ideal = sc.ideal_period(0).as_secs_f64();
        // The small job's first (fully synchronized) iteration runs at
        // (nearly) ideal: SRPT lets it cut through the big transfer…
        let small_first = sc.stats(1).durations()[0];
        assert!(
            small_first < small_ideal * 1.15,
            "small: {small_first:.6} vs ideal {small_ideal:.6}"
        );
        // …while the big transfer absorbs the whole collision (it is
        // delayed by ≈ the small transfer's 1 ms of link time).
        let big_first = sc.stats(0).durations()[0];
        assert!(
            big_first > big_ideal * 1.08,
            "big job should be delayed by SRPT at the synchronized start: {big_first:.6} vs {big_ideal:.6}"
        );
    }
}
