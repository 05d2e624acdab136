//! Folded hops change no result. The simulator folds the switch arrival
//! in front of a single-fed host edge into its feeder's transmit (see
//! *Folded hops* in `mltcp_netsim::sim`). A no-op `RestoreLoss` fault at
//! t = 0 on every host edge keeps every edge from folding, so the same
//! mix run with those faults takes the unfolded event path.

use mltcp_netsim::fault::{FaultAction, FaultPlan, GilbertElliott};
use mltcp_netsim::link::LinkId;
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_transport::sender::{PriorityPolicy, MSS};
use mltcp_workload::driver::{IterationRecord, JobDriver};
use mltcp_workload::scenario::{
    CongestionSpec, FnSpec, LinkFault, Scenario, ScenarioBuilder, BASE_RTT,
};
use mltcp_workload::{models, JobSpec};
use proptest::prelude::*;

/// The transports of a random mix: Reno, MLTCP-Reno, DCTCP over an
/// ECN-marking bottleneck, and pFabric (remaining-bytes priorities over a
/// strict-priority bottleneck, line-rate initial window).
#[derive(Debug, Clone, Copy)]
enum Transport {
    Reno,
    MltcpReno,
    DctcpEcn,
    PFabric,
}

fn any_transport() -> impl Strategy<Value = Transport> {
    prop_oneof![
        Just(Transport::Reno),
        Just(Transport::MltcpReno),
        Just(Transport::DctcpEcn),
        Just(Transport::PFabric),
    ]
}

/// No fault, or one bottleneck fault of each class with onset `at_frac`
/// of the way into the first two iterations and a window of `len_us`.
fn fault(kind: u32, at_frac: f64, len_us: u64, iteration: SimDuration) -> Option<LinkFault> {
    let at = SimTime::ZERO + iteration.mul_f64(2.0 * at_frac);
    let duration = SimDuration::micros(len_us);
    match kind {
        0 => None,
        1 => Some(LinkFault::Down { at, duration }),
        2 => Some(LinkFault::Brownout {
            at,
            duration,
            factor: 0.25,
        }),
        _ => Some(LinkFault::BurstyLoss {
            at,
            duration,
            model: GilbertElliott::bursty(0.08, 0.25, 0.4),
        }),
    }
}

/// Builds the mix: model-zoo jobs at scale 0.002 under one transport.
fn build(jobs: &[JobSpec], transport: Transport, fault: Option<LinkFault>, seed: u64) -> Scenario {
    let mut b = ScenarioBuilder::new(seed);
    let cc = match transport {
        Transport::Reno | Transport::PFabric => CongestionSpec::Reno,
        Transport::MltcpReno => CongestionSpec::MltcpReno(FnSpec::Paper),
        Transport::DctcpEcn => {
            b = b.bottleneck_queue(QueueKind::EcnDropTail {
                cap_bytes: 300_000,
                mark_threshold_bytes: 100_000,
            });
            CongestionSpec::Dctcp
        }
    };
    if let Transport::PFabric = transport {
        let bdp = models::paper_bottleneck().bdp_bytes(BASE_RTT);
        b = b
            .bottleneck_queue(QueueKind::StrictPriority { cap_bytes: 2 * bdp })
            .priority_policy(PriorityPolicy::RemainingBytes)
            .initial_cwnd((bdp as f64 / f64::from(MSS)).ceil() * 1.5);
    }
    if let Some(f) = fault {
        b = b.bottleneck_fault(f);
    }
    for j in jobs {
        b = b.job(j.clone(), cc.clone());
    }
    b.build()
}

/// Every switch → host channel of the scenario's dumbbell.
fn host_edges(sc: &Scenario) -> Vec<LinkId> {
    let topo = sc.sim.topology();
    topo.channels
        .iter()
        .filter(|c| topo.nodes[c.to.index()].is_host() && !topo.nodes[c.from.index()].is_host())
        .map(|c| c.id)
        .collect()
}

/// What a run decides: every job's iteration records, deliveries,
/// drops and the final clock; and the events it popped.
type Outcome = (Vec<Vec<IterationRecord>>, u64, u64, SimTime);

fn run(sc: &mut Scenario) -> (Outcome, u64) {
    sc.run(SimTime::from_secs_f64(5.0));
    let records = sc
        .jobs
        .iter()
        .map(|j| sc.sim.agent::<JobDriver>(j.driver).records().to_vec())
        .collect();
    let st = sc.sim.stats();
    ((records, st.delivered, st.dropped, sc.sim.now()), st.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A random dumbbell mix of 2 to 6 GPT-2 and GPT-3 jobs, under any of
    /// the four transports and through at most one bottleneck fault,
    /// ends with the same iteration records, deliveries, drops and clock
    /// whether or not its host edges fold. Folding pops fewer events
    /// when an edge folds, which is exactly when no fault sits on the
    /// bottleneck (the only feeder of each host edge, in each
    /// direction); otherwise the runs differ by the reference's no-op
    /// faults alone.
    #[test]
    fn folding_hops_changes_no_result(
        n_jobs in 2usize..7,
        gpt3 in proptest::collection::vec(any::<bool>(), 6),
        transport in any_transport(),
        (fault_kind, at_frac, len_us) in (0u32..4, 0.0f64..1.0, 100u64..2_000),
        seed in 0u64..1_000,
    ) {
        let iters = 4u32;
        let rate = models::paper_bottleneck();
        let jobs: Vec<JobSpec> = gpt3[..n_jobs]
            .iter()
            .enumerate()
            .map(|(i, &big)| {
                let (j, noise) = if big {
                    (models::gpt3(rate, 0.002, iters), SimDuration::micros(12))
                } else {
                    (models::gpt2(rate, 0.002, iters), SimDuration::micros(31))
                };
                j.with_offset(SimDuration::micros(i as u64 * 37)).with_noise(noise)
            })
            .collect();
        let longest = jobs.iter().map(|j| j.ideal_period(rate)).max().expect("two jobs");
        let fault = fault(fault_kind, at_frac, len_us, longest);

        let mut folded = build(&jobs, transport, fault.clone(), seed);
        let (outcome, events) = run(&mut folded);

        let mut reference = build(&jobs, transport, fault.clone(), seed);
        let edges = host_edges(&reference);
        let mut plan = FaultPlan::new();
        for &link in &edges {
            plan = plan.at(SimTime::ZERO, FaultAction::RestoreLoss { link });
        }
        reference.sim.install_faults(&plan);
        let (ref_outcome, ref_events) = run(&mut reference);

        prop_assert!(outcome == ref_outcome, "{transport:?} with {fault:?}: results differ");
        prop_assert!(outcome.0.iter().all(|r| r.len() == iters as usize));
        let unfolded = ref_events - edges.len() as u64;
        if fault.is_none() {
            prop_assert!(events < unfolded, "{events} events, {unfolded} unfolded");
        } else {
            prop_assert_eq!(events, unfolded);
        }
    }
}
