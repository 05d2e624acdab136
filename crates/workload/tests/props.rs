//! Property-based tests over the workload layer: statistics invariants
//! and driver/scenario behaviour under randomized job geometry.

use mltcp_netsim::fault::GilbertElliott;
use mltcp_netsim::link::Bandwidth;
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_telemetry::{TelemetryEvent, TelemetrySink};
use mltcp_transport::sender::TcpSender;
use mltcp_workload::scenario::{CongestionSpec, FnSpec, LinkFault, ScenarioBuilder};
use mltcp_workload::stats::{speedup_at, IterationStats};
use mltcp_workload::{models, JobSpec};
use proptest::prelude::*;
use std::any::Any;

proptest! {
    /// Percentiles are order statistics: bounded by min/max, monotone in p.
    #[test]
    fn percentiles_are_monotone_order_statistics(
        xs in proptest::collection::vec(0.001f64..100.0, 1..200),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        let s = IterationStats::from_durations(xs.clone());
        let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().copied().fold(0.0, f64::max);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(s.percentile(lo) <= s.percentile(hi) + 1e-12);
        prop_assert!(s.percentile(0.0) >= mn - 1e-12);
        prop_assert!(s.percentile(1.0) <= mx + 1e-12);
        prop_assert!((mn..=mx).contains(&s.mean()) || xs.len() == 1);
    }

    /// The CDF is a proper distribution function over the sample.
    #[test]
    fn cdf_is_monotone_to_one(xs in proptest::collection::vec(0.001f64..100.0, 1..200)) {
        let s = IterationStats::from_durations(xs);
        let cdf = s.cdf();
        prop_assert!((cdf.last().expect("nonempty").1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 < w[1].1);
        }
    }

    /// Speedup is antisymmetric: speedup(a,b) * speedup(b,a) == 1.
    #[test]
    fn speedup_antisymmetry(
        xs in proptest::collection::vec(0.01f64..10.0, 2..50),
        ys in proptest::collection::vec(0.01f64..10.0, 2..50),
        p in 0.0f64..1.0,
    ) {
        let a = IterationStats::from_durations(xs);
        let b = IterationStats::from_durations(ys);
        let prod = speedup_at(&a, &b, p) * speedup_at(&b, &a, p);
        prop_assert!((prod - 1.0).abs() < 1e-9);
    }

    /// Tail mean with k >= len equals the full mean.
    #[test]
    fn tail_mean_saturates(xs in proptest::collection::vec(0.01f64..10.0, 1..50)) {
        let s = IterationStats::from_durations(xs);
        prop_assert!((s.tail_mean(10_000) - s.mean()).abs() < 1e-9);
    }

    /// JobSpec geometry identities for arbitrary valid jobs: T = compute
    /// + comm, a ∈ (0, 1), and the PeriodicJob projection agrees.
    #[test]
    fn jobspec_geometry_identities(
        compute_us in 10u64..1_000_000,
        kb in 1u64..1_000_000,
        bursts in 1u32..5,
        flows in 1usize..4,
    ) {
        let rate = Bandwidth::gbps(50);
        let j = JobSpec::new("j", SimDuration::micros(compute_us), kb * 1000, 5)
            .with_bursts(bursts)
            .with_flows(flows);
        let t = j.ideal_period(rate).as_secs_f64();
        let comm = j.ideal_comm_time(rate).as_secs_f64();
        let comp = j.compute_time.as_secs_f64();
        prop_assert!((t - (comm + comp)).abs() < 1e-9);
        let a = j.comm_fraction(rate);
        prop_assert!(a > 0.0 && a < 1.0);
        let p = j.to_periodic(rate);
        prop_assert!((p.period - t).abs() < 1e-9);
        prop_assert!((p.comm_fraction - a).abs() < 1e-9);
        prop_assert_eq!(p.bursts, bursts);
        // Per-flow byte split conserves (within integer division slack).
        prop_assert!(j.bytes_per_flow() * flows as u64 <= j.bytes_per_iter);
        let rem = j.bytes_per_iter - j.bytes_per_flow() * flows as u64;
        prop_assert!(rem < flows as u64);
    }
}

/// A congestion control for a random mix: the three base algorithms and
/// the paper's MLTCP-Reno.
fn any_cc() -> impl Strategy<Value = CongestionSpec> {
    prop_oneof![
        Just(CongestionSpec::Reno),
        Just(CongestionSpec::Cubic),
        Just(CongestionSpec::Dctcp),
        Just(CongestionSpec::MltcpReno(FnSpec::Paper)),
    ]
}

/// No fault, or one bottleneck fault of each class with onset
/// `at_frac` of the way into the first two iterations and a window of
/// `len_us`.
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

/// Keeps the largest backlog that a `QueueDepth` sample reports on one
/// link.
struct MaxBacklog {
    link: u32,
    max_bytes: u64,
}

impl TelemetrySink for MaxBacklog {
    fn record(&mut self, ev: &TelemetryEvent) {
        if let TelemetryEvent::QueueDepth { link, bytes, .. } = *ev {
            if link == self.link {
                self.max_bytes = self.max_bytes.max(bytes);
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random mix of 2 to 8 jobs (possibly multi-burst, noisy, offset),
    /// each either synthetic or a GPT-2 or GPT-3 job of the model zoo at
    /// scale 0.002, under any congestion control and through any one
    /// bottleneck fault,
    /// runs to completion and records exactly `iterations` records per
    /// job, with strictly increasing iteration timestamps. Every sender
    /// ends idle, and the bytes it reports acknowledged are exactly the
    /// bytes of the transfers it reported complete. The bottleneck's
    /// backlog never exceeds the byte cap of its queue discipline.
    #[test]
    fn random_mixes_complete_with_exact_records(
        n_jobs in 2usize..9,
        bursts in 1u32..3,
        comm_us in 50u64..400,
        compute_us in 500u64..2_000,
        seed in 0u64..1_000,
        cc in any_cc(),
        (fault_kind, at_frac, len_us) in (0u32..4, 0.0f64..1.0, 100u64..2_000),
        sources in proptest::collection::vec(0u32..3, 8),
    ) {
        let bytes = comm_us * 50_000 / 8; // comm_us at 50 Gbps
        let iters = 4u32;
        let rate = models::paper_bottleneck();
        let jobs: Vec<JobSpec> = sources[..n_jobs]
            .iter()
            .enumerate()
            .map(|(i, &source)| {
                let (j, noise) = match source {
                    0 => (
                        JobSpec::new(
                            format!("j{i}"),
                            SimDuration::micros(compute_us),
                            bytes,
                            iters,
                        )
                        .with_bursts(bursts),
                        SimDuration::micros(compute_us / 100),
                    ),
                    // Noise of 1% of compute, as for the synthetic jobs.
                    1 => (models::gpt2(rate, 0.002, iters), SimDuration::micros(31)),
                    _ => (models::gpt3(rate, 0.002, iters), SimDuration::micros(12)),
                };
                j.with_offset(SimDuration::micros(i as u64 * 37)).with_noise(noise)
            })
            .collect();
        let mut b = ScenarioBuilder::new(seed);
        if cc.needs_ecn() {
            b = b.bottleneck_queue(QueueKind::EcnDropTail {
                cap_bytes: 300_000,
                mark_threshold_bytes: 100_000,
            });
        }
        let longest = jobs
            .iter()
            .map(|j| j.ideal_period(rate))
            .max()
            .expect("at least two jobs");
        let fault = fault(fault_kind, at_frac, len_us, longest);
        if let Some(f) = fault.clone() {
            b = b.bottleneck_fault(f);
        }
        for j in jobs {
            b = b.job(j, cc.clone());
        }
        let mut sc = b.build();
        let bottleneck = sc.dumbbell.bottleneck.index();
        sc.set_telemetry(Box::new(MaxBacklog {
            link: bottleneck as u32,
            max_bytes: 0,
        }));
        sc.run(SimTime::from_secs_f64(5.0));
        prop_assert!(sc.all_finished(), "{} with {fault:?}", cc.label());
        let backlog = sc
            .take_telemetry()
            .expect("sink attached")
            .into_any()
            .downcast::<MaxBacklog>()
            .expect("the attached sink");
        let cap = match sc.sim.topology().channels[bottleneck].spec.queue {
            QueueKind::DropTail { cap_bytes }
            | QueueKind::EcnDropTail { cap_bytes, .. }
            | QueueKind::StrictPriority { cap_bytes } => cap_bytes,
        };
        prop_assert!(backlog.max_bytes > 0, "the bottleneck carried traffic");
        prop_assert!(
            backlog.max_bytes <= cap,
            "backlog {} B over the {cap} B cap",
            backlog.max_bytes
        );
        for i in 0..n_jobs {
            let stats = sc.stats(i);
            prop_assert_eq!(stats.len(), iters as usize);
            prop_assert!(stats.durations().iter().all(|&d| d > 0.0));
            let starts = sc.comm_starts_secs(i);
            prop_assert_eq!(starts.len(), iters as usize);
            for w in starts.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
            for &s in &sc.jobs[i].senders {
                let tx = sc.sim.agent::<TcpSender>(s);
                prop_assert!(tx.is_idle());
                let completed: u64 = tx.completions().iter().map(|&(_, b)| b).sum();
                prop_assert_eq!(tx.bytes_acked(), completed);
            }
        }
    }
}
