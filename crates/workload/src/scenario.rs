//! One-stop experiment harness: dumbbell topology + jobs + congestion
//! control choices → a runnable simulation.
//!
//! Every experiment in the repository (paper figures, ablations, tests)
//! is an instance of the same shape: N jobs, each with its own
//! sender/receiver host pair, sharing one bottleneck link under some
//! queue discipline, with some congestion control per job. The builder
//! assembles that and hands back per-job handles for analysis.

use crate::driver::JobDriver;
use crate::job::JobSpec;
use crate::stats::{IterationStats, JobReport};
use mltcp_core::aggressiveness::{Aggressiveness, FigureFunction, Linear};
use mltcp_core::params::MltcpParams;
use mltcp_netsim::fault::{FaultPlan, GilbertElliott, LossModel};
use mltcp_netsim::link::Bandwidth;
use mltcp_netsim::packet::FlowId;
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::sim::{AgentId, Simulator};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_netsim::topology::{build_dumbbell, Dumbbell, DumbbellSpec};
use mltcp_transport::cc::{Cubic, Dctcp, Mltcp, MltcpConfig, Reno};
use mltcp_transport::sender::{PriorityPolicy, SenderConfig, TcpSender};
use mltcp_transport::TcpReceiver;

/// A choice of bandwidth aggressiveness function.
///
/// Implements [`Aggressiveness`] directly so it can be handed to
/// [`Mltcp::new`] without boxing gymnastics.
#[derive(Debug, Clone, PartialEq)]
pub enum FnSpec {
    /// The paper's deployed default: `1.75·r + 0.25`.
    Paper,
    /// One of the six Fig. 3 candidates.
    Figure(FigureFunction),
    /// A custom linear function.
    Linear {
        /// Slope.
        slope: f64,
        /// Intercept.
        intercept: f64,
    },
    /// A constant gain (1.0 degenerates to the base algorithm).
    Constant(f64),
}

impl Aggressiveness for FnSpec {
    fn eval(&self, bytes_ratio: f64) -> f64 {
        match self {
            FnSpec::Paper => Linear::paper_default().eval(bytes_ratio),
            FnSpec::Figure(f) => f.eval(bytes_ratio),
            FnSpec::Linear { slope, intercept } => MltcpParams::new(*slope, *intercept)
                .map(|p| Linear::new(p).eval(bytes_ratio))
                .unwrap_or(1.0),
            FnSpec::Constant(c) => *c,
        }
    }

    fn name(&self) -> &str {
        match self {
            FnSpec::Paper => "F1: 1.75r + 0.25 (paper)",
            FnSpec::Figure(f) => f.name(),
            FnSpec::Linear { .. } => "linear (custom)",
            FnSpec::Constant(_) => "constant",
        }
    }
}

/// A choice of congestion control per job.
#[derive(Debug, Clone, PartialEq)]
pub enum CongestionSpec {
    /// Plain TCP Reno.
    Reno,
    /// Plain CUBIC.
    Cubic,
    /// Plain DCTCP (pair with an ECN-marking bottleneck queue).
    Dctcp,
    /// MLTCP over Reno (the paper's MLTCP-Reno).
    MltcpReno(FnSpec),
    /// MLTCP over CUBIC.
    MltcpCubic(FnSpec),
    /// MLTCP over DCTCP.
    MltcpDctcp(FnSpec),
}

impl CongestionSpec {
    /// Whether the spec requires ECN-capable senders and marking queues.
    pub fn needs_ecn(&self) -> bool {
        matches!(self, CongestionSpec::Dctcp | CongestionSpec::MltcpDctcp(_))
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            CongestionSpec::Reno => "reno",
            CongestionSpec::Cubic => "cubic",
            CongestionSpec::Dctcp => "dctcp",
            CongestionSpec::MltcpReno(_) => "mltcp-reno",
            CongestionSpec::MltcpCubic(_) => "mltcp-cubic",
            CongestionSpec::MltcpDctcp(_) => "mltcp-dctcp",
        }
    }

    fn build(
        &self,
        oracle: Option<(u64, SimDuration, Option<f64>)>,
    ) -> Box<dyn mltcp_transport::CongestionControl> {
        let cfg = match oracle {
            Some((bytes, comp, multiburst)) => MltcpConfig {
                multiburst_frac: multiburst,
                ..MltcpConfig::oracle(bytes, comp)
            },
            None => MltcpConfig::autotune(),
        };
        match self {
            CongestionSpec::Reno => Box::new(Reno::new()),
            CongestionSpec::Cubic => Box::new(Cubic::new()),
            CongestionSpec::Dctcp => Box::new(Dctcp::new()),
            CongestionSpec::MltcpReno(f) => Box::new(Mltcp::new(Reno::new(), f.clone(), cfg)),
            CongestionSpec::MltcpCubic(f) => Box::new(Mltcp::new(Cubic::new(), f.clone(), cfg)),
            CongestionSpec::MltcpDctcp(f) => Box::new(Mltcp::new(Dctcp::new(), f.clone(), cfg)),
        }
    }
}

/// A fault applied to the shared bottleneck (both directions, so data
/// and acks are hit symmetrically — a real link failure takes out the
/// whole cable, not one fibre).
#[derive(Debug, Clone, PartialEq)]
pub enum LinkFault {
    /// Full outage: link down at `at`, back up `duration` later.
    Down {
        /// Fault onset (simulated time).
        at: SimTime,
        /// Outage length.
        duration: SimDuration,
    },
    /// Bandwidth brownout: serialization runs at `factor` × nominal rate
    /// during the window.
    Brownout {
        /// Fault onset (simulated time).
        at: SimTime,
        /// Window length.
        duration: SimDuration,
        /// Rate multiplier in (0, 1] — e.g. 0.25 = quarter speed.
        factor: f64,
    },
    /// Bursty (Gilbert–Elliott) loss replaces the link's loss model
    /// during the window, then the configured model is restored.
    BurstyLoss {
        /// Fault onset (simulated time).
        at: SimTime,
        /// Window length.
        duration: SimDuration,
        /// The two-state loss model to apply.
        model: GilbertElliott,
    },
}

/// Handles to one installed job.
#[derive(Debug, Clone)]
pub struct JobHandle {
    /// Job name (from the spec).
    pub name: String,
    /// The driver agent.
    pub driver: AgentId,
    /// Transport senders, one per flow.
    pub senders: Vec<AgentId>,
    /// The flow ids, one per flow.
    pub flows: Vec<FlowId>,
    /// The spec as installed.
    pub spec: JobSpec,
}

/// Builder for a dumbbell experiment.
#[derive(Debug)]
pub struct ScenarioBuilder {
    bottleneck: Bandwidth,
    edge: Bandwidth,
    hop_delay: SimDuration,
    bottleneck_queue: Option<QueueKind>,
    seed: u64,
    jobs: Vec<(JobSpec, CongestionSpec)>,
    priority: PriorityPolicy,
    min_rto: Option<SimDuration>,
    max_rto: Option<SimDuration>,
    /// Oracle COMP_TIME = this fraction of the job's compute phase.
    comp_threshold_frac: f64,
    /// Use autotune (learned TOTAL_BYTES/COMP_TIME) instead of oracle.
    autotune: bool,
    trace_bin: Option<SimDuration>,
    slow_start_restart: bool,
    initial_cwnd: f64,
    faults: Vec<LinkFault>,
}

impl ScenarioBuilder {
    /// A 50 Gbps-bottleneck dumbbell (the paper's testbed link rate) with
    /// 2 µs/hop delay and 100 Gbps edges.
    pub fn new(seed: u64) -> Self {
        Self {
            bottleneck: Bandwidth::gbps(50),
            edge: Bandwidth::gbps(100),
            hop_delay: SimDuration::micros(2),
            bottleneck_queue: None,
            seed,
            jobs: Vec::new(),
            priority: PriorityPolicy::None,
            min_rto: None,
            max_rto: None,
            comp_threshold_frac: 0.25,
            autotune: false,
            trace_bin: None,
            slow_start_restart: true,
            initial_cwnd: 10.0,
            faults: Vec::new(),
        }
    }

    /// Overrides the bottleneck rate.
    pub fn bottleneck(mut self, rate: Bandwidth) -> Self {
        self.bottleneck = rate;
        self
    }

    /// Overrides the edge (host↔switch) rate.
    pub fn edge(mut self, rate: Bandwidth) -> Self {
        self.edge = rate;
        self
    }

    /// Overrides the per-hop propagation delay.
    pub fn hop_delay(mut self, d: SimDuration) -> Self {
        self.hop_delay = d;
        self
    }

    /// Overrides the bottleneck queue discipline (default: drop-tail with
    /// ~2 BDP of buffering).
    pub fn bottleneck_queue(mut self, q: QueueKind) -> Self {
        self.bottleneck_queue = Some(q);
        self
    }

    /// Applies a priority-tagging policy to *all* senders (pFabric/PIAS
    /// scenarios; pair with a [`QueueKind::StrictPriority`] bottleneck).
    pub fn priority_policy(mut self, p: PriorityPolicy) -> Self {
        self.priority = p;
        self
    }

    /// Overrides the RTO floor (default: `max(20 × hop_delay, 50 µs)`).
    pub fn min_rto(mut self, d: SimDuration) -> Self {
        self.min_rto = Some(d);
        self
    }

    /// Overrides the RTO backoff ceiling (default 4 s). Fault experiments
    /// set this to ~one iteration period so senders probe a repaired link
    /// promptly instead of overshooting the outage by a full doubling.
    pub fn max_rto(mut self, d: SimDuration) -> Self {
        self.max_rto = Some(d);
        self
    }

    /// Sets the oracle COMP_TIME threshold as a fraction of each job's
    /// compute phase (default 0.25).
    pub fn comp_threshold_frac(mut self, f: f64) -> Self {
        self.comp_threshold_frac = f.clamp(0.01, 0.95);
        self
    }

    /// Makes MLTCP flows learn TOTAL_BYTES/COMP_TIME online instead of
    /// receiving them from the job profile.
    pub fn autotune(mut self, on: bool) -> Self {
        self.autotune = on;
        self
    }

    /// Enables bottleneck bandwidth tracing with the given bin width.
    pub fn trace(mut self, bin: SimDuration) -> Self {
        self.trace_bin = Some(bin);
        self
    }

    /// Enables/disables slow-start-after-idle on all senders.
    ///
    /// Default **on**, matching Linux (`tcp_slow_start_after_idle = 1`):
    /// a sender that idled through a compute phase re-enters slow start
    /// instead of blasting its stale window into the bottleneck. This is
    /// also the regime in which MLTCP's ack-clocked differentiation acts
    /// cleanly (a stale-window burst is indiscriminate).
    pub fn slow_start_restart(mut self, on: bool) -> Self {
        self.slow_start_restart = on;
        self
    }

    /// Overrides the initial congestion window in packets (default 10).
    /// pFabric-style minimal transports start near the path BDP instead.
    pub fn initial_cwnd(mut self, pkts: f64) -> Self {
        self.initial_cwnd = pkts.max(1.0);
        self
    }

    /// Adds a job with its congestion control.
    pub fn job(mut self, spec: JobSpec, cc: CongestionSpec) -> Self {
        self.jobs.push((spec, cc));
        self
    }

    /// Schedules a fault on the bottleneck (applied to both the forward
    /// and the reverse channel). May be called multiple times;
    /// fault windows compose in schedule order.
    pub fn bottleneck_fault(mut self, fault: LinkFault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Assembles the simulation.
    pub fn build(self) -> Scenario {
        assert!(!self.jobs.is_empty(), "scenario needs at least one job");
        let total_flows: usize = self.jobs.iter().map(|(j, _)| j.flows).sum();
        let rtt_floor = SimDuration(self.hop_delay.as_nanos() * 6);
        let default_queue = QueueKind::DropTail {
            cap_bytes: (self.bottleneck.bdp_bytes(rtt_floor) * 2).max(150_000),
        };
        let (topo, dumbbell) = build_dumbbell(DumbbellSpec {
            pairs: total_flows,
            bottleneck_rate: self.bottleneck,
            edge_rate: self.edge,
            hop_delay: self.hop_delay,
            bottleneck_queue: self.bottleneck_queue.unwrap_or(default_queue),
            edge_queue: QueueKind::DropTail {
                cap_bytes: 4_000_000,
            },
        });
        let mut sim = Simulator::new(topo, self.seed);
        if let Some(bin) = self.trace_bin {
            sim.enable_trace(dumbbell.bottleneck, bin);
        }
        if !self.faults.is_empty() {
            let mut plan = FaultPlan::new();
            for f in &self.faults {
                for link in [dumbbell.bottleneck, dumbbell.reverse] {
                    plan = match *f {
                        LinkFault::Down { at, duration } => plan.link_flap(link, at, duration),
                        LinkFault::Brownout {
                            at,
                            duration,
                            factor,
                        } => plan.brownout(link, at, duration, factor),
                        LinkFault::BurstyLoss {
                            at,
                            duration,
                            model,
                        } => plan.loss_window(link, at, duration, LossModel::GilbertElliott(model)),
                    };
                }
            }
            sim.install_faults(&plan);
        }
        let min_rto = self
            .min_rto
            .unwrap_or(SimDuration((self.hop_delay.as_nanos() * 20).max(50_000)));

        let mut handles = Vec::new();
        let mut pair_idx = 0usize;
        let mut next_flow = 1u64;
        for (job_idx, (spec, cc_spec)) in self.jobs.iter().enumerate() {
            // Driver lives on the job's first sender host.
            let driver_host = dumbbell.senders[pair_idx];
            let driver = sim.add_agent(
                driver_host,
                JobDriver::new(spec.clone(), self.seed.wrapping_mul(1000) + job_idx as u64)
                    .with_job_id(job_idx as u32),
            );
            let mut senders = Vec::new();
            let mut flows = Vec::new();
            let oracle = if self.autotune {
                None
            } else {
                // Multi-burst iterations use the full per-iteration byte
                // count with the multi-burst gate (a long gap only resets
                // after ~90% of the iteration's bytes); the gap threshold
                // is a fraction of the compute *slice* either way.
                let bursts = u64::from(spec.bursts.max(1));
                let gate = if bursts > 1 { Some(0.9) } else { None };
                Some((
                    spec.bytes_per_flow(),
                    spec.compute_time
                        .mul_f64(self.comp_threshold_frac / bursts as f64),
                    gate,
                ))
            };
            for _ in 0..spec.flows {
                let src = dumbbell.senders[pair_idx];
                let dst = dumbbell.receivers[pair_idx];
                pair_idx += 1;
                let flow = FlowId(next_flow);
                next_flow += 1;
                let mut cfg = SenderConfig::new(flow, dst);
                cfg.driver = Some(driver);
                cfg.job = job_idx as u32;
                cfg.priority = self.priority.clone();
                cfg.ecn = cc_spec.needs_ecn();
                cfg.min_rto = min_rto;
                if let Some(m) = self.max_rto {
                    cfg.max_rto = m.max(min_rto);
                }
                cfg.slow_start_restart = self.slow_start_restart;
                cfg.initial_cwnd = self.initial_cwnd;
                let sender = sim.add_agent(src, TcpSender::new_boxed(cfg, cc_spec.build(oracle)));
                let receiver = sim.add_agent(dst, TcpReceiver::new(flow));
                sim.bind_flow(flow, sender);
                sim.bind_flow(flow, receiver);
                senders.push(sender);
                flows.push(flow);
            }
            sim.agent_mut::<JobDriver>(driver)
                .wire_senders(senders.clone());
            handles.push(JobHandle {
                name: spec.name.clone(),
                driver,
                senders,
                flows,
                spec: spec.clone(),
            });
        }
        Scenario {
            sim,
            jobs: handles,
            dumbbell,
            bottleneck: self.bottleneck,
        }
    }
}

/// A built, runnable experiment.
pub struct Scenario {
    /// The simulator (exposed for custom instrumentation).
    pub sim: Simulator,
    /// Per-job handles, in insertion order.
    pub jobs: Vec<JobHandle>,
    /// Topology handles (bottleneck link id etc.).
    pub dumbbell: Dumbbell,
    /// The bottleneck rate.
    pub bottleneck: Bandwidth,
}

impl Scenario {
    /// Runs until every job finished its iterations (or `deadline` in
    /// simulated time passes, as a hang backstop).
    pub fn run(&mut self, deadline: SimTime) {
        // Advance in slices so we can stop as soon as all jobs finish.
        let slice = SimDuration::millis(5);
        let mut next = self.sim.now() + slice;
        loop {
            self.sim.run_until(next.min(deadline));
            let done = self
                .jobs
                .iter()
                .all(|j| self.sim.agent::<JobDriver>(j.driver).is_finished());
            if done || self.sim.now() >= deadline {
                return;
            }
            next = self.sim.now() + slice;
        }
    }

    /// Installs a telemetry sink, first registering every job's
    /// `(index, name)` pair so traces are self-describing. Replaces any
    /// previous sink. Sinks observe without perturbing: a run with any
    /// sink attached is event-for-event identical to one without.
    pub fn set_telemetry(&mut self, mut sink: Box<dyn mltcp_telemetry::TelemetrySink>) {
        for (idx, job) in self.jobs.iter().enumerate() {
            sink.job_name(idx as u32, &job.name);
        }
        self.sim.set_sink(sink);
    }

    /// Detaches the telemetry sink (flushed), e.g. to downcast a
    /// recorder or extract a metrics snapshot after the run.
    pub fn take_telemetry(&mut self) -> Option<Box<dyn mltcp_telemetry::TelemetrySink>> {
        self.sim.take_sink()
    }

    /// Whether every job completed all its iterations.
    pub fn all_finished(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| self.sim.agent::<JobDriver>(j.driver).is_finished())
    }

    /// Iteration statistics for job `idx`.
    pub fn stats(&self, idx: usize) -> IterationStats {
        let driver = self.sim.agent::<JobDriver>(self.jobs[idx].driver);
        IterationStats::from_records(driver.records())
    }

    /// Reports for all jobs.
    pub fn reports(&self) -> Vec<JobReport> {
        (0..self.jobs.len())
            .map(|i| JobReport::new(self.jobs[i].name.clone(), &self.stats(i)))
            .collect()
    }

    /// Communication-phase start times of job `idx` (seconds).
    pub fn comm_starts_secs(&self, idx: usize) -> Vec<f64> {
        self.sim
            .agent::<JobDriver>(self.jobs[idx].driver)
            .comm_starts()
            .iter()
            .map(|t| t.as_secs_f64())
            .collect()
    }

    /// The ideal iteration time of job `idx` on this bottleneck.
    pub fn ideal_period(&self, idx: usize) -> SimDuration {
        self.jobs[idx].spec.ideal_period(self.bottleneck)
    }

    /// Where job `idx` resumed after its crash/restart fault, if any.
    pub fn restart_resume(&self, idx: usize) -> Option<(u32, SimTime)> {
        self.sim
            .agent::<JobDriver>(self.jobs[idx].driver)
            .restart_resume()
    }

    /// Iterations job `idx` needed to re-interleave after its restart
    /// (see [`JobDriver::iterations_to_reinterleave`]).
    pub fn iterations_to_reinterleave(&self, idx: usize, rel_tol: f64) -> Option<u32> {
        self.sim
            .agent::<JobDriver>(self.jobs[idx].driver)
            .iterations_to_reinterleave(rel_tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn fnspec_dispatch_matches_components() {
        assert_eq!(FnSpec::Paper.eval(0.4), 1.75 * 0.4 + 0.25);
        assert_eq!(
            FnSpec::Figure(FigureFunction::F5).eval(0.4),
            -1.75 * 0.4 + 2.0
        );
        assert_eq!(
            FnSpec::Linear {
                slope: 1.0,
                intercept: 0.5
            }
            .eval(0.5),
            1.0
        );
        assert_eq!(FnSpec::Constant(2.0).eval(0.9), 2.0);
        // Invalid custom params degrade to gain 1 rather than panicking.
        assert_eq!(
            FnSpec::Linear {
                slope: -1.0,
                intercept: 0.5
            }
            .eval(0.5),
            1.0
        );
    }

    #[test]
    fn congestion_spec_labels_and_ecn() {
        assert!(CongestionSpec::Dctcp.needs_ecn());
        assert!(CongestionSpec::MltcpDctcp(FnSpec::Paper).needs_ecn());
        assert!(!CongestionSpec::MltcpReno(FnSpec::Paper).needs_ecn());
        assert_eq!(
            CongestionSpec::MltcpReno(FnSpec::Paper).label(),
            "mltcp-reno"
        );
    }

    #[test]
    fn single_job_runs_at_ideal_period() {
        // One GPT-2 job alone: measured iteration time ≈ ideal T (small
        // transport overhead allowed).
        let rate = models::paper_bottleneck();
        let spec = models::gpt2(rate, 1e-2, 3);
        let mut sc = ScenarioBuilder::new(7)
            .job(spec, CongestionSpec::Reno)
            .build();
        sc.run(SimTime::from_secs_f64(1.0));
        assert!(sc.all_finished());
        let stats = sc.stats(0);
        assert_eq!(stats.len(), 3);
        let ideal = sc.ideal_period(0).as_secs_f64();
        let measured = stats.tail_mean(3);
        assert!(
            measured < ideal * 1.15,
            "measured {measured:.6}s vs ideal {ideal:.6}s — single flow should run near line rate"
        );
    }

    #[test]
    fn two_jobs_complete_and_report() {
        let rate = models::paper_bottleneck();
        let mut sc = ScenarioBuilder::new(8)
            .job(models::gpt2(rate, 1e-3, 4), CongestionSpec::Reno)
            .job(
                models::gpt2(rate, 1e-3, 4),
                CongestionSpec::MltcpReno(FnSpec::Paper),
            )
            .build();
        sc.run(SimTime::from_secs_f64(1.0));
        assert!(sc.all_finished());
        let reports = sc.reports();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.iterations == 4));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_scenario_panics() {
        let _ = ScenarioBuilder::new(0).build();
    }

    #[test]
    fn restart_pauses_then_resumes_and_completes() {
        let rate = models::paper_bottleneck();
        let outage = SimDuration::millis(5);
        let spec = models::gpt2(rate, 1e-3, 8).with_restart(4, outage);
        let mut sc = ScenarioBuilder::new(11)
            .job(spec, CongestionSpec::Reno)
            .build();
        sc.run(SimTime::from_secs_f64(1.0));
        assert!(sc.all_finished());
        let stats = sc.stats(0);
        assert_eq!(stats.len(), 8, "no iterations are lost across a restart");
        let (idx, resume) = sc.restart_resume(0).expect("restart fired");
        assert_eq!(idx, 4);
        // The gap between iteration 3's end and iteration 4's start covers
        // the outage, and the outage is not billed to either iteration.
        let driver = sc.sim.agent::<JobDriver>(sc.jobs[0].driver);
        let recs = driver.records();
        assert!(recs[4].start >= recs[3].end + outage);
        assert_eq!(recs[4].start, resume);
        // Alone on the link, the job is back at full speed immediately.
        assert_eq!(sc.iterations_to_reinterleave(0, 0.10), Some(0));
    }

    #[test]
    fn bottleneck_fault_perturbs_but_job_completes() {
        let rate = models::paper_bottleneck();
        // Clean run vs. a run with a mid-training bottleneck outage: the
        // faulted run must still finish, and the outage must show up in
        // makespan (less than its full length where it overlaps a compute
        // phase, during which no traffic needed the link).
        let outage = SimDuration::millis(2);
        let mk = |fault: bool| {
            let mut b =
                ScenarioBuilder::new(17).job(models::gpt2(rate, 1e-3, 6), CongestionSpec::Reno);
            if fault {
                b = b.bottleneck_fault(LinkFault::Down {
                    at: SimTime::from_secs_f64(3e-3),
                    duration: outage,
                });
            }
            let mut sc = b.build();
            sc.run(SimTime::from_secs_f64(1.0));
            assert!(sc.all_finished());
            let driver = sc.sim.agent::<JobDriver>(sc.jobs[0].driver);
            driver.records().last().unwrap().end
        };
        let clean = mk(false);
        let faulted = mk(true);
        assert!(
            faulted.as_secs_f64() >= clean.as_secs_f64() + outage.as_secs_f64() * 0.5,
            "outage must show up in makespan: clean {clean:?} faulted {faulted:?}"
        );
    }

    #[test]
    fn bursty_loss_window_slows_but_does_not_wedge() {
        let rate = models::paper_bottleneck();
        let mut sc = ScenarioBuilder::new(23)
            .job(models::gpt2(rate, 1e-3, 6), CongestionSpec::Reno)
            .bottleneck_fault(LinkFault::BurstyLoss {
                at: SimTime::from_secs_f64(2e-3),
                duration: SimDuration::millis(3),
                model: GilbertElliott::bursty(0.05, 0.25, 0.5),
            })
            .build();
        sc.run(SimTime::from_secs_f64(2.0));
        assert!(sc.all_finished(), "GBN must drain through bursty loss");
        assert_eq!(sc.stats(0).len(), 6);
    }
}
