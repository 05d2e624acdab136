//! The benchmark's workloads and the instrumented execution of one
//! scenario.
//!
//! Every layer is measured from outside: calls into public functions are
//! timed (and recorded as spans when a tracer is given), and counters are
//! read from what each crate already exposes after the run.

use mltcp_bench::experiments::{
    fig2_jobs, gpt2_jobs, mix_deadline, reconverge_after, scenario_replay_hash, uniform_builder,
    FaultCase, PlanKind, CASSINI_PACE_FACTOR,
};
use mltcp_netsim::fault::GilbertElliott;
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_perfbench::calibrate;
use mltcp_perfbench::spans::{timed, Tracer};
use mltcp_sched::cassini;
use mltcp_telemetry::{
    Histogram, MetricsSink, MetricsSnapshot, ProfileSnapshot, TeeSink, TelemetryEvent,
    TelemetrySink,
};
use mltcp_transport::sender::TcpSender;
use mltcp_workload::job::JobSpec;
use mltcp_workload::models;
use mltcp_workload::scenario::{CongestionSpec, FnSpec, LinkFault, Scenario, ScenarioBuilder};
use mltcp_workload::JobDriver;
use std::any::Any;
use std::thread::ThreadId;
use std::time::Instant;

/// Time scale of every scenario (the figure binaries' default).
pub const SCALE: f64 = 0.01;

/// Iterations per job in the clean MLTCP workload.
const GPT2X6_ITERS: u32 = 30;
/// Iterations per job in the faulted workload.
const FAULT_ITERS: u32 = 40;
/// Iterations per job in each Cassini scenario.
const CASSINI_ITERS: u32 = 8;
/// Scenarios in one pass of the Cassini sweep.
const CASSINI_SCENARIOS: u64 = 8;
/// `Scenario::run`'s slice length, replayed by traced runs.
const RUN_SLICE: SimDuration = SimDuration::millis(5);
/// Simulated time between reference-kernel bursts.
const CALIBRATION_CHUNK: SimDuration = SimDuration::millis(20);
/// Re-convergence tolerance after the faults, as in `exp_fault_recovery`.
const REL_TOL: f64 = 0.05;

/// One of the benchmark's workloads. Each is a closed-loop batch: the
/// next scenario starts when a worker finishes the previous one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 6 GPT-2 jobs under MLTCP-Reno on the shared dumbbell: no sink, no
    /// faults, no optimizer.
    Gpt2x6Mltcp,
    /// The Fig. 2 mix under MLTCP-Reno through a composite fault schedule,
    /// with a metrics sink attached.
    Fig2FaultsMetrics,
    /// Enforced-Cassini scenarios (optimizer offsets, paced Reno) through
    /// the sweep runner on two workers.
    CassiniSweep,
}

impl Workload {
    /// All workloads, in the order the full benchmark runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Gpt2x6Mltcp,
        Workload::Fig2FaultsMetrics,
        Workload::CassiniSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gpt2x6Mltcp => "gpt2x6_mltcp",
            Workload::Fig2FaultsMetrics => "fig2_faults_metrics",
            Workload::CassiniSweep => "cassini_sweep",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios of one pass, all derived from `seed`.
    pub fn scenarios(self, seed: u64) -> Vec<ScenarioCfg> {
        match self {
            Workload::Gpt2x6Mltcp => vec![ScenarioCfg {
                mix: Mix::Gpt2x6,
                seed,
            }],
            Workload::Fig2FaultsMetrics => vec![ScenarioCfg {
                mix: Mix::Fig2Faults,
                seed,
            }],
            Workload::CassiniSweep => (0..CASSINI_SCENARIOS)
                .map(|i| ScenarioCfg {
                    mix: if i % 2 == 0 {
                        Mix::CassiniFig2
                    } else {
                        Mix::CassiniGpt2x6
                    },
                    seed: seed.wrapping_add(i),
                })
                .collect(),
        }
    }

    /// Sweep workers the workload runs on.
    pub fn workers(self) -> usize {
        match self {
            Workload::CassiniSweep => 2,
            _ => 1,
        }
    }
}

/// A job mix and how it is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 6 GPT-2 jobs, MLTCP-Reno.
    Gpt2x6,
    /// GPT-3 + 3×GPT-2, MLTCP-Reno, link flap + brownout + bursty loss +
    /// job restart, metrics sink attached.
    Fig2Faults,
    /// GPT-3 + 3×GPT-2 at Cassini offsets, paced Reno.
    CassiniFig2,
    /// 6 GPT-2 jobs at Cassini offsets, paced Reno.
    CassiniGpt2x6,
}

/// One scenario of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCfg {
    /// Job mix and scheduling.
    pub mix: Mix,
    /// Simulation seed.
    pub seed: u64,
}

/// Pooled round-trip times, for percentiles across all flows.
#[derive(Debug, Default)]
struct RttSink(Histogram);

impl TelemetrySink for RttSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        if let TelemetryEvent::Rtt { rtt_ns, .. } = *ev {
            self.0.observe(rtt_ns);
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A built scenario and what it cost to build.
pub struct Prepared {
    sc: Scenario,
    deadline: SimTime,
    /// First fault onset, for re-convergence accounting.
    fault_onset: Option<SimTime>,
    /// Wall seconds in `cassini::optimize_offsets` (0 without optimizer).
    pub optimize_s: f64,
    /// Calls into the optimizer.
    optimize_calls: u64,
    /// Residual excess demand of the optimizer's offsets, seconds.
    excess_demand: f64,
    /// Wall seconds in `ScenarioBuilder::build` plus sink attachment.
    pub build_s: f64,
}

/// Counters summed over a scenario's transport senders.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderTotals {
    /// Data segments sent, retransmissions included.
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast retransmits.
    pub fast_retransmits: u64,
    /// Blackouts survived.
    pub blackouts: u64,
}

/// Everything measured on one scenario.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Optimizer + build wall seconds.
    pub setup_s: f64,
    /// Optimizer wall seconds.
    pub optimize_s: f64,
    /// Optimizer calls.
    pub optimize_calls: u64,
    /// Optimizer residual excess demand, seconds.
    pub excess_demand: f64,
    /// Build wall seconds.
    pub build_s: f64,
    /// Wall seconds inside the run.
    pub run_s: f64,
    /// `run_s` in calibrated seconds, each chunk scaled by the kernel
    /// bursts on either side of it.
    pub cal_run_s: f64,
    /// Turns this scenario's other wall times into calibrated seconds:
    /// the factor of the mean over its kernel bursts.
    pub cal_factor: f64,
    /// Simulated seconds the run advanced.
    pub sim_s: f64,
    /// Scenario start and end, seconds after the pass started.
    pub span_s: (f64, f64),
    /// The sweep worker that ran the scenario.
    pub worker: ThreadId,
    /// Whether every job finished its iterations before the deadline.
    pub finished: bool,
    /// Replay hash of the finished scenario.
    pub hash: u64,
    /// Per job: tail-5 mean iteration time ÷ ideal period.
    pub steady_ratios: Vec<f64>,
    /// Every iteration's duration ÷ its job's ideal period.
    pub iter_ratios: Vec<f64>,
    /// Mix-level iterations to re-converge after the first fault (the
    /// remaining run when it never did); 0 without faults.
    pub reinterleave_iters: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Largest event-queue capacity seen between run slices (traced
    /// only; 0 untraced).
    pub queue_capacity_max: u64,
    /// Transport counters.
    pub senders: SenderTotals,
    /// Metrics-sink snapshot, when a sink was attached.
    pub metrics: Option<MetricsSnapshot>,
    /// Pooled RTT percentiles `(p50, p99)` in ns (traced only).
    pub rtt_ns: Option<(f64, f64)>,
    /// Per-event-kind profile (traced only).
    pub profile: Option<ProfileSnapshot>,
}

/// Builds one scenario. With a tracer the build also enables the
/// profiler and attaches the metrics and RTT sinks.
pub fn prepare(cfg: &ScenarioCfg, tracer: Option<&Tracer>, parent: Option<u32>) -> Prepared {
    let traced = tracer.is_some();
    let mut optimize_s = 0.0;
    let mut optimize_calls = 0;
    let mut excess_demand = 0.0;
    let mut fault_onset = None;
    let (builder, deadline, metrics_sink) = match cfg.mix {
        Mix::Gpt2x6 => (
            uniform_builder(
                cfg.seed,
                gpt2_jobs(SCALE, GPT2X6_ITERS, 6),
                CongestionSpec::MltcpReno(FnSpec::Paper),
            ),
            mix_deadline(SCALE, GPT2X6_ITERS),
            false,
        ),
        Mix::Fig2Faults => {
            let (b, onset) = faulted_builder(cfg.seed);
            fault_onset = Some(onset);
            (b, mix_deadline(SCALE, FAULT_ITERS), true)
        }
        Mix::CassiniFig2 | Mix::CassiniGpt2x6 => {
            let jobs = if cfg.mix == Mix::CassiniFig2 {
                fig2_jobs(SCALE, CASSINI_ITERS)
            } else {
                gpt2_jobs(SCALE, CASSINI_ITERS, 6)
            };
            let rate = models::paper_bottleneck();
            let periodic: Vec<_> = jobs.iter().map(|j| j.to_periodic(rate)).collect();
            let (sched, secs) = timed(tracer, "sched.optimize_offsets", parent, |_| {
                cassini::optimize_offsets(&periodic, 240, 8192)
            });
            optimize_s = secs;
            optimize_calls = 1;
            excess_demand = sched.report.excess_demand;
            let computes: Vec<_> = jobs.iter().map(|j| j.compute_time).collect();
            let periods: Vec<f64> = periodic.iter().map(|p| p.period).collect();
            let offsets = cassini::driver_offsets(&sched, &computes, &periods);
            (
                paced_builder(cfg.seed, jobs, &offsets),
                mix_deadline(SCALE, CASSINI_ITERS),
                false,
            )
        }
    };
    let (sc, build_s) = timed(tracer, "workload.build", parent, |_| {
        let mut sc = builder.build();
        if traced {
            sc.sim.enable_profiler();
            sc.set_telemetry(Box::new(TeeSink::new(vec![
                Box::new(MetricsSink::new()),
                Box::new(RttSink::default()),
            ])));
        } else if metrics_sink {
            sc.set_telemetry(Box::new(MetricsSink::new()));
        }
        sc
    });
    Prepared {
        sc,
        deadline,
        fault_onset,
        optimize_s,
        optimize_calls,
        excess_demand,
        build_s,
    }
}

/// The enforced-Cassini builder (as `experiments::cassini_scenario`, with
/// the optimizer call lifted out so it can be timed on its own).
fn paced_builder(seed: u64, jobs: Vec<JobSpec>, offsets: &[SimDuration]) -> ScenarioBuilder {
    let rate = models::paper_bottleneck();
    let mut b = ScenarioBuilder::new(seed);
    for (mut j, off) in jobs.into_iter().zip(offsets) {
        let pace = j.ideal_period(rate).mul_f64(CASSINI_PACE_FACTOR);
        j.start_offset = off.mul_f64(CASSINI_PACE_FACTOR);
        b = b.job(j.with_pace(pace), CongestionSpec::Reno);
    }
    b
}

/// The `replay_hash` composite fault schedule over the Fig. 2 mix, with
/// RTO backoff capped near one iteration as in `exp_fault_recovery`.
/// Returns the builder and the first fault's onset.
fn faulted_builder(seed: u64) -> (ScenarioBuilder, SimTime) {
    let period = SimDuration::from_secs_f64(1.8 * SCALE);
    let t = |frac: f64| SimTime::from_secs_f64(1.8 * SCALE * f64::from(FAULT_ITERS) * frac);
    let restart = FaultCase::JobRestart {
        job: 0,
        at_iter: FAULT_ITERS / 3,
        outage: period.mul_f64(0.75),
    };
    let b = restart
        .builder(
            seed,
            fig2_jobs(SCALE, FAULT_ITERS),
            &PlanKind::Uniform(CongestionSpec::MltcpReno(FnSpec::Paper)),
        )
        .max_rto(period)
        .bottleneck_fault(LinkFault::Down {
            at: t(0.2),
            duration: period.mul_f64(0.5),
        })
        .bottleneck_fault(LinkFault::Brownout {
            at: t(0.45),
            duration: period.mul_f64(2.0),
            factor: 0.3,
        })
        .bottleneck_fault(LinkFault::BurstyLoss {
            at: t(0.7),
            duration: period.mul_f64(2.0),
            model: GilbertElliott::bursty(0.08, 0.25, 0.4),
        });
    (b, t(0.2))
}

/// Runs a prepared scenario to completion and measures it. `pass_start`
/// anchors the scenario's start/end offsets for sweep accounting.
pub fn execute(
    mut p: Prepared,
    tracer: Option<&Tracer>,
    parent: Option<u32>,
    pass_start: Instant,
    started: f64,
) -> Outcome {
    let deadline = p.deadline;
    let sc = &mut p.sc;
    // `Scenario::run` in chunks of simulated time, with a burst of the
    // reference kernel timed before the first chunk and after every one
    // (outside `run_s`). Traced, each chunk replays `Scenario::run`'s
    // slice loop with a span around every `run_until` and the event queue
    // sampled between them.
    let mut run_s = 0.0;
    let mut cal_run_s = 0.0;
    let burst = |id| {
        timed(tracer, "bench.calibrate", id, |_| {
            calibrate::burst_ns_per_event()
        })
        .0
    };
    let mut kernel_ns = vec![burst(parent)];
    let mut queue_capacity_max = 0;
    timed(tracer, "workload.run", parent, |id| loop {
        let until = (sc.sim.now() + CALIBRATION_CHUNK).min(deadline);
        let t = Instant::now();
        if tracer.is_none() {
            sc.run(until);
        } else {
            let mut next = sc.sim.now() + RUN_SLICE;
            loop {
                timed(tracer, "netsim.run_until", id, |_| {
                    sc.sim.run_until(next.min(until))
                });
                let cap = sc.sim.event_queue_capacity() as u64;
                queue_capacity_max = queue_capacity_max.max(cap);
                if sc.all_finished() || sc.sim.now() >= until {
                    break;
                }
                next = sc.sim.now() + RUN_SLICE;
            }
        }
        let chunk_s = t.elapsed().as_secs_f64();
        let before = *kernel_ns.last().expect("a burst precedes every chunk");
        let after = burst(id);
        kernel_ns.push(after);
        run_s += chunk_s;
        cal_run_s += chunk_s * calibrate::factor((before + after) / 2.0);
        if sc.all_finished() || sc.sim.now() >= deadline {
            break;
        }
    });

    let ((metrics, rtt_ns), _) = timed(tracer, "telemetry.take_metrics", parent, |_| {
        match sc.take_telemetry() {
            Some(sink) => split_sinks(sink),
            None => (None, None),
        }
    });

    let mut senders = SenderTotals::default();
    for id in sc.jobs.iter().flat_map(|j| &j.senders) {
        let s = sc.sim.agent::<TcpSender>(*id).stats();
        senders.segments_sent += s.segments_sent;
        senders.retransmits += s.retransmits;
        senders.timeouts += s.timeouts;
        senders.fast_retransmits += s.fast_retransmits;
        senders.blackouts += s.blackouts;
    }
    let n = sc.jobs.len();
    let stats: Vec<_> = (0..n).map(|i| sc.stats(i)).collect();
    let ideals: Vec<f64> = (0..n).map(|i| sc.ideal_period(i).as_secs_f64()).collect();
    let steady_ratios = stats
        .iter()
        .zip(&ideals)
        .map(|(s, ideal)| s.tail_mean(5) / ideal)
        .collect();
    let iter_ratios = stats
        .iter()
        .zip(&ideals)
        .flat_map(|(s, &ideal)| s.durations().iter().map(move |d| d / ideal))
        .collect();
    let reinterleave_iters = p
        .fault_onset
        .map_or(0, |onset| mix_reinterleave(sc, onset, &ideals));
    let sim = sc.sim.stats();
    Outcome {
        setup_s: p.optimize_s + p.build_s,
        optimize_s: p.optimize_s,
        optimize_calls: p.optimize_calls,
        excess_demand: p.excess_demand,
        build_s: p.build_s,
        run_s,
        cal_run_s,
        cal_factor: calibrate::factor(kernel_ns.iter().sum::<f64>() / kernel_ns.len() as f64),
        sim_s: sc.sim.now().as_secs_f64(),
        span_s: (started, pass_start.elapsed().as_secs_f64()),
        worker: std::thread::current().id(),
        finished: sc.all_finished(),
        hash: scenario_replay_hash(sc),
        steady_ratios,
        iter_ratios,
        reinterleave_iters,
        events: sim.events,
        delivered: sim.delivered,
        dropped: sim.dropped,
        queue_capacity_max,
        senders,
        metrics,
        rtt_ns,
        profile: sc.sim.profile_snapshot(),
    }
}

/// Splits a detached sink into its metrics snapshot and pooled RTT
/// percentiles.
fn split_sinks(sink: Box<dyn TelemetrySink>) -> (Option<MetricsSnapshot>, Option<(f64, f64)>) {
    let parts: Vec<Box<dyn Any>> = match sink.into_any().downcast::<TeeSink>() {
        Ok(tee) => tee.into_parts().into_iter().map(|p| p.into_any()).collect(),
        Err(single) => vec![single],
    };
    let mut out = (None, None);
    for part in parts {
        match part.downcast::<RttSink>() {
            Ok(r) => out.1 = Some((r.0.quantile(0.5), r.0.quantile(0.99))),
            Err(other) => out.0 = other.downcast::<MetricsSink>().ok().map(|m| m.snapshot()),
        }
    }
    out
}

/// Mix-level iterations to re-converge after the first fault: the mean
/// iteration ratio across jobs, per iteration index, through
/// `reconverge_after`. A mix still perturbed at the end reports the
/// iterations left after the fault.
fn mix_reinterleave(sc: &Scenario, onset: SimTime, ideals: &[f64]) -> u64 {
    let records: Vec<_> = sc
        .jobs
        .iter()
        .map(|j| sc.sim.agent::<JobDriver>(j.driver).records())
        .collect();
    let n_iter = records.iter().map(|r| r.len()).min().unwrap_or(0);
    let mix: Vec<f64> = (0..n_iter)
        .map(|k| {
            records
                .iter()
                .zip(ideals)
                .map(|(r, ideal)| r[k].duration().as_secs_f64() / ideal)
                .sum::<f64>()
                / records.len() as f64
        })
        .collect();
    // The mix is past the fault once every job is.
    let fault_idx = records
        .iter()
        .map(|r| r.iter().position(|rec| rec.end >= onset).unwrap_or(r.len()))
        .max()
        .unwrap_or(0);
    reconverge_after(&mix, fault_idx, REL_TOL).unwrap_or(n_iter.saturating_sub(fault_idx)) as u64
}
