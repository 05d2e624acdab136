//! The job driver: the agent that turns a [`JobSpec`] into live traffic.
//!
//! Lifecycle per iteration (matching the paper's §4 model):
//!
//! 1. **Compute phase** — a timer of `compute_time + N(0, σ²)` (clamped
//!    at a small positive floor);
//! 2. **Communication phase** — `StartTransfer` messages to all of the
//!    job's senders, then wait for every `TransferComplete`;
//! 3. record the iteration and immediately start the next one — the
//!    arrival dependency that makes DNN traffic self-shifting.

use crate::job::JobSpec;
use crate::stats::{reconverge_after, IterationStats};
use mltcp_netsim::packet::Packet;
use mltcp_netsim::rng::SimRng;
use mltcp_netsim::sim::{Agent, AgentCtx, AgentId};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_telemetry::{PhaseKind, TelemetryEvent};
use mltcp_transport::proto::{self, Msg};

/// One completed training iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationRecord {
    /// Iteration index (0-based).
    pub index: u32,
    /// When the iteration (compute phase) began.
    pub start: SimTime,
    /// When the communication phase began.
    pub comm_start: SimTime,
    /// When the last flow's transfer completed (= start of the next
    /// iteration).
    pub end: SimTime,
}

impl IterationRecord {
    /// Total iteration duration.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Communication-phase duration.
    pub fn comm_duration(&self) -> SimDuration {
        self.end - self.comm_start
    }
}

/// Driver state machine phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the start offset.
    Pending,
    /// In a compute slice preceding burst `burst_idx`.
    Computing {
        /// Which sub-burst follows this compute slice.
        burst_idx: u32,
    },
    /// Waiting for transfer completions of burst `burst_idx`.
    Communicating {
        /// Which sub-burst is in flight.
        burst_idx: u32,
        /// Flows still in flight.
        outstanding: usize,
    },
    /// All iterations done.
    Finished,
}

/// The workload-driving agent for one job.
#[derive(Debug)]
pub struct JobDriver {
    spec: JobSpec,
    /// Scenario-assigned job index carried in telemetry `Phase` events.
    job_id: u32,
    senders: Vec<AgentId>,
    rng: SimRng,
    phase: Phase,
    /// Current iteration's compute-slice duration (noise applied).
    compute_slice: SimDuration,
    iter_index: u32,
    iter_start: SimTime,
    comm_start: SimTime,
    records: Vec<IterationRecord>,
    /// Comm-phase start times, one per iteration (for shift analysis).
    comm_starts: Vec<SimTime>,
    /// The crash/restart fault already fired (it fires at most once).
    restart_fired: bool,
    /// `(iteration index, resume time)` once the restart fault has fired.
    restart_resume: Option<(u32, SimTime)>,
}

impl JobDriver {
    /// Creates a driver. Wire its senders afterwards with
    /// [`JobDriver::wire_senders`] (the driver must be registered first so
    /// senders can carry its [`AgentId`] in their config). `noise_seed`
    /// gives the job its own deterministic noise stream.
    pub fn new(spec: JobSpec, noise_seed: u64) -> Self {
        Self {
            spec,
            job_id: 0,
            senders: Vec::new(),
            rng: SimRng::new(noise_seed),
            phase: Phase::Pending,
            compute_slice: SimDuration::ZERO,
            iter_index: 0,
            iter_start: SimTime::ZERO,
            comm_start: SimTime::ZERO,
            records: Vec::new(),
            comm_starts: Vec::new(),
            restart_fired: false,
            restart_resume: None,
        }
    }

    /// Sets the scenario-assigned job index carried in telemetry `Phase`
    /// events (builder-style; defaults to 0).
    pub fn with_job_id(mut self, job_id: u32) -> Self {
        self.job_id = job_id;
        self
    }

    /// The scenario-assigned job index.
    pub fn job_id(&self) -> u32 {
        self.job_id
    }

    /// Emits an iteration-phase boundary (telemetry-gated).
    fn emit_phase(&self, ctx: &mut AgentCtx<'_>, iter: u32, phase: PhaseKind) {
        if ctx.telemetry_enabled() {
            ctx.emit(TelemetryEvent::Phase {
                t_ns: ctx.now().as_nanos(),
                job: self.job_id,
                iter,
                phase,
            });
        }
    }

    /// Attaches the job's transport senders (one per flow).
    ///
    /// # Panics
    /// Panics if the count does not match `spec.flows`.
    pub fn wire_senders(&mut self, senders: Vec<AgentId>) {
        assert_eq!(
            senders.len(),
            self.spec.flows,
            "one sender per flow is required"
        );
        self.senders = senders;
    }

    /// The job's spec.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Completed iterations.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Communication-phase start times (entry i = iteration i), including
    /// the current in-progress iteration once its comm phase begins.
    pub fn comm_starts(&self) -> &[SimTime] {
        &self.comm_starts
    }

    /// Whether all iterations completed.
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finished)
    }

    /// Where the job resumed after its crash/restart fault: the iteration
    /// index that was delayed and the simulated resume time. `None` when
    /// no restart was configured or it has not fired yet.
    pub fn restart_resume(&self) -> Option<(u32, SimTime)> {
        self.restart_resume
    }

    /// How many iterations the job needed to re-interleave with its
    /// neighbours after resuming from its crash/restart fault: the
    /// [`reconverge_after`] count of its iteration durations, with the
    /// resumed iteration as the first one the fault could affect.
    ///
    /// Returns `None` when the restart never fired, fired before any
    /// baseline existed, or the job never re-converged within the run
    /// (still violating at the last recorded iteration).
    pub fn iterations_to_reinterleave(&self, rel_tol: f64) -> Option<u32> {
        let (resume_idx, _) = self.restart_resume?;
        let stats = IterationStats::from_records(&self.records);
        reconverge_after(stats.durations(), resume_idx as usize, rel_tol).map(|n| n as u32)
    }

    fn begin_iteration(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.iter_index >= self.spec.iterations {
            self.phase = Phase::Finished;
            return;
        }
        // Crash/restart fault: pause the whole job for the configured
        // outage before iteration `at_iter` begins, then resume. The
        // outage itself is not part of any iteration's duration — what we
        // measure afterwards is purely how the resumed job interleaves
        // with its peers.
        if !self.restart_fired {
            if let Some(rs) = self.spec.restart {
                if self.iter_index >= rs.at_iter {
                    self.restart_fired = true;
                    self.restart_resume = Some((self.iter_index, ctx.now() + rs.outage));
                    self.phase = Phase::Pending;
                    ctx.rearm_timer(rs.outage);
                    return;
                }
            }
        }
        // Centralized pacing: hold the iteration for its planned slot on
        // the grid `start_offset + k × pace`. A job that fell behind its
        // nominal slot re-aligns to the *next* grid point — this is what
        // distinguishes an enforced (Cassini-style) schedule from mere
        // start offsets, which drift apart as soon as measured iteration
        // times deviate from the plan.
        if let Some(pace) = self.spec.pace {
            let pace_ns = pace.as_nanos().max(1);
            let off_ns = self.spec.start_offset.as_nanos();
            let now_ns = ctx.now().as_nanos();
            let k = if now_ns > off_ns {
                (now_ns - off_ns).div_ceil(pace_ns)
            } else {
                0
            };
            let planned = SimTime(off_ns + k * pace_ns);
            if ctx.now() < planned {
                self.phase = Phase::Pending;
                ctx.rearm_timer(planned - ctx.now());
                return;
            }
        }
        self.iter_start = ctx.now();
        self.emit_phase(ctx, self.iter_index, PhaseKind::ComputeStart);
        // Draw the iteration's compute-time noise once; each of the
        // `bursts` compute slices gets an equal share.
        let mean = self.spec.compute_time.as_secs_f64();
        let sigma = self.spec.noise_stddev.as_secs_f64();
        let noisy = self.rng.gaussian(mean, sigma).max(mean * 0.01).max(1e-9);
        self.compute_slice = SimDuration::from_secs_f64(noisy / f64::from(self.spec.bursts.max(1)));
        self.begin_compute_slice(ctx, 0);
    }

    fn begin_compute_slice(&mut self, ctx: &mut AgentCtx<'_>, burst_idx: u32) {
        self.phase = Phase::Computing { burst_idx };
        ctx.rearm_timer(self.compute_slice);
    }

    /// Bytes of sub-burst `idx` for one flow (the last burst absorbs the
    /// integer-division remainder).
    fn burst_bytes(&self, idx: u32) -> u64 {
        let per_flow = self.spec.bytes_per_flow();
        let b = u64::from(self.spec.bursts.max(1));
        let base = per_flow / b;
        if u64::from(idx) == b - 1 {
            per_flow - base * (b - 1)
        } else {
            base
        }
    }

    fn begin_burst(&mut self, ctx: &mut AgentCtx<'_>, burst_idx: u32) {
        assert_eq!(
            self.senders.len(),
            self.spec.flows,
            "senders were not wired before the run"
        );
        if burst_idx == 0 {
            self.comm_start = ctx.now();
            self.comm_starts.push(self.comm_start);
            self.emit_phase(ctx, self.iter_index, PhaseKind::CommStart);
        }
        let bytes = self.burst_bytes(burst_idx);
        self.phase = Phase::Communicating {
            burst_idx,
            outstanding: self.senders.len(),
        };
        for i in 0..self.senders.len() {
            let sender = self.senders[i];
            ctx.send_message(sender, proto::encode(Msg::StartTransfer { bytes }));
        }
    }
}

impl Agent for JobDriver {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.rearm_timer(self.spec.start_offset);
    }

    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}

    /// The timer is armed only while the driver waits: `Pending` for its
    /// start offset, pacing slot or restart outage, `Computing` for a
    /// compute slice.
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        match self.phase {
            Phase::Pending => self.begin_iteration(ctx),
            Phase::Computing { burst_idx } => self.begin_burst(ctx, burst_idx),
            Phase::Communicating { .. } | Phase::Finished => {
                unreachable!("the driver's timer fired while it was not waiting")
            }
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
        let Some(Msg::TransferComplete { .. }) = proto::decode(token) else {
            return;
        };
        let Phase::Communicating {
            burst_idx,
            outstanding,
        } = &mut self.phase
        else {
            return;
        };
        *outstanding -= 1;
        if *outstanding > 0 {
            return;
        }
        let burst_idx = *burst_idx;
        if burst_idx + 1 < self.spec.bursts.max(1) {
            // More sub-bursts this iteration: next compute slice.
            self.begin_compute_slice(ctx, burst_idx + 1);
        } else {
            self.records.push(IterationRecord {
                index: self.iter_index,
                start: self.iter_start,
                comm_start: self.comm_start,
                end: ctx.now(),
            });
            self.emit_phase(ctx, self.iter_index, PhaseKind::IterEnd);
            self.iter_index += 1;
            self.begin_iteration(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_durations() {
        let r = IterationRecord {
            index: 0,
            start: SimTime(0),
            comm_start: SimTime(600_000),
            end: SimTime(1_200_000),
        };
        assert_eq!(r.duration(), SimDuration(1_200_000));
        assert_eq!(r.comm_duration(), SimDuration(600_000));
    }

    #[test]
    #[should_panic(expected = "one sender per flow")]
    fn sender_count_must_match_flows() {
        let spec = JobSpec::new("j", SimDuration::millis(1), 1000, 1).with_flows(2);
        let mut d = JobDriver::new(spec, 0);
        d.wire_senders(vec![AgentId(0)]);
    }
}
