//! Job specifications: the schedule-relevant geometry of one training job.

use mltcp_core::schedule::PeriodicJob;
use mltcp_netsim::link::Bandwidth;
use mltcp_netsim::time::SimDuration;

/// A scheduled crash/restart: the job pauses just before iteration
/// `at_iter` for `outage`, then resumes training where it left off.
///
/// This models a worker failure + checkpoint restore: no iterations are
/// lost, but the job's phase relative to its peers is perturbed by the
/// outage. The interesting question downstream is how many iterations the
/// fabric needs to re-interleave the job with its neighbours (MLTCP
/// self-heals; a static Cassini-style offset plan does not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartSpec {
    /// The 0-based iteration index before which the job pauses.
    pub at_iter: u32,
    /// How long the job stays down before resuming.
    pub outage: SimDuration,
}

/// A periodic DNN training/fine-tuning job.
///
/// Each iteration: compute for `compute_time` (plus Gaussian noise), then
/// transfer `bytes_per_iter` across `flows` parallel connections, then
/// immediately begin the next iteration. The ideal iteration time on a
/// bottleneck of rate `C` is `compute_time + bytes·8/C` — the `T` of the
/// paper's analysis, with communication fraction `a = comm/T`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name (e.g. "J1 (GPT-3)").
    pub name: String,
    /// Compute-phase duration `(1 − a)·T`.
    pub compute_time: SimDuration,
    /// Total bytes transferred per iteration (split evenly over `flows`).
    pub bytes_per_iter: u64,
    /// Number of parallel flows carrying the job's traffic (data-parallel
    /// workers). The paper's jobs use 2 GPU servers ⇒ 1 flow across the
    /// bottleneck; allreduce fan-out can be modelled with more.
    pub flows: usize,
    /// Iterations to run.
    pub iterations: u32,
    /// Delay before the job's first iteration starts.
    pub start_offset: SimDuration,
    /// Standard deviation of zero-mean Gaussian noise added to each
    /// compute phase (the §4 perturbation model).
    pub noise_stddev: SimDuration,
    /// Number of equal communication sub-bursts per iteration. Real DNN
    /// allreduce traffic is often multi-burst (the paper's Fig. 1(a)
    /// GPT-3 pattern shows several spikes per comm phase); sub-bursts
    /// alternate with slices of the compute phase.
    pub bursts: u32,
    /// Centralized pacing: when set, iteration `k` may not start before
    /// `start_offset + k × pace`. This is how a Cassini-style controller
    /// *enforces* its planned schedule (static start offsets alone drift
    /// apart as soon as measured iteration times deviate from the plan).
    pub pace: Option<SimDuration>,
    /// Optional crash/restart fault: pause before `at_iter` for `outage`,
    /// then resume (see [`RestartSpec`]).
    pub restart: Option<RestartSpec>,
}

impl JobSpec {
    /// A single-flow job with no noise and no offset.
    pub fn new(
        name: impl Into<String>,
        compute_time: SimDuration,
        bytes_per_iter: u64,
        iterations: u32,
    ) -> Self {
        Self {
            name: name.into(),
            compute_time,
            bytes_per_iter,
            flows: 1,
            iterations,
            start_offset: SimDuration::ZERO,
            noise_stddev: SimDuration::ZERO,
            bursts: 1,
            pace: None,
            restart: None,
        }
    }

    /// Builder: start offset.
    pub fn with_offset(mut self, offset: SimDuration) -> Self {
        self.start_offset = offset;
        self
    }

    /// Builder: compute-time noise.
    pub fn with_noise(mut self, stddev: SimDuration) -> Self {
        self.noise_stddev = stddev;
        self
    }

    /// Builder: parallel flow count.
    pub fn with_flows(mut self, flows: usize) -> Self {
        self.flows = flows.max(1);
        self
    }

    /// Builder: communication sub-bursts per iteration (clamps to ≥ 1).
    pub fn with_bursts(mut self, bursts: u32) -> Self {
        self.bursts = bursts.max(1);
        self
    }

    /// Builder: centralized pacing period (see [`JobSpec::pace`]).
    pub fn with_pace(mut self, pace: SimDuration) -> Self {
        self.pace = Some(pace);
        self
    }

    /// Builder: crash/restart fault — pause before iteration `at_iter`
    /// for `outage`, then resume (see [`RestartSpec`]).
    pub fn with_restart(mut self, at_iter: u32, outage: SimDuration) -> Self {
        self.restart = Some(RestartSpec { at_iter, outage });
        self
    }

    /// Ideal communication-phase duration when the job has the whole
    /// bottleneck: `bytes·8 / rate` (wire overhead ignored — it is ~2.6%
    /// for MTU segments and cancels in all relative comparisons).
    pub fn ideal_comm_time(&self, bottleneck: Bandwidth) -> SimDuration {
        SimDuration(
            ((u128::from(self.bytes_per_iter) * 8 * 1_000_000_000)
                / u128::from(bottleneck.as_bps())) as u64,
        )
    }

    /// Ideal iteration time `T = compute + comm`.
    pub fn ideal_period(&self, bottleneck: Bandwidth) -> SimDuration {
        self.compute_time + self.ideal_comm_time(bottleneck)
    }

    /// Communication fraction `a = comm / T`.
    pub fn comm_fraction(&self, bottleneck: Bandwidth) -> f64 {
        let comm = self.ideal_comm_time(bottleneck).as_secs_f64();
        let t = self.ideal_period(bottleneck).as_secs_f64();
        if t > 0.0 {
            comm / t
        } else {
            0.0
        }
    }

    /// Bytes carried by each of the job's flows per iteration.
    pub fn bytes_per_flow(&self) -> u64 {
        self.bytes_per_iter / self.flows as u64
    }

    /// Projects the spec onto the analytic [`PeriodicJob`] geometry used
    /// by `mltcp-core`'s schedule metrics and the Cassini-style
    /// optimizer.
    pub fn to_periodic(&self, bottleneck: Bandwidth) -> PeriodicJob {
        PeriodicJob::new(
            self.ideal_period(bottleneck).as_secs_f64(),
            self.comm_fraction(bottleneck).clamp(f64::MIN_POSITIVE, 1.0),
            self.start_offset.as_secs_f64(),
        )
        .expect("JobSpec geometry is valid by construction")
        .with_bursts(self.bursts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_on_50gbps() {
        // GPT-2-like at millisecond scale: compute 1.5 ms, comm 0.3 ms at
        // 50 Gbps = 1.875 MB.
        let j = JobSpec::new("gpt2", SimDuration::micros(1500), 1_875_000, 10);
        let rate = Bandwidth::gbps(50);
        assert_eq!(j.ideal_comm_time(rate), SimDuration::micros(300));
        assert_eq!(j.ideal_period(rate), SimDuration::micros(1800));
        assert!((j.comm_fraction(rate) - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn per_flow_split() {
        let j = JobSpec::new("j", SimDuration::millis(1), 3_000_000, 5).with_flows(3);
        assert_eq!(j.bytes_per_flow(), 1_000_000);
    }

    #[test]
    fn to_periodic_round_trip() {
        let j = JobSpec::new("j", SimDuration::micros(600), 3_750_000, 5)
            .with_offset(SimDuration::micros(100));
        let p = j.to_periodic(Bandwidth::gbps(50));
        assert!((p.period - 1.2e-3).abs() < 1e-9);
        assert!((p.comm_fraction - 0.5).abs() < 1e-9);
        assert!((p.offset - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn builders() {
        let j = JobSpec::new("j", SimDuration::millis(1), 1000, 1)
            .with_noise(SimDuration::micros(10))
            .with_flows(0);
        assert_eq!(j.noise_stddev, SimDuration::micros(10));
        assert_eq!(j.flows, 1, "flow count clamps to >= 1");
    }
}
