//! Per-flow iteration tracking — the state machine of Algorithm 1.
//!
//! MLTCP needs two pieces of per-job information: `TOTAL_BYTES`, the number
//! of bytes the flow transfers every training iteration, and `COMP_TIME`, a
//! threshold on the gap between consecutive acks that signals an iteration
//! boundary (the job went back to computing). The tracker updates
//! `bytes_sent` on every ack, resets at iteration boundaries, and exposes
//! `bytes_ratio = min(1, bytes_sent / total_bytes)` — the argument of the
//! bandwidth aggressiveness function.
//!
//! The paper's deployment "automatically learns these values by measuring
//! the total amount of data and computation time during the first few
//! iterations"; [`AutoTuner`] reproduces that: it watches the ack stream,
//! segments it into bursts separated by multi-RTT silences, and locks in
//! the measured per-iteration byte count and gap threshold.

/// Timestamps are nanoseconds since simulation (or connection) start.
pub type Nanos = u64;

/// Configuration of an [`IterationTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// `TOTAL_BYTES`: bytes transferred per training iteration.
    pub total_bytes: u64,
    /// `COMP_TIME`: ack-gap threshold (ns) marking an iteration boundary.
    /// The paper sets this to "several round-trip times" below the job's
    /// compute-phase duration.
    pub comp_time_threshold: Nanos,
    /// Minimum bytes that must have been delivered before a long ack gap
    /// is accepted as an iteration boundary. `0` reproduces Algorithm 1
    /// exactly (any long gap resets). A value near `total_bytes` extends
    /// the algorithm to *multi-burst* iterations: real allreduce traffic
    /// (the paper's Fig. 1(a) GPT-3 pattern) pauses mid-iteration, and
    /// when those pauses rival the compute gap, pure gap detection would
    /// wrongly reset `bytes_ratio` between sub-bursts. Requires oracle
    /// knowledge of `total_bytes`, which the deployment's first-iterations
    /// measurement provides.
    pub min_bytes_for_reset: u64,
}

impl TrackerConfig {
    /// Oracle configuration: both values known a priori (e.g. from a job
    /// profile), as in the paper's testbed experiments.
    pub fn oracle(total_bytes: u64, comp_time_threshold: Nanos) -> Self {
        Self {
            total_bytes,
            comp_time_threshold,
            min_bytes_for_reset: 0,
        }
    }

    /// Oracle configuration for multi-burst iterations: a long gap only
    /// resets once at least `frac` of `total_bytes` was delivered.
    pub fn oracle_multiburst(total_bytes: u64, comp_time_threshold: Nanos, frac: f64) -> Self {
        Self {
            total_bytes,
            comp_time_threshold,
            min_bytes_for_reset: (total_bytes as f64 * frac.clamp(0.0, 1.0)) as u64,
        }
    }
}

/// Algorithm 1 state: tracks bytes delivered in the current iteration and
/// detects iteration boundaries from gaps in the ack stream.
///
/// Call [`IterationTracker::on_ack`] from the congestion-avoidance hook for
/// every cumulative ack; it returns the up-to-date `bytes_ratio` to feed the
/// aggressiveness function.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTracker {
    config: TrackerConfig,
    bytes_sent: u64,
    bytes_ratio: f64,
    prev_ack_tstamp: Option<Nanos>,
    iterations_seen: u64,
}

impl IterationTracker {
    /// Creates a tracker in the initial (pre-first-ack) state.
    pub fn new(config: TrackerConfig) -> Self {
        Self {
            config,
            bytes_sent: 0,
            bytes_ratio: 0.0,
            prev_ack_tstamp: None,
            iterations_seen: 0,
        }
    }

    /// Processes one cumulative ack delivered at time `now` acknowledging
    /// `acked_bytes` new bytes, per Algorithm 1 lines 7–17, and returns the
    /// current `bytes_ratio ∈ [0, 1]`.
    ///
    /// A gap larger than `COMP_TIME` since the previous ack resets the
    /// per-iteration counters (lines 10–13): the flow is starting a new
    /// training iteration. Note the reset happens *before* the current
    /// ack's bytes are counted toward the new iteration.
    pub fn on_ack(&mut self, now: Nanos, acked_bytes: u64) -> f64 {
        self.on_ack_hinted(now, acked_bytes, false)
    }

    /// [`IterationTracker::on_ack`] with a loss-recovery hint.
    ///
    /// When `loss_recovery_gap` is true, the silence preceding this ack
    /// was a retransmission blackout (the transport fired ≥ 1 RTO while
    /// data was outstanding), not a compute phase — the iteration cannot
    /// have ended, because un-acked bytes of it are still in the pipe. A
    /// blackout longer than `COMP_TIME` would otherwise be misread as an
    /// iteration boundary and spuriously reset `bytes_ratio` to 0,
    /// throttling the flow (via `F(0)`) exactly when it is trying to
    /// recover. Bytes still accumulate and the gap clock still advances.
    pub fn on_ack_hinted(&mut self, now: Nanos, acked_bytes: u64, loss_recovery_gap: bool) -> f64 {
        let boundary = match self.prev_ack_tstamp {
            Some(prev) => {
                !loss_recovery_gap
                    && now.saturating_sub(prev) > self.config.comp_time_threshold
                    && self.bytes_sent >= self.config.min_bytes_for_reset
            }
            None => false,
        };
        if boundary {
            // Start of a new training iteration: state reset.
            self.bytes_sent = 0;
            self.bytes_ratio = 0.0;
            self.iterations_seen += 1;
        }
        self.bytes_sent = self.bytes_sent.saturating_add(acked_bytes);
        if self.config.total_bytes > 0 {
            self.bytes_ratio = (self.bytes_sent as f64 / self.config.total_bytes as f64).min(1.0);
        } else {
            self.bytes_ratio = 0.0;
        }
        self.prev_ack_tstamp = Some(now);
        self.bytes_ratio
    }

    /// The current `bytes_ratio` without consuming an ack.
    pub fn bytes_ratio(&self) -> f64 {
        self.bytes_ratio
    }

    /// Bytes acknowledged so far in the current iteration.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Number of iteration boundaries detected so far.
    pub fn iterations_seen(&self) -> u64 {
        self.iterations_seen
    }

    /// The active configuration.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// Replaces the configuration (used when an [`AutoTuner`] locks in
    /// learned values mid-connection). Counters are preserved.
    pub fn reconfigure(&mut self, config: TrackerConfig) {
        self.config = config;
        if self.config.total_bytes > 0 {
            self.bytes_ratio = (self.bytes_sent as f64 / self.config.total_bytes as f64).min(1.0);
        }
    }
}

/// Online learner for `TOTAL_BYTES` and `COMP_TIME`.
///
/// Mirrors the paper's deployment: during the first `warmup_iterations`
/// bursts it records per-burst byte totals and the silences between bursts,
/// then yields a [`TrackerConfig`] with
///
/// * `total_bytes` = the median of observed burst sizes (robust to a
///   truncated first burst), and
/// * `comp_time_threshold` = half the median inter-burst silence, which is
///   comfortably above "several RTTs" and below the compute time.
///
/// Bursts are segmented by silences longer than `min_gap` (a few RTTs).
#[derive(Debug, Clone, PartialEq)]
pub struct AutoTuner {
    min_gap: Nanos,
    warmup_iterations: usize,
    current_burst_bytes: u64,
    prev_ack_tstamp: Option<Nanos>,
    burst_sizes: Vec<u64>,
    gaps: Vec<Nanos>,
    locked: Option<TrackerConfig>,
}

impl AutoTuner {
    /// Creates an auto-tuner; `min_gap` should be several RTTs (the minimum
    /// silence treated as a compute phase) and `warmup_iterations` the
    /// number of complete bursts to observe before locking in.
    pub fn new(min_gap: Nanos, warmup_iterations: usize) -> Self {
        Self {
            min_gap: min_gap.max(1),
            warmup_iterations: warmup_iterations.max(1),
            current_burst_bytes: 0,
            prev_ack_tstamp: None,
            burst_sizes: Vec::new(),
            gaps: Vec::new(),
            locked: None,
        }
    }

    /// Feeds one ack observation. Returns `Some(config)` exactly once, at
    /// the moment enough complete bursts have been observed.
    pub fn on_ack(&mut self, now: Nanos, acked_bytes: u64) -> Option<TrackerConfig> {
        self.on_ack_hinted(now, acked_bytes, false)
    }

    /// [`AutoTuner::on_ack`] with a loss-recovery hint: a silence caused
    /// by a retransmission blackout is neither a burst boundary nor a
    /// compute-phase sample, so it must not contaminate the learned
    /// `total_bytes` / `comp_time_threshold` (the burst keeps
    /// accumulating across the outage).
    pub fn on_ack_hinted(
        &mut self,
        now: Nanos,
        acked_bytes: u64,
        loss_recovery_gap: bool,
    ) -> Option<TrackerConfig> {
        if self.locked.is_some() {
            self.prev_ack_tstamp = Some(now);
            return None;
        }
        if let Some(prev) = self.prev_ack_tstamp {
            let gap = now.saturating_sub(prev);
            if gap > self.min_gap && !loss_recovery_gap {
                // Burst ended at `prev`; record it and the silence.
                if self.current_burst_bytes > 0 {
                    self.burst_sizes.push(self.current_burst_bytes);
                    self.gaps.push(gap);
                }
                self.current_burst_bytes = 0;
            }
        }
        self.current_burst_bytes = self.current_burst_bytes.saturating_add(acked_bytes);
        self.prev_ack_tstamp = Some(now);

        if self.burst_sizes.len() >= self.warmup_iterations {
            let cfg = TrackerConfig {
                total_bytes: median_u64(&self.burst_sizes),
                comp_time_threshold: (median_u64(&self.gaps) / 2).max(self.min_gap),
                min_bytes_for_reset: 0,
            };
            self.locked = Some(cfg);
            return Some(cfg);
        }
        None
    }

    /// The learned configuration, if warmup has completed.
    pub fn learned(&self) -> Option<TrackerConfig> {
        self.locked
    }
}

fn median_u64(xs: &[u64]) -> u64 {
    debug_assert!(!xs.is_empty());
    let mut v = xs.to_vec();
    v.sort_unstable();
    v[v.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Nanos = 1_000_000;

    #[test]
    fn ratio_accumulates_within_an_iteration() {
        let mut t = IterationTracker::new(TrackerConfig::oracle(10_000, 50 * MS));
        assert_eq!(t.on_ack(0, 2_500), 0.25);
        assert_eq!(t.on_ack(MS, 2_500), 0.5);
        assert_eq!(t.on_ack(2 * MS, 5_000), 1.0);
        assert_eq!(t.iterations_seen(), 0);
    }

    #[test]
    fn ratio_is_capped_at_one() {
        let mut t = IterationTracker::new(TrackerConfig::oracle(1_000, 50 * MS));
        assert_eq!(t.on_ack(0, 5_000), 1.0);
    }

    #[test]
    fn gap_beyond_comp_time_resets_state() {
        let mut t = IterationTracker::new(TrackerConfig::oracle(10_000, 50 * MS));
        t.on_ack(0, 10_000);
        assert_eq!(t.bytes_ratio(), 1.0);
        // 60 ms silence > 50 ms threshold: new iteration; the triggering
        // ack's bytes count toward the NEW iteration.
        let r = t.on_ack(60 * MS, 1_000);
        assert_eq!(r, 0.1);
        assert_eq!(t.iterations_seen(), 1);
    }

    #[test]
    fn gap_equal_to_threshold_does_not_reset() {
        // Algorithm 1 line 10 uses strict `>`.
        let mut t = IterationTracker::new(TrackerConfig::oracle(10_000, 50 * MS));
        t.on_ack(0, 5_000);
        let r = t.on_ack(50 * MS, 1_000);
        assert_eq!(r, 0.6);
        assert_eq!(t.iterations_seen(), 0);
    }

    #[test]
    fn first_ack_never_counts_as_boundary() {
        let mut t = IterationTracker::new(TrackerConfig::oracle(10_000, 50 * MS));
        let r = t.on_ack(1_000_000 * MS, 1_000);
        assert_eq!(r, 0.1);
        assert_eq!(t.iterations_seen(), 0);
    }

    #[test]
    fn zero_total_bytes_is_inert() {
        let mut t = IterationTracker::new(TrackerConfig::oracle(0, 50 * MS));
        assert_eq!(t.on_ack(0, 1_000), 0.0);
    }

    #[test]
    fn reconfigure_rescales_ratio() {
        let mut t = IterationTracker::new(TrackerConfig::oracle(10_000, 50 * MS));
        t.on_ack(0, 5_000);
        assert_eq!(t.bytes_ratio(), 0.5);
        t.reconfigure(TrackerConfig::oracle(20_000, 50 * MS));
        assert_eq!(t.bytes_ratio(), 0.25);
    }

    #[test]
    fn multiburst_gate_suppresses_mid_iteration_resets() {
        // 2-burst iteration: gaps between sub-bursts must NOT reset until
        // the iteration's bytes are through.
        let mut t = IterationTracker::new(TrackerConfig::oracle_multiburst(10_000, 50 * MS, 0.9));
        t.on_ack(0, 5_000); // burst 1
        assert_eq!(t.bytes_ratio(), 0.5);
        // 100 ms silence, but only half the bytes sent: no reset.
        let r = t.on_ack(100 * MS, 1_000);
        assert_eq!(r, 0.6);
        assert_eq!(t.iterations_seen(), 0);
        t.on_ack(101 * MS, 4_000); // burst 2 completes the iteration
        assert_eq!(t.bytes_ratio(), 1.0);
        // Now a long silence does reset.
        let r = t.on_ack(300 * MS, 1_000);
        assert_eq!(r, 0.1);
        assert_eq!(t.iterations_seen(), 1);
    }

    /// Regression: a retransmission-storm ack gap (an RTO blackout longer
    /// than `COMP_TIME`) must not reset `bytes_sent` mid-iteration when
    /// the transport flags it as loss recovery.
    #[test]
    fn loss_recovery_gap_does_not_reset_mid_iteration() {
        let cfg = TrackerConfig::oracle(10_000, 50 * MS);
        let mut hinted = IterationTracker::new(cfg);
        hinted.on_ack(0, 4_000);
        assert_eq!(hinted.bytes_ratio(), 0.4);
        // A 400 ms blackout (8× the threshold), then the first good ack
        // after recovery arrives flagged: the iteration continues.
        let r = hinted.on_ack_hinted(400 * MS, 2_000, true);
        assert_eq!(r, 0.6);
        assert_eq!(hinted.bytes_sent(), 6_000);
        assert_eq!(hinted.iterations_seen(), 0);
        // The same gap WITHOUT the hint is (mis)read as a boundary —
        // exactly the spurious reset the hint guards against.
        let mut unhinted = IterationTracker::new(cfg);
        unhinted.on_ack(0, 4_000);
        let r = unhinted.on_ack(400 * MS, 2_000);
        assert_eq!(r, 0.2);
        assert_eq!(unhinted.iterations_seen(), 1);
        // A genuine compute gap after recovery still resets the hinted
        // tracker normally.
        hinted.on_ack(401 * MS, 4_000);
        assert_eq!(hinted.bytes_ratio(), 1.0);
        let r = hinted.on_ack(600 * MS, 1_000);
        assert_eq!(r, 0.1);
        assert_eq!(hinted.iterations_seen(), 1);
    }

    /// The auto-tuner must not record a blackout silence as a compute
    /// gap, nor split the interrupted burst in two.
    #[test]
    fn autotuner_ignores_loss_recovery_gaps() {
        let run = |blackout: bool| {
            let mut at = AutoTuner::new(2 * MS, 3);
            let mut learned = None;
            let mut now = 0;
            for burst in 0..4 {
                for i in 0..10 {
                    if burst == 1 && i == 5 && blackout {
                        // 30 ms RTO silence mid-burst; the next ack is
                        // flagged as loss recovery.
                        now += 30 * MS;
                        if let Some(cfg) = at.on_ack_hinted(now, 1500, true) {
                            learned = Some(cfg);
                        }
                    } else if let Some(cfg) = at.on_ack(now, 1500) {
                        learned = Some(cfg);
                    }
                    now += 100_000;
                }
                now += 100 * MS;
            }
            learned.expect("locks after 3 complete bursts")
        };
        let clean = run(false);
        let faulted = run(true);
        // Same burst size learned; the blackout neither halves a burst
        // nor injects a 30 ms "compute gap" sample.
        assert_eq!(faulted.total_bytes, clean.total_bytes);
        assert!(faulted.comp_time_threshold > 40 * MS);
    }

    #[test]
    fn zero_gate_matches_algorithm_1() {
        let mut a = IterationTracker::new(TrackerConfig::oracle(10_000, 50 * MS));
        let mut b = IterationTracker::new(TrackerConfig {
            min_bytes_for_reset: 0,
            ..TrackerConfig::oracle(10_000, 50 * MS)
        });
        let acks = [
            (0u64, 2000u64),
            (60 * MS, 3000),
            (61 * MS, 1000),
            (200 * MS, 500),
        ];
        for (ts, by) in acks {
            assert_eq!(a.on_ack(ts, by), b.on_ack(ts, by));
        }
    }

    #[test]
    fn autotuner_learns_burst_size_and_gap() {
        let mut at = AutoTuner::new(2 * MS, 3);
        let mut learned = None;
        let mut now = 0;
        // Four bursts of 10 acks × 1500 B spaced 0.1 ms, separated by 100 ms.
        for _burst in 0..4 {
            for _ in 0..10 {
                if let Some(cfg) = at.on_ack(now, 1500) {
                    learned = Some(cfg);
                }
                now += 100_000;
            }
            now += 100 * MS;
        }
        let cfg = learned.expect("should lock after 3 complete bursts");
        assert_eq!(cfg.total_bytes, 15_000);
        // Gap observed ≈ 100 ms + 0.1 ms; threshold = half of that.
        assert!(cfg.comp_time_threshold > 40 * MS && cfg.comp_time_threshold < 60 * MS);
    }

    #[test]
    fn autotuner_locks_exactly_once() {
        let mut at = AutoTuner::new(MS, 1);
        let mut locks = 0;
        let mut now = 0;
        for _ in 0..3 {
            for _ in 0..5 {
                if at.on_ack(now, 1000).is_some() {
                    locks += 1;
                }
                now += 1000;
            }
            now += 10 * MS;
        }
        assert_eq!(locks, 1);
        assert!(at.learned().is_some());
    }

    #[test]
    fn autotuner_median_is_robust_to_short_first_burst() {
        let mut at = AutoTuner::new(MS, 3);
        let mut now = 0;
        let mut learned = None;
        let bursts = [2u64, 10, 10, 10]; // first burst truncated
        for n in bursts {
            for _ in 0..n {
                if let Some(cfg) = at.on_ack(now, 1500) {
                    learned = Some(cfg);
                }
                now += 1000;
            }
            now += 10 * MS;
        }
        assert_eq!(learned.unwrap().total_bytes, 15_000);
    }
}
