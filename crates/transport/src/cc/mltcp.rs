//! The MLTCP augmentation (paper §3, Algorithm 1).
//!
//! [`Mltcp`] wraps *any* base [`CongestionControl`] and scales its
//! congestion-avoidance window increase by the bandwidth aggressiveness
//! function `F(bytes_ratio)`:
//!
//! ```text
//! cwnd ← cwnd + F(bytes_ratio) · Δ_base          (paper Eq. 1, generalized)
//! ```
//!
//! where `Δ_base` is whatever increment the base algorithm would have
//! applied on this ack (`#num_acks / cwnd` for Reno, the between-marks
//! additive increase for DCTCP) and `bytes_ratio` is the fraction of the
//! current training iteration's bytes already delivered, maintained by
//! [`mltcp_core::tracker::IterationTracker`] exactly as Algorithm 1
//! prescribes (ack-gap iteration-boundary detection and all).
//!
//! Target-tracking bases opt out of the post-hoc increment scaling via
//! [`CongestionControl::set_gain`] and fold `F(bytes_ratio)` into their
//! own growth rate instead — CUBIC scales its curve constant `C`, since
//! scaling one ack's increment would just be undone by the next ack's
//! larger target gap.
//!
//! Decrease steps (loss, timeout) are untouched: MLTCP only modulates
//! aggressiveness during window growth, which is what creates the unequal
//! bandwidth sharing that slides jobs apart.
//!
//! `TOTAL_BYTES`/`COMP_TIME` can be supplied (oracle mode — the workload
//! driver knows its job profile) or learned online from the first few
//! iterations with [`mltcp_core::tracker::AutoTuner`], mirroring the
//! paper's "we automatically learn these values". While learning, the
//! flow behaves exactly like its base algorithm (`F ≡ 1`).

use super::{AckEvent, CongestionControl, Window};
use mltcp_core::aggressiveness::Aggressiveness;
use mltcp_core::tracker::{AutoTuner, IterationTracker, TrackerConfig};
use mltcp_netsim::time::{SimDuration, SimTime};

/// Configuration of the MLTCP augmentation.
#[derive(Debug, Clone)]
pub struct MltcpConfig {
    /// `TOTAL_BYTES` per training iteration, if known a priori.
    pub total_bytes: Option<u64>,
    /// `COMP_TIME` ack-gap threshold, if known a priori.
    pub comp_time: Option<SimDuration>,
    /// Minimum silence treated as a compute phase while auto-tuning
    /// (several RTTs).
    pub autotune_min_gap: SimDuration,
    /// Complete iterations to observe before locking in learned values.
    pub autotune_warmup: usize,
    /// Whether to scale slow-start growth too. The paper hooks only the
    /// congestion-avoidance step; default `false`.
    pub scale_slow_start: bool,
    /// Multi-burst gate: when `Some(frac)`, a long ack gap only counts as
    /// an iteration boundary after `frac × TOTAL_BYTES` was delivered
    /// (see [`mltcp_core::tracker::TrackerConfig::oracle_multiburst`]).
    /// `None` reproduces Algorithm 1's pure gap detection.
    pub multiburst_frac: Option<f64>,
}

impl MltcpConfig {
    /// Oracle mode: both job parameters known (the common case when the
    /// workload driver configures its own flows).
    pub fn oracle(total_bytes: u64, comp_time: SimDuration) -> Self {
        Self {
            total_bytes: Some(total_bytes),
            comp_time: Some(comp_time),
            ..Self::autotune()
        }
    }

    /// Learn `TOTAL_BYTES`/`COMP_TIME` online from the ack stream.
    pub fn autotune() -> Self {
        Self {
            total_bytes: None,
            comp_time: None,
            autotune_min_gap: SimDuration::millis(1),
            autotune_warmup: 3,
            scale_slow_start: false,
            multiburst_frac: None,
        }
    }
}

#[derive(Debug)]
enum Mode {
    Learning(AutoTuner),
    Tracking(IterationTracker),
}

/// A base congestion control algorithm augmented with MLTCP.
pub struct Mltcp<C: CongestionControl> {
    inner: C,
    f: Box<dyn Aggressiveness + Send>,
    mode: Mode,
    last_ratio: f64,
    /// The most recently applied gain (1.0 while learning or in
    /// unscaled slow start), reported via `gain_state`.
    last_gain: f64,
    scale_slow_start: bool,
}

impl<C: CongestionControl> std::fmt::Debug for Mltcp<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mltcp")
            .field("inner", &self.inner)
            .field("f", &self.f.name())
            .field("mode", &self.mode)
            .field("last_ratio", &self.last_ratio)
            .finish()
    }
}

impl<C: CongestionControl> Mltcp<C> {
    /// Wraps `inner` with aggressiveness function `f` under `config`.
    pub fn new(inner: C, f: impl Aggressiveness + Send + 'static, config: MltcpConfig) -> Self {
        let mode = match (config.total_bytes, config.comp_time) {
            (Some(tb), Some(ct)) => {
                let tc = match config.multiburst_frac {
                    Some(frac) => TrackerConfig::oracle_multiburst(tb, ct.as_nanos(), frac),
                    None => TrackerConfig::oracle(tb, ct.as_nanos()),
                };
                Mode::Tracking(IterationTracker::new(tc))
            }
            _ => Mode::Learning(AutoTuner::new(
                config.autotune_min_gap.as_nanos(),
                config.autotune_warmup,
            )),
        };
        Self {
            inner,
            f: Box::new(f),
            mode,
            last_ratio: 0.0,
            last_gain: 1.0,
            scale_slow_start: config.scale_slow_start,
        }
    }

    /// Paper defaults: linear `F = 1.75·r + 0.25`, oracle job parameters.
    pub fn paper(inner: C, total_bytes: u64, comp_time: SimDuration) -> Self {
        Self::new(
            inner,
            mltcp_core::aggressiveness::Linear::paper_default(),
            MltcpConfig::oracle(total_bytes, comp_time),
        )
    }

    /// The most recent `bytes_ratio` (for tests and instrumentation).
    pub fn bytes_ratio(&self) -> f64 {
        self.last_ratio
    }

    /// Whether the tracker has locked in job parameters (always true in
    /// oracle mode; true after warmup in autotune mode).
    pub fn is_tracking(&self) -> bool {
        matches!(self.mode, Mode::Tracking(_))
    }

    /// The wrapped base algorithm.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: CongestionControl> CongestionControl for Mltcp<C> {
    fn on_ack(&mut self, ev: &AckEvent, w: &mut Window) {
        // Algorithm 1 bookkeeping: update bytes_sent / bytes_ratio, with
        // iteration-boundary reset on long ack gaps.
        let now_ns = ev.now.as_nanos();
        // `after_timeout` marks the first good ack after an RTO blackout:
        // that silence is loss recovery, not a compute phase, so neither
        // the tracker's boundary detector nor the auto-tuner's burst
        // segmentation may treat it as an iteration gap.
        let ratio = match &mut self.mode {
            Mode::Tracking(tracker) => {
                tracker.on_ack_hinted(now_ns, ev.newly_acked_bytes, ev.after_timeout)
            }
            Mode::Learning(tuner) => {
                if let Some(cfg) =
                    tuner.on_ack_hinted(now_ns, ev.newly_acked_bytes, ev.after_timeout)
                {
                    self.mode = Mode::Tracking(IterationTracker::new(cfg));
                }
                // While learning, behave exactly like the base algorithm.
                self.last_ratio = 0.0;
                self.last_gain = 1.0;
                self.inner.on_ack(ev, w);
                return;
            }
        };
        self.last_ratio = ratio;

        let in_slow_start = w.in_slow_start();
        let gain = if in_slow_start && !self.scale_slow_start {
            1.0
        } else {
            self.f.eval(ratio)
        };
        self.last_gain = gain;
        // Target-tracking bases (CUBIC) consume the gain natively; for
        // the rest, scale the applied increment post hoc (exact Eq. 1
        // for additive algorithms like Reno and DCTCP).
        if self.inner.set_gain(gain) {
            self.inner.on_ack(ev, w);
            return;
        }
        let before = w.cwnd;
        self.inner.on_ack(ev, w);
        let delta = w.cwnd - before;
        if delta > 0.0 && gain != 1.0 {
            w.cwnd = before + gain * delta;
        }
    }

    fn on_loss(&mut self, now: SimTime, w: &mut Window) {
        self.inner.on_loss(now, w);
    }

    fn on_timeout(&mut self, now: SimTime, w: &mut Window) {
        self.inner.on_timeout(now, w);
    }

    fn on_transfer_start(&mut self, now: SimTime) {
        self.inner.on_transfer_start(now);
    }

    fn gain_state(&self) -> Option<(f64, f64)> {
        Some((self.last_gain, self.last_ratio))
    }

    fn name(&self) -> &'static str {
        // Static name for the family; experiment tables carry the base
        // algorithm's name separately when needed.
        "mltcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::reno::Reno;
    use mltcp_core::aggressiveness::{Constant, Linear};

    const MSS: f64 = 1500.0;

    fn ack_at(ns: u64, pkts: f64) -> AckEvent {
        AckEvent {
            now: SimTime(ns),
            newly_acked_bytes: (pkts * MSS) as u64,
            newly_acked_packets: pkts,
            ecn_echo: false,
            in_recovery: false,
            after_timeout: false,
        }
    }

    fn oracle(total: u64) -> MltcpConfig {
        MltcpConfig::oracle(total, SimDuration::millis(100))
    }

    #[test]
    fn matches_eq1_for_reno() {
        // In CA with bytes_ratio r, increment must be F(r) · n/cwnd.
        let total = 150_000; // 100 packets per iteration
        let mut m = Mltcp::new(Reno::new(), Linear::paper_default(), oracle(total));
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0; // CA

        // First ack: 1 packet → bytes_ratio = 1500/150000 = 0.01.
        let before = w.cwnd;
        m.on_ack(&ack_at(0, 1.0), &mut w);
        let f = 1.75 * 0.01 + 0.25;
        assert!((w.cwnd - (before + f * 1.0 / before)).abs() < 1e-12);
        assert!((m.bytes_ratio() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn gain_grows_within_iteration() {
        let total = 15_000; // 10 packets
        let mut m = Mltcp::new(Reno::new(), Linear::paper_default(), oracle(total));
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        let mut increments = vec![];
        for i in 0..10 {
            let before = w.cwnd;
            m.on_ack(&ack_at(i * 1000, 1.0), &mut w);
            increments.push((w.cwnd - before) * before); // ≈ F(r)·n
        }
        // Increments (normalized by cwnd) must be non-decreasing as the
        // flow progresses through its iteration.
        for win in increments.windows(2) {
            assert!(win[1] > win[0] - 1e-9, "{increments:?}");
        }
        assert_eq!(m.bytes_ratio(), 1.0);
    }

    #[test]
    fn iteration_gap_resets_ratio() {
        let total = 15_000;
        let mut m = Mltcp::new(Reno::new(), Linear::paper_default(), oracle(total));
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        for i in 0..10 {
            m.on_ack(&ack_at(i * 1000, 1.0), &mut w);
        }
        assert_eq!(m.bytes_ratio(), 1.0);
        // 200 ms silence > 100 ms COMP_TIME → new iteration.
        m.on_ack(&ack_at(200_000_000, 1.0), &mut w);
        assert!((m.bytes_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rto_blackout_gap_does_not_reset_ratio() {
        let total = 15_000;
        let mut m = Mltcp::new(Reno::new(), Linear::paper_default(), oracle(total));
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        for i in 0..5 {
            m.on_ack(&ack_at(i * 1000, 1.0), &mut w);
        }
        assert!((m.bytes_ratio() - 0.5).abs() < 1e-12);
        // A 300 ms RTO blackout (3× COMP_TIME); the first good ack after
        // it carries the recovery flag and must NOT look like a boundary.
        let mut ev = ack_at(300_000_000, 1.0);
        ev.after_timeout = true;
        m.on_ack(&ev, &mut w);
        assert!((m.bytes_ratio() - 0.6).abs() < 1e-12, "{}", m.bytes_ratio());
        // The same gap unflagged resets — the iteration-boundary detector
        // still works for genuine compute phases.
        m.on_ack(&ack_at(600_000_000, 1.0), &mut w);
        assert!((m.bytes_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn constant_one_equals_plain_base() {
        let mut plain = Reno::new();
        let mut m = Mltcp::new(Reno::new(), Constant(1.0), oracle(150_000));
        let mut w1 = Window::initial(10.0);
        let mut w2 = Window::initial(10.0);
        w1.ssthresh = 5.0;
        w2.ssthresh = 5.0;
        for i in 0..50 {
            plain.on_ack(&ack_at(i * 1000, 1.0), &mut w1);
            m.on_ack(&ack_at(i * 1000, 1.0), &mut w2);
        }
        assert!((w1.cwnd - w2.cwnd).abs() < 1e-9);
    }

    #[test]
    fn slow_start_is_not_scaled_by_default() {
        let mut m = Mltcp::new(Reno::new(), Linear::paper_default(), oracle(150_000));
        let mut w = Window::initial(10.0); // ssthresh ∞ → slow start
        m.on_ack(&ack_at(0, 10.0), &mut w);
        assert_eq!(w.cwnd, 20.0); // pure doubling, no F scaling
    }

    #[test]
    fn decrease_steps_are_untouched() {
        let mut m = Mltcp::new(Reno::new(), Linear::paper_default(), oracle(150_000));
        let mut w = Window::initial(32.0);
        w.ssthresh = 16.0;
        w.cwnd = 32.0;
        m.on_loss(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, 16.0);
        m.on_timeout(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, Window::MIN_CWND);
    }

    #[test]
    fn autotune_locks_then_scales() {
        let mut m = Mltcp::new(
            Reno::new(),
            Linear::paper_default(),
            MltcpConfig::autotune(),
        );
        assert!(!m.is_tracking());
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        let mut now = 0u64;
        // Four bursts of 20 MTU-acks, 100 ms apart.
        for _burst in 0..4 {
            for _ in 0..20 {
                m.on_ack(&ack_at(now, 1.0), &mut w);
                now += 10_000;
            }
            now += 100_000_000;
        }
        assert!(m.is_tracking(), "autotuner should have locked");
        // Now the ratio advances within a burst.
        for _ in 0..10 {
            m.on_ack(&ack_at(now, 1.0), &mut w);
            now += 10_000;
        }
        assert!(m.bytes_ratio() > 0.2, "ratio={}", m.bytes_ratio());
    }

    #[test]
    fn cubic_gain_is_consumed_natively() {
        use crate::cc::cubic::Cubic;
        // With F ≡ 1, MLTCP-CUBIC must equal plain CUBIC bit-for-bit.
        let mut plain = Cubic::new();
        let mut m = Mltcp::new(Cubic::new(), Constant(1.0), oracle(150_000));
        let mut w1 = Window::initial(10.0);
        let mut w2 = Window::initial(10.0);
        w1.ssthresh = 5.0;
        w2.ssthresh = 5.0;
        for i in 0..200 {
            plain.on_ack(&ack_at(i * 100_000, 1.0), &mut w1);
            m.on_ack(&ack_at(i * 100_000, 1.0), &mut w2);
        }
        assert_eq!(w1.cwnd, w2.cwnd);
    }

    #[test]
    fn cubic_higher_gain_grows_faster() {
        use crate::cc::cubic::Cubic;
        // A constant F > 1 must make CUBIC's convex growth strictly
        // faster than F < 1 over the same ack stream — the property the
        // generic increment scaling could NOT deliver for a
        // target-tracking algorithm.
        let run = |f: f64| {
            let mut m = Mltcp::new(Cubic::new(), Constant(f), oracle(150_000_000));
            let mut w = Window::initial(10.0);
            w.ssthresh = 5.0;
            for i in 0..2_000 {
                m.on_ack(&ack_at(i * 1_000_000, 1.0), &mut w);
            }
            w.cwnd
        };
        let slow = run(0.25);
        let fast = run(2.0);
        assert!(
            fast > slow * 1.2,
            "gain must modulate cubic growth: {fast} vs {slow}"
        );
    }

    #[test]
    fn two_flows_unequal_progress_unequal_gain() {
        // The paper's core mechanism: the flow closer to finishing its
        // iteration grows faster.
        let total = 150_000;
        let mk = || Mltcp::new(Reno::new(), Linear::paper_default(), oracle(total));
        let mut ahead = mk();
        let mut behind = mk();
        let mut wa = Window::initial(10.0);
        let mut wb = Window::initial(10.0);
        wa.ssthresh = 5.0;
        wb.ssthresh = 5.0;
        // "ahead" has delivered 80 packets, "behind" 10, before we compare
        // one ack's effect.
        for i in 0..80 {
            ahead.on_ack(&ack_at(i * 1000, 1.0), &mut wa);
        }
        for i in 0..10 {
            behind.on_ack(&ack_at(i * 1000, 1.0), &mut wb);
        }
        let (ca, cb) = (wa.cwnd, wb.cwnd);
        ahead.on_ack(&ack_at(100_000, 1.0), &mut wa);
        behind.on_ack(&ack_at(100_000, 1.0), &mut wb);
        let ga = (wa.cwnd - ca) * ca;
        let gb = (wb.cwnd - cb) * cb;
        assert!(
            ga > gb,
            "flow ahead in its iteration must grow faster: {ga} vs {gb}"
        );
    }
}
