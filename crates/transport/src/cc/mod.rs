//! Pluggable congestion control, shaped after Linux's
//! `tcp_congestion_ops`.
//!
//! The sender drives one [`CongestionControl`] implementation through
//! three hooks: [`CongestionControl::on_ack`] for every cumulative ack
//! that advances `snd_una`, [`CongestionControl::on_loss`] when fast
//! retransmit infers a loss (triple duplicate ack), and
//! [`CongestionControl::on_timeout`] when the RTO fires. The algorithm
//! mutates the shared [`Window`] (cwnd/ssthresh, in packets, fractional —
//! the Linux `snd_cwnd` + `snd_cwnd_cnt` pair collapsed into one `f64`,
//! which is exactly the form of paper Eq. 1).

pub mod cubic;
pub mod dctcp;
pub mod mltcp;
pub mod reno;

pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use mltcp::{Mltcp, MltcpConfig};
pub use reno::Reno;

use mltcp_netsim::time::SimTime;

/// The congestion window and slow-start threshold, in packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Congestion window in packets (fractional; the sender floors it
    /// when deciding how many segments may be in flight).
    pub cwnd: f64,
    /// Slow-start threshold in packets.
    pub ssthresh: f64,
}

impl Window {
    /// The minimum congestion window (packets). Loss responses never go
    /// below this, so every flow keeps a non-zero share — the §5
    /// non-starvation property.
    pub const MIN_CWND: f64 = 1.0;

    /// A fresh window: `initial` packets of cwnd, "infinite" ssthresh.
    pub fn initial(initial: f64) -> Self {
        Self {
            cwnd: initial.max(Self::MIN_CWND),
            ssthresh: f64::INFINITY,
        }
    }

    /// Whether the sender is in slow start.
    pub fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }

    /// Clamps cwnd to at least [`Window::MIN_CWND`].
    pub fn clamp_min(&mut self) {
        if self.cwnd < Self::MIN_CWND {
            self.cwnd = Self::MIN_CWND;
        }
    }
}

/// One cumulative-ack observation, as seen by the congestion controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckEvent {
    /// Arrival time of the ack.
    pub now: SimTime,
    /// Bytes newly acknowledged by this ack.
    pub newly_acked_bytes: u64,
    /// Newly acknowledged packets (fractional; `newly_acked_bytes / mss`).
    /// This is `#num_acks` in paper Eq. 1.
    pub newly_acked_packets: f64,
    /// The receiver echoed a CE mark for the acked segment (DCTCP).
    pub ecn_echo: bool,
    /// The sender is currently in fast recovery (window growth is
    /// typically suppressed).
    pub in_recovery: bool,
    /// This is the first good (snd_una-advancing) ack after ≥ 1
    /// retransmission timeouts — the silence preceding it was a loss
    /// blackout, not application idleness. MLTCP's iteration tracker uses
    /// this to avoid misreading an RTO gap as an iteration boundary.
    pub after_timeout: bool,
}

/// A congestion control algorithm.
///
/// The `Any` supertrait lets harness code downcast a boxed controller to
/// read algorithm-specific instrumentation (e.g. MLTCP's `bytes_ratio`).
pub trait CongestionControl: std::fmt::Debug + Send + std::any::Any {
    /// Processes a cumulative ack that advanced `snd_una`.
    fn on_ack(&mut self, ev: &AckEvent, w: &mut Window);

    /// A loss was inferred via fast retransmit (3 duplicate acks).
    /// Standard behaviour: multiplicative decrease + enter recovery.
    fn on_loss(&mut self, now: SimTime, w: &mut Window);

    /// The retransmission timer fired: collapse to minimum window and
    /// re-enter slow start.
    fn on_timeout(&mut self, now: SimTime, w: &mut Window);

    /// A transfer (training-iteration burst) begins; algorithms that keep
    /// per-burst state (e.g. DCTCP's marked-fraction window, MLTCP's
    /// bytes counter in oracle-free mode) may reset here. Default: no-op.
    fn on_transfer_start(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Native aggressiveness hook for the MLTCP augmentation.
    ///
    /// The [`Mltcp`] wrapper calls this with `F(bytes_ratio)` before each
    /// ack. An algorithm whose growth is *target-tracking* rather than
    /// increment-accumulative (CUBIC: the window chases a time-driven
    /// target, so scaling one ack's increment is undone by the next ack)
    /// should consume the gain natively — fold it into its growth-rate
    /// constant — and return `true`; the wrapper then skips its generic
    /// post-hoc increment scaling. Default: not consumed (`false`), which
    /// selects the generic Eq. 1 scaling that is exact for additive
    /// algorithms like Reno and DCTCP.
    fn set_gain(&mut self, gain: f64) -> bool {
        let _ = gain;
        false
    }

    /// The algorithm's current `(gain, bytes_ratio)` pair, for telemetry.
    ///
    /// Plain algorithms have no gain concept and return `None` (the
    /// default); the [`Mltcp`] wrapper reports its most recently applied
    /// `F(bytes_ratio)`. The sender emits a `Gain` telemetry event
    /// whenever this value changes.
    fn gain_state(&self) -> Option<(f64, f64)> {
        None
    }

    /// Algorithm name for logs and experiment tables.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_initial_and_clamp() {
        let w = Window::initial(10.0);
        assert_eq!(w.cwnd, 10.0);
        assert!(w.in_slow_start());
        let mut w2 = Window::initial(0.1);
        assert_eq!(w2.cwnd, Window::MIN_CWND);
        w2.cwnd = 0.0;
        w2.clamp_min();
        assert_eq!(w2.cwnd, Window::MIN_CWND);
    }

    #[test]
    fn slow_start_predicate() {
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        assert!(!w.in_slow_start());
        w.cwnd = 4.0;
        assert!(w.in_slow_start());
    }
}
