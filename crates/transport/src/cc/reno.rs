//! TCP Reno — the classic AIMD algorithm the paper augments.
//!
//! Slow start doubles the window per RTT (`cwnd += 1` per acked packet);
//! congestion avoidance adds `#num_acks / cwnd` per cumulative ack —
//! exactly the term paper Eq. 1 scales by `F(bytes_ratio)`. Fast
//! retransmit halves the window; a timeout collapses it to one packet.

use super::{AckEvent, CongestionControl, Window};
use mltcp_netsim::time::SimTime;

/// Reno congestion control.
#[derive(Debug, Clone, Default)]
pub struct Reno {
    _private: (),
}

impl Reno {
    /// A fresh Reno instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CongestionControl for Reno {
    fn on_ack(&mut self, ev: &AckEvent, w: &mut Window) {
        if ev.in_recovery {
            return;
        }
        if w.in_slow_start() {
            // Exponential growth, capped at ssthresh.
            w.cwnd = (w.cwnd + ev.newly_acked_packets).min(w.ssthresh.max(w.cwnd));
        } else {
            // Additive increase: cwnd += num_acks / cwnd (Eq. 1 with F ≡ 1).
            w.cwnd += ev.newly_acked_packets / w.cwnd;
        }
    }

    fn on_loss(&mut self, _now: SimTime, w: &mut Window) {
        w.ssthresh = (w.cwnd / 2.0).max(Window::MIN_CWND);
        w.cwnd = w.ssthresh;
        w.clamp_min();
    }

    fn on_timeout(&mut self, _now: SimTime, w: &mut Window) {
        w.ssthresh = (w.cwnd / 2.0).max(Window::MIN_CWND);
        w.cwnd = Window::MIN_CWND;
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(pkts: f64) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO,
            newly_acked_bytes: (pkts * 1500.0) as u64,
            newly_acked_packets: pkts,
            ecn_echo: false,
            in_recovery: false,
            after_timeout: false,
        }
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = Reno::new();
        let mut w = Window::initial(10.0);
        // One RTT's worth of acks: 10 packets acked → cwnd 20.
        r.on_ack(&ack(10.0), &mut w);
        assert_eq!(w.cwnd, 20.0);
    }

    #[test]
    fn slow_start_caps_at_ssthresh() {
        let mut r = Reno::new();
        let mut w = Window::initial(10.0);
        w.ssthresh = 12.0;
        r.on_ack(&ack(10.0), &mut w);
        assert_eq!(w.cwnd, 12.0);
    }

    #[test]
    fn congestion_avoidance_is_one_packet_per_rtt() {
        let mut r = Reno::new();
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0; // force CA
        let before = w.cwnd;
        // cwnd worth of acks → +1 packet total.
        for _ in 0..10 {
            r.on_ack(&ack(1.0), &mut w);
        }
        assert!((w.cwnd - before - 1.0).abs() < 0.05, "cwnd={}", w.cwnd);
    }

    #[test]
    fn loss_halves_window() {
        let mut r = Reno::new();
        let mut w = Window::initial(32.0);
        w.ssthresh = 5.0;
        w.cwnd = 32.0;
        r.on_loss(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, 16.0);
        assert_eq!(w.ssthresh, 16.0);
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut r = Reno::new();
        let mut w = Window::initial(32.0);
        r.on_timeout(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, Window::MIN_CWND);
        assert_eq!(w.ssthresh, 16.0);
        assert!(w.in_slow_start());
    }

    #[test]
    fn loss_never_goes_below_min() {
        let mut r = Reno::new();
        let mut w = Window::initial(1.0);
        r.on_loss(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, Window::MIN_CWND);
    }

    #[test]
    fn recovery_freezes_growth() {
        let mut r = Reno::new();
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        let mut ev = ack(1.0);
        ev.in_recovery = true;
        let before = w.cwnd;
        r.on_ack(&ev, &mut w);
        assert_eq!(w.cwnd, before);
    }
}
