//! DCTCP (Alizadeh et al., SIGCOMM '10), simplified to per-ack ECN echo.
//!
//! The receiver echoes each segment's CE mark on its ack; the sender
//! maintains `α`, an EWMA of the marked fraction per window, and on each
//! window with marks reduces `cwnd ← cwnd·(1 − α/2)`. Additive increase
//! matches Reno's, which is the term MLTCP-DCTCP scales. Requires
//! ECN-marking queues ([`mltcp_netsim::queue::QueueKind::EcnDropTail`]).

use super::{AckEvent, CongestionControl, Window};
use mltcp_netsim::time::SimTime;

/// EWMA gain for the marked fraction (DCTCP paper: g = 1/16).
const G: f64 = 1.0 / 16.0;

/// DCTCP congestion control.
#[derive(Debug, Clone)]
pub struct Dctcp {
    /// EWMA of the fraction of marked bytes per observation window.
    alpha: f64,
    /// Bytes acked in the current observation window.
    acked_bytes: u64,
    /// Marked bytes acked in the current observation window.
    marked_bytes: u64,
    /// End of the current observation window (bytes of `snd_una` growth).
    window_bytes: u64,
    /// Whether we already cut within this observation window.
    cut_this_window: bool,
}

impl Dctcp {
    /// A fresh DCTCP instance; `alpha` starts at 1 (conservative, per the
    /// paper's deployment guidance).
    pub fn new() -> Self {
        Self {
            alpha: 1.0,
            acked_bytes: 0,
            marked_bytes: 0,
            window_bytes: 0,
            cut_this_window: false,
        }
    }

    /// The current marked-fraction estimate `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Default for Dctcp {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Dctcp {
    fn on_ack(&mut self, ev: &AckEvent, w: &mut Window) {
        self.acked_bytes += ev.newly_acked_bytes;
        if ev.ecn_echo {
            self.marked_bytes += ev.newly_acked_bytes;
        }
        // One observation window ≈ one cwnd of bytes.
        if self.window_bytes == 0 {
            self.window_bytes = ((w.cwnd.max(1.0)) * 1500.0) as u64;
        }
        if self.acked_bytes >= self.window_bytes {
            let frac = self.marked_bytes as f64 / self.acked_bytes as f64;
            self.alpha = (1.0 - G) * self.alpha + G * frac;
            if self.marked_bytes > 0 {
                // DCTCP's gentle multiplicative decrease.
                w.ssthresh = (w.cwnd * (1.0 - self.alpha / 2.0)).max(Window::MIN_CWND);
                w.cwnd = w.ssthresh;
            }
            self.acked_bytes = 0;
            self.marked_bytes = 0;
            self.window_bytes = ((w.cwnd.max(1.0)) * 1500.0) as u64;
            self.cut_this_window = false;
        }
        if ev.in_recovery {
            return;
        }
        if w.in_slow_start() {
            if ev.ecn_echo {
                // Leave slow start on the first mark.
                w.ssthresh = w.cwnd;
            } else {
                w.cwnd = (w.cwnd + ev.newly_acked_packets).min(w.ssthresh.max(w.cwnd));
            }
        } else if !ev.ecn_echo {
            // Reno-style additive increase between marks (the MLTCP-scaled
            // term).
            w.cwnd += ev.newly_acked_packets / w.cwnd;
        }
    }

    fn on_loss(&mut self, _now: SimTime, w: &mut Window) {
        // Real packet loss still halves, as in the DCTCP paper.
        w.ssthresh = (w.cwnd / 2.0).max(Window::MIN_CWND);
        w.cwnd = w.ssthresh;
        w.clamp_min();
    }

    fn on_timeout(&mut self, _now: SimTime, w: &mut Window) {
        w.ssthresh = (w.cwnd / 2.0).max(Window::MIN_CWND);
        w.cwnd = Window::MIN_CWND;
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(pkts: f64, ecn: bool) -> AckEvent {
        AckEvent {
            now: SimTime::ZERO,
            newly_acked_bytes: (pkts * 1500.0) as u64,
            newly_acked_packets: pkts,
            ecn_echo: ecn,
            in_recovery: false,
            after_timeout: false,
        }
    }

    #[test]
    fn unmarked_traffic_decays_alpha_and_grows_like_reno() {
        let mut d = Dctcp::new();
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        for _ in 0..5000 {
            d.on_ack(&ack(1.0, false), &mut w);
        }
        assert!(d.alpha() < 0.1, "alpha={} should decay", d.alpha());
        assert!(w.cwnd > 10.0);
    }

    #[test]
    fn fully_marked_traffic_halves_per_window() {
        let mut d = Dctcp::new();
        let mut w = Window::initial(100.0);
        w.ssthresh = 50.0;
        w.cwnd = 100.0;
        let before = w.cwnd;
        // Push a full window of marked acks.
        for _ in 0..200 {
            d.on_ack(&ack(1.0, true), &mut w);
        }
        // α stays ≈ 1, each window cut ≈ ×(1 − 1/2).
        assert!(w.cwnd < before / 2.0 + 5.0, "cwnd={}", w.cwnd);
        assert!(d.alpha() > 0.9);
    }

    #[test]
    fn partial_marking_gives_gentle_cut() {
        let mut d = Dctcp::new();
        // Decay alpha first with clean traffic.
        let mut w = Window::initial(100.0);
        w.ssthresh = 50.0;
        w.cwnd = 100.0;
        for _ in 0..10_000 {
            d.on_ack(&ack(1.0, false), &mut w);
        }
        let alpha_low = d.alpha();
        assert!(alpha_low < 0.05, "alpha={alpha_low}");
        let before = w.cwnd;
        // 10% marks for one window.
        for i in 0..(before as usize) {
            d.on_ack(&ack(1.0, i % 10 == 0), &mut w);
        }
        // Cut should be much gentler than halving.
        assert!(w.cwnd > before * 0.8, "cwnd={} before={}", w.cwnd, before);
    }

    #[test]
    fn mark_in_slow_start_exits_slow_start() {
        let mut d = Dctcp::new();
        let mut w = Window::initial(10.0);
        assert!(w.in_slow_start());
        d.on_ack(&ack(1.0, true), &mut w);
        assert!(!w.in_slow_start());
    }

    #[test]
    fn loss_and_timeout_behave_like_reno() {
        let mut d = Dctcp::new();
        let mut w = Window::initial(40.0);
        d.on_loss(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, 20.0);
        d.on_timeout(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, Window::MIN_CWND);
    }
}
