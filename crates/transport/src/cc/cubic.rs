//! CUBIC congestion control (RFC 9438, simplified).
//!
//! The paper notes (§6) that "other congestion control schemes are
//! augmented in a similar way" to Reno; we provide CUBIC so the
//! repository can demonstrate MLTCP-CUBIC as an ablation. The window
//! grows along `W(t) = C·(t − K)³ + W_max` between loss events, with the
//! usual TCP-friendly (Reno-tracking) lower bound.
//!
//! Because that growth chases a time-driven *target* (scaling one ack's
//! increment is undone by the next ack's larger `target − cwnd` gap),
//! the MLTCP augmentation is consumed natively here: the per-ack gain
//! `F(bytes_ratio)` scales the constant `C` and the TCP-friendly
//! increment, making the whole curve steeper or shallower. See
//! [`CongestionControl::set_gain`].

use super::{AckEvent, CongestionControl, Window};
use mltcp_netsim::time::SimTime;

/// The CUBIC scaling constant (RFC 9438 recommends 0.4).
const C: f64 = 0.4;
/// Multiplicative decrease factor (RFC 9438: 0.7).
const BETA: f64 = 0.7;

/// CUBIC congestion control.
#[derive(Debug, Clone)]
pub struct Cubic {
    w_max: f64,
    epoch_start: Option<SimTime>,
    k: f64,
    /// Reno-emulation window for the TCP-friendly region.
    w_est: f64,
    /// MLTCP aggressiveness gain (1.0 = plain CUBIC). Because CUBIC
    /// chases a time-driven target, the gain is folded into the scaling
    /// constant `C` (steeper/shallower cubic) and the TCP-friendly
    /// Reno-emulation increment, not into individual ack increments —
    /// see [`CongestionControl::set_gain`].
    gain: f64,
}

impl Cubic {
    /// A fresh CUBIC instance.
    pub fn new() -> Self {
        Self {
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            w_est: 0.0,
            gain: 1.0,
        }
    }

    /// The effective cubic scaling constant under the current gain.
    fn c(&self) -> f64 {
        C * self.gain
    }

    fn begin_epoch(&mut self, now: SimTime, w: &Window) {
        self.epoch_start = Some(now);
        if w.cwnd < self.w_max {
            self.k = ((self.w_max - w.cwnd) / self.c()).cbrt();
        } else {
            self.k = 0.0;
            self.w_max = w.cwnd;
        }
        self.w_est = w.cwnd;
    }
}

impl Default for Cubic {
    fn default() -> Self {
        Self::new()
    }
}

impl CongestionControl for Cubic {
    fn on_ack(&mut self, ev: &AckEvent, w: &mut Window) {
        if ev.in_recovery {
            return;
        }
        if w.in_slow_start() {
            w.cwnd = (w.cwnd + ev.newly_acked_packets).min(w.ssthresh.max(w.cwnd));
            return;
        }
        if self.epoch_start.is_none() {
            self.begin_epoch(ev.now, w);
        }
        let t = (ev.now - self.epoch_start.expect("epoch set above")).as_secs_f64();
        let target = self.c() * (t - self.k).powi(3) + self.w_max;
        // TCP-friendly region: emulate Reno's 1 packet/RTT growth (gain-
        // scaled, matching the generic Eq. 1 augmentation of Reno).
        self.w_est += self.gain * ev.newly_acked_packets / w.cwnd;
        let target = target.max(self.w_est);
        if target > w.cwnd {
            // Linux-style: approach the target over roughly one RTT.
            w.cwnd += (target - w.cwnd) / w.cwnd * ev.newly_acked_packets;
        } else {
            // Minimal growth to stay responsive.
            w.cwnd += 0.01 * ev.newly_acked_packets / w.cwnd;
        }
    }

    fn on_loss(&mut self, _now: SimTime, w: &mut Window) {
        self.w_max = w.cwnd;
        w.ssthresh = (w.cwnd * BETA).max(Window::MIN_CWND);
        w.cwnd = w.ssthresh;
        w.clamp_min();
        self.epoch_start = None;
    }

    fn on_timeout(&mut self, _now: SimTime, w: &mut Window) {
        self.w_max = w.cwnd;
        w.ssthresh = (w.cwnd * BETA).max(Window::MIN_CWND);
        w.cwnd = Window::MIN_CWND;
        self.epoch_start = None;
    }

    fn set_gain(&mut self, gain: f64) -> bool {
        self.gain = gain;
        true
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mltcp_netsim::time::SimDuration;

    fn ack_at(now: SimTime, pkts: f64) -> AckEvent {
        AckEvent {
            now,
            newly_acked_bytes: (pkts * 1500.0) as u64,
            newly_acked_packets: pkts,
            ecn_echo: false,
            in_recovery: false,
            after_timeout: false,
        }
    }

    #[test]
    fn slow_start_like_reno() {
        let mut c = Cubic::new();
        let mut w = Window::initial(10.0);
        c.on_ack(&ack_at(SimTime::ZERO, 10.0), &mut w);
        assert_eq!(w.cwnd, 20.0);
    }

    #[test]
    fn concave_recovery_toward_wmax() {
        let mut c = Cubic::new();
        let mut w = Window::initial(100.0);
        w.ssthresh = 100.0;
        w.cwnd = 100.0;
        c.on_loss(SimTime::ZERO, &mut w);
        let after_loss = w.cwnd;
        assert!((after_loss - 70.0).abs() < 1e-9);
        // Feed acks over simulated time; the window should climb back
        // toward w_max = 100 but not wildly past it quickly.
        let mut now = SimTime::ZERO;
        for _ in 0..2000 {
            now += SimDuration::millis(1);
            c.on_ack(&ack_at(now, 1.0), &mut w);
        }
        assert!(w.cwnd > after_loss);
        assert!(w.cwnd > 95.0, "cwnd={} should approach w_max", w.cwnd);
    }

    #[test]
    fn growth_accelerates_past_wmax() {
        let mut c = Cubic::new();
        let mut w = Window::initial(50.0);
        w.ssthresh = 50.0;
        w.cwnd = 50.0;
        c.on_loss(SimTime::ZERO, &mut w);
        // Long time: convex region should push well past the old w_max.
        let mut now = SimTime::ZERO;
        for _ in 0..20_000 {
            now += SimDuration::millis(1);
            c.on_ack(&ack_at(now, 1.0), &mut w);
        }
        assert!(w.cwnd > 60.0, "cwnd={}", w.cwnd);
    }

    #[test]
    fn timeout_collapses() {
        let mut c = Cubic::new();
        let mut w = Window::initial(64.0);
        c.on_timeout(SimTime::ZERO, &mut w);
        assert_eq!(w.cwnd, Window::MIN_CWND);
        assert!(w.in_slow_start());
    }

    #[test]
    fn recovery_freezes_growth() {
        let mut c = Cubic::new();
        let mut w = Window::initial(10.0);
        w.ssthresh = 5.0;
        let mut ev = ack_at(SimTime::ZERO, 1.0);
        ev.in_recovery = true;
        let before = w.cwnd;
        c.on_ack(&ev, &mut w);
        assert_eq!(w.cwnd, before);
    }
}
