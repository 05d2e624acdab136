//! Property-based tests over the transport: window invariants under
//! arbitrary event sequences, and end-to-end delivery under randomized
//! loss patterns.

use mltcp_core::aggressiveness::FnSpec;
use mltcp_netsim::link::{Bandwidth, LinkSpec};
use mltcp_netsim::packet::{FlowId, Packet};
use mltcp_netsim::sim::{Agent, AgentCtx, AgentId, Simulator};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_netsim::topology::TopologyBuilder;
use mltcp_transport::cc::{
    AckEvent, CongestionControl, Cubic, Dctcp, Mltcp, MltcpConfig, Reno, Window,
};
use mltcp_transport::proto::{self, Msg};
use mltcp_transport::sender::SenderConfig;
use mltcp_transport::{install_connection, TcpSender};
use proptest::prelude::*;

/// One synthetic CC event.
#[derive(Debug, Clone)]
enum Ev {
    Ack { pkts: f64, ecn: bool, rec: bool },
    Loss,
    Timeout,
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        6 => (0.1f64..4.0, any::<bool>(), any::<bool>())
            .prop_map(|(pkts, ecn, rec)| Ev::Ack { pkts, ecn, rec }),
        1 => Just(Ev::Loss),
        1 => Just(Ev::Timeout),
    ]
}

fn drive(cc: &mut dyn CongestionControl, evs: &[Ev]) -> bool {
    let mut w = Window::initial(10.0);
    let mut now = SimTime::ZERO;
    for e in evs {
        now += SimDuration::micros(100);
        match e {
            Ev::Ack { pkts, ecn, rec } => {
                cc.on_ack(
                    &AckEvent {
                        now,
                        newly_acked_bytes: (*pkts * 1500.0) as u64,
                        newly_acked_packets: *pkts,
                        ecn_echo: *ecn,
                        in_recovery: *rec,
                        after_timeout: false,
                    },
                    &mut w,
                );
            }
            Ev::Loss => cc.on_loss(now, &mut w),
            Ev::Timeout => cc.on_timeout(now, &mut w),
        }
        w.clamp_min();
        if !(w.cwnd.is_finite() && w.cwnd >= Window::MIN_CWND && w.ssthresh >= Window::MIN_CWND) {
            return false;
        }
    }
    true
}

proptest! {
    /// Every congestion controller keeps cwnd finite and ≥ 1 packet
    /// under arbitrary ack/loss/timeout sequences — the §5 non-starvation
    /// floor.
    #[test]
    fn windows_stay_finite_and_floored(evs in proptest::collection::vec(ev_strategy(), 1..300)) {
        prop_assert!(drive(&mut Reno::new(), &evs));
        prop_assert!(drive(&mut Cubic::new(), &evs));
        prop_assert!(drive(&mut Dctcp::new(), &evs));
        let mut m = Mltcp::new(
            Reno::new(),
            FnSpec::Paper,
            MltcpConfig::oracle(1_000_000, SimDuration::millis(1)),
        );
        prop_assert!(drive(&mut m, &evs));
    }

    /// MLTCP's window never grows more than `F_max`× faster than the
    /// base algorithm under the same ack stream (and never shrinks
    /// slower): the augmentation scales increments, nothing else.
    #[test]
    fn mltcp_growth_bounded_by_fmax(acks in proptest::collection::vec(0.1f64..2.0, 1..200)) {
        let mut base = Reno::new();
        let mut aug = Mltcp::new(
            Reno::new(),
            FnSpec::Paper,
            MltcpConfig::oracle(u64::MAX / 2, SimDuration::millis(1)),
        );
        let mut wb = Window::initial(10.0);
        let mut wa = Window::initial(10.0);
        wb.ssthresh = 5.0; // force congestion avoidance for both
        wa.ssthresh = 5.0;
        let mut now = SimTime::ZERO;
        for pkts in acks {
            now += SimDuration::micros(100);
            let mk = |_w: &Window| AckEvent {
                now,
                newly_acked_bytes: (pkts * 1500.0) as u64,
                newly_acked_packets: pkts,
                ecn_echo: false,
                in_recovery: false,
                after_timeout: false,
            };
            let before_b = wb.cwnd;
            let before_a = wa.cwnd;
            base.on_ack(&mk(&wb), &mut wb);
            aug.on_ack(&mk(&wa), &mut wa);
            let db = wb.cwnd - before_b;
            let da = wa.cwnd - before_a;
            // Base increments from identical cwnds would be identical;
            // here cwnds diverge, so compare growth RATE per cwnd unit:
            // d·cwnd = F(r)·pkts for Reno-CA.
            let gb = db * before_b;
            let ga = da * before_a;
            prop_assert!(ga <= gb * 2.0 + 1e-9, "gain {ga} vs base {gb}");
            prop_assert!(ga >= gb * 0.25 - 1e-9);
        }
    }
}

/// End-to-end: a transfer over a randomly lossy path always completes,
/// delivering every byte exactly once to the application, for any CC.
#[derive(Debug)]
struct Oneshot {
    sender: Option<AgentId>,
    bytes: u64,
    done: bool,
}
impl Agent for Oneshot {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        let s = self.sender.expect("wired");
        ctx.send_message(s, proto::encode(Msg::StartTransfer { bytes: self.bytes }));
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
    fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
        if let Some(Msg::TransferComplete { .. }) = proto::decode(token) {
            self.done = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transfers_complete_under_any_loss(
        loss in 0.0f64..0.3,
        kb in 10u64..500,
        seed in 0u64..10_000,
    ) {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.directed(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)).with_loss(loss),
        );
        b.directed(h1, h0, LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)));
        let mut sim = Simulator::new(b.build().expect("connected"), seed);
        let bytes = kb * 1000;
        let app = sim.add_agent(h0, Oneshot { sender: None, bytes, done: false });
        let mut cfg = SenderConfig::new(FlowId(1), h1);
        cfg.driver = Some(app);
        cfg.min_rto = SimDuration::micros(200);
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
        sim.agent_mut::<Oneshot>(app).sender = Some(h.sender);
        sim.run_until(SimTime::from_secs_f64(30.0));
        prop_assert!(sim.agent::<Oneshot>(app).done, "loss={loss} kb={kb}");
        prop_assert_eq!(sim.agent::<TcpSender>(h.sender).bytes_acked(), bytes);
        // The receiver delivered exactly the stream (dedup'd).
        let rx = sim.agent::<mltcp_transport::TcpReceiver>(h.receiver);
        prop_assert_eq!(rx.delivered(), bytes);
    }

    /// Byte conservation under chaos: Gilbert–Elliott bursty loss on both
    /// directions plus a random mid-transfer link flap (and optionally a
    /// brownout) never duplicate, lose, or reorder application bytes —
    /// every transfer completes with the receiver delivering exactly the
    /// stream, for random fault schedules.
    #[test]
    fn bytes_conserved_under_bursty_loss_and_link_flap(
        p_gb in 0.005f64..0.1,
        p_bg in 0.1f64..0.5,
        loss_bad in 0.1f64..0.7,
        kb in 10u64..300,
        flap_at_us in 50u64..2_000,
        outage_us in 50u64..5_000,
        brownout_factor in 0.1f64..1.0,
        brownout_window_us in 100u64..2_000,
        seed in 0u64..10_000,
    ) {
        use mltcp_netsim::fault::{FaultPlan, GilbertElliott, LossModel};
        let ge = LossModel::GilbertElliott(GilbertElliott::bursty(p_gb, p_bg, loss_bad));
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let fwd = b.directed(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)),
        );
        let rev = b.directed(h1, h0, LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)));
        let mut sim = Simulator::new(b.build().expect("connected"), seed);
        let horizon = SimDuration::secs(30);
        let mut plan = FaultPlan::new()
            // Bursty loss on data AND ack paths for the whole run.
            .loss_window(fwd, SimTime::ZERO, horizon, ge)
            .loss_window(rev, SimTime::ZERO, horizon, ge)
            .link_flap(
                fwd,
                SimTime(flap_at_us * 1_000),
                SimDuration::micros(outage_us),
            );
        plan = plan.brownout(
            rev,
            SimTime(flap_at_us * 1_000),
            SimDuration::micros(brownout_window_us),
            brownout_factor,
        );
        sim.install_faults(&plan);
        let bytes = kb * 1000;
        let app = sim.add_agent(h0, Oneshot { sender: None, bytes, done: false });
        let mut cfg = SenderConfig::new(FlowId(1), h1);
        cfg.driver = Some(app);
        cfg.min_rto = SimDuration::micros(200);
        cfg.max_rto = SimDuration::millis(2);
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
        sim.agent_mut::<Oneshot>(app).sender = Some(h.sender);
        sim.run_until(SimTime::from_secs_f64(30.0));
        prop_assert!(
            sim.agent::<Oneshot>(app).done,
            "ge=({p_gb},{p_bg},{loss_bad}) kb={kb} flap@{flap_at_us}us/{outage_us}us"
        );
        prop_assert_eq!(sim.agent::<TcpSender>(h.sender).bytes_acked(), bytes);
        let rx = sim.agent::<mltcp_transport::TcpReceiver>(h.receiver);
        prop_assert_eq!(rx.delivered(), bytes);
    }
}
