//! End-to-end transport tests: full sender/receiver pairs over simulated
//! networks, exercising slow start, congestion avoidance, loss recovery,
//! timeouts, ECN, and the MLTCP augmentation's iteration tracking.

use mltcp_core::aggressiveness::FnSpec;
use mltcp_netsim::prelude::*;
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::topology::{build_dumbbell, DumbbellSpec};
use mltcp_transport::cc::{Cubic, Dctcp, Mltcp, MltcpConfig, Reno};
use mltcp_transport::proto::{self, Msg};
use mltcp_transport::sender::PriorityPolicy;
use mltcp_transport::{install_connection, SenderConfig, TcpReceiver, TcpSender};

/// A minimal driver that starts one transfer at t=0 and records the
/// completion time.
#[derive(Debug)]
struct OneShotDriver {
    sender: Option<mltcp_netsim::sim::AgentId>,
    bytes: u64,
    done_at: Option<SimTime>,
}

impl Agent for OneShotDriver {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        let s = self.sender.expect("wired before run");
        ctx.send_message(s, proto::encode(Msg::StartTransfer { bytes: self.bytes }));
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
        if let Some(Msg::TransferComplete { .. }) = proto::decode(token) {
            self.done_at = Some(ctx.now());
        }
    }
}

fn one_flow_sim(loss: f64, queue: QueueKind) -> (Simulator, AgentId, AgentId /* driver, sender */) {
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    let spec = LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20))
        .with_loss(loss)
        .with_queue(queue);
    // Reverse path clean so acks survive.
    b.directed(h0, h1, spec);
    b.directed(
        h1,
        h0,
        LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
    );
    let mut sim = Simulator::new(b.build().unwrap(), 99);
    let driver = sim.add_agent(
        h0,
        OneShotDriver {
            sender: None,
            bytes: 3_000_000, // 2000 MTUs
            done_at: None,
        },
    );
    let mut cfg = SenderConfig::new(FlowId(1), h1);
    cfg.driver = Some(driver);
    let handles = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
    sim.agent_mut::<OneShotDriver>(driver).sender = Some(handles.sender);
    (sim, driver, handles.sender)
}

#[test]
fn clean_path_transfers_all_bytes_near_line_rate() {
    let (mut sim, driver, sender) = one_flow_sim(0.0, QueueKind::DropTail { cap_bytes: 500_000 });
    sim.run();
    let done = sim
        .agent::<OneShotDriver>(driver)
        .done_at
        .expect("transfer completes");
    // 3 MB ≈ 24 Mbit at 10 Gbps ≈ 2.4 ms + slow-start ramp; allow 4×.
    assert!(
        done < SimTime::from_secs_f64(0.012),
        "completion too slow: {done}"
    );
    let s = sim.agent::<TcpSender>(sender);
    assert_eq!(s.bytes_acked(), 3_000_000);
    assert_eq!(s.stats().transfers_completed, 1);
    // Slow-start overshoot into the finite buffer may cost at most a
    // couple of RTOs; more would indicate broken recovery.
    assert!(s.stats().timeouts <= 2, "timeouts={}", s.stats().timeouts);
}

#[test]
fn random_loss_recovers_and_completes() {
    let (mut sim, driver, sender) = one_flow_sim(0.01, QueueKind::DropTail { cap_bytes: 500_000 });
    sim.run();
    assert!(sim.agent::<OneShotDriver>(driver).done_at.is_some());
    let s = sim.agent::<TcpSender>(sender);
    assert_eq!(s.bytes_acked(), 3_000_000);
    assert!(s.stats().retransmits > 0, "1% loss must cause retransmits");
}

#[test]
fn heavy_loss_still_completes_via_timeouts() {
    let (mut sim, driver, sender) = one_flow_sim(0.2, QueueKind::DropTail { cap_bytes: 500_000 });
    sim.run();
    assert!(
        sim.agent::<OneShotDriver>(driver).done_at.is_some(),
        "20% loss must still complete eventually"
    );
    let s = sim.agent::<TcpSender>(sender);
    assert_eq!(s.bytes_acked(), 3_000_000);
    assert!(s.stats().timeouts > 0 || s.stats().fast_retransmits > 0);
}

#[test]
fn tiny_buffer_forces_fast_retransmit_not_collapse() {
    // 15 kB buffer at 10 Gbps: overflow drops trigger dupack recovery.
    let (mut sim, driver, sender) = one_flow_sim(0.0, QueueKind::DropTail { cap_bytes: 15_000 });
    sim.run();
    assert!(sim.agent::<OneShotDriver>(driver).done_at.is_some());
    let s = sim.agent::<TcpSender>(sender);
    assert_eq!(s.bytes_acked(), 3_000_000);
    assert!(
        s.stats().fast_retransmits > 0,
        "buffer overflow should trigger fast retransmit"
    );
}

#[test]
fn two_reno_flows_share_a_bottleneck_roughly_fairly() {
    let (topo, d) = build_dumbbell(DumbbellSpec {
        pairs: 2,
        bottleneck_rate: Bandwidth::gbps(10),
        edge_rate: Bandwidth::gbps(40),
        ..DumbbellSpec::default()
    });
    let mut sim = Simulator::new(topo, 5);
    sim.enable_trace(d.bottleneck, SimDuration::millis(10));
    let mut handles = vec![];
    for i in 0..2 {
        let driver = sim.add_agent(
            d.senders[i],
            OneShotDriver {
                sender: None,
                bytes: 40_000_000,
                done_at: None,
            },
        );
        let mut cfg = SenderConfig::new(FlowId(i as u64 + 1), d.receivers[i]);
        cfg.driver = Some(driver);
        let h = install_connection(
            &mut sim,
            d.senders[i],
            d.receivers[i],
            cfg,
            Box::new(Reno::new()),
        );
        sim.agent_mut::<OneShotDriver>(driver).sender = Some(h.sender);
        handles.push((driver, h));
    }
    sim.run();
    let trace = sim.trace(d.bottleneck).unwrap();
    let b1 = trace.flow_bytes(FlowId(1)) as f64;
    let b2 = trace.flow_bytes(FlowId(2)) as f64;
    // Both complete; during contention shares shouldn't be wildly skewed.
    assert!(b1 > 0.0 && b2 > 0.0);
    for (driver, h) in &handles {
        assert!(sim.agent::<OneShotDriver>(*driver).done_at.is_some());
        assert_eq!(sim.agent::<TcpSender>(h.sender).bytes_acked(), 40_000_000);
    }
}

#[test]
fn cubic_and_dctcp_complete_transfers() {
    // CUBIC over drop-tail.
    {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.link(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
        );
        let mut sim = Simulator::new(b.build().unwrap(), 3);
        let driver = sim.add_agent(
            h0,
            OneShotDriver {
                sender: None,
                bytes: 1_500_000,
                done_at: None,
            },
        );
        let mut cfg = SenderConfig::new(FlowId(1), h1);
        cfg.driver = Some(driver);
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Cubic::new()));
        sim.agent_mut::<OneShotDriver>(driver).sender = Some(h.sender);
        sim.run();
        assert!(sim.agent::<OneShotDriver>(driver).done_at.is_some());
    }
    // DCTCP over an ECN-marking bottleneck.
    {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let spec = LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)).with_queue(
            QueueKind::EcnDropTail {
                cap_bytes: 500_000,
                mark_threshold_bytes: 60_000,
            },
        );
        b.link(h0, h1, spec);
        let mut sim = Simulator::new(b.build().unwrap(), 4);
        let driver = sim.add_agent(
            h0,
            OneShotDriver {
                sender: None,
                bytes: 1_500_000,
                done_at: None,
            },
        );
        let mut cfg = SenderConfig::new(FlowId(1), h1);
        cfg.driver = Some(driver);
        cfg.ecn = true;
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Dctcp::new()));
        sim.agent_mut::<OneShotDriver>(driver).sender = Some(h.sender);
        sim.run();
        assert!(sim.agent::<OneShotDriver>(driver).done_at.is_some());
        let s = sim.agent::<TcpSender>(h.sender);
        assert_eq!(s.bytes_acked(), 1_500_000);
    }
}

/// Driver that runs several back-to-back "iterations" with a compute gap,
/// like a training job, and records each iteration's span.
#[derive(Debug)]
struct IterDriver {
    sender: Option<AgentId>,
    bytes_per_iter: u64,
    compute_gap: SimDuration,
    iters_left: u32,
    iteration_spans: Vec<(SimTime, SimTime)>,
    current_start: SimTime,
}

impl Agent for IterDriver {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.current_start = ctx.now();
        let s = self.sender.expect("wired");
        ctx.send_message(
            s,
            proto::encode(Msg::StartTransfer {
                bytes: self.bytes_per_iter,
            }),
        );
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
        if let Some(Msg::TransferComplete { .. }) = proto::decode(token) {
            self.iteration_spans.push((self.current_start, ctx.now()));
            self.iters_left -= 1;
            if self.iters_left > 0 {
                ctx.rearm_timer(self.compute_gap);
            }
        }
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        self.current_start = ctx.now();
        let s = self.sender.expect("wired");
        ctx.send_message(
            s,
            proto::encode(Msg::StartTransfer {
                bytes: self.bytes_per_iter,
            }),
        );
    }
}

#[test]
fn mltcp_tracker_follows_iterations_end_to_end() {
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    b.link(
        h0,
        h1,
        LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
    );
    let mut sim = Simulator::new(b.build().unwrap(), 8);
    let bytes = 1_500_000u64;
    let gap = SimDuration::millis(50);
    let driver = sim.add_agent(
        h0,
        IterDriver {
            sender: None,
            bytes_per_iter: bytes,
            compute_gap: gap,
            iters_left: 5,
            iteration_spans: vec![],
            current_start: SimTime::ZERO,
        },
    );
    let mut cfg = SenderConfig::new(FlowId(1), h1);
    cfg.driver = Some(driver);
    let cc = Mltcp::new(
        Reno::new(),
        FnSpec::Paper,
        MltcpConfig::oracle(bytes, SimDuration::millis(10)),
    );
    let h = install_connection(&mut sim, h0, h1, cfg, Box::new(cc));
    sim.agent_mut::<IterDriver>(driver).sender = Some(h.sender);
    sim.run();

    let spans = &sim.agent::<IterDriver>(driver).iteration_spans;
    assert_eq!(spans.len(), 5);
    // Every iteration's transfer completed; the sender's MLTCP controller
    // ended at bytes_ratio == 1 and detected iteration boundaries.
    let sender = sim.agent::<TcpSender>(h.sender);
    assert_eq!(sender.bytes_acked(), bytes * 5);
    let cc = sender
        .cc_as::<Mltcp<Reno>>()
        .expect("controller is MLTCP-Reno");
    assert!((cc.bytes_ratio() - 1.0).abs() < 1e-9);
}

#[test]
fn pfabric_priority_tags_decrease_with_progress() {
    // With RemainingBytes policy, later segments carry smaller tags.
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    b.link(
        h0,
        h1,
        LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
    );
    let mut sim = Simulator::new(b.build().unwrap(), 8);
    let driver = sim.add_agent(
        h0,
        OneShotDriver {
            sender: None,
            bytes: 150_000,
            done_at: None,
        },
    );
    let mut cfg = SenderConfig::new(FlowId(1), h1);
    cfg.driver = Some(driver);
    cfg.priority = PriorityPolicy::RemainingBytes;
    let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
    sim.agent_mut::<OneShotDriver>(driver).sender = Some(h.sender);
    sim.run();
    assert!(sim.agent::<OneShotDriver>(driver).done_at.is_some());
    // Receiver got everything in order despite tagging.
    assert_eq!(sim.agent::<TcpReceiver>(h.receiver).delivered(), 150_000);
}

#[test]
fn fifty_rto_blackout_recovers_in_bounded_time() {
    // A mid-transfer link outage long enough for ~50 RTOs at the capped
    // ceiling. With max_rto capped at 1 ms the sender probes the repaired
    // link within one ceiling interval; without the cap, plain doubling
    // would have backed off past the entire outage.
    use mltcp_netsim::fault::FaultPlan;
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    let fwd = b.directed(
        h0,
        h1,
        LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
    );
    b.directed(
        h1,
        h0,
        LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
    );
    let mut sim = Simulator::new(b.build().unwrap(), 7);
    let outage = SimDuration::millis(55);
    let fault_at = SimTime::from_secs_f64(1e-3);
    let repair_at = fault_at + outage;
    sim.install_faults(&FaultPlan::new().link_flap(fwd, fault_at, outage));
    let driver = sim.add_agent(
        h0,
        OneShotDriver {
            sender: None,
            bytes: 3_000_000,
            done_at: None,
        },
    );
    let mut cfg = SenderConfig::new(FlowId(1), h1);
    cfg.driver = Some(driver);
    cfg.min_rto = SimDuration::micros(200);
    cfg.max_rto = SimDuration::millis(1);
    cfg.initial_rto = Some(SimDuration::micros(500));
    let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
    sim.agent_mut::<OneShotDriver>(driver).sender = Some(h.sender);
    sim.run();

    let done = sim
        .agent::<OneShotDriver>(driver)
        .done_at
        .expect("transfer survives the blackout");
    // Bounded recovery: first probe lands within max_rto of the repair,
    // then ~2.4 ms of serialization + slow-start ramp. 10 ms of headroom.
    assert!(
        done < repair_at + SimDuration::millis(10),
        "recovery too slow: done at {done}, repaired at {repair_at}"
    );
    // Go-back-N drained cleanly: every byte exactly delivered and acked.
    let s = sim.agent::<TcpSender>(h.sender);
    assert_eq!(s.bytes_acked(), 3_000_000);
    assert_eq!(sim.agent::<TcpReceiver>(h.receiver).delivered(), 3_000_000);
    // The outage produced a long consecutive-timeout episode (~50 at the
    // 1 ms ceiling) and the recovery stats captured it.
    let st = s.stats();
    assert!(st.timeouts >= 40, "timeouts={}", st.timeouts);
    assert!(st.blackouts >= 1, "blackouts={}", st.blackouts);
    assert!(
        st.max_consecutive_timeouts >= 40,
        "max_consecutive_timeouts={}",
        st.max_consecutive_timeouts
    );
    assert!(
        st.last_blackout_detect <= SimDuration::millis(2),
        "detect={}",
        st.last_blackout_detect
    );
    // Time-to-first-good-ack after the stall began covers the outage but
    // not much more (bounded overshoot thanks to the capped ceiling).
    assert!(
        st.last_blackout_recovery >= outage
            && st.last_blackout_recovery <= outage + SimDuration::millis(5),
        "recovery={}",
        st.last_blackout_recovery
    );
}

#[test]
fn determinism_across_identical_runs() {
    let run = |seed: u64| {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.directed(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)).with_loss(0.02),
        );
        b.directed(
            h1,
            h0,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20)),
        );
        let mut sim = Simulator::new(b.build().unwrap(), seed);
        let driver = sim.add_agent(
            h0,
            OneShotDriver {
                sender: None,
                bytes: 3_000_000,
                done_at: None,
            },
        );
        let mut cfg = SenderConfig::new(FlowId(1), h1);
        cfg.driver = Some(driver);
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
        sim.agent_mut::<OneShotDriver>(driver).sender = Some(h.sender);
        sim.run();
        (
            sim.agent::<OneShotDriver>(driver).done_at,
            sim.agent::<TcpSender>(h.sender).stats(),
        )
    };
    assert_eq!(run(1234), run(1234));
}
