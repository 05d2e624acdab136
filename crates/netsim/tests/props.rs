//! Property-based tests over the simulator substrate: conservation,
//! determinism, and accounting invariants under randomized traffic.

use mltcp_netsim::link::{Bandwidth, LinkSpec};
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::{FlowId, Packet, SegmentHeader};
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::sim::{Agent, AgentCtx, Simulator};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_netsim::topology::{build_dumbbell, DumbbellSpec, TopologyBuilder};
use proptest::prelude::*;

/// Sends a scripted pattern of (delay, size) packets.
struct ScriptedSender {
    peer: NodeId,
    flow: FlowId,
    script: Vec<(u64, u32)>,
    idx: usize,
}

impl Agent for ScriptedSender {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.rearm_timer(SimDuration::ZERO);
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.idx >= self.script.len() {
            return;
        }
        let (gap, size) = self.script[self.idx];
        let me = ctx.node();
        ctx.send(Packet::data(
            self.flow,
            me,
            self.peer,
            self.idx as u64 * 10_000,
            size,
        ));
        self.idx += 1;
        ctx.rearm_timer(SimDuration::nanos(gap));
    }
}

struct CountingSink {
    packets: u64,
    payload: u64,
}
impl Agent for CountingSink {
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, pkt: Packet) {
        if let SegmentHeader::Data { len, .. } = pkt.header {
            self.packets += 1;
            self.payload += u64::from(len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossless conservation: every payload byte injected at the sender
    /// is delivered at the sink, through a 3-hop dumbbell, regardless of
    /// timing pattern (big enough queues never drop).
    #[test]
    fn lossless_dumbbell_conserves_bytes(
        script in proptest::collection::vec((0u64..50_000, 1u32..1500), 1..200),
    ) {
        let (topo, d) = build_dumbbell(DumbbellSpec {
            pairs: 1,
            bottleneck_rate: Bandwidth::gbps(10),
            edge_rate: Bandwidth::gbps(40),
            hop_delay: SimDuration::micros(2),
            bottleneck_queue: QueueKind::DropTail { cap_bytes: 1_000_000_000 },
            edge_queue: QueueKind::DropTail { cap_bytes: 1_000_000_000 },
        });
        let total: u64 = script.iter().map(|&(_, s)| u64::from(s)).sum();
        let n = script.len() as u64;
        let mut sim = Simulator::new(topo, 1);
        sim.enable_trace(d.bottleneck, SimDuration::millis(1));
        let flow = FlowId(1);
        sim.add_agent(d.senders[0], ScriptedSender {
            peer: d.receivers[0],
            flow,
            script,
            idx: 0,
        });
        let sink = sim.add_agent(d.receivers[0], CountingSink { packets: 0, payload: 0 });
        sim.bind_flow(flow, sink);
        sim.run();
        let s = sim.agent::<CountingSink>(sink);
        prop_assert_eq!(s.packets, n);
        prop_assert_eq!(s.payload, total);
        prop_assert_eq!(sim.stats().dropped, 0);
        // The trace on the bottleneck saw exactly the wire bytes.
        let trace = sim.trace(d.bottleneck).expect("enabled");
        prop_assert_eq!(trace.flow_bytes(flow), total + n * 40);
    }

    /// Accounting identity: delivered + dropped == injected, under a
    /// tiny queue that drops heavily.
    #[test]
    fn delivered_plus_dropped_is_injected(
        script in proptest::collection::vec((0u64..2_000, 100u32..1500), 1..300),
    ) {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.link(
            h0,
            h1,
            LinkSpec::new(Bandwidth::mbps(100), SimDuration::micros(2))
                .with_queue(QueueKind::DropTail { cap_bytes: 5_000 }),
        );
        let n = script.len() as u64;
        let mut sim = Simulator::new(b.build().expect("connected"), 2);
        let flow = FlowId(1);
        sim.add_agent(h0, ScriptedSender { peer: h1, flow, script, idx: 0 });
        let sink = sim.add_agent(h1, CountingSink { packets: 0, payload: 0 });
        sim.bind_flow(flow, sink);
        sim.run();
        let s = sim.agent::<CountingSink>(sink);
        prop_assert_eq!(s.packets + sim.stats().dropped, n);
    }

    /// Determinism: identical seeds give identical outcomes even with
    /// random loss; the clock always ends at the same instant.
    #[test]
    fn seeded_runs_are_identical(
        script in proptest::collection::vec((0u64..5_000, 100u32..1500), 1..100),
        seed in 0u64..1000,
        loss in 0.0f64..0.5,
    ) {
        let run = |seed: u64, script: Vec<(u64, u32)>| -> (u64, u64, SimTime) {
            let mut b = TopologyBuilder::new();
            let h0 = b.host("h0");
            let h1 = b.host("h1");
            b.link(
                h0,
                h1,
                LinkSpec::new(Bandwidth::gbps(1), SimDuration::micros(5)).with_loss(loss),
            );
            let mut sim = Simulator::new(b.build().expect("connected"), seed);
            let flow = FlowId(1);
            sim.add_agent(h0, ScriptedSender { peer: h1, flow, script, idx: 0 });
            let sink = sim.add_agent(h1, CountingSink { packets: 0, payload: 0 });
            sim.bind_flow(flow, sink);
            sim.run();
            let s = sim.agent::<CountingSink>(sink);
            (s.packets, sim.stats().dropped, sim.now())
        };
        prop_assert_eq!(run(seed, script.clone()), run(seed, script));
    }

    /// Serialization is work-conserving and ordered on a FIFO link: the
    /// sink receives packets in injection order, and the final clock is
    /// at least the sum of serialization times.
    #[test]
    fn fifo_link_preserves_order(
        sizes in proptest::collection::vec(1u32..1500, 2..100),
    ) {
        struct OrderSink { seqs: Vec<u64> }
        impl Agent for OrderSink {
            fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, pkt: Packet) {
                if let SegmentHeader::Data { seq, .. } = pkt.header {
                    self.seqs.push(seq);
                }
            }
        }
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.link(h0, h1, LinkSpec::new(Bandwidth::mbps(10), SimDuration::micros(5)));
        let mut sim = Simulator::new(b.build().expect("connected"), 3);
        let flow = FlowId(1);
        let script: Vec<(u64, u32)> = sizes.iter().map(|&s| (0u64, s)).collect();
        sim.add_agent(h0, ScriptedSender { peer: h1, flow, script, idx: 0 });
        let sink = sim.add_agent(h1, OrderSink { seqs: vec![] });
        sim.bind_flow(flow, sink);
        sim.run();
        let got = &sim.agent::<OrderSink>(sink).seqs;
        let want: Vec<u64> = (0..sizes.len() as u64).map(|i| i * 10_000).collect();
        prop_assert_eq!(got, &want);
    }
}
