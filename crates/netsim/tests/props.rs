//! Property-based tests over the simulator substrate: conservation,
//! determinism, and accounting invariants under randomized traffic, and
//! the timer slot against the eager timers it replaces.

use mltcp_netsim::link::{Bandwidth, LinkSpec};
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::{FlowId, Packet, SegmentHeader};
use mltcp_netsim::queue::QueueKind;
use mltcp_netsim::sim::{Agent, AgentCtx, AgentId, Simulator, SLOT_TOKEN};
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
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _token: u64) {
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
        ctx.set_timer(SimDuration::nanos(gap), 0);
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

/// One step of a scripted timer workload (see [`Actor`]).
#[derive(Debug, Clone, Copy)]
enum Act {
    /// Move the deadline to `after` ns from now (earlier or later).
    Rearm(u64),
    /// Disarm the deadline.
    Cancel,
    /// A plain `set_timer(after, token)`.
    Timer(u64, u64),
    /// A message to self, delivered at the current instant.
    Message(u64),
    /// A packet to the peer host, which echoes it back.
    Send,
}

/// How an [`Actor`] keeps its deadline.
enum Deadline {
    /// The pattern the timer slot replaces: one `set_timer` per re-arm,
    /// tagged with a generation, and every stale generation ignored.
    Eager { gen: u64 },
    /// `rearm_timer` / `cancel_timer`.
    Slot,
}

/// Tags an eager deadline's generation; plain timers use tokens below.
const DEADLINE_BIT: u64 = 1 << 62;

/// What an [`Actor`] saw: one entry per callback, `(now, kind, token)`.
/// Kinds: 0 start, 1 deadline, 2 timer, 3 message, 4 packet (token is
/// the ack number).
type Log = Vec<(u64, u8, u64)>;

/// Runs one group of [`Act`]s per callback, in script order, and logs
/// every callback. Two actors with the same script must log the same
/// callbacks whichever way they keep the deadline.
struct Actor {
    peer: NodeId,
    deadline: Deadline,
    script: Vec<Vec<Act>>,
    next: usize,
    sent: u64,
    log: Log,
}

impl Actor {
    fn callback(&mut self, ctx: &mut AgentCtx<'_>, kind: u8, token: u64) {
        self.log.push((ctx.now().as_nanos(), kind, token));
        let Some(group) = self.script.get(self.next).cloned() else {
            return;
        };
        self.next += 1;
        for act in group {
            match act {
                Act::Rearm(after) => match &mut self.deadline {
                    Deadline::Eager { gen } => {
                        *gen += 1;
                        ctx.set_timer(SimDuration::nanos(after), DEADLINE_BIT | *gen);
                    }
                    Deadline::Slot => ctx.rearm_timer(SimDuration::nanos(after)),
                },
                Act::Cancel => match &mut self.deadline {
                    Deadline::Eager { gen } => *gen += 1,
                    Deadline::Slot => ctx.cancel_timer(),
                },
                Act::Timer(after, token) => ctx.set_timer(SimDuration::nanos(after), token),
                Act::Message(token) => {
                    let me = ctx.id();
                    ctx.send_message(me, token);
                }
                Act::Send => {
                    let me = ctx.node();
                    ctx.send(Packet::data(FlowId(1), me, self.peer, self.sent * 100, 100));
                    self.sent += 1;
                }
            }
        }
    }
}

impl Agent for Actor {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        self.callback(ctx, 0, 0);
    }
    fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
        if let SegmentHeader::Ack { cum_ack, .. } = pkt.header {
            self.callback(ctx, 4, cum_ack);
        }
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        match self.deadline {
            Deadline::Eager { gen } if token & DEADLINE_BIT != 0 => {
                if token == DEADLINE_BIT | gen {
                    self.callback(ctx, 1, 0);
                }
            }
            Deadline::Slot if token == SLOT_TOKEN => self.callback(ctx, 1, 0),
            _ => self.callback(ctx, 2, token),
        }
    }
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
        self.callback(ctx, 3, token);
    }
}

/// Acks every data packet back to its sender.
struct Echo;

impl Agent for Echo {
    fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
        if let SegmentHeader::Data { seq, len } = pkt.header {
            let me = ctx.node();
            ctx.send(Packet::ack(
                pkt.flow,
                me,
                pkt.src,
                seq + u64::from(len),
                false,
            ));
        }
    }
}

/// Runs `script` with the given deadline keeping and returns the log.
fn run_actor(script: &[Vec<Act>], deadline: Deadline) -> Log {
    let mut b = TopologyBuilder::new();
    let h0 = b.host("h0");
    let h1 = b.host("h1");
    // A 140-byte data packet takes 1120 ns on the wire at 1 Gbps, so it
    // arrives three steps of the scripted timers' 560 ns grid after it
    // is sent.
    b.link(
        h0,
        h1,
        LinkSpec::new(Bandwidth::gbps(1), SimDuration::nanos(560)),
    );
    let mut sim = Simulator::new(b.build().expect("connected"), 5);
    let actor = sim.add_agent(
        h0,
        Actor {
            peer: h1,
            deadline,
            script: script.to_vec(),
            next: 0,
            sent: 0,
            log: Vec::new(),
        },
    );
    let echo = sim.add_agent(h1, Echo);
    sim.bind_flow(FlowId(1), actor);
    sim.bind_flow(FlowId(1), echo);
    sim.run();
    std::mem::take(&mut sim.agent_mut::<Actor>(actor).log)
}

fn act() -> impl Strategy<Value = Act> {
    // Multiples of 560 ns make same-nanosecond ties common.
    prop_oneof![
        4 => (0u64..12).prop_map(|k| Act::Rearm(k * 560)),
        1 => Just(Act::Cancel),
        2 => (0u64..12, 0u64..1000).prop_map(|(k, token)| Act::Timer(k * 560, token)),
        1 => (0u64..1000).prop_map(Act::Message),
        2 => Just(Act::Send),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The timer slot against the pattern it replaces: from one random
    /// script of re-arms (moving the deadline earlier and later),
    /// cancels, cancel-then-rearm, plain timers, messages and packets on
    /// shared nanoseconds, both actors see every callback in the same
    /// order at the same instant.
    #[test]
    fn timer_slot_matches_eager_timers(
        script in proptest::collection::vec(proptest::collection::vec(act(), 0..4), 1..60),
    ) {
        let eager = run_actor(&script, Deadline::Eager { gen: 0 });
        let slot = run_actor(&script, Deadline::Slot);
        prop_assert_eq!(eager, slot);
    }
}
