//! The simulator: event loop, agents, and the network data path.
//!
//! A [`Simulator`] owns a routed [`Topology`], one egress queue per
//! directed channel, a deterministic event queue, and a table of
//! [`Agent`]s attached to hosts. Agents are the extension point: transport
//! endpoints (`mltcp-transport`) and workload drivers (`mltcp-workload`)
//! implement [`Agent`] and interact with the world exclusively through
//! [`AgentCtx`] — sending packets, arming timers, messaging other agents,
//! and drawing deterministic randomness.
//!
//! ## Data path
//!
//! * `AgentCtx::send` looks up the host's route to the packet's
//!   destination and offers the packet to that channel's egress queue.
//! * When a channel is idle and its queue non-empty, it dequeues one
//!   packet, stays busy for the serialization time, then (unless the
//!   channel's Bernoulli loss fires) schedules delivery at the far node
//!   after the propagation delay. Store-and-forward switches re-enqueue
//!   on the next hop; hosts dispatch to the agent bound to the packet's
//!   flow.
//! * All ties are broken deterministically (see [`crate::event`]).

use crate::event::{EventQueue, Popped, PoppedKind};
use crate::fault::{FaultAction, FaultPlan, LossModel, LossState};
use crate::link::LinkId;
use crate::node::{NodeId, NodeKind};
use crate::packet::{FlowId, Packet};
use crate::queue::{EnqueueOutcome, LinkQueue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::BandwidthTrace;
use mltcp_telemetry::{
    DropReason, FaultKind, ProfileSnapshot, SimProfiler, TelemetryEvent, TelemetrySink,
};
use std::any::Any;

/// Labels for the sim-time profiler, in [`SimProfiler::record`] index
/// order: one per event kind, plus agent start-up, plus the scheduler
/// itself (`sched` times each successful `pop`, so engine overhead is
/// attributed separately from dispatch work).
const PROFILE_LABELS: [&str; 7] = [
    "channel_idle",
    "deliver",
    "timer",
    "message",
    "fault",
    "agent_start",
    "sched",
];

/// Profiler label index for agent start-up handlers.
const PROFILE_AGENT_START: usize = 5;

/// Profiler label index for event-queue pops (scheduler overhead).
const PROFILE_SCHED: usize = 6;

/// The token [`Agent::on_timer`] receives when the agent's timer slot
/// fires (see [`AgentCtx::rearm_timer`]). [`AgentCtx::set_timer`] must
/// not use it.
pub const SLOT_TOKEN: u64 = u64::MAX;

/// Handle to an agent registered with a simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(pub usize);

/// Behaviour attached to a host. See the crate docs for an example.
///
/// Handlers run to completion before the next event fires; outputs
/// (packets, timers, messages) take effect strictly afterwards, so there
/// is no reentrancy.
pub trait Agent: Any {
    /// Called once, at simulation start (before any event), in
    /// registration order.
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to a flow bound to this agent arrived at its
    /// host.
    fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet);

    /// A timer armed via [`AgentCtx::set_timer`] fired with its `token`,
    /// or the timer slot armed via [`AgentCtx::rearm_timer`] fired with
    /// [`SLOT_TOKEN`].
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }

    /// Another agent sent a message via [`AgentCtx::send_message`].
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, token: u64) {
        let _ = (ctx, from, token);
    }
}

/// Aggregate counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed. A channel departure with no packet waiting
    /// behind it is not an event (see [`crate::event`]): `ChannelIdle`
    /// counts only the departures that a queued packet was waiting for.
    /// Likewise a timer-slot re-arm is not an event; the slot's queued
    /// event counts each time it pops, whether it fires, moves to a later
    /// deadline or is dropped (see [`AgentCtx::rearm_timer`]).
    pub events: u64,
    /// Packets delivered to host agents.
    pub delivered: u64,
    /// Packets dropped (queue overflow, eviction, random loss, or no
    /// route).
    pub dropped: u64,
}

/// An agent's re-armable timer (see [`AgentCtx::rearm_timer`]), as
/// `(time, seq)` keys.
#[derive(Debug, Clone, Copy, Default)]
struct TimerSlot {
    /// When the slot fires, under the seq its latest re-arm reserved;
    /// `None` when cancelled or fired.
    deadline: Option<(SimTime, u64)>,
    /// The key of the one queued event the slot still trusts. Invariant:
    /// a set deadline is never earlier than it.
    pending: Option<(SimTime, u64)>,
}

/// Everything except the agents themselves — what an [`AgentCtx`] can
/// touch while an agent handler runs.
///
/// The per-delivery lookups sit on the hottest path in the simulator, so
/// they use dense per-index vectors instead of hash maps: `traces` is
/// indexed by link, `flow_tables` by node (each host carries a short
/// linear-scanned `(flow, agent)` list — hosts bind a handful of flows,
/// so a scan beats hashing a 16-byte key per packet).
struct SimCore {
    now: SimTime,
    /// Sequence number of the event being dispatched; 0 during agent
    /// start-up, which sorts before every event. With `now` it is the key
    /// that channel busy tests compare against (see `Channel::busy`).
    seq: u64,
    events: EventQueue,
    topo: Topology,
    queues: Vec<LinkQueue>,
    /// Per-link bandwidth trace, indexed by `LinkId::index()`; `None`
    /// when tracing is off for that link (the common case).
    traces: Vec<Option<BandwidthTrace>>,
    rng: SimRng,
    /// Per-link loss process state, indexed by `LinkId::index()`.
    /// Initialized from each spec's Bernoulli probability; fault
    /// injection may swap in a different model mid-run.
    loss: Vec<LossState>,
    /// Per-link RNG streams for loss draws (pure functions of
    /// `(seed, link_index)`), so one link's drop pattern is independent
    /// of the global event interleaving and of traffic elsewhere.
    link_rngs: Vec<SimRng>,
    /// Installed fault actions, indexed by `PoppedKind::Fault::index`.
    faults: Vec<FaultAction>,
    /// Per-node flow dispatch table, indexed by `NodeId::index()`:
    /// which agent receives packets of a given flow at this host.
    flow_tables: Vec<Vec<(FlowId, AgentId)>>,
    agent_hosts: Vec<NodeId>,
    /// Per-agent timer slots, indexed by agent.
    slots: Vec<TimerSlot>,
    stats: SimStats,
    /// Installed telemetry sink, if any. Emission sites gate on
    /// `is_some()` and construct events only in the taken branch, so the
    /// disabled path costs one predictable branch per would-be event.
    /// Sinks observe — they can never touch the event queue or RNGs.
    sink: Option<Box<dyn TelemetrySink>>,
}

impl SimCore {
    /// The agent bound to `flow` at `node`, if any.
    fn bound_agent(&self, flow: FlowId, node: NodeId) -> Option<AgentId> {
        self.flow_tables[node.index()]
            .iter()
            .find(|&&(f, _)| f == flow)
            .map(|&(_, a)| a)
    }

    /// Offers a packet to a channel's egress queue and kicks the
    /// serializer if idle, or arms its departure if busy.
    fn enqueue_on(&mut self, link: LinkId, pkt: Packet) {
        let li = link.index();
        let busy = self.topo.channels[li].busy(self.now, self.seq);
        // Cut-through: when the queue is empty and the channel is idle
        // and up, enqueue-then-immediately-dequeue is the identity (no
        // drop, eviction, or ECN mark is possible against a zero
        // backlog), so the packet goes straight to the serializer. A sink
        // gets the one-packet queue sample the enqueue would have given.
        if !busy && self.topo.channels[li].up && self.queues[li].passes_through(pkt.wire_bytes) {
            if let Some(sink) = self.sink.as_mut() {
                sink.record(&TelemetryEvent::QueueDepth {
                    t_ns: self.now.as_nanos(),
                    link: li as u32,
                    bytes: u64::from(pkt.wire_bytes),
                    packets: 1,
                });
            }
            self.transmit(link, pkt);
            return;
        }
        let flow = pkt.flow;
        match self.queues[li].enqueue(pkt) {
            EnqueueOutcome::Accepted => {
                if let Some(sink) = self.sink.as_mut() {
                    sink.record(&TelemetryEvent::QueueDepth {
                        t_ns: self.now.as_nanos(),
                        link: li as u32,
                        bytes: self.queues[li].backlog_bytes(),
                        packets: self.queues[li].backlog_packets() as u32,
                    });
                }
            }
            EnqueueOutcome::AcceptedMarked => {
                if let Some(sink) = self.sink.as_mut() {
                    sink.record(&TelemetryEvent::EcnMark {
                        t_ns: self.now.as_nanos(),
                        link: li as u32,
                        flow: flow.0,
                    });
                    sink.record(&TelemetryEvent::QueueDepth {
                        t_ns: self.now.as_nanos(),
                        link: li as u32,
                        bytes: self.queues[li].backlog_bytes(),
                        packets: self.queues[li].backlog_packets() as u32,
                    });
                }
            }
            EnqueueOutcome::DroppedArrival(p) => {
                self.stats.dropped += 1;
                self.topo.channels[li].packets_dropped += 1;
                if let Some(sink) = self.sink.as_mut() {
                    sink.record(&TelemetryEvent::Drop {
                        t_ns: self.now.as_nanos(),
                        link: li as u32,
                        flow: p.flow.0,
                        reason: DropReason::QueueFull,
                    });
                }
            }
            EnqueueOutcome::Evicted(victim) => {
                self.stats.dropped += 1;
                self.topo.channels[li].packets_dropped += 1;
                if let Some(sink) = self.sink.as_mut() {
                    sink.record(&TelemetryEvent::Drop {
                        t_ns: self.now.as_nanos(),
                        link: li as u32,
                        flow: victim.flow.0,
                        reason: DropReason::Evicted,
                    });
                }
            }
        }
        if !busy {
            self.start_tx(link);
        } else if !self.queues[li].is_empty() {
            self.arm_departure(link);
        }
    }

    /// Begins serializing the next queued packet, if any, and arms the
    /// new departure when more packets wait. A downed channel blocks here
    /// (egress stalls until `LinkUp` kicks it).
    fn start_tx(&mut self, link: LinkId) {
        let li = link.index();
        if !self.topo.channels[li].up {
            return;
        }
        let Some(pkt) = self.queues[li].dequeue() else {
            return;
        };
        self.transmit(link, pkt);
        if !self.queues[li].is_empty() {
            self.arm_departure(link);
        }
    }

    /// Schedules the busy channel's departure as a `ChannelIdle` event
    /// (once), under the seq [`SimCore::transmit`] reserved for it.
    fn arm_departure(&mut self, link: LinkId) {
        let ch = &mut self.topo.channels[link.index()];
        if !ch.armed {
            debug_assert!(
                (self.now, self.seq) < (ch.idle_at, ch.idle_seq),
                "departure armed before the current event"
            );
            ch.armed = true;
            self.events
                .schedule_departure(ch.idle_at, ch.idle_seq, link);
        }
    }

    /// Serializes `pkt` on an idle, up channel: reserves the departure's
    /// seq (the departure becomes an event only if a packet queues behind
    /// this one, see [`SimCore::arm_departure`]) and schedules the
    /// delivery unless loss fires. Shared tail of [`SimCore::start_tx`]
    /// and the cut-through path in [`SimCore::enqueue_on`].
    fn transmit(&mut self, link: LinkId, pkt: Packet) {
        let li = link.index();
        let ch = &mut self.topo.channels[li];
        debug_assert!(!ch.armed, "transmit with a departure pending");
        let (done, arrival) = ch.serialize_spans(self.now, pkt.wire_bytes);
        ch.bytes_sent += u64::from(pkt.wire_bytes);
        ch.packets_sent += 1;
        let to = ch.to;
        let epoch = ch.epoch;
        if let Some(trace) = self.traces[li].as_mut() {
            trace.record(done, pkt.flow, pkt.wire_bytes);
        }
        // Reserved before the delivery is scheduled, so an armed
        // departure sorts exactly where an always-scheduled one would and
        // every later event gets the same seq either way (`crate::event`).
        ch.idle_at = done;
        ch.idle_seq = self.events.reserve_seq();
        // Loss applies to every packet — acks included: a lossy wire does
        // not know about TCP semantics. Draws come from the link's own
        // stream so drop patterns are interleaving-independent.
        if self.loss[li].drops_packet(&mut self.link_rngs[li]) {
            self.stats.dropped += 1;
            self.topo.channels[li].packets_dropped += 1;
            if let Some(sink) = self.sink.as_mut() {
                sink.record(&TelemetryEvent::Drop {
                    t_ns: self.now.as_nanos(),
                    link: li as u32,
                    flow: pkt.flow.0,
                    reason: DropReason::RandomLoss,
                });
            }
        } else {
            self.events.schedule_delivery(arrival, to, link, epoch, pkt);
        }
    }

    /// Handles `agent`'s slot event popping at the current `(now, seq)`
    /// key and returns whether the slot fires (it is then cleared). An
    /// event the slot no longer trusts is dropped, as is one whose
    /// deadline was cancelled; one that pops before a later deadline is
    /// re-inserted at it under the deadline's reserved seq. None of this
    /// touches an RNG, a channel or an agent.
    fn slot_due(&mut self, agent: u32) -> bool {
        let key = (self.now, self.seq);
        let slot = &mut self.slots[agent as usize];
        if slot.pending != Some(key) {
            return false;
        }
        match slot.deadline {
            Some((at, seq)) if (at, seq) != key => {
                debug_assert!(key < (at, seq), "slot deadline before its event");
                slot.pending = slot.deadline;
                self.events
                    .schedule_timer_reserved(at, seq, agent, SLOT_TOKEN);
                false
            }
            deadline => {
                *slot = TimerSlot::default();
                deadline.is_some()
            }
        }
    }

    /// Records a fault epoch on the sink, if one is installed.
    fn emit_fault(&mut self, link: LinkId, kind: FaultKind, factor: f64) {
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&TelemetryEvent::Fault {
                t_ns: self.now.as_nanos(),
                link: link.index() as u32,
                kind,
                factor,
            });
        }
    }

    /// Applies one installed fault action.
    fn apply_fault(&mut self, index: usize) {
        match self.faults[index] {
            FaultAction::LinkDown { link } => {
                let li = link.index();
                let ch = &mut self.topo.channels[li];
                if ch.up {
                    ch.up = false;
                    // Cut packets on the wire: their stamped epoch no
                    // longer matches, so arrival drops them.
                    ch.epoch = ch.epoch.wrapping_add(1);
                }
                self.emit_fault(link, FaultKind::LinkDown, 1.0);
                // Queued packets die with the link.
                let mut drained = 0u64;
                while let Some(p) = self.queues[li].dequeue() {
                    drained += 1;
                    if let Some(sink) = self.sink.as_mut() {
                        sink.record(&TelemetryEvent::Drop {
                            t_ns: self.now.as_nanos(),
                            link: li as u32,
                            flow: p.flow.0,
                            reason: DropReason::Drained,
                        });
                    }
                }
                self.stats.dropped += drained;
                self.topo.channels[li].packets_dropped += drained;
            }
            FaultAction::LinkUp { link } => {
                let li = link.index();
                self.topo.channels[li].up = true;
                self.emit_fault(link, FaultKind::LinkUp, 1.0);
                // Resume egress for traffic that queued during the
                // outage (unless a doomed serialization is still
                // pending: packets queued behind it armed its
                // ChannelIdle, which resumes us).
                if !self.topo.channels[li].busy(self.now, self.seq) {
                    self.start_tx(link);
                }
            }
            FaultAction::SetRateFactor { link, factor } => {
                let factor = factor.max(1e-6);
                self.topo.channels[link.index()].rate_factor = factor;
                self.emit_fault(link, FaultKind::RateFactor, factor);
            }
            FaultAction::SetLoss { link, model } => {
                self.loss[link.index()] = LossState::new(model);
                self.emit_fault(link, FaultKind::LossModel, 1.0);
            }
            FaultAction::RestoreLoss { link } => {
                let p = self.topo.channels[link.index()].spec.loss_probability;
                self.loss[link.index()] = LossState::new(LossModel::Bernoulli(p));
                self.emit_fault(link, FaultKind::LossRestore, 1.0);
            }
        }
    }

    /// Routes a packet out of `node` toward its destination.
    fn forward(&mut self, node: NodeId, pkt: Packet) {
        match self.topo.next_hop(node, pkt.dst) {
            Some(link) => self.enqueue_on(link, pkt),
            None => {
                self.stats.dropped += 1;
                if let Some(sink) = self.sink.as_mut() {
                    sink.record(&TelemetryEvent::Drop {
                        t_ns: self.now.as_nanos(),
                        link: TelemetryEvent::NO_LINK,
                        flow: pkt.flow.0,
                        reason: DropReason::NoRoute,
                    });
                }
            }
        }
    }
}

/// The world as visible from inside an agent handler.
pub struct AgentCtx<'a> {
    core: &'a mut SimCore,
    id: AgentId,
}

impl AgentCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The host this agent is attached to.
    pub fn node(&self) -> NodeId {
        self.core.agent_hosts[self.id.0]
    }

    /// This agent's id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// Sends a packet into the network from this agent's host. Packets to
    /// the host itself are delivered (via the event queue) without
    /// touching any link.
    pub fn send(&mut self, pkt: Packet) {
        let host = self.node();
        if pkt.dst == host {
            let at = self.core.now;
            self.core
                .events
                .schedule_delivery(at, host, LinkId::NONE, 0, pkt);
            return;
        }
        self.core.forward(host, pkt);
    }

    /// Arms a timer to fire `after` from now with an opaque `token`
    /// (anything but [`SLOT_TOKEN`]). Timers cannot be cancelled: every
    /// call queues an event that fires. A deadline that keeps moving (a
    /// retransmission timeout, as the TCP RTO is) belongs in the timer
    /// slot instead ([`AgentCtx::rearm_timer`]).
    pub fn set_timer(&mut self, after: SimDuration, token: u64) {
        debug_assert_ne!(token, SLOT_TOKEN, "set_timer with the slot's token");
        let at = self.core.now.saturating_add(after);
        self.core.events.schedule_timer(at, self.id.0 as u32, token);
    }

    /// Arms this agent's timer slot to fire `after` from now, replacing
    /// any earlier deadline; [`Agent::on_timer`] then receives
    /// [`SLOT_TOKEN`]. The slot fires at exactly the `(time, seq)` key a
    /// `set_timer(after, _)` call here would have given its event, so
    /// swapping a generation-checked `set_timer` for the slot moves no
    /// event in the pop order. But the slot keeps at most one event
    /// queued: a re-arm reserves a seq for the new deadline and schedules
    /// an event only when the deadline moves earlier than the queued one.
    /// An event that pops before the deadline moves to it.
    pub fn rearm_timer(&mut self, after: SimDuration) {
        let at = self.core.now.saturating_add(after);
        let seq = self.core.events.reserve_seq();
        let agent = self.id.0;
        let slot = &mut self.core.slots[agent];
        slot.deadline = Some((at, seq));
        if slot.pending.is_none_or(|p| (at, seq) < p) {
            slot.pending = slot.deadline;
            self.core
                .events
                .schedule_timer_reserved(at, seq, agent as u32, SLOT_TOKEN);
        }
    }

    /// Disarms this agent's timer slot; a no-op when it is not armed.
    pub fn cancel_timer(&mut self) {
        self.core.slots[self.id.0].deadline = None;
    }

    /// Sends an asynchronous message to another agent (delivered at the
    /// current instant, after this handler returns).
    pub fn send_message(&mut self, to: AgentId, token: u64) {
        let at = self.core.now;
        self.core
            .events
            .schedule_message(at, to.0 as u32, self.id.0 as u32, token);
    }

    /// The deterministic random source.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// Whether a telemetry sink is installed. Emitters gate on this so
    /// event construction (and any formatting behind it) happens only
    /// when someone is listening.
    #[inline]
    pub fn telemetry_enabled(&self) -> bool {
        self.core.sink.is_some()
    }

    /// Records a telemetry event on the installed sink (no-op without
    /// one). Purely observational: the sink cannot reach back into the
    /// simulation.
    #[inline]
    pub fn emit(&mut self, ev: TelemetryEvent) {
        if let Some(sink) = self.core.sink.as_mut() {
            sink.record(&ev);
        }
    }

    /// Read-only view of the topology (e.g. to compute a path's BDP).
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }
}

struct AgentSlot {
    agent: Option<Box<dyn Agent>>,
    host: NodeId,
}

/// The discrete-event simulator.
pub struct Simulator {
    core: SimCore,
    agents: Vec<AgentSlot>,
    started: bool,
    /// Wall-clock attribution per event kind, when enabled.
    profiler: Option<SimProfiler>,
}

impl Simulator {
    /// Creates a simulator over a routed topology with a deterministic
    /// seed.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let queues: Vec<_> = topo.channels.iter().map(|c| c.spec.queue.build()).collect();
        let traces = (0..topo.channels.len()).map(|_| None).collect();
        let flow_tables = vec![Vec::new(); topo.nodes.len()];
        let loss = topo
            .channels
            .iter()
            .map(|c| LossState::new(LossModel::Bernoulli(c.spec.loss_probability)))
            .collect();
        let link_rngs = (0..topo.channels.len())
            .map(|i| SimRng::for_stream(seed, i as u64))
            .collect();
        Self {
            core: SimCore {
                now: SimTime::ZERO,
                seq: 0,
                events: EventQueue::new(),
                topo,
                queues,
                traces,
                rng: SimRng::new(seed),
                loss,
                link_rngs,
                faults: Vec::new(),
                flow_tables,
                agent_hosts: Vec::new(),
                slots: Vec::new(),
                stats: SimStats::default(),
                sink: None,
            },
            agents: Vec::new(),
            started: false,
            profiler: None,
        }
    }

    /// Approximate retained capacity of the event queue, in event-sized
    /// slots — observable for memory-high-water tests. Small buffers are
    /// left out (see [`EventQueue::capacity`]).
    pub fn event_queue_capacity(&self) -> usize {
        self.core.events.capacity()
    }

    /// Registers an agent on a host and returns its id.
    ///
    /// # Panics
    /// Panics if `host` is not a host node or the simulation has started.
    pub fn add_agent<A: Agent>(&mut self, host: NodeId, agent: A) -> AgentId {
        assert!(!self.started, "agents must be added before the run starts");
        assert!(
            matches!(self.core.topo.nodes[host.index()].kind, NodeKind::Host),
            "agents attach to hosts, not switches"
        );
        let id = AgentId(self.agents.len());
        self.agents.push(AgentSlot {
            agent: Some(Box::new(agent)),
            host,
        });
        self.core.agent_hosts.push(host);
        self.core.slots.push(TimerSlot::default());
        id
    }

    /// Routes packets of `flow` arriving at the agent's host to that
    /// agent. Both endpoints of a transport connection bind the same flow
    /// id on their respective hosts.
    pub fn bind_flow(&mut self, flow: FlowId, agent: AgentId) {
        let host = self.agents[agent.0].host;
        let table = &mut self.core.flow_tables[host.index()];
        match table.iter_mut().find(|(f, _)| *f == flow) {
            Some(entry) => entry.1 = agent,
            None => table.push((flow, agent)),
        }
    }

    /// Installs a fault plan: every scheduled action becomes an event in
    /// the deterministic queue, so faults interleave with packet events
    /// reproducibly. May be called multiple times (plans accumulate) and
    /// at any point before the faults' times are reached.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for f in &plan.faults {
            let index = self.core.faults.len() as u32;
            self.core.faults.push(f.action);
            self.core.events.schedule_fault(f.at, index);
        }
    }

    /// Enables per-flow bandwidth tracing on a channel.
    pub fn enable_trace(&mut self, link: LinkId, bin: SimDuration) {
        self.core.traces[link.index()] = Some(BandwidthTrace::new(bin));
    }

    /// Installs a telemetry sink; subsequent simulation activity streams
    /// structured events into it. Replaces any previous sink.
    pub fn set_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.core.sink = Some(sink);
    }

    /// Detaches the telemetry sink (flushed), e.g. to downcast a
    /// recorder back to its concrete type after a run.
    pub fn take_sink(&mut self) -> Option<Box<dyn TelemetrySink>> {
        let mut sink = self.core.sink.take()?;
        sink.flush();
        Some(sink)
    }

    /// Enables the sim-time profiler: every subsequent dispatch is
    /// timed with a wall clock and attributed to its event kind, and
    /// every pop to `sched`. This costs four `Instant` reads per event
    /// (two in the dispatch, two in the pop), so it is off by default and
    /// intended for per-layer diagnosis (`perfbench`), not routine runs. It
    /// never affects simulation results — only wall-clock accounting.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(SimProfiler::new(&PROFILE_LABELS));
    }

    /// The profiler's attribution so far, if enabled.
    pub fn profile_snapshot(&self) -> Option<ProfileSnapshot> {
        self.profiler.as_ref().map(SimProfiler::snapshot)
    }

    /// The trace collected on `link`, if tracing was enabled.
    pub fn trace(&self, link: LinkId) -> Option<&BandwidthTrace> {
        self.core.traces[link.index()].as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// Read-only topology access (byte counters, drop counters).
    pub fn topology(&self) -> &Topology {
        &self.core.topo
    }

    /// Immutable access to a registered agent, downcast to its concrete
    /// type.
    ///
    /// # Panics
    /// Panics if the id is stale or the type does not match.
    pub fn agent<A: Agent>(&self, id: AgentId) -> &A {
        let a = self.agents[id.0]
            .agent
            .as_ref()
            .expect("agent is not currently executing");
        let any: &dyn Any = a.as_ref();
        any.downcast_ref::<A>().expect("agent type mismatch")
    }

    /// Mutable access to a registered agent (e.g. to reconfigure between
    /// phases of an experiment).
    pub fn agent_mut<A: Agent>(&mut self, id: AgentId) -> &mut A {
        let a = self.agents[id.0]
            .agent
            .as_mut()
            .expect("agent is not currently executing");
        let any: &mut dyn Any = a.as_mut();
        any.downcast_mut::<A>().expect("agent type mismatch")
    }

    fn start_agents(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.agents.len() {
            if self.profiler.is_some() {
                let t0 = std::time::Instant::now();
                self.with_agent(i, |agent, ctx| agent.start(ctx));
                let ns = t0.elapsed().as_nanos() as u64;
                if let Some(p) = self.profiler.as_mut() {
                    p.record(PROFILE_AGENT_START, ns);
                }
            } else {
                self.with_agent(i, |agent, ctx| agent.start(ctx));
            }
        }
    }

    /// Temporarily removes an agent from its slot so it can borrow the
    /// core mutably through an [`AgentCtx`].
    fn with_agent<R>(
        &mut self,
        idx: usize,
        f: impl FnOnce(&mut Box<dyn Agent>, &mut AgentCtx<'_>) -> R,
    ) -> R {
        let mut agent = self.agents[idx]
            .agent
            .take()
            .expect("agent handler reentrancy");
        let mut ctx = AgentCtx {
            core: &mut self.core,
            id: AgentId(idx),
        };
        let r = f(&mut agent, &mut ctx);
        self.agents[idx].agent = Some(agent);
        r
    }

    /// Dispatches one already-popped event, timing it when the profiler
    /// is enabled.
    fn dispatch(&mut self, ev: Popped) {
        debug_assert!(ev.at >= self.core.now, "time went backwards");
        self.core.now = ev.at;
        self.core.seq = ev.seq;
        self.core.stats.events += 1;
        if self.profiler.is_some() {
            // Label indices match PROFILE_LABELS order.
            let label = match ev.kind {
                PoppedKind::ChannelIdle { .. } => 0,
                PoppedKind::Deliver(_) => 1,
                PoppedKind::Timer { .. } => 2,
                PoppedKind::Message { .. } => 3,
                PoppedKind::Fault { .. } => 4,
            };
            let t0 = std::time::Instant::now();
            self.dispatch_kind(ev.kind);
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(p) = self.profiler.as_mut() {
                p.record(label, ns);
            }
        } else {
            self.dispatch_kind(ev.kind);
        }
    }

    /// The dispatch body proper (separate so [`Simulator::dispatch`] can
    /// wrap it with wall-clock attribution).
    fn dispatch_kind(&mut self, kind: PoppedKind) {
        match kind {
            PoppedKind::ChannelIdle { link } => {
                self.core.topo.channels[link.index()].armed = false;
                self.core.start_tx(link);
            }
            PoppedKind::Deliver(dv) => {
                // A stale epoch means the carrying link went down after
                // serialization began: the packet was cut on the wire.
                if dv.via != LinkId::NONE
                    && self.core.topo.channels[dv.via.index()].epoch != dv.epoch
                {
                    self.core.stats.dropped += 1;
                    self.core.topo.channels[dv.via.index()].packets_dropped += 1;
                    if let Some(sink) = self.core.sink.as_mut() {
                        sink.record(&TelemetryEvent::Drop {
                            t_ns: self.core.now.as_nanos(),
                            link: dv.via.index() as u32,
                            flow: dv.pkt.flow.0,
                            reason: DropReason::LinkCut,
                        });
                    }
                    return;
                }
                let (node, p) = (dv.node, dv.pkt);
                match self.core.topo.nodes[node.index()].kind {
                    NodeKind::Switch => self.core.forward(node, p),
                    NodeKind::Host => match self.core.bound_agent(p.flow, node) {
                        Some(agent) => {
                            self.core.stats.delivered += 1;
                            self.with_agent(agent.0, |a, ctx| a.on_packet(ctx, p));
                        }
                        None => {
                            // No transport bound: the packet is dropped
                            // at the host (like a RST-less closed port).
                            self.core.stats.dropped += 1;
                            if let Some(sink) = self.core.sink.as_mut() {
                                sink.record(&TelemetryEvent::Drop {
                                    t_ns: self.core.now.as_nanos(),
                                    link: TelemetryEvent::NO_LINK,
                                    flow: p.flow.0,
                                    reason: DropReason::Unbound,
                                });
                            }
                        }
                    },
                }
            }
            PoppedKind::Timer { agent, token } => {
                if token == SLOT_TOKEN && !self.core.slot_due(agent) {
                    return;
                }
                self.with_agent(agent as usize, |a, ctx| a.on_timer(ctx, token));
            }
            PoppedKind::Message { to, from, token } => {
                self.with_agent(to as usize, |a, ctx| {
                    a.on_message(ctx, AgentId(from as usize), token)
                });
            }
            PoppedKind::Fault { index } => {
                self.core.apply_fault(index as usize);
            }
        }
    }

    /// Pops the next event if it fires at or before `deadline`,
    /// attributing the pop's wall-clock to the `sched` profiler label
    /// when profiling (only successful pops are recorded, so
    /// `sched.events` matches the dispatched-event count).
    fn profiled_pop(&mut self, deadline: SimTime) -> Option<Popped> {
        if self.profiler.is_some() {
            let t0 = std::time::Instant::now();
            let ev = self.core.events.pop_event_before(deadline);
            let ns = t0.elapsed().as_nanos() as u64;
            if ev.is_some() {
                if let Some(p) = self.profiler.as_mut() {
                    p.record(PROFILE_SCHED, ns);
                }
            }
            ev
        } else {
            self.core.events.pop_event_before(deadline)
        }
    }

    /// Processes a single event if it fires at or before `deadline`.
    /// Returns `false` when the queue is empty or the next event is later
    /// than the deadline.
    fn step(&mut self, deadline: SimTime) -> bool {
        match self.profiled_pop(deadline) {
            Some(ev) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains. Calls every agent's
    /// [`Agent::start`] first.
    pub fn run(&mut self) {
        self.start_agents();
        while self.step(SimTime::MAX) {}
    }

    /// Runs until the queue drains or simulated time would pass
    /// `deadline`; events after the deadline remain queued (the clock is
    /// left at `deadline` if the first pending event is later).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_agents();
        while self.step(deadline) {}
        if self.core.now < deadline {
            self.core.now = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Bandwidth, LinkSpec};
    use crate::packet::SegmentHeader;
    use crate::queue::QueueKind;
    use crate::topology::TopologyBuilder;

    /// Sends `pkts` MTU packets at start; counts echoes back.
    struct Pinger {
        peer: NodeId,
        flow: FlowId,
        pkts: u32,
        echoes: u32,
        last_echo_at: SimTime,
    }

    impl Agent for Pinger {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            let me = ctx.node();
            for i in 0..self.pkts {
                ctx.send(Packet::data(
                    self.flow,
                    me,
                    self.peer,
                    u64::from(i) * 1500,
                    1500,
                ));
            }
        }
        fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
            assert!(pkt.is_ack());
            self.echoes += 1;
            self.last_echo_at = ctx.now();
        }
    }

    /// Acks every data packet back to its source.
    struct Echoer {
        received: u64,
    }

    impl Agent for Echoer {
        fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
            if let SegmentHeader::Data { seq, len } = pkt.header {
                self.received += u64::from(len);
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

    fn two_host_sim(rate: Bandwidth, delay: SimDuration, loss: f64) -> (Simulator, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let spec = LinkSpec::new(rate, delay).with_loss(loss);
        b.link(h0, h1, spec);
        (Simulator::new(b.build().unwrap(), 1), h0, h1)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(10), 0.0);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 10,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger); // acks arrive at h0
        sim.bind_flow(flow, echoer); // data arrives at h1
        sim.run();
        assert_eq!(sim.agent::<Pinger>(pinger).echoes, 10);
        assert_eq!(sim.agent::<Echoer>(echoer).received, 15_000);
        // Sanity: RTT floor = 2 × 10 µs propagation + serialization.
        assert!(sim.agent::<Pinger>(pinger).last_echo_at > SimTime(20_000));
    }

    #[test]
    fn serialization_spaces_packets_at_line_rate() {
        // 1540 B at 1 Gbps = 12.32 µs per packet. Ten packets back-to-back
        // finish serializing at ≈ 123.2 µs; last arrival = + 5 µs prop.
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.0);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 10,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        sim.run();
        // Last data arrival at h1: 10 × 12.32 µs + 5 µs = 128.2 µs.
        // Ack (40 B = 0.32 µs) + 5 µs back: last echo ≈ 133.52 µs.
        let t = sim.agent::<Pinger>(pinger).last_echo_at;
        assert!(
            (133_000..135_000).contains(&t.as_nanos()),
            "last echo at {t}"
        );
    }

    #[test]
    fn random_loss_applies_to_data_and_acks() {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(5), 0.5);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 200,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        sim.run();
        let got = u64::from(sim.agent::<Pinger>(pinger).echoes);
        let delivered_data = sim.agent::<Echoer>(echoer).received / 1500;
        // Each round trip crosses the lossy wire twice (p = .5 per
        // crossing, acks included): ~100 data arrivals, ~50 echoes.
        assert!((60..140).contains(&delivered_data), "data={delivered_data}");
        assert!((25..80).contains(&got), "echoes={got}");
        // Some acks must have been lost on the way back.
        assert!(got < delivered_data, "echoes={got} data={delivered_data}");
    }

    /// Drop patterns on a link depend only on that link's own packet
    /// sequence: adding traffic on a *different* link (which perturbs the
    /// global event interleaving) must not change which packets drop.
    #[test]
    fn loss_draws_are_per_link() {
        let run = |with_cross_traffic: bool| -> u32 {
            // A star: h0→sw is the measured lossy link; h2→sw is a
            // *different* lossy link whose draws must not perturb it.
            let mut b = TopologyBuilder::new();
            let h0 = b.host("h0");
            let h1 = b.host("h1");
            let h2 = b.host("h2");
            let h3 = b.host("h3");
            let sw = b.switch("sw");
            let spec = LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(5));
            b.directed(h0, sw, spec.with_loss(0.3));
            b.directed(sw, h0, spec);
            b.link(h1, sw, spec);
            b.directed(h2, sw, spec.with_loss(0.5));
            b.directed(sw, h2, spec);
            b.link(h3, sw, spec);
            let mut sim = Simulator::new(b.build().unwrap(), 123);
            let flow = FlowId(1);
            let pinger = sim.add_agent(
                h0,
                Pinger {
                    peer: h1,
                    flow,
                    pkts: 300,
                    echoes: 0,
                    last_echo_at: SimTime::ZERO,
                },
            );
            let echoer = sim.add_agent(h1, Echoer { received: 0 });
            sim.bind_flow(flow, pinger);
            sim.bind_flow(flow, echoer);
            if with_cross_traffic {
                let flow2 = FlowId(2);
                let p2 = sim.add_agent(
                    h2,
                    Pinger {
                        peer: h3,
                        flow: flow2,
                        pkts: 250,
                        echoes: 0,
                        last_echo_at: SimTime::ZERO,
                    },
                );
                let e2 = sim.add_agent(h3, Echoer { received: 0 });
                sim.bind_flow(flow2, p2);
                sim.bind_flow(flow2, e2);
            }
            sim.run();
            sim.agent::<Pinger>(pinger).echoes
        };
        assert_eq!(run(false), run(true));
    }

    use crate::fault::{FaultPlan, GilbertElliott, LossModel};

    fn pingpong_with_plan(plan: &FaultPlan, pkts: u32) -> (Simulator, AgentId, AgentId) {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.0);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        sim.install_faults(plan);
        sim.run();
        (sim, pinger, echoer)
    }

    #[test]
    fn link_down_cuts_wire_and_queue_up_resumes() {
        // 1540 B at 1 Gbps = 12.32 µs per packet; 20 packets are sent at
        // t = 0. Down at 30 µs: packets 0–1 delivered, the serializing
        // third is cut mid-flight, the rest are drained from the queue.
        let l = LinkId(0);
        let plan =
            FaultPlan::new().link_flap(l, SimTime::from_secs_f64(30e-6), SimDuration::millis(1));
        let (sim, pinger, echoer) = pingpong_with_plan(&plan, 20);
        assert_eq!(sim.agent::<Pinger>(pinger).echoes, 2);
        assert_eq!(sim.agent::<Echoer>(echoer).received, 2 * 1500);
        // 18 lost: 17 drained + 1 cut on the wire.
        assert_eq!(sim.topology().channels[0].packets_dropped, 18);
        assert!(sim.topology().channels[0].up);
    }

    #[test]
    fn traffic_queued_during_outage_flows_after_repair() {
        struct LateSender {
            peer: NodeId,
            flow: FlowId,
        }
        impl Agent for LateSender {
            fn start(&mut self, ctx: &mut AgentCtx<'_>) {
                // Send while the link is down (armed below at 50 µs).
                ctx.set_timer(SimDuration::micros(50), 1);
            }
            fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _token: u64) {
                let me = ctx.node();
                for i in 0..3u64 {
                    ctx.send(Packet::data(self.flow, me, self.peer, i * 1500, 1500));
                }
            }
        }
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.0);
        let flow = FlowId(1);
        sim.add_agent(h0, LateSender { peer: h1, flow });
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, echoer);
        let plan = FaultPlan::new().link_flap(
            LinkId(0),
            SimTime::from_secs_f64(10e-6),
            SimDuration::micros(200),
        );
        sim.install_faults(&plan);
        sim.run();
        // All three packets queued during the outage and crossed after
        // the 210 µs repair.
        assert_eq!(sim.agent::<Echoer>(echoer).received, 3 * 1500);
        assert!(sim.now() > SimTime::from_secs_f64(210e-6));
    }

    #[test]
    fn brownout_slows_serialization_then_recovers() {
        let run = |plan: &FaultPlan| {
            let (sim, pinger, _) = pingpong_with_plan(plan, 50);
            assert_eq!(sim.agent::<Pinger>(pinger).echoes, 50);
            sim.agent::<Pinger>(pinger).last_echo_at
        };
        let clean = run(&FaultPlan::new());
        // Quarter rate for 300 µs starting at 10 µs.
        let slow = run(&FaultPlan::new().brownout(
            LinkId(0),
            SimTime::from_secs_f64(10e-6),
            SimDuration::micros(300),
            0.25,
        ));
        // The brownout stretches the transfer but loses nothing: during
        // the 300 µs window only 75 µs of work completes, a 225 µs delay.
        assert!(
            slow > clean + SimDuration::micros(180),
            "clean={clean} slow={slow}"
        );
    }

    #[test]
    fn loss_window_swaps_model_and_restores() {
        // A total-loss window over the whole burst, then repeat clean.
        let burst = GilbertElliott {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            loss_good: 1.0,
            loss_bad: 1.0,
        };
        let plan = FaultPlan::new().loss_window(
            LinkId(0),
            SimTime::ZERO,
            SimDuration::micros(100),
            LossModel::GilbertElliott(burst),
        );
        let (sim, pinger, _) = pingpong_with_plan(&plan, 20);
        // 100 µs at 12.32 µs/packet: the first 9 serializations start (and
        // drop) inside the window; the rest cross after RestoreLoss.
        let got = sim.agent::<Pinger>(pinger).echoes;
        assert!((10..20).contains(&got), "echoes={got}");
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let observables = || {
            let plan = FaultPlan::new()
                .link_flap(
                    LinkId(0),
                    SimTime::from_secs_f64(40e-6),
                    SimDuration::micros(80),
                )
                .loss_window(
                    LinkId(0),
                    SimTime::from_secs_f64(200e-6),
                    SimDuration::micros(200),
                    LossModel::GilbertElliott(GilbertElliott::bursty(0.2, 0.3, 0.9)),
                );
            let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.1);
            let flow = FlowId(1);
            let pinger = sim.add_agent(
                h0,
                Pinger {
                    peer: h1,
                    flow,
                    pkts: 100,
                    echoes: 0,
                    last_echo_at: SimTime::ZERO,
                },
            );
            let echoer = sim.add_agent(h1, Echoer { received: 0 });
            sim.bind_flow(flow, pinger);
            sim.bind_flow(flow, echoer);
            sim.install_faults(&plan);
            sim.run();
            (
                sim.agent::<Pinger>(pinger).echoes,
                sim.stats().dropped,
                sim.stats().events,
                sim.now(),
            )
        };
        assert_eq!(observables(), observables());
    }

    /// Installing a telemetry sink must not change a single observable:
    /// same echoes, drops, event count, and final clock as a bare run —
    /// while the recorder sees every drop the stats counted.
    #[test]
    fn telemetry_sink_observes_without_perturbing() {
        use mltcp_telemetry::RingRecorder;
        let run = |with_sink: bool| {
            let plan = FaultPlan::new()
                .link_flap(
                    LinkId(0),
                    SimTime::from_secs_f64(40e-6),
                    SimDuration::micros(80),
                )
                .loss_window(
                    LinkId(0),
                    SimTime::from_secs_f64(200e-6),
                    SimDuration::micros(200),
                    LossModel::GilbertElliott(GilbertElliott::bursty(0.2, 0.3, 0.9)),
                );
            let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.1);
            let flow = FlowId(1);
            let pinger = sim.add_agent(
                h0,
                Pinger {
                    peer: h1,
                    flow,
                    pkts: 100,
                    echoes: 0,
                    last_echo_at: SimTime::ZERO,
                },
            );
            let echoer = sim.add_agent(h1, Echoer { received: 0 });
            sim.bind_flow(flow, pinger);
            sim.bind_flow(flow, echoer);
            sim.install_faults(&plan);
            if with_sink {
                sim.set_sink(Box::new(RingRecorder::new(1 << 16)));
            }
            sim.run();
            let recorder = sim.take_sink().map(|s| {
                *s.into_any()
                    .downcast::<RingRecorder>()
                    .expect("ring recorder")
            });
            (
                sim.agent::<Pinger>(pinger).echoes,
                sim.stats().dropped,
                sim.stats().events,
                sim.now(),
                recorder,
            )
        };
        let (e0, d0, n0, t0, none) = run(false);
        let (e1, d1, n1, t1, some) = run(true);
        assert!(none.is_none());
        assert_eq!((e0, d0, n0, t0), (e1, d1, n1, t1), "sink perturbed the run");
        let rec = some.expect("recorder returned");
        assert_eq!(rec.overwritten(), 0, "ring too small for this test");
        let drop_events = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Drop { .. }))
            .count() as u64;
        assert_eq!(drop_events, d1, "every counted drop must be recorded");
        let faults = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::Fault { .. }))
            .count();
        // link_flap = down + up; loss_window = set + restore.
        assert_eq!(faults, 4);
    }

    /// The profiler attributes every dispatched event (plus agent
    /// start-up) and leaves results untouched.
    #[test]
    fn profiler_attributes_all_events() {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(10), 0.0);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 10,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        sim.enable_profiler();
        sim.run();
        assert_eq!(sim.agent::<Pinger>(pinger).echoes, 10);
        let snap = sim.profile_snapshot().expect("profiler enabled");
        let agent_starts = snap.find("agent_start").expect("agent_start label");
        assert_eq!(agent_starts.events, 2);
        // Every dispatched event is attributed twice — once to its kind,
        // once to the scheduler pop that produced it — plus agent starts.
        let sched = snap.find("sched").expect("sched label");
        assert_eq!(sched.events, sim.stats().events);
        assert_eq!(
            snap.total_events(),
            2 * sim.stats().events + agent_starts.events
        );
        let delivers = snap.find("deliver").unwrap();
        assert_eq!(delivers.events, 20); // 10 data + 10 acks

        // Each of the first nine data packets departs with the next one
        // queued behind it; the tenth and every ack leave an empty queue,
        // so their departures are not events.
        assert_eq!(snap.find("channel_idle").unwrap().events, 9);
    }

    #[test]
    fn lone_packet_schedules_no_departure() {
        let (sim, pinger, _) = pingpong_with_plan(&FaultPlan::new(), 1);
        assert_eq!(sim.agent::<Pinger>(pinger).echoes, 1);
        // The data delivery and the ack delivery; no `ChannelIdle`.
        assert_eq!(sim.stats().events, 2);
    }

    /// A packet that reaches a channel at exactly the instant its
    /// serializer frees up sees it busy if its event sorts before the
    /// departure's `(time, seq)` key and idle if after, whether or not
    /// the departure is an event. Before: the low-priority packet queues
    /// behind the departing one, and the urgent packet that follows
    /// overtakes it. After: it goes straight onto the wire and the urgent
    /// packet waits behind it.
    #[test]
    fn arrival_at_departure_instant_follows_the_event_order() {
        struct TieSender {
            peer: NodeId,
            tie: SimDuration,
            timer_first: bool,
        }
        impl Agent for TieSender {
            fn start(&mut self, ctx: &mut AgentCtx<'_>) {
                let me = ctx.node();
                // The timer's seq sorts before or after the departure seq
                // that sending reserves.
                if self.timer_first {
                    ctx.set_timer(self.tie, 0);
                }
                ctx.send(Packet::data(FlowId(1), me, self.peer, 0, 1000).with_priority(1000));
                if !self.timer_first {
                    ctx.set_timer(self.tie, 0);
                }
            }
            fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _token: u64) {
                let me = ctx.node();
                ctx.send(Packet::data(FlowId(1), me, self.peer, 1000, 1000).with_priority(1000));
                ctx.send(Packet::data(FlowId(2), me, self.peer, 2000, 1000).with_priority(1));
            }
        }
        struct Recorder {
            seqs: Vec<u64>,
        }
        impl Agent for Recorder {
            fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, pkt: Packet) {
                if let SegmentHeader::Data { seq, .. } = pkt.header {
                    self.seqs.push(seq);
                }
            }
        }
        let order = |timer_first: bool| {
            let rate = Bandwidth::mbps(1);
            let mut b = TopologyBuilder::new();
            let h0 = b.host("h0");
            let h1 = b.host("h1");
            let spec = LinkSpec::new(rate, SimDuration::micros(1))
                .with_queue(QueueKind::StrictPriority { cap_bytes: 100_000 });
            b.link(h0, h1, spec);
            let mut sim = Simulator::new(b.build().unwrap(), 0);
            let wire = Packet::data(FlowId(1), h0, h1, 0, 1000).wire_bytes;
            sim.add_agent(
                h0,
                TieSender {
                    peer: h1,
                    tie: rate.tx_time(wire),
                    timer_first,
                },
            );
            let rec = sim.add_agent(h1, Recorder { seqs: vec![] });
            sim.bind_flow(FlowId(1), rec);
            sim.bind_flow(FlowId(2), rec);
            sim.run();
            sim.agent::<Recorder>(rec).seqs.clone()
        };
        assert_eq!(
            order(true),
            vec![0, 2000, 1000],
            "queued behind the departure"
        );
        assert_eq!(order(false), vec![0, 1000, 2000], "cut through after it");
    }

    #[test]
    fn unbound_flow_counts_as_drop() {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(5), 0.0);
        let flow = FlowId(9);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 3,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        sim.bind_flow(flow, pinger);
        // No agent at h1.
        sim.run();
        assert_eq!(sim.stats().dropped, 3);
        assert_eq!(sim.agent::<Pinger>(pinger).echoes, 0);
    }

    #[test]
    fn host_local_sends_arrive_after_the_handler_and_survive_link_down() {
        /// Sends three packets to its own host from a timer handler and
        /// logs the handler's end and each arrival.
        struct SelfSender {
            flow: FlowId,
            log: Vec<(String, SimTime)>,
        }
        impl Agent for SelfSender {
            fn start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(SimDuration::micros(100), 1);
            }
            fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
                let SegmentHeader::Data { seq, .. } = pkt.header else {
                    panic!("expected data");
                };
                self.log.push((format!("pkt {seq}"), ctx.now()));
            }
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _token: u64) {
                let me = ctx.node();
                for i in 0..3u64 {
                    ctx.send(Packet::data(self.flow, me, me, i * 1500, 1500));
                }
                self.log.push(("handler done".into(), ctx.now()));
            }
        }
        let (mut sim, h0, _h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.0);
        let flow = FlowId(1);
        let a = sim.add_agent(h0, SelfSender { flow, log: vec![] });
        sim.bind_flow(flow, a);
        // Queue the timer first, so both of the host's channels go down
        // after the sends and before their deliveries pop.
        let t = SimTime(100_000);
        sim.run_until(SimTime(99_000));
        let plan = FaultPlan::new()
            .link_flap(LinkId(0), t, SimDuration::millis(1))
            .link_flap(LinkId(1), t, SimDuration::millis(1));
        sim.install_faults(&plan);
        sim.run();
        let log = &sim.agent::<SelfSender>(a).log;
        let expected = ["handler done", "pkt 0", "pkt 1500", "pkt 3000"];
        assert_eq!(
            log.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            expected
        );
        assert!(log.iter().all(|&(_, at)| at == t), "{log:?}");
        assert_eq!(sim.stats().delivered, 3);
        assert_eq!(sim.stats().dropped, 0);
    }

    struct TimerAgent {
        fired: Vec<(u64, SimTime)>,
    }
    impl Agent for TimerAgent {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.set_timer(SimDuration::millis(5), 1);
            ctx.set_timer(SimDuration::millis(1), 2);
        }
        fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
            self.fired.push((token, ctx.now()));
            if token == 2 {
                ctx.set_timer(SimDuration::millis(10), 3);
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_can_rearm() {
        let (mut sim, h0, _h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(5), 0.0);
        let a = sim.add_agent(h0, TimerAgent { fired: vec![] });
        sim.run();
        let fired = &sim.agent::<TimerAgent>(a).fired;
        assert_eq!(
            fired,
            &vec![
                (2, SimTime(1_000_000)),
                (1, SimTime(5_000_000)),
                (3, SimTime(11_000_000)),
            ]
        );
    }

    /// Sends `pkts` packets at start and re-arms a 1 ms timer slot on
    /// every echo; records each re-arm and each time the slot fires.
    struct Watchdog {
        peer: NodeId,
        pkts: u32,
        rearms: Vec<SimTime>,
        fired: Vec<SimTime>,
    }

    impl Agent for Watchdog {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            let me = ctx.node();
            for i in 0..self.pkts {
                let seq = u64::from(i) * 1500;
                ctx.send(Packet::data(FlowId(1), me, self.peer, seq, 1500));
            }
        }
        fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, _pkt: Packet) {
            self.rearms.push(ctx.now());
            ctx.rearm_timer(SimDuration::millis(1));
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
            assert_eq!(token, SLOT_TOKEN);
            self.fired.push(ctx.now());
        }
    }

    /// A slot re-armed on each of 1,000 echoes spread over 10 ms fires
    /// once, 1 ms after the last re-arm, and its one queued event pops
    /// about once per millisecond rather than once per re-arm.
    #[test]
    fn rearmed_slot_fires_once_and_pops_once_per_interval() {
        // 1540 wire bytes at 1232 Mbps take 10 µs, so the echoes arrive
        // 10 µs apart.
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let spec = LinkSpec::new(Bandwidth::mbps(1232), SimDuration::micros(5)).with_queue(
            QueueKind::DropTail {
                cap_bytes: 2_000_000,
            },
        );
        b.link(h0, h1, spec);
        let mut sim = Simulator::new(b.build().unwrap(), 1);
        let dog = sim.add_agent(
            h0,
            Watchdog {
                peer: h1,
                pkts: 1000,
                rearms: vec![],
                fired: vec![],
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(FlowId(1), dog);
        sim.bind_flow(FlowId(1), echoer);
        sim.enable_profiler();
        sim.run();

        let w = sim.agent::<Watchdog>(dog);
        assert_eq!(w.rearms.len(), 1000);
        let (first, last) = (w.rearms[0], *w.rearms.last().unwrap());
        assert_eq!(w.fired, vec![last + SimDuration::millis(1)]);
        let span = (last - first).as_nanos();
        assert!(span > 9_900_000, "echoes span {span} ns");
        // The first pop is 1 ms after the first re-arm. Each pop before
        // the deadline moves the event to the latest re-arm + 1 ms, at
        // least `1 ms - gap` later, and the last such pop precedes the
        // last re-arm + 1 ms. With the one firing pop, that bounds the
        // count below `span / (1 ms - gap) + 2`.
        let gap = w
            .rearms
            .windows(2)
            .map(|p| (p[1] - p[0]).as_nanos())
            .max()
            .unwrap();
        let timers = sim
            .profile_snapshot()
            .unwrap()
            .find("timer")
            .unwrap()
            .events;
        assert!(
            (timers - 2) * (1_000_000 - gap) < span,
            "{timers} timer events over {span} ns with {gap} ns gaps"
        );
    }

    struct Caller {
        callee: Option<AgentId>,
        replies: u32,
    }
    impl Agent for Caller {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            if let Some(c) = self.callee {
                ctx.send_message(c, 42);
            }
        }
        fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, token: u64) {
            if self.callee.is_some() {
                assert_eq!(token, 43);
                self.replies += 1;
            } else {
                assert_eq!(token, 42);
                ctx.send_message(from, 43);
            }
        }
    }

    #[test]
    fn agent_messaging_round_trip() {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(5), 0.0);
        let callee = sim.add_agent(
            h1,
            Caller {
                callee: None,
                replies: 0,
            },
        );
        let caller = sim.add_agent(
            h0,
            Caller {
                callee: Some(callee),
                replies: 0,
            },
        );
        sim.run();
        assert_eq!(sim.agent::<Caller>(caller).replies, 1);
    }

    #[test]
    fn run_until_stops_the_clock() {
        let (mut sim, h0, _h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(5), 0.0);
        sim.add_agent(h0, TimerAgent { fired: vec![] });
        sim.run_until(SimTime(2_000_000));
        assert_eq!(sim.now(), SimTime(2_000_000));
        // Timer 1 (5 ms) still pending; continue.
        sim.run();
        assert_eq!(sim.now(), SimTime(11_000_000));
    }

    /// Record of everything observable about a ping-pong run, for
    /// equivalence checks between run schedules.
    fn lossy_pingpong_observables(
        seed: u64,
        split: Option<&[SimTime]>,
    ) -> (u32, SimTime, u64, u64, u64, SimTime) {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.link(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(1), SimDuration::micros(5)).with_loss(0.2),
        );
        let mut sim = Simulator::new(b.build().unwrap(), seed);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 300,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        if let Some(deadlines) = split {
            for &d in deadlines {
                sim.run_until(d);
            }
        }
        sim.run();
        let p = sim.agent::<Pinger>(pinger);
        (
            p.echoes,
            p.last_echo_at,
            sim.stats().events,
            sim.stats().delivered,
            sim.stats().dropped,
            sim.now(),
        )
    }

    /// `run_until` must be a pure pause point: slicing a run into
    /// arbitrary `run_until` segments plus a final `run` yields the same
    /// events, deliveries, drops, RNG draws, and agent state as one
    /// uninterrupted `run`.
    #[test]
    fn run_until_then_run_equals_single_run() {
        let whole = lossy_pingpong_observables(99, None);
        let deadlines = [
            SimTime::from_secs_f64(100e-6),
            SimTime::from_secs_f64(1e-3),
            SimTime::from_secs_f64(2e-3),
        ];
        let sliced = lossy_pingpong_observables(99, Some(&deadlines));
        // A deadline past the last event advances the final clock; every
        // other observable must be identical.
        assert_eq!(whole.0, sliced.0, "echo count diverged");
        assert_eq!(whole.1, sliced.1, "last echo time diverged");
        assert_eq!(whole.2, sliced.2, "event count diverged");
        assert_eq!(whole.3, sliced.3, "delivered count diverged");
        assert_eq!(whole.4, sliced.4, "dropped count diverged");
        assert_eq!(whole.5, sliced.5, "final clock diverged");
    }

    #[test]
    fn rebinding_a_flow_replaces_the_agent() {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(10), SimDuration::micros(5), 0.0);
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            h0,
            Pinger {
                peer: h1,
                flow,
                pkts: 5,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let dead = sim.add_agent(h1, Echoer { received: 0 });
        let live = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, dead);
        sim.bind_flow(flow, live); // rebinding replaces, not duplicates
        sim.run();
        assert_eq!(sim.agent::<Echoer>(dead).received, 0);
        assert_eq!(sim.agent::<Echoer>(live).received, 7_500);
        assert_eq!(sim.agent::<Pinger>(pinger).echoes, 5);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> (u64, u64, u64) {
            let mut b = TopologyBuilder::new();
            let h0 = b.host("h0");
            let h1 = b.host("h1");
            b.link(
                h0,
                h1,
                LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(5)).with_loss(0.3),
            );
            let mut sim = Simulator::new(b.build().unwrap(), seed);
            let flow = FlowId(1);
            let pinger = sim.add_agent(
                h0,
                Pinger {
                    peer: h1,
                    flow,
                    pkts: 500,
                    echoes: 0,
                    last_echo_at: SimTime::ZERO,
                },
            );
            let echoer = sim.add_agent(h1, Echoer { received: 0 });
            sim.bind_flow(flow, pinger);
            sim.bind_flow(flow, echoer);
            sim.run();
            (
                u64::from(sim.agent::<Pinger>(pinger).echoes),
                sim.stats().dropped,
                sim.now().as_nanos(),
            )
        };
        assert_eq!(run(77), run(77));
        // Different seeds should differ in at least one observable.
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn bandwidth_trace_on_bottleneck() {
        use crate::topology::{build_dumbbell, DumbbellSpec};
        let (topo, d) = build_dumbbell(DumbbellSpec {
            pairs: 1,
            ..DumbbellSpec::default()
        });
        let mut sim = Simulator::new(topo, 3);
        sim.enable_trace(d.bottleneck, SimDuration::millis(1));
        let flow = FlowId(1);
        let pinger = sim.add_agent(
            d.senders[0],
            Pinger {
                peer: d.receivers[0],
                flow,
                pkts: 100,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        let echoer = sim.add_agent(d.receivers[0], Echoer { received: 0 });
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        sim.run();
        let trace = sim.trace(d.bottleneck).unwrap();
        assert_eq!(trace.flow_bytes(flow), 100 * 1540);
    }

    #[test]
    #[should_panic(expected = "hosts, not switches")]
    fn agents_cannot_attach_to_switches() {
        use crate::topology::{build_dumbbell, DumbbellSpec};
        let (topo, d) = build_dumbbell(DumbbellSpec::default());
        let mut sim = Simulator::new(topo, 0);
        sim.add_agent(d.left_switch, Echoer { received: 0 });
    }

    #[test]
    fn queue_kind_is_respected_per_channel() {
        // A tiny strict-priority bottleneck: the urgent packet wins.
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let spec = LinkSpec::new(Bandwidth::mbps(1), SimDuration::micros(1))
            .with_queue(QueueKind::StrictPriority { cap_bytes: 100_000 });
        b.link(h0, h1, spec);
        let mut sim = Simulator::new(b.build().unwrap(), 0);

        struct PrioBlaster {
            peer: NodeId,
        }
        impl Agent for PrioBlaster {
            fn start(&mut self, ctx: &mut AgentCtx<'_>) {
                let me = ctx.node();
                // Low-urgency flow 1 first (high tag), then urgent flow 2.
                ctx.send(Packet::data(FlowId(1), me, self.peer, 0, 1000).with_priority(1000));
                ctx.send(Packet::data(FlowId(1), me, self.peer, 1000, 1000).with_priority(1000));
                ctx.send(Packet::data(FlowId(2), me, self.peer, 2000, 1000).with_priority(1));
            }
            fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
        }
        struct Recorder {
            seqs: Vec<u64>,
        }
        impl Agent for Recorder {
            fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, pkt: Packet) {
                if let SegmentHeader::Data { seq, .. } = pkt.header {
                    self.seqs.push(seq);
                }
            }
        }
        sim.add_agent(h0, PrioBlaster { peer: h1 });
        let rec = sim.add_agent(h1, Recorder { seqs: vec![] });
        sim.bind_flow(FlowId(1), rec);
        sim.bind_flow(FlowId(2), rec);
        sim.run();
        // First packet serializes immediately (already in flight), but
        // the urgent flow-2 packet overtakes flow 1's queued seq-1000.
        assert_eq!(sim.agent::<Recorder>(rec).seqs, vec![0, 2000, 1000]);
    }
}
