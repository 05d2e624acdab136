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
//! * A packet that reaches an idle, up channel with an empty queue goes
//!   straight onto the wire (cut-through).
//! * All ties are broken deterministically (see [`crate::event`]).
//!
//! ## Folded hops
//!
//! In the dumbbell every data segment crosses sender edge, bottleneck and
//! receiver edge, and every ack the reverse. The receiver edge is fed by
//! the bottleneck alone, and the sender edge by the reverse bottleneck
//! alone, so the switch arrival in front of each is a pure hand-off: the
//! packet nearly always cuts through onto an idle edge that nothing else
//! touches. When
//! the run starts, the simulator finds every such *single-fed host edge*
//! `c` (switch → host): a drop-tail queue, no random loss, no fault
//! installed on `c` or on its feeder, and exactly one ingress channel `g`
//! on the routes between the hosts where each flow is bound.
//!
//! When `g` serializes a packet whose far switch forwards it onto `c`,
//! the hop folds if `c` is up, empty and idle at the packet's
//! switch-arrival key and no arrival toward `c` that did not fold is
//! still in flight. Nothing else can change `c` before the packet
//! arrives: only `g` feeds it, and no fault touches either. So the
//! packet is serialized onto `c` at its switch-arrival time right away
//! and only the host delivery is scheduled; the switch arrival is not an
//! event. Otherwise the arrival is scheduled as before, and the next
//! packet for `c` folds only once it has popped.
//!
//! Every seq is reserved in the same order as before except the folded
//! hop's own: `c`'s departure and the host delivery take theirs at the
//! feeder's transmit rather than at the switch arrival. Among events at
//! the host delivery's nanosecond, only those scheduled while the packet
//! was on the feeder can swap with it (see [`crate::event`], *Folded
//! hops*). In the shipped agents none of those changes a result. The
//! receiving host's only ingress is `c`, whose deliveries are FIFO.
//! Messages fire at the instant they are sent, so one sent in that window
//! fires before the delivery. A timer armed in that window swaps only if
//! it is shorter than two hop latencies, the least time from the
//! feeder's transmit to the host delivery. The transports arm one timer,
//! the sender's RTO, and in the workloads it is longer: its 50 µs floor
//! exceeds two 20 µs dumbbell hops. Receivers arm none.
//! A job driver's timer on an ack's receiving host may swap, but the
//! driver and the senders beside it share no state and talk only through
//! messages, which fire after both handlers, so the swap moves nothing
//! but the order of their records within that nanosecond.
//!
//! The edge's departure seq is reserved early too, and matters only when
//! a later, shorter packet reaches the switch while the folded one is
//! still on the edge: it queues and arms that departure. The one event
//! at the departure's nanosecond that touches the edge is then a third
//! packet arriving from the feeder at that very nanosecond. It would now
//! queue just after the departure rather than just before, so the same
//! packets leave at the same times, but its queue sample counts one
//! packet fewer (a drop-tail queue within one packet of its cap could
//! also admit it where the unfolded path drops it). In the benchmark's
//! workloads and the figure binaries no packet ever queues on a
//! single-fed edge; in the fold-equivalence proptest (`mltcp-workload`)
//! a few do, and none meets that tie. Results there, the benchmark's
//! replay hashes and every result file are bit-identical with and
//! without folding.
//!
//! Observers stay exact. The folded hop's one-packet `QueueDepth` sample
//! is held, one FIFO per feeder, until the clock reaches its timestamp,
//! and is recorded before any later record, so a sink sees the same
//! records in time order (records within one nanosecond may come in
//! another order). Folding needs flows to travel only between
//! hosts where they are bound: a packet that reaches a single-fed edge
//! through any other ingress panics, and so does a fault installed on a
//! single-fed edge or its feeder after the run starts.

use crate::event::{Delivery, EventQueue, Popped, PoppedKind};
use crate::fault::{FaultAction, FaultPlan, LossModel, LossState};
use crate::link::LinkId;
use crate::node::{NodeId, NodeKind};
use crate::packet::{FlowId, Packet};
use crate::queue::{EnqueueOutcome, LinkQueue, QueueKind};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::trace::BandwidthTrace;
use mltcp_telemetry::{
    DropReason, FaultKind, ProfileSnapshot, SimProfiler, TelemetryEvent, TelemetrySink,
};
use std::any::Any;
use std::collections::VecDeque;
use std::time::Instant;

/// Labels for the sim-time profiler, in [`SimProfiler::record`] index
/// order: one per event kind, plus agent start-up (counted, not timed),
/// plus the scheduler itself (`sched` times successful pops, so engine
/// overhead is attributed separately from dispatch work).
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

/// Wall-clock nanoseconds since `t0`, for a profiler sample.
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

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
    /// deadline or is dropped (see [`AgentCtx::rearm_timer`]). Nor is
    /// a switch arrival folded into its feeder's transmit (see *Folded
    /// hops* in the module docs): only its host delivery counts.
    pub events: u64,
    /// Packets delivered to host agents.
    pub delivered: u64,
    /// Packets dropped (queue overflow, eviction, random loss, or no
    /// route).
    pub dropped: u64,
}

/// A folded hop's `QueueDepth` sample, held until the clock reaches it
/// (see *Folded hops* in the module docs).
#[derive(Debug, Clone, Copy)]
struct HeldSample {
    at: SimTime,
    link: u32,
    bytes: u32,
}

/// A single-fed host edge's fold state (see *Folded hops* in the module
/// docs). It lives beside the channel rather than in it, which keeps a
/// [`Channel`](crate::link::Channel) at two cache lines.
#[derive(Debug, Clone, Copy)]
struct Fold {
    /// The one channel that feeds the edge.
    feeder: LinkId,
    /// The `(time, seq)` key of the latest switch arrival the feeder
    /// scheduled toward the edge rather than folding: while it is later
    /// than the event being dispatched, that arrival is in flight.
    pending: (SimTime, u64),
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
    /// Per link, for a single-fed host edge: its fold state. Empty when
    /// no edge folds (see *Folded hops* in the module docs).
    folds: Vec<Fold>,
    /// Feeders of single-fed host edges, in link order.
    feeders: Vec<LinkId>,
    /// Per feeder link: the `QueueDepth` samples of its folded hops, in
    /// time order. Filled only while a sink is installed.
    held: Vec<VecDeque<HeldSample>>,
    /// The earliest held sample's time; [`SimTime::MAX`] when none is
    /// held.
    held_due: SimTime,
}

impl SimCore {
    /// The installed sink, if any, once every held sample the clock has
    /// reached is recorded on it. Every record goes through here, so the
    /// sink sees held samples in time order with the rest.
    #[inline]
    fn sink(&mut self) -> Option<&mut Box<dyn TelemetrySink>> {
        self.sink.as_ref()?;
        if self.held_due <= self.now {
            self.release_held(self.now);
        }
        self.sink.as_mut()
    }

    /// Records the held samples at or before `upto` on the sink (dropping
    /// them without one), earliest first across feeders.
    #[cold]
    fn release_held(&mut self, upto: SimTime) {
        loop {
            let next = self
                .feeders
                .iter()
                .filter_map(|f| self.held[f.index()].front().map(|h| (h.at, f.index())))
                .min();
            self.held_due = next.map_or(SimTime::MAX, |(at, _)| at);
            let Some((_, fi)) = next.filter(|&(at, _)| at <= upto) else {
                return;
            };
            let h = self.held[fi].pop_front().expect("a held sample");
            if let Some(sink) = self.sink.as_mut() {
                sink.record(&TelemetryEvent::QueueDepth {
                    t_ns: h.at.as_nanos(),
                    link: h.link,
                    bytes: u64::from(h.bytes),
                    packets: 1,
                });
            }
        }
    }

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
            let now = self.now;
            if let Some(sink) = self.sink() {
                sink.record(&TelemetryEvent::QueueDepth {
                    t_ns: now.as_nanos(),
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
            EnqueueOutcome::Accepted => self.sample_backlog(li, None),
            EnqueueOutcome::AcceptedMarked => self.sample_backlog(li, Some(flow)),
            EnqueueOutcome::DroppedArrival(p) => {
                self.drop_packet(link, p.flow, DropReason::QueueFull);
            }
            EnqueueOutcome::Evicted(victim) => {
                self.drop_packet(link, victim.flow, DropReason::Evicted);
            }
        }
        if !busy {
            self.start_tx(link);
        } else if !self.queues[li].is_empty() {
            self.arm_departure(link);
        }
    }

    /// Records channel `li`'s backlog after an enqueue on the sink, if
    /// one is installed, after the ECN mark of `marked`'s packet if any.
    fn sample_backlog(&mut self, li: usize, marked: Option<FlowId>) {
        if self.sink.is_none() {
            return;
        }
        let t_ns = self.now.as_nanos();
        let (bytes, packets) = (
            self.queues[li].backlog_bytes(),
            self.queues[li].backlog_packets() as u32,
        );
        let link = li as u32;
        let sink = self.sink().expect("a sink is installed");
        if let Some(flow) = marked {
            sink.record(&TelemetryEvent::EcnMark {
                t_ns,
                link,
                flow: flow.0,
            });
        }
        sink.record(&TelemetryEvent::QueueDepth {
            t_ns,
            link,
            bytes,
            packets,
        });
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

    /// Puts `pkt` on idle, up channel `link`'s wire from `start`: counts
    /// and traces it and reserves its departure's seq (the departure
    /// becomes an event only if a packet queues behind this one, see
    /// [`SimCore::arm_departure`]). Returns when it reaches the far node
    /// and the channel's epoch.
    #[inline(always)]
    fn put_on_wire(&mut self, link: LinkId, start: SimTime, pkt: &Packet) -> (SimTime, u32) {
        let li = link.index();
        let ch = &mut self.topo.channels[li];
        debug_assert!(!ch.armed, "transmit with a departure pending");
        let (done, arrival) = ch.serialize_spans(start, pkt.wire_bytes);
        ch.bytes_sent += u64::from(pkt.wire_bytes);
        ch.packets_sent += 1;
        if let Some(trace) = self.traces[li].as_mut() {
            trace.record(done, pkt.flow, pkt.wire_bytes);
        }
        // Reserved before the delivery is scheduled, so an armed
        // departure sorts exactly where an always-scheduled one would and
        // every later event gets the same seq either way (`crate::event`).
        ch.idle_at = done;
        ch.idle_seq = self.events.reserve_seq();
        (arrival, ch.epoch)
    }

    /// Serializes `pkt` on an idle, up channel and schedules its delivery
    /// unless loss fires; a feeder hands it to [`SimCore::feed`] instead.
    /// Shared tail of [`SimCore::start_tx`] and the cut-through path in
    /// [`SimCore::enqueue_on`].
    fn transmit(&mut self, link: LinkId, pkt: Packet) {
        let (arrival, epoch) = self.put_on_wire(link, self.now, &pkt);
        let li = link.index();
        // Loss applies to every packet — acks included: a lossy wire does
        // not know about TCP semantics. Draws come from the link's own
        // stream so drop patterns are interleaving-independent.
        if self.loss[li].drops_packet(&mut self.link_rngs[li]) {
            self.drop_packet(link, pkt.flow, DropReason::RandomLoss);
        } else if self.topo.channels[li].feeds {
            self.feed(link, epoch, arrival, pkt);
        } else {
            self.events.schedule_delivery(arrival, link, epoch, pkt);
        }
    }

    /// Delivers `pkt`, leaving feeder `link`, to its far switch at
    /// `arrival`, folding the switch's hop onto a single-fed host edge
    /// when it can (see *Folded hops* in the module docs). The arrival's
    /// seq is reserved either way, where an unfolded one takes it. Kept
    /// out of line: runs without a single-fed edge never call it.
    #[inline(never)]
    fn feed(&mut self, link: LinkId, epoch: u32, arrival: SimTime, pkt: Packet) {
        let seq = self.events.reserve_seq();
        let switch = self.topo.channels[link.index()].to;
        if let Some(edge) = self.topo.next_hop(switch, pkt.dst) {
            let ei = edge.index();
            let ch = &self.topo.channels[ei];
            if ch.single_fed && self.folds[ei].feeder == link {
                if self.folds[ei].pending <= (self.now, self.seq)
                    && ch.up
                    && !ch.busy(arrival, seq)
                    && self.queues[ei].passes_through(pkt.wire_bytes)
                {
                    if self.sink.is_some() {
                        self.held[link.index()].push_back(HeldSample {
                            at: arrival,
                            link: ei as u32,
                            bytes: pkt.wire_bytes,
                        });
                        self.held_due = self.held_due.min(arrival);
                    }
                    // The edge has no loss to draw: no random loss, and
                    // no fault to install one.
                    let (at, edge_epoch) = self.put_on_wire(edge, arrival, &pkt);
                    self.events.schedule_delivery(at, edge, edge_epoch, pkt);
                    return;
                }
                self.folds[ei].pending = (arrival, seq);
            }
        }
        self.events
            .schedule_delivery_reserved(arrival, seq, link, epoch, pkt);
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
        let t_ns = self.now.as_nanos();
        if let Some(sink) = self.sink() {
            sink.record(&TelemetryEvent::Fault {
                t_ns,
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
                while let Some(p) = self.queues[li].dequeue() {
                    self.drop_packet(link, p.flow, DropReason::Drained);
                }
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

    /// Counts one dropped packet of `flow` and reports it to the sink.
    /// `link` is the channel that dropped it, whose counter moves too, or
    /// [`LinkId::NONE`] for a drop at a node (no route, no bound agent),
    /// which the sink sees as [`TelemetryEvent::NO_LINK`].
    #[cold]
    fn drop_packet(&mut self, link: LinkId, flow: FlowId, reason: DropReason) {
        self.stats.dropped += 1;
        if link != LinkId::NONE {
            self.topo.channels[link.index()].packets_dropped += 1;
        }
        let t_ns = self.now.as_nanos();
        if let Some(sink) = self.sink() {
            sink.record(&TelemetryEvent::Drop {
                t_ns,
                link: link.0,
                flow: flow.0,
                reason,
            });
        }
    }

    /// Routes a packet that arrived at `node` over `via` ([`LinkId::NONE`]
    /// for a host's own send) toward its destination. Inlined into the
    /// dispatcher like [`Simulator::with_agent`], for the same reason.
    ///
    /// # Panics
    /// Panics if the next hop is a single-fed host edge and `via` is not
    /// its feeder (see *Folded hops* in the module docs).
    #[inline(always)]
    fn forward(&mut self, node: NodeId, via: LinkId, pkt: Packet) {
        match self.topo.next_hop(node, pkt.dst) {
            Some(link) => {
                if self.topo.channels[link.index()].single_fed {
                    let feeder = self.folds[link.index()].feeder;
                    if feeder != via {
                        off_path(pkt.flow, via, link, feeder);
                    }
                }
                self.enqueue_on(link, pkt);
            }
            None => self.drop_packet(LinkId::NONE, pkt.flow, DropReason::NoRoute),
        }
    }
}

/// The contract breach of a packet reaching single-fed host edge `edge`
/// over `via`, not over its feeder.
#[cold]
#[inline(never)]
fn off_path(flow: FlowId, via: LinkId, edge: LinkId, feeder: LinkId) -> ! {
    panic!(
        "flow {} reached single-fed host edge {edge:?} over {via:?}, not its feeder \
         {feeder:?}: flows must travel only between hosts where they are bound",
        flow.0
    );
}

const _: () = assert!(LinkId::NONE.0 == TelemetryEvent::NO_LINK);

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
    /// the host itself are delivered (via the event queue's loopback
    /// rail, at the current instant) without touching any link.
    ///
    /// # Panics
    /// A packet must go to a host that binds its flow, from a host that
    /// does (see [`Simulator::bind_flow`]). One that does not, and whose
    /// route enters a single-fed host edge's switch other than over the
    /// edge's feeder, panics there (see *Folded hops* in the module
    /// docs).
    pub fn send(&mut self, pkt: Packet) {
        let host = self.node();
        if pkt.dst == host {
            let at = self.core.now;
            self.core.events.schedule_delivery(at, LinkId::NONE, 0, pkt);
            return;
        }
        self.core.forward(host, LinkId::NONE, pkt);
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
        if let Some(sink) = self.core.sink() {
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
                folds: Vec::new(),
                feeders: Vec::new(),
                held: Vec::new(),
                held_due: SimTime::MAX,
            },
            agents: Vec::new(),
            started: false,
            profiler: None,
        }
    }

    /// Retained capacity of the event queue, in event slots: its heap
    /// plus every link rail's deque, small buffers included (see
    /// [`EventQueue::capacity`]). The queue never shrinks, so this is the
    /// run's high-water mark.
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
    ///
    /// The bindings in place when the run starts also say which routes
    /// flows take, and so which host edges are single-fed and fold (see
    /// *Folded hops* in the module docs). Packets of a flow must travel
    /// only between hosts that bind it; one that reaches a single-fed
    /// edge through another ingress panics. A flow bound at one host only
    /// puts no route in the plan.
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
    ///
    /// A fault installed before the run starts keeps its channel, and
    /// the edge that channel feeds, from folding (see *Folded hops* in
    /// the module docs).
    ///
    /// # Panics
    /// Panics if the run has started and a fault names a single-fed host
    /// edge or its feeder: hops already folded assumed neither would
    /// change.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for f in &plan.faults {
            let link = f.action.link();
            let ch = &self.core.topo.channels[link.index()];
            assert!(
                !ch.single_fed && !ch.feeds,
                "fault on {link:?} after the run started: it is a single-fed host edge \
                 or its feeder, whose hops fold; install faults before the run"
            );
        }
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
    /// structured events into it. Replaces any previous sink, which first
    /// records the held samples of folded hops that the clock has reached
    /// (see *Folded hops* in the module docs); the new sink gets the
    /// rest. Hops that folded while no sink was installed hold no sample,
    /// so a sink installed mid-run misses the queue samples of packets
    /// then on a feeder, at most one hop latency's worth.
    pub fn set_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.core.release_held(self.core.now);
        self.core.sink = Some(sink);
    }

    /// Detaches the telemetry sink (flushed), e.g. to downcast a
    /// recorder back to its concrete type after a run. It first records
    /// the held samples the clock has reached; later ones are dropped.
    pub fn take_sink(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.core.release_held(self.core.now);
        let mut sink = self.core.sink.take()?;
        self.core.release_held(SimTime::MAX);
        sink.flush();
        Some(sink)
    }

    /// Enables the sim-time profiler. Every subsequent pop is counted
    /// under `sched` and every dispatch under its event kind, and agent
    /// start-ups under `agent_start`. Only a sample is timed: the first
    /// event of each label, then one in every
    /// [`SAMPLE_STRIDE`](mltcp_telemetry::profiler::SAMPLE_STRIDE), each
    /// with two `Instant` reads; a label's time is its sampled mean times
    /// its exact count. Agent start-ups are never timed. The pop and the
    /// dispatch run the same step as an unprofiled run, so profiling
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
        self.plan_folds();
        for i in 0..self.agents.len() {
            self.with_agent(i, |agent, ctx| agent.start(ctx));
            if let Some(p) = self.profiler.as_mut() {
                p.record(PROFILE_AGENT_START, None);
            }
        }
    }

    /// Finds the single-fed host edges and their feeders (see *Folded
    /// hops* in the module docs): walks the route between every two hosts
    /// that bind the same flow and notes, for each switch → host channel
    /// on it, the channel before it. An edge folds if exactly one channel
    /// feeds it, its queue is drop-tail, it has no random loss, and no
    /// fault is installed on it or on its feeder.
    fn plan_folds(&mut self) {
        /// The ingress channels seen in front of a host edge.
        #[derive(Clone, Copy, PartialEq)]
        enum Fed {
            Never,
            By(LinkId),
            Many,
        }
        let core = &mut self.core;
        let topo = &core.topo;
        let mut bound: Vec<(FlowId, NodeId)> = core
            .flow_tables
            .iter()
            .enumerate()
            .flat_map(|(node, table)| table.iter().map(move |&(f, _)| (f, NodeId(node as u32))))
            .collect();
        bound.sort_unstable();
        let mut fed = vec![Fed::Never; topo.channels.len()];
        for hosts in bound.chunk_by(|a, b| a.0 == b.0) {
            for &(_, src) in hosts {
                for &(_, dst) in hosts.iter().filter(|&&(_, h)| h != src) {
                    // The walk ends at the first host: hosts do not forward.
                    let (mut node, mut prev) = (src, LinkId::NONE);
                    while let Some(link) = topo.next_hop(node, dst) {
                        let ch = &topo.channels[link.index()];
                        if topo.nodes[ch.to.index()].is_host() {
                            // A switch → host channel; the first hop leaves
                            // a host and has no feeder.
                            if prev != LinkId::NONE {
                                let f = &mut fed[link.index()];
                                *f = match *f {
                                    Fed::Never => Fed::By(prev),
                                    Fed::By(g) if g == prev => Fed::By(g),
                                    _ => Fed::Many,
                                };
                            }
                            break;
                        }
                        (node, prev) = (ch.to, link);
                    }
                }
            }
        }
        let faulted: Vec<LinkId> = core.faults.iter().map(FaultAction::link).collect();
        for (li, f) in fed.into_iter().enumerate() {
            let Fed::By(feeder) = f else { continue };
            let edge = LinkId(li as u32);
            let spec = &core.topo.channels[li].spec;
            if matches!(spec.queue, QueueKind::DropTail { .. })
                && spec.loss_probability == 0.0
                && !faulted.contains(&edge)
                && !faulted.contains(&feeder)
            {
                if core.folds.is_empty() {
                    let unfolded = Fold {
                        feeder: LinkId::NONE,
                        pending: (SimTime::ZERO, 0),
                    };
                    core.folds = vec![unfolded; core.topo.channels.len()];
                    core.held = (0..core.topo.channels.len())
                        .map(|_| VecDeque::new())
                        .collect();
                }
                core.folds[li].feeder = feeder;
                core.topo.channels[li].single_fed = true;
                core.topo.channels[feeder.index()].feeds = true;
                core.feeders.push(feeder);
            }
        }
        core.feeders.sort_unstable();
        core.feeders.dedup();
    }

    /// Temporarily removes an agent from its slot so it can borrow the
    /// core mutably through an [`AgentCtx`]. Inlined, so a delivered
    /// packet goes from the dispatcher's registers to the handler's
    /// argument without a copy through the closure in between.
    #[inline(always)]
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

    /// Processes a single event if it fires at or before `deadline`.
    /// Returns `false` when the queue is empty or the next event is later
    /// than the deadline.
    ///
    /// The pop and the dispatch are one inlined step: a popped delivery's
    /// fields go from its rail entry to the handler without a [`Popped`]
    /// stored and reloaded in between (see [`crate::event`], *Event
    /// size*).
    ///
    /// `PROFILED` is set when the profiler is on: every successful pop is
    /// then counted under `sched` and every event under its kind, and
    /// the profiler's sampled ones are timed (see [`SimProfiler::due`]).
    /// Off, every profiler branch folds away.
    fn step<const PROFILED: bool>(&mut self, deadline: SimTime) -> bool {
        let pop_start = (PROFILED && self.profiler().due(PROFILE_SCHED)).then(Instant::now);
        let Some(ev) = self.core.events.pop_event_before(deadline) else {
            return false;
        };
        if !PROFILED {
            self.dispatch(ev);
            return true;
        }
        // Label indices match PROFILE_LABELS order.
        let label = match ev.kind {
            PoppedKind::ChannelIdle { .. } => 0,
            PoppedKind::Deliver(_) => 1,
            PoppedKind::Timer { .. } => 2,
            PoppedKind::Message { .. } => 3,
            PoppedKind::Fault { .. } => 4,
        };
        let p = self.profiler();
        p.record(PROFILE_SCHED, pop_start.map(elapsed_ns));
        let dispatch_start = p.due(label).then(Instant::now);
        self.dispatch(ev);
        self.profiler()
            .record(label, dispatch_start.map(elapsed_ns));
        true
    }

    /// The profiler, which a profiled [`Simulator::step`] requires.
    fn profiler(&mut self) -> &mut SimProfiler {
        self.profiler.as_mut().expect("profiler enabled")
    }

    /// Steps until the queue drains or the next event is past
    /// `deadline`, with the profiler's branches compiled in only when it
    /// is on.
    fn step_until(&mut self, deadline: SimTime) {
        self.start_agents();
        if self.profiler.is_some() {
            while self.step::<true>(deadline) {}
        } else {
            while self.step::<false>(deadline) {}
        }
        // The clock reaches the deadline (or passed every folded hop, if
        // the queue drained): their held samples are due.
        if self.core.held_due <= deadline {
            self.core.release_held(deadline);
        }
    }

    /// Dispatches one popped event at its `(time, seq)`.
    #[inline(always)]
    fn dispatch(&mut self, ev: Popped) {
        debug_assert!(ev.at >= self.core.now, "time went backwards");
        self.core.now = ev.at;
        self.core.seq = ev.seq;
        self.core.stats.events += 1;
        match ev.kind {
            PoppedKind::ChannelIdle { link } => {
                self.core.topo.channels[link.index()].armed = false;
                self.core.start_tx(link);
            }
            PoppedKind::Deliver(Delivery { via, epoch, pkt: p }) => {
                // The rail names the carrying link, whose far end
                // receives the packet; a host-local send is for
                // `p.dst`, its own host, and never crossed a wire.
                let node = if via == LinkId::NONE {
                    p.dst
                } else {
                    let ch = &self.core.topo.channels[via.index()];
                    if ch.epoch == epoch {
                        ch.to
                    } else {
                        // A stale epoch means the carrying link went
                        // down after serialization began: the packet
                        // was cut on the wire.
                        self.core.drop_packet(via, p.flow, DropReason::LinkCut);
                        return;
                    }
                };
                match self.core.topo.nodes[node.index()].kind {
                    NodeKind::Switch => self.core.forward(node, via, p),
                    NodeKind::Host => match self.core.bound_agent(p.flow, node) {
                        Some(agent) => {
                            self.core.stats.delivered += 1;
                            self.with_agent(agent.0, |a, ctx| a.on_packet(ctx, p));
                        }
                        // No transport bound: the packet is dropped at
                        // the host (like a RST-less closed port).
                        None => self
                            .core
                            .drop_packet(LinkId::NONE, p.flow, DropReason::Unbound),
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

    /// Runs until the event queue drains. Calls every agent's
    /// [`Agent::start`] first.
    pub fn run(&mut self) {
        self.step_until(SimTime::MAX);
    }

    /// Runs until the queue drains or simulated time would pass
    /// `deadline`; events after the deadline remain queued (the clock is
    /// left at `deadline` if the first pending event is later).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.step_until(deadline);
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
    use mltcp_telemetry::profiler::SAMPLE_STRIDE;

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
        let total: u64 = snap.entries.iter().map(|e| e.events).sum();
        assert_eq!(total, 2 * sim.stats().events + agent_starts.events);
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

    #[test]
    fn host_local_send_reaches_the_agent_bound_at_its_destination() {
        /// Logs each packet it receives, with its source and time.
        struct Inbox {
            got: Vec<(NodeId, SimTime)>,
        }
        impl Agent for Inbox {
            fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
                self.got.push((pkt.src, ctx.now()));
            }
        }
        /// An inbox that, on its timer, sends one packet to its own host
        /// with the far host as its source.
        struct Loopback {
            flow: FlowId,
            src: NodeId,
            inbox: Inbox,
        }
        impl Agent for Loopback {
            fn start(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(SimDuration::micros(100), 1);
            }
            fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
                self.inbox.on_packet(ctx, pkt);
            }
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _token: u64) {
                let me = ctx.node();
                ctx.send(Packet::data(self.flow, self.src, me, 0, 1500));
            }
        }
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.0);
        // Both ends bind the flow, so only the node the delivery resolves
        // to decides which agent gets it: `pkt.dst`, not `pkt.src`.
        let flow = FlowId(7);
        let inbox = Inbox { got: vec![] };
        let a = sim.add_agent(
            h0,
            Loopback {
                flow,
                src: h1,
                inbox,
            },
        );
        let b = sim.add_agent(h1, Inbox { got: vec![] });
        sim.bind_flow(flow, a);
        sim.bind_flow(flow, b);
        // h0's two channels go down at the send instant: one just before
        // the send pops, the other just after it, before the delivery.
        let t = SimTime(100_000);
        let down = |link| FaultPlan::new().at(t, FaultAction::LinkDown { link });
        sim.install_faults(&down(LinkId(0)));
        sim.run_until(SimTime(99_000));
        sim.install_faults(&down(LinkId(1)));
        sim.run();
        assert_eq!(sim.agent::<Loopback>(a).inbox.got, [(h1, t)]);
        assert!(sim.agent::<Inbox>(b).got.is_empty());
        assert_eq!(sim.stats().delivered, 1);
        assert_eq!(sim.stats().dropped, 0);
        // The packet never crossed a channel: it rode the loopback rail.
        for ch in &sim.topology().channels {
            assert!(!ch.up, "{:?} should be down", ch.id);
            assert_eq!((ch.packets_sent, ch.packets_dropped), (0, 0));
        }
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

    /// A mix with every event kind: a lossy ping flow through a link
    /// flap and a bursty-loss window (deliveries, departures, faults), a
    /// re-armed timer slot, one-shot timers and a message round trip.
    /// Runs in two `run_until` slices, then to the end, and returns the
    /// simulator with everything its agents observed.
    fn profiled_mix(profiled: bool) -> (Simulator, impl PartialEq + std::fmt::Debug) {
        let (mut sim, h0, h1) = two_host_sim(Bandwidth::gbps(1), SimDuration::micros(5), 0.05);
        let dog = sim.add_agent(
            h0,
            Watchdog {
                peer: h1,
                pkts: 300,
                rearms: vec![],
                fired: vec![],
            },
        );
        let echoer = sim.add_agent(h1, Echoer { received: 0 });
        sim.bind_flow(FlowId(1), dog);
        sim.bind_flow(FlowId(1), echoer);
        let timers = sim.add_agent(h0, TimerAgent { fired: vec![] });
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
        let plan = FaultPlan::new()
            .link_flap(
                LinkId(0),
                SimTime::from_secs_f64(400e-6),
                SimDuration::micros(300),
            )
            .loss_window(
                LinkId(0),
                SimTime::from_secs_f64(1.5e-3),
                SimDuration::micros(500),
                LossModel::GilbertElliott(GilbertElliott::bursty(0.2, 0.3, 0.9)),
            );
        sim.install_faults(&plan);
        if profiled {
            sim.enable_profiler();
        }
        sim.run_until(SimTime(1_000_000));
        sim.run_until(SimTime(2_000_000));
        sim.run();
        let w = sim.agent::<Watchdog>(dog);
        let seen = (
            (w.rearms.clone(), w.fired.clone()),
            sim.agent::<Echoer>(echoer).received,
            sim.agent::<TimerAgent>(timers).fired.clone(),
            sim.agent::<Caller>(caller).replies,
        );
        (sim, seen)
    }

    /// Counts stay exact, and every kind that occurs is timed at least
    /// once — the rare ones through their first event.
    #[test]
    fn profiler_times_a_sample_of_every_kind() {
        let (sim, _) = profiled_mix(true);
        let snap = sim.profile_snapshot().expect("profiler enabled");
        for label in ["channel_idle", "deliver", "timer", "message", "fault"] {
            let e = snap.find(label).unwrap();
            assert!(e.events > 0, "the mix has no {label} event");
            assert!(e.samples > 0, "{label}: {e:?}");
        }
        let sched = snap.find("sched").unwrap();
        assert_eq!(sched.events, sim.stats().events);
        assert!(sched.samples >= sched.events / SAMPLE_STRIDE, "{sched:?}");
        assert!(sched.samples < sched.events, "every pop was timed");
        let agent_starts = snap.find("agent_start").unwrap();
        assert_eq!((agent_starts.events, agent_starts.samples), (5, 0));
    }

    /// Profiling runs the same step: a profiled and an unprofiled run of
    /// the same mix end in the same state.
    #[test]
    fn profiled_run_matches_unprofiled_run() {
        let (plain, plain_seen) = profiled_mix(false);
        let (profiled, profiled_seen) = profiled_mix(true);
        assert!(plain.profile_snapshot().is_none());
        assert_eq!(plain.stats(), profiled.stats());
        assert_eq!(plain.now(), profiled.now());
        assert_eq!(plain_seen, profiled_seen);
        assert!(plain.stats().dropped > 0, "the mix should lose packets");
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

    /// Every switch → host channel of `sim`'s topology.
    fn host_edges(sim: &Simulator) -> Vec<LinkId> {
        let topo = sim.topology();
        topo.channels
            .iter()
            .filter(|c| topo.nodes[c.to.index()].is_host() && !topo.nodes[c.from.index()].is_host())
            .map(|c| c.id)
            .collect()
    }

    /// Two ping-pong pairs across the default dumbbell, both ends of each
    /// flow bound, so the receiver edges fold data and the sender edges
    /// fold acks. `reference` installs a no-op `RestoreLoss` at t = 0 on
    /// every host edge, which keeps every hop unfolded. A ring recorder
    /// is attached.
    fn folding_dumbbell(reference: bool) -> (Simulator, Vec<AgentId>) {
        use crate::topology::{build_dumbbell, DumbbellSpec};
        use mltcp_telemetry::RingRecorder;
        let (topo, d) = build_dumbbell(DumbbellSpec::default());
        let mut sim = Simulator::new(topo, 5);
        let mut pingers = Vec::new();
        for i in 0..2 {
            let flow = FlowId(i as u64 + 1);
            let pinger = sim.add_agent(
                d.senders[i],
                Pinger {
                    peer: d.receivers[i],
                    flow,
                    pkts: 150,
                    echoes: 0,
                    last_echo_at: SimTime::ZERO,
                },
            );
            let echoer = sim.add_agent(d.receivers[i], Echoer { received: 0 });
            sim.bind_flow(flow, pinger);
            sim.bind_flow(flow, echoer);
            pingers.push(pinger);
        }
        if reference {
            let mut plan = FaultPlan::new();
            for link in host_edges(&sim) {
                plan = plan.at(SimTime::ZERO, FaultAction::RestoreLoss { link });
            }
            sim.install_faults(&plan);
        }
        sim.set_sink(Box::new(RingRecorder::new(1 << 16)));
        (sim, pingers)
    }

    /// The recorder's records as sortable strings, fault records (the
    /// reference path's no-op faults) left out.
    fn recorded(sim: &mut Simulator) -> Vec<(u64, String)> {
        use mltcp_telemetry::RingRecorder;
        let rec = sim
            .take_sink()
            .expect("sink attached")
            .into_any()
            .downcast::<RingRecorder>()
            .expect("ring recorder");
        assert_eq!(rec.overwritten(), 0, "ring too small for this test");
        rec.events()
            .iter()
            .filter(|e| !matches!(e, TelemetryEvent::Fault { .. }))
            .map(|e| (e.t_ns(), format!("{e:?}")))
            .collect()
    }

    /// Folding removes events and nothing else: the same echoes, clock,
    /// deliveries and drops, and a sink sees the same records in time
    /// order.
    #[test]
    fn folded_hops_keep_results_and_records() {
        let run = |reference: bool| {
            let (mut sim, pingers) = folding_dumbbell(reference);
            sim.run();
            let echoes: Vec<_> = pingers
                .iter()
                .map(|&p| {
                    let p = sim.agent::<Pinger>(p);
                    (p.echoes, p.last_echo_at)
                })
                .collect();
            let records = recorded(&mut sim);
            (echoes, sim.now(), sim.stats(), records)
        };
        let (echoes, now, stats, records) = run(false);
        let (ref_echoes, ref_now, ref_stats, ref_records) = run(true);
        assert_eq!(echoes, ref_echoes);
        assert_eq!(echoes[0].0, 150);
        assert_eq!(now, ref_now);
        assert_eq!(
            (stats.delivered, stats.dropped),
            (ref_stats.delivered, ref_stats.dropped)
        );
        // The receiver edges run at twice the bottleneck's rate, so every
        // one of the 300 data and 300 ack switch arrivals in front of a
        // host edge folds; the reference path also pops its four faults.
        assert_eq!(stats.events + 600 + 4, ref_stats.events);
        assert!(
            records.windows(2).all(|w| w[0].0 <= w[1].0),
            "records out of time order"
        );
        let sorted = |mut r: Vec<(u64, String)>| {
            r.sort();
            r
        };
        assert_eq!(sorted(records), sorted(ref_records));
    }

    /// A held sample is recorded once the clock reaches it, and not
    /// before: a `run_until` slice records exactly the reference path's
    /// samples up to its deadline.
    #[test]
    fn run_until_records_no_sample_past_its_deadline() {
        let deadline = SimTime(150_000);
        let sliced = |reference: bool| {
            let (mut sim, _) = folding_dumbbell(reference);
            sim.run_until(deadline);
            let mut records = recorded(&mut sim);
            records.sort();
            records
        };
        let records = sliced(false);
        assert!(records.iter().all(|r| r.0 <= deadline.as_nanos()));
        assert!(
            records.iter().any(|r| r.0 > 140_000),
            "the slice should end mid-transfer"
        );
        assert_eq!(records, sliced(true));
    }

    /// A packet that reaches a single-fed edge through another ingress
    /// breaks the folding contract and panics, naming the flow and edge.
    #[test]
    #[should_panic(expected = "flow 1 reached single-fed host edge LinkId(")]
    fn off_path_packet_into_a_single_fed_edge_panics() {
        use crate::topology::{build_dumbbell, DumbbellSpec};
        let (topo, d) = build_dumbbell(DumbbellSpec::default());
        let mut sim = Simulator::new(topo, 5);
        let flow = FlowId(1);
        let echoer = sim.add_agent(d.receivers[0], Echoer { received: 0 });
        let pinger = sim.add_agent(
            d.senders[0],
            Pinger {
                peer: d.receivers[0],
                flow,
                pkts: 1,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        sim.bind_flow(flow, pinger);
        sim.bind_flow(flow, echoer);
        // Receiver 1 sends flow 1, bound only at sender 0 and receiver 0,
        // to receiver 0: it enters that edge's switch from receiver 1's
        // edge, not from the bottleneck that feeds the edge.
        sim.add_agent(
            d.receivers[1],
            Pinger {
                peer: d.receivers[0],
                flow,
                pkts: 1,
                echoes: 0,
                last_echo_at: SimTime::ZERO,
            },
        );
        sim.run();
    }

    /// A fault installed after the start on a single-fed edge panics;
    /// before the start it only keeps the edge from folding.
    #[test]
    #[should_panic(expected = "after the run started")]
    fn fault_on_a_single_fed_edge_after_the_start_panics() {
        let (mut sim, _) = folding_dumbbell(false);
        let edge = host_edges(&sim)[0];
        let plan = FaultPlan::new().at(SimTime(200_000), FaultAction::RestoreLoss { link: edge });
        sim.run_until(SimTime(100_000));
        sim.install_faults(&plan);
    }
}
