//! The TCP sender: window-based transmission with go-back-N loss
//! recovery (it rewinds to `snd_una` on a fast retransmit or an RTO),
//! driven by application "transfer" commands from a workload driver.
//!
//! A sender models one long-lived connection carrying one training job's
//! flow. Each training iteration, the driver messages
//! [`crate::proto::Msg::StartTransfer`]; the sender appends the bytes to
//! its stream, transmits under congestion control, and replies with
//! [`crate::proto::Msg::TransferComplete`] when everything is
//! cumulatively acked. Between transfers the connection idles — exactly
//! the on/off pattern whose ack gaps MLTCP's Algorithm 1 detects.

use crate::cc::{AckEvent, CongestionControl, Window};
use crate::proto::{self, Msg};
use crate::rtt::RttEstimator;
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::{EcnCodepoint, FlowId, Packet, SegmentHeader};
use mltcp_netsim::sim::{Agent, AgentCtx, AgentId};
use mltcp_netsim::time::{SimDuration, SimTime};
use mltcp_telemetry::{RetxKind, TelemetryEvent};
use std::collections::VecDeque;

/// Maximum segment (payload) size; the paper's Algorithm 1 assumes 1500.
pub const MSS: u32 = 1500;

/// How data packets are priority-tagged (for schedulers that use tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityPolicy {
    /// No tagging (FIFO bottlenecks ignore priorities anyway).
    None,
    /// pFabric: tag = remaining bytes of the current transfer; switches
    /// then serve shortest-remaining-first.
    RemainingBytes,
}

/// Static sender parameters.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Flow id (shared with the receiver).
    pub flow: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// Initial congestion window in packets (Linux default: 10).
    pub initial_cwnd: f64,
    /// Driver agent to notify on transfer completion.
    pub driver: Option<AgentId>,
    /// Priority tagging policy.
    pub priority: PriorityPolicy,
    /// Mark data packets ECN-capable (required for DCTCP).
    pub ecn: bool,
    /// Reset to `initial_cwnd` + slow start at every transfer start
    /// (Linux's slow-start-after-idle). Off for a bare
    /// [`SenderConfig::new`], so the flow keeps its window across
    /// transfers; every `ScenarioBuilder` scenario turns it on.
    pub slow_start_restart: bool,
    /// RTO floor. Scale this with the experiment's time scale: the
    /// default 1 ms suits second-scale iterations; millisecond-scale
    /// scenarios want ~8× the path RTT.
    pub min_rto: mltcp_netsim::time::SimDuration,
    /// RTO ceiling: exponential backoff never exceeds this (RFC 6298
    /// §2.5 allows any cap ≥ 60 s for the WAN; a blackout survivor at
    /// datacenter scale wants seconds or less, so that the first
    /// retransmission after a repair arrives promptly).
    pub max_rto: mltcp_netsim::time::SimDuration,
    /// Initial RTO before any RTT sample; `None` keeps the default of
    /// `min_rto × 10`.
    pub initial_rto: Option<mltcp_netsim::time::SimDuration>,
    /// Training-job index this flow belongs to (0 for standalone flows).
    /// Carried into [`SenderStats`] and telemetry events so traces can be
    /// grouped per job without a side table.
    pub job: u32,
}

impl SenderConfig {
    /// Defaults for a flow toward `dst`.
    pub fn new(flow: FlowId, dst: NodeId) -> Self {
        Self {
            flow,
            dst,
            initial_cwnd: 10.0,
            driver: None,
            priority: PriorityPolicy::None,
            ecn: false,
            slow_start_restart: false,
            min_rto: mltcp_netsim::time::SimDuration::millis(1),
            max_rto: mltcp_netsim::time::SimDuration::secs(4),
            initial_rto: None,
            job: 0,
        }
    }
}

/// Counters exposed for tests and experiment harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SenderStats {
    /// Training-job index from [`SenderConfig::job`].
    pub job: u32,
    /// Data segments sent (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast-retransmit (triple-dupack) events.
    pub fast_retransmits: u64,
    /// Transfers completed.
    pub transfers_completed: u64,
    /// Blackout episodes: runs of ≥ 1 consecutive RTOs with no
    /// intervening good ack.
    pub blackouts: u64,
    /// Longest run of consecutive RTOs observed.
    pub max_consecutive_timeouts: u64,
    /// Last blackout's detection time: from the last forward progress to
    /// the first RTO of the episode.
    pub last_blackout_detect: SimDuration,
    /// Last blackout's recovery time: from the last forward progress to
    /// the first good (snd_una-advancing) ack after the episode.
    pub last_blackout_recovery: SimDuration,
}

/// The sender endpoint (a [`mltcp_netsim::sim::Agent`]).
#[derive(Debug)]
pub struct TcpSender {
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
    window: Window,
    rtt: RttEstimator,
    /// Stream state: total bytes the application has asked to send.
    stream_end: u64,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Start offset of the current transfer (for the completion byte count).
    transfer_start: u64,
    /// Pending completion boundaries (stream offsets), FIFO.
    pending_ends: VecDeque<u64>,
    /// Recovery state: `in_recovery` until `recover` is cumulatively
    /// acked; loss recovery is window-paced go-back-N (see module docs).
    in_recovery: bool,
    recover: u64,
    dup_acks: u32,
    /// Segments below this offset are retransmissions (no RTT samples).
    resend_below: u64,
    /// Per-segment send records for Karn-compliant RTT samples:
    /// `seq → (send time, was_retransmitted)`.
    /// Kept as a deque, not a map: segments are recorded in strictly
    /// increasing `seq` order (go-back-N clears before any rewind), so
    /// acks drain from the front with zero per-ack allocation — this is
    /// the per-ack hot path.
    send_times: VecDeque<(u64, SimTime, bool)>,
    /// Whether the RTO is armed, on the agent's timer slot.
    rto_armed: bool,
    /// Completion log: (time, transfer bytes).
    completions: Vec<(SimTime, u64)>,
    /// Time of the last forward progress (good ack or transfer start
    /// from idle) — the baseline for blackout detection/recovery stats.
    last_progress_at: SimTime,
    /// Set at the first RTO of a blackout episode (to the progress
    /// baseline); cleared by the first good ack after it.
    outage_start: Option<SimTime>,
    /// Current run of consecutive RTOs.
    consecutive_timeouts: u64,
    /// Last gain reported via a `Gain` telemetry event (so the trace only
    /// carries changes, not one line per ack).
    last_gain_emitted: f64,
    stats: SenderStats,
}

impl TcpSender {
    /// Creates a sender with the given congestion controller, boxed so
    /// that callers can choose the algorithm at runtime.
    pub fn new(cfg: SenderConfig, cc: Box<dyn CongestionControl>) -> Self {
        let initial = cfg.initial_cwnd;
        let initial_rto = cfg
            .initial_rto
            .unwrap_or(SimDuration(cfg.min_rto.as_nanos().saturating_mul(10)));
        let rtt = RttEstimator::new(initial_rto, cfg.min_rto, cfg.max_rto);
        let job_idx = cfg.job;
        Self {
            rtt,
            cfg,
            cc,
            window: Window::initial(initial),
            stream_end: 0,
            snd_una: 0,
            snd_nxt: 0,
            transfer_start: 0,
            pending_ends: VecDeque::new(),
            in_recovery: false,
            recover: 0,
            dup_acks: 0,
            resend_below: 0,
            send_times: VecDeque::new(),
            rto_armed: false,
            completions: Vec::new(),
            last_progress_at: SimTime::ZERO,
            outage_start: None,
            consecutive_timeouts: 0,
            last_gain_emitted: 1.0,
            stats: SenderStats {
                job: job_idx,
                ..SenderStats::default()
            },
        }
    }

    /// The congestion window (packets), for instrumentation.
    pub fn cwnd(&self) -> f64 {
        self.window.cwnd
    }

    /// Sender counters.
    pub fn stats(&self) -> SenderStats {
        self.stats
    }

    /// Completion log: `(completion time, bytes)` per finished transfer.
    pub fn completions(&self) -> &[(SimTime, u64)] {
        &self.completions
    }

    /// Total bytes cumulatively acknowledged.
    pub fn bytes_acked(&self) -> u64 {
        self.snd_una
    }

    /// Whether all requested bytes are acked.
    pub fn is_idle(&self) -> bool {
        self.snd_una == self.stream_end
    }

    /// Downcast access to the congestion controller (e.g. to read an
    /// [`crate::cc::mltcp::Mltcp`]'s `bytes_ratio`).
    pub fn cc_as<C: CongestionControl>(&self) -> Option<&C> {
        let any: &dyn std::any::Any = self.cc.as_ref();
        any.downcast_ref::<C>()
    }

    fn inflight_packets(&self) -> f64 {
        ((self.snd_nxt - self.snd_una) as f64) / f64::from(MSS)
    }

    fn priority_for(&self) -> u64 {
        match self.cfg.priority {
            PriorityPolicy::None => 0,
            PriorityPolicy::RemainingBytes => self.stream_end.saturating_sub(self.snd_una),
        }
    }

    fn make_segment(&self, me: NodeId, seq: u64, len: u32) -> Packet {
        let mut pkt = Packet::data(self.cfg.flow, me, self.cfg.dst, seq, len)
            .with_priority(self.priority_for());
        if self.cfg.ecn {
            pkt = pkt.with_ecn(EcnCodepoint::Capable);
        }
        pkt
    }

    /// Emits a `Cwnd` snapshot (telemetry-gated; free when disabled).
    fn emit_cwnd(&self, ctx: &mut AgentCtx<'_>) {
        if ctx.telemetry_enabled() {
            ctx.emit(TelemetryEvent::Cwnd {
                t_ns: ctx.now().as_nanos(),
                flow: self.cfg.flow.0,
                job: self.cfg.job,
                cwnd: self.window.cwnd,
                ssthresh: self.window.ssthresh,
            });
        }
    }

    /// Emits a `Retx` event plus the post-response window snapshot.
    fn emit_retx(&self, ctx: &mut AgentCtx<'_>, kind: RetxKind, count: u64) {
        if ctx.telemetry_enabled() {
            ctx.emit(TelemetryEvent::Retx {
                t_ns: ctx.now().as_nanos(),
                flow: self.cfg.flow.0,
                job: self.cfg.job,
                kind,
                count: u32::try_from(count).unwrap_or(u32::MAX),
            });
        }
        self.emit_cwnd(ctx);
    }

    /// (Re)starts the RTO. Runs on every advancing ack; a re-arm queues
    /// no event while an earlier one is queued.
    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        self.rto_armed = true;
        ctx.rearm_timer(self.rtt.rto());
    }

    fn disarm_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        self.rto_armed = false;
        ctx.cancel_timer();
    }

    fn transmit_new(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.node();
        let cwnd_pkts = self.window.cwnd.floor().max(Window::MIN_CWND);
        while self.snd_nxt < self.stream_end {
            if self.inflight_packets() + 1.0 > cwnd_pkts + 1e-9 {
                break;
            }
            let len = u32::try_from((self.stream_end - self.snd_nxt).min(u64::from(MSS)))
                .expect("segment fits u32");
            let pkt = self.make_segment(me, self.snd_nxt, len);
            let is_resend = self.snd_nxt < self.resend_below;
            debug_assert!(
                self.send_times
                    .back()
                    .is_none_or(|&(s, _, _)| s < self.snd_nxt),
                "send records must stay seq-ordered"
            );
            self.send_times
                .push_back((self.snd_nxt, ctx.now(), is_resend));
            self.snd_nxt += u64::from(len);
            self.stats.segments_sent += 1;
            if is_resend {
                self.stats.retransmits += 1;
            }
            ctx.send(pkt);
        }
        if !self.rto_armed && self.snd_una < self.snd_nxt {
            self.arm_rto(ctx);
        }
    }

    /// Go-back-N: rewind `snd_nxt` to the cumulative ack point and let
    /// window-paced (re)transmission refill the pipe. The receiver's
    /// reassembly buffer absorbs duplicate segments, and its cumulative
    /// ack jumps forward as soon as the actual holes are filled — so in
    /// practice only the lost prefix is resent before the ack catches up.
    fn go_back_n(&mut self, ctx: &mut AgentCtx<'_>) {
        if self.snd_una >= self.stream_end {
            return;
        }
        self.resend_below = self.resend_below.max(self.snd_nxt);
        self.snd_nxt = self.snd_una;
        // Old send records are stale now.
        self.send_times.clear();
        self.transmit_new(ctx);
    }

    fn on_cumulative_ack(&mut self, ctx: &mut AgentCtx<'_>, cum_ack: u64, ecn_echo: bool) {
        if cum_ack <= self.snd_una {
            // Duplicate ack.
            if self.snd_nxt > self.snd_una {
                self.dup_acks += 1;
                if self.dup_acks == 3 && !self.in_recovery {
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    self.stats.fast_retransmits += 1;
                    self.cc.on_loss(ctx.now(), &mut self.window);
                    self.window.clamp_min();
                    self.go_back_n(ctx);
                    self.arm_rto(ctx);
                    self.emit_retx(ctx, RetxKind::Fast, self.stats.fast_retransmits);
                }
            }
            return;
        }

        let newly = cum_ack - self.snd_una;
        self.dup_acks = 0;

        // Karn's algorithm: sample RTT from the newest fully-acked,
        // never-retransmitted segment. Records are seq-ordered, so the
        // covered prefix drains from the front without allocating.
        let mut sample = None;
        while let Some(&(s, t, retx)) = self.send_times.front() {
            if s >= cum_ack {
                break;
            }
            self.send_times.pop_front();
            if !retx {
                sample = Some(ctx.now() - t);
            }
        }
        if let Some(rtt) = sample {
            self.rtt.on_sample(rtt);
        }

        self.snd_una = cum_ack;
        if self.snd_nxt < self.snd_una {
            self.snd_nxt = self.snd_una;
        }

        if self.in_recovery && cum_ack >= self.recover {
            self.in_recovery = false;
        }

        // Blackout bookkeeping: this good ack ends any RTO episode.
        let after_timeout = self.outage_start.is_some();
        if let Some(start) = self.outage_start.take() {
            self.stats.last_blackout_recovery = ctx.now() - start;
            self.consecutive_timeouts = 0;
        }
        self.last_progress_at = ctx.now();

        let ev = AckEvent {
            now: ctx.now(),
            newly_acked_bytes: newly,
            newly_acked_packets: newly as f64 / f64::from(MSS),
            ecn_echo,
            in_recovery: self.in_recovery,
            after_timeout,
        };
        self.cc.on_ack(&ev, &mut self.window);
        self.window.clamp_min();

        if ctx.telemetry_enabled() {
            if let Some(rtt) = sample {
                ctx.emit(TelemetryEvent::Rtt {
                    t_ns: ctx.now().as_nanos(),
                    flow: self.cfg.flow.0,
                    job: self.cfg.job,
                    rtt_ns: rtt.as_nanos(),
                });
            }
            if let Some((gain, ratio)) = self.cc.gain_state() {
                if gain != self.last_gain_emitted {
                    self.last_gain_emitted = gain;
                    ctx.emit(TelemetryEvent::Gain {
                        t_ns: ctx.now().as_nanos(),
                        flow: self.cfg.flow.0,
                        job: self.cfg.job,
                        gain,
                        bytes_ratio: ratio,
                    });
                }
            }
            self.emit_cwnd(ctx);
        }

        // Completion notifications for every boundary crossed.
        while let Some(&end) = self.pending_ends.front() {
            if self.snd_una < end {
                break;
            }
            self.pending_ends.pop_front();
            self.stats.transfers_completed += 1;
            let bytes = end - self.transfer_start;
            self.completions.push((ctx.now(), bytes));
            if let Some(driver) = self.cfg.driver {
                ctx.send_message(driver, proto::encode(Msg::TransferComplete { bytes }));
            }
        }

        if self.snd_una == self.stream_end && self.snd_una == self.snd_nxt {
            self.disarm_rto(ctx);
        } else {
            self.arm_rto(ctx);
        }
        self.transmit_new(ctx);
    }

    fn start_transfer(&mut self, ctx: &mut AgentCtx<'_>, bytes: u64) {
        if bytes == 0 {
            // Degenerate transfer: complete immediately.
            if let Some(driver) = self.cfg.driver {
                ctx.send_message(driver, proto::encode(Msg::TransferComplete { bytes: 0 }));
            }
            return;
        }
        if self.is_idle() {
            // Starting from idle is forward progress: an idle gap before
            // this transfer is not part of any blackout.
            self.last_progress_at = ctx.now();
        }
        self.transfer_start = self.stream_end;
        self.stream_end += bytes;
        self.pending_ends.push_back(self.stream_end);
        if self.cfg.slow_start_restart {
            // Linux's slow-start-after-idle: the congestion window
            // collapses back to the initial window, but ssthresh is
            // preserved — the path's learned capacity estimate survives,
            // so the restart ramp exits slow start before re-overshooting.
            self.window.cwnd = self.cfg.initial_cwnd.max(Window::MIN_CWND);
        }
        self.cc.on_transfer_start(ctx.now());
        self.transmit_new(ctx);
    }
}

impl Agent for TcpSender {
    fn on_packet(&mut self, ctx: &mut AgentCtx<'_>, pkt: Packet) {
        if let SegmentHeader::Ack { cum_ack, ecn_echo } = pkt.header {
            self.on_cumulative_ack(ctx, cum_ack, ecn_echo);
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>) {
        // The timer is the RTO, and it fires only while armed.
        debug_assert!(self.rto_armed);
        if self.snd_una >= self.stream_end {
            self.rto_armed = false;
            return;
        }
        // Retransmission timeout: collapse the window and go-back-N.
        self.stats.timeouts += 1;
        self.consecutive_timeouts += 1;
        self.stats.max_consecutive_timeouts = self
            .stats
            .max_consecutive_timeouts
            .max(self.consecutive_timeouts);
        if self.outage_start.is_none() {
            self.outage_start = Some(self.last_progress_at);
            self.stats.blackouts += 1;
            self.stats.last_blackout_detect = ctx.now() - self.last_progress_at;
        }
        self.rtt.on_timeout();
        self.in_recovery = false;
        self.dup_acks = 0;
        self.cc.on_timeout(ctx.now(), &mut self.window);
        self.window.clamp_min();
        self.go_back_n(ctx);
        self.arm_rto(ctx);
        self.emit_retx(ctx, RetxKind::Rto, self.consecutive_timeouts);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
        if let Some(Msg::StartTransfer { bytes }) = proto::decode(token) {
            self.start_transfer(ctx, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use crate::install_connection;
    use mltcp_netsim::prelude::*;

    /// Starts one transfer at t = 0 and records when it completes.
    struct OneShot {
        sender: Option<AgentId>,
        done_at: Option<SimTime>,
    }

    impl Agent for OneShot {
        fn start(&mut self, ctx: &mut AgentCtx<'_>) {
            let s = self.sender.expect("wired before run");
            let bytes = 1_500_000;
            ctx.send_message(s, proto::encode(Msg::StartTransfer { bytes }));
        }
        fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, token: u64) {
            if let Some(Msg::TransferComplete { .. }) = proto::decode(token) {
                self.done_at = Some(ctx.now());
            }
        }
    }

    /// A forward-link outage mid-transfer, then a bursty-loss window
    /// after the repair. The RTO statistics are pinned to the values the
    /// simulator produced when every ack scheduled its own timer event,
    /// so moving the RTO onto the agent's timer slot must leave every
    /// timeout at the same instant.
    #[test]
    fn blackout_timeouts_match_recorded_values() {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let spec = LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(20));
        let fwd = b.directed(h0, h1, spec);
        b.directed(h1, h0, spec);
        let mut sim = Simulator::new(b.build().unwrap(), 7);
        let plan = FaultPlan::new()
            .link_flap(fwd, SimTime(500_000), SimDuration::millis(8))
            .loss_window(
                fwd,
                SimTime(9_000_000),
                SimDuration::millis(1),
                LossModel::GilbertElliott(GilbertElliott::bursty(0.1, 0.3, 0.8)),
            );
        sim.install_faults(&plan);
        let driver = sim.add_agent(
            h0,
            OneShot {
                sender: None,
                done_at: None,
            },
        );
        let mut cfg = SenderConfig::new(FlowId(1), h1);
        cfg.driver = Some(driver);
        cfg.min_rto = SimDuration::micros(200);
        cfg.max_rto = SimDuration::millis(1);
        cfg.initial_rto = Some(SimDuration::micros(500));
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
        sim.agent_mut::<OneShot>(driver).sender = Some(h.sender);
        sim.run();

        let done = sim.agent::<OneShot>(driver).done_at.expect("completes");
        let st = sim.agent::<TcpSender>(h.sender).stats();
        assert_eq!(done, SimTime(12_594_816));
        assert_eq!(
            st,
            SenderStats {
                job: 0,
                segments_sent: 1428,
                retransmits: 428,
                timeouts: 10,
                fast_retransmits: 9,
                transfers_completed: 1,
                blackouts: 2,
                max_consecutive_timeouts: 9,
                last_blackout_detect: SimDuration(1_000_000),
                last_blackout_recovery: SimDuration(1_041_264),
            }
        );
    }
}
