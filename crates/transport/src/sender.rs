//! The TCP sender: window-based transmission with NewReno-style loss
//! recovery, driven by application "transfer" commands from a workload
//! driver.
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

/// How data packets are priority-tagged (for schedulers that use tags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PriorityPolicy {
    /// No tagging (FIFO bottlenecks ignore priorities anyway).
    None,
    /// pFabric: tag = remaining bytes of the current transfer; switches
    /// then serve shortest-remaining-first.
    RemainingBytes,
    /// PIAS: tag = MLFQ level, demoted as the transfer's sent bytes cross
    /// each threshold.
    Pias {
        /// Ascending byte thresholds separating levels 0..=n.
        thresholds: Vec<u64>,
    },
}

/// Static sender parameters.
#[derive(Debug, Clone)]
pub struct SenderConfig {
    /// Flow id (shared with the receiver).
    pub flow: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// Maximum segment (payload) size; the paper's Algorithm 1 assumes
    /// 1500.
    pub mss: u32,
    /// Initial congestion window in packets (Linux default: 10).
    pub initial_cwnd: f64,
    /// Driver agent to notify on transfer completion.
    pub driver: Option<AgentId>,
    /// Priority tagging policy.
    pub priority: PriorityPolicy,
    /// Mark data packets ECN-capable (required for DCTCP).
    pub ecn: bool,
    /// Reset to `initial_cwnd` + slow start at every transfer start
    /// (Linux's slow-start-after-idle). Default off: the paper's
    /// long-lived job flows keep their window across iterations.
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
            mss: 1500,
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
    /// Start offset of the current transfer (for PIAS level computation).
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
    /// RTO timer generation (lazy cancellation).
    rto_gen: u64,
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
    /// Creates a sender with the given congestion controller.
    pub fn new(cfg: SenderConfig, cc: impl CongestionControl) -> Self {
        Self::new_boxed(cfg, Box::new(cc))
    }

    /// Creates a sender from an already-boxed controller (used by config
    /// tables that choose the algorithm at runtime).
    pub fn new_boxed(cfg: SenderConfig, cc: Box<dyn CongestionControl>) -> Self {
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
            rto_gen: 0,
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
        ((self.snd_nxt - self.snd_una) as f64) / f64::from(self.cfg.mss)
    }

    fn priority_for(&self, seq: u64) -> u64 {
        match &self.cfg.priority {
            PriorityPolicy::None => 0,
            PriorityPolicy::RemainingBytes => self.stream_end.saturating_sub(self.snd_una),
            PriorityPolicy::Pias { thresholds } => {
                let sent = seq.saturating_sub(self.transfer_start);
                thresholds.iter().filter(|&&t| sent >= t).count() as u64
            }
        }
    }

    fn make_segment(&self, me: NodeId, seq: u64, len: u32) -> Packet {
        let mut pkt = Packet::data(self.cfg.flow, me, self.cfg.dst, seq, len)
            .with_priority(self.priority_for(seq));
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

    fn arm_rto(&mut self, ctx: &mut AgentCtx<'_>) {
        self.rto_gen += 1;
        self.rto_armed = true;
        let rto = self.rtt.rto();
        ctx.set_timer(rto, self.rto_gen);
    }

    fn disarm_rto(&mut self) {
        self.rto_gen += 1;
        self.rto_armed = false;
    }

    fn transmit_new(&mut self, ctx: &mut AgentCtx<'_>) {
        let me = ctx.node();
        let cwnd_pkts = self.window.cwnd.floor().max(Window::MIN_CWND);
        while self.snd_nxt < self.stream_end {
            if self.inflight_packets() + 1.0 > cwnd_pkts + 1e-9 {
                break;
            }
            let len = u32::try_from((self.stream_end - self.snd_nxt).min(u64::from(self.cfg.mss)))
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
            newly_acked_packets: newly as f64 / f64::from(self.cfg.mss),
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
            self.disarm_rto();
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

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, token: u64) {
        if token != self.rto_gen || !self.rto_armed {
            return; // stale timer
        }
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
