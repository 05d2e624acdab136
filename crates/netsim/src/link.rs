//! Directed channels: rate, propagation delay and loss.
//!
//! A full-duplex cable between two nodes is modelled as two independent
//! directed channels, each with its own egress queue and serializer —
//! matching how real NIC/switch ports behave.

use crate::node::NodeId;
use crate::queue::QueueKind;
use crate::time::{SimDuration, SimTime};

/// Index of a directed channel within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Sentinel for "no link": the ingress of a packet a host's agent
    /// sends, and the link of a drop at a node (no route, no bound
    /// agent). No event rides it: the event queue panics on it.
    pub const NONE: LinkId = LinkId(u32::MAX);

    /// The index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Transmission rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// From bits per second.
    pub const fn bps(b: u64) -> Self {
        Bandwidth(b)
    }
    /// From megabits per second.
    pub const fn mbps(m: u64) -> Self {
        Bandwidth(m * 1_000_000)
    }
    /// From gigabits per second.
    pub const fn gbps(g: u64) -> Self {
        Bandwidth(g * 1_000_000_000)
    }

    /// Bits per second.
    pub fn as_bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` at this rate (rounded up to whole ns).
    pub fn tx_time(self, bytes: u32) -> SimDuration {
        debug_assert!(self.0 > 0, "zero-rate link");
        // Realistic packet sizes keep `bytes × 8e9` inside u64, where the
        // division is a single hardware instruction; the u128 path (a
        // software routine) exists only for absurd byte counts.
        match u64::from(bytes).checked_mul(8 * 1_000_000_000) {
            Some(bits) => SimDuration(bits.div_ceil(self.0)),
            None => {
                let bits = u128::from(bytes) * 8 * 1_000_000_000;
                SimDuration(bits.div_ceil(u128::from(self.0)) as u64)
            }
        }
    }

    /// The bandwidth-delay product in bytes for a given round-trip time.
    pub fn bdp_bytes(self, rtt: SimDuration) -> u64 {
        ((u128::from(self.0) * u128::from(rtt.as_nanos())) / (8 * 1_000_000_000)) as u64
    }
}

/// Static parameters of a directed channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Serialization rate.
    pub rate: Bandwidth,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Egress queue discipline.
    pub queue: QueueKind,
    /// Bernoulli per-packet drop probability applied as the packet leaves
    /// the serializer (models the random-loss environment of the §5
    /// fairness analysis). `0.0` disables.
    pub loss_probability: f64,
}

impl LinkSpec {
    /// A lossless drop-tail channel.
    pub fn new(rate: Bandwidth, delay: SimDuration) -> Self {
        Self {
            rate,
            delay,
            queue: QueueKind::default_drop_tail(),
            loss_probability: 0.0,
        }
    }

    /// Overrides the queue discipline (builder style).
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Sets a Bernoulli loss probability (builder style).
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_probability = p.clamp(0.0, 1.0);
        self
    }
}

/// Runtime state of a directed channel.
#[derive(Debug)]
pub struct Channel {
    /// The channel's id.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Static parameters.
    pub spec: LinkSpec,
    /// `(time, seq)` event key of the departure of the packet last put
    /// on the wire. The serializer is busy while the event being
    /// dispatched sorts before this key (see [`Channel::busy`]).
    pub(crate) idle_at: SimTime,
    pub(crate) idle_seq: u64,
    /// Whether that departure is scheduled as a `ChannelIdle` event. It
    /// is only when a packet waits behind the one on the wire; otherwise
    /// the channel just goes idle at the key, with no event.
    pub(crate) armed: bool,
    /// The one channel feeding this single-fed host edge, whose switch
    /// hops it may fold (see `crate::sim`, *Folded hops*); set when the
    /// run starts. [`LinkId::NONE`] on every other channel.
    pub(crate) feeder: LinkId,
    /// The `(time, seq)` key of the latest switch arrival toward this edge
    /// that did not fold; while it is ahead of the dispatch, none folds.
    pub(crate) unfolded: (SimTime, u64),
    /// Whether this channel is the feeder of a single-fed host edge.
    pub(crate) feeds: bool,
    /// Whether the channel is operational. While `false` (fault
    /// injection: [`crate::fault::FaultAction::LinkDown`]) egress is
    /// blocked and arriving traffic queues behind the outage.
    pub up: bool,
    /// Incarnation counter, bumped every time the channel goes down.
    /// Deliveries are stamped with the epoch at serialization time; a
    /// mismatch at arrival means the packet was on the wire when the
    /// link was cut, so it is dropped.
    pub epoch: u32,
    /// Effective-rate multiplier (fault injection: a brownout sets
    /// `< 1.0`). Serialization time scales by `1 / rate_factor`.
    pub rate_factor: f64,
    /// One-entry serialization-time memo (`bytes` key, `u32::MAX` when
    /// empty). A directed channel carries mostly one packet size (MTU
    /// data one way, acks the other), so this turns the per-packet
    /// division into a compare. Only consulted at `rate_factor == 1.0`.
    tx_cache_bytes: u32,
    tx_cache_ns: u64,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, spec: LinkSpec) -> Self {
        Self {
            id,
            from,
            to,
            spec,
            idle_at: SimTime::ZERO,
            idle_seq: 0,
            armed: false,
            feeder: LinkId::NONE,
            unfolded: (SimTime::ZERO, 0),
            feeds: false,
            up: true,
            epoch: 0,
            rate_factor: 1.0,
            tx_cache_bytes: u32::MAX,
            tx_cache_ns: 0,
        }
    }

    /// Whether the serializer is still sending a packet at the event with
    /// key `(now, seq)`. Event seqs start at 1, so `(t, 0)` (agent
    /// start-up) sorts before every departure.
    pub(crate) fn busy(&self, now: SimTime, seq: u64) -> bool {
        (now, seq) < (self.idle_at, self.idle_seq)
    }

    /// Serialization time for a packet of `bytes` on this channel at the
    /// current effective rate (provisioned rate × `rate_factor`).
    pub fn tx_time(&mut self, bytes: u32) -> SimDuration {
        if self.rate_factor == 1.0 {
            if self.tx_cache_bytes == bytes {
                return SimDuration(self.tx_cache_ns);
            }
            let t = self.spec.rate.tx_time(bytes);
            self.tx_cache_bytes = bytes;
            self.tx_cache_ns = t.as_nanos();
            t
        } else {
            let base = self.spec.rate.tx_time(bytes);
            SimDuration((base.as_nanos() as f64 / self.rate_factor).ceil() as u64)
        }
    }

    /// The two instants produced by starting to serialize `bytes` at
    /// `now`: when the serializer frees up (`done`, the channel-idle
    /// wakeup) and when the packet reaches the far node (`done` plus the
    /// propagation delay). Arrivals per channel are monotone in `now`
    /// because `done` is — this is the FIFO invariant the event engine's
    /// link rails rely on (see `crate::event`).
    pub fn serialize_spans(&mut self, now: SimTime, bytes: u32) -> (SimTime, SimTime) {
        let done = now + self.tx_time(bytes);
        (done, done + self.spec.delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constructors() {
        assert_eq!(Bandwidth::gbps(50).as_bps(), 50_000_000_000);
        assert_eq!(Bandwidth::mbps(100).as_bps(), 100_000_000);
        assert_eq!(Bandwidth::bps(42).as_bps(), 42);
    }

    #[test]
    fn tx_time_exact_cases() {
        // 1500 B at 1 Gbps = 12 µs.
        assert_eq!(Bandwidth::gbps(1).tx_time(1500), SimDuration::micros(12));
        // 1540 B at 50 Gbps = 246.4 ns → rounds up to 247.
        assert_eq!(Bandwidth::gbps(50).tx_time(1540), SimDuration::nanos(247));
        // Zero bytes serialize instantly.
        assert_eq!(Bandwidth::gbps(1).tx_time(0), SimDuration::ZERO);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps = 8/3 s ≈ 2.666…s → ceil to 2_666_666_667 ns.
        assert_eq!(Bandwidth::bps(3).tx_time(1).as_nanos(), 2_666_666_667);
    }

    #[test]
    fn bdp() {
        // 50 Gbps × 80 µs RTT = 500 kB.
        let bdp = Bandwidth::gbps(50).bdp_bytes(SimDuration::micros(80));
        assert_eq!(bdp, 500_000);
    }

    #[test]
    fn serialize_spans_orders_done_before_arrival() {
        use crate::node::NodeId;
        let spec = LinkSpec::new(Bandwidth::gbps(1), SimDuration::micros(5));
        let mut ch = Channel::new(LinkId(0), NodeId(0), NodeId(1), spec);
        let (done, arrival) = ch.serialize_spans(SimTime(100), 1500);
        assert_eq!(done, SimTime(100) + SimDuration::micros(12));
        assert_eq!(arrival, done + SimDuration::micros(5));
        // A brownout stretches serialization but not propagation.
        ch.rate_factor = 0.5;
        let (slow_done, slow_arrival) = ch.serialize_spans(SimTime(100), 1500);
        assert_eq!(slow_done, SimTime(100) + SimDuration::micros(24));
        assert_eq!(slow_arrival, slow_done + SimDuration::micros(5));
    }

    /// A channel spans two cache lines; the per-packet path reads several
    /// of its fields, and a third line costs every hop.
    #[test]
    fn channel_stays_two_cache_lines() {
        assert!(
            std::mem::size_of::<Channel>() <= 128,
            "Channel grew to {} bytes",
            std::mem::size_of::<Channel>()
        );
    }

    #[test]
    fn spec_builders() {
        let s = LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(5))
            .with_loss(0.01)
            .with_queue(QueueKind::StrictPriority { cap_bytes: 1000 });
        assert_eq!(s.loss_probability, 0.01);
        assert!(matches!(s.queue, QueueKind::StrictPriority { .. }));
        // Loss clamps to [0,1].
        assert_eq!(
            LinkSpec::new(Bandwidth::gbps(1), SimDuration::ZERO)
                .with_loss(7.0)
                .loss_probability,
            1.0
        );
    }
}
