//! Egress queue disciplines.
//!
//! Each directed channel owns one queue. Three disciplines cover every
//! system in the paper:
//!
//! * [`QueueKind::DropTail`] — plain FIFO with a byte cap: the commodity
//!   switch the paper's testbed uses for TCP-Reno and MLTCP (no switch
//!   support needed is the whole point).
//! * [`QueueKind::EcnDropTail`] — FIFO that marks ECN-capable packets once
//!   the backlog exceeds a threshold `K`, as DCTCP requires.
//! * [`QueueKind::StrictPriority`] — serves the numerically *lowest*
//!   priority tag first and, when full, evicts the numerically *highest*
//!   (least urgent) packet — pFabric's switch behaviour with
//!   `priority = remaining flow bytes`.
//!
//! All disciplines preserve FIFO order among equal-priority packets and
//! account capacity in bytes.

use crate::packet::{EcnCodepoint, Packet};
use std::collections::{BTreeMap, VecDeque};

/// Configuration for an egress queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueKind {
    /// FIFO, dropping arrivals once `cap_bytes` of backlog exist.
    DropTail {
        /// Maximum queued bytes.
        cap_bytes: u64,
    },
    /// FIFO with DCTCP-style marking: arrivals that would leave more than
    /// `mark_threshold_bytes` queued get a CE mark (if ECN-capable); drops
    /// still occur at `cap_bytes`.
    EcnDropTail {
        /// Maximum queued bytes.
        cap_bytes: u64,
        /// Marking threshold `K` in bytes.
        mark_threshold_bytes: u64,
    },
    /// pFabric-style: lowest `priority` value served first; when the queue
    /// is full the highest-priority-value (least urgent) packet is evicted
    /// to admit a more urgent arrival.
    StrictPriority {
        /// Maximum queued bytes.
        cap_bytes: u64,
    },
}

impl QueueKind {
    /// Drop-tail with a default 500 kB buffer (≈ one bandwidth-delay
    /// product of the paper's 50 Gbps / 80 µs bottleneck).
    pub fn default_drop_tail() -> Self {
        QueueKind::DropTail { cap_bytes: 500_000 }
    }

    /// Instantiates the discipline.
    pub fn build(self) -> LinkQueue {
        match self {
            QueueKind::DropTail { cap_bytes } => LinkQueue::Fifo(FifoQueue::new(cap_bytes, None)),
            QueueKind::EcnDropTail {
                cap_bytes,
                mark_threshold_bytes,
            } => LinkQueue::Fifo(FifoQueue::new(cap_bytes, Some(mark_threshold_bytes))),
            QueueKind::StrictPriority { cap_bytes } => {
                LinkQueue::Priority(PriorityQueue::new(cap_bytes))
            }
        }
    }
}

/// A built per-channel queue, dispatched by enum match rather than
/// vtable: enqueue/dequeue sit on the serializer hot path, and the two
/// variants let the compiler inline both bodies behind one predictable
/// branch instead of an indirect call.
#[derive(Debug)]
pub enum LinkQueue {
    /// FIFO (plain or ECN-marking).
    Fifo(FifoQueue),
    /// pFabric strict priority.
    Priority(PriorityQueue),
}

impl LinkQueue {
    /// Offers a packet; the queue may mark it, queue it, drop it, or
    /// evict another packet to admit it.
    #[inline]
    pub fn enqueue(&mut self, pkt: Packet) -> EnqueueOutcome {
        match self {
            LinkQueue::Fifo(q) => q.enqueue(pkt),
            LinkQueue::Priority(q) => q.enqueue(pkt),
        }
    }

    /// Removes the next packet to transmit.
    #[inline]
    pub fn dequeue(&mut self) -> Option<Packet> {
        match self {
            LinkQueue::Fifo(q) => q.dequeue(),
            LinkQueue::Priority(q) => q.dequeue(),
        }
    }

    /// Current backlog in bytes.
    #[inline]
    pub fn backlog_bytes(&self) -> u64 {
        match self {
            LinkQueue::Fifo(q) => q.backlog_bytes(),
            LinkQueue::Priority(q) => q.backlog_bytes(),
        }
    }

    /// Current backlog in packets.
    #[inline]
    pub fn backlog_packets(&self) -> usize {
        match self {
            LinkQueue::Fifo(q) => q.backlog_packets(),
            LinkQueue::Priority(q) => q.backlog_packets(),
        }
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.backlog_packets() == 0
    }

    /// Whether the queue is empty *and* would accept a packet of `wire`
    /// bytes unmodified right now — i.e. enqueue-then-dequeue would be
    /// the identity. This is the admission check behind the simulator's
    /// cut-through fast path: an empty queue never drops, evicts, or
    /// ECN-marks an arrival that fits the byte cap (marking thresholds
    /// compare against a backlog of zero).
    #[inline]
    pub fn passes_through(&self, wire: u32) -> bool {
        match self {
            LinkQueue::Fifo(q) => q.queue.is_empty() && u64::from(wire) <= q.cap_bytes,
            LinkQueue::Priority(q) => q.queue.is_empty() && u64::from(wire) <= q.cap_bytes,
        }
    }
}

/// Result of offering a packet to a queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Packet accepted unchanged.
    Accepted,
    /// Packet accepted and a CE mark was applied (ECN-capable arrival
    /// over the marking threshold).
    AcceptedMarked,
    /// The offered packet was dropped.
    DroppedArrival(Packet),
    /// The offered packet was accepted and a lower-urgency victim was
    /// evicted to make room (pFabric behaviour).
    Evicted(Packet),
}

/// FIFO with optional ECN marking threshold.
#[derive(Debug)]
pub struct FifoQueue {
    cap_bytes: u64,
    mark_threshold: Option<u64>,
    queue: VecDeque<Packet>,
    bytes: u64,
}

impl FifoQueue {
    /// Creates a FIFO with the given byte capacity and optional DCTCP
    /// marking threshold.
    pub fn new(cap_bytes: u64, mark_threshold: Option<u64>) -> Self {
        Self {
            cap_bytes: cap_bytes.max(1),
            mark_threshold,
            queue: VecDeque::new(),
            bytes: 0,
        }
    }

    /// Offers a packet (see [`LinkQueue::enqueue`]).
    pub fn enqueue(&mut self, mut pkt: Packet) -> EnqueueOutcome {
        let size = u64::from(pkt.wire_bytes);
        if self.bytes + size > self.cap_bytes {
            return EnqueueOutcome::DroppedArrival(pkt);
        }
        let mut marked = false;
        if let Some(k) = self.mark_threshold {
            // DCTCP marks based on the instantaneous queue occupancy seen
            // by the arriving packet.
            if self.bytes > k && pkt.ecn.is_capable() {
                pkt.ecn = EcnCodepoint::CongestionExperienced;
                marked = true;
            }
        }
        self.bytes += size;
        self.queue.push_back(pkt);
        if marked {
            EnqueueOutcome::AcceptedMarked
        } else {
            EnqueueOutcome::Accepted
        }
    }

    /// Removes the next packet to transmit.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= u64::from(pkt.wire_bytes);
        Some(pkt)
    }

    /// Current backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.bytes
    }

    /// Current backlog in packets.
    pub fn backlog_packets(&self) -> usize {
        self.queue.len()
    }
}

/// Strict-priority queue: serves the lowest `priority` tag first (FIFO
/// within a tag); when full, evicts the highest tag to admit a more urgent
/// arrival. It drops the arrival instead if the arrival is itself the
/// least urgent, or if evicting that one packet would not make room.
#[derive(Debug)]
pub struct PriorityQueue {
    cap_bytes: u64,
    // Key: (priority, arrival sequence) → FIFO within equal priority.
    queue: BTreeMap<(u64, u64), Packet>,
    bytes: u64,
    next_seq: u64,
}

impl PriorityQueue {
    /// Creates a strict-priority queue with the given byte capacity.
    pub fn new(cap_bytes: u64) -> Self {
        Self {
            cap_bytes: cap_bytes.max(1),
            queue: BTreeMap::new(),
            bytes: 0,
            next_seq: 0,
        }
    }

    /// Offers a packet (see [`LinkQueue::enqueue`]).
    pub fn enqueue(&mut self, pkt: Packet) -> EnqueueOutcome {
        let size = u64::from(pkt.wire_bytes);
        if self.bytes + size <= self.cap_bytes {
            let key = (pkt.priority, self.next_seq);
            self.next_seq += 1;
            self.bytes += size;
            self.queue.insert(key, pkt);
            return EnqueueOutcome::Accepted;
        }
        // Full: compare against the least-urgent resident. pFabric evicts
        // per packet, so an eviction that would not free room for the
        // arrival (a short victim, a long arrival) is declined and the
        // arrival dropped: every offered packet is queued or reported.
        match self.queue.iter().next_back() {
            Some((&worst_key, worst))
                if worst_key.0 > pkt.priority
                    && self.bytes - u64::from(worst.wire_bytes) + size <= self.cap_bytes =>
            {
                let victim = self.queue.remove(&worst_key).expect("key just observed");
                self.bytes -= u64::from(victim.wire_bytes);
                let key = (pkt.priority, self.next_seq);
                self.next_seq += 1;
                self.bytes += size;
                self.queue.insert(key, pkt);
                EnqueueOutcome::Evicted(victim)
            }
            _ => EnqueueOutcome::DroppedArrival(pkt),
        }
    }

    /// Removes the next packet to transmit.
    pub fn dequeue(&mut self) -> Option<Packet> {
        // pFabric dequeue: find the most urgent packet, then serve the
        // *earliest-arrived* packet of that packet's flow — this keeps
        // packets of a single flow in order even though later packets
        // carry smaller remaining-bytes tags (pFabric §4.2 does exactly
        // this to avoid in-flow reordering).
        let best_key = *self.queue.keys().next()?;
        let best_flow = self.queue.get(&best_key).expect("key just observed").flow;
        let earliest_key = self
            .queue
            .iter()
            .filter(|(_, p)| p.flow == best_flow)
            .min_by_key(|(&(_, seq), _)| seq)
            .map(|(&k, _)| k)
            .expect("flow has at least the best packet");
        let pkt = self.queue.remove(&earliest_key).expect("key just observed");
        self.bytes -= u64::from(pkt.wire_bytes);
        Some(pkt)
    }

    /// Current backlog in bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.bytes
    }

    /// Current backlog in packets.
    pub fn backlog_packets(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::packet::FlowId;

    fn pkt(flow: u64, size_payload: u32, prio: u64) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), 0, size_payload).with_priority(prio)
    }

    fn ecn_pkt(size_payload: u32) -> Packet {
        pkt(1, size_payload, 0).with_ecn(EcnCodepoint::Capable)
    }

    #[test]
    fn build_selects_the_discipline() {
        let mut q = QueueKind::default_drop_tail().build();
        assert!(matches!(q, LinkQueue::Fifo(_)));
        q.enqueue(pkt(1, 100, 0));
        assert_eq!(q.backlog_packets(), 1);
        assert_eq!(q.dequeue().unwrap().flow, FlowId(1));
        assert!(q.is_empty());
        let p = QueueKind::StrictPriority { cap_bytes: 1000 }.build();
        assert!(matches!(p, LinkQueue::Priority(_)));
    }

    #[test]
    fn passes_through_only_when_empty_and_fitting() {
        let mut q = QueueKind::DropTail { cap_bytes: 5_000 }.build();
        assert!(q.passes_through(1540));
        assert!(!q.passes_through(6_000)); // over the byte cap
        q.enqueue(pkt(1, 100, 0));
        assert!(!q.passes_through(40)); // non-empty: must really queue
        q.dequeue();
        assert!(q.passes_through(40));
        let p = QueueKind::StrictPriority { cap_bytes: 300 }.build();
        assert!(p.passes_through(140));
        assert!(!p.passes_through(400));
    }

    #[test]
    fn fifo_preserves_order() {
        let mut q = FifoQueue::new(1_000_000, None);
        for i in 0..5 {
            assert_eq!(q.enqueue(pkt(i, 100, 0)), EnqueueOutcome::Accepted);
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().flow, FlowId(i));
        }
        assert_eq!(q.backlog_packets(), 0);
    }

    #[test]
    fn fifo_drops_when_full() {
        let mut q = FifoQueue::new(300, None);
        assert_eq!(q.enqueue(pkt(1, 100, 0)), EnqueueOutcome::Accepted); // 140 B
        assert_eq!(q.enqueue(pkt(2, 100, 0)), EnqueueOutcome::Accepted); // 280 B
        match q.enqueue(pkt(3, 100, 0)) {
            EnqueueOutcome::DroppedArrival(p) => assert_eq!(p.flow, FlowId(3)),
            other => panic!("expected drop, got {other:?}"),
        }
        assert_eq!(q.backlog_packets(), 2);
        assert_eq!(q.backlog_bytes(), 280);
    }

    #[test]
    fn fifo_byte_accounting_through_dequeue() {
        let mut q = FifoQueue::new(10_000, None);
        q.enqueue(pkt(1, 1500, 0));
        q.enqueue(pkt(2, 500, 0));
        assert_eq!(q.backlog_bytes(), 1540 + 540);
        q.dequeue();
        assert_eq!(q.backlog_bytes(), 540);
        q.dequeue();
        assert_eq!(q.backlog_bytes(), 0);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn ecn_marks_above_threshold_only_capable_packets() {
        let mut q = FifoQueue::new(1_000_000, Some(1000));
        // Fill past the 1000 B threshold with non-capable packets.
        q.enqueue(pkt(1, 1500, 0));
        assert_eq!(q.backlog_bytes(), 1540);
        // Capable arrival sees backlog 1540 > 1000 → marked.
        assert_eq!(q.enqueue(ecn_pkt(100)), EnqueueOutcome::AcceptedMarked);
        // Non-capable arrival is never marked.
        assert_eq!(q.enqueue(pkt(2, 100, 0)), EnqueueOutcome::Accepted);
        q.dequeue(); // the first 1500B packet
        let marked = q.dequeue().unwrap();
        assert!(marked.ecn.is_marked());
        let unmarked = q.dequeue().unwrap();
        assert!(!unmarked.ecn.is_marked());
    }

    #[test]
    fn ecn_does_not_mark_below_threshold() {
        let mut q = FifoQueue::new(1_000_000, Some(10_000));
        assert_eq!(q.enqueue(ecn_pkt(1500)), EnqueueOutcome::Accepted);
        assert!(!q.dequeue().unwrap().ecn.is_marked());
    }

    #[test]
    fn priority_serves_most_urgent_first() {
        let mut q = PriorityQueue::new(1_000_000);
        q.enqueue(pkt(1, 100, 500));
        q.enqueue(pkt(2, 100, 10));
        q.enqueue(pkt(3, 100, 200));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(2));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(3));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(1));
    }

    #[test]
    fn priority_fifo_within_equal_priority() {
        let mut q = PriorityQueue::new(1_000_000);
        for i in 0..5 {
            q.enqueue(pkt(i, 100, 7));
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().flow, FlowId(i));
        }
    }

    #[test]
    fn priority_evicts_least_urgent_when_full() {
        let mut q = PriorityQueue::new(300); // fits two 140 B packets
        q.enqueue(pkt(1, 100, 100));
        q.enqueue(pkt(2, 100, 900));
        match q.enqueue(pkt(3, 100, 5)) {
            EnqueueOutcome::Evicted(victim) => assert_eq!(victim.flow, FlowId(2)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.dequeue().unwrap().flow, FlowId(3));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(1));
    }

    #[test]
    fn priority_drops_least_urgent_arrival_when_full() {
        let mut q = PriorityQueue::new(300);
        q.enqueue(pkt(1, 100, 1));
        q.enqueue(pkt(2, 100, 2));
        match q.enqueue(pkt(3, 100, 999)) {
            EnqueueOutcome::DroppedArrival(p) => assert_eq!(p.flow, FlowId(3)),
            other => panic!("expected arrival drop, got {other:?}"),
        }
    }

    /// Evicting the least-urgent packet would leave too little room for
    /// a long arrival: the eviction is declined and the arrival reported
    /// dropped, so every offered packet is resident or reported, in
    /// packets and in bytes.
    #[test]
    fn priority_declines_an_eviction_that_cannot_make_room() {
        let mut q = PriorityQueue::new(3000);
        let offered = [pkt(1, 2500, 10), pkt(2, 200, 1000), pkt(3, 1500, 500)];
        let (mut dropped, mut dropped_bytes) = (0, 0);
        for p in offered {
            match q.enqueue(p) {
                EnqueueOutcome::Accepted | EnqueueOutcome::AcceptedMarked => {}
                EnqueueOutcome::DroppedArrival(d) | EnqueueOutcome::Evicted(d) => {
                    dropped += 1;
                    dropped_bytes += u64::from(d.wire_bytes);
                }
            }
        }
        // 2540 B + 240 B resident: evicting the 240 B victim would leave
        // 2540 B, and the 1540 B arrival still would not fit in 3000 B.
        let offered_bytes: u64 = offered.iter().map(|p| u64::from(p.wire_bytes)).sum();
        assert_eq!(q.backlog_packets() + dropped, offered.len());
        assert_eq!(q.backlog_bytes() + dropped_bytes, offered_bytes);
        assert_eq!((q.backlog_packets(), dropped), (2, 1));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(1));
        assert_eq!(q.dequeue().unwrap().flow, FlowId(2));
    }

    #[test]
    fn priority_tie_on_full_prefers_resident() {
        // Arrival with priority equal to the worst resident is dropped
        // (strictly-greater comparison), avoiding useless churn.
        let mut q = PriorityQueue::new(300);
        q.enqueue(pkt(1, 100, 5));
        q.enqueue(pkt(2, 100, 5));
        match q.enqueue(pkt(3, 100, 5)) {
            EnqueueOutcome::DroppedArrival(p) => assert_eq!(p.flow, FlowId(3)),
            other => panic!("expected arrival drop, got {other:?}"),
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// FIFO conservation: every accepted packet comes out exactly
            /// once, in order, and byte accounting ends at zero.
            #[test]
            fn fifo_conservation(sizes in proptest::collection::vec(1u32..3000, 1..100)) {
                let mut q = FifoQueue::new(1_000_000_000, None);
                let mut accepted = vec![];
                for (i, &s) in sizes.iter().enumerate() {
                    if let EnqueueOutcome::Accepted = q.enqueue(pkt(i as u64, s, 0)) {
                        accepted.push(i as u64);
                    }
                }
                let mut out = vec![];
                while let Some(p) = q.dequeue() {
                    out.push(p.flow.0);
                }
                prop_assert_eq!(accepted, out);
                prop_assert_eq!(q.backlog_bytes(), 0);
            }

            /// Priority queue: dequeue order is sorted by (priority, then
            /// arrival order), regardless of insertion order.
            #[test]
            fn priority_order(prios in proptest::collection::vec(0u64..50, 1..100)) {
                let mut q = PriorityQueue::new(1_000_000_000);
                for (i, &p) in prios.iter().enumerate() {
                    q.enqueue(pkt(i as u64, 100, p));
                }
                let mut prev: Option<(u64, u64)> = None;
                while let Some(pk) = q.dequeue() {
                    let key = (pk.priority, pk.flow.0);
                    if let Some(pv) = prev {
                        prop_assert!(pv.0 <= key.0);
                        if pv.0 == key.0 {
                            prop_assert!(pv.1 < key.1);
                        }
                    }
                    prev = Some(key);
                }
            }
        }
    }
}
