//! The deterministic event engine.
//!
//! Logically, the queue is a total order over pending events by
//! `(time, sequence)`: events scheduled for the same instant fire in
//! insertion order, which makes the whole simulation reproducible
//! bit-for-bit regardless of the engine's internals.
//!
//! The engine is one binary heap plus per-link *rails*. The heap holds
//! timers, messages and faults, a fraction of a percent of all events;
//! the rails exploit link serialization order so per-packet events never
//! touch a heap at all (see below). Both order events by one packed
//! `u128` key, `time << 64 | seq`, whose integer order is the
//! `(time, seq)` order; the global pop takes the smaller key of the two
//! sources' heads. `tests/reference_queue.rs` pins the pop order against
//! a plain `BinaryHeap` reference model.
//!
//! Each event kind has one typed entry point: [`EventQueue::schedule_timer`],
//! [`EventQueue::schedule_message`] and [`EventQueue::schedule_fault`] go
//! to the heap; [`EventQueue::schedule_delivery`] and
//! [`EventQueue::schedule_departure`] go to the rails.
//!
//! ## Link rails (serialization coalescing)
//!
//! A directed channel serializes one packet at a time, and the simulator
//! schedules its `ChannelIdle` (the departure of the packet being
//! serialized) only when another packet waits behind it. So per link
//! there is **at most one** pending `ChannelIdle`, and usually none: a
//! departure with no waiter is never an event (see *Reserved sequence
//! numbers* below). Deliveries leave the link in FIFO order: each
//! arrival is `done + delay` where `done` is non-decreasing and `delay`
//! is a link constant — true under brownouts (which only stretch `done`)
//! and under link flaps (which drop, never reorder). Each link therefore
//! keeps a one-slot departure and a `VecDeque` of in-flight deliveries,
//! and its earliest pending event, its *head*, is the smaller of the two
//! fronts. The common per-packet cost is two deque ops and one short
//! index scan (below) instead of four full-depth binary-heap sifts.
//!
//! Both properties are a contract, not a hint: a second pending
//! departure on one link, or a delivery earlier than the link's last
//! one, panics. Host-local sends ([`LinkId::NONE`]) ride one extra
//! loopback rail; each is scheduled at the current instant under a
//! rising seq, so they are FIFO by construction.
//!
//! A rail entry holds only what differs per packet: `(at, seq, epoch,
//! pkt)`. The carrying link is the rail itself, and the receiving node
//! follows from it (the link's far end, or `pkt.dst` on the loopback
//! rail), so neither is stored; the dispatcher resolves the node when
//! the delivery pops.
//!
//! ## The rail index
//!
//! The earliest head comes from one `Vec` of `(key, rail)` pairs, one per
//! rail with pending events, sorted by descending key so the earliest
//! head is last. Keys are unique, since seqs are. Seqs start at 1, so the
//! key 0 marks an empty departure slot or rail. A pop takes the last
//! entry and re-inserts its rail's new head, scanning from the latest
//! end. A push that leaves its rail's head unchanged, such as a delivery
//! queued behind another, touches no index. A head that appears or moves
//! earlier, such as a rail refilling or a departure armed ahead of
//! in-flight deliveries, is found by key, removed and re-inserted.
//!
//! Each reindex therefore costs `O(active rails)` compares and moves,
//! where a heap costs `O(log rails)`. That fits the topologies simulated
//! here: a dumbbell has four rails per single-flow job plus three (27 on
//! the six-job benchmark), and multi-bottleneck fabrics such as Clos are
//! not built. On the six-job benchmark about five rails hold events at a
//! time, and a popped rail's next head, one serialization later, usually
//! sorts behind all but one or two of the others, so the scan stops
//! within about three entries and moves about four. A fabric with
//! hundreds of busy links would want a heap again.
//!
//! ## Reserved sequence numbers
//!
//! [`EventQueue::reserve_seq`] takes a sequence number without
//! scheduling anything, and [`EventQueue::schedule_departure`] later
//! inserts a `ChannelIdle` under it. The simulator reserves a departure's
//! seq at the moment it starts serializing a packet, which is where it
//! would have scheduled the departure outright. Every event scheduled
//! afterwards therefore gets the same seq as if the departure had been
//! scheduled, and a departure inserted later sorts at the exact
//! `(time, seq)` it would have had. Leaving out departures that no packet
//! waits for thus removes events without moving any other event in the
//! pop order. Numbering starts at 1, leaving `(t, 0)` below every event
//! at `t`.
//!
//! The simulator's per-agent timer slot uses the same pattern:
//! [`EventQueue::schedule_timer_reserved`] inserts a `Timer` under a seq a
//! re-arm reserved earlier, so the slot's one queued event can move to
//! the latest deadline and still pop where a timer scheduled at that
//! re-arm would have (see `AgentCtx::rearm_timer` in [`crate::sim`]).
//!
//! ## Folded hops
//!
//! A switch arrival whose next hop is a single-fed host edge may never
//! become an event: the feeder's transmit serializes the packet onto the
//! edge at its switch-arrival time and schedules only the host delivery
//! (see *Folded hops* in [`crate::sim`]). The arrival's seq is still
//! reserved at the feeder's transmit, where
//! [`EventQueue::schedule_delivery_reserved`] would have used it, so the
//! rest of the numbering keeps its order. The edge's departure seq and the
//! host delivery's seq are reserved there too, one hop latency before the
//! switch-arrival pop that would have taken them. That is the one
//! exception to the tie rule above: the host delivery, and the edge's
//! departure if a later packet queues behind the folded one and arms it,
//! now sort before, not after, the events at their very nanosecond that
//! were scheduled while the packet was on the feeder. No other pair of
//! events changes order.
//!
//! ## Event size
//!
//! The heap holds no deliveries: its events carry only a timer, message
//! or fault, which pins a heap entry at 40 bytes (test-enforced by
//! `event_size_stays_small`), so its sifts stay cheap. A rail entry
//! is `(at, seq, epoch, pkt)` and nothing else, 72 bytes with the
//! packet inline (also test-enforced): deque pushes don't sift, so the
//! packet is written once, when the hop is scheduled, and read once,
//! when it pops. [`PoppedKind::Deliver`] rebuilds the [`Delivery`] from
//! the entry and the rail's link.
//!
//! The read is one copy. The pop is inlined into the simulator's step,
//! so the popped fields go from the deque entry to the handler without a
//! [`Popped`] written to memory and read back in wider chunks, which
//! stalls store-to-load forwarding on x86-64. Two layout choices keep the
//! packet's bytes whole on the way: the pop copies the entry out of
//! `VecDeque::front` rather than `pop_front`, whose `Option` would test a
//! niche inside the packet, and [`PoppedKind`] is `repr(u8)`, so its tag
//! is a byte of its own rather than a niche in the packet's header.
//!
//! The queue keeps no length counter: it is empty when the heap and the
//! rail index are, and [`EventQueue::len`] is counted on demand. A
//! counter bumped beside `next_seq` on every schedule would be one more
//! store per hop, and one the compiler may merge with `next_seq`'s into
//! a wide load that stalls behind the scalar store of a preceding
//! [`EventQueue::reserve_seq`].
//!
//! The queue never shrinks its buffers. A drained queue is a finished
//! simulation (agents schedule only from inside handlers, and faults are
//! installed before the run), and its owner drops it with the rest of
//! the scenario.

use crate::link::LinkId;
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A packet in flight: the payload of [`PoppedKind::Deliver`].
///
/// Besides the packet itself, a delivery names the channel that carried
/// it (`via`, the rail it rode) and that channel's incarnation (`epoch`)
/// at serialization time, so fault injection can cut packets that were
/// on the wire when a link went down: the arrival handler drops any
/// delivery whose stamped epoch no longer matches the channel's.
/// Host-local sends use [`LinkId::NONE`] and are never cut. The
/// receiving node is not stored: it is `via`'s far end, or `pkt.dst` for
/// a host-local send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The channel the packet crossed ([`LinkId::NONE`] for local sends).
    pub via: LinkId,
    /// The channel's epoch when serialization started.
    pub epoch: u32,
    /// The packet.
    pub pkt: Packet,
}

/// What a heap event does when it fires: everything but deliveries and
/// departures, which ride the rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeapKind {
    Timer { agent: u32, token: u64 },
    Message { to: u32, from: u32, token: u64 },
    Fault { index: u32 },
}

/// A scheduled event, as the heap stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    /// When the event fires.
    at: SimTime,
    /// Insertion sequence number (tie-break).
    seq: u64,
    /// The action.
    kind: HeapKind,
}

impl Event {
    #[inline]
    fn key(&self) -> u128 {
        pack(self.at, self.seq)
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A popped event — what [`EventQueue::pop_event`] returns to the
/// simulator's dispatcher.
#[derive(Debug)]
pub struct Popped {
    /// When the event fired.
    pub at: SimTime,
    /// Insertion sequence number.
    pub seq: u64,
    /// The action, with any delivery payload inline.
    pub kind: PoppedKind,
}

/// What happens when a popped event fires. See [`Popped`].
///
/// `repr(u8)` gives the kind a tag byte of its own. Without it the tag
/// would be a niche in the delivery's packet header, and every match on
/// the kind would split the packet's bytes (see the module docs, *Event
/// size*).
#[derive(Debug)]
#[repr(u8)]
pub enum PoppedKind {
    /// A packet finishes propagation and arrives (payload inline).
    Deliver(Delivery),
    /// A directed channel finishes serializing its current packet and
    /// starts the next one. The simulator schedules it only when a packet
    /// is queued behind the one on the wire (see the module docs,
    /// *Reserved sequence numbers*).
    ChannelIdle {
        /// The channel that became idle.
        link: LinkId,
    },
    /// An agent-scheduled timer fires; `agent` is the agent index and
    /// `token` an opaque value the agent chose.
    Timer {
        /// Owning agent (index into the simulator's agent table).
        agent: u32,
        /// Opaque discriminator chosen by the agent.
        token: u64,
    },
    /// An agent-to-agent message (e.g. a workload driver commanding a
    /// transport endpoint, or an endpoint reporting completion).
    Message {
        /// Receiving agent index.
        to: u32,
        /// Sending agent index.
        from: u32,
        /// Opaque payload.
        token: u64,
    },
    /// An installed fault fires; `index` points into the simulator's
    /// fault table (see [`crate::fault::FaultPlan`]).
    Fault {
        /// Index into the simulator's installed-fault table.
        index: u32,
    },
}

impl From<HeapKind> for PoppedKind {
    fn from(kind: HeapKind) -> Self {
        match kind {
            HeapKind::Timer { agent, token } => PoppedKind::Timer { agent, token },
            HeapKind::Message { to, from, token } => PoppedKind::Message { to, from, token },
            HeapKind::Fault { index } => PoppedKind::Fault { index },
        }
    }
}

/// Packs a `(time, seq)` key into one `u128` whose integer order is the
/// key's lexicographic order, so the rail index compares keys with one
/// branch-free compare. Seqs start at 1, so no event packs to
/// [`NO_KEY`].
#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_nanos()) << 64) | u128::from(seq)
}

/// The packed key of no event: an empty departure slot or rail head.
const NO_KEY: u128 = 0;

/// An in-flight delivery riding a link rail: its key, the carrying
/// link's epoch and the packet inline. The link is the rail's own and
/// the receiving node follows from it (see the module docs, *Link
/// rails*).
#[derive(Debug)]
struct RailDelivery {
    at: SimTime,
    seq: u64,
    epoch: u32,
    pkt: Packet,
}

impl RailDelivery {
    #[inline]
    fn key(&self) -> u128 {
        pack(self.at, self.seq)
    }
}

/// One directed channel's pending events: the departure of the packet
/// being serialized (its packed key, [`NO_KEY`] when none is scheduled),
/// and the FIFO of packets on the wire. The loopback rail holds only
/// host-local deliveries.
#[derive(Debug, Default)]
struct Rail {
    departure: u128,
    deliveries: VecDeque<RailDelivery>,
}

impl Rail {
    /// The packed key of the rail's earliest event, or [`NO_KEY`].
    #[inline]
    fn head_key(&self) -> u128 {
        match self.deliveries.front() {
            Some(d) if self.departure == NO_KEY || d.key() < self.departure => d.key(),
            _ => self.departure,
        }
    }
}

/// Per-link rails under a sorted index of their head keys. Rail 0 is the
/// loopback rail of host-local sends ([`LinkId::NONE`]); link `i` rides
/// rail `i + 1`.
#[derive(Debug, Default)]
struct Rails {
    rails: Vec<Rail>,
    /// `(head key, rail)` of every rail with pending events, sorted by
    /// descending key, so the earliest head is last. Keys are unique.
    index: Vec<(u128, u32)>,
}

impl Rails {
    /// The index of `link`'s rail, growing the table to hold it.
    #[inline]
    fn rail_of(&mut self, link: LinkId) -> usize {
        let li = link.0.wrapping_add(1) as usize;
        if li >= self.rails.len() {
            self.rails.resize_with(li + 1, Rail::default);
        }
        li
    }

    /// Inserts rail `li`'s head `key` into the index, scanning from the
    /// latest end: a popped rail's next head is usually later than most
    /// other heads (see the module docs, *The rail index*).
    #[inline]
    fn insert(&mut self, key: u128, li: usize) {
        let at = self
            .index
            .iter()
            .position(|e| e.0 < key)
            .unwrap_or(self.index.len());
        self.index.insert(at, (key, li as u32));
    }

    /// Moves rail `li`'s head in the index from `old` to the earlier
    /// `new`; an `old` of [`NO_KEY`] means the rail was not indexed.
    fn head_moved_earlier(&mut self, old: u128, new: u128, li: usize) {
        if old != NO_KEY {
            let p = self.index.iter().rposition(|e| e.0 == old);
            self.index.remove(p.expect("indexed rail head"));
        }
        self.insert(new, li);
    }

    /// Takes `link`'s departure slot.
    ///
    /// # Panics
    /// Panics if the link already has a departure pending.
    fn push_departure(&mut self, at: SimTime, seq: u64, link: LinkId) {
        let li = self.rail_of(link);
        let rail = &mut self.rails[li];
        assert!(
            rail.departure == NO_KEY,
            "second pending departure on {link:?}"
        );
        let key = pack(at, seq);
        rail.departure = key;
        let old = rail.deliveries.front().map_or(NO_KEY, RailDelivery::key);
        if old == NO_KEY || key < old {
            self.head_moved_earlier(old, key, li);
        }
    }

    /// Appends a delivery to `via`'s FIFO; `seq` must be fresh.
    ///
    /// # Panics
    /// Panics if the delivery arrives before the link's last one.
    fn push_delivery(&mut self, at: SimTime, seq: u64, via: LinkId, epoch: u32, pkt: Packet) {
        let li = self.rail_of(via);
        let rail = &mut self.rails[li];
        let (key, old) = (pack(at, seq), rail.departure);
        // Behind an earlier delivery, the head stays put.
        let moved = match rail.deliveries.back() {
            Some(last) => {
                assert!(last.at <= at, "out-of-order delivery on {via:?}");
                false
            }
            None => old == NO_KEY || key < old,
        };
        rail.deliveries.push_back(RailDelivery {
            at,
            seq,
            epoch,
            pkt,
        });
        if moved {
            self.head_moved_earlier(old, key, li);
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<u128> {
        self.index.last().map(|e| e.0)
    }

    /// Number of pending rail events, counted rail by rail.
    fn len(&self) -> usize {
        self.rails
            .iter()
            .map(|r| r.deliveries.len() + usize::from(r.departure != NO_KEY))
            .sum()
    }

    /// Pops the earliest rail head: the index's last entry. The rail's
    /// position names the link, for a departure and a delivery alike.
    #[inline(always)]
    fn pop_min(&mut self) -> Popped {
        let (key, li) = self.index.pop().expect("rail head exists");
        let rail = &mut self.rails[li as usize];
        let link = LinkId(li.wrapping_sub(1));
        let p = if key == rail.departure {
            rail.departure = NO_KEY;
            Popped {
                at: SimTime((key >> 64) as u64),
                seq: key as u64,
                kind: PoppedKind::ChannelIdle { link },
            }
        } else {
            // Copied out of `front`: `pop_front`'s `Option` would test
            // the niche in the packet's header byte.
            let r = rail.deliveries.front().expect("indexed rail head");
            let p = Popped {
                at: r.at,
                seq: r.seq,
                kind: PoppedKind::Deliver(Delivery {
                    via: link,
                    epoch: r.epoch,
                    pkt: r.pkt,
                }),
            };
            rail.deliveries.pop_front();
            p
        };
        let head = rail.head_key();
        if head != NO_KEY {
            self.insert(head, li as usize);
        }
        p
    }

    fn capacity(&self) -> usize {
        self.rails.iter().map(|r| r.deliveries.capacity()).sum()
    }
}

/// The simulation's event queue. See the module docs for its structure
/// and determinism contract.
#[derive(Debug)]
pub struct EventQueue {
    /// The next sequence number to issue. Numbering starts at 1, so
    /// `(t, 0)` sorts before every event at `t`: the simulator uses it
    /// as the key of agent start-up, which precedes every event.
    next_seq: u64,
    /// Timers, messages and faults.
    heap: BinaryHeap<Event>,
    rails: Rails,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            next_seq: 1,
            heap: BinaryHeap::new(),
            rails: Rails::default(),
        }
    }

    /// Takes the next sequence number without scheduling anything, so a
    /// later [`EventQueue::schedule_departure`] or
    /// [`EventQueue::schedule_timer_reserved`] can insert an event that
    /// sorts exactly where it would have had it been scheduled now.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn push_heap(&mut self, at: SimTime, seq: u64, kind: HeapKind) {
        self.heap.push(Event { at, seq, kind });
    }

    /// Schedules `Timer { agent, token }` at `at`.
    pub fn schedule_timer(&mut self, at: SimTime, agent: u32, token: u64) {
        let seq = self.reserve_seq();
        self.push_heap(at, seq, HeapKind::Timer { agent, token });
    }

    /// Schedules `Timer { agent, token }` at `(at, seq)`, where `seq` came
    /// from [`EventQueue::reserve_seq`] and has not been used since. The
    /// simulator's per-agent timer slot inserts its one pending event
    /// this way (see the module docs, *Reserved sequence numbers*).
    pub fn schedule_timer_reserved(&mut self, at: SimTime, seq: u64, agent: u32, token: u64) {
        debug_assert!(seq < self.next_seq, "timer under an unreserved seq");
        self.push_heap(at, seq, HeapKind::Timer { agent, token });
    }

    /// Schedules `Message { to, from, token }` at `at`.
    pub fn schedule_message(&mut self, at: SimTime, to: u32, from: u32, token: u64) {
        let seq = self.reserve_seq();
        self.push_heap(at, seq, HeapKind::Message { to, from, token });
    }

    /// Schedules `Fault { index }` at `at`.
    pub fn schedule_fault(&mut self, at: SimTime, index: u32) {
        let seq = self.reserve_seq();
        self.push_heap(at, seq, HeapKind::Fault { index });
    }

    /// Schedules `ChannelIdle { link }` at `(at, seq)`, where `seq` came
    /// from [`EventQueue::reserve_seq`] and has not been used since.
    ///
    /// # Panics
    /// Panics if `link` already has a departure pending.
    pub fn schedule_departure(&mut self, at: SimTime, seq: u64, link: LinkId) {
        debug_assert!(seq < self.next_seq, "departure under an unreserved seq");
        self.rails.push_departure(at, seq, link);
    }

    /// Schedules the arrival of `pkt` over `via` at `at` — the
    /// per-packet hot path. The delivery rides `via`'s rail as `(at, seq,
    /// epoch, pkt)`; host-local sends ([`LinkId::NONE`]) ride the
    /// loopback rail. The receiving node is implied by the rail (see
    /// [`Delivery`]).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last delivery pending on `via`.
    pub fn schedule_delivery(&mut self, at: SimTime, via: LinkId, epoch: u32, pkt: Packet) {
        let seq = self.reserve_seq();
        self.rails.push_delivery(at, seq, via, epoch, pkt);
    }

    /// Like [`EventQueue::schedule_delivery`], under a `seq` that came
    /// from [`EventQueue::reserve_seq`] and has not been used since. The
    /// simulator reserves a switch arrival's seq before it knows whether
    /// the hop folds (see the module docs, *Folded hops*).
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last delivery pending on `via`.
    pub fn schedule_delivery_reserved(
        &mut self,
        at: SimTime,
        seq: u64,
        via: LinkId,
        epoch: u32,
        pkt: Packet,
    ) {
        debug_assert!(seq < self.next_seq, "delivery under an unreserved seq");
        self.rails.push_delivery(at, seq, via, epoch, pkt);
    }

    /// Removes and returns the earliest event — the dispatcher's pop (see
    /// [`Popped`]).
    pub fn pop_event(&mut self) -> Option<Popped> {
        self.pop_event_before(SimTime::MAX)
    }

    /// Like [`EventQueue::pop_event`], but only if the earliest event
    /// fires at or before `deadline`; later events stay queued.
    ///
    /// Peek and pop are fused: the run loop calls this once per event,
    /// so the min-across-sources comparison happens exactly once. It is
    /// inlined into its caller, so the simulator's step reads a popped
    /// delivery straight from its rail entry (see the module docs, *Event
    /// size*).
    #[inline(always)]
    pub fn pop_event_before(&mut self, deadline: SimTime) -> Option<Popped> {
        let (key, take_rail) = match (self.heap.peek().map(Event::key), self.rails.peek_key()) {
            (Some(h), Some(r)) => (h.min(r), r < h),
            (None, Some(r)) => (r, true),
            (Some(h), None) => (h, false),
            (None, None) => return None,
        };
        if (key >> 64) as u64 > deadline.as_nanos() {
            return None;
        }
        if take_rail {
            return Some(self.rails.pop_min());
        }
        let e = self.heap.pop().expect("heap head exists");
        Some(Popped {
            at: e.at,
            seq: e.seq,
            kind: e.kind.into(),
        })
    }

    /// Number of pending events, counted on demand (the queue keeps no
    /// counter; see the module docs, *Event size*): `O(rails)`.
    pub fn len(&self) -> usize {
        self.heap.len() + self.rails.len()
    }

    /// Whether no events are pending: the heap and the rail index are
    /// both empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.rails.index.is_empty()
    }

    /// Retained capacity, in event slots: the heap's plus every rail
    /// deque's. The queue never shrinks (see the module docs), so this is
    /// the high-water mark of the run so far.
    pub fn capacity(&self) -> usize {
        self.heap.capacity() + self.rails.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `q`, returning each event's token (timers only).
    fn tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_event())
            .map(|e| match e.kind {
                PoppedKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn event_size_stays_small() {
        // Heap sifts move whole events; a fat event (e.g. an inline
        // ~56-byte packet) multiplies the event loop's memory traffic.
        assert!(
            std::mem::size_of::<Event>() <= 40,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
        // A rail entry is its key, the link's epoch and the packet: the
        // link and the receiving node are implied by the rail.
        assert!(
            std::mem::size_of::<RailDelivery>() <= 72,
            "RailDelivery grew to {} bytes",
            std::mem::size_of::<RailDelivery>()
        );
    }

    #[test]
    fn pop_event_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime(10), 0, 1);
        q.schedule_timer(SimTime(20), 0, 2);
        q.schedule_timer(SimTime(20), 0, 3);
        q.schedule_timer(SimTime(30), 0, 4);
        assert!(q.pop_event_before(SimTime(5)).is_none());
        assert_eq!(q.pop_event_before(SimTime(20)).unwrap().at, SimTime(10));
        // Deadline is inclusive, ties still pop in insertion order.
        let e2 = q.pop_event_before(SimTime(20)).unwrap();
        let e3 = q.pop_event_before(SimTime(20)).unwrap();
        assert!(e2.seq < e3.seq);
        assert!(q.pop_event_before(SimTime(20)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_event_before(SimTime::MAX).unwrap().at, SimTime(30));
        assert!(q.pop_event_before(SimTime::MAX).is_none());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_timer(SimTime(30), 0, 3);
        q.schedule_timer(SimTime(10), 0, 1);
        q.schedule_timer(SimTime(20), 0, 2);
        assert_eq!(tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule_timer(SimTime(5), 0, token);
        }
        assert_eq!(tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_pop_in_time_order() {
        // Times from nanoseconds to seconds out, scheduled out of order
        // around a few ms, pop in time order.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            5_000,
            4_100_000,
            8_400_000,
            8_400_001,
            100_000_000,
            3_000_000_000, // seconds out
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule_timer(SimTime(t), 0, i as u64);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_event())
            .map(|e| e.at.0)
            .collect();
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_timer(SimTime(1), 0, 0);
        assert_eq!(q.len(), 1);
        q.pop_event();
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_counts_every_buffer() {
        // Forty one-slot deques and a one-slot heap: small buffers count
        // as much as big ones.
        let mut q = EventQueue::new();
        for link in 0..40 {
            q.schedule_delivery(SimTime(10), LinkId(link), 0, pkt());
        }
        q.schedule_timer(SimTime(5), 0, 0);
        assert!(q.capacity() >= 41, "counted {} slots", q.capacity());
    }

    fn pkt() -> Packet {
        use crate::node::NodeId;
        use crate::packet::FlowId;
        Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 100)
    }

    #[test]
    #[should_panic(expected = "second pending departure")]
    fn second_pending_departure_on_a_link_panics() {
        let mut q = EventQueue::new();
        let (a, b) = (q.reserve_seq(), q.reserve_seq());
        q.schedule_departure(SimTime(20), a, LinkId(3));
        q.schedule_departure(SimTime(10), b, LinkId(3));
    }

    #[test]
    #[should_panic(expected = "out-of-order delivery")]
    fn out_of_order_delivery_on_a_link_panics() {
        let mut q = EventQueue::new();
        q.schedule_delivery(SimTime(20), LinkId(2), 0, pkt());
        q.schedule_delivery(SimTime(10), LinkId(2), 0, pkt());
    }

    #[test]
    fn departure_ahead_of_queued_deliveries_pops_first() {
        let mut q = EventQueue::new();
        let dep = q.reserve_seq();
        q.schedule_delivery(SimTime(30), LinkId(1), 0, pkt());
        q.schedule_delivery(SimTime(50), LinkId(1), 0, pkt());
        q.schedule_delivery(SimTime(40), LinkId(2), 0, pkt());
        q.schedule_delivery(SimTime(20), LinkId(3), 0, pkt());
        // Link 1's head moves from its delivery at 30 to a departure at 10.
        q.schedule_departure(SimTime(10), dep, LinkId(1));
        let order: Vec<(u64, LinkId)> = std::iter::from_fn(|| q.pop_event())
            .map(|e| match e.kind {
                PoppedKind::ChannelIdle { link } => (e.at.0, link),
                PoppedKind::Deliver(d) => (e.at.0, d.via),
                _ => unreachable!(),
            })
            .collect();
        let (l1, l2, l3) = (LinkId(1), LinkId(2), LinkId(3));
        assert_eq!(order, [(10, l1), (20, l3), (30, l1), (40, l2), (50, l1)]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Popping always yields a non-decreasing time sequence, and
            /// equal-time events preserve insertion order.
            #[test]
            fn total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.schedule_timer(SimTime(t), 0, i as u64);
                }
                let mut prev: Option<(SimTime, u64)> = None;
                while let Some(e) = q.pop_event() {
                    if let Some(p) = prev {
                        prop_assert!(p < (e.at, e.seq));
                    }
                    prev = Some((e.at, e.seq));
                }
            }
        }
    }
}
