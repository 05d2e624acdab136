//! The deterministic event engine.
//!
//! Logically, the queue is a total order over pending events by
//! `(time, sequence)`: events scheduled for the same instant fire in
//! insertion order, which makes the whole simulation reproducible
//! bit-for-bit regardless of the engine's internals.
//!
//! The engine is a timing wheel plus per-link *rails*. The wheel gives
//! `O(1)` inserts for timers/messages/faults; the rails exploit link
//! serialization order so per-packet events never touch a heap at all
//! (see below). The global pop takes the `(time, seq)`-minimum across
//! the two. `tests/reference_queue.rs` pins the pop order against a
//! plain `BinaryHeap` reference model.
//!
//! ## The timing wheel
//!
//! Near-future events land in one of [`WHEEL_SLOTS`] buckets of
//! `2^WHEEL_SHIFT` ns each (4.096 µs — comfortably below the 50 µs RTO
//! floor, so retransmission timers spread across buckets instead of
//! piling into one). Insert is a `Vec::push`. A cursor walks the
//! occupancy bitmap; the current bucket's events sit in a small `active`
//! heap that restores exact `(time, seq)` order within the bucket.
//! Events beyond the ~8.4 ms horizon go to an `overflow` heap that is
//! drained bucket-wise as the cursor reaches them — far-future faults
//! and coarse compute timers are rare, so the overflow heap stays tiny.
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
//! keeps a one-slot departure and a `VecDeque` of in-flight deliveries;
//! a tiny index-min-heap over links (dozens of entries, not millions of
//! events) yields the earliest rail head. The common per-packet cost is
//! two deque ops and a near-top heap fixup instead of four full-depth
//! binary-heap sifts. Events that do not fit the invariant (a second
//! pending departure, an out-of-order delivery — possible only through
//! the generic [`EventQueue::schedule`] API, never from the simulator)
//! fall back to the wheel, so the rails are a pure optimization, not a
//! correctness assumption.
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
//! ## Event size
//!
//! The wheel's heaps sift whole events, so [`EventKind::Deliver`] boxes
//! its payload to pin `size_of::<Event>()` at 40 bytes (test-enforced by
//! `event_size_stays_small`); the queue recycles the boxes through an
//! internal free list so steady-state delivery costs no allocation. The
//! rails store the
//! [`Delivery`] payload inline in their deques — deque pushes don't
//! sift, so the box round-trip is skipped entirely on that path.
//!
//! ## Capacity release
//!
//! Large scenarios grow the engine's internal buffers to their peak
//! event population. When the queue drains (and on explicit
//! [`EventQueue::shrink_to_fit`] calls) any oversized buffer is returned
//! to the allocator, so a process running many scenarios back to back
//! holds peak memory only while the peak scenario runs.

use crate::link::LinkId;
use crate::node::NodeId;
use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A packet in flight: the payload of [`EventKind::Deliver`].
///
/// Besides the packet itself, a delivery remembers which channel carried
/// it (`via`) and that channel's incarnation (`epoch`) at serialization
/// time, so fault injection can cut packets that were on the wire when a
/// link went down: the arrival handler drops any delivery whose stamped
/// epoch no longer matches the channel's. Host-local sends use
/// [`LinkId::NONE`] and are never cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Receiving node.
    pub node: NodeId,
    /// The channel the packet crossed ([`LinkId::NONE`] for local sends).
    pub via: LinkId,
    /// The channel's epoch when serialization started.
    pub epoch: u32,
    /// The packet.
    pub pkt: Packet,
}

/// What happens when an event fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A packet finishes propagation and arrives (boxed to keep
    /// [`Event`] small; the queue pools and reuses the allocations).
    Deliver(Box<Delivery>),
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

/// A scheduled event, as the wheel stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    /// When the event fires.
    at: SimTime,
    /// Insertion sequence number (tie-break).
    seq: u64,
    /// The action.
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A popped event with its delivery payload inline — what
/// [`EventQueue::pop_event`] returns to the simulator's dispatcher.
///
/// The wheel boxes deliveries so its heap sifts stay cheap, but the
/// *dispatcher* wants the payload by value (it consumes the delivery
/// immediately). Returning this shape lets the rails hand their inline
/// payload straight through — no box round-trip on the hottest path —
/// while wheel events are unboxed once and the box recycled internally.
#[derive(Debug)]
pub struct Popped {
    /// When the event fired.
    pub at: SimTime,
    /// Insertion sequence number.
    pub seq: u64,
    /// The action, with any delivery payload inline.
    pub kind: PoppedKind,
}

/// [`EventKind`] with the `Deliver` payload held by value. See
/// [`Popped`].
#[derive(Debug)]
pub enum PoppedKind {
    /// A packet arrives (payload inline).
    Deliver(Delivery),
    /// A channel's serializer frees up.
    ChannelIdle {
        /// The channel that became idle.
        link: LinkId,
    },
    /// An agent timer fires.
    Timer {
        /// Owning agent index.
        agent: u32,
        /// Opaque discriminator chosen by the agent.
        token: u64,
    },
    /// An agent-to-agent message.
    Message {
        /// Receiving agent index.
        to: u32,
        /// Sending agent index.
        from: u32,
        /// Opaque payload.
        token: u64,
    },
    /// An installed fault fires.
    Fault {
        /// Index into the simulator's installed-fault table.
        index: u32,
    },
}

/// log2 of the wheel bucket width in nanoseconds (4.096 µs buckets).
const WHEEL_SHIFT: u32 = 12;
/// Number of wheel buckets (must be a power of two); with
/// [`WHEEL_SHIFT`] this spans an ~8.4 ms horizon.
const WHEEL_SLOTS: usize = 2048;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

/// Links with indices above this never get a rail (guards against
/// pathological `LinkId`s through the generic API allocating huge
/// tables; real topologies have at most thousands of channels).
const MAX_RAIL_LINKS: usize = 1 << 20;

/// Buffers at or below this capacity are kept across drains; bigger
/// ones are released (see module docs, *Capacity release*).
const KEEP_CAPACITY: usize = 64;

/// The timing wheel: near-future buckets + an overflow heap, with the
/// cursor bucket's events held in a small `active` heap.
#[derive(Debug)]
struct Wheel {
    buckets: Vec<Vec<Event>>,
    occupied: [u64; WHEEL_WORDS],
    /// Events of the cursor bucket (and any insert at/behind the
    /// cursor), in exact `(time, seq)` order.
    active: BinaryHeap<Event>,
    /// Events beyond the wheel horizon at insert time.
    overflow: BinaryHeap<Event>,
    /// Absolute bucket index (`at >> WHEEL_SHIFT`) the wheel is at.
    cursor: u64,
    len: usize,
}

impl Wheel {
    fn new() -> Self {
        Self {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            active: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
        }
    }

    fn push(&mut self, e: Event) {
        self.len += 1;
        let b = e.at.as_nanos() >> WHEEL_SHIFT;
        if b <= self.cursor {
            self.active.push(e);
        } else if b < self.cursor + WHEEL_SLOTS as u64 {
            let s = (b & WHEEL_MASK) as usize;
            self.buckets[s].push(e);
            self.occupied[s >> 6] |= 1 << (s & 63);
        } else {
            self.overflow.push(e);
        }
    }

    /// First occupied bucket strictly after the cursor (absolute index),
    /// via a word-wise circular scan of the occupancy bitmap.
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & WHEEL_MASK) as usize;
        let mut w = start >> 6;
        let mut word = self.occupied[w] & (!0u64 << (start & 63));
        // One extra iteration re-visits the first word's low bits, which
        // sit a full lap away in circular order.
        for _ in 0..=WHEEL_WORDS {
            if word != 0 {
                let slot = (w << 6) + word.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1);
                return Some(self.cursor + 1 + dist as u64);
            }
            w = (w + 1) % WHEEL_WORDS;
            word = self.occupied[w];
        }
        None
    }

    /// Advances the cursor to the next non-empty bucket and refills
    /// `active`; afterwards `active` is non-empty iff the wheel is.
    ///
    /// Invariant kept: `active` holds exactly the pending events with
    /// bucket ≤ cursor, so its min is the wheel's global min.
    fn ensure_active(&mut self) {
        if !self.active.is_empty() || self.len == 0 {
            return;
        }
        let target = match (
            self.next_occupied(),
            self.overflow.peek().map(|e| e.at.as_nanos() >> WHEEL_SHIFT),
        ) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("wheel len > 0 with no pending bucket"),
        };
        self.cursor = target;
        let s = (target & WHEEL_MASK) as usize;
        if self.occupied[s >> 6] & (1 << (s & 63)) != 0 {
            self.occupied[s >> 6] &= !(1 << (s & 63));
            for e in self.buckets[s].drain(..) {
                self.active.push(e);
            }
        }
        while let Some(e) = self.overflow.peek() {
            if e.at.as_nanos() >> WHEEL_SHIFT > self.cursor {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.active.push(e);
        }
        debug_assert!(!self.active.is_empty());
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.ensure_active();
        self.active.peek().map(|e| (e.at, e.seq))
    }

    fn pop(&mut self) -> Option<Event> {
        self.ensure_active();
        let e = self.active.pop()?;
        self.len -= 1;
        Some(e)
    }

    fn capacity(&self) -> usize {
        self.active.capacity()
            + self.overflow.capacity()
            + self
                .buckets
                .iter()
                .map(Vec::capacity)
                .filter(|&c| c > KEEP_CAPACITY)
                .sum::<usize>()
    }

    fn release(&mut self) {
        if self.active.capacity() > KEEP_CAPACITY {
            self.active.shrink_to_fit();
        }
        if self.overflow.capacity() > KEEP_CAPACITY {
            self.overflow.shrink_to_fit();
        }
        for b in &mut self.buckets {
            if b.capacity() > KEEP_CAPACITY {
                b.shrink_to_fit();
            }
        }
    }
}

/// An in-flight delivery riding a link rail (payload inline: deque
/// pushes don't sift, so fat entries cost one copy each way).
#[derive(Debug)]
struct RailDelivery {
    at: SimTime,
    seq: u64,
    d: Delivery,
}

/// One directed channel's pending events: the departure of the packet
/// being serialized (when one is scheduled), and the FIFO of packets on
/// the wire.
#[derive(Debug, Default)]
struct Rail {
    departure: Option<(SimTime, u64)>,
    deliveries: VecDeque<RailDelivery>,
}

impl Rail {
    fn head_key(&self) -> Option<(SimTime, u64)> {
        let del = self.deliveries.front().map(|r| (r.at, r.seq));
        match (self.departure, del) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Sentinel for "not in the rail index heap".
const ABSENT: u32 = u32::MAX;

/// What a rail pop yields.
enum RailItem {
    Departure(LinkId),
    Delivery(Delivery),
}

/// An index-min-heap entry: a rail's head `(time, seq)` key, cached,
/// plus the link it belongs to. Caching the key keeps sift comparisons
/// inside the heap array instead of chasing into `rails` twice per
/// comparison.
#[derive(Debug, Clone, Copy)]
struct RailEntry {
    at: SimTime,
    seq: u64,
    link: u32,
}

impl RailEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Per-link rails under an index-min-heap keyed by each rail's head
/// `(time, seq)`. The heap has one entry per *link with pending events*
/// — topology-sized, not event-population-sized.
#[derive(Debug, Default)]
struct Rails {
    rails: Vec<Rail>,
    heap: Vec<RailEntry>,
    /// `pos[link] == ABSENT` when the link has no pending events.
    pos: Vec<u32>,
}

impl Rails {
    fn ensure(&mut self, li: usize) {
        if li >= self.rails.len() {
            self.rails.resize_with(li + 1, Rail::default);
            self.pos.resize(li + 1, ABSENT);
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].link as usize] = a as u32;
        self.pos[self.heap[b].link as usize] = b as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut best = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap[child].key() < self.heap[best].key() {
                    best = child;
                }
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    /// Re-positions link `li` in the index heap after its head changed,
    /// refreshing the cached key.
    fn reindex(&mut self, li: usize) {
        let head = self.rails[li].head_key();
        match (self.pos[li], head) {
            (ABSENT, Some((at, seq))) => {
                let i = self.heap.len();
                self.heap.push(RailEntry {
                    at,
                    seq,
                    link: li as u32,
                });
                self.pos[li] = i as u32;
                self.sift_up(i);
            }
            (ABSENT, None) => {}
            (p, Some((at, seq))) => {
                let p = p as usize;
                self.heap[p].at = at;
                self.heap[p].seq = seq;
                self.sift_up(p);
                self.sift_down(p);
            }
            (p, None) => {
                let p = p as usize;
                let last = self.heap.len() - 1;
                if p != last {
                    self.swap(p, last);
                }
                self.heap.pop();
                self.pos[li] = ABSENT;
                if p < self.heap.len() {
                    self.sift_up(p);
                    self.sift_down(p);
                }
            }
        }
    }

    /// Whether the departure slot of `li` is free (rails hold at most
    /// one pending departure per link).
    fn departure_slot_free(&self, li: usize) -> bool {
        self.rails.get(li).is_none_or(|r| r.departure.is_none())
    }

    /// Whether `(at, seq)` extends link `li`'s delivery FIFO in order.
    fn delivery_in_order(&self, li: usize, at: SimTime, seq: u64) -> bool {
        match self.rails.get(li).and_then(|r| r.deliveries.back()) {
            Some(b) => (b.at, b.seq) < (at, seq),
            None => true,
        }
    }

    fn push_departure(&mut self, li: usize, at: SimTime, seq: u64) {
        let old = self.rails[li].head_key();
        debug_assert!(self.rails[li].departure.is_none());
        self.rails[li].departure = Some((at, seq));
        if old != self.rails[li].head_key() {
            self.reindex(li);
        }
    }

    fn push_delivery(&mut self, li: usize, at: SimTime, seq: u64, d: Delivery) {
        let old = self.rails[li].head_key();
        self.rails[li]
            .deliveries
            .push_back(RailDelivery { at, seq, d });
        if old != self.rails[li].head_key() {
            self.reindex(li);
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.first().map(RailEntry::key)
    }

    fn pop_min(&mut self) -> Option<(SimTime, u64, RailItem)> {
        let li = self.heap.first()?.link;
        let liu = li as usize;
        let rail = &mut self.rails[liu];
        let take_departure = match (rail.departure, rail.deliveries.front()) {
            (Some(a), Some(b)) => a < (b.at, b.seq),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("empty rail in heap"),
        };
        let out = if take_departure {
            let (at, seq) = rail.departure.take().expect("checked");
            (at, seq, RailItem::Departure(LinkId(li)))
        } else {
            let r = rail.deliveries.pop_front().expect("checked");
            (r.at, r.seq, RailItem::Delivery(r.d))
        };
        self.reindex(liu);
        Some(out)
    }

    fn capacity(&self) -> usize {
        self.rails
            .iter()
            .map(|r| r.deliveries.capacity())
            .filter(|&c| c > KEEP_CAPACITY)
            .sum()
    }

    fn release(&mut self) {
        for r in &mut self.rails {
            if r.deliveries.capacity() > KEEP_CAPACITY {
                r.deliveries.shrink_to_fit();
            }
        }
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
    len: usize,
    wheel: Wheel,
    rails: Rails,
    /// Recycled `Deliver` boxes; bounded by the peak number of in-flight
    /// boxed deliveries.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Delivery>>,
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
            len: 0,
            wheel: Wheel::new(),
            rails: Rails::default(),
            pool: Vec::new(),
        }
    }

    fn bump(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn railable(link: LinkId) -> bool {
        link != LinkId::NONE && link.index() < MAX_RAIL_LINKS
    }

    /// Wraps a delivery in a pooled box (allocating only when the pool
    /// is dry).
    fn boxed(&mut self, d: Delivery) -> Box<Delivery> {
        match self.pool.pop() {
            Some(mut b) => {
                *b = d;
                b
            }
            None => Box::new(d),
        }
    }

    /// Converts a wheel [`Event`] into a [`Popped`], returning any
    /// delivery box to the pool.
    fn unbox(&mut self, e: Event) -> Popped {
        let kind = match e.kind {
            EventKind::Deliver(b) => {
                let d = *b;
                self.pool.push(b);
                PoppedKind::Deliver(d)
            }
            EventKind::ChannelIdle { link } => PoppedKind::ChannelIdle { link },
            EventKind::Timer { agent, token } => PoppedKind::Timer { agent, token },
            EventKind::Message { to, from, token } => PoppedKind::Message { to, from, token },
            EventKind::Fault { index } => PoppedKind::Fault { index },
        };
        Popped {
            at: e.at,
            seq: e.seq,
            kind,
        }
    }

    /// Takes the next sequence number without scheduling anything, so a
    /// later [`EventQueue::schedule_departure`] or
    /// [`EventQueue::schedule_timer_reserved`] can insert an event that
    /// sorts exactly where it would have had it been scheduled now.
    pub fn reserve_seq(&mut self) -> u64 {
        self.bump()
    }

    /// Schedules `ChannelIdle { link }` at `(at, seq)`, where `seq` came
    /// from [`EventQueue::reserve_seq`] and has not been used since. The
    /// departure takes the link's rail slot when it is free and falls
    /// back to the wheel otherwise, as [`EventQueue::schedule`] does.
    pub fn schedule_departure(&mut self, at: SimTime, seq: u64, link: LinkId) {
        debug_assert!(seq < self.next_seq, "departure under an unreserved seq");
        self.len += 1;
        self.insert_departure(at, seq, link);
    }

    /// Schedules `Timer { agent, token }` at `(at, seq)`, where `seq` came
    /// from [`EventQueue::reserve_seq`] and has not been used since. The
    /// simulator's per-agent timer slot inserts its one pending event
    /// this way (see the module docs, *Reserved sequence numbers*).
    pub fn schedule_timer_reserved(&mut self, at: SimTime, seq: u64, agent: u32, token: u64) {
        debug_assert!(seq < self.next_seq, "timer under an unreserved seq");
        self.len += 1;
        let kind = EventKind::Timer { agent, token };
        self.wheel.push(Event { at, seq, kind });
    }

    fn insert_departure(&mut self, at: SimTime, seq: u64, link: LinkId) {
        let li = link.index();
        if Self::railable(link) {
            self.rails.ensure(li);
            if self.rails.departure_slot_free(li) {
                self.rails.push_departure(li, at, seq);
                return;
            }
        }
        let kind = EventKind::ChannelIdle { link };
        self.wheel.push(Event { at, seq, kind });
    }

    /// Schedules `kind` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.bump();
        self.len += 1;
        match kind {
            EventKind::ChannelIdle { link } => self.insert_departure(at, seq, link),
            EventKind::Deliver(b) if Self::railable(b.via) => {
                let li = b.via.index();
                self.rails.ensure(li);
                if self.rails.delivery_in_order(li, at, seq) {
                    let d = *b;
                    self.pool.push(b);
                    self.rails.push_delivery(li, at, seq, d);
                } else {
                    let kind = EventKind::Deliver(b);
                    self.wheel.push(Event { at, seq, kind });
                }
            }
            kind => self.wheel.push(Event { at, seq, kind }),
        }
    }

    /// Schedules a packet delivery — the per-packet hot path. An
    /// in-order link delivery rides the rail with its payload inline,
    /// skipping the box entirely.
    pub fn schedule_delivery(
        &mut self,
        at: SimTime,
        node: NodeId,
        via: LinkId,
        epoch: u32,
        pkt: Packet,
    ) {
        let seq = self.bump();
        self.len += 1;
        let d = Delivery {
            node,
            via,
            epoch,
            pkt,
        };
        if Self::railable(via) {
            let li = via.index();
            self.rails.ensure(li);
            if self.rails.delivery_in_order(li, at, seq) {
                self.rails.push_delivery(li, at, seq, d);
                return;
            }
        }
        let kind = EventKind::Deliver(self.boxed(d));
        self.wheel.push(Event { at, seq, kind });
    }

    /// Removes and returns the earliest event with its payload inline —
    /// the dispatcher's pop (see [`Popped`]).
    pub fn pop_event(&mut self) -> Option<Popped> {
        self.pop_event_before(SimTime::MAX)
    }

    /// Like [`EventQueue::pop_event`], but only if the earliest event
    /// fires at or before `deadline`; later events stay queued.
    ///
    /// Peek and pop are fused: the run loop calls this once per event,
    /// so the min-across-sources comparison happens exactly once.
    pub fn pop_event_before(&mut self, deadline: SimTime) -> Option<Popped> {
        let (at, take_rail) = match (self.wheel.peek_key(), self.rails.peek_key()) {
            (Some(w), Some(r)) => {
                if r < w {
                    (r.0, true)
                } else {
                    (w.0, false)
                }
            }
            (None, Some(r)) => (r.0, true),
            (Some(w), None) => (w.0, false),
            (None, None) => return None,
        };
        if at > deadline {
            return None;
        }
        let p = if take_rail {
            let (at, seq, item) = self.rails.pop_min().expect("rail head exists");
            let kind = match item {
                RailItem::Departure(link) => PoppedKind::ChannelIdle { link },
                RailItem::Delivery(d) => PoppedKind::Deliver(d),
            };
            Popped { at, seq, kind }
        } else {
            let e = self.wheel.pop().expect("wheel head exists");
            self.unbox(e)
        };
        self.len -= 1;
        if self.len == 0 {
            self.maybe_release();
        }
        Some(p)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate retained capacity, in event-sized slots — the
    /// observable the capacity-release tests bound. It counts only the
    /// buffers a drain would release: wheel buckets and rail deques at or
    /// below `KEEP_CAPACITY` (64 slots) are left out, so up to
    /// 2048 buckets × 64 slots × 40 bytes ≈ 5 MiB of bucket storage can
    /// be held without showing here.
    pub fn capacity(&self) -> usize {
        self.wheel.capacity() + self.rails.capacity() + self.pool.len()
    }

    /// Releases oversized internal buffers (see module docs). Called
    /// automatically whenever the queue drains; harmless mid-run.
    pub fn shrink_to_fit(&mut self) {
        self.wheel.release();
        self.rails.release();
        if self.pool.len() > KEEP_CAPACITY {
            self.pool.truncate(KEEP_CAPACITY);
            self.pool.shrink_to_fit();
        }
    }

    fn maybe_release(&mut self) {
        if self.capacity() > 4 * KEEP_CAPACITY {
            self.shrink_to_fit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(agent: u32, token: u64) -> EventKind {
        EventKind::Timer { agent, token }
    }

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
        // The wheel's heaps sift whole events; a fat event (e.g. an
        // inline ~56-byte packet) multiplies the event loop's memory
        // traffic.
        assert!(
            std::mem::size_of::<Event>() <= 40,
            "Event grew to {} bytes",
            std::mem::size_of::<Event>()
        );
    }

    #[test]
    fn pop_event_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        q.schedule(SimTime(20), timer(0, 3));
        q.schedule(SimTime(30), timer(0, 4));
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
        q.schedule(SimTime(30), timer(0, 3));
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        assert_eq!(tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule(SimTime(5), timer(0, token));
        }
        assert_eq!(tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // Spans several horizons (8.4 ms each) plus near-term events, so
        // buckets, overflow refill, and cursor jumps all exercise.
        let mut q = EventQueue::new();
        let times = [
            0u64,
            1,
            5_000,
            4_100_000, // a bucket boundary region
            8_400_000, // ~ horizon
            8_400_001,
            100_000_000,   // far overflow
            3_000_000_000, // seconds out
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), timer(0, i as u64));
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
        q.schedule(SimTime(1), timer(0, 0));
        assert_eq!(q.len(), 1);
        q.pop_event();
        assert!(q.is_empty());
    }

    #[test]
    fn drain_releases_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.schedule(SimTime(i * 13 % 50_000), timer(0, i));
        }
        assert!(q.capacity() >= 50_000, "queue should have grown");
        while q.pop_event().is_some() {}
        assert!(
            q.capacity() <= 4 * KEEP_CAPACITY,
            "retained {} slots after drain",
            q.capacity()
        );
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
                    q.schedule(SimTime(t), timer(0, i as u64));
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
