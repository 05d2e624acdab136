//! The deterministic event engine.
//!
//! Logically, the queue is a total order over pending events by
//! `(time, sequence)`: events scheduled for the same instant fire in
//! insertion order, which makes the whole simulation reproducible
//! bit-for-bit regardless of the engine's internals.
//!
//! The engine is a timing wheel plus per-link *rails*. The wheel gives
//! `O(1)` inserts for timers, messages and faults; the rails exploit link
//! serialization order so per-packet events never touch a heap at all
//! (see below). Both order events by one packed `u128` key, `time << 64 |
//! seq`, whose integer order is the `(time, seq)` order; the global pop
//! takes the smaller key of the two sources' heads.
//! `tests/reference_queue.rs` pins the pop order against a plain
//! `BinaryHeap` reference model.
//!
//! Each event kind has one typed entry point: [`EventQueue::schedule_timer`],
//! [`EventQueue::schedule_message`] and [`EventQueue::schedule_fault`] go
//! to the wheel; [`EventQueue::schedule_delivery`] and
//! [`EventQueue::schedule_departure`] go to the rails.
//!
//! ## The timing wheel
//!
//! Near-future events land in one of `WHEEL_SLOTS` (2048) buckets of
//! `2^WHEEL_SHIFT` ns each (4.096 µs — comfortably below the 50 µs RTO floor, so
//! retransmission timers spread across buckets instead of piling into
//! one). Insert is a `Vec::push`. A cursor walks the occupancy bitmap;
//! the current bucket's events sit in a small `active` heap that restores
//! exact `(time, seq)` order within the bucket. Events beyond the
//! ~8.4 ms horizon go to an `overflow` heap that is drained bucket-wise
//! as the cursor reaches them — far-future faults and coarse compute
//! timers are rare, so the overflow heap stays tiny.
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
//! ## Event size
//!
//! The wheel holds no deliveries: its events carry only a timer, message
//! or fault, which pins a wheel entry at 40 bytes (test-enforced by
//! `event_size_stays_small`), so its heap sifts stay cheap. The rails
//! store the [`Delivery`] payload inline in their deques — deque pushes
//! don't sift — and hand it to the dispatcher by value. A pop copies the
//! event's `(at, seq)` from where it sat in the queue: the deque entry,
//! the departure key, or the wheel heap's top rather than
//! `BinaryHeap::pop`'s return slot. On x86-64 the pair then lands in
//! [`Popped`] as one 16-byte store, and the dispatcher's 16-byte reload
//! of it is forwarded from that store. A pair written as two 8-byte
//! halves would stall that reload.
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

/// A packet in flight: the payload of [`PoppedKind::Deliver`].
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

/// What a wheel event does when it fires: everything but deliveries and
/// departures, which ride the rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WheelKind {
    Timer { agent: u32, token: u64 },
    Message { to: u32, from: u32, token: u64 },
    Fault { index: u32 },
}

/// A scheduled event, as the wheel stores it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    /// When the event fires.
    at: SimTime,
    /// Insertion sequence number (tie-break).
    seq: u64,
    /// The action.
    kind: WheelKind,
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
#[derive(Debug)]
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

impl From<WheelKind> for PoppedKind {
    fn from(kind: WheelKind) -> Self {
        match kind {
            WheelKind::Timer { agent, token } => PoppedKind::Timer { agent, token },
            WheelKind::Message { to, from, token } => PoppedKind::Message { to, from, token },
            WheelKind::Fault { index } => PoppedKind::Fault { index },
        }
    }
}

/// log2 of the wheel bucket width in nanoseconds (4.096 µs buckets).
const WHEEL_SHIFT: u32 = 12;
/// Number of wheel buckets (must be a power of two); with
/// [`WHEEL_SHIFT`] this spans an ~8.4 ms horizon.
const WHEEL_SLOTS: usize = 2048;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;

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

    fn peek_key(&mut self) -> Option<u128> {
        self.ensure_active();
        self.active.peek().map(|e| pack(e.at, e.seq))
    }

    /// Pops the earliest event, copying its `(at, seq)` from the heap top
    /// (see the module docs, *Event size*).
    fn pop(&mut self) -> Option<Popped> {
        self.ensure_active();
        let &Event { at, seq, .. } = self.active.peek()?;
        let e = self.active.pop()?;
        self.len -= 1;
        Some(Popped {
            at,
            seq,
            kind: e.kind.into(),
        })
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

/// An in-flight delivery riding a link rail (payload inline: deque
/// pushes don't sift, so fat entries cost one copy each way).
#[derive(Debug)]
struct RailDelivery {
    at: SimTime,
    seq: u64,
    d: Delivery,
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

    /// Appends a delivery to its link's FIFO; `seq` must be fresh.
    ///
    /// # Panics
    /// Panics if the delivery arrives before the link's last one.
    fn push_delivery(&mut self, at: SimTime, seq: u64, d: Delivery) {
        let li = self.rail_of(d.via);
        let rail = &mut self.rails[li];
        let (key, old) = (pack(at, seq), rail.departure);
        // Behind an earlier delivery, the head stays put.
        let moved = match rail.deliveries.back() {
            Some(last) => {
                assert!(last.at <= at, "out-of-order delivery on {:?}", d.via);
                false
            }
            None => old == NO_KEY || key < old,
        };
        rail.deliveries.push_back(RailDelivery { at, seq, d });
        if moved {
            self.head_moved_earlier(old, key, li);
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<u128> {
        self.index.last().map(|e| e.0)
    }

    /// Pops the earliest rail head: the index's last entry.
    fn pop_min(&mut self) -> Popped {
        let (key, li) = self.index.pop().expect("rail head exists");
        let rail = &mut self.rails[li as usize];
        let p = if key == rail.departure {
            rail.departure = NO_KEY;
            Popped {
                at: SimTime((key >> 64) as u64),
                seq: key as u64,
                kind: PoppedKind::ChannelIdle {
                    link: LinkId(li.wrapping_sub(1)),
                },
            }
        } else {
            let r = rail.deliveries.pop_front().expect("indexed rail head");
            Popped {
                at: r.at,
                seq: r.seq,
                kind: PoppedKind::Deliver(r.d),
            }
        };
        let head = rail.head_key();
        if head != NO_KEY {
            self.insert(head, li as usize);
        }
        p
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

    fn push_wheel(&mut self, at: SimTime, seq: u64, kind: WheelKind) {
        self.len += 1;
        self.wheel.push(Event { at, seq, kind });
    }

    /// Schedules `Timer { agent, token }` at `at`.
    pub fn schedule_timer(&mut self, at: SimTime, agent: u32, token: u64) {
        let seq = self.reserve_seq();
        self.push_wheel(at, seq, WheelKind::Timer { agent, token });
    }

    /// Schedules `Timer { agent, token }` at `(at, seq)`, where `seq` came
    /// from [`EventQueue::reserve_seq`] and has not been used since. The
    /// simulator's per-agent timer slot inserts its one pending event
    /// this way (see the module docs, *Reserved sequence numbers*).
    pub fn schedule_timer_reserved(&mut self, at: SimTime, seq: u64, agent: u32, token: u64) {
        debug_assert!(seq < self.next_seq, "timer under an unreserved seq");
        self.push_wheel(at, seq, WheelKind::Timer { agent, token });
    }

    /// Schedules `Message { to, from, token }` at `at`.
    pub fn schedule_message(&mut self, at: SimTime, to: u32, from: u32, token: u64) {
        let seq = self.reserve_seq();
        self.push_wheel(at, seq, WheelKind::Message { to, from, token });
    }

    /// Schedules `Fault { index }` at `at`.
    pub fn schedule_fault(&mut self, at: SimTime, index: u32) {
        let seq = self.reserve_seq();
        self.push_wheel(at, seq, WheelKind::Fault { index });
    }

    /// Schedules `ChannelIdle { link }` at `(at, seq)`, where `seq` came
    /// from [`EventQueue::reserve_seq`] and has not been used since.
    ///
    /// # Panics
    /// Panics if `link` already has a departure pending.
    pub fn schedule_departure(&mut self, at: SimTime, seq: u64, link: LinkId) {
        debug_assert!(seq < self.next_seq, "departure under an unreserved seq");
        self.len += 1;
        self.rails.push_departure(at, seq, link);
    }

    /// Schedules a packet delivery — the per-packet hot path. The
    /// delivery rides its link's rail with the payload inline; host-local
    /// sends ride the loopback rail.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last delivery pending on `via`.
    pub fn schedule_delivery(
        &mut self,
        at: SimTime,
        node: NodeId,
        via: LinkId,
        epoch: u32,
        pkt: Packet,
    ) {
        let seq = self.reserve_seq();
        self.len += 1;
        let d = Delivery {
            node,
            via,
            epoch,
            pkt,
        };
        self.rails.push_delivery(at, seq, d);
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
    /// so the min-across-sources comparison happens exactly once.
    pub fn pop_event_before(&mut self, deadline: SimTime) -> Option<Popped> {
        let (key, take_rail) = match (self.wheel.peek_key(), self.rails.peek_key()) {
            (Some(w), Some(r)) => (w.min(r), r < w),
            (None, Some(r)) => (r, true),
            (Some(w), None) => (w, false),
            (None, None) => return None,
        };
        if (key >> 64) as u64 > deadline.as_nanos() {
            return None;
        }
        // Each source builds the `Popped`, so `(at, seq)` leaves as one
        // 16-byte store (see the module docs, *Event size*).
        let p = if take_rail {
            self.rails.pop_min()
        } else {
            self.wheel.pop().expect("wheel head exists")
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
        self.wheel.capacity() + self.rails.capacity()
    }

    /// Releases oversized internal buffers (see module docs). Called
    /// automatically whenever the queue drains; harmless mid-run.
    pub fn shrink_to_fit(&mut self) {
        self.wheel.release();
        self.rails.release();
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
    fn drain_releases_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100_000u64 {
            q.schedule_timer(SimTime(i * 13 % 50_000), 0, i);
        }
        assert!(q.capacity() >= 50_000, "queue should have grown");
        while q.pop_event().is_some() {}
        assert!(
            q.capacity() <= 4 * KEEP_CAPACITY,
            "retained {} slots after drain",
            q.capacity()
        );
    }

    fn pkt() -> Packet {
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
        q.schedule_delivery(SimTime(20), NodeId(1), LinkId(2), 0, pkt());
        q.schedule_delivery(SimTime(10), NodeId(1), LinkId(2), 0, pkt());
    }

    #[test]
    fn departure_ahead_of_queued_deliveries_pops_first() {
        let mut q = EventQueue::new();
        let dep = q.reserve_seq();
        q.schedule_delivery(SimTime(30), NodeId(1), LinkId(1), 0, pkt());
        q.schedule_delivery(SimTime(50), NodeId(1), LinkId(1), 0, pkt());
        q.schedule_delivery(SimTime(40), NodeId(1), LinkId(2), 0, pkt());
        q.schedule_delivery(SimTime(20), NodeId(1), LinkId(3), 0, pkt());
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
