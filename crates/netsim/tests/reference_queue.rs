//! The event queue against a reference model: a plain `BinaryHeap` in
//! `(time, seq)` order with its own sequence counter. The queue's timer
//! heap and link rails are an optimisation of exactly that order, so
//! under any interleaving of schedules, seq reservations, departures and
//! timers inserted later under a reserved seq, and pops, both must pop
//! the same `(time, seq, kind)` stream.
//!
//! The queue keeps no length counter, so after every op its derived
//! `len()` and `is_empty()` must match the model's.
//!
//! The interleavings stay within the queue's contract, as the simulator
//! does: each link's deliveries are scheduled at non-decreasing times, and a link has at most one
//! departure pending. Traffic spreads over more than 40 links, more
//! than a dumbbell of six jobs has, so the rail index holds dozens of
//! heads, rails drain and refill, and heads on different rails tie at
//! one instant.

use mltcp_netsim::event::{Delivery, EventQueue, Popped, PoppedKind};
use mltcp_netsim::link::LinkId;
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::{FlowId, Packet};
use mltcp_netsim::time::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// A popped event: time, sequence number and the action's debug form.
type Record = (u64, u64, String);

/// The reference model. The kind is stored as its debug form; `(time,
/// seq)` is unique, so the string never decides the order.
struct ReferenceQueue {
    next_seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, String)>>,
}

impl ReferenceQueue {
    fn new() -> Self {
        // The queue numbers events from 1.
        Self {
            next_seq: 1,
            heap: BinaryHeap::new(),
        }
    }

    fn reserve(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn insert(&mut self, at: SimTime, seq: u64, kind: &PoppedKind) {
        self.heap.push(Reverse((at, seq, format!("{kind:?}"))));
    }

    fn schedule(&mut self, at: SimTime, kind: &PoppedKind) {
        let seq = self.reserve();
        self.insert(at, seq, kind);
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<Record> {
        if self.heap.peek()?.0 .0 > deadline {
            return None;
        }
        let Reverse((at, seq, kind)) = self.heap.pop()?;
        Some((at.0, seq, kind))
    }
}

fn record(p: Popped) -> Record {
    (p.at.0, p.seq, format!("{:?}", p.kind))
}

/// The event a reservation's seq is later inserted under.
#[derive(Clone, Copy)]
enum Reserved {
    /// A departure of the link (`schedule_departure`), as the simulator
    /// reserves when a packet starts serializing.
    Departure(LinkId),
    /// A timer of the agent (`schedule_timer_reserved`), as a re-arm
    /// reserves when its deadline is later than the event it has queued.
    Timer(u32),
}

/// One step of a schedule/pop interleaving.
enum Op {
    /// A timer, message, fault or delivery under a fresh seq, through
    /// its typed entry point. A timer reserves its seq and is inserted
    /// under it at once, as a re-arm with no event queued is.
    Schedule(SimTime, PoppedKind),
    /// Reserves a seq for an event at the given time.
    Reserve(SimTime, Reserved),
    /// Inserts the event of the `n`-th oldest open reservation (modulo
    /// their count) under its reserved seq; a no-op with none open, and
    /// for a departure while its link already has one pending.
    Insert(usize),
    PopBefore(SimTime),
    /// Pops every event at or before the deadline, as the run loop does,
    /// so rails drain.
    PopUntil(SimTime),
}

/// Links the mixed traffic spreads over: more than 32, and more than the
/// 26 links of the six-job dumbbell.
const LINKS: u32 = 48;

/// The queue under test and the reference model, fed the same ops.
struct Both {
    q: EventQueue,
    r: ReferenceQueue,
    got: Vec<Record>,
    want: Vec<Record>,
    /// Links with a departure pending.
    departing: HashSet<LinkId>,
    /// Events pending on each rail that has ever held one.
    pending: HashMap<LinkId, usize>,
    /// How often a rail that had drained took an event again.
    refills: usize,
    /// Rails with events pending, now and at most.
    busy: usize,
    max_busy: usize,
    /// The time and rail of the last pop, if it was a rail event, and
    /// how often the next pop was on another rail at the same instant.
    last_rail: Option<(SimTime, LinkId)>,
    cross_rail_ties: usize,
}

impl Both {
    /// Pops one event at or before `deadline` from both; returns whether
    /// the queue popped one.
    fn pop_before(&mut self, deadline: SimTime) -> bool {
        let p = self.q.pop_event_before(deadline);
        let popped = p.is_some();
        if let Some(p) = p {
            let link = match p.kind {
                PoppedKind::ChannelIdle { link } => {
                    self.departing.remove(&link);
                    Some(link)
                }
                PoppedKind::Deliver(d) => Some(d.via),
                _ => None,
            };
            if let Some(link) = link {
                let n = self.pending.get_mut(&link).expect("filled rail");
                *n -= 1;
                if *n == 0 {
                    self.busy -= 1;
                }
                if matches!(self.last_rail, Some((at, l)) if at == p.at && l != link) {
                    self.cross_rail_ties += 1;
                }
            }
            self.last_rail = link.map(|l| (p.at, l));
            self.got.push(record(p));
        }
        self.want.extend(self.r.pop_before(deadline));
        popped
    }

    /// Both hold the same number of pending events. The queue derives
    /// both answers from its heap and rails.
    fn assert_same_len(&self) {
        assert_eq!(self.q.len(), self.r.heap.len(), "pending counts diverged");
        assert_eq!(
            self.q.is_empty(),
            self.r.heap.is_empty(),
            "emptiness diverged"
        );
    }

    /// Counts an event onto `link`'s rail.
    fn fill(&mut self, link: LinkId) {
        let n = self.pending.entry(link).or_insert(usize::MAX);
        if *n == 0 {
            self.refills += 1;
        }
        if matches!(*n, 0 | usize::MAX) {
            *n = 0;
            self.busy += 1;
            self.max_busy = self.max_busy.max(self.busy);
        }
        *n += 1;
    }
}

/// Applies `ops` to a fresh queue and to the reference model and drains
/// both; their pop streams are in `got` and `want`. A delivery earlier
/// than its link's last one is moved up to it.
fn run_both(ops: impl IntoIterator<Item = Op>) -> Both {
    let mut b = Both {
        q: EventQueue::new(LINKS as usize),
        r: ReferenceQueue::new(),
        got: Vec::new(),
        want: Vec::new(),
        departing: HashSet::new(),
        pending: HashMap::new(),
        refills: 0,
        busy: 0,
        max_busy: 0,
        last_rail: None,
        cross_rail_ties: 0,
    };
    let mut open: Vec<(SimTime, u64, Reserved)> = Vec::new();
    let mut last_delivery: HashMap<LinkId, SimTime> = HashMap::new();
    for op in ops {
        match op {
            Op::Reserve(at, what) => {
                let seq = b.q.reserve_seq();
                assert_eq!(seq, b.r.reserve(), "reserved seqs diverged");
                open.push((at, seq, what));
            }
            Op::Insert(n) if !open.is_empty() => {
                let i = n % open.len();
                match open[i] {
                    (_, _, Reserved::Departure(link)) if b.departing.contains(&link) => {}
                    (at, seq, Reserved::Departure(link)) => {
                        open.remove(i);
                        b.departing.insert(link);
                        b.fill(link);
                        b.r.insert(at, seq, &PoppedKind::ChannelIdle { link });
                        b.q.schedule_departure(at, seq, link);
                    }
                    (at, seq, Reserved::Timer(agent)) => {
                        open.remove(i);
                        b.r.insert(at, seq, &PoppedKind::Timer { agent });
                        b.q.schedule_timer_reserved(at, seq, agent);
                    }
                }
            }
            Op::Insert(_) => {}
            Op::Schedule(at, kind) => {
                let at = match &kind {
                    PoppedKind::Deliver(d) => {
                        b.fill(d.via);
                        let last = last_delivery.entry(d.via).or_insert(at);
                        *last = (*last).max(at);
                        *last
                    }
                    _ => at,
                };
                b.r.schedule(at, &kind);
                let q = &mut b.q;
                match kind {
                    PoppedKind::Timer { agent } => {
                        let seq = q.reserve_seq();
                        q.schedule_timer_reserved(at, seq, agent);
                    }
                    PoppedKind::Message { to, from, token } => {
                        q.schedule_message(at, to, from, token)
                    }
                    PoppedKind::Fault { index } => q.schedule_fault(at, index),
                    PoppedKind::Deliver(d) => q.schedule_delivery(at, d.via, d.epoch, d.pkt),
                    PoppedKind::ChannelIdle { .. } => {
                        unreachable!("departures go under a reserved seq")
                    }
                }
            }
            Op::PopBefore(deadline) => {
                b.pop_before(deadline);
            }
            Op::PopUntil(deadline) => while b.pop_before(deadline) {},
        }
        b.assert_same_len();
    }
    while b.pop_before(SimTime::MAX) {
        b.assert_same_len();
    }
    b.assert_same_len();
    assert!(b.q.is_empty());
    b
}

fn delivery(via: LinkId, seq: u64) -> PoppedKind {
    PoppedKind::Deliver(Delivery {
        via,
        epoch: 0,
        pkt: Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 100),
    })
}

/// A fixed but irregular mix of link traffic over [`LINKS`] links
/// (deliveries, some at instants shared across links, departures
/// inserted later under a reserved seq), near and far
/// timers, some of them inserted later under a reserved seq, messages,
/// faults, and pops with and without a deadline, some draining every
/// event due.
#[test]
fn queue_pops_like_the_reference_on_mixed_traffic() {
    let mut t = 0u64;
    let ops = (0..8_000u64).map(|i| {
        // Simple LCG so the pattern is fixed but irregular.
        let x = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (r, op) = (x >> 16, (x >> 8) as u8);
        t += r % 5_000; // mostly forward, frequent ties via %
        let at = SimTime(t - t % 3); // force some equal stamps
                                     // High bits: the LCG's low bits cycle with `op`'s.
        let link = LinkId(((r >> 32) % u64::from(LINKS)) as u32);
        // In every other stretch of 400 ops nothing pops, so most rails
        // fill at once; the stretches between drain them again.
        let filling = (i / 400) % 2 == 0;
        match op % 8 {
            0 if op & 16 == 0 && op & 32 == 0 => Op::Schedule(
                at,
                PoppedKind::Message {
                    to: 0,
                    from: 1,
                    token: i,
                },
            ),
            0 if op & 16 == 0 => Op::Schedule(at, PoppedKind::Fault { index: i as u32 }),
            // A reservation sorts among the events scheduled around it,
            // whenever its departure is inserted.
            0 => Op::Reserve(SimTime(t + r % 20_000), Reserved::Departure(link)),
            1 if op & 16 == 0 => Op::Insert((r >> 20) as usize),
            1 => Op::Reserve(at, Reserved::Departure(link)),
            2..=4 => {
                let at = if op & 64 == 0 {
                    t + (r >> 8) % 3_000
                } else {
                    // The next 2 µs boundary: heads of several rails tie.
                    t - t % 2_000 + 2_000
                };
                Op::Schedule(SimTime(at), delivery(link, i * 100))
            }
            5 if op & 16 == 0 => Op::Schedule(
                SimTime(t + 50_000_000), // tens of ms ahead
                PoppedKind::Timer { agent: 0 },
            ),
            // Timer reservations, some ms ahead, inserted by a later
            // `Insert`.
            5 => Op::Reserve(SimTime(t + r % 20_000_000), Reserved::Timer(1)),
            6 if op & 16 == 0 => Op::Schedule(at, PoppedKind::Timer { agent: 0 }),
            6 => Op::Reserve(at, Reserved::Timer(1)),
            _ if filling => Op::Schedule(SimTime(t), delivery(link, i * 100)),
            _ if op & 8 == 0 => Op::PopBefore(SimTime::MAX),
            _ if op & 16 == 0 => Op::PopBefore(at),
            _ => Op::PopUntil(at),
        }
    });
    let Both {
        got,
        want,
        pending,
        refills,
        max_busy,
        cross_rail_ties,
        ..
    } = run_both(ops);
    for kind in ["ChannelIdle", "Deliver", "Timer", "Message", "Fault"] {
        assert!(
            got.iter().any(|(_, _, k)| k.contains(kind)),
            "the mix never popped {kind}"
        );
    }
    assert!(pending.len() > 40, "only {} rails used", pending.len());
    assert!(refills >= 500, "rails refilled only {refills} times");
    assert!(max_busy > 40, "at most {max_busy} rails were busy at once");
    assert!(
        cross_rail_ties >= 100,
        "only {cross_rail_ties} same-instant pops across rails"
    );
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "divergence at pop {i}");
    }
}

proptest! {
    /// Random insert/pop interleavings over [`LINKS`] links, with
    /// same-timestamp ties within and across rails and a time spread
    /// across tens of milliseconds.
    #[test]
    fn queue_matches_reference(
        ops in proptest::collection::vec((0u64..30_000_000, 0u8..15, 0..LINKS), 1..300)
    ) {
        let ops = ops.iter().enumerate().map(|(i, &(t, op, link))| {
            // Quantize times so ties are common.
            let at = SimTime(t - t % 1000);
            let i = i as u64;
            let link = LinkId(link);
            match op {
                0..=2 => Op::Schedule(at, PoppedKind::Timer { agent: 0 }),
                3 => Op::Schedule(at, PoppedKind::Fault { index: i as u32 }),
                4..=6 => Op::Schedule(at, delivery(link, i)),
                7 => Op::Schedule(at, PoppedKind::Message { to: 0, from: 1, token: i }),
                8 => Op::PopBefore(at),
                9 => Op::Reserve(at, Reserved::Departure(link)),
                10 => Op::Insert(t as usize),
                11 => Op::Reserve(at, Reserved::Timer(1)),
                // 20 ms past `t`: later than most other ops' events.
                12 => Op::Reserve(SimTime(t + 20_000_000), Reserved::Timer(2)),
                13 => Op::PopUntil(at),
                _ => Op::PopBefore(SimTime::MAX),
            }
        });
        let Both { got, want, .. } = run_both(ops);
        prop_assert_eq!(got, want);
    }
}
