//! The event queue against a reference model: a plain `BinaryHeap` in
//! `(time, seq)` order with its own sequence counter. The queue's timing
//! wheel and link rails are an optimisation of exactly that order, so
//! under any interleaving of schedules, seq reservations, departures and
//! timers inserted later under a reserved seq, and pops, both must pop
//! the same `(time, seq, kind)` stream.

use mltcp_netsim::event::{Delivery, EventKind, EventQueue, Popped};
use mltcp_netsim::link::LinkId;
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::{FlowId, Packet};
use mltcp_netsim::time::SimTime;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A popped event: time, sequence number and the action's debug form
/// (a boxed and an inline delivery print alike).
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

    fn insert(&mut self, at: SimTime, seq: u64, kind: &EventKind) {
        self.heap.push(Reverse((at, seq, format!("{kind:?}"))));
    }

    fn schedule(&mut self, at: SimTime, kind: &EventKind) {
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
    /// A timer of the agent (`schedule_timer_reserved`), as a timer-slot
    /// re-arm reserves; its token is the seq.
    Timer(u32),
}

/// One step of a schedule/pop interleaving.
enum Op {
    Schedule(SimTime, EventKind),
    /// Through `schedule_delivery`, the simulator's per-packet path.
    Deliver(SimTime, Delivery),
    /// Reserves a seq for an event at the given time.
    Reserve(SimTime, Reserved),
    /// Inserts the event of the `n`-th oldest open reservation (modulo
    /// their count) under its reserved seq; a no-op with none open.
    Insert(usize),
    PopBefore(SimTime),
}

/// Applies `ops` to a fresh queue and to the reference model, drains
/// both, and returns their pop streams as `(queue, reference)`.
fn run_both(ops: impl IntoIterator<Item = Op>) -> (Vec<Record>, Vec<Record>) {
    let mut q = EventQueue::new();
    let mut r = ReferenceQueue::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let mut open: Vec<(SimTime, u64, Reserved)> = Vec::new();
    for op in ops {
        match op {
            Op::Reserve(at, what) => {
                let seq = q.reserve_seq();
                assert_eq!(seq, r.reserve(), "reserved seqs diverged");
                open.push((at, seq, what));
            }
            Op::Insert(n) => {
                if !open.is_empty() {
                    let (at, seq, what) = open.remove(n % open.len());
                    match what {
                        Reserved::Departure(link) => {
                            r.insert(at, seq, &EventKind::ChannelIdle { link });
                            q.schedule_departure(at, seq, link);
                        }
                        Reserved::Timer(agent) => {
                            let token = seq;
                            r.insert(at, seq, &EventKind::Timer { agent, token });
                            q.schedule_timer_reserved(at, seq, agent, token);
                        }
                    }
                }
            }
            Op::Schedule(at, kind) => {
                r.schedule(at, &kind);
                q.schedule(at, kind);
            }
            Op::Deliver(at, d) => {
                r.schedule(at, &EventKind::Deliver(Box::new(d)));
                q.schedule_delivery(at, d.node, d.via, d.epoch, d.pkt);
            }
            Op::PopBefore(deadline) => {
                got.extend(q.pop_event_before(deadline).map(record));
                want.extend(r.pop_before(deadline));
            }
        }
    }
    got.extend(std::iter::from_fn(|| q.pop_event()).map(record));
    want.extend(std::iter::from_fn(|| r.pop_before(SimTime::MAX)));
    assert!(q.is_empty());
    (got, want)
}

fn delivery(via: LinkId, seq: u64) -> Delivery {
    Delivery {
        node: NodeId(1),
        via,
        epoch: 0,
        pkt: Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 100),
    }
}

/// A fixed but irregular mix of link traffic (in-order and deliberately
/// out-of-order deliveries, paired and duplicate departures, departures
/// inserted later under a reserved seq, host-local sends), near and far
/// timers, some of them inserted later under a reserved seq, and pops
/// with and without a deadline.
#[test]
fn wheel_pops_like_the_reference_on_mixed_traffic() {
    let mut t = 0u64;
    let ops = (0..4_000u64).map(|i| {
        // Simple LCG so the pattern is fixed but irregular.
        let x = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let (r, op) = (x >> 16, (x >> 8) as u8);
        t += r % 5_000; // mostly forward, frequent ties via %
        let at = SimTime(t - t % 3); // force some equal stamps
        let link = LinkId((r % 4) as u32);
        match op % 8 {
            0 if op & 16 == 0 => Op::Schedule(at, EventKind::ChannelIdle { link }),
            // A reservation sorts among the events scheduled around it,
            // whenever its departure is inserted.
            0 => Op::Reserve(SimTime(t + r % 20_000), Reserved::Departure(link)),
            1 if op & 16 == 0 => Op::Insert((r >> 20) as usize),
            1 => Op::Reserve(at, Reserved::Departure(link)),
            2..=4 => {
                // Arrivals earlier than the rail tail exercise the wheel
                // fallback; `LinkId::NONE` is a host-local send.
                let at = if (r >> 8) % 8 == 0 {
                    SimTime(t / 2)
                } else {
                    at
                };
                let via = if (r >> 12) % 8 == 0 {
                    LinkId::NONE
                } else {
                    link
                };
                let d = delivery(via, i * 100);
                if op & 8 == 0 {
                    Op::Deliver(at, d)
                } else {
                    Op::Schedule(at, EventKind::Deliver(Box::new(d)))
                }
            }
            5 if op & 16 == 0 => Op::Schedule(
                SimTime(t + 50_000_000), // overflow range
                EventKind::Timer { agent: 0, token: i },
            ),
            // Timer reservations, some past the wheel horizon, inserted
            // by a later `Insert`.
            5 => Op::Reserve(SimTime(t + r % 20_000_000), Reserved::Timer(1)),
            6 if op & 16 == 0 => Op::Schedule(at, EventKind::Timer { agent: 0, token: i }),
            6 => Op::Reserve(at, Reserved::Timer(1)),
            _ => Op::PopBefore(if op & 8 == 0 { SimTime::MAX } else { at }),
        }
    });
    // Two departures of one link inserted back to back: the later-
    // reserved, earlier one finds the rail slot taken and must pop from
    // the wheel fallback before the one on the rail.
    let collide = [
        Op::Reserve(SimTime(9_000), Reserved::Departure(LinkId(0))),
        Op::Reserve(SimTime(8_000), Reserved::Departure(LinkId(0))),
        Op::Insert(0),
        Op::Insert(0),
    ];
    let (got, want) = run_both(collide.into_iter().chain(ops));
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "divergence at pop {i}");
    }
}

proptest! {
    /// Random insert/pop interleavings, with same-timestamp ties and a
    /// time spread across several wheel horizons.
    #[test]
    fn wheel_matches_reference(ops in proptest::collection::vec((0u64..30_000_000, 0u8..15), 1..300)) {
        let ops = ops.iter().enumerate().map(|(i, &(t, op))| {
            // Quantize times so ties are common.
            let at = SimTime(t - t % 1000);
            let i = i as u64;
            let link = LinkId(u32::from(op % 3));
            match op {
                0..=2 => Op::Schedule(at, EventKind::Timer { agent: 0, token: i }),
                3 | 4 => Op::Schedule(at, EventKind::ChannelIdle { link }),
                5 => Op::Schedule(at, EventKind::Deliver(Box::new(delivery(link, 0)))),
                6 => Op::Deliver(at, delivery(link, 0)),
                7 => Op::Schedule(at, EventKind::Message { to: 0, from: 1, token: i }),
                8 => Op::PopBefore(at),
                9 => Op::Reserve(at, Reserved::Departure(LinkId((t % 3) as u32))),
                10 => Op::Insert(t as usize),
                11 => Op::Reserve(at, Reserved::Timer(1)),
                // Past the wheel horizon from any cursor below `t`.
                12 => Op::Reserve(SimTime(t + 20_000_000), Reserved::Timer(2)),
                _ => Op::PopBefore(SimTime::MAX),
            }
        });
        let (got, want) = run_both(ops);
        prop_assert_eq!(got, want);
    }
}
