//! A fixed reference kernel, run in short bursts between slices of every
//! measured simulation so wall times can also be given in calibrated
//! seconds: on a shared host the machine's speed drifts by tens of
//! percent over seconds to minutes, and the kernel slows with it.
//!
//! The kernel is a small discrete-event loop — a binary heap of timers
//! with pseudo-random increments and scattered reads and writes into a
//! 2 MiB table — so it leans on the same branch predictor, caches and
//! memory as the simulator's event loop. It is the benchmark's own code:
//! changes to the simulator never change it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Events per calibration burst.
const BURST_EVENTS: u64 = 1 << 15;

/// The kernel's cost per event on a quiet host of the kind the benchmark
/// was written on, nanoseconds: calibrated seconds are wall seconds
/// scaled by this over the cost measured beside them.
pub const REFERENCE_NS_PER_EVENT: f64 = 60.0;

const TABLE_SLOTS: usize = 1 << 18;
const TIMERS: u64 = 1024;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Tables handed between bursts, so the kernel's memory is allocated
/// once per concurrent caller and peak RSS carries a fixed share of it.
static TABLES: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

/// Runs the kernel for `events` events and returns its checksum, which
/// depends only on `events`.
fn reference_kernel(events: u64) -> u64 {
    let pooled = TABLES.lock().expect("table pool poisoned").pop();
    let mut table = pooled.unwrap_or_else(|| vec![0; TABLE_SLOTS]);
    table.fill(0);
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..TIMERS)
        .map(|id| Reverse((xorshift(&mut rng) % 1000, id)))
        .collect();
    let mut acc = 0u64;
    for _ in 0..events {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let r = xorshift(&mut rng);
        let slot = r as usize % TABLE_SLOTS;
        table[slot] = table[slot].wrapping_add(t ^ id);
        acc = acc.wrapping_add(table[(slot * 7 + 13) % TABLE_SLOTS]);
        heap.push(Reverse((t + 1 + (r >> 40) % 50, id)));
    }
    TABLES.lock().expect("table pool poisoned").push(table);
    acc
}

/// One timed burst of the kernel: its cost per event, nanoseconds.
pub fn burst_ns_per_event() -> f64 {
    let t0 = Instant::now();
    black_box(reference_kernel(black_box(BURST_EVENTS)));
    t0.elapsed().as_secs_f64() * 1e9 / BURST_EVENTS as f64
}

/// The factor turning wall seconds measured beside kernel bursts that
/// cost `ns_per_event` into calibrated seconds.
pub fn factor(ns_per_event: f64) -> f64 {
    REFERENCE_NS_PER_EVENT / ns_per_event
}
