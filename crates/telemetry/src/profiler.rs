//! Sim-time profiler: attributes wall-clock nanoseconds to simulator
//! event kinds / phases so throughput regressions become explainable.
//!
//! Every event is counted, but only a sample is timed: the first event
//! of each label and then one in every [`SAMPLE_STRIDE`]. A label's
//! attributed time is its sampled mean times its exact count, so a rare
//! label still gets a sample while a hot one pays for a clock read on a
//! small fraction of its events. A label's first timed event runs cold
//! (a scenario's first timer took about 4.5 µs against a 139 ns median
//! on a 2-core host), so it leaves the mean once a later sample exists.
//!
//! The profiler itself holds no clock — the simulator asks
//! [`SimProfiler::due`] whether to time an event, measures it with
//! `std::time::Instant`, and calls [`SimProfiler::record`]. That keeps
//! this crate free of timing policy and the profiler trivially testable.

/// One event in every `SAMPLE_STRIDE` of a label is timed (a power of
/// two, so the test is a mask).
pub const SAMPLE_STRIDE: u64 = 64;

/// Accumulates per-label event counts and sampled wall-clock nanoseconds.
#[derive(Debug, Clone)]
pub struct SimProfiler {
    labels: Vec<&'static str>,
    events: Vec<u64>,
    samples: Vec<u64>,
    /// The first timed event's nanoseconds, per label.
    first_nanos: Vec<u64>,
    /// Nanoseconds of every later timed event, per label.
    later_nanos: Vec<u64>,
}

impl SimProfiler {
    /// A profiler with one accumulator per label.
    pub fn new(labels: &[&'static str]) -> Self {
        Self {
            labels: labels.to_vec(),
            events: vec![0; labels.len()],
            samples: vec![0; labels.len()],
            first_nanos: vec![0; labels.len()],
            later_nanos: vec![0; labels.len()],
        }
    }

    /// Whether the next event under label `idx` is to be timed: the
    /// first one, then one in every [`SAMPLE_STRIDE`].
    #[inline]
    pub fn due(&self, idx: usize) -> bool {
        self.events[idx] & (SAMPLE_STRIDE - 1) == 0
    }

    /// Counts one event under label `idx`, with its wall-clock
    /// nanoseconds when it was timed.
    #[inline]
    pub fn record(&mut self, idx: usize, timed_ns: Option<u64>) {
        self.events[idx] += 1;
        if let Some(ns) = timed_ns {
            if self.samples[idx] == 0 {
                self.first_nanos[idx] = ns;
            } else {
                self.later_nanos[idx] += ns;
            }
            self.samples[idx] += 1;
        }
    }

    /// Snapshots the accumulated attribution.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let entries = (0..self.labels.len())
            .map(|i| {
                let (events, samples) = (self.events[i], self.samples[i]);
                // The first sample stands alone only while it is the
                // one sample, so a rare label keeps a nonzero estimate.
                let (sum, n) = match samples {
                    0 => (0, 1),
                    1 => (self.first_nanos[i], 1),
                    n => (self.later_nanos[i], n - 1),
                };
                let nanos = (sum as u128 * events as u128 / n as u128) as u64;
                ProfileEntry {
                    label: self.labels[i],
                    events,
                    samples,
                    nanos,
                }
            })
            .collect();
        ProfileSnapshot { entries }
    }
}

/// One label's accumulated attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// The label (e.g. `"deliver"`).
    pub label: &'static str,
    /// Events attributed to it, every one counted.
    pub events: u64,
    /// How many of those events were timed.
    pub samples: u64,
    /// Estimated wall-clock nanoseconds: the timed events' mean times
    /// `events` (0 when none was timed). The mean leaves out the first
    /// timed event once a later one exists.
    pub nanos: u64,
}

/// A snapshot of a [`SimProfiler`], ready for reporting.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Per-label attribution, in label-registration order.
    pub entries: Vec<ProfileEntry>,
}

impl ProfileSnapshot {
    /// The entry for `label`, if one was registered.
    pub fn find(&self, label: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_attributes_shares() {
        let mut p = SimProfiler::new(&["deliver", "timer"]);
        let mut timed = 0;
        for i in 0..2 * SAMPLE_STRIDE + 1 {
            let due = p.due(0);
            assert_eq!(due, i % SAMPLE_STRIDE == 0, "event {i}");
            timed += u64::from(due);
            p.record(0, due.then_some(100 + i));
        }
        p.record(1, None);
        let snap = p.snapshot();
        let deliver = snap.entries[0];
        assert_eq!(deliver.label, "deliver");
        assert_eq!(
            (deliver.events, deliver.samples),
            (2 * SAMPLE_STRIDE + 1, timed)
        );
        // Samples at events 0, 64 and 128 took 100, 164 and 228 ns; the
        // first is left out, a mean of 196 ns over 129 events.
        assert_eq!(deliver.nanos, 196 * (2 * SAMPLE_STRIDE + 1));
        let timer = snap.find("timer").unwrap();
        assert_eq!((timer.events, timer.samples, timer.nanos), (1, 0, 0));
        assert!(snap.find("nope").is_none());
    }

    #[test]
    fn slow_first_sample_leaves_the_mean() {
        let mut p = SimProfiler::new(&["deliver", "fault"]);
        let n = 10 * SAMPLE_STRIDE;
        for i in 0..n {
            let due = p.due(0);
            p.record(0, due.then_some(if i == 0 { 10_000 } else { 100 }));
        }
        // A label timed once keeps its one sample.
        p.record(1, Some(4_500));
        let snap = p.snapshot();
        assert_eq!(snap.entries[0].nanos / n, 100);
        assert_eq!(snap.entries[1].nanos, 4_500);
    }

    #[test]
    fn empty_profiler_is_safe() {
        let p = SimProfiler::new(&[]);
        assert!(p.snapshot().entries.is_empty());
        let q = SimProfiler::new(&["idle"]);
        assert!(q.due(0));
        assert_eq!(q.snapshot().entries[0].nanos, 0);
    }
}
