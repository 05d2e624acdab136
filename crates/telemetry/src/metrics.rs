//! Metrics: monotonic counters, gauges, and log-linear histograms,
//! aggregated by [`MetricsSink`], snapshotted per scenario and
//! serialized alongside bench results.

use crate::event::{DropReason, EventKind, FaultKind, RetxKind, TelemetryEvent};
use crate::json::{push_f64, push_string};
use crate::sink::TelemetrySink;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Number of log-linear buckets: 8 exact values (0–7) plus 4 linear
/// sub-buckets per power-of-two decade up to `u64::MAX`.
const BUCKETS: usize = 252;

fn bucket_index(v: u64) -> usize {
    let idx = if v < 8 {
        v as usize
    } else {
        let k = 63 - v.leading_zeros() as usize; // v in [2^k, 2^{k+1})
        8 + (k - 3) * 4 + ((v >> (k - 2)) & 3) as usize
    };
    debug_assert!(idx < BUCKETS);
    idx
}

/// Inclusive `(low, high)` value range of a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 8 {
        (idx as u64, idx as u64)
    } else {
        let b = idx - 8;
        let k = b / 4 + 3;
        let sub = (b % 4) as u64;
        let width = 1u64 << (k - 2);
        let low = (1u64 << k) + sub * width;
        (low, low + width - 1)
    }
}

/// A log-linear histogram of `u64` observations.
///
/// Values 0–7 are exact; beyond that each power-of-two decade splits
/// into 4 linear sub-buckets, so relative quantile error stays under
/// ~12.5% at any magnitude while the whole histogram is one fixed array.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket midpoints;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * (self.count.saturating_sub(1)) as f64) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen > target {
                let (low, high) = bucket_bounds(idx);
                // Clamp to the observed range so p0/p100 are exact.
                let mid = (low as f64 + high as f64) / 2.0;
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Summarizes into the serializable form.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Serializable summary of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (bucket-midpoint approximation).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// A name-sorted, plain-data snapshot of a [`MetricsSink`].
/// `Clone + Send`, so sweep workers can hand it across threads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(String, f64)>,
    /// Histogram name → summary.
    pub histograms: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Serializes as a compact JSON object (counters, gauges, histogram
    /// summaries) for embedding alongside bench results.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_string(&mut s, name);
            let _ = write!(s, ":{v}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_string(&mut s, name);
            s.push(':');
            push_f64(&mut s, *v);
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_string(&mut s, name);
            let _ = write!(
                s,
                ":{{\"count\":{},\"min\":{},\"max\":{}",
                h.count, h.min, h.max
            );
            for (key, v) in [
                ("mean", h.mean),
                ("p50", h.p50),
                ("p90", h.p90),
                ("p99", h.p99),
            ] {
                let _ = write!(s, ",\"{key}\":");
                push_f64(&mut s, v);
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// A [`TelemetrySink`] that aggregates the event stream into
/// per-kind event counters, per-reason drop counters, retransmit
/// counters, per-flow RTT histograms, queue-depth histograms, and fault
/// windows (brownout / link-downtime seconds).
///
/// `record` folds each event into flat state: an array slot per event
/// kind and drop reason, the two queue-depth histograms as fields, and
/// the per-flow RTT histograms found by a scan of the few flows seen.
/// [`snapshot`](Self::snapshot) names it all, name-sorted.
#[derive(Debug)]
pub struct MetricsSink {
    /// Events per [`EventKind::index`].
    kinds: [u64; EventKind::COUNT],
    /// Drops per reason, in [`DropReason::ALL`] order.
    drops: [u64; DropReason::ALL.len()],
    retx_fast: u64,
    retx_rto: u64,
    qdepth_bytes: Histogram,
    qdepth_pkts: Histogram,
    /// RTT samples per flow, in the order flows first reported one.
    rtt_by_flow: Vec<(u64, Histogram)>,
    /// Open brownout window start per link (RateFactor < 1 opens).
    brown_open: BTreeMap<u32, u64>,
    /// Accumulated brownout ns per link.
    brown_ns: BTreeMap<u32, u64>,
    /// Open downtime window start per link (LinkDown opens).
    down_open: BTreeMap<u32, u64>,
    /// Accumulated downtime ns per link.
    down_ns: BTreeMap<u32, u64>,
    last_t: u64,
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink {
    /// A sink with every counter at zero and no observations.
    pub fn new() -> Self {
        Self {
            kinds: [0; EventKind::COUNT],
            drops: [0; DropReason::ALL.len()],
            retx_fast: 0,
            retx_rto: 0,
            qdepth_bytes: Histogram::new(),
            qdepth_pkts: Histogram::new(),
            rtt_by_flow: Vec::new(),
            brown_open: BTreeMap::new(),
            brown_ns: BTreeMap::new(),
            down_open: BTreeMap::new(),
            down_ns: BTreeMap::new(),
            last_t: 0,
        }
    }

    /// Snapshots the counters and histograms plus the derived fault
    /// gauges, name-sorted.
    ///
    /// Windows still open at the last observed event are closed at that
    /// timestamp. Brownout / downtime seconds are reported as the
    /// *maximum* over links, not the sum — a dumbbell fault hits both
    /// directions of the same bottleneck and summing would double-count
    /// the outage.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = Vec::new();
        for k in EventKind::ALL {
            counters.push((format!("events/{}", k.name()), self.kinds[k.index()]));
        }
        for (r, &n) in DropReason::ALL.into_iter().zip(&self.drops) {
            counters.push((format!("drops/{}", r.name()), n));
        }
        for (name, n) in [
            ("drops/total", self.kinds[EventKind::Drop.index()]),
            ("retx/fast", self.retx_fast),
            ("retx/rto", self.retx_rto),
            ("ecn/marks", self.kinds[EventKind::EcnMark.index()]),
        ] {
            counters.push((name.to_string(), n));
        }
        let mut histograms = vec![
            ("queue/bytes".to_string(), self.qdepth_bytes.summary()),
            ("queue/pkts".to_string(), self.qdepth_pkts.summary()),
        ];
        for (flow, h) in &self.rtt_by_flow {
            histograms.push((format!("rtt_ns/flow{flow}"), h.summary()));
        }
        let close = |open: &BTreeMap<u32, u64>, acc: &BTreeMap<u32, u64>| -> f64 {
            let mut max_ns = 0u64;
            for (&link, &ns) in acc {
                let extra = open
                    .get(&link)
                    .map(|&start| self.last_t.saturating_sub(start))
                    .unwrap_or(0);
                max_ns = max_ns.max(ns + extra);
            }
            for (&link, &start) in open {
                if !acc.contains_key(&link) {
                    max_ns = max_ns.max(self.last_t.saturating_sub(start));
                }
            }
            max_ns as f64 / 1e9
        };
        let gauges = vec![
            (
                "fault/brownout_s".to_string(),
                close(&self.brown_open, &self.brown_ns),
            ),
            (
                "fault/downtime_s".to_string(),
                close(&self.down_open, &self.down_ns),
            ),
        ];
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

impl TelemetrySink for MetricsSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.last_t = self.last_t.max(ev.t_ns());
        self.kinds[ev.kind().index()] += 1;
        match *ev {
            TelemetryEvent::Rtt { flow, rtt_ns, .. } => {
                match self.rtt_by_flow.iter_mut().find(|(f, _)| *f == flow) {
                    Some((_, h)) => h.observe(rtt_ns),
                    None => {
                        let mut h = Histogram::new();
                        h.observe(rtt_ns);
                        self.rtt_by_flow.push((flow, h));
                    }
                }
            }
            TelemetryEvent::QueueDepth { bytes, packets, .. } => {
                self.qdepth_bytes.observe(bytes);
                self.qdepth_pkts.observe(packets as u64);
            }
            TelemetryEvent::Drop { reason, .. } => {
                let i = DropReason::ALL
                    .iter()
                    .position(|&r| r == reason)
                    .expect("reason in ALL");
                self.drops[i] += 1;
            }
            TelemetryEvent::Retx { kind, .. } => match kind {
                RetxKind::Fast => self.retx_fast += 1,
                RetxKind::Rto => self.retx_rto += 1,
            },
            TelemetryEvent::Fault {
                t_ns,
                link,
                kind,
                factor,
            } => match kind {
                FaultKind::RateFactor if factor < 1.0 => {
                    self.brown_open.entry(link).or_insert(t_ns);
                }
                FaultKind::RateFactor => {
                    if let Some(start) = self.brown_open.remove(&link) {
                        *self.brown_ns.entry(link).or_insert(0) += t_ns.saturating_sub(start);
                    }
                }
                FaultKind::LinkDown => {
                    self.down_open.entry(link).or_insert(t_ns);
                }
                FaultKind::LinkUp => {
                    if let Some(start) = self.down_open.remove(&link) {
                        *self.down_ns.entry(link).or_insert(0) += t_ns.saturating_sub(start);
                    }
                }
                FaultKind::LossModel | FaultKind::LossRestore => {}
            },
            TelemetryEvent::EcnMark { .. }
            | TelemetryEvent::Cwnd { .. }
            | TelemetryEvent::Gain { .. }
            | TelemetryEvent::Phase { .. } => {}
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            for probe in [v, v + v / 3, v + v / 2] {
                let idx = bucket_index(probe);
                assert!(idx >= last, "index regressed at {probe}");
                assert!(idx < BUCKETS);
                let (low, high) = bucket_bounds(idx);
                assert!(
                    (low..=high).contains(&probe),
                    "{probe} outside bucket [{low}, {high}]"
                );
                last = idx;
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v * 1000);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1000);
        assert_eq!(s.max, 1_000_000);
        let rel = |got: f64, want: f64| (got - want).abs() / want;
        assert!(rel(s.p50, 500_000.0) < 0.15, "p50 = {}", s.p50);
        assert!(rel(s.p90, 900_000.0) < 0.15, "p90 = {}", s.p90);
        assert!(rel(s.mean, 500_500.0) < 0.01, "mean = {}", s.mean);
    }

    /// A snapshot looks its entries up by name, and a sink's snapshot
    /// lists every section name-sorted.
    #[test]
    fn registry_handles_and_snapshot_sorted() {
        let mut h = Histogram::new();
        h.observe(7);
        let snap = MetricsSnapshot {
            counters: vec![("a".into(), 1), ("b".into(), 2)],
            gauges: vec![("g".into(), 2.5)],
            histograms: vec![("h".into(), h.summary())],
        };
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert!(snap.to_json().contains("\"counters\""));

        let mut sink = MetricsSink::new();
        for flow in [30, 4, 200] {
            sink.record(&TelemetryEvent::Rtt {
                t_ns: 1,
                flow,
                job: 0,
                rtt_ns: 5,
            });
        }
        let snap = sink.snapshot();
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(snap.gauges.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(snap.histograms.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(snap.histograms.len(), 5);
    }

    #[test]
    fn metrics_sink_aggregates_faults_and_drops() {
        let mut sink = MetricsSink::new();
        sink.record(&TelemetryEvent::Fault {
            t_ns: 1_000_000_000,
            link: 0,
            kind: FaultKind::RateFactor,
            factor: 0.25,
        });
        sink.record(&TelemetryEvent::Fault {
            t_ns: 1_000_000_000,
            link: 1,
            kind: FaultKind::RateFactor,
            factor: 0.25,
        });
        sink.record(&TelemetryEvent::Drop {
            t_ns: 2_000_000_000,
            link: 0,
            flow: 9,
            reason: DropReason::QueueFull,
        });
        sink.record(&TelemetryEvent::Retx {
            t_ns: 2_500_000_000,
            flow: 9,
            job: 0,
            kind: RetxKind::Rto,
            count: 1,
        });
        sink.record(&TelemetryEvent::Fault {
            t_ns: 3_000_000_000,
            link: 0,
            kind: FaultKind::RateFactor,
            factor: 1.0,
        });
        sink.record(&TelemetryEvent::Fault {
            t_ns: 3_000_000_000,
            link: 1,
            kind: FaultKind::RateFactor,
            factor: 1.0,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.counter("drops/queue_full"), 1);
        assert_eq!(snap.counter("drops/total"), 1);
        assert_eq!(snap.counter("retx/rto"), 1);
        assert_eq!(snap.counter("events/fault"), 4);
        // Both directions browned out for the same 2 s: max, not sum.
        assert_eq!(snap.gauge("fault/brownout_s"), Some(2.0));
        assert_eq!(snap.gauge("fault/downtime_s"), Some(0.0));
    }

    #[test]
    fn metrics_sink_keeps_a_histogram_per_flow_and_queue() {
        let mut sink = MetricsSink::new();
        for (flow, rtt_ns) in [(10, 80_000), (2, 90_000), (10, 100_000)] {
            sink.record(&TelemetryEvent::Rtt {
                t_ns: 1,
                flow,
                job: 0,
                rtt_ns,
            });
        }
        sink.record(&TelemetryEvent::QueueDepth {
            t_ns: 2,
            link: 0,
            bytes: 3080,
            packets: 2,
        });
        sink.record(&TelemetryEvent::EcnMark {
            t_ns: 3,
            link: 0,
            flow: 2,
        });
        let snap = sink.snapshot();
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["queue/bytes", "queue/pkts", "rtt_ns/flow10", "rtt_ns/flow2"]
        );
        let flow10 = snap.histogram("rtt_ns/flow10").unwrap();
        assert_eq!((flow10.count, flow10.min, flow10.max), (2, 80_000, 100_000));
        assert_eq!(snap.histogram("queue/pkts").unwrap().max, 2);
        assert_eq!(snap.counter("events/rtt"), 3);
        assert_eq!(snap.counter("ecn/marks"), 1);
        assert!(snap.counters.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn open_fault_window_closes_at_last_event() {
        let mut sink = MetricsSink::new();
        sink.record(&TelemetryEvent::Fault {
            t_ns: 0,
            link: 3,
            kind: FaultKind::LinkDown,
            factor: 1.0,
        });
        sink.record(&TelemetryEvent::Phase {
            t_ns: 5_000_000_000,
            job: 0,
            iter: 0,
            phase: crate::event::PhaseKind::IterEnd,
        });
        let snap = sink.snapshot();
        assert_eq!(snap.gauge("fault/downtime_s"), Some(5.0));
    }

    /// Pins the exact bytes of a snapshot: an escaped counter name, an
    /// integral and a NaN gauge, and a histogram.
    #[test]
    fn snapshot_json_matches_golden() {
        let mut h = Histogram::new();
        for v in [7, 1000, 84_000] {
            h.observe(v);
        }
        let snap = MetricsSnapshot {
            counters: vec![("drops/\"q\"\\\u{1}".into(), 3)],
            gauges: vec![("fault/brownout_s".into(), 2.0), ("ratio".into(), f64::NAN)],
            histograms: vec![("rtt_ns".into(), h.summary())],
        };
        let golden = concat!(
            r#"{"counters":{"drops/\"q\"\\\u0001":3},"#,
            r#""gauges":{"fault/brownout_s":2,"ratio":null},"#,
            r#""histograms":{"rtt_ns":{"count":3,"min":7,"max":84000,"#,
            r#""mean":28335.666666666668,"p50":959.5,"p90":959.5,"p99":959.5}}}"#,
        );
        assert_eq!(snap.to_json(), golden);
    }
}
