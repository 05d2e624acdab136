//! Metrics registry: monotonic counters, gauges, and log-linear
//! histograms, snapshotted per scenario and serialized alongside bench
//! results.

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
/// ~12.5% at any magnitude while the whole histogram is one flat array.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
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
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
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

#[derive(Debug, Clone)]
struct Named<T> {
    name: String,
    value: T,
}

/// A registry of named counters, gauges, and histograms with cheap
/// handle-based updates (`usize` indices; no lookup on the hot path).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<Named<u64>>,
    gauges: Vec<Named<f64>>,
    histograms: Vec<Named<Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a monotonic counter; returns its handle.
    pub fn counter(&mut self, name: &str) -> usize {
        if let Some(i) = self.counters.iter().position(|n| n.name == name) {
            return i;
        }
        self.counters.push(Named {
            name: name.to_string(),
            value: 0,
        });
        self.counters.len() - 1
    }

    /// Registers (or finds) a gauge; returns its handle.
    pub fn gauge(&mut self, name: &str) -> usize {
        if let Some(i) = self.gauges.iter().position(|n| n.name == name) {
            return i;
        }
        self.gauges.push(Named {
            name: name.to_string(),
            value: 0.0,
        });
        self.gauges.len() - 1
    }

    /// Registers (or finds) a histogram; returns its handle.
    pub fn histogram(&mut self, name: &str) -> usize {
        if let Some(i) = self.histograms.iter().position(|n| n.name == name) {
            return i;
        }
        self.histograms.push(Named {
            name: name.to_string(),
            value: Histogram::new(),
        });
        self.histograms.len() - 1
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn inc(&mut self, handle: usize, n: u64) {
        self.counters[handle].value += n;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, handle: usize, v: f64) {
        self.gauges[handle].value = v;
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, handle: usize, v: u64) {
        self.histograms[handle].value.observe(v);
    }

    /// Snapshots everything, name-sorted for deterministic output.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|n| (n.name.clone(), n.value))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .iter()
            .map(|n| (n.name.clone(), n.value))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, HistSummary)> = self
            .histograms
            .iter()
            .map(|n| (n.name.clone(), n.value.summary()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A name-sorted, plain-data snapshot of a [`MetricsRegistry`].
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

/// A [`TelemetrySink`] that aggregates the event stream into a
/// [`MetricsRegistry`]: per-kind event counters, per-reason drop
/// counters, retransmit counters, per-flow RTT histograms, queue-depth
/// histograms, and fault windows (brownout / link-downtime seconds).
#[derive(Debug)]
pub struct MetricsSink {
    reg: MetricsRegistry,
    kind_counters: [usize; EventKind::COUNT],
    drop_counters: [usize; DropReason::ALL.len()],
    drops_total: usize,
    retx_fast: usize,
    retx_rto: usize,
    ecn_marks: usize,
    qdepth_bytes: usize,
    qdepth_pkts: usize,
    rtt_by_flow: BTreeMap<u64, usize>,
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
    /// A sink with the standard metric families pre-registered.
    pub fn new() -> Self {
        let mut reg = MetricsRegistry::new();
        let mut kind_counters = [0usize; EventKind::COUNT];
        for k in EventKind::ALL {
            kind_counters[k.index()] = reg.counter(&format!("events/{}", k.name()));
        }
        let mut drop_counters = [0usize; DropReason::ALL.len()];
        for (i, r) in DropReason::ALL.into_iter().enumerate() {
            drop_counters[i] = reg.counter(&format!("drops/{}", r.name()));
        }
        let drops_total = reg.counter("drops/total");
        let retx_fast = reg.counter("retx/fast");
        let retx_rto = reg.counter("retx/rto");
        let ecn_marks = reg.counter("ecn/marks");
        let qdepth_bytes = reg.histogram("queue/bytes");
        let qdepth_pkts = reg.histogram("queue/pkts");
        Self {
            reg,
            kind_counters,
            drop_counters,
            drops_total,
            retx_fast,
            retx_rto,
            ecn_marks,
            qdepth_bytes,
            qdepth_pkts,
            rtt_by_flow: BTreeMap::new(),
            brown_open: BTreeMap::new(),
            brown_ns: BTreeMap::new(),
            down_open: BTreeMap::new(),
            down_ns: BTreeMap::new(),
            last_t: 0,
        }
    }

    fn drop_reason_handle(&self, reason: DropReason) -> usize {
        let i = DropReason::ALL
            .iter()
            .position(|r| *r == reason)
            .expect("reason in ALL");
        self.drop_counters[i]
    }

    /// Snapshots the registry plus the derived fault gauges.
    ///
    /// Windows still open at the last observed event are closed at that
    /// timestamp. Brownout / downtime seconds are reported as the
    /// *maximum* over links, not the sum — a dumbbell fault hits both
    /// directions of the same bottleneck and summing would double-count
    /// the outage.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.reg.snapshot();
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
        snap.gauges.push((
            "fault/brownout_s".to_string(),
            close(&self.brown_open, &self.brown_ns),
        ));
        snap.gauges.push((
            "fault/downtime_s".to_string(),
            close(&self.down_open, &self.down_ns),
        ));
        snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snap
    }
}

impl TelemetrySink for MetricsSink {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.last_t = self.last_t.max(ev.t_ns());
        self.reg.inc(self.kind_counters[ev.kind().index()], 1);
        match *ev {
            TelemetryEvent::Rtt { flow, rtt_ns, .. } => {
                let h = match self.rtt_by_flow.get(&flow) {
                    Some(&h) => h,
                    None => {
                        let h = self.reg.histogram(&format!("rtt_ns/flow{flow}"));
                        self.rtt_by_flow.insert(flow, h);
                        h
                    }
                };
                self.reg.observe(h, rtt_ns);
            }
            TelemetryEvent::EcnMark { .. } => {
                self.reg.inc(self.ecn_marks, 1);
            }
            TelemetryEvent::QueueDepth { bytes, packets, .. } => {
                self.reg.observe(self.qdepth_bytes, bytes);
                self.reg.observe(self.qdepth_pkts, packets as u64);
            }
            TelemetryEvent::Drop { reason, .. } => {
                self.reg.inc(self.drop_reason_handle(reason), 1);
                self.reg.inc(self.drops_total, 1);
            }
            TelemetryEvent::Retx { kind, .. } => {
                let h = match kind {
                    RetxKind::Fast => self.retx_fast,
                    RetxKind::Rto => self.retx_rto,
                };
                self.reg.inc(h, 1);
            }
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
            TelemetryEvent::Cwnd { .. }
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

    #[test]
    fn registry_handles_and_snapshot_sorted() {
        let mut reg = MetricsRegistry::new();
        let b = reg.counter("b");
        let a = reg.counter("a");
        assert_eq!(reg.counter("b"), b, "re-registration returns same handle");
        reg.inc(b, 2);
        reg.inc(a, 1);
        let g = reg.gauge("g");
        reg.set(g, 2.5);
        let h = reg.histogram("h");
        reg.observe(h, 7);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(snap.counter("b"), 2);
        assert_eq!(snap.gauge("g"), Some(2.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert!(snap.to_json().contains("\"counters\""));
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
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("drops/\"q\"\\\u{1}");
        reg.inc(c, 3);
        let g = reg.gauge("fault/brownout_s");
        reg.set(g, 2.0);
        let nan = reg.gauge("ratio");
        reg.set(nan, f64::NAN);
        let h = reg.histogram("rtt_ns");
        for v in [7, 1000, 84_000] {
            reg.observe(h, v);
        }
        let golden = concat!(
            r#"{"counters":{"drops/\"q\"\\\u0001":3},"#,
            r#""gauges":{"fault/brownout_s":2,"ratio":null},"#,
            r#""histograms":{"rtt_ns":{"count":3,"min":7,"max":84000,"#,
            r#""mean":28335.666666666668,"p50":959.5,"p90":959.5,"p99":959.5}}}"#,
        );
        assert_eq!(reg.snapshot().to_json(), golden);
    }
}
