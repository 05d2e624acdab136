//! Bandwidth tracing: per-flow byte counts binned over time on a
//! designated channel. This is how the repository regenerates the paper's
//! bandwidth-vs-time figures (Figs. 1, 2, 4a/4b, 6).

use crate::packet::FlowId;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A per-flow, binned bandwidth trace for one channel.
#[derive(Debug, Clone)]
pub struct BandwidthTrace {
    bin: SimDuration,
    /// `bins[flow][i]` = bytes of `flow` serialized during bin `i`.
    per_flow: BTreeMap<FlowId, Vec<u64>>,
    total: Vec<u64>,
    /// Bin-count ceiling ([`BandwidthTrace::MAX_BINS`] by default).
    max_bins: usize,
    /// Records whose bin index saturated at the ceiling.
    saturated: u64,
}

impl BandwidthTrace {
    /// Default ceiling on the number of bins. A record landing past the
    /// ceiling saturates into the last bin instead of growing the series
    /// without bound (or, on 32-bit targets, silently aliasing a
    /// truncated index). 16 Mi bins at the default 1 ms bin ≈ 4.7
    /// simulated hours.
    pub const MAX_BINS: usize = 1 << 24;

    /// Creates a trace with the given bin width.
    pub fn new(bin: SimDuration) -> Self {
        Self {
            bin: SimDuration(bin.as_nanos().max(1)),
            per_flow: BTreeMap::new(),
            total: Vec::new(),
            max_bins: Self::MAX_BINS,
            saturated: 0,
        }
    }

    /// Overrides the bin-count ceiling (min 1).
    pub fn with_max_bins(mut self, max_bins: usize) -> Self {
        self.max_bins = max_bins.max(1);
        self
    }

    /// Records `bytes` of `flow` completing serialization at `at`.
    ///
    /// Timestamps beyond the bin ceiling saturate into the last bin and
    /// are counted in [`BandwidthTrace::saturated_records`].
    pub fn record(&mut self, at: SimTime, flow: FlowId, bytes: u32) {
        let raw = at.as_nanos() / self.bin.as_nanos();
        let idx = if raw >= self.max_bins as u64 {
            self.saturated += 1;
            self.max_bins - 1
        } else {
            raw as usize
        };
        let series = self.per_flow.entry(flow).or_default();
        if series.len() <= idx {
            series.resize(idx + 1, 0);
        }
        series[idx] += u64::from(bytes);
        if self.total.len() <= idx {
            self.total.resize(idx + 1, 0);
        }
        self.total[idx] += u64::from(bytes);
    }

    /// The bin width.
    pub fn bin(&self) -> SimDuration {
        self.bin
    }

    /// Number of bins in the aggregate series.
    pub fn bins(&self) -> usize {
        self.total.len()
    }

    /// How many records saturated at the bin ceiling (0 in any run short
    /// enough for its bin width).
    pub fn saturated_records(&self) -> u64 {
        self.saturated
    }

    /// Flows observed, in id order.
    pub fn flows(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.per_flow.keys().copied()
    }

    /// The byte series for one flow (empty if never seen).
    pub fn bytes_series(&self, flow: FlowId) -> &[u64] {
        self.per_flow.get(&flow).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The flow's bandwidth series in Gbps.
    pub fn gbps_series(&self, flow: FlowId) -> Vec<f64> {
        let secs = self.bin.as_secs_f64();
        self.bytes_series(flow)
            .iter()
            .map(|&b| b as f64 * 8.0 / secs / 1e9)
            .collect()
    }

    /// Aggregate (all-flow) bandwidth series in Gbps.
    pub fn total_gbps_series(&self) -> Vec<f64> {
        let secs = self.bin.as_secs_f64();
        self.total
            .iter()
            .map(|&b| b as f64 * 8.0 / secs / 1e9)
            .collect()
    }

    /// Total bytes recorded for a flow.
    pub fn flow_bytes(&self, flow: FlowId) -> u64 {
        self.bytes_series(flow).iter().sum()
    }

    /// The time axis (bin start times, seconds) matching the series.
    pub fn time_axis_secs(&self) -> Vec<f64> {
        let secs = self.bin.as_secs_f64();
        (0..self.total.len()).map(|i| i as f64 * secs).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn bins_accumulate_bytes() {
        let mut t = BandwidthTrace::new(SimDuration::millis(10));
        t.record(SimTime(0), FlowId(1), 1000);
        t.record(SimTime(5 * MS), FlowId(1), 1000);
        t.record(SimTime(15 * MS), FlowId(1), 500);
        assert_eq!(t.bytes_series(FlowId(1)), &[2000, 500]);
        assert_eq!(t.flow_bytes(FlowId(1)), 2500);
    }

    #[test]
    fn separate_flows_separate_series() {
        let mut t = BandwidthTrace::new(SimDuration::millis(1));
        t.record(SimTime(0), FlowId(1), 100);
        t.record(SimTime(0), FlowId(2), 200);
        assert_eq!(t.bytes_series(FlowId(1)), &[100]);
        assert_eq!(t.bytes_series(FlowId(2)), &[200]);
        assert_eq!(t.total_gbps_series().len(), 1);
        assert_eq!(t.flows().count(), 2);
    }

    #[test]
    fn gbps_conversion() {
        let mut t = BandwidthTrace::new(SimDuration::millis(1));
        // 125 kB in 1 ms = 1 Gbps.
        t.record(SimTime(0), FlowId(1), 125_000);
        let g = t.gbps_series(FlowId(1));
        assert!((g[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_flow_is_empty() {
        let t = BandwidthTrace::new(SimDuration::millis(1));
        assert!(t.bytes_series(FlowId(9)).is_empty());
        assert_eq!(t.flow_bytes(FlowId(9)), 0);
    }

    #[test]
    fn record_saturates_at_bin_ceiling() {
        let mut t = BandwidthTrace::new(SimDuration::millis(10)).with_max_bins(4);
        t.record(SimTime(0), FlowId(1), 100);
        // 1 simulated hour with a 4-bin ceiling: lands in the last bin.
        t.record(SimTime::from_secs_f64(3600.0), FlowId(1), 200);
        t.record(SimTime(u64::MAX), FlowId(1), 300);
        assert_eq!(t.bytes_series(FlowId(1)), &[100, 0, 0, 500]);
        assert_eq!(t.bins(), 4);
        assert_eq!(t.saturated_records(), 2);
        assert_eq!(t.flow_bytes(FlowId(1)), 600);
        assert_eq!(t.bin(), SimDuration::millis(10));
    }

    #[test]
    fn time_axis_matches_series() {
        let mut t = BandwidthTrace::new(SimDuration::millis(10));
        t.record(SimTime(25 * MS), FlowId(1), 1);
        let axis = t.time_axis_secs();
        assert_eq!(axis.len(), 3);
        assert!((axis[2] - 0.02).abs() < 1e-12);
    }
}
