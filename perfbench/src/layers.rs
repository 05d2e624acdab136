//! The benchmark's metric catalogue: every end-to-end metric, and every
//! per-layer metric with the end-to-end metric and workloads it should
//! move. `BENCHMARK.json` lists the same names and units.

/// One end-to-end metric: name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("steady_ratio", "ratio"),
    ("iter_p90_ratio", "ratio"),
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// `<layer>.<metric>`; the layer is a workspace crate.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement: `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric a change in this one should move.
    pub moves: &'static str,
    /// The workloads on which it should move it.
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const ALL: &str = "all workloads";
const CLEAN: &str = "gpt2x6_mltcp";
const FAULTS: &str = "fig2_faults_metrics";
const SWEEP: &str = "cassini_sweep";

/// Every per-layer metric, in output order.
pub const LAYER_METRICS: [LayerMetric; 45] = [
    m("workload.build_s", "s", "lower", "setup_s", ALL),
    m("workload.iterations", "count", "higher", "run_s", ALL),
    m(
        "workload.reinterleave_iters",
        "count",
        "lower",
        "steady_ratio",
        FAULTS,
    ),
    m(
        "workload.sweep.busy_frac",
        "fraction",
        "higher",
        "scenarios_per_s",
        SWEEP,
    ),
    m(
        "workload.sweep.tail_s",
        "s",
        "lower",
        "scenarios_per_s",
        SWEEP,
    ),
    m("workload.self_s", "s", "lower", "run_s", ALL),
    m(
        "sched.optimize_s",
        "s",
        "lower",
        "setup_s, scenarios_per_s",
        SWEEP,
    ),
    m(
        "sched.optimize_calls",
        "count",
        "lower",
        "setup_s, scenarios_per_s",
        SWEEP,
    ),
    m("sched.excess_demand", "s", "lower", "steady_ratio", SWEEP),
    m("sched.self_s", "s", "lower", "setup_s", SWEEP),
    m("netsim.events", "count", "lower", "run_s", ALL),
    m(
        "netsim.events_per_s",
        "1/s",
        "higher",
        "run_s, sim_s_per_s",
        CLEAN,
    ),
    m("netsim.ns_per_event.sched", "ns", "lower", "run_s", CLEAN),
    m("netsim.ns_per_event.deliver", "ns", "lower", "run_s", CLEAN),
    m(
        "netsim.ns_per_event.channel_idle",
        "ns",
        "lower",
        "run_s",
        CLEAN,
    ),
    m("netsim.ns_per_event.timer", "ns", "lower", "run_s", CLEAN),
    m("netsim.ns_per_event.message", "ns", "lower", "run_s", CLEAN),
    m("netsim.events.sched", "count", "lower", "run_s", CLEAN),
    m("netsim.events.deliver", "count", "lower", "run_s", CLEAN),
    m(
        "netsim.events.channel_idle",
        "count",
        "lower",
        "run_s",
        CLEAN,
    ),
    m("netsim.events.timer", "count", "lower", "run_s", CLEAN),
    m("netsim.events.message", "count", "lower", "run_s", CLEAN),
    m("netsim.events.fault", "count", "lower", "run_s", FAULTS),
    m("netsim.events.agent_start", "count", "lower", "run_s", ALL),
    m("netsim.delivered", "count", "lower", "run_s", FAULTS),
    m(
        "netsim.dropped",
        "count",
        "lower",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m(
        "netsim.drop_frac",
        "fraction",
        "lower",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m(
        "netsim.queue_bytes_p50",
        "bytes",
        "lower",
        "steady_ratio",
        CLEAN,
    ),
    m(
        "netsim.queue_bytes_p99",
        "bytes",
        "lower",
        "steady_ratio",
        CLEAN,
    ),
    m(
        "netsim.event_queue_capacity_max",
        "slots",
        "lower",
        "peak_rss_mb",
        ALL,
    ),
    m("netsim.self_s", "s", "lower", "run_s", ALL),
    m("transport.segments_sent", "count", "lower", "run_s", FAULTS),
    m(
        "transport.retransmits",
        "count",
        "lower",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m(
        "transport.timeouts",
        "count",
        "lower",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m(
        "transport.fast_retransmits",
        "count",
        "lower",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m(
        "transport.blackouts",
        "count",
        "lower",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m(
        "transport.goodput_frac",
        "fraction",
        "higher",
        "run_s, reinterleave_iters",
        FAULTS,
    ),
    m("transport.rtt_p50_ns", "ns", "lower", "steady_ratio", ALL),
    m("transport.rtt_p99_ns", "ns", "lower", "steady_ratio", ALL),
    m(
        "core.gain_updates",
        "count",
        "lower",
        "steady_ratio",
        "gpt2x6_mltcp, fig2_faults_metrics",
    ),
    m(
        "telemetry.events_recorded",
        "count",
        "lower",
        "run_s",
        FAULTS,
    ),
    m(
        "telemetry.overhead_frac",
        "fraction",
        "lower",
        "run_s",
        FAULTS,
    ),
    m("telemetry.self_s", "s", "lower", "run_s", FAULTS),
    m("bench.self_s", "s", "lower", "none (harness overhead)", ALL),
    m(
        "bench.failed_frac",
        "fraction",
        "lower",
        "all (correctness gate)",
        ALL,
    ),
];
