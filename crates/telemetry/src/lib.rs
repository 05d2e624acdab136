//! # mltcp-telemetry
//!
//! Cross-stack observability for the MLTCP reproduction: a typed,
//! allocation-light telemetry event bus plus the sinks, metrics, and
//! profiling machinery that consume it. It also holds the workspace's
//! one JSON writer ([`json`]), shared by traces, metrics snapshots and
//! the bench harness's result files.
//!
//! This is a *leaf* crate: it knows nothing about the simulator, the
//! transport, or the workload. Events carry raw primitives (`t_ns`,
//! `flow`, `job`, `link`), so every layer above can emit without a
//! dependency cycle:
//!
//! * `mltcp-netsim` emits queue depths, ECN marks, drops, and fault
//!   epochs, and hosts the sink inside the simulator core;
//! * `mltcp-transport` emits cwnd/ssthresh updates, RTT samples,
//!   RTO/fast-retransmit transitions, and MLTCP gain changes;
//! * `mltcp-workload` emits iteration-phase boundaries and attaches
//!   sinks to scenarios (registering job names);
//! * `mltcp-bench` records traces (`--trace out.jsonl`), snapshots
//!   metrics alongside figure JSON, and inspects traces offline with
//!   the `trace_inspect` binary.
//!
//! ## Determinism contract
//!
//! Sinks **observe** the simulation; they never perturb it. No sink may
//! touch the event queue, the RNG streams, or any simulation state — the
//! [`TelemetrySink::record`] hook receives a borrowed event and returns
//! nothing. An instrumented run is therefore byte-identical (same replay
//! hash) to an uninstrumented one by construction, and the bench suite
//! verifies this property end to end.
//!
//! ## Cost model
//!
//! When no sink is installed the emitting layers pay exactly one
//! predictable branch per would-be event (`Option::is_some` on the sink
//! slot) — events are only *constructed* inside the taken branch, so the
//! disabled path adds no allocation and no formatting work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod profiler;
pub mod sink;

pub use event::{DropReason, EventKind, FaultKind, PhaseKind, RetxKind, TelemetryEvent};
pub use json::Json;
pub use jsonl::{JsonlSink, Trace, TraceError};
pub use metrics::{HistSummary, Histogram, MetricsSink, MetricsSnapshot};
pub use profiler::{ProfileEntry, ProfileSnapshot, SimProfiler};
pub use sink::{take_metrics, NoopSink, RingRecorder, TeeSink, TelemetrySink};
