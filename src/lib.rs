//! # mltcp — a reproduction of "MLTCP: A Distributed Technique to
//! Approximate Centralized Flow Scheduling For Machine Learning"
//! (Rajasekaran, Narang, Zabreyko, Ghobadi — HotNets '24)
//!
//! MLTCP augments a congestion control algorithm so that the flows of
//! periodic DNN training jobs *converge, distributedly, to an interleaved
//! schedule*: each flow scales its window-increase step by a bandwidth
//! aggressiveness function `F(bytes_ratio)` of its progress through the
//! current training iteration (paper Eq. 1/2, Algorithm 1). The unequal
//! sharing shifts the jobs' communication phases apart iteration by
//! iteration — provably a gradient descent on an interleaving loss
//! (paper §4) — until contention disappears.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] (`mltcp-core`) — the pure algorithm: aggressiveness
//!   functions, Algorithm 1 iteration tracking, and the shift/loss/
//!   gradient/noise theory of §4.
//! * [`netsim`] (`mltcp-netsim`) — the deterministic packet-level
//!   network simulator standing in for the paper's GPU testbed.
//! * [`transport`] (`mltcp-transport`) — TCP with pluggable congestion
//!   control: Reno, CUBIC, DCTCP, and the MLTCP wrapper for each.
//! * [`workload`] (`mltcp-workload`) — the periodic DNN job model,
//!   GPT-2/GPT-3 profiles calibrated to the paper's figures, and the
//!   scenario harness.
//! * [`sched`] (`mltcp-sched`) — the baselines: a Cassini-style
//!   centralized interleaving optimizer, pFabric (SRPT), and the §5
//!   multi-resource generalization.
//!
//! ## Quickstart
//!
//! Two GPT-2 training jobs share a 50 Gbps bottleneck; under MLTCP-Reno
//! they interleave within a few iterations:
//!
//! ```
//! use mltcp::prelude::*;
//!
//! let rate = models::paper_bottleneck();
//! let mut b = ScenarioBuilder::new(42);
//! for job in models::gpt2_pack(rate, 1e-3, 8, 2) {
//!     b = b.job(job, CongestionSpec::MltcpReno(FnSpec::Paper));
//! }
//! let mut scenario = b.build();
//! scenario.run(SimTime::from_secs_f64(1.0));
//! assert!(scenario.all_finished());
//! for report in scenario.reports() {
//!     println!("{}: mean iteration {:.3} ms", report.name, report.mean_secs * 1e3);
//! }
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/`
//! for the binaries that regenerate every figure in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mltcp_core as core;
pub use mltcp_netsim as netsim;
pub use mltcp_sched as sched;
pub use mltcp_transport as transport;
pub use mltcp_workload as workload;

/// The things almost every experiment needs, in one import.
pub mod prelude {
    pub use mltcp_core::params::MltcpParams;
    pub use mltcp_netsim::fault::{FaultPlan, GilbertElliott, LossModel};
    pub use mltcp_netsim::link::Bandwidth;
    pub use mltcp_netsim::queue::QueueKind;
    pub use mltcp_netsim::time::{SimDuration, SimTime};
    pub use mltcp_workload::models;
    pub use mltcp_workload::scenario::{
        CongestionSpec, FnSpec, LinkFault, Scenario, ScenarioBuilder,
    };
    pub use mltcp_workload::stats::{speedup_at, IterationStats, JobReport};
    pub use mltcp_workload::{JobSpec, RestartSpec};
}
