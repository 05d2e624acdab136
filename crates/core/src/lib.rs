//! # mltcp-core
//!
//! The algorithmic heart of **MLTCP** (Rajasekaran et al., HotNets '24):
//! a distributed technique that augments congestion control so the flows of
//! periodic DNN training jobs converge to an *interleaved* schedule —
//! approximating a centralized (Cassini-style) flow schedule with no
//! controller, no priority queues, and no switch support.
//!
//! This crate is intentionally free of any simulator or transport
//! dependency: it contains only the pure algorithm and its theory, so it can
//! be dropped into a real stack, a simulator (see `mltcp-transport` /
//! `mltcp-netsim`), or analyzed standalone.
//!
//! ## Contents
//!
//! * [`aggressiveness`] — [`FnSpec`], the bandwidth aggressiveness
//!   function `F(bytes_ratio)`: the paper's line (Eq. 2), the six
//!   candidate functions of Fig. 3, any valid line and a constant.
//! * [`tracker`] — per-flow iteration state of Algorithm 1:
//!   `bytes_sent`, ack-gap iteration-boundary detection, `bytes_ratio`,
//!   and online learning of `TOTAL_BYTES` / `COMP_TIME`.
//! * [`shift`] — the closed-form `Shift(Δ)` of Eq. 3 describing how MLTCP
//!   moves the start-time difference of two competing jobs each iteration.
//! * [`loss`] — the convergence loss `Loss(Δ) = -∫ Shift dΔ` of Eq. 4,
//!   in closed form and by numeric quadrature.
//! * [`gradient`] — the iteration map `Δ_{i+1} = Δ_i + Shift(Δ_i)` and its
//!   interpretation as gradient descent; convergence detection.
//! * [`noise`] — the zero-mean Gaussian perturbation model of §4 and the
//!   predicted steady-state error `2σ(1 + Intercept/Slope)`.
//! * [`schedule`] — interleaving metrics over sets of periodic jobs:
//!   demand profiles, contention, the compatibility condition under which
//!   a fully interleaved schedule exists.
//!
//! ## Quick taste
//!
//! ```
//! use mltcp_core::aggressiveness::FnSpec;
//! use mltcp_core::tracker::{IterationTracker, TrackerConfig};
//! use mltcp_core::MltcpParams;
//!
//! // The paper's default F: 1.75 * bytes_ratio + 0.25.
//! let f = FnSpec::Paper;
//! assert_eq!(f.eval(0.0), 0.25);
//! assert_eq!(f.eval(1.0), 2.0);
//! assert_eq!(FnSpec::Linear(MltcpParams::PAPER).eval(0.4), f.eval(0.4));
//!
//! // Algorithm 1 bookkeeping: 1 MB per iteration, 100 ms compute gap.
//! let mut t = IterationTracker::new(TrackerConfig::oracle(1_000_000, 100_000_000));
//! let r = t.on_ack(1_000_000, 1500); // ts = 1 ms (ns), one MTU acked
//! assert!(r > 0.0 && r < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggressiveness;
pub mod gradient;
pub mod loss;
pub mod noise;
pub mod params;
pub mod schedule;
pub mod shift;
pub mod tracker;

pub use aggressiveness::FnSpec;
pub use params::MltcpParams;
pub use tracker::{IterationTracker, TrackerConfig};
