//! # mltcp-sched
//!
//! The flow-scheduling baselines the paper compares MLTCP against, plus
//! the §5 multi-resource generalization:
//!
//! * [`cassini`] — a centralized interleaving scheduler in the spirit of
//!   Cassini (Rajasekaran et al., NSDI '24). On a single bottleneck the
//!   ILP reduces to choosing start-time offsets for the jobs' periodic
//!   communication phases; a greedy grid placement plus coordinate
//!   descent searches them for minimal excess demand (a heuristic, not
//!   a certified ILP optimum).
//! * [`pfabric`] — the pFabric (SIGCOMM '13) design point: switches do
//!   shortest-remaining-size-first with priority queues + lowest-priority
//!   drop; senders run a minimal, aggressive transport.
//! * [`multires`] — the paper's §5 sketch: the aggressiveness function
//!   generalized to CPU-core scheduling via job *progress*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cassini;
pub mod multires;
pub mod pfabric;

pub use cassini::{optimize_offsets, InterleavedSchedule};
