//! # mltcp-netsim
//!
//! A deterministic, packet-level, discrete-event network simulator built as
//! the testbed substitute for the MLTCP reproduction (the paper evaluates
//! on an 8×A100 GPU cluster with a 50 Gbps bottleneck; we replace the
//! physical network with this simulator, which models everything MLTCP's
//! mechanism depends on: packet serialization on shared links, switch
//! queueing and drops, ECN marking, propagation delay, and ack clocking).
//!
//! Design follows the smoltcp school: event-driven, no async runtime, no
//! unsafe, simple and robust over clever. The entire simulation is
//! single-threaded and deterministic — the event queue breaks timestamp
//! ties by insertion sequence and all randomness flows through one seeded
//! RNG — so every experiment in the repository is exactly reproducible.
//!
//! ## Architecture
//!
//! * [`time`] — nanosecond-resolution simulated clock types.
//! * [`event`] — the `(time, seq)`-ordered event queue.
//! * [`packet`] — packets with a small transport header (data/ack), ECN
//!   codepoints, and a scheduling priority tag (used by pFabric).
//! * [`queue`] — egress queue disciplines: drop-tail, ECN-marking
//!   drop-tail (DCTCP-style), and strict priority with lowest-priority
//!   drop (pFabric-style).
//! * [`link`] — directed channels with rate, propagation delay, optional
//!   Bernoulli loss, and byte counters.
//! * [`fault`] — deterministic fault injection: scheduled link down/up,
//!   bandwidth brownouts, and Gilbert–Elliott bursty loss.
//! * [`node`] — hosts and switches with static routing tables.
//! * [`topology`] — builders (notably the paper's dumbbell) and BFS route
//!   computation.
//! * [`sim`] — the [`sim::Simulator`] event loop and the [`sim::Agent`]
//!   trait that transport endpoints and workload drivers implement.
//! * [`trace`] — per-flow bandwidth sampling on designated links (used to
//!   regenerate the paper's bandwidth-vs-time figures).
//! * [`rng`] — the seeded deterministic RNG facade.
//!
//! ## Example: two hosts, one link, a blaster and a sink
//!
//! ```
//! use mltcp_netsim::prelude::*;
//!
//! struct Blaster { peer: NodeId, flow: FlowId, pkts: u32 }
//! struct Sink { got: u64 }
//!
//! impl Agent for Blaster {
//!     fn start(&mut self, ctx: &mut AgentCtx<'_>) {
//!         for i in 0..self.pkts {
//!             let seq = u64::from(i) * 1500;
//!             let me = ctx.node();
//!             ctx.send(Packet::data(self.flow, me, self.peer, seq, 1500));
//!         }
//!     }
//!     fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, _pkt: Packet) {}
//! }
//! impl Agent for Sink {
//!     fn on_packet(&mut self, _ctx: &mut AgentCtx<'_>, pkt: Packet) {
//!         self.got += u64::from(pkt.payload_bytes());
//!     }
//! }
//!
//! let mut b = TopologyBuilder::new();
//! let h0 = b.host("h0");
//! let h1 = b.host("h1");
//! b.link(h0, h1, LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(5)));
//! let mut sim = Simulator::new(b.build().unwrap(), 42);
//! let flow = FlowId(1);
//! sim.add_agent(h0, Blaster { peer: h1, flow, pkts: 100 });
//! let sink = sim.add_agent(h1, Sink { got: 0 });
//! sim.bind_flow(flow, sink);
//! sim.run();
//! assert_eq!(sim.agent::<Sink>(sink).got, 100 * 1500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod link;
pub mod node;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

/// Convenient glob-import of the simulator surface.
pub mod prelude {
    pub use crate::fault::{FaultAction, FaultPlan, GilbertElliott, LossModel};
    pub use crate::link::{Bandwidth, LinkId, LinkSpec};
    pub use crate::node::NodeId;
    pub use crate::packet::{EcnCodepoint, FlowId, Packet, SegmentHeader};
    pub use crate::queue::QueueKind;
    pub use crate::sim::{Agent, AgentCtx, AgentId, Simulator};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Topology, TopologyBuilder};
    pub use crate::trace::BandwidthTrace;
}
