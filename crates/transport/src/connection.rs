//! Convenience wiring of a sender/receiver pair into a simulator.

use crate::cc::CongestionControl;
use crate::receiver::TcpReceiver;
use crate::sender::{SenderConfig, TcpSender};
use mltcp_netsim::node::NodeId;
use mltcp_netsim::packet::FlowId;
use mltcp_netsim::sim::{AgentId, Simulator};

/// The agent ids of an installed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionHandles {
    /// The sender endpoint.
    pub sender: AgentId,
    /// The receiver endpoint.
    pub receiver: AgentId,
    /// The flow id shared by both.
    pub flow: FlowId,
}

/// Installs a one-directional TCP connection `src → dst` with the given
/// congestion controller: adds the sender, then the receiver, then binds
/// the flow at both hosts in that order. The returned sender accepts
/// [`crate::proto::Msg::StartTransfer`] messages.
pub fn install_connection(
    sim: &mut Simulator,
    src: NodeId,
    dst: NodeId,
    cfg: SenderConfig,
    cc: Box<dyn CongestionControl>,
) -> ConnectionHandles {
    assert_eq!(cfg.dst, dst, "config destination must match dst host");
    let flow = cfg.flow;
    let sender = sim.add_agent(src, TcpSender::new(cfg, cc));
    let receiver = sim.add_agent(dst, TcpReceiver::new(flow));
    sim.bind_flow(flow, sender); // acks arrive at src
    sim.bind_flow(flow, receiver); // data arrives at dst
    ConnectionHandles {
        sender,
        receiver,
        flow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::Reno;
    use mltcp_netsim::prelude::*;

    #[test]
    fn install_binds_both_ends() {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        b.link(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)),
        );
        let mut sim = Simulator::new(b.build().unwrap(), 0);
        let cfg = SenderConfig::new(FlowId(7), h1);
        let h = install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
        assert_eq!(h.flow, FlowId(7));
        assert_ne!(h.sender, h.receiver);
    }

    #[test]
    #[should_panic(expected = "destination must match")]
    fn mismatched_destination_panics() {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let h2 = b.host("h2");
        b.link(
            h0,
            h1,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)),
        );
        b.link(
            h1,
            h2,
            LinkSpec::new(Bandwidth::gbps(10), SimDuration::micros(10)),
        );
        let mut sim = Simulator::new(b.build().unwrap(), 0);
        let cfg = SenderConfig::new(FlowId(7), h2);
        install_connection(&mut sim, h0, h1, cfg, Box::new(Reno::new()));
    }
}
