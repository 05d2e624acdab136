//! Packets and the minimal transport header used across the stack.
//!
//! The simulator is purpose-built for transport research, so the packet
//! carries a small structured header instead of raw bytes: a data segment
//! (byte-offset sequence number + payload length) or a cumulative ack
//! (with ECN echo, as DCTCP needs). A `priority` tag rides along for the
//! pFabric (remaining bytes) and PIAS (MLFQ level) baselines; FIFO
//! disciplines ignore it.

use crate::node::NodeId;

/// Identifies one unidirectional transport flow (a sender/receiver pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Wire overhead we charge per packet (IPv4 + TCP headers, no options).
pub const HEADER_BYTES: u32 = 40;

/// Default maximum payload per data packet, matching Algorithm 1's
/// `MTU = 1500`.
pub const DEFAULT_MSS: u32 = 1500;

/// ECN codepoint subset the simulator models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EcnCodepoint {
    /// Transport is not ECN-capable: congested queues drop instead of mark.
    #[default]
    NotCapable,
    /// ECN-capable transport, unmarked.
    Capable,
    /// Congestion experienced (marked by a queue).
    CongestionExperienced,
}

impl EcnCodepoint {
    /// Whether a congested queue may mark (rather than drop) this packet.
    pub fn is_capable(self) -> bool {
        !matches!(self, EcnCodepoint::NotCapable)
    }

    /// Whether the mark has been applied.
    pub fn is_marked(self) -> bool {
        matches!(self, EcnCodepoint::CongestionExperienced)
    }
}

/// The transport header: either a data segment or a cumulative ack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentHeader {
    /// A data segment carrying `len` payload bytes starting at byte
    /// offset `seq` of the flow.
    Data {
        /// First payload byte's offset within the flow.
        seq: u64,
        /// Payload length in bytes.
        len: u32,
    },
    /// A cumulative acknowledgment: all bytes below `cum_ack` received.
    Ack {
        /// Next expected byte offset.
        cum_ack: u64,
        /// ECN-echo: the receiver saw a CE mark on the acked segment
        /// (DCTCP-style per-packet echo).
        ecn_echo: bool,
    },
}

/// A simulated packet.
///
/// All fields are plain values, so the packet is `Copy`: a delivery
/// carries it inline on its link's rail (see [`crate::event`]) and hands
/// it to the dispatcher with a memcpy instead of a clone call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// The flow this packet belongs to. Acks use the *data* flow's id so
    /// both directions share accounting.
    pub flow: FlowId,
    /// Origin host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Total wire size in bytes (payload + [`HEADER_BYTES`]); this is what
    /// serializes on links.
    pub wire_bytes: u32,
    /// Transport header.
    pub header: SegmentHeader,
    /// ECN state.
    pub ecn: EcnCodepoint,
    /// Scheduling priority tag; *lower is more urgent*. pFabric sets this
    /// to the flow's remaining bytes, PIAS to the MLFQ level. FIFO queues
    /// ignore it.
    pub priority: u64,
}

impl Packet {
    /// Builds a data packet of `len` payload bytes at offset `seq`.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, len: u32) -> Self {
        Packet {
            flow,
            src,
            dst,
            wire_bytes: len + HEADER_BYTES,
            header: SegmentHeader::Data { seq, len },
            ecn: EcnCodepoint::NotCapable,
            priority: 0,
        }
    }

    /// Builds a (header-only) cumulative ack.
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, cum_ack: u64, ecn_echo: bool) -> Self {
        Packet {
            flow,
            src,
            dst,
            wire_bytes: HEADER_BYTES,
            header: SegmentHeader::Ack { cum_ack, ecn_echo },
            ecn: EcnCodepoint::NotCapable,
            priority: 0,
        }
    }

    /// Payload byte count (zero for acks).
    pub fn payload_bytes(&self) -> u32 {
        match self.header {
            SegmentHeader::Data { len, .. } => len,
            SegmentHeader::Ack { .. } => 0,
        }
    }

    /// Whether this is a data segment.
    pub fn is_data(&self) -> bool {
        matches!(self.header, SegmentHeader::Data { .. })
    }

    /// Whether this is an ack.
    pub fn is_ack(&self) -> bool {
        matches!(self.header, SegmentHeader::Ack { .. })
    }

    /// Sets the ECN capability (builder style).
    pub fn with_ecn(mut self, ecn: EcnCodepoint) -> Self {
        self.ecn = ecn;
        self
    }

    /// Sets the scheduling priority tag (builder style).
    pub fn with_priority(mut self, priority: u64) -> Self {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn data_packet_accounting() {
        let p = Packet::data(FlowId(1), n(0), n(1), 3000, 1500);
        assert_eq!(p.wire_bytes, 1540);
        assert_eq!(p.payload_bytes(), 1500);
        assert!(p.is_data());
        assert!(!p.is_ack());
    }

    #[test]
    fn ack_packet_accounting() {
        let p = Packet::ack(FlowId(1), n(1), n(0), 4500, true);
        assert_eq!(p.wire_bytes, HEADER_BYTES);
        assert_eq!(p.payload_bytes(), 0);
        assert!(p.is_ack());
        match p.header {
            SegmentHeader::Ack { cum_ack, ecn_echo } => {
                assert_eq!(cum_ack, 4500);
                assert!(ecn_echo);
            }
            _ => panic!("expected ack header"),
        }
    }

    #[test]
    fn ecn_codepoints() {
        assert!(!EcnCodepoint::NotCapable.is_capable());
        assert!(EcnCodepoint::Capable.is_capable());
        assert!(EcnCodepoint::CongestionExperienced.is_capable());
        assert!(EcnCodepoint::CongestionExperienced.is_marked());
        assert!(!EcnCodepoint::Capable.is_marked());
    }

    #[test]
    fn builder_style() {
        let p = Packet::data(FlowId(2), n(0), n(1), 0, 100)
            .with_ecn(EcnCodepoint::Capable)
            .with_priority(77);
        assert_eq!(p.ecn, EcnCodepoint::Capable);
        assert_eq!(p.priority, 77);
    }
}
