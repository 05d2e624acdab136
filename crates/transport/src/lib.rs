//! # mltcp-transport
//!
//! TCP sender/receiver state machines for `mltcp-netsim`, with pluggable
//! congestion control modelled on Linux's `tcp_congestion_ops` — the hook
//! surface the paper uses to deploy MLTCP ("we implement MLTCP-Reno in the
//! Linux kernel using the pluggable congestion module").
//!
//! ## What is modelled
//!
//! * **Sender** ([`sender::TcpSender`]): window-based transmission,
//!   cumulative-ack processing, duplicate-ack counting with fast
//!   retransmit, go-back-N loss recovery (three duplicate acks or an RTO
//!   rewind `snd_nxt` to `snd_una`, and the window resends from there),
//!   RTO with exponential backoff (RFC 6298 estimator in [`rtt`]), Karn's
//!   algorithm for RTT samples, and application-commanded transfers (the
//!   workload driver starts one transfer per training iteration).
//! * **Receiver** ([`receiver::TcpReceiver`]): cumulative acks over an
//!   out-of-order reassembly buffer, per-packet ECN echo (as DCTCP needs).
//! * **Congestion control** ([`cc`]): Reno, CUBIC, and DCTCP, plus the
//!   MLTCP augmentation [`cc::mltcp::Mltcp`] which wraps *any* base
//!   algorithm and scales its congestion-avoidance window increase by the
//!   bandwidth aggressiveness function `F(bytes_ratio)` (paper Eq. 1 /
//!   Algorithm 1).
//!
//! ## What is deliberately simplified
//!
//! No SACK (go-back-N recovery is enough for drop-tail dynamics), no
//! flow-control window (receivers sink at line rate), no handshake or
//! teardown (connections are pre-installed), and no delayed acks (every
//! data packet is acked, which also matches DCTCP's per-packet ECN echo
//! mode). None of these affect the bandwidth-sharing dynamics MLTCP
//! relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod connection;
pub mod proto;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use cc::{CongestionControl, Window};
pub use connection::{install_connection, ConnectionHandles};
pub use receiver::TcpReceiver;
pub use sender::{SenderConfig, TcpSender};
