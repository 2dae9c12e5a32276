//! Transport substrate for the OmniReduce reproduction.
//!
//! The paper runs its protocol over three network stacks — DPDK/UDP (lossy,
//! with the Appendix A recovery protocol), RDMA RoCE v2 in Reliable
//! Connected mode, and GPU-direct RDMA. This crate provides the equivalent
//! substrate for a commodity Linux box:
//!
//! * [`message`] — the OmniReduce packet vocabulary (Algorithms 1–3 and the
//!   Block Fusion variant) as plain Rust types.
//! * [`codec`] — a hand-rolled, little-endian wire format
//!   (fixed header + per-entry payload), mirroring the paper's
//!   metadata-in-immediate-value encoding at message granularity.
//! * [`channel`] — an in-process mesh of crossbeam channels: the reliable,
//!   in-order transport (the stand-in for RDMA RC mode) used by unit and
//!   property tests and by single-process examples.
//! * [`tcp`] — a real TCP mesh with length-prefixed framing, for running
//!   workers and aggregators as separate OS processes or threads across
//!   sockets. No reader threads: each endpoint is a single-owner
//!   readiness loop over non-blocking sockets, turned from inside
//!   `recv` / `recv_timeout` by the engine's own thread, and a burst of
//!   sends leaves in one `write` per peer.
//! * [`udp`] — a real UDP mesh (one frame per datagram): the commodity
//!   equivalent of the paper's DPDK environment, for the Algorithm 2
//!   recovery engines that own their reliability.
//! * [`fault`] — a seeded fault plan (replay-stable loss and duplication,
//!   crashes, partitions, stragglers) wrapped around channel or UDP
//!   endpoints: it exercises the Algorithm 2 retransmission machinery
//!   (the stand-in for the lossy DPDK environment of Appendix A/D).
//! * [`timer`] — a monotonic timer queue for retransmission timeouts.
//!
//! Everything is synchronous and event-driven: protocol engines block on
//! [`Transport::recv_timeout`] and drive their own state machines, in the
//! style of smoltcp rather than of an async runtime. This keeps hot paths
//! allocation-light and the whole workspace free of a runtime dependency.
//! The TCP endpoint takes the style all the way down: the socket I/O
//! itself happens inside those calls, on the caller's thread (`sys` binds
//! `ppoll`, the one system call this takes that `std` does not wrap).

pub mod channel;
pub mod codec;
pub mod fault;
#[cfg(test)]
mod lossy;
pub mod message;
pub mod pool;
pub mod shard;
mod sys;
pub mod tcp;
pub mod timer;
pub mod udp;

pub use channel::ChannelNetwork;
pub use fault::{ChaosNetwork, ChaosTransport, FaultPlan, GilbertElliott, KeyedLoss};
pub use message::{
    CheckpointDelta, Entry, KvPacket, Message, NodeId, Packet, PacketKind, MEMBERSHIP_ONLY,
};
pub use pool::BufferPool;
pub use shard::{ShardBond, ShardedMesh};
pub use tcp::TcpNetwork;
pub use udp::UdpNetwork;

use std::time::Duration;

/// Errors surfaced by transports.
#[derive(Debug)]
pub enum TransportError {
    /// The peer (or the whole network) has shut down.
    Disconnected,
    /// An I/O error from the OS transport.
    Io(std::io::Error),
    /// A frame failed to decode.
    Codec(codec::CodecError),
    /// The destination node id is unknown to this network.
    UnknownPeer(NodeId),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Io(e) => write!(f, "i/o error: {e}"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::UnknownPeer(id) => write!(f, "unknown peer {id:?}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<codec::CodecError> for TransportError {
    fn from(e: codec::CodecError) -> Self {
        TransportError::Codec(e)
    }
}

/// A bidirectional, message-oriented endpoint belonging to one node of a
/// fixed mesh. Implementations must be usable from a single protocol
/// thread; where the implementation is `Sync`, `send` may be called while
/// another thread blocks in `recv`. Every engine owns its endpoint and
/// drives it from one thread, and [`tcp::TcpTransport`] is not `Sync`.
pub trait Transport: Send {
    /// This endpoint's node id.
    fn local_id(&self) -> NodeId;

    /// Sends `msg` to `peer`. Reliable transports either deliver or
    /// return an error; UDP and a [`ChaosTransport`] may silently drop.
    fn send(&self, peer: NodeId, msg: &Message) -> Result<(), TransportError>;

    /// Blocks until a message arrives, returning `(sender, message)`.
    fn recv(&self) -> Result<(NodeId, Message), TransportError>;

    /// Waits up to `timeout` for a message; `Ok(None)` on timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(NodeId, Message)>, TransportError>;

    /// Sends `msg` to every peer in `peers` (the aggregator's multicast of
    /// result packets, Algorithm 1 line 27).
    fn multicast(&self, peers: &[NodeId], msg: &Message) -> Result<(), TransportError> {
        for p in peers {
            self.send(*p, msg)?;
        }
        Ok(())
    }
}
