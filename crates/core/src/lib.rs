//! OmniReduce core: sparse-aware streaming AllReduce.
//!
//! This crate implements the paper's contribution — worker and aggregator
//! engines that aggregate only the non-zero blocks of the input tensors,
//! coordinated by a look-ahead "next non-zero block" exchange:
//!
//! * [`protocol`] — Algorithm 1 itself, once: the sans-IO
//!   [`protocol::WorkerRound`] (per-column next-non-zero look-ahead) and
//!   [`protocol::SlotTable`] (`cur < min(next)` slot completion). Every
//!   lossless engine below is a driver around these two.
//! * [`worker::OmniWorker`] / [`aggregator::OmniAggregator`] — Algorithm 1
//!   with Block Fusion (§3.2) and parallel streams (§3.1.1), for reliable
//!   transports (the paper's RDMA RC mode). Over a
//!   [`omnireduce_transport::ShardBond`] the same worker serves a
//!   multi-aggregator deployment ([`shard`], §4).
//! * [`recovery::RecoveryWorker`] / [`recovery::RecoveryAggregator`] —
//!   Algorithm 2 with acknowledgments, retransmission timers and
//!   two-phase versioned slots, for lossy transports (the paper's
//!   DPDK/UDP mode, Appendix A).
//! * [`kv::KvWorker`] / [`kv::KvAggregator`] — Algorithm 3, the sparse
//!   key-value block format (§3.3).
//! * [`switch`] — the same slot table under programmable-switch
//!   constraints (§7: bounded slots, fixed-point arithmetic, small
//!   payloads), demonstrating the in-network offload.
//! * [`hierarchical`] — two-layer aggregation for multi-GPU servers (§5):
//!   intra-server reduction + inter-server OmniReduce.
//! * [`sim`] — [`omnireduce_simnet`] actors that drive
//!   [`protocol::WorkerRound`] / [`protocol::SlotTable`] with a byte count
//!   for a payload, used by the benchmark harness to reproduce the
//!   paper's timing figures on simulated 10/100 Gbps fabrics;
//!   [`sim_recovery`] adds the Algorithm 2 actors with simulated timers
//!   over a lossy fabric.
//! * [`staging`] — the Appendix B chunk-prefetch pipeline that overlaps
//!   the GPU→host copy with transmission on the non-GDR path.
//! * [`collective`] — AllGather and Broadcast expressed on the same
//!   machinery (§7, "Generalized collective operations").
//! * [`tenant`] — a long-running multi-tenant aggregation service:
//!   stream-tagged frames demultiplex many concurrent jobs over one
//!   shard fleet, with capacity-based admission, weighted-fair slot
//!   scheduling and per-tenant telemetry/quota isolation.

pub mod aggregator;
pub mod collective;
pub mod config;
pub mod error;
pub mod group;
pub mod hierarchical;
mod instrument;
pub mod kv;
pub mod layout;
pub mod protocol;
pub mod recovery;
pub mod shard;
pub mod sim;
pub mod sim_hierarchical;
pub mod sim_recovery;
pub mod slot;
pub mod staging;
pub mod switch;
pub mod tenant;
pub mod testing;
pub mod wire;
pub mod worker;

pub use aggregator::OmniAggregator;
pub use config::{DegradedMode, OmniConfig};
pub use error::ProtocolError;
pub use kv::{KvAggregator, KvConfig, KvWorker};
pub use layout::StreamLayout;
pub use recovery::{RecoveryAggregator, RecoveryAggregatorStats, RecoveryStats, RecoveryWorker};
pub use shard::{ShardMap, ShardedAllReduce};
pub use slot::ColAccumulator;
pub use tenant::{
    AdmissionError, JobRegistry, SlotScheduler, TenantEngine, TenantHandle, TenantService,
    TenantSpec, WfqState,
};
pub use worker::{OmniWorker, WorkerStats};
