//! # OmniReduce in Rust
//!
//! A from-scratch reproduction of *"Efficient Sparse Collective
//! Communication and its application to Accelerate Distributed Deep
//! Learning"* (Fei, Ho, Sahu, Canini, Sapio — SIGCOMM 2021).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`tensor`] — dense/sparse tensor formats, blocks, bitmaps, statistics.
//! * [`transport`] — wire format, channel/TCP/UDP transports and fault
//!   injection.
//! * [`simnet`] — packet-level discrete-event network simulator.
//! * [`collectives`] — baseline collectives (ring, AGsparse, SparCML, PS,
//!   streaming dense aggregation) and analytic cost models.
//! * [`core`] — the OmniReduce worker/aggregator protocol engines.
//! * [`sparsify`] — block-based gradient sparsification with error feedback.
//! * [`workloads`] — synthetic models of the paper's six DNN workloads.
//! * [`ddl`] — a data-parallel SGD trainer for convergence experiments.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture
//! and the per-experiment index.

pub use omnireduce_collectives as collectives;
pub use omnireduce_core as core;
pub use omnireduce_ddl as ddl;
pub use omnireduce_simnet as simnet;
pub use omnireduce_sparsify as sparsify;
pub use omnireduce_telemetry as telemetry;
pub use omnireduce_tensor as tensor;
pub use omnireduce_transport as transport;
pub use omnireduce_workloads as workloads;
