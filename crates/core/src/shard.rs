//! Multi-aggregator sharding (§4): block-index round-robin across N
//! parallel aggregator engines, each on its own OS thread.
//!
//! The paper scales aggregation bandwidth by running several aggregator
//! processes and assigning blocks to them round-robin by block index.
//! This reproduction expresses the assignment through the stream
//! geometry: block `b` belongs to stream `(b / w) % T` (width `w`,
//! `T = streams_per_shard × num_aggregators` total streams), and stream
//! `g` belongs to shard `g % num_aggregators`. Because the aggregator
//! count always divides `T`, the composition collapses — with `w = 1`,
//! `shard_of_block(b) = b % num_aggregators`, exactly the paper's
//! round-robin; with Block Fusion the unit of assignment becomes the
//! fused row, preserving the same interleaving at row granularity.
//! [`ShardMap`] makes the mapping first-class and testable.
//!
//! * Sharding adds no worker engine: a sharded worker is the ordinary
//!   [`OmniWorker`] (or [`RecoveryWorker`]) over a
//!   [`omnireduce_transport::ShardBond`] — **one transport lane per
//!   shard** behind one `Transport`, polled fairly. The engines keep
//!   their traffic counters per shard, which feeds the wire-byte
//!   differential suite; a round finishes when every stream has, and a
//!   shard owning no blocks (possible for short tensors) owns no stream,
//!   so it is never waited on.
//! * [`ShardedAllReduce`] deploys the whole group — N aggregator
//!   engines and M workers on real OS threads — for the lossless and
//!   the Algorithm 2 recovery engines, with optional per-shard fault
//!   plans ([`omnireduce_transport::ShardedMesh::chaos`]).
//!
//! **Determinism.** Every block is owned by exactly one shard, and
//! workers write result blocks into disjoint tensor ranges, so
//! cross-shard thread interleaving cannot affect *which* values land
//! where. With [`OmniConfig::deterministic`] each shard reduces every
//! block in worker-id order (§7), so the bits of each block are also
//! interleaving-independent: a sharded run's output is bit-identical to
//! the single-aggregator reference. The conformance suite asserts this
//! across seeded interleavings (DESIGN §10).

use std::thread;

use omnireduce_tensor::{BlockIdx, Tensor};
use omnireduce_transport::{FaultPlan, ShardBond, ShardedMesh, Transport, TransportError};

use omnireduce_telemetry::Telemetry;

use crate::aggregator::{AggregatorStats, OmniAggregator};
use crate::config::OmniConfig;
use crate::error::ProtocolError;
use crate::layout::StreamLayout;
use crate::recovery::{RecoveryAggregator, RecoveryAggregatorStats, RecoveryStats, RecoveryWorker};
use crate::worker::{OmniWorker, WorkerStats};

/// The block → shard assignment induced by the stream geometry.
#[derive(Debug, Clone, Copy)]
pub struct ShardMap {
    layout: StreamLayout,
    num_shards: usize,
}

impl ShardMap {
    /// Builds the map for a config (shard count =
    /// [`OmniConfig::num_aggregators`]).
    pub fn new(cfg: &OmniConfig) -> Self {
        let layout = StreamLayout::new(
            cfg.block_spec(),
            cfg.fusion,
            cfg.total_streams(),
            cfg.tensor_len,
        );
        Self::from_layout(layout, cfg.num_aggregators)
    }

    /// Builds the map from an explicit layout. `num_shards` must divide
    /// the layout's stream count (the config builder guarantees this).
    pub fn from_layout(layout: StreamLayout, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            layout.total_streams() % num_shards,
            0,
            "shard count must divide the stream count"
        );
        ShardMap { layout, num_shards }
    }

    /// Number of shards (aggregators).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The stream geometry the map derives from.
    pub fn layout(&self) -> &StreamLayout {
        &self.layout
    }

    /// Shard owning stream `g`.
    pub fn shard_of_stream(&self, g: usize) -> usize {
        g % self.num_shards
    }

    /// Shard owning block `b`: round-robin by fused row. With fusion
    /// width 1 this is exactly the paper's `b % num_aggregators`.
    pub fn shard_of_block(&self, b: BlockIdx) -> usize {
        self.shard_of_stream(self.layout.stream_of(b))
    }

    /// The streams shard `s` owns (active or not).
    pub fn streams_of(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(s < self.num_shards, "shard out of range");
        (s..self.layout.total_streams()).step_by(self.num_shards)
    }

    /// Number of *active* streams (streams owning ≥ 1 block) shard `s`
    /// serves. Streams past the end of a short tensor own nothing.
    pub fn active_streams_of(&self, s: usize) -> usize {
        self.streams_of(s)
            .filter(|&g| self.layout.first_block(g, 0).is_some())
            .count()
    }

    /// True when shard `s` owns no blocks at all — its block range is
    /// entirely absent, so it must complete every round immediately.
    pub fn is_empty(&self, s: usize) -> bool {
        self.active_streams_of(s) == 0
    }
}

/// Result of a sharded lossless deployment.
pub struct ShardedRunResult {
    /// `outputs[w][r]` = worker `w`'s tensor after round `r`.
    pub outputs: Vec<Vec<Tensor>>,
    /// Per-worker aggregate traffic counters.
    pub stats: Vec<WorkerStats>,
    /// `shard_bytes[w][s]` = wire bytes worker `w` sent to shard `s`.
    pub shard_bytes: Vec<Vec<u64>>,
    /// Per-shard aggregator counters (index = shard).
    pub agg_stats: Vec<AggregatorStats>,
}

/// Result of a sharded recovery deployment on a healthy mesh.
pub struct ShardedRecoveryResult {
    /// `outputs[w][r]` = worker `w`'s tensor after round `r`.
    pub outputs: Vec<Vec<Tensor>>,
    /// Per-worker recovery counters.
    pub stats: Vec<RecoveryStats>,
    /// `shard_bytes[w][s]` = wire bytes worker `w` sent to shard `s`.
    pub shard_bytes: Vec<Vec<u64>>,
    /// Per-shard recovery-aggregator counters.
    pub agg_stats: Vec<RecoveryAggregatorStats>,
}

/// One worker's outcome under a sharded chaos deployment.
pub struct ShardedChaosWorker {
    /// `Ok` when every round completed; typed protocol error otherwise.
    pub result: Result<(), ProtocolError>,
    /// Recovery counters up to completion or failure.
    pub stats: RecoveryStats,
    /// Wire bytes sent per shard.
    pub shard_bytes: Vec<u64>,
    /// The tensor after the last attempted round.
    pub output: Tensor,
    /// Outcome of the wind-down goodbye fan-out (best effort on a
    /// faulted fabric, but never silently discarded).
    pub shutdown: Result<(), TransportError>,
}

/// Outcome of a sharded recovery deployment under per-shard fault plans.
pub struct ShardedChaosOutcome {
    /// Per-worker outcomes (no panics — failures are data).
    pub workers: Vec<ShardedChaosWorker>,
    /// Per-shard aggregator results and counters.
    pub aggs: Vec<(Result<(), ProtocolError>, RecoveryAggregatorStats)>,
    /// Per-shard hot-standby results and counters (empty unless
    /// [`OmniConfig::hot_standby`]).
    pub standbys: Vec<(Result<(), ProtocolError>, RecoveryAggregatorStats)>,
}

/// Deploys sharded groups: N aggregator engines + M workers, each on
/// its own OS thread, over per-shard channel meshes.
pub struct ShardedAllReduce;

impl ShardedAllReduce {
    /// Runs `inputs[w]` rounds of the **lossless** engine over
    /// `cfg.num_aggregators` shards.
    ///
    /// # Panics
    /// Panics when shapes don't match the config or any thread fails.
    pub fn run(cfg: &OmniConfig, inputs: Vec<Vec<Tensor>>) -> ShardedRunResult {
        let mut mesh = ShardedMesh::channels(cfg.num_workers, cfg.num_aggregators, false);
        let bonds = (0..cfg.num_workers).map(|w| mesh.worker_bond(w)).collect();
        let aggs = (0..cfg.num_aggregators)
            .map(|s| mesh.aggregator_endpoint(s))
            .collect();
        Self::run_lossless_over(cfg, inputs, bonds, aggs, None)
    }

    /// Like [`ShardedAllReduce::run`], but attaches every engine to
    /// `telemetry`, so runs record flight events (and registry counters)
    /// for offline attribution.
    pub fn run_traced(
        cfg: &OmniConfig,
        inputs: Vec<Vec<Tensor>>,
        telemetry: &Telemetry,
    ) -> ShardedRunResult {
        let mut mesh = ShardedMesh::channels(cfg.num_workers, cfg.num_aggregators, false);
        let bonds = (0..cfg.num_workers).map(|w| mesh.worker_bond(w)).collect();
        let aggs = (0..cfg.num_aggregators)
            .map(|s| mesh.aggregator_endpoint(s))
            .collect();
        Self::run_lossless_over(cfg, inputs, bonds, aggs, Some(telemetry))
    }

    /// Like [`ShardedAllReduce::run`], but wraps shard `s`'s mesh in
    /// `plans[s]`. Intended for *reliability-preserving* plans
    /// (stragglers, delays): the lossless engine has no retransmission,
    /// so plans that drop data packets will wedge it.
    pub fn run_with_plans(
        cfg: &OmniConfig,
        plans: &[FaultPlan],
        inputs: Vec<Vec<Tensor>>,
    ) -> ShardedRunResult {
        assert_eq!(plans.len(), cfg.num_aggregators, "one plan per shard");
        let mut mesh = ShardedMesh::chaos(cfg.num_workers, plans, false, None);
        let bonds = (0..cfg.num_workers).map(|w| mesh.worker_bond(w)).collect();
        let aggs = (0..cfg.num_aggregators)
            .map(|s| mesh.aggregator_endpoint(s))
            .collect();
        Self::run_lossless_over(cfg, inputs, bonds, aggs, None)
    }

    fn run_lossless_over<T: Transport + 'static>(
        cfg: &OmniConfig,
        inputs: Vec<Vec<Tensor>>,
        worker_bonds: Vec<ShardBond<T>>,
        agg_endpoints: Vec<T>,
        telemetry: Option<&Telemetry>,
    ) -> ShardedRunResult {
        assert_eq!(inputs.len(), cfg.num_workers, "one input set per worker");
        let rounds = inputs[0].len();
        for i in &inputs {
            assert_eq!(i.len(), rounds, "same round count per worker");
        }

        let mut agg_handles = Vec::new();
        for (s, t) in agg_endpoints.into_iter().enumerate() {
            let cfg = cfg.clone();
            let telemetry = telemetry.cloned();
            agg_handles.push(
                thread::Builder::new()
                    .name(format!("shard{s}-aggregator"))
                    .spawn(move || {
                        let mut agg = match &telemetry {
                            Some(tl) => OmniAggregator::with_telemetry(t, cfg, tl),
                            None => OmniAggregator::new(t, cfg),
                        };
                        agg.run().expect("aggregator failed");
                        agg.stats
                    })
                    .expect("failed to spawn aggregator thread"),
            );
        }

        let mut worker_handles = Vec::new();
        for (w, (bond, tensors)) in worker_bonds.into_iter().zip(inputs).enumerate() {
            let cfg = cfg.clone();
            let telemetry = telemetry.cloned();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("sharded-worker{w}"))
                    .spawn(move || {
                        let mut worker = match &telemetry {
                            Some(tl) => OmniWorker::with_telemetry(bond, cfg, tl),
                            None => OmniWorker::new(bond, cfg),
                        };
                        let mut outs = Vec::with_capacity(tensors.len());
                        let mut failure = None;
                        for mut tensor in tensors {
                            match worker.allreduce(&mut tensor) {
                                Ok(()) => outs.push(tensor),
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                        let stats = worker.stats();
                        let shard_bytes = worker.shard_bytes();
                        // Goodbyes go out even after a failed round: an
                        // aborting worker must not keep the *surviving*
                        // shards (or, through the tenant service,
                        // another tenant's lanes) waiting forever for a
                        // wind-down that would never come.
                        let shutdown = worker.shutdown();
                        if let Some(e) = failure {
                            panic!("allreduce failed: {e:?}");
                        }
                        shutdown.expect("shutdown failed");
                        (outs, stats, shard_bytes)
                    })
                    .expect("failed to spawn worker thread"),
            );
        }

        let mut outputs = Vec::new();
        let mut stats = Vec::new();
        let mut shard_bytes = Vec::new();
        for h in worker_handles {
            let (o, s, b) = h.join().expect("worker thread panicked");
            outputs.push(o);
            stats.push(s);
            shard_bytes.push(b);
        }
        let agg_stats = agg_handles
            .into_iter()
            .map(|h| h.join().expect("aggregator thread panicked"))
            .collect();
        ShardedRunResult {
            outputs,
            stats,
            shard_bytes,
            agg_stats,
        }
    }

    /// Runs the **Algorithm 2 recovery** engine sharded: every worker
    /// holds per-shard endpoints bonded by
    /// [`omnireduce_transport::ShardBond`], every shard runs its own
    /// [`RecoveryAggregator`] thread.
    ///
    /// # Panics
    /// Panics when any worker fails — use
    /// [`ShardedAllReduce::run_recovery_chaos`] when failure is the
    /// point.
    pub fn run_recovery(cfg: &OmniConfig, inputs: Vec<Vec<Tensor>>) -> ShardedRecoveryResult {
        assert_eq!(inputs.len(), cfg.num_workers, "one input set per worker");
        let mut mesh = ShardedMesh::channels(cfg.num_workers, cfg.num_aggregators, false);

        let mut agg_handles = Vec::new();
        for s in 0..cfg.num_aggregators {
            let t = mesh.aggregator_endpoint(s);
            let cfg = cfg.clone();
            agg_handles.push(
                thread::Builder::new()
                    .name(format!("shard{s}-aggregator"))
                    .spawn(move || {
                        let mut agg = RecoveryAggregator::new(t, cfg);
                        agg.run().expect("aggregator failed");
                        agg.stats
                    })
                    .expect("failed to spawn aggregator thread"),
            );
        }

        let mut worker_handles = Vec::new();
        for (w, tensors) in inputs.into_iter().enumerate() {
            let bond = mesh.worker_bond(w);
            let cfg = cfg.clone();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("sharded-worker{w}"))
                    .spawn(move || {
                        let mut worker = RecoveryWorker::new(bond, cfg);
                        let mut outs = Vec::with_capacity(tensors.len());
                        let mut failure = None;
                        for mut tensor in tensors {
                            match worker.allreduce(&mut tensor) {
                                Ok(()) => outs.push(tensor),
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                        let stats = worker.stats();
                        let shard_bytes = worker.shard_bytes().to_vec();
                        // Same wind-down discipline as the lossless
                        // harness: goodbyes before the panic.
                        let shutdown = worker.shutdown();
                        if let Some(e) = failure {
                            panic!("allreduce failed: {e:?}");
                        }
                        shutdown.expect("shutdown failed");
                        (outs, stats, shard_bytes)
                    })
                    .expect("failed to spawn worker thread"),
            );
        }

        let mut outputs = Vec::new();
        let mut stats = Vec::new();
        let mut shard_bytes = Vec::new();
        for h in worker_handles {
            let (o, s, b) = h.join().expect("worker thread panicked");
            outputs.push(o);
            stats.push(s);
            shard_bytes.push(b);
        }
        let agg_stats = agg_handles
            .into_iter()
            .map(|h| h.join().expect("aggregator thread panicked"))
            .collect();
        ShardedRecoveryResult {
            outputs,
            stats,
            shard_bytes,
            agg_stats,
        }
    }

    /// Runs one round of the recovery engine with shard `s`'s mesh
    /// wrapped in `plans[s]`, collecting per-thread outcomes instead of
    /// panicking: per-shard drops, a straggling shard, or a crashed
    /// non-primary aggregator all surface as data.
    ///
    /// A crashed shard's endpoint is kept alive until every worker has
    /// been joined, so the dead aggregator looks like a black hole (UDP
    /// semantics), not a closed connection.
    pub fn run_recovery_chaos(
        cfg: &OmniConfig,
        plans: &[FaultPlan],
        inputs: &[Tensor],
        telemetry: Option<&Telemetry>,
    ) -> ShardedChaosOutcome {
        assert_eq!(plans.len(), cfg.num_aggregators, "one plan per shard");
        assert_eq!(inputs.len(), cfg.num_workers, "one input per worker");
        let mut mesh = ShardedMesh::chaos(cfg.num_workers, plans, cfg.hot_standby, telemetry);

        let mut agg_handles = Vec::new();
        for s in 0..cfg.num_aggregators {
            let t = mesh.aggregator_endpoint(s);
            let cfg = cfg.clone();
            let telemetry = telemetry.cloned();
            agg_handles.push(
                thread::Builder::new()
                    .name(format!("shard{s}-aggregator"))
                    .spawn(move || {
                        let mut agg = match &telemetry {
                            Some(tl) => RecoveryAggregator::with_telemetry(t, cfg, tl),
                            None => RecoveryAggregator::new(t, cfg),
                        };
                        let res = agg.run();
                        let stats = agg.stats;
                        // Keep `agg` (and its endpoint) alive inside the
                        // handle so a crashed shard black-holes instead
                        // of closing the channel under the workers.
                        (res, stats, agg)
                    })
                    .expect("failed to spawn aggregator thread"),
            );
        }

        // Hot standbys: same engine, standby node ids (`W + A + s`). The
        // constructor detects the role from the node id; the engine
        // stays passive until workers fail over to it.
        let mut standby_handles = Vec::new();
        if cfg.hot_standby {
            for s in 0..cfg.num_aggregators {
                let t = mesh.standby_endpoint(s);
                let cfg = cfg.clone();
                let telemetry = telemetry.cloned();
                standby_handles.push(
                    thread::Builder::new()
                        .name(format!("shard{s}-standby"))
                        .spawn(move || {
                            let mut agg = match &telemetry {
                                Some(tl) => RecoveryAggregator::with_telemetry(t, cfg, tl),
                                None => RecoveryAggregator::new(t, cfg),
                            };
                            let res = agg.run();
                            let stats = agg.stats;
                            (res, stats, agg)
                        })
                        .expect("failed to spawn standby thread"),
                );
            }
        }

        let mut worker_handles = Vec::new();
        for (w, tensor) in inputs.iter().enumerate() {
            let bond = mesh.worker_bond(w);
            let cfg = cfg.clone();
            let telemetry = telemetry.cloned();
            let mut tensor = tensor.clone();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("sharded-worker{w}"))
                    .spawn(move || {
                        let mut worker = match &telemetry {
                            Some(tl) => RecoveryWorker::with_telemetry(bond, cfg, tl),
                            None => RecoveryWorker::new(bond, cfg),
                        };
                        let result = worker.allreduce(&mut tensor);
                        let stats = worker.stats();
                        let shard_bytes = worker.shard_bytes().to_vec();
                        // Say goodbye even after a failure (best effort:
                        // parts of the fabric may be gone). A worker that
                        // gave up on one shard must still let *surviving*
                        // shards wind down — a shard whose round already
                        // completed is not waiting on anyone, so it would
                        // otherwise idle forever for this goodbye.
                        let shutdown = worker.shutdown();
                        ShardedChaosWorker {
                            result,
                            stats,
                            shard_bytes,
                            output: tensor,
                            shutdown,
                        }
                    })
                    .expect("failed to spawn worker thread"),
            );
        }

        let workers: Vec<ShardedChaosWorker> = worker_handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        let aggs = agg_handles
            .into_iter()
            .map(|h| {
                let (res, stats, agg) = h.join().expect("aggregator thread panicked");
                drop(agg);
                (res, stats)
            })
            .collect();
        let standbys = standby_handles
            .into_iter()
            .map(|h| {
                let (res, stats, agg) = h.join().expect("standby thread panicked");
                drop(agg);
                (res, stats)
            })
            .collect();
        ShardedChaosOutcome {
            workers,
            aggs,
            standbys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(workers: usize, elements: usize, shards: usize) -> OmniConfig {
        OmniConfig::new(workers, elements)
            .with_block_size(4)
            .with_streams(2)
            .with_aggregators(shards)
    }

    #[test]
    fn shard_of_block_is_round_robin_when_width_is_one() {
        // Fusion width 1: the stream geometry collapses to the paper's
        // `shard = block % num_aggregators` (§4).
        for shards in [1usize, 2, 4] {
            let c = OmniConfig::new(2, 256)
                .with_block_size(4)
                .with_fusion(1)
                .with_streams(2)
                .with_aggregators(shards);
            let map = ShardMap::new(&c);
            for b in 0..map.layout().nblocks() as u32 {
                assert_eq!(
                    map.shard_of_block(b),
                    b as usize % shards,
                    "block {b} with {shards} shards"
                );
            }
        }
    }

    #[test]
    fn shard_of_block_matches_stream_ownership_under_fusion() {
        let c = OmniConfig::new(2, 512)
            .with_block_size(4)
            .with_fusion(4)
            .with_streams(2)
            .with_aggregators(2);
        let map = ShardMap::new(&c);
        for b in 0..map.layout().nblocks() as u32 {
            let g = map.layout().stream_of(b);
            assert_eq!(map.shard_of_block(b), map.shard_of_stream(g));
        }
    }

    #[test]
    fn sharded_group_reduces_across_threads() {
        let c = cfg(3, 256, 2);
        let inputs: Vec<Vec<Tensor>> = (0..3)
            .map(|w| vec![Tensor::from_vec(vec![w as f32 + 1.0; 256])])
            .collect();
        let res = ShardedAllReduce::run(&c, inputs);
        for outs in &res.outputs {
            for v in outs[0].as_slice() {
                assert_eq!(*v, 6.0);
            }
        }
        // Every shard served traffic and completed the round.
        for (s, a) in res.agg_stats.iter().enumerate() {
            assert!(a.packets > 0, "shard {s} saw no packets");
            assert_eq!(a.rounds_completed, 1, "shard {s} rounds");
        }
        // Per-shard bytes decompose the aggregate counter.
        for (w, st) in res.stats.iter().enumerate() {
            let per_shard: u64 = res.shard_bytes[w].iter().sum();
            assert_eq!(per_shard, st.bytes_sent, "worker {w} byte split");
        }
    }
}
