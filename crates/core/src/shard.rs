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
//!   [`crate::OmniWorker`] (or [`crate::RecoveryWorker`]) over a
//!   [`omnireduce_transport::ShardBond`] — **one transport lane per
//!   shard** behind one `Transport`, polled fairly. The engines keep
//!   their traffic counters per shard, which feeds the wire-byte
//!   differential suite; a round finishes when every stream has, and a
//!   shard owning no blocks (possible for short tensors) owns no stream,
//!   so it is never waited on.
//! * [`ShardedAllReduce::run`] builds the per-shard meshes — plain
//!   channels, or each shard wrapped in its own fault plan
//!   ([`omnireduce_transport::ShardedMesh::chaos`]) — and deploys the
//!   group on them through the one driver, [`crate::group::run`], for
//!   either engine ([`crate::group::Lossless`] or
//!   [`crate::group::Recovery`]).
//!
//! **Determinism.** Every block is owned by exactly one shard, and
//! workers write result blocks into disjoint tensor ranges, so
//! cross-shard thread interleaving cannot affect *which* values land
//! where. With [`OmniConfig::deterministic`] each shard reduces every
//! block in worker-id order (§7), so the bits of each block are also
//! interleaving-independent: a sharded run's output is bit-identical to
//! the single-aggregator reference. The conformance suite asserts this
//! across seeded interleavings (DESIGN §10).

use omnireduce_tensor::{BlockIdx, Tensor};
use omnireduce_transport::{FaultPlan, ShardBond, ShardedMesh, Transport};

use omnireduce_telemetry::Telemetry;

use crate::config::OmniConfig;
use crate::group::{self, ready, Engine, GroupOutcome, Nodes};
use crate::layout::StreamLayout;

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

/// Deploys sharded groups: N aggregator engines (plus hot standbys when
/// the config asks for them) and M workers, each on its own OS thread,
/// over per-shard meshes.
pub struct ShardedAllReduce;

impl ShardedAllReduce {
    /// Runs `inputs[w]` rounds of engine `E` over `cfg.num_aggregators`
    /// shards through [`group::run`]. With `plans`, shard `s`'s mesh is
    /// wrapped in `plans[s]` ([`ShardedMesh::chaos`]) — per-shard drops,
    /// a straggling shard, a crashed non-primary aggregator; otherwise
    /// the meshes are plain channels. Every engine (and the chaos
    /// counters) attach to `telemetry` when one is given.
    ///
    /// Failures are data; call [`GroupOutcome::expect_ok`] when the run
    /// must succeed. The lossless engine has no retransmission, so plans
    /// that drop its data packets wedge it: give it only
    /// reliability-preserving plans (stragglers, delays).
    pub fn run<E: Engine>(
        cfg: &OmniConfig,
        plans: Option<&[FaultPlan]>,
        inputs: Vec<Vec<Tensor>>,
        telemetry: Option<&Telemetry>,
    ) -> GroupOutcome<E> {
        let (workers, shards, standby) = (cfg.num_workers, cfg.num_aggregators, cfg.hot_standby);
        match plans {
            None => {
                let mesh = ShardedMesh::channels(workers, shards, standby);
                group::run::<E>(cfg, nodes(cfg, mesh), inputs, telemetry, None)
            }
            Some(plans) => {
                assert_eq!(plans.len(), shards, "one plan per shard");
                let mesh = ShardedMesh::chaos(workers, plans, standby, telemetry);
                group::run::<E>(cfg, nodes(cfg, mesh), inputs, telemetry, None)
            }
        }
    }
}

/// Every node of a sharded mesh: bonded worker lanes, then each shard's
/// aggregator and standby endpoints.
fn nodes<'a, T: Transport + 'a>(
    cfg: &OmniConfig,
    mut mesh: ShardedMesh<T>,
) -> Nodes<'a, ShardBond<T>, T> {
    let standbys = if cfg.hot_standby {
        cfg.num_aggregators
    } else {
        0
    };
    Nodes {
        workers: (0..cfg.num_workers)
            .map(|w| ready(mesh.worker_bond(w)))
            .collect(),
        aggregators: (0..cfg.num_aggregators)
            .map(|s| ready(mesh.aggregator_endpoint(s)))
            .collect(),
        standbys: (0..standbys)
            .map(|s| ready(mesh.standby_endpoint(s)))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::Lossless;

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
        let res = ShardedAllReduce::run::<Lossless>(&c, None, inputs, None).expect_ok();
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
