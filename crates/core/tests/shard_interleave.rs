//! Sharded interleaving tests: the multi-aggregator deployment under
//! adversarial schedules and per-shard faults.
//!
//! * **Empty shards.** A shard that owns no blocks is never waited on,
//!   end to end. (That no delivery order can wedge or double-complete a
//!   round is checked exhaustively on the pure state machines in
//!   `protocol_exhaustive.rs`.)
//! * **Per-shard chaos.** Keyed loss injected independently per shard
//!   never corrupts the sum, and (single worker) a replay with the same
//!   seeds reproduces identical `RecoveryStats` and telemetry counters.
//! * **One-shard straggler.** Delaying one aggregator reorders the
//!   cross-lane interleaving without changing a single output bit.
//! * **Non-primary aggregator crash.** Workers fail fast with a typed
//!   error naming the dead shard, and the *surviving* shard winds down
//!   instead of waiting forever ([`DegradedMode::DropWorker`]).
//!
//! Every threaded test runs under [`with_deadline`]: a wedged join or a
//! survivor that never exits fails fast instead of hanging CI.

use std::time::Duration;

use omnireduce_core::config::{DegradedMode, OmniConfig};
use omnireduce_core::error::ProtocolError;
use omnireduce_core::group::{Lossless, Recovery};
use omnireduce_core::shard::{ShardMap, ShardedAllReduce};
use omnireduce_core::testing::with_deadline;
use omnireduce_telemetry::Telemetry;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{FaultPlan, KeyedLoss};
use omnireduce_transport::GilbertElliott;
use proptest::prelude::*;

/// Telemetry counters compared bit-for-bit in the sharded replay test
/// (the same guard list as the single-aggregator fault suite).
const REPLAYED_COUNTERS: &[&str] = &[
    "core.recovery.packets_sent",
    "core.recovery.retransmissions",
    "core.recovery.bytes_sent",
    "core.recovery.blocks_sent",
    "core.recovery.timer_fires",
    "core.recovery.stale_results_ignored",
    "core.recovery.backoffs",
    "core.recovery.agg.results_sent",
    "core.recovery.agg.result_retransmissions",
    "core.recovery.agg.duplicates_ignored",
    "transport.fault.keyed_drops",
    "transport.fault.keyed_dups",
];

fn sharded_cfg(n: usize, len: usize, shards: usize) -> OmniConfig {
    OmniConfig::new(n, len)
        .with_block_size(8)
        .with_fusion(2)
        .with_streams(2)
        .with_aggregators(shards)
}

/// One round of inputs per worker.
fn gen_inputs(n: usize, len: usize, seed: u64) -> Vec<Vec<Tensor>> {
    gen::workers(
        n,
        len,
        BlockSpec::new(8),
        0.5,
        1.0,
        OverlapMode::Random,
        seed,
    )
    .into_iter()
    .map(|t| vec![t])
    .collect()
}

/// One clean (fault-free) plan per shard.
fn clean_plans(shards: usize, seed: u64) -> Vec<FaultPlan> {
    (0..shards)
        .map(|s| FaultPlan::new(seed.wrapping_add(s as u64)))
        .collect()
}

// ---------------------------------------------------------------------
// Empty shards end to end: short tensors must not wedge the round
// ---------------------------------------------------------------------

/// A tensor short enough that trailing shards own no blocks still
/// completes: the deployment returns (no join wedge), the sum is exact,
/// and the idle aggregators saw no data traffic.
#[test]
fn empty_shards_complete_the_round_end_to_end() {
    with_deadline(Duration::from_secs(60), || {
        // (shards, elements): 1 block → only shard 0 active of 2;
        // 2 blocks → shards 0,1 active of 4.
        for (shards, len) in [(2usize, 4usize), (4, 8)] {
            let cfg = OmniConfig::new(2, len)
                .with_block_size(4)
                .with_fusion(1)
                .with_streams(1)
                .with_aggregators(shards);
            let map = ShardMap::new(&cfg);
            let empties: Vec<usize> = (0..shards).filter(|&s| map.is_empty(s)).collect();
            assert!(!empties.is_empty(), "geometry must leave a shard empty");

            let inputs: Vec<Vec<Tensor>> = (0..2)
                .map(|w| vec![Tensor::from_vec(vec![w as f32 + 1.0; len])])
                .collect();
            let res =
                ShardedAllReduce::run::<Lossless>(&cfg, None, inputs.clone(), None).expect_ok();
            for outs in &res.outputs {
                for v in outs[0].as_slice() {
                    assert_eq!(*v, 3.0, "{shards} shards, {len} elements");
                }
            }
            for &s in &empties {
                assert_eq!(res.agg_stats[s].packets, 0, "empty shard {s} saw data");
                assert_eq!(
                    res.shard_bytes.iter().map(|b| b[s]).sum::<u64>(),
                    0,
                    "workers sent bytes to empty shard {s}"
                );
            }

            // Same geometry over the Algorithm 2 engine: the recovery
            // aggregator on an empty shard also winds down on goodbyes.
            let rec = ShardedAllReduce::run::<Recovery>(&cfg, None, inputs, None).expect_ok();
            for (w, outs) in rec.outputs.iter().enumerate() {
                let diff = outs[0].max_abs_diff(&res.outputs[w][0]);
                assert_eq!(diff, 0.0, "recovery diverges on worker {w}");
            }
        }
    });
}

// ---------------------------------------------------------------------
// Per-shard chaos: exactness and replay
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Independent keyed loss per shard never corrupts the sum: the
    /// sharded recovery engines produce the exact clean-mesh result,
    /// and (single worker) a replay with the same per-shard seeds
    /// reproduces identical stats and telemetry counters.
    #[test]
    fn prop_per_shard_chaos_is_exact_and_replayable(
        n in 1usize..3,
        shards_ix in 0usize..2,
        len in 64usize..256,
        drop in 0.0f64..0.2,
        dup in 0.0f64..0.08,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let shards = [2usize, 4][shards_ix];
        with_deadline(Duration::from_secs(120), move || {
            // Deterministic aggregation ⇒ bit-identical to the clean run
            // of the same engine; comfortable RTO floor ⇒ retransmissions
            // are driven by the keyed fates, not by scheduling noise.
            let cfg = sharded_cfg(n, len, shards)
                .with_deterministic()
                .with_initial_rto(Duration::from_millis(25))
                .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400))
                .with_max_retransmits(40);
            let inputs = gen_inputs(n, len, seed);

            let base =
                ShardedAllReduce::run::<Recovery>(&cfg, Some(&clean_plans(shards, seed)), inputs.clone(), None);
            for (w, o) in base.workers.iter().enumerate() {
                assert!(o.result.is_ok(), "clean run failed on worker {w}: {:?}", o.result);
            }

            let plans: Vec<FaultPlan> = (0..shards)
                .map(|s| {
                    let mut loss = KeyedLoss::uniform(drop, dup);
                    if bursty {
                        let avg = drop.clamp(0.01, 0.18);
                        loss = loss.with_burst(GilbertElliott::from_average(avg, 0.6, 0.3));
                    }
                    FaultPlan::new(seed ^ (0xDEAD + 131 * s as u64)).loss(loss)
                })
                .collect();

            let run = |telemetry: Option<&Telemetry>| {
                let out = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs.clone(), telemetry);
                for (w, o) in out.workers.iter().enumerate() {
                    assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
                }
                for (s, (res, _)) in out.aggs.iter().enumerate() {
                    assert!(res.is_ok(), "shard {s} aggregator failed: {res:?}");
                }
                out
            };

            let out = run(None);
            for (w, o) in out.workers.iter().enumerate() {
                let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
                assert_eq!(diff, 0.0, "worker {w}: chaos result differs by {diff}");
                let split: u64 = o.shard_bytes.iter().sum();
                assert_eq!(split, o.stats.bytes_sent, "worker {w} byte split");
            }

            if n == 1 {
                let replay = || {
                    let telemetry = Telemetry::new();
                    let out = run(Some(&telemetry));
                    let snap = telemetry.snapshot();
                    let counters: Vec<u64> = REPLAYED_COUNTERS
                        .iter()
                        .map(|name| snap.counter(name))
                        .collect();
                    let agg_stats: Vec<_> = out.aggs.iter().map(|(_, s)| *s).collect();
                    (out.workers[0].stats, agg_stats, counters)
                };
                let (stats_a, aggs_a, counters_a) = replay();
                let (stats_b, aggs_b, counters_b) = replay();
                assert_eq!(stats_a, stats_b, "RecoveryStats diverge across replays");
                assert_eq!(aggs_a, aggs_b, "per-shard aggregator stats diverge");
                for (name, (a, b)) in REPLAYED_COUNTERS
                    .iter()
                    .zip(counters_a.iter().zip(counters_b.iter()))
                {
                    assert_eq!(a, b, "telemetry counter {name} diverges across replays");
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// One-shard straggler: reordering without divergence
// ---------------------------------------------------------------------

/// Delaying every send of one shard's aggregator perturbs the cross-lane
/// arrival order without changing a single output bit — the per-shard
/// completion join and deterministic reduction absorb the skew.
#[test]
fn one_shard_straggler_keeps_every_bit_stable() {
    with_deadline(Duration::from_secs(60), || {
        let n = 2;
        let shards = 2;
        let cfg = sharded_cfg(n, 512, shards)
            .with_deterministic()
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400))
            .with_max_retransmits(40);
        let inputs = gen_inputs(n, 512, 41);

        let base = ShardedAllReduce::run::<Recovery>(
            &cfg,
            Some(&clean_plans(shards, 1)),
            inputs.clone(),
            None,
        );
        for o in &base.workers {
            assert!(o.result.is_ok(), "clean run failed: {:?}", o.result);
        }

        let telemetry = Telemetry::new();
        let plans = vec![
            FaultPlan::new(43),
            FaultPlan::new(47).straggle(cfg.aggregator_node(1), Duration::from_millis(2)),
        ];
        let out = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs, Some(&telemetry));
        for (w, o) in out.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
            let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
            assert_eq!(diff, 0.0, "worker {w} diverges under the straggling shard");
        }
        assert!(
            telemetry
                .snapshot()
                .counter("transport.fault.straggle_delays")
                > 0,
            "straggler injections must be counted"
        );
    });
}

// ---------------------------------------------------------------------
// Non-primary aggregator crash: fail fast, survivors wind down
// ---------------------------------------------------------------------

/// Crashing shard 1's aggregator mid-stream bounds the failure: every
/// worker returns a typed error naming the dead shard's node within its
/// retry budget, the crashed aggregator observes its own death, and the
/// *surviving* shard 0 aggregator exits cleanly on the workers' goodbyes
/// instead of waiting forever — all without evictions, since the
/// survivor itself was never wronged.
#[test]
fn non_primary_aggregator_crash_fails_fast_and_survivor_winds_down() {
    with_deadline(Duration::from_secs(60), || {
        let n = 2;
        let shards = 2;
        let max_retransmits = 6;
        let cfg = sharded_cfg(n, 512, shards)
            .with_degraded_mode(DegradedMode::DropWorker)
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(100))
            .with_max_retransmits(max_retransmits)
            .with_eviction_timeout(Duration::from_millis(150));
        let inputs = gen_inputs(n, 512, 53);

        // Shard 0 stays healthy; shard 1's aggregator dies after two
        // data-plane sends — mid-stream, with workers still waiting.
        let plans = vec![
            FaultPlan::new(59),
            FaultPlan::new(61).crash_after(cfg.aggregator_node(1), 2),
        ];
        let out = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs, None);

        let mut saw_unresponsive = false;
        for (w, o) in out.workers.iter().enumerate() {
            match &o.result {
                Err(ProtocolError::PeerUnresponsive {
                    peer, retransmits, ..
                }) => {
                    saw_unresponsive = true;
                    assert_eq!(
                        *peer,
                        cfg.aggregator_node(1),
                        "worker {w} must blame shard 1"
                    );
                    assert_eq!(*retransmits, max_retransmits, "worker {w}");
                }
                Err(ProtocolError::Transport(_)) => {
                    // Tolerated: the mesh may tear down under the first
                    // worker's failure before this one exhausts its budget.
                }
                other => panic!("worker {w}: expected failure, got {other:?}"),
            }
        }
        assert!(saw_unresponsive, "no worker detected the dead shard");

        // The crashed shard observes its own death on its next receive.
        assert!(out.aggs[1].0.is_err(), "crashed aggregator reported Ok");

        // The surviving shard served its streams and wound down cleanly
        // on the failing workers' goodbyes — reaching this line at all
        // (under the deadline) is the no-hang guarantee.
        let (res0, stats0) = &out.aggs[0];
        assert!(res0.is_ok(), "surviving shard 0 failed: {res0:?}");
        assert!(stats0.results_sent > 0, "shard 0 never served a stream");
        assert_eq!(stats0.evictions, 0, "survivor had no cause to evict");
    });
}
