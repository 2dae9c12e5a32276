//! Fault-injection integration tests: the Algorithm 2 recovery engines
//! under crashes, partitions, stragglers and keyed loss injected by
//! [`ChaosNetwork`], verifying the robustness layer's guarantees:
//!
//! * **Bounded failure.** A worker whose aggregator is crashed
//!   mid-stream returns [`ProtocolError::PeerUnresponsive`] within
//!   `max_retransmits × rto_max` instead of retransmitting forever.
//! * **Fail-fast degradation.** An aggregator evicts a crashed worker
//!   and either completes the collective without it
//!   ([`DegradedMode::DropWorker`]) or aborts with a typed error
//!   ([`DegradedMode::Abort`]).
//! * **Deterministic replay.** The keyed loss model makes two runs with
//!   the same fault seed produce identical `RecoveryStats` and
//!   telemetry counters (the guard for every new RNG path).
//!
//! Every test runs under [`with_deadline`]: a regression that
//! reintroduces an infinite-retransmit hang fails fast instead of
//! wedging CI.

use std::time::Duration;

use omnireduce_core::config::{DegradedMode, OmniConfig};
use omnireduce_core::error::ProtocolError;
use omnireduce_core::group::{self, GroupOutcome, Nodes, Recovery};
use omnireduce_core::testing::with_deadline;
use omnireduce_telemetry::Telemetry;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{ChaosNetwork, FaultPlan, KeyedLoss};
use omnireduce_transport::{ChannelNetwork, GilbertElliott};
use proptest::prelude::*;

/// Telemetry counters compared bit-for-bit in the replay tests.
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

/// Runs one AllReduce round over a channel mesh wrapped in `plan`,
/// collecting per-thread results instead of panicking on failure.
fn run_chaos(
    cfg: &OmniConfig,
    plan: &FaultPlan,
    inputs: &[Tensor],
    telemetry: Option<&Telemetry>,
) -> GroupOutcome<Recovery> {
    let mesh = ChannelNetwork::new(cfg.mesh_size()).endpoints();
    let endpoints = ChaosNetwork::wrap(mesh, plan, telemetry);
    let rounds = inputs.iter().map(|t| vec![t.clone()]).collect();
    group::run::<Recovery>(cfg, Nodes::mesh(cfg, endpoints), rounds, telemetry, None)
}

fn small_cfg(n: usize, len: usize) -> OmniConfig {
    OmniConfig::new(n, len)
        .with_block_size(8)
        .with_fusion(2)
        .with_streams(2)
}

fn gen_inputs(n: usize, len: usize, seed: u64) -> Vec<Tensor> {
    gen::workers(
        n,
        len,
        BlockSpec::new(8),
        0.5,
        1.0,
        OverlapMode::Random,
        seed,
    )
}

// ---------------------------------------------------------------------
// Bounded failure: crashed aggregator
// ---------------------------------------------------------------------

/// Acceptance: a worker whose aggregator is crashed mid-stream returns
/// `PeerUnresponsive` within `max_retransmits × rto_max` — no hang.
#[test]
fn crashed_aggregator_fails_fast_within_budget() {
    with_deadline(Duration::from_secs(60), || {
        let n = 2;
        let max_retransmits = 6;
        let rto_max = Duration::from_millis(100);
        let cfg = small_cfg(n, 512)
            .with_initial_rto(Duration::from_millis(2))
            .with_rto_bounds(Duration::from_millis(1), rto_max)
            .with_max_retransmits(max_retransmits);
        let inputs = gen_inputs(n, 512, 7);
        // The aggregator is node `n`; kill it after 4 data-plane sends —
        // mid-stream, with workers still waiting on results.
        let plan = FaultPlan::new(11).crash_after(cfg.aggregator_node(0), 4);
        let out = run_chaos(&cfg, &plan, &inputs, None);

        // Bound from the config: initial ≤ rto_max/2, so the backoff
        // series (2,4,8,…, capped) sums below max_retransmits × rto_max.
        let bound = rto_max * max_retransmits;
        let mut saw_unresponsive = false;
        for (w, o) in out.workers.iter().enumerate() {
            match &o.result {
                Err(ProtocolError::PeerUnresponsive {
                    peer, retransmits, ..
                }) => {
                    saw_unresponsive = true;
                    assert_eq!(*peer, cfg.aggregator_node(0), "worker {w}");
                    assert_eq!(*retransmits, max_retransmits, "worker {w}");
                    let elapsed = Duration::from_nanos(o.round_nanos[0]);
                    assert!(
                        elapsed < bound,
                        "worker {w} took {:?}, bound {bound:?}",
                        elapsed
                    );
                }
                Err(ProtocolError::Transport(_)) => {
                    // Tolerated: the mesh may tear down under the first
                    // worker's failure before this one exhausts its
                    // budget.
                }
                other => panic!("worker {w}: expected failure, got {other:?}"),
            }
        }
        assert!(saw_unresponsive, "no worker detected the dead aggregator");
        // The crashed aggregator itself dies on its next receive.
        assert!(out.aggs[0].0.is_err(), "crashed aggregator reported Ok");
    });
}

// ---------------------------------------------------------------------
// Fail-fast degradation: crashed worker
// ---------------------------------------------------------------------

fn eviction_cfg(n: usize, len: usize, mode: DegradedMode) -> OmniConfig {
    small_cfg(n, len)
        .with_initial_rto(Duration::from_millis(5))
        .with_rto_bounds(Duration::from_millis(2), Duration::from_millis(100))
        .with_max_retransmits(12)
        .with_eviction_timeout(Duration::from_millis(150))
        .with_degraded_mode(mode)
}

#[test]
fn crashed_worker_is_evicted_and_collective_completes_degraded() {
    with_deadline(Duration::from_secs(60), || {
        let n = 3;
        let cfg = eviction_cfg(n, 512, DegradedMode::DropWorker);
        let inputs = gen_inputs(n, 512, 13);
        // Worker 2 dies after its first 3 data-plane sends.
        let plan = FaultPlan::new(5).crash_after(cfg.worker_node(2), 3);
        let out = run_chaos(&cfg, &plan, &inputs, None);

        let (agg_res, agg_stats) = &out.aggs[0];
        assert!(agg_res.is_ok(), "aggregator failed: {agg_res:?}");
        assert_eq!(agg_stats.evictions, 1, "exactly one eviction");
        assert!(
            agg_stats.degraded_completions > 0,
            "completion count was never renormalized: {agg_stats:?}"
        );

        // Survivors complete and agree bit-for-bit (they applied the
        // same result packets).
        assert!(out.workers[0].result.is_ok(), "{:?}", out.workers[0].result);
        assert!(out.workers[1].result.is_ok(), "{:?}", out.workers[1].result);
        let diff = out.workers[0].outputs[0].max_abs_diff(&out.workers[1].outputs[0]);
        assert_eq!(diff, 0.0, "survivors disagree by {diff}");
        // The crashed worker observes its own death (its endpoint is
        // torn down) rather than hanging.
        assert!(out.workers[2].result.is_err(), "dead worker reported Ok");
    });
}

#[test]
fn crashed_worker_in_abort_mode_surfaces_worker_evicted() {
    with_deadline(Duration::from_secs(60), || {
        let n = 3;
        let cfg = eviction_cfg(n, 512, DegradedMode::Abort);
        let inputs = gen_inputs(n, 512, 17);
        let plan = FaultPlan::new(6).crash_after(cfg.worker_node(2), 3);
        let out = run_chaos(&cfg, &plan, &inputs, None);

        match &out.aggs[0].0 {
            Err(ProtocolError::WorkerEvicted { worker, idle }) => {
                assert_eq!(*worker, 2);
                assert!(*idle >= Duration::from_millis(150), "idle {idle:?}");
            }
            other => panic!("expected WorkerEvicted, got {other:?}"),
        }
        assert_eq!(out.aggs[0].1.evictions, 1);
        // Surviving workers must not hang once the aggregator is gone:
        // the retry budget converts the abort into a bounded failure.
        for w in [0, 1] {
            assert!(
                out.workers[w].result.is_err(),
                "worker {w} reported Ok after the collective aborted"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Partitions heal, stragglers are absorbed
// ---------------------------------------------------------------------

#[test]
fn partition_window_is_bridged_by_retransmission() {
    with_deadline(Duration::from_secs(60), || {
        let n = 3;
        let cfg = small_cfg(n, 512)
            .with_deterministic()
            .with_initial_rto(Duration::from_millis(10))
            .with_rto_bounds(Duration::from_millis(5), Duration::from_millis(200))
            .with_max_retransmits(30);
        let inputs = gen_inputs(n, 512, 19);
        let agg = cfg.aggregator_node(0);

        // Baseline: same engine, no faults (deterministic mode makes
        // the result bit-reproducible).
        let base = run_chaos(&cfg, &FaultPlan::new(1), &inputs, None);
        assert!(base.workers.iter().all(|w| w.result.is_ok()));

        // Worker 0 ↔ aggregator black-holed for a 6-packet window per
        // direction, then heals.
        let plan = FaultPlan::new(23).partition(cfg.worker_node(0), agg, 2, 8);
        let out = run_chaos(&cfg, &plan, &inputs, None);
        for (w, o) in out.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
            let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
            assert_eq!(diff, 0.0, "worker {w} diverges from lossless by {diff}");
        }
        assert!(
            out.workers
                .iter()
                .map(|w| w.stats.retransmissions)
                .sum::<u64>()
                > 0,
            "the partition window must force retransmissions"
        );
    });
}

#[test]
fn straggler_delay_is_absorbed() {
    with_deadline(Duration::from_secs(60), || {
        let n = 2;
        let cfg = small_cfg(n, 256)
            .with_deterministic()
            .with_initial_rto(Duration::from_millis(20))
            .with_rto_bounds(Duration::from_millis(20), Duration::from_millis(200))
            .with_max_retransmits(20);
        let inputs = gen_inputs(n, 256, 29);
        let base = run_chaos(&cfg, &FaultPlan::new(1), &inputs, None);

        let telemetry = Telemetry::new();
        let plan = FaultPlan::new(31).straggle(cfg.worker_node(1), Duration::from_millis(2));
        let out = run_chaos(&cfg, &plan, &inputs, Some(&telemetry));
        for (w, o) in out.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
            let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
            assert_eq!(diff, 0.0, "worker {w} diverges by {diff}");
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
// Hot-standby failover
// ---------------------------------------------------------------------

fn failover_cfg(n: usize, len: usize) -> OmniConfig {
    small_cfg(n, len)
        .with_deterministic()
        .with_hot_standby()
        .with_initial_rto(Duration::from_millis(5))
        .with_rto_bounds(Duration::from_millis(2), Duration::from_millis(50))
        .with_max_retransmits(6)
        .with_eviction_timeout(Duration::from_secs(5))
}

/// Acceptance: a seeded chaos run that crashes the primary aggregator
/// mid-stream completes via the hot standby, bit-identical to an
/// uninterrupted run — across several crash points, including between a
/// checkpoint and its result multicast.
#[test]
fn primary_crash_fails_over_to_standby_bit_identical() {
    with_deadline(Duration::from_secs(120), || {
        let n = 2;
        let cfg = failover_cfg(n, 512);
        let inputs = gen_inputs(n, 512, 41);

        // Uninterrupted baseline (deterministic mode ⇒ bit-reproducible).
        let base = run_chaos(&cfg, &FaultPlan::new(1), &inputs, None);
        for (w, o) in base.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "baseline worker {w}: {:?}", o.result);
            assert_eq!(o.stats.failovers, 0, "baseline worker {w} failed over");
        }
        assert!(base.standbys[0].0.is_ok(), "{:?}", base.standbys[0].0);
        assert!(
            base.aggs[0].1.checkpoints_sent > 0,
            "primary never replicated: {:?}",
            base.aggs[0].1
        );
        assert_eq!(
            base.standbys[0].1.checkpoints_applied, base.aggs[0].1.checkpoints_sent,
            "replication lane dropped checkpoints"
        );

        // Crash the primary at several points: during the first phase
        // (1), on a checkpoint send (3), between a checkpoint and its
        // result multicast (4), and later mid-stream (6).
        for crash_after in [1u64, 3, 4, 6] {
            let plan = FaultPlan::new(43).crash_after(cfg.aggregator_node(0), crash_after);
            let out = run_chaos(&cfg, &plan, &inputs, None);
            for (w, o) in out.workers.iter().enumerate() {
                assert!(
                    o.result.is_ok(),
                    "crash_after={crash_after} worker {w}: {:?}",
                    o.result
                );
                let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
                assert_eq!(
                    diff, 0.0,
                    "crash_after={crash_after} worker {w}: failover result \
                     differs from uninterrupted run by {diff}"
                );
                assert_eq!(
                    o.stats.failovers, 1,
                    "crash_after={crash_after} worker {w}: expected exactly one failover"
                );
            }
            assert!(
                out.standbys[0].0.is_ok(),
                "crash_after={crash_after} standby: {:?}",
                out.standbys[0].0
            );
            assert!(
                out.aggs[0].0.is_err(),
                "crash_after={crash_after}: crashed primary reported Ok"
            );
        }
    });
}

/// Same fault seed ⇒ identical stats and telemetry across two failover
/// runs (single worker, so every count is a pure function of the plan).
#[test]
fn failover_replay_reproduces_stats_and_telemetry_exactly() {
    with_deadline(Duration::from_secs(120), || {
        let cfg = failover_cfg(1, 1024)
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400));
        let inputs = gen_inputs(1, 1024, 37);
        let plan = FaultPlan::new(53).crash_after(cfg.aggregator_node(0), 5);
        let failover_counters: Vec<&str> = REPLAYED_COUNTERS
            .iter()
            .copied()
            .chain([
                "core.recovery.failovers",
                "core.recovery.agg.checkpoints_sent",
                "core.recovery.agg.checkpoints_applied",
                "core.recovery.agg.stale_epoch_dropped",
            ])
            .collect();

        let run = || {
            let telemetry = Telemetry::new();
            let out = run_chaos(&cfg, &plan, &inputs, Some(&telemetry));
            assert!(out.workers[0].result.is_ok(), "{:?}", out.workers[0].result);
            assert!(out.standbys[0].0.is_ok(), "{:?}", out.standbys[0].0);
            let snap = telemetry.snapshot();
            let counters: Vec<u64> = failover_counters
                .iter()
                .map(|name| snap.counter(name))
                .collect();
            (out.workers[0].stats, out.standbys[0].1, counters)
        };

        let (stats_a, sb_a, counters_a) = run();
        let (stats_b, sb_b, counters_b) = run();
        assert_eq!(stats_a, stats_b, "RecoveryStats diverge across replays");
        assert_eq!(sb_a, sb_b, "standby stats diverge across replays");
        for (name, (a, b)) in failover_counters
            .iter()
            .zip(counters_a.iter().zip(counters_b.iter()))
        {
            assert_eq!(a, b, "telemetry counter {name} diverges across replays");
        }
        assert_eq!(stats_a.failovers, 1, "the plan must force a failover");
        assert!(sb_a.checkpoints_applied > 0, "standby never caught up");
    });
}

/// Regression: after a failover, a packet lost on the way to the standby
/// must be retransmitted *to the standby*. Worker 0's first resend to it
/// is dropped; a timer retransmission addressed to the dead primary
/// would wedge the run until the deadline.
#[test]
fn failover_survives_loss_on_the_standby_link() {
    with_deadline(Duration::from_secs(30), || {
        let cfg = failover_cfg(1, 512);
        let inputs = gen_inputs(1, 512, 41);
        let base = run_chaos(&cfg, &FaultPlan::new(1), &inputs, None);
        assert!(
            base.workers[0].result.is_ok(),
            "{:?}",
            base.workers[0].result
        );

        let plan = FaultPlan::new(43)
            .crash_after(cfg.aggregator_node(0), 3)
            .partition(cfg.worker_node(0), cfg.standby_node(0), 0, 1);
        let out = run_chaos(&cfg, &plan, &inputs, None);
        let o = &out.workers[0];
        assert!(o.result.is_ok(), "{:?}", o.result);
        assert_eq!(o.stats.failovers, 1, "expected exactly one failover");
        let diff = o.outputs[0].max_abs_diff(&base.workers[0].outputs[0]);
        assert_eq!(diff, 0.0, "failover result differs by {diff}");
        assert!(out.standbys[0].0.is_ok(), "{:?}", out.standbys[0].0);
    });
}

/// Acceptance (sharded): crashing one shard's primary mid-stream while
/// the other shard stays healthy completes via that shard's standby,
/// bit-identical to the uninterrupted sharded run.
#[test]
fn sharded_primary_crash_fails_over_bit_identical() {
    use omnireduce_core::shard::ShardedAllReduce;

    with_deadline(Duration::from_secs(120), || {
        let n = 2;
        let cfg = OmniConfig::new(n, 1024)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(2)
            .with_aggregators(2)
            .with_deterministic()
            .with_hot_standby()
            .with_initial_rto(Duration::from_millis(5))
            .with_rto_bounds(Duration::from_millis(2), Duration::from_millis(50))
            .with_max_retransmits(6)
            .with_eviction_timeout(Duration::from_secs(5));
        let inputs = gen_inputs(n, 1024, 59);

        let clean = [FaultPlan::new(1), FaultPlan::new(2)];
        let rounds: Vec<Vec<Tensor>> = inputs.iter().map(|t| vec![t.clone()]).collect();
        let base = ShardedAllReduce::run::<Recovery>(&cfg, Some(&clean), rounds.clone(), None);
        for (w, o) in base.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "baseline worker {w}: {:?}", o.result);
            assert!(o.shutdown.is_ok(), "baseline worker {w} goodbye failed");
        }

        // Shard 1's primary dies mid-stream; shard 0 stays healthy.
        let plans = [
            FaultPlan::new(1),
            FaultPlan::new(61).crash_after(cfg.aggregator_node(1), 3),
        ];
        let out = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), rounds, None);
        for (w, o) in out.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "worker {w}: {:?}", o.result);
            let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
            assert_eq!(
                diff, 0.0,
                "worker {w}: sharded failover result differs from clean run by {diff}"
            );
            assert_eq!(
                o.stats.failovers, 1,
                "worker {w}: exactly one shard failed over"
            );
        }
        assert!(
            out.aggs[0].0.is_ok(),
            "healthy shard 0 failed: {:?}",
            out.aggs[0].0
        );
        assert!(
            out.aggs[1].0.is_err(),
            "crashed shard 1 primary reported Ok"
        );
        assert!(out.standbys[0].0.is_ok(), "{:?}", out.standbys[0].0);
        assert!(out.standbys[1].0.is_ok(), "{:?}", out.standbys[1].0);
        assert!(
            out.standbys[1].1.checkpoints_applied > 0 || out.standbys[1].1.results_sent > 0,
            "shard 1's standby never participated: {:?}",
            out.standbys[1].1
        );
    });
}

// ---------------------------------------------------------------------
// Deterministic replay
// ---------------------------------------------------------------------

/// Acceptance: same fault seed ⇒ identical `RecoveryStats` and telemetry
/// counter values across two runs.
///
/// Uses a single worker: with one protocol thread per side, every
/// retransmission/duplicate count is a pure function of the keyed fates
/// (multi-worker wall-clock runs interleave phase completions
/// nondeterministically, which can shift *which* retransmission path a
/// duplicate takes even though the fates themselves are replay-stable —
/// the order-independence of the fates is unit-tested in
/// `transport::fault`).
#[test]
fn replay_reproduces_stats_and_telemetry_exactly() {
    with_deadline(Duration::from_secs(120), || {
        let cfg = small_cfg(1, 1024)
            .with_initial_rto(Duration::from_millis(25))
            .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400))
            .with_max_retransmits(40);
        let inputs = gen_inputs(1, 1024, 37);
        let plan = FaultPlan::new(97).loss(
            KeyedLoss::uniform(0.15, 0.08)
                .with_burst(GilbertElliott::from_average(0.15, 0.6, 0.35)),
        );

        let run = || {
            let telemetry = Telemetry::new();
            let out = run_chaos(&cfg, &plan, &inputs, Some(&telemetry));
            assert!(out.workers[0].result.is_ok(), "{:?}", out.workers[0].result);
            assert!(out.aggs[0].0.is_ok());
            let snap = telemetry.snapshot();
            let counters: Vec<u64> = REPLAYED_COUNTERS
                .iter()
                .map(|name| snap.counter(name))
                .collect();
            (out.workers[0].stats, out.aggs[0].1, counters)
        };

        let (stats_a, agg_a, counters_a) = run();
        let (stats_b, agg_b, counters_b) = run();
        assert_eq!(stats_a, stats_b, "RecoveryStats diverge across replays");
        assert_eq!(agg_a, agg_b, "aggregator stats diverge across replays");
        for (name, (a, b)) in REPLAYED_COUNTERS
            .iter()
            .zip(counters_a.iter().zip(counters_b.iter()))
        {
            assert_eq!(a, b, "telemetry counter {name} diverges across replays");
        }
        assert!(
            stats_a.retransmissions > 0,
            "the replay test must actually exercise the loss path: {stats_a:?}"
        );
    });
}

// ---------------------------------------------------------------------
// Property: chaos never corrupts the sum; replays are exact
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random (seed, drop ≤ 0.3, dup ≤ 0.1, burstiness) the
    /// recovery engines still produce the exact lossless AllReduce
    /// result, and (single-worker) a replay reproduces identical
    /// `RecoveryStats`.
    #[test]
    fn prop_chaos_recovery_is_exact_and_replayable(
        n in 1usize..4,
        len in 64usize..256,
        drop in 0.0f64..0.3,
        dup in 0.0f64..0.1,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        with_deadline(Duration::from_secs(120), move || {
            // Deterministic aggregation ⇒ the result is bit-identical
            // to the lossless run of the same engine. Comfortable RTO
            // floor ⇒ retransmissions are driven by keyed fates only.
            let cfg = small_cfg(n, len)
                .with_deterministic()
                .with_initial_rto(Duration::from_millis(25))
                .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400))
                .with_max_retransmits(40);
            let inputs = gen_inputs(n, len, seed);

            let base = run_chaos(&cfg, &FaultPlan::new(seed), &inputs, None);
            for o in &base.workers {
                assert!(o.result.is_ok(), "lossless run failed: {:?}", o.result);
            }

            let mut loss = KeyedLoss::uniform(drop, dup);
            if bursty {
                let avg = drop.clamp(0.01, 0.25);
                loss = loss.with_burst(GilbertElliott::from_average(avg, 0.6, 0.3));
            }
            let plan = FaultPlan::new(seed ^ 0xDEAD).loss(loss);

            let out = run_chaos(&cfg, &plan, &inputs, None);
            for (w, o) in out.workers.iter().enumerate() {
                assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
                let diff = o.outputs[0].max_abs_diff(&base.workers[w].outputs[0]);
                assert_eq!(
                    diff, 0.0,
                    "worker {w}: chaos result differs from lossless by {diff}"
                );
            }

            if n == 1 {
                let replay = run_chaos(&cfg, &plan, &inputs, None);
                assert_eq!(
                    out.workers[0].stats, replay.workers[0].stats,
                    "replay diverged"
                );
                assert_eq!(out.aggs[0].1, replay.aggs[0].1, "agg replay diverged");
            }
        });
    }
}

// ---------------------------------------------------------------------
// Simulated engines: adaptive RTO determinism and bounded failure
// ---------------------------------------------------------------------

#[test]
fn sim_adaptive_rto_is_deterministic_per_seed() {
    use omnireduce_core::sim::bitmaps_from_sets;
    use omnireduce_core::sim_recovery::simulate_recovery_allreduce_with_telemetry;
    use omnireduce_simnet::{Bandwidth, NicConfig, SimTime};
    use omnireduce_tensor::gen::worker_block_sets;

    let cfg = OmniConfig::new(4, 1 << 18)
        .with_block_size(256)
        .with_fusion(4)
        .with_streams(8)
        .with_aggregators(4)
        .with_initial_rto(Duration::from_micros(2000))
        .with_rto_bounds(Duration::from_micros(200), Duration::from_millis(50));
    let nblocks = cfg.block_spec().block_count(1 << 18);
    let bms = bitmaps_from_sets(&worker_block_sets(4, nblocks, 0.5, OverlapMode::Random, 3));
    let nic = NicConfig::symmetric(Bandwidth::gbps(10.0), SimTime::from_micros(15));
    let run = || {
        let telemetry = Telemetry::new();
        let out = simulate_recovery_allreduce_with_telemetry(
            &cfg,
            nic,
            nic,
            0.01,
            &bms,
            42,
            Some(&telemetry),
        );
        let snap = telemetry.snapshot();
        (
            out.completion,
            out.failed_workers.clone(),
            snap.counter("core.sim_recovery.retransmissions"),
            snap.counter("core.sim_recovery.backoffs"),
        )
    };
    assert_eq!(run(), run());
    assert!(run().0 > SimTime::ZERO);
}
