//! Background-sampler non-perturbation tests: the continuous
//! time-series pipeline (DESIGN §14) against the live recovery engines
//! under injected faults.
//!
//! * **Invisibility.** A chaos run with a background [`Sampler`]
//!   ticking throughout produces bit-identical tensors and identical
//!   `RecoveryStats` to the sampler-off run of the same seed — the
//!   sampler only ever reads.
//! * **Exact replay.** The counter plane of the sampled telemetry is a
//!   pure function of the keyed fates: two fresh runs of the same plan,
//!   each snapshotted by a manual sampler tick, yield byte-equal
//!   counter-delta series. (Gauge and histogram series carry wall-clock
//!   values — RTTs, contribution delays — and are inherently
//!   run-dependent, so the replay check covers counters.)

use std::thread;
use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::error::ProtocolError;
use omnireduce_core::recovery::{
    RecoveryAggregator, RecoveryAggregatorStats, RecoveryStats, RecoveryWorker,
};
use omnireduce_core::testing::with_deadline;
use omnireduce_telemetry::{Sampler, SeriesKind, SeriesSnapshot, Telemetry};
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{ChaosNetwork, FaultPlan, KeyedLoss};
use omnireduce_transport::ChannelNetwork;
use proptest::prelude::*;

/// Ring capacity per series: far more ticks than any test produces.
const SERIES_CAP: usize = 256;

struct MultiRoundOutcome {
    /// `outputs[w][r]` = worker `w`'s tensor after round `r`.
    outputs: Vec<Vec<Tensor>>,
    results: Vec<Result<(), ProtocolError>>,
    stats: Vec<RecoveryStats>,
    agg_stats: Vec<(Result<(), ProtocolError>, RecoveryAggregatorStats)>,
}

/// Runs `rounds` AllReduces per worker over a chaos-wrapped channel
/// mesh, mirroring `tests/flight.rs::run_rounds`.
fn run_rounds(
    cfg: &OmniConfig,
    plan: &FaultPlan,
    inputs: &[Vec<Tensor>],
    telemetry: Option<&Telemetry>,
) -> MultiRoundOutcome {
    assert_eq!(inputs.len(), cfg.num_workers);
    let mut net = ChannelNetwork::new(cfg.mesh_size());
    let endpoints = ChaosNetwork::wrap(net.endpoints(), plan, telemetry);
    let mut endpoints: Vec<Option<_>> = endpoints.into_iter().map(Some).collect();

    let mut agg_handles = Vec::new();
    for a in 0..cfg.num_aggregators {
        let t = endpoints[cfg.aggregator_node(a) as usize].take().unwrap();
        let cfg = cfg.clone();
        let telemetry = telemetry.cloned();
        agg_handles.push(thread::spawn(move || {
            let mut agg = match &telemetry {
                Some(tl) => RecoveryAggregator::with_telemetry(t, cfg, tl),
                None => RecoveryAggregator::new(t, cfg),
            };
            let res = agg.run();
            let stats = agg.stats;
            (res, stats)
        }));
    }

    let mut worker_handles = Vec::new();
    for (w, tensors) in inputs.iter().enumerate() {
        let t = endpoints[cfg.worker_node(w) as usize].take().unwrap();
        let cfg = cfg.clone();
        let telemetry = telemetry.cloned();
        let mut tensors = tensors.clone();
        worker_handles.push(thread::spawn(move || {
            let mut worker = match &telemetry {
                Some(tl) => RecoveryWorker::with_telemetry(t, cfg, tl),
                None => RecoveryWorker::new(t, cfg),
            };
            let mut result = Ok(());
            for tensor in tensors.iter_mut() {
                if let Err(e) = worker.allreduce(tensor) {
                    result = Err(e);
                    break;
                }
            }
            let stats = worker.stats();
            if result.is_ok() {
                let _ = worker.shutdown();
            }
            (result, stats, tensors)
        }));
    }

    let mut outputs = Vec::new();
    let mut results = Vec::new();
    let mut stats = Vec::new();
    for h in worker_handles {
        let (res, st, out) = h.join().expect("worker thread panicked");
        results.push(res);
        stats.push(st);
        outputs.push(out);
    }
    let agg_stats = agg_handles
        .into_iter()
        .map(|h| h.join().expect("aggregator thread panicked"))
        .collect();
    MultiRoundOutcome {
        outputs,
        results,
        stats,
        agg_stats,
    }
}

fn small_cfg(n: usize, len: usize) -> OmniConfig {
    OmniConfig::new(n, len)
        .with_block_size(8)
        .with_fusion(2)
        .with_streams(2)
        .with_initial_rto(Duration::from_millis(25))
        .with_rto_bounds(Duration::from_millis(25), Duration::from_millis(400))
        .with_max_retransmits(40)
}

fn gen_rounds(n: usize, len: usize, rounds: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut per_worker: Vec<Vec<Tensor>> = (0..n).map(|_| Vec::with_capacity(rounds)).collect();
    for r in 0..rounds {
        let round = gen::workers(
            n,
            len,
            BlockSpec::new(8),
            0.5,
            1.0,
            OverlapMode::Random,
            seed.wrapping_add(r as u64),
        );
        for (w, t) in round.into_iter().enumerate() {
            per_worker[w].push(t);
        }
    }
    per_worker
}

/// Runs the plan once to register every instrument, scans a manual
/// sampler (delta baselines at the post-warmup totals), runs the plan
/// again, ticks once at a fixed timestamp, and returns the
/// counter-delta series: exactly one sample each, holding the measured
/// run's counter increments.
fn replay_counters(
    cfg: &OmniConfig,
    plan: &FaultPlan,
    inputs: &[Vec<Tensor>],
) -> Vec<SeriesSnapshot> {
    let telemetry = Telemetry::with_pipeline(0, 0, SERIES_CAP);
    let warm = run_rounds(cfg, plan, inputs, Some(&telemetry));
    assert!(
        warm.results[0].is_ok(),
        "warmup run failed: {:?}",
        warm.results[0]
    );

    let mut sampler = Sampler::new(&telemetry);
    let run = run_rounds(cfg, plan, inputs, Some(&telemetry));
    assert!(
        run.results[0].is_ok(),
        "measured run failed: {:?}",
        run.results[0]
    );
    sampler.tick_at(1_000);

    telemetry
        .series()
        .snapshot()
        .series
        .into_iter()
        .filter(|s| s.kind == SeriesKind::CounterDelta)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sampler-on chaos runs are bit-identical to sampler-off runs of
    /// the same seed (tensors AND stats), and the counter plane of the
    /// sampled telemetry replays exactly. Single worker: with one
    /// protocol thread per side the stats — and the counters that
    /// mirror them — are a pure function of the keyed fates (see
    /// `tests/fault.rs`), so equality is exact.
    #[test]
    fn prop_sampler_is_invisible_and_replays_exactly(
        len in 64usize..256,
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.08,
        seed in 0u64..1000,
    ) {
        with_deadline(Duration::from_secs(120), move || {
            let cfg = small_cfg(1, len);
            let rounds = 3;
            let inputs = gen_rounds(1, len, rounds, seed);
            let plan = FaultPlan::new(seed ^ 0x5A4E).loss(KeyedLoss::uniform(drop, dup));

            let off = run_rounds(&cfg, &plan, &inputs, None);
            assert!(off.results[0].is_ok(), "{:?}", off.results[0]);

            // A live background sampler ticking every 200 µs while the
            // protocol runs.
            let telemetry = Telemetry::with_pipeline(0, 0, SERIES_CAP);
            let sampler =
                Sampler::spawn(&telemetry, Duration::from_micros(200)).expect("spawn sampler");
            let on = run_rounds(&cfg, &plan, &inputs, Some(&telemetry));
            sampler.stop();
            assert!(on.results[0].is_ok(), "{:?}", on.results[0]);

            for r in 0..rounds {
                let diff = off.outputs[0][r].max_abs_diff(&on.outputs[0][r]);
                assert_eq!(diff, 0.0, "round {r}: sampler perturbed the sum");
            }
            assert_eq!(off.stats[0], on.stats[0], "sampler perturbed worker stats");
            assert_eq!(
                off.agg_stats[0].1, on.agg_stats[0].1,
                "sampler perturbed aggregator stats"
            );
            let ticks = telemetry.series().snapshot().ticks();
            assert!(ticks >= 2, "background sampler recorded only {ticks} ticks");

            // Exact replay: same plan, fresh telemetry, manual tick at
            // a fixed timestamp — byte-equal counter series both times.
            let a = replay_counters(&cfg, &plan, &inputs);
            let b = replay_counters(&cfg, &plan, &inputs);
            assert_eq!(a, b, "counter plane diverged between replays");
            assert!(
                a.iter().any(|s| s.samples.iter().any(|&(_, v)| v > 0)),
                "replay captured no counter activity"
            );
        });
    }
}
