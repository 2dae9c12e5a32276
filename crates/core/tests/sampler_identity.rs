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

use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::group::{self, GroupOutcome, Nodes, Recovery};
use omnireduce_core::testing::with_deadline;
use omnireduce_telemetry::{Sampler, SeriesKind, SeriesSnapshot, Telemetry};
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{ChaosNetwork, FaultPlan, KeyedLoss};
use omnireduce_transport::ChannelNetwork;
use proptest::prelude::*;

/// Ring capacity per series: far more ticks than any test produces.
const SERIES_CAP: usize = 256;

/// Runs `rounds` AllReduces per worker over a chaos-wrapped channel
/// mesh, like `tests/flight.rs::run_rounds`.
fn run_rounds(
    cfg: &OmniConfig,
    plan: &FaultPlan,
    inputs: &[Vec<Tensor>],
    telemetry: Option<&Telemetry>,
) -> GroupOutcome<Recovery> {
    let mesh = ChannelNetwork::new(cfg.mesh_size()).endpoints();
    let endpoints = ChaosNetwork::wrap(mesh, plan, telemetry);
    group::run::<Recovery>(
        cfg,
        Nodes::mesh(cfg, endpoints),
        inputs.to_vec(),
        telemetry,
        None,
    )
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
        warm.workers[0].result.is_ok(),
        "warmup run failed: {:?}",
        warm.workers[0].result
    );

    let mut sampler = Sampler::new(&telemetry);
    let run = run_rounds(cfg, plan, inputs, Some(&telemetry));
    assert!(
        run.workers[0].result.is_ok(),
        "measured run failed: {:?}",
        run.workers[0].result
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
            assert!(off.workers[0].result.is_ok(), "{:?}", off.workers[0].result);

            // A live background sampler ticking every 200 µs while the
            // protocol runs.
            let telemetry = Telemetry::with_pipeline(0, 0, SERIES_CAP);
            let sampler =
                Sampler::spawn(&telemetry, Duration::from_micros(200)).expect("spawn sampler");
            let on = run_rounds(&cfg, &plan, &inputs, Some(&telemetry));
            sampler.stop();
            assert!(on.workers[0].result.is_ok(), "{:?}", on.workers[0].result);

            for r in 0..rounds {
                let diff = off.workers[0].outputs[r].max_abs_diff(&on.workers[0].outputs[r]);
                assert_eq!(diff, 0.0, "round {r}: sampler perturbed the sum");
            }
            assert_eq!(off.workers[0].stats, on.workers[0].stats, "sampler perturbed worker stats");
            assert_eq!(
                off.aggs[0].1, on.aggs[0].1,
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
