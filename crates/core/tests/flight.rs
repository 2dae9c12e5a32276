//! Flight-recorder integration tests: the observability layer against
//! the live Algorithm 2 engines under injected faults.
//!
//! * **Non-perturbation.** A chaos run with the flight recorder enabled
//!   produces bit-identical tensors and identical `RecoveryStats` to
//!   the recorder-off run of the same seed — observation must not
//!   change the observed protocol (and replays stay exact either way).
//! * **Straggler detection.** A worker slowed by an injected
//!   per-message delay is the one (and only one) worker the
//!   reconstructor's skew detector flags.
//! * **Loss detection.** Keyed packet loss concentrated by seed shows
//!   up as flagged retransmission windows.
//! * **End-to-end reconstruction.** A sharded recovery run under chaos
//!   — and a lossless sharded run — yield recordings from which
//!   [`RoundAttribution`] rebuilds every round with a nonzero budget.

use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::group::{self, GroupOutcome, Lossless, Nodes, Recovery};
use omnireduce_core::shard::ShardedAllReduce;
use omnireduce_core::testing::with_deadline;
use omnireduce_telemetry::{AttributionConfig, FlightRecording, RoundAttribution, Telemetry};
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{ChaosNetwork, FaultPlan, KeyedLoss};
use omnireduce_transport::{ChannelNetwork, GilbertElliott};
use proptest::prelude::*;

/// Flight-ring capacity for every recorded test: big enough that no
/// test run wraps (wrapping is exercised in the telemetry unit tests).
const FLIGHT_CAP: usize = 1 << 16;

/// Runs `rounds` AllReduces per worker over a chaos-wrapped channel
/// mesh (single aggregator), like `tests/fault.rs::run_chaos` but
/// multi-round so the detectors have a time series to work on.
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

fn flight_telemetry() -> Telemetry {
    Telemetry::with_observability(0, FLIGHT_CAP)
}

fn reconstruct(rec: &FlightRecording) -> RoundAttribution {
    RoundAttribution::from_recording(rec, &AttributionConfig::default())
}

// ---------------------------------------------------------------------
// Non-perturbation: recording changes nothing, replays stay exact
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recorder-on chaos runs are bit-identical to recorder-off runs of
    /// the same seed (tensors AND stats), and a recorded replay
    /// reproduces the exact same stats. Single worker: with one
    /// protocol thread per side the stats are a pure function of the
    /// keyed fates (see `tests/fault.rs`), so equality is exact.
    #[test]
    fn prop_recorder_is_invisible_to_the_protocol(
        len in 64usize..256,
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.08,
        bursty in any::<bool>(),
        seed in 0u64..1000,
    ) {
        with_deadline(Duration::from_secs(120), move || {
            let cfg = small_cfg(1, len);
            let rounds = 3;
            let inputs = gen_rounds(1, len, rounds, seed);
            let mut loss = KeyedLoss::uniform(drop, dup);
            if bursty {
                let avg = drop.clamp(0.01, 0.2);
                loss = loss.with_burst(GilbertElliott::from_average(avg, 0.6, 0.3));
            }
            let plan = FaultPlan::new(seed ^ 0xF11E).loss(loss);

            let off = run_rounds(&cfg, &plan, &inputs, None);
            assert!(off.workers[0].result.is_ok(), "{:?}", off.workers[0].result);

            let telemetry = flight_telemetry();
            let on = run_rounds(&cfg, &plan, &inputs, Some(&telemetry));
            assert!(on.workers[0].result.is_ok(), "{:?}", on.workers[0].result);

            // Bit-identical tensors, identical stats.
            for r in 0..rounds {
                let diff = off.workers[0].outputs[r].max_abs_diff(&on.workers[0].outputs[r]);
                assert_eq!(diff, 0.0, "round {r}: recorder perturbed the sum");
            }
            assert_eq!(off.workers[0].stats, on.workers[0].stats, "recorder perturbed worker stats");
            assert_eq!(
                off.aggs[0].1, on.aggs[0].1,
                "recorder perturbed aggregator stats"
            );

            // Recorded replay: exact stats again, and the recording
            // reconstructs every round.
            let telemetry2 = flight_telemetry();
            let replay = run_rounds(&cfg, &plan, &inputs, Some(&telemetry2));
            assert_eq!(on.workers[0].stats, replay.workers[0].stats, "recorded replay diverged");

            let rec = telemetry.flight().snapshot();
            assert!(!rec.is_empty(), "flight recording is empty");
            let attrib = reconstruct(&rec);
            assert_eq!(
                attrib.rounds.len(),
                rounds,
                "reconstructor must recover every round"
            );
            for b in &attrib.rounds {
                assert!(b.total_ns > 0, "round {} has no duration", b.round);
            }
        });
    }
}

// ---------------------------------------------------------------------
// Detectors against seeded faults
// ---------------------------------------------------------------------

/// A worker slowed by an injected 2 ms per-message delay is flagged by
/// the skew detector — and none of the healthy peers are.
#[test]
fn straggler_detector_flags_the_seeded_slow_worker() {
    with_deadline(Duration::from_secs(120), || {
        let n = 3;
        let len = 512;
        let rounds = 6;
        let cfg = small_cfg(n, len).with_deterministic();
        let inputs = gen_rounds(n, len, rounds, 41);
        let slow = 1u16;
        let plan =
            FaultPlan::new(43).straggle(cfg.worker_node(slow as usize), Duration::from_millis(2));

        let telemetry = flight_telemetry();
        let out = run_rounds(&cfg, &plan, &inputs, Some(&telemetry));
        for (w, r) in out.workers.iter().map(|o| &o.result).enumerate() {
            assert!(r.is_ok(), "worker {w} failed: {r:?}");
        }

        let attrib = reconstruct(&telemetry.flight().snapshot());
        let flagged: Vec<u16> = attrib.stragglers().map(|s| s.actor).collect();
        assert_eq!(
            flagged,
            vec![slow],
            "detector must flag exactly the delayed worker: {:?}",
            attrib.workers
        );
        // The flagged worker's skew is on the order of the injected
        // delay, far above the healthy peers.
        let skew = attrib.workers.iter().find(|s| s.actor == slow).unwrap();
        assert!(
            skew.p99_delay_ns >= 1_000_000,
            "p99 {}ns should reflect the 2ms injection",
            skew.p99_delay_ns
        );
    });
}

/// Sustained keyed loss produces retransmissions that the sliding-window
/// loss detector reports as at least one flagged burst.
#[test]
fn loss_detector_flags_retransmission_bursts() {
    with_deadline(Duration::from_secs(120), || {
        let len = 512;
        let rounds = 8;
        let cfg = small_cfg(1, len);
        let inputs = gen_rounds(1, len, rounds, 59);
        let plan = FaultPlan::new(61).loss(
            KeyedLoss::uniform(0.25, 0.0).with_burst(GilbertElliott::from_average(0.25, 0.6, 0.35)),
        );

        let telemetry = flight_telemetry();
        let out = run_rounds(&cfg, &plan, &inputs, Some(&telemetry));
        assert!(out.workers[0].result.is_ok(), "{:?}", out.workers[0].result);
        assert!(
            out.workers[0].stats.retransmissions > 0,
            "the plan must actually force retransmissions: {:?}",
            out.workers[0].stats
        );

        let rec = telemetry.flight().snapshot();
        // Sensitive thresholds: the run is short, the loss is heavy.
        let attrib = RoundAttribution::from_recording(
            &rec,
            &AttributionConfig {
                loss_window_rounds: 4,
                loss_threshold: 2,
                ..AttributionConfig::default()
            },
        );
        assert!(
            !attrib.loss_windows.is_empty(),
            "loss detector found no burst despite {} retransmissions",
            out.workers[0].stats.retransmissions
        );
        let window_retx: u64 = attrib.loss_windows.iter().map(|w| w.retransmits).sum();
        assert!(window_retx > 0, "flagged windows must carry retransmits");
    });
}

// ---------------------------------------------------------------------
// End-to-end reconstruction from the sharded deployments
// ---------------------------------------------------------------------

/// A sharded recovery run under chaos yields a recording from which the
/// reconstructor rebuilds the round with a nonzero latency budget —
/// the acceptance path `omnistat` consumes.
#[test]
fn sharded_recovery_chaos_recording_reconstructs() {
    with_deadline(Duration::from_secs(120), || {
        let n = 3;
        let shards = 2;
        let len = 512;
        let cfg = small_cfg(n, len).with_aggregators(shards).with_streams(4);
        let inputs = gen_rounds(n, len, 1, 71);
        let plans: Vec<FaultPlan> = (0..shards)
            .map(|s| FaultPlan::new(73 + s as u64).loss(KeyedLoss::uniform(0.08, 0.02)))
            .collect();

        let telemetry = flight_telemetry();
        let out = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs, Some(&telemetry));
        for (w, o) in out.workers.iter().enumerate() {
            assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
        }

        let rec = telemetry.flight().snapshot();
        assert!(!rec.is_empty());
        let attrib = reconstruct(&rec);
        assert_eq!(attrib.rounds.len(), 1, "one collective, one round");
        let b = &attrib.rounds[0];
        assert!(b.total_ns > 0);
        assert!(
            b.encode_ns + b.wire_ns + b.slot_wait_ns + b.straggler_ns + b.recovery_ns > 0,
            "attribution assigned no time to any component: {b:?}"
        );
        // The textual report renders without panicking and names the
        // round.
        let report = attrib.report();
        assert!(report.contains("round"), "report: {report}");
    });
}

/// The lossless sharded engine (`OmniWorker` over a `ShardBond`, one
/// `OmniAggregator` per lane) produces a reconstructable recording too.
#[test]
fn sharded_lossless_traced_run_reconstructs_every_round() {
    with_deadline(Duration::from_secs(120), || {
        let n = 2;
        let shards = 2;
        let len = 512;
        let rounds = 3;
        let cfg = OmniConfig::new(n, len)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(4)
            .with_aggregators(shards);
        let inputs = gen_rounds(n, len, rounds, 83);

        let telemetry = flight_telemetry();
        let out =
            ShardedAllReduce::run::<Lossless>(&cfg, None, inputs, Some(&telemetry)).expect_ok();
        assert_eq!(out.outputs.len(), n);

        let attrib = reconstruct(&telemetry.flight().snapshot());
        assert_eq!(
            attrib.rounds.len(),
            rounds,
            "reconstructor must recover every lossless round"
        );
        for b in &attrib.rounds {
            assert!(b.total_ns > 0, "round {} has no duration", b.round);
            assert_eq!(b.retransmits, 0, "lossless run retransmitted?");
        }
    });
}
