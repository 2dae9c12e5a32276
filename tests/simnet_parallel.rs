//! Parallel-simnet differential suite (DESIGN §13).
//!
//! Every scenario of the cross-engine conformance matrix
//! (`omnireduce::core::testing::scenarios`) runs through the simulated
//! protocol mirrors at `threads ∈ {1, 2, 8}` and must be **bit-identical**
//! across thread counts: completion times, per-NIC counters, per-shard
//! wire bytes, processed-event counts, and the full per-lane flight-event
//! streams (simulated-nanosecond timestamps included). `threads = 1` is
//! the classic sequential drain, so these equalities prove the
//! conservative parallel engine reproduces the sequential schedule
//! exactly — not merely statistically.
//!
//! The same scenarios also run through the *executable* lossless engines,
//! locking tensors against the scalar oracle and the simulators against
//! the executable engines' per-shard wire-byte counters, so the parallel
//! engine is anchored to real protocol output, not just to itself.

use std::time::Duration;

use omnireduce::core::config::OmniConfig;
use omnireduce::core::sim::{simulate_allreduce, SimOutcome, SimSpec};
use omnireduce::core::sim_recovery::{simulate_recovery_allreduce_with_membership, SimMembership};
use omnireduce::core::testing::{
    assert_bits_eq, config_of, gen_inputs, run_group, scalar_oracle, scenarios, with_deadline,
};
use omnireduce::simnet::{Bandwidth, NicConfig, NicStats, SimTime};
use omnireduce::telemetry::{FlightRecording, Telemetry};
use omnireduce::tensor::{BlockSpec, NonZeroBitmap, Tensor};

const THREADS: [usize; 3] = [1, 2, 8];

fn nic() -> NicConfig {
    NicConfig::symmetric(Bandwidth::gbps(10.0), SimTime::from_micros(5))
}

/// `cfg` with a fixed 500 µs RTO and a budget of 1000 retries.
fn fixed_rto(cfg: &OmniConfig) -> OmniConfig {
    cfg.clone()
        .with_fixed_rto(Duration::from_micros(500))
        .with_max_retransmits(1000)
}

fn bitmaps(tensors: &[Tensor], block_size: usize) -> Vec<NonZeroBitmap> {
    tensors
        .iter()
        .map(|t| NonZeroBitmap::build(t, BlockSpec::new(block_size)))
        .collect()
}

/// Everything a simulated run exposes, in one comparable bundle.
#[derive(Debug, PartialEq)]
struct Observed {
    completion: SimTime,
    worker_tx_bytes: u64,
    shard_rx_bytes: Vec<u64>,
    failed_workers: Vec<usize>,
    end_time: SimTime,
    finished_at: Vec<Option<SimTime>>,
    nic_stats: Vec<NicStats>,
    events: u64,
    flight: FlightRecording,
}

fn observe(out: SimOutcome, telemetry: &Telemetry) -> Observed {
    Observed {
        completion: out.completion,
        worker_tx_bytes: out.worker_tx_bytes,
        shard_rx_bytes: out.shard_rx_bytes,
        failed_workers: out.failed_workers,
        end_time: out.report.end_time,
        finished_at: out.report.finished_at,
        nic_stats: out.report.nic_stats,
        events: out.report.events,
        flight: telemetry.flight().snapshot(),
    }
}

/// Folds `shard_bytes[w][s]` into per-shard column sums (same shape as
/// [`SimOutcome::shard_rx_bytes`]).
fn fold_shard_bytes(per_worker: &[Vec<u64>]) -> Vec<u64> {
    let shards = per_worker[0].len();
    let mut per_shard = vec![0u64; shards];
    for row in per_worker {
        for (s, b) in row.iter().enumerate() {
            per_shard[s] += b;
        }
    }
    per_shard
}

#[test]
fn lossless_sim_matrix_is_thread_count_invariant_and_anchored_to_engines() {
    with_deadline(Duration::from_secs(240), || {
        for sc in scenarios() {
            let cfg = config_of(&sc);
            let inputs = gen_inputs(&sc);

            // Executable engines: tensors bit-identical to the scalar
            // oracle, per round.
            let exec = run_group(&cfg, inputs.clone());
            for r in 0..sc.rounds {
                let want = scalar_oracle(&inputs, r);
                for (w, outs) in exec.outputs.iter().enumerate() {
                    assert_bits_eq(&outs[r], &want, &format!("seed {}: w{w} r{r}", sc.seed));
                }
            }

            // Simulated mirror, every round, every thread count. The
            // flight recording carries each actor's full event stream in
            // simulated nanoseconds — the strictest observable we have.
            let run_round = |threads: usize, round: usize| {
                let telemetry = Telemetry::with_observability(0, 1 << 16);
                let bms = bitmaps(
                    &inputs.iter().map(|w| w[round].clone()).collect::<Vec<_>>(),
                    sc.block_size,
                );
                let spec = SimSpec {
                    cfg: cfg.clone(),
                    worker_nic: nic(),
                    agg_nic: nic(),
                    colocated: false,
                    telemetry: Some(telemetry.clone()),
                    threads,
                    topology: None,
                };
                observe(simulate_allreduce(&spec, &bms), &telemetry)
            };
            let mut sim_worker_bytes = 0u64;
            let mut sim_shard_bytes: Option<Vec<u64>> = None;
            for round in 0..sc.rounds {
                let seq = run_round(1, round);
                for threads in &THREADS[1..] {
                    let par = run_round(*threads, round);
                    assert_eq!(
                        seq, par,
                        "seed {}: lossless sim diverged at threads={threads} round={round}",
                        sc.seed
                    );
                }
                sim_worker_bytes += seq.worker_tx_bytes;
                sim_shard_bytes = Some(match sim_shard_bytes.take() {
                    None => seq.shard_rx_bytes.clone(),
                    Some(acc) => acc
                        .iter()
                        .zip(&seq.shard_rx_bytes)
                        .map(|(a, b)| a + b)
                        .collect(),
                });
            }

            // Anchor: the sim charges exactly the executable engines'
            // wire bytes — in aggregate and per shard (executable
            // counters accumulate across rounds, so sum the sim rounds).
            let exec_total: u64 = exec.stats.iter().map(|s| s.bytes_sent).sum();
            assert_eq!(
                sim_worker_bytes, exec_total,
                "seed {}: worker bytes",
                sc.seed
            );
            assert_eq!(
                sim_shard_bytes.expect("at least one round"),
                fold_shard_bytes(&exec.shard_bytes),
                "seed {}: per-shard bytes",
                sc.seed
            );
        }
    });
}

#[test]
fn recovery_sim_matrix_is_thread_count_invariant() {
    with_deadline(Duration::from_secs(240), || {
        for sc in scenarios() {
            let cfg = config_of(&sc);
            let inputs = gen_inputs(&sc);
            let bms = bitmaps(
                &inputs.iter().map(|w| w[0].clone()).collect::<Vec<_>>(),
                sc.block_size,
            );
            let run = |threads: usize| {
                let telemetry = Telemetry::with_observability(0, 1 << 16);
                let out = simulate_recovery_allreduce_with_membership(
                    &fixed_rto(&cfg),
                    nic(),
                    nic(),
                    sc.loss,
                    &bms,
                    sc.seed,
                    threads,
                    None,
                    Some(&telemetry),
                );
                observe(out, &telemetry)
            };
            let seq = run(1);
            if sc.loss == 0.0 {
                assert!(seq.failed_workers.is_empty(), "seed {}", sc.seed);
                assert_eq!(seq.nic_stats.iter().map(|s| s.packets_lost).sum::<u64>(), 0);
            } else {
                // The loss process must actually fire for the lossy
                // scenarios, or the invariance claim is vacuous.
                assert!(
                    seq.nic_stats.iter().map(|s| s.packets_lost).sum::<u64>() > 0,
                    "seed {}: no packet lost at loss={}",
                    sc.seed,
                    sc.loss
                );
            }
            for threads in &THREADS[1..] {
                let par = run(*threads);
                assert_eq!(
                    seq, par,
                    "seed {}: recovery sim diverged at threads={threads}",
                    sc.seed
                );
            }
        }
    });
}

#[test]
fn membership_eviction_is_thread_count_invariant() {
    with_deadline(Duration::from_secs(120), || {
        // A scripted departure mid-collective: the eviction sweep, epoch
        // bumps, and the degraded completion must be identical whether
        // the engine runs sequentially or on 8 threads — the flight
        // recording carries the Eviction/EpochChange events themselves.
        let sc = scenarios()
            .into_iter()
            .find(|s| s.workers == 4)
            .expect("matrix has a 4-worker scenario");
        let cfg = config_of(&sc);
        let inputs = gen_inputs(&sc);
        let bms = bitmaps(
            &inputs.iter().map(|w| w[0].clone()).collect::<Vec<_>>(),
            sc.block_size,
        );
        let plan = SimMembership::stable(sc.workers, SimTime::from_micros(1_000))
            .depart(sc.workers - 1, SimTime::from_micros(200));
        let run = |threads: usize| {
            let telemetry = Telemetry::with_observability(0, 1 << 16);
            let out = simulate_recovery_allreduce_with_membership(
                &fixed_rto(&cfg),
                nic(),
                nic(),
                0.0,
                &bms,
                sc.seed,
                threads,
                Some(&plan),
                Some(&telemetry),
            );
            observe(out, &telemetry)
        };
        let seq = run(1);
        for threads in &THREADS[1..] {
            assert_eq!(
                seq,
                run(*threads),
                "membership diverged at threads={threads}"
            );
        }
    });
}
