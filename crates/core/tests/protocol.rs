//! End-to-end protocol tests: full worker/aggregator groups over
//! in-process transports, checking that every engine produces exactly the
//! element-wise sum of the inputs under all geometries — fusion widths,
//! stream counts, shard counts, sparsity patterns, overlap regimes, and
//! injected packet loss.

use omnireduce_core::config::OmniConfig;
use omnireduce_core::testing::{run_group, run_recovery_group, with_deadline};
use omnireduce_tensor::dense::reference_sum;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::{ChannelNetwork, ChaosNetwork, FaultPlan, KeyedLoss};
use proptest::prelude::*;

/// Tolerance for float accumulation-order differences.
const TOL: f32 = 1e-4;

fn check_allreduce(cfg: &OmniConfig, inputs: Vec<Tensor>) {
    let expect = reference_sum(&inputs);
    let result = run_group(cfg, inputs.into_iter().map(|t| vec![t]).collect());
    for (w, outs) in result.outputs.iter().enumerate() {
        assert!(
            outs[0].approx_eq(&expect, TOL),
            "worker {w} diverges by {}",
            outs[0].max_abs_diff(&expect)
        );
    }
}

fn gen_inputs(
    n: usize,
    len: usize,
    bs: usize,
    sparsity: f64,
    mode: OverlapMode,
    seed: u64,
) -> Vec<Tensor> {
    gen::workers(n, len, BlockSpec::new(bs), sparsity, 1.0, mode, seed)
}

#[test]
fn basic_two_workers_no_fusion_single_stream() {
    let cfg = OmniConfig::new(2, 64)
        .with_block_size(4)
        .with_fusion(1)
        .with_streams(1);
    let a = Tensor::from_vec(
        (0..64)
            .map(|i| if i % 5 == 0 { i as f32 } else { 0.0 })
            .collect(),
    );
    let b = Tensor::from_vec(
        (0..64)
            .map(|i| if i % 7 == 0 { 1.0 } else { 0.0 })
            .collect(),
    );
    check_allreduce(&cfg, vec![a, b]);
}

#[test]
fn fig2_example_two_workers() {
    // The paper's Figure 2: 4 blocks; W1 non-zero at {0, 2, 3},
    // W2 non-zero at {0, 3}.
    let cfg = OmniConfig::new(2, 8)
        .with_block_size(2)
        .with_fusion(1)
        .with_streams(1);
    let w1 = Tensor::from_vec(vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0, 3.0, 3.0]);
    let w2 = Tensor::from_vec(vec![5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 7.0, 7.0]);
    check_allreduce(&cfg, vec![w1, w2]);
}

#[test]
fn all_zero_inputs() {
    let cfg = OmniConfig::new(3, 128)
        .with_block_size(8)
        .with_fusion(2)
        .with_streams(2);
    check_allreduce(&cfg, vec![Tensor::zeros(128); 3]);
}

#[test]
fn fully_dense_inputs() {
    let cfg = OmniConfig::new(2, 100)
        .with_block_size(8)
        .with_fusion(4)
        .with_streams(2);
    let a = Tensor::from_vec((0..100).map(|i| i as f32 * 0.5).collect());
    let b = Tensor::from_vec((0..100).map(|i| 100.0 - i as f32).collect());
    check_allreduce(&cfg, vec![a, b]);
}

#[test]
fn tensor_not_multiple_of_block_size() {
    // 103 elements, bs=8 → 13 blocks, last partial.
    let cfg = OmniConfig::new(2, 103)
        .with_block_size(8)
        .with_fusion(4)
        .with_streams(2);
    let inputs = gen_inputs(2, 103, 8, 0.5, OverlapMode::Random, 7);
    check_allreduce(&cfg, inputs);
}

#[test]
fn tensor_smaller_than_one_fused_row() {
    // 3 blocks < fusion width 8: some columns invalid, one stream active.
    let cfg = OmniConfig::new(2, 12)
        .with_block_size(4)
        .with_fusion(8)
        .with_streams(4);
    let a = Tensor::from_vec((0..12).map(|i| i as f32).collect());
    let b = Tensor::from_vec((0..12).map(|i| -(i as f32)).collect());
    check_allreduce(&cfg, vec![a, b]);
}

#[test]
fn single_worker_group() {
    let cfg = OmniConfig::new(1, 64)
        .with_block_size(4)
        .with_fusion(2)
        .with_streams(2);
    let inputs = gen_inputs(1, 64, 4, 0.5, OverlapMode::Random, 3);
    check_allreduce(&cfg, inputs);
}

#[test]
fn eight_workers_high_sparsity() {
    let cfg = OmniConfig::new(8, 4096)
        .with_block_size(32)
        .with_fusion(4)
        .with_streams(4);
    let inputs = gen_inputs(8, 4096, 32, 0.95, OverlapMode::Random, 11);
    check_allreduce(&cfg, inputs);
}

#[test]
fn multiple_aggregator_shards() {
    let cfg = OmniConfig::new(4, 2048)
        .with_block_size(16)
        .with_fusion(4)
        .with_streams(4)
        .with_aggregators(4);
    let inputs = gen_inputs(4, 2048, 16, 0.7, OverlapMode::Random, 13);
    check_allreduce(&cfg, inputs);
}

#[test]
fn overlap_none_and_all() {
    for mode in [OverlapMode::None, OverlapMode::All] {
        let cfg = OmniConfig::new(4, 1024)
            .with_block_size(16)
            .with_fusion(2)
            .with_streams(2);
        let inputs = gen_inputs(4, 1024, 16, 0.8, mode, 17);
        check_allreduce(&cfg, inputs);
    }
}

#[test]
fn dense_streaming_mode_matches_sum() {
    // SwitchML*-style: every block transmitted.
    let cfg = OmniConfig::new(3, 512)
        .with_block_size(16)
        .with_fusion(4)
        .with_streams(2)
        .dense_streaming();
    let inputs = gen_inputs(3, 512, 16, 0.9, OverlapMode::Random, 19);
    check_allreduce(&cfg, inputs);
}

#[test]
fn dense_streaming_sends_all_blocks() {
    let len = 512;
    let bs = 16;
    let cfg = OmniConfig::new(2, len)
        .with_block_size(bs)
        .with_fusion(1)
        .with_streams(1);
    let sparse_inputs = gen_inputs(2, len, bs, 0.9, OverlapMode::Random, 23);
    let sparse = run_group(
        &cfg,
        sparse_inputs.iter().map(|t| vec![t.clone()]).collect(),
    );
    let dense_cfg = cfg.clone().dense_streaming();
    let dense = run_group(
        &dense_cfg,
        sparse_inputs.iter().map(|t| vec![t.clone()]).collect(),
    );
    let nblocks = (len / bs) as u64;
    for s in &dense.stats {
        assert_eq!(s.blocks_sent, nblocks, "dense mode must send every block");
    }
    for s in &sparse.stats {
        assert!(
            s.blocks_sent < nblocks / 2,
            "sparse mode should skip most blocks, sent {}",
            s.blocks_sent
        );
    }
}

#[test]
fn sparsity_reduces_bytes_sent() {
    let len = 8192;
    let bs = 64;
    let cfg = OmniConfig::new(2, len)
        .with_block_size(bs)
        .with_fusion(4)
        .with_streams(2);
    let mut bytes = Vec::new();
    for sparsity in [0.0, 0.5, 0.9] {
        let inputs = gen_inputs(2, len, bs, sparsity, OverlapMode::All, 29);
        let r = run_group(&cfg, inputs.into_iter().map(|t| vec![t]).collect());
        bytes.push(r.stats[0].bytes_sent);
    }
    assert!(
        bytes[0] > bytes[1] && bytes[1] > bytes[2],
        "bytes {bytes:?}"
    );
    // At 90% sparsity the payload should be ≈10% of dense (+ metadata).
    let ratio = bytes[2] as f64 / bytes[0] as f64;
    assert!(ratio < 0.2, "90% sparsity sent {ratio} of dense bytes");
}

#[test]
fn back_to_back_rounds() {
    let cfg = OmniConfig::new(3, 1024)
        .with_block_size(16)
        .with_fusion(4)
        .with_streams(4);
    let rounds = 3;
    let mut per_worker: Vec<Vec<Tensor>> = vec![Vec::new(); 3];
    let mut expects = Vec::new();
    for r in 0..rounds {
        let inputs = gen_inputs(3, 1024, 16, 0.6, OverlapMode::Random, 100 + r);
        expects.push(reference_sum(&inputs));
        for (w, t) in inputs.into_iter().enumerate() {
            per_worker[w].push(t);
        }
    }
    let result = run_group(&cfg, per_worker);
    for outs in &result.outputs {
        for (r, out) in outs.iter().enumerate() {
            assert!(out.approx_eq(&expects[r], TOL), "round {r} diverges");
        }
    }
}

// ---------------------------------------------------------------------
// Loss recovery (Algorithm 2)
// ---------------------------------------------------------------------

fn check_recovery(cfg: &OmniConfig, inputs: Vec<Tensor>, loss: f64, seed: u64) {
    // Watchdog: a stalled recovery collective must fail fast, not hang.
    let cfg = cfg.clone();
    with_deadline(std::time::Duration::from_secs(120), move || {
        let expect = reference_sum(&inputs);
        let plan = FaultPlan::new(seed).loss(KeyedLoss::uniform(loss, 0.0));
        let endpoints = ChaosNetwork::wrap(
            ChannelNetwork::new(cfg.mesh_size()).endpoints(),
            &plan,
            None,
        );
        let result = run_recovery_group(
            &cfg,
            endpoints,
            inputs.into_iter().map(|t| vec![t]).collect(),
        );
        for (w, outs) in result.outputs.iter().enumerate() {
            assert!(
                outs[0].approx_eq(&expect, TOL),
                "worker {w} diverges by {} under loss {loss}",
                outs[0].max_abs_diff(&expect)
            );
        }
    });
}

#[test]
fn recovery_without_loss_matches() {
    let cfg = OmniConfig::new(3, 512)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    let inputs = gen_inputs(3, 512, 16, 0.6, OverlapMode::Random, 31);
    check_recovery(&cfg, inputs, 0.0, 1);
}

#[test]
fn recovery_under_one_percent_loss() {
    let cfg = OmniConfig::new(3, 1024)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    let inputs = gen_inputs(3, 1024, 16, 0.5, OverlapMode::Random, 37);
    check_recovery(&cfg, inputs, 0.01, 2);
}

#[test]
fn recovery_under_heavy_loss() {
    let mut cfg = OmniConfig::new(2, 256)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    cfg.retransmit_timeout = std::time::Duration::from_millis(5);
    let inputs = gen_inputs(2, 256, 16, 0.5, OverlapMode::Random, 41);
    check_recovery(&cfg, inputs, 0.2, 3);
}

#[test]
fn recovery_with_duplication() {
    let cfg = OmniConfig::new(3, 512)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    let inputs = gen_inputs(3, 512, 16, 0.5, OverlapMode::Random, 43);
    let expect = reference_sum(&inputs);
    let plan = FaultPlan::new(5).loss(KeyedLoss::uniform(0.05, 0.1));
    let endpoints = ChaosNetwork::wrap(
        ChannelNetwork::new(cfg.mesh_size()).endpoints(),
        &plan,
        None,
    );
    let result = run_recovery_group(
        &cfg,
        endpoints,
        inputs.into_iter().map(|t| vec![t]).collect(),
    );
    for outs in &result.outputs {
        assert!(
            outs[0].approx_eq(&expect, TOL),
            "duplication corrupted the sum: diff {}",
            outs[0].max_abs_diff(&expect)
        );
    }
}

#[test]
fn recovery_multi_round_under_loss() {
    let mut cfg = OmniConfig::new(2, 256)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    cfg.retransmit_timeout = std::time::Duration::from_millis(5);
    let rounds = 3;
    let mut per_worker: Vec<Vec<Tensor>> = vec![Vec::new(); 2];
    let mut expects = Vec::new();
    for r in 0..rounds {
        let inputs = gen_inputs(2, 256, 16, 0.5, OverlapMode::Random, 200 + r);
        expects.push(reference_sum(&inputs));
        for (w, t) in inputs.into_iter().enumerate() {
            per_worker[w].push(t);
        }
    }
    let plan = FaultPlan::new(9).loss(KeyedLoss::uniform(0.05, 0.0));
    let endpoints = ChaosNetwork::wrap(
        ChannelNetwork::new(cfg.mesh_size()).endpoints(),
        &plan,
        None,
    );
    let result = run_recovery_group(&cfg, endpoints, per_worker);
    for outs in &result.outputs {
        for (r, out) in outs.iter().enumerate() {
            assert!(out.approx_eq(&expects[r], TOL), "round {r} diverges");
        }
    }
}

#[test]
fn recovery_retransmits_under_loss() {
    let mut cfg = OmniConfig::new(2, 512)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    cfg.retransmit_timeout = std::time::Duration::from_millis(5);
    let inputs = gen_inputs(2, 512, 16, 0.3, OverlapMode::Random, 47);
    let plan = FaultPlan::new(17).loss(KeyedLoss::uniform(0.1, 0.0));
    let endpoints = ChaosNetwork::wrap(
        ChannelNetwork::new(cfg.mesh_size()).endpoints(),
        &plan,
        None,
    );
    let result = run_recovery_group(
        &cfg,
        endpoints,
        inputs.into_iter().map(|t| vec![t]).collect(),
    );
    let total_retx: u64 = result.stats.iter().map(|s| s.retransmissions).sum();
    assert!(total_retx > 0, "10% loss must trigger retransmissions");
}

// ---------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lossless engine computes the exact block-wise sum for arbitrary
    /// geometry and sparsity structure.
    #[test]
    fn prop_lossless_allreduce_sums(
        n in 1usize..5,
        bs in 1usize..9,
        fusion in 1usize..5,
        streams in 1usize..4,
        shards in 1usize..3,
        len in 1usize..300,
        sparsity in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let cfg = OmniConfig::new(n, len)
            .with_block_size(bs)
            .with_fusion(fusion)
            .with_streams(streams)
            .with_aggregators(shards);
        let inputs = gen::workers(
            n, len, BlockSpec::new(bs), sparsity, 0.7, OverlapMode::Random, seed,
        );
        let expect = reference_sum(&inputs);
        let result = run_group(&cfg, inputs.into_iter().map(|t| vec![t]).collect());
        for outs in &result.outputs {
            prop_assert!(outs[0].approx_eq(&expect, TOL));
        }
    }

    /// Algorithm 2 delivers exactly-once aggregation under arbitrary
    /// drop/duplication patterns.
    #[test]
    fn prop_recovery_exactly_once(
        n in 1usize..4,
        len in 16usize..200,
        drop in 0.0f64..0.25,
        dup in 0.0f64..0.25,
        seed in 0u64..1000,
    ) {
        let mut cfg = OmniConfig::new(n, len)
            .with_block_size(8)
            .with_fusion(2)
            .with_streams(2);
        cfg.retransmit_timeout = std::time::Duration::from_millis(4);
        let inputs = gen::workers(
            n, len, BlockSpec::new(8), 0.5, 1.0, OverlapMode::Random, seed,
        );
        let expect = reference_sum(&inputs);
        let plan = FaultPlan::new(seed).loss(KeyedLoss::uniform(drop, dup));
        let endpoints =
            ChaosNetwork::wrap(ChannelNetwork::new(cfg.mesh_size()).endpoints(), &plan, None);
        let result = run_recovery_group(
            &cfg,
            endpoints,
            inputs.into_iter().map(|t| vec![t]).collect(),
        );
        for outs in &result.outputs {
            prop_assert!(
                outs[0].approx_eq(&expect, TOL),
                "diff {}", outs[0].max_abs_diff(&expect)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Numeric reproducibility (§7)
// ---------------------------------------------------------------------

/// In deterministic mode, the aggregated result is bit-identical to the
/// worker-id-ordered fold — regardless of packet arrival order — and
/// identical across repeated runs.
#[test]
fn deterministic_mode_is_bit_reproducible() {
    let cfg = OmniConfig::new(4, 2048)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(4)
        .with_deterministic();
    // Values whose float sum is ordering-sensitive.
    let inputs: Vec<Tensor> = (0..4)
        .map(|w| {
            Tensor::from_vec(
                (0..2048)
                    .map(|i| ((i * 31 + w * 7) % 97) as f32 * 1e-3 + 1e7 * ((w % 2) as f32))
                    .collect(),
            )
        })
        .collect();
    // Reference fold in worker-id order — must match EXACTLY.
    let expect = reference_sum(&inputs);
    let mut first: Option<Vec<Tensor>> = None;
    for _ in 0..3 {
        let result = run_group(&cfg, inputs.iter().map(|t| vec![t.clone()]).collect());
        let outs: Vec<Tensor> = result
            .outputs
            .into_iter()
            .map(|mut o| o.remove(0))
            .collect();
        for out in &outs {
            assert_eq!(
                out.as_slice(),
                expect.as_slice(),
                "deterministic mode must reproduce the wid-ordered fold bitwise"
            );
        }
        if let Some(prev) = &first {
            for (a, b) in prev.iter().zip(&outs) {
                assert_eq!(a.as_slice(), b.as_slice(), "run-to-run mismatch");
            }
        } else {
            first = Some(outs);
        }
    }
}

/// Deterministic mode still skips zero blocks and handles sparsity.
#[test]
fn deterministic_mode_with_sparsity() {
    let cfg = OmniConfig::new(3, 1024)
        .with_block_size(16)
        .with_fusion(4)
        .with_streams(2)
        .with_deterministic();
    let inputs = gen_inputs(3, 1024, 16, 0.7, OverlapMode::Random, 99);
    let expect = reference_sum(&inputs);
    let result = run_group(&cfg, inputs.into_iter().map(|t| vec![t]).collect());
    for outs in &result.outputs {
        assert_eq!(outs[0].as_slice(), expect.as_slice());
    }
}

/// Aggregator observability counters track rounds, slots and blocks.
#[test]
fn aggregator_stats_track_rounds() {
    use omnireduce_core::aggregator::OmniAggregator;
    use omnireduce_core::worker::OmniWorker;
    use omnireduce_transport::{ChannelNetwork, NodeId};
    use std::thread;

    let cfg = OmniConfig::new(2, 512)
        .with_block_size(16)
        .with_fusion(2)
        .with_streams(2);
    let mut net = ChannelNetwork::new(cfg.mesh_size());
    let agg_t = net.endpoint(NodeId(cfg.aggregator_node(0)));
    let agg_cfg = cfg.clone();
    let agg = thread::spawn(move || {
        let mut a = OmniAggregator::new(agg_t, agg_cfg);
        a.run().unwrap();
        a.stats
    });
    let rounds = 3;
    let mut handles = Vec::new();
    for w in 0..2 {
        let t = net.endpoint(NodeId(cfg.worker_node(w)));
        let cfg = cfg.clone();
        handles.push(thread::spawn(move || {
            let mut worker = OmniWorker::new(t, cfg);
            for r in 0..rounds {
                let mut tensor = gen::workers(
                    2,
                    512,
                    BlockSpec::new(16),
                    0.5,
                    1.0,
                    OverlapMode::Random,
                    500 + r,
                )
                .remove(w);
                worker.allreduce(&mut tensor).unwrap();
            }
            worker.shutdown().unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let stats = agg.join().unwrap();
    assert_eq!(stats.rounds_completed, rounds);
    assert!(stats.packets > 0);
    assert!(stats.blocks_received >= stats.slots_completed);
    assert!(stats.slots_completed > 0);
}
