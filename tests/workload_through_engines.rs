//! Integration: Table-1 workload gradients through the *executable*
//! engines. DeepLight-profile gradients (run-structured, hot/cold
//! overlap) are aggregated by the loss-recovery engines over a lossy
//! transport; the result must equal the reference sum and the measured
//! communication fraction must match the profile's Table 1 column.

use omnireduce::core::config::OmniConfig;
use omnireduce::core::testing::{run_group, run_recovery_group, with_deadline};
use omnireduce::tensor::dense::reference_sum;
use omnireduce::transport::{ChannelNetwork, ChaosNetwork, FaultPlan, KeyedLoss};
use omnireduce::workloads::{Workload, WorkloadName};

#[test]
fn deeplight_gradients_through_recovery_engines() {
    // Watchdog: a stalled recovery collective fails fast instead of
    // wedging CI.
    with_deadline(
        std::time::Duration::from_secs(120),
        deeplight_gradients_through_recovery_engines_body,
    );
}

fn deeplight_gradients_through_recovery_engines_body() {
    let profile = Workload::get(WorkloadName::DeepLight);
    let workers = 3;
    let elements = 1 << 18; // 1 MB slice of the embedding table
    let inputs = profile.worker_gradients(workers, elements, 17);
    let expect = reference_sum(&inputs);

    let mut cfg = OmniConfig::new(workers, elements)
        .with_block_size(256)
        .with_fusion(4)
        .with_streams(8);
    cfg.retransmit_timeout = std::time::Duration::from_millis(5);
    let plan = FaultPlan::new(23).loss(KeyedLoss::uniform(0.02, 0.0));
    let endpoints = ChaosNetwork::wrap(
        ChannelNetwork::new(cfg.mesh_size()).endpoints(),
        &plan,
        None,
    );
    let result = run_recovery_group(
        &cfg,
        endpoints,
        inputs.iter().map(|t| vec![t.clone()]).collect(),
    );
    for (w, outs) in result.outputs.iter().enumerate() {
        assert!(
            outs[0].approx_eq(&expect, 1e-4),
            "worker {w} diverges by {}",
            outs[0].max_abs_diff(&expect)
        );
    }
}

#[test]
fn ncf_communication_fraction_matches_table1() {
    // Lossless engines so byte counters are exact (no retransmissions),
    // dense traffic baseline = tensor bytes + proportional metadata.
    let profile = Workload::get(WorkloadName::Ncf);
    let workers = 2;
    let elements = 1 << 20;
    let inputs = profile.worker_gradients(workers, elements, 29);

    let cfg = OmniConfig::new(workers, elements)
        .with_block_size(256)
        .with_fusion(4)
        .with_streams(16);
    let result = run_group(&cfg, inputs.iter().map(|t| vec![t.clone()]).collect());
    let expect = reference_sum(&inputs);
    for outs in &result.outputs {
        assert!(outs[0].approx_eq(&expect, 1e-4));
    }
    for (w, stats) in result.stats.iter().enumerate() {
        let frac = stats.bytes_sent as f64 / (elements as f64 * 4.0);
        // Table 1: NCF ≈ 41% (± generator noise, metadata, first rows).
        assert!(
            (frac - profile.comm_fraction).abs() < 0.10,
            "worker {w} sent {:.1}% vs Table 1 {:.1}%",
            frac * 100.0,
            profile.comm_fraction * 100.0
        );
    }
}

#[test]
fn lstm_block_compression_through_engines() {
    // Compress LSTM-profile gradients with Block Top-k at 1% — tighter
    // than the gradient's natural ~6% non-zero fraction, so traffic
    // actually shrinks — and aggregate: the sum matches the sum of the
    // *compressed* tensors.
    use omnireduce::sparsify::{BlockTopK, Compressor};
    use omnireduce::tensor::{BlockSpec, Tensor};

    let profile = Workload::get(WorkloadName::Lstm);
    let workers = 2;
    let elements = 1 << 18;
    let raw = profile.worker_gradients(workers, elements, 31);
    let params = Tensor::zeros(elements);
    let compressed: Vec<Tensor> = raw
        .iter()
        .map(|g| BlockTopK::new(0.01, BlockSpec::new(256)).compress(g, &params))
        .collect();
    let expect = reference_sum(&compressed);

    let cfg = OmniConfig::new(workers, elements)
        .with_block_size(256)
        .with_fusion(4)
        .with_streams(8);
    let result = run_group(&cfg, compressed.iter().map(|t| vec![t.clone()]).collect());
    for outs in &result.outputs {
        assert!(outs[0].approx_eq(&expect, 1e-4));
    }
    // Compression on top of natural sparsity cuts traffic well below the
    // raw gradients'.
    let raw_result = run_group(&cfg, raw.iter().map(|t| vec![t.clone()]).collect());
    assert!(result.stats[0].bytes_sent < raw_result.stats[0].bytes_sent);
}
