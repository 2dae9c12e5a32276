//! Figure 21 (Appendix D): AllReduce slowdown under packet loss.
//!
//! OmniReduce columns: the *executable* Algorithm 2 engines run over
//! channel endpoints wrapped in a keyed-loss `FaultPlan`, wall-clock
//! measured on the host — the
//! real retransmission machinery at loss rates 0.01%, 0.1% and 1%, for
//! three sparsity levels, reported as the time difference vs a lossless
//! run (the paper's metric).
//!
//! Gloo / NCCL-TCP columns: TCP under random loss follows the Mathis
//! throughput bound `BW ≈ MSS/(RTT·√p)·√(3/2)`, which collapses at 1%
//! loss — reproducing the sharp drop the paper attributes to TCP
//! congestion control. Modelled on the ring AllReduce volume.

use std::time::Instant;

use omnireduce_bench::{Table, Testbed, MICROBENCH_ELEMENTS};
use omnireduce_core::config::OmniConfig;
use omnireduce_core::testing::run_recovery_group;
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::BlockSpec;
use omnireduce_transport::{ChannelNetwork, ChaosNetwork, FaultPlan, KeyedLoss};

const N: usize = 2;
/// 4 MB executable tensors (wall-clock measurement, single-core box).
const ELEMENTS: usize = 1 << 20;

fn measure(sparsity: f64, loss: f64) -> f64 {
    let mut cfg = OmniConfig::new(N, ELEMENTS)
        .with_block_size(256)
        .with_fusion(4)
        .with_streams(16);
    cfg.retransmit_timeout = std::time::Duration::from_millis(10);
    let inputs = gen::workers(
        N,
        ELEMENTS,
        BlockSpec::new(256),
        sparsity,
        1.0,
        OverlapMode::Random,
        9,
    );
    let plan = FaultPlan::new(77).loss(KeyedLoss::uniform(loss, 0.0));
    let endpoints = ChaosNetwork::wrap(
        ChannelNetwork::new(cfg.mesh_size()).endpoints(),
        &plan,
        None,
    );
    let start = Instant::now();
    let _ = run_recovery_group(
        &cfg,
        endpoints,
        inputs.into_iter().map(|t| vec![t]).collect(),
    );
    start.elapsed().as_secs_f64()
}

/// Mathis-model TCP slowdown for ring AllReduce volume at loss `p`.
fn tcp_penalty_ms(p: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    let rtt = 100e-6;
    let mss = 1448.0;
    let line = Testbed::Dpdk10.bandwidth().as_bytes_per_sec();
    let mathis = mss / (rtt * p.sqrt()) * (1.5f64).sqrt();
    let eff = mathis.min(line);
    let bytes = 2.0 * (8.0 - 1.0) / 8.0 * (MICROBENCH_ELEMENTS as f64 * 4.0);
    (bytes / eff - bytes / line) * 1e3
}

fn main() {
    let mut t = Table::new(
        "Fig 21: AllReduce time increase under packet loss [ms]",
        &[
            "loss rate",
            "OmniReduce s=0%",
            "OmniReduce s=90%",
            "OmniReduce s=99%",
            "Gloo/NCCL-TCP (model)",
        ],
    );
    // Median of 3 lossless baselines per sparsity (wall clock is noisy).
    let median3 = |s: f64, l: f64| {
        let mut v = [measure(s, l), measure(s, l), measure(s, l)];
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[1]
    };
    let base: Vec<f64> = [0.0, 0.90, 0.99].iter().map(|s| median3(*s, 0.0)).collect();
    for loss in [0.0001f64, 0.001, 0.01] {
        let mut row = vec![format!("{:.2}%", loss * 100.0)];
        for (i, s) in [0.0, 0.90, 0.99].iter().enumerate() {
            let lossy = median3(*s, loss);
            row.push(format!("{:.2}", (lossy - base[i]).max(0.0) * 1e3));
        }
        row.push(format!("{:.2}", tcp_penalty_ms(loss)));
        t.row(row);
    }
    t.emit("fig21_loss");
}
