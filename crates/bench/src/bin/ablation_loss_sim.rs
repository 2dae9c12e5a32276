//! Ablation: Algorithm 2 on the simulated lossy fabric — the
//! deterministic companion to `fig21_loss` (which wall-clocks the
//! executable engines). Sweeps loss rate × retransmission timeout on a
//! 25 MB AllReduce at 10 Gbps and reports the completion-time increase
//! over the lossless run, plus the retransmitted-byte overhead.
//!
//! Timeout choice matters: a timeout below the *loaded* round-trip time
//! (incast queueing pushes RTT well past the idle α) triggers a
//! spurious-retransmission storm — at 500 µs this fabric takes ~250×
//! longer. The sweep therefore starts at 2 ms; the paper's DPDK
//! implementation faces the same constraint.

use omnireduce_bench::{micro_bitmaps, omni_config, telemetry, Table, Testbed};
use std::time::Duration;

use omnireduce_core::sim_recovery::simulate_recovery_allreduce_with_telemetry;
use omnireduce_tensor::gen::OverlapMode;

const N: usize = 8;
const S: f64 = 0.90;
/// 25 MB: the recovery protocol sends an ack from every worker in every
/// phase, so packet counts are N× the lossless protocol's.
const ELEMENTS: usize = 6_250_000;

fn main() {
    let cfg = omni_config(N, ELEMENTS);
    let bms = micro_bitmaps(N, ELEMENTS, S, OverlapMode::Random, 21);
    let nic = Testbed::Dpdk10.nic();
    let run = |loss: f64, timeout_us: u64| {
        simulate_recovery_allreduce_with_telemetry(
            &cfg.clone()
                .with_fixed_rto(Duration::from_micros(timeout_us))
                .with_max_retransmits(1000),
            nic,
            nic,
            loss,
            &bms,
            42,
            Some(telemetry()),
        )
    };
    let mut t = Table::new(
        "Ablation: simulated loss recovery (25 MB, s=90%, 10 Gbps)",
        &[
            "loss rate",
            "timeout [us]",
            "time [ms]",
            "delta vs lossless [ms]",
            "tx bytes overhead",
        ],
    );
    for timeout_us in [2000u64, 10000] {
        let base = run(0.0, timeout_us);
        for loss in [0.0001f64, 0.001, 0.01] {
            let out = run(loss, timeout_us);
            let delta = out.completion.as_millis_f64() - base.completion.as_millis_f64();
            let overhead = out.worker_tx_bytes as f64 / base.worker_tx_bytes as f64 - 1.0;
            t.row(vec![
                format!("{:.2}%", loss * 100.0),
                timeout_us.to_string(),
                format!("{:.2}", out.completion.as_millis_f64()),
                format!("{delta:.2}"),
                format!("{:.2}%", overhead * 100.0),
            ]);
        }
    }
    t.emit("ablation_loss_sim");
}
