//! Cross-crate telemetry consistency: the registry counters that the
//! protocol actors and the packet simulator publish must agree with the
//! ground-truth POD stats (`NicStats`, `SimOutcome`) for the same run.
//!
//! This is the contract the bench harness relies on when it dumps
//! `results/<slug>.metrics.json`: the JSON is an alternative view of the
//! same experiment, not a second (possibly drifting) measurement.

use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::sim::{bitmaps_from_sets, simulate_allreduce, SimSpec};
use omnireduce_core::sim_recovery::simulate_recovery_allreduce_with_telemetry;
use omnireduce_simnet::{Bandwidth, NicConfig, SimTime};
use omnireduce_telemetry::Telemetry;

fn small_cfg(n: usize) -> OmniConfig {
    OmniConfig::new(n, 4096)
        .with_block_size(64)
        .with_fusion(2)
        .with_streams(4)
        .with_aggregators(n)
}

/// Every worker dense except one hole, so all paths (send, skip, result)
/// are exercised.
fn bitmaps(n: usize, cfg: &OmniConfig) -> Vec<omnireduce_tensor::NonZeroBitmap> {
    let nblocks = cfg.tensor_len.div_ceil(64);
    let sets: Vec<Vec<bool>> = (0..n)
        .map(|w| (0..nblocks).map(|b| b % (w + 2) != 1).collect())
        .collect();
    bitmaps_from_sets(&sets)
}

#[test]
fn sim_counters_agree_with_nic_stats() {
    let n = 4;
    let cfg = small_cfg(n);
    let bms = bitmaps(n, &cfg);
    let telemetry = Telemetry::with_tracing(4096);
    let spec = SimSpec::dedicated(cfg, Bandwidth::gbps(10.0), SimTime::from_micros(5))
        .with_telemetry(telemetry.clone());
    let out = simulate_allreduce(&spec, &bms);

    let snap = telemetry.snapshot();

    // The simulator's fleet-wide NIC counters mirror the per-NIC stats.
    let bytes_tx: u64 = out.report.nic_stats.iter().map(|s| s.bytes_tx).sum();
    let bytes_rx: u64 = out.report.nic_stats.iter().map(|s| s.bytes_rx).sum();
    let packets_tx: u64 = out.report.nic_stats.iter().map(|s| s.packets_tx).sum();
    assert!(bytes_tx > 0, "the run must move data");
    assert_eq!(snap.counter("simnet.nic.bytes_tx"), bytes_tx);
    assert_eq!(snap.counter("simnet.nic.bytes_rx"), bytes_rx);
    assert_eq!(snap.counter("simnet.nic.packets_tx"), packets_tx);
    assert_eq!(snap.counter("simnet.nic.packets_lost"), 0);

    // Worker-side protocol counters agree with the outcome's byte count:
    // in dedicated mode worker NICs transmit exactly the worker payloads.
    assert_eq!(
        snap.counter("core.sim.worker.bytes_sent"),
        out.worker_tx_bytes
    );
    assert_eq!(
        snap.counter("core.sim.worker.rounds_completed"),
        n as u64,
        "every worker completes the round"
    );
    assert!(snap.counter("core.sim.worker.packets_sent") > 0);
    assert!(snap.counter("core.sim.aggregator.results_sent") > 0);

    // Queue-delay histogram totals mirror the NicStats sums.
    let delay_sum: u64 = out.report.nic_stats.iter().map(|s| s.queue_delay_sum).sum();
    let h = &snap.histograms["simnet.nic.queue_delay_ns"];
    assert_eq!(h.sum, delay_sum);
    assert_eq!(
        h.max,
        out.report
            .nic_stats
            .iter()
            .map(|s| s.queue_delay_max)
            .max()
            .unwrap_or(0)
    );

    // Tracing was enabled, so the run recorded spans and exports a
    // well-formed Chrome trace document.
    assert!(!telemetry.trace().is_empty());
    let chrome = telemetry.trace().to_chrome_json();
    assert!(chrome.starts_with('{') && chrome.contains("\"traceEvents\""));
}

#[test]
fn recovery_sim_counts_retransmissions_under_loss() {
    let n = 2;
    let cfg = small_cfg(n);
    let bms = bitmaps(n, &cfg);
    let nic = NicConfig::symmetric(Bandwidth::gbps(10.0), SimTime::from_micros(5));
    let telemetry = Telemetry::new();
    let out = simulate_recovery_allreduce_with_telemetry(
        &cfg.clone()
            .with_fixed_rto(Duration::from_micros(4000))
            .with_max_retransmits(1000),
        nic,
        nic,
        0.05,
        &bms,
        42,
        Some(&telemetry),
    );
    let snap = telemetry.snapshot();
    let lost: u64 = out.report.nic_stats.iter().map(|s| s.packets_lost).sum();
    assert_eq!(snap.counter("simnet.nic.packets_lost"), lost);
    assert!(lost > 0, "5% loss on this run must drop something");
    assert!(
        snap.counter("core.sim_recovery.timer_fires") > 0,
        "losses must fire retransmission timers"
    );
    assert!(
        snap.counter("core.sim_recovery.retransmissions") > 0,
        "fired timers must retransmit"
    );
    assert_eq!(
        snap.counter("simnet.nic.bytes_tx"),
        out.report.nic_stats.iter().map(|s| s.bytes_tx).sum::<u64>()
    );
}
