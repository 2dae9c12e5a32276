//! Ablation: hot-standby aggregator failover — recovery time vs
//! replicated state size (DESIGN §12).
//!
//! For each tensor size, runs one clean AllReduce (primary healthy,
//! checkpoint replication on) and one chaos AllReduce whose shard-0
//! primary is crashed mid-stream by a seeded [`FaultPlan`]. The chaos
//! run must complete via the standby **bit-identical** to the clean
//! run — §7 deterministic aggregation plus synchronous phase
//! checkpointing make that an exact comparison, not a tolerance.
//!
//! Recovery time is taken from the flight recorder, not wall-clock
//! guesswork: each worker stamps `FailoverBegin` when it re-targets the
//! standby and `FailoverEnd` (aux = downtime ns) when the standby first
//! answers. The reported downtime is the per-worker maximum — the
//! collective's blackout window.
//!
//! The interesting shape: downtime stays roughly flat as state grows,
//! because the standby already holds every completed phase via
//! checkpoint deltas and rebuilds only the in-flight phases from
//! retransmissions. `--check` turns the measurement into a CI gate:
//!
//! * every chaos run must fail over (exactly one failover per worker)
//!   and finish bit-identical to its clean twin;
//! * max downtime must stay within [`REGRESSION_FACTOR`]× the committed
//!   baseline `results/ablation_failover.baseline.json` (written on
//!   first run).

use std::time::{Duration, Instant};

use omnireduce_bench::{env_knobs, Table};
use omnireduce_core::config::OmniConfig;
use omnireduce_core::group::{self, Nodes, Recovery};
use omnireduce_core::recovery::RecoveryStats;
use omnireduce_core::testing::with_deadline;
use omnireduce_telemetry::json::JsonValue;
use omnireduce_telemetry::{FlightEventKind, LaneRole, Telemetry};
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{ChaosNetwork, FaultPlan};
use omnireduce_transport::ChannelNetwork;

const N: usize = 2;
const SPARSITY: f64 = 0.5;
const SEED: u64 = 2021;
/// Message count on the primary's node clock after which it crashes —
/// early enough that phases are still in flight, late enough that
/// checkpoints have shipped.
const CRASH_AFTER: u64 = 3;
const BASELINE_PATH: &str = "results/ablation_failover.baseline.json";
/// `--check` fails when max downtime exceeds baseline by this factor.
/// Downtime is dominated by the worker-side detection budget
/// (`max_retransmits` × RTO), not machine speed, but wall-clock timers
/// on a loaded CI box still jitter — hence the generous belt.
const REGRESSION_FACTOR: f64 = 4.0;
/// Floor for the recorded baseline (ms): one fully backed-off RTO
/// (`rto_max` = 50 ms in [`failover_cfg`]) is a legitimate detection
/// delay, so a lucky fast run must not commit a baseline the next
/// (loaded) run can't meet. The gate's job is to catch order-of-
/// magnitude regressions — detection taking seconds — not µs jitter.
const BASELINE_FLOOR_MS: f64 = 50.0;

struct Outcome {
    outputs: Vec<Tensor>,
    worker_stats: Vec<RecoveryStats>,
    checkpoints_sent: u64,
    checkpoints_applied: u64,
    /// Max per-worker `FailoverEnd` aux (ns); 0 when no failover.
    downtime_ns: u64,
    wall_ms: f64,
}

fn failover_cfg(elements: usize) -> OmniConfig {
    env_knobs::apply(
        OmniConfig::new(N, elements)
            .with_block_size(64)
            .with_fusion(2)
            .with_streams(2)
            .with_deterministic()
            .with_hot_standby()
            .with_initial_rto(Duration::from_millis(5))
            .with_rto_bounds(Duration::from_millis(2), Duration::from_millis(50))
            .with_max_retransmits(6)
            .with_eviction_timeout(Duration::from_secs(5)),
    )
}

/// One AllReduce over a chaos-wrapped channel mesh: workers, per-shard
/// primaries, per-shard hot standbys. The group driver keeps a crashed
/// primary's endpoint alive until the workers are done, so it
/// black-holes packets (UDP semantics) instead of signalling a closed
/// connection.
fn run(cfg: &OmniConfig, plan: &FaultPlan, inputs: &[Tensor]) -> Outcome {
    let telemetry = Telemetry::with_observability(0, 1 << 16);
    let mesh = ChannelNetwork::new(cfg.mesh_size()).endpoints();
    let endpoints = ChaosNetwork::wrap(mesh, plan, Some(&telemetry));
    let rounds = inputs.iter().map(|t| vec![t.clone()]).collect();

    let start = Instant::now();
    let out = group::run::<Recovery>(
        cfg,
        Nodes::mesh(cfg, endpoints),
        rounds,
        Some(&telemetry),
        None,
    );
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    for (w, o) in out.workers.iter().enumerate() {
        assert!(o.result.is_ok(), "worker {w} failed: {:?}", o.result);
    }
    for (res, _) in &out.standbys {
        assert!(res.is_ok(), "standby failed: {res:?}");
    }
    let downtime_ns = telemetry
        .flight()
        .snapshot()
        .lanes
        .iter()
        .filter(|l| l.role == LaneRole::Worker)
        .map(|l| {
            l.events
                .iter()
                .filter(|e| e.kind == FlightEventKind::FailoverEnd)
                .map(|e| e.aux)
                .sum::<u64>()
        })
        .max()
        .unwrap_or(0);
    Outcome {
        checkpoints_sent: out.aggs.iter().map(|(_, s)| s.checkpoints_sent).sum(),
        checkpoints_applied: out
            .standbys
            .iter()
            .map(|(_, s)| s.checkpoints_applied)
            .sum(),
        worker_stats: out.workers.iter().map(|o| o.stats).collect(),
        outputs: out
            .workers
            .into_iter()
            .map(|mut o| o.outputs.remove(0))
            .collect(),
        downtime_ns,
        wall_ms,
    }
}

fn read_baseline() -> Option<f64> {
    let text = std::fs::read_to_string(BASELINE_PATH).ok()?;
    let v = match omnireduce_bench::parse_versioned(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("CHECK FAIL: {BASELINE_PATH}: {e}");
            std::process::exit(1);
        }
    };
    v.get("max_downtime_ms")?.as_f64()
}

fn write_baseline(max_downtime_ms: f64) {
    if std::fs::create_dir_all("results").is_err() {
        return;
    }
    let mut obj = JsonValue::obj();
    obj.push(
        "version",
        JsonValue::Uint(omnireduce_bench::RESULTS_SCHEMA_VERSION),
    );
    obj.push("max_downtime_ms", JsonValue::Float(max_downtime_ms));
    obj.push(
        "note",
        JsonValue::Str(
            "committed recovery-time ceiling for `ablation_failover --check` (measured max, \
             floored at one fully backed-off RTO); regenerate by deleting this file and \
             re-running the bench"
                .to_string(),
        ),
    );
    let _ = std::fs::write(BASELINE_PATH, obj.to_string_pretty());
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let mut t = Table::new(
        "Ablation: hot-standby failover — recovery time vs replicated state (DESIGN §12)",
        &[
            "elements",
            "state [KiB]",
            "ckpt sent",
            "ckpt applied",
            "failovers",
            "downtime [ms]",
            "clean [ms]",
            "chaos [ms]",
            "output==clean",
        ],
    );

    let mut max_downtime_ms = 0.0f64;
    let mut failed = false;
    for shift in [12usize, 14, 16] {
        let elements = 1usize << shift;
        let cfg = failover_cfg(elements);
        let inputs = gen::workers(
            N,
            elements,
            BlockSpec::new(64),
            SPARSITY,
            1.0,
            OverlapMode::Random,
            SEED ^ shift as u64,
        );

        let cfg2 = cfg.clone();
        let inputs2 = inputs.clone();
        let clean = with_deadline(Duration::from_secs(300), move || {
            run(&cfg2, &FaultPlan::new(1), &inputs2)
        });
        assert_eq!(
            clean.worker_stats.iter().map(|s| s.failovers).sum::<u64>(),
            0,
            "clean run must not fail over"
        );

        let plan = FaultPlan::new(SEED ^ 0xF417).crash_after(cfg.aggregator_node(0), CRASH_AFTER);
        let cfg2 = cfg.clone();
        let inputs2 = inputs.clone();
        let chaos = with_deadline(Duration::from_secs(300), move || {
            run(&cfg2, &plan, &inputs2)
        });

        let identical = chaos
            .outputs
            .iter()
            .zip(&clean.outputs)
            .all(|(a, b)| a.max_abs_diff(b) == 0.0);
        let failovers: u64 = chaos.worker_stats.iter().map(|s| s.failovers).sum();
        let downtime_ms = chaos.downtime_ns as f64 / 1e6;
        max_downtime_ms = max_downtime_ms.max(downtime_ms);

        if !identical {
            eprintln!("CHECK FAIL: {elements} elements: chaos output diverges from clean run");
            failed = true;
        }
        if failovers != N as u64 {
            eprintln!(
                "CHECK FAIL: {elements} elements: expected every worker to fail over once \
                 (got {failovers} across {N} workers)"
            );
            failed = true;
        }
        t.row(vec![
            elements.to_string(),
            format!("{}", elements * 4 / 1024),
            chaos.checkpoints_sent.to_string(),
            chaos.checkpoints_applied.to_string(),
            failovers.to_string(),
            format!("{downtime_ms:.2}"),
            format!("{:.2}", clean.wall_ms),
            format!("{:.2}", chaos.wall_ms),
            identical.to_string(),
        ]);
    }
    t.emit("ablation_failover");

    if !check {
        if failed {
            std::process::exit(1);
        }
        return;
    }
    match read_baseline() {
        Some(base) => {
            let limit = base * REGRESSION_FACTOR;
            if max_downtime_ms > limit {
                eprintln!(
                    "CHECK FAIL: max downtime {max_downtime_ms:.2} ms exceeds \
                     {REGRESSION_FACTOR}x baseline ({base:.2} ms)"
                );
                failed = true;
            } else {
                println!(
                    "check: max downtime {max_downtime_ms:.2} ms within {REGRESSION_FACTOR}x \
                     of baseline {base:.2} ms"
                );
            }
        }
        None => {
            let committed = max_downtime_ms.max(BASELINE_FLOOR_MS);
            println!("check: no baseline at {BASELINE_PATH}; writing {committed:.2} ms");
            write_baseline(committed);
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("check: every chaos run failed over and completed bit-identical to its clean twin");
}
