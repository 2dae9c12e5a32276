//! `omnitop` — live terminal dashboard over the continuous time-series
//! telemetry (DESIGN §14).
//!
//! Renders sparklines for every sampled series plus the online detector
//! verdicts ([`run_detectors`]): loss bursts, RTO inflation, straggler
//! drift, slot-pool saturation and simnet partition imbalance.
//!
//! ```text
//! omnitop [--check] results/foo.timeseries.json   render a saved document
//! omnitop --demo [--check]                        seeded chaos demo
//! ```
//!
//! File mode renders a `*.timeseries.json` document (the files bench
//! binaries emit under `OMNIREDUCE_TIMESERIES`, or `/timeseries.json`
//! snapshots from the live introspection endpoint). With `--check` it
//! doubles as an SLO gate: exit 1 when any detector fires on the
//! document.
//!
//! `--demo` drives the full pipeline in-process: a background-sampled
//! telemetry watches real sharded recovery runs and simnet runs through
//! a scripted fault schedule — a burst-loss window, a straggling
//! worker, an RTO-inflation episode and a skewed-topology partition
//! imbalance, separated by clean gaps. `--check` turns the demo into a
//! gate: every detector must fire inside its own injected fault window,
//! stay silent on the clean control schedule, and a sampler-on chaos
//! run must produce bit-identical tensors to a sampler-off run.

use std::io::IsTerminal;
use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::group::Recovery;
use omnireduce_core::shard::ShardedAllReduce;
use omnireduce_core::sim::{bitmaps_from_sets, simulate_allreduce, SimSpec};
use omnireduce_simnet::{Bandwidth, RackTopology, SimTime};
use omnireduce_telemetry::{
    run_detectors, DetectorConfig, Gauge, Sampler, SeriesKind, Telemetry, TimeSeriesSnapshot,
    Verdict,
};
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{FaultPlan, KeyedLoss};
use omnireduce_transport::timer::RttEstimator;

struct Args {
    demo: bool,
    check: bool,
    input: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: omnitop [--demo] [--check] [file.timeseries.json]");
    eprintln!("  --demo    seeded chaos schedule driving every detector");
    eprintln!("  --check   gate: demo fault windows / file SLO; exit 1 on violation");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        demo: false,
        check: false,
        input: None,
    };
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--demo" => args.demo = true,
            "--check" => args.check = true,
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            path => {
                if args.input.replace(path.to_string()).is_some() {
                    usage();
                }
            }
        }
    }
    if args.demo == args.input.is_some() {
        usage(); // exactly one of --demo / file
    }
    args
}

// ---------------------------------------------------------------------------
// Demo fault schedule
// ---------------------------------------------------------------------------

/// What is injected during one tick of the demo schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Clean,
    /// Keyed packet loss on every chaos link (drives `loss_burst`).
    Loss,
    /// Worker 0 sleeps in its send path (drives `straggler_drift`).
    Straggler,
    /// The demo RTT estimator eats consecutive timeouts (drives
    /// `rto_inflation` on `demo.timer.rto_ns`).
    Rto,
    /// The simnet run uses a skewed rack topology (drives
    /// `partition_imbalance`).
    Imbalance,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Clean => "clean",
            Phase::Loss => "loss burst",
            Phase::Straggler => "straggler",
            Phase::Rto => "rto inflation",
            Phase::Imbalance => "partition imbalance",
        }
    }
}

/// Fault phases are separated by clean gaps longer than the detectors'
/// 8-tick sliding window, so a window that keeps firing after its fault
/// ended (drain) can never bridge into the next phase.
const SCHEDULE: &[(Phase, usize)] = &[
    (Phase::Clean, 8),
    (Phase::Loss, 6),
    (Phase::Clean, 10),
    (Phase::Straggler, 6),
    (Phase::Clean, 10),
    (Phase::Rto, 6),
    (Phase::Clean, 10),
    (Phase::Imbalance, 6),
    (Phase::Clean, 8),
];

/// 5 ms of sim-time between sampler ticks (`tick_at` timestamps only —
/// wall-clock per tick is whatever the chaos runs take).
const TICK_NS: u64 = 5_000_000;

/// Inclusive global tick range of each fault phase.
#[derive(Debug, Clone, Copy)]
struct PhaseRanges {
    loss: (usize, usize),
    straggler: (usize, usize),
    rto: (usize, usize),
    imbalance: (usize, usize),
}

fn phase_ranges() -> PhaseRanges {
    let mut r = PhaseRanges {
        loss: (0, 0),
        straggler: (0, 0),
        rto: (0, 0),
        imbalance: (0, 0),
    };
    let mut tick = 0;
    for &(phase, n) in SCHEDULE {
        let range = (tick, tick + n - 1);
        match phase {
            Phase::Clean => {}
            Phase::Loss => r.loss = range,
            Phase::Straggler => r.straggler = range,
            Phase::Rto => r.rto = range,
            Phase::Imbalance => r.imbalance = range,
        }
        tick += n;
    }
    r
}

fn total_ticks() -> usize {
    SCHEDULE.iter().map(|&(_, n)| n).sum()
}

/// Recovery deployment the chaos ticks run: 4 workers / 2 shards, small
/// tensors so a straggling worker's serialized send-path sleeps stay
/// well under the fixed RTO (no retransmissions leak into the loss
/// detector from the straggler phase).
fn chaos_cfg() -> OmniConfig {
    OmniConfig::new(4, 256)
        .with_block_size(32)
        .with_fusion(2)
        .with_streams(2)
        .with_aggregators(2)
        .with_fixed_rto(Duration::from_millis(500))
        .with_max_retransmits(40)
}

fn chaos_inputs() -> Vec<Tensor> {
    gen::workers(
        4,
        256,
        BlockSpec::new(32),
        0.5,
        1.0,
        OverlapMode::Random,
        0xA11CE,
    )
}

/// One sharded recovery run under the tick's fault plan. Worker 0 is
/// node 0 in every shard mesh, so `straggle(0, ..)` targets the same
/// worker on both shards.
fn chaos_tick(
    cfg: &OmniConfig,
    inputs: &[Tensor],
    telemetry: &Telemetry,
    phase: Phase,
    tick: usize,
) {
    let plan = |seed: u64| {
        let p = FaultPlan::new(seed);
        match phase {
            Phase::Loss => p.loss(KeyedLoss::uniform(0.25, 0.05)),
            Phase::Straggler => p.straggle(0, Duration::from_millis(50)),
            _ => p,
        }
    };
    let base = 0x0111_1000 + tick as u64;
    let plans = [plan(base), plan(base ^ 0x9E37_79B9_7F4A_7C15)];
    let rounds = inputs.iter().map(|t| vec![t.clone()]).collect();
    let out = ShardedAllReduce::run::<Recovery>(cfg, Some(&plans), rounds, Some(telemetry));
    for (w, o) in out.workers.iter().enumerate() {
        if let Err(e) = &o.result {
            eprintln!("omnitop --demo: tick {tick} worker {w} failed: {e:?}");
        }
    }
}

/// Simnet config for the partition-imbalance signal: 6 workers +
/// 2 aggregators = 8 NICs, split over 2 engine partitions.
fn sim_cfg() -> OmniConfig {
    OmniConfig::new(6, 4096)
        .with_block_size(64)
        .with_fusion(2)
        .with_streams(2)
        .with_aggregators(2)
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn sim_sets() -> Vec<Vec<bool>> {
    (0..6)
        .map(|w| {
            (0..64)
                .map(|b| mix(0x51A0 ^ ((w as u64) << 32) ^ b as u64) % 100 < 70)
                .collect()
        })
        .collect()
}

/// One simnet run feeding `simnet.partition.*` counters. Balanced ticks
/// use one-NIC racks (partition = NIC id mod 2: workers and aggregators
/// interleave evenly, busiest share ≈ 0.5). Imbalance ticks put NICs
/// 0..=6 (all six workers + aggregator 0) in one rack — partition 0
/// carries ≈ 3/4 of all events, over the 0.7 share threshold.
fn sim_tick(telemetry: &Telemetry, sets: &[Vec<bool>], skewed: bool) {
    let rack = if skewed { 7 } else { 1 };
    let spec = SimSpec::dedicated(sim_cfg(), Bandwidth::gbps(10.0), SimTime::from_micros(5))
        .with_topology(RackTopology::new(rack, SimTime::from_micros(20)))
        .with_threads(2)
        .with_telemetry(telemetry.clone());
    let _ = simulate_allreduce(&spec, &bitmaps_from_sets(sets));
}

/// Advances the demo RTT estimator and publishes `demo.timer.*` gauges.
/// Clean ticks sample a steady ~9.5–11.3 ms RTT and ack (resetting any
/// backoff); inflation ticks eat two consecutive timeouts, quadrupling
/// the armed RTO — past the detector's 3× baseline immediately.
fn est_tick(est: &mut RttEstimator, rto_g: &Gauge, srtt_g: &Gauge, inflate: bool, tick: usize) {
    if inflate {
        est.on_timeout();
        est.on_timeout();
    } else {
        est.sample(Duration::from_micros(9_500 + (tick as u64 % 7) * 300));
        est.ack();
    }
    rto_g.set(est.next_rto().as_nanos() as u64);
    srtt_g.set(est.srtt().map(|d| d.as_nanos() as u64).unwrap_or(0));
}

/// Straggler floor raised to 30 ms for the demo: clean chaos ticks see
/// µs-scale contribution delays plus occasional OS scheduling jitter,
/// and the injected straggler sleeps 50 ms per send — the floor sits
/// between the two.
fn demo_detector_cfg() -> DetectorConfig {
    let mut cfg = DetectorConfig::default();
    cfg.attrib.straggler_floor_ns = 30_000_000;
    cfg
}

/// Runs the scripted schedule (or its all-clean control twin) against a
/// fresh background-sampled telemetry; returns the final snapshot.
fn run_schedule(faulty: bool, live: bool) -> TimeSeriesSnapshot {
    let telemetry = Telemetry::with_pipeline(0, 0, 256);
    let cfg = chaos_cfg();
    let inputs = chaos_inputs();
    let sets = sim_sets();
    let rto_g = telemetry.gauge("demo.timer.rto_ns");
    let srtt_g = telemetry.gauge("demo.timer.srtt_ns");
    let mut est = RttEstimator::new(
        Duration::from_millis(10),
        Duration::from_millis(5),
        Duration::from_secs(2),
        0xBEEF,
    );

    // Warmup: register every instrument before the sampler scans, so
    // all series share the full tick axis and counter deltas start at
    // the schedule's first tick.
    chaos_tick(&cfg, &inputs, &telemetry, Phase::Clean, usize::MAX);
    sim_tick(&telemetry, &sets, false);
    est_tick(&mut est, &rto_g, &srtt_g, false, 0);

    let mut sampler = Sampler::new(&telemetry);
    let total = total_ticks();
    let mut tick = 0usize;
    for &(phase, n) in SCHEDULE {
        let injected = if faulty { phase } else { Phase::Clean };
        for _ in 0..n {
            let chaos_phase = match injected {
                Phase::Loss | Phase::Straggler => injected,
                _ => Phase::Clean,
            };
            chaos_tick(&cfg, &inputs, &telemetry, chaos_phase, tick);
            sim_tick(&telemetry, &sets, injected == Phase::Imbalance);
            est_tick(&mut est, &rto_g, &srtt_g, injected == Phase::Rto, tick);
            sampler.tick_at((tick as u64 + 1) * TICK_NS);
            tick += 1;
            if live {
                let snap = telemetry.series().snapshot();
                let verdicts = run_detectors(&snap, &demo_detector_cfg());
                print!("\x1b[2J\x1b[H");
                print!(
                    "{}",
                    render(
                        &snap,
                        &verdicts,
                        &format!("{}/{total} [{}]", tick, injected.label())
                    )
                );
            } else if tick == 1 || injected != Phase::Clean && phase_start(tick - 1) {
                eprintln!(
                    "omnitop --demo: tick {tick}/{total} entering {}",
                    injected.label()
                );
            }
        }
    }
    telemetry.series().snapshot()
}

/// True when `tick` is the first tick of its schedule segment.
fn phase_start(tick: usize) -> bool {
    let mut at = 0;
    for &(_, n) in SCHEDULE {
        if tick == at {
            return true;
        }
        at += n;
    }
    false
}

// ---------------------------------------------------------------------------
// Check gates
// ---------------------------------------------------------------------------

fn verdict<'a>(verdicts: &'a [Verdict], name: &str) -> &'a Verdict {
    verdicts
        .iter()
        .find(|v| v.detector == name)
        .unwrap_or_else(|| panic!("detector {name} missing from run_detectors output"))
}

/// Every fired window must sit inside one of the allowed inclusive
/// ranges (a drained sliding window may trail its fault, so callers
/// extend ranges by the window length where that applies).
fn windows_within(v: &Verdict, allowed: &[(usize, usize)]) -> bool {
    v.windows
        .iter()
        .all(|&(s, e)| allowed.iter().any(|&(a, b)| a <= s && e <= b))
}

fn fmt_windows(v: &Verdict) -> String {
    let spans: Vec<String> = v
        .windows
        .iter()
        .map(|&(s, e)| format!("[{s}..{e}]"))
        .collect();
    if spans.is_empty() {
        "-".to_string()
    } else {
        spans.join(" ")
    }
}

/// Demo gate on the faulty schedule: each detector fires inside its own
/// injected window and nowhere unexplained. Returns failure messages.
fn check_faulty(verdicts: &[Verdict], r: &PhaseRanges) -> Vec<String> {
    // A sliding-window detector keeps firing while the burst drains out
    // of its 8-tick window.
    let drain = 7;
    let mut fails = Vec::new();
    let mut expect_fire = |name: &str, own: (usize, usize), allowed: &[(usize, usize)]| {
        let v = verdict(verdicts, name);
        if !v.fired || !v.fired_within(own.0, own.1) {
            fails.push(format!(
                "{name}: expected to fire within its fault window [{}..{}], windows {}",
                own.0,
                own.1,
                fmt_windows(v)
            ));
        } else if !windows_within(v, allowed) {
            fails.push(format!(
                "{name}: fired outside every allowed range, windows {}",
                fmt_windows(v)
            ));
        }
    };

    expect_fire("loss_burst", r.loss, &[(r.loss.0, r.loss.1 + drain)]);
    // Heavy keyed loss genuinely delays contributions (a dropped NACK
    // leaves a block to the retransmit timer), so straggler drift may
    // legitimately co-fire during the loss window.
    expect_fire(
        "straggler_drift",
        r.straggler,
        &[(r.straggler.0, r.straggler.1), (r.loss.0, r.loss.1 + drain)],
    );
    expect_fire("rto_inflation", r.rto, &[(r.rto.0, r.rto.1)]);
    expect_fire(
        "partition_imbalance",
        r.imbalance,
        &[(r.imbalance.0, r.imbalance.1)],
    );

    let sat = verdict(verdicts, "slot_saturation");
    if sat.fired {
        fails.push(format!(
            "slot_saturation: demo never saturates, yet fired at {}",
            fmt_windows(sat)
        ));
    }
    fails
}

fn check_control(verdicts: &[Verdict]) -> Vec<String> {
    verdicts
        .iter()
        .filter(|v| v.fired)
        .map(|v| {
            format!(
                "{}: fired on the clean control schedule at {} ({})",
                v.detector,
                fmt_windows(v),
                v.detail
            )
        })
        .collect()
}

/// A background-sampled chaos run must be bit-identical to an
/// unsampled one: the sampler only ever reads. Single worker, so
/// keyed-loss fates fully determine both tensors and stats.
fn check_bit_identity() -> Vec<String> {
    let cfg = OmniConfig::new(1, 256)
        .with_block_size(32)
        .with_fusion(2)
        .with_streams(2)
        .with_aggregators(2)
        .with_fixed_rto(Duration::from_millis(50))
        .with_max_retransmits(60)
        .with_deterministic();
    let inputs: Vec<Vec<Tensor>> = gen::workers(
        1,
        256,
        BlockSpec::new(32),
        0.5,
        1.0,
        OverlapMode::Random,
        0xF00D,
    )
    .into_iter()
    .map(|t| vec![t])
    .collect();
    let plans = [
        FaultPlan::new(7).loss(KeyedLoss::uniform(0.25, 0.05)),
        FaultPlan::new(8).loss(KeyedLoss::uniform(0.25, 0.05)),
    ];

    let off = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs.clone(), None);

    let telemetry = Telemetry::with_pipeline(0, 0, 256);
    let sampler = match Sampler::spawn(&telemetry, Duration::from_micros(200)) {
        Ok(s) => s,
        Err(e) => return vec![format!("bit-identity: sampler spawn failed: {e}")],
    };
    let on = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs, Some(&telemetry));
    sampler.stop();

    let mut fails = Vec::new();
    let diff = off.workers[0].outputs[0].max_abs_diff(&on.workers[0].outputs[0]);
    if diff != 0.0 {
        fails.push(format!("bit-identity: sampled tensor differs by {diff}"));
    }
    if off.workers[0].stats != on.workers[0].stats {
        fails.push(format!(
            "bit-identity: recovery stats differ: off={:?} on={:?}",
            off.workers[0].stats, on.workers[0].stats
        ));
    }
    let ticks = telemetry.series().snapshot().ticks();
    if ticks < 2 {
        fails.push(format!("bit-identity: sampler recorded only {ticks} ticks"));
    }
    fails
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const SPARK_WIDTH: usize = 70;
const MAX_ROWS: usize = 28;

fn sparkline(values: &[u64]) -> String {
    let tail = &values[values.len().saturating_sub(SPARK_WIDTH)..];
    let max = tail.iter().copied().max().unwrap_or(0);
    tail.iter()
        .map(|&v| {
            if max == 0 {
                SPARK[0]
            } else {
                SPARK[((v as u128 * 7) / max as u128) as usize]
            }
        })
        .collect()
}

fn kind_tag(kind: SeriesKind) -> &'static str {
    match kind {
        SeriesKind::CounterDelta => "Δ",
        SeriesKind::Gauge => "=",
        SeriesKind::HistogramCount => "#",
        SeriesKind::HistogramP99 => "99",
    }
}

/// Detector-relevant series float to the top; the rest rank by total
/// activity so a bounded dashboard still shows what moved.
fn row_priority(name: &str) -> usize {
    const PINNED: &[&str] = &[
        "demo.timer.rto_ns",
        "core.recovery.retransmissions",
        "core.recovery.solicited_retransmissions",
        "core.recovery.agg.nacks_sent",
    ];
    if let Some(i) = PINNED.iter().position(|p| *p == name) {
        return i;
    }
    if name.contains(".contrib_delay_ns") {
        return 10;
    }
    if name.starts_with("simnet.partition.") {
        return 20;
    }
    usize::MAX
}

fn render(snap: &TimeSeriesSnapshot, verdicts: &[Verdict], progress: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "omnitop — ticks {progress}  series {}\n\n",
        snap.series.len()
    ));

    let mut rows: Vec<&omnireduce_telemetry::SeriesSnapshot> = snap.series.iter().collect();
    rows.sort_by_key(|s| {
        let activity: u64 = s.samples.iter().map(|&(_, v)| v).sum();
        (
            row_priority(&s.name),
            std::cmp::Reverse(activity),
            s.name.clone(),
        )
    });
    for s in rows.iter().take(MAX_ROWS) {
        let values = s.values();
        let last = values.last().copied().unwrap_or(0);
        out.push_str(&format!(
            "{:>2} {:<44} {} {}\n",
            kind_tag(s.kind),
            truncate(&s.name, 44),
            sparkline(&values),
            last
        ));
    }
    if snap.series.len() > MAX_ROWS {
        out.push_str(&format!(
            "   … {} more series\n",
            snap.series.len() - MAX_ROWS
        ));
    }

    out.push('\n');
    for v in verdicts {
        let mark = if v.fired { "FIRE" } else { " ok " };
        out.push_str(&format!(
            "[{mark}] {:<20} {:<16} {}\n",
            v.detector,
            fmt_windows(v),
            truncate(&v.detail, 80)
        ));
    }
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

fn run_demo(check: bool) -> i32 {
    let live = !check && std::io::stdout().is_terminal();
    let ranges = phase_ranges();
    let snap = run_schedule(true, live);
    let verdicts = run_detectors(&snap, &demo_detector_cfg());

    if !live {
        print!(
            "{}",
            render(&snap, &verdicts, &format!("{0}/{0} [done]", total_ticks()))
        );
    }
    if !check {
        return 0;
    }

    let mut fails = check_faulty(&verdicts, &ranges);

    eprintln!("omnitop --check: running clean control schedule");
    let control = run_schedule(false, false);
    fails.extend(check_control(&run_detectors(
        &control,
        &demo_detector_cfg(),
    )));

    eprintln!("omnitop --check: sampler bit-identity run");
    fails.extend(check_bit_identity());

    if fails.is_empty() {
        println!(
            "CHECK PASS: 4 detectors fired on their fault windows (loss {:?}, straggler {:?}, rto {:?}, imbalance {:?}), control schedule silent, sampled run bit-identical",
            ranges.loss, ranges.straggler, ranges.rto, ranges.imbalance
        );
        0
    } else {
        for f in &fails {
            eprintln!("CHECK FAIL: {f}");
        }
        1
    }
}

fn run_file(path: &str, check: bool) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("omnitop: {path}: {e}");
            return 1;
        }
    };
    let snap = match TimeSeriesSnapshot::from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("omnitop: {path}: {e}");
            return 1;
        }
    };
    let verdicts = run_detectors(&snap, &DetectorConfig::default());
    print!(
        "{}",
        render(&snap, &verdicts, &format!("{0}/{0} [{path}]", snap.ticks()))
    );
    if check {
        let fired: Vec<&str> = verdicts
            .iter()
            .filter(|v| v.fired)
            .map(|v| v.detector)
            .collect();
        if !fired.is_empty() {
            eprintln!(
                "CHECK FAIL: detectors fired on {path}: {}",
                fired.join(", ")
            );
            return 1;
        }
        println!("CHECK PASS: no detector fired on {path}");
    }
    0
}

fn main() {
    let args = parse_args();
    let code = if args.demo {
        run_demo(args.check)
    } else {
        run_file(
            args.input.as_deref().expect("validated by parse_args"),
            args.check,
        )
    };
    std::process::exit(code);
}
