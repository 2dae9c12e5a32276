//! `omnibench`: one AllReduce benchmark for the OmniReduce reproduction.
//!
//! ```text
//! omnibench --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! omnibench run | trace | selfcheck [--seed N] [--seconds S]   every workload, a process each
//! omnibench                                                  run, then trace
//! omnibench manifest                                         print BENCHMARK.json
//! ```
//!
//! With `--trace 0` a workload reports the end-to-end metrics, measured
//! with no instrumentation in place. With `--trace 1` half its
//! repetitions run with every endpoint wrapped in a `TracedTransport`,
//! the replay lanes run, and it reports the per-layer metrics. See
//! `README.md` beside this package for definitions and bounds.

mod budget;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Duration;

use omnireduce_telemetry::alloc::CountingAllocator;
use omnireduce_telemetry::json::JsonValue;
use omnireduce_telemetry::{AttributionConfig, RoundAttribution, Telemetry};
use omnireduce_tensor::Tensor;

use budget::Item;
use report::{MetricSpec, Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use trace::{Role, RoleSummary, TraceHub};
use workloads::{Deployment, Instrument, MeshKind, Rep, Workload};

// Counts heap allocations per thread, so a traced run can report the
// allocations a worker makes inside a round.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Repetitions of a run: each a fresh deployment with its own set-up. A
/// traced run alternates untraced and traced repetitions.
const REPS: usize = 10;
/// Rounds whose spans the trace file keeps whole.
const TRACE_FILE_ROUNDS: u32 = 6;
/// Measuring time of the flight-recorder cross-check repetition.
const FLIGHT_CHECK_TIME: Duration = Duration::from_millis(300);
/// Flight-recorder ring per lane: holds every event of the cross-check.
const FLIGHT_RING: usize = 1 << 18;

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--selfcheck" => args.command = Some("selfcheck".into()),
            "run" | "trace" | "selfcheck" | "manifest" if args.command.is_none() => {
                args.command = Some(a)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omnibench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), &args.workload) {
        (Some("manifest"), _) => {
            print!("{}", report::manifest());
            true
        }
        (None, Some(name)) => match workloads::all().into_iter().find(|w| w.name == name) {
            Some(w) => single(&w, &args),
            None => {
                eprintln!("omnibench: no workload named {name}");
                return ExitCode::from(2);
            }
        },
        (Some("run"), _) => every_workload(&args, false).is_some(),
        (Some("trace"), _) => every_workload(&args, true)
            .map(|r| separations(&r))
            .is_some(),
        (Some("selfcheck"), _) => selfcheck(&args),
        _ => {
            every_workload(&args, false).is_some()
                & every_workload(&args, true)
                    .map(|r| separations(&r))
                    .is_some()
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------

/// What the repetitions of one run came to.
#[derive(Default)]
struct Run {
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    attempted: u64,
    failed: u64,
}

fn run_reps(w: &Workload, args: &Args) -> Run {
    let budget = Duration::from_secs_f64(args.seconds / REPS as f64);
    let mut run = Run::default();
    for traced in (0..REPS).map(|i| args.trace && i % 2 == 1) {
        let inst = Instrument {
            hub: traced.then(|| Arc::new(TraceHub::default())),
            telemetry: None,
        };
        match workloads::repetition(w, args.seed, budget, &inst) {
            Ok(rep) => {
                run.attempted += rep.attempted;
                run.failed += rep.failed;
                if traced {
                    run.traced.push(rep);
                } else {
                    run.untraced.push(rep);
                }
            }
            Err(e) => {
                // The stalled repetition's threads still hold cores and
                // ports: nothing measured after it would mean anything.
                eprintln!("omnibench: {}: {e}", w.name);
                run.attempted += 1;
                run.failed += 1;
                break;
            }
        }
    }
    run
}

fn sorted_round_ms(reps: &[Rep]) -> Vec<f64> {
    let mut v: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect();
    stats::sort(&mut v);
    v
}

/// The value of `f` in the quietest quarter of the repetitions that have
/// one (see [`stats::quiet_quartile`]); 0 when none has.
fn quiet(reps: &[Rep], lower_is_better: bool, f: impl Fn(&Rep) -> Option<f64>) -> f64 {
    let mut v: Vec<f64> = reps.iter().filter_map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        stats::quiet_quartile(&mut v, lower_is_better)
    }
}

fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        stats::percentile(sorted, q)
    }
}

fn end_to_end(w: &Workload, run: &mut Run) -> Values {
    let mut v = Values::default();
    let reps = &run.untraced;
    v.set("round_p50_ms", quiet(reps, true, |r| r.percentile_ms(0.5)));
    v.set("round_p90_ms", quiet(reps, true, |r| r.percentile_ms(0.9)));
    v.set("tensor_gbps", quiet(reps, false, |r| Some(r.tensor_gbps)));
    let mut bytes: Vec<f64> = reps.iter().map(|r| r.wire_bytes_per_round).collect();
    if !bytes.is_empty() {
        v.set("wire_bytes_per_round", stats::median(&mut bytes));
    }
    v.set("peak_rss_mb", report::peak_rss_mb());
    v.set("setup_s", quiet(reps, true, |r| Some(r.setup_s)));
    let p50s: Vec<f64> = reps.iter().filter_map(|r| r.percentile_ms(0.5)).collect();
    println!("{:<14} per-repetition p50 [ms]: {p50s:.3?}", w.name);
    // On a lossless deployment the bytes a round puts on the wire follow
    // from its inputs alone: repetitions that disagree are a failure.
    let lossless = !matches!(
        w.deployment,
        Deployment::Group {
            mesh: MeshKind::Udp,
            ..
        }
    );
    let bytes = |r: &Rep| r.wire_bytes_per_round.to_bits();
    if lossless
        && run
            .untraced
            .windows(2)
            .any(|p| bytes(&p[0]) != bytes(&p[1]))
    {
        eprintln!(
            "omnibench: {}: wire bytes per round differ between repetitions",
            w.name
        );
        run.failed += 1;
    }
    v
}

/// First template round of the workload's inputs, one tensor per worker,
/// for the replay lanes.
fn replay_round(w: &Workload, seed: u64) -> Option<(omnireduce_core::OmniConfig, Vec<Tensor>)> {
    match &w.deployment {
        Deployment::Group { cfg, sparsity, .. } => Some((
            cfg.clone(),
            workloads::template_round(cfg, *sparsity, seed, 0),
        )),
        // A tenant's frames carry its stream id in a longer header.
        Deployment::Tenants { cfg, sparsity } => Some((
            cfg.clone().with_stream_id(1),
            workloads::template_round(cfg, *sparsity, seed, 0),
        )),
        Deployment::Simnet { .. } => None,
    }
}

fn per_layer(w: &Workload, args: &Args, run: &Run) -> (Values, [RoleSummary; 2]) {
    let mut v = Values::default();
    let all: Vec<&Rep> = run.untraced.iter().chain(&run.traced).collect();
    let sum = |f: fn(&Rep) -> u64| all.iter().map(|r| f(r)).sum::<u64>() as f64;
    let rounds = sum(|r| r.counts.rounds).max(1.0);

    // Exact counts, per round, summed over the workers.
    v.set(
        "core.worker.packets_per_round",
        sum(|r| r.counts.worker_packets) / rounds,
    );
    v.set(
        "core.worker.blocks_per_round",
        sum(|r| r.counts.worker_blocks) / rounds,
    );
    v.set(
        "core.worker.results_per_round",
        sum(|r| r.counts.worker_results) / rounds,
    );
    v.set(
        "core.aggregator.slots_per_round",
        sum(|r| r.counts.agg_results) / rounds,
    );
    v.set(
        "core.recovery.retransmissions_per_round",
        sum(|r| r.counts.retransmissions) / rounds,
    );
    v.set(
        "core.recovery.timer_fires_per_round",
        sum(|r| r.counts.timer_fires) / rounds,
    );
    v.set(
        "core.recovery.stale_results_per_round",
        sum(|r| r.counts.stale_results) / rounds,
    );
    let measured = sum(|r| r.attempted).max(1.0);
    v.set(
        "core.worker.allocs_per_round",
        sum(|r| r.worker_allocs) / measured,
    );

    // Diagnostics of the run itself.
    let untraced_ms = sorted_round_ms(&run.untraced);
    v.set("diag.round_p99_ms", percentile_or_zero(&untraced_ms, 0.99));
    let mut p50s: Vec<f64> = run
        .untraced
        .iter()
        .filter_map(|r| r.percentile_ms(0.5))
        .collect();
    if !p50s.is_empty() {
        v.set("diag.round_p50_rep_spread", stats::rel_spread(&mut p50s));
    }
    let p50_untraced = quiet(&run.untraced, true, |r| r.percentile_ms(0.5));
    if p50_untraced > 0.0 {
        let p50_traced = quiet(&run.traced, true, |r| r.percentile_ms(0.5));
        v.set("diag.trace_overhead", p50_traced / p50_untraced);
    }

    // In-situ spans: every lane of every traced repetition.
    let lanes = || run.traced.iter().flat_map(|r| &r.lanes);
    let (ws, ags) = (
        trace::summarize(lanes(), Role::Worker),
        trace::summarize(lanes(), Role::Aggregator),
    );
    let worker_rounds = ws.top_spans.max(1) as f64;
    // Rounds the aggregator lanes served: each repetition's rounds once,
    // not once per worker.
    let traced_rounds = worker_rounds * ags.lanes.max(1) as f64 / ws.lanes.max(1) as f64;
    let side = |v: &mut Values, s: &RoleSummary, per: f64, names: [&'static str; 4]| {
        v.set(names[0], s.send_ns_per_msg());
        v.set(names[1], s.send_share());
        v.set(names[2], s.recv_wait_share());
        v.set(names[3], (s.sends + s.recvs) as f64 / per);
    };
    side(
        &mut v,
        &ws,
        worker_rounds,
        [
            "transport.worker.send_ns_per_msg",
            "transport.worker.send_share",
            "transport.worker.recv_wait_share",
            "transport.worker.msgs_per_round",
        ],
    );
    side(
        &mut v,
        &ags,
        traced_rounds,
        [
            "transport.agg.send_ns_per_msg",
            "transport.agg.send_share",
            "transport.agg.recv_wait_share",
            "transport.agg.msgs_per_round",
        ],
    );
    let worker_self_ns = ws.self_ns as f64 / worker_rounds;
    let agg_self_ns = ags.self_ns as f64 / traced_rounds;
    v.set("core.worker.self_ms_per_round", worker_self_ns / 1e6);
    v.set("core.aggregator.self_ms_per_round", agg_self_ns / 1e6);
    if ags.top_ns > 0 {
        v.set("core.aggregator.busy_share", 1.0 - ags.recv_wait_share());
    }

    // Replay lanes and the budget they add up to.
    if let Some((cfg, round)) = replay_round(w, args.seed) {
        let refs: Vec<&Tensor> = round.iter().collect();
        let c = replay::data_plane(&cfg, &refs);
        v.set("tensor.block.reduce_gbps", c.reduce_gbps);
        v.set("core.slot.store_take_ns_per_slot", c.store_take_ns_per_slot);
        v.set(
            "tensor.bitmap.build_ns_per_block",
            c.bitmap_build_ns_per_block,
        );
        v.set("tensor.fusion.next_ns_per_lookup", c.next_ns_per_lookup);
        v.set("transport.codec.encode_ns_per_pkt", c.encode_ns_per_pkt);
        v.set("transport.codec.decode_ns_per_pkt", c.decode_ns_per_pkt);
        v.set("transport.codec.gbps", c.codec_gbps);
        v.set("transport.pool.ns_per_checkout", c.pool_ns_per_checkout);
        v.set("transport.pool.hit_ratio", c.pool_hit_ratio);

        let n = round.len() as f64;
        let nblocks = cfg.tensor_len.div_ceil(cfg.block_size) as f64;
        let per_worker = |name| v.get(name) / n;
        // A worker checks out one entry list per packet it sends and per
        // result it answers, and one payload per block it sends.
        let worker_items = [
            Item {
                layer: "tensor.bitmap",
                count: nblocks,
                unit_ns: c.bitmap_build_ns_per_block,
            },
            Item {
                layer: "tensor.fusion",
                count: c.lookups_per_worker_round,
                unit_ns: c.next_ns_per_lookup,
            },
            Item {
                layer: "transport.pool",
                count: per_worker("core.worker.packets_per_round")
                    + per_worker("core.worker.results_per_round")
                    + per_worker("core.worker.blocks_per_round"),
                unit_ns: c.pool_ns_per_checkout,
            },
        ];
        // The aggregator completes every block slot once, and checks out
        // one entry list per result and one payload per completed slot.
        let agg_items = [
            Item {
                layer: "core.slot",
                count: c.slots_per_round,
                unit_ns: c.store_take_ns_per_slot,
            },
            Item {
                layer: "transport.pool",
                count: v.get("core.aggregator.slots_per_round") + c.slots_per_round,
                unit_ns: c.pool_ns_per_checkout,
            },
        ];
        if ws.top_spans > 0 {
            v.set(
                "budget.worker_gap_share",
                budget::gap_share(&worker_items, worker_self_ns),
            );
            v.set(
                "budget.agg_gap_share",
                budget::gap_share(&agg_items, agg_self_ns),
            );
            // The aggregator is one thread serving every worker, so what
            // it spends reducing is on every round's blocking path.
            v.set(
                "budget.agg_reduce_slot_share",
                budget::layer_share(&agg_items, "core.slot", ws.top_ns as f64 / worker_rounds),
            );
            for (who, items, self_ns) in [
                ("worker", &worker_items[..], worker_self_ns),
                ("aggregator", &agg_items[..], agg_self_ns),
            ] {
                for i in items {
                    println!(
                        "{:<14} budget {who:<10} {:<15} {:>10.0} x {:>8.1} ns = {:>8.3} ms of {:.3} ms self",
                        w.name,
                        i.layer,
                        i.count,
                        i.unit_ns,
                        i.ns() / 1e6,
                        self_ns / 1e6
                    );
                }
            }
        }
    }

    match &w.deployment {
        Deployment::Tenants { cfg, .. } => {
            let slots = cfg.total_streams() as u64;
            v.set(
                "core.tenant.sched_ns_per_grant",
                replay::sched_ns_per_grant(4, slots),
            );
            let mut admits: Vec<f64> = all
                .iter()
                .flat_map(|r| r.admit_us.iter().copied())
                .collect();
            if !admits.is_empty() {
                v.set("core.tenant.admit_us", stats::median(&mut admits));
            }
            let mut jains: Vec<f64> = all
                .iter()
                .map(|r| stats::jain_index(&r.tenant_rates))
                .collect();
            if !jains.is_empty() {
                v.set("core.tenant.jain_index", stats::median(&mut jains));
            }
            v.set("core.tenant.throttles", sum(|r| r.throttles));
        }
        Deployment::Simnet { cfg, .. } => {
            let calls = sum(|r| r.attempted).max(1.0);
            let wall: f64 = all.iter().map(|r| r.sim_wall_s).sum();
            let events = all.first().map_or(0, |r| r.sim_events) as f64;
            if wall > 0.0 {
                v.set("simnet.engine.events_per_s", events * calls / wall);
                v.set(
                    "simnet.engine.ns_per_event",
                    wall * 1e9 / (events * calls).max(1.0),
                );
            }
            v.set("simnet.engine.events_per_round", events);
            // One packet in flight per worker per stream is the
            // protocol's window: the depth the queue is held at.
            let depth = cfg.num_workers * cfg.total_streams();
            v.set("simnet.event.heap_ns_per_op", replay::heap_ns_per_op(depth));
        }
        Deployment::Group { .. } => {}
    }
    (v, [ws, ags])
}

/// The traced repetition once more with the engines built
/// `with_telemetry`, so the flight recorder's own attribution of a round
/// can be read beside the spans'. A report; nothing gates on it.
fn flight_cross_check(w: &Workload, args: &Args, v: &mut Values) {
    let telemetry = Telemetry::with_observability(0, FLIGHT_RING);
    let inst = Instrument {
        hub: Some(Arc::new(TraceHub::default())),
        telemetry: Some(telemetry.clone()),
    };
    let rep = match workloads::repetition(w, args.seed, FLIGHT_CHECK_TIME, &inst) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("omnibench: {}: flight cross-check: {e}", w.name);
            return;
        }
    };
    let attribution = RoundAttribution::from_recording(
        &telemetry.flight().snapshot(),
        &AttributionConfig::default(),
    );
    let total: u64 = attribution.rounds.iter().map(|r| r.total_ns).sum();
    if total == 0 {
        return;
    }
    let share = |f: fn(&omnireduce_telemetry::RoundBreakdown) -> u64| {
        attribution.rounds.iter().map(f).sum::<u64>() as f64 / total as f64
    };
    let (encode, wire, slot_wait) = (
        share(|r| r.encode_ns),
        share(|r| r.wire_ns),
        share(|r| r.slot_wait_ns),
    );
    v.set("telemetry.attrib.encode_share", encode);
    v.set("telemetry.attrib.wire_share", wire);
    v.set("telemetry.attrib.slot_wait_share", slot_wait);

    let ws = trace::summarize(&rep.lanes, Role::Worker);
    let self_share = ws.self_ns as f64 / ws.top_ns.max(1) as f64;
    println!(
        "{:<14} flight cross-check over {} rounds ({} receives unmatched):",
        w.name,
        attribution.rounds.len(),
        attribution.unmatched_rx
    );
    for (theirs, a, ours, b) in [
        (
            "telemetry.attrib.encode_share",
            encode,
            "worker self share",
            self_share,
        ),
        (
            "telemetry.attrib.wire_share",
            wire,
            "transport.worker.send_share",
            ws.send_share(),
        ),
        (
            "telemetry.attrib.slot_wait_share",
            slot_wait,
            "transport.worker.recv_wait_share",
            ws.recv_wait_share(),
        ),
    ] {
        println!(
            "{:<14}   {theirs:<34} {a:>7.4}   {ours:<34} {b:>7.4}   difference {:>+8.4}",
            w.name,
            a - b
        );
    }
}

fn print_values(w: &Workload, specs: &[MetricSpec], values: &Values, note: &str) {
    for m in specs {
        println!(
            "{:<14} {:<42} {:>16.4} {:<7} {note}",
            w.name,
            m.name,
            values.get(m.name),
            m.unit
        );
    }
}

fn write_out(path: &Path, body: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body));
    if let Err(e) = written {
        eprintln!("omnibench: {}: {e}", path.display());
    }
}

fn single(w: &Workload, args: &Args) -> bool {
    let mut run = run_reps(w, args);
    let head = format!(
        "  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"host\": {},\n  \"attempted\": {},\n",
        w.name,
        args.seed,
        args.seconds,
        report::host_fingerprint(),
        run.attempted
    );
    let samples: usize = run.untraced.iter().map(|r| r.round_ms.len()).sum();
    let (specs, values) = if args.trace {
        let (mut values, [workers, aggregators]) = per_layer(w, args, &run);
        if w.extra_reports {
            flight_cross_check(w, args, &mut values);
        }
        print_values(w, PER_LAYER, &values, "");
        write_out(
            &args.out.join(format!("trace_{}.json", w.name)),
            &format!(
                "{{\n{head}  \"failed\": {},\n  \"per_layer\": {},\n  \"summaries\": \
                 {{\"worker\": {}, \"aggregator\": {}}},\n  \"lanes_first_rounds\": {}\n}}\n",
                run.failed,
                report::metrics_json(PER_LAYER, &values),
                workers.to_json(),
                aggregators.to_json(),
                trace::lanes_json(
                    run.traced.first().map_or(&[][..], |r| &r.lanes),
                    TRACE_FILE_ROUNDS
                )
            ),
        );
        (PER_LAYER, values)
    } else {
        let values = end_to_end(w, &mut run);
        // Percentiles are taken inside a repetition, so the rule of ten
        // samples beyond one applies to the smallest repetition.
        let fewest = run
            .untraced
            .iter()
            .map(|r| r.round_ms.len())
            .min()
            .unwrap_or(0);
        let p90 = if stats::resolves(fewest, 0.9) {
            ""
        } else {
            ", fewer than 10 beyond a repetition's p90"
        };
        print_values(
            w,
            END_TO_END,
            &values,
            &format!(
                "(n={samples} round samples in {} repetitions, {fewest} in the smallest{p90})",
                run.untraced.len()
            ),
        );
        println!(
            "{:<14} {:<42} {:>16.6} {:<7} ({} of {} rounds)",
            w.name,
            "failed_share",
            run.failed as f64 / run.attempted.max(1) as f64,
            "ratio",
            run.failed,
            run.attempted
        );
        write_out(
            &args.out.join(format!("run_{}.json", w.name)),
            &format!(
                "{{\n{head}  \"failed\": {},\n  \"round_samples\": {samples},\n  \"end_to_end\": {}\n}}\n",
                run.failed,
                report::metrics_json(END_TO_END, &values)
            ),
        );
        (END_TO_END, values)
    };
    println!(
        "{}",
        report::result_line(specs, &values, run.attempted, run.failed)
    );
    run.failed == 0
}

// ---------------------------------------------------------------------
// Every workload, a process each
// ---------------------------------------------------------------------

/// The result lines of one pass over the workload set.
type Results = Vec<(&'static str, JsonValue)>;

/// Runs one workload in a process of its own (so `peak_rss_mb` is that
/// workload's alone), passes its report through, and returns its result
/// line.
fn child(w: &Workload, args: &Args, seed: u64, traced: bool) -> Option<JsonValue> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, line) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{report}");
    let doc = JsonValue::parse(line).ok()?;
    let correct = doc.get("correct").and_then(JsonValue::as_bool) == Some(true);
    if !(out.status.success() && correct) {
        eprintln!("omnibench: {} failed: {line}", w.name);
        return None;
    }
    Some(doc)
}

fn every_workload(args: &Args, traced: bool) -> Option<Results> {
    let mut results = Vec::new();
    let mut ok = true;
    for w in workloads::all() {
        match child(&w, args, args.seed, traced) {
            Some(doc) => results.push((w.name, doc)),
            None => ok = false,
        }
    }
    ok.then_some(results)
}

fn metric(results: &Results, workload: &str, name: &str) -> f64 {
    results
        .iter()
        .find(|(w, _)| *w == workload)
        .and_then(|(_, doc)| doc.get("metrics")?.get(name)?.get("value")?.as_f64())
        .unwrap_or(0.0)
}

/// Whether the traced pass shows the workloads separating the layers
/// they were chosen to separate. Printed for the reader; a pair that
/// stops separating means a workload needs resizing, not that the
/// program under test is wrong.
fn separations(results: &Results) {
    let send_ns = |w| {
        metric(results, w, "transport.agg.send_ns_per_msg")
            + metric(results, w, "transport.worker.send_ns_per_msg")
    };
    let reduce = |w| metric(results, w, "budget.agg_reduce_slot_share");
    let sim_msgs = metric(results, "simnet_seq", "transport.worker.msgs_per_round")
        + metric(results, "simnet_seq", "transport.agg.msgs_per_round");
    let overhead = workloads::all()
        .iter()
        .map(|w| metric(results, w.name, "diag.trace_overhead"))
        .fold(0.0, f64::max);
    let checks = [
        (
            "transport send ns per message, tcp_sparse over chan_sparse (want >= 1.5)",
            send_ns("tcp_sparse") / send_ns("chan_sparse"),
            1.5,
            true,
        ),
        (
            "reduce + slot share of a round, chan_dense over chan_sparse (want >= 3)",
            reduce("chan_dense") / reduce("chan_sparse"),
            3.0,
            true,
        ),
        (
            "transport messages per round on simnet_seq (want 0)",
            sim_msgs,
            0.0,
            false,
        ),
        (
            "largest diag.trace_overhead (want <= 1.10)",
            overhead,
            1.10,
            false,
        ),
    ];
    for (what, value, limit, at_least) in checks {
        let met = if at_least {
            value >= limit
        } else {
            value <= limit
        };
        println!(
            "separation: {what}: {value:.3} {}",
            if met { "ok" } else { "NOT MET" }
        );
    }
}

/// Runs the set twice with one seed and fails if an end-to-end metric of
/// a workload got worse from the first pass to the second by more than
/// its bound, or differs at all where it is an exact count; then shows
/// `chan_sparse` on the next seed, for claims to be checked against.
fn selfcheck(args: &Args) -> bool {
    let (Some(first), Some(second)) = (every_workload(args, false), every_workload(args, false))
    else {
        return false;
    };
    let mut ok = true;
    for w in workloads::all() {
        for m in END_TO_END {
            let (a, b) = (
                metric(&first, w.name, m.name),
                metric(&second, w.name, m.name),
            );
            let change = (b - a).abs() / a.abs().max(f64::MIN_POSITIVE);
            let bound = m.bound.expect("end-to-end metrics are bounded");
            let within = change <= bound;
            ok &= within;
            println!(
                "selfcheck {:<14} {:<22} {a:>14.4} {b:>14.4} {:<7} {:>+7.2}% of {:.0}% {}",
                w.name,
                m.name,
                m.unit,
                change * 100.0 * (b - a).signum(),
                bound * 100.0,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
    }
    if let Some(w) = workloads::all().into_iter().find(|w| w.extra_reports) {
        match child(&w, args, args.seed + 1, false) {
            Some(doc) => {
                let other = vec![(w.name, doc)];
                for m in END_TO_END {
                    println!(
                        "unseen-seed {:<12} {:<22} seed {}: {:>14.4}   seed {}: {:>14.4} {}",
                        w.name,
                        m.name,
                        args.seed,
                        metric(&second, w.name, m.name),
                        args.seed + 1,
                        metric(&other, w.name, m.name),
                        m.unit
                    );
                }
            }
            None => ok = false,
        }
    }
    ok
}
