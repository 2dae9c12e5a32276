//! `omnistat` — offline flight-recording analyzer.
//!
//! Merges one or more flight recordings (the `*.flight.json` files the
//! bench binaries emit under `OMNIREDUCE_FLIGHT`, or `/flight.json`
//! snapshots from the live introspection endpoint — one per node) into
//! a single timeline, reconstructs per-round latency attribution, and
//! prints the report. Optionally exports a Chrome trace-event file with
//! **flow arrows** connecting each worker's packet transmit to the
//! aggregator's matching receive, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! ```text
//! omnistat [--check] [--trace out.json] [--rounds out.json] f1.json f2.json ...
//! omnistat --demo [--check] [--trace out.json] [--rounds out.json]
//! ```
//!
//! `--demo` runs a small sharded Algorithm 2 deployment under injected
//! packet loss in-process and analyzes its own recording — a
//! self-contained end-to-end exercise of record → merge → reconstruct.
//! `--check` turns the run into a gate: exit 1 unless the reconstructor
//! recovered at least one round with a nonzero latency budget.

use std::process::ExitCode;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::group::Recovery;
use omnireduce_core::shard::ShardedAllReduce;
use omnireduce_telemetry::json::JsonValue;
use omnireduce_telemetry::{
    AttributionConfig, FlightEventKind, FlightRecording, LaneRole, RoundAttribution, Telemetry,
};
use omnireduce_tensor::gen::{self, OverlapMode};
use omnireduce_tensor::{BlockSpec, Tensor};
use omnireduce_transport::fault::{FaultPlan, KeyedLoss};

struct Args {
    demo: bool,
    check: bool,
    trace_out: Option<String>,
    rounds_out: Option<String>,
    inputs: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: omnistat [--demo] [--check] [--trace FILE] [--rounds FILE] [flight.json ...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        demo: false,
        check: false,
        trace_out: None,
        rounds_out: None,
        inputs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--demo" => args.demo = true,
            "--check" => args.check = true,
            "--trace" => args.trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--rounds" => args.rounds_out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            flag if flag.starts_with("--") => usage(),
            path => args.inputs.push(path.to_string()),
        }
    }
    if !args.demo && args.inputs.is_empty() {
        usage();
    }
    args
}

/// Runs a 3-worker / 2-shard Algorithm 2 deployment under keyed packet
/// loss with the flight recorder on, and returns its recording.
fn demo_recording() -> FlightRecording {
    let n = 3;
    let shards = 2;
    let len = 4096;
    let cfg = OmniConfig::new(n, len)
        .with_block_size(32)
        .with_fusion(2)
        .with_streams(4)
        .with_aggregators(shards)
        .with_initial_rto(std::time::Duration::from_millis(25))
        .with_rto_bounds(
            std::time::Duration::from_millis(25),
            std::time::Duration::from_millis(400),
        )
        .with_max_retransmits(40);
    let inputs: Vec<Vec<Tensor>> = gen::workers(
        n,
        len,
        BlockSpec::new(32),
        0.5,
        1.0,
        OverlapMode::Random,
        2021,
    )
    .into_iter()
    .map(|t| vec![t])
    .collect();
    let plans: Vec<FaultPlan> = (0..shards)
        .map(|s| FaultPlan::new(0x51C0 + s as u64).loss(KeyedLoss::uniform(0.10, 0.02)))
        .collect();
    let telemetry = Telemetry::with_observability(0, 1 << 16);
    let out = ShardedAllReduce::run::<Recovery>(&cfg, Some(&plans), inputs, Some(&telemetry));
    for (w, o) in out.workers.iter().enumerate() {
        if let Err(e) = &o.result {
            eprintln!("omnistat --demo: worker {w} failed: {e:?}");
        }
    }
    telemetry.flight().snapshot()
}

/// Chrome trace-event export of a merged recording: one thread row per
/// lane, an `X` slice per worker round, an instant per protocol event,
/// and `s`/`f` flow arrows from each `PacketTx` to the matching
/// `PacketRx` (latest transmit at or before the receive with the same
/// `(block, shard, worker)` key — the reconstructor's join rule).
fn chrome_trace(rec: &FlightRecording) -> String {
    let us = |ns: u64| JsonValue::Float(ns as f64 / 1_000.0);
    let mut events: Vec<JsonValue> = Vec::new();
    let meta = |tid: usize, name: &str| {
        let mut m = JsonValue::obj();
        m.push("ph", JsonValue::Str("M".into()));
        m.push("pid", JsonValue::Uint(0));
        m.push("tid", JsonValue::Uint(tid as u64));
        m.push("name", JsonValue::Str("thread_name".into()));
        let mut a = JsonValue::obj();
        a.push("name", JsonValue::Str(name.into()));
        m.push("args", a);
        m
    };

    // (block, shard, worker) -> [(ts, lane_tid)] of transmits, sorted.
    let mut tx_index: std::collections::BTreeMap<(u64, u16, u16), Vec<(u64, usize)>> =
        std::collections::BTreeMap::new();
    for (tid, lane) in rec.lanes.iter().enumerate() {
        if lane.role != LaneRole::Worker {
            continue;
        }
        for e in &lane.events {
            if e.kind == FlightEventKind::PacketTx {
                tx_index
                    .entry((e.block, e.shard, lane.actor))
                    .or_default()
                    .push((e.ts_ns, tid));
            }
        }
    }
    for txs in tx_index.values_mut() {
        txs.sort_unstable();
    }

    let mut flow_id = 0u64;
    for (tid, lane) in rec.lanes.iter().enumerate() {
        events.push(meta(tid, &lane.name));
        let mut round_start: std::collections::BTreeMap<u32, u64> =
            std::collections::BTreeMap::new();
        for e in &lane.events {
            match e.kind {
                FlightEventKind::RoundStart => {
                    round_start.insert(e.round, e.ts_ns);
                }
                FlightEventKind::RoundEnd => {
                    if let Some(start) = round_start.remove(&e.round) {
                        let mut x = JsonValue::obj();
                        x.push("ph", JsonValue::Str("X".into()));
                        x.push("pid", JsonValue::Uint(0));
                        x.push("tid", JsonValue::Uint(tid as u64));
                        x.push("name", JsonValue::Str(format!("round {}", e.round)));
                        x.push("ts", us(start));
                        x.push("dur", us(e.ts_ns.saturating_sub(start)));
                        events.push(x);
                    }
                }
                FlightEventKind::PacketRx => {
                    // Pair with the latest matching transmit ≤ rx.
                    if let Some(txs) = tx_index.get(&(e.block, e.shard, e.actor)) {
                        let i = txs.partition_point(|(ts, _)| *ts <= e.ts_ns);
                        if i > 0 {
                            let (tx_ts, tx_tid) = txs[i - 1];
                            flow_id += 1;
                            for (ph, ts, t) in [("s", tx_ts, tx_tid), ("f", e.ts_ns, tid)] {
                                let mut fe = JsonValue::obj();
                                fe.push("ph", JsonValue::Str(ph.into()));
                                if ph == "f" {
                                    fe.push("bp", JsonValue::Str("e".into()));
                                }
                                fe.push("id", JsonValue::Uint(flow_id));
                                fe.push("pid", JsonValue::Uint(0));
                                fe.push("tid", JsonValue::Uint(t as u64));
                                fe.push("name", JsonValue::Str("packet".into()));
                                fe.push("cat", JsonValue::Str("wire".into()));
                                fe.push("ts", us(ts));
                                events.push(fe);
                            }
                        }
                    }
                }
                _ => {}
            }
            let mut i = JsonValue::obj();
            i.push("ph", JsonValue::Str("i".into()));
            i.push("pid", JsonValue::Uint(0));
            i.push("tid", JsonValue::Uint(tid as u64));
            i.push("s", JsonValue::Str("t".into()));
            i.push("name", JsonValue::Str(e.kind.name().into()));
            i.push("ts", us(e.ts_ns));
            let mut a = JsonValue::obj();
            a.push("round", JsonValue::Uint(e.round as u64));
            a.push("shard", JsonValue::Uint(e.shard as u64));
            a.push("aux", JsonValue::Uint(e.aux));
            i.push("args", a);
            events.push(i);
        }
    }
    let mut doc = JsonValue::obj();
    doc.push("traceEvents", JsonValue::Arr(events));
    doc.push("displayTimeUnit", JsonValue::Str("ms".into()));
    doc.to_string_compact()
}

fn main() -> ExitCode {
    let args = parse_args();

    let mut merged = FlightRecording::default();
    if args.demo {
        merged.merge(demo_recording());
    }
    for path in &args.inputs {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("omnistat: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match FlightRecording::from_json(&text) {
            Ok(rec) => merged.merge(rec),
            Err(e) => {
                eprintln!("omnistat: {path}: parse error: {e:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Multi-node wall clocks share no epoch; normalize for display.
    merged.rebase();

    let attrib = RoundAttribution::from_recording(&merged, &AttributionConfig::default());
    println!(
        "{} lanes, {} events, {} rounds reconstructed",
        merged.lanes.len(),
        merged.total_events(),
        attrib.rounds.len()
    );
    print!("{}", attrib.report());

    if let Some(path) = &args.rounds_out {
        if let Err(e) = std::fs::write(path, attrib.rounds_json().to_string_pretty()) {
            eprintln!("omnistat: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("rounds:   {path}");
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, chrome_trace(&merged)) {
            eprintln!("omnistat: write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace:    {path}");
    }

    if args.check {
        if attrib.rounds.is_empty() {
            eprintln!("omnistat --check: no rounds reconstructed");
            return ExitCode::FAILURE;
        }
        for b in &attrib.rounds {
            if b.total_ns == 0 {
                eprintln!("omnistat --check: round {} has zero duration", b.round);
                return ExitCode::FAILURE;
            }
        }
        let budget: u64 = attrib
            .rounds
            .iter()
            .map(|b| b.encode_ns + b.wire_ns + b.slot_wait_ns + b.straggler_ns + b.recovery_ns)
            .sum();
        if budget == 0 {
            eprintln!("omnistat --check: attribution assigned no time to any component");
            return ExitCode::FAILURE;
        }
        println!(
            "check ok: {} rounds, {} ns attributed",
            attrib.rounds.len(),
            budget
        );
    }
    ExitCode::SUCCESS
}
