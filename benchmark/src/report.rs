//! Metric tables, the result line, the manifest and the host fingerprint.

use std::fmt::Write as _;
use std::process::Command;

use crate::workloads;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` on per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; the same names on every workload.
/// Failures are not in this list (a metric here must never read 0): they
/// are the `attempted` / `failed` / `correct` fields of the result line.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("round_p50_ms", "ms", "lower", 0.15),
    e2e("round_p90_ms", "ms", "lower", 0.20),
    e2e("tensor_gbps", "Gbit/s", "higher", 0.15),
    e2e("wire_bytes_per_round", "bytes", "lower", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of a traced run, prefixed by layer. A metric whose
/// layer a workload does not execute reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("tensor.block.reduce_gbps", "Gbit/s", "higher"),
    layer("core.slot.store_take_ns_per_slot", "ns", "lower"),
    layer("tensor.bitmap.build_ns_per_block", "ns", "lower"),
    layer("tensor.fusion.next_ns_per_lookup", "ns", "lower"),
    layer("transport.codec.encode_ns_per_pkt", "ns", "lower"),
    layer("transport.codec.decode_ns_per_pkt", "ns", "lower"),
    layer("transport.codec.gbps", "Gbit/s", "higher"),
    layer("transport.pool.ns_per_checkout", "ns", "lower"),
    layer("transport.pool.hit_ratio", "ratio", "higher"),
    layer("transport.worker.send_ns_per_msg", "ns", "lower"),
    layer("transport.worker.send_share", "ratio", "lower"),
    layer("transport.worker.recv_wait_share", "ratio", "lower"),
    layer("transport.worker.msgs_per_round", "count", "lower"),
    layer("transport.agg.send_ns_per_msg", "ns", "lower"),
    layer("transport.agg.send_share", "ratio", "lower"),
    layer("transport.agg.recv_wait_share", "ratio", "lower"),
    layer("transport.agg.msgs_per_round", "count", "lower"),
    layer("core.worker.self_ms_per_round", "ms", "lower"),
    layer("core.aggregator.self_ms_per_round", "ms", "lower"),
    layer("core.aggregator.busy_share", "ratio", "lower"),
    layer("core.worker.packets_per_round", "count", "lower"),
    layer("core.worker.blocks_per_round", "count", "lower"),
    layer("core.worker.results_per_round", "count", "lower"),
    layer("core.aggregator.slots_per_round", "count", "lower"),
    layer("core.worker.allocs_per_round", "count", "lower"),
    layer("core.recovery.retransmissions_per_round", "count", "lower"),
    layer("core.recovery.timer_fires_per_round", "count", "lower"),
    layer("core.recovery.stale_results_per_round", "count", "lower"),
    layer("core.tenant.sched_ns_per_grant", "ns", "lower"),
    layer("core.tenant.admit_us", "us", "lower"),
    layer("core.tenant.jain_index", "ratio", "higher"),
    layer("core.tenant.throttles", "count", "lower"),
    layer("simnet.engine.events_per_s", "1/s", "higher"),
    layer("simnet.engine.ns_per_event", "ns", "lower"),
    layer("simnet.engine.events_per_round", "count", "lower"),
    layer("simnet.event.heap_ns_per_op", "ns", "lower"),
    layer("budget.worker_gap_share", "ratio", "lower"),
    layer("budget.agg_gap_share", "ratio", "lower"),
    layer("budget.agg_reduce_slot_share", "ratio", "lower"),
    layer("telemetry.attrib.encode_share", "ratio", "lower"),
    layer("telemetry.attrib.wire_share", "ratio", "lower"),
    layer("telemetry.attrib.slot_wait_share", "ratio", "lower"),
    layer("diag.round_p99_ms", "ms", "lower"),
    layer("diag.round_p50_rep_spread", "ratio", "lower"),
    layer("diag.trace_overhead", "ratio", "lower"),
];

/// Seconds one run measures for; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Metric values of one run, in table order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The metrics of `specs` as one JSON object, `{name: {"value", "unit"}}`.
pub fn metrics_json(specs: &[MetricSpec], values: &Values) -> String {
    let fields: Vec<String> = specs
        .iter()
        .map(|m| {
            let v = values.get(m.name);
            // `{}` prints the shortest digits that read back as the same
            // f64: the value as measured, nothing rounded away.
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `specs`.
pub fn result_line(specs: &[MetricSpec], values: &Values, attempted: u64, failed: u64) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        metrics_json(specs, values)
    )
}

/// `BENCHMARK.json`, generated from the tables above so the two cannot
/// drift apart (a unit test compares them).
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let all = workloads::all();
    for (i, w) in all.iter().enumerate() {
        let comma = if i + 1 < all.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics are bounded")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Cores, CPU model, compiler and commit of the host the numbers were
/// taken on, as one JSON object. Numbers from different fingerprints do
/// not compare.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // The driver's checkout is not a git repository: no commit there.
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\": {cores}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        cpu.replace(['"', '\\'], ""),
        rustc.replace(['"', '\\'], ""),
        commit.replace(['"', '\\'], "")
    )
}

/// `VmHWM` of this process in MB (2^20 bytes): the most memory it ever
/// held resident.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnireduce_telemetry::json::JsonValue;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        // Not `assert_eq!`: it would print both 6 KB documents.
        assert!(
            committed == manifest(),
            "BENCHMARK.json is stale: regenerate it with `omnibench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_limits_of_the_contract() {
        let doc = JsonValue::parse(&manifest()).expect("the manifest is JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_arr)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let (w, e, p) = (names("workloads"), names("end_to_end"), names("per_layer"));
        assert!((2..=8).contains(&w.len()));
        assert!((1..=16).contains(&e.len()));
        assert!((1..=128).contains(&p.len()));
        assert!(e.iter().any(|n| n == "setup_s"));
        let mut all: Vec<&String> = w.iter().chain(&e).chain(&p).collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used twice");
        for n in all {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16 && m.bound.is_none_or(|b| b <= 0.25));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for wl in workloads::all() {
            assert!(wl.why.len() <= 200 && !wl.why.contains('\n'), "{}", wl.name);
        }
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_metric() {
        let mut v = Values::default();
        v.set("round_p50_ms", 19.25);
        v.set("setup_s", 0.8127);
        let line = result_line(END_TO_END, &v, 1000, 0);
        assert!(!line.contains('\n'));
        let doc = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(1000));
        let metrics = doc.get("metrics").unwrap();
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
        }
        let p50 = metrics.get("round_p50_ms").unwrap().get("value").unwrap();
        assert_eq!(p50.as_f64(), Some(19.25));
        assert!(result_line(END_TO_END, &v, 10, 1).contains("\"correct\": false"));
    }
}
