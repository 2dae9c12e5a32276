//! Benchmark harness: shared plumbing for the per-figure generator
//! binaries (`src/bin/figNN_*.rs`, `src/bin/tableN_*.rs`).
//!
//! Each binary regenerates one table or figure of the paper — same
//! rows/series, same parameters — on the simulated testbeds. Absolute
//! numbers are not expected to match the authors' hardware; the *shapes*
//! (who wins, by what factor, where crossovers fall) are the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured for
//! every artefact.
//!
//! This library provides:
//!
//! * [`Testbed`] — the paper's three network modes (DPDK at 10 Gbps,
//!   RDMA and GPU-direct RDMA at 100 Gbps) as NIC parameters plus the
//!   host-copy floor of the non-GDR path (Appendix B: the full tensor is
//!   staged through host memory in 4 MB chunks, bottlenecked by PCIe);
//! * [`omni_time`] / [`omni_time_colocated`] — OmniReduce AllReduce time
//!   on a testbed via the packet-level protocol simulation;
//! * bitmap construction helpers for the microbenchmark tensors;
//! * [`Table`] — aligned console tables plus machine-readable JSON dumps
//!   under `results/`.

use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use std::time::Duration;

use omnireduce_core::config::OmniConfig;
use omnireduce_core::sim::{bitmaps_from_sets, simulate_allreduce, SimSpec};
use omnireduce_simnet::{Bandwidth, NicConfig, SimTime};
use omnireduce_telemetry::json::JsonValue;
use omnireduce_telemetry::{
    AttributionConfig, IntrospectionServer, RoundAttribution, Sampler, Telemetry,
};
use omnireduce_tensor::gen::{worker_block_sets, OverlapMode};
use omnireduce_tensor::NonZeroBitmap;

/// Schema version stamped into every `results/*.metrics.json` document
/// this crate emits (the `.timeseries.json` documents carry
/// [`omnireduce_telemetry::TIMESERIES_SCHEMA_VERSION`] via their own
/// writer). Readers — the `--check` baselines, external tooling — must
/// reject a mismatched version instead of silently comparing documents
/// with different shapes.
pub const RESULTS_SCHEMA_VERSION: u64 = 1;

/// The paper's default block size (elements).
pub const BLOCK_SIZE: usize = 256;
/// Fusion width used throughout (4 × 256 × 4 B = 4 KB payload).
pub const FUSION: usize = 4;
/// Streams per aggregator shard (pipeline depth).
pub const STREAMS: usize = 32;
/// The microbenchmarks' tensor: 100 MB of f32 (§6.1).
pub const MICROBENCH_ELEMENTS: usize = 25_000_000;

/// Host-memory staging bandwidth of the non-GDR path (PCIe gen3 x16,
/// Appendix B): the whole tensor crosses it once.
pub const PCIE_BYTES_PER_SEC: f64 = 16e9;

/// The paper's three transport modes (§5, §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Testbed {
    /// DPDK/UDP kernel-bypass at 10 Gbps (P100 testbed).
    Dpdk10,
    /// RDMA RoCE at 100 Gbps, staging through host memory (V100).
    Rdma100,
    /// RDMA with GPU-direct at 100 Gbps (V100).
    Gdr100,
}

impl Testbed {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Testbed::Dpdk10 => "DPDK-10Gbps",
            Testbed::Rdma100 => "RDMA-100Gbps",
            Testbed::Gdr100 => "GDR-100Gbps",
        }
    }

    /// Link rate.
    pub fn bandwidth(&self) -> Bandwidth {
        match self {
            Testbed::Dpdk10 => Bandwidth::gbps(10.0),
            Testbed::Rdma100 | Testbed::Gdr100 => Bandwidth::gbps(100.0),
        }
    }

    /// One-way latency (the software DPDK path is slower than RDMA).
    pub fn latency(&self) -> SimTime {
        match self {
            Testbed::Dpdk10 => SimTime::from_micros(15),
            Testbed::Rdma100 | Testbed::Gdr100 => SimTime::from_micros(5),
        }
    }

    /// NIC configuration for any node on this testbed.
    pub fn nic(&self) -> NicConfig {
        NicConfig::symmetric(self.bandwidth(), self.latency())
    }

    /// The GPU↔host staging floor for a tensor of `bytes` (zero when
    /// GPU-direct RDMA bypasses host memory; at 10 Gbps the network
    /// dominates but the floor is still modelled).
    pub fn copy_floor(&self, bytes: u64) -> SimTime {
        match self {
            Testbed::Gdr100 => SimTime::ZERO,
            _ => SimTime::from_secs_f64(bytes as f64 / PCIE_BYTES_PER_SEC),
        }
    }
}

/// The process-wide telemetry registry shared by every figure binary.
///
/// Every simulation entry point in this crate ([`omni_time`],
/// [`omni_time_colocated`]) registers its counters here, and
/// [`Table::emit`] snapshots it into `results/<slug>.metrics.json`
/// alongside the table JSON. Environment gates:
///
/// * `OMNIREDUCE_TRACE` (any value) enables the bounded trace recorder
///   (64 Ki events) and makes `emit` drop a Chrome-trace
///   `results/<slug>.trace.json` loadable in `chrome://tracing` /
///   Perfetto.
/// * `OMNIREDUCE_FLIGHT` enables the protocol flight recorder — the
///   value is the per-lane event capacity (`1` or a non-numeric value
///   gets the 64 Ki default; see [`flight_capacity_from_env`]) — and
///   makes `emit` drop `results/<slug>.flight.json`
///   (the raw recording, `omnistat`'s input format) and
///   `results/<slug>.rounds.json` (the reconstructed per-round latency
///   attribution).
/// * `OMNIREDUCE_TIMESERIES` enables the continuous time-series store —
///   the value is the per-series ring capacity in samples (`1` or a
///   non-numeric enable value gets the 4 Ki default; see
///   [`series_capacity_from_env`]) — starts the background sampler, and
///   makes `emit` drop `results/<slug>.timeseries.json` (`omnitop`'s
///   input format).
/// * `OMNIREDUCE_SAMPLE_MS` sets the background sampling cadence in
///   integer milliseconds (default 5; only meaningful with
///   `OMNIREDUCE_TIMESERIES`).
/// * `OMNIREDUCE_SERVE_ADDR` starts the live introspection endpoint on
///   that address for the lifetime of the process (see
///   [`omnireduce_telemetry::IntrospectionServer`]).
pub fn telemetry() -> &'static Telemetry {
    static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let trace_cap = if std::env::var_os("OMNIREDUCE_TRACE").is_some() {
            65_536
        } else {
            0
        };
        let flight_cap = flight_capacity_from_env();
        let series_cap = series_capacity_from_env();
        let t = Telemetry::with_pipeline(trace_cap, flight_cap, series_cap);
        if series_cap > 0 {
            match Sampler::spawn(&t, sample_interval_from_env()) {
                // Keep sampling until the process exits; the final
                // partial interval is covered by `Table::emit` reading
                // the live store, not by a stop-tick.
                Ok(handle) => std::mem::forget(handle),
                Err(e) => eprintln!("omnireduce: sampler spawn failed: {e}"),
            }
        }
        match IntrospectionServer::from_env(&t) {
            Some(Ok(server)) => {
                eprintln!(
                    "omnireduce: introspection on http://{}",
                    server.local_addr()
                );
                // Keep serving until the process exits.
                std::mem::forget(server);
            }
            Some(Err(e)) => eprintln!("omnireduce: introspection bind failed: {e}"),
            None => {}
        }
        t
    })
}

/// Flight-recorder per-lane capacity from `OMNIREDUCE_FLIGHT`: unset,
/// empty, `0`, `off`, `false` or `no` → disabled; an integer ≥ 2 → that
/// capacity; anything else (`1`, `true`, `on`, …) → the 64 Ki default.
/// `1` is deliberately "on", not "capacity 1" — it is the idiomatic
/// enable value and a one-event ring records nothing useful.
pub fn flight_capacity_from_env() -> usize {
    flight_capacity_from(std::env::var("OMNIREDUCE_FLIGHT").ok().as_deref())
}

fn flight_capacity_from(value: Option<&str>) -> usize {
    let v = value.unwrap_or("").trim();
    if v.is_empty() || ["0", "off", "false", "no"].contains(&v.to_ascii_lowercase().as_str()) {
        return 0;
    }
    match v.parse::<usize>() {
        Ok(c) if c >= 2 => c,
        _ => 65_536,
    }
}

/// Time-series ring capacity (samples per series) from
/// `OMNIREDUCE_TIMESERIES`, with the same enable/disable grammar as
/// [`flight_capacity_from_env`]: unset, empty, `0`, `off`, `false` or
/// `no` → disabled; an integer ≥ 2 → that capacity; anything else
/// (`1`, `true`, `on`, …) → a 4 Ki default (at the default 5 ms cadence
/// that is a ~20 s window per series).
pub fn series_capacity_from_env() -> usize {
    series_capacity_from(std::env::var("OMNIREDUCE_TIMESERIES").ok().as_deref())
}

fn series_capacity_from(value: Option<&str>) -> usize {
    let v = value.unwrap_or("").trim();
    if v.is_empty() || ["0", "off", "false", "no"].contains(&v.to_ascii_lowercase().as_str()) {
        return 0;
    }
    match v.parse::<usize>() {
        Ok(c) if c >= 2 => c,
        _ => 4096,
    }
}

/// Background sampling cadence from `OMNIREDUCE_SAMPLE_MS`: a positive
/// integer millisecond count, anything else → the 5 ms default.
pub fn sample_interval_from_env() -> Duration {
    sample_interval_from(std::env::var("OMNIREDUCE_SAMPLE_MS").ok().as_deref())
}

fn sample_interval_from(value: Option<&str>) -> Duration {
    match value.unwrap_or("").trim().parse::<u64>() {
        Ok(ms) if ms >= 1 => Duration::from_millis(ms),
        _ => Duration::from_millis(5),
    }
}

/// Standard OmniReduce geometry for `n` workers over `elements`
/// (dedicated shards, one per worker — the paper's testbed).
pub fn omni_config(n: usize, elements: usize) -> OmniConfig {
    OmniConfig::new(n, elements)
        .with_block_size(BLOCK_SIZE)
        .with_fusion(FUSION)
        .with_streams(STREAMS)
        .with_aggregators(n)
}

/// `OMNIREDUCE_*` environment overrides for the recovery-path knobs,
/// applied by every bench binary that exercises the loss-recovery
/// engines (see README "Environment variables").
///
/// | Variable | Effect |
/// |---|---|
/// | `OMNIREDUCE_RETRANSMIT_TIMEOUT_MS` | Initial (adaptive) or fixed RTO, integer ms |
/// | `OMNIREDUCE_ADAPTIVE_RTO` | `1`/`true`/`on` or `0`/`false`/`off` |
/// | `OMNIREDUCE_RTO_MIN_MS` | Adaptive RTO floor, integer ms |
/// | `OMNIREDUCE_RTO_MAX_MS` | Adaptive RTO ceiling, integer ms |
/// | `OMNIREDUCE_MAX_RETRANSMITS` | Retry budget before `PeerUnresponsive` |
/// | `OMNIREDUCE_EVICTION_TIMEOUT_MS` | Aggregator worker-eviction timeout, integer ms |
/// | `OMNIREDUCE_DEGRADED_MODE` | `abort` or `drop_worker` |
/// | `OMNIREDUCE_NUM_AGGREGATORS` | Aggregator shard count (§4 round-robin sharding), ≥ 1 |
///
/// Unset or unparsable variables leave the config untouched.
pub mod env_knobs {
    use std::time::Duration;

    use omnireduce_core::config::{DegradedMode, OmniConfig};

    /// Applies the `OMNIREDUCE_*` overrides from the process
    /// environment. See the module docs for the variable table.
    pub fn apply(cfg: OmniConfig) -> OmniConfig {
        apply_from(cfg, |name| std::env::var(name).ok())
    }

    /// Pure core of [`apply`]: reads variables through `lookup` so tests
    /// can drive it without mutating the (process-global, thread-unsafe)
    /// environment.
    pub fn apply_from(mut cfg: OmniConfig, lookup: impl Fn(&str) -> Option<String>) -> OmniConfig {
        let dur = |name: &str| -> Option<Duration> {
            lookup(name)?
                .trim()
                .parse::<u64>()
                .ok()
                .map(Duration::from_millis)
        };
        if let Some(t) = dur("OMNIREDUCE_RETRANSMIT_TIMEOUT_MS") {
            cfg.retransmit_timeout = t;
        }
        if let Some(b) = lookup("OMNIREDUCE_ADAPTIVE_RTO").and_then(|v| parse_bool(&v)) {
            cfg.adaptive_rto = b;
        }
        if let Some(t) = dur("OMNIREDUCE_RTO_MIN_MS") {
            cfg.rto_min = t;
        }
        if let Some(t) = dur("OMNIREDUCE_RTO_MAX_MS") {
            cfg.rto_max = t;
        }
        if let Some(n) = lookup("OMNIREDUCE_MAX_RETRANSMITS").and_then(|v| v.trim().parse().ok()) {
            cfg.max_retransmits = n;
        }
        if let Some(t) = dur("OMNIREDUCE_EVICTION_TIMEOUT_MS") {
            cfg.worker_eviction_timeout = t;
        }
        if let Some(m) =
            lookup("OMNIREDUCE_DEGRADED_MODE").and_then(|v| v.trim().parse::<DegradedMode>().ok())
        {
            cfg.degraded_mode = m;
        }
        if let Some(a) = lookup("OMNIREDUCE_NUM_AGGREGATORS")
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&a| a >= 1)
        {
            cfg.num_aggregators = a;
        }
        cfg
    }

    fn parse_bool(v: &str) -> Option<bool> {
        match v.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "yes" => Some(true),
            "0" | "false" | "off" | "no" => Some(false),
            _ => None,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn overrides_every_knob() {
            let cfg = OmniConfig::new(2, 1024);
            let out = apply_from(cfg, |name| {
                Some(
                    match name {
                        "OMNIREDUCE_RETRANSMIT_TIMEOUT_MS" => "7",
                        "OMNIREDUCE_ADAPTIVE_RTO" => "off",
                        "OMNIREDUCE_RTO_MIN_MS" => "3",
                        "OMNIREDUCE_RTO_MAX_MS" => "900",
                        "OMNIREDUCE_MAX_RETRANSMITS" => "5",
                        "OMNIREDUCE_EVICTION_TIMEOUT_MS" => "1234",
                        "OMNIREDUCE_DEGRADED_MODE" => "drop_worker",
                        "OMNIREDUCE_NUM_AGGREGATORS" => "4",
                        _ => return None,
                    }
                    .to_string(),
                )
            });
            assert_eq!(out.retransmit_timeout, Duration::from_millis(7));
            assert!(!out.adaptive_rto);
            assert_eq!(out.rto_min, Duration::from_millis(3));
            assert_eq!(out.rto_max, Duration::from_millis(900));
            assert_eq!(out.max_retransmits, 5);
            assert_eq!(out.worker_eviction_timeout, Duration::from_millis(1234));
            assert_eq!(out.degraded_mode, DegradedMode::DropWorker);
            assert_eq!(out.num_aggregators, 4);
        }

        #[test]
        fn rejects_a_zero_aggregator_count() {
            let cfg = OmniConfig::new(2, 1024);
            let out = apply_from(cfg, |name| match name {
                "OMNIREDUCE_NUM_AGGREGATORS" => Some("0".to_string()),
                _ => None,
            });
            assert_eq!(out.num_aggregators, 1, "zero shards must be ignored");
        }

        #[test]
        fn unset_and_garbage_leave_defaults() {
            let cfg = OmniConfig::new(2, 1024);
            let defaults = cfg.clone();
            let out = apply_from(cfg, |name| match name {
                "OMNIREDUCE_MAX_RETRANSMITS" => Some("not-a-number".to_string()),
                "OMNIREDUCE_DEGRADED_MODE" => Some("explode".to_string()),
                _ => None,
            });
            assert_eq!(out.max_retransmits, defaults.max_retransmits);
            assert_eq!(out.degraded_mode, defaults.degraded_mode);
            assert_eq!(out.retransmit_timeout, defaults.retransmit_timeout);
            assert!(out.adaptive_rto);
        }
    }
}

/// Generates per-worker non-zero block bitmaps for a microbenchmark
/// tensor: block-structured sparsity `s` with the given overlap mode.
pub fn micro_bitmaps(
    n: usize,
    elements: usize,
    sparsity: f64,
    mode: OverlapMode,
    seed: u64,
) -> Vec<NonZeroBitmap> {
    let nblocks = elements.div_ceil(BLOCK_SIZE);
    bitmaps_from_sets(&worker_block_sets(n, nblocks, sparsity, mode, seed))
}

/// OmniReduce AllReduce completion time on `testbed` (dedicated
/// aggregators), including the host-copy floor.
pub fn omni_time(testbed: Testbed, cfg: OmniConfig, bitmaps: &[NonZeroBitmap]) -> SimTime {
    let bytes = cfg.tensor_len as u64 * 4;
    let spec = SimSpec::dedicated(cfg, testbed.bandwidth(), testbed.latency())
        .with_telemetry(telemetry().clone());
    let t = simulate_allreduce(&spec, bitmaps).completion;
    t.max(testbed.copy_floor(bytes))
}

/// Colocated-mode OmniReduce time (shards share worker NICs).
pub fn omni_time_colocated(
    testbed: Testbed,
    cfg: OmniConfig,
    bitmaps: &[NonZeroBitmap],
) -> SimTime {
    let bytes = cfg.tensor_len as u64 * 4;
    let spec = SimSpec::colocated(cfg, testbed.bandwidth(), testbed.latency())
        .with_telemetry(telemetry().clone());
    let t = simulate_allreduce(&spec, bitmaps).completion;
    t.max(testbed.copy_floor(bytes))
}

/// A printable result table that also lands as JSON in `results/`.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Prints the aligned table to stdout and writes
    /// `results/<slug>.json`.
    pub fn emit(&self, slug: &str) {
        print!("{}", self.render());
        self.write_json(slug);
    }

    /// The aligned table `emit` prints: title, headers, rule, rows.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("\n== {} ==\n{}\n", self.title, line(&self.headers));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    fn write_json(&self, slug: &str) {
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_err() {
            return; // read-only checkout: console output is enough
        }
        let path = dir.join(format!("{slug}.json"));
        if let Ok(mut f) = std::fs::File::create(path) {
            let _ = f.write_all(self.to_json().to_string_pretty().as_bytes());
        }
        self.write_telemetry(dir, slug);
    }

    /// The table as the `results/<slug>.json` document.
    fn to_json(&self) -> JsonValue {
        let mut dump = JsonValue::obj();
        dump.push("title", JsonValue::Str(self.title.clone()));
        dump.push(
            "headers",
            JsonValue::Arr(
                self.headers
                    .iter()
                    .map(|h| JsonValue::Str(h.clone()))
                    .collect(),
            ),
        );
        dump.push(
            "rows",
            JsonValue::Arr(
                self.rows
                    .iter()
                    .map(|row| {
                        JsonValue::Arr(row.iter().map(|c| JsonValue::Str(c.clone())).collect())
                    })
                    .collect(),
            ),
        );
        dump
    }

    /// Dumps the process-wide telemetry registry next to the table:
    /// `<slug>.metrics.json` always (stamped with
    /// [`RESULTS_SCHEMA_VERSION`]), `<slug>.trace.json` when tracing is
    /// enabled (`OMNIREDUCE_TRACE`) and events were recorded,
    /// `<slug>.timeseries.json` when the sampler is on
    /// (`OMNIREDUCE_TIMESERIES`) and ticks were taken, and — when the
    /// flight recorder is enabled (`OMNIREDUCE_FLIGHT`) and events were
    /// recorded — `<slug>.flight.json` (the raw recording, `omnistat`'s
    /// input) plus `<slug>.rounds.json` (the reconstructed per-round
    /// latency attribution).
    fn write_telemetry(&self, dir: &Path, slug: &str) {
        let snapshot = telemetry().snapshot();
        let path = dir.join(format!("{slug}.metrics.json"));
        if let Ok(mut f) = std::fs::File::create(path) {
            let mut doc = snapshot.to_json_value();
            if let JsonValue::Obj(fields) = &mut doc {
                fields.insert(
                    0,
                    (
                        "version".to_string(),
                        JsonValue::Uint(RESULTS_SCHEMA_VERSION),
                    ),
                );
            }
            let _ = f.write_all(doc.to_string_pretty().as_bytes());
        }
        let series = telemetry().series();
        if series.is_enabled() {
            let snap = series.snapshot();
            if snap.ticks() > 0 {
                let path = dir.join(format!("{slug}.timeseries.json"));
                if let Ok(mut f) = std::fs::File::create(path) {
                    let _ = f.write_all(snap.to_json().as_bytes());
                }
            }
        }
        let trace = telemetry().trace();
        if trace.is_enabled() && !trace.is_empty() {
            let path = dir.join(format!("{slug}.trace.json"));
            if let Ok(mut f) = std::fs::File::create(path) {
                let _ = f.write_all(trace.to_chrome_json().as_bytes());
            }
        }
        let flight = telemetry().flight();
        if flight.is_enabled() {
            let rec = flight.snapshot();
            if !rec.is_empty() {
                let path = dir.join(format!("{slug}.flight.json"));
                if let Ok(mut f) = std::fs::File::create(path) {
                    let _ = f.write_all(rec.to_json().as_bytes());
                }
                let attrib = RoundAttribution::from_recording(&rec, &AttributionConfig::default());
                let path = dir.join(format!("{slug}.rounds.json"));
                if let Ok(mut f) = std::fs::File::create(path) {
                    let _ = f.write_all(attrib.rounds_json().to_string_pretty().as_bytes());
                }
            }
        }
    }
}

/// Parses a `results/` JSON document, enforcing the schema `version`
/// field: a missing or mismatched version is an error with a message
/// ready for a `CHECK FAIL:` line, so `--check` gates refuse to compare
/// against a document written under a different schema instead of
/// silently misreading it.
pub fn parse_versioned(text: &str) -> Result<JsonValue, String> {
    let v = JsonValue::parse(text)
        .map_err(|e| format!("parse error at byte {}: {}", e.offset, e.message))?;
    match v.get("version").and_then(|x| x.as_u64()) {
        Some(RESULTS_SCHEMA_VERSION) => Ok(v),
        Some(other) => Err(format!(
            "schema version {other}, this binary expects {RESULTS_SCHEMA_VERSION} \
             (delete the file to regenerate it)"
        )),
        None => Err(format!(
            "missing \"version\" field, this binary expects version {RESULTS_SCHEMA_VERSION} \
             (delete the file to regenerate it)"
        )),
    }
}

/// Formats a [`SimTime`] as milliseconds with 2 decimals.
pub fn ms(t: SimTime) -> String {
    format!("{:.2}", t.as_millis_f64())
}

/// Formats a speedup factor.
pub fn x(f: f64) -> String {
    format!("{f:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_capacity_parsing() {
        // Off: unset, empty, and the conventional disable spellings.
        for v in [
            None,
            Some(""),
            Some("  "),
            Some("0"),
            Some("off"),
            Some("False"),
            Some("no"),
        ] {
            assert_eq!(flight_capacity_from(v), 0, "{v:?}");
        }
        // On with the default capacity: enable spellings and the
        // degenerate "1" (a one-event ring records nothing useful).
        for v in [Some("1"), Some("true"), Some("on"), Some("yes")] {
            assert_eq!(flight_capacity_from(v), 65_536, "{v:?}");
        }
        // Explicit capacities pass through.
        assert_eq!(flight_capacity_from(Some("2")), 2);
        assert_eq!(flight_capacity_from(Some("4096")), 4096);
    }

    #[test]
    fn series_capacity_and_interval_parsing() {
        for v in [None, Some(""), Some("0"), Some("off"), Some("no")] {
            assert_eq!(series_capacity_from(v), 0, "{v:?}");
        }
        for v in [Some("1"), Some("true"), Some("on")] {
            assert_eq!(series_capacity_from(v), 4096, "{v:?}");
        }
        assert_eq!(series_capacity_from(Some("256")), 256);
        assert_eq!(sample_interval_from(None), Duration::from_millis(5));
        assert_eq!(sample_interval_from(Some("0")), Duration::from_millis(5));
        assert_eq!(sample_interval_from(Some("junk")), Duration::from_millis(5));
        assert_eq!(sample_interval_from(Some("20")), Duration::from_millis(20));
    }

    #[test]
    fn versioned_documents_are_gated() {
        assert!(parse_versioned(r#"{"version": 1, "x": 2}"#).is_ok());
        let stale = parse_versioned(r#"{"version": 99, "x": 2}"#).unwrap_err();
        assert!(stale.contains("schema version 99"), "{stale}");
        let missing = parse_versioned(r#"{"x": 2}"#).unwrap_err();
        assert!(missing.contains("missing \"version\""), "{missing}");
        assert!(parse_versioned("{nope").is_err());
    }

    #[test]
    fn testbed_parameters() {
        assert_eq!(Testbed::Dpdk10.label(), "DPDK-10Gbps");
        assert!(Testbed::Gdr100.copy_floor(1 << 30) == SimTime::ZERO);
        let floor = Testbed::Rdma100.copy_floor(100_000_000);
        assert!((floor.as_millis_f64() - 6.25).abs() < 0.01);
    }

    #[test]
    fn omni_time_respects_copy_floor() {
        // Very sparse data at 100 Gbps: network time ≪ the RDMA path's
        // host-copy floor, so the floor dominates.
        let elements = 4 << 20;
        let cfg = omni_config(2, elements);
        let bms = micro_bitmaps(2, elements, 0.99, OverlapMode::All, 1);
        let t_rdma = omni_time(Testbed::Rdma100, cfg.clone(), &bms);
        let t_gdr = omni_time(Testbed::Gdr100, cfg, &bms);
        assert!(t_rdma > t_gdr, "copy floor must slow the RDMA path");
        assert_eq!(t_rdma, Testbed::Rdma100.copy_floor(elements as u64 * 4));
    }

    /// What `emit` prints and writes, checked without writing into the
    /// checkout.
    #[test]
    fn table_emits_without_panicking() {
        let mut t = Table::new("test", &["a", "bb"]);
        t.row(vec!["100".into(), "2".into()]);
        assert_eq!(t.render(), "\n== test ==\n  a  bb\n---------\n100   2\n");
        let json = t.to_json().to_string_pretty();
        assert!(
            json.contains("\"title\"") && json.contains("\"100\""),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("test", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}

/// Communication-time estimation for a full DNN workload gradient:
/// simulate a representative slice of the model and scale linearly (the
/// regime is bandwidth-dominated, so time is linear in bytes; the
/// pipeline-fill constant is microseconds against seconds).
pub mod e2e {
    use super::*;
    use omnireduce_collectives::sim::ring_allreduce_time;
    use omnireduce_workloads::Workload;

    /// Elements actually simulated per workload (slice of the model).
    pub const SLICE_ELEMENTS: usize = 8 << 20;

    /// DDP gradient bucket size (PyTorch default ~25 MB). Each bucket's
    /// AllReduce pays a fixed protocol/setup cost (bitmap computation,
    /// buffer handoff, kernel launches) on top of the wire time.
    pub const BUCKET_BYTES: u64 = 25_000_000;

    /// Per-bucket fixed overhead of the OmniReduce integration, seconds
    /// (larger on the software DPDK path).
    pub fn per_bucket_overhead(testbed: Testbed) -> f64 {
        match testbed {
            Testbed::Dpdk10 => 2.0e-3,
            Testbed::Rdma100 | Testbed::Gdr100 => 0.5e-3,
        }
    }

    fn bucket_overhead_seconds(testbed: Testbed, w: &Workload) -> f64 {
        let buckets = w.total_bytes().div_ceil(BUCKET_BYTES) as f64;
        buckets * per_bucket_overhead(testbed)
    }

    /// OmniReduce per-iteration gradient AllReduce time for `w` across
    /// `n` workers on `testbed`, in seconds.
    pub fn omni_comm_seconds(testbed: Testbed, w: &Workload, n: usize, seed: u64) -> f64 {
        let total = w.total_elements() as usize;
        let slice = SLICE_ELEMENTS.min(total);
        let scale = total as f64 / slice as f64;
        let cfg = omni_config(n, slice);
        let bms = w.worker_bitmaps(n, BLOCK_SIZE, slice, seed);
        let t = omni_time(testbed, cfg, &bms);
        // The copy floor scales with the full model, not the slice
        // (chunk prefetch overlaps staging with communication, so the
        // two combine as a max), and each DDP bucket pays a fixed
        // integration overhead.
        let scaled = t.as_secs_f64() * scale;
        scaled.max(testbed.copy_floor(w.total_bytes()).as_secs_f64())
            + bucket_overhead_seconds(testbed, w)
    }

    /// Dense-streaming (SwitchML*-style) per-iteration time, seconds.
    pub fn switchml_comm_seconds(testbed: Testbed, w: &Workload, n: usize) -> f64 {
        let total = w.total_elements() as usize;
        let slice = SLICE_ELEMENTS.min(total);
        let scale = total as f64 / slice as f64;
        let cfg = omni_config(n, slice).dense_streaming();
        let bms = micro_bitmaps(n, slice, 0.0, omnireduce_tensor::gen::OverlapMode::All, 7);
        let t = omni_time(testbed, cfg, &bms);
        (t.as_secs_f64() * scale).max(testbed.copy_floor(w.total_bytes()).as_secs_f64())
            + bucket_overhead_seconds(testbed, w)
    }

    /// NCCL ring per-iteration time, seconds.
    pub fn ring_comm_seconds(testbed: Testbed, w: &Workload, n: usize) -> f64 {
        let t = ring_allreduce_time(n, w.total_bytes(), testbed.nic());
        t.as_secs_f64()
            .max(testbed.copy_floor(w.total_bytes()).as_secs_f64())
    }
}
