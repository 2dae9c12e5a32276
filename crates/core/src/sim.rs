//! OmniReduce as [`omnireduce_simnet`] actors — the timing model used by
//! the benchmark harness to reproduce the paper's figures on simulated
//! 10/100 Gbps fabrics.
//!
//! The actors drive the *same state machines* as the executable engines
//! ([`crate::worker`], [`crate::aggregator`]) —
//! [`crate::protocol::WorkerRound`] and [`crate::protocol::SlotTable`]:
//! real per-column lookahead over the workers' actual non-zero bitmaps,
//! real fused packets, real min-next coordination. Only the tensor payload
//! is elided — packets carry block indices and the simulator charges them
//! their exact encoded byte size ([`omnireduce_transport::codec`]
//! constants), so the timing reflects true protocol behaviour including
//! partial overlap between workers (§6.4.2) and the extra round trips it
//! causes, and every shard receives byte for byte what the executable
//! engines send it.
//!
//! Topology knobs cover the paper's deployment modes:
//!
//! * **dedicated** aggregators — each shard on its own NIC (the paper's
//!   default testbed: 8 workers + 8 CPU aggregator nodes);
//! * **colocated** — shard `i` shares worker `i`'s NIC (the paper's
//!   `OmniReduce(Co)`), halving effective per-role bandwidth;
//! * arbitrary NIC rate/latency/loss, so the bench crate expresses the
//!   DPDK / RDMA / GDR profiles as NIC parameters (e.g. host-copy
//!   bottleneck = capped worker TX rate).

use std::sync::Arc;

use omnireduce_simnet::{
    ActorId, Bandwidth, Ctx, NicConfig, Process, RunReport, SimTime, Simulator, Topology,
};
use omnireduce_telemetry::{Counter, FlightEventKind, FlightLane, LaneRole, Telemetry, NO_BLOCK};
use omnireduce_tensor::{BlockIdx, NonZeroBitmap};
use omnireduce_transport::codec::ENTRY_HEADER_BYTES;

use crate::config::OmniConfig;
use crate::layout::StreamLayout;
use crate::protocol::{ColEntry, Row, SlotTable, WorkerRound};
use crate::shard::ShardMap;

/// One fused entry in a simulated packet.
#[derive(Debug, Clone, Copy)]
pub struct SimEntry {
    /// Block index this entry refers to.
    pub block: BlockIdx,
    /// Column within the fused packet.
    pub col: usize,
    /// Sender's next non-zero block in this column (or ∞).
    pub next: BlockIdx,
    /// Number of payload values (0 for acknowledgments).
    pub values: usize,
}

/// Simulated protocol message.
#[derive(Debug, Clone)]
pub enum SimMsg {
    /// Worker → aggregator block data.
    Data {
        /// Stream id.
        stream: usize,
        /// Sending worker.
        wid: usize,
        /// Fused entries.
        entries: Vec<SimEntry>,
    },
    /// Aggregator → worker aggregated result.
    Result {
        /// Stream id.
        stream: usize,
        /// Fused entries (per active column).
        entries: Vec<SimEntry>,
    },
}

impl SimEntry {
    /// A protocol entry with its payload reduced to a value count.
    fn sized(layout: &StreamLayout, e: &ColEntry) -> SimEntry {
        SimEntry {
            block: e.block,
            col: e.col,
            next: e.next,
            values: layout.block_range(e.block).len(),
        }
    }
}

fn msg_bytes(stream_id: u16, entries: &[SimEntry]) -> usize {
    omnireduce_transport::codec::block_header_bytes(stream_id)
        + entries
            .iter()
            .map(|e| ENTRY_HEADER_BYTES + 4 * e.values)
            .sum::<usize>()
}

/// Full specification of a simulated OmniReduce run.
pub struct SimSpec {
    /// Protocol geometry (block size, fusion, streams, shards, workers).
    pub cfg: OmniConfig,
    /// Worker NIC parameters.
    pub worker_nic: NicConfig,
    /// Aggregator NIC parameters (ignored when `colocated`).
    pub agg_nic: NicConfig,
    /// Shard `i` shares worker `i`'s NIC instead of its own.
    pub colocated: bool,
    /// Telemetry registry the run reports into (`core.sim.*` protocol
    /// counters, `simnet.nic.*` fabric counters, and — when the
    /// registry's trace recorder is enabled — per-NIC timeline spans).
    pub telemetry: Option<Telemetry>,
    /// Engine threads for the simnet backend (1 = classic sequential
    /// drain; >1 = conservative parallel windows, bit-identical output).
    pub threads: usize,
    /// Fabric topology override (e.g. multi-rack); `None` = flat.
    pub topology: Option<Arc<dyn Topology>>,
}

impl SimSpec {
    /// Dedicated-aggregator spec with symmetric NICs everywhere.
    pub fn dedicated(cfg: OmniConfig, rate: Bandwidth, latency: SimTime) -> Self {
        SimSpec {
            cfg,
            worker_nic: NicConfig::symmetric(rate, latency),
            agg_nic: NicConfig::symmetric(rate, latency),
            colocated: false,
            telemetry: None,
            threads: 1,
            topology: None,
        }
    }

    /// Colocated spec (shards share worker NICs).
    pub fn colocated(cfg: OmniConfig, rate: Bandwidth, latency: SimTime) -> Self {
        SimSpec {
            cfg,
            worker_nic: NicConfig::symmetric(rate, latency),
            agg_nic: NicConfig::symmetric(rate, latency),
            colocated: true,
            telemetry: None,
            threads: 1,
            topology: None,
        }
    }

    /// Attaches a telemetry registry to the spec (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Sets the simnet engine thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the fabric topology (builder style).
    pub fn with_topology(mut self, topology: impl Topology + 'static) -> Self {
        self.topology = Some(Arc::new(topology));
        self
    }
}

/// `core.sim.worker.*` counter handles shared by every worker actor.
#[derive(Clone, Default)]
struct SimWorkerCounters {
    packets_sent: Counter,
    bytes_sent: Counter,
    results_received: Counter,
    rounds_completed: Counter,
}

impl SimWorkerCounters {
    fn from_spec(spec: &SimSpec) -> Self {
        match &spec.telemetry {
            Some(t) => SimWorkerCounters {
                packets_sent: t.counter("core.sim.worker.packets_sent"),
                bytes_sent: t.counter("core.sim.worker.bytes_sent"),
                results_received: t.counter("core.sim.worker.results_received"),
                rounds_completed: t.counter("core.sim.worker.rounds_completed"),
            },
            None => SimWorkerCounters::default(),
        }
    }
}

/// `core.sim.aggregator.*` counter handles shared by every shard actor.
#[derive(Clone, Default)]
struct SimAggCounters {
    packets_received: Counter,
    results_sent: Counter,
    bytes_sent: Counter,
    slots_completed: Counter,
}

impl SimAggCounters {
    fn from_spec(spec: &SimSpec) -> Self {
        match &spec.telemetry {
            Some(t) => SimAggCounters {
                packets_received: t.counter("core.sim.aggregator.packets_received"),
                results_sent: t.counter("core.sim.aggregator.results_sent"),
                bytes_sent: t.counter("core.sim.aggregator.bytes_sent"),
                slots_completed: t.counter("core.sim.aggregator.slots_completed"),
            },
            None => SimAggCounters::default(),
        }
    }
}

/// Worker actor: drives [`WorkerRound`] like
/// [`crate::worker::OmniWorker`], with a byte count for a payload.
struct WorkerActor {
    cfg: OmniConfig,
    layout: StreamLayout,
    wid: usize,
    bitmap: Arc<NonZeroBitmap>,
    /// Actor ids of the shards, indexed by shard number.
    shards: Vec<ActorId>,
    round: WorkerRound,
    counters: SimWorkerCounters,
    /// Flight lane recording simulated-time protocol events
    /// (`record_at` with sim ns — never the wall clock).
    flight: FlightLane,
}

impl WorkerActor {
    fn send_data(&self, ctx: &mut Ctx<SimMsg>, stream: usize, entries: Vec<SimEntry>) {
        let bytes = msg_bytes(self.cfg.stream_id, &entries);
        let shard_no = self.cfg.shard_of_stream(stream);
        let shard = self.shards[shard_no];
        self.counters.packets_sent.inc();
        self.counters.bytes_sent.add(bytes as u64);
        if let Some(first) = entries.first() {
            self.flight.record_at(
                ctx.now().as_nanos(),
                FlightEventKind::PacketTx,
                0,
                first.block as u64,
                shard_no as u16,
                self.wid as u16,
                bytes as u64,
            );
        }
        ctx.send(
            shard,
            SimMsg::Data {
                stream,
                wid: self.wid,
                entries,
            },
            bytes,
        );
    }

    /// Halts the actor once every stream has completed.
    fn finish_if_done(&self, ctx: &mut Ctx<SimMsg>) {
        if !self.round.round_done() {
            return;
        }
        self.counters.rounds_completed.inc();
        self.flight.record_at(
            ctx.now().as_nanos(),
            FlightEventKind::RoundEnd,
            0,
            NO_BLOCK,
            0,
            self.wid as u16,
            0,
        );
        ctx.halt();
    }
}

impl Process<SimMsg> for WorkerActor {
    fn on_start(&mut self, ctx: &mut Ctx<SimMsg>) {
        self.flight.record_at(
            ctx.now().as_nanos(),
            FlightEventKind::RoundStart,
            0,
            NO_BLOCK,
            0,
            self.wid as u16,
            0,
        );
        let layout = self.layout;
        for g in layout.active_streams() {
            let mut entries = Vec::with_capacity(layout.width());
            self.round.open_stream(&self.bitmap, g, |s| {
                entries.push(SimEntry::sized(&layout, &s))
            });
            self.send_data(ctx, g, entries);
        }
        self.finish_if_done(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<SimMsg>, _from: ActorId, msg: SimMsg) {
        let SimMsg::Result { stream: g, entries } = msg else {
            panic!("worker received non-result message");
        };
        self.counters.results_received.inc();
        self.flight.record_at(
            ctx.now().as_nanos(),
            FlightEventKind::ResultRx,
            0,
            NO_BLOCK,
            self.cfg.shard_of_stream(g) as u16,
            self.wid as u16,
            entries.len() as u64,
        );
        let mut reply = Vec::with_capacity(entries.len());
        for e in &entries {
            if let Some(s) = self.round.on_result(&self.bitmap, g, e.col, e.next) {
                reply.push(SimEntry::sized(&self.layout, &s));
            }
        }
        if !reply.is_empty() {
            self.send_data(ctx, g, reply);
        }
        self.finish_if_done(ctx);
    }
}

/// Aggregator shard actor: drives [`SlotTable`] like
/// [`crate::aggregator::OmniAggregator`], serving exactly one AllReduce
/// round and halting when every owned stream completes.
struct AggActor {
    cfg: OmniConfig,
    layout: StreamLayout,
    shard: usize,
    workers: Vec<ActorId>,
    table: SlotTable,
    /// Completed-row scratch.
    row: Vec<ColEntry>,
    counters: SimAggCounters,
    /// Flight lane recording simulated-time protocol events.
    flight: FlightLane,
}

impl Process<SimMsg> for AggActor {
    fn on_start(&mut self, ctx: &mut Ctx<SimMsg>) {
        if self.table.active_streams() == 0 {
            ctx.halt();
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<SimMsg>, _from: ActorId, msg: SimMsg) {
        let SimMsg::Data {
            stream: g,
            wid,
            entries,
        } = msg
        else {
            panic!("aggregator received non-data message");
        };
        self.counters.packets_received.inc();
        // Keyed by the first entry's block, mirroring the sender's
        // PacketTx so the reconstructor pairs tx with rx.
        if let Some(first) = entries.first() {
            self.flight.record_at(
                ctx.now().as_nanos(),
                FlightEventKind::PacketRx,
                0,
                first.block as u64,
                self.shard as u16,
                wid as u16,
                entries.len() as u64,
            );
        }
        for e in &entries {
            debug_assert_eq!(e.block, self.table.cur(g, e.col));
            self.table.announce(g, e.col, wid, e.next);
        }
        let outcome = self.table.complete_row(g, &mut self.row);
        if outcome == Row::Pending {
            return;
        }
        let result: Vec<SimEntry> = self
            .row
            .iter()
            .map(|r| SimEntry::sized(&self.layout, r))
            .collect();
        let bytes = msg_bytes(self.cfg.stream_id, &result);
        self.counters.slots_completed.inc();
        self.flight.record_at(
            ctx.now().as_nanos(),
            FlightEventKind::ResultTx,
            0,
            result[0].block as u64,
            self.shard as u16,
            u16::MAX,
            result.len() as u64,
        );
        for w in &self.workers {
            self.counters.results_sent.inc();
            self.counters.bytes_sent.add(bytes as u64);
            ctx.send(
                *w,
                SimMsg::Result {
                    stream: g,
                    entries: result.clone(),
                },
                bytes,
            );
        }
        if outcome == Row::RoundDone {
            ctx.halt();
        }
    }
}

/// Outcome of a simulated AllReduce.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Time the last worker finished.
    pub completion: SimTime,
    /// Raw simulator report (per-NIC byte counters, etc.).
    pub report: RunReport,
    /// Total bytes workers transmitted.
    pub worker_tx_bytes: u64,
    /// Bytes received by each aggregator shard's NIC (index = shard) —
    /// the per-shard half of the wire-byte differential (DESIGN §10).
    /// Exact only with dedicated shard NICs: in colocated mode a shard
    /// shares its NIC with a worker, so the counter also contains that
    /// worker's inbound result traffic.
    pub shard_rx_bytes: Vec<u64>,
    /// Workers that gave up (retry budget exhausted against an
    /// unreachable peer) instead of finishing. Always empty for the
    /// lossless engines; see
    /// [`crate::sim_recovery::SimRtoConfig::max_retransmits`].
    pub failed_workers: Vec<usize>,
}

/// Simulates one OmniReduce AllReduce over the given per-worker non-zero
/// bitmaps, returning completion time and traffic counters.
///
/// # Panics
/// Panics when `bitmaps.len() != cfg.num_workers` or bitmap sizes
/// disagree with the config.
pub fn simulate_allreduce(spec: &SimSpec, bitmaps: &[NonZeroBitmap]) -> SimOutcome {
    let cfg = &spec.cfg;
    cfg.validate();
    assert_eq!(bitmaps.len(), cfg.num_workers, "one bitmap per worker");
    let map = ShardMap::new(cfg);
    let layout = *map.layout();
    for bm in bitmaps {
        assert_eq!(bm.block_count(), layout.nblocks(), "bitmap size mismatch");
    }
    if spec.colocated {
        assert!(
            cfg.num_aggregators <= cfg.num_workers,
            "colocated mode needs shards ≤ workers"
        );
    }

    let mut sim: Simulator<SimMsg> = Simulator::new(0xC0FFEE);
    sim.set_threads(spec.threads.max(1));
    if let Some(topology) = &spec.topology {
        sim.set_topology_shared(topology.clone());
    }
    if let Some(telemetry) = &spec.telemetry {
        sim.attach_telemetry(telemetry.clone());
    }
    let worker_counters = SimWorkerCounters::from_spec(spec);
    let agg_counters = SimAggCounters::from_spec(spec);
    // NICs: one per worker; one per shard unless colocated.
    let worker_nics: Vec<_> = (0..cfg.num_workers)
        .map(|_| sim.add_nic(spec.worker_nic))
        .collect();
    let shard_nics: Vec<_> = (0..cfg.num_aggregators)
        .map(|a| {
            if spec.colocated {
                worker_nics[a]
            } else {
                sim.add_nic(spec.agg_nic)
            }
        })
        .collect();

    // Actor ids are assigned in insertion order: workers first.
    let worker_ids: Vec<ActorId> = (0..cfg.num_workers).map(ActorId).collect();
    let shard_ids: Vec<ActorId> = (0..cfg.num_aggregators)
        .map(|a| ActorId(cfg.num_workers + a))
        .collect();

    // Flight lanes carry *simulated* nanoseconds (`record_at`), so a
    // recording from a sim run feeds the same reconstructor as a live
    // run — just in the sim clock domain.
    let flight_lane = |name: &str, role, actor| match &spec.telemetry {
        Some(t) => t.flight().lane(name, role, actor),
        None => FlightLane::disabled(),
    };
    for (w, bm) in bitmaps.iter().enumerate() {
        sim.add_actor(
            worker_nics[w],
            Box::new(WorkerActor {
                cfg: cfg.clone(),
                layout,
                wid: w,
                bitmap: Arc::new(bm.clone()),
                shards: shard_ids.clone(),
                round: WorkerRound::new(layout, cfg.skip_zero_blocks),
                counters: worker_counters.clone(),
                flight: flight_lane(&format!("worker{w}"), LaneRole::Worker, w as u16),
            }),
        );
    }
    for (a, nic) in shard_nics.iter().enumerate() {
        sim.add_actor(
            *nic,
            Box::new(AggActor {
                cfg: cfg.clone(),
                layout,
                shard: a,
                workers: worker_ids.clone(),
                table: SlotTable::new(layout, map.streams_of(a), cfg.num_workers),
                row: Vec::new(),
                counters: agg_counters.clone(),
                flight: flight_lane(&format!("agg{a}"), LaneRole::Aggregator, a as u16),
            }),
        );
    }

    let report = sim.run();
    let completion = worker_ids
        .iter()
        .map(|w| report.finished_at[w.0].expect("worker never finished"))
        .max()
        .unwrap_or(SimTime::ZERO);
    let worker_tx_bytes = (0..cfg.num_workers)
        .map(|w| report.nic_stats[w].bytes_tx)
        .sum();
    let shard_rx_bytes = shard_nics
        .iter()
        .map(|n| report.nic_stats[n.0].bytes_rx)
        .collect();
    SimOutcome {
        completion,
        report,
        worker_tx_bytes,
        shard_rx_bytes,
        failed_workers: Vec::new(),
    }
}

/// Builds per-worker bitmaps from [`omnireduce_tensor::gen`] block masks.
pub fn bitmaps_from_sets(sets: &[Vec<bool>]) -> Vec<NonZeroBitmap> {
    sets.iter()
        .map(|mask| {
            let mut bm = NonZeroBitmap::empty(mask.len());
            for (i, on) in mask.iter().enumerate() {
                if *on {
                    bm.set(i as u32);
                }
            }
            bm
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnireduce_tensor::gen::{worker_block_sets, OverlapMode};

    fn spec(n: usize, len: usize, sparsity: f64, seed: u64) -> (SimSpec, Vec<NonZeroBitmap>) {
        let cfg = OmniConfig::new(n, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(8)
            .with_aggregators(n);
        let nblocks = cfg.block_spec().block_count(len);
        let sets = worker_block_sets(n, nblocks, sparsity, OverlapMode::Random, seed);
        let s = SimSpec::dedicated(cfg, Bandwidth::gbps(10.0), SimTime::from_micros(5));
        (s, bitmaps_from_sets(&sets))
    }

    #[test]
    fn higher_sparsity_is_faster() {
        // Random overlap: the result multicast covers the union of
        // non-zero positions (1 − 0.9⁴ ≈ 34% here), so the speedup is
        // diluted — exactly the effect §6.1.1 reports. Expect >2×.
        let len = 1 << 20; // 4 MB of f32
        let (s0, b0) = spec(4, len, 0.0, 1);
        let (s9, b9) = spec(4, len, 0.9, 1);
        let t0 = simulate_allreduce(&s0, &b0).completion;
        let t9 = simulate_allreduce(&s9, &b9).completion;
        assert!(
            t9.as_nanos() * 2 < t0.as_nanos(),
            "90% sparse {t9} should be much faster than dense {t0}"
        );
    }

    #[test]
    fn full_overlap_speedup_matches_inverse_density() {
        // With all workers' non-zero blocks overlapping, time scales with
        // the density D (§3.4 model): 90% sparsity → ≈10× faster. The
        // tensor must be large enough that the unconditional first-row
        // exchange (one block per stream × column) is amortized.
        let len = 1 << 22;
        let cfg = OmniConfig::new(4, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(8)
            .with_aggregators(4);
        let nblocks = cfg.block_spec().block_count(len);
        let run = |sparsity| {
            let sets = worker_block_sets(4, nblocks, sparsity, OverlapMode::All, 21);
            let s = SimSpec::dedicated(cfg.clone(), Bandwidth::gbps(10.0), SimTime::from_micros(5));
            simulate_allreduce(&s, &bitmaps_from_sets(&sets))
                .completion
                .as_secs_f64()
        };
        let t0 = run(0.0);
        let t9 = run(0.9);
        let speedup = t0 / t9;
        assert!(
            (speedup - 10.0).abs() < 2.5,
            "full-overlap speedup {speedup} should be ≈ 1/D = 10"
        );
    }

    #[test]
    fn dense_time_matches_bandwidth_bound() {
        // Dense tensor, N workers, N shards: each worker sends S bytes and
        // receives S bytes; expected time ≈ S/B plus small overheads.
        let len = 1 << 20;
        let (s, b) = spec(4, len, 0.0, 2);
        let out = simulate_allreduce(&s, &b);
        let bytes = (len * 4) as f64;
        let ideal = bytes / Bandwidth::gbps(10.0).as_bytes_per_sec();
        let measured = out.completion.as_secs_f64();
        assert!(
            measured > ideal * 0.95 && measured < ideal * 1.4,
            "measured {measured}, ideal {ideal}"
        );
    }

    #[test]
    fn sparse_traffic_proportional_to_density() {
        let len = 1 << 20;
        let (s0, b0) = spec(4, len, 0.0, 3);
        let (s9, b9) = spec(4, len, 0.9, 3);
        let t0 = simulate_allreduce(&s0, &b0).worker_tx_bytes;
        let t9 = simulate_allreduce(&s9, &b9).worker_tx_bytes;
        let ratio = t9 as f64 / t0 as f64;
        assert!((ratio - 0.1).abs() < 0.03, "traffic ratio {ratio}");
    }

    #[test]
    fn overlap_ordering_at_mid_sparsity() {
        // §6.4.2: at s ∈ [60%, 90%] all-overlap beats random beats none.
        let len = 1 << 20;
        let cfg = OmniConfig::new(8, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(8)
            .with_aggregators(8);
        let nblocks = cfg.block_spec().block_count(len);
        let run = |mode| {
            let sets = worker_block_sets(8, nblocks, 0.8, mode, 5);
            let s = SimSpec::dedicated(cfg.clone(), Bandwidth::gbps(10.0), SimTime::from_micros(5));
            simulate_allreduce(&s, &bitmaps_from_sets(&sets)).completion
        };
        let t_all = run(OverlapMode::All);
        let t_rand = run(OverlapMode::Random);
        let t_none = run(OverlapMode::None);
        assert!(t_all < t_rand, "all {t_all} < random {t_rand}");
        assert!(t_rand < t_none, "random {t_rand} < none {t_none}");
    }

    #[test]
    fn colocated_dense_slower_than_dedicated() {
        let len = 1 << 20;
        let cfg = OmniConfig::new(4, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(8)
            .with_aggregators(4);
        let nblocks = cfg.block_spec().block_count(len);
        let sets = worker_block_sets(4, nblocks, 0.0, OverlapMode::All, 7);
        let bms = bitmaps_from_sets(&sets);
        let rate = Bandwidth::gbps(10.0);
        let lat = SimTime::from_micros(5);
        let t_ded = simulate_allreduce(&SimSpec::dedicated(cfg.clone(), rate, lat), &bms);
        let t_co = simulate_allreduce(&SimSpec::colocated(cfg, rate, lat), &bms);
        assert!(
            t_co.completion > t_ded.completion,
            "colocated {} should be slower than dedicated {}",
            t_co.completion,
            t_ded.completion
        );
    }

    #[test]
    fn empty_bitmaps_complete_quickly() {
        let len = 4096; // 16 blocks of 256
        let cfg = OmniConfig::new(2, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(2)
            .with_aggregators(2);
        let bms = vec![NonZeroBitmap::empty(16), NonZeroBitmap::empty(16)];
        let s = SimSpec::dedicated(cfg, Bandwidth::gbps(10.0), SimTime::from_micros(5));
        let out = simulate_allreduce(&s, &bms);
        // One first-row exchange only.
        assert!(out.completion.as_millis_f64() < 1.0, "{}", out.completion);
    }

    #[test]
    fn more_streams_mask_latency() {
        // With high latency, pipeline depth (streams) should cut time.
        let len = 1 << 20;
        let mk = |streams| {
            let cfg = OmniConfig::new(2, len)
                .with_block_size(256)
                .with_fusion(4)
                .with_streams(streams)
                .with_aggregators(2);
            let nblocks = cfg.block_spec().block_count(len);
            let sets = worker_block_sets(2, nblocks, 0.0, OverlapMode::All, 11);
            let s = SimSpec::dedicated(cfg, Bandwidth::gbps(100.0), SimTime::from_micros(20));
            simulate_allreduce(&s, &bitmaps_from_sets(&sets)).completion
        };
        let t1 = mk(1);
        let t16 = mk(16);
        assert!(
            t16.as_nanos() * 3 < t1.as_nanos(),
            "16 streams {t16} should beat 1 stream {t1} at high BDP"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let (s, b) = spec(4, 1 << 18, 0.5, 13);
        let a = simulate_allreduce(&s, &b).completion;
        let c = simulate_allreduce(&s, &b).completion;
        assert_eq!(a, c);
    }
}
