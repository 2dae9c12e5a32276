//! Algorithm 2 (loss recovery) as [`omnireduce_simnet`] actors: the
//! retransmission protocol running over a simulated lossy fabric, with
//! simulated timers — the deterministic counterpart of the wall-clock
//! measurement in `fig21_loss`.
//!
//! The actors drive the same machines as the executable engines in
//! [`crate::recovery`] — [`WorkerPhases`] and [`PhaseTable`] — so acks,
//! timers, RTO policy (read from [`OmniConfig`]), two-version slots,
//! seen-bit dedup, retained-result resends, NACKs and evictions behave
//! exactly as there. Packet payloads are elided: each column carries a
//! value count, the simulator charges exact encoded sizes (a NACK is the
//! codec's empty Nack packet) and drops packets per the NICs' loss
//! probability. What stays here is `Ctx::send`/`set_timer`, the
//! `core.sim_recovery.*` counters, the sim-time flight lane and the
//! scripted departures of [`SimMembership`].
//!
//! The aggregator actor never halts (it must stay able to serve result
//! retransmissions after the last multicast); the run ends when the
//! event queue drains — i.e. when every worker has finished and no timer
//! remains armed.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use omnireduce_simnet::{ActorId, Ctx, NicConfig, Process, SimTime, Simulator};
use omnireduce_telemetry::{
    Counter, FlightEventKind, FlightLane, Histogram, LaneRole, Telemetry, NO_BLOCK,
};
use omnireduce_tensor::NonZeroBitmap;
use omnireduce_transport::codec::ENTRY_HEADER_BYTES;

use crate::config::OmniConfig;
use crate::layout::StreamLayout;
use crate::protocol::{
    epoch_before, ColEntry, Completion, Contribution, Expiry, PhaseTable, Reply, WorkerPhases,
};
use crate::sim::{SimEntry, SimOutcome};

/// Membership schedule for a simulated run: scripted worker departures
/// (the simulated mirror of a crashed worker in [`ChaosNetwork`]) and
/// the aggregator's eviction policy. Departed workers go permanently
/// silent at the given simulated time; the aggregator evicts silent,
/// waited-on workers, bumps the membership epoch, and completes the
/// affected phases degraded — emitting the same `Eviction`/`EpochChange`
/// flight events as the live engine so the reconstructor and omnistat
/// attribution work identically on simulated traces.
///
/// [`ChaosNetwork`]: omnireduce_transport::fault::ChaosNetwork
#[derive(Debug, Clone)]
pub struct SimMembership {
    /// Per-worker departure time (index = worker id; `None` = stays).
    pub depart_at: Vec<Option<SimTime>>,
    /// Silence threshold after which a waited-on worker is evicted.
    pub eviction_timeout: SimTime,
}

impl SimMembership {
    /// A schedule in which nobody departs but eviction is armed.
    pub fn stable(n: usize, eviction_timeout: SimTime) -> Self {
        SimMembership {
            depart_at: vec![None; n],
            eviction_timeout,
        }
    }

    /// Marks worker `w` as departing (going silent) at `t`.
    pub fn depart(mut self, w: usize, t: SimTime) -> Self {
        self.depart_at[w] = Some(t);
        self
    }
}

/// Simulated recovery-protocol message.
#[derive(Debug, Clone)]
pub enum RecMsg {
    /// Worker → aggregator (data and/or acks for one phase).
    Data {
        /// Stream id.
        stream: usize,
        /// Phase version bit.
        ver: u8,
        /// Sending worker.
        wid: usize,
        /// Membership epoch the sender believes is current (mirrors the
        /// wire header's epoch byte; free on the wire, so `msg_bytes`
        /// is unchanged).
        epoch: u8,
        /// Entries (acks carry `values: 0`).
        entries: Vec<SimEntry>,
    },
    /// Aggregator → worker(s).
    Result {
        /// Stream id.
        stream: usize,
        /// Completed phase version.
        ver: u8,
        /// Membership epoch at completion; workers adopt newer epochs.
        epoch: u8,
        /// Per-column aggregated entries.
        entries: Vec<SimEntry>,
    },
    /// Aggregator → worker: the open phase `ver` of `stream` lacks this
    /// worker's contribution — resend it now.
    Nack {
        /// Stream id.
        stream: usize,
        /// Version of the stalled phase.
        ver: u8,
    },
}

fn msg_bytes(stream_id: u16, entries: &[SimEntry]) -> usize {
    omnireduce_transport::codec::block_header_bytes(stream_id)
        + entries
            .iter()
            .map(|e| ENTRY_HEADER_BYTES + 4 * e.values)
            .sum::<usize>()
}

/// `core.sim_recovery.*` loss-path counter handles shared by every actor
/// of one run (detached when the run carries no telemetry registry).
#[derive(Clone)]
struct RecCounters {
    retransmissions: Counter,
    solicited_retransmissions: Counter,
    timer_fires: Counter,
    stale_results_ignored: Counter,
    duplicates_ignored: Counter,
    result_retransmissions: Counter,
    nacks_sent: Counter,
    backoffs: Counter,
    peer_unresponsive: Counter,
    /// `core.sim_recovery.rto`: armed RTO per sent packet, in µs.
    rto: Histogram,
}

impl RecCounters {
    fn new(telemetry: Option<&Telemetry>) -> Self {
        let counter = |name: &str| match telemetry {
            Some(t) => t.counter(&format!("core.sim_recovery.{name}")),
            None => Counter::detached(),
        };
        RecCounters {
            retransmissions: counter("retransmissions"),
            solicited_retransmissions: counter("solicited_retransmissions"),
            timer_fires: counter("timer_fires"),
            stale_results_ignored: counter("stale_results_ignored"),
            duplicates_ignored: counter("duplicates_ignored"),
            result_retransmissions: counter("result_retransmissions"),
            nacks_sent: counter("nacks_sent"),
            backoffs: counter("backoffs"),
            peer_unresponsive: counter("peer_unresponsive"),
            rto: telemetry.map_or_else(Histogram::detached, |t| {
                t.histogram("core.sim_recovery.rto")
            }),
        }
    }
}

struct RecWorker {
    cfg: OmniConfig,
    layout: StreamLayout,
    wid: usize,
    bitmap: Arc<NonZeroBitmap>,
    shards: Vec<ActorId>,
    phases: WorkerPhases,
    /// The packet each open stream waits to see answered.
    sent: Vec<Option<Vec<SimEntry>>>,
    /// Per-stream timer generation: bumps on every (re)arm and answer,
    /// so a superseded timer's token is recognized and ignored.
    timer_gen: Vec<u32>,
    /// Set when the retry budget ran out: the worker has halted as
    /// failed and ignores everything from then on.
    failed: bool,
    /// Membership epoch this worker believes is current (adopted from
    /// newer `Result` epochs, mirroring the live engine).
    epoch: u8,
    /// Scheduled departure (simulated crash): the worker goes silent at
    /// this time and halts.
    depart_at: Option<SimTime>,
    /// Set once the departure fired.
    departed: bool,
    /// Shared sink for failed worker ids, read by the driver.
    failed_sink: Arc<Mutex<Vec<usize>>>,
    counters: RecCounters,
    /// Flight lane recording simulated-time protocol events
    /// (`record_at` with sim ns — never the wall clock).
    flight: FlightLane,
}

fn timer_token(stream: usize, generation: u32) -> u64 {
    ((stream as u64) << 32) | generation as u64
}

/// Worker timer token for the scripted departure (never collides with
/// `timer_token`: that would need 2³² streams).
const DEPART_TOKEN: u64 = u64::MAX;
/// Aggregator timer token for the eviction sweep (the aggregator arms
/// no other timers).
const SWEEP_TOKEN: u64 = u64::MAX;

/// A worker packet entry as the simulator carries it: the block's value
/// count for data, none for an ack.
fn sim_entry(layout: &StreamLayout, reply: Reply) -> SimEntry {
    let (e, values) = match reply {
        Reply::Data(e) => (e, layout.block_range(e.block).len()),
        Reply::Ack(e) => (e, 0),
    };
    SimEntry {
        block: e.block,
        col: e.col,
        next: e.next,
        values,
    }
}

impl RecWorker {
    fn record(&self, now: SimTime, kind: FlightEventKind, block: u64, shard: usize, aux: u64) {
        self.flight.record_at(
            now.as_nanos(),
            kind,
            0,
            block,
            shard as u16,
            self.wid as u16,
            aux,
        );
    }

    /// Puts `stream`'s packet on the wire and arms its timer for `rto`
    /// ns.
    fn transmit(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, entries: Vec<SimEntry>, rto: u64) {
        let bytes = msg_bytes(self.cfg.stream_id, &entries);
        let shard = self.cfg.shard_of_stream(g);
        let block = entries.first().map_or(NO_BLOCK, |e| e.block as u64);
        self.record(
            ctx.now(),
            FlightEventKind::PacketTx,
            block,
            shard,
            bytes as u64,
        );
        ctx.send(
            self.shards[shard],
            RecMsg::Data {
                stream: g,
                ver: self.phases.ver(g),
                wid: self.wid,
                epoch: self.epoch,
                entries: entries.clone(),
            },
            bytes,
        );
        self.sent[g] = Some(entries);
        self.timer_gen[g] += 1;
        self.counters.rto.record(rto / 1_000);
        ctx.set_timer(SimTime::from_nanos(rto), timer_token(g, self.timer_gen[g]));
    }

    fn send(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, entries: Vec<SimEntry>) {
        let rto = self.phases.sent(g, ctx.now().as_nanos());
        self.transmit(ctx, g, entries, rto);
    }

    /// Resends `stream`'s outstanding packet: on a timer expiry
    /// (`waited` = ns since its first transmission) or on a NACK
    /// (`None`).
    fn resend(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, waited: Option<u64>) {
        let entries = self.sent[g].take().expect("outstanding packet");
        let shard = self.cfg.shard_of_stream(g);
        let bytes = msg_bytes(self.cfg.stream_id, &entries) as u64;
        let block = entries.first().map_or(NO_BLOCK, |e| e.block as u64);
        let now = ctx.now();
        self.counters.retransmissions.inc();
        match waited {
            None => {
                self.counters.solicited_retransmissions.inc();
                self.record(now, FlightEventKind::NackRx, block, shard, 0);
                self.record(now, FlightEventKind::SolicitedResend, block, shard, bytes);
            }
            Some(waited) => {
                self.record(now, FlightEventKind::RtoFire, block, shard, waited);
                self.record(now, FlightEventKind::Retransmit, block, shard, bytes);
            }
        }
        let rto = self.phases.rto(shard);
        self.transmit(ctx, g, entries, rto);
    }
}

impl Process<RecMsg> for RecWorker {
    fn on_start(&mut self, ctx: &mut Ctx<RecMsg>) {
        self.record(ctx.now(), FlightEventKind::RoundStart, NO_BLOCK, 0, 0);
        self.phases.begin_round();
        let layout = self.layout;
        for g in layout.active_streams() {
            let mut entries = Vec::new();
            self.phases.open_stream(&self.bitmap, g, |e| {
                entries.push(sim_entry(&layout, Reply::Data(e)));
            });
            self.send(ctx, g, entries);
        }
        if let Some(t) = self.depart_at {
            ctx.set_timer(t, DEPART_TOKEN);
        }
        if self.phases.round_done() {
            ctx.halt();
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<RecMsg>, _from: ActorId, msg: RecMsg) {
        if self.failed || self.departed {
            return;
        }
        let (g, ver, epoch, entries) = match msg {
            RecMsg::Result {
                stream,
                ver,
                epoch,
                entries,
            } => (stream, ver, epoch, entries),
            RecMsg::Nack { stream, ver } => {
                if self.phases.on_nack(stream, ver) {
                    self.resend(ctx, stream, None);
                }
                return;
            }
            RecMsg::Data { .. } => panic!("worker got data"),
        };
        let shard = self.cfg.shard_of_stream(g);
        let now = ctx.now();
        if epoch_before(self.epoch, epoch) {
            // The group's membership moved on (an eviction happened):
            // adopt the epoch, mirroring the live worker.
            self.epoch = epoch;
            self.record(
                now,
                FlightEventKind::EpochChange,
                NO_BLOCK,
                shard,
                epoch as u64,
            );
        }
        if !self.phases.on_result(g, ver, now.as_nanos()) {
            // A finished stream's, or an already-answered phase's.
            self.counters.stale_results_ignored.inc();
            return;
        }
        let answered = entries.len() as u64;
        self.record(now, FlightEventKind::ResultRx, NO_BLOCK, shard, answered);
        // Phase answered: the outstanding packet and its timer retire.
        self.sent[g] = None;
        self.timer_gen[g] += 1;
        let mut reply = Vec::new();
        for e in &entries {
            if let Some(r) = self.phases.reply(&self.bitmap, g, e.col, e.next) {
                reply.push(sim_entry(&self.layout, r));
            }
        }
        if !self.phases.stream_done(g) {
            self.send(ctx, g, reply);
            return;
        }
        debug_assert!(reply.is_empty(), "reply for a finished stream");
        if self.phases.round_done() {
            self.record(now, FlightEventKind::RoundEnd, NO_BLOCK, 0, 0);
            ctx.halt();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RecMsg>, token: u64) {
        if self.failed || self.departed {
            return;
        }
        if token == DEPART_TOKEN {
            // Scripted crash: go permanently silent. The aggregator
            // will evict this worker once its silence exceeds the
            // membership plan's eviction timeout.
            self.departed = true;
            ctx.halt();
            return;
        }
        self.counters.timer_fires.inc();
        let g = (token >> 32) as usize;
        if self.timer_gen.get(g) != Some(&(token as u32)) {
            return; // superseded timer
        }
        match self.phases.on_timer(g, ctx.now().as_nanos()) {
            Expiry::Idle => {}
            Expiry::Resend { waited, backoff } => {
                if backoff {
                    self.counters.backoffs.inc();
                }
                self.resend(ctx, g, Some(waited));
            }
            Expiry::GiveUp { .. } => {
                // The shard is unreachable. Halt as failed so the
                // simulation drains instead of re-arming timers forever.
                self.failed = true;
                self.counters.peer_unresponsive.inc();
                self.failed_sink
                    .lock()
                    .expect("failed sink poisoned")
                    .push(self.wid);
                ctx.halt();
            }
            Expiry::Failover { .. } => unreachable!("the simulator models no standby"),
        }
    }
}

/// Per owned stream and version: each column's value count (0 when every
/// contribution was an ack) and the retained result.
struct SimPayload {
    values: [Vec<usize>; 2],
    result: [Option<Vec<SimEntry>>; 2],
}

struct RecAgg {
    cfg: OmniConfig,
    shard: usize,
    workers: Vec<ActorId>,
    table: PhaseTable,
    /// Payloads per stream (`None` = not owned by this shard).
    payload: Vec<Option<SimPayload>>,
    row: Vec<ColEntry>,
    counters: RecCounters,
    /// Flight lane recording simulated-time protocol events.
    flight: FlightLane,
    /// Eviction threshold; `None` disables the sweep entirely (the
    /// default for all entry points without a [`SimMembership`] plan).
    eviction_timeout: Option<SimTime>,
}

impl RecAgg {
    fn record(&self, now: SimTime, kind: FlightEventKind, block: u64, wid: u16, aux: u64) {
        self.flight
            .record_at(now.as_nanos(), kind, 0, block, self.shard as u16, wid, aux);
    }

    fn arm_sweep(&self, ctx: &mut Ctx<RecMsg>) {
        if let Some(timeout) = self.eviction_timeout {
            let tick = SimTime::from_nanos((timeout.as_nanos() / 4).max(1_000));
            ctx.set_timer(tick, SWEEP_TOKEN);
        }
    }

    fn complete_if_ready(&mut self, ctx: &mut Ctx<RecMsg>, g: usize, v: usize) {
        let mut row = std::mem::take(&mut self.row);
        if self.table.complete(g, v as u8, &mut row) == Completion::Pending {
            self.row = row;
            return;
        }
        let payload = self.payload[g].as_mut().expect("owned stream");
        let result: Vec<SimEntry> = row
            .iter()
            .map(|r| SimEntry {
                block: r.block,
                col: r.col,
                next: r.next,
                values: payload.values[v][r.col],
            })
            .collect();
        self.row = row;
        let bytes = msg_bytes(self.cfg.stream_id, &result);
        if let Some(first) = result.first() {
            let entries = result.len() as u64;
            self.record(
                ctx.now(),
                FlightEventKind::ResultTx,
                first.block as u64,
                u16::MAX,
                entries,
            );
        }
        for (w, actor) in self.workers.iter().enumerate() {
            if self.table.is_member(w) {
                ctx.send(
                    *actor,
                    RecMsg::Result {
                        stream: g,
                        ver: v as u8,
                        epoch: self.table.epoch(),
                        entries: result.clone(),
                    },
                    bytes,
                );
            }
        }
        self.payload[g].as_mut().expect("owned stream").result[v] = Some(result);
    }
}

impl Process<RecMsg> for RecAgg {
    fn on_start(&mut self, _ctx: &mut Ctx<RecMsg>) {
        // Never halts: stays able to retransmit results. The run ends
        // when the queue drains.
    }

    fn on_message(&mut self, ctx: &mut Ctx<RecMsg>, _from: ActorId, msg: RecMsg) {
        let RecMsg::Data {
            stream: g,
            ver,
            wid,
            epoch,
            entries,
        } = msg
        else {
            panic!("aggregator got a worker-bound message");
        };
        let v = (ver & 1) as usize;
        let now = ctx.now();
        let was_busy = self.table.busy();
        let contribution = self.table.on_data(wid, g, ver, epoch, now.as_nanos());
        if matches!(
            contribution,
            Contribution::Zombie | Contribution::StaleEpoch
        ) {
            return;
        }
        if !was_busy {
            // Idle→busy edge: a new round starts; arm the eviction sweep.
            self.arm_sweep(ctx);
        }
        // Keyed by the first entry's block, mirroring the sender's
        // PacketTx so the reconstructor pairs tx with rx.
        if let Some(first) = entries.first() {
            let n = entries.len() as u64;
            self.record(
                now,
                FlightEventKind::PacketRx,
                first.block as u64,
                wid as u16,
                n,
            );
        }
        let payload = self.payload[g].as_mut().expect("owned stream");
        match contribution {
            Contribution::Resend => {
                self.counters.duplicates_ignored.inc();
                if let Some(result) = payload.result[v].clone() {
                    self.counters.result_retransmissions.inc();
                    let bytes = msg_bytes(self.cfg.stream_id, &result);
                    let epoch = self.table.epoch();
                    let result = RecMsg::Result {
                        stream: g,
                        ver: v as u8,
                        epoch,
                        entries: result,
                    };
                    ctx.send(self.workers[wid], result, bytes);
                }
            }
            Contribution::Stalled => {
                self.counters.duplicates_ignored.inc();
                let bytes = msg_bytes(self.cfg.stream_id, &[]);
                for w in self.table.missing(g, ver) {
                    self.counters.nacks_sent.inc();
                    self.record(now, FlightEventKind::NackTx, NO_BLOCK, w as u16, 0);
                    ctx.send(self.workers[w], RecMsg::Nack { stream: g, ver }, bytes);
                }
            }
            Contribution::Fresh { opened } => {
                if opened {
                    payload.values[v].fill(0);
                    payload.result[v] = None;
                }
                for e in &entries {
                    let c = ColEntry {
                        col: e.col,
                        block: e.block,
                        next: e.next,
                    };
                    if e.values == 0 {
                        self.table.fold(g, ver, Reply::Ack(c));
                    } else {
                        self.table.fold(g, ver, Reply::Data(c));
                        payload.values[v][e.col] = e.values;
                    }
                }
                self.complete_if_ready(ctx, g, v);
            }
            Contribution::Zombie | Contribution::StaleEpoch => unreachable!(),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<RecMsg>, token: u64) {
        debug_assert_eq!(token, SWEEP_TOKEN);
        let Some(timeout) = self.eviction_timeout else {
            return;
        };
        if !self.table.busy() {
            // Fully idle: nothing is owed, so nobody can be evicted.
            // Not re-arming lets the event queue drain; the next
            // idle→busy edge re-arms the sweep.
            return;
        }
        let now = ctx.now();
        while let Some((w, idle)) = self.table.overdue(now.as_nanos(), timeout.as_nanos()) {
            // Eviction is a membership change: the epoch bump makes the
            // survivors' flight lanes record the same `EpochChange`
            // sequence a live chaos run would.
            self.table.evict(w);
            self.record(now, FlightEventKind::Eviction, NO_BLOCK, w as u16, idle);
            let epoch = self.table.epoch() as u64;
            self.record(now, FlightEventKind::EpochChange, NO_BLOCK, w as u16, epoch);
            // Renormalize: phases in flight may now complete without it.
            for g in 0..self.payload.len() {
                if self.payload[g].is_some() {
                    self.complete_if_ready(ctx, g, 0);
                    self.complete_if_ready(ctx, g, 1);
                }
            }
        }
        if self.table.busy() {
            self.arm_sweep(ctx);
        }
    }
}

/// Simulates one Algorithm 2 AllReduce over a lossy fabric.
///
/// `loss` is the per-packet drop probability applied on every NIC;
/// `timeout` the workers' fixed retransmission timeout (with a retry
/// budget of 1000, so a simulation against a dead peer still drains);
/// `seed` drives the loss process (runs are deterministic per seed). For
/// any other policy — the adaptive RTO, another budget — set it on `cfg`
/// and use [`simulate_recovery_allreduce_with_telemetry`].
pub fn simulate_recovery_allreduce(
    cfg: &OmniConfig,
    worker_nic: NicConfig,
    agg_nic: NicConfig,
    loss: f64,
    timeout: SimTime,
    bitmaps: &[NonZeroBitmap],
    seed: u64,
) -> SimOutcome {
    let cfg = cfg
        .clone()
        .with_fixed_rto(Duration::from_nanos(timeout.as_nanos()))
        .with_max_retransmits(1000);
    simulate_recovery_allreduce_with_telemetry(&cfg, worker_nic, agg_nic, loss, bitmaps, seed, None)
}

/// Like [`simulate_recovery_allreduce`], but with the retransmission
/// policy `cfg` carries ([`OmniConfig::adaptive_rto`],
/// `retransmit_timeout`, `rto_min`, `rto_max`, `max_retransmits`), and
/// reporting loss-path counters (`core.sim_recovery.*`) and fabric
/// counters (`simnet.*`) into `telemetry` when one is given.
pub fn simulate_recovery_allreduce_with_telemetry(
    cfg: &OmniConfig,
    worker_nic: NicConfig,
    agg_nic: NicConfig,
    loss: f64,
    bitmaps: &[NonZeroBitmap],
    seed: u64,
    telemetry: Option<&Telemetry>,
) -> SimOutcome {
    simulate_recovery_allreduce_with_membership(
        cfg, worker_nic, agg_nic, loss, bitmaps, seed, 1, None, telemetry,
    )
}

/// Like [`simulate_recovery_allreduce_with_telemetry`], with a scripted
/// [`SimMembership`] plan: departed workers go silent at simulated
/// times and the aggregator evicts them, completing the collective
/// degraded — the simulated mirror of the live engine's elastic
/// membership, emitting the same `Eviction`/`EpochChange` flight
/// events. Without a plan this is byte-for-byte the plain simulation.
/// `threads` selects the simnet engine's thread count (1 = sequential
/// drain; >1 = conservative parallel windows with identical output).
///
/// `completion` covers the *surviving* workers only; departed workers
/// halt at their scripted time and are excluded.
///
/// # Panics
/// Panics when `cfg` asks for hot standbys: the simulator models none.
#[allow(clippy::too_many_arguments)]
pub fn simulate_recovery_allreduce_with_membership(
    cfg: &OmniConfig,
    worker_nic: NicConfig,
    agg_nic: NicConfig,
    loss: f64,
    bitmaps: &[NonZeroBitmap],
    seed: u64,
    threads: usize,
    membership: Option<&SimMembership>,
    telemetry: Option<&Telemetry>,
) -> SimOutcome {
    cfg.validate();
    assert!(!cfg.hot_standby, "the simulator models no hot standby");
    if let Some(m) = membership {
        assert_eq!(m.depart_at.len(), cfg.num_workers, "plan/worker mismatch");
    }
    assert_eq!(bitmaps.len(), cfg.num_workers);
    let layout = StreamLayout::new(
        cfg.block_spec(),
        cfg.fusion,
        cfg.total_streams(),
        cfg.tensor_len,
    );
    let mut sim: Simulator<RecMsg> = Simulator::new(seed);
    sim.set_threads(threads.max(1));
    if let Some(t) = telemetry {
        sim.attach_telemetry(t.clone());
    }
    let counters = RecCounters::new(telemetry);
    let worker_nics: Vec<_> = (0..cfg.num_workers)
        .map(|_| sim.add_nic(worker_nic.with_loss(loss)))
        .collect();
    let shard_nics: Vec<_> = (0..cfg.num_aggregators)
        .map(|_| sim.add_nic(agg_nic.with_loss(loss)))
        .collect();
    let worker_ids: Vec<ActorId> = (0..cfg.num_workers).map(ActorId).collect();
    let shard_ids: Vec<ActorId> = (0..cfg.num_aggregators)
        .map(|a| ActorId(cfg.num_workers + a))
        .collect();
    let failed_sink: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    // Flight lanes carry *simulated* nanoseconds (`record_at`), so a
    // recording from a lossy sim run feeds the same reconstructor as a
    // live chaos run.
    let flight_lane = |name: &str, role, actor| match telemetry {
        Some(t) => t.flight().lane(name, role, actor),
        None => FlightLane::disabled(),
    };
    let streams = layout.total_streams();
    for (w, bm) in bitmaps.iter().enumerate() {
        sim.add_actor(
            worker_nics[w],
            Box::new(RecWorker {
                cfg: cfg.clone(),
                layout,
                wid: w,
                bitmap: Arc::new(bm.clone()),
                shards: shard_ids.clone(),
                phases: WorkerPhases::new(cfg, w),
                sent: vec![None; streams],
                timer_gen: vec![0; streams],
                failed: false,
                epoch: 0,
                depart_at: membership.and_then(|m| m.depart_at[w]),
                departed: false,
                failed_sink: failed_sink.clone(),
                counters: counters.clone(),
                flight: flight_lane(&format!("worker{w}"), LaneRole::Worker, w as u16),
            }),
        );
    }
    for (a, nic) in shard_nics.iter().enumerate() {
        let owned = (a..streams).step_by(cfg.num_aggregators);
        let values = vec![0; layout.width()];
        sim.add_actor(
            *nic,
            Box::new(RecAgg {
                cfg: cfg.clone(),
                shard: a,
                workers: worker_ids.clone(),
                table: PhaseTable::new(layout, owned, cfg.num_workers),
                payload: (0..streams)
                    .map(|g| {
                        (cfg.shard_of_stream(g) == a).then(|| SimPayload {
                            values: [values.clone(), values.clone()],
                            result: [None, None],
                        })
                    })
                    .collect(),
                row: Vec::new(),
                counters: counters.clone(),
                flight: flight_lane(&format!("agg{a}"), LaneRole::Aggregator, a as u16),
                eviction_timeout: membership.map(|m| m.eviction_timeout),
            }),
        );
    }
    let report = sim.run();
    let completion = worker_ids
        .iter()
        .filter(|w| membership.is_none_or(|m| m.depart_at[w.0].is_none()))
        .map(|w| report.finished_at[w.0].expect("worker finished"))
        .max()
        .unwrap_or(SimTime::ZERO);
    let worker_tx_bytes = (0..cfg.num_workers)
        .map(|w| report.nic_stats[w].bytes_tx)
        .sum();
    let shard_rx_bytes = shard_nics
        .iter()
        .map(|n| report.nic_stats[n.0].bytes_rx)
        .collect();
    let mut failed_workers = failed_sink.lock().expect("failed sink poisoned").clone();
    failed_workers.sort_unstable();
    SimOutcome {
        completion,
        report,
        worker_tx_bytes,
        shard_rx_bytes,
        failed_workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::bitmaps_from_sets;
    use omnireduce_simnet::Bandwidth;
    use omnireduce_tensor::gen::{worker_block_sets, OverlapMode};

    fn setup(n: usize, len: usize, sparsity: f64) -> (OmniConfig, Vec<NonZeroBitmap>) {
        let cfg = OmniConfig::new(n, len)
            .with_block_size(256)
            .with_fusion(4)
            .with_streams(8)
            .with_aggregators(n);
        let nblocks = cfg.block_spec().block_count(len);
        let sets = worker_block_sets(n, nblocks, sparsity, OverlapMode::Random, 3);
        (cfg, bitmaps_from_sets(&sets))
    }

    fn nic() -> NicConfig {
        NicConfig::symmetric(Bandwidth::gbps(10.0), SimTime::from_micros(15))
    }

    /// `cfg` with a fixed 500 µs RTO and a budget of 1000 retries.
    fn fixed_rto(cfg: &OmniConfig) -> OmniConfig {
        cfg.clone()
            .with_fixed_rto(Duration::from_micros(500))
            .with_max_retransmits(1000)
    }

    fn run(loss: f64, seed: u64) -> SimOutcome {
        let (cfg, bms) = setup(4, 1 << 20, 0.5);
        simulate_recovery_allreduce(
            &cfg,
            nic(),
            nic(),
            loss,
            SimTime::from_micros(500),
            &bms,
            seed,
        )
    }

    #[test]
    fn lossless_recovery_close_to_basic_protocol() {
        // With zero loss, the recovery protocol costs only the ack
        // packets relative to the lossless engine — same order of time.
        let (cfg, bms) = setup(4, 1 << 20, 0.5);
        let spec = crate::sim::SimSpec::dedicated(
            cfg.clone(),
            Bandwidth::gbps(10.0),
            SimTime::from_micros(15),
        );
        let basic = crate::sim::simulate_allreduce(&spec, &bms).completion;
        let rec = run(0.0, 1).completion;
        let ratio = rec.as_secs_f64() / basic.as_secs_f64();
        assert!(
            (0.8..2.0).contains(&ratio),
            "recovery {rec} vs basic {basic} (ratio {ratio})"
        );
    }

    #[test]
    fn completes_under_loss() {
        for loss in [0.0001, 0.001, 0.01] {
            let out = run(loss, 7);
            assert!(out.completion > SimTime::ZERO, "loss {loss}");
        }
    }

    #[test]
    fn loss_increases_completion_time() {
        let clean = run(0.0, 5).completion;
        let lossy = run(0.01, 5).completion;
        assert!(
            lossy > clean,
            "1% loss ({lossy}) should exceed lossless ({clean})"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(run(0.005, 9).completion, run(0.005, 9).completion);
    }

    #[test]
    fn departed_worker_is_evicted_and_sim_completes_degraded() {
        let (cfg, bms) = setup(4, 1 << 18, 0.5);
        // Worker 3 crashes mid-stream (the clean run takes ~0.9 ms).
        let plan = SimMembership::stable(4, SimTime::from_micros(1_000))
            .depart(3, SimTime::from_micros(200));
        let run = |seed| {
            let telemetry = Telemetry::with_observability(0, 1 << 16);
            let out = simulate_recovery_allreduce_with_membership(
                &fixed_rto(&cfg),
                nic(),
                nic(),
                0.0,
                &bms,
                seed,
                1,
                Some(&plan),
                Some(&telemetry),
            );
            (out, telemetry.flight().snapshot())
        };
        let (out, rec) = run(3);
        // Survivors stall on the dead worker until the eviction fires,
        // then complete degraded: strictly slower than the clean run,
        // and no survivor exhausts its retry budget.
        let clean = simulate_recovery_allreduce_with_membership(
            &fixed_rto(&cfg),
            nic(),
            nic(),
            0.0,
            &bms,
            3,
            1,
            None,
            None,
        );
        assert!(
            out.completion > clean.completion,
            "degraded {} vs clean {}",
            out.completion,
            clean.completion
        );
        assert!(out.failed_workers.is_empty(), "{:?}", out.failed_workers);
        // The simulated trace carries the same membership events a live
        // chaos run would: the eviction and its epoch bump.
        let count = |kind: FlightEventKind| {
            rec.lanes
                .iter()
                .flat_map(|l| l.events.iter())
                .filter(|e| e.kind == kind)
                .count()
        };
        // Every shard waiting on the departed worker evicts it
        // independently (per-shard membership, as in the live engine).
        let evictions = count(FlightEventKind::Eviction);
        assert!(
            (1..=cfg.num_aggregators).contains(&evictions),
            "evictions: {evictions}"
        );
        assert!(
            count(FlightEventKind::EpochChange) >= evictions,
            "no epoch change recorded"
        );
        // Deterministic per seed, membership events included.
        let (out2, rec2) = run(3);
        assert_eq!(out.completion, out2.completion);
        assert_eq!(rec.total_events(), rec2.total_events());
    }

    #[test]
    fn stable_membership_plan_matches_plain_simulation() {
        let (cfg, bms) = setup(4, 1 << 18, 0.5);
        let go = |plan: Option<&SimMembership>| {
            simulate_recovery_allreduce_with_membership(
                &fixed_rto(&cfg),
                nic(),
                nic(),
                0.002,
                &bms,
                21,
                1,
                plan,
                None,
            )
        };
        // An armed eviction sweep with nobody departing must not change
        // the protocol: same completion time to the nanosecond.
        let plan = SimMembership::stable(4, SimTime::from_micros(50_000));
        assert_eq!(go(None).completion, go(Some(&plan)).completion);
    }

    /// Regression: with an armed eviction sweep, a retransmission
    /// duplicate that lands *after* its phase completed used to flip
    /// the shard back to busy with nothing in flight — no completion
    /// ever cleared the flag again, the sweep timer re-armed forever
    /// and the event queue never drained. This exact shape (4 workers,
    /// 2^12 elements, loss 0.002, seed 21: worker 1's stream-3 packet
    /// drops, everyone retransmits at the fixed RTO, workers 2 and 3's
    /// duplicates trail the completion) livelocked before the fix.
    #[test]
    fn trailing_duplicate_does_not_wedge_the_armed_sweep() {
        let (cfg, bms) = setup(4, 1 << 12, 0.5);
        let plan = SimMembership::stable(4, SimTime::from_micros(50_000));
        let out = simulate_recovery_allreduce_with_membership(
            &fixed_rto(&cfg),
            nic(),
            nic(),
            0.002,
            &bms,
            21,
            1,
            Some(&plan),
            None,
        );
        assert!(out.failed_workers.is_empty());
        // The whole run is a few hundred events; a wedged sweep burns
        // the full 2-billion budget instead.
        assert!(out.report.events < 10_000, "events: {}", out.report.events);
    }

    /// The simulator charges a NACK what the codec puts on the wire for
    /// one, on the legacy and the stream-tagged block header alike.
    #[test]
    fn nack_costs_the_codec_empty_nack_packet() {
        use omnireduce_transport::{codec, Message, Packet, PacketKind};
        for stream in [0, 7] {
            let nack = Message::Block(Packet {
                kind: PacketKind::Nack,
                ver: 1,
                slot: 3,
                stream,
                wid: u16::MAX,
                epoch: 2,
                entries: Vec::new(),
            });
            assert_eq!(msg_bytes(stream, &[]), codec::encoded_len(&nack));
        }
    }

    #[test]
    fn heavy_loss_still_terminates() {
        let (cfg, bms) = setup(2, 1 << 16, 0.5);
        let out = simulate_recovery_allreduce(
            &cfg,
            nic(),
            nic(),
            0.10,
            SimTime::from_micros(300),
            &bms,
            11,
        );
        assert!(out.completion > SimTime::ZERO);
    }
}
