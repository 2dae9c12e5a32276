//! Loss-recovery engines (Algorithm 2, Appendix A): OmniReduce over a
//! network that may drop or duplicate packets.
//!
//! The protocol itself lives in [`crate::protocol`]: [`WorkerPhases`]
//! decides what a worker answers to a result, a NACK or a timer, and
//! [`PhaseTable`] decides what an aggregator shard does with a worker
//! packet and when a phase completes. In short:
//!
//! * **Everyone always answers.** Each worker responds to every result
//!   packet for every active column — with block data when it owns the
//!   requested block, with a data-less acknowledgment otherwise — so the
//!   aggregator can use a per-phase *count of distinct workers* as the
//!   completion condition instead of the min-next comparison.
//! * **Timers.** A worker arms a retransmission timer for every packet it
//!   sends and resends on expiry (or at once on a NACK); receiving the
//!   matching result cancels the timer.
//! * **Two-phase versioned slots** retain a completed result exactly as
//!   long as a worker may need it resent, and per-version **seen bits**
//!   keep duplicates from being aggregated twice.
//!
//! This module is the driver around those machines: block payloads
//! ([`ColAccumulator`] per column, pooled [`Message`]s), the
//! [`Transport`], hot-standby checkpoints, `Join`/`Welcome` admission,
//! the `core.recovery.*` counters and the flight lane.
//!
//! Delivery assumption: like the paper's DPDK deployment, the network may
//! drop or duplicate packets but does not reorder packets between a given
//! pair of nodes ([`omnireduce_transport::ChaosTransport`] guarantees this).

use std::time::{Duration, Instant};

use omnireduce_telemetry::{
    Counter, FlightEventKind, FlightLane, Gauge, Histogram, LaneRole, Telemetry, NO_BLOCK,
};
use omnireduce_tensor::{NonZeroBitmap, Tensor};
use omnireduce_transport::timer::TimerQueue;
use omnireduce_transport::{
    codec, BufferPool, CheckpointDelta, Entry, Message, NodeId, Packet, PacketKind, Transport,
    TransportError, MEMBERSHIP_ONLY,
};

use crate::config::{DegradedMode, OmniConfig};
use crate::error::ProtocolError;
use crate::layout::StreamLayout;
use crate::protocol::{
    epoch_before, ColEntry, Completion, Contribution, Expiry, PhaseTable, Reply, WorkerPhases,
};
use crate::slot::ColAccumulator;
use crate::wire::{decode_next, encode_next};

/// Traffic counters for the recovery worker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Distinct data/ack packets sent (excluding retransmissions).
    pub packets_sent: u64,
    /// Retransmissions triggered by timer expiry.
    pub retransmissions: u64,
    /// Wire bytes sent, including retransmissions.
    pub bytes_sent: u64,
    /// Blocks transmitted as data entries (excluding retransmissions).
    pub blocks_sent: u64,
    /// Retransmission-timer expirations handled.
    pub timer_fires: u64,
    /// Results ignored because they were stale (finished stream) or
    /// carried an already-processed phase version.
    pub stale_results_ignored: u64,
    /// Exponential-backoff events: timer expirations that doubled the
    /// RTO before retransmitting (adaptive mode only).
    pub backoffs: u64,
    /// Retransmissions solicited by an aggregator NACK (the shard told
    /// us our contribution to a stalled phase is missing). Also counted
    /// in [`RecoveryStats::retransmissions`].
    pub solicited_retransmissions: u64,
    /// Shards re-targeted from the primary aggregator to its hot
    /// standby after the retry budget ran out (at most one per shard
    /// per run).
    pub failovers: u64,
}

/// Fleet-wide `core.recovery.*` registry mirrors of [`RecoveryStats`]
/// (detached no-ops unless built via [`RecoveryWorker::with_telemetry`]).
struct RecoveryCounters {
    packets_sent: Counter,
    retransmissions: Counter,
    bytes_sent: Counter,
    blocks_sent: Counter,
    timer_fires: Counter,
    stale_results_ignored: Counter,
    backoffs: Counter,
    peer_unresponsive: Counter,
    solicited_retransmissions: Counter,
    failovers: Counter,
    /// `core.recovery.shutdown_errors`: departure announcements that
    /// failed to send (the wind-down path keeps going instead of
    /// aborting on the first dead lane).
    shutdown_errors: Counter,
    /// `core.recovery.rto`: the RTO armed for each sent packet, in µs.
    rto: Histogram,
    /// `core.recovery.rto_ns`: the last armed RTO, in ns — the live
    /// level the time-series RTO-inflation detector watches.
    rto_ns: Gauge,
    /// `core.recovery.srtt_ns`: the estimator's smoothed RTT, in ns
    /// (0 until the first un-retransmitted sample), published beside
    /// `rto_ns` so inflation can be told apart from genuine RTT growth.
    srtt_ns: Gauge,
}

impl RecoveryCounters {
    /// Registered in `telemetry` as `core.recovery.*`, or detached.
    fn new(telemetry: Option<&Telemetry>) -> Self {
        let name = |n: &str| format!("core.recovery.{n}");
        let counter = |n: &str| telemetry.map_or_else(Counter::detached, |t| t.counter(&name(n)));
        let gauge = |n: &str| telemetry.map(|t| t.gauge(&name(n))).unwrap_or_default();
        RecoveryCounters {
            packets_sent: counter("packets_sent"),
            retransmissions: counter("retransmissions"),
            bytes_sent: counter("bytes_sent"),
            blocks_sent: counter("blocks_sent"),
            timer_fires: counter("timer_fires"),
            stale_results_ignored: counter("stale_results_ignored"),
            backoffs: counter("backoffs"),
            peer_unresponsive: counter("peer_unresponsive"),
            solicited_retransmissions: counter("solicited_retransmissions"),
            failovers: counter("failovers"),
            shutdown_errors: counter("shutdown_errors"),
            rto: telemetry.map_or_else(Histogram::detached, |t| t.histogram(&name("rto"))),
            rto_ns: gauge("rto_ns"),
            srtt_ns: gauge("srtt_ns"),
        }
    }
}

/// Flight-recorder pairing key for a fused message: its first entry's
/// block ([`NO_BLOCK`] for empty/control messages). Sender and receiver
/// derive the key from the same packet, so tx and rx events match.
fn first_block(msg: &Message) -> u64 {
    match msg {
        Message::Block(p) => p
            .entries
            .first()
            .map(|e| e.block as u64)
            .unwrap_or(NO_BLOCK),
        _ => NO_BLOCK,
    }
}

/// A data entry carrying block `e.block` of `tensor` in a pooled buffer.
fn data_entry(pool: &mut BufferPool, tensor: &Tensor, layout: &StreamLayout, e: ColEntry) -> Entry {
    let mut data = pool.checkout_f32();
    data.extend_from_slice(&tensor[layout.block_range(e.block)]);
    Entry::data(e.block, encode_next(e.next, e.col, layout.width()), data)
}

/// Why an outstanding packet goes out again.
#[derive(Clone, Copy)]
enum ResendCause {
    /// The shard NACKed it: alive, but missing our contribution.
    Nack,
    /// The shard failed over: the standby gets every outstanding packet.
    Failover,
    /// Its timer expired `waited` ns after the first transmission.
    Timer { waited: u64 },
}

/// Worker engine with Algorithm 2 loss recovery.
pub struct RecoveryWorker<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    layout: StreamLayout,
    wid: u16,
    /// Current membership epoch, adopted from results and `Welcome`
    /// replies (DESIGN §12). Stamped into every outgoing packet.
    epoch: u8,
    /// Per-shard aggregator target node. Starts at the primary and is
    /// re-pointed at the hot standby on failover.
    agg: Vec<u16>,
    /// Per-shard failover start, pending the first post-failover
    /// result (`FailoverBegin`..`FailoverEnd` downtime window).
    failover_at: Vec<Option<Instant>>,
    /// The protocol: cursors, phase versions, timers' bookkeeping and the
    /// RTO policy. Persists across AllReduce rounds.
    phases: WorkerPhases,
    /// Origin of the nanosecond clock the machine is fed.
    clock: Instant,
    stats: RecoveryStats,
    /// Wire bytes sent per destination shard (index = shard), so
    /// multi-aggregator deployments can account each shard's traffic
    /// independently (DESIGN §10).
    shard_bytes: Vec<u64>,
    counters: RecoveryCounters,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// AllReduce rounds completed — the flight recorder's round key.
    /// Private (not part of [`RecoveryStats`]) so chaos-replay equality
    /// on stats stays byte-exact.
    rounds: u64,
    /// Freelists for outgoing packet buffers (payloads and entry lists
    /// are checked out per packet and recycled when the packet's phase
    /// is answered — DESIGN §9).
    pool: BufferPool,
}

impl<T: Transport> RecoveryWorker<T> {
    /// Creates the engine; the transport's node id is the worker id.
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        cfg.validate();
        let wid = transport.local_id().0;
        assert!(
            (wid as usize) < cfg.num_workers,
            "node {wid} is not a worker"
        );
        let layout = StreamLayout::new(
            cfg.block_spec(),
            cfg.fusion,
            cfg.total_streams(),
            cfg.tensor_len,
        );
        RecoveryWorker {
            transport,
            layout,
            wid,
            epoch: 0,
            agg: (0..cfg.num_aggregators)
                .map(|a| cfg.aggregator_node(a))
                .collect(),
            failover_at: vec![None; cfg.num_aggregators],
            phases: WorkerPhases::new(&cfg, wid as usize),
            clock: Instant::now(),
            stats: RecoveryStats::default(),
            shard_bytes: vec![0; cfg.num_aggregators],
            counters: RecoveryCounters::new(None),
            flight: FlightLane::disabled(),
            rounds: 0,
            pool: BufferPool::for_block_size(cfg.block_size),
            cfg,
        }
    }

    /// Like [`RecoveryWorker::new`], but mirrors loss-path counters into
    /// `telemetry`'s `core.recovery.*` counters and records protocol
    /// flight events on a `worker{wid}` lane when the registry's flight
    /// recorder is enabled.
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut w = Self::new(transport, cfg);
        w.counters = RecoveryCounters::new(Some(telemetry));
        w.flight = telemetry
            .flight()
            .lane(&format!("worker{}", w.wid), LaneRole::Worker, w.wid);
        w
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Wire bytes sent to each aggregator shard (index = shard). Sums
    /// to [`RecoveryStats::bytes_sent`].
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.shard_bytes.clone()
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Publishes an RTO the machine chose for `shard` — the
    /// `core.recovery.rto` histogram (µs), the `rto_ns` / `srtt_ns`
    /// gauges — and returns it as a duration to arm.
    fn publish_rto(&self, shard: usize, rto_ns: u64) -> Duration {
        self.counters.rto.record(rto_ns / 1_000);
        self.counters.rto_ns.set(rto_ns);
        self.counters.srtt_ns.set(self.phases.srtt(shard));
        Duration::from_nanos(rto_ns)
    }

    /// Runs one AllReduce with loss recovery.
    ///
    /// Fails fast instead of hanging: if `max_retransmits` consecutive
    /// retransmissions of any slot go unanswered, returns
    /// [`ProtocolError::PeerUnresponsive`] (the aggregator for that
    /// shard is presumed dead).
    pub fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), ProtocolError> {
        assert_eq!(tensor.len(), self.cfg.tensor_len, "tensor length mismatch");
        let round = self.rounds as u32;
        self.flight
            .record(FlightEventKind::RoundStart, round, NO_BLOCK, 0, self.wid, 0);
        let encode_t0 = self.flight.now_ns();
        let bitmap = NonZeroBitmap::build(tensor, self.cfg.block_spec());
        let layout = self.layout;

        // The packet each open stream waits to see answered, resent
        // verbatim on a NACK, a failover or a timer.
        let mut sent: Vec<Option<Message>> = (0..layout.total_streams()).map(|_| None).collect();
        let mut timers: TimerQueue<usize> = TimerQueue::new();

        self.phases.begin_round();
        for g in layout.active_streams() {
            let mut entries = self.pool.checkout_entries();
            let pool = &mut self.pool;
            self.phases.open_stream(&bitmap, g, |e| {
                entries.push(data_entry(pool, tensor, &layout, e));
            });
            self.send_fresh(g, entries, &mut sent, &mut timers)?;
        }
        self.flight.record(
            FlightEventKind::Encode,
            round,
            NO_BLOCK,
            0,
            self.wid,
            self.flight.now_ns().saturating_sub(encode_t0),
        );

        while !self.phases.round_done() {
            let timeout = timers
                .until_next(Instant::now())
                .unwrap_or(Duration::from_secs(3600));
            match self.transport.recv_timeout(timeout)? {
                Some((_, Message::Block(p))) if p.kind == PacketKind::Result => {
                    self.on_result(p, tensor, &bitmap, &mut sent, &mut timers)?;
                }
                Some((_, Message::Block(p))) if p.kind == PacketKind::Nack => {
                    let g = p.slot as usize;
                    if self.phases.on_nack(g, p.ver) {
                        self.resend(g, ResendCause::Nack, &sent, &mut timers)?;
                    }
                }
                Some((_, Message::Welcome { epoch, .. })) => {
                    // An unsolicited `Welcome` mid-collective carrying a
                    // newer epoch is the aggregator's zombie answer
                    // ([`DegradedMode::Rejoin`]): we were evicted and the
                    // group has moved on. Fail fast so the caller can
                    // `join()` and retry. A `Welcome` at our own epoch is
                    // a duplicate of a join reply — ignore it.
                    if epoch_before(self.epoch, epoch) {
                        return Err(ProtocolError::Evicted {
                            worker: self.wid as usize,
                            epoch,
                        });
                    }
                }
                Some(_) => {} // ignore anything else
                None => {
                    let now = Instant::now();
                    while let Some(g) = timers.pop_expired(now) {
                        self.stats.timer_fires += 1;
                        self.counters.timer_fires.inc();
                        let shard = self.cfg.shard_of_stream(g);
                        match self.phases.on_timer(g, self.now_ns()) {
                            Expiry::Idle => {}
                            Expiry::Resend { waited, backoff } => {
                                if backoff {
                                    self.stats.backoffs += 1;
                                    self.counters.backoffs.inc();
                                }
                                self.resend(g, ResendCause::Timer { waited }, &sent, &mut timers)?;
                            }
                            Expiry::Failover { shard } => {
                                // The standby answers from its replicated
                                // state: completed phases with the
                                // retained result, in-flight phases by
                                // re-aggregating the resends (DESIGN §12).
                                self.retarget(shard);
                                for g2 in (shard..layout.total_streams())
                                    .step_by(self.cfg.num_aggregators)
                                {
                                    if self.phases.outstanding(g2).is_some() {
                                        self.resend(g2, ResendCause::Failover, &sent, &mut timers)?;
                                    }
                                }
                            }
                            Expiry::GiveUp {
                                retransmits,
                                waited,
                            } => {
                                // The shard's aggregator (and standby, if
                                // any) is unresponsive: fail fast instead
                                // of retransmitting forever.
                                self.counters.peer_unresponsive.inc();
                                return Err(ProtocolError::PeerUnresponsive {
                                    peer: self.agg[shard],
                                    stream: g,
                                    retransmits,
                                    elapsed: Duration::from_nanos(waited),
                                });
                            }
                        }
                    }
                }
            }
        }
        self.rounds += 1;
        self.flight
            .record(FlightEventKind::RoundEnd, round, NO_BLOCK, 0, self.wid, 0);
        Ok(())
    }

    /// Handles a result packet: adopts its epoch, hands a fresh phase to
    /// the machine, copies the aggregated blocks into `tensor`, and sends
    /// the stream's reply unless it just finished.
    fn on_result(
        &mut self,
        p: Packet,
        tensor: &mut Tensor,
        bitmap: &NonZeroBitmap,
        sent: &mut [Option<Message>],
        timers: &mut TimerQueue<usize>,
    ) -> Result<(), TransportError> {
        let round = self.rounds as u32;
        let g = p.slot as usize;
        let shard = self.cfg.shard_of_stream(g);
        // Any result reveals the group's current epoch; adopt it before
        // the staleness check so even a duplicate result keeps us current.
        if epoch_before(self.epoch, p.epoch) {
            self.epoch = p.epoch;
            self.flight.record(
                FlightEventKind::EpochChange,
                round,
                NO_BLOCK,
                shard as u16,
                self.wid,
                p.epoch as u64,
            );
        }
        self.flight.record(
            FlightEventKind::ResultRx,
            round,
            NO_BLOCK,
            shard as u16,
            self.wid,
            p.entries.len() as u64,
        );
        if !self.phases.on_result(g, p.ver, self.now_ns()) {
            // A finished stream's, or an already-answered phase's.
            self.stats.stale_results_ignored += 1;
            self.counters.stale_results_ignored.inc();
            return Ok(());
        }
        timers.cancel(&g);
        // First valid result after a failover: the standby answered, the
        // shard has recovered. aux = downtime.
        if let Some(t0) = self.failover_at[shard].take() {
            self.flight.record(
                FlightEventKind::FailoverEnd,
                round,
                NO_BLOCK,
                shard as u16,
                self.wid,
                t0.elapsed().as_nanos() as u64,
            );
        }
        // The answered packet's buffers come back to the pool before the
        // reply is built.
        if let Some(msg) = sent[g].take() {
            self.pool.recycle_message(msg);
        }
        let layout = self.layout;
        let width = layout.width();
        let mut reply = self.pool.checkout_entries();
        for entry in &p.entries {
            let (col, requested) = decode_next(entry.next, width);
            if !entry.is_ack() {
                tensor.copy_slice_at(layout.block_range(entry.block).start, &entry.data);
            }
            match self.phases.reply(bitmap, g, col, requested) {
                Some(Reply::Data(e)) => reply.push(data_entry(&mut self.pool, tensor, &layout, e)),
                Some(Reply::Ack(e)) => {
                    reply.push(Entry::ack(e.block, encode_next(e.next, col, width)));
                }
                None => {}
            }
        }
        if self.phases.stream_done(g) {
            debug_assert!(reply.is_empty(), "reply for a finished stream");
            self.pool.checkin_entries(reply);
            return Ok(());
        }
        self.send_fresh(g, reply, sent, timers)
    }

    /// Sends a new packet of `stream` and arms its timer.
    fn send_fresh(
        &mut self,
        stream: usize,
        entries: Vec<Entry>,
        sent: &mut [Option<Message>],
        timers: &mut TimerQueue<usize>,
    ) -> Result<(), TransportError> {
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: self.phases.ver(stream),
            slot: stream as u16,
            stream: self.cfg.stream_id,
            wid: self.wid,
            epoch: self.epoch,
            entries,
        });
        let blocks = match &msg {
            Message::Block(p) => p.entries.iter().filter(|e| !e.is_ack()).count() as u64,
            _ => unreachable!(),
        };
        let wire_bytes = codec::encoded_len(&msg) as u64;
        self.stats.blocks_sent += blocks;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += wire_bytes;
        self.counters.blocks_sent.add(blocks);
        self.counters.packets_sent.inc();
        self.counters.bytes_sent.add(wire_bytes);
        let shard = self.cfg.shard_of_stream(stream);
        self.shard_bytes[shard] += wire_bytes;
        // One flight event per fused message, keyed by the first
        // entry's block (the aggregator mirrors the key on PacketRx).
        self.flight.record(
            FlightEventKind::PacketTx,
            self.rounds as u32,
            first_block(&msg),
            shard as u16,
            self.wid,
            wire_bytes,
        );
        self.transport.send(NodeId(self.agg[shard]), &msg)?;
        let rto = self.phases.sent(stream, self.now_ns());
        timers.arm(stream, Instant::now(), self.publish_rto(shard, rto));
        sent[stream] = Some(msg);
        Ok(())
    }

    /// Resends `stream`'s outstanding packet to the shard's current
    /// target and re-arms its timer — the one path NACKs, failovers and
    /// timers share.
    fn resend(
        &mut self,
        stream: usize,
        cause: ResendCause,
        sent: &[Option<Message>],
        timers: &mut TimerQueue<usize>,
    ) -> Result<(), TransportError> {
        let msg = sent[stream].as_ref().expect("outstanding packet");
        let shard = self.cfg.shard_of_stream(stream);
        let wire_bytes = codec::encoded_len(msg) as u64;
        self.stats.retransmissions += 1;
        self.stats.bytes_sent += wire_bytes;
        self.counters.retransmissions.inc();
        self.counters.bytes_sent.add(wire_bytes);
        self.shard_bytes[shard] += wire_bytes;
        let round = self.rounds as u32;
        let block = first_block(msg);
        let record = |kind, aux| {
            self.flight
                .record(kind, round, block, shard as u16, self.wid, aux)
        };
        match cause {
            ResendCause::Nack => {
                self.stats.solicited_retransmissions += 1;
                self.counters.solicited_retransmissions.inc();
                record(FlightEventKind::NackRx, 0);
                record(FlightEventKind::SolicitedResend, wire_bytes);
            }
            ResendCause::Failover => record(FlightEventKind::Retransmit, wire_bytes),
            ResendCause::Timer { waited } => {
                // aux = time burnt waiting on this packet so far — the
                // recovery-overhead component.
                record(FlightEventKind::RtoFire, waited);
                record(FlightEventKind::Retransmit, wire_bytes);
            }
        }
        // Re-keyed PacketTx so the aggregator's eventual rx pairs with
        // this resend, not the lost original.
        record(FlightEventKind::PacketTx, wire_bytes);
        self.transport.send(NodeId(self.agg[shard]), msg)?;
        let rto = self.phases.rto(shard);
        timers.arm(stream, Instant::now(), self.publish_rto(shard, rto));
        Ok(())
    }

    /// Points `shard` at its hot standby once the machine decided to fail
    /// over.
    fn retarget(&mut self, shard: usize) {
        let old = self.agg[shard];
        self.agg[shard] = self.cfg.standby_node(shard);
        self.failover_at[shard] = Some(Instant::now());
        self.stats.failovers += 1;
        self.counters.failovers.inc();
        self.flight.record(
            FlightEventKind::FailoverBegin,
            self.rounds as u32,
            NO_BLOCK,
            shard as u16,
            old,
            0,
        );
    }

    /// Negotiates (re)admission with every shard: sends `Join` and
    /// blocks until the matching `Welcome` installs the group's current
    /// membership epoch and this shard's per-stream phase cursors.
    ///
    /// Implicit initial membership makes this optional at startup (a
    /// fresh group is at epoch 0 with all cursors 0, which is exactly
    /// how the engine initializes); it is required after this worker
    /// has been evicted ([`ProtocolError::Evicted`]) or restarted,
    /// because by then the cursors have moved on.
    ///
    /// The aggregator defers admission to the next full-idle round
    /// boundary, so this can block for up to a round. Retries follow
    /// the same budget/failover rules as the data path.
    pub fn join(&mut self) -> Result<(), ProtocolError> {
        // Drain queued traffic first: everything received before the
        // (re)join — results from phases we were evicted out of, and
        // zombie-data `Welcome` replies — belongs to a membership state
        // we are about to supersede. Leaving an old `Welcome` queued
        // would let `join_shard` adopt its epoch and return while the
        // real admission reply (a strictly newer epoch) stays buffered,
        // aborting the next round with a spurious `Evicted`.
        while self.transport.recv_timeout(Duration::ZERO)?.is_some() {}
        for a in 0..self.cfg.num_aggregators {
            self.join_shard(a)?;
        }
        Ok(())
    }

    fn join_shard(&mut self, shard: usize) -> Result<(), ProtocolError> {
        let msg = Message::Join { wid: self.wid };
        let mut retx: u32 = 0;
        loop {
            self.transport.send(NodeId(self.agg[shard]), &msg)?;
            let rto = self.phases.rto(shard);
            let rto = self.publish_rto(shard, rto);
            let deadline = Instant::now() + rto;
            loop {
                let now = Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                match self.transport.recv_timeout(left)? {
                    Some((_, Message::Welcome { epoch, vers })) => {
                        if epoch_before(self.epoch, epoch) {
                            self.epoch = epoch;
                            self.flight.record(
                                FlightEventKind::EpochChange,
                                self.rounds as u32,
                                NO_BLOCK,
                                shard as u16,
                                self.wid,
                                epoch as u64,
                            );
                        }
                        // Install the shard's phase cursors so our next
                        // data packet lands in the phase the group will
                        // actually run next.
                        let owned =
                            (shard..self.layout.total_streams()).step_by(self.cfg.num_aggregators);
                        for (g, &v) in owned.zip(&vers) {
                            self.phases.set_ver(g, v);
                        }
                        return Ok(());
                    }
                    // Stale traffic from phases we are no longer part
                    // of; the cursor install supersedes all of it.
                    Some(_) => {}
                    None => break,
                }
            }
            retx += 1;
            if retx > self.cfg.max_retransmits {
                if self.phases.failover(shard) {
                    self.retarget(shard);
                    retx = 0;
                    continue;
                }
                self.counters.peer_unresponsive.inc();
                return Err(ProtocolError::PeerUnresponsive {
                    peer: self.agg[shard],
                    stream: shard,
                    retransmits: retx - 1,
                    elapsed: rto,
                });
            }
        }
    }

    /// Announces departure to every shard — and, when a hot standby is
    /// configured, to the standbys too (they track goodbyes so they can
    /// wind down without ever being promoted).
    ///
    /// Wind-down is symmetric: every lane is attempted even if an
    /// earlier one fails, failed announcements are counted in
    /// `core.recovery.shutdown_errors`, and the first error is returned
    /// after all attempts.
    pub fn shutdown(self) -> Result<(), TransportError> {
        let mut first_err = None;
        for a in 0..self.cfg.num_aggregators {
            let mut targets = vec![self.agg[a]];
            if self.cfg.hot_standby && !self.phases.failed_over(a) {
                targets.push(self.cfg.standby_node(a));
            }
            for t in targets {
                if let Err(e) = self.transport.send(NodeId(t), &Message::Shutdown) {
                    self.counters.shutdown_errors.inc();
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Loss-path counters of the recovery aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryAggregatorStats {
    /// Result multicasts performed.
    pub results_sent: u64,
    /// Duplicate packets that triggered a result retransmission.
    pub result_retransmissions: u64,
    /// Duplicate or retransmitted packets discarded by the seen-bit
    /// check without being aggregated (includes the ones that triggered
    /// a result retransmission).
    pub duplicates_ignored: u64,
    /// Workers evicted for unresponsiveness.
    pub evictions: u64,
    /// Phases completed without one or more evicted workers'
    /// contributions ([`DegradedMode::DropWorker`]).
    pub degraded_completions: u64,
    /// Data packets from already-evicted workers, dropped on arrival.
    pub evicted_packets_dropped: u64,
    /// Solicited-retransmission requests sent to workers whose
    /// contribution a stalled phase was missing (receiver-driven
    /// recovery).
    pub nacks_sent: u64,
    /// Data packets rejected because they carried a membership epoch
    /// older than the sender's admission epoch (a rejoined worker's
    /// pre-eviction stragglers, dropped deterministically — DESIGN §12).
    pub stale_epoch_dropped: u64,
    /// Workers admitted (or re-admitted) at a round boundary via
    /// `Join`/`Welcome`; each admission bumps the membership epoch.
    pub joins_admitted: u64,
    /// Checkpoint deltas replicated to the hot standby (primaries only).
    pub checkpoints_sent: u64,
    /// Checkpoint deltas applied from the primary (standbys only).
    pub checkpoints_applied: u64,
}

/// Fleet-wide `core.recovery.agg.*` registry mirrors of
/// [`RecoveryAggregatorStats`].
struct RecoveryAggCounters {
    results_sent: Counter,
    result_retransmissions: Counter,
    duplicates_ignored: Counter,
    evictions: Counter,
    degraded_completions: Counter,
    nacks_sent: Counter,
    stale_epoch_dropped: Counter,
    joins_admitted: Counter,
    checkpoints_sent: Counter,
    checkpoints_applied: Counter,
    /// `core.recovery.agg.worker.<w>.contrib_delay_ns`: per worker, how
    /// long after a phase opened this worker's contribution arrived
    /// (0 for the phase opener). The time-series sampler derives the
    /// windowed p99 the straggler-drift detector compares across peers.
    /// Empty when detached — lateness then costs no clock reads.
    contrib_delay: Vec<Histogram>,
}

impl RecoveryAggCounters {
    /// Registered in `telemetry` as `core.recovery.agg.*` for
    /// `num_workers` workers, or detached.
    fn new(telemetry: Option<&Telemetry>, num_workers: usize) -> Self {
        let counter = |n: &str| {
            telemetry.map_or_else(Counter::detached, |t| {
                t.counter(&format!("core.recovery.agg.{n}"))
            })
        };
        RecoveryAggCounters {
            results_sent: counter("results_sent"),
            result_retransmissions: counter("result_retransmissions"),
            duplicates_ignored: counter("duplicates_ignored"),
            evictions: counter("evictions"),
            degraded_completions: counter("degraded_completions"),
            nacks_sent: counter("nacks_sent"),
            stale_epoch_dropped: counter("stale_epoch_dropped"),
            joins_admitted: counter("joins_admitted"),
            checkpoints_sent: counter("checkpoints_sent"),
            checkpoints_applied: counter("checkpoints_applied"),
            contrib_delay: telemetry.map_or_else(Vec::new, |t| {
                (0..num_workers)
                    .map(|w| t.histogram(&format!("core.recovery.agg.worker.{w}.contrib_delay_ns")))
                    .collect()
            }),
        }
    }
}

/// Block payloads of one owned stream, per phase version, beside its
/// [`PhaseTable`] slot.
struct SlotPayload {
    /// Per-column accumulators (arrival-order, or deterministic §7
    /// worker-id order). Buffers are allocated once and reused in place
    /// across phases — DESIGN §9.
    acc: [Vec<ColAccumulator>; 2],
    /// The retained result packet, for retransmission.
    result: [Option<Message>; 2],
    /// When the version's current phase opened (its first accepted
    /// contribution). Later contributions' lateness relative to this
    /// feeds the per-worker `contrib_delay_ns` histograms the straggler
    /// detector watches. Only maintained when those histograms are
    /// registered.
    first_arrival: [Option<Instant>; 2],
}

/// Aggregator engine with Algorithm 2 loss recovery.
pub struct RecoveryAggregator<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    layout: StreamLayout,
    shard: usize,
    /// True for a hot-standby replica (node `W + A + shard`): it applies
    /// checkpoint deltas instead of producing them and stays passive —
    /// no eviction sweeps — until the first data packet arrives, which
    /// means the workers have failed over to it.
    standby: bool,
    /// Primaries are active from the start; a standby activates on its
    /// first data packet.
    active: bool,
    /// The protocol: phase slots and membership.
    table: PhaseTable,
    /// Payloads per stream (`None` = not owned by this shard).
    payload: Vec<Option<SlotPayload>>,
    /// Scratch for a completed row.
    row: Vec<ColEntry>,
    /// Join requests deferred to the next full-idle round boundary.
    pending_joins: Vec<u16>,
    /// Origin of the nanosecond clock the machine is fed.
    clock: Instant,
    /// Loss-path counters.
    pub stats: RecoveryAggregatorStats,
    counters: RecoveryAggCounters,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// Freelists for result-packet buffers (DESIGN §9): retired results
    /// are recycled when their version's state is reused.
    pool: BufferPool,
}

impl<T: Transport> RecoveryAggregator<T> {
    /// Creates the engine for the shard whose node id matches the
    /// transport's. Nodes `W..W+A` are primaries; with
    /// [`OmniConfig::hot_standby`], nodes `W+A..W+2A` are the matching
    /// standbys (standby `s` shares primary `s`'s shard).
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        cfg.validate();
        let node = transport.local_id().0 as usize;
        assert!(
            node >= cfg.num_workers && node < cfg.mesh_size(),
            "node {node} is not an aggregator"
        );
        let rel = node - cfg.num_workers;
        let standby = rel >= cfg.num_aggregators;
        let shard = rel % cfg.num_aggregators;
        let layout = StreamLayout::new(
            cfg.block_spec(),
            cfg.fusion,
            cfg.total_streams(),
            cfg.tensor_len,
        );
        let n = cfg.num_workers;
        let owned = (shard..layout.total_streams()).step_by(cfg.num_aggregators);
        let acc = vec![ColAccumulator::new(n, cfg.deterministic); layout.width()];
        let payload = (0..layout.total_streams())
            .map(|g| {
                (cfg.shard_of_stream(g) == shard).then(|| SlotPayload {
                    acc: [acc.clone(), acc.clone()],
                    result: [None, None],
                    first_arrival: [None, None],
                })
            })
            .collect();
        RecoveryAggregator {
            transport,
            layout,
            shard,
            standby,
            active: !standby,
            table: PhaseTable::new(layout, owned, n),
            payload,
            row: Vec::with_capacity(layout.width()),
            pending_joins: Vec::new(),
            clock: Instant::now(),
            stats: RecoveryAggregatorStats::default(),
            counters: RecoveryAggCounters::new(None, cfg.num_workers),
            flight: FlightLane::disabled(),
            pool: BufferPool::for_block_size(cfg.block_size),
            cfg,
        }
    }

    /// Like [`RecoveryAggregator::new`], but mirrors loss-path counters
    /// into `telemetry`'s `core.recovery.agg.*` counters and records
    /// protocol flight events on an `agg{shard}` lane when the
    /// registry's flight recorder is enabled.
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut a = Self::new(transport, cfg);
        a.counters = RecoveryAggCounters::new(Some(telemetry), a.cfg.num_workers);
        let lane_name = if a.standby {
            format!("standby{}", a.shard)
        } else {
            format!("agg{}", a.shard)
        };
        a.flight = telemetry
            .flight()
            .lane(&lane_name, LaneRole::Aggregator, a.shard as u16);
        a.pool =
            BufferPool::for_block_size(a.cfg.block_size).with_telemetry("recovery_agg", telemetry);
        a
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Serves until every worker says `Shutdown` or has been evicted.
    ///
    /// A worker the shard is still waiting on that stays silent for
    /// [`OmniConfig::worker_eviction_timeout`] is evicted: in
    /// [`DegradedMode::DropWorker`] the collective completes without it
    /// (the phase-completion count is renormalized to the survivors);
    /// in [`DegradedMode::Abort`] this returns
    /// [`ProtocolError::WorkerEvicted`].
    pub fn run(&mut self) -> Result<(), ProtocolError> {
        // Poll granularity for the eviction sweep: fine enough to
        // detect eviction promptly, coarse enough to stay off the hot
        // path.
        let tick = (self.cfg.worker_eviction_timeout / 4)
            .clamp(Duration::from_millis(1), Duration::from_millis(100));
        self.table.refresh(self.now_ns());
        loop {
            if let Some((from, msg)) = self.transport.recv_timeout(tick)? {
                match msg {
                    Message::Block(p) if p.kind == PacketKind::Data => {
                        // A standby's first data packet means the
                        // workers have failed over to it: wake up and
                        // start the eviction clocks fresh.
                        if self.standby && !self.active {
                            self.active = true;
                            self.table.refresh(self.now_ns());
                        }
                        self.handle_data(p)?;
                    }
                    Message::Join { wid } => self.handle_join(wid)?,
                    Message::Checkpoint(delta) if self.standby => {
                        self.apply_checkpoint(delta);
                    }
                    Message::Checkpoint(_) => {}
                    Message::Shutdown => {
                        // Finished worker: stop multicasting to it (its
                        // endpoint may already be gone).
                        self.table.depart(from.index(), self.now_ns());
                    }
                    _ => {} // tolerate anything else on a lossy fabric
                }
            }
            if !self.pending_joins.is_empty() {
                self.try_admissions()?;
            }
            self.sweep_evictions()?;
            if self.table.finished() {
                return Ok(());
            }
        }
    }

    /// The per-stream phase cursors handed to joiners: for each owned
    /// stream in ascending order, the version its next fresh phase will
    /// run.
    fn ver_cursors(&self) -> Vec<u8> {
        self.table.owned().map(|g| self.table.next_ver(g)).collect()
    }

    /// A result or NACK for version `v` of stream `g`, stamped with the
    /// shard's epoch.
    fn shard_packet(&self, kind: PacketKind, g: usize, v: usize, entries: Vec<Entry>) -> Message {
        Message::Block(Packet {
            kind,
            ver: v as u8,
            slot: g as u16,
            stream: self.cfg.stream_id,
            wid: u16::MAX,
            epoch: self.table.epoch(),
            entries,
        })
    }

    fn evicted_wids(&self) -> Vec<u16> {
        (0..self.cfg.num_workers)
            .filter(|&w| self.table.is_evicted(w))
            .map(|w| w as u16)
            .collect()
    }

    fn welcome(&self) -> Message {
        Message::Welcome {
            epoch: self.table.epoch(),
            vers: self.ver_cursors(),
        }
    }

    /// Replicates a checkpoint delta to this shard's hot standby
    /// (no-op on standbys and on meshes without one).
    fn replicate(&mut self, delta: CheckpointDelta) -> Result<(), TransportError> {
        if !self.cfg.hot_standby || self.standby {
            return Ok(());
        }
        let msg = Message::Checkpoint(delta);
        let bytes = codec::encoded_len(&msg) as u64;
        self.stats.checkpoints_sent += 1;
        self.counters.checkpoints_sent.inc();
        self.flight.record(
            FlightEventKind::CheckpointTx,
            0,
            NO_BLOCK,
            self.shard as u16,
            u16::MAX,
            bytes,
        );
        crate::wire::send_best_effort(
            &self.transport,
            NodeId(self.cfg.standby_node(self.shard)),
            &msg,
        )
    }

    /// Replicates the current membership, naming `members` as the
    /// workers just (re)admitted.
    fn replicate_membership(&mut self, members: Vec<u16>) -> Result<(), TransportError> {
        self.replicate(CheckpointDelta {
            epoch: self.table.epoch(),
            slot: MEMBERSHIP_ONLY,
            ver: 0,
            members,
            evicted: self.evicted_wids(),
            entries: Vec::new(),
        })
    }

    /// Handles a worker's `Join`. A current member gets an immediate
    /// idempotent `Welcome`; an evicted (or departed) worker is queued
    /// and admitted at the next full-idle round boundary.
    fn handle_join(&mut self, wid: u16) -> Result<(), TransportError> {
        let w = wid as usize;
        if w >= self.cfg.num_workers {
            return Ok(());
        }
        self.table.heard(w, self.now_ns());
        if !self.pending_joins.contains(&wid) {
            if self.table.is_member(w) {
                // Already a member: a startup join, or a retry racing its
                // own admission. Answer with the current state.
                return crate::wire::send_best_effort(
                    &self.transport,
                    NodeId(self.cfg.worker_node(w)),
                    &self.welcome(),
                );
            }
            self.pending_joins.push(wid);
        }
        self.try_admissions()
    }

    /// Admits every queued joiner if the shard is at a full-idle round
    /// boundary (no phase of any slot in flight).
    fn try_admissions(&mut self) -> Result<(), TransportError> {
        if self.pending_joins.is_empty() || !self.table.fully_idle() {
            return Ok(());
        }
        for wid in std::mem::take(&mut self.pending_joins) {
            self.admit(wid)?;
        }
        Ok(())
    }

    /// Admits one worker: forgets what its previous incarnation
    /// contributed, bumps the membership epoch, replicates the change,
    /// and sends the `Welcome` that tells the worker which epoch and
    /// phase cursors to resume from.
    fn admit(&mut self, wid: u16) -> Result<(), TransportError> {
        let epoch = self.table.advance_epoch();
        self.table.admit(wid as usize, epoch, self.now_ns());
        self.stats.joins_admitted += 1;
        self.counters.joins_admitted.inc();
        self.flight.record(
            FlightEventKind::EpochChange,
            0,
            NO_BLOCK,
            self.shard as u16,
            wid,
            epoch as u64,
        );
        self.replicate_membership(vec![wid])?;
        crate::wire::send_best_effort(
            &self.transport,
            NodeId(self.cfg.worker_node(wid as usize)),
            &self.welcome(),
        )
    }

    /// Applies a checkpoint delta from the primary (standbys only):
    /// either a membership change, or a completed phase's full slot
    /// outcome — result packet, contributor seen bits, and the stream's
    /// next-phase cursor (DESIGN §12).
    fn apply_checkpoint(&mut self, delta: CheckpointDelta) {
        let n = self.cfg.num_workers;
        let msg = Message::Checkpoint(delta);
        let bytes = codec::encoded_len(&msg) as u64;
        let Message::Checkpoint(delta) = msg else {
            unreachable!()
        };
        self.stats.checkpoints_applied += 1;
        self.counters.checkpoints_applied.inc();
        self.flight.record(
            FlightEventKind::CheckpointRx,
            0,
            NO_BLOCK,
            self.shard as u16,
            u16::MAX,
            bytes,
        );
        if self.table.adopt_epoch(delta.epoch) {
            self.flight.record(
                FlightEventKind::EpochChange,
                0,
                NO_BLOCK,
                self.shard as u16,
                u16::MAX,
                delta.epoch as u64,
            );
        }
        // The eviction set is replicated wholesale with every delta.
        for w in 0..n {
            self.table
                .set_evicted(w, delta.evicted.contains(&(w as u16)));
        }
        let now = self.now_ns();
        if delta.slot == MEMBERSHIP_ONLY {
            for w in delta.members.iter().map(|&m| m as usize).filter(|&w| w < n) {
                self.table.admit(w, delta.epoch, now);
            }
            return;
        }
        // Completed-phase delta: install the retained result and the
        // contributors' seen bits exactly as the primary left them, so
        // a failed-over worker that missed the multicast gets the
        // *same* bytes retransmitted, and one that didn't miss it is
        // deduplicated. In-flight phases are deliberately not
        // replicated: every surviving worker retransmits its
        // outstanding packet on failover, and the phase re-aggregates
        // from scratch — bit-identical under §7 worker-id-order
        // reduction.
        let g = delta.slot as usize;
        if !matches!(self.payload.get(g), Some(Some(_))) {
            return;
        }
        let members = delta.members.iter().map(|&m| m as usize).filter(|&w| w < n);
        self.table.install(g, delta.ver, members);
        let v = (delta.ver & 1) as usize;
        let result = self.shard_packet(PacketKind::Result, g, v, delta.entries);
        let payload = self.payload[g].as_mut().expect("owned stream");
        if let Some(old) = payload.result[v].replace(result) {
            self.pool.recycle_message(old);
        }
    }

    /// Evicts workers the shard is waiting on that have been silent for
    /// longer than the eviction timeout.
    fn sweep_evictions(&mut self) -> Result<(), ProtocolError> {
        // A passive standby must not evict anyone: its workers are
        // (rightly) talking to the primary, so everyone looks silent.
        if !self.active {
            return Ok(());
        }
        let timeout = self.cfg.worker_eviction_timeout.as_nanos() as u64;
        while let Some((w, idle)) = self.table.overdue(self.now_ns(), timeout) {
            self.stats.evictions += 1;
            self.counters.evictions.inc();
            self.flight.record(
                FlightEventKind::Eviction,
                0,
                NO_BLOCK,
                self.shard as u16,
                w as u16,
                idle,
            );
            if self.cfg.degraded_mode == DegradedMode::Abort {
                return Err(ProtocolError::WorkerEvicted {
                    worker: w,
                    idle: Duration::from_nanos(idle),
                });
            }
            // Eviction is a membership change: the epoch bump lets a
            // later incarnation of `w` (rejoined at a newer epoch) be
            // told apart from this one's in-flight stragglers.
            self.table.evict(w);
            self.flight.record(
                FlightEventKind::EpochChange,
                0,
                NO_BLOCK,
                self.shard as u16,
                w as u16,
                self.table.epoch() as u64,
            );
            self.replicate_membership(Vec::new())?;
            // Renormalize: phases in flight may now be complete without
            // `w`'s contribution.
            for g in 0..self.payload.len() {
                if self.payload[g].is_some() {
                    self.complete_if_ready(g, 0)?;
                    self.complete_if_ready(g, 1)?;
                }
            }
        }
        Ok(())
    }

    fn handle_data(&mut self, p: Packet) -> Result<(), TransportError> {
        let g = p.slot as usize;
        let v = (p.ver & 1) as usize;
        let wid = p.wid as usize;
        let width = self.layout.width();

        let contribution = self.table.on_data(wid, g, p.ver, p.epoch, self.now_ns());
        match contribution {
            Contribution::Zombie => {
                // Evicted, but packets still in flight (or the worker is
                // alive behind a healed partition). In `Rejoin` mode the
                // zombie is answered with the current `Welcome` so it
                // fails fast ([`ProtocolError::Evicted`]) and can
                // re-join; otherwise it fails via its own retry budget.
                self.stats.evicted_packets_dropped += 1;
                if self.cfg.degraded_mode == DegradedMode::Rejoin {
                    crate::wire::send_best_effort(
                        &self.transport,
                        NodeId(self.cfg.worker_node(wid)),
                        &self.welcome(),
                    )?;
                }
                return Ok(());
            }
            Contribution::StaleEpoch => {
                self.stats.stale_epoch_dropped += 1;
                self.counters.stale_epoch_dropped.inc();
                return Ok(());
            }
            _ => {}
        }

        // Keyed by the first entry's block, mirroring the sender's
        // PacketTx key so the reconstructor can pair tx with rx.
        if let Some(first) = p.entries.first() {
            self.flight.record(
                FlightEventKind::PacketRx,
                0,
                first.block as u64,
                self.shard as u16,
                p.wid,
                p.entries.len() as u64,
            );
        }

        let payload = self.payload[g].as_mut().expect("stream not owned by shard");
        match contribution {
            Contribution::Resend => {
                // The sender evidently missed the result: unicast it
                // back (Algorithm 2 lines 47–49).
                self.stats.duplicates_ignored += 1;
                self.counters.duplicates_ignored.inc();
                if let Some(result) = payload.result[v].as_ref() {
                    self.stats.result_retransmissions += 1;
                    self.counters.result_retransmissions.inc();
                    crate::wire::send_best_effort(
                        &self.transport,
                        NodeId(self.cfg.worker_node(wid)),
                        result,
                    )?;
                }
                return Ok(());
            }
            Contribution::Stalled => {
                // A worker is already retransmitting into an open phase:
                // the stall is real, and the shard knows exactly whose
                // contribution it lacks. Solicit those workers instead of
                // letting every worker's timer race (DESIGN §8).
                self.stats.duplicates_ignored += 1;
                self.counters.duplicates_ignored.inc();
                let nack = self.shard_packet(PacketKind::Nack, g, v, Vec::new());
                for w in self.table.missing(g, p.ver) {
                    self.stats.nacks_sent += 1;
                    self.counters.nacks_sent.inc();
                    self.flight.record(
                        FlightEventKind::NackTx,
                        0,
                        NO_BLOCK,
                        self.shard as u16,
                        w as u16,
                        0,
                    );
                    crate::wire::send_best_effort(
                        &self.transport,
                        NodeId(self.cfg.worker_node(w)),
                        &nack,
                    )?;
                }
                return Ok(());
            }
            _ => {}
        }

        let Contribution::Fresh { opened } = contribution else {
            unreachable!()
        };
        // Contribution lateness vs the phase opener, for the straggler
        // detector. Clock reads only when the histograms are registered.
        if let Some(h) = self.counters.contrib_delay.get(wid) {
            if opened {
                payload.first_arrival[v] = Some(Instant::now());
                h.record(0);
            } else if let Some(t0) = payload.first_arrival[v] {
                h.record(t0.elapsed().as_nanos() as u64);
            }
        }
        if opened {
            // First packet of a fresh phase: reset the columns in place
            // (keeping their buffers) and recycle the retired result's
            // buffers — its retransmission window is over (DESIGN §9).
            for acc in payload.acc[v].iter_mut() {
                acc.reset();
            }
            if let Some(old) = payload.result[v].take() {
                self.pool.recycle_message(old);
            }
            // First contribution claims the phase's slot; released on
            // completion under the same (block, shard) key.
            if let Some(first) = p.entries.first() {
                self.flight.record(
                    FlightEventKind::SlotOccupy,
                    0,
                    first.block as u64,
                    self.shard as u16,
                    p.wid,
                    v as u64,
                );
            }
        }
        for entry in &p.entries {
            let (col, next) = decode_next(entry.next, width);
            let e = ColEntry {
                col,
                block: entry.block,
                next,
            };
            if entry.is_ack() {
                self.table.fold(g, p.ver, Reply::Ack(e));
            } else {
                self.table.fold(g, p.ver, Reply::Data(e));
                // Arrival-order mode reduces immediately (vectorized
                // kernel); deterministic §7 mode copies into the
                // worker's persistent buffer, reduced in worker-id
                // order at completion. No per-block allocation.
                payload.acc[v][col].store(wid, &entry.data);
            }
        }
        self.complete_if_ready(g, v)
    }

    /// Completes version `v` of stream `g` if the table says its phase
    /// has every contribution it needs, multicasting the result to the
    /// surviving workers.
    fn complete_if_ready(&mut self, g: usize, v: usize) -> Result<(), TransportError> {
        let width = self.layout.width();
        let mut row = std::mem::take(&mut self.row);
        let done = self.table.complete(g, v as u8, &mut row);
        if done == Completion::Pending {
            self.row = row;
            return Ok(());
        }
        if done == Completion::Degraded {
            self.stats.degraded_completions += 1;
            self.counters.degraded_completions.inc();
        }
        let payload = self.payload[g].as_mut().expect("owned stream");
        let mut entries = self.pool.checkout_entries();
        for r in &row {
            let acc = &mut payload.acc[v][r.col];
            let next = encode_next(r.next, r.col, width);
            if acc.touched() {
                let mut data = self.pool.checkout_f32();
                acc.take_into(&mut data);
                entries.push(Entry::data(r.block, next, data));
            } else {
                // All-ack phase: every surviving contributor skipped this
                // block (the evicted worker that requested it never sent
                // its data). The aggregate is zero — an ack result entry
                // advances the chain without carrying a payload.
                entries.push(Entry::ack(r.block, next));
            }
        }
        self.row = row;
        // Failover bit-identity invariant (DESIGN §12): the completed
        // phase is checkpointed to the standby *before* any worker can
        // see its result, so no worker can advance past a phase the
        // standby does not hold.
        if self.cfg.hot_standby && !self.standby {
            self.replicate(CheckpointDelta {
                epoch: self.table.epoch(),
                slot: g as u16,
                ver: v as u8,
                members: self
                    .table
                    .contributors(g, v as u8)
                    .map(|w| w as u16)
                    .collect(),
                evicted: self.evicted_wids(),
                entries: entries.clone(),
            })?;
        }
        self.stats.results_sent += 1;
        self.counters.results_sent.inc();
        if let Some(first) = entries.first() {
            for (kind, aux) in [
                (FlightEventKind::SlotRelease, v as u64),
                (FlightEventKind::ResultTx, entries.len() as u64),
            ] {
                self.flight.record(
                    kind,
                    0,
                    first.block as u64,
                    self.shard as u16,
                    u16::MAX,
                    aux,
                );
            }
        }
        let result = self.shard_packet(PacketKind::Result, g, v, entries);
        for w in (0..self.cfg.num_workers).filter(|&w| self.table.is_member(w)) {
            crate::wire::send_best_effort(
                &self.transport,
                NodeId(self.cfg.worker_node(w)),
                &result,
            )?;
        }
        self.payload[g].as_mut().expect("owned stream").result[v] = Some(result);
        Ok(())
    }
}
