//! The OmniReduce worker engine for reliable transports (Algorithm 1 with
//! Block Fusion and parallel streams).
//!
//! One `allreduce` call runs the full protocol for one tensor:
//!
//! 1. build the non-zero block bitmap (the paper does this on the GPU,
//!    Appendix B.1);
//! 2. for every stream it owns data in, send the stream's first row of
//!    blocks unconditionally, each entry carrying this worker's next
//!    non-zero block in that column;
//! 3. loop: on each result packet, store the aggregated blocks into the
//!    local tensor, and for every column whose newly requested block
//!    matches this worker's next non-zero block, send it (with the
//!    subsequent next); a stream finishes when every column's request
//!    is ∞.
//!
//! All streams are outstanding concurrently — that is the fine-grained
//! pipelining of §3.1.1; a single protocol thread multiplexes them off
//! one receive queue.
//!
//! The cursors and the send-or-stay-silent rule are
//! [`crate::protocol::WorkerRound`]; this driver owns the payload (a
//! pooled copy of each block), the transport and the counters. Sharded
//! deployments hand it an [`omnireduce_transport::ShardBond`] — one lane
//! per aggregator behind one `Transport` — and read the traffic back per
//! shard ([`OmniWorker::shard_bytes`], DESIGN §10).

use omnireduce_telemetry::{Counter, FlightEventKind, FlightLane, LaneRole, Telemetry, NO_BLOCK};
use omnireduce_tensor::{NonZeroBitmap, Tensor};
use omnireduce_transport::{
    codec, BufferPool, Entry, Message, NodeId, Packet, PacketKind, Transport, TransportError,
};

use crate::config::OmniConfig;
use crate::instrument::EngineTrace;
use crate::layout::StreamLayout;
use crate::protocol::{ColEntry, WorkerRound};
use crate::shard::ShardMap;
use crate::wire::{decode_next, encode_next};

/// Traffic counters for one worker (or one worker's traffic with one
/// shard), used by tests and by the Table 1 "OmniReduce communication
/// volume" reproduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Data packets sent to aggregators.
    pub packets_sent: u64,
    /// Wire bytes sent (codec-encoded sizes).
    pub bytes_sent: u64,
    /// Blocks transmitted (data entries).
    pub blocks_sent: u64,
    /// Result packets received.
    pub results_received: u64,
    /// AllReduce rounds driven to completion.
    pub rounds_completed: u64,
}

/// Fleet-wide `core.worker.*` registry mirrors of [`WorkerStats`]
/// (detached no-ops unless built via [`OmniWorker::with_telemetry`]).
#[derive(Default)]
struct WorkerCounters {
    packets_sent: Counter,
    bytes_sent: Counter,
    blocks_sent: Counter,
    results_received: Counter,
    rounds_completed: Counter,
    /// `core.shard.shutdown_errors`: goodbyes that failed to send
    /// during wind-down (every shard is attempted regardless).
    shutdown_errors: Counter,
}

impl WorkerCounters {
    fn registered(telemetry: &Telemetry) -> Self {
        WorkerCounters {
            packets_sent: telemetry.counter("core.worker.packets_sent"),
            bytes_sent: telemetry.counter("core.worker.bytes_sent"),
            blocks_sent: telemetry.counter("core.worker.blocks_sent"),
            results_received: telemetry.counter("core.worker.results_received"),
            rounds_completed: telemetry.counter("core.worker.rounds_completed"),
            shutdown_errors: telemetry.counter("core.shard.shutdown_errors"),
        }
    }
}

/// The worker engine. Generic over the transport, so the same code runs
/// over in-process channels, TCP sockets, a per-shard bond, or tests'
/// mocks.
pub struct OmniWorker<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    layout: StreamLayout,
    wid: u16,
    /// Traffic counters per destination shard (index = shard);
    /// [`OmniWorker::stats`] is their sum. Multi-aggregator deployments
    /// account each shard's traffic independently (DESIGN §10).
    shard_stats: Vec<WorkerStats>,
    counters: WorkerCounters,
    trace: EngineTrace,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// Freelists for outgoing packet buffers: each data entry's payload
    /// is checked out here instead of `to_vec()`-ing the block, and
    /// returns after the send (DESIGN §9).
    pool: BufferPool,
}

impl<T: Transport> OmniWorker<T> {
    /// Creates the engine for worker `wid` (must equal the transport's
    /// node id).
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        cfg.validate();
        let wid = transport.local_id().0;
        assert!(
            (wid as usize) < cfg.num_workers,
            "transport node {wid} is not a worker"
        );
        let layout = *ShardMap::new(&cfg).layout();
        let pool = BufferPool::for_block_size(cfg.block_size);
        OmniWorker {
            transport,
            shard_stats: vec![WorkerStats::default(); cfg.num_aggregators],
            cfg,
            layout,
            wid,
            counters: WorkerCounters::default(),
            trace: EngineTrace::disabled(),
            flight: FlightLane::disabled(),
            pool,
        }
    }

    /// Like [`OmniWorker::new`], but mirrors traffic counters into
    /// `telemetry`'s `core.worker.*` counters and records an
    /// `allreduce` span per round on a `worker{wid}` track when the
    /// registry's trace recorder is enabled.
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut w = Self::new(transport, cfg);
        w.counters = WorkerCounters::registered(telemetry);
        w.trace = EngineTrace::new(telemetry, &format!("worker{}", w.wid));
        w.flight = telemetry
            .flight()
            .lane(&format!("worker{}", w.wid), LaneRole::Worker, w.wid);
        w.pool = BufferPool::for_block_size(w.cfg.block_size)
            .with_telemetry(&format!("worker{}", w.wid), telemetry);
        w
    }

    /// Traffic counters so far, summed over the shards.
    pub fn stats(&self) -> WorkerStats {
        let mut total = WorkerStats {
            rounds_completed: self.rounds(),
            ..WorkerStats::default()
        };
        for s in &self.shard_stats {
            total.packets_sent += s.packets_sent;
            total.bytes_sent += s.bytes_sent;
            total.blocks_sent += s.blocks_sent;
            total.results_received += s.results_received;
        }
        total
    }

    /// Wire bytes sent to each aggregator shard (index = shard). Sums
    /// to [`WorkerStats::bytes_sent`].
    pub fn shard_bytes(&self) -> Vec<u64> {
        self.shard_stats.iter().map(|s| s.bytes_sent).collect()
    }

    /// This worker's id.
    pub fn wid(&self) -> u16 {
        self.wid
    }

    /// Rounds completed (every shard's row counts every round).
    fn rounds(&self) -> u64 {
        self.shard_stats[0].rounds_completed
    }

    /// Runs one AllReduce: on return, `tensor` holds the element-wise sum
    /// across all workers and shards.
    pub fn allreduce(&mut self, tensor: &mut Tensor) -> Result<(), TransportError> {
        assert_eq!(
            tensor.len(),
            self.cfg.tensor_len,
            "tensor length does not match group config"
        );
        let round_start = self.trace.start();
        let round = self.rounds() as u32;
        self.flight
            .record(FlightEventKind::RoundStart, round, NO_BLOCK, 0, self.wid, 0);
        let encode_t0 = self.flight.now_ns();
        let bitmap = NonZeroBitmap::build(tensor, self.cfg.block_spec());
        let layout = self.layout;
        let mut cursors = WorkerRound::new(layout, self.cfg.skip_zero_blocks);

        // First row of every stream, sent unconditionally.
        for g in layout.active_streams() {
            let mut entries = self.pool.checkout_entries();
            let pool = &mut self.pool;
            cursors.open_stream(&bitmap, g, |s| {
                entries.push(data_entry(pool, tensor, &layout, s))
            });
            self.send_data(g, entries)?;
        }
        self.flight.record(
            FlightEventKind::Encode,
            round,
            NO_BLOCK,
            0,
            self.wid,
            self.flight.now_ns().saturating_sub(encode_t0),
        );

        // Main loop: process results until every stream completes.
        while !cursors.round_done() {
            let (_, msg) = self.transport.recv()?;
            let packet = match msg {
                Message::Block(p) if p.kind == PacketKind::Result => p,
                other => panic!("worker: unexpected message {:?}", other.tag()),
            };
            let g = packet.slot as usize;
            let shard = self.cfg.shard_of_stream(g);
            self.shard_stats[shard].results_received += 1;
            self.counters.results_received.inc();
            self.flight.record(
                FlightEventKind::ResultRx,
                round,
                NO_BLOCK,
                shard as u16,
                self.wid,
                packet.entries.len() as u64,
            );
            let mut reply = self.pool.checkout_entries();
            for entry in &packet.entries {
                let (col, requested) = decode_next(entry.next, layout.width());
                // Store the aggregated block.
                if !entry.data.is_empty() {
                    tensor.copy_slice_at(layout.block_range(entry.block).start, &entry.data);
                }
                // `None`: another worker owns the requested block (the
                // aggregator already has our next), or the column is done.
                if let Some(s) = cursors.on_result(&bitmap, g, col, requested) {
                    reply.push(data_entry(&mut self.pool, tensor, &layout, s));
                }
            }
            if !reply.is_empty() {
                self.send_data(g, reply)?;
            } else {
                self.pool.checkin_entries(reply);
            }
        }
        for s in &mut self.shard_stats {
            s.rounds_completed += 1;
        }
        self.counters.rounds_completed.inc();
        self.flight
            .record(FlightEventKind::RoundEnd, round, NO_BLOCK, 0, self.wid, 0);
        self.trace.span("allreduce", round_start);
        Ok(())
    }

    fn send_data(&mut self, stream: usize, entries: Vec<Entry>) -> Result<(), TransportError> {
        let blocks = entries.iter().filter(|e| !e.is_ack()).count() as u64;
        let msg = Message::Block(Packet {
            kind: PacketKind::Data,
            ver: 0,
            slot: stream as u16,
            stream: self.cfg.stream_id,
            wid: self.wid,
            epoch: 0,
            entries,
        });
        let wire_bytes = codec::encoded_len(&msg) as u64;
        let shard = self.cfg.shard_of_stream(stream);
        let st = &mut self.shard_stats[shard];
        st.packets_sent += 1;
        st.blocks_sent += blocks;
        st.bytes_sent += wire_bytes;
        self.counters.packets_sent.inc();
        self.counters.blocks_sent.add(blocks);
        self.counters.bytes_sent.add(wire_bytes);
        // One flight event per fused message (not per block), keyed by
        // the first entry's block — the aggregator mirrors the key on
        // its PacketRx so the reconstructor can pair them.
        if let Message::Block(p) = &msg {
            if let Some(first) = p.entries.first() {
                self.flight.record(
                    FlightEventKind::PacketTx,
                    self.rounds() as u32,
                    first.block as u64,
                    shard as u16,
                    self.wid,
                    wire_bytes,
                );
            }
        }
        let sent = self
            .transport
            .send(NodeId(self.cfg.aggregator_node(shard)), &msg);
        // `send` borrows the message; its pooled buffers come back for
        // the next packet (DESIGN §9).
        self.pool.recycle_message(msg);
        sent
    }

    /// Tells every aggregator shard this worker is leaving; aggregators
    /// exit once all workers have said goodbye.
    ///
    /// Wind-down is symmetric across shards: a dead shard must not keep
    /// the goodbye from reaching the surviving ones, so every shard is
    /// attempted even after a failure. Failed goodbyes are counted in
    /// `core.shard.shutdown_errors` and the first error is returned once
    /// all shards have been tried.
    pub fn shutdown(self) -> Result<(), TransportError> {
        let mut first_err = None;
        for a in 0..self.cfg.num_aggregators {
            let node = NodeId(self.cfg.aggregator_node(a));
            if let Err(e) = self.transport.send(node, &Message::Shutdown) {
                self.counters.shutdown_errors.inc();
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// The wire entry for one outgoing [`ColEntry`]: a pooled copy of the block (no
/// `to_vec` per block) plus the announced next.
fn data_entry(pool: &mut BufferPool, tensor: &Tensor, layout: &StreamLayout, s: ColEntry) -> Entry {
    let mut data = pool.checkout_f32();
    data.extend_from_slice(&tensor[layout.block_range(s.block)]);
    Entry::data(s.block, encode_next(s.next, s.col, layout.width()), data)
}
