//! The OmniReduce aggregator engine for reliable transports
//! (Algorithm 1 with Block Fusion and parallel streams).
//!
//! One aggregator shard serves the streams assigned to it. Per stream it
//! keeps one *slot*: for each fused column, an accumulator for the block
//! currently being aggregated plus every worker's announced next non-zero
//! block in that column. When, for every active column, the current block
//! index is below the minimum of the workers' nexts, the slot is complete:
//! the shard multicasts the aggregated row (with the new per-column
//! requests — the global minima) to all workers, advances the columns,
//! and resets the accumulators (Algorithm 1 lines 19–27).
//!
//! That slot logic is [`crate::protocol::SlotTable`]; this driver owns the
//! payload (one [`ColAccumulator`] per column), the transport and the
//! counters.
//!
//! The shard runs until every worker has sent a `Shutdown`.

use omnireduce_telemetry::{Counter, FlightEventKind, FlightLane, LaneRole, Telemetry};
use omnireduce_transport::{
    BufferPool, Entry, Message, NodeId, Packet, PacketKind, Transport, TransportError,
};

use crate::config::OmniConfig;
use crate::protocol::{ColEntry, Row, SlotTable};
use crate::shard::ShardMap;
use crate::slot::ColAccumulator;
use crate::wire::{decode_next, encode_next};

/// Data-plane counters of one aggregator shard (observability for
/// operators; also used by tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Data packets processed.
    pub packets: u64,
    /// Data entries aggregated (blocks received, incl. duplicates of the
    /// same position from different workers).
    pub blocks_received: u64,
    /// Slots (block rows) completed and multicast.
    pub slots_completed: u64,
    /// AllReduce rounds fully served (every owned stream reset).
    pub rounds_completed: u64,
    /// Result packets multicast to the workers.
    pub results_sent: u64,
}

/// Fleet-wide `core.aggregator.*` registry mirrors of
/// [`AggregatorStats`] (detached no-ops unless built via
/// [`OmniAggregator::with_telemetry`]).
#[derive(Default)]
struct AggregatorCounters {
    packets: Counter,
    blocks_received: Counter,
    slots_completed: Counter,
    rounds_completed: Counter,
    results_sent: Counter,
}

impl AggregatorCounters {
    fn registered(telemetry: &Telemetry) -> Self {
        AggregatorCounters {
            packets: telemetry.counter("core.aggregator.packets"),
            blocks_received: telemetry.counter("core.aggregator.blocks_received"),
            slots_completed: telemetry.counter("core.aggregator.slots_completed"),
            rounds_completed: telemetry.counter("core.aggregator.rounds_completed"),
            results_sent: telemetry.counter("core.aggregator.results_sent"),
        }
    }
}

/// The I/O both `Transport`-driven aggregators ([`OmniAggregator`],
/// [`crate::switch::SwitchAggregator`]) share: who is still listening,
/// and the result multicast to them.
pub(crate) struct ResultFanout {
    /// Workers that sent `Shutdown` (finished; excluded from multicasts).
    departed: Vec<bool>,
}

impl ResultFanout {
    pub(crate) fn new(num_workers: usize) -> Self {
        ResultFanout {
            departed: vec![false; num_workers],
        }
    }

    /// Records worker `from`'s `Shutdown`: it has finished every round it
    /// will run, so results stop going to it (its endpoint may already be
    /// gone). True once every worker has left.
    pub(crate) fn goodbye(&mut self, from: NodeId) -> bool {
        self.departed[from.index()] = true;
        self.departed.iter().all(|gone| *gone)
    }

    /// Multicasts `entries` as stream `g`'s result to every worker still
    /// present (Algorithm 1 line 27), then returns the message's buffers
    /// to `pool`: transports borrow `&Message`, so the steady state
    /// allocates nothing (DESIGN §9).
    pub(crate) fn multicast<T: Transport>(
        &self,
        transport: &T,
        cfg: &OmniConfig,
        pool: &mut BufferPool,
        g: usize,
        entries: Vec<Entry>,
    ) -> Result<(), TransportError> {
        let msg = Message::Block(Packet {
            kind: PacketKind::Result,
            ver: 0,
            slot: g as u16,
            stream: cfg.stream_id,
            wid: u16::MAX,
            epoch: 0,
            entries,
        });
        let sent = (0..cfg.num_workers)
            .filter(|w| !self.departed[*w])
            .try_for_each(|w| {
                crate::wire::send_best_effort(transport, NodeId(cfg.worker_node(w)), &msg)
            });
        pool.recycle_message(msg);
        sent
    }
}

/// The aggregator shard engine.
pub struct OmniAggregator<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    shard: usize,
    /// Algorithm 1's slots for the streams this shard owns.
    table: SlotTable,
    /// Block accumulator per (stream, column), `stream × width + column`
    /// (arrival-order or deterministic §7; buffers reused in place
    /// across blocks and rounds — DESIGN §9). `None` for streams of
    /// other shards and columns past the end of the tensor.
    accs: Vec<Option<ColAccumulator>>,
    fanout: ResultFanout,
    /// Data-plane counters.
    pub stats: AggregatorStats,
    counters: AggregatorCounters,
    /// Protocol flight lane (no-op unless the registry's flight
    /// recorder is enabled).
    flight: FlightLane,
    /// Freelists for result-packet buffers (checked out at completion,
    /// recycled after the multicast — DESIGN §9).
    pool: BufferPool,
    /// Completed-row scratch, refilled per completion.
    row: Vec<ColEntry>,
}

impl<T: Transport> OmniAggregator<T> {
    /// Creates the engine for the shard whose node id matches the
    /// transport's.
    pub fn new(transport: T, cfg: OmniConfig) -> Self {
        cfg.validate();
        let node = transport.local_id().0 as usize;
        assert!(
            node >= cfg.num_workers && node < cfg.mesh_size(),
            "transport node {node} is not an aggregator"
        );
        let shard = node - cfg.num_workers;
        let map = ShardMap::new(&cfg);
        let layout = *map.layout();
        let table = SlotTable::new(layout, map.streams_of(shard), cfg.num_workers);
        let mut accs = vec![None; layout.total_streams() * layout.width()];
        for g in map.streams_of(shard) {
            for c in layout.valid_columns(g) {
                accs[g * layout.width() + c] =
                    Some(ColAccumulator::new(cfg.num_workers, cfg.deterministic));
            }
        }
        let pool = BufferPool::for_block_size(cfg.block_size);
        OmniAggregator {
            transport,
            fanout: ResultFanout::new(cfg.num_workers),
            cfg,
            shard,
            table,
            accs,
            stats: AggregatorStats::default(),
            counters: AggregatorCounters::default(),
            flight: FlightLane::disabled(),
            pool,
            row: Vec::new(),
        }
    }

    /// Like [`OmniAggregator::new`], but mirrors data-plane counters into
    /// `telemetry`'s `core.aggregator.*` counters (and the buffer pool's
    /// hit/miss counters under `transport.pool.aggregator.*`).
    pub fn with_telemetry(transport: T, cfg: OmniConfig, telemetry: &Telemetry) -> Self {
        let mut a = Self::new(transport, cfg);
        a.counters = AggregatorCounters::registered(telemetry);
        a.flight = telemetry.flight().lane(
            &format!("agg{}", a.shard),
            LaneRole::Aggregator,
            a.shard as u16,
        );
        a.pool =
            BufferPool::for_block_size(a.cfg.block_size).with_telemetry("aggregator", telemetry);
        a
    }

    /// Shard index of this aggregator.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Serves the group until every worker sends `Shutdown`.
    pub fn run(&mut self) -> Result<(), TransportError> {
        loop {
            let (from, msg) = self.transport.recv()?;
            match msg {
                Message::Block(p) if p.kind == PacketKind::Data => {
                    self.handle_data(p)?;
                }
                Message::Shutdown => {
                    if self.fanout.goodbye(from) {
                        return Ok(());
                    }
                }
                other => panic!("aggregator: unexpected {:?} from {from}", other.tag()),
            }
        }
    }

    fn handle_data(&mut self, p: Packet) -> Result<(), TransportError> {
        let g = p.slot as usize;
        let width = self.cfg.fusion;
        let blocks = p.entries.iter().filter(|e| !e.data.is_empty()).count() as u64;
        self.stats.packets += 1;
        self.stats.blocks_received += blocks;
        self.counters.packets.inc();
        self.counters.blocks_received.add(blocks);
        // Keyed by the first entry's block, mirroring the sender's
        // PacketTx key so the reconstructor can pair tx with rx.
        if let Some(first) = p.entries.first() {
            self.flight.record(
                FlightEventKind::PacketRx,
                0,
                first.block as u64,
                self.shard as u16,
                p.wid,
                blocks,
            );
        }
        for entry in &p.entries {
            let (col, next) = decode_next(entry.next, width);
            if !entry.data.is_empty() {
                debug_assert_eq!(entry.block, self.table.cur(g, col), "entry for wrong block");
                let acc = self.accs[g * width + col]
                    .as_mut()
                    .expect("data entry for a column this shard does not hold");
                debug_assert!(!acc.has_contrib(p.wid as usize), "double contribution");
                if !acc.touched() {
                    // First contribution claims the column's slot.
                    self.flight.record(
                        FlightEventKind::SlotOccupy,
                        0,
                        entry.block as u64,
                        self.shard as u16,
                        p.wid,
                        col as u64,
                    );
                }
                // Copy into the accumulator's persistent buffers (no
                // per-block allocation; vectorized reduction kernel).
                acc.store(p.wid as usize, &entry.data);
            }
            self.table.announce(g, col, p.wid as usize, next);
        }
        self.complete_row(g)
    }

    /// If every active column of stream `g` is complete, multicast the
    /// aggregated row with the new per-column requests.
    fn complete_row(&mut self, g: usize) -> Result<(), TransportError> {
        let width = self.cfg.fusion;
        let outcome = self.table.complete_row(g, &mut self.row);
        if outcome == Row::Pending {
            return Ok(());
        }

        // Build the result packet from pooled buffers (DESIGN §9): the
        // entry list and each payload come from the freelists and return
        // to them right after the multicast, so the steady state
        // allocates nothing.
        let mut entries = self.pool.checkout_entries();
        for r in &self.row {
            let acc = self.accs[g * width + r.col]
                .as_mut()
                .expect("completed column has an accumulator");
            let mut data = self.pool.checkout_f32();
            acc.take_into(&mut data);
            entries.push(Entry::data(
                r.block,
                encode_next(r.next, r.col, width),
                data,
            ));
        }
        let first_block = self.row[0].block as u64;
        let row_len = self.row.len() as u64;

        self.stats.results_sent += 1;
        self.stats.slots_completed += 1;
        self.counters.results_sent.inc();
        self.counters.slots_completed.inc();
        for kind in [FlightEventKind::SlotRelease, FlightEventKind::ResultTx] {
            self.flight
                .record(kind, 0, first_block, self.shard as u16, 0, row_len);
        }
        self.fanout
            .multicast(&self.transport, &self.cfg, &mut self.pool, g, entries)?;

        // The table re-armed the finished stream in place (Algorithm 1
        // line 26); when the shard's last open stream resets, a full
        // AllReduce has been served.
        if outcome == Row::RoundDone {
            self.stats.rounds_completed += 1;
            self.counters.rounds_completed.inc();
        }
        Ok(())
    }
}
