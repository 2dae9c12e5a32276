//! In-network aggregation under programmable-switch constraints (§7).
//!
//! The paper offloads the aggregator to a Barefoot Tofino switch (Fig. 18)
//! and notes the offload "inherits some of the limitations described by
//! Sapio et al. (SwitchML) in terms of numeric representation and slot
//! size". This module models those constraints so the same protocol can be
//! exercised under them:
//!
//! * **Fixed-point arithmetic** — Tofino ALUs sum 32-bit integers, not
//!   floats. [`FixedPoint`] quantizes `f32` block values to `i32` with a
//!   shared scaling exponent and saturating accumulation, exactly the
//!   SwitchML numeric model.
//! * **Bounded slot memory** — switch register memory holds a fixed pool
//!   of slots; [`SwitchAggregator`] enforces the pool bound at
//!   construction (geometry that needs more concurrent slots than the
//!   switch has is rejected up front).
//! * **Small payloads** — a Tofino pipeline processes ~34 32-bit values
//!   per packet per pass ([`TOFINO_MAX_BLOCK`]); larger blocks must be
//!   recirculated. The aggregator accepts bigger blocks but reports the
//!   recirculation factor so the timing model can charge for it.
//!
//! [`SwitchAggregator`] is a drop-in replacement for
//! [`crate::aggregator::OmniAggregator`] over any reliable transport: same
//! wire protocol and the same [`crate::protocol::SlotTable`], with a
//! fixed-point register array as the payload. Results it produces are
//! quantized, so they differ from the float sum by at most the
//! quantization step times the worker count.

use omnireduce_telemetry::{Counter, Telemetry};
use omnireduce_transport::{
    BufferPool, Entry, Message, Packet, PacketKind, Transport, TransportError,
};

use crate::aggregator::ResultFanout;
use crate::config::OmniConfig;
use crate::protocol::{ColEntry, Row, SlotTable};
use crate::shard::ShardMap;
use crate::wire::{decode_next, encode_next};

/// Values a Tofino-class pipeline can aggregate per packet per pass
/// (the paper's Fig. 18 runs the P4 aggregator with block size 34).
pub const TOFINO_MAX_BLOCK: usize = 34;

/// Default register-memory slot pool of the modelled switch.
pub const DEFAULT_SWITCH_POOL: usize = 512;

/// SwitchML-style fixed-point codec: `f32 ↔ i32` with a power-of-two
/// scaling factor and saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPoint {
    /// Fractional bits: value `x` is stored as `round(x · 2^frac_bits)`.
    pub frac_bits: u32,
}

impl Default for FixedPoint {
    fn default() -> Self {
        // 2^20 scaling: ±2047 representable range, ~1e-6 resolution —
        // ample for unit-scale gradients.
        FixedPoint { frac_bits: 20 }
    }
}

impl FixedPoint {
    /// Creates a codec with the given fractional bits (≤ 30).
    pub fn new(frac_bits: u32) -> Self {
        assert!(frac_bits <= 30, "frac_bits too large");
        FixedPoint { frac_bits }
    }

    /// Quantizes a float to fixed point, saturating at the i32 range.
    pub fn quantize(&self, x: f32) -> i32 {
        let scaled = (x as f64) * (1u64 << self.frac_bits) as f64;
        scaled.round().clamp(i32::MIN as f64, i32::MAX as f64) as i32
    }

    /// Dequantizes back to float.
    pub fn dequantize(&self, q: i32) -> f32 {
        (q as f64 / (1u64 << self.frac_bits) as f64) as f32
    }

    /// Saturating fixed-point add — the switch ALU operation.
    pub fn add(&self, a: i32, b: i32) -> i32 {
        a.saturating_add(b)
    }

    /// Worst-case absolute quantization error of a single value.
    pub fn step(&self) -> f32 {
        1.0 / (1u64 << self.frac_bits) as f32
    }
}

/// Statistics of the modelled switch data plane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets processed.
    pub packets: u64,
    /// Pipeline passes, counting recirculation for blocks larger than
    /// [`TOFINO_MAX_BLOCK`].
    pub pipeline_passes: u64,
    /// Values that saturated during accumulation.
    pub saturations: u64,
    /// Result multicasts.
    pub results_sent: u64,
}

/// Fleet-wide `core.switch.*` registry mirrors of [`SwitchStats`]
/// (detached no-ops unless built via
/// [`SwitchAggregator::with_telemetry`]).
#[derive(Default)]
struct SwitchCounters {
    packets: Counter,
    pipeline_passes: Counter,
    saturations: Counter,
    results_sent: Counter,
}

impl SwitchCounters {
    fn registered(telemetry: &Telemetry) -> Self {
        SwitchCounters {
            packets: telemetry.counter("core.switch.packets"),
            pipeline_passes: telemetry.counter("core.switch.pipeline_passes"),
            saturations: telemetry.counter("core.switch.saturations"),
            results_sent: telemetry.counter("core.switch.results_sent"),
        }
    }
}

/// An aggregator with Tofino-like constraints: fixed-point slots drawn
/// from a bounded pool. Protocol-compatible with
/// [`crate::worker::OmniWorker`].
pub struct SwitchAggregator<T: Transport> {
    transport: T,
    cfg: OmniConfig,
    fp: FixedPoint,
    /// Algorithm 1's slots for the streams this shard owns.
    table: SlotTable,
    /// Fixed-point registers per (stream, column), `stream × width +
    /// column`; empty = untouched since the last completion. The
    /// allocations persist across blocks and rounds (DESIGN §9).
    regs: Vec<Vec<i32>>,
    fanout: ResultFanout,
    /// Data-plane counters.
    pub stats: SwitchStats,
    counters: SwitchCounters,
    /// Freelists for outgoing result buffers (DESIGN §9): dequantized
    /// payloads and entry lists are checked out here and recycled after
    /// the multicast instead of reallocated per completion.
    pool: BufferPool,
    /// Completed-row scratch, refilled per completion.
    row: Vec<ColEntry>,
}

impl<T: Transport> SwitchAggregator<T> {
    /// Creates the switch aggregator with the given fixed-point codec and
    /// slot pool capacity.
    ///
    /// # Panics
    /// Panics when the geometry needs more concurrent slots than
    /// `pool_slots` — the register-memory bound of the switch. Each
    /// stream consumes `fusion` column slots.
    pub fn new(transport: T, cfg: OmniConfig, fp: FixedPoint, pool_slots: usize) -> Self {
        cfg.validate();
        let node = transport.local_id().0 as usize;
        assert!(
            node >= cfg.num_workers && node < cfg.mesh_size(),
            "node {node} is not an aggregator"
        );
        let shard = node - cfg.num_workers;
        let map = ShardMap::new(&cfg);
        let needed = map.streams_of(shard).count() * cfg.fusion;
        assert!(
            needed <= pool_slots,
            "geometry needs {needed} slots but the switch pool holds {pool_slots}"
        );
        let layout = *map.layout();
        let table = SlotTable::new(layout, map.streams_of(shard), cfg.num_workers);
        let regs = vec![Vec::new(); layout.total_streams() * layout.width()];
        let pool = BufferPool::for_block_size(cfg.block_size);
        SwitchAggregator {
            transport,
            fanout: ResultFanout::new(cfg.num_workers),
            cfg,
            fp,
            table,
            regs,
            stats: SwitchStats::default(),
            counters: SwitchCounters::default(),
            pool,
            row: Vec::new(),
        }
    }

    /// Like [`SwitchAggregator::new`], but mirrors data-plane counters
    /// into `telemetry`'s `core.switch.*` counters.
    pub fn with_telemetry(
        transport: T,
        cfg: OmniConfig,
        fp: FixedPoint,
        pool_slots: usize,
        telemetry: &Telemetry,
    ) -> Self {
        let mut a = Self::new(transport, cfg, fp, pool_slots);
        a.counters = SwitchCounters::registered(telemetry);
        a.pool = BufferPool::for_block_size(a.cfg.block_size).with_telemetry("switch", telemetry);
        a
    }

    /// Serves the group until every worker says `Shutdown`.
    pub fn run(&mut self) -> Result<(), TransportError> {
        loop {
            let (from, msg) = self.transport.recv()?;
            match msg {
                Message::Block(p) if p.kind == PacketKind::Data => self.handle(p)?,
                Message::Shutdown => {
                    if self.fanout.goodbye(from) {
                        return Ok(());
                    }
                }
                other => panic!("switch: unexpected {:?}", other.tag()),
            }
        }
    }

    fn handle(&mut self, p: Packet) -> Result<(), TransportError> {
        let g = p.slot as usize;
        let width = self.cfg.fusion;
        self.stats.packets += 1;
        self.counters.packets.inc();
        let fp = self.fp;
        for entry in &p.entries {
            let (col, next) = decode_next(entry.next, width);
            if !entry.data.is_empty() {
                debug_assert_eq!(entry.block, self.table.cur(g, col));
                let passes = entry.data.len().div_ceil(TOFINO_MAX_BLOCK) as u64;
                self.stats.pipeline_passes += passes;
                self.counters.pipeline_passes.add(passes);
                let acc = &mut self.regs[g * width + col];
                if acc.is_empty() {
                    acc.extend(entry.data.iter().map(|v| fp.quantize(*v)));
                } else {
                    for (a, v) in acc.iter_mut().zip(&entry.data) {
                        let q = fp.quantize(*v);
                        let sum = fp.add(*a, q);
                        if sum == i32::MAX || sum == i32::MIN {
                            self.stats.saturations += 1;
                            self.counters.saturations.inc();
                        }
                        *a = sum;
                    }
                }
            }
            self.table.announce(g, col, p.wid as usize, next);
        }
        self.complete_row(g)
    }

    fn complete_row(&mut self, g: usize) -> Result<(), TransportError> {
        let width = self.cfg.fusion;
        let fp = self.fp;
        if self.table.complete_row(g, &mut self.row) == Row::Pending {
            return Ok(());
        }
        let mut entries = self.pool.checkout_entries();
        for r in &self.row {
            let acc = &mut self.regs[g * width + r.col];
            // Pooled dequantized payload (no fresh Vec per completion).
            let mut data = self.pool.checkout_f32();
            data.extend(acc.iter().map(|q| fp.dequantize(*q)));
            acc.clear();
            entries.push(Entry::data(
                r.block,
                encode_next(r.next, r.col, width),
                data,
            ));
        }
        self.stats.results_sent += 1;
        self.counters.results_sent.inc();
        self.fanout
            .multicast(&self.transport, &self.cfg, &mut self.pool, g, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_within_step() {
        let fp = FixedPoint::default();
        for x in [0.0f32, 1.0, -1.0, 0.123456, -987.654, 1e-5] {
            let q = fp.quantize(x);
            let back = fp.dequantize(q);
            assert!((back - x).abs() <= fp.step(), "{x} → {back}");
        }
    }

    #[test]
    fn quantize_saturates_at_range() {
        let fp = FixedPoint::new(20);
        let max_repr = fp.dequantize(i32::MAX);
        assert_eq!(fp.quantize(1e10), i32::MAX);
        assert_eq!(fp.quantize(-1e10), i32::MIN);
        assert!(max_repr > 2000.0);
    }

    #[test]
    fn fixed_add_saturates() {
        let fp = FixedPoint::new(0);
        assert_eq!(fp.add(i32::MAX, 1), i32::MAX);
        assert_eq!(fp.add(i32::MIN, -1), i32::MIN);
        assert_eq!(fp.add(3, 4), 7);
    }

    #[test]
    fn step_is_inverse_power_of_two() {
        assert_eq!(FixedPoint::new(2).step(), 0.25);
    }

    #[test]
    #[should_panic(expected = "switch pool")]
    fn pool_bound_is_enforced() {
        use omnireduce_transport::{ChannelNetwork, NodeId};
        let cfg = OmniConfig::new(2, 1 << 16)
            .with_block_size(32)
            .with_fusion(8)
            .with_streams(64);
        let mut net = ChannelNetwork::new(cfg.mesh_size());
        let t = net.endpoint(NodeId(cfg.aggregator_node(0)));
        // 64 streams × 8 columns = 512 slots > 256.
        let _ = SwitchAggregator::new(t, cfg, FixedPoint::default(), 256);
    }
}
