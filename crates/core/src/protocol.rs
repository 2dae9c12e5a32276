//! Algorithms 1 and 2 as pure state machines — the only place either is
//! written down (DESIGN "Protocol core").
//!
//! Algorithm 1 (lossless):
//!
//! * [`WorkerRound`] is the worker half: one `my_next` cursor per
//!   (stream, column), the unconditional first row, and the rule that
//!   turns an aggregator request into "send block *b* announcing next
//!   *n*" or silence (another worker owns the requested block; the
//!   aggregator already holds our next).
//! * [`SlotTable`] is one aggregator shard's half: per column the block
//!   being aggregated (`cur`) and every worker's announced next, the
//!   completion rule `cur < min(next)` (line 22), the advance to the
//!   global minimum, and the re-arm for the next tensor once every column
//!   reached ∞ (line 26).
//!
//! Algorithm 2 (loss recovery, Appendix A):
//!
//! * [`WorkerPhases`] wraps a [`WorkerRound`] with what a lossy network
//!   adds on the worker: a phase version bit per stream, the outstanding
//!   packet's timer bookkeeping (first send, Karn's rule, consecutive
//!   retransmissions), the per-shard RTO policy, and the answer to every
//!   result entry — data when the request is ours, an ack otherwise.
//! * [`PhaseTable`] is one shard's half: two versions × columns of
//!   `{block, min_next}` per owned stream with seen bits, a contribution
//!   count and the retained-result flag, plus the membership state
//!   (epoch, evictions, departures, the busy-edge liveness clock). It
//!   decides what a worker packet is (zombie, stale epoch, duplicate to
//!   answer or to NACK, fresh), folds it, and completes a phase once every
//!   member that has not been evicted contributed.
//!
//! None of them owns a transport, a simulator context, a clock, a buffer
//! pool or a telemetry handle, and none sees a payload. The drivers —
//! [`crate::worker`], [`crate::aggregator`], [`crate::switch`] and the
//! actors in [`crate::sim`] for Algorithm 1; [`crate::recovery`] and the
//! actors in [`crate::sim_recovery`] for Algorithm 2 — keep exactly that:
//! what a block's payload is, how a packet leaves, how a timer is armed,
//! and what gets counted. Time enters as a `u64` of nanoseconds on any
//! clock the driver likes. The machines answer through return values and
//! caller-owned scratch; there is no action vocabulary to interpret. All
//! are `Clone + Eq + Hash`: a state-space search can fork and deduplicate
//! them (`tests/protocol_exhaustive.rs`, `tests/recovery_exhaustive.rs`).

use omnireduce_tensor::{BlockIdx, NonZeroBitmap, INFINITY_BLOCK};
use omnireduce_transport::timer::RttEstimator;

use crate::config::OmniConfig;
use crate::layout::StreamLayout;

/// One entry of a fused packet, minus its payload — the same shape in
/// both directions, as on the wire. From a worker: "send `block`,
/// announcing `next` as my following non-zero block in this column".
/// From a shard: "`block` finished aggregating; the column now requests
/// `next`" (the global minimum). `next` is ∞ when nothing follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColEntry {
    /// Fused column of the block.
    pub col: usize,
    /// The block the entry carries.
    pub block: BlockIdx,
    /// The look-ahead (or ∞).
    pub next: BlockIdx,
}

/// The worker side of Algorithm 1 for one worker and one round.
///
/// The driver opens every active stream once
/// ([`WorkerRound::open_stream`]), then feeds each result entry to
/// [`WorkerRound::on_result`] until [`WorkerRound::round_done`]. Streams
/// past the end of a short tensor — and therefore whole shards that own
/// nothing — are never opened and never waited on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkerRound {
    layout: StreamLayout,
    skip_zero: bool,
    /// Next untransmitted non-zero block per (stream, column), row-major.
    my_next: Vec<BlockIdx>,
    /// The aggregator requested ∞ for the (stream, column).
    done: Vec<bool>,
    /// Columns not yet done, per stream (0 = stream not open).
    remaining: Vec<usize>,
    open_streams: usize,
}

impl WorkerRound {
    /// Cursors for `layout`; `skip_zero = false` is dense streaming
    /// (every block counts as non-zero).
    pub fn new(layout: StreamLayout, skip_zero: bool) -> Self {
        let cols = layout.total_streams() * layout.width();
        WorkerRound {
            layout,
            skip_zero,
            my_next: vec![INFINITY_BLOCK; cols],
            done: vec![true; cols],
            remaining: vec![0; layout.total_streams()],
            open_streams: 0,
        }
    }

    /// Opens `stream` and emits its first row: one block per valid
    /// column, sent whether or not it is zero.
    ///
    /// # Panics
    /// Panics when the stream is already open.
    pub fn open_stream(
        &mut self,
        bitmap: &NonZeroBitmap,
        stream: usize,
        mut emit: impl FnMut(ColEntry),
    ) {
        assert_eq!(self.remaining[stream], 0, "stream {stream} opened twice");
        let width = self.layout.width();
        for col in self.layout.valid_columns(stream) {
            let block = self.layout.first_block(stream, col).expect("valid column");
            let next = self
                .layout
                .next_block(bitmap, stream, col, Some(block), self.skip_zero);
            self.my_next[stream * width + col] = next;
            self.done[stream * width + col] = false;
            self.remaining[stream] += 1;
            emit(ColEntry { col, block, next });
        }
        if self.remaining[stream] > 0 {
            self.open_streams += 1;
        }
    }

    /// Applies one result entry: the aggregator now requests block
    /// `requested` (or ∞) in `col` of `stream`. Returns the block to send
    /// when the request is this worker's next non-zero block; `None` when
    /// another worker owns it or the column just finished.
    ///
    /// # Panics
    /// Panics on a result for a stream that is not open — a stream
    /// completes exactly once per round.
    pub fn on_result(
        &mut self,
        bitmap: &NonZeroBitmap,
        stream: usize,
        col: usize,
        requested: BlockIdx,
    ) -> Option<ColEntry> {
        assert!(
            self.remaining[stream] > 0,
            "result for stream {stream}, which is not open"
        );
        let i = stream * self.layout.width() + col;
        if self.done[i] {
            return None;
        }
        if requested == INFINITY_BLOCK {
            self.done[i] = true;
            self.remaining[stream] -= 1;
            if self.remaining[stream] == 0 {
                self.open_streams -= 1;
            }
            return None;
        }
        if self.my_next[i] != requested {
            return None;
        }
        let next = self
            .layout
            .next_block(bitmap, stream, col, Some(requested), self.skip_zero);
        self.my_next[i] = next;
        Some(ColEntry {
            col,
            block: requested,
            next,
        })
    }

    /// The acknowledgment Algorithm 2 sends where [`WorkerRound::on_result`]
    /// stayed silent because another worker owns `requested`: "seen
    /// `requested`, my next is still *n*" (lines 19–21). `None` once the
    /// column is done.
    pub fn ack(&self, stream: usize, col: usize, requested: BlockIdx) -> Option<ColEntry> {
        let i = stream * self.layout.width() + col;
        (!self.done[i]).then(|| ColEntry {
            col,
            block: requested,
            next: self.my_next[i],
        })
    }

    /// True once every column of `stream` has been told ∞ (also true for
    /// a stream that was never opened).
    pub fn stream_done(&self, stream: usize) -> bool {
        self.remaining[stream] == 0
    }

    /// True when no stream is open: the round is complete.
    pub fn round_done(&self) -> bool {
        self.open_streams == 0
    }
}

/// "Worker has not announced a next yet" — the paper's −∞ (line 18).
/// Ordered below every block index, so it blocks `cur < min(next)`
/// without a special case.
const NEG_INFINITY: i64 = -1;

/// What [`SlotTable::complete_row`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// Some active column still waits for an announcement; nothing
    /// changed.
    Pending,
    /// A row completed and its columns advanced.
    Advanced,
    /// The row was the stream's last: every column reached ∞ and the
    /// stream is re-armed for the next tensor.
    StreamDone,
    /// As `StreamDone`, and it was the shard's last open stream: a full
    /// AllReduce round has been served.
    RoundDone,
}

/// The aggregator side of Algorithm 1 for one shard: the slot of every
/// stream the shard owns, without the payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SlotTable {
    layout: StreamLayout,
    num_workers: usize,
    /// Stream id → index among the owned streams (`usize::MAX` = not
    /// ours).
    slot_of: Vec<usize>,
    /// Block being aggregated per (slot, column); ∞ for an exhausted or
    /// past-the-end column.
    cur: Vec<BlockIdx>,
    /// Announced next per (slot, column, worker).
    next_of: Vec<i64>,
    /// Owned streams that hold blocks; each round closes all of them.
    active_streams: usize,
    open_streams: usize,
}

impl SlotTable {
    /// Slots for the streams in `owned` (the shard's share of the
    /// stream → shard map), each column armed at its first block with
    /// every worker at −∞.
    pub fn new(
        layout: StreamLayout,
        owned: impl IntoIterator<Item = usize>,
        num_workers: usize,
    ) -> Self {
        let mut slot_of = vec![usize::MAX; layout.total_streams()];
        let mut cur = Vec::new();
        let mut active_streams = 0;
        for (slot, stream) in owned.into_iter().enumerate() {
            slot_of[stream] = slot;
            cur.extend((0..layout.width()).map(|c| first_or_infinity(&layout, stream, c)));
            if layout.first_block(stream, 0).is_some() {
                active_streams += 1;
            }
        }
        SlotTable {
            layout,
            num_workers,
            slot_of,
            next_of: vec![NEG_INFINITY; cur.len() * num_workers],
            cur,
            active_streams,
            open_streams: active_streams,
        }
    }

    /// Owned streams that hold blocks — the slots a round occupies.
    pub fn active_streams(&self) -> usize {
        self.active_streams
    }

    /// The block currently being aggregated in `col` of `stream`.
    pub fn cur(&self, stream: usize, col: usize) -> BlockIdx {
        self.cur[self.column(stream, col)]
    }

    /// Records that worker `wid`'s next non-zero block in `col` of
    /// `stream` is `next` (Algorithm 1 line 18).
    ///
    /// # Panics
    /// Panics when the shard does not own the stream, or the column is
    /// past the end of the tensor or already exhausted this round.
    pub fn announce(&mut self, stream: usize, col: usize, wid: usize, next: BlockIdx) {
        let i = self.column(stream, col);
        assert!(
            self.cur[i] != INFINITY_BLOCK,
            "announcement for inactive column {col} of stream {stream}"
        );
        self.next_of[i * self.num_workers + wid] = next as i64;
    }

    /// Completes the current row of `stream` if every active column
    /// satisfies `cur < min(next)`: fills `row` with the finished blocks
    /// and their new requests, advances each column to its request, and
    /// re-arms the stream once all of them reached ∞. Otherwise leaves
    /// the table untouched and `row` empty.
    pub fn complete_row(&mut self, stream: usize, row: &mut Vec<ColEntry>) -> Row {
        row.clear();
        let base = self.column(stream, 0);
        for col in 0..self.layout.width() {
            let cur = self.cur[base + col];
            if cur == INFINITY_BLOCK {
                continue;
            }
            let min = self.min_next(base + col);
            if !complete(cur, min) {
                row.clear();
                return Row::Pending;
            }
            row.push(ColEntry {
                col,
                block: cur,
                next: min as BlockIdx,
            });
        }
        if row.is_empty() {
            return Row::Pending;
        }
        let mut finished = true;
        for r in row.iter() {
            self.cur[base + r.col] = r.next;
            finished &= r.next == INFINITY_BLOCK;
        }
        if !finished {
            return Row::Advanced;
        }
        for col in 0..self.layout.width() {
            self.cur[base + col] = first_or_infinity(&self.layout, stream, col);
        }
        let w = self.num_workers;
        self.next_of[base * w..(base + self.layout.width()) * w].fill(NEG_INFINITY);
        self.open_streams -= 1;
        if self.open_streams > 0 {
            return Row::StreamDone;
        }
        self.open_streams = self.active_streams;
        Row::RoundDone
    }

    /// Flat index of (stream, col).
    fn column(&self, stream: usize, col: usize) -> usize {
        let slot = self.slot_of[stream];
        assert!(slot != usize::MAX, "stream {stream} not owned by shard");
        slot * self.layout.width() + col
    }

    /// min over workers of the announced next; −∞ while any is missing
    /// (nothing is lower, so the scan stops at the first one).
    fn min_next(&self, column: usize) -> i64 {
        let w = self.num_workers;
        let mut min = i64::MAX;
        for &next in &self.next_of[column * w..(column + 1) * w] {
            if next == NEG_INFINITY {
                return NEG_INFINITY;
            }
            min = min.min(next);
        }
        min
    }
}

/// The completion condition of Algorithm 1 line 22: `cur < min(next)`.
/// −∞ blocks it by ordering; a column at ∞ is never complete (it is
/// exhausted, with nothing left to multicast).
fn complete(cur: BlockIdx, min_next: i64) -> bool {
    (cur as i64) < min_next
}

fn first_or_infinity(layout: &StreamLayout, stream: usize, col: usize) -> BlockIdx {
    layout.first_block(stream, col).unwrap_or(INFINITY_BLOCK)
}

/// True if membership epoch `a` precedes `b` in wrapping (mod 256)
/// order. Epochs only ever move forward, one bump per membership
/// change, so any two live epochs are within half the ring of each
/// other and the comparison is unambiguous.
pub fn epoch_before(a: u8, b: u8) -> bool {
    a != b && b.wrapping_sub(a) < 128
}

/// One entry of a worker packet in Algorithm 2. Every worker answers
/// every result for every column still open: with the requested block
/// when it is its own, with a data-less acknowledgment otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reply {
    /// "Here is `block`; my next non-zero block is `next`."
    Data(ColEntry),
    /// "I hold nothing for the requested `block`; my next is still
    /// `next`."
    Ack(ColEntry),
}

/// The unanswered packet of one stream, as its timer sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Outstanding {
    /// First transmission (RTT sample, time waited so far).
    sent_at: u64,
    /// Karn's rule: once resent, the answer is ambiguous and must not
    /// feed the RTT estimator.
    retransmitted: bool,
    /// Consecutive unanswered retransmissions.
    retx: u32,
}

/// What a retransmission timer expiry calls for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expiry {
    /// Nothing is outstanding on the stream: a stale timer.
    Idle,
    /// Resend the outstanding packet and re-arm; `waited` ns since its
    /// first transmission, the adaptive RTO doubled first if `backoff`.
    Resend { waited: u64, backoff: bool },
    /// The retry budget ran out and `shard` has an unused hot standby:
    /// re-target the shard, then resend every packet outstanding on it
    /// (their budgets were reset).
    Failover { shard: usize },
    /// The retry budget ran out after `retransmits` consecutive resends,
    /// `waited` ns after the first transmission: the shard is
    /// unresponsive.
    GiveUp { retransmits: u32, waited: u64 },
}

/// The worker side of Algorithm 2 for one worker: a [`WorkerRound`] per
/// AllReduce plus what loss recovery adds around it, all of which
/// persists across rounds — the phase version of every stream, the
/// outstanding packet of every open stream, and the per-shard RTO policy
/// ([`OmniConfig::adaptive_rto`] / `retransmit_timeout` / `rto_min` /
/// `rto_max` / `max_retransmits`, with one-shot failover to a hot
/// standby).
///
/// The driver starts each AllReduce with [`WorkerPhases::begin_round`],
/// opens every active stream, sends each packet it builds and reports it
/// with [`WorkerPhases::sent`], which returns the RTO to arm. A result
/// goes to [`WorkerPhases::on_result`], then each of its entries to
/// [`WorkerPhases::reply`]; a NACK to [`WorkerPhases::on_nack`]; a timer
/// to [`WorkerPhases::on_timer`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkerPhases {
    round: WorkerRound,
    layout: StreamLayout,
    skip_zero: bool,
    shards: usize,
    /// Phase version the stream's next result must carry.
    ver: Vec<u8>,
    out: Vec<Option<Outstanding>>,
    /// Per-shard RTT estimator (adaptive mode).
    rtt: Vec<RttEstimator>,
    adaptive: bool,
    fixed_rto: u64,
    max_retransmits: u32,
    hot_standby: bool,
    failed_over: Vec<bool>,
}

impl WorkerPhases {
    /// Worker `wid`'s machine for `cfg`; every stream at version 0.
    pub fn new(cfg: &OmniConfig, wid: usize) -> Self {
        let layout = StreamLayout::new(
            cfg.block_spec(),
            cfg.fusion,
            cfg.total_streams(),
            cfg.tensor_len,
        );
        let rtt = (0..cfg.num_aggregators)
            .map(|a| {
                RttEstimator::new(
                    cfg.retransmit_timeout,
                    cfg.rto_min,
                    cfg.rto_max,
                    // Deterministic per-(worker, shard) jitter stream.
                    0x9E37_79B9_7F4A_7C15 ^ ((wid as u64) << 16) ^ a as u64,
                )
            })
            .collect();
        WorkerPhases {
            round: WorkerRound::new(layout, cfg.skip_zero_blocks),
            layout,
            skip_zero: cfg.skip_zero_blocks,
            shards: cfg.num_aggregators,
            ver: vec![0; layout.total_streams()],
            out: vec![None; layout.total_streams()],
            rtt,
            adaptive: cfg.adaptive_rto,
            fixed_rto: cfg.retransmit_timeout.as_nanos() as u64,
            max_retransmits: cfg.max_retransmits,
            hot_standby: cfg.hot_standby,
            failed_over: vec![false; cfg.num_aggregators],
        }
    }

    /// Starts a round with fresh cursors; the driver then opens every
    /// active stream.
    pub fn begin_round(&mut self) {
        self.round = WorkerRound::new(self.layout, self.skip_zero);
        self.out.fill(None);
    }

    /// Opens `stream` and emits its first row (all data entries).
    pub fn open_stream(
        &mut self,
        bitmap: &NonZeroBitmap,
        stream: usize,
        emit: impl FnMut(ColEntry),
    ) {
        self.round.open_stream(bitmap, stream, emit);
    }

    /// Records that a fresh packet of `stream` left at `now`; returns the
    /// RTO to arm for it.
    pub fn sent(&mut self, stream: usize, now: u64) -> u64 {
        self.out[stream] = Some(Outstanding {
            sent_at: now,
            retransmitted: false,
            retx: 0,
        });
        self.rto(self.shard_of(stream))
    }

    /// The RTO to arm next on `shard`: the adaptive estimate (which
    /// advances its jitter stream) or the fixed timeout.
    pub fn rto(&mut self, shard: usize) -> u64 {
        if self.adaptive {
            self.rtt[shard].next_rto().as_nanos() as u64
        } else {
            self.fixed_rto
        }
    }

    /// The shard's smoothed RTT (0 before the first sample).
    pub fn srtt(&self, shard: usize) -> u64 {
        self.rtt[shard].srtt().map_or(0, |d| d.as_nanos() as u64)
    }

    /// A result for `stream` carrying version `ver` arrived at `now`.
    /// `false`: it is stale (the stream finished, or the phase was
    /// already answered) — ignore it. `true`: the phase is answered — the
    /// outstanding packet retires (an RTT sample unless it was resent),
    /// the version flips, and each entry goes to [`WorkerPhases::reply`].
    pub fn on_result(&mut self, stream: usize, ver: u8, now: u64) -> bool {
        if self.round.stream_done(stream) || ver != self.ver[stream] {
            return false;
        }
        let shard = self.shard_of(stream);
        if self.adaptive {
            match self.out[stream] {
                Some(o) if !o.retransmitted => self.rtt[shard].sample(
                    std::time::Duration::from_nanos(now.saturating_sub(o.sent_at)),
                ),
                // Karn's rule: reset the backoff, take no sample.
                _ => self.rtt[shard].ack(),
            }
        }
        self.out[stream] = None;
        self.ver[stream] ^= 1;
        true
    }

    /// Answers one entry of an accepted result: the aggregator now
    /// requests `requested` in `col`. Data when the block is ours, an ack
    /// when another worker owns it, nothing once the column is done.
    pub fn reply(
        &mut self,
        bitmap: &NonZeroBitmap,
        stream: usize,
        col: usize,
        requested: BlockIdx,
    ) -> Option<Reply> {
        match self.round.on_result(bitmap, stream, col, requested) {
            Some(e) => Some(Reply::Data(e)),
            None => self.round.ack(stream, col, requested).map(Reply::Ack),
        }
    }

    /// True once every column of `stream` was told ∞: nothing more to
    /// send on it this round.
    pub fn stream_done(&self, stream: usize) -> bool {
        self.round.stream_done(stream)
    }

    /// True when every stream of the round is done.
    pub fn round_done(&self) -> bool {
        self.round.round_done()
    }

    /// A NACK for `stream` at version `ver`. `true`: it names the
    /// outstanding packet — resend it now. Hearing from the shard proves
    /// it alive, so the retry budget restarts; Karn's rule still holds.
    pub fn on_nack(&mut self, stream: usize, ver: u8) -> bool {
        if ver != self.ver[stream] {
            return false;
        }
        match self.out[stream].as_mut() {
            Some(o) => {
                o.retx = 0;
                o.retransmitted = true;
                true
            }
            None => false,
        }
    }

    /// The retransmission timer of `stream` expired at `now`.
    pub fn on_timer(&mut self, stream: usize, now: u64) -> Expiry {
        let shard = self.shard_of(stream);
        let Some(o) = self.out[stream] else {
            return Expiry::Idle;
        };
        let waited = now.saturating_sub(o.sent_at);
        if o.retx >= self.max_retransmits {
            if self.failover(shard) {
                return Expiry::Failover { shard };
            }
            return Expiry::GiveUp {
                retransmits: o.retx,
                waited,
            };
        }
        if self.adaptive {
            self.rtt[shard].on_timeout();
        }
        self.out[stream] = Some(Outstanding {
            retx: o.retx + 1,
            retransmitted: true,
            ..o
        });
        Expiry::Resend {
            waited,
            backoff: self.adaptive,
        }
    }

    /// Re-targets `shard` at its hot standby, once: every packet
    /// outstanding on it gets a fresh budget. `false` when there is no
    /// standby or the shard already failed over.
    pub fn failover(&mut self, shard: usize) -> bool {
        if !self.hot_standby || self.failed_over[shard] {
            return false;
        }
        self.failed_over[shard] = true;
        let shards = self.shards;
        for o in self.out.iter_mut().skip(shard).step_by(shards).flatten() {
            o.retx = 0;
            o.retransmitted = true;
        }
        true
    }

    /// True once `shard` failed over to its standby.
    pub fn failed_over(&self, shard: usize) -> bool {
        self.failed_over[shard]
    }

    /// Consecutive retransmissions of `stream`'s outstanding packet;
    /// `None` when nothing is outstanding (no timer armed).
    pub fn outstanding(&self, stream: usize) -> Option<u32> {
        self.out[stream].map(|o| o.retx)
    }

    /// The version `stream`'s next packet carries.
    pub fn ver(&self, stream: usize) -> u8 {
        self.ver[stream]
    }

    /// Installs a phase cursor handed out by a shard (a `Welcome`).
    pub fn set_ver(&mut self, stream: usize, ver: u8) {
        self.ver[stream] = ver & 1;
    }

    fn shard_of(&self, stream: usize) -> usize {
        stream % self.shards
    }
}

/// One column of one phase version: the block being aggregated (set by
/// the phase's first entry, data or ack) and the minimum announced next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ColPhase {
    block: Option<BlockIdx>,
    min_next: BlockIdx,
}

const FRESH_COL: ColPhase = ColPhase {
    block: None,
    min_next: INFINITY_BLOCK,
};

/// Algorithm 2's two-version slot of one stream (lines 26–29). Version
/// `v` is reused only once every worker sent for `v̂` — which it does only
/// after receiving `v`'s result — so a completed result stays retained
/// exactly as long as a worker may still need it resent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct VersionedSlot {
    cols: [Vec<ColPhase>; 2],
    /// `seen[v][w]`: worker `w` is folded into version `v`'s phase.
    seen: [Vec<bool>; 2],
    /// Distinct workers folded into version `v`'s open phase (0 = none
    /// open).
    count: [usize; 2],
    /// Version `v`'s last completed result is still retained.
    retained: [bool; 2],
    /// Version of the stream's next fresh phase (handed to joiners).
    next_ver: u8,
}

/// What a worker packet is, as [`PhaseTable::on_data`] classified it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contribution {
    /// From an evicted worker: its phases were renormalized without it.
    Zombie,
    /// Stamped with an epoch older than the sender's admission: a
    /// rejoined worker's pre-eviction straggler.
    StaleEpoch,
    /// Already folded into a completed phase: the sender missed the
    /// result — resend the retained one to it (lines 47–49).
    Resend,
    /// Already folded into a phase still open: it is stalled on the
    /// workers [`PhaseTable::missing`] names — NACK them.
    Stalled,
    /// A fresh contribution: [`PhaseTable::fold`] each entry, then try
    /// [`PhaseTable::complete`]. `opened` says it is the phase's first
    /// (the driver resets its accumulators and retires the old result).
    Fresh { opened: bool },
}

/// What [`PhaseTable::complete`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// Some member that is still needed has not contributed.
    Pending,
    /// Every member contributed; the row is the result.
    Complete,
    /// Complete without one or more evicted workers' contributions.
    Degraded,
}

/// The aggregator side of Algorithm 2 for one shard: a [`VersionedSlot`]
/// per owned stream, and the shard's view of membership — epoch, each
/// worker's admission epoch, evicted and departed workers, and the
/// liveness clock that starts on the idle→busy edge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PhaseTable {
    num_workers: usize,
    /// Stream id → slot index (`usize::MAX` = not ours).
    slot_of: Vec<usize>,
    slots: Vec<VersionedSlot>,
    epoch: u8,
    /// Epoch at which each worker (last) became a member.
    member_epoch: Vec<u8>,
    evicted: Vec<bool>,
    departed: Vec<bool>,
    /// Some phase is in flight (set by the first accepted packet after a
    /// fully idle period, which restarts every liveness clock).
    busy: bool,
    last_heard: Vec<u64>,
}

impl PhaseTable {
    /// Slots for the streams in `owned` (ascending), all versions idle,
    /// every worker a member at epoch 0 last heard at time 0.
    pub fn new(
        layout: StreamLayout,
        owned: impl IntoIterator<Item = usize>,
        num_workers: usize,
    ) -> Self {
        let mut slot_of = vec![usize::MAX; layout.total_streams()];
        let mut owned_count = 0;
        for (slot, g) in owned.into_iter().enumerate() {
            slot_of[g] = slot;
            owned_count += 1;
        }
        let cols = vec![FRESH_COL; layout.width()];
        let seen = vec![false; num_workers];
        let slot = VersionedSlot {
            cols: [cols.clone(), cols],
            seen: [seen.clone(), seen],
            count: [0; 2],
            retained: [false; 2],
            next_ver: 0,
        };
        PhaseTable {
            num_workers,
            slot_of,
            slots: vec![slot; owned_count],
            epoch: 0,
            member_epoch: vec![0; num_workers],
            evicted: vec![false; num_workers],
            departed: vec![false; num_workers],
            busy: false,
            last_heard: vec![0; num_workers],
        }
    }

    /// Classifies worker `wid`'s packet for version `ver` of `stream`,
    /// stamped `epoch`, arriving at `now`, and records a fresh one as a
    /// contribution (seen bit, count, the other version's bit cleared).
    pub fn on_data(
        &mut self,
        wid: usize,
        stream: usize,
        ver: u8,
        epoch: u8,
        now: u64,
    ) -> Contribution {
        if self.evicted[wid] {
            return Contribution::Zombie;
        }
        self.last_heard[wid] = now;
        if epoch_before(epoch, self.member_epoch[wid]) {
            return Contribution::StaleEpoch;
        }
        if !self.busy {
            // Silence while nobody owed anything must not count.
            self.busy = true;
            self.refresh(now);
        }
        let v = (ver & 1) as usize;
        let slot = &mut self.slots[self.slot_of[stream]];
        if slot.seen[v][wid] {
            let answer = if slot.count[v] == 0 {
                debug_assert!(slot.retained[v], "completed phase without a result");
                Contribution::Resend
            } else {
                Contribution::Stalled
            };
            // A trailing duplicate opened no work: do not stay busy.
            self.busy = !self.fully_idle();
            return answer;
        }
        slot.seen[v][wid] = true;
        slot.seen[v ^ 1][wid] = false;
        slot.count[v] += 1;
        let opened = slot.count[v] == 1;
        if opened {
            slot.cols[v].fill(FRESH_COL);
            slot.retained[v] = false;
        }
        Contribution::Fresh { opened }
    }

    /// Folds one entry of a fresh contribution. Acks record the requested
    /// block too: a phase whose every surviving contributor acked (the
    /// worker that requested the block was evicted mid-phase) must still
    /// advance the column instead of dropping it from the result.
    pub fn fold(&mut self, stream: usize, ver: u8, entry: Reply) {
        let (Reply::Data(e) | Reply::Ack(e)) = entry;
        let cp = &mut self.slots[self.slot_of[stream]].cols[(ver & 1) as usize][e.col];
        match cp.block {
            None => cp.block = Some(e.block),
            Some(b) => debug_assert_eq!(b, e.block, "phase mixes blocks"),
        }
        cp.min_next = cp.min_next.min(e.next);
    }

    /// Completes version `ver` of `stream` if every worker it still needs
    /// contributed (line 42, renormalized past evicted workers): fills
    /// `row` with `(col, block, min next)` per column of the result,
    /// retains it, and forgets evicted workers' seen bits so the
    /// version's next phase does not wait for them. Otherwise leaves the
    /// table untouched and `row` empty.
    pub fn complete(&mut self, stream: usize, ver: u8, row: &mut Vec<ColEntry>) -> Completion {
        row.clear();
        let v = (ver & 1) as usize;
        let i = self.slot_of[stream];
        let needed = self.needed(i, v);
        let slot = &mut self.slots[i];
        if slot.count[v] == 0 || slot.count[v] < needed {
            return Completion::Pending;
        }
        slot.count[v] = 0;
        slot.retained[v] = true;
        slot.next_ver = (v ^ 1) as u8;
        for (col, cp) in slot.cols[v].iter().enumerate() {
            if let Some(block) = cp.block {
                row.push(ColEntry {
                    col,
                    block,
                    next: cp.min_next,
                });
            }
        }
        for (seen, &evicted) in slot.seen[v].iter_mut().zip(&self.evicted) {
            *seen &= !evicted;
        }
        if self.fully_idle() {
            self.busy = false;
        }
        if needed < self.num_workers {
            Completion::Degraded
        } else {
            Completion::Complete
        }
    }

    /// Contributions version `v` of slot `i` needs: every worker but the
    /// evicted ones that have not contributed to it.
    fn needed(&self, i: usize, v: usize) -> usize {
        let seen = &self.slots[i].seen[v];
        let missing_evicted = (0..self.num_workers)
            .filter(|&w| self.evicted[w] && !seen[w])
            .count();
        self.num_workers - missing_evicted
    }

    /// True if some phase in flight lacks worker `w`'s contribution.
    pub fn waiting_on(&self, w: usize) -> bool {
        self.slots
            .iter()
            .any(|s| (0..2).any(|v| s.count[v] > 0 && !s.seen[v][w]))
    }

    /// True when no phase of any owned stream is in flight — the round
    /// boundary at which membership may change.
    pub fn fully_idle(&self) -> bool {
        self.slots.iter().all(|s| s.count == [0, 0])
    }

    /// Members the open phase of version `ver` of `stream` still lacks:
    /// the workers a stalled phase NACKs.
    pub fn missing(&self, stream: usize, ver: u8) -> impl Iterator<Item = usize> + '_ {
        let seen = &self.slots[self.slot_of[stream]].seen[(ver & 1) as usize];
        (0..self.num_workers).filter(move |&w| !seen[w] && self.is_member(w))
    }

    /// Workers folded into version `ver` of `stream` (after a completion:
    /// the contributors that survived it).
    pub fn contributors(&self, stream: usize, ver: u8) -> impl Iterator<Item = usize> + '_ {
        let seen = &self.slots[self.slot_of[stream]].seen[(ver & 1) as usize];
        (0..self.num_workers).filter(move |&w| seen[w])
    }

    /// The first member the shard waits on that has been silent for
    /// longer than `timeout` at `now`, with its silence.
    pub fn overdue(&self, now: u64, timeout: u64) -> Option<(usize, u64)> {
        (0..self.num_workers).find_map(|w| {
            let idle = now.saturating_sub(self.last_heard[w]);
            (self.is_member(w) && idle > timeout && self.waiting_on(w)).then_some((w, idle))
        })
    }

    /// Evicts worker `w` and bumps the epoch. Idle versions forget its
    /// seen bit; phases in flight may now be complete without it — the
    /// driver offers each to [`PhaseTable::complete`].
    pub fn evict(&mut self, w: usize) {
        self.evicted[w] = true;
        self.advance_epoch();
        for slot in &mut self.slots {
            for v in 0..2 {
                if slot.count[v] == 0 {
                    slot.seen[v][w] = false;
                }
            }
        }
    }

    /// Makes `w` a member again as of `epoch` (an admission, or its
    /// replica on a standby): not evicted, not departed, no seen bits.
    pub fn admit(&mut self, w: usize, epoch: u8, now: u64) {
        self.evicted[w] = false;
        self.departed[w] = false;
        self.member_epoch[w] = epoch;
        self.last_heard[w] = now;
        for slot in &mut self.slots {
            slot.seen[0][w] = false;
            slot.seen[1][w] = false;
        }
    }

    /// Worker `w` said goodbye (ignored unless it is a member).
    pub fn depart(&mut self, w: usize, now: u64) {
        if w < self.num_workers && self.is_member(w) {
            self.departed[w] = true;
            self.last_heard[w] = now;
        }
    }

    /// Installs a completed phase replicated from the primary: version
    /// `ver` of `stream` retained, folded from exactly `members`.
    pub fn install(&mut self, stream: usize, ver: u8, members: impl IntoIterator<Item = usize>) {
        let v = (ver & 1) as usize;
        let slot = &mut self.slots[self.slot_of[stream]];
        slot.count[v] = 0;
        slot.retained[v] = true;
        slot.next_ver = (v ^ 1) as u8;
        slot.seen[v].fill(false);
        for w in members {
            slot.seen[v][w] = true;
            slot.seen[v ^ 1][w] = false;
        }
    }

    /// Worker `w` was heard from at `now`.
    pub fn heard(&mut self, w: usize, now: u64) {
        self.last_heard[w] = now;
    }

    /// Restarts every worker's liveness clock at `now`.
    pub fn refresh(&mut self, now: u64) {
        self.last_heard.fill(now);
    }

    /// Some phase is in flight (the liveness clock is running).
    pub fn busy(&self) -> bool {
        self.busy
    }

    /// Every worker departed or was evicted: the shard may stop.
    pub fn finished(&self) -> bool {
        (0..self.num_workers).all(|w| !self.is_member(w))
    }

    /// Neither departed nor evicted: results go to it.
    pub fn is_member(&self, w: usize) -> bool {
        !self.departed[w] && !self.evicted[w]
    }

    /// Evicted (and not re-admitted).
    pub fn is_evicted(&self, w: usize) -> bool {
        self.evicted[w]
    }

    /// Marks `w` evicted or not without renormalizing (a replicated
    /// membership set).
    pub fn set_evicted(&mut self, w: usize, evicted: bool) {
        self.evicted[w] = evicted;
    }

    /// The shard's membership epoch.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Bumps the epoch for a membership change; returns the new one.
    pub fn advance_epoch(&mut self) -> u8 {
        self.epoch = self.epoch.wrapping_add(1);
        self.epoch
    }

    /// Adopts a replicated epoch if it is newer; `true` if it was.
    pub fn adopt_epoch(&mut self, epoch: u8) -> bool {
        let newer = epoch_before(self.epoch, epoch);
        if newer {
            self.epoch = epoch;
        }
        newer
    }

    /// Owned streams, ascending.
    pub fn owned(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slot_of.len()).filter(|&g| self.slot_of[g] != usize::MAX)
    }

    /// Version of `stream`'s next fresh phase.
    pub fn next_ver(&self, stream: usize) -> u8 {
        self.slots[self.slot_of[stream]].next_ver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnireduce_tensor::BlockSpec;

    const INF: BlockIdx = INFINITY_BLOCK;

    fn layout(width: usize, streams: usize, blocks: usize) -> StreamLayout {
        StreamLayout::new(BlockSpec::new(4), width, streams, blocks * 4)
    }

    fn bitmap(blocks: usize, set: &[u32]) -> NonZeroBitmap {
        let mut bm = NonZeroBitmap::empty(blocks);
        for b in set {
            bm.set(*b);
        }
        bm
    }

    #[test]
    fn completion_predicate_truth_table() {
        // Unannounced worker: −∞ is below every cur.
        assert!(!complete(0, NEG_INFINITY));
        assert!(!complete(7, NEG_INFINITY));
        // Every worker at ∞: any finite cur completes…
        assert!(complete(0, INF as i64));
        assert!(complete(INF - 1, INF as i64));
        // …but an exhausted column (cur = ∞) does not.
        assert!(!complete(INF, INF as i64));
        // Equal cur and min: the min-holder has not sent `cur` yet.
        assert!(!complete(5, 5));
        assert!(complete(5, 6));
        assert!(!complete(6, 5));
    }

    #[test]
    fn min_next_is_blocked_by_any_unannounced_worker() {
        let mut t = SlotTable::new(layout(1, 1, 8), [0], 3);
        let mut row = Vec::new();
        t.announce(0, 0, 0, 4);
        t.announce(0, 0, 2, INF);
        assert_eq!(t.complete_row(0, &mut row), Row::Pending);
        assert!(row.is_empty());
        t.announce(0, 0, 1, 2);
        assert_eq!(t.complete_row(0, &mut row), Row::Advanced);
        assert_eq!((row.len(), row[0].block, row[0].next), (1, 0, 2));
        assert_eq!(t.cur(0, 0), 2);
        // Worker 1 owns block 2; the others' announcements stand.
        assert_eq!(t.complete_row(0, &mut row), Row::Pending);
        t.announce(0, 0, 1, INF);
        assert_eq!(t.complete_row(0, &mut row), Row::Advanced);
        assert_eq!(row[0].next, 4);
    }

    #[test]
    fn row_waits_for_every_active_column_and_rearms_at_infinity() {
        // Width 2, one stream, 3 blocks: column 0 owns {0, 2}, column 1
        // owns {1}.
        let mut t = SlotTable::new(layout(2, 1, 3), [0], 1);
        let mut row = Vec::new();
        t.announce(0, 0, 0, 2);
        assert_eq!(t.complete_row(0, &mut row), Row::Pending, "column 1 silent");
        t.announce(0, 1, 0, INF);
        assert_eq!(t.complete_row(0, &mut row), Row::Advanced);
        assert_eq!(row.len(), 2);
        assert_eq!((t.cur(0, 0), t.cur(0, 1)), (2, INF));
        // Column 1 is exhausted: the next row has column 0 only.
        t.announce(0, 0, 0, INF);
        assert_eq!(t.complete_row(0, &mut row), Row::RoundDone);
        assert_eq!(
            (row.len(), row[0].col, row[0].block, row[0].next),
            (1, 0, 2, INF)
        );
        // Re-armed: first blocks again, every worker back at −∞.
        assert_eq!((t.cur(0, 0), t.cur(0, 1)), (0, 1));
        assert_eq!(t.complete_row(0, &mut row), Row::Pending);
    }

    #[test]
    fn round_done_counts_only_streams_that_hold_blocks() {
        // 2 streams, 1 block: stream 1 owns nothing and must not be
        // waited on.
        let mut t = SlotTable::new(layout(1, 2, 1), [0, 1], 1);
        assert_eq!(t.active_streams(), 1);
        let mut row = Vec::new();
        t.announce(0, 0, 0, INF);
        assert_eq!(t.complete_row(0, &mut row), Row::RoundDone);
        assert_eq!(t.complete_row(1, &mut row), Row::Pending);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_stream_is_rejected() {
        let mut t = SlotTable::new(layout(1, 2, 8), [1], 1);
        t.announce(0, 0, 0, INF);
    }

    #[test]
    #[should_panic(expected = "inactive column")]
    fn past_the_end_column_is_rejected() {
        let mut t = SlotTable::new(layout(2, 1, 1), [0], 1);
        t.announce(0, 1, 0, INF);
    }

    #[test]
    fn worker_sends_first_row_then_only_its_own_blocks() {
        // One stream of width 1 over 6 blocks; this worker holds {3}.
        let bm = bitmap(6, &[3]);
        let mut w = WorkerRound::new(layout(1, 1, 6), true);
        let mut first = Vec::new();
        w.open_stream(&bm, 0, |s| first.push((s.col, s.block, s.next)));
        assert_eq!(first, [(0, 0, 3)]);
        assert!(!w.round_done());
        // Another worker owns block 1: silence, cursor unchanged.
        assert_eq!(w.on_result(&bm, 0, 0, 1), None);
        let sent = w.on_result(&bm, 0, 0, 3).expect("our block");
        assert_eq!((sent.col, sent.block, sent.next), (0, 3, INF));
        assert_eq!(w.on_result(&bm, 0, 0, 5), None);
        assert!(!w.stream_done(0));
        assert_eq!(w.on_result(&bm, 0, 0, INF), None);
        assert!(w.stream_done(0) && w.round_done());
    }

    #[test]
    fn dense_streaming_announces_every_block() {
        let bm = bitmap(4, &[]);
        let mut w = WorkerRound::new(layout(1, 1, 4), false);
        let mut first = Vec::new();
        w.open_stream(&bm, 0, |s| first.push(s));
        assert_eq!(first[0].next, 1);
        assert_eq!(w.on_result(&bm, 0, 0, 1).map(|s| s.next), Some(2));
    }

    #[test]
    fn empty_streams_are_never_opened() {
        // 4 streams, 2 blocks: streams 2 and 3 own nothing.
        let bm = bitmap(2, &[]);
        let l = layout(1, 4, 2);
        let mut w = WorkerRound::new(l, true);
        for g in 0..l.total_streams() {
            let mut sent = 0;
            w.open_stream(&bm, g, |_| sent += 1);
            assert_eq!(sent, usize::from(g < 2));
        }
        assert!(w.stream_done(2) && w.stream_done(3));
        w.on_result(&bm, 0, 0, INF);
        w.on_result(&bm, 1, 0, INF);
        assert!(w.round_done());
    }

    #[test]
    #[should_panic(expected = "not open")]
    fn a_stream_completes_once() {
        let bm = bitmap(1, &[]);
        let mut w = WorkerRound::new(layout(1, 1, 1), true);
        w.open_stream(&bm, 0, |_| {});
        w.on_result(&bm, 0, 0, INF);
        w.on_result(&bm, 0, 0, INF);
    }
}
