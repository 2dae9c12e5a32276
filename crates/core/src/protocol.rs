//! Algorithm 1 as two pure state machines — the only place it is written
//! down (DESIGN "Protocol core").
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
//! Neither owns a transport, a simulator context, a clock, a buffer pool
//! or a telemetry handle, and neither sees a payload. The four drivers —
//! [`crate::worker`], [`crate::aggregator`], [`crate::switch`] and the
//! actors in [`crate::sim`] — keep exactly that: what a block's payload is,
//! how a packet leaves, and what gets counted. Algorithm 1 has no timers,
//! so the machines answer through return values and caller-owned scratch;
//! there is no action vocabulary to interpret. Both are `Clone + Eq +
//! Hash`: a state-space search can fork and deduplicate them
//! (`tests/protocol_exhaustive.rs`).

use omnireduce_tensor::{BlockIdx, NonZeroBitmap, INFINITY_BLOCK};

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
