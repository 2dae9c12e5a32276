//! Stream/column geometry: how the tensor's blocks map onto parallel
//! aggregation streams and fused packet columns.
//!
//! Combining §3.1.1 (a pool of `S` slots driven by `S` independent
//! streams) with §3.2 (each packet fuses `w` blocks, one per column of a
//! row-major block matrix) gives the full geometry:
//!
//! * the tensor's blocks form a matrix with `w` columns;
//! * row `r` belongs to stream `r mod T` (T = total streams), so stream
//!   `g` owns rows `g, g+T, g+2T, …`;
//! * within a stream, each column advances independently through its own
//!   rows, and a slot (one per stream) aggregates one block per column at
//!   a time.
//!
//! With `w = 1` and `T = 1` this degenerates to the basic Algorithm 1.

use omnireduce_tensor::{BlockIdx, BlockSpec, NonZeroBitmap, INFINITY_BLOCK};

/// Geometry of streams × columns over a tensor's blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamLayout {
    spec: BlockSpec,
    width: usize,
    total_streams: usize,
    nblocks: usize,
    tensor_len: usize,
}

impl StreamLayout {
    /// Builds the layout for a `tensor_len`-element tensor split into
    /// `spec` blocks, fused `width` per packet, over `total_streams`
    /// streams.
    pub fn new(spec: BlockSpec, width: usize, total_streams: usize, tensor_len: usize) -> Self {
        assert!(width > 0 && total_streams > 0);
        StreamLayout {
            spec,
            width,
            total_streams,
            nblocks: spec.block_count(tensor_len),
            tensor_len,
        }
    }

    /// Block partitioning.
    pub fn spec(&self) -> BlockSpec {
        self.spec
    }

    /// Fusion width `w`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total streams `T`.
    pub fn total_streams(&self) -> usize {
        self.total_streams
    }

    /// Number of blocks in the tensor.
    pub fn nblocks(&self) -> usize {
        self.nblocks
    }

    /// Tensor length in elements.
    pub fn tensor_len(&self) -> usize {
        self.tensor_len
    }

    /// Element range of block `b`.
    pub fn block_range(&self, b: BlockIdx) -> std::ops::Range<usize> {
        self.spec.range(b, self.tensor_len)
    }

    /// Column of block `b`.
    pub fn column_of(&self, b: BlockIdx) -> usize {
        b as usize % self.width
    }

    /// Stream owning block `b`.
    pub fn stream_of(&self, b: BlockIdx) -> usize {
        (b as usize / self.width) % self.total_streams
    }

    /// The first block of stream `g`, column `c` (row `g`), or `None`
    /// when it falls past the end of the tensor.
    pub fn first_block(&self, stream: usize, col: usize) -> Option<BlockIdx> {
        debug_assert!(stream < self.total_streams && col < self.width);
        let b = stream * self.width + col;
        (b < self.nblocks).then_some(b as BlockIdx)
    }

    /// The block after `b` in the same stream and column (one stream-row
    /// down), or `None` past the end.
    pub fn successor(&self, b: BlockIdx) -> Option<BlockIdx> {
        let nb = b as usize + self.width * self.total_streams;
        (nb < self.nblocks).then_some(nb as BlockIdx)
    }

    /// First *non-zero* block of stream `g`, column `c`, strictly after
    /// `after` (or from the stream's first row when `after` is `None`).
    /// Returns [`INFINITY_BLOCK`] when the column is exhausted.
    ///
    /// When `skip_zero` is false every block counts as non-zero (the
    /// dense streaming mode).
    pub fn next_block(
        &self,
        bitmap: &NonZeroBitmap,
        stream: usize,
        col: usize,
        after: Option<BlockIdx>,
        skip_zero: bool,
    ) -> BlockIdx {
        let mut cursor = match after {
            None => self.first_block(stream, col),
            Some(b) => {
                debug_assert_eq!(self.stream_of(b), stream);
                debug_assert_eq!(self.column_of(b), col);
                self.successor(b)
            }
        };
        while let Some(b) = cursor {
            if !skip_zero || bitmap.is_set(b) {
                return b;
            }
            cursor = self.successor(b);
        }
        INFINITY_BLOCK
    }

    /// All valid columns of stream `g` (columns whose first row block
    /// exists).
    pub fn valid_columns(&self, stream: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.width).filter(move |c| self.first_block(stream, *c).is_some())
    }

    /// Streams that own at least one block.
    pub fn active_streams(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.total_streams).filter(|g| self.first_block(*g, 0).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnireduce_tensor::Tensor;

    fn layout(bs: usize, w: usize, t: usize, len: usize) -> StreamLayout {
        StreamLayout::new(BlockSpec::new(bs), w, t, len)
    }

    #[test]
    fn ownership_partition_is_exact() {
        // Every block belongs to exactly one (stream, column) and is
        // reachable by walking successors from first_block.
        let l = layout(4, 3, 2, 100); // 25 blocks
        let mut seen = vec![false; l.nblocks()];
        for g in 0..l.total_streams() {
            for c in 0..l.width() {
                let mut cur = l.first_block(g, c);
                while let Some(b) = cur {
                    assert_eq!(l.stream_of(b), g);
                    assert_eq!(l.column_of(b), c);
                    assert!(!seen[b as usize], "block {b} visited twice");
                    seen[b as usize] = true;
                    cur = l.successor(b);
                }
            }
        }
        assert!(seen.iter().all(|s| *s), "some block unowned");
    }

    #[test]
    fn degenerate_geometry_matches_blockspec_scan() {
        // w=1, T=1: next_block must equal BlockSpec::next_nonzero_block.
        let spec = BlockSpec::new(2);
        let vals: Vec<f32> = (0..40)
            .map(|i| if i % 9 == 0 { 1.0 } else { 0.0 })
            .collect();
        let t = Tensor::from_vec(vals);
        let bm = NonZeroBitmap::build(&t, spec);
        let l = layout(2, 1, 1, 40);
        // From the start (after block 0):
        let from0 = l.next_block(&bm, 0, 0, Some(0), true);
        assert_eq!(from0, spec.next_nonzero_block(&t, 1));
        let mut cur = 0u32;
        loop {
            let next = l.next_block(&bm, 0, 0, Some(cur), true);
            assert_eq!(next, spec.next_nonzero_block(&t, cur + 1));
            if next == INFINITY_BLOCK {
                break;
            }
            cur = next;
        }
    }

    #[test]
    fn first_block_none_past_end() {
        let l = layout(4, 4, 4, 16); // 4 blocks: only stream 0 row exists
        assert_eq!(l.first_block(0, 0), Some(0));
        assert_eq!(l.first_block(0, 3), Some(3));
        assert_eq!(l.first_block(1, 0), None);
        assert_eq!(l.active_streams().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn partial_last_row_limits_columns() {
        let l = layout(4, 4, 1, 24); // 6 blocks; row1 has cols 0,1 only
        assert_eq!(l.first_block(0, 0), Some(0));
        assert_eq!(l.successor(4), None);
        assert_eq!(l.successor(0), Some(4));
        assert_eq!(l.successor(1), Some(5));
        assert_eq!(l.successor(2), None);
        assert_eq!(l.valid_columns(0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dense_mode_ignores_bitmap() {
        let l = layout(2, 2, 1, 12); // 6 blocks
        let bm = NonZeroBitmap::empty(6);
        assert_eq!(l.next_block(&bm, 0, 0, None, false), 0);
        assert_eq!(l.next_block(&bm, 0, 0, Some(0), false), 2);
        assert_eq!(l.next_block(&bm, 0, 0, Some(4), false), INFINITY_BLOCK);
        // sparse mode: everything zero → infinity immediately
        assert_eq!(l.next_block(&bm, 0, 0, None, true), INFINITY_BLOCK);
    }

    #[test]
    fn next_block_skips_zero_blocks_within_column() {
        let l = layout(2, 2, 2, 32); // 16 blocks, T=2, w=2
                                     // Stream 0, column 0 owns blocks: rows 0,2 → blocks 0, 8 (row r: r*2)
                                     // rows of stream 0: 0, 2 → blocks 0,1 (row0) and 4,5?? row 2 → blocks 4,5.
                                     // Careful: row r covers blocks r*w .. r*w+w. Stream 0 rows: 0, 2.
        let mut bm = NonZeroBitmap::empty(16);
        bm.set(4); // row 2, col 0 → stream 0
        assert_eq!(l.next_block(&bm, 0, 0, None, true), 4);
        assert_eq!(l.next_block(&bm, 0, 0, Some(4), true), INFINITY_BLOCK);
        // stream 1, col 0 owns rows 1,3 → blocks 2, 6; all zero.
        assert_eq!(l.next_block(&bm, 1, 0, None, true), INFINITY_BLOCK);
    }

    #[test]
    fn block_range_clamps_tail() {
        let l = layout(4, 1, 1, 10);
        assert_eq!(l.block_range(2), 8..10);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every block belongs to exactly one (stream, column) chain and
        /// is reachable by walking successors — for arbitrary geometry.
        #[test]
        fn prop_ownership_partition(
            bs in 1usize..16,
            w in 1usize..6,
            t in 1usize..5,
            len in 1usize..2000,
        ) {
            let l = StreamLayout::new(BlockSpec::new(bs), w, t, len);
            let mut seen = vec![false; l.nblocks()];
            for g in 0..l.total_streams() {
                for c in 0..l.width() {
                    let mut cur = l.first_block(g, c);
                    while let Some(b) = cur {
                        prop_assert_eq!(l.stream_of(b), g);
                        prop_assert_eq!(l.column_of(b), c);
                        prop_assert!(!seen[b as usize]);
                        seen[b as usize] = true;
                        cur = l.successor(b);
                    }
                }
            }
            prop_assert!(seen.iter().all(|s| *s));
        }

        /// `next_block` in sparse mode returns the minimum non-zero block
        /// of the chain strictly after `after`, for arbitrary bitmaps.
        #[test]
        fn prop_next_block_is_chain_minimum(
            bs in 1usize..8,
            w in 1usize..4,
            t in 1usize..4,
            len in 8usize..600,
            nonzero in prop::collection::vec(any::<bool>(), 1..80),
        ) {
            let l = StreamLayout::new(BlockSpec::new(bs), w, t, len);
            let mut bm = NonZeroBitmap::empty(l.nblocks());
            for (i, on) in nonzero.iter().enumerate() {
                if *on && i < l.nblocks() {
                    bm.set(i as u32);
                }
            }
            for g in 0..l.total_streams() {
                for c in 0..l.width() {
                    // Collect the chain.
                    let mut chain = Vec::new();
                    let mut cur = l.first_block(g, c);
                    while let Some(b) = cur {
                        chain.push(b);
                        cur = l.successor(b);
                    }
                    // From the start.
                    let want = chain.iter().copied().find(|b| bm.is_set(*b));
                    let got = l.next_block(&bm, g, c, None, true);
                    prop_assert_eq!(got, want.unwrap_or(INFINITY_BLOCK));
                    // After each chain member.
                    for (i, b) in chain.iter().enumerate() {
                        let want = chain[i + 1..]
                            .iter()
                            .copied()
                            .find(|x| bm.is_set(*x))
                            .unwrap_or(INFINITY_BLOCK);
                        prop_assert_eq!(
                            l.next_block(&bm, g, c, Some(*b), true),
                            want
                        );
                    }
                }
            }
        }
    }
}
