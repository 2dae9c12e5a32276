//! Block partitioning of a tensor (paper §3).
//!
//! OmniReduce splits the input tensor into fixed-size *blocks* of `bs`
//! contiguous elements and transmits only blocks containing at least one
//! non-zero value. [`BlockSpec`] captures the partitioning and provides the
//! "find the next non-zero block" primitive at the heart of Algorithm 1.

use crate::dense::Tensor;

/// Index of a block within a tensor. `u32` on the wire; block `i` covers
/// elements `[i*bs, (i+1)*bs)`.
pub type BlockIdx = u32;

/// The sentinel the aggregator and workers exchange to signal "no further
/// non-zero block" — the paper's `∞` (Algorithm 1, line 12).
pub const INFINITY_BLOCK: BlockIdx = u32::MAX;

/// Fixed-size partitioning of a tensor into blocks.
///
/// The paper's default block size is 256 elements (§6, chosen empirically
/// in §6.4.1); we keep it as the crate-wide default too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSpec {
    block_size: usize,
}

/// The paper's default block size (elements per block).
pub const DEFAULT_BLOCK_SIZE: usize = 256;

impl Default for BlockSpec {
    fn default() -> Self {
        BlockSpec::new(DEFAULT_BLOCK_SIZE)
    }
}

impl BlockSpec {
    /// Creates a partitioning with `block_size` elements per block.
    ///
    /// # Panics
    /// Panics when `block_size == 0`.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        BlockSpec { block_size }
    }

    /// Elements per block (`bs` in the paper).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks needed to cover a tensor of `len` elements.
    /// The final block may be partial.
    pub fn block_count(&self, len: usize) -> usize {
        len.div_ceil(self.block_size)
    }

    /// Element range covered by block `idx` in a tensor of `len` elements
    /// (clamped for the final partial block).
    pub fn range(&self, idx: BlockIdx, len: usize) -> std::ops::Range<usize> {
        let start = idx as usize * self.block_size;
        let end = (start + self.block_size).min(len);
        assert!(start < len, "block {idx} out of range for len {len}");
        start..end
    }

    /// True when block `idx` of `t` contains only zeros.
    pub fn is_zero_block(&self, t: &Tensor, idx: BlockIdx) -> bool {
        t.as_slice()[self.range(idx, t.len())]
            .iter()
            .all(|v| *v == 0.0)
    }

    /// Index of the first block at or after `from` that contains a non-zero
    /// value, or [`INFINITY_BLOCK`] when none remains.
    ///
    /// This is the worker-side lookahead of Algorithm 1 (line 2/12):
    /// "next non-zero block index or else ∞".
    pub fn next_nonzero_block(&self, t: &Tensor, from: BlockIdx) -> BlockIdx {
        let nblocks = self.block_count(t.len()) as BlockIdx;
        let mut idx = from;
        while idx < nblocks {
            if !self.is_zero_block(t, idx) {
                return idx;
            }
            idx += 1;
        }
        INFINITY_BLOCK
    }

    /// Iterator over the indices of all non-zero blocks of `t`.
    pub fn nonzero_blocks<'a>(&self, t: &'a Tensor) -> NonZeroBlocks<'a> {
        NonZeroBlocks {
            spec: *self,
            tensor: t,
            next: 0,
        }
    }

    /// Fraction of blocks that are entirely zero — the paper's *block
    /// sparsity* (§3.1.2, Fig. 16).
    pub fn block_sparsity(&self, t: &Tensor) -> f64 {
        let nblocks = self.block_count(t.len());
        if nblocks == 0 {
            return 0.0;
        }
        let nonzero = self.nonzero_blocks(t).count();
        (nblocks - nonzero) as f64 / nblocks as f64
    }
}

// ---------------------------------------------------------------------------
// Block reduction kernels (ISSUE 3: one kernel shared by every engine).
// ---------------------------------------------------------------------------

/// Scalar reference reduction: `acc[i] += src[i]`.
///
/// This is the pre-optimisation kernel, kept as the *oracle* for the
/// differential conformance suite and the `ablation_hotpath` baseline.
/// [`reduce_into`] must stay bit-identical to it.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn reduce_scalar_into(acc: &mut [f32], src: &[f32]) {
    assert_eq!(acc.len(), src.len(), "block length mismatch in reduce");
    for (a, s) in acc.iter_mut().zip(src.iter()) {
        *a += *s;
    }
}

/// Vectorized block reduction: `acc[i] += src[i]`, unrolled 8-wide with a
/// scalar tail.
///
/// Every output element is produced by exactly one independent `f32` add,
/// in the same element order as [`reduce_scalar_into`] — the unrolling
/// only changes instruction scheduling, not the arithmetic — so the
/// result is **bit-identical** to the scalar kernel. That property is
/// what lets the differential suite use a scalar reference as a
/// bit-exact oracle. The 8-wide `chunks_exact` bodies are free of
/// bounds checks and autovectorize to SIMD adds.
///
/// Used by the aggregator, recovery, sim and switch engines (and
/// [`crate::dense::Tensor::add_assign`]) so all hot paths share one
/// kernel.
///
/// # Panics
/// Panics when the slices differ in length.
#[inline]
pub fn reduce_into(acc: &mut [f32], src: &[f32]) {
    assert_eq!(acc.len(), src.len(), "block length mismatch in reduce");
    let mut a_it = acc.chunks_exact_mut(8);
    let mut s_it = src.chunks_exact(8);
    for (a, s) in (&mut a_it).zip(&mut s_it) {
        a[0] += s[0];
        a[1] += s[1];
        a[2] += s[2];
        a[3] += s[3];
        a[4] += s[4];
        a[5] += s[5];
        a[6] += s[6];
        a[7] += s[7];
    }
    for (a, s) in a_it.into_remainder().iter_mut().zip(s_it.remainder()) {
        *a += *s;
    }
}

/// Copies `src` into `dst`, reusing `dst`'s existing capacity.
///
/// The allocation-free replacement for `src.to_vec()` on the hot path:
/// after warm-up the destination buffer has capacity for any block size
/// in flight and `clear` + `extend_from_slice` performs no allocation.
#[inline]
pub fn copy_into(dst: &mut Vec<f32>, src: &[f32]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// Iterator over non-zero block indices; see [`BlockSpec::nonzero_blocks`].
pub struct NonZeroBlocks<'a> {
    spec: BlockSpec,
    tensor: &'a Tensor,
    next: BlockIdx,
}

impl Iterator for NonZeroBlocks<'_> {
    type Item = BlockIdx;

    fn next(&mut self) -> Option<BlockIdx> {
        let idx = self.spec.next_nonzero_block(self.tensor, self.next);
        if idx == INFINITY_BLOCK {
            None
        } else {
            self.next = idx + 1;
            Some(idx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec())
    }

    #[test]
    fn block_count_rounds_up() {
        let s = BlockSpec::new(4);
        assert_eq!(s.block_count(0), 0);
        assert_eq!(s.block_count(1), 1);
        assert_eq!(s.block_count(4), 1);
        assert_eq!(s.block_count(5), 2);
        assert_eq!(s.block_count(8), 2);
    }

    #[test]
    fn range_clamps_final_partial_block() {
        let s = BlockSpec::new(4);
        assert_eq!(s.range(0, 6), 0..4);
        assert_eq!(s.range(1, 6), 4..6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn range_out_of_bounds_panics() {
        let s = BlockSpec::new(4);
        let _ = s.range(2, 6);
    }

    #[test]
    fn zero_block_detection() {
        let s = BlockSpec::new(2);
        let x = t(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]);
        assert!(s.is_zero_block(&x, 0));
        assert!(!s.is_zero_block(&x, 1));
        assert!(s.is_zero_block(&x, 2));
    }

    #[test]
    fn next_nonzero_scans_forward() {
        let s = BlockSpec::new(2);
        let x = t(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 5.0, 5.0]);
        assert_eq!(s.next_nonzero_block(&x, 0), 1);
        assert_eq!(s.next_nonzero_block(&x, 1), 1);
        assert_eq!(s.next_nonzero_block(&x, 2), 3);
        assert_eq!(s.next_nonzero_block(&x, 4), INFINITY_BLOCK);
    }

    #[test]
    fn next_nonzero_all_zero_tensor() {
        let s = BlockSpec::new(3);
        let x = Tensor::zeros(9);
        assert_eq!(s.next_nonzero_block(&x, 0), INFINITY_BLOCK);
    }

    #[test]
    fn nonzero_blocks_iterator_lists_all() {
        let s = BlockSpec::new(2);
        let x = t(&[1.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0]);
        let idxs: Vec<_> = s.nonzero_blocks(&x).collect();
        assert_eq!(idxs, vec![0, 2]);
    }

    #[test]
    fn block_sparsity_fraction() {
        let s = BlockSpec::new(2);
        let x = t(&[1.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0]);
        assert!((s.block_sparsity(&x) - 0.5).abs() < 1e-12);
        assert_eq!(s.block_sparsity(&Tensor::zeros(0)), 0.0);
    }

    #[test]
    fn partial_final_block_is_scanned() {
        let s = BlockSpec::new(4);
        let x = t(&[0.0, 0.0, 0.0, 0.0, 0.0, 7.0]);
        assert_eq!(s.next_nonzero_block(&x, 0), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_size_panics() {
        let _ = BlockSpec::new(0);
    }

    /// A deterministic pseudo-random f32 stream (no external deps needed).
    fn lcg_floats(seed: u64, n: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Map to a wide range incl. negatives & subnormal-ish values.
                let bits = ((s >> 33) as u32) & 0x3FFF_FFFF;
                f32::from_bits(bits | 0x3000_0000) * if s & 1 == 0 { 1.0 } else { -1.0 }
            })
            .collect()
    }

    #[test]
    fn reduce_into_bit_identical_to_scalar() {
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 256, 257, 1000] {
            let src = lcg_floats(len as u64 + 1, len);
            let base = lcg_floats(len as u64 + 7777, len);
            let mut a = base.clone();
            let mut b = base.clone();
            reduce_scalar_into(&mut a, &src);
            reduce_into(&mut b, &src);
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "len={len}");
            }
        }
    }

    #[test]
    fn reduce_into_handles_nan_and_inf_like_scalar() {
        let src = vec![f32::NAN, f32::INFINITY, -f32::INFINITY, 1.0e38, 1.0];
        let mut a = vec![1.0, 1.0, 1.0, 3.0e38, -1.0];
        let mut b = a.clone();
        reduce_scalar_into(&mut a, &src);
        reduce_into(&mut b, &src);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_into_length_mismatch_panics() {
        let mut a = vec![0.0; 4];
        reduce_into(&mut a, &[1.0; 5]);
    }

    #[test]
    fn copy_into_reuses_capacity() {
        let mut dst = Vec::with_capacity(16);
        copy_into(&mut dst, &[1.0, 2.0, 3.0]);
        assert_eq!(dst, vec![1.0, 2.0, 3.0]);
        let ptr = dst.as_ptr();
        copy_into(&mut dst, &[4.0; 8]);
        assert_eq!(dst, vec![4.0; 8]);
        assert_eq!(ptr, dst.as_ptr(), "capacity must be reused");
    }
}
