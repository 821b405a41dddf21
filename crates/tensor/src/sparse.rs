//! Packed block-wise N:M sparse weights and their decode kernels.
//!
//! NORA's outlier statistics identify layers whose weights tolerate
//! structured pruning; this module provides the storage format and the
//! compute kernels for that pruned representation. Sparsity is *block-wise
//! N:M on the reduction dimension*: input rows are grouped in runs of `M`,
//! and within every (row group × 32-column block) only the `N` rows with
//! the highest importance-weighted magnitude keep their 32-wide value row —
//! the rest are exact zeros. Sharing one kept-row set across a whole
//! 32-column block (rather than per column) is what lets the sparse kernel
//! reuse the dense kernel's register-tile structure: the `k` loop simply
//! walks fewer rows, so a 2:4 pattern does half the multiply–accumulates
//! with no per-lane gather.
//!
//! # Contracts
//!
//! * **Dense equivalence**: [`PackedNmMatrix::to_dense`] reconstructs the
//!   masked dense matrix exactly, and every kernel here is *bit-identical*
//!   to running the dense GEMM/GEMV kernel on that masked matrix. Skipped
//!   entries are exact `+0.0` weights; since every accumulator starts at
//!   `+0.0` and `acc + ±0.0 == acc` for every reachable `acc`, dropping
//!   those terms cannot change any bit of the result.
//! * **Thread invariance**: [`PackedNmMatrix::matmul`] partitions output
//!   rows exactly like `Matrix::try_matmul`, so results are bit-identical
//!   at any thread count.

use crate::Matrix;

/// One kept value row into the two-accumulator register tile — the same
/// block structure as the dense kernel's inner loop, kept as a free
/// function so the sparse `k`-walk vectorizes identically.
#[inline(always)]
fn accumulate(row: &[f32], a: f32, lo: &mut [f32; NM_JT], hi: &mut [f32; NM_JT]) {
    let blk0: &[f32; NM_JT] = row[..NM_JT].try_into().expect("half-width is NM_JT");
    let blk1: &[f32; NM_JT] = row[NM_JT..].try_into().expect("half-width is NM_JT");
    for (o, &v) in lo.iter_mut().zip(blk0) {
        *o += a * v;
    }
    for (o, &v) in hi.iter_mut().zip(blk1) {
        *o += a * v;
    }
}

/// Register-tile half-width of the sparse kernel (matches the dense
/// GEMM/GEMV kernel's `GEMM_JT`).
const NM_JT: usize = 16;

/// Column-block width of the packed layout: two [`NM_JT`] accumulator
/// blocks, matching the dense kernel's wide tile (`GEMM_JW`).
const NM_JW: usize = 2 * NM_JT;

/// A structured-sparsity pattern: keep `N` of every `M` input rows per
/// 32-column block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NmPattern {
    /// No pruning (1 of 1 — every row kept).
    Dense,
    /// 4 of 8 kept (50% density, the mildest pruned rung: same density as
    /// 2:4 but twice the selection freedom per group).
    N4M8,
    /// 2 of 4 kept (50% density, the classic hardware-friendly pattern).
    N2M4,
    /// 1 of 4 kept (25% density, the aggressive rung).
    N1M4,
}

impl NmPattern {
    /// Every pattern, mildest first (the selector's upgrade ladder).
    pub const ALL: [NmPattern; 4] =
        [NmPattern::Dense, NmPattern::N4M8, NmPattern::N2M4, NmPattern::N1M4];

    /// Rows kept per group.
    pub fn n(self) -> usize {
        match self {
            NmPattern::Dense => 1,
            NmPattern::N4M8 => 4,
            NmPattern::N2M4 => 2,
            NmPattern::N1M4 => 1,
        }
    }

    /// Group size along the reduction dimension.
    pub fn m(self) -> usize {
        match self {
            NmPattern::Dense => 1,
            NmPattern::N4M8 => 8,
            NmPattern::N2M4 => 4,
            NmPattern::N1M4 => 4,
        }
    }

    /// Fraction of weights kept (`n/m`).
    pub fn density(self) -> f64 {
        self.n() as f64 / self.m() as f64
    }

    /// Canonical label (`dense`, `4:8`, `2:4`, `1:4`) — used in CSVs and
    /// the `NORA_SPARSITY_PATTERNS` knob.
    pub fn label(self) -> &'static str {
        match self {
            NmPattern::Dense => "dense",
            NmPattern::N4M8 => "4:8",
            NmPattern::N2M4 => "2:4",
            NmPattern::N1M4 => "1:4",
        }
    }

    /// Parses a [`NmPattern::label`] string.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s.trim())
    }
}

/// A weight matrix stored in packed block-wise N:M form.
///
/// Layout, per 32-column block (the last block may cover fewer real
/// columns; its value rows are zero-padded to 32 so indexing stays
/// uniform):
///
/// ```text
/// idx:  [group 0: N row-index nibbles (2 per byte, ascending)]
///       [group 1: …] …                       (full groups only)
/// vals: [group 0: N × 32 kept value rows]
///       [group 1: …] …
///       [tail: (rows % M) × 32 dense rows]   (partial final group)
/// ```
///
/// The partial final row group (when `rows % M != 0`) is stored dense —
/// those rows are never pruned, and they sit *after* every full group so
/// the kernel's accumulation order stays `k`-ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedNmMatrix {
    rows: usize,
    cols: usize,
    pattern: NmPattern,
    /// Kept-row index nibbles: `blocks × groups × ceil(n/2)` bytes.
    idx: Vec<u8>,
    /// Kept value rows, zero-padded to [`NM_JW`]:
    /// `blocks × (groups·n + rows % m) × 32` floats.
    vals: Vec<f32>,
}

impl PackedNmMatrix {
    /// Packs `dense` under `pattern`, keeping per (group × block) the `n`
    /// rows with the highest score `Σ_block |w| · importance`.
    ///
    /// `row_importance` (length `rows`, typically the calibrated
    /// per-channel activation scale) biases selection toward rows that
    /// carry outlier activations; `None` scores by weight magnitude alone.
    /// Ties break toward the lower row index, so packing is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `row_importance` is present with the wrong length.
    pub fn pack(dense: &Matrix, pattern: NmPattern, row_importance: Option<&[f32]>) -> Self {
        let (rows, cols) = dense.shape();
        if let Some(imp) = row_importance {
            assert_eq!(imp.len(), rows, "row_importance length mismatch");
        }
        let (n, m) = (pattern.n(), pattern.m());
        let groups = rows / m;
        let tail = rows - groups * m;
        let kept_rows = groups * n + tail;
        let blocks = cols.div_ceil(NM_JW);
        let bytes_per_group = n.div_ceil(2);
        let mut idx = Vec::with_capacity(blocks * groups * bytes_per_group);
        let mut vals = Vec::with_capacity(blocks * kept_rows * NM_JW);
        let push_row = |vals: &mut Vec<f32>, k: usize, j0: usize, j1: usize| {
            let row = &dense.row(k)[j0..j1];
            vals.extend_from_slice(row);
            vals.resize(vals.len() + (NM_JW - row.len()), 0.0);
        };
        for b in 0..blocks {
            let j0 = b * NM_JW;
            let j1 = (j0 + NM_JW).min(cols);
            for g in 0..groups {
                let score = |r: usize| {
                    let k = g * m + r;
                    let mag: f32 = dense.row(k)[j0..j1].iter().map(|v| v.abs()).sum();
                    match row_importance {
                        Some(imp) => mag * imp[k].abs(),
                        None => mag,
                    }
                };
                let mut order: Vec<usize> = (0..m).collect();
                order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
                let mut keep = order[..n].to_vec();
                keep.sort_unstable();
                for pair in keep.chunks(2) {
                    let lo = pair[0] as u8;
                    let hi = pair.get(1).copied().unwrap_or(0) as u8;
                    idx.push(lo | (hi << 4));
                }
                for &r in &keep {
                    push_row(&mut vals, g * m + r, j0, j1);
                }
            }
            for t in 0..tail {
                push_row(&mut vals, groups * m + t, j0, j1);
            }
        }
        Self {
            rows,
            cols,
            pattern,
            idx,
            vals,
        }
    }

    /// Number of input rows of the (dense-shape) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of output columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The pattern this matrix was packed under.
    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    /// Fraction of rows kept per column block (`(groups·n + tail) / rows`);
    /// 1.0 for empty or dense-pattern matrices.
    pub fn density(&self) -> f64 {
        if self.rows == 0 {
            return 1.0;
        }
        let m = self.pattern.m();
        let groups = self.rows / m;
        let kept = groups * self.pattern.n() + (self.rows - groups * m);
        kept as f64 / self.rows as f64
    }

    /// Reconstructs the masked dense matrix exactly (kept values verbatim,
    /// pruned positions `+0.0`).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let (n, m) = (self.pattern.n(), self.pattern.m());
        let groups = self.rows / m;
        let tail = self.rows - groups * m;
        let bytes_per_group = n.div_ceil(2);
        let blocks = self.cols.div_ceil(NM_JW);
        let kept_rows = groups * n + tail;
        for b in 0..blocks {
            let j0 = b * NM_JW;
            let j1 = (j0 + NM_JW).min(self.cols);
            let w = j1 - j0;
            let mut vr = b * kept_rows * NM_JW;
            for g in 0..groups {
                for t in 0..n {
                    let byte = self.idx[b * groups * bytes_per_group + g * bytes_per_group + t / 2];
                    let r = usize::from(if t % 2 == 0 { byte & 0x0f } else { byte >> 4 });
                    out.row_mut(g * m + r)[j0..j1].copy_from_slice(&self.vals[vr..vr + w]);
                    vr += NM_JW;
                }
            }
            for t in 0..tail {
                out.row_mut(groups * m + t)[j0..j1].copy_from_slice(&self.vals[vr..vr + w]);
                vr += NM_JW;
            }
        }
        out
    }

    /// Sparse row kernel: `out_row += … x · W` for one activation row,
    /// walking only kept value rows. Accumulation per output element is a
    /// single `k`-ascending chain over kept entries — bit-identical to the
    /// dense kernel on [`PackedNmMatrix::to_dense`].
    fn row_kernel(&self, x: &[f32], out_row: &mut [f32]) {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(out_row.len(), self.cols);
        let (n, m) = (self.pattern.n(), self.pattern.m());
        let groups = self.rows / m;
        let bytes_per_group = n.div_ceil(2);
        let blocks = self.cols.div_ceil(NM_JW);
        let kept_rows = groups * n + (self.rows - groups * m);
        let tail_x = &x[groups * m..];
        for b in 0..blocks {
            let j0 = b * NM_JW;
            let w = (self.cols - j0).min(NM_JW);
            let idx_block =
                &self.idx[b * groups * bytes_per_group..(b + 1) * groups * bytes_per_group];
            let vals_block = &self.vals[b * kept_rows * NM_JW..(b + 1) * kept_rows * NM_JW];
            let mut kept = vals_block.chunks_exact(NM_JW);
            let mut lo = [0.0f32; NM_JT];
            let mut hi = [0.0f32; NM_JT];
            for (gx, gi) in x.chunks_exact(m).zip(idx_block.chunks_exact(bytes_per_group)) {
                let mut t = 0;
                for &byte in gi {
                    let row = kept.next().expect("packed layout: n rows per group");
                    accumulate(row, gx[usize::from(byte & 0x0f)], &mut lo, &mut hi);
                    t += 1;
                    if t < n {
                        let row = kept.next().expect("packed layout: n rows per group");
                        accumulate(row, gx[usize::from(byte >> 4)], &mut lo, &mut hi);
                        t += 1;
                    }
                }
            }
            for &a in tail_x {
                let row = kept.next().expect("packed layout: dense tail rows");
                accumulate(row, a, &mut lo, &mut hi);
            }
            if w > NM_JT {
                out_row[j0..j0 + NM_JT].copy_from_slice(&lo);
                out_row[j0 + NM_JT..j0 + w].copy_from_slice(&hi[..w - NM_JT]);
            } else {
                out_row[j0..j0 + w].copy_from_slice(&lo[..w]);
            }
        }
    }

    /// Vector–matrix product `x · W` (the decode orientation) through the
    /// sparse kernel, writing into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vecmat_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            x.len(),
            self.rows,
            "vecmat: vector length {} vs rows {}",
            x.len(),
            self.rows
        );
        out.clear();
        out.resize(self.cols, 0.0);
        self.row_kernel(x, out);
    }

    /// Allocating form of [`PackedNmMatrix::vecmat_into`].
    pub fn vecmat(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.vecmat_into(x, &mut out);
        out
    }

    /// Matrix product `x · W` for a batch of activation rows
    /// (`x` is `batch × rows`, result `batch × cols`).
    ///
    /// Output rows are independent; above the [`nora_parallel`] work
    /// threshold they are computed in parallel row chunks with the same
    /// partitioning as `Matrix::try_matmul`, so results are bit-identical
    /// at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != rows`.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.rows,
            "sparse matmul: x cols {} vs rows {}",
            x.cols(),
            self.rows
        );
        let (batch, n) = (x.rows(), self.cols);
        let mut out = Matrix::zeros(batch, n);
        // Work per output row ≈ kept MACs: stored values × output width.
        let threads = nora_parallel::threads_for_work(batch, self.vals.len() as u64);
        if threads > 1 && batch > 1 {
            let rows_per_chunk = batch.div_ceil(threads * 4).max(1);
            nora_parallel::for_each_chunk_mut(
                out.as_mut_slice(),
                rows_per_chunk * n,
                |ci, chunk| {
                    for (dr, out_row) in chunk.chunks_mut(n).enumerate() {
                        let i = ci * rows_per_chunk + dr;
                        self.row_kernel(x.row(i), out_row);
                    }
                },
            );
        } else {
            for i in 0..batch {
                self.row_kernel(x.row(i), out.row_mut(i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::random_normal(rows, cols, 0.0, 1.0, &mut rng)
    }

    /// Packed kernels must be bit-identical to the dense kernel applied to
    /// the masked dense reconstruction — across block-boundary shapes:
    /// cols not a multiple of 32 (65, 33, 7), rows not a multiple of m
    /// (70, 13, 5), and a shape smaller than one group.
    #[test]
    fn packed_kernels_match_masked_dense_bitwise() {
        for &(rows, cols) in &[(64usize, 129usize), (70, 33), (13, 64), (8, 31), (5, 7), (3, 2)] {
            for pattern in NmPattern::ALL {
                let w = random(rows, cols, 1000 + rows as u64 + cols as u64);
                let packed = PackedNmMatrix::pack(&w, pattern, None);
                let masked = packed.to_dense();
                let mut rng = Rng::seed_from(7);
                let x: Vec<f32> = (0..rows).map(|_| rng.normal(0.0, 1.0)).collect();
                let sparse = packed.vecmat(&x);
                let dense = masked.vecmat(&x);
                assert_eq!(sparse.len(), dense.len());
                for (s, d) in sparse.iter().zip(&dense) {
                    assert_eq!(s, d, "{rows}x{cols} {}", pattern.label());
                }
                let xm = Matrix::random_normal(3, rows, 0.0, 1.0, &mut rng);
                assert_eq!(
                    packed.matmul(&xm).as_slice(),
                    xm.matmul(&masked).as_slice(),
                    "{rows}x{cols} {}",
                    pattern.label()
                );
            }
        }
    }

    #[test]
    fn dense_pattern_reconstructs_exactly() {
        let w = random(12, 37, 3);
        let packed = PackedNmMatrix::pack(&w, NmPattern::Dense, None);
        assert_eq!(packed.to_dense(), w);
        assert_eq!(packed.density(), 1.0);
        let x: Vec<f32> = (0..12).map(|i| i as f32 - 6.0).collect();
        assert_eq!(packed.vecmat(&x), w.vecmat(&x));
    }

    #[test]
    fn density_matches_pattern() {
        let w = random(64, 32, 4);
        for (pattern, density) in [
            (NmPattern::N2M4, 0.5),
            (NmPattern::N4M8, 0.5),
            (NmPattern::N1M4, 0.25),
        ] {
            let packed = PackedNmMatrix::pack(&w, pattern, None);
            assert_eq!(packed.density(), density);
            assert_eq!(packed.pattern(), pattern);
            // Mask really zeroes 1-density of the weights.
            let zeros = packed
                .to_dense()
                .as_slice()
                .iter()
                .filter(|&&v| v == 0.0)
                .count();
            assert_eq!(zeros, ((1.0 - density) * (64.0 * 32.0)) as usize);
        }
    }

    #[test]
    fn partial_tail_group_stays_dense() {
        // 10 rows under 2:4: two full groups pruned, rows 8..10 kept dense.
        let w = random(10, 40, 5);
        let packed = PackedNmMatrix::pack(&w, NmPattern::N2M4, None);
        let masked = packed.to_dense();
        assert_eq!(masked.row(8), w.row(8));
        assert_eq!(masked.row(9), w.row(9));
        let kept = 2 * 2 + 2;
        assert_eq!(packed.density(), kept as f64 / 10.0);
    }

    #[test]
    fn empty_groups_keep_zero_rows_and_stay_equivalent() {
        // An all-zero group still packs n (zero) rows; kernels agree.
        let mut w = random(16, 40, 6);
        for k in 4..8 {
            w.row_mut(k).fill(0.0);
        }
        let packed = PackedNmMatrix::pack(&w, NmPattern::N2M4, None);
        let masked = packed.to_dense();
        let mut rng = Rng::seed_from(8);
        let x: Vec<f32> = (0..16).map(|_| rng.normal(0.0, 1.0)).collect();
        assert_eq!(packed.vecmat(&x), masked.vecmat(&x));
        // The zero group contributes nothing either way.
        assert!(masked.row(5).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn selection_keeps_largest_magnitude_rows() {
        // Column block is 32-wide; make row 2 of the first group dominate.
        let mut w = Matrix::zeros(4, 32);
        w.row_mut(0).fill(0.1);
        w.row_mut(1).fill(0.2);
        w.row_mut(2).fill(5.0);
        w.row_mut(3).fill(0.3);
        let packed = PackedNmMatrix::pack(&w, NmPattern::N1M4, None);
        let masked = packed.to_dense();
        assert_eq!(masked.row(2), w.row(2));
        assert!(masked.row(0).iter().all(|&v| v == 0.0));
        assert!(masked.row(1).iter().all(|&v| v == 0.0));
        assert!(masked.row(3).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn importance_biases_selection_toward_outlier_rows() {
        // Equal weight magnitudes; importance (activation scale) decides.
        let w = Matrix::full(4, 32, 1.0);
        let imp = [1.0f32, 1.0, 8.0, 1.0];
        let packed = PackedNmMatrix::pack(&w, NmPattern::N1M4, Some(&imp));
        let masked = packed.to_dense();
        assert_eq!(masked.row(2), w.row(2));
        assert!(masked.row(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sparse_matmul_bit_identical_across_thread_counts() {
        let w = random(128, 129, 9);
        let packed = PackedNmMatrix::pack(&w, NmPattern::N2M4, None);
        let x = random(64, 128, 10);
        let serial = nora_parallel::with_threads(1, || packed.matmul(&x));
        for threads in [2, 4, 8] {
            let par = nora_parallel::with_threads(threads, || packed.matmul(&x));
            assert_eq!(serial.as_slice(), par.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn pattern_labels_round_trip() {
        for p in NmPattern::ALL {
            assert_eq!(NmPattern::parse(p.label()), Some(p));
        }
        assert_eq!(NmPattern::parse("3:7"), None);
        assert_eq!(NmPattern::parse(" 2:4 "), Some(NmPattern::N2M4));
        assert_eq!(NmPattern::N2M4.density(), 0.5);
        assert_eq!(NmPattern::N4M8.m(), 8);
    }
}
