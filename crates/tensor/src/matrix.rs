//! Row-major dense `f32` matrices.

use crate::rng::Rng;
use crate::simd::{self, Kernel};
use crate::{Result, ShapeError};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f32` matrix.
///
/// This is the lingua franca of the workspace: activations are `(batch ×
/// features)` matrices, weights are `(in_features × out_features)` matrices
/// (so a linear layer computes `X · W`), and analog tiles hold `(rows × cols)`
/// conductance blocks.
///
/// Operations that combine two matrices come in two flavours: a panicking
/// method (`matmul`) for the common statically-shaped path, and a fallible
/// `try_` variant returning [`ShapeError`] for dynamically-shaped callers.
///
/// # Example
///
/// ```
/// use nora_tensor::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = a.matvec(&[1.0, 1.0]);
/// assert_eq!(x, vec![3.0, 7.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix whose entries are drawn i.i.d. from `N(mean, std²)`.
    pub fn random_normal(rows: usize, cols: usize, mean: f32, std: f32, rng: &mut Rng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.normal(mean, std);
        }
        m
    }

    /// Creates a matrix whose entries are drawn i.i.d. from `U[lo, hi)`.
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.uniform(lo, hi);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterator over row slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.try_matmul(rhs).expect("matmul shape mismatch")
    }

    /// Fallible matrix product.
    ///
    /// Output rows are independent, so for products above a work threshold
    /// they are computed in parallel row chunks (see [`nora_parallel`]).
    /// Rows go through a register-tiled kernel 4 at a time; leftover rows,
    /// and a one-row product, take the row kernel. Each output element
    /// keeps a single `k`-ascending accumulation chain either way, so the
    /// result is bit-identical at any thread count and any row count.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the inner dimensions disagree.
    pub fn try_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(ShapeError::new("matmul", self.shape(), rhs.shape()));
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        // Shared work-threshold gate (`MIN_PARALLEL_WORK`): below ~1 Mflop
        // the pool latch handshake costs more than it saves, so small
        // matmuls stay on the exact serial loop.
        let threads = nora_parallel::threads_for_work(m, (k * n) as u64);
        if threads > 1 && m > 1 {
            // Small chunks (≈4 per thread, whole row tiles) so a slow chunk
            // can't stall the section; each chunk owns whole output rows, so
            // writes are disjoint and per-element FP order is unchanged.
            let rows_per_chunk = m.div_ceil(threads * 4).next_multiple_of(GEMM_MR);
            nora_parallel::for_each_chunk_mut(&mut out.data, rows_per_chunk * n, |ci, chunk| {
                let r0 = ci * rows_per_chunk;
                let rows = chunk.len() / n;
                rows_times_matrix(&self.data[r0 * k..(r0 + rows) * k], k, &rhs.data, n, chunk);
            });
        } else {
            rows_times_matrix(&self.data, k, &rhs.data, n, &mut out.data);
        }
        Ok(out)
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.cols,
            "matvec: vector length {} vs cols {}",
            x.len(),
            self.cols
        );
        self.iter_rows()
            .map(|row| row.iter().zip(x).map(|(&a, &b)| a * b).sum())
            .collect()
    }

    /// Vector–matrix product `x · self` (row vector times matrix).
    ///
    /// This is the activation-side orientation used by linear layers:
    /// `y = x · W` with `x` of length `rows` and result of length `cols`.
    /// Dense kernel — every `x[k]` is multiplied through, with no
    /// zero-skip branch; for genuinely sparse inputs (e.g. bit-serial
    /// planes) use [`Matrix::vecmat_sparse`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.vecmat_into(x, &mut out);
        out
    }

    /// [`Matrix::vecmat`] writing into a caller-owned buffer, so hot loops
    /// can reuse the allocation. The buffer is cleared and resized to
    /// `cols`; its prior contents do not affect the result.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
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
        row_times_matrix(x, &self.data, self.cols, out);
    }

    /// Sparse-aware variant of [`Matrix::vecmat`]: rows whose coefficient
    /// is exactly `0.0` are skipped entirely. Profitable only when a large
    /// fraction of `x` is exact zeros (e.g. bit-plane slices in bit-serial
    /// conversion); on dense activations the branch costs more than it
    /// saves.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat_sparse(&self, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.vecmat_sparse_into(x, &mut out);
        out
    }

    /// [`Matrix::vecmat_sparse`] writing into a caller-owned buffer. The
    /// buffer is cleared and resized to `cols` before accumulation.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat_sparse_into(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            x.len(),
            self.rows,
            "vecmat: vector length {} vs rows {}",
            x.len(),
            self.rows
        );
        out.clear();
        out.resize(self.cols, 0.0);
        for (k, &a) in x.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let row = &self.data[k * self.cols..(k + 1) * self.cols];
            for (o, &b) in out.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("add shape mismatch")
    }

    /// Fallible elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError::new("add", self.shape(), rhs.shape()));
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&rhs.data) {
            *o += b;
        }
        Ok(out)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&rhs.data) {
            *o -= b;
        }
        out
    }

    /// In-place elementwise addition.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (o, &b) in self.data.iter_mut().zip(&rhs.data) {
            *o += b;
        }
    }

    /// Returns the matrix scaled by `s`.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        out.scale_assign(s);
        out
    }

    /// Scales all entries by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = f(*v);
        }
        out
    }

    /// Applies `f` to every entry in place.
    pub fn map_assign(&mut self, mut f: impl FnMut(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Multiplies row `r` by `s` in place.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn scale_row(&mut self, r: usize, s: f32) {
        for v in self.row_mut(r) {
            *v *= s;
        }
    }

    /// Multiplies column `c` by `s` in place.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn scale_col(&mut self, c: usize, s: f32) {
        assert!(c < self.cols, "col {c} out of bounds ({})", self.cols);
        for r in 0..self.rows {
            self.data[r * self.cols + c] *= s;
        }
    }

    /// Multiplies each row `k` by `s[k]` (diagonal left-multiplication).
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != rows`.
    pub fn scale_rows(&mut self, s: &[f32]) {
        assert_eq!(s.len(), self.rows, "scale_rows length mismatch");
        for (r, &f) in s.iter().enumerate() {
            self.scale_row(r, f);
        }
    }

    /// Multiplies each column `k` by `s[k]` (diagonal right-multiplication).
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != cols`.
    pub fn scale_cols(&mut self, s: &[f32]) {
        assert_eq!(s.len(), self.cols, "scale_cols length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &f) in row.iter_mut().zip(s) {
                *v *= f;
            }
        }
    }

    /// Maximum absolute value over the whole matrix (0 for empty).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Per-row maximum absolute values (length `rows`).
    pub fn row_abs_max(&self) -> Vec<f32> {
        self.iter_rows()
            .map(|row| row.iter().fold(0.0f32, |m, &v| m.max(v.abs())))
            .collect()
    }

    /// Per-column maximum absolute values (length `cols`).
    pub fn col_abs_max(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in out.iter_mut().zip(row) {
                *m = m.max(v.abs());
            }
        }
        out
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or inverted.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "bad row range {r0}..{r1}");
        assert!(c0 <= c1 && c1 <= self.cols, "bad col range {c0}..{c1}");
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for (ro, r) in (r0..r1).enumerate() {
            out.row_mut(ro).copy_from_slice(&self.row(r)[c0..c1]);
        }
        out
    }

    /// Writes `block` into this matrix with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(
            r0 + block.rows <= self.rows && c0 + block.cols <= self.cols,
            "block {}x{} at ({r0},{c0}) exceeds {}x{}",
            block.rows,
            block.cols,
            self.rows,
            self.cols
        );
        for r in 0..block.rows {
            let dst = &mut self.data[(r0 + r) * self.cols + c0..][..block.cols];
            dst.copy_from_slice(block.row(r));
        }
    }

    /// Stacks matrices vertically (same column count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the column counts disagree.
    pub fn vstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r = 0;
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            out.set_submatrix(r, 0, p);
            r += p.rows;
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Mean squared error against another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "mse shape mismatch");
        crate::stats::mse(&self.data, &rhs.data)
    }
}

/// Register-tile width of the GEMM/GEMV kernel (f32 lanes kept live across
/// the `k` loop).
const GEMM_JT: usize = 16;

/// Wide-tile width: two [`GEMM_JT`] accumulator blocks advanced together so
/// a single `a_row[k]` load feeds 32 output lanes per `k` step.
const GEMM_JW: usize = 2 * GEMM_JT;

/// Rows per register tile of the multi-row kernel: each block of `b` that
/// is loaded feeds this many output rows.
const GEMM_MR: usize = 4;

/// Multi-row product `out = a · b`, where `a` is row-major `rows × k`, `b`
/// is row-major `k × n` and `out` is `rows × n`.
///
/// Whole groups of [`GEMM_MR`] rows run through [`RowsTimesMatrix`]; the
/// leftover rows (all of them in a one-row product) run through
/// [`row_times_matrix`]. Both kernels give each output element the same
/// chain, so how the rows are grouped does not change any bit.
fn rows_times_matrix(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 {
        return;
    }
    debug_assert_eq!(a.len(), out.len() / n * k);
    let mut tiles = out.chunks_exact_mut(GEMM_MR * n);
    let mut r0 = 0;
    for out_tile in &mut tiles {
        simd::run(RowsTimesMatrix {
            a: &a[r0 * k..(r0 + GEMM_MR) * k],
            b,
            n,
            out: out_tile,
        });
        r0 += GEMM_MR;
    }
    for out_row in tiles.into_remainder().chunks_exact_mut(n) {
        row_times_matrix(&a[r0 * k..(r0 + 1) * k], b, n, out_row);
        r0 += 1;
    }
}

/// Shared row kernel: `out_row = a_row · b`, where `b` is row-major
/// `a_row.len() × n` and `out_row` has length `n`.
///
/// Columns are processed in register tiles of [`GEMM_JW`] accumulators
/// (two [`GEMM_JT`] blocks, falling back to one block and then a masked
/// tail at the right edge) so the compiler can keep the partial sums in
/// vector registers across the whole `k` loop — one load of `a_row[k]`
/// feeds every live lane. Each output element is produced by a single
/// `k`-ascending chain of `acc += a * b` updates — the same floating-point
/// evaluation order as the scalar two-loop form, so tiling does not change
/// results bitwise. The loop runs through [`simd::run`], so the AVX2
/// instance (8 lanes per vector, same chains) is taken where available.
fn row_times_matrix(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    simd::run(RowTimesMatrix {
        a_row,
        b,
        n,
        out_row,
    });
}

/// [`row_times_matrix`] as a [`Kernel`].
struct RowTimesMatrix<'a> {
    a_row: &'a [f32],
    b: &'a [f32],
    n: usize,
    out_row: &'a mut [f32],
}

impl Kernel for RowTimesMatrix<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self {
            a_row,
            b,
            n,
            out_row,
        } = self;
        debug_assert_eq!(out_row.len(), n);
        debug_assert_eq!(b.len(), a_row.len() * n);
        let mut j0 = 0;
        while j0 + GEMM_JW <= n {
            let mut lo = [0.0f32; GEMM_JT];
            let mut hi = [0.0f32; GEMM_JT];
            for (k, &a) in a_row.iter().enumerate() {
                let row = k * n + j0;
                let blk0: &[f32; GEMM_JT] = b[row..row + GEMM_JT]
                    .try_into()
                    .expect("block width is GEMM_JT");
                let blk1: &[f32; GEMM_JT] = b[row + GEMM_JT..row + GEMM_JW]
                    .try_into()
                    .expect("block width is GEMM_JT");
                for (o, &v) in lo.iter_mut().zip(blk0) {
                    *o += a * v;
                }
                for (o, &v) in hi.iter_mut().zip(blk1) {
                    *o += a * v;
                }
            }
            out_row[j0..j0 + GEMM_JT].copy_from_slice(&lo);
            out_row[j0 + GEMM_JT..j0 + GEMM_JW].copy_from_slice(&hi);
            j0 += GEMM_JW;
        }
        while j0 + GEMM_JT <= n {
            let mut acc = [0.0f32; GEMM_JT];
            for (k, &a) in a_row.iter().enumerate() {
                let blk: &[f32; GEMM_JT] = b[k * n + j0..k * n + j0 + GEMM_JT]
                    .try_into()
                    .expect("block width is GEMM_JT");
                for (o, &v) in acc.iter_mut().zip(blk) {
                    *o += a * v;
                }
            }
            out_row[j0..j0 + GEMM_JT].copy_from_slice(&acc);
            j0 += GEMM_JT;
        }
        if j0 < n {
            let rem = n - j0;
            let mut acc = [0.0f32; GEMM_JT];
            for (k, &a) in a_row.iter().enumerate() {
                let tail = &b[k * n + j0..k * n + n];
                for (o, &v) in acc[..rem].iter_mut().zip(tail) {
                    *o += a * v;
                }
            }
            out_row[j0..].copy_from_slice(&acc[..rem]);
        }
    }
}

/// [`GEMM_MR`] rows of `a` times `b` as a [`Kernel`]: `a` is row-major
/// `GEMM_MR × k`, `b` is row-major `k × n` and `out` is `GEMM_MR × n`.
///
/// Columns go in register tiles of `GEMM_MR` rows × [`GEMM_JT`]
/// accumulators, with a masked tail at the right edge, so each block of
/// `b` that is loaded feeds every row of the tile. Each output element is
/// the row kernel's chain: `acc = 0.0`, then `acc += a[k] * b[k][j]` with
/// `k` ascending, so a row computed here has the same bits as the same row
/// through [`RowTimesMatrix`].
struct RowsTimesMatrix<'a> {
    a: &'a [f32],
    b: &'a [f32],
    n: usize,
    out: &'a mut [f32],
}

impl Kernel for RowsTimesMatrix<'_> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        let Self { a, b, n, out } = self;
        let k = a.len() / GEMM_MR;
        debug_assert_eq!(a.len(), GEMM_MR * k);
        debug_assert_eq!(b.len(), k * n);
        debug_assert_eq!(out.len(), GEMM_MR * n);
        let (a0, rest) = a.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let a_cols = || a0.iter().zip(a1).zip(a2).zip(a3);
        let mut j0 = 0;
        while j0 + GEMM_JT <= n {
            let mut acc = [[0.0f32; GEMM_JT]; GEMM_MR];
            for (kk, (((&x0, &x1), &x2), &x3)) in a_cols().enumerate() {
                let row = kk * n + j0;
                let blk: &[f32; GEMM_JT] = b[row..row + GEMM_JT]
                    .try_into()
                    .expect("block width is GEMM_JT");
                for (acc_r, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
                    for (o, &v) in acc_r.iter_mut().zip(blk) {
                        *o += x * v;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                out[r * n + j0..r * n + j0 + GEMM_JT].copy_from_slice(acc_r);
            }
            j0 += GEMM_JT;
        }
        if j0 < n {
            let rem = n - j0;
            let mut acc = [[0.0f32; GEMM_JT]; GEMM_MR];
            for (kk, (((&x0, &x1), &x2), &x3)) in a_cols().enumerate() {
                let tail = &b[kk * n + j0..kk * n + n];
                for (acc_r, x) in acc.iter_mut().zip([x0, x1, x2, x3]) {
                    for (o, &v) in acc_r[..rem].iter_mut().zip(tail) {
                        *o += x * v;
                    }
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                out[r * n + j0..(r + 1) * n].copy_from_slice(&acc_r[..rem]);
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6;
        for (i, row) in self.iter_rows().enumerate() {
            if i >= max_rows {
                writeln!(f, "  … ({} more rows)", self.rows - max_rows)?;
                break;
            }
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// [`bits`] with every NaN mapped to one pattern. Rust leaves the sign
    /// and payload of a NaN that arithmetic produces unspecified, and the
    /// compiler may swap the operands of a vector add, so `NaN + NaN` can
    /// come out as either operand's NaN in different instances of one
    /// kernel. Every other value, `-0.0` and the infinities included, is
    /// compared bit for bit.
    fn class_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|v| {
                if v.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    v.to_bits()
                }
            })
            .collect()
    }

    /// `simd::run` takes the AVX2 instance on an AVX2 host, while `k.run()`
    /// is compiled into this baseline test body: the two must agree bitwise.
    #[test]
    fn row_kernel_instances_are_bit_identical() {
        let mut rng = Rng::seed_from(41);
        for n in [1, 15, 16, 17, 31, 32, 33, 64, 129] {
            for k in [0, 1, 7, 64, 256] {
                let a: Vec<f32> = (0..k).map(|_| rng.normal(0.0, 2.0)).collect();
                let b: Vec<f32> = (0..k * n).map(|_| rng.normal(0.0, 0.5)).collect();
                let mut base = vec![f32::NAN; n];
                let mut dispatched = vec![f32::NAN; n];
                RowTimesMatrix {
                    a_row: &a,
                    b: &b,
                    n,
                    out_row: &mut base,
                }
                .run();
                simd::run(RowTimesMatrix {
                    a_row: &a,
                    b: &b,
                    n,
                    out_row: &mut dispatched,
                });
                assert_eq!(bits(&base), bits(&dispatched), "n={n} k={k}");
            }
        }
        if !simd::avx2_detected() {
            eprintln!("no AVX2 on this CPU: compared the baseline instance only");
        }
    }

    /// `len` normal draws with each of ±0.0, ±inf and NaN planted at one
    /// random position (when `len > 0`).
    fn with_specials(len: usize, rng: &mut Rng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 1.0)).collect();
        if len > 0 {
            for s in [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                v[rng.below(len)] = s;
            }
        }
        v
    }

    #[test]
    fn multi_row_kernel_instances_are_bit_identical() {
        let mut rng = Rng::seed_from(43);
        for n in [1, 15, 16, 17, 31, 32, 33, 48, 64, 129, 256] {
            for k in [0, 1, 7, 64, 256] {
                let a = with_specials(GEMM_MR * k, &mut rng);
                let b = with_specials(k * n, &mut rng);
                let mut base = vec![f32::NAN; GEMM_MR * n];
                let mut dispatched = vec![f32::NAN; GEMM_MR * n];
                RowsTimesMatrix {
                    a: &a,
                    b: &b,
                    n,
                    out: &mut base,
                }
                .run();
                simd::run(RowsTimesMatrix {
                    a: &a,
                    b: &b,
                    n,
                    out: &mut dispatched,
                });
                assert_eq!(class_bits(&base), class_bits(&dispatched), "n={n} k={k}");
            }
        }
    }

    /// Every row of a product, whether it went through the 4-row tile or
    /// the row kernel, has the bits of the baseline row kernel on that row.
    fn assert_rows_match_row_kernel(a: &Matrix, b: &Matrix, c: &Matrix, what: &str) {
        let n = b.cols();
        for i in 0..a.rows() {
            let mut want = vec![f32::NAN; n];
            RowTimesMatrix {
                a_row: a.row(i),
                b: b.as_slice(),
                n,
                out_row: &mut want,
            }
            .run();
            assert_eq!(class_bits(c.row(i)), class_bits(&want), "{what} row {i}");
        }
    }

    #[test]
    fn matmul_rows_are_bit_identical_to_the_row_kernel() {
        let mut rng = Rng::seed_from(44);
        let ms: Vec<usize> = (1..=9).chain([31, 32, 67]).collect();
        for &m in &ms {
            for n in [1, 15, 16, 17, 31, 32, 33, 48, 64, 129, 256] {
                for k in [0, 1, 7, 64, 256] {
                    let a = Matrix::from_vec(m, k, with_specials(m * k, &mut rng));
                    let b = Matrix::from_vec(k, n, with_specials(k * n, &mut rng));
                    let c = a.matmul(&b);
                    assert_rows_match_row_kernel(&a, &b, &c, &format!("m={m} n={n} k={k}"));
                }
            }
        }
    }

    #[test]
    fn parallel_multi_row_matmul_is_bit_identical_to_the_row_kernel() {
        // 67×256·256×129 ≈ 2.2 M MACs, above the parallel threshold, with
        // row and column counts that leave a row remainder and a column tail.
        let mut rng = Rng::seed_from(45);
        let a = Matrix::from_vec(67, 256, with_specials(67 * 256, &mut rng));
        let b = Matrix::from_vec(256, 129, with_specials(256 * 129, &mut rng));
        for threads in [1, 2, 4] {
            let c = nora_parallel::with_threads(threads, || a.matmul(&b));
            assert_rows_match_row_kernel(&a, &b, &c, &format!("threads={threads}"));
        }
    }

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn constructors_and_shape() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let f = Matrix::full(2, 2, 7.0);
        assert!(f.as_slice().iter().all(|&v| v == 7.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_vec_round_trips() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[4.0, 5.0, 10.0, 11.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = sample();
        let c = a.matmul(&Matrix::identity(3));
        assert_eq!(a, c);
    }

    #[test]
    fn try_matmul_shape_error() {
        let a = sample();
        let err = a.try_matmul(&sample()).unwrap_err();
        assert_eq!(err.op(), "matmul");
    }

    #[test]
    fn matvec_and_vecmat_agree_with_matmul() {
        let a = sample();
        let x = [1.0f32, -1.0, 2.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![5.0, 11.0]);
        let x2 = [1.0f32, -1.0];
        let y2 = a.vecmat(&x2);
        assert_eq!(y2, vec![-3.0, -3.0, -3.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = sample();
        let s = a.add(&a).sub(&a);
        assert_eq!(s, a);
        assert_eq!(a.scale(2.0), a.add(&a));
    }

    #[test]
    fn row_col_scaling() {
        let mut a = sample();
        a.scale_rows(&[2.0, 3.0]);
        assert_eq!(a.row(0), &[2.0, 4.0, 6.0]);
        assert_eq!(a.row(1), &[12.0, 15.0, 18.0]);
        let mut b = sample();
        b.scale_cols(&[1.0, 0.0, -1.0]);
        assert_eq!(b.row(0), &[1.0, 0.0, -3.0]);
    }

    #[test]
    fn diagonal_scaling_cancels_in_product() {
        // (X diag(1/s)) · (diag(s) W) == X · W  — the NORA exactness identity.
        let mut rng = Rng::seed_from(3);
        let x = Matrix::random_normal(4, 6, 0.0, 1.0, &mut rng);
        let w = Matrix::random_normal(6, 5, 0.0, 1.0, &mut rng);
        let s: Vec<f32> = (0..6).map(|i| 0.5 + i as f32).collect();
        let mut xs = x.clone();
        xs.scale_cols(&s.iter().map(|v| 1.0 / v).collect::<Vec<_>>());
        let mut ws = w.clone();
        ws.scale_rows(&s);
        let lhs = xs.matmul(&ws);
        let rhs = x.matmul(&w);
        assert!(lhs.mse(&rhs) < 1e-10);
    }

    #[test]
    fn abs_max_reductions() {
        let a = Matrix::from_rows(&[&[-3.0, 1.0], &[2.0, -0.5]]);
        assert_eq!(a.abs_max(), 3.0);
        assert_eq!(a.row_abs_max(), vec![3.0, 2.0]);
        assert_eq!(a.col_abs_max(), vec![3.0, 1.0]);
    }

    #[test]
    fn submatrix_and_set_submatrix_round_trip() {
        let a = sample();
        let block = a.submatrix(0, 2, 1, 3);
        assert_eq!(block.as_slice(), &[2.0, 3.0, 5.0, 6.0]);
        let mut z = Matrix::zeros(3, 4);
        z.set_submatrix(1, 2, &block);
        assert_eq!(z[(1, 2)], 2.0);
        assert_eq!(z[(2, 3)], 6.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn vstack_concatenates() {
        let a = sample();
        let v = Matrix::vstack(&[a.clone(), a.clone()]);
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(2), a.row(0));
    }

    #[test]
    fn col_extraction() {
        let a = sample();
        assert_eq!(a.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let a = sample();
        assert_eq!(a.mse(&a), 0.0);
    }

    #[test]
    fn frobenius_norm_value() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn debug_is_nonempty_and_bounded() {
        let a = Matrix::zeros(100, 100);
        let s = format!("{a:?}");
        assert!(s.contains("100x100"));
        assert!(s.len() < 2_000);
    }

    #[test]
    fn map_applies_function() {
        let a = sample().map(|v| v * v);
        assert_eq!(a.row(0), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn matmul_bit_identical_across_thread_counts() {
        // 64×128 · 128×129 = ~1.06 Mflop — above the parallel threshold —
        // with a non-multiple-of-16 column count to cover the remainder
        // tile. Exact (bitwise) equality is required, not approximate.
        let mut rng = Rng::seed_from(11);
        let a = Matrix::random_normal(64, 128, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(128, 129, 0.0, 1.0, &mut rng);
        let serial = nora_parallel::with_threads(1, || a.matmul(&b));
        for threads in [2, 4, 8] {
            let par = nora_parallel::with_threads(threads, || a.matmul(&b));
            assert_eq!(serial.as_slice(), par.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn vecmat_dense_and_sparse_agree() {
        let mut rng = Rng::seed_from(12);
        let w = Matrix::random_normal(70, 33, 0.0, 1.0, &mut rng);
        // Mixed exact-zero / dense input exercises the skip branch.
        let x: Vec<f32> = (0..70)
            .map(|i| {
                if i % 3 == 0 {
                    0.0
                } else {
                    rng.normal(0.0, 1.0)
                }
            })
            .collect();
        let dense = w.vecmat(&x);
        let sparse = w.vecmat_sparse(&x);
        assert_eq!(dense.len(), sparse.len());
        for (d, s) in dense.iter().zip(&sparse) {
            assert_eq!(d, s);
        }
        // Buffer reuse path matches and reuses the allocation.
        let mut buf = vec![9.0f32; 7];
        w.vecmat_into(&x, &mut buf);
        assert_eq!(buf, dense);
    }
}
