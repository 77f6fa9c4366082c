//! Compressed sparse row (CSR) matrices.
//!
//! CSR is the working format of every solver in this workspace: the
//! randomized Gauss-Seidel iteration touches one row per step, and CSR gives
//! O(nnz(row)) access to a row's column indices and values.

use crate::dense::RowMajorMat;
use crate::error::{Result, SparseError};

/// Size cutoff for the 8-wide unrolled kernels: rows (for
/// [`CsrMatrix::row_dot`]) or right-hand-side counts (for the SpMM
/// register blocking) at or above this take the 8-wide path, shorter ones
/// keep the 4-wide kernel. The wider unroll only pays for itself once a
/// full 8-chunk exists; below the cutoff it would just add dispatch.
/// All variants keep a single accumulator per output, so the choice never
/// changes a result bitwise.
pub const WIDE_KERNEL_CUTOFF: usize = 8;

/// Size cutoff for software prefetch of upcoming rows: a matrix whose
/// stored entries (`nnz × (size_of::<usize>() + 8)` bytes of column
/// indices and values) reach 4 MiB reports
/// [`prefetch_pays`](CsrMatrix::prefetch_pays), and the randomized
/// Gauss-Seidel walks then hint each drawn row into L1 a few updates ahead.
///
/// Measured per update (AsyRGS at 1 and 2 threads, sequential RGS) on a
/// 2-vCPU Xeon with a 2 MiB private L2, hinted and plain walks alternating
/// in one process: the hint loses at 1 MB and below (up to +19% at
/// 0.1–1 MB), is about even at 2 MB (+3% to −25% across runs), wins
/// 6–21% at 4 MB and cuts 24–44% at 8–66 MB. The cutoff sits 2x above
/// the largest private L2 measured, so matrices near the crossover keep
/// the plain walk. A hint never changes a value, so the choice never
/// changes a result bitwise.
pub const PREFETCH_MIN_BYTES: usize = 4 << 20;

/// Rows per claimed chunk in the pooled row-wise kernels
/// ([`CsrMatrix::par_matvec_into_on`], [`CsrMatrix::par_residual_into_on`]).
const PAR_ROW_GRAIN: usize = 1024;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (enforced by [`CsrMatrix::from_raw_parts`]):
/// * `row_ptr.len() == n_rows + 1`, `row_ptr[0] == 0`, monotone non-decreasing,
///   `row_ptr[n_rows] == col_idx.len() == vals.len()`;
/// * within each row, column indices are strictly increasing and `< n_cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Build a CSR matrix from raw arrays, validating all invariants.
    pub fn from_raw_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != n_rows + 1 {
            return Err(SparseError::Parse(format!(
                "row_ptr length {} != n_rows + 1 = {}",
                row_ptr.len(),
                n_rows + 1
            )));
        }
        if row_ptr[0] != 0
            || *row_ptr.last().unwrap() != col_idx.len()
            || col_idx.len() != vals.len()
        {
            return Err(SparseError::Parse(
                "row_ptr endpoints inconsistent with col_idx/vals".into(),
            ));
        }
        for r in 0..n_rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(SparseError::Parse(format!("row_ptr decreases at row {r}")));
            }
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            for k in lo..hi {
                if col_idx[k] >= n_cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: col_idx[k],
                        n_rows,
                        n_cols,
                    });
                }
                if k > lo && col_idx[k] <= col_idx[k - 1] {
                    return Err(SparseError::Parse(format!(
                        "columns not strictly increasing in row {r}"
                    )));
                }
            }
        }
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        })
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Build a dense `rows x cols` matrix given in row-major order, dropping
    /// exact zeros. Intended for small test matrices.
    pub fn from_dense(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_dense: bad length");
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for j in 0..cols {
                let v = data[i * cols + j];
                if v != 0.0 {
                    col_idx.push(j);
                    vals.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            n_rows: rows,
            n_cols: cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Raw row pointer array.
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable raw value array (structure is fixed, values may be edited).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Whether the stored entries reach [`PREFETCH_MIN_BYTES`], i.e. a
    /// randomly drawn row is usually not in a core's private cache, so
    /// hinting upcoming rows with [`prefetch_row`](Self::prefetch_row)
    /// pays for itself.
    #[inline]
    pub fn prefetch_pays(&self) -> bool {
        self.nnz() * (std::mem::size_of::<usize>() + std::mem::size_of::<f64>())
            >= PREFETCH_MIN_BYTES
    }

    /// Hint row `i`'s column indices and values into L1: one
    /// `_mm_prefetch(_MM_HINT_T0)` per 64-byte line of each slice on
    /// x86_64, nothing on other targets. A hint reads no value the caller
    /// sees and writes none, so no result depends on it.
    #[inline]
    pub fn prefetch_row(&self, i: usize) {
        let (cols, vals) = self.row(i);
        prefetch_lines(cols);
        prefetch_lines(vals);
    }

    /// Entry `(i, j)`, or `0.0` if not stored. Binary search within the row.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Dot product of row `i` with the dense vector `x`.
    ///
    /// Unrolled with a **single accumulator** — 8-wide for rows at or
    /// above [`WIDE_KERNEL_CUTOFF`] entries, 4-wide below — so the
    /// summation order is identical to the plain loop (bitwise-stable
    /// results) while the compiler lifts the gather loads and drops
    /// per-entry bounds checks. This is the innermost kernel of every
    /// Gauss-Seidel-family update.
    #[inline]
    pub fn row_dot(&self, i: usize, x: &[f64]) -> f64 {
        self.row_dot_with(i, |c| x[c])
    }

    /// Row-`i` dot product against an arbitrary indexed loader: element
    /// `c` of the vector is produced by `load(c)`.
    ///
    /// This is the kernel behind [`row_dot`](Self::row_dot), generic over
    /// the element source so the asynchronous solvers can run the *same*
    /// unrolled walk against a shared vector of atomics (each `load`
    /// inlining to a relaxed load). Single accumulator throughout, loads
    /// issued in column order, so the result is bitwise identical to the
    /// plain visitor loop at every row size.
    #[inline]
    pub fn row_dot_with<L: FnMut(usize) -> f64>(&self, i: usize, mut load: L) -> f64 {
        let (mut cols, mut vals) = self.row(i);
        let mut acc = 0.0;
        if cols.len() >= WIDE_KERNEL_CUTOFF {
            let mut c8 = cols.chunks_exact(8);
            let mut v8 = vals.chunks_exact(8);
            for (c, v) in (&mut c8).zip(&mut v8) {
                acc += v[0] * load(c[0]);
                acc += v[1] * load(c[1]);
                acc += v[2] * load(c[2]);
                acc += v[3] * load(c[3]);
                acc += v[4] * load(c[4]);
                acc += v[5] * load(c[5]);
                acc += v[6] * load(c[6]);
                acc += v[7] * load(c[7]);
            }
            cols = c8.remainder();
            vals = v8.remainder();
        }
        let mut c4 = cols.chunks_exact(4);
        let mut v4 = vals.chunks_exact(4);
        for (c, v) in (&mut c4).zip(&mut v4) {
            acc += v[0] * load(c[0]);
            acc += v[1] * load(c[1]);
            acc += v[2] * load(c[2]);
            acc += v[3] * load(c[3]);
        }
        for (&c, &v) in c4.remainder().iter().zip(v4.remainder()) {
            acc += v * load(c);
        }
        acc
    }

    /// `y <- A x`. Allocates the output.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n_rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y <- A x` into a caller-provided buffer.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "matvec: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "matvec: y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.row_dot(i, x);
        }
    }

    /// Parallel `y <- A x` on the process-wide worker pool.
    ///
    /// Equivalent to [`par_matvec_into_on`](Self::par_matvec_into_on) with
    /// [`asyrgs_parallel::global`].
    pub fn par_matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.par_matvec_into_on(asyrgs_parallel::global(), x, y);
    }

    /// Parallel `y <- A x` on an injected worker pool: rows are claimed in
    /// fixed-size chunks (atomic claiming, dynamic load balance). Each
    /// output entry is a single [`row_dot`](Self::row_dot), so the result
    /// is bitwise identical to [`matvec_into`](Self::matvec_into) for any
    /// pool size.
    pub fn par_matvec_into_on(&self, pool: &asyrgs_parallel::WorkerPool, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols, "par_matvec: x length mismatch");
        assert_eq!(y.len(), self.n_rows, "par_matvec: y length mismatch");
        let yp = asyrgs_parallel::SendPtr(y.as_mut_ptr());
        pool.for_each_chunk(self.n_rows, PAR_ROW_GRAIN, |lo, hi| {
            // Chunks are disjoint, so each worker owns y[lo..hi] exclusively.
            let ys = unsafe { yp.slice_mut(lo, hi) };
            for (i, yi) in ys.iter_mut().enumerate() {
                *yi = self.row_dot(lo + i, x);
            }
        });
    }

    /// Multi-RHS product `Y <- A X` where `X` is row-major `n_cols x k`.
    ///
    /// The inner loop is register-blocked over right-hand sides (8 at a
    /// time above [`WIDE_KERNEL_CUTOFF`], else 4): each sweep over a row's
    /// nonzeros accumulates a block of output entries in registers instead
    /// of streaming through the output row per nonzero. Per-element
    /// accumulation order over the nonzeros is unchanged, so results are
    /// bitwise identical to the naive loop.
    pub fn spmm_into(&self, x: &RowMajorMat, y: &mut RowMajorMat) {
        assert_eq!(x.n_rows(), self.n_cols, "spmm: X row mismatch");
        assert_eq!(y.n_rows(), self.n_rows, "spmm: Y row mismatch");
        assert_eq!(x.n_cols(), y.n_cols(), "spmm: RHS count mismatch");
        for i in 0..self.n_rows {
            self.spmm_row(i, x, y.row_mut(i));
        }
    }

    /// One row of [`spmm_into`](Self::spmm_into): `yrow <- A_i X`.
    ///
    /// Register-blocked 8 right-hand sides at a time once `k >=`
    /// [`WIDE_KERNEL_CUTOFF`], then 4, then a scalar tail; each output
    /// entry keeps its own accumulator over the nonzeros in order, so
    /// results are bitwise identical to the naive loop at every width.
    #[inline]
    fn spmm_row(&self, i: usize, x: &RowMajorMat, yrow: &mut [f64]) {
        let k = x.n_cols();
        let (cols, vals) = self.row(i);
        let mut t = 0;
        while t + 8 <= k {
            let mut a = [0.0f64; 8];
            for (&c, &v) in cols.iter().zip(vals) {
                let xr = &x.row(c)[t..t + 8];
                a[0] += v * xr[0];
                a[1] += v * xr[1];
                a[2] += v * xr[2];
                a[3] += v * xr[3];
                a[4] += v * xr[4];
                a[5] += v * xr[5];
                a[6] += v * xr[6];
                a[7] += v * xr[7];
            }
            yrow[t..t + 8].copy_from_slice(&a);
            t += 8;
        }
        while t + 4 <= k {
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (&c, &v) in cols.iter().zip(vals) {
                let xr = x.row(c);
                a0 += v * xr[t];
                a1 += v * xr[t + 1];
                a2 += v * xr[t + 2];
                a3 += v * xr[t + 3];
            }
            yrow[t] = a0;
            yrow[t + 1] = a1;
            yrow[t + 2] = a2;
            yrow[t + 3] = a3;
            t += 4;
        }
        if t < k {
            yrow[t..k].fill(0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                let xr = x.row(c);
                for (yt, &xt) in yrow[t..k].iter_mut().zip(&xr[t..k]) {
                    *yt += v * xt;
                }
            }
        }
    }

    /// Parallel multi-RHS product `Y <- A X` on the process-wide pool.
    pub fn par_spmm_into(&self, x: &RowMajorMat, y: &mut RowMajorMat) {
        self.par_spmm_into_on(asyrgs_parallel::global(), x, y);
    }

    /// Parallel multi-RHS product on an injected pool: output rows are
    /// claimed in chunks; each row runs the same register-blocked kernel
    /// as [`spmm_into`](Self::spmm_into), so results are bitwise identical
    /// to the serial product for any pool size.
    pub fn par_spmm_into_on(
        &self,
        pool: &asyrgs_parallel::WorkerPool,
        x: &RowMajorMat,
        y: &mut RowMajorMat,
    ) {
        assert_eq!(x.n_rows(), self.n_cols, "spmm: X row mismatch");
        assert_eq!(y.n_rows(), self.n_rows, "spmm: Y row mismatch");
        assert_eq!(x.n_cols(), y.n_cols(), "spmm: RHS count mismatch");
        const GRAIN: usize = 256;
        let k = x.n_cols();
        let yp = asyrgs_parallel::SendPtr(y.as_mut_slice().as_mut_ptr());
        pool.for_each_chunk(self.n_rows, GRAIN, |lo, hi| {
            // Row chunks are disjoint: each worker owns Y[lo..hi, :].
            for i in lo..hi {
                let yrow = unsafe { yp.slice_mut(i * k, (i + 1) * k) };
                self.spmm_row(i, x, yrow);
            }
        });
    }

    /// Residual `r = b - A x`.
    pub fn residual(&self, b: &[f64], x: &[f64]) -> Vec<f64> {
        let mut r = vec![0.0; self.n_rows];
        self.residual_into(b, x, &mut r);
        r
    }

    /// Residual `r <- b - A x` into a caller-provided buffer — the
    /// allocation-free form the solvers' epoch observers use.
    pub fn residual_into(&self, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert_eq!(b.len(), self.n_rows, "residual: b length mismatch");
        self.matvec_into(x, r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    }

    /// Residual `r <- b - A x` on up to `threads` workers of `pool` (the
    /// caller included): rows are claimed in the chunks of
    /// [`par_matvec_into_on`](Self::par_matvec_into_on), and each entry is
    /// `b_i - row_dot(i, x)`, exactly as
    /// [`residual_into`](Self::residual_into) computes it, so the result is
    /// bitwise identical at every width. `threads <= 1` runs serially on
    /// the caller.
    pub fn par_residual_into_on(
        &self,
        pool: &asyrgs_parallel::WorkerPool,
        threads: usize,
        b: &[f64],
        x: &[f64],
        r: &mut [f64],
    ) {
        assert_eq!(b.len(), self.n_rows, "residual: b length mismatch");
        assert_eq!(x.len(), self.n_cols, "residual: x length mismatch");
        assert_eq!(r.len(), self.n_rows, "residual: r length mismatch");
        let rp = asyrgs_parallel::SendPtr(r.as_mut_ptr());
        pool.for_each_chunk_on(threads, self.n_rows, PAR_ROW_GRAIN, |lo, hi| {
            // SAFETY: `r` has `n_rows` entries (asserted above), chunks
            // cover `0..n_rows` disjointly, and each is claimed once, so
            // this worker owns r[lo..hi] exclusively for the round.
            let rs = unsafe { rp.slice_mut(lo, hi) };
            for (k, ri) in rs.iter_mut().enumerate() {
                *ri = b[lo + k] - self.row_dot(lo + k, x);
            }
        });
    }

    /// Multi-RHS residual `R = B - A X` (row-major blocks).
    pub fn residual_block(&self, b: &RowMajorMat, x: &RowMajorMat) -> RowMajorMat {
        let mut r = RowMajorMat::zeros(self.n_rows, x.n_cols());
        self.residual_block_into(b, x, &mut r);
        r
    }

    /// Multi-RHS residual `R <- B - A X` into a caller-provided block.
    pub fn residual_block_into(&self, b: &RowMajorMat, x: &RowMajorMat, r: &mut RowMajorMat) {
        assert_eq!(b.n_rows(), self.n_rows, "residual_block: B row mismatch");
        assert_eq!(b.n_cols(), x.n_cols(), "residual_block: RHS mismatch");
        self.spmm_into(x, r);
        for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *ri = bi - *ri;
        }
    }

    /// The transpose as a new CSR matrix (equivalently, this matrix in CSC).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut next = counts.clone();
        for r in 0..self.n_rows {
            let (cols, vs) = self.row(r);
            for (&c, &v) in cols.iter().zip(vs) {
                let slot = next[c];
                next[c] += 1;
                col_idx[slot] = r;
                vals[slot] = v;
            }
        }
        // Rows of the transpose are visited in increasing r, so columns are
        // already strictly increasing within each new row.
        CsrMatrix {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr: counts,
            col_idx,
            vals,
        }
    }

    /// Check numerical symmetry to within `tol` (absolute): `false` when
    /// some `|a_ij - a_ji| > tol`, an unstored entry counting as `0.0`,
    /// and for every non-square matrix.
    ///
    /// One merge pass over the sorted rows, `O(nnz + n)` time, with an
    /// `n`-length cursor buffer as the only allocation (no transpose).
    /// Row `j`'s cursor walks its upper entries `(j, i)`, `i > j`, in the
    /// order the lower entries `(i, j)` that pair with them are visited,
    /// so each pair meets once; entries skipped on the way, and those left
    /// at the end, have no partner and are compared against `0.0`.
    /// Early-exits on the first violation. A NaN entry is never a
    /// violation (`NaN > tol` is false), the same rule as
    /// [`RowAccess::is_symmetric`](crate::RowAccess::is_symmetric)'s
    /// generic walk, whose verdict this always matches: rejecting
    /// non-finite input is the solvers' finite check's job.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let (cols, vals) = (&self.col_idx, &self.vals);
        let mut cursor = vec![0usize; self.n_rows];
        for i in 0..self.n_rows {
            let (mut k, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            // Lower entries (i, j), j <= i, in increasing j.
            while k < hi && cols[k] <= i {
                let j = cols[k];
                let partner = if j == i {
                    // The diagonal is its own partner.
                    vals[k]
                } else {
                    // Row j is done, so its cursor sits past its diagonal;
                    // entries before column i there found no partner.
                    let (mut c, end) = (cursor[j], self.row_ptr[j + 1]);
                    while c < end && cols[c] < i {
                        if vals[c].abs() > tol {
                            return false;
                        }
                        c += 1;
                    }
                    let v = if c < end && cols[c] == i {
                        c += 1;
                        vals[c - 1]
                    } else {
                        0.0
                    };
                    cursor[j] = c;
                    v
                };
                if (vals[k] - partner).abs() > tol {
                    return false;
                }
                k += 1;
            }
            cursor[i] = k;
        }
        // Upper entries that no lower entry claimed.
        !(0..self.n_rows).any(|j| {
            vals[cursor[j]..self.row_ptr[j + 1]]
                .iter()
                .any(|v| v.abs() > tol)
        })
    }

    /// Extract the diagonal (zero where no entry is stored).
    pub fn diag(&self) -> Vec<f64> {
        assert!(self.is_square(), "diag: matrix must be square");
        (0..self.n_rows).map(|i| self.get(i, i)).collect()
    }

    /// Row diagonal-dominance margin: the minimum over rows of
    /// `(|a_ii| - sum_{j != i} |a_ij|) / |a_ii|`.
    ///
    /// `1.0` means a diagonal matrix, `0.0` a weakly dominant row, negative
    /// values rows whose off-diagonal mass exceeds the diagonal. This is the
    /// canonical margin shared by the solver policy
    /// (`asyrgs_core::policy`) and the scenario registry's
    /// `dominance_margin()` accessor — compute it here, nowhere else.
    ///
    /// Returns `None` for non-square matrices and for matrices with a zero
    /// diagonal entry (the ratio is undefined there; callers that need a
    /// typed error report `ZeroDiagonal` themselves).
    pub fn dominance_margin(&self) -> Option<f64> {
        if !self.is_square() {
            return None;
        }
        let mut margin = f64::INFINITY;
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == i {
                    diag += v;
                } else {
                    off += v.abs();
                }
            }
            if diag == 0.0 {
                return None;
            }
            margin = margin.min((diag.abs() - off) / diag.abs());
        }
        Some(margin)
    }

    /// Infinity norm `max_i sum_j |A_ij|`.
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|i| self.row(i).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The paper's `rho = ||A||_inf / n = max_l (1/n) sum_r |A_lr|`
    /// (Theorem 2). Requires a square matrix.
    pub fn rho(&self) -> f64 {
        assert!(self.is_square(), "rho: matrix must be square");
        self.norm_inf() / self.n_rows as f64
    }

    /// The paper's `rho_2 = max_l (1/n) sum_r A_lr^2` (Theorem 4).
    pub fn rho2(&self) -> f64 {
        assert!(self.is_square(), "rho2: matrix must be square");
        let n = self.n_rows as f64;
        (0..self.n_rows)
            .map(|i| self.row(i).1.iter().map(|v| v * v).sum::<f64>() / n)
            .fold(0.0, f64::max)
    }

    /// A-inner product `(x, y)_A = y^T A x`. Requires symmetry for this to
    /// be an inner product, but the formula is computed as stated.
    pub fn a_inner(&self, x: &[f64], y: &[f64]) -> f64 {
        assert!(self.is_square(), "a_inner: matrix must be square");
        let ax = self.matvec(x);
        crate::dense::dot(&ax, y)
    }

    /// Squared A-norm `||x||_A^2 = x^T A x`.
    pub fn a_norm_sq(&self, x: &[f64]) -> f64 {
        self.a_inner(x, x)
    }

    /// A-norm `||x||_A`.
    pub fn a_norm(&self, x: &[f64]) -> f64 {
        self.a_norm_sq(x).max(0.0).sqrt()
    }

    /// Min and max row nnz — the paper's reference-scenario `(C1, C2)`.
    pub fn row_nnz_bounds(&self) -> (usize, usize) {
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for i in 0..self.n_rows {
            let c = self.row_nnz(i);
            lo = lo.min(c);
            hi = hi.max(c);
        }
        if self.n_rows == 0 {
            (0, 0)
        } else {
            (lo, hi)
        }
    }

    /// Mean row nnz.
    pub fn mean_row_nnz(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.n_rows as f64
        }
    }

    /// Densify (for tests and tiny examples only).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n_rows * self.n_cols];
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                d[i * self.n_cols + c] = v;
            }
        }
        d
    }

    /// Scale: `A <- alpha A`.
    pub fn scale_values(&mut self, alpha: f64) {
        for v in &mut self.vals {
            *v *= alpha;
        }
    }
}

/// Prefetch every cache line `s` spans into L1 (x86_64; a no-op elsewhere).
#[inline(always)]
fn prefetch_lines<T>(s: &[T]) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const CACHE_LINE: usize = 64;
        if s.is_empty() {
            return;
        }
        let start = s.as_ptr() as usize;
        let end = start + std::mem::size_of_val(s);
        let mut line = start & !(CACHE_LINE - 1);
        while line < end {
            // SAFETY: a prefetch is a hint: it never faults and has no
            // architectural effect. Every line hinted overlaps `s`.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(line as *const i8) };
            line += CACHE_LINE;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = s;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        CsrMatrix::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0])
    }

    #[test]
    fn from_dense_and_get() {
        let m = small();
        assert_eq!(m.nnz(), 7);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.get(2, 1), -1.0);
    }

    #[test]
    fn identity_matvec() {
        let id = CsrMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(id.matvec(&x), x);
        assert_eq!(id.nnz(), 4);
    }

    #[test]
    fn matvec_tridiagonal() {
        let m = small();
        let y = m.matvec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn par_matvec_matches_serial() {
        let m = small();
        let x = vec![0.3, -1.2, 2.5];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        m.matvec_into(&x, &mut y1);
        m.par_matvec_into(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, m);
    }

    #[test]
    fn symmetry_check() {
        assert!(small().is_symmetric(0.0));
        let asym = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 1.0]);
        assert!(!asym.is_symmetric(1e-12));
        assert!(asym.is_symmetric(1.5));
    }

    #[test]
    fn symmetry_check_pattern_symmetric_values_not() {
        // Same sparsity pattern as its transpose (entries at (0,1) and
        // (1,0) both stored), but the values disagree: every pair meets
        // at its cursor, and the pass must still compare the values.
        let a = CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -2.0, 4.0, -1.0, 0.0, -1.0, 4.0]);
        let t = a.transpose();
        assert_eq!(a.row_ptr, t.row_ptr);
        assert_eq!(a.col_idx, t.col_idx);
        assert!(!a.is_symmetric(0.5));
        assert!(a.is_symmetric(1.0 + 1e-12)); // |(-1) - (-2)| = 1
    }

    #[test]
    fn symmetry_check_structurally_nonsymmetric() {
        // Entry at (0,2) with no stored partner at (2,0): no lower entry
        // claims it, so the final sweep over unclaimed upper entries must
        // reject (the implicit zero at (2,0) differs from 5.0 by more
        // than tol).
        let a = CsrMatrix::from_dense(3, 3, &[1.0, 0.0, 5.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert!(!a.is_symmetric(1e-9));
        assert!(a.is_symmetric(5.0 + 1e-12));
        // A tiny unpaired entry stays symmetric-within-tol against the
        // implicit zero on the other side, until tol drops below it.
        let b = CsrMatrix::from_dense(3, 3, &[1.0, 0.0, 1e-12, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert!(b.is_symmetric(1e-9));
        assert!(!b.is_symmetric(1e-13));
    }

    #[test]
    fn symmetry_check_rejects_rectangular() {
        let m = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        assert!(!m.is_symmetric(f64::INFINITY));
    }

    #[test]
    fn prefetch_pays_from_the_byte_cutoff_on() {
        let per_entry = std::mem::size_of::<usize>() + std::mem::size_of::<f64>();
        let at = PREFETCH_MIN_BYTES.div_ceil(per_entry);
        assert!(!CsrMatrix::identity(at - 1).prefetch_pays());
        assert!(CsrMatrix::identity(at).prefetch_pays());
        assert!(!small().prefetch_pays());
    }

    #[test]
    fn prefetch_row_handles_empty_last_and_multi_line_rows() {
        // Row 0 holds 20 entries (160 bytes per slice, at least three
        // cache lines each), row 1 is empty, row 2 is the last row.
        let cols = 20;
        let mut d = vec![0.0; 3 * cols];
        for (j, v) in d[..cols].iter_mut().enumerate() {
            *v = 1.0 + j as f64;
        }
        d[2 * cols + cols - 1] = 5.0;
        let m = CsrMatrix::from_dense(3, cols, &d);
        assert_eq!((m.row_nnz(0), m.row_nnz(1), m.row_nnz(2)), (20, 0, 1));
        let before = m.clone();
        for i in 0..3 {
            m.prefetch_row(i);
            crate::RowAccess::prefetch_row(&&m, i);
        }
        assert_eq!(m, before);
    }

    #[test]
    fn diag_extraction() {
        assert_eq!(small().diag(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn norms_and_rho() {
        let m = small();
        assert_eq!(m.norm_inf(), 4.0);
        assert!((m.rho() - 4.0 / 3.0).abs() < 1e-15);
        // rho2 = max_l (1/3) * sum A_lr^2; middle row: (1+4+1)/3 = 2
        assert!((m.rho2() - 2.0).abs() < 1e-15);
        assert!((m.norm_frobenius() - (4.0f64 * 3.0 + 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn a_norm_positive_definite() {
        let m = small();
        let x = vec![1.0, 2.0, 3.0];
        let anorm2 = m.a_norm_sq(&x);
        // x^T A x for the 1D Laplacian is sum of squared differences scaled.
        assert!(anorm2 > 0.0);
        assert!((m.a_norm(&x).powi(2) - anorm2).abs() < 1e-12);
        // (x, y)_A symmetric in x, y for symmetric A
        let y = vec![-1.0, 0.5, 2.0];
        assert!((m.a_inner(&x, &y) - m.a_inner(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn residual_zero_at_solution() {
        let m = small();
        let x = vec![1.0, 2.0, 1.5];
        let b = m.matvec(&x);
        let r = m.residual(&b, &x);
        assert!(crate::dense::norm2(&r) < 1e-14);
    }

    #[test]
    fn spmm_matches_matvec_per_column() {
        let m = small();
        let xs = [vec![1.0, 0.0, 0.0], vec![0.5, -1.0, 2.0]];
        let mut xblk = RowMajorMat::zeros(3, 2);
        for (j, x) in xs.iter().enumerate() {
            xblk.set_col(j, x);
        }
        let mut yblk = RowMajorMat::zeros(3, 2);
        m.spmm_into(&xblk, &mut yblk);
        for (j, x) in xs.iter().enumerate() {
            let y = m.matvec(x);
            assert_eq!(yblk.col(j), y);
        }
    }

    #[test]
    fn residual_block_zero_at_solution() {
        let m = small();
        let mut x = RowMajorMat::zeros(3, 2);
        x.set_col(0, &[1.0, 2.0, 3.0]);
        x.set_col(1, &[-1.0, 0.0, 1.0]);
        let mut b = RowMajorMat::zeros(3, 2);
        m.spmm_into(&x, &mut b);
        let r = m.residual_block(&b, &x);
        assert!(r.frobenius_norm() < 1e-14);
    }

    #[test]
    fn row_nnz_stats() {
        let m = small();
        assert_eq!(m.row_nnz_bounds(), (2, 3));
        assert!((m.mean_row_nnz() - 7.0 / 3.0).abs() < 1e-15);
        assert_eq!(m.row_nnz(1), 3);
    }

    #[test]
    fn from_raw_parts_validates() {
        // bad row_ptr length
        assert!(CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // col out of bounds
        assert!(CsrMatrix::from_raw_parts(1, 1, vec![0, 1], vec![1], vec![1.0]).is_err());
        // unsorted columns
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // valid
        assert!(CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 1.0]).is_ok());
    }

    #[test]
    fn to_dense_roundtrip() {
        let d = [2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0];
        let m = CsrMatrix::from_dense(3, 3, &d);
        assert_eq!(m.to_dense(), d.to_vec());
    }

    #[test]
    fn scale_values_works() {
        let mut m = small();
        m.scale_values(2.0);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(1, 0), -2.0);
    }

    #[test]
    fn dominance_margin_identity_is_one() {
        assert_eq!(CsrMatrix::identity(4).dominance_margin(), Some(1.0));
    }

    #[test]
    fn dominance_margin_takes_the_worst_row() {
        // Row 0: (2 - 1)/2 = 0.5; row 1: (4 - 1 - 2)/4 = 0.25; row 2:
        // (2 - 1)/2 = 0.5 — the margin is the minimum over rows.
        let m = CsrMatrix::from_dense(3, 3, &[2.0, -1.0, 0.0, -1.0, 4.0, -2.0, 0.0, -1.0, 2.0]);
        assert_eq!(m.dominance_margin(), Some(0.25));
        // Off-diagonal mass above the diagonal goes negative.
        let w = CsrMatrix::from_dense(2, 2, &[1.0, 3.0, 0.0, 1.0]);
        assert_eq!(w.dominance_margin(), Some(-2.0));
    }

    #[test]
    fn dominance_margin_undefined_cases() {
        let rect = CsrMatrix::from_dense(2, 3, &[1.0; 6]);
        assert_eq!(rect.dominance_margin(), None);
        let zero_diag = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 2.0]);
        assert_eq!(zero_diag.dominance_margin(), None);
    }
}
