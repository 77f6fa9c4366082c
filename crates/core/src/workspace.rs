//! Reusable solve scratch: the allocation-amortization substrate of the
//! session API.
//!
//! Every solver needs the same few kinds of scratch — a diagonal and its
//! inverse, a residual buffer, an iterate snapshot, an error diff, a
//! shared atomic vector for the asynchronous families, and row-major
//! blocks for multi-RHS solves. A [`SolveWorkspace`] owns one of each and
//! is threaded through the `*_solve_in` entry points, so a session that
//! solves many systems of the same size allocates on the **first** solve
//! only; every later solve reuses the buffers (capacity is retained even
//! across size changes that shrink).
//!
//! Buffers are plain scratch with no invariants: every entry point fully
//! overwrites what it reads. The struct is deliberately open (all fields
//! public) — it is a bag of buffers, not an abstraction.
//!
//! # Worked example
//!
//! One workspace, many solves — buffer reuse never changes results:
//!
//! ```
//! use asyrgs_core::asyrgs::{asyrgs_solve_in, AsyRgsOptions};
//! use asyrgs_core::workspace::SolveWorkspace;
//! use asyrgs_sparse::CsrMatrix;
//!
//! let a = CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0]);
//! let b = vec![1.0, 2.0, 3.0];
//! let opts = AsyRgsOptions { threads: 1, ..Default::default() }; // sequential RGS
//! let pool = asyrgs_parallel::WorkerPool::new(1); // one thread spawns nothing
//!
//! let mut ws = SolveWorkspace::new(); // allocation-free until first use
//! let mut x1 = vec![0.0; 3];
//! asyrgs_solve_in(&pool, &mut ws, &a, &b, &mut x1, None, &opts).unwrap();
//!
//! // Second solve through the same workspace: zero hot-path allocation,
//! // bitwise the same answer as a fresh workspace would give.
//! let mut x2 = vec![0.0; 3];
//! asyrgs_solve_in(&pool, &mut ws, &a, &b, &mut x2, None, &opts).unwrap();
//! assert_eq!(x1, x2);
//! ```

use crate::atomic::SharedVec;
use asyrgs_sparse::dense::RowMajorMat;

/// Scratch buffers reused across solves (see the module docs).
///
/// Construct once with [`SolveWorkspace::new`] (allocation-free), pass
/// `&mut` to any `*_solve_in` entry point. The first solve sizes the
/// buffers the chosen solver needs; subsequent same-size solves perform no
/// heap allocation in the hot path.
#[derive(Debug)]
pub struct SolveWorkspace {
    /// The operator diagonal.
    pub diag: Vec<f64>,
    /// The inverted diagonal.
    pub dinv: Vec<f64>,
    /// Quiescent-iterate snapshot (asynchronous solvers); the iterate
    /// itself of a one-thread AsyRGS solve.
    pub snap: Vec<f64>,
    /// Residual scratch (doubles as the A-norm matvec scratch).
    pub resid: Vec<f64>,
    /// Error diff `x - x*` for A-norm telemetry; Krylov `z` scratch.
    pub diff: Vec<f64>,
    /// General vector scratch (Jacobi's next iterate, Krylov's search
    /// direction `p`).
    pub aux: Vec<f64>,
    /// Second general vector scratch (Krylov's `A p`).
    pub aux2: Vec<f64>,
    /// Third general vector scratch (BiCGSTAB's stabilizer `t = A s_hat`).
    pub aux3: Vec<f64>,
    /// Fourth general vector scratch (BiCGSTAB's preconditioned `s_hat`).
    pub aux4: Vec<f64>,
    /// Shadow-residual scratch (BiCGSTAB's fixed `r_hat_0`).
    pub shadow: Vec<f64>,
    /// Arnoldi basis scratch (GMRES `V`), one vector per Krylov dimension.
    pub basis: Vec<Vec<f64>>,
    /// Preconditioned basis scratch (flexible GMRES `Z = M^{-1} V`).
    pub flex_basis: Vec<Vec<f64>>,
    /// Per-RHS coefficient scratch for one-thread block solves.
    pub gammas: Vec<f64>,
    /// Direction-draw batch of one-thread AsyRGS (sequential RGS), single
    /// and multi-RHS.
    pub draws: Vec<usize>,
    /// The shared atomic iterate of the asynchronous solvers.
    pub shared: SharedVec,
    /// Last iterate snapshot that passed a health check — the restart
    /// point for the session layer's recovery policies. Empty unless a
    /// solve ran with a watchdog enabled.
    pub healthy: Vec<f64>,
    /// Multi-RHS iterate-snapshot block.
    pub blk_snap: RowMajorMat,
    /// Multi-RHS residual block.
    pub blk_resid: RowMajorMat,
    /// Multi-RHS packed right-hand-side block (session `solve_many`).
    pub blk_b: RowMajorMat,
    /// Multi-RHS packed solution block (session `solve_many`).
    pub blk_x: RowMajorMat,
}

/// Resize a scratch vector to `n` entries (contents unspecified; callers
/// overwrite before reading). Retains capacity when shrinking.
pub fn resize_scratch(v: &mut Vec<f64>, n: usize) {
    v.resize(n, 0.0);
}

/// Ensure a basis scratch holds at least `count` vectors of `n` entries
/// each (contents unspecified; callers overwrite before reading). Extra
/// vectors beyond `count` are retained so a larger earlier solve keeps its
/// allocation.
pub fn resize_scratch_vecs(vs: &mut Vec<Vec<f64>>, count: usize, n: usize) {
    if vs.len() < count {
        vs.resize_with(count, Vec::new);
    }
    for v in vs.iter_mut().take(count) {
        resize_scratch(v, n);
    }
}

/// Ensure a row-major scratch block has exactly `rows x cols` shape
/// (contents unspecified; callers overwrite before reading).
pub fn resize_scratch_mat(m: &mut RowMajorMat, rows: usize, cols: usize) {
    if m.n_rows() != rows || m.n_cols() != cols {
        *m = RowMajorMat::zeros(rows, cols);
    }
}

impl SolveWorkspace {
    /// An empty workspace: no buffer is allocated until a solver first
    /// needs it.
    pub fn new() -> Self {
        SolveWorkspace {
            diag: Vec::new(),
            dinv: Vec::new(),
            snap: Vec::new(),
            resid: Vec::new(),
            diff: Vec::new(),
            aux: Vec::new(),
            aux2: Vec::new(),
            aux3: Vec::new(),
            aux4: Vec::new(),
            shadow: Vec::new(),
            basis: Vec::new(),
            flex_basis: Vec::new(),
            gammas: Vec::new(),
            draws: Vec::new(),
            shared: SharedVec::zeros(0),
            healthy: Vec::new(),
            blk_snap: RowMajorMat::zeros(0, 0),
            blk_resid: RowMajorMat::zeros(0, 0),
            blk_b: RowMajorMat::zeros(0, 0),
            blk_x: RowMajorMat::zeros(0, 0),
        }
    }
}

impl Default for SolveWorkspace {
    fn default() -> Self {
        SolveWorkspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_workspace_allocates_nothing() {
        let ws = SolveWorkspace::new();
        assert_eq!(ws.diag.capacity(), 0);
        assert_eq!(ws.resid.capacity(), 0);
        assert_eq!(ws.shared.len(), 0);
        assert_eq!(ws.blk_snap.n_rows(), 0);
    }

    #[test]
    fn resize_scratch_retains_capacity_on_shrink() {
        let mut v = Vec::new();
        resize_scratch(&mut v, 100);
        let cap = v.capacity();
        resize_scratch(&mut v, 10);
        assert_eq!(v.len(), 10);
        assert_eq!(v.capacity(), cap);
        resize_scratch(&mut v, 100);
        assert_eq!(v.capacity(), cap, "regrow within capacity: no realloc");
    }

    #[test]
    fn resize_scratch_vecs_grows_and_retains() {
        let mut vs: Vec<Vec<f64>> = Vec::new();
        resize_scratch_vecs(&mut vs, 3, 8);
        assert_eq!(vs.len(), 3);
        assert!(vs.iter().all(|v| v.len() == 8));
        let cap = vs[0].capacity();
        // A smaller later request keeps the earlier vectors (and their
        // allocation) around.
        resize_scratch_vecs(&mut vs, 2, 4);
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0].len(), 4);
        assert_eq!(vs[0].capacity(), cap);
    }

    #[test]
    fn resize_scratch_mat_keeps_same_shape_buffer() {
        let mut m = RowMajorMat::zeros(0, 0);
        resize_scratch_mat(&mut m, 4, 3);
        m.as_mut_slice()[5] = 7.0;
        resize_scratch_mat(&mut m, 4, 3);
        assert_eq!(m.as_slice()[5], 7.0, "same shape must not reallocate");
        resize_scratch_mat(&mut m, 2, 3);
        assert_eq!((m.n_rows(), m.n_cols()), (2, 3));
    }
}
