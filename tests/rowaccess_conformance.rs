//! `RowAccess` backend conformance: for the same logical matrix, the CSR,
//! dense `RowMajorMat`, and zero-copy `UnitDiagonalView` backends must
//! agree **bitwise** on every trait surface the solvers touch —
//! `visit_row`, `row_nnz`, `row_dot`, and `row_entry` — including the
//! ragged, empty-row, and single-entry shapes the generators never emit
//! but callers can. The CSR override of `is_symmetric` must give the
//! verdict of the trait's generic walk on every scenario and edge case.
//!
//! Bitwise (not approximate) agreement is what lets the session layer and
//! the delay-model executors swap backends without changing a single
//! iterate; the scenario matrix relies on it.

mod common;

use asyrgs::session::{operator_is_symmetric, SYMMETRY_TOL};
use asyrgs::sparse::{
    CooBuilder, CsrMatrix, LinearOperator, RowAccess, RowMajorMat, UnitDiagonal, UnitDiagonalView,
};

/// Deterministic dense probe vector with mixed signs and magnitudes.
fn probe(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (((i * 29) % 13) as f64 - 6.0) * 0.37 + ((i % 3) as f64) * 1e-3)
        .collect()
}

/// Assert full `RowAccess` agreement between two backends.
fn assert_conformant<A: RowAccess, B: RowAccess>(a: &A, b: &B, label: &str) {
    assert_eq!(a.n_rows(), b.n_rows(), "{label}: row count");
    assert_eq!(a.n_cols(), b.n_cols(), "{label}: col count");
    let x = probe(a.n_cols());
    for i in 0..a.n_rows() {
        assert_eq!(a.row_nnz(i), b.row_nnz(i), "{label}: row_nnz({i})");
        let mut ea: Vec<(usize, f64)> = Vec::new();
        a.visit_row(i, |c, v| ea.push((c, v)));
        let mut eb: Vec<(usize, f64)> = Vec::new();
        b.visit_row(i, |c, v| eb.push((c, v)));
        // Bitwise: compare the f64 bit patterns, not approximate values.
        assert_eq!(ea.len(), eb.len(), "{label}: visit_row({i}) length");
        for ((ca, va), (cb, vb)) in ea.iter().zip(&eb) {
            assert_eq!(ca, cb, "{label}: visit_row({i}) column order");
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{label}: visit_row({i}) value {va} vs {vb}"
            );
        }
        assert_eq!(
            a.row_dot(i, &x).to_bits(),
            b.row_dot(i, &x).to_bits(),
            "{label}: row_dot({i})"
        );
        for j in 0..a.n_cols() {
            assert_eq!(
                a.row_entry(i, j).to_bits(),
                b.row_entry(i, j).to_bits(),
                "{label}: row_entry({i},{j})"
            );
        }
    }
}

/// A ragged general matrix: empty rows, single-entry rows, a full row,
/// values spanning signs and magnitudes. No explicitly stored zeros (the
/// dense backend, by construction, cannot represent those).
fn ragged() -> CsrMatrix {
    let mut coo = CooBuilder::new(7, 5);
    // Row 0: empty.
    // Row 1: single entry, negative.
    coo.push(1, 3, -2.5).unwrap();
    // Row 2: full row.
    for j in 0..5 {
        coo.push(2, j, (j as f64 + 1.0) * 0.1).unwrap();
    }
    // Row 3: two entries at the edges.
    coo.push(3, 0, 1e-8).unwrap();
    coo.push(3, 4, 1e8).unwrap();
    // Row 4: empty.
    // Row 5: single entry on the last column.
    coo.push(5, 4, 3.75).unwrap();
    // Row 6: a couple of mid-row entries.
    coo.push(6, 1, -0.125).unwrap();
    coo.push(6, 2, 0.5).unwrap();
    coo.to_csr()
}

#[test]
fn csr_and_dense_agree_on_ragged_shapes() {
    let m = ragged();
    let d = RowMajorMat::from_vec(m.n_rows(), m.n_cols(), m.to_dense());
    assert_conformant(&m, &d, "ragged csr-vs-dense");
    // Empty rows really are empty on both backends.
    assert_eq!(RowAccess::row_nnz(&m, 0), 0);
    assert_eq!(RowAccess::row_nnz(&d, 0), 0);
    assert_eq!(
        RowAccess::row_dot(&m, 4, &probe(5)).to_bits(),
        0.0f64.to_bits()
    );
}

#[test]
fn csr_and_dense_agree_on_single_entry_matrix() {
    let mut coo = CooBuilder::new(1, 1);
    coo.push(0, 0, -7.25).unwrap();
    let m = coo.to_csr();
    let d = RowMajorMat::from_vec(1, 1, m.to_dense());
    assert_conformant(&m, &d, "1x1");
    assert_eq!(m.row_entry(0, 0), -7.25);
}

#[test]
fn csr_and_dense_agree_on_spd_workloads() {
    let (a, _, _) = common::laplace_problem(6);
    let d = RowMajorMat::from_vec(a.n_rows(), a.n_cols(), a.to_dense());
    assert_conformant(&a, &d, "laplace2d csr-vs-dense");
    let (s, _) = common::spd_problem(40);
    let sd = RowMajorMat::from_vec(40, 40, s.to_dense());
    assert_conformant(&s, &sd, "diag_dominant csr-vs-dense");
}

#[test]
fn view_materialized_and_dense_triple_agree() {
    // Three backends of the *rescaled* system D B D: the zero-copy view
    // over B, the materialized CSR, and the dense copy of the
    // materialized CSR — all bitwise identical.
    let (b_mat, _) = common::spd_problem(30);
    let u = UnitDiagonal::from_spd(&b_mat).expect("SPD");
    let view = UnitDiagonalView::new(&b_mat).expect("SPD");
    assert_conformant(&view, &u.a, "view-vs-materialized");
    let dense = RowMajorMat::from_vec(30, 30, u.a.to_dense());
    assert_conformant(&view, &dense, "view-vs-dense");
}

#[test]
fn reference_delegation_is_transparent() {
    // `&T` must forward every RowAccess method unchanged.
    let m = ragged();
    assert_conformant(&m, &&m, "csr-vs-&csr");
}

#[test]
fn scenario_backends_conform() {
    // The corpus's own backend pairs: every small square scenario must
    // hand out conformant CSR/view (and, where present, dense) backends.
    for sc in asyrgs::workloads::scenarios::smoke_scenarios() {
        let built = sc.build();
        if !built.a.is_square() {
            continue;
        }
        let view = built.unit_view().expect("square SPD scenario");
        let u = UnitDiagonal::from_spd(&built.a).expect("SPD scenario");
        assert_conformant(&view, &u.a, sc.name);
        if let Some(dense) = built.dense() {
            assert_conformant(&built.a, &dense, sc.name);
        }
    }
}

/// A CSR matrix behind only the required `RowAccess` method, so every
/// provided method — `is_symmetric` included — runs the trait's generic
/// default instead of the CSR override.
struct GenericRows<'a>(&'a CsrMatrix);

impl LinearOperator for GenericRows<'_> {
    fn n_rows(&self) -> usize {
        self.0.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.0.n_cols()
    }

    fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        self.0.matvec_into(x, y)
    }

    fn diag(&self) -> Vec<f64> {
        self.0.diag()
    }
}

impl RowAccess for GenericRows<'_> {
    fn visit_row<F: FnMut(usize, f64)>(&self, i: usize, f: F) {
        RowAccess::visit_row(self.0, i, f)
    }
}

/// The symmetry verdict on `a` at `tol`, after asserting that the CSR
/// merge pass, the generic walk and the session's admission check (also
/// through `&CsrMatrix`) all give it.
fn symmetry_verdict(a: &CsrMatrix, tol: f64, label: &str) -> bool {
    let merged = a.is_symmetric(tol);
    assert_eq!(
        merged,
        GenericRows(a).is_symmetric(tol),
        "{label}: CSR merge pass vs generic walk at tol {tol:e}"
    );
    assert_eq!(merged, operator_is_symmetric(a, tol), "{label}: session");
    assert_eq!(
        merged,
        operator_is_symmetric(&a, tol),
        "{label}: &CsrMatrix"
    );
    merged
}

#[test]
fn symmetry_override_matches_generic_walk_on_every_scenario() {
    let (mut symmetric, mut nonsymmetric) = (0, 0);
    for sc in asyrgs::workloads::scenarios::all_scenarios() {
        let built = sc.build();
        for tol in [0.0, 1e-12, 1e-3] {
            symmetry_verdict(&built.a, tol, sc.name);
        }
        if !built.a.is_square() {
            continue;
        }
        if symmetry_verdict(&built.a, SYMMETRY_TOL, sc.name) {
            symmetric += 1;
            // A one-sided perturbation of a stored off-diagonal entry is
            // caught by both.
            let mut bumped = built.a.clone();
            let k = (0..bumped.n_rows())
                .flat_map(|i| (bumped.row_ptr()[i]..bumped.row_ptr()[i + 1]).map(move |k| (i, k)))
                .find(|&(i, k)| bumped.col_idx()[k] != i)
                .map(|(_, k)| k)
                .expect("an off-diagonal entry");
            bumped.values_mut()[k] += 1e-6;
            assert!(!symmetry_verdict(&bumped, SYMMETRY_TOL, sc.name));
        } else {
            nonsymmetric += 1;
        }
    }
    assert!(
        symmetric > 0 && nonsymmetric > 0,
        "{symmetric} / {nonsymmetric}"
    );
}

/// `n_rows x n_cols` CSR from `(row, col, value)` triples in row-major order,
/// stored as given (explicit zeros included).
fn csr(n_rows: usize, n_cols: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut row_ptr = vec![0; n_rows + 1];
    for &(i, _, _) in entries {
        row_ptr[i + 1] += 1;
    }
    for i in 0..n_rows {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col_idx = entries.iter().map(|e| e.1).collect();
    let vals = entries.iter().map(|e| e.2).collect();
    CsrMatrix::from_raw_parts(n_rows, n_cols, row_ptr, col_idx, vals).expect("valid CSR")
}

#[test]
fn symmetry_override_matches_generic_walk_on_edge_cases() {
    // A symmetric 5x5 pattern with paired entries (0,1)/(1,0) and
    // (1,4)/(4,1), plus one unpaired entry `d` placed where each branch
    // of the merge pass meets it: an upper entry the cursor skips on the
    // way to a later partner (1,2), an upper entry left at the end
    // (0,3), and a lower entry with no upper partner (3,2).
    let d = 1e-9;
    let with_unpaired = |at: (usize, usize)| {
        let mut e = vec![
            (0, 0, 4.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 4, -0.5),
            (2, 2, 4.0),
            (3, 3, 4.0),
            (4, 1, -0.5),
            (4, 4, 4.0),
            (at.0, at.1, d),
        ];
        e.sort_by_key(|&(i, j, _)| (i, j));
        csr(5, 5, &e)
    };
    let below = f64::from_bits(d.to_bits() - 1);
    for at in [(1, 2), (0, 3), (3, 2)] {
        let a = with_unpaired(at);
        let label = format!("unpaired {at:?}");
        assert!(symmetry_verdict(&a, d, &label), "{label}: |d| <= tol");
        assert!(!symmetry_verdict(&a, below, &label), "{label}: |d| > tol");
    }
    // Paired entries just inside and just outside the tolerance.
    let a = csr(2, 2, &[(0, 0, 1.0), (0, 1, 0.5), (1, 0, 0.25), (1, 1, 1.0)]);
    assert!(symmetry_verdict(&a, 0.25, "pair inside"));
    assert!(!symmetry_verdict(
        &a,
        f64::from_bits(0.25f64.to_bits() - 1),
        "pair outside"
    ));

    // Explicitly stored zeros: a stored zero partners a missing entry,
    // and a stored zero against a nonzero is still a violation.
    let a = csr(3, 3, &[(0, 0, 1.0), (0, 2, 0.0), (1, 1, 1.0), (2, 2, 1.0)]);
    assert!(symmetry_verdict(&a, 0.0, "stored zero, unpaired"));
    let a = csr(
        3,
        3,
        &[
            (0, 0, 1.0),
            (0, 2, 1e-3),
            (1, 1, 1.0),
            (2, 0, 0.0),
            (2, 2, 1.0),
        ],
    );
    assert!(!symmetry_verdict(&a, 1e-4, "stored zero vs nonzero"));
    assert!(symmetry_verdict(
        &a,
        1e-3,
        "stored zero vs nonzero, wide tol"
    ));

    // Empty rows, symmetric around them and not.
    let a = csr(4, 4, &[(0, 0, 2.0), (0, 3, 1.0), (3, 0, 1.0)]);
    assert!(symmetry_verdict(&a, 0.0, "empty rows"));
    let a = csr(4, 4, &[(0, 2, 1.0), (3, 3, 1.0)]);
    assert!(!symmetry_verdict(&a, 0.5, "empty partner row"));
    assert!(symmetry_verdict(
        &CsrMatrix::from_dense(0, 0, &[]),
        0.0,
        "0x0"
    ));

    // 1x1, and rectangular (never symmetric, at any tolerance).
    assert!(symmetry_verdict(&csr(1, 1, &[(0, 0, -7.25)]), 0.0, "1x1"));
    let rect = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
    assert!(!symmetry_verdict(&rect, f64::INFINITY, "2x3"));

    // NaN is never a violation: against a stored partner, unpaired, and
    // on the diagonal.
    for e in [
        vec![(0, 0, 1.0), (0, 1, f64::NAN), (1, 0, 1.0), (1, 1, 1.0)],
        vec![(0, 0, 1.0), (1, 0, f64::NAN), (1, 1, 1.0)],
        vec![(0, 0, f64::NAN), (1, 1, 1.0)],
    ] {
        assert!(symmetry_verdict(&csr(2, 2, &e), 0.0, "NaN entry"));
    }
}
