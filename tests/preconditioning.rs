//! Integration tests for the Flexible-CG + AsyRGS preconditioning pipeline
//! (paper Section 9, Table 1 and Figure 3), and for the fixed form of the
//! same preconditioners that BiCGSTAB applies.

use asyrgs::krylov::{fcg_asyrgs_summary, try_bicgstab_solve, BicgstabOptions, FcgRunSummary};
use asyrgs::prelude::*;
use asyrgs::session::symmetrized;
use asyrgs::workloads::scenarios::find;
use asyrgs::workloads::{gram_matrix, laplace2d, GramParams};
use std::sync::Mutex;

#[test]
fn fcg_asyrgs_converges_on_gram_to_paper_tolerance() {
    // The paper's tolerance is 1e-8 on its Gram matrix; replicate at scale.
    let g = gram_matrix(&GramParams {
        n_terms: 300,
        n_docs: 1200,
        max_doc_len: 50,
        seed: 11,
        ..Default::default()
    })
    .matrix;
    let n = g.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) / 9.0).collect();
    let b = g.matvec(&x_true);
    let s = fcg_asyrgs_summary(&g, &b, 2, 4, 1.0, 3, &FcgOptions::default());
    assert!(s.converged, "no convergence in {} iters", s.outer_iters);
    assert!(s.outer_iters > 0);
}

#[test]
fn table1_tradeoff_shape() {
    // Table 1's qualitative shape: outer iterations decrease monotonically
    // with inner sweeps; total mat-ops are minimized at few inner sweeps
    // relative to the largest sweep counts. The two-thread runs race, so,
    // as in the paper (and the `table1` binary), each inner-sweep count
    // keeps the run with the median outer-iteration count of five.
    let a = laplace2d(20, 20);
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
    let b = a.matvec(&x_true);

    let sweeps = [30usize, 10, 3, 1];
    let summaries: Vec<FcgRunSummary> = sweeps
        .iter()
        .map(|&inner| {
            let mut runs: Vec<FcgRunSummary> = (0..5)
                .map(|trial| {
                    let s = fcg_asyrgs_summary(
                        &a,
                        &b,
                        inner,
                        2,
                        1.0,
                        42 + trial,
                        &FcgOptions::default(),
                    );
                    assert!(s.converged, "inner={inner} did not converge: {s:?}");
                    s
                })
                .collect();
            runs.sort_by_key(|s| s.outer_iters);
            runs[2]
        })
        .collect();
    // Outer iterations monotone non-increasing in inner sweeps.
    for w in summaries.windows(2) {
        assert!(
            w[0].outer_iters <= w[1].outer_iters,
            "outer iters should rise as inner sweeps fall: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
    // The 30-sweep configuration must cost more matrix passes than the
    // 3-sweep one (the paper's "Outer x (Inner + 1)" column).
    let m30 = summaries[0].mat_ops;
    let m3 = summaries[2].mat_ops;
    assert!(
        m30 > m3,
        "mat-ops at 30 inner sweeps ({m30}) should exceed 3 sweeps ({m3})"
    );
}

#[test]
fn preconditioner_quality_stable_across_thread_counts() {
    // Fig. 3 (right): the outer-iteration count does not blow up as the
    // preconditioner gets more asynchronous (more threads).
    let a = laplace2d(16, 16);
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
    let mut iters = Vec::new();
    for &threads in &[1usize, 2, 4, 8] {
        let s = fcg_asyrgs_summary(&a, &b, 2, threads, 1.0, 9, &FcgOptions::default());
        assert!(s.converged);
        iters.push(s.outer_iters);
    }
    let min = *iters.iter().min().unwrap() as f64;
    let max = *iters.iter().max().unwrap() as f64;
    assert!(
        max / min < 2.0,
        "outer iterations vary too much across thread counts: {iters:?}"
    );
}

#[test]
fn flexible_outer_required_for_variable_preconditioner() {
    // The trait contract: `apply` may vary between calls (only flexible
    // outer methods may use it), `apply_fixed` is one fixed map, and the
    // two agree for identity and Jacobi.
    let a = laplace2d(6, 6);
    let r: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 5) as f64) - 2.5).collect();
    let pool = asyrgs::parallel::pool_for(1);
    let scratch = Mutex::new(SolveWorkspace::new());
    let twice = |pre: &dyn Preconditioner, fixed: bool| {
        let mut z = [vec![0.0; r.len()], vec![0.0; r.len()]];
        for zk in &mut z {
            if fixed {
                pre.apply_fixed(&r, zk);
            } else {
                pre.apply(&r, zk);
            }
        }
        z
    };
    for spec in [
        PrecondSpec::Rgs { inner_sweeps: 2 },
        PrecondSpec::AsyRgs { inner_sweeps: 2 },
    ] {
        let pre = SpecPrecond::new(&a, spec, 1, 1.0, 1, &pool, &scratch).unwrap();
        let [v1, v2] = twice(&pre, false);
        assert_ne!(v1, v2, "{spec:?}: apply draws a fresh substream");
        let [f1, f2] = twice(&pre, true);
        assert_eq!(f1, f2, "{spec:?}: apply_fixed must not vary");
        // From a zero start, rows the pinned substream never draws would
        // stay zero; the `D^{-1} r` start covers every row.
        assert!(f1.iter().all(|&v| v != 0.0), "{spec:?}: rows left at zero");
    }
    for spec in [PrecondSpec::Identity, PrecondSpec::Jacobi] {
        let pre = SpecPrecond::new(&a, spec, 1, 1.0, 1, &pool, &scratch).unwrap();
        let [v1, v2] = twice(&pre, false);
        let [f1, _] = twice(&pre, true);
        assert!(v1 == v2 && v1 == f1, "{spec:?}: a fixed operator");
    }
    assert_eq!(twice(&IdentityPrecond, true)[0], r);
}

#[test]
fn bicgstab_applies_the_sweeps_as_a_fixed_operator() {
    // BiCGSTAB is not flexible: with sweeps that vary per application it
    // stalls at its iteration budget. Through `apply_fixed` the standalone
    // preconditioner over the symmetric part converges, beats the
    // unpreconditioned solve, and is bitwise the session's route.
    let term = Termination::sweeps(300).with_target(1e-8);
    let opts = BicgstabOptions {
        term: term.clone(),
        ..Default::default()
    };
    let pool = asyrgs::parallel::pool_for(1);
    let scratch = Mutex::new(SolveWorkspace::new());
    for name in ["conv_diff_pe_low", "conv_diff_pe_mid"] {
        let built = find(name).expect("registered").build();
        let (a, b) = (&built.a, &built.b);
        let n = a.n_rows();
        let mut x_plain = vec![0.0; n];
        let plain = try_bicgstab_solve(a, b, &mut x_plain, &IdentityPrecond, &opts).unwrap();
        assert!(plain.converged_early, "{name}: unpreconditioned");
        let sym = symmetrized(a);
        for spec in [
            PrecondSpec::Rgs { inner_sweeps: 2 },
            PrecondSpec::AsyRgs { inner_sweeps: 2 },
        ] {
            let pre = SpecPrecond::new(&sym, spec, 1, 1.0, 0x5EED, &pool, &scratch).unwrap();
            let mut x = vec![0.0; n];
            let rep = try_bicgstab_solve(a, b, &mut x, &pre, &opts).unwrap();
            assert!(
                rep.converged_early && rep.iterations < plain.iterations,
                "{name} + {spec:?}: {} iterations to {:.3e} (unpreconditioned: {})",
                rep.iterations,
                rep.final_rel_residual,
                plain.iterations
            );
            let mut y = vec![0.0; n];
            SolverBuilder::new(SolverFamily::Bicgstab)
                .preconditioner(spec)
                .threads(1)
                .term(term.clone())
                .build()
                .unwrap()
                .solve(a, b, &mut y)
                .unwrap();
            assert_eq!(x, y, "{name} + {spec:?}: standalone != session");
        }
    }
}

#[test]
fn jacobi_and_asyrgs_preconditioners_both_help_scaled_problem() {
    // On a badly scaled SPD matrix, both preconditioners beat identity.
    use asyrgs::sparse::CooBuilder;
    let n = 200;
    let mut coo = CooBuilder::new(n, n);
    for i in 0..n {
        let scale = 1.0 + (i % 10) as f64 * 10.0;
        coo.push(i, i, scale).unwrap();
        if i + 1 < n {
            coo.push(i, i + 1, -0.3).unwrap();
            coo.push(i + 1, i, -0.3).unwrap();
        }
    }
    let a = coo.to_csr();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    let run_identity = {
        let mut x = vec![0.0; n];
        try_fcg_solve(&a, &b, &mut x, &IdentityPrecond, &FcgOptions::default())
            .expect("solve failed")
            .iterations
    };
    let pool = asyrgs::parallel::pool_for(2);
    let scratch = Mutex::new(SolveWorkspace::new());
    let run = |spec| {
        let pre = SpecPrecond::new(&a, spec, 2, 1.0, 5, &pool, &scratch).unwrap();
        let mut x = vec![0.0; n];
        try_fcg_solve(&a, &b, &mut x, &pre, &FcgOptions::default())
            .expect("solve failed")
            .iterations
    };
    let run_jacobi = run(PrecondSpec::Jacobi);
    let run_asyrgs = run(PrecondSpec::AsyRgs { inner_sweeps: 3 });
    assert!(run_jacobi < run_identity, "{run_jacobi} vs {run_identity}");
    assert!(run_asyrgs < run_identity, "{run_asyrgs} vs {run_identity}");
}
