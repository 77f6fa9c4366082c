//! Typed solve errors — the fallible boundary of every public solve path.
//!
//! Historically each entry point `assert!`-panicked on bad input, which is
//! unusable as a service boundary: a malformed request must surface as a
//! value the caller can match on, log, and map to a protocol error, not as
//! a thread abort. [`SolveError`] is that value. Its `Display` text keeps
//! the historical panic messages, so a caller that still wants a panic can
//! `unwrap_or_else(|e| panic!("{e}"))` and match the old text verbatim.
//!
//! Every variant corresponds to exactly one validation rule, checked
//! **before** any output buffer is touched: a rejected solve leaves `x`
//! bitwise untouched.

use std::fmt;

/// Why a solve was rejected before any work was done.
///
/// Returned by every `*_solve_in` and `try_*` entry point and by the
/// session layer in the facade crate. The `Display` text of each variant
/// matches the historical panic message of the `assert!` it replaced.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The operator/right-hand-side/solution shapes do not conform (not
    /// square, mismatched lengths, non-conforming blocks, or a
    /// solver-specific structural constraint such as more partition blocks
    /// than unknowns).
    DimensionMismatch {
        /// The entry point that rejected the input.
        solver: &'static str,
        /// Human-readable description of the offending dimension.
        detail: String,
    },
    /// A diagonal entry violates the solver's requirement (positive for
    /// the SPD Gauss-Seidel family, nonzero for Jacobi).
    ZeroDiagonal {
        /// Index of the offending diagonal entry.
        index: usize,
        /// The offending value.
        value: f64,
        /// Whether strict positivity (not just nonzero) was required.
        needs_positive: bool,
    },
    /// The relaxation step size is outside the open interval `(0, 2)`.
    InvalidBeta {
        /// The rejected value.
        beta: f64,
    },
    /// The Jacobi damping factor is outside `(0, 1]`.
    InvalidDamping {
        /// The rejected value.
        damping: f64,
    },
    /// A parallel solver was asked to run on zero worker threads.
    ZeroThreads,
    /// The system is empty (`0 x 0` matrix).
    EmptySystem {
        /// The entry point that rejected the input.
        solver: &'static str,
    },
    /// A session method was called on a solver family that does not
    /// support it (e.g. a square-system `solve` on an RCD least-squares
    /// session).
    MethodMismatch {
        /// The method that was called.
        called: &'static str,
        /// The solver family the session was built for.
        family: &'static str,
    },
    /// The solve was cancelled through a
    /// [`CancelToken`](crate::driver::CancelToken) before it reached its
    /// target; the caller's output buffer is untouched.
    Cancelled,
    /// The job's deadline passed before the solve reached its target; the
    /// caller's output buffer is untouched.
    DeadlineExceeded {
        /// Milliseconds the job had between submission and its deadline.
        budget_ms: u64,
    },
    /// The solve panicked inside a scheduler dispatch; the panic was
    /// contained (the runner thread survives) and the caller's output
    /// buffer is untouched.
    DispatchPanic {
        /// The panic message, when it was a string payload.
        detail: String,
    },
    /// A non-finite (NaN or infinite) value was found in the caller's
    /// input — matrix values, right-hand side, or initial iterate — at
    /// the solve boundary; the caller's output buffer is untouched.
    NonFiniteInput {
        /// Which entry point and argument rejected the value, e.g.
        /// `"asyrgs_solve: right-hand side b"`.
        location: String,
        /// Index of the first offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The numerical health watchdog found a non-finite entry in the
    /// iterate at a quiescent observation point; the caller's output
    /// buffer is untouched.
    NonFiniteDetected {
        /// The solver whose watchdog tripped.
        solver: &'static str,
        /// The observation (epoch) index at which the entry was seen.
        epoch: usize,
        /// Index of the first non-finite iterate entry.
        index: usize,
    },
    /// The watchdog observed the relative residual growing by at least
    /// the configured divergence factor over its sliding window; the
    /// caller's output buffer is untouched.
    Diverged {
        /// The observation (epoch) index at which divergence was declared.
        epoch: usize,
        /// The relative residual that tripped the check.
        rel_residual: f64,
        /// The window baseline the residual was compared against.
        baseline: f64,
    },
    /// The watchdog observed no meaningful residual progress over its
    /// stall window; the caller's output buffer is untouched.
    Stalled {
        /// The observation (epoch) index at which stagnation was declared.
        epoch: usize,
        /// Number of consecutive observations without sufficient progress.
        window: usize,
        /// The relative residual at the stall point.
        rel_residual: f64,
    },
    /// A Krylov recurrence broke down: a pivot scalar (BiCGSTAB's ρ or ω,
    /// or a GMRES Hessenberg subdiagonal) fell to numerical zero before
    /// the target residual was reached, so the recurrence cannot continue.
    /// The caller's output buffer is untouched.
    Breakdown {
        /// Which scalar collapsed, e.g. `"rho"`, `"omega"`, `"h_subdiag"`.
        kind: &'static str,
        /// The outer iteration at which the breakdown was detected.
        iteration: usize,
    },
    /// A scheduled job tripped the watchdog repeatedly and exhausted its
    /// retry budget (or its tenant's); it is quarantined and will not be
    /// retried. The caller's output buffer is untouched.
    Quarantined {
        /// How many solve attempts were made before quarantine.
        attempts: u32,
        /// The watchdog error from the final attempt.
        last_error: Box<SolveError>,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DimensionMismatch { solver, detail } => {
                write!(f, "{solver}: {detail}")
            }
            SolveError::ZeroDiagonal {
                index,
                value,
                needs_positive,
            } => {
                if *needs_positive {
                    write!(f, "diagonal entry {index} must be positive, got {value}")
                } else {
                    write!(f, "zero diagonal entry {index}")
                }
            }
            SolveError::InvalidBeta { beta } => {
                write!(f, "beta must lie in (0, 2), got {beta}")
            }
            SolveError::InvalidDamping { damping } => {
                write!(f, "damping in (0,1], got {damping}")
            }
            SolveError::ZeroThreads => write!(f, "need at least one thread"),
            SolveError::EmptySystem { solver } => {
                write!(f, "{solver}: the system is empty (0 x 0 matrix)")
            }
            SolveError::MethodMismatch { called, family } => {
                write!(f, "{called} is not supported by the {family} solver family")
            }
            SolveError::Cancelled => write!(f, "solve cancelled before completion"),
            SolveError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded ({budget_ms} ms budget)")
            }
            SolveError::DispatchPanic { detail } => {
                write!(f, "solve panicked during dispatch: {detail}")
            }
            SolveError::NonFiniteInput {
                location,
                index,
                value,
            } => {
                write!(f, "{location}: non-finite value {value} at index {index}")
            }
            SolveError::NonFiniteDetected {
                solver,
                epoch,
                index,
            } => {
                write!(
                    f,
                    "{solver}: watchdog found non-finite iterate entry {index} at epoch {epoch}"
                )
            }
            SolveError::Diverged {
                epoch,
                rel_residual,
                baseline,
            } => {
                write!(
                    f,
                    "watchdog: residual diverged at epoch {epoch} \
                     (rel residual {rel_residual:.3e}, window baseline {baseline:.3e})"
                )
            }
            SolveError::Stalled {
                epoch,
                window,
                rel_residual,
            } => {
                write!(
                    f,
                    "watchdog: no residual progress over {window} observations \
                     at epoch {epoch} (rel residual {rel_residual:.3e})"
                )
            }
            SolveError::Breakdown { kind, iteration } => {
                write!(
                    f,
                    "krylov breakdown: {kind} vanished at iteration {iteration}"
                )
            }
            SolveError::Quarantined {
                attempts,
                last_error,
            } => {
                write!(f, "job quarantined after {attempts} attempts: {last_error}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_historical_messages() {
        let e = SolveError::DimensionMismatch {
            solver: "rgs_solve",
            detail: "matrix must be square, got 3 x 4".into(),
        };
        assert_eq!(e.to_string(), "rgs_solve: matrix must be square, got 3 x 4");
        assert_eq!(
            SolveError::InvalidBeta { beta: 2.5 }.to_string(),
            "beta must lie in (0, 2), got 2.5"
        );
        assert_eq!(
            SolveError::ZeroThreads.to_string(),
            "need at least one thread"
        );
        assert_eq!(
            SolveError::ZeroDiagonal {
                index: 3,
                value: -1.0,
                needs_positive: true
            }
            .to_string(),
            "diagonal entry 3 must be positive, got -1"
        );
        assert_eq!(
            SolveError::ZeroDiagonal {
                index: 7,
                value: 0.0,
                needs_positive: false
            }
            .to_string(),
            "zero diagonal entry 7"
        );
    }

    #[test]
    fn scheduler_variants_display() {
        assert_eq!(
            SolveError::Cancelled.to_string(),
            "solve cancelled before completion"
        );
        assert_eq!(
            SolveError::DeadlineExceeded { budget_ms: 250 }.to_string(),
            "deadline exceeded (250 ms budget)"
        );
        assert_eq!(
            SolveError::DispatchPanic {
                detail: "boom".into()
            }
            .to_string(),
            "solve panicked during dispatch: boom"
        );
    }

    #[test]
    fn watchdog_variants_display() {
        assert_eq!(
            SolveError::NonFiniteInput {
                location: "asyrgs_solve: right-hand side b".into(),
                index: 4,
                value: f64::NAN,
            }
            .to_string(),
            "asyrgs_solve: right-hand side b: non-finite value NaN at index 4"
        );
        assert_eq!(
            SolveError::NonFiniteDetected {
                solver: "asyrgs_solve",
                epoch: 3,
                index: 17,
            }
            .to_string(),
            "asyrgs_solve: watchdog found non-finite iterate entry 17 at epoch 3"
        );
        assert_eq!(
            SolveError::Diverged {
                epoch: 9,
                rel_residual: 120.0,
                baseline: 1.0,
            }
            .to_string(),
            "watchdog: residual diverged at epoch 9 (rel residual 1.200e2, window baseline 1.000e0)"
        );
        assert_eq!(
            SolveError::Stalled {
                epoch: 12,
                window: 8,
                rel_residual: 0.5,
            }
            .to_string(),
            "watchdog: no residual progress over 8 observations at epoch 12 (rel residual 5.000e-1)"
        );
        assert_eq!(
            SolveError::Quarantined {
                attempts: 3,
                last_error: Box::new(SolveError::Diverged {
                    epoch: 2,
                    rel_residual: 7.0,
                    baseline: 1.0
                }),
            }
            .to_string(),
            "job quarantined after 3 attempts: watchdog: residual diverged at epoch 2 \
             (rel residual 7.000e0, window baseline 1.000e0)"
        );
    }

    #[test]
    fn breakdown_variant_displays() {
        assert_eq!(
            SolveError::Breakdown {
                kind: "rho",
                iteration: 17,
            }
            .to_string(),
            "krylov breakdown: rho vanished at iteration 17"
        );
        assert_eq!(
            SolveError::Breakdown {
                kind: "omega",
                iteration: 0,
            }
            .to_string(),
            "krylov breakdown: omega vanished at iteration 0"
        );
    }

    #[test]
    fn is_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(SolveError::ZeroThreads);
        let boxed: Box<dyn std::error::Error> = Box::new(SolveError::EmptySystem { solver: "t" });
        assert!(boxed.to_string().contains("empty"));
    }

    #[test]
    fn variants_are_matchable() {
        let e = SolveError::InvalidDamping { damping: 1.5 };
        match e {
            SolveError::InvalidDamping { damping } => assert_eq!(damping, 1.5),
            _ => panic!("wrong variant"),
        }
    }
}
