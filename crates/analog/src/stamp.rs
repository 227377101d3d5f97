//! Dense direct solve of the free-node Newton block.
//!
//! The full MNA system of a transient step has one KCL row per node and one
//! row per voltage-source branch, whose current is an extra unknown. A
//! branch row pins its driven node outright, so the transient engine
//! ([`crate::mna`]) never hands those rows to a solver: each Newton step
//! takes the driven-node updates from the branch rows and solves the
//! free-node block here, with the driven updates' coupling `−J_FD·Δv_D`
//! already folded into the right-hand side. The branch currents never
//! reach the solver: on the iteration that converges, each is recovered
//! from its driven node's KCL row. The Jacobian behind the block is
//! analytic: a linear part restamped, on its non-zero entries, when the
//! step changes, plus the MOSFETs' closed-form square-law partials. The
//! post-step KCL audit evaluates the residual alone, without the
//! Jacobian.
//!
//! Sense-amplifier testbenches leave only a handful of free nodes (6 for the
//! classic SA, 8 for the OCSA), so a dense row-major matrix with Gaussian
//! elimination and partial pivoting is both the simplest and the fastest
//! correct choice — no sparse bookkeeping, and pivoting keeps the latch's
//! near-singular high-gain moments stable.

/// Dense `A·x = b` system, solved in place.
#[derive(Debug, Clone)]
pub(crate) struct MnaSystem {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl MnaSystem {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            a: vec![0.0; n * n],
            b: vec![0.0; n],
        }
    }

    /// Row `row` of the matrix and its right-hand-side entry, for filling
    /// the system before [`MnaSystem::solve`].
    pub(crate) fn row_mut(&mut self, row: usize) -> (&mut [f64], &mut f64) {
        (
            &mut self.a[row * self.n..(row + 1) * self.n],
            &mut self.b[row],
        )
    }

    /// Solves the system in place by Gaussian elimination with partial
    /// pivoting and returns the solution, which overwrites the right-hand
    /// side; the matrix is left eliminated. Returns `None` when the matrix
    /// is numerically singular (no usable pivot).
    pub(crate) fn solve(&mut self) -> Option<&[f64]> {
        let n = self.n;
        let a = &mut self.a;
        let b = &mut self.b;
        for col in 0..n {
            // Partial pivot: largest magnitude in this column at or below
            // the diagonal.
            let mut pivot_row = col;
            let mut pivot_mag = a[col * n + col].abs();
            for row in (col + 1)..n {
                let mag = a[row * n + col].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = row;
                }
            }
            if pivot_mag < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
                b.swap(col, pivot_row);
            }
            let pivot = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[row * n + col] = 0.0;
                for k in (col + 1)..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                b[row] -= factor * b[col];
            }
        }
        // Back substitution into `b`: entries above `row` already hold
        // their solution.
        for row in (0..n).rev() {
            let mut sum = b[row];
            for k in (row + 1)..n {
                sum -= a[row * n + k] * b[k];
            }
            b[row] = sum / a[row * n + row];
        }
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills `sys` from row-major `rows` of `[a…, b]`.
    fn system(rows: &[&[f64]]) -> MnaSystem {
        let mut sys = MnaSystem::new(rows.len());
        for (r, row) in rows.iter().enumerate() {
            let (a, b) = sys.row_mut(r);
            a.copy_from_slice(&row[..rows.len()]);
            *b = row[rows.len()];
        }
        sys
    }

    #[test]
    fn resistor_divider_solves_exactly() {
        // 1 V source -> 1 kΩ -> node0 -> 1 kΩ -> ground: node0 = 0.5 V.
        // Unknowns: v0 (0), v_src (1), i_branch (2); the source branch
        // current leaves the source node's KCL row.
        let g = 1e-3;
        let mut sys = system(&[
            &[2.0 * g, -g, 0.0, 0.0],
            &[-g, g, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0],
        ]);
        let x = sys.solve().expect("non-singular");
        assert!((x[0] - 0.5).abs() < 1e-12, "divider mid = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-12);
        // Branch current: by the stamp convention it *leaves* the positive
        // node into the source, so a delivering source reads negative —
        // 1 V over 2 kΩ gives −0.5 mA.
        assert!((x[2] + 0.5e-3).abs() < 1e-12, "i_branch = {}", x[2]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        // A floating node with no conductance anywhere.
        let mut sys = system(&[&[1.0, 0.0, 0.0], &[0.0, 0.0, 0.0]]);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Pure voltage source between two nodes bridged by a conductance:
        // the branch row has a zero diagonal until pivoted.
        let mut sys = system(&[
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, -1.0, 0.0],
            &[1.0, -1.0, 0.0, 0.4],
        ]);
        let x = sys.solve().expect("pivoting succeeds");
        assert!((x[0] - x[1] - 0.4).abs() < 1e-12);
        assert!(((x[0] + x[1]) - 0.0).abs() < 1e-12, "symmetric split");
    }

    #[test]
    fn reused_system_solves_each_refill_afresh() {
        // The transient engine refills one system every Newton iteration;
        // nothing of the previous, eliminated solve may leak into the next.
        let mut sys = system(&[&[2.0, 1.0, 3.0], &[1.0, 3.0, 5.0]]);
        assert_eq!(sys.solve().expect("non-singular"), &[0.8, 1.4]);
        for (r, row) in [[4.0, 0.0, 2.0], [0.0, 0.5, 1.0]].iter().enumerate() {
            let (a, b) = sys.row_mut(r);
            a.copy_from_slice(&row[..2]);
            *b = row[2];
        }
        assert_eq!(sys.solve().expect("non-singular"), &[0.5, 2.0]);
    }
}
