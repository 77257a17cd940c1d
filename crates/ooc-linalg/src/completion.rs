//! Completion of partial loop-transformation matrices.
//!
//! The paper determines only the *last column* of the inverse loop
//! transformation matrix `Q` (the column that decides which direction
//! the innermost loop sweeps through the data). The rest of `Q` is
//! "completed" into a full non-singular matrix using the method of Bik
//! and Wijshoff: extend the given column to a unimodular basis via
//! extended-gcd column operations.
//!
//! [`complete_last_column`] returns the canonical completion;
//! [`completion_candidates`] enumerates a family of alternative legal
//! completions (permutations/negations of the free columns) from which
//! the optimizer can pick one that also satisfies data-dependence
//! legality (checked by the caller against `T = Q⁻¹`).

use crate::gcd::{gcd_slice, primitive};
use crate::matrix::Matrix;
use crate::rational::Rational;

/// Extends a primitive integer vector `v` (gcd of entries = 1) to a
/// unimodular matrix whose **first column** is `v`.
///
/// Construction: find unimodular `U` with `U v = e₁` by chaining 2×2
/// extended-gcd row rotations; then `U⁻¹` is unimodular with first
/// column `U⁻¹ e₁ = v`.
///
/// # Panics
/// Panics if `v` is zero or not primitive.
#[must_use]
fn extend_to_unimodular_first_col(v: &[i64]) -> Matrix {
    let k = v.len();
    assert!(k > 0, "empty vector");
    assert_eq!(gcd_slice(v).abs(), 1, "vector {v:?} is not primitive");
    let mut work: Vec<i64> = v.to_vec();
    let mut u = Matrix::identity(k);
    for i in 1..k {
        if work[i] == 0 {
            continue;
        }
        let (g, x, y) = crate::gcd::extended_gcd(work[0], work[i]);
        // Row op on rows 0 and i:
        //   row0 <- x*row0 + y*rowi
        //   rowi <- -(work[i]/g)*row0_old + (work[0]/g)*rowi_old
        // Block determinant = (x*work[0] + y*work[i]) / g = 1.
        let (a, b) = (work[0] / g, work[i] / g);
        for c in 0..k {
            let r0 = u[(0, c)];
            let ri = u[(i, c)];
            u[(0, c)] = Rational::from(x) * r0 + Rational::from(y) * ri;
            u[(i, c)] = Rational::from(-b) * r0 + Rational::from(a) * ri;
        }
        work[0] = g;
        work[i] = 0;
    }
    debug_assert_eq!(work[0].abs(), 1);
    if work[0] == -1 {
        // Flip row 0 so U v = +e1 exactly.
        for c in 0..k {
            let r0 = u[(0, c)];
            u[(0, c)] = -r0;
        }
    }
    let m = u.inverse().expect("U is unimodular, hence invertible");
    debug_assert!(m.is_unimodular());
    debug_assert_eq!(
        m.col(0),
        v.iter().map(|&x| Rational::from(x)).collect::<Vec<_>>()
    );
    m
}

/// Completes a desired **last column** `q_k` into a full unimodular
/// matrix `Q` (the paper's inverse loop-transformation matrix).
///
/// The input need not be primitive; it is first reduced by the gcd of
/// its entries (scaling the innermost traversal direction does not
/// change which hyperplane it sweeps).
///
/// # Panics
/// Panics if `v` is the zero vector.
#[must_use]
pub fn complete_last_column(v: &[i64]) -> Matrix {
    let p = primitive(v);
    assert!(p.iter().any(|&x| x != 0), "cannot complete the zero vector");
    let k = p.len();
    let first = extend_to_unimodular_first_col(&p);
    // Rotate columns so the given vector lands in the last position:
    // columns (v, b2, ..., bk) -> (b2, ..., bk, v).
    let mut q = Matrix::zero(k, k);
    for j in 1..k {
        q.set_col(j - 1, &first.col(j));
    }
    q.set_col(k - 1, &first.col(0));
    debug_assert!(q.is_unimodular());
    q
}

/// Enumerates a family of unimodular completions whose last column is
/// (a scalar reduction of) `v`.
///
/// The family consists of the canonical completion with its free
/// columns permuted and negated; this gives the dependence-legality
/// search in the optimizer multiple orderings of the outer loops to
/// try. At most `limit` candidates are returned.
#[must_use]
pub fn completion_candidates(v: &[i64], limit: usize) -> Vec<Matrix> {
    let _span = ooc_trace::enabled().then(|| ooc_trace::span("compiler", "bik-wijshoff"));
    let base = complete_last_column(v);
    let k = base.rows();
    let free = k - 1;
    let mut out = Vec::new();
    // All permutations of the free columns (k <= 8 in practice, and the
    // caller's limit keeps this bounded).
    let mut perm: Vec<usize> = (0..free).collect();
    permute_all(&mut perm, 0, &mut |p| {
        if out.len() >= limit {
            return;
        }
        // For each permutation, also try sign-flipping each single column
        // plus the all-positive variant.
        for flip_mask in 0..(1usize << free.min(4)) {
            if out.len() >= limit {
                return;
            }
            let mut m = Matrix::zero(k, k);
            for (dst, &src) in p.iter().enumerate() {
                let mut col = base.col(src);
                if flip_mask & (1 << dst.min(63)) != 0 {
                    for x in &mut col {
                        *x = -*x;
                    }
                }
                m.set_col(dst, &col);
            }
            m.set_col(k - 1, &base.col(k - 1));
            debug_assert!(m.is_unimodular());
            out.push(m);
        }
    });
    if ooc_trace::enabled() {
        ooc_trace::counter("completion-candidates", out.len() as f64);
    }
    out
}

fn permute_all(perm: &mut Vec<usize>, i: usize, f: &mut impl FnMut(&[usize])) {
    if i == perm.len() {
        f(perm);
        return;
    }
    for j in i..perm.len() {
        perm.swap(i, j);
        permute_all(perm, i + 1, f);
        perm.swap(i, j);
    }
    if perm.is_empty() {
        f(perm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_col_extension() {
        for v in [
            vec![1, 0],
            vec![0, 1],
            vec![1, 1],
            vec![2, 3],
            vec![3, -2],
            vec![1, 0, 0],
            vec![0, 0, 1],
            vec![2, 3, 5],
            vec![6, 10, 15],
            vec![-1, 1],
        ] {
            let m = extend_to_unimodular_first_col(&v);
            assert!(m.is_unimodular(), "not unimodular for {v:?}:\n{m}");
            for (i, &x) in v.iter().enumerate() {
                assert_eq!(
                    m[(i, 0)],
                    Rational::from(x),
                    "first column mismatch for {v:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not primitive")]
    fn non_primitive_rejected() {
        let _ = extend_to_unimodular_first_col(&[2, 4]);
    }

    #[test]
    fn last_col_completion() {
        for v in [
            vec![0, 1],
            vec![1, 0],
            vec![1, 1],
            vec![4, 6], // non-primitive: reduced to (2, 3)
            vec![0, 0, 1],
            vec![1, 2, 3],
            vec![0, 1, 0, 0],
        ] {
            let q = complete_last_column(&v);
            assert!(q.is_unimodular(), "not unimodular for {v:?}");
            let p = primitive(&v);
            let last = q.col(q.cols() - 1);
            for (i, &x) in p.iter().enumerate() {
                assert_eq!(last[i], Rational::from(x), "last column mismatch for {v:?}");
            }
        }
    }

    #[test]
    fn paper_interchange_completion() {
        // Paper §3.2.3: q_last = (1, 0)^T must complete to a matrix
        // corresponding to loop interchange, i.e. some unimodular Q with
        // last column (1, 0).
        let q = complete_last_column(&[1, 0]);
        assert!(q.is_unimodular());
        assert_eq!(q[(0, 1)], Rational::ONE);
        assert_eq!(q[(1, 1)], Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero vector")]
    fn zero_vector_rejected() {
        let _ = complete_last_column(&[0, 0]);
    }

    #[test]
    fn candidates_are_unimodular_and_share_last_col() {
        let cands = completion_candidates(&[1, 2, 3], 16);
        assert!(!cands.is_empty());
        assert!(cands.len() <= 16);
        for c in &cands {
            assert!(c.is_unimodular());
            assert_eq!(c.col(2), complete_last_column(&[1, 2, 3]).col(2));
        }
    }

    #[test]
    fn candidates_depth_one() {
        // Depth-1 nest: only the trivial completion exists.
        let cands = completion_candidates(&[1], 8);
        assert!(!cands.is_empty());
        for c in &cands {
            assert_eq!(c.rows(), 1);
            assert!(c.is_unimodular());
        }
    }

    #[test]
    fn candidates_distinct() {
        let cands = completion_candidates(&[0, 0, 1], 64);
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            seen.insert(format!("{c}"));
        }
        assert!(seen.len() > 1, "expected multiple distinct candidates");
    }
}
