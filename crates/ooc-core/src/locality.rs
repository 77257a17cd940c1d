//! The locality algebra of the paper (§3.2): movement vectors,
//! relation (1) — layouts from a fixed loop transformation — and
//! relation (2) — loop-transformation constraints from fixed layouts.
//!
//! For a reference `L·Ī + ō` in a nest whose inverse transformation is
//! `Q`, one step of the (new) innermost loop moves the accessed
//! element by the **movement vector** `u = L·q_k` (`q_k` = last column
//! of `Q`). Spatial locality means `u` points along the file layout's
//! storage direction:
//!
//! * hyperplane layout `g` (2-D): `g·u = 0` (Claim 1);
//! * dimension-order layout: `u` is nonzero only in the layout's
//!   innermost (contiguous) dimension.
//!
//! `u = 0` is temporal locality — better still.

use ooc_ir::ArrayRef;
use ooc_linalg::{primitive, Matrix, Rational};
use ooc_runtime::FileLayout;

/// Locality classification of one reference in the innermost loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// The innermost loop does not move the reference at all.
    Temporal,
    /// The innermost loop moves along the storage order with this
    /// stride (1 = perfectly sequential).
    Spatial(i64),
    /// The innermost loop jumps across storage.
    None,
}

impl Locality {
    /// A comparable score: higher is better.
    #[must_use]
    pub fn score(&self) -> i64 {
        match self {
            Locality::Temporal => 3,
            Locality::Spatial(1) => 2,
            Locality::Spatial(_) => 1,
            Locality::None => 0,
        }
    }
}

/// The movement vector `u = L · q` of a reference for an innermost
/// column `q`, as integers; `None` when some component is fractional
/// (never the case for integer `L`, `q`).
#[must_use]
pub fn movement_i64(l: &Matrix, q_last: &[i64]) -> Option<Vec<i64>> {
    l.mul_vec_i64(q_last)
        .iter()
        .map(|r| r.as_integer().and_then(|v| i64::try_from(v).ok()))
        .collect()
}

/// Classifies the locality of a reference under `layout` when the
/// innermost loop moves it by `u`.
#[must_use]
pub fn locality_under(layout: &FileLayout, u: &[i64]) -> Locality {
    if u.iter().all(|&x| x == 0) {
        return Locality::Temporal;
    }
    match layout {
        FileLayout::DimOrder(perm) => {
            let inner = *perm.last().expect("nonempty perm");
            if u.iter().enumerate().all(|(d, &x)| d == inner || x == 0) {
                Locality::Spatial(u[inner].abs())
            } else {
                Locality::None
            }
        }
        FileLayout::Hyperplane2D(g1, g2) => {
            // On-hyperplane movement: g·u == 0.
            if g1 * u[0] + g2 * u[1] == 0 {
                // Stride along the hyperplane: one innermost iteration
                // advances |u| positions within the hyperplane's element
                // sequence (ordered by a1, spacing g2/gcd).
                let step = ooc_linalg::gcd(u[0], u[1]).max(1);
                let per = (g2 / ooc_linalg::gcd(*g1, *g2).max(1)).abs().max(1);
                Locality::Spatial((u[0].abs() / step).max(1) * per.clamp(1, 1))
            } else {
                Locality::None
            }
        }
        FileLayout::Blocked2D { .. } => {
            // Within-block locality: treat row-direction unit movement as
            // spatial (blocks are row-major inside).
            if u[0] == 0 && u[1] != 0 {
                Locality::Spatial(u[1].abs())
            } else {
                Locality::None
            }
        }
    }
}

/// Relation (1): the file layouts giving the reference spatial
/// locality for a fixed innermost column `q_k` — i.e. primitive
/// integer vectors `g ∈ Ker{L·q_k}` (2-D arrays).
///
/// Returns an empty vector when every layout works (temporal locality)
/// — the caller keeps its default — and `None` when the array is not
/// 2-D (dimension-order selection applies instead, see
/// [`dim_order_for`]).
#[must_use]
pub fn layouts_for_2d(l: &Matrix, q_last: &[i64]) -> Option<Vec<Vec<i64>>> {
    if l.rows() != 2 {
        return None;
    }
    let u = movement_i64(l, q_last).expect("integer movement");
    if u.iter().all(|&x| x == 0) {
        return Some(Vec::new()); // temporal: unconstrained
    }
    // g with g·u = 0: kernel of the 1x2 matrix [u0 u1].
    let m = Matrix::from_i64(1, 2, &u);
    Some(m.integer_nullspace())
}

/// Dimension-order layout for an array of any rank: place the single
/// moving dimension innermost (contiguous), and order the remaining
/// dimensions to mirror the loop nest — a dimension driven by a deeper
/// loop sits closer to the storage's fast end, so consecutive tiles
/// stay adjacent in the file. Returns `None` when movement spreads
/// over several dimensions (no dimension-order layout achieves
/// locality) or the reference is temporal (keep the default).
#[must_use]
pub fn dim_order_for(l: &Matrix, q_last: &[i64]) -> Option<FileLayout> {
    let u = movement_i64(l, q_last)?;
    let moving: Vec<usize> = (0..u.len()).filter(|&d| u[d] != 0).collect();
    match moving.len() {
        0 => None, // temporal — caller keeps the default layout
        1 => {
            let inner = moving[0];
            // Deepest loop level driving each dimension (-1 = none).
            let depth_of = |d: usize| -> i64 {
                (0..l.cols())
                    .rev()
                    .find(|&j| !l[(d, j)].is_zero())
                    .map_or(-1, |j| j as i64)
            };
            let mut perm: Vec<usize> = (0..u.len()).filter(|&d| d != inner).collect();
            perm.sort_by_key(|&d| depth_of(d));
            perm.push(inner);
            Some(FileLayout::DimOrder(perm))
        }
        _ => None,
    }
}

/// Relation (2): the constraint rows a fixed layout imposes on the
/// innermost column `q_k` of the inverse loop transformation — rows
/// `r` with `r·q_k = 0` required for the reference to have spatial
/// locality.
///
/// * Hyperplane layout `g`: the single row `g·L`.
/// * Dimension-order layout: one row of `L` per non-innermost layout
///   dimension (movement must vanish there).
/// * Blocked layouts constrain like their within-block row-major
///   order.
#[must_use]
pub fn loop_constraint_rows(layout: &FileLayout, r: &ArrayRef) -> Vec<Vec<Rational>> {
    let l = &r.access;
    match layout {
        FileLayout::Hyperplane2D(g1, g2) => {
            let g = [Rational::from(*g1), Rational::from(*g2)];
            vec![l.vec_mul(&g)]
        }
        FileLayout::DimOrder(perm) => {
            let inner = *perm.last().expect("nonempty perm");
            (0..l.rows())
                .filter(|&d| d != inner)
                .map(|d| l.row(d))
                .collect()
        }
        FileLayout::Blocked2D { .. } => {
            // Row-major within blocks: dimension 0 must not move.
            vec![l.row(0)]
        }
    }
}

/// Solves a set of constraint rows for candidate innermost columns:
/// the primitive integer basis of their common kernel (empty when only
/// the zero vector satisfies all constraints).
#[must_use]
pub fn innermost_candidates(rows: &[Vec<Rational>], depth: usize) -> Vec<Vec<i64>> {
    if rows.is_empty() {
        // Unconstrained: any column; offer the identity choices.
        return (0..depth)
            .rev()
            .map(|d| {
                let mut v = vec![0i64; depth];
                v[d] = 1;
                v
            })
            .collect();
    }
    let mut m = Matrix::zero(rows.len(), depth);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), depth, "constraint row arity");
        for (j, &v) in row.iter().enumerate() {
            m[(i, j)] = v;
        }
    }
    m.integer_nullspace()
        .into_iter()
        .map(|v| primitive(&v))
        .filter(|v| v.iter().any(|&x| x != 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_ir::ArrayId;

    fn l(rows: &[Vec<i64>]) -> Matrix {
        Matrix::from_rows(rows)
    }

    #[test]
    fn movement_vectors() {
        // V(j, i), q_k = (0,1): u = L·(0,1) = (1, 0) — moves along rows.
        let lv = l(&[vec![0, 1], vec![1, 0]]);
        assert_eq!(movement_i64(&lv, &[0, 1]), Some(vec![1, 0]));
        // U(i, j), q_k = (0,1): u = (0, 1) — moves along columns.
        let lu = l(&[vec![1, 0], vec![0, 1]]);
        assert_eq!(movement_i64(&lu, &[0, 1]), Some(vec![0, 1]));
        // Temporal: A(i) in a 2-deep nest with innermost j.
        let la = l(&[vec![1, 0]]);
        assert_eq!(movement_i64(&la, &[0, 1]), Some(vec![0]));
    }

    #[test]
    fn paper_worked_example_layouts() {
        // §3.2.3 nest 1, Q = I (q_k = (0,1)):
        // U (identity access): Ker{L_U (0,1)^T} = Ker{(0,1)^T} ∋ (1,0):
        // row-major.
        let lu = l(&[vec![1, 0], vec![0, 1]]);
        let gs = layouts_for_2d(&lu, &[0, 1]).expect("2-D");
        assert_eq!(gs, vec![vec![1, 0]]);
        // V (transposed access): Ker{(1,0)^T} ∋ (0,1): column-major.
        let lv = l(&[vec![0, 1], vec![1, 0]]);
        let gs = layouts_for_2d(&lv, &[0, 1]).expect("2-D");
        assert_eq!(gs, vec![vec![0, 1]]);
    }

    #[test]
    fn paper_worked_example_loop_constraint() {
        // §3.2.3 nest 2: V has column-major layout (0,1); reference V(i,j)
        // (identity L). Constraint row = (0,1)·L = (0,1); q_k ∈ Ker{(0,1)}
        // ∋ (1,0)^T — which completes to loop interchange.
        let lv2 = ArrayRef::new(ArrayId(0), &[vec![1, 0], vec![0, 1]], vec![0, 0]);
        let rows = loop_constraint_rows(&FileLayout::col_major(2), &lv2);
        let cands = innermost_candidates(&rows, 2);
        assert_eq!(cands, vec![vec![1, 0]]);
        // And the layout for W then follows: L_W = transpose, q_k = (1,0):
        // u = (0,1)... wait: L_W (1,0)^T = (0,1)^T; Ker ∋ (1,0): row-major.
        let lw = l(&[vec![0, 1], vec![1, 0]]);
        let gs = layouts_for_2d(&lw, &[1, 0]).expect("2-D");
        assert_eq!(gs, vec![vec![1, 0]]);
    }

    #[test]
    fn locality_classification() {
        let row = FileLayout::row_major(2);
        let col = FileLayout::col_major(2);
        assert_eq!(locality_under(&row, &[0, 1]), Locality::Spatial(1));
        assert_eq!(locality_under(&row, &[1, 0]), Locality::None);
        assert_eq!(locality_under(&col, &[1, 0]), Locality::Spatial(1));
        assert_eq!(locality_under(&col, &[0, 1]), Locality::None);
        assert_eq!(locality_under(&row, &[0, 0]), Locality::Temporal);
        assert_eq!(locality_under(&row, &[0, 3]), Locality::Spatial(3));
        // Diagonal layout (1,-1) stores a1 - a2 = c together; movement
        // (1,1) stays on a hyperplane.
        let diag = FileLayout::Hyperplane2D(1, -1);
        assert_eq!(locality_under(&diag, &[1, 1]), Locality::Spatial(1));
        assert_eq!(locality_under(&diag, &[1, 0]), Locality::None);
    }

    #[test]
    fn locality_scores_ordered() {
        assert!(Locality::Temporal.score() > Locality::Spatial(1).score());
        assert!(Locality::Spatial(1).score() > Locality::Spatial(4).score());
        assert!(Locality::Spatial(4).score() > Locality::None.score());
    }

    #[test]
    fn dim_order_for_3d() {
        // B(i, j, k) in a 3-nest with q_k = e_3: moves in dim 2 only —
        // layout puts dim 2 innermost.
        let lb = l(&[vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]]);
        assert_eq!(
            dim_order_for(&lb, &[0, 0, 1]),
            Some(FileLayout::DimOrder(vec![0, 1, 2]))
        );
        // Transposed 3-D access: C(k, j, i): q_k = e_3 moves dim 0.
        // Outer dims mirror the loop order: dim 2 (driven by the
        // outermost loop) outermost — exactly Fortran column-major.
        let lc = l(&[vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]);
        assert_eq!(
            dim_order_for(&lc, &[0, 0, 1]),
            Some(FileLayout::DimOrder(vec![2, 1, 0]))
        );
        // Temporal: no constraint.
        assert_eq!(dim_order_for(&lb, &[0, 0, 0]), None);
        // Diagonal movement: no dimension-order layout works.
        let ld = l(&[vec![0, 0, 1], vec![0, 0, 1], vec![1, 0, 0]]);
        assert_eq!(dim_order_for(&ld, &[0, 0, 1]), None);
    }

    #[test]
    fn constraints_from_dim_order() {
        // 3-D array with layout DimOrder [0,1,2] (dim 2 contiguous):
        // movement must vanish in dims 0 and 1: two constraint rows.
        let r = ArrayRef::new(
            ArrayId(0),
            &[vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]],
            vec![0, 0, 0],
        );
        let rows = loop_constraint_rows(&FileLayout::DimOrder(vec![0, 1, 2]), &r);
        assert_eq!(rows.len(), 2);
        let cands = innermost_candidates(&rows, 3);
        assert_eq!(cands, vec![vec![0, 0, 1]]);
    }

    #[test]
    fn unconstrained_candidates_prefer_innermost() {
        let cands = innermost_candidates(&[], 3);
        assert_eq!(cands[0], vec![0, 0, 1]);
        assert_eq!(cands.len(), 3);
    }

    #[test]
    fn infeasible_constraints_empty() {
        // Two constraints spanning the whole space: only q = 0 remains.
        let rows = vec![
            vec![Rational::ONE, Rational::ZERO],
            vec![Rational::ZERO, Rational::ONE],
        ];
        assert!(innermost_candidates(&rows, 2).is_empty());
    }
}
