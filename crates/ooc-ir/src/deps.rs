//! Data-dependence analysis for affine loop nests.
//!
//! Loop transformations are legal only if every dependence in the nest
//! remains lexicographically positive after transformation (§3 of the
//! paper, enforced through the Bik–Wijshoff completion). This module
//! summarizes dependences as *distance/direction vectors*:
//!
//! * When the two references share an access matrix of full column
//!   rank, the dependence distance is computed exactly.
//! * Otherwise a per-level direction interval is derived subscript by
//!   subscript (the classic separable-subscript test), falling back to
//!   `*` (unknown) where nothing can be proven.
//!
//! Legality of a transformation `T` against a direction vector is
//! decided with exact interval arithmetic on each transformed level.

use crate::program::{ArrayId, LoopNest};
use ooc_linalg::{Matrix, Rational};
use std::fmt;

/// One level of a dependence vector: the set of possible values of the
/// distance at that loop level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepElem {
    /// Exactly this distance.
    Exact(i64),
    /// Any value `>= 1` (forward, `<` direction).
    Plus,
    /// Any value `>= 0` (the first free level of a lex-normalized
    /// solution family, e.g. a reduction's `(0, 0, t>=0)`).
    NonNeg,
    /// Any value `<= -1` (backward, `>` direction).
    Minus,
    /// Unknown (`*`).
    Star,
}

impl DepElem {
    /// The inclusive interval of possible values (`None` = unbounded).
    #[must_use]
    pub fn interval(&self) -> (Option<i64>, Option<i64>) {
        match *self {
            DepElem::Exact(k) => (Some(k), Some(k)),
            DepElem::Plus => (Some(1), None),
            DepElem::NonNeg => (Some(0), None),
            DepElem::Minus => (None, Some(-1)),
            DepElem::Star => (None, None),
        }
    }
}

impl fmt::Display for DepElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepElem::Exact(k) => write!(f, "{k}"),
            DepElem::Plus => write!(f, "+"),
            DepElem::NonNeg => write!(f, "0+"),
            DepElem::Minus => write!(f, "-"),
            DepElem::Star => write!(f, "*"),
        }
    }
}

/// A dependence between two references in a nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependence {
    /// Per-level distance description, outermost first.
    pub vector: Vec<DepElem>,
    /// Kind of dependence (flow/anti/output), informational.
    pub kind: DepKind,
}

/// Classification of a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Write → read.
    Flow,
    /// Read → write.
    Anti,
    /// Write → write.
    Output,
}

/// Computes the dependences of a nest, summarized as distance or
/// direction vectors.
///
/// Pairs considered: every (write, other) pair over the same array,
/// including a reference with itself for writes.
#[must_use]
pub fn nest_dependences(nest: &LoopNest) -> Vec<Dependence> {
    merge_arrays(&array_dependences(nest))
}

/// The dependences of [`nest_dependences`], each with the array it is
/// on, from the same pass: one entry per distinct `(array,
/// dependence)`, so a caller can set the dependences on some arrays
/// apart and still get the whole list from [`merge_arrays`].
#[must_use]
pub fn array_dependences(nest: &LoopNest) -> Vec<(ArrayId, Dependence)> {
    let mut out: Vec<(ArrayId, Dependence)> = Vec::new();
    let stmts = &nest.body;
    let mut push = |array: ArrayId, dep: Dependence| {
        if !out.iter().any(|(a, d)| *a == array && *d == dep) {
            out.push((array, dep));
        }
    };
    // Every (write, write) and (write, read) pair over the same array.
    // pair_dependence normalizes the distance to be lexicographically
    // non-negative, so each unordered pair is analyzed once; the Flow /
    // Anti distinction is informational.
    for s1 in stmts {
        let w = &s1.lhs;
        for s2 in stmts {
            if s2.lhs.array == w.array {
                if let Some(dep) = pair_dependence(
                    &w.access,
                    &w.offset,
                    &s2.lhs.access,
                    &s2.lhs.offset,
                    nest.depth,
                    DepKind::Output,
                ) {
                    push(w.array, dep);
                }
            }
            for r in s2.reads() {
                if r.array != w.array {
                    continue;
                }
                if let Some(dep) = pair_dependence(
                    &w.access,
                    &w.offset,
                    &r.access,
                    &r.offset,
                    nest.depth,
                    DepKind::Flow,
                ) {
                    push(w.array, dep);
                }
            }
        }
    }
    out
}

/// The distinct dependences of `deps` in first-seen order, arrays
/// dropped: [`nest_dependences`] of the nest `deps` came from.
#[must_use]
pub fn merge_arrays(deps: &[(ArrayId, Dependence)]) -> Vec<Dependence> {
    let mut out: Vec<Dependence> = Vec::with_capacity(deps.len());
    for (_, dep) in deps {
        if !out.contains(dep) {
            out.push(dep.clone());
        }
    }
    out
}

/// Dependence between two references `L1·I + o1` and `L2·I' + o2` to
/// the same array: does `L1·I + o1 == L2·I' + o2` have solutions with
/// `d = I' - I` lexicographically non-negative? Returns the distance
/// summary, or `None` if provably no dependence exists.
fn pair_dependence(
    l1: &Matrix,
    o1: &[i64],
    l2: &Matrix,
    o2: &[i64],
    depth: usize,
    kind: DepKind,
) -> Option<Dependence> {
    if l1 == l2 {
        // Uniform: L·d = o1 - o2.
        let rhs: Vec<i64> = o1.iter().zip(o2).map(|(&a, &b)| a - b).collect();
        return uniform_dependence(l1, &rhs, depth, kind);
    }
    // Non-uniform: per-level separable test.
    Some(Dependence {
        vector: separable_directions(l1, o1, l2, o2, depth),
        kind,
    })
}

/// Solves `L·d = rhs` for the distance `d`; classifies the solution
/// space into a distance/direction vector.
fn uniform_dependence(l: &Matrix, rhs: &[i64], depth: usize, kind: DepKind) -> Option<Dependence> {
    // Solve the linear system exactly: find any rational solution and the
    // nullspace of L.
    let particular = solve(l, rhs)?;
    // Solution must be integral for a dependence to exist when the
    // nullspace is trivial.
    let null = l.nullspace();
    if null.is_empty() {
        let d: Option<Vec<i64>> = particular
            .iter()
            .map(|r| r.as_integer().and_then(|v| i64::try_from(v).ok()))
            .collect();
        let d = d?;
        // Dependences flow from earlier to later iterations: normalize the
        // direction so the vector is lexicographically non-negative.
        let d = if ooc_linalg::lex_nonnegative_i64(&d) {
            d
        } else {
            d.iter().map(|&x| -x).collect()
        };
        return Some(Dependence {
            vector: d.into_iter().map(DepElem::Exact).collect(),
            kind,
        });
    }
    // Free directions: levels covered by the nullspace become unknown;
    // the constrained levels keep their particular value if integral.
    // Lex-normalization refines the FIRST free level: when every level
    // before it is exactly zero, the lex-nonnegative representatives
    // have a non-negative value there (e.g. a reduction's (0,0,t>=0)).
    let mut vector = Vec::with_capacity(depth);
    let mut seen_free = false;
    let mut prefix_zero = true;
    for lvl in 0..depth {
        let free = null.iter().any(|v| !v[lvl].is_zero());
        if free {
            if !seen_free && prefix_zero {
                vector.push(DepElem::NonNeg);
            } else {
                vector.push(DepElem::Star);
            }
            seen_free = true;
        } else {
            match particular[lvl].as_integer() {
                Some(v) => {
                    let v = i64::try_from(v).ok()?;
                    if v != 0 {
                        prefix_zero = false;
                    }
                    vector.push(DepElem::Exact(v));
                }
                None => return None, // fractional forced component: no integer solution
            }
        }
    }
    Some(Dependence { vector, kind })
}

/// Least-squares-free exact solve of `L·x = rhs`; returns any solution
/// or `None` if inconsistent.
fn solve(l: &Matrix, rhs: &[i64]) -> Option<Vec<Rational>> {
    let rows = l.rows();
    let cols = l.cols();
    // Build the augmented matrix and row-reduce.
    let mut aug = Matrix::zero(rows, cols + 1);
    for r in 0..rows {
        for c in 0..cols {
            aug[(r, c)] = l[(r, c)];
        }
        aug[(r, cols)] = Rational::from(rhs[r]);
    }
    let (rref, pivots) = aug.rref();
    // Inconsistent if a pivot lands in the augmented column.
    if pivots.contains(&cols) {
        return None;
    }
    let mut x = vec![Rational::ZERO; cols];
    for (r, &pc) in pivots.iter().enumerate() {
        x[pc] = rref[(r, cols)];
    }
    Some(x)
}

/// Separable per-level direction test for references with different
/// access matrices.
fn separable_directions(
    l1: &Matrix,
    o1: &[i64],
    l2: &Matrix,
    o2: &[i64],
    depth: usize,
) -> Vec<DepElem> {
    let mut vector = vec![DepElem::Star; depth];
    for dim in 0..l1.rows() {
        // Subscript rows: a·I + c1  vs  b·I' + c2. Separable when each row
        // involves exactly one loop level, the same in both, with equal
        // coefficients: a·i + c1 = a·i' + c2  =>  d = (c1 - c2)/a.
        let row1: Vec<Rational> = (0..depth).map(|c| l1[(dim, c)]).collect();
        let row2: Vec<Rational> = (0..depth).map(|c| l2[(dim, c)]).collect();
        let nz1: Vec<usize> = (0..depth).filter(|&c| !row1[c].is_zero()).collect();
        let nz2: Vec<usize> = (0..depth).filter(|&c| !row2[c].is_zero()).collect();
        if nz1.len() == 1 && nz2.len() == 1 && nz1[0] == nz2[0] && row1[nz1[0]] == row2[nz2[0]] {
            let lvl = nz1[0];
            let diff = Rational::from(o1[dim]) - Rational::from(o2[dim]);
            let d = diff / row1[lvl];
            if let Some(v) = d.as_integer() {
                if let Ok(v) = i64::try_from(v) {
                    vector[lvl] = DepElem::Exact(v);
                }
            }
        }
    }
    vector
}

/// Checks that the transformation `t` keeps every dependence
/// lexicographically positive (or zero for loop-independent ones).
///
/// Uses exact interval arithmetic per transformed level: if some level
/// is provably positive before any level can be negative, the vector
/// is preserved; if a level can be negative while all earlier levels
/// can be zero, the transformation is (conservatively) rejected.
#[must_use]
pub fn transformation_preserves(t: &Matrix, deps: &[Dependence]) -> bool {
    // The identity trivially preserves program order, including
    // dependences our direction-vector abstraction can only summarize
    // as `*`.
    if *t == Matrix::identity(t.rows()) {
        return true;
    }
    deps.iter().all(|d| dep_preserved(t, &d.vector))
}

fn dep_preserved(t: &Matrix, vector: &[DepElem]) -> bool {
    assert_eq!(t.cols(), vector.len());
    // The zero vector (loop-independent) is preserved by everything.
    if vector.iter().all(|e| *e == DepElem::Exact(0)) {
        return true;
    }
    for row in 0..t.rows() {
        let (lo, hi) = row_interval(t, row, vector);
        // Provably positive at this level: preserved.
        if matches!(lo, Some(l) if l > 0) {
            return true;
        }
        // Could be negative at this level while earlier levels were zero:
        // reject conservatively.
        if lo.is_none() || lo.is_some_and(|l| l < 0) {
            return false;
        }
        // lo == 0: this level cannot go negative; whether a particular
        // concretization is decided here (positive) or later (zero) is
        // checked by the remaining rows.
        let _ = hi;
    }
    // Every level is provably >= 0: the image of any nonzero distance is
    // a nonzero lex-nonnegative vector, hence lex-positive (T is
    // non-singular, so nonzero distances cannot map to zero).
    true
}

/// Interval of `t[row]·d` over all concretizations of `d`.
fn row_interval(t: &Matrix, row: usize, vector: &[DepElem]) -> (Option<i64>, Option<i64>) {
    let mut lo = Some(0i64);
    let mut hi = Some(0i64);
    for (c, elem) in vector.iter().enumerate() {
        let coeff = t[(row, c)];
        let coeff = coeff
            .as_integer()
            .map(|v| i64::try_from(v).expect("coefficient overflow"));
        let Some(coeff) = coeff else {
            // Fractional coefficient: scale doesn't change sign analysis,
            // but keep conservative.
            return (None, None);
        };
        if coeff == 0 {
            continue;
        }
        let (elo, ehi) = elem.interval();
        // contribution interval = coeff * [elo, ehi]
        let (clo, chi) = if coeff > 0 {
            (elo.map(|v| v * coeff), ehi.map(|v| v * coeff))
        } else {
            (ehi.map(|v| v * coeff), elo.map(|v| v * coeff))
        };
        lo = match (lo, clo) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
        hi = match (hi, chi) {
            (Some(a), Some(b)) => Some(a + b),
            _ => None,
        };
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayRef, Expr, LoopNest, Statement};

    fn nest_with(stmts: Vec<Statement>, depth: usize) -> LoopNest {
        LoopNest::rectangular("t", depth, 1, 0, stmts)
    }

    fn refm(a: usize, rows: &[Vec<i64>], off: Vec<i64>) -> ArrayRef {
        ArrayRef::new(ArrayId(a), rows, off)
    }

    #[test]
    fn no_dependence_between_distinct_arrays() {
        // U(i,j) = V(j,i): no self-array conflicts except the trivial
        // write-write identity on U at the same iteration.
        let s = Statement::assign(
            refm(0, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(refm(1, &[vec![0, 1], vec![1, 0]], vec![0, 0])),
        );
        let deps = nest_dependences(&nest_with(vec![s], 2));
        assert!(deps
            .iter()
            .all(|d| d.vector.iter().all(|e| *e == DepElem::Exact(0))));
    }

    #[test]
    fn uniform_flow_distance() {
        // A(i,j) = A(i, j-1): flow dependence with distance (0, 1).
        let s = Statement::assign(
            refm(0, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(refm(0, &[vec![1, 0], vec![0, 1]], vec![0, -1])),
        );
        let deps = nest_dependences(&nest_with(vec![s], 2));
        assert!(
            deps.iter()
                .any(|d| d.vector == vec![DepElem::Exact(0), DepElem::Exact(1)]),
            "expected distance (0,1), got {deps:?}"
        );
    }

    #[test]
    fn wavefront_distance() {
        // A(i,j) = A(i-1, j-1): distance (1, 1).
        let s = Statement::assign(
            refm(0, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(refm(0, &[vec![1, 0], vec![0, 1]], vec![-1, -1])),
        );
        let deps = nest_dependences(&nest_with(vec![s], 2));
        assert!(deps
            .iter()
            .any(|d| d.vector == vec![DepElem::Exact(1), DepElem::Exact(1)]));
    }

    #[test]
    fn anti_diagonal_distance_normalized() {
        // A(i,j) = A(i-1, j+1): distance (1, -1) lexicographically positive.
        let s = Statement::assign(
            refm(0, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(refm(0, &[vec![1, 0], vec![0, 1]], vec![-1, 1])),
        );
        let deps = nest_dependences(&nest_with(vec![s], 2));
        assert!(deps
            .iter()
            .any(|d| d.vector == vec![DepElem::Exact(1), DepElem::Exact(-1)]));
    }

    #[test]
    fn transpose_self_reference_star() {
        // A(i,j) = A(j,i): different access matrices -> direction vector.
        let s = Statement::assign(
            refm(0, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(refm(0, &[vec![0, 1], vec![1, 0]], vec![0, 0])),
        );
        let deps = nest_dependences(&nest_with(vec![s], 2));
        assert!(!deps.is_empty());
        // The summary must contain Stars (unknown distances).
        assert!(deps.iter().any(|d| d.vector.contains(&DepElem::Star)));
    }

    #[test]
    fn reduction_star_in_free_level() {
        // A(i) = A(i) + B(i, j) in a 2-deep nest: the write/write and
        // read/write pairs over A leave level j free -> (0, *).
        let a_ref = refm(0, &[vec![1, 0]], vec![0]);
        let s = Statement::assign(
            a_ref.clone(),
            Expr::Add(
                Box::new(Expr::Ref(a_ref.clone())),
                Box::new(Expr::Ref(refm(1, &[vec![1, 0], vec![0, 1]], vec![0, 0]))),
            ),
        );
        let deps = nest_dependences(&nest_with(vec![s], 2));
        assert!(deps
            .iter()
            .any(|d| d.vector == vec![DepElem::Exact(0), DepElem::NonNeg]));
    }

    #[test]
    fn legality_interchange() {
        let interchange = Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
        let d_ok = Dependence {
            vector: vec![DepElem::Exact(1), DepElem::Exact(1)],
            kind: DepKind::Flow,
        };
        let d_bad = Dependence {
            vector: vec![DepElem::Exact(1), DepElem::Exact(-1)],
            kind: DepKind::Flow,
        };
        assert!(transformation_preserves(
            &interchange,
            std::slice::from_ref(&d_ok)
        ));
        assert!(!transformation_preserves(
            &interchange,
            std::slice::from_ref(&d_bad)
        ));
        assert!(!transformation_preserves(&interchange, &[d_ok, d_bad]));
    }

    #[test]
    fn legality_with_direction_vectors() {
        let interchange = Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
        // (+, 0): becomes (0, +) under interchange — still positive.
        let d = Dependence {
            vector: vec![DepElem::Plus, DepElem::Exact(0)],
            kind: DepKind::Flow,
        };
        assert!(transformation_preserves(&interchange, &[d]));
        // (+, -): becomes (-, +) — must be rejected.
        let d2 = Dependence {
            vector: vec![DepElem::Plus, DepElem::Minus],
            kind: DepKind::Flow,
        };
        assert!(!transformation_preserves(&interchange, &[d2]));
        // (0, *): interchange gives (*, 0) — can be negative, reject.
        let d3 = Dependence {
            vector: vec![DepElem::Exact(0), DepElem::Star],
            kind: DepKind::Flow,
        };
        assert!(!transformation_preserves(
            &interchange,
            std::slice::from_ref(&d3)
        ));
        // (0, *) under identity: the identity always preserves program
        // order, even when the summary is too coarse to prove it.
        let identity = Matrix::identity(2);
        assert!(transformation_preserves(&identity, &[d3]));
        // (0, 0+) — a reduction: interchange maps it to (0+, 0), which is
        // lex-nonnegative everywhere: legal.
        let d4 = Dependence {
            vector: vec![DepElem::Exact(0), DepElem::NonNeg],
            kind: DepKind::Flow,
        };
        assert!(transformation_preserves(
            &interchange,
            std::slice::from_ref(&d4)
        ));
        assert!(transformation_preserves(&identity, &[d4]));
    }

    #[test]
    fn zero_distance_always_preserved() {
        let any = Matrix::from_i64(2, 2, &[3, 1, 2, 1]);
        let d = Dependence {
            vector: vec![DepElem::Exact(0), DepElem::Exact(0)],
            kind: DepKind::Output,
        };
        assert!(transformation_preserves(&any, &[d]));
    }

    #[test]
    fn skew_legalizes_negative_inner() {
        let skew = Matrix::from_i64(2, 2, &[1, 0, 1, 1]);
        let d = Dependence {
            vector: vec![DepElem::Exact(1), DepElem::Exact(-1)],
            kind: DepKind::Flow,
        };
        assert!(transformation_preserves(&skew, &[d]));
    }
}
