//! Affine constraint systems and Fourier–Motzkin elimination.
//!
//! After a loop nest is transformed with `I = Q·I'`, the new loop
//! bounds are no longer the original rectangular bounds: they are the
//! projection of the transformed iteration polyhedron. This module
//! implements the standard code-generation scheme — express the
//! original bounds as affine inequalities over the *new* iterators,
//! then Fourier–Motzkin-eliminate from the innermost loop outwards so
//! that each loop's bounds mention only outer iterators and symbolic
//! parameters.

use crate::matrix::Matrix;
use crate::rational::Rational;
use std::fmt;

/// An affine form `constant + Σ var_coeffs[i]·xᵢ + Σ param_coeffs[j]·pⱼ`
/// over `nvars` iteration variables and `nparams` symbolic parameters
/// (loop-invariant sizes such as `N`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    /// Coefficients of the iteration variables.
    pub var_coeffs: Vec<Rational>,
    /// Coefficients of the symbolic parameters.
    pub param_coeffs: Vec<Rational>,
    /// Constant term.
    pub constant: Rational,
}

impl Affine {
    /// The zero form over the given space.
    #[must_use]
    pub fn zero(nvars: usize, nparams: usize) -> Self {
        Affine {
            var_coeffs: vec![Rational::ZERO; nvars],
            param_coeffs: vec![Rational::ZERO; nparams],
            constant: Rational::ZERO,
        }
    }

    /// A constant form.
    #[must_use]
    pub fn constant(nvars: usize, nparams: usize, c: i64) -> Self {
        let mut a = Self::zero(nvars, nparams);
        a.constant = Rational::from(c);
        a
    }

    /// The form `xᵢ`.
    #[must_use]
    pub fn var(nvars: usize, nparams: usize, i: usize) -> Self {
        let mut a = Self::zero(nvars, nparams);
        a.var_coeffs[i] = Rational::ONE;
        a
    }

    /// The form `pⱼ`.
    #[must_use]
    pub fn param(nvars: usize, nparams: usize, j: usize) -> Self {
        let mut a = Self::zero(nvars, nparams);
        a.param_coeffs[j] = Rational::ONE;
        a
    }

    /// Number of iteration variables in this form's space.
    #[must_use]
    pub fn nvars(&self) -> usize {
        self.var_coeffs.len()
    }

    /// Number of parameters in this form's space.
    #[must_use]
    pub fn nparams(&self) -> usize {
        self.param_coeffs.len()
    }

    /// Evaluates the form at an integer point.
    #[must_use]
    pub fn eval(&self, vars: &[i64], params: &[i64]) -> Rational {
        assert_eq!(vars.len(), self.nvars());
        assert_eq!(params.len(), self.nparams());
        let mut acc = self.constant;
        for (c, &v) in self.var_coeffs.iter().zip(vars) {
            acc += *c * Rational::from(v);
        }
        for (c, &p) in self.param_coeffs.iter().zip(params) {
            acc += *c * Rational::from(p);
        }
        acc
    }

    /// `self + rhs`.
    #[must_use]
    pub fn add(&self, rhs: &Affine) -> Affine {
        self.combine(rhs, Rational::ONE)
    }

    /// `self - rhs`.
    #[must_use]
    pub fn sub(&self, rhs: &Affine) -> Affine {
        self.combine(rhs, -Rational::ONE)
    }

    /// `self + s·rhs`.
    #[must_use]
    fn combine(&self, rhs: &Affine, s: Rational) -> Affine {
        assert_eq!(self.nvars(), rhs.nvars());
        assert_eq!(self.nparams(), rhs.nparams());
        Affine {
            var_coeffs: self
                .var_coeffs
                .iter()
                .zip(&rhs.var_coeffs)
                .map(|(&a, &b)| a + s * b)
                .collect(),
            param_coeffs: self
                .param_coeffs
                .iter()
                .zip(&rhs.param_coeffs)
                .map(|(&a, &b)| a + s * b)
                .collect(),
            constant: self.constant + s * rhs.constant,
        }
    }

    /// `s·self`.
    #[must_use]
    pub fn scale(&self, s: Rational) -> Affine {
        Affine {
            var_coeffs: self.var_coeffs.iter().map(|&a| a * s).collect(),
            param_coeffs: self.param_coeffs.iter().map(|&a| a * s).collect(),
            constant: self.constant * s,
        }
    }

    /// Substitutes each variable with an affine form over a *new*
    /// variable space: `xᵢ = subst[i]`. Parameters pass through.
    ///
    /// # Panics
    /// Panics if `subst.len() != nvars` or the substitution forms
    /// disagree about spaces.
    #[must_use]
    fn substitute_vars(&self, subst: &[Affine]) -> Affine {
        assert_eq!(subst.len(), self.nvars());
        let new_nvars = subst.first().map_or(0, Affine::nvars);
        let mut out = Affine::zero(new_nvars, self.nparams());
        out.constant = self.constant;
        out.param_coeffs.clone_from(&self.param_coeffs);
        for (c, s) in self.var_coeffs.iter().zip(subst) {
            assert_eq!(s.nparams(), self.nparams());
            out = out.combine(s, *c);
        }
        out
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut term = |f: &mut fmt::Formatter<'_>, c: Rational, name: String| -> fmt::Result {
            if c.is_zero() {
                return Ok(());
            }
            if first {
                first = false;
                if c == Rational::ONE {
                    write!(f, "{name}")?;
                } else if c == -Rational::ONE {
                    write!(f, "-{name}")?;
                } else {
                    write!(f, "{c}*{name}")?;
                }
            } else if c == Rational::ONE {
                write!(f, " + {name}")?;
            } else if c == -Rational::ONE {
                write!(f, " - {name}")?;
            } else if c.signum() < 0 {
                write!(f, " - {}*{name}", c.abs())?;
            } else {
                write!(f, " + {c}*{name}")?;
            }
            Ok(())
        };
        for (i, &c) in self.var_coeffs.iter().enumerate() {
            term(f, c, format!("x{i}"))?;
        }
        for (j, &c) in self.param_coeffs.iter().enumerate() {
            term(f, c, format!("p{j}"))?;
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if !self.constant.is_zero() {
            if self.constant.signum() < 0 {
                write!(f, " - {}", self.constant.abs())?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

/// A constraint `expr >= 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// The affine form constrained to be non-negative.
    pub expr: Affine,
}

/// A conjunction of affine constraints over `nvars` variables and
/// `nparams` parameters — an iteration-space polyhedron.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polyhedron {
    nvars: usize,
    nparams: usize,
    constraints: Vec<Constraint>,
}

/// The bounds of one loop level produced by [`Polyhedron::loop_bounds`]:
/// the loop runs `max(ceil(lowers)) ..= min(floor(uppers))`, where each
/// bound is affine in the *outer* loop variables and the parameters.
#[derive(Debug, Clone)]
pub struct LoopBounds {
    /// Lower-bound forms (take the max of their ceilings).
    pub lowers: Vec<Affine>,
    /// Upper-bound forms (take the min of their floors).
    pub uppers: Vec<Affine>,
}

impl LoopBounds {
    /// Evaluates the concrete integer bounds at given outer-iterator and
    /// parameter values. Returns `None` when the loop is empty there.
    #[must_use]
    pub fn eval(&self, outer: &[i64], params: &[i64]) -> Option<(i64, i64)> {
        // Bounds forms live in the full variable space; pad with zeros for
        // inner variables (their coefficients are zero by construction).
        let nv = self.lowers.first().or(self.uppers.first())?.nvars();
        let mut point = outer.to_vec();
        point.resize(nv, 0);
        let lo = self
            .lowers
            .iter()
            .map(|a| i64::try_from(a.eval(&point, params).ceil()).expect("bound overflow"))
            .max()?;
        let hi = self
            .uppers
            .iter()
            .map(|a| i64::try_from(a.eval(&point, params).floor()).expect("bound overflow"))
            .min()?;
        if lo <= hi {
            Some((lo, hi))
        } else {
            None
        }
    }
}

impl Polyhedron {
    /// An unconstrained polyhedron.
    #[must_use]
    pub fn universe(nvars: usize, nparams: usize) -> Self {
        Polyhedron {
            nvars,
            nparams,
            constraints: Vec::new(),
        }
    }

    /// Number of iteration variables.
    #[must_use]
    pub const fn nvars(&self) -> usize {
        self.nvars
    }

    /// Number of symbolic parameters.
    #[must_use]
    pub const fn nparams(&self) -> usize {
        self.nparams
    }

    /// Adds `expr >= 0`.
    pub fn add_ge0(&mut self, expr: Affine) {
        assert_eq!(expr.nvars(), self.nvars);
        assert_eq!(expr.nparams(), self.nparams);
        self.constraints.push(Constraint { expr });
    }

    /// Adds `lo <= xᵢ <= hi` for constant bounds.
    pub fn add_var_range(&mut self, i: usize, lo: i64, hi: i64) {
        let x = Affine::var(self.nvars, self.nparams, i);
        let lo_c = Affine::constant(self.nvars, self.nparams, lo);
        let hi_c = Affine::constant(self.nvars, self.nparams, hi);
        self.add_ge0(x.sub(&lo_c));
        self.add_ge0(hi_c.sub(&x));
    }

    /// Adds `1 <= xᵢ <= pⱼ` — the standard Fortran-style loop range with
    /// a symbolic trip count.
    pub fn add_var_range_param(&mut self, i: usize, j: usize) {
        let x = Affine::var(self.nvars, self.nparams, i);
        let one = Affine::constant(self.nvars, self.nparams, 1);
        let p = Affine::param(self.nvars, self.nparams, j);
        self.add_ge0(x.sub(&one));
        self.add_ge0(p.sub(&x));
    }

    /// Membership test for an integer point.
    #[must_use]
    pub fn contains(&self, vars: &[i64], params: &[i64]) -> bool {
        self.constraints
            .iter()
            .all(|c| c.expr.eval(vars, params).signum() >= 0)
    }

    /// Applies the change of variables `x = m · x'` (same parameter
    /// space), producing the polyhedron over `x'`. `m` must be square
    /// `nvars × nvars`.
    #[must_use]
    pub fn transform(&self, m: &Matrix) -> Polyhedron {
        assert_eq!(m.rows(), self.nvars);
        assert_eq!(m.cols(), self.nvars);
        // x_i = Σ_j m[i][j] x'_j
        let subst: Vec<Affine> = (0..self.nvars)
            .map(|i| {
                let mut a = Affine::zero(self.nvars, self.nparams);
                for j in 0..self.nvars {
                    a.var_coeffs[j] = m[(i, j)];
                }
                a
            })
            .collect();
        let mut out = Polyhedron::universe(self.nvars, self.nparams);
        for c in &self.constraints {
            out.add_ge0(c.expr.substitute_vars(&subst));
        }
        out
    }

    /// Fourier–Motzkin elimination of variable `v`: the projection of
    /// the polyhedron onto the remaining variables (still indexed in the
    /// same space; the eliminated variable's coefficient is zero in the
    /// result).
    #[must_use]
    pub fn eliminate(&self, v: usize) -> Polyhedron {
        let mut lowers = Vec::new(); // a·x_v >= rest  (a > 0)
        let mut uppers = Vec::new(); // a·x_v <= rest  (a < 0 in expr)
        let mut rest = Vec::new();
        for c in &self.constraints {
            let a = c.expr.var_coeffs[v];
            match a.signum() {
                0 => rest.push(c.clone()),
                s if s > 0 => lowers.push(c.clone()),
                _ => uppers.push(c.clone()),
            }
        }
        let mut out = Polyhedron {
            nvars: self.nvars,
            nparams: self.nparams,
            constraints: rest,
        };
        for lo in &lowers {
            for hi in &uppers {
                // lo: a·x + L >= 0 (a>0)  =>  x >= -L/a
                // hi: b·x + U >= 0 (b<0)  =>  x <= -U/b = U/(-b)
                // Combine: a>0, b<0: (-b)·L + a·U >= 0… derive by scaling:
                //   multiply lo by (-b) and hi by a, add: the x terms cancel.
                let a = lo.expr.var_coeffs[v];
                let b = hi.expr.var_coeffs[v];
                let combined = lo.expr.scale(-b).add(&hi.expr.scale(a));
                debug_assert!(combined.var_coeffs[v].is_zero());
                out.add_ge0(combined);
            }
        }
        out.dedup();
        out
    }

    /// Removes syntactically duplicate and trivially-true constant
    /// constraints.
    fn dedup(&mut self) {
        self.constraints.retain(|c| {
            let trivial = c.expr.var_coeffs.iter().all(Rational::is_zero)
                && c.expr.param_coeffs.iter().all(Rational::is_zero)
                && c.expr.constant.signum() >= 0;
            !trivial
        });
        let mut seen = Vec::new();
        self.constraints.retain(|c| {
            if seen.contains(&c.expr) {
                false
            } else {
                seen.push(c.expr.clone());
                true
            }
        });
    }

    /// Produces per-level loop bounds for the variable order
    /// `x₀ (outermost) … x_{nvars-1} (innermost)` by eliminating from the
    /// innermost variable outwards.
    ///
    /// `result[i]` bounds `xᵢ` using only `x₀..xᵢ₋₁` and parameters.
    #[must_use]
    pub fn loop_bounds(&self) -> Vec<LoopBounds> {
        let mut out = vec![
            LoopBounds {
                lowers: Vec::new(),
                uppers: Vec::new(),
            };
            self.nvars
        ];
        let mut current = self.clone();
        for level in (0..self.nvars).rev() {
            let mut lowers = Vec::new();
            let mut uppers = Vec::new();
            for c in &current.constraints {
                let a = c.expr.var_coeffs[level];
                if a.is_zero() {
                    continue;
                }
                // a·x_level + rest >= 0
                //   a > 0: x_level >= -rest/a  (lower bound)
                //   a < 0: x_level <= rest/(-a) (upper bound)
                let mut rest = c.expr.clone();
                rest.var_coeffs[level] = Rational::ZERO;
                if a.signum() > 0 {
                    lowers.push(rest.scale(-a.recip()));
                } else {
                    uppers.push(rest.scale(-a.recip()));
                }
            }
            out[level] = LoopBounds { lowers, uppers };
            current = current.eliminate(level);
        }
        out
    }

    /// Whether every constraint mentions at most one variable: the
    /// polyhedron is a box whose sides may move with the parameters.
    #[must_use]
    pub fn is_rectangular(&self) -> bool {
        self.constraints.iter().all(|c| {
            let vars = c.expr.var_coeffs.iter().filter(|a| !a.is_zero());
            vars.count() <= 1
        })
    }

    /// The inclusive range of every variable of a rectangular
    /// polyhedron (see [`Polyhedron::is_rectangular`]) at `params`:
    /// the greatest ceiling of its lower bounds and the least floor of
    /// its upper bounds, read off its one-variable constraints without
    /// eliminating anything. These are the bounds
    /// [`Polyhedron::loop_bounds`] gives such a polyhedron — there,
    /// eliminating a variable only adds constraints on the parameters,
    /// which bound no variable — scaled and evaluated in the same
    /// order, so every range that fits `i64` is the one
    /// [`LoopBounds::eval`] finds.
    /// `None` when some variable is empty or unbounded there, or a
    /// bound leaves `i64`. Constraints over several variables are not
    /// read.
    #[must_use]
    pub fn box_ranges(&self, params: &[i64]) -> Option<Vec<(i64, i64)>> {
        let mut bounds: Vec<(Option<i128>, Option<i128>)> = vec![(None, None); self.nvars];
        for c in &self.constraints {
            let e = &c.expr;
            let mut vars = e
                .var_coeffs
                .iter()
                .enumerate()
                .filter(|(_, a)| !a.is_zero());
            let (Some((v, &a)), None) = (vars.next(), vars.next()) else {
                continue;
            };
            // a·x + rest ≥ 0 bounds x by −rest/a: from below when a > 0.
            let s = -a.recip();
            let mut bound = e.constant * s;
            for (&p, &value) in e.param_coeffs.iter().zip(params) {
                bound += p * s * Rational::from(value);
            }
            let (lo, hi) = &mut bounds[v];
            if a.signum() > 0 {
                *lo = Some(lo.map_or(bound.ceil(), |lo| lo.max(bound.ceil())));
            } else {
                *hi = Some(hi.map_or(bound.floor(), |hi| hi.min(bound.floor())));
            }
        }
        bounds
            .into_iter()
            .map(|(lo, hi)| {
                let (lo, hi) = (lo?, hi?);
                if lo > hi {
                    return None;
                }
                Some((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?))
            })
            .collect()
    }

    /// Enumerates every integer point of a (bounded) polyhedron in
    /// lexicographic order of `x₀…x_{k-1}`. Intended for tests and
    /// small functional executions.
    ///
    /// # Panics
    /// Panics if some level is unbounded at the given parameters.
    #[must_use]
    pub fn enumerate(&self, params: &[i64]) -> Vec<Vec<i64>> {
        let bounds = self.loop_bounds();
        let mut out = Vec::new();
        let mut point = Vec::with_capacity(self.nvars);
        self.enum_rec(&bounds, params, &mut point, &mut out);
        out
    }

    fn enum_rec(
        &self,
        bounds: &[LoopBounds],
        params: &[i64],
        point: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
    ) {
        let level = point.len();
        if level == self.nvars {
            out.push(point.clone());
            return;
        }
        let lb = &bounds[level];
        assert!(
            !lb.lowers.is_empty() && !lb.uppers.is_empty(),
            "level {level} unbounded"
        );
        let Some((lo, hi)) = lb.eval(point, params) else {
            return;
        };
        for v in lo..=hi {
            point.push(v);
            self.enum_rec(bounds, params, point, out);
            point.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_eval_and_ops() {
        // 2 + 3*x0 - x1 + 4*p0
        let mut a = Affine::zero(2, 1);
        a.constant = Rational::from(2i64);
        a.var_coeffs[0] = Rational::from(3i64);
        a.var_coeffs[1] = Rational::from(-1i64);
        a.param_coeffs[0] = Rational::from(4i64);
        assert_eq!(a.eval(&[1, 2], &[10]), Rational::from(43i64));
        let b = a.add(&a);
        assert_eq!(b.eval(&[1, 2], &[10]), Rational::from(86i64));
        assert_eq!(a.sub(&a).eval(&[5, 5], &[5]), Rational::ZERO);
    }

    #[test]
    fn substitution_interchange() {
        // x0 + 2*x1 with x0 = y1, x1 = y0 (interchange).
        let mut a = Affine::zero(2, 0);
        a.var_coeffs[0] = Rational::ONE;
        a.var_coeffs[1] = Rational::from(2i64);
        let subst = vec![Affine::var(2, 0, 1), Affine::var(2, 0, 0)];
        let b = a.substitute_vars(&subst);
        assert_eq!(b.eval(&[3, 4], &[]), Rational::from(10i64)); // 4 + 2*3
    }

    #[test]
    fn rectangle_bounds_roundtrip() {
        // 1 <= x0 <= 4, 1 <= x1 <= 3.
        let mut p = Polyhedron::universe(2, 0);
        p.add_var_range(0, 1, 4);
        p.add_var_range(1, 1, 3);
        let pts = p.enumerate(&[]);
        assert_eq!(pts.len(), 12);
        assert_eq!(pts[0], vec![1, 1]);
        assert_eq!(pts[11], vec![4, 3]);
    }

    #[test]
    fn symbolic_bounds() {
        let mut p = Polyhedron::universe(2, 1);
        p.add_var_range_param(0, 0);
        p.add_var_range_param(1, 0);
        assert_eq!(p.enumerate(&[3]).len(), 9);
        assert_eq!(p.enumerate(&[1]).len(), 1);
        assert_eq!(p.enumerate(&[0]).len(), 0);
    }

    #[test]
    fn triangular_region() {
        // 1 <= x0 <= 4, x0 <= x1 <= 4: upper triangle.
        let mut p = Polyhedron::universe(2, 0);
        p.add_var_range(0, 1, 4);
        let x0 = Affine::var(2, 0, 0);
        let x1 = Affine::var(2, 0, 1);
        let four = Affine::constant(2, 0, 4);
        p.add_ge0(x1.sub(&x0));
        p.add_ge0(four.sub(&x1));
        let pts = p.enumerate(&[]);
        assert_eq!(pts.len(), 4 + 3 + 2 + 1);
        assert!(pts.iter().all(|pt| pt[1] >= pt[0]));
    }

    #[test]
    fn transform_preserves_point_count() {
        // Interchange the rectangle: same number of integer points.
        let mut p = Polyhedron::universe(2, 0);
        p.add_var_range(0, 1, 5);
        p.add_var_range(1, 1, 2);
        let interchange = Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
        let q = p.transform(&interchange);
        assert_eq!(q.enumerate(&[]).len(), 10);
        // And the transformed box has bounds swapped: x0 in 1..=2.
        let pts = q.enumerate(&[]);
        assert!(pts.iter().all(|pt| (1..=2).contains(&pt[0])));
        assert!(pts.iter().all(|pt| (1..=5).contains(&pt[1])));
    }

    #[test]
    fn skew_transform_membership_matches() {
        // x = Q x' with Q = [[1,0],[1,1]] (skew). Every x' point must map
        // into the original region.
        let mut p = Polyhedron::universe(2, 0);
        p.add_var_range(0, 1, 6);
        p.add_var_range(1, 1, 6);
        let q_mat = Matrix::from_i64(2, 2, &[1, 0, 1, 1]);
        let p2 = p.transform(&q_mat);
        for pt in p2.enumerate(&[]) {
            let orig: Vec<i64> = q_mat
                .mul_vec_i64(&pt)
                .iter()
                .map(|r| i64::try_from(r.as_integer().unwrap()).unwrap())
                .collect();
            assert!(p.contains(&orig, &[]), "{pt:?} -> {orig:?} outside");
        }
        assert_eq!(p2.enumerate(&[]).len(), 36);
    }

    #[test]
    fn eliminate_projects() {
        // Rectangle; eliminating x1 leaves bounds on x0 only.
        let mut p = Polyhedron::universe(2, 0);
        p.add_var_range(0, 2, 7);
        p.add_var_range(1, 1, 3);
        let q = p.eliminate(1);
        for c in &q.constraints {
            assert!(c.expr.var_coeffs[1].is_zero());
        }
        assert!(q.contains(&[2, 0], &[]));
        assert!(q.contains(&[7, 0], &[]));
        assert!(!q.contains(&[8, 0], &[]));
        assert!(!q.contains(&[1, 0], &[]));
    }

    #[test]
    fn loop_bounds_inner_depends_on_outer() {
        // Triangle x1 <= x0: inner bound mentions x0.
        let mut p = Polyhedron::universe(2, 0);
        p.add_var_range(0, 1, 4);
        let x0 = Affine::var(2, 0, 0);
        let x1 = Affine::var(2, 0, 1);
        let one = Affine::constant(2, 0, 1);
        p.add_ge0(x1.sub(&one));
        p.add_ge0(x0.sub(&x1));
        let b = p.loop_bounds();
        assert_eq!(b[1].eval(&[3], &[]), Some((1, 3)));
        assert_eq!(b[0].eval(&[], &[]), Some((1, 4)));
    }

    #[test]
    fn empty_region() {
        let mut p = Polyhedron::universe(1, 0);
        p.add_var_range(0, 5, 2);
        assert!(p.enumerate(&[]).is_empty());
    }

    #[test]
    fn display_affine() {
        let mut a = Affine::zero(2, 1);
        a.var_coeffs[0] = Rational::from(1i64);
        a.var_coeffs[1] = Rational::from(-2i64);
        a.param_coeffs[0] = Rational::ONE;
        a.constant = Rational::from(-1i64);
        assert_eq!(a.to_string(), "x0 - 2*x1 + p0 - 1");
    }
}
