//! The affine program representation the optimizer works on.
//!
//! A [`Program`] is a list of array declarations plus a sequence of
//! *perfectly nested* affine loop nests ([`LoopNest`]). Each statement
//! reads and writes arrays through references of the form
//! `L·Ī + ō` — an integer access matrix and offset vector, exactly the
//! representation of the paper (§3.2.1).
//!
//! Imperfectly nested input programs are represented by the types in
//! [`crate::imperfect`] and lowered to this form by
//! [`mod@crate::normalize`].

use ooc_linalg::{Matrix, Polyhedron};

/// Identifies an array within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// Identifies a loop nest within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NestId(pub usize);

/// One dimension of an array: a compile-time constant or a symbolic
/// parameter (resolved at execution time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimSize {
    /// A fixed extent.
    Const(i64),
    /// The extent equals program parameter `p`.
    Param(usize),
}

impl DimSize {
    /// Resolves the extent given parameter values.
    #[must_use]
    pub fn resolve(&self, params: &[i64]) -> i64 {
        match *self {
            DimSize::Const(c) => c,
            DimSize::Param(p) => params[p],
        }
    }
}

/// An array declaration. Array indices are 1-based (Fortran style),
/// each dimension running `1..=extent`.
#[derive(Debug, Clone)]
pub struct ArrayDecl {
    /// Source-level name, e.g. `"U"`.
    pub name: String,
    /// Extent of each dimension.
    pub dims: Vec<DimSize>,
}

impl ArrayDecl {
    /// The rank (number of dimensions).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements at the given parameter values.
    #[must_use]
    pub fn len(&self, params: &[i64]) -> i64 {
        self.dims.iter().map(|d| d.resolve(params)).product()
    }

    /// True if the array has zero elements at the given parameters.
    #[must_use]
    pub fn is_empty(&self, params: &[i64]) -> bool {
        self.len(params) == 0
    }
}

/// A reference `array[L·Ī + ō]` inside a nest of depth `k`:
/// `access` is `rank × k`, `offset` has length `rank`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// The access (reference) matrix `L`.
    pub access: Matrix,
    /// The constant offset vector `ō`.
    pub offset: Vec<i64>,
}

impl ArrayRef {
    /// Builds a reference from integer access-matrix rows.
    #[must_use]
    pub fn new(array: ArrayId, rows: &[Vec<i64>], offset: Vec<i64>) -> Self {
        let m = Matrix::from_rows(rows);
        assert_eq!(
            m.rows(),
            offset.len(),
            "offset length must equal array rank"
        );
        ArrayRef {
            array,
            access: m,
            offset,
        }
    }

    /// Array rank (number of subscript positions).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.access.rows()
    }

    /// Loop-nest depth the reference was written for.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.access.cols()
    }

    /// Evaluates the subscripts at an iteration point (1-based array
    /// indices are produced by the program's own offsets).
    #[must_use]
    pub fn subscripts(&self, iter: &[i64]) -> Vec<i64> {
        assert_eq!(iter.len(), self.depth());
        // An all-integer access matrix (every kernel's) needs no
        // rational arithmetic: plain dot products, in the rationals'
        // own `i128` so overflow still fails loudly.
        let integer_row = |d: usize| {
            let mut acc = i128::from(self.offset[d]);
            for (j, &x) in iter.iter().enumerate() {
                acc += self.access[(d, j)].as_integer()? * i128::from(x);
            }
            Some(i64::try_from(acc).expect("overflow"))
        };
        if let Some(subs) = (0..self.rank()).map(integer_row).collect() {
            return subs;
        }
        self.access
            .mul_vec_i64(iter)
            .iter()
            .zip(&self.offset)
            .map(|(r, &o)| {
                i64::try_from(r.as_integer().expect("integer subscript")).expect("overflow") + o
            })
            .collect()
    }

    /// The reference after the loop transformation with inverse `q`:
    /// new access matrix `L·Q` (subscript function becomes `L·Q·Ī' + ō`).
    #[must_use]
    pub fn transformed(&self, q: &Matrix) -> ArrayRef {
        ArrayRef {
            array: self.array,
            access: &self.access * q,
            offset: self.offset.clone(),
        }
    }
}

/// Scalar expression forms appearing on statement right-hand sides.
/// Enough to express the ten benchmark kernels and to execute them for
/// real in functional tests.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A floating constant.
    Const(f64),
    /// An array read.
    Ref(ArrayRef),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// All array references in the expression, in evaluation order.
    pub fn collect_refs<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            Expr::Const(_) => {}
            Expr::Ref(r) => out.push(r),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_refs(out);
                b.collect_refs(out);
            }
        }
    }

    /// Rewrites every reference with [`ArrayRef::transformed`].
    #[must_use]
    pub fn transformed(&self, q: &Matrix) -> Expr {
        match self {
            Expr::Const(c) => Expr::Const(*c),
            Expr::Ref(r) => Expr::Ref(r.transformed(q)),
            Expr::Add(a, b) => Expr::Add(Box::new(a.transformed(q)), Box::new(b.transformed(q))),
            Expr::Sub(a, b) => Expr::Sub(Box::new(a.transformed(q)), Box::new(b.transformed(q))),
            Expr::Mul(a, b) => Expr::Mul(Box::new(a.transformed(q)), Box::new(b.transformed(q))),
            Expr::Div(a, b) => Expr::Div(Box::new(a.transformed(q)), Box::new(b.transformed(q))),
        }
    }
}

/// Guard attached to a statement by code sinking: the statement runs
/// only at one extreme iteration of a sunk loop variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// Index (loop level) of the guarded variable.
    pub var: usize,
    /// Execute only at this end of the variable's range.
    pub at: GuardAt,
}

/// Which end of the range a [`Guard`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardAt {
    /// First iteration of the sunk loop.
    LowerBound,
    /// Last iteration of the sunk loop.
    UpperBound,
}

/// An assignment `lhs = rhs`, optionally guarded (see [`Guard`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The written reference.
    pub lhs: ArrayRef,
    /// The right-hand side.
    pub rhs: Expr,
    /// Code-sinking guards (empty for ordinary statements).
    pub guards: Vec<Guard>,
}

impl Statement {
    /// An unguarded assignment.
    #[must_use]
    pub fn assign(lhs: ArrayRef, rhs: Expr) -> Self {
        Statement {
            lhs,
            rhs,
            guards: Vec::new(),
        }
    }

    /// All references: the write first, then the reads.
    #[must_use]
    pub fn refs(&self) -> Vec<&ArrayRef> {
        let mut out = vec![&self.lhs];
        self.rhs.collect_refs(&mut out);
        out
    }

    /// Read references only.
    #[must_use]
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.rhs.collect_refs(&mut out);
        out
    }

    /// The statement after a loop transformation with inverse `q`.
    #[must_use]
    pub fn transformed(&self, q: &Matrix) -> Statement {
        Statement {
            lhs: self.lhs.transformed(q),
            rhs: self.rhs.transformed(q),
            guards: self.guards.clone(),
        }
    }
}

/// A perfectly nested affine loop nest.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Nest depth `k`.
    pub depth: usize,
    /// Iteration-space polyhedron over `depth` variables and the
    /// program's parameters. Variable 0 is the outermost loop.
    pub bounds: Polyhedron,
    /// Body statements, executed in order at every iteration.
    pub body: Vec<Statement>,
    /// Number of times this nest re-executes (the paper's outer timing
    /// loop, Table 1 `iter` column). Affects cost and I/O volume but
    /// not the transformation algebra.
    pub iterations: u32,
}

impl LoopNest {
    /// Creates a rectangular nest `1..=N` in every dimension where `N`
    /// is parameter `param` of a program with `nparams` parameters.
    #[must_use]
    pub fn rectangular(
        name: impl Into<String>,
        depth: usize,
        nparams: usize,
        param: usize,
        body: Vec<Statement>,
    ) -> Self {
        let mut bounds = Polyhedron::universe(depth, nparams);
        for v in 0..depth {
            bounds.add_var_range_param(v, param);
        }
        LoopNest {
            name: name.into(),
            depth,
            bounds,
            body,
            iterations: 1,
        }
    }

    /// All array ids referenced by the nest, deduplicated.
    #[must_use]
    pub fn arrays(&self) -> Vec<ArrayId> {
        let mut ids: Vec<ArrayId> = self
            .body
            .iter()
            .flat_map(|s| s.refs().into_iter().map(|r| r.array))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// All references in the nest (writes and reads).
    #[must_use]
    pub fn all_refs(&self) -> Vec<&ArrayRef> {
        self.body.iter().flat_map(Statement::refs).collect()
    }

    /// The nest with the loop transformation whose inverse is `q`
    /// applied to bounds and subscripts. The caller is responsible for
    /// legality (see `ooc-core`).
    #[must_use]
    pub fn transformed(&self, q: &Matrix) -> LoopNest {
        LoopNest {
            name: self.name.clone(),
            depth: self.depth,
            bounds: self.bounds.transform(q),
            body: self.body.iter().map(|s| s.transformed(q)).collect(),
            iterations: self.iterations,
        }
    }

    /// Approximate iteration count at the given parameter values
    /// (product of per-level extents of the bounding box; exact for
    /// rectangular nests).
    #[must_use]
    pub fn iteration_count(&self, params: &[i64]) -> f64 {
        if self.bounds.is_rectangular() {
            // No level's range depends on an outer level.
            let Some(ranges) = self.bounds.box_ranges(params) else {
                return 0.0;
            };
            let total = ranges
                .iter()
                .fold(1f64, |total, &(lo, hi)| total * (hi - lo + 1) as f64);
            return total * f64::from(self.iterations);
        }
        let bounds = self.bounds.loop_bounds();
        let mut total = 1f64;
        let mut outer: Vec<i64> = Vec::new();
        for b in &bounds {
            // Evaluate at the lexicographically-first feasible outer point
            // as a representative extent.
            match b.eval(&outer, params) {
                Some((lo, hi)) => {
                    total *= (hi - lo + 1) as f64;
                    outer.push(lo);
                }
                None => return 0.0,
            }
        }
        total * f64::from(self.iterations)
    }
}

/// A normalized affine program: parameters, arrays, and a sequence of
/// perfect loop nests.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Names of symbolic size parameters (e.g. `["N"]`).
    pub params: Vec<String>,
    /// Array declarations indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// The loop nests in program order.
    pub nests: Vec<LoopNest>,
}

impl Program {
    /// Creates an empty program with the given parameter names.
    #[must_use]
    pub fn new(params: &[&str]) -> Self {
        Program {
            params: params.iter().map(|s| (*s).to_string()).collect(),
            arrays: Vec::new(),
            nests: Vec::new(),
        }
    }

    /// Declares an array whose dimensions all equal parameter `param`.
    pub fn declare_array(&mut self, name: &str, rank: usize, param: usize) -> ArrayId {
        self.declare_array_dims(name, vec![DimSize::Param(param); rank])
    }

    /// Declares an array with explicit dimension sizes.
    pub fn declare_array_dims(&mut self, name: &str, dims: Vec<DimSize>) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            dims,
        });
        id
    }

    /// Adds a nest, returning its id.
    pub fn add_nest(&mut self, nest: LoopNest) -> NestId {
        let id = NestId(self.nests.len());
        self.nests.push(nest);
        id
    }

    /// Looks up an array declaration.
    #[must_use]
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// Looks up a nest.
    #[must_use]
    pub fn nest(&self, id: NestId) -> &LoopNest {
        &self.nests[id.0]
    }

    /// Total out-of-core data footprint in elements at the given
    /// parameter values.
    #[must_use]
    pub fn total_elements(&self, params: &[i64]) -> i64 {
        self.arrays.iter().map(|a| a.len(params)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_d_ref(array: ArrayId, rows: &[Vec<i64>]) -> ArrayRef {
        ArrayRef::new(array, rows, vec![0, 0])
    }

    #[test]
    fn subscripts_evaluate() {
        // V(j, i): access [[0,1],[1,0]].
        let r = two_d_ref(ArrayId(0), &[vec![0, 1], vec![1, 0]]);
        assert_eq!(r.subscripts(&[3, 7]), vec![7, 3]);
        // With offset: U(i+1, j-1).
        let r2 = ArrayRef::new(ArrayId(0), &[vec![1, 0], vec![0, 1]], vec![1, -1]);
        assert_eq!(r2.subscripts(&[3, 7]), vec![4, 6]);
    }

    #[test]
    fn fractional_access_takes_the_rational_path() {
        // A(i/2 + j/2): integer only where i + j is even.
        let half = ooc_linalg::Rational::new(1, 2);
        let r = ArrayRef {
            array: ArrayId(0),
            access: Matrix::from_rationals(1, 2, vec![half, half]),
            offset: vec![3],
        };
        assert_eq!(r.subscripts(&[5, 7]), vec![9]);
    }

    #[test]
    fn transformed_reference_composes() {
        // Interchange: Q = [[0,1],[1,0]]; V(j,i) becomes V(i',j') in new coords.
        let r = two_d_ref(ArrayId(0), &[vec![0, 1], vec![1, 0]]);
        let q = Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
        let t = r.transformed(&q);
        assert_eq!(t.access, Matrix::from_i64(2, 2, &[1, 0, 0, 1]));
    }

    #[test]
    fn statement_refs_order() {
        let u = two_d_ref(ArrayId(0), &[vec![1, 0], vec![0, 1]]);
        let v = two_d_ref(ArrayId(1), &[vec![0, 1], vec![1, 0]]);
        let s = Statement::assign(
            u.clone(),
            Expr::Add(Box::new(Expr::Ref(v.clone())), Box::new(Expr::Const(1.0))),
        );
        let refs = s.refs();
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].array, ArrayId(0));
        assert_eq!(refs[1].array, ArrayId(1));
        assert_eq!(s.reads().len(), 1);
    }

    #[test]
    fn nest_arrays_dedup() {
        let u = two_d_ref(ArrayId(0), &[vec![1, 0], vec![0, 1]]);
        let s1 = Statement::assign(u.clone(), Expr::Ref(u.clone()));
        let nest = LoopNest::rectangular("n", 2, 1, 0, vec![s1]);
        assert_eq!(nest.arrays(), vec![ArrayId(0)]);
    }

    #[test]
    fn rectangular_iteration_count() {
        let u = two_d_ref(ArrayId(0), &[vec![1, 0], vec![0, 1]]);
        let s = Statement::assign(u.clone(), Expr::Const(0.0));
        let mut nest = LoopNest::rectangular("n", 2, 1, 0, vec![s]);
        assert_eq!(nest.iteration_count(&[10]) as i64, 100);
        nest.iterations = 3;
        assert_eq!(nest.iteration_count(&[10]) as i64, 300);
    }

    #[test]
    fn program_declarations() {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 2, 0);
        let b = p.declare_array_dims("B", vec![DimSize::Const(5), DimSize::Param(0)]);
        assert_eq!(p.array(a).rank(), 2);
        assert_eq!(p.array(a).len(&[8]), 64);
        assert_eq!(p.array(b).len(&[8]), 40);
        assert_eq!(p.total_elements(&[8]), 104);
    }

    #[test]
    fn dim_size_resolution() {
        assert_eq!(DimSize::Const(7).resolve(&[99]), 7);
        assert_eq!(DimSize::Param(0).resolve(&[99]), 99);
    }

    #[test]
    fn nest_transform_interchanges_bounds() {
        let u = two_d_ref(ArrayId(0), &[vec![1, 0], vec![0, 1]]);
        let s = Statement::assign(u.clone(), Expr::Const(0.0));
        let mut bounds = Polyhedron::universe(2, 0);
        bounds.add_var_range(0, 1, 5);
        bounds.add_var_range(1, 1, 2);
        let nest = LoopNest {
            name: "n".into(),
            depth: 2,
            bounds,
            body: vec![s],
            iterations: 1,
        };
        let q = Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
        let t = nest.transformed(&q);
        let pts = t.bounds.enumerate(&[]);
        assert_eq!(pts.len(), 10);
        assert!(pts.iter().all(|p| (1..=2).contains(&p[0])));
    }
}
