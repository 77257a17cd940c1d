//! Reference interpreter for normalized programs.
//!
//! Executes a [`Program`] for real on in-memory `f64` arrays, in
//! program order, with no tiling and no I/O model. This is the
//! *semantic ground truth*: every transformed or tiled variant
//! produced by `ooc-core` must compute exactly the same array contents
//! as this interpreter (verified by the functional test suites).

use crate::program::{ArrayId, ArrayRef, Expr, GuardAt, LoopNest, Program, Statement};

/// In-memory array storage for functional execution. Arrays are
/// stored canonically (row-major over their declared dimensions,
/// 1-based subscripts); storage order is irrelevant to semantics.
#[derive(Debug, Clone)]
pub struct Memory {
    params: Vec<i64>,
    dims: Vec<Vec<i64>>,
    data: Vec<Vec<f64>>,
}

impl Memory {
    /// Allocates zero-initialized storage for every array of `prog` at
    /// the given parameter values.
    #[must_use]
    pub fn for_program(prog: &Program, params: &[i64]) -> Self {
        assert_eq!(params.len(), prog.params.len(), "parameter count mismatch");
        let dims: Vec<Vec<i64>> = prog
            .arrays
            .iter()
            .map(|a| a.dims.iter().map(|d| d.resolve(params)).collect())
            .collect();
        let data = dims
            .iter()
            .map(|d| vec![0.0; usize::try_from(d.iter().product::<i64>()).expect("size")])
            .collect();
        Memory {
            params: params.to_vec(),
            dims,
            data,
        }
    }

    /// The parameter values this memory was sized for.
    #[must_use]
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// Linearizes 1-based subscripts into the canonical row-major
    /// offset.
    ///
    /// # Panics
    /// Panics on out-of-bounds subscripts — transformed code that
    /// indexes outside the declared region is a compiler bug we want
    /// to catch loudly.
    #[must_use]
    pub fn offset(&self, array: ArrayId, subs: &[i64]) -> usize {
        let dims = &self.dims[array.0];
        assert_eq!(subs.len(), dims.len(), "rank mismatch for array {array:?}");
        let mut off: i64 = 0;
        for (d, (&s, &extent)) in subs.iter().zip(dims).enumerate() {
            assert!(
                (1..=extent).contains(&s),
                "subscript {s} out of bounds 1..={extent} in dim {d} of array {array:?}"
            );
            off = off * extent + (s - 1);
        }
        usize::try_from(off).expect("offset overflow")
    }

    /// Reads one element.
    #[must_use]
    pub fn read(&self, r: &ArrayRef, iter: &[i64]) -> f64 {
        let subs = r.subscripts(iter);
        self.data[r.array.0][self.offset(r.array, &subs)]
    }

    /// Writes one element.
    pub fn write(&mut self, r: &ArrayRef, iter: &[i64], value: f64) {
        let subs = r.subscripts(iter);
        let off = self.offset(r.array, &subs);
        self.data[r.array.0][off] = value;
    }

    /// Raw contents of an array (canonical order), for comparisons.
    #[must_use]
    pub fn array_data(&self, array: ArrayId) -> &[f64] {
        &self.data[array.0]
    }

    /// Mutable raw contents (for seeding test inputs).
    pub fn array_data_mut(&mut self, array: ArrayId) -> &mut [f64] {
        &mut self.data[array.0]
    }

    /// Fills an array with values from a function of its canonical
    /// linear index (handy for deterministic test seeding).
    pub fn seed(&mut self, array: ArrayId, f: impl Fn(usize) -> f64) {
        for (i, x) in self.data[array.0].iter_mut().enumerate() {
            *x = f(i);
        }
    }
}

/// Evaluates an expression at an iteration point.
#[must_use]
fn eval_expr(e: &Expr, mem: &Memory, iter: &[i64]) -> f64 {
    match e {
        Expr::Const(c) => *c,
        Expr::Ref(r) => mem.read(r, iter),
        Expr::Add(a, b) => eval_expr(a, mem, iter) + eval_expr(b, mem, iter),
        Expr::Sub(a, b) => eval_expr(a, mem, iter) - eval_expr(b, mem, iter),
        Expr::Mul(a, b) => eval_expr(a, mem, iter) * eval_expr(b, mem, iter),
        Expr::Div(a, b) => eval_expr(a, mem, iter) / eval_expr(b, mem, iter),
    }
}

/// Executes a single nest over memory.
fn execute_nest(nest: &LoopNest, mem: &mut Memory) {
    let bounds = nest.bounds.loop_bounds();
    let params = mem.params().to_vec();
    for _ in 0..nest.iterations {
        let mut iter: Vec<i64> = Vec::with_capacity(nest.depth);
        exec_level(nest, &bounds, &params, &mut iter, mem);
    }
}

fn exec_level(
    nest: &LoopNest,
    bounds: &[ooc_linalg::LoopBounds],
    params: &[i64],
    iter: &mut Vec<i64>,
    mem: &mut Memory,
) {
    let level = iter.len();
    if level == nest.depth {
        run_body(nest, bounds, params, iter, mem);
        return;
    }
    let Some((lo, hi)) = bounds[level].eval(iter, params) else {
        return;
    };
    for v in lo..=hi {
        iter.push(v);
        exec_level(nest, bounds, params, iter, mem);
        iter.pop();
    }
}

fn run_body(
    nest: &LoopNest,
    bounds: &[ooc_linalg::LoopBounds],
    params: &[i64],
    iter: &[i64],
    mem: &mut Memory,
) {
    for stmt in &nest.body {
        if guards_hold(stmt, bounds, params, iter) {
            let value = eval_expr(&stmt.rhs, mem, iter);
            mem.write(&stmt.lhs, iter, value);
        }
    }
}

/// Evaluates code-sinking guards: a guard holds when the guarded loop
/// variable is at its lower (resp. upper) bound *given the current
/// outer iterators*.
fn guards_hold(
    stmt: &Statement,
    bounds: &[ooc_linalg::LoopBounds],
    params: &[i64],
    iter: &[i64],
) -> bool {
    stmt.guards.iter().all(|g| {
        let outer = &iter[..g.var];
        let Some((lo, hi)) = bounds[g.var].eval(outer, params) else {
            return false;
        };
        match g.at {
            GuardAt::LowerBound => iter[g.var] == lo,
            GuardAt::UpperBound => iter[g.var] == hi,
        }
    })
}

/// Executes an entire program (all nests, in order).
pub fn execute_program(prog: &Program, mem: &mut Memory) {
    for nest in &prog.nests {
        execute_nest(nest, mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ArrayId, ArrayRef, Expr, Guard, GuardAt, LoopNest, Program, Statement};

    fn refm(a: usize, rows: &[Vec<i64>], off: Vec<i64>) -> ArrayRef {
        ArrayRef::new(ArrayId(a), rows, off)
    }

    fn transpose_program() -> Program {
        let mut p = Program::new(&["N"]);
        let u = p.declare_array("U", 2, 0);
        let v = p.declare_array("V", 2, 0);
        let s = Statement::assign(
            ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Add(
                Box::new(Expr::Ref(ArrayRef::new(
                    v,
                    &[vec![0, 1], vec![1, 0]],
                    vec![0, 0],
                ))),
                Box::new(Expr::Const(1.0)),
            ),
        );
        p.add_nest(LoopNest::rectangular("n0", 2, 1, 0, vec![s]));
        p
    }

    #[test]
    fn transpose_executes() {
        let p = transpose_program();
        let mut mem = Memory::for_program(&p, &[3]);
        mem.seed(ArrayId(1), |i| i as f64);
        execute_program(&p, &mut mem);
        // U(i,j) = V(j,i) + 1. V is canonical row-major 3x3: V(r,c) = 3(r-1)+(c-1).
        // So U(1,2) = V(2,1) + 1 = 3 + 1 = 4.
        let u = mem.array_data(ArrayId(0));
        assert_eq!(u[mem.offset(ArrayId(0), &[1, 2])], 4.0);
        assert_eq!(u[mem.offset(ArrayId(0), &[2, 1])], 1.0 + 1.0);
        assert_eq!(u[mem.offset(ArrayId(0), &[3, 3])], 8.0 + 1.0);
    }

    #[test]
    fn transformed_nest_same_result() {
        let p = transpose_program();
        // Interchange the loops: semantics must be identical (no deps).
        let q = ooc_linalg::Matrix::from_i64(2, 2, &[0, 1, 1, 0]);
        let mut p2 = p.clone();
        p2.nests[0] = p.nests[0].transformed(&q);

        let mut m1 = Memory::for_program(&p, &[5]);
        m1.seed(ArrayId(1), |i| (i * 7 % 13) as f64);
        let mut m2 = m1.clone();
        execute_program(&p, &mut m1);
        execute_program(&p2, &mut m2);
        assert_eq!(m1.array_data(ArrayId(0)), m2.array_data(ArrayId(0)));
    }

    #[test]
    fn guarded_statement_runs_once_per_outer() {
        // do i { A(i) = 0 [guard j at lower]; do j: A(i) = A(i) + 1 }
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let init = Statement {
            lhs: refm(a.0, &[vec![1, 0]], vec![0]),
            rhs: Expr::Const(0.0),
            guards: vec![Guard {
                var: 1,
                at: GuardAt::LowerBound,
            }],
        };
        let acc = Statement::assign(
            refm(a.0, &[vec![1, 0]], vec![0]),
            Expr::Add(
                Box::new(Expr::Ref(refm(a.0, &[vec![1, 0]], vec![0]))),
                Box::new(Expr::Const(1.0)),
            ),
        );
        p.add_nest(LoopNest::rectangular("n0", 2, 1, 0, vec![init, acc]));
        let mut mem = Memory::for_program(&p, &[4]);
        mem.seed(a, |_| 99.0);
        execute_program(&p, &mut mem);
        // Each A(i) reset once then incremented N=4 times.
        for i in 1..=4 {
            assert_eq!(mem.array_data(a)[mem.offset(a, &[i])], 4.0);
        }
    }

    #[test]
    fn iterations_repeat_nest() {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let acc = Statement::assign(
            refm(a.0, &[vec![1]], vec![0]),
            Expr::Add(
                Box::new(Expr::Ref(refm(a.0, &[vec![1]], vec![0]))),
                Box::new(Expr::Const(1.0)),
            ),
        );
        let mut nest = LoopNest::rectangular("n0", 1, 1, 0, vec![acc]);
        nest.iterations = 3;
        p.add_nest(nest);
        let mut mem = Memory::for_program(&p, &[2]);
        execute_program(&p, &mut mem);
        assert_eq!(mem.array_data(a), &[3.0, 3.0]);
    }

    #[test]
    fn upper_bound_guard_runs_last() {
        // do i { do j: A(i) += 1; A(i) *= 2 [guard j at upper] }:
        // the scale-by-two runs once, after all increments.
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let acc = Statement::assign(
            refm(a.0, &[vec![1, 0]], vec![0]),
            Expr::Add(
                Box::new(Expr::Ref(refm(a.0, &[vec![1, 0]], vec![0]))),
                Box::new(Expr::Const(1.0)),
            ),
        );
        let scale = Statement {
            lhs: refm(a.0, &[vec![1, 0]], vec![0]),
            rhs: Expr::Mul(
                Box::new(Expr::Ref(refm(a.0, &[vec![1, 0]], vec![0]))),
                Box::new(Expr::Const(2.0)),
            ),
            guards: vec![Guard {
                var: 1,
                at: GuardAt::UpperBound,
            }],
        };
        p.add_nest(LoopNest::rectangular("n", 2, 1, 0, vec![acc, scale]));
        let mut mem = Memory::for_program(&p, &[3]);
        execute_program(&p, &mut mem);
        // Each A(i): +1 three times, then x2 at j = N: (3) * 2 = 6.
        assert_eq!(mem.array_data(a), &[6.0, 6.0, 6.0]);
    }

    #[test]
    fn non_rectangular_bounds_execute() {
        // Triangular nest: A(i) counts j <= i.
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let acc = Statement::assign(
            refm(a.0, &[vec![1, 0]], vec![0]),
            Expr::Add(
                Box::new(Expr::Ref(refm(a.0, &[vec![1, 0]], vec![0]))),
                Box::new(Expr::Const(1.0)),
            ),
        );
        let mut bounds = ooc_linalg::Polyhedron::universe(2, 1);
        bounds.add_var_range_param(0, 0);
        let x0 = ooc_linalg::Affine::var(2, 1, 0);
        let x1 = ooc_linalg::Affine::var(2, 1, 1);
        let one = ooc_linalg::Affine::constant(2, 1, 1);
        bounds.add_ge0(x1.sub(&one));
        bounds.add_ge0(x0.sub(&x1));
        p.add_nest(LoopNest {
            name: "tri".into(),
            depth: 2,
            bounds,
            body: vec![acc],
            iterations: 1,
        });
        let mut mem = Memory::for_program(&p, &[4]);
        execute_program(&p, &mut mem);
        assert_eq!(mem.array_data(a), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_detected() {
        let p = transpose_program();
        let mem = Memory::for_program(&p, &[2]);
        let _ = mem.offset(ArrayId(0), &[3, 1]);
    }
}
