//! Shared unit-test fixtures: the paper's running example, tiled, with
//! a deterministic seeding function and its synchronous reference run.

use crate::exec::{run_functional_on, FunctionalConfig, FunctionalRun};
use crate::optimizer::{optimize, OptimizeOptions};
use crate::tiling::{TiledProgram, TilingStrategy};
use ooc_ir::{ArrayId, ArrayRef, Expr, LoopNest, Program, Statement};
use ooc_runtime::MemStore;

/// The paper's running example (§3.1):
///   nest 1: U(i,j) = V(j,i) + 1
///   nest 2: V(i,j) = W(j,i) + 2
/// Expected: U row-major, V column-major, W row-major; nest 2
/// interchanged.
pub(crate) fn paper_example() -> Program {
    let mut p = Program::new(&["N"]);
    let u = p.declare_array("U", 2, 0);
    let v = p.declare_array("V", 2, 0);
    let w = p.declare_array("W", 2, 0);
    let transposed = |a| Expr::Ref(ArrayRef::new(a, &[vec![0, 1], vec![1, 0]], vec![0, 0]));
    let s1 = Statement::assign(
        ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
        Expr::Add(Box::new(transposed(v)), Box::new(Expr::Const(1.0))),
    );
    p.add_nest(LoopNest::rectangular("nest1", 2, 1, 0, vec![s1]));
    let s2 = Statement::assign(
        ArrayRef::new(v, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
        Expr::Add(Box::new(transposed(w)), Box::new(Expr::Const(2.0))),
    );
    p.add_nest(LoopNest::rectangular("nest2", 2, 1, 0, vec![s2]));
    p
}

/// [`paper_example`], optimized (c-opt) and tiled out-of-core.
pub(crate) fn tiled() -> TiledProgram {
    let opt = optimize(&paper_example(), &OptimizeOptions::default());
    TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore)
}

/// Distinct per array and per index tuple.
pub(crate) fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    (a.0 as f64 + 1.0) * 1000.0 + idx.iter().fold(0.0, |acc, &x| acc * 17.0 + x as f64)
}

/// The functional config every executor test runs under: 1/16 of the
/// data as memory, so the small test sizes still tile.
pub(crate) fn fcfg() -> FunctionalConfig {
    FunctionalConfig::with_fraction(16)
}

/// The synchronous reference run over in-memory stores — the oracle
/// the other executors are compared against.
pub(crate) fn sync_reference(tp: &TiledProgram, params: &[i64]) -> FunctionalRun {
    run_functional_on(tp, params, &seed, &fcfg(), |_, _, len| {
        Ok(MemStore::new(len))
    })
    .expect("sync reference run")
}
