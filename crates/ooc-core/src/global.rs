//! Globally optimal file-layout assignment — the paper's stated
//! future work ("we are also working on the problem of determining
//! optimal file layouts using techniques from integer linear
//! programming", §5), implemented as an exact search.
//!
//! The greedy algorithm of §3 fixes layouts nest by nest in cost
//! order; an early decision can strand a later nest (the `adi`
//! deviation documented in `EXPERIMENTS.md`). This module instead
//! enumerates *joint* layout assignments — each array ranges over its
//! plausible dimension orders — and, for every assignment, gives each
//! nest its best legal loop transformation under the full modeled I/O
//! cost, keeping the assignment with the smallest total. Branch and
//! bound prunes assignments whose partial cost already exceeds the
//! incumbent; programs whose search space exceeds
//! [`GlobalOptions::max_assignments`] fall back to the greedy
//! algorithm (returning its result unchanged).

use crate::cost::default_layouts;
use crate::optimizer::{
    best_transform_for, modeled_program_cost, OptimizeOptions, OptimizedProgram,
};
use ooc_ir::Program;
use ooc_linalg::Matrix;
use ooc_runtime::FileLayout;

/// Options for the global search.
#[derive(Debug, Clone)]
pub struct GlobalOptions {
    /// Base optimizer options (cost parameters, completion limit).
    pub opts: OptimizeOptions,
    /// Upper bound on the number of joint assignments to consider
    /// before falling back to the greedy algorithm.
    pub max_assignments: u64,
}

impl Default for GlobalOptions {
    fn default() -> Self {
        GlobalOptions {
            opts: OptimizeOptions::default(),
            max_assignments: 4096,
        }
    }
}

/// Candidate layouts for one array: every rotation of its dimension
/// order (each dimension takes a turn as the contiguous one, the rest
/// keep the Fortran-style relative order). For 2-D arrays this is
/// exactly {column-major, row-major}, the choice set of the paper's
/// published comparisons.
#[must_use]
fn layout_candidates(rank: usize) -> Vec<FileLayout> {
    (0..rank)
        .map(|inner| {
            let mut perm: Vec<usize> = (0..rank).rev().filter(|&d| d != inner).collect();
            perm.push(inner);
            FileLayout::DimOrder(perm)
        })
        .collect()
}

/// Result of the global search.
#[derive(Debug, Clone)]
pub struct GlobalResult {
    /// The chosen program (transformed nests) and layouts.
    pub optimized: OptimizedProgram,
    /// Total modeled cost of the chosen assignment.
    pub modeled_cost: f64,
    /// Number of joint assignments evaluated (0 = greedy fallback).
    pub assignments_searched: u64,
    /// Whether the search fell back to the greedy algorithm.
    pub fell_back: bool,
}

/// Runs the global layout search.
#[must_use]
pub fn optimize_global(prog: &Program, gopts: &GlobalOptions) -> GlobalResult {
    let greedy = crate::optimizer::optimize(prog, &gopts.opts);
    let greedy_cost = modeled_program_cost(prog, &greedy, &gopts.opts);

    // Search-space size check.
    let candidates: Vec<Vec<FileLayout>> = prog
        .arrays
        .iter()
        .map(|a| layout_candidates(a.rank()))
        .collect();
    let space: u64 = candidates
        .iter()
        .map(|c| c.len() as u64)
        .try_fold(1u64, u64::checked_mul)
        .unwrap_or(u64::MAX);
    if space > gopts.max_assignments {
        return GlobalResult {
            optimized: greedy,
            modeled_cost: greedy_cost,
            assignments_searched: 0,
            fell_back: true,
        };
    }

    // Exhaustive enumeration with the greedy result as the incumbent
    // bound.
    let mut best_cost = greedy_cost;
    let mut best: Option<(Vec<FileLayout>, Vec<Matrix>, Program)> = None;
    let mut searched = 0u64;
    let mut assignment: Vec<FileLayout> = default_layouts(prog);

    enumerate(&candidates, 0, &mut assignment, &mut |layouts| {
        searched += 1;
        // Per nest: the best legal transformation under this assignment,
        // with early termination once the running total exceeds the
        // incumbent (branch and bound at nest granularity).
        let mut total = 0.0;
        let mut transforms = Vec::with_capacity(prog.nests.len());
        let mut nests = Vec::with_capacity(prog.nests.len());
        for nest in &prog.nests {
            let (q, cost) = best_transform_for(prog, nest, layouts, &gopts.opts);
            total += cost;
            if total >= best_cost {
                return;
            }
            let transformed = if q == Matrix::identity(nest.depth) {
                nest.clone()
            } else {
                nest.transformed(&q)
            };
            transforms.push(q);
            nests.push(transformed);
        }
        best_cost = total;
        let mut program = prog.clone();
        program.nests = nests;
        best = Some((layouts.to_vec(), transforms, program));
    });

    match best {
        Some((layouts, transforms, program)) => GlobalResult {
            optimized: OptimizedProgram {
                program,
                layouts,
                transforms,
                log: vec![format!(
                    "global search: {searched} assignments, cost {best_cost:.3} \
                     (greedy {greedy_cost:.3})"
                )],
            },
            modeled_cost: best_cost,
            assignments_searched: searched,
            fell_back: false,
        },
        None => GlobalResult {
            optimized: greedy,
            modeled_cost: greedy_cost,
            assignments_searched: searched,
            fell_back: false,
        },
    }
}

fn enumerate(
    candidates: &[Vec<FileLayout>],
    idx: usize,
    assignment: &mut Vec<FileLayout>,
    f: &mut impl FnMut(&[FileLayout]),
) {
    if idx == candidates.len() {
        f(assignment);
        return;
    }
    for c in &candidates[idx] {
        assignment[idx] = c.clone();
        enumerate(candidates, idx + 1, assignment, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::max_divergence_from_reference;
    use crate::tiling::{TiledProgram, TilingStrategy};
    use ooc_ir::{ArrayRef, Expr, LoopNest, Statement};

    fn worked_example() -> Program {
        let mut p = Program::new(&["N"]);
        let u = p.declare_array("U", 2, 0);
        let v = p.declare_array("V", 2, 0);
        let w = p.declare_array("W", 2, 0);
        let s1 = Statement::assign(
            ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(ArrayRef::new(v, &[vec![0, 1], vec![1, 0]], vec![0, 0])),
        );
        p.add_nest(LoopNest::rectangular("nest1", 2, 1, 0, vec![s1]));
        let s2 = Statement::assign(
            ArrayRef::new(v, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            Expr::Ref(ArrayRef::new(w, &[vec![0, 1], vec![1, 0]], vec![0, 0])),
        );
        p.add_nest(LoopNest::rectangular("nest2", 2, 1, 0, vec![s2]));
        p
    }

    #[test]
    fn candidates_per_rank() {
        assert_eq!(layout_candidates(1), vec![FileLayout::DimOrder(vec![0])]);
        let c2 = layout_candidates(2);
        assert!(c2.contains(&FileLayout::col_major(2)));
        assert!(c2.contains(&FileLayout::row_major(2)));
        assert_eq!(layout_candidates(4).len(), 4);
    }

    #[test]
    fn global_never_worse_than_greedy() {
        let prog = worked_example();
        let gopts = GlobalOptions::default();
        let greedy = crate::optimizer::optimize(&prog, &gopts.opts);
        let greedy_cost = modeled_program_cost(&prog, &greedy, &gopts.opts);
        let global = optimize_global(&prog, &gopts);
        assert!(!global.fell_back);
        assert!(global.assignments_searched > 0);
        assert!(
            global.modeled_cost <= greedy_cost + 1e-9,
            "global {} vs greedy {}",
            global.modeled_cost,
            greedy_cost
        );
    }

    #[test]
    fn global_result_is_semantically_correct() {
        let prog = worked_example();
        let global = optimize_global(&prog, &GlobalOptions::default());
        let tp = TiledProgram::from_optimized(&global.optimized, TilingStrategy::OutOfCore);
        let d = max_divergence_from_reference(&tp, &prog, &[11], &|a, idx| {
            (a.0 * 19) as f64 + (idx[0] * 7 + idx[1]) as f64
        });
        assert_eq!(d, 0.0);
    }

    #[test]
    fn fallback_on_huge_spaces() {
        let mut prog = Program::new(&["N"]);
        // 31 two-candidate arrays -> 2^31 assignments > the default cap.
        let ids: Vec<_> = (0..31)
            .map(|i| prog.declare_array(&format!("A{i}"), 2, 0))
            .collect();
        let mut rhs = Expr::Const(1.0);
        for &a in &ids[1..] {
            rhs = Expr::Add(
                Box::new(rhs),
                Box::new(Expr::Ref(ArrayRef::new(
                    a,
                    &[vec![1, 0], vec![0, 1]],
                    vec![0, 0],
                ))),
            );
        }
        let s = Statement::assign(
            ArrayRef::new(ids[0], &[vec![1, 0], vec![0, 1]], vec![0, 0]),
            rhs,
        );
        prog.add_nest(LoopNest::rectangular("big", 2, 1, 0, vec![s]));
        let global = optimize_global(&prog, &GlobalOptions::default());
        assert!(global.fell_back);
        assert_eq!(global.assignments_searched, 0);
    }

    #[test]
    fn transforms_in_global_result_are_legal() {
        let prog = worked_example();
        let global = optimize_global(&prog, &GlobalOptions::default());
        for (i, q) in global.optimized.transforms.iter().enumerate() {
            assert!(q.is_unimodular());
            let t = q.inverse().expect("invertible");
            let deps = ooc_ir::nest_dependences(&prog.nests[i]);
            assert!(ooc_ir::transformation_preserves(&t, &deps), "nest {i}");
        }
    }
}
