//! The compiled tile body (`ooc_core::TileKernel`) against the IR
//! reference interpreter, through both tile walks.
//!
//! Random nests stress what the ten kernels do not: skewed and
//! reversed accesses, halo offsets, a written array read through a
//! second access class (hull staging), a same-iteration
//! read-after-write between two statements, guards on outer and
//! innermost levels, triangular bounds, repeated nests, and tile spans
//! that do not divide the extents. Every case runs through
//! `run_functional_on` (the synchronous walk) and `exec_pipelined`
//! (the step engine) and must equal `ooc_ir::execute_program` bit for
//! bit.

mod common;

use common::{random_nest, Pool};
use ooc_opt::core::{
    exec_pipelined, extract_schedule, plan_nest, run_functional, run_functional_on,
    FunctionalConfig, OptimizedProgram, PipelineConfig, PlanEnv, TiledProgram, TilingStrategy,
};
use ooc_opt::ir::{execute_program, ArrayId, ArrayRef, Expr, LoopNest, Memory, Program, Statement};
use ooc_opt::linalg::{Affine, Matrix};
use ooc_opt::runtime::{FileLayout, MemStore};
use proptest::prelude::*;

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 3) * 1_000_003;
    for &x in idx {
        h = h.wrapping_mul(37).wrapping_add(x * 101);
    }
    ((h % 811) as f64) * 0.5 + 1.0
}

/// The IR interpreter's result on `prog`, arrays seeded like the
/// executors seed theirs.
fn reference(prog: &Program, params: &[i64]) -> Vec<Vec<u64>> {
    let mut mem = Memory::for_program(prog, params);
    for (a, decl) in prog.arrays.iter().enumerate() {
        let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(params)).collect();
        let mut idx = vec![1i64; dims.len()];
        for slot in mem.array_data_mut(ArrayId(a)).iter_mut() {
            *slot = seed(ArrayId(a), &idx);
            // Odometer over the dims, last fastest.
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] <= dims[d] {
                    break;
                }
                idx[d] = 1;
            }
        }
    }
    execute_program(prog, &mut mem);
    (0..prog.arrays.len())
        .map(|a| bits(mem.array_data(ArrayId(a))))
        .collect()
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// `prog` untransformed, under the given layouts and tiling strategy
/// (levels the dependences forbid tiling stay untiled).
fn tiled(prog: &Program, layouts: Vec<FileLayout>, strategy: TilingStrategy) -> TiledProgram {
    let opt = OptimizedProgram {
        program: prog.clone(),
        layouts,
        transforms: prog
            .nests
            .iter()
            .map(|n| Matrix::identity(n.depth))
            .collect(),
        log: Vec::new(),
    };
    TiledProgram::from_optimized(&opt, strategy)
}

/// Both walks' results on `tp`, as bits.
fn both_walks(tp: &TiledProgram, params: &[i64], fraction: u64) -> [Vec<Vec<u64>>; 2] {
    let sync = run_functional_on(
        tp,
        params,
        &seed,
        &FunctionalConfig::with_fraction(fraction),
        |_, _, len| Ok(MemStore::new(len)),
    )
    .expect("synchronous walk");
    let piped = exec_pipelined(
        tp,
        params,
        &seed,
        &PipelineConfig::with_fraction(fraction),
        |_, _, len| Ok(MemStore::new(len)),
    )
    .expect("step engine");
    [sync.data, piped.run.data].map(|data| data.iter().map(|d| bits(d)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_the_oracle_on_both_walks(
        pool in proptest::collection::vec(0u32..1_000_000, 96),
        fraction in 2u64..24,
    ) {
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()), 7);
        let want = reference(&prog, &[]);
        for strategy in [
            TilingStrategy::OutOfCore,
            TilingStrategy::Optimized,
            TilingStrategy::Traditional,
        ] {
            let tp = tiled(&prog, layouts.clone(), strategy);
            let [sync, piped] = both_walks(&tp, &[], fraction);
            prop_assert_eq!(&sync, &want, "{:?} sync walk:\n{:#?}", strategy, prog.nests[0]);
            prop_assert_eq!(&piped, &want, "{:?} step engine:\n{:#?}", strategy, prog.nests[0]);
        }
    }

    /// What a schedule step stages is what the nest's plan says its
    /// tile box stages, hull slots included: the schedule extractor
    /// and a plan built here from the same inputs cannot disagree.
    #[test]
    fn schedule_steps_stage_the_plans_footprint(
        pool in proptest::collection::vec(0u32..1_000_000, 96),
        fraction in 2u64..24,
    ) {
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()), 7);
        for strategy in [TilingStrategy::OutOfCore, TilingStrategy::Traditional] {
            let tp = tiled(&prog, layouts.clone(), strategy);
            let cfg = FunctionalConfig::with_fraction(fraction);
            let max_call = cfg.runtime.max_call_elems;
            let env = PlanEnv::new(&tp.program, &tp.layouts, &[], fraction, max_call)
                .expect("small arrays");
            let schedule = extract_schedule(&tp, &[], &cfg);
            prop_assert_eq!(schedule.nests.len(), 1);
            let tnest = &tp.nests[0];
            let plan = plan_nest(&env, &tnest.nest, tnest.strategy, &tnest.tiled_levels, None)
                .expect("small regions")
                .expect("the nest is not empty");
            prop_assert_eq!(schedule.nests[0].steps.len(), plan.boxes().len());
            for step in &schedule.nests[0].steps {
                let reads = step.reads.iter().map(|r| &r.tile);
                let staged: i64 = reads.chain(&step.writes).map(|t| t.region.len()).sum();
                let plan_stages = plan.staged(&step.box_lo, &step.box_hi);
                let planned: i64 = plan_stages.iter().map(|(_, r)| r.len()).sum();
                prop_assert_eq!(staged, planned, "{:?} {:?}", strategy, step);
            }
        }
    }
}

/// `A(i,j) = A(i,j) + 1` over the triangle `j <= i` (`lower`) or
/// `j >= i`, `i, j` in `1..=N`.
fn triangle(lower: bool) -> Program {
    let mut p = Program::new(&["N"]);
    let a = p.declare_array("A", 2, 0);
    let at = ArrayRef::new(a, &[vec![1, 0], vec![0, 1]], vec![0, 0]);
    let stmt = Statement::assign(
        at.clone(),
        Expr::Add(Box::new(Expr::Ref(at)), Box::new(Expr::Const(1.0))),
    );
    let mut nest = LoopNest::rectangular("triangle", 2, 1, 0, vec![stmt]);
    let (i, j) = (Affine::var(2, 1, 0), Affine::var(2, 1, 1));
    nest.bounds
        .add_ge0(if lower { i.sub(&j) } else { j.sub(&i) });
    p.add_nest(nest);
    p
}

/// The tile walk's level ranges must bound the whole polyhedron: the
/// lower triangle's inner range at the *first* outer iteration is the
/// single column `j = 1`, and a walk planned from it computed only
/// that column (the upper triangle passed by luck).
#[test]
fn triangular_nests_run_whole_on_both_walks() {
    let params = [12i64];
    for lower in [true, false] {
        let prog = triangle(lower);
        let want = reference(&prog, &params);
        for strategy in [TilingStrategy::OutOfCore, TilingStrategy::Traditional] {
            let tp = tiled(&prog, vec![FileLayout::row_major(2)], strategy);
            let plain = run_functional(&tp, &params, &seed);
            assert_eq!(bits(&plain[0]), want[0], "lower={lower} run_functional");
            let [sync, piped] = both_walks(&tp, &params, 16);
            assert_eq!(sync, want, "lower={lower} {strategy:?} sync walk");
            assert_eq!(piped, want, "lower={lower} {strategy:?} step engine");
        }
    }
}
