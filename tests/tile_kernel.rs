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

use ooc_opt::core::{
    exec_pipelined, extract_schedule, plan_nest, ref_region, run_functional, run_functional_on,
    FunctionalConfig, OptimizedProgram, PipelineConfig, PlanEnv, TiledProgram, TilingStrategy,
};
use ooc_opt::ir::{
    execute_program, ArrayId, ArrayRef, DimSize, Expr, Guard, GuardAt, LoopNest, Memory, Program,
    Statement,
};
use ooc_opt::linalg::{Affine, Matrix, Polyhedron};
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

/// A stream of small choices drawn from a generated pool.
struct Pool<'a>(std::slice::Iter<'a, u32>);

impl Pool<'_> {
    fn below(&mut self, n: u32) -> u32 {
        self.0.next().copied().unwrap_or(0) % n
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A value in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + i64::from(self.below(u32::try_from(hi - lo + 1).expect("small range")))
    }
}

/// One random nest over four arrays: `R0`, `R1` are only read, `W0`,
/// `W1` are written.
///
/// * statement 1 writes `W0` from `R0`, a halo neighbour of the same
///   `R0` class, `R1`, and — on a coin — `W0` itself through a second
///   access class, which puts `W0` in hull mode;
/// * statement 2 (on a coin) writes `W1` from the element statement 1
///   has just written in the same iteration;
/// * statement 3 (on a coin) resets `W1` under one or two guards, on
///   any level.
///
/// Access entries are drawn from −2..=2; each (array, access class)
/// is then shifted so its subscripts start at 1 over the bounding
/// box, and the arrays are sized to what the references reach.
fn random_nest(pool: &mut Pool<'_>) -> (Program, Vec<FileLayout>) {
    let depth = pool.range(1, 3) as usize;
    let extents: Vec<i64> = (0..depth).map(|_| pool.range(3, 7)).collect();
    let mut bounds = Polyhedron::universe(depth, 0);
    for (l, &n) in extents.iter().enumerate() {
        bounds.add_var_range(l, 1, n);
    }
    for l in 1..depth {
        // Triangular: level l bounded by level l-1, from either side.
        let (outer, inner) = (Affine::var(depth, 0, l - 1), Affine::var(depth, 0, l));
        match pool.below(4) {
            0 => bounds.add_ge0(outer.sub(&inner)),
            1 => bounds.add_ge0(inner.sub(&outer)),
            _ => {}
        }
    }

    let ranks: Vec<usize> = (0..4).map(|_| pool.range(1, 2) as usize).collect();
    let (r0, r1, w0, w1) = (ArrayId(0), ArrayId(1), ArrayId(2), ArrayId(3));
    let rows = |pool: &mut Pool<'_>, a: ArrayId| -> Vec<Vec<i64>> {
        (0..ranks[a.0])
            .map(|_| (0..depth).map(|_| pool.range(-2, 2)).collect())
            .collect()
    };
    let zero = |a: ArrayId| vec![0i64; ranks[a.0]];
    let halo = |pool: &mut Pool<'_>, a: ArrayId| -> Vec<i64> {
        (0..ranks[a.0]).map(|_| pool.range(-1, 1)).collect()
    };

    // Raw references, offsets relative to their class; fixed up below.
    let r0_class = rows(pool, r0);
    let w0_class = rows(pool, w0);
    let mut refs = vec![
        ArrayRef::new(w0, &w0_class, zero(w0)),       // 0: stmt 1 lhs
        ArrayRef::new(r0, &r0_class, zero(r0)),       // 1
        ArrayRef::new(r0, &r0_class, halo(pool, r0)), // 2: same class, halo
        ArrayRef::new(r1, &rows(pool, r1), zero(r1)), // 3
        ArrayRef::new(w0, &rows(pool, w0), zero(w0)), // 4: second class of W0
        ArrayRef::new(w1, &rows(pool, w1), zero(w1)), // 5: stmt 2 / 3 lhs
    ];
    let lo = vec![1i64; depth];
    let mut dims: Vec<Vec<i64>> = ranks.iter().map(|&r| vec![1; r]).collect();
    for i in 0..refs.len() {
        // Shift the whole class by what its lowest member needs.
        let class: Vec<usize> = (0..refs.len())
            .filter(|&j| refs[j].array == refs[i].array && refs[j].access == refs[i].access)
            .collect();
        if class[0] != i {
            continue;
        }
        for d in 0..refs[i].rank() {
            let min = class
                .iter()
                .map(|&j| ref_region(&refs[j], &lo, &extents).lo[d])
                .min()
                .expect("a class has a member");
            for &j in &class {
                refs[j].offset[d] += 1 - min;
            }
        }
    }
    for r in &refs {
        let region = ref_region(r, &lo, &extents);
        for (dim, &hi) in dims[r.array.0].iter_mut().zip(&region.hi) {
            *dim = (*dim).max(hi);
        }
    }

    let read = |i: usize| Box::new(Expr::Ref(refs[i].clone()));
    let binary = |pool: &mut Pool<'_>, a: Box<Expr>, b: Box<Expr>| match pool.below(4) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        _ => Expr::Div(a, b),
    };
    let mut rhs = binary(pool, read(1), read(2));
    rhs = binary(pool, Box::new(rhs), read(3));
    if pool.coin() {
        // Right-nested on purpose: the tape must keep operand order.
        rhs = binary(pool, read(4), Box::new(rhs));
    }
    let mut body = vec![Statement::assign(refs[0].clone(), rhs)];
    if pool.coin() {
        let rhs = binary(pool, read(0), Box::new(Expr::Const(1.25)));
        body.push(Statement::assign(refs[5].clone(), rhs));
    }
    if pool.coin() {
        let mut guards = Vec::new();
        for _ in 0..pool.range(1, 2) {
            guards.push(Guard {
                var: pool.below(depth as u32) as usize,
                at: if pool.coin() {
                    GuardAt::LowerBound
                } else {
                    GuardAt::UpperBound
                },
            });
        }
        body.push(Statement {
            lhs: refs[5].clone(),
            rhs: Expr::Const(-3.5),
            guards,
        });
    }

    let mut prog = Program::new(&[]);
    for (a, d) in dims.iter().enumerate() {
        let name = ["R0", "R1", "W0", "W1"][a];
        prog.declare_array_dims(name, d.iter().map(|&n| DimSize::Const(n)).collect());
    }
    prog.add_nest(LoopNest {
        name: "random".into(),
        depth,
        bounds,
        body,
        iterations: pool.range(1, 2) as u32,
    });
    let layouts = ranks
        .iter()
        .map(|&r| {
            if pool.coin() {
                FileLayout::row_major(r)
            } else {
                FileLayout::col_major(r)
            }
        })
        .collect();
    (prog, layouts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_the_oracle_on_both_walks(
        pool in proptest::collection::vec(0u32..1_000_000, 96),
        fraction in 2u64..24,
    ) {
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()));
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
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()));
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
