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
//!
//! Hand-built nests pin the strip rule: which nests may evaluate an
//! innermost run in strips (`TileKernel::strips`), which statements
//! lower to folds (`TileKernel::folds`), and that both loops, strips of
//! every length included, stay bit-equal.

mod common;

use common::{random_nest, Pool};
use ooc_opt::core::{
    exec_pipelined, extract_schedule, plan_nest, run_functional, run_functional_on,
    FunctionalConfig, KernelScratch, OptimizedProgram, PipelineConfig, PlanEnv, TileKernel,
    TiledProgram, TilingStrategy,
};
use ooc_opt::ir::{
    execute_program, ArrayId, ArrayRef, Expr, Guard, GuardAt, LoopNest, Memory, Program, Statement,
};
use ooc_opt::linalg::{Affine, Matrix, Polyhedron};
use ooc_opt::runtime::{FileLayout, MemStore, OocArray, Tile};
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
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()), 7, 3);
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
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()), 7, 3);
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

/// A depth-2 nest over `lo[v] <= x_v <= N - short[v]`.
fn nest_over(name: &str, lo: [i64; 2], short: [i64; 2], body: Vec<Statement>) -> LoopNest {
    let mut bounds = Polyhedron::universe(2, 1);
    let n = Affine::param(2, 1, 0);
    for v in 0..2 {
        let x = Affine::var(2, 1, v);
        bounds.add_ge0(x.sub(&Affine::constant(2, 1, lo[v])));
        bounds.add_ge0(n.sub(&x).sub(&Affine::constant(2, 1, short[v])));
    }
    LoopNest {
        name: name.into(),
        depth: 2,
        bounds,
        body,
        iterations: 1,
    }
}

/// `X(i + di, j + dj)`.
fn at(x: ArrayId, di: i64, dj: i64) -> ArrayRef {
    ArrayRef::new(x, &[vec![1, 0], vec![0, 1]], vec![di, dj])
}

fn load(r: ArrayRef) -> Box<Expr> {
    Box::new(Expr::Ref(r))
}

fn plus_one(r: ArrayRef) -> Expr {
    Expr::Add(load(r), Box::new(Expr::Const(1.0)))
}

/// A program of `N x N` arrays `A`, `B`, `C` (ids 0, 1, 2) and one
/// nest built from them.
fn program(nest: impl FnOnce([ArrayId; 3]) -> LoopNest) -> Program {
    let mut p = Program::new(&["N"]);
    let ids = ["A", "B", "C"].map(|name| p.declare_array(name, 2, 0));
    p.add_nest(nest(ids));
    p
}

/// Whether the walks run `prog`'s nest in strips, after checking that
/// both walks equal the oracle under two strategies: `OutOfCore`
/// leaves the innermost level whole, `Traditional` tiles it, so runs
/// end inside strips too.
fn strips_and_bit_equal(prog: &Program, n: i64) -> bool {
    let (strips, _) = mode_if_bit_equal(prog, n);
    strips
}

/// [`strips_and_bit_equal`], and whether some statement of the nest
/// lowers to a fold.
fn mode_if_bit_equal(prog: &Program, n: i64) -> (bool, bool) {
    let params = [n];
    let want = reference(prog, &params);
    let mut modes = Vec::new();
    for strategy in [TilingStrategy::OutOfCore, TilingStrategy::Traditional] {
        let layouts = prog
            .arrays
            .iter()
            .map(|a| FileLayout::row_major(a.dims.len()));
        let tp = tiled(prog, layouts.collect(), strategy);
        let [sync, piped] = both_walks(&tp, &params, 4);
        let name = &prog.nests[0].name;
        assert_eq!(sync, want, "{name} {strategy:?} sync walk");
        assert_eq!(piped, want, "{name} {strategy:?} step engine");
        let kernel = TileKernel::lower(&tp.nests[0].nest, &params).expect("lowers");
        modes.push((kernel.strips(), kernel.folds()));
    }
    assert_eq!(
        modes[0], modes[1],
        "the rule reads the nest, not its tiling"
    );
    modes[0]
}

/// A flow dependence carried by the innermost level: a strip would
/// read `A(i,j-1)` before the iteration that writes it.
#[test]
fn an_innermost_recurrence_runs_per_iteration() {
    let prog = program(|[a, _, _]| {
        let stmt = Statement::assign(at(a, 0, 0), plus_one(at(a, 0, -1)));
        nest_over("inner-flow", [1, 2], [0, 0], vec![stmt])
    });
    assert!(!strips_and_bit_equal(&prog, 70));
}

/// `A(j) = A(j-1) + 1` inside `i, j`: the dependence's outer element
/// is unknown, so it may be zero and the innermost level carries it.
/// Three passes of `i`, fewer than a strip is long: more would let
/// even a wrong strip order converge to the right values.
#[test]
fn a_recurrence_with_an_unknown_outer_distance_runs_per_iteration() {
    let prog = {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let row = |dj| ArrayRef::new(a, &[vec![0, 1]], vec![dj]);
        let stmt = Statement::assign(row(0), plus_one(row(-1)));
        let mut nest = nest_over("outer-unknown", [1, 2], [0, 0], vec![stmt]);
        let i = Affine::var(2, 1, 0);
        nest.bounds.add_ge0(Affine::constant(2, 1, 3).sub(&i));
        p.add_nest(nest);
        p
    };
    assert!(!strips_and_bit_equal(&prog, 70));
}

/// An anti-dependence carried by the innermost level across two
/// statements: a strip would write `A(i,j+1)` before the iteration
/// that reads it.
#[test]
fn an_innermost_anti_dependence_runs_per_iteration() {
    let prog = program(|[a, b, c]| {
        let write = Statement::assign(at(a, 0, 0), plus_one(at(c, 0, 0)));
        let read = Statement::assign(at(b, 0, 0), plus_one(at(a, 0, 1)));
        nest_over("inner-anti", [1, 1], [0, 1], vec![write, read])
    });
    assert!(!strips_and_bit_equal(&prog, 70));
}

/// A loop-independent read-modify-write strips.
#[test]
fn a_read_modify_write_in_place_strips() {
    let prog = program(|[a, _, _]| {
        let rhs = Expr::Mul(Box::new(Expr::Const(2.0)), load(at(a, 0, 0)));
        let stmt = Statement::assign(at(a, 0, 0), rhs);
        nest_over("in-place", [1, 1], [0, 0], vec![stmt])
    });
    assert!(strips_and_bit_equal(&prog, 70));
}

/// A dependence carried by the outer level, at distance `(1, -1)`,
/// never joins two iterations of one innermost run.
#[test]
fn an_outer_carried_recurrence_strips() {
    let prog = program(|[a, _, _]| {
        let stmt = Statement::assign(at(a, 0, 0), plus_one(at(a, -1, 1)));
        nest_over("outer-flow", [2, 1], [0, 1], vec![stmt])
    });
    assert!(strips_and_bit_equal(&prog, 70));
}

/// Guards narrow a strip: at `N = 100` the upper-bound guard selects
/// position 35 of the run's second strip. The lower-bound guard sits
/// on a triangular level, so its iteration moves with `i`, and a
/// guard on the outer level selects whole runs.
#[test]
fn guards_narrow_a_strip_to_their_iteration() {
    let prog = program(|[a, b, c]| {
        let guarded = |lhs, var, end: GuardAt| {
            let mut s = Statement::assign(lhs, plus_one(at(a, 0, 0)));
            s.guards.push(Guard { var, at: end });
            s
        };
        let body = vec![
            Statement::assign(at(a, 0, 0), plus_one(at(a, 0, 0))),
            guarded(at(b, 0, 0), 1, GuardAt::UpperBound),
            guarded(at(c, 0, 0), 1, GuardAt::LowerBound),
            guarded(at(b, 0, 0), 0, GuardAt::LowerBound),
        ];
        let mut nest = nest_over("guarded", [1, 1], [0, 0], body);
        let (i, j) = (Affine::var(2, 1, 0), Affine::var(2, 1, 1));
        nest.bounds.add_ge0(j.sub(&i));
        nest
    });
    assert!(strips_and_bit_equal(&prog, 100));
}

/// Innermost runs of one strip less, exactly one, one more, and
/// two strips and a bit; a run of one iteration.
#[test]
fn runs_of_every_length_around_a_strip_stay_bit_equal() {
    for n in [1, 63, 64, 65, 130] {
        let prog = program(|[a, b, _]| {
            let rhs = Expr::Sub(load(at(b, 0, 0)), Box::new(Expr::Const(0.25)));
            let rhs = Expr::Div(Box::new(rhs), load(at(a, 0, 0)));
            let stmt = Statement::assign(at(a, 0, 0), rhs);
            nest_over("lengths", [1, 1], [0, 0], vec![stmt])
        });
        // Under `OutOfCore` every innermost run is the whole level.
        let tp = tiled(
            &prog,
            vec![FileLayout::row_major(2); 3],
            TilingStrategy::OutOfCore,
        );
        let cfg = FunctionalConfig::with_fraction(4);
        let params = [n];
        let env = PlanEnv::new(
            &tp.program,
            &tp.layouts,
            &params,
            4,
            cfg.runtime.max_call_elems,
        )
        .expect("small arrays");
        let tnest = &tp.nests[0];
        let plan = plan_nest(&env, &tnest.nest, tnest.strategy, &tnest.tiled_levels, None)
            .expect("small regions")
            .expect("the nest is not empty");
        for (lo, hi) in plan.boxes() {
            assert_eq!(
                (lo[1], hi[1]),
                (1, n),
                "N={n}: a box cuts the innermost run"
            );
        }
        assert!(strips_and_bit_equal(&prog, n), "N={n}");
    }
}

/// A program of `N x N` arrays `A`, `B` and `N`-vectors `C`, `V` (ids
/// 0 to 3) and one nest over `i, j` built from them.
fn reduction(lo_j: i64, body: impl FnOnce([ArrayId; 4]) -> Vec<Statement>) -> Program {
    let mut p = Program::new(&["N"]);
    let ids =
        [("A", 2), ("B", 2), ("C", 1), ("V", 1)].map(|(name, rank)| p.declare_array(name, rank, 0));
    p.add_nest(nest_over("reduction", [1, lo_j], [0, 0], body(ids)));
    p
}

/// `C(i)`.
fn c_of_i(c: ArrayId) -> ArrayRef {
    ArrayRef::new(c, &[vec![1, 0]], vec![0])
}

/// `A(i,j) / V(j)`: an inexact term, so a fold that reassociated its
/// terms would change bits.
fn term(a: ArrayId, v: ArrayId) -> Box<Expr> {
    let v_of_j = ArrayRef::new(v, &[vec![0, 1]], vec![0]);
    Box::new(Expr::Div(load(at(a, 0, 0)), load(v_of_j)))
}

/// `C(i) = C(i) op A(i,j)/V(j)` with `j` innermost: a fold, and the
/// nest strips, for each operation whose operand order matters and
/// for `+`.
#[test]
fn an_accumulation_folds_in_strips() {
    type Op = fn(Box<Expr>, Box<Expr>) -> Expr;
    let ops: [(&str, Op); 3] = [("+", Expr::Add), ("-", Expr::Sub), ("/", Expr::Div)];
    for (name, op) in ops {
        let prog = reduction(1, |[a, _, c, v]| {
            vec![Statement::assign(
                c_of_i(c),
                op(load(c_of_i(c)), term(a, v)),
            )]
        });
        assert_eq!(mode_if_bit_equal(&prog, 70), (true, true), "C = C {name} x");
    }
}

/// `C(i) = A(i,j)/V(j) - C(i)`: the accumulator on the right is no
/// fold, and the innermost level carries `C`.
#[test]
fn an_accumulator_on_the_right_does_not_fold() {
    let prog = reduction(1, |[a, _, c, v]| {
        vec![Statement::assign(
            c_of_i(c),
            Expr::Sub(term(a, v), load(c_of_i(c))),
        )]
    });
    assert_eq!(mode_if_bit_equal(&prog, 70), (false, false));
}

/// A second statement reads the running `C(i)`: no fold, since a strip
/// would hand it the sum after the whole strip.
#[test]
fn a_second_reader_of_the_accumulator_disqualifies_the_fold() {
    let prog = reduction(1, |[a, b, c, v]| {
        let fold = Statement::assign(c_of_i(c), Expr::Add(load(c_of_i(c)), term(a, v)));
        let half = Expr::Mul(load(c_of_i(c)), Box::new(Expr::Const(0.5)));
        vec![fold, Statement::assign(at(b, 0, 0), half)]
    });
    assert_eq!(mode_if_bit_equal(&prog, 70), (false, false));
}

/// `C(i) = C(i) + B(i,j-1); B(i,j) = A(i,j)/V(j)`: still a fold, but
/// its term reads what the previous iteration wrote, so the nest runs
/// per-iteration — a strip would fold the old `B` in.
#[test]
fn a_fold_reading_a_carried_write_runs_per_iteration() {
    let prog = reduction(2, |[a, b, c, v]| {
        let fold = Statement::assign(c_of_i(c), Expr::Add(load(c_of_i(c)), load(at(b, 0, -1))));
        vec![fold, Statement::assign(at(b, 0, 0), *term(a, v))]
    });
    assert_eq!(mode_if_bit_equal(&prog, 70), (false, true));
}

/// Guards on the innermost level narrow a fold to the one iteration at
/// either end of the run: at `N = 100` the upper one is position 35 of
/// the run's second strip.
#[test]
fn an_innermost_guard_narrows_a_fold_to_one_iteration() {
    let prog = reduction(1, |[a, b, c, v]| {
        let mut fold = Statement::assign(c_of_i(c), Expr::Add(load(c_of_i(c)), term(a, v)));
        fold.guards.push(Guard {
            var: 1,
            at: GuardAt::UpperBound,
        });
        let mut first = Statement::assign(at(b, 0, 0), Expr::Mul(load(at(b, 0, 0)), term(a, v)));
        first.guards.push(Guard {
            var: 1,
            at: GuardAt::LowerBound,
        });
        vec![fold, first]
    });
    assert_eq!(mode_if_bit_equal(&prog, 100), (true, true));
}

/// Bits of every staged tile, `None` for an empty slot.
fn tile_bits(tiles: &[Option<Tile>]) -> Vec<Option<Vec<u64>>> {
    tiles
        .iter()
        .map(|t| t.as_ref().map(|t| bits(t.data())))
        .collect()
}

/// One [`KernelScratch`] serves every box of 96 random nests of depth
/// 1 to 3, one nest after another — the walk's boxes with their cut
/// last boxes, a box over the whole ranges and one overhanging them by
/// a level, whose regions are clamped to the arrays — and leaves every
/// tile bit for bit as a binding made fresh for that box does. The
/// nests cover strips, folds and per-iteration bodies.
#[test]
fn a_reused_binding_equals_a_fresh_one() {
    let mut scratch = KernelScratch::default();
    let (mut modes, mut depths, mut boxes) = ([0u32; 3], [0u32; 3], 0u32);
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for case in 0..96u64 {
        // A xorshift stream, so the nests are the same on every run.
        let pool: Vec<u32> = (0..96)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u32
            })
            .collect();
        let (prog, layouts) = random_nest(&mut Pool(pool.iter()), 7, 3);
        let strategy = [TilingStrategy::OutOfCore, TilingStrategy::Traditional][case as usize % 2];
        let fraction = 2 + case % 22;
        let tp = tiled(&prog, layouts, strategy);
        let max_call = FunctionalConfig::with_fraction(fraction)
            .runtime
            .max_call_elems;
        let env =
            PlanEnv::new(&tp.program, &tp.layouts, &[], fraction, max_call).expect("small arrays");
        let tnest = &tp.nests[0];
        let plan = plan_nest(&env, &tnest.nest, tnest.strategy, &tnest.tiled_levels, None)
            .expect("small regions")
            .expect("the nest is not empty");
        let kernel = TileKernel::lower(&tnest.nest, &[]).expect("lowers");
        modes[match (kernel.strips(), kernel.folds()) {
            (true, false) => 0,
            (true, true) => 1,
            (false, _) => 2,
        }] += 1;
        depths[tnest.nest.depth - 1] += 1;
        let mut arrays: Vec<_> = tp
            .program
            .arrays
            .iter()
            .enumerate()
            .map(|(a, decl)| {
                let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(&[])).collect();
                let mut arr = OocArray::in_memory(&decl.name, &dims, tp.layouts[a].clone());
                arr.initialize(|idx| seed(ArrayId(a), idx))
                    .expect("seeding");
                arr
            })
            .collect();
        let mut all = plan.boxes();
        let (from, to): (Vec<i64>, Vec<i64>) = plan.ranges.iter().copied().unzip();
        let wider = |v: &[i64], by: i64| v.iter().map(|x| x + by).collect::<Vec<_>>();
        all.push((from.clone(), to.clone()));
        all.push((wider(&from, -1), wider(&to, 1)));
        for (lo, hi) in &all {
            let mut tiles: Vec<Option<Tile>> = (0..kernel.slots())
                .map(|slot| {
                    let array = plan.staging.key(slot).0 .0;
                    let region = plan.staged_slot(slot, lo, hi);
                    Some(arrays[array].read_tile(&region).expect("staging"))
                })
                .collect();
            let mut fresh = tiles.clone();
            kernel.run(&mut fresh, lo, hi).expect("fresh binding");
            let reused = tiles.iter_mut().map(Option::as_mut);
            kernel
                .run_in(&mut scratch, reused, lo, hi)
                .expect("reused binding");
            assert_eq!(
                tile_bits(&tiles),
                tile_bits(&fresh),
                "case {case} box {lo:?}..={hi:?}:\n{:#?}",
                tnest.nest
            );
            boxes += 1;
        }
    }
    assert!(
        modes.iter().all(|&m| m > 0),
        "strips, folds, per-iteration: {modes:?}"
    );
    assert!(depths.iter().all(|&d| d > 0), "depths 1, 2, 3: {depths:?}");
    assert!(boxes > 96 * 3, "{boxes} boxes");
}
