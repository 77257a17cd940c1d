//! Property-based end-to-end compiler testing: random affine programs
//! are optimized, tiled with every strategy, executed through the
//! out-of-core runtime, and compared bit-for-bit with the reference
//! interpreter.
//!
//! This is the strongest invariant in the repository: *no* combination
//! of layout choice, loop transformation, tiling strategy, staging
//! plan, or hoisting may ever change program semantics.

use ooc_opt::core::{
    max_divergence_from_reference, optimize, optimize_data_only, optimize_loop_only,
    OptimizeOptions, TiledProgram, TilingStrategy,
};
use ooc_opt::ir::{ArrayId, ArrayRef, Expr, LoopNest, Program, Statement};
use proptest::prelude::*;

/// A random 2-D access pattern: identity, transpose, row/column
/// broadcasts, or small-offset neighbours.
fn access2(depth: usize) -> impl Strategy<Value = (Vec<Vec<i64>>, Vec<i64>)> {
    let d = depth;
    prop_oneof![
        // A(i, j): last two loops index the array.
        Just((vec![unit(d, d - 2), unit(d, d - 1)], vec![0, 0])),
        // A(j, i): transposed.
        Just((vec![unit(d, d - 1), unit(d, d - 2)], vec![0, 0])),
        // A(i, i): diagonal walk.
        Just((vec![unit(d, d - 2), unit(d, d - 2)], vec![0, 0])),
        // Neighbour offsets (kept semantically safe by loop margins).
        (-1i64..=1, -1i64..=1)
            .prop_map(move |(oi, oj)| { (vec![unit(d, d - 2), unit(d, d - 1)], vec![oi, oj]) }),
    ]
}

fn unit(depth: usize, at: usize) -> Vec<i64> {
    let mut v = vec![0i64; depth];
    v[at] = 1;
    v
}

/// A random program: 1–3 nests of depth 2–3 over 2–4 shared 2-D
/// arrays, each statement reading one or two arrays (reads may be
/// offset, so flow across iterations and nests is exercised).
fn program_strategy() -> impl Strategy<Value = Program> {
    let nest = (
        2usize..=3,    // depth
        0usize..4,     // lhs array
        0usize..4,     // rhs array 1
        0usize..4,     // rhs array 2
        any::<bool>(), // include second read?
        2usize..=3,    // depth is regenerated per nest
    );
    (proptest::collection::vec(nest, 1..=3), 2usize..=4)
        .prop_flat_map(|(nests, n_arrays)| {
            // Resolve the access patterns per nest with the right depth.
            let accesses: Vec<_> = nests
                .iter()
                .map(|&(depth, ..)| (access2(depth), access2(depth), access2(depth)))
                .collect();
            (Just(nests), Just(n_arrays), accesses)
        })
        .prop_map(|(nests, n_arrays, accesses)| {
            let mut p = Program::new(&["N"]);
            let ids: Vec<ArrayId> = (0..n_arrays)
                .map(|i| p.declare_array(&format!("A{i}"), 2, 0))
                .collect();
            for (ni, (&(depth, lhs, r1, r2, two_reads, _), (la, ra1, ra2))) in
                nests.iter().zip(&accesses).enumerate()
            {
                let pick = |i: usize| ids[i % ids.len()];
                let mk = |(rows, off): &(Vec<Vec<i64>>, Vec<i64>), a: ArrayId| {
                    ArrayRef::new(a, rows, off.clone())
                };
                let mut rhs = Expr::Add(
                    Box::new(Expr::Ref(mk(ra1, pick(r1)))),
                    Box::new(Expr::Const(ni as f64 + 1.0)),
                );
                if two_reads {
                    rhs = Expr::Mul(Box::new(rhs), Box::new(Expr::Ref(mk(ra2, pick(r2)))));
                }
                let stmt = Statement::assign(mk(la, pick(lhs)), rhs);
                // Margins keep ±1 offsets in bounds: loops run 2..=N-1.
                let mut bounds = ooc_opt::linalg::Polyhedron::universe(depth, 1);
                for l in 0..depth {
                    let x = ooc_opt::linalg::Affine::var(depth, 1, l);
                    let two = ooc_opt::linalg::Affine::constant(depth, 1, 2);
                    let mut hi = ooc_opt::linalg::Affine::param(depth, 1, 0);
                    hi.constant = ooc_opt::linalg::Rational::from(-1i64);
                    bounds.add_ge0(x.sub(&two));
                    bounds.add_ge0(hi.sub(&x));
                }
                p.add_nest(LoopNest {
                    name: format!("nest{ni}"),
                    depth,
                    bounds,
                    body: vec![stmt],
                    iterations: 1,
                });
            }
            p
        })
}

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 3) * 1_000_003;
    for &x in idx {
        h = h.wrapping_mul(37).wrapping_add(x * 101);
    }
    ((h % 811) as f64) * 0.5 + 1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The combined optimizer + every tiling strategy preserve
    /// semantics on arbitrary affine programs.
    #[test]
    fn optimize_preserves_semantics(prog in program_strategy()) {
        let opts = OptimizeOptions { cost_params: vec![16] };
        let opt = optimize(&prog, &opts);
        for strategy in [
            TilingStrategy::OutOfCore,
            TilingStrategy::Optimized,
            TilingStrategy::Slab,
            TilingStrategy::Traditional,
        ] {
            let tp = TiledProgram::from_optimized(&opt, strategy);
            let d = max_divergence_from_reference(&tp, &prog, &[9], &seed);
            prop_assert_eq!(d, 0.0, "{:?} diverged", strategy);
        }
    }

    /// The single-technique passes preserve semantics too.
    #[test]
    fn single_technique_passes_preserve_semantics(prog in program_strategy()) {
        let opts = OptimizeOptions { cost_params: vec![16] };
        for opt in [
            optimize_loop_only(&prog, &opts, None),
            optimize_data_only(&prog, &opts),
        ] {
            let tp = TiledProgram::from_optimized(&opt, TilingStrategy::Optimized);
            let d = max_divergence_from_reference(&tp, &prog, &[8], &seed);
            prop_assert_eq!(d, 0.0);
        }
    }

    /// Every applied transformation is unimodular and legal against
    /// the nest's dependences.
    #[test]
    fn applied_transformations_are_legal(prog in program_strategy()) {
        let opts = OptimizeOptions { cost_params: vec![16] };
        let opt = optimize(&prog, &opts);
        for (i, q) in opt.transforms.iter().enumerate() {
            prop_assert!(q.is_unimodular(), "nest {i}: Q not unimodular");
            let t = q.inverse().expect("invertible");
            let deps = ooc_opt::ir::nest_dependences(&prog.nests[i]);
            prop_assert!(
                ooc_opt::ir::transformation_preserves(&t, &deps),
                "nest {i}: illegal transformation applied"
            );
        }
    }
}
