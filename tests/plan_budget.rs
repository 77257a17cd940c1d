//! The tiles a walk stages against the memory budget they were planned
//! under, for every kernel × version × nest at `small_params` and
//! `paper_params`.
//!
//! A plan keeps its promise when `walked_footprint() ≤ budget`, or
//! when not even span-1 tiles fit (the budget is below the nest's
//! minimal working set and the runtime makes progress regardless).
//! Today it does not always: the span search sizes tiles over
//! `search_levels` and the walk blocks `walk_levels`, and where the
//! walk leaves a level whole that the search shrank, the staged tiles
//! overshoot the budget. Two ways there:
//!
//! * **tiling is illegal on a searched level** (`col`/`row`/`l-opt`/
//!   `d-opt` of vpenta, btrix, htribk): `TilingStrategy::Optimized`
//!   searches every level, legality strikes one from the walk;
//! * **the out-of-core search prefers a free shape** (`c-opt`/`h-opt`
//!   of mat, mxm, syr2k, htribk): pinning the innermost level costs
//!   more than tiling it, the free spans win, and the walk — which
//!   never blocks the innermost level under `OutOfCore` — runs it
//!   whole anyway. At small sizes the pinned fallback ("nothing fits")
//!   can also win on cost over a free shape that does fit.
//!
//! Fixing either changes spans and therefore every counter baseline;
//! until a PR does that on purpose, this test pins the exact list of
//! offenders with their overshoot factor, so it can neither grow
//! silently nor be forgotten (ROADMAP item 1).

use ooc_opt::core::{plan_nest, PlanEnv};
use ooc_opt::kernels::{all_kernels, compile, Version};
use ooc_opt::runtime::RuntimeConfig;

/// `kernel version size nest xFACTOR` for every nest whose walk
/// overshoots a budget that span-1 tiles would have fit.
fn offenders() -> Vec<String> {
    let mut out = Vec::new();
    for k in all_kernels() {
        for v in Version::ALL {
            let tp = compile(&k, v).tiled;
            for (size, params) in [("small", &k.small_params), ("paper", &k.paper_params)] {
                let max_call = RuntimeConfig::default().max_call_elems;
                let env = PlanEnv::new(&tp.program, &tp.layouts, params, 128, max_call)
                    .expect("kernel sizes fit u64");
                let budget = env.budget().capacity();
                for tnest in &tp.nests {
                    let nest = &tnest.nest;
                    let plan = plan_nest(&env, nest, tnest.strategy, &tnest.tiled_levels, None)
                        .expect("kernel regions fit i64")
                        .expect("kernel nests are not empty");
                    assert!(
                        plan.planned_footprint() <= plan.walked_footprint(),
                        "{} {} {size} {}: the walk stages less than was planned",
                        k.name,
                        v.label(),
                        nest.name
                    );
                    let minimal = plan.staging.footprint(&env, &vec![1; nest.depth]);
                    let walked = plan.walked_footprint();
                    if walked > budget && minimal <= budget {
                        out.push(format!(
                            "{} {} {size} {} x{:.1}",
                            k.name,
                            v.label(),
                            nest.name,
                            walked as f64 / budget as f64
                        ));
                    }
                }
            }
        }
    }
    out
}

#[test]
fn walked_tiles_fit_the_budget_except_the_known_offenders() {
    let known = [
        "mat c-opt paper matmul x5.5",
        "mat h-opt paper matmul x5.5",
        "mxm c-opt paper mxm_core x5.5",
        "mxm h-opt paper mxm_core x5.5",
        "adi c-opt small adi_x x3.8",
        "adi c-opt small adi_y x3.2",
        "adi c-opt small adi_z x3.8",
        "adi h-opt small adi_x x3.8",
        "adi h-opt small adi_y x3.2",
        "adi h-opt small adi_z x3.8",
        "vpenta col paper vpenta_fwd1 x39.4",
        "vpenta col paper vpenta_fwd2 x39.4",
        "vpenta col paper vpenta_pack x7.4",
        "vpenta l-opt paper vpenta_fwd1 x39.4",
        "vpenta l-opt paper vpenta_fwd2 x39.4",
        "vpenta l-opt paper vpenta_pack x7.4",
        "btrix col small btrix_fwd x2.6",
        "btrix col small btrix_back x2.5",
        "btrix col paper btrix_fwd x2.6",
        "btrix col paper btrix_back x2.6",
        "btrix row small btrix_fwd x2.6",
        "btrix row small btrix_back x2.5",
        "btrix l-opt small btrix_fwd x2.6",
        "btrix l-opt small btrix_back x2.5",
        "btrix l-opt paper btrix_fwd x2.6",
        "btrix l-opt paper btrix_back x2.6",
        "btrix d-opt small btrix_fwd x2.6",
        "btrix d-opt small btrix_back x2.5",
        "btrix c-opt small btrix_fwd x1.7",
        "btrix c-opt small btrix_back x1.6",
        "btrix h-opt small btrix_fwd x1.7",
        "btrix h-opt small btrix_back x1.6",
        "syr2k c-opt paper syr2k x22.0",
        "syr2k h-opt paper syr2k x22.0",
        "htribk col paper htribk_accum x76.8",
        "htribk l-opt paper htribk_accum x76.8",
        "htribk c-opt paper htribk_backt x3.2",
        "htribk h-opt paper htribk_backt x3.2",
        "gfunp c-opt small gfunp_jac x8.0",
        "gfunp c-opt small gfunp_homotopy x8.0",
        "gfunp c-opt small gfunp_norm x4.0",
        "gfunp h-opt small gfunp_jac x8.0",
        "gfunp h-opt small gfunp_homotopy x8.0",
        "gfunp h-opt small gfunp_norm x4.0",
    ];
    let got = offenders();
    assert_eq!(
        got,
        known,
        "the set of nests whose walk overshoots the budget changed:\n{}",
        got.join("\n")
    );
}
