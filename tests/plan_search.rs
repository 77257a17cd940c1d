//! The tabulated span search against its definition.
//!
//! `plan_nest` scores a trial from per-slot tables indexed by the
//! candidates of the levels a slot varies with, walking the levels one
//! by one. The oracle here is the search as it was before the tables:
//! every trial evaluated through `Staging::footprint` and
//! `Staging::io_cost`, the pinned and the free search as two passes.
//! Spans and the cost's bits must agree on random nests of depth 1 to
//! 4 (skewed accesses, halos, hull slots, triangular bounds, levels
//! nothing varies with), under every layout kind, from budgets nothing
//! fits to budgets everything fits, for all four strategies, with and
//! without a processor restriction.
//!
//! The optimizer plans through a `PlanMemo` that keeps each nest's
//! layout-independent parts and the slot tables of earlier plans; a
//! plan through a memo other plans have filled must be the fresh plan,
//! field for field.

mod common;

use common::{random_nest, Pool};
use ooc_opt::core::plan::Staging;
use ooc_opt::core::{plan_nest, plan_nest_memo, NestPlan, PlanEnv, PlanMemo, TilingStrategy};
use ooc_opt::ir::{ArrayId, LoopNest};
use ooc_opt::linalg::{Matrix, Polyhedron, Rational};
use ooc_opt::runtime::FileLayout;
use proptest::prelude::*;

/// Calls `f` with every combination of one entry per list, the last
/// list varying fastest.
fn for_each_product(lists: &[Vec<i64>], current: &mut Vec<i64>, f: &mut impl FnMut(&[i64])) {
    let Some(list) = lists.get(current.len()) else {
        f(current);
        return;
    };
    for &entry in list {
        current.push(entry);
        for_each_product(lists, current, f);
        current.pop();
    }
}

/// The cheapest fitting trial in enumeration order, the minimal spans
/// when nothing fits; with `pin_innermost` the innermost level keeps
/// its extent.
fn search(
    env: &PlanEnv,
    staging: &Staging,
    ranges: &[(i64, i64)],
    pin_innermost: bool,
) -> (Vec<i64>, f64) {
    let searched = ranges.len() - usize::from(pin_innermost);
    let cand_lists: Vec<Vec<i64>> = ranges
        .iter()
        .enumerate()
        .map(|(l, &(lo, hi))| {
            let extent = (hi - lo + 1).max(1);
            if l >= searched {
                return vec![extent];
            }
            std::iter::successors(Some(1i64), |&x| (x < extent).then(|| (x * 2).min(extent)))
                .collect()
        })
        .collect();
    let minimal: Vec<i64> = cand_lists.iter().map(|c| c[0]).collect();
    let mut best: Option<(Vec<i64>, f64)> = None;
    for_each_product(&cand_lists, &mut Vec::new(), &mut |trial| {
        if staging.footprint(env, trial) > env.budget().capacity() {
            return;
        }
        let c = staging.io_cost(env, ranges, trial);
        if c < best.as_ref().map_or(f64::INFINITY, |b| b.1) {
            best = Some((trial.to_vec(), c));
        }
    });
    best.unwrap_or_else(|| {
        let cost = staging.io_cost(env, ranges, &minimal);
        (minimal, cost)
    })
}

/// One common span on the tiled levels, the largest that fits.
fn budget_spans(
    env: &PlanEnv,
    staging: &Staging,
    ranges: &[(i64, i64)],
    tiled: &[usize],
) -> Vec<i64> {
    let extents: Vec<i64> = ranges.iter().map(|(lo, hi)| (hi - lo + 1).max(1)).collect();
    let spans_at = |b: i64| -> Vec<i64> {
        let span = |(l, &extent): (usize, &i64)| {
            if tiled.contains(&l) {
                b.min(extent).max(1)
            } else {
                extent
            }
        };
        extents.iter().enumerate().map(span).collect()
    };
    let fits = |b: i64| staging.footprint(env, &spans_at(b)) <= env.budget().capacity();
    let max_extent = extents.iter().copied().max().unwrap_or(1);
    (1..=max_extent)
        .rev()
        .find(|&b| fits(b))
        .map_or_else(|| spans_at(1), spans_at)
}

/// The ranges a plan's search sees: with `restrict = Some(procs)`, the
/// ownership level (the outermost when there is none) cut to the
/// largest of `procs` near-equal chunks, the last of equals.
fn searched(plan: &NestPlan, restrict: Option<usize>) -> Vec<(i64, i64)> {
    let mut ranges = plan.ranges.clone();
    if let Some(procs) = restrict {
        let l = plan.own_level.unwrap_or(0);
        let (lo, hi) = ranges[l];
        let (n, p) = (hi - lo + 1, procs as i64);
        let start = |i: i64| lo + i * n / p;
        let chunks = (0..p).map(|i| (start(i), start(i + 1) - 1));
        ranges[l] = chunks.max_by_key(|(lo, hi)| hi - lo).expect("procs > 0");
    }
    ranges
}

/// What `plan_nest` must return for `strategy`.
fn oracle(
    env: &PlanEnv,
    staging: &Staging,
    ranges: &[(i64, i64)],
    strategy: TilingStrategy,
) -> (Vec<i64>, f64) {
    match strategy {
        TilingStrategy::Traditional | TilingStrategy::Slab => {
            let spans = budget_spans(env, staging, ranges, &strategy.tiled_levels(ranges.len()));
            let cost = staging.io_cost(env, ranges, &spans);
            (spans, cost)
        }
        TilingStrategy::Optimized => search(env, staging, ranges, false),
        TilingStrategy::OutOfCore => {
            let pinned = search(env, staging, ranges, true);
            let free = search(env, staging, ranges, false);
            if pinned.1 <= free.1 {
                pinned
            } else {
                free
            }
        }
    }
}

/// A layout of any kind for an array of `rank`: hyperplane vectors
/// include non-axis and non-primitive ones, blocks need not divide the
/// array.
fn random_layout(pool: &mut Pool<'_>, rank: usize) -> FileLayout {
    if rank != 2 {
        return FileLayout::row_major(rank);
    }
    match pool.below(4) {
        0 => FileLayout::row_major(2),
        1 => FileLayout::col_major(2),
        2 => FileLayout::Blocked2D {
            br: pool.range(1, 5),
            bc: pool.range(1, 5),
        },
        _ => {
            let g1 = pool.range(1, 3) * if pool.coin() { 1 } else { -1 };
            let g2 = pool.range(1, 3) * if pool.coin() { 1 } else { -1 };
            FileLayout::Hyperplane2D(g1, g2)
        }
    }
}

/// Every field of a plan, the cost as bits.
#[allow(clippy::type_complexity)]
fn fields(
    plan: &NestPlan,
) -> (
    Vec<(i64, i64)>,
    Option<usize>,
    Vec<usize>,
    Vec<usize>,
    Vec<(ArrayId, usize)>,
    bool,
    Vec<i64>,
    u64,
) {
    let slots = (0..plan.staging.slots()).map(|slot| plan.staging.key(slot));
    (
        plan.ranges.clone(),
        plan.own_level,
        plan.search_levels.clone(),
        plan.walk_levels.clone(),
        slots.collect(),
        plan.strips,
        plan.spans.clone(),
        plan.cost.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tabulated_search_equals_per_trial_evaluation(
        pool in proptest::collection::vec(0u32..1_000_000, 160),
    ) {
        let pool = &mut Pool(pool.iter());
        let (mut prog, _) = random_nest(pool, 12, 4);
        if pool.coin() {
            // No reference varies with one level: its candidates tie
            // on cost to the bit, and the first enumerated must win.
            let nest = &mut prog.nests[0];
            let level = pool.below(nest.depth as u32) as usize;
            let mut project = Matrix::identity(nest.depth);
            project[(level, level)] = Rational::ZERO;
            nest.body = nest.body.iter().map(|s| s.transformed(&project)).collect();
        }
        let layouts: Vec<FileLayout> =
            prog.arrays.iter().map(|a| random_layout(pool, a.dims.len())).collect();
        // From "everything fits" (all the data) down to one element.
        let fraction = [1, 2, 3, 5, 8, 16, 64, 512, u64::MAX][pool.below(9) as usize];
        // Calls that split long runs, and calls that never do.
        let max_call_elems = [4, 1 << 19][pool.below(2) as usize];
        let env = PlanEnv::new(&prog, &layouts, &[], fraction, max_call_elems)
            .expect("small arrays");
        let nest = &prog.nests[0];
        for strategy in [
            TilingStrategy::OutOfCore,
            TilingStrategy::Optimized,
            TilingStrategy::Slab,
            TilingStrategy::Traditional,
        ] {
            let levels = strategy.tiled_levels(nest.depth);
            let restrict = [None, Some(2), Some(3), Some(16)][pool.below(4) as usize];
            let plan = plan_nest(&env, nest, strategy, &levels, restrict)
                .expect("small regions")
                .expect("the nest is not empty");
            let ranges = searched(&plan, restrict);
            let (spans, cost) = oracle(&env, &plan.staging, &ranges, strategy);
            prop_assert_eq!(
                (&plan.spans, plan.cost.to_bits()),
                (&spans, cost.to_bits()),
                "{:?} {:?} budget {} layouts {:?}: {} vs {}\n{:#?}",
                strategy, restrict, env.budget().capacity(), layouts, plan.cost, cost, nest
            );
        }
    }

    /// One memo serves three random nests, each planned in two rounds
    /// under random layouts, budgets, call sizes and processor
    /// restrictions. A round plans, each under a random strategy: the
    /// nest; the nest with its ownership level cut to the extent a
    /// two-way restricted search sees, under the same name (the same
    /// slots over the same extents at another origin); and the nest
    /// with that level bounded by a parameter `N`, at two values of `N`
    /// that only the ranges tell apart. Every field of every plan must
    /// be the fresh plan's.
    #[test]
    fn plans_through_a_filled_memo_are_fresh_plans(
        pool in proptest::collection::vec(0u32..1_000_000, 512),
    ) {
        let pool = &mut Pool(pool.iter());
        let mut memo = PlanMemo::default();
        for _ in 0..3 {
            let (prog, layouts) = random_nest(pool, 8, 4);
            let nest = &prog.nests[0];
            let levels: Vec<usize> = (0..nest.depth).collect();
            let env = PlanEnv::new(&prog, &layouts, &[], 8, 1 << 19).expect("small arrays");
            let whole = plan_nest(&env, nest, TilingStrategy::Optimized, &levels, None)
                .expect("small regions")
                .expect("the nest is not empty");
            let own = whole.own_level.unwrap_or(0);
            let hi = whole.ranges[own].1;
            let mut cut = nest.clone();
            cut.bounds.add_var_range(own, 1, hi - hi / 2);
            let mut by_n = nest.clone();
            by_n.bounds = Polyhedron::universe(nest.depth, 1);
            for (l, &(lo, top)) in whole.ranges.iter().enumerate() {
                if l == own {
                    by_n.bounds.add_var_range_param(l, 0);
                } else {
                    by_n.bounds.add_var_range(l, lo, top);
                }
            }
            for _ in 0..2 {
                let layouts: Vec<FileLayout> =
                    prog.arrays.iter().map(|a| random_layout(pool, a.dims.len())).collect();
                let fraction = [2, 8, 64, u64::MAX][pool.below(4) as usize];
                let max_call_elems = [4, 1 << 19][pool.below(2) as usize];
                let restrict = [None, Some(2), Some(3), Some(16)][pool.below(4) as usize];
                let (n, cut_n) = ([hi], [hi - hi / 2]);
                let runs: [(&LoopNest, &[i64]); 4] =
                    [(nest, &[]), (&cut, &[]), (&by_n, &n), (&by_n, &cut_n)];
                for (planned, params) in runs {
                    let env = PlanEnv::new(&prog, &layouts, params, fraction, max_call_elems)
                        .expect("small arrays");
                    let strategy = [TilingStrategy::OutOfCore, TilingStrategy::Optimized]
                        [pool.below(2) as usize];
                    let fresh = plan_nest(&env, planned, strategy, &levels, restrict)
                        .expect("small regions");
                    let memoized =
                        plan_nest_memo(&env, planned, strategy, &levels, restrict, &mut memo)
                            .expect("small regions");
                    prop_assert_eq!(
                        memoized.as_ref().map(fields),
                        fresh.as_ref().map(fields),
                        "{:?} {:?} N = {:?} budget {} layouts {:?}\n{:#?}",
                        strategy, restrict, params, env.budget().capacity(), layouts, planned
                    );
                }
            }
        }
    }
}
