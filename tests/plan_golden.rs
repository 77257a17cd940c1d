//! The golden plan table: every planning decision of every kernel ×
//! version × nest, at `small_params` and `paper_params`, against
//! `tests/plan_golden.txt`.
//!
//! The text file was generated on the commit *before* `ooc_core::plan`
//! existed, from the functions it replaced (`exec::level_ranges`,
//! `parallel::ownership_level`, `tiling::plan_spans`,
//! `tiling::tile_footprint`) and from `simulate`, so this test is the
//! direct proof that consolidating the planners moved no decision:
//! ranges, ownership level, searched and walked levels, spans, planned
//! and walked footprint per nest, and the simulator's call, byte and
//! step counts (and modeled seconds) at 1 and 16 processors per
//! version. A change that means to move a plan replaces the file with
//! the concatenation of `plan_table` over `all_kernels()`.

use ooc_opt::core::{plan_nest, simulate, ExecConfig, PlanEnv};
use ooc_opt::kernels::{all_kernels, compile, Kernel, Version};
use ooc_opt::runtime::RuntimeConfig;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("plan_golden.txt");

/// The table's lines for one kernel, all versions and both sizes.
fn plan_table(k: &Kernel) -> String {
    let mut out = String::new();
    for v in Version::ALL {
        let cv = compile(k, v);
        let tp = &cv.tiled;
        for (size, params) in [("small", &k.small_params), ("paper", &k.paper_params)] {
            let max_call = RuntimeConfig::default().max_call_elems;
            let env = PlanEnv::new(&tp.program, &tp.layouts, params, 128, max_call)
                .expect("kernel sizes fit u64");
            let _ = writeln!(
                out,
                "{} {} {size} params={params:?} budget={}",
                k.name,
                v.label(),
                env.budget().capacity()
            );
            for tnest in &tp.nests {
                let nest = &tnest.nest;
                let plan = plan_nest(&env, nest, tnest.strategy, &tnest.tiled_levels, None)
                    .expect("kernel regions fit i64");
                let Some(plan) = plan else {
                    let _ = writeln!(out, "  nest {} empty", nest.name);
                    continue;
                };
                let _ = writeln!(
                    out,
                    "  nest {} ranges={:?} own={:?} search={:?} walk={:?} spans={:?} planned={} walked={}",
                    nest.name,
                    plan.ranges,
                    plan.own_level,
                    plan.search_levels,
                    plan.walk_levels,
                    plan.spans,
                    plan.planned_footprint(),
                    plan.walked_footprint(),
                );
            }
            for procs in [1usize, 16] {
                let mut cfg = ExecConfig::new(params.clone(), procs);
                cfg.interleave = cv.interleave.clone();
                let r = simulate(tp, &cfg);
                let _ = writeln!(
                    out,
                    "  sim procs={procs} interleave={:?} io_calls={} io_bytes={} tile_steps={} sim_s={:?}",
                    cv.interleave, r.io_calls, r.io_bytes, r.tile_steps, r.result.total_time
                );
            }
        }
    }
    out
}

/// The golden lines of kernel `name`: its header lines (unindented,
/// starting with the name) and the indented lines under them.
fn golden_section(name: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in GOLDEN.lines() {
        if !line.starts_with(' ') {
            inside = line.split(' ').next() == Some(name);
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

fn check(name: &str) {
    let k = all_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .expect("kernel exists");
    let (got, want) = (plan_table(&k), golden_section(name));
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "{name}: a planning decision moved");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{name}: lines");
}

/// One test per kernel, so the table is checked in parallel.
macro_rules! golden {
    ($($name:ident),*) => {$(
        #[test]
        fn $name() {
            check(stringify!($name));
        }
    )*};
}
golden!(mat, mxm, adi, vpenta, btrix, emit, syr2k, htribk, gfunp, trans);

#[test]
fn the_table_covers_every_kernel() {
    let headers = GOLDEN.lines().filter(|l| !l.starts_with(' ')).count();
    assert_eq!(headers, all_kernels().len() * Version::ALL.len() * 2);
}
