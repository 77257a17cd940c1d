//! Planning cost as the optimizer pays it: `plan_nest` over every nest
//! of each of the ten kernels, transformed and laid out as `c-opt`
//! compiles them, planned the way the optimizer's cost gate plans a
//! candidate — on the default machine at the kernel's paper
//! parameters under the paper's memory rule, the span search over
//! every level (`Optimized`) on the largest of 16 processor chunks.
//! `mat` is one depth-3 nest over three arrays, `adi` three depth-3
//! nests over six, `btrix` two depth-4 nests over 29.
use criterion::{criterion_group, criterion_main, Criterion};
use ooc_core::{plan_nest, ExecConfig, PlanEnv, TilingStrategy};
use ooc_kernels::{all_kernels, compile, Version};
use std::hint::black_box;

/// The representative processor count the optimizer prices nests on.
const MODEL_PROCS: usize = 16;

fn bench_plan_search(c: &mut Criterion) {
    for kernel in all_kernels() {
        let tp = compile(&kernel, Version::COpt).tiled;
        let cfg = ExecConfig::new(kernel.paper_params.clone(), MODEL_PROCS);
        let env = PlanEnv::for_machine(
            &tp.program,
            &tp.layouts,
            &cfg.params,
            cfg.memory_fraction,
            &cfg.machine,
        )
        .expect("paper sizes fit u64");
        c.bench_function(&format!("plan_search/c_opt/{}", kernel.name), |b| {
            b.iter(|| {
                for tnest in &tp.nests {
                    let levels: Vec<usize> = (0..tnest.nest.depth).collect();
                    let plan = plan_nest(
                        black_box(&env),
                        &tnest.nest,
                        TilingStrategy::Optimized,
                        &levels,
                        Some(cfg.procs),
                    );
                    black_box(plan.expect("paper regions fit i64"));
                }
            })
        });
    }
}

criterion_group!(benches, bench_plan_search);
criterion_main!(benches);
