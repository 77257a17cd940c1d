//! Planning cost: `plan_nest` over every nest of a kernel at paper
//! size under column-major layouts, for the two strategies that search
//! tile shapes. `mat` is one depth-3 nest over three arrays, `adi`
//! three depth-3 nests over six, `btrix` two depth-4 nests over 29.
use criterion::{criterion_group, criterion_main, Criterion};
use ooc_core::{plan_nest, PlanEnv, TilingStrategy};
use ooc_kernels::{compile, kernel_by_name, Version};
use ooc_runtime::RuntimeConfig;
use std::hint::black_box;

fn bench_plan_search(c: &mut Criterion) {
    let max_call = RuntimeConfig::default().max_call_elems;
    for name in ["mat", "adi", "btrix"] {
        let kernel = kernel_by_name(name).expect("a Table 1 kernel");
        let tp = compile(&kernel, Version::Col).tiled;
        let env = PlanEnv::new(
            &tp.program,
            &tp.layouts,
            &kernel.paper_params,
            128,
            max_call,
        )
        .expect("paper sizes fit u64");
        for (label, strategy) in [
            ("optimized", TilingStrategy::Optimized),
            ("out_of_core", TilingStrategy::OutOfCore),
        ] {
            c.bench_function(&format!("plan_search/{label}/{name}"), |b| {
                b.iter(|| {
                    for tnest in &tp.nests {
                        let levels = strategy.tiled_levels(tnest.nest.depth);
                        let plan = plan_nest(black_box(&env), &tnest.nest, strategy, &levels, None);
                        black_box(plan.expect("paper regions fit i64"));
                    }
                })
            });
        }
    }
}

criterion_group!(benches, bench_plan_search);
criterion_main!(benches);
