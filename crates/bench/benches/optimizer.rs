//! Compile-time cost of the paper's optimizer on the ten kernels, at
//! each kernel's paper parameters — the cost model's sizes
//! `ooc_kernels::compile` optimizes at.
use criterion::{criterion_group, criterion_main, Criterion};
use ooc_core::{optimize, optimize_data_only, optimize_loop_only, OptimizeOptions};
use ooc_kernels::{all_kernels, Kernel};
use std::hint::black_box;

/// The options `ooc_kernels::compile` optimizes `kernel` with.
fn paper_options(kernel: &Kernel) -> OptimizeOptions {
    OptimizeOptions {
        cost_params: kernel.paper_params.clone(),
    }
}

fn bench_optimize(c: &mut Criterion) {
    for k in all_kernels() {
        let opts = paper_options(&k);
        c.bench_function(&format!("optimizer/c_opt/{}", k.name), |b| {
            b.iter(|| optimize(black_box(&k.program), &opts))
        });
    }
    // The single-technique passes on one representative kernel.
    let gfunp = all_kernels()
        .into_iter()
        .find(|k| k.name == "gfunp")
        .expect("gfunp");
    let opts = paper_options(&gfunp);
    c.bench_function("optimizer/l_opt/gfunp", |b| {
        b.iter(|| optimize_loop_only(black_box(&gfunp.program), &opts, None))
    });
    c.bench_function("optimizer/d_opt/gfunp", |b| {
        b.iter(|| optimize_data_only(black_box(&gfunp.program), &opts))
    });
}

criterion_group!(benches, bench_optimize);
criterion_main!(benches);
