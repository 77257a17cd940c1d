//! Compile-time cost of the paper's optimizer on the ten kernels — the
//! combined (`c-opt`), loop-only (`l-opt`) and data-only (`d-opt`)
//! passes — at each kernel's paper parameters, the cost model's sizes
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
        c.bench_function(&format!("optimizer/l_opt/{}", k.name), |b| {
            b.iter(|| optimize_loop_only(black_box(&k.program), &opts, None))
        });
        c.bench_function(&format!("optimizer/d_opt/{}", k.name), |b| {
            b.iter(|| optimize_data_only(black_box(&k.program), &opts))
        });
    }
}

criterion_group!(benches, bench_optimize);
criterion_main!(benches);
