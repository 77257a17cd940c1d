//! The runtime's central query: contiguous-run accounting per layout.
use criterion::{criterion_group, criterion_main, Criterion};
use ooc_runtime::{FileLayout, Region};
use std::hint::black_box;

fn bench_run_summaries(c: &mut Criterion) {
    let dims = [4096i64, 4096];
    let tile = Region::new(vec![129, 257], vec![384, 512]);
    for (name, layout) in [
        ("row_major", FileLayout::row_major(2)),
        ("col_major", FileLayout::col_major(2)),
        ("blocked_64", FileLayout::Blocked2D { br: 64, bc: 64 }),
    ] {
        c.bench_function(&format!("layout/summary_256x256_tile/{name}"), |b| {
            b.iter(|| black_box(&layout).region_run_summary(black_box(&dims), black_box(&tile)))
        });
    }
    // Hyperplane layouts walk their hyperplane family: measure at a
    // moderate array size.
    let dims_small = [512i64, 512];
    let tile_small = Region::new(vec![17, 33], vec![80, 96]);
    let diag = FileLayout::Hyperplane2D(1, -1);
    c.bench_function("layout/summary_64x64_tile/diagonal", |b| {
        b.iter(|| {
            black_box(&diag).region_run_summary(black_box(&dims_small), black_box(&tile_small))
        })
    });
}

fn bench_exact_runs(c: &mut Criterion) {
    let dims = [4096i64, 4096];
    let tile = Region::new(vec![129, 257], vec![384, 512]);
    for (name, layout) in [
        ("row_major", FileLayout::row_major(2)),
        ("col_major", FileLayout::col_major(2)),
        ("blocked_64", FileLayout::Blocked2D { br: 64, bc: 64 }),
        ("diagonal", FileLayout::Hyperplane2D(1, -1)),
    ] {
        c.bench_function(&format!("layout/exact_runs_256x256_tile/{name}"), |b| {
            b.iter(|| black_box(&layout).region_runs(black_box(&dims), black_box(&tile)))
        });
    }
}

criterion_group!(benches, bench_run_summaries, bench_exact_runs);
criterion_main!(benches);
