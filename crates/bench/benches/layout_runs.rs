//! The runtime's central query: contiguous-run accounting per layout,
//! and the tile staging built on it.
use criterion::{criterion_group, criterion_main, Criterion};
use ooc_runtime::{FileLayout, OocArray, Region};
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

/// Tile staging over `MemStore`, where a store call is one `memcpy`:
/// the tiles `trans` stages from its 1024 x 1024 column-major arrays —
/// `c-opt`'s 1024 x 64 (one 65 536-element run) and a `col` 256 x 256
/// (256 runs) — read into and written from tiles in the file's order,
/// and the canonical (row-major) read of the whole array that a final
/// dump makes, which transposes through the array's scratch.
fn bench_staging(c: &mut Criterion) {
    let n = 1024i64;
    let mut arr = OocArray::in_memory("A", &[n, n], FileLayout::col_major(2));
    arr.initialize(|idx| (idx[0] * n + idx[1]) as f64)
        .expect("seed");
    for (name, region) in [
        ("copt_1024x64", Region::new(vec![1, 65], vec![n, 128])),
        ("col_256x256", Region::new(vec![257, 513], vec![512, 768])),
    ] {
        c.bench_function(&format!("stage/read_tile/{name}"), |b| {
            b.iter(|| arr.read_tile(black_box(&region)).expect("read"))
        });
        let tile = arr.read_tile(&region).expect("read");
        c.bench_function(&format!("stage/write_tile/{name}"), |b| {
            b.iter(|| arr.write_tile(black_box(&tile)).expect("write"))
        });
    }
    let full = Region::full(&[n, n]);
    c.bench_function("stage/read_canonical/col_major_1024x1024", |b| {
        b.iter(|| arr.read_canonical(black_box(&full)).expect("read"))
    });
}

criterion_group!(
    benches,
    bench_run_summaries,
    bench_exact_runs,
    bench_staging
);
criterion_main!(benches);
