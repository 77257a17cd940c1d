//! ns per tile step and per loop iteration of the synchronous walk
//! (`ooc_core::run_functional_on`) over `MemStore` arrays at memory
//! fraction 16: a pass is one whole run — seeding, every tile step
//! (staging, the tile body, write-backs) and the final dump — so this
//! is the layer between `tile_body`, which times the body alone on
//! pre-staged tiles, and `benchmark/`'s `mxm_sync_mem`, which is this
//! run for `mxm` c-opt at N = 40.
//!
//! Prints the median pass for every kernel, col and c-opt, divided by
//! the run's tile steps (each nest's boxes times its iterations) and by
//! its iterations (the volume of every box, as `tile_body` counts them),
//! with the step count and the pass time.
use ooc_core::{extract_schedule, run_functional_on, FunctionalConfig};
use ooc_ir::ArrayId;
use ooc_kernels::{compile, kernel_by_name, Version};
use ooc_runtime::MemStore;
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 15;

fn bench(name: &str, n: i64, version: Version) {
    let kernel = kernel_by_name(name).expect("a kernel of the paper");
    let tp = compile(&kernel, version).tiled;
    let params = vec![n; kernel.program.params.len()];
    let cfg = FunctionalConfig::with_fraction(16);
    let schedule = extract_schedule(&tp, &params, &cfg);
    let steps: u64 = schedule.nests.iter().map(|ns| ns.total_steps()).sum();
    let iters: u64 = schedule
        .nests
        .iter()
        .map(|ns| {
            let walk: u64 = ns
                .steps
                .iter()
                .map(|step| {
                    let extents = step.box_lo.iter().zip(&step.box_hi);
                    extents
                        .map(|(lo, hi)| u64::try_from(hi - lo + 1).unwrap_or(0))
                        .product::<u64>()
                })
                .sum();
            walk * ns.iterations
        })
        .sum();
    // Away from zero, so a division in a body stays finite.
    let init = |a: ArrayId, idx: &[i64]| 1.0 + a.0 as f64 + idx.iter().sum::<i64>() as f64 / 64.0;

    let mut seconds: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            let run = run_functional_on(&tp, &params, &init, &cfg, |_, _, len| {
                Ok(MemStore::new(len))
            })
            .expect("in-memory run");
            let elapsed = t0.elapsed().as_secs_f64();
            black_box(run);
            elapsed
        })
        .collect();
    seconds.sort_by(f64::total_cmp);
    let median = seconds[PASSES / 2];
    println!(
        "walk_step/{name:<6}/{:<6} N={n:<4} {:>9.0} ns/step {:>8.2} ns/iter  ({steps} steps, {iters} iters, median of {PASSES} passes of {:.3} ms)",
        version.label(),
        median * 1e9 / steps.max(1) as f64,
        median * 1e9 / iters.max(1) as f64,
        median * 1e3,
    );
}

fn main() {
    let sizes = [
        ("mat", 40),
        ("mxm", 40),
        ("adi", 64),
        ("vpenta", 256),
        ("btrix", 12),
        ("emit", 64),
        ("syr2k", 40),
        ("htribk", 256),
        ("gfunp", 128),
        ("trans", 512),
    ];
    for (name, n) in sizes {
        for version in [Version::Col, Version::COpt] {
            bench(name, n, version);
        }
    }
}
