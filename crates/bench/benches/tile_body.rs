//! ns per loop iteration of the compiled tile body
//! (`ooc_core::TileKernel`) alone: every tile of every step is staged
//! from seeded `MemStore` arrays before the clock starts, so a pass
//! times nothing but `TileKernel::run` over the whole tile schedule.
//!
//! Prints the median pass for every kernel, col and c-opt, with the
//! share of iterations by how their nest's innermost runs are
//! evaluated: in strips, in strips with a fold (`TileKernel::strips`,
//! `TileKernel::folds`), or one iteration at a time — then each nest
//! left per-iteration with the dependence that keeps it there
//! (`kernel::strip_blockers`). `benchmark/`'s `exec.body_ns_per_iter`
//! is the same cost measured by subtraction inside a real run, where
//! it also carries the per-nest planning and lowering.
use ooc_core::kernel::strip_blockers;
use ooc_core::{extract_schedule, FunctionalConfig, TileKernel};
use ooc_kernels::{compile, kernel_by_name, Version};
use ooc_runtime::{MemStore, OocArray, Tile};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 31;

/// One tile step, staged: its box and one tile per kernel slot.
struct Staged {
    lo: Vec<i64>,
    hi: Vec<i64>,
    tiles: Vec<Option<Tile>>,
}

fn bench(name: &str, n: i64, version: Version) {
    let kernel = kernel_by_name(name).expect("a kernel of the paper");
    let tp = compile(&kernel, version).tiled;
    let params = vec![n; kernel.program.params.len()];
    let mut arrays: Vec<OocArray<MemStore>> = tp
        .program
        .arrays
        .iter()
        .zip(&tp.layouts)
        .map(|(decl, layout)| {
            let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(&params)).collect();
            OocArray::in_memory(&decl.name, &dims, layout.clone())
        })
        .collect();
    for (a, arr) in arrays.iter_mut().enumerate() {
        // Away from zero, so a division in a body stays finite.
        arr.initialize(|idx| 1.0 + a as f64 + idx.iter().sum::<i64>() as f64 / 64.0)
            .expect("in-memory seeding");
    }

    let schedule = extract_schedule(&tp, &params, &FunctionalConfig::default());
    let mut nests: Vec<(TileKernel, Vec<Staged>)> = Vec::new();
    // Iterations in strips, in strips with a fold, and per-iteration.
    let mut modes = [0u64; 3];
    let mut kept = Vec::new();
    for ns in &schedule.nests {
        let nest = &tp.nests[ns.nest].nest;
        let body = TileKernel::lower(nest, &params).expect("kernels lower");
        let mode = match (body.strips(), body.folds()) {
            (true, false) => 0,
            (true, true) => 1,
            (false, _) => 2,
        };
        if mode == 2 {
            let deps = ooc_ir::array_dependences(nest);
            let blocker = strip_blockers(nest, &deps).next();
            if let Some((array, dep)) = blocker {
                let v: Vec<String> = dep.vector.iter().map(ToString::to_string).collect();
                let array = &tp.program.arrays[array.0].name;
                kept.push(format!("{} by {array} ({})", nest.name, v.join(",")));
            }
        }
        let mut steps = Vec::with_capacity(ns.steps.len());
        for step in &ns.steps {
            let mut tiles: Vec<Option<Tile>> = vec![None; body.slots()];
            let ids = step.reads.iter().map(|r| &r.tile).chain(&step.writes);
            for id in ids {
                let (array, slot) = (id.key.array as usize, id.key.slot as usize);
                let dense = body.slot_index(array, slot).expect("scheduled slot");
                tiles[dense] = Some(arrays[array].read_tile(&id.region).expect("staging"));
            }
            let box_iters = step
                .box_lo
                .iter()
                .zip(&step.box_hi)
                .map(|(lo, hi)| u64::try_from(hi - lo + 1).unwrap_or(0))
                .product::<u64>();
            modes[mode] += box_iters;
            steps.push(Staged {
                lo: step.box_lo.clone(),
                hi: step.box_hi.clone(),
                tiles,
            });
        }
        nests.push((body, steps));
    }

    let mut seconds: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for (body, steps) in &mut nests {
                for s in steps.iter_mut() {
                    body.run(black_box(&mut s.tiles), &s.lo, &s.hi)
                        .expect("staged tiles");
                }
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    black_box(&nests);
    seconds.sort_by(f64::total_cmp);
    let median = seconds[PASSES / 2];
    let iters: u64 = modes.iter().sum();
    let share = |m: u64| 100.0 * m as f64 / iters.max(1) as f64;
    println!(
        "tile_body/{name:<6}/{:<6} N={n:<4} {:>8.2} ns/iter {:>5.1} % strips {:>5.1} % folds {:>5.1} % per-iter  ({iters} iters, {} steps, median of {PASSES} passes of {:.3} ms)",
        version.label(),
        median * 1e9 / iters.max(1) as f64,
        share(modes[0]),
        share(modes[1]),
        share(modes[2]),
        nests.iter().map(|(_, s)| s.len()).sum::<usize>(),
        median * 1e3,
    );
    if !kept.is_empty() {
        println!("    per-iteration: {}", kept.join("; "));
    }
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
