//! `compile_all`: the ten kernels × six versions through
//! `ooc_kernels::compile`.
//!
//! Chosen because `ooc-linalg` and `ooc-core`'s optimizer, locality,
//! interference and tiling passes do all the work and the runtime
//! does none: an optimizer or linalg change shows here, and an
//! execution-path change must show nothing. A `col` compile skips the
//! optimizer and takes well under a millisecond, so the baseline
//! variant here is the ten `d-opt` compiles instead: layouts only,
//! the cheapest optimizing strategy, against which the whole suite's
//! cost is read.

use crate::inputs::{bits_equal, init_value, reference, Rng};
use crate::metrics::KERNELS;
use crate::workload::{passes_within, Ctx, Layers, Rep, Variant, Workload};
use ooc_core::{
    extract_schedule, optimize, optimize_data_only, optimize_loop_only, run_functional, simulate,
    ExecConfig, FunctionalConfig, OptimizeOptions, TiledProgram, TilingStrategy,
};
use ooc_kernels::{all_kernels, compile, kernel_by_name, CompiledVersion, Kernel, Version};
use std::hint::black_box;
use std::io;

/// State of the workload after set-up.
pub struct CompileAll {
    /// Kernels in the seeded order.
    kernels: Vec<Kernel>,
    /// Versions in the seeded order.
    versions: Vec<Version>,
    /// Fingerprint of every verified plan, `[kernel][version]` in the
    /// orders above; empty until the warm-up has compiled them.
    verified: Vec<Vec<u64>>,
    /// Whether every plan matched the IR interpreter.
    plans_ok: bool,
}

/// FNV-1a of a plan's `Debug` form: layouts, transformed nests, tile
/// levels. Two compiles agree on it exactly when they made the same
/// decisions.
fn fingerprint(cv: &CompiledVersion) -> u64 {
    let text = format!("{:?}|{:?}", cv.tiled, cv.interleave);
    text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The modelled run of a kernel's plan: paper size / `sim_scale`
/// (floor 8) on `sim_procs` processors.
fn sim_config(ctx: &Ctx, kernel: &Kernel, cv: &CompiledVersion) -> ExecConfig {
    let params = kernel
        .paper_params
        .iter()
        .map(|&n| (n / ctx.sizes.sim_scale.max(1)).max(8))
        .collect();
    let mut cfg = ExecConfig::new(params, ctx.sizes.sim_procs);
    cfg.interleave = cv.interleave.clone();
    cfg
}

/// Seeds the job order from `--seed`. The plans themselves come from
/// the warm-up repetition, which also checks them against the IR
/// interpreter.
///
/// # Errors
/// None today; the signature matches the other workloads.
pub fn setup(ctx: &Ctx) -> io::Result<CompileAll> {
    let mut kernels = all_kernels();
    assert!(
        kernels.iter().map(|k| k.name).eq(KERNELS),
        "kernel registry no longer matches the declared metric names"
    );
    if let Some(keep) = ctx.sizes.compile_kernels {
        kernels.retain(|k| keep.contains(&k.name));
    }
    let mut versions = Version::ALL.to_vec();
    let mut rng = Rng::new(ctx.seed);
    rng.shuffle(&mut kernels);
    rng.shuffle(&mut versions);
    Ok(CompileAll {
        kernels,
        versions,
        verified: Vec::new(),
        plans_ok: false,
    })
}

impl CompileAll {
    /// The reference: every one of the sixty plans run at its kernel's
    /// small size against the IR interpreter on the original program.
    /// Their fingerprints then stand for "the verified plan" in every
    /// later repetition.
    fn verify_plans(&mut self, ctx: &Ctx, plans: &[Vec<CompiledVersion>]) {
        let seed = ctx.seed;
        self.plans_ok = self.kernels.iter().zip(plans).all(|(k, row)| {
            let want = reference(&k.program, &k.small_params, seed);
            row.iter().all(|cv| {
                let got = run_functional(&cv.tiled, &k.small_params, &|a, idx| {
                    init_value(seed, a, idx)
                });
                bits_equal(&got, &want)
            })
        });
        self.verified = plans
            .iter()
            .map(|row| row.iter().map(fingerprint).collect())
            .collect();
    }

    /// Modelled I/O of the ten c-opt plans, as `(calls, elements)`.
    fn modeled_io(&self, ctx: &Ctx, plans: &[Vec<CompiledVersion>]) -> (u64, u64) {
        let copt = self
            .versions
            .iter()
            .position(|&v| v == Version::COpt)
            .expect("c-opt is a version");
        let (mut calls, mut bytes) = (0u64, 0u64);
        for (k, row) in self.kernels.iter().zip(plans) {
            let report = simulate(&row[copt].tiled, &sim_config(ctx, k, &row[copt]));
            calls += report.io_calls;
            bytes += report.io_bytes;
        }
        (calls, bytes / 8)
    }
}

impl Workload for CompileAll {
    fn rep(&mut self, ctx: &Ctx, variant: Variant) -> io::Result<Rep> {
        let versions: &[Version] = match variant {
            Variant::Headline => &self.versions,
            Variant::Base => &[Version::DOpt],
        };
        let mut parts = Vec::new();
        let (plans, seconds) = ctx.rec.time("compile_all", || {
            self.kernels
                .iter()
                .map(|k| {
                    let (row, s) = ctx.rec.time(&format!("compile:{}", k.name), || {
                        versions
                            .iter()
                            .map(|&v| black_box(compile(k, v)))
                            .collect::<Vec<_>>()
                    });
                    parts.push((format!("kernels.compile_ms.{}", k.name), s * 1e3));
                    row
                })
                .collect::<Vec<_>>()
        });

        // Verification, outside the measured call: each plan is one
        // the warm-up checked against the IR interpreter.
        if self.verified.is_empty() && variant == Variant::Headline {
            ctx.rec.time("reference", || self.verify_plans(ctx, &plans));
        }
        let mut ok = self.plans_ok && !self.verified.is_empty();
        let mut counts = Vec::new();
        match variant {
            Variant::Headline => {
                for (row, want) in plans.iter().zip(&self.verified) {
                    ok &= row.iter().map(fingerprint).eq(want.iter().copied());
                }
                let (calls, elems) = self.modeled_io(ctx, &plans);
                counts.push(("io_calls", calls));
                counts.push(("io_elems", elems));
            }
            Variant::Base => {
                let dopt = self
                    .versions
                    .iter()
                    .position(|&v| v == Version::DOpt)
                    .expect("d-opt is a version");
                for (row, want) in plans.iter().zip(&self.verified) {
                    ok &= fingerprint(&row[0]) == want[dopt];
                }
                parts.clear();
            }
        }
        Ok(Rep {
            seconds,
            ok,
            counts,
            parts,
        })
    }

    fn peel(&mut self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        let rec = ctx.rec;
        let opts: Vec<OptimizeOptions> = self
            .kernels
            .iter()
            .map(|k| OptimizeOptions {
                cost_params: k.paper_params.clone(),
                ..OptimizeOptions::default()
            })
            .collect();
        // The benchmark's own plans, for the schedule-extraction cost
        // every other workload pays in set-up.
        let fcfg = FunctionalConfig::with_fraction(ctx.sizes.memory_fraction);
        let own: Vec<(TiledProgram, Vec<i64>)> = [
            ("mxm", ctx.sizes.mxm_n),
            ("trans", ctx.sizes.stage_n),
            ("trans", ctx.sizes.par_n),
        ]
        .iter()
        .flat_map(|&(name, n)| {
            let k = kernel_by_name(name).expect("kernel exists");
            [Version::COpt, Version::Col].map(|v| (compile(&k, v).tiled, vec![n]))
        })
        .collect();
        let copt_plans: Vec<CompiledVersion> = self
            .kernels
            .iter()
            .map(|k| compile(k, Version::COpt))
            .collect();

        let mut samples: [Vec<f64>; 6] = Default::default();
        let mut modeled = Vec::new();
        passes_within(budget_s, 5, || {
            let (combined, s) = rec.time("optimizer.optimize", || {
                self.kernels
                    .iter()
                    .zip(&opts)
                    .map(|(k, o)| optimize(&k.program, o))
                    .collect::<Vec<_>>()
            });
            samples[0].push(s * 1e3);
            let (_, s) = rec.time("optimizer.data_only", || {
                for (k, o) in self.kernels.iter().zip(&opts) {
                    black_box(optimize_data_only(&k.program, o));
                }
            });
            samples[1].push(s * 1e3);
            let (_, s) = rec.time("optimizer.loop_only", || {
                for (k, o) in self.kernels.iter().zip(&opts) {
                    black_box(optimize_loop_only(&k.program, o, None));
                }
            });
            samples[2].push(s * 1e3);
            let (_, s) = rec.time("tiling.from_optimized", || {
                for opt in &combined {
                    black_box(TiledProgram::from_optimized(opt, TilingStrategy::OutOfCore));
                }
            });
            samples[3].push(s * 1e3);
            let (_, s) = rec.time("sched.extract_schedule", || {
                for (tp, params) in &own {
                    black_box(extract_schedule(tp, params, &fcfg));
                }
            });
            samples[4].push(s * 1e3);
            let (calls, s) = rec.time("sim.simulate", || {
                self.kernels
                    .iter()
                    .zip(&copt_plans)
                    .map(|(k, cv)| simulate(&cv.tiled, &sim_config(ctx, k, cv)).io_calls)
                    .sum::<u64>()
            });
            samples[5].push(s * 1e3);
            modeled.push(calls);
            Ok(())
        })?;
        for (name, s) in [
            "optimizer.optimize_ms",
            "optimizer.data_only_ms",
            "optimizer.loop_only_ms",
            "tiling.from_optimized_ms",
            "sched.extract_schedule_ms",
            "sim.simulate_ms",
        ]
        .iter()
        .zip(&samples)
        {
            layers.set(name, crate::stats::median(s));
        }
        layers.op(modeled.iter().all(|&c| c == modeled[0]));
        layers.set("optimizer.modeled_io_calls", modeled[0] as f64);
        Ok(())
    }
}
