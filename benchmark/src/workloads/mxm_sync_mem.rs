//! `mxm_sync_mem`: `mxm` through the synchronous executor
//! (`run_functional_on`) over `MemStore`.
//!
//! Chosen because the tile-body interpreter (`ooc_core::exec`) does
//! nearly all the work and the stores almost none: an interpreter
//! change shows here, a file-I/O change must not.
//!
//! Its traced run also hosts the overhead section — durable,
//! ledger and `ooc-trace` session against a plain run — because those
//! hooks sit in the same synchronous executor.

use crate::inputs::{bits_equal, init_value, reference};
use crate::replay::{
    build_arrays, dump_arrays, replay, schedule_iters, schedule_steps, seed_arrays,
};
use crate::stats::median;
use crate::workload::{passes_within, Ctx, Layers, Rep, Variant, Workload};
use ooc_core::{
    extract_schedule, run_functional_durable, run_functional_on, DirMedium, DurabilityConfig,
    FunctionalConfig, TiledProgram,
};
use ooc_ir::ArrayId;
use ooc_kernels::{compile, kernel_by_name, Version};
use ooc_runtime::{FileStore, LedgerRecorder, MemStore};
use ooc_sched::TileSchedule;
use std::hint::black_box;
use std::io;
use std::path::Path;

/// One compiled variant.
struct Plan {
    tiled: TiledProgram,
    schedule: TileSchedule,
}

/// State of the workload after set-up.
pub struct MxmSyncMem {
    params: Vec<i64>,
    cfg: FunctionalConfig,
    /// `[headline, base]`.
    plans: [Plan; 2],
    /// The IR interpreter's result on the original program.
    want: Vec<Vec<f64>>,
}

/// Compiles both variants, extracts their schedules and computes the
/// reference result.
///
/// # Errors
/// None today; the signature matches the other workloads.
pub fn setup(ctx: &Ctx) -> io::Result<MxmSyncMem> {
    let kernel = kernel_by_name("mxm").expect("mxm is a kernel");
    let params = vec![ctx.sizes.mxm_n];
    let cfg = FunctionalConfig::with_fraction(ctx.sizes.memory_fraction);
    let tiled = ctx
        .rec
        .time("compile", || {
            [Version::COpt, Version::Col].map(|v| compile(&kernel, v).tiled)
        })
        .0;
    let plans = ctx
        .rec
        .time("extract_schedule", || {
            tiled.map(|tiled| Plan {
                schedule: extract_schedule(&tiled, &params, &cfg),
                tiled,
            })
        })
        .0;
    let want = ctx
        .rec
        .time("reference", || {
            reference(&kernel.program, &params, ctx.seed)
        })
        .0;
    Ok(MxmSyncMem {
        params,
        cfg,
        plans,
        want,
    })
}

impl Workload for MxmSyncMem {
    fn rep(&mut self, ctx: &Ctx, variant: Variant) -> io::Result<Rep> {
        let plan = &self.plans[usize::from(variant == Variant::Base)];
        let seed = ctx.seed;
        let (run, seconds) = ctx.rec.time("run_functional_on", || {
            run_functional_on(
                &plan.tiled,
                &self.params,
                &|a, idx| init_value(seed, a, idx),
                &self.cfg,
                |_, _, len| Ok(MemStore::new(len)),
            )
        });
        let run = run?;
        let io = run.total_stats();
        Ok(Rep {
            seconds,
            ok: bits_equal(&run.data, &self.want),
            counts: vec![
                ("io_calls", io.total_calls()),
                ("io_elems", io.total_elems()),
                ("exec.iters", schedule_iters(&plan.schedule)),
                ("exec.steps", schedule_steps(&plan.schedule)),
            ],
            parts: Vec::new(),
        })
    }

    fn peel(&mut self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        self.peel_interpreter(ctx, budget_s / 3.0, layers)?;
        self.peel_overheads(ctx, budget_s * 2.0 / 3.0, layers)
    }
}

impl MxmSyncMem {
    /// Full run, its seeding and dump alone, and its staging alone
    /// (null-body replay on the same store); the body is what is left.
    fn peel_interpreter(&self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        let plan = &self.plans[0];
        let seed = ctx.seed;
        let init = move |a: ArrayId, idx: &[i64]| init_value(seed, a, idx);
        let (mut full, mut fixed, mut stage) = (Vec::new(), Vec::new(), Vec::new());
        passes_within(budget_s, 5, || {
            let (run, s) = ctx.rec.time("run_functional_on", || {
                run_functional_on(&plan.tiled, &self.params, &init, &self.cfg, |_, _, len| {
                    Ok(MemStore::new(len))
                })
            });
            layers.op(bits_equal(&run?.data, &self.want));
            full.push(s);
            let (arrays, seed_s) = ctx.rec.time("exec.seed", || {
                let mut arrays = build_arrays(&plan.tiled, &self.params, |_, _, len| {
                    Ok(MemStore::new(len))
                })?;
                seed_arrays(&mut arrays, &init)?;
                io::Result::Ok(arrays)
            });
            let mut arrays = arrays?;
            let (r, stage_s) = ctx
                .rec
                .time("exec.stage", || replay(&plan.schedule, &mut arrays));
            r?;
            let (dump, dump_s) = ctx.rec.time("exec.dump", || dump_arrays(&mut arrays));
            black_box(dump?);
            fixed.push(seed_s + dump_s);
            stage.push(stage_s);
            Ok(())
        })?;
        let iters = schedule_iters(&plan.schedule);
        let body = (median(&full) - median(&fixed) - median(&stage)).max(0.0);
        layers.set("exec.iters", iters as f64);
        layers.set("exec.steps", schedule_steps(&plan.schedule) as f64);
        layers.set("exec.seed_s", median(&fixed));
        layers.set("exec.stage_s", median(&stage));
        layers.set("exec.body_s", body);
        layers.set("exec.body_ns_per_iter", body * 1e9 / iters.max(1) as f64);
        Ok(())
    }

    /// Durable run, provenance ledger and `ooc-trace` session, each
    /// against the plain synchronous run of `trans` (col: the variant
    /// with the most tile steps, where per-step hooks cost most) over
    /// real files.
    fn peel_overheads(&self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        let trans = kernel_by_name("trans").expect("trans is a kernel");
        let params = vec![ctx.sizes.overhead_n];
        let tiled = compile(&trans, Version::Col).tiled;
        let seed = ctx.seed;
        let init = move |a: ArrayId, idx: &[i64]| init_value(seed, a, idx);
        let want = reference(&trans.program, &params, seed);
        let dir = ctx.tmp.join("overheads");
        let on_files = |dir: &Path, cfg: &FunctionalConfig| {
            std::fs::create_dir_all(dir)?;
            run_functional_on(&tiled, &params, &init, cfg, |a, _, len| {
                FileStore::create(&dir.join(format!("{a}.dat")), len)
            })
        };
        let plain_cfg = FunctionalConfig::with_fraction(ctx.sizes.memory_fraction);
        let mut samples: [Vec<f64>; 4] = Default::default();
        passes_within(budget_s, 7, || {
            let (run, s) = ctx.rec.time("overhead.plain", || {
                on_files(&dir.join("plain"), &plain_cfg)
            });
            layers.op(bits_equal(&run?.data, &want));
            samples[0].push(s);

            // A durable medium reopens what it finds: start clean.
            let durable_dir = dir.join("durable");
            let _ = std::fs::remove_dir_all(&durable_dir);
            std::fs::create_dir_all(&durable_dir)?;
            let (out, s) = ctx.rec.time("overhead.durable", || {
                run_functional_durable(
                    &tiled,
                    &params,
                    &init,
                    &plain_cfg,
                    &DurabilityConfig::default(),
                    &mut DirMedium::new(&durable_dir),
                    &|_| None,
                )
            });
            layers.op(bits_equal(&out?.run.data, &want));
            samples[1].push(s);

            let ledger_cfg = plain_cfg.clone().with_ledger(LedgerRecorder::new());
            let (run, s) = ctx.rec.time("overhead.ledger", || {
                on_files(&dir.join("ledger"), &ledger_cfg)
            });
            layers.op(bits_equal(&run?.data, &want));
            samples[2].push(s);

            let (run, s) = ctx.rec.time("overhead.trace", || {
                let session = ooc_trace::Session::start();
                let run = on_files(&dir.join("trace"), &plain_cfg);
                black_box(session.finish());
                run
            });
            layers.op(bits_equal(&run?.data, &want));
            samples[3].push(s);
            Ok(())
        })?;
        let plain = median(&samples[0]);
        for (name, s) in [
            "recovery.durable_overhead_frac",
            "ledger.overhead_frac",
            "trace.overhead_frac",
        ]
        .iter()
        .zip(&samples[1..])
        {
            layers.set(name, median(s) / plain - 1.0);
        }
        Ok(())
    }
}
