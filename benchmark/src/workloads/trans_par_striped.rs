//! `trans_par_striped`: `trans` through `exec_parallel` — two shards,
//! one prefetch worker each — over a four-node `StripedStore` on
//! `FileStore` parts.
//!
//! Chosen because it is the only workload where `ooc-sched` (tile
//! cache, prefetch, write-behind, partition), `SharedStore` and the
//! `IoNodePool` lanes run under real concurrency. Lock and queue
//! changes show here and should not move the single-threaded
//! workloads. With two shards on two cores the slower shard sets the
//! time, so `pool.wait_ms` and `prefetch.stalls` are the leading
//! indicators.

use crate::inputs::{bits_equal, init_value, reference};
use crate::metrics::EXACT;
use crate::replay::{
    build_arrays, dump_arrays, replay, schedule_iters, schedule_steps, seed_arrays,
};
use crate::stats::median;
use crate::workload::{passes_within, Ctx, Layers, Rep, Variant, Workload};
use ooc_core::{
    exec_parallel, exec_pipelined, extract_schedule, run_functional_on, FunctionalConfig,
    ParallelConfig, ParallelRun, PipelineConfig, TiledProgram,
};
use ooc_ir::ArrayId;
use ooc_kernels::{compile, kernel_by_name, Version};
use ooc_runtime::{FileStore, IoNodePool, NodeStats, StripeConfig, StripedStore};
use ooc_sched::TileSchedule;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;

/// One compiled variant.
struct Plan {
    tiled: TiledProgram,
    schedule: TileSchedule,
}

/// State of the workload after set-up.
pub struct TransParStriped {
    params: Vec<i64>,
    cfg: ParallelConfig,
    stripes: StripeConfig,
    dir: PathBuf,
    /// `[headline, base]`.
    plans: [Plan; 2],
    /// The IR interpreter's result on the original program.
    want: Vec<Vec<f64>>,
}

/// Compiles both variants, extracts their schedules and computes the
/// reference result. Stores are created by every repetition: the
/// executors take a store factory, not stores.
///
/// # Errors
/// Propagates filesystem errors.
pub fn setup(ctx: &Ctx) -> io::Result<TransParStriped> {
    let kernel = kernel_by_name("trans").expect("trans is a kernel");
    let params = vec![ctx.sizes.par_n];
    let functional = FunctionalConfig::with_fraction(ctx.sizes.memory_fraction);
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
                schedule: extract_schedule(&tiled, &params, &functional),
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
    let dir = ctx.tmp.join("par_striped");
    std::fs::create_dir_all(&dir)?;
    Ok(TransParStriped {
        params,
        cfg: ParallelConfig {
            pipeline: PipelineConfig {
                functional,
                workers: 1,
                prefetch_depth: ctx.sizes.par_depth,
                cache_capacity: None,
                write_behind: true,
            },
            shards: ctx.threads,
        },
        stripes: StripeConfig::with_nodes(ctx.sizes.par_nodes),
        dir,
        plans,
        want,
    })
}

impl TransParStriped {
    /// A store factory striping every array over `pool`'s nodes, one
    /// file per (array, node).
    fn striped_files<'a>(
        &'a self,
        pool: &'a IoNodePool,
    ) -> impl FnMut(usize, &str, u64) -> io::Result<StripedStore<FileStore>> + 'a {
        move |a, _, len| {
            StripedStore::build(pool, len, |node, part| {
                FileStore::create(&self.dir.join(format!("{a}_{node}.dat")), part)
            })
        }
    }

    fn parallel(&self, ctx: &Ctx, plan: &Plan) -> io::Result<(ParallelRun, Vec<NodeStats>, f64)> {
        let seed = ctx.seed;
        let pool = IoNodePool::new(self.stripes);
        let (run, seconds) = ctx.rec.time("exec_parallel", || {
            exec_parallel(
                &plan.tiled,
                &self.params,
                &|a, idx| init_value(seed, a, idx),
                &self.cfg,
                self.striped_files(&pool),
            )
        });
        Ok((run?, pool.snapshot(), seconds))
    }
}

impl Workload for TransParStriped {
    fn rep(&mut self, ctx: &Ctx, variant: Variant) -> io::Result<Rep> {
        let plan = &self.plans[usize::from(variant == Variant::Base)];
        let (run, _, seconds) = self.parallel(ctx, plan)?;
        let io = run.run.total_stats();
        let active: u64 = run.partitions.iter().map(|p| p.active_shards as u64).sum();
        let fallbacks = run.partitions.iter().filter(|p| p.serial_fallback).count();
        Ok(Rep {
            seconds,
            ok: bits_equal(&run.run.data, &self.want),
            counts: vec![
                ("io_calls", io.total_calls()),
                ("io_elems", io.total_elems()),
                ("exec.iters", schedule_iters(&plan.schedule)),
                ("exec.steps", schedule_steps(&plan.schedule)),
                ("parallel.active_shards", active),
                ("parallel.serial_fallbacks", fallbacks as u64),
                ("prefetch.issued", run.pipeline.prefetch_issued),
                ("writebehind.tiles", run.pipeline.writebehind_tiles),
            ],
            parts: Vec::new(),
        })
    }

    fn peel(&mut self, ctx: &Ctx, budget_s: f64, layers: &mut Layers) -> io::Result<()> {
        let plan = &self.plans[0];
        let seed = ctx.seed;
        let init = move |a: ArrayId, idx: &[i64]| init_value(seed, a, idx);
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut push = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
        passes_within(budget_s, 7, || {
            let (run, nodes, par_s) = self.parallel(ctx, plan)?;
            layers.op(bits_equal(&run.run.data, &self.want));
            push("par_s", par_s);
            let p = &run.pipeline;
            push("cache.hit_rate", p.hit_rate());
            push("cache.evictions", p.cache.evictions as f64);
            push("cache.peak_elems", p.cache.peak_elems as f64);
            push("prefetch.issued", p.prefetch_issued as f64);
            push(
                "prefetch.useful_frac",
                p.prefetched_reads as f64 / p.prefetch_issued.max(1) as f64,
            );
            push("prefetch.stalls", p.stalls as f64);
            push("prefetch.sync_reads", p.sync_reads as f64);
            push("writebehind.tiles", p.writebehind_tiles as f64);
            push(
                "parallel.active_shards",
                run.partitions
                    .iter()
                    .map(|p| p.active_shards)
                    .sum::<usize>() as f64,
            );
            push(
                "parallel.serial_fallbacks",
                run.partitions.iter().filter(|p| p.serial_fallback).count() as f64,
            );
            let calls: Vec<f64> = nodes
                .iter()
                .map(|n| (n.io.read_calls + n.io.write_calls) as f64)
                .collect();
            let mean = calls.iter().sum::<f64>() / calls.len().max(1) as f64;
            push(
                "pool.node_imbalance",
                calls.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
            );
            push(
                "pool.wait_ms",
                nodes.iter().map(|n| n.timing.wait_ns).sum::<u64>() as f64 / 1e6,
            );
            push(
                "pool.busy_ms",
                nodes.iter().map(|n| n.timing.busy_ns).sum::<u64>() as f64 / 1e6,
            );
            push(
                "pool.max_depth",
                nodes.iter().map(|n| n.timing.max_depth).max().unwrap_or(0) as f64,
            );

            // The same plan on the same store stack, one thread.
            let pool = IoNodePool::new(self.stripes);
            let (run, s) = ctx.rec.time("run_functional_on", || {
                run_functional_on(
                    &plan.tiled,
                    &self.params,
                    &init,
                    &self.cfg.pipeline.functional,
                    self.striped_files(&pool),
                )
            });
            layers.op(bits_equal(&run?.data, &self.want));
            push("sync_s", s);

            // One thread plus the prefetch and write-behind workers.
            let pool = IoNodePool::new(self.stripes);
            let (run, s) = ctx.rec.time("exec_pipelined", || {
                exec_pipelined(
                    &plan.tiled,
                    &self.params,
                    &init,
                    &self.cfg.pipeline,
                    self.striped_files(&pool),
                )
            });
            layers.op(bits_equal(&run?.run.data, &self.want));
            push("pipe_s", s);

            // The synchronous run peeled: seeding and dump, staging.
            let pool = IoNodePool::new(self.stripes);
            let (arrays, seed_s) = ctx.rec.time("exec.seed", || {
                let mut arrays =
                    build_arrays(&plan.tiled, &self.params, self.striped_files(&pool))?;
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
            push("fixed_s", seed_s + dump_s);
            push("stage_s", stage_s);
            Ok(())
        })?;

        let med = |name: &str| median(&samples[name]);
        for name in [
            "cache.hit_rate",
            "cache.evictions",
            "cache.peak_elems",
            "prefetch.issued",
            "prefetch.useful_frac",
            "prefetch.stalls",
            "prefetch.sync_reads",
            "writebehind.tiles",
            "parallel.active_shards",
            "parallel.serial_fallbacks",
            "pool.node_imbalance",
            "pool.wait_ms",
            "pool.busy_ms",
            "pool.max_depth",
        ] {
            layers.set(name, med(name));
        }
        // Scheduling decisions follow step counts, never timing, so
        // these must not differ from pass to pass.
        for (name, values) in &samples {
            if EXACT.contains(name) {
                layers.op(values.iter().all(|&v| v == values[0]));
            }
        }
        layers.set("parallel.speedup", med("sync_s") / med("par_s"));
        layers.set("pipeline.overlap_gain", med("sync_s") / med("pipe_s"));
        let iters = schedule_iters(&plan.schedule);
        let body = (med("sync_s") - med("fixed_s") - med("stage_s")).max(0.0);
        layers.set("exec.iters", iters as f64);
        layers.set("exec.steps", schedule_steps(&plan.schedule) as f64);
        layers.set("exec.seed_s", med("fixed_s"));
        layers.set("exec.stage_s", med("stage_s"));
        layers.set("exec.body_s", body);
        layers.set("exec.body_ns_per_iter", body * 1e9 / iters.max(1) as f64);
        Ok(())
    }
}
