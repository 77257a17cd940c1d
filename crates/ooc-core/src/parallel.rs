//! The measured multi-node parallel executor — and the one driver of
//! the step engine: shard a nest's static tile walk across worker
//! threads and drive each shard with the pipelined machinery of
//! [`crate::pipeline`] (prefetch pool, tile cache, write-behind) over
//! one shared store stack — typically striped across simulated I/O
//! nodes ([`StripedStore`](ooc_runtime::StripedStore)) so queueing
//! contention is *experienced*, not just priced.
//!
//! `exec_sharded` is the body of [`exec_parallel`],
//! [`exec_pipelined`](crate::pipeline::exec_pipelined) and the durable
//! step-engine runs. At one shard every nest takes the serial path and
//! worker 0 drives the full schedule: that *is* the pipelined
//! executor.
//!
//! # Partitioning
//!
//! Each nest is split by **tile-walk ownership** at its
//! communication-free parallelization level — the plan's
//! [`own_level`](crate::plan::NestPlan), the first loop level where
//! every dependence carried by the nest is exactly zero (the level the
//! simulated Table 3 machine chunks on). [`partition_nest_checked`]
//! block-partitions the distinct tile-origin values at that level with
//! the `i*n/p` chunks rule and
//! recomputes per-shard Belady next-use deltas; nests with no
//! communication-free level, or whose written tile regions are not
//! shard-disjoint, fall back to a single serial shard.
//!
//! # Why results are bit-equal to the one-shard run
//!
//! * Read slots only stage arrays the nest never writes, so every
//!   prefetch observes immutable data regardless of which thread
//!   issues it.
//! * Written slot regions are disjoint across shards (checked at
//!   partition time), so all intra-nest data flow is shard-local and
//!   each element's final value is produced by exactly one shard's
//!   serial-order walk.
//! * Shard threads are joined and every write-behind queue is flushed
//!   before the next nest (or the final dump) reads anything, so
//!   cross-nest flow sees complete results.
//! * Each step's compute is byte-identical (the nest's one
//!   [`TileKernel`](crate::kernel) on the same staged tiles in the
//!   same shard-local order).
//!
//! Analytic **write** I/O is likewise conserved: the steps of the
//! serial walk are partitioned exactly (every step executes on exactly
//! one shard) and written regions are shard-disjoint, so per-array
//! write call/element totals match the single-threaded run at every
//! shard count. Read totals are deterministic at a *fixed* shard
//! count (and identical across backends and repeated runs) but may
//! shift between shard counts: each shard stages through a private
//! tile pool, so the aggregate cache grows with shards — absorbing
//! capacity re-reads — while read-shared tiles staged once serially
//! may be staged once *per shard* in parallel.
//!
//! # Durability
//!
//! A durable parallel run reuses the journal protocol wholesale: every
//! worker's write path — its main thread and its write-behind sink —
//! runs intent → write → commit against the shared session's one log.
//! Multi-shard nests checkpoint at **iteration barriers** (all shards
//! joined, all queues flushed) with the serial watermark
//! `(it + 1) * steps_per_iteration`; serial nests checkpoint at
//! tile-row cadence inside `NestRun::step`. Resume therefore lands on
//! a serial-schedule boundary and replays at most one checkpoint
//! interval per array at any shard count.
//!
//! # Degraded mode
//!
//! Run over a [`StripedMedium`](crate::recovery::StripedMedium) —
//! every array striped with a rotating parity lane across one shared
//! I/O-node pool — the same protocol also survives **permanent loss
//! of any single I/O node**: the medium's
//! [`recoverable`](crate::recovery::DurableMedium::recoverable) hook
//! turns the typed dead-node discovery error into quarantine, and
//! [`run_durable`](crate::recovery::run_durable) into a journal-bounded
//! retry, after which the dead node's stripes are
//! read by XOR reconstruction from its peers and its writes land in
//! the parity lane. The survived run is bit-equal to a fault-free
//! one, and all reconstruction/parity traffic is accounted on the
//! repair plane (ledger repair channel, `Repair` blame category) —
//! never in the data-plane conservation law.

use crate::exec::{plan_walk, ArrayProfile, FunctionalRun};
use crate::pipeline::{
    nest_schedule, setup_run, worker_handles, NestRun, PipelineConfig, RunSetup, ShardWorker,
};
use crate::recovery::DurableSession;
use crate::tiling::TiledProgram;
use ooc_ir::ArrayId;
use ooc_runtime::{IoStats, Store};
use ooc_sched::{partition_nest_checked, PipelineStats};
use std::collections::BTreeMap;
use std::io;

/// Configuration of the parallel executor: the per-shard pipeline
/// settings plus the number of worker shards.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Pipeline settings applied to every shard worker (prefetch
    /// depth, write-behind, cache capacity, functional config).
    pub pipeline: PipelineConfig,
    /// Worker shards the tile walk is partitioned across. `1` (or any
    /// nest without a communication-free level) degenerates to the
    /// pipelined executor.
    pub shards: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            pipeline: PipelineConfig::default(),
            shards: 2,
        }
    }
}

/// How one nest was partitioned — recorded per nest so tests and the
/// bench harness can assert which nests actually ran parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSummary {
    /// Nest index in the tiled program.
    pub nest: usize,
    /// The communication-free ownership level, or `None` when every
    /// level carries a dependence.
    pub level: Option<usize>,
    /// Shards that own at least one tile-walk step.
    pub active_shards: usize,
    /// Whether the nest fell back to the serial single-shard path
    /// (no level, one shard requested, or overlapping writes).
    pub serial_fallback: bool,
}

/// Result of a parallel run: the functional result (bit-equal to the
/// synchronous and pipelined executors), merged and per-shard pipeline
/// counters, and the per-nest partition summaries.
#[derive(Debug)]
pub struct ParallelRun {
    /// Contents and per-array profiles; analytic totals equal the
    /// single-threaded run's.
    pub run: FunctionalRun,
    /// All shards' pipeline counters merged
    /// ([`PipelineStats::merge`]).
    pub pipeline: PipelineStats,
    /// Each shard worker's own counters, index = shard.
    pub shard_stats: Vec<PipelineStats>,
    /// How each executed nest was partitioned.
    pub partitions: Vec<PartitionSummary>,
}

/// Functionally executes a tiled program with `cfg.shards` worker
/// threads, each driving its shard of every nest's tile walk with the
/// full pipelined machinery over shared stores. Results are bit-equal
/// to [`exec_pipelined`](crate::pipeline::exec_pipelined) (see the
/// module docs for the argument).
///
/// # Errors
/// Propagates store construction/seeding errors, staging I/O errors
/// the retry policy cannot recover, and write-behind flush failures —
/// from any shard.
///
/// # Panics
/// Panics on internal inconsistencies (compiler bugs) and when a shard
/// worker thread itself panics.
pub fn exec_parallel<S: Store + Send + 'static>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &ParallelConfig,
    make_store: impl FnMut(usize, &str, u64) -> io::Result<S>,
) -> io::Result<ParallelRun> {
    exec_sharded(tp, params, init, cfg, make_store, None, "parallel")
}

/// The step-engine driver behind every pipelined and parallel run,
/// durable or not: `cfg.shards` workers over shared stores, booked to
/// the ledger as `executor`, with the optional durable session the
/// recovery layer drives (see the module docs for the checkpoint
/// placement).
pub(crate) fn exec_sharded<S: Store + Send + 'static>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &ParallelConfig,
    mut make_store: impl FnMut(usize, &str, u64) -> io::Result<S>,
    mut dur: Option<&mut DurableSession>,
    executor: &str,
) -> io::Result<ParallelRun> {
    let pcfg = &cfg.pipeline;
    let shards = cfg.shards.max(1);
    let _lane = ooc_trace::lane_scope(ooc_trace::Lane::main());
    let _span = ooc_trace::span_with(
        "parallel",
        "exec-parallel",
        vec![
            ("shards", (shards as u64).into()),
            ("workers", (pcfg.workers as u64).into()),
            ("depth", (pcfg.prefetch_depth as u64).into()),
        ],
    );
    if let Some(rec) = &pcfg.functional.ledger {
        rec.set_executor(executor);
    }
    let env = pcfg.functional.plan_env(tp, params)?;
    let RunSetup {
        shared,
        arrays: mut main_arrays,
    } = setup_run(&env, init, pcfg, &mut make_store, &mut dur)?;

    // One ShardWorker per shard, each with its own array handles,
    // prefetch pool and write-behind queue.
    let mk_arrays = || worker_handles(&env, &shared, pcfg);
    let mut workers: Vec<ShardWorker<S>> = (0..shards)
        .map(|_| ShardWorker::build(&mk_arrays, pcfg, dur.as_ref().map(|d| d.journal.clone())))
        .collect();

    let mut partitions: Vec<PartitionSummary> = Vec::new();

    for (ni, tnest) in tp.nests.iter().enumerate() {
        if dur.as_ref().is_some_and(|d| d.skip_nest(ni)) {
            continue;
        }
        let Some((plan, kernel)) = plan_walk(&env, tnest)? else {
            if let Some(d) = dur.as_deref_mut() {
                d.checkpoint(ni + 1, 0)?;
            }
            continue;
        };
        let nest = &tnest.nest;
        let schedule = nest_schedule(&plan, ni, nest.iterations);
        let n = schedule.steps.len() as u64;
        let iterations = schedule.iterations;
        if n == 0 || iterations == 0 {
            if let Some(d) = dur.as_deref_mut() {
                d.checkpoint(ni + 1, 0)?;
            }
            continue;
        }
        let level = plan.own_level;
        let part = partition_nest_checked(&schedule, level, shards);
        partitions.push(PartitionSummary {
            nest: ni,
            level,
            active_shards: part.active_shards(),
            serial_fallback: part.serial_fallback,
        });

        let start_g = dur.as_ref().map_or(0, |d| d.start_step(ni));
        if start_g > 0 {
            if let Some(d) = dur.as_deref_mut() {
                d.report.skipped_steps += start_g;
            }
        }
        let _nest_span = ooc_trace::span("parallel", &format!("nest:{}", nest.name));

        if part.serial_fallback || part.active_shards() <= 1 {
            // Serial path (all of a one-shard run): worker 0 drives
            // the full serial schedule on the main thread with the
            // durable session attached, checkpointing at tile rows.
            let mut nr = NestRun::new(ni, &kernel, schedule, start_g, pcfg);
            for g in start_g..nr.total_steps() {
                nr.step(&mut workers[0], g, &mut dur)?;
            }
            nr.finish(&mut workers[0])?;
        } else {
            let mut from_it = start_g / n;
            if start_g % n != 0 {
                // A resume boundary inside an iteration (e.g. a
                // tile-row checkpoint written by an earlier
                // serial-fallback configuration): finish that
                // iteration serially so row accounting stays exact,
                // then shard from the next iteration barrier.
                let to = (from_it + 1) * n;
                let mut nr = NestRun::new(ni, &kernel, schedule.clone(), start_g, pcfg);
                for g in start_g..to {
                    nr.step(&mut workers[0], g, &mut dur)?;
                }
                nr.finish(&mut workers[0])?;
                from_it += 1;
            }

            // Per-shard walk state persists across iteration barriers:
            // caches and write-behind residency carry over exactly as
            // in the serial walk, because each shard's schedule IS a
            // serial walk of its owned steps.
            let mut runs: Vec<Option<NestRun<'_>>> = part
                .shards
                .iter()
                .map(|sh| {
                    (!sh.schedule.steps.is_empty()).then(|| {
                        let n_s = sh.schedule.steps.len() as u64;
                        NestRun::new(ni, &kernel, sh.schedule.clone(), from_it * n_s, pcfg)
                    })
                })
                .collect();

            for it in from_it..iterations {
                std::thread::scope(|scope| -> io::Result<()> {
                    let mut handles = Vec::new();
                    for (si, (nr, w)) in runs.iter_mut().zip(workers.iter_mut()).enumerate() {
                        let Some(nr) = nr.as_mut() else { continue };
                        handles.push(scope.spawn(move || -> io::Result<()> {
                            let lane =
                                ooc_trace::Lane::shard(u32::try_from(si).unwrap_or(u32::MAX));
                            let _lane = ooc_trace::lane_scope(lane);
                            let _run = ooc_trace::enabled().then(|| {
                                ooc_trace::span_with(
                                    "parallel",
                                    "shard-run",
                                    vec![("shard", (si as u64).into()), ("iter", it.into())],
                                )
                            });
                            let n_s = nr.steps_per_iter();
                            let mut none: Option<&mut DurableSession> = None;
                            for g in it * n_s..(it + 1) * n_s {
                                nr.step(w, g, &mut none)?;
                            }
                            Ok(())
                        }));
                    }
                    // Join every shard before propagating the first
                    // error, so no thread outlives the barrier.
                    let _join =
                        ooc_trace::enabled().then(|| ooc_trace::span("parallel", "join-wait"));
                    let mut first_err = None;
                    for h in handles {
                        let res = h.join().expect("shard worker thread panicked");
                        if first_err.is_none() {
                            first_err = res.err();
                        }
                    }
                    match first_err {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                })?;
                if let Some(d) = dur.as_deref_mut() {
                    // Iteration barrier: every shard retired its
                    // written tiles at its local iteration end; flush
                    // every queue, then record the serial watermark.
                    let _ckpt =
                        ooc_trace::enabled().then(|| ooc_trace::span("durable", "checkpoint"));
                    for w in &workers {
                        if let Some(wb) = &w.wb {
                            wb.flush()?;
                        }
                    }
                    d.checkpoint(ni, (it + 1) * n)?;
                }
            }
            for (nr, w) in runs.iter_mut().zip(workers.iter_mut()) {
                if let Some(nr) = nr.as_mut() {
                    nr.finish(w)?;
                }
            }
        }
        if let Some(d) = dur.as_deref_mut() {
            let _ckpt = ooc_trace::enabled().then(|| ooc_trace::span("durable", "checkpoint"));
            d.checkpoint(ni + 1, 0)?;
        }
        if ooc_trace::enabled() {
            ooc_trace::instant(
                "parallel",
                "flush-barrier",
                vec![("nest", nest.name.clone().into())],
            );
        }
    }

    if let Some(d) = dur {
        // Shard threads run without the session; fold their step
        // counts into the recovery report here.
        d.report.executed_steps += workers.iter().map(|w| w.executed_steps).sum::<u64>();
    }

    // Tear down every worker before capturing profiles so all
    // deliveries and write-backs are accounted.
    let wb_stats: Vec<BTreeMap<u32, IoStats>> = workers
        .iter_mut()
        .map(ShardWorker::shutdown)
        .collect::<io::Result<_>>()?;

    // Analytic profiles fold the main-thread handles (seeding resets
    // leave only recovery rollback writes) with every worker's staging
    // handles, prefetch deliveries, and write-behind retirements.
    // Measured I/O accumulates in the shared store stack across all
    // threads, so the main handle sees it whole.
    let profiles: Vec<ArrayProfile> = main_arrays
        .iter()
        .enumerate()
        .map(|(a, arr)| {
            let mut s = arr.stats();
            for (w, wbs) in workers.iter().zip(&wb_stats) {
                s.merge(&w.arrays[a].stats());
                if let Some(p) = w.prefetch_stats.get(&(a as u32)) {
                    s.merge(p);
                }
                if let Some(x) = wbs.get(&(a as u32)) {
                    s.merge(x);
                }
            }
            ArrayProfile {
                name: arr.name().to_string(),
                stats: s,
                measured: arr.measured(),
                accesses: arr.access_log(),
            }
        })
        .collect();

    let shard_stats: Vec<PipelineStats> = workers.iter().map(|w| w.stats.clone()).collect();
    let mut pipeline = PipelineStats::default();
    for st in &shard_stats {
        pipeline.merge(st);
    }
    pipeline.io_retries = profiles.iter().map(|p| p.stats.retries).sum();

    let mut data = Vec::with_capacity(main_arrays.len());
    for arr in main_arrays.iter_mut() {
        let region = ooc_runtime::Region::full(arr.dims());
        data.push(arr.read_canonical(&region)?.into_data());
    }

    Ok(ParallelRun {
        run: FunctionalRun { data, profiles },
        pipeline,
        shard_stats,
        partitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fcfg, seed, sync_reference, tiled};
    use ooc_runtime::MemStore;

    fn parallel_cfg(shards: usize) -> ParallelConfig {
        ParallelConfig {
            pipeline: PipelineConfig {
                functional: fcfg(),
                ..PipelineConfig::default()
            },
            shards,
        }
    }

    #[test]
    fn parallel_matches_sync_bit_for_bit_at_every_shard_count() {
        let tp = tiled();
        let params = [12i64];
        let reference = sync_reference(&tp, &params);
        for shards in [1usize, 2, 3, 4, 8] {
            let run = exec_parallel(&tp, &params, &seed, &parallel_cfg(shards), |_, _, len| {
                Ok(MemStore::new(len))
            })
            .expect("parallel run");
            assert_eq!(run.run.data, reference.data, "shards={shards} diverge");
            assert_eq!(run.shard_stats.len(), shards.max(1));
        }
    }

    #[test]
    fn analytic_io_is_conserved_across_shards() {
        let tp = tiled();
        let params = [12i64];
        let serial = exec_parallel(&tp, &params, &seed, &parallel_cfg(1), |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("serial run");
        let par = exec_parallel(&tp, &params, &seed, &parallel_cfg(4), |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("parallel run");
        let rerun = exec_parallel(&tp, &params, &seed, &parallel_cfg(4), |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("parallel rerun");
        for (s, p) in serial.run.profiles.iter().zip(&par.run.profiles) {
            // Writes are conserved exactly at every shard count.
            assert_eq!(
                (s.stats.write_calls, s.stats.write_elems),
                (p.stats.write_calls, p.stats.write_elems),
                "{} writes move",
                s.name
            );
        }
        for (p, r) in par.run.profiles.iter().zip(&rerun.run.profiles) {
            // Reads are deterministic at a fixed shard count.
            assert_eq!(
                (p.stats.read_calls, p.stats.read_elems),
                (r.stats.read_calls, r.stats.read_elems),
                "{} reads vary between identical runs",
                p.name
            );
        }
    }

    #[test]
    fn nests_actually_shard() {
        let tp = tiled();
        let params = [12i64];
        let run = exec_parallel(&tp, &params, &seed, &parallel_cfg(2), |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("parallel run");
        assert_eq!(run.partitions.len(), tp.nests.len());
        assert!(
            run.partitions
                .iter()
                .any(|p| !p.serial_fallback && p.active_shards > 1),
            "no nest sharded: {:?}",
            run.partitions
        );
        // Both shards did real work.
        let busy = run
            .shard_stats
            .iter()
            .filter(|s| s.sync_reads + s.prefetched_reads > 0)
            .count();
        assert!(busy > 1, "only {busy} shard(s) busy");
    }

    #[test]
    fn single_shard_reports_serial_fallback() {
        let tp = tiled();
        let run = exec_parallel(&tp, &[9i64], &seed, &parallel_cfg(1), |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("serial run");
        assert!(run.partitions.iter().all(|p| p.serial_fallback));
    }
}
