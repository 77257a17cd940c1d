//! The step engine and its one-shard face, the pipelined executor:
//! [`exec_pipelined`] runs the same tile walk as
//! [`run_functional_on`](crate::exec::run_functional_on), but
//! overlaps tile I/O with compute using the `ooc-sched` subsystem —
//! background prefetch of upcoming read tiles, a bounded
//! Belady-informed tile cache, and write-behind of dirty tiles with a
//! flush barrier at every nest boundary.
//!
//! This module holds the engine's parts — `nest_schedule`,
//! `ShardWorker`, `NestRun::step` — and [`crate::parallel`] holds its
//! only driver; `exec_pipelined` is [`exec_parallel`] at one shard, so
//! it returns a [`ParallelRun`]: every nest takes the serial path and
//! worker 0 walks the full schedule.
//!
//! ## Why the overlap is safe (bit-equality argument)
//!
//! The staging plan (`Staging`) guarantees that **every slot of an
//! array written by a nest is itself written**: a written array with
//! several access classes collapses to a single written hull slot,
//! and a written array with one class writes that class's slot.
//! Consequently the *read* slots of a schedule step belong only to
//! arrays the nest never writes — their backing stores are immutable
//! for the nest's whole duration, so prefetch workers may stage them
//! at any time, in any order, without observing a partial write.
//!
//! Written slots stay on the main thread, exactly as in the
//! synchronous executor (resident while the region is unchanged,
//! retired when it moves); retirement goes through the write-behind
//! queue, and two fences restore the synchronous ordering where it
//! matters: `wait_clear` before re-staging a region that may overlap
//! a queued write of the same array, and `flush` at the end of every
//! nest (before the cache clears and the next nest — or the final
//! dump — may read anything the nest wrote). Compute itself is the
//! synchronous walk's [`TileKernel`] over the same tile boxes in the
//! same order, so the pipelined result is bit-equal by construction;
//! the differential matrix checks it on every kernel.
//!
//! Scheduling decisions (issue window, eviction, stall handling) are
//! driven purely by step counts and deterministic tie-breaks — never
//! by timing — so analytic I/O totals are identical across backends
//! and runs; thread timing can only move work between the "prefetched"
//! and "stalled" buckets of [`PipelineStats`].

use crate::exec::{
    plan_walk, record_read, record_write_back, write_tile_through, FunctionalConfig,
};
use crate::kernel::TileKernel;
use crate::parallel::{exec_parallel, ParallelConfig, ParallelRun};
use crate::plan::{NestPlan, PlanEnv};
use crate::recovery::DurableSession;
use crate::tiling::TiledProgram;
use ooc_ir::ArrayId;
use ooc_runtime::{
    IoCause, IoStats, Journal, LedgerEvent, LedgerRecorder, OocArray, SharedStore, Store, Tile,
    TouchTracker,
};
use ooc_sched::{
    annotate_next_use, Delivery, NestSchedule, PipelineStats, PrefetchPool, SlotKey, StageRequest,
    TileCache, TileId, TileSchedule, TileSink, TileSource, TileStep, WriteBehind,
};
use std::collections::BTreeMap;
use std::io;

/// Configuration of the pipelined executor.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The underlying functional-execution parameters (runtime retry /
    /// call splitting, memory fraction).
    pub functional: FunctionalConfig,
    /// Prefetch worker threads; 0 disables prefetch entirely.
    pub workers: usize,
    /// How many steps ahead of the executing step prefetches are
    /// issued; 0 disables prefetch.
    pub prefetch_depth: usize,
    /// Tile-cache capacity in elements; `None` sizes it to
    /// `(prefetch_depth + 2) ×` the largest per-step read footprint.
    pub cache_capacity: Option<u64>,
    /// Retire dirty tiles through the write-behind queue (`false` =
    /// write synchronously on the main thread).
    pub write_behind: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            functional: FunctionalConfig::default(),
            workers: 2,
            prefetch_depth: 4,
            cache_capacity: None,
            write_behind: true,
        }
    }
}

impl PipelineConfig {
    /// Default pipeline over `1/fraction` of the data as memory.
    #[must_use]
    pub fn with_fraction(memory_fraction: u64) -> Self {
        PipelineConfig {
            functional: FunctionalConfig::with_fraction(memory_fraction),
            ..PipelineConfig::default()
        }
    }

    /// Sets the prefetch depth (builder style).
    #[must_use]
    pub fn depth(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }
}

/// The annotated tile schedule of nest `ni` under `plan`: one step
/// per tile box, its staged regions split into prefetchable reads and
/// main-thread writes.
pub(crate) fn nest_schedule(plan: &NestPlan, ni: usize, iterations: u32) -> NestSchedule {
    let steps = plan
        .boxes()
        .into_iter()
        .map(|(box_lo, box_hi)| {
            let mut step = TileStep {
                box_lo,
                box_hi,
                ..TileStep::default()
            };
            for (dense, region) in plan.staged(&step.box_lo, &step.box_hi) {
                let (a, slot) = plan.staging.key(dense);
                let id = TileId {
                    key: SlotKey {
                        array: u32::try_from(a.0).expect("array index"),
                        slot: u32::try_from(slot).expect("slot index"),
                    },
                    region,
                };
                if plan.staging.written(dense) {
                    step.writes.push(id);
                } else {
                    step.reads.push(StageRequest::new(id));
                }
            }
            step
        })
        .collect();
    let mut schedule = NestSchedule {
        nest: ni,
        iterations: u64::from(iterations),
        steps,
        read_footprint_max: 0,
    };
    annotate_next_use(&mut schedule);
    schedule
}

/// Derives the full tile schedule of a tiled program — the ordered
/// tile footprints per nest with cyclic next-use annotations — without
/// executing anything. `figure4` and `inspect --pipeline` render it;
/// [`exec_pipelined`] executes it. A nest whose body does not lower
/// has no schedule here; the executors report the error.
///
/// # Panics
/// Panics when an array's size at `params` does not fit `u64`.
#[must_use]
pub fn extract_schedule(tp: &TiledProgram, params: &[i64], cfg: &FunctionalConfig) -> TileSchedule {
    let env = cfg.plan_env(tp, params).expect("array sizes fit u64");
    let nests = tp.nests.iter().enumerate().filter_map(|(ni, tnest)| {
        let (plan, _kernel) = plan_walk(&env, tnest).ok().flatten()?;
        Some(nest_schedule(&plan, ni, tnest.nest.iterations))
    });
    TileSchedule {
        nests: nests.collect(),
    }
}

/// A prefetch worker's view of the arrays: its own `OocArray` handles
/// over [`SharedStore`] clones, with per-fetch stats isolation.
struct SharedTileSource<S: Store> {
    arrays: Vec<OocArray<SharedStore<S>>>,
}

impl<S: Store + Send> TileSource for SharedTileSource<S> {
    fn fetch(&mut self, tile: &TileId) -> io::Result<(Tile, IoStats)> {
        let arr = &mut self.arrays[tile.key.array as usize];
        arr.reset_stats();
        let t = arr.read_tile(&tile.region)?;
        Ok((t, arr.stats()))
    }
}

/// The write-behind thread's view of the arrays. A durable run's sink
/// carries the journal and writes through the same protocol as the
/// main thread (intent → write → commit), so a tile's commit record is
/// in the log before the queue reports the tile settled.
struct SharedTileSink<S: Store> {
    arrays: Vec<OocArray<SharedStore<S>>>,
    journal: Option<Journal>,
}

impl<S: Store + Send> TileSink for SharedTileSink<S> {
    fn store(&mut self, id: &TileId, tile: &Tile) -> io::Result<IoStats> {
        let arr = &mut self.arrays[id.key.array as usize];
        arr.reset_stats();
        write_tile_through(arr, self.journal.as_ref(), id.key.array, tile)?;
        Ok(arr.stats())
    }
}

fn slot_key_pair(id: &TileId) -> (ArrayId, usize) {
    (ArrayId(id.key.array as usize), id.key.slot as usize)
}

/// Where the kernel expects the tile of `id`'s slot.
fn dense_slot(kernel: &TileKernel, id: &TileId) -> io::Result<usize> {
    kernel.slot_index(id.key.array as usize, id.key.slot as usize)
}

/// Retires worker `w`'s dirty `tile` at step `at`: enqueues it on the
/// write-behind queue, or writes it on the main thread — either way
/// through the journal protocol when the worker carries a journal.
///
/// Provenance: the retirement is recorded *here* — write-behind
/// aggregates per array only, so retire time is the last point the
/// tile identity is known.
fn retire<S: Store + Send + 'static>(
    w: &mut ShardWorker<S>,
    at: (u32, u64),
    id: TileId,
    tile: Tile,
) -> io::Result<()> {
    let a = id.key.array;
    let arr = &mut w.arrays[a as usize];
    let journaled = w.journal.is_some();
    let ledger = w.ledger.as_ref();
    record_write_back(ledger, &mut w.tracker, arr, a, tile.region(), journaled, at);
    if ledger.is_some() {
        // Retirement ends the region's residency; a later re-stage
        // is a capacity miss paying for this displacement.
        w.tracker.note_evicted(a, tile.region(), at.1, None);
    }
    match &w.wb {
        Some(wb) => {
            w.stats.writebehind_tiles += 1;
            wb.enqueue(id, tile);
            Ok(())
        }
        None => {
            let _sync = ooc_trace::enabled().then(|| ooc_trace::span("pipeline", "sync-write"));
            write_tile_through(arr, w.journal.as_ref(), a, &tile)
        }
    }
}

/// Books a delivery: drops it from the in-flight set, accounts its
/// I/O, and stashes the tile in the arrival buffer. Failed fetches
/// are dropped — the consuming step falls back to a synchronous read
/// (with its own retry policy), mirroring the synchronous executor's
/// error behavior.
fn accept_delivery(
    d: Delivery,
    inflight: &mut BTreeMap<TileId, u64>,
    arrived: &mut BTreeMap<TileId, (Tile, IoStats)>,
    prefetch_stats: &mut BTreeMap<u32, IoStats>,
    ledger: Option<&LedgerRecorder>,
    nest: u32,
) {
    // Close the causal link the prefetch worker opened when it sent
    // this delivery (critical-path edge across threads).
    if ooc_trace::enabled() {
        ooc_trace::flow_finish("pipeline", "delivery", d.seq);
    }
    inflight.remove(&d.tile);
    match d.result {
        Ok((tile, stats)) => {
            prefetch_stats
                .entry(d.tile.key.array)
                .or_default()
                .merge(&stats);
            let array = d.tile.key.array;
            if let Some((old, old_stats)) = arrived.insert(d.tile, (tile, stats)) {
                // A displaced duplicate delivery was never consumed:
                // its bytes are waste, booked now so the partition
                // stays exact.
                if let Some(rec) = ledger {
                    rec.record(LedgerEvent {
                        array,
                        cause: IoCause::PrefetchWasted,
                        calls: old_stats.read_calls,
                        elems: old_stats.read_elems,
                        region: old.region().clone(),
                        nest,
                        step: 0,
                        evict: None,
                    });
                }
            }
        }
        Err(e) => {
            if ooc_trace::enabled() {
                ooc_trace::instant(
                    "pipeline",
                    "prefetch-error",
                    vec![("error", e.to_string().into())],
                );
            }
        }
    }
}

/// Books a consumed prefetch delivery as [`IoCause::PrefetchUseful`]
/// with the exact stats its fetch cost.
fn record_prefetched<S: Store + Send + 'static>(
    w: &mut ShardWorker<S>,
    ni: usize,
    g: u64,
    array: u32,
    tile: &Tile,
    fstats: &IoStats,
) {
    if let Some(rec) = &w.ledger {
        let evict = w.tracker.note_read(array, tile.region());
        rec.record(LedgerEvent {
            array,
            cause: IoCause::PrefetchUseful,
            calls: fstats.read_calls,
            elems: fstats.read_elems,
            region: tile.region().clone(),
            nest: ni as u32,
            step: g,
            evict,
        });
    }
}

/// Stages `id` with a synchronous read on the worker's own thread and
/// books it, classified first-touch vs. re-read by the worker's
/// tracker.
fn stage_sync<S: Store + Send + 'static>(
    w: &mut ShardWorker<S>,
    at: (u32, u64),
    id: &TileId,
) -> io::Result<Tile> {
    let arr = &mut w.arrays[id.key.array as usize];
    let t = arr.read_tile(&id.region)?;
    let array = id.key.array;
    record_read(
        w.ledger.as_ref(),
        &mut w.tracker,
        arr,
        array,
        &id.region,
        at,
    );
    Ok(t)
}

/// One executor thread's private pipeline machinery: its own array
/// handles over the shared stores, its own prefetch pool and
/// write-behind queue, and its own counters. The driver builds one
/// per schedule shard; the pipelined executor is exactly one
/// `ShardWorker` driving the full schedule.
pub(crate) struct ShardWorker<S: Store + Send + 'static> {
    pub(crate) arrays: Vec<OocArray<SharedStore<S>>>,
    pub(crate) pool: Option<PrefetchPool>,
    pub(crate) wb: Option<WriteBehind>,
    pub(crate) journal: Option<Journal>,
    pub(crate) stats: PipelineStats,
    pub(crate) prefetch_stats: BTreeMap<u32, IoStats>,
    /// Steps executed while driven without a durable session (the
    /// parallel executor folds these into the recovery report).
    pub(crate) executed_steps: u64,
    /// Provenance classification state of this worker's serial walk
    /// (first touch vs. re-read is a per-locality notion).
    pub(crate) tracker: TouchTracker,
    /// The run's shared provenance recorder, when attached.
    pub(crate) ledger: Option<LedgerRecorder>,
}

impl<S: Store + Send + 'static> ShardWorker<S> {
    /// Builds a worker from fresh array handles produced by
    /// `mk_arrays` (one set for the worker itself, one per prefetch
    /// source, one for the write-behind sink), with the durable write
    /// path when `journal` is given.
    pub(crate) fn build(
        mk_arrays: &dyn Fn() -> Vec<OocArray<SharedStore<S>>>,
        cfg: &PipelineConfig,
        journal: Option<Journal>,
    ) -> Self {
        let pool = (cfg.workers > 0 && cfg.prefetch_depth > 0).then(|| {
            PrefetchPool::new(
                (0..cfg.workers)
                    .map(|_| {
                        Box::new(SharedTileSource {
                            arrays: mk_arrays(),
                        }) as Box<dyn TileSource>
                    })
                    .collect(),
            )
        });
        let wb = cfg.write_behind.then(|| {
            WriteBehind::new(Box::new(SharedTileSink {
                arrays: mk_arrays(),
                journal: journal.clone(),
            }))
        });
        ShardWorker {
            arrays: mk_arrays(),
            pool,
            wb,
            journal,
            stats: PipelineStats::default(),
            prefetch_stats: BTreeMap::new(),
            executed_steps: 0,
            tracker: TouchTracker::new(),
            ledger: cfg.functional.ledger.clone(),
        }
    }

    /// Tears down the worker's background threads in accounting order:
    /// prefetch pool first (so every delivery is in), then the
    /// write-behind flush, returning the queue's per-array stats
    /// before dropping it.
    pub(crate) fn shutdown(&mut self) -> io::Result<BTreeMap<u32, IoStats>> {
        if let Some(pool) = self.pool.as_mut() {
            pool.shutdown();
        }
        let wb_stats = match &self.wb {
            Some(wb) => {
                wb.flush()?;
                wb.stats()
            }
            None => BTreeMap::new(),
        };
        self.wb = None;
        Ok(wb_stats)
    }
}

/// The per-nest, per-worker execution state of the tile walk: cache,
/// arrival buffer, in-flight prefetches, resident written tiles, and
/// the issue window. [`NestRun::step`] is the step engine's loop body
/// for one global step; a serial nest drives one `NestRun` over the
/// whole schedule, a sharded nest one per shard over that shard's
/// schedule.
pub(crate) struct NestRun<'a> {
    ni: usize,
    kernel: &'a TileKernel,
    schedule: NestSchedule,
    /// Steps per iteration of this run's schedule.
    n: u64,
    start_g: u64,
    depth: u64,
    row_start: Vec<bool>,
    rows_done: u64,
    cache: TileCache,
    /// Delivered-but-unconsumed prefetches, each with the exact
    /// [`IoStats`] its fetch cost (provenance: consumed = useful,
    /// leftover at the barrier = wasted).
    arrived: BTreeMap<TileId, (Tile, IoStats)>,
    inflight: BTreeMap<TileId, u64>,
    written_tiles: BTreeMap<(ArrayId, usize), Tile>,
    issued_until: u64,
}

impl<'a> NestRun<'a> {
    /// Sets up the walk state to start at global step `start_g` of
    /// `schedule` (row accounting is a pure function of the step
    /// index, so a resumed run checkpoints at exactly the same steps
    /// as an uninterrupted one).
    pub(crate) fn new(
        ni: usize,
        kernel: &'a TileKernel,
        schedule: NestSchedule,
        start_g: u64,
        cfg: &PipelineConfig,
    ) -> Self {
        let n = schedule.steps.len() as u64;
        debug_assert!(n > 0, "a nest run needs at least one step");
        let row_start: Vec<bool> = (0..schedule.steps.len())
            .map(|s| s == 0 || schedule.steps[s].box_lo[0] != schedule.steps[s - 1].box_lo[0])
            .collect();
        let rows_done: u64 = (1..=start_g)
            .filter(|&g2| row_start[(g2 % n) as usize])
            .count() as u64;
        let capacity = cfg.cache_capacity.unwrap_or_else(|| {
            schedule
                .read_footprint_max
                .saturating_mul(cfg.prefetch_depth as u64 + 2)
                .max(1)
        });
        NestRun {
            ni,
            kernel,
            schedule,
            n,
            start_g,
            depth: cfg.prefetch_depth as u64,
            row_start,
            rows_done,
            cache: TileCache::new(capacity),
            arrived: BTreeMap::new(),
            inflight: BTreeMap::new(),
            written_tiles: BTreeMap::new(),
            issued_until: start_g,
        }
    }

    /// Total steps of this run's schedule (steps × iterations).
    pub(crate) fn total_steps(&self) -> u64 {
        self.schedule.total_steps()
    }

    /// Steps per iteration of this run's schedule.
    pub(crate) fn steps_per_iter(&self) -> u64 {
        self.n
    }

    /// Executes global step `g` of this run's schedule on `w`:
    /// advance the issue window, stage reads (cache / arrival /
    /// stall / sync), stage written slots, compute the tile box, and
    /// return tiles to cache or residency — plus the durability
    /// checkpoints when `dur` is present.
    pub(crate) fn step<S: Store + Send + 'static>(
        &mut self,
        w: &mut ShardWorker<S>,
        g: u64,
        dur: &mut Option<&mut DurableSession>,
    ) -> io::Result<()> {
        let s = (g % self.n) as usize;
        let at = (self.ni as u32, g);

        // Periodic durability checkpoint at tile-row boundaries:
        // drain resident written tiles through the journaled write
        // path, flush the queue, then append the checkpoint record.
        if self.row_start[s] && g > self.start_g {
            self.rows_done += 1;
            if let Some(d) = dur.as_deref_mut() {
                if d.cfg.checkpoint_rows > 0 && self.rows_done % d.cfg.checkpoint_rows == 0 {
                    let _ckpt =
                        ooc_trace::enabled().then(|| ooc_trace::span("durable", "checkpoint"));
                    self.retire_resident(w, g)?;
                    if let Some(wb) = &w.wb {
                        wb.flush()?;
                    }
                    d.checkpoint(self.ni, g)?;
                }
            }
        }

        // Advance the issue window: every read of steps
        // [issued_until, g + depth] is either resident (pin it),
        // airborne (skip), or submitted now. The window advances
        // on step counts alone — never on timing — so the issue
        // sequence is deterministic.
        if let Some(pool) = w.pool.as_mut() {
            let window_end = (g + self.depth + 1).min(self.total_steps());
            while self.issued_until < window_end {
                let fs = (self.issued_until % self.n) as usize;
                for req in &self.schedule.steps[fs].reads {
                    let id = &req.tile;
                    if self.arrived.contains_key(id) || self.inflight.contains_key(id) {
                        continue;
                    }
                    if self.cache.contains(id.key, &id.region) {
                        // Resident already: protect it until this
                        // step consumes it.
                        self.cache.pin(id.key, &id.region);
                        continue;
                    }
                    let seq = pool.submit(id.clone());
                    self.inflight.insert(id.clone(), seq);
                    w.stats.prefetch_issued += 1;
                    if ooc_trace::enabled() {
                        ooc_trace::instant(
                            "pipeline",
                            "prefetch-issue",
                            vec![("seq", seq.into()), ("step", self.issued_until.into())],
                        );
                    }
                }
                self.issued_until += 1;
            }
            // Opportunistic drain keeps the arrival buffer small.
            while let Some(d) = pool.try_recv() {
                accept_delivery(
                    d,
                    &mut self.inflight,
                    &mut self.arrived,
                    &mut w.prefetch_stats,
                    w.ledger.as_ref(),
                    self.ni as u32,
                );
            }
            let depth_now = pool.in_flight();
            w.stats.in_flight_depth.observe(depth_now);
            w.stats.max_in_flight = w.stats.max_in_flight.max(depth_now);
        }

        // Stage this step's tiles.
        let step = &self.schedule.steps[s];
        let mut tiles: Vec<Option<Tile>> = vec![None; self.kernel.slots()];
        let mut stalled = false;
        for req in &step.reads {
            let id = &req.tile;
            let mut tile = self.cache.take(id.key, &id.region);
            if tile.is_none() && !self.arrived.contains_key(id) && self.inflight.contains_key(id) {
                // Stall: block on deliveries until ours lands.
                stalled = true;
                let _stall =
                    ooc_trace::enabled().then(|| ooc_trace::span("pipeline", "prefetch-stall"));
                let mut drains = 0u64;
                let pool = w.pool.as_mut().expect("in-flight implies pool");
                while self.inflight.contains_key(id) {
                    match pool.recv() {
                        Some(d) => {
                            drains += 1;
                            accept_delivery(
                                d,
                                &mut self.inflight,
                                &mut self.arrived,
                                &mut w.prefetch_stats,
                                w.ledger.as_ref(),
                                self.ni as u32,
                            );
                        }
                        None => {
                            // Worker died or accounting drift:
                            // degrade to a synchronous read.
                            self.inflight.remove(id);
                        }
                    }
                }
                w.stats.stall_drains.observe(drains);
            }
            if tile.is_none() {
                if let Some((t, fstats)) = self.arrived.remove(id) {
                    w.stats.prefetched_reads += 1;
                    record_prefetched(w, self.ni, g, id.key.array, &t, &fstats);
                    tile = Some(t);
                }
            }
            // Never issued (prefetch off, window miss), failed fetch,
            // or a dead worker: read on the main thread.
            let tile = match tile {
                Some(t) => t,
                None => {
                    w.stats.sync_reads += 1;
                    let _sync = ooc_trace::enabled().then(|| {
                        ooc_trace::span_with("pipeline", "sync-read", vec![("step", g.into())])
                    });
                    stage_sync(w, at, id)?
                }
            };
            tiles[dense_slot(self.kernel, id)?] = Some(tile);
        }
        if stalled {
            w.stats.stalls += 1;
        } else {
            w.stats.steps_unstalled += 1;
        }

        // Written slots: synchronous staging with write-behind
        // retirement, mirroring the synchronous executor.
        for id in &step.writes {
            let key = slot_key_pair(id);
            let stale = self
                .written_tiles
                .get(&key)
                .is_none_or(|t| t.region() != &id.region);
            if stale {
                if let Some(old) = self.written_tiles.remove(&key) {
                    // Retire under the *old* tile's identity: the
                    // queue's RAW fence and the sink's journal intent
                    // must name the region actually written,
                    // not this step's new region.
                    let old_id = TileId {
                        key: id.key,
                        region: old.region().clone(),
                    };
                    retire(w, at, old_id, old)?;
                }
                if let Some(wb) = &w.wb {
                    // Read-after-write fence: the region we are
                    // about to stage may overlap a queued write.
                    wb.wait_clear(id.key.array, &id.region);
                }
                let t = stage_sync(w, at, id)?;
                self.written_tiles.insert(key, t);
            }
            tiles[dense_slot(self.kernel, id)?] = self.written_tiles.remove(&key);
        }

        // Compute — the synchronous walk's kernel on the same tiles.
        self.kernel.run(&mut tiles, &step.box_lo, &step.box_hi)?;
        match dur.as_deref_mut() {
            Some(d) => d.report.executed_steps += 1,
            None => w.executed_steps += 1,
        }

        // Return read tiles to the cache with their schedule-known
        // next use; evictees are clean by construction (written
        // tiles never enter the cache).
        for req in &step.reads {
            if let Some(t) = tiles[dense_slot(self.kernel, &req.tile)?].take() {
                let next = self.schedule.absolute_next_use(g, req.next_use_delta);
                let out = self.cache.insert(req.tile.key, t, false, next);
                debug_assert!(
                    out.evicted.iter().all(|e| !e.dirty),
                    "dirty tile escaped the write path"
                );
                // Provenance: remember what the cache knew at each
                // eviction, so the re-read that pays for it can carry
                // the evicting step and the Belady annotation.
                for e in &out.evicted {
                    w.tracker
                        .note_evicted(e.key.array, e.tile.region(), g, e.next_use);
                }
                if let Some(t) = &out.rejected {
                    w.tracker
                        .note_evicted(req.tile.key.array, t.region(), g, next);
                }
            }
        }
        for id in &step.writes {
            if let Some(t) = tiles[dense_slot(self.kernel, id)?].take() {
                self.written_tiles.insert(slot_key_pair(id), t);
            }
        }

        // End-of-iteration flush of written tiles (the synchronous
        // executor writes them back here too), then an iteration
        // checkpoint for durable runs.
        if (g + 1) % self.n == 0 {
            self.retire_resident(w, g)?;
            if let Some(d) = dur.as_deref_mut() {
                let _ckpt = ooc_trace::enabled().then(|| ooc_trace::span("durable", "checkpoint"));
                if let Some(wb) = &w.wb {
                    wb.flush()?;
                }
                d.checkpoint(self.ni, g + 1)?;
            }
        }
        Ok(())
    }

    /// Retires every resident written tile at step `g` (tile-row
    /// checkpoints and iteration ends).
    fn retire_resident<S: Store + Send + 'static>(
        &mut self,
        w: &mut ShardWorker<S>,
        g: u64,
    ) -> io::Result<()> {
        for (key, tile) in std::mem::take(&mut self.written_tiles) {
            let id = TileId {
                key: SlotKey {
                    array: u32::try_from(key.0 .0).expect("array index"),
                    slot: u32::try_from(key.1).expect("slot index"),
                },
                region: tile.region().clone(),
            };
            retire(w, (self.ni as u32, g), id, tile)?;
        }
        Ok(())
    }

    /// Nest-boundary barrier: drain straggler deliveries, drop the
    /// cache (merging its stats), and flush write-behind before the
    /// next nest (or the final dump) reads anything this nest
    /// produced.
    pub(crate) fn finish<S: Store + Send + 'static>(
        &mut self,
        w: &mut ShardWorker<S>,
    ) -> io::Result<()> {
        if let Some(pool) = w.pool.as_mut() {
            while pool.in_flight() > 0 {
                match pool.recv() {
                    Some(d) => accept_delivery(
                        d,
                        &mut self.inflight,
                        &mut self.arrived,
                        &mut w.prefetch_stats,
                        w.ledger.as_ref(),
                        self.ni as u32,
                    ),
                    None => break,
                }
            }
        }
        // Provenance: everything still in the arrival buffer was
        // delivered but never consumed — wasted prefetch bytes.
        if let Some(rec) = &w.ledger {
            let end = self.total_steps();
            for (id, (tile, fstats)) in &self.arrived {
                rec.record(LedgerEvent {
                    array: id.key.array,
                    cause: IoCause::PrefetchWasted,
                    calls: fstats.read_calls,
                    elems: fstats.read_elems,
                    region: tile.region().clone(),
                    nest: self.ni as u32,
                    step: end,
                    evict: None,
                });
            }
        }
        self.arrived.clear();
        self.inflight.clear();
        w.stats.cache.merge(&self.cache.stats());
        let drained = self.cache.clear();
        debug_assert!(drained.iter().all(|e| !e.dirty));
        // The barrier evicts every resident tile: a later nest's
        // re-read of one of these regions is a capacity miss.
        let end = self.total_steps();
        for e in &drained {
            w.tracker
                .note_evicted(e.key.array, e.tile.region(), end, e.next_use);
        }
        if let Some(wb) = &w.wb {
            wb.flush()?;
        }
        Ok(())
    }
}

/// Shared run preamble for the pipelined and parallel executors: the
/// shared store stack and the seeded main-thread array handles, with
/// journal pre-image rollback applied when resuming a durable run.
pub(crate) struct RunSetup<S: Store + Send + 'static> {
    pub(crate) shared: Vec<SharedStore<S>>,
    pub(crate) arrays: Vec<OocArray<SharedStore<S>>>,
}

/// Builds every array's shared store, seeds it (unless the durable
/// session says seeding is already durable), resets metrics so only
/// the compute phase is profiled, and rolls back uncommitted journal
/// writes before marking the run begun.
pub(crate) fn setup_run<S: Store + Send + 'static>(
    env: &PlanEnv,
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &PipelineConfig,
    make_store: &mut dyn FnMut(usize, &str, u64) -> io::Result<S>,
    dur: &mut Option<&mut DurableSession>,
) -> io::Result<RunSetup<S>> {
    let n = env.program.arrays.len();
    let mut shared: Vec<SharedStore<S>> = Vec::with_capacity(n);
    let mut arrays: Vec<OocArray<SharedStore<S>>> = Vec::with_capacity(n);
    for (a, decl) in env.program.arrays.iter().enumerate() {
        let store = SharedStore::new(make_store(a, &decl.name, env.array_elems(a))?);
        shared.push(store.clone());
        let mut arr = OocArray::new(
            &decl.name,
            env.dims(a),
            env.layouts[a].clone(),
            store,
            cfg.functional.runtime,
        );
        if dur.as_ref().is_none_or(|d| !d.resumed()) {
            arr.initialize(|idx| init(ArrayId(a), idx))?;
        }
        // Profile the compute phase only.
        arr.reset_all_metrics();
        arrays.push(arr);
    }

    // Provenance: register array names once per run.
    if let Some(rec) = &cfg.functional.ledger {
        for (a, arr) in arrays.iter().enumerate() {
            rec.set_array(a as u32, arr.name());
        }
    }

    // Recovery: restore journal pre-images for every post-boundary
    // write of the crashed run, or mark a fresh run's seeding durable.
    if let Some(d) = dur.as_deref_mut() {
        d.start(&mut arrays, cfg.functional.ledger.as_ref())?;
    }
    Ok(RunSetup { shared, arrays })
}

/// Fresh per-thread array handles over the same shared stores. Workers
/// never touch analytic or measured reset paths — their per-fetch
/// stats are isolated by `reset_stats()` on their own handles, and
/// store-level measurement accumulates in the shared stack.
pub(crate) fn worker_handles<S: Store + Send + 'static>(
    env: &PlanEnv,
    shared: &[SharedStore<S>],
    cfg: &PipelineConfig,
) -> Vec<OocArray<SharedStore<S>>> {
    env.program
        .arrays
        .iter()
        .enumerate()
        .map(|(a, decl)| {
            OocArray::new(
                &decl.name,
                env.dims(a),
                env.layouts[a].clone(),
                shared[a].clone(),
                cfg.functional.runtime,
            )
        })
        .collect()
}

/// Functionally executes a tiled program with the asynchronous tile
/// pipeline: prefetch workers stage upcoming read tiles over
/// [`SharedStore`] clones while the main thread computes, a bounded
/// tile cache keeps reused tiles resident, and dirty tiles retire
/// through write-behind with a flush barrier at every nest boundary.
/// Results are bit-equal to
/// [`run_functional_on`](crate::exec::run_functional_on) over the same
/// stores (see the module docs for the argument). This is
/// [`exec_parallel`] at one shard: every nest takes the serial path.
///
/// `make_store` builds each array's backing store exactly as for the
/// synchronous executor; it only additionally needs `Send` so clones
/// of the shared handle may cross into worker threads.
///
/// # Errors
/// Propagates store construction/seeding errors, staging I/O errors
/// the retry policy cannot recover, and write-behind flush failures.
///
/// # Panics
/// Panics on internal inconsistencies — these indicate compiler bugs
/// and must surface in tests, like the synchronous executor.
pub fn exec_pipelined<S: Store + Send + 'static>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &PipelineConfig,
    make_store: impl FnMut(usize, &str, u64) -> io::Result<S>,
) -> io::Result<ParallelRun> {
    let cfg = ParallelConfig {
        pipeline: cfg.clone(),
        shards: 1,
    };
    exec_parallel(tp, params, init, &cfg, make_store)
}

/// Sums every nest's largest per-step read footprint — a convenient
/// scale for cache-capacity sweeps (`figure4` multiplies it).
#[must_use]
pub fn schedule_footprint(schedule: &TileSchedule) -> u64 {
    schedule
        .nests
        .iter()
        .map(|n| n.read_footprint_max)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{fcfg, seed, sync_reference, tiled};
    use ooc_runtime::MemStore;

    #[test]
    fn pipelined_matches_sync_bit_for_bit() {
        let tp = tiled();
        let params = [12i64];
        let reference = sync_reference(&tp, &params);
        let cfg = PipelineConfig {
            functional: fcfg(),
            ..PipelineConfig::default()
        };
        let run = exec_pipelined(&tp, &params, &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("pipelined run");
        assert_eq!(run.run.data, reference.data, "contents diverge");
        assert!(
            run.pipeline.prefetch_issued > 0,
            "pipeline actually prefetched: {:?}",
            run.pipeline
        );
        assert!(run.pipeline.writebehind_tiles > 0, "write-behind engaged");
    }

    #[test]
    fn degenerate_pipeline_is_the_sync_executor() {
        // workers=0 + write_behind=false: every tile moves on the main
        // thread; the pipeline is a re-skinned synchronous executor.
        let tp = tiled();
        let params = [9i64];
        let reference = sync_reference(&tp, &params);
        let cfg = PipelineConfig {
            functional: fcfg(),
            workers: 0,
            prefetch_depth: 0,
            write_behind: false,
            cache_capacity: None,
        };
        let run = exec_pipelined(&tp, &params, &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("degenerate run");
        assert_eq!(run.run.data, reference.data);
        assert_eq!(run.pipeline.prefetch_issued, 0);
        assert_eq!(run.pipeline.prefetched_reads, 0);
        assert_eq!(run.pipeline.writebehind_tiles, 0);
        assert!(run.pipeline.sync_reads > 0);
    }

    #[test]
    fn tiny_cache_still_bit_equal() {
        // A one-element cache forces overflow on every insert; results
        // must not change, only the counters.
        let tp = tiled();
        let params = [10i64];
        let reference = sync_reference(&tp, &params);
        let cfg = PipelineConfig {
            functional: fcfg(),
            cache_capacity: Some(1),
            ..PipelineConfig::default()
        };
        let run = exec_pipelined(&tp, &params, &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("tiny-cache run");
        assert_eq!(run.run.data, reference.data);
        assert!(run.pipeline.cache.overflows > 0, "{:?}", run.pipeline.cache);
    }

    #[test]
    fn schedule_extraction_is_annotated_and_consistent() {
        let tp = tiled();
        let cfg = fcfg();
        let schedule = extract_schedule(&tp, &[12], &cfg);
        assert_eq!(schedule.nests.len(), tp.nests.len());
        for nest in &schedule.nests {
            assert!(!nest.steps.is_empty());
            assert!(nest.read_footprint_max > 0);
            for step in &nest.steps {
                for req in &step.reads {
                    let d = req.next_use_delta.expect("annotated");
                    assert!(d >= 1 && d <= nest.steps.len() as u64);
                }
            }
        }
        assert!(schedule_footprint(&schedule) > 0);
    }

    #[test]
    fn analytic_totals_are_deterministic_across_runs() {
        // Thread timing may move reads between the prefetched and
        // stalled buckets, but analytic I/O totals must not move.
        let tp = tiled();
        let params = [11i64];
        let cfg = PipelineConfig {
            functional: fcfg(),
            ..PipelineConfig::default()
        };
        let runs: Vec<_> = (0..3)
            .map(|_| {
                exec_pipelined(&tp, &params, &seed, &cfg, |_, _, len| {
                    Ok(MemStore::new(len))
                })
                .expect("pipelined run")
            })
            .collect();
        let totals: Vec<_> = runs
            .iter()
            .map(|r| {
                let t = r.run.total_stats();
                (t.read_calls, t.write_calls, t.read_elems, t.write_elems)
            })
            .collect();
        assert_eq!(totals[0], totals[1]);
        assert_eq!(totals[1], totals[2]);
        assert_eq!(runs[0].run.data, runs[1].run.data);
    }
}
