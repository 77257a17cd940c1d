//! Execution of tiled programs.
//!
//! Two modes over the same tile walk:
//!
//! * **Functional** ([`run_functional`]): actually stages tiles
//!   through `ooc-runtime` arrays and computes element values — used
//!   at small sizes to prove transformed+tiled code equals the
//!   reference interpreter bit for bit.
//! * **Simulation** ([`simulate`]): no data moves; each tile step's
//!   I/O calls/bytes (from the layouts' run accounting) and compute
//!   flops become a `pfs-sim` workload, which the discrete-event
//!   simulator turns into wall-clock time on the modeled Paragon.
//!
//! Parallelization follows the paper's methodology: the outermost
//! tile loop is block-partitioned over `procs` communication-free
//! processors, all hammering the shared striped files.
//!
//! Tile boxes are rectangular (the bounding box of the iteration
//! polyhedron restricted to the tile); the element loops inside a box
//! keep the nest's own bounds, so a box that overhangs a skewed or
//! triangular nest runs only the points that belong to it.

use crate::kernel::{KernelScratch, TileKernel};
use crate::plan::{chunks, plan_nest, NestPlan, PlanEnv, PAPER_MEMORY_FRACTION};
use crate::recovery::DurableSession;
use crate::tiling::{TiledNest, TiledProgram};
use ooc_ir::{ArrayId, Expr, Statement};
use ooc_runtime::{
    AccessRecord, InterleavedGroup, IoCause, IoStats, Journal, LedgerEvent, LedgerRecorder,
    MeasuredIo, MemStore, OocArray, Region, RuntimeConfig, Store, Tile, TouchTracker, ELEM_BYTES,
};
use pfs_sim::{FileId, MachineConfig, Op, PfsSim, SimResult, Workload};
use std::collections::BTreeMap;
use std::io;

/// Execution configuration shared by both modes.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Parameter values (array extents, trip counts).
    pub params: Vec<i64>,
    /// Machine model for simulation.
    pub machine: MachineConfig,
    /// Compute processors.
    pub procs: usize,
    /// Memory = total out-of-core data / this fraction (paper: 128).
    pub memory_fraction: u64,
    /// Interleaved array groups (h-opt); arrays in a group must share
    /// dimensions and layout.
    pub interleave: Vec<Vec<ArrayId>>,
}

impl ExecConfig {
    /// A default configuration at the given size and processor count.
    #[must_use]
    pub fn new(params: Vec<i64>, procs: usize) -> Self {
        ExecConfig {
            params,
            machine: MachineConfig::default(),
            procs,
            memory_fraction: PAPER_MEMORY_FRACTION,
            interleave: Vec::new(),
        }
    }

    /// The planning environment of a program under `layouts` on this
    /// configuration's machine, at its parameters and memory fraction.
    ///
    /// # Errors
    /// See [`PlanEnv::new`].
    pub(crate) fn plan_env<'a>(
        &'a self,
        program: &'a ooc_ir::Program,
        layouts: &'a [ooc_runtime::FileLayout],
    ) -> io::Result<PlanEnv<'a>> {
        let (params, fraction) = (&self.params, self.memory_fraction);
        PlanEnv::for_machine(program, layouts, params, fraction, &self.machine)
    }
}

/// Aggregate report of a simulated execution.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Discrete-event simulation result (wall-clock etc.).
    pub result: SimResult,
    /// Total I/O calls across processors (analytic run accounting).
    pub io_calls: u64,
    /// Total bytes moved.
    pub io_bytes: u64,
    /// Total floating-point operations.
    pub flops: f64,
    /// Total tile steps walked.
    pub tile_steps: u64,
}

/// Number of floating-point operations per execution of a statement.
fn stmt_flops(s: &Statement) -> u64 {
    fn expr_ops(e: &Expr) -> u64 {
        match e {
            Expr::Const(_) | Expr::Ref(_) => 0,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                1 + expr_ops(a) + expr_ops(b)
            }
        }
    }
    expr_ops(&s.rhs).max(1)
}

/// Builds the `pfs-sim` workload of a tiled program (one trace per
/// processor) and the simulator holding the arrays' striped files.
#[must_use]
pub fn build_workload(tp: &TiledProgram, cfg: &ExecConfig) -> (PfsSim, Workload, SimReport) {
    let _span = ooc_trace::span_with(
        "runtime",
        "build-workload",
        vec![
            ("procs", (cfg.procs as u64).into()),
            ("nests", (tp.nests.len() as u64).into()),
        ],
    );
    let mut sim = PfsSim::new(cfg.machine);
    let env = cfg
        .plan_env(&tp.program, &tp.layouts)
        .expect("array sizes fit u64");
    let n_arrays = tp.program.arrays.len();

    // Interleave groups: member -> (group index, group object, file).
    let mut group_of: BTreeMap<ArrayId, usize> = BTreeMap::new();
    let mut groups: Vec<(InterleavedGroup, FileId)> = Vec::new();
    for members in &cfg.interleave {
        if members.len() < 2 {
            continue;
        }
        let layout = tp.layouts[members[0].0].clone();
        let g = InterleavedGroup::new(env.dims(members[0].0), layout, members.len());
        let file = sim.create_file();
        for m in members {
            group_of.insert(*m, groups.len());
        }
        groups.push((g, file));
    }
    // Plain files for ungrouped arrays.
    let mut file_of: BTreeMap<ArrayId, FileId> = BTreeMap::new();
    for a in (0..n_arrays).filter(|&a| !group_of.contains_key(&ArrayId(a))) {
        file_of.insert(ArrayId(a), sim.create_file());
    }

    let mut per_proc: Vec<Vec<Op>> = vec![Vec::new(); cfg.procs];
    let mut io_calls = 0u64;
    let mut io_bytes = 0u64;
    let mut flops_total = 0f64;
    let mut tile_steps = 0u64;
    let spf = cfg.machine.compute.seconds_per_flop;

    for tnest in &tp.nests {
        let nest = &tnest.nest;
        // Communication-free parallelization: block-partition the
        // ownership level over the processors (the paper's fixed
        // per-code data decomposition; the outermost loop when nothing
        // is provably parallel), spans planned on the largest chunk.
        let plan = plan_nest(
            &env,
            nest,
            tnest.strategy,
            &tnest.tiled_levels,
            Some(cfg.procs),
        )
        .expect("staged regions fit i64");
        let Some(plan) = plan else { continue };
        let staging = &plan.staging;
        let chunk_level = plan.own_level.unwrap_or(0);
        let per_stmt: u64 = nest.body.iter().map(stmt_flops).sum();

        for (p, chunk) in chunks(plan.ranges[chunk_level], cfg.procs)
            .into_iter()
            .enumerate()
        {
            let mut trace: Vec<Op> = Vec::new();
            // Tile-loop-invariant hoisting: a staged tile whose region is
            // unchanged from the previous tile step is already resident —
            // no I/O re-issued. This is the tile-level data reuse PASSION
            // codes rely on ("a data tile brought into memory should be
            // reused as much as possible").
            let mut cached_read: BTreeMap<(usize, usize), Region> = BTreeMap::new();
            let mut cached_write: BTreeMap<(usize, usize), Region> = BTreeMap::new();
            let mut calls_acc = 0u64;
            let mut bytes_acc = 0u64;
            let mut flops_acc = 0f64;
            plan.for_each_box(chunk_level, chunk, &mut |lo, hi| {
                tile_steps += 1;
                // A read is issued only for a slot some right-hand side
                // reads, a write only for a written slot.
                let mut emit =
                    |slot: usize,
                     is_write: bool,
                     trace: &mut Vec<Op>,
                     cached: &mut BTreeMap<(usize, usize), Region>| {
                        let (array, index) = staging.key(slot);
                        let region = plan.staged_slot(slot, lo, hi);
                        // An interleaved group is one file: one staged op
                        // fetches every member's slice, so its members
                        // staged through the same access matrix share a
                        // cache entry.
                        let group = group_of.get(&array).copied();
                        let key = match group {
                            Some(gi) => (n_arrays + gi, staging.class_key(slot)),
                            None => (array.0, index),
                        };
                        if cached.get(&key) == Some(&region) {
                            return;
                        }
                        let (cost, file) = match group {
                            Some(gi) => {
                                let (g, file) = &groups[gi];
                                (g.group_io_cost(&region, env.max_call_elems()), *file)
                            }
                            None => {
                                let summary = tp.layouts[array.0]
                                    .region_run_summary(env.dims(array.0), &region);
                                let cost = ooc_runtime::summary_cost(summary, env.max_call_elems());
                                (cost, file_of[&array])
                            }
                        };
                        cached.insert(key, region);
                        if cost.calls == 0 {
                            return;
                        }
                        calls_acc += cost.calls;
                        bytes_acc += cost.elements * ELEM_BYTES;
                        trace.push(Op::Io {
                            file,
                            offset: cost.start_byte,
                            bytes: cost.elements * ELEM_BYTES,
                            span: cost.span_bytes,
                            calls: cost.calls,
                            is_write,
                        });
                    };
                for &slot in staging.reads() {
                    emit(slot, false, &mut trace, &mut cached_read);
                }
                // Compute phase between reads and write-back.
                let points: f64 = lo
                    .iter()
                    .zip(hi)
                    .map(|(&l, &h)| (h - l + 1).max(0) as f64)
                    .product();
                let flops = points * per_stmt as f64;
                flops_acc += flops;
                trace.push(Op::Compute {
                    seconds: flops * spf,
                });
                for &slot in staging.writes() {
                    emit(slot, true, &mut trace, &mut cached_write);
                }
            });
            // The outer timing loop repeats the whole nest (tiles are not
            // cached across repetitions: the working set was recycled).
            io_calls += calls_acc * u64::from(nest.iterations);
            io_bytes += bytes_acc * u64::from(nest.iterations);
            flops_total += flops_acc * f64::from(nest.iterations);
            for _ in 0..nest.iterations {
                per_proc[p].extend(trace.iter().copied());
            }
        }
    }

    if ooc_trace::enabled() {
        ooc_trace::counter("analytic-io-calls", io_calls as f64);
        ooc_trace::counter("analytic-io-bytes", io_bytes as f64);
        ooc_trace::counter("tile-steps", tile_steps as f64);
    }
    let workload = Workload { per_proc };
    let report = SimReport {
        result: SimResult {
            total_time: 0.0,
            io_blocked_time: 0.0,
            compute_time: 0.0,
            total_calls: 0,
            total_bytes: 0,
            node_busy: Vec::new(),
            proc_finish: Vec::new(),
        },
        io_calls,
        io_bytes,
        flops: flops_total,
        tile_steps,
    };
    (sim, workload, report)
}

/// Simulates a tiled program on the modeled machine.
#[must_use]
pub fn simulate(tp: &TiledProgram, cfg: &ExecConfig) -> SimReport {
    let _span = ooc_trace::span("runtime", "simulate");
    let (sim, workload, mut report) = build_workload(tp, cfg);
    report.result = sim.simulate(&workload);
    report
}

/// Configuration of a functional execution.
#[derive(Debug, Clone)]
pub struct FunctionalConfig {
    /// Runtime parameters: call splitting and the retry policy for
    /// transient store failures.
    pub runtime: RuntimeConfig,
    /// Memory = total out-of-core data / this fraction (paper: 128).
    pub memory_fraction: u64,
    /// When set, every executor feeding on this config records each
    /// transfer it makes into the provenance ledger, classified by
    /// cause — see [`ooc_runtime::ledger`].
    pub ledger: Option<LedgerRecorder>,
}

impl Default for FunctionalConfig {
    fn default() -> Self {
        FunctionalConfig {
            runtime: RuntimeConfig::default(),
            memory_fraction: PAPER_MEMORY_FRACTION,
            ledger: None,
        }
    }
}

impl FunctionalConfig {
    /// The default runtime over `1/fraction` of the data as memory.
    #[must_use]
    pub fn with_fraction(memory_fraction: u64) -> Self {
        FunctionalConfig {
            runtime: RuntimeConfig::default(),
            memory_fraction,
            ledger: None,
        }
    }

    /// The planning environment of `tp` at `params` under this
    /// configuration's memory fraction and call-size limit.
    ///
    /// # Errors
    /// See [`PlanEnv::new`].
    pub(crate) fn plan_env<'a>(
        &self,
        tp: &'a TiledProgram,
        params: &'a [i64],
    ) -> io::Result<PlanEnv<'a>> {
        let max_call_elems = self.runtime.max_call_elems;
        PlanEnv::new(
            &tp.program,
            &tp.layouts,
            params,
            self.memory_fraction,
            max_call_elems,
        )
    }

    /// The same configuration with a provenance ledger attached.
    #[must_use]
    pub fn with_ledger(mut self, ledger: LedgerRecorder) -> Self {
        self.ledger = Some(ledger);
        self
    }
}

/// The I/O profile of one array over a functional run's compute phase
/// (seeding and the final dump are excluded).
#[derive(Debug, Clone)]
pub struct ArrayProfile {
    /// Array name.
    pub name: String,
    /// Analytic tile accounting: calls as counted by the runtime's run
    /// model (runs split by `max_call_elems`).
    pub stats: IoStats,
    /// Measured store-level I/O, when the backing store is
    /// instrumented (a [`TracingStore`](ooc_runtime::TracingStore)
    /// anywhere in the stack).
    pub measured: Option<MeasuredIo>,
    /// The full access-pattern call trace, when the backing store is a
    /// [`ProfilingStore`](ooc_runtime::ProfilingStore). Like the other
    /// fields, covers the compute phase only.
    pub accesses: Option<Vec<AccessRecord>>,
}

/// Result of [`run_functional_on`]: computed contents plus per-array
/// I/O profiles.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Each array's contents in canonical row-major order.
    pub data: Vec<Vec<f64>>,
    /// Per-array I/O profiles, in array-declaration order.
    pub profiles: Vec<ArrayProfile>,
}

impl FunctionalRun {
    /// Analytic stats summed across arrays.
    #[must_use]
    pub fn total_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for p in &self.profiles {
            total.merge(&p.stats);
        }
        total
    }

    /// Measured I/O merged across arrays; `None` when no store was
    /// instrumented.
    #[must_use]
    pub fn total_measured(&self) -> Option<MeasuredIo> {
        let mut total = MeasuredIo::default();
        let mut any = false;
        for p in &self.profiles {
            if let Some(m) = &p.measured {
                total.merge(m);
                any = true;
            }
        }
        any.then_some(total)
    }
}

/// Functionally executes a tiled program against real out-of-core
/// arrays (in-memory stores), returning each array's contents in
/// canonical row-major order. `init` seeds every array element.
///
/// # Panics
/// Panics on internal inconsistencies (regions outside arrays etc.) —
/// these indicate compiler bugs and must surface in tests.
#[must_use]
pub fn run_functional(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
) -> Vec<Vec<f64>> {
    run_functional_on(
        tp,
        params,
        init,
        &FunctionalConfig::default(),
        |_, _, len| Ok(MemStore::new(len)),
    )
    .expect("in-memory functional execution")
    .data
}

/// Functionally executes a tiled program over caller-supplied stores:
/// `make_store(array_index, name, len)` builds the backing store of
/// each array — in-memory, file-backed, traced, fault-injecting, or
/// any composition. Array contents are returned in canonical
/// row-major order together with per-array I/O profiles covering the
/// compute phase (metrics are reset after seeding, captured before the
/// final dump).
///
/// # Errors
/// Propagates store construction and seeding errors, and tile-staging
/// I/O errors the configured retry policy cannot recover.
///
/// # Panics
/// Panics on internal inconsistencies (regions outside arrays etc.) —
/// these indicate compiler bugs and must surface in tests.
pub fn run_functional_on<S: Store>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &FunctionalConfig,
    make_store: impl FnMut(usize, &str, u64) -> io::Result<S>,
) -> io::Result<FunctionalRun> {
    let _span = ooc_trace::span_with(
        "runtime",
        "run-functional",
        vec![
            ("nests", (tp.nests.len() as u64).into()),
            ("arrays", (tp.program.arrays.len() as u64).into()),
        ],
    );
    walk_sync(tp, params, init, cfg, "sync", make_store, None)
}

/// Plans a tiled nest for execution: the nest's [`NestPlan`] and its
/// body lowered to a [`TileKernel`] against the plan's slot table —
/// what both walks and the schedule extractor run. `None` when there
/// is nothing to run (see [`plan_nest`]).
///
/// # Errors
/// `InvalidInput` when the nest has statements but no loop level (the
/// walks have no tile box to run them in), cannot be planned, or its
/// body cannot be lowered (see [`TileKernel::lower`]).
pub(crate) fn plan_walk<'e>(
    env: &'e PlanEnv<'e>,
    tnest: &TiledNest,
) -> io::Result<Option<(NestPlan<'e>, TileKernel)>> {
    let nest = &tnest.nest;
    if nest.depth == 0 && !nest.body.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("nest `{}` has statements but no loop level", nest.name),
        ));
    }
    let plan = plan_nest(env, nest, tnest.strategy, &tnest.tiled_levels, None)?;
    let Some(plan) = plan else { return Ok(None) };
    let kernel = TileKernel::lower_on(nest, env.params, &plan.staging, plan.strips)?;
    Ok(Some((plan, kernel)))
}

/// Books a main-thread staging read of `region` in the ledger,
/// classified first-touch vs. re-read by the walk's tracker.
pub(crate) fn record_read<S: Store>(
    ledger: Option<&LedgerRecorder>,
    tracker: &mut TouchTracker,
    arr: &OocArray<S>,
    array: u32,
    region: &Region,
    (nest, step): (u32, u64),
) {
    if let Some(rec) = ledger {
        let (cause, evict) = tracker.classify_read(array, region);
        rec.record(LedgerEvent {
            array,
            cause,
            calls: arr.exact_tile_calls(region),
            elems: region.len() as u64,
            region: region.clone(),
            nest,
            step,
            evict,
        });
    }
}

/// Books a tile write-back in the ledger with the exact per-run call
/// arithmetic the write will incur. A journaled write-back
/// additionally takes a pre-image read, booked as
/// [`IoCause::ReplayRead`] (journal-protocol traffic, not a data
/// reuse), and its intent record carries the new data plus the
/// pre-image.
pub(crate) fn record_write_back<S: Store>(
    ledger: Option<&LedgerRecorder>,
    tracker: &mut TouchTracker,
    arr: &OocArray<S>,
    array: u32,
    region: &Region,
    journaled: bool,
    (nest, step): (u32, u64),
) {
    let Some(rec) = ledger else { return };
    let elems = region.len() as u64;
    let calls = arr.exact_tile_calls(region);
    let event = |cause| LedgerEvent {
        array,
        cause,
        calls,
        elems,
        region: region.clone(),
        nest,
        step,
        evict: None,
    };
    if journaled {
        rec.record(event(IoCause::ReplayRead));
        rec.add_journal_bytes(2 * elems * ELEM_BYTES);
    }
    rec.record(event(tracker.classify_write(array, region)));
}

/// Writes `tile` back on the calling thread — through the journal
/// protocol (pre-image read → intent → data write → commit) when
/// `journal` is set. Every write path uses it: the synchronous walk,
/// the step engine's main thread and the write-behind writer.
pub(crate) fn write_tile_through<S: Store>(
    arr: &mut OocArray<S>,
    journal: Option<&Journal>,
    array: u32,
    tile: &Tile,
) -> io::Result<()> {
    let Some(journal) = journal else {
        return arr.write_tile(tile);
    };
    let pre = arr.read_tile(tile.region())?;
    let seq = journal.intent(array, tile.region(), tile.data(), pre.data())?;
    arr.write_tile(tile)?;
    journal.commit(seq)
}

/// One staging slot of the synchronous walk, for a whole nest: the
/// region the current tile box stages, and the slot's tile, whose
/// region and data buffers every re-stage refills in place.
struct WalkSlot {
    want: Region,
    tile: Tile,
    /// Whether `tile` holds a staged copy (of `want` or of an earlier
    /// box's region).
    resident: bool,
}

impl WalkSlot {
    fn new() -> Self {
        WalkSlot {
            want: Region::new(Vec::new(), Vec::new()),
            tile: Tile::zeroed(Region::new(Vec::new(), Vec::new())),
            resident: false,
        }
    }
}

/// The synchronous reference walk: one tile per staging slot, staged
/// and written back on the calling thread. The step engine is compared
/// against it, and its one-tile-per-slot residency defines the
/// analytic call counts the counter baselines pin — which is why it
/// stays a separate implementation from the step engine
/// ([`NestRun::step`](crate::pipeline)).
///
/// With a durable `session` the same walk journals every write-back,
/// checkpoints at tile-row, iteration and nest boundaries (after
/// durably flushing all resident written tiles — a checkpoint carries
/// no in-memory state), and starts from the session's boundary. Row
/// accounting runs identically for skipped and executed steps, so a
/// resumed run checkpoints at exactly the same `(nest, step)` points
/// as an uninterrupted one.
pub(crate) fn walk_sync<S: Store>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &FunctionalConfig,
    executor: &str,
    mut make_store: impl FnMut(usize, &str, u64) -> io::Result<S>,
    mut session: Option<&mut DurableSession>,
) -> io::Result<FunctionalRun> {
    let ledger = cfg.ledger.as_ref();
    if let Some(rec) = ledger {
        rec.set_executor(executor);
    }
    let resumed = session.as_ref().is_some_and(|s| s.resumed());
    let env = cfg.plan_env(tp, params)?;
    let mut arrays: Vec<OocArray<S>> = Vec::with_capacity(tp.program.arrays.len());
    for (a, decl) in tp.program.arrays.iter().enumerate() {
        let store = make_store(a, &decl.name, env.array_elems(a))?;
        let layout = tp.layouts[a].clone();
        let mut arr = OocArray::new(&decl.name, env.dims(a), layout, store, cfg.runtime);
        // A resumed run's seeding is already durable in the medium.
        if !resumed {
            arr.initialize(|idx| init(ArrayId(a), idx))?;
        }
        // Profile the compute phase only.
        arr.reset_all_metrics();
        if let Some(rec) = ledger {
            rec.set_array(a as u32, arr.name());
        }
        arrays.push(arr);
    }
    if let Some(s) = session.as_deref_mut() {
        s.start(&mut arrays, ledger)?;
    }
    let journal = session.as_ref().map(|s| s.journal.clone());
    let interval = session.as_ref().map_or(0, |s| s.cfg.checkpoint_rows);

    // Provenance: the sync walk is one locality — a single tracker
    // classifies first touches vs. re-reads across all nests, and a
    // global step counter stamps each event's schedule position.
    let mut tracker = TouchTracker::new();
    let mut step: u64 = 0;
    // Every nest's tile body binds into this one scratch.
    let mut bodies = KernelScratch::default();

    for (ni, tnest) in tp.nests.iter().enumerate() {
        // Resume: nests the boundary already covers are durable.
        if session.as_ref().is_some_and(|s| s.skip_nest(ni)) {
            continue;
        }
        let nest = &tnest.nest;
        let Some((plan, kernel)) = plan_walk(&env, tnest)? else {
            if let Some(s) = session.as_deref_mut() {
                s.checkpoint(ni + 1, 0)?;
            }
            continue;
        };
        let staging = &plan.staging;
        let mut boxes = plan.box_walk(0, plan.ranges[0]);
        let mut slots: Vec<WalkSlot> = (0..staging.slots()).map(|_| WalkSlot::new()).collect();
        let start_g = session.as_ref().map_or(0, |s| s.start_step(ni));
        let nest_base = step;
        let mut rows_done: u64 = 0;

        // Writes one tile back (journaled under a session) and books
        // it; `note_evicted` marks the end of any staged copy's
        // residency, read or written, so a later re-read classifies as
        // a capacity miss. Only ledger events read the tracker.
        let displace = |arrays: &mut [OocArray<S>],
                        tracker: &mut TouchTracker,
                        slot: usize,
                        tile: &Tile,
                        step: u64|
         -> io::Result<()> {
            let a = staging.key(slot).0;
            let array = a.0 as u32;
            if staging.written(slot) {
                let arr = &mut arrays[a.0];
                let _s = ooc_trace::enabled()
                    .then(|| ooc_trace::span("runtime", &format!("write-tile:{}", arr.name())));
                let at = (ni as u32, step);
                let journaled = journal.is_some();
                record_write_back(ledger, tracker, arr, array, tile.region(), journaled, at);
                write_tile_through(arr, journal.as_ref(), array, tile)?;
            }
            if ledger.is_some() {
                tracker.note_evicted(array, tile.region(), step, None);
            }
            Ok(())
        };

        // Per-nest span; the per-tile spans below allocate names, so
        // they are built only when a trace session is live (the
        // disabled path stays a single atomic load per tile step).
        let _nest_span = ooc_trace::span("runtime", &format!("nest:{}", nest.name));
        for _ in 0..nest.iterations {
            // One tile per staging slot (hoisting, mirroring the
            // simulation): a tile stays resident while consecutive tile
            // steps touch the same region; written tiles flush when
            // displaced, at checkpoints and at iteration end.
            boxes.rewind();
            let mut last_row_lo: Option<i64> = None;
            while let Some((lo, hi)) = boxes.next() {
                let g = step - nest_base;
                // Row accounting first — identical for skipped and
                // executed steps.
                if last_row_lo != Some(lo[0]) {
                    if last_row_lo.is_some() {
                        rows_done += 1;
                        if g > start_g && interval > 0 && rows_done % interval == 0 {
                            for (slot, s) in slots.iter_mut().enumerate() {
                                if std::mem::take(&mut s.resident) {
                                    displace(&mut arrays, &mut tracker, slot, &s.tile, step)?;
                                }
                            }
                            if let Some(s) = session.as_deref_mut() {
                                s.checkpoint(ni, g)?;
                            }
                        }
                    }
                    last_row_lo = Some(lo[0]);
                }
                if g < start_g {
                    if let Some(s) = session.as_deref_mut() {
                        s.report.skipped_steps += 1;
                    }
                    step += 1;
                    continue;
                }
                let traced = ooc_trace::enabled();
                let _tile_span = traced.then(|| {
                    ooc_trace::span_with(
                        "runtime",
                        &format!("tile:{}", nest.name),
                        vec![
                            ("lo", format!("{lo:?}").into()),
                            ("hi", format!("{hi:?}").into()),
                        ],
                    )
                });
                for (slot, s) in slots.iter_mut().enumerate() {
                    plan.staged_into(slot, lo, hi, &mut s.want);
                    if s.resident && s.tile.region() == &s.want {
                        continue;
                    }
                    if std::mem::take(&mut s.resident) {
                        displace(&mut arrays, &mut tracker, slot, &s.tile, step)?;
                    }
                    let a = staging.key(slot).0;
                    let _s = traced.then(|| {
                        ooc_trace::span_with(
                            "runtime",
                            &format!("read-tile:{}", arrays[a.0].name()),
                            vec![("region", format!("{:?}", s.want).into())],
                        )
                    });
                    arrays[a.0].read_into(&s.want, &mut s.tile)?;
                    s.resident = true;
                    let at = (ni as u32, step);
                    record_read(ledger, &mut tracker, &arrays[a.0], a.0 as u32, &s.want, at);
                }
                // Element loops: every polyhedron point inside the box.
                let _compute_span = traced.then(|| ooc_trace::span("runtime", "compute"));
                let tiles = slots.iter_mut().map(|s| s.resident.then_some(&mut s.tile));
                kernel.run_in(&mut bodies, tiles, lo, hi)?;
                if let Some(s) = session.as_deref_mut() {
                    s.report.executed_steps += 1;
                }
                step += 1;
            }
            // Iteration barrier: every staged tile is written back or
            // dropped, then (if anything ran) checkpointed.
            for (slot, s) in slots.iter_mut().enumerate() {
                if std::mem::take(&mut s.resident) {
                    displace(&mut arrays, &mut tracker, slot, &s.tile, step)?;
                }
            }
            if let Some(s) = session.as_deref_mut() {
                if step - nest_base > start_g {
                    s.checkpoint(ni, step - nest_base)?;
                }
            }
        }
        if let Some(s) = session.as_deref_mut() {
            s.checkpoint(ni + 1, 0)?;
        }
    }

    // Capture profiles before the final dump so the dump's sequential
    // sweep does not pollute the compute-phase measurement.
    let profiles: Vec<ArrayProfile> = arrays
        .iter()
        .map(|arr| ArrayProfile {
            name: arr.name().to_string(),
            stats: arr.stats(),
            measured: arr.measured(),
            accesses: arr.access_log(),
        })
        .collect();
    // Dump canonical contents.
    let mut data = Vec::with_capacity(arrays.len());
    for arr in &mut arrays {
        let region = Region::full(arr.dims());
        data.push(arr.read_canonical(&region)?.into_data());
    }
    let run = FunctionalRun { data, profiles };
    // Correlate the analytic run accounting with store-level
    // measurement in the trace's counter track.
    if ooc_trace::enabled() {
        let stats = run.total_stats();
        ooc_trace::counter(
            "analytic-io-calls",
            (stats.read_calls + stats.write_calls) as f64,
        );
        ooc_trace::counter("io-retries", stats.retries as f64);
        if let Some(measured) = run.total_measured() {
            ooc_trace::counter(
                "measured-io-calls",
                (measured.read_calls + measured.write_calls) as f64,
            );
            ooc_trace::counter("io-faults", measured.failed_calls as f64);
        }
    }
    Ok(run)
}

/// Convenience: compares a tiled program against the reference
/// interpreter on the *original* (untransformed) program; returns the
/// maximum absolute difference across all arrays.
#[must_use]
pub fn max_divergence_from_reference(
    tp: &TiledProgram,
    original: &ooc_ir::Program,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
) -> f64 {
    // Reference execution.
    let mut mem = ooc_ir::Memory::for_program(original, params);
    for (a, decl) in original.arrays.iter().enumerate() {
        let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(params)).collect();
        // Seed by linear index -> index tuple (canonical row-major).
        let mut idx = vec![1i64; dims.len()];
        let data = mem.array_data_mut(ooc_ir::ArrayId(a));
        for slot in data.iter_mut() {
            *slot = init(ArrayId(a), &idx);
            // Odometer over dims, last fastest.
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] <= dims[d] {
                    break;
                }
                idx[d] = 1;
            }
        }
    }
    ooc_ir::execute_program(original, &mut mem);

    let ours = run_functional(tp, params, init);
    let mut max = 0.0f64;
    for (a, data) in ours.iter().enumerate() {
        let reference = mem.array_data(ooc_ir::ArrayId(a));
        assert_eq!(data.len(), reference.len(), "array {a} size mismatch");
        for (x, y) in data.iter().zip(reference) {
            max = max.max((x - y).abs());
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example, seed};
    use crate::optimizer::{optimize, OptimizeOptions};
    use crate::tiling::{TiledProgram, TilingStrategy};

    #[test]
    fn functional_equivalence_c_opt() {
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let d = max_divergence_from_reference(&tp, &p, &[12], &seed);
        assert_eq!(d, 0.0, "transformed+tiled must equal reference");
    }

    #[test]
    fn functional_equivalence_traditional_tiling() {
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::Traditional);
        let d = max_divergence_from_reference(&tp, &p, &[9], &seed);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn ooc_tiling_issues_fewer_calls_than_traditional() {
        // The Figure 3 effect, end to end: same program, same memory, the
        // OOC strategy needs fewer I/O calls.
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        let cfg = ExecConfig::new(vec![64], 1);
        let ooc = simulate(
            &TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore),
            &cfg,
        );
        let trad = simulate(
            &TiledProgram::from_optimized(&opt, TilingStrategy::Traditional),
            &cfg,
        );
        assert!(
            ooc.io_calls < trad.io_calls,
            "ooc {} vs traditional {}",
            ooc.io_calls,
            trad.io_calls
        );
        assert_eq!(ooc.io_bytes, trad.io_bytes, "same data volume either way");
    }

    #[test]
    fn optimized_layouts_reduce_calls() {
        // col (all column-major, no transforms) vs c-opt on the worked
        // example: c-opt must cut calls substantially.
        let p = paper_example();
        let cfg = ExecConfig::new(vec![64], 1);
        let base = crate::optimizer::optimize_loop_only(
            &p,
            &OptimizeOptions::default(),
            Some(crate::cost::default_layouts(&p)),
        );
        // Suppress the loop optimization to get the raw col baseline.
        let mut col = base.clone();
        col.program = p.clone();
        let col_tp = TiledProgram::from_optimized(&col, TilingStrategy::Traditional);
        let copt = optimize(&p, &OptimizeOptions::default());
        let copt_tp = TiledProgram::from_optimized(&copt, TilingStrategy::OutOfCore);
        let r_col = simulate(&col_tp, &cfg);
        let r_copt = simulate(&copt_tp, &cfg);
        assert!(
            r_copt.io_calls * 2 < r_col.io_calls,
            "c-opt {} vs col {}",
            r_copt.io_calls,
            r_col.io_calls
        );
        assert!(r_copt.result.total_time < r_col.result.total_time);
    }

    #[test]
    fn more_processors_shorter_time() {
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let t1 = simulate(&tp, &ExecConfig::new(vec![128], 1))
            .result
            .total_time;
        let t4 = simulate(&tp, &ExecConfig::new(vec![128], 4))
            .result
            .total_time;
        assert!(t4 < t1, "t1={t1} t4={t4}");
    }

    #[test]
    fn interleaving_reduces_calls() {
        // Group U and V (both read in nest 1 tile steps)... U is written,
        // V read; both touched per tile: grouped fetch halves the calls
        // for the V-like strided accesses.
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let plain = simulate(&tp, &ExecConfig::new(vec![64], 1));
        let mut cfg = ExecConfig::new(vec![64], 1);
        // U row-major and W row-major share a layout; group them? They are
        // in different nests. Group V with U is layout-mismatched. Build a
        // program-specific check instead: group W and U (same layout).
        cfg.interleave = vec![vec![ArrayId(0), ArrayId(2)]];
        let grouped = simulate(&tp, &cfg);
        // Grouping arrays from different nests does not help (each nest
        // touches one member): single-member access through a group is
        // not emitted as grouped; calls must not *increase* wrongly.
        assert!(grouped.io_calls <= plain.io_calls * 2);
    }

    #[test]
    fn flops_accounted() {
        let p = paper_example();
        let opt = optimize(&p, &OptimizeOptions::default());
        let tp = TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore);
        let r = simulate(&tp, &ExecConfig::new(vec![32], 1));
        // Two nests of 32x32 iterations, 1 flop each.
        assert_eq!(r.flops, 2.0 * 32.0 * 32.0);
        assert!(r.result.compute_time > 0.0);
    }

    #[test]
    fn a_nest_without_loop_levels_is_an_error_on_every_walk() {
        // The IR oracle executes `A(1) = 7` once; the walks have no
        // tile box to run it in, so they must fail rather than skip it.
        let mut p = ooc_ir::Program::new(&["N"]);
        let a = p.declare_array("A", 1, 0);
        let stmt = Statement::assign(
            ooc_ir::ArrayRef::new(a, &[vec![]], vec![1]),
            Expr::Const(7.0),
        );
        p.add_nest(ooc_ir::LoopNest {
            name: "scalar".into(),
            depth: 0,
            bounds: ooc_linalg::Polyhedron::universe(0, 1),
            body: vec![stmt],
            iterations: 1,
        });
        let tp = TiledProgram {
            layouts: vec![ooc_runtime::FileLayout::row_major(1)],
            nests: vec![crate::tiling::TiledNest {
                nest: p.nests[0].clone(),
                tiled_levels: Vec::new(),
                strategy: TilingStrategy::OutOfCore,
            }],
            program: p,
        };
        let env = PlanEnv::new(&tp.program, &tp.layouts, &[4], 1, 1 << 20).expect("sized");
        let kind = |r: io::Result<()>| r.expect_err("a statement with no loop").kind();
        assert_eq!(
            kind(plan_walk(&env, &tp.nests[0]).map(|_| ())),
            io::ErrorKind::InvalidInput
        );
        let mem = |_: usize, _: &str, len: u64| Ok(MemStore::new(len));
        let sync = run_functional_on(&tp, &[4], &seed, &FunctionalConfig::default(), mem);
        assert_eq!(kind(sync.map(|_| ())), io::ErrorKind::InvalidInput);
        let piped = crate::pipeline::exec_pipelined(
            &tp,
            &[4],
            &seed,
            &crate::pipeline::PipelineConfig::default(),
            mem,
        );
        assert_eq!(kind(piped.map(|_| ())), io::ErrorKind::InvalidInput);
    }
}
