//! Crash-consistent out-of-core execution: checkpoint/restart over
//! the checksummed store stack and the write intent journal.
//!
//! A *durable* run assembles, per array, the stack
//! `ChecksummedStore<FaultStore<medium>, medium>` — data faults (torn
//! writes included) sit **under** the checksum layer, so a partial
//! write leaves a stale CRC that the next read reports as a typed
//! corrupt-read error. Every tile write-back follows the journal
//! protocol (intent → write → commit) on whichever thread writes the
//! tile back, and the walk appends a checkpoint record to the same log
//! at tile-row, iteration and nest boundaries after durably flushing
//! all resident written tiles (the log's grammar is in
//! [`ooc_runtime::journal`]).
//!
//! There is one durable entry point, [`run_durable`]: it opens a
//! `DurableSession` — [`Start::Fresh`], or [`Start::Resume`]d from the
//! log's last consistent boundary — builds the store stack, and hands
//! both to the walk the config's type picks ([`Walk`]): the
//! synchronous reference walk for a [`FunctionalConfig`], the step
//! engine at `cfg.shards` for a [`ParallelConfig`]. A resumed session
//! rolls back every journal intent at or past the boundary's watermark
//! (restoring pre-images in reverse sequence order — which also heals
//! torn checksums), and the walk restarts from that boundary. The
//! invariant the test suite asserts: a crashed-then-recovered run is
//! **bit-equal** to an uninterrupted run, and the re-executed work is
//! bounded by one checkpoint interval.
//!
//! A failure the medium can absorb ([`DurableMedium::recoverable`]: a
//! lost I/O node of a [`StripedMedium`]) is retried inside
//! [`run_durable`] under the same protocol, from [`Start::Resume`].

use crate::exec::{walk_sync, FunctionalConfig, FunctionalRun};
use crate::parallel::{exec_sharded, ParallelConfig, ParallelRun};
use crate::tiling::TiledProgram;
use ooc_ir::ArrayId;
use ooc_runtime::{
    is_corrupt, is_double_fault, node_down, parse_journal, rollback, Boundary, ChecksumHandle,
    ChecksummedStore, FaultConfig, FaultHandle, FaultStore, FileLog, FileStore, IoCause,
    IoNodePool, Journal, JournalScan, LedgerEvent, LedgerRecorder, LogStore, MemLog, MemStore,
    NodeFaultConfig, OocArray, Region, RepairIo, ScrubReport, SharedStore, Store, StripeConfig,
    StripedStore, WriteIntent,
};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Durability knobs of a crash-consistent run.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Checkpoint every this many completed tile rows (outermost tile
    /// transitions) within a nest; 0 keeps only the iteration and nest
    /// boundary checkpoints.
    pub checkpoint_rows: u64,
    /// Elements per CRC64 sidecar chunk.
    pub chunk_elems: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_rows: 2,
            chunk_elems: 128,
        }
    }
}

/// The store stack of a durable array: data and CRC sidecar behind a
/// checksum-verifying layer (optionally fault-injected underneath).
pub type DurableStore = ChecksummedStore<Box<dyn Store + Send>, Box<dyn Store + Send>>;

/// Where a durable run keeps its persistent state: per-array data and
/// sidecar stores plus the one journal log. Repeated calls for the
/// same array/log must return handles onto the **same** backing bytes,
/// so a "crashed" run's state survives into recovery.
pub trait DurableMedium {
    /// The data store of array `a` (`len` elements).
    ///
    /// # Errors
    /// Propagates store construction errors.
    fn data(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>>;

    /// The CRC sidecar store of array `a` (`len` slots).
    ///
    /// # Errors
    /// Propagates store construction errors.
    fn sidecar(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>>;

    /// The journal log: write intents, commits and checkpoints.
    ///
    /// # Errors
    /// Propagates log construction errors.
    fn journal(&mut self) -> io::Result<Box<dyn LogStore>>;

    /// Whether a run that failed with `err` can succeed if retried
    /// from the journal — the medium having absorbed the failure. By
    /// default nothing is recoverable and the error reaches the caller.
    fn recoverable(&mut self, _err: &io::Error) -> bool {
        false
    }
}

/// An in-memory [`DurableMedium`] for tests: stores and logs are
/// shared handles, so an in-process "crash" (an error return) leaves
/// everything inspectable and resumable.
#[derive(Debug, Default)]
pub struct MemMedium {
    data: BTreeMap<usize, SharedStore<MemStore>>,
    sidecars: BTreeMap<usize, SharedStore<MemStore>>,
    journal: MemLog,
}

impl MemMedium {
    /// An empty medium.
    #[must_use]
    pub fn new() -> Self {
        MemMedium::default()
    }

    /// The raw journal bytes (test plumbing).
    #[must_use]
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.journal.snapshot()
    }
}

impl DurableMedium for MemMedium {
    fn data(&mut self, a: usize, _name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        let s = self
            .data
            .entry(a)
            .or_insert_with(|| SharedStore::new(MemStore::new(len)))
            .clone();
        Ok(Box::new(s))
    }

    fn sidecar(&mut self, a: usize, _name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        let s = self
            .sidecars
            .entry(a)
            .or_insert_with(|| SharedStore::new(MemStore::new(len)))
            .clone();
        Ok(Box::new(s))
    }

    fn journal(&mut self) -> io::Result<Box<dyn LogStore>> {
        Ok(Box::new(self.journal.clone()))
    }
}

/// A directory-backed [`DurableMedium`]: `<name>.dat` / `<name>.crc`
/// files per array plus `journal.log`. Existing files are reopened, so
/// state persists across real process crashes; one whose length is not
/// the array's is an `InvalidData` error, not a reshaped array.
///
/// Durability scope: by default nothing is fsynced, so the crash
/// guarantees cover **process** crashes (the page cache survives),
/// not kernel panics or power loss. [`DirMedium::synced`] fsyncs every
/// journal append; full physical-media consistency would additionally
/// require syncing the data/sidecar files before each checkpoint record
/// (see DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct DirMedium {
    dir: PathBuf,
    sync_logs: bool,
}

impl DirMedium {
    /// A medium rooted at `dir` (which must exist), durable across
    /// process crashes only.
    #[must_use]
    pub fn new(dir: &Path) -> Self {
        DirMedium {
            dir: dir.to_path_buf(),
            sync_logs: false,
        }
    }

    /// Like [`DirMedium::new`], but journal appends are fsynced to
    /// physical media.
    #[must_use]
    pub fn synced(dir: &Path) -> Self {
        DirMedium {
            dir: dir.to_path_buf(),
            sync_logs: true,
        }
    }

    fn file(&self, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        let path = self.dir.join(name);
        if !path.exists() {
            return Ok(Box::new(FileStore::create(&path, len)?));
        }
        let store = FileStore::open(&path)?;
        if store.len() != len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{}: {} elements on disk, {len} expected",
                    path.display(),
                    store.len()
                ),
            ));
        }
        Ok(Box::new(store))
    }
}

impl DurableMedium for DirMedium {
    fn data(&mut self, _a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        self.file(&format!("{name}.dat"), len)
    }

    fn sidecar(&mut self, _a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        self.file(&format!("{name}.crc"), len)
    }

    fn journal(&mut self) -> io::Result<Box<dyn LogStore>> {
        let path = self.dir.join("journal.log");
        Ok(Box::new(if self.sync_logs {
            FileLog::synced(&path)
        } else {
            FileLog::new(&path)
        }))
    }
}

/// Everything a durable run counted about journaling, checkpointing
/// and (on resume) recovery.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Whether this run resumed from a crashed predecessor.
    pub resumed: bool,
    /// `(nest, step)` boundary the run restarted from.
    pub boundary: Option<(usize, u64)>,
    /// Journal intents rolled back (pre-images restored) before the
    /// restart.
    pub rolled_back_tiles: u64,
    /// Rolled-back intents per array index.
    pub rolled_back_by_array: BTreeMap<u32, u64>,
    /// Tile steps skipped because the boundary already covered them.
    pub skipped_steps: u64,
    /// Tile steps actually executed by this run.
    pub executed_steps: u64,
    /// Journal intents appended by this run.
    pub journal_intents: u64,
    /// Journal commits appended by this run.
    pub journal_commits: u64,
    /// Checkpoint records appended by this run.
    pub checkpoints: u64,
    /// Checksum-verification failures observed by this run's reads.
    pub corrupt_reads: u64,
    /// Whether recovery dropped a torn log tail.
    pub torn_tail: bool,
    /// Retries after a failure the medium recovered from. Whether the
    /// last one resumed or started over is [`resumed`](Self::resumed):
    /// each retry's session decides it by whether it found a boundary.
    pub retries: u64,
}

impl RecoveryReport {
    /// A compact multi-line text report for `inspect --recovery`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.resumed {
            let (nest, step) = self.boundary.unwrap_or((0, 0));
            out.push_str(&format!(
                "  resume: nest {nest} step {step}, {} tiles rolled back, {} steps skipped{}\n",
                self.rolled_back_tiles,
                self.skipped_steps,
                if self.torn_tail {
                    " (torn log tail dropped)"
                } else {
                    ""
                },
            ));
        } else {
            out.push_str("  fresh run: no recovery needed\n");
        }
        out.push_str(&format!(
            "  journal: {} intents, {} commits, {} checkpoints\n",
            self.journal_intents, self.journal_commits, self.checkpoints,
        ));
        out.push_str(&format!(
            "  integrity: {} corrupt reads detected, {} steps executed\n",
            self.corrupt_reads, self.executed_steps,
        ));
        out
    }
}

/// Result of a durable run: the executor's own result plus the
/// recovery report and the fault/checksum observability handles.
#[derive(Debug)]
pub struct DurableOutcome<R = FunctionalRun> {
    /// What the walk returns without durability — a [`FunctionalRun`]
    /// or a [`ParallelRun`] (bit-equal contents in both).
    pub run: R,
    /// Journal / checkpoint / recovery counters.
    pub report: RecoveryReport,
    /// Per-array fault handle when the array was fault-wrapped.
    pub fault_handles: Vec<Option<FaultHandle>>,
    /// Per-array checksum counters.
    pub checksum_handles: Vec<ChecksumHandle>,
}

/// Per-array upper bound on journal intents between consecutive
/// checkpoint watermarks of a completed run's log — the "one
/// checkpoint interval" budget recovery must stay within.
#[must_use]
pub fn max_intents_per_interval(scan: &JournalScan) -> BTreeMap<u32, u64> {
    let mut marks = scan.watermarks();
    marks.sort_unstable();
    marks.dedup();
    marks.push(u64::MAX);
    let mut out: BTreeMap<u32, u64> = BTreeMap::new();
    for win in marks.windows(2) {
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for w in scan.intents() {
            if w.seq >= win[0] && w.seq < win[1] {
                *counts.entry(w.array).or_default() += 1;
            }
        }
        for (a, n) in counts {
            let e = out.entry(a).or_default();
            *e = (*e).max(n);
        }
    }
    out
}

/// Whether a durable run starts over or picks up a crashed
/// predecessor's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// Truncate the journal, seed the arrays and run from the top.
    Fresh,
    /// Restart from the log's last consistent boundary. With no boundary
    /// (a crash before seeding completed) the run starts over, as
    /// [`Start::Fresh`].
    Resume,
}

// `pub` in a private module: `Walk::walk` names the session and no
// other crate can, so no other crate can implement `Walk`.
mod session {
    use super::{Boundary, DurabilityConfig, Journal, RecoveryReport, WriteIntent};

    /// Shared durable-run state: the journal writer, the resume
    /// boundary, and the counters both walks fill.
    pub struct DurableSession {
        /// The shared journal writer: every write path and the
        /// checkpoints.
        pub(crate) journal: Journal,
        /// Durability knobs.
        pub(crate) cfg: DurabilityConfig,
        pub(super) boundary: Option<Boundary>,
        pub(super) rollback_intents: Vec<WriteIntent>,
        /// Counters filled as the run progresses.
        pub(crate) report: RecoveryReport,
    }
}
pub(crate) use session::DurableSession;

impl DurableSession {
    /// Opens the medium's journal for a run. A fresh run — and a resume
    /// that finds no boundary, i.e. a crash that predated the seeded
    /// milestone — truncates the log and starts from scratch. A resume
    /// scans the log for the last consistent boundary and collects
    /// every intent at or past its watermark for rollback.
    fn open(
        medium: &mut dyn DurableMedium,
        cfg: DurabilityConfig,
        start: Start,
    ) -> io::Result<Self> {
        let mut log = medium.journal()?;
        let scan = match start {
            Start::Resume => parse_journal(&log.read_all()?),
            Start::Fresh => JournalScan::default(),
        };
        let boundary = scan.boundary();
        let (next_seq, rollback_intents) = match boundary {
            Some(b) => {
                // Drop a torn tail *before* appending: a partial,
                // newline-less final record would otherwise merge with
                // this run's first append into one unparseable line,
                // and a second crash recovery would lose every record
                // from there on.
                if scan.torn_tail {
                    log.truncate_to(scan.valid_len)?;
                }
                let intents = scan.intents_after(b.watermark);
                (scan.next_seq, intents.into_iter().cloned().collect())
            }
            None => {
                log.truncate()?;
                (0, Vec::new())
            }
        };
        Ok(DurableSession {
            journal: Journal::new(log, next_seq),
            cfg,
            boundary,
            rollback_intents,
            report: RecoveryReport {
                resumed: boundary.is_some(),
                boundary: boundary.map(|b| (b.nest, b.step)),
                torn_tail: boundary.is_some() && scan.torn_tail,
                ..RecoveryReport::default()
            },
        })
    }

    /// The session of a retry after this one's run failed recoverably:
    /// a [`Start::Resume`] that counts itself on top of the retries
    /// before it.
    fn retry(self, medium: &mut dyn DurableMedium) -> io::Result<Self> {
        let mut next = Self::open(medium, self.cfg, Start::Resume)?;
        next.report.retries = self.report.retries + 1;
        Ok(next)
    }

    /// Whether this run restarts from a crashed predecessor's
    /// boundary — its seeding is already durable and must be skipped.
    pub(crate) fn resumed(&self) -> bool {
        self.boundary.is_some()
    }

    /// Brings freshly built (and, unless [`resumed`](Self::resumed),
    /// freshly seeded) `arrays` to the session's start boundary: a
    /// resumed run restores the pre-image of every post-watermark
    /// intent in reverse sequence order — which also heals torn
    /// checksums — booking each as [`IoCause::ReplayWrite`]; a fresh
    /// run appends the `S` (seeded) milestone.
    pub(crate) fn start<S: Store>(
        &mut self,
        arrays: &mut [OocArray<S>],
        ledger: Option<&LedgerRecorder>,
    ) -> io::Result<()> {
        if !self.resumed() {
            return self.journal.seeded();
        }
        if self.rollback_intents.is_empty() {
            return Ok(());
        }
        let _replay = ooc_trace::enabled().then(|| ooc_trace::span("durable", "recovery-replay"));
        let _span = ooc_trace::span("recovery", "rollback");
        let intents = std::mem::take(&mut self.rollback_intents);
        let refs: Vec<&WriteIntent> = intents.iter().collect();
        let n = rollback(&refs, &mut |a, region, pre| {
            let arr = undo_target(arrays, a, region, pre.len())?;
            // A pre-image is tile data, in the order the array stages
            // its tiles in.
            let mut t = arr.zeroed_tile(region.clone());
            t.data_mut().copy_from_slice(pre);
            if let Some(rec) = ledger {
                rec.record(LedgerEvent {
                    array: a,
                    cause: IoCause::ReplayWrite,
                    calls: arr.exact_tile_calls(region),
                    elems: region.len() as u64,
                    region: region.clone(),
                    nest: 0,
                    step: 0,
                    evict: None,
                });
            }
            arr.write_tile(&t)
        })?;
        for w in &intents {
            *self.report.rolled_back_by_array.entry(w.array).or_default() += 1;
        }
        self.report.rolled_back_tiles = n;
        if ooc_trace::enabled() {
            let (nest, step) = self.report.boundary.unwrap_or((0, 0));
            ooc_trace::explain(
                ooc_trace::Explain::new(
                    "recovery",
                    "resume",
                    format!("roll back {n} tiles, restart nest {nest} step {step}"),
                )
                .detail("rolled_back_tiles", n.to_string())
                .detail("torn_tail", self.report.torn_tail.to_string()),
            );
        }
        Ok(())
    }

    /// `true` when the boundary already covers all of nest `ni`.
    pub(crate) fn skip_nest(&self, ni: usize) -> bool {
        self.boundary.is_some_and(|b| ni < b.nest)
    }

    /// Steps of nest `ni` already durable (skip without executing).
    pub(crate) fn start_step(&self, ni: usize) -> u64 {
        match self.boundary {
            Some(b) if b.nest == ni => b.step,
            _ => 0,
        }
    }

    /// Appends a `K nest step watermark` checkpoint record. Callers
    /// must have durably flushed all written tiles first.
    pub(crate) fn checkpoint(&mut self, nest: usize, step: u64) -> io::Result<()> {
        let wm = self.journal.checkpoint(nest, step)?;
        self.report.checkpoints += 1;
        if ooc_trace::enabled() {
            ooc_trace::instant(
                "recovery",
                "checkpoint",
                vec![
                    ("nest", (nest as u64).into()),
                    ("step", step.into()),
                    ("watermark", wm.into()),
                ],
            );
        }
        Ok(())
    }
}

/// The array an intent read back from the log restores into — checked
/// against the run's arrays before anything is allocated: the array
/// index, the region's rank and bounds, and the pre-image length.
fn undo_target<'a, S: Store>(
    arrays: &'a mut [OocArray<S>],
    a: u32,
    region: &Region,
    pre: usize,
) -> io::Result<&'a mut OocArray<S>> {
    let bad = |what: String| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal intent on array {a}: {what}"),
        )
    };
    let count = arrays.len();
    let arr = arrays
        .get_mut(a as usize)
        .ok_or_else(|| bad(format!("the run has {count} arrays")))?;
    let dims = arr.dims();
    let (lo, hi) = (&region.lo, &region.hi);
    let inside = region.rank() == dims.len()
        && (0..dims.len()).all(|d| 1 <= lo[d] && lo[d] <= hi[d] && hi[d] <= dims[d]);
    if !inside {
        return Err(bad(format!("region {region:?} outside dims {dims:?}")));
    }
    if usize::try_from(region.len()).ok() != Some(pre) {
        return Err(bad(format!("{pre}-element pre-image for {region:?}")));
    }
    Ok(arr)
}

/// The walk a durable run drives, picked by the type of its config: a
/// [`FunctionalConfig`] runs the synchronous reference walk and returns
/// a [`FunctionalRun`]; a [`ParallelConfig`] runs the step engine at
/// `cfg.shards` and returns a [`ParallelRun`]. Sealed: `walk` takes a
/// session type no other crate can name.
pub trait Walk {
    /// What the walk returns without durability.
    type Run;

    /// The walk's ledger executor label under a durable session;
    /// `-resume` is appended when the session resumed.
    #[doc(hidden)]
    const DURABLE: &'static str;

    /// The run's provenance recorder, when attached.
    #[doc(hidden)]
    fn ledger(&self) -> Option<&LedgerRecorder>;

    /// Runs the walk over the stores `make_store` builds, under
    /// `session` and the ledger label `executor`.
    #[doc(hidden)]
    fn walk(
        &self,
        tp: &TiledProgram,
        params: &[i64],
        init: &dyn Fn(ArrayId, &[i64]) -> f64,
        make_store: &mut dyn FnMut(usize, &str, u64) -> io::Result<DurableStore>,
        session: &mut DurableSession,
        executor: &str,
    ) -> io::Result<Self::Run>;
}

impl Walk for FunctionalConfig {
    type Run = FunctionalRun;
    const DURABLE: &'static str = "durable";

    fn ledger(&self) -> Option<&LedgerRecorder> {
        self.ledger.as_ref()
    }

    fn walk(
        &self,
        tp: &TiledProgram,
        params: &[i64],
        init: &dyn Fn(ArrayId, &[i64]) -> f64,
        make_store: &mut dyn FnMut(usize, &str, u64) -> io::Result<DurableStore>,
        session: &mut DurableSession,
        executor: &str,
    ) -> io::Result<FunctionalRun> {
        walk_sync(tp, params, init, self, executor, make_store, Some(session))
    }
}

impl Walk for ParallelConfig {
    type Run = ParallelRun;
    const DURABLE: &'static str = "durable-parallel";

    fn ledger(&self) -> Option<&LedgerRecorder> {
        self.pipeline.functional.ledger.as_ref()
    }

    fn walk(
        &self,
        tp: &TiledProgram,
        params: &[i64],
        init: &dyn Fn(ArrayId, &[i64]) -> f64,
        make_store: &mut dyn FnMut(usize, &str, u64) -> io::Result<DurableStore>,
        session: &mut DurableSession,
        executor: &str,
    ) -> io::Result<ParallelRun> {
        exec_sharded(tp, params, init, self, make_store, Some(session), executor)
    }
}

/// Runs a tiled program durably: opens the journal from `start`, builds
/// each array's store stack — the medium's data store, fault-wrapped by
/// `faults(a)` **under** the checksum layer (so torn writes are
/// detectable), behind the CRC sidecar verifier — and drives the walk
/// `cfg`'s type picks ([`Walk`]) with journaled write-back and periodic
/// checkpoints.
///
/// [`Start::Fresh`] truncates the journal, seeds the arrays and runs
/// from the top. [`Start::Resume`] scans the journal for the last
/// consistent boundary, rolls back every intent at or past its
/// watermark (restoring pre-images, which also heals torn checksums),
/// and restarts the walk from the boundary; with no boundary (a crash
/// before seeding completed) it starts over. The recovered result is
/// bit-equal to an uninterrupted run, at any shard count.
///
/// A failure the medium calls [`recoverable`](DurableMedium::recoverable)
/// is retried as [`Start::Resume`]; each retry's own session decides
/// whether it resumes or starts over ([`RecoveryReport::retries`],
/// [`RecoveryReport::resumed`]).
///
/// # Errors
/// Propagates store/journal I/O errors the medium cannot recover from,
/// including injected crashes (check with [`ooc_runtime::is_crashed`])
/// from any shard; an intent the run's arrays cannot hold (array index,
/// region or pre-image length) is `InvalidData`.
///
/// # Panics
/// Panics on internal inconsistencies (compiler bugs), like
/// [`run_functional_on`](crate::exec::run_functional_on).
#[allow(clippy::too_many_arguments)]
pub fn run_durable<C: Walk>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &C,
    dur: &DurabilityConfig,
    medium: &mut dyn DurableMedium,
    faults: &dyn Fn(usize) -> Option<FaultConfig>,
    start: Start,
) -> io::Result<DurableOutcome<C::Run>> {
    let mut session = DurableSession::open(medium, *dur, start)?;
    loop {
        match walk_session(tp, params, init, cfg, dur, medium, faults, &mut session) {
            Err(e) if medium.recoverable(&e) => session = session.retry(medium)?,
            result => return result,
        }
    }
}

/// One attempt of [`run_durable`] under `session`: builds the store
/// stack and drives the walk.
#[allow(clippy::too_many_arguments)]
fn walk_session<C: Walk>(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &C,
    dur: &DurabilityConfig,
    medium: &mut dyn DurableMedium,
    faults: &dyn Fn(usize) -> Option<FaultConfig>,
    session: &mut DurableSession,
) -> io::Result<DurableOutcome<C::Run>> {
    let executor = if session.resumed() {
        format!("{}-resume", C::DURABLE)
    } else {
        C::DURABLE.to_string()
    };
    let _span = ooc_trace::span("recovery", &executor);
    let mut fault_handles: Vec<Option<FaultHandle>> = Vec::new();
    let mut checksum_handles: Vec<ChecksumHandle> = Vec::new();
    let mut make_store = |a: usize, name: &str, len: u64| {
        let raw = medium.data(a, name, len)?;
        let (data, fh): (Box<dyn Store + Send>, _) = match faults(a) {
            Some(fc) => {
                let fs = FaultStore::new(raw, fc);
                let handle = fs.handle();
                (Box::new(fs), Some(handle))
            }
            None => (raw, None),
        };
        fault_handles.push(fh);
        let side = medium.sidecar(a, name, DurableStore::sidecar_len(len, dur.chunk_elems))?;
        let store = ChecksummedStore::attach(data, side, dur.chunk_elems)?;
        checksum_handles.push(store.handle());
        Ok(store)
    };
    let run = cfg.walk(tp, params, init, &mut make_store, session, &executor)?;
    let mut report = std::mem::take(&mut session.report);
    (report.journal_intents, report.journal_commits) = session.journal.written();
    report.corrupt_reads = checksum_handles
        .iter()
        .map(ChecksumHandle::corrupt_reads)
        .sum();
    // Sidecar traffic goes to the ledger's `ChecksumOverhead` channel
    // once the run has finished, so the figure covers all integrity
    // traffic since the post-seed metrics reset — including
    // verification of the final result dump. Sidecar bytes live
    // outside the conservation law by construction: the data store's
    // own metrics never see them.
    if let Some(rec) = cfg.ledger() {
        for (a, ch) in checksum_handles.iter().enumerate() {
            let (calls, elems) = ch.sidecar_io();
            rec.add_sidecar(u32::try_from(a).expect("array index"), calls, elems);
        }
    }
    Ok(DurableOutcome {
        run,
        report,
        fault_handles,
        checksum_handles,
    })
}

/// [`run_durable`] of the synchronous walk from [`Start::Fresh`].
///
/// # Errors
/// As [`run_durable`].
///
/// # Panics
/// As [`run_durable`].
pub fn run_functional_durable(
    tp: &TiledProgram,
    params: &[i64],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
    cfg: &FunctionalConfig,
    dur: &DurabilityConfig,
    medium: &mut dyn DurableMedium,
    faults: &dyn Fn(usize) -> Option<FaultConfig>,
) -> io::Result<DurableOutcome> {
    run_durable(tp, params, init, cfg, dur, medium, faults, Start::Fresh)
}

/// A [`DurableMedium`] whose per-array **data** stores are striped
/// with a rotating parity lane over one shared [`IoNodePool`] — the
/// medium of a degraded-mode run. Every array's stripes and parity
/// chunks route through the same K lanes, so an injected node death
/// ([`NodeFaultConfig`]) or an explicit
/// [`quarantine`](IoNodePool::quarantine) hits all arrays at once,
/// exactly like losing a physical I/O node.
///
/// The first access that *discovers* a dead node surfaces a typed
/// [`NodeDownError`](ooc_runtime::NodeDownError) instead of silently
/// reconstructing; the medium's
/// [`recoverable`](DurableMedium::recoverable) answer turns it into
/// quarantine, and [`run_durable`] into a journal-bounded retry. Once a
/// node is quarantined, reads reconstruct from parity and writes land
/// in the parity lane.
///
/// CRC sidecars and the journal live **off** the striped pool, in an
/// embedded [`MemMedium`]: they are metadata an I/O-node failure must
/// not take down, mirroring a deployment that keeps logs on the
/// compute node's local disk.
pub struct StripedMedium {
    pool: IoNodePool,
    data: BTreeMap<usize, SharedStore<StripedStore<MemStore>>>,
    meta: MemMedium,
    ledger: Option<LedgerRecorder>,
    /// Nodes a [`recoverable`](DurableMedium::recoverable) answer has
    /// named, in answer order.
    named: Vec<usize>,
}

impl StripedMedium {
    /// A fault-free striped-parity medium over `cfg.nodes` lanes.
    ///
    /// # Panics
    /// Panics on zero nodes or a zero stripe unit.
    #[must_use]
    pub fn new(cfg: StripeConfig) -> Self {
        Self::with_faults(cfg, NodeFaultConfig::new())
    }

    /// A medium with an injected node-fault schedule (permanent
    /// deaths keyed to per-node arrival counters).
    ///
    /// # Panics
    /// Panics on zero nodes or a zero stripe unit.
    #[must_use]
    pub fn with_faults(cfg: StripeConfig, faults: NodeFaultConfig) -> Self {
        StripedMedium {
            pool: IoNodePool::with_faults(cfg, faults),
            data: BTreeMap::new(),
            meta: MemMedium::new(),
            ledger: None,
            named: Vec::new(),
        }
    }

    /// Attaches a provenance-ledger recorder: each array's
    /// repair-plane traffic (parity writes, reconstructions, scrubs)
    /// is booked to its repair channel.
    #[must_use]
    pub fn with_ledger(mut self, recorder: LedgerRecorder) -> Self {
        self.ledger = Some(recorder);
        self
    }

    /// The shared lane pool (quarantine / health / stats).
    #[must_use]
    pub fn pool(&self) -> &IoNodePool {
        &self.pool
    }

    /// Every node lost so far, in node order, with the arrival index at
    /// which it went down — whether a run discovered the loss or
    /// absorbed it without an error.
    #[must_use]
    pub fn nodes_lost(&self) -> Vec<(usize, u64)> {
        self.pool.lost()
    }

    /// Per-node traffic and health snapshot.
    #[must_use]
    pub fn node_stats(&self) -> Vec<ooc_runtime::NodeStats> {
        self.pool.snapshot()
    }

    /// Total repair-plane traffic across all nodes, by cause.
    #[must_use]
    pub fn total_repair(&self) -> RepairIo {
        self.pool.total_repair()
    }

    /// Scrubs every array built so far: verifies each parity group
    /// against its data chunks, optionally repairing what a single
    /// fault can explain. Reports are summed across arrays.
    ///
    /// # Errors
    /// Propagates lane I/O errors.
    pub fn scrub(&self, repair: bool) -> io::Result<ScrubReport> {
        let mut total = ScrubReport::default();
        for store in self.data.values() {
            let rep = store.with_inner(|s| s.scrub(repair))?;
            total.absorb(&rep);
        }
        Ok(total)
    }

    /// The raw journal bytes (test plumbing).
    #[must_use]
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.meta.journal_bytes()
    }
}

impl std::fmt::Debug for StripedMedium {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedMedium")
            .field("nodes", &self.pool.nodes())
            .field("arrays", &self.data.len())
            .finish_non_exhaustive()
    }
}

impl DurableMedium for StripedMedium {
    fn data(&mut self, a: usize, _name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        if let Some(s) = self.data.get(&a) {
            return Ok(Box::new(s.clone()));
        }
        let mut store = StripedStore::build_with_parity(
            &self.pool,
            len,
            |_node, part| Ok(MemStore::new(part)),
            |_node, part| Ok(MemStore::new(part)),
        )?;
        if let Some(rec) = &self.ledger {
            store = store.with_ledger(rec.clone(), u32::try_from(a).expect("array index"));
        }
        let shared = SharedStore::new(store);
        self.data.insert(a, shared.clone());
        Ok(Box::new(shared))
    }

    fn sidecar(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
        self.meta.sidecar(a, name, len)
    }

    fn journal(&mut self) -> io::Result<Box<dyn LogStore>> {
        self.meta.journal()
    }

    /// A newly lost I/O node is recoverable: a typed dead-node error,
    /// or a corrupt read while the pool holds a node down that no
    /// earlier answer named. A node dying mid-write leaves its CRC chunk
    /// torn (some stripes rewritten, sidecar stale), and a surviving
    /// shard can trip over that chunk before the dying shard's typed
    /// error wins the race out of the executor; the retry's journal
    /// rollback restores the chunk. The node is quarantined (the lane
    /// has already marked it down), so the retry reconstructs its
    /// stripes. Each yes names one more node, so retries end within
    /// the node count; a second loss in a parity group ends the run
    /// with the store's double-fault error.
    fn recoverable(&mut self, err: &io::Error) -> bool {
        if is_double_fault(err) {
            // The group's redundancy is spent: no retry can rebuild it.
            if ooc_trace::enabled() {
                ooc_trace::explain(ooc_trace::Explain::new(
                    "recovery",
                    "double-fault",
                    format!("{err}: run ends"),
                ));
            }
            return false;
        }
        let unnamed = |n: &usize| !self.named.contains(n);
        let lost = match node_down(err) {
            Some(dead) => Some(dead.node).filter(unnamed),
            None if is_corrupt(err) => self.pool.lost().into_iter().map(|(n, _)| n).find(unnamed),
            None => None,
        };
        let Some(node) = lost else {
            return false;
        };
        self.pool.quarantine(node);
        self.named.push(node);
        if ooc_trace::enabled() {
            ooc_trace::explain(
                ooc_trace::Explain::new(
                    "recovery",
                    "node-loss",
                    format!("I/O node {node} lost: quarantine + retry"),
                )
                .detail("node", node.to_string()),
            );
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_functional;
    use crate::fixtures::{fcfg, seed, tiled};
    use ooc_runtime::{is_crashed, testing::TempDir, CrashMode, DoubleFaultError, JournalRecord};
    use std::collections::BTreeSet;

    fn reference(tp: &TiledProgram, params: &[i64]) -> Vec<Vec<f64>> {
        run_functional(tp, params, &seed)
    }

    fn resume(
        tp: &TiledProgram,
        params: &[i64],
        dur: &DurabilityConfig,
        medium: &mut dyn DurableMedium,
    ) -> io::Result<DurableOutcome> {
        run_durable(
            tp,
            params,
            &seed,
            &fcfg(),
            dur,
            medium,
            &|_| None,
            Start::Resume,
        )
    }

    fn pcfg(shards: usize) -> ParallelConfig {
        ParallelConfig {
            pipeline: crate::pipeline::PipelineConfig {
                functional: fcfg(),
                ..Default::default()
            },
            shards,
        }
    }

    /// The durable matrix's walk axis: the sync walk, and the step
    /// engine at one and at two shards.
    #[derive(Debug, Clone, Copy)]
    enum Exec {
        Sync,
        Steps(usize),
    }

    /// What the matrix observes of one durable run, whatever the
    /// walk's own result type.
    struct Cell {
        data: Vec<Vec<f64>>,
        report: RecoveryReport,
        /// Store calls each array's fault wrapper saw (the crash-index
        /// domain); empty when the run was not fault-wrapped.
        calls: Vec<u64>,
    }

    const PARAMS: [i64; 1] = [10];

    impl Exec {
        const ALL: [Exec; 3] = [Exec::Sync, Exec::Steps(1), Exec::Steps(2)];

        fn run(
            self,
            start: Start,
            medium: &mut MemMedium,
            faults: &dyn Fn(usize) -> Option<FaultConfig>,
        ) -> io::Result<Cell> {
            fn cell<R>(out: DurableOutcome<R>, data: impl FnOnce(R) -> Vec<Vec<f64>>) -> Cell {
                Cell {
                    data: data(out.run),
                    report: out.report,
                    calls: out
                        .fault_handles
                        .iter()
                        .flatten()
                        .map(FaultHandle::calls)
                        .collect(),
                }
            }
            let (tp, dur) = (tiled(), DurabilityConfig::default());
            match self {
                Exec::Sync => {
                    run_durable(&tp, &PARAMS, &seed, &fcfg(), &dur, medium, faults, start)
                        .map(|o| cell(o, |r| r.data))
                }
                Exec::Steps(n) => {
                    run_durable(&tp, &PARAMS, &seed, &pcfg(n), &dur, medium, faults, start)
                        .map(|o| cell(o, |r| r.run.data))
                }
            }
        }
    }

    /// What every completed row must show: contents bit-equal to
    /// `run_functional`, every intent this run wrote committed, and the
    /// log ending on the program-done record.
    fn assert_complete(exec: Exec, row: &str, cell: &Cell, medium: &MemMedium) {
        let tp = tiled();
        assert_eq!(cell.data, reference(&tp, &PARAMS), "{exec:?} {row}");
        let r = &cell.report;
        assert_eq!(r.journal_intents, r.journal_commits, "{exec:?} {row}");
        let b = parse_journal(&medium.journal_bytes())
            .boundary()
            .expect("boundary");
        assert_eq!((b.nest, b.step), (tp.nests.len(), 0), "{exec:?} {row}");
    }

    /// Appends a partial, newline-less record to the log — what a real
    /// process crash mid-append leaves behind.
    fn tear_log_tail(medium: &mut dyn DurableMedium) {
        let mut journal = medium.journal().expect("journal log");
        journal.append(b"I 9999 0 dea").expect("torn journal tail");
    }

    /// One table over {sync, steps×1, steps×2} × {fresh, resume
    /// on an empty medium, crash at k then resume, resume of a
    /// completed run, torn log tails then a second crash}. Thread
    /// interleaving makes the exact crash site of the step-engine rows
    /// nondeterministic; recovery must work regardless.
    #[test]
    fn durable_matrix() {
        let no_faults = |_: usize| None;
        for exec in Exec::ALL {
            // Fresh — under a rate-0 fault wrap, to count the store
            // calls each array sees and to bound one checkpoint
            // interval in journal intents.
            let mut base = MemMedium::new();
            let fresh = exec
                .run(Start::Fresh, &mut base, &|_| {
                    Some(FaultConfig::transient(7, 0))
                })
                .expect("fresh");
            assert_complete(exec, "fresh", &fresh, &base);
            assert!(!fresh.report.resumed, "{exec:?}");
            assert!(fresh.report.checkpoints > 0, "{exec:?} {:?}", fresh.report);
            assert!(fresh.report.journal_intents > 0, "{exec:?}");
            let scan = parse_journal(&base.journal_bytes());
            assert!(scan.uncommitted().is_empty(), "{exec:?}");
            let bound = max_intents_per_interval(&scan);
            let assert_bounded = |row: &str, report: &RecoveryReport| {
                for (a, n) in &report.rolled_back_by_array {
                    let max = bound.get(a).copied().unwrap_or(0);
                    assert!(
                        *n <= max,
                        "{exec:?} {row}: array {a} rolled back {n} > interval bound {max}"
                    );
                }
            };

            // Resume on an empty medium ≡ fresh.
            let mut medium = MemMedium::new();
            let out = exec
                .run(Start::Resume, &mut medium, &no_faults)
                .expect("empty");
            assert_complete(exec, "resume-empty", &out, &medium);
            assert!(!out.report.resumed, "{exec:?}: fresh rerun, not a resume");
            assert_eq!(
                out.report.journal_intents, fresh.report.journal_intents,
                "{exec:?}"
            );

            // Crash at k, then resume.
            for frac in [4u64, 2, 3] {
                for (target, &tcalls) in fresh.calls.iter().enumerate() {
                    let at = tcalls * (frac - 1) / frac;
                    let row = format!("crash array {target} at {at}");
                    let mut medium = MemMedium::new();
                    let err = exec
                        .run(Start::Fresh, &mut medium, &|a| {
                            (a == target).then(|| FaultConfig::crash_at(at))
                        })
                        .err()
                        .unwrap_or_else(|| panic!("{exec:?} {row}: crash must abort the run"));
                    assert!(is_crashed(&err), "{exec:?} {row}: unexpected error: {err}");
                    let out = exec
                        .run(Start::Resume, &mut medium, &no_faults)
                        .expect("resume");
                    assert_complete(exec, &row, &out, &medium);
                    assert!(out.report.resumed, "{exec:?} {row}");
                    assert_bounded(&row, &out.report);
                }
            }

            // Resume of a completed run skips everything.
            let out = exec
                .run(Start::Resume, &mut base, &no_faults)
                .expect("completed");
            assert_complete(exec, "resume-completed", &out, &base);
            assert!(out.report.resumed, "{exec:?}");
            assert_eq!(out.report.executed_steps, 0, "{exec:?} {:?}", out.report);
            assert_eq!(out.report.journal_intents, 0, "{exec:?}");

            // The double-crash scenario: crash #1 leaves a torn log
            // tail; the resumed run appends new records;
            // crash #2 kills the resume mid-flight. Without truncating
            // the torn tails first, the resume's first append merges
            // with the partial line and the second recovery silently
            // drops every record the resume wrote — skipping their
            // rollback and breaking bit-equality.
            let mut medium = MemMedium::new();
            let first = |a| (a == 0).then(|| FaultConfig::crash_at(fresh.calls[0] / 3));
            let err = exec
                .run(Start::Fresh, &mut medium, &first)
                .err()
                .expect("crash 1");
            assert!(is_crashed(&err), "{exec:?}: unexpected error: {err}");
            tear_log_tail(&mut medium);
            let second = |a| (a == 0).then(|| FaultConfig::crash_at(12));
            let err = exec
                .run(Start::Resume, &mut medium, &second)
                .err()
                .expect("crash 2");
            assert!(is_crashed(&err), "{exec:?}: unexpected error: {err}");
            // The crashed resume's records all survive: nothing merged
            // into the (now truncated) torn tail.
            let jscan = parse_journal(&medium.journal_bytes());
            assert!(
                !jscan.torn_tail,
                "{exec:?}: journal poisoned by merged tail"
            );
            let out = exec
                .run(Start::Resume, &mut medium, &no_faults)
                .expect("resume 2");
            assert_complete(exec, "double crash", &out, &medium);
            assert!(out.report.resumed, "{exec:?}");
            assert_bounded("double crash", &out.report);
        }
    }

    /// A crashed durable run must leave the ledger labelled with the
    /// walk and session that actually ran.
    #[test]
    fn crashed_durable_runs_keep_their_executor_label() {
        let (tp, dur) = (tiled(), DurabilityConfig::default());
        let rec = LedgerRecorder::new();
        let sync = fcfg().with_ledger(rec.clone());
        let mut steps = pcfg(1);
        steps.pipeline.functional = sync.clone();
        let crash = |a| (a == 0).then(|| FaultConfig::crash_at(25));
        let crash_again = |a| (a == 0).then(|| FaultConfig::crash_at(5));

        let mut medium = MemMedium::new();
        let err = run_durable(
            &tp,
            &PARAMS,
            &seed,
            &steps,
            &dur,
            &mut medium,
            &crash,
            Start::Fresh,
        )
        .expect_err("crash injected");
        assert!(is_crashed(&err), "unexpected error: {err}");
        assert_eq!(rec.take().executor, "durable-parallel");
        let resume = Start::Resume;
        let err = run_durable(
            &tp,
            &PARAMS,
            &seed,
            &steps,
            &dur,
            &mut medium,
            &crash_again,
            resume,
        )
        .expect_err("second crash injected");
        assert!(is_crashed(&err), "unexpected error: {err}");
        assert_eq!(rec.take().executor, "durable-parallel-resume");

        let mut medium = MemMedium::new();
        let err = run_durable(
            &tp,
            &PARAMS,
            &seed,
            &sync,
            &dur,
            &mut medium,
            &crash,
            Start::Fresh,
        )
        .expect_err("crash injected");
        assert!(is_crashed(&err), "unexpected error: {err}");
        assert_eq!(rec.take().executor, "durable");
    }

    #[test]
    fn torn_write_is_detected_and_healed_on_resume() {
        let tp = tiled();
        let params = [9i64];
        let expected = reference(&tp, &params);
        let dur = DurabilityConfig::default();
        let mut base = MemMedium::new();
        let baseline =
            run_functional_durable(&tp, &params, &seed, &fcfg(), &dur, &mut base, &|_| {
                Some(FaultConfig::transient(7, 0))
            })
            .expect("baseline");
        let calls = baseline.fault_handles[0].as_ref().expect("wrapped").calls();

        let mut medium = MemMedium::new();
        let err = run_functional_durable(&tp, &params, &seed, &fcfg(), &dur, &mut medium, &|a| {
            (a == 0).then(|| FaultConfig::torn_write(calls / 2, 500))
        })
        .expect_err("torn crash injected");
        assert!(is_crashed(&err));

        // Before recovery, the torn region fails checksum verification
        // when read back; after rollback the resumed run is bit-equal.
        let out = resume(&tp, &params, &dur, &mut medium).expect("resume");
        assert_eq!(out.run.data, expected);
        assert!(out.report.resumed);
    }

    #[test]
    fn dir_medium_crash_and_resume_on_files() {
        let tmp = TempDir::new("ooc-recovery").expect("tmp");
        let tp = tiled();
        let params = [8i64];
        let dur = DurabilityConfig::default();
        let mut medium = DirMedium::new(tmp.path());
        let err = run_functional_durable(&tp, &params, &seed, &fcfg(), &dur, &mut medium, &|a| {
            (a == 0).then(|| FaultConfig::crash_at(20))
        })
        .expect_err("crash injected");
        assert!(is_crashed(&err));
        assert!(tmp.path().join("journal.log").exists());
        // A real process crash mid-append leaves a partial,
        // newline-less final record; resume must truncate it away.
        tear_log_tail(&mut medium);
        let read_log =
            |m: &mut DirMedium| parse_journal(&m.journal().expect("log").read_all().expect("read"));
        let watermark = read_log(&mut medium)
            .boundary()
            .expect("boundary before resume")
            .watermark;
        let out = resume(&tp, &params, &dur, &mut medium).expect("resume from files");
        assert_eq!(out.run.data, reference(&tp, &params));
        assert!(out.report.torn_tail, "resume saw the torn tail");
        // The resumed run's appends did not merge with the torn tail:
        // the log reparses without loss.
        let jscan = read_log(&mut medium);
        assert!(!jscan.torn_tail, "journal clean after recovery");
        // Rollback restores data without appending compensation
        // records, so the crashed run's in-flight intents stay
        // uncommitted — but only those at or past the rolled-back
        // watermark may be; everything the resumed run wrote committed.
        for w in jscan.uncommitted() {
            assert!(
                w.seq >= watermark,
                "pre-watermark intent {} left uncommitted",
                w.seq
            );
        }
        let b = jscan.boundary().expect("boundary");
        assert_eq!((b.nest, b.step), (tp.nests.len(), 0));
    }

    #[test]
    fn dir_medium_refuses_a_leftover_file_of_the_wrong_length() {
        let tmp = TempDir::new("ooc-recovery-len").expect("tmp");
        let tp = tiled();
        let (params, dur) = ([8i64], DurabilityConfig::default());
        ooc_runtime::FileStore::create(&tmp.path().join("U.dat"), 3).expect("leftover");
        let mut medium = DirMedium::new(tmp.path());
        let err =
            run_functional_durable(&tp, &params, &seed, &fcfg(), &dur, &mut medium, &|_| None)
                .expect_err("a 3-element U.dat is not an 8x8 array");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let msg = err.to_string();
        for needle in ["U.dat", "3 elements", "64 expected"] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg}");
        }
    }

    /// A completed run's medium with `line` appended to its log, then
    /// resumed: the intent lies past the final watermark, so resume
    /// rolls it back.
    fn resume_with_appended_intent(line: impl Fn(u64) -> String) -> io::Result<DurableOutcome> {
        let (tp, dur) = (tiled(), DurabilityConfig::default());
        let mut medium = MemMedium::new();
        run_functional_durable(&tp, &PARAMS, &seed, &fcfg(), &dur, &mut medium, &|_| None)
            .expect("completed run");
        let next = parse_journal(&medium.journal_bytes()).next_seq;
        let mut log = medium.journal().expect("log");
        log.append(line(next).as_bytes()).expect("append");
        resume(&tp, &PARAMS, &dur, &mut medium)
    }

    #[test]
    fn resume_refuses_an_intent_on_an_unknown_array() {
        let err = resume_with_appended_intent(|seq| format!("I {seq} 7 0 1;1 1;1 1 0\n"))
            .expect_err("the program has three arrays");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("array 7"), "{err}");
    }

    #[test]
    fn resume_refuses_a_region_outside_the_array_before_allocating() {
        let err = resume_with_appended_intent(|seq| {
            format!("I {seq} 1 0 1;1 3000000000;3000000000 0 -\n")
        })
        .expect_err("a 3e9 x 3e9 region does not fit a 10 x 10 array");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        // Inside the array, a pre-image of the wrong length is refused
        // too.
        let err = resume_with_appended_intent(|seq| format!("I {seq} 1 0 1;1 2;2 1 0\n"))
            .expect_err("a 2 x 2 region needs four pre-image values");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    /// Checks the ordering the write-behind commit guarantees, read off
    /// the one log: every `S`/`K` record comes after the `C` record of
    /// every intent below its watermark — except `rolled_back`, the
    /// intents a resume undid, which may stay uncommitted — and every
    /// intent this run wrote committed.
    fn assert_commits_precede_checkpoints(
        exec: Exec,
        row: &str,
        medium: &MemMedium,
        rolled_back: &BTreeSet<u64>,
        report: &RecoveryReport,
    ) {
        let scan = parse_journal(&medium.journal_bytes());
        let mut open: BTreeSet<u64> = BTreeSet::new();
        let mut checkpoints = 0;
        for r in &scan.records {
            match r {
                JournalRecord::Intent(w) => {
                    open.insert(w.seq);
                }
                JournalRecord::Commit(seq) => {
                    open.remove(seq);
                }
                JournalRecord::Seeded { watermark }
                | JournalRecord::Checkpoint { watermark, .. } => {
                    checkpoints += 1;
                    let late: Vec<_> = open
                        .range(..watermark)
                        .filter(|s| !rolled_back.contains(s))
                        .collect();
                    assert!(
                        late.is_empty(),
                        "{exec:?} {row}: {r:?} before commits {late:?}"
                    );
                }
            }
        }
        assert!(checkpoints > 1, "{exec:?} {row}: {checkpoints} checkpoints");
        assert!(
            open.is_subset(rolled_back),
            "{exec:?} {row}: uncommitted {open:?}"
        );
        assert_eq!(
            report.journal_intents, report.journal_commits,
            "{exec:?} {row}"
        );
    }

    #[test]
    fn every_checkpoint_follows_the_commits_below_its_watermark() {
        for exec in Exec::ALL {
            let mut base = MemMedium::new();
            let fresh = exec
                .run(Start::Fresh, &mut base, &|_| {
                    Some(FaultConfig::transient(7, 0))
                })
                .expect("fresh");
            assert_commits_precede_checkpoints(
                exec,
                "fresh",
                &base,
                &BTreeSet::new(),
                &fresh.report,
            );

            let mut medium = MemMedium::new();
            let at = fresh.calls[0] / 2;
            let err = exec
                .run(Start::Fresh, &mut medium, &|a| {
                    (a == 0).then(|| FaultConfig::crash_at(at))
                })
                .err()
                .expect("crash");
            assert!(is_crashed(&err), "{exec:?}: unexpected error: {err}");
            let crashed = parse_journal(&medium.journal_bytes());
            let b = crashed.boundary().expect("the crash came after seeding");
            let rolled_back: BTreeSet<u64> = crashed
                .intents_after(b.watermark)
                .iter()
                .map(|w| w.seq)
                .collect();
            let out = exec
                .run(Start::Resume, &mut medium, &|_| None)
                .expect("resume");
            assert_eq!(
                out.report.rolled_back_tiles as usize,
                rolled_back.len(),
                "{exec:?}"
            );
            assert_commits_precede_checkpoints(exec, "resumed", &medium, &rolled_back, &out.report);
        }
    }

    #[test]
    fn crash_mode_replay_is_deterministic_functionally() {
        // The synchronous durable executor is single-threaded: the same
        // crash config must fail at the same call with the same partial
        // journal.
        let tp = tiled();
        let params = [9i64];
        let dur = DurabilityConfig::default();
        let journals: Vec<Vec<u8>> = (0..2)
            .map(|_| {
                let mut medium = MemMedium::new();
                let err =
                    run_functional_durable(&tp, &params, &seed, &fcfg(), &dur, &mut medium, &|a| {
                        (a == 0).then(|| {
                            FaultConfig::transient(3, 0).with_crash(CrashMode::CrashAt(35))
                        })
                    })
                    .expect_err("crash injected");
                assert!(is_crashed(&err));
                medium.journal_bytes()
            })
            .collect();
        assert_eq!(journals[0], journals[1], "crash replay diverged");
    }

    fn small_stripes(nodes: usize) -> StripeConfig {
        // Tiny stripes so even the [10]² test arrays spread over all
        // nodes and every node owns data plus rotating parity.
        StripeConfig {
            nodes,
            stripe_elems: 8,
            ..StripeConfig::default()
        }
    }

    /// A fresh durable run of the step engine at two shards over a
    /// striped medium, node losses retried inside `run_durable`.
    fn run_striped(
        params: &[i64],
        medium: &mut dyn DurableMedium,
    ) -> io::Result<DurableOutcome<ParallelRun>> {
        let dur = DurabilityConfig::default();
        run_durable(
            &tiled(),
            params,
            &seed,
            &pcfg(2),
            &dur,
            medium,
            &|_| None,
            Start::Fresh,
        )
    }

    #[test]
    fn striped_medium_fault_free_run_is_bit_equal_with_parity_upkeep() {
        let params = [10i64];
        let mut medium = StripedMedium::new(small_stripes(4));
        let out = run_striped(&params, &mut medium).expect("fault-free striped run");
        assert_eq!(out.run.run.data, reference(&tiled(), &params));
        assert!(medium.nodes_lost().is_empty());
        assert_eq!(out.report.retries, 0);
        // Every write paid its parity read-modify-write.
        let repair = medium.total_repair();
        let parity = repair.get(IoCause::ParityWrite);
        assert!(parity.write_calls > 0, "{repair:?}");
        // A full scrub of the finished medium finds nothing to fix.
        let scrub = medium.scrub(false).expect("scrub");
        assert!(scrub.groups > 0);
        assert_eq!(scrub.clean, scrub.groups, "{scrub:?}");
    }

    #[test]
    fn killing_each_node_in_turn_still_lands_bit_equal() {
        let params = [10i64];
        let expected = reference(&tiled(), &params);
        for node in 0..4usize {
            // Fires during seeding, so the run discovers the death
            // before its first checkpoint boundary and the one retry
            // starts over.
            let faults = NodeFaultConfig::new().permanent_fail_at(node, 3);
            let mut medium = StripedMedium::with_faults(small_stripes(4), faults);
            let out = run_striped(&params, &mut medium).expect("survive node loss");
            assert_eq!(out.run.run.data, expected, "node {node}");
            assert_eq!(medium.nodes_lost(), [(node, 3)]);
            assert_eq!(out.report.retries, 1, "node {node}: {:?}", out.report);
            assert!(
                !out.report.resumed,
                "node {node}: no boundary to resume from"
            );
            assert_eq!(
                medium.pool().health(node),
                ooc_runtime::NodeHealth::Down,
                "node {node} stays quarantined"
            );
            // The dead node's stripes were served by reconstruction.
            let repair = medium.total_repair();
            let rec = repair.get(IoCause::DegradedReconstruct);
            assert!(rec.read_calls > 0, "node {node}: {repair:?}");
        }
    }

    #[test]
    fn mid_run_node_loss_replay_is_bounded_by_a_checkpoint_interval() {
        let params = [10i64];
        let expected = reference(&tiled(), &params);

        // Fault-free striped twin: per-node arrival counts to place a
        // mid-run kill, and the journal to bound replay.
        let mut twin = StripedMedium::new(small_stripes(4));
        run_striped(&params, &mut twin).expect("twin");
        let arrivals: Vec<u64> = twin
            .node_stats()
            .iter()
            .map(|s| s.io.total_calls() + s.repair.total_calls())
            .collect();
        let bound = max_intents_per_interval(&parse_journal(&twin.journal_bytes()));

        let node = 1usize;
        let at = arrivals[node] / 2;
        assert!(at > 0, "twin never touched node {node}");
        let faults = NodeFaultConfig::new().permanent_fail_at(node, at);
        let mut medium = StripedMedium::with_faults(small_stripes(4), faults);
        let out = run_striped(&params, &mut medium).expect("survive mid-run node loss");
        assert_eq!(out.run.run.data, expected);
        // Whichever call met the dead node first — a shard's (typed
        // error, one retry) or a prefetch worker's (error dropped, the
        // rest of the run degrades in place) — the pool records the
        // loss.
        let lost: Vec<usize> = medium.nodes_lost().iter().map(|&(n, _)| n).collect();
        assert_eq!(lost, [node]);
        assert!(out.report.retries <= 1, "{:?}", out.report);
        for (a, n) in &out.report.rolled_back_by_array {
            let max = bound.get(a).copied().unwrap_or(0);
            assert!(*n <= max, "array {a}: rolled back {n} > bound {max}");
        }
    }

    #[test]
    fn a_loss_absorbed_without_an_error_is_still_reported() {
        let params = [8i64];
        // Dead before the first call: no access ever *discovers* the
        // node, every one of them degrades in place.
        let mut medium = StripedMedium::new(small_stripes(4));
        medium.pool().quarantine(2);
        let out = run_striped(&params, &mut medium).expect("degraded run");
        assert_eq!(out.run.run.data, reference(&tiled(), &params));
        assert_eq!(medium.nodes_lost(), [(2, 0)]);
        assert_eq!(out.report.retries, 0);
        assert!(medium.total_repair().total_calls() > 0);
    }

    /// Counts the medium's `recoverable` answers.
    struct Answers<'a> {
        medium: &'a mut StripedMedium,
        yes: u64,
        asked: u64,
    }

    impl DurableMedium for Answers<'_> {
        fn data(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
            self.medium.data(a, name, len)
        }

        fn sidecar(&mut self, a: usize, name: &str, len: u64) -> io::Result<Box<dyn Store + Send>> {
            self.medium.sidecar(a, name, len)
        }

        fn journal(&mut self) -> io::Result<Box<dyn LogStore>> {
            self.medium.journal()
        }

        fn recoverable(&mut self, err: &io::Error) -> bool {
            self.asked += 1;
            let yes = self.medium.recoverable(err);
            self.yes += u64::from(yes);
            yes
        }
    }

    #[test]
    fn a_second_lost_node_ends_the_run_with_the_double_fault() {
        let faults = NodeFaultConfig::new()
            .permanent_fail_at(0, 2)
            .permanent_fail_at(2, 4);
        let mut medium = StripedMedium::with_faults(small_stripes(4), faults);
        let mut answers = Answers {
            medium: &mut medium,
            yes: 0,
            asked: 0,
        };
        let err = run_striped(&[10], &mut answers).expect_err("two lost nodes in every group");
        // The group needs the other lost node.
        let fault = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<DoubleFaultError>());
        assert!(is_double_fault(&err), "{err}");
        assert!(fault.is_some_and(|f| [0, 2].contains(&f.node)), "{err}");
        // One retry per newly lost node, and the double fault is the
        // one answer that stopped the loop.
        assert!(answers.yes <= 4, "{} retries", answers.yes);
        assert_eq!(answers.asked, answers.yes + 1);
        let lost: Vec<usize> = medium.nodes_lost().iter().map(|&(n, _)| n).collect();
        assert_eq!(lost, [0, 2]);
    }

    #[test]
    fn recovery_report_registers_and_renders() {
        let report = RecoveryReport {
            resumed: true,
            boundary: Some((1, 4)),
            rolled_back_tiles: 3,
            skipped_steps: 8,
            executed_steps: 12,
            journal_intents: 20,
            journal_commits: 20,
            checkpoints: 5,
            corrupt_reads: 1,
            torn_tail: true,
            ..RecoveryReport::default()
        };
        let text = report.render();
        for needle in [
            "resume: nest 1 step 4",
            "3 tiles rolled back",
            "torn log tail",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in {text}");
        }
    }
}
