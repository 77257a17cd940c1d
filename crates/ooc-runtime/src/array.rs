//! Out-of-core arrays: the PASSION-like runtime object programs
//! stage data tiles through.
//!
//! An [`OocArray`] couples an array shape, a [`FileLayout`], and a
//! backing [`Store`]. Tiles (rectangular [`Region`]s) are read into
//! and written from [`Tile`] buffers; every transfer is accounted in
//! [`IoStats`] as the number of I/O *calls* it costs — maximal
//! contiguous runs, split by the maximum transfer size — which is
//! precisely the quantity the paper's optimizations minimize.

use crate::layout::{FileLayout, Region, RunSummary, Segment};
use crate::store::{MemStore, Store, ELEM_BYTES};
use std::io;

/// Runtime parameters for I/O call accounting.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Maximum elements a single I/O call may move (runs longer than
    /// this are split). Mirrors `PfsConfig::max_call_bytes / 8`.
    pub max_call_elems: u64,
    /// Recovery policy for transient store failures.
    pub retry: RetryPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            max_call_elems: 4 * 1024 * 1024 / ELEM_BYTES,
            retry: RetryPolicy::default(),
        }
    }
}

/// Retry policy for transient store errors
/// ([`io::ErrorKind::Interrupted`], `WouldBlock`, `TimedOut`): a
/// failed run is re-issued at once, up to `max_attempts` total tries.
/// Non-transient errors (out-of-range, corrupt files) propagate
/// immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per run, including the first (≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// Whether `e` is worth retrying.
    #[must_use]
    pub fn is_transient(e: &io::Error) -> bool {
        // A dead node is structural, not transient: it stays dead, and
        // its error must reach the degraded-read machinery instead of
        // being blindly re-queued.
        if crate::fault::is_node_down(e) {
            return false;
        }
        matches!(
            e.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }

    /// Runs `op` under this policy; `retries` counts re-issues.
    ///
    /// # Errors
    /// Returns the last error once attempts are exhausted, and
    /// non-transient errors immediately.
    pub fn run(&self, retries: &mut u64, mut op: impl FnMut() -> io::Result<()>) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(()) => return Ok(()),
                Err(e) if attempt + 1 < self.max_attempts.max(1) && Self::is_transient(&e) => {
                    if ooc_trace::enabled() {
                        ooc_trace::instant(
                            "runtime",
                            "io-retry",
                            vec![
                                ("attempt", u64::from(attempt + 1).into()),
                                ("error", e.kind().to_string().into()),
                            ],
                        );
                    }
                    attempt += 1;
                    *retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Cumulative I/O statistics of one array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Tile-read operations.
    pub reads: u64,
    /// Tile-write operations.
    pub writes: u64,
    /// I/O calls issued by reads.
    pub read_calls: u64,
    /// I/O calls issued by writes.
    pub write_calls: u64,
    /// Elements transferred by reads.
    pub read_elems: u64,
    /// Elements transferred by writes.
    pub write_elems: u64,
    /// Transient store failures recovered by retry.
    pub retries: u64,
}

impl IoStats {
    /// Total calls (reads + writes).
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Total elements (reads + writes).
    #[must_use]
    pub fn total_elems(&self) -> u64 {
        self.read_elems + self.write_elems
    }

    /// Total bytes (reads + writes).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_elems() * ELEM_BYTES
    }

    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_calls += other.read_calls;
        self.write_calls += other.write_calls;
        self.read_elems += other.read_elems;
        self.write_elems += other.write_elems;
        self.retries += other.retries;
    }
}

/// Cost of a single region access, derived from the layout's run
/// structure and the call-size cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCost {
    /// I/O calls required.
    pub calls: u64,
    /// Elements moved.
    pub elements: u64,
    /// Starting byte offset in the file (for stripe mapping).
    pub start_byte: u64,
    /// Bytes spanned in the file, `start..end` (≥ moved bytes for
    /// strided access).
    pub span_bytes: u64,
}

/// An in-memory rectangular tile of an array.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    region: Region,
    data: Vec<f64>,
}

impl Tile {
    /// Zero-filled tile covering `region`.
    #[must_use]
    pub fn zeroed(region: Region) -> Self {
        let len = usize::try_from(region.len()).expect("tile too large");
        Tile {
            region,
            data: vec![0.0; len],
        }
    }

    /// The covered region.
    #[must_use]
    pub fn region(&self) -> &Region {
        &self.region
    }

    /// Raw data in canonical region-row-major order.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data in canonical region-row-major order.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The covered region and the mutable data, borrowed together.
    pub fn region_and_data_mut(&mut self) -> (&Region, &mut [f64]) {
        (&self.region, &mut self.data)
    }

    /// The raw data, without a copy.
    #[must_use]
    pub fn into_data(self) -> Vec<f64> {
        self.data
    }

    fn pos(&self, idx: &[i64]) -> usize {
        assert!(self.region.contains(idx), "index {idx:?} outside tile");
        let mut off: i64 = 0;
        for (d, &x) in idx.iter().enumerate() {
            off = off * self.region.extent(d) + (x - self.region.lo[d]);
        }
        usize::try_from(off).expect("tile offset")
    }

    /// Reads the element at global (1-based) index `idx`.
    #[must_use]
    pub fn get(&self, idx: &[i64]) -> f64 {
        self.data[self.pos(idx)]
    }

    /// Writes the element at global index `idx`.
    pub fn set(&mut self, idx: &[i64], v: f64) {
        let p = self.pos(idx);
        self.data[p] = v;
    }
}

/// An out-of-core array over a backing store.
#[derive(Debug)]
pub struct OocArray<S: Store> {
    name: String,
    dims: Vec<i64>,
    layout: FileLayout,
    store: S,
    config: RuntimeConfig,
    stats: IoStats,
    /// Staging buffer for runs that are not contiguous in the tile.
    scratch: Vec<f64>,
    /// The segments of the current transfer, and the layout walk's
    /// index: kept between transfers like `scratch`.
    segs: Vec<Segment>,
    idx: Vec<i64>,
}

/// Largest scratch buffer (in elements, or in segments) an array keeps
/// between tile transfers. A larger one — a whole-array sweep through a
/// layout that is not the tile's — is freed when the transfer ends, or
/// it would sit in peak RSS for the whole run; freeing the small ones
/// too costs more than it saves, because every large block freed raises
/// glibc's mmap threshold and keeps later freed tiles on the heap
/// (measured in EXPERIMENTS.md).
const SCRATCH_KEEP_ELEMS: usize = 128 * 1024;

impl OocArray<MemStore> {
    /// Creates an in-memory-backed array (tests, functional runs).
    #[must_use]
    pub fn in_memory(name: &str, dims: &[i64], layout: FileLayout) -> Self {
        let len: i64 = dims.iter().product();
        OocArray::new(
            name,
            dims,
            layout,
            MemStore::new(u64::try_from(len).expect("positive size")),
            RuntimeConfig::default(),
        )
    }
}

impl<S: Store> OocArray<S> {
    /// Creates an array over the given store.
    ///
    /// # Panics
    /// Panics if the store size does not match the array shape.
    #[must_use]
    pub fn new(
        name: &str,
        dims: &[i64],
        layout: FileLayout,
        store: S,
        config: RuntimeConfig,
    ) -> Self {
        let len: i64 = dims.iter().product();
        assert_eq!(
            store.len(),
            u64::try_from(len).expect("positive size"),
            "store size does not match array shape"
        );
        OocArray {
            name: name.to_string(),
            dims: dims.to_vec(),
            layout,
            store,
            config,
            stats: IoStats::default(),
            scratch: Vec::new(),
            segs: Vec::new(),
            idx: Vec::new(),
        }
    }

    /// Array name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dimensions.
    #[must_use]
    pub fn dims(&self) -> &[i64] {
        &self.dims
    }

    /// The file layout.
    #[must_use]
    pub fn layout(&self) -> &FileLayout {
        &self.layout
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = IoStats::default();
    }

    /// Resets tile statistics *and* any store-level measurement
    /// (e.g. a [`TracingStore`](crate::trace::TracingStore) trace).
    pub fn reset_all_metrics(&mut self) {
        self.reset_stats();
        self.store.reset_metrics();
    }

    /// The store's measured I/O, when the store is instrumented.
    #[must_use]
    pub fn measured(&self) -> Option<crate::trace::MeasuredIo> {
        self.store.metrics()
    }

    /// The store's full access-pattern call trace, when the store is a
    /// [`ProfilingStore`](crate::profile::ProfilingStore).
    #[must_use]
    pub fn access_log(&self) -> Option<Vec<crate::profile::AccessRecord>> {
        self.store.access_log()
    }

    /// The backing store.
    #[must_use]
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The I/O cost of accessing `region` under the array's layout —
    /// no data is moved.
    #[must_use]
    pub fn io_cost(&self, region: &Region) -> IoCost {
        summary_cost(
            self.layout.region_run_summary(&self.dims, region),
            self.config.max_call_elems,
        )
    }

    /// The **exact** I/O call count a [`read_tile`](Self::read_tile)
    /// or [`write_tile`](Self::write_tile) of `region` incurs — the
    /// same per-run `div_ceil` accounting those methods apply, unlike
    /// [`io_cost`](Self::io_cost)'s average-run approximation. The
    /// provenance ledger uses this so cause buckets conserve exactly
    /// against [`IoStats`] call totals. No data is moved.
    #[must_use]
    pub fn exact_tile_calls(&self, region: &Region) -> u64 {
        self.layout
            .region_runs(&self.dims, region)
            .iter()
            .map(|run| run.len.div_ceil(self.config.max_call_elems))
            .sum()
    }

    /// Fills `self.segs` with the segments of `tile ∩ array`, ascending
    /// in the file.
    fn segments(&mut self, tile: &Region) {
        let segs = &mut self.segs;
        segs.clear();
        self.layout
            .for_each_segment(&self.dims, tile, &mut self.idx, |s| segs.push(s));
    }

    /// Frees oversized scratch buffers (see [`SCRATCH_KEEP_ELEMS`]).
    fn trim_scratch(&mut self) {
        if self.scratch.capacity() > SCRATCH_KEEP_ELEMS {
            self.scratch = Vec::new();
        }
        if self.segs.capacity() > SCRATCH_KEEP_ELEMS {
            self.segs = Vec::new();
        }
    }

    /// Reads a tile, counting calls: one store call per maximal file
    /// run, in ascending file order. A run that is also contiguous in
    /// the tile lands directly in the tile's data. The others are read
    /// into the scratch buffer in file order, a group of consecutive
    /// runs at a time, and each group is scattered into the tile in one
    /// pass that moves adjacent tile columns a cache line at a time.
    ///
    /// # Errors
    /// Propagates store errors; a region whose rank is not the
    /// array's is [`io::ErrorKind::InvalidInput`], before any store
    /// call.
    pub fn read_tile(&mut self, region: &Region) -> io::Result<Tile> {
        self.check_rank(region)?;
        let mut tile = Tile::zeroed(region.clamped(&self.dims));
        self.fill(&mut tile)?;
        Ok(tile)
    }

    /// [`read_tile`](Self::read_tile) into `tile`, whatever it held
    /// before: its region becomes `region` clamped to the array and
    /// its data the region's elements, in the buffers `tile` already
    /// has — no allocation once they are large enough. Data, region and
    /// [`IoStats`] are those of a fresh `read_tile`.
    ///
    /// # Errors
    /// As [`read_tile`](Self::read_tile). A refused rank leaves `tile`
    /// as it was; after a store error its data is unspecified.
    pub fn read_into(&mut self, region: &Region, tile: &mut Tile) -> io::Result<()> {
        self.check_rank(region)?;
        tile.region.lo.clone_from(&region.lo);
        tile.region.hi.clone_from(&region.hi);
        tile.region.clamp_to(&self.dims);
        let len = usize::try_from(tile.region.len()).expect("tile too large");
        // Every element is read below: old values need no zeroing.
        tile.data.truncate(len);
        tile.data.resize(len, 0.0);
        self.fill(tile)
    }

    /// Reads the elements of `tile`'s region, which lies inside the
    /// array, into its data, which has the region's length.
    fn fill(&mut self, tile: &mut Tile) -> io::Result<()> {
        self.segments(&tile.region);
        let retry = self.config.retry;
        let store = &self.store;
        for group in groups(&self.segs) {
            match group {
                Group::Direct(start, at) => {
                    let buf = &mut tile.data[at];
                    retry.run(&mut self.stats.retries, || store.read_run(start, buf))?;
                }
                Group::Staged(group, len) => {
                    if self.scratch.len() < len {
                        self.scratch.resize(len, 0.0);
                    }
                    let mut rest = &mut self.scratch[..len];
                    for run in group.chunk_by(file_adjacent) {
                        let (start, len) = run_extent(run);
                        let (buf, tail) = rest.split_at_mut(len);
                        retry.run(&mut self.stats.retries, || store.read_run(start, buf))?;
                        rest = tail;
                    }
                    scatter(group, &self.scratch[..len], &mut tile.data);
                }
            }
        }
        self.stats.reads += 1;
        self.stats.read_calls += run_calls_of(&self.segs, self.config.max_call_elems);
        self.stats.read_elems += tile.data.len() as u64;
        self.trim_scratch();
        Ok(())
    }

    /// Writes a tile back, counting calls: the part of the tile inside
    /// the array, one store call per maximal file run as in
    /// [`read_tile`](Self::read_tile); each group of runs that are not
    /// contiguous in the tile is gathered into the scratch buffer in
    /// one pass before its runs are written.
    ///
    /// # Errors
    /// Propagates store errors; a tile whose rank is not the array's
    /// is [`io::ErrorKind::InvalidInput`], before any store call.
    pub fn write_tile(&mut self, tile: &Tile) -> io::Result<()> {
        self.check_rank(&tile.region)?;
        self.segments(&tile.region);
        let retry = self.config.retry;
        let store = &mut self.store;
        for group in groups(&self.segs) {
            match group {
                Group::Direct(start, at) => {
                    let buf = &tile.data[at];
                    retry.run(&mut self.stats.retries, || store.write_run(start, buf))?;
                }
                Group::Staged(group, len) => {
                    if self.scratch.len() < len {
                        self.scratch.resize(len, 0.0);
                    }
                    gather(group, &tile.data, &mut self.scratch[..len]);
                    let mut rest = &self.scratch[..len];
                    for run in group.chunk_by(file_adjacent) {
                        let (start, len) = run_extent(run);
                        let (buf, tail) = rest.split_at(len);
                        retry.run(&mut self.stats.retries, || store.write_run(start, buf))?;
                        rest = tail;
                    }
                }
            }
        }
        self.count_write();
        self.trim_scratch();
        Ok(())
    }

    /// Counts one write of the segments in `self.segs` in the stats.
    fn count_write(&mut self) {
        let segs = &self.segs;
        self.stats.writes += 1;
        self.stats.write_calls += run_calls_of(segs, self.config.max_call_elems);
        self.stats.write_elems += segs.iter().map(|seg| seg.len).sum::<u64>();
    }

    /// Refuses a region of another rank than the array's, which the
    /// layout arithmetic would index out of bounds.
    fn check_rank(&self, region: &Region) -> io::Result<()> {
        if region.rank() == self.dims.len() {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "rank-{} region {region:?} on rank-{} array {}",
                region.rank(),
                self.dims.len(),
                self.name
            ),
        ))
    }

    /// Reads one element (costing a full call) — convenience for tests.
    ///
    /// # Errors
    /// Propagates store errors.
    pub fn read_element(&mut self, idx: &[i64]) -> io::Result<f64> {
        let region = Region::new(idx.to_vec(), idx.to_vec());
        Ok(self.read_tile(&region)?.get(idx))
    }

    /// Direct whole-array initialization through the layout (costed as
    /// one sequential write sweep): `f` is evaluated in file order, and
    /// each file run is written in one call — the calls
    /// [`OocArray::write_tile`] of the whole array issues.
    ///
    /// # Errors
    /// Propagates store errors.
    pub fn initialize(&mut self, f: impl Fn(&[i64]) -> f64) -> io::Result<()> {
        self.segments(&Region::full(&self.dims));
        let segs = &self.segs;
        // The file's contents in file order. A segment is a line of the
        // index space: its elements follow its first index by a
        // constant step, read off its first two tile positions.
        let len = segs.iter().map(|seg| seg.len as usize).sum();
        let mut data = vec![0f64; len];
        let (mut idx, mut next) = (vec![0i64; self.dims.len()], vec![0i64; self.dims.len()]);
        let mut step: Vec<(usize, i64)> = Vec::new();
        let mut at = 0;
        for seg in segs {
            index_at(&self.dims, seg.tile_start, &mut idx);
            step.clear();
            if seg.len > 1 {
                index_at(&self.dims, seg.tile_start + seg.tile_stride, &mut next);
                let moves = next.iter().zip(&idx).map(|(&n, &i)| n - i).enumerate();
                step.extend(moves.filter(|&(_, s)| s != 0));
            }
            let to = at + seg.len as usize;
            for slot in &mut data[at..to] {
                *slot = f(&idx);
                for &(d, s) in &step {
                    idx[d] += s;
                }
            }
            at = to;
        }
        let retry = self.config.retry;
        let store = &mut self.store;
        let mut rest = data.as_slice();
        for run in segs.chunk_by(file_adjacent) {
            let (start, len) = run_extent(run);
            let (buf, tail) = rest.split_at(len);
            retry.run(&mut self.stats.retries, || store.write_run(start, buf))?;
            rest = tail;
        }
        self.count_write();
        self.trim_scratch();
        Ok(())
    }
}

/// Writes the index of canonical position `pos` of the array `dims`
/// (the last dimension fastest) into `idx`.
fn index_at(dims: &[i64], pos: usize, idx: &mut [i64]) {
    let mut pos = pos as i64;
    for (i, &dim) in idx.iter_mut().zip(dims).rev() {
        *i = pos % dim + 1;
        pos /= dim;
    }
}

/// I/O calls that move `elements` elements in `runs` runs when one
/// call carries at most `max_call_elems`.
#[must_use]
pub fn run_calls(runs: u64, elements: u64, max_call_elems: u64) -> u64 {
    if elements == 0 {
        return 0;
    }
    // Average run length; long runs split into multiple calls. Splitting
    // is computed per average run, which is exact when runs are uniform
    // (rectangular tiles under linear layouts always are).
    let avg = (elements / runs).max(1);
    let calls_per_run = avg.div_ceil(max_call_elems);
    let rem = elements % runs;
    // Distribute the remainder conservatively: at most one extra call.
    let extra = u64::from(rem > 0 && (avg + 1).div_ceil(max_call_elems) > calls_per_run);
    runs * calls_per_run + extra
}

/// Converts a run summary into an I/O cost under a call-size cap.
#[must_use]
pub fn summary_cost(s: RunSummary, max_call_elems: u64) -> IoCost {
    IoCost {
        calls: run_calls(s.runs, s.elements, max_call_elems),
        elements: s.elements,
        start_byte: s.min_start * ELEM_BYTES,
        span_bytes: (s.max_end - s.min_start) * ELEM_BYTES,
    }
}

/// Whether `b` continues `a`'s file run.
fn file_adjacent(a: &Segment, b: &Segment) -> bool {
    a.file_start + a.len == b.file_start
}

/// The calls `IoStats` counts for moving `segs`: each run's length
/// split by the call cap.
fn run_calls_of(segs: &[Segment], max_call_elems: u64) -> u64 {
    segs.chunk_by(file_adjacent)
        .map(|run| (run_extent(run).1 as u64).div_ceil(max_call_elems))
        .sum()
}

/// File start and length of a run of file-adjacent segments.
fn run_extent(run: &[Segment]) -> (u64, usize) {
    let (first, last) = (run[0], run[run.len() - 1]);
    let len = last.file_start + last.len - first.file_start;
    (first.file_start, usize::try_from(len).expect("run len"))
}

/// The tile positions of a run when they are one contiguous range in
/// file order — then the store can move the run without staging.
fn tile_range(run: &[Segment]) -> Option<std::ops::Range<usize>> {
    let mut end = run[0].tile_start;
    for seg in run {
        if seg.tile_stride != 1 || seg.tile_start != end {
            return None;
        }
        end += seg.len as usize;
    }
    Some(run[0].tile_start..end)
}

/// Segments in a panel, and tile elements per panel row: one 64-byte
/// cache line of `f64`.
const PANEL: usize = 8;

/// One step of a tile transfer, in file order.
#[derive(Debug)]
enum Group<'a> {
    /// A run contiguous in the tile: its file start and tile range,
    /// moved in place.
    Direct(u64, std::ops::Range<usize>),
    /// Consecutive runs that are not contiguous in the tile, staged
    /// through the scratch in file order, and their total length. Runs
    /// join until the group holds at least [`PANEL`] segments, so that
    /// a panel can span runs: a `col` tile is one single-segment run
    /// per column.
    Staged(&'a [Segment], usize),
}

/// The transfer groups of a tile's segments, in file order.
fn groups(segs: &[Segment]) -> impl Iterator<Item = Group<'_>> {
    let mut runs = segs.chunk_by(file_adjacent).peekable();
    let mut pos = 0;
    std::iter::from_fn(move || {
        let run = runs.next()?;
        let first = pos;
        pos += run.len();
        if let Some(at) = tile_range(run) {
            return Some(Group::Direct(run[0].file_start, at));
        }
        let mut len = run_extent(run).1;
        while pos - first < PANEL {
            let Some(run) = runs.next_if(|run| tile_range(run).is_none()) else {
                break;
            };
            pos += run.len();
            len += run_extent(run).1;
        }
        Some(Group::Staged(&segs[first..pos], len))
    })
}

/// Whether `segs` open with a panel: [`PANEL`] segments of one length
/// and one tile stride of at least [`PANEL`], whose tile starts step by
/// one — adjacent tile columns, so that each tile row of the panel is
/// one cache line.
fn panel_at(segs: &[Segment]) -> bool {
    let Some(panel) = segs.get(..PANEL) else {
        return false;
    };
    let first = panel[0];
    first.tile_stride >= PANEL
        && panel.iter().zip(first.tile_start..).all(|(seg, at)| {
            seg.len == first.len && seg.tile_stride == first.tile_stride && seg.tile_start == at
        })
}

/// Moves the file-order elements `src` of `segs` to their tile
/// positions in `dst`: a panel a tile row at a time, any other segment
/// along its stride.
fn scatter(segs: &[Segment], src: &[f64], dst: &mut [f64]) {
    let (mut i, mut src) = (0, src);
    while i < segs.len() {
        let seg = segs[i];
        let len = seg.len as usize;
        if panel_at(&segs[i..]) {
            let (panel, rest) = src.split_at(PANEL * len);
            let cols: [&[f64]; PANEL] = std::array::from_fn(|k| &panel[k * len..][..len]);
            let rows = dst[seg.tile_start..].chunks_mut(seg.tile_stride);
            for (r, row) in rows.take(len).enumerate() {
                for (d, col) in row[..PANEL].iter_mut().zip(&cols) {
                    *d = col[r];
                }
            }
            (i, src) = (i + PANEL, rest);
        } else {
            let (from, rest) = src.split_at(len);
            let to = dst[seg.tile_start..].iter_mut().step_by(seg.tile_stride);
            for (d, &v) in to.zip(from) {
                *d = v;
            }
            (i, src) = (i + 1, rest);
        }
    }
}

/// The inverse of [`scatter`]: collects the tile elements `src` of
/// `segs` into file order in `dst`.
fn gather(segs: &[Segment], src: &[f64], dst: &mut [f64]) {
    let (mut i, mut dst) = (0, dst);
    while i < segs.len() {
        let seg = segs[i];
        let len = seg.len as usize;
        if panel_at(&segs[i..]) {
            let (panel, rest) = std::mem::take(&mut dst).split_at_mut(PANEL * len);
            let mut cols = panel.chunks_exact_mut(len);
            let mut cols: [&mut [f64]; PANEL] =
                std::array::from_fn(|_| cols.next().expect("PANEL columns"));
            let rows = src[seg.tile_start..].chunks(seg.tile_stride);
            for (r, row) in rows.take(len).enumerate() {
                for (col, &v) in cols.iter_mut().zip(&row[..PANEL]) {
                    col[r] = v;
                }
            }
            (i, dst) = (i + PANEL, rest);
        } else {
            let (to, rest) = std::mem::take(&mut dst).split_at_mut(len);
            let from = src[seg.tile_start..].iter().step_by(seg.tile_stride);
            for (d, &v) in to.iter_mut().zip(from) {
                *d = v;
            }
            (i, dst) = (i + 1, rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RuntimeConfig {
        RuntimeConfig {
            max_call_elems: 8,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn read_write_roundtrip_all_layouts() {
        for layout in [
            FileLayout::row_major(2),
            FileLayout::col_major(2),
            FileLayout::Hyperplane2D(1, 1),
            FileLayout::Hyperplane2D(1, -1),
            FileLayout::Blocked2D { br: 2, bc: 2 },
        ] {
            let mut a = OocArray::in_memory("A", &[4, 4], layout.clone());
            a.initialize(|idx| (idx[0] * 10 + idx[1]) as f64)
                .expect("init");
            let tile = a
                .read_tile(&Region::new(vec![2, 2], vec![3, 4]))
                .expect("read");
            assert_eq!(tile.get(&[2, 2]), 22.0, "{layout:?}");
            assert_eq!(tile.get(&[3, 4]), 34.0, "{layout:?}");

            // Modify and write back; re-read to verify.
            let mut tile = tile;
            tile.set(&[2, 3], -1.0);
            a.write_tile(&tile).expect("write");
            assert_eq!(a.read_element(&[2, 3]).expect("read"), -1.0, "{layout:?}");
            assert_eq!(a.read_element(&[2, 2]).expect("read"), 22.0, "{layout:?}");
        }
    }

    /// A store that keeps every write, its offset and its bits.
    struct Recorder {
        len: u64,
        writes: Vec<(u64, Vec<u64>)>,
    }

    impl Store for Recorder {
        fn len(&self) -> u64 {
            self.len
        }

        fn read_run(&self, _: u64, buf: &mut [f64]) -> io::Result<()> {
            buf.fill(0.0);
            Ok(())
        }

        fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
            let bits = buf.iter().map(|v| v.to_bits()).collect();
            self.writes.push((offset, bits));
            Ok(())
        }
    }

    /// Seeding in file order issues the calls, the bytes and the stats
    /// of writing one whole-array tile filled in canonical order.
    #[test]
    fn initialize_writes_what_a_whole_array_tile_writes() {
        let value = |idx: &[i64]| idx.iter().fold(0.5, |v, &i| v * 31.0 + i as f64);
        for (dims, layout) in [
            (vec![5, 7], FileLayout::row_major(2)),
            (vec![5, 7], FileLayout::col_major(2)),
            (vec![3, 4, 5], FileLayout::DimOrder(vec![2, 0, 1])),
            (vec![5, 7], FileLayout::Hyperplane2D(1, 1)),
            (vec![5, 7], FileLayout::Hyperplane2D(1, -1)),
            (vec![5, 7], FileLayout::Blocked2D { br: 2, bc: 3 }),
        ] {
            let array = || {
                let len = dims.iter().product::<i64>().unsigned_abs();
                let store = Recorder {
                    len,
                    writes: Vec::new(),
                };
                OocArray::new("A", &dims, layout.clone(), store, small_config())
            };
            let mut seeded = array();
            seeded.initialize(value).expect("init");
            let mut tile = Tile::zeroed(Region::full(&dims));
            let mut idx = vec![1i64; dims.len()];
            for slot in tile.data_mut() {
                *slot = value(&idx);
                for d in (0..idx.len()).rev() {
                    if idx[d] < dims[d] {
                        idx[d] += 1;
                        break;
                    }
                    idx[d] = 1;
                }
            }
            let mut written = array();
            written.write_tile(&tile).expect("write");
            assert_eq!(seeded.store.writes, written.store.writes, "{layout:?}");
            assert_eq!(seeded.stats(), written.stats(), "{layout:?}");
        }
    }

    #[test]
    fn call_accounting_matches_figure3() {
        // 8x8 column-major array, memory tile 4x4 (Figure 3(a)): 4 calls.
        let mut a = OocArray::new(
            "V",
            &[8, 8],
            FileLayout::col_major(2),
            MemStore::new(64),
            small_config(),
        );
        a.reset_stats();
        let _ = a
            .read_tile(&Region::new(vec![1, 1], vec![4, 4]))
            .expect("read");
        assert_eq!(a.stats().read_calls, 4);

        // Figure 3(b): 2 full rows of a row-major array, max 8 elements
        // per call: a single 16-element run = 2 calls.
        let mut b = OocArray::new(
            "V",
            &[8, 8],
            FileLayout::row_major(2),
            MemStore::new(64),
            small_config(),
        );
        let _ = b
            .read_tile(&Region::new(vec![1, 1], vec![2, 8]))
            .expect("read");
        assert_eq!(b.stats().read_calls, 2);
    }

    #[test]
    fn io_cost_no_data_movement() {
        let a = OocArray::in_memory("A", &[8, 8], FileLayout::col_major(2));
        let c = a.io_cost(&Region::new(vec![1, 1], vec![4, 4]));
        assert_eq!(c.calls, 4);
        assert_eq!(c.elements, 16);
        // No stats recorded by io_cost.
        assert_eq!(a.stats(), IoStats::default());
    }

    #[test]
    fn stats_accumulate() {
        let mut a = OocArray::in_memory("A", &[4, 4], FileLayout::row_major(2));
        let t = a
            .read_tile(&Region::new(vec![1, 1], vec![2, 4]))
            .expect("r");
        a.write_tile(&t).expect("w");
        let s = a.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.read_elems, 8);
        assert_eq!(s.write_elems, 8);
        assert!(s.read_calls >= 1 && s.write_calls >= 1);
        assert_eq!(s.total_bytes(), 16 * 8);
    }

    #[test]
    fn out_of_bounds_regions_clamped() {
        let mut a = OocArray::in_memory("A", &[4, 4], FileLayout::row_major(2));
        let tile = a
            .read_tile(&Region::new(vec![3, 3], vec![9, 9]))
            .expect("r");
        assert_eq!(tile.region().len(), 4);
    }

    #[test]
    fn overhanging_tile_writes_its_in_bounds_part() {
        // The tile's own extents index its data, not the clamped ones.
        let tile_region = Region::new(vec![3, 0], vec![7, 6]);
        for layout in [
            FileLayout::row_major(2),
            FileLayout::col_major(2),
            FileLayout::Blocked2D { br: 2, bc: 3 },
        ] {
            let mut a = OocArray::in_memory("A", &[5, 4], layout.clone());
            a.initialize(|idx| (idx[0] * 10 + idx[1]) as f64)
                .expect("init");
            let mut tile = Tile::zeroed(tile_region.clone());
            for a1 in 3..=7 {
                for a2 in 0..=6 {
                    tile.set(&[a1, a2], -((a1 * 10 + a2) as f64));
                }
            }
            a.reset_stats();
            a.write_tile(&tile).expect("write");
            assert_eq!(a.stats().write_elems, 12, "{layout:?}");
            let all = a.read_tile(&Region::full(&[5, 4])).expect("read");
            for a1 in 1..=5 {
                for a2 in 1..=4 {
                    let v = (a1 * 10 + a2) as f64;
                    let expect = if a1 >= 3 { -v } else { v };
                    assert_eq!(all.get(&[a1, a2]), expect, "{layout:?} ({a1},{a2})");
                }
            }
        }
    }

    #[test]
    fn regions_of_another_rank_are_refused_before_any_call() {
        let mut a = OocArray::new(
            "A",
            &[4, 4],
            FileLayout::row_major(2),
            crate::profile::ProfilingStore::new(MemStore::new(16)),
            RuntimeConfig::default(),
        );
        for region in [
            Region::new(vec![1, 1, 1], vec![2, 2, 2]),
            Region::new(vec![1], vec![4]),
        ] {
            let err = a.read_tile(&region).expect_err("read");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{region:?}");
            let err = a
                .write_tile(&Tile::zeroed(region.clone()))
                .expect_err("write");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{region:?}");
        }
        assert_eq!(a.access_log().expect("profiled"), Vec::new());
        assert_eq!(a.stats(), IoStats::default());
    }

    /// One tile refilled across regions that grow, shrink, overhang
    /// the array and have the wrong rank ends up, after each, equal to
    /// a fresh `read_tile` — data, region, `IoStats` and store calls —
    /// for every layout. A refused rank leaves the tile as it was and
    /// calls no store.
    #[test]
    fn a_refilled_tile_equals_a_fresh_read() {
        let flat = [
            Region::new(vec![2, 3], vec![3, 4]),
            Region::new(vec![1, 1], vec![4, 6]),
            Region::new(vec![3, 2], vec![3, 5]),
            Region::new(vec![4, 5], vec![8, 9]),
            Region::new(vec![1], vec![2]),
            Region::new(vec![0, -2], vec![9, 9]),
            Region::new(vec![2, 7], vec![2, 7]),
        ];
        let deep = [
            Region::new(vec![2, 2, 2], vec![2, 3, 3]),
            Region::new(vec![1, 1, 1], vec![3, 4, 5]),
            Region::new(vec![2, 1, 4], vec![3, 2, 4]),
            Region::new(vec![1, 1, 1, 1], vec![2, 2, 2, 2]),
            Region::new(vec![3, 3, 0], vec![6, 6, 2]),
            Region::new(vec![1, 4, 5], vec![1, 4, 5]),
        ];
        let cases = [
            (vec![5, 7], FileLayout::row_major(2), &flat[..]),
            (vec![5, 7], FileLayout::col_major(2), &flat[..]),
            (
                vec![3, 4, 5],
                FileLayout::DimOrder(vec![2, 0, 1]),
                &deep[..],
            ),
            (vec![5, 7], FileLayout::Hyperplane2D(1, 1), &flat[..]),
            (vec![5, 7], FileLayout::Hyperplane2D(1, -1), &flat[..]),
            (
                vec![5, 7],
                FileLayout::Blocked2D { br: 2, bc: 3 },
                &flat[..],
            ),
        ];
        for (dims, layout, regions) in cases {
            let array = || {
                let len = dims.iter().product::<i64>().unsigned_abs();
                let store = crate::profile::ProfilingStore::new(MemStore::new(len));
                let mut a = OocArray::new("A", &dims, layout.clone(), store, small_config());
                a.initialize(|idx| idx.iter().fold(0.5, |v, &i| v * 31.0 + i as f64))
                    .expect("init");
                a.reset_all_metrics();
                a
            };
            let (mut fresh, mut refilled) = (array(), array());
            let mut tile = Tile::zeroed(Region::new(vec![1; dims.len()], vec![0; dims.len()]));
            for region in regions {
                let at = format!("{layout:?} {region:?}");
                match fresh.read_tile(region) {
                    Ok(want) => {
                        refilled.read_into(region, &mut tile).expect("refill");
                        assert_eq!(tile, want, "{at}");
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{at}");
                        let (before, calls) = (tile.clone(), refilled.access_log());
                        let err = refilled.read_into(region, &mut tile).expect_err("rank");
                        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{at}");
                        assert_eq!(tile, before, "{at}");
                        assert_eq!(refilled.access_log(), calls, "{at}");
                    }
                }
                assert_eq!(refilled.stats(), fresh.stats(), "{at}");
                assert_eq!(refilled.access_log(), fresh.access_log(), "{at}");
            }
        }
    }

    #[test]
    fn tile_indexing() {
        let mut t = Tile::zeroed(Region::new(vec![2, 3], vec![4, 5]));
        t.set(&[3, 4], 7.5);
        assert_eq!(t.get(&[3, 4]), 7.5);
        assert_eq!(t.get(&[2, 3]), 0.0);
        assert_eq!(t.data().len(), 9);
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn tile_bounds_checked() {
        let t = Tile::zeroed(Region::new(vec![1, 1], vec![2, 2]));
        let _ = t.get(&[3, 1]);
    }

    #[test]
    fn summary_cost_call_splitting() {
        let s = RunSummary {
            runs: 2,
            elements: 32,
            min_start: 0,
            max_end: 40,
        };
        // Runs of 16, cap 8 -> 2 calls each.
        let c = summary_cost(s, 8);
        assert_eq!(c.calls, 4);
        assert_eq!(c.span_bytes, 320);
        // Cap large: 1 call per run.
        let c = summary_cost(s, 1000);
        assert_eq!(c.calls, 2);
    }

    #[test]
    fn three_d_array_tiles() {
        let mut a = OocArray::in_memory("B", &[3, 4, 5], FileLayout::row_major(3));
        a.initialize(|idx| (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64)
            .expect("init");
        let t = a
            .read_tile(&Region::new(vec![2, 1, 1], vec![2, 4, 5]))
            .expect("read");
        assert_eq!(t.get(&[2, 3, 4]), 234.0);
        // A full [1,.,.] plane of a row-major 3-D array is contiguous.
        let cost = a.io_cost(&Region::new(vec![1, 1, 1], vec![1, 4, 5]));
        assert_eq!(cost.calls, 1);
    }
}
