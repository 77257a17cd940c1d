//! The I/O provenance ledger: every read/write of a run, classified
//! by **cause** and attributed to its source-level identity.
//!
//! The totals layer ([`IoStats`], [`MeasuredIo`](crate::MeasuredIo))
//! can say a run moved fewer bytes; the ledger says **why**: which
//! tiles were re-read because the cache evicted them
//! ([`IoCause::CapacityMiss`], with the evicting step and the Belady
//! next-use distance at eviction), which prefetches were delivered
//! but never consumed ([`IoCause::PrefetchWasted`]), which writes
//! were recovery replays ([`IoCause::ReplayWrite`]).
//!
//! The headline invariant mirrors the wall-clock blame waterfall:
//! the ledger is a **conserving partition**. Per array, the sum of
//! read-side cause buckets equals the analytic read totals exactly,
//! and likewise for writes — enforced by construction (executors emit
//! exactly one event per accounted transfer, with the same
//! run-splitting arithmetic via `OocArray::exact_tile_calls`) and
//! asserted by [`ProvenanceLedger::check_conservation`]. Checksum
//! sidecar traffic rides in a separate channel: it never enters the
//! data store's [`MeasuredIo`](crate::MeasuredIo), so it is reported alongside, not
//! inside, the conserved buckets.

use crate::array::IoStats;
use crate::layout::Region;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a transfer happened. The first five are read-side causes, the
/// next three write-side; [`IoCause::ChecksumOverhead`] is the
/// sidecar channel outside the conserved partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IoCause {
    /// First touch of a tile region on this executor locality (the
    /// sync walk, or one shard of a parallel run) — unavoidable cold
    /// traffic.
    Compulsory,
    /// Re-read of a region previously staged and then evicted or
    /// displaced; carries the evicting step and the Belady next-use
    /// annotation at eviction when known.
    CapacityMiss,
    /// A prefetch delivery that a step actually consumed.
    PrefetchUseful,
    /// A prefetch delivery never consumed before the nest barrier or
    /// run end — bytes moved for nothing.
    PrefetchWasted,
    /// The read side of the recovery machinery: journal pre-image
    /// reads taken before an intent is logged.
    ReplayRead,
    /// First write-back of a tile region.
    WriteBack,
    /// The same region written more than once — rewrite traffic a
    /// better schedule could batch.
    WriteRewrite,
    /// The write side of recovery: rollback restoring pre-images
    /// after a crash or aborted intent.
    ReplayWrite,
    /// Parity-lane maintenance traffic: old-data/old-parity reads and
    /// the parity-chunk writes of the striped store's rotating parity
    /// lane. Repair plane, outside the conserved data partition.
    ParityWrite,
    /// Peer-and-parity traffic reconstructing a lost or corrupt chunk
    /// (degraded reads, a scrub rebuilding a corrupt data chunk).
    /// Repair plane.
    DegradedReconstruct,
    /// Scrubber verification reads walking stripes and parity chunks.
    /// Repair plane.
    ScrubRead,
    /// Checksum sidecar traffic (CRC maintenance); reported outside
    /// the conserved data partition.
    ChecksumOverhead,
}

impl IoCause {
    /// Every cause, in display order.
    pub const ALL: [IoCause; 12] = [
        IoCause::Compulsory,
        IoCause::CapacityMiss,
        IoCause::PrefetchUseful,
        IoCause::PrefetchWasted,
        IoCause::ReplayRead,
        IoCause::WriteBack,
        IoCause::WriteRewrite,
        IoCause::ReplayWrite,
        IoCause::ParityWrite,
        IoCause::DegradedReconstruct,
        IoCause::ScrubRead,
        IoCause::ChecksumOverhead,
    ];

    /// The repair-plane causes: redundancy maintenance and
    /// reconstruction traffic. Like [`IoCause::ChecksumOverhead`],
    /// these ride outside the conserved data partition — degraded runs
    /// keep the same data-cause buckets as healthy runs.
    pub const REPAIR: [IoCause; 3] = [
        IoCause::ParityWrite,
        IoCause::DegradedReconstruct,
        IoCause::ScrubRead,
    ];

    /// Whether this cause accounts read-side traffic.
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(
            self,
            IoCause::Compulsory
                | IoCause::CapacityMiss
                | IoCause::PrefetchUseful
                | IoCause::PrefetchWasted
                | IoCause::ReplayRead
                | IoCause::DegradedReconstruct
                | IoCause::ScrubRead
        )
    }

    /// Whether this cause is repair-plane traffic (see
    /// [`IoCause::REPAIR`]).
    #[must_use]
    fn is_repair(self) -> bool {
        IoCause::REPAIR.contains(&self)
    }

    /// Stable lower-case label (used in tables, metrics, JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IoCause::Compulsory => "compulsory",
            IoCause::CapacityMiss => "capacity_miss",
            IoCause::PrefetchUseful => "prefetch_useful",
            IoCause::PrefetchWasted => "prefetch_wasted",
            IoCause::ReplayRead => "replay_read",
            IoCause::WriteBack => "write_back",
            IoCause::WriteRewrite => "write_rewrite",
            IoCause::ReplayWrite => "replay_write",
            IoCause::ParityWrite => "parity_write",
            IoCause::DegradedReconstruct => "degraded_reconstruct",
            IoCause::ScrubRead => "scrub_read",
            IoCause::ChecksumOverhead => "checksum_overhead",
        }
    }
}

impl fmt::Display for IoCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What the cache knew when it pushed the tile out — attached to the
/// [`IoCause::CapacityMiss`] (or prefetched re-read) that pays for
/// the eviction later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictDetail {
    /// Absolute schedule step at which the region was evicted.
    pub evicted_at_step: u64,
    /// The Belady next-use annotation the entry carried at eviction
    /// (`None` = the cache saw no scheduled future use, e.g. a
    /// nest-barrier clear or the sync walk's displacement).
    pub next_use_at_eviction: Option<u64>,
}

/// One classified transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Array index (declaration order).
    pub array: u32,
    /// Why the transfer happened.
    pub cause: IoCause,
    /// I/O calls, in the runtime's run-splitting accounting.
    pub calls: u64,
    /// Elements moved.
    pub elems: u64,
    /// The tile region transferred.
    pub region: Region,
    /// Nest index the transfer served.
    pub nest: u32,
    /// Absolute schedule step (0 for setup/teardown traffic).
    pub step: u64,
    /// For re-reads: what the cache knew at the eviction being paid
    /// for.
    pub evict: Option<EvictDetail>,
}

/// Per-(array, cause) aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CauseTotal {
    /// Classified events.
    pub events: u64,
    /// I/O calls.
    pub calls: u64,
    /// Elements moved.
    pub elems: u64,
}

impl CauseTotal {
    /// Accumulates one event.
    pub fn add(&mut self, calls: u64, elems: u64) {
        self.events += 1;
        self.calls += calls;
        self.elems += elems;
    }

    /// Bytes moved.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.elems * crate::store::ELEM_BYTES
    }
}

/// The assembled ledger of one run: identity, per-array names, the
/// classified event stream, and the sidecar channels.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceLedger {
    /// Kernel label (bench identity; empty when unset).
    pub kernel: String,
    /// Program version label (`col`, `c-opt`, …; empty when unset).
    pub version: String,
    /// Executor that produced the events (`sync`, `parallel`,
    /// `durable`, `durable-parallel`; a resumed durable run appends
    /// `-resume`).
    pub executor: String,
    /// Array names in declaration order.
    pub arrays: Vec<String>,
    /// The classified transfers, in recording order.
    pub events: Vec<LedgerEvent>,
    /// Checksum sidecar traffic per array: `(calls, elems)` — the
    /// [`IoCause::ChecksumOverhead`] channel.
    pub sidecar: BTreeMap<u32, (u64, u64)>,
    /// Repair-plane traffic per `(array, cause)`: `(calls, elems)` for
    /// the [`IoCause::REPAIR`] causes. Outside the conserved data
    /// partition, so a degraded run's data buckets stay identical to
    /// the healthy run's.
    pub repair: BTreeMap<(u32, IoCause), (u64, u64)>,
    /// Journal log bytes appended during the run (intent/commit
    /// records + pre-images), outside the cause partition.
    pub journal_bytes: u64,
}

impl ProvenanceLedger {
    /// Aggregates the event stream into per-(array, cause) totals.
    /// The checksum sidecar channel appears under
    /// [`IoCause::ChecksumOverhead`].
    #[must_use]
    pub fn totals(&self) -> BTreeMap<(u32, IoCause), CauseTotal> {
        let mut out: BTreeMap<(u32, IoCause), CauseTotal> = BTreeMap::new();
        for e in &self.events {
            out.entry((e.array, e.cause))
                .or_default()
                .add(e.calls, e.elems);
        }
        for (&a, &(calls, elems)) in &self.sidecar {
            out.entry((a, IoCause::ChecksumOverhead))
                .or_default()
                .add(calls, elems);
        }
        for (&(a, cause), &(calls, elems)) in &self.repair {
            out.entry((a, cause)).or_default().add(calls, elems);
        }
        out
    }

    /// Read-side and write-side `(calls, elems)` sums of the data
    /// causes for one array.
    #[must_use]
    fn data_sums(&self, array: u32) -> ((u64, u64), (u64, u64)) {
        let mut read = (0u64, 0u64);
        let mut write = (0u64, 0u64);
        for e in self.events.iter().filter(|e| e.array == array) {
            let side = if e.cause.is_read() {
                &mut read
            } else {
                &mut write
            };
            side.0 += e.calls;
            side.1 += e.elems;
        }
        (read, write)
    }

    /// The conservation law: per array, the data-cause buckets sum
    /// **exactly** to the analytic totals — calls and elements, read
    /// side and write side each. `analytic[i]` is array `i`'s
    /// compute-phase [`IoStats`] (e.g. an `ArrayProfile`'s).
    ///
    /// # Errors
    /// Returns a description of the first array whose buckets do not
    /// sum to its totals.
    pub fn check_conservation(&self, analytic: &[IoStats]) -> Result<(), String> {
        for (a, stats) in analytic.iter().enumerate() {
            let ((rc, re), (wc, we)) = self.data_sums(a as u32);
            let name = self
                .arrays
                .get(a)
                .map_or_else(|| format!("#{a}"), Clone::clone);
            if (rc, re) != (stats.read_calls, stats.read_elems) {
                return Err(format!(
                    "array {name}: read buckets ({rc} calls, {re} elems) != analytic ({} calls, {} elems)",
                    stats.read_calls, stats.read_elems
                ));
            }
            if (wc, we) != (stats.write_calls, stats.write_elems) {
                return Err(format!(
                    "array {name}: write buckets ({wc} calls, {we} elems) != analytic ({} calls, {} elems)",
                    stats.write_calls, stats.write_elems
                ));
            }
        }
        Ok(())
    }

    /// Total elements in buckets matching `cause` (data events for the
    /// partition causes, the sidecar channel for
    /// [`IoCause::ChecksumOverhead`], the repair channel for
    /// [`IoCause::REPAIR`] causes).
    #[must_use]
    pub fn cause_elems(&self, cause: IoCause) -> u64 {
        if cause == IoCause::ChecksumOverhead {
            return self.sidecar.values().map(|&(_, e)| e).sum();
        }
        if cause.is_repair() {
            return self
                .repair
                .iter()
                .filter(|&(&(_, c), _)| c == cause)
                .map(|(_, &(_, e))| e)
                .sum();
        }
        self.events
            .iter()
            .filter(|e| e.cause == cause)
            .map(|e| e.elems)
            .sum()
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    ledger: ProvenanceLedger,
}

/// A cloneable, thread-safe handle every executor layer records
/// through. The recorder is deliberately context-free: callers stamp
/// the `(nest, step)` identity on each event, so parallel shards can
/// share one recorder without racing on ambient state.
#[derive(Debug, Clone, Default)]
pub struct LedgerRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl LedgerRecorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn with<R>(&self, f: impl FnOnce(&mut ProvenanceLedger) -> R) -> R {
        f(&mut self.inner.lock().expect("ledger recorder poisoned").ledger)
    }

    /// Stamps the run identity (bench layer).
    pub fn set_run(&self, kernel: &str, version: &str) {
        self.with(|l| {
            l.kernel = kernel.to_string();
            l.version = version.to_string();
        });
    }

    /// Stamps the executor label (executor layer).
    pub fn set_executor(&self, executor: &str) {
        self.with(|l| l.executor = executor.to_string());
    }

    /// Registers an array name at declaration index `idx`.
    pub fn set_array(&self, idx: u32, name: &str) {
        self.with(|l| {
            let idx = idx as usize;
            if l.arrays.len() <= idx {
                l.arrays.resize(idx + 1, String::new());
            }
            l.arrays[idx] = name.to_string();
        });
    }

    /// Records one classified transfer.
    pub fn record(&self, event: LedgerEvent) {
        self.with(|l| l.events.push(event));
    }

    /// Adds checksum sidecar traffic for `array`.
    pub fn add_sidecar(&self, array: u32, calls: u64, elems: u64) {
        self.with(|l| {
            let e = l.sidecar.entry(array).or_insert((0, 0));
            e.0 += calls;
            e.1 += elems;
        });
    }

    /// Adds repair-plane traffic for `array` under one of the
    /// [`IoCause::REPAIR`] causes.
    ///
    /// # Panics
    /// Panics when `cause` is not a repair cause — repair traffic in a
    /// data bucket would break conservation.
    pub fn add_repair(&self, array: u32, cause: IoCause, calls: u64, elems: u64) {
        assert!(cause.is_repair(), "{cause} is not a repair cause");
        self.with(|l| {
            let e = l.repair.entry((array, cause)).or_insert((0, 0));
            e.0 += calls;
            e.1 += elems;
        });
    }

    /// Adds journal log bytes.
    pub fn add_journal_bytes(&self, bytes: u64) {
        self.with(|l| l.journal_bytes += bytes);
    }

    /// A copy of the ledger so far.
    #[must_use]
    pub fn snapshot(&self) -> ProvenanceLedger {
        self.with(|l| l.clone())
    }

    /// Takes the ledger, leaving the recorder empty (identity
    /// included).
    #[must_use]
    pub fn take(&self) -> ProvenanceLedger {
        self.with(std::mem::take)
    }
}

/// Per-executor-locality classification state: which regions have
/// been staged before (first touch vs. re-read), what the cache knew
/// when it evicted them, and how often each region has been written.
///
/// One tracker per serial walk — the sync executor keeps one, each
/// parallel shard keeps its own — so "first touch" means first touch
/// *on that locality*, matching how per-shard caches actually absorb
/// reuse.
#[derive(Debug, Default)]
pub struct TouchTracker {
    seen: BTreeSet<(u32, Region)>,
    evicted: BTreeMap<(u32, Region), EvictDetail>,
    writes: BTreeMap<(u32, Region), u64>,
}

impl TouchTracker {
    /// A fresh tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies a staging read of `(array, region)`:
    /// [`IoCause::Compulsory`] on first touch, else
    /// [`IoCause::CapacityMiss`] with the recorded eviction detail.
    /// Marks the region touched either way.
    pub fn classify_read(&mut self, array: u32, region: &Region) -> (IoCause, Option<EvictDetail>) {
        let key = (array, region.clone());
        if self.seen.insert(key.clone()) {
            (IoCause::Compulsory, None)
        } else {
            (IoCause::CapacityMiss, self.evicted.remove(&key))
        }
    }

    /// Marks `(array, region)` touched without classifying (a
    /// prefetched delivery consumed by a step — its cause is already
    /// [`IoCause::PrefetchUseful`]); returns the eviction detail when
    /// the delivery re-staged an evicted region.
    pub fn note_read(&mut self, array: u32, region: &Region) -> Option<EvictDetail> {
        let key = (array, region.clone());
        self.seen.insert(key.clone());
        self.evicted.remove(&key)
    }

    /// Classifies a write-back of `(array, region)`:
    /// [`IoCause::WriteBack`] the first time, [`IoCause::WriteRewrite`]
    /// after.
    pub fn classify_write(&mut self, array: u32, region: &Region) -> IoCause {
        let n = self.writes.entry((array, region.clone())).or_insert(0);
        *n += 1;
        if *n == 1 {
            IoCause::WriteBack
        } else {
            IoCause::WriteRewrite
        }
    }

    /// Records that the staged copy of `(array, region)` was pushed
    /// out at `step` with Belady annotation `next_use` — a later
    /// re-read becomes a [`IoCause::CapacityMiss`] carrying this
    /// detail.
    pub fn note_evicted(&mut self, array: u32, region: &Region, step: u64, next_use: Option<u64>) {
        self.evicted.insert(
            (array, region.clone()),
            EvictDetail {
                evicted_at_step: step,
                next_use_at_eviction: next_use,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(lo: i64, hi: i64) -> Region {
        Region::new(vec![lo], vec![hi])
    }

    fn event(array: u32, cause: IoCause, calls: u64, elems: u64) -> LedgerEvent {
        LedgerEvent {
            array,
            cause,
            calls,
            elems,
            region: region(1, elems as i64),
            nest: 0,
            step: 0,
            evict: None,
        }
    }

    #[test]
    fn tracker_classifies_first_touch_and_capacity_miss() {
        let mut t = TouchTracker::new();
        let r = region(1, 4);
        assert_eq!(t.classify_read(0, &r), (IoCause::Compulsory, None));
        // Re-read without a recorded eviction: still a capacity miss
        // (the staged copy was displaced), no detail.
        assert_eq!(t.classify_read(0, &r), (IoCause::CapacityMiss, None));
        t.note_evicted(0, &r, 7, Some(12));
        let (cause, detail) = t.classify_read(0, &r);
        assert_eq!(cause, IoCause::CapacityMiss);
        assert_eq!(
            detail,
            Some(EvictDetail {
                evicted_at_step: 7,
                next_use_at_eviction: Some(12)
            })
        );
        // A different array is its own first touch.
        assert_eq!(t.classify_read(1, &r), (IoCause::Compulsory, None));
    }

    #[test]
    fn tracker_classifies_rewrites() {
        let mut t = TouchTracker::new();
        let r = region(1, 8);
        assert_eq!(t.classify_write(0, &r), IoCause::WriteBack);
        assert_eq!(t.classify_write(0, &r), IoCause::WriteRewrite);
        assert_eq!(t.classify_write(0, &r), IoCause::WriteRewrite);
        assert_eq!(t.classify_write(1, &r), IoCause::WriteBack);
    }

    #[test]
    fn conservation_accepts_exact_partition_and_rejects_drift() {
        let rec = LedgerRecorder::new();
        rec.set_array(0, "U");
        rec.record(event(0, IoCause::Compulsory, 2, 16));
        rec.record(event(0, IoCause::CapacityMiss, 1, 8));
        rec.record(event(0, IoCause::WriteBack, 3, 24));
        let ledger = rec.snapshot();
        let good = IoStats {
            read_calls: 3,
            read_elems: 24,
            write_calls: 3,
            write_elems: 24,
            ..IoStats::default()
        };
        ledger.check_conservation(&[good]).expect("conserves");
        let mut bad = good;
        bad.read_elems += 1;
        let err = ledger.check_conservation(&[bad]).expect_err("drift");
        assert!(err.contains("U"), "{err}");
    }

    #[test]
    fn sidecar_stays_out_of_the_data_partition() {
        let rec = LedgerRecorder::new();
        rec.record(event(0, IoCause::Compulsory, 1, 4));
        rec.add_sidecar(0, 5, 40);
        let ledger = rec.snapshot();
        let stats = IoStats {
            read_calls: 1,
            read_elems: 4,
            ..IoStats::default()
        };
        ledger
            .check_conservation(&[stats])
            .expect("sidecar excluded");
        assert_eq!(ledger.cause_elems(IoCause::ChecksumOverhead), 40);
        let totals = ledger.totals();
        assert_eq!(
            totals[&(0, IoCause::ChecksumOverhead)],
            CauseTotal {
                events: 1,
                calls: 5,
                elems: 40
            }
        );
    }

    #[test]
    fn repair_channel_stays_out_of_the_data_partition() {
        let rec = LedgerRecorder::new();
        rec.record(event(0, IoCause::Compulsory, 1, 4));
        rec.add_repair(0, IoCause::ParityWrite, 2, 8);
        rec.add_repair(0, IoCause::DegradedReconstruct, 3, 12);
        rec.add_repair(1, IoCause::ScrubRead, 1, 16);
        let ledger = rec.snapshot();
        let stats = IoStats {
            read_calls: 1,
            read_elems: 4,
            ..IoStats::default()
        };
        ledger
            .check_conservation(&[stats, IoStats::default()])
            .expect("repair excluded from the partition");
        assert_eq!(ledger.cause_elems(IoCause::ParityWrite), 8);
        assert_eq!(ledger.cause_elems(IoCause::DegradedReconstruct), 12);
        assert_eq!(ledger.cause_elems(IoCause::ScrubRead), 16);
        let totals = ledger.totals();
        assert_eq!(totals[&(0, IoCause::ParityWrite)].elems, 8);
        assert_eq!(totals[&(1, IoCause::ScrubRead)].calls, 1);
    }

    #[test]
    #[should_panic(expected = "not a repair cause")]
    fn repair_channel_rejects_data_causes() {
        LedgerRecorder::new().add_repair(0, IoCause::WriteBack, 1, 1);
    }

    /// The causes that partition the data store's traffic (everything
    /// except the checksum sidecar channel).
    const DATA: [IoCause; 8] = [
        IoCause::Compulsory,
        IoCause::CapacityMiss,
        IoCause::PrefetchUseful,
        IoCause::PrefetchWasted,
        IoCause::ReplayRead,
        IoCause::WriteBack,
        IoCause::WriteRewrite,
        IoCause::ReplayWrite,
    ];

    #[test]
    fn repair_causes_are_disjoint_from_the_data_partition() {
        for cause in IoCause::REPAIR {
            assert!(cause.is_repair());
            assert!(!DATA.contains(&cause), "{cause} must stay out of DATA");
        }
        for cause in DATA {
            assert!(!cause.is_repair());
        }
        assert_eq!(
            IoCause::ALL.len(),
            DATA.len() + IoCause::REPAIR.len() + 1,
            "ALL = data partition + repair plane + checksum sidecar"
        );
    }

    #[test]
    fn recorder_is_shareable_and_takeable() {
        let rec = LedgerRecorder::new();
        let rec2 = rec.clone();
        rec.set_run("trans", "c-opt");
        rec2.set_executor("parallel");
        rec2.record(event(1, IoCause::PrefetchWasted, 1, 4));
        let taken = rec.take();
        assert_eq!(taken.kernel, "trans");
        assert_eq!(taken.executor, "parallel");
        assert_eq!(taken.events.len(), 1);
        assert!(rec2.snapshot().events.is_empty(), "take drained");
    }
}
