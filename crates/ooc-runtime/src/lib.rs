//! # ooc-runtime
//!
//! A PASSION-style out-of-core runtime (cf. Thakur et al., *PASSION:
//! Optimized I/O for parallel applications*): out-of-core arrays live
//! in files under configurable [`FileLayout`]s, programs stage
//! rectangular data [`Tile`]s between file and memory, and every
//! transfer is accounted as the number of I/O **calls** it costs —
//! the quantity the ICPP'99 compiler optimizations minimize.
//!
//! * [`layout`] — dimension-order, general 2-D hyperplane, and blocked
//!   file layouts with exact contiguous-run accounting.
//! * [`store`] — real-file and in-memory backing stores.
//! * [`mod@array`] — [`OocArray`]: tile read/write with [`IoStats`].
//! * [`budget`] — the paper's 1/128 memory rule and tile sizing.
//! * [`interleave`] — chunking/interleaving used by the hand-optimized
//!   `h-opt` program versions.
//! * [`trace`] — [`TracingStore`]: measured per-store I/O (calls,
//!   volume, seek distance, run-length histogram).
//! * [`profile`] — [`ProfilingStore`]: the full access-pattern call
//!   trace, with seek-distance CDFs, sequential-run statistics, and
//!   ASCII file heatmaps.
//! * [`fault`] — [`FaultStore`]: deterministic seeded transient-fault
//!   injection, recovered by [`RetryPolicy`], plus hard
//!   [`CrashMode`]s (`CrashAt`, torn writes) for crash-consistency
//!   tests.
//! * [`checksum`] — [`ChecksummedStore`]: per-chunk CRC64 sidecar;
//!   corrupt or torn data surfaces as a typed, non-transient error.
//! * [`journal`] — the write intent [`Journal`]: the one append-only
//!   durable log (intents with pre-images, commits, checkpoint
//!   records) behind one shared writer handle, torn-tail-tolerant scan with the resume [`Boundary`],
//!   and idempotent [`rollback`].
//! * [`ledger`] — the I/O provenance ledger: every transfer
//!   classified by cause (compulsory, capacity miss, wasted prefetch,
//!   replay, …) in a partition that conserves exactly against the
//!   analytic and measured totals.
//! * [`shared`] — [`SharedStore`]: a cloneable `Arc<Mutex<…>>` handle
//!   that lets prefetch/write-behind threads share one store.
//! * [`striped`] — [`StripedStore`]: 64 KB stripes round-robined over
//!   K per-node part stores — the stripe geometry, how a store is
//!   built, and the fault-free read/write path. Measured
//!   multi-I/O-node contention in three modules, this one and two
//!   private ones re-exported here:
//!   * `pool` — [`IoNodePool`]: the bounded FIFO lane per node
//!     (tickets, [`NodeHealth`]) and what it counts
//!     ([`NodeStats`]: deterministic per-node traffic, timing
//!     histograms, [`RepairIo`]). A striped call is counted where it
//!     takes its lane, nowhere else.
//!   * `repair` — the degraded mode of a store built with a parity
//!     lane: parity read-modify-write, dead-node reconstruction and
//!     [`StripedStore::scrub`].
//! * [`parity`] — [`ParityLayout`]: the rotating-parity geometry and
//!   bitwise-XOR combine the degraded mode is built on.
//! * [`testing`] — store factories and temp-dir plumbing for
//!   differential tests.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod array;
pub mod budget;
pub mod checksum;
pub mod fault;
pub mod interleave;
pub mod journal;
pub mod layout;
pub mod ledger;
pub mod parity;
mod pool;
pub mod profile;
mod repair;
pub mod shared;
pub mod store;
pub mod striped;
pub mod testing;
pub mod trace;

pub use array::{
    run_calls, summary_cost, IoCost, IoStats, OocArray, RetryPolicy, RuntimeConfig, Tile,
};
pub use budget::{BudgetExceeded, MemoryBudget};
pub use checksum::{crc64, crc64_f64s, is_corrupt, ChecksumHandle, ChecksummedStore, CorruptError};
pub use fault::{
    fault_plan, is_crashed, is_node_down, node_down, node_down_error, CrashMode, CrashedError,
    FaultConfig, FaultHandle, FaultStore, NodeDownError, NodeFaultConfig,
};
pub use interleave::InterleavedGroup;
pub use journal::{
    parse_journal, rollback, Boundary, FileLog, Journal, JournalRecord, JournalScan, LogStore,
    MemLog, WriteIntent,
};
pub use layout::{FileLayout, Region, Run, RunSummary};
pub use ledger::{
    CauseTotal, EvictDetail, IoCause, LedgerEvent, LedgerRecorder, ProvenanceLedger, TouchTracker,
};
pub use parity::{xor_into, ParityLayout};
pub use pool::{
    CallClass, IoNodePool, NodeHealth, NodeStats, NodeTiming, RepairCounter, RepairIo, StripeConfig,
};
pub use profile::{heatmap, sequential_stats, AccessRecord, ProfilingStore, SeekCdf, SeqStats};
pub use repair::{is_double_fault, DoubleFaultError, ScrubReport};
pub use shared::SharedStore;
pub use store::{FileStore, MemStore, Store, ELEM_BYTES};
pub use striped::{part_len, StripedStore};
pub use trace::{MeasuredIo, TracingStore, RUN_HIST_BUCKETS};
