//! # ooc-sched
//!
//! The asynchronous tile pipeline: overlap the executor's tile I/O
//! with compute, using nothing but information the compiler already
//! has.
//!
//! The ICPP'99 tiling pass fixes the entire tile walk *statically* —
//! which tiles are read, in what order, and when each is touched
//! again. That turns three classically-hard runtime problems into
//! table lookups:
//!
//! * [`schedule`] — the walk itself, as ordered [`TileStep`]s whose
//!   read requests carry cyclic **next-use distances**
//!   ([`annotate_next_use`]).
//! * [`partition`] — [`PartitionedSchedule`]: the walk cut across N
//!   worker shards by tile-walk ownership, next-use deltas recomputed
//!   per shard, with a written-region disjointness check and serial
//!   fallback so the cut is always safe.
//! * [`cache`] — a bounded [`TileCache`] whose eviction is
//!   Belady-informed by those distances (farthest next use goes
//!   first), with an LRU fallback and a pin, released by `take`, for
//!   tiles a step is about to use.
//! * [`prefetch`] — a [`PrefetchPool`] of worker threads staging
//!   upcoming read tiles over any [`Store`](ooc_runtime::Store)
//!   (behind [`SharedStore`](ooc_runtime::SharedStore)) while the
//!   main thread computes.
//! * [`writebehind`] — a [`WriteBehind`] queue that retires dirty
//!   tiles in the background, with `wait_clear` read-after-write
//!   fences and a `flush` barrier at nest boundaries so pipelined
//!   results stay **bit-equal** to the synchronous executor. A tile
//!   settles when its [`TileSink`] returns, so a crash-consistent
//!   sink's journal commit lands before the tile counts as written.
//! * [`stats`] — [`PipelineStats`]: hit rates, stall counts, and
//!   in-flight depth, exportable to `ooc-metrics`.
//!
//! The crate is deliberately executor-agnostic: it speaks opaque
//! [`SlotKey`]s, [`Region`](ooc_runtime::Region)s and
//! [`Tile`](ooc_runtime::Tile)s plus the [`TileSource`] /
//! [`TileSink`] traits. `ooc-core`'s `exec_pipelined` derives the
//! schedule from its tiling output and drives these pieces.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod partition;
pub mod prefetch;
pub mod schedule;
pub mod stats;
pub mod writebehind;

pub use cache::{CacheStats, Evicted, InsertOutcome, TileCache};
pub use partition::{
    partition_nest, partition_nest_checked, written_disjoint, PartitionedSchedule, ShardSchedule,
};
pub use prefetch::{Delivery, PrefetchPool, PrefetchRequest, TileSource};
pub use schedule::{
    annotate_next_use, NestSchedule, SlotKey, StageRequest, TileId, TileSchedule, TileStep,
};
pub use stats::PipelineStats;
pub use writebehind::{TileSink, WriteBehind};
