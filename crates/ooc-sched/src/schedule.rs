//! Tile schedules: the statically-known, ordered sequence of tile
//! footprints a tiled nest will touch, annotated with **next-use
//! distances**.
//!
//! The compiler's tiling pass fixes the tile walk order before the
//! program runs, which means the pipeline does not have to *predict*
//! reuse — it can read it off the schedule. Each [`TileStep`] lists
//! the read tiles (as [`StageRequest`]s carrying the cyclic distance
//! to the tile's next use) and the written tiles of one tile of the
//! iteration-space walk; [`annotate_next_use`] computes the distances
//! with one cyclic sweep so the cache can run Belady-informed
//! eviction (evict the unpinned entry whose next use is farthest).
//!
//! Distances are *cyclic* because a nest body repeats
//! [`NestSchedule::iterations`] times over the same walk: a tile used
//! only at step `i` of an `n`-step walk is next used at `i + n`, in
//! the following iteration. Whether that wrapped reuse actually
//! happens (it does not in the final iteration) is a runtime bounds
//! check against [`NestSchedule::total_steps`] —
//! [`NestSchedule::absolute_next_use`] resolves it.

use ooc_runtime::Region;
use std::collections::BTreeMap;

/// A staged tile slot: one access-class hull of one array.
///
/// `array` and `slot` are opaque indices assigned by the schedule
/// producer (the executor layer maps them back to its own array ids
/// and staging slots); the scheduler only needs equality and a total
/// order for deterministic map keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotKey {
    /// Producer-assigned array index.
    pub array: u32,
    /// Staging slot (access-class hull) within the array.
    pub slot: u32,
}

/// A concrete tile: a slot plus the region it covers at one step.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId {
    /// Which staged slot the tile belongs to.
    pub key: SlotKey,
    /// The (inclusive) region the tile covers.
    pub region: Region,
}

/// One read tile of a step, with its statically-derived reuse info.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRequest {
    /// The tile to stage.
    pub tile: TileId,
    /// Cyclic distance (in steps) to this tile's next request, filled
    /// in by [`annotate_next_use`]. `Some(n)` for a tile requested
    /// once per `n`-step walk (reused next iteration); `None` only
    /// before annotation.
    pub next_use_delta: Option<u64>,
}

impl StageRequest {
    /// A request with the reuse distance not yet computed.
    #[must_use]
    pub fn new(tile: TileId) -> Self {
        StageRequest {
            tile,
            next_use_delta: None,
        }
    }
}

/// One step of a nest's tile walk: the iteration-space box plus every
/// tile it stages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileStep {
    /// Inclusive lower corner of the iteration-space box.
    pub box_lo: Vec<i64>,
    /// Inclusive upper corner of the iteration-space box.
    pub box_hi: Vec<i64>,
    /// Read-only tiles staged for the step — the prefetchable set.
    pub reads: Vec<StageRequest>,
    /// Tiles written by the step (read-modify-write; staged
    /// synchronously and flushed through write-behind).
    pub writes: Vec<TileId>,
}

impl TileStep {
    /// Elements staged for reading at this step.
    #[must_use]
    fn read_elems(&self) -> u64 {
        self.reads
            .iter()
            .map(|r| r.tile.region.len().max(0) as u64)
            .sum()
    }
}

/// The full schedule of one nest: an ordered tile walk repeated
/// `iterations` times.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NestSchedule {
    /// Index of the nest within the program.
    pub nest: usize,
    /// How many times the walk repeats (the nest's iteration count).
    pub iterations: u64,
    /// The tile walk, in execution order.
    pub steps: Vec<TileStep>,
    /// Largest per-step read footprint, in elements — a lower bound on
    /// a cache capacity that can hold one step's working set.
    pub read_footprint_max: u64,
}

impl NestSchedule {
    /// Total steps the nest executes: `iterations × steps.len()`.
    #[must_use]
    pub fn total_steps(&self) -> u64 {
        self.iterations * self.steps.len() as u64
    }

    /// Resolves a cyclic `next_use_delta` at global step
    /// `global_step` (0-based across all iterations) to an absolute
    /// next-use step, or `None` when the wrapped reuse falls past the
    /// end of the final iteration.
    #[must_use]
    pub fn absolute_next_use(&self, global_step: u64, delta: Option<u64>) -> Option<u64> {
        let d = delta?;
        let at = global_step.checked_add(d)?;
        (at < self.total_steps()).then_some(at)
    }
}

/// A whole program's schedule, nest by nest in execution order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TileSchedule {
    /// Per-nest schedules, in program order.
    pub nests: Vec<NestSchedule>,
}

/// Fills in every [`StageRequest::next_use_delta`] of `nest` with the
/// cyclic distance to the tile's next request, and recomputes
/// [`NestSchedule::read_footprint_max`].
///
/// A tile requested at steps `i < j` (within one walk of length `n`)
/// gets delta `j - i` at step `i`; the *last* request of a tile wraps
/// to its first: delta `n - j + first`. A tile requested once gets
/// exactly `n`. Deltas are therefore always `Some(d)` with
/// `1 ≤ d ≤ n`; whether the wrapped use exists is resolved at runtime
/// by [`NestSchedule::absolute_next_use`].
pub fn annotate_next_use(nest: &mut NestSchedule) {
    let n = nest.steps.len() as u64;
    // Occurrence lists per tile, in step order.
    let mut occurrences: BTreeMap<TileId, Vec<usize>> = BTreeMap::new();
    for (i, step) in nest.steps.iter().enumerate() {
        for req in &step.reads {
            occurrences.entry(req.tile.clone()).or_default().push(i);
        }
    }
    for (tile, occs) in &occurrences {
        for (k, &i) in occs.iter().enumerate() {
            let delta = if k + 1 < occs.len() {
                (occs[k + 1] - i) as u64
            } else {
                // Wrap to the first occurrence in the next iteration.
                n - i as u64 + occs[0] as u64
            };
            let step = &mut nest.steps[i];
            for req in &mut step.reads {
                if req.tile == *tile {
                    req.next_use_delta = Some(delta);
                }
            }
        }
    }
    nest.read_footprint_max = nest
        .steps
        .iter()
        .map(TileStep::read_elems)
        .max()
        .unwrap_or(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(array: u32, slot: u32, lo: i64, hi: i64) -> TileId {
        TileId {
            key: SlotKey { array, slot },
            region: Region::new(vec![lo], vec![hi]),
        }
    }

    fn step(reads: Vec<TileId>) -> TileStep {
        TileStep {
            box_lo: vec![0],
            box_hi: vec![0],
            reads: reads.into_iter().map(StageRequest::new).collect(),
            writes: Vec::new(),
        }
    }

    #[test]
    fn annotates_forward_and_wrapped_distances() {
        let a = tile(0, 0, 1, 4);
        let b = tile(1, 0, 1, 4);
        let mut nest = NestSchedule {
            nest: 0,
            iterations: 2,
            // a at steps 0 and 2, b at step 1 only; walk length 4.
            steps: vec![
                step(vec![a.clone()]),
                step(vec![b.clone()]),
                step(vec![a.clone()]),
                step(vec![]),
            ],
            read_footprint_max: 0,
        };
        annotate_next_use(&mut nest);
        assert_eq!(nest.steps[0].reads[0].next_use_delta, Some(2), "a: 0 → 2");
        assert_eq!(
            nest.steps[2].reads[0].next_use_delta,
            Some(2),
            "a wraps: 2 → 4 (= 0 next iteration)"
        );
        assert_eq!(
            nest.steps[1].reads[0].next_use_delta,
            Some(4),
            "b used once per walk: full cycle"
        );
        assert_eq!(nest.read_footprint_max, 4);
    }

    #[test]
    fn absolute_next_use_respects_final_iteration() {
        let nest = NestSchedule {
            nest: 0,
            iterations: 2,
            steps: vec![TileStep::default(); 3],
            read_footprint_max: 0,
        };
        assert_eq!(nest.total_steps(), 6);
        // Step 2 with wrap delta 3 → step 5: still inside.
        assert_eq!(nest.absolute_next_use(2, Some(3)), Some(5));
        // Step 5 (last) with wrap delta 3 → step 8: past the end.
        assert_eq!(nest.absolute_next_use(5, Some(3)), None);
        assert_eq!(nest.absolute_next_use(0, None), None);
    }

    #[test]
    fn footprint_is_per_step_not_total() {
        let mut nest = NestSchedule {
            nest: 0,
            iterations: 1,
            steps: vec![
                step(vec![tile(0, 0, 1, 10), tile(1, 0, 1, 5)]),
                step(vec![tile(0, 0, 11, 12)]),
            ],
            read_footprint_max: 0,
        };
        annotate_next_use(&mut nest);
        assert_eq!(nest.read_footprint_max, 15);
    }
}
