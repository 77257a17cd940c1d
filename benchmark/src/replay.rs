//! Null-body replay of a compiled plan's tile schedule.
//!
//! [`replay`] issues exactly the tile reads and write-backs the
//! synchronous executor (`ooc_core::run_functional_on`) issues for a
//! plan — same order, same residency rule — but computes nothing in
//! between. What remains is `FileLayout` run enumeration, the
//! `OocArray` gather/scatter and the store stack: the layers the
//! paper's optimizations act on, without the tile-body interpreter
//! that otherwise hides them.

use ooc_core::TiledProgram;
use ooc_ir::ArrayId;
use ooc_runtime::{IoStats, OocArray, Region, RuntimeConfig, Store, Tile};
use ooc_sched::{SlotKey, TileId, TileSchedule};
use std::collections::BTreeMap;
use std::io;

/// The benchmark's do-nothing store: reads leave the (zeroed) buffer
/// alone, writes are dropped. Replaying over it isolates the layout
/// and gather/scatter cost from any data movement.
#[derive(Debug, Clone, Copy)]
pub struct NullStore {
    len: u64,
}

impl NullStore {
    /// A store that claims `len` elements.
    #[must_use]
    pub fn new(len: u64) -> Self {
        NullStore { len }
    }
}

impl Store for NullStore {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_run(&self, _offset: u64, _buf: &mut [f64]) -> io::Result<()> {
        Ok(())
    }

    fn write_run(&mut self, _offset: u64, _buf: &[f64]) -> io::Result<()> {
        Ok(())
    }
}

/// Resolved extents of every array of a plan.
#[must_use]
pub fn array_dims(tp: &TiledProgram, params: &[i64]) -> Vec<Vec<i64>> {
    tp.program
        .arrays
        .iter()
        .map(|decl| decl.dims.iter().map(|d| d.resolve(params)).collect())
        .collect()
}

/// One `OocArray` per array of the plan, in the plan's layouts, over
/// stores from `make_store(array_index, name, len)` — the same
/// factory shape `run_functional_on` takes.
///
/// # Errors
/// Propagates store construction errors.
pub fn build_arrays<S: Store>(
    tp: &TiledProgram,
    params: &[i64],
    mut make_store: impl FnMut(usize, &str, u64) -> io::Result<S>,
) -> io::Result<Vec<OocArray<S>>> {
    let mut arrays = Vec::with_capacity(tp.program.arrays.len());
    for (a, dims) in array_dims(tp, params).iter().enumerate() {
        let name = &tp.program.arrays[a].name;
        let len = u64::try_from(dims.iter().product::<i64>()).expect("positive size");
        let store = make_store(a, name, len)?;
        arrays.push(OocArray::new(
            name,
            dims,
            tp.layouts[a].clone(),
            store,
            RuntimeConfig::default(),
        ));
    }
    Ok(arrays)
}

/// Seeds every array through its layout and resets the statistics,
/// as the executors do before their compute phase.
///
/// # Errors
/// Propagates store errors.
pub fn seed_arrays<S: Store>(
    arrays: &mut [OocArray<S>],
    init: &dyn Fn(ArrayId, &[i64]) -> f64,
) -> io::Result<()> {
    for (a, arr) in arrays.iter_mut().enumerate() {
        arr.initialize(|idx| init(ArrayId(a), idx))?;
        arr.reset_all_metrics();
    }
    Ok(())
}

/// Reads every array whole, as the executors' final dump does.
///
/// # Errors
/// Propagates store errors.
pub fn dump_arrays<S: Store>(arrays: &mut [OocArray<S>]) -> io::Result<Vec<Vec<f64>>> {
    arrays
        .iter_mut()
        .map(|arr| {
            let region = Region::full(arr.dims());
            Ok(arr.read_tile(&region)?.data().to_vec())
        })
        .collect()
}

/// Analytic statistics summed over `arrays`.
#[must_use]
pub fn total_stats<S: Store>(arrays: &[OocArray<S>]) -> IoStats {
    let mut total = IoStats::default();
    for arr in arrays {
        total.merge(&arr.stats());
    }
    total
}

/// Replays `schedule` against `arrays` with an empty tile body.
///
/// Per nest iteration a tile stays resident per staging slot while
/// consecutive steps ask for the same region; when the region moves,
/// a written slot's tile is written back and the new region is read
/// (read-modify-write, also for slots that are only written). Written
/// tiles are flushed at the end of every iteration. Slots are visited
/// in `(array, slot)` order, which is the executor's order.
///
/// # Errors
/// Propagates store errors.
pub fn replay<S: Store>(schedule: &TileSchedule, arrays: &mut [OocArray<S>]) -> io::Result<()> {
    for nest in &schedule.nests {
        for _ in 0..nest.iterations {
            let mut resident: BTreeMap<SlotKey, (Tile, bool)> = BTreeMap::new();
            for step in &nest.steps {
                let mut wanted: Vec<(&TileId, bool)> = step
                    .reads
                    .iter()
                    .map(|r| (&r.tile, false))
                    .chain(step.writes.iter().map(|w| (w, true)))
                    .collect();
                wanted.sort_by_key(|(id, _)| id.key);
                for (id, written) in wanted {
                    if resident
                        .get(&id.key)
                        .is_some_and(|(t, _)| t.region() == &id.region)
                    {
                        continue;
                    }
                    let arr = &mut arrays[id.key.array as usize];
                    if let Some((old, true)) = resident.remove(&id.key) {
                        arr.write_tile(&old)?;
                    }
                    resident.insert(id.key, (arr.read_tile(&id.region)?, written));
                }
            }
            for (key, (tile, written)) in resident {
                if written {
                    arrays[key.array as usize].write_tile(&tile)?;
                }
            }
        }
    }
    Ok(())
}

/// Only the layout work of a replay: `FileLayout::region_runs` for
/// every tile the schedule stages, in schedule order, moving no data.
/// Returns the number of runs, so the call cannot be optimized away.
#[must_use]
pub fn enumerate_runs(schedule: &TileSchedule, tp: &TiledProgram, params: &[i64]) -> u64 {
    let dims = array_dims(tp, params);
    let mut runs = 0u64;
    for nest in &schedule.nests {
        for _ in 0..nest.iterations {
            for step in &nest.steps {
                let tiles = step.reads.iter().map(|r| &r.tile).chain(step.writes.iter());
                for id in tiles {
                    let a = id.key.array as usize;
                    runs += tp.layouts[a].region_runs(&dims[a], &id.region).len() as u64;
                }
            }
        }
    }
    runs
}

/// Tile steps the schedule executes, all nests and iterations.
#[must_use]
pub fn schedule_steps(schedule: &TileSchedule) -> u64 {
    schedule.nests.iter().map(|n| n.total_steps()).sum()
}

/// Body iterations the schedule covers: the volume of every step's
/// iteration-space box, times the nest's iteration count. Exact for
/// rectangular nests, which `mxm` and `trans` are.
#[must_use]
pub fn schedule_iters(schedule: &TileSchedule) -> u64 {
    schedule
        .nests
        .iter()
        .map(|n| {
            let walk: u64 = n
                .steps
                .iter()
                .map(|s| {
                    s.box_lo
                        .iter()
                        .zip(&s.box_hi)
                        .map(|(lo, hi)| u64::try_from(hi - lo + 1).unwrap_or(0))
                        .product::<u64>()
                })
                .sum();
            walk * n.iterations
        })
        .sum()
}
