//! Planning (paper §3.3): every decision about how one nest is tiled
//! and staged, taken once.
//!
//! A [`PlanEnv`] holds what is fixed for a whole program at given
//! parameters — resolved array dimensions, the 1/128 memory budget,
//! the I/O cost weights and the call-size limit. [`plan_nest`] then
//! decides one nest: its level ranges, its communication-free
//! ownership level, the staging slot table ([`Staging`]), the tile
//! spans and their modeled I/O cost. Both tile walks, the schedule
//! extractor, the simulator, the code renderer and the optimizer's
//! cost gate consume the resulting [`NestPlan`]; nothing else derives
//! any of these, so what the executors do and what the model prices
//! cannot drift apart.
//!
//! Two level sets stay separate on purpose: `search_levels` is what
//! the strategy lets the span search vary, `walk_levels` is what
//! tiling legality lets the walk block (see
//! [`TiledProgram::from_optimized`](crate::tiling::TiledProgram)).
//! Where they disagree the walk stages tiles the search never
//! budgeted; `tests/plan_budget.rs` pins the nests where that happens.

use crate::kernel;
use crate::tiling::{self, AffineRow, IoWeights, TilingStrategy};
use ooc_ir::{ArrayId, ArrayRef, DepElem, Dependence, LoopNest, Program};
use ooc_linalg::{Affine, Matrix};
use ooc_runtime::{FileLayout, MemoryBudget, Region};
use pfs_sim::MachineConfig;
use std::io;

/// The paper's memory rule: memory = total out-of-core data / 128.
pub const PAPER_MEMORY_FRACTION: u64 = 128;

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// What planning needs to know about a program at fixed parameters.
#[derive(Debug)]
pub struct PlanEnv<'a> {
    /// Array declarations.
    pub program: &'a Program,
    /// File layout per array.
    pub layouts: &'a [FileLayout],
    /// Parameter values.
    pub params: &'a [i64],
    dims: Vec<Vec<i64>>,
    lens: Vec<u64>,
    budget: MemoryBudget,
    weights: IoWeights,
    max_call_elems: u64,
}

impl<'a> PlanEnv<'a> {
    /// Resolves every array's dimensions and sizes the memory budget
    /// as `1/memory_fraction` of the program's data; costs are weighed
    /// for the default machine.
    ///
    /// # Errors
    /// `InvalidInput` when a parameter or layout is missing, the
    /// fraction is zero, or an array's size (or their sum) is negative
    /// or leaves `u64`.
    pub fn new(
        program: &'a Program,
        layouts: &'a [FileLayout],
        params: &'a [i64],
        memory_fraction: u64,
        max_call_elems: u64,
    ) -> io::Result<Self> {
        if params.len() < program.params.len()
            || layouts.len() < program.arrays.len()
            || memory_fraction == 0
        {
            return Err(invalid(format!(
                "{} parameters, {} layouts and memory fraction {memory_fraction} for a program \
                 of {} parameters and {} arrays",
                params.len(),
                layouts.len(),
                program.params.len(),
                program.arrays.len()
            )));
        }
        let mut dims = Vec::with_capacity(program.arrays.len());
        let mut lens = Vec::with_capacity(program.arrays.len());
        let mut total = 0u64;
        for decl in &program.arrays {
            let d: Vec<i64> = decl.dims.iter().map(|d| d.resolve(params)).collect();
            let len = d
                .iter()
                .try_fold(1u64, |acc, &x| acc.checked_mul(u64::try_from(x).ok()?));
            let sum = len.and_then(|len| total.checked_add(len));
            let (Some(len), Some(sum)) = (len, sum) else {
                return Err(invalid(format!(
                    "array {} of dimensions {d:?} has no u64 size",
                    decl.name
                )));
            };
            total = sum;
            dims.push(d);
            lens.push(len);
        }
        Ok(PlanEnv {
            program,
            layouts,
            params,
            dims,
            lens,
            budget: MemoryBudget::paper_fraction(total, memory_fraction),
            weights: IoWeights::default(),
            max_call_elems,
        })
    }

    /// [`PlanEnv::new`] with the cost weights and the call-size limit
    /// of `machine`.
    ///
    /// # Errors
    /// As [`PlanEnv::new`].
    pub fn for_machine(
        program: &'a Program,
        layouts: &'a [FileLayout],
        params: &'a [i64],
        memory_fraction: u64,
        machine: &MachineConfig,
    ) -> io::Result<Self> {
        let max_call_elems = machine.pfs.max_call_bytes / ooc_runtime::ELEM_BYTES;
        let mut env = PlanEnv::new(program, layouts, params, memory_fraction, max_call_elems)?;
        env.weights = IoWeights::for_machine(machine);
        Ok(env)
    }

    /// The memory budget tiles must fit.
    #[must_use]
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Largest run one I/O call moves, in elements.
    #[must_use]
    pub fn max_call_elems(&self) -> u64 {
        self.max_call_elems
    }

    /// Resolved dimensions of array `a`.
    #[must_use]
    pub fn dims(&self, a: usize) -> &[i64] {
        &self.dims[a]
    }

    /// Element count of array `a`.
    #[must_use]
    pub fn array_elems(&self, a: usize) -> u64 {
        self.lens[a]
    }
}

/// Per-level inclusive ranges of a nest at given parameters: a
/// bounding box of the iteration polyhedron. Each bound form is
/// evaluated over the *interval* of the outer levels' ranges — a
/// lower form at its minimum, an upper form at its maximum — so the
/// box contains every point of a non-rectangular nest; where no form
/// mentions an outer level (every rectangular nest) this is the exact
/// range.
#[must_use]
fn level_ranges(nest: &LoopNest, params: &[i64]) -> Option<Vec<(i64, i64)>> {
    let mut out: Vec<(i64, i64)> = Vec::with_capacity(nest.depth);
    for b in &nest.bounds.loop_bounds() {
        // The extreme of `form` over the box of the outer ranges.
        let extreme = |form: &Affine, max: bool| {
            let mut at = vec![0i64; form.nvars()];
            for ((v, &(lo, hi)), c) in at.iter_mut().zip(&out).zip(&form.var_coeffs) {
                *v = if (c.signum() > 0) == max { hi } else { lo };
            }
            form.eval(&at, params)
        };
        let lo = b.lowers.iter().map(|f| extreme(f, false).ceil()).max()?;
        let hi = b.uppers.iter().map(|f| extreme(f, true).floor()).min()?;
        if lo > hi {
            return None;
        }
        out.push((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?));
    }
    Some(out)
}

/// The communication-free ownership level of `nest`: the first loop
/// level at which every carried dependence is exactly zero, so
/// distinct values of that level's index can execute on distinct
/// workers with no cross-worker flow. The parallel executor shards on
/// it; the simulated Table 3 machine and the optimizer's cost gate
/// chunk nests across processors on it (falling back to the outermost
/// level when there is none).
#[must_use]
fn ownership_level(deps: &[Dependence], depth: usize) -> Option<usize> {
    (0..depth).find(|&l| deps.iter().all(|d| d.vector[l] == DepElem::Exact(0)))
}

/// Splits `lo..=hi` into `procs` near-equal chunks.
pub(crate) fn chunks((lo, hi): (i64, i64), procs: usize) -> Vec<(i64, i64)> {
    // Wide enough that `i · n` cannot wrap: both factors are below 2^64.
    let n = (i128::from(hi) - i128::from(lo) + 1).max(0) as u128;
    let p = procs.max(1) as u128;
    let start = |i: u128| i128::from(lo) + (i * n / p) as i128;
    (0..p)
        .map(|i| (start(i) as i64, (start(i + 1) - 1) as i64))
        .collect()
}

/// One staged tile slot of a nest.
#[derive(Debug)]
struct Slot {
    array: ArrayId,
    /// Slot number within the array (the schedule's `SlotKey::slot`).
    index: usize,
    /// The access class staged here; `None` = the hull of every
    /// reference to the array.
    class: Option<Matrix>,
    /// Rank of the array.
    rank: usize,
    /// The distinct references staged through this slot, compiled:
    /// `rank` subscripts per reference.
    rows: Vec<AffineRow>,
    written: bool,
    /// Per loop level, whether advancing it moves the slot's region.
    varies: Vec<bool>,
}

/// The slot among `slots` reference `r` is staged through.
fn slot_for(slots: &[Slot], r: &ArrayRef) -> Option<usize> {
    slots
        .iter()
        .position(|s| s.array == r.array && s.class.as_ref().is_none_or(|c| *c == r.access))
}

/// The staging slot table of one nest — *the* answer to "which tiles
/// does a tile box stage": one slot per (array, access class), in
/// (array, class) order. References differing only in their constant
/// offsets share a class (their per-tile regions differ by a small
/// halo and are staged together); references with different access
/// matrices (e.g. `A(i,k)` and `A(j,k)` in `syr2k`) are staged as
/// separate tiles — hulling them would balloon to nearly the whole
/// array whenever the two index ranges are far apart. A written array
/// touched through several classes falls back to a single hull slot
/// so every read sees the freshest values. A slot's position is its
/// dense index — the index both walks keep their staged tiles under.
#[derive(Debug)]
pub struct Staging {
    slots: Vec<Slot>,
    /// Slots some right-hand side reads / some statement writes, in
    /// order of first appearance in the body — the order the
    /// simulator issues a step's reads and write-backs in.
    reads: Vec<usize>,
    writes: Vec<usize>,
}

impl Staging {
    /// Builds the slot table of `nest`.
    #[must_use]
    pub fn for_nest(nest: &LoopNest) -> Self {
        let all = nest.all_refs();
        let mut slots = Vec::new();
        for array in nest.arrays() {
            let mut classes: Vec<&Matrix> = Vec::new();
            for r in all.iter().filter(|r| r.array == array) {
                if !classes.contains(&&r.access) {
                    classes.push(&r.access);
                }
            }
            let in_class = |r: &ArrayRef, class: Option<&Matrix>| {
                r.array == array && class.is_none_or(|c| r.access == *c)
            };
            let written = |class| nest.body.iter().any(|st| in_class(&st.lhs, class));
            let groups: Vec<Option<&Matrix>> = if classes.len() > 1 && written(None) {
                vec![None]
            } else {
                classes.into_iter().map(Some).collect()
            };
            for (index, class) in groups.into_iter().enumerate() {
                let mut refs: Vec<ArrayRef> = Vec::new();
                for r in all.iter().filter(|r| in_class(r, class)) {
                    if !refs.contains(r) {
                        refs.push((*r).clone());
                    }
                }
                let rows: Vec<AffineRow> = refs
                    .iter()
                    .flat_map(|r| (0..r.rank()).map(move |d| AffineRow::of(r, d)))
                    .collect();
                let varies = (0..nest.depth)
                    .map(|l| rows.iter().any(|row| row.mentions(l)))
                    .collect();
                slots.push(Slot {
                    array,
                    index,
                    written: written(class),
                    class: class.cloned(),
                    rank: refs.first().map_or(0, ArrayRef::rank),
                    rows,
                    varies,
                });
            }
        }
        let order = |refs: Vec<&ArrayRef>| {
            let mut order: Vec<usize> = Vec::new();
            for slot in refs.into_iter().filter_map(|r| slot_for(&slots, r)) {
                if !order.contains(&slot) {
                    order.push(slot);
                }
            }
            order
        };
        Staging {
            reads: order(nest.body.iter().flat_map(|st| st.reads()).collect()),
            writes: order(nest.body.iter().map(|st| &st.lhs).collect()),
            slots,
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The `(array, slot within the array)` key of dense slot `slot`.
    #[must_use]
    pub fn key(&self, slot: usize) -> (ArrayId, usize) {
        (self.slots[slot].array, self.slots[slot].index)
    }

    /// Whether dense slot `slot` receives writes (the executors read
    /// every slot and write these back).
    #[must_use]
    pub fn written(&self, slot: usize) -> bool {
        self.slots[slot].written
    }

    /// The slots some right-hand side reads, in body order.
    #[must_use]
    pub fn reads(&self) -> &[usize] {
        &self.reads
    }

    /// The written slots, in body order.
    #[must_use]
    pub fn writes(&self) -> &[usize] {
        &self.writes
    }

    /// The dense slot reference `r` reads or writes through.
    #[must_use]
    pub fn slot_for(&self, r: &ArrayRef) -> Option<usize> {
        slot_for(&self.slots, r)
    }

    /// A key that is equal for slots staged through the same access
    /// matrix, across arrays: members of an interleaved group staged
    /// through one matrix are one fetch.
    #[must_use]
    pub fn class_key(&self, slot: usize) -> usize {
        let class = &self.slots[slot].class;
        self.slots
            .iter()
            .position(|s| class.is_some() && s.class == *class)
            .unwrap_or(slot)
    }

    /// Writes the region slot `slot` stages for the tile box `lo..=hi`
    /// — the hull of its references' regions, not yet clamped to the
    /// array — into `out_lo..=out_hi`, one entry per dimension of the
    /// slot's array. The one place a staged region's bounds are
    /// computed: every reference is evaluated from subscripts compiled
    /// when the slot table was built, in `i128` for integer
    /// coefficients and in exact `Rational`s otherwise.
    ///
    /// `None` when a bound leaves `i64` or an intermediate value
    /// `i128`; the outputs are then unspecified.
    pub fn hull_into(
        &self,
        slot: usize,
        lo: &[i64],
        hi: &[i64],
        out_lo: &mut [i64],
        out_hi: &mut [i64],
    ) -> Option<()> {
        tiling::hull_into(&self.slots[slot].rows, lo, hi, out_lo, out_hi)
    }

    /// [`Staging::hull_into`] `region`, for a box inside the range
    /// [`plan_nest`] checked.
    fn region_into(&self, slot: usize, lo: &[i64], hi: &[i64], region: &mut Region) {
        self.hull_into(slot, lo, hi, &mut region.lo, &mut region.hi)
            .expect("plan_nest checked that every box's region fits i64");
    }

    /// A region of slot `slot`'s rank for [`Staging::hull_into`] to
    /// write into.
    fn scratch(&self, slot: usize) -> Region {
        let rank = self.slots[slot].rank;
        Region::new(vec![0; rank], vec![0; rank])
    }

    /// The region slot `slot` stages for the tile box `lo..=hi`: the
    /// hull of its references' regions, not yet clamped to the array.
    ///
    /// # Panics
    /// Panics when a bound leaves `i64`, which no box inside a planned
    /// nest's ranges can make it do.
    #[must_use]
    pub fn region(&self, slot: usize, lo: &[i64], hi: &[i64]) -> Region {
        let mut region = self.scratch(slot);
        self.region_into(slot, lo, hi, &mut region);
        region
    }

    /// Estimated in-memory footprint (elements) of one tile per slot
    /// for the given per-level spans, each extent clamped to the
    /// array's (a region can spill past the declared bounds at the
    /// interval-arithmetic level).
    #[must_use]
    pub fn footprint(&self, env: &PlanEnv, spans: &[i64]) -> u64 {
        let lo = vec![1i64; spans.len()];
        (0..self.slots())
            .map(|slot| self.tile_elems(env, slot, &lo, spans, &mut self.scratch(slot)))
            .sum()
    }

    /// One slot's term of [`Staging::footprint`], for the tile box
    /// `lo..=hi`, computed in the caller's `hull`. Depends on the box's
    /// extent along the levels the slot varies with only.
    fn tile_elems(
        &self,
        env: &PlanEnv,
        slot: usize,
        lo: &[i64],
        hi: &[i64],
        hull: &mut Region,
    ) -> u64 {
        self.region_into(slot, lo, hi, hull);
        let dims = env.dims(self.slots[slot].array.0);
        dims.iter()
            .enumerate()
            .map(|(d, &dim)| hull.extent(d).min(dim).max(1).unsigned_abs())
            .product()
    }

    /// Modeled I/O time of a full nest execution for candidate
    /// per-level spans, matching the executors' tile-loop-invariant
    /// hoisting: a slot is (re)staged once per combination of the tile
    /// loops its region depends on **and every loop above them**
    /// (consecutive-step caching), paying the calls and bytes of one
    /// region each time. Written slots pay twice (read + write-back).
    #[must_use]
    pub fn io_cost(&self, env: &PlanEnv, ranges: &[(i64, i64)], spans: &[i64]) -> f64 {
        let trips: Vec<f64> = ranges
            .iter()
            .zip(spans)
            .map(|(&range, &s)| trips(range, s))
            .collect();
        let (lo, hi) = first_box(ranges, spans);
        self.priced(env, &trips, |slot| {
            self.tile_transfer(env, slot, &lo, &hi, &mut self.scratch(slot))
        })
    }

    /// `(calls, elements)` of staging slot `slot` once for the tile
    /// box `lo..=hi`, computed in the caller's `hull`. Depends on the
    /// box's bounds along the levels the slot varies with only.
    fn tile_transfer(
        &self,
        env: &PlanEnv,
        slot: usize,
        lo: &[i64],
        hi: &[i64],
        hull: &mut Region,
    ) -> (u64, u64) {
        let array = self.slots[slot].array.0;
        self.region_into(slot, lo, hi, hull);
        let (runs, elements) =
            env.layouts[array].region_run_counts(env.dims(array), &hull.lo, &hull.hi);
        let calls = ooc_runtime::run_calls(runs, elements, env.max_call_elems);
        (calls, elements)
    }

    /// The cost model proper: with `trips[l]` tile steps along level
    /// `l` and `transfer(slot)` the `(calls, elements)` of staging the
    /// slot once, the modeled I/O time, summed in slot order.
    fn priced(
        &self,
        env: &PlanEnv,
        trips: &[f64],
        mut transfer: impl FnMut(usize) -> (u64, u64),
    ) -> f64 {
        let mut total = 0f64;
        for (i, slot) in self.slots.iter().enumerate() {
            let (calls, elements) = transfer(i);
            // Deepest tile level this slot's region varies with: its
            // tile stays cached while only deeper levels advance.
            let deepest = (0..trips.len())
                .rev()
                .find(|&l| trips[l] > 1.0 && slot.varies[l]);
            let restages: f64 = deepest.map_or(1.0, |d| trips[..=d].iter().product());
            let accesses = if slot.written { 2.0 } else { 1.0 };
            total += restages
                * accesses
                * (calls as f64 * env.weights.per_call + elements as f64 * env.weights.per_elem);
        }
        total
    }

    /// Checks that every region a box inside `ranges` (or inside the
    /// origin box of the same extents, which [`Staging::footprint`]
    /// uses) can stage has `i64` bounds.
    fn check_regions(&self, ranges: &[(i64, i64)]) -> io::Result<()> {
        let origin: Vec<(i64, i64)> = ranges.iter().map(|&(lo, hi)| (1, hi - lo + 1)).collect();
        for ranges in [ranges, &origin] {
            let (lo, hi): (Vec<i64>, Vec<i64>) = ranges.iter().copied().unzip();
            for slot in 0..self.slots() {
                let mut hull = self.scratch(slot);
                if self
                    .hull_into(slot, &lo, &hi, &mut hull.lo, &mut hull.hi)
                    .is_none()
                {
                    return Err(invalid(format!(
                        "a reference to {:?} leaves i64 over {ranges:?}",
                        self.slots[slot].array
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Every planning decision of one nest. See the module docs.
#[derive(Debug)]
pub struct NestPlan<'e> {
    env: &'e PlanEnv<'e>,
    /// Per-level inclusive ranges (a bounding box of the iterations).
    pub ranges: Vec<(i64, i64)>,
    /// The communication-free ownership level, if any.
    pub own_level: Option<usize>,
    /// Levels the span search was allowed to tile (the strategy's).
    pub search_levels: Vec<usize>,
    /// Levels the walk blocks (the strategy's, minus those tiling
    /// legality forbids).
    pub walk_levels: Vec<usize>,
    /// Tile span per level.
    pub spans: Vec<i64>,
    /// Modeled I/O time of the nest under `spans`.
    pub cost: f64,
    /// The staging slot table.
    pub staging: Staging,
    /// Whether the nest's tile body may run innermost runs in strips
    /// (see [`TileKernel`](crate::TileKernel)).
    pub(crate) strips: bool,
}

/// Plans `nest`: `strategy` shapes the tile spans within the budget
/// of `env`, the walk blocks `walk_levels`. With `restrict =
/// Some(procs)` the spans are searched on the largest of the `procs`
/// chunks of the ownership level (the outermost when there is none) —
/// how the simulated machine and the optimizer's cost gate run a nest.
/// `None` when there is nothing to run: the nest's bounds are empty at
/// these parameters, or it has no loop level.
///
/// # Errors
/// `InvalidInput` when a staged region's bounds leave `i64`.
pub fn plan_nest<'e>(
    env: &'e PlanEnv<'e>,
    nest: &LoopNest,
    strategy: TilingStrategy,
    walk_levels: &[usize],
    restrict: Option<usize>,
) -> io::Result<Option<NestPlan<'e>>> {
    let Some(ranges) = level_ranges(nest, env.params).filter(|r| !r.is_empty()) else {
        return Ok(None);
    };
    let staging = Staging::for_nest(nest);
    staging.check_regions(&ranges)?;
    let by_array = ooc_ir::array_dependences(nest);
    let own_level = ownership_level(&ooc_ir::merge_arrays(&by_array), nest.depth);
    let mut search_ranges = ranges.clone();
    if let Some(procs) = restrict {
        let l = own_level.unwrap_or(0);
        let largest = chunks(ranges[l], procs)
            .into_iter()
            .max_by_key(|(lo, hi)| hi - lo);
        search_ranges[l] = largest.unwrap_or(ranges[l]);
    }
    let (spans, cost) = plan_spans(env, &staging, &search_ranges, strategy);
    Ok(Some(NestPlan {
        env,
        ranges,
        own_level,
        search_levels: strategy.tiled_levels(nest.depth),
        walk_levels: walk_levels.to_vec(),
        spans,
        cost,
        staging,
        strips: kernel::strips_legal(nest, &by_array),
    }))
}

impl NestPlan<'_> {
    /// Footprint of one tile per slot under the planned spans — what
    /// the search held against the budget.
    #[must_use]
    pub fn planned_footprint(&self) -> u64 {
        self.staging.footprint(self.env, &self.spans)
    }

    /// Footprint of the tiles the walk stages: the planned span on
    /// the levels it blocks, the whole range on the others.
    #[must_use]
    pub fn walked_footprint(&self) -> u64 {
        let spans: Vec<i64> = (0..self.spans.len())
            .map(|l| {
                if self.walk_levels.contains(&l) {
                    self.spans[l]
                } else {
                    self.ranges[l].1 - self.ranges[l].0 + 1
                }
            })
            .collect();
        self.staging.footprint(self.env, &spans)
    }

    /// The region dense slot `slot` stages for the tile box
    /// `lo..=hi`, clamped to its array.
    #[must_use]
    pub fn staged_slot(&self, slot: usize, lo: &[i64], hi: &[i64]) -> Region {
        let dims = self.env.dims(self.staging.key(slot).0 .0);
        self.staging.region(slot, lo, hi).clamped(dims)
    }

    /// The (dense slot, region) pairs a tile box stages, in slot
    /// order.
    #[must_use]
    pub fn staged(&self, lo: &[i64], hi: &[i64]) -> Vec<(usize, Region)> {
        (0..self.staging.slots())
            .map(|slot| (slot, self.staged_slot(slot, lo, hi)))
            .collect()
    }

    /// Walks the tile boxes with `level` restricted to `chunk`, in
    /// execution order, invoking `f(box_lo, box_hi)`.
    pub fn for_each_box(
        &self,
        level: usize,
        chunk: (i64, i64),
        f: &mut impl FnMut(&[i64], &[i64]),
    ) {
        let tile_lists: Vec<Vec<(i64, i64)>> = (0..self.ranges.len())
            .map(|l| {
                let (rlo, rhi) = if l == level { chunk } else { self.ranges[l] };
                let span = if self.walk_levels.contains(&l) {
                    self.spans[l].max(1)
                } else {
                    (rhi - rlo + 1).max(1)
                };
                let starts = (rlo..=rhi).step_by(usize::try_from(span).unwrap_or(usize::MAX));
                starts.map(|t| (t, (t + span - 1).min(rhi))).collect()
            })
            .collect();
        for_each_product(&tile_lists, &mut Vec::new(), &mut |tiles| {
            let (lo, hi): (Vec<i64>, Vec<i64>) = tiles.iter().copied().unzip();
            f(&lo, &hi);
        });
    }

    /// Every tile box of the nest, in execution order.
    #[must_use]
    pub fn boxes(&self) -> Vec<(Vec<i64>, Vec<i64>)> {
        let mut boxes = Vec::new();
        self.for_each_box(0, self.ranges[0], &mut |lo, hi| {
            boxes.push((lo.to_vec(), hi.to_vec()));
        });
        boxes
    }
}

/// Chooses per-level tile spans and prices them.
///
/// * [`TilingStrategy::Traditional`] / [`TilingStrategy::Slab`] — one
///   common span from the budget on the strategy's levels (no shape
///   intelligence).
/// * [`TilingStrategy::Optimized`] — the span search over every level.
/// * [`TilingStrategy::OutOfCore`] — §3.3 prefers the innermost loop
///   untiled (its stride-1 slab is read whole), but a compiler armed
///   with this cost model only keeps the slab when it is not worse —
///   tiny memory budgets can make full-width slabs lose to free
///   shapes.
fn plan_spans(
    env: &PlanEnv,
    staging: &Staging,
    ranges: &[(i64, i64)],
    strategy: TilingStrategy,
) -> (Vec<i64>, f64) {
    match strategy {
        TilingStrategy::Traditional | TilingStrategy::Slab => {
            let spans = budget_spans(env, staging, ranges, &strategy.tiled_levels(ranges.len()));
            let cost = staging.io_cost(env, ranges, &spans);
            (spans, cost)
        }
        TilingStrategy::Optimized => search_spans(env, staging, ranges).free,
        TilingStrategy::OutOfCore => {
            let Searched { free, pinned } = search_spans(env, staging, ranges);
            if pinned.1 <= free.1 {
                pinned
            } else {
                free
            }
        }
    }
}

/// One common span `B ≥ 1` on every tiled level — the largest whose
/// tile working set fits the memory budget, by binary search — and the
/// whole range on the others.
fn budget_spans(
    env: &PlanEnv,
    staging: &Staging,
    ranges: &[(i64, i64)],
    tiled: &[usize],
) -> Vec<i64> {
    let extents: Vec<i64> = ranges.iter().map(|(lo, hi)| (hi - lo + 1).max(1)).collect();
    let spans_at = |b: i64| -> Vec<i64> {
        let span = |(l, &extent): (usize, &i64)| {
            if tiled.contains(&l) {
                b.min(extent).max(1)
            } else {
                extent
            }
        };
        extents.iter().enumerate().map(span).collect()
    };
    let fits = |b: i64| staging.footprint(env, &spans_at(b)) <= env.budget.capacity();
    let max_extent = extents.iter().copied().max().unwrap_or(1);
    if fits(max_extent) {
        return spans_at(max_extent);
    }
    // fits(lo) may be false only when even B=1 overflows — the runtime
    // then still makes progress one row at a time.
    let (mut lo, mut hi) = (1i64, max_extent);
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    spans_at(lo.max(1))
}

/// The first tile box of `ranges` under `spans` — the one the cost
/// model prices.
fn first_box(ranges: &[(i64, i64)], spans: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let lo: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
    let hi = lo.iter().zip(spans).map(|(&lo, &s)| lo + s - 1).collect();
    (lo, hi)
}

/// Tile steps along a level of range `lo..=hi` under span `s`.
fn trips((lo, hi): (i64, i64), s: i64) -> f64 {
    let extent = (hi - lo + 1).max(1);
    ((extent - 1) / s.max(1) + 1) as f64
}

/// What one tile of one slot costs: its footprint term and the calls
/// and elements of staging it once.
#[derive(Clone, Copy)]
struct TileCost {
    elems: u64,
    calls: u64,
    moved: u64,
}

/// The span search's scorer. A slot's tile depends only on the spans
/// of the levels its references vary with, so every per-slot answer a
/// search can ask for is tabulated once — by the per-slot functions
/// [`Staging::footprint`] and [`Staging::io_cost`] are sums over — and
/// a trial is one lookup per slot.
struct SpanTables {
    /// Candidate spans per level: the powers of two below the level's
    /// extent, then the extent.
    cands: Vec<Vec<i64>>,
    /// Tile steps per level and candidate.
    trips: Vec<Vec<f64>>,
    /// Per slot: the index stride of every level (0 where the slot
    /// does not vary) and one entry per combination of candidates of
    /// the levels it varies with.
    slots: Vec<(Vec<usize>, Vec<TileCost>)>,
}

impl SpanTables {
    fn build(env: &PlanEnv, staging: &Staging, ranges: &[(i64, i64)]) -> Self {
        let cands: Vec<Vec<i64>> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let extent = (hi - lo + 1).max(1);
                let double = |&x: &i64| (x < extent).then(|| x.saturating_mul(2).min(extent));
                std::iter::successors(Some(1i64), double).collect()
            })
            .collect();
        let trips = ranges
            .iter()
            .zip(&cands)
            .map(|(&range, cands)| cands.iter().map(|&s| trips(range, s)).collect())
            .collect();
        let lo: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
        let origin = vec![1i64; ranges.len()];
        let slots = (0..staging.slots())
            .map(|slot| {
                let varies = &staging.slots[slot].varies;
                let choices: Vec<Vec<usize>> = (0..ranges.len())
                    .map(|l| (0..if varies[l] { cands[l].len() } else { 1 }).collect())
                    .collect();
                let mut strides = vec![0usize; ranges.len()];
                let mut stride = 1;
                for l in (0..ranges.len()).rev().filter(|&l| varies[l]) {
                    strides[l] = stride;
                    stride *= cands[l].len();
                }
                // One scratch set per slot: an entry's spans, the upper
                // corner of its first box, and the hull they stage.
                let (mut spans, mut hi, mut hull) =
                    (origin.clone(), lo.clone(), staging.scratch(slot));
                let mut entries = Vec::with_capacity(stride);
                for_each_product(&choices, &mut Vec::new(), &mut |choice| {
                    for (l, &i) in choice.iter().enumerate() {
                        spans[l] = cands[l][i];
                        hi[l] = lo[l] + spans[l] - 1;
                    }
                    let (calls, moved) = staging.tile_transfer(env, slot, &lo, &hi, &mut hull);
                    entries.push(TileCost {
                        elems: staging.tile_elems(env, slot, &origin, &spans, &mut hull),
                        calls,
                        moved,
                    });
                });
                (strides, entries)
            })
            .collect();
        SpanTables {
            cands,
            trips,
            slots,
        }
    }

    /// Slot `slot`'s tile under the candidates `choice` picks per level.
    fn tile(&self, slot: usize, choice: &[usize]) -> TileCost {
        let (strides, entries) = &self.slots[slot];
        let at: usize = choice.iter().zip(strides).map(|(&i, &s)| i * s).sum();
        entries[at]
    }

    /// [`Staging::footprint`] of the spans `choice` picks.
    fn footprint(&self, choice: &[usize]) -> u64 {
        (0..self.slots.len())
            .map(|slot| self.tile(slot, choice).elems)
            .sum()
    }

    /// [`Staging::io_cost`] of the spans `choice` picks — the same
    /// expression over the same operands, hence the same bits. `trips`
    /// is the caller's buffer, one entry per level.
    fn io_cost(
        &self,
        env: &PlanEnv,
        staging: &Staging,
        choice: &[usize],
        trips: &mut [f64],
    ) -> f64 {
        for ((t, &i), level) in trips.iter_mut().zip(choice).zip(&self.trips) {
            *t = level[i];
        }
        staging.priced(env, trips, |slot| {
            let tile = self.tile(slot, choice);
            (tile.calls, tile.moved)
        })
    }

    /// The spans `choice` picks, with their cost.
    fn plan(&self, (choice, cost): (Vec<usize>, f64)) -> (Vec<i64>, f64) {
        let spans = choice.iter().zip(&self.cands).map(|(&i, c)| c[i]);
        (spans.collect(), cost)
    }
}

/// The cheapest fitting spans over every level (`free`) and with the
/// innermost level kept whole (`pinned`), each with its modeled cost.
struct Searched {
    free: (Vec<i64>, f64),
    pinned: (Vec<i64>, f64),
}

/// Exhaustive enumeration over power-of-two spans per level (≤ 13
/// candidates per level, nest depth ≤ 4 in practice), minimizing
/// [`Staging::io_cost`] subject to the memory budget: every version
/// gets its true optimum under the cost model, so version differences
/// are structural — layouts and loop order — rather than artifacts of a
/// heuristic search. The first strict improvement in enumeration order
/// wins; when nothing fits (budget below even 1-wide tiles) the minimal
/// spans make progress. The trials that keep the innermost level whole
/// are a subsequence of all trials, so one pass finds both optima.
fn search_spans(env: &PlanEnv, staging: &Staging, ranges: &[(i64, i64)]) -> Searched {
    let tables = SpanTables::build(env, staging, ranges);
    let choices: Vec<Vec<usize>> = tables
        .cands
        .iter()
        .map(|c| (0..c.len()).collect())
        .collect();
    let inner = ranges.len() - 1;
    let whole = tables.cands[inner].len() - 1;
    let mut free: Option<(Vec<usize>, f64)> = None;
    let mut pinned: Option<(Vec<usize>, f64)> = None;
    let mut trips = vec![0f64; ranges.len()];
    for_each_product(&choices, &mut Vec::new(), &mut |choice| {
        if tables.footprint(choice) > env.budget.capacity() {
            return;
        }
        let cost = tables.io_cost(env, staging, choice, &mut trips);
        let keep_if_cheaper = |best: &mut Option<(Vec<usize>, f64)>| {
            if cost < best.as_ref().map_or(f64::INFINITY, |b| b.1) {
                *best = Some((choice.to_vec(), cost));
            }
        };
        keep_if_cheaper(&mut free);
        if choice[inner] == whole {
            keep_if_cheaper(&mut pinned);
        }
    });
    let mut minimal = |inner_choice: usize| {
        let mut choice = vec![0; ranges.len()];
        choice[inner] = inner_choice;
        let cost = tables.io_cost(env, staging, &choice, &mut trips);
        (choice, cost)
    };
    Searched {
        free: tables.plan(free.unwrap_or_else(|| minimal(0))),
        pinned: tables.plan(pinned.unwrap_or_else(|| minimal(whole))),
    }
}

/// Calls `f` with every combination of one entry per list, the last
/// list varying fastest (`current` holds the entries chosen so far).
fn for_each_product<T: Copy>(lists: &[Vec<T>], current: &mut Vec<T>, f: &mut impl FnMut(&[T])) {
    let Some(list) = lists.get(current.len()) else {
        f(current);
        return;
    };
    for &entry in list {
        current.push(entry);
        for_each_product(lists, current, f);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::tiled;
    use ooc_ir::{Expr, Statement};

    fn identity(a: ArrayId, offset: Vec<i64>) -> ArrayRef {
        ArrayRef::new(a, &[vec![1, 0], vec![0, 1]], offset)
    }

    fn transposed(a: ArrayId) -> ArrayRef {
        ArrayRef::new(a, &[vec![0, 1], vec![1, 0]], vec![0, 0])
    }

    /// `X(i,j) = Y(j,i)` over two `N × N` arrays.
    fn transpose_program() -> (Program, LoopNest) {
        let mut p = Program::new(&["N"]);
        let x = p.declare_array("X", 2, 0);
        let y = p.declare_array("Y", 2, 0);
        let s = Statement::assign(identity(x, vec![0, 0]), Expr::Ref(transposed(y)));
        (p, LoopNest::rectangular("n", 2, 1, 0, vec![s]))
    }

    /// An environment over `p` with an explicit budget in elements.
    fn env_with<'a>(
        p: &'a Program,
        layouts: &'a [FileLayout],
        params: &'a [i64],
        capacity: u64,
    ) -> PlanEnv<'a> {
        let mut env = PlanEnv::new(p, layouts, params, 1, 1 << 20).expect("sized");
        env.budget = MemoryBudget::new(capacity);
        env
    }

    #[test]
    fn environment_rejects_what_it_cannot_size() {
        let (p, _) = transpose_program();
        let layouts = vec![FileLayout::row_major(2), FileLayout::col_major(2)];
        let kind = |params: &[i64], fraction: u64| {
            PlanEnv::new(&p, &layouts, params, fraction, 1 << 20)
                .map(|env| env.budget().capacity())
                .map_err(|e| e.kind())
        };
        assert_eq!(kind(&[16], 128), Ok(2 * 16 * 16 / 128));
        assert_eq!(kind(&[], 128), Err(io::ErrorKind::InvalidInput));
        assert_eq!(kind(&[16], 0), Err(io::ErrorKind::InvalidInput));
        assert_eq!(kind(&[-4], 128), Err(io::ErrorKind::InvalidInput));
        assert_eq!(kind(&[i64::MAX], 128), Err(io::ErrorKind::InvalidInput));
        let short = PlanEnv::new(&p, &layouts[..1], &[16], 128, 1 << 20);
        assert_eq!(
            short.map(|_| ()).map_err(|e| e.kind()),
            Err(io::ErrorKind::InvalidInput)
        );
    }

    #[test]
    fn a_region_outside_i64_is_an_error_not_a_panic() {
        // X(i + 2^62, j) = 0 plans; X(4·i, j) over i up to 2^61 does not.
        let mut p = Program::new(&["N"]);
        let x = p.declare_array("X", 2, 0);
        let far = ArrayRef::new(x, &[vec![4, 0], vec![0, 1]], vec![0, 0]);
        let nest = LoopNest::rectangular(
            "far",
            2,
            1,
            0,
            vec![Statement::assign(far, Expr::Const(0.0))],
        );
        let layouts = vec![FileLayout::row_major(2)];
        let env = env_with(&p, &layouts, &[1 << 31], 64);
        assert!(plan_nest(&env, &nest, TilingStrategy::Slab, &[0], None).is_ok());
        let mut wide = nest.clone();
        wide.bounds = ooc_linalg::Polyhedron::universe(2, 1);
        wide.bounds.add_var_range(0, 1, i64::MAX / 2);
        wide.bounds.add_var_range(1, 1, 4);
        let err = plan_nest(&env, &wide, TilingStrategy::Slab, &[0], None).expect_err("overflows");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// Level ranges past 2^62 plan inside the range: the candidate
    /// doubling saturates, trip counts do not wrap, and the chunks of a
    /// restricted search are computed wide.
    #[test]
    fn wide_level_ranges_plan_inside_the_range() {
        let mut p = Program::new(&["N"]);
        let x = p.declare_array("X", 2, 0);
        let zero = Statement::assign(identity(x, vec![0, 0]), Expr::Const(0.0));
        let layouts = vec![FileLayout::row_major(2)];
        let env = env_with(&p, &layouts, &[1 << 31], 64);
        for (top, restrict) in [((1i64 << 62) + 1, None), (1 << 62, Some(16))] {
            let mut nest = LoopNest::rectangular("wide", 2, 1, 0, vec![zero.clone()]);
            nest.bounds = ooc_linalg::Polyhedron::universe(2, 1);
            nest.bounds.add_var_range(0, 1, top);
            nest.bounds.add_var_range(1, 1, 4);
            let plan = plan_nest(&env, &nest, TilingStrategy::Optimized, &[0, 1], restrict)
                .expect("regions fit i64")
                .expect("not empty");
            assert_eq!(plan.ranges, vec![(1, top), (1, 4)]);
            // The searched range of level 0: the largest chunk.
            let (lo, hi) = restrict.map_or((1, top), |procs| {
                let largest = chunks((1, top), procs)
                    .into_iter()
                    .max_by_key(|(lo, hi)| hi - lo);
                largest.expect("a chunk per processor")
            });
            assert!(1 <= lo && lo <= hi && hi <= top, "{lo}..={hi}");
            assert!(
                (1..=hi - lo + 1).contains(&plan.spans[0]),
                "{:?}",
                plan.spans
            );
            assert!((1..=4).contains(&plan.spans[1]), "{:?}", plan.spans);
            assert!(plan.planned_footprint() <= env.budget().capacity());
            assert!(plan.cost.is_finite(), "{}", plan.cost);
        }
        // 2^62 rows in 16 ascending, disjoint, contiguous chunks.
        let cs = chunks((1, 1 << 62), 16);
        assert_eq!(cs.len(), 16);
        assert_eq!((cs[0].0, cs[15].1), (1, 1 << 62));
        for (c, next) in cs.iter().zip(&cs[1..]) {
            assert!(c.0 <= c.1 && c.1 + 1 == next.0, "{cs:?}");
        }
    }

    #[test]
    fn level_ranges_bound_a_triangle() {
        // do i = 1,N; do j = 1,i: the inner range at the first outer
        // iteration is 1..=1, the bounding box needs 1..=N.
        let mut nest = LoopNest::rectangular("tri", 2, 1, 0, Vec::new());
        let (i, j) = (Affine::var(2, 1, 0), Affine::var(2, 1, 1));
        nest.bounds.add_ge0(i.sub(&j));
        assert_eq!(level_ranges(&nest, &[9]), Some(vec![(1, 9), (1, 9)]));
        // Rectangular nests keep their exact ranges.
        let rect = LoopNest::rectangular("rect", 3, 1, 0, Vec::new());
        assert_eq!(level_ranges(&rect, &[5]), Some(vec![(1, 5); 3]));
        assert_eq!(level_ranges(&rect, &[0]), None);
    }

    #[test]
    fn ownership_level_is_zero_for_independent_nests() {
        for tn in &tiled().nests {
            let deps = ooc_ir::nest_dependences(&tn.nest);
            let own = ownership_level(&deps, tn.nest.depth);
            assert_eq!(own, Some(0), "{}", tn.nest.name);
        }
    }

    #[test]
    fn chunk_partition_covers_range() {
        let cs = chunks((1, 100), 16);
        assert_eq!(cs.len(), 16);
        assert_eq!(cs[0].0, 1);
        assert_eq!(cs[15].1, 100);
        let total: i64 = cs.iter().map(|(a, b)| b - a + 1).sum();
        assert_eq!(total, 100);
        // Degenerate: more procs than rows.
        let cs = chunks((1, 3), 8);
        let covered: i64 = cs.iter().map(|(a, b)| (b - a + 1).max(0)).sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn slots_follow_classes_and_hull_written_arrays() {
        // A(i,j) = A(i-1,j) + B(j,i) + B(i,j): A's two references share
        // a class (one written slot, hulled over the halo); B is read
        // through two classes (two read slots).
        let (a, b) = (ArrayId(0), ArrayId(1));
        let sum = |l, r| Expr::Add(Box::new(l), Box::new(r));
        let rhs = sum(
            sum(
                Expr::Ref(identity(a, vec![-1, 0])),
                Expr::Ref(transposed(b)),
            ),
            Expr::Ref(identity(b, vec![0, 0])),
        );
        let stmt = Statement::assign(identity(a, vec![0, 0]), rhs);
        let mut nest = LoopNest::rectangular("n", 2, 1, 0, vec![stmt]);
        let st = Staging::for_nest(&nest);
        assert_eq!(st.slots(), 3);
        assert_eq!((st.key(0), st.key(1), st.key(2)), ((a, 0), (b, 0), (b, 1)));
        assert_eq!((st.written(0), st.written(1)), (true, false));
        assert_eq!((st.writes(), st.reads()), (&[0][..], &[0, 1, 2][..]));
        let hull = st.region(0, &[3, 1], &[5, 4]);
        assert_eq!((hull.lo, hull.hi), (vec![2, 1], vec![5, 4]));
        // B(i,j) and A(i,j) share an access matrix, B(j,i) does not.
        assert_eq!(st.class_key(2), st.class_key(0));
        assert_ne!(st.class_key(1), st.class_key(0));
        // Writing B(j,i) as well makes B a written two-class array:
        // one hull slot covering both orientations.
        nest.body
            .push(Statement::assign(transposed(b), Expr::Const(0.0)));
        let st = Staging::for_nest(&nest);
        assert_eq!(st.slots(), 2);
        assert!(st.written(1));
        let hull = st.region(1, &[1, 3], &[2, 4]);
        assert_eq!((hull.lo, hull.hi), (vec![1, 1], vec![4, 4]));
        assert_eq!(st.class_key(1), 1, "a hull slot shares with nobody");
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let (p, nest) = transpose_program();
        let layouts = vec![FileLayout::row_major(2), FileLayout::col_major(2)];
        let env = env_with(&p, &layouts, &[16], 64);
        // Spans 2x4: X tile 2x4 = 8; Y tile (transposed) 4x2 = 8.
        assert_eq!(Staging::for_nest(&nest).footprint(&env, &[2, 4]), 16);
    }

    #[test]
    fn budget_spans_fit_the_budget() {
        let mut p = Program::new(&["N"]);
        let a = p.declare_array("A", 2, 0);
        let s = Statement::assign(identity(a, vec![0, 0]), Expr::Const(0.0));
        let nest = LoopNest::rectangular("n", 2, 1, 0, vec![s]);
        let layouts = vec![FileLayout::row_major(2)];
        let st = Staging::for_nest(&nest);
        let ranges = [(1, 16), (1, 16)];
        let spans = |capacity, tiled: &[usize]| {
            budget_spans(
                &env_with(&p, &layouts, &[16], capacity),
                &st,
                &ranges,
                tiled,
            )
        };
        // Level 0 only: tile = B x 16. Budget 64 elements -> B = 4.
        assert_eq!(spans(64, &[0]), vec![4, 16]);
        assert_eq!(spans(64, &[0, 1]), vec![8, 8]);
        assert_eq!(spans(64, &[]), vec![16, 16]);
        // Huge budget: whole array in one tile.
        assert_eq!(spans(1 << 20, &[0]), vec![16, 16]);
        // Tiny budget: still progresses with B = 1.
        assert_eq!(spans(4, &[0]), vec![1, 16]);
    }

    #[test]
    fn figure3_tile_shapes() {
        // Figure 3: 8x8 arrays, memory 32 elements, 2 arrays per nest.
        // Traditional (both loops tiled): 4x4 tiles. OOC (outer only):
        // 2x8 tiles. Same memory!
        let (p, nest) = transpose_program();
        let layouts = vec![FileLayout::row_major(2), FileLayout::col_major(2)];
        let env = env_with(&p, &layouts, &[8], 32);
        let plan = |strategy: TilingStrategy| {
            let levels = strategy.tiled_levels(2);
            let plan = plan_nest(&env, &nest, strategy, &levels, None).expect("plans");
            plan.expect("not empty").spans
        };
        assert_eq!(plan(TilingStrategy::Traditional), vec![4, 4]);
        assert_eq!(plan(TilingStrategy::Slab), vec![2, 8]);
    }

    #[test]
    fn out_of_core_spans_elongate_along_layout() {
        // trans-style nest: X(i,j) = Y(j,i), X row-major, Y col-major
        // (the d-opt layouts). With the innermost loop untiled, the
        // search keeps strip tiles that beat naive square tiles.
        let (p, nest) = transpose_program();
        let layouts = vec![FileLayout::row_major(2), FileLayout::col_major(2)];
        let env = PlanEnv::new(&p, &layouts, &[256], 128, 1 << 20).expect("sized");
        let plan = |strategy: TilingStrategy| {
            let plan = plan_nest(&env, &nest, strategy, &[0], None).expect("plans");
            plan.expect("not empty")
        };
        let ooc = plan(TilingStrategy::OutOfCore);
        assert_eq!(ooc.spans[1], 256, "inner span stretches to the full row");
        assert!(ooc.spans[0] < 16, "outer span shrinks to fit the budget");
        assert!(ooc.planned_footprint() <= env.budget().capacity());
        // The search returns the cost of the spans it returns, and the
        // modeled cost beats the square alternative.
        let st = &ooc.staging;
        assert_eq!(ooc.cost, st.io_cost(&env, &ooc.ranges, &ooc.spans));
        let square = plan(TilingStrategy::Traditional);
        assert!(ooc.cost < square.cost, "{} vs {}", ooc.cost, square.cost);
    }

    /// The search evaluates regions and run counts once per table
    /// entry, and a slot has one entry per combination of candidates
    /// of the levels it varies with — not one per trial.
    #[test]
    fn tables_hold_one_entry_per_varying_combination() {
        // mat at paper size: C(i,j) = C(i,j) + A(i,k) * B(k,j), N = 4096.
        let mut p = Program::new(&["N"]);
        let mut at = |name, rows: [Vec<i64>; 2]| {
            ArrayRef::new(p.declare_array(name, 2, 0), &rows, vec![0, 0])
        };
        let a = at("A", [vec![1, 0, 0], vec![0, 0, 1]]);
        let b = at("B", [vec![0, 0, 1], vec![0, 1, 0]]);
        let c = at("C", [vec![1, 0, 0], vec![0, 1, 0]]);
        let product = Expr::Mul(Box::new(Expr::Ref(a)), Box::new(Expr::Ref(b)));
        let sum = Expr::Add(Box::new(Expr::Ref(c.clone())), Box::new(product));
        let nest = LoopNest::rectangular("matmul", 3, 1, 0, vec![Statement::assign(c, sum)]);
        let layouts = vec![FileLayout::col_major(2); 3];
        let env = PlanEnv::new(&p, &layouts, &[4096], 128, 1 << 19).expect("sized");
        let staging = Staging::for_nest(&nest);
        let ranges = level_ranges(&nest, env.params).expect("not empty");
        let tables = SpanTables::build(&env, &staging, &ranges);
        assert_eq!(
            tables.cands.iter().map(Vec::len).collect::<Vec<_>>(),
            [13; 3]
        );
        let entries: usize = tables.slots.iter().map(|(_, entries)| entries.len()).sum();
        assert_eq!(entries, 3 * 13 * 13, "three 2-D slots in a depth-3 nest");
        // And an entry is the definitions' answer for its spans.
        let choice = [3, 12, 5];
        let spans = [8, 4096, 32];
        assert_eq!(tables.footprint(&choice), staging.footprint(&env, &spans));
        assert_eq!(
            tables
                .io_cost(&env, &staging, &choice, &mut [0.0; 3])
                .to_bits(),
            staging.io_cost(&env, &ranges, &spans).to_bits()
        );
    }

    #[test]
    fn restricting_plans_on_the_largest_chunk() {
        let (p, nest) = transpose_program();
        let layouts = vec![FileLayout::row_major(2), FileLayout::col_major(2)];
        let env = PlanEnv::new(&p, &layouts, &[64], 4, 1 << 20).expect("sized");
        let plan = |restrict| {
            let plan = plan_nest(&env, &nest, TilingStrategy::Optimized, &[0, 1], restrict);
            plan.expect("plans").expect("not empty")
        };
        let (whole, sixteenth) = (plan(None), plan(Some(16)));
        // The walk keeps the whole range; the search saw 4 of 64 rows.
        assert_eq!(sixteenth.ranges, whole.ranges);
        assert!(sixteenth.spans[0] <= 4, "{:?}", sixteenth.spans);
        assert!(sixteenth.cost < whole.cost);
        assert_eq!(plan(Some(1)).spans, whole.spans);
    }

    #[test]
    fn boxes_tile_the_walked_levels_only() {
        let (p, nest) = transpose_program();
        let layouts = vec![FileLayout::row_major(2), FileLayout::col_major(2)];
        let env = env_with(&p, &layouts, &[8], 32);
        let plan = plan_nest(&env, &nest, TilingStrategy::Traditional, &[0], None);
        let plan = plan.expect("plans").expect("not empty");
        assert_eq!(plan.spans, vec![4, 4]);
        let boxes = plan.boxes();
        assert_eq!(
            boxes,
            vec![(vec![1, 1], vec![4, 8]), (vec![5, 1], vec![8, 8])]
        );
        // What the walk stages is not what the search budgeted.
        assert_eq!(
            (plan.planned_footprint(), plan.walked_footprint()),
            (32, 64)
        );
        let staged = plan.staged(&boxes[0].0, &boxes[0].1);
        assert_eq!(staged.iter().map(|(_, r)| r.len()).sum::<i64>(), 64);
    }
}
