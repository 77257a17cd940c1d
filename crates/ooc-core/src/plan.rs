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
use std::collections::HashMap;
use std::io;
use std::rc::Rc;

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
/// bounding box of the iteration polyhedron — read off the constraints
/// of a rectangular nest ([`Polyhedron::box_ranges`]), projected by
/// Fourier–Motzkin for any other ([`projected_ranges`]). `None` when
/// some level is empty or unbounded there, or a bound leaves `i64`.
///
/// [`Polyhedron::box_ranges`]: ooc_linalg::Polyhedron::box_ranges
#[must_use]
fn level_ranges(nest: &LoopNest, params: &[i64]) -> Option<Vec<(i64, i64)>> {
    if nest.bounds.is_rectangular() {
        nest.bounds.box_ranges(params)
    } else {
        projected_ranges(nest, params)
    }
}

/// [`level_ranges`] through Fourier–Motzkin. Each bound form is
/// evaluated over the *interval* of the outer levels' ranges — a
/// lower form at its minimum, an upper form at its maximum — so the
/// box contains every point of a non-rectangular nest; where no form
/// mentions an outer level (every rectangular nest) this is the exact
/// range.
fn projected_ranges(nest: &LoopNest, params: &[i64]) -> Option<Vec<(i64, i64)>> {
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
        clamped_elems(env.dims(self.slots[slot].array.0), hull)
    }

    /// Modeled I/O time of a full nest execution for candidate
    /// per-level spans, matching the executors' tile-loop-invariant
    /// hoisting: a slot is (re)staged once per combination of the tile
    /// loops its region depends on **and every loop above them**
    /// (consecutive-step caching), paying the calls and bytes of one
    /// region each time. Written slots pay twice (read + write-back).
    #[must_use]
    pub fn io_cost(&self, env: &PlanEnv, ranges: &[(i64, i64)], spans: &[i64]) -> f64 {
        let mut steps = Steps::new(ranges.len());
        steps.set(ranges.iter().zip(spans).map(|(&range, &s)| trips(range, s)));
        let (lo, hi) = first_box(ranges, spans);
        self.priced(&steps, |slot| {
            weighed(
                env,
                self.tile_transfer(env, slot, &lo, &hi, &mut self.scratch(slot)),
            )
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
        self.region_into(slot, lo, hi, hull);
        self.transfer(env, slot, hull)
    }

    /// `(calls, elements)` of staging slot `slot`'s region `hull` once.
    fn transfer(&self, env: &PlanEnv, slot: usize, hull: &Region) -> (u64, u64) {
        let array = self.slots[slot].array.0;
        let (runs, elements) =
            env.layouts[array].region_run_counts(env.dims(array), &hull.lo, &hull.hi);
        let calls = ooc_runtime::run_calls(runs, elements, env.max_call_elems);
        (calls, elements)
    }

    /// The cost model proper: with `steps` the tile steps per level
    /// and `once(slot)` the [`weighed`] time of staging the slot once,
    /// the modeled I/O time, summed in slot order.
    fn priced(&self, steps: &Steps, mut once: impl FnMut(usize) -> f64) -> f64 {
        let mut total = 0f64;
        for (i, slot) in self.slots.iter().enumerate() {
            let accesses = if slot.written { 2.0 } else { 1.0 };
            total += steps.restages(&slot.varies) * accesses * once(i);
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
    pub strips: bool,
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
    let parts = NestParts::of(nest, env.params)?;
    let memo = &mut PlanMemo::default();
    Ok(parts.map(|parts| parts.plan(env, strategy, walk_levels, restrict, memo)))
}

/// [`plan_nest`] with the nest's layout-independent parts and the span
/// search's slot tables taken from `memo` where it holds them and added
/// to it otherwise — the same plan, bit for bit (see [`PlanMemo`]).
///
/// # Errors
/// As [`plan_nest`].
pub fn plan_nest_memo<'e>(
    env: &'e PlanEnv<'e>,
    nest: &LoopNest,
    strategy: TilingStrategy,
    walk_levels: &[usize],
    restrict: Option<usize>,
    memo: &mut PlanMemo,
) -> io::Result<Option<NestPlan<'e>>> {
    let known = memo
        .nests
        .iter()
        .find(|(n, params, _)| params.as_slice() == env.params && n == nest);
    let parts = match known {
        Some((_, _, parts)) => parts.clone(),
        None => {
            let parts = NestParts::of(nest, env.params)?;
            memo.nests
                .push((nest.clone(), env.params.to_vec(), parts.clone()));
            parts
        }
    };
    Ok(parts.map(|parts| parts.plan(env, strategy, walk_levels, restrict, memo)))
}

/// What a plan of a nest takes from the nest and the parameter values
/// alone — whatever the layouts, the budget or the processor
/// restriction.
#[derive(Debug, Clone)]
struct NestParts {
    ranges: Vec<(i64, i64)>,
    staging: Staging,
    own_level: Option<usize>,
    strips: bool,
}

impl NestParts {
    /// The parts of `nest` at `params`; `None` when the nest's bounds
    /// are empty there or it has no loop level.
    fn of(nest: &LoopNest, params: &[i64]) -> io::Result<Option<Self>> {
        let Some(ranges) = level_ranges(nest, params).filter(|r| !r.is_empty()) else {
            return Ok(None);
        };
        let staging = Staging::for_nest(nest);
        staging.check_regions(&ranges)?;
        let by_array = ooc_ir::array_dependences(nest);
        Ok(Some(NestParts {
            own_level: ownership_level(&ooc_ir::merge_arrays(&by_array), nest.depth),
            strips: kernel::strips_legal(nest, &by_array),
            ranges,
            staging,
        }))
    }

    /// The plan these parts make under `env`'s layouts and budget.
    fn plan<'e>(
        self,
        env: &'e PlanEnv<'e>,
        strategy: TilingStrategy,
        walk_levels: &[usize],
        restrict: Option<usize>,
        memo: &mut PlanMemo,
    ) -> NestPlan<'e> {
        let NestParts {
            ranges,
            staging,
            own_level,
            strips,
        } = self;
        let mut search_ranges = ranges.clone();
        if let Some(procs) = restrict {
            let l = own_level.unwrap_or(0);
            let largest = chunks(ranges[l], procs)
                .into_iter()
                .max_by_key(|(lo, hi)| hi - lo);
            search_ranges[l] = largest.unwrap_or(ranges[l]);
        }
        let (spans, cost) = plan_spans(env, &staging, &search_ranges, strategy, memo);
        NestPlan {
            env,
            search_levels: strategy.tiled_levels(ranges.len()),
            ranges,
            own_level,
            walk_levels: walk_levels.to_vec(),
            spans,
            cost,
            staging,
            strips,
        }
    }
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
        let mut region = Region::new(Vec::new(), Vec::new());
        self.staged_into(slot, lo, hi, &mut region);
        region
    }

    /// [`NestPlan::staged_slot`] into `region`, whatever it held: the
    /// hull written into its buffers and clamped there, so nothing is
    /// allocated once they hold the slot's rank.
    pub(crate) fn staged_into(&self, slot: usize, lo: &[i64], hi: &[i64], region: &mut Region) {
        let rank = self.staging.slots[slot].rank;
        region.lo.resize(rank, 0);
        region.hi.resize(rank, 0);
        self.staging.region_into(slot, lo, hi, region);
        region.clamp_to(self.env.dims(self.staging.key(slot).0 .0));
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
        let mut boxes = self.box_walk(level, chunk);
        while let Some((lo, hi)) = boxes.next() {
            f(lo, hi);
        }
    }

    /// The tile boxes with `level` restricted to `chunk`, in execution
    /// order, as an odometer (see [`BoxWalk`]).
    pub(crate) fn box_walk(&self, level: usize, chunk: (i64, i64)) -> BoxWalk {
        let levels: Vec<(i64, i64, i64)> = (0..self.ranges.len())
            .map(|l| {
                let (from, to) = if l == level { chunk } else { self.ranges[l] };
                let span = if self.walk_levels.contains(&l) {
                    self.spans[l].max(1)
                } else {
                    (to - from + 1).max(1)
                };
                (from, to, span)
            })
            .collect();
        let mut walk = BoxWalk {
            lo: vec![0; levels.len()],
            hi: vec![0; levels.len()],
            levels,
            at: Cursor::Before,
        };
        walk.rewind();
        walk
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

/// The tile boxes of a nest, one at a time, each written over the
/// last in the walk's own `lo`/`hi` — the last level fastest, every
/// level stepping by its span from the first index of its range, the
/// last box of a level cut at the range's end. Nothing is allocated
/// after [`NestPlan::box_walk`] builds it.
#[derive(Debug)]
pub(crate) struct BoxWalk {
    /// Per level: first index, last index, span.
    levels: Vec<(i64, i64, i64)>,
    lo: Vec<i64>,
    hi: Vec<i64>,
    at: Cursor,
}

/// Where a [`BoxWalk`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    Before,
    Inside,
    Done,
}

impl BoxWalk {
    /// Back before the first box.
    pub(crate) fn rewind(&mut self) {
        for (l, &(from, to, span)) in self.levels.iter().enumerate() {
            self.lo[l] = from;
            self.hi[l] = (from + span - 1).min(to);
        }
        let empty = self.levels.iter().any(|&(from, to, _)| from > to);
        self.at = if empty { Cursor::Done } else { Cursor::Before };
    }

    /// The next box as `(lo, hi)`; `None` after the last.
    pub(crate) fn next(&mut self) -> Option<(&[i64], &[i64])> {
        match self.at {
            Cursor::Done => return None,
            Cursor::Before => self.at = Cursor::Inside,
            Cursor::Inside => {
                let mut l = self.levels.len();
                loop {
                    let Some(below) = l.checked_sub(1) else {
                        self.at = Cursor::Done;
                        return None;
                    };
                    l = below;
                    let (from, to, span) = self.levels[l];
                    let next = self.lo[l].checked_add(span).filter(|&t| t <= to);
                    let t = next.unwrap_or(from);
                    self.lo[l] = t;
                    self.hi[l] = (t + span - 1).min(to);
                    if next.is_some() {
                        break;
                    }
                }
            }
        }
        Some((&self.lo, &self.hi))
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
    memo: &mut PlanMemo,
) -> (Vec<i64>, f64) {
    match strategy {
        TilingStrategy::Traditional | TilingStrategy::Slab => {
            let spans = budget_spans(env, staging, ranges, &strategy.tiled_levels(ranges.len()));
            let cost = staging.io_cost(env, ranges, &spans);
            (spans, cost)
        }
        TilingStrategy::Optimized => search_spans(env, staging, ranges, memo).free,
        TilingStrategy::OutOfCore => {
            let Searched { free, pinned } = search_spans(env, staging, ranges, memo);
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

/// The modeled time of moving `(calls, elements)` once.
fn weighed(env: &PlanEnv, (calls, elements): (u64, u64)) -> f64 {
    calls as f64 * env.weights.per_call + elements as f64 * env.weights.per_elem
}

/// Elements of `region` once each extent is clamped to the array's
/// `dims` (a region can spill past the declared bounds at the
/// interval-arithmetic level).
fn clamped_elems(dims: &[i64], region: &Region) -> u64 {
    dims.iter()
        .enumerate()
        .map(|(d, &dim)| region.extent(d).min(dim).max(1).unsigned_abs())
        .product()
}

/// A table entry's footprint term and `(calls, elements)` for the
/// region `region` of an array of `dims` stored in the dimension order
/// `perm`: [`clamped_elems`], and what [`FileLayout::region_run_counts`]
/// and [`ooc_runtime::run_calls`] count, in one pass over the
/// dimensions and without their divisions. Clamped to the array, the
/// region is one run per combination of the dimensions outside its
/// merged run — the innermost dimensions it covers whole and the first
/// it does not — so its runs are the product of those dimensions'
/// extents; every run has the same length, which leaves the average run
/// exact and no remainder, and the call split is one division (none for
/// a run no longer than a call). A region covering the whole array
/// merges into one run, the definitions' shortcut.
fn dim_order_entry(
    perm: &[usize],
    dims: &[i64],
    region: &Region,
    max_call_elems: u64,
) -> (u64, (u64, u64)) {
    let (mut elems, mut run, mut runs, mut merging) = (1u64, 1u64, 1u64, true);
    for (pos, &d) in perm.iter().enumerate().rev() {
        let (lo, hi, dim) = (region.lo[d], region.hi[d], dims[d]);
        elems *= (hi - lo + 1).max(0).min(dim).max(1).unsigned_abs();
        let extent = (hi.min(dim) - lo.max(1) + 1).max(0);
        if merging {
            run *= extent.unsigned_abs();
            merging = extent == dim && pos != 0;
        } else {
            runs *= extent.unsigned_abs();
        }
    }
    let calls_per_run = if run <= max_call_elems {
        u64::from(run > 0)
    } else {
        run.div_ceil(max_call_elems)
    };
    (elems, (runs * calls_per_run, runs * run))
}

/// The tile steps per level of one set of spans, and their running
/// products.
struct Steps {
    trips: Vec<f64>,
    /// `prefix[l]`: the product of `trips[..=l]`, multiplied in level
    /// order from 1 — the bits `trips[..=l].iter().product()` has.
    prefix: Vec<f64>,
}

impl Steps {
    fn new(depth: usize) -> Self {
        Steps {
            trips: vec![0.0; depth],
            prefix: vec![0.0; depth],
        }
    }

    /// Takes one trip count per level.
    fn set(&mut self, trips: impl IntoIterator<Item = f64>) {
        let mut product = 1f64;
        for ((t, p), trip) in self.trips.iter_mut().zip(&mut self.prefix).zip(trips) {
            product *= trip;
            (*t, *p) = (trip, product);
        }
    }

    /// How often a slot varying with the levels `varies` is staged:
    /// the steps of every level down to the deepest one it varies with
    /// that has more than one step — its tile stays cached while only
    /// deeper levels advance.
    fn restages(&self, varies: &[bool]) -> f64 {
        let deepest = (0..self.trips.len())
            .rev()
            .find(|&l| self.trips[l] > 1.0 && varies[l]);
        deepest.map_or(1.0, |d| self.prefix[d])
    }
}

/// What one tile of one slot costs: its footprint term and the
/// [`weighed`] time of staging it once.
#[derive(Debug, Clone, Copy)]
struct TileCost {
    elems: u64,
    priced: f64,
}

/// Everything the entries of one slot's table read. Equal keys make
/// equal tables, whatever nest or layout assignment the slot came
/// from.
#[derive(Debug, PartialEq, Eq, Hash)]
struct TableKey {
    /// The slot's compiled subscripts and its array's rank.
    rows: Vec<AffineRow>,
    rank: usize,
    varies: Vec<bool>,
    /// The search range of every level the slot varies with: it fixes
    /// the level's candidate spans and its box origin.
    ranges: Vec<(i64, i64)>,
    /// The array's dimensions and file layout.
    dims: Vec<i64>,
    layout: FileLayout,
    max_call_elems: u64,
    /// The cost weights, as bits.
    weights: (u64, u64),
}

impl TableKey {
    fn of(env: &PlanEnv, slot: &Slot, ranges: &[(i64, i64)]) -> Self {
        let array = slot.array.0;
        TableKey {
            rows: slot.rows.clone(),
            rank: slot.rank,
            varies: slot.varies.clone(),
            ranges: ranges
                .iter()
                .zip(&slot.varies)
                .filter_map(|(&range, &varies)| varies.then_some(range))
                .collect(),
            dims: env.dims(array).to_vec(),
            layout: env.layouts[array].clone(),
            max_call_elems: env.max_call_elems,
            weights: (
                env.weights.per_call.to_bits(),
                env.weights.per_elem.to_bits(),
            ),
        }
    }
}

/// What earlier plans derived, kept for later ones. Each optimizer call
/// owns one memo and drops it when it returns — its cost gate prices
/// one nest under many layout assignments and loop orders; [`plan_nest`]
/// keeps nothing past its one plan. Two kinds of entry:
///
/// * a nest's layout-independent parts (ranges, slot table, ownership
///   level, strip legality), keyed on the whole nest and the parameter
///   values;
/// * the slot tables span searches have built: a search whose slot has
///   the key (`TableKey`) of one tabulated before takes that table
///   instead of building its own.
///
/// Both are looked up by their whole key, compared for equality, never
/// by a hash alone, and hold exactly what a fresh plan computes, so a
/// plan through a memo is bit-identical to a fresh one.
#[derive(Debug, Default)]
pub struct PlanMemo {
    tables: HashMap<TableKey, Rc<[TileCost]>>,
    /// Per nest and parameter values planned: its parts, `None` when
    /// there is nothing to run.
    nests: Vec<(LoopNest, Vec<i64>, Option<NestParts>)>,
}

/// The span search's scorer. A slot's tile depends only on the spans
/// of the levels its references vary with, so every per-slot answer a
/// search can ask for is tabulated once — by the per-slot functions
/// [`Staging::footprint`] and [`Staging::io_cost`] are sums over — and
/// [`SpanTables::walk`] scores a trial from lookups.
struct SpanTables {
    /// Candidate spans per level: the powers of two below the level's
    /// extent, then the extent.
    cands: Vec<Vec<i64>>,
    /// Tile steps per level and candidate.
    trips: Vec<Vec<f64>>,
    /// Per slot: the index stride of every level (0 where the slot
    /// does not vary) and one entry per combination of candidates of
    /// the levels it varies with.
    slots: Vec<(Vec<usize>, Rc<[TileCost]>)>,
}

impl SpanTables {
    /// The tables of `staging` over `ranges`, each slot's taken from
    /// `memo` when it holds one and added to it otherwise.
    fn build(env: &PlanEnv, staging: &Staging, ranges: &[(i64, i64)], memo: &mut PlanMemo) -> Self {
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
        let slots = (0..staging.slots())
            .map(|slot| {
                let varies = &staging.slots[slot].varies;
                let mut strides = vec![0usize; ranges.len()];
                let mut stride = 1;
                for l in (0..ranges.len()).rev().filter(|&l| varies[l]) {
                    strides[l] = stride;
                    stride *= cands[l].len();
                }
                let key = TableKey::of(env, &staging.slots[slot], ranges);
                let entries = memo
                    .tables
                    .entry(key)
                    .or_insert_with(|| Self::entries(env, staging, slot, ranges, &cands));
                (strides, Rc::clone(entries))
            })
            .collect();
        SpanTables {
            cands,
            trips,
            slots,
        }
    }

    /// Slot `slot`'s entries, one per combination of `cands` of the
    /// levels it varies with, the last such level fastest.
    fn entries(
        env: &PlanEnv,
        staging: &Staging,
        slot: usize,
        ranges: &[(i64, i64)],
        cands: &[Vec<i64>],
    ) -> Rc<[TileCost]> {
        let s = &staging.slots[slot];
        let depth = ranges.len();
        let lens: Vec<usize> = (0..depth)
            .map(|l| if s.varies[l] { cands[l].len() } else { 1 })
            .collect();
        let dims = env.dims(s.array.0);
        let lo: Vec<i64> = ranges.iter().map(|&(lo, _)| lo).collect();
        let origin = vec![1i64; depth];
        // One class of integer subscripts stages a region whose extents
        // do not depend on where the box sits, so its footprint term is
        // read off the hull of the first box, which moves by one
        // level's terms when that level's candidate changes; any other
        // slot's is evaluated at the origin box, as `Staging::footprint`
        // does.
        let mut class = ClassHull::of(s, &lo, cands);
        // One scratch set: the candidate per level, an entry's spans,
        // the upper corner of its first box, and the hull they stage.
        let mut choice = vec![0usize; depth];
        let (mut spans, mut hi, mut hull) = (origin.clone(), lo.clone(), staging.scratch(slot));
        let mut entries = Vec::with_capacity(lens.iter().product());
        let perm = match &env.layouts[s.array.0] {
            FileLayout::DimOrder(perm) => Some(perm.as_slice()),
            _ => None,
        };
        loop {
            let entry = if let Some(class) = &class {
                // A dimension-order layout counts its runs directly; the
                // others by the definitions.
                let (elems, moved) = match perm {
                    Some(perm) => dim_order_entry(perm, dims, &class.hull, env.max_call_elems),
                    None => (
                        clamped_elems(dims, &class.hull),
                        staging.transfer(env, slot, &class.hull),
                    ),
                };
                TileCost {
                    elems,
                    priced: weighed(env, moved),
                }
            } else {
                for (l, &i) in choice.iter().enumerate() {
                    spans[l] = cands[l][i];
                    hi[l] = lo[l] + spans[l] - 1;
                }
                let priced = weighed(env, staging.tile_transfer(env, slot, &lo, &hi, &mut hull));
                TileCost {
                    elems: staging.tile_elems(env, slot, &origin, &spans, &mut hull),
                    priced,
                }
            };
            entries.push(entry);
            // The next combination: the deepest level that can advance
            // does, and every deeper one goes back to its first.
            let Some(l) = (0..depth).rev().find(|&l| choice[l] + 1 < lens[l]) else {
                break;
            };
            for (m, at) in choice.iter_mut().enumerate().skip(l) {
                let to = if m == l { *at + 1 } else { 0 };
                if let Some(class) = &mut class {
                    class.shift(m, *at, to);
                }
                *at = to;
            }
        }
        entries.into()
    }

    /// Calls `f(choice, footprint, cost)` for every trial — one
    /// candidate index per level, the last level fastest — whose
    /// [`Staging::footprint`] fits `capacity`, with its
    /// [`Staging::io_cost`].
    ///
    /// The walk goes level by level: choosing a candidate of an outer
    /// level fixes, per slot, the offset the levels so far contribute
    /// to its table index and how often the slot is restaged when
    /// none of the deeper levels it varies with has more than one
    /// step; the running product of the trips is [`Steps`]'s prefix.
    /// An innermost trial is then one lookup and one multiply–add per
    /// slot that varies with the innermost level, and one add per
    /// other slot. The terms are the definitions' — the same operands,
    /// multiplied in the same order and summed in slot order — so every
    /// cost has the definitions' bits.
    fn walk(&self, staging: &Staging, capacity: u64, f: &mut impl FnMut(&[usize], u64, f64)) {
        let depth = self.cands.len();
        let slots = self.slots.len();
        let mut walk = Walk {
            tables: self,
            staging,
            capacity,
            choice: vec![0; depth],
            at: vec![0; depth * slots],
            restages: vec![1.0; depth * slots],
            prefix: vec![1.0; depth],
            terms: vec![0.0; slots],
        };
        walk.level(0, f);
    }

    /// The spans `choice` picks, with their cost.
    fn plan(&self, (choice, cost): (Vec<usize>, f64)) -> (Vec<i64>, f64) {
        let spans = choice.iter().zip(&self.cands).map(|(&i, c)| c[i]);
        (spans.collect(), cost)
    }
}

/// The first-box hull of a slot of one access class whose subscripts
/// are integer rows, kept from per-level terms as the candidates
/// change. Its references share their coefficients and differ in their
/// offsets only, so in dimension `d` the hull of the box `lo..=hi` is
/// the least (greatest) offset plus, per level `l`, the lesser
/// (greater) of `c·lo[l]` and `c·hi[l]` — what [`tiling::hull_into`]
/// sums per reference — and a term of that level's span alone: a
/// change of one level's candidate changes the hull by that level's
/// terms only.
struct ClassHull {
    rank: usize,
    /// Per level, from `starts[l]`: per candidate span, `rank`
    /// (lesser, greater) terms.
    terms: Vec<(i64, i64)>,
    starts: Vec<usize>,
    /// The hull of the first box under the current candidates.
    hull: Region,
}

impl ClassHull {
    /// The hull of `slot` for the boxes from `lo` at the first of the
    /// candidate spans `cands` of every level; `None` unless the slot
    /// is one class of integer rows whose offsets and terms keep every
    /// partial sum inside `i64`, which makes [`ClassHull::shift`]
    /// exact.
    fn of(slot: &Slot, lo: &[i64], cands: &[Vec<i64>]) -> Option<Self> {
        slot.class.as_ref()?;
        let rank = slot.rank;
        // The least and greatest offsets, and the coefficients of the
        // first reference.
        let mut hull = Region::new(vec![i64::MAX; rank], vec![i64::MIN; rank]);
        let mut coeffs = Vec::with_capacity(rank);
        for (i, row) in slot.rows.iter().enumerate() {
            let (offset, terms) = row.integer()?;
            if i < rank {
                coeffs.push(terms);
            }
            let d = i % rank;
            hull.lo[d] = hull.lo[d].min(offset);
            hull.hi[d] = hull.hi[d].max(offset);
        }
        // The one overflow check: a partial sum is an offset plus at
        // most one term per level, so per dimension the offsets'
        // magnitude plus each level's greatest term magnitude bounds
        // them all.
        let mut bound: Vec<i64> = (0..rank)
            .map(|d| Some(hull.lo[d].checked_abs()?.max(hull.hi[d].checked_abs()?)))
            .collect::<Option<_>>()?;
        let mut terms = Vec::with_capacity(cands.iter().map(Vec::len).sum::<usize>() * rank);
        let mut starts = Vec::with_capacity(cands.len());
        for (l, cands) in cands.iter().enumerate() {
            let start = terms.len();
            starts.push(start);
            for &span in cands {
                for row in &coeffs {
                    let c = row.iter().find(|&&(j, _)| j == l).map_or(0, |&(_, c)| c);
                    let (a, b) = (c.checked_mul(lo[l])?, c.checked_mul(lo[l] + span - 1)?);
                    terms.push((a.min(b), a.max(b)));
                }
            }
            for (d, bound) in bound.iter_mut().enumerate() {
                let mut greatest = 0i64;
                for &(a, b) in terms[start + d..].iter().step_by(rank) {
                    greatest = greatest.max(a.checked_abs()?).max(b.checked_abs()?);
                }
                *bound = bound.checked_add(greatest)?;
            }
            for d in 0..rank {
                let (a, b) = terms[start + d];
                hull.lo[d] += a;
                hull.hi[d] += b;
            }
        }
        Some(ClassHull {
            rank,
            terms,
            starts,
            hull,
        })
    }

    /// Moves level `l` from its candidate `from` to `to`: the hull
    /// loses the level's old terms and gains its new ones.
    fn shift(&mut self, l: usize, from: usize, to: usize) {
        let (was, now) = (
            self.starts[l] + from * self.rank,
            self.starts[l] + to * self.rank,
        );
        for d in 0..self.rank {
            let (was, now) = (self.terms[was + d], self.terms[now + d]);
            self.hull.lo[d] = self.hull.lo[d] - was.0 + now.0;
            self.hull.hi[d] = self.hull.hi[d] - was.1 + now.1;
        }
    }
}

/// The state of one [`SpanTables::walk`]. Per level `l` (row `l` of
/// `at` and `restages`, one column per slot): what the candidates
/// chosen for the levels above `l` fix.
struct Walk<'t> {
    tables: &'t SpanTables,
    staging: &'t Staging,
    capacity: u64,
    /// The candidate index chosen per level so far.
    choice: Vec<usize>,
    /// A slot's table offset from the levels above.
    at: Vec<usize>,
    /// [`Steps::restages`] of a slot over the levels above: the prefix
    /// product at the deepest of them it varies with that has more
    /// than one step, 1 when there is none.
    restages: Vec<f64>,
    /// `prefix[l]`: the product of the trips of the levels above `l`,
    /// multiplied in level order from 1.
    prefix: Vec<f64>,
    /// The innermost level's scratch: per slot, its cost term.
    terms: Vec<f64>,
}

impl Walk<'_> {
    fn level(&mut self, l: usize, f: &mut impl FnMut(&[usize], u64, f64)) {
        let n = self.tables.slots.len();
        if l + 1 == self.choice.len() {
            return self.innermost(l, f);
        }
        for (c, &trip) in self.tables.trips[l].iter().enumerate() {
            self.choice[l] = c;
            let product = self.prefix[l] * trip;
            self.prefix[l + 1] = product;
            for (s, (strides, _)) in self.tables.slots.iter().enumerate() {
                let (above, here) = (l * n + s, (l + 1) * n + s);
                self.at[here] = self.at[above] + c * strides[l];
                // A slot varies with a level exactly where its stride
                // is nonzero.
                self.restages[here] = if trip > 1.0 && strides[l] != 0 {
                    product
                } else {
                    self.restages[above]
                };
            }
            self.level(l + 1, f);
        }
    }

    fn innermost(&mut self, l: usize, f: &mut impl FnMut(&[usize], u64, f64)) {
        let n = self.tables.slots.len();
        let (at, restages) = (&self.at[l * n..], &self.restages[l * n..]);
        let accesses = |s: usize| {
            if self.staging.slots[s].written {
                2.0
            } else {
                1.0
            }
        };
        // The slots the innermost level does not move: their tiles and
        // terms hold for the whole level.
        let mut fixed = 0u64;
        for s in 0..n {
            let (strides, entries) = &self.tables.slots[s];
            if strides[l] == 0 {
                let tile = entries[at[s]];
                fixed += tile.elems;
                self.terms[s] = restages[s] * accesses(s) * tile.priced;
            }
        }
        for (c, &trip) in self.tables.trips[l].iter().enumerate() {
            let product = self.prefix[l] * trip;
            let mut footprint = fixed;
            for (s, (strides, entries)) in self.tables.slots.iter().enumerate() {
                if strides[l] != 0 {
                    let tile = entries[at[s] + c * strides[l]];
                    footprint += tile.elems;
                    let restaged = if trip > 1.0 { product } else { restages[s] };
                    self.terms[s] = restaged * accesses(s) * tile.priced;
                }
            }
            if footprint > self.capacity {
                continue;
            }
            // From +0.0, as `Staging::priced` sums (`Sum` starts at -0.0).
            let cost = self.terms.iter().fold(0f64, |total, &term| total + term);
            self.choice[l] = c;
            f(&self.choice, footprint, cost);
        }
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
/// heuristic search. The trials are scored by [`SpanTables::walk`],
/// level by level from the slot tables (taken from `memo` where it
/// holds them), with the definitions' bits. The first strict
/// improvement in enumeration order wins; when nothing fits (budget
/// below even 1-wide tiles) the minimal spans make progress, priced by
/// [`Staging::io_cost`] itself. The trials that keep the innermost
/// level whole are a subsequence of all trials, so one pass finds both
/// optima.
fn search_spans(
    env: &PlanEnv,
    staging: &Staging,
    ranges: &[(i64, i64)],
    memo: &mut PlanMemo,
) -> Searched {
    let tables = SpanTables::build(env, staging, ranges, memo);
    let inner = ranges.len() - 1;
    let whole = tables.cands[inner].len() - 1;
    let mut free: Option<(Vec<usize>, f64)> = None;
    let mut pinned: Option<(Vec<usize>, f64)> = None;
    tables.walk(staging, env.budget.capacity(), &mut |choice, _, cost| {
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
    let minimal = |inner_choice: usize| {
        let mut spans: Vec<i64> = tables.cands.iter().map(|c| c[0]).collect();
        spans[inner] = tables.cands[inner][inner_choice];
        let cost = staging.io_cost(env, ranges, &spans);
        (spans, cost)
    };
    Searched {
        free: free.map_or_else(|| minimal(0), |best| tables.plan(best)),
        pinned: pinned.map_or_else(|| minimal(whole), |best| tables.plan(best)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::tiled;
    use ooc_ir::{Expr, Statement};
    use ooc_linalg::Rational;

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
        assert!(!nest.bounds.is_rectangular(), "projected");
        assert_eq!(level_ranges(&nest, &[9]), Some(vec![(1, 9), (1, 9)]));
        // The square skewed by i = i' - j': i' runs 2..=2N, and j' over
        // the box of i' runs 1..=N.
        let square = LoopNest::rectangular("skew", 2, 1, 0, Vec::new());
        let skewed = square.transformed(&Matrix::from_i64(2, 2, &[1, -1, 0, 1]));
        assert!(!skewed.bounds.is_rectangular(), "projected");
        assert_eq!(level_ranges(&skewed, &[5]), Some(vec![(2, 10), (1, 5)]));
        // Rectangular nests keep their exact ranges.
        let rect = LoopNest::rectangular("rect", 3, 1, 0, Vec::new());
        assert!(rect.bounds.is_rectangular(), "read off");
        assert_eq!(level_ranges(&rect, &[5]), Some(vec![(1, 5); 3]));
        assert_eq!(level_ranges(&rect, &[0]), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Random nests of depth 1 to 4 over two parameters `N`, `M`:
        /// per level one to three lower and upper bounds `a·x ≥ c + b·N
        /// + b'·M` and `a·x ≤ …` with `a` up to 3 (as in `2i ≤ N`), and
        /// constants that leave some levels empty; some constraints on
        /// the parameters alone; in half of the nests, constraints over
        /// two levels. A rectangular nest's ranges read off its
        /// constraints, and the iteration count taken from them, are
        /// the Fourier–Motzkin ones; any other nest is projected.
        #[test]
        fn direct_level_ranges_are_the_projected_ones(
            pool in proptest::collection::vec(0i64..=12, 256),
            params in proptest::collection::vec(0i64..=12, 2),
        ) {
            let mut pool = pool.into_iter();
            let mut next = move |below: i64| pool.next().expect("enough draws") % below;
            let depth = next(4) as usize + 1;
            let skewed = depth > 1 && next(2) == 0;
            let mut bounds = ooc_linalg::Polyhedron::universe(depth, 2);
            // c + b·N + b'·M: with `low` a small c and b, b' in -1..=0
            // (a lower bound's rest), otherwise a larger c and b, b' in
            // 0..=1 (an upper bound's).
            let offset = |next: &mut dyn FnMut(i64) -> i64, low: bool| {
                let c = if low { next(7) - 4 } else { next(13) - 2 };
                let mut e = Affine::constant(depth, 2, c);
                for p in 0..2 {
                    e.param_coeffs[p] = Rational::from(next(2) - i64::from(low));
                }
                e
            };
            for l in 0..depth {
                for sign in [1, -1] {
                    for _ in 0..=next(3) {
                        // a·x - rest ≥ 0 is a lower bound, rest - a·x an
                        // upper one.
                        let mut e = offset(&mut next, sign > 0).scale(Rational::from(-sign));
                        e.var_coeffs[l] = Rational::from(sign * (next(3) + 1));
                        bounds.add_ge0(e);
                    }
                }
                if next(4) == 0 {
                    bounds.add_ge0(offset(&mut next, false));
                }
            }
            for _ in 0..usize::from(skewed) * 2 {
                let (l, m) = (next(depth as i64) as usize, next(depth as i64) as usize);
                if l != m {
                    let mut e = offset(&mut next, true);
                    e.var_coeffs[l] = Rational::from(next(2) + 1);
                    e.var_coeffs[m] = Rational::from(-(next(2) + 1));
                    bounds.add_ge0(e);
                }
            }
            let mut nest = LoopNest::rectangular("n", depth, 2, 0, Vec::new());
            nest.bounds = bounds;
            let projected = projected_ranges(&nest, &params);
            proptest::prop_assert_eq!(level_ranges(&nest, &params), projected.clone());
            if nest.bounds.is_rectangular() {
                proptest::prop_assert_eq!(nest.bounds.box_ranges(&params), projected.clone());
                let count = projected.map_or(0.0, |ranges| {
                    ranges.iter().fold(1f64, |total, &(lo, hi)| total * (hi - lo + 1) as f64)
                });
                proptest::prop_assert_eq!(nest.iteration_count(&params).to_bits(), count.to_bits());
            } else {
                proptest::prop_assert!(skewed);
            }
        }
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
        let tables = SpanTables::build(&env, &staging, &ranges, &mut PlanMemo::default());
        assert_eq!(
            tables.cands.iter().map(Vec::len).collect::<Vec<_>>(),
            [13; 3]
        );
        let entries: usize = tables.slots.iter().map(|(_, entries)| entries.len()).sum();
        assert_eq!(entries, 3 * 13 * 13, "three 2-D slots in a depth-3 nest");
        // And a trial is the definitions' answer for its spans.
        let spans = [8, 4096, 32];
        let mut scored = None;
        tables.walk(&staging, u64::MAX, &mut |choice, footprint, cost| {
            if choice == [3, 12, 5] {
                scored = Some((footprint, cost.to_bits()));
            }
        });
        assert_eq!(
            scored,
            Some((
                staging.footprint(&env, &spans),
                staging.io_cost(&env, &ranges, &spans).to_bits()
            ))
        );
    }

    /// Every entry of a table — its footprint term read off the staged
    /// hull for one-class integer slots, evaluated at the origin box
    /// for the others — gives every trial the definitions' footprint
    /// and cost bits, also when the tables come from a memo other
    /// layouts filled.
    #[test]
    fn every_trial_scores_what_the_definitions_give() {
        // A(i,j) = A(i-1,j) + B(j,i) + B(i,j) + C(i/2 + j/2, j): a
        // halo class, two read classes, exact rows; then with B(j,i)
        // written too, a hull slot.
        let mut p = Program::new(&["N"]);
        let (a, b) = (p.declare_array("A", 2, 0), p.declare_array("B", 2, 0));
        let c = p.declare_array("C", 2, 0);
        let (half, one) = (ooc_linalg::Rational::new(1, 2), ooc_linalg::Rational::ONE);
        let halved = ArrayRef {
            array: c,
            access: Matrix::from_rationals(2, 2, vec![half, half, ooc_linalg::Rational::ZERO, one]),
            offset: vec![0, 0],
        };
        let sum = |l, r| Expr::Add(Box::new(l), Box::new(r));
        let rhs = sum(
            sum(
                Expr::Ref(identity(a, vec![-1, 0])),
                Expr::Ref(transposed(b)),
            ),
            sum(Expr::Ref(identity(b, vec![0, 0])), Expr::Ref(halved)),
        );
        let mut nest = LoopNest::rectangular(
            "n",
            2,
            1,
            0,
            vec![Statement::assign(identity(a, vec![0, 0]), rhs)],
        );
        let mut nests = vec![nest.clone()];
        nest.body
            .push(Statement::assign(transposed(b), Expr::Const(0.0)));
        nests.push(nest);
        let mut memo = PlanMemo::default();
        for layout in [
            FileLayout::row_major(2),
            FileLayout::col_major(2),
            FileLayout::Hyperplane2D(1, -1),
        ] {
            let layouts = vec![layout; 3];
            let env = env_with(&p, &layouts, &[24], 64);
            for nest in &nests {
                let staging = Staging::for_nest(nest);
                for ranges in [[(1, 24), (1, 24)], [(8, 13), (1, 24)]] {
                    let tables = SpanTables::build(&env, &staging, &ranges, &mut memo);
                    let choices: Vec<Vec<usize>> = tables
                        .cands
                        .iter()
                        .map(|c| (0..c.len()).collect())
                        .collect();
                    let mut trials = Vec::new();
                    for_each_product(&choices, &mut Vec::new(), &mut |choice| {
                        trials.push(choice.to_vec());
                    });
                    // Every trial fits an unbounded budget: the walk
                    // visits all of them, in enumeration order.
                    let mut trials = trials.into_iter();
                    tables.walk(&staging, u64::MAX, &mut |choice, footprint, cost| {
                        assert_eq!(Some(choice.to_vec()), trials.next());
                        let spans: Vec<i64> = choice
                            .iter()
                            .zip(&tables.cands)
                            .map(|(&i, c)| c[i])
                            .collect();
                        assert_eq!(footprint, staging.footprint(&env, &spans));
                        let want = staging.io_cost(&env, &ranges, &spans);
                        assert_eq!(cost.to_bits(), want.to_bits(), "{spans:?} {ranges:?}");
                    });
                    assert_eq!(trials.next(), None);
                }
            }
        }
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
