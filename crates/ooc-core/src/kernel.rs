//! Compiled tile bodies: the element loops of a nest, lowered once per
//! run and executed by both tile walks
//! ([`walk_sync`](crate::exec) and [`NestRun::step`](crate::pipeline)).
//!
//! [`TileKernel::lower`] resolves everything that does not change
//! from tile step to tile step:
//!
//! * for every reference, its dense slot index in the nest's slot
//!   table ([`Staging`]) plus an *integer* access matrix and offset;
//! * each level's loop bounds with the parameters substituted, as
//!   integer forms `(Σ nₖ·iₖ + c) / den`;
//! * each statement's right-hand side as a postfix **op tape** over an
//!   `f64` stack, emitted in the expression tree's post-order so every
//!   operation sees the same operands in the same order as the
//!   recursive evaluation of `ooc_ir::exec` — results are bit-equal;
//! * each accumulation `W = W op x` (see `fold_of`) as a **fold**: the
//!   tape of `x` alone, closed by one of `Op::FoldAdd/Sub/Mul/Div`,
//!   which applies `W = W op x` to the element `W` addresses — `W` is
//!   never loaded onto the stack;
//! * guards, as "level `g.var` sits at its whole-loop lower/upper
//!   bound", read off the unclamped bounds each level computes on
//!   entry.
//!
//! [`TileKernel::run_in`] binds the kernel to one step's staged tiles —
//! per reference a base address and one address step per loop level,
//! from each tile's strides in the order its data is laid out in — and
//! runs the loops clamped to the tile box, bumping addresses instead of
//! recomputing subscripts.
//! The binding and the loop state live in a [`KernelScratch`] the
//! caller keeps from one step to the next, so a step allocates nothing
//! once it has grown; [`TileKernel::run`] binds into a fresh one.
//!
//! Where the nest's dependences allow it (see `strip_blockers`), an
//! innermost run of two or more iterations is evaluated in **strips**
//! of up to `STRIP` (64) iterations: each op of the tape processes the
//! whole strip before the next op runs — `Load` gathers with the
//! reference's innermost address step, `Store` scatters, a fold folds
//! the strip's values of `x` into `W` one after the other, a guard
//! narrows its statement to the part of the strip it covers. Every
//! element still sees the same operations on the same operands in the
//! same order — a fold keeps one accumulator and the iteration order,
//! with no reassociation — so the results stay bit-equal; only the
//! interleaving across iterations changes, which is what the legality
//! rule licenses. The dependences a fold's own accumulator carries on
//! the innermost level do not count against it: no other reference
//! names its array, and the fold applies them serially. Nests that
//! carry any other dependence on the innermost level, and runs of one
//! iteration, run one iteration at a time.
//!
//! A flat address that leaves its tile would silently alias into a
//! neighbouring row, so every innermost run checks the subscripts of
//! both its endpoints against the tile's region, per dimension
//! (subscripts are affine, so the interior follows). A check of the
//! box corners would not do: regions are clamped to the array and a
//! non-rectangular nest's box over-approximates its points.
//!
//! `ooc_ir::exec` shares none of this: it is the oracle.

use crate::plan::Staging;
use ooc_ir::{ArrayId, ArrayRef, DepElem, Dependence, Expr, Guard, GuardAt, LoopNest, Statement};
use ooc_linalg::{Affine, Rational};
use ooc_runtime::Tile;
use std::io;
use std::ops::Range;

/// Iterations of an innermost run one strip evaluates together.
const STRIP: usize = 64;

/// Whether a dependence of distance `v` leaves the innermost runs free
/// to strip: it is loop-independent at the innermost level or carried
/// by an outer level whose distance cannot be zero. Then no two
/// iterations of one innermost run touch an element one of them
/// writes, so a strip reads nothing another of its iterations writes.
/// `NonNeg` and `Star` admit zero.
fn strip_safe(v: &[DepElem]) -> bool {
    let Some((inner, outer)) = v.split_last() else {
        return false;
    };
    *inner == DepElem::Exact(0)
        || outer.iter().any(|e| match *e {
            DepElem::Exact(k) => k != 0,
            DepElem::Plus | DepElem::Minus => true,
            DepElem::NonNeg | DepElem::Star => false,
        })
}

/// The dependences of `deps` — `nest`'s [`ooc_ir::array_dependences`]
/// — that keep its innermost runs from being evaluated in strips:
/// those not on a fold's array (see `fold_of`) that fail the rule of
/// `strip_safe`. A fold's own array is exempt because the fold
/// applies its accumulations one after the other, in iteration order.
/// The nest strips when there are none.
pub fn strip_blockers<'d>(
    nest: &LoopNest,
    deps: &'d [(ArrayId, Dependence)],
) -> impl Iterator<Item = &'d (ArrayId, Dependence)> {
    let folds: Vec<ArrayId> = nest
        .body
        .iter()
        .filter(|st| fold_of(nest, st).is_some())
        .map(|st| st.lhs.array)
        .collect();
    deps.iter()
        .filter(move |(a, d)| !folds.contains(a) && !strip_safe(&d.vector))
}

/// Whether `nest`, with dependences `deps` (its
/// [`ooc_ir::array_dependences`]), may run its innermost level in
/// strips.
pub(crate) fn strips_legal(nest: &LoopNest, deps: &[(ArrayId, Dependence)]) -> bool {
    nest.depth > 0 && strip_blockers(nest, deps).next().is_none()
}

/// `Some((x, close))` when statement `st` of `nest` is a **fold** `W =
/// W op x`, `close` building the op that closes it: the accumulator `W`
/// is the left operand and the same reference as the written one, the
/// innermost level leaves `W`'s subscripts alone (a whole innermost run
/// updates one element), and no other reference of the nest names `W`'s
/// array — not `x`, not another statement, not a second access class.
fn fold_of<'s>(nest: &LoopNest, st: &'s Statement) -> Option<(&'s Expr, FoldOp)> {
    let (acc, x, close): (_, _, FoldOp) = match &st.rhs {
        Expr::Add(a, b) => (a, b, Op::FoldAdd),
        Expr::Sub(a, b) => (a, b, Op::FoldSub),
        Expr::Mul(a, b) => (a, b, Op::FoldMul),
        Expr::Div(a, b) => (a, b, Op::FoldDiv),
        Expr::Const(_) | Expr::Ref(_) => return None,
    };
    let w = &st.lhs;
    let inner = nest.depth.checked_sub(1)?;
    let named = || {
        let refs = nest.body.iter().flat_map(Statement::refs);
        refs.filter(|r| r.array == w.array).count()
    };
    let fold = matches!(&**acc, Expr::Ref(r) if r == w)
        && (0..w.rank()).all(|d| w.access[(d, inner)] == Rational::ZERO)
        && named() == 2;
    fold.then_some((&**x, close))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// `acc + a·b`, or an error when an address leaves `i64`.
fn mul_add(acc: i64, a: i64, b: i64) -> io::Result<i64> {
    a.checked_mul(b)
        .and_then(|x| acc.checked_add(x))
        .ok_or_else(|| invalid("tile address overflows i64".into()))
}

/// One reference, resolved: its slot, and `subscript[d] =
/// offset[d] + Σ_l rows[d·depth + l]·iter[l]` in integers.
struct RefPlan {
    slot: usize,
    rank: usize,
    rows: Vec<i64>,
    offset: Vec<i64>,
    /// Where this reference's per-dimension tile bounds start in a
    /// bound kernel's table.
    first_sub: usize,
}

/// One loop-bound form `(Σ coeffs[k]·iter[k] + constant) / den`,
/// `den > 0`, over the outer iterators.
struct Form {
    coeffs: Vec<i64>,
    constant: i64,
    den: i64,
}

impl Form {
    /// Lowers `a` as a bound of loop `level`: parameters substituted,
    /// scaled to the common denominator. Coefficients of `level` and
    /// deeper variables are zero by construction and dropped, as
    /// `LoopBounds::eval`'s zero padding drops them.
    fn lower(a: &Affine, level: usize, params: &[i64]) -> io::Result<Form> {
        if a.nparams() != params.len() || a.nvars() < level {
            return Err(invalid(format!(
                "loop bound over {} variables and {} parameters at level {level} with {} parameters",
                a.nvars(),
                a.nparams(),
                params.len()
            )));
        }
        let constant = a
            .param_coeffs
            .iter()
            .zip(params)
            .fold(a.constant, |acc, (c, &p)| acc + *c * Rational::from(p));
        let terms = || a.var_coeffs[..level].iter().chain([&constant]);
        let overflow = || invalid("loop bound coefficient overflows i64".into());
        let mut den: i128 = 1;
        for t in terms() {
            let g = ooc_linalg::rational::gcd_i128(den, t.den());
            den = (den / g).checked_mul(t.den()).ok_or_else(overflow)?;
        }
        let mut ints = Vec::with_capacity(level + 1);
        for t in terms() {
            let scaled = t.num().checked_mul(den / t.den()).ok_or_else(overflow)?;
            ints.push(i64::try_from(scaled).map_err(|_| overflow())?);
        }
        let constant = ints.pop().unwrap_or(0);
        Ok(Form {
            coeffs: ints,
            constant,
            den: i64::try_from(den).map_err(|_| overflow())?,
        })
    }

    fn numerator(&self, outer: &[i64]) -> i64 {
        self.coeffs
            .iter()
            .zip(outer)
            .fold(self.constant, |acc, (c, i)| acc + c * i)
    }

    fn ceil(&self, outer: &[i64]) -> i64 {
        -(-self.numerator(outer)).div_euclid(self.den)
    }

    fn floor(&self, outer: &[i64]) -> i64 {
        self.numerator(outer).div_euclid(self.den)
    }
}

/// One loop level: `max ceil(lowers) ..= min floor(uppers)`.
struct Level {
    lowers: Vec<Form>,
    uppers: Vec<Form>,
}

impl Level {
    /// The whole-loop bounds at the given outer iterators; `None` when
    /// the loop is empty (or unbounded) there.
    fn eval(&self, outer: &[i64]) -> Option<(i64, i64)> {
        let lo = self.lowers.iter().map(|f| f.ceil(outer)).max()?;
        let hi = self.uppers.iter().map(|f| f.floor(outer)).min()?;
        (lo <= hi).then_some((lo, hi))
    }
}

/// One operation of the body's tape: postfix over the `f64` stack,
/// one statement after the other.
#[derive(Clone, Copy)]
enum Op {
    /// Opens guarded statement `.0`: continue at op `.1` unless the
    /// statement executes at this iteration.
    Guard(usize, usize),
    Const(f64),
    /// Push the element reference `.1` addresses in slot `.0`.
    Load(usize, usize),
    Add,
    Sub,
    Mul,
    Div,
    /// Closes a statement: pop into the element reference `.1`
    /// addresses in slot `.0`.
    Store(usize, usize),
    /// Close a fold: `W = W op x` for each popped `x`, in iteration
    /// order, `W` the element reference `.1` addresses in slot `.0`.
    /// One op per operation keeps the tape's layout that of the other
    /// ops: a third field naming the operation made the tag a byte
    /// beside it and slowed the dispatch of every tape.
    FoldAdd(usize, usize),
    FoldSub(usize, usize),
    FoldMul(usize, usize),
    FoldDiv(usize, usize),
}

/// Builds the op that closes a fold, from its slot and reference.
type FoldOp = fn(usize, usize) -> Op;

/// One statement: its references (the written one first) and its
/// guards.
struct Stmt {
    refs: Range<usize>,
    guards: Vec<Guard>,
}

/// The compiled body of one nest at fixed parameters. See the module
/// docs.
pub struct TileKernel {
    depth: usize,
    /// The `(array, slot within the array)` key of each dense slot.
    slot_keys: Vec<(usize, usize)>,
    refs: Vec<RefPlan>,
    /// Tile-bound table entries all references need together.
    subs: usize,
    levels: Vec<Level>,
    stmts: Vec<Stmt>,
    tape: Vec<Op>,
    /// Deepest the stack gets on any statement's tape.
    stack: usize,
    /// Whether innermost runs are evaluated in strips.
    strips: bool,
    /// Whether some statement lowered to a fold.
    folds: bool,
}

impl TileKernel {
    /// Lowers `nest` at the given parameter values.
    ///
    /// # Errors
    /// `InvalidInput` when the nest cannot run as a tile body: a
    /// non-integer access-matrix entry, a reference whose shape does
    /// not match the nest or that no slot stages, a guard on a level
    /// the nest does not have, or a bound that leaves `i64`.
    pub fn lower(nest: &LoopNest, params: &[i64]) -> io::Result<Self> {
        let strips = strips_legal(nest, &ooc_ir::array_dependences(nest));
        Self::lower_on(nest, params, &Staging::for_nest(nest), strips)
    }

    /// [`TileKernel::lower`] against the slot table a plan already
    /// built for `nest`, with [`strips_legal`] of its dependences.
    pub(crate) fn lower_on(
        nest: &LoopNest,
        params: &[i64],
        staging: &Staging,
        strips: bool,
    ) -> io::Result<Self> {
        let mut k = TileKernel {
            depth: nest.depth,
            slot_keys: (0..staging.slots())
                .map(|s| staging.key(s))
                .map(|(array, index)| (array.0, index))
                .collect(),
            refs: Vec::new(),
            subs: 0,
            levels: Vec::with_capacity(nest.depth),
            stmts: Vec::with_capacity(nest.body.len()),
            tape: Vec::new(),
            stack: 0,
            strips,
            folds: false,
        };
        for (level, b) in nest.bounds.loop_bounds().iter().enumerate() {
            let lower = |forms: &[Affine]| -> io::Result<Vec<Form>> {
                forms
                    .iter()
                    .map(|a| Form::lower(a, level, params))
                    .collect()
            };
            k.levels.push(Level {
                lowers: lower(&b.lowers)?,
                uppers: lower(&b.uppers)?,
            });
        }
        for st in &nest.body {
            if let Some(g) = st.guards.iter().find(|g| g.var >= nest.depth) {
                return Err(invalid(format!(
                    "guard on level {} of a depth-{} nest",
                    g.var, nest.depth
                )));
            }
            let (first_ref, first_op) = (k.refs.len(), k.tape.len());
            if !st.guards.is_empty() {
                k.tape.push(Op::Guard(k.stmts.len(), 0));
            }
            let (slot, lhs) = k.add_ref(&st.lhs, staging)?;
            // A fold evaluates only `x`; its accumulator is never loaded.
            let (rhs, close) = match fold_of(nest, st) {
                Some((x, close)) => (x, close(slot, lhs)),
                None => (&st.rhs, Op::Store(slot, lhs)),
            };
            k.folds |= !matches!(close, Op::Store(..));
            let stack = k.emit(rhs, staging)?;
            k.stack = k.stack.max(stack);
            k.tape.push(close);
            let end = k.tape.len();
            if let Op::Guard(_, skip) = &mut k.tape[first_op] {
                *skip = end;
            }
            k.stmts.push(Stmt {
                refs: first_ref..k.refs.len(),
                guards: st.guards.clone(),
            });
        }
        Ok(k)
    }

    /// Resolves `r`; returns its `(slot, reference index)`.
    fn add_ref(&mut self, r: &ArrayRef, staging: &Staging) -> io::Result<(usize, usize)> {
        if r.depth() != self.depth || r.offset.len() != r.rank() {
            return Err(invalid(format!(
                "reference to {:?} is {}x{} with {} offsets in a depth-{} nest",
                r.array,
                r.rank(),
                r.depth(),
                r.offset.len(),
                self.depth
            )));
        }
        let mut rows = Vec::with_capacity(r.rank() * self.depth);
        for d in 0..r.rank() {
            for l in 0..self.depth {
                let entry = r.access[(d, l)];
                let int = entry.as_integer().and_then(|v| i64::try_from(v).ok());
                rows.push(int.ok_or_else(|| {
                    invalid(format!(
                        "access entry {entry} of a reference to {:?} is not an i64",
                        r.array
                    ))
                })?);
            }
        }
        let slot = staging
            .slot_for(r)
            .ok_or_else(|| invalid(format!("no staged slot for a reference to {:?}", r.array)))?;
        self.refs.push(RefPlan {
            slot,
            rank: r.rank(),
            rows,
            offset: r.offset.clone(),
            first_sub: self.subs,
        });
        self.subs += r.rank();
        Ok((slot, self.refs.len() - 1))
    }

    /// Appends `e` to the tape in post-order; returns the stack depth
    /// it needs.
    fn emit(&mut self, e: &Expr, staging: &Staging) -> io::Result<usize> {
        let (a, b, op) = match e {
            Expr::Const(c) => {
                self.tape.push(Op::Const(*c));
                return Ok(1);
            }
            Expr::Ref(r) => {
                let (slot, r) = self.add_ref(r, staging)?;
                self.tape.push(Op::Load(slot, r));
                return Ok(1);
            }
            Expr::Add(a, b) => (a, b, Op::Add),
            Expr::Sub(a, b) => (a, b, Op::Sub),
            Expr::Mul(a, b) => (a, b, Op::Mul),
            Expr::Div(a, b) => (a, b, Op::Div),
        };
        let left = self.emit(a, staging)?;
        let right = self.emit(b, staging)?;
        self.tape.push(op);
        Ok(left.max(right + 1))
    }

    /// Whether innermost runs are evaluated in strips rather than one
    /// iteration at a time (see the module docs).
    #[must_use]
    pub fn strips(&self) -> bool {
        self.strips
    }

    /// Whether some statement lowered to a fold `W = W op x` (see the
    /// module docs).
    #[must_use]
    pub fn folds(&self) -> bool {
        self.folds
    }

    /// Number of tile slots [`run`](Self::run) expects.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slot_keys.len()
    }

    /// The dense index of the slot a tile schedule names `(array,
    /// slot)` (a `SlotKey`'s two fields).
    ///
    /// # Errors
    /// `InvalidInput` when the nest stages no such slot.
    pub fn slot_index(&self, array: usize, slot: usize) -> io::Result<usize> {
        self.slot_keys
            .iter()
            .position(|&key| key == (array, slot))
            .ok_or_else(|| invalid(format!("the nest stages no slot {slot} of array {array}")))
    }

    /// [`TileKernel::run_in`] with a scratch of its own.
    ///
    /// # Errors
    /// As [`TileKernel::run_in`].
    ///
    /// # Panics
    /// As [`TileKernel::run_in`].
    pub fn run(
        &self,
        tiles: &mut [Option<Tile>],
        box_lo: &[i64],
        box_hi: &[i64],
    ) -> io::Result<()> {
        let tiles = tiles.iter_mut().map(Option::as_mut);
        self.run_in(&mut KernelScratch::default(), tiles, box_lo, box_hi)
    }

    /// Runs every iteration of the nest inside the tile box
    /// `box_lo..=box_hi` on `tiles`, one staged tile (or `None`) per
    /// slot in dense slot order: levels outermost to innermost,
    /// statements in body order within each iteration. The binding is
    /// made in `scratch`, reset here — any kernel's scratch will do.
    ///
    /// # Errors
    /// `InvalidInput` when a referenced slot holds no tile or a tile of
    /// the wrong rank, or an address leaves `i64`.
    ///
    /// # Panics
    /// Panics when a reference leaves its staged tile — a compiler
    /// bug that must surface in tests (see the module docs).
    pub fn run_in<'t>(
        &self,
        scratch: &mut KernelScratch,
        tiles: impl IntoIterator<Item = Option<&'t mut Tile>>,
        box_lo: &[i64],
        box_hi: &[i64],
    ) -> io::Result<()> {
        if self.depth == 0 {
            return Ok(());
        }
        if box_lo.len() != self.depth || box_hi.len() != self.depth {
            return Err(invalid(format!(
                "tile box of rank {} for a depth-{} nest",
                box_lo.len(),
                self.depth
            )));
        }
        let mut bound = Bound {
            k: self,
            bufs: recycle(std::mem::take(&mut scratch.bufs)),
            box_lo,
            box_hi,
            s: std::mem::take(&mut scratch.loops),
        };
        bound.s.reset(self);
        bound.bind(tiles)?;
        bound.level(0);
        scratch.loops = bound.s;
        scratch.bufs = recycle(bound.bufs);
        Ok(())
    }
}

/// What [`TileKernel::run_in`] binds a kernel into, kept by the caller
/// between steps so that a step allocates nothing once the buffers have
/// grown to the largest kernel it served.
#[derive(Default)]
pub struct KernelScratch {
    loops: Loops,
    /// Always empty between runs: the allocation of a run's slot
    /// buffer list.
    bufs: Vec<&'static mut [f64]>,
}

/// Empties `v` and returns its allocation for borrows of another
/// lifetime: an in-place `collect` keeps the buffer of a vector whose
/// elements have the same layout.
fn recycle<'a>(mut v: Vec<&mut [f64]>) -> Vec<&'a mut [f64]> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

/// A bound kernel's addresses and loop state.
#[derive(Default)]
struct Loops {
    /// `steps[l·n + r]`: what one iteration of level `l` adds to the
    /// address of reference `r`.
    steps: Vec<i64>,
    /// Per reference and dimension, the tile's inclusive subscript
    /// bounds (indexed from `RefPlan::first_sub`).
    sub_bounds: Vec<(i64, i64)>,
    /// Iterators of the levels entered so far.
    iter: Vec<i64>,
    /// Unclamped bounds of each level entered so far — what guards
    /// compare against.
    whole: Vec<(i64, i64)>,
    /// `addr[l·n + r]`: address of reference `r` with levels `< l` at
    /// `iter` and the rest at zero; row `depth` is the live address.
    addr: Vec<i64>,
    /// Per statement, the iterations of the current innermost run it
    /// executes at.
    active: Vec<(i64, i64)>,
    /// The operand stack of the per-iteration loop, unless the kernel
    /// strips: then its one-iteration runs borrow the strip loop's.
    stack: Vec<f64>,
    /// The operand stack of the strip loop: one strip per entry.
    lanes: Vec<[f64; STRIP]>,
}

impl Loops {
    /// Sizes every buffer for kernel `k` and zeroes it, as a fresh
    /// binding starts.
    fn reset(&mut self, k: &TileKernel) {
        let n = k.refs.len();
        let (stack, lanes) = if k.strips { (0, k.stack) } else { (k.stack, 0) };
        reset(&mut self.steps, k.depth * n, 0);
        reset(&mut self.sub_bounds, k.subs, (0, 0));
        reset(&mut self.iter, k.depth, 0);
        reset(&mut self.whole, k.depth, (0, 0));
        reset(&mut self.addr, (k.depth + 1) * n, 0);
        reset(&mut self.active, k.stmts.len(), (0, 0));
        reset(&mut self.stack, stack, 0.0);
        reset(&mut self.lanes, lanes, [0.0; STRIP]);
    }
}

/// Makes `v` `len` copies of `x`, in its own buffer.
fn reset<T: Copy>(v: &mut Vec<T>, len: usize, x: T) {
    v.clear();
    v.resize(len, x);
}

/// A kernel bound to one step's tiles, plus the loop state.
struct Bound<'k, 'b, 't> {
    k: &'k TileKernel,
    /// Each slot's tile data.
    bufs: Vec<&'t mut [f64]>,
    box_lo: &'b [i64],
    box_hi: &'b [i64],
    s: Loops,
}

impl<'t> Bound<'_, '_, 't> {
    /// Binds every reference to its slot's tile, slot by slot: a base
    /// address and per-level address steps over the tile's region in
    /// the tile's order, its last dimension fastest, and the region's
    /// bounds.
    fn bind(&mut self, tiles: impl IntoIterator<Item = Option<&'t mut Tile>>) -> io::Result<()> {
        let k = self.k;
        let (n, depth) = (k.refs.len(), k.depth);
        let unstaged =
            |rp: &RefPlan| invalid(format!("slot {} holds no rank-{} tile", rp.slot, rp.rank));
        for (slot, tile) in tiles.into_iter().enumerate() {
            let mut refs = k.refs.iter().enumerate().filter(|(_, rp)| rp.slot == slot);
            let Some(tile) = tile else {
                if let Some((_, rp)) = refs.next() {
                    return Err(unstaged(rp));
                }
                self.bufs.push(&mut []);
                continue;
            };
            let (region, order, data) = tile.parts_mut();
            for (r, rp) in refs {
                if region.rank() != rp.rank {
                    return Err(unstaged(rp));
                }
                let s = &mut self.s;
                let mut stride = 1i64;
                for &d in order.iter().rev() {
                    s.addr[r] = mul_add(s.addr[r], stride, rp.offset[d] - region.lo[d])?;
                    for l in 0..depth {
                        let at = l * n + r;
                        s.steps[at] = mul_add(s.steps[at], stride, rp.rows[d * depth + l])?;
                    }
                    stride = mul_add(0, stride, region.extent(d))?;
                    s.sub_bounds[rp.first_sub + d] = (region.lo[d], region.hi[d]);
                }
            }
            self.bufs.push(data);
        }
        match k.refs.iter().find(|rp| rp.slot >= self.bufs.len()) {
            Some(rp) => Err(unstaged(rp)),
            None => Ok(()),
        }
    }

    fn level(&mut self, l: usize) {
        let k = self.k;
        let Some(whole) = k.levels[l].eval(&self.s.iter[..l]) else {
            return;
        };
        self.s.whole[l] = whole;
        let (lo, hi) = (whole.0.max(self.box_lo[l]), whole.1.min(self.box_hi[l]));
        if lo > hi {
            return;
        }
        let n = k.refs.len();
        let (outer, inner) = self.s.addr.split_at_mut((l + 1) * n);
        let steps = &self.s.steps[l * n..(l + 1) * n];
        for ((a, base), s) in inner.iter_mut().zip(&outer[l * n..]).zip(steps) {
            *a = base + s * lo;
        }
        if l + 1 == k.depth {
            self.innermost(lo, hi);
            return;
        }
        for v in lo..=hi {
            self.s.iter[l] = v;
            self.level(l + 1);
            let row = &mut self.s.addr[(l + 1) * n..(l + 2) * n];
            for (a, s) in row.iter_mut().zip(&self.s.steps[l * n..]) {
                *a += s;
            }
        }
    }

    /// One run `lo..=hi` of the innermost level.
    fn innermost(&mut self, lo: i64, hi: i64) {
        let k = self.k;
        let inner = k.depth - 1;
        for (s, st) in k.stmts.iter().enumerate() {
            // A guard on the innermost level narrows the run to the
            // one iteration at the whole-loop bound; a guard on an
            // outer level holds for the whole run or not at all.
            let (mut from, mut to) = (lo, hi);
            for g in &st.guards {
                let at = match g.at {
                    GuardAt::LowerBound => self.s.whole[g.var].0,
                    GuardAt::UpperBound => self.s.whole[g.var].1,
                };
                if g.var == inner {
                    (from, to) = (from.max(at), to.min(at));
                } else if self.s.iter[g.var] != at {
                    (from, to) = (1, 0);
                }
            }
            self.s.active[s] = (from, to);
            if from <= to {
                for r in st.refs.clone() {
                    self.check_endpoints(r, from, to);
                }
            }
        }
        // A strip of one iteration is slower than the per-iteration loop.
        if k.strips && hi > lo {
            self.strips(lo, hi);
            return;
        }
        // One iteration at a time, the whole tape per iteration.
        let n = k.refs.len();
        let cur = &mut self.s.addr[k.depth * n..];
        let steps = &self.s.steps[inner * n..];
        let stack = if k.strips {
            self.s.lanes.as_flattened_mut()
        } else {
            &mut self.s.stack[..]
        };
        let (bufs, active) = (&mut self.bufs, &self.s.active);
        for v in lo..=hi {
            let (mut pc, mut sp) = (0, 0);
            while let Some(&op) = k.tape.get(pc) {
                pc += 1;
                match op {
                    Op::Guard(stmt, skip) => {
                        let (from, to) = active[stmt];
                        if v < from || v > to {
                            pc = skip;
                        }
                    }
                    Op::Const(c) => {
                        stack[sp] = c;
                        sp += 1;
                    }
                    // A negative address wraps past any tile length
                    // and fails the slice's bounds check.
                    Op::Load(slot, r) => {
                        stack[sp] = bufs[slot][cur[r] as usize];
                        sp += 1;
                    }
                    Op::Add => {
                        sp -= 1;
                        stack[sp - 1] += stack[sp];
                    }
                    Op::Sub => {
                        sp -= 1;
                        stack[sp - 1] -= stack[sp];
                    }
                    Op::Mul => {
                        sp -= 1;
                        stack[sp - 1] *= stack[sp];
                    }
                    Op::Div => {
                        sp -= 1;
                        stack[sp - 1] /= stack[sp];
                    }
                    Op::Store(slot, r) => {
                        sp -= 1;
                        bufs[slot][cur[r] as usize] = stack[sp];
                    }
                    Op::FoldAdd(slot, r) => {
                        sp -= 1;
                        bufs[slot][cur[r] as usize] += stack[sp];
                    }
                    Op::FoldSub(slot, r) => {
                        sp -= 1;
                        bufs[slot][cur[r] as usize] -= stack[sp];
                    }
                    Op::FoldMul(slot, r) => {
                        sp -= 1;
                        bufs[slot][cur[r] as usize] *= stack[sp];
                    }
                    Op::FoldDiv(slot, r) => {
                        sp -= 1;
                        bufs[slot][cur[r] as usize] /= stack[sp];
                    }
                }
            }
            for (a, s) in cur.iter_mut().zip(steps) {
                *a += s;
            }
        }
    }

    /// Runs `lo..=hi` in strips of up to [`STRIP`] iterations, each op
    /// of the tape over the whole strip (or, under a guard, the part
    /// of it the statement executes at) before the next.
    fn strips(&mut self, lo: i64, hi: i64) {
        let k = self.k;
        let n = k.refs.len();
        let cur = &mut self.s.addr[k.depth * n..];
        let steps = &self.s.steps[(k.depth - 1) * n..];
        let (bufs, lanes, active) = (&mut self.bufs, &mut self.s.lanes, &self.s.active);
        let mut first = lo;
        loop {
            let last = hi.min(first.saturating_add(STRIP as i64 - 1));
            let len = (last - first + 1) as usize;
            // The strip positions the current statement executes at.
            let mut part = (0, len);
            let (mut pc, mut sp) = (0, 0);
            while let Some(&op) = k.tape.get(pc) {
                pc += 1;
                match op {
                    Op::Guard(stmt, skip) => {
                        let (from, to) = active[stmt];
                        let (from, to) = (from.max(first), to.min(last));
                        if from > to {
                            pc = skip;
                        } else {
                            part = ((from - first) as usize, (to - first + 1) as usize);
                        }
                    }
                    Op::Const(c) => {
                        lanes[sp][part.0..part.1].fill(c);
                        sp += 1;
                    }
                    Op::Load(slot, r) => {
                        let at = cur[r] + steps[r] * part.0 as i64;
                        gather(bufs[slot], at, steps[r], &mut lanes[sp][part.0..part.1]);
                        sp += 1;
                    }
                    Op::Add => sp = binary(lanes, sp, part, |x, y| *x += y),
                    Op::Sub => sp = binary(lanes, sp, part, |x, y| *x -= y),
                    Op::Mul => sp = binary(lanes, sp, part, |x, y| *x *= y),
                    Op::Div => sp = binary(lanes, sp, part, |x, y| *x /= y),
                    Op::Store(slot, r) => {
                        sp -= 1;
                        let at = cur[r] + steps[r] * part.0 as i64;
                        scatter(&lanes[sp][part.0..part.1], bufs[slot], at, steps[r]);
                        part = (0, len);
                    }
                    // The innermost level leaves a fold's element alone,
                    // so its address is the run's.
                    Op::FoldAdd(slot, r) => {
                        sp -= 1;
                        let xs = &lanes[sp][part.0..part.1];
                        fold(&mut bufs[slot][cur[r] as usize], xs, |w, x| w + x);
                        part = (0, len);
                    }
                    Op::FoldSub(slot, r) => {
                        sp -= 1;
                        let xs = &lanes[sp][part.0..part.1];
                        fold(&mut bufs[slot][cur[r] as usize], xs, |w, x| w - x);
                        part = (0, len);
                    }
                    Op::FoldMul(slot, r) => {
                        sp -= 1;
                        let xs = &lanes[sp][part.0..part.1];
                        fold(&mut bufs[slot][cur[r] as usize], xs, |w, x| w * x);
                        part = (0, len);
                    }
                    Op::FoldDiv(slot, r) => {
                        sp -= 1;
                        let xs = &lanes[sp][part.0..part.1];
                        fold(&mut bufs[slot][cur[r] as usize], xs, |w, x| w / x);
                        part = (0, len);
                    }
                }
            }
            if last == hi {
                return;
            }
            for (a, s) in cur.iter_mut().zip(steps) {
                *a += s * len as i64;
            }
            first = last + 1;
        }
    }

    /// Asserts that reference `r` stays inside its tile at both ends
    /// `from` and `to` of an innermost run.
    fn check_endpoints(&self, r: usize, from: i64, to: i64) {
        let depth = self.k.depth;
        let rp = &self.k.refs[r];
        for d in 0..rp.rank {
            let (row, inner) = rp.rows[d * depth..(d + 1) * depth].split_at(depth - 1);
            let outer = row
                .iter()
                .zip(&self.s.iter)
                .fold(rp.offset[d], |acc, (c, i)| acc + c * i);
            let (lo, hi) = self.s.sub_bounds[rp.first_sub + d];
            for v in [from, to] {
                let sub = outer + inner[0] * v;
                assert!(
                    lo <= sub && sub <= hi,
                    "subscript {sub} of dimension {d} outside tile {lo}..={hi} of slot {}",
                    rp.slot
                );
            }
        }
    }
}

/// Pops the top strip into the one below it, element by element over
/// `part`; returns the new stack depth.
fn binary(
    lanes: &mut [[f64; STRIP]],
    sp: usize,
    (from, to): (usize, usize),
    f: impl Fn(&mut f64, f64),
) -> usize {
    let (below, top) = lanes.split_at_mut(sp - 1);
    let (x, y) = (&mut below[sp - 2][from..to], &top[0][from..to]);
    for (x, &y) in x.iter_mut().zip(y) {
        f(x, y);
    }
    sp - 1
}

/// `w = op(w, xs[e])` for each `e` in order: one accumulator, no
/// reassociation, so each `w` sees what the per-iteration loop gives it.
fn fold(w: &mut f64, xs: &[f64], op: impl Fn(f64, f64) -> f64) {
    *w = xs.iter().fold(*w, |w, &x| op(w, x));
}

/// Loads `out[e] = buf[at + e·step]`. A negative address wraps past
/// any tile length and fails the slice's bounds check, as in the
/// per-iteration loop; so does one in [`scatter`].
fn gather(buf: &[f64], at: i64, step: i64, out: &mut [f64]) {
    match step {
        0 => out.fill(buf[at as usize]),
        1 => out.copy_from_slice(&buf[at as usize..][..out.len()]),
        _ => {
            for (e, x) in out.iter_mut().enumerate() {
                *x = buf[(at + step * e as i64) as usize];
            }
        }
    }
}

/// Stores `buf[at + e·step] = vals[e]`, in order of `e`.
fn scatter(vals: &[f64], buf: &mut [f64], at: i64, step: i64) {
    if step == 1 {
        buf[at as usize..][..vals.len()].copy_from_slice(vals);
        return;
    }
    for (e, &x) in vals.iter().enumerate() {
        buf[(at + step * e as i64) as usize] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_ir::{ArrayId, Statement};
    use ooc_linalg::{Matrix, Polyhedron};
    use ooc_runtime::Region;

    fn identity_ref(a: usize, offset: Vec<i64>) -> ArrayRef {
        ArrayRef::new(ArrayId(a), &[vec![1, 0], vec![0, 1]], offset)
    }

    /// `A(i,j) = B(i,j) + 1` over `1..=n` squared.
    fn copy_nest() -> LoopNest {
        let rhs = Expr::Add(
            Box::new(Expr::Ref(identity_ref(1, vec![0, 0]))),
            Box::new(Expr::Const(1.0)),
        );
        let stmt = Statement::assign(identity_ref(0, vec![0, 0]), rhs);
        LoopNest::rectangular("copy", 2, 1, 0, vec![stmt])
    }

    fn tile(lo: [i64; 2], hi: [i64; 2], fill: f64) -> Option<Tile> {
        let mut t = Tile::zeroed(Region::new(lo.to_vec(), hi.to_vec()));
        t.data_mut().fill(fill);
        Some(t)
    }

    #[test]
    fn runs_the_box_and_nothing_else() {
        let k = TileKernel::lower(&copy_nest(), &[4]).expect("lowers");
        assert_eq!(k.slots(), 2);
        let mut tiles = [tile([1, 1], [4, 4], 0.0), tile([1, 1], [4, 4], 2.0)];
        k.run(&mut tiles, &[2, 1], &[3, 4]).expect("staged");
        let a = tiles[0].as_ref().expect("still staged");
        for i in 1..=4 {
            for j in 1..=4 {
                let want = if (2..=3).contains(&i) { 3.0 } else { 0.0 };
                assert_eq!(a.get(&[i, j]), want, "A({i},{j})");
            }
        }
    }

    /// The read tile stops one column short of the box: without the
    /// endpoint check the flat address of `B(1,4)` would alias to
    /// `B(2,1)` and the run would silently read a neighbour.
    #[test]
    #[should_panic(expected = "outside tile")]
    fn reference_leaving_its_tile_fails_the_endpoint_check() {
        let k = TileKernel::lower(&copy_nest(), &[4]).expect("lowers");
        let mut tiles = [tile([1, 1], [4, 4], 0.0), tile([1, 1], [4, 3], 2.0)];
        let _ = k.run(&mut tiles, &[1, 1], &[4, 4]);
    }

    #[test]
    fn an_unstaged_slot_is_an_error_not_a_panic() {
        let k = TileKernel::lower(&copy_nest(), &[4]).expect("lowers");
        let mut tiles = [tile([1, 1], [4, 4], 0.0), None];
        let err = k
            .run(&mut tiles, &[1, 1], &[4, 4])
            .expect_err("B is missing");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn lowering_rejects_what_cannot_run() {
        let kind = |nest: &LoopNest| {
            TileKernel::lower(nest, &[4])
                .map(|_| ())
                .map_err(|e| e.kind())
        };
        // A(i/2, j): no integer access matrix.
        let mut nest = copy_nest();
        let half = Rational::new(1, 2);
        nest.body[0].lhs.access = Matrix::from_rationals(
            2,
            2,
            vec![half, Rational::ZERO, Rational::ZERO, Rational::ONE],
        );
        assert_eq!(kind(&nest), Err(io::ErrorKind::InvalidInput));
        // A guard on a level the nest does not have.
        let mut nest = copy_nest();
        nest.body[0].guards.push(Guard {
            var: 2,
            at: GuardAt::LowerBound,
        });
        assert_eq!(kind(&nest), Err(io::ErrorKind::InvalidInput));
        // A reference written for a deeper nest.
        let mut nest = copy_nest();
        nest.body[0].lhs = ArrayRef::new(ArrayId(0), &[vec![1, 0, 0], vec![0, 1, 0]], vec![0, 0]);
        assert_eq!(kind(&nest), Err(io::ErrorKind::InvalidInput));
        assert_eq!(kind(&copy_nest()), Ok(()));
    }

    /// Fractional bounds with negative numerators: the integer forms
    /// must round exactly as `LoopBounds::eval` rounds the rationals.
    #[test]
    fn integer_bounds_agree_with_the_rational_ones() {
        // -6 <= x0 <= 6,  (x0 - 3)/2 <= x1 <= (x0 + p)/3.
        let mut poly = Polyhedron::universe(2, 1);
        poly.add_var_range(0, -6, 6);
        let (x0, x1) = (Affine::var(2, 1, 0), Affine::var(2, 1, 1));
        let lower = x1.scale(Rational::from(2i64)).sub(&x0);
        poly.add_ge0(lower.add(&Affine::constant(2, 1, 3)));
        let upper = x0.add(&Affine::param(2, 1, 0));
        poly.add_ge0(upper.sub(&x1.scale(Rational::from(3i64))));
        let stmt = Statement::assign(identity_ref(0, vec![0, 0]), Expr::Const(0.0));
        let nest = LoopNest {
            name: "skewed".into(),
            depth: 2,
            bounds: poly,
            body: vec![stmt],
            iterations: 1,
        };
        let bounds = nest.bounds.loop_bounds();
        for p in [-2i64, 4, 7] {
            let k = TileKernel::lower(&nest, &[p]).expect("lowers");
            assert_eq!(k.levels[0].eval(&[]), bounds[0].eval(&[], &[p]), "p={p}");
            for x0 in -6..=6 {
                assert_eq!(
                    k.levels[1].eval(&[x0]),
                    bounds[1].eval(&[x0], &[p]),
                    "p={p} x0={x0}"
                );
            }
        }
    }
}
