//! Tiling of out-of-core loop nests (paper §3.3).
//!
//! Tiling is *mandatory* out of core: the program must operate on data
//! tiles that fit in memory. The paper's key observation is that the
//! traditional strategy — tile every loop that carries reuse — is
//! wrong for out-of-core code: tiling the innermost loop (which after
//! the locality transformations sweeps stride-1 through the files)
//! chops each file run into tile-width pieces and multiplies the
//! number of I/O calls. The out-of-core strategy therefore tiles
//! **all loops except the innermost**.
//!
//! This module holds the tiling *decision* a compiled program carries
//! (strategy and legal levels per nest). Tile *sizes* are chosen at
//! execution time from the memory budget (the paper's 1/128 rule) by
//! [`crate::plan`].

use ooc_ir::{ArrayRef, LoopNest, Program};
use ooc_linalg::Rational;
use ooc_runtime::{FileLayout, Region, ELEM_BYTES};
use pfs_sim::MachineConfig;

/// Which loops of a nest get tiled, and how tile shapes are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TilingStrategy {
    /// Tile all but the innermost loop (the paper's out-of-core rule,
    /// §3.3) and shape the remaining spans to minimize modeled I/O
    /// time within the memory budget — the `c-opt`/`h-opt` tiling.
    OutOfCore,
    /// Tile every loop, spans shaped by the same modeled-I/O-time
    /// search as [`TilingStrategy::OutOfCore`] but with the innermost
    /// loop searchable too — competent staging for the baseline
    /// versions (`col`/`row`/`l-opt`/`d-opt`), isolating layout and
    /// loop-order effects from tiling quality.
    Optimized,
    /// Mechanical staging: the innermost loop's slab is read whole,
    /// every other loop is tiled with one common span from the memory
    /// budget. No shape intelligence — kept for ablation studies.
    Slab,
    /// Naive square tiles on every loop including the innermost — the
    /// textbook cache tiling the paper's Figure 3(a) contrasts
    /// against.
    Traditional,
}

impl TilingStrategy {
    /// The tiled levels for a nest of the given depth.
    #[must_use]
    pub fn tiled_levels(&self, depth: usize) -> Vec<usize> {
        match self {
            TilingStrategy::OutOfCore | TilingStrategy::Slab => {
                (0..depth.saturating_sub(1)).collect()
            }
            TilingStrategy::Optimized | TilingStrategy::Traditional => (0..depth).collect(),
        }
    }
}

/// Linear I/O cost weights used by the tile-shape search; derived from
/// the machine model, only ratios matter.
#[derive(Debug, Clone, Copy)]
pub struct IoWeights {
    /// Cost of one I/O call.
    pub per_call: f64,
    /// Cost of moving one element.
    pub per_elem: f64,
}

impl IoWeights {
    /// Wall-clock weights on `machine`: disk-side call service (the
    /// call overhead plus one minimum block) spreads over the I/O
    /// nodes, the synchronous issue cost stays serial at the
    /// processor, bytes stream through the processor's link to the
    /// I/O partition.
    #[must_use]
    pub fn for_machine(machine: &MachineConfig) -> Self {
        let disk = &machine.pfs.disk;
        IoWeights {
            per_call: (disk.call_overhead_s + disk.min_transfer_bytes as f64 / disk.bandwidth_bps)
                / machine.pfs.io_nodes as f64
                + machine.compute.io_issue_overhead_s,
            per_elem: ELEM_BYTES as f64 / machine.compute.link_bandwidth_bps,
        }
    }
}

impl Default for IoWeights {
    /// The weights of the default machine.
    fn default() -> Self {
        IoWeights::for_machine(&MachineConfig::default())
    }
}

/// A nest with its tiling decision.
#[derive(Debug, Clone)]
pub struct TiledNest {
    /// The (already transformed) nest.
    pub nest: LoopNest,
    /// Tiled loop levels.
    pub tiled_levels: Vec<usize>,
    /// The strategy that produced `tiled_levels`.
    pub strategy: TilingStrategy,
}

/// A fully compiled program: transformed nests, layouts, tiling.
#[derive(Debug, Clone)]
pub struct TiledProgram {
    /// Declarations and transformed nests.
    pub program: Program,
    /// File layout per array.
    pub layouts: Vec<FileLayout>,
    /// Per-nest tiling decisions (same order as `program.nests`).
    pub nests: Vec<TiledNest>,
}

impl TiledProgram {
    /// Builds a tiled program from an optimizer result.
    ///
    /// Tiling legality is enforced per nest: blocking a loop level is
    /// only legal when no dependence can be negative at that level
    /// (otherwise a tile could read an element a *later* tile writes).
    /// Offending levels are left untiled.
    #[must_use]
    pub fn from_optimized(
        opt: &crate::optimizer::OptimizedProgram,
        strategy: TilingStrategy,
    ) -> Self {
        let nests = opt
            .program
            .nests
            .iter()
            .map(|nest| {
                let deps = ooc_ir::nest_dependences(nest);
                let tiled_levels = strategy
                    .tiled_levels(nest.depth)
                    .into_iter()
                    .filter(|&l| level_tiling_legal(&deps, l))
                    .collect();
                TiledNest {
                    nest: nest.clone(),
                    tiled_levels,
                    strategy,
                }
            })
            .collect();
        TiledProgram {
            program: opt.program.clone(),
            layouts: opt.layouts.clone(),
            nests,
        }
    }
}

/// Whether blocking loop level `l` is legal for the given dependences:
/// every dependence's component at level `l` must be provably
/// non-negative. (Atomic-tile execution then never reads ahead of a
/// write a later tile performs.)
fn level_tiling_legal(deps: &[ooc_ir::Dependence], l: usize) -> bool {
    deps.iter().all(|d| {
        let (lo, _) = d.vector[l].interval();
        lo.is_some_and(|v| v >= 0)
    })
}

/// One subscript of a reference, `offset + Σ c·i_level` over its
/// nonzero coefficients: an access-matrix row compiled once, so that
/// bounding it over a box neither rescans nor indexes the matrix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum AffineRow {
    /// Every coefficient an integer that fits `i64` (every kernel's
    /// rows): `i128` arithmetic, in which a product of two `i64`s
    /// cannot overflow, so only the sums are checked.
    Integer {
        offset: i64,
        terms: Vec<(usize, i64)>,
    },
    /// Any other row: exact interval arithmetic in `Rational`s, rounded
    /// outwards.
    Exact {
        offset: i64,
        terms: Vec<(usize, Rational)>,
    },
}

impl AffineRow {
    /// Subscript `d` of `r`.
    pub(crate) fn of(r: &ArrayRef, d: usize) -> Self {
        let offset = r.offset[d];
        let terms: Vec<(usize, Rational)> = (0..r.depth())
            .map(|j| (j, r.access[(d, j)]))
            .filter(|(_, c)| !c.is_zero())
            .collect();
        let integer: Option<Vec<(usize, i64)>> = terms
            .iter()
            .map(|&(j, c)| Some((j, i64::try_from(c.as_integer()?).ok()?)))
            .collect();
        match integer {
            Some(terms) => AffineRow::Integer { offset, terms },
            None => AffineRow::Exact { offset, terms },
        }
    }

    /// The offset and the `(level, coefficient)` terms of an integer
    /// row.
    pub(crate) fn integer(&self) -> Option<(i64, &[(usize, i64)])> {
        match self {
            AffineRow::Integer { offset, terms } => Some((*offset, terms)),
            AffineRow::Exact { .. } => None,
        }
    }

    /// Whether the subscript moves with loop level `l`.
    pub(crate) fn mentions(&self, l: usize) -> bool {
        match self {
            AffineRow::Integer { terms, .. } => terms.iter().any(|&(j, _)| j == l),
            AffineRow::Exact { terms, .. } => terms.iter().any(|&(j, _)| j == l),
        }
    }

    /// Least and greatest value of the subscript over the box
    /// `lo..=hi` (either corner may be the larger), or `None` when an
    /// intermediate value leaves `i128`.
    fn bounds(&self, lo: &[i64], hi: &[i64]) -> Option<(i128, i128)> {
        match self {
            AffineRow::Integer { offset, terms } => {
                let mut min = i128::from(*offset);
                let mut max = min;
                for &(j, c) in terms {
                    let a = i128::from(c) * i128::from(lo[j]);
                    let b = i128::from(c) * i128::from(hi[j]);
                    min = min.checked_add(a.min(b))?;
                    max = max.checked_add(a.max(b))?;
                }
                Some((min, max))
            }
            AffineRow::Exact { offset, terms } => {
                let mut min = Rational::from(*offset);
                let mut max = min;
                for &(j, c) in terms {
                    // The smaller end by sign, not by `Ord`: comparing
                    // rationals cross-multiplies and panics where this
                    // must return `None`.
                    let (small, large) = if (c.signum() > 0) == (lo[j] <= hi[j]) {
                        (lo[j], hi[j])
                    } else {
                        (hi[j], lo[j])
                    };
                    min = min.checked_add(c.checked_mul(Rational::from(small))?)?;
                    max = max.checked_add(c.checked_mul(Rational::from(large))?)?;
                }
                Some((min.floor(), max.ceil()))
            }
        }
    }
}

/// Writes the hull of the regions of some references of one array
/// over the box `lo..=hi` into `out_lo..=out_hi`: `rows` holds each
/// reference's subscripts in order, `out_lo.len()` (the rank) per
/// reference. `None` when a bound leaves `i64` or an intermediate value
/// `i128`; the outputs are then unspecified.
pub(crate) fn hull_into(
    rows: &[AffineRow],
    lo: &[i64],
    hi: &[i64],
    out_lo: &mut [i64],
    out_hi: &mut [i64],
) -> Option<()> {
    out_lo.fill(i64::MAX);
    out_hi.fill(i64::MIN);
    for (d, row) in (0..out_lo.len()).cycle().zip(rows) {
        let (min, max) = row.bounds(lo, hi)?;
        out_lo[d] = out_lo[d].min(i64::try_from(min).ok()?);
        out_hi[d] = out_hi[d].max(i64::try_from(max).ok()?);
    }
    Some(())
}

/// [`ref_region`], or `None` when a bound leaves `i64` or an
/// intermediate value `i128`.
fn checked_ref_region(r: &ArrayRef, lo: &[i64], hi: &[i64]) -> Option<Region> {
    let rows: Vec<AffineRow> = (0..r.rank()).map(|d| AffineRow::of(r, d)).collect();
    let mut region = Region::new(vec![0; r.rank()], vec![0; r.rank()]);
    hull_into(&rows, lo, hi, &mut region.lo, &mut region.hi)?;
    Some(region)
}

/// The array region touched by one reference when each loop level `j`
/// ranges over `lo[j]..=hi[j]` — exact interval arithmetic on
/// `L·Ī + ō`. For boxes whose regions are known to fit `i64`.
///
/// # Panics
/// Panics when a region bound leaves `i64`.
#[must_use]
pub fn ref_region(r: &ArrayRef, lo: &[i64], hi: &[i64]) -> Region {
    checked_ref_region(r, lo, hi).expect("region bound")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_pick_levels() {
        assert_eq!(TilingStrategy::OutOfCore.tiled_levels(3), vec![0, 1]);
        assert_eq!(TilingStrategy::Traditional.tiled_levels(3), vec![0, 1, 2]);
        assert_eq!(TilingStrategy::Slab.tiled_levels(2), vec![0]);
        assert_eq!(
            TilingStrategy::OutOfCore.tiled_levels(1),
            Vec::<usize>::new()
        );
        assert_eq!(TilingStrategy::Traditional.tiled_levels(1), vec![0]);
    }

    /// The default weights are derived from the default machine and
    /// must stay bit-equal to the literals every baseline was planned
    /// with.
    #[test]
    fn default_weights_are_the_default_machines() {
        let w = IoWeights::default();
        let per_call: f64 = (3.0e-3 + 1024.0 / 1.5e6) / 64.0 + 5.0e-3;
        let per_elem: f64 = 8.0 / 0.6e6;
        assert_eq!(w.per_call.to_bits(), per_call.to_bits());
        assert_eq!(w.per_elem.to_bits(), per_elem.to_bits());
        let machine = MachineConfig::default();
        assert_eq!(machine.pfs.max_call_bytes / ELEM_BYTES, 4 * 1024 * 1024 / 8);
    }

    #[test]
    fn ref_region_interval_arithmetic() {
        // A(i+1, j-1) over i in 2..4, j in 1..3: rows 3..5, cols 0..2.
        let r = ArrayRef::new(ooc_ir::ArrayId(0), &[vec![1, 0], vec![0, 1]], vec![1, -1]);
        let reg = ref_region(&r, &[2, 1], &[4, 3]);
        assert_eq!(reg.lo, vec![3, 0]);
        assert_eq!(reg.hi, vec![5, 2]);
        // Negative coefficient: A(N-i) style handled by min/max swap.
        let r2 = ArrayRef::new(ooc_ir::ArrayId(0), &[vec![-1, 0], vec![0, 1]], vec![10, 0]);
        let reg2 = ref_region(&r2, &[2, 1], &[4, 3]);
        assert_eq!(reg2.lo, vec![6, 1]);
        assert_eq!(reg2.hi, vec![8, 3]);
        // A bound outside i64 is reported, not wrapped.
        let far = ArrayRef::new(ooc_ir::ArrayId(0), &[vec![4]], vec![0]);
        assert!(checked_ref_region(&far, &[1], &[i64::MAX / 2]).is_none());
    }

    /// Subscript `d` of `r` on the exact path, whatever its coefficients.
    fn exact_row(r: &ArrayRef, d: usize) -> AffineRow {
        match AffineRow::of(r, d) {
            AffineRow::Integer { offset, terms } => AffineRow::Exact {
                offset,
                terms: terms
                    .into_iter()
                    .map(|(j, c)| (j, Rational::from(c)))
                    .collect(),
            },
            exact => exact,
        }
    }

    /// A reference with the given access entries in halves.
    fn ref_of_halves(halves: &[i64], rank: usize, depth: usize, offset: &[i64]) -> ArrayRef {
        let entries = halves[..rank * depth]
            .iter()
            .map(|&h| Rational::new(i128::from(h), 2))
            .collect();
        ArrayRef {
            array: ooc_ir::ArrayId(0),
            access: ooc_linalg::Matrix::from_rationals(rank, depth, entries),
            offset: offset[..rank].to_vec(),
        }
    }

    proptest::proptest! {
        /// Both row evaluators against the definition: a subscript is
        /// affine, so its extremes over a box sit at corners.
        #[test]
        fn region_rows_match_the_corners_of_the_box(
            halves in proptest::collection::vec(-6i64..=6, 9),
            integer in proptest::strategy::any::<bool>(),
            shape in (1usize..=3, 1usize..=3),
            offset in proptest::collection::vec(-50i64..=50, 3),
            lows in proptest::collection::vec(-40i64..=40, 3),
            extents in proptest::collection::vec(0i64..=30, 3),
        ) {
            let (rank, depth) = shape;
            let scale = if integer { 2 } else { 1 };
            let halves: Vec<i64> = halves.iter().map(|h| h * scale).collect();
            let r = ref_of_halves(&halves, rank, depth, &offset);
            let lo = &lows[..depth];
            let hi: Vec<i64> = lo.iter().zip(&extents).map(|(l, e)| l + e).collect();
            let region = checked_ref_region(&r, lo, &hi).expect("small numbers");
            for d in 0..rank {
                let corners = (0..1usize << depth).map(|corner| {
                    let at = (0..depth).map(|j| if corner >> j & 1 == 1 { hi[j] } else { lo[j] });
                    at.enumerate().fold(Rational::from(r.offset[d]), |sum, (j, x)| {
                        sum + r.access[(d, j)] * Rational::from(x)
                    })
                });
                let corners: Vec<Rational> = corners.collect();
                let min = corners.iter().min().expect("a box has corners").floor();
                let max = corners.iter().max().expect("a box has corners").ceil();
                proptest::prop_assert_eq!((i128::from(region.lo[d]), i128::from(region.hi[d])), (min, max));
                proptest::prop_assert_eq!(exact_row(&r, d).bounds(lo, &hi), Some((min, max)));
                let row = AffineRow::of(&r, d);
                let integer = (0..depth).all(|j| r.access[(d, j)].is_integer());
                proptest::prop_assert_eq!(matches!(row, AffineRow::Integer { .. }), integer);
                proptest::prop_assert_eq!(row.bounds(lo, &hi), Some((min, max)));
                proptest::prop_assert_eq!(row.bounds(&hi, lo), Some((min, max)));
            }
        }
    }

    /// Leaving `i64` at the end or `i128` on the way is `None` from the
    /// integer rows and from the rational rows alike.
    #[test]
    fn overflowing_rows_are_none_on_both_paths() {
        let huge = i128::MAX / 2;
        let fits_i64 = |bounds: Option<(i128, i128)>| {
            bounds
                .is_some_and(|(min, max)| i64::try_from(min).is_ok() && i64::try_from(max).is_ok())
        };
        for (entry, den) in [(4, 1), (huge, 1), (9, 2), (huge, 3)] {
            let c = Rational::new(entry, den);
            let r = ArrayRef {
                array: ooc_ir::ArrayId(0),
                access: ooc_linalg::Matrix::from_rationals(1, 2, vec![c, c]),
                offset: vec![0],
            };
            let (lo, hi) = ([1, 1], [i64::MAX / 2, i64::MAX / 2]);
            assert!(checked_ref_region(&r, &lo, &hi).is_none(), "{entry}/{den}");
            assert!(checked_ref_region(&r, &hi, &lo).is_none(), "{entry}/{den}");
            assert!(
                !fits_i64(exact_row(&r, 0).bounds(&lo, &hi)),
                "{entry}/{den}"
            );
            // Integers beyond `i64` take the exact path.
            let row = AffineRow::of(&r, 0);
            let integer = den == 1 && entry != huge;
            assert_eq!(matches!(row, AffineRow::Integer { .. }), integer);
            assert!(!fits_i64(row.bounds(&lo, &hi)), "{entry}/{den}");
            // Over a small box only the huge coefficients overflow.
            let small = checked_ref_region(&r, &[1, 1], &[4, 4]);
            assert_eq!(small.is_some(), entry != huge, "{entry}/{den}");
        }
        // An integer row's products fit `i128`, its sums need not: four
        // terms of 2^126.
        let r = ArrayRef::new(ooc_ir::ArrayId(0), &[vec![i64::MIN; 4]], vec![0]);
        let corner = [i64::MIN; 4];
        assert!(matches!(AffineRow::of(&r, 0), AffineRow::Integer { .. }));
        assert_eq!(AffineRow::of(&r, 0).bounds(&corner, &corner), None);
        assert_eq!(exact_row(&r, 0).bounds(&corner, &corner), None);
    }
}
