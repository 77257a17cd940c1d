//! `Staging::hull_into` — the one evaluator of staged regions, run on
//! subscripts compiled when the slot table is built — against the
//! exact definition: per reference and subscript, an affine form's
//! least and greatest value over a box sit at its corners; round them
//! outwards in `Rational`s, refuse a bound that leaves `i64`, and hull
//! the references the slot stages.
//!
//! Random references cover negative, zero and fractional coefficients,
//! halo neighbours of one access class, a second class of a read-only
//! array (its own slot) and of a written one (one hull slot); boxes sit
//! at the origin, at a random lower corner, upside down (`lo > hi`
//! along some levels) and near the ends of `i64`, where both sides
//! must refuse the same boxes.

use ooc_opt::core::plan::Staging;
use ooc_opt::ir::{ArrayId, ArrayRef, Expr, LoopNest, Statement};
use ooc_opt::linalg::{Matrix, Rational};
use proptest::prelude::*;

/// A reference whose access entries are `halves / 2`.
fn reference(
    array: ArrayId,
    halves: &[i64],
    rank: usize,
    depth: usize,
    offset: &[i64],
) -> ArrayRef {
    let entries = halves[..rank * depth]
        .iter()
        .map(|&h| Rational::new(i128::from(h), 2))
        .collect();
    ArrayRef {
        array,
        access: Matrix::from_rationals(rank, depth, entries),
        offset: offset[..rank].to_vec(),
    }
}

/// The region of `r` over the box with corners `lo` and `hi`, from the
/// definition; `None` when a bound leaves `i64`.
fn exact_region(r: &ArrayRef, lo: &[i64], hi: &[i64]) -> Option<(Vec<i64>, Vec<i64>)> {
    let depth = lo.len();
    let mut bounds = (Vec::new(), Vec::new());
    for d in 0..r.rank() {
        let corners: Vec<Rational> = (0..1usize << depth)
            .map(|corner| {
                (0..depth).fold(Rational::from(r.offset[d]), |sum, j| {
                    let x = if corner >> j & 1 == 1 { hi[j] } else { lo[j] };
                    sum + r.access[(d, j)] * Rational::from(x)
                })
            })
            .collect();
        let min = corners.iter().min().expect("a box has corners").floor();
        let max = corners.iter().max().expect("a box has corners").ceil();
        bounds.0.push(i64::try_from(min).ok()?);
        bounds.1.push(i64::try_from(max).ok()?);
    }
    Some(bounds)
}

/// The hull of the regions of `refs`, from the definition.
fn exact_hull(refs: &[&ArrayRef], lo: &[i64], hi: &[i64]) -> Option<(Vec<i64>, Vec<i64>)> {
    let mut hull: Option<(Vec<i64>, Vec<i64>)> = None;
    for r in refs {
        let (rlo, rhi) = exact_region(r, lo, hi)?;
        hull = Some(match hull {
            None => (rlo, rhi),
            Some((hlo, hhi)) => (
                hlo.iter().zip(&rlo).map(|(a, b)| *a.min(b)).collect(),
                hhi.iter().zip(&rhi).map(|(a, b)| *a.max(b)).collect(),
            ),
        });
    }
    hull
}

/// Far box corners: some leave `i64` under a coefficient of 2, some
/// only under larger ones, some under none.
const FAR: [i64; 4] = [i64::MAX, i64::MIN, i64::MAX / 2 + 7, -(i64::MAX / 2) - 9];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hull_into_equals_exact_interval_arithmetic(
        shape in (1usize..=3, 1usize..=2, 1usize..=2),
        halves in proptest::collection::vec(-4i64..=4, 24),
        integer in proptest::collection::vec(any::<bool>(), 4),
        offsets in proptest::collection::vec(-9i64..=9, 10),
        hull_slot in any::<bool>(),
        lows in proptest::collection::vec(-50i64..=50, 3),
        extents in proptest::collection::vec(-3i64..=30, 3),
        far in (0usize..4, 0usize..3),
    ) {
        let (depth, rank_a, rank_w) = shape;
        let (a, w) = (ArrayId(0), ArrayId(1));
        // Matrix k: fractional entries unless `integer[k]` doubles them.
        let class = |k: usize, array: ArrayId, rank: usize, offset: usize| {
            let scale = if integer[k] { 2 } else { 1 };
            let halves: Vec<i64> = halves[6 * k..6 * k + 6].iter().map(|h| h * scale).collect();
            reference(array, &halves, rank, depth, &offsets[2 * offset..])
        };
        let lhs = class(0, w, rank_w, 0);
        let (a1, a2) = (class(1, a, rank_a, 1), class(2, a, rank_a, 3));
        let mut halo = a1.clone();
        halo.offset = offsets[4..4 + rank_a].to_vec();
        let sum = |l: Expr, r: ArrayRef| Expr::Add(Box::new(l), Box::new(Expr::Ref(r)));
        let mut rhs = sum(sum(Expr::Ref(a1.clone()), halo.clone()), a2.clone());
        let mut refs = vec![lhs.clone(), a1, halo, a2];
        if hull_slot {
            // W read through a second class: W is staged as one hull.
            let w2 = class(3, w, rank_w, 4);
            rhs = sum(rhs, w2.clone());
            refs.push(w2);
        }
        let nest = LoopNest::rectangular("n", depth, 1, 0, vec![Statement::assign(lhs, rhs)]);
        let staging = Staging::for_nest(&nest);

        let origin: (Vec<i64>, Vec<i64>) =
            (vec![1; depth], extents[..depth].iter().map(|e| e.abs().max(1)).collect());
        let at_lows: (Vec<i64>, Vec<i64>) = (
            lows[..depth].to_vec(),
            lows.iter().zip(&extents).take(depth).map(|(l, e)| l + e).collect(),
        );
        let mut far_box = at_lows.clone();
        far_box.1[far.1 % depth] = FAR[far.0];
        for (lo, hi) in [origin, at_lows, far_box] {
            for slot in 0..staging.slots() {
                let members: Vec<&ArrayRef> =
                    refs.iter().filter(|r| staging.slot_for(r) == Some(slot)).collect();
                prop_assert!(!members.is_empty());
                let rank = members[0].rank();
                let (mut out_lo, mut out_hi) = (vec![0; rank], vec![0; rank]);
                let evaluated = staging
                    .hull_into(slot, &lo, &hi, &mut out_lo, &mut out_hi)
                    .map(|()| (out_lo, out_hi));
                let expected = exact_hull(&members, &lo, &hi);
                prop_assert_eq!(&evaluated, &expected, "slot {} over {:?}..={:?}", slot, lo, hi);
                if let Some((elo, ehi)) = expected {
                    let region = staging.region(slot, &lo, &hi);
                    prop_assert_eq!((region.lo, region.hi), (elo, ehi));
                }
            }
        }
    }
}
