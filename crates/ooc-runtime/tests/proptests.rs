//! Property-based tests of the out-of-core runtime: layouts are
//! bijections, run accounting matches brute force, and tile I/O is
//! lossless under every layout. The run-wise staging path is pinned
//! to an element-by-element oracle built on `offset_of` alone.

use ooc_runtime::testing::{Backend, TempDir};
use ooc_runtime::{
    crc64, crc64_f64s, AccessRecord, FileLayout, MemStore, OocArray, ProfilingStore, Region, Run,
    RuntimeConfig, Store, Tile,
};
use proptest::prelude::*;

fn layout_strategy() -> impl Strategy<Value = FileLayout> {
    prop_oneof![
        Just(FileLayout::row_major(2)),
        Just(FileLayout::col_major(2)),
        Just(FileLayout::Hyperplane2D(1, 1)),
        Just(FileLayout::Hyperplane2D(1, -1)),
        Just(FileLayout::Hyperplane2D(2, 1)),
        Just(FileLayout::Hyperplane2D(3, -2)),
        (1i64..4, 1i64..4).prop_map(|(br, bc)| FileLayout::Blocked2D { br, bc }),
    ]
}

fn dims_strategy() -> impl Strategy<Value = [i64; 2]> {
    (2i64..9, 2i64..9).prop_map(|(a, b)| [a, b])
}

/// Every dimension order of rank 3.
const PERMS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

/// A layout with the extents of an array it can lay out: every 2-D
/// layout of `layout_strategy`, and every dimension order of rank 3.
fn array_strategy() -> impl Strategy<Value = (FileLayout, Vec<i64>)> {
    prop_oneof![
        (layout_strategy(), dims_strategy()).prop_map(|(l, d)| (l, d.to_vec())),
        (0usize..6, 1i64..5, 1i64..5, 1i64..5)
            .prop_map(|(p, a, b, c)| (FileLayout::DimOrder(PERMS[p].to_vec()), vec![a, b, c])),
    ]
}

/// A tile region for an array of extents `dims`: the full array (runs
/// merge across rows and hyperplanes), or arbitrary bounds that may
/// overhang the array on either side or be empty.
fn tile_region(dims: Vec<i64>) -> impl Strategy<Value = Region> {
    let bounds: Vec<_> = dims.iter().map(|&n| (-1..=n + 1, 0..=n + 2)).collect();
    prop_oneof![
        Just(Region::full(&dims)),
        bounds.prop_map(|b| {
            let (lo, hi) = b.into_iter().unzip();
            Region::new(lo, hi)
        }),
    ]
}

fn array_and_tile() -> impl Strategy<Value = (FileLayout, Vec<i64>, Region)> {
    array_strategy().prop_flat_map(|(layout, dims)| {
        tile_region(dims.clone()).prop_map(move |r| (layout.clone(), dims.clone(), r))
    })
}

/// Arrays and tiles on which the staging panels (eight adjacent tile
/// columns, each one file segment) form, or just fail to: column-major
/// arrays and every rank-3 dimension order, extents up to 40, tiles 7,
/// 8, 9, 15, 16 or 17 wide in their last dimension. A tile may
/// overhang the array, and one shorter than a column makes each of its
/// columns a file run of its own, so panels must span runs.
fn panel_tile() -> impl Strategy<Value = (FileLayout, Vec<i64>, Region)> {
    const WIDTHS: [i64; 6] = [7, 8, 9, 15, 16, 17];
    let arrays = prop_oneof![
        (2i64..=40, 2i64..=40).prop_map(|(a, b)| (FileLayout::col_major(2), vec![a, b])),
        (0usize..6, 1i64..=4, 2i64..=40, 2i64..=40)
            .prop_map(|(p, a, b, c)| (FileLayout::DimOrder(PERMS[p].to_vec()), vec![a, b, c])),
    ];
    arrays.prop_flat_map(|(layout, dims)| {
        let bounds: Vec<_> = dims.iter().map(|&n| (-1..=n, 1..=n + 2)).collect();
        (bounds, 0..WIDTHS.len()).prop_map(move |(b, w)| {
            let (lo, mut extents): (Vec<i64>, Vec<i64>) = b.into_iter().unzip();
            *extents.last_mut().expect("rank") = WIDTHS[w];
            let hi = lo.iter().zip(&extents).map(|(l, e)| l + e - 1).collect();
            (layout.clone(), dims.clone(), Region::new(lo, hi))
        })
    })
}

/// Permutation `k` of `0..rank`, for `k < rank!`: each `k` a different
/// one (its factorial-base digits pick from what is left).
fn nth_perm(rank: usize, mut k: usize) -> Vec<usize> {
    let mut left: Vec<usize> = (0..rank).collect();
    let mut perm = Vec::with_capacity(rank);
    for n in (1..=rank).rev() {
        let fact: usize = (1..n).product();
        perm.push(left.remove(k / fact));
        k %= fact;
    }
    perm
}

/// A dimension-order array of rank 1 to 3 under any of its rank's
/// orders, extents 1 to 5, and a tile region as `tile_region` makes.
fn dim_order_tile() -> impl Strategy<Value = (FileLayout, Vec<i64>, Region)> {
    (1usize..=3)
        .prop_flat_map(|rank| {
            let perms: usize = (1..=rank).product();
            (0..perms, vec![1i64..6; rank]).prop_map(move |(k, dims)| (nth_perm(rank, k), dims))
        })
        .prop_flat_map(|(perm, dims)| {
            tile_region(dims.clone())
                .prop_map(move |r| (FileLayout::DimOrder(perm.clone()), dims.clone(), r))
        })
}

/// Every index of `region ∩ array`.
fn indices(dims: &[i64], region: &Region) -> Vec<Vec<i64>> {
    let r = region.clamped(dims);
    let mut out = Vec::new();
    if r.is_empty() {
        return out;
    }
    let mut idx = r.lo.clone();
    loop {
        out.push(idx.clone());
        let mut d = idx.len();
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            if idx[d] < r.hi[d] {
                idx[d] += 1;
                break;
            }
            idx[d] = r.lo[d];
        }
    }
}

/// The oracle for `region_runs`: enumerate every element's offset,
/// sort, and coalesce neighbours.
fn oracle_runs(layout: &FileLayout, dims: &[i64], region: &Region) -> Vec<Run> {
    let mut offsets: Vec<u64> = indices(dims, region)
        .iter()
        .map(|idx| layout.offset_of(dims, idx))
        .collect();
    offsets.sort_unstable();
    let mut runs: Vec<Run> = Vec::new();
    for off in offsets {
        match runs.last_mut() {
            Some(run) if run.start + run.len == off => run.len += 1,
            _ => runs.push(Run { start: off, len: 1 }),
        }
    }
    runs
}

/// CRC-64/XZ one bit at a time.
fn crc64_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xC96C_5795_D787_0F42 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A tile read and a tile write move exactly the elements the
    /// `offset_of` oracle names, in one store call per oracle run in
    /// ascending file order, and account them with the per-run
    /// `div_ceil` arithmetic — on memory and on a real file. Half the
    /// cases are small arrays under every layout, half the wide tiles
    /// of `panel_tile`.
    #[test]
    fn tile_transfers_match_the_elementwise_oracle(
        case in prop_oneof![array_and_tile(), panel_tile()],
        cap in 1u64..6,
    ) {
        let (layout, dims, region) = case;
        let len = dims.iter().product::<i64>() as u64;
        let runs = oracle_runs(&layout, &dims, &region);
        let calls: u64 = runs.iter().map(|r| r.len.div_ceil(cap)).sum();
        let elems: u64 = runs.iter().map(|r| r.len).sum();
        let dir = TempDir::new("tile-oracle").expect("tmp");
        for backend in Backend::ALL {
            let mut model: Vec<f64> = (0..len).map(|off| off as f64 + 0.5).collect();
            let mut store = backend.open(dir.path(), "arr", len).expect("store");
            store.write_run(0, &model).expect("seed");
            let mut arr = OocArray::new(
                "T",
                &dims,
                layout.clone(),
                ProfilingStore::new(store),
                RuntimeConfig { max_call_elems: cap, ..RuntimeConfig::default() },
            );
            prop_assert_eq!(arr.exact_tile_calls(&region), calls);

            let tile = arr.read_tile(&region).expect("read");
            prop_assert_eq!(tile.region(), &region.clamped(&dims));
            for idx in indices(&dims, &region) {
                let off = layout.offset_of(&dims, &idx) as usize;
                prop_assert_eq!(tile.get(&idx), model[off], "read {:?}", idx);
            }

            // Write a tile over the unclamped region: only its
            // in-bounds part may land.
            let mut tile = Tile::zeroed(region.clone());
            for (k, v) in tile.data_mut().iter_mut().enumerate() {
                *v = -(k as f64) - 1.0;
            }
            arr.write_tile(&tile).expect("write");
            for idx in indices(&dims, &region) {
                model[layout.offset_of(&dims, &idx) as usize] = tile.get(&idx);
            }

            let record = |write| move |r: &Run| AccessRecord { offset: r.start, len: r.len, write };
            let expect: Vec<AccessRecord> =
                runs.iter().map(record(false)).chain(runs.iter().map(record(true))).collect();
            prop_assert_eq!(arr.access_log().expect("profiled"), expect);

            let s = arr.stats();
            prop_assert_eq!((s.reads, s.read_calls, s.read_elems), (1, calls, elems));
            prop_assert_eq!((s.writes, s.write_calls, s.write_elems), (1, calls, elems));

            let mut after = vec![0.0; model.len()];
            arr.store().read_run(0, &mut after).expect("dump");
            prop_assert_eq!(&after, &model, "{} contents after write", backend.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A tile staged in its file's dimension order holds every element
    /// where `get` looks for it, and the canonical read holds the same
    /// elements in row-major order. A file-order write of a tile over
    /// the unclamped region — whose overhang splits the runs in the
    /// tile — lands what a canonical read then returns. Each file-order
    /// transfer issues the store calls and counts the `IoStats` of its
    /// canonical twin, call for call.
    #[test]
    fn file_order_tiles_stage_what_canonical_tiles_stage(case in dim_order_tile()) {
        let (layout, dims, region) = case;
        let len = dims.iter().product::<i64>() as u64;
        let model: Vec<f64> = (0..len).map(|off| off as f64 + 0.5).collect();
        let array = || {
            let mut store = MemStore::new(len);
            store.write_run(0, &model).expect("seed");
            let config = RuntimeConfig { max_call_elems: 3, ..RuntimeConfig::default() };
            OocArray::new("T", &dims, layout.clone(), ProfilingStore::new(store), config)
        };
        let (mut ordered, mut canonical) = (array(), array());
        let inside = indices(&dims, &region);
        let at = |idx: &Vec<i64>| layout.offset_of(&dims, idx) as usize;

        let tile = ordered.read_tile(&region).expect("read");
        for idx in &inside {
            prop_assert_eq!(tile.get(idx), model[at(idx)], "{:?} read {:?}", layout, idx);
        }
        let rows = canonical.read_canonical(&region).expect("read");
        let want: Vec<f64> = inside.iter().map(|idx| model[at(idx)]).collect();
        prop_assert_eq!(rows.data(), &want[..]);
        prop_assert_eq!(ordered.stats(), canonical.stats());
        prop_assert_eq!(ordered.access_log(), canonical.access_log());

        let mut tile = ordered.zeroed_tile(region.clone());
        for (k, v) in tile.data_mut().iter_mut().enumerate() {
            *v = -(k as f64) - 1.0;
        }
        let mut rows = Tile::zeroed(region.clone());
        for idx in &inside {
            rows.set(idx, tile.get(idx));
        }
        ordered.write_tile(&tile).expect("write");
        canonical.write_tile(&rows).expect("write");
        prop_assert_eq!(ordered.stats(), canonical.stats());
        prop_assert_eq!(ordered.access_log(), canonical.access_log());

        let back = ordered.read_canonical(&region).expect("read back");
        let want: Vec<f64> = inside.iter().map(|idx| tile.get(idx)).collect();
        prop_assert_eq!(back.data(), &want[..], "{:?} {:?}", layout, region);
        let mut stored = vec![0.0; model.len()];
        ordered.store().read_run(0, &mut stored).expect("dump");
        let mut expect = stored.clone();
        canonical.store().read_run(0, &mut expect).expect("dump");
        prop_assert_eq!(stored, expect);
    }
}

proptest! {
    /// The closed-form runs are exactly the maximal runs of the
    /// enumerate-sort-coalesce oracle, for every layout, rank-3
    /// dimension orders, and full, clamped and empty regions.
    #[test]
    fn region_runs_match_the_elementwise_oracle(case in array_and_tile()) {
        let (layout, dims, region) = case;
        prop_assert_eq!(
            layout.region_runs(&dims, &region),
            oracle_runs(&layout, &dims, &region),
            "{:?} {:?} {:?}", layout, dims, region
        );
    }

    /// The braided CRC equals the bit-at-a-time definition on lengths
    /// that cross zero to four four-lane blocks (a block is 128 words,
    /// 1024 bytes) and end in a ragged tail, at every byte alignment,
    /// and the `f64` form equals the byte form of the same values.
    #[test]
    fn crc64_matches_the_bitwise_definition(
        bytes in proptest::collection::vec(any::<u8>(), 0..4 * 1024 + 200),
        skip in 0usize..9,
    ) {
        let bytes = &bytes[skip.min(bytes.len())..];
        prop_assert_eq!(crc64(bytes), crc64_bitwise(bytes));
        let values: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect();
        prop_assert_eq!(crc64_f64s(&values), crc64_bitwise(&bytes[..values.len() * 8]));
    }

    /// Every layout's offset function is a bijection onto 0..len.
    #[test]
    fn offsets_are_bijective(layout in layout_strategy(), dims in dims_strategy()) {
        let len = (dims[0] * dims[1]) as usize;
        let mut seen = vec![false; len];
        for a1 in 1..=dims[0] {
            for a2 in 1..=dims[1] {
                let off = layout.offset_of(&dims, &[a1, a2]) as usize;
                prop_assert!(off < len, "{layout:?}: offset {off} >= {len}");
                prop_assert!(!seen[off], "{layout:?}: duplicate offset {off}");
                seen[off] = true;
            }
        }
    }

    /// The fast run summary never under-counts the exact runs and
    /// agrees on element totals; for dimension-order layouts it is
    /// exact. The counts-only query is the same two numbers.
    #[test]
    fn summary_matches_exact_runs(
        layout in layout_strategy(),
        dims in dims_strategy(),
    ) {
        let region = Region::new(vec![1, 1], dims.to_vec());
        // Also test a strict sub-region.
        let sub = Region::new(
            vec![1 + dims[0] / 3, 1 + dims[1] / 3],
            vec![dims[0] - dims[0] / 4, dims[1] - dims[1] / 4],
        );
        // And one that overhangs the array on three sides.
        let over = Region::new(vec![0, -1], vec![dims[0] + 2, 1 + dims[1] / 2]);
        for r in [region, sub, over] {
            if r.is_empty() {
                continue;
            }
            let exact = layout.region_runs(&dims, &r);
            let summary = layout.region_run_summary(&dims, &r);
            prop_assert_eq!(
                layout.region_run_counts(&dims, &r.lo, &r.hi),
                (summary.runs, summary.elements)
            );
            let exact_elems: u64 = exact.iter().map(|x| x.len).sum();
            prop_assert_eq!(summary.elements, exact_elems);
            prop_assert!(summary.runs >= exact.len() as u64);
            if matches!(layout, FileLayout::DimOrder(_)) {
                prop_assert_eq!(summary.runs, exact.len() as u64);
            }
            if !exact.is_empty() {
                prop_assert_eq!(summary.min_start, exact[0].start);
                let last = exact.last().expect("nonempty");
                prop_assert_eq!(summary.max_end, last.start + last.len);
            }
        }
    }

    /// Tile reads and writes are lossless: write a tile, read it back,
    /// and untouched elements survive — under every layout.
    #[test]
    fn tile_io_roundtrip(
        layout in layout_strategy(),
        dims in dims_strategy(),
        seed in 0u64..1000,
    ) {
        let mut arr = OocArray::new(
            "T",
            &dims,
            layout,
            MemStore::new((dims[0] * dims[1]) as u64),
            RuntimeConfig { max_call_elems: 4, ..RuntimeConfig::default() },
        );
        arr.initialize(|idx| (idx[0] * 1000 + idx[1]) as f64 + seed as f64)
            .expect("init");
        let r = Region::new(
            vec![1 + dims[0] / 4, 1 + dims[1] / 4],
            vec![dims[0], dims[1] - dims[1] / 4],
        );
        prop_assume!(!r.is_empty());
        let mut tile = arr.read_tile(&r).expect("read");
        // Overwrite the tile with new values and write back.
        for a1 in r.lo[0]..=r.hi[0] {
            for a2 in r.lo[1]..=r.hi[1] {
                tile.set(&[a1, a2], -((a1 * 100 + a2) as f64));
            }
        }
        arr.write_tile(&tile).expect("write");
        // In-region values updated, out-of-region preserved.
        for a1 in 1..=dims[0] {
            for a2 in 1..=dims[1] {
                let got = arr.read_element(&[a1, a2]).expect("read elem");
                let expect = if r.contains(&[a1, a2]) {
                    -((a1 * 100 + a2) as f64)
                } else {
                    (a1 * 1000 + a2) as f64 + seed as f64
                };
                prop_assert_eq!(got, expect, "element ({}, {})", a1, a2);
            }
        }
    }
}
