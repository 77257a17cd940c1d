//! File layouts for out-of-core arrays.
//!
//! A file layout decides the linear order in which array elements are
//! stored on disk — and therefore how many I/O calls a rectangular
//! data tile costs. Layouts supported (paper Figure 2):
//!
//! * [`FileLayout::DimOrder`] — dimension-order layouts for any rank:
//!   row-major, column-major, and every permutation in between.
//! * [`FileLayout::Hyperplane2D`] — general 2-D hyperplane layouts
//!   `(g₁, g₂)`: elements with equal `g₁a₁ + g₂a₂` are stored
//!   consecutively (diagonal `(1,-1)`, anti-diagonal `(1,1)`, …).
//!   `(1,0)`/`(0,1)` coincide with row-/column-major and are handled
//!   by the exact dimension-order fast path.
//! * [`FileLayout::Blocked2D`] — blocked layouts (the optimizer does
//!   not select them, per the paper, but the h-opt hand-optimized
//!   versions use them for chunking).
//!
//! The central query is [`FileLayout::region_runs`]: the maximal
//! contiguous file runs covering a rectangular region. Each run is the
//! unit the PASSION-like runtime turns into I/O calls. Runs are built
//! from *segments* (`FileLayout::for_each_segment`): closed-form
//! pieces that are contiguous in the file and a constant stride apart
//! in the tile, which is also how [`OocArray`](crate::array::OocArray)
//! moves the data.

use ooc_linalg::{extended_gcd, gcd};

/// A rectangular region of an array: 1-based inclusive bounds per
/// dimension.
///
/// The `Ord` impl is lexicographic on `(lo, hi)` — meaningless
/// geometrically, but it lets regions key deterministic ordered maps
/// (the tile cache's eviction scan must break ties identically on
/// every run).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Region {
    /// Lower bounds (1-based, inclusive).
    pub lo: Vec<i64>,
    /// Upper bounds (inclusive).
    pub hi: Vec<i64>,
}

impl Region {
    /// Creates a region; panics if `lo` and `hi` lengths differ.
    #[must_use]
    pub fn new(lo: Vec<i64>, hi: Vec<i64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "region rank mismatch");
        Region { lo, hi }
    }

    /// Full-array region for the given dims.
    #[must_use]
    pub fn full(dims: &[i64]) -> Self {
        Region {
            lo: vec![1; dims.len()],
            hi: dims.to_vec(),
        }
    }

    /// The rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.lo.len()
    }

    /// Extent along dimension `d` (0 if empty).
    #[must_use]
    pub fn extent(&self, d: usize) -> i64 {
        (self.hi[d] - self.lo[d] + 1).max(0)
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> i64 {
        (0..self.rank()).map(|d| self.extent(d)).product()
    }

    /// `true` if the region contains no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the point lies inside.
    #[must_use]
    pub fn contains(&self, idx: &[i64]) -> bool {
        idx.len() == self.rank()
            && idx
                .iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&x, (&l, &h))| l <= x && x <= h)
    }

    /// Whether two regions share at least one point. Regions of
    /// different rank never overlap (they index different arrays).
    /// The write-behind queue uses this to order a read after every
    /// queued write that could produce data the read must see.
    #[must_use]
    pub fn overlaps(&self, other: &Region) -> bool {
        self.rank() == other.rank()
            && !self.is_empty()
            && !other.is_empty()
            && (0..self.rank()).all(|d| self.lo[d] <= other.hi[d] && other.lo[d] <= self.hi[d])
    }

    /// Intersection with array bounds `1..=dims[d]`.
    #[must_use]
    pub fn clamped(&self, dims: &[i64]) -> Region {
        let mut region = self.clone();
        region.clamp_to(dims);
        region
    }

    /// [`Region::clamped`] in place, without allocating.
    pub fn clamp_to(&mut self, dims: &[i64]) {
        for l in &mut self.lo {
            *l = (*l).max(1);
        }
        for (h, &n) in self.hi.iter_mut().zip(dims) {
            *h = (*h).min(n);
        }
    }
}

/// A contiguous run of elements in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Element offset of the first element of the run within the file.
    pub start: u64,
    /// Number of consecutive elements.
    pub len: u64,
}

/// A piece of a tile that is contiguous in the file and a constant
/// stride apart in the tile's data, laid out in the tile's own order:
/// file element `file_start + k` is tile element
/// `tile_start + k * tile_stride` for `k < len`. File-adjacent
/// segments coalesce into [`Run`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub file_start: u64,
    pub len: u64,
    pub tile_start: usize,
    /// At least 1; 1 for single-element segments.
    pub tile_stride: usize,
}

/// Aggregate I/O cost of accessing a region (without materializing
/// every run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Number of maximal contiguous runs.
    pub runs: u64,
    /// Total elements covered.
    pub elements: u64,
    /// Element offset of the first touched byte (for stripe mapping).
    pub min_start: u64,
    /// One past the last touched element offset.
    pub max_end: u64,
}

/// The supported file layouts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FileLayout {
    /// Dimension-order layout: `perm` lists dimensions from outermost
    /// (slowest-varying) to innermost (fastest-varying, contiguous).
    /// For a 2-D array, `perm = [0, 1]` is row-major and `[1, 0]` is
    /// column-major.
    DimOrder(Vec<usize>),
    /// General 2-D hyperplane layout `(g₁, g₂)`: elements are ordered
    /// by hyperplane value `c = g₁a₁ + g₂a₂` ascending, then by `a₁`
    /// (then `a₂`) within a hyperplane.
    Hyperplane2D(i64, i64),
    /// 2-D blocked layout: `br × bc` blocks stored row-major by block,
    /// row-major inside each block.
    Blocked2D {
        /// Block height.
        br: i64,
        /// Block width.
        bc: i64,
    },
}

impl FileLayout {
    /// Row-major for the given rank.
    #[must_use]
    pub fn row_major(rank: usize) -> Self {
        FileLayout::DimOrder((0..rank).collect())
    }

    /// Column-major for the given rank (last dimension outermost).
    #[must_use]
    pub fn col_major(rank: usize) -> Self {
        FileLayout::DimOrder((0..rank).rev().collect())
    }

    /// The layout selected by a 2-D hyperplane vector, routed to the
    /// exact dimension-order representation when the hyperplane is
    /// axis-aligned: `(1,0) ⇒` row-major, `(0,1) ⇒` column-major.
    ///
    /// # Panics
    /// Panics on the zero vector.
    #[must_use]
    pub fn from_hyperplane(g: &[i64]) -> Self {
        assert_eq!(g.len(), 2, "hyperplane layouts are 2-D");
        let p = ooc_linalg::primitive(g);
        match (p[0], p[1]) {
            (0, 0) => panic!("zero hyperplane vector"),
            (1, 0) => FileLayout::row_major(2),
            (0, 1) => FileLayout::col_major(2),
            (g1, g2) => FileLayout::Hyperplane2D(g1, g2),
        }
    }

    /// The order a tile of an array under this layout keeps its data
    /// in, slowest dimension first: a dimension-order layout's own
    /// `perm`, so that every file run is contiguous in the tile, and
    /// row-major for the (2-D) hyperplane and blocked layouts.
    #[must_use]
    pub(crate) fn tile_order(&self) -> &[usize] {
        match self {
            FileLayout::DimOrder(perm) => perm,
            FileLayout::Hyperplane2D(..) | FileLayout::Blocked2D { .. } => &[0, 1],
        }
    }

    /// The hyperplane vector describing this layout, when one exists.
    #[must_use]
    pub fn hyperplane(&self) -> Option<[i64; 2]> {
        match self {
            FileLayout::DimOrder(p) if p.as_slice() == [0, 1] => Some([1, 0]),
            FileLayout::DimOrder(p) if p.as_slice() == [1, 0] => Some([0, 1]),
            FileLayout::Hyperplane2D(g1, g2) => Some([*g1, *g2]),
            _ => None,
        }
    }

    /// Element offset of `idx` (1-based) in a file holding an array of
    /// extents `dims` under this layout.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds or ranks mismatch.
    #[must_use]
    pub fn offset_of(&self, dims: &[i64], idx: &[i64]) -> u64 {
        assert_eq!(dims.len(), idx.len());
        for (d, (&x, &n)) in idx.iter().zip(dims).enumerate() {
            assert!((1..=n).contains(&x), "index {x} out of 1..={n} in dim {d}");
        }
        match self {
            FileLayout::DimOrder(perm) => {
                assert_eq!(perm.len(), dims.len());
                let mut off: u64 = 0;
                for &d in perm {
                    off = off * dims[d] as u64 + (idx[d] - 1) as u64;
                }
                off
            }
            FileLayout::Hyperplane2D(g1, g2) => {
                let h = Hyperplanes::new(*g1, *g2, dims[0], dims[1]);
                h.offset_of(idx[0], idx[1])
            }
            FileLayout::Blocked2D { br, bc } => {
                let (n1, n2) = (dims[0], dims[1]);
                let (bi, bj) = ((idx[0] - 1) / br, (idx[1] - 1) / bc);
                // Elements before this block: full block-rows above plus
                // blocks to the left in this block-row. Edge blocks are
                // smaller; compute exact counts.
                let rows_above = (bi * br).min(n1);
                let elems_above = rows_above * n2;
                let block_h = ((bi + 1) * br).min(n1) - bi * br;
                let mut elems_left = 0;
                for b in 0..bj {
                    let w = ((b + 1) * bc).min(n2) - b * bc;
                    elems_left += block_h * w;
                }
                let block_w = ((bj + 1) * bc).min(n2) - bj * bc;
                let (ri, rj) = ((idx[0] - 1) % br, (idx[1] - 1) % bc);
                (elems_above + elems_left + ri * block_w + rj) as u64
            }
        }
    }

    /// Calls `f` with the segments of `tile ∩ array` in ascending file
    /// order; tile positions are relative to `tile` itself, which may
    /// overhang the array, and to its data laid out in `order`
    /// (dimensions slowest first). Work is per segment, never per
    /// element, and nothing is allocated once `idx` (the walk's index,
    /// any contents) holds a rank's worth:
    ///
    /// * `DimOrder`: one segment per index of the non-innermost layout
    ///   dimensions, the file and tile offsets by Horner's rule — in
    ///   the layout's own order every segment has tile stride 1;
    /// * `Blocked2D`: one per row of each block ∩ tile;
    /// * `Hyperplane2D`: one per intersected hyperplane — a hyperplane
    ///   ∩ rectangle is a contiguous sub-range of the hyperplane and
    ///   steps by a fixed `(Δa₁, Δa₂)`.
    pub(crate) fn for_each_segment(
        &self,
        dims: &[i64],
        tile: &Region,
        order: &[usize],
        idx: &mut Vec<i64>,
        mut f: impl FnMut(Segment),
    ) {
        let rank = dims.len();
        // `tile ∩ array`, dimension by dimension.
        let first = |d: usize| tile.lo[d].max(1);
        let last = |d: usize| tile.hi[d].min(dims[d]);
        if (0..rank).any(|d| first(d) > last(d)) {
            return;
        }
        // Stride and position in the tile's own extents, in `order`.
        let stride = |d: usize| -> i64 {
            let after = order.iter().rev().take_while(|&&e| e != d);
            after.map(|&e| tile.extent(e)).product()
        };
        let tile_pos = |idx: &[i64]| -> i64 {
            order
                .iter()
                .fold(0, |pos, &d| pos * tile.extent(d) + (idx[d] - tile.lo[d]))
        };
        let mut emit = |file_start: i64, len: i64, tile_start: i64, tile_stride: i64| {
            let cast = |v: i64| usize::try_from(v).expect("segment inside the tile");
            if len > 1 && tile_stride < 0 {
                // Along a hyperplane a₂ may fall as a₁ rises, which a
                // column-first tile order turns into a backward step:
                // such a line moves element by element.
                for k in 0..len {
                    f(Segment {
                        file_start: (file_start + k) as u64,
                        len: 1,
                        tile_start: cast(tile_start + k * tile_stride),
                        tile_stride: 1,
                    });
                }
                return;
            }
            f(Segment {
                file_start: file_start as u64,
                len: len as u64,
                tile_start: cast(tile_start),
                tile_stride: if len > 1 { cast(tile_stride) } else { 1 },
            });
        };
        match self {
            FileLayout::DimOrder(perm) => {
                assert_eq!(perm.len(), rank);
                let Some((&inner, outer)) = perm.split_last() else {
                    return emit(0, 1, 0, 1);
                };
                let (len, inner_stride) = (last(inner) - first(inner) + 1, stride(inner));
                idx.clear();
                idx.extend((0..rank).map(first));
                loop {
                    let file_start = perm.iter().fold(0, |off, &d| off * dims[d] + idx[d] - 1);
                    emit(file_start, len, tile_pos(idx), inner_stride);
                    // Odometer over the outer layout dimensions, the
                    // innermost of them fastest.
                    let mut k = outer.len();
                    loop {
                        if k == 0 {
                            return;
                        }
                        k -= 1;
                        let d = outer[k];
                        idx[d] += 1;
                        if idx[d] <= last(d) {
                            break;
                        }
                        idx[d] = first(d);
                    }
                }
            }
            FileLayout::Hyperplane2D(g1, g2) => {
                let h = Hyperplanes::new(*g1, *g2, dims[0], dims[1]);
                let (d1, d2) = h.step();
                let (c_min, _) = h.c_range(1, dims[0], 1, dims[1]);
                let (c_lo, c_hi) = h.c_range(first(0), last(0), first(1), last(1));
                let mut before = 0i64; // elements on hyperplanes < c
                for c in c_min..=c_hi {
                    let Some(full) = h.span(c, 1, dims[0], 1, dims[1]) else {
                        continue;
                    };
                    let inside = if c < c_lo {
                        None
                    } else {
                        h.span(c, first(0), last(0), first(1), last(1))
                    };
                    if let Some(s) = inside {
                        let file_start = before + h.steps_between(&full, &s);
                        emit(
                            file_start,
                            s.count,
                            tile_pos(&[s.a1, s.a2]),
                            d1 * stride(0) + d2 * stride(1),
                        );
                    }
                    before += full.count;
                }
            }
            FileLayout::Blocked2D { br, bc } => {
                let (br, bc) = (*br, *bc);
                for bi in (first(0) - 1) / br..=(last(0) - 1) / br {
                    let block_h = ((bi + 1) * br).min(dims[0]) - bi * br;
                    let (row_lo, row_hi) = (
                        (bi * br + 1).max(first(0)),
                        (bi * br + block_h).min(last(0)),
                    );
                    for bj in (first(1) - 1) / bc..=(last(1) - 1) / bc {
                        let block_w = ((bj + 1) * bc).min(dims[1]) - bj * bc;
                        let (col_lo, col_hi) = (
                            (bj * bc + 1).max(first(1)),
                            (bj * bc + block_w).min(last(1)),
                        );
                        // Full block rows above, then the (full-width)
                        // blocks to the left in this block row.
                        let block_start = bi * br * dims[1] + block_h * bj * bc;
                        for row in row_lo..=row_hi {
                            let in_block = (row - bi * br - 1) * block_w + (col_lo - bj * bc - 1);
                            emit(
                                block_start + in_block,
                                col_hi - col_lo + 1,
                                tile_pos(&[row, col_lo]),
                                stride(1),
                            );
                        }
                    }
                }
            }
        }
    }

    /// The maximal contiguous runs of `region` (clamped to the array),
    /// in ascending file order: file-adjacent segments coalesced.
    /// Exact for every layout, O(segments).
    #[must_use]
    pub fn region_runs(&self, dims: &[i64], region: &Region) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        let order = self.tile_order();
        self.for_each_segment(dims, region, order, &mut Vec::new(), |s| {
            match runs.last_mut() {
                Some(run) if run.start + run.len == s.file_start => run.len += s.len,
                _ => runs.push(Run {
                    start: s.file_start,
                    len: s.len,
                }),
            }
        });
        runs
    }

    /// Number of maximal contiguous runs and of elements in the region
    /// `lo..=hi` (clamped to the array) — what an I/O cost needs,
    /// without the file offsets of [`FileLayout::region_run_summary`]
    /// and without allocating. O(1) for dimension-order layouts,
    /// O(blocks) for blocked ones, O(intersected hyperplanes) for
    /// hyperplane layouts. Exact for [`FileLayout::DimOrder`] and
    /// [`FileLayout::Blocked2D`]; for general hyperplane layouts it
    /// counts one run per intersected hyperplane (exact unless the
    /// region covers whole adjacent hyperplanes, where runs could merge
    /// — a second-order effect).
    #[must_use]
    pub fn region_run_counts(&self, dims: &[i64], lo: &[i64], hi: &[i64]) -> (u64, u64) {
        // The region clamped to the array.
        let first = |d: usize| lo[d].max(1);
        let last = |d: usize| hi[d].min(dims[d]);
        let extent = |d: usize| (last(d) - first(d) + 1).max(0);
        let elements = (0..dims.len()).map(extent).product::<i64>() as u64;
        if elements == 0 {
            return (0, 0);
        }
        // A full-array access is one sequential sweep under any layout.
        if (0..dims.len()).all(|d| extent(d) == dims[d]) {
            return (1, elements);
        }
        let runs = match self {
            FileLayout::DimOrder(perm) => {
                // Innermost (fastest) dimensions that the region covers
                // fully merge into longer runs.
                let mut run_len: u64 = 1;
                for (pos, &d) in perm.iter().enumerate().rev() {
                    run_len *= extent(d) as u64;
                    if extent(d) != dims[d] || pos == 0 {
                        break;
                    }
                }
                elements / run_len
            }
            FileLayout::Hyperplane2D(g1, g2) => {
                let h = Hyperplanes::new(*g1, *g2, dims[0], dims[1]);
                let (c_lo, c_hi) = h.c_range(first(0), last(0), first(1), last(1));
                (c_lo..=c_hi)
                    .filter(|&c| h.span(c, first(0), last(0), first(1), last(1)).is_some())
                    .count() as u64
            }
            FileLayout::Blocked2D { br, bc } => {
                let (r1, r2, c1, c2) = (first(0), last(0), first(1), last(1));
                let mut runs = 0u64;
                for bi in (r1 - 1) / br..=(r2 - 1) / br {
                    // Rows of the region inside block row `bi`.
                    let rows = ((bi + 1) * br).min(r2) - (bi * br + 1).max(r1) + 1;
                    for bj in (c1 - 1) / bc..=(c2 - 1) / bc {
                        let block_w = ((bj + 1) * bc).min(dims[1]) - bj * bc;
                        let width = ((bj + 1) * bc).min(c2) - (bj * bc + 1).max(c1) + 1;
                        // Row-major inside the block: full-width spans merge.
                        runs += if width == block_w { 1 } else { rows as u64 };
                    }
                }
                runs
            }
        };
        (runs, elements)
    }

    /// [`FileLayout::region_run_counts`] plus the file span the region
    /// touches, first element to one past the last.
    #[must_use]
    pub fn region_run_summary(&self, dims: &[i64], region: &Region) -> RunSummary {
        let region = region.clamped(dims);
        if region.is_empty() {
            return RunSummary::default();
        }
        let elements = region.len() as u64;
        if region.hi == dims && region.lo.iter().all(|&l| l == 1) {
            return RunSummary {
                runs: 1,
                elements,
                min_start: 0,
                max_end: elements,
            };
        }
        if let FileLayout::Hyperplane2D(..) = self {
            // The walk that counts the intersected hyperplanes also
            // knows where the first starts and the last ends.
            let mut summary = RunSummary {
                elements,
                ..RunSummary::default()
            };
            self.for_each_segment(dims, &region, &[0, 1], &mut Vec::new(), |s| {
                if summary.runs == 0 {
                    summary.min_start = s.file_start;
                }
                summary.runs += 1;
                summary.max_end = s.file_start + s.len;
            });
            return summary;
        }
        // Dimension-order and blocked layouts store the region's
        // corners first and last.
        RunSummary {
            runs: self.region_run_counts(dims, &region.lo, &region.hi).0,
            elements,
            min_start: self.offset_of(dims, &region.lo),
            max_end: self.offset_of(dims, &region.hi) + 1,
        }
    }
}

/// Helper for general 2-D hyperplane layouts: the points of one
/// hyperplane inside a rectangle in closed form, and from those the
/// cumulative element counts that turn into file offsets.
struct Hyperplanes {
    /// The hyperplane vector, made primitive: dividing `(g₁, g₂)` by
    /// its gcd divides every realized `c` by the same positive number
    /// and so keeps the file order.
    g1: i64,
    g2: i64,
    n1: i64,
    n2: i64,
    /// `g₁⁻¹ mod |g₂|` when both components are nonzero.
    g1_inv: i64,
}

/// The points of one hyperplane inside a rectangle: `count` of them,
/// the first at `(a1, a2)` and each one [`Hyperplanes::step`] after
/// the last — consecutive in the file.
struct Span {
    a1: i64,
    a2: i64,
    count: i64,
}

/// `⌊a / b⌋` for `b > 0`.
fn floor_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b)
}

/// `⌈a / b⌉` for `b > 0`.
fn ceil_div(a: i64, b: i64) -> i64 {
    -(-a).div_euclid(b)
}

impl Hyperplanes {
    fn new(g1: i64, g2: i64, n1: i64, n2: i64) -> Self {
        assert!(g1 != 0 || g2 != 0, "zero hyperplane");
        let d = gcd(g1, g2);
        let (g1, g2) = (g1 / d, g2 / d);
        let g1_inv = if g1 != 0 && g2 != 0 {
            extended_gcd(g1, g2.abs()).1.rem_euclid(g2.abs())
        } else {
            0
        };
        Hyperplanes {
            g1,
            g2,
            n1,
            n2,
            g1_inv,
        }
    }

    /// `(Δa₁, Δa₂)` between consecutive points of a hyperplane, which
    /// are ordered by `a₁`, then `a₂`.
    fn step(&self) -> (i64, i64) {
        match (self.g1, self.g2) {
            (_, 0) => (0, 1),
            (0, _) => (1, 0),
            (g1, g2) => (g2.abs(), -g1 * g2.signum()),
        }
    }

    /// The points of hyperplane `c` inside `[r1, r2] × [c1, c2]`, or
    /// `None` when there are none.
    #[allow(clippy::similar_names)]
    fn span(&self, c: i64, r1: i64, r2: i64, c1: i64, c2: i64) -> Option<Span> {
        let (g1, g2) = (self.g1, self.g2);
        if r1 > r2 || c1 > c2 {
            return None;
        }
        if g2 == 0 {
            // g1 = ±1: the hyperplane is row a1 = c / g1.
            let a1 = c * g1;
            return (r1..=r2).contains(&a1).then_some(Span {
                a1,
                a2: c1,
                count: c2 - c1 + 1,
            });
        }
        if g1 == 0 {
            let a2 = c * g2;
            return (c1..=c2).contains(&a2).then_some(Span {
                a1: r1,
                a2,
                count: r2 - r1 + 1,
            });
        }
        // a2 = (c - g1·a1) / g2 lies in [c1, c2] exactly when g1·a1
        // lies in [c - b2, c - b1], an interval of a1 ...
        let (b1, b2) = if g2 > 0 {
            (g2 * c1, g2 * c2)
        } else {
            (g2 * c2, g2 * c1)
        };
        let (lo, hi) = if g1 > 0 {
            (ceil_div(c - b2, g1), floor_div(c - b1, g1))
        } else {
            (ceil_div(b1 - c, -g1), floor_div(b2 - c, -g1))
        };
        let (lo, hi) = (lo.max(r1), hi.min(r2));
        // ... and is an integer exactly when g1·a1 ≡ c (mod |g2|).
        let m = g2.abs();
        let a1 = lo + (c.rem_euclid(m) * self.g1_inv - lo).rem_euclid(m);
        (a1 <= hi).then(|| Span {
            a1,
            a2: (c - g1 * a1) / g2,
            count: (hi - a1) / m + 1,
        })
    }

    /// How many steps after the first point of `from` the first point
    /// of `to` lies, both on one hyperplane.
    fn steps_between(&self, from: &Span, to: &Span) -> i64 {
        match self.step() {
            (0, d2) => (to.a2 - from.a2) / d2,
            (d1, _) => (to.a1 - from.a1) / d1,
        }
    }

    /// Number of elements on hyperplane `c` (within the full array).
    fn count_on(&self, c: i64) -> i64 {
        self.span(c, 1, self.n1, 1, self.n2).map_or(0, |s| s.count)
    }

    /// Range of hyperplane values realized over a rectangle.
    #[allow(clippy::similar_names)]
    fn c_range(&self, r1: i64, r2: i64, c1: i64, c2: i64) -> (i64, i64) {
        let corners = [
            self.g1 * r1 + self.g2 * c1,
            self.g1 * r1 + self.g2 * c2,
            self.g1 * r2 + self.g2 * c1,
            self.g1 * r2 + self.g2 * c2,
        ];
        (
            *corners.iter().min().expect("nonempty"),
            *corners.iter().max().expect("nonempty"),
        )
    }

    /// Offset of element (a1, a2): elements on smaller hyperplanes plus
    /// the rank within this hyperplane (ordered by a1, then a2).
    fn offset_of(&self, a1: i64, a2: i64) -> u64 {
        let c = self.g1 * a1 + self.g2 * a2;
        let (c_min, _) = self.c_range(1, self.n1, 1, self.n2);
        let before: i64 = (c_min..c).map(|cc| self.count_on(cc)).sum();
        let first = self
            .span(c, 1, self.n1, 1, self.n2)
            .expect("the element's own hyperplane is realized");
        let rank = self.steps_between(&first, &Span { a1, a2, count: 1 });
        (before + rank) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_offsets() {
        let l = FileLayout::row_major(2);
        let dims = [3, 4];
        assert_eq!(l.offset_of(&dims, &[1, 1]), 0);
        assert_eq!(l.offset_of(&dims, &[1, 4]), 3);
        assert_eq!(l.offset_of(&dims, &[2, 1]), 4);
        assert_eq!(l.offset_of(&dims, &[3, 4]), 11);
    }

    #[test]
    fn col_major_offsets() {
        let l = FileLayout::col_major(2);
        let dims = [3, 4];
        assert_eq!(l.offset_of(&dims, &[1, 1]), 0);
        assert_eq!(l.offset_of(&dims, &[3, 1]), 2);
        assert_eq!(l.offset_of(&dims, &[1, 2]), 3);
        assert_eq!(l.offset_of(&dims, &[3, 4]), 11);
    }

    #[test]
    fn three_d_dim_order() {
        // perm [2,0,1]: dim 2 outermost, dim 1 contiguous.
        let l = FileLayout::DimOrder(vec![2, 0, 1]);
        let dims = [2, 3, 4];
        assert_eq!(l.offset_of(&dims, &[1, 1, 1]), 0);
        assert_eq!(l.offset_of(&dims, &[1, 2, 1]), 1);
        assert_eq!(l.offset_of(&dims, &[2, 1, 1]), 3);
        assert_eq!(l.offset_of(&dims, &[1, 1, 2]), 6);
    }

    #[test]
    fn offsets_are_a_bijection() {
        let dims = [5, 6];
        for layout in [
            FileLayout::row_major(2),
            FileLayout::col_major(2),
            FileLayout::Hyperplane2D(1, 1),
            FileLayout::Hyperplane2D(1, -1),
            FileLayout::Hyperplane2D(2, 1),
            FileLayout::Hyperplane2D(7, 4),
            FileLayout::Blocked2D { br: 2, bc: 3 },
            FileLayout::Blocked2D { br: 3, bc: 4 },
        ] {
            let mut seen = [false; 30];
            for a1 in 1..=5 {
                for a2 in 1..=6 {
                    let off = layout.offset_of(&dims, &[a1, a2]) as usize;
                    assert!(off < 30, "{layout:?} offset {off} out of range");
                    assert!(!seen[off], "{layout:?} duplicate offset {off}");
                    seen[off] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{layout:?} not surjective");
        }
    }

    #[test]
    fn diagonal_layout_order() {
        // (1, -1): anti-diagonals a1 - a2 = c ascending. The first
        // hyperplane of a 3x3 array is c = 1-3 = -2: element (1,3).
        let l = FileLayout::Hyperplane2D(1, -1);
        let dims = [3, 3];
        assert_eq!(l.offset_of(&dims, &[1, 3]), 0);
        // c = -1: (1,2), (2,3).
        assert_eq!(l.offset_of(&dims, &[1, 2]), 1);
        assert_eq!(l.offset_of(&dims, &[2, 3]), 2);
        // c = 0: (1,1), (2,2), (3,3).
        assert_eq!(l.offset_of(&dims, &[1, 1]), 3);
        assert_eq!(l.offset_of(&dims, &[3, 3]), 5);
    }

    #[test]
    fn hyperplane_offsets_follow_the_definition() {
        // Order by (g1·a1 + g2·a2, a1, a2), for skewed, axis-aligned,
        // negated and non-primitive vectors alike.
        let dims = [5i64, 7];
        for (g1, g2) in [
            (1, 1),
            (1, -1),
            (-1, 1),
            (-1, -1),
            (2, 1),
            (3, -2),
            (-2, 5),
            (7, 4),
            (1, 0),
            (-1, 0),
            (0, 1),
            (0, -1),
            (2, 2),
            (2, -4),
            (0, 3),
        ] {
            let mut points: Vec<(i64, i64)> = (1..=dims[0])
                .flat_map(|a1| (1..=dims[1]).map(move |a2| (a1, a2)))
                .collect();
            points.sort_by_key(|&(a1, a2)| (g1 * a1 + g2 * a2, a1, a2));
            let layout = FileLayout::Hyperplane2D(g1, g2);
            for (off, &(a1, a2)) in points.iter().enumerate() {
                assert_eq!(
                    layout.offset_of(&dims, &[a1, a2]),
                    off as u64,
                    "({g1},{g2}) at ({a1},{a2})"
                );
            }
        }
    }

    #[test]
    fn segments_map_tile_positions_to_file_offsets() {
        // Every element of tile ∩ array appears in exactly one segment,
        // at its own tile position in either tile order and its own
        // file offset, and the segments ascend in the file — also for
        // tiles that overhang.
        let dims = [6i64, 7];
        let layouts = [
            FileLayout::row_major(2),
            FileLayout::col_major(2),
            FileLayout::Hyperplane2D(1, 1),
            FileLayout::Hyperplane2D(1, -1),
            FileLayout::Hyperplane2D(-2, 3),
            FileLayout::Hyperplane2D(-1, 0),
            FileLayout::Hyperplane2D(0, 1),
            FileLayout::Blocked2D { br: 2, bc: 3 },
            FileLayout::Blocked2D { br: 4, bc: 4 },
        ];
        let tiles = [
            Region::full(&dims),
            Region::new(vec![2, 3], vec![4, 5]),
            Region::new(vec![5, 4], vec![9, 12]),
            Region::new(vec![-1, 0], vec![3, 2]),
            Region::new(vec![3, 3], vec![3, 3]),
            Region::new(vec![4, 1], vec![3, 7]),
        ];
        for (layout, order) in layouts.iter().flat_map(|l| [(l, [0, 1]), (l, [1, 0])]) {
            for tile in &tiles {
                let mut seen = vec![false; usize::try_from(tile.len()).unwrap()];
                let mut file_end = 0u64;
                layout.for_each_segment(&dims, tile, &order, &mut Vec::new(), |s| {
                    assert!(
                        s.file_start >= file_end,
                        "{layout:?} {tile:?} not ascending"
                    );
                    file_end = s.file_start + s.len;
                    for k in 0..s.len {
                        let pos = (s.tile_start + k as usize * s.tile_stride) as i64;
                        let fast = tile.extent(order[1]);
                        let mut idx = [0; 2];
                        idx[order[0]] = tile.lo[order[0]] + pos / fast;
                        idx[order[1]] = tile.lo[order[1]] + pos % fast;
                        assert_eq!(
                            layout.offset_of(&dims, &idx),
                            s.file_start + k,
                            "{layout:?} {tile:?} at {idx:?}"
                        );
                        let pos = pos as usize;
                        assert!(!seen[pos], "{layout:?} {tile:?} repeats {idx:?}");
                        seen[pos] = true;
                    }
                });
                let covered = seen.iter().filter(|&&x| x).count() as i64;
                assert_eq!(covered, tile.clamped(&dims).len(), "{layout:?} {tile:?}");
            }
        }
    }

    #[test]
    fn paper_figure3_run_counts() {
        // Figure 3(a): a 4x4 tile of an 8x8 column-major array needs 4
        // I/O calls (one per column).
        let col = FileLayout::col_major(2);
        let dims = [8, 8];
        let tile = Region::new(vec![1, 1], vec![4, 4]);
        let s = col.region_run_summary(&dims, &tile);
        assert_eq!(s.runs, 4);
        assert_eq!(s.elements, 16);

        // Figure 3(b): a 2x8 tile (2 full rows) of a row-major array is
        // a single contiguous run of 16 elements (split into calls by the
        // max-transfer size at the PFS layer, e.g. 2 calls of 8).
        let row = FileLayout::row_major(2);
        let tile_b = Region::new(vec![1, 1], vec![2, 8]);
        let s = row.region_run_summary(&dims, &tile_b);
        assert_eq!(s.runs, 1);
        assert_eq!(s.elements, 16);

        // Same 2 full rows from the column-major file: 8 runs of 2.
        let s = col.region_run_summary(&dims, &tile_b);
        assert_eq!(s.runs, 8);
    }

    #[test]
    fn run_summary_matches_exact_runs() {
        let dims = [6, 7];
        let layouts = [
            FileLayout::row_major(2),
            FileLayout::col_major(2),
            FileLayout::Hyperplane2D(1, 1),
            FileLayout::Hyperplane2D(1, -1),
            FileLayout::Blocked2D { br: 2, bc: 3 },
        ];
        let regions = [
            Region::new(vec![1, 1], vec![6, 7]),
            Region::new(vec![2, 3], vec![4, 5]),
            Region::new(vec![1, 1], vec![1, 1]),
            Region::new(vec![3, 1], vec![5, 7]),
            Region::new(vec![1, 4], vec![6, 4]),
        ];
        for layout in &layouts {
            for region in &regions {
                let exact = layout.region_runs(&dims, region);
                let summary = layout.region_run_summary(&dims, region);
                let exact_elems: u64 = exact.iter().map(|r| r.len).sum();
                assert_eq!(
                    summary.elements, exact_elems,
                    "{layout:?} {region:?} element mismatch"
                );
                // Summary may over-count runs for hyperplane and blocked
                // layouts when adjacent hyperplanes/blocks merge; it must
                // never under-count.
                assert!(
                    summary.runs >= exact.len() as u64,
                    "{layout:?} {region:?}: summary {} < exact {}",
                    summary.runs,
                    exact.len()
                );
                if matches!(layout, FileLayout::DimOrder(_)) {
                    assert_eq!(
                        summary.runs,
                        exact.len() as u64,
                        "{layout:?} {region:?} must be exact"
                    );
                }
                if !exact.is_empty() {
                    assert_eq!(summary.min_start, exact[0].start);
                    let last = exact.last().expect("nonempty");
                    assert_eq!(summary.max_end, last.start + last.len);
                }
            }
        }
    }

    #[test]
    fn full_region_is_single_run_dim_order() {
        for layout in [FileLayout::row_major(2), FileLayout::col_major(2)] {
            let dims = [9, 5];
            let s = layout.region_run_summary(&dims, &Region::full(&dims));
            assert_eq!(s.runs, 1);
            assert_eq!(s.elements, 45);
            assert_eq!(s.min_start, 0);
            assert_eq!(s.max_end, 45);
        }
    }

    #[test]
    fn from_hyperplane_routes_axis_aligned() {
        assert_eq!(
            FileLayout::from_hyperplane(&[1, 0]),
            FileLayout::row_major(2)
        );
        assert_eq!(
            FileLayout::from_hyperplane(&[0, 1]),
            FileLayout::col_major(2)
        );
        assert_eq!(
            FileLayout::from_hyperplane(&[0, -3]),
            FileLayout::col_major(2)
        );
        assert_eq!(
            FileLayout::from_hyperplane(&[2, -2]),
            FileLayout::Hyperplane2D(1, -1)
        );
        assert_eq!(FileLayout::row_major(2).hyperplane(), Some([1, 0]));
        assert_eq!(FileLayout::col_major(2).hyperplane(), Some([0, 1]));
    }

    #[test]
    fn blocked_layout_block_run_merging() {
        // 4x4 array, 2x2 blocks: a full block is one run.
        let l = FileLayout::Blocked2D { br: 2, bc: 2 };
        let dims = [4, 4];
        let s = l.region_run_summary(&dims, &Region::new(vec![1, 1], vec![2, 2]));
        assert_eq!(s.runs, 1);
        assert_eq!(s.elements, 4);
        // A tile spanning 2x4 (two blocks side by side) = 2 runs.
        let s = l.region_run_summary(&dims, &Region::new(vec![1, 1], vec![2, 4]));
        assert_eq!(s.runs, 2);
        // A 4x2 tile (two stacked blocks) = 2 runs.
        let s = l.region_run_summary(&dims, &Region::new(vec![1, 1], vec![4, 2]));
        assert_eq!(s.runs, 2);
        // A misaligned 2x2 tile crossing 4 blocks = 4 runs... each block
        // contributes a 1x1 partial (1 run each).
        let s = l.region_run_summary(&dims, &Region::new(vec![2, 2], vec![3, 3]));
        assert_eq!(s.runs, 4);
    }

    #[test]
    fn clamping_and_empty_regions() {
        let l = FileLayout::row_major(2);
        let dims = [4, 4];
        let s = l.region_run_summary(&dims, &Region::new(vec![3, 3], vec![10, 10]));
        assert_eq!(s.elements, 4); // clamped to [3..4]x[3..4]
        let s = l.region_run_summary(&dims, &Region::new(vec![3, 3], vec![2, 10]));
        assert_eq!(s, RunSummary::default());
        assert!(Region::new(vec![5, 1], vec![4, 4]).is_empty());
    }

    #[test]
    fn region_basics() {
        let r = Region::new(vec![2, 3], vec![4, 7]);
        assert_eq!(r.extent(0), 3);
        assert_eq!(r.extent(1), 5);
        assert_eq!(r.len(), 15);
        assert!(r.contains(&[3, 5]));
        assert!(!r.contains(&[1, 5]));
        assert_eq!(Region::full(&[3, 3]).len(), 9);
    }

    #[test]
    fn region_overlap() {
        let a = Region::new(vec![1, 1], vec![4, 4]);
        assert!(a.overlaps(&Region::new(vec![4, 4], vec![8, 8])), "corner");
        assert!(a.overlaps(&a));
        assert!(!a.overlaps(&Region::new(vec![5, 1], vec![8, 4])), "apart");
        assert!(!a.overlaps(&Region::new(vec![2, 5], vec![3, 9])));
        // Empty and rank-mismatched regions overlap nothing.
        assert!(!a.overlaps(&Region::new(vec![3, 3], vec![2, 3])));
        assert!(!a.overlaps(&Region::new(vec![1], vec![4])));
        // Ordering is total and deterministic (map keys).
        let b = Region::new(vec![1, 1], vec![3, 9]);
        assert!(b < a);
    }
}
