//! Array chunking and interleaving — the ingredients of the paper's
//! hand-optimized (`h-opt`) versions.
//!
//! When several same-shaped arrays are always accessed tile-by-tile
//! together (e.g. `U` and `V` in the running example), storing them
//! *interleaved* in one file lets a single I/O call fetch the
//! corresponding tile pieces of every member: the per-tile call count
//! drops by roughly the group size. The paper reports an extra ~8%
//! over the compiler-optimized versions from this (plus chunking —
//! storing data in tile-shaped blocks, which [`FileLayout::Blocked2D`]
//! models).
//!
//! [`FileLayout::Blocked2D`]: crate::layout::FileLayout::Blocked2D

use crate::array::{summary_cost, IoCost};
use crate::layout::{FileLayout, Region, RunSummary};

/// A group of `members` same-shape arrays stored element-interleaved
/// under a common base layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleavedGroup {
    /// Shared dimensions of every member.
    pub dims: Vec<i64>,
    /// The base layout ordering element *positions*; member values for
    /// one position are adjacent in the file.
    pub base: FileLayout,
    /// Number of interleaved arrays.
    pub members: usize,
}

impl InterleavedGroup {
    /// Creates a group.
    ///
    /// # Panics
    /// Panics on zero members.
    #[must_use]
    pub fn new(dims: &[i64], base: FileLayout, members: usize) -> Self {
        assert!(members > 0, "empty interleave group");
        InterleavedGroup {
            dims: dims.to_vec(),
            base,
            members,
        }
    }

    /// File offset of member `m`'s element at `idx`.
    #[must_use]
    pub fn offset_of(&self, member: usize, idx: &[i64]) -> u64 {
        assert!(member < self.members);
        self.base.offset_of(&self.dims, idx) * self.members as u64 + member as u64
    }

    /// Run summary for reading the tile of **every** member over
    /// `region` in one pass: same run structure as the base layout,
    /// with each run `members`× longer. This is where interleaving
    /// wins: one call moves the group's whole tile slice.
    #[must_use]
    fn group_run_summary(&self, region: &Region) -> RunSummary {
        let s = self.base.region_run_summary(&self.dims, region);
        RunSummary {
            runs: s.runs,
            elements: s.elements * self.members as u64,
            min_start: s.min_start * self.members as u64,
            max_end: s.max_end * self.members as u64,
        }
    }

    /// I/O cost of a grouped tile access under a call-size cap.
    #[must_use]
    pub fn group_io_cost(&self, region: &Region, max_call_elems: u64) -> IoCost {
        summary_cost(self.group_run_summary(region), max_call_elems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_interleave() {
        let g = InterleavedGroup::new(&[2, 2], FileLayout::row_major(2), 3);
        // Position of (1,1) is 0: members at 0,1,2; (1,2) position 1: 3,4,5.
        assert_eq!(g.offset_of(0, &[1, 1]), 0);
        assert_eq!(g.offset_of(2, &[1, 1]), 2);
        assert_eq!(g.offset_of(0, &[1, 2]), 3);
        assert_eq!(g.offset_of(1, &[2, 2]), 10);
    }

    #[test]
    fn group_read_keeps_run_count() {
        // Figure-3 style: 2 full rows of an 8x8 row-major pair. A single
        // run for the group covers both arrays' tiles.
        let g = InterleavedGroup::new(&[8, 8], FileLayout::row_major(2), 2);
        let region = Region::new(vec![1, 1], vec![2, 8]);
        let s = g.group_run_summary(&region);
        assert_eq!(s.runs, 1);
        assert_eq!(s.elements, 32); // both members
                                    // With max 8 elements/call: 4 calls fetch BOTH tiles — versus
                                    // 2 + 2 = 4 for separate files; the win appears when the fixed
                                    // per-run cost dominates (strided layouts).
        let c = g.group_io_cost(&region, 8);
        assert_eq!(c.calls, 4);
    }

    #[test]
    fn group_beats_separate_for_strided_tiles() {
        // Column-major base, 4x4 tile of an 8x8 array: 4 runs either way,
        // but the group's 4 runs carry 2 arrays' data: 4 calls vs 8.
        let g = InterleavedGroup::new(&[8, 8], FileLayout::col_major(2), 2);
        let region = Region::new(vec![1, 1], vec![4, 4]);
        let grouped = g.group_io_cost(&region, 1 << 20).calls;
        let single = FileLayout::col_major(2)
            .region_run_summary(&[8, 8], &region)
            .runs;
        assert_eq!(grouped, 4);
        assert_eq!(single * 2, 8);
    }

    #[test]
    #[should_panic(expected = "empty interleave group")]
    fn zero_members_rejected() {
        let _ = InterleavedGroup::new(&[2, 2], FileLayout::row_major(2), 0);
    }
}
