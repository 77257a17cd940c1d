//! Overlap-aware pricing: what a trace costs when tile I/O runs
//! *concurrently* with compute instead of blocking it.
//!
//! The synchronous simulator ([`PfsSim::simulate`](crate::PfsSim))
//! charges every processor `Σ(io + compute)` — each tile step waits
//! for its stage-in before computing. The tile pipeline overlaps the
//! two: while step `i` computes, the prefetcher stages the tiles of
//! steps `i+1 .. i+depth`. This module prices that schedule with a
//! two-resource recurrence (one I/O channel, one compute engine per
//! processor):
//!
//! ```text
//! io_done[i]      = max(io_done[i-1], compute_done[i-1-depth]) + io[i]
//! compute_done[i] = max(compute_done[i-1], io_done[i])         + compute[i]
//! ```
//!
//! The I/O channel is serial (stage-ins queue behind each other), a
//! stage cannot compute before its own stage-in lands, and — the
//! bounded-buffer constraint — the stage-in of step `i` cannot start
//! until step `i-1-depth` has *finished computing* and freed its
//! buffers. `depth = 0` therefore degenerates to the synchronous
//! sum, and `depth → ∞` approaches the ideal
//! `max(Σ io, Σ compute)` pipeline bound; real runs land in between.

use crate::config::MachineConfig;
use crate::sim::Op;

/// One pipeline stage: the I/O to stage a tile step plus its compute.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stage {
    /// Seconds of stage-in/stage-out I/O for the step.
    pub io_s: f64,
    /// Seconds of computation for the step.
    pub compute_s: f64,
}

/// Prices one I/O op as seen by a single processor with a dedicated
/// I/O path: per-call issue + service overhead, plus streaming time at
/// the tighter of the compute-node link and the disk bandwidth. Node
/// contention is deliberately ignored — the overlap model asks how
/// much of the *blocking* the pipeline can hide, so it prices the same
/// serial channel the synchronous executor blocks on.
#[must_use]
fn op_io_seconds(op: &Op, machine: &MachineConfig) -> f64 {
    match *op {
        Op::Compute { .. } => 0.0,
        Op::Io { bytes, calls, .. } => {
            let disk = machine.pfs.disk;
            let eff_bytes = bytes.max(calls.saturating_mul(disk.min_transfer_bytes));
            let bw = machine.compute.link_bandwidth_bps.min(disk.bandwidth_bps);
            calls as f64 * (machine.compute.io_issue_overhead_s + disk.call_overhead_s)
                + eff_bytes as f64 / bw
        }
    }
}

/// Folds a per-processor trace into pipeline stages: consecutive
/// [`Op::Io`] ops accumulate into the pending stage's I/O, and each
/// [`Op::Compute`] closes the stage. A trailing I/O-only stage (e.g.
/// the final write-back) is kept with zero compute.
#[must_use]
pub fn stages_from_trace(trace: &[Op], machine: &MachineConfig) -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut pending = Stage::default();
    let mut dirty = false;
    for op in trace {
        match op {
            Op::Io { .. } => {
                pending.io_s += op_io_seconds(op, machine);
                dirty = true;
            }
            Op::Compute { seconds } => {
                pending.compute_s = *seconds;
                stages.push(pending);
                pending = Stage::default();
                dirty = false;
            }
        }
    }
    if dirty {
        stages.push(pending);
    }
    stages
}

/// The synchronous cost of the stages: every stage blocks on its I/O,
/// `Σ (io + compute)`.
#[must_use]
pub fn sequential_makespan(stages: &[Stage]) -> f64 {
    stages.iter().map(|s| s.io_s + s.compute_s).sum()
}

/// The pipelined cost of the stages at prefetch depth `depth` (see the
/// module docs for the recurrence). `depth = 0` equals
/// [`sequential_makespan`]; larger depths are monotonically no worse.
#[must_use]
pub fn pipelined_makespan(stages: &[Stage], depth: usize) -> f64 {
    let mut io_done = 0.0f64;
    let mut compute_done: Vec<f64> = Vec::with_capacity(stages.len());
    for (i, s) in stages.iter().enumerate() {
        // The stage-in may start once the I/O channel is free AND the
        // buffer of stage i-1-depth has been released by its compute.
        let buffer_free = match i.checked_sub(depth + 1) {
            Some(j) => compute_done[j],
            None => 0.0,
        };
        io_done = io_done.max(buffer_free) + s.io_s;
        let prev_compute = compute_done.last().copied().unwrap_or(0.0);
        compute_done.push(prev_compute.max(io_done) + s.compute_s);
    }
    compute_done.last().copied().unwrap_or(0.0)
}

/// The ideal pipeline bound: with unlimited buffering the makespan
/// cannot drop below the busier of the two resources.
#[must_use]
pub fn overlap_lower_bound(stages: &[Stage]) -> f64 {
    let io: f64 = stages.iter().map(|s| s.io_s).sum();
    let compute: f64 = stages.iter().map(|s| s.compute_s).sum();
    io.max(compute)
}

/// Summary of one overlap pricing: the synchronous cost, the pipelined
/// cost, and the bound the pipeline is chasing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapReport {
    /// Number of stages in the trace.
    pub stages: usize,
    /// Prefetch depth priced.
    pub depth: usize,
    /// Synchronous makespan, seconds.
    pub sequential_s: f64,
    /// Pipelined makespan at `depth`, seconds.
    pub pipelined_s: f64,
    /// Total I/O seconds across stages.
    pub io_total_s: f64,
    /// Total compute seconds across stages.
    pub compute_total_s: f64,
}

impl OverlapReport {
    /// Synchronous / pipelined time (1.0 = no win).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.pipelined_s <= 0.0 {
            1.0
        } else {
            self.sequential_s / self.pipelined_s
        }
    }

    /// Fraction of the I/O time the pipeline hid (0 = none, 1 = all).
    #[must_use]
    pub fn hidden_frac(&self) -> f64 {
        if self.io_total_s <= 0.0 {
            0.0
        } else {
            ((self.sequential_s - self.pipelined_s) / self.io_total_s).clamp(0.0, 1.0)
        }
    }
}

/// Prices `trace` both ways at prefetch depth `depth`.
#[must_use]
pub fn overlap_report(trace: &[Op], machine: &MachineConfig, depth: usize) -> OverlapReport {
    let stages = stages_from_trace(trace, machine);
    OverlapReport {
        stages: stages.len(),
        depth,
        sequential_s: sequential_makespan(&stages),
        pipelined_s: pipelined_makespan(&stages, depth),
        io_total_s: stages.iter().map(|s| s.io_s).sum(),
        compute_total_s: stages.iter().map(|s| s.compute_s).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::FileId;

    fn machine() -> MachineConfig {
        MachineConfig::default()
    }

    fn io(bytes: u64, calls: u64) -> Op {
        Op::Io {
            file: FileId(0),
            offset: 0,
            bytes,
            span: bytes,
            calls,
            is_write: false,
        }
    }

    fn balanced_trace(steps: usize) -> Vec<Op> {
        (0..steps)
            .flat_map(|_| [io(1 << 20, 8), Op::Compute { seconds: 0.5 }])
            .collect()
    }

    #[test]
    fn stages_fold_io_runs_and_keep_the_tail() {
        let m = machine();
        let trace = vec![
            io(1024, 1),
            io(1024, 1),
            Op::Compute { seconds: 2.0 },
            io(4096, 2),
        ];
        let stages = stages_from_trace(&trace, &m);
        assert_eq!(stages.len(), 2);
        assert!((stages[0].io_s - 2.0 * op_io_seconds(&io(1024, 1), &m)).abs() < 1e-12);
        assert_eq!(stages[0].compute_s, 2.0);
        assert_eq!(stages[1].compute_s, 0.0, "trailing write-back kept");
        assert!(stages[1].io_s > 0.0);
    }

    #[test]
    fn depth_zero_is_the_synchronous_sum() {
        let m = machine();
        let stages = stages_from_trace(&balanced_trace(6), &m);
        let seq = sequential_makespan(&stages);
        assert!((pipelined_makespan(&stages, 0) - seq).abs() < 1e-9);
    }

    #[test]
    fn pipelined_sits_between_the_bounds_and_depth_is_monotone() {
        let m = machine();
        let stages = stages_from_trace(&balanced_trace(8), &m);
        let seq = sequential_makespan(&stages);
        let lb = overlap_lower_bound(&stages);
        let mut prev = f64::INFINITY;
        for depth in [0usize, 1, 2, 4, 8, 64] {
            let t = pipelined_makespan(&stages, depth);
            assert!(t <= seq + 1e-9, "depth {depth}: {t} > sequential {seq}");
            assert!(t >= lb - 1e-9, "depth {depth}: {t} beats the bound {lb}");
            assert!(t <= prev + 1e-9, "deeper prefetch got slower at {depth}");
            prev = t;
        }
        // Deep enough prefetch on a balanced trace reaches the bound.
        assert!((pipelined_makespan(&stages, 64) - lb).abs() / lb < 0.2);
    }

    #[test]
    fn overlap_strictly_improves_with_two_busy_stages() {
        let m = machine();
        let report = overlap_report(&balanced_trace(4), &m, 2);
        assert!(
            report.pipelined_s < report.sequential_s,
            "no overlap win: {report:?}"
        );
        assert!(report.speedup() > 1.0);
        assert!(report.hidden_frac() > 0.0);
    }

    #[test]
    fn io_only_and_empty_traces_are_priced_sanely() {
        let m = machine();
        assert_eq!(pipelined_makespan(&[], 4), 0.0);
        let stages = stages_from_trace(&[io(1024, 1), io(1024, 1)], &m);
        let seq = sequential_makespan(&stages);
        // Nothing to overlap with: pipelining cannot help pure I/O.
        assert!((pipelined_makespan(&stages, 4) - seq).abs() < 1e-12);
    }
}
