//! Closed-form I/O time estimates.
//!
//! A cheap lower-bound/approximation companion to the discrete-event
//! simulator: useful for sanity cross-checks (the DES can never beat
//! the bound) and for quick cost-model queries inside the compiler,
//! where running a full simulation per candidate transformation would
//! be wasteful.

use crate::config::MachineConfig;
use crate::sim::{Op, Workload};

/// Summary statistics of a workload used by the analytic model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadStats {
    /// Total I/O calls across all processors.
    pub calls: u64,
    /// Total bytes across all processors.
    pub bytes: u64,
    /// Total compute seconds across all processors.
    pub compute_seconds: f64,
    /// Longest single-processor totals (critical path ignoring
    /// contention).
    pub max_proc_calls: u64,
    /// Bytes moved by the busiest processor.
    pub max_proc_bytes: u64,
    /// Compute seconds of the busiest processor.
    pub max_proc_compute: f64,
    /// Number of processors.
    pub procs: usize,
}

/// Computes workload statistics.
#[must_use]
pub fn stats(w: &Workload) -> WorkloadStats {
    let mut s = WorkloadStats {
        procs: w.per_proc.len(),
        ..WorkloadStats::default()
    };
    for trace in &w.per_proc {
        let mut pc = 0u64;
        let mut pb = 0u64;
        let mut pt = 0.0f64;
        for op in trace {
            match *op {
                Op::Compute { seconds } => pt += seconds,
                Op::Io { bytes, calls, .. } => {
                    pb += bytes;
                    pc += calls;
                }
            }
        }
        s.calls += pc;
        s.bytes += pb;
        s.compute_seconds += pt;
        s.max_proc_calls = s.max_proc_calls.max(pc);
        s.max_proc_bytes = s.max_proc_bytes.max(pb);
        if pt > s.max_proc_compute {
            s.max_proc_compute = pt;
        }
    }
    s
}

/// A lower bound on wall-clock time for the workload: the maximum of
///
/// 1. aggregate I/O service divided by the number of I/O nodes
///    (the I/O subsystem cannot serve faster than all nodes combined),
/// 2. the busiest processor's own critical path assuming a perfectly
///    parallel, contention-free I/O subsystem.
#[must_use]
pub fn lower_bound(cfg: &MachineConfig, w: &Workload) -> f64 {
    let s = stats(w);
    let disk = cfg.pfs.disk;
    let aggregate_service =
        s.calls as f64 * disk.call_overhead_s + s.bytes as f64 / disk.bandwidth_bps;
    let subsystem_bound = aggregate_service / cfg.pfs.io_nodes as f64;
    // Busiest processor, assuming an otherwise idle subsystem: the issue
    // overhead is serial at the processor, while call service (overhead +
    // transfer) can at best be spread over every I/O node in parallel.
    let proc_io = s.max_proc_calls as f64 * cfg.compute.io_issue_overhead_s
        + (s.max_proc_calls as f64 * disk.call_overhead_s
            + s.max_proc_bytes as f64 / disk.bandwidth_bps)
            / cfg.pfs.io_nodes as f64;
    let proc_bound = s.max_proc_compute + proc_io;
    subsystem_bound.max(proc_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::sim::{FileId, Op, PfsSim, Workload};

    fn workload(procs: usize, calls: u64, bytes: u64) -> Workload {
        Workload::replicated(
            vec![
                Op::Compute { seconds: 0.1 },
                Op::Io {
                    file: FileId(0),
                    offset: 0,
                    bytes,
                    span: bytes,
                    calls,
                    is_write: false,
                },
            ],
            procs,
        )
    }

    #[test]
    fn stats_aggregate() {
        let w = workload(4, 10, 1000);
        let s = stats(&w);
        assert_eq!(s.calls, 40);
        assert_eq!(s.bytes, 4000);
        assert_eq!(s.max_proc_calls, 10);
        assert_eq!(s.max_proc_bytes, 1000);
        assert!((s.compute_seconds - 0.4).abs() < 1e-12);
        assert_eq!(s.procs, 4);
    }

    #[test]
    fn lower_bound_below_des() {
        let cfg = MachineConfig::default();
        let mut sim = PfsSim::new(cfg);
        let f = sim.create_file();
        for procs in [1usize, 4, 16] {
            let w = Workload::replicated(
                vec![Op::Io {
                    file: f,
                    offset: 0,
                    bytes: 10 << 20,
                    span: 10 << 20,
                    calls: 64,
                    is_write: false,
                }],
                procs,
            );
            let des = sim.simulate(&w).total_time;
            let lb = lower_bound(&cfg, &w);
            assert!(
                lb <= des + 1e-9,
                "lower bound {lb} above DES {des} at P={procs}"
            );
        }
    }
}
