//! Configuration of the simulated machine.
//!
//! The paper's testbed is the Intel Paragon at Caltech: compute nodes
//! connected to a parallel file system (PFS) that stripes files across
//! **64 I/O nodes** with **64 KB stripe units**. We model the pieces
//! that drive the published results — the per-call software/seek
//! overhead, the per-I/O-node service bandwidth, and contention when
//! many compute processors gang up on the fixed set of I/O nodes —
//! and keep everything else deliberately simple.
//!
//! Defaults are calibrated so the unoptimized (`col`) versions of the
//! ten kernels land in the paper's magnitude range (tens to a few
//! hundred seconds on 16 processors); see `EXPERIMENTS.md`.

/// Timing parameters of one I/O node (disk + service software).
#[derive(Debug, Clone, Copy)]
pub struct DiskParams {
    /// Fixed cost charged per I/O call served by a node, in seconds.
    /// Covers request processing, seek, and rotational components —
    /// the quantity the paper's optimizations minimize.
    pub call_overhead_s: f64,
    /// Streaming bandwidth of one I/O node in bytes/second.
    pub bandwidth_bps: f64,
    /// Minimum bytes a call occupies the disk for (block/stripe
    /// granularity): a 128-byte strided read still transfers a block.
    pub min_transfer_bytes: u64,
}

impl Default for DiskParams {
    fn default() -> Self {
        // Calibrated against the paper's Table 2 landmarks (see
        // EXPERIMENTS.md): per-I/O-node streaming near 1.5 MB/s (the
        // 64-node subsystem tops out near 100 MB/s, which is what caps
        // the 128-processor speedups of Table 3), a 3 ms fixed service
        // cost per call, and a 1 KB minimum transfer per call
        // (block/stripe granularity).
        DiskParams {
            call_overhead_s: 3e-3,
            bandwidth_bps: 1.5e6,
            min_transfer_bytes: 1024,
        }
    }
}

impl DiskParams {
    /// Seconds one I/O node spends serving `calls` calls that move
    /// `bytes` bytes in aggregate: the fixed per-call service cost
    /// plus streaming time, with every call occupying the disk for at
    /// least the minimum transfer. This is the bulk form of
    /// [`price_sequence`](crate::pricing::price_sequence)'s per-call
    /// model, used wherever only aggregate `(calls, bytes)` are known:
    /// the simulator's per-node service time
    /// ([`PfsSim`](crate::PfsSim)), a measured node load
    /// ([`NodeLoad::seconds`](crate::NodeLoad::seconds))
    /// and provenance-ledger cause buckets. Two neighbours look alike
    /// and are deliberately *not* this function, because they
    /// associate differently and so round differently:
    /// the per-op price of the [`pipeline`](crate::pipeline) overlap
    /// model folds the processor's issue overhead into the per-call
    /// term and streams at the slower of link and disk, and
    /// [`price_sequence`](crate::pricing::price_sequence) floors and
    /// sums call by call.
    #[must_use]
    pub fn bulk_seconds(&self, calls: u64, bytes: u64) -> f64 {
        let floored = bytes.max(calls.saturating_mul(self.min_transfer_bytes));
        calls as f64 * self.call_overhead_s + floored as f64 / self.bandwidth_bps
    }
}

/// Configuration of the parallel file system.
#[derive(Debug, Clone, Copy)]
pub struct PfsConfig {
    /// Number of I/O nodes files are striped over (Paragon PFS: 64).
    pub io_nodes: usize,
    /// Stripe unit in bytes (Paragon PFS: 64 KB).
    pub stripe_unit: u64,
    /// Disk/service parameters per I/O node.
    pub disk: DiskParams,
    /// Maximum bytes a single I/O call may transfer; longer contiguous
    /// runs are split into `ceil(len / max_call_bytes)` calls. This is
    /// the paper's "at most 8 elements per I/O call" generalized.
    pub max_call_bytes: u64,
}

impl Default for PfsConfig {
    fn default() -> Self {
        PfsConfig {
            io_nodes: 64,
            stripe_unit: 64 * 1024,
            disk: DiskParams::default(),
            // 4 MB: a generous PFS transfer window; large sequential tile
            // reads still need several calls, small strided runs need one
            // call per run.
            max_call_bytes: 4 * 1024 * 1024,
        }
    }
}

impl PfsConfig {
    /// The I/O node serving the stripe that contains byte `offset`.
    #[must_use]
    pub fn node_of(&self, offset: u64) -> usize {
        usize::try_from((offset / self.stripe_unit) % self.io_nodes as u64)
            .expect("node index fits usize")
    }
}

/// Compute-side parameters of the machine.
#[derive(Debug, Clone, Copy)]
pub struct ComputeParams {
    /// Seconds per floating-point operation on one compute node.
    /// (Paragon i860: ~10 MFLOPS sustained on real code.)
    pub seconds_per_flop: f64,
    /// Fixed processor-side latency per I/O call issued (request setup,
    /// message to the I/O partition), in seconds.
    pub io_issue_overhead_s: f64,
    /// Streaming bandwidth between one compute node and the I/O
    /// partition, bytes/second. On the Paragon this path — not the
    /// disks — capped what a single processor could move
    /// (`trans` d-opt's 87.7 s for ~800 MB over 16 nodes pins it near
    /// 0.6 MB/s effective).
    pub link_bandwidth_bps: f64,
}

impl Default for ComputeParams {
    fn default() -> Self {
        // Paragon i860: ~25 MFLOPS sustained; ~0.6 MB/s effective
        // per-processor I/O streaming; ~5 ms synchronous round-trip per
        // I/O call (request to the I/O partition and back — the cost
        // the paper's optimizations amortize). `trans` col (181.9 s) vs
        // d-opt (87.7 s) on 16 nodes pins the per-call and streaming
        // components.
        ComputeParams {
            seconds_per_flop: 1.0 / 25.0e6,
            io_issue_overhead_s: 5.0e-3,
            link_bandwidth_bps: 0.6e6,
        }
    }
}

/// Complete machine description: PFS plus compute nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineConfig {
    /// Parallel file system parameters.
    pub pfs: PfsConfig,
    /// Compute node parameters.
    pub compute: ComputeParams,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paragon() {
        let c = PfsConfig::default();
        assert_eq!(c.io_nodes, 64);
        assert_eq!(c.stripe_unit, 65536);
    }

    #[test]
    fn node_mapping_round_robins() {
        let c = PfsConfig {
            io_nodes: 4,
            stripe_unit: 100,
            ..PfsConfig::default()
        };
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(99), 0);
        assert_eq!(c.node_of(100), 1);
        assert_eq!(c.node_of(399), 3);
        assert_eq!(c.node_of(400), 0);
    }
}
