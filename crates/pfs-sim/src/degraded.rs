//! Analytic pricing of degraded-mode bandwidth: what losing one I/O
//! node costs a striped workload when every access to the dead node
//! is served by reconstruction from its K−1 surviving peers.
//!
//! This is the paper-model counterpart of the runtime's measured
//! degraded path (`ooc-runtime`'s parity lane): under RAID-5-style
//! rotating parity, one lost chunk is rebuilt by XOR-ing the group's
//! K−1 surviving chunks, so each call that would have hit the dead
//! node instead *fans out* one call of the same size to every
//! survivor. The model keeps the healthy load on the survivors and
//! adds the fan-out on top, then prices both pictures with the same
//! per-node disk model — the degraded/healthy makespan ratio is the
//! redundancy tax a single failure charges.

use crate::config::DiskParams;
use crate::contention::{price_node_loads, ContentionReport, NodeLoad};

/// Healthy vs degraded pricing for one workload and one dead node.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// The node assumed lost.
    pub down_node: usize,
    /// Pricing with every node serving its own load.
    pub healthy: ContentionReport,
    /// Pricing with the dead node's load fanned out to survivors.
    pub degraded: ContentionReport,
    /// Extra bytes the survivors move to cover reconstruction:
    /// `(K-1) × dead_bytes` reads of peers and parity.
    pub repair_bytes: u64,
    /// Extra calls the survivors serve for reconstruction.
    pub repair_calls: u64,
}

impl DegradedReport {
    /// Degraded/healthy makespan ratio (≥ 1.0 barring rounding): how
    /// much longer the I/O phase takes with the node dead.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.healthy.makespan_s <= 0.0 {
            1.0
        } else {
            self.degraded.makespan_s / self.healthy.makespan_s
        }
    }

    /// Fraction of healthy delivered bandwidth that survives the
    /// failure (`healthy_makespan / degraded_makespan`, ≤ 1.0).
    #[must_use]
    pub fn bandwidth_retention(&self) -> f64 {
        if self.degraded.makespan_s <= 0.0 {
            1.0
        } else {
            self.healthy.makespan_s / self.degraded.makespan_s
        }
    }
}

/// Prices `loads` (per-node healthy traffic, index = node) against the
/// same workload with node `down` dead: every call that addressed the
/// dead node is re-served as one same-sized read on **each** of the
/// K−1 survivors (peer chunks plus the rotating parity chunk), on top
/// of the survivors' own load.
///
/// # Panics
/// Panics when `down` is out of range or fewer than two nodes are
/// given (no survivor to reconstruct from).
#[must_use]
pub fn price_degraded(loads: &[NodeLoad], down: usize, disk: &DiskParams) -> DegradedReport {
    assert!(down < loads.len(), "dead node {down} out of range");
    assert!(
        loads.len() >= 2,
        "degraded pricing needs at least two I/O nodes"
    );
    let healthy = price_node_loads(loads, disk);
    let dead = loads[down];
    let survivors = loads.len() as u64 - 1;
    let mut degraded_loads = loads.to_vec();
    degraded_loads[down] = NodeLoad::default();
    for (n, l) in degraded_loads.iter_mut().enumerate() {
        if n != down {
            // Reconstruction fan-out: each dead-node call becomes one
            // same-sized call on this survivor.
            l.calls += dead.calls;
            l.bytes += dead.bytes;
        }
    }
    let degraded = price_node_loads(&degraded_loads, disk);
    DegradedReport {
        down_node: down,
        healthy,
        degraded,
        repair_bytes: survivors * dead.bytes,
        repair_calls: survivors * dead.calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskParams {
        DiskParams {
            call_overhead_s: 0.001,
            bandwidth_bps: 1_000_000.0,
            min_transfer_bytes: 0,
        }
    }

    #[test]
    fn degraded_makespan_never_beats_healthy() {
        let loads = vec![
            NodeLoad {
                calls: 10,
                bytes: 100_000,
            },
            NodeLoad {
                calls: 12,
                bytes: 120_000,
            },
            NodeLoad {
                calls: 8,
                bytes: 80_000,
            },
            NodeLoad {
                calls: 10,
                bytes: 100_000,
            },
        ];
        for down in 0..4 {
            let rep = price_degraded(&loads, down, &disk());
            assert!(rep.slowdown() >= 1.0, "node {down}");
            assert!(rep.bandwidth_retention() <= 1.0 + 1e-12, "node {down}");
            assert_eq!(
                rep.degraded.per_node_s[down], 0.0,
                "dead node serves nothing"
            );
        }
    }

    #[test]
    fn repair_traffic_is_fanout_times_dead_load() {
        let loads = vec![
            NodeLoad {
                calls: 5,
                bytes: 50_000,
            },
            NodeLoad {
                calls: 7,
                bytes: 70_000,
            },
            NodeLoad {
                calls: 6,
                bytes: 60_000,
            },
        ];
        let rep = price_degraded(&loads, 1, &disk());
        assert_eq!(rep.repair_calls, 2 * 7);
        assert_eq!(rep.repair_bytes, 2 * 70_000);
        // Survivors carry their own load plus the whole dead load.
        let d = &rep.degraded.per_node_s;
        let h = &rep.healthy.per_node_s;
        assert!(d[0] > h[0]);
        assert!(d[2] > h[2]);
    }

    #[test]
    fn idle_workload_prices_as_no_slowdown() {
        let loads = vec![NodeLoad::default(); 4];
        let rep = price_degraded(&loads, 0, &disk());
        assert_eq!(rep.slowdown(), 1.0);
        assert_eq!(rep.repair_bytes, 0);
    }
}
