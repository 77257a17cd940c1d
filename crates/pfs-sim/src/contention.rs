//! Pricing *striped* per-node loads under the disk cost model.
//!
//! The runtime's striped store layer (`ooc-runtime`'s `StripedStore` /
//! `IoNodePool`) measures how many calls and bytes each simulated I/O
//! node actually served. This module answers what that distribution
//! *costs* on the modeled machine: each node prices its load like one
//! [`price_sequence`](crate::pricing::price_sequence) disk — fixed
//! overhead per call plus floored transfer time — and the nodes run in
//! parallel, so the contention-aware completion time is the **maximum**
//! per-node time (the makespan), not the sum.
//!
//! The gap between `serial_s` (one node serving everything) and
//! `makespan_s` is the parallel I/O speedup the striping actually
//! achieves; `skew()` quantifies how far the stripe placement is from
//! a perfect balance. Both are pure functions of the measured call
//! distribution, so they are deterministic and gateable, unlike
//! wall-clock queue timings.

use crate::config::DiskParams;

/// The load one I/O node served: aggregate calls and payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeLoad {
    /// I/O calls (reads + writes) the node served.
    pub calls: u64,
    /// Payload bytes moved across all calls.
    pub bytes: u64,
}

impl NodeLoad {
    /// Seconds this load occupies its node under `disk`:
    /// [`DiskParams::bulk_seconds`] of its calls and bytes.
    #[must_use]
    pub fn seconds(&self, disk: &DiskParams) -> f64 {
        disk.bulk_seconds(self.calls, self.bytes)
    }
}

/// How a measured per-node load distribution prices out on the
/// modeled machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionReport {
    /// Priced busy seconds per node, index = node.
    pub per_node_s: Vec<f64>,
    /// Completion time with all nodes serving in parallel: the
    /// maximum per-node time.
    pub makespan_s: f64,
    /// Completion time if one node served the whole load: the sum.
    pub serial_s: f64,
}

impl ContentionReport {
    /// Parallel I/O speedup the striping achieves over a single node
    /// (`serial / makespan`; 1.0 when idle).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            1.0
        } else {
            self.serial_s / self.makespan_s
        }
    }

    /// Load imbalance: the busiest node's time over the mean
    /// (1.0 = perfectly balanced; 1.0 when idle).
    #[must_use]
    pub fn skew(&self) -> f64 {
        let n = self.per_node_s.len();
        if n == 0 || self.serial_s <= 0.0 {
            return 1.0;
        }
        self.makespan_s / (self.serial_s / n as f64)
    }

    /// Fraction of the ideal `nodes`-way speedup realized
    /// (`speedup / nodes`; 1.0 when idle or node-less).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.per_node_s.is_empty() {
            1.0
        } else {
            self.speedup() / self.per_node_s.len() as f64
        }
    }

    /// One ASCII bar per node, scaled to the busiest — a glance shows
    /// whether the stripe placement balanced the load.
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        let max = self.makespan_s.max(f64::MIN_POSITIVE);
        for (k, s) in self.per_node_s.iter().enumerate() {
            let bar = (s / max * width as f64).round() as usize;
            out.push_str(&format!(
                "  node {k:>2} {:<w$} {s:.3}s\n",
                "#".repeat(bar),
                w = width
            ));
        }
        out.push_str(&format!(
            "  makespan {:.3}s, serial {:.3}s, speedup {:.2}x ({:.0}% eff), skew {:.2}\n",
            self.makespan_s,
            self.serial_s,
            self.speedup(),
            self.efficiency() * 100.0,
            self.skew()
        ));
        out
    }
}

/// Prices one load per node under `disk` (see the module docs).
#[must_use]
pub fn price_node_loads(loads: &[NodeLoad], disk: &DiskParams) -> ContentionReport {
    let per_node_s: Vec<f64> = loads.iter().map(|l| l.seconds(disk)).collect();
    let makespan_s = per_node_s.iter().copied().fold(0.0f64, f64::max);
    let serial_s = per_node_s.iter().sum();
    ContentionReport {
        per_node_s,
        makespan_s,
        serial_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> DiskParams {
        DiskParams::default()
    }

    #[test]
    fn single_call_matches_price_sequence() {
        let d = disk();
        let one = NodeLoad {
            calls: 1,
            bytes: 1_500_000,
        };
        let t = crate::pricing::price_sequence([(0u64, 1_500_000u64, false)], &d);
        assert!((one.seconds(&d) - t.total_s).abs() < 1e-12);
        // And the floor applies the same way.
        let tiny = NodeLoad { calls: 1, bytes: 8 };
        let t = crate::pricing::price_sequence([(0u64, 8u64, false)], &d);
        assert!((tiny.seconds(&d) - t.total_s).abs() < 1e-12);
    }

    #[test]
    fn balanced_load_prices_to_full_speedup() {
        let d = disk();
        let loads = vec![
            NodeLoad {
                calls: 10,
                bytes: 1 << 20
            };
            4
        ];
        let r = price_node_loads(&loads, &d);
        assert_eq!(r.per_node_s.len(), 4);
        assert!((r.speedup() - 4.0).abs() < 1e-9, "{r:?}");
        assert!((r.skew() - 1.0).abs() < 1e-9);
        assert!((r.efficiency() - 1.0).abs() < 1e-9);
        assert!((r.serial_s - 4.0 * r.makespan_s).abs() < 1e-9);
    }

    #[test]
    fn one_hot_node_prices_to_no_speedup() {
        let d = disk();
        let mut loads = vec![NodeLoad::default(); 4];
        loads[2] = NodeLoad {
            calls: 100,
            bytes: 10 << 20,
        };
        let r = price_node_loads(&loads, &d);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
        assert!((r.skew() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn idle_report_is_benign() {
        let r = price_node_loads(&[], &disk());
        assert_eq!(r.makespan_s, 0.0);
        assert!((r.speedup() - 1.0).abs() < 1e-12);
        assert!((r.skew() - 1.0).abs() < 1e-12);
        assert!((r.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_shows_bars_and_summary() {
        let d = disk();
        let loads = [
            NodeLoad {
                calls: 4,
                bytes: 1 << 20,
            },
            NodeLoad {
                calls: 2,
                bytes: 1 << 19,
            },
        ];
        let text = price_node_loads(&loads, &d).render(20);
        assert!(text.contains("node  0"), "{text}");
        assert!(text.contains("makespan"), "{text}");
        assert!(text.contains("speedup"), "{text}");
    }
}
