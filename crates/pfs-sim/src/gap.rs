//! Model-vs-measured contention gap report.
//!
//! [`price_node_loads`](crate::contention::price_node_loads) prices a
//! measured per-node call distribution under the disk model; the
//! striped runtime additionally *experiences* that distribution —
//! per-node busy time (service) and per-caller queue wait. This module
//! compares the two, per kernel × version × node count:
//!
//! * **busy gap** — measured busy makespan over priced makespan. Near
//!   1.0 means the disk params price node occupancy faithfully; far
//!   from 1.0 means the model's per-call cost is mis-calibrated.
//! * **wait share** — total experienced queue wait over total busy
//!   time. The analytic price serializes each node's load but charges
//!   no queueing to callers; this is the contention the model leaves
//!   on the table, and the direct input to the `QueueWait` blame
//!   category of the scaling-forensics waterfall.
//!
//! The inputs are plain seconds (no runtime types), so the report can
//! be built from `ooc-runtime` node stats, from metrics snapshots, or
//! from synthetic numbers in tests.

use std::fmt::Write as _;

/// One kernel × version × node-count comparison of priced vs
/// experienced contention.
#[derive(Debug, Clone, PartialEq)]
pub struct GapCell {
    /// Kernel name (e.g. `"trans"`).
    pub kernel: String,
    /// Optimization version label (e.g. `"col+pre"`).
    pub version: String,
    /// I/O nodes the store was striped across.
    pub nodes: usize,
    /// Model: priced completion time (max per-node priced seconds).
    pub priced_makespan_s: f64,
    /// Model: priced single-node completion time (sum).
    pub priced_serial_s: f64,
    /// Measured: per-node busy (service) seconds, index = node.
    pub measured_busy_s: Vec<f64>,
    /// Measured: per-node aggregate caller queue-wait seconds.
    pub measured_wait_s: Vec<f64>,
}

impl GapCell {
    /// Measured completion time: the busiest node's service seconds.
    #[must_use]
    fn measured_makespan_s(&self) -> f64 {
        self.measured_busy_s.iter().copied().fold(0.0, f64::max)
    }

    /// Measured busy makespan over priced makespan (1.0 = the model
    /// prices node occupancy exactly; 0.0 when the model is idle).
    #[must_use]
    pub fn busy_gap(&self) -> f64 {
        if self.priced_makespan_s <= 0.0 {
            0.0
        } else {
            self.measured_makespan_s() / self.priced_makespan_s
        }
    }

    /// Total experienced queue wait across nodes, in seconds.
    #[must_use]
    fn wait_total_s(&self) -> f64 {
        self.measured_wait_s.iter().sum()
    }

    /// Experienced queue wait over total busy time — the contention
    /// callers felt that the analytic price does not charge.
    #[must_use]
    pub fn wait_share(&self) -> f64 {
        let busy: f64 = self.measured_busy_s.iter().sum();
        if busy <= 0.0 {
            0.0
        } else {
            self.wait_total_s() / busy
        }
    }
}

/// A collection of [`GapCell`]s rendered as one table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GapReport {
    /// All cells, in insertion order.
    pub cells: Vec<GapCell>,
}

impl GapReport {
    /// Adds one cell.
    pub fn push(&mut self, cell: GapCell) {
        self.cells.push(cell);
    }

    /// Sorts cells by (kernel, version, nodes) for stable rendering.
    pub fn sort(&mut self) {
        self.cells.sort_by(|a, b| {
            (&a.kernel, &a.version, a.nodes).cmp(&(&b.kernel, &b.version, b.nodes))
        });
    }

    /// The model-vs-measured gap table, one row per cell.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>5} {:>12} {:>12} {:>8} {:>12} {:>10}",
            "kernel", "version", "nodes", "priced(s)", "measured(s)", "gap", "q-wait(s)", "w-share"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<10} {:<10} {:>5} {:>12.6} {:>12.6} {:>8.3} {:>12.6} {:>9.1}%",
                c.kernel,
                c.version,
                c.nodes,
                c.priced_makespan_s,
                c.measured_makespan_s(),
                c.busy_gap(),
                c.wait_total_s(),
                c.wait_share() * 100.0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(nodes: usize) -> GapCell {
        GapCell {
            kernel: "trans".into(),
            version: "col+pre".into(),
            nodes,
            priced_makespan_s: 0.5,
            priced_serial_s: 0.5 * nodes as f64,
            measured_busy_s: vec![0.6; nodes],
            measured_wait_s: vec![0.1; nodes],
        }
    }

    #[test]
    fn gap_and_wait_share_are_exact() {
        let c = cell(4);
        assert!((c.measured_makespan_s() - 0.6).abs() < 1e-12);
        assert!((c.busy_gap() - 1.2).abs() < 1e-12);
        assert!((c.wait_total_s() - 0.4).abs() < 1e-12);
        assert!((c.wait_share() - 0.4 / 2.4).abs() < 1e-12);
    }

    #[test]
    fn idle_model_is_benign() {
        let c = GapCell {
            priced_makespan_s: 0.0,
            measured_busy_s: vec![],
            measured_wait_s: vec![],
            ..cell(4)
        };
        assert_eq!(c.busy_gap(), 0.0);
        assert_eq!(c.wait_share(), 0.0);
    }

    #[test]
    fn report_sorts_and_renders() {
        let mut r = GapReport::default();
        r.push(cell(8));
        r.push(cell(4));
        let mut c16 = cell(16);
        c16.kernel = "mxm".into();
        r.push(c16);
        r.sort();
        assert_eq!(r.cells[0].kernel, "mxm");
        assert_eq!(r.cells[1].nodes, 4);
        let text = r.render();
        assert!(text.contains("kernel"), "{text}");
        assert!(text.contains("w-share"), "{text}");
        assert!(text.lines().count() == 4, "{text}");
    }
}
