//! Scaling forensics for out-of-core parallel runs.
//!
//! This crate turns an [`ooc_trace`] event stream into an explanation
//! of where a parallel run's wall-clock went:
//!
//! * [`timeline`] — reconstructs per-lane timelines (worker shards,
//!   prefetch/writer service threads, the main thread) from span
//!   events and the structured lane identity stamped on them, cutting
//!   each lane's wall-clock window into blame-attributed segments.
//! * [`blame`] — the category taxonomy and the exactly-conserving
//!   waterfall: every lane's categories sum to the run wall-clock *to
//!   the microsecond*, by construction.
//! * [`critical`] — the heaviest non-overlapping chain of attributed
//!   segments across lanes, naming the resource that bounds the run.
//! * [`gantt`] — fixed-width ASCII visualization of the lanes.
//! * [`ledger`] — rendering, disk-model pricing, and version-diff
//!   explanation of the cause-classified I/O provenance ledgers the
//!   executors record ([`ooc_runtime::ProvenanceLedger`]).
//! * [`live`] — a zero-dependency HTTP pull endpoint serving live
//!   metric snapshots, the latest forensics report, and the latest
//!   provenance-ledger render from a running job.
//!
//! The entry point is [`AnalysisReport::from_trace`]; bench binaries
//! (`analyze`, `inspect --analyze`) render it directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blame;
pub mod critical;
pub mod gantt;
pub mod ledger;
pub mod live;
pub mod timeline;

pub use blame::{Blame, Waterfall, ALL_BLAMES};
pub use critical::{CriticalPath, PathStep};
pub use ledger::{diff_ledgers, render_ledger, CauseDelta, LedgerDiff};
pub use live::{registry_provider, LiveServer, Response};
pub use timeline::{FlowLink, LaneTimeline, Segment, Timeline};

use std::fmt::Write as _;

/// The complete forensics for one run: per-lane waterfalls, the
/// aggregate decomposition, and the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// The reconstructed timeline.
    pub timeline: Timeline,
    /// The extracted critical path.
    pub critical: CriticalPath,
}

impl AnalysisReport {
    /// Reconstructs and analyzes a recorded trace.
    #[must_use]
    pub fn from_trace(data: &ooc_trace::TraceData) -> AnalysisReport {
        let timeline = Timeline::from_trace(data);
        let critical = CriticalPath::extract(&timeline);
        AnalysisReport { timeline, critical }
    }

    /// Parallel efficiency estimate: aggregate compute time over total
    /// lane-time of shard lanes (1.0 = no shard ever waits). `None`
    /// when the run has no shard lanes.
    #[must_use]
    pub fn shard_efficiency(&self) -> Option<f64> {
        let shard_lanes: Vec<_> = self
            .timeline
            .lanes
            .iter()
            .filter(|l| l.label.starts_with("shard:"))
            .collect();
        if shard_lanes.is_empty() || self.timeline.wall_us == 0 {
            return None;
        }
        let compute: u64 = shard_lanes
            .iter()
            .map(|l| l.blame.get(Blame::Compute))
            .sum();
        let total = self.timeline.wall_us * shard_lanes.len() as u64;
        Some(compute as f64 / total as f64)
    }

    /// The blame waterfall table: one row per lane, categories as
    /// columns, plus a conservation-checked aggregate row.
    #[must_use]
    pub fn render_waterfall(&self) -> String {
        let mut out = String::new();
        let label_w = self
            .timeline
            .lanes
            .iter()
            .map(|l| l.label.len())
            .max()
            .unwrap_or(4)
            .max(9);
        let _ = write!(out, "{:<label_w$}", "lane");
        for cat in ALL_BLAMES {
            let _ = write!(out, " {:>14}", cat.label());
        }
        let _ = writeln!(out, " {:>14}", "total(us)");
        for lane in &self.timeline.lanes {
            let _ = write!(out, "{:<label_w$}", lane.label);
            for cat in ALL_BLAMES {
                let _ = write!(out, " {:>14}", lane.blame.get(cat));
            }
            let check = if lane.blame.is_conserving() { "=" } else { "!" };
            let _ = writeln!(out, " {:>13}{check}", lane.blame.total_us());
        }
        let agg = self.timeline.aggregate();
        let _ = write!(out, "{:<label_w$}", "aggregate");
        for cat in ALL_BLAMES {
            let _ = write!(out, " {:>14}", agg.get(cat));
        }
        let check = if agg.is_conserving() { "=" } else { "!" };
        let _ = writeln!(out, " {:>13}{check}", agg.total_us());
        let _ = writeln!(
            out,
            "wall: {} us x {} lanes ('=' marks exact conservation)",
            self.timeline.wall_us,
            self.timeline.lanes.len()
        );
        out
    }

    /// The full report: header, waterfall, Gantt, critical path.
    #[must_use]
    pub fn render(&self, gantt_width: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== scaling forensics: {} ({} us wall, {} lanes, {} shard lanes, {} flows)",
            self.timeline.top_span,
            self.timeline.wall_us,
            self.timeline.lanes.len(),
            self.timeline.shard_lanes(),
            self.timeline.flows.len(),
        );
        if let Some(eff) = self.shard_efficiency() {
            let _ = writeln!(out, "shard efficiency: {:.1}%", eff * 100.0);
        }
        out.push('\n');
        out.push_str(&self.render_waterfall());
        out.push('\n');
        out.push_str(&gantt::render(&self.timeline, gantt_width));
        out.push('\n');
        out.push_str(&self.critical.render(12));
        out
    }

    /// Registers the aggregate blame decomposition and critical-path
    /// summary as deterministic-friendly metric series under `labels`
    /// (blame shares as gauges, since they are timing-derived; lane
    /// and flow counts as counters).
    pub fn register_metrics(&self, registry: &ooc_metrics::Registry, labels: &[(&str, &str)]) {
        let agg = self.timeline.aggregate();
        let total = agg.total_us().max(1);
        for cat in ALL_BLAMES {
            let mut lv: Vec<(&str, &str)> = labels.to_vec();
            let name = cat.label();
            lv.push(("cat", name));
            registry.gauge_set(
                "analyze_blame_share",
                &lv,
                agg.get(cat) as f64 / total as f64,
            );
        }
        // Lane counts are gauges, not counters: a service lane only
        // materializes when its thread emits an event, and which
        // prefetch worker picks up a request is scheduling-dependent.
        registry.gauge_set("analyze_lanes", labels, self.timeline.lanes.len() as f64);
        registry.gauge_set(
            "analyze_shard_lanes",
            labels,
            self.timeline.shard_lanes() as f64,
        );
        registry.gauge_set(
            "analyze_critical_share",
            labels,
            if self.timeline.wall_us == 0 {
                0.0
            } else {
                self.critical.total_us as f64 / self.timeline.wall_us as f64
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_trace::{Lane, Session};

    fn spin_us(us: u64) {
        let t = std::time::Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn report_renders_all_sections_and_conserves() {
        let session = Session::start();
        {
            let _lane = ooc_trace::lane_scope(Lane::main());
            let _top = ooc_trace::span("parallel", "exec-parallel");
            let h = std::thread::spawn(|| {
                let _lane = ooc_trace::lane_scope(Lane::shard(0));
                let _run = ooc_trace::span("parallel", "shard-run");
                spin_us(200);
                let _stall = ooc_trace::span("pipeline", "prefetch-stall");
                spin_us(100);
            });
            let _join = ooc_trace::span("parallel", "join-wait");
            h.join().expect("shard");
        }
        let report = AnalysisReport::from_trace(&session.finish());
        assert!(report.critical.total_us <= report.timeline.wall_us);
        let eff = report.shard_efficiency().expect("has shards");
        assert!(eff > 0.0 && eff <= 1.0, "eff {eff}");
        let text = report.render(60);
        assert!(text.contains("scaling forensics"), "{text}");
        assert!(text.contains("aggregate"), "{text}");
        assert!(text.contains("gantt:"), "{text}");
        assert!(text.contains("critical path:"), "{text}");
        assert!(!text.contains('!'), "conservation violated:\n{text}");
    }

    #[test]
    fn metrics_registration_is_stable() {
        let session = Session::start();
        {
            let _top = ooc_trace::span("parallel", "exec-parallel");
            let _read = ooc_trace::span("pipeline", "sync-read");
            spin_us(50);
        }
        let report = AnalysisReport::from_trace(&session.finish());
        let registry = ooc_metrics::Registry::new();
        report.register_metrics(&registry, &[("kernel", "mxm"), ("version", "base")]);
        let snap = ooc_metrics::Snapshot::capture("test", &registry);
        assert!(snap
            .get("analyze_lanes", &[("kernel", "mxm"), ("version", "base")])
            .is_some());
        assert!(snap
            .get(
                "analyze_blame_share",
                &[("cat", "sync-read"), ("kernel", "mxm"), ("version", "base")]
            )
            .is_some());
    }
}
