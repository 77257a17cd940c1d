//! The scaling-forensics sweep behind the `analyze` binary and
//! `inspect --analyze`.
//!
//! Each cell runs one kernel version through the parallel executor
//! over striped in-memory stores **under a trace session**, then
//! reconstructs the run with [`ooc_analyze`]: a per-lane blame
//! waterfall that sums exactly to the measured wall-clock, the
//! critical path, and (per node count) the model-vs-measured
//! contention gap from [`pfs_sim::GapReport`].
//!
//! Trace sessions are process-exclusive, so cells run strictly
//! sequentially — never call this while another session (e.g.
//! `--trace`) is live.

use crate::measured::{measured_params, measured_seed, MEASURED_STRIPE_ELEMS};
use ooc_analyze::{AnalysisReport, Blame, ALL_BLAMES};
use ooc_core::{exec_parallel, ParallelConfig};
use ooc_kernels::{compile, Kernel, Version};
use ooc_metrics::Registry;
use ooc_runtime::{IoNodePool, MemStore, NodeStats, StripeConfig, StripedStore};
use ooc_trace::Session;
use pfs_sim::{price_node_loads, DiskParams, GapCell, GapReport, NodeLoad};
use std::time::Instant;

/// Worker counts the forensics sweep covers.
pub const ANALYZE_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One traced `(kernel, version, workers, nodes)` forensics cell.
#[derive(Debug, Clone)]
pub struct AnalyzeCell {
    /// Kernel name.
    pub kernel: String,
    /// Version label.
    pub version: String,
    /// Worker shards of the run.
    pub workers: usize,
    /// I/O nodes the stores were striped over.
    pub nodes: usize,
    /// Measured wall-clock seconds of the traced run.
    pub seconds: f64,
    /// The reconstructed forensics.
    pub report: AnalysisReport,
    /// Per-node traffic and queue timings.
    pub node_stats: Vec<NodeStats>,
}

impl AnalyzeCell {
    /// The gap-report row for this cell: priced contention vs
    /// experienced per-node busy/wait seconds.
    #[must_use]
    fn gap_cell(&self) -> GapCell {
        let loads: Vec<NodeLoad> = self
            .node_stats
            .iter()
            .map(|n| NodeLoad {
                calls: n.io.read_calls + n.io.write_calls,
                bytes: (n.io.read_elems + n.io.write_elems) * ooc_runtime::ELEM_BYTES,
            })
            .collect();
        let priced = price_node_loads(&loads, &DiskParams::default());
        GapCell {
            kernel: self.kernel.clone(),
            version: self.version.clone(),
            nodes: self.nodes,
            priced_makespan_s: priced.makespan_s,
            priced_serial_s: priced.serial_s,
            measured_busy_s: self
                .node_stats
                .iter()
                .map(|n| n.timing.busy_ns as f64 / 1e9)
                .collect(),
            measured_wait_s: self
                .node_stats
                .iter()
                .map(|n| n.timing.wait_ns as f64 / 1e9)
                .collect(),
        }
    }
}

/// Runs one traced forensics cell. Must not be called while another
/// trace session is installed.
///
/// # Panics
/// Panics when the run fails (in-memory stores cannot fail unless the
/// executor is broken) or when a lane's waterfall fails conservation —
/// the property the whole subsystem exists to guarantee.
#[must_use]
pub fn run_analyze_cell(
    kernel: &Kernel,
    version: Version,
    scale: i64,
    workers: usize,
    nodes: usize,
) -> AnalyzeCell {
    // Sessions are process-exclusive, so taking it first also keeps
    // the compile below out of a concurrent cell's trace.
    let session = Session::start();
    let cv = compile(kernel, version);
    let params = measured_params(kernel, scale);
    let pool = IoNodePool::new(StripeConfig {
        stripe_elems: MEASURED_STRIPE_ELEMS,
        ..StripeConfig::with_nodes(nodes)
    });
    let cfg = ParallelConfig {
        pipeline: crate::measured::pipeline_config(),
        shards: workers,
    };
    let started = Instant::now();
    exec_parallel(&cv.tiled, &params, &measured_seed, &cfg, |_, _, len| {
        StripedStore::build(&pool, len, |_, part_len| Ok(MemStore::new(part_len)))
    })
    .expect("analyze run");
    let seconds = started.elapsed().as_secs_f64();
    let data = session.finish();
    // Every traced cell must also survive the Chrome exporter's
    // structural checker — CI leans on this (balanced spans, flow
    // pairing, monotone timestamps per thread).
    ooc_trace::chrome::validate_chrome_trace(&ooc_trace::chrome::chrome_trace_json(&data.events))
        .unwrap_or_else(|e| {
            panic!(
                "{} {} workers={workers}: trace fails structural validation: {e}",
                kernel.name,
                version.label(),
            )
        });
    let report = AnalysisReport::from_trace(&data);
    for lane in &report.timeline.lanes {
        assert!(
            lane.blame.is_conserving(),
            "{} {} workers={workers} nodes={nodes}: lane {} waterfall does not conserve \
             ({} us attributed vs {} us wall)",
            kernel.name,
            version.label(),
            lane.label,
            lane.blame.total_us(),
            lane.blame.wall_us,
        );
    }
    assert!(
        report.critical.total_us <= report.timeline.wall_us,
        "{} {}: critical path exceeds wall-clock",
        kernel.name,
        version.label(),
    );
    AnalyzeCell {
        kernel: kernel.name.to_string(),
        version: version.label().to_string(),
        workers,
        nodes,
        seconds,
        report,
        node_stats: pool.snapshot(),
    }
}

/// The contention gap table over every cell run with `gap_workers`.
#[must_use]
pub fn gap_report(cells: &[AnalyzeCell], gap_workers: usize) -> GapReport {
    let mut report = GapReport::default();
    for c in cells.iter().filter(|c| c.workers == gap_workers) {
        report.push(c.gap_cell());
    }
    report.sort();
    report
}

/// The efficiency-loss-at-N summary: one row per kernel × version,
/// showing shard efficiency at each worker count and, at the highest,
/// the dominant blame and the critical path's bounding resource.
#[must_use]
pub fn efficiency_summary(cells: &[AnalyzeCell], nodes: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<10} {:<8}", "kernel", "version");
    for w in ANALYZE_WORKER_COUNTS {
        let _ = write!(out, " {:>6}", format!("eff@{w}"));
    }
    let _ = writeln!(out, " {:>16} {:>16}", "dominant-loss", "bounded-by");
    let mut keys: Vec<(String, String)> = cells
        .iter()
        .map(|c| (c.kernel.clone(), c.version.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    for (kernel, version) in keys {
        let _ = write!(out, "{kernel:<10} {version:<8}");
        let mut last: Option<&AnalyzeCell> = None;
        for w in ANALYZE_WORKER_COUNTS {
            let cell = cells.iter().find(|c| {
                c.kernel == kernel && c.version == version && c.workers == w && c.nodes == nodes
            });
            match cell.and_then(|c| c.report.shard_efficiency()) {
                Some(eff) => {
                    let _ = write!(out, " {:>5.0}%", eff * 100.0);
                }
                None => {
                    let _ = write!(out, " {:>6}", "-");
                }
            }
            if cell.is_some() {
                last = cell;
            }
        }
        // The dominant *loss* is the heaviest non-compute category of
        // the shard lanes' aggregate at the highest worker count.
        let loss = last.and_then(|c| {
            let agg = c.report.timeline.aggregate();
            ALL_BLAMES
                .iter()
                .copied()
                .filter(|b| *b != Blame::Compute && agg.get(*b) > 0)
                .max_by_key(|b| agg.get(*b))
        });
        let bound = last.and_then(|c| c.report.critical.bounding());
        let _ = writeln!(
            out,
            " {:>16} {:>16}",
            loss.map_or("-", Blame::label),
            bound.map_or("-", Blame::label),
        );
    }
    out
}

/// Machine-readable twin of [`efficiency_summary`] and
/// [`gap_report`]: one `efficiency` row per kernel × version with the
/// per-worker-count shard efficiencies, the dominant loss, and the
/// critical path's bounding resource, plus one `gap` row per
/// contention-gap cell. Built on [`ooc_trace::json::Json`] so the
/// layout matches the other table dumps.
#[must_use]
pub fn analyze_json(cells: &[AnalyzeCell], nodes: usize, gap_workers: usize) -> String {
    use ooc_trace::json::Json;
    let mut keys: Vec<(String, String)> = cells
        .iter()
        .map(|c| (c.kernel.clone(), c.version.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    let efficiency = keys
        .iter()
        .map(|(kernel, version)| {
            let mut effs = Vec::new();
            let mut last: Option<&AnalyzeCell> = None;
            for w in ANALYZE_WORKER_COUNTS {
                let cell = cells.iter().find(|c| {
                    c.kernel == *kernel
                        && c.version == *version
                        && c.workers == w
                        && c.nodes == nodes
                });
                effs.push((
                    format!("w{w}"),
                    cell.and_then(|c| c.report.shard_efficiency())
                        .map_or(Json::Null, Json::F64),
                ));
                if cell.is_some() {
                    last = cell;
                }
            }
            let loss = last.and_then(|c| {
                let agg = c.report.timeline.aggregate();
                ALL_BLAMES
                    .iter()
                    .copied()
                    .filter(|b| *b != Blame::Compute && agg.get(*b) > 0)
                    .max_by_key(|b| agg.get(*b))
            });
            let bound = last.and_then(|c| c.report.critical.bounding());
            Json::obj([
                ("kernel", Json::Str(kernel.clone())),
                ("version", Json::Str(version.clone())),
                ("efficiency", Json::Obj(effs)),
                (
                    "dominant_loss",
                    loss.map_or(Json::Null, |b| Json::Str(b.label().to_string())),
                ),
                (
                    "bounded_by",
                    bound.map_or(Json::Null, |b| Json::Str(b.label().to_string())),
                ),
            ])
        })
        .collect();
    let gap = gap_report(cells, gap_workers)
        .cells
        .iter()
        .map(|g| {
            Json::obj([
                ("kernel", Json::Str(g.kernel.clone())),
                ("version", Json::Str(g.version.clone())),
                ("nodes", Json::U64(g.nodes as u64)),
                ("priced_makespan_s", Json::F64(g.priced_makespan_s)),
                ("priced_serial_s", Json::F64(g.priced_serial_s)),
                ("busy_gap", Json::F64(g.busy_gap())),
                ("wait_share", Json::F64(g.wait_share())),
            ])
        })
        .collect();
    Json::obj([
        ("nodes", Json::U64(nodes as u64)),
        ("gap_workers", Json::U64(gap_workers as u64)),
        ("efficiency", Json::Arr(efficiency)),
        ("gap", Json::Arr(gap)),
    ])
    .pretty()
}

/// Registers the sweep's results.
///
/// Deterministic structure registers as counters (`bench-compare`
/// exact-matches them): cells analyzed, conservation/critical-bound
/// violations (always zero — registering them *proves* the run
/// checked), and per-cell lane counts (fixed by the executor's
/// thread topology for a given config). Timing-derived decompositions
/// register as warn-only gauges.
pub fn analyze_register(registry: &Registry, cells: &[AnalyzeCell]) {
    registry.counter_add("analyze_cells_total", &[], cells.len() as u64);
    let violations = cells
        .iter()
        .flat_map(|c| &c.report.timeline.lanes)
        .filter(|l| !l.blame.is_conserving())
        .count();
    registry.counter_add(
        "analyze_conservation_failures_total",
        &[],
        violations as u64,
    );
    let bound_violations = cells
        .iter()
        .filter(|c| c.report.critical.total_us > c.report.timeline.wall_us)
        .count();
    registry.counter_add(
        "analyze_critical_bound_violations_total",
        &[],
        bound_violations as u64,
    );
    for c in cells {
        let workers = c.workers.to_string();
        let nodes = c.nodes.to_string();
        let labels = [
            ("kernel", c.kernel.as_str()),
            ("version", c.version.as_str()),
            ("workers", workers.as_str()),
            ("nodes", nodes.as_str()),
        ];
        c.report.register_metrics(registry, &labels);
        if let Some(eff) = c.report.shard_efficiency() {
            registry.gauge_set("analyze_shard_efficiency", &labels, eff);
        }
        let gap = c.gap_cell();
        registry.gauge_set("gap_priced_makespan_s", &labels, gap.priced_makespan_s);
        registry.gauge_set("gap_busy_ratio", &labels, gap.busy_gap());
        registry.gauge_set("gap_wait_share", &labels, gap.wait_share());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_kernels::kernel_by_name;
    use ooc_metrics::{Snapshot, Value};

    #[test]
    fn one_cell_conserves_and_names_a_critical_path() {
        let k = kernel_by_name("trans").expect("kernel");
        let cell = run_analyze_cell(&k, Version::COpt, 8, 2, 4);
        assert_eq!(cell.report.timeline.shard_lanes(), 2);
        assert!(cell.report.timeline.wall_us > 0);
        assert!(!cell.report.critical.steps.is_empty());
        // The gap row exposes experienced waits the model does not price.
        let gap = cell.gap_cell();
        assert_eq!(gap.nodes, 4);
        assert!(gap.priced_makespan_s > 0.0);
        let text = cell.report.render(60);
        assert!(text.contains("critical path:"), "{text}");
    }

    #[test]
    fn registration_gates_structure_not_timing() {
        let k = kernel_by_name("trans").expect("kernel");
        let cell = run_analyze_cell(&k, Version::Col, 8, 2, 4);
        let r = Registry::new();
        analyze_register(&r, std::slice::from_ref(&cell));
        let snap = Snapshot::capture("test", &r);
        match snap.get("analyze_cells_total", &[]) {
            Some(Value::Counter(1)) => {}
            other => panic!("expected 1 cell, got {other:?}"),
        }
        match snap.get("analyze_conservation_failures_total", &[]) {
            Some(Value::Counter(0)) => {}
            other => panic!("expected 0 failures, got {other:?}"),
        }
        let labels = [
            ("kernel", "trans"),
            ("nodes", "4"),
            ("version", "col"),
            ("workers", "2"),
        ];
        match r.get("analyze_shard_efficiency", &labels) {
            Some(Value::Gauge(g)) => assert!(g > 0.0 && g <= 1.0),
            other => panic!("expected efficiency gauge, got {other:?}"),
        }
    }

    #[test]
    fn efficiency_summary_has_one_row_per_version() {
        let k = kernel_by_name("trans").expect("kernel");
        let cells = vec![
            run_analyze_cell(&k, Version::DOpt, 16, 1, 4),
            run_analyze_cell(&k, Version::DOpt, 16, 2, 4),
        ];
        let text = efficiency_summary(&cells, 4);
        assert!(text.contains("trans"), "{text}");
        assert!(text.contains("eff@1"), "{text}");
        assert!(text.contains("bounded-by"), "{text}");
    }
}
