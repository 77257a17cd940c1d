//! The **measured** Table 3 mode: instead of pricing analytic call
//! counts on the simulated machine, actually run every kernel version
//! through the parallel executor (`ooc-core`'s `exec_parallel`) over
//! stores striped across simulated I/O nodes
//! (`ooc-runtime`'s [`StripedStore`] / [`IoNodePool`]), and measure
//! wall-clock speedup, per-node traffic, and queueing behaviour.
//!
//! Two result classes come out of each cell, and they gate
//! differently:
//!
//! * **Deterministic** — per-node call/element counts (pure functions
//!   of the stripe mapping and the tile walk) register as counters;
//!   `bench-compare` exact-matches them against the committed
//!   `BENCH_table3_seed.json`.
//! * **Timing** — measured seconds, speedups, priced contention
//!   seconds, and queue-depth/wait summaries register as gauges;
//!   `bench-compare` only warns when they drift.
//!
//! The measured mode runs far smaller inputs than the simulated mode:
//! it moves real bytes through real threads, so
//! [`measured_params`] divides the paper sizes by `32 * scale`
//! (`table3 4 --workers 4` → 1/128 of paper size, floor 8), and the
//! stripe unit shrinks to [`MEASURED_STRIPE_ELEMS`] so tiles still
//! spread across every node.

use crate::experiments::scaled_params;
use ooc_core::{exec_parallel, FunctionalConfig, ParallelConfig, PipelineConfig};
use ooc_ir::ArrayId;
use ooc_kernels::{all_kernels, compile, Kernel, Version};
use ooc_metrics::Registry;
use ooc_runtime::{IoNodePool, MemStore, NodeStats, StripeConfig, StripedStore};
use pfs_sim::{price_node_loads, ContentionReport, DiskParams, NodeLoad};
use std::io;
use std::time::Instant;

/// Stripe unit of the measured mode, in elements (512 bytes — the
/// Paragon's 64 KB unit scaled like the 1/128 default problem size).
pub const MEASURED_STRIPE_ELEMS: u64 = 64;

/// I/O-node counts the measured sweep covers.
pub const MEASURED_NODE_COUNTS: [usize; 3] = [4, 8, 16];

/// One `(kernel, version, io-nodes)` cell of the measured Table 3.
#[derive(Debug, Clone)]
pub struct MeasuredEntry {
    /// Kernel name.
    pub kernel: String,
    /// Version label.
    pub version: String,
    /// Simulated I/O nodes the stores were striped over.
    pub nodes: usize,
    /// Worker shards of the measured run.
    pub workers: usize,
    /// Measured wall-clock seconds with `workers` shards.
    pub seconds: f64,
    /// Measured wall-clock seconds of the single-shard baseline on
    /// the same striped stores.
    pub baseline_seconds: f64,
    /// `baseline_seconds / seconds` — the measured speedup curve.
    pub speedup: f64,
    /// Per-node traffic and queue timings from the measured run.
    pub node_stats: Vec<NodeStats>,
    /// The per-node load distribution priced on the simulated disks.
    pub priced: ContentionReport,
}

impl MeasuredEntry {
    /// Total I/O calls across all nodes (reads + writes).
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.node_stats
            .iter()
            .map(|n| n.io.read_calls + n.io.write_calls)
            .sum()
    }
}

/// The measured mode's problem sizes: the paper parameters divided by
/// `32 * scale` (floor 8) — small enough to actually execute, large
/// enough that tiles cross stripe and node boundaries.
#[must_use]
pub fn measured_params(kernel: &Kernel, scale: i64) -> Vec<i64> {
    scaled_params(kernel, scale.max(1).saturating_mul(32))
}

/// The deterministic seed every measured run initializes arrays with
/// (in the style of `ooc_kernels::seed`: array- and index-dependent,
/// integer-derived so it is exactly representable).
#[must_use]
pub fn measured_seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as u64 + 1).wrapping_mul(2_654_435_761);
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x as u64 * 17);
    }
    (h % 1009) as f64 / 64.0 + 1.0
}

pub(crate) fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        functional: FunctionalConfig::with_fraction(16),
        ..PipelineConfig::default()
    }
}

/// Runs one kernel version over `nodes` striped in-memory stores with
/// `shards` workers; returns measured seconds and the pool snapshot.
fn run_cell(
    tiled: &ooc_core::TiledProgram,
    params: &[i64],
    nodes: usize,
    shards: usize,
) -> io::Result<(f64, Vec<NodeStats>)> {
    let pool = IoNodePool::new(StripeConfig {
        stripe_elems: MEASURED_STRIPE_ELEMS,
        ..StripeConfig::with_nodes(nodes)
    });
    let cfg = ParallelConfig {
        pipeline: pipeline_config(),
        shards,
    };
    let started = Instant::now();
    exec_parallel(tiled, params, &measured_seed, &cfg, |_, _, len| {
        StripedStore::build(&pool, len, |_, part_len| Ok(MemStore::new(part_len)))
    })?;
    Ok((started.elapsed().as_secs_f64(), pool.snapshot()))
}

/// Runs the measured Table 3: all ten kernels × six versions ×
/// [`MEASURED_NODE_COUNTS`], each cell measured with `workers` shards
/// against a single-shard baseline over identically striped stores.
///
/// # Panics
/// Panics when a run fails (in-memory stores cannot fail unless the
/// executor itself is broken) or when a conservation invariant breaks:
/// per-node **write** traffic must match the single-shard baseline
/// exactly (written regions are shard-disjoint and each dirty tile is
/// flushed once, so sharding cannot change what is written), and each
/// run's **total** traffic must be identical across every node count
/// (stripe boundaries are fixed; only node assignment varies with
/// `K`). Read traffic is *not* compared across worker counts: every
/// shard owns a private tile pool, so the aggregate cache grows with
/// workers and legitimately absorbs some re-reads.
#[must_use]
pub fn run_measured_table3(scale: i64, workers: usize) -> Vec<MeasuredEntry> {
    let kernels = all_kernels();
    let work: Vec<(usize, Version)> = (0..kernels.len())
        .flat_map(|k| Version::ALL.iter().map(move |&v| (k, v)))
        .collect();
    let mut entries: Vec<MeasuredEntry> = work
        .iter()
        .flat_map(|&(ki, v)| {
            let k = &kernels[ki];
            let params = measured_params(k, scale);
            let cv = compile(k, v);
            let cells: Vec<MeasuredEntry> = MEASURED_NODE_COUNTS
                .iter()
                .map(|&nodes| {
                    let (t1, base_stats) =
                        run_cell(&cv.tiled, &params, nodes, 1).expect("baseline run");
                    let (tw, node_stats) =
                        run_cell(&cv.tiled, &params, nodes, workers).expect("measured run");
                    for (kn, (b, m)) in base_stats.iter().zip(&node_stats).enumerate() {
                        assert_eq!(
                            (b.io.write_calls, b.io.write_elems),
                            (m.io.write_calls, m.io.write_elems),
                            "{} {} nodes={nodes} node {kn}: parallel writes diverge from serial",
                            k.name,
                            v.label(),
                        );
                    }
                    let loads: Vec<NodeLoad> = node_stats
                        .iter()
                        .map(|n| NodeLoad {
                            calls: n.io.read_calls + n.io.write_calls,
                            bytes: (n.io.read_elems + n.io.write_elems) * ooc_runtime::ELEM_BYTES,
                        })
                        .collect();
                    let priced = price_node_loads(&loads, &DiskParams::default());
                    MeasuredEntry {
                        kernel: k.name.to_string(),
                        version: v.label().to_string(),
                        nodes,
                        workers,
                        seconds: tw,
                        baseline_seconds: t1,
                        speedup: t1 / tw.max(f64::MIN_POSITIVE),
                        node_stats,
                        priced,
                    }
                })
                .collect();
            let totals = |e: &MeasuredEntry| -> (u64, u64, u64, u64) {
                e.node_stats.iter().fold((0, 0, 0, 0), |acc, n| {
                    (
                        acc.0 + n.io.read_calls,
                        acc.1 + n.io.write_calls,
                        acc.2 + n.io.read_elems,
                        acc.3 + n.io.write_elems,
                    )
                })
            };
            for pair in cells.windows(2) {
                assert_eq!(
                    totals(&pair[0]),
                    totals(&pair[1]),
                    "{} {}: total traffic varies between {} and {} nodes",
                    k.name,
                    v.label(),
                    pair[0].nodes,
                    pair[1].nodes,
                );
            }
            cells
        })
        .collect();
    entries.sort_by(|a, b| {
        (a.kernel.as_str(), a.version.as_str(), a.nodes).cmp(&(
            b.kernel.as_str(),
            b.version.as_str(),
            b.nodes,
        ))
    });
    entries
}

/// Registers measured Table 3 results. Deterministic per-node traffic
/// registers as counters (exact-matched by `bench-compare`); measured
/// and priced timings register as gauges (warn-only drift).
pub fn measured_table3_register(registry: &Registry, entries: &[MeasuredEntry]) {
    for e in entries {
        let nodes = e.nodes.to_string();
        let labels = [
            ("kernel", e.kernel.as_str()),
            ("version", e.version.as_str()),
            ("nodes", nodes.as_str()),
        ];
        // Deterministic: totals and the per-node split.
        let mut wait_ns = 0u64;
        let mut depth_n = 0u64;
        let mut wait_hist = ooc_metrics::Histogram::default();
        let mut depth_hist = ooc_metrics::Histogram::default();
        for (kn, n) in e.node_stats.iter().enumerate() {
            let node = kn.to_string();
            let nl = [labels[0], labels[1], labels[2], ("node", node.as_str())];
            registry.counter_add(
                "striped_node_calls_total",
                &nl,
                n.io.read_calls + n.io.write_calls,
            );
            registry.counter_add(
                "striped_node_elems_total",
                &nl,
                n.io.read_elems + n.io.write_elems,
            );
            wait_ns += n.timing.wait_ns;
            depth_n += n.timing.depth_hist.count;
            wait_hist.merge(&n.timing.wait_hist);
            depth_hist.merge(&n.timing.depth_hist);
        }
        // Queue histograms, merged across nodes. The `timing_` prefix
        // tells `bench-compare` to gate on observation *count* only
        // (one observation per I/O call — deterministic), never on the
        // wall-clock-dependent bucket shape.
        registry.record_hist("timing_queue_wait_ns", &labels, &wait_hist);
        registry.record_hist("timing_queue_depth", &labels, &depth_hist);
        registry.counter_add(
            "striped_read_calls_total",
            &labels,
            e.node_stats.iter().map(|n| n.io.read_calls).sum(),
        );
        registry.counter_add(
            "striped_write_calls_total",
            &labels,
            e.node_stats.iter().map(|n| n.io.write_calls).sum(),
        );
        registry.counter_add(
            "striped_read_elems_total",
            &labels,
            e.node_stats.iter().map(|n| n.io.read_elems).sum(),
        );
        registry.counter_add(
            "striped_write_elems_total",
            &labels,
            e.node_stats.iter().map(|n| n.io.write_elems).sum(),
        );
        // Timing-dependent: gauges only (never exact-gated).
        registry.gauge_set("measured_seconds", &labels, e.seconds);
        registry.gauge_set("measured_baseline_seconds", &labels, e.baseline_seconds);
        registry.gauge_set("measured_speedup", &labels, e.speedup);
        registry.gauge_set("priced_makespan_s", &labels, e.priced.makespan_s);
        registry.gauge_set("priced_serial_s", &labels, e.priced.serial_s);
        registry.gauge_set("priced_speedup", &labels, e.priced.speedup());
        registry.gauge_set("priced_skew", &labels, e.priced.skew());
        registry.gauge_set("queue_wait_ns_total", &labels, wait_ns as f64);
        registry.gauge_set("queue_depth_samples", &labels, depth_n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_kernels::kernel_by_name;
    use ooc_metrics::{Snapshot, Value};

    #[test]
    fn measured_params_shrink_with_floor() {
        let k = kernel_by_name("mat").expect("kernel");
        assert_eq!(measured_params(&k, 4), vec![32]);
        assert_eq!(measured_params(&k, 1_000_000), vec![8]);
    }

    #[test]
    fn one_measured_cell_conserves_traffic_across_node_counts() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let cv = compile(&k, Version::DOpt);
        let params = measured_params(&k, 4);
        let totals: Vec<(u64, u64)> = [1usize, 4, 8]
            .iter()
            .map(|&nodes| {
                let (_, stats) = run_cell(&cv.tiled, &params, nodes, 2).expect("run");
                (
                    stats
                        .iter()
                        .map(|n| n.io.read_calls + n.io.write_calls)
                        .sum(),
                    stats
                        .iter()
                        .map(|n| n.io.read_elems + n.io.write_elems)
                        .sum(),
                )
            })
            .collect();
        assert_eq!(totals[0], totals[1], "4-node traffic diverges");
        assert_eq!(totals[0], totals[2], "8-node traffic diverges");
        assert!(totals[0].0 > 0);
    }

    #[test]
    fn registration_separates_counters_from_gauges() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let cv = compile(&k, Version::COpt);
        let params = measured_params(&k, 8);
        let (secs, node_stats) = run_cell(&cv.tiled, &params, 4, 2).expect("run");
        let loads: Vec<NodeLoad> = node_stats
            .iter()
            .map(|n| NodeLoad {
                calls: n.io.read_calls + n.io.write_calls,
                bytes: (n.io.read_elems + n.io.write_elems) * 8,
            })
            .collect();
        let entry = MeasuredEntry {
            kernel: "trans".into(),
            version: "c-opt".into(),
            nodes: 4,
            workers: 2,
            seconds: secs,
            baseline_seconds: secs,
            speedup: 1.0,
            priced: price_node_loads(&loads, &DiskParams::default()),
            node_stats,
        };
        let r = Registry::new();
        measured_table3_register(&r, std::slice::from_ref(&entry));
        let snap = Snapshot::capture("test", &r);
        let labels = [("kernel", "trans"), ("version", "c-opt"), ("nodes", "4")];
        match r.get("striped_read_calls_total", &labels) {
            Some(Value::Counter(n)) => assert!(n > 0),
            other => panic!("expected counter, got {other:?}"),
        }
        match r.get("measured_speedup", &labels) {
            Some(Value::Gauge(_)) => {}
            other => panic!("expected gauge, got {other:?}"),
        }
        // Per-node counters sum to the totals.
        let per_node: u64 = (0..4)
            .map(|kn| {
                let node = kn.to_string();
                let nl = [labels[0], labels[1], labels[2], ("node", node.as_str())];
                match r.get("striped_node_calls_total", &nl) {
                    Some(Value::Counter(n)) => n,
                    other => panic!("missing node counter: {other:?}"),
                }
            })
            .sum();
        assert_eq!(per_node, entry.total_calls());
        assert!(!snap.samples.is_empty());
        // Queue histograms register under the timing_ prefix with one
        // observation per I/O call (count-gated by bench-compare).
        match r.get("timing_queue_wait_ns", &labels) {
            Some(Value::Histogram(h)) => assert_eq!(h.count, entry.total_calls()),
            other => panic!("expected timing histogram, got {other:?}"),
        }
        match r.get("timing_queue_depth", &labels) {
            Some(Value::Histogram(h)) => assert_eq!(h.count, entry.total_calls()),
            other => panic!("expected timing histogram, got {other:?}"),
        }
    }
}
