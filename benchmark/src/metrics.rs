//! The names and units of every metric the benchmark emits.
//!
//! `BENCHMARK.json` declares the same names; the smoke test checks
//! that the two lists agree, so a metric cannot be added in one place
//! only.

/// A metric's name and unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
}

fn decl(name: impl Into<String>, unit: &'static str) -> Decl {
    Decl {
        name: name.into(),
        unit,
    }
}

/// The five workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "compile_all",
    "mxm_sync_mem",
    "trans_stage_file",
    "trans_stage_crc",
    "trans_par_striped",
];

/// The ten kernels of `ooc_kernels::all_kernels`, in its order.
pub const KERNELS: [&str; 10] = [
    "mat", "mxm", "adi", "vpenta", "btrix", "emit", "syr2k", "htribk", "gfunp", "trans",
];

/// The store ladder, from nothing to parity-striped.
pub const RUNGS: [&str; 10] = [
    "null",
    "mem",
    "file",
    "file_traced",
    "file_profiled",
    "file_fault0",
    "file_crc",
    "file_shared",
    "striped4_mem",
    "parity4_mem",
];

/// End-to-end metrics: what `--trace 0` reports for every workload.
/// Repetitions attempted and failed travel as the `attempted` and
/// `failed` keys of the result line, not as metrics.
#[must_use]
pub fn end_to_end() -> Vec<Decl> {
    vec![
        decl("setup_s", "s"),
        decl("run_s", "s"),
        decl("base_run_s", "s"),
        decl("io_calls", "count"),
        decl("io_mb", "MB"),
        decl("peak_rss_mb", "MB"),
    ]
}

/// Per-layer metrics: what `--trace 1` reports. A workload that does
/// not run a layer reports 0 for it.
#[must_use]
pub fn per_layer() -> Vec<Decl> {
    let mut out = Vec::new();
    // Compile.
    for k in KERNELS {
        out.push(decl(format!("kernels.compile_ms.{k}"), "ms"));
    }
    for name in [
        "optimizer.optimize_ms",
        "optimizer.data_only_ms",
        "optimizer.loop_only_ms",
        "tiling.from_optimized_ms",
        "sched.extract_schedule_ms",
        "sim.simulate_ms",
    ] {
        out.push(decl(name, "ms"));
    }
    out.push(decl("optimizer.modeled_io_calls", "count"));
    // Interpreter.
    out.push(decl("exec.iters", "count"));
    out.push(decl("exec.steps", "count"));
    out.push(decl("exec.seed_s", "s"));
    out.push(decl("exec.stage_s", "s"));
    out.push(decl("exec.body_s", "s"));
    out.push(decl("exec.body_ns_per_iter", "ns/iter"));
    // Store ladder.
    for r in RUNGS {
        out.push(decl(format!("ladder.{r}.col_s"), "s"));
        out.push(decl(format!("ladder.{r}.copt_s"), "s"));
        out.push(decl(format!("ladder.{r}.ns_per_elem"), "ns/elem"));
        out.push(decl(format!("ladder.{r}.us_per_call"), "us/call"));
    }
    out.push(decl("layout.region_runs_ms.col", "ms"));
    out.push(decl("layout.region_runs_ms.copt", "ms"));
    out.push(decl("checksum.sidecar_calls", "count"));
    out.push(decl("checksum.verified_chunks", "count"));
    out.push(decl("parity.write_amp", "ratio"));
    for v in ooc_kernels::Version::ALL {
        out.push(decl(format!("stage.version_s.{}", v.label()), "s"));
    }
    // Scheduler and parallel.
    out.push(decl("parallel.speedup", "ratio"));
    out.push(decl("parallel.active_shards", "count"));
    out.push(decl("parallel.serial_fallbacks", "count"));
    out.push(decl("pipeline.overlap_gain", "ratio"));
    out.push(decl("cache.hit_rate", "frac"));
    out.push(decl("cache.evictions", "count"));
    out.push(decl("cache.peak_elems", "count"));
    out.push(decl("prefetch.issued", "count"));
    out.push(decl("prefetch.useful_frac", "frac"));
    out.push(decl("prefetch.stalls", "count"));
    out.push(decl("prefetch.sync_reads", "count"));
    out.push(decl("writebehind.tiles", "count"));
    out.push(decl("pool.wait_ms", "ms"));
    out.push(decl("pool.busy_ms", "ms"));
    out.push(decl("pool.max_depth", "count"));
    out.push(decl("pool.node_imbalance", "ratio"));
    // Overheads.
    for name in [
        "recovery.durable_overhead_frac",
        "ledger.overhead_frac",
        "trace.overhead_frac",
        "bench.span_overhead_frac",
    ] {
        out.push(decl(name, "frac"));
    }
    // Model.
    out.push(decl("model.pred_s.col", "s"));
    out.push(decl("model.pred_s.copt", "s"));
    out.push(decl("model.gap_ratio.col", "ratio"));
    out.push(decl("model.gap_ratio.copt", "ratio"));
    out.push(decl("model.order_agrees", "count"));
    out
}

/// Metrics that are counts made by the program and must repeat
/// exactly: across the repetitions of a process, and with `--aa`
/// across the two sets.
pub const EXACT: [&str; 14] = [
    "io_calls",
    "io_mb",
    "optimizer.modeled_io_calls",
    "exec.iters",
    "exec.steps",
    "checksum.sidecar_calls",
    "checksum.verified_chunks",
    "parallel.active_shards",
    "parallel.serial_fallbacks",
    "cache.hit_rate",
    "cache.evictions",
    "cache.peak_elems",
    "prefetch.issued",
    "writebehind.tiles",
];
