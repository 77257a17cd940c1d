//! Regenerates Table 3 of the paper: speedups of every version of
//! every kernel on 16/32/64/128 processors, relative to the same
//! version on a single node.
//!
//! Usage: `table3 [scale] [--workers N] [--kill-node N|all] [--trace out.json]`
//!
//! With `--workers N` the binary switches to the **measured** mode:
//! every kernel version actually executes through the parallel
//! executor with N worker shards over stores striped across 4/8/16
//! simulated I/O nodes, against a single-shard baseline. Per-node
//! traffic registers as deterministic counters, timings as warn-only
//! gauges (gate with `bench-compare` vs `BENCH_table3_seed.json`).
//!
//! With `--kill-node N` (or `all`) it runs the **degraded-mode**
//! experiment instead: parallel runs over 4 parity-striped I/O nodes
//! with node N dead from its first arrival, plus sampled mid-run and
//! drain-phase kills — every run must land bit-equal to the fault-free
//! twin. Repair/scrub counters are deterministic (gate vs
//! `BENCH_degraded_seed.json`); priced slowdowns are warn-only gauges.
use ooc_bench::trace::TraceScope;
use ooc_bench::{
    degraded_register, measured_table3_register, paper_table3_entry, run_degraded_demo,
    run_measured_table3, run_table3, table3_register, MetricsScope, DEGRADED_KERNELS,
    DEGRADED_NODES, MEASURED_NODE_COUNTS, PAPER_TABLE3_KERNELS,
};
use ooc_runtime::IoCause;

fn measured_main(scale: i64, workers: usize, metrics: MetricsScope) {
    eprintln!(
        "running measured Table 3 with {workers} workers over {MEASURED_NODE_COUNTS:?} I/O nodes..."
    );
    let entries = run_measured_table3(scale, workers);
    println!("Table 3 (measured): {workers}-worker speedup over 1 worker, same striped stores.");
    println!("{:-<76}", "");
    println!(
        "{:10} {:7} {:>12} {:>12} {:>12} {:>18}",
        "program", "version", "4 nodes", "8 nodes", "16 nodes", "calls (16 nodes)"
    );
    println!("{:-<76}", "");
    for (kernel, _) in PAPER_TABLE3_KERNELS {
        for version in ["col", "row", "l-opt", "d-opt", "c-opt", "h-opt"] {
            let cell = |nodes: usize| {
                entries
                    .iter()
                    .find(|e| e.kernel == kernel && e.version == version && e.nodes == nodes)
            };
            print!("{kernel:10} {version:7}");
            for nodes in MEASURED_NODE_COUNTS {
                print!(" {:>11.2}x", cell(nodes).map_or(f64::NAN, |e| e.speedup));
            }
            println!(" {:>18}", cell(16).map_or(0, |e| e.total_calls()));
        }
        println!("{:-<76}", "");
    }
    println!("(per-node traffic is deterministic and exact-gated; timings are warn-only)");
    measured_table3_register(metrics.registry(), &entries);
    let _ = metrics.finish();
}

fn degraded_main(kill: &str, metrics: MetricsScope) {
    let kill_node = kill.parse::<usize>().ok();
    match kill_node {
        Some(n) => {
            eprintln!("running degraded-mode sweep: I/O node {n} dead from first arrival...")
        }
        None => eprintln!(
            "running degraded-mode sweep: each of {DEGRADED_NODES} I/O nodes killed in turn..."
        ),
    }
    println!("Degraded mode: 4-node parity-striped parallel runs surviving single-node loss.");
    println!("{:-<88}", "");
    println!(
        "{:8} {:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "program",
        "killed",
        "restarts",
        "reconstruct",
        "parity wr",
        "scrub skip",
        "slowdown",
        "retained"
    );
    println!("{:-<88}", "");
    for kernel in DEGRADED_KERNELS {
        let demo = run_degraded_demo(kernel, kill_node);
        for cell in &demo.cells {
            println!(
                "{:8} {:>6} {:>8} {:>12} {:>12} {:>12} {:>9.2}x {:>9.1}%",
                demo.kernel,
                cell.killed,
                cell.restarts(),
                cell.repair.get(IoCause::DegradedReconstruct).total_calls(),
                cell.repair.get(IoCause::ParityWrite).total_calls(),
                cell.scrub.skipped,
                cell.priced.slowdown(),
                cell.priced.bandwidth_retention() * 100.0,
            );
        }
        println!(
            "{:8} sampled kills verified bit-equal: {:?}",
            demo.kernel, demo.sampled_kills
        );
        println!("{:-<88}", "");
        degraded_register(metrics.registry(), &demo);
    }
    println!("(every degraded run is bit-equal to its fault-free twin; repair counters are");
    println!(" deterministic and exact-gated, priced slowdowns are warn-only gauges)");
    let _ = metrics.finish();
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = TraceScope::from_args(&mut args);
    let metrics = MetricsScope::from_args(&mut args, "table3");
    let workers = ooc_bench::trace::take_value_flag(&mut args, "--workers")
        .and_then(|w| w.parse::<usize>().ok());
    let kill = ooc_bench::trace::take_value_flag(&mut args, "--kill-node");
    let scale: i64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    if let Some(kill) = kill {
        degraded_main(&kill, metrics);
        let _ = trace.finish();
        return;
    }
    if let Some(workers) = workers {
        measured_main(scale, workers.max(1), metrics);
        let _ = trace.finish();
        return;
    }
    let procs = [16usize, 32, 64, 128];
    eprintln!("running Table 3 at 1/{scale} scale (this sweeps 10 kernels x 6 versions x 5 processor counts)...");
    let entries = run_table3(scale, &procs);

    println!("Table 3: Results on scalability of different versions (measured | paper).");
    println!("{:-<100}", "");
    println!(
        "{:10} {:7} {:>20} {:>20} {:>20} {:>20}",
        "program", "version", "16", "32", "64", "128"
    );
    println!("{:-<100}", "");
    for (kernel, label) in PAPER_TABLE3_KERNELS {
        for version in ["col", "row", "l-opt", "d-opt", "c-opt", "h-opt"] {
            let speedups: Vec<f64> = procs
                .iter()
                .map(|&p| {
                    entries
                        .iter()
                        .find(|e| e.kernel == kernel && e.version == version && e.procs == p)
                        .map_or(f64::NAN, |e| e.speedup)
                })
                .collect();
            let paper = paper_table3_entry(kernel, version);
            print!("{:10} {:7}", label, version);
            for (i, s) in speedups.iter().enumerate() {
                let ppr = paper.map_or(f64::NAN, |p| p[i]);
                print!(" {:>9.1}|{:<9.1}", s, ppr);
            }
            println!();
        }
        println!("{:-<100}", "");
    }
    println!("(cells show measured speedup | paper speedup vs the same version on 1 node)");

    if let Ok(path) = std::env::var("TABLE3_JSON") {
        let json = ooc_bench::json::table3_json(&entries);
        std::fs::write(&path, json).expect("write json");
        eprintln!("wrote {path}");
    }
    table3_register(metrics.registry(), &entries);
    let _ = metrics.finish();
    let _ = trace.finish();
}
