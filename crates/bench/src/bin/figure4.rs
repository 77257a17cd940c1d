//! Figure 4 (this repo's extension): what the asynchronous tile
//! pipeline buys on top of the paper's compiler optimizations.
//!
//! Two views over one kernel:
//!
//! 1. **Executed** — `exec_pipelined` runs the c-opt version for real
//!    (small size, in-memory stores) across a cache-capacity ×
//!    prefetch-depth sweep, printing hit rates, stalls, and sync-read
//!    counts from the pipeline's own counters. Results are asserted
//!    bit-equal to the synchronous executor on every cell.
//! 2. **Modeled** — the paper-scale trace of every version goes
//!    through `pfs-sim`'s overlap pricing: pipelined makespan
//!    (`max(compute, I/O)` per stage, bounded lookahead) versus the
//!    synchronous sum, per prefetch depth.
//!
//! Usage: `figure4 [kernel] [scale-divisor] [--metrics out.json]`
use ooc_bench::MetricsScope;
use ooc_core::pipeline::{extract_schedule, schedule_footprint};
use ooc_core::{
    build_workload, exec_pipelined, run_functional_on, ExecConfig, FunctionalConfig, PipelineConfig,
};
use ooc_kernels::{compile, kernel_by_name, seed, Version};
use ooc_runtime::MemStore;
use pfs_sim::overlap_report;

const DEPTHS: [usize; 5] = [0, 1, 2, 4, 8];
const CAPACITY_MULTS: [u64; 3] = [1, 2, 4];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics = MetricsScope::from_args(&mut args, "figure4");
    let name = args.first().cloned().unwrap_or_else(|| "mxm".into());
    let scale: i64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let k = kernel_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown kernel `{name}`");
        std::process::exit(2);
    });
    println!("Figure 4: asynchronous tile pipeline — kernel {}\n", k.name);

    // (a) Executed sweep: c-opt at the functional-test size.
    let cv = compile(&k, Version::COpt);
    let fcfg = FunctionalConfig::with_fraction(16);
    let reference = run_functional_on(&cv.tiled, &k.small_params, &seed, &fcfg, |_, _, len| {
        Ok(MemStore::new(len))
    })
    .expect("sync reference");
    let footprint = schedule_footprint(&extract_schedule(&cv.tiled, &k.small_params, &fcfg)).max(1);
    println!(
        "(a) executed at {:?} (c-opt, in-memory stores; step footprint {} elems):",
        k.small_params, footprint
    );
    println!("    cache x depth | hit rate | stalls | async reads | sync reads | wb tiles");
    for &mult in &CAPACITY_MULTS {
        for &depth in &DEPTHS {
            let cfg = PipelineConfig {
                functional: fcfg.clone(),
                workers: 2,
                prefetch_depth: depth,
                cache_capacity: Some(footprint * mult),
                write_behind: true,
            };
            let run = exec_pipelined(&cv.tiled, &k.small_params, &seed, &cfg, |_, _, len| {
                Ok(MemStore::new(len))
            })
            .expect("pipelined run");
            assert_eq!(
                run.run.data, reference.data,
                "pipelined c-opt diverged at capacity x{mult}, depth {depth}"
            );
            let p = &run.pipeline;
            println!(
                "    {:>5}x{} d={}   | {:>6.1}% | {:>6} | {:>11} | {:>10} | {:>8}",
                mult,
                footprint,
                depth,
                p.hit_rate() * 100.0,
                p.stalls,
                p.prefetched_reads,
                p.sync_reads,
                p.writebehind_tiles
            );
            if mult == 2 && depth == 4 {
                // The headline configuration lands in the snapshot.
                p.register_into(metrics.registry(), k.name, "c-opt");
            }
        }
    }
    println!("    (every cell bit-equal to the synchronous executor)\n");

    // (b) Modeled overlap at paper scale, per version and depth.
    let params: Vec<i64> = k.paper_params.iter().map(|&n| (n / scale).max(8)).collect();
    println!("(b) modeled at {params:?} (pfs-sim overlap pricing, 1 processor):");
    println!("    version | sequential |  d=0   d=1   d=2   d=4   d=8  | hidden I/O");
    for v in Version::ALL {
        let cv = compile(&k, v);
        let mut cfg = ExecConfig::new(params.clone(), 1);
        cfg.interleave = cv.interleave.clone();
        let (_sim, workload, _report) = build_workload(&cv.tiled, &cfg);
        let trace = workload.per_proc.first().cloned().unwrap_or_default();
        let mut cells = Vec::new();
        let mut last = None;
        for &depth in &DEPTHS {
            let r = overlap_report(&trace, &cfg.machine, depth);
            cells.push(format!("{:>6.1}", r.pipelined_s));
            let depth_label = depth.to_string();
            let labels = [
                ("kernel", k.name),
                ("version", v.label()),
                ("depth", depth_label.as_str()),
            ];
            metrics
                .registry()
                .gauge_set("overlap_pipelined_seconds", &labels, r.pipelined_s);
            metrics
                .registry()
                .gauge_set("overlap_sequential_seconds", &labels, r.sequential_s);
            last = Some(r);
        }
        let last = last.expect("depths non-empty");
        println!(
            "    {:7} | {:>9.1}s | {} | {:>5.1}%",
            v.label(),
            last.sequential_s,
            cells.join(" "),
            last.hidden_frac() * 100.0
        );
    }
    println!(
        "\nPrefetch depth 0 is the synchronous executor; the pipeline converges\n\
         toward max(compute, I/O) as the window deepens. The compiler-optimized\n\
         versions leave less I/O to hide — the pipeline and the layout\n\
         optimizations compose rather than compete."
    );
    let _ = metrics.finish();
}
