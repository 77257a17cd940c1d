//! Developer tool: per-version diagnostics for one kernel.
//!
//! For every version this prints the *analytic* simulation at the
//! scaled paper size and the *measured* store traffic of a real
//! functional run at the kernel's functional-test size (through
//! `TracingStore` instrumentation) — putting the model and the
//! observation side by side, with per-array breakdowns (run-length
//! histograms, seek distance).
//!
//! Usage: `inspect <kernel> [procs] [scale-divisor] [--trace out.json]
//!         [--explain] [--profile] [--pipeline] [--shards N]
//!         [--analyze] [--recovery] [--ledger] [--scrub]
//!         [--metrics out.json]`
//!
//! `--trace out.json` records every compiler decision and runtime tile
//! access into a Chrome-trace file (open in <https://ui.perfetto.dev>);
//! `--explain` prints the optimizer's decision records and the span
//! tree to stdout; `--profile` renders each array's access pattern
//! (seek CDF, sequential bursts, file heatmap) and a disk timeline
//! priced by the `pfs-sim` cost model; `--pipeline` additionally runs
//! each version through the step engine (`exec_parallel` at
//! `--shards N`, default 1: the asynchronous tile pipeline), asserts
//! bit-equality with the synchronous run, and prints the
//! cache/prefetch/stall counters (each shard's, then the merged view,
//! when N > 1); `--analyze` runs each
//! version through a traced parallel execution and prints the
//! scaling-forensics report (blame waterfall, Gantt, critical path —
//! mutually exclusive with `--trace`/`--explain`, which own the
//! process's trace session); `--recovery` runs the
//! kernel's c-opt version through the crash-consistent durable
//! executor (crash, torn write, checksum scan, resume) and prints the
//! recovery counters; `--ledger` runs each version on the synchronous
//! executor with the I/O provenance ledger attached, prints the
//! cause-classified byte attribution (compulsory vs capacity-miss vs
//! write traffic, priced by the disk model), and closes with the
//! col → c-opt diff explaining which causes the optimizations
//! eliminated; `--scrub` runs the kernel's c-opt version through the
//! degraded-mode survival sweep (each of 4 parity-striped I/O nodes
//! killed in turn), prints the repair traffic and the online
//! scrubber's verdict on the surviving stripes, and closes with the
//! healthy → degraded provenance diff; `--metrics out.json` writes a
//! metrics snapshot for `bench-compare`.
use ooc_bench::trace::{render_explain, TraceScope};
use ooc_bench::{interval_summary, recovery_register, run_recovery_demo, MetricsScope};
use ooc_core::{
    exec_parallel, run_functional_on, simulate, ExecConfig, FunctionalConfig, IoComparison,
    ParallelConfig, PipelineConfig,
};
use ooc_kernels::{compile, kernel_by_name, seed, Version};
use ooc_runtime::{
    heatmap, sequential_stats, AccessRecord, MemStore, ProfilingStore, SeekCdf, TracingStore,
    ELEM_BYTES,
};
use pfs_sim::{price_sequence, render_timeline, DiskParams};

/// Renders one array's access-pattern profile (the `--profile` view).
fn print_profile(name: &str, accesses: &[AccessRecord], file_elems: u64, disk: &DiskParams) {
    let seq = sequential_stats(accesses);
    let cdf = SeekCdf::from_records(accesses);
    println!(
        "         {name}: {} calls in {} bursts (seq {:.0}%, longest {} elems)",
        seq.calls,
        seq.bursts,
        seq.seq_frac * 100.0,
        seq.longest_burst_elems
    );
    if cdf.seeks() > 0 {
        println!(
            "         {name}: seek p50={} p90={} max={} elems ({} seeks)",
            cdf.quantile(0.5),
            cdf.quantile(0.9),
            cdf.max(),
            cdf.seeks()
        );
    }
    println!(
        "         {name}: heat |{}|",
        heatmap(accesses, file_elems, 48)
    );
    let priced = price_sequence(
        accesses
            .iter()
            .map(|r| (r.offset, r.len * ELEM_BYTES, r.write)),
        disk,
    );
    println!(
        "         {name}: disk |{}| {:.1} ms simulated, {:.0}% call overhead",
        render_timeline(&priced, 48),
        priced.total_s * 1e3,
        priced.overhead_frac() * 100.0
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = TraceScope::from_args(&mut args);
    let metrics = MetricsScope::from_args(&mut args, "inspect");
    let profile = args.iter().any(|a| a == "--profile");
    args.retain(|a| a != "--profile");
    let pipeline = args.iter().any(|a| a == "--pipeline");
    args.retain(|a| a != "--pipeline");
    let analyze = args.iter().any(|a| a == "--analyze");
    args.retain(|a| a != "--analyze");
    let shards: usize = ooc_bench::trace::take_value_flag(&mut args, "--shards")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);
    let recovery = args.iter().any(|a| a == "--recovery");
    args.retain(|a| a != "--recovery");
    let ledger = args.iter().any(|a| a == "--ledger");
    args.retain(|a| a != "--ledger");
    let scrub = args.iter().any(|a| a == "--scrub");
    args.retain(|a| a != "--scrub");
    let name = args.first().cloned().unwrap_or_else(|| "trans".into());
    let procs: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let scale: i64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let k = kernel_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown kernel `{name}`");
        std::process::exit(2);
    });
    let params: Vec<i64> = k.paper_params.iter().map(|&n| (n / scale).max(8)).collect();
    println!("kernel {} params={:?} procs={}", k.name, params, procs);
    let disk = DiskParams::default();
    for v in Version::ALL {
        let cv = compile(&k, v);
        let mut cfg = ExecConfig::new(params.clone(), procs);
        cfg.interleave = cv.interleave.clone();

        // Measured: run the program for real at the functional-test
        // size over profiled+traced in-memory stores.
        let run = run_functional_on(
            &cv.tiled,
            &k.small_params,
            &seed,
            &FunctionalConfig::with_fraction(16),
            |_, _, len| Ok(ProfilingStore::new(TracingStore::new(MemStore::new(len)))),
        )
        .expect("in-memory profiled execution");
        let r = simulate(&cv.tiled, &cfg);

        println!(
            "{:6} calls={:>10} MB={:>10.1} tiles={:>8} time={:>10.2}  layouts={}",
            v.label(),
            r.io_calls,
            r.io_bytes as f64 / 1e6,
            r.tile_steps,
            r.result.total_time,
            cv.tiled
                .layouts
                .iter()
                .enumerate()
                .map(|(a, l)| format!("{}:{:?}", cv.tiled.program.arrays[a].name, l))
                .collect::<Vec<_>>()
                .join(" ")
        );
        if let Some(cmp) = IoComparison::from_run(v.label(), &run) {
            println!("       measured at {:?}: {cmp}", k.small_params);
        }

        let reg = metrics.registry();
        let labels = [("kernel", k.name), ("version", v.label())];
        reg.counter_add("io_calls", &labels, r.io_calls);
        reg.counter_add("io_bytes", &labels, r.io_bytes);
        reg.counter_add("tile_steps", &labels, r.tile_steps);

        // Per-array breakdown, sorted by array name so the output (and
        // any diff of it) is stable regardless of declaration order.
        let mut profiles: Vec<_> = run.profiles.iter().collect();
        profiles.sort_by(|a, b| a.name.cmp(&b.name));
        for p in &profiles {
            let Some(m) = &p.measured else { continue };
            if m.total_calls() == 0 && m.failed_calls == 0 {
                continue;
            }
            println!(
                "         {}: {} calls / {} elems, {} seeks ({} elems apart), runs {}",
                p.name,
                m.total_calls(),
                m.total_elems(),
                m.seeks,
                m.seek_elems,
                m.run_hist_compact()
            );
            let array_labels = [
                ("kernel", k.name),
                ("version", v.label()),
                ("array", p.name.as_str()),
            ];
            reg.counter_add("measured_calls", &array_labels, m.total_calls());
            reg.counter_add("measured_seeks", &array_labels, m.seeks);
            reg.counter_add("seek_elems", &array_labels, m.seek_elems);
            reg.record_hist("run_len", &array_labels, &m.run_histogram());
            if profile {
                if let Some(accesses) = &p.accesses {
                    // Heatmap over the array's actual file extent at
                    // the measured (small) size.
                    let file_elems = cv
                        .tiled
                        .program
                        .arrays
                        .iter()
                        .find(|d| d.name == p.name)
                        .map_or(0, |d| d.len(&k.small_params).unsigned_abs());
                    print_profile(&p.name, accesses, file_elems, &disk);
                }
            }
        }
        if pipeline {
            let pcfg = ParallelConfig {
                pipeline: PipelineConfig {
                    functional: FunctionalConfig::with_fraction(16),
                    ..PipelineConfig::default()
                },
                shards,
            };
            let prun = exec_parallel(&cv.tiled, &k.small_params, &seed, &pcfg, |_, _, len| {
                Ok(ooc_runtime::MemStore::new(len))
            })
            .expect("pipelined run");
            assert_eq!(
                prun.run.data,
                run.data,
                "{} {}: pipeline diverged from the synchronous executor",
                k.name,
                v.label()
            );
            println!(
                "       pipeline at {:?} (workers={} depth={} shards={shards}) — bit-equal to sync:",
                k.small_params, pcfg.pipeline.workers, pcfg.pipeline.prefetch_depth
            );
            if shards > 1 {
                for (si, stats) in prun.shard_stats.iter().enumerate() {
                    println!("       shard {si}:");
                    print!("{}", stats.render());
                }
                println!("       merged across {shards} shards:");
            }
            print!("{}", prun.pipeline.render());
            prun.pipeline
                .register_into(metrics.registry(), k.name, v.label());
        }
        if analyze {
            if trace.active() {
                eprintln!(
                    "--analyze skipped for {}: --trace/--explain owns the process trace session",
                    v.label()
                );
            } else {
                let cell = ooc_bench::run_analyze_cell(&k, v, scale, shards.max(2), 8);
                println!(
                    "       forensics (workers={}, nodes={}, {:.1} ms measured):",
                    cell.workers,
                    cell.nodes,
                    cell.seconds * 1e3,
                );
                print!("{}", cell.report.render(72));
                ooc_bench::analyze_register(metrics.registry(), std::slice::from_ref(&cell));
            }
        }
        if ledger {
            let (led, _) = ooc_bench::run_ledger_cell(&k, v);
            println!(
                "       provenance ledger (sync executor at {:?}):",
                k.small_params
            );
            print!("{}", ooc_analyze::render_ledger(&led, &disk));
            ooc_bench::ledger_register(metrics.registry(), &led, &disk);
        }
    }
    if ledger {
        // Close with the version comparison: which causes did the
        // combined optimizations eliminate, and why?
        let (from, to) = ooc_bench::LEDGER_DIFF_PAIR;
        let diff = ooc_bench::run_ledger_diff(&k, from, to, &disk);
        println!(
            "ledger diff ({} \u{2192} {} at {:?}):",
            from.label(),
            to.label(),
            k.small_params
        );
        print!("{}", diff.render());
    }
    if recovery {
        // The durable executor only runs the optimized version — the
        // sweep's contract (bit-equal recovery, bounded replay) is
        // asserted inside run_recovery_demo.
        println!(
            "recovery (c-opt at {:?}, durable executor):",
            k.small_params
        );
        let demo = run_recovery_demo(k.name, 2);
        for cell in &demo.cells {
            println!(
                "       interval {} crash@{} ({}{}): rolled back {} tiles, \
                 skipped {}, executed {}, replay {:.1}%",
                cell.interval,
                cell.crash_at,
                if cell.torn { "torn" } else { "clean" },
                if cell.detected_corrupt {
                    ", crc flagged"
                } else {
                    ""
                },
                cell.report.rolled_back_tiles,
                cell.report.skipped_steps,
                cell.report.executed_steps,
                cell.replay_ratio() * 100.0
            );
        }
        for (interval, ratio, bounded) in interval_summary(&demo) {
            println!(
                "       every {interval} row(s): mean replay {:.1}% of a rerun, bound {}",
                ratio * 100.0,
                if bounded { "held" } else { "VIOLATED" }
            );
        }
        if let Some(cell) = demo.cells.first() {
            print!("{}", cell.report.render());
        }
        recovery_register(metrics.registry(), &demo);
    }
    if scrub {
        // Bit-equality, conservation, and the replay bound are
        // asserted inside run_degraded_demo; this section reports what
        // surviving each loss cost.
        println!(
            "degraded mode (c-opt at {:?}, {} parity-striped I/O nodes):",
            k.small_params,
            ooc_bench::DEGRADED_NODES
        );
        let demo = ooc_bench::run_degraded_demo(k.name, None);
        for cell in &demo.cells {
            let rec = cell.repair.get(ooc_runtime::IoCause::DegradedReconstruct);
            let par = cell.repair.get(ooc_runtime::IoCause::ParityWrite);
            println!(
                "       kill node {} @ first arrival: {} restart(s), \
                 reconstructed {} elems in {} calls, parity RMW {} elems",
                cell.killed,
                cell.restarts(),
                rec.total_elems(),
                rec.total_calls(),
                par.total_elems(),
            );
            println!(
                "       scrub: {} groups — {} clean, {} chunks skipped \
                 (node {} down), {} unrecoverable",
                cell.scrub.groups,
                cell.scrub.clean,
                cell.scrub.skipped,
                cell.killed,
                cell.scrub.unrecoverable
            );
        }
        println!(
            "       sampled mid-run/drain kills verified bit-equal: {:?}",
            demo.sampled_kills
        );
        if let Some(cell) = demo.cells.first() {
            println!(
                "degraded ledger diff (healthy \u{2192} node {} dead at {:?}):",
                cell.killed, k.small_params
            );
            let diff = ooc_analyze::diff_ledgers(&demo.healthy_ledger, &cell.ledger, &disk);
            print!("{}", diff.render());
        }
        ooc_bench::degraded_register(metrics.registry(), &demo);
    }
    let _ = metrics.finish();
    let explain = trace.explain;
    if let Some(data) = trace.finish() {
        if explain {
            print!("{}", render_explain(&data));
        }
    }
}
