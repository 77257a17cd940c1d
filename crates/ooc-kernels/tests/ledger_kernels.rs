//! Differential provenance-ledger conservation across the full
//! benchmark suite: for every kernel × version × executor (sync,
//! pipelined, parallel, durable, durable-resume), the cause buckets
//! sum **exactly** to the analytic I/O totals — per array, calls and
//! elements alike.

use ooc_core::exec::FunctionalRun;
use ooc_core::recovery::{run_durable, run_functional_durable, DurabilityConfig, MemMedium, Start};
use ooc_core::{
    exec_parallel, exec_pipelined, run_functional_on, FunctionalConfig, ParallelConfig,
    PipelineConfig,
};
use ooc_ir::ArrayId;
use ooc_kernels::{all_kernels, compile, Kernel, Version};
use ooc_runtime::{is_crashed, FaultConfig, IoCause, LedgerRecorder, MemStore, ProvenanceLedger};

const FRACTION: u64 = 16;

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

fn check(who: &str, ledger: &ProvenanceLedger, run: &FunctionalRun) {
    let stats: Vec<_> = run.profiles.iter().map(|p| p.stats).collect();
    if let Err(e) = ledger.check_conservation(&stats) {
        panic!("{who} [{}]: conservation violated: {e}", ledger.executor);
    }
}

fn fcfg(rec: &LedgerRecorder) -> FunctionalConfig {
    FunctionalConfig::with_fraction(FRACTION).with_ledger(rec.clone())
}

fn for_each_cell(mut f: impl FnMut(&Kernel, Version)) {
    for k in all_kernels() {
        for &v in Version::ALL.iter() {
            f(&k, v);
        }
    }
}

#[test]
fn sync_conserves_for_every_kernel_version() {
    for_each_cell(|k, v| {
        let cv = compile(k, v);
        let rec = LedgerRecorder::new();
        rec.set_run(k.name, v.label());
        let run = run_functional_on(
            &cv.tiled,
            &k.small_params,
            &seed,
            &fcfg(&rec),
            |_, _, len| Ok(MemStore::new(len)),
        )
        .expect("sync run");
        let ledger = rec.take();
        assert_eq!(ledger.executor, "sync");
        check(&format!("{} {}", k.name, v.label()), &ledger, &run);
    });
}

#[test]
fn pipelined_conserves_for_every_kernel_version() {
    for_each_cell(|k, v| {
        let cv = compile(k, v);
        let rec = LedgerRecorder::new();
        let cfg = PipelineConfig {
            functional: fcfg(&rec),
            workers: 2,
            prefetch_depth: 2,
            cache_capacity: Some(128),
            write_behind: true,
        };
        let run = exec_pipelined(&cv.tiled, &k.small_params, &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("pipelined run");
        check(&format!("{} {}", k.name, v.label()), &rec.take(), &run.run);
    });
}

#[test]
fn parallel_conserves_for_every_kernel_version() {
    for_each_cell(|k, v| {
        let cv = compile(k, v);
        let rec = LedgerRecorder::new();
        let cfg = ParallelConfig {
            pipeline: PipelineConfig {
                functional: fcfg(&rec),
                workers: 2,
                prefetch_depth: 2,
                cache_capacity: Some(128),
                write_behind: true,
            },
            shards: 2,
        };
        let run = exec_parallel(&cv.tiled, &k.small_params, &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        })
        .expect("parallel run");
        check(&format!("{} {}", k.name, v.label()), &rec.take(), &run.run);
    });
}

#[test]
fn durable_conserves_for_every_kernel_version() {
    for_each_cell(|k, v| {
        let cv = compile(k, v);
        let rec = LedgerRecorder::new();
        let mut medium = MemMedium::new();
        let out = run_functional_durable(
            &cv.tiled,
            &k.small_params,
            &seed,
            &fcfg(&rec),
            &DurabilityConfig::default(),
            &mut medium,
            &|_| None,
        )
        .expect("durable run");
        let ledger = rec.take();
        assert_eq!(ledger.executor, "durable");
        check(&format!("{} {}", k.name, v.label()), &ledger, &out.run);
        assert!(
            ledger.journal_bytes > 0,
            "{} {}: journal traffic accounted",
            k.name,
            v.label()
        );
    });
}

/// Crash every kernel's col and c-opt versions mid-run, resume, and
/// check the resumed ledger conserves with one replay-write event per
/// rolled-back tile.
#[test]
fn crash_resume_conserves_for_every_kernel() {
    for k in all_kernels() {
        for v in [Version::Col, Version::COpt] {
            let cv = compile(&k, v);
            let dur = DurabilityConfig::default();

            // Learn per-array call counts so the crash lands mid-run.
            let mut base = MemMedium::new();
            let baseline = run_functional_durable(
                &cv.tiled,
                &k.small_params,
                &seed,
                &FunctionalConfig::with_fraction(FRACTION),
                &dur,
                &mut base,
                &|_| Some(FaultConfig::transient(7, 0)),
            )
            .expect("baseline");
            let calls: Vec<u64> = baseline
                .fault_handles
                .iter()
                .map(|h| h.as_ref().expect("wrapped").calls())
                .collect();
            let (target, &tcalls) = calls
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .expect("arrays");
            assert!(tcalls > 1, "{}: no store traffic to crash", k.name);

            let mut medium = MemMedium::new();
            let err = run_functional_durable(
                &cv.tiled,
                &k.small_params,
                &seed,
                &FunctionalConfig::with_fraction(FRACTION),
                &dur,
                &mut medium,
                &|a| (a == target).then(|| FaultConfig::crash_at(tcalls / 2)),
            )
            .expect_err("crash injected");
            assert!(is_crashed(&err), "{}: unexpected error: {err}", k.name);

            let rec = LedgerRecorder::new();
            rec.set_run(k.name, v.label());
            let out = run_durable(
                &cv.tiled,
                &k.small_params,
                &seed,
                &fcfg(&rec),
                &dur,
                &mut medium,
                &|_| None,
                Start::Resume,
            )
            .expect("resume");
            let ledger = rec.take();
            assert_eq!(ledger.executor, "durable-resume");
            check(
                &format!("{} {} resume", k.name, v.label()),
                &ledger,
                &out.run,
            );
            let replays = ledger
                .events
                .iter()
                .filter(|e| e.cause == IoCause::ReplayWrite)
                .count() as u64;
            assert_eq!(
                replays,
                out.report.rolled_back_tiles,
                "{} {}: one replay-write event per rolled-back tile",
                k.name,
                v.label()
            );
        }
    }
}
