//! Differential conservation tests for the I/O provenance ledger:
//! on every executor — sync, pipelined, parallel, durable, and
//! crash/resume — the cause buckets sum **exactly** to the analytic
//! I/O totals, per array, calls and elements alike.

use ooc_core::exec::FunctionalRun;
use ooc_core::optimizer::{optimize, OptimizeOptions};
use ooc_core::recovery::{run_durable, run_functional_durable, DurabilityConfig, MemMedium, Start};
use ooc_core::tiling::{TiledProgram, TilingStrategy};
use ooc_core::{
    exec_parallel, exec_pipelined, run_functional_on, FunctionalConfig, ParallelConfig,
    PipelineConfig,
};
use ooc_ir::{ArrayId, ArrayRef, Expr, LoopNest, Program, Statement};
use ooc_runtime::{is_crashed, FaultConfig, IoCause, LedgerRecorder, MemStore, ProvenanceLedger};

/// The paper's two-nest running example: U = V^T + 1, then V = W^T + 2
/// — transposed accesses force staging churn at small fractions.
fn paper_example() -> Program {
    let mut p = Program::new(&["N"]);
    let u = p.declare_array("U", 2, 0);
    let v = p.declare_array("V", 2, 0);
    let w = p.declare_array("W", 2, 0);
    let s1 = Statement::assign(
        ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
        Expr::Add(
            Box::new(Expr::Ref(ArrayRef::new(
                v,
                &[vec![0, 1], vec![1, 0]],
                vec![0, 0],
            ))),
            Box::new(Expr::Const(1.0)),
        ),
    );
    p.add_nest(LoopNest::rectangular("nest1", 2, 1, 0, vec![s1]));
    let s2 = Statement::assign(
        ArrayRef::new(v, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
        Expr::Add(
            Box::new(Expr::Ref(ArrayRef::new(
                w,
                &[vec![0, 1], vec![1, 0]],
                vec![0, 0],
            ))),
            Box::new(Expr::Const(2.0)),
        ),
    );
    p.add_nest(LoopNest::rectangular("nest2", 2, 1, 0, vec![s2]));
    p
}

fn tiled() -> TiledProgram {
    let p = paper_example();
    let opt = optimize(&p, &OptimizeOptions::default());
    TiledProgram::from_optimized(&opt, TilingStrategy::OutOfCore)
}

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    (a.0 as f64 + 1.0) * 1000.0 + idx.iter().fold(0.0, |acc, &x| acc * 17.0 + x as f64)
}

fn assert_conserves(ledger: &ProvenanceLedger, run: &FunctionalRun) {
    let stats: Vec<_> = run.profiles.iter().map(|p| p.stats).collect();
    if let Err(e) = ledger.check_conservation(&stats) {
        panic!("[{}] conservation violated: {e}", ledger.executor);
    }
    // Every event is internally coherent: elems match its region.
    for e in &ledger.events {
        assert_eq!(
            e.elems,
            e.region.len() as u64,
            "event elems disagree with region: {e:?}"
        );
    }
}

#[test]
fn sync_walk_ledger_conserves() {
    let tp = tiled();
    let rec = LedgerRecorder::new();
    let cfg = FunctionalConfig::with_fraction(16).with_ledger(rec.clone());
    let run = run_functional_on(&tp, &[12], &seed, &cfg, |_, _, len| Ok(MemStore::new(len)))
        .expect("sync run");
    let ledger = rec.take();
    assert_eq!(ledger.executor, "sync");
    assert_conserves(&ledger, &run);
    assert!(
        ledger.cause_elems(IoCause::Compulsory) > 0,
        "cold traffic must appear"
    );
    assert!(
        ledger.cause_elems(IoCause::WriteBack) > 0,
        "write-backs must appear"
    );
    // The sync walk issues no prefetches and replays nothing.
    for cause in [
        IoCause::PrefetchUseful,
        IoCause::PrefetchWasted,
        IoCause::ReplayRead,
        IoCause::ReplayWrite,
    ] {
        assert_eq!(ledger.cause_elems(cause), 0, "{cause} on the sync walk");
    }
}

#[test]
fn pipelined_ledger_conserves_across_depths() {
    let tp = tiled();
    for depth in [0usize, 1, 4] {
        for capacity in [Some(64u64), Some(256), None] {
            let rec = LedgerRecorder::new();
            let cfg = PipelineConfig {
                functional: FunctionalConfig::with_fraction(16).with_ledger(rec.clone()),
                workers: 2,
                prefetch_depth: depth,
                cache_capacity: capacity,
                write_behind: true,
            };
            let run = exec_pipelined(&tp, &[12], &seed, &cfg, |_, _, len| Ok(MemStore::new(len)))
                .expect("pipelined run");
            let ledger = rec.take();
            assert_eq!(ledger.executor, "parallel");
            assert_conserves(&ledger, &run.run);
            if depth > 0 {
                // Prefetch events must account exactly for the
                // pipeline's own delivery counter.
                let useful: u64 = ledger
                    .events
                    .iter()
                    .filter(|e| e.cause == IoCause::PrefetchUseful)
                    .count() as u64;
                assert_eq!(
                    useful, run.pipeline.prefetched_reads,
                    "depth {depth} capacity {capacity:?}"
                );
            }
        }
    }
}

#[test]
fn parallel_ledger_conserves_across_shards() {
    let tp = tiled();
    for shards in [1usize, 2, 4] {
        let rec = LedgerRecorder::new();
        let cfg = ParallelConfig {
            pipeline: PipelineConfig {
                functional: FunctionalConfig::with_fraction(16).with_ledger(rec.clone()),
                workers: 2,
                prefetch_depth: 2,
                cache_capacity: Some(128),
                write_behind: true,
            },
            shards,
        };
        let run = exec_parallel(&tp, &[12], &seed, &cfg, |_, _, len| Ok(MemStore::new(len)))
            .expect("parallel run");
        let ledger = rec.take();
        assert_eq!(ledger.executor, "parallel");
        assert_conserves(&ledger, &run.run);
    }
}

#[test]
fn durable_run_ledger_conserves_with_journal_and_sidecar() {
    let tp = tiled();
    let rec = LedgerRecorder::new();
    let cfg = FunctionalConfig::with_fraction(16).with_ledger(rec.clone());
    let mut medium = MemMedium::new();
    let out = run_functional_durable(
        &tp,
        &[10],
        &seed,
        &cfg,
        &DurabilityConfig::default(),
        &mut medium,
        &|_| None,
    )
    .expect("durable run");
    let ledger = rec.take();
    assert_eq!(ledger.executor, "durable");
    assert_conserves(&ledger, &out.run);
    // Every journaled write-back pre-reads its region: the replay-read
    // channel mirrors the write channel exactly.
    let writes = ledger.cause_elems(IoCause::WriteBack) + ledger.cause_elems(IoCause::WriteRewrite);
    assert_eq!(ledger.cause_elems(IoCause::ReplayRead), writes);
    assert!(ledger.journal_bytes > 0, "journal traffic accounted");
    assert!(
        ledger.cause_elems(IoCause::ChecksumOverhead) > 0,
        "checksum sidecar traffic accounted"
    );
}

#[test]
fn durable_run_with_transient_faults_still_conserves() {
    let tp = tiled();
    let rec = LedgerRecorder::new();
    let cfg = FunctionalConfig::with_fraction(16).with_ledger(rec.clone());
    let mut medium = MemMedium::new();
    // A lively transient-fault rate: retried calls must not
    // double-count in any bucket.
    let out = run_functional_durable(
        &tp,
        &[10],
        &seed,
        &cfg,
        &DurabilityConfig::default(),
        &mut medium,
        &|_| Some(FaultConfig::transient(11, 120)),
    )
    .expect("durable run under faults");
    assert!(
        out.run
            .profiles
            .iter()
            .map(|p| p.stats.retries)
            .sum::<u64>()
            > 0,
        "the fault rate should actually trigger retries"
    );
    let ledger = rec.take();
    assert_conserves(&ledger, &out.run);
}

#[test]
fn crash_then_resume_ledger_conserves_with_replay_writes() {
    let tp = tiled();
    let dur = DurabilityConfig::default();

    // Baseline to learn per-array store-call counts for crash placement.
    let mut base = MemMedium::new();
    let baseline = run_functional_durable(
        &tp,
        &[10],
        &seed,
        &FunctionalConfig::with_fraction(16),
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
    assert!(tcalls > 0);

    let mut medium = MemMedium::new();
    let err = run_functional_durable(
        &tp,
        &[10],
        &seed,
        &FunctionalConfig::with_fraction(16),
        &dur,
        &mut medium,
        &|a| (a == target).then(|| FaultConfig::crash_at(tcalls / 2)),
    )
    .expect_err("crash injected");
    assert!(is_crashed(&err), "unexpected error: {err}");

    // The resumed run gets its own recorder; its ledger conserves
    // against the resumed run's own analytic totals, with the rollback
    // appearing as replay writes.
    let rec = LedgerRecorder::new();
    let cfg = FunctionalConfig::with_fraction(16).with_ledger(rec.clone());
    let out = run_durable(
        &tp,
        &[10],
        &seed,
        &cfg,
        &dur,
        &mut medium,
        &|_| None,
        Start::Resume,
    )
    .expect("resume");
    let ledger = rec.take();
    assert_eq!(ledger.executor, "durable-resume");
    assert_conserves(&ledger, &out.run);
    let rolled: u64 = out.report.rolled_back_tiles;
    if rolled > 0 {
        assert!(
            ledger.cause_elems(IoCause::ReplayWrite) > 0,
            "rollback must surface as replay writes"
        );
    }
    let replay_events = ledger
        .events
        .iter()
        .filter(|e| e.cause == IoCause::ReplayWrite)
        .count() as u64;
    assert_eq!(
        replay_events, rolled,
        "one replay-write event per rolled-back tile"
    );
}
