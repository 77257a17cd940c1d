//! Property tests of the provenance ledger's headline invariant: for
//! arbitrary problem sizes, cache fractions, pipeline shapes, shard
//! counts, fault rates, and crash points, the cause buckets sum
//! **exactly** to the analytic I/O totals — per array, calls and
//! elements alike — on every executor.

use ooc_core::exec::FunctionalRun;
use ooc_core::optimizer::{optimize, OptimizeOptions};
use ooc_core::recovery::{run_durable, run_functional_durable, DurabilityConfig, MemMedium, Start};
use ooc_core::tiling::{TiledProgram, TilingStrategy};
use ooc_core::{
    exec_parallel, exec_pipelined, run_functional_on, FunctionalConfig, ParallelConfig,
    PipelineConfig,
};
use ooc_ir::{ArrayId, ArrayRef, Expr, LoopNest, Program, Statement};
use ooc_runtime::{is_crashed, FaultConfig, LedgerRecorder, MemStore, ProvenanceLedger};
use proptest::prelude::*;

/// The paper's two-nest running example (U = V^T + 1; V = W^T + 2):
/// transposed accesses force staging churn at small cache fractions,
/// so every cause bucket gets exercised.
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

fn check(ledger: &ProvenanceLedger, run: &FunctionalRun) {
    let stats: Vec<_> = run.profiles.iter().map(|p| p.stats).collect();
    if let Err(e) = ledger.check_conservation(&stats) {
        panic!("[{}] conservation violated: {e}", ledger.executor);
    }
    for e in &ledger.events {
        assert_eq!(
            e.elems,
            e.region.len() as u64,
            "event/region mismatch: {e:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sync walk: arbitrary size × cache fraction.
    #[test]
    fn sync_conserves(n in 6i64..16, fraction in 2u64..48) {
        let tp = tiled();
        let rec = LedgerRecorder::new();
        let cfg = FunctionalConfig::with_fraction(fraction).with_ledger(rec.clone());
        let run = run_functional_on(&tp, &[n], &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        }).expect("sync run");
        check(&rec.take(), &run);
    }

    /// Pipelined executor: arbitrary prefetch depth, cache capacity,
    /// and worker count — the timing-dependent prefetch/demand split
    /// must still partition the exact totals.
    #[test]
    fn pipelined_conserves(
        n in 6i64..14,
        fraction in 2u64..32,
        depth in 0usize..6,
        capacity in 0u64..400,
        workers in 1usize..4,
    ) {
        let tp = tiled();
        let rec = LedgerRecorder::new();
        let cfg = PipelineConfig {
            functional: FunctionalConfig::with_fraction(fraction).with_ledger(rec.clone()),
            workers,
            prefetch_depth: depth,
            cache_capacity: (capacity >= 32).then_some(capacity),
            write_behind: depth % 2 == 0,
        };
        let run = exec_pipelined(&tp, &[n], &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        }).expect("pipelined run");
        check(&rec.take(), &run.run);
    }

    /// Parallel executor across shard counts.
    #[test]
    fn parallel_conserves(n in 6i64..14, fraction in 2u64..32, shards in 1usize..5) {
        let tp = tiled();
        let rec = LedgerRecorder::new();
        let cfg = ParallelConfig {
            pipeline: PipelineConfig {
                functional: FunctionalConfig::with_fraction(fraction).with_ledger(rec.clone()),
                workers: 2,
                prefetch_depth: 2,
                cache_capacity: Some(128),
                write_behind: true,
            },
            shards,
        };
        let run = exec_parallel(&tp, &[n], &seed, &cfg, |_, _, len| {
            Ok(MemStore::new(len))
        }).expect("parallel run");
        check(&rec.take(), &run.run);
    }

    /// Durable executor under generated transient-fault schedules:
    /// retried calls must never double-count in any bucket.
    #[test]
    fn durable_conserves_under_faults(
        n in 6i64..12,
        fraction in 2u64..24,
        fault_seed in 0u64..1000,
        per_mille in 0u32..200,
    ) {
        let tp = tiled();
        let rec = LedgerRecorder::new();
        let cfg = FunctionalConfig::with_fraction(fraction).with_ledger(rec.clone());
        let mut medium = MemMedium::new();
        match run_functional_durable(
            &tp, &[n], &seed, &cfg, &DurabilityConfig::default(), &mut medium,
            &|_| Some(FaultConfig::transient(fault_seed, per_mille)),
        ) {
            Ok(out) => check(&rec.take(), &out.run),
            Err(e) => {
                // A hot fault rate may exhaust the retry budget; the
                // run aborts cleanly and there is no completed total
                // to conserve against. Any *other* error is a bug.
                prop_assert!(
                    e.to_string().contains("injected transient"),
                    "unexpected durable failure: {e}"
                );
            }
        }
    }

    /// Crash at a generated store-call count, then resume: the resumed
    /// run's ledger conserves against its own analytic totals, with
    /// the rollback surfacing as one replay-write event per tile.
    #[test]
    fn crash_resume_conserves(
        n in 6i64..12,
        crash_calls in 1u64..60,
        target in 0u32..3,
    ) {
        let tp = tiled();
        let dur = DurabilityConfig::default();
        let mut medium = MemMedium::new();
        let crashed = run_functional_durable(
            &tp, &[n], &seed, &FunctionalConfig::with_fraction(16), &dur, &mut medium,
            &|a| (a == target as usize).then(|| FaultConfig::crash_at(crash_calls)),
        );
        match crashed {
            Ok(_) => {
                // The generated crash point landed past the run's
                // total calls on that array: nothing to resume.
            }
            Err(e) => {
                prop_assert!(is_crashed(&e), "unexpected error: {e}");
                let rec = LedgerRecorder::new();
                let cfg = FunctionalConfig::with_fraction(16).with_ledger(rec.clone());
                let out = run_durable(
                    &tp, &[n], &seed, &cfg, &dur, &mut medium, &|_| None,
                    Start::Resume,
                ).expect("resume");
                let ledger = rec.take();
                check(&ledger, &out.run);
                let replays = ledger
                    .events
                    .iter()
                    .filter(|ev| ev.cause == ooc_runtime::IoCause::ReplayWrite)
                    .count() as u64;
                prop_assert_eq!(replays, out.report.rolled_back_tiles);
            }
        }
    }
}
