//! Robustness: functional execution over flaky storage. Every array's
//! store injects seeded transient failures; the runtime's retry policy
//! must absorb all of them and produce results identical to a clean
//! run.

use ooc_opt::core::{
    max_intents_per_interval, run_durable, run_functional, run_functional_on, DirMedium,
    DurabilityConfig, DurableMedium, FunctionalConfig, MemMedium, ParallelConfig, PipelineConfig,
    Start, Walk,
};
use ooc_opt::ir::ArrayId;
use ooc_opt::kernels::{all_kernels, compile, kernel_by_name, Version};
use ooc_opt::runtime::testing::TempDir;
use ooc_opt::runtime::{
    fault_plan, is_crashed, parse_journal, FaultConfig, FaultHandle, FaultStore, MemStore,
    RetryPolicy,
};

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

#[test]
fn functional_run_survives_transient_faults() {
    let k = kernel_by_name("mxm").expect("kernel");
    let cv = compile(&k, Version::COpt);

    let clean = run_functional(&cv.tiled, &k.small_params, &seed);

    // 20% of store calls fail transiently (at most 2 back to back,
    // comfortably under the 4-attempt retry budget).
    let mut handles: Vec<FaultHandle> = Vec::new();
    let faulty = run_functional_on(
        &cv.tiled,
        &k.small_params,
        &seed,
        &FunctionalConfig::default(),
        |a, _, len| {
            let store = FaultStore::new(
                MemStore::new(len),
                FaultConfig::transient(0xdead_beef + a as u64, 200),
            );
            handles.push(store.handle());
            Ok(store)
        },
    )
    .expect("faulty run completes");

    assert_eq!(
        clean, faulty.data,
        "results must be identical despite injected failures"
    );

    let injected: u64 = handles.iter().map(FaultHandle::injected).sum();
    assert!(injected > 0, "the fault layer actually fired");
    // Compute-phase retries are visible in the analytic stats (seeding
    // retries were reset with the rest of the metrics).
    assert!(
        faulty.total_stats().retries > 0,
        "the runtime recovered via its retry path"
    );
}

#[test]
fn faults_replay_deterministically() {
    let k = kernel_by_name("trans").expect("kernel");
    let cv = compile(&k, Version::COpt);

    let run_with_seed = |fault_seed: u64| {
        let mut handles: Vec<FaultHandle> = Vec::new();
        let run = run_functional_on(
            &cv.tiled,
            &k.small_params,
            &seed,
            &FunctionalConfig::default(),
            |a, _, len| {
                let store = FaultStore::new(
                    MemStore::new(len),
                    FaultConfig::transient(fault_seed ^ a as u64, 150),
                );
                handles.push(store.handle());
                Ok(store)
            },
        )
        .expect("run completes");
        let injected: u64 = handles.iter().map(FaultHandle::injected).sum();
        let retries = run.total_stats().retries;
        (run.data, retries, injected)
    };

    let (d1, r1, i1) = run_with_seed(7);
    let (d2, r2, i2) = run_with_seed(7);
    assert_eq!(d1, d2);
    assert_eq!(r1, r2, "same seed, same retry count");
    assert_eq!(i1, i2, "same seed, same injection count");
    assert!(i1 > 0);
}

#[test]
fn without_retries_faults_are_fatal() {
    // The survival above is the retry policy's doing, not luck: the
    // same fault stream with retries disabled kills the run.
    let k = kernel_by_name("trans").expect("kernel");
    let cv = compile(&k, Version::COpt);

    let cfg = FunctionalConfig {
        runtime: ooc_opt::runtime::RuntimeConfig {
            retry: RetryPolicy::none(),
            ..Default::default()
        },
        ..FunctionalConfig::default()
    };
    let (tiled, params) = (&cv.tiled, &k.small_params);
    let result = run_functional_on(tiled, params, &seed, &cfg, |a, _, len| {
        Ok(FaultStore::new(
            MemStore::new(len),
            FaultConfig::transient(0xfeed + a as u64, 200),
        ))
    });
    assert!(result.is_err(), "run without retries survived faults");

    // That stream may already fail a seeding call. A single fault that
    // first fires *after* seeding must come back as an error from the
    // staging loop. A fault-free wrapped probe counts the busiest
    // array's store calls; seeding and the final dump move the same
    // full region, so each takes half of what the compute phase's own
    // (analytic == store-level) calls leave over.
    let quiet = FaultConfig::transient(0, 0);
    let mut handles: Vec<FaultHandle> = Vec::new();
    let probe = run_functional_on(tiled, params, &seed, &cfg, |_, _, len| {
        let store = FaultStore::new(MemStore::new(len), quiet);
        handles.push(store.handle());
        Ok(store)
    })
    .expect("fault-free probe");
    let compute_calls = |a: usize| {
        let stats = &probe.profiles[a].stats;
        stats.read_calls + stats.write_calls
    };
    let target = (0..handles.len())
        .max_by_key(|&a| compute_calls(a))
        .expect("arrays");
    let total = handles[target].calls();
    let compute = compute_calls(target);
    let seeding = (total - compute) / 2;
    let staged = seeding..seeding + compute;
    let once = (0..1000)
        .map(|s| FaultConfig::first_n(s, 1))
        .find(|c| {
            let first = fault_plan(c, total).iter().position(|&fail| fail);
            first.is_some_and(|i| staged.contains(&(i as u64)))
        })
        .expect("a seed whose only fault lands in the staging phase");
    let err = run_functional_on(tiled, params, &seed, &cfg, |a, _, len| {
        let faults = if a == target { once } else { quiet };
        Ok(FaultStore::new(MemStore::new(len), faults))
    })
    .expect_err("a staging fault without retries must fail the run");
    assert!(err.to_string().contains("injected transient"), "{err}");
}

/// How many evenly-spaced crash points the matrix drills per kernel.
const CRASH_POINTS: u64 = 3;

/// The crash matrix body for one walk and storage backend: every
/// kernel's c-opt version, killed at `CRASH_POINTS` evenly-spaced
/// store-call indices of its busiest array (alternating clean crashes
/// and torn writes), then recovered with the same `cfg` — the recovered
/// contents must be bit-equal to an uninterrupted run, and the rollback
/// must stay within one checkpoint interval of journal intents per
/// array, the bound read off the uninterrupted run's own journal.
fn crash_matrix_on<C: Walk>(
    cfg: &C,
    data: fn(&C::Run) -> &Vec<Vec<f64>>,
    make_medium: &mut dyn FnMut(&str, u64) -> Box<dyn DurableMedium>,
) {
    let dur = DurabilityConfig::default();
    for k in all_kernels() {
        let cv = compile(&k, Version::COpt);
        let run = |medium: &mut dyn DurableMedium,
                   faults: &dyn Fn(usize) -> Option<FaultConfig>,
                   start| {
            run_durable(
                &cv.tiled,
                &k.small_params,
                &seed,
                cfg,
                &dur,
                medium,
                faults,
                start,
            )
        };

        // Uninterrupted baseline on a memory medium: the reference
        // contents, each array's store-call count (the crash-index
        // domain), and the per-interval intent bound — all independent
        // of the backend, since the schedule is fixed at compile time.
        let mut base = MemMedium::new();
        let rate0 = |_| Some(FaultConfig::transient(17, 0));
        let baseline = run(&mut base, &rate0, Start::Fresh).expect("baseline durable run");
        let calls: Vec<u64> = baseline
            .fault_handles
            .iter()
            .map(|h| h.as_ref().expect("wrapped").calls())
            .collect();
        let target = (0..calls.len()).max_by_key(|&a| calls[a]).expect("arrays");
        let bound = max_intents_per_interval(&parse_journal(&base.journal_bytes()));

        for i in 1..=CRASH_POINTS {
            let at = calls[target] * i / (CRASH_POINTS + 1);
            let torn = i % 2 == 0;
            let mut medium = make_medium(k.name, i);
            let crash = |a| {
                (a == target).then(|| {
                    if torn {
                        FaultConfig::torn_write(at, 500)
                    } else {
                        FaultConfig::crash_at(at)
                    }
                })
            };
            let err = run(medium.as_mut(), &crash, Start::Fresh)
                .err()
                .expect("injected crash must abort the run");
            assert!(is_crashed(&err), "{}: unexpected error: {err}", k.name);

            let out = run(medium.as_mut(), &|_| None, Start::Resume)
                .unwrap_or_else(|e| panic!("{}: resume after crash at {at}: {e}", k.name));
            assert!(out.report.resumed, "{}: recovery must resume", k.name);
            assert_eq!(
                data(&out.run),
                data(&baseline.run),
                "{}: recovered run diverges from the uninterrupted one \
                 (crash at {at}, torn {torn})",
                k.name
            );
            for (a, n) in &out.report.rolled_back_by_array {
                assert!(
                    *n <= bound.get(a).copied().unwrap_or(0),
                    "{}: rolled back {n} tiles of array {a}, over the \
                     one-checkpoint-interval bound {:?}",
                    k.name,
                    bound.get(a)
                );
            }
        }
    }
}

fn sync_cfg() -> FunctionalConfig {
    FunctionalConfig::with_fraction(16)
}

#[test]
fn crash_matrix_recovers_every_kernel_in_memory() {
    crash_matrix_on(&sync_cfg(), |r| &r.data, &mut |_, _| {
        Box::new(MemMedium::new())
    });
}

/// The crash matrix for the durable step engine with three shard
/// workers, crashed and resumed at three workers (multi-shard nests
/// checkpoint at iteration barriers, so their intervals are wider than
/// the sync walk's tile rows).
#[test]
fn parallel_crash_matrix_recovers_every_kernel() {
    let cfg = ParallelConfig {
        pipeline: PipelineConfig {
            functional: sync_cfg(),
            ..PipelineConfig::default()
        },
        shards: 3,
    };
    crash_matrix_on(
        &cfg,
        |r| &r.run.data,
        &mut |_, _| Box::new(MemMedium::new()),
    );
}

#[test]
fn crash_matrix_recovers_every_kernel_on_files() {
    let mut dirs: Vec<TempDir> = Vec::new();
    crash_matrix_on(&sync_cfg(), |r| &r.data, &mut |kernel, i| {
        let dir = TempDir::new(&format!("crash-{kernel}-{i}")).expect("tmp dir");
        let medium = Box::new(DirMedium::new(dir.path()));
        dirs.push(dir); // keep the directory alive for the resume
        medium
    });
}
