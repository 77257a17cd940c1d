//! Differential tests of the asynchronous tile pipeline: every
//! kernel's six versions run through `exec_pipelined` on *both* store
//! backends (in-memory and real files) and must
//!
//! 1. compute contents bit-equal to the synchronous executor,
//! 2. keep the analytic run accounting equal to the measured
//!    store-level call count, array for array (prefetch workers and
//!    the write-behind thread included), and
//! 3. issue identical analytic I/O totals on either backend and on
//!    repeated runs — scheduling is driven by step counts, never by
//!    thread timing.
//!
//! A final test threads fault injection through the shared stores:
//! the pipeline's worker threads must ride out transient store
//! failures through the same retry policy as the main thread.

use ooc_opt::core::{
    exec_pipelined, run_functional_on, FunctionalConfig, ParallelRun, PipelineConfig,
};
use ooc_opt::ir::ArrayId;
use ooc_opt::kernels::{all_kernels, compile, kernel_by_name, CompiledVersion, Version};
use ooc_opt::runtime::testing::{Backend, TempDir};
use ooc_opt::runtime::{FaultConfig, FaultHandle, FaultStore, IoStats, MemStore, TracingStore};

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        functional: FunctionalConfig::with_fraction(16),
        ..PipelineConfig::default()
    }
}

/// Runs a compiled version through the pipeline over traced stores of
/// the given backend.
fn run_pipelined(
    cv: &CompiledVersion,
    params: &[i64],
    backend: Backend,
    dir: &TempDir,
) -> ParallelRun {
    exec_pipelined(
        &cv.tiled,
        params,
        &seed,
        &pipeline_config(),
        |_, name, len| backend.open(dir.path(), name, len).map(TracingStore::new),
    )
    .expect("pipelined run")
}

fn analytic_totals(run: &ParallelRun) -> IoStats {
    run.run.total_stats()
}

/// The full sweep: every kernel, every version, both backends, against
/// the synchronous executor's reference contents.
#[test]
fn pipelined_differential_sweep() {
    for k in all_kernels() {
        let params = &k.small_params;
        for v in Version::ALL {
            let cv = compile(&k, v);
            let reference = run_functional_on(
                &cv.tiled,
                params,
                &seed,
                &FunctionalConfig::with_fraction(16),
                |_, _, len| Ok(MemStore::new(len)),
            )
            .expect("sync reference");

            let mem_dir = TempDir::new("ooc-pipe-mem").expect("tmp");
            let mem = run_pipelined(&cv, params, Backend::Mem, &mem_dir);
            let file_dir = TempDir::new("ooc-pipe-file").expect("tmp");
            let file = run_pipelined(&cv, params, Backend::File, &file_dir);

            // 1. Bit-equality with the synchronous executor, both
            //    backends.
            assert_eq!(
                mem.run.data,
                reference.data,
                "{} {}: pipelined mem diverged from sync",
                k.name,
                v.label()
            );
            assert_eq!(
                file.run.data,
                reference.data,
                "{} {}: pipelined file diverged from sync",
                k.name,
                v.label()
            );

            // 2. Model exactness across threads: analytic accounting
            //    (main staging + prefetch deliveries + write-behind)
            //    equals the traced store-level calls, array for array.
            for run in [&mem, &file] {
                for p in &run.run.profiles {
                    let m = p.measured.as_ref().expect("traced");
                    assert_eq!(
                        p.stats.total_calls(),
                        m.total_calls(),
                        "{} {} array {}: analytic vs measured calls",
                        k.name,
                        v.label(),
                        p.name
                    );
                    assert_eq!(
                        p.stats.total_elems(),
                        m.total_elems(),
                        "{} {} array {}: analytic vs measured elems",
                        k.name,
                        v.label(),
                        p.name
                    );
                }
            }

            // 3. Interleaving independence: identical analytic totals
            //    on either backend.
            let (mt, ft) = (analytic_totals(&mem), analytic_totals(&file));
            assert_eq!(
                (mt.read_calls, mt.write_calls, mt.read_elems, mt.write_elems),
                (ft.read_calls, ft.write_calls, ft.read_elems, ft.write_elems),
                "{} {}: mem vs file analytic I/O totals",
                k.name,
                v.label()
            );
        }
    }
}

/// The pipeline's whole point: overlapped staging must actually engage
/// (prefetched reads, write-behind traffic) on a representative
/// kernel, not silently degrade to the synchronous path.
#[test]
fn pipeline_machinery_engages() {
    let k = kernel_by_name("mxm").expect("kernel");
    let cv = compile(&k, Version::COpt);
    let dir = TempDir::new("ooc-pipe-engage").expect("tmp");
    let run = run_pipelined(&cv, &k.small_params, Backend::Mem, &dir);
    let p = &run.pipeline;
    assert!(p.prefetch_issued > 0, "no prefetches issued: {p:?}");
    assert!(p.prefetched_reads > 0, "no reads served async: {p:?}");
    assert!(p.writebehind_tiles > 0, "write-behind never used: {p:?}");
    assert!(
        p.cache.hits + p.cache.misses > 0,
        "cache never consulted: {p:?}"
    );
}

/// Transient store faults under the pipeline: worker threads hit the
/// same injected failures as the main thread would, the per-array
/// retry policy absorbs them, and the results stay bit-equal.
#[test]
fn pipelined_run_survives_transient_faults() {
    let k = kernel_by_name("mxm").expect("kernel");
    let cv = compile(&k, Version::COpt);
    let reference = run_functional_on(
        &cv.tiled,
        &k.small_params,
        &seed,
        &FunctionalConfig::with_fraction(16),
        |_, _, len| Ok(MemStore::new(len)),
    )
    .expect("sync reference");

    let mut handles: Vec<FaultHandle> = Vec::new();
    let run = exec_pipelined(
        &cv.tiled,
        &k.small_params,
        &seed,
        &pipeline_config(),
        |a, _, len| {
            // 15% transient failure rate, bounded bursts: inside the
            // 4-attempt retry budget of the default runtime config.
            let store = FaultStore::new(
                MemStore::new(len),
                FaultConfig::transient(0xfeed_f00d + a as u64, 150),
            );
            handles.push(store.handle());
            Ok(store)
        },
    )
    .expect("pipelined faulty run completes");

    assert_eq!(
        run.run.data, reference.data,
        "faults must never change results"
    );
    let injected: u64 = handles.iter().map(FaultHandle::injected).sum();
    assert!(injected > 0, "the fault layer actually fired");
    assert!(
        run.run.total_stats().retries > 0,
        "recovery went through the retry path"
    );
}
