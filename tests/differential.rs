//! Differential tests of the instrumented store layer: every kernel's
//! six versions run on *both* store backends (in-memory and real
//! files) through [`TracingStore`] instrumentation. The tests assert
//!
//! 1. functional equivalence — each version computes identical
//!    contents on either backend, and every (baseline, optimized)
//!    version pair agrees element for element;
//! 2. measured improvement — the combined optimizer's store-level I/O
//!    (actual `read_run`/`write_run` calls and seek distance observed
//!    by the tracing layer, not the analytic model) beats the naive
//!    column-major baseline; and
//! 3. model exactness — analytic call accounting equals the measured
//!    call count, store for store.
//!
//! [`TracingStore`]: ooc_opt::runtime::TracingStore

use ooc_opt::core::{run_functional_on, FunctionalConfig, FunctionalRun, IoComparison};
use ooc_opt::ir::ArrayId;
use ooc_opt::kernels::{
    all_kernels, compile, differential_pairs, kernel_by_name, CompiledVersion, Version,
};
use ooc_opt::runtime::testing::{Backend, TempDir};
use ooc_opt::runtime::{MeasuredIo, TracingStore};
use std::collections::BTreeMap;

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

/// Runs a compiled version over traced stores of the given backend.
fn run_traced(
    cv: &CompiledVersion,
    params: &[i64],
    backend: Backend,
    dir: &TempDir,
) -> FunctionalRun {
    // A small memory fraction keeps tiles meaningfully smaller than the
    // arrays at test sizes, so versions actually differ in staging.
    run_functional_on(
        &cv.tiled,
        params,
        &seed,
        &FunctionalConfig::with_fraction(16),
        |_, name, len| backend.open(dir.path(), name, len).map(TracingStore::new),
    )
    .expect("functional run")
}

/// One full sweep: every kernel, every version, both backends. The
/// per-(kernel, version) compile is the expensive step, so the sweep
/// compiles once and checks equivalence, improvement, and model
/// exactness from the same runs.
#[test]
fn differential_sweep() {
    let mut col_total = MeasuredIo::default();
    let mut copt_total = MeasuredIo::default();
    let mut strictly_improved = Vec::new();

    for k in all_kernels() {
        let params = &k.small_params;
        let mut runs: BTreeMap<&'static str, FunctionalRun> = BTreeMap::new();
        for v in Version::ALL {
            let cv = compile(&k, v);

            let mem_dir = TempDir::new("ooc-diff-mem").expect("tmp");
            let mem = run_traced(&cv, params, Backend::Mem, &mem_dir);
            let file_dir = TempDir::new("ooc-diff-file").expect("tmp");
            let file = run_traced(&cv, params, Backend::File, &file_dir);

            // Backend equivalence: identical contents and identical
            // store-level traffic on memory vs real files.
            assert_eq!(
                mem.data,
                file.data,
                "{} {}: mem and file contents differ",
                k.name,
                v.label()
            );
            assert_eq!(
                mem.total_measured(),
                file.total_measured(),
                "{} {}: mem and file I/O traces differ",
                k.name,
                v.label()
            );

            // Model exactness: the analytic run accounting predicts the
            // measured call count, array for array.
            for p in &mem.profiles {
                let m = p.measured.as_ref().expect("traced");
                assert_eq!(
                    p.stats.total_calls(),
                    m.total_calls(),
                    "{} {} array {}: analytic vs measured calls",
                    k.name,
                    v.label(),
                    p.name
                );
                assert_eq!(p.stats.total_elems(), m.total_elems());
            }

            runs.insert(v.label(), mem);
        }

        // Pairwise equivalence: every optimized version against every
        // naive baseline.
        for (baseline, optimized) in differential_pairs() {
            assert_eq!(
                runs[baseline.label()].data,
                runs[optimized.label()].data,
                "{}: {} and {} compute different results",
                k.name,
                baseline.label(),
                optimized.label()
            );
        }

        // Measured improvement: the combined optimizer never issues
        // more store calls than the column-major baseline...
        let col = runs["col"].total_measured().expect("traced");
        let copt = runs["c-opt"].total_measured().expect("traced");
        assert!(
            copt.total_calls() <= col.total_calls(),
            "{}: c-opt measured {} calls vs col {}",
            k.name,
            copt.total_calls(),
            col.total_calls()
        );
        if copt.total_calls() < col.total_calls() {
            strictly_improved.push(k.name);
        }
        col_total.merge(&col);
        copt_total.merge(&copt);
    }

    // ...strictly fewer on nearly every kernel (`emit` is already
    // column-friendly and ties)...
    assert!(
        strictly_improved.len() >= 8,
        "c-opt strictly improved only {strictly_improved:?}"
    );
    // ...and across the whole suite cuts both measured calls and
    // measured seek distance.
    assert!(
        copt_total.total_calls() < col_total.total_calls(),
        "suite calls: c-opt {} vs col {}",
        copt_total.total_calls(),
        col_total.total_calls()
    );
    assert!(
        copt_total.seek_elems < col_total.seek_elems,
        "suite seek distance: c-opt {} vs col {}",
        copt_total.seek_elems,
        col_total.seek_elems
    );
}

/// The acceptance check in isolation: on a *real* file store, the
/// combined optimizer's measured I/O calls and seek distance strictly
/// beat the naive baseline, with identical results.
#[test]
fn optimized_beats_naive_on_real_files() {
    let k = kernel_by_name("trans").expect("kernel");
    let col = compile(&k, Version::Col);
    let copt = compile(&k, Version::COpt);

    let col_dir = TempDir::new("ooc-naive").expect("tmp");
    let col_run = run_traced(&col, &k.small_params, Backend::File, &col_dir);
    let copt_dir = TempDir::new("ooc-opt").expect("tmp");
    let copt_run = run_traced(&copt, &k.small_params, Backend::File, &copt_dir);

    assert_eq!(col_run.data, copt_run.data, "results must agree");

    let col_io = col_run.total_measured().expect("traced");
    let copt_io = copt_run.total_measured().expect("traced");
    assert!(
        copt_io.total_calls() < col_io.total_calls(),
        "measured calls on files: c-opt {} vs col {}",
        copt_io.total_calls(),
        col_io.total_calls()
    );
    assert!(
        copt_io.seeks < col_io.seeks,
        "measured seeks on files: c-opt {} vs col {}",
        copt_io.seeks,
        col_io.seeks
    );
    assert!(
        copt_io.seek_elems < col_io.seek_elems,
        "measured seek distance on files: c-opt {} vs col {}",
        copt_io.seek_elems,
        col_io.seek_elems
    );
    // Fewer calls moving the same data means longer mean runs.
    assert!(copt_io.mean_run_len() > col_io.mean_run_len());

    // The comparison renders for humans.
    let cmp = IoComparison::from_run("c-opt", &copt_run).expect("traced");
    let text = cmp.to_string();
    assert!(text.contains("c-opt"), "{text}");
    assert!(text.contains("measured"), "{text}");
}
