//! Cross-crate functional ground truth: every compiled version of
//! every kernel, executed through the out-of-core runtime (real tile
//! staging over in-memory files), must equal the reference interpreter
//! bit for bit.

use ooc_opt::core::{
    max_divergence_from_reference, run_functional, run_functional_on, FunctionalConfig,
};
use ooc_opt::kernels::{all_kernels, compile, seed, Version};
use ooc_opt::runtime::MemStore;

#[test]
fn every_kernel_every_version_is_bit_exact() {
    for k in all_kernels() {
        for v in Version::ALL {
            let cv = compile(&k, v);
            let d = max_divergence_from_reference(&cv.tiled, &k.program, &k.small_params, &seed);
            assert_eq!(d, 0.0, "{} {:?} diverges from the reference", k.name, v);
        }
    }
}

#[test]
fn equivalence_holds_across_memory_budgets() {
    // The memory budget only changes tile shapes, never results: every
    // kernel must compute the same contents under a tight budget
    // (1/8th of the data as memory... inverted: data/8) and a loose
    // one as under the default 1/128 rule. Tighter fractions give
    // *larger* budgets here (budget = data / fraction), so 8 and 512
    // bracket the default from both sides.
    for k in all_kernels() {
        let cv = compile(&k, Version::COpt);
        let reference = run_functional(&cv.tiled, &k.small_params, &seed);
        for fraction in [8u64, 512] {
            let run = run_functional_on(
                &cv.tiled,
                &k.small_params,
                &seed,
                &FunctionalConfig::with_fraction(fraction),
                |_, _, len| Ok(MemStore::new(len)),
            )
            .expect("functional run");
            assert_eq!(
                reference, run.data,
                "{}: results change under memory fraction {}",
                k.name, fraction
            );
        }
    }
}

#[test]
fn equivalence_holds_at_a_second_size() {
    // A different (still small) size catches bounds/halo bugs that a
    // single size can mask.
    for k in all_kernels().into_iter().filter(|k| {
        // 4-D functional runs grow fast; keep this second pass to the
        // cheaper kernels.
        k.program.arrays.iter().all(|a| a.rank() <= 3)
    }) {
        let params: Vec<i64> = k.small_params.iter().map(|&n| n + 3).collect();
        for v in [Version::Col, Version::DOpt, Version::COpt] {
            let cv = compile(&k, v);
            let d = max_divergence_from_reference(&cv.tiled, &k.program, &params, &seed);
            assert_eq!(d, 0.0, "{} {:?} diverges at {params:?}", k.name, v);
        }
    }
}
