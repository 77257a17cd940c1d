//! The benchmark kernel registry.
//!
//! The paper evaluates ten codes (Table 1). The original Fortran
//! sources are not redistributable (Spec92, Eispack, Hompack, ...),
//! so each kernel here is a reconstruction in the affine IR that
//! matches Table 1's array inventory (count and dimensionality), the
//! outer timing-loop iteration counts, and — most importantly — the
//! access-pattern structure that drives each code's behaviour across
//! the six program versions in Tables 2 and 3 (which versions can and
//! cannot optimize it, and why). See `DESIGN.md` for the
//! per-kernel rationale.

use ooc_ir::{ArrayId, Program};

/// One benchmark kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Short name as in the paper's tables (`mat`, `mxm`, ...).
    pub name: &'static str,
    /// Source suite per Table 1 (`Spec92`, `BLAS`, ...).
    pub source: &'static str,
    /// Outer timing-loop iterations (Table 1 `iter` column).
    pub iterations: u32,
    /// What the kernel computes and why it stresses the optimizer.
    pub description: &'static str,
    /// The normalized affine program (iteration counts already applied
    /// to every nest).
    pub program: Program,
    /// Paper-scale parameter values (array extents).
    pub paper_params: Vec<i64>,
    /// Small parameter values for functional (bit-exact) testing.
    pub small_params: Vec<i64>,
}

impl Kernel {
    /// Total out-of-core data in bytes at paper scale.
    #[must_use]
    pub fn paper_bytes(&self) -> u64 {
        u64::try_from(self.program.total_elements(&self.paper_params)).expect("size") * 8
    }
}

/// All ten kernels, in the paper's Table 1 order.
#[must_use]
pub fn all_kernels() -> Vec<Kernel> {
    vec![
        crate::kernels::mat::build(),
        crate::kernels::mxm::build(),
        crate::kernels::adi::build(),
        crate::kernels::vpenta::build(),
        crate::kernels::btrix::build(),
        crate::kernels::emit::build(),
        crate::kernels::syr2k::build(),
        crate::kernels::htribk::build(),
        crate::kernels::gfunp::build(),
        crate::kernels::trans::build(),
    ]
}

/// Looks a kernel up by name.
#[must_use]
pub fn kernel_by_name(name: &str) -> Option<Kernel> {
    all_kernels().into_iter().find(|k| k.name == name)
}

/// The initial value of element `idx` (1-based subscripts) of array
/// `a` that functional runs of the kernels start from: deterministic,
/// position-sensitive and not symmetric, so a transposition or layout
/// bug cannot cancel out.
#[must_use]
pub fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table1() {
        let ks = all_kernels();
        assert_eq!(ks.len(), 10);
        let names: Vec<&str> = ks.iter().map(|k| k.name).collect();
        assert_eq!(
            names,
            vec![
                "mat", "mxm", "adi", "vpenta", "btrix", "emit", "syr2k", "htribk", "gfunp", "trans"
            ]
        );
        // Table 1 iteration counts.
        let iters: Vec<u32> = ks.iter().map(|k| k.iterations).collect();
        assert_eq!(iters, vec![2, 3, 5, 3, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn array_inventories_match_table1() {
        // (name, #1-D, #2-D, #3-D, #4-D) straight from Table 1.
        let expected = [
            ("mat", 0, 3, 0, 0),
            ("mxm", 0, 3, 0, 0),
            ("adi", 3, 0, 3, 0),
            ("vpenta", 0, 7, 2, 0),
            ("btrix", 25, 0, 0, 4),
            ("emit", 10, 0, 3, 0),
            ("syr2k", 0, 3, 0, 0),
            ("htribk", 0, 5, 0, 0),
            ("gfunp", 1, 5, 0, 0),
            ("trans", 0, 2, 0, 0),
        ];
        for (name, d1, d2, d3, d4) in expected {
            let k = kernel_by_name(name).expect("kernel exists");
            let count = |rank: usize| k.program.arrays.iter().filter(|a| a.rank() == rank).count();
            assert_eq!(count(1), d1, "{name}: 1-D arrays");
            assert_eq!(count(2), d2, "{name}: 2-D arrays");
            assert_eq!(count(3), d3, "{name}: 3-D arrays");
            assert_eq!(count(4), d4, "{name}: 4-D arrays");
        }
    }

    #[test]
    fn every_nest_carries_the_timing_iterations() {
        for k in all_kernels() {
            for nest in &k.program.nests {
                assert_eq!(
                    nest.iterations, k.iterations,
                    "{}: nest {} iteration count",
                    k.name, nest.name
                );
            }
        }
    }

    #[test]
    fn small_params_execute_quickly_and_in_bounds() {
        // The reference interpreter bounds-checks every subscript: this
        // catches kernels that index outside their declared arrays.
        for k in all_kernels() {
            let mut mem = ooc_ir::Memory::for_program(&k.program, &k.small_params);
            ooc_ir::execute_program(&k.program, &mut mem);
        }
    }

    #[test]
    fn paper_scale_is_out_of_core() {
        // Every kernel's data must far exceed the 1/128 memory budget.
        for k in all_kernels() {
            assert!(
                k.paper_bytes() > 100 << 20,
                "{}: only {} bytes at paper scale",
                k.name,
                k.paper_bytes()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name("mat").is_some());
        assert!(kernel_by_name("nope").is_none());
    }
}
