//! The six program versions of the paper's evaluation (§4).
//!
//! | version | layouts                | loops        | tiling            |
//! |---------|------------------------|--------------|-------------------|
//! | `col`   | all column-major       | original     | shape-optimized   |
//! | `row`   | all row-major          | original     | shape-optimized   |
//! | `l-opt` | all column-major       | transformed  | shape-optimized   |
//! | `d-opt` | per-array optimized    | original     | shape-optimized   |
//! | `c-opt` | combined (the paper)   | combined     | out-of-core §3.3  |
//! | `h-opt` | c-opt + interleaving   | combined     | out-of-core §3.3  |
//!
//! Every version receives the same competent tile staging (the
//! paper's baselines are themselves outputs of capable compilers and
//! hand tiling with PASSION): tile spans minimize modeled I/O time
//! within the memory budget. What the versions vary is exactly what
//! the paper varies — file layouts and loop order — plus `c-opt`'s
//! §3.3 rule of never tiling the (stride-1) innermost loop, and
//! `h-opt`'s chunking/interleaving.

use crate::kernel::Kernel;
use ooc_core::{
    optimize, optimize_data_only, optimize_loop_only, OptimizeOptions, OptimizedProgram,
    TiledProgram, TilingStrategy,
};
use ooc_ir::{ArrayId, Program};
use ooc_linalg::Matrix;
use ooc_runtime::FileLayout;
use std::collections::BTreeMap;

/// The six versions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Fixed column-major layouts, original loops.
    Col,
    /// Fixed row-major layouts, original loops.
    Row,
    /// Loop-optimized (layouts stay column-major).
    LOpt,
    /// Layout-optimized (loops stay put).
    DOpt,
    /// The paper's combined algorithm.
    COpt,
    /// Hand-optimized: c-opt plus chunking/interleaving.
    HOpt,
}

impl Version {
    /// All six, in the paper's table order.
    pub const ALL: [Version; 6] = [
        Version::Col,
        Version::Row,
        Version::LOpt,
        Version::DOpt,
        Version::COpt,
        Version::HOpt,
    ];

    /// Table column label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Version::Col => "col",
            Version::Row => "row",
            Version::LOpt => "l-opt",
            Version::DOpt => "d-opt",
            Version::COpt => "c-opt",
            Version::HOpt => "h-opt",
        }
    }
}

/// A compiled kernel version ready for execution.
#[derive(Debug, Clone)]
pub struct CompiledVersion {
    /// Which version this is.
    pub version: Version,
    /// The tiled program.
    pub tiled: TiledProgram,
    /// Interleave groups (h-opt only; empty otherwise).
    pub interleave: Vec<Vec<ArrayId>>,
    /// Optimizer decision log.
    pub log: Vec<String>,
}

fn fixed_layout_program(prog: &Program, row_major: bool) -> OptimizedProgram {
    let layouts: Vec<FileLayout> = prog
        .arrays
        .iter()
        .map(|a| {
            if row_major {
                FileLayout::row_major(a.rank())
            } else {
                FileLayout::col_major(a.rank())
            }
        })
        .collect();
    OptimizedProgram {
        program: prog.clone(),
        layouts,
        transforms: prog
            .nests
            .iter()
            .map(|n| Matrix::identity(n.depth))
            .collect(),
        log: Vec::new(),
    }
}

/// Compiles one version of a kernel.
#[must_use]
pub fn compile(kernel: &Kernel, version: Version) -> CompiledVersion {
    let _span = ooc_trace::span_with(
        "compiler",
        &format!("compile:{}", kernel.name),
        vec![("version", format!("{version:?}").into())],
    );
    if ooc_trace::enabled() {
        ooc_trace::explain(
            ooc_trace::Explain::new(
                "compile",
                kernel.name,
                format!("compiling version {version:?}"),
            )
            .detail("paper-params", format!("{:?}", kernel.paper_params)),
        );
    }
    // Model costs at the kernel's paper scale: the compiler's choices
    // (transformations, layout acceptance) target the real deployment.
    let opts = OptimizeOptions {
        cost_params: kernel.paper_params.clone(),
    };
    let prog = &kernel.program;
    let (opt, strategy) = match version {
        Version::Col => (fixed_layout_program(prog, false), TilingStrategy::Optimized),
        Version::Row => (fixed_layout_program(prog, true), TilingStrategy::Optimized),
        Version::LOpt => (
            optimize_loop_only(prog, &opts, None),
            TilingStrategy::Optimized,
        ),
        Version::DOpt => (optimize_data_only(prog, &opts), TilingStrategy::Optimized),
        Version::COpt | Version::HOpt => (optimize(prog, &opts), TilingStrategy::OutOfCore),
    };
    let tiled = TiledProgram::from_optimized(&opt, strategy);
    let interleave = if version == Version::HOpt {
        interleave_groups(&tiled)
    } else {
        Vec::new()
    };
    CompiledVersion {
        version,
        tiled,
        interleave,
        log: opt.log,
    }
}

/// Chunking/interleaving heuristic for `h-opt`: arrays are stored
/// interleaved in one file only when they share their shape, their
/// chosen layout, AND their whole-program access pattern (they appear
/// in exactly the same nests, through the same access matrices) — so
/// every staged group tile is fully used and one batch of calls
/// fetches all members.
#[must_use]
fn interleave_groups(tiled: &TiledProgram) -> Vec<Vec<ArrayId>> {
    // Signature: dims + layout + the multiset of (nest, access matrix)
    // pairs the array is touched through.
    let mut by_sig: BTreeMap<String, Vec<ArrayId>> = BTreeMap::new();
    for (a, decl) in tiled.program.arrays.iter().enumerate() {
        let id = ArrayId(a);
        let mut touches: Vec<String> = Vec::new();
        for (ni, tnest) in tiled.nests.iter().enumerate() {
            for r in tnest.nest.all_refs() {
                if r.array == id {
                    // Offsets are part of the signature: members must
                    // stage the *same* region every tile step, or the
                    // grouped fetch hulls (and inflates) their regions.
                    touches.push(format!("{ni}:{:?}:{:?}", r.access, r.offset));
                }
            }
        }
        if touches.is_empty() {
            continue;
        }
        touches.sort();
        let sig = format!("{:?}|{:?}|{touches:?}", decl.dims, tiled.layouts[a]);
        by_sig.entry(sig).or_default().push(id);
    }
    by_sig
        .into_values()
        .filter(|members| members.len() >= 2)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::all_kernels;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = Version::ALL.iter().map(Version::label).collect();
        assert_eq!(
            labels,
            vec!["col", "row", "l-opt", "d-opt", "c-opt", "h-opt"]
        );
    }

    #[test]
    fn col_and_row_fix_all_layouts() {
        let k = crate::kernels::trans::build();
        let col = compile(&k, Version::Col);
        assert!(col
            .tiled
            .layouts
            .iter()
            .all(|l| *l == FileLayout::col_major(2)));
        let row = compile(&k, Version::Row);
        assert!(row
            .tiled
            .layouts
            .iter()
            .all(|l| *l == FileLayout::row_major(2)));
    }

    #[test]
    fn every_version_of_every_kernel_compiles() {
        for k in all_kernels() {
            for v in Version::ALL {
                let c = compile(&k, v);
                assert_eq!(
                    c.tiled.nests.len(),
                    k.program.nests.len(),
                    "{} {v:?}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn hopt_groups_share_shape_and_layout() {
        for k in all_kernels() {
            let c = compile(&k, Version::HOpt);
            for g in &c.interleave {
                assert!(g.len() >= 2);
                let dims = &c.tiled.program.arrays[g[0].0].dims;
                let layout = &c.tiled.layouts[g[0].0];
                for m in g {
                    assert_eq!(&c.tiled.program.arrays[m.0].dims, dims, "{}", k.name);
                    assert_eq!(&c.tiled.layouts[m.0], layout, "{}", k.name);
                }
            }
            // No array in two groups.
            let mut seen = std::collections::BTreeSet::new();
            for g in &c.interleave {
                for m in g {
                    assert!(seen.insert(*m), "{}: array {m:?} grouped twice", k.name);
                }
            }
        }
    }

    #[test]
    fn only_hopt_interleaves() {
        let k = crate::kernels::mat::build();
        for v in [
            Version::Col,
            Version::Row,
            Version::LOpt,
            Version::DOpt,
            Version::COpt,
        ] {
            assert!(compile(&k, v).interleave.is_empty());
        }
    }

    #[test]
    fn copt_uses_out_of_core_tiling() {
        let k = crate::kernels::mat::build();
        let c = compile(&k, Version::COpt);
        for tn in &c.tiled.nests {
            assert_eq!(tn.strategy, TilingStrategy::OutOfCore);
            assert!(!tn.tiled_levels.contains(&(tn.nest.depth - 1)));
        }
        let d = compile(&k, Version::DOpt);
        for tn in &d.tiled.nests {
            assert_eq!(tn.strategy, TilingStrategy::Optimized);
        }
    }
}
