//! # ooc-core
//!
//! The paper's contribution: a compiler that optimizes I/O-intensive
//! (out-of-core) programs by combining non-singular loop
//! transformations with file-layout (data) transformations, then
//! applying out-of-core tiling.
//!
//! Pipeline (paper §3):
//!
//! 1. [`interference`] — bipartite nest/array graph, connected
//!    components (Step 2).
//! 2. [`cost`] — nest ordering by estimated I/O cost (Step 3.a).
//! 3. [`locality`] — the hyperplane algebra: relations (1) and (2) of
//!    Claim 1.
//! 4. [`optimizer`] — the global algorithm (Steps 3.b–3.c) plus the
//!    `d-opt` / `l-opt` comparison strategies.
//! 5. [`tiling`] — out-of-core tiling (§3.3): tile all but the
//!    innermost loop; plus traditional all-loops tiling for baselines.
//!    [`plan`] — the one planner: per nest, level ranges, ownership
//!    level, tile spans within the 1/128 budget with their modeled
//!    cost, and the staging slot table, consumed by everything below.
//! 6. [`exec`] — plan execution: functional (real data, small N) and
//!    simulation (I/O call accounting + `pfs-sim` timing, paper-scale N);
//!    [`kernel`] — the element loops of a nest compiled once per run
//!    (slot table, strided integer addressing, op tape), run by every
//!    functional executor.
//! 7. [`storage`] — §3.4 storage-requirement reduction for general
//!    data transformations.
//! 8. [`global`] — the paper's §5 future work: exact global layout
//!    assignment by branch-and-bound.
//! 9. [`pipeline`] — the step engine's parts: compiler-driven
//!    prefetch, a Belady-informed tile cache, and write-behind over
//!    the schedules the tiling pass fixes statically;
//!    [`exec_pipelined`] is the engine at one shard.
//! 10. [`recovery`] — crash-consistent execution: per-tile-region
//!     checksums, one write intent journal that also carries the
//!     tile-row checkpoints, and [`run_durable`], whose
//!     [`Start::Resume`] recovers a crashed run of either walk
//!     bit-equal to an uninterrupted one.
//! 11. [`parallel`] — the measured multi-node executor and the step
//!     engine's one driver: nests partitioned by tile-walk ownership at
//!     their communication-free level and driven by worker threads over
//!     shared (typically striped) stores, bit-equal to the synchronous
//!     walk at every shard count.
//!
//! # Example: the paper's worked example, end to end
//!
//! ```
//! use ooc_core::{optimize, OptimizeOptions};
//! use ooc_ir::{ArrayRef, Expr, LoopNest, Program, Statement};
//! use ooc_runtime::FileLayout;
//!
//! // do i / do j: U(i,j) = V(j,i) + 1.0
//! let mut p = Program::new(&["N"]);
//! let u = p.declare_array("U", 2, 0);
//! let v = p.declare_array("V", 2, 0);
//! let stmt = Statement::assign(
//!     ArrayRef::new(u, &[vec![1, 0], vec![0, 1]], vec![0, 0]),
//!     Expr::Add(
//!         Box::new(Expr::Ref(ArrayRef::new(v, &[vec![0, 1], vec![1, 0]], vec![0, 0]))),
//!         Box::new(Expr::Const(1.0)),
//!     ),
//! );
//! p.add_nest(LoopNest::rectangular("nest1", 2, 1, 0, vec![stmt]));
//!
//! let optimized = optimize(&p, &OptimizeOptions::default());
//! assert_eq!(optimized.layouts[0], FileLayout::row_major(2)); // U
//! assert_eq!(optimized.layouts[1], FileLayout::col_major(2)); // V
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codegen;
pub mod cost;
pub mod exec;
#[cfg(test)]
mod fixtures;
pub mod global;
pub mod interference;
pub mod kernel;
pub mod locality;
pub mod optimizer;
pub mod parallel;
pub mod pipeline;
pub mod plan;
pub mod recovery;
pub mod report;
pub mod storage;
pub mod tiling;

pub use codegen::render_tiled_program;
pub use cost::{default_layouts, nest_cost, order_by_cost};
pub use exec::{
    build_workload, max_divergence_from_reference, run_functional, run_functional_on, simulate,
    ArrayProfile, ExecConfig, FunctionalConfig, FunctionalRun, SimReport,
};
pub use global::{optimize_global, GlobalOptions, GlobalResult};
pub use interference::{Component, InterferenceGraph};
pub use kernel::{KernelScratch, TileKernel};
pub use locality::{
    dim_order_for, innermost_candidates, layouts_for_2d, locality_under, loop_constraint_rows,
    movement_i64, Locality,
};
pub use optimizer::{
    best_transform_for, modeled_program_cost, optimize, optimize_data_only, optimize_loop_only,
    OptimizeOptions, OptimizedProgram,
};
pub use parallel::{exec_parallel, ParallelConfig, ParallelRun, PartitionSummary};
pub use pipeline::{exec_pipelined, extract_schedule, PipelineConfig};
pub use plan::{plan_nest, plan_nest_memo, NestPlan, PlanEnv, PlanMemo};
pub use recovery::{
    max_intents_per_interval, run_durable, run_functional_durable, DirMedium, DurabilityConfig,
    DurableMedium, DurableOutcome, DurableStore, MemMedium, RecoveryReport, Start, StripedMedium,
    Walk,
};
pub use report::{optimization_report, IoComparison, NestReport, OptimizationReport, RefReport};
pub use storage::{bounding_box, reduce_storage, StorageReduction};
pub use tiling::{ref_region, IoWeights, TiledNest, TiledProgram, TilingStrategy};
