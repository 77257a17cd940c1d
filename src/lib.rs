//! # ooc-opt
//!
//! A Rust reproduction of Kandemir, Choudhary & Ramanujam,
//! *Compiler Optimizations for I/O-Intensive Computations* (ICPP
//! 1999): a compiler that optimizes out-of-core programs by combining
//! non-singular loop transformations with file-layout (data)
//! transformations and out-of-core tiling, evaluated on a simulated
//! Paragon-class parallel file system.
//!
//! This meta-crate re-exports the workspace members:
//!
//! * [`linalg`] — exact rational/integer linear algebra (kernels,
//!   unimodular completion, Fourier–Motzkin).
//! * [`ir`] — the affine program representation, normalization, and
//!   dependence analysis.
//! * [`core`] — the paper's optimizer, tiling, and plan execution.
//! * [`runtime`] — the PASSION-like out-of-core array runtime.
//! * [`pfs`] — the striped parallel file system simulator.
//! * [`kernels`] — the ten Table 1 benchmarks and six program
//!   versions.
//! * [`sched`] — the asynchronous tile pipeline: schedules with
//!   next-use distances, the Belady-informed tile cache, prefetch
//!   workers, and write-behind.
//! * [`trace`] — structured tracing, decision-explain records, and
//!   Chrome-trace export.
//! * [`metrics`] — the per-run metrics registry, Prometheus/JSON
//!   exposition, and snapshot diffing behind `bench-compare`.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub use ooc_core as core;
pub use ooc_ir as ir;
pub use ooc_kernels as kernels;
pub use ooc_linalg as linalg;
pub use ooc_metrics as metrics;
pub use ooc_runtime as runtime;
pub use ooc_sched as sched;
pub use ooc_trace as trace;
pub use pfs_sim as pfs;
