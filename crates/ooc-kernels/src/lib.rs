//! # ooc-kernels
//!
//! The ten benchmark codes of the paper's Table 1, reconstructed in
//! the affine IR, plus the six program versions of the evaluation
//! (`col`, `row`, `l-opt`, `d-opt`, `c-opt`, `h-opt`).
//!
//! Each kernel module documents which Table 2 behaviour its access
//! structure is designed to reproduce and tests it in miniature.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kernel;
pub mod kernels;
pub mod versions;

pub use kernel::{all_kernels, kernel_by_name, seed, Kernel};
pub use versions::{compile, CompiledVersion, Version};
