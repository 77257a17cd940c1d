//! # pfs-sim
//!
//! A simulator of the I/O subsystem the paper evaluates on: the Intel
//! Paragon's PFS parallel file system — files striped in 64 KB units
//! over 64 I/O nodes — plus the compute-node timing needed to turn
//! I/O call counts and volumes into wall-clock time.
//!
//! The original machine is long gone; what the paper's results depend
//! on is (a) a fixed per-call cost, (b) finite per-I/O-node bandwidth,
//! and (c) contention when many processors share the fixed I/O-node
//! pool. [`PfsSim`] models exactly those with an exact discrete-event
//! simulation at I/O-operation granularity; [`analytic`] provides
//! closed-form bounds used for cross-checks and compiler cost queries;
//! [`contention`] prices measured per-I/O-node load distributions
//! (from the runtime's striped store layer) into makespan, speedup,
//! and skew; [`degraded`] prices the same loads with one I/O node
//! dead and its traffic fanned out to the K−1 survivors by parity
//! reconstruction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod config;
pub mod contention;
pub mod degraded;
pub mod gap;
pub mod pipeline;
pub mod pricing;
pub mod sim;

pub use analytic::{lower_bound, stats, WorkloadStats};
pub use config::{ComputeParams, DiskParams, MachineConfig, PfsConfig};
pub use contention::{price_node_loads, ContentionReport, NodeLoad};
pub use degraded::{price_degraded, DegradedReport};
pub use gap::{GapCell, GapReport};
pub use pipeline::{
    overlap_lower_bound, overlap_report, pipelined_makespan, sequential_makespan,
    stages_from_trace, OverlapReport, Stage,
};
pub use pricing::{price_sequence, render_timeline, PricedCall, PricedTimeline};
pub use sim::{FileId, Op, PfsSim, SimResult, Workload};
