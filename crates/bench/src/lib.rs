//! # ooc-bench
//!
//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§4), plus the Criterion micro-benchmarks.
//!
//! | paper artifact | binary | what it prints |
//! |---|---|---|
//! | Table 1 | `table1` | kernel inventory (source, iter, arrays) |
//! | Table 2 | `table2` | per-version times on 16 nodes, % of `col` |
//! | Table 3 | `table3` | speedups for 16/32/64/128 processors |
//! | Table 3 (measured) | `table3 --workers N` | measured parallel speedups over striped I/O nodes |
//! | Figure 1 | `figure1` | normalization + connected components |
//! | Figure 2 | `figure2` | file layouts and hyperplane vectors |
//! | Figure 3 | `figure3` | tile access patterns and I/O call counts |
//! | Figure 4 (ext.) | `figure4` | async tile pipeline vs synchronous |
//! | Figure 5 (ext.) | `figure5` | crash points × checkpoint intervals: recovery cost |
//! | Forensics (ext.) | `analyze` | blame waterfalls, critical paths, contention gap |
//! | Provenance (ext.) | `table2 --ledger`, `inspect --ledger` | cause-classified I/O attribution, version diffs |
//! | Degraded mode (ext.) | `table3 --kill-node`, `inspect --scrub` | node-loss survival, repair traffic, parity scrub |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod degraded;
pub mod experiments;
pub mod json;
pub mod ledger;
pub mod measured;
pub mod metrics;
pub mod recovery;
pub mod reference;
pub mod trace;

pub use analyze::{
    analyze_json, analyze_register, efficiency_summary, gap_report, run_analyze_cell, AnalyzeCell,
    ANALYZE_WORKER_COUNTS,
};
pub use degraded::{
    degraded_register, run_degraded_demo, DegradedCell, DegradedDemo, DEGRADED_KERNELS,
    DEGRADED_NODES, DEGRADED_STRIPE_ELEMS,
};
pub use experiments::{run_table2, run_table3, table2_row, Table2Cell, Table2Row, Table3Entry};
pub use ledger::{ledger_register, run_ledger_cell, run_ledger_diff, LEDGER_DIFF_PAIR};
pub use measured::{
    measured_params, measured_table3_register, run_measured_table3, MeasuredEntry,
    MEASURED_NODE_COUNTS, MEASURED_STRIPE_ELEMS,
};
pub use metrics::{table2_register, table3_register, MetricsScope};
pub use recovery::{
    interval_summary, recovery_register, run_recovery_demo, RecoveryCell, RecoveryDemo,
};
pub use reference::{paper_table2, paper_table3_entry, PAPER_TABLE3_KERNELS};
