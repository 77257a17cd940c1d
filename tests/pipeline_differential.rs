//! The differential matrix's pipelined rows: the step engine at one
//! shard (`exec_pipelined`) over every kernel × version on both store
//! backends, its overlapped staging engaging, and its worker threads
//! riding out transient store faults. The rows and their checks are in
//! `tests/table` (DESIGN.md §7).

mod table;

table::families!(
    /// Every kernel × version at one shard, on memory and on files.
    pipelined_differential_sweep,
    /// Prefetch, write-behind and the tile cache engage on `mxm` c-opt.
    pipeline_machinery_engages,
    /// Seeded transient faults are absorbed by the retry policy.
    pipelined_run_survives_transient_faults,
);
