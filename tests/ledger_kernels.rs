//! The differential matrix's ledger rows: for every kernel × version
//! under each executor label (sync, pipelined, parallel, durable,
//! durable-resume), the provenance ledger's cause buckets sum exactly
//! to the analytic I/O totals, per array, calls and elements alike. The
//! rows and their checks are in `tests/table` (DESIGN.md §7).

mod table;

table::families!(
    /// The sync walk at the paper's memory fraction.
    sync_conserves_for_every_kernel_version,
    /// The step engine at one shard over a tight tile cache.
    pipelined_conserves_for_every_kernel_version,
    /// The step engine at two shards over a tight tile cache.
    parallel_conserves_for_every_kernel_version,
    /// A fresh durable run of the sync walk.
    durable_conserves_for_every_kernel_version,
    /// Col and c-opt crashed once and resumed.
    crash_resume_conserves_for_every_kernel,
);
