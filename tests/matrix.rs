//! The differential matrix's rows that no older suite holds: the
//! durable step engine at three shards, fresh and crashed, and
//! permanent I/O-node loss on the parity-striped medium. The table, its
//! runners and its checker are in `tests/table` (DESIGN.md §7).

mod table;

table::families!(
    /// Every kernel's c-opt, fresh and crashed at three points.
    durable_engine,
    /// Each I/O node lost at its first arrival, and the busiest mid-run.
    node_loss,
);
