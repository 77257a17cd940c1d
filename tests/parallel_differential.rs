//! The differential matrix's sharded rows: the step engine at 2, 4 and
//! 8 shards over every kernel × version on both store backends, with
//! write traffic held to one shard's; the striped per-node store layer
//! at 1, 4 and 8 I/O nodes; same-seed determinism and fault replay
//! across thread interleavings. The rows and their checks are in
//! `tests/table` (DESIGN.md §7).

mod table;

table::families!(
    /// Every kernel × version at 1, 2, 4 and 8 shards.
    parallel_differential_sweep,
    /// Every nest has a partition summary and `mxm` c-opt shards.
    partitions_cover_and_engage,
    /// Summed over the nodes, per-node traffic is the same at every
    /// node count.
    striped_per_node_calls_sum_to_single_node_totals,
    /// Two same-seed runs match in contents, profiles and per-node
    /// counters.
    parallel_runs_are_deterministic,
    /// Seeded faults inject and retry the same whichever thread hits
    /// them.
    parallel_fault_replay_is_interleaving_independent,
);
