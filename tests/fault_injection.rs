//! The differential matrix's fault rows on the synchronous walk:
//! seeded transient store faults absorbed by the retry policy (and
//! fatal without it), and the crash matrix, every kernel's durable run
//! killed at three store calls, cleanly or by a torn write, and
//! resumed, in memory and on files. The rows and their checks are in
//! `tests/table` (DESIGN.md §7).

mod table;

table::families!(
    /// `mxm` c-opt survives seeded transient faults.
    functional_run_survives_transient_faults,
    /// A second same-seed run injects and retries the same faults.
    faults_replay_deterministically,
    /// With retries off, the same faults kill the run.
    without_retries_faults_are_fatal,
    /// Every kernel crashed and resumed on a memory medium.
    crash_matrix_recovers_every_kernel_in_memory,
    /// Every kernel crashed and resumed on a directory of real files.
    crash_matrix_recovers_every_kernel_on_files,
);
