//! The differential matrix's synchronous-walk rows: every kernel's six
//! versions on both store backends, held to the IR interpreter, with
//! the model's calls held to the traced store-level calls, and the
//! combined optimizer's measured I/O held below the column-major
//! baseline's. The rows and their checks are in `tests/table`
//! (DESIGN.md §7).

mod table;

table::families!(
    /// Every kernel × version on memory and on real files: contents,
    /// model exactness, the two backends' traces, and c-opt ≤ col.
    differential_sweep,
    /// `trans` on real files: c-opt beats col in measured calls, seeks,
    /// seek distance and run length.
    optimized_beats_naive_on_real_files,
);
