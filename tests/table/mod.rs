//! The differential matrix: one table of rows, each a (kernels,
//! versions, executor policy, backend, fault plan), run cell by cell —
//! one cell per (kernel, version) — and checked by one set of
//! invariants wherever they hold by design:
//!
//! 1. contents bit-equal to the IR interpreter
//!    (`ooc_ir::execute_program`), every run of every cell;
//! 2. analytic calls and elements equal to the traced store-level
//!    calls and elements, per array, on traced fault-free rows;
//! 3. ledger conservation under the executor's own label: the cause
//!    buckets sum to the analytic totals per array, calls and elements
//!    alike;
//! 4. mem and file backends agree between rows that differ only in
//!    backend: analytic totals, and the whole measured trace for the
//!    sync walk, the measured call and element counts for the step
//!    engine (its workers interleave by timing, so seeks are not fixed);
//! 5. per-array write traffic identical across shard counts, and
//!    per-node traffic summed over the nodes identical across node
//!    counts, between rows that differ only in that count;
//! 6. crash replay rolls back at most one checkpoint interval of
//!    journal intents per array.
//!
//! A fault plan's own assertions (the crash aborts, the resume resumes,
//! one replay-write per rolled-back tile, a lost node is found) run
//! where the plan is driven; checks that belong to one row ride on it
//! as `extra` functions. A row's family is `suite::test`: the rows of
//! one family form that `#[test]` of `tests/<suite>.rs`, which declares
//! its families with [`families!`]. They run in table order, so the
//! cross-row invariants see every row; libtest spreads a suite's
//! families over the cores. Each (kernel, version) compiles once per
//! suite, each kernel's interpreter run is made once per suite, and so
//! is the fresh durable run a crash row learns its crash points from.
//!
//! DESIGN.md §7 has the schema and how to add an executor or a fault
//! plan.

use ooc_bench::{DEGRADED_KERNELS, DEGRADED_NODES, DEGRADED_STRIPE_ELEMS};
use ooc_opt::core::plan::PAPER_MEMORY_FRACTION;
use ooc_opt::core::{
    exec_parallel, max_intents_per_interval, run_durable, run_functional_on, DirMedium,
    DurabilityConfig, DurableMedium, FunctionalConfig, FunctionalRun, IoComparison, MemMedium,
    ParallelConfig, ParallelRun, PipelineConfig, RecoveryReport, Start, StripedMedium,
};
use ooc_opt::ir::{execute_program, ArrayId, Memory};
use ooc_opt::kernels::{all_kernels, compile, seed, CompiledVersion, Kernel, Version};
use ooc_opt::runtime::testing::{self, TempDir};
use ooc_opt::runtime::{
    fault_plan, is_crashed, parse_journal, FaultConfig, FaultHandle, FaultStore, IoCause,
    IoNodePool, IoStats, LedgerRecorder, MeasuredIo, MemStore, NodeFaultConfig, NodeStats,
    ProvenanceLedger, RetryPolicy, RuntimeConfig, Store, StripeConfig, StripedStore, TracingStore,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Memory is 1/16 of the data unless a row says otherwise: tiles stay
/// meaningfully smaller than the arrays at test sizes, so versions
/// differ in staging.
const FRACTION: u64 = 16;

/// Which kernels a row covers.
#[derive(Debug, Clone, Copy)]
enum Kernels {
    All,
    Named(&'static [&'static str]),
}

/// The step engine's tile cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cache {
    /// `PipelineConfig::default()`: sized from the prefetch depth.
    Default,
    /// Two workers two steps ahead over a 128-element cache.
    Tight,
}

/// How a cell's program runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Policy {
    /// The synchronous walk (`run_functional_on`) at 1/`fraction` of
    /// the data as memory.
    Sync(u64),
    /// The step engine (`exec_parallel`) at this many shards; one shard
    /// is the pipelined executor.
    Engine(usize, Cache),
    /// `run_durable` from a fresh start over the sync walk (`None`) or
    /// the step engine at this many shards with the default cache; a
    /// crash plan resumes it.
    Durable(Option<usize>),
}

/// What the arrays are stored on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// In memory; a `MemMedium` under a durable policy.
    Mem,
    /// Real files in a temporary directory; a `DirMedium` under a
    /// durable policy.
    File,
    /// Striped over this many in-memory I/O nodes, 16-element stripes.
    Striped(usize),
    /// The parity-striped `StripedMedium` of the degraded study.
    Parity,
}

/// What goes wrong during a cell's run.
#[derive(Debug, Clone, Copy)]
enum Plan {
    None,
    /// Each array's store fails transiently on the seeded stream this
    /// function gives for the array's index.
    Transient(fn(usize) -> FaultConfig),
    /// The run dies at K evenly spaced store calls of its busiest array
    /// (odd points crash cleanly, even ones tear the write) and
    /// resumes; each point is one run of the cell.
    Crash(u64),
    /// Each I/O node is lost at its first arrival, and the busiest one
    /// again mid-run; the healthy run and each loss are runs of the
    /// cell.
    NodeLoss,
}

/// A check that belongs to one row; it reads the row's cells (and any
/// other row of its family) once the family has run.
type Extra = fn(&Row, &Family);

/// One row of the matrix.
struct Row {
    /// The `#[test]` that runs it, as `suite::test`.
    family: &'static str,
    kernels: Kernels,
    versions: &'static [Version],
    policy: Policy,
    backend: Backend,
    plan: Plan,
    extra: &'static [Extra],
}

const ALL: &[Version] = &Version::ALL;
const COPT: &[Version] = &[Version::COpt];
const ROW_COPT: &[Version] = &[Version::Row, Version::COpt];
const COL_COPT: &[Version] = &[Version::Col, Version::COpt];
const EVERY: Kernels = Kernels::All;
const MXM: Kernels = Kernels::Named(&["mxm"]);
const TRANS: Kernels = Kernels::Named(&["trans"]);
const DEGRADED: Kernels = Kernels::Named(&DEGRADED_KERNELS);
const SYNC: Policy = Policy::Sync(FRACTION);
const PAPER: Policy = Policy::Sync(PAPER_MEMORY_FRACTION);
const DURABLE: Policy = Policy::Durable(None);

/// The step engine at `shards` with the default cache.
const fn engine(shards: usize) -> Policy {
    Policy::Engine(shards, Cache::Default)
}

/// A fault-free row with no extra check.
const fn row(
    family: &'static str,
    kernels: Kernels,
    versions: &'static [Version],
    policy: Policy,
    backend: Backend,
) -> Row {
    Row {
        family,
        kernels,
        versions,
        policy,
        backend,
        plan: Plan::None,
        extra: &[],
    }
}

impl Row {
    /// This row under the fault plan `plan`.
    const fn with(mut self, plan: Plan) -> Row {
        self.plan = plan;
        self
    }

    /// This row with its own checks.
    const fn check(mut self, extra: &'static [Extra]) -> Row {
        self.extra = extra;
        self
    }
}

#[rustfmt::skip]
static MATRIX: &[Row] = &[
    // tests/differential.rs: the synchronous walk, the oracle every
    // other executor is held to.
    row("differential::differential_sweep", EVERY, ALL, SYNC, Backend::Mem).check(&[copt_beats_col]),
    row("differential::differential_sweep", EVERY, ALL, SYNC, Backend::File),
    row("differential::optimized_beats_naive_on_real_files", TRANS, COL_COPT, SYNC, Backend::File)
        .check(&[beats_naive_on_files]),
    // tests/pipeline_differential.rs: the step engine at one shard, the
    // pipelined executor.
    row("pipeline_differential::pipelined_differential_sweep", EVERY, ALL, engine(1), Backend::Mem),
    row("pipeline_differential::pipelined_differential_sweep", EVERY, ALL, engine(1), Backend::File),
    row("pipeline_differential::pipeline_machinery_engages", MXM, COPT, engine(1), Backend::Mem)
        .check(&[pipeline_engages]),
    row("pipeline_differential::pipelined_run_survives_transient_faults", MXM, COPT, engine(1), Backend::Mem)
        .with(Plan::Transient(|a| FaultConfig::transient(0xfeed_f00d + a as u64, 150))),
    // tests/parallel_differential.rs: the step engine at 2, 4 and 8
    // shards, held to one shard's write traffic; striped I/O nodes.
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(1), Backend::Mem),
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(2), Backend::Mem),
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(2), Backend::File),
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(4), Backend::Mem),
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(4), Backend::File),
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(8), Backend::Mem),
    row("parallel_differential::parallel_differential_sweep", EVERY, ALL, engine(8), Backend::File),
    row("parallel_differential::partitions_cover_and_engage", MXM, COPT, engine(4), Backend::Mem)
        .check(&[shards_engage]),
    row("parallel_differential::striped_per_node_calls_sum_to_single_node_totals", EVERY, ROW_COPT, engine(2), Backend::Striped(1))
        .check(&[traffic_spreads]),
    row("parallel_differential::striped_per_node_calls_sum_to_single_node_totals", EVERY, ROW_COPT, engine(2), Backend::Striped(4)),
    row("parallel_differential::striped_per_node_calls_sum_to_single_node_totals", EVERY, ROW_COPT, engine(2), Backend::Striped(8)),
    row("parallel_differential::parallel_runs_are_deterministic", Kernels::Named(&["mxm", "syr2k"]), COPT, engine(3), Backend::Striped(4))
        .check(&[same_seed_same_run]),
    row("parallel_differential::parallel_fault_replay_is_interleaving_independent", MXM, COPT, engine(4), Backend::Mem)
        .with(Plan::Transient(|a| FaultConfig::transient(0xabad_cafe + a as u64, 150)))
        .check(&[faults_replay]),
    // tests/fault_injection.rs: transient store faults, absorbed by the
    // retry policy, and crashes of the durable sync walk, resumed.
    row("fault_injection::functional_run_survives_transient_faults", MXM, COPT, PAPER, Backend::Mem)
        .with(Plan::Transient(|a| FaultConfig::transient(0xdead_beef + a as u64, 200))),
    row("fault_injection::faults_replay_deterministically", TRANS, COPT, PAPER, Backend::Mem)
        .with(Plan::Transient(|a| FaultConfig::transient(7 ^ a as u64, 150)))
        .check(&[faults_replay]),
    row("fault_injection::without_retries_faults_are_fatal", TRANS, COPT, PAPER, Backend::Mem)
        .with(Plan::Transient(|a| FaultConfig::transient(0xfeed + a as u64, 200)))
        .check(&[without_retries_faults_are_fatal]),
    row("fault_injection::crash_matrix_recovers_every_kernel_in_memory", EVERY, COPT, DURABLE, Backend::Mem)
        .with(Plan::Crash(3)),
    row("fault_injection::crash_matrix_recovers_every_kernel_on_files", EVERY, COPT, DURABLE, Backend::File)
        .with(Plan::Crash(3)),
    // tests/ledger_kernels.rs: conservation under every executor label,
    // on walks the suites above do not run.
    row("ledger_kernels::sync_conserves_for_every_kernel_version", EVERY, ALL, PAPER, Backend::Mem),
    row("ledger_kernels::pipelined_conserves_for_every_kernel_version", EVERY, ALL, Policy::Engine(1, Cache::Tight), Backend::Mem),
    row("ledger_kernels::parallel_conserves_for_every_kernel_version", EVERY, ALL, Policy::Engine(2, Cache::Tight), Backend::Mem),
    row("ledger_kernels::durable_conserves_for_every_kernel_version", EVERY, ALL, DURABLE, Backend::Mem),
    row("ledger_kernels::crash_resume_conserves_for_every_kernel", EVERY, COL_COPT, DURABLE, Backend::Mem)
        .with(Plan::Crash(1)),
    // tests/matrix.rs: durable runs of the step engine at three shards,
    // fresh then crashed and resumed; permanent I/O-node loss on the
    // parity-striped medium.
    row("matrix::durable_engine", EVERY, COPT, Policy::Durable(Some(3)), Backend::Mem),
    row("matrix::durable_engine", EVERY, COPT, Policy::Durable(Some(3)), Backend::Mem).with(Plan::Crash(3)),
    row("matrix::node_loss", DEGRADED, COL_COPT, Policy::Durable(Some(2)), Backend::Parity).with(Plan::NodeLoss),
    row("matrix::node_loss", DEGRADED, COL_COPT, DURABLE, Backend::Parity).with(Plan::NodeLoss),
];

/// One `#[test]` per family of the suite that invokes it, named by the
/// family's test and running its rows, and one that checks every row of
/// the matrix has a suite file and every row of this suite a test.
macro_rules! families {
    ($($(#[$doc:meta])* $family:ident),* $(,)?) => {
        $(
            $(#[$doc])*
            #[test]
            fn $family() {
                $crate::table::run_family(concat!(
                    env!("CARGO_CRATE_NAME"),
                    "::",
                    stringify!($family)
                ));
            }
        )*

        #[test]
        fn every_row_has_a_family_test() {
            $crate::table::check_families(
                env!("CARGO_CRATE_NAME"),
                &[$(stringify!($family)),*],
            );
        }
    };
}
pub(crate) use families;

/// Every row's family names a suite file under `tests/`, and every row
/// of `suite` one of its `tests`.
pub fn check_families(suite: &str, tests: &[&str]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    for row in MATRIX {
        let (owner, test) = row
            .family
            .split_once("::")
            .unwrap_or_else(|| panic!("family {} is not suite::test", row.family));
        assert!(
            dir.join(format!("{owner}.rs")).is_file(),
            "family {}: no suite tests/{owner}.rs",
            row.family
        );
        if owner == suite {
            assert!(tests.contains(&test), "no test runs family {}", row.family);
        }
    }
}

/// What a walk returned.
enum Walked {
    Sync(FunctionalRun),
    Engine(Box<ParallelRun>),
}

impl Walked {
    fn run(&self) -> &FunctionalRun {
        match self {
            Walked::Sync(run) => run,
            Walked::Engine(par) => &par.run,
        }
    }

    fn engine(&self) -> &ParallelRun {
        match self {
            Walked::Engine(par) => par,
            Walked::Sync(_) => panic!("a sync walk has no engine counters"),
        }
    }
}

/// One run of a cell, with what the invariants read.
struct Outcome {
    /// Which run this is, for failure messages.
    what: String,
    walked: Walked,
    ledger: ProvenanceLedger,
    /// The ledger label the run must conserve under; `None` where
    /// conservation does not hold by design.
    conserves: Option<String>,
    /// Stores traced and fault-free: analytic must equal traced.
    traced: bool,
    /// The fault handle of each fault-wrapped store, by array.
    faults: Vec<FaultHandle>,
    /// The striped pool's per-node counters.
    nodes: Vec<NodeStats>,
    /// A durable run's recovery report.
    report: Option<RecoveryReport>,
    /// Per-array journal intents per checkpoint interval of the fresh
    /// durable run this one is held to.
    bound: BTreeMap<u32, u64>,
}

impl Outcome {
    /// A run no invariant beyond bit-equality applies to yet.
    fn new(what: String, walked: Walked, ledger: ProvenanceLedger) -> Self {
        Outcome {
            what,
            walked,
            ledger,
            conserves: None,
            traced: false,
            faults: Vec::new(),
            nodes: Vec::new(),
            report: None,
            bound: BTreeMap::new(),
        }
    }

    fn run(&self) -> &FunctionalRun {
        self.walked.run()
    }
}

struct Cell {
    kernel: &'static Kernel,
    version: Version,
    runs: Vec<Outcome>,
}

/// The rows of one family with their cells, in table order.
struct Family {
    rows: Vec<(&'static Row, Vec<Cell>)>,
}

impl Family {
    fn cells(&self, row: &Row) -> &[Cell] {
        self.rows
            .iter()
            .find(|(r, _)| std::ptr::eq(*r, row))
            .map(|(_, cells)| cells.as_slice())
            .expect("row in family")
    }

    fn cell(&self, row: &Row, kernel: &str, version: Version) -> &Outcome {
        &self
            .cells(row)
            .iter()
            .find(|c| c.kernel.name == kernel && c.version == version)
            .unwrap_or_else(|| panic!("{kernel} {} not in row", version.label()))
            .runs[0]
    }
}

fn kernels() -> &'static [Kernel] {
    static KERNELS: OnceLock<Vec<Kernel>> = OnceLock::new();
    KERNELS.get_or_init(all_kernels)
}

impl Row {
    fn kernels(&self) -> Vec<&'static Kernel> {
        kernels()
            .iter()
            .filter(|k| match self.kernels {
                Kernels::All => true,
                Kernels::Named(names) => names.contains(&k.name),
            })
            .collect()
    }

    fn label(&self, k: &Kernel, v: Version) -> String {
        format!(
            "{} {} {:?} {:?} {:?}",
            k.name,
            v.label(),
            self.policy,
            self.backend,
            self.plan
        )
    }
}

/// Values made once per key and suite, whichever family asks
/// first; the others wait for it.
type Memo<K, V> = Mutex<BTreeMap<K, Arc<OnceLock<Arc<V>>>>>;

fn memo<K: Ord, V>(cache: &Memo<K, V>, key: K, make: impl FnOnce() -> V) -> Arc<V> {
    let slot = cache.lock().expect("memo").entry(key).or_default().clone();
    slot.get_or_init(|| Arc::new(make())).clone()
}

/// `compile(k, v)`, once per suite.
fn compiled(k: &'static Kernel, v: Version) -> Arc<CompiledVersion> {
    static CACHE: Memo<(&str, &str), CompiledVersion> = Mutex::new(BTreeMap::new());
    memo(&CACHE, (k.name, v.label()), || compile(k, v))
}

/// The IR interpreter's result for `k`'s untransformed program, arrays
/// seeded like the executors seed theirs, as bit patterns; once per
/// kernel.
fn oracle(k: &'static Kernel) -> Arc<Vec<Vec<u64>>> {
    static CACHE: Memo<&str, Vec<Vec<u64>>> = Mutex::new(BTreeMap::new());
    memo(&CACHE, k.name, || {
        let params = &k.small_params;
        let mut mem = Memory::for_program(&k.program, params);
        for (a, decl) in k.program.arrays.iter().enumerate() {
            let dims: Vec<i64> = decl.dims.iter().map(|d| d.resolve(params)).collect();
            mem.seed(ArrayId(a), |i| seed(ArrayId(a), &subscripts(&dims, i)));
        }
        execute_program(&k.program, &mut mem);
        let arrays = k.program.arrays.len();
        (0..arrays)
            .map(|a| bits(mem.array_data(ArrayId(a))))
            .collect()
    })
}

/// The 1-based subscripts of canonical row-major offset `linear`.
fn subscripts(dims: &[i64], mut linear: usize) -> Vec<i64> {
    let mut idx = vec![0; dims.len()];
    for (d, &extent) in dims.iter().enumerate().rev() {
        let extent = usize::try_from(extent).expect("extent");
        idx[d] = i64::try_from(linear % extent).expect("subscript") + 1;
        linear /= extent;
    }
    idx
}

fn bits(data: &[f64]) -> Vec<u64> {
    data.iter().map(|x| x.to_bits()).collect()
}

/// Runs every row of `family` in table order, checks each run against
/// the shared invariants, then the cross-row invariants, then each
/// row's extra checks.
pub fn run_family(family: &str) {
    let mut fam = Family { rows: Vec::new() };
    for row in MATRIX.iter().filter(|r| r.family == family) {
        let mut cells = Vec::new();
        for k in row.kernels() {
            for &v in row.versions {
                let runs = run_cell(row, k, v);
                for o in &runs {
                    check(o, &oracle(k));
                }
                cells.push(Cell {
                    kernel: k,
                    version: v,
                    runs,
                });
            }
        }
        fam.rows.push((row, cells));
    }
    assert!(!fam.rows.is_empty(), "no row of family {family}");
    check_across_rows(&fam);
    for (row, _) in &fam.rows {
        for extra in row.extra {
            extra(row, &fam);
        }
    }
}

/// The shared invariants of one run: 1, 2, 3 and 6.
fn check(o: &Outcome, oracle: &[Vec<u64>]) {
    let run = o.run();
    assert_eq!(run.data.len(), oracle.len(), "{}: array count", o.what);
    for (a, (got, want)) in run.data.iter().zip(oracle).enumerate() {
        assert!(
            bits(got) == *want,
            "{}: array {a} differs from the IR interpreter",
            o.what
        );
    }
    if o.traced {
        for p in &run.profiles {
            let m = p.measured.as_ref().expect("traced");
            assert_eq!(
                (p.stats.total_calls(), p.stats.total_elems()),
                (m.total_calls(), m.total_elems()),
                "{} array {}: analytic vs measured (calls, elems)",
                o.what,
                p.name
            );
        }
    }
    if let Some(executor) = &o.conserves {
        assert_eq!(&o.ledger.executor, executor, "{}: ledger label", o.what);
        let stats: Vec<_> = run.profiles.iter().map(|p| p.stats).collect();
        if let Err(e) = o.ledger.check_conservation(&stats) {
            panic!("{}: ledger conservation violated: {e}", o.what);
        }
    }
    if let Some(report) = &o.report {
        for (a, n) in &report.rolled_back_by_array {
            let max = o.bound.get(a).copied().unwrap_or(0);
            assert!(
                *n <= max,
                "{}: array {a} rolled back {n} tiles, over the one-interval bound {max}",
                o.what
            );
        }
    }
}

/// The shared invariants between rows, 4 and 5: for every pair of
/// fault-free rows of the family that differ only in backend (mem vs
/// file), in shard count, or in striped node count, every cell they
/// share.
fn check_across_rows(fam: &Family) {
    for (i, (a, cells_a)) in fam.rows.iter().enumerate() {
        for (b, cells_b) in &fam.rows[i + 1..] {
            if !matches!((a.plan, b.plan), (Plan::None, Plan::None)) {
                continue;
            }
            let backends = a.policy == b.policy
                && matches!(
                    (a.backend, b.backend),
                    (Backend::Mem, Backend::File) | (Backend::File, Backend::Mem)
                );
            let shards = a.backend == b.backend
                && matches!(
                    (a.policy, b.policy),
                    (Policy::Engine(s, c), Policy::Engine(t, d)) if s != t && c == d
                );
            let nodes = a.policy == b.policy
                && matches!(
                    (a.backend, b.backend),
                    (Backend::Striped(m), Backend::Striped(n)) if m != n
                );
            for ca in cells_a {
                let Some(cb) = cells_b
                    .iter()
                    .find(|c| c.kernel.name == ca.kernel.name && c.version == ca.version)
                else {
                    continue;
                };
                let (x, y) = (&ca.runs[0], &cb.runs[0]);
                let what = format!("{} vs {}", x.what, y.what);
                if backends {
                    let (mx, my) = (x.run().total_measured(), y.run().total_measured());
                    if matches!(a.policy, Policy::Sync(_)) {
                        // One thread issues every call, so the whole
                        // trace (seeks, run lengths) is fixed.
                        assert_eq!(mx, my, "{what}: measured I/O traces differ");
                    } else {
                        // Worker threads interleave by timing: the
                        // calls are fixed, not their order.
                        assert_eq!(
                            mx.as_ref().map(measured_rw),
                            my.as_ref().map(measured_rw),
                            "{what}: measured I/O differs"
                        );
                    }
                    assert_eq!(
                        rw(&x.run().total_stats()),
                        rw(&y.run().total_stats()),
                        "{what}: analytic I/O totals differ"
                    );
                }
                if shards {
                    assert_eq!(
                        writes(x.run()),
                        writes(y.run()),
                        "{what}: write traffic moved"
                    );
                }
                if nodes {
                    assert_eq!(
                        node_totals(&x.nodes),
                        node_totals(&y.nodes),
                        "{what}: per-node sums diverge"
                    );
                }
            }
        }
    }
}

/// `(read calls, write calls, read elems, write elems)`.
fn rw(s: &IoStats) -> (u64, u64, u64, u64) {
    (s.read_calls, s.write_calls, s.read_elems, s.write_elems)
}

fn measured_rw(m: &MeasuredIo) -> (u64, u64, u64, u64) {
    (m.read_calls, m.write_calls, m.read_elems, m.write_elems)
}

/// Per-array `(write_calls, write_elems)`: written regions are
/// shard-disjoint and flushed once, so this is conserved at every
/// shard count.
fn writes(run: &FunctionalRun) -> Vec<(u64, u64)> {
    run.profiles
        .iter()
        .map(|p| (p.stats.write_calls, p.stats.write_elems))
        .collect()
}

/// Per-node traffic summed over the nodes: striping moves traffic
/// between nodes but never creates or destroys it (stripe boundaries
/// are fixed in the element space; only node ownership varies).
fn node_totals(nodes: &[NodeStats]) -> (u64, u64, u64, u64) {
    nodes
        .iter()
        .map(|n| measured_rw(&n.io))
        .fold((0, 0, 0, 0), |t, n| {
            (t.0 + n.0, t.1 + n.1, t.2 + n.2, t.3 + n.3)
        })
}

fn sync_config(fraction: u64, rec: Option<&LedgerRecorder>) -> FunctionalConfig {
    let cfg = FunctionalConfig::with_fraction(fraction);
    match rec {
        Some(rec) => cfg.with_ledger(rec.clone()),
        None => cfg,
    }
}

fn engine_config(shards: usize, cache: Cache, rec: Option<&LedgerRecorder>) -> ParallelConfig {
    let functional = sync_config(FRACTION, rec);
    let pipeline = match cache {
        Cache::Default => PipelineConfig {
            functional,
            ..PipelineConfig::default()
        },
        Cache::Tight => PipelineConfig {
            functional,
            workers: 2,
            prefetch_depth: 2,
            cache_capacity: Some(128),
            write_behind: true,
        },
    };
    ParallelConfig { pipeline, shards }
}

/// The ledger label a policy's runs book under.
fn executor(policy: Policy, resumed: bool) -> String {
    let label = match policy {
        Policy::Sync(_) => "sync",
        Policy::Engine(..) => "parallel",
        Policy::Durable(None) => "durable",
        Policy::Durable(Some(_)) => "durable-parallel",
    };
    if resumed {
        format!("{label}-resume")
    } else {
        label.to_string()
    }
}

fn recorder(k: &Kernel, v: Version) -> LedgerRecorder {
    let rec = LedgerRecorder::new();
    rec.set_run(k.name, v.label());
    rec
}

/// All runs of one cell.
fn run_cell(row: &Row, k: &'static Kernel, v: Version) -> Vec<Outcome> {
    let cv = compiled(k, v);
    match (row.policy, row.plan) {
        (Policy::Durable(_), Plan::None) => {
            let what = row.label(k, v);
            assert_eq!(
                row.backend,
                Backend::Mem,
                "{what}: fresh durable rows run on Mem"
            );
            let fresh = durable_fresh(row.policy, what, k, &cv);
            memo(&BASELINES, (row.policy, k.name, v.label()), || {
                Baseline::of(&fresh)
            });
            vec![fresh]
        }
        (Policy::Durable(_), Plan::Crash(points)) => {
            let base = baseline(row.policy, k, &cv);
            crash_and_resume(row, k, v, &cv, points, &base)
        }
        (Policy::Durable(_), Plan::NodeLoss) => survive_node_loss(row, k, v, &cv),
        (_, Plan::None | Plan::Transient(_)) => vec![walk(row, k, v)],
        _ => panic!("{}: no runner for this row", row.label(k, v)),
    }
}

/// One sync or step-engine run over traced stores of the row's
/// backend, fault-wrapped under a transient plan.
fn walk(row: &Row, k: &'static Kernel, v: Version) -> Outcome {
    let what = row.label(k, v);
    let cv = compiled(k, v);
    let dir = TempDir::new("ooc-matrix").expect("tmp");
    let pool = match row.backend {
        Backend::Striped(nodes) => Some(IoNodePool::new(StripeConfig {
            stripe_elems: 16,
            ..StripeConfig::with_nodes(nodes)
        })),
        _ => None,
    };
    let mut faults = Vec::new();
    let make = |a: usize, name: &str, len: u64| {
        let mut store: Box<dyn Store + Send> = match (row.backend, &pool) {
            (Backend::Mem, _) => testing::Backend::Mem.open(dir.path(), name, len)?,
            (Backend::File, _) => testing::Backend::File.open(dir.path(), name, len)?,
            (Backend::Striped(_), Some(pool)) => {
                Box::new(StripedStore::build(pool, len, |_, l| Ok(MemStore::new(l)))?)
            }
            _ => panic!("{what}: not a walk backend"),
        };
        if let Plan::Transient(stream) = row.plan {
            let faulty = FaultStore::new(store, stream(a));
            faults.push(faulty.handle());
            store = Box::new(faulty);
        }
        Ok(TracingStore::new(store))
    };
    let rec = recorder(k, v);
    let (tp, params) = (&cv.tiled, &k.small_params);
    let walked = match row.policy {
        Policy::Sync(fraction) => {
            let cfg = sync_config(fraction, Some(&rec));
            run_functional_on(tp, params, &seed, &cfg, make).map(Walked::Sync)
        }
        Policy::Engine(shards, cache) => {
            let cfg = engine_config(shards, cache, Some(&rec));
            exec_parallel(tp, params, &seed, &cfg, make).map(|par| Walked::Engine(Box::new(par)))
        }
        Policy::Durable(_) => panic!("{what}: a durable policy does not walk plain stores"),
    }
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    if matches!(row.plan, Plan::Transient(_)) {
        let injected: u64 = faults.iter().map(FaultHandle::injected).sum();
        assert!(injected > 0, "{what}: the fault layer never fired");
        assert!(
            walked.run().total_stats().retries > 0,
            "{what}: recovery did not go through the retry path"
        );
    }
    Outcome {
        traced: matches!(row.plan, Plan::None),
        conserves: Some(executor(row.policy, false)),
        nodes: pool.map(|p| p.snapshot()).unwrap_or_default(),
        faults,
        ..Outcome::new(what, walked, rec.take())
    }
}

/// A durable run of `policy`'s walk over `medium`.
fn durable(
    policy: Policy,
    (k, cv): (&Kernel, &CompiledVersion),
    rec: Option<&LedgerRecorder>,
    medium: &mut dyn DurableMedium,
    faults: &dyn Fn(usize) -> Option<FaultConfig>,
    start: Start,
) -> std::io::Result<(Walked, RecoveryReport, Vec<FaultHandle>)> {
    let dur = DurabilityConfig::default();
    let (tp, params) = (&cv.tiled, &k.small_params);
    let (walked, report, handles) = match policy {
        Policy::Durable(None) => {
            let cfg = sync_config(FRACTION, rec);
            let o = run_durable(tp, params, &seed, &cfg, &dur, medium, faults, start)?;
            (Walked::Sync(o.run), o.report, o.fault_handles)
        }
        Policy::Durable(Some(shards)) => {
            let cfg = engine_config(shards, Cache::Default, rec);
            let o = run_durable(tp, params, &seed, &cfg, &dur, medium, faults, start)?;
            (Walked::Engine(Box::new(o.run)), o.report, o.fault_handles)
        }
        _ => panic!("{} {policy:?}: not a durable policy", k.name),
    };
    Ok((walked, report, handles.into_iter().flatten().collect()))
}

/// A fresh durable run of `policy`'s walk on a memory medium, every
/// store wrapped by a fault layer that never fires, to count each
/// array's store calls.
fn durable_fresh(policy: Policy, what: String, k: &Kernel, cv: &CompiledVersion) -> Outcome {
    let rec = recorder(k, cv.version);
    let mut medium = MemMedium::new();
    let quiet = |_| Some(FaultConfig::transient(17, 0));
    let (walked, report, faults) = durable(
        policy,
        (k, cv),
        Some(&rec),
        &mut medium,
        &quiet,
        Start::Fresh,
    )
    .unwrap_or_else(|e| panic!("{what}: {e}"));
    let ledger = rec.take();
    assert!(
        ledger.journal_bytes > 0,
        "{what}: journal traffic not accounted"
    );
    Outcome {
        conserves: Some(executor(policy, false)),
        bound: max_intents_per_interval(&parse_journal(&medium.journal_bytes())),
        report: Some(report),
        faults,
        ..Outcome::new(what, walked, ledger)
    }
}

/// What a crash row learns from the fresh durable run of its walk on a
/// memory medium: each array's store calls (the crash-point domain) and
/// the per-array journal-intent bound of one checkpoint interval.
struct Baseline {
    what: String,
    calls: Vec<u64>,
    bound: BTreeMap<u32, u64>,
}

impl Baseline {
    fn of(fresh: &Outcome) -> Self {
        Baseline {
            what: fresh.what.clone(),
            calls: fresh.faults.iter().map(FaultHandle::calls).collect(),
            bound: fresh.bound.clone(),
        }
    }
}

/// Baselines by (walk, kernel, version), once per suite: a fresh
/// durable row of the walk leaves its own here.
static BASELINES: Memo<(Policy, &str, &str), Baseline> = Mutex::new(BTreeMap::new());

/// The baseline of `policy`'s walk of `cv`: a fresh row's, or a fresh
/// run made here and checked like any run.
fn baseline(policy: Policy, k: &'static Kernel, cv: &CompiledVersion) -> Arc<Baseline> {
    memo(&BASELINES, (policy, k.name, cv.version.label()), || {
        let what = format!(
            "{} {} {policy:?} crash baseline",
            k.name,
            cv.version.label()
        );
        let fresh = durable_fresh(policy, what, k, cv);
        check(&fresh, &oracle(k));
        Baseline::of(&fresh)
    })
}

/// Crashes the row's durable walk at `points` evenly spaced store
/// calls of the busiest array — the fresh run `base` counted them —
/// and resumes each with a ledger attached.
fn crash_and_resume(
    row: &Row,
    k: &Kernel,
    v: Version,
    cv: &CompiledVersion,
    points: u64,
    base: &Baseline,
) -> Vec<Outcome> {
    let calls = &base.calls;
    let target = (0..calls.len()).max_by_key(|&a| calls[a]).expect("arrays");
    assert!(
        calls[target] > 1,
        "{}: no store traffic to crash",
        base.what
    );
    (1..=points)
        .map(|i| {
            let at = calls[target] * i / (points + 1);
            let torn = i % 2 == 0;
            let what = format!("{} crash at {at} (torn {torn})", row.label(k, v));
            let dir = TempDir::new("ooc-matrix-crash").expect("tmp");
            let mut medium: Box<dyn DurableMedium> = match row.backend {
                Backend::Mem => Box::new(MemMedium::new()),
                Backend::File => Box::new(DirMedium::new(dir.path())),
                _ => panic!("{what}: crash rows run on Mem or File"),
            };
            let crash = |a| {
                (a == target).then(|| {
                    if torn {
                        FaultConfig::torn_write(at, 500)
                    } else {
                        FaultConfig::crash_at(at)
                    }
                })
            };
            let medium = medium.as_mut();
            let err = durable(row.policy, (k, cv), None, medium, &crash, Start::Fresh)
                .err()
                .unwrap_or_else(|| panic!("{what}: the injected crash must abort the run"));
            assert!(is_crashed(&err), "{what}: unexpected error: {err}");
            let rec = recorder(k, v);
            let (walked, report, _) = durable(
                row.policy,
                (k, cv),
                Some(&rec),
                medium,
                &|_| None,
                Start::Resume,
            )
            .unwrap_or_else(|e| panic!("{what}: resume: {e}"));
            assert!(report.resumed, "{what}: recovery must resume");
            let ledger = rec.take();
            let replays = ledger
                .events
                .iter()
                .filter(|e| e.cause == IoCause::ReplayWrite)
                .count() as u64;
            assert_eq!(
                replays, report.rolled_back_tiles,
                "{what}: one replay-write event per rolled-back tile"
            );
            Outcome {
                conserves: Some(executor(row.policy, true)),
                bound: base.bound.clone(),
                report: Some(report),
                ..Outcome::new(what, walked, ledger)
            }
        })
        .collect()
}

/// The healthy run on the parity-striped medium, then each node lost
/// at its first arrival and the busiest node lost mid-run, each a
/// fresh `run_durable` of the row's walk that retries the lost node.
fn survive_node_loss(row: &Row, k: &Kernel, v: Version, cv: &CompiledVersion) -> Vec<Outcome> {
    let survive = |faults: NodeFaultConfig, what: &str| {
        let rec = recorder(k, v);
        let stripes = StripeConfig {
            stripe_elems: DEGRADED_STRIPE_ELEMS,
            ..StripeConfig::with_nodes(DEGRADED_NODES)
        };
        let mut medium = StripedMedium::with_faults(stripes, faults).with_ledger(rec.clone());
        let (walked, report, _) = durable(
            row.policy,
            (k, cv),
            Some(&rec),
            &mut medium,
            &|_| None,
            Start::Fresh,
        )
        .unwrap_or_else(|e| panic!("{what}: survival run failed: {e}"));
        // A fresh run resumes only through a retry whose session found
        // a boundary, and the ledger carries the final session's label.
        // One lost node takes at most one retry, so the final session
        // is the retry's.
        let ledger = rec.take();
        assert!(report.retries <= 1, "{what}: {report:?}");
        assert!(
            report.retries >= u64::from(report.resumed),
            "{what}: resumed without a retry"
        );
        assert_eq!(
            ledger.executor,
            executor(row.policy, report.resumed),
            "{what}: ledger label vs final session"
        );
        (walked, report, medium, ledger)
    };
    // Data-plane conservation holds for the healthy run and
    // first-arrival kills only: a mid-run loss aborts a partly run
    // schedule whose traffic stays in the ledger (it records everything
    // that moved), while the analytic totals describe the final
    // schedule only.
    let outcome = |(walked, report, medium, ledger): (Walked, RecoveryReport, StripedMedium, _),
                   what: String,
                   at: u64,
                   bound| {
        let resumed = report.resumed;
        Outcome {
            conserves: (at == 0).then(|| executor(row.policy, resumed)),
            report: Some(report),
            nodes: medium.node_stats(),
            bound,
            ..Outcome::new(what, walked, ledger)
        }
    };

    let what = row.label(k, v);
    let healthy = survive(NodeFaultConfig::new(), &what);
    let (_, report, medium, _) = &healthy;
    assert!(
        medium.nodes_lost().is_empty(),
        "{what}: healthy run lost a node"
    );
    assert!(!report.resumed, "{what}: healthy run resumed");
    assert_eq!(report.retries, 0, "{what}: healthy run retried");
    let bound = max_intents_per_interval(&parse_journal(&medium.journal_bytes()));
    let arrivals: Vec<u64> = medium
        .node_stats()
        .iter()
        .map(|n| n.io.total_calls() + n.repair.total_calls())
        .collect();
    let busiest = (0..DEGRADED_NODES)
        .max_by_key(|&n| arrivals[n])
        .expect("nodes");
    let mut kills: Vec<(usize, u64)> = (0..DEGRADED_NODES).map(|n| (n, 0)).collect();
    if arrivals[busiest] > 1 {
        kills.push((busiest, arrivals[busiest] / 2));
    }
    let mut runs = vec![outcome(healthy, what.clone(), 0, bound.clone())];
    for (node, at) in kills {
        let what = format!("{what} node {node} lost at call {at}");
        let faults = NodeFaultConfig::new().permanent_fail_at(node, at);
        let run = survive(faults, &what);
        let (_, _, medium, _) = &run;
        // Discovered (a typed error, one retry) or absorbed in place (a
        // parity-plane call met the death first): the pool holds the
        // node down and its stripes are reconstructed either way.
        let lost: Vec<usize> = medium.nodes_lost().iter().map(|&(n, _)| n).collect();
        assert_eq!(lost, [node], "{what}");
        assert!(
            medium
                .total_repair()
                .get(IoCause::DegradedReconstruct)
                .read_calls
                > 0,
            "{what}: node lost but nothing reconstructed"
        );
        // The finished, still degraded medium scrubs without
        // unrecoverable groups: single-fault redundancy held.
        let scrub = medium.scrub(false).expect("verify-only scrub");
        assert_eq!(scrub.unrecoverable, 0, "{what}");
        assert_eq!(
            scrub.clean + scrub.skipped + scrub.parity_mismatch,
            scrub.groups,
            "{what}: scrub accounting"
        );
        runs.push(outcome(run, what, at, bound.clone()));
    }
    runs
}

// ---- Row-specific checks ------------------------------------------

/// The combined optimizer never issues more measured store calls than
/// the column-major baseline, strictly fewer on all but two kernels
/// (`emit` is already column-friendly and ties), and fewer calls and
/// less seek distance over the whole suite.
fn copt_beats_col(row: &Row, fam: &Family) {
    let (mut col_total, mut copt_total) = (MeasuredIo::default(), MeasuredIo::default());
    let mut strictly_improved = Vec::new();
    for k in row.kernels() {
        let measured = |v| {
            fam.cell(row, k.name, v)
                .run()
                .total_measured()
                .expect("traced")
        };
        let (col, copt) = (measured(Version::Col), measured(Version::COpt));
        assert!(
            copt.total_calls() <= col.total_calls(),
            "{}: c-opt measured {} calls vs col {}",
            k.name,
            copt.total_calls(),
            col.total_calls()
        );
        if copt.total_calls() < col.total_calls() {
            strictly_improved.push(k.name);
        }
        col_total.merge(&col);
        copt_total.merge(&copt);
    }
    assert!(
        strictly_improved.len() >= 8,
        "c-opt strictly improved only {strictly_improved:?}"
    );
    assert!(
        copt_total.total_calls() < col_total.total_calls(),
        "suite calls: c-opt {} vs col {}",
        copt_total.total_calls(),
        col_total.total_calls()
    );
    assert!(
        copt_total.seek_elems < col_total.seek_elems,
        "suite seek distance: c-opt {} vs col {}",
        copt_total.seek_elems,
        col_total.seek_elems
    );
}

/// On real files, `trans` c-opt strictly beats col in measured calls,
/// seeks and seek distance, with longer mean runs, and the comparison
/// renders for humans.
fn beats_naive_on_files(row: &Row, fam: &Family) {
    let col = fam.cell(row, "trans", Version::Col).run();
    let copt = fam.cell(row, "trans", Version::COpt).run();
    let (col_io, copt_io) = (
        col.total_measured().expect("traced"),
        copt.total_measured().expect("traced"),
    );
    assert!(
        copt_io.total_calls() < col_io.total_calls(),
        "measured calls on files: c-opt {} vs col {}",
        copt_io.total_calls(),
        col_io.total_calls()
    );
    assert!(
        copt_io.seeks < col_io.seeks,
        "measured seeks on files: c-opt {} vs col {}",
        copt_io.seeks,
        col_io.seeks
    );
    assert!(
        copt_io.seek_elems < col_io.seek_elems,
        "measured seek distance on files: c-opt {} vs col {}",
        copt_io.seek_elems,
        col_io.seek_elems
    );
    assert!(copt_io.mean_run_len() > col_io.mean_run_len());
    let text = IoComparison::from_run("c-opt", copt)
        .expect("traced")
        .to_string();
    assert!(text.contains("c-opt"), "{text}");
    assert!(text.contains("measured"), "{text}");
}

/// Overlapped staging engages on `mxm` c-opt — prefetched reads,
/// write-behind, the tile cache — instead of degrading to the
/// synchronous path.
fn pipeline_engages(row: &Row, fam: &Family) {
    let p = &fam.cell(row, "mxm", Version::COpt).walked.engine().pipeline;
    assert!(p.prefetch_issued > 0, "no prefetches issued: {p:?}");
    assert!(p.prefetched_reads > 0, "no reads served async: {p:?}");
    assert!(p.writebehind_tiles > 0, "write-behind never used: {p:?}");
    assert!(
        p.cache.hits + p.cache.misses > 0,
        "cache never consulted: {p:?}"
    );
}

/// Sharding engages on `mxm` c-opt: every nest has a partition
/// summary, at least one nest runs on more than one busy shard, and
/// more than one shard does work.
fn shards_engage(row: &Row, fam: &Family) {
    let par = fam.cell(row, "mxm", Version::COpt).walked.engine();
    let nests = compiled(kernel("mxm"), Version::COpt).tiled.nests.len();
    assert_eq!(par.partitions.len(), nests);
    assert!(
        par.partitions
            .iter()
            .any(|p| !p.serial_fallback && p.active_shards > 1),
        "no nest actually sharded: {:?}",
        par.partitions
    );
    let busy = par
        .shard_stats
        .iter()
        .filter(|s| s.steps_unstalled + s.stalls > 0)
        .count();
    assert!(
        busy > 1,
        "only {busy} shard did work: {:?}",
        par.shard_stats
    );
}

/// Every cell moves traffic on one node, and with more nodes striping
/// spreads reads past node 0 somewhere.
fn traffic_spreads(row: &Row, fam: &Family) {
    for cell in fam.cells(row) {
        let first = &cell.runs[0];
        assert!(
            node_totals(&first.nodes).0 > 0,
            "{}: no traffic",
            first.what
        );
    }
    let spread = fam.rows.iter().any(|(r, cells)| {
        matches!(r.backend, Backend::Striped(n) if n > 1)
            && cells.iter().any(|c| {
                let nodes = &c.runs[0].nodes;
                nodes.iter().filter(|n| n.io.read_calls > 0).count() > 1
            })
    });
    assert!(spread, "striping never spread traffic past node 0");
}

/// Two same-seed runs of each cell are indistinguishable: contents,
/// analytic profiles, per-node counters, and the queue-depth sample
/// counts (one per operation, so deterministic even though the sampled
/// depths depend on timing).
fn same_seed_same_run(row: &Row, fam: &Family) {
    for cell in fam.cells(row) {
        let (a, b) = (&cell.runs[0], walk(row, cell.kernel, cell.version));
        assert_eq!(a.run().data, b.run().data, "{}: contents differ", a.what);
        for (p, q) in a.run().profiles.iter().zip(&b.run().profiles) {
            assert_eq!(
                rw(&p.stats),
                rw(&q.stats),
                "{} array {}: analytic profile differs between runs",
                a.what,
                p.name
            );
        }
        for (n, (x, y)) in a.nodes.iter().zip(&b.nodes).enumerate() {
            assert_eq!(
                measured_rw(&x.io),
                measured_rw(&y.io),
                "{} node {n}: per-node I/O differs between runs",
                a.what
            );
            assert_eq!(
                x.timing.depth_hist.count, y.timing.depth_hist.count,
                "{} node {n}: queue-depth sample counts differ",
                a.what
            );
        }
    }
}

/// Seeded faults replay identically: failure decisions key on each
/// store's call index, so a second run injects the same faults per
/// array and retries as often, whichever thread hits each fault.
fn faults_replay(row: &Row, fam: &Family) {
    for cell in fam.cells(row) {
        let (a, b) = (&cell.runs[0], walk(row, cell.kernel, cell.version));
        let injected = |o: &Outcome| {
            o.faults
                .iter()
                .map(FaultHandle::injected)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            injected(a),
            injected(&b),
            "{}: per-array injections differ",
            a.what
        );
        assert_eq!(
            a.run().total_stats().retries,
            b.run().total_stats().retries,
            "{}: retry totals differ",
            a.what
        );
        assert_eq!(a.run().data, b.run().data, "{}: contents differ", a.what);
    }
}

/// Survival is the retry policy's doing, not luck: with retries off,
/// the row's own fault stream kills each cell's run, and so does a
/// single fault that first fires in the staging loop, after seeding.
fn without_retries_faults_are_fatal(row: &Row, fam: &Family) {
    let (Policy::Sync(fraction), Plan::Transient(stream)) = (row.policy, row.plan) else {
        panic!("the without-retries probe rides a transient sync row");
    };
    let cfg = FunctionalConfig {
        runtime: RuntimeConfig {
            retry: RetryPolicy::none(),
            ..RuntimeConfig::default()
        },
        ..sync_config(fraction, None)
    };
    for cell in fam.cells(row) {
        let what = &cell.runs[0].what;
        let cv = compiled(cell.kernel, cell.version);
        let (tiled, params) = (&cv.tiled, &cell.kernel.small_params);
        let result = run_functional_on(tiled, params, &seed, &cfg, |a, _, len| {
            Ok(FaultStore::new(MemStore::new(len), stream(a)))
        });
        assert!(
            result.is_err(),
            "{what}: run without retries survived faults"
        );

        // That stream may already fail a seeding call. A fault-free
        // wrapped probe counts the busiest array's store calls; seeding
        // and the final dump move the same full region, so each takes
        // half of what the compute phase's own (analytic == store-level)
        // calls leave.
        let quiet = FaultConfig::transient(0, 0);
        let mut handles: Vec<FaultHandle> = Vec::new();
        let probe = run_functional_on(tiled, params, &seed, &cfg, |_, _, len| {
            let store = FaultStore::new(MemStore::new(len), quiet);
            handles.push(store.handle());
            Ok(store)
        })
        .expect("fault-free probe");
        let compute_calls = |a: usize| {
            let stats = &probe.profiles[a].stats;
            stats.read_calls + stats.write_calls
        };
        let target = (0..handles.len())
            .max_by_key(|&a| compute_calls(a))
            .expect("arrays");
        let total = handles[target].calls();
        let compute = compute_calls(target);
        let seeding = (total - compute) / 2;
        let staged = seeding..seeding + compute;
        let once = (0..1000)
            .map(|s| FaultConfig::first_n(s, 1))
            .find(|c| {
                let first = fault_plan(c, total).iter().position(|&fail| fail);
                first.is_some_and(|i| staged.contains(&(i as u64)))
            })
            .expect("a seed whose only fault lands in the staging phase");
        let err = run_functional_on(tiled, params, &seed, &cfg, |a, _, len| {
            let faults = if a == target { once } else { quiet };
            Ok(FaultStore::new(MemStore::new(len), faults))
        })
        .expect_err("a staging fault without retries must fail the run");
        assert!(
            err.to_string().contains("injected transient"),
            "{what}: {err}"
        );
    }
}

fn kernel(name: &str) -> &'static Kernel {
    kernels()
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("no kernel {name}"))
}
