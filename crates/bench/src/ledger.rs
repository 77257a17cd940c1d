//! Provenance-ledger cells behind `table2 --ledger`, `inspect
//! --ledger`, and the live `/ledger` endpoint.
//!
//! Each cell runs one kernel version through the **synchronous**
//! functional executor at the kernel's functional-test size with a
//! [`LedgerRecorder`] attached, asserts the conservation law (cause
//! buckets sum exactly to the analytic I/O totals, per array, calls
//! and elements alike), and returns the finished ledger. The sync
//! walk is the deterministic executor — its cause classification
//! depends only on the program and the cache fraction, never on
//! thread timing — so `bench-compare` can gate the registered
//! `ledger_*` counters exactly.

use ooc_analyze::{diff_ledgers, LedgerDiff};
use ooc_core::exec::FunctionalRun;
use ooc_core::{run_functional_on, FunctionalConfig};
use ooc_kernels::{compile, seed, Kernel, Version};
use ooc_metrics::Registry;
use ooc_runtime::{LedgerRecorder, MemStore, ProvenanceLedger};
use pfs_sim::DiskParams;

/// Cache fraction the ledger cells run at: 1/16 of the total array
/// footprint, matching `inspect`'s measured view, so re-reads after
/// eviction (capacity misses) actually occur on the small inputs.
const LEDGER_FRACTION: u64 = 16;

/// The version pair the diff mode explains by default: the paper's
/// unoptimized baseline against its combined-optimization version.
pub const LEDGER_DIFF_PAIR: (Version, Version) = (Version::Col, Version::COpt);

/// Runs one `(kernel, version)` ledger cell on the synchronous
/// executor and checks cause-bucket conservation against the run's
/// analytic per-array totals.
///
/// # Panics
/// Panics when the run fails (in-memory stores cannot fail unless the
/// executor is broken) or when conservation is violated — the
/// invariant the ledger exists to guarantee.
#[must_use]
pub fn run_ledger_cell(kernel: &Kernel, version: Version) -> (ProvenanceLedger, FunctionalRun) {
    let cv = compile(kernel, version);
    let rec = LedgerRecorder::new();
    rec.set_run(kernel.name, version.label());
    let cfg = FunctionalConfig::with_fraction(LEDGER_FRACTION).with_ledger(rec.clone());
    let run = run_functional_on(&cv.tiled, &kernel.small_params, &seed, &cfg, |_, _, len| {
        Ok(MemStore::new(len))
    })
    .expect("ledger run over in-memory stores");
    let ledger = rec.take();
    let stats: Vec<_> = run.profiles.iter().map(|p| p.stats).collect();
    if let Err(e) = ledger.check_conservation(&stats) {
        panic!(
            "{} {}: ledger conservation violated: {e}",
            kernel.name,
            version.label()
        );
    }
    (ledger, run)
}

/// The version-diff cell: runs both versions of `kernel` and explains
/// where the bytes went (e.g. which capacity misses the optimized
/// version eliminated and why).
#[must_use]
pub fn run_ledger_diff(
    kernel: &Kernel,
    from: Version,
    to: Version,
    disk: &DiskParams,
) -> LedgerDiff {
    let (a, _) = run_ledger_cell(kernel, from);
    let (b, _) = run_ledger_cell(kernel, to);
    diff_ledgers(&a, &b, disk)
}

/// Registers a ledger's cause buckets under `(kernel, version)`
/// labels taken from the ledger's own identity stamp.
pub fn ledger_register(registry: &Registry, ledger: &ProvenanceLedger, disk: &DiskParams) {
    let labels = [
        ("kernel", ledger.kernel.as_str()),
        ("version", ledger.version.as_str()),
    ];
    ooc_analyze::ledger::register_metrics(ledger, disk, registry, &labels);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_kernels::kernel_by_name;
    use ooc_metrics::{Snapshot, Value};
    use ooc_runtime::IoCause;

    #[test]
    fn trans_cell_conserves_and_registers() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let (ledger, _) = run_ledger_cell(&k, Version::Col);
        assert_eq!(ledger.kernel, "trans");
        assert_eq!(ledger.version, "col");
        assert_eq!(ledger.executor, "sync");
        assert!(ledger.cause_elems(IoCause::Compulsory) > 0);
        let r = Registry::new();
        ledger_register(&r, &ledger, &DiskParams::default());
        let snap = Snapshot::capture("test", &r);
        let labels = [
            ("cause", "compulsory"),
            ("kernel", "trans"),
            ("version", "col"),
        ];
        match snap.get("ledger_bytes_total", &labels) {
            Some(Value::Counter(n)) => assert!(*n > 0),
            other => panic!("expected compulsory bytes counter, got {other:?}"),
        }
    }

    #[test]
    fn diff_cell_prices_both_sides() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let k = kernel_by_name("trans").expect("kernel");
        let (from, to) = LEDGER_DIFF_PAIR;
        let diff = run_ledger_diff(&k, from, to, &DiskParams::default());
        assert!(diff.a_seconds > 0.0 && diff.b_seconds > 0.0);
        let text = diff.render();
        assert!(text.contains("ledger diff"), "{text}");
    }
}
