//! The crash-recovery experiment behind `figure5` and
//! `inspect --recovery`, shared with the perf-regression gate so a
//! fresh in-process run registers byte-identically to the committed
//! `BENCH_recovery_seed.json` baseline.
//!
//! One cell = one (checkpoint interval × crash point) combination on a
//! kernel's c-opt version: run the *durable* synchronous executor
//! until an injected crash (clean `CrashAt` or torn `TornWrite`),
//! verify torn data is detected by the checksum layer, resume, assert
//! the recovered contents are bit-equal to an uninterrupted run, and
//! price recovery as the resumed run's element traffic over a full
//! rerun's. Every counter is deterministic — the durable functional
//! executor is single-threaded and fault replay is seeded.

use ooc_core::{
    max_intents_per_interval, run_durable, run_functional_durable, DurabilityConfig, DurableMedium,
    DurableOutcome, DurableStore, FunctionalConfig, MemMedium, RecoveryReport, Start,
};
use ooc_kernels::{compile, kernel_by_name, seed, Kernel, Version};
use ooc_metrics::Registry;
use ooc_runtime::{is_crashed, parse_journal, ChecksummedStore, CrashedError, FaultConfig};
use std::collections::BTreeMap;

/// Checkpoint intervals (tile rows per checkpoint) the sweep covers.
const INTERVALS: [u64; 3] = [1, 2, 4];

fn fcfg() -> FunctionalConfig {
    FunctionalConfig::with_fraction(16)
}

fn total_elems(out: &DurableOutcome) -> u64 {
    out.run
        .profiles
        .iter()
        .map(|p| p.stats.read_elems + p.stats.write_elems)
        .sum()
}

/// One crash-and-recover measurement.
#[derive(Debug, Clone)]
pub struct RecoveryCell {
    /// Tile rows per checkpoint.
    pub interval: u64,
    /// Store-call index the fault fired at.
    pub crash_at: u64,
    /// `true` = torn-write mode was injected, `false` = clean crash.
    pub torn: bool,
    /// Whether a torn prefix actually landed in the store — only
    /// possible when the dying call was a write (the fault layer
    /// reports this in the crash error's payload).
    pub torn_landed: bool,
    /// Whether the checksum layer flagged the crashed store before
    /// rollback. Always `true` when a torn prefix landed; may also be
    /// `true` for a clean crash that died between a data write and its
    /// sidecar update — the checksum layer orders data before CRC so
    /// every interrupted write is *detectable*, never silently trusted.
    pub detected_corrupt: bool,
    /// The resumed run's recovery counters.
    pub report: RecoveryReport,
    /// Elements moved by the resumed run (rollback + restart).
    pub resume_elems: u64,
    /// Elements a full uninterrupted rerun moves.
    pub full_elems: u64,
    /// Whether the recovered rollback stayed within the per-array
    /// one-checkpoint-interval intent bound.
    pub replay_bounded: bool,
}

impl RecoveryCell {
    /// Recovered-vs-rerun I/O cost (1.0 = as expensive as starting
    /// over).
    #[must_use]
    pub fn replay_ratio(&self) -> f64 {
        if self.full_elems == 0 {
            0.0
        } else {
            self.resume_elems as f64 / self.full_elems as f64
        }
    }
}

/// The full sweep on one kernel.
#[derive(Debug, Clone)]
pub struct RecoveryDemo {
    /// Kernel name.
    pub kernel: String,
    /// One cell per (interval × crash point).
    pub cells: Vec<RecoveryCell>,
}

fn run_one_interval(
    k: &Kernel,
    tiled: &ooc_core::TiledProgram,
    interval: u64,
    crashes: usize,
    cells: &mut Vec<RecoveryCell>,
) {
    let dur = DurabilityConfig {
        checkpoint_rows: interval,
        ..DurabilityConfig::default()
    };
    // Uninterrupted baseline with a rate-0 fault wrap: counts each
    // array's store calls (the crash-index domain) without injecting.
    let mut base = MemMedium::new();
    let baseline = run_functional_durable(
        tiled,
        &k.small_params,
        &seed,
        &fcfg(),
        &dur,
        &mut base,
        &|_| Some(FaultConfig::transient(11, 0)),
    )
    .expect("baseline durable run");
    let calls: Vec<u64> = baseline
        .fault_handles
        .iter()
        .map(|h| h.as_ref().expect("wrapped").calls())
        .collect();
    let target = (0..calls.len()).max_by_key(|&a| calls[a]).unwrap_or(0);
    let bound = max_intents_per_interval(&parse_journal(&base.journal_bytes()));
    let full_elems = total_elems(&baseline);

    for i in 1..=crashes {
        let at = calls[target] * i as u64 / (crashes as u64 + 1);
        let torn = i % 2 == 0;
        let mut medium = MemMedium::new();
        let err = run_functional_durable(
            tiled,
            &k.small_params,
            &seed,
            &fcfg(),
            &dur,
            &mut medium,
            &|a| {
                (a == target).then(|| {
                    if torn {
                        FaultConfig::torn_write(at, 500)
                    } else {
                        FaultConfig::crash_at(at)
                    }
                })
            },
        )
        .expect_err("injected crash must abort the run");
        assert!(is_crashed(&err), "unexpected error: {err}");
        let torn_landed = err
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<CrashedError>())
            .is_some_and(|c| c.torn);

        // Integrity probe before rollback: reattach the checksum layer
        // over the crashed medium and scan. A landed torn prefix must
        // fail verification (its sidecar CRC is stale).
        let detected_corrupt = {
            let decl = &tiled.program.arrays[target];
            let dims: Vec<i64> = decl
                .dims
                .iter()
                .map(|d| d.resolve(&k.small_params))
                .collect();
            let len = u64::try_from(dims.iter().product::<i64>()).expect("positive size");
            let data = medium
                .data(target, &decl.name, len)
                .expect("medium data handle");
            let side = medium
                .sidecar(
                    target,
                    &decl.name,
                    DurableStore::sidecar_len(len, dur.chunk_elems),
                )
                .expect("medium sidecar handle");
            let cs = ChecksummedStore::attach(data, side, dur.chunk_elems)
                .expect("attach checksum probe");
            cs.verify().is_err()
        };
        assert!(
            detected_corrupt || !torn_landed,
            "{}: a landed torn prefix escaped checksum detection \
             (interval {interval}, crash at {at})",
            k.name
        );

        let out = run_durable(
            tiled,
            &k.small_params,
            &seed,
            &fcfg(),
            &dur,
            &mut medium,
            &|_| None,
            Start::Resume,
        )
        .expect("resume after crash");
        assert_eq!(
            out.run.data, baseline.run.data,
            "{}: recovered run diverges (interval {interval}, crash at {at}, torn {torn})",
            k.name
        );
        let replay_bounded = out
            .report
            .rolled_back_by_array
            .iter()
            .all(|(a, n)| *n <= bound.get(a).copied().unwrap_or(0));
        cells.push(RecoveryCell {
            interval,
            crash_at: at,
            torn,
            torn_landed,
            detected_corrupt,
            resume_elems: total_elems(&out),
            full_elems,
            replay_bounded,
            report: out.report,
        });
    }
}

/// Runs the sweep: for every checkpoint interval, `crashes` evenly
/// spaced crash points on the busiest array, alternating clean and
/// torn crashes. Panics if any recovery is not bit-equal to the
/// uninterrupted run — that is the experiment's contract.
///
/// # Panics
/// Panics on an unknown kernel or any recovery-invariant violation.
#[must_use]
pub fn run_recovery_demo(kernel: &str, crashes: usize) -> RecoveryDemo {
    let k = kernel_by_name(kernel).unwrap_or_else(|| panic!("unknown kernel `{kernel}`"));
    let cv = compile(&k, Version::COpt);
    let mut cells = Vec::new();
    for &interval in &INTERVALS {
        run_one_interval(&k, &cv.tiled, interval, crashes, &mut cells);
    }
    RecoveryDemo {
        kernel: k.name.to_string(),
        cells,
    }
}

/// Registers the sweep's deterministic counters per
/// `{kernel, version, interval, crash}` — what the perf-regression
/// gate diffs against `BENCH_recovery_seed.json`.
pub fn recovery_register(registry: &Registry, demo: &RecoveryDemo) {
    for cell in &demo.cells {
        let interval = cell.interval.to_string();
        let crash = cell.crash_at.to_string();
        let labels = [
            ("kernel", demo.kernel.as_str()),
            ("version", "c-opt"),
            ("interval", interval.as_str()),
            ("crash", crash.as_str()),
        ];
        let c = |name: &str, v: u64| registry.counter_add(name, &labels, v);
        c("journal_intents_total", cell.report.journal_intents);
        c("journal_commits_total", cell.report.journal_commits);
        c("checkpoints_total", cell.report.checkpoints);
        c(
            "recovery_replayed_tiles_total",
            cell.report.rolled_back_tiles,
        );
        c("recovery_skipped_steps_total", cell.report.skipped_steps);
        c("recovery_executed_steps_total", cell.report.executed_steps);
        c("torn_detected_total", u64::from(cell.detected_corrupt));
        c("resume_io_elems_total", cell.resume_elems);
        c("full_io_elems_total", cell.full_elems);
        registry.gauge_set("replay_ratio", &labels, cell.replay_ratio());
    }
}

/// Summarises per-interval replay cost: `(interval, mean replay
/// ratio, all cells bounded)`.
#[must_use]
pub fn interval_summary(demo: &RecoveryDemo) -> Vec<(u64, f64, bool)> {
    let mut by: BTreeMap<u64, (f64, u64, bool)> = BTreeMap::new();
    for c in &demo.cells {
        let e = by.entry(c.interval).or_insert((0.0, 0, true));
        e.0 += c.replay_ratio();
        e.1 += 1;
        e.2 &= c.replay_bounded;
    }
    by.into_iter()
        .map(|(i, (sum, n, ok))| (i, sum / n.max(1) as f64, ok))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_cells_recover_and_register_deterministically() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let demo = run_recovery_demo("trans", 2);
        assert_eq!(demo.cells.len(), INTERVALS.len() * 2);
        assert!(demo.cells.iter().all(|c| c.report.resumed));
        assert!(demo.cells.iter().all(|c| c.replay_bounded));
        // Torn-mode cells exist, and every landed torn prefix must be
        // caught by the checksum layer.
        assert!(demo.cells.iter().filter(|c| c.torn).count() > 0);
        assert!(demo
            .cells
            .iter()
            .all(|c| c.detected_corrupt || !c.torn_landed));
        // Registration is deterministic across fresh runs.
        let again = run_recovery_demo("trans", 2);
        let (a, b) = (Registry::new(), Registry::new());
        recovery_register(&a, &demo);
        recovery_register(&b, &again);
        assert_eq!(
            ooc_metrics::Snapshot::capture("x", &a).samples,
            ooc_metrics::Snapshot::capture("x", &b).samples
        );
    }

    #[test]
    fn tighter_intervals_replay_less() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let demo = run_recovery_demo("trans", 3);
        let summary = interval_summary(&demo);
        assert_eq!(summary.len(), INTERVALS.len());
        for (_, ratio, bounded) in &summary {
            assert!(*ratio > 0.0);
            assert!(bounded);
        }
    }
}
