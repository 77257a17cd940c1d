//! The degraded-mode experiment behind `table3 --kill-node`,
//! `inspect --scrub`, and the CI degraded smoke step.
//!
//! One demo = one kernel's c-opt version run through the durable
//! **parallel** executor over a [`StripedMedium`]: every array
//! striped with a rotating parity lane across four simulated I/O
//! nodes. The sweep kills each node in turn *at its very first
//! arrival* (the node is dead from the start — discovery, quarantine,
//! and resume all happen on a serial, deterministic schedule, so
//! every repair counter exact-gates against the committed
//! `BENCH_degraded_seed.json`), then samples **mid-run** and
//! **late** (write-behind-drain) kill points placed from a fault-free
//! twin's arrival counts — those cells assert the bit-equality and
//! bounded-replay contract but register nothing deterministic,
//! because discovery timing under concurrent shards legitimately
//! moves the split between pre- and post-loss traffic.
//!
//! Each killed cell closes with a verify-only scrub (groups touching
//! the dead node are skipped, everything else must be clean) and a
//! healthy-vs-degraded bandwidth pricing from `pfs-sim`'s
//! [`price_degraded`] fan-out model.

use ooc_core::{
    max_intents_per_interval, run_durable, DurabilityConfig, DurableOutcome, FunctionalConfig,
    ParallelConfig, ParallelRun, PipelineConfig, RecoveryReport, Start, StripedMedium,
    TiledProgram,
};
use ooc_kernels::{compile, kernel_by_name, Kernel, Version};
use ooc_metrics::Registry;
use ooc_runtime::{
    parse_journal, IoCause, LedgerRecorder, NodeFaultConfig, NodeStats, ProvenanceLedger, RepairIo,
    ScrubReport, StripeConfig,
};
use pfs_sim::{price_degraded, DegradedReport, DiskParams, NodeLoad};

use crate::measured::measured_seed;

/// I/O nodes of the degraded sweep (one lost at a time; K−1 = 3
/// survivors reconstruct).
pub const DEGRADED_NODES: usize = 4;

/// Kernels the degraded harness (`table3 --kill-node`, the CI smoke
/// step) sweeps: one square transpose-bound kernel and one
/// multiply-bound kernel, both quick at functional scale.
pub const DEGRADED_KERNELS: [&str; 2] = ["trans", "mxm"];

/// Stripe unit of the degraded sweep, in elements — small enough that
/// the kernels' functional-test arrays spread over all four nodes and
/// every node owns both data stripes and rotating parity chunks.
pub const DEGRADED_STRIPE_ELEMS: u64 = 8;

fn stripes() -> StripeConfig {
    StripeConfig {
        stripe_elems: DEGRADED_STRIPE_ELEMS,
        ..StripeConfig::with_nodes(DEGRADED_NODES)
    }
}

/// One durable run of `k`'s `tiled` program on the step engine at two
/// shards, over a fresh striped medium with the node deaths `faults`;
/// `run_durable` retries each newly lost node. `ledger`, when given,
/// books both the walk and the medium's repair traffic.
fn survive(
    k: &Kernel,
    tiled: &TiledProgram,
    faults: NodeFaultConfig,
    ledger: Option<&LedgerRecorder>,
) -> (DurableOutcome<ParallelRun>, StripedMedium) {
    let mut medium = StripedMedium::with_faults(stripes(), faults);
    let mut functional = FunctionalConfig::with_fraction(16);
    if let Some(rec) = ledger {
        medium = medium.with_ledger(rec.clone());
        functional = functional.with_ledger(rec.clone());
    }
    let cfg = ParallelConfig {
        pipeline: PipelineConfig {
            functional,
            ..PipelineConfig::default()
        },
        shards: 2,
    };
    let (dur, params) = (DurabilityConfig::default(), &k.small_params);
    let run = run_durable(
        tiled,
        params,
        &measured_seed,
        &cfg,
        &dur,
        &mut medium,
        &|_| None,
        Start::Fresh,
    );
    (run.expect("degraded survival run"), medium)
}

/// One deterministic kill cell: node `killed` dead from its first
/// arrival, run survived through quarantine and a retry.
#[derive(Debug)]
pub struct DegradedCell {
    /// The node killed.
    pub killed: usize,
    /// The final session's report: its retries (a first-arrival kill
    /// surfaces during seeding, before the first boundary, so a retry
    /// restarts rather than resumes) and the intents it rolled back.
    pub report: RecoveryReport,
    /// Repair-plane traffic by cause, summed over nodes.
    pub repair: RepairIo,
    /// Verify-only scrub of the finished (still-degraded) medium.
    pub scrub: ScrubReport,
    /// The degraded run's provenance ledger (repair causes populate
    /// the repair channel; data-plane conservation still holds).
    pub ledger: ProvenanceLedger,
    /// Healthy-vs-degraded bandwidth pricing for this node's loss,
    /// from the healthy twin's per-node loads.
    pub priced: DegradedReport,
}

impl DegradedCell {
    /// Retries whose session found no boundary and started over. The
    /// single-fault model allows one successful retry, so this is
    /// that retry unless its session resumed.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.report.retries - u64::from(self.report.resumed)
    }
}

/// The full sweep on one kernel.
#[derive(Debug)]
pub struct DegradedDemo {
    /// Kernel name.
    pub kernel: String,
    /// Version label (always c-opt — the optimized walk).
    pub version: String,
    /// Fault-free twin: per-node stats (loads for pricing, arrival
    /// counts for mid-run kill placement).
    pub healthy_stats: Vec<NodeStats>,
    /// The twin's parity-upkeep traffic (every data write pays a
    /// parity read-modify-write even with no faults).
    pub healthy_repair: RepairIo,
    /// The twin's provenance ledger.
    pub healthy_ledger: ProvenanceLedger,
    /// One deterministic first-arrival kill per node.
    pub cells: Vec<DegradedCell>,
    /// Extra `(node, kill_at)` points verified bit-equal (mid-run and
    /// write-behind-drain kills; counters not registered).
    pub sampled_kills: Vec<(usize, u64)>,
}

fn node_loads(stats: &[NodeStats]) -> Vec<NodeLoad> {
    stats
        .iter()
        .map(|n| NodeLoad {
            calls: n.io.total_calls() + n.repair.total_calls(),
            bytes: (n.io.read_elems + n.io.write_elems + n.repair.total_elems())
                * ooc_runtime::ELEM_BYTES,
        })
        .collect()
}

/// [`survive`] with a ledger stamped `version_stamp`, returned taken.
fn survive_recorded(
    k: &Kernel,
    tiled: &TiledProgram,
    faults: NodeFaultConfig,
    version_stamp: &str,
) -> (DurableOutcome<ParallelRun>, StripedMedium, ProvenanceLedger) {
    let rec = LedgerRecorder::new();
    rec.set_run(k.name, version_stamp);
    let (out, medium) = survive(k, tiled, faults, Some(&rec));
    (out, medium, rec.take())
}

/// Runs the degraded sweep on `kernel`'s c-opt version: a fault-free
/// twin, one first-arrival kill per node (or only `kill_node` when
/// given), and sampled mid-run / drain-phase kills. Panics if any
/// survived run is not bit-equal to the fault-free one, if data-plane
/// ledger conservation breaks, or if replay exceeds one checkpoint
/// interval — that is the experiment's contract.
///
/// # Panics
/// Panics on an unknown kernel or any degraded-mode invariant
/// violation.
#[must_use]
pub fn run_degraded_demo(kernel: &str, kill_node: Option<usize>) -> DegradedDemo {
    let k = kernel_by_name(kernel).unwrap_or_else(|| panic!("unknown kernel `{kernel}`"));
    let cv = compile(&k, Version::COpt);
    let disk = DiskParams::default();

    // Fault-free twin: expected bits, healthy loads, arrival counts,
    // and the journal that bounds replay.
    let (healthy, healthy_medium, healthy_ledger) =
        survive_recorded(&k, &cv.tiled, NodeFaultConfig::new(), "c-opt-healthy");
    assert!(healthy_medium.nodes_lost().is_empty());
    let expected = healthy.run.run.data.clone();
    assert_ledger_conserves(&k, &healthy_ledger, &healthy);
    let healthy_stats = healthy_medium.node_stats();
    let healthy_loads = node_loads(&healthy_stats);
    let arrivals: Vec<u64> = healthy_stats
        .iter()
        .map(|n| n.io.total_calls() + n.repair.total_calls())
        .collect();
    let bound = max_intents_per_interval(&parse_journal(&healthy_medium.journal_bytes()));

    let targets: Vec<usize> = match kill_node {
        Some(n) => {
            assert!(
                n < DEGRADED_NODES,
                "--kill-node {n}: only {DEGRADED_NODES} nodes"
            );
            vec![n]
        }
        None => (0..DEGRADED_NODES).collect(),
    };
    let mut cells = Vec::new();
    for &node in &targets {
        let faults = NodeFaultConfig::new().permanent_fail_at(node, 0);
        let (out, medium, ledger) = survive_recorded(&k, &cv.tiled, faults, "c-opt-degraded");
        assert_eq!(
            out.run.run.data, expected,
            "{}: degraded run diverged with node {node} dead",
            k.name
        );
        // Lost whether a shard's access discovered the death (typed
        // error, one retry) or the node's first arrival was a
        // parity-plane call, which the single-fault model tolerates in
        // place: the node goes down, every later data access degrades
        // silently and redundancy absorbs the loss with no retry at
        // all.
        assert_eq!(medium.nodes_lost(), [(node, 0)]);
        assert_ledger_conserves(&k, &ledger, &out);
        for (a, n) in &out.report.rolled_back_by_array {
            let max = bound.get(a).copied().unwrap_or(0);
            assert!(*n <= max, "array {a}: rolled back {n} > bound {max}");
        }
        // The run's repair traffic, before the scrub adds its reads.
        let repair = medium.total_repair();
        let scrub = medium.scrub(false).expect("verify-only scrub");
        assert_eq!(
            scrub.unrecoverable, 0,
            "{}: scrub found unrecoverable groups with one node down",
            k.name
        );
        cells.push(DegradedCell {
            killed: node,
            report: out.report,
            repair,
            scrub,
            ledger,
            priced: price_degraded(&healthy_loads, node, &disk),
        });
    }

    // Sampled kill points on the busiest node: mid-run and the tail
    // of the arrival stream (write-behind drain). Bit-equality is the
    // contract; counters stay unregistered (discovery timing under
    // concurrent shards is not deterministic).
    let busiest = (0..DEGRADED_NODES)
        .max_by_key(|&n| arrivals[n])
        .expect("nodes");
    let mut sampled_kills = Vec::new();
    for at in [arrivals[busiest] / 2, arrivals[busiest].saturating_sub(2)] {
        if at == 0 {
            continue;
        }
        let faults = NodeFaultConfig::new().permanent_fail_at(busiest, at);
        let (out, _) = survive(&k, &cv.tiled, faults, None);
        assert_eq!(
            out.run.run.data, expected,
            "{}: node {busiest} killed at call {at}: survived run diverged",
            k.name
        );
        for (a, n) in &out.report.rolled_back_by_array {
            let max = bound.get(a).copied().unwrap_or(0);
            assert!(
                *n <= max,
                "kill@{at} array {a}: rolled back {n} > bound {max}"
            );
        }
        sampled_kills.push((busiest, at));
    }

    DegradedDemo {
        kernel: k.name.to_string(),
        version: "c-opt".to_string(),
        healthy_stats,
        healthy_repair: healthy_medium.total_repair(),
        healthy_ledger,
        cells,
        sampled_kills,
    }
}

fn assert_ledger_conserves(
    k: &Kernel,
    ledger: &ProvenanceLedger,
    out: &DurableOutcome<ParallelRun>,
) {
    let stats: Vec<_> = out.run.run.profiles.iter().map(|p| p.stats).collect();
    if let Err(e) = ledger.check_conservation(&stats) {
        panic!("{}: degraded-run ledger conservation violated: {e}", k.name);
    }
}

/// Registers the sweep's counters per `{kernel, version, killed}`.
/// Repair, scrub, and restart counters from the first-arrival kills
/// are deterministic (exact-gated by `bench-compare` against
/// `BENCH_degraded_seed.json`); priced slowdowns register as gauges
/// (warn-only).
pub fn degraded_register(registry: &Registry, demo: &DegradedDemo) {
    // The healthy twin's parity upkeep, under killed="none".
    let base = [
        ("kernel", demo.kernel.as_str()),
        ("version", demo.version.as_str()),
        ("killed", "none"),
    ];
    registry.counter_add(
        "repair_parity_write_calls_total",
        &base,
        demo.healthy_repair.get(IoCause::ParityWrite).total_calls(),
    );
    registry.counter_add(
        "repair_calls_total",
        &base,
        demo.healthy_repair.total_calls(),
    );
    registry.counter_add(
        "repair_elems_total",
        &base,
        demo.healthy_repair.total_elems(),
    );
    for cell in &demo.cells {
        let killed = cell.killed.to_string();
        let labels = [
            ("kernel", demo.kernel.as_str()),
            ("version", demo.version.as_str()),
            ("killed", killed.as_str()),
        ];
        let c = |name: &str, v: u64| registry.counter_add(name, &labels, v);
        for cause in IoCause::REPAIR {
            let ctr = cell.repair.get(cause);
            c(
                &format!("repair_{}_calls_total", cause.label()),
                ctr.total_calls(),
            );
            c(
                &format!("repair_{}_elems_total", cause.label()),
                ctr.total_elems(),
            );
        }
        c("repair_calls_total", cell.repair.total_calls());
        c("repair_elems_total", cell.repair.total_elems());
        c("node_loss_restarts_total", cell.restarts());
        c(
            "recovery_replayed_tiles_total",
            cell.report.rolled_back_tiles,
        );
        c("scrub_groups_total", cell.scrub.groups);
        c("scrub_clean_total", cell.scrub.clean);
        c("scrub_skipped_total", cell.scrub.skipped);
        c("scrub_unrecoverable_total", cell.scrub.unrecoverable);
        // Priced healthy-vs-degraded bandwidth: gauges (model output,
        // stable, but bench-compare treats gauges as warn-only).
        registry.gauge_set("priced_degraded_slowdown", &labels, cell.priced.slowdown());
        registry.gauge_set(
            "priced_bandwidth_retention",
            &labels,
            cell.priced.bandwidth_retention(),
        );
        registry.gauge_set(
            "priced_degraded_makespan_s",
            &labels,
            cell.priced.degraded.makespan_s,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ooc_analyze::diff_ledgers;
    use ooc_metrics::Snapshot;

    #[test]
    fn degraded_demo_survives_and_registers_deterministically() {
        let _no_sessions = ooc_trace::exclude_sessions();
        let demo = run_degraded_demo("trans", None);
        assert_eq!(demo.cells.len(), DEGRADED_NODES);
        assert_eq!(demo.sampled_kills.len(), 2, "{:?}", demo.sampled_kills);
        for cell in &demo.cells {
            // At most one retry, and a first-arrival kill surfaces
            // during seeding, so its session finds no boundary.
            assert!(
                cell.report.retries <= 1 && !cell.report.resumed,
                "node {}: {:?}",
                cell.killed,
                cell.report
            );
            assert!(
                cell.repair.get(IoCause::DegradedReconstruct).read_calls > 0,
                "node {}: no reconstruction traffic",
                cell.killed
            );
            assert!(cell.priced.slowdown() >= 1.0);
            // The dead node's groups are skipped, the rest verify clean.
            assert!(cell.scrub.skipped > 0, "node {}", cell.killed);
            assert_eq!(cell.scrub.clean + cell.scrub.skipped, cell.scrub.groups);
        }
        // Data-plane-first kills need exactly one retry;
        // parity-plane-first kills are absorbed with none.
        assert!(demo.cells.iter().map(|c| c.report.retries).sum::<u64>() >= 1);
        // The healthy twin pays parity upkeep but nothing else.
        assert!(demo.healthy_repair.get(IoCause::ParityWrite).write_calls > 0);
        assert_eq!(
            demo.healthy_repair
                .get(IoCause::DegradedReconstruct)
                .read_calls,
            0
        );
        // Registration is deterministic across fresh runs.
        let again = run_degraded_demo("trans", None);
        let (a, b) = (Registry::new(), Registry::new());
        degraded_register(&a, &demo);
        degraded_register(&b, &again);
        assert_eq!(
            Snapshot::capture("x", &a).samples,
            Snapshot::capture("x", &b).samples
        );
    }

    #[test]
    fn healthy_vs_degraded_diff_names_the_repair_causes() {
        let _no_sessions = ooc_trace::exclude_sessions();
        // Where the extra bytes of losing node 1 went, cause by cause.
        let demo = run_degraded_demo("trans", Some(1));
        let cell = demo.cells.first().expect("one kill cell");
        let diff = diff_ledgers(&demo.healthy_ledger, &cell.ledger, &DiskParams::default());
        let text = diff.render();
        assert!(
            text.contains("degraded_reconstruct"),
            "diff must surface reconstruction traffic:\n{text}"
        );
        assert!(
            text.contains("parity_write"),
            "diff must surface parity upkeep:\n{text}"
        );
    }
}
