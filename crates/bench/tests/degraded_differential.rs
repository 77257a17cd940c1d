//! The degraded differential sweep: kernels × versions ×
//! kill-each-node. Every parallel run over the 4-node parity-striped
//! medium must survive the permanent loss of any single I/O node —
//! dead from its first arrival or killed mid-run — and land
//! **bit-equal** to the fault-free run of the same kernel version,
//! with data-plane ledger conservation intact and journal replay
//! bounded by one checkpoint interval.
//!
//! `run_degraded_demo` (the `table3 --kill-node` harness) pins the
//! same contract for c-opt with exact-gated counters; this sweep
//! widens it across versions with differently-shaped I/O (col's
//! column walk misses where c-opt's tiled walk hits), where loss
//! discovery lands at different points of the schedule.

use ooc_bench::measured::measured_seed;
use ooc_bench::{DEGRADED_KERNELS, DEGRADED_NODES, DEGRADED_STRIPE_ELEMS};
use ooc_core::{
    max_intents_per_interval, run_parallel_surviving_node_loss, DurabilityConfig, FunctionalConfig,
    NodeLossOutcome, ParallelConfig, PipelineConfig, StripedMedium,
};
use ooc_kernels::{compile, kernel_by_name, Kernel, Version};
use ooc_runtime::{
    parse_journal, IoCause, LedgerRecorder, NodeFaultConfig, NodeHealth, ProvenanceLedger,
    StripeConfig,
};

const VERSIONS: [Version; 2] = [Version::COpt, Version::Col];

fn stripes() -> StripeConfig {
    StripeConfig {
        stripe_elems: DEGRADED_STRIPE_ELEMS,
        ..StripeConfig::with_nodes(DEGRADED_NODES)
    }
}

fn pcfg(ledger: LedgerRecorder) -> ParallelConfig {
    ParallelConfig {
        pipeline: PipelineConfig {
            functional: FunctionalConfig::with_fraction(16).with_ledger(ledger),
            ..PipelineConfig::default()
        },
        shards: 2,
    }
}

fn survive(
    k: &Kernel,
    tiled: &ooc_core::TiledProgram,
    faults: NodeFaultConfig,
    stamp: &str,
) -> (NodeLossOutcome, StripedMedium, ProvenanceLedger) {
    let rec = LedgerRecorder::new();
    rec.set_run(k.name, stamp);
    let mut medium = StripedMedium::with_faults(stripes(), faults).with_ledger(rec.clone());
    let out = run_parallel_surviving_node_loss(
        tiled,
        &k.small_params,
        &measured_seed,
        &pcfg(rec.clone()),
        &DurabilityConfig::default(),
        &mut medium,
    )
    .unwrap_or_else(|e| panic!("{} {stamp}: survival run failed: {e}", k.name));
    (out, medium, rec.take())
}

/// Data-plane conservation: exact only for c-opt, whose tiled walk
/// partitions cleanly across shards. col's column walk makes both
/// shards re-read overlapping input runs, so its recorded traffic
/// legitimately exceeds the serial analytic totals the checker uses.
fn assert_conserves(
    k: &Kernel,
    version: Version,
    stamp: &str,
    ledger: &ProvenanceLedger,
    out: &NodeLossOutcome,
) {
    if version != Version::COpt {
        return;
    }
    let stats: Vec<_> = out
        .outcome
        .run
        .run
        .profiles
        .iter()
        .map(|p| p.stats)
        .collect();
    if let Err(e) = ledger.check_conservation(&stats) {
        panic!("{} {stamp}: ledger conservation violated: {e}", k.name);
    }
}

/// The sweep itself. One test (not one per cell) so the fault-free
/// twin of each (kernel, version) is computed once and shared.
#[test]
fn every_version_survives_any_single_node_loss_bit_equal() {
    for kernel in DEGRADED_KERNELS {
        let k = kernel_by_name(kernel).expect("sweep kernel");
        for version in VERSIONS {
            let cv = compile(&k, version);
            let stamp = format!("{version:?}");

            // Fault-free twin: expected bits, arrival counts for the
            // mid-run kill, and the journal that bounds replay.
            let (healthy, medium, ledger) = survive(&k, &cv.tiled, NodeFaultConfig::new(), &stamp);
            assert!(healthy.loss.nodes_lost.is_empty(), "{kernel} {stamp}");
            assert_eq!(healthy.loss.resumes, 0, "{kernel} {stamp}");
            assert_conserves(&k, version, &stamp, &ledger, &healthy);
            let expected = healthy.outcome.run.run.data;
            let bound = max_intents_per_interval(&parse_journal(&medium.journal_bytes()));
            let arrivals: Vec<u64> = healthy
                .loss
                .node_stats
                .iter()
                .map(|n| n.io.total_calls() + n.repair.total_calls())
                .collect();

            // Kill-each-node at its first arrival, plus one mid-run
            // kill on the busiest node.
            let busiest = (0..DEGRADED_NODES)
                .max_by_key(|&n| arrivals[n])
                .expect("nodes");
            let mut kills: Vec<(usize, u64)> = (0..DEGRADED_NODES).map(|n| (n, 0)).collect();
            if arrivals[busiest] > 1 {
                kills.push((busiest, arrivals[busiest] / 2));
            }
            for (node, at) in kills {
                let faults = NodeFaultConfig::new().permanent_fail_at(node, at);
                let (out, medium, ledger) = survive(&k, &cv.tiled, faults, &stamp);
                assert_eq!(
                    out.outcome.run.run.data, expected,
                    "{kernel} {stamp}: node {node} killed at call {at}: diverged"
                );
                if out.loss.nodes_lost.is_empty() {
                    // Parity-plane-first kill: the single-fault model
                    // absorbs the loss in place, no resume needed —
                    // but the node must be marked dead.
                    assert_eq!(
                        medium.pool().health(node),
                        NodeHealth::Down,
                        "{kernel} {stamp}: node {node} neither discovered nor dead"
                    );
                } else {
                    assert_eq!(out.loss.nodes_lost, vec![node], "{kernel} {stamp}");
                    assert!(
                        out.loss.repair.get(IoCause::DegradedReconstruct).read_calls > 0,
                        "{kernel} {stamp}: node {node} lost but nothing reconstructed"
                    );
                }
                // Replay stays within one checkpoint interval.
                for (a, n) in &out.outcome.report.rolled_back_by_array {
                    let max = bound.get(a).copied().unwrap_or(0);
                    assert!(
                        *n <= max,
                        "{kernel} {stamp} kill node {node}@{at}: array {a} rolled back {n} > bound {max}"
                    );
                }
                // Conservation only applies to first-arrival kills:
                // a mid-run loss aborts a partially-executed schedule
                // whose data-plane traffic stays in the ledger (the
                // provenance record keeps everything that actually
                // moved), while the analytic totals describe only the
                // final completed schedule.
                if at == 0 {
                    assert_conserves(&k, version, &stamp, &ledger, &out);
                }
                // The finished (still-degraded) medium scrubs without
                // unrecoverable groups: single-fault redundancy held.
                let scrub = medium.scrub(false).expect("verify-only scrub");
                assert_eq!(scrub.unrecoverable, 0, "{kernel} {stamp} node {node}");
                assert_eq!(
                    scrub.clean + scrub.skipped + scrub.parity_mismatch,
                    scrub.groups,
                    "{kernel} {stamp} node {node}: scrub accounting"
                );
            }
        }
    }
}
