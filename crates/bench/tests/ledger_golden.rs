//! Golden tests of the provenance-ledger version diff on worked
//! examples: the col → c-opt comparison must *explain* the reduction,
//! quantitatively, for the paper's flagship kernels. The sync
//! executor's cause classification is fully deterministic, so the
//! asserted numbers are exact — a change here means the optimizer,
//! the scheduler, or the ledger classification itself changed.

use ooc_analyze::diff_ledgers;
use ooc_bench::{run_degraded_demo, run_ledger_cell, run_ledger_diff, LEDGER_DIFF_PAIR};
use ooc_kernels::kernel_by_name;
use ooc_runtime::IoCause;
use pfs_sim::DiskParams;

#[test]
fn trans_diff_explains_call_batching() {
    let k = kernel_by_name("trans").expect("kernel");
    let (from, to) = LEDGER_DIFF_PAIR;
    let diff = run_ledger_diff(&k, from, to, &DiskParams::default());
    // trans moves the same bytes in three times fewer calls: the
    // explanation must name the capacity-miss call batching.
    assert!(
        diff.b_seconds < diff.a_seconds,
        "c-opt must price cheaper: {} vs {}",
        diff.b_seconds,
        diff.a_seconds
    );
    let text = diff.render();
    assert!(
        diff.explanations.iter().any(|e| e.contains("capacity_miss")
            && e.contains("eliminates")
            && e.contains("array")),
        "no capacity-miss explanation:\n{text}"
    );
    assert!(
        diff.explanations
            .iter()
            .any(|e| e.contains("elems per call")),
        "call-batching story missing:\n{text}"
    );
    // The worked example, exactly: 80 capacity-miss calls disappear
    // on array B as runs lengthen from 2 to 10 elements per call.
    assert!(
        diff.explanations.iter().any(|e| e.contains(
            "c-opt eliminates 80 capacity_miss I/O calls on array B with bytes unchanged"
        )),
        "quantitative trans explanation drifted:\n{text}"
    );
}

#[test]
fn mxm_diff_explains_capacity_miss_bytes() {
    let k = kernel_by_name("mxm").expect("kernel");
    let (from, to) = LEDGER_DIFF_PAIR;
    let diff = run_ledger_diff(&k, from, to, &DiskParams::default());
    assert!(
        diff.b_seconds < diff.a_seconds,
        "c-opt must price cheaper: {} vs {}",
        diff.b_seconds,
        diff.a_seconds
    );
    let text = diff.render();
    // The worked example, exactly: c-opt's loop order keeps array A's
    // reuse inside the cache, eliminating 4,096 re-read bytes that
    // col paid as capacity misses.
    assert!(
        diff.explanations.iter().any(|e| e
            .contains("c-opt eliminates 4,096 capacity_miss bytes on array A")
            && e.contains("the reuse distance now fits the cache")),
        "quantitative mxm explanation drifted:\n{text}"
    );
    assert!(
        diff.explanations
            .iter()
            .any(|e| e.contains("re-read") && e.contains("evicted regions")),
        "eviction forensics missing:\n{text}"
    );
}

#[test]
fn trans_degraded_diff_explains_the_repair_traffic() {
    // Healthy vs node-0-dead-from-first-arrival on trans c-opt: the
    // degraded run's extra bytes must be attributed to the repair
    // causes, quantitatively. First-arrival kills discover, quarantine
    // and resume on a serial schedule, so the repair-side numbers are
    // exact (the same ones gated against BENCH_degraded_seed.json).
    let demo = run_degraded_demo("trans", Some(0));
    let cell = demo.cells.first().expect("one kill cell");
    let diff = diff_ledgers(&demo.healthy_ledger, &cell.ledger, &DiskParams::default());
    assert!(
        diff.b_seconds > diff.a_seconds,
        "losing a node must price dearer: {} vs {}",
        diff.b_seconds,
        diff.a_seconds
    );
    let text = diff.render();
    // The worked example, exactly: reads that would have hit the dead
    // node rebuild by XOR from the three survivors, dominated by the
    // input array B.
    assert!(
        diff.explanations.iter().any(|e| e
            .contains("adds 55,328 degraded_reconstruct bytes on array B")
            && e.contains("rebuilt by XOR from surviving peers")),
        "quantitative reconstruction explanation drifted:\n{text}"
    );
    assert!(
        diff.explanations
            .iter()
            .any(|e| e.contains("degraded_reconstruct bytes on array A")),
        "array A reconstruction missing:\n{text}"
    );
    // Parity upkeep *shrinks* degraded: writes that would land on the
    // dead node skip their RMW (the group's parity is the write).
    assert!(
        diff.explanations
            .iter()
            .any(|e| e.contains("parity_write") && e.contains("redundancy upkeep")),
        "parity-upkeep explanation missing:\n{text}"
    );
}

#[test]
fn diff_pair_ledgers_carry_belady_foresight() {
    // The eviction detail that powers the explanations must be
    // populated: capacity misses on the col side record the evicting
    // step, and at least some evictions knew their next use.
    let k = kernel_by_name("mxm").expect("kernel");
    let (ledger, _) = run_ledger_cell(&k, LEDGER_DIFF_PAIR.0);
    let with_detail = ledger
        .events
        .iter()
        .filter(|e| e.cause == IoCause::CapacityMiss && e.evict.is_some())
        .count();
    assert!(
        with_detail > 0,
        "capacity misses must carry eviction forensics"
    );
}
