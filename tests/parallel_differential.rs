//! Differential tests of the measured multi-node parallel executor:
//! every kernel's six versions run through `exec_parallel` at several
//! worker counts, on both store backends, and must
//!
//! 1. compute contents bit-equal to the synchronous executor at every
//!    worker count,
//! 2. keep the analytic run accounting equal to the measured
//!    store-level call count, array for array (all shard workers'
//!    prefetch pools and write-behind threads included),
//! 3. conserve per-array *write* traffic exactly across worker counts
//!    (written regions are shard-disjoint and flushed once), and issue
//!    identical analytic totals on either backend at a fixed worker
//!    count — scheduling is driven by the partitioned walk, never by
//!    thread timing.
//!
//! A second group drives the striped per-node store layer: summed over
//! I/O nodes, measured per-node call/element counts must equal the
//! single-node totals at every node count (stripe boundaries are fixed
//! in the element space; only node assignment varies), two same-seed
//! same-worker-count runs must report identical data, profiles, and
//! per-node counters, and seeded fault injection must replay
//! identically regardless of how worker threads interleave.

use ooc_opt::core::{
    exec_parallel, run_functional_on, FunctionalConfig, ParallelConfig, ParallelRun, PipelineConfig,
};
use ooc_opt::ir::ArrayId;
use ooc_opt::kernels::{all_kernels, compile, kernel_by_name, CompiledVersion, Version};
use ooc_opt::runtime::testing::{Backend, TempDir};
use ooc_opt::runtime::{
    FaultConfig, FaultHandle, FaultStore, IoNodePool, MemStore, NodeStats, StripeConfig,
    StripedStore, TracingStore,
};

fn seed(a: ArrayId, idx: &[i64]) -> f64 {
    let mut h = (a.0 as i64 + 1) * 2654435761;
    for &x in idx {
        h = h.wrapping_mul(31).wrapping_add(x * 17);
    }
    ((h % 1009) as f64) / 64.0 + 1.0
}

fn parallel_cfg(shards: usize) -> ParallelConfig {
    ParallelConfig {
        pipeline: PipelineConfig {
            functional: FunctionalConfig::with_fraction(16),
            ..PipelineConfig::default()
        },
        shards,
    }
}

/// Worker counts the differential matrix sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs a compiled version through the parallel executor over traced
/// stores of the given backend.
fn run_parallel(
    cv: &CompiledVersion,
    params: &[i64],
    shards: usize,
    backend: Backend,
    dir: &TempDir,
) -> ParallelRun {
    exec_parallel(
        &cv.tiled,
        params,
        &seed,
        &parallel_cfg(shards),
        |_, name, len| backend.open(dir.path(), name, len).map(TracingStore::new),
    )
    .expect("parallel run")
}

/// Per-array `(write_calls, write_elems)` — the traffic component that
/// is conserved exactly at every worker count.
fn write_totals(run: &ParallelRun) -> Vec<(u64, u64)> {
    run.run
        .profiles
        .iter()
        .map(|p| (p.stats.write_calls, p.stats.write_elems))
        .collect()
}

/// The full matrix: every kernel, every version, 1/2/4/8 workers,
/// both backends, against the synchronous executor's reference.
#[test]
fn parallel_differential_sweep() {
    for k in all_kernels() {
        let params = &k.small_params;
        for v in Version::ALL {
            let cv = compile(&k, v);
            let reference = run_functional_on(
                &cv.tiled,
                params,
                &seed,
                &FunctionalConfig::with_fraction(16),
                |_, _, len| Ok(MemStore::new(len)),
            )
            .expect("sync reference");

            let mut writes: Option<Vec<(u64, u64)>> = None;
            for workers in WORKER_COUNTS {
                let mem_dir = TempDir::new("ooc-par-mem").expect("tmp");
                let mem = run_parallel(&cv, params, workers, Backend::Mem, &mem_dir);
                let file_dir = TempDir::new("ooc-par-file").expect("tmp");
                let file = run_parallel(&cv, params, workers, Backend::File, &file_dir);

                // 1. Bit-equality with the synchronous executor at
                //    every worker count, both backends.
                assert_eq!(
                    mem.run.data,
                    reference.data,
                    "{} {} x{workers}: parallel mem diverged from sync",
                    k.name,
                    v.label()
                );
                assert_eq!(
                    file.run.data,
                    reference.data,
                    "{} {} x{workers}: parallel file diverged from sync",
                    k.name,
                    v.label()
                );

                // 2. Model exactness across shard threads: analytic
                //    accounting equals the traced store-level calls.
                for run in [&mem, &file] {
                    for p in &run.run.profiles {
                        let m = p.measured.as_ref().expect("traced");
                        assert_eq!(
                            p.stats.total_calls(),
                            m.total_calls(),
                            "{} {} x{workers} array {}: analytic vs measured calls",
                            k.name,
                            v.label(),
                            p.name
                        );
                        assert_eq!(
                            p.stats.total_elems(),
                            m.total_elems(),
                            "{} {} x{workers} array {}: analytic vs measured elems",
                            k.name,
                            v.label(),
                            p.name
                        );
                    }
                }

                // 3a. Backend independence at a fixed worker count.
                let (mt, ft) = (mem.run.total_stats(), file.run.total_stats());
                assert_eq!(
                    (mt.read_calls, mt.write_calls, mt.read_elems, mt.write_elems),
                    (ft.read_calls, ft.write_calls, ft.read_elems, ft.write_elems),
                    "{} {} x{workers}: mem vs file analytic I/O totals",
                    k.name,
                    v.label()
                );

                // 3b. Write conservation across worker counts.
                let w = write_totals(&mem);
                if let Some(first) = &writes {
                    assert_eq!(
                        first,
                        &w,
                        "{} {} x{workers}: write traffic moved across worker counts",
                        k.name,
                        v.label()
                    );
                } else {
                    writes = Some(w);
                }
            }
        }
    }
}

/// Sharding must actually engage on the paper kernels — at least one
/// nest partitioned across more than one busy shard — and every
/// partition summary must cover every nest.
#[test]
fn partitions_cover_and_engage() {
    let k = kernel_by_name("mxm").expect("kernel");
    let cv = compile(&k, Version::COpt);
    let dir = TempDir::new("ooc-par-engage").expect("tmp");
    let run = run_parallel(&cv, &k.small_params, 4, Backend::Mem, &dir);
    assert_eq!(run.partitions.len(), cv.tiled.nests.len());
    assert!(
        run.partitions
            .iter()
            .any(|p| !p.serial_fallback && p.active_shards > 1),
        "no nest actually sharded: {:?}",
        run.partitions
    );
    let busy = run
        .shard_stats
        .iter()
        .filter(|s| s.steps_unstalled + s.stalls > 0)
        .count();
    assert!(
        busy > 1,
        "only {busy} shard did work: {:?}",
        run.shard_stats
    );
}

/// Runs one kernel version with 2 workers over stores striped across
/// `nodes` in-memory parts, returning the run and the pool snapshot.
fn run_striped(
    cv: &CompiledVersion,
    params: &[i64],
    nodes: usize,
    shards: usize,
) -> (ParallelRun, Vec<NodeStats>) {
    let pool = IoNodePool::new(StripeConfig {
        stripe_elems: 16,
        ..StripeConfig::with_nodes(nodes)
    });
    let run = exec_parallel(
        &cv.tiled,
        params,
        &seed,
        &parallel_cfg(shards),
        |_, _, len| StripedStore::build(&pool, len, |_, part_len| Ok(MemStore::new(part_len))),
    )
    .expect("striped run");
    (run, pool.snapshot())
}

fn node_totals(stats: &[NodeStats]) -> (u64, u64, u64, u64) {
    stats.iter().fold((0, 0, 0, 0), |acc, n| {
        (
            acc.0 + n.io.read_calls,
            acc.1 + n.io.write_calls,
            acc.2 + n.io.read_elems,
            acc.3 + n.io.write_elems,
        )
    })
}

/// Measured per-node call counts sum to the single-node totals at
/// every node count: striping redistributes traffic, never creates or
/// destroys it (stripe boundaries are fixed; only ownership varies).
#[test]
fn striped_per_node_calls_sum_to_single_node_totals() {
    let mut spread_seen = false;
    for k in all_kernels() {
        for v in [Version::Row, Version::COpt] {
            let cv = compile(&k, v);
            let (_, single) = run_striped(&cv, &k.small_params, 1, 2);
            let reference = node_totals(&single);
            assert!(reference.0 > 0, "{} {}: no traffic", k.name, v.label());
            for nodes in [4usize, 8] {
                let (_, stats) = run_striped(&cv, &k.small_params, nodes, 2);
                assert_eq!(
                    node_totals(&stats),
                    reference,
                    "{} {} over {nodes} nodes: per-node sums diverge from \
                     single-node totals",
                    k.name,
                    v.label()
                );
                if stats.iter().filter(|n| n.io.read_calls > 0).count() > 1 {
                    spread_seen = true;
                }
            }
        }
    }
    assert!(spread_seen, "striping never spread traffic past node 0");
}

/// Two same-seed, same-worker-count runs are indistinguishable:
/// identical contents, identical analytic profiles, and identical
/// per-node counters — including the queue-depth sample counts, which
/// are one-per-operation and therefore deterministic even though the
/// sampled depths themselves depend on timing.
#[test]
fn parallel_runs_are_deterministic() {
    for name in ["mxm", "syr2k"] {
        let k = kernel_by_name(name).expect("kernel");
        let cv = compile(&k, Version::COpt);
        let (r1, s1) = run_striped(&cv, &k.small_params, 4, 3);
        let (r2, s2) = run_striped(&cv, &k.small_params, 4, 3);
        assert_eq!(r1.run.data, r2.run.data, "{name}: contents differ");
        for (p, q) in r1.run.profiles.iter().zip(&r2.run.profiles) {
            assert_eq!(
                (
                    p.stats.read_calls,
                    p.stats.write_calls,
                    p.stats.read_elems,
                    p.stats.write_elems
                ),
                (
                    q.stats.read_calls,
                    q.stats.write_calls,
                    q.stats.read_elems,
                    q.stats.write_elems
                ),
                "{name} array {}: analytic profile differs between runs",
                p.name
            );
        }
        for (kn, (a, b)) in s1.iter().zip(&s2).enumerate() {
            assert_eq!(
                (
                    a.io.read_calls,
                    a.io.write_calls,
                    a.io.read_elems,
                    a.io.write_elems
                ),
                (
                    b.io.read_calls,
                    b.io.write_calls,
                    b.io.read_elems,
                    b.io.write_elems
                ),
                "{name} node {kn}: per-node I/O differs between runs"
            );
            assert_eq!(
                a.timing.depth_hist.count, b.timing.depth_hist.count,
                "{name} node {kn}: queue-depth sample counts differ"
            );
        }
    }
}

/// Seeded fault injection replays identically across thread
/// interleavings: failure decisions key on the per-store call index,
/// so the injected and retried counts — and of course the results —
/// match between two runs even though which *thread* hits each fault
/// is scheduler-dependent.
#[test]
fn parallel_fault_replay_is_interleaving_independent() {
    let k = kernel_by_name("mxm").expect("kernel");
    let cv = compile(&k, Version::COpt);
    let reference = run_functional_on(
        &cv.tiled,
        &k.small_params,
        &seed,
        &FunctionalConfig::with_fraction(16),
        |_, _, len| Ok(MemStore::new(len)),
    )
    .expect("sync reference");

    let run_faulty = || {
        let mut handles: Vec<FaultHandle> = Vec::new();
        let run = exec_parallel(
            &cv.tiled,
            &k.small_params,
            &seed,
            &parallel_cfg(4),
            |a, _, len| {
                let store = FaultStore::new(
                    MemStore::new(len),
                    FaultConfig::transient(0xabad_cafe + a as u64, 150),
                );
                handles.push(store.handle());
                Ok(store)
            },
        )
        .expect("faulty parallel run completes");
        let injected: Vec<u64> = handles.iter().map(FaultHandle::injected).collect();
        (run, injected)
    };

    let (r1, i1) = run_faulty();
    let (r2, i2) = run_faulty();
    assert_eq!(r1.run.data, reference.data, "faults changed results");
    assert_eq!(r2.run.data, reference.data, "faults changed results");
    assert!(i1.iter().sum::<u64>() > 0, "fault layer never fired");
    assert_eq!(i1, i2, "per-array injection counts differ between runs");
    assert_eq!(
        r1.run.total_stats().retries,
        r2.run.total_stats().retries,
        "retry totals differ between runs"
    );
}
