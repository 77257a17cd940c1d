//! Property-based tests of the parallel file system simulator.

use pfs_sim::{
    lower_bound, ComputeParams, DiskParams, FileId, MachineConfig, Op, PfsConfig, PfsSim, Workload,
};
use proptest::prelude::*;

fn machine(nodes: usize) -> MachineConfig {
    MachineConfig {
        pfs: PfsConfig {
            io_nodes: nodes,
            stripe_unit: 1024,
            disk: DiskParams {
                call_overhead_s: 1e-3,
                bandwidth_bps: 1e6,
                min_transfer_bytes: 256,
            },
            max_call_bytes: 1 << 20,
        },
        compute: ComputeParams {
            seconds_per_flop: 0.0,
            io_issue_overhead_s: 1e-4,
            link_bandwidth_bps: 5e6,
        },
    }
}

fn io_op(max_off: u64) -> impl Strategy<Value = Op> {
    (0..max_off, 1u64..20_000, 1u64..32, any::<bool>()).prop_map(|(offset, bytes, calls, w)| {
        Op::Io {
            file: FileId(0),
            offset,
            bytes,
            span: bytes * 2,
            calls,
            is_write: w,
        }
    })
}

fn workload(procs: usize) -> impl Strategy<Value = Workload> {
    proptest::collection::vec(proptest::collection::vec(io_op(1 << 20), 1..8), 1..=procs)
        .prop_map(|per_proc| Workload { per_proc })
}

proptest! {
    /// Node shares conserve bytes and never drop calls.
    #[test]
    fn shares_conserve(
        offset in 0u64..(1 << 16),
        span_extra in 0u64..(1 << 16),
        bytes in 1u64..(1 << 16),
        calls in 1u64..256,
    ) {
        let sim = PfsSim::new(machine(8));
        let shares = sim.node_shares(offset, bytes + span_extra, bytes, calls);
        let b: u64 = shares.iter().map(|s| s.2).sum();
        let c: u64 = shares.iter().map(|s| s.1).sum();
        prop_assert_eq!(b, bytes, "bytes conserved");
        prop_assert!(c >= calls, "calls never dropped");
        prop_assert!(c <= calls + 8, "calls inflated by at most one per node");
        for (node, _, _) in &shares {
            prop_assert!(*node < 8);
        }
    }

    /// The analytic lower bound never exceeds the DES result.
    #[test]
    fn lower_bound_sound(w in workload(8)) {
        let cfg = machine(8);
        let mut sim = PfsSim::new(cfg);
        let _f = sim.create_file();
        let des = sim.simulate(&w).total_time;
        let lb = lower_bound(&cfg, &w);
        prop_assert!(lb <= des + 1e-9, "bound {lb} above DES {des}");
    }

    /// Simulation results are deterministic and non-negative, and the
    /// wall clock is at least the busiest processor's blocked time
    /// divided among processors.
    #[test]
    fn simulation_sane(w in workload(6)) {
        let sim = PfsSim::new(machine(8));
        let r1 = sim.simulate(&w);
        let r2 = sim.simulate(&w);
        prop_assert_eq!(r1.total_time.to_bits(), r2.total_time.to_bits(), "deterministic");
        prop_assert!(r1.total_time >= 0.0);
        prop_assert_eq!(r1.total_calls, w.total_calls());
        prop_assert_eq!(r1.total_bytes, w.total_bytes());
        // Every processor finishes by the wall clock.
        for &f in &r1.proc_finish {
            prop_assert!(f <= r1.total_time + 1e-12);
        }
    }

    /// Adding more I/O nodes never slows a workload down beyond the
    /// block-granularity slack (every *serving* node charges at least
    /// one call's fixed service, so spreading over more nodes can add
    /// up to that much per op).
    #[test]
    fn more_nodes_never_slower(w in workload(6)) {
        let cfg8 = machine(8);
        let t8 = PfsSim::new(cfg8).simulate(&w).total_time;
        let t32 = PfsSim::new(machine(32)).simulate(&w).total_time;
        let per_call = cfg8.pfs.disk.call_overhead_s
            + cfg8.pfs.disk.min_transfer_bytes as f64 / cfg8.pfs.disk.bandwidth_bps;
        let ops = w.per_proc.iter().map(Vec::len).sum::<usize>() as f64;
        let slack = ops * 32.0 * per_call;
        prop_assert!(t32 <= t8 + slack + 1e-9, "32 nodes {t32} vs 8 nodes {t8}");
    }

    /// Scaling every op's bytes up scales the time monotonically (up
    /// to the per-serving-node call-granularity slack: a doubled span
    /// may engage extra nodes, each charging one block's service).
    #[test]
    fn byte_monotonicity(w in workload(4)) {
        let cfg = machine(8);
        let sim = PfsSim::new(cfg);
        let t1 = sim.simulate(&w).total_time;
        let heavier = Workload {
            per_proc: w
                .per_proc
                .iter()
                .map(|t| {
                    t.iter()
                        .map(|op| match *op {
                            Op::Io { file, offset, bytes, span, calls, is_write } => Op::Io {
                                file,
                                offset,
                                bytes: bytes * 2,
                                span: span * 2,
                                calls,
                                is_write,
                            },
                            c => c,
                        })
                        .collect()
                })
                .collect(),
        };
        let t2 = sim.simulate(&heavier).total_time;
        let per_call = cfg.pfs.disk.call_overhead_s
            + cfg.pfs.disk.min_transfer_bytes as f64 / cfg.pfs.disk.bandwidth_bps;
        let ops = w.per_proc.iter().map(Vec::len).sum::<usize>() as f64;
        let slack = ops * 8.0 * per_call;
        prop_assert!(t2 >= t1 - slack - 1e-9, "heavier {t2} vs {t1}");
    }
}
