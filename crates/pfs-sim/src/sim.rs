//! Discrete-event simulation of synchronous parallel I/O.
//!
//! Each compute processor executes a sequence of [`Op`]s: compute
//! phases and synchronous I/O operations. An I/O op describes a batch
//! of calls against a striped file; the simulator spreads the batch
//! over the I/O nodes that serve the touched byte range, queues the
//! per-node shares FIFO, and blocks the processor until the slowest
//! share completes — exactly the contention pattern that limits
//! scalability in the paper's Table 3.
//!
//! Ops are issued in global time order, so per-node FIFO service can
//! be computed with a simple `busy_until` clock per node; the result
//! is an exact simulation at op granularity.

use crate::config::MachineConfig;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifies a file registered with the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub usize);

/// One step in a processor's execution trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Pure computation for the given number of seconds.
    Compute {
        /// Busy time in seconds.
        seconds: f64,
    },
    /// A batch of `calls` synchronous I/O calls transferring `bytes`
    /// in total, starting at `offset` within `file`. Reads and writes
    /// are costed identically (the Paragon PFS service path is
    /// symmetric at this granularity); `is_write` is kept for
    /// accounting.
    Io {
        /// Target file.
        file: FileId,
        /// Starting byte offset of the touched region.
        offset: u64,
        /// Total bytes transferred by the batch.
        bytes: u64,
        /// Bytes spanned in the file by the batch (`>= bytes` for
        /// strided access): service spreads over the stripes of the
        /// whole span, not just the first `bytes` worth.
        span: u64,
        /// Number of I/O calls in the batch.
        calls: u64,
        /// Write (true) or read (false).
        is_write: bool,
    },
}

/// The workload of a simulated run: one trace per compute processor.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    /// `per_proc[p]` is processor `p`'s op sequence.
    pub per_proc: Vec<Vec<Op>>,
}

impl Workload {
    /// A workload where every one of `procs` processors runs the same
    /// trace (the paper's communication-free SPMD parallelization:
    /// each processor works on its own partition with an identical
    /// access pattern).
    #[must_use]
    pub fn replicated(trace: Vec<Op>, procs: usize) -> Self {
        Workload {
            per_proc: vec![trace; procs],
        }
    }

    /// Total calls across processors.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.per_proc
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Io { calls, .. } => *calls,
                Op::Compute { .. } => 0,
            })
            .sum()
    }

    /// Total bytes across processors.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.per_proc
            .iter()
            .flatten()
            .map(|op| match op {
                Op::Io { bytes, .. } => *bytes,
                Op::Compute { .. } => 0,
            })
            .sum()
    }
}

/// Aggregated results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wall-clock: when the last processor finished.
    pub total_time: f64,
    /// Σ per-processor time spent blocked on I/O.
    pub io_blocked_time: f64,
    /// Σ per-processor compute time.
    pub compute_time: f64,
    /// Total I/O calls served.
    pub total_calls: u64,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Busy seconds per I/O node.
    pub node_busy: Vec<f64>,
    /// Per-processor finish times.
    pub proc_finish: Vec<f64>,
}

/// The parallel file system simulator.
#[derive(Debug, Clone)]
pub struct PfsSim {
    config: MachineConfig,
    files: usize,
}

impl PfsSim {
    /// Creates a simulator for the given machine.
    #[must_use]
    pub fn new(config: MachineConfig) -> Self {
        PfsSim { config, files: 0 }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Registers a striped file, returning its id.
    pub fn create_file(&mut self) -> FileId {
        self.files += 1;
        FileId(self.files - 1)
    }

    /// Splits an I/O batch into per-node shares `(node, calls, bytes)`.
    ///
    /// The batch touches `[offset, offset+span)` in the file but moves
    /// only `bytes` of data (strided access): distribution weights come
    /// from how much of the span each node's stripes cover, then are
    /// scaled so the byte shares sum to `bytes`. Calls are apportioned
    /// proportionally (every serving node gets at least one call).
    #[must_use]
    pub fn node_shares(
        &self,
        offset: u64,
        span: u64,
        bytes: u64,
        calls: u64,
    ) -> Vec<(usize, u64, u64)> {
        let pfs = &self.config.pfs;
        let span = span.max(bytes);
        if bytes == 0 || calls == 0 {
            return Vec::new();
        }
        let n = pfs.io_nodes;
        let mut per_node_bytes = vec![0u64; n];
        // Walk the byte range stripe by stripe. The touched range of a
        // batch can be huge (a whole file) but has at most
        // `io_nodes` distinct nodes; iterate over whole "stripe cycles"
        // analytically instead of stripe by stripe.
        let su = pfs.stripe_unit;
        let cycle = su * n as u64;
        let end = offset + span;
        // Full cycles contribute evenly.
        let first_cycle_end = (offset / cycle + 1) * cycle;
        if end <= first_cycle_end {
            // Range within one cycle: walk its (at most n) stripes.
            let mut pos = offset;
            while pos < end {
                let stripe_end = (pos / su + 1) * su;
                let take = stripe_end.min(end) - pos;
                per_node_bytes[pfs.node_of(pos)] += take;
                pos += take;
            }
        } else {
            // Head partial cycle.
            let mut pos = offset;
            while pos < first_cycle_end {
                let stripe_end = (pos / su + 1) * su;
                let take = stripe_end.min(first_cycle_end) - pos;
                per_node_bytes[pfs.node_of(pos)] += take;
                pos += take;
            }
            let full_cycles = (end - first_cycle_end) / cycle;
            if full_cycles > 0 {
                for b in per_node_bytes.iter_mut() {
                    *b += full_cycles * su;
                }
            }
            // Tail partial cycle.
            let mut pos = first_cycle_end + full_cycles * cycle;
            while pos < end {
                let stripe_end = (pos / su + 1) * su;
                let take = stripe_end.min(end) - pos;
                per_node_bytes[pfs.node_of(pos)] += take;
                pos += take;
            }
        }
        // Scale the span-coverage weights down to the bytes actually
        // moved, then apportion calls proportionally; every serving node
        // gets at least one call (a call touching a node costs that node
        // its fixed overhead).
        let total_weight: u64 = per_node_bytes.iter().sum();
        let serving: Vec<usize> = (0..n).filter(|&k| per_node_bytes[k] > 0).collect();
        let mut out = Vec::with_capacity(serving.len());
        let mut assigned_calls = 0u64;
        let mut assigned_bytes = 0u64;
        for (idx, &k) in serving.iter().enumerate() {
            let last = idx + 1 == serving.len();
            let b = if last {
                bytes.saturating_sub(assigned_bytes)
            } else {
                ((u128::from(bytes) * u128::from(per_node_bytes[k]))
                    / u128::from(total_weight.max(1))) as u64
            };
            let c = if last {
                calls.saturating_sub(assigned_calls)
            } else {
                ((u128::from(calls) * u128::from(per_node_bytes[k]))
                    / u128::from(total_weight.max(1))) as u64
            };
            let c = c.max(1);
            assigned_calls += c;
            assigned_bytes += b;
            out.push((k, c, b));
        }
        out
    }

    /// Runs the workload to completion.
    #[must_use]
    pub fn simulate(&self, workload: &Workload) -> SimResult {
        let _span = ooc_trace::span_with(
            "pfs-sim",
            "pfs-simulate",
            vec![
                ("procs", (workload.per_proc.len() as u64).into()),
                (
                    "ops",
                    (workload.per_proc.iter().map(Vec::len).sum::<usize>() as u64).into(),
                ),
            ],
        );
        let n_nodes = self.config.pfs.io_nodes;
        let mut node_busy_until = vec![0.0f64; n_nodes];
        let mut node_busy = vec![0.0f64; n_nodes];
        let disk = self.config.pfs.disk;
        let compute = self.config.compute;

        // Heap of (time a processor is ready to issue its next op, proc,
        // op index). Ties broken by processor id for determinism.
        #[derive(PartialEq)]
        struct Ready(f64, usize, usize);
        impl Eq for Ready {}
        impl PartialOrd for Ready {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Ready {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .partial_cmp(&other.0)
                    .expect("no NaN times")
                    .then(self.1.cmp(&other.1))
                    .then(self.2.cmp(&other.2))
            }
        }

        let mut heap: BinaryHeap<Reverse<Ready>> = BinaryHeap::new();
        for p in 0..workload.per_proc.len() {
            heap.push(Reverse(Ready(0.0, p, 0)));
        }

        let mut proc_finish = vec![0.0f64; workload.per_proc.len()];
        let mut io_blocked_time = 0.0f64;
        let mut compute_time = 0.0f64;
        let mut total_calls = 0u64;
        let mut total_bytes = 0u64;

        while let Some(Reverse(Ready(t, p, idx))) = heap.pop() {
            let trace = &workload.per_proc[p];
            if idx >= trace.len() {
                proc_finish[p] = t;
                continue;
            }
            match trace[idx] {
                Op::Compute { seconds } => {
                    compute_time += seconds;
                    heap.push(Reverse(Ready(t + seconds, p, idx + 1)));
                }
                Op::Io {
                    offset,
                    bytes,
                    span,
                    calls,
                    ..
                } => {
                    total_calls += calls;
                    total_bytes += bytes;
                    // Processor-side issue latency, serial per call, plus
                    // the compute-node link streaming cap.
                    let issue = compute.io_issue_overhead_s * calls as f64;
                    let t_issued = t + issue;
                    let mut done = t_issued + bytes as f64 / compute.link_bandwidth_bps;
                    for (node, ncalls, nbytes) in self.node_shares(offset, span, bytes, calls) {
                        // Each call occupies the disk for at least one
                        // block of transfer (sector/stripe granularity).
                        let service = disk.bulk_seconds(ncalls, nbytes);
                        let start = node_busy_until[node].max(t_issued);
                        node_busy_until[node] = start + service;
                        node_busy[node] += service;
                        done = done.max(node_busy_until[node]);
                    }
                    io_blocked_time += done - t;
                    heap.push(Reverse(Ready(done, p, idx + 1)));
                }
            }
        }

        let total_time = proc_finish.iter().fold(0.0f64, |a, &b| a.max(b));
        if ooc_trace::enabled() {
            ooc_trace::counter("pfs-sim-calls", total_calls as f64);
            ooc_trace::counter("pfs-sim-bytes", total_bytes as f64);
            ooc_trace::counter("pfs-sim-seconds", total_time);
        }
        SimResult {
            total_time,
            io_blocked_time,
            compute_time,
            total_calls,
            total_bytes,
            node_busy,
            proc_finish,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ComputeParams, DiskParams, MachineConfig, PfsConfig};

    fn small_machine() -> MachineConfig {
        MachineConfig {
            pfs: PfsConfig {
                io_nodes: 4,
                stripe_unit: 100,
                disk: DiskParams {
                    call_overhead_s: 0.010,
                    bandwidth_bps: 1000.0,
                    min_transfer_bytes: 0,
                },
                max_call_bytes: 1 << 20,
            },
            compute: ComputeParams {
                seconds_per_flop: 0.0,
                io_issue_overhead_s: 0.0,
                link_bandwidth_bps: f64::INFINITY,
            },
        }
    }

    #[test]
    fn compute_only_trace() {
        let sim = PfsSim::new(small_machine());
        let w = Workload::replicated(vec![Op::Compute { seconds: 2.0 }], 3);
        let r = sim.simulate(&w);
        assert!((r.total_time - 2.0).abs() < 1e-12);
        assert!((r.compute_time - 6.0).abs() < 1e-12);
        assert_eq!(r.total_calls, 0);
    }

    #[test]
    fn single_call_single_stripe() {
        let mut sim = PfsSim::new(small_machine());
        let f = sim.create_file();
        let w = Workload::replicated(
            vec![Op::Io {
                file: f,
                offset: 0,
                bytes: 50,
                span: 50,
                calls: 1,
                is_write: false,
            }],
            1,
        );
        let r = sim.simulate(&w);
        // overhead 10ms + 50/1000 s transfer = 0.06.
        assert!((r.total_time - 0.060).abs() < 1e-9, "got {}", r.total_time);
        assert_eq!(r.total_calls, 1);
        assert_eq!(r.total_bytes, 50);
    }

    #[test]
    fn striped_read_parallelizes_across_nodes() {
        let mut sim = PfsSim::new(small_machine());
        let f = sim.create_file();
        // 400 bytes spanning all 4 nodes in one call batch of 4 calls:
        // each node serves 100 bytes + 1 call = 0.01 + 0.1 = 0.11 in
        // parallel.
        let w = Workload::replicated(
            vec![Op::Io {
                file: f,
                offset: 0,
                bytes: 400,
                span: 400,
                calls: 4,
                is_write: false,
            }],
            1,
        );
        let r = sim.simulate(&w);
        assert!((r.total_time - 0.11).abs() < 1e-9, "got {}", r.total_time);
    }

    #[test]
    fn contention_serializes_same_node() {
        let mut sim = PfsSim::new(small_machine());
        let f = sim.create_file();
        // Two processors hit the same 50-byte stripe-0 region: node 0
        // serves them FIFO -> second finishes at 0.12.
        let w = Workload::replicated(
            vec![Op::Io {
                file: f,
                offset: 0,
                bytes: 50,
                span: 50,
                calls: 1,
                is_write: false,
            }],
            2,
        );
        let r = sim.simulate(&w);
        assert!((r.total_time - 0.12).abs() < 1e-9, "got {}", r.total_time);
        // One node did all the work.
        assert!((r.node_busy[0] - 0.12).abs() < 1e-9);
        assert_eq!(r.node_busy[1], 0.0);
    }

    #[test]
    fn disjoint_nodes_run_parallel() {
        let mut sim = PfsSim::new(small_machine());
        let f = sim.create_file();
        // Proc 0 hits node 0, proc 1 hits node 1: fully parallel.
        let w = Workload {
            per_proc: vec![
                vec![Op::Io {
                    file: f,
                    offset: 0,
                    bytes: 50,
                    span: 50,
                    calls: 1,
                    is_write: false,
                }],
                vec![Op::Io {
                    file: f,
                    offset: 100,
                    bytes: 50,
                    span: 50,
                    calls: 1,
                    is_write: false,
                }],
            ],
        };
        let r = sim.simulate(&w);
        assert!((r.total_time - 0.06).abs() < 1e-9, "got {}", r.total_time);
    }

    #[test]
    fn fewer_calls_is_faster_same_bytes() {
        // The heart of the paper: same volume, fewer calls => less time.
        let mut sim = PfsSim::new(small_machine());
        let f = sim.create_file();
        let many = Workload::replicated(
            vec![Op::Io {
                file: f,
                offset: 0,
                bytes: 80,
                span: 80,
                calls: 16,
                is_write: false,
            }],
            1,
        );
        let few = Workload::replicated(
            vec![Op::Io {
                file: f,
                offset: 0,
                bytes: 80,
                span: 80,
                calls: 2,
                is_write: false,
            }],
            1,
        );
        let t_many = sim.simulate(&many).total_time;
        let t_few = sim.simulate(&few).total_time;
        assert!(t_few < t_many, "few={t_few} many={t_many}");
        // 14 fewer calls at 10ms each.
        assert!((t_many - t_few - 0.14).abs() < 1e-9);
    }

    #[test]
    fn node_shares_cover_bytes_and_calls() {
        let sim = PfsSim::new(small_machine());
        for (offset, bytes, calls) in [
            (0u64, 400u64, 4u64),
            (50, 125, 3),
            (350, 900, 7),
            (0, 50, 10),
            (399, 2, 2),
        ] {
            let shares = sim.node_shares(offset, bytes, bytes, calls);
            let b: u64 = shares.iter().map(|s| s.2).sum();
            let c: u64 = shares.iter().map(|s| s.1).sum();
            assert_eq!(b, bytes, "bytes mismatch at ({offset},{bytes},{calls})");
            assert!(c >= calls, "calls dropped at ({offset},{bytes},{calls})");
            assert!(
                c <= calls + sim.config.pfs.io_nodes as u64,
                "calls inflated at ({offset},{bytes},{calls})"
            );
        }
    }

    #[test]
    fn large_range_spreads_evenly() {
        let sim = PfsSim::new(small_machine());
        // 40 full cycles: every node gets exactly 4000/4 = 1000 bytes...
        let shares = sim.node_shares(0, 16_000, 16_000, 64);
        assert_eq!(shares.len(), 4);
        for (_, calls, bytes) in &shares {
            assert_eq!(*bytes, 4000);
            assert_eq!(*calls, 16);
        }
    }

    #[test]
    fn issue_overhead_charged_to_processor() {
        let mut cfg = small_machine();
        cfg.compute.io_issue_overhead_s = 0.005;
        let mut sim = PfsSim::new(cfg);
        let f = sim.create_file();
        let w = Workload::replicated(
            vec![Op::Io {
                file: f,
                offset: 0,
                bytes: 50,
                span: 50,
                calls: 2,
                is_write: false,
            }],
            1,
        );
        let r = sim.simulate(&w);
        // 2 calls * 5ms issue + node: 2*10ms + 50/1000 = 0.01 + 0.02 + 0.05.
        assert!((r.total_time - 0.08).abs() < 1e-9, "got {}", r.total_time);
    }

    #[test]
    fn empty_workload() {
        let sim = PfsSim::new(small_machine());
        let r = sim.simulate(&Workload::default());
        assert_eq!(r.total_time, 0.0);
        assert_eq!(r.total_calls, 0);
    }

    #[test]
    fn interleaved_compute_and_io() {
        let mut sim = PfsSim::new(small_machine());
        let f = sim.create_file();
        let w = Workload::replicated(
            vec![
                Op::Compute { seconds: 1.0 },
                Op::Io {
                    file: f,
                    offset: 0,
                    bytes: 100,
                    span: 100,
                    calls: 1,
                    is_write: true,
                },
                Op::Compute { seconds: 0.5 },
            ],
            1,
        );
        let r = sim.simulate(&w);
        // 1.0 + (0.01 + 0.1) + 0.5
        assert!((r.total_time - 1.61).abs() < 1e-9, "got {}", r.total_time);
        assert!((r.compute_time - 1.5).abs() < 1e-12);
        assert!((r.io_blocked_time - 0.11).abs() < 1e-9);
    }

    #[test]
    fn more_processors_more_contention() {
        // Scalability knee: splitting a fixed amount of work over more
        // processors shortens each processor's serial issue path, but the
        // shared I/O nodes bound the total speedup.
        let mut cfg = small_machine();
        cfg.compute.io_issue_overhead_s = 0.010;
        cfg.pfs.disk.bandwidth_bps = 1e9; // call overheads dominate
        let mut sim = PfsSim::new(cfg);
        let f = sim.create_file();
        let mk = |procs: usize| {
            let bytes_per = 16_000u64 / procs as u64;
            let w = Workload {
                per_proc: (0..procs)
                    .map(|p| {
                        vec![Op::Io {
                            file: f,
                            offset: p as u64 * bytes_per,
                            bytes: bytes_per,
                            span: bytes_per,
                            calls: 16 / procs as u64,
                            is_write: false,
                        }]
                    })
                    .collect(),
            };
            sim.simulate(&w).total_time
        };
        let t1 = mk(1);
        let t2 = mk(2);
        let t4 = mk(4);
        assert!(t2 < t1, "t1={t1} t2={t2}");
        assert!(t4 <= t2, "t2={t2} t4={t4}");
        // Speedup is bounded by the 4 I/O nodes.
        assert!(t1 / t4 <= 4.0 + 1e-9);
    }
}
