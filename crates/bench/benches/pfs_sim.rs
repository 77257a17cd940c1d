//! Throughput of the discrete-event PFS simulator itself.
use criterion::{criterion_group, criterion_main, Criterion};
use pfs_sim::{MachineConfig, Op, PfsSim, Workload};
use std::hint::black_box;

fn synthetic_workload(procs: usize, ops_per_proc: usize) -> (PfsSim, Workload) {
    let mut sim = PfsSim::new(MachineConfig::default());
    let f = sim.create_file();
    let per_proc = (0..procs)
        .map(|p| {
            (0..ops_per_proc)
                .map(|i| {
                    if i % 4 == 3 {
                        Op::Compute { seconds: 1e-3 }
                    } else {
                        Op::Io {
                            file: f,
                            offset: ((p * ops_per_proc + i) as u64 * 131072) % (1 << 29),
                            bytes: 65536,
                            span: 262144,
                            calls: 8,
                            is_write: i % 2 == 0,
                        }
                    }
                })
                .collect()
        })
        .collect();
    (sim, Workload { per_proc })
}

fn bench_des(c: &mut Criterion) {
    for (procs, ops) in [(16usize, 256usize), (128, 64)] {
        let (sim, w) = synthetic_workload(procs, ops);
        c.bench_function(&format!("pfs/des_{procs}procs_{ops}ops"), |b| {
            b.iter(|| sim.simulate(black_box(&w)))
        });
    }
}

fn bench_node_shares(c: &mut Criterion) {
    let sim = PfsSim::new(MachineConfig::default());
    c.bench_function("pfs/node_shares_16MB_span", |b| {
        b.iter(|| sim.node_shares(black_box(1 << 20), 16 << 20, 4 << 20, 256))
    });
}

criterion_group!(benches, bench_des, bench_node_shares);
criterion_main!(benches);
