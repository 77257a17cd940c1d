//! The checksum layer alone: `crc64_f64s` at the chunk lengths the
//! repo actually hashes (`DurabilityConfig::default().chunk_elems` =
//! 128, `benchmark/`'s 512, a journaled tile of 65 536), and
//! `ChecksummedStore<MemStore, MemStore>` reads and writes of long and
//! short runs at both chunk sizes, where everything that is not
//! checksum arithmetic is a `memcpy`, and
//! `ChecksummedStore<FileStore, FileStore>` ones at chunk 512, where
//! the calls the layer issues below itself are system calls.
//!
//! Prints the median pass as GB/s of payload. `benchmark/`'s
//! `ladder.file_crc.copt_s − ladder.file.copt_s` is the same cost
//! measured by subtraction over a whole tile schedule.
use ooc_runtime::testing::TempDir;
use ooc_runtime::{crc64_f64s, ChecksummedStore, FileStore, MemStore, Store};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 31;
/// Elements moved per timed pass, whatever the request size.
const PASS_ELEMS: usize = 1 << 20;

/// Median seconds of `PASSES` runs of `pass`, as GB/s of `PASS_ELEMS`.
fn report(label: &str, mut pass: impl FnMut()) {
    pass();
    let mut seconds: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    seconds.sort_by(f64::total_cmp);
    let median = seconds[PASSES / 2];
    let bytes = (PASS_ELEMS * 8) as f64;
    println!(
        "{label:<44} {:>6.2} GB/s  {:>6.3} ns/elem  (median of {PASSES} passes of {:.3} ms)",
        bytes / median / 1e9,
        median * 1e9 / PASS_ELEMS as f64,
        median * 1e3,
    );
}

fn values(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + i as f64 / 64.0).collect()
}

fn bench_kernel(elems: usize) {
    let data = values(elems);
    report(&format!("checksum/crc64_f64s/{elems}"), || {
        let mut acc = 0u64;
        for _ in 0..PASS_ELEMS / elems {
            acc ^= crc64_f64s(black_box(&data));
        }
        black_box(acc);
    });
}

/// Elements of every benchmarked store.
const LEN: u64 = 1 << 18;

/// Reads, then writes, `run`-element requests walking `store`, aligned
/// to the run length; `kind` names the backend in the labels.
fn bench_store<S: Store, C: Store>(kind: &str, data: S, sidecar: C, chunk: u64, run: usize) {
    let mut store = ChecksummedStore::attach(data, sidecar, chunk).expect("geometry");
    store.write_run(0, &values(LEN as usize)).expect("seed");
    let mut buf = values(run);
    let offsets = || (0..PASS_ELEMS / run).map(|k| ((k * run) as u64) % LEN);
    report(
        &format!("checksum/{kind}_read/chunk{chunk}/run{run}"),
        || {
            for offset in offsets() {
                store
                    .read_run(offset, black_box(&mut buf))
                    .expect("clean store");
            }
        },
    );
    report(
        &format!("checksum/{kind}_write/chunk{chunk}/run{run}"),
        || {
            for offset in offsets() {
                store
                    .write_run(offset, black_box(&buf))
                    .expect("in-range write");
            }
        },
    );
}

fn main() {
    for elems in [128, 512, 65_536] {
        bench_kernel(elems);
    }
    let sidecar_len = ChecksummedStore::<MemStore, MemStore>::sidecar_len;
    for chunk in [128, 512] {
        for run in [65_536, 256] {
            let sidecar = MemStore::new(sidecar_len(LEN, chunk));
            bench_store("store", MemStore::new(LEN), sidecar, chunk, run);
        }
    }
    let dir = TempDir::new("checksum-bench").expect("temp dir");
    let chunk = 512;
    for run in [65_536, 256] {
        let data = FileStore::create(&dir.path().join("data"), LEN).expect("data file");
        let sidecar = FileStore::create(&dir.path().join("crc"), sidecar_len(LEN, chunk))
            .expect("sidecar file");
        bench_store("file", data, sidecar, chunk, run);
    }
}
