//! Property tests of the [`Store`] implementations: arbitrary
//! interleaved `read_run`/`write_run` sequences must behave
//! identically on [`MemStore`] and [`FileStore`], and out-of-range
//! accesses must fail on both without partial writes. A
//! [`ChecksummedStore`] must hold what a plain [`MemStore`] holds and
//! catch a flipped element on exactly the reads whose chunks hold it.

use ooc_runtime::testing::TempDir;
use ooc_runtime::{is_corrupt, ChecksummedStore, FileStore, MemStore, Store};
use proptest::prelude::*;

/// Reads a store's full contents.
fn contents(s: &dyn Store, n: u64) -> Vec<f64> {
    let mut buf = vec![0.0; usize::try_from(n).expect("size")];
    s.read_run(0, &mut buf).expect("full read");
    buf
}

proptest! {
    /// The differential store property: a `MemStore` and a `FileStore`
    /// of the same size, driven by the same op sequence (including
    /// deliberately out-of-range ops), stay observably identical — the
    /// same per-op success/failure, the same read results, the same
    /// final contents — and a failed write never alters either store.
    #[test]
    fn mem_and_file_stores_agree(
        n in 4u64..48,
        ops in proptest::collection::vec(
            // (op kind, element offset, run length, value salt); offsets
            // and lengths intentionally overrun small stores so the
            // error paths are exercised too.
            (0u8..2, 0u64..56, 0usize..12, -512i64..512),
            1..32,
        ),
    ) {
        let dir = TempDir::new("store-prop").expect("tmp");
        let mut mem = MemStore::new(n);
        let mut file = FileStore::create(&dir.path().join("arr.dat"), n).expect("create");

        for (i, &(kind, offset, len, salt)) in ops.iter().enumerate() {
            if kind == 0 {
                let buf: Vec<f64> = (0..len)
                    .map(|j| (salt as f64) + (i as f64) * 0.5 + (j as f64) * 0.125)
                    .collect();
                let before = contents(&mem, n);
                let r_mem = mem.write_run(offset, &buf);
                let r_file = file.write_run(offset, &buf);
                prop_assert_eq!(
                    r_mem.is_ok(),
                    r_file.is_ok(),
                    "op {}: write({}, len {}) ok-ness differs",
                    i, offset, len
                );
                if r_mem.is_err() {
                    // No partial writes: a rejected op leaves both
                    // stores exactly as they were.
                    prop_assert_eq!(&contents(&mem, n), &before);
                    prop_assert_eq!(&contents(&file, n), &before);
                }
            } else {
                let mut b_mem = vec![0.0; len];
                let mut b_file = vec![7.25; len];
                let r_mem = mem.read_run(offset, &mut b_mem);
                let r_file = file.read_run(offset, &mut b_file);
                prop_assert_eq!(
                    r_mem.is_ok(),
                    r_file.is_ok(),
                    "op {}: read({}, len {}) ok-ness differs",
                    i, offset, len
                );
                if r_mem.is_ok() {
                    prop_assert_eq!(&b_mem, &b_file, "op {}: read results differ", i);
                }
            }
        }

        prop_assert_eq!(&contents(&mem, n), &contents(&file, n), "final contents differ");
    }

    /// Out-of-range accesses are errors on every store, for reads and
    /// writes alike, including overflow-adjacent shapes.
    #[test]
    fn out_of_range_accesses_error(
        n in 1u64..32,
        past in 0u64..16,
        len in 1usize..8,
    ) {
        let dir = TempDir::new("store-range").expect("tmp");
        let mut mem = MemStore::new(n);
        let mut file = FileStore::create(&dir.path().join("arr.dat"), n).expect("create");

        // First out-of-range element is n - len + 1 + past (start so the
        // run's end overruns by at least past + 1).
        let offset = (n + past + 1).saturating_sub(len as u64);
        let golden = contents(&mem, n);
        let mut buf = vec![0.0; len];
        // ... and a hostile offset whose end (`offset + len`, or its
        // byte form) wraps around u64.
        for offset in [offset, u64::MAX - past, u64::MAX / 8 - past] {
            prop_assert!(mem.read_run(offset, &mut buf).is_err());
            prop_assert!(file.read_run(offset, &mut buf).is_err());
            prop_assert!(mem.write_run(offset, &buf).is_err());
            prop_assert!(file.write_run(offset, &buf).is_err());
        }
        prop_assert_eq!(&contents(&mem, n), &golden);
        prop_assert_eq!(&contents(&file, n), &golden);
    }

    /// The checksum layer over any geometry and request sequence: the
    /// same per-op outcome and contents as a plain `MemStore`, then one
    /// flipped data element fails every read covering its chunk (and
    /// counts once per read) and no other read.
    #[test]
    fn checksummed_store_agrees_with_mem_and_catches_a_flip(
        n in 1u64..40,
        chunk in 1u64..12,
        ops in proptest::collection::vec(
            (0u8..2, 0u64..44, 0usize..20, -512i64..512),
            1..24,
        ),
        flip in 0u64..40,
    ) {
        let sidecar_len = ChecksummedStore::<MemStore, MemStore>::sidecar_len(n, chunk);
        let sidecar = MemStore::new(sidecar_len);
        let mut cs = ChecksummedStore::attach(MemStore::new(n), sidecar, chunk).expect("attach");
        cs.rebuild().expect("rebuild");
        let mut mem = MemStore::new(n);
        for (i, &(kind, offset, len, salt)) in ops.iter().enumerate() {
            if kind == 0 {
                let buf: Vec<f64> = (0..len).map(|k| (salt + k as i64) as f64 * 0.5).collect();
                let r_cs = cs.write_run(offset, &buf);
                let r_mem = mem.write_run(offset, &buf);
                prop_assert_eq!(r_cs.is_ok(), r_mem.is_ok(), "op {}: write ok-ness differs", i);
            } else {
                let (mut b_cs, mut b_mem) = (vec![7.25; len], vec![7.25; len]);
                let r_cs = cs.read_run(offset, &mut b_cs);
                let r_mem = mem.read_run(offset, &mut b_mem);
                prop_assert_eq!(r_cs.is_ok(), r_mem.is_ok(), "op {}: read ok-ness differs", i);
                if r_mem.is_ok() {
                    prop_assert_eq!(&b_cs, &b_mem, "op {}: read results differ", i);
                }
            }
        }
        prop_assert_eq!(&contents(&cs, n), &contents(&mem, n), "final contents differ");
        prop_assert_eq!(cs.verify().expect("clean store"), n.div_ceil(chunk.min(n)));

        let flip = flip % n;
        let (mut data, sidecar) = cs.into_inner();
        let mut old = [0.0];
        data.read_run(flip, &mut old).expect("in range");
        data.write_run(flip, &[f64::from_bits(old[0].to_bits() ^ 1)]).expect("in range");
        let cs = ChecksummedStore::attach(data, sidecar, chunk).expect("re-attach");
        let mut failed = 0;
        for offset in 0..n {
            for len in 1..=(n - offset) {
                let mut buf = vec![0.0; usize::try_from(len).expect("small")];
                let r = cs.read_run(offset, &mut buf);
                let chunks = offset / chunk..=(offset + len - 1) / chunk;
                let covers = chunks.contains(&(flip / chunk));
                prop_assert_eq!(
                    r.is_err(),
                    covers,
                    "read({}, {}) with element {} flipped",
                    offset, len, flip
                );
                if let Err(e) = r {
                    prop_assert!(is_corrupt(&e), "read({}, {}): {}", offset, len, e);
                    failed += 1;
                }
            }
        }
        prop_assert_eq!(cs.handle().corrupt_reads(), failed);
    }
}
