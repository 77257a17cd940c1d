//! Property tests of the parity-striped store: arbitrary write
//! sequences must stay bit-identical to a flat [`MemStore`] oracle,
//! parity must verify clean after any sequence of read-modify-write
//! updates, every single-node kill must reconstruct bit-exactly
//! through the remaining peers ⊕ parity, and torn-write corpses
//! (data scribbled under a stale CRC sidecar) must be detected by the
//! checksum layer and rebuilt from redundancy.

use ooc_runtime::striped::part_len;
use ooc_runtime::{
    is_corrupt, ChecksummedStore, IoCause, IoNodePool, MemStore, SharedStore, Store, StripeConfig,
    StripedStore,
};
use proptest::prelude::*;

/// A data part whose CRC sidecar can go stale out-of-band: the
/// retained [`SharedStore`] handle writes straight to the underlying
/// bytes, modelling a torn write that died before the sidecar update.
type CrcPart = ChecksummedStore<SharedStore<MemStore>, MemStore>;

fn pool(nodes: usize, stripe: u64) -> IoNodePool {
    IoNodePool::new(StripeConfig {
        nodes,
        stripe_elems: stripe,
        ..StripeConfig::default()
    })
}

fn parity_store(p: &IoNodePool, len: u64) -> StripedStore<MemStore> {
    StripedStore::build_with_parity(
        p,
        len,
        |_, l| Ok(MemStore::new(l)),
        |_, l| Ok(MemStore::new(l)),
    )
    .expect("build parity striped store")
}

/// Reads a store's full contents as raw bit patterns, so the
/// comparison is exact even where `f64` equality is loose (±0.0).
fn bits(s: &dyn Store, n: u64) -> Vec<u64> {
    let mut buf = vec![0.0; usize::try_from(n).expect("size")];
    s.read_run(0, &mut buf).expect("full read");
    buf.iter().map(|v| v.to_bits()).collect()
}

/// Applies one generated write to both the oracle and the striped
/// store, clamped in range so every op lands.
fn apply_write(
    oracle: &mut MemStore,
    striped: &mut dyn Store,
    n: u64,
    i: usize,
    op: (u64, usize, i64),
) {
    let (offset, len, salt) = op;
    let off = offset % n;
    let len = (len as u64).clamp(1, n - off) as usize;
    let buf: Vec<f64> = (0..len)
        .map(|j| (salt as f64) + (i as f64) * 0.5 + (j as f64) * 0.125)
        .collect();
    oracle.write_run(off, &buf).expect("oracle write");
    striped.write_run(off, &buf).expect("striped write");
}

proptest! {
    /// The parity round-trip property: after any sequence of
    /// read-modify-write updates, (a) the striped contents match a
    /// flat oracle bit-for-bit, (b) a verify-only scrub finds every
    /// group's parity bit-exact, and (c) with each node killed in
    /// turn, the full contents still read back bit-equal through
    /// peers ⊕ parity reconstruction.
    #[test]
    fn parity_survives_any_single_node_kill(
        n in 24u64..96,
        nodes in 2usize..5,
        stripe in 1u64..6,
        ops in proptest::collection::vec((0u64..96, 1usize..12, -512i64..512), 1..24),
    ) {
        let seeded = |p: &IoNodePool| {
            let mut oracle = MemStore::new(n);
            let mut s = parity_store(p, n);
            for (i, &op) in ops.iter().enumerate() {
                apply_write(&mut oracle, &mut s, n, i, op);
            }
            (oracle, s)
        };
        let (oracle, mut s) = seeded(&pool(nodes, stripe));
        let golden = bits(&oracle, n);
        prop_assert_eq!(&bits(&s, n), &golden, "healthy contents diverge");

        let rep = s.scrub(false).expect("verify-only scrub");
        prop_assert_eq!(rep.clean, rep.groups, "parity stale after RMW writes");
        prop_assert_eq!(rep.parity_mismatch, 0);
        prop_assert_eq!(rep.corrupt_chunks, 0);
        prop_assert_eq!(rep.unrecoverable, 0);

        // A dead node stays down, so each kill gets a fresh pool.
        let mut reconstruct_reads = 0;
        for k in 0..nodes {
            let p = pool(nodes, stripe);
            let (_, s) = seeded(&p);
            p.quarantine(k);
            prop_assert_eq!(
                &bits(&s, n), &golden,
                "contents diverge with node {} down", k
            );
            reconstruct_reads += p.total_repair().get(IoCause::DegradedReconstruct).read_calls;
        }
        // Reconstruction for a node that holds data must have gone
        // through the repair plane, never the data plane.
        prop_assert!(reconstruct_reads > 0);
    }

    /// Degraded writes: a node killed mid-sequence absorbs the rest
    /// of the workload into parity (peers ⊕ new data), and the full
    /// contents — including chunks written *after* the kill to the
    /// dead node — still read back bit-equal to the oracle.
    #[test]
    fn writes_land_while_a_node_is_down(
        n in 24u64..96,
        nodes in 2usize..5,
        stripe in 1u64..6,
        ops in proptest::collection::vec((0u64..96, 1usize..12, -512i64..512), 2..24),
        kill_at in 0usize..24,
        victim_sel in 0usize..8,
    ) {
        let p = pool(nodes, stripe);
        let victim = victim_sel % nodes;
        let mut oracle = MemStore::new(n);
        let mut s = parity_store(&p, n);
        let kill_at = kill_at % ops.len();
        for (i, &op) in ops.iter().enumerate() {
            if i == kill_at {
                s.pool().quarantine(victim);
            }
            apply_write(&mut oracle, &mut s, n, i, op);
        }
        prop_assert_eq!(&bits(&s, n), &bits(&oracle, n), "degraded contents diverge");
        // Scrubbing a degraded medium spends no redundancy: groups
        // touching the dead node are skipped, nothing is declared
        // corrupt or unrecoverable.
        let rep = s.scrub(false).expect("degraded scrub");
        prop_assert_eq!(rep.corrupt_chunks, 0);
        prop_assert_eq!(rep.unrecoverable, 0);
        prop_assert_eq!(rep.clean + rep.skipped + rep.parity_mismatch, rep.groups);
    }

    /// Torn-write corpses: scribbling on a part's raw bytes without
    /// updating the CRC sidecar (a write that died between the data
    /// and checksum steps) is detected on read as a typed corrupt
    /// error, a repairing scrub rewrites the chunk from peers ⊕
    /// parity, and afterwards the medium verifies fully clean and
    /// reads back bit-equal.
    #[test]
    fn torn_writes_are_detected_by_crc_and_reconstructed(
        n in 24u64..96,
        nodes in 2usize..5,
        stripe in 1u64..6,
        ops in proptest::collection::vec((0u64..96, 1usize..12, -512i64..512), 1..24),
        victim_sel in 0usize..8,
        elem_sel in 0u64..4096,
    ) {
        let p = pool(nodes, stripe);
        let mut inners: Vec<SharedStore<MemStore>> = Vec::new();
        let mut s = StripedStore::build_with_parity(
            &p,
            n,
            |_, l| {
                let inner = SharedStore::new(MemStore::new(l));
                inners.push(inner.clone());
                // One CRC chunk per stripe, so a torn element corrupts
                // exactly one parity group's chunk.
                let mut part =
                    CrcPart::attach(inner, MemStore::new(CrcPart::sidecar_len(l, stripe)), stripe)?;
                part.rebuild()?;
                Ok(part)
            },
            |_, l| {
                let mut part = CrcPart::attach(
                    SharedStore::new(MemStore::new(l)),
                    MemStore::new(CrcPart::sidecar_len(l, stripe)),
                    stripe,
                )?;
                part.rebuild()?;
                Ok(part)
            },
        )
        .expect("build CRC parity striped store");
        let mut oracle = MemStore::new(n);
        for (i, &op) in ops.iter().enumerate() {
            apply_write(&mut oracle, &mut s, n, i, op);
        }
        let golden = bits(&oracle, n);

        // Tear one element on the victim node, under the sidecar.
        let victim = victim_sel % nodes;
        let plen = part_len(n, stripe, nodes, victim);
        prop_assert!(plen > 0, "every node holds data at these sizes");
        let idx = elem_sel % plen;
        let inner = &mut inners[victim];
        let mut old = [0.0];
        inner.read_run(idx, &mut old).expect("raw read");
        let torn = f64::from_bits(old[0].to_bits() ^ 0x8000_0000_0000_0001);
        inner.write_run(idx, &[torn]).expect("raw scribble");

        // Reads detect the stale CRC and surface it as a typed error:
        // the torn chunk never leaks through a read.
        let mut buf = vec![0.0; usize::try_from(n).expect("size")];
        let e = s.read_run(0, &mut buf).expect_err("torn chunk leaked through a read");
        prop_assert!(is_corrupt(&e), "typed corrupt error, got {}", e);

        // A repairing scrub finds exactly the torn chunk and rebuilds
        // it (refreshing its CRC sidecar); a second verify-only pass
        // is then fully clean.
        let rep = s.scrub(true).expect("repairing scrub");
        prop_assert_eq!(rep.corrupt_chunks, 1, "CRC missed the torn chunk");
        prop_assert_eq!(rep.repaired, 1);
        prop_assert_eq!(rep.unrecoverable, 0);
        let rep = s.scrub(false).expect("verify-only re-scrub");
        prop_assert_eq!(rep.clean, rep.groups, "medium not clean after repair");
        prop_assert_eq!(rep.corrupt_chunks, 0);
        prop_assert_eq!(rep.unrecoverable, 0);
        prop_assert_eq!(&bits(&s, n), &golden, "contents diverge after repair");
    }
}
