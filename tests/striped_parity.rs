//! Tier-1 coverage of the striped store and its degraded mode: the
//! crate-level unit tests and `parity_proptests.rs` only run under
//! `--workspace`, so the properties the measured Table 3 and the
//! degraded-mode sweep stand on are re-checked here through the public
//! API, on small stores, in well under two seconds.
//!
//! For K ∈ {2, 3, 4} nodes and a store whose last stripe is ragged:
//!
//! * a parity-striped store is bit-equal to a flat `MemStore` under
//!   random runs, healthy and with every single node dead (reads
//!   reconstruct, writes land in parity);
//! * parity is consistent after every healthy write (a verify-only
//!   scrub finds every group clean);
//! * the per-node data-plane totals are conserved across K, and repair
//!   traffic never enters `NodeStats::io`: a degraded run leaves every
//!   surviving node's data-plane counters exactly as its fault-free
//!   twin does, and the dead node's untouched;
//! * every repair call a lane counted is in the ledger and vice versa,
//!   per cause, also when a node dies between two calls of one
//!   segment.

use ooc_opt::runtime::{
    is_node_down, IoCause, IoNodePool, LedgerRecorder, MeasuredIo, MemStore, NodeFaultConfig,
    NodeHealth, Store, StripeConfig, StripedStore,
};

const STRIPE: u64 = 8;
/// Six full stripes and a ragged seventh.
const LEN: u64 = 53;

fn config(nodes: usize) -> StripeConfig {
    StripeConfig {
        nodes,
        stripe_elems: STRIPE,
        ..StripeConfig::default()
    }
}

fn parity_store(pool: &IoNodePool) -> StripedStore<MemStore> {
    StripedStore::build_with_parity(
        pool,
        LEN,
        |_, len| Ok(MemStore::new(len)),
        |_, len| Ok(MemStore::new(len)),
    )
    .expect("build parity-striped store")
}

/// A deterministic stream of `(offset, run)` pairs inside `0..LEN`,
/// values distinct per element so a misplaced one cannot go unseen.
struct Runs(u64);

impl Runs {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn next_run(&mut self) -> (u64, Vec<f64>) {
        let off = self.next_u64() % LEN;
        let len = 1 + self.next_u64() % (LEN - off).min(3 * STRIPE);
        let data = (0..len)
            .map(|_| (self.next_u64() % 100_000) as f64 / 7.0 - 3_000.0)
            .collect();
        (off, data)
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_image(striped: &impl Store, flat: &MemStore, what: &str) {
    let mut got = vec![0.0; LEN as usize];
    let mut want = vec![0.0; LEN as usize];
    striped.read_run(0, &mut got).expect("striped image");
    flat.read_run(0, &mut want).expect("flat image");
    assert_eq!(bits(&got), bits(&want), "{what}");
}

/// `writes` random writes then `reads` random reads, mirrored on the
/// flat store and compared bit for bit.
fn drive(
    striped: &mut impl Store,
    flat: &mut MemStore,
    runs: &mut Runs,
    writes: usize,
    reads: usize,
) {
    for _ in 0..writes {
        let (off, data) = runs.next_run();
        striped.write_run(off, &data).expect("striped write");
        flat.write_run(off, &data).expect("flat write");
    }
    for _ in 0..reads {
        let (off, data) = runs.next_run();
        let mut got = vec![0.0; data.len()];
        let mut want = vec![0.0; data.len()];
        striped.read_run(off, &mut got).expect("striped read");
        flat.read_run(off, &mut want).expect("flat read");
        assert_eq!(bits(&got), bits(&want), "run at {off}");
    }
}

#[test]
fn parity_store_is_bit_equal_to_a_flat_store_for_every_single_dead_node() {
    for nodes in [2, 3, 4] {
        for dead in 0..nodes {
            let pool = IoNodePool::new(config(nodes));
            let mut striped = parity_store(&pool);
            let mut flat = MemStore::new(LEN);
            let mut runs = Runs(0x5eed + nodes as u64 * 16 + dead as u64);
            // Healthy: parity verifies clean after each write.
            for _ in 0..6 {
                drive(&mut striped, &mut flat, &mut runs, 1, 1);
                let rep = striped.scrub(false).expect("verify-only scrub");
                assert_eq!(rep.clean, rep.groups, "K={nodes}: parity consistent");
                assert_eq!(rep.parity_mismatch + rep.corrupt_chunks + rep.skipped, 0);
            }
            // One node dead: reads reconstruct, writes land in parity.
            pool.quarantine(dead);
            drive(&mut striped, &mut flat, &mut runs, 8, 8);
            assert_same_image(&striped, &flat, "degraded image");
            let repair = pool.total_repair();
            assert!(repair.get(IoCause::DegradedReconstruct).read_calls > 0);
        }
    }
}

/// Per-node data-plane counters after seeding the whole store, eight
/// random writes and eight random reads, `dead` quarantined after the
/// seed (statistics reset there, so the seed itself is not counted).
fn data_plane(pool: &IoNodePool, striped: &mut impl Store, dead: Option<usize>) -> Vec<MeasuredIo> {
    let mut flat = MemStore::new(LEN);
    let seed: Vec<f64> = (0..LEN).map(|i| i as f64 * 0.5).collect();
    striped.write_run(0, &seed).expect("seed");
    flat.write_run(0, &seed).expect("seed");
    pool.reset_stats();
    if let Some(node) = dead {
        pool.quarantine(node);
    }
    drive(striped, &mut flat, &mut Runs(0xc0de), 8, 8);
    pool.snapshot().into_iter().map(|n| n.io).collect()
}

#[test]
fn data_plane_totals_are_conserved_and_free_of_repair_traffic() {
    let single = IoNodePool::new(config(1));
    let mut plain = StripedStore::build(&single, LEN, |_, len| Ok(MemStore::new(len)))
        .expect("build one-node store");
    data_plane(&single, &mut plain, None);
    let reference = single.total_io();
    assert!(reference.read_calls > 8 && reference.write_calls > 8);
    for nodes in [2, 3, 4] {
        let pool = IoNodePool::new(config(nodes));
        let healthy = data_plane(&pool, &mut parity_store(&pool), None);
        // Parity adds repair-plane traffic only: summed over K nodes the
        // data plane is what one node without parity sees.
        assert_eq!(pool.total_io(), reference, "K={nodes}: totals conserved");
        assert!(pool.total_repair().get(IoCause::ParityWrite).write_calls > 0);
        for dead in 0..nodes {
            let pool = IoNodePool::new(config(nodes));
            let degraded = data_plane(&pool, &mut parity_store(&pool), Some(dead));
            for (node, (got, twin)) in degraded.iter().zip(&healthy).enumerate() {
                if node == dead {
                    assert_eq!(got, &MeasuredIo::default(), "K={nodes}: dead node {node}");
                } else {
                    assert_eq!(got, twin, "K={nodes} dead={dead}: survivor {node}");
                }
            }
            assert!(!pool.total_repair().is_empty());
        }
    }
}

/// Σ over nodes of `NodeStats::repair` equals the ledger's repair
/// channel, per cause, calls and elements alike.
fn assert_ledger_matches_lanes(pool: &IoNodePool, ledger: &LedgerRecorder, array: u32, what: &str) {
    let lanes = pool.total_repair();
    let booked = ledger.snapshot().repair;
    for cause in IoCause::REPAIR {
        let lane = lanes.get(cause);
        let want = (lane.total_calls(), lane.total_elems());
        let got = booked.get(&(array, cause)).copied().unwrap_or((0, 0));
        assert_eq!(
            got, want,
            "{what}: {cause} (calls, elems) in ledger vs lanes"
        );
    }
}

#[test]
fn ledger_and_lanes_agree_when_a_node_dies_inside_a_segment() {
    const ARRAY: u32 = 7;
    let victim = 1;
    let seed: Vec<f64> = (0..LEN).map(|i| i as f64 - 20.25).collect();
    // Stripe 1 lives on node 1 at K=3; a write inside it is one segment.
    let (off, patch) = (STRIPE + 2, [4.5, -1.25, 8.0]);
    // Node 1's arrival count after the seed, from a fault-free twin:
    // the next two arrivals are the patch's pre-image read and its
    // data write.
    let twin = IoNodePool::new(config(3));
    parity_store(&twin).write_run(0, &seed).expect("twin seed");
    let seen = &twin.snapshot()[victim];
    let dies_at = seen.io.total_calls() + seen.repair.total_calls() + 1;
    let faults = NodeFaultConfig::new().permanent_fail_at(victim, dies_at);
    let pool = IoNodePool::with_faults(config(3), faults);
    let ledger = LedgerRecorder::new();
    let mut striped = parity_store(&pool).with_ledger(ledger.clone(), ARRAY);
    striped
        .write_run(0, &seed)
        .expect("seed within the fault budget");
    assert_ledger_matches_lanes(&pool, &ledger, ARRAY, "after the seed");
    let before = pool.total_repair().get(IoCause::ParityWrite).read_calls;
    let e = striped
        .write_run(off, &patch)
        .expect_err("the write surfaces the death");
    // The pre-image read was served and counted; the data write met
    // the dead node, whose typed error reaches the caller.
    assert!(is_node_down(&e), "typed NodeDown, got {e}");
    assert_eq!(pool.health(victim), NodeHealth::Down);
    assert!(pool.total_repair().get(IoCause::ParityWrite).read_calls > before);
    assert_ledger_matches_lanes(&pool, &ledger, ARRAY, "after the death");
    assert!(
        ledger.snapshot().events.is_empty(),
        "repair stays out of events"
    );
}
