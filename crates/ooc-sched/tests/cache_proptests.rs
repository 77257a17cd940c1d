//! Property tests of the [`TileCache`] invariants the pipeline's
//! correctness rests on: a bounded cache never exceeds its capacity,
//! pinned tiles are never evicted, and the eviction victim is always
//! the unpinned entry with the farthest next use.

use ooc_runtime::{Region, Tile};
use ooc_sched::{SlotKey, TileCache};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An arbitrary cache op, decoded from integer tuples so the shim's
/// tuple strategies suffice.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert a tile of `elems` elements for `(array, lo)`.
    Insert {
        array: u32,
        lo: i64,
        elems: i64,
        next_use: Option<u64>,
        dirty: bool,
    },
    /// Take `(array, lo, elems)` out (hit or miss).
    Take { array: u32, lo: i64, elems: i64 },
    /// Pin `(array, lo, elems)` until it is taken.
    Pin { array: u32, lo: i64, elems: i64 },
}

fn decode(raw: (u8, u32, i64, i64, u64, bool)) -> Op {
    let (kind, array, lo_raw, elems_raw, next, dirty) = raw;
    let array = array % 4;
    let lo = (lo_raw % 5) * 16 + 1;
    let elems = elems_raw % 12 + 1;
    match kind % 3 {
        0 => Op::Insert {
            array,
            lo,
            elems,
            next_use: (next % 3 != 0).then_some(next),
            dirty,
        },
        1 => Op::Take { array, lo, elems },
        _ => Op::Pin { array, lo, elems },
    }
}

fn key(array: u32) -> SlotKey {
    SlotKey { array, slot: 0 }
}

fn region(lo: i64, elems: i64) -> Region {
    Region::new(vec![lo], vec![lo + elems - 1])
}

proptest! {
    /// Driving the cache with arbitrary op sequences never violates
    /// the capacity bound, never evicts a pinned entry, and every
    /// eviction victim has the farthest next use among unpinned
    /// entries (`None` counting as infinitely far; LRU ties allowed).
    #[test]
    fn cache_invariants_hold_under_arbitrary_ops(
        capacity in 4u64..40,
        raw_ops in proptest::collection::vec(
            (0u8..8, 0u32..8, 0i64..64, 0i64..64, 0u64..64, proptest::strategy::any::<bool>()),
            1..80,
        ),
    ) {
        let mut cache = TileCache::new(capacity);
        // Shadow model: what is resident, what is pinned, each entry's
        // next_use.
        // Keyed by (slot, (lo, elems)); values are (next_use, pinned).
        type Shadow = BTreeMap<(SlotKey, (i64, i64)), (Option<u64>, bool)>;
        let mut resident: Shadow = BTreeMap::new();

        for (i, &raw) in raw_ops.iter().enumerate() {
            match decode(raw) {
                Op::Insert { array, lo, elems, next_use, dirty } => {
                    let id = (key(array), (lo, elems));
                    if resident.contains_key(&id) {
                        // The real pipeline never double-inserts; take
                        // first to keep the model aligned.
                        cache.take(key(array), &region(lo, elems));
                        resident.remove(&id);
                    }
                    let out = cache.insert(
                        key(array),
                        Tile::zeroed(region(lo, elems)),
                        dirty,
                        next_use,
                    );
                    for ev in &out.evicted {
                        let elen = ev.tile.region().len();
                        let eid = (ev.key, (ev.tile.region().lo[0], elen));
                        let (enext, pinned) =
                            resident.remove(&eid).expect("evicted entry was resident");
                        prop_assert!(!pinned, "op {}: evicted a pinned entry", i);
                        // Belady check: no surviving unpinned entry has a
                        // strictly farther next use than the victim.
                        for ((_, _), &(onext, opinned)) in &resident {
                            if opinned {
                                continue;
                            }
                            let farther = match (onext, enext) {
                                (None, Some(_)) => true,
                                (Some(a), Some(b)) => a > b,
                                _ => false,
                            };
                            prop_assert!(
                                !farther,
                                "op {}: victim next_use {:?} but {:?} survived",
                                i, enext, onext
                            );
                        }
                    }
                    if out.rejected.is_none() {
                        resident.insert(id, (next_use, false));
                    }
                }
                Op::Take { array, lo, elems } => {
                    let got = cache.take(key(array), &region(lo, elems));
                    let id = (key(array), (lo, elems));
                    prop_assert_eq!(got.is_some(), resident.contains_key(&id), "op {}", i);
                    resident.remove(&id);
                }
                Op::Pin { array, lo, elems } => {
                    let id = (key(array), (lo, elems));
                    let ok = cache.pin(key(array), &region(lo, elems));
                    prop_assert_eq!(ok, resident.contains_key(&id), "op {}", i);
                    if let Some(e) = resident.get_mut(&id) {
                        e.1 = true;
                    }
                }
            }
            // The capacity bound, checked after every op.
            prop_assert!(
                cache.used_elems() <= capacity,
                "op {}: {} elems resident over capacity {}",
                i, cache.used_elems(), capacity
            );
            let model_used: u64 = resident.keys().map(|(_, (_, e))| *e as u64).sum();
            prop_assert_eq!(cache.used_elems(), model_used, "op {}: accounting drift", i);
        }

        // clear() returns exactly what the model says is resident.
        let drained = cache.clear();
        prop_assert_eq!(drained.len(), resident.len());
        prop_assert_eq!(cache.used_elems(), 0);
    }
}
