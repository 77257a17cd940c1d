//! A bounded tile cache with Belady-informed eviction.
//!
//! Capacity is counted in **elements** (the same unit as the memory
//! budget that sized the tiles). Because the tile walk is statically
//! scheduled, every resident entry knows the absolute step of its
//! next use; the eviction victim is the unpinned entry whose next use
//! is **farthest in the future** (Belady's MIN, informed by the
//! schedule rather than an oracle), entries with *no* future use
//! evicted first. When next-use information ties or is absent the
//! cache falls back to LRU, and finally to key order — every
//! tie-break is deterministic, so a cached run is replayable
//! bit-for-bit regardless of backend or thread timing.
//!
//! Pinned entries are never evicted: the pipeline pins a tile from
//! the moment a prefetch decision depends on it being resident until
//! the consuming step has taken it, and `take` (or `clear`) is what
//! releases the pin. [`TileCache`]
//! hands tiles *out* by value ([`TileCache::take`]) and accepts them
//! back ([`TileCache::insert`]), which keeps ownership with the
//! executing step while it mutates the tile.

use crate::schedule::SlotKey;
use ooc_runtime::{Region, Tile};
use std::collections::BTreeMap;

/// Counters of everything the cache did — exported to `ooc-metrics`
/// by the pipeline stats layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `take` calls satisfied from the cache.
    pub hits: u64,
    /// `take` calls that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Of those, entries that were dirty (needed a write-back).
    pub dirty_evictions: u64,
    /// Inserts rejected because the tile cannot fit even after
    /// evicting every unpinned entry.
    pub overflows: u64,
    /// High-water mark of resident elements.
    pub peak_elems: u64,
}

impl CacheStats {
    /// Accumulates `other` (counters add, the peak takes the max) —
    /// used to fold per-nest cache stats into one run total.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.dirty_evictions += other.dirty_evictions;
        self.overflows += other.overflows;
        self.peak_elems = self.peak_elems.max(other.peak_elems);
    }
}

#[derive(Debug)]
struct Entry {
    tile: Tile,
    dirty: bool,
    pinned: bool,
    /// Absolute step of the next scheduled use; `None` = no known
    /// future use (first to go).
    next_use: Option<u64>,
    /// Monotone tick of the last touch, for the LRU fallback.
    last_use: u64,
}

/// An entry pushed out by [`TileCache::insert`]; dirty ones must be
/// written back by the caller.
#[derive(Debug)]
pub struct Evicted {
    /// The slot the tile belongs to.
    pub key: SlotKey,
    /// The evicted tile (its region identifies it).
    pub tile: Tile,
    /// Whether the tile holds unwritten modifications.
    pub dirty: bool,
    /// The Belady next-use annotation the entry carried when it was
    /// pushed out (`None` = no scheduled future use, or a barrier
    /// clear) — the provenance ledger attaches this to the capacity
    /// miss that later pays for the eviction.
    pub next_use: Option<u64>,
}

/// Outcome of an insert: what was displaced, and — if the tile cannot
/// fit at all — the tile itself handed back.
#[derive(Debug, Default)]
pub struct InsertOutcome {
    /// Entries evicted to make room, in eviction order.
    pub evicted: Vec<Evicted>,
    /// The rejected tile when even a full sweep of unpinned entries
    /// cannot free enough room (oversized tile or everything pinned).
    pub rejected: Option<Tile>,
}

/// The bounded tile cache. See the module docs for the policy.
#[derive(Debug)]
pub struct TileCache {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: BTreeMap<(SlotKey, Region), Entry>,
    stats: CacheStats,
}

impl TileCache {
    /// A cache holding at most `capacity` elements.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        TileCache {
            capacity,
            used: 0,
            tick: 0,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity, in elements.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Resident elements right now.
    #[must_use]
    pub fn used_elems(&self) -> u64 {
        self.used
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether `(key, region)` is resident.
    #[must_use]
    pub fn contains(&self, key: SlotKey, region: &Region) -> bool {
        self.entries.contains_key(&(key, region.clone()))
    }

    /// Removes and returns the tile for `(key, region)`, counting a
    /// hit or miss. A pin does not survive a take — the taker owns
    /// the tile outright and re-pins on re-insert if needed.
    pub fn take(&mut self, key: SlotKey, region: &Region) -> Option<Tile> {
        match self.entries.remove(&(key, region.clone())) {
            Some(e) => {
                self.used -= e.tile.data().len() as u64;
                self.stats.hits += 1;
                Some(e.tile)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a tile, evicting unpinned entries (farthest next use
    /// first, then LRU, then key order) until it fits. Dirty evicted
    /// entries are returned for write-back; if the tile cannot fit at
    /// all it comes back in [`InsertOutcome::rejected`] and the cache
    /// is unchanged beyond the eviction attempt counter.
    pub fn insert(
        &mut self,
        key: SlotKey,
        tile: Tile,
        dirty: bool,
        next_use: Option<u64>,
    ) -> InsertOutcome {
        let elems = tile.data().len() as u64;
        let mut out = InsertOutcome::default();
        if elems > self.capacity {
            self.stats.overflows += 1;
            out.rejected = Some(tile);
            return out;
        }
        while self.used + elems > self.capacity {
            match self.pick_victim() {
                Some(victim) => {
                    let e = self.entries.remove(&victim).expect("victim resident");
                    self.used -= e.tile.data().len() as u64;
                    self.stats.evictions += 1;
                    if e.dirty {
                        self.stats.dirty_evictions += 1;
                    }
                    out.evicted.push(Evicted {
                        key: victim.0,
                        tile: e.tile,
                        dirty: e.dirty,
                        next_use: e.next_use,
                    });
                }
                None => {
                    // Everything resident is pinned.
                    self.stats.overflows += 1;
                    out.rejected = Some(tile);
                    return out;
                }
            }
        }
        self.tick += 1;
        self.used += elems;
        self.stats.peak_elems = self.stats.peak_elems.max(self.used);
        let region = tile.region().clone();
        let prev = self.entries.insert(
            (key, region),
            Entry {
                tile,
                dirty,
                pinned: false,
                next_use,
                last_use: self.tick,
            },
        );
        debug_assert!(prev.is_none(), "double insert of a resident tile");
        out
    }

    /// Pins `(key, region)` against eviction until a `take` or
    /// `clear` removes it. Returns `false` when the entry is not
    /// resident.
    pub fn pin(&mut self, key: SlotKey, region: &Region) -> bool {
        match self.entries.get_mut(&(key, region.clone())) {
            Some(e) => {
                e.pinned = true;
                true
            }
            None => false,
        }
    }

    /// Empties the cache — the nest-boundary barrier. Every entry is
    /// returned; dirty ones must be flushed by the caller. Pins do not
    /// block a clear (the barrier only runs once no step is in
    /// flight).
    pub fn clear(&mut self) -> Vec<Evicted> {
        self.used = 0;
        let entries = std::mem::take(&mut self.entries);
        entries
            .into_iter()
            .map(|((key, _), e)| Evicted {
                key,
                tile: e.tile,
                dirty: e.dirty,
                next_use: e.next_use,
            })
            .collect()
    }

    /// The eviction victim: among unpinned entries, the one whose
    /// next use is farthest (no-future-use first), ties broken by
    /// least-recent use, then by key order. Deterministic given equal
    /// cache contents.
    fn pick_victim(&self) -> Option<(SlotKey, Region)> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.pinned)
            .max_by(|(ka, a), (kb, b)| {
                // Later next use = better victim; None = infinity.
                let by_use = match (a.next_use, b.next_use) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (Some(x), Some(y)) => x.cmp(&y),
                };
                // Older last_use = better victim (LRU fallback), so
                // compare reversed; final tie-break on key order.
                by_use
                    .then_with(|| b.last_use.cmp(&a.last_use))
                    .then_with(|| ka.cmp(kb))
            })
            .map(|(k, _)| k.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(array: u32) -> SlotKey {
        SlotKey { array, slot: 0 }
    }

    fn tile(lo: i64, hi: i64) -> Tile {
        Tile::zeroed(Region::new(vec![lo], vec![hi]))
    }

    #[test]
    fn take_hits_and_misses() {
        let mut c = TileCache::new(100);
        let r = Region::new(vec![1], vec![4]);
        assert!(c.take(key(0), &r).is_none());
        let out = c.insert(key(0), tile(1, 4), false, Some(3));
        assert!(out.evicted.is_empty() && out.rejected.is_none());
        assert_eq!(c.used_elems(), 4);
        let t = c.take(key(0), &r).expect("hit");
        assert_eq!(t.region(), &r);
        assert_eq!(c.used_elems(), 0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn evicts_farthest_next_use_first() {
        let mut c = TileCache::new(12);
        c.insert(key(0), tile(1, 4), false, Some(2));
        c.insert(key(1), tile(1, 4), false, Some(9));
        c.insert(key(2), tile(1, 4), false, Some(5));
        // A 4-element insert must displace exactly the next_use=9 entry.
        let out = c.insert(key(3), tile(1, 4), false, Some(1));
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].key, key(1));
        assert!(out.rejected.is_none());
        assert_eq!(c.used_elems(), 12);
    }

    #[test]
    fn no_future_use_evicted_before_any_scheduled_use() {
        let mut c = TileCache::new(8);
        c.insert(key(0), tile(1, 4), false, None);
        c.insert(key(1), tile(1, 4), false, Some(1_000));
        let out = c.insert(key(2), tile(1, 4), false, Some(1));
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].key, key(0), "None beats Some(1000)");
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let mut c = TileCache::new(8);
        c.insert(key(0), tile(1, 4), true, Some(9_999));
        assert!(c.pin(key(0), &Region::new(vec![1], vec![4])));
        c.insert(key(1), tile(1, 4), false, Some(1));
        // key(0) is the Belady victim but pinned; key(1) must go.
        let out = c.insert(key(2), tile(1, 4), false, Some(2));
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].key, key(1));
        assert!(!out.evicted[0].dirty);
        assert!(c.contains(key(0), &Region::new(vec![1], vec![4])));
        // A take releases the pin: re-inserted, the tile is evictable.
        let t = c.take(key(0), &Region::new(vec![1], vec![4])).expect("hit");
        c.insert(key(0), t, true, Some(9_999));
        let out = c.insert(key(3), tile(1, 4), false, Some(3));
        assert_eq!(out.evicted[0].key, key(0));
        assert!(out.evicted[0].dirty, "dirty flag rides along");
    }

    #[test]
    fn rejects_when_nothing_can_move() {
        let mut c = TileCache::new(8);
        c.insert(key(0), tile(1, 8), false, Some(1));
        c.pin(key(0), &Region::new(vec![1], vec![8]));
        let out = c.insert(key(1), tile(1, 4), false, Some(2));
        assert!(out.rejected.is_some(), "all capacity pinned");
        assert_eq!(c.stats().overflows, 1);
        // Oversized tile: rejected outright.
        let mut c = TileCache::new(4);
        let out = c.insert(key(0), tile(1, 8), false, None);
        assert_eq!(out.rejected.expect("rejected").data().len(), 8);
        assert_eq!(c.used_elems(), 0);
    }

    #[test]
    fn lru_breaks_next_use_ties() {
        let mut c = TileCache::new(8);
        // Equal next use: key(0), inserted first, is least recent and
        // goes, although key order alone would pick key(1).
        c.insert(key(0), tile(1, 4), false, Some(7));
        c.insert(key(1), tile(1, 4), false, Some(7));
        let out = c.insert(key(2), tile(1, 4), false, Some(1));
        assert_eq!(out.evicted[0].key, key(0));
    }

    #[test]
    fn clear_returns_everything_for_the_barrier() {
        let mut c = TileCache::new(100);
        c.insert(key(0), tile(1, 4), true, Some(1));
        c.insert(key(1), tile(5, 8), false, Some(2));
        c.pin(key(0), &Region::new(vec![1], vec![4]));
        let drained = c.clear();
        assert_eq!(drained.len(), 2, "pins do not block the barrier");
        assert_eq!(drained.iter().filter(|e| e.dirty).count(), 1);
        assert!(c.is_empty());
        assert_eq!(c.used_elems(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut c = TileCache::new(100);
        c.insert(key(0), tile(1, 30), false, None);
        c.insert(key(1), tile(1, 40), false, None);
        c.take(key(0), &Region::new(vec![1], vec![30]));
        assert_eq!(c.stats().peak_elems, 70);
    }
}
