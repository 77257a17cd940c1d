//! Write-behind: dirty tiles queue for a single background writer
//! thread, so tile write-back overlaps the next steps' compute.
//!
//! Correctness rests on two waits the executor performs:
//!
//! * [`WriteBehind::wait_clear`] before re-reading any region that
//!   might still be queued or in flight — the read-after-write
//!   ordering a synchronous executor gets for free.
//! * [`WriteBehind::flush`] at every nest boundary (the **flush
//!   barrier**): it drains the queue and surfaces the first write
//!   error, so a nest never starts while its predecessor's stores are
//!   airborne and a lost write can never be silently absorbed.
//!
//! The queue is bounded (`MAX_PENDING` = 4 tiles behind the one being
//! written): [`WriteBehind::enqueue`] holds the producer back once it
//! is full, so a body that computes faster than the store absorbs
//! cannot park a whole iteration's dirty tiles outside the memory
//! budget. The bound moves waiting from the flush barrier to the
//! enqueue; it changes no write, and no count.
//!
//! A *single* writer thread keeps per-array write order identical to
//! enqueue order, which makes overlapping same-array writes safe
//! without any versioning; cross-array order is irrelevant because
//! stores to different arrays never alias. A tile settles when
//! [`TileSink::store`] returns, so whatever the sink does inside it —
//! a crash-consistent executor's journal commit, for one — is done
//! before `wait_clear` or `flush` report the region clear.

use crate::schedule::TileId;
use ooc_runtime::{IoStats, Region, Tile};
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What the writer thread needs: the ability to write one tile back
/// to its array and report the I/O stats of that write alone.
pub trait TileSink: Send {
    /// Writes `tile` back to array `id.key.array`, returning the I/O
    /// accounting of this write only.
    ///
    /// # Errors
    /// Propagates store-level I/O errors (after the sink's own retry
    /// policy is exhausted).
    fn store(&mut self, id: &TileId, tile: &Tile) -> io::Result<IoStats>;
}

/// Most tiles that wait in the queue behind the one being written —
/// the write-side twin of the prefetch window's default depth.
const MAX_PENDING: usize = 4;

#[derive(Debug, Default)]
struct WbQueue {
    pending: Vec<(TileId, Tile)>,
    /// The tile currently being written, if any.
    active: Option<TileId>,
    /// First write error, sticky until observed by `flush`. The
    /// original error value is kept so typed payloads (e.g. injected
    /// crashes, corrupt-read markers) survive to the caller.
    error: Option<io::Error>,
    /// Per-array accumulated write stats.
    stats: BTreeMap<u32, IoStats>,
    closed: bool,
}

impl WbQueue {
    fn blocks(&self, array: u32, region: &Region) -> bool {
        self.pending
            .iter()
            .any(|(id, _)| id.key.array == array && id.region.overlaps(region))
            || self
                .active
                .as_ref()
                .is_some_and(|id| id.key.array == array && id.region.overlaps(region))
    }

    fn busy(&self) -> bool {
        !self.pending.is_empty() || self.active.is_some()
    }
}

#[derive(Debug, Default)]
struct WbState {
    queue: Mutex<WbQueue>,
    /// Signals the writer that work arrived (or the queue closed).
    work: Condvar,
    /// Signals waiters that the queue drained / a region cleared.
    settled: Condvar,
    /// Signals the producer that the writer took a tile off a full
    /// queue.
    room: Condvar,
}

/// The write-behind queue plus its writer thread.
#[derive(Debug)]
pub struct WriteBehind {
    state: Arc<WbState>,
    writer: Option<JoinHandle<()>>,
}

impl WriteBehind {
    /// Spawns the writer thread over `sink`.
    #[must_use]
    pub fn new(mut sink: Box<dyn TileSink>) -> Self {
        let state = Arc::new(WbState::default());
        let writer = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let _lane =
                    ooc_trace::lane_scope(ooc_trace::Lane::new(ooc_trace::LaneKind::Writer, 0));
                loop {
                    let (id, tile) = {
                        let mut q = state.queue.lock().expect("writebehind queue");
                        loop {
                            if !q.pending.is_empty() {
                                let (id, tile) = q.pending.remove(0);
                                q.active = Some(id.clone());
                                state.room.notify_one();
                                break (id, tile);
                            }
                            if q.closed {
                                return;
                            }
                            q = state.work.wait(q).expect("writebehind queue");
                        }
                    };
                    let _write =
                        ooc_trace::enabled().then(|| ooc_trace::span("pipeline", "wb-write"));
                    let result = sink.store(&id, &tile);
                    let mut q = state.queue.lock().expect("writebehind queue");
                    q.active = None;
                    match result {
                        Ok(stats) => {
                            q.stats.entry(id.key.array).or_default().merge(&stats);
                        }
                        Err(e) => {
                            if q.error.is_none() {
                                q.error = Some(e);
                            }
                        }
                    }
                    state.settled.notify_all();
                }
            })
        };
        WriteBehind {
            state,
            writer: Some(writer),
        }
    }

    /// Queues `tile` for background write-back, first waiting until
    /// fewer than `MAX_PENDING` tiles are queued: a producer that
    /// computes faster than the store absorbs would otherwise park a
    /// whole iteration's written tiles here, outside any memory
    /// budget.
    pub fn enqueue(&self, id: TileId, tile: Tile) {
        {
            let mut q = self.state.queue.lock().expect("writebehind queue");
            if q.pending.len() >= MAX_PENDING {
                let _full =
                    ooc_trace::enabled().then(|| ooc_trace::span("pipeline", "wb-full-wait"));
                while q.pending.len() >= MAX_PENDING {
                    q = self.state.room.wait(q).expect("writebehind queue");
                }
            }
            q.pending.push((id, tile));
        }
        self.state.work.notify_one();
    }

    /// Blocks until no queued or in-flight write overlaps
    /// `(array, region)` — the read-after-write fence a consumer runs
    /// before re-staging data it may have dirtied earlier.
    pub fn wait_clear(&self, array: u32, region: &Region) {
        let mut q = self.state.queue.lock().expect("writebehind queue");
        if q.blocks(array, region) {
            let _fence = ooc_trace::enabled().then(|| ooc_trace::span("pipeline", "fence-wait"));
            while q.blocks(array, region) {
                q = self.state.settled.wait(q).expect("writebehind queue");
            }
        }
    }

    /// The flush barrier: blocks until the queue is fully drained,
    /// then reports (and clears) the first write error.
    ///
    /// # Errors
    /// The first error any background write hit since the previous
    /// flush.
    pub fn flush(&self) -> io::Result<()> {
        let mut q = self.state.queue.lock().expect("writebehind queue");
        if q.busy() {
            let _fence = ooc_trace::enabled().then(|| ooc_trace::span("pipeline", "fence-wait"));
            while q.busy() {
                q = self.state.settled.wait(q).expect("writebehind queue");
            }
        }
        match q.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Tiles queued or in flight right now.
    #[must_use]
    pub fn depth(&self) -> u64 {
        let q = self.state.queue.lock().expect("writebehind queue");
        q.pending.len() as u64 + u64::from(q.active.is_some())
    }

    /// Per-array accumulated write stats (successful writes only).
    #[must_use]
    pub fn stats(&self) -> BTreeMap<u32, IoStats> {
        self.state
            .queue
            .lock()
            .expect("writebehind queue")
            .stats
            .clone()
    }

    /// Closes the queue (after draining it) and joins the writer.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.state.queue.lock().expect("writebehind queue");
            q.closed = true;
        }
        self.state.work.notify_all();
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SlotKey;
    use ooc_runtime::{MemStore, SharedStore, Store};

    /// Writes tiles into flat per-array shared MemStores at
    /// `region.lo[0] - 1`.
    struct FlatSink {
        stores: BTreeMap<u32, SharedStore<MemStore>>,
        fail_array: Option<u32>,
        delay: std::time::Duration,
    }

    impl TileSink for FlatSink {
        fn store(&mut self, id: &TileId, tile: &Tile) -> io::Result<IoStats> {
            std::thread::sleep(self.delay);
            if self.fail_array == Some(id.key.array) {
                return Err(io::Error::other("sink failed"));
            }
            let s = self.stores.get_mut(&id.key.array).expect("store");
            let offset = (id.region.lo[0] - 1) as u64;
            s.write_run(offset, tile.data())?;
            Ok(IoStats {
                writes: 1,
                write_calls: 1,
                write_elems: tile.data().len() as u64,
                ..IoStats::default()
            })
        }
    }

    fn id(array: u32, lo: i64, hi: i64) -> TileId {
        TileId {
            key: SlotKey { array, slot: 0 },
            region: Region::new(vec![lo], vec![hi]),
        }
    }

    fn filled(lo: i64, hi: i64, v: f64) -> Tile {
        let mut t = Tile::zeroed(Region::new(vec![lo], vec![hi]));
        for x in t.data_mut() {
            *x = v;
        }
        t
    }

    fn sink(
        fail: Option<u32>,
        delay_ms: u64,
    ) -> (Box<dyn TileSink>, BTreeMap<u32, SharedStore<MemStore>>) {
        let stores: BTreeMap<u32, SharedStore<MemStore>> = (0..2u32)
            .map(|a| (a, SharedStore::new(MemStore::new(16))))
            .collect();
        (
            Box::new(FlatSink {
                stores: stores.clone(),
                fail_array: fail,
                delay: std::time::Duration::from_millis(delay_ms),
            }),
            stores,
        )
    }

    #[test]
    fn flush_barrier_drains_and_lands_all_writes() {
        let (sink, stores) = sink(None, 1);
        let wb = WriteBehind::new(sink);
        for i in 0..4i64 {
            let lo = i * 4 + 1;
            wb.enqueue(id(0, lo, lo + 3), filled(lo, lo + 3, i as f64 + 1.0));
        }
        wb.flush().expect("no errors");
        assert_eq!(wb.depth(), 0);
        assert_eq!(wb.stats()[&0].write_calls, 4);
        let mut buf = [0.0; 16];
        stores[&0].read_run(0, &mut buf).expect("read");
        for (i, chunk) in buf.chunks(4).enumerate() {
            assert_eq!(chunk, [i as f64 + 1.0; 4], "tile {i} landed");
        }
        let stats = wb.stats();
        assert_eq!(stats[&0].write_calls, 4);
        assert_eq!(stats[&0].write_elems, 16);
    }

    #[test]
    fn wait_clear_orders_read_after_write() {
        let (sink, stores) = sink(None, 5);
        let wb = WriteBehind::new(sink);
        wb.enqueue(id(0, 1, 8), filled(1, 8, 7.0));
        wb.enqueue(id(1, 1, 8), filled(1, 8, 9.0));
        // Overlapping region on array 0: must observe the write.
        wb.wait_clear(0, &Region::new(vec![4], vec![6]));
        let mut buf = [0.0; 8];
        stores[&0].read_run(0, &mut buf).expect("read");
        assert_eq!(buf, [7.0; 8], "wait_clear fenced the overlap");
        // Disjoint region clears immediately even while array 1's
        // write may still be in flight.
        wb.wait_clear(0, &Region::new(vec![9], vec![12]));
        wb.flush().expect("ok");
    }

    #[test]
    fn errors_surface_at_the_barrier_once() {
        let (sink, _stores) = sink(Some(1), 0);
        let wb = WriteBehind::new(sink);
        wb.enqueue(id(0, 1, 4), filled(1, 4, 1.0));
        wb.enqueue(id(1, 1, 4), filled(1, 4, 2.0));
        let err = wb.flush().expect_err("sink failure surfaces");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(err.to_string().contains("sink failed"));
        // The error was consumed; the queue keeps working.
        wb.flush().expect("sticky error cleared after observation");
        assert_eq!(wb.stats()[&0].write_calls, 1, "array-0 write still landed");
    }

    /// Holds every write until the test hands it a token, and says
    /// when a write starts.
    struct GatedSink {
        started: std::sync::mpsc::Sender<i64>,
        gate: std::sync::mpsc::Receiver<()>,
    }

    impl TileSink for GatedSink {
        fn store(&mut self, id: &TileId, _tile: &Tile) -> io::Result<IoStats> {
            self.started.send(id.region.lo[0]).expect("test listens");
            self.gate.recv().expect("test releases every write");
            Ok(IoStats {
                write_calls: 1,
                ..IoStats::default()
            })
        }
    }

    #[test]
    fn a_full_queue_holds_the_producer_back() {
        use std::sync::mpsc::channel;
        let (started_tx, started) = channel();
        let (gate, gate_rx) = channel();
        let wb = WriteBehind::new(Box::new(GatedSink {
            started: started_tx,
            gate: gate_rx,
        }));
        let total = 3 * MAX_PENDING as i64;
        let (queued_tx, queued) = channel();
        std::thread::scope(|scope| {
            let wb = &wb;
            scope.spawn(move || {
                for i in 1..=total {
                    wb.enqueue(id(0, i, i), filled(i, i, i as f64));
                    queued_tx.send(i).expect("test listens");
                }
            });
            // The writer holds tile 1 at the gate; the producer fills
            // the queue behind it and must then wait, however long the
            // test dawdles here.
            assert_eq!(started.recv().expect("writer runs"), 1);
            for i in 1..=MAX_PENDING as i64 + 1 {
                assert_eq!(queued.recv().expect("producer runs"), i);
            }
            for next in 2..=total {
                assert!(
                    wb.depth() <= MAX_PENDING as u64 + 1,
                    "queue overran its bound"
                );
                gate.send(()).expect("writer waits");
                // FIFO: the writer takes the tiles in enqueue order.
                assert_eq!(started.recv().expect("writer runs"), next);
            }
            gate.send(()).expect("writer waits");
        });
        wb.flush().expect("no errors");
        assert_eq!(wb.stats()[&0].write_calls, total as u64);
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let (sink, stores) = sink(None, 1);
        let mut wb = WriteBehind::new(sink);
        wb.enqueue(id(0, 1, 4), filled(1, 4, 3.0));
        wb.shutdown();
        // closed=true still lets the writer drain what was pending
        // before exiting.
        let mut buf = [0.0; 4];
        stores[&0].read_run(0, &mut buf).expect("read");
        assert_eq!(buf, [3.0; 4]);
    }
}
