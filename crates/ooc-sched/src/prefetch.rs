//! Background prefetch workers: a fixed pool of threads pulling tile
//! reads off a shared queue while the main thread computes.
//!
//! Each worker owns a [`TileSource`] — typically a set of out-of-core
//! array handles over [`SharedStore`](ooc_runtime::SharedStore)
//! clones — so fetches from different workers can overlap on the
//! queue while per-call atomicity is preserved by the store lock.
//! Deliveries carry the request's sequence number and the I/O stats
//! of exactly that fetch, so the consumer can fold analytic
//! accounting together in a thread-order-independent way: stats are
//! attributed per request, never per worker, and summing them is
//! commutative.
//!
//! Requests are fetched in FIFO order *per worker*; with several
//! workers, deliveries may arrive out of order. The pipeline matches
//! them back by sequence number into an arrival buffer, so completion
//! order never influences results — only stall time.

use crate::schedule::TileId;
use ooc_runtime::{IoStats, Tile};
use std::collections::VecDeque;
use std::io;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What a prefetch worker needs: the ability to read one tile of one
/// array and report the I/O stats of that read alone.
pub trait TileSource: Send {
    /// Reads the tile covering `tile.region` of array
    /// `tile.key.array`, returning the staged data and the I/O
    /// accounting of this fetch only.
    ///
    /// # Errors
    /// Propagates store-level I/O errors (after the source's own
    /// retry policy is exhausted).
    fn fetch(&mut self, tile: &TileId) -> io::Result<(Tile, IoStats)>;
}

/// A queued prefetch.
#[derive(Debug, Clone)]
pub struct PrefetchRequest {
    /// Issue sequence number, assigned by the pool.
    pub seq: u64,
    /// The tile to stage.
    pub tile: TileId,
}

/// A completed prefetch.
#[derive(Debug)]
pub struct Delivery {
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// The tile that was requested.
    pub tile: TileId,
    /// The staged data plus this fetch's I/O stats, or the error.
    pub result: io::Result<(Tile, IoStats)>,
}

#[derive(Debug, Default)]
struct Queue {
    requests: VecDeque<PrefetchRequest>,
    closed: bool,
}

#[derive(Debug, Default)]
struct QueueState {
    queue: Mutex<Queue>,
    ready: Condvar,
}

/// A pool of prefetch workers over a shared FIFO request queue.
#[derive(Debug)]
pub struct PrefetchPool {
    state: Arc<QueueState>,
    deliveries: mpsc::Receiver<Delivery>,
    workers: Vec<JoinHandle<()>>,
    next_seq: u64,
    received: u64,
}

impl PrefetchPool {
    /// Spawns one worker per source. An empty `sources` vector builds
    /// a degenerate pool whose submissions are never served.
    #[must_use]
    pub fn new(sources: Vec<Box<dyn TileSource>>) -> Self {
        let state = Arc::new(QueueState::default());
        let (tx, rx) = mpsc::channel();
        let workers = sources
            .into_iter()
            .enumerate()
            .map(|(wi, mut source)| {
                let state = Arc::clone(&state);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let lane = ooc_trace::Lane::new(
                        ooc_trace::LaneKind::Prefetch,
                        u32::try_from(wi).unwrap_or(u32::MAX),
                    );
                    let _lane = ooc_trace::lane_scope(lane);
                    loop {
                        let request = {
                            let mut q = state.queue.lock().expect("prefetch queue");
                            loop {
                                if let Some(r) = q.requests.pop_front() {
                                    break r;
                                }
                                if q.closed {
                                    return;
                                }
                                q = state.ready.wait(q).expect("prefetch queue");
                            }
                        };
                        let result = {
                            let _fetch = ooc_trace::enabled().then(|| {
                                ooc_trace::span_with(
                                    "pipeline",
                                    "prefetch-fetch",
                                    vec![("seq", request.seq.into())],
                                )
                            });
                            source.fetch(&request.tile)
                        };
                        // Causal link: this delivery's consumption on a
                        // shard lane closes flow `seq`.
                        ooc_trace::flow_start("pipeline", "delivery", request.seq);
                        if tx
                            .send(Delivery {
                                seq: request.seq,
                                tile: request.tile,
                                result,
                            })
                            .is_err()
                        {
                            // Receiver gone: the pool is shutting down.
                            return;
                        }
                    }
                })
            })
            .collect();
        PrefetchPool {
            state,
            deliveries: rx,
            workers,
            next_seq: 0,
            received: 0,
        }
    }

    /// Requests issued minus deliveries consumed.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.next_seq - self.received
    }

    /// Enqueues a fetch of `tile`, returning its sequence number.
    pub fn submit(&mut self, tile: TileId) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        {
            let mut q = self.state.queue.lock().expect("prefetch queue");
            q.requests.push_back(PrefetchRequest { seq, tile });
        }
        self.state.ready.notify_one();
        seq
    }

    /// A completed delivery if one is ready, without blocking.
    pub fn try_recv(&mut self) -> Option<Delivery> {
        match self.deliveries.try_recv() {
            Ok(d) => {
                self.received += 1;
                Some(d)
            }
            Err(_) => None,
        }
    }

    /// Blocks for the next delivery — the pipeline's stall path.
    /// `None` only when nothing is in flight (otherwise the wait
    /// would never finish) or every worker has died.
    pub fn recv(&mut self) -> Option<Delivery> {
        if self.in_flight() == 0 {
            return None;
        }
        match self.deliveries.recv() {
            Ok(d) => {
                self.received += 1;
                Some(d)
            }
            Err(_) => None,
        }
    }

    /// Closes the queue and joins every worker. Requests still queued
    /// are dropped; deliveries already produced remain readable via
    /// `try_recv` until the pool itself drops.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.state.queue.lock().expect("prefetch queue");
            q.closed = true;
            q.requests.clear();
        }
        self.state.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for PrefetchPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SlotKey;
    use ooc_runtime::Region;
    use std::collections::BTreeMap;

    /// A source staging tiles from an in-memory table, with optional
    /// per-array failure.
    struct TableSource {
        values: BTreeMap<u32, f64>,
        fail_array: Option<u32>,
    }

    impl TileSource for TableSource {
        fn fetch(&mut self, tile: &TileId) -> io::Result<(Tile, IoStats)> {
            if self.fail_array == Some(tile.key.array) {
                return Err(io::Error::other("fetch failed"));
            }
            let mut t = Tile::zeroed(tile.region.clone());
            let v = *self.values.get(&tile.key.array).unwrap_or(&0.0);
            for x in t.data_mut() {
                *x = v;
            }
            let stats = IoStats {
                read_calls: 1,
                read_elems: t.data().len() as u64,
                reads: 1,
                ..IoStats::default()
            };
            Ok((t, stats))
        }
    }

    fn make_pool(workers: usize, fail_array: Option<u32>) -> PrefetchPool {
        let sources: Vec<Box<dyn TileSource>> = (0..workers)
            .map(|_| {
                Box::new(TableSource {
                    values: BTreeMap::from([(0, 1.0), (1, 2.0), (2, 3.0)]),
                    fail_array,
                }) as Box<dyn TileSource>
            })
            .collect();
        PrefetchPool::new(sources)
    }

    fn tile(array: u32, lo: i64, hi: i64) -> TileId {
        TileId {
            key: SlotKey { array, slot: 0 },
            region: Region::new(vec![lo], vec![hi]),
        }
    }

    #[test]
    fn delivers_every_request_once() {
        let mut pool = make_pool(3, None);
        let mut expected = BTreeMap::new();
        for i in 0..12u64 {
            let array = (i % 3) as u32;
            let seq = pool.submit(tile(array, 1, 4));
            expected.insert(seq, array);
        }
        assert_eq!(pool.in_flight(), 12);
        let mut seen = BTreeMap::new();
        while pool.in_flight() > 0 {
            let d = pool.recv().expect("delivery while in flight");
            let (t, stats) = d.result.expect("fetch ok");
            assert_eq!(stats.read_calls, 1);
            assert_eq!(t.data()[0], f64::from(expected[&d.seq] + 1));
            assert!(seen.insert(d.seq, ()).is_none(), "seq delivered once");
        }
        assert_eq!(seen.len(), 12);
        assert!(pool.recv().is_none(), "no phantom deliveries");
    }

    #[test]
    fn errors_are_delivered_not_lost() {
        let mut pool = make_pool(2, Some(1));
        pool.submit(tile(0, 1, 2));
        pool.submit(tile(1, 1, 2));
        let mut ok = 0;
        let mut err = 0;
        for _ in 0..2 {
            match pool.recv().expect("delivery").result {
                Ok(_) => ok += 1,
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::Other);
                    err += 1;
                }
            }
        }
        assert_eq!((ok, err), (1, 1));
    }

    #[test]
    fn shutdown_joins_and_drops_queued_work() {
        let mut pool = make_pool(1, None);
        for _ in 0..4 {
            pool.submit(tile(0, 1, 64));
        }
        pool.shutdown();
        assert!(pool.workers.is_empty());
        // Drop after shutdown is a no-op; already-produced deliveries
        // may or may not exist, but recv never hangs.
        while pool.try_recv().is_some() {}
    }

    #[test]
    fn empty_pool_serves_nothing() {
        let mut pool = PrefetchPool::new(Vec::new());
        assert!(pool.workers.is_empty());
        pool.submit(tile(0, 1, 2));
        assert!(pool.try_recv().is_none());
        // With zero workers every tx clone was dropped in new(), so a
        // blocking recv observes the hangup instead of deadlocking.
        assert!(pool.recv().is_none());
        pool.shutdown();
    }
}
