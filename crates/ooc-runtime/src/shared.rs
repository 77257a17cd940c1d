//! Concurrent store sharing: [`SharedStore`] puts any [`Store`]
//! behind an `Arc<Mutex<…>>` so several threads — the main executor,
//! prefetch workers, a write-behind thread — can issue calls against
//! the *same* backing file or memory buffer.
//!
//! The [`Store`] trait takes `&mut self` for writes, which is the
//! right shape for exclusive single-threaded ownership but rules out
//! sharing. `SharedStore` restores sharing by interior mutability:
//! every call locks, issues, and unlocks, so call-level atomicity is
//! preserved (a run is never observed half-written) while the
//! *ordering* of calls across threads is whatever the callers
//! establish — the tile pipeline orders conflicting accesses with
//! write-behind flush barriers.
//!
//! Instrumentation composes unchanged: wrap the instrumented stack
//! (`TracingStore`, `FaultStore`, …) in the `SharedStore`, and every
//! clone's traffic lands in the same shared counters.

use crate::profile::AccessRecord;
use crate::store::Store;
use crate::trace::MeasuredIo;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};

/// A cloneable, thread-safe handle onto a single underlying [`Store`].
///
/// All clones address the same store; each call takes the shared lock
/// for its duration. `SharedStore<S>` is `Send + Sync` whenever `S`
/// is `Send` (the compile-time assertion tests pin this down).
#[derive(Debug, Default)]
pub struct SharedStore<S>(Arc<Mutex<S>>);

impl<S> Clone for SharedStore<S> {
    fn clone(&self) -> Self {
        SharedStore(Arc::clone(&self.0))
    }
}

impl<S: Store> SharedStore<S> {
    /// Wraps `inner` for sharing.
    #[must_use]
    pub fn new(inner: S) -> Self {
        SharedStore(Arc::new(Mutex::new(inner)))
    }

    /// Runs `f` with the lock held — for metrics snapshots or test
    /// inspection of the wrapped store. A panicking peer cannot brick
    /// the store: lock poisoning is ignored (calls are run-atomic, so
    /// the inner store stays consistent call to call).
    pub fn with_inner<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl<S: Store> Store for SharedStore<S> {
    fn len(&self) -> u64 {
        self.with_inner(|s| s.len())
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        self.with_inner(|s| s.read_run(offset, buf))
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        self.with_inner(|s| s.write_run(offset, buf))
    }

    fn reset_metrics(&mut self) {
        self.with_inner(Store::reset_metrics);
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        self.with_inner(|s| s.metrics())
    }

    fn access_log(&self) -> Option<Vec<AccessRecord>> {
        self.with_inner(|s| s.access_log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use crate::trace::TracingStore;

    #[test]
    fn clones_address_the_same_store() {
        let a = SharedStore::new(MemStore::new(8));
        let mut b = a.clone();
        b.write_run(2, &[5.0, 6.0]).expect("write via clone");
        let mut buf = [0.0; 2];
        a.read_run(2, &mut buf).expect("read via original");
        assert_eq!(buf, [5.0, 6.0]);
    }

    #[test]
    fn instrumentation_is_shared_across_clones() {
        let a = SharedStore::new(TracingStore::new(MemStore::new(8)));
        let mut b = a.clone();
        b.write_run(0, &[1.0; 4]).expect("w");
        let mut buf = [0.0; 4];
        a.read_run(0, &mut buf).expect("r");
        let m = a.metrics().expect("traced");
        assert_eq!(m.write_calls, 1);
        assert_eq!(m.read_calls, 1);
        b.reset_metrics();
        assert_eq!(a.metrics().expect("traced"), MeasuredIo::default());
    }

    #[test]
    fn concurrent_writers_land_every_run() {
        let store = SharedStore::new(MemStore::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let mut s = store.clone();
                scope.spawn(move || {
                    for i in 0..16u64 {
                        if i % 4 == t {
                            s.write_run(i * 4, &[t as f64 + 1.0; 4]).expect("write");
                        }
                    }
                });
            }
        });
        let mut buf = [0.0; 64];
        store.read_run(0, &mut buf).expect("read");
        for (i, chunk) in buf.chunks(4).enumerate() {
            let owner = (i % 4) as f64 + 1.0;
            assert_eq!(chunk, [owner; 4], "run {i}");
        }
    }
}
