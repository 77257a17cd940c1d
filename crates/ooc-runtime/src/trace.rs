//! Measured I/O instrumentation: [`TracingStore`] observes every
//! `read_run`/`write_run` a [`Store`] receives and aggregates it into
//! [`MeasuredIo`].
//!
//! The paper's evaluation reasons about I/O *calls* analytically (run
//! counting over layouts). This module closes the loop: the runtime's
//! actual store traffic is measured — call counts, element volume,
//! seek distance between consecutive calls, and a run-length
//! histogram — so the analytic claims can be asserted against observed
//! behavior (cf. the measured-I/O methodology of Zhang & Yang,
//! *Optimizing I/O for Big Array Analytics*).

use crate::store::Store;
use std::io;
use std::sync::{Mutex, MutexGuard};

/// Run-length histogram buckets; bucket `i` counts calls moving
/// `2^i ..= 2^(i+1)-1` elements, the last bucket absorbs the overflow.
/// Shared with `ooc_metrics` so measured histograms convert losslessly
/// into registry histograms.
pub const RUN_HIST_BUCKETS: usize = ooc_metrics::LOG2_BUCKETS;

/// Measured I/O counters of one store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasuredIo {
    /// Successful `read_run` calls.
    pub read_calls: u64,
    /// Successful `write_run` calls.
    pub write_calls: u64,
    /// Elements moved by reads.
    pub read_elems: u64,
    /// Elements moved by writes.
    pub write_elems: u64,
    /// Calls that failed in the backing store (fault injection,
    /// out-of-range); they move no data and enter no histogram.
    pub failed_calls: u64,
    /// Sum of absolute element-offset gaps between the end of one
    /// call and the start of the next — the total seek distance a
    /// disk arm would travel, in elements.
    pub seek_elems: u64,
    /// Calls that did not start where the previous call ended.
    pub seeks: u64,
    /// Histogram of per-call run lengths (powers of two).
    pub run_hist: [u64; RUN_HIST_BUCKETS],
}

impl Default for MeasuredIo {
    fn default() -> Self {
        MeasuredIo {
            read_calls: 0,
            write_calls: 0,
            read_elems: 0,
            write_elems: 0,
            failed_calls: 0,
            seek_elems: 0,
            seeks: 0,
            run_hist: [0; RUN_HIST_BUCKETS],
        }
    }
}

impl MeasuredIo {
    /// Total successful calls.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Total elements moved.
    #[must_use]
    pub fn total_elems(&self) -> u64 {
        self.read_elems + self.write_elems
    }

    /// Mean elements per successful call (0 when idle).
    #[must_use]
    pub fn mean_run_len(&self) -> f64 {
        if self.total_calls() == 0 {
            0.0
        } else {
            self.total_elems() as f64 / self.total_calls() as f64
        }
    }

    /// Adds `other`'s counters into `self` (histograms included).
    pub fn merge(&mut self, other: &MeasuredIo) {
        self.read_calls += other.read_calls;
        self.write_calls += other.write_calls;
        self.read_elems += other.read_elems;
        self.write_elems += other.write_elems;
        self.failed_calls += other.failed_calls;
        self.seek_elems += other.seek_elems;
        self.seeks += other.seeks;
        for (a, b) in self.run_hist.iter_mut().zip(&other.run_hist) {
            *a += b;
        }
    }

    /// The histogram bucket of a run of `len` elements (the shared
    /// `ooc_metrics` log2 scheme).
    #[must_use]
    pub fn bucket_of(len: u64) -> usize {
        ooc_metrics::log2_bucket(len)
    }

    /// The measured run-length histogram as a registry
    /// [`Histogram`](ooc_metrics::Histogram) (same bucket scheme; the
    /// sum is the total elements moved).
    #[must_use]
    pub fn run_histogram(&self) -> ooc_metrics::Histogram {
        ooc_metrics::Histogram::from_counts(self.run_hist, self.total_elems())
    }

    /// Compact one-line rendering of the run-length histogram (see
    /// [`Histogram::compact`](ooc_metrics::Histogram::compact)).
    #[must_use]
    pub fn run_hist_compact(&self) -> String {
        self.run_histogram().compact()
    }

    /// Counts one successful call of `len` elements: calls, volume
    /// and run-length bucket, no seek tracking (the per-node lanes of
    /// an [`IoNodePool`](crate::IoNodePool) interleave many arrays).
    pub(crate) fn count(&mut self, len: u64, is_write: bool) {
        if is_write {
            self.write_calls += 1;
            self.write_elems += len;
        } else {
            self.read_calls += 1;
            self.read_elems += len;
        }
        self.run_hist[Self::bucket_of(len)] += 1;
    }

    fn record(&mut self, offset: u64, len: u64, is_write: bool, last_end: &mut Option<u64>) {
        self.count(len, is_write);
        if let Some(end) = *last_end {
            let gap = end.abs_diff(offset);
            if gap > 0 {
                self.seeks += 1;
                self.seek_elems += gap;
            }
        }
        *last_end = Some(offset + len);
    }
}

#[derive(Debug, Default)]
struct TraceState {
    io: MeasuredIo,
    last_end: Option<u64>,
}

/// A [`Store`] wrapper recording every call into [`MeasuredIo`]
/// counters, read back through [`Store::metrics`].
#[derive(Debug)]
pub struct TracingStore<S> {
    inner: S,
    trace: Mutex<TraceState>,
}

impl<S: Store> TracingStore<S> {
    /// Wraps `inner` with a fresh trace.
    #[must_use]
    pub fn new(inner: S) -> Self {
        TracingStore {
            inner,
            trace: Mutex::default(),
        }
    }

    /// The wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, discarding the trace.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn state(&self) -> MutexGuard<'_, TraceState> {
        self.trace.lock().expect("trace lock")
    }

    fn record(&self, offset: u64, len: u64, is_write: bool) {
        let mut s = self.state();
        let TraceState { io, last_end } = &mut *s;
        io.record(offset, len, is_write, last_end);
    }

    fn record_failure(&self) {
        self.state().io.failed_calls += 1;
        ooc_trace::instant("runtime", "io-fault", Vec::new());
    }
}

impl<S: Store> Store for TracingStore<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        match self.inner.read_run(offset, buf) {
            Ok(()) => {
                self.record(offset, buf.len() as u64, false);
                Ok(())
            }
            Err(e) => {
                self.record_failure();
                Err(e)
            }
        }
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        match self.inner.write_run(offset, buf) {
            Ok(()) => {
                self.record(offset, buf.len() as u64, true);
                Ok(())
            }
            Err(e) => {
                self.record_failure();
                Err(e)
            }
        }
    }

    fn reset_metrics(&mut self) {
        *self.state() = TraceState::default();
        self.inner.reset_metrics();
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        Some(self.state().io.clone())
    }

    fn access_log(&self) -> Option<Vec<crate::profile::AccessRecord>> {
        self.inner.access_log()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    #[test]
    fn records_calls_volume_and_seeks() {
        let mut s = TracingStore::new(MemStore::new(64));
        s.write_run(0, &[1.0; 8]).expect("w");
        s.write_run(8, &[2.0; 8]).expect("w"); // sequential: no seek
        s.write_run(32, &[3.0; 4]).expect("w"); // seek of 16
        let mut buf = [0.0; 8];
        s.read_run(0, &mut buf).expect("r"); // seek back of 36
        let m = s.metrics().expect("traced");
        assert_eq!(m.write_calls, 3);
        assert_eq!(m.read_calls, 1);
        assert_eq!(m.write_elems, 20);
        assert_eq!(m.read_elems, 8);
        assert_eq!(m.seeks, 2);
        assert_eq!(m.seek_elems, 16 + 36);
        assert_eq!(m.total_calls(), 4);
        assert_eq!(m.mean_run_len(), 7.0);
    }

    #[test]
    fn run_histogram_buckets() {
        assert_eq!(MeasuredIo::bucket_of(0), 0);
        assert_eq!(MeasuredIo::bucket_of(1), 0);
        assert_eq!(MeasuredIo::bucket_of(2), 1);
        assert_eq!(MeasuredIo::bucket_of(3), 1);
        assert_eq!(MeasuredIo::bucket_of(8), 3);
        assert_eq!(MeasuredIo::bucket_of(u64::MAX), RUN_HIST_BUCKETS - 1);

        let mut s = TracingStore::new(MemStore::new(64));
        s.write_run(0, &[0.0; 8]).expect("w");
        s.write_run(8, &[0.0; 7]).expect("w");
        let m = s.metrics().expect("traced");
        assert_eq!(m.run_hist[3], 1);
        assert_eq!(m.run_hist[2], 1);
    }

    #[test]
    fn run_histogram_converts_to_registry_histogram() {
        let mut s = TracingStore::new(MemStore::new(64));
        s.write_run(0, &[0.0; 8]).expect("w");
        s.write_run(8, &[0.0; 7]).expect("w");
        let m = s.metrics().expect("traced");
        let hist = m.run_histogram();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 15);
        assert_eq!(hist.buckets[3], 1);
        assert_eq!(hist.buckets[2], 1);
    }

    #[test]
    fn failures_counted_separately() {
        let mut s = TracingStore::new(MemStore::new(4));
        assert!(s.write_run(3, &[0.0; 4]).is_err());
        let m = s.metrics().expect("traced");
        assert_eq!(m.failed_calls, 1);
        assert_eq!(m.total_calls(), 0);
        assert_eq!(m.total_elems(), 0);
    }

    #[test]
    fn reset_through_store_trait() {
        let mut s = TracingStore::new(MemStore::new(8));
        s.write_run(0, &[1.0; 8]).expect("w");
        assert_eq!(s.metrics().expect("traced").write_calls, 1);
        s.reset_metrics();
        assert_eq!(s.metrics().expect("traced"), MeasuredIo::default());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MeasuredIo::default();
        let mut b = MeasuredIo {
            read_calls: 2,
            read_elems: 16,
            ..MeasuredIo::default()
        };
        b.run_hist[3] = 2;
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.read_calls, 4);
        assert_eq!(a.read_elems, 32);
        assert_eq!(a.run_hist[3], 4);
    }
}
