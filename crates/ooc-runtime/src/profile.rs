//! I/O access-pattern profiling: the full call trace, not just
//! aggregate counters.
//!
//! Where [`TracingStore`](crate::trace::TracingStore) aggregates store
//! traffic into [`MeasuredIo`] counters,
//! [`ProfilingStore`] keeps every `(offset, len, read/write)` call in
//! order. From that trace this module derives the *shape* questions
//! the paper's evaluation turns on — is the traffic a few long
//! sequential runs or many seeky fragments? — as:
//!
//! * seek-distance distributions ([`SeekCdf`]: quantiles over the
//!   element gaps between consecutive calls),
//! * sequential-run statistics ([`SeqStats`]: maximal bursts of
//!   gap-free calls, their lengths, the sequential-call fraction),
//! * an ASCII file heatmap ([`heatmap`]: touch density across the
//!   file, rendered for terminals).
//!
//! A priced simulated-time view of the same trace lives in
//! `pfs_sim::pricing` (the cost model owns the constants); `inspect
//! --profile` glues the two together.

use crate::store::Store;
use crate::trace::MeasuredIo;
use std::io;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One successful store call, in trace order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Element offset of the call.
    pub offset: u64,
    /// Elements moved.
    pub len: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

impl AccessRecord {
    /// One past the last element the call touches.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// A [`Store`] wrapper recording every *successful* call in order,
/// read back through [`Store::access_log`] (failed calls move no data;
/// the aggregate [`MeasuredIo`] counts them separately).
#[derive(Debug)]
pub struct ProfilingStore<S> {
    inner: S,
    log: Mutex<Vec<AccessRecord>>,
}

impl<S: Store> ProfilingStore<S> {
    /// Wraps `inner` with a fresh log.
    #[must_use]
    pub fn new(inner: S) -> Self {
        ProfilingStore {
            inner,
            log: Mutex::default(),
        }
    }

    /// The wrapped store.
    #[must_use]
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps, discarding the log.
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn records(&self) -> MutexGuard<'_, Vec<AccessRecord>> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<S: Store> Store for ProfilingStore<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_run(&self, offset: u64, buf: &mut [f64]) -> io::Result<()> {
        self.inner.read_run(offset, buf)?;
        self.records().push(AccessRecord {
            offset,
            len: buf.len() as u64,
            write: false,
        });
        Ok(())
    }

    fn write_run(&mut self, offset: u64, buf: &[f64]) -> io::Result<()> {
        self.inner.write_run(offset, buf)?;
        self.records().push(AccessRecord {
            offset,
            len: buf.len() as u64,
            write: true,
        });
        Ok(())
    }

    fn reset_metrics(&mut self) {
        self.records().clear();
        self.inner.reset_metrics();
    }

    fn metrics(&self) -> Option<MeasuredIo> {
        self.inner.metrics()
    }

    fn access_log(&self) -> Option<Vec<AccessRecord>> {
        Some(self.records().clone())
    }
}

/// The seek-distance distribution of a call trace: the nonzero element
/// gaps between where one call ends and the next begins, sorted.
#[derive(Debug, Clone, Default)]
pub struct SeekCdf {
    /// Sorted nonzero seek distances, one per non-sequential call
    /// transition.
    pub distances: Vec<u64>,
}

impl SeekCdf {
    /// Builds the distribution from a call trace.
    #[must_use]
    pub fn from_records(records: &[AccessRecord]) -> Self {
        let mut distances: Vec<u64> = records
            .windows(2)
            .filter_map(|w| {
                let gap = w[0].end().abs_diff(w[1].offset);
                (gap > 0).then_some(gap)
            })
            .collect();
        distances.sort_unstable();
        SeekCdf { distances }
    }

    /// Number of seeks (non-sequential transitions).
    #[must_use]
    pub fn seeks(&self) -> u64 {
        self.distances.len() as u64
    }

    /// Total seek distance in elements.
    #[must_use]
    pub fn total_elems(&self) -> u64 {
        self.distances.iter().sum()
    }

    /// The `q`-quantile seek distance (nearest-rank; `q` clamped to
    /// `[0, 1]`). Zero when there are no seeks.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.distances.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank =
            ((q * self.distances.len() as f64).ceil() as usize).clamp(1, self.distances.len());
        self.distances[rank - 1]
    }

    /// The largest seek (0 when none).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.distances.last().copied().unwrap_or(0)
    }
}

/// Sequential-run statistics of a call trace: maximal bursts of calls
/// where each call starts exactly where the previous one ended.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeqStats {
    /// Total calls in the trace.
    pub calls: u64,
    /// Total elements moved.
    pub elems: u64,
    /// Number of maximal sequential bursts (a lone call is a burst of
    /// one).
    pub bursts: u64,
    /// Fraction of call *transitions* that were sequential (gap 0);
    /// 1.0 for a fully streaming trace, 0.0 when every call seeks.
    pub seq_frac: f64,
    /// Mean burst length in elements.
    pub mean_burst_elems: f64,
    /// Longest burst in elements.
    pub longest_burst_elems: u64,
}

/// Computes [`SeqStats`] over a call trace.
#[must_use]
pub fn sequential_stats(records: &[AccessRecord]) -> SeqStats {
    if records.is_empty() {
        return SeqStats::default();
    }
    let calls = records.len() as u64;
    let elems: u64 = records.iter().map(|r| r.len).sum();
    let mut bursts = 0u64;
    let mut longest = 0u64;
    let mut current = 0u64;
    let mut seq_transitions = 0u64;
    let mut prev_end: Option<u64> = None;
    for r in records {
        match prev_end {
            Some(end) if end == r.offset => {
                seq_transitions += 1;
                current += r.len;
            }
            _ => {
                if current > 0 {
                    bursts += 1;
                    longest = longest.max(current);
                }
                current = r.len;
            }
        }
        prev_end = Some(r.end());
    }
    bursts += 1;
    longest = longest.max(current);
    let transitions = calls - 1;
    SeqStats {
        calls,
        elems,
        bursts,
        seq_frac: if transitions == 0 {
            1.0
        } else {
            seq_transitions as f64 / transitions as f64
        },
        mean_burst_elems: elems as f64 / bursts as f64,
        longest_burst_elems: longest,
    }
}

/// Density ramp used by [`heatmap`], coldest to hottest.
const HEAT_RAMP: &[u8] = b" .:-=+*#%@";

/// Renders the touch density of a call trace across a file of
/// `file_len` elements as one ASCII line of `bins` characters: each
/// bin's character scales with how many element-touches landed in it
/// (`' '` untouched → `'@'` hottest, scaled to the hottest bin).
#[must_use]
pub fn heatmap(records: &[AccessRecord], file_len: u64, bins: usize) -> String {
    if file_len == 0 || bins == 0 {
        return String::new();
    }
    let mut weight = vec![0.0f64; bins];
    let scale = bins as f64 / file_len as f64;
    for r in records {
        let start = r.offset.min(file_len) as f64 * scale;
        let end = r.end().min(file_len) as f64 * scale;
        let (lo, hi) = (start.floor() as usize, end.ceil() as usize);
        for (b, w) in weight
            .iter_mut()
            .enumerate()
            .take(hi.min(bins))
            .skip(lo.min(bins))
        {
            let bin_lo = b as f64;
            let bin_hi = bin_lo + 1.0;
            let overlap = (end.min(bin_hi) - start.max(bin_lo)).max(0.0);
            *w += overlap;
        }
    }
    let max = weight.iter().fold(0.0f64, |a, &b| a.max(b));
    weight
        .iter()
        .map(|&w| {
            if w <= 0.0 || max <= 0.0 {
                ' '
            } else {
                let idx = ((w / max) * (HEAT_RAMP.len() - 1) as f64).round() as usize;
                // Touched bins never render as blank.
                HEAT_RAMP[idx.max(1)] as char
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn rec(offset: u64, len: u64) -> AccessRecord {
        AccessRecord {
            offset,
            len,
            write: false,
        }
    }

    #[test]
    fn profiling_store_records_call_trace_in_order() {
        let mut s = ProfilingStore::new(MemStore::new(64));
        s.write_run(0, &[1.0; 8]).expect("w");
        let mut buf = [0.0; 4];
        s.read_run(32, &mut buf).expect("r");
        assert_eq!(
            s.access_log().expect("profiled"),
            vec![
                AccessRecord {
                    offset: 0,
                    len: 8,
                    write: true
                },
                AccessRecord {
                    offset: 32,
                    len: 4,
                    write: false
                },
            ]
        );
    }

    #[test]
    fn failed_calls_not_logged_and_reset_clears() {
        let mut s = ProfilingStore::new(MemStore::new(4));
        let log = |s: &ProfilingStore<MemStore>| s.access_log().expect("profiled");
        assert!(s.write_run(3, &[0.0; 4]).is_err());
        assert!(log(&s).is_empty());
        s.write_run(0, &[0.0; 2]).expect("w");
        assert_eq!(log(&s).len(), 1);
        s.reset_metrics();
        assert!(log(&s).is_empty());
    }

    #[test]
    fn profiling_forwards_inner_metrics() {
        use crate::trace::TracingStore;
        let mut s = ProfilingStore::new(TracingStore::new(MemStore::new(16)));
        s.write_run(0, &[0.0; 8]).expect("w");
        let m = s.metrics().expect("inner traced");
        assert_eq!(m.write_calls, 1);
        assert_eq!(m.write_elems, 8);
    }

    #[test]
    fn seek_cdf_quantiles() {
        // Calls at 0..8, 8..16 (sequential), 100..108 (seek 84),
        // 4..8 (seek 104 back).
        let records = [rec(0, 8), rec(8, 8), rec(100, 8), rec(4, 4)];
        let cdf = SeekCdf::from_records(&records);
        assert_eq!(cdf.seeks(), 2);
        assert_eq!(cdf.total_elems(), 84 + 104);
        assert_eq!(cdf.quantile(0.5), 84);
        assert_eq!(cdf.quantile(1.0), 104);
        assert_eq!(cdf.max(), 104);
        assert_eq!(SeekCdf::from_records(&[]).quantile(0.5), 0);
    }

    #[test]
    fn sequential_stats_bursts() {
        // Two bursts: [0..8)+[8..16) = 16 elems, then [100..104) = 4.
        let records = [rec(0, 8), rec(8, 8), rec(100, 4)];
        let s = sequential_stats(&records);
        assert_eq!(s.calls, 3);
        assert_eq!(s.elems, 20);
        assert_eq!(s.bursts, 2);
        assert_eq!(s.longest_burst_elems, 16);
        assert!((s.seq_frac - 0.5).abs() < 1e-12);
        assert!((s.mean_burst_elems - 10.0).abs() < 1e-12);

        let lone = sequential_stats(&[rec(0, 4)]);
        assert_eq!(lone.bursts, 1);
        assert_eq!(lone.seq_frac, 1.0);
        assert_eq!(sequential_stats(&[]), SeqStats::default());
    }

    #[test]
    fn heatmap_shows_touched_regions() {
        // Touch the first half of a 64-element file.
        let map = heatmap(&[rec(0, 32)], 64, 8);
        assert_eq!(map.len(), 8);
        assert!(map[..4].chars().all(|c| c == '@'), "{map:?}");
        assert!(map[4..].chars().all(|c| c == ' '), "{map:?}");
        // Hot spot beats single touch.
        let records = [rec(0, 8), rec(0, 8), rec(0, 8), rec(56, 8)];
        let map = heatmap(&records, 64, 8);
        assert_eq!(map.chars().next(), Some('@'));
        let last = map.chars().last().expect("bin");
        assert!(last != ' ' && last != '@', "{map:?}");
        assert_eq!(heatmap(&[], 0, 8), "");
    }
}
